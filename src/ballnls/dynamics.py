"""Time integration of the truncated flow in coefficient space.

Model-unit ODE (e(x) := exp(2 pi i x)):

    i a_n' = 2 pi n^2 a_n + coupling * G_n(a),
    G_n(a) = (1/2 pi) sum c(n,n1,n2,n3) a_{n1} conj(a_{n2}) a_{n3},

so the free flow multiplies a_n by e(-n^2 t).  Physical time on the unit
ball is t_phys = (2/pi) t_model; the two are never mixed.

Two integrators:

* ``reference_rk4`` -- classical RK4 applied in the rotating (interaction)
  frame b_n = a_n e(n^2 t), with exact tensor contraction for G.  The
  linear phases are exact, so mass/energy drift comes only from the RK4
  error on the (small) nonlinear term; plain RK4 on the stiff full ODE
  cannot meet the conservation budget at the default step size.
* ``collocation_split`` -- Strang splitting: exact half linear phase,
  pointwise nonlinear rotation u -> u exp(-i coupling |u|^2 dt) on
  quadrature nodes followed by projection, exact half linear phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    CorrelationTensor,
    QuadratureRule,
    cubic_term,
    eval_matrix,
    gauss_legendre_rule,
    quartic_form,
    rule_for_modes,
)
from .errors import BlowUpError, DomainError, ResolutionError

__all__ = [
    "RadialState",
    "IntegratorConfig",
    "Trajectory",
    "default_dt",
    "nonlinear_coefficient",
    "step_reference",
    "step_collocation",
    "evolve",
    "evolve_batch",
    "conserved_quantities",
]

REFERENCE_N_ADVISORY = 32
TRILINEAR_SCALE = 1.0 / (2.0 * np.pi)  # ||e_n||_2^{-2}


@dataclass(frozen=True)
class RadialState:
    """Coefficient vector (a_n)_{n=1..N} of u = sum a_n e_n at one time."""

    N: int
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.N,):
            raise DomainError(f"expected {self.N} coefficients, got {coeffs.shape}")
        if self.N > 0 and not np.all(np.isfinite(coeffs.view(float))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def mass(self) -> float:
        return float(_mass(self.coeffs))

    def hs_weighted(self, s: float) -> float:
        n = np.arange(1, self.N + 1, dtype=float)
        return float(
            np.sqrt(2.0 * np.pi * np.sum(n ** (2 * s) * np.abs(self.coeffs) ** 2))
        )


def _mass(coeffs) -> np.ndarray:
    """2 pi sum_n |a_n|^2 along the last axis (one vector or one per row)."""
    return 2.0 * np.pi * np.sum(np.abs(coeffs) ** 2, axis=-1)


def default_dt(N: int) -> float:
    """dt = min(1e-3, 0.1/(2 pi N^2)) so linear phases stay resolved."""
    return min(1e-3, 0.1 / (2.0 * np.pi * N * N))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "reference_rk4"
    dt: float = 1e-4
    collocation_nodes: int | None = None
    coupling: float = 1.0
    dt_record: float | None = None

    def __post_init__(self):
        if self.method not in ("reference_rk4", "collocation_split"):
            raise DomainError(f"unknown integrator method {self.method!r}")
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.dt_record is not None and self.dt_record < self.dt:
            raise DomainError("dt_record must be >= dt")


@dataclass(frozen=True)
class Trajectory:
    """Recorded coefficients and their conserved-quantity logs, as arrays.

    ``times`` (R,) strictly increasing, ``coeffs`` (R, N) with row j at
    times[j], ``mass_log`` and ``energy_log`` (R,); an energy log that was
    not computed holds NaN.
    """

    times: np.ndarray
    coeffs: np.ndarray
    mass_log: np.ndarray
    energy_log: np.ndarray

    def __post_init__(self):
        R = len(self.times)
        if (np.ndim(self.times), np.ndim(self.coeffs), len(self.coeffs)) != (1, 2, R):
            raise DomainError("expected times (records,) and coeffs (records, N)")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("recorded times must be strictly increasing")
        if np.shape(self.mass_log) != (R,) or np.shape(self.energy_log) != (R,):
            raise DomainError("logs must align with recorded states")

    @classmethod
    def from_coeffs(cls, times, coeffs) -> "Trajectory":
        """Records whose energy was not computed: mass logged, energy NaN."""
        return cls(times, coeffs, _mass(coeffs), np.full(len(times), np.nan))

    @property
    def N(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dt_record(self) -> float:
        """Uniform record spacing; ResolutionError when records are not uniform."""
        if self.times.size < 2:
            return 0.0
        steps = np.diff(self.times)
        dt = float(steps[0])
        # times t0 + j*dt are rounded to a few ulp of |t|
        tol = 1e-9 * dt + 16 * np.finfo(float).eps * np.abs(self.times).max()
        if np.max(np.abs(steps - dt)) > tol:
            raise ResolutionError(
                f"records are not uniform: steps {steps.min():.6g}..{steps.max():.6g}"
            )
        return dt

    @property
    def states(self) -> tuple:
        """Per-record RadialState view, built on each access."""
        return tuple(
            RadialState(N=self.N, coeffs=row, time=float(t))
            for t, row in zip(self.times, self.coeffs)
        )


def _collocation_ops(N: int, rule: QuadratureRule):
    """(E, P): u(nodes) = a @ E and a = (|u|^2 u ...) @ P.T style projection.

    E[n-1, j] = e_n(r_j); P[n-1, j] = 2 sin(n pi r_j) r_j w_j so that
    (P @ u)_n = <u, e_n>/||e_n||^2 without ever dividing by r.
    """
    n = np.arange(1, N + 1, dtype=float)[:, None]
    r = rule.nodes[None, :]
    P = 2.0 * np.sin(np.pi * n * r) * (rule.nodes * rule.weights)[None, :]
    return eval_matrix(N, rule.nodes), P


def _collocation_rule(N: int, config: IntegratorConfig) -> QuadratureRule:
    nodes = config.collocation_nodes
    if nodes is not None and nodes < 8 * N:
        raise ResolutionError(
            f"collocation needs >= {8 * N} nodes for N={N}, got {nodes}"
        )
    if nodes is None:
        # |u|^2 u sin(n pi r) carries frequencies up to 4N
        return rule_for_modes(4 * N)
    degree = 8
    panels = max(4, -(-int(nodes) // degree))
    return gauss_legendre_rule(panels, degree)


def nonlinear_coefficient(
    state: RadialState, n: int, tensor: CorrelationTensor
) -> complex:
    """G_n(a), the mode-n coefficient of P_N(|u|^2 u) / ||e_n||^2."""
    if not (1 <= n <= state.N):
        raise DomainError(f"n must be in [1, {state.N}]")
    M1 = tensor.contraction_matrix(state.N)
    return complex(TRILINEAR_SCALE * cubic_term(state.coeffs[None, :], M1)[0, n - 1])


def _rk4_batch(A, t, dt, M1, nsq, coupling):
    """One rotating-frame RK4 step for a (samples, N) batch at time t."""

    def rhs(B, tau):
        ph = np.exp(2j * np.pi * nsq * tau)
        return -1j * coupling * ph * (TRILINEAR_SCALE * cubic_term(B / ph, M1))

    B = A * np.exp(2j * np.pi * nsq * t)
    k1 = rhs(B, t)
    k2 = rhs(B + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(B + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(B + dt * k3, t + dt)
    B = B + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return B * np.exp(-2j * np.pi * nsq * (t + dt))


def _strang_batch(A, dt, E, P, nsq, coupling):
    """One Strang split step for a (samples, N) batch."""
    half = np.exp(-1j * np.pi * nsq * dt)  # e(-n^2 dt/2)
    A = A * half
    U = A @ E
    U = U * np.exp(-1j * coupling * (U.real**2 + U.imag**2) * dt)
    A = U @ P.T
    return A * half


def step_reference(
    state: RadialState, config: IntegratorConfig, tensor: CorrelationTensor
) -> RadialState:
    """One RK4 step of the coefficient ODE (rotating frame, exact tensor)."""
    if config.method != "reference_rk4":
        raise DomainError("config.method must be reference_rk4")
    nsq = np.arange(1, state.N + 1, dtype=float) ** 2
    M1 = tensor.contraction_matrix(state.N)
    A = _rk4_batch(
        state.coeffs[None, :], state.time, config.dt, M1, nsq, config.coupling
    )
    return _checked_state(state, A[0], state.time + config.dt)


def step_collocation(
    state: RadialState, config: IntegratorConfig, rule: QuadratureRule | None = None
) -> RadialState:
    """One Strang splitting step (exact phases + pointwise nonlinear gauge)."""
    if config.method != "collocation_split":
        raise DomainError("config.method must be collocation_split")
    rule = rule if rule is not None else _collocation_rule(state.N, config)
    if rule.order < 8 * state.N:
        raise ResolutionError(
            f"rule with {rule.order} nodes violates the 8-nodes-per-"
            f"oscillation bound for N={state.N}"
        )
    nsq = np.arange(1, state.N + 1, dtype=float) ** 2
    E, P = _collocation_ops(state.N, rule)
    A = _strang_batch(state.coeffs[None, :], config.dt, E, P, nsq, config.coupling)
    return _checked_state(state, A[0], state.time + config.dt)


def _checked_state(prev: RadialState, coeffs: np.ndarray, time: float) -> RadialState:
    if not np.all(np.isfinite(coeffs.view(float))):
        raise BlowUpError("non-finite coefficients", last_state=prev)
    new = RadialState(N=prev.N, coeffs=coeffs, time=time)
    m0, m1 = prev.mass(), new.mass()
    if m0 > 0 and abs(m1 - m0) > 0.01 * m0:
        raise BlowUpError(
            f"mass jump {abs(m1 - m0) / m0:.2%} in one step", last_state=prev
        )
    return new


def conserved_quantities(
    coeffs: np.ndarray,
    tensor: CorrelationTensor | None = None,
    rule: QuadratureRule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(mass, energy) per row of a (records, N) coefficient matrix.

    mass = 2 pi sum |a|^2 and energy = 2 pi^2 sum n^2 |a|^2 + Q/4, with the
    quartic Q from the tensor when one is given and from the radial
    quadrature otherwise (default rule: rule_for_modes(4 N)).
    """
    # measures imports RadialState from this module
    from .measures import quartic_norm_quadrature

    N = coeffs.shape[1]
    if tensor is not None:
        quartic = quartic_form(coeffs, tensor)
    else:
        rule = rule if rule is not None else rule_for_modes(4 * N)
        quartic = quartic_norm_quadrature(coeffs, rule)
    nsq = np.arange(1, N + 1, dtype=float) ** 2
    kinetic = 2.0 * np.pi**2 * np.sum(nsq * np.abs(coeffs) ** 2, axis=1)
    return _mass(coeffs), kinetic + 0.25 * quartic


def evolve(
    state: RadialState,
    t_end: float,
    config: IntegratorConfig,
    tensor: CorrelationTensor | None = None,
    rule: QuadratureRule | None = None,
) -> Trajectory:
    """Integrate to t_end, recording every config.dt_record.

    Mass is logged per recorded state; energy too when a tensor is
    available (collocation runs without one log the quadrature quartic).
    Blow-up raises BlowUpError carrying the partial trajectory.
    """
    if t_end < state.time:
        raise DomainError("t_end must be >= state.time")
    times, records = evolve_batch(
        state.coeffs[None, :],
        state.time,
        t_end,
        config,
        tensor=tensor,
        rule=rule,
    )
    coeffs = records[:, 0, :]
    return Trajectory(times, coeffs, *conserved_quantities(coeffs, tensor, rule))


def evolve_batch(
    coeffs: np.ndarray,
    t0: float,
    t_end: float,
    config: IntegratorConfig,
    tensor: CorrelationTensor | None = None,
    rule: QuadratureRule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a (samples, N) ensemble; returns (times, (records, samples, N)).

    The workhorse behind evolve() and the experiment drivers; a single
    trajectory is the samples=1 case.  Recording happens every
    round(dt_record/dt) steps, always including both endpoints.
    """
    A = np.asarray(coeffs, dtype=complex).copy()
    S, N = A.shape
    span = t_end - t0
    if span < 0:
        raise DomainError("t_end must be >= t0")
    steps = max(0, int(round(span / config.dt)))
    if steps > 0 and abs(steps * config.dt - span) > 1e-9 * max(span, config.dt):
        raise DomainError("(t_end - t0) must be an integer multiple of dt")
    if config.dt_record is None:
        rec_every = max(1, steps // 1024)
    else:
        rec_every = max(1, int(round(config.dt_record / config.dt)))
        if abs(rec_every * config.dt - config.dt_record) > 1e-9 * config.dt_record:
            raise DomainError("dt_record must be an integer multiple of dt")

    nsq = np.arange(1, N + 1, dtype=float) ** 2
    if config.method == "reference_rk4":
        if tensor is None:
            raise DomainError("reference integrator requires a correlation tensor")
        M1 = tensor.contraction_matrix(N)
        stepper = lambda A, t: _rk4_batch(A, t, config.dt, M1, nsq, config.coupling)
    else:
        rule = rule if rule is not None else _collocation_rule(N, config)
        if rule.order < 8 * N:
            raise ResolutionError(
                f"rule with {rule.order} nodes violates the 8-nodes-per-"
                f"oscillation bound for N={N}"
            )
        E, P = _collocation_ops(N, rule)
        stepper = lambda A, t: _strang_batch(A, config.dt, E, P, nsq, config.coupling)

    rec_times = [t0]
    rec_coeffs = [A.copy()]
    mass_prev = _mass(A)
    t = t0
    try:
        for step in range(1, steps + 1):
            A = stepper(A, t)
            t = t0 + step * config.dt
            if step % rec_every == 0 or step == steps:
                finite = np.isfinite(A.view(float)).all(axis=1)
                if not finite.all():
                    k = np.argmin(finite)
                    raise BlowUpError(f"non-finite coefficients at t={t:g}, sample {k}")
                mass_now = _mass(A)
                jump = (mass_prev > 0) & (abs(mass_now - mass_prev) > 0.01 * mass_prev)
                if jump.any():
                    k = np.argmax(jump)
                    raise BlowUpError(
                        f"mass jump over 1% between records at t={t:g} in "
                        f"sample {k}: mass ratio {mass_now[k] / mass_prev[k]:g}"
                    )
                mass_prev = mass_now
                rec_times.append(t)
                rec_coeffs.append(A.copy())
    except BlowUpError as err:
        err.partial_trajectory = (np.array(rec_times), np.stack(rec_coeffs))
        raise
    return np.array(rec_times), np.stack(rec_coeffs)
