"""Time integration of the truncated flow in coefficient space.

Model-unit ODE (e(x) := exp(2 pi i x)):

    i a_n' = 2 pi n^2 a_n + coupling * G_n(a),
    G_n(a) = (1/2 pi) sum c(n,n1,n2,n3) a_{n1} conj(a_{n2}) a_{n3},

so the free flow multiplies a_n by e(-n^2 t).  Physical time on the unit
ball is t_phys = (2/pi) t_model; the two are never mixed.

Two integrators:

* ``reference_rk4`` -- classical RK4 applied in the rotating (interaction)
  frame b_n = a_n e(n^2 t) (Lawson RK4), with G exact up to rounding:
  basis.cubic_term on the 3N-sample sine grid, O(N^2) per row, no
  correlation tensor.  The linear phases are exact, so mass/energy drift
  comes only from the RK4 error on the (small) nonlinear term; plain RK4
  on the stiff full ODE cannot meet the conservation budget at the
  default step size.
* ``collocation_split`` -- Strang splitting: exact half linear phase,
  pointwise nonlinear rotation u -> u exp(-i coupling |u|^2 dt) on the
  3N-sample sine grid of basis.cubic_grid followed by the (orthogonal)
  discrete sine projection back to N modes, exact half linear phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import CorrelationTensor, CubicBuffers, cubic_term, sine_back, sine_samples
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


# Largest real or imaginary part _check_record accepts: squares and their
# sums in _mass stay far from float overflow.
_MAX_PART = 1e150


def _mass(coeffs) -> np.ndarray:
    """2 pi sum_n |a_n|^2 along the last axis (one vector or one per row)."""
    return 2.0 * np.pi * np.sum(np.abs(coeffs) ** 2, axis=-1)


def default_dt(N: int) -> float:
    """dt = min(1e-3, 0.1/(2 pi N^2)) so linear phases stay resolved."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return min(1e-3, 0.1 / (2.0 * np.pi * N * N))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "reference_rk4"
    dt: float = 1e-4
    coupling: float = 1.0
    dt_record: float | None = None

    def __post_init__(self):
        if self.method not in ("reference_rk4", "collocation_split"):
            raise DomainError(f"unknown integrator method {self.method!r}")
        if not 0 < self.dt < math.inf:
            raise DomainError("dt must be positive and finite")
        if self.dt_record is not None and not self.dt <= self.dt_record < math.inf:
            raise DomainError("dt_record must be finite and >= dt")


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


def nonlinear_coefficient(state: RadialState, n: int) -> complex:
    """G_n(a), the mode-n coefficient of P_N(|u|^2 u) / ||e_n||^2."""
    if not (1 <= n <= state.N):
        raise DomainError(f"n must be in [1, {state.N}]")
    return complex(TRILINEAR_SCALE * cubic_term(state.coeffs[None, :])[0, n - 1])


class _RK4Buffers:
    """The arrays one rotating-frame RK4 step writes, for one batch shape."""

    def __init__(self, samples: int, N: int):
        self.cubic = CubicBuffers(samples, N)
        self.B, self.Z, self.k1, self.k2, self.k3, self.k4 = (
            np.empty((samples, N), dtype=complex) for _ in range(6)
        )


def _rk4_batch(A, t, dt, nsq, coupling, buf):
    """One rotating-frame RK4 step for a (samples, N) batch at time t.

    The step is

        B = A e(n^2 t),  k(Z, tau) = -i coupling ph (G(Z / ph) / 2 pi),
        ph = e(n^2 tau),  k1 = k(B, t),  k2 = k(B + dt/2 k1, t + dt/2),
        k3 = k(B + dt/2 k2, t + dt/2),  k4 = k(B + dt k3, t + dt),
        B + dt/6 (k1 + 2 k2 + 2 k3 + k4),  times e(-n^2 (t + dt)),

    with every product and sum taken in this order but written into buf
    (_RK4Buffers), so the bits are those of the plain expressions.  Fresh
    (samples, N) temporaries would come from new, page-faulting mappings
    whenever glibc's mmap threshold is low, so the step's cost would
    depend on what the process ran before.  Returns buf.B, which the next
    step with buf overwrites; A may be buf.B.
    """
    B, Z = buf.B, buf.Z

    def k(src, tau, out):
        ph = np.exp(2j * np.pi * nsq * tau)
        W = cubic_term(np.divide(src, ph, out=Z), buf.cubic)
        np.multiply(TRILINEAR_SCALE, W, out=W)
        return np.multiply(-1j * coupling * ph, W, out=out)

    def stage(h, k_prev):
        np.multiply(h, k_prev, out=Z)
        return np.add(B, Z, out=Z)

    np.multiply(A, np.exp(2j * np.pi * nsq * t), out=B)
    k1 = k(B, t, buf.k1)
    k2 = k(stage(0.5 * dt, k1), t + 0.5 * dt, buf.k2)
    k3 = k(stage(0.5 * dt, k2), t + 0.5 * dt, buf.k3)
    k4 = k(stage(dt, k3), t + dt, buf.k4)
    acc = np.add(k1, np.multiply(2, k2, out=k2), out=k1)
    np.add(acc, np.multiply(2, k3, out=k3), out=acc)
    np.add(acc, k4, out=acc)
    np.add(B, np.multiply(dt / 6.0, acc, out=acc), out=B)
    return np.multiply(B, np.exp(-2j * np.pi * nsq * (t + dt)), out=B)


def _rotate(x, y, cos, sin, xs, ys):
    """(x, y) <- (x cos - y sin, x sin + y cos) in place, with work arrays
    xs and ys (ys may be sin).  numpy's complex multiply rounds a
    one-element loop apart from its vector loop: at N = 1 a lone row's bits
    would differ from its batch's."""
    np.multiply(x, sin, out=xs)
    np.multiply(y, sin, out=ys)
    x *= cos
    x -= ys
    y *= cos
    y += xs


def _strang_batch(A, half, grid, back, gauge, buf, xs):
    """One Strang split step for a (samples, N) batch on the sine grid.

    a -> a half (half = e(-n^2 dt/2) as (cos, sin)); v = a @ grid, v(r_j)
    = r_j u(r_j) at r_j = j/M, M = 3N + 1; v_j -> v_j exp(i gauge_j
    |v_j|^2), gauge_j = -coupling dt (M/j)^2; a = v @ back, back = (2/M)
    grid^T, the DST-I, orthogonal on this grid, so no mass is added;
    a -> a half.  Re over Im go through real GEMMs as in cubic_term, and
    back is C-contiguous, so a lone row gets the bits it has in a batch.
    Writes into buf (CubicBuffers) and xs; returns buf.W (A may be it).
    """
    S = len(A)
    parts, V, V2, WW = buf.parts, buf.V, buf.V2, buf.WW
    np.copyto(parts[:S], A.real)
    np.copyto(parts[S:], A.imag)
    _rotate(parts[:S], parts[S:], *half, WW[:S], WW[S:])
    np.matmul(parts, grid, out=V)
    cos, sin = V2[:S], V2[S:]
    np.square(V, out=V2)
    theta = np.add(cos, sin, out=cos)
    theta *= gauge
    np.sin(theta, out=sin)
    np.cos(theta, out=cos)
    _rotate(V[:S], V[S:], cos, sin, xs, sin)
    np.matmul(V, back, out=WW)
    _rotate(WW[:S], WW[S:], *half, parts[:S], parts[S:])
    buf.W.real = WW[:S]
    buf.W.imag = WW[S:]
    return buf.W


def _stepper(shape: tuple[int, int], config: IntegratorConfig):
    """stepper(A, t): one step of config.method for a batch of this shape.

    Each stepper owns its buffers, and its result is one of them.
    """
    S, N = shape
    nsq = np.arange(1, N + 1, dtype=float) ** 2
    if config.method == "reference_rk4":
        buf = _RK4Buffers(S, N)
        return lambda A, t: _rk4_batch(A, t, config.dt, nsq, config.coupling, buf)
    M = 3 * N + 1
    half = np.cos(np.pi * nsq * config.dt), -np.sin(np.pi * nsq * config.dt)
    grid, back = sine_samples(N, M), sine_back(N, M)
    gauge = (-config.coupling * config.dt) * (M * M / np.arange(1, M) ** 2)
    buf, xs = CubicBuffers(S, N), np.empty((S, 3 * N))
    return lambda A, t: _strang_batch(A, half, grid, back, gauge, buf, xs)


def _check_record(A: np.ndarray, mass_prev: np.ndarray, t: float) -> np.ndarray:
    """The mass of each row of A, after checking the rows for blow-up.

    BlowUpError on a non-finite part, a part over _MAX_PART (before _mass
    squares it) or a mass more than 1 % from mass_prev.
    """
    parts = np.abs(A.view(float))
    bounded = (parts <= _MAX_PART).all(axis=1)
    if not bounded.all():
        k = np.argmin(bounded)
        what = (
            f"coefficient over {_MAX_PART:g}"
            if np.isfinite(parts[k]).all()
            else "non-finite coefficients"
        )
        raise BlowUpError(f"{what} at t={t:g}, sample {k}")
    mass_now = _mass(A)
    jump = (mass_prev > 0) & (abs(mass_now - mass_prev) > 0.01 * mass_prev)
    if jump.any():
        k = np.argmax(jump)
        raise BlowUpError(
            f"mass jump over 1% at t={t:g}, sample {k}: "
            f"mass ratio {mass_now[k] / mass_prev[k]:g}"
        )
    return mass_now


def _step(state: RadialState, config: IntegratorConfig) -> RadialState:
    """One step from state, checked like an evolve_batch record."""
    A = state.coeffs[None, :]
    stepped = _stepper(A.shape, config)(A, state.time)
    time = state.time + config.dt
    _check_record(stepped, _mass(A), time)
    return RadialState(N=state.N, coeffs=stepped[0], time=time)


def step_reference(
    state: RadialState,
    config: IntegratorConfig,
    tensor: CorrelationTensor | None = None,
) -> RadialState:
    """One RK4 step of the coefficient ODE (rotating frame, exact grid G).

    ``tensor`` is accepted and ignored: the step needs no tensor.
    """
    if config.method != "reference_rk4":
        raise DomainError("config.method must be reference_rk4")
    return _step(state, config)


def step_collocation(state: RadialState, config: IntegratorConfig) -> RadialState:
    """One Strang splitting step (exact phases + sine-grid nonlinear gauge)."""
    if config.method != "collocation_split":
        raise DomainError("config.method must be collocation_split")
    return _step(state, config)


def conserved_quantities(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mass, energy) per row of a (records, N) coefficient matrix.

    mass = 2 pi sum |a|^2 and energy = 2 pi^2 sum n^2 |a|^2 + Q/4, with the
    quartic Q = ||u||_{L^4}^4 from the exact grid form
    (measures.quartic_norm_quadrature), whichever integrator produced the
    coefficients.
    """
    # measures imports RadialState from this module
    from .measures import quartic_norm_quadrature

    nsq = np.arange(1, coeffs.shape[1] + 1, dtype=float) ** 2
    kinetic = 2.0 * np.pi**2 * np.sum(nsq * np.abs(coeffs) ** 2, axis=1)
    return _mass(coeffs), kinetic + 0.25 * quartic_norm_quadrature(coeffs)


def evolve(
    state: RadialState,
    t_end: float,
    config: IntegratorConfig,
    tensor: CorrelationTensor | None = None,
) -> Trajectory:
    """Integrate to t_end, recording every config.dt_record.

    Mass and energy are logged per recorded state, the same way for both
    integrators (conserved_quantities).  Blow-up raises BlowUpError
    carrying the partial trajectory.  ``tensor`` is accepted and ignored,
    as by evolve_batch.
    """
    if t_end < state.time:
        raise DomainError("t_end must be >= state.time")
    times, records = evolve_batch(state.coeffs[None, :], state.time, t_end, config)
    coeffs = records[:, 0, :]
    return Trajectory(times, coeffs, *conserved_quantities(coeffs))


def _step_counts(span: float, dt: float, dt_record: float | None) -> tuple[int, int]:
    """(steps, steps per record) of a span; DomainError unless the span is
    finite, not negative and a whole number of steps, and dt_record (when
    given) a whole number of steps too."""
    if span < 0:
        raise DomainError("t_end must be >= t0")
    if not np.isfinite(span):
        raise DomainError("(t_end - t0) must be finite")
    steps = int(round(span / dt))
    # a span shorter than dt/2 rounds to no step at all, so it is checked too
    if span > 0 and not abs(steps * dt - span) <= 1e-9 * max(span, dt):
        raise DomainError("(t_end - t0) must be an integer multiple of dt")
    if dt_record is None:
        return steps, max(1, steps // 1024)
    rec_every = max(1, int(round(dt_record / dt)))
    if abs(rec_every * dt - dt_record) > 1e-9 * dt_record:
        raise DomainError("dt_record must be an integer multiple of dt")
    return steps, rec_every


def evolve_batch(
    coeffs: np.ndarray,
    t0: float,
    t_end: float,
    config: IntegratorConfig,
    tensor: CorrelationTensor | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a (samples, N) ensemble; returns (times, (records, samples, N)).

    The workhorse behind evolve() and the experiment drivers; a single
    trajectory is the samples=1 case.  Recording happens every
    round(dt_record/dt) steps, always including both endpoints, into one
    array allocated up front.  ``tensor`` is accepted and ignored: the
    reference integrator's cubic term needs no tensor, and the results are
    the same bits with or without one.
    """
    A = np.asarray(coeffs, dtype=complex)
    S, N = A.shape
    steps, rec_every = _step_counts(t_end - t0, config.dt, config.dt_record)
    stepper = _stepper(A.shape, config)

    # t0, every rec_every-th step, and the last step
    count = 1 + -(-steps // rec_every)
    times = np.empty(count)
    records = np.empty((count, S, N), dtype=complex)
    times[0], records[0] = t0, A
    k = 1
    mass_prev = _mass(A)
    t = t0
    try:
        for step in range(1, steps + 1):
            A = stepper(A, t)
            t = t0 + step * config.dt
            if step % rec_every == 0 or step == steps:
                mass_prev = _check_record(A, mass_prev, t)
                times[k], records[k] = t, A
                k += 1
    except BlowUpError as err:
        err.partial_trajectory = (times[:k], records[:k])
        raise
    return times, records
