"""Norm evaluators: H^s, mixed L^p_x L^q_t, X^{s,b}, the windowed triple
norm, dyadic projections, space-time spectra and the trilinear form.

Spectrum convention: a window of model-time length 1 starting at t0 is
analyzed as

    f_{n,m} = (1/S) sum_j a_n(t_j) taper_j e(m (t_j - t0)),   t_j = t0 + j/S,

with synthesis a_n(t) = sum_m f_{n,m} e(-m (t - t0)).  The free flow
multiplies a_n by e(-n^2 t), so linear solutions concentrate at m = n^2:
zero modulation on the Schroedinger paraboloid.  The modulation bracket is
<x> := 1 + |x|.

X^{s,b} and triple-norm figures computed through a window are
representation-dependent upper bounds (taper recorded in metadata); no
infimum over extensions is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    CorrelationTensor,
    QuadratureRule,
    TruncatedTensorView,
    eval_matrix,
    nodal_modulus_sq,
    trapezoid_weights,
)
from .dynamics import RadialState, Trajectory
from .errors import DomainError, ResolutionError, UndefinedRatioError

__all__ = [
    "TimeWindow",
    "SpaceTimeSpectrum",
    "TripleNormBound",
    "NormParams",
    "hs_norm",
    "mixed_norm",
    "mixed_norm_matrix",
    "mixed_norm_l2t",
    "spectrum_from_trajectory",
    "spectrum_from_samples",
    "synthesize_uniform",
    "synthesize_trajectory",
    "xsb_norm",
    "triple_norm_upper",
    "dyadic_project",
    "trilinear_form",
    "lemma1_check",
]


@dataclass(frozen=True)
class TimeWindow:
    t0: float = 0.0
    length: float = 1.0
    taper: str = "none"


@dataclass(frozen=True)
class SpaceTimeSpectrum:
    """Grid f_{n,m}, 1 <= n <= N, |m| <= M_half, over a unit time window."""

    N: int
    M_half: int
    values: np.ndarray  # shape (N, 2*M_half + 1), column m + M_half
    window: TimeWindow = TimeWindow()

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=complex)
        if values.shape != (self.N, 2 * self.M_half + 1):
            raise DomainError(
                f"values must have shape ({self.N}, {2 * self.M_half + 1})"
            )
        if self.M_half < 2 * self.N**2:
            raise DomainError(
                f"M_half={self.M_half} < 2 N^2 = {2 * self.N**2}: modulation "
                "range must cover |n^2 - m| up to N^2"
            )
        if not np.all(np.isfinite(values.view(float))):
            raise DomainError("spectrum entries must be finite")
        object.__setattr__(self, "values", values)

    @property
    def m_grid(self) -> np.ndarray:
        return np.arange(-self.M_half, self.M_half + 1)

    def modulation(self) -> np.ndarray:
        """|n^2 - m| on the (n, m) grid."""
        n_sq = (np.arange(1, self.N + 1) ** 2)[:, None]
        return np.abs(n_sq - self.m_grid[None, :]).astype(float)


@dataclass(frozen=True)
class NormParams:
    """Parameter bundle for the norm evaluators."""

    s: float = 0.0
    b: float = 0.0
    p: float = 2.0
    q: float = 2.0
    T: float = 1.0


@dataclass(frozen=True)
class TripleNormBound:
    upper: float
    part_one_mass: float
    part_two_mass: float

    def __post_init__(self):
        if self.upper < 0:
            raise DomainError("bound must be >= 0")


def hs_norm(state: RadialState, s: float) -> float:
    """(2 pi sum n^{2s} |a_n|^2)^{1/2}."""
    n = np.arange(1, state.N + 1, dtype=float)
    return float(
        np.sqrt(2.0 * np.pi * np.sum(n ** (2 * s) * np.abs(state.coeffs) ** 2))
    )


def mixed_norm(
    traj: Trajectory, p: float, q: float, rule: QuadratureRule
) -> float:
    """(4 pi int_0^1 (int |u|^q dt)^{p/q} r^2 dr)^{1/p} over the window.

    Time integral: trapezoid on the recorded samples, which must be
    uniformly spaced (ResolutionError otherwise); q = inf is the max
    over samples (a lower bound whose gap the sampling precondition keeps
    small).
    """
    if len(traj.times) < 2:
        raise ResolutionError("trajectory has fewer than 2 samples")
    return mixed_norm_matrix(traj.coeffs, traj.dt_record, p, q, rule)


def mixed_norm_matrix(
    A: np.ndarray, dt_rec: float, p: float, q: float, rule: QuadratureRule
) -> float:
    """mixed_norm on a coefficient matrix (samples x modes); trapezoid in t."""
    if p < 1 or (q < 1 and not np.isinf(q)):
        raise DomainError("p and q must be >= 1")
    S, N = A.shape
    if dt_rec > 1.0 / (16.0 * N * N) + 1e-12:
        raise ResolutionError(
            f"sampling step {dt_rec:.3g} under-resolves mode {N} "
            f"(need <= {1.0 / (16.0 * N * N):.3g})"
        )
    E = eval_matrix(N, rule.nodes)
    tw = trapezoid_weights(S, dt_rec)
    # g accumulates int |u|^q dt per node, or max |u|^2 for q = inf
    g = np.zeros(rule.order)
    for rows, u2 in nodal_modulus_sq(A, E):
        if np.isinf(q):
            np.maximum(g, u2.max(axis=0), out=g)
        else:
            u2 **= q / 2.0
            g += tw[rows] @ u2
    inner = np.sqrt(g) if np.isinf(q) else g ** (1.0 / q)
    val = 4.0 * np.pi * rule.integrate(inner**p * rule.nodes**2)
    return float(val ** (1.0 / p))


def mixed_norm_l2t(spec: SpaceTimeSpectrum, p: float, rule: QuadratureRule) -> float:
    """L^p_x L^2_t norm straight from the spectrum (Plancherel in time)."""
    if p < 1:
        raise DomainError("p must be >= 1")
    E = eval_matrix(spec.N, rule.nodes)
    # int_0^1 |u(t,r)|^2 dt = sum_m |sum_n f_{n,m} e_n(r)|^2
    g = np.zeros(rule.order)
    for _, u2 in nodal_modulus_sq(spec.values.T, E):
        g += u2.sum(axis=0)
    val = 4.0 * np.pi * rule.integrate(g ** (p / 2.0) * rule.nodes**2)
    return float(val ** (1.0 / p))


def _taper_weights(S: int, taper: str) -> np.ndarray:
    if taper == "none":
        return np.ones(S)
    if taper == "smooth":
        # Hann window normalized to unit mean
        w = 1.0 - np.cos(2.0 * np.pi * np.arange(S) / S)
        return w
    raise DomainError(f"unknown taper {taper!r}")


def spectrum_from_trajectory(
    traj: Trajectory, taper: str = "none", M_half: int | None = None
) -> SpaceTimeSpectrum:
    """Discrete time-Fourier analysis of a_n(t) over a unit window.

    The records must sample [t0, t0 + 1) uniformly, optionally closed by
    the endpoint t0 + 1, which is dropped.
    """
    A = traj.coeffs
    times = traj.times
    dt_rec = traj.dt_record
    S = len(times)
    if S < 2:
        raise ResolutionError("trajectory too short for spectral analysis")
    span = times[-1] - times[0]
    if abs(span - 1.0) < 1e-9 * S:
        # closed window [t0, t0+1]: drop the duplicate endpoint sample
        A = A[:-1]
    elif abs(span + dt_rec - 1.0) > 1e-9 * S:
        raise ResolutionError("trajectory must uniformly sample a unit window")
    return spectrum_from_samples(A, taper, M_half, t0=float(times[0]))


def spectrum_from_samples(
    A: np.ndarray, taper: str = "none", M_half: int | None = None, t0: float = 0.0
) -> SpaceTimeSpectrum:
    """Spectrum of S uniform samples A[j] = a(t0 + j/S), j < S, of a unit window."""
    S, N = A.shape
    if M_half is None:
        M_half = S // 4
    if S < 4 * M_half:
        raise ResolutionError(
            f"{S} samples cannot resolve M_half={M_half} (need >= {4 * M_half})"
        )
    if M_half < 2 * N**2:
        raise ResolutionError(
            f"M_half={M_half} below the 2 N^2 = {2 * N**2} modulation range; "
            "record more samples"
        )
    w = _taper_weights(S, taper)
    # ifft computes (1/S) sum_j x_j e(+m j / S)
    coef = np.fft.ifft(A.T * w[None, :], axis=1)
    cols = np.arange(-M_half, M_half + 1) % S
    return SpaceTimeSpectrum(
        N=N,
        M_half=int(M_half),
        values=coef[:, cols],
        window=TimeWindow(t0=t0, length=1.0, taper=taper),
    )


def synthesize_uniform(spec: SpaceTimeSpectrum, samples: int) -> np.ndarray:
    """a_n(t_j) = sum_m f_{n,m} e(-m j/S) on the canonical uniform grid."""
    S = int(samples)
    if S <= 2 * spec.M_half:
        raise ResolutionError("sample count below Nyquist for M_half")
    # column m mod S holds f_{., m}: m >= 0 at the front, m < 0 at the back,
    # apart since S > 2 M_half
    M = spec.M_half
    x = np.zeros((spec.N, S), dtype=complex)
    x[:, : M + 1] = spec.values[:, M:]
    x[:, S - M :] = spec.values[:, :M]
    # fft computes sum_k x_k e(-j k / S)
    return np.fft.fft(x, axis=1).T  # (S, N)


def synthesize_trajectory(spec: SpaceTimeSpectrum, samples: int) -> Trajectory:
    """Trajectory sampling the spectrum's window (energy log not defined)."""
    A = synthesize_uniform(spec, samples)
    times = spec.window.t0 + np.arange(samples) * (1.0 / samples)
    return Trajectory.from_coeffs(times, A)


def xsb_norm(spec: SpaceTimeSpectrum, s: float, b: float) -> float:
    """(sum n^{2s} <n^2 - m>^{2b} |f_{n,m}|^2)^{1/2} with <x> = 1 + |x|."""
    n_w = (np.arange(1, spec.N + 1, dtype=float) ** (2.0 * s))[:, None]
    mod_w = (1.0 + spec.modulation()) ** (2.0 * b)
    return float(np.sqrt(np.sum(n_w * mod_w * np.abs(spec.values) ** 2)))


def _triple_parts(spec: SpaceTimeSpectrum, T: float):
    mod = spec.modulation()
    far = mod > 1.0 / T
    w_first = np.sqrt(mod + 1.0 / T)
    g = np.where(far, 1.0 / np.where(far, mod, 1.0), 0.0)
    return mod, far, w_first, g


def triple_norm_upper(spec: SpaceTimeSpectrum, T: float) -> TripleNormBound:
    """Certified upper bound on the windowed atomic norm.

    Per mode, the second-family amplitude a_n is the least-squares fit of
    f_{n,.} against the profile 1/|n^2 - m| on the far set |n^2 - m| > 1/T;
    the residual goes to the first family with weights
    (|n^2 - m| + 1/T)^{1/2}.  The all-first-family assignment is also
    evaluated and the smaller certificate returned; both are feasible, so
    the result never underestimates the true norm.
    """
    if T <= 0:
        raise DomainError("T must be positive")
    _, far, w_first, g = _triple_parts(spec, T)
    f = spec.values
    denom = np.sum(g * g, axis=1)
    num = np.sum(f * g, axis=1)
    a = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    residual = f - a[:, None] * g
    part_one = float(np.sqrt(np.sum(np.abs(residual) ** 2 * w_first**2)))
    part_two = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    ls_bound = part_one + part_two
    plain = float(np.sqrt(np.sum(np.abs(f) ** 2 * w_first**2)))
    if plain < ls_bound:
        return TripleNormBound(upper=plain, part_one_mass=plain, part_two_mass=0.0)
    return TripleNormBound(
        upper=ls_bound, part_one_mass=part_one, part_two_mass=part_two
    )


def dyadic_project(obj, N_low: int, N_high: int):
    """Zero all modes outside N_low <= n <= N_high (blocks are [N, 2N))."""
    if not (1 <= N_low <= N_high):
        raise DomainError("need 1 <= N_low <= N_high")
    if isinstance(obj, RadialState):
        mask = np.zeros(obj.N)
        lo, hi = min(N_low, obj.N + 1), min(N_high, obj.N)
        mask[lo - 1 : hi] = 1.0
        return RadialState(N=obj.N, coeffs=obj.coeffs * mask, time=obj.time)
    if isinstance(obj, SpaceTimeSpectrum):
        mask = np.zeros((obj.N, 1))
        lo, hi = min(N_low, obj.N + 1), min(N_high, obj.N)
        mask[lo - 1 : hi] = 1.0
        return SpaceTimeSpectrum(
            N=obj.N, M_half=obj.M_half, values=obj.values * mask, window=obj.window
        )
    raise DomainError(f"cannot project object of type {type(obj).__name__}")


TRILINEAR_N_LIMIT = 24


def trilinear_form(
    v: SpaceTimeSpectrum,
    v1: SpaceTimeSpectrum,
    u2: SpaceTimeSpectrum,
    u3: SpaceTimeSpectrum,
    tensor_view: CorrelationTensor | TruncatedTensorView,
) -> complex:
    """sum over m - m1 + m2 - m3 = 0 of c(n,nbar) conj(v) v1 conj(u2) u3.

    The time-frequency constraint is folded into two lag correlations:
    with k = m1 - m = m2 - m3,

        A_k[n,n1]  = sum_m  conj(v_{n,m})   v1_{n1,m+k}
        B_k[n2,n3] = sum_m3 conj(u2_{n2,m3+k}) u3_{n3,m3}

    and the form is sum_k <C, A_k x B_k>.
    """
    specs = (v, v1, u2, u3)
    N = v.N
    M = v.M_half
    if any(s.N != N or s.M_half != M for s in specs):
        raise DomainError("all spectra must share N and M_half")
    if N > TRILINEAR_N_LIMIT:
        raise ResolutionError(
            f"trilinear form limited to N <= {TRILINEAR_N_LIMIT} (got {N})"
        )
    C = tensor_view.dense(N)
    V, V1, U2, U3 = (s.values for s in specs)
    W = 2 * M + 1
    total = 0.0 + 0.0j
    for k in range(-(W - 1), W):
        if k >= 0:
            A = np.conj(V[:, : W - k]) @ V1[:, k:].T
            B = np.conj(U2[:, k:]) @ U3[:, : W - k].T
        else:
            A = np.conj(V[:, -k:]) @ V1[:, : W + k].T
            B = np.conj(U2[:, : W + k]) @ U3[:, -k:].T
        if not (A.any() and B.any()):
            continue
        total += np.einsum("ab,abcd,cd->", A, C, B)
    return complex(total)


def lemma1_check(spec: SpaceTimeSpectrum, T: float) -> float:
    """[(1/T) int_0^T ||f(t)||_{L^2_x}^2 dt] / triple_norm_upper(spec, T)^2."""
    if T <= 0:
        raise DomainError("T must be positive")
    bound = triple_norm_upper(spec, T).upper
    if bound == 0.0:
        raise UndefinedRatioError("zero spectrum: ratio undefined")
    # resolve the fastest oscillation e(M_half t) over [0, T]
    G = int(max(256, np.ceil(8 * (spec.M_half * T + 1))))
    t = np.linspace(0.0, T, G + 1)
    phases = np.exp(-2j * np.pi * np.outer(spec.m_grid, t))
    a_t = spec.values @ phases  # (N, G+1)
    l2sq = 2.0 * np.pi * np.sum(np.abs(a_t) ** 2, axis=0)
    integral = trapezoid_weights(G + 1, T / G) @ l2sq
    return float(integral / T / bound**2)
