"""Seeded randomness, free/Gibbs sampling, Gaussian chaos estimators.

The free measure is the law of sum_n sigma_n g_n e_n with IID standard
complex Gaussians g_n (E|g_n|^2 = 1, real/imag parts independent with
variance 1/2 each).  The Gibbs measure reweights it by
exp(-beta_q * ||phi||_{L^4}^4) and is sampled by exact rejection.

The default sigma_n = 1/(sqrt(2) pi n) is the pair that makes the Gibbs
measure with beta_q = 1/4 exactly invariant under the coefficient flow in
dynamics: matching exp(-E) with E = 2 pi^2 sum n^2|a_n|^2 + Q/4 against
gaussian density x quartic weight forces 1/sigma_n^2 = 2 beta pi^2 n^2 and
beta_q = beta/4, and beta = 1 gives the default.  The literal
sigma_n = 1/(n pi) is kept as the "paper" preset (it pairs with
beta_q = 1/8 instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    CorrelationTensor,
    QuadratureRule,
    eval_matrix,
    quartic_form,
)
from .dynamics import RadialState
from .errors import DomainError, PrecisionError, SamplingError

__all__ = [
    "RngStream",
    "FreeMeasureSpec",
    "GibbsSample",
    "DEFAULT_BETA_Q",
    "sample_free",
    "sample_free_batch",
    "sample_gibbs",
    "sample_gibbs_batch",
    "quartic_norm",
    "quartic_norm_quadrature",
    "chaos_moment_ratio",
]

DEFAULT_BETA_Q = 0.25
RNG_ALGORITHM = "pcg64-seedseq"


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draws on any platform; distinct
    stream_ids give statistically independent streams (SeedSequence spawn
    keys).  ``algorithm_id`` is recorded in run manifests.
    """

    seed: int
    stream_id: int = 0
    algorithm_id: str = RNG_ALGORITHM

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + int(k), self.algorithm_id)


@dataclass(frozen=True)
class FreeMeasureSpec:
    """Truncation N and coefficient standard deviations sigma_n, n = 1..N."""

    N: int
    sigma: np.ndarray
    preset: str = "custom"

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be >= 0")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.N,):
            raise DomainError("sigma must have one entry per mode")
        if np.any(sigma <= 0) and self.N > 0:
            raise DomainError("sigma_n must be positive")
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def derived(cls, N: int) -> "FreeMeasureSpec":
        """sigma_n = 1/(sqrt(2) pi n); invariant pair with beta_q = 1/4."""
        n = np.arange(1, N + 1, dtype=float)
        return cls(N, 1.0 / (np.sqrt(2.0) * np.pi * n), preset="derived")

    @classmethod
    def paper_literal(cls, N: int) -> "FreeMeasureSpec":
        """sigma_n = 1/(n pi); invariant pair with beta_q = 1/8."""
        n = np.arange(1, N + 1, dtype=float)
        return cls(N, 1.0 / (np.pi * n), preset="paper")

    @classmethod
    def from_preset(cls, name: str, N: int) -> "FreeMeasureSpec":
        if name == "derived":
            return cls.derived(N)
        if name == "paper":
            return cls.paper_literal(N)
        raise DomainError(f"unknown measure preset {name!r}")


@dataclass(frozen=True)
class GibbsSample:
    state: RadialState
    quartic_norm: float
    weight_exponent: float
    attempts: int

    def __post_init__(self):
        if self.quartic_norm < 0:
            raise DomainError("quartic norm must be >= 0")
        if self.attempts < 1:
            raise DomainError("attempts must be >= 1")


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians with E|g|^2 = 1."""
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def sample_free(spec: FreeMeasureSpec, rng: RngStream) -> RadialState:
    """Draw a_n = sigma_n g_n for n <= N; pure function of (spec, rng)."""
    gen = rng.generator()
    coeffs = spec.sigma * _standard_complex(gen, spec.N)
    return RadialState(N=spec.N, coeffs=coeffs, time=0.0)


def sample_free_batch(
    spec: FreeMeasureSpec, rng: RngStream, count: int
) -> np.ndarray:
    """(count, N) coefficient matrix; row k uses stream rng.child(k)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    out = np.empty((count, spec.N), dtype=complex)
    for k in range(count):
        out[k] = spec.sigma * _standard_complex(rng.child(k).generator(), spec.N)
    return out


def quartic_norm(state: RadialState, tensor: CorrelationTensor) -> float:
    """int_B |phi|^4 dx = sum a_p conj(a_q) a_r conj(a_s) c(p,q,r,s)."""
    return quartic_form(state.coeffs, tensor)


def quartic_norm_quadrature(
    coeffs: np.ndarray, rule: QuadratureRule
) -> float | np.ndarray:
    """Radial-quadrature path: 4 pi int_0^1 |phi(r)|^4 r^2 dr.

    A float for one coefficient vector, one value per row of a matrix.
    """
    a = np.asarray(coeffs, dtype=complex)
    q = _quartic_batch(np.atleast_2d(a), rule)
    return float(q[0]) if a.ndim == 1 else q


def _quartic_batch(coeffs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """||phi_k||_{L^4}^4 for a (count, N) batch via quadrature."""
    E = eval_matrix(coeffs.shape[1], rule.nodes)
    w = rule.weights * rule.nodes**2
    out = np.empty(coeffs.shape[0])
    step = max(1, 2**22 // max(rule.order, 1))
    for lo in range(0, coeffs.shape[0], step):
        u = coeffs[lo : lo + step] @ E
        u2 = u.real**2 + u.imag**2
        out[lo : lo + step] = 4.0 * np.pi * (u2**2 @ w)
    return out


def sample_gibbs(
    spec: FreeMeasureSpec,
    beta_q: float,
    rng: RngStream,
    tensor: CorrelationTensor,
    max_attempts: int = 10_000,
) -> GibbsSample:
    """Rejection sampling from the Gibbs measure.

    Draw phi ~ free measure, accept with probability
    exp(-beta_q ||phi||_4^4) (a valid density bound since the weight is
    <= 1).  Raises SamplingError with the running acceptance rate when the
    attempt budget is exhausted.
    """
    if beta_q < 0:
        raise DomainError("beta_q must be >= 0")
    gen = rng.generator()
    for attempt in range(1, max_attempts + 1):
        coeffs = spec.sigma * _standard_complex(gen, spec.N)
        state = RadialState(N=spec.N, coeffs=coeffs, time=0.0)
        qn = quartic_norm(state, tensor)
        exponent = -beta_q * qn
        if gen.uniform() < np.exp(exponent):
            return GibbsSample(
                state=state,
                quartic_norm=qn,
                weight_exponent=exponent,
                attempts=attempt,
            )
    raise SamplingError(
        f"no acceptance in {max_attempts} attempts",
        acceptance_rate=0.0,
    )


def sample_gibbs_batch(
    spec: FreeMeasureSpec,
    beta_q: float,
    rng: RngStream,
    rule: QuadratureRule,
    count: int,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Vectorized rejection sampler for ensembles.

    Sample k draws from stream rng.child(k) until accepted, so results are
    reproducible regardless of batching.  Quartic norms use the quadrature
    path (cheap at ensemble scale).  Returns (coeffs, quartic_norms,
    acceptance_rate).
    """
    if beta_q < 0:
        raise DomainError("beta_q must be >= 0")
    gens = [rng.child(k).generator() for k in range(count)]
    coeffs = np.empty((count, spec.N), dtype=complex)
    quartics = np.empty(count)
    pending = np.arange(count)
    attempts_total = 0
    for _ in range(max_rounds):
        draws = np.stack(
            [spec.sigma * _standard_complex(gens[k], spec.N) for k in pending]
        )
        unis = np.array([gens[k].uniform() for k in pending])
        qn = _quartic_batch(draws, rule)
        attempts_total += pending.size
        accept = unis < np.exp(-beta_q * qn)
        coeffs[pending[accept]] = draws[accept]
        quartics[pending[accept]] = qn[accept]
        pending = pending[~accept]
        if pending.size == 0:
            return coeffs, quartics, count / attempts_total
    raise SamplingError(
        f"{pending.size} of {count} samples unaccepted after {max_rounds} rounds",
        acceptance_rate=(count - pending.size) / attempts_total,
    )


def chaos_moment_ratio(
    alpha: np.ndarray,
    q: int,
    trials: int,
    rng: RngStream,
    centered: bool = False,
    return_stderr: bool = False,
):
    """Monte Carlo L^q(d omega) moment ratio for Gaussian chaos sums.

    Plain variant: ||sum alpha_n g_n||_{L^q} / (sqrt(q) ||alpha||_2).
    Centered variant (weights |g_n|^2 - 1): denominator q ||alpha||_2.
    Jackknife-over-blocks standard error available via return_stderr.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if q not in (2, 4, 6, 8):
        raise DomainError("q must be one of {2, 4, 6, 8}")
    if trials < 100:
        raise PrecisionError("need at least 100 trials")
    l2 = float(np.sqrt(np.sum(np.abs(alpha) ** 2)))
    if l2 == 0.0:
        raise DomainError("alpha must be nonzero")
    gen = rng.generator()
    powers = np.empty(trials)
    step = max(1, 2**22 // max(alpha.size, 1))
    for lo in range(0, trials, step):
        m = min(step, trials - lo)
        g = _standard_complex(gen, (m, alpha.size))
        if centered:
            x = (np.abs(g) ** 2 - 1.0) @ alpha
        else:
            x = g @ alpha
        powers[lo : lo + m] = np.abs(x) ** q
    denom = (q * l2) if centered else (np.sqrt(q) * l2)
    ratio = float(np.mean(powers) ** (1.0 / q) / denom)
    if not return_stderr:
        return ratio
    # jackknife over 50 blocks
    blocks = np.array_split(powers, 50)
    means = np.array([b.mean() for b in blocks])
    total = powers.mean()
    n_b = len(blocks)
    loo = (n_b * total - means) / (n_b - 1)
    est = loo ** (1.0 / q) / denom
    stderr = float(np.sqrt((n_b - 1) / n_b * np.sum((est - est.mean()) ** 2)))
    return ratio, stderr
