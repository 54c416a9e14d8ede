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
import numpy.random  # noqa: F401  (loaded at import, not inside a command)

from .basis import nodal_modulus_sq, quartic_grid
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
    keys).  Run manifests record the algorithm, RNG_ALGORITHM.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if int(self.seed) < 0 or int(self.stream_id) < 0:
            raise DomainError("seed and stream_id must be >= 0")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + int(k))


def _mode_numbers(N: int) -> np.ndarray:
    if N < 0:
        raise DomainError("N must be >= 0")
    return np.arange(1, N + 1, dtype=float)


@dataclass(frozen=True)
class FreeMeasureSpec:
    """Coefficient standard deviations sigma_n, n = 1..N; N is len(sigma)."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1:
            raise DomainError("sigma must be a 1-d array, one entry per mode")
        if np.any(sigma <= 0):
            raise DomainError("sigma_n must be positive")
        object.__setattr__(self, "sigma", sigma)

    @property
    def N(self) -> int:
        return len(self.sigma)

    @classmethod
    def derived(cls, N: int) -> "FreeMeasureSpec":
        """sigma_n = 1/(sqrt(2) pi n); invariant pair with beta_q = 1/4."""
        return cls(1.0 / (np.sqrt(2.0) * np.pi * _mode_numbers(N)))

    @classmethod
    def paper_literal(cls, N: int) -> "FreeMeasureSpec":
        """sigma_n = 1/(n pi); invariant pair with beta_q = 1/8."""
        return cls(1.0 / (np.pi * _mode_numbers(N)))

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
    attempts: int

    def __post_init__(self):
        if self.quartic_norm < 0:
            raise DomainError("quartic norm must be >= 0")
        if self.attempts < 1:
            raise DomainError("attempts must be >= 1")


def sample_free(spec: FreeMeasureSpec, rng: RngStream) -> RadialState:
    """Draw a_n = sigma_n g_n for n <= N from stream rng: the one-row case
    of sample_free_batch."""
    coeffs = sample_free_batch(spec, rng, 1)[0]
    return RadialState(coeffs)


# Rows per chunk of sample_free_batch and _quartic_batch: the draw buffer,
# the quartic's GEMM output and its nodal buffers are 1 MB each at N = 64
# (chunks of 2^19 nodal values, 4128 rows there, raised the peak RSS of
# 10^5-row batches by ~5 %).  One constant, because the L^4 tails draw and
# reduce one chunk at a time: a chunk of this size keeps the s H GEMM of
# every row at the shape it has in one whole batch, and with BLAS threads a
# row's last bits can depend on that shape.
_CHUNK_ROWS = 1024

# numpy divides a complex by a real with Smith's algorithm, which multiplies
# by fl(1/sqrt(2)); scaling x and y by it gives the bits of (x + iy)/sqrt(2).
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _scaled_gaussians(
    normals: np.ndarray, sigma: np.ndarray, out: np.ndarray
) -> None:
    """out = sigma g for normals[:, 0] = x and normals[:, 1] = y, with g =
    (x + iy)/sqrt(2) the standard complex Gaussians (E|g|^2 = 1).

    Written into out.real and out.imag with the bits of
    sigma * ((x + 1j * y) / np.sqrt(2.0)), without its complex temporaries.
    """
    for part, z in ((out.real, normals[:, 0]), (out.imag, normals[:, 1])):
        np.multiply(z, _INV_SQRT2, out=part)
        part *= sigma


def sample_free_batch(
    spec: FreeMeasureSpec, rng: RngStream, count: int
) -> np.ndarray:
    """(count, N) coefficient matrix; row k draws from stream rng.child(k),
    N real parts and then N imaginary parts of rng.child(k).generator().

    Rather than a SeedSequence, a PCG64 and a Generator per row, the rows'
    PCG64 states are computed a chunk at a time (``_pcg64_states``) and set
    on one reused generator.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    gen = np.random.Generator(np.random.PCG64(0))
    out = np.empty((count, spec.N), dtype=complex)
    buf = np.empty((min(count, _CHUNK_ROWS), 2, spec.N))
    for lo in range(0, count, _CHUNK_ROWS):
        rows = buf[: min(_CHUNK_ROWS, count - lo)]
        states = _pcg64_states(int(rng.seed), int(rng.stream_id) + lo, len(rows))
        for row, (lcg, inc) in zip(rows, states):
            _set_pcg64(gen, lcg, inc)
            gen.standard_normal(out=row)
        _scaled_gaussians(rows, spec.sigma, out[lo : lo + len(rows)])
    return out


def _set_pcg64(gen: np.random.Generator, lcg: int, inc: int) -> None:
    """Put gen's PCG64 in state (lcg, inc), as ``PCG64.state`` reports it."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": lcg, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants.  PCG64 seeds its 128-bit LCG from generate_state(4, uint64).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's coercion of an int >= 0: little-endian 32-bit words."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _spawn_entropy(seed: int, first: int, count: int):
    """Yield entropy matrices for spawn keys first .. first+count-1, in order.

    Each row holds the words that ``SeedSequence(entropy=seed,
    spawn_key=(key,))`` mixes: the seed's words padded with zeros to the
    pool size, then the key's words.  Keys with more words give longer
    rows, so the keys come in one matrix per word count.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    dtype = np.uint64 if first + count <= 2**64 else object
    keys = np.arange(count, dtype=dtype) + first
    start, width = 0, len(_uint32_words(first))
    while start < count:
        stop = min(count, (1 << 32 * width) - first)
        entropy = np.empty((stop - start, len(run) + width), dtype=np.uint32)
        entropy[:, : len(run)] = run
        for j in range(width):
            entropy[:, len(run) + j] = (keys[start:stop] >> (32 * j)) & _MASK32
        yield entropy
        start, width = stop, width + 1


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of entropy.

    The hash-mix of SeedSequence on columns of uint32 words; every row has
    more words than the pool, as any spawned SeedSequence does.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> 16)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    h = _INIT_B
    words = np.empty((entropy.shape[0], 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value = value * np.uint32(h)
        words[:, i] = value ^ (value >> 16)
    return words[:, 0::2] | (words[:, 1::2] << 32)


def _pcg64_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence(entropy=seed, spawn_key=(key,)))``
    for keys first .. first+count-1, as ``PCG64.state`` reports them."""
    states = []
    for entropy in _spawn_entropy(seed, first, count):
        for s_hi, s_lo, i_hi, i_lo in _generate_state(entropy).tolist():
            # pcg_setseq_128_srandom_r: two LCG steps around adding the seed
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            lcg = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states.append((lcg, inc))
    return states


def quartic_norm_quadrature(coeffs: np.ndarray) -> float | np.ndarray:
    """4 pi int_0^1 |phi(r)|^4 r^2 dr, exactly from grid samples (_quartic_batch).

    A float for one coefficient vector, one value per row of a matrix.
    """
    a = np.asarray(coeffs, dtype=complex)
    q = _quartic_batch(np.atleast_2d(a))
    return float(q[0]) if a.ndim == 1 else q


def _quartic_batch(coeffs: np.ndarray) -> np.ndarray:
    """||phi_k||_{L^4}^4 for a (count, N) batch, exact up to rounding.

    The quadratic form s^T H s of basis.quartic_grid(N) in the squared
    moduli s of v = r phi at the 2N - 1 interior nodes j/2N, one GEMM of
    (2N - 1)^2 per row.  N = 0 raises DomainError.
    """
    S, H = quartic_grid(coeffs.shape[1])
    out = np.empty(coeffs.shape[0])
    hs_buf = np.empty((max(2, min(len(coeffs), _CHUNK_ROWS)), H.shape[0]))
    for rows, s in nodal_modulus_sq(coeffs, S, _CHUNK_ROWS):
        n = len(s)
        if n == 1:
            # a one-row matmul takes numpy's gemv path, whose bits differ
            # from the gemm the row gets inside a batch
            s = np.repeat(s, 2, axis=0)
        hs = np.matmul(s, H, out=hs_buf[: len(s)])
        hs *= s
        hs[:n].sum(axis=1, out=out[rows])
    return out


def sample_gibbs(
    spec: FreeMeasureSpec,
    beta_q: float,
    rng: RngStream,
    max_attempts: int = 10_000,
) -> GibbsSample:
    """One Gibbs draw: the one-row case of sample_gibbs_batch.

    Draws from stream rng itself (rng.child(0)).  Raises SamplingError
    when max_attempts draws are all rejected.
    """
    coeffs, quartics, rate = sample_gibbs_batch(
        spec, beta_q, rng, 1, max_rounds=max_attempts
    )
    return GibbsSample(
        state=RadialState(coeffs[0]),
        quartic_norm=float(quartics[0]),
        attempts=round(1.0 / rate),
    )


def sample_gibbs_batch(
    spec: FreeMeasureSpec,
    beta_q: float,
    rng: RngStream,
    count: int,
    max_rounds: int = 10_000,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Vectorized rejection sampler for ensembles.

    Sample k draws from stream rng.child(k) until accepted, so results are
    reproducible regardless of batching: each round takes 2N normals and a
    uniform from it, on one generator set to the row's PCG64 state, which
    is kept between rounds.  Quartic norms are _quartic_batch's exact grid
    form.  Returns (coeffs, quartic_norms, acceptance_rate).
    """
    if not 0 <= beta_q < np.inf:
        # exp(-inf * q) = 0 accepts no draw, so every round would run
        raise DomainError(f"beta_q must be finite and >= 0, got {beta_q}")
    for name, value in (("count", count), ("max_rounds", max_rounds)):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    gen = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states(int(rng.seed), int(rng.stream_id), count)
    coeffs = np.empty((count, spec.N), dtype=complex)
    quartics = np.empty(count)
    pending = np.arange(count)
    attempts_total = 0
    for _ in range(max_rounds):
        normals = np.empty((pending.size, 2, spec.N))
        unis = np.empty(pending.size)
        for row, k in enumerate(pending):
            lcg, inc = states[k]
            _set_pcg64(gen, lcg, inc)
            gen.standard_normal(out=normals[row])
            unis[row] = gen.uniform()
            states[k] = (gen.bit_generator.state["state"]["state"], inc)
        draws = np.empty((pending.size, spec.N), dtype=complex)
        _scaled_gaussians(normals, spec.sigma, draws)
        qn = _quartic_batch(draws)
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
    return_stderr: bool = False,
):
    """Monte Carlo L^q(d omega) moment ratio for Gaussian chaos sums,
    ||sum alpha_n g_n||_{L^q} / (sqrt(q) ||alpha||_2).

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
        x, y = gen.standard_normal((2, m, alpha.size))
        g = (x + 1j * y) / np.sqrt(2.0)
        powers[lo : lo + m] = np.abs(g @ alpha) ** q
    denom = np.sqrt(q) * l2
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
