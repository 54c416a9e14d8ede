"""Statistical experiment drivers: Gibbs invariance, norm tail fits,
dyadic-block observables, the dyadic convergence ladder, and the Lemma-4
style embedding-ratio study.

All randomness flows through RngStream children so every report is
reproducible bit-for-bit from (seed, parameters).  The records these
runners return are the `results` of the CLI's report JSON, field for field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.ma  # noqa: F401  (np.percentile loads it; at import, not inside a command)

from .basis import _correlation_batch, rule_for_modes, trapezoid_weights
from .dynamics import IntegratorConfig, evolve_batch
from .errors import (
    BlowUpError,
    DomainError,
    FitDegenerateError,
    PrecisionError,
)
from .measures import (
    _CHUNK_ROWS,
    DEFAULT_BETA_Q,
    FreeMeasureSpec,
    RngStream,
    _quartic_batch,
    sample_free,
    sample_free_batch,
    sample_gibbs_batch,
)
from .norms import (
    NormParams,
    SpaceTimeSpectrum,
    mixed_norm_l2t,
    mixed_norm_matrix,
    spectrum_from_samples,
    synthesize_uniform,
    xsb_norm,
)

__all__ = [
    "Observable",
    "InvarianceReport",
    "TailFit",
    "BlockReport",
    "ConvergenceLadder",
    "EmbeddingReport",
    "ks_statistic",
    "ks_critical_value",
    "observable_table",
    "run_invariance",
    "run_tail_experiment",
    "run_block_observables",
    "run_convergence_ladder",
    "run_embedding_study",
]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov two-sample machinery


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """sup_v |F_x(v) - F_y(v)| over the pooled sample points."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise DomainError("KS statistic needs nonempty samples")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_critical_value(m: int, n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample threshold c(alpha) sqrt((m+n)/(mn))."""
    if not (0 < alpha < 1):
        raise DomainError("alpha must lie in (0, 1)")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


# ---------------------------------------------------------------------------
# Gibbs invariance


class Observable(NamedTuple):
    """One invariance observable's two-sample KS statistic and its 1%
    critical value."""

    name: str
    ks: float
    critical_1pct: float


@dataclass(frozen=True)
class InvarianceReport:
    N: int
    samples: int
    t_compare: float
    observables: tuple[Observable, ...]
    acceptance_rate: float

    def __post_init__(self):
        if self.samples < 100:
            raise DomainError("invariance needs samples >= 100")
        if any(ks < 0 for _, ks, _ in self.observables):
            raise DomainError("KS statistics must be >= 0")

    def all_pass(self) -> bool:
        return all(ks < crit for _, ks, crit in self.observables)


def observable_table(A: np.ndarray) -> dict[str, np.ndarray]:
    """The four invariance observables evaluated on an ensemble (S, N)."""
    mode_idx = np.arange(1, A.shape[1] + 1)
    mod_sq = np.abs(A) ** 2
    mass = np.sum(mod_sq, axis=1)
    return {
        "l4_norm_fourth": _quartic_batch(A),
        "re_a1": A[:, 0].real.copy(),
        "abs_a1_sq": mod_sq[:, 0],
        "mode_index": mod_sq @ mode_idx / np.where(mass > 0, mass, 1.0),
    }


def run_invariance(
    N: int,
    samples: int,
    t_compare: float,
    beta_q: float,
    preset: str = "derived",
    rng: RngStream | None = None,
    dt: float = 1e-3,
    coupling: float = 1.0,
) -> InvarianceReport:
    """Two-sample KS comparison of Gibbs marginals at t=0 vs t=t_compare."""
    if N < 1:
        raise DomainError("N must be >= 1")
    if samples < 100:
        raise DomainError("invariance needs samples >= 100")
    if t_compare < 0:
        raise DomainError("t_compare must be >= 0")
    rng = rng if rng is not None else RngStream(seed=0)
    spec = FreeMeasureSpec.from_preset(preset, N)
    A0, _, acceptance = sample_gibbs_batch(spec, beta_q, rng, samples)
    obs0 = observable_table(A0)
    if t_compare == 0:
        A1 = A0
    else:
        config = IntegratorConfig(
            method="reference_rk4", dt=dt, coupling=coupling, dt_record=t_compare
        )
        _, records = evolve_batch(A0, 0.0, t_compare, config)
        A1 = records[-1]
    obs1 = observable_table(A1)
    crit = ks_critical_value(samples, samples, alpha=0.01)
    rows = tuple(
        Observable(name, ks_statistic(obs0[name], obs1[name]), crit)
        for name in obs0
    )
    return InvarianceReport(
        N=N,
        samples=samples,
        t_compare=t_compare,
        observables=rows,
        acceptance_rate=acceptance,
    )


# ---------------------------------------------------------------------------
# Tail experiment


@dataclass(frozen=True)
class TailFit:
    lambda_grid: np.ndarray
    empirical_log_survival: np.ndarray
    fitted_c: float
    fitted_kappa: float
    kappa_stderr: float = float("nan")
    c_stderr: float = float("nan")

    def __post_init__(self):
        surv = np.asarray(self.empirical_log_survival, dtype=float)
        if np.any(np.diff(surv) > 1e-12):
            raise DomainError("survival must be non-increasing in lambda")


def _fit_tail(values: np.ndarray):
    ordered = np.sort(values)
    # the percentiles of the sorted copy are the same order statistics
    lo, hi = np.percentile(ordered, [50.0, 99.5])
    if not (hi > lo > 0):
        raise FitDegenerateError(
            "tail fit degenerate: no spread between the 50th and 99.5th "
            "percentiles"
        )
    grid = np.geomspace(lo, hi, 48)
    survival = 1.0 - np.searchsorted(ordered, grid, side="right") / values.size
    keep = survival > 0
    if np.count_nonzero(keep) < 4:
        raise FitDegenerateError("tail fit degenerate: insufficient tail mass")
    # log P(X > lambda) = -c lambda^kappa  =>  log(-log S) linear in log lambda
    x = np.log(grid[keep])
    y = np.log(-np.log(survival[keep]))
    kappa, log_c = np.polyfit(x, y, 1)
    return grid, np.log(survival, where=survival > 0, out=np.full_like(survival, -np.inf)), float(np.exp(log_c)), float(kappa)


def _record_step(norm_kind: str, N: int) -> float:
    """Record spacing of the unit window a space-time tail kind evolves."""
    if norm_kind == "mixed":
        return 1.0 / (16 * N * N)
    if norm_kind == "xsb":
        return 1.0 / (8 * N * N + 4)
    raise DomainError(f"unknown norm kind {norm_kind!r}")


def _chunk_rows(norm_kind: str, N: int) -> int:
    """Rows the tails draw and reduce at a time: the batch each kernel takes.

    L4_x: _quartic_batch's chunk, so each row's s H GEMM keeps one shape.
    mixed/xsb: a budget of 2^24 recorded values per evolve_batch call.
    """
    if norm_kind == "L4_x":
        return _CHUNK_ROWS
    return max(1, 2**24 // (int(1.0 / _record_step(norm_kind, N)) * N))


def _norm_samples(
    norm_kind: str, A: np.ndarray, params: NormParams, dt: float, coupling: float
) -> np.ndarray:
    """The tail kind's norm of each row of one chunk A (_chunk_rows rows)."""
    if norm_kind == "L4_x":
        return _quartic_batch(A) ** 0.25
    # evolve each sample over a unit window, then apply the space-time norm
    N = A.shape[1]
    dt_rec = _record_step(norm_kind, N)
    steps_per_rec = max(1, int(round(dt_rec / dt)))
    config = IntegratorConfig(
        method="collocation_split",
        dt=dt_rec / steps_per_rec,
        dt_record=dt_rec,
        coupling=coupling,
    )
    rule = rule_for_modes(4 * N)
    out = np.empty(len(A))
    _, records = evolve_batch(A, 0.0, 1.0, config)
    for j in range(records.shape[1]):
        traj = records[:, j, :]
        if norm_kind == "mixed":
            out[j] = mixed_norm_matrix(traj, dt_rec, params.p, params.q, rule)
        else:
            # records close the window [0, 1]; drop the endpoint
            spec = spectrum_from_samples(traj[:-1])
            out[j] = xsb_norm(spec, params.s, params.b)
    return out


def _tail_values(
    norm_kind: str, N: int, samples: int, measure: str, rng: RngStream
) -> np.ndarray:
    """One norm per sample, drawn and reduced a chunk of rows at a time.

    Row k still draws from rng.child(k), so the values are those of one
    whole-ensemble draw; only one chunk of coefficients is ever held.
    """
    if measure not in ("free", "gibbs"):
        raise DomainError(f"unknown measure {measure!r}")
    spec = FreeMeasureSpec.derived(N)
    chunk = _chunk_rows(norm_kind, N)
    values = np.empty(samples)
    for lo in range(0, samples, chunk):
        m = min(chunk, samples - lo)
        if measure == "free":
            A = sample_free_batch(spec, rng.child(lo), m)
        else:
            A, _, _ = sample_gibbs_batch(spec, DEFAULT_BETA_Q, rng.child(lo), m)
        values[lo : lo + m] = _norm_samples(
            norm_kind, A, NormParams(), dt=1e-3, coupling=1.0
        )
    return values


def run_tail_experiment(
    norm_kind: str,
    N: int,
    samples: int,
    measure: str = "free",
    rng: RngStream | None = None,
    bootstrap: int = 32,
) -> TailFit:
    """Monte Carlo survival curve and stretched-exponential tail fit.

    Samples come from the derived-sigma free measure, or from its Gibbs
    measure at DEFAULT_BETA_Q (the invariant pair); the space-time kinds
    evolve them at unit coupling (_norm_samples with dt = 1e-3) and take
    their norms at the default NormParams().  Each chunk of samples is
    reduced to its norms as it is drawn (_tail_values), so the run holds one
    float per sample and one chunk, never the (samples, N) ensemble.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if samples < 10_000:
        raise PrecisionError("tail resolution needs samples >= 10^4")
    rng = rng if rng is not None else RngStream(seed=0)
    values = _tail_values(norm_kind, N, samples, measure, rng)
    if np.ptp(values) == 0:
        raise FitDegenerateError("tail fit degenerate: point-mass distribution")
    grid, log_surv, c_hat, kappa_hat = _fit_tail(values)
    boot_gen = rng.child(samples).generator()
    kappas, cs = [], []
    for _ in range(bootstrap):
        resample = values[boot_gen.integers(0, samples, size=samples)]
        try:
            _, _, c_b, k_b = _fit_tail(resample)
        except FitDegenerateError:
            continue
        kappas.append(k_b)
        cs.append(c_b)
    kappa_se = float(np.std(kappas)) if len(kappas) >= 2 else float("nan")
    c_se = float(np.std(cs)) if len(cs) >= 2 else float("nan")
    return TailFit(
        lambda_grid=grid,
        empirical_log_survival=log_surv,
        fitted_c=c_hat,
        fitted_kappa=kappa_hat,
        kappa_stderr=kappa_se,
        c_stderr=c_se,
    )


# ---------------------------------------------------------------------------
# Dyadic-block observables


@dataclass(frozen=True)
class BlockReport:
    N: int
    samples: int
    block_median: float  # median over samples of block_observable
    chaos_medians: dict  # N2 -> median over samples of max_n centered chaos sum


def _dyadic_blocks(N: int):
    B = 1
    while B <= N:
        yield B, min(2 * B, N + 1)
        B *= 2


def block_observable(mod_sq: np.ndarray, dt_rec: float) -> np.ndarray:
    """max over dyadic blocks of B^{1/2} ||P_B u||_{L^6_t L^2_x}, with the
    paper's time exponent 6.

    mod_sq: |a_n(t)|^2 with shape (records, samples, N); trapezoid in time.
    """
    R, S, N = mod_sq.shape
    tw = trapezoid_weights(R, dt_rec)
    best = np.zeros(S)
    for B, hi in _dyadic_blocks(N):
        l2sq = 2.0 * np.pi * mod_sq[:, :, B - 1 : hi - 1].sum(axis=2)
        lqt = (tw @ l2sq**3.0) ** (1.0 / 6.0)
        best = np.maximum(best, math.sqrt(B) * lqt)
    return best


def chaos_observable(avg_gsq: np.ndarray, N2: int, n_top: int) -> np.ndarray:
    """max_n |sum_{n2 ~ N2} c(n,n,n2,n2) (|g_{n2}|^2 - 1) / n2^2| per sample.

    c comes from the closed form on sorted index tuples, the entries
    build_tensor stores, for n = 1..n_top.
    """
    S, N = avg_gsq.shape
    if 2 * N2 - 1 > N:
        raise DomainError(f"block n2 ~ {N2} exceeds the field truncation N={N}")
    n2_range = np.arange(N2, min(2 * N2, N + 1))
    n, n2 = np.meshgrid(np.arange(1, n_top + 1), n2_range, indexing="ij")
    lo, hi = np.minimum(n, n2), np.maximum(n, n2)
    tuples = np.stack([lo, lo, hi, hi], axis=-1).reshape(-1, 4)
    rows = _correlation_batch(tuples).reshape(n.shape) / n2**2
    centered = avg_gsq[:, n2_range - 1] - 1.0
    return np.max(np.abs(centered @ rows.T), axis=1)


def run_block_observables(
    N: int,
    samples: int,
    rng: RngStream | None = None,
    n2_values: tuple = (4, 8, 16),
) -> BlockReport:
    """Free-measure ensembles evolved over a unit window, Lemma-7/8 style.

    Derived-sigma free samples, unit coupling, Strang steps of 1/1024 and
    records every 1/256.
    """
    if samples < 1000:
        raise DomainError("block observables need samples >= 10^3")
    if min(n2_values) < 1:
        raise DomainError(f"block sizes n2 must be >= 1, got {n2_values}")
    if 2 * max(n2_values) - 1 > N:
        raise DomainError(
            f"N={N} too small for n2 blocks {n2_values} (need N >= "
            f"{2 * max(n2_values) - 1})"
        )
    rng = rng if rng is not None else RngStream(seed=0)
    spec = FreeMeasureSpec.derived(N)
    dt_rec = 1.0 / 256
    config = IntegratorConfig(
        method="collocation_split", dt=dt_rec / 4, dt_record=dt_rec
    )
    block_vals = np.empty(samples)
    avg_gsq = np.empty((samples, N))
    chunk = max(1, 2**23 // (256 * N))
    tw = trapezoid_weights(int(round(1.0 / dt_rec)) + 1, dt_rec)
    ensemble = sample_free_batch(spec, rng, samples)
    for lo in range(0, samples, chunk):
        A0 = ensemble[lo : lo + chunk]
        _, records = evolve_batch(A0, 0.0, 1.0, config)
        mod_sq = np.abs(records) ** 2
        block_vals[lo : lo + A0.shape[0]] = block_observable(mod_sq, dt_rec)
        # time-averaged normalized moduli |a_n(t)/sigma_n|^2 over the window
        gsq = mod_sq / spec.sigma[None, None, :] ** 2
        avg_gsq[lo : lo + A0.shape[0]] = np.tensordot(tw, gsq, axes=(0, 0))
    medians = {
        N2: float(np.median(chaos_observable(avg_gsq, N2, n_top=N)))
        for N2 in n2_values
    }
    return BlockReport(
        N=N,
        samples=samples,
        block_median=float(np.median(block_vals)),
        chaos_medians=medians,
    )


# ---------------------------------------------------------------------------
# Convergence ladder


@dataclass(frozen=True)
class ConvergenceLadder:
    N_values: tuple
    s: float
    t_end: float
    diffs: np.ndarray  # D_N for consecutive pairs, indexed by the smaller N
    fitted_exponent: float

    def __post_init__(self):
        if np.any(np.asarray(self.diffs) < 0):
            raise DomainError("ladder diffs must be >= 0")


def _is_dyadic(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def run_convergence_ladder(
    seed: int,
    N_values,
    s: float,
    t_end: float,
    dt: float | None = None,
    integrator: str = "collocation_split",
    coupling: float = 1.0,
    record_points: int = 64,
) -> ConvergenceLadder:
    """Common-random-numbers dyadic truncation comparison.

    One master draw g_n for all n <= max(N_values); each run starts from
    the first N coordinates of the same derived sigma_n g_n.  D_N is the sup over
    the shared recording grid of the H^s distance between consecutive
    truncations, the smaller run zero-padded to the larger mode range.
    """
    N_values = tuple(int(n) for n in N_values)
    if len(N_values) < 2:
        raise DomainError("ladder needs at least two truncation levels")
    if any(not _is_dyadic(n) for n in N_values):
        raise DomainError("N_values must be dyadic (powers of two)")
    if any(b < a for a, b in zip(N_values, N_values[1:])):
        raise DomainError("N_values must be non-decreasing")
    if not s < 0.5:
        raise DomainError("ladder requires s < 1/2")
    if not 0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    if dt is not None and not dt > 0:
        raise DomainError("dt must be positive")
    if record_points < 1:
        raise DomainError(f"record_points must be >= 1, got {record_points}")
    N_max = max(N_values)
    master = sample_free(FreeMeasureSpec.derived(N_max), RngStream(seed))
    dt_rec = t_end / record_points
    if dt is None:
        steps_per_rec = max(1, math.ceil(dt_rec / 2.5e-4))
    else:
        steps_per_rec = max(1, int(round(dt_rec / dt)))
    config_kw = dict(dt=dt_rec / steps_per_rec, dt_record=dt_rec, coupling=coupling)
    runs = {}
    for N in dict.fromkeys(N_values):
        config = IntegratorConfig(method=integrator, **config_kw)
        try:
            _, records = evolve_batch(master.coeffs[None, :N], 0.0, t_end, config)
        except BlowUpError as err:
            raise BlowUpError(
                f"ladder run N={N} blew up: {err}",
                partial_trajectory=err.partial_trajectory,
            ) from err
        runs[N] = records[:, 0, :]
    n_weights = {
        N: (2.0 * np.pi) * np.arange(1, N + 1, dtype=float) ** (2.0 * s)
        for N in runs
    }
    diffs = []
    for N_lo, N_hi in zip(N_values, N_values[1:]):
        hi = runs[N_hi]
        lo = np.zeros_like(hi)
        lo[:, :N_lo] = runs[N_lo]
        dist_sq = np.sum(n_weights[N_hi][None, :] * np.abs(hi - lo) ** 2, axis=1)
        diffs.append(float(np.sqrt(dist_sq.max())))
    diffs = np.array(diffs)
    lower = np.array(N_values[:-1], dtype=float)
    pos = diffs > 0
    if np.count_nonzero(pos) >= 2:
        slope, _ = np.polyfit(np.log(lower[pos]), np.log(diffs[pos]), 1)
        exponent = float(-slope)
    else:
        exponent = float("nan")
    return ConvergenceLadder(
        N_values=N_values,
        s=s,
        t_end=t_end,
        diffs=diffs,
        fitted_exponent=exponent,
    )


# ---------------------------------------------------------------------------
# Lemma-4 embedding study


_CLAUSE_DEFAULTS = {
    "i": NormParams(s=0.0, b=0.3, p=2.5, q=2.0),
    "iii": NormParams(s=0.01, b=0.4, p=3.0, q=4.0 / (3.0 - 4.0 * 0.4)),
    "vii": NormParams(s=0.0, b=0.55, p=2.5, q=2.5),
}


def _validate_clause(clause: str, params: NormParams) -> NormParams:
    if clause == "i":
        if not (2.0 < params.p < 3.0 and params.b > 0.25 and params.q == 2.0):
            raise DomainError("clause (i) needs 2 < p < 3, q = 2, b > 1/4")
    elif clause == "iii":
        if not (0.25 < params.b < 0.5 and params.s > 0 and params.p == 3.0):
            raise DomainError("clause (iii) needs p = 3, 1/4 < b < 1/2, s > 0")
        expected_q = 4.0 / (3.0 - 4.0 * params.b)
        if abs(params.q - expected_q) > 1e-9:
            raise DomainError("clause (iii) needs q = 4/(3 - 4b)")
    elif clause == "vii":
        if not (2.0 <= params.p < 8.0 / 3.0 and params.p == params.q and params.b > 0.5):
            raise DomainError("clause (vii) needs 2 <= p = q < 8/3, b > 1/2")
    else:
        raise DomainError(f"unsupported clause {clause!r} (have i, iii, vii)")
    return params


@dataclass(frozen=True)
class EmbeddingReport:
    clause: str
    N: int
    trials: int
    ratios: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))


def random_spectrum(N: int, gen: np.random.Generator) -> SpaceTimeSpectrum:
    """Gaussian coefficients weighted by n^-1 <n^2 - m>^-1.

    The real parts x, then the imaginary parts y, are drawn into one real
    buffer and scaled into the complex result in place: the same bits as
    (x + 1j y) * weight, without its three complex temporaries.
    """
    M_half = 2 * N * N
    m = np.arange(-M_half, M_half + 1)
    n = np.arange(1, N + 1)[:, None]
    weight = (1.0 + np.abs(n * n - m)) ** -1.0
    weight *= n**-1.0
    values = np.empty(weight.shape, dtype=complex)
    draw = np.empty(weight.shape)
    for part in (values.real, values.imag):
        gen.standard_normal(out=draw)
        np.multiply(draw, weight, out=part)
    return SpaceTimeSpectrum(N=N, M_half=M_half, values=values)


def run_embedding_study(
    clause: str,
    N: int,
    trials: int,
    rng: RngStream | None = None,
    params: NormParams | None = None,
) -> EmbeddingReport:
    """Distribution of mixed_norm / xsb_norm over random spectra."""
    if N < 1:
        raise DomainError("N must be >= 1")
    if params is None:
        if clause not in _CLAUSE_DEFAULTS:
            raise DomainError(f"unsupported clause {clause!r} (have i, iii, vii)")
        params = _CLAUSE_DEFAULTS[clause]
    params = _validate_clause(clause, params)
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = rng if rng is not None else RngStream(seed=0)
    # 8 nodes per half-oscillation of the top mode resolves the |u|^p
    # integrand far below the calibration tolerance of the ratio study
    rule = rule_for_modes(N)
    samples_t = 16 * N * N
    ratios = np.empty(trials)
    for k in range(trials):
        spec = random_spectrum(N, rng.child(k).generator())
        denom = xsb_norm(spec, params.s, params.b)
        if denom == 0:
            raise DomainError("zero spectrum excluded from the ratio study")
        if params.q == 2.0:
            num = mixed_norm_l2t(spec, params.p, rule)
        else:
            A = synthesize_uniform(spec, samples_t)
            num = mixed_norm_matrix(A, 1.0 / samples_t, params.p, params.q, rule)
        ratios[k] = num / denom
    return EmbeddingReport(clause=clause, N=N, trials=trials, ratios=ratios)
