"""Acceptance suite: one test per calibrated verification criterion.

Each test is self-contained and prints one pass/fail line under
``pytest -v``.  Thresholds are fixed calibration constants; do not loosen
them to make a run green.
"""

import math

import numpy as np
import pytest

from ballnls import io as pio
from ballnls.basis import (
    build_tensor,
    correlation,
    correlation_quadrature,
    count_circle_representations,
    eigenfunction_lp_norm,
    max_circle_count,
    rule_for_modes,
)
from ballnls.cli import main as cli_main
from ballnls.dynamics import IntegratorConfig, evolve
from ballnls.experiments import (
    run_convergence_ladder,
    run_embedding_study,
    run_invariance,
    run_tail_experiment,
)
from ballnls.measures import (
    FreeMeasureSpec,
    RngStream,
    chaos_moment_ratio,
    sample_free,
    sample_gibbs,
)
from ballnls.norms import (
    SpaceTimeSpectrum,
    synthesize_uniform,
    trilinear_form,
)


def test_criterion_01_conservation():
    N = 16
    tensor = build_tensor(N)
    spec = FreeMeasureSpec.derived(N)
    state = sample_gibbs(spec, 0.25, RngStream(seed=101)).state
    config = IntegratorConfig(method="reference_rk4", dt=1e-4, dt_record=0.1)
    traj = evolve(state, 1.0, config, tensor=tensor)
    mass_drift = np.max(np.abs(traj.mass_log / traj.mass_log[0] - 1.0))
    energy_drift = np.max(np.abs(traj.energy_log / traj.energy_log[0] - 1.0))
    assert mass_drift <= 1e-8
    assert energy_drift <= 1e-6


def test_criterion_02_integrator_cross_validation():
    N = 16
    tensor = build_tensor(N)
    state = sample_free(FreeMeasureSpec.derived(N), RngStream(seed=202))
    kw = dict(dt=1e-4, dt_record=0.1)
    ref = evolve(state, 0.1, IntegratorConfig(method="reference_rk4", **kw),
                 tensor=tensor)
    col = evolve(state, 0.1, IntegratorConfig(method="collocation_split", **kw))
    diff = np.max(np.abs(ref.states[-1].coeffs - col.states[-1].coeffs))
    assert diff <= 1e-6


def test_criterion_03_tensor_dual_path():
    gen = np.random.default_rng(303)
    tuples = gen.integers(1, 65, size=(1000, 4))
    for row in tuples:
        closed = correlation(*row)
        oracle = correlation_quadrature(*row)
        assert abs(closed - oracle) <= 1e-10, f"tuple {tuple(row)}"
    # the bound constant C in |c| <= C * min(indices) must be stable in
    # the cutoff: compare the empirical max ratio at n_max = 16 and 32
    constants = []
    for n_max in (16, 32):
        dense = np.abs(build_tensor(n_max).dense())
        idx = np.arange(1, n_max + 1)
        min_idx = np.minimum.reduce(
            np.broadcast_arrays(
                idx[:, None, None, None],
                idx[None, :, None, None],
                idx[None, None, :, None],
                idx[None, None, None, :],
            )
        )
        constants.append(float(np.max(dense / min_idx)))
    assert abs(constants[1] / constants[0] - 1.0) <= 0.10


def test_criterion_04_gibbs_invariance():
    report = run_invariance(
        N=8, samples=2000, t_compare=0.5, beta_q=0.25, preset="derived",
        rng=RngStream(seed=404),
    )
    for name, ks, crit in report.observables:
        assert ks < crit, f"observable {name}: KS={ks:.5f} >= {crit:.5f}"


def test_criterion_05_convergence_ladder():
    passes = 0
    lines, failing = [], []
    for seed in range(10):
        ladder = run_convergence_ladder(
            seed=seed, N_values=(8, 16, 32, 64), s=0.4, t_end=0.5
        )
        decreasing = bool(np.all(np.diff(ladder.diffs) < 0))
        if decreasing and ladder.fitted_exponent > 0:
            passes += 1
        else:
            failing.append(seed)
        diffs = ", ".join(f"{d:.4g}" for d in ladder.diffs)
        lines.append(
            f"  seed {seed}: diffs [{diffs}], "
            f"fitted_exponent {ladder.fitted_exponent:.4f}"
        )
    assert passes >= 9, (
        f"only {passes}/10 master seeds converged; failing seeds {failing}\n"
        + "\n".join(lines)
    )


def test_criterion_06_eigenfunction_scaling():
    rule = rule_for_modes(2048)
    vals = np.array(
        [eigenfunction_lp_norm(n, 4.0, rule) / n**0.25 for n in range(16, 513)]
    )
    c1, c2 = float(vals.min()), float(vals.max())
    assert c2 / c1 <= 1.5


def test_criterion_07_tail_exponent():
    fit = run_tail_experiment(
        "L4_x", N=64, samples=100_000, measure="free",
        rng=RngStream(seed=707), bootstrap=8,
    )
    assert fit.fitted_kappa >= 1.5


def test_criterion_08_chaos_fourth_moment():
    alpha = 1.0 / np.arange(1, 33) ** 0.75
    l2_sq = float(np.sum(np.abs(alpha) ** 2))
    ratio = chaos_moment_ratio(alpha, q=4, trials=100_000, rng=RngStream(seed=808))
    fourth_moment = (ratio * 2.0 * math.sqrt(l2_sq)) ** 4
    exact = 2.0 * l2_sq**2
    assert abs(fourth_moment / exact - 1.0) <= 0.05


def test_criterion_09_embedding_stability():
    for clause in ("i", "iii", "vii"):
        small = run_embedding_study(clause, N=32, trials=100, rng=RngStream(seed=909))
        large = run_embedding_study(clause, N=64, trials=100, rng=RngStream(seed=909))
        assert large.max_ratio <= 2.0 * small.max_ratio, (
            f"clause ({clause}): {large.max_ratio:.4f} vs "
            f"2 x {small.max_ratio:.4f}"
        )


def _jacobi_quarter_counts(l_max):
    """J(l) = |{(n, n') in [0, inf)^2 : n^2 + n'^2 = l}| for 0 <= l <= l_max.

    Jacobi's two-squares theorem gives J(l) = d_1(l) - d_3(l) + [l is a
    positive square], with d_j(l) the number of divisors of l that are
    j (mod 4); J(0) = 1.  Sieved here from the character chi_4, with no
    use of the package.  For l <= N^2 every representation lies in
    [0, N]^2, so J(l) is then the count in the box.
    """
    J = np.zeros(l_max + 1, dtype=np.int64)
    for d in range(1, l_max + 1, 2):
        J[d::d] += 1 if d % 4 == 1 else -1
    J[np.arange(1, math.isqrt(l_max) + 1) ** 2] += 1
    J[0] = 1
    return J


def test_criterion_10_lattice_counts():
    N = 1024
    l_max = 2 * N * N
    squares = {n * n for n in range(N + 1)}
    gen = np.random.default_rng(1010)
    for l in gen.integers(0, l_max + 1, size=10_000):
        l = int(l)
        oracle = sum(
            1
            for n in range(0, min(N, math.isqrt(l)) + 1)
            if (l - n * n) in squares
        )
        assert count_circle_representations(l, N) == oracle
    # J(l) <= 1 + d(l): the divisor bound behind the paper's N^eps count
    J = _jacobi_quarter_counts(l_max)
    for n_level in (64, 128, 256, 512, 1024):
        inner = J[: n_level * n_level + 1]
        # counts on l <= N^2 are exact; the cut just below J's first
        # argmax checks that l_max is honoured
        for cut in (n_level * n_level, int(np.argmax(inner)) - 1):
            assert max_circle_count(n_level, l_max=cut) == (
                int(J[: cut + 1].max()), int(np.argmax(J[: cut + 1]))
            ), f"N={n_level}: counts on l <= {cut} differ from Jacobi's"
        worst, arg = max_circle_count(n_level)
        outer = J[: 2 * n_level * n_level + 1]
        assert inner.max() <= worst <= outer.max(), (
            f"N={n_level}: max count {worst} outside "
            f"[{inner.max()}, {outer.max()}]"
        )
        assert count_circle_representations(arg, n_level) == worst <= J[arg], (
            f"N={n_level}: count {worst} at l={arg}, Jacobi's J = {J[arg]}"
        )


def test_criterion_11_trilinear_oracle():
    N = 4
    gen = np.random.default_rng(1111)
    M = 2 * N * N
    m = np.arange(-M, M + 1)
    n_sq = (np.arange(1, N + 1) ** 2)[:, None]
    weight = (1.0 + np.abs(n_sq - m[None, :])) ** -1.5
    specs = [
        SpaceTimeSpectrum(
            values=weight
            * (gen.standard_normal((N, 2 * M + 1))
               + 1j * gen.standard_normal((N, 2 * M + 1))),
        )
        for _ in range(4)
    ]
    got = trilinear_form(*specs)
    S = 8 * M
    rule = rule_for_modes(4 * N)
    n = np.arange(1, N + 1, dtype=float)[:, None]
    E = n * np.pi * np.sinc(n * rule.nodes[None, :])
    fields = [synthesize_uniform(s, S) @ E for s in specs]
    integrand = np.conj(fields[0]) * fields[1] * np.conj(fields[2]) * fields[3]
    oracle = 4 * np.pi * rule.integrate(integrand.mean(axis=0) * rule.nodes**2)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_criterion_12_manifest_replay(tmp_path, monkeypatch):
    monkeypatch.setenv(pio.CACHE_DIR_ENV, str(tmp_path / "cache"))
    out = tmp_path / "run.traj"
    args = [
        "evolve", "--n", "8", "--t-end", "0.1", "--dt", "1e-3",
        "--dt-record", "0.05", "--seed", "12", "--out", str(out),
    ]
    assert cli_main(args) == 0
    replay_dir = tmp_path / "replayed"
    assert cli_main(
        ["replay", "--manifest", str(out) + ".manifest.json",
         "--out-dir", str(replay_dir)]
    ) == 0
    assert (replay_dir / "run.traj").read_bytes() == out.read_bytes()
