import math

import numpy as np
import pytest

from ballnls.basis import build_tensor, rule_for_modes
from ballnls.dynamics import IntegratorConfig, RadialState, evolve
from ballnls.errors import (
    BlowUpError,
    DomainError,
    FitDegenerateError,
    PrecisionError,
)
from ballnls.experiments import (
    block_observable,
    chaos_observable,
    ks_critical_value,
    ks_statistic,
    observable_table,
    run_block_observables,
    run_convergence_ladder,
    run_embedding_study,
    run_invariance,
    run_tail_experiment,
)
from ballnls.measures import (
    FreeMeasureSpec,
    RngStream,
    sample_free,
    sample_free_batch,
)
from ballnls.norms import NormParams, mixed_norm, spectrum_from_trajectory, xsb_norm


class TestKS:
    def test_identical_samples_zero(self):
        x = np.array([0.1, 0.4, 0.7])
        assert ks_statistic(x, x.copy()) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic(np.zeros(5), np.ones(5)) == 1.0

    def test_matches_closed_form(self):
        x = np.array([1.0, 2.0])
        y = np.array([1.5])
        # F_x jumps to .5 at 1, F_y jumps to 1 at 1.5: sup diff at 1.5
        assert ks_statistic(x, y) == pytest.approx(0.5)

    def test_critical_value(self):
        # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276
        got = ks_critical_value(1000, 1000, alpha=0.01)
        assert got == pytest.approx(
            math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2 / 1000), rel=1e-12
        )

    def test_gaussian_calibration(self):
        gen = np.random.default_rng(0)
        stats = [
            ks_statistic(gen.standard_normal(500), gen.standard_normal(500))
            for _ in range(40)
        ]
        crit = ks_critical_value(500, 500, alpha=0.01)
        # under the null ~1% exceedances expected; allow a couple
        assert sum(s >= crit for s in stats) <= 3


class TestInvariance:
    def test_t_zero_exact_zeros(self):
        rep = run_invariance(
            N=4, samples=150, t_compare=0.0, beta_q=0.25, rng=RngStream(seed=1)
        )
        assert all(ks == 0.0 for _, ks, _ in rep.observables)
        assert rep.all_pass()

    def test_free_flow_modulus_invariance(self):
        # coupling 0 preserves |a_n| so modulus observables stay put
        rep = run_invariance(
            N=4,
            samples=300,
            t_compare=0.3,
            beta_q=0.0,
            rng=RngStream(seed=2),
            coupling=0.0,
        )
        # |a_n| drifts only by integrator rounding, so the empirical CDFs can
        # interleave by at most a few grid steps
        table = dict((name, ks) for name, ks, _ in rep.observables)
        assert table["abs_a1_sq"] <= 2 / 300
        assert table["mode_index"] <= 2 / 300
        assert rep.all_pass()

    def test_small_sample_rejected(self):
        with pytest.raises(DomainError):
            run_invariance(N=4, samples=50, t_compare=0.1, beta_q=0.25)

    def test_observable_table_keys(self):
        A = sample_free(FreeMeasureSpec.derived(4), RngStream(seed=0)).coeffs
        table = observable_table(A[None, :])
        assert set(table) == {"l4_norm_fourth", "re_a1", "abs_a1_sq", "mode_index"}
        assert table["l4_norm_fourth"][0] > 0


class TestTails:
    def test_precondition(self):
        with pytest.raises(PrecisionError):
            run_tail_experiment("L4_x", N=8, samples=10)

    def test_degenerate_point_mass(self):
        from ballnls.experiments import _fit_tail

        with pytest.raises(FitDegenerateError):
            _fit_tail(np.ones(10_000))

    def test_gaussian_norm_kappa_two(self):
        # ||phi||_{L^4} is a Gaussian-norm functional: kappa close to 2
        fit = run_tail_experiment(
            "L4_x", N=8, samples=20_000, rng=RngStream(seed=3), bootstrap=8
        )
        assert 1.5 <= fit.fitted_kappa <= 3.0
        assert np.all(np.diff(fit.empirical_log_survival) <= 1e-12)
        assert fit.kappa_stderr > 0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            run_tail_experiment("L9", N=4, samples=10_000, rng=RngStream(seed=0))

    @pytest.mark.parametrize("kind", ["mixed", "xsb"])
    def test_space_time_samples_match_single_evolves(self, kind):
        from ballnls.experiments import _norm_samples

        N, dt = 2, 1e-3
        A = sample_free_batch(FreeMeasureSpec.derived(N), RngStream(seed=5), 3)
        rule = rule_for_modes(4 * N)
        params = NormParams(s=0.5, b=0.45, p=4.0, q=4.0)
        values = _norm_samples(kind, A, params, dt, coupling=1.0)
        # the sampling steps _norm_samples documents for each kind
        dt_rec = 1.0 / (16 * N * N) if kind == "mixed" else 1.0 / (8 * N * N + 4)
        steps = round(dt_rec / dt)
        cfg = IntegratorConfig(
            method="collocation_split", dt=dt_rec / steps, dt_record=dt_rec
        )
        for a, value in zip(A, values):
            traj = evolve(RadialState(N=N, coeffs=a), 1.0, cfg)
            if kind == "mixed":
                expected = mixed_norm(traj, params.p, params.q, rule)
            else:
                expected = xsb_norm(spectrum_from_trajectory(traj), params.s, params.b)
            assert value == pytest.approx(expected, rel=1e-12)


class TestBlocks:
    def test_block_observable_single_block(self):
        # data in one dyadic block: the max equals that block's value
        R, S, N = 9, 3, 8
        mod_sq = np.zeros((R, S, N))
        mod_sq[:, :, 2] = 1.0  # mode 3 lives in block [2, 4)
        vals = block_observable(mod_sq, dt_rec=1.0 / (R - 1))
        # B = 2: sqrt(2) * (int (2 pi)^3 dt)^{1/6}
        expected = math.sqrt(2.0) * (2 * math.pi) ** 0.5
        assert np.allclose(vals, expected)

    def test_zero_field(self):
        mod_sq = np.zeros((5, 2, 4))
        assert np.all(block_observable(mod_sq, dt_rec=0.25) == 0)

    def test_chaos_observable_centering(self):
        # |g|^2 identically 1 => centered sum vanishes
        avg = np.ones((3, 8))
        vals = chaos_observable(avg, N2=2, n_top=4)
        assert np.allclose(vals, 0.0)

    def test_chaos_observable_matches_tensor_rows(self):
        N = 8
        tensor = build_tensor(N)
        avg = np.random.default_rng(6).exponential(size=(40, N))
        for N2 in (1, 2, 3, 4):
            n2_range = np.arange(N2, min(2 * N2, N + 1))
            rows = np.array(
                [
                    [tensor.value(n, n, n2, n2) / n2**2 for n2 in n2_range]
                    for n in range(1, N + 1)
                ]
            )
            expected = np.max(np.abs((avg[:, n2_range - 1] - 1.0) @ rows.T), axis=1)
            assert np.array_equal(chaos_observable(avg, N2, n_top=N), expected)

    def test_chaos_block_exceeds_truncation(self):
        with pytest.raises(DomainError):
            chaos_observable(np.ones((2, 8)), N2=8, n_top=4)

    @pytest.mark.parametrize("n2_values", [(0,), (0, 4), (-2, 4)])
    def test_block_size_below_one_rejected(self, n2_values):
        # an empty block would give a chaos median of 0
        with pytest.raises(DomainError, match="n2 must be >= 1"):
            run_block_observables(N=8, samples=1000, n2_values=n2_values)


class TestLadder:
    def test_coupling_zero_closed_form(self):
        # linear flow: D_N is exactly the missing high-mode initial mass
        seed = 13
        spec = FreeMeasureSpec.derived(16)
        master = sample_free(spec, RngStream(seed))
        s = 0.4
        ladder = run_convergence_ladder(
            seed=seed,
            N_values=(4, 8, 16),
            s=s,
            t_end=0.25,
            coupling=0.0,
            record_points=8,
        )
        for (N_lo, N_hi), got in zip(((4, 8), (8, 16)), ladder.diffs):
            n = np.arange(N_lo + 1, N_hi + 1)
            tail = master.coeffs[N_lo:N_hi]
            expected = math.sqrt(
                float(2 * np.pi * np.sum(n ** (2 * s) * np.abs(tail) ** 2))
            )
            assert got == pytest.approx(expected, rel=1e-9)

    def test_duplicate_levels_give_zero(self):
        ladder = run_convergence_ladder(
            seed=1, N_values=(4, 4), s=0.2, t_end=0.125, record_points=4
        )
        assert ladder.diffs[0] == 0.0

    def test_non_dyadic_rejected(self):
        with pytest.raises(DomainError):
            run_convergence_ladder(seed=0, N_values=(3, 6), s=0.2, t_end=0.1)

    def test_s_range(self):
        with pytest.raises(DomainError):
            run_convergence_ladder(seed=0, N_values=(4, 8), s=0.6, t_end=0.1)

    def test_blow_up_keeps_partial_trajectory(self):
        with pytest.raises(BlowUpError, match="ladder run N=4") as info:
            run_convergence_ladder(
                seed=0, N_values=(4, 8), s=0.2, t_end=0.125, coupling=1e8,
                record_points=4,
            )
        times, records = info.value.partial_trajectory
        assert times[0] == 0.0
        assert records.shape[1:] == (1, 4)

    @pytest.mark.parametrize("record_points", [0, -4])
    def test_record_points_checked(self, record_points):
        with pytest.raises(DomainError, match="record_points"):
            run_convergence_ladder(
                seed=0, N_values=(4, 8), s=0.2, t_end=0.125,
                record_points=record_points,
            )

    def test_decreasing_with_positive_exponent(self):
        ladder = run_convergence_ladder(
            seed=3, N_values=(4, 8, 16), s=0.4, t_end=0.25, record_points=16
        )
        assert np.all(np.diff(ladder.diffs) < 0)
        assert ladder.fitted_exponent > 0


class TestEmbeddings:
    def test_single_entry_closed_form(self):
        # one spectral entry: both norms reduce to one term each
        from ballnls.norms import (
            SpaceTimeSpectrum,
            mixed_norm_l2t,
            xsb_norm,
        )
        from ballnls.basis import eigenfunction_lp_norm, rule_for_modes

        N, n, m = 2, 1, 3
        M = 2 * N * N
        vals = np.zeros((N, 2 * M + 1), dtype=complex)
        vals[n - 1, m + M] = 2.0
        spec = SpaceTimeSpectrum(N=N, M_half=M, values=vals)
        rule = rule_for_modes(8)
        p, s, b = 2.5, 0.0, 0.3
        ratio = mixed_norm_l2t(spec, p, rule) / xsb_norm(spec, s, b)
        expected = eigenfunction_lp_norm(n, p, rule) / (1.0 + abs(n * n - m)) ** b
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_clause_validation(self):
        from ballnls.norms import NormParams

        with pytest.raises(DomainError):
            run_embedding_study(
                "i", N=4, trials=2, params=NormParams(s=0, b=0.1, p=2.5, q=2)
            )
        with pytest.raises(DomainError):
            run_embedding_study("iv", N=4, trials=2)

    def test_reports_finite_max(self):
        rep = run_embedding_study("i", N=8, trials=5, rng=RngStream(seed=4))
        assert rep.max_ratio > 0 and np.isfinite(rep.max_ratio)
        assert rep.ratios.shape == (5,)

    def test_reproducible(self):
        a = run_embedding_study("vii", N=4, trials=3, rng=RngStream(seed=9))
        b = run_embedding_study("vii", N=4, trials=3, rng=RngStream(seed=9))
        assert np.array_equal(a.ratios, b.ratios)
