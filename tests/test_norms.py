import math

import numpy as np
import pytest

from ballnls.basis import (
    build_tensor,
    eval_matrix,
    gauss_legendre_rule,
    rule_for_modes,
    trapezoid_weights,
)
from ballnls.dynamics import IntegratorConfig, RadialState, evolve
from ballnls.errors import DomainError, ResolutionError, UndefinedRatioError
from ballnls.norms import (
    SpaceTimeSpectrum,
    TimeWindow,
    dyadic_project,
    hs_norm,
    lemma1_check,
    mixed_norm,
    mixed_norm_l2t,
    mixed_norm_matrix,
    spectrum_from_trajectory,
    synthesize_trajectory,
    synthesize_uniform,
    trilinear_form,
    triple_norm_upper,
    xsb_norm,
)


def unit_window_trajectory(N=2, seed=0, coupling=1.0, scale=0.3, samples=None):
    gen = np.random.default_rng(seed)
    coeffs = scale * (gen.standard_normal(N) + 1j * gen.standard_normal(N))
    coeffs /= np.arange(1, N + 1)
    state = RadialState(N=N, coeffs=coeffs, time=0.0)
    samples = samples if samples is not None else 16 * N * N
    cfg = IntegratorConfig(
        method="collocation_split",
        dt=1.0 / samples,
        dt_record=1.0 / samples,
        coupling=coupling,
    )
    return evolve(state, 1.0, cfg)


def single_entry_spectrum(N, n, m, value=1.0):
    M = 2 * N * N
    vals = np.zeros((N, 2 * M + 1), dtype=complex)
    vals[n - 1, m + M] = value
    return SpaceTimeSpectrum(N=N, M_half=M, values=vals)


def random_spectrum(N, seed, mod_decay=1.0):
    gen = np.random.default_rng(seed)
    M = 2 * N * N
    m = np.arange(-M, M + 1)
    n_sq = (np.arange(1, N + 1) ** 2)[:, None]
    w = (1.0 + np.abs(n_sq - m[None, :])) ** -mod_decay
    vals = w * (
        gen.standard_normal((N, 2 * M + 1)) + 1j * gen.standard_normal((N, 2 * M + 1))
    )
    return SpaceTimeSpectrum(N=N, M_half=M, values=vals)


class TestHsNorm:
    def test_single_mode_s0(self):
        s = RadialState(N=1, coeffs=np.array([1.0 + 0j]), time=0.0)
        assert hs_norm(s, 0.0) == pytest.approx(math.sqrt(2 * math.pi))

    def test_single_mode_weight(self):
        s = RadialState(N=2, coeffs=np.array([0.0, 1.0 + 0j]), time=0.0)
        for expo in (0.25, 0.5, 1.0):
            assert hs_norm(s, expo) == pytest.approx(
                2**expo * math.sqrt(2 * math.pi)
            )

    def test_zero_state(self):
        s = RadialState(N=3, coeffs=np.zeros(3, dtype=complex), time=0.0)
        assert hs_norm(s, 0.3) == 0.0


class TestMixedNorm:
    def test_constant_single_mode(self):
        traj = unit_window_trajectory(N=1, coupling=0.0, samples=64)
        amp = abs(traj.states[0].coeffs[0])
        val = mixed_norm(traj, 2.0, 2.0, rule_for_modes(8))
        assert val == pytest.approx(math.sqrt(2 * math.pi) * amp, rel=1e-6)

    def test_fubini_against_mass_log(self):
        traj = unit_window_trajectory(N=2, coupling=1.0, samples=64)
        val = mixed_norm(traj, 2.0, 2.0, rule_for_modes(16))
        tw = np.full(len(traj.states), traj.dt_record)
        tw[0] = tw[-1] = traj.dt_record / 2.0
        expected = math.sqrt(float(tw @ traj.mass_log))
        assert val == pytest.approx(expected, abs=1e-8)

    def test_non_uniform_records_rejected(self):
        # records at 0, 4/64 and the off-grid endpoint 5/64; the trapezoid
        # with weight 4/64 everywhere gave 0.2659 instead of sqrt(mass * span)
        state = RadialState(N=1, coeffs=np.array([0.3 + 0.1j]), time=0.0)
        cfg = IntegratorConfig(
            method="collocation_split", dt=1 / 64, dt_record=4 / 64, coupling=0.0
        )
        traj = evolve(state, 5 / 64, cfg)
        assert np.array_equal(traj.times, [0.0, 4 / 64, 5 / 64])
        with pytest.raises(ResolutionError):
            mixed_norm(traj, 2.0, 2.0, rule_for_modes(4))
        uniform = evolve(state, 8 / 64, cfg)
        assert mixed_norm(uniform, 2.0, 2.0, rule_for_modes(4)) == pytest.approx(
            math.sqrt(uniform.mass_log[0] * 8 / 64), rel=1e-12
        )

    def test_q_infinity_is_max(self):
        traj = unit_window_trajectory(N=1, coupling=0.0, samples=64)
        rule = rule_for_modes(8)
        v_inf = mixed_norm(traj, 2.0, np.inf, rule)
        v_2 = mixed_norm(traj, 2.0, 2.0, rule)
        assert v_inf == pytest.approx(v_2, rel=1e-6)  # |u| constant in time

    def test_sparse_sampling_rejected(self):
        traj = unit_window_trajectory(N=2, samples=16)
        with pytest.raises(ResolutionError):
            mixed_norm(traj, 2.0, 2.0, rule_for_modes(16))

    def test_l2t_shortcut_matches(self):
        # band-limited field: Plancherel shortcut equals the time-domain
        # trapezoid (closed by wrapping the periodic first row)
        spec = random_spectrum(2, seed=4)
        S = max(4 * spec.M_half, 16 * spec.N**2)
        A = synthesize_uniform(spec, S)
        A_closed = np.vstack([A, A[:1]])
        rule = rule_for_modes(16)
        direct = mixed_norm(
            synthesize_trajectory(spec, S), 2.5, 2.0, rule
        )
        shortcut = mixed_norm_l2t(spec, 2.5, rule)
        trapezoid_closed = mixed_norm_matrix(A_closed, 1.0 / S, 2.5, 2.0, rule)
        assert shortcut == pytest.approx(trapezoid_closed, rel=1e-9)
        assert shortcut == pytest.approx(direct, rel=1e-2)


class TestMixedNormKernels:
    """The real-GEMM kernels against in-test complex-GEMM references.

    A 4096-node rule makes the kernel's chunks 128 rows long, so every
    case below spans several of them.
    """

    rule = gauss_legendre_rule(512)

    def radial(self, inner, p):
        nodes = self.rule.nodes
        return (4.0 * np.pi * self.rule.integrate(inner**p * nodes**2)) ** (1 / p)

    @pytest.mark.parametrize("q", [2.0, 2.5, 4 / (3 - 1.6), 4.0, np.inf])
    def test_matrix_matches_complex_reference(self, q):
        N, S, p, dt = 6, 300, 3.0, 1.0 / (16 * 36)
        gen = np.random.default_rng(11)
        A = gen.standard_normal((S, N)) + 1j * gen.standard_normal((S, N))
        mod = np.abs(A @ eval_matrix(N, self.rule.nodes))
        if np.isinf(q):
            inner = mod.max(axis=0)
        else:
            inner = (trapezoid_weights(S, dt) @ mod**q) ** (1 / q)
        got = mixed_norm_matrix(A, dt, p, q, self.rule)
        assert got == pytest.approx(self.radial(inner, p), rel=1e-13)

    def test_l2t_matches_complex_reference(self):
        spec = random_spectrum(8, seed=12)  # 257 time frequencies
        F = spec.values.T
        g = np.sum(np.abs(F @ eval_matrix(spec.N, self.rule.nodes)) ** 2, axis=0)
        got = mixed_norm_l2t(spec, 2.5, self.rule)
        assert got == pytest.approx(self.radial(g ** 0.5, 2.5), rel=1e-13)

    @pytest.mark.parametrize("samples", [4 * 2 * 9 + 1, 4 * 2 * 9 * 4])
    def test_synthesis_matches_scatter_add(self, samples):
        spec = random_spectrum(3, seed=13)
        x = np.zeros((spec.N, samples), dtype=complex)
        np.add.at(x, (slice(None), spec.m_grid % samples), spec.values)
        expected = np.fft.fft(x, axis=1).T
        assert np.array_equal(synthesize_uniform(spec, samples), expected)


class TestSpectrum:
    def test_linear_concentration(self):
        traj = unit_window_trajectory(N=3, coupling=0.0, samples=16 * 9)
        spec = spectrum_from_trajectory(traj)
        a0 = traj.states[0].coeffs
        for n in (1, 2, 3):
            col = n * n + spec.M_half
            assert spec.values[n - 1, col] == pytest.approx(a0[n - 1], abs=1e-10)
            off = np.abs(np.delete(spec.values[n - 1], col)).max()
            assert off <= 1e-10

    def test_parseval(self):
        # band-limited trajectory: discrete Parseval holds to rounding
        base = random_spectrum(2, seed=11)
        traj = synthesize_trajectory(base, 4 * base.M_half)
        spec = spectrum_from_trajectory(traj, M_half=base.M_half)
        A = traj.coeffs
        time_avg = np.mean(np.abs(A) ** 2, axis=0)
        spectral = np.sum(np.abs(spec.values) ** 2, axis=1)
        assert np.allclose(spectral, time_avg, atol=1e-10)

    def test_parseval_linear_flow(self):
        traj = unit_window_trajectory(N=2, coupling=0.0)
        spec = spectrum_from_trajectory(traj)
        A = traj.coeffs[:-1]  # open window
        time_avg = np.mean(np.abs(A) ** 2, axis=0)
        spectral = np.sum(np.abs(spec.values) ** 2, axis=1)
        assert np.allclose(spectral, time_avg, atol=1e-10)

    def test_zero_trajectory(self):
        state = RadialState(N=2, coeffs=np.zeros(2, dtype=complex), time=0.0)
        cfg = IntegratorConfig(
            method="collocation_split", dt=1 / 64, dt_record=1 / 64
        )
        spec = spectrum_from_trajectory(evolve(state, 1.0, cfg))
        assert np.all(spec.values == 0)

    def test_taper_recorded(self):
        traj = unit_window_trajectory(N=2)
        spec = spectrum_from_trajectory(traj, taper="smooth")
        assert spec.window.taper == "smooth"

    def test_non_unit_window_rejected(self):
        gen = np.random.default_rng(0)
        state = RadialState(
            N=2, coeffs=0.1 * (gen.standard_normal(2) + 0j), time=0.0
        )
        cfg = IntegratorConfig(
            method="collocation_split", dt=1 / 128, dt_record=1 / 128
        )
        traj = evolve(state, 0.5, cfg)
        with pytest.raises(ResolutionError):
            spectrum_from_trajectory(traj)

    def test_synthesis_roundtrip(self):
        spec = random_spectrum(2, seed=3)
        traj = synthesize_trajectory(spec, 4 * spec.M_half)
        again = spectrum_from_trajectory(traj, M_half=spec.M_half)
        assert np.allclose(again.values, spec.values, atol=1e-12)

    def test_invariant_m_range(self):
        with pytest.raises(DomainError):
            SpaceTimeSpectrum(N=2, M_half=4, values=np.zeros((2, 9), dtype=complex))


class TestXsbNorm:
    def test_pure_linear_mode(self):
        spec = single_entry_spectrum(N=3, n=2, m=4, value=0.7 + 0.1j)
        amp = abs(0.7 + 0.1j)
        for s in (0.0, 0.5, 1.0):
            assert xsb_norm(spec, s, 0.75) == pytest.approx(amp * 2**s)

    def test_off_diagonal_entry(self):
        spec = single_entry_spectrum(N=2, n=2, m=1)  # |n^2 - m| = 3
        for s, b in ((0.0, 0.5), (0.5, 0.25)):
            assert xsb_norm(spec, s, b) == pytest.approx(2**s * 4**b)

    def test_monotone_in_b(self):
        spec = random_spectrum(2, seed=1)
        values = [xsb_norm(spec, 0.0, b) for b in (0.1, 0.3, 0.5, 0.7)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestTripleNorm:
    def test_first_family_atom(self):
        T = 0.25
        N = 2
        M = 2 * N * N
        mod = abs(4 - 1)  # entry at n=2, m=1
        vals = np.zeros((N, 2 * M + 1), dtype=complex)
        vals[1, 1 + M] = (mod + 1 / T) ** -0.5
        bound = triple_norm_upper(SpaceTimeSpectrum(N=N, M_half=M, values=vals), T)
        assert bound.upper <= 1.0 + 1e-12

    def test_zero_spectrum(self):
        spec = SpaceTimeSpectrum(N=2, M_half=8, values=np.zeros((2, 17), complex))
        assert triple_norm_upper(spec, 0.25).upper == 0.0

    def test_exact_second_family_profile(self):
        T = 0.2
        N = 3
        M = 2 * N * N
        m = np.arange(-M, M + 1)
        n_sq = (np.arange(1, N + 1) ** 2)[:, None]
        mod = np.abs(n_sq - m[None, :]).astype(float)
        far = mod > 1 / T
        a = np.array([0.4 + 0.1j, -0.2j, 0.1])
        vals = np.where(far, a[:, None] / np.where(far, mod, 1.0), 0)
        bound = triple_norm_upper(SpaceTimeSpectrum(N=N, M_half=M, values=vals), T)
        assert bound.upper == pytest.approx(np.linalg.norm(a), rel=1e-9)
        assert bound.part_one_mass < 1e-9

    def test_against_bruteforce_oracle(self):
        # toy grid: one mode, entries on the exact profile scaled by t plus
        # a lone near-paraboloid entry; minimize over the scalar amplitude
        T = 0.25
        N = 1
        M = 2 * N * N
        m = np.arange(-M, M + 1)
        mod = np.abs(1 - m).astype(float)
        far = mod > 1 / T
        g = np.where(far, 1.0 / np.where(far, mod, 1.0), 0.0)
        w = np.sqrt(mod + 1 / T)
        vals = (0.3 * g + 0.05 * (mod == 0)).astype(complex)
        spec = SpaceTimeSpectrum(N=N, M_half=M, values=vals[None, :])
        bound = triple_norm_upper(spec, T)
        best = np.inf
        for a in np.linspace(0, 1, 2001):
            part1 = np.sqrt(np.sum(np.abs(vals - a * g) ** 2 * w**2))
            best = min(best, part1 + a)
        assert bound.upper <= best * (1 + 1e-6) + 1e-12
        assert bound.upper >= best * (1 - 1e-3)

    def test_monotone_under_modulus_decrease(self):
        spec = random_spectrum(2, seed=5)
        shrunk = SpaceTimeSpectrum(
            N=spec.N, M_half=spec.M_half, values=0.6 * spec.values
        )
        assert (
            triple_norm_upper(shrunk, 0.25).upper
            <= triple_norm_upper(spec, 0.25).upper + 1e-12
        )

    def test_xsb_dominated_by_triple(self):
        # || . ||_{0,b} <= C <<.>> for b < 1/2, single calibrated C
        C = 4.0
        for seed in range(20):
            spec = random_spectrum(2, seed=seed, mod_decay=1.2)
            assert xsb_norm(spec, 0.0, 0.45) <= C * triple_norm_upper(spec, 0.25).upper


class TestDyadicProject:
    def test_identity(self):
        spec = random_spectrum(2, seed=2)
        full = dyadic_project(spec, 1, 2)
        assert np.array_equal(full.values, spec.values)

    def test_partition_reassembles(self):
        gen = np.random.default_rng(8)
        s = RadialState(N=8, coeffs=gen.standard_normal(8) + 0j, time=0.0)
        parts = [dyadic_project(s, B, 2 * B - 1) for B in (1, 2, 4, 8)]
        total = sum(p.coeffs for p in parts)
        assert np.allclose(total, s.coeffs)

    def test_block_mass_orthogonality(self):
        gen = np.random.default_rng(9)
        s = RadialState(N=8, coeffs=gen.standard_normal(8) + 0j, time=0.0)
        masses = [
            dyadic_project(s, B, 2 * B - 1).mass() for B in (1, 2, 4, 8)
        ]
        assert sum(masses) == pytest.approx(s.mass())

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            dyadic_project(random_spectrum(2, seed=0), 3, 2)


class TestTrilinearForm:
    @pytest.fixture()
    def tensor(self):
        return build_tensor(4)

    def test_zero_factor(self, tensor):
        z = SpaceTimeSpectrum(N=2, M_half=8, values=np.zeros((2, 17), complex))
        r = random_spectrum(2, seed=1)
        assert trilinear_form(z, r, r, r, tensor) == 0

    def test_single_linear_mode(self, tensor):
        a = 0.5 + 0.3j
        spec = single_entry_spectrum(N=2, n=1, m=1, value=a)
        got = trilinear_form(spec, spec, spec, spec, tensor)
        assert got == pytest.approx(tensor.value(1, 1, 1, 1) * abs(a) ** 4)

    def test_against_physical_space_oracle(self, tensor):
        N = 4
        specs = [random_spectrum(N, seed=s, mod_decay=1.5) for s in range(4)]
        got = trilinear_form(*specs, tensor)
        # oracle: 4 pi int_0^1 int_0^1 conj(v) v1 conj(u2) u3 r^2 dr dt on a
        # trapezoid-in-time (exact for trigonometric polynomials) x
        # Gauss-Legendre-in-r grid
        S = 8 * specs[0].M_half  # above the 4 M_half bandwidth of the product
        rule = rule_for_modes(4 * N)
        n = np.arange(1, N + 1, dtype=float)[:, None]
        E = n * np.pi * np.sinc(n * rule.nodes[None, :])
        fields = [synthesize_uniform(s, S) @ E for s in specs]
        integrand = (
            np.conj(fields[0]) * fields[1] * np.conj(fields[2]) * fields[3]
        )
        time_avg = integrand.mean(axis=0)
        oracle = 4 * np.pi * rule.integrate(time_avg * rule.nodes**2)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_size_bound(self, tensor):
        big = SpaceTimeSpectrum(
            N=25, M_half=2 * 625, values=np.zeros((25, 4 * 625 + 1), complex)
        )
        with pytest.raises(ResolutionError):
            trilinear_form(big, big, big, big, tensor)

    def test_mismatched_spectra(self, tensor):
        a = random_spectrum(2, seed=0)
        b = random_spectrum(3, seed=0)
        with pytest.raises(DomainError):
            trilinear_form(a, a, b, a, tensor)


class TestLemma1:
    def test_single_atom_ratio_bounded(self):
        # definitional first-family atom: ratio stays below a fixed constant
        T = 0.25
        N = 2
        M = 2 * N * N
        vals = np.zeros((N, 2 * M + 1), dtype=complex)
        mod = abs(4 - 2)
        vals[1, 2 + M] = (mod + 1 / T) ** -0.5
        ratio = lemma1_check(SpaceTimeSpectrum(N=N, M_half=M, values=vals), T)
        assert ratio <= 2 * math.pi * (T + 1e-9) * (mod + 1 / T) ** 0 * 10

    def test_zero_spectrum_undefined(self):
        spec = SpaceTimeSpectrum(N=2, M_half=8, values=np.zeros((2, 17), complex))
        with pytest.raises(UndefinedRatioError):
            lemma1_check(spec, 0.25)

    def test_ratio_stable_across_windows(self):
        worst = 0.0
        for T in (0.25, 1 / 16, 1 / 64):
            for seed in range(5):
                spec = random_spectrum(2, seed=seed, mod_decay=1.2)
                worst = max(worst, lemma1_check(spec, T))
        assert worst < 30.0  # calibrated once; Lemma-1 scale is O(1)
