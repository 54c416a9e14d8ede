import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballnls.basis import (
    build_tensor,
    cubic_grid,
    cubic_term,
    eval_matrix,
    rule_for_modes,
    sine_back,
    sine_samples,
)
from ballnls.dynamics import (
    TRILINEAR_SCALE,
    IntegratorConfig,
    RadialState,
    Trajectory,
    _stepper,
    conserved_quantities,
    default_dt,
    evolve,
    evolve_batch,
    nonlinear_coefficient,
    step_collocation,
    step_reference,
)
from ballnls.errors import BlowUpError, DomainError
from ballnls.measures import FreeMeasureSpec, RngStream, sample_free, sample_free_batch


@pytest.fixture()
def tensor():
    return build_tensor(8)


def small_state(N=8, seed=0, scale=0.2):
    gen = np.random.default_rng(seed)
    coeffs = scale * (gen.standard_normal(N) + 1j * gen.standard_normal(N))
    coeffs /= np.arange(1, N + 1)
    return RadialState(coeffs=coeffs, time=0.0)


def gl_strang_step(A, dt, coupling=1.0):
    """One Strang step of a (samples, N) batch with Gauss-Legendre
    collocation: |u|^2 on the 32N nodes of rule_for_modes(4 N) and the
    projection back by the same rule, never dividing by r.  The production
    step runs on the sine grid instead; this is its oracle.
    """
    N = A.shape[1]
    rule = rule_for_modes(4 * N)
    n = np.arange(1, N + 1, dtype=float)
    # (U @ P.T)_n = <U, e_n>/||e_n||^2
    P = 2.0 * np.sin(np.pi * n[:, None] * rule.nodes) * (rule.nodes * rule.weights)
    half = np.exp(-1j * np.pi * n**2 * dt)
    U = (A * half) @ eval_matrix(N, rule.nodes)
    U = U * np.exp(-1j * coupling * (U.real**2 + U.imag**2) * dt)
    return (U @ P.T) * half


def strang_step(A, dt, coupling=1.0):
    config = IntegratorConfig(method="collocation_split", dt=dt, coupling=coupling)
    return _stepper(A.shape, config)(A, 0.0)


class TestState:
    def test_mass(self):
        s = RadialState(coeffs=np.array([1.0, 1j]), time=0.0)
        assert s.mass() == pytest.approx(4 * np.pi)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            RadialState(coeffs=np.array([np.nan + 0j]), time=0.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(method="leapfrog")
        with pytest.raises(DomainError):
            IntegratorConfig(dt=1e-3, dt_record=1e-4)
        for bad in (
            {"dt": np.nan},
            {"dt": 1e-3, "dt_record": np.nan},
            {"dt": np.inf},
            {"dt": 1e-3, "dt_record": np.inf},
        ):
            with pytest.raises(DomainError):
                IntegratorConfig(**bad)


class TestLinearFlow:
    def test_exact_phases(self, tensor):
        # coupling 0: a_n(t) = a_n(0) e(-n^2 t) exactly for the reference step
        state = small_state()
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, coupling=0.0)
        traj = evolve(state, 0.05, cfg, tensor=tensor)
        n_sq = np.arange(1, 9) ** 2
        expected = state.coeffs * np.exp(-2j * np.pi * n_sq * 0.05)
        assert np.allclose(traj.states[-1].coeffs, expected, atol=1e-12)

    def test_collocation_linear_phases(self):
        state = small_state()
        cfg = IntegratorConfig(method="collocation_split", dt=1e-3, coupling=0.0)
        traj = evolve(state, 0.05, cfg)
        n_sq = np.arange(1, 9) ** 2
        expected = state.coeffs * np.exp(-2j * np.pi * n_sq * 0.05)
        assert np.allclose(traj.states[-1].coeffs, expected, atol=1e-9)


class TestConservation:
    def test_short_run_mass_energy(self, tensor):
        state = small_state(seed=3)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-4, dt_record=1e-2)
        traj = evolve(state, 0.1, cfg, tensor=tensor)
        m, e = traj.mass_log, traj.energy_log
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-10
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-8

    def test_conserved_quantities_components(self, tensor):
        state = small_state(seed=5)
        (mass,), (energy,) = conserved_quantities(state.coeffs[None, :])
        assert mass == pytest.approx(state.mass())
        kinetic = 2.0 * np.pi**2 * np.sum(
            np.arange(1, 9) ** 2 * np.abs(state.coeffs) ** 2
        )
        assert energy > kinetic  # defocusing quartic part is positive

    def test_energy_log_does_not_depend_on_integrator(self, tensor):
        gen = np.random.default_rng(5)
        for _ in range(20):
            g = (gen.standard_normal(8) + 1j * gen.standard_normal(8)) / np.sqrt(2)
            state = RadialState(coeffs=g)
            ref = evolve(
                state, 0.0, IntegratorConfig(method="reference_rk4"), tensor=tensor
            )
            col = evolve(state, 0.0, IntegratorConfig(method="collocation_split"))
            assert ref.energy_log[0] == col.energy_log[0]


class TestCrossValidation:
    def test_integrators_agree(self, tensor):
        state = small_state(seed=7)
        ref = evolve(
            state,
            0.02,
            IntegratorConfig(method="reference_rk4", dt=1e-4),
            tensor=tensor,
        )
        col = evolve(
            state, 0.02, IntegratorConfig(method="collocation_split", dt=1e-4)
        )
        diff = np.abs(ref.states[-1].coeffs - col.states[-1].coeffs).max()
        assert diff < 1e-6

    def test_single_steps_agree(self, tensor):
        state = small_state(seed=1)
        a = step_reference(
            state, IntegratorConfig(method="reference_rk4", dt=1e-4), tensor
        )
        b = step_collocation(
            state, IntegratorConfig(method="collocation_split", dt=1e-4)
        )
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-10
        assert a.time == pytest.approx(1e-4)


class TestGridStrang:
    # tol: 10x or more the largest difference measured on these rows and
    # on five other seeds' (CHANGES.md)
    @pytest.mark.parametrize(
        "N, dt, tol",
        [
            (1, 1e-4, 2e-7),
            (1, 1e-3, 2e-6),
            (8, 1e-4, 6e-10),
            (8, 1e-3, 6e-9),
            (32, 1e-4, 6e-12),
            (32, 1e-3, 7e-11),
            (64, 1e-4, 3e-13),
            (64, 1e-3, 9e-10),
        ],
    )
    def test_matches_gl_oracle(self, N, dt, tol):
        A = sample_free_batch(FreeMeasureSpec.derived(N), RngStream(seed=N), 16)
        ref = gl_strang_step(A, dt)
        assert np.abs(strang_step(A, dt) - ref).max() <= tol * np.abs(ref).max()

    # the DST-I is orthogonal on the grid and the phase has modulus 1, so
    # projecting the rotated samples back to N modes cannot add mass
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        N=st.integers(1, 64),
        amplitude=st.floats(0.1, 10.0),
        dt=st.floats(1e-6, 1e-2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(N=64, amplitude=10.0, dt=1e-2, seed=0)
    @example(N=1, amplitude=10.0, dt=1e-2, seed=1)
    def test_never_adds_mass(self, N, amplitude, dt, seed):
        gen = np.random.default_rng(seed)
        A = amplitude * (gen.standard_normal((3, N)) + 1j * gen.standard_normal((3, N)))
        mass = np.sum(np.abs(A) ** 2, axis=1)
        stepped = np.sum(np.abs(strang_step(A, dt)) ** 2, axis=1)
        assert np.all(stepped <= (1 + 1e-13) * mass)

    def test_needs_no_cubic_q(self):
        # cubic_grid(1024) spends ~3 s forming Q; the step takes only S
        before = cubic_grid.cache_info()
        state = small_state(N=1024)
        step_collocation(state, IntegratorConfig(method="collocation_split", dt=1e-8))
        after = cubic_grid.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_steppers_share_one_back_projection(self):
        # no stepper copies the (3N x N) back-projection (2/M) S^T
        N, M = 64, 193
        config = IntegratorConfig(method="collocation_split", dt=1e-4)
        first, second = (
            inspect.getclosurevars(_stepper(shape, config)).nonlocals["back"]
            for shape in ((1, N), (5, N))
        )
        assert first is second is sine_back(N, M)
        assert first.flags.c_contiguous and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        S = sine_samples(N, M)
        assert np.array_equal(first, np.ascontiguousarray(S.T) * (2.0 / M))


class TestNonlinearCoefficient:
    def test_single_mode(self, tensor):
        # a = (a1, 0, ...): G_1 = c(1,1,1,1) |a1|^2 a1 / (2 pi)
        coeffs = np.zeros(8, dtype=complex)
        coeffs[0] = 0.5 + 0.2j
        state = RadialState(coeffs=coeffs, time=0.0)
        g1 = nonlinear_coefficient(state, 1)
        expected = (
            tensor.value(1, 1, 1, 1) * abs(coeffs[0]) ** 2 * coeffs[0] / (2 * np.pi)
        )
        assert g1 == pytest.approx(expected)


class TestEvolveBookkeeping:
    def test_zero_span(self, tensor):
        state = small_state()
        traj = evolve(state, 0.0, IntegratorConfig(dt=1e-4), tensor=tensor)
        assert len(traj.states) == 1

    def test_non_multiple_dt_rejected(self, tensor):
        with pytest.raises(DomainError):
            evolve(small_state(), 0.0105, IntegratorConfig(dt=1e-3), tensor=tensor)

    # 0.04 rounds to zero steps of 0.1, and an infinite span to no count
    @pytest.mark.parametrize("t_end", [0.04, np.inf])
    def test_span_not_whole_steps_rejected(self, t_end):
        A = small_state().coeffs[None, :]
        cfg = IntegratorConfig(method="collocation_split", dt=0.1)
        with pytest.raises(DomainError, match="t_end - t0"):
            evolve_batch(A, 0.0, t_end, cfg)

    @pytest.mark.parametrize(
        "method, N",
        [
            *(("collocation_split", N) for N in (1, 8, 32, 64)),
            pytest.param(
                "reference_rk4",
                1,
                marks=pytest.mark.xfail(
                    reason="at N = 1 numpy's complex multiply runs a lone row "
                    "as a one-element loop, whose last bits differ from the "
                    "batch's vector loop"
                ),
            ),
            *(("reference_rk4", N) for N in (8, 32, 64)),
        ],
    )
    def test_batch_matches_single(self, tensor, method, N):
        state = small_state(N=N, seed=9)
        cfg = IntegratorConfig(method=method, dt=1e-3, dt_record=5e-3)
        traj = evolve(state, 0.02, cfg, tensor=tensor)
        times, records = evolve_batch(
            np.stack([state.coeffs, 2 * state.coeffs]), 0.0, 0.02, cfg, tensor=tensor
        )
        assert np.array_equal(records[:, 0, :], traj.coeffs)
        assert len(times) == len(traj.states)

    def test_tensor_keyword_is_ignored(self, tensor):
        # the reference integrator needs no tensor; passing one changes no bit
        state = small_state(seed=1)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, dt_record=2e-3)
        plain = evolve(state, 0.01, cfg)
        given = evolve(state, 0.01, cfg, tensor=tensor)
        for field in ("times", "coeffs", "mass_log", "energy_log"):
            assert np.array_equal(getattr(plain, field), getattr(given, field))
        A = np.stack([state.coeffs, small_state(seed=2).coeffs])
        _, records = evolve_batch(A, 0.0, 0.01, cfg)
        _, records_t = evolve_batch(A, 0.0, 0.01, cfg, tensor=tensor)
        assert np.array_equal(records, records_t)
        step = step_reference(state, cfg)
        assert np.array_equal(step.coeffs, step_reference(state, cfg, tensor).coeffs)

    def test_rk4_steps_match_plain_arithmetic(self):
        # The buffered step takes every product and sum of this plain one,
        # in the same order, so the bits agree.  Runs of different batch
        # sizes in one process each start from their own buffers.
        nsq = np.arange(1, 9, dtype=float) ** 2
        dt, coupling, steps = 1e-3, 1.5, 4

        def rhs(B, tau):
            ph = np.exp(2j * np.pi * nsq * tau)
            return -1j * coupling * ph * (TRILINEAR_SCALE * cubic_term(B / ph))

        def plain(A):
            out = [A]
            for step in range(steps):
                t = step * dt
                B = A * np.exp(2j * np.pi * nsq * t)
                k1 = rhs(B, t)
                k2 = rhs(B + 0.5 * dt * k1, t + 0.5 * dt)
                k3 = rhs(B + 0.5 * dt * k2, t + 0.5 * dt)
                k4 = rhs(B + dt * k3, t + dt)
                B = B + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                A = B * np.exp(-2j * np.pi * nsq * (t + dt))
                out.append(A)
            return np.stack(out)

        cfg = IntegratorConfig(dt=dt, coupling=coupling, dt_record=dt)
        for count in (37, 5, 37):
            A = np.stack([small_state(seed=k).coeffs for k in range(count)])
            before = A.copy()
            _, records = evolve_batch(A, 0.0, steps * dt, cfg)
            assert np.array_equal(records.view(float), plain(A).view(float)), count
            assert np.array_equal(A, before)

    def test_subwindow_splitting_is_bookkeeping(self):
        # evolving [0, T] then [T, 2T] equals one pass over [0, 2T]
        tensor = build_tensor(4)
        state = sample_free(FreeMeasureSpec.derived(4), RngStream(seed=5))
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, dt_record=0.05)
        whole = evolve(state, 0.2, cfg, tensor=tensor)
        half = evolve(state, 0.1, cfg, tensor=tensor)
        rest = evolve(half.states[-1], 0.2, cfg, tensor=tensor)
        assert np.allclose(
            rest.states[-1].coeffs, whole.states[-1].coeffs, atol=1e-13
        )

    def test_trajectory_properties(self, tensor):
        traj = evolve(
            small_state(),
            0.01,
            IntegratorConfig(dt=1e-3, dt_record=2e-3),
            tensor=tensor,
        )
        assert traj.N == 8
        assert traj.dt_record == pytest.approx(2e-3)
        assert traj.coeffs.shape == (6, 8)

    def test_default_dt_scales(self):
        assert default_dt(32) < default_dt(4) <= 1e-3


class TestBlowUp:
    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_raises(self, tensor):
        coeffs = np.full(8, 100.0 + 0j)
        state = RadialState(coeffs=coeffs, time=0.0)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-2, dt_record=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01, sample 0") as info:
            evolve(state, 1.0, cfg, tensor=tensor)
        assert info.value.partial_trajectory is not None
        times, records = info.value.partial_trajectory
        assert records.shape[2] == 8

    # the step functions run evolve_batch's record check on their one step
    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_reference_step_raises(self, tensor):
        state = RadialState(coeffs=np.full(8, 100.0 + 0j), time=0.0)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01, sample 0"):
            step_reference(state, cfg, tensor)

    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_collocation_step_raises(self):
        state = RadialState(coeffs=np.full(8, 100.0 + 0j), time=0.0)
        cfg = IntegratorConfig(method="collocation_split", dt=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01, sample 0"):
            step_collocation(state, cfg)


class TestGibbsScaleRun:
    def test_free_sample_stays_bounded(self, tensor):
        state = sample_free(FreeMeasureSpec.derived(8), RngStream(seed=21))
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, dt_record=0.05)
        traj = evolve(state, 0.5, cfg, tensor=tensor)
        assert np.all(np.isfinite(traj.coeffs.view(float)))
        drift = np.abs(traj.mass_log - traj.mass_log[0]).max() / traj.mass_log[0]
        assert drift < 1e-8
