import numpy as np
import pytest

from ballnls.basis import build_tensor, rule_for_modes
from ballnls.dynamics import (
    IntegratorConfig,
    RadialState,
    Trajectory,
    conserved_quantities,
    default_dt,
    evolve,
    evolve_batch,
    nonlinear_coefficient,
    step_collocation,
    step_reference,
)
from ballnls.errors import BlowUpError, DomainError, ResolutionError
from ballnls.measures import FreeMeasureSpec, RngStream, sample_free


@pytest.fixture()
def tensor():
    return build_tensor(8)


def small_state(N=8, seed=0, scale=0.2):
    gen = np.random.default_rng(seed)
    coeffs = scale * (gen.standard_normal(N) + 1j * gen.standard_normal(N))
    coeffs /= np.arange(1, N + 1)
    return RadialState(N=N, coeffs=coeffs, time=0.0)


class TestState:
    def test_mass(self):
        s = RadialState(N=2, coeffs=np.array([1.0, 1j]), time=0.0)
        assert s.mass() == pytest.approx(4 * np.pi)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            RadialState(N=1, coeffs=np.array([np.nan + 0j]), time=0.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IntegratorConfig(method="leapfrog")
        with pytest.raises(DomainError):
            IntegratorConfig(dt=1e-3, dt_record=1e-4)


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
        (mass,), (energy,) = conserved_quantities(state.coeffs[None, :], tensor)
        assert mass == pytest.approx(state.mass())
        kinetic = 2.0 * np.pi**2 * np.sum(
            np.arange(1, 9) ** 2 * np.abs(state.coeffs) ** 2
        )
        assert energy > kinetic  # defocusing quartic part is positive


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
            state,
            IntegratorConfig(method="collocation_split", dt=1e-4),
            rule_for_modes(32),
        )
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-10
        assert a.time == pytest.approx(1e-4)


class TestNonlinearCoefficient:
    def test_single_mode(self, tensor):
        # a = (a1, 0, ...): G_1 = c(1,1,1,1) |a1|^2 a1 / (2 pi)
        coeffs = np.zeros(8, dtype=complex)
        coeffs[0] = 0.5 + 0.2j
        state = RadialState(N=8, coeffs=coeffs, time=0.0)
        g1 = nonlinear_coefficient(state, 1, tensor)
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

    def test_batch_matches_single(self, tensor):
        state = small_state(seed=9)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, dt_record=5e-3)
        traj = evolve(state, 0.02, cfg, tensor=tensor)
        times, records = evolve_batch(
            np.stack([state.coeffs, 2 * state.coeffs]), 0.0, 0.02, cfg, tensor=tensor
        )
        assert np.allclose(records[:, 0, :], traj.coeffs)
        assert len(times) == len(traj.states)

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

    def test_under_resolved_collocation_rejected(self):
        with pytest.raises(ResolutionError):
            evolve_batch(
                small_state().coeffs[None, :],
                0.0,
                0.01,
                IntegratorConfig(method="collocation_split", dt=1e-3),
                rule=rule_for_modes(2),
            )

    def test_default_dt_scales(self):
        assert default_dt(32) < default_dt(4) <= 1e-3


class TestBlowUp:
    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_raises(self, tensor):
        coeffs = np.full(8, 100.0 + 0j)
        state = RadialState(N=8, coeffs=coeffs, time=0.0)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-2, dt_record=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01, sample 0") as info:
            evolve(state, 1.0, cfg, tensor=tensor)
        assert info.value.partial_trajectory is not None
        times, records = info.value.partial_trajectory
        assert records.shape[2] == 8

    # the step functions run evolve_batch's record check on their one step
    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_reference_step_raises(self, tensor):
        state = RadialState(N=8, coeffs=np.full(8, 100.0 + 0j), time=0.0)
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01, sample 0"):
            step_reference(state, cfg, tensor)

    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_collocation_step_raises(self):
        state = RadialState(N=8, coeffs=np.full(8, 100.0 + 0j), time=0.0)
        cfg = IntegratorConfig(method="collocation_split", dt=1e-2)
        with pytest.raises(BlowUpError, match=r"at t=0\.01 in sample 0"):
            step_collocation(state, cfg)


class TestGibbsScaleRun:
    def test_free_sample_stays_bounded(self, tensor):
        state = sample_free(FreeMeasureSpec.derived(8), RngStream(seed=21))
        cfg = IntegratorConfig(method="reference_rk4", dt=1e-3, dt_record=0.05)
        traj = evolve(state, 0.5, cfg, tensor=tensor)
        assert np.all(np.isfinite(traj.coeffs.view(float)))
        drift = np.abs(traj.mass_log - traj.mass_log[0]).max() / traj.mass_log[0]
        assert drift < 1e-8
