import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ballnls import io as pio
from ballnls.basis import build_tensor
from ballnls.cli import main
from ballnls.dynamics import IntegratorConfig, RadialState, Trajectory, evolve
from ballnls.errors import ResolutionError, StorageError

FINITE = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def trajectories(draw):
    R = draw(st.integers(1, 6))
    N = draw(st.integers(1, 5))
    times = draw(st.lists(FINITE, min_size=R, max_size=R, unique=True))
    parts = st.complex_numbers(max_magnitude=1e6, allow_nan=False)
    return Trajectory(
        times=np.sort(times),
        coeffs=draw(arrays(complex, (R, N), elements=parts)),
        mass_log=draw(arrays(float, R, elements=FINITE)),
        energy_log=draw(arrays(float, R, elements=st.floats(width=64))),
    )


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _example(times, energy):
    gen = np.random.default_rng(len(times))
    coeffs = gen.standard_normal((len(times), 3)) + 1j * gen.standard_normal(3)
    mass = 2 * np.pi * np.sum(np.abs(coeffs) ** 2, axis=1)
    return Trajectory(np.array(times), coeffs, mass, energy)


class TestTrajectoryFile:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(traj=trajectories())
    # t0 != 0 with an off-grid endpoint, a single record, NaN energies
    @example(traj=_example([0.5, 0.8, 1.1, 1.4, 1.5], np.full(5, np.nan)))
    @example(traj=_example([0.25], np.array([1.5])))
    def test_round_trip_exact(self, tmp_path_factory, traj):
        path = tmp_path_factory.mktemp("traj") / "run.traj"
        pio.write_trajectory(traj, path)
        back = pio.read_trajectory(path)
        for name in ("times", "coeffs", "mass_log", "energy_log"):
            assert _bits(getattr(back, name)) == _bits(getattr(traj, name)), name

    def test_evolve_from_nonzero_start_keeps_its_times(self, tmp_path):
        state = RadialState(N=4, coeffs=np.full(4, 0.1 + 0.05j), time=0.5)
        cfg = IntegratorConfig(
            method="collocation_split", dt=0.1, dt_record=0.3, coupling=0.0
        )
        traj = evolve(state, 1.5, cfg)
        assert traj.times == pytest.approx([0.5, 0.8, 1.1, 1.4, 1.5], abs=1e-12)
        with pytest.raises(ResolutionError):
            traj.dt_record  # the endpoint is off the 0.3 grid
        path = tmp_path / "late.traj"
        pio.write_trajectory(traj, path)
        back = pio.read_trajectory(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.coeffs, traj.coeffs)

    def test_unversioned_format_rejected(self, tmp_path, capsys):
        # format 1: u32 N | f64 dt_record | u64 count | unit tag | body
        coeffs = np.full((2, 3), 0.5 + 0.5j)
        body = struct.pack("<IdQ", 3, 0.25, 2) + pio.UNIT_TAG.encode("ascii")
        body += coeffs.astype("<c16").tobytes() + np.ones(4).tobytes()
        path = tmp_path / "old.traj"
        path.write_bytes(body)
        with pytest.raises(StorageError, match=str(path)):
            pio.read_trajectory(path)
        assert main(["norms", "--in", str(path), "--kind", "hs"]) == 3

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.traj"
        pio.write_trajectory(_example([0.0, 0.5], np.zeros(2)), path)
        whole = path.read_bytes()
        for size in (len(whole) - 8, 20):
            path.write_bytes(whole[:size])
            with pytest.raises(StorageError, match=str(path)):
                pio.read_trajectory(path)


class TestTensorCache:
    @pytest.mark.parametrize("N", [8, 16])
    def test_header_bound_is_max_over_min_index(self, tmp_path, N):
        # the header's f64 is max |c| / min(n, n1, n2, n3) over every entry
        tensor = build_tensor(N)
        path = tmp_path / "tensor.bin"
        pio.write_tensor_cache(tensor, path)
        (bound,) = struct.unpack("<d", path.read_bytes()[20:28])
        n = np.arange(1, N + 1)
        mins = np.minimum.reduce(np.meshgrid(n, n, n, n, indexing="ij"))
        assert bound == np.max(np.abs(tensor.dense()) / mins)
