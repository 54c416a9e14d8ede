import json
import math
from pathlib import Path

import numpy as np
import pytest

from ballnls import io as pio
from ballnls.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(pio.CACHE_DIR_ENV, str(tmp_path / "cache"))


def run(*argv):
    return main([str(a) for a in argv])


class TestTensorBuild:
    def test_build_and_rebuild_byte_identical(self, tmp_path):
        out = tmp_path / "tensor.bin"
        assert run("tensor-build", "--n-max", 4, "--out", out) == 0
        first = out.read_bytes()
        assert run("tensor-build", "--n-max", 4, "--out", out) == 0
        assert out.read_bytes() == first
        tensor = pio.read_tensor_cache(out)
        assert len(tensor.values) == math.comb(4 + 3, 4)

    def test_invalid_cutoff(self, capsys):
        assert run("tensor-build", "--n-max", 0) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run("tensor-build") == 2

    def test_corrupted_cache_detected(self, tmp_path):
        out = tmp_path / "tensor.bin"
        run("tensor-build", "--n-max", 3, "--out", out)
        blob = bytearray(out.read_bytes())
        blob[40] ^= 0xFF
        out.write_bytes(bytes(blob))
        with pytest.raises(Exception):
            pio.read_tensor_cache(out)


class TestEvolve:
    def test_deterministic_output(self, tmp_path):
        args = (
            "evolve", "--n", 4, "--t-end", 0.1, "--dt", 1e-3,
            "--dt-record", 0.05, "--seed", 7,
        )
        a, b = tmp_path / "a.traj", tmp_path / "b.traj"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.traj.manifest.json").exists()

    def test_zero_span_single_record(self, tmp_path):
        out = tmp_path / "zero.traj"
        assert run(
            "evolve", "--n", 4, "--t-end", 0.0, "--dt", 1e-3,
            "--dt-record", 0.05, "--out", out,
        ) == 0
        traj = pio.read_trajectory(out)
        assert len(traj.states) == 1

    def test_reference_advisory_warning(self, tmp_path, capsys):
        out = tmp_path / "big.traj"
        assert run(
            "evolve", "--n", 40, "--t-end", 0.001, "--dt", 1e-3,
            "--dt-record", 0.001, "--integrator", "reference", "--out", out,
        ) == 0
        assert "advisory" in capsys.readouterr().err

    def test_blow_up_saves_partial_trajectory(self, tmp_path, capsys):
        out = tmp_path / "hot.traj"
        assert run(
            "evolve", "--n", 4, "--t-end", 1, "--dt", 0.01, "--dt-record", 0.01,
            "--coupling", 1e6, "--integrator", "reference", "--out", out,
        ) == 3
        err = capsys.readouterr().err
        assert "at t=0.01 in sample 0: mass ratio" in err
        partial = pio.read_trajectory(str(out) + ".partial")
        assert partial.times[0] == 0.0
        assert np.all(np.isnan(partial.energy_log))
        assert np.array_equal(
            partial.mass_log, 2 * np.pi * np.sum(np.abs(partial.coeffs) ** 2, axis=1)
        )
        assert not out.exists()

    def test_off_grid_endpoint_kept_and_refused_by_norms(self, tmp_path, capsys):
        out = tmp_path / "tail.traj"
        assert run(
            "evolve", "--n", 2, "--t-end", 1, "--dt", 0.1, "--dt-record", 0.3,
            "--integrator", "collocation", "--coupling", 0, "--out", out,
        ) == 0
        times = pio.read_trajectory(out).times
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)
        assert run("norms", "--in", out, "--kind", "mixed") == 2
        assert "records are not uniform" in capsys.readouterr().err

    def test_unknown_integrator(self, tmp_path):
        assert run(
            "evolve", "--n", 4, "--t-end", 0.1, "--dt-record", 0.05,
            "--integrator", "verlet", "--out", tmp_path / "x.traj",
        ) == 2


class TestReplay:
    def test_byte_identical_reproduction(self, tmp_path):
        out = tmp_path / "orig.traj"
        run(
            "evolve", "--n", 4, "--t-end", 0.1, "--dt", 1e-3,
            "--dt-record", 0.05, "--seed", 3, "--out", out,
        )
        replay_dir = tmp_path / "replayed"
        assert run(
            "replay", "--manifest", str(out) + ".manifest.json",
            "--out-dir", replay_dir,
        ) == 0
        assert (replay_dir / "orig.traj").read_bytes() == out.read_bytes()

    def test_missing_manifest(self, tmp_path):
        assert run("replay", "--manifest", tmp_path / "nope.json") == 3


class TestNorms:
    @pytest.fixture
    def trajectory(self, tmp_path):
        out = tmp_path / "run.traj"
        run(
            "evolve", "--n", 4, "--t-end", 1.0, "--dt", 1.0 / 1024,
            "--dt-record", 1.0 / 128, "--integrator", "collocation",
            "--seed", 11, "--out", out,
        )
        return out

    def test_hs_zero_matches_mass(self, trajectory, capsys):
        assert run("norms", "--in", trajectory, "--kind", "hs", "--s", 0.0) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        traj = pio.read_trajectory(trajectory)
        for line, mass in zip(lines, traj.mass_log):
            assert float(line.split("\t")[1]) == pytest.approx(
                math.sqrt(mass), rel=1e-12
            )

    def test_xsb_and_triple_run(self, trajectory, tmp_path, capsys):
        csv = tmp_path / "xsb.csv"
        assert run(
            "norms", "--in", trajectory, "--kind", "xsb",
            "--s", 0.0, "--b", 0.45, "--csv", csv,
        ) == 0
        assert csv.exists()
        assert run(
            "norms", "--in", trajectory, "--kind", "triple", "--window", 0.25
        ) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1].split("\t")[1])
        assert value > 0

    def test_unknown_kind(self, trajectory):
        assert run("norms", "--in", trajectory, "--kind", "sobolev") == 2

    def test_missing_file(self, tmp_path):
        assert run("norms", "--in", tmp_path / "no.traj", "--kind", "hs") == 3


class TestExperiments:
    def test_invariance_t_zero_passes(self, tmp_path, capsys):
        report = tmp_path / "inv.json"
        assert run(
            "experiment", "invariance", "--n", 4, "--samples", 200,
            "--t-compare", 0.0, "--out-json", report,
        ) == 0
        data = json.loads(report.read_text())
        assert data["experiment"] == "invariance"
        assert all(row["ks"] == 0.0 for row in data["results"]["observables"])
        assert "timestamps" not in data["manifest"]
        assert (tmp_path / "inv.json").exists()

    def test_tails_small_sample_exit_2(self):
        assert run(
            "experiment", "tails", "--n", 4, "--samples", 10, "--seed", 0
        ) == 2

    def test_ladder_duplicate_levels_exit_2(self):
        assert run("experiment", "ladder", "--n-values", "8,8,16") == 2

    def test_embeddings_report_and_baseline(self, tmp_path):
        base = tmp_path / "base.json"
        assert run(
            "experiment", "embeddings", "--clause", "i", "--n", 4,
            "--trials", 4, "--out-json", base,
        ) == 0
        assert run(
            "experiment", "embeddings", "--clause", "i", "--n", 8,
            "--trials", 4, "--baseline", base,
        ) == 0

    def test_embeddings_bad_clause(self):
        assert run("experiment", "embeddings", "--clause", "ix", "--trials", 2) == 2


class TestConfigFile:
    def test_resolution_order(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 4\nt_end = 0.1\ndt_record = 0.05\ndt = 1e-3\n")
        out = tmp_path / "cfg.traj"
        # file supplies everything but the flag overrides t_end
        assert run(
            "--config", config, "evolve", "--t-end", 0.05, "--out", out
        ) == 0
        manifest = pio.read_manifest(str(out) + ".manifest.json")
        snap = manifest["config_snapshot"]
        assert snap["n"] == 4
        assert snap["t_end"] == 0.05
