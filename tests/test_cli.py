import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ballnls
import ballnls.cli
from ballnls import experiments
from ballnls import io as pio
from ballnls.cli import _OPTIONS, main
from ballnls.measures import FreeMeasureSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(pio.CACHE_DIR_ENV, str(tmp_path / "cache"))


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """main's return value, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as err:
        return err.code


class TestTensorBuild:
    def test_build_and_rebuild_byte_identical(self, tmp_path):
        out = tmp_path / "tensor.bin"
        assert run("tensor-build", "--n-max", 4, "--out", out) == 0
        first = out.read_bytes()
        assert run("tensor-build", "--n-max", 4, "--out", out) == 0
        assert out.read_bytes() == first
        tensor, digest = pio.read_tensor_cache(out)
        assert len(tensor.values) == math.comb(4 + 3, 4)
        assert digest == hashlib.sha256(first).hexdigest()

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

    def test_wrong_cached_entries_exit_3(self, tmp_path, capsys):
        # an intact file whose entries are not the correlation coefficients
        tensor = ballnls.cli.build_tensor(4)
        wrong = dataclasses.replace(tensor, values=1.5 * tensor.values)
        pio.cache_dir().mkdir(parents=True)
        pio.write_tensor_cache(wrong, pio.default_cache_path(4))
        assert run(
            "evolve", "--n", 4, "--t-end", 0.01, "--dt", 1e-3,
            "--integrator", "reference", "--out", tmp_path / "a.traj",
        ) == 3
        assert "disagrees with the radial quadrature" in capsys.readouterr().err
        assert not (tmp_path / "a.traj").exists()

    def test_quad_order_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("tensor-build", "--n-max", 3, "--quad-order", 3)
        assert info.value.code == 2

    def test_recorded_hash_is_file_sha256(self, tmp_path):
        # one cache file, one hash: whether the evolve built the cache or
        # read it, the manifest records what sha256sum prints for it
        built = tmp_path / "tensor.bin"
        assert run("tensor-build", "--n-max", 4, "--out", built) == 0
        runs = [(built, built)]
        for name in ("miss", "hit"):
            out = tmp_path / f"{name}.traj"
            assert run(
                "evolve", "--n", 4, "--t-end", 0.002, "--dt", 1e-3,
                "--integrator", "reference", "--out", out,
            ) == 0
            runs.append((out, pio.default_cache_path(4)))
        for out, cache in runs:
            manifest = pio.read_manifest(str(out) + ".manifest.json")
            digest = hashlib.sha256(Path(cache).read_bytes()).hexdigest()
            assert manifest["tensor_cache_hash"] == digest, out


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
        assert "at t=0.01, sample 0: mass ratio" in err
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

    @pytest.mark.parametrize("t_end", ["0.04", "inf"])
    def test_span_not_whole_steps_exit_2(self, tmp_path, capsys, t_end):
        # 0.04 is less than half a step of 0.1: no step would run
        out = tmp_path / "c.traj"
        assert run(
            "evolve", "--n", 4, "--t-end", t_end, "--dt", 0.1,
            "--integrator", "collocation", "--out", out,
        ) == 2
        assert "t_end - t0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_modes_exit_2(self, tmp_path, capsys):
        assert run(
            "evolve", "--n", 0, "--t-end", 0.01, "--out", tmp_path / "z.traj"
        ) == 2
        assert "N must be >= 1" in capsys.readouterr().err

    def test_help_names_only_known_presets(self):
        for command, options in _OPTIONS.items():
            for dest, _typ, _default, help_text in options:
                if dest == "preset":
                    names = help_text.split(":", 1)[1].split("|")
                    for name in names:
                        FreeMeasureSpec.from_preset(name.strip(), 4)

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

    @staticmethod
    def edited_manifest(tmp_path, drop=(), **changes):
        """A collocation evolve run and its manifest with the snapshot
        entries in drop deleted and those in changes replaced."""
        out = tmp_path / "orig.traj"
        assert run(
            "evolve", "--n", 4, "--t-end", 0.01, "--dt", 1e-3,
            "--integrator", "collocation", "--out", out,
        ) == 0
        path = Path(str(out) + ".manifest.json")
        manifest = json.loads(path.read_text())
        snapshot = manifest["config_snapshot"]
        for key in drop:
            del snapshot[key]
        snapshot.update(changes)
        path.write_text(json.dumps(manifest))
        return out, path

    @pytest.mark.parametrize(
        "key, value", [("n", "abc"), ("t_end", "soon"), ("dt", True)]
    )
    def test_bad_snapshot_value_exit_2(self, tmp_path, capsys, key, value):
        _, path = self.edited_manifest(tmp_path, **{key: value})
        assert run("replay", "--manifest", path, "--out-dir", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    def test_old_tensor_build_manifest_replays(self, tmp_path):
        # manifests written while tensor-build had a quad_order option
        # carry it; replay ignores keys the command no longer has
        out = tmp_path / "tensor.bin"
        assert run("tensor-build", "--n-max", 3, "--out", out) == 0
        path = Path(str(out) + ".manifest.json")
        manifest = json.loads(path.read_text())
        manifest["config_snapshot"]["quad_order"] = 0
        path.write_text(json.dumps(manifest))
        replay_dir = tmp_path / "replayed"
        assert run("replay", "--manifest", path, "--out-dir", replay_dir) == 0
        assert (replay_dir / "tensor.bin").read_bytes() == out.read_bytes()

    def test_snapshot_text_and_missing_keys_resolve(self, tmp_path):
        # "4" converts as a config-file value would; a missing seed and a
        # null coupling take their defaults, which the original run used;
        # dt_record stays None
        out, path = self.edited_manifest(
            tmp_path, drop=("seed",), n="4", coupling=None
        )
        assert json.loads(path.read_text())["config_snapshot"]["dt_record"] is None
        replay_dir = tmp_path / "replayed"
        assert run("replay", "--manifest", path, "--out-dir", replay_dir) == 0
        assert (replay_dir / "orig.traj").read_bytes() == out.read_bytes()


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

    def test_negative_seed_exit_2(self, capsys):
        assert run(
            "experiment", "tails", "--norm-kind", "L4_x", "--n", 4,
            "--samples", 10000, "--seed", -1,
        ) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("embeddings", "--clause", "i"),
            ("invariance",),
            ("tails", "--norm-kind", "L4_x"),
            ("tails", "--norm-kind", "mixed"),
            ("tails", "--norm-kind", "xsb"),
        ],
    )
    def test_zero_modes_exit_2(self, args, capsys):
        assert run("experiment", *args, "--n", 0) == 2
        assert "N must be >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "args, record, extra",
        [
            (("invariance", "--n", 4, "--samples", 100, "--t-compare", 0),
             experiments.InvarianceReport, set()),
            (("tails", "--n", 4, "--samples", 10000),
             experiments.TailFit, set()),
            (("ladder", "--n-values", "4,8", "--t-end", 0.0625),
             experiments.ConvergenceLadder, set()),
            (("blocks", "--n", 8, "--samples", 1000, "--n2-values", "2,4"),
             experiments.BlockReport, set()),
            (("embeddings", "--clause", "i", "--n", 4, "--trials", 2),
             experiments.EmbeddingReport, {"max_ratio"}),
        ],
    )
    def test_report_results_are_the_record(self, tmp_path, args, record, extra):
        report = tmp_path / "report.json"
        assert run("experiment", *args, "--out-json", report) in (0, 4)
        results = json.loads(report.read_text())["results"]
        fields = {f.name for f in dataclasses.fields(record)}
        assert set(results) == fields | extra


class TestInvalidNumbers:
    EVOLVE = ("evolve", "--n", 4, "--t-end", 0.01, "--out", "x.traj")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (EVOLVE + ("--dt", "nan"), "argument --dt: invalid float value: 'nan'"),
            (EVOLVE + ("--t-end", "nan"), "argument --t-end"),
            (EVOLVE + ("--dt-record", "nan"), "argument --dt-record"),
            (EVOLVE + ("--measure", "gibbs", "--beta-q", "nan"),
             "argument --beta-q"),
            (EVOLVE + ("--coupling", "nan"), "argument --coupling"),
            (("experiment", "invariance", "--t-compare", "nan"),
             "argument --t-compare"),
            (("experiment", "invariance", "--dt", "nan"), "argument --dt"),
            (("experiment", "ladder", "--t-end", "nan"), "argument --t-end"),
            (("experiment", "tails", "--kappa-min", "nan"), "argument --kappa-min"),
            (("experiment", "ladder", "--dt", 0), "dt must be positive"),
            (EVOLVE + ("--dt", "inf"), "dt must be positive and finite"),
            (EVOLVE + ("--dt-record", "inf"), "dt_record must be finite"),
            (("experiment", "invariance", "--dt", "inf"), "dt must be positive and finite"),
            (("experiment", "ladder", "--t-end", "inf"), "t_end must be positive"),
            (("experiment", "ladder", "--t-end", 0), "t_end must be positive"),
            (("experiment", "ladder", "--t-end", -0.5), "t_end must be positive"),
            (EVOLVE + ("--measure", "gibbs", "--beta-q", "inf"),
             "beta_q must be finite"),
        ],
    )
    def test_exit_2_naming_the_option(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        assert exit_code(*argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.traj").exists()

    def test_inf_stays_legal(self, tmp_path, capsys):
        out = tmp_path / "run.traj"
        assert run(
            "evolve", "--n", 2, "--t-end", 0.01, "--dt", 1e-3,
            "--integrator", "collocation", "--out", out,
        ) == 0
        assert run("norms", "--in", out, "--kind", "mixed", "--q", "inf") == 0

    def test_p_inf_exit_2(self, tmp_path, capsys):
        # the radial integral's 1/p power made every trajectory's norm 1
        out = tmp_path / "run.traj"
        assert run(
            "evolve", "--n", 2, "--t-end", 0.01, "--dt", 1e-3,
            "--integrator", "collocation", "--out", out,
        ) == 0
        capsys.readouterr()
        assert exit_code("norms", "--in", out, "--kind", "mixed", "--p", "inf") == 2
        assert "p must be finite" in capsys.readouterr().err


class TestStartup:
    def test_cli_import_skips_scipy_integrate(self):
        # scipy.integrate serves only the quadrature oracle the tests call
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        code = "import sys, ballnls.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout
        assert out.strip() == "False"

    # setuptools' notice that [tool.setuptools] in pyproject.toml is beta
    @pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
    def test_package_version_single_source(self):
        from setuptools.config.pyprojecttoml import read_configuration

        pyproject = SRC.parent / "pyproject.toml"
        config = read_configuration(str(pyproject), expand=True)
        assert config["project"]["version"] == ballnls.__version__


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

    @pytest.mark.parametrize(
        "command, key, value",
        [
            (("evolve", "--t-end", 0.01, "--out", "x.traj"), "n", "abc"),
            (("experiment", "blocks"), "samples", "1e3"),
            # a misspelled key is refused, not silently ignored
            (("evolve", "--n", 2, "--t-end", 0.01, "--out", "x.traj"),
             "integrater", "collocation"),
            (("evolve", "--n", 2, "--t-end", 0.01, "--out", "x.traj"), "dt", "nan"),
        ],
    )
    def test_bad_value_type_exit_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {value}\n")
        assert run("--config", config, *command) == 2
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err


class TestBenchHooks:
    """The names and results that bench/tracer.py wraps and reads."""

    def test_gibbs_evolve_under_tracer(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        from tracer import Tracer

        spans = {}
        for integrator in ("reference", "collocation"):
            argv = (
                "evolve", "--n", 4, "--t-end", 0.002, "--dt", 1e-3,
                "--measure", "gibbs", "--integrator", integrator,
                "--out", tmp_path / f"{integrator}.traj",
            )
            with Tracer() as tracer:
                assert ballnls.cli.main([str(a) for a in argv]) == 0
            assert tracer.counts["measures.sample_gibbs.attempts"] >= 1
            spans[integrator] = {span[0] for span in tracer.spans}
        # the reference run wrote a tensor cache; the collocation run ignores it
        assert "io.write_tensor_cache" in spans["reference"]
        assert "io.read_tensor_cache" not in spans["collocation"]
        assert "basis.build_tensor" not in spans["collocation"]

    def test_kernel_sweep_runs(self, monkeypatch):
        # the sweep calls step_reference, step_collocation, evolve_batch,
        # quartic_form and mixed_norm_matrix with the benchmark's arguments
        monkeypatch.syspath_prepend(str(BENCH))
        from sweep import sweep

        result = sweep(1, (4,))
        kernels = (
            "tensor_setup", "step_reference", "step_collocation",
            "evolve_batch_rk4", "evolve_batch_strang", "quartic_form",
            "mixed_norm_matrix",
        )
        timed = {f"sweep.{kernel}.n4.s" for kernel in kernels}
        assert {key for key in result if key.endswith(".n4.s")} == timed
        assert all(result[key] > 0 for key in timed)
