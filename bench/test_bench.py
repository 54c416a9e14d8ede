"""Self-tests of the benchmark; run with ``python3 -m pytest bench``.

They run every workload at its smallest size, untraced and traced, so
they take under a minute.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import METHODS, MODULES, Tracer  # noqa: E402
from workloads import NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = run.load_spec()


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, traced) -> record of one smoke-size run."""
    return {
        (name, traced): run.run_workload(name, 1, 0, traced, size="smoke")
        for name in NAMES
        for traced in (False, True)
    }


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(smoke_runs, name):
    record = smoke_runs[(name, False)]
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())
    traced = smoke_runs[(name, True)]
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_artifacts_byte_identical(smoke_runs, name):
    assert smoke_runs[(name, True)]["digests"] == smoke_runs[(name, False)]["digests"]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_traced_wall(smoke_runs, name):
    layers = smoke_runs[(name, True)]["layers"]
    self_total = sum(layers.get(f"layer.{m}.self_s", 0.0) for m in MODULES)
    assert self_total == pytest.approx(layers["trace.spanned_s"], rel=1e-9)
    assert layers["trace.spanned_s"] + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9
    )


def _bindings():
    import importlib

    out = {}
    for short in MODULES:
        module = importlib.import_module(f"ballnls.{short}")
        out.update({(short, k): v for k, v in vars(module).items()})
    for short, cls_name, _ in METHODS:
        cls = getattr(importlib.import_module(f"ballnls.{short}"), cls_name)
        out.update({(cls_name, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_restores_every_wrapped_name(tmp_path, monkeypatch):
    sys.path.insert(0, str(run.ROOT / "src"))
    import ballnls.cli

    before = _bindings()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BALLNLS_CACHE_DIR", "cache")
    with Tracer() as tracer:
        assert ballnls.cli.main is not before[("cli", "main")]
        argv = "evolve --n 3 --t-end 0.01 --dt 0.005 --seed 1 --out a.traj".split()
        assert ballnls.cli.main(argv) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "dynamics.evolve", "dynamics.evolve_batch", "io.write_trajectory"} <= names


def test_metric_names_are_plain(smoke_runs):
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    declared += [w["name"] for w in SPEC["workloads"]]
    assert len(declared) == len(set(declared))
    produced = {k for record in smoke_runs.values() for k in record["layers"]}
    for name in declared + sorted(produced):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64, name


def test_every_per_layer_metric_is_produced(smoke_runs):
    produced = {k for record in smoke_runs.values() for k in record["layers"]}
    # the smoke sweep runs N = 4 and 8 only; names at other N follow the same form
    missing = [
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in produced
        and not (m["name"].startswith("sweep.") and re.search(r"\.n(16|32|64|128)\b", m["name"]))
    ]
    assert not missing


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
