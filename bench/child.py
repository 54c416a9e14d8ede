"""One benchmark process: import ballnls, set up, run the timed commands.

    python bench/child.py ROOT WORKLOAD SEED SIZE TRACE RESULT_JSON

runs with the working directory set to a fresh temp directory.  It calls
``ballnls.cli.main(argv)`` for each command of the workload, sending the
commands' own output to ``cli.log``, then checks the outputs and writes
RESULT_JSON.  ``run.py`` starts it; it is not meant to be run by hand.

Times come from ``time.monotonic()``, which on Linux is one system-wide
clock, so the parent can take ``setup_s`` from the moment it started this
process to the ``setup_done`` stamp written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# criterion 01 (reference conservation) and criterion 02 (cross-validation)
BOUNDS = {
    "dynamics.mass_drift.reference": 1e-8,
    "dynamics.energy_drift.reference": 1e-6,
    "dynamics.crossval_diff": 1e-6,
}


def import_package(root: Path):
    """Import ballnls.cli from ROOT/src and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "ballnls" / "__init__.py").is_file():
        raise SystemExit(f"no ballnls package under {src}")
    sys.path.insert(0, str(src))
    import ballnls.cli

    if not Path(ballnls.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported ballnls from {ballnls.cli.__file__}, not {src}")
    return ballnls.cli


def run_command(cli, argv, log) -> int:
    """Exit code of one CLI call; a traceback counts as exit 1."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        print("$ ballnls " + " ".join(argv))
        try:
            return int(cli.main(list(argv)))
        except SystemExit as err:  # argparse rejects its input this way
            return err.code if isinstance(err.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=log)
            return 1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""


def evolve_checks() -> dict:
    """Drifts and endpoint difference read back from the written trajectories."""
    import ballnls.io as pio
    import numpy as np

    out = {}
    ends = {}
    for integrator in ("reference", "collocation"):
        traj = pio.read_trajectory(f"{integrator}.traj")
        for quantity, log in (("mass", traj.mass_log), ("energy", traj.energy_log)):
            out[f"dynamics.{quantity}_drift.{integrator}"] = float(
                np.max(np.abs(np.asarray(log) / log[0] - 1.0))
            )
        ends[integrator] = traj.states[-1].coeffs
    out["dynamics.crossval_diff"] = float(
        np.max(np.abs(ends["reference"] - ends["collocation"]))
    )
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    root, name, seed, size, trace, result_path = argv
    root = Path(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import MODULES, Tracer
    from workloads import workload

    cli = import_package(root)
    work = workload(name, int(seed), size)
    tracer = Tracer() if trace == "1" else None
    codes = []
    with open("cli.log", "w", encoding="utf-8") as log, tracer or contextlib.nullcontext():
        traced_from = time.perf_counter()
        for command in work.setup:
            codes.append(run_command(cli, command, log))
        setup_done = time.monotonic()
        start, cpu_start = time.perf_counter(), time.process_time()
        for command in work.timed:
            codes.append(run_command(cli, command, log))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        traced_wall = time.perf_counter() - traced_from
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [
        f"exit {code} from: ballnls {' '.join(cmd)}"
        for code, cmd in zip(codes, work.setup + work.timed)
        if code != 0
    ]
    # exit 4 is an experiment's statistical verdict, not a wrong output
    crashed = any(code not in (0, 4) for code in codes)
    checks = evolve_checks() if work.bound_checks and not crashed else {}
    out_of_bounds = [
        f"{name}={checks[name]:.3g} exceeds {bound:g}"
        for name, bound in BOUNDS.items()
        if name in checks and not checks[name] <= bound
    ]
    digests = {path: sha256(Path(path)) for path in work.artifacts}
    missing = [path for path, digest in digests.items() if not digest]
    problems += out_of_bounds + [f"missing artifact {path}" for path in missing]

    result = {
        "workload": name,
        "seed": int(seed),
        "traced": tracer is not None,
        "exit_codes": codes,
        "correct": not (crashed or missing or out_of_bounds),
        "problems": problems,
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digests": digests,
        "environment": environment(),
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["trace.wall_s"] = traced_wall
        summary["trace.unattributed_s"] = traced_wall - summary.get("trace.spanned_s", 0.0)
        for module in MODULES:
            summary[f"layer.{module}.share"] = (
                summary.get(f"layer.{module}.self_s", 0.0) / traced_wall
            )
        result["trace"] = summary
        tracer.write_spans("spans.tsv")
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
