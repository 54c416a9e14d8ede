"""Fixed-seed benchmark of the ballnls command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py            # every workload at its acceptance seed

Run from the repository root.  One run starts fresh Python processes, one
at a time (``child.py``), until S seconds have passed; each imports
``ballnls`` from ``src/`` and calls ``ballnls.cli.main(argv)`` for every
command of the workload (``workloads.py``) inside its own temp directory
under ``.bench_runs/``.  The end-to-end metrics of ``BENCHMARK.json`` are
medians over the untraced processes:

* ``setup_s``: interpreter start, ``import ballnls.cli`` and the workload's
  set-up commands;
* ``wall_s``: the timed commands;
* ``peak_rss_mb``: the process's peak resident set.

With ``--trace 1`` untraced and traced processes alternate; the traced ones
wrap every cross-layer call (``tracer.py``) and give the per-layer metrics,
the tracing overhead against the untraced median is reported, and one more
process runs the kernel N-sweep (``sweep.py``).

Every run checks its outputs: each command's exit code is recorded (any
nonzero exit counts as failed; exit 4, an experiment's statistical verdict,
still counts as a correct output), evolve-n32 holds the criterion 01 and 02
bounds, and every data artifact has the same SHA-256 in every process of
the run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment block, goes to ``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEEDS, NAMES  # noqa: E402

# A run must end within 180 s; no process is started past this budget.
BUDGET_S = 170.0
# Time kept free for the N-sweep process of a traced run (about 25 s here).
SWEEP_RESERVE_S = 60.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """BLAS and OpenMP threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            env[var] = str(cap)
    env["BALLNLS_CACHE_DIR"] = "cache"  # relative to each process's temp dir
    return env


def _read_first(path: Path, prefix: str = "") -> str | None:
    try:
        for line in path.read_text("ascii").splitlines():
            if line.startswith(prefix):
                return line[len(prefix):].strip()
    except OSError:
        return None
    return None


def l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read_first(index / "level") == "3":
            return _read_first(index / "size")
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """One digest over src/, so runs of one code can be matched without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "ram": _read_first(Path("/proc/meminfo"), "MemTotal:"),
        "l3_size": l3_size(),
        "loadavg_at_start": os.getloadavg(),
    }


class Runner:
    """Starts benchmark processes one at a time and collects their results."""

    def __init__(self, env: dict, started: float):
        self.env = env
        self.started = started
        (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
        (RUNS / "results").mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def spawn(self, script: str, args, keep: str | None = None) -> dict:
        """Run bench/<script> in a fresh temp dir; its result plus timing."""
        tmp = Path(tempfile.mkdtemp(dir=RUNS / "tmp"))
        try:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / script), *map(str, args), "result.json"],
                    cwd=tmp, env=self.env, capture_output=True, text=True,
                    timeout=max(1.0, self.remaining()),
                )
            except subprocess.TimeoutExpired as err:
                raise BenchError(f"{script} {' '.join(map(str, args))}: timed out") from err
            result_file = tmp / "result.json"
            if proc.returncode != 0 or not result_file.is_file():
                raise BenchError(
                    f"{script} {' '.join(map(str, args))} exited {proc.returncode}:\n"
                    + (proc.stdout + proc.stderr)[-2000:]
                )
            result = json.loads(result_file.read_text("utf-8"))
            if "setup_done" in result:
                result["setup_s"] = result.pop("setup_done") - spawned
            if keep is not None:
                for name in ("cli.log", "spans.tsv"):
                    if (tmp / name).is_file():
                        shutil.copyfile(tmp / name, RUNS / "results" / f"{keep}.{name}")
            return result
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def warm_up(self) -> None:
        """Compile and page in the package once, so no process pays it alone."""
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import ballnls.cli"],
            cwd=RUNS / "tmp", env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.remaining()),
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import ballnls.cli:\n{proc.stderr[-2000:]}")


def _median(values):
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    if not (ROOT / "src" / "ballnls" / "__init__.py").is_file():
        raise BenchError(f"no ballnls package under {ROOT / 'src'}")
    spec = load_spec()
    started = time.monotonic()
    env = child_env()
    runner = Runner(env, started)
    runner.warm_up()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    children = []
    while True:
        traced = trace and len(children) % 2 == 1
        children.append(
            runner.spawn(
                "child.py", (ROOT, name, seed, size, int(traced)),
                keep=stem if traced or not trace else None,
            )
        )
        elapsed = time.monotonic() - started
        longest = max(c["setup_s"] + c["wall_s"] for c in children)
        if trace and len(children) < 2:
            continue
        reserve = 2 * longest + (SWEEP_RESERVE_S if trace else 0.0)
        if elapsed >= seconds or runner.remaining() < reserve:
            break

    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    problems = [p for c in children for p in c["problems"]]
    digests = {json.dumps(c["digests"], sort_keys=True) for c in children}
    if len(digests) > 1:
        problems.append("artifacts differ between processes of one run")
    codes = [code for c in children for code in c["exit_codes"]]
    e2e = {
        "setup_s": _median([c["setup_s"] for c in untraced]),
        "wall_s": _median([c["wall_s"] for c in untraced]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
    }
    layers = {}
    if trace:
        for key in set().union(*(c["trace"] for c in traced)):
            layers[key] = _median([c["trace"].get(key, 0.0) for c in traced])
        layers.update(children[0]["checks"])
        layers["trace.overhead_frac"] = (
            _median([c["wall_s"] for c in traced]) / e2e["wall_s"] - 1.0
        )
        layers.update(runner.spawn("sweep.py", (ROOT, seed, size))["sweep"])
    # a layer the workload never calls reports 0
    values, wanted = (layers, spec["per_layer"]) if trace else (e2e, spec["end_to_end"])
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "environment": dict(environment(env), **children[0]["environment"]),
        "correct": all(c["correct"] for c in children) and len(digests) == 1,
        "attempted": len(codes),
        "failed": sum(1 for code in codes if code != 0),
        "exit_codes": codes,
        "problems": problems,
        "end_to_end": e2e,
        "layers": layers,
        "children": [
            {k: c[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "exit_codes")}
            for c in children
        ],
        "digests": children[0]["digests"],
        "metrics": metrics,
    }
    (RUNS / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return record


def report(record: dict) -> None:
    """Human-readable lines for one run."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for c in record["children"]:
        print(
            f"process traced={int(c['traced'])} setup_s={c['setup_s']:.4f} "
            f"wall_s={c['wall_s']:.4f} peak_rss_mb={c['peak_rss_mb']:.1f} "
            f"exit_codes={c['exit_codes']}"
        )
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"ops_failed_frac = {frac:.6g} ({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (args.workload,) if args.workload else NAMES
    records = {}
    try:
        for name in names:
            seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
            records[name] = run_workload(name, seed, args.seconds, bool(args.trace))
            report(records[name])
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    summaries = {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in records.items()
    }
    print(json.dumps(summaries[args.workload] if args.workload else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
