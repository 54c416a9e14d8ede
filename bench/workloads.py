"""The benchmark's workloads: the ``ballnls`` command lines each one runs.

A workload is a list of set-up commands (timed as part of ``setup_s``), a
list of timed commands (summed into ``wall_s``) and the data artifacts
whose SHA-256 must repeat on every run of one code.  Commands run with the
working directory set to a fresh per-run temp directory, so every path
here is relative and the report JSONs, whose manifests record those paths,
stay byte-identical from run to run.

``size="smoke"`` gives the smallest valid form of each workload, used by
the self-tests; the driver always runs ``size="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Acceptance seeds: criterion 04, the README evolve example, criterion 07
# and criterion 09.
DEFAULT_SEEDS = {
    "invariance-n8": 404,
    "evolve-n32": 7,
    "tails-l4-n64": 707,
    "embeddings-n64": 909,
}

# evolve-n32 steps with dt = dt_record = 1/(16 * 32^2), which keeps the
# mixed-norm sampling precondition dt_record <= 1/(16 N^2) at N <= 32.
# Both are powers of two, so t_end = steps * dt is exact in binary.
EVOLVE_DT = 1.0 / 16384
EVOLVE_STEPS = {"full": 128, "smoke": 16}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    timed: tuple
    artifacts: tuple
    # the criterion 01/02 bounds, checked on the written trajectories
    bound_checks: bool = False


def _argv(*parts) -> tuple:
    return tuple(str(p) for p in parts)


def _invariance(seed: int, size: str) -> Workload:
    n, samples = (8, 2000) if size == "full" else (4, 100)
    return Workload(
        name="invariance-n8",
        setup=(),
        timed=(
            _argv(
                "experiment", "invariance", "--n", n, "--samples", samples,
                "--t-compare", 0.5 if size == "full" else 0.01,
                "--seed", seed, "--out-json", "inv.json", "--out-csv", "inv.csv",
            ),
        ),
        artifacts=("inv.json", "inv.csv"),
    )


def _evolve(seed: int, size: str) -> Workload:
    n = 32 if size == "full" else 4
    t_end = EVOLVE_STEPS[size] * EVOLVE_DT
    common = (
        "evolve", "--n", n, "--t-end", repr(t_end), "--dt", repr(EVOLVE_DT),
        "--dt-record", repr(EVOLVE_DT), "--measure", "gibbs", "--seed", seed,
    )
    timed = []
    for integrator in ("reference", "collocation"):
        traj = f"{integrator}.traj"
        timed.append(_argv(*common, "--integrator", integrator, "--out", traj))
    for integrator in ("reference", "collocation"):
        timed.append(
            _argv(
                "norms", "--in", f"{integrator}.traj", "--kind", "mixed",
                "--p", 4, "--q", 4, "--csv", f"{integrator}-mixed.csv",
            )
        )
    return Workload(
        name="evolve-n32",
        setup=(_argv("tensor-build", "--n-max", n),),
        timed=tuple(timed),
        artifacts=(
            f"cache/tensor-n{n}-q0.bin",
            "reference.traj",
            "collocation.traj",
            "reference-mixed.csv",
            "collocation-mixed.csv",
        ),
        bound_checks=True,
    )


def _tails(seed: int, size: str) -> Workload:
    n, samples = (64, 100000) if size == "full" else (8, 10000)
    return Workload(
        name="tails-l4-n64",
        setup=(),
        timed=(
            _argv(
                "experiment", "tails", "--norm-kind", "L4_x", "--n", n,
                "--samples", samples, "--measure", "free", "--seed", seed,
                "--out-json", "tails.json", "--out-csv", "tails.csv",
            ),
        ),
        artifacts=("tails.json", "tails.csv"),
    )


def _embeddings(seed: int, size: str) -> Workload:
    n = 64 if size == "full" else 4
    trials = {"i": 8, "iii": 3} if size == "full" else {"i": 1, "iii": 1}
    timed = tuple(
        _argv(
            "experiment", "embeddings", "--clause", clause, "--n", n,
            "--trials", count, "--seed", seed,
            "--out-json", f"emb-{clause}.json", "--out-csv", f"emb-{clause}.csv",
        )
        for clause, count in trials.items()
    )
    return Workload(
        name="embeddings-n64",
        setup=(),
        timed=timed,
        artifacts=tuple(
            f"emb-{clause}.{ext}" for clause in trials for ext in ("json", "csv")
        ),
    )


_BUILDERS = {
    "invariance-n8": _invariance,
    "evolve-n32": _evolve,
    "tails-l4-n64": _tails,
    "embeddings-n64": _embeddings,
}

NAMES = tuple(_BUILDERS)


def workload(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r} (have {', '.join(NAMES)})")
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[name](int(seed), size)
