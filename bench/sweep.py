"""N-sweep of single kernels, run as its own process by ``run.py --trace 1``.

    python bench/sweep.py ROOT SEED SIZE RESULT_JSON

At each N it times the tensor set-up (``build_tensor`` plus the dense
contraction matrix) once, and the median of three calls of: one RK4 step
and one Strang step of a single state, one RK4 step and one Strang step of
a fixed ensemble batch through ``evolve_batch`` (the only place batched
Strang is measured), the tensor quartic form, and the mixed-norm kernel on
a fixed record count.  N = 128 is not run: its dense tensor and contraction
matrix would take 2 * 128^4 * 8 bytes, about 4.3 GB; the sweep records
that figure beside the machine's RAM instead.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SIZES = {"full": (8, 16, 32, 64), "smoke": (4, 8)}
SKIPPED_N = 128
BATCH = 128  # ensemble rows of the evolve_batch timings
RECORDS = 256  # time samples of the mixed_norm_matrix timing
REPEATS = 3


def tensor_bytes(N: int) -> int:
    """The dense (N, N, N, N) tensor plus its (N^2, N^2) contraction matrix."""
    return 2 * 8 * N**4


def ram_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    return 0


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sweep(seed: int, sizes) -> dict:
    from ballnls.basis import build_tensor, quartic_form, rule_for_modes
    from ballnls.dynamics import (
        IntegratorConfig,
        default_dt,
        evolve_batch,
        step_collocation,
        step_reference,
    )
    from ballnls.measures import FreeMeasureSpec, RngStream, sample_free, sample_free_batch
    from ballnls.norms import mixed_norm_matrix

    out = {}
    for N in sizes:
        start = time.perf_counter()
        tensor = build_tensor(N)
        tensor.contraction_matrix(N)
        out[f"sweep.tensor_setup.n{N}.s"] = time.perf_counter() - start
        out[f"sweep.tensor_bytes.n{N}"] = tensor_bytes(N)

        spec = FreeMeasureSpec.derived(N)
        rng = RngStream(seed)
        state = sample_free(spec, rng)
        batch = sample_free_batch(spec, rng.child(1), BATCH)
        records = sample_free_batch(spec, rng.child(1 + BATCH), RECORDS)
        dt = default_dt(N)
        rk4 = IntegratorConfig(method="reference_rk4", dt=dt)
        strang = IntegratorConfig(method="collocation_split", dt=dt)
        rule = rule_for_modes(4 * N)
        dt_record = 1.0 / (16 * N * N)
        kernels = {
            "step_reference": lambda: step_reference(state, rk4, tensor),
            "step_collocation": lambda: step_collocation(state, strang),
            "evolve_batch_rk4": lambda: evolve_batch(batch, 0.0, dt, rk4, tensor=tensor),
            "evolve_batch_strang": lambda: evolve_batch(batch, 0.0, dt, strang),
            "quartic_form": lambda: quartic_form(state.coeffs, tensor),
            "mixed_norm_matrix": lambda: mixed_norm_matrix(
                records, dt_record, 4.0, 4.0, rule
            ),
        }
        for kernel, fn in kernels.items():
            out[f"sweep.{kernel}.n{N}.s"] = _median_time(fn)
    out[f"sweep.skipped.n{SKIPPED_N}"] = 1
    out[f"sweep.tensor_bytes.n{SKIPPED_N}"] = tensor_bytes(SKIPPED_N)
    out["sweep.ram_bytes"] = ram_bytes()
    return out


def main(argv) -> int:
    root, seed, size, result_path = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from child import import_package

    import_package(Path(root))
    result = {"sweep": sweep(int(seed), SIZES[size])}
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
