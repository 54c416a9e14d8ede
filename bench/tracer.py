"""Span tracer that times the ``ballnls`` layers from outside the package.

``Tracer.install()`` replaces, in each of the seven modules, every function
that the module imports from another ``ballnls`` module, plus the module's
own public functions and a few private names and methods that mark a layer
boundary.  Each wrapper records a span (name, start, end, parent) in memory
and calls the original; ``uninstall()`` puts every original back.  Span
names are ``<defining module>.<function>``, so a call is charged to the
layer that does the work whichever module made it.

Counts that a span cannot give (rows sampled, rejection attempts, steps,
bytes moved) come from hooks that read a wrapped call's arguments and
result.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import time

MODULES = ("basis", "measures", "dynamics", "norms", "experiments", "io", "cli")

# Private functions that other layers call (experiments imports
# measures._quartic_batch) and functions that are only called from inside
# their own module but are layers of their own in the tables.
EXTRA_NAMES = {
    "measures": ("_quartic_batch",),
    "experiments": ("random_spectrum",),
    "cli": ("main",),
}
# (module, class, method): methods wrapped on the class.
METHODS = (("basis", "CorrelationTensor", "contraction_matrix"),)


def _short(module_name: str) -> str | None:
    head, _, tail = module_name.rpartition(".")
    return tail if head == "ballnls" and tail in MODULES else None


def _arg(bound, name):
    return bound.arguments.get(name)


def _evolve_batch(c, bound, result):
    config = _arg(bound, "config")
    t0 = _arg(bound, "t0")
    t_end = _arg(bound, "t_end")
    steps = max(0, int(round((t_end - t0) / config.dt)))
    samples = len(_arg(bound, "coeffs"))
    c["dynamics.sample_steps"] += steps * samples
    # one batched nonlinear evaluation per RK4 stage, one per Strang step
    c["dynamics.rhs_evals"] += steps * (4 if config.method == "reference_rk4" else 1)


def _sample_gibbs_batch(c, bound, result):
    count = _arg(bound, "count")
    c["measures.sample_gibbs_batch.rows"] += count
    c["measures.sample_gibbs_batch.attempts"] += int(round(count / result[2]))


def _file_read(c, bound, result):
    c["io.bytes_read"] += os.path.getsize(next(iter(bound.arguments.values())))


HOOKS = {
    "dynamics.evolve_batch": _evolve_batch,
    "measures.sample_free_batch": lambda c, b, r: c.update(
        {"measures.sample_free_batch.rows": _arg(b, "count")}
    ),
    "measures.sample_gibbs_batch": _sample_gibbs_batch,
    "measures.sample_gibbs": lambda c, b, r: c.update(
        {"measures.sample_gibbs.attempts": r.attempts}
    ),
    # computed, not measured: the dense tensor and its contraction matrix,
    # N^4 float64 values each
    "basis.contraction_matrix": lambda c, b, r: c.__setitem__(
        "basis.tensor_bytes",
        max(c["basis.tensor_bytes"], 2 * 8 * _arg(b, "N") ** 4),
    ),
    "io.atomic_write_bytes": lambda c, b, r: c.update(
        {"io.bytes_written": len(_arg(b, "payload"))}
    ),
    "io.read_tensor_cache": _file_read,
    "io.read_trajectory": _file_read,
    "io.read_manifest": _file_read,
    "io.file_sha256": _file_read,
    "io.parse_config_file": _file_read,
}


class Tracer:
    """Wraps the ballnls layer boundaries and records spans in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = collections.Counter()
        self._stack = []
        self._originals = []  # (owner, attribute, original object)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            module = importlib.import_module(f"ballnls.{short}")
            own = set(getattr(module, "__all__", ())) | set(EXTRA_NAMES.get(short, ()))
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                origin = _short(value.__module__)
                if origin is not None and origin != short:
                    self._wrap(module, attr, f"{origin}.{value.__name__}")
                elif origin == short and attr in own:
                    self._wrap(module, attr, f"{short}.{attr}")
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"ballnls.{short}"), cls_name)
            self._wrap(cls, method, f"{short}.{method}")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, owner, attr, name) -> None:
        original = vars(owner)[attr]
        hook = HOOKS.get(name)
        signature = inspect.signature(original) if hook else None
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, signature.bind(*args, **kwargs), result)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def summary(self) -> dict:
        """Per-name busy seconds, self seconds and calls, plus the counts.

        ``<name>.s`` sums each span's duration, ``<name>.self_s`` the same
        minus the time covered by its direct children, ``layer.<module>.
        self_s`` the self time of every span of that module, and
        ``trace.spanned_s`` the time covered by top-level spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.defaultdict(float)
        for (name, start, end, parent), children in zip(self.spans, child_time):
            busy = end - start
            out[f"{name}.s"] += busy
            out[f"{name}.self_s"] += busy - children
            out[f"{name}.calls"] += 1
            out[f"layer.{name.split('.', 1)[0]}.self_s"] += busy - children
            if parent < 0:
                out["trace.spanned_s"] += busy
        out.update(self.counts)
        if self.counts["measures.sample_gibbs_batch.attempts"]:
            out["measures.sample_gibbs_batch.acceptance_rate"] = (
                self.counts["measures.sample_gibbs_batch.rows"]
                / self.counts["measures.sample_gibbs_batch.attempts"]
            )
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
