"""Command-line entry point.

Exit codes: 0 success, 2 usage/configuration, 3 runtime/numerics,
4 assertion failure (an experiment threshold did not hold).

Config resolution order: built-in defaults < config file (`key = value`
lines) < command-line flags.  Every command that writes a file writes one
``<output>.manifest.json`` beside its first output, with the fully resolved
snapshot; ``ballnls replay --manifest ...`` re-runs the command from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .basis import build_tensor, quartic_form, rule_for_modes
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    _step_counts,
    default_dt,
    evolve,
)
from .errors import (
    BallNlsError,
    BlowUpError,
    DomainError,
    RuntimeFailure,
    StorageError,
    UsageError,
)
from .experiments import (
    run_block_observables,
    run_convergence_ladder,
    run_embedding_study,
    run_invariance,
    run_tail_experiment,
)
from .measures import (
    FreeMeasureSpec,
    RngStream,
    quartic_norm_quadrature,
    sample_free,
    sample_gibbs,
)
from .norms import (
    NormParams,
    hs_norm,
    mixed_norm,
    spectrum_from_trajectory,
    triple_norm_upper,
    xsb_norm,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_ASSERTION = 4


class AssertionFailure(BallNlsError):
    """An experiment's acceptance threshold did not hold."""


# ---------------------------------------------------------------------------
# Option tables: (dest, type, default, help).  A single source of truth so
# config files, flags, and manifests resolve identically.


def _FLOAT(text) -> float:
    """A float option's value: NaN is refused; inf is kept, because
    `norms --q inf` is the sup norm.  ArgumentTypeError keeps argparse's
    message the one it gives for any other bad float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


_INT = int
_STR = str

# what _finish reads; every experiment's table ends with these
_REPORT_OPTIONS = [
    ("seed", _INT, 0, "master seed"),
    ("out_json", _STR, None, "report path"),
    ("out_csv", _STR, None, "CSV extract path"),
]


_OPTIONS = {
    "tensor-build": [
        ("n_max", _INT, None, "tensor index cutoff (required)"),
        ("out", _STR, None, "output path (default: cache directory)"),
    ],
    "evolve": [
        ("n", _INT, None, "mode truncation (required)"),
        ("t_end", _FLOAT, None, "final model time (required)"),
        ("dt", _FLOAT, None, "time step (default: min(1e-3, 0.1/(2 pi N^2)), "
         "or the largest whole fraction of dt_record, else t_end, below it)"),
        ("dt_record", _FLOAT, None, "recording interval"),
        ("integrator", _STR, "reference", "reference | collocation"),
        ("seed", _INT, 0, "master seed"),
        ("measure", _STR, "free", "free | gibbs initial data"),
        ("preset", _STR, "derived", "sigma preset: derived | paper"),
        ("beta_q", _FLOAT, 0.25, "quartic inverse temperature (gibbs)"),
        ("coupling", _FLOAT, 1.0, "nonlinear coupling strength"),
        ("out", _STR, None, "trajectory output path (required)"),
    ],
    "invariance": [
        ("n", _INT, 8, "mode truncation"),
        ("samples", _INT, 2000, "ensemble size"),
        ("t_compare", _FLOAT, 0.5, "comparison time"),
        ("beta_q", _FLOAT, 0.25, "quartic inverse temperature"),
        ("preset", _STR, "derived", "sigma preset: derived | paper"),
        ("dt", _FLOAT, 1e-3, "integrator step"),
    ]
    + _REPORT_OPTIONS,
    "tails": [
        ("norm_kind", _STR, "L4_x", "L4_x | mixed | xsb"),
        ("n", _INT, 64, "mode truncation"),
        ("samples", _INT, 100000, "ensemble size (>= 10^4)"),
        ("measure", _STR, "free", "free | gibbs"),
        ("kappa_min", _FLOAT, 1.5, "asserted lower bound on the exponent"),
    ]
    + _REPORT_OPTIONS,
    "ladder": [
        ("n_values", _STR, "8,16,32,64", "comma-separated dyadic truncations"),
        ("s", _FLOAT, 0.4, "Sobolev index (< 1/2)"),
        ("t_end", _FLOAT, 0.5, "final model time"),
        ("dt", _FLOAT, None, "time step"),
        ("integrator", _STR, "collocation", "reference | collocation"),
    ]
    + _REPORT_OPTIONS,
    "blocks": [
        ("n", _INT, 32, "mode truncation"),
        ("samples", _INT, 1000, "ensemble size (>= 10^3)"),
        ("n2_values", _STR, "4,8,16", "comma-separated chaos block sizes"),
    ]
    + _REPORT_OPTIONS,
    "embeddings": [
        ("clause", _STR, "i", "Lemma-4 clause id: i | iii | vii"),
        ("n", _INT, 32, "spectrum truncation"),
        ("trials", _INT, 100, "random spectra per run"),
        ("baseline", _STR, None, "report JSON from a smaller-N run"),
    ]
    + _REPORT_OPTIONS,
    "norms": [
        ("infile", _STR, None, "trajectory file (required)"),
        ("kind", _STR, None, "hs | mixed | xsb | triple (required)"),
        ("s", _FLOAT, 0.0, "Sobolev index"),
        ("b", _FLOAT, 0.0, "modulation index"),
        ("p", _FLOAT, 2.0, "spatial exponent"),
        ("q", _FLOAT, 2.0, "temporal exponent"),
        ("window", _FLOAT, 0.25, "triple-norm window length T"),
        ("taper", _STR, "none", "spectrum taper: none | smooth"),
        ("csv", _STR, None, "optional CSV output"),
    ],
}

_EXPERIMENTS = ("invariance", "tails", "ladder", "blocks", "embeddings")


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    for dest, typ, _default, help_text in _OPTIONS[command]:
        flag = "--" + ("in" if dest == "infile" else dest).replace("_", "-")
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)


def _typed(command: str, values: dict, source: str) -> dict:
    """Every option of command: its entry in values, read as text and
    converted to the option's type, or its default when the entry is
    missing or None.

    UsageError naming source and the key when an entry does not convert.
    """
    resolved = {}
    for dest, typ, default, _help in _OPTIONS[command]:
        value = values.get(dest)
        if value is None:
            value = default
        else:
            try:
                value = typ(str(value))
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise UsageError(
                    f"{source}: bad value {value!r} for {dest!r}"
                ) from err
        resolved[dest] = value
    return resolved


def _resolve(command: str, args, config_file_values: dict) -> dict:
    """Defaults < config file < flags; a config-file key that command has
    no option for is a UsageError (replayed manifests skip such keys)."""
    source = f"config file {args.config}"
    unknown = set(config_file_values) - {dest for dest, *_ in _OPTIONS[command]}
    if unknown:
        names = ", ".join(map(repr, sorted(unknown)))
        raise UsageError(f"{source}: {command} has no option {names}")
    resolved = _typed(command, config_file_values, source)
    for dest in resolved:
        cli_value = getattr(args, dest, None)
        if cli_value is not None:
            resolved[dest] = cli_value
    return resolved


def _require(cfg: dict, command: str, *keys):
    for key in keys:
        if cfg.get(key) is None:
            raise UsageError(f"{command}: --{key.replace('_', '-')} is required")


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in str(text).split(","))
    except ValueError as err:
        raise UsageError(f"bad integer list {text!r}") from err
    if len(values) != len(set(values)):
        raise UsageError(f"duplicate entries in {text!r}")
    return values


def _integrator_method(name: str) -> str:
    table = {
        "reference": "reference_rk4",
        "reference_rk4": "reference_rk4",
        "collocation": "collocation_split",
        "collocation_split": "collocation_split",
    }
    if name not in table:
        raise UsageError(f"unknown integrator {name!r}")
    return table[name]


def _json_ready(obj):
    """obj as JSON values: a dataclass record as the dict of its fields,
    a NamedTuple row as the dict of its fields, arrays as lists."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    elif hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_report(path, command, results):
    report = {
        "schema_version": pio.SCHEMA_VERSION,
        "experiment": command,
        "results": _json_ready(results),
    }
    pio.atomic_write_bytes(
        path, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    )


def _finish(command, cfg, results, header, rows, lines, failure) -> int:
    """An experiment's epilogue: the --out-json report of results (the
    runner's record) and the --out-csv table (header, rows) when asked for,
    with the run's manifest beside the first of them, then lines on stdout,
    then AssertionFailure when failure names a threshold that did not hold."""
    if cfg["out_json"]:
        _write_report(cfg["out_json"], command, results)
    if cfg["out_csv"]:
        pio.write_csv(cfg["out_csv"], header, rows)
    if cfg["out_json"] or cfg["out_csv"]:
        _write_side_manifest(cfg["out_json"] or cfg["out_csv"], command, cfg)
    for line in lines:
        print(line)
    if failure:
        raise AssertionFailure(f"{command}: {failure}")
    return EXIT_OK


def _write_side_manifest(out_path, command, cfg, tensor_hash=None):
    """The run's one manifest, <out_path>.manifest.json."""
    manifest = pio.build_manifest(command, _json_ready(cfg), tensor_hash)
    pio.write_manifest(manifest, str(out_path) + ".manifest.json")


# ---------------------------------------------------------------------------
# Commands


def _cmd_tensor_build(cfg: dict) -> int:
    """Write the cache file, then check what reads back: the digest shows
    only that the file is intact, so its quartic of a probe state must also
    match the grid quartic, which never reads the tensor."""
    _require(cfg, "tensor-build", "n_max")
    tensor = build_tensor(cfg["n_max"])
    out = cfg["out"]
    if out is None:
        pio.cache_dir().mkdir(parents=True, exist_ok=True)
        out = pio.default_cache_path(cfg["n_max"])
        cfg = dict(cfg, out=str(out))
    pio.write_tensor_cache(tensor, out)
    tensor, digest = pio.read_tensor_cache(out)
    n = tensor.n_max
    probe = np.exp(1j * np.arange(n)) / np.arange(1, n + 1)
    exact = quartic_form(probe, tensor)
    grid = quartic_norm_quadrature(probe)
    if not abs(exact - grid) <= 1e-10 * grid:
        # an intact digest over wrong entries: no file is left for a reader,
        # nor the manifest of an earlier build that this file overwrote
        Path(out).unlink()
        Path(str(out) + ".manifest.json").unlink(missing_ok=True)
        raise StorageError(
            f"{out}: tensor quartic {exact:.17g} of a probe state disagrees "
            f"with the grid quartic {grid:.17g}"
        )
    _write_side_manifest(out, "tensor-build", cfg, digest)
    print(f"wrote {out} ({len(tensor.values)} values, sha256 {digest[:16]}...)")
    return EXIT_OK


def _cmd_evolve(cfg: dict) -> int:
    _require(cfg, "evolve", "n", "t_end", "out")
    N = cfg["n"]
    method = _integrator_method(cfg["integrator"])
    dt = cfg["dt"]
    if dt is None:
        # default_dt(N) if it divides the span and dt_record; if not, the
        # unit (dt_record, else t_end) split into the fewest steps of at
        # most default_dt(N)
        dt = default_dt(N)
        unit = cfg["t_end"] if cfg["dt_record"] is None else cfg["dt_record"]
        try:
            _step_counts(cfg["t_end"], dt, cfg["dt_record"])
        except DomainError:
            if 0 < unit / dt < math.inf:
                dt = unit / math.ceil(unit / dt)
    cfg = dict(cfg, dt=dt)
    config = IntegratorConfig(
        method=method,
        dt=dt,
        dt_record=cfg["dt_record"],
        coupling=cfg["coupling"],
    )
    spec = FreeMeasureSpec.from_preset(cfg["preset"], N)
    rng = RngStream(seed=cfg["seed"])
    if cfg["measure"] == "free":
        state = sample_free(spec, rng)
    elif cfg["measure"] == "gibbs":
        state = sample_gibbs(spec, cfg["beta_q"], rng).state
    else:
        raise UsageError(f"unknown measure {cfg['measure']!r}")
    try:
        traj = evolve(state, cfg["t_end"], config)
    except BlowUpError as err:
        if err.partial_trajectory is not None:
            times, records = err.partial_trajectory
            partial = Trajectory.from_coeffs(times, records[:, 0, :])
            pio.write_trajectory(partial, cfg["out"] + ".partial")
            print(
                f"blow-up: partial trajectory in {cfg['out']}.partial",
                file=sys.stderr,
            )
        raise
    pio.write_trajectory(traj, cfg["out"])
    _write_side_manifest(cfg["out"], "evolve", cfg)
    print(f"wrote {cfg['out']} ({len(traj.times)} records, N={N})")
    return EXIT_OK


def _cmd_invariance(cfg: dict) -> int:
    report = run_invariance(
        N=cfg["n"],
        samples=cfg["samples"],
        t_compare=cfg["t_compare"],
        beta_q=cfg["beta_q"],
        preset=cfg["preset"],
        rng=RngStream(seed=cfg["seed"]),
        dt=cfg["dt"],
    )
    rows = [(n, float(k), float(c)) for n, k, c in report.observables]
    failure = None
    if not report.all_pass():
        name, ks, crit = max(rows, key=lambda row: row[1] - row[2])
        failure = (
            f"observable {name!r} KS={ks:.5f} exceeds the 1% critical value {crit:.5f}"
        )
    lines = [f"{n}: KS={k:.5f} critical={c:.5f}" for n, k, c in rows]
    header = ["observable", "ks_statistic", "critical_1pct"]
    return _finish("invariance", cfg, report, header, rows, lines, failure)


def _cmd_tails(cfg: dict) -> int:
    fit = run_tail_experiment(
        norm_kind=cfg["norm_kind"],
        N=cfg["n"],
        samples=cfg["samples"],
        measure=cfg["measure"],
        rng=RngStream(seed=cfg["seed"]),
    )
    rows = list(zip(fit.lambda_grid.tolist(), fit.empirical_log_survival.tolist()))
    line = (
        f"kappa={fit.fitted_kappa:.4f} (+-{fit.kappa_stderr:.4f}) "
        f"c={fit.fitted_c:.4g}"
    )
    failure = None
    if fit.fitted_kappa < cfg["kappa_min"]:
        failure = (
            f"fitted exponent {fit.fitted_kappa:.4f} below the threshold "
            f"{cfg['kappa_min']}"
        )
    header = ["lambda", "log_survival"]
    return _finish("tails", cfg, fit, header, rows, [line], failure)


def _cmd_ladder(cfg: dict) -> int:
    ladder = run_convergence_ladder(
        seed=cfg["seed"],
        N_values=_parse_n_list(cfg["n_values"]),
        s=cfg["s"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        integrator=_integrator_method(cfg["integrator"]),
    )
    rows = list(zip(ladder.N_values[:-1], ladder.diffs.tolist()))
    diffs = " ".join(f"{n}:{d:.6g}" for n, d in rows)
    line = f"D_N: {diffs} exponent={ladder.fitted_exponent:.4f}"
    failure = None
    if not (np.all(np.diff(ladder.diffs) < 0) and ladder.fitted_exponent > 0):
        failure = (
            "diffs not strictly decreasing with positive fitted exponent "
            f"(diffs={ladder.diffs.tolist()}, exponent={ladder.fitted_exponent})"
        )
    return _finish("ladder", cfg, ladder, ["N_low", "D_N"], rows, [line], failure)


def _cmd_blocks(cfg: dict) -> int:
    n2_values = _parse_n_list(cfg["n2_values"])
    report = run_block_observables(
        N=cfg["n"],
        samples=cfg["samples"],
        rng=RngStream(seed=cfg["seed"]),
        n2_values=n2_values,
    )
    rows = [(n2, report.chaos_medians[n2]) for n2 in n2_values]
    lines = [f"N2={n2}: chaos median {m:.6g}" for n2, m in rows]
    lo, hi = min(n2_values), max(n2_values)
    failure = None
    if report.chaos_medians[hi] > report.chaos_medians[lo]:
        failure = f"chaos median did not decay from N2={lo} to N2={hi}"
    header = ["N2", "chaos_median"]
    return _finish("blocks", cfg, report, header, rows, lines, failure)


def _cmd_embeddings(cfg: dict) -> int:
    report = run_embedding_study(
        clause=cfg["clause"],
        N=cfg["n"],
        trials=cfg["trials"],
        rng=RngStream(seed=cfg["seed"]),
    )
    results = dict(dataclasses.asdict(report), max_ratio=report.max_ratio)
    rows = list(enumerate(report.ratios.tolist()))
    line = f"clause ({report.clause}) N={report.N}: max ratio {report.max_ratio:.4f}"
    # the outputs are on disk before the baseline is read
    _finish("embeddings", cfg, results, ["trial", "ratio"], rows, [line], None)
    if cfg["baseline"]:
        try:
            baseline = json.loads(Path(cfg["baseline"]).read_text("utf-8"))
            base_max = float(baseline["results"]["max_ratio"])
            if not 0 < base_max < math.inf:
                raise ValueError(f"max_ratio {base_max} is not finite and > 0")
        except (OSError, KeyError, TypeError, ValueError) as err:
            raise UsageError(f"bad baseline report: {err}") from err
        if report.max_ratio > 2.0 * base_max:
            raise AssertionFailure(
                f"embeddings: max ratio {report.max_ratio:.4f} exceeds twice "
                f"the baseline {base_max:.4f}"
            )
    return EXIT_OK


def _cmd_norms(cfg: dict) -> int:
    _require(cfg, "norms", "infile", "kind")
    traj = pio.read_trajectory(cfg["infile"])
    kind = cfg["kind"]
    rows = []
    if kind == "hs":
        for state in traj.states:
            rows.append((float(state.time), hs_norm(state, cfg["s"])))
        header = ["time", f"hs_norm_s{cfg['s']}"]
    elif kind == "mixed":
        rule = rule_for_modes(4 * traj.N)
        rows.append((0.0, mixed_norm(traj, cfg["p"], cfg["q"], rule)))
        header = ["window_start", f"mixed_L{cfg['p']}_L{cfg['q']}"]
    elif kind == "xsb":
        spec = spectrum_from_trajectory(traj, taper=cfg["taper"])
        rows.append((spec.window.t0, xsb_norm(spec, cfg["s"], cfg["b"])))
        header = ["window_start", f"xsb_s{cfg['s']}_b{cfg['b']}"]
    elif kind == "triple":
        spec = spectrum_from_trajectory(traj, taper=cfg["taper"])
        bound = triple_norm_upper(spec, cfg["window"])
        rows.append((spec.window.t0, bound.upper))
        header = ["window_start", f"triple_upper_T{cfg['window']}"]
    else:
        raise UsageError(f"unknown norm kind {kind!r}")
    print("\t".join(header))
    for row in rows:
        print("\t".join(pio.format_g17(v) for v in row))
    if cfg["csv"]:
        pio.write_csv(cfg["csv"], header, rows)
        _write_side_manifest(cfg["csv"], "norms", cfg)
    return EXIT_OK


_DISPATCH = {
    "tensor-build": _cmd_tensor_build,
    "evolve": _cmd_evolve,
    "invariance": _cmd_invariance,
    "tails": _cmd_tails,
    "ladder": _cmd_ladder,
    "blocks": _cmd_blocks,
    "embeddings": _cmd_embeddings,
    "norms": _cmd_norms,
}


def _cmd_replay(args) -> int:
    manifest = pio.read_manifest(args.manifest)
    command = manifest["command"]
    if command not in _DISPATCH:
        raise UsageError(f"manifest names unknown command {command!r}")
    cfg = _typed(command, manifest["config_snapshot"], f"manifest {args.manifest}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for key in ("out", "out_json", "out_csv", "csv"):
            if cfg.get(key):
                cfg[key] = str(out_dir / Path(cfg[key]).name)
    return _DISPATCH[command](cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballnls",
        description="Spectral simulator for the radial cubic NLS on the "
        "unit ball with Gibbs-ensemble verification experiments.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_options(sub.add_parser("tensor-build"), "tensor-build")
    _add_options(sub.add_parser("evolve"), "evolve")
    exp = sub.add_parser("experiment").add_subparsers(
        dest="experiment", required=True
    )
    for name in _EXPERIMENTS:
        _add_options(exp.add_parser(name), name)
    _add_options(sub.add_parser("norms"), "norms")
    replay = sub.add_parser("replay")
    replay.add_argument("--manifest", required=True)
    replay.add_argument("--out-dir", dest="out_dir", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _cmd_replay(args)
        command = args.command
        if command == "experiment":
            command = args.experiment
        config_file_values = (
            pio.parse_config_file(args.config) if args.config else {}
        )
        cfg = _resolve(command, args, config_file_values)
        return _DISPATCH[command](cfg)
    except AssertionFailure as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeFailure as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except BallNlsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
