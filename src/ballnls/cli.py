"""Command-line entry point.

Exit codes: 0 success, 2 usage/configuration, 3 runtime/numerics,
4 assertion failure (an experiment threshold did not hold).

Config resolution order: built-in defaults < config file (`key = value`
lines) < command-line flags.  Every artifact-producing command writes a
side-by-side ``<out>.manifest.json`` with the fully resolved snapshot;
``ballnls replay --manifest ...`` re-runs a command from that snapshot.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .basis import build_tensor, rule_for_modes
from .dynamics import (
    REFERENCE_N_ADVISORY,
    IntegratorConfig,
    Trajectory,
    default_dt,
    evolve,
)
from .errors import BallNlsError, BlowUpError, RuntimeFailure, UsageError
from .experiments import (
    run_block_observables,
    run_convergence_ladder,
    run_embedding_study,
    run_invariance,
    run_tail_experiment,
)
from .measures import (
    RNG_ALGORITHM,
    FreeMeasureSpec,
    RngStream,
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

_INT = int
_FLOAT = float
_STR = str


def _bool(text):
    if isinstance(text, bool):
        return text
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


_OPTIONS = {
    "tensor-build": [
        ("n_max", _INT, None, "tensor index cutoff (required)"),
        ("quad_order", _INT, 0, "quadrature order recorded in the header"),
        ("out", _STR, None, "output path (default: cache directory)"),
    ],
    "evolve": [
        ("n", _INT, None, "mode truncation (required)"),
        ("t_end", _FLOAT, None, "final model time (required)"),
        ("dt", _FLOAT, None, "time step (default: stability heuristic)"),
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
        ("seed", _INT, 0, "master seed"),
        ("out_json", _STR, None, "report path"),
        ("out_csv", _STR, None, "CSV extract path"),
    ],
    "tails": [
        ("norm_kind", _STR, "L4_x", "L4_x | mixed | xsb"),
        ("n", _INT, 64, "mode truncation"),
        ("samples", _INT, 100000, "ensemble size (>= 10^4)"),
        ("measure", _STR, "free", "free | gibbs"),
        ("kappa_min", _FLOAT, 1.5, "asserted lower bound on the exponent"),
        ("seed", _INT, 0, "master seed"),
        ("out_json", _STR, None, "report path"),
        ("out_csv", _STR, None, "CSV extract path"),
    ],
    "ladder": [
        ("n_values", _STR, "8,16,32,64", "comma-separated dyadic truncations"),
        ("s", _FLOAT, 0.4, "Sobolev index (< 1/2)"),
        ("t_end", _FLOAT, 0.5, "final model time"),
        ("dt", _FLOAT, None, "time step"),
        ("integrator", _STR, "collocation", "reference | collocation"),
        ("seed", _INT, 0, "master seed"),
        ("out_json", _STR, None, "report path"),
        ("out_csv", _STR, None, "CSV extract path"),
    ],
    "blocks": [
        ("n", _INT, 32, "mode truncation"),
        ("samples", _INT, 1000, "ensemble size (>= 10^3)"),
        ("n2_values", _STR, "4,8,16", "comma-separated chaos block sizes"),
        ("seed", _INT, 0, "master seed"),
        ("out_json", _STR, None, "report path"),
        ("out_csv", _STR, None, "CSV extract path"),
    ],
    "embeddings": [
        ("clause", _STR, "i", "Lemma-4 clause id: i | iii | vii"),
        ("n", _INT, 32, "spectrum truncation"),
        ("trials", _INT, 100, "random spectra per run"),
        ("baseline", _STR, None, "report JSON from a smaller-N run"),
        ("seed", _INT, 0, "master seed"),
        ("out_json", _STR, None, "report path"),
        ("out_csv", _STR, None, "CSV extract path"),
    ],
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


def _resolve(command: str, args, config_file_values: dict) -> dict:
    resolved = {}
    for dest, typ, default, _help in _OPTIONS[command]:
        value = default
        if dest in config_file_values:
            text = config_file_values[dest]
            try:
                value = typ(text)
            except ValueError as err:
                raise UsageError(
                    f"config file {args.config}: bad value {text!r} for {dest!r}"
                ) from err
        cli_value = getattr(args, dest, None)
        if cli_value is not None:
            value = cli_value
        resolved[dest] = value
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
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_report(path, command, cfg, payload, seed):
    report = {
        "schema_version": pio.SCHEMA_VERSION,
        "experiment": command,
        "manifest": pio.build_manifest(
            command, _json_ready(cfg), seed, RNG_ALGORITHM
        ),
        "results": _json_ready(payload),
    }
    pio.atomic_write_bytes(
        path, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    )


def _write_side_manifest(out_path, command, cfg, seed, tensor_hash=None):
    manifest = pio.build_manifest(
        command,
        _json_ready(cfg),
        seed,
        RNG_ALGORITHM,
        tensor_cache_hash=tensor_hash,
        timestamps={"written": pio.utc_now()},
    )
    pio.write_manifest(manifest, str(out_path) + ".manifest.json")


# ---------------------------------------------------------------------------
# Commands


def _cmd_tensor_build(cfg: dict) -> int:
    _require(cfg, "tensor-build", "n_max")
    tensor = build_tensor(cfg["n_max"])
    if cfg["quad_order"]:
        tensor = dataclasses.replace(tensor, quad_order=cfg["quad_order"])
    out = cfg["out"]
    if out is None:
        pio.cache_dir().mkdir(parents=True, exist_ok=True)
        out = pio.default_cache_path(cfg["n_max"], tensor.quad_order)
        cfg = dict(cfg, out=str(out))
    digest = pio.write_tensor_cache(tensor, out)
    _write_side_manifest(out, "tensor-build", cfg, None, tensor_hash=digest)
    print(f"wrote {out} ({len(tensor.values)} values, sha256 {digest[:16]}...)")
    return EXIT_OK


def _load_or_build_tensor(n: int):
    path = pio.default_cache_path(n)
    if Path(path).exists():
        tensor = pio.read_tensor_cache(path)
        if tensor.n_max >= n:
            return tensor, pio.file_sha256(path)
    tensor = build_tensor(n)
    pio.cache_dir().mkdir(parents=True, exist_ok=True)
    digest = pio.write_tensor_cache(tensor, path)
    return tensor, digest


def _cmd_evolve(cfg: dict) -> int:
    _require(cfg, "evolve", "n", "t_end", "out")
    N = cfg["n"]
    method = _integrator_method(cfg["integrator"])
    dt = cfg["dt"] if cfg["dt"] is not None else default_dt(N)
    cfg = dict(cfg, dt=dt)
    config = IntegratorConfig(
        method=method,
        dt=dt,
        dt_record=cfg["dt_record"],
        coupling=cfg["coupling"],
    )
    tensor, tensor_hash = None, None
    if method == "reference_rk4":
        if N > REFERENCE_N_ADVISORY:
            print(
                f"warning: reference integrator above the advisory limit "
                f"N={REFERENCE_N_ADVISORY}; expect slow stepping",
                file=sys.stderr,
            )
        tensor, tensor_hash = _load_or_build_tensor(N)
    spec = FreeMeasureSpec.from_preset(cfg["preset"], N)
    rng = RngStream(seed=cfg["seed"])
    if cfg["measure"] == "free":
        state = sample_free(spec, rng)
    elif cfg["measure"] == "gibbs":
        state = sample_gibbs(spec, cfg["beta_q"], rng).state
    else:
        raise UsageError(f"unknown measure {cfg['measure']!r}")
    try:
        traj = evolve(state, cfg["t_end"], config, tensor=tensor)
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
    _write_side_manifest(cfg["out"], "evolve", cfg, cfg["seed"], tensor_hash)
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
    payload = {
        "N": report.N,
        "samples": report.samples,
        "t_compare": report.t_compare,
        "acceptance_rate": report.acceptance_rate,
        "observables": [
            {"name": n, "ks": k, "critical_1pct": c}
            for n, k, c in report.observables
        ],
    }
    if cfg["out_json"]:
        _write_report(cfg["out_json"], "invariance", cfg, payload, cfg["seed"])
    if cfg["out_csv"]:
        pio.write_csv(
            cfg["out_csv"],
            ["observable", "ks_statistic", "critical_1pct"],
            [(n, float(k), float(c)) for n, k, c in report.observables],
        )
    for name, ks, crit in report.observables:
        print(f"{name}: KS={ks:.5f} critical={crit:.5f}")
    if not report.all_pass():
        worst = max(report.observables, key=lambda row: row[1] - row[2])
        raise AssertionFailure(
            f"invariance: observable {worst[0]!r} KS={worst[1]:.5f} exceeds "
            f"the 1% critical value {worst[2]:.5f}"
        )
    return EXIT_OK


def _cmd_tails(cfg: dict) -> int:
    fit = run_tail_experiment(
        norm_kind=cfg["norm_kind"],
        N=cfg["n"],
        samples=cfg["samples"],
        measure=cfg["measure"],
        rng=RngStream(seed=cfg["seed"]),
    )
    payload = {
        "fitted_kappa": fit.fitted_kappa,
        "fitted_c": fit.fitted_c,
        "kappa_stderr": fit.kappa_stderr,
        "c_stderr": fit.c_stderr,
        "lambda_grid": fit.lambda_grid,
        "empirical_log_survival": fit.empirical_log_survival,
    }
    if cfg["out_json"]:
        _write_report(cfg["out_json"], "tails", cfg, payload, cfg["seed"])
    if cfg["out_csv"]:
        pio.write_csv(
            cfg["out_csv"],
            ["lambda", "log_survival"],
            list(zip(fit.lambda_grid.tolist(), fit.empirical_log_survival.tolist())),
        )
    print(
        f"kappa={fit.fitted_kappa:.4f} (+-{fit.kappa_stderr:.4f}) "
        f"c={fit.fitted_c:.4g}"
    )
    if fit.fitted_kappa < cfg["kappa_min"]:
        raise AssertionFailure(
            f"tails: fitted exponent {fit.fitted_kappa:.4f} below the "
            f"threshold {cfg['kappa_min']}"
        )
    return EXIT_OK


def _cmd_ladder(cfg: dict) -> int:
    n_values = _parse_n_list(cfg["n_values"])
    ladder = run_convergence_ladder(
        seed=cfg["seed"],
        N_values=n_values,
        s=cfg["s"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        integrator=_integrator_method(cfg["integrator"]),
    )
    payload = {
        "N_values": list(ladder.N_values),
        "diffs": ladder.diffs,
        "fitted_exponent": ladder.fitted_exponent,
        "s": ladder.s,
        "t_end": ladder.t_end,
    }
    if cfg["out_json"]:
        _write_report(cfg["out_json"], "ladder", cfg, payload, cfg["seed"])
    if cfg["out_csv"]:
        pio.write_csv(
            cfg["out_csv"],
            ["N_low", "D_N"],
            list(zip(ladder.N_values[:-1], ladder.diffs.tolist())),
        )
    print(
        "D_N:",
        " ".join(f"{n}:{d:.6g}" for n, d in zip(ladder.N_values[:-1], ladder.diffs)),
        f"exponent={ladder.fitted_exponent:.4f}",
    )
    decreasing = bool(np.all(np.diff(ladder.diffs) < 0))
    if not (decreasing and ladder.fitted_exponent > 0):
        raise AssertionFailure(
            "ladder: diffs not strictly decreasing with positive fitted "
            f"exponent (diffs={ladder.diffs.tolist()}, "
            f"exponent={ladder.fitted_exponent})"
        )
    return EXIT_OK


def _cmd_blocks(cfg: dict) -> int:
    n2_values = _parse_n_list(cfg["n2_values"])
    report = run_block_observables(
        N=cfg["n"],
        samples=cfg["samples"],
        rng=RngStream(seed=cfg["seed"]),
        n2_values=n2_values,
    )
    payload = {
        "N": report.N,
        "samples": report.samples,
        "block_median": float(np.median(report.block_values)),
        "chaos_medians": report.chaos_medians,
    }
    if cfg["out_json"]:
        _write_report(cfg["out_json"], "blocks", cfg, payload, cfg["seed"])
    if cfg["out_csv"]:
        pio.write_csv(
            cfg["out_csv"],
            ["N2", "chaos_median"],
            [(n2, report.chaos_medians[n2]) for n2 in n2_values],
        )
    for n2 in n2_values:
        print(f"N2={n2}: chaos median {report.chaos_medians[n2]:.6g}")
    lo, hi = min(n2_values), max(n2_values)
    if report.chaos_medians[hi] > report.chaos_medians[lo]:
        raise AssertionFailure(
            f"blocks: chaos median did not decay from N2={lo} to N2={hi}"
        )
    return EXIT_OK


def _cmd_embeddings(cfg: dict) -> int:
    report = run_embedding_study(
        clause=cfg["clause"],
        N=cfg["n"],
        trials=cfg["trials"],
        rng=RngStream(seed=cfg["seed"]),
    )
    payload = {
        "clause": report.clause,
        "N": report.N,
        "trials": report.trials,
        "max_ratio": report.max_ratio,
        "ratios": report.ratios,
    }
    if cfg["out_json"]:
        _write_report(cfg["out_json"], "embeddings", cfg, payload, cfg["seed"])
    if cfg["out_csv"]:
        pio.write_csv(
            cfg["out_csv"],
            ["trial", "ratio"],
            list(enumerate(report.ratios.tolist())),
        )
    print(f"clause ({report.clause}) N={report.N}: max ratio {report.max_ratio:.4f}")
    if cfg["baseline"]:
        try:
            baseline = json.loads(Path(cfg["baseline"]).read_text("utf-8"))
            base_max = float(baseline["results"]["max_ratio"])
        except (OSError, KeyError, ValueError) as err:
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
    cfg = dict(manifest["config_snapshot"])
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
