"""Batch command-line front end.

Exit codes: 0 success, 2 bad input, 1 runtime failure. ``main`` is the one
place an exception becomes an exit code: a ``ValueError`` raised anywhere
under a subcommand is bad input, and any other exception a runtime failure.
Every subcommand but `rerun` writes a run manifest next to its primary output
that records each parsed flag as the command normalised it; `rerun` replays a
manifest and reproduces the output byte for byte. All randomness flows from
explicit seed flags or config fields. A subcommand imports `simulator`,
`experiments` or `data_ingest` only when it runs them, so the other
subcommands never load those modules.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .network import (
    Network,
    _open_text,
    _read_csv,
    _write_json,
    generate_erdos_renyi,
    load_adjacency,
    save_adjacency,
)
from .profiler import DecayKind, DecaySpec, likeliness_scores, write_ranking_csv


def _manifest_path(out) -> str:
    return str(out) + ".manifest.json"


# The subcommands that write a manifest, and so the ones `rerun` may replay.
MANIFEST_SUBCOMMANDS = ("gen-net", "simulate", "profile", "evaluate", "sweep", "rank-timeline")


def _write_manifest(args, outputs: list[str]) -> None:
    """Record every parsed flag of ``args`` as the command normalised it."""
    arguments = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    manifest = {
        "tool": "epiprofiler",
        "version": __version__,
        "subcommand": args.subcommand,
        "arguments": arguments,
        "outputs": outputs,
    }
    _write_json(_manifest_path(outputs[0]), manifest)


# Paths are checked with os.path alone and named as given. Python 3.11's
# pathlib interns every part of a path it parses, and parts that die with
# the path leave dead entries in the interpreter's table of interned
# strings: a process that ran commands in a loop rebuilt that table, about
# 1 MB, every few hundred runs.
def _resolve_input(path_text: str) -> str:
    if not os.path.exists(path_text):
        raise ValueError(f"input file not found: {path_text}")
    if not os.path.isfile(path_text):
        raise ValueError(f"input is not a regular file: {path_text}")
    return os.path.realpath(path_text)


def _check_output(out) -> None:
    """Reject an ``--out`` that cannot be written as a file before any work
    is done. A trailing separator names a directory."""
    if out is None:
        return
    path = out or os.curdir
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ValueError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {path}")


def _report_progress(done: int, total: int) -> None:
    print(f"replicate {done}/{total}", file=sys.stderr)


def cmd_gen_net(args) -> int:
    net = generate_erdos_renyi(args.nodes, args.mean_degree, seed=args.seed)
    save_adjacency(net, args.out)
    _write_manifest(args, [args.out])
    return 0


def cmd_simulate(args) -> int:
    # Imported here, as in cmd_evaluate, cmd_sweep and cmd_rank_timeline, so
    # that only the subcommands that run a module load it.
    from .simulator import EpidemicParams, InitialCondition, simulate, write_trajectory_csv

    args.net = _resolve_input(args.net)
    net = load_adjacency(args.net)
    params = EpidemicParams(args.alpha, args.beta, args.gamma)
    if args.source == "random":
        source = int(np.random.default_rng((args.seed, 0)).integers(net.n))
    elif args.source.lstrip("-").isdecimal():
        source = int(args.source)
    else:
        raise ValueError(f"--source must be a node index or 'random', got {args.source!r}")
    args.source = str(source)
    init = InitialCondition(source, args.index_cases, args.population)
    traj = simulate(
        net,
        params,
        init,
        args.t_end,
        sim_dt=args.sim_dt,
        report_dt=args.report_dt,
        seed=(args.seed, 1),
        noise=not args.no_noise,
    )
    sidecar = write_trajectory_csv(traj, args.out)
    _write_manifest(args, [args.out, str(sidecar)])
    return 0


def _load_dataset_csv(path, net: Network) -> np.ndarray:
    rows: dict[str, float] = {}
    for line, (label, text) in _read_csv(path, ("node_label", "value")):
        if label in rows:
            raise ValueError(f"{path}: line {line}: duplicate node {label!r}")
        try:
            value = float(text)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: bad value {text!r}") from exc
        if not np.isfinite(value):
            raise ValueError(f"{path}: line {line}: value {text!r} is not finite")
        if value < 0:
            raise ValueError(f"{path}: line {line}: value {text!r} is negative")
        rows[label] = value
    labels = set(net.labels)
    missing = next((lab for lab in net.labels if lab not in rows), None)
    unknown = next((lab for lab in rows if lab not in labels), None)
    if missing is not None or unknown is not None:
        raise ValueError(
            f"{path}: node labels do not match the network's labels "
            f"(first missing: {missing!r}, first unknown: {unknown!r})"
        )
    return np.array([rows[lab] for lab in net.labels])


def cmd_profile(args) -> int:
    args.net, args.data = _resolve_input(args.net), _resolve_input(args.data)
    net = load_adjacency(args.net)
    values = _load_dataset_csv(args.data, net)
    result = likeliness_scores(net, values, DecaySpec(args.decay, args.param))
    write_ranking_csv(result, net.labels, args.out)
    _write_manifest(args, [args.out])
    if result.degenerate:
        print("note: observation vector is all zero; ranking is degenerate", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    from .experiments import (
        compare_observables,
        hit_curve_rows,
        hit_vs_correlation,
        load_experiment_file,
        run_hit_experiment,
        write_correlation_csv,
        write_hit_curves_csv,
    )

    args.config = _resolve_input(args.config)
    exp_file = load_experiment_file(args.config)
    cfg = exp_file.config
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if exp_file.experiment == "hit":
        curve = run_hit_experiment(cfg, workers=args.workers, progress=_report_progress)
        write_hit_curves_csv(args.out, hit_curve_rows("hit", curve))
    elif exp_file.experiment == "correlation":
        samples = hit_vs_correlation(cfg, workers=args.workers, progress=_report_progress)
        write_correlation_csv(args.out, "correlation", samples)
        print(f"skipped zero-variance samples: {samples.skipped}", file=sys.stderr)
    else:
        curves = compare_observables(cfg, workers=args.workers, progress=_report_progress)
        rows = []
        for kind, curve in curves.items():
            rows.extend(hit_curve_rows(f"observables[{kind.value}]", curve))
        write_hit_curves_csv(args.out, rows)
    _write_manifest(args, [args.out])
    return 0


def cmd_sweep(args) -> int:
    from .experiments import load_experiment_file, sweep_decay_parameter, write_sweep_csv

    args.config = _resolve_input(args.config)
    exp_file = load_experiment_file(args.config)
    if exp_file.sweep_kind is None:
        raise ValueError(f"{args.config}: config has no 'sweep' block")
    result = sweep_decay_parameter(
        exp_file.config,
        exp_file.sweep_kind,
        exp_file.sweep_grid,
        workers=args.workers,
        progress=_report_progress,
    )
    write_sweep_csv(args.out, "sweep", result)
    print(f"best {result.kind.value} parameter: {result.best_param:g}", file=sys.stderr)
    _write_manifest(args, [args.out])
    return 0


def cmd_rank_timeline(args) -> int:
    from .data_ingest import daily_deltas, filter_regions, load_case_series, rank_timeline, write_timeline_csv

    args.net, args.cases = _resolve_input(args.net), _resolve_input(args.cases)
    net = load_adjacency(args.net)
    series = load_case_series(args.cases)
    series = filter_regions(series, min_cases=args.min_cases, window_days=args.window_days)
    if args.param is None and args.decay == DecayKind.POLYNOMIAL.value:
        args.param = 0.5
    spec = DecaySpec(args.decay, args.param)
    try:
        values = daily_deltas(series, labels=net.labels)
    except ValueError as exc:
        raise ValueError(f"{args.cases}: {exc}") from exc
    timeline = rank_timeline(net, values, spec, series.dates[:-1])
    write_timeline_csv(timeline, args.out)
    _write_manifest(args, [args.out])
    return 0


def _argv_from_arguments(subcommand: str, arguments: dict, where: str) -> list[str]:
    """The command line that replays ``arguments``. A JSON boolean stands for
    a ``store_true`` flag and is rejected for any other flag, which would
    otherwise be dropped and replayed at its default."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    switches = {
        a.dest for a in sub.choices[subcommand]._actions if isinstance(a, argparse._StoreTrueAction)
    }
    argv = []
    for key, value in arguments.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if key not in switches:
                raise ValueError(f"{where}: argument {key!r} takes a value, got {json.dumps(value)}")
            if value:
                argv.append(flag)
        elif value is not None:
            argv.extend([flag, str(value)])
    return argv


def cmd_rerun(args) -> int:
    try:
        with _open_text(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read manifest {args.manifest}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{args.manifest}: manifest must be a JSON object")
    subcommand = manifest.get("subcommand")
    if subcommand not in MANIFEST_SUBCOMMANDS:
        raise ValueError(
            f"{args.manifest}: 'subcommand' must be one of {', '.join(MANIFEST_SUBCOMMANDS)}, "
            f"got {subcommand!r}"
        )
    arguments = manifest.get("arguments")
    if not isinstance(arguments, dict):
        raise ValueError(f"{args.manifest}: 'arguments' must be a JSON object")
    if args.out is not None:
        arguments["out"] = str(args.out)
    return main([subcommand] + _argv_from_arguments(subcommand, arguments, args.manifest))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each build leaves
    argparse's help formatters and actions in reference cycles, which would
    otherwise pile up over in-process calls of ``main``."""
    parser = argparse.ArgumentParser(
        prog="epiprofiler",
        description="Simulate multiregional outbreaks and profile their likely source node.",
    )
    parser.add_argument("--version", action="version", version=f"epiprofiler {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-net", help="generate a random transport network CSV")
    p.add_argument("--nodes", type=int, required=True, help="node count (>= 2)")
    p.add_argument("--mean-degree", type=float, required=True, help="expected degree, in (0, nodes - 1]")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output adjacency CSV path")
    p.set_defaults(func=cmd_gen_net)

    p = sub.add_parser("simulate", help="run one stochastic outbreak simulation")
    p.add_argument("--net", required=True, help="adjacency CSV")
    p.add_argument("--alpha", type=float, required=True, help="infection rate (1/time)")
    p.add_argument("--beta", type=float, required=True, help="removal rate (1/time)")
    p.add_argument("--gamma", type=float, required=True, help="total mobility rate (1/time)")
    p.add_argument("--source", default="random", help="source node index, or 'random'")
    p.add_argument("--index-cases", type=float, default=20.0, help="initial cases at the source")
    p.add_argument("--population", type=float, default=1e8, help="total population over all nodes")
    p.add_argument("--t-end", type=float, required=True, help="simulation horizon")
    p.add_argument("--sim-dt", type=float, default=0.05, help="integration step")
    p.add_argument("--report-dt", type=float, default=1.0, help="reporting interval")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--no-noise", action="store_true", help="deterministic drift-only integration")
    p.add_argument("--out", required=True, help="output trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="rank candidate sources for one observation CSV")
    p.add_argument("--net", required=True, help="adjacency CSV")
    p.add_argument("--data", required=True, help="observation CSV with header node_label,value")
    p.add_argument("--decay", required=True, choices=[k.value for k in DecayKind])
    p.add_argument("--param", type=float, default=None, help="decay parameter (not for naive)")
    p.add_argument("--out", required=True, help="output ranking CSV path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("evaluate", help="run an ensemble experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.add_argument("--workers", type=int, default=1, help="parallel replicate workers")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="sweep a decay parameter grid from a JSON config")
    p.add_argument("--config", required=True, help="experiment JSON config with a 'sweep' block")
    p.add_argument("--workers", type=int, default=1, help="parallel replicate workers")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rank-timeline", help="day-by-day source ranking from cumulative case reports")
    p.add_argument("--net", required=True, help="adjacency CSV")
    p.add_argument("--cases", required=True, help="case CSV with header date,region,cumulative_cases")
    p.add_argument("--decay", default="polynomial", choices=[k.value for k in DecayKind])
    p.add_argument("--param", type=float, default=None,
                   help="decay parameter (default 0.5 for polynomial; not for naive)")
    p.add_argument("--min-cases", type=int, default=5, help="region filter threshold")
    p.add_argument("--window-days", type=int, default=31, help="region filter window")
    p.add_argument("--out", required=True, help="output timeline CSV path")
    p.set_defaults(func=cmd_rank_timeline)

    p = sub.add_parser("rerun", help="replay a run manifest, reproducing its outputs")
    p.add_argument("--manifest", required=True, help="manifest JSON written by a previous run")
    p.add_argument("--out", default=None, help="redirect the primary output path")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_output(getattr(args, "out", None))
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ValueError as exc:  # bad input, wherever in the run it is found
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
