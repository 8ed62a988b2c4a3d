"""Command-line front end.

Subcommands: ``gen`` (instance files), ``partition`` (bags from predictions),
``schedule`` (place bags under true speeds), ``evaluate`` (single-instance
ratio), ``experiment`` (parameter-sweep CSV), ``verify`` (property suite), and
``curves`` (guarantee envelopes per alpha).

Everything is flag-driven: no environment variable changes what a command
prints.  Exit codes: 0 success, 1 verification failures, 2 usage or malformed
input, 3 solver budget exhausted, 4 internal error (any other
``RuntimeError``, such as an infeasible capacity placement or the rebalance
loop's safety bound; each means a bug in this package).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from typing import Any, Iterable, Sequence

from .gen import (
    Dist,
    SyntheticConfig,
    gen_binary_lb_instance,
    gen_prop1_instance,
    gen_synthetic,
    gen_tradeoff_instance,
)
from .harness import (
    ALGORITHMS,
    ORACLES,
    AlgorithmSpec,
    CurveRow,
    ExperimentConfig,
    ExperimentRow,
    evaluate,
    make_partition,
    run_experiment,
    theory_curve,
    verify_properties,
)
from .model import Instance, Partition, bag_load, validate_partition
from .solvers import DEFAULT_NODE_BUDGET, SCHEDULERS, BudgetExceededError, schedule

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str, kind: type) -> Any:
    """The ``kind`` (:class:`Instance`, :class:`Partition` or
    :class:`ExperimentConfig`) that the JSON file at ``path`` states.  An
    object that repeats a key, at any depth, is rejected: :mod:`json` would
    keep the last value silently."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: JSON object repeats key {key!r}")
            doc[key] = value
        return doc

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    return kind.from_json_dict(doc)


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """CSV text: ``header``, then one line per row of ``rows``, each line ending
    in a bare newline.  ``None`` is written as an empty field and a float as
    its ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table(kind: type, rows: Iterable[object]) -> str:
    """A CSV of dataclass ``rows``, headed by the field names of ``kind``."""
    return _csv([f.name for f in dataclasses.fields(kind)], map(dataclasses.astuple, rows))


def _check_out_dir(args: argparse.Namespace) -> None:
    """Reject an ``--out`` whose directory does not exist before any work
    starts; ``gen --count``'s template is checked at its first seed."""
    path = args.out
    if path is None or path == "-":
        return
    if args.command == "gen" and args.count > 1:
        path = path.replace("{seed}", str(args.seed))
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--out {path}: no such directory {directory}")


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def positive_int(text: str) -> int:
    """An integer flag value of at least 1 (argparse names the type on error)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-budget",
        type=positive_int,
        default=DEFAULT_NODE_BUDGET,
        help="branch-and-bound node limit for exact solves (at least 1)",
    )


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that rejects ``--flag=--``: argparse drops that
    ``--`` as the end-of-options marker and hands the flag an empty list,
    without calling its type.

    The hook is argparse's private ``_get_values``, whose first step in
    CPython 3.11 and earlier removes the first ``--`` from any action's
    arguments, an option's included (seen on 3.11.7).  A release that keeps
    an option's ``--`` (seen on 3.13.13) would itself reject it, as an
    invalid int value, but this check runs first, so every release gives
    the same message; delete the class once no supported Python strips it."""

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


_ALGO_HELP = ("binary needs an all-or-nothing instance (every speed 0.0 or 1.0); "
              "one-consistent and ipr need positive predicted speeds; lpt takes any instance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="speedsched",
        description="Two-stage scheduling with speed predictions: generators, "
        "partitioners, schedulers, experiments, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="generate an instance (JSON)")
    p.add_argument(
        "--kind",
        choices=("synthetic", "prop1", "tradeoff", "binary-lb"),
        default="synthetic",
        help="synthetic draws from distributions; the others are fixed adversarial families",
    )
    p.add_argument("--n", type=int, default=None, help="job count (synthetic: 12, prop1: 10)")
    p.add_argument("--m", type=int, default=None, help="machine count (synthetic/tradeoff: 4, prop1: 2)")
    p.add_argument("--k", type=int, default=None, help="binary-lb scale parameter (default 2)")
    p.add_argument("--job-dist", default="uniform(0,100)", help="uniform(lo,hi) or normal(mu,sigma)")
    p.add_argument("--speed-dist", default="uniform(0,40)", help="uniform(lo,hi) or normal(mu,sigma)")
    p.add_argument("--err-sigma", type=float, default=0.0, help="additive speed-prediction noise scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=positive_int, default=1, help="write this many instances at seeds seed, seed+1, ...")
    p.add_argument("--out", default=None, help="output path; with --count > 1, a template containing {seed}")

    p = sub.add_parser("partition", help="partition an instance's jobs into bags")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON file")
    p.add_argument("--algo", choices=ALGORITHMS, default="ipr", help=_ALGO_HELP)
    p.add_argument("--alpha", type=float, help="consistency-loss tolerance (ipr only; default 0.5)")
    p.add_argument("--rho", type=float, help="bag-balance target (ipr only; default 4)")
    p.add_argument("--scheduler", choices=SCHEDULERS, default="exact")
    _add_budget_flag(p)
    p.add_argument("--out", default=None, help="partition JSON file (default stdout)")

    p = sub.add_parser("schedule", help="place a partition's bags on the true speeds")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON file")
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--scheduler", choices=SCHEDULERS, default="exact")
    _add_budget_flag(p)
    p.add_argument("--out", default=None, help="schedule JSON file (default stdout)")

    p = sub.add_parser("evaluate", help="approximation ratio of one algorithm on one instance")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON file")
    p.add_argument("--algo", choices=ALGORITHMS, required=True, help=_ALGO_HELP)
    p.add_argument("--alpha", type=float, help="consistency-loss tolerance (ipr only; default 0.5)")
    p.add_argument("--rho", type=float, help="bag-balance target (ipr only; default 4)")
    p.add_argument("--scheduler", choices=SCHEDULERS, default="exact")
    p.add_argument("--oracle", choices=ORACLES, default="exact")
    _add_budget_flag(p)
    p.add_argument("--format", choices=("csv", "json"), default=None, help="default: bare ratio")
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="run a parameter sweep and emit aggregated rows")
    p.add_argument("--config", default=None, help="experiment config JSON (default: built-in sweep)")
    p.add_argument("--seed", type=int, default=None, help="override the config's base seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="results file (default stdout)")

    p = sub.add_parser("verify", help="run the property-verification suite")
    p.add_argument("--trials", type=positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_budget_flag(p)
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = sub.add_parser("curves", help="tabulate guarantee envelopes per alpha (CSV)")
    p.add_argument(
        "--alphas",
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma-separated alpha values in (0,1)",
    )
    p.add_argument("--out", default=None)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind != "synthetic" and args.count != 1:
        raise ValueError("--count applies only to --kind synthetic")
    if args.kind == "synthetic":
        config = SyntheticConfig(
            n=args.n if args.n is not None else 12,
            m=args.m if args.m is not None else 4,
            job_dist=Dist.parse(args.job_dist),
            speed_dist=Dist.parse(args.speed_dist),
            err_sigma=args.err_sigma,
            seed=args.seed,
        )
        if args.count > 1:
            if args.out is None or "{seed}" not in args.out:
                raise ValueError("--count > 1 needs --out with a {seed} placeholder")
            for seed in range(args.seed, args.seed + args.count):
                instance = gen_synthetic(dataclasses.replace(config, seed=seed))
                path = args.out.replace("{seed}", str(seed))
                _write(_json(instance.to_json_dict()), path)
                print(path)
            return EXIT_OK
        instance = gen_synthetic(config)
    elif args.kind == "prop1":
        instance = gen_prop1_instance(
            args.n if args.n is not None else 10, args.m if args.m is not None else 2
        )
    elif args.kind == "tradeoff":
        instance = gen_tradeoff_instance(args.m if args.m is not None else 4)
    else:
        instance = gen_binary_lb_instance(args.k if args.k is not None else 2)
    _write(_json(instance.to_json_dict()), args.out)
    return EXIT_OK


def _algorithm_from_args(args: argparse.Namespace) -> AlgorithmSpec:
    for flag in ("alpha", "rho"):
        if args.algo != "ipr" and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only to --algo ipr")
    return AlgorithmSpec(args.algo, alpha=args.alpha, rho=args.rho)


def _cmd_partition(args: argparse.Namespace) -> int:
    spec = _algorithm_from_args(args)
    instance = _read(args.infile, Instance)
    part = make_partition(instance, spec, scheduler=args.scheduler, node_budget=args.node_budget)
    _write(_json(part.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = _read(args.infile, Instance)
    part = _read(args.partition, Partition)
    validate_partition(part, instance.n, instance.m)
    loads = [bag_load(bag, instance.jobs) for bag in part.bags]
    result = schedule(loads, instance.usable_speeds, args.scheduler, args.node_budget)
    usable = instance.usable_machines
    doc = {
        "makespan": result.makespan,
        "bag_to_machine": [usable[i] for i in result.bag_to_machine],
        "optimal": result.optimal,
    }
    _write(_json(doc), args.out)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    spec = _algorithm_from_args(args)
    instance = _read(args.infile, Instance)
    ratio = evaluate(instance, spec, scheduler=args.scheduler, oracle=args.oracle,
                     node_budget=args.node_budget)
    doc = {
        "instance": instance.name,
        "algorithm": spec.label,
        "scheduler": args.scheduler,
        "oracle_kind": args.oracle,
        "ratio": ratio,
    }
    if args.format == "json":
        text = _json(doc)
    elif args.format == "csv":
        text = _csv(doc, [doc.values()])
    else:
        text = f"{ratio!r}\n"
    _write(text, args.out)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig() if args.config is None else _read(args.config, ExperimentConfig)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    rows = run_experiment(config)
    if args.format == "json":
        text = _json(list(map(dataclasses.asdict, rows)))
    else:
        text = _table(ExperimentRow, rows)
    _write(text, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_properties(seed=args.seed, trials=args.trials, node_budget=args.node_budget)
    lines = []
    for prop in checks:
        status = "PASS" if prop.ok else "FAIL"
        line = f"{status} {prop.name} ({prop.passed}/{prop.trials})"
        if not prop.ok and prop.counterexample:
            line += "\n  counterexample: " + " ".join(prop.counterexample.split())
        lines.append(line)
    n_ok = sum(1 for prop in checks if prop.ok)
    lines.append(f"{n_ok}/{len(checks)} properties passed")
    print("\n".join(lines))
    all_passed = n_ok == len(checks)
    if args.out is not None:
        doc = {"all_passed": all_passed, "properties": list(map(dataclasses.asdict, checks))}
        _write(_json(doc), args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_curves(args: argparse.Namespace) -> int:
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    if not alphas:
        raise ValueError("--alphas is empty")
    _write(_table(CurveRow, map(theory_curve, alphas)), args.out)
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "partition": _cmd_partition,
    "schedule": _cmd_schedule,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
    "curves": _cmd_curves,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built on first use (about 1.2 ms), once per process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out_dir(args)
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
