"""Command-line front end.

Subcommands: group, cells, chartable, classify, verify.  Reports go to
stdout in json (default), csv, or text form; diagnostics go to stderr.
Exit codes: 0 success, 1 claim failure, 2 usage or resource refusal,
3 an operating-system error (an unusable cache directory, say) or a
broken engine invariant.

Each subcommand loads only the layers it runs.  `group` imports the
group, its integer arithmetic (`modp`) and the reports, and no
`fractions`; `cells` adds the polynomial engine (`klbase`, `jring`);
`chartable` adds the character table and its cyclotomic numbers
(`exactnum`) and no engine; `classify` and `verify` load every module.
`hashlib` is imported only where a digest is taken: the fingerprint
`group` reports, and the sealed cache; `csv` only for `--format csv`.
"""

import argparse
import json
import os
import sys

from . import pipeline
from .coxeter import DEFAULT_MAX_ORDER, build_group
from .errors import InternalInconsistencyError, RefusalError, UsageError

CACHE_ENV = "COXCELLS_CACHE"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxcells",
        description="Exact cell and representation computations for "
        "finite Coxeter groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, txt in (
        ("group", "group metadata: order, degrees, classes, longest word"),
        ("cells", "cell partition, a-values, distinguished involutions"),
        ("chartable", "exact character table"),
        ("classify", "full classification of irreducibles and involutions"),
        ("verify", "run the claim checks and gate on the outcome"),
    ):
        sp = sub.add_parser(name, help=txt)
        sp.add_argument(
            "--type", required=True, dest="type_symbol", metavar="SYMBOL",
            help='group type, e.g. "A3", "B3", "I2(7)", "H3", "F4"',
        )
        sp.add_argument(
            "--cache-dir", default=None,
            help=f"cache root (default: ${CACHE_ENV} if set)",
        )
        sp.add_argument(
            "--format", choices=("json", "csv", "text"), default="json",
        )
        sp.add_argument(
            "--jobs", type=int, default=1,
            help="accepted and range-checked; every block pass runs in "
            "this process",
        )
        sp.add_argument(
            "--max-order", type=int, default=DEFAULT_MAX_ORDER,
            help="group-size cap; raise explicitly for E-family builds",
        )
        sp.add_argument(
            "--heavy", action="store_true",
            help=f"allow groups of order {pipeline.HEAVY_ORDER} and up, which "
            "have more than 120 000 h rows",
        )
        if name in ("classify", "verify"):
            sp.add_argument(
                "--claims", default=None,
                help="comma-separated claim ids (default: all)",
            )
    return parser


def _claim_selection(args):
    from .classify import CLAIM_IDS

    raw = getattr(args, "claims", None)
    if raw is None:
        return None
    picked = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not picked:
        raise UsageError("--claims selected nothing")
    for i, cid in enumerate(picked):
        if cid not in CLAIM_IDS:
            raise UsageError(
                f"unknown claim {cid!r}; expected one of {', '.join(CLAIM_IDS)}"
            )
        if cid in picked[:i]:
            raise UsageError(f"claim {cid!r} is selected twice")
    return picked


def _build(args):
    group = build_group(args.type_symbol, max_order=args.max_order)
    if pipeline.is_heavy(group) and not args.heavy:
        raise RefusalError(
            f"{group.datum.type_symbol} (order {group.size}) needs a long "
            "leading scan; pass --heavy to run it"
        )
    return group


def _emit(args, report, text_fn, csv_fn) -> None:
    if args.format == "json":
        out = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        out = csv_fn(report)
    else:
        out = text_fn(report)
    sys.stdout.write(out)


def _cmd_group(args) -> int:
    group = build_group(args.type_symbol, max_order=args.max_order)
    report = pipeline.group_report(group)
    _emit(args, report, pipeline.group_text, pipeline.group_csv)
    return 0


def _cmd_cells(args) -> int:
    group = _build(args)
    cache = args.cache_dir or os.environ.get(CACHE_ENV)
    store, htable, cells, gamma, dset = pipeline.analysis(group, cache)
    report = pipeline.cells_report(group, cells, gamma, dset)
    _emit(args, report, pipeline.cells_text, pipeline.cells_csv)
    return 0


def _cmd_chartable(args) -> int:
    from .chartab import character_table

    group = build_group(args.type_symbol, max_order=args.max_order)
    table = character_table(group)
    report = pipeline.chartable_report(group, table)
    _emit(args, report, pipeline.chartable_text, pipeline.chartable_csv)
    return 0


def _cmd_claims(args, report_fn, text_fn, csv_fn, pass_key) -> int:
    picked = _claim_selection(args)
    group = _build(args)
    cache = args.cache_dir or os.environ.get(CACHE_ENV)
    result = pipeline.classification(group, cache)
    claims = pipeline.run_claims(result, picked)
    report = report_fn(result, claims)
    _emit(args, report, text_fn, csv_fn)
    return 0 if report[pass_key] else 1


_COMMANDS = {
    "group": _cmd_group,
    "cells": _cmd_cells,
    "chartable": _cmd_chartable,
    "classify": lambda args: _cmd_claims(
        args, pipeline.classify_report, pipeline.classify_text,
        pipeline.classify_csv, "all_claims_pass",
    ),
    "verify": lambda args: _cmd_claims(
        args, pipeline.verify_report, pipeline.verify_text,
        pipeline.verify_csv, "all_pass",
    ),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, not {args.jobs}")
        if args.max_order < 1:
            raise UsageError(
                f"--max-order must be at least 1, not {args.max_order}"
            )
        cpus = os.cpu_count()
        if cpus is not None and args.jobs > cpus:
            raise UsageError(
                f"--jobs {args.jobs} exceeds the {cpus} available CPUs"
            )
        return _COMMANDS[args.command](args)
    except RefusalError as exc:
        print(f"coxcells: refused: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"coxcells: usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"coxcells: system error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"coxcells: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
