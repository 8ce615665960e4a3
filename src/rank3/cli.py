"""Command-line interface.

Subcommands:
    construct <descriptor> [--graph6 OUT]   build a family graph
    params <descriptor>                     strong-regularity parameters
    aut <descriptor> [--budget S]           full automorphism group order, search
                                            seeded with the family's zero-stabilizer,
                                            certified by its generators
    iso <d1> <d2> [--budget S]              isomorphism test with mapping, search
                                            seeded with d1's zero-stabilizer
    rank <spec-file>                        rank/subdegrees of an affine group
    verify [--seed N] [--json OUT] [--budget S] [--catalog FILE]
                                            every row of the builtin table, or of FILE
    catalog list                            print the builtin verification table

verify --seed N, an integer >= 0, conjugates the sl25 zero-stabilizer by an
invertible matrix drawn from random.Random(N): that relabels the
orbital:sl25:* rows only, and every other row ignores it.

params and aut print the outcome of the verify pipeline's srg and aut
stages (catalog._check_srg, catalog._check_aut with no expected order): an
ok detail on stdout, any other outcome as "status: detail" on stderr.

Exit codes: 0 success / all pass, 1 any failure (not isomorphic, not strongly
regular, timeout, an uncertified order, FAIL verdicts), 2 usage errors (bad
descriptors, bad files).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import catalog as _catalog
from .autsolve import NotIsomorphic, Timeout, are_isomorphic
from .families import Build, parse_descriptor
from .graphs import to_graph6
from .permgrp import read_matrix_spec, stabilizer_rank

__all__ = ["main"]


def _print_outcome(outcome: _catalog.StageOutcome) -> int:
    """A pipeline stage's outcome: an ok detail on stdout (exit 0), anything
    else as "status: detail" on stderr (exit 1)."""
    if outcome.status == "ok":
        print(outcome.detail)
        return 0
    print(f"{outcome.status}: {outcome.detail}", file=sys.stderr)
    return 1


def _cmd_construct(args: argparse.Namespace) -> int:
    g = Build(parse_descriptor(args.descriptor)).graph
    text = to_graph6(g)
    if args.graph6:
        with open(args.graph6, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.graph6}: n={g.n}, valency={int(g.row0.sum())}")
    else:
        print(text)
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    outcome, _ = _catalog._check_srg(Build(parse_descriptor(args.descriptor)).graph)
    return _print_outcome(outcome)


def _cmd_aut(args: argparse.Namespace) -> int:
    row = Build(parse_descriptor(args.descriptor))
    g, known = row.graph, row.stabilizer  # made before the budget starts, as in verify
    deadline = time.monotonic() + args.budget
    outcome, _ = _catalog._check_aut(g, deadline, known, expected=None)
    return _print_outcome(outcome)


def _cmd_iso(args: argparse.Namespace) -> int:
    row = Build(parse_descriptor(args.first))
    h = Build(parse_descriptor(args.second)).graph
    try:
        mapping = are_isomorphic(row.graph, h, budget=args.budget, known=row.stabilizer)
    except NotIsomorphic as exc:
        print(f"not isomorphic: {exc.invariant}")
        return 1
    except Timeout:
        print(f"timeout: undecided within {args.budget:g}s", file=sys.stderr)
        return 1
    print("isomorphic")
    print(" ".join(str(x) for x in mapping))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    spec = read_matrix_spec(args.spec_file)
    rank, sizes = stabilizer_rank(spec.perms)
    print(f"rank {rank}, subdegrees {', '.join(str(s) for s in sizes)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    entries = _catalog.load_catalog(args.catalog) if args.catalog else None
    reports, summary = _catalog.verify_all(args.budget, args.seed, entries)
    for r in reports:
        attempted = [
            f"{name}={o.status}"
            for name, o in r.stages.items()
            if o.status != "skipped"
        ]
        print(f"{r.verdict:16s} {r.id:28s} {'; '.join(attempted)}")
        for name, o in r.stages.items():
            if o.status in ("mismatch", "error", "timeout"):
                print(f"{'':16s}   {name}: {o.detail}")
    print(
        f"summary: {summary['pass']} pass, "
        f"{summary['pass_downgraded']} downgraded, {summary['fail']} fail"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(_catalog.reports_to_json(reports))
        print(f"wrote {args.json}")
    return 1 if summary["fail"] else 0


def _cmd_catalog_list(_args: argparse.Namespace) -> int:
    for e in _catalog.builtin_catalog():
        order = "unknown" if e.expected_aut_order is None else e.expected_aut_order
        print(
            f"{e.id:28s} n={e.n:<5d} subdegrees=({e.subdegrees[0]}, "
            f"{e.subdegrees[1]})  tier={e.tier:11s} aut={order}"
        )
    return 0


def _budget(text: str) -> float:
    """A --budget value: a finite number of seconds >= 0."""
    bad = argparse.ArgumentTypeError(f"want a finite number of seconds >= 0, got {text}")
    try:
        value = float(text)
    except ValueError:
        raise bad from None
    if not (math.isfinite(value) and value >= 0):
        raise bad
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0."""
    bad = argparse.ArgumentTypeError(f"want an integer >= 0, got {text}")
    try:
        value = int(text)
    except ValueError:
        raise bad from None
    if value < 0:
        raise bad
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank3",
        description="rank-3 graph constructions and automorphism verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family graph (graph6 output)")
    p.add_argument("descriptor", help="family descriptor, e.g. paley:49")
    p.add_argument("--graph6", metavar="OUT", help="write graph6 to this file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("params", help="strong-regularity parameters")
    p.add_argument("descriptor")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("aut", help="automorphism group order")
    p.add_argument("descriptor")
    p.add_argument("--budget", type=_budget, default=60.0, metavar="S")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test between two families")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", type=_budget, default=60.0, metavar="S")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("rank", help="rank/subdegrees of an affine matrix group")
    p.add_argument("spec_file", help='file: first line "p d", then generators')
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="run the catalog verification pipeline")
    p.add_argument(
        "--seed", type=_seed, default=None, metavar="N",
        help="an integer >= 0: conjugate the sl25 zero-stabilizer by a matrix "
        "drawn from random.Random(N); relabels the orbital:sl25:* rows only, "
        "every other row ignores it",
    )
    p.add_argument("--json", metavar="OUT", help="also write a JSON report")
    p.add_argument("--budget", type=_budget, default=60.0, metavar="S")
    p.add_argument("--catalog", metavar="FILE", help="override catalog (JSON)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="catalog inspection")
    catsub = p.add_subparsers(dest="catalog_command", required=True)
    pl = catsub.add_parser("list", help="print the builtin entries")
    pl.set_defaults(func=_cmd_catalog_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
