"""Command-line front end.

Exit codes: 0 on success (query servable, search found), 1 for a clean
negative answer (unservable query, nothing found up to n_max), 2 for
usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from . import constructions
from .bounds import evaluate_bounds
from .errors import BatchCodeError, check_int
from .gf2 import LinearCode, format_matrix, parse_matrix
from .planner import Query, QueryPlanner
from .report import (
    build_report,
    bounds_to_dicts,
    plan_to_dict,
    render_bounds,
    render_plan,
    render_report,
    render_search,
    report_to_dict,
    search_to_dict,
)
from .search import min_length

_FAMILIES = {
    "identity": (constructions.identity, ("k",)),
    "subcube": (constructions.subcube, ("ell", "m")),
    "simplex": (constructions.simplex, ("m",)),
    "triplicated-parity": (constructions.triplicated_parity, ("k",)),
    "blockwise-subcube-allones": (
        constructions.blockwise_subcube_allones,
        ("kappa",),
    ),
    "paired-parity": (constructions.paired_parity, ("k",)),
}


def _read_code(path: str) -> LinearCode:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    return LinearCode(parse_matrix(text))


def _emit_json(obj) -> None:
    """Print `obj` as `print(json.dumps(obj, indent=2))` would, byte for
    byte. With `indent` set, `json.dumps` runs its pure-Python encoder,
    which costs more than this writer for the same bytes."""
    out: list[str] = []
    _write_json(obj, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append the `json.dumps(value, indent=2)` text of `value`, nested
    at indent `pad`, to `out`: dicts with str keys, lists and tuples,
    str, int, bool and None. Any other type raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        # int.__repr__, as json does, so that an int subclass such as
        # an IntEnum prints as its number.
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    code = _read_code(args.matrix)
    queries = tuple(Query.parse(q) for q in args.query or ())
    report = build_report(code, args.matrix, args.r_cap, queries)
    if args.json:
        _emit_json(report_to_dict(report))
    else:
        sys.stdout.write(render_report(report))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    code = _read_code(args.matrix)
    q = Query.parse(args.query)
    plan = QueryPlanner(code, args.r_cap).serve(q)
    if args.json:
        _emit_json(plan_to_dict(q, plan))
    else:
        print(render_plan(q, plan))
    return 0 if plan is not None else 1


def cmd_construct(args: argparse.Namespace) -> int:
    builder, needed = _FAMILIES[args.family]
    values = []
    for name in needed:
        value = getattr(args, name)
        if value is None:
            flags = " and ".join(f"--{p}" for p in needed)
            raise ValueError(f"{args.family} requires {flags}")
        values.append(value)
    code = builder(*values)
    sys.stdout.write(format_matrix(code.generator))
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    code = _read_code(args.matrix)
    print(code.min_distance())
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    # The table reads t = 0 as a code that serves no batch and skips
    # the rows that need t; asked for outright, t = 0 is an input error.
    check_int("t", args.t)
    verdicts = evaluate_bounds(
        args.n, args.k, args.d, args.t, args.r, args.r, args.delta,
        args.systematic, args.q,
    )
    if args.json:
        _emit_json(bounds_to_dicts(verdicts))
    else:
        print(render_bounds(verdicts))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    result = min_length(
        args.k, args.t, args.mode, args.r_cap, args.n_max
    )
    if args.json:
        _emit_json(search_to_dict(result))
    else:
        sys.stdout.write(render_search(result))
    return 0 if result.found else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchcodes",
        description=(
            "Analyze and certify linear batch, PIR, and locally repairable "
            "codes over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="full parameter and bound report for a matrix file"
    )
    analyze.add_argument("matrix", help="generator matrix file, or - for stdin")
    analyze.add_argument("--r-cap", type=int, help="recovery-set size cap")
    analyze.add_argument(
        "--query",
        action="append",
        metavar="Q",
        help='also plan this query (repeatable), e.g. "1,1,2,2"',
    )
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.set_defaults(func=cmd_analyze)

    query = sub.add_parser("query", help="serving plan for one multiset query")
    query.add_argument("matrix", help="generator matrix file, or - for stdin")
    query.add_argument("query", help='comma-separated symbols, e.g. "1,1,2,2"')
    query.add_argument("--r-cap", type=int, help="recovery-set size cap")
    query.add_argument("--json", action="store_true", help="emit JSON")
    query.set_defaults(func=cmd_query)

    construct = sub.add_parser(
        "construct", help="emit a named family generator matrix"
    )
    construct.add_argument("family", choices=sorted(_FAMILIES))
    construct.add_argument("--k", type=int, help="information symbols")
    construct.add_argument("--ell", type=int, help="subcube side length")
    construct.add_argument("--m", type=int, help="dimension")
    construct.add_argument("--kappa", type=int, help="number of blocks")
    construct.set_defaults(func=cmd_construct)

    distance = sub.add_parser("distance", help="exact minimum distance")
    distance.add_argument("matrix", help="generator matrix file, or - for stdin")
    distance.set_defaults(func=cmd_distance)

    bounds_p = sub.add_parser(
        "bounds", help="closed-form bound table for given parameters"
    )
    bounds_p.add_argument("--k", type=int, required=True)
    bounds_p.add_argument("--d", type=int, required=True)
    bounds_p.add_argument(
        "--r",
        type=int,
        required=True,
        help="recovery-set size cap; also the all-symbol locality of the LRC rows",
    )
    bounds_p.add_argument("--t", type=int, required=True)
    bounds_p.add_argument("--delta", type=int, default=1, help="availability")
    bounds_p.add_argument("--q", type=int, default=2, help="alphabet size")
    bounds_p.add_argument(
        "--n", type=int, help="code length, for attainment and the cardinality bound"
    )
    bounds_p.add_argument(
        "--systematic", action="store_true", help="the code is systematic"
    )
    bounds_p.add_argument("--json", action="store_true", help="emit JSON")
    bounds_p.set_defaults(func=cmd_bounds)

    search = sub.add_parser("search", help="exhaustive optimal-length search")
    search.add_argument("--k", type=int, required=True)
    search.add_argument("--t", type=int, required=True)
    search.add_argument("--mode", choices=("batch", "pir"), default="batch")
    search.add_argument("--r-cap", type=int, help="recovery-set size cap")
    search.add_argument("--n-max", type=int, help="largest length to try")
    search.add_argument("--json", action="store_true", help="emit JSON")
    search.set_defaults(func=cmd_search)

    return parser


# Built once per process: parsing keeps no state between calls, and
# building the parser costs more than a small in-process analysis.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does. Stop quietly, the
        # way SIGPIPE would, and send the flush at exit to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BatchCodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
