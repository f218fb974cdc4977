"""Command-line surface tying the series, identity, and scan modules together.

Subcommands: coeffs, verify, scan, table, oracle.  Exit codes: 0 pass,
1 theorem or identity failure, 2 usage error, 3 conjecture counterexample.
The SEVENCORES_ORDER environment variable supplies a default expansion
order; an explicit --order flag always wins.  Orders and table sizes
run from 0 to MAX_ORDER.  ``main`` builds its parser once per process
and reuses it; ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from functools import cache, partial

from .exprlang import ExprEvalError, ExprSyntaxError, check_bounds
from .forms import core_split
from .identities import get_record, verify, verify_all
from .partitions import PARTITION_BOUND, rank_histograms
from .series import MAX_ORDER

ENV_ORDER = "SEVENCORES_ORDER"

#: Default scan depth of ``scan``.
DEFAULT_DEPTH = 2000


def _check_bound(parser, name, value):
    if value < 0:
        parser.error(f"{name} must be nonnegative, got {value}")
    if value > MAX_ORDER:
        parser.error(f"{name} must be at most {MAX_ORDER}, got {value}")
    return value


def _resolve_order(parser, flag_value, fallback):
    """Explicit flag wins; then the environment; then the fallback."""
    if flag_value is not None:
        return _check_bound(parser, "--order", flag_value)
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        parser.error(f"{ENV_ORDER} must be an integer, got {raw!r}")
    return _check_bound(parser, ENV_ORDER, value)


def _cmd_coeffs(args, parser):
    order = _resolve_order(parser, args.order, 200)
    lo = args.from_ if args.from_ is not None else 0
    hi = args.to if args.to is not None else order
    try:
        root = check_bounds(args.expr, order)
        if not 0 <= lo <= hi <= order:
            parser.error(
                f"need 0 <= from <= to <= order, got from={lo} to={hi} order={order}"
            )
        series = root.run(order)
    except (ExprSyntaxError, ExprEvalError) as exc:
        parser.error(str(exc))
    for n in range(lo, hi + 1):
        print(n, series[n])
    return 0


#: verify's word for an identity row's status.
_VERDICT = {"holds": "pass", "violated": "fail"}


def _report_json(r):
    import json  # only --format jsonlike loads it
    fields = {
        "id": r.id,
        "note": r.note,
        "order": r.order,
        "status": _VERDICT[r.status],
        "millis": round(r.millis, 3),
    }
    if r.violation:
        fields["mismatch_exponent"], fields["lhs"], fields["rhs"] = r.violation
    return json.dumps(fields)


def _report_table_row(r):
    verdict = _VERDICT[r.status]
    line = f"{r.id:<16} {verdict:<5} order={r.order:<5} {r.millis:9.1f}ms  {r.note}"
    if r.violation:
        n, lhs, rhs = r.violation
        line += f"  [first mismatch at q^{n}: {lhs} vs {rhs}]"
    return line


def _cmd_verify(args, parser):
    if (args.id is None) == (not args.all):
        parser.error("give exactly one of: an identity id, or --all")
    order = _resolve_order(parser, args.order, 200)
    if not args.all:
        try:
            record = get_record(args.id)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    try:
        reports = verify_all(order) if args.all else [verify(record, order)]
    except ExprEvalError as exc:
        parser.error(str(exc))
    reports = sorted(reports, key=lambda r: r.id)
    for r in reports:
        print(_report_json(r) if args.format == "jsonlike" else _report_table_row(r))
    passed = sum(1 for r in reports if r.status == "holds")
    if args.format != "jsonlike":
        print(f"{passed}/{len(reports)} identities pass at order {order}")
    return 0 if passed == len(reports) else 1


def _scan_row(r):
    line = (
        f"{r.id:<20} {r.kind:<10} n={r.n_range[0]}..{r.n_range[1]:<6}"
        f" {r.status:<8} {r.note}"
    )
    if r.samples:
        n, lhs, rhs = r.samples[0]
        line += f"  [first instance n={n}: {lhs} vs {rhs}]"
    return line


def _cmd_scan(args, parser):
    selectors = sum((args.claim is not None, args.conjectures, args.theorems))
    if selectors != 1:
        parser.error(
            "give exactly one of: a claim id, --conjectures, or --theorems"
        )
    order = _resolve_order(parser, args.order, DEFAULT_DEPTH)
    from . import inequalities  # only scan loads the claim table
    if args.claim is not None:
        try:
            reports = [inequalities.run_claim(args.claim, order)]
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    else:
        kind = "conjecture" if args.conjectures else "theorem"
        reports = inequalities.run_all(order, kind)
    reports = sorted(reports, key=lambda r: r.id)
    for r in reports:
        print(_scan_row(r))
        if r.status == "violated":
            n, lhs, rhs = r.violation
            print(f"  counterexample at n={n}: lhs={lhs} rhs={rhs}")
    holds = sum(1 for r in reports if r.status == "holds")
    print(f"{holds}/{len(reports)} claims hold to order {order}")
    violated = {r.kind for r in reports if r.status == "violated"}
    return 1 if "theorem" in violated else 3 if violated else 0


def _cmd_table(args, parser):
    _check_bound(parser, "--max", args.max)
    cs = core_split(args.max)
    split = ("a7_m1", "a7_0", "a7_1", "a7_2") if args.which == "a7j" else ()
    headers = ("n", "a7") + split
    columns = (getattr(cs, name).coeffs for name in headers[1:])
    rows = list(zip(range(args.max + 1), *columns))
    if args.csv:
        print(",".join(headers))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        widths = [
            max(len(h), max(len(str(r[i])) for r in rows))
            for i, h in enumerate(headers)
        ]
        print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for row in rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_oracle(args, parser):
    if args.max < 1:
        parser.error(f"--max must be at least 1, got {args.max}")
    if args.max > PARTITION_BOUND:
        parser.error(
            f"--max cannot exceed the enumeration cap {PARTITION_BOUND}"
        )
    cs = core_split(args.max)
    ranks = (-1, 0, 1, 2)
    series_by_rank = (cs.a7_m1, cs.a7_0, cs.a7_1, cs.a7_2)
    rows = rank_histograms(args.max, 7)
    for n in range(1, args.max + 1):
        counted = rows[n]
        brute = [sum(counted.values())] + [counted.get(j, 0) for j in ranks]
        table = [cs.a7[n]] + [s[n] for s in series_by_rank]
        if brute != table:
            print(
                f"row n={n} differs: brute force {brute} vs series {table}"
                " (columns: total, rank -1, 0, 1, 2)"
            )
            return 1
    print(f"{args.max}/{args.max} rows identical")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevencores",
        description="Exact q-series identity verification and coefficient scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="expand an expression and print coefficients")
    p.add_argument("expr", help="expression, e.g. 'E(q^7)^7/E(q)'")
    p.add_argument("--order", type=int, default=None, help="expansion order")
    p.add_argument("--from", dest="from_", metavar="FROM", type=int,
                   default=None, help="first exponent to print (default 0)")
    p.add_argument("--to", type=int, default=None,
                   help="last exponent to print (default: order)")
    p.set_defaults(func=partial(_cmd_coeffs, parser=p))

    p = sub.add_parser("verify", help="check identities from the catalog")
    p.add_argument("id", nargs="?", default=None, help="identity id, e.g. eq-3.2")
    p.add_argument("--all", action="store_true", help="verify the whole catalog")
    p.add_argument("--order", type=int, default=None,
                   help="expansion order (default 200)")
    p.add_argument("--format", choices=("table", "jsonlike"), default="table")
    p.set_defaults(func=partial(_cmd_verify, parser=p))

    p = sub.add_parser("scan", help="scan inequality and progression claims")
    p.add_argument("claim", nargs="?", default=None, help="claim id, e.g. ineq-1.11")
    p.add_argument("--conjectures", action="store_true",
                   help="scan every conjectured claim")
    p.add_argument("--theorems", action="store_true",
                   help="scan every proved claim")
    p.add_argument("--order", type=int, default=None,
                   help=f"scan depth (default {DEFAULT_DEPTH})")
    p.set_defaults(func=partial(_cmd_scan, parser=p))

    p = sub.add_parser("table", help="tabulate 7-core counts from closed forms")
    p.add_argument("which", choices=("a7", "a7j"),
                   help="a7: totals only; a7j: split by rank class")
    p.add_argument("--max", type=int, required=True, help="last n to print")
    p.add_argument("--csv", action="store_true", help="emit CSV with fixed header")
    p.set_defaults(func=partial(_cmd_table, parser=p))

    p = sub.add_parser("oracle",
                       help="diff brute-force core counts against the series table")
    p.add_argument("--max", type=int, required=True,
                   help=f"last n to check (at most {PARTITION_BOUND})")
    p.set_defaults(func=partial(_cmd_oracle, parser=p))

    return parser


#: The parser ``main`` uses: built on its first call, then reused.
_parser = cache(build_parser)


def main(argv=None) -> int:
    if argv is None and hasattr(signal, "SIGPIPE"):
        # As a console script, a reader that closes the pipe early ends
        # the run the way it ends any filter, not as a failure (exit 1).
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
