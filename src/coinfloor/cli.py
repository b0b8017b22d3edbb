"""Command-line front end exposing every library operation.

Output is plain text by default; ``--format json`` emits a single object
{"command", "inputs", "result"} per invocation and ``--format csv`` emits a
header row plus data rows.  Exit codes: 0 success, 1 domain or usage error
(diagnostics on stderr), 2 verification failure.  A reader that closes
the pipe before the output is written ends the command with exit 1 and no
traceback.

Each handler imports the library modules it uses when it runs, and looks
their names up on the module at call time, so a process loads only what
its command needs (floorsum loads coinfloor.floorsum alone); json and csv
are imported only by the output branch that prints them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

__all__ = ["main"]


# No option starts with a digit, so "-1/2" or "-.5" is always a value.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; exit with 1 instead, so
    # that 2 stays for verification failures.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")

    # argparse takes only negative integers and decimals for values, so a
    # negative weight such as --weighted -1/2 0 would be read as an option.
    def _parse_optional(self, arg_string: str):  # type: ignore[override]
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit(args: argparse.Namespace, command: str, inputs: dict, result, columns: list[str] | None = None) -> None:
    """Print a result in the selected format.

    ``result`` is a scalar (int or str) or a list of row dicts; ``columns``
    fixes the column order for row output.  JSON keeps a scalar as it is;
    csv and plain print it as one row of the one column ``value``.
    """
    if args.format == "json":
        import json

        print(json.dumps({"command": command, "inputs": inputs, "result": result}))
        return
    if not isinstance(result, list):
        result, columns = [{"value": result}], ["value"]
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in result:
            writer.writerow([row[c] for c in columns])
        return
    for row in result:
        print(" ".join(str(row[c]) for c in columns))


def _pair(args: argparse.Namespace):
    from . import core

    return core.CoprimePair(args.a, args.b)


def _cmd_floorsum(args: argparse.Namespace) -> int:
    from . import floorsum

    value = floorsum.fast_floor_sum(args.a, args.b, args.d)
    _emit(args, "floorsum", {"a": args.a, "b": args.b, "d": args.d}, value)
    return 0


def _cmd_frobenius(args: argparse.Namespace) -> int:
    from . import coinproblem

    value = coinproblem.frobenius_number(_pair(args))
    _emit(args, "frobenius", {"a": args.a, "b": args.b}, value)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from . import coinproblem

    value = coinproblem.representation_count(_pair(args), args.n).count
    _emit(args, "count", {"a": args.a, "b": args.b, "n": args.n}, value)
    return 0


def _cmd_upto(args: argparse.Namespace) -> int:
    from . import coinproblem

    value = coinproblem.count_representable_upto(_pair(args), args.k)
    _emit(args, "upto", {"a": args.a, "b": args.b, "k": args.k}, value)
    return 0


# Most rows best --all prints: about 0.6 s and 55 MB at the limit (see the README).
_BEST_ROWS_MAX = 10**5


def _cmd_best(args: argparse.Namespace) -> int:
    from . import coinproblem
    from .floorsum import _shown

    pair = _pair(args)
    columns = ["alpha", "beta", "k", "n0"]
    inputs = {"a": args.a, "b": args.b}
    if args.all:
        # best_family_point's own check, made first: a <= 2 leaves no alpha
        # to check, and a pair past the row limit would get that message
        if args.b >= args.a:
            raise ValueError(f"need b < a, got ({_shown(args.a)}, {_shown(args.b)})")
        count = (args.a - 1) // 2  # the alphas > 0 below a with a's parity
        if count > _BEST_ROWS_MAX:
            raise ValueError(f"--all would print {_shown(count)} rows, over the limit of "
                             f"{_BEST_ROWS_MAX}; --alpha gives one row")
        rows = [vars(coinproblem.best_family_point(pair, alpha)) for alpha in range(2 - args.a % 2, args.a, 2)]
        _emit(args, "best", dict(inputs, all=True), rows, columns)
    else:
        _emit(args, "best", dict(inputs, alpha=args.alpha),
              [vars(coinproblem.best_family_point(pair, args.alpha))], columns)
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    from . import coinproblem

    pair = _pair(args)
    inputs: dict = {"a": args.a, "b": args.b}
    if args.sum:
        _emit(args, "gaps", dict(inputs, sum=True), coinproblem.sylvester_sum(pair))
    elif args.power is not None:
        _emit(args, "gaps", dict(inputs, power=args.power),
              coinproblem.sylvester_sum_power(pair, args.power))
    elif args.weighted is not None:
        from fractions import Fraction

        lam_text, m_text = args.weighted
        try:
            lam = Fraction(lam_text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"argument --weighted: invalid rational value: {_echo(lam_text)}")
        try:
            m = int(m_text)
        except ValueError:
            raise ValueError(f"argument --weighted: invalid int value: {_echo(m_text)}")
        value = coinproblem.weighted_sylvester_sum(pair, lam, m)
        _emit(args, "gaps", dict(inputs, weighted=str(lam), power=m), str(value))
    else:
        _emit_gaps(args, inputs, coinproblem.nonrepresentable_set(pair).gaps)
    return 0


def _echo(text: str) -> str:
    """text quoted for a message, cut after 60 characters as floorsum._shown cuts numbers."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}... ({len(text)} characters)"


# Gaps per write of a streamed listing.
_ROWS_PER_WRITE = 4096


def _emit_gaps(args: argparse.Namespace, inputs: dict, gaps: tuple[int, ...]) -> None:
    """Print the gap listing, byte for byte as _emit prints the rows
    [{"gap": n} for n in gaps] (plain: the gaps on one line), a block of
    gaps at a time instead of building the rows or one string of them."""
    out = sys.stdout
    if args.format == "csv":
        import csv

        writer = csv.writer(out)
        writer.writerow(["gap"])
        writer.writerows((n,) for n in gaps)
        return
    if args.format == "json":
        import json

        head, tail = json.dumps({"command": "gaps", "inputs": inputs, "result": []}).rsplit("[]", 1)
        head, tail, sep, row = head + "[", "]" + tail, ", ", '{{"gap": {}}}'.format
    else:
        head, tail, sep, row = "", "", " ", str
    out.write(head)
    for i in range(0, len(gaps), _ROWS_PER_WRITE):
        out.write((sep if i else "") + sep.join(map(row, gaps[i:i + _ROWS_PER_WRITE])))
    out.write(tail + "\n")


def _cmd_jacobi(args: argparse.Namespace) -> int:
    from . import jacobi

    fn = jacobi.jacobi_eisenstein if args.method == "eisenstein" else jacobi.jacobi_by_definition
    value = fn(args.a, args.b)
    _emit(args, "jacobi", {"a": args.a, "b": args.b, "method": args.method}, value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    grid = verify.GridSpec(a_max=args.grid[0], b_max=args.grid[1], seed=args.seed)
    results = verify.run_suites(args.suite, grid)
    inputs = {"grid": list(args.grid), "seed": args.seed, "suite": args.suite}
    if args.format == "plain":
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.check_id} cases={r.cases_run} failures={len(r.failures)} elapsed={r.elapsed:.3f}s")
            for f in r.failures:
                print(f"  {dict(f.inputs)} expected={f.expected} actual={f.actual}", file=sys.stderr)
    else:
        rows = [r.as_row() for r in results]
        if args.format == "csv":
            flat = [dict(row, failures=len(row["failures"])) for row in rows]
            _emit(args, "verify", inputs, flat,
                  ["check_id", "cases_run", "failures", "elapsed", "passed"])
        else:
            _emit(args, "verify", inputs, rows)
    return 0 if all(r.passed for r in results) else 2


def _cmd_table1(args: argparse.Namespace) -> int:
    from . import verify

    result = verify.reproduce_table1()
    if not result.passed:
        for f in result.failures:
            print(f"table1 mismatch: {dict(f.inputs)} expected={f.expected} actual={f.actual}",
                  file=sys.stderr)
        return 2
    rows = [{"alpha": alpha, "k": k, "n0": n0} for alpha, k, n0 in verify.TABLE1_ROWS]
    a, b = verify.TABLE1_PAIR
    _emit(args, "table1", {"a": a, "b": b}, rows, ["alpha", "k", "n0"])
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="coinfloor", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"], default="plain",
                        help="output format (default: plain)")
    pair = _Parser(add_help=False, parents=[common])
    pair.add_argument("a", type=int)
    pair.add_argument("b", type=int)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("floorsum", parents=[pair],
                       help="evaluate S(a, b, d) = sum of floor(i*b/a) for i = 1..d")
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_floorsum)

    p = sub.add_parser("frobenius", parents=[pair], help="largest nonrepresentable integer a*b - a - b")
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("count", parents=[pair], help="number of solutions of a*x + b*y = n")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("upto", parents=[pair], help="representable integers in [0, k]")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_upto)

    p = sub.add_parser("best", parents=[pair], help="closed-form threshold counts (needs b < a)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=int, help="single family point")
    group.add_argument("--all", action="store_true", help="every valid alpha")
    p.set_defaults(handler=_cmd_best)

    p = sub.add_parser("gaps", parents=[pair], help="nonrepresentable numbers and their sums")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--sum", action="store_true", help="sum of the gaps")
    group.add_argument("--power", type=int, metavar="M", help="sum of gap**M")
    group.add_argument("--weighted", nargs=2, metavar=("LAMBDA", "M"),
                       help="sum of LAMBDA**(gap-1) * gap**M, exact rational")
    p.set_defaults(handler=_cmd_gaps)

    p = sub.add_parser("jacobi", parents=[pair], help="Jacobi symbol (a/b) for odd b")
    p.add_argument("--method", choices=["eisenstein", "definition"], default="eisenstein")
    p.set_defaults(handler=_cmd_jacobi)

    p = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p.add_argument("--grid", nargs=2, type=int, metavar=("A", "B"), default=[60, 60])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", choices=["all", "frobenius", "jacobi"], default="all")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table1", parents=[common],
                       help="verify and emit the reference threshold-count table for (29, 23)")
    p.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Results are exact, so a gap power sum can have more digits than
    # CPython's int/str conversion limit (4300 by default, 3.11+); lift it
    # while the command runs and restore it for an in-process caller.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and usage errors exit through argparse
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # meet a closed pipe here rather than at exit
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again (the recipe in the stdlib's
        # note on SIGPIPE), and report the unfinished output by exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
