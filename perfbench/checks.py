"""Checks of coinfloor's outputs against perfbench/refs.py.

Run as a script, it reads a JSON job on stdin, `{"seed": n, "lines": [...]}`
with operation lines as the workload processes write them, rebuilds each
operation from its seed, round and index, and writes
`{"failed": n, "correct": bool}`.  Mismatches are listed on stderr.
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction

import inputs
import refs


def _family_ok(a: int, b: int, alpha: int, beta: int, k: int, n0: int) -> bool:
    return 2 * k == b * alpha + a * beta and 2 * n0 == (alpha + 1) * (beta + 1) \
        and n0 == refs.threshold_count(a, b, k)


def _power_sum(a: int, b: int, m: int) -> int:
    total = sum(n**m for n in refs.gaps(a, b))
    closed = {0: refs.gap_count(a, b), 1: refs.gap_sum(a, b)}
    if m in closed and closed[m] != total:
        raise AssertionError(f"references disagree on the gap sums of ({a}, {b})")
    return total


def check_library(op: list, out) -> bool:
    kind, *args = op
    S = refs.paper_floor_sum
    if kind == "floorsum":
        return out == S(*args)
    if kind == "reciprocity":
        a, b, d = args
        K = b * d // a
        return out == S(a, b, d) + S(b, a, K) - d * K
    if kind == "strong":
        a, b = args
        return out == S(a, b, a // 2) + S(b, a, b // 2) - (a // 2) * (b // 2)
    if kind == "gauss":
        p, q = args
        return out == S(p, q, (p - 1) // 2) + S(q, p, (q - 1) // 2) - (p - 1) * (q - 1) // 4
    if kind == "eisenstein":
        return out == refs.jacobi(*args)
    if kind == "jacobi_reciprocity":
        a, b = args
        return out == (refs.jacobi(a, b) * refs.jacobi(b, a) == (-1) ** ((a - 1) * (b - 1) // 4 % 2))
    if kind == "member":
        return out == (refs.solution_count(*args) > 0)
    if kind == "solutions":
        return out == refs.solution_count(*args)
    if kind == "family":
        a, b, alpha = args
        return out[0] == alpha and _family_ok(a, b, *out)
    if kind == "best2":
        a, b, d = args
        k, n0 = out
        K = b * d // a
        return k == b * d + a * K - a * b and 2 * n0 == (2 * d - a + 1) * (2 * K - b + 1) \
            and n0 == refs.threshold_count(a, b, k)
    if kind == "upto":
        return out == refs.threshold_count(*args)
    if kind == "lattice":
        return out == refs.lattice_count(*args)
    if kind == "gaps":
        return out == refs.digest(refs.gaps(*args))
    if kind == "power":
        return out == _power_sum(*args)
    if kind == "weighted":
        a, b, lam, m = args
        want = refs.weighted_gap_sum(refs.gaps(a, b), Fraction(lam), m)
        return out == [want.numerator, want.denominator]
    if kind == "verify":
        want = refs.verify_case_counts(*op[1:3], inputs.VERIFY_SAMPLES)
        got = {check_id: cases for check_id, cases, _, _ in out}
        return all(passed for _, _, passed, _ in out) and all(got.get(c) == n for c, n in want.items())
    raise ValueError(f"unknown operation {kind!r}")


def _cli_value(fmt: str, text: str):
    if fmt == "json":
        return json.loads(text)["result"]
    if fmt == "csv":
        (header,), (value,) = [tuple(row) for row in csv.reader(text.splitlines())]
        return value if header == "value" else None
    return text.strip()


def _cli_rows(fmt: str, text: str, columns: list[str]) -> list[list[int]]:
    if fmt == "json":
        return [[row[c] for c in columns] for row in json.loads(text)["result"]]
    if fmt == "csv":
        header, *rows = list(csv.reader(text.splitlines()))
        if header != columns:
            raise ValueError(f"csv header {header}")
        return [[int(x) for x in row] for row in rows]
    return [[int(x) for x in line.split()] for line in text.splitlines()]


def check_cli(argv: list[str], out) -> bool:
    code, text = out
    cmd, fmt = argv[0], argv[-1]
    nums = [int(x) for x in argv[1:] if x.lstrip("-").isdigit()]
    if code != 0:
        return False
    if cmd == "best":
        a, b, alpha = nums
        rows = _cli_rows(fmt, text, ["alpha", "beta", "k", "n0"])
        return len(rows) == 1 and rows[0][0] == alpha and _family_ok(a, b, *rows[0])
    if cmd == "table1":
        rows = _cli_rows(fmt, text, ["alpha", "k", "n0"])
        return [row[0] for row in rows] == list(range(1, 29, 2)) \
            and all(n0 == refs.threshold_count(29, 23, k) for _, k, n0 in rows)
    if cmd == "gaps" and len(argv) == 5:  # a listing: gaps A B --format F
        a, b = nums
        listed = [int(x) for x in text.split()] if fmt == "plain" else \
            [row[0] for row in _cli_rows(fmt, text, ["gap"])]
        return listed == refs.gaps(a, b)
    value = _cli_value(fmt, text)
    if cmd == "gaps" and "--weighted" in argv:
        a, b = nums[:2]
        lam, m = argv[argv.index("--weighted") + 1:][:2]
        return Fraction(value) == refs.weighted_gap_sum(refs.gaps(a, b), Fraction(lam), int(m))
    if cmd == "gaps":
        a, b = nums[:2]
        want = refs.gap_sum(a, b) if "--sum" in argv else _power_sum(a, b, nums[2])
    else:
        want = {
            "floorsum": lambda a, b, d: refs.paper_floor_sum(a, b, d),
            "frobenius": lambda a, b: a * b - a - b,
            "count": refs.solution_count,
            "upto": refs.threshold_count,
            "jacobi": refs.jacobi,
        }[cmd](*nums)
    return str(value) == str(want)


def check_lines(lines: list, seed: int) -> tuple[int, bool]:
    """(operations that failed, every other output is right)."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    rounds = {}
    failed, correct = 0, True
    for workload, r, i, _, out in lines:
        if (workload, r) not in rounds:
            rounds[workload, r] = inputs.ROUNDS[workload](seed, r)
        op = rounds[workload, r][i]
        if isinstance(out, dict):
            failed += 1
            print(f"failed: {workload} {op}: {out['error']}", file=sys.stderr)
            continue
        try:
            ok = check_cli(op, out) if workload == "cli" else check_library(op, out)
        except (ValueError, TypeError, KeyError, IndexError, AssertionError) as err:
            ok = False
            print(f"unreadable output of {workload} {op}: {err!r}", file=sys.stderr)
        if not ok:
            correct = False
            print(f"wrong output: {workload} {op}", file=sys.stderr)
    return failed, correct


def main() -> None:
    job = json.load(sys.stdin)
    failed, correct = check_lines(job["lines"], job["seed"])
    json.dump({"failed": failed, "correct": correct}, sys.stdout)


if __name__ == "__main__":
    main()
