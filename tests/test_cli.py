"""Tests for the command-line front end: outputs, formats, and exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from coinfloor import cli, verify
from coinfloor.coinproblem import weighted_sylvester_sum
from coinfloor.core import CoprimePair
from coinfloor.verify import CheckResult, Failure, TABLE1_ROWS
from oracle import gap_power_sum_bernoulli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_floorsum_plain(capsys):
    code, out, _ = run(capsys, "floorsum", "29", "23", "8")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "floorsum", "23", "4", "18")
    assert code == 0 and out.strip() == "21"


def test_floorsum_has_no_naive_flag(capsys):
    code, out, err = run(capsys, "floorsum", "29", "23", "8", "--naive")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --naive" in err


def test_verify_has_no_odd_only_flag(capsys):
    code, out, err = run(capsys, "verify", "--odd-only")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --odd-only" in err


def test_upto_and_negative_k(capsys):
    code, out, _ = run(capsys, "upto", "29", "23", "257")
    assert code == 0 and out.strip() == "60"
    code, out, _ = run(capsys, "upto", "29", "23", "-5")
    assert code == 0 and out.strip() == "0"


def test_upto_answers_huge_k_at_once(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "upto", "2", "3", "100000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out.strip() == "100000000000"


def test_frobenius_and_count(capsys):
    code, out, _ = run(capsys, "frobenius", "29", "23")
    assert code == 0 and out.strip() == "615"
    code, out, _ = run(capsys, "count", "29", "23", "667")
    assert code == 0 and out.strip() == "2"


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "floorsum", "29", "23", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "result"}
    assert doc["command"] == "floorsum"
    assert doc["inputs"] == {"a": 29, "b": 23, "d": 8}
    assert doc["result"] == 24


def test_csv_scalar_has_header(capsys):
    code, out, _ = run(capsys, "upto", "29", "23", "257", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["value"], ["60"]]


def test_best_single_and_all(capsys):
    code, out, _ = run(capsys, "best", "29", "23", "--alpha", "27")
    assert code == 0 and out.split() == ["27", "21", "615", "308"]

    code, csv_out, _ = run(capsys, "best", "29", "23", "--all", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["alpha", "beta", "k", "n0"]
    assert len(rows) == 15  # header + 14 family points
    assert rows[-1] == ["27", "21", "615", "308"]

    code, json_out, _ = run(capsys, "best", "29", "23", "--all", "--format", "json")
    doc = json.loads(json_out)
    assert len(doc["result"]) == len(rows) - 1  # json array matches csv row count
    assert doc["result"][0] == {"alpha": 1, "beta": -1, "k": -3, "n0": 0}


def test_best_all_rejects_b_not_below_a(capsys):
    for a, b in (("1", "2"), ("1", "1"), ("3", "5")):
        code, out, err = run(capsys, "best", a, b, "--all")
        assert code == 1 and out == "" and "need b < a" in err
    code, out, err = run(capsys, "best", "1", "2", "--alpha", "1")
    assert code == 1 and "need b < a" in err
    # a valid pair with no alpha of the parity of a: an empty listing
    code, out, err = run(capsys, "best", "2", "1", "--all")
    assert code == 0 and out == "" and err == ""


def test_best_all_row_limit(capsys, monkeypatch):
    # 100 001 rows is one past the limit; a row costs about 5 us to print
    code, out, err = run(capsys, "best", "200003", "3", "--all")
    assert code == 1 and out == ""
    assert "100001 rows, over the limit of 100000" in err
    monkeypatch.setattr(cli, "_BEST_ROWS_MAX", 3)
    code, out, err = run(capsys, "best", "7", "2", "--all")  # alpha = 1, 3, 5
    assert code == 0 and len(out.splitlines()) == 3
    code, out, err = run(capsys, "best", "9", "2", "--all")
    assert code == 1 and out == "" and "4 rows, over the limit of 3" in err


def test_gaps_variants(capsys):
    code, out, _ = run(capsys, "gaps", "3", "5")
    assert code == 0 and out.split() == ["1", "2", "4", "7"]
    code, out, _ = run(capsys, "gaps", "3", "5", "--sum")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "gaps", "3", "5", "--power", "2")
    assert code == 0 and out.strip() == "70"
    code, out, _ = run(capsys, "gaps", "3", "5", "--weighted", "1/2", "0")
    assert code == 0 and out.strip() == "105/64"
    code, out, _ = run(capsys, "gaps", "3", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["gap"] and len(rows) == 5


def test_gaps_listing_streams_the_bytes_of_the_whole_object(capsys):
    # one joined line, json.dumps and csv.writer over the full row list are
    # the references; (101, 103) has 5100 gaps, more than one written block
    for a, b in ((3, 5), (1, 7), (101, 103)):
        gaps = [n for n in range(a * b) if not any((n - a * x) % b == 0 for x in range(n // a + 1))]
        rows = [{"gap": n} for n in gaps]
        want_json = json.dumps({"command": "gaps", "inputs": {"a": a, "b": b}, "result": rows}) + "\n"
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["gap"])
        for row in rows:
            writer.writerow([row["gap"]])
        want_plain = " ".join(map(str, gaps)) + "\n"
        for fmt, want in (("plain", want_plain), ("json", want_json), ("csv", buf.getvalue())):
            code, out, _ = run(capsys, "gaps", str(a), str(b), "--format", fmt)
            assert code == 0 and out == want, (a, b, fmt)


def test_gaps_negative_weight(capsys):
    # argparse would read -1/2 as an option; gaps of (3, 5) are 1, 2, 4, 7
    code, out, _ = run(capsys, "gaps", "3", "5", "--weighted", "-1/2", "0")
    assert code == 0
    assert out.strip() == str(weighted_sylvester_sum(CoprimePair(3, 5), Fraction(-1, 2), 0))
    assert out.strip() == "25/64"


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coinfloor.cli", "gaps", "3", "5", "--weighted", "1/2", "0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_jacobi_methods(capsys):
    code, out, _ = run(capsys, "jacobi", "23", "29")
    assert code == 0 and out.strip() == "1"
    code, out2, _ = run(capsys, "jacobi", "23", "29", "--method", "definition")
    assert code == 0 and out2 == out
    code, out, _ = run(capsys, "jacobi", "2", "15", "--method", "definition")
    assert code == 0 and out.strip() == "1"


def test_table1_emits_reference_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert lines == [f"{a} {k} {n}" for a, k, n in TABLE1_ROWS]

    code, out, _ = run(capsys, "table1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "k", "n0"]
    assert rows[1:] == [[str(a), str(k), str(n)] for a, k, n in TABLE1_ROWS]


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "10", "10", "--suite", "jacobi")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())

    code, out, _ = run(capsys, "verify", "--grid", "10", "10", "--suite", "jacobi",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert all(row["passed"] for row in doc["result"])

    code, out, _ = run(capsys, "verify", "--grid", "10", "10",
                       "--seed", "3", "--suite", "frobenius", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_id", "cases_run", "failures", "elapsed", "passed"]


def test_verify_exit_code_2_on_failure(capsys, monkeypatch):
    fake = CheckResult(check_id="rigged", cases_run=1,
                       failures=[Failure(inputs=(("a", 1),), expected=0, actual=1)],
                       elapsed=0.0)
    monkeypatch.setattr(verify, "run_suites", lambda suite, grid: [fake])
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == 2


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "frobenius", "6", "9")
    assert code == 1 and "coprime" in err
    code, _, err = run(capsys, "jacobi", "4", "9")
    assert code == 1 and "odd" in err
    code, _, err = run(capsys, "count", "29", "23", "-1")
    assert code == 1


def test_malformed_integer_exit_1_names_argument(capsys):
    code, _, err = run(capsys, "upto", "29", "23", "abc")
    assert code == 1
    assert "k" in err and "abc" in err


def test_unknown_command_exit_1_with_usage(capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1
    assert "usage:" in err


def test_usage_error_prints_the_usage_of_the_parser_that_failed(capsys):
    code, out, err = run(capsys, "floorsum", "29", "23")
    assert code == 1 and out == ""
    assert err.startswith("usage: coinfloor floorsum")
    assert err.endswith("error: the following arguments are required: d\n")
    code, out, err = run(capsys, "nosuch")
    assert code == 1 and out == ""
    assert err.startswith("usage: coinfloor ") and not err.startswith("usage: coinfloor nosuch")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "gaps", "--help")[0] == 0


def _int_str_limit():
    # CPython's int/str conversion limit, or None where it has none
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def _no_int_str_limit():
    limit = _int_str_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_gaps_prints_results_past_the_int_str_limit(capsys):
    m = 100_000  # 7**m has 84 510 digits, past CPython's default limit of 4300
    limit = _int_str_limit()
    code, out, err = run(capsys, "gaps", "3", "5", "--power", str(m))
    assert code == 0 and err == ""
    assert _int_str_limit() == limit  # restored for an in-process caller
    with _no_int_str_limit():
        assert out.strip() == str(1 + 2**m + 4**m + 7**m)


def _timed_process(*argv: str) -> tuple[float, subprocess.CompletedProcess]:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coinfloor.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return time.perf_counter() - t0, proc


def _cli_process(*argv: str) -> tuple[float, str]:
    elapsed, proc = _timed_process(*argv)
    assert proc.returncode == 0, proc.stderr
    return elapsed, proc.stdout.strip()


def test_gap_sums_answer_at_once_as_a_process():
    # series for large pairs, the listing for few gaps and a large power
    a, b = 3001, 3011
    elapsed, out = _cli_process("gaps", str(a), str(b), "--power", "2")
    assert elapsed < 1.0 and int(out) == (a - 1) * (b - 1) * a * b * (a * b - a - b) // 12
    a, b = 10**299 + 1, 10**299 + 2
    elapsed, out = _cli_process("gaps", str(a), str(b), "--power", "4")
    assert elapsed < 1.0 and int(out) == gap_power_sum_bernoulli(a, b, 4)
    elapsed, out = _cli_process("gaps", "301", "311", "--weighted", "1/2", "1")
    with _no_int_str_limit():
        value = Fraction(out)
    assert elapsed < 1.0 and value.denominator == 2 ** (301 * 311 - 301 - 311 - 1)
    elapsed, out = _cli_process("gaps", "3", "5", "--power", "2000")
    assert elapsed < 1.0 and int(out) == 1 + 2**2000 + 4**2000 + 7**2000
    elapsed, out = _cli_process("gaps", "3", "5", "--weighted", "1/2", "500")
    want = sum(Fraction(1, 2) ** (n - 1) * n**500 for n in (1, 2, 4, 7))
    assert elapsed < 1.0 and Fraction(out) == want


def test_verify_past_its_grid_limit_is_refused_at_once():
    # the split-parity checks alone would run about 2.5e17 cases
    elapsed, proc = _timed_process("verify", "--grid", "2", "1000000000")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "limit of 3384831" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_thin_grid_past_its_gauss_lemma_term_is_refused_at_once():
    # max(A, B)**2 * min(A, B) is under 150**3 here, but gauss_lemma_sign's
    # residue counts over the primes to 1299 took 8 s of a 9 s pass
    elapsed, proc = _timed_process("verify", "--grid", "2", "1299")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "limit of 3384831" in proc.stderr and "Traceback" not in proc.stderr


def test_jacobi_by_definition_past_its_budget_is_refused_at_once():
    # factorizing an 80-digit denominator by trial division would not finish
    elapsed, proc = _timed_process("jacobi", "3", str(10**79 + 1), "--method", "definition")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "budget of 100000000000000" in proc.stderr and "Traceback" not in proc.stderr


def test_weighted_sum_past_the_output_budget_is_refused_at_once():
    # the result would have about 2 million bits; printing it took 3.5 s
    elapsed, proc = _timed_process("gaps", "1001", "1003", "--weighted", "1/2", "1")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "budget of 262144 bits" in proc.stderr and "Traceback" not in proc.stderr


def test_gap_power_sum_past_the_work_budget_is_refused_at_once():
    # m**2 is over the 500 500 gaps, so this would sum 500 500 powers of
    # about 6 000 digits each: killed at 15 s before the budget
    elapsed, proc = _timed_process("gaps", "1001", "1003", "--power", "1000")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "work budget of 100000000000" in proc.stderr and "Traceback" not in proc.stderr


def test_listings_past_their_limits_are_refused_at_once():
    # 4.5e8 gaps and 5e6 rows: neither command finished in 10 s unlimited
    elapsed, proc = _timed_process("gaps", "30011", "30013")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "listing limit of 1000000" in proc.stderr and "Traceback" not in proc.stderr
    elapsed, proc = _timed_process("best", "10000001", "3", "--all")
    assert elapsed < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert "over the limit of 100000" in proc.stderr and "Traceback" not in proc.stderr
