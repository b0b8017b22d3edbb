"""Benchmark for coinfloor: four closed-loop workloads and a traced run.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Run from a plain checkout: `src` goes on the path, nothing is installed.
Each workload runs in its own process with one caller that waits for
every reply; `cli` starts one `python -m coinfloor.cli` process at a time.
Every output is checked against perfbench/refs.py.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`); the line before it holds the raw timings.  `--workload all`
runs the four workloads in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path

import inputs
import refs
from machine import probe_s, slowdown

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(inputs.ROUNDS)
# Operations a run completes at least, so that ten samples lie beyond p90.
MIN_OPS = {"kernel": 100, "counts": 100, "verify": 1, "cli": 100}
SETUP_SHOTS = 8  # before the timed phase, and as many after it
CHECK_PROCESSES = 2
# What each workload imports and builds before its first operation.
SETUP_CODE = {
    "kernel": "import coinfloor.core, coinfloor.floorsum, coinfloor.coinproblem, coinfloor.jacobi",
    "counts": "import coinfloor.core, coinfloor.coinproblem",
    "verify": "import coinfloor.verify as v; v.GridSpec(*{grid}, seed={seed})",
    "cli": "import coinfloor.cli",
}
SETUP_TIMER = "import time; t = time.perf_counter(); {code}; print(time.perf_counter() - t)"
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_p90_us": "us", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def fresh_import_s(code: str, shots: int, probes: list[float] | None = None) -> list[float]:
    """Seconds a fresh interpreter spends on `code`, once per shot; a
    machine-speed probe follows each shot when `probes` is given."""
    times = []
    for _ in range(shots):
        out = subprocess.run([sys.executable, "-c", SETUP_TIMER.format(code=code)], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode:
            raise RuntimeError(f"set-up timing failed:\n{out.stderr}")
        times.append(float(out.stdout))
        if probes is not None:
            probes.append(probe_s())
    return times


def run_child(script: str, job: dict, flags: tuple = ()) -> tuple[list, dict]:
    """Run a perfbench script on `job`; return its operation lines and its last line."""
    proc = subprocess.Popen([sys.executable, *flags, str(ROOT / "perfbench" / script)], cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        with proc.stdin:
            proc.stdin.write(json.dumps(job))
        with proc.stdout:
            lines = [json.loads(line) for line in proc.stdout]
    finally:
        proc.wait()
    if proc.returncode or not lines or not isinstance(lines[-1], dict):
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return lines[:-1], lines[-1]


def run_cli(seed: int, seconds: float) -> tuple[list, dict]:
    # a CLI call costs at least 50 ms, so a round of 24 at least 1.2 s
    rounds = [inputs.cli_round(seed, r) for r in range(ceil(seconds / 1.2) + ceil(MIN_OPS["cli"] / 24) + 1)]
    job = {"rounds": rounds, "seconds": seconds, "min_ops": MIN_OPS["cli"]}
    return run_child("cli_caller.py", job, ("-S",))


def check(lines: list, seed: int) -> tuple[int, int, bool]:
    """(attempted, failed, every output that did not fail is right).

    Runs after the timed phase in CHECK_PROCESSES checks.py processes: at
    large operands the references cost about as much as the program."""
    procs = [subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "checks.py")], cwd=ROOT,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for _ in range(CHECK_PROCESSES)]
    try:
        for k, proc in enumerate(procs):
            with proc.stdin:
                json.dump({"seed": seed, "lines": lines[k::CHECK_PROCESSES]}, proc.stdin)
        results = []
        for proc in procs:
            with proc.stdout:
                results.append(json.load(proc.stdout))
    finally:
        for proc in procs:
            proc.wait()
    if any(proc.returncode for proc in procs):
        raise RuntimeError("checks.py failed")
    return len(lines), sum(r["failed"] for r in results), all(r["correct"] for r in results)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def measure(workload: str, seed: int, seconds: float) -> dict:
    setup_code = SETUP_CODE[workload].format(grid=inputs.VERIFY_GRID, seed=seed)
    fresh_import_s(setup_code, 1)  # byte-compiles a fresh checkout; not counted
    setup_probes: list[float] = []
    setup = fresh_import_s(setup_code, SETUP_SHOTS, setup_probes)
    if workload == "cli":
        lines, last = run_cli(seed, seconds)
    else:
        job = {"workload": workload, "seed": seed, "seconds": seconds,
               "min_ops": MIN_OPS[workload], "trace": False}
        lines, last = run_child("worker.py", job)
    setup += fresh_import_s(setup_code, SETUP_SHOTS, setup_probes)
    attempted, failed, correct = check(lines, seed)
    latencies = sorted(line[3] for line in lines)
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (attempted - failed) / last["phase_s"],
        "op_p50_us": statistics.median(latencies),
        "op_p90_us": percentile(latencies, 0.9),
    }
    slow = {"setup": slowdown(setup_probes), "phase": slowdown(last["probes"])}
    values = {
        "setup_s": raw["setup_s"] / slow["setup"],
        "ops_per_s": raw["ops_per_s"] * slow["phase"],
        "op_p50_us": raw["op_p50_us"] / slow["phase"],
        "op_p90_us": raw["op_p90_us"] / slow["phase"],
        "peak_rss_mib": last["peak_mib"],
    }
    print(json.dumps({"workload": workload, "raw": raw, "slowdown": slow}))
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(seed: int) -> dict:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    job = {"workload": "all", "seed": seed, "trace": True,
           "trace_file": str(out_dir / f"trace-{seed}.json")}
    lines, last = run_child("worker.py", job)
    attempted, failed, correct = check(lines, seed)
    values = dict(last["metrics"])
    values["cli.import_ms"] = statistics.median(fresh_import_s(SETUP_CODE["cli"], 6)[1:]) * 1e3
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(values.items())}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".cases", "count"), (".listed", "count"),
                         ("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("rounds_per_call", "rounds")):
        if name.endswith(suffix):
            return unit
    return "us" if ".us_per_call" in name else "ratio"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coinfloor" / "__init__.py").is_file():
        print(f"perfbench: no coinfloor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    refs.self_test()
    if args.trace:  # one traced run covers every workload
        print(json.dumps(measure_traced(args.seed)), flush=True)
        return 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = measure(workload, args.seed, args.seconds)
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
