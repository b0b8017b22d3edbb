"""The workload process: calls coinfloor on generated inputs and reports.

Reads a JSON job on stdin and writes one JSON line per operation,
`[workload, round, index, latency_us, output]`, then a last line with the
length of the timed phase (and, for a traced job, the per-layer metrics).
Outputs are written as they come, so the process holds no more than one
at a time.  Started by run.py with `src` on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import inputs
from machine import Prober
from refs import digest
from tracer import LAYERS, Tracer

from coinfloor import cli, coinproblem as cp, core, floorsum as fs, jacobi, verify

# Operations of one traced slice of each workload.
TRACE_ROUNDS = {"kernel": 10, "counts": 2, "verify": 1, "cli": 1}


def _pair(a, b):
    return core.CoprimePair(a, b)


def _verify(a_max, b_max, seed):
    results = verify.run_suites("all", verify.GridSpec(a_max, b_max, seed=seed))
    return [[r.check_id, r.cases_run, r.passed, r.elapsed] for r in results]


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


# kind -> call into the program, returning a JSON-ready output; looked up
# through the modules at call time so that traced bindings are used
PROGRAM = {
    "floorsum": lambda a, b, d: fs.fast_floor_sum_steps(a, b, d)[0],
    "reciprocity": lambda a, b, d: fs.reciprocity_residual(a, b, d),
    "strong": lambda a, b: fs.strong_residual(a, b),
    "gauss": lambda p, q: fs.gauss_residual(p, q),
    "eisenstein": lambda a, b: jacobi.jacobi_eisenstein(a, b),
    "jacobi_reciprocity": lambda a, b: jacobi.jacobi_reciprocity_check(a, b),
    "member": lambda a, b, n: cp.is_representable(_pair(a, b), n),
    "solutions": lambda a, b, n: cp.representation_count(_pair(a, b), n).count,
    "family": lambda a, b, alpha: list(vars(cp.best_family_point(_pair(a, b), alpha)).values()),
    "best2": lambda a, b, d: list(cp.best2_count(_pair(a, b), d)),
    "upto": lambda a, b, k: cp.count_representable_upto(_pair(a, b), k),
    "lattice": lambda a, b, t: cp.count_lattice_3var(_pair(a, b), t),
    "gaps": lambda a, b: cp.nonrepresentable_set(_pair(a, b)).gaps,
    "power": lambda a, b, m: cp.sylvester_sum_power(_pair(a, b), m),
    "weighted": lambda a, b, lam, m: cp.weighted_sylvester_sum(_pair(a, b), Fraction(lam), m),
    "verify": _verify,
}


def run_op(workload: str, op: list, call=None):
    """(latency in us, output) of one operation; the output is made
    JSON-ready outside the timed region."""
    fn, args = (_cli, op) if workload == "cli" else (PROGRAM[op[0]], op[1:])
    t0 = perf_counter()
    try:
        out = call(workload, fn, *args) if call else fn(*args)
    except Exception as err:  # a failed operation is reported, not fatal
        return (perf_counter() - t0) * 1e6, {"error": f"{type(err).__name__}: {err}"}
    us = (perf_counter() - t0) * 1e6
    if workload != "cli" and op[0] == "gaps":
        out = digest(out)
    elif isinstance(out, Fraction):
        out = [out.numerator, out.denominator]
    return us, out


def peak_rss_mib() -> float:
    """This process's own peak RSS.  VmHWM belongs to the address space
    made at exec; ru_maxrss also counts the parent's peak before exec."""
    try:
        with open("/proc/self/status") as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource

        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024


def emit(line) -> None:
    sys.stdout.write(json.dumps(line) + "\n")


def timed(job: dict) -> None:
    workload, seed = job["workload"], job["seed"]
    make_round = inputs.ROUNDS[workload]
    done = r = 0
    with Prober() as prober:
        start = perf_counter()
        while perf_counter() - start - prober.spent < job["seconds"] or done < job["min_ops"]:
            for i, op in enumerate(make_round(seed, r)):
                before = prober.spent
                us, out = run_op(workload, op)
                emit([workload, r, i, us - (prober.spent - before) * 1e6, out])
                done += 1
            r += 1
        phase = perf_counter() - start - prober.spent
    emit({"phase_s": phase, "probes": prober.probes, "peak_mib": peak_rss_mib()})


def traced(job: dict) -> None:
    seed = job["seed"]
    tracer = Tracer()
    ratios, cli_us, reported, cases = {}, [], 0.0, 0
    for workload, rounds in TRACE_ROUNDS.items():
        ops = [(r, i, op) for r in range(rounds) for i, op in enumerate(inputs.ROUNDS[workload](seed, r))]
        spent = {"plain": 0.0, "traced": 0.0}
        # untraced on both sides of the traced pass, so that warm-up is not
        # charged to either side
        for mode in ("plain", "traced", "plain"):
            if mode == "traced":
                tracer.install()
            for r, i, op in ops:
                us, out = run_op(workload, op, tracer.op if mode == "traced" else None)
                spent[mode] += us
                emit([workload, r, i, us, out])
                if workload == "cli" and mode == "plain":
                    cli_us.append(us)
                if workload == "verify" and mode == "traced":
                    reported += sum(row[3] for row in out)
                    cases += sum(row[1] for row in out)
            tracer.uninstall()
        ratios[workload] = 2 * spent["traced"] / spent["plain"]
    layers = tracer.layers
    metrics = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = layer.calls
        metrics[f"{name}.busy_s"] = layer.busy
    fsl = layers["floorsum"]
    metrics["floorsum.us_per_call"] = fsl.busy / fsl.calls * 1e6
    metrics["floorsum.rounds_per_call"] = tracer.rounds[1] / tracer.rounds[0]
    for bucket, (calls, busy) in tracer.sizes.items():
        metrics[f"floorsum.us_per_call.{bucket}"] = busy / calls * 1e6
    metrics["coinproblem.gaps.listed"] = tracer.gaps_listed
    chains = [n for n in LAYERS if n.startswith("verify.")]
    metrics["verify.self_s"] = sum(layers[n].busy - layers[n].child for n in chains)
    metrics["verify.cases"] = cases
    verify_ops = {k for k, name in enumerate(tracer.ops) if name == "verify"}
    measured = sum(t1 - t0 for name, t0, t1, k in tracer.spans if k in verify_ops and name in chains)
    metrics["verify.elapsed_reported_over_measured"] = reported / measured
    metrics["cli.main_us"] = statistics.median(cli_us)
    for workload, ratio in ratios.items():
        metrics[f"trace.overhead_ratio.{workload}"] = ratio
    with open(job["trace_file"], "w") as fh:
        json.dump({"metrics": metrics, "ops": tracer.ops,
                   "spans": [list(s) for s in tracer.spans]}, fh)
    emit({"metrics": metrics})


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    job = json.load(sys.stdin)
    (traced if job["trace"] else timed)(job)


if __name__ == "__main__":
    main()
