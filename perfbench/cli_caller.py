"""The caller process of the cli workload.

Reads a JSON job on stdin (`rounds` of argument lists, `seconds`,
`min_ops`), starts one `python -m coinfloor.cli` process at a time in
whole rounds, and writes one JSON line per call,
`["cli", round, index, latency_us, [exit code, stdout]]`, then a last line
with the phase length, the machine-speed probes and the largest peak RSS
of a CLI process.

It runs under `python -S` and imports little on purpose: Linux charges
the peak RSS of the process that starts a child to the child's own
`ru_maxrss`, so the caller's footprint (about 10 MiB) must stay below that
of any interpreter it starts.
"""

import json
import os
import sys
from time import perf_counter

from machine import probe_s


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def call(argv: list[str]) -> tuple[float, int, str, str, int]:
    """(latency in us, exit code, stdout, stderr, peak RSS in KiB) of one CLI process."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "coinfloor.cli", *argv], os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2),
                                       (os.POSIX_SPAWN_CLOSE, out_r), (os.POSIX_SPAWN_CLOSE, err_r)])
    os.close(out_w)
    os.close(err_w)
    out = _read_all(out_r)  # a CLI call writes little to stderr, so this cannot block on it
    err = _read_all(err_r)
    _, status, usage = os.wait4(pid, 0)
    return (perf_counter() - t0) * 1e6, os.waitstatus_to_exitcode(status), out.decode(), err.decode(), usage.ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    rounds = job["rounds"]
    done = r = peak_kib = 0
    probes: list[float] = []  # one after each call, which takes about PROBE_EVERY_S
    start = perf_counter()
    while perf_counter() - start - sum(probes) < job["seconds"] or done < job["min_ops"]:
        if r == len(rounds):
            sys.exit("cli_caller: ran out of rounds")
        for i, argv in enumerate(rounds[r]):
            us, code, out, err, rss = call(argv)
            peak_kib = max(peak_kib, rss)
            result = [code, out] if not err else {"error": err.strip().splitlines()[-1]}
            sys.stdout.write(json.dumps(["cli", r, i, us, result]) + "\n")
            done += 1
            probes.append(probe_s())
        r += 1
    phase = perf_counter() - start - sum(probes)
    sys.stdout.write(json.dumps({"phase_s": phase, "probes": probes, "peak_mib": peak_kib / 1024}) + "\n")


if __name__ == "__main__":
    main()
