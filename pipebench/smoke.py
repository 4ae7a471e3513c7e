#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark itself.

    python3 pipebench/smoke.py

Runs every workload of BENCHMARK.json, and query-fanout, at a tiny size
(--tiny, a fixed number of rounds) through pipebench/run.py and asserts
three things:

  1. every metric BENCHMARK.json names is printed with its unit — the
     end-to-end ones by the untraced run, the per-layer ones by the traced
     run;
  2. every correctness gate passes and no query fails;
  3. the same seed at 1 and 4 engine threads leaves identical tenant and
     host ledgers (the byte-identity contract), compared by digest.

Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TICKS = "96"  # > the tiny ring (32) plus the hot window's reach.
# Workloads the benchmark defines beyond those BENCHMARK.json lists; they
# are held to the same checks.
EXTRA_WORKLOADS = ["query-fanout"]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "30",
               "--trace", str(trace), "--tiny", "--ticks", TICKS,
               "--setup-reps", "1"] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s%s" % (
            " ".join(command), done.returncode, done.stdout, done.stderr))
    return done.stdout


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    for name in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            output = run(name, trace)
            result = json.loads(output.rstrip("\n").split("\n")[-1])
            for metric in spec[key]:
                printed = result["metrics"].get(metric["name"])
                check(failures, printed is not None,
                      "%s trace=%d: %s not printed" % (name, trace, metric["name"]))
                check(failures, printed is None or printed["unit"] == metric["unit"],
                      "%s trace=%d: %s has unit %s, want %s" % (
                          name, trace, metric["name"],
                          printed and printed["unit"], metric["unit"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            check(failures, not extra,
                  "%s trace=%d: unlisted metrics %s" % (name, trace, sorted(extra)))
            check(failures, result["correct"],
                  "%s trace=%d: a correctness gate failed:\n%s" % (
                      name, trace, "\n".join(
                          l for l in output.split("\n") if l.startswith("gate "))))
            check(failures, result["attempted"] > 0 and result["failed"] == 0,
                  "%s trace=%d: %d of %d queries failed" % (
                      name, trace, result["failed"], result["attempted"]))

        digests = {}
        for threads in ("1", "4"):
            output = run(name, 0, "--threads", threads)
            found = re.search(r"^digest ([0-9a-f]+)", output, re.M)
            digests[threads] = found.group(1) if found else None
        check(failures, digests["1"] is not None and digests["1"] == digests["4"],
              "%s: ledger digest differs across thread counts: %s" % (name, digests))
        print("%-13s checked (digest %s)" % (name, digests["1"]), flush=True)

    for failure in failures:
        print("FAIL " + failure)
    print("smoke: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
