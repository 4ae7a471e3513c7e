#!/usr/bin/env python3
"""Build and run the vmpower pipeline benchmark.

    python3 pipebench/run.py --workload meter-mixed --seed 1 --seconds 10 --trace 0

Builds pipebench/ (a CMake project that pulls in the repository's
libraries) into .bench_build/pipebench of the checkout, prints one
`context` line (date, commit, build type, nproc, command line, seed), then
runs the benchmark and relays its report. The last line of stdout is the
benchmark's JSON result. Extra flags (--ticks, --threads, --tiny,
--setup-reps) pass through to the benchmark binary.

Exits non-zero without a result when the repository's sources are missing,
the build fails, or the benchmark fails or overruns its time limit.
"""
import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "pipebench")


def build():
    """Configures once, then builds the benchmark target incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no vmpower sources beside pipebench/ "
             "(expected CMakeLists.txt and src/ at " + ROOT + ")")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler scratch stays in the checkout
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "pipebench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "pipebench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "pipebench")


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "pipebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    binary = build()
    context = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": commit(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "command": " ".join(["python3"] + sys.argv),
        "seed": args.seed,
    }
    print("context " + json.dumps(context), flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", os.path.join(ROOT, ".bench_run")] + extra
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        sys.stderr.write(error.stdout or "")
        fail("benchmark overran %d s" % RUN_TIMEOUT_S, 3)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with %d" % done.returncode, 3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1], 3)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
