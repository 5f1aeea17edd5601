#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library under src/ it links) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root), then runs one workload. The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}; the exit
code is nonzero when the build fails, a correctness gate fails or the run
overruns its time limit. --self-test runs the span-arithmetic check and a
short traced and untraced run of every workload, which must pass every gate
and report exactly the metrics BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175  # the whole run, build check included, must end within 180 s
BUILD_LIMIT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ next to {HERE}: run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
        if r.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def source_revision():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(binary, args, limit):
    """Run the benchmark binary, echo its output, return (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {limit:.0f} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode, stdout


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, _ = run(binary, ["--self-test"], RUN_LIMIT_S)
    if code != 0:
        fail("span arithmetic self-test failed")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "2",
                    "--trace", trace]
            code, stdout = run(binary, args, RUN_LIMIT_S)
            result = json.loads(stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or got != want:
                fail(f"self-test: {workload} --trace {trace} failed "
                     f"(exit {code}, metrics match: {got == want})")
            print(f"self-test: {workload} --trace {trace} ok", file=sys.stderr)
    print("self-test: ok", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    started = time.monotonic()
    binary = build()
    if opts.self_test:
        self_test(binary)
        return 0
    if not opts.workload:
        fail("--workload is required")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", opts.trace,
            "--commit", source_revision()]
    # A first run that had to build gets the full limit for the run itself.
    limit = RUN_LIMIT_S - min(time.monotonic() - started, 30)
    code, _ = run(binary, args, limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
