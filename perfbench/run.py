#!/usr/bin/env python3
"""Build and run the versioned-store benchmark.

Usage (from the repository root):

    python3 perfbench/run.py
        --workload <read_checkout|commit_local|commit_remote|all>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

The first run configures and builds `perfbench/` (which compiles the
repository's libraries from source) into `.bench_build/perfbench`; later runs
only rebuild what changed. The benchmark binary then runs one workload:

  --trace 0  end-to-end metrics (BENCHMARK.json "end_to_end")
  --trace 1  per-layer metrics (BENCHMARK.json "per_layer"); tracing
             alternates off/on during the run and the benchmark's own spans
             are written as Chrome trace-event JSON to
             .bench_build/perfbench/out/trace-<workload>-<seed>.json

The seed fixes every input: the dataset, the op schedule and the edit
schedule. The same seed gives the same digests, which each run prints.
Keep one seed aside to confirm a claimed gain on inputs not used while the
change was written.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
sample counts, the correctness checks and every metric with its unit.
`--workload all` runs the workloads one after another, each block ending in
its own result line. The script exits non-zero, without a result line, if
the sources are missing, the build fails or the benchmark crashes or times
out.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("read_checkout", "commit_local", "commit_remote")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/CMakeLists.txt "
             "is missing)")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(ROOT, BUILD_DIR, "perfbench")


def run_workload(binary, workload, args):
    """Run one workload; print its report, ending in the JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.setdefault("ORPHEUS_LOG", "warn")  # no per-open info lines
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("benchmark exited with code %d" % result.returncode)
    try:
        verdict = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(result.stdout)
        fail("benchmark printed no result line")
    if sorted(verdict) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(verdict), flush=True)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="short run on small inputs (the self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(binary, workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
