#!/usr/bin/env python3
"""Build the archrisk libraries plus the perfbench program, then run one
workload and pass its result through.

    python3 perfbench/run.py --workload risk-analysis --seed 1 \
        --seconds 12 --trace 0

Run it from the root of a checkout.  Build trees go to $CARGO_TARGET_DIR
(default .bench_build) and run outputs (generated inputs, spans, layer
ledger, result stamp) to .bench_out/.  The last line of standard output
is the JSON result; build logs go to standard error.  See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("risk-analysis", "design-sweep", "serve-mixed")
BUILD_TYPE = "Release"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, env):
    """Run a build step with its output on stderr; fail on error."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if res.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_root):
    """Configure once, then let cmake's own dependency check decide
    what to rebuild.  Returns the perfbench binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no archrisk source tree next to perfbench/ "
             "(run from the root of a full checkout)")
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    lib_dir = os.path.join(build_root, "archrisk")
    bench_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", lib_dir,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], env)
    # ar_serve links every library perfbench calls into (core, explore,
    # mc, model, symbolic, ...), so building it builds them all.
    run_logged(["cmake", "--build", lib_dir, "-j", jobs,
                "--target", "ar_serve"], env)
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_dir,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DAR_SOURCE_DIR=" + ROOT,
                    "-DAR_LIB_DIR=" + lib_dir,
                    "-DAR_LIB_BUILD_TYPE=" + BUILD_TYPE], env)
    run_logged(["cmake", "--build", bench_dir, "-j", jobs], env)
    return os.path.join(bench_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that the input generator is a pure "
                         "function of the seed, then exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out", os.path.abspath(".bench_out")]
    # perfbench prints its JSON result as its last stdout line.
    res = subprocess.run(cmd)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
