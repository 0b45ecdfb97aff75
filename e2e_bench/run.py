#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2e_bench/run.py --workload batch_text --seed 1 --seconds 30 \
        --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/, and is
incremental after the first run. The workload's scratch files live under
<build>/work/ and are removed when the run ends; a traced run leaves its
spans in <build>/spans/<workload>.json. The last line of standard output is
the JSON result the benchmark binary prints.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_mbt", "batch_text", "analyze_unique", "serve_submit")
# A run measures for --seconds plus its set-up; anything far beyond that is a
# hang, and the benchmark must end well within three minutes.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so standard output carries only the benchmark's report."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("benchmark build failed", file=sys.stderr)
        return 1

    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(out, "spans", args.workload + ".json")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [
        os.path.join(out, "e2e_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--spans", spans,
        "--scale", args.scale,
    ]
    try:
        # On timeout subprocess.run kills the benchmark and waits for it.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
