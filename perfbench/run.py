#!/usr/bin/env python3
"""Repository benchmark: builds the simulation server and the perfbench
client from source, then runs one workload.

    python3 perfbench/run.py --workload dse-revisit --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/. With
--trace 0 the run is end to end (the server as its own process, driven
over loopback); with --trace 1 it is the traced per-layer run. Progress
goes to stderr; the last line on stdout is the JSON result. The exit code
is nonzero when the build fails or any check fails.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(source_dir):
    """Configures (once) and builds; returns the build directory."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        build_dir = build(source_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    client = os.path.join(build_dir, "perfbench_client")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        cmd = [client, "trace", *common, "--trace-out", out]
    else:
        server = os.path.join(build_dir, "edea", "example_simulation_server")
        cmd = [client, "load", *common, "--seconds", str(args.seconds),
               "--server", server]

    # Own process group: on a timeout the client and the server it spawned
    # are stopped together.
    start = time.monotonic()
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    finally:
        print(f"perfbench: run took {time.monotonic() - start:.1f} s",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
