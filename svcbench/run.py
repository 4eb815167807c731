#!/usr/bin/env python3
"""Build and run the service benchmark.

    python3 svcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the `svcbench` binary (Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The binary's statistics self-test runs before every
measurement. Everything written stays under the build directory.

The last line of standard output is the binary's JSON result. The exit
code is non-zero when the build, the self-test or any correctness check
fails, or when the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("warm_compile", "mixed_simulate")
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    """Configure once, then build the binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "svcbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(exist_ok=True)
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"svcbench: build failed (see {log})")
    return build_dir / "svcbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "svcbench")
    binary = build(bench_dir, build_dir)

    out_dir = build_dir / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    if subprocess.run([str(binary), "--self-test"], timeout=60).returncode:
        print("svcbench: statistics self-test failed", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"svcbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
