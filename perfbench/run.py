#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload paper-range --seed 1 --seconds 45 --trace 0

Configures and builds perfbench/ (the warpindex library from src/ plus
perfbench_runner) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set, then runs one workload. The
last line of standard output is the result object; everything the build
prints goes to standard error. Exits non-zero, without a result, if the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-range", "ingest-cascade", "wire-zipf")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build_root() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the runner; returns its path."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench_runner"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short fixed-count mode used by the self-check")
    args = parser.parse_args()

    root = build_root()
    try:
        runner = build(root / "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1

    work_dir = root / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(runner), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--work_dir={work_dir}"]
    if args.quick:
        command.append("--quick")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except (subprocess.TimeoutExpired, OSError) as err:
        print(f"perfbench run failed: {err}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench runner exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
