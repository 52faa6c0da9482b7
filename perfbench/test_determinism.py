#!/usr/bin/env python3
"""Determinism self-check for perfbench (short mode).

    python3 perfbench/test_determinism.py

For every workload, runs the traced short mode twice with one seed and
once with another, through perfbench/run.py. Checks that:
  * every run is correct (no failed operations) and prints exactly the
    metric names and units BENCHMARK.json declares;
  * every count metric is identical across the two same-seed runs;
  * the untraced short mode prints exactly the end-to-end metrics.
Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-range", "ingest-cascade", "wire-zipf")

# Metrics that are counts (or ratios of counts) over a fixed op prefix:
# they must repeat exactly for one seed.
COUNT_METRICS = (
    "dtw.cells_per_op", "dtw.evals_per_op", "rtree.nodes_per_op",
    "rtree.candidate_ratio", "storage.pages_per_op",
    "core.matches_per_candidate", "plan.feature_lb_pass_rate",
    "plan.lb_keogh_pass_rate", "plan.lb_improved_pass_rate",
    "shard.shards_searched_per_op", "ingest.compactions",
    "ingest.rows_rebuilt_per_row_written", "ingest.delta_rows_mean",
    "net.subrequests_per_op", "net.retries", "net.hedges",
    "net.failed_subrequests", "net.request_bytes_per_op",
    "net.response_bytes_per_op", "cache.hit_ratio",
    "cache.evictions_per_op", "cache.invalidations_per_write",
    "failed_op_ratio",
)
MUST_BE_ZERO = ("net.retries", "net.hedges", "net.failed_subrequests",
                "failed_op_ratio")


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--quick"]
    out = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                         text=True, cwd=ROOT, timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_shape(result: dict, declared: list, label: str) -> None:
    if not result["correct"] or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in declared]
    if got != want:
        fail(f"{label}: metrics {got} != declared {want}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        first = run(workload, 7, 1)
        second = run(workload, 7, 1)
        other = run(workload, 8, 1)
        untraced = run(workload, 7, 0)
        for label, result in (("seed 7", first), ("seed 7 again", second),
                              ("seed 8", other)):
            check_shape(result, spec["per_layer"], f"{workload} {label}")
        check_shape(untraced, spec["end_to_end"], f"{workload} untraced")
        for name in COUNT_METRICS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} differs across same-seed runs: "
                     f"{a} != {b}")
        for name in MUST_BE_ZERO:
            if first["metrics"][name]["value"] != 0:
                fail(f"{workload}: {name} = {first['metrics'][name]['value']}")
        print(f"ok {workload}: {len(COUNT_METRICS)} count metrics repeat")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
