"""Smoke test of the benchmark itself, on a few items per workload.

    python3 perfbench/smoke.py

For every workload it runs run.py twice plain and twice traced, each time
with three items per pass, and checks that

  * the last line of stdout is the result object, correct, with no failure;
  * every metric BENCHMARK.json names is present with its unit;
  * the item digests (and the final cache file) are identical across the
    two plain runs;
  * the traced counts are identical across the two traced runs.

Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
LIMIT = 3
EXACT_UNITS = ("count", "B", "ratio")


def run(workload, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
        "--seconds", "1", "--trace", str(trace), "--limit", str(LIMIT),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    if proc.returncode:
        sys.exit(f"{workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"run-{workload}-seed{workloads.DEFAULT_SEED}-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def check(condition, message):
    if not condition:
        sys.exit(f"smoke test failed: {message}")


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            (first, first_record), (second, second_record) = run(workload, trace), run(workload, trace)
            for result in (first, second):
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
                check(result["correct"] and result["failed"] == 0, f"{workload}: {first_record['problems'][:3]}")
                check(result["attempted"] >= 1, f"{workload}: nothing attempted")
                for metric in declared:
                    got = result["metrics"].get(metric["name"])
                    check(got is not None and got["unit"] == metric["unit"], f"{workload}: {metric['name']}")
            if trace:
                exact = {m["name"] for m in declared if m["unit"] in EXACT_UNITS}
                differ = sorted(
                    name for name in exact if first["metrics"][name] != second["metrics"][name]
                )
                check(not differ, f"{workload}: traced counts differ across runs: {differ}")
            else:
                def outputs(record):
                    return [([r["digest"] for r in p["items"]], p.get("cache_sha256")) for p in record["passes"]]

                check(outputs(first_record)[0] == outputs(second_record)[0], f"{workload}: digests differ across runs")
            print(f"{workload} trace={trace}: ok ({first['attempted']} items attempted)")
    print("smoke test passed")


if __name__ == "__main__":
    main()
