"""The sylowbranch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each pass of a workload runs in a fresh interpreter (perfbench/worker.py)
with cold memos, because a command-line user pays for filling them on every
invocation; items that are invocations of their own run in forked children
with empty memos.  Timed passes are calibrated for the machine's speed
(calibrate.py).  Passes repeat, one at a time, until the next one would end
past --seconds.  The child environment drops SYLOW_BRANCH_BUDGET, so that a
caller's setting cannot change the oracle's work.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it runs one plain and one traced pass and reports the
per-layer metrics (tracer.py), the tracing overhead and the written
predictions.  Every item's output is digested outside the timed calls and
checked against perfbench/references/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references"
SETUP_PROBES = 9
RUN_TIMEOUT_S = 170
TAIL_LADDER = (99, 95, 90, 75, 50)
# About the time of calibrate.py's kernel on the machine the baseline in
# README.md was measured on, when it was quiet, so that calibrated times
# read as times there.
REFERENCE_KERNEL_S = 0.0025


class ChildFailed(RuntimeError):
    pass


def now():
    # CLOCK_MONOTONIC is system-wide, so a child's ready time and the
    # parent's spawn time are on one clock.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, mode, **extra):
    """Run one worker to completion; return (report, spawn time, end time).

    A worker still running at args.deadline is killed and the run fails.
    """
    cmd = [
        sys.executable, "-s", str(BENCH / "worker.py"),
        "--root", str(ROOT), "--seed", str(args.seed), "--mode", mode,
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = {k: v for k, v in os.environ.items() if k != "SYLOW_BRANCH_BUDGET"}
    # String-hash randomisation moves dict and set timings by several
    # percent from one interpreter to the next; one fixed seed keeps that
    # out of the run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    start = now()
    # In a process group of its own, so that a worker past the deadline is
    # killed together with the calibrator and forked item it may have running.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(args.deadline - start, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} worker still running {RUN_TIMEOUT_S} s into the run") from None
    end = now()
    lines = stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise ChildFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), start, end


def load_references():
    with open(REFERENCES / "items.json", encoding="utf-8") as fh:
        items = json.load(fh)
    with open(REFERENCES / "seeds.json", encoding="utf-8") as fh:
        seeds = json.load(fh)
    return items, seeds


class Checker:
    """Compares every pass with the references and with the other passes."""

    def __init__(self, args, refs):
        self.refs, self.seed_refs = refs
        self.seed_ref = self.seed_refs.get(str(args.seed), {}).get(args.workload)
        self.limit = args.limit
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._first = None

    def cache_entries(self, entries, where):
        want = self.refs["cache_entries"]
        bad = sorted(key for key, d in entries.items() if want.get(key) != d)
        if bad:
            self.problems.append(f"{where}: {len(bad)} cache entries differ from the reference, e.g. {bad[0]}")

    def add_pass(self, report):
        digests = [r["digest"] for r in report["items"]]
        for r in report["items"]:
            self.attempted += 1
            want = self.refs["items"].get(r["id"])
            if r["error"] is not None:
                self.failed += 1
                self.problems.append(f"{r['id']}: {r['error']}")
            elif want is None:
                self.failed += 1
                self.problems.append(f"{r['id']}: no reference digest")
            elif r["digest"] != want:
                self.failed += 1
                self.problems.append(f"{r['id']}: digest {r['digest']} != reference {want}")
        if "cache_entries" in report:
            self.cache_entries(report["cache_entries"], "final cache file")
        summary = (digests, report.get("cache_sha256"))
        if self._first is None:
            self._first = summary
        elif summary != self._first:
            self.problems.append("passes of one run differ in their outputs")
        if self.seed_ref is not None and self.limit is None:
            if digests != self.seed_ref["digests"]:
                self.problems.append("item digests differ from the committed seed reference")
            if report.get("cache_sha256") != self.seed_ref.get("cache_sha256"):
                self.problems.append("final cache file differs from the committed seed reference")

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def percentile(values, q):
    if q is None or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(latencies, q):
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": percentile(latencies, q) * 1e3,
    }


def pass_speed(report):
    """REFERENCE_KERNEL_S over the mean kernel time sampled in a pass.

    The slowest and fastest tenth of the samples are left out: a sample
    the scheduler preempted reads several times its length, and a few of
    them would set the mean.
    """
    kernel = sorted(report["kernel_samples"])
    cut = len(kernel) // 10
    kept = kernel[cut : len(kernel) - cut]
    return REFERENCE_KERNEL_S * len(kept) / sum(kept)


def prepare(args, checker, work):
    """Write the items drawn for the seed, and cache-cli's initial cache file.

    Inputs are drawn once per run, here, so that the workers' set-up time is
    the program's: interpreter start, imports and reading this file.
    """
    work.mkdir(parents=True, exist_ok=True)
    inputs = {
        "items": [[workloads.item_id(it), it] for it in workloads.items(args.workload, args.seed)][: args.limit],
    }
    if args.workload == "cache-cli":
        inputs["fill"] = workloads.cache_plan(args.seed)[0]
    files = {"inputs": work / "inputs.json"}
    with open(files["inputs"], "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    if args.workload == "cache-cli":
        files["cache_src"] = work / "initial-cache.json"
        files["cache_file"] = work / "cache.json"
        report, _, _ = spawn(args, "prepare-cache", inputs=files["inputs"], cache_file=files["cache_src"])
        checker.cache_entries(report["entries"], "initial cache file")
    return files


def run_plain(args, checker, files):
    setups = []
    for _ in range(SETUP_PROBES):
        report, start, _ = spawn(args, "probe", **files)
        setups.append(report["ready"] - start)
    passes = []
    begin = now()
    while True:
        report, start, end = spawn(args, "pass", **files)
        setups.append(report["ready"] - start)
        passes.append(report)
        checker.add_pass(report)
        elapsed = end - begin
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    # Times are calibrated: scaled by their pass's machine speed (pass_speed),
    # which takes out most of the machine's own drift from run to run.
    # Setup probes sample no speed, so they take the run's median pass speed.
    speeds = [pass_speed(p) for p in passes]
    # Each item's latency is its median over the passes, so that the
    # statistics below mean the same whether one pass fits or three.
    latencies = [
        statistics.median(p["items"][i]["latency_s"] * speed for p, speed in zip(passes, speeds))
        for i in range(len(passes[0]["items"]))
    ]
    raw = [statistics.median(p["items"][i]["latency_s"] for p in passes) for i in range(len(latencies))]
    q = tail_percentile(len(latencies))
    values = latency_metrics(latencies, q)
    values["setup_s"] = statistics.median(setups) * statistics.median(speeds)
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    beyond = sum(1 for x in latencies if x * 1e3 > values["item_tail_ms"])
    tail = f"p{q}" if q else "max"
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(latencies)} items; "
        + "; ".join(f"{k}={v:.6g}" for k, v in values.items())
        + f"; item_tail_ms is the {tail} of {len(latencies)} items ({beyond} beyond it)"
        + f"; fail_frac={checker.failed / max(checker.attempted, 1):.6g} ({checker.failed}/{checker.attempted})"
    )
    uncalibrated = latency_metrics(raw, q)
    uncalibrated["setup_s"] = statistics.median(setups)
    print(
        "uncalibrated: "
        + "; ".join(f"{k}={v:.6g}" for k, v in uncalibrated.items())
        + f"; machine speed {', '.join(f'{s:.3f}' for s in speeds)} of the reference"
    )
    return values, passes


def predictions(workload, m):
    """The predictions written down before measuring, checked on this trace."""
    layer_self = {k: v for k, v in m.items() if k.endswith(".self_s") and not k.startswith("bench.")}
    top = max(layer_self, key=layer_self.get)
    lines = [f"largest self time: {top} = {layer_self[top]:.3f} s"]
    if workload == "full-tower":
        verdict = "held" if top == "tower.orbit.self_s" else "FAILED"
        lines.append(f"tower.orbit has the largest self time on full-tower: {verdict}")
    if workload == "lin-sweep":
        n = m["tower.orbit.calls"]
        lines.append(f"tower.orbit.calls is 0 on lin-sweep: {'held' if n == 0 else 'FAILED'} ({n})")
    if workload == "cache-cli":
        total = m["bench.traced_pass_s"]
        shares = {
            "engine.load_cache with children": m["engine.load_cache.incl_s"],
            "engine.save_cache with children": m["engine.save_cache.incl_s"],
        }
        shares["everything else"] = total - sum(shares.values())
        verdict = "held" if max(shares, key=shares.get) == "engine.load_cache with children" else "FAILED"
        lines.append(
            f"engine.load_cache with its children takes the largest share of cache-cli: {verdict} ("
            + ", ".join(f"{k} {v / total:.1%}" for k, v in shares.items()) + f" of {total:.3f} s)"
        )
    return lines


def run_traced(args, checker, files):
    plain, _, _ = spawn(args, "plain", **files)
    checker.add_pass(plain)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    traced, _, _ = spawn(args, "traced", trace_out=spans, **files)
    checker.add_pass(traced)
    values = dict(traced["layers"])
    values["bench.plain_pass_s"] = sum(r["latency_s"] for r in plain["items"])
    values["bench.traced_pass_s"] = sum(r["latency_s"] for r in traced["items"])
    values["bench.trace_overhead_s"] = values["bench.traced_pass_s"] - values["bench.plain_pass_s"]
    print(f"{args.workload} seed={args.seed}: traced pass of {len(traced['items'])} items, spans in {spans}")
    print(
        f"tracing overhead {values['bench.trace_overhead_s']:.3f} s "
        f"({values['bench.traced_pass_s']:.3f} s traced vs {values['bench.plain_pass_s']:.3f} s plain)"
    )
    for line in predictions(args.workload, values):
        print("prediction: " + line)
    return values, [plain, traced]


def run_workload(args, spec, refs):
    args.deadline = now() + RUN_TIMEOUT_S
    checker = Checker(args, refs)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        files = prepare(args, checker, work)
        values, reports = (run_traced if args.trace else run_plain)(args, checker, files)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"passes": reports, "problems": checker.problems}, fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, help="items per pass (smoke test only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "sylowbranch" / "__init__.py").is_file():
        print(f"error: no sylowbranch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    refs = load_references()
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args, spec, refs)))
            return 0
        results = {}
        for name in workloads.WORKLOADS:
            args.workload = name
            results[name] = run_workload(args, spec, refs)
        print(json.dumps(results))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
