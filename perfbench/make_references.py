"""Regenerate perfbench/references/ from the program as it stands.

    python3 perfbench/make_references.py               # everything
    python3 perfbench/make_references.py --seeds-only  # seeds.json only

Run it only at a commit whose outputs are known to be right: every later run
of the benchmark is checked against what it writes.

  * items.json: the digest of every item any seed can draw, so that a run on
    any seed is checked, and of every entry a cache file can hold;
  * costs.json: each full-tower and lin-sweep item's time here, run forked
    with empty memos as in a timed pass (the median of COST_REPEATS times),
    which workloads.py stratifies its samples by.  Regenerating it changes the
    samples every seed draws, so it is a change of the benchmark;
  * verify-all.txt: the verify suites' result lines, criterion 09's FAIL
    included, as the digests record them;
  * seeds.json: whole-run digests, the final cache file included, for the
    default seed and one held-out seed.

Each part runs in its own interpreter, so that memo contents stay small.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "references"
ROOT = BENCH.parent
PARTS = ("full-tower", "lin-sweep", "verify-all", "cache-cli", "cache-entries")
# Times per item in costs.json, of which the median is kept.  One time is
# off by a quarter on a busy machine, which blurs the strata; the 241
# full-tower items are few enough to time five times.  The 5701 lin-sweep
# items take a quarter of an hour to time once.
COST_REPEATS = {"full-tower": 5, "lin-sweep": 1}


def part_items(part):
    if part == "full-tower":
        return workloads.full_tower_population()
    if part == "lin-sweep":
        return workloads.lin_population()
    if part == "verify-all":
        return [("suite", name) for name in workloads.SUITES]
    text = workloads.text
    queries = [("restrict", "--p", "2", "--lambda", text(la), "--format", "json") for la in workloads.partitions(16)]
    queries += [("lin", "--p", "2", "--lambda", text(la)) for la in workloads.partitions(16)]
    queries += [("lin", "--p", "3", "--lambda", text(la)) for la in workloads.partitions(9)]
    return [("cli",) + q for q in queries]


def run_part(part):
    import worker

    worker.load_program(ROOT)
    if part == "cache-entries":
        engine = worker._program["engine"]
        for p, k in ((2, 4), (3, 2)):
            for h in range(k + 1):
                for la in workloads.partitions(p**h):
                    engine.restrict_tower(la, p, h)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "cache.json")
            engine.save_cache(path)
            return {"entries": worker.cache_entry_digests(path)}
    digests, costs, texts = {}, {}, []
    for item in part_items(part):
        item_id = workloads.item_id(item)
        if part == "verify-all":
            text = worker.output_text(item, worker.call(item, workloads.DEFAULT_SEED))
            again = worker.output_text(item, worker.call(item, workloads.HELDOUT_SEED))
            if again != text:
                raise RuntimeError(f"{item_id} depends on the seed")
            texts.append(text)
            digests[item_id] = worker.digest(text)
            continue
        # Each item runs forked, with the memos empty, as in a timed pass, so
        # that its cost is the one a pass sees.  The stdout of `restrict` and
        # `lin` does not depend on the cache, so the CLI references are made
        # without one.
        results = [
            worker.measure_forked(item_id, item, workloads.DEFAULT_SEED, None) for _ in range(COST_REPEATS.get(part, 1))
        ]
        for result in results:
            if result["error"] or result["digest"] != results[0]["digest"]:
                raise RuntimeError(f"{item_id}: {result['error'] or 'outputs differ between runs'}")
        digests[item_id] = results[0]["digest"]
        if part in COST_REPEATS:
            costs[item_id] = float(f"{statistics.median(r['latency_s'] for r in results):.3g}")
    return {"digests": digests, "costs": costs, "texts": texts}


def write_items():
    digests, costs, entries, texts = {}, {}, {}, []
    for part in PARTS:
        proc = subprocess.run(
            [sys.executable, "-s", __file__, "--part", part], stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digests.update(result.get("digests", {}))
        costs.update(result.get("costs", {}))
        entries.update(result.get("entries", {}))
        texts += result.get("texts", [])
        print(f"{part}: done", file=sys.stderr)
    REFS.mkdir(exist_ok=True)
    with open(REFS / "items.json", "w", encoding="utf-8") as fh:
        json.dump({"items": digests, "cache_entries": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    with open(REFS / "costs.json", "w", encoding="utf-8") as fh:
        json.dump(costs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    with open(REFS / "verify-all.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in texts))


def seed_references():
    import run

    refs = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
        for name in workloads.WORKLOADS:
            args = argparse.Namespace(workload=name, seed=seed, limit=None, deadline=run.now() + run.RUN_TIMEOUT_S)
            work = run.OUT / "make-references"
            try:
                files = run.prepare(args, run.Checker(args, ({"cache_entries": {}}, {})), work)
                report, _, _ = run.spawn(args, "pass", **files)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            entry = {"digests": [r["digest"] for r in report["items"]]}
            if "cache_sha256" in report:
                entry["cache_sha256"] = report["cache_sha256"]
            refs.setdefault(str(seed), {})[name] = entry
    with open(REFS / "seeds.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--part", choices=PARTS)
    ap.add_argument("--seeds-only", action="store_true", help="rewrite seeds.json only")
    args = ap.parse_args()
    if args.part:
        print(json.dumps(run_part(args.part)))
        return
    if not args.seeds_only:
        write_items()
    seed_references()


if __name__ == "__main__":
    main()
