"""Workload inputs, made from a seed without importing the program under test.

Every workload is a list of items; one item is one public call.  A sample is
stratified so that every seed draws the same cost profile, which keeps the
seed-to-seed spread of the end-to-end metrics small without fixing the
shapes: the population is sorted by each item's cost at the commit that
wrote references/costs.json, cut into as many equal strata as there are
picks, and one item is drawn from each stratum.  Populations without a cost
table are sorted by the degree chi^la(1) instead, which the cost grows with.

Partitions are enumerated here rather than through `sylowbranch.partitions`,
so that a change to the program cannot change the inputs it is measured on.
"""

import json
import random
from functools import cache
from math import factorial
from pathlib import Path

COSTS = Path(__file__).resolve().parent / "references" / "costs.json"

WORKLOADS = ("full-tower", "lin-sweep", "verify-all", "cache-cli")

# The seeds whose whole runs have committed references (references/seeds.json).
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

# Odd-p shapes of larger degree cost up to 5 s to 70 s each in Stage A's
# Young restriction, and the heavy tail of the costs below that makes the
# tail latency of a 100-item sample swing from seed to seed; so the odd-p
# populations stop at this degree.  The p = 2 populations are complete.
ODD_P_MAX_DEGREE = 10**7

# verify.SUITES, in their order.  Named here so that the inputs do not
# depend on importing the program.
SUITES = (
    "hook-grid",
    "small-sets",
    "classify-two",
    "classify-odd",
    "degree-floor",
    "oracle",
    "plethysm-rule",
    "hook-diagonal",
    "structure",
    "conservation",
)


@cache
def partitions(n, max_part=None):
    """All partitions of n with parts at most max_part, descending lex order."""
    if n == 0:
        return ((),)
    max_part = n if max_part is None else min(max_part, n)
    return tuple(
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in partitions(n - first, first)
    )


def degree(la):
    """chi^la(1) by the hook length formula."""
    cols = [sum(1 for part in la if part > c) for c in range(la[0])] if la else []
    hooks = 1
    for r, part in enumerate(la):
        for c in range(part):
            hooks *= part - c + cols[c] - r - 1
    return factorial(sum(la)) // hooks


def stratified(population, picks, rng, cost=None):
    """One member from each of `picks` equal strata, in cost or else degree order."""
    if cost is None:
        ordered = sorted(population, key=lambda la: (degree(la), la))
    else:
        ordered = sorted(population, key=lambda x: (cost(x), x))
    if picks >= len(ordered):
        return ordered
    bounds = [len(ordered) * i // picks for i in range(picks + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


@cache
def reference_costs():
    with open(COSTS, encoding="utf-8") as fh:
        return json.load(fh)


def item_cost(item):
    return reference_costs()[item_id(item)]


def text(la):
    return ",".join(map(str, la))


def two_row(n, max_second):
    return [(n - b, b) if b else (n,) for b in range(max_second + 1)]


def lin_populations():
    """The four lin-sweep populations: (p, shapes)."""
    def capped(ns):
        return [la for n in ns for la in partitions(n) if degree(la) <= ODD_P_MAX_DEGREE]

    return (
        (2, [la for n in range(20, 25) for la in partitions(n)]),
        (3, capped([27])),
        (3, capped([25, 26])),
        (5, capped([25])),
    )


def full_tower_population():
    return [("restrict", 2, la) for la in partitions(16) + tuple(two_row(32, FULL_TOWER_TWO_ROW_MAX))]


def lin_population():
    return [("lin", p, la) for p, population in lin_populations() for la in population]


# Items per pass.  A pass is sized to take 7 s to 12 s at the seed commit, so
# that two or three fit in a 25 s run.
FULL_TOWER_PICKS = 50
FULL_TOWER_TWO_ROW_MAX = 9
LIN_PICKS = (40, 20, 20, 20)
CACHE_SUBSET = 12
CACHE_CYCLES = 4


def cache_plan(seed):
    """(shapes whose vectors fill the initial cache file, CLI queries).

    The cache holds every shape of 8 and a seeded subset of 16 at p = 2 and
    every shape of 9 at p = 3.  Each cycle of queries makes three `restrict`
    reads of cached shapes, three `lin` calls at p = 2 and three at p = 3,
    and one `restrict` of an uncached shape of 16, a write that grows the
    file.
    """
    rng = random.Random(f"cache-cli:{seed}")

    def restrict_cost(la):
        return item_cost(("restrict", 2, la))

    cached16 = stratified(partitions(16), CACHE_SUBSET, rng, restrict_cost)
    fill = [(2, la) for la in partitions(8)] + [(2, la) for la in cached16]
    fill += [(3, la) for la in partitions(9)]
    rest16 = [la for la in partitions(16) if la not in set(cached16)]
    reads = rng.sample(cached16, 3 * CACHE_CYCLES)
    lin2 = stratified(partitions(16), 3 * CACHE_CYCLES, rng)
    lin3 = stratified(partitions(9), 3 * CACHE_CYCLES, rng)
    writes = stratified(rest16, CACHE_CYCLES, rng, restrict_cost)
    queries = []
    for cycle, write in enumerate(writes):
        for i in range(3 * cycle, 3 * cycle + 3):
            queries.append(("restrict", "--p", "2", "--lambda", text(reads[i]), "--format", "json"))
            queries.append(("lin", "--p", "2", "--lambda", text(lin2[i])))
            queries.append(("lin", "--p", "3", "--lambda", text(lin3[i])))
        queries.append(("restrict", "--p", "2", "--lambda", text(write), "--format", "json"))
    return fill, queries


def items(workload, seed):
    """The items of one pass, in the order they run."""
    if workload == "full-tower":
        # The two-row shapes of 32 are few and their costs span three orders
        # of magnitude, so a pick of them would set the spread: all are run.
        rng = random.Random(f"full-tower:{seed}")
        sixteen = [("restrict", 2, la) for la in partitions(16)]
        thirty_two = [("restrict", 2, la) for la in two_row(32, FULL_TOWER_TWO_ROW_MAX)]
        return stratified(sixteen, FULL_TOWER_PICKS, rng, item_cost) + thirty_two
    if workload == "lin-sweep":
        rng = random.Random(f"lin-sweep:{seed}")
        return [
            it
            for (p, population), picks in zip(lin_populations(), LIN_PICKS)
            for it in stratified([("lin", p, la) for la in population], picks, rng, item_cost)
        ]
    if workload == "verify-all":
        return [("suite", name) for name in SUITES]
    if workload == "cache-cli":
        return [("cli",) + query for query in cache_plan(seed)[1]]
    raise ValueError(f"unknown workload {workload!r}")


def item_id(item):
    """Stable text name of an item, the key of the reference digests."""
    kind = item[0]
    if kind in ("restrict", "lin"):
        return f"{kind} p={item[1]} {text(item[2])}"
    if kind == "suite":
        return f"suite {item[1]}"
    return "cli " + " ".join(item[1:])
