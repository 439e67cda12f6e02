"""Named verification sweeps, one per acceptance criterion.

Every suite checks its claim with exact integer arithmetic and returns a
Result(name, ok, detail); nothing is sampled without a fixed default seed.
The suites share the engine's memoised vectors, the linear Sylow products
among them, so a shape one suite has computed is read by the next, and
suite times depend on the order the suites run in.  `run` executes suites
by name and prints one PASS/FAIL line per suite, which is the format the
acceptance tests and the CLI both rely on.

Suite names describe what is checked.  The historical aliases accepted by
the CLI (`thm11`, `thm12`, `thm13`) map onto classify-two, classify-odd and
hook-grid respectively.
"""

import inspect
import random
from collections import namedtuple

from . import closedform as cf
from . import engine
from . import oracle
from . import tower as tw
from .characters import lr_coefficient, plethysm_split, sn_degree
from .partitions import (
    almost_hook,
    conjugate,
    delta,
    exceptional_family,
    hook,
    partitions,
    sylow_shape,
)

Result = namedtuple("Result", "name ok detail")

DEFAULT_SEED = 20260816
# Suite sizes: seeded k=5 engine checks in hook-grid, seeded n=16 linear
# labels in oracle, and the prime and range of n that classify-odd sweeps.
HOOK_GRID_ENGINE_TRIPLES = 50
ORACLE_SAMPLE = 20
CLASSIFY_ODD_P = 3
CLASSIFY_ODD_RANGE = (9, 12)


def _result(name, failures, detail_ok):
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        return Result(name, False, shown + more)
    return Result(name, True, detail_ok)


def hook_grid(seed=DEFAULT_SEED):
    """Closed form == recursion == engine on the almost-hook grids.

    Exhaustive with the engine for k in {2,3,4}; at k=5 the two evaluation
    paths are compared on the full 29 x 32 grid and the engine is spot
    checked on a fixed seeded sample of triples.
    """
    failures = []
    checked = 0
    for k in (2, 3, 4):
        n = 2**k
        for x in range(n - 3):
            la = almost_hook(n, x)
            for y in range(n):
                f = cf.almost_hook_sbc(k, x, y)
                r = cf.almost_hook_sbc_recursive(k, x, y)
                e = engine.sbc(la, 2, tw.hook_to_linear(k, y))
                checked += 1
                if not f == r == e:
                    failures.append(f"k={k} x={x} y={y}: {f}/{r}/{e}")
    for x in range(29):
        for y in range(32):
            f = cf.almost_hook_sbc(5, x, y)
            r = cf.almost_hook_sbc_recursive(5, x, y)
            checked += 1
            if f != r:
                failures.append(f"k=5 x={x} y={y}: formula {f} != recursion {r}")
    rng = random.Random(seed)
    for _ in range(HOOK_GRID_ENGINE_TRIPLES):
        x, y = rng.randrange(29), rng.randrange(32)
        f = cf.almost_hook_sbc(5, x, y)
        e = engine.sbc(almost_hook(32, x), 2, tw.hook_to_linear(5, y))
        checked += 1
        if f != e:
            failures.append(f"k=5 x={x} y={y}: formula {f} != engine {e}")
    return _result(
        "hook-grid",
        failures,
        f"{checked} triples: closed form == recursion == engine "
        f"(k=2..4 exhaustive, k=5 grid + {HOOK_GRID_ENGINE_TRIPLES} seeded engine checks)",
    )


def small_sets():
    """The four printed Lin sets, every multiplicity 1.

    The three sporadic shapes of 8 over the 2^3 tower and (3,3,3) over
    P_9 = P_1 x P_8.
    """
    failures = []
    for la, ys in cf.EIGHT_SPORADIC.items():
        want = {(tw.hook_to_linear(3, y),): 1 for y in ys}
        got = engine.lin_constituents(la, 2)
        if got != want:
            failures.append(f"{la}: {got} != {want}")
    want = {((), tw.hook_to_linear(3, y)): 1 for y in (2, 5)}
    got = engine.lin_constituents((3, 3, 3), 2)
    if got != want:
        failures.append(f"(3,3,3): {got} != {want}")
    return _result("small-sets", failures, "four printed Lin sets exact, all multiplicities 1")


def check_classification(p, n, la):
    """(outcome, engine count, ok) for one shape against its classification.

    ok is count > p for a ">..." outcome; otherwise the engine count equals
    the predicted one and, when witnesses are given, the Lin set equals them.
    """
    if p == 2:
        out = cf.two_linear_classification(n, la)
    else:
        out = cf.odd_prime_classification(p, n, la)
    lc = engine.lin_constituents(la, p)
    cnt = len(lc)
    if out.count.startswith(">"):
        ok = cnt > p
    else:
        ok = cnt == int(out.count) and (not out.witnesses or set(out.witnesses) == set(lc))
    return out, cnt, ok


def _classification_sweep(p, ns):
    """Failures and shape count of check_classification over all shapes of each n."""
    failures = []
    shapes = 0
    for n in ns:
        for la in partitions(n):
            out, cnt, ok = check_classification(p, n, la)
            shapes += 1
            if not ok:
                failures.append(f"n={n} {la}: case {out.case} predicted {out.count}, engine {cnt}")
    return failures, shapes


def classify_two(n_max=17):
    """Engine linear-constituent counts vs the p=2 classification, n <= n_max."""
    failures, shapes = _classification_sweep(2, range(4, n_max + 1))
    return _result(
        "classify-two", failures, f"{shapes} shapes over n=4..{n_max}, witnesses exact in every |Lin|<=2 case"
    )


def classify_odd():
    """Engine counts vs the odd-prime classification at CLASSIFY_ODD_P."""
    lo, hi = CLASSIFY_ODD_RANGE
    failures, shapes = _classification_sweep(CLASSIFY_ODD_P, range(lo, hi + 1))
    return _result("classify-odd", failures, f"p={CLASSIFY_ODD_P}: {shapes} shapes over n={lo}..{hi}")


def degree_floor():
    """p dividing the degree forces at least p distinct linear constituents."""
    failures = []
    shapes = 0
    for p, nmax in ((2, 16), (3, 11)):
        for n in range(p, nmax + 1):
            for la in partitions(n):
                if sn_degree(la) % p:
                    continue
                shapes += 1
                c = engine.count_lin(la, p)
                if c < p:
                    failures.append(f"p={p} {la}: count {c} < {p}")
    return _result("degree-floor", failures, f"{shapes} divisible-degree shapes at (2,<=16) and (3,<=11)")


def oracle_equivalence(seed=DEFAULT_SEED):
    """Engine vs the brute-force oracles.

    Full-vector equality for every shape at n in {4, 8} (p=2) and n=9 (p=3);
    seeded linear-label spot checks at n=16.
    """
    failures = []
    checked = 0
    for n, p, k in ((4, 2, 2), (8, 2, 3), (9, 3, 2)):
        for la in partitions(n):
            checked += 1
            if engine.restrict_tower(la, p, k) != oracle.oracle_full_restriction(la, p):
                failures.append(f"full vector differs at {la} (p={p})")
    rng = random.Random(seed)
    las = list(partitions(16))
    for _ in range(ORACLE_SAMPLE):
        la = rng.choice(las)
        digits = tuple(rng.randrange(2) for _ in range(4))
        checked += 1
        if engine.sbc(la, 2, digits) != oracle.oracle_linear_multiplicity(la, 2, digits):
            failures.append(f"linear multiplicity differs at {la}, {digits}")
    return _result(
        "oracle", failures,
        f"{checked} comparisons: full vectors at n=4,8 (p=2) and n=9 (p=3), {ORACLE_SAMPLE} seeded n=16 labels",
    )


def plethysm_rule():
    """The almost-hook plethysm case formula and the monomial oracle.

    Exhaustive over k in {2,3,4}, both outer shapes, every mu of half size;
    plus plethysm_split vs the independent monomial expansion for |mu| <= 4.
    """
    failures = []
    checked = 0
    for k in (2, 3, 4):
        n = 2**k
        for x in range(n - 3):
            la = almost_hook(n, x)
            for mu in partitions(n // 2):
                a2, a11 = plethysm_split(la, mu)
                for i, got in ((0, a2), (1, a11)):
                    want = cf.almost_hook_plethysm_rule(k, x, mu, i)
                    checked += 1
                    if got != want:
                        failures.append(f"k={k} x={x} i={i} mu={mu}: {got} != {want}")
    for msize in (1, 2, 3, 4):
        for mu in partitions(msize):
            for la in partitions(2 * msize):
                a2, a11 = plethysm_split(la, mu)
                checked += 2
                if a2 != oracle.oracle_plethysm_coefficient((2,), mu, la):
                    failures.append(f"sym plethysm differs at {mu}, {la}")
                if a11 != oracle.oracle_plethysm_coefficient((1, 1), mu, la):
                    failures.append(f"alt plethysm differs at {mu}, {la}")
    return _result("plethysm-rule", failures, f"{checked} coefficients (case formula + monomial oracle)")


def hook_diagonal():
    """Each hook restricts with exactly its own linear label, multiplicity 1."""
    failures = []
    checked = 0
    for k in (1, 2, 3, 4):
        n = 2**k
        for x in range(n):
            for y in range(n):
                got = engine.sbc(hook(n, x), 2, tw.hook_to_linear(k, y))
                want = 1 if x == y else 0
                checked += 1
                if got != want:
                    failures.append(f"k={k} x={x} y={y}: {got}")
    return _result("hook-diagonal", failures, f"{checked} hook/label pairs, k<=4 exhaustive")


def _structure_halving():
    failures = []
    for n in range(1, 9):
        for la in partitions(2 * n):
            d = delta(la)
            if lr_coefficient(la, d, d) < 1:
                failures.append(f"halved-shape coefficient vanishes at {la}")
    return failures


def _structure_equivalence():
    failures = []
    for k in (3, 4):
        for la in partitions(2**k):
            if cf.exceptional_shape(k, la) != cf.halving_criterion(k, la):
                failures.append(f"k={k} {la}: family membership != halving criterion")
    return failures


def _structure_tables():
    failures = []
    for la in sorted(exceptional_family(4)):
        try:
            alpha, beta = cf.witness_pair(4, la)
        except ValueError:
            # No prescribed pair.  Show directly that none exists at all:
            # every half-size alpha with c^la_{alpha,alpha} > 0 is a hook
            # for these two shapes, so any pair meets at most two labels.
            best = 0
            diag = [mu for mu in partitions(8) if lr_coefficient(la, mu, mu) > 0]
            for a in diag:
                for b in diag:
                    lins = set(engine.lin_constituents(a, 2)) | set(engine.lin_constituents(b, 2))
                    best = max(best, len(lins))
            failures.append(
                f"{la}: prescription out of range and indeed no valid pair exists "
                f"(best reachable union over {len(diag)} diagonal shapes is {best} < 3)"
            )
            continue
        ca = lr_coefficient(la, alpha, alpha)
        cb = lr_coefficient(la, beta, beta)
        lins = set(engine.lin_constituents(alpha, 2)) | set(engine.lin_constituents(beta, 2))
        if not (ca > 0 and cb > 0 and len(lins) > 2):
            failures.append(f"{la}: pair {alpha},{beta} gives {ca},{cb}, union {len(lins)}")
    return failures


def _structure_cyclic():
    failures = []
    for p in (3, 5):
        for i in range(p):
            share = cf.cyclic_share_set(p, i)
            for la in partitions(p):
                pos = oracle.oracle_linear_multiplicity(la, p, (i,)) > 0
                if pos != (la in share):
                    failures.append(f"cyclic share set wrong at p={p}, i={i}, {la}")
    return failures


def _structure_narrow_box():
    failures = []
    p, k = 3, 2
    n = p**k
    for la in partitions(n):
        want = cf.narrow_box_lin_set(p, k, la)
        if want is None:
            continue
        got = {
            psi
            for psi in tw.linear_labels(p, k)
            if oracle.oracle_linear_multiplicity(la, p, psi) > 0
        }
        if got != set(want):
            failures.append(f"(3,2) {la}: {sorted(got)} != {sorted(want)}")
    return failures


def structure():
    """The five structural facts behind the classifications.

    Halved-shape positivity (all shapes of 2n, n <= 8), the family/halving
    equivalence (k in {3,4}), the two-block witness tables (every member of
    the k=4 family), and the two oracle-checked small-group statements.
    """
    failures = []
    failures += _structure_halving()
    failures += _structure_equivalence()
    failures += _structure_tables()
    failures += _structure_cyclic()
    failures += _structure_narrow_box()
    return _result(
        "structure",
        failures,
        "halved-shape positivity, halving equivalence, witness tables, cyclic and narrow-box sets",
    )


def conservation():
    """Dimension conservation and conjugation-twist symmetry, globally.

    Re-checks the degree identity on every memoized full vector the engine
    has produced so far, then sweeps the twist symmetry: conjugating the
    shape acts on linear labels by the per-factor sign twist at p=2 and
    trivially at p=3.  The twist is an involution, so each conjugate pair
    is compared once, at its lex-larger shape.
    """
    failures = []
    for p, nmax in ((2, 16), (3, 11)):
        for n in range(1, nmax + 1):
            heights = sylow_shape(n, p)
            for la in partitions(n):
                conj = conjugate(la)
                if conj > la:
                    # partitions() is descending, so the pair was met at conj
                    continue
                lc = engine.lin_constituents(la, p)
                if p == 2:
                    twisted = {
                        tuple(tw.sgn_twist(h, d) for d, h in zip(f, heights)): m
                        for f, m in lc.items()
                    }
                else:
                    twisted = lc
                if twisted != engine.lin_constituents(conj, p):
                    failures.append(f"twist symmetry fails at p={p}, {la} and {conj}")
    vectors = 0
    for (p, k, la), vec in list(engine._full_memo.items()):
        vectors += 1
        total = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
        if total != sn_degree(la):
            failures.append(f"dimension drift in memo at p={p}, k={k}, {la}")
    return _result(
        "conservation",
        failures,
        f"twist symmetry at (2,<=16) and (3,<=11); degree identity on {vectors} memoized vectors",
    )


SUITES = {
    "hook-grid": hook_grid,
    "small-sets": small_sets,
    "classify-two": classify_two,
    "classify-odd": classify_odd,
    "degree-floor": degree_floor,
    "oracle": oracle_equivalence,
    "plethysm-rule": plethysm_rule,
    "hook-diagonal": hook_diagonal,
    "structure": structure,
    "conservation": conservation,
}

ALIASES = {
    "thm13": "hook-grid",
    "thm11": "classify-two",
    "thm12": "classify-odd",
}

CRITERION = {name: i + 1 for i, name in enumerate(SUITES)}


def run(names=None, **kwargs):
    """Run suites by name (all of them by default) and print labeled lines.

    Returns the list of Results.  Keyword arguments are forwarded to suites
    that accept them (n_max, seed).
    """
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        name = ALIASES.get(name, name)
        fn = SUITES[name]
        params = inspect.signature(fn).parameters
        accepted = {k: v for k, v in kwargs.items() if v is not None and k in params}
        res = fn(**accepted)
        results.append(res)
        status = "PASS" if res.ok else "FAIL"
        print(f"criterion {CRITERION[name]:02d} {name}: {status} - {res.detail}")
    return results
