"""Closed formulas and classification rules for linear constituents.

Everything here is a direct statement about multiplicities, implemented
independently of the engine so the two can be played against each other:

  * almost_hook_sbc        -- binomial closed form for the multiplicity of a
                              linear label in an almost hook at n = 2^k;
  * almost_hook_sbc_recursive -- the same value by a one-level recursion
                              whose small cases come from the brute oracle;
  * two_linear_classification / odd_prime_classification -- predicted
                              |Lin| classes (1, small exact value, or "more")
                              with the named witness sets where known;
  * the structural predicates and the witness pairs used by the k=4
                              classification argument: membership in and
                              rows of two_block_pairs, keyed by member;
  * the small share-sets of linear characters at n = p and in the narrow
                              boxes at n = p^k.

Each table fact is written once.  odd_prime_classification's power case
reads its counts from narrow_box_lin_set, and two_linear_classification
reads the almost-hook midpoint pair from almost_hook_linear_set.
"""

from collections import namedtuple
from functools import cache

from . import characters as ch
from . import oracle
from .partitions import (
    CACHE_MAX_SIZE,
    almost_hook,
    almost_hook_coordinate,
    check_partition,
    check_power,
    check_prime,
    check_shape,
    choose,
    conjugate,
    delta,
    hook,
    hook_coordinate,
    in_box,
    partitions,
    sylow_shape,
    two_block_pairs,
)
from .tower import hook_to_linear


def window_base(y):
    """y minus its binary digit sum minus 1 (may be -1 for y in {0,1})."""
    return y - int(y).bit_count() - 1


def _check_grid(k, x, y):
    if k < 2:
        raise ValueError("need k >= 2")
    if not 0 <= x <= 2**k - 4:
        raise ValueError(f"x={x} out of range at k={k}")
    if not 0 <= y <= 2**k - 1:
        raise ValueError(f"y={y} out of range at k={k}")


def almost_hook_sbc(k, x, y):
    """Multiplicity of the hook-y linear label in the almost hook at x, n=2^k.

    Closed form: with B = y - bitsum(y) - 1, the value is
    choose(k-1, x-B) - 1 when x is y-1 or y-2, choose(k-1, x-B) when x lies
    in the window {B, ..., B+k-1} (and is not y-1 or y-2), and 0 otherwise.
    """
    _check_grid(k, x, y)
    base = window_base(y)
    if x in (y - 1, y - 2):
        return choose(k - 1, x - base) - 1
    if base <= x <= base + k - 1:
        return choose(k - 1, x - base)
    return 0


@cache
def almost_hook_sbc_recursive(k, x, y):
    """Same multiplicity by one level of restriction through the wreath product.

    The top twist digit j = hook_to_linear(k, y)[-1] of the target label
    contributes the plethysm coefficient a^la_{(2-j parts), hook(2^{k-1}, z)}
    with z = floor(y/2), and the two almost hooks one level down continue
    the recursion when their coordinate stays in range.  Base cases k <= 3
    come from the brute oracle so this path stays independent of the closed
    form.
    """
    _check_grid(k, x, y)
    la = almost_hook(2**k, x)
    if k <= 3:
        return oracle.oracle_linear_multiplicity(la, 2, hook_to_linear(k, y))
    z = y // 2
    mu = hook(2 ** (k - 1), z)
    total = ch.plethysm_split(la, mu)[hook_to_linear(k, y)[-1]]
    for l in (0, 1):
        if 0 <= x - z - l <= 2 ** (k - 1) - 4:
            total += almost_hook_sbc_recursive(k - 1, x - z - l, z)
    return total


def almost_hook_plethysm_rule(k, x, mu, i):
    """Predicted a^{ah(2^k,x)}_{(h(2,i)), mu} for mu a partition of 2^{k-1}.

    The coefficient is 1 exactly when mu is one of at most two hooks tied to
    x: for even x, the hooks at x/2 and (x+2)/2 with the parity constraint
    x/2 = i mod 2; for odd x, the single hook at (x+1)/2 for both i.
    """
    _check_grid(k, x, 0)
    mu = tuple(mu)
    half = 2 ** (k - 1)
    if x % 2 == 0:
        if mu in (hook(half, x // 2), hook(half, (x + 2) // 2)):
            return 1 if (x // 2) % 2 == i % 2 else 0
        return 0
    return 1 if mu == hook(half, (x + 1) // 2) else 0


Outcome = namedtuple("Outcome", "count case witnesses")
# count: "1", an exact integer, or ">2" / ">p"; witnesses: tuple of full
# linear labels (each a tuple of per-factor digit strings) or None.


# The shapes of 8 other than the almost hook (4,2,1,1) with exactly two
# linear constituents, each of multiplicity 1, by the hook coordinates y of
# the two labels.
EIGHT_SPORADIC = {
    (5, 3): (1, 2),
    (3, 3, 2): (2, 5),
    (2, 2, 2, 1, 1): (5, 6),
}


def two_linear_classification(n, la):
    """Predicted number of linear constituents at p = 2, with witnesses.

    Returns Outcome(count, case, witnesses); count is "1", "2" or ">2" and
    witnesses (when the count is exact) is the predicted set of full linear
    labels, each a tuple of per-factor digit strings in ascending factor
    order, all with multiplicity 1.
    """
    la, heights = check_shape(la, 2, n)
    if la == (n,):
        return Outcome("1", "trivial-row", (tuple((0,) * h for h in heights),))
    if la == (1,) * n:
        return Outcome("1", "trivial-column", (tuple(hook_to_linear(h, 2**h - 1) for h in heights),))
    if len(heights) == 1:
        k = heights[0]
        t = hook_coordinate(la)
        if t is not None:
            return Outcome("1", "power-hook", ((hook_to_linear(k, t),),))
        if la == almost_hook(n, n // 2 - 2):
            _, ys = almost_hook_linear_set(k, n // 2 - 2)
            return Outcome(
                "2", "power-almost-hook", tuple((hook_to_linear(k, y),) for y in ys)
            )
        if n == 8 and la in EIGHT_SPORADIC:
            ys = EIGHT_SPORADIC[la]
            return Outcome(
                "2", "eight-sporadic", tuple((hook_to_linear(3, y),) for y in ys)
            )
        return Outcome(">2", "power-generic", None)
    heights = sylow_shape(n - 1, 2)
    if len(heights) == 1 and n > 2:
        k = heights[0]
        t = hook_coordinate(la)
        if t is not None and 1 <= t <= n - 2:
            return Outcome(
                "2",
                "adjacent-hook",
                tuple(((), hook_to_linear(k, yy)) for yy in (t, t - 1)),
            )
        if n == 9 and la == (3, 3, 3):
            return Outcome(
                "2",
                "nine-sporadic",
                tuple(((), hook_to_linear(3, y)) for y in (2, 5)),
            )
        return Outcome(">2", "adjacent-generic", None)
    return Outcome(">2", "generic", None)


def check_classification_domain(p, n):
    """Raise ValueError unless p is a prime, 1 <= n <= CACHE_MAX_SIZE and, for odd p, n >= p."""
    check_prime(p)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > CACHE_MAX_SIZE:
        raise ValueError(f"n={n} exceeds {CACHE_MAX_SIZE}")
    if p > 2 and n < p:
        raise ValueError(f"n={n} has a trivial Sylow {p}-subgroup")


def odd_prime_classification(p, n, la):
    """Predicted number of linear constituents for an odd prime p.

    Exact values are "1" for the trivial row/column, the exact count for
    p <= n < 2p, p-1 and p in the narrow boxes at n = p^k (the sizes of
    the sets narrow_box_lin_set predicts) and just above a p-power, the
    sporadic square at (p, n) = (3, 9), and ">p" in all remaining cases.

    For p <= n < 2p the Sylow subgroup is cyclic, generated by a p-cycle g,
    and the count is the number of nonzero entries of
    characters.cyclic_split(p, chi(1), chi(g)), which also checks that
    every multiplicity is a nonnegative integer.
    """
    check_classification_domain(p, n)
    if p == 2:
        raise ValueError("p must be an odd prime")
    la, heights = check_shape(la, p, n)
    if la in ((n,), (1,) * n):
        return Outcome("1", "trivial", None)
    if n < 2 * p:
        deg = ch.sn_degree(la)
        val = ch.character_value(la, (p,) + (1,) * (n - p))
        count = sum(map(bool, ch.cyclic_split(p, deg, val)))
        return Outcome(str(count), "cyclic", None)
    if len(heights) == 1:
        if p == 3 and n == 9 and la == (3, 3, 3):
            return Outcome(str(p), "square-sporadic", None)
        lin = narrow_box_lin_set(p, heights[0], la)
        if lin is not None:
            return Outcome(str(len(lin)), "narrow-box" if len(lin) == p else "subhook", None)
        return Outcome(">p", "power-generic", None)
    if any(len(sylow_shape(n - i, p)) == 1 and n - i >= p for i in range(1, p)):
        if in_box(la, n - 1) and not in_box(la, n - p):
            return Outcome(str(p), "near-power-box", None)
        return Outcome(">p", "near-power-generic", None)
    return Outcome(">p", "generic", None)


def almost_hook_linear_set(k, x):
    """Predicted linear data for the almost hook at (2^k, x).

    At the midpoint x = 2^{k-1} - 2 the set is exactly two labels, both of
    multiplicity 1; everywhere else the verdict is "more than two", returned
    with a triple of hook coordinates y whose multiplicities are positive.
    Coordinates x past the midpoint are handled through conjugation, which
    reflects both x and the witnesses.
    """
    _check_grid(k, x, 0)
    n = 2**k
    half = n // 2
    if x == half - 2:
        return ("exact", (half - 2, half + 1))
    if x > half - 2:
        reflected = almost_hook_linear_set(k, n - 4 - x)
        return ("witnesses", tuple(sorted(n - 1 - y for y in reflected[1])))
    special = any(x == 2 ** (l - 1) - 2 for l in range(2, k))
    ys = (x, x + 1, x + 3) if special else (x, x + 1, x + 2)
    return ("witnesses", ys)


def halving_criterion(k, la):
    """Whether both halved shapes land in the hook family (plus one almost hook).

    This is the right-hand side of the equivalence tested at k in {3, 4}:
    delta(la) and delta(la') both lie in the set of hooks of 2^{k-1}
    together with the almost hook at coordinate 2^{k-2} - 2.
    """
    la, _ = check_shape(la, 2, check_power(2, k))
    half = 2 ** (k - 1)
    allowed_extra = almost_hook(half, 2 ** (k - 2) - 2)

    def good(mu):
        return hook_coordinate(mu) is not None or mu == allowed_extra

    return good(delta(la)) and good(delta(conjugate(la)))


def exceptional_shape(k, la):
    """Hook, almost hook, or member of the two-block family at 2^k."""
    la = check_partition(la)
    return (
        hook_coordinate(la) is not None
        or almost_hook_coordinate(la) is not None
        or la in two_block_pairs(k)
    )


def witness_pair(k, la):
    """The (alpha, beta) pair of half-size shapes prescribed for la in the family.

    Both shapes are prescribed to satisfy c^la_{alpha,alpha} > 0 and
    c^la_{beta,beta} > 0 with |Lin(alpha) u Lin(beta)| > 2 one level down;
    the row is la's entry in two_block_pairs(k).
    Raises ValueError when la is outside the family, and also for the two
    boundary members ((2^k-3,3) and its conjugate) for which the prescription
    would need an out-of-range almost-hook coordinate and no valid pair
    exists at all.
    """
    la = check_partition(la)
    if k < 4:
        raise ValueError("the witness tables start at k = 4")
    row = two_block_pairs(k).get(la)
    if row is None:
        raise ValueError(f"{la} is not in the two-block family at 2^{k}")
    z, x = row
    half = 2 ** (k - 1)
    if not 0 <= x <= half - 4:
        raise ValueError(
            f"no valid prescription exists for {la}: the table coordinate {x} "
            f"is out of range (boundary member of the family)"
        )
    beta = almost_hook(half, x)
    return (beta if z is None else hook(half, z)), beta


def cyclic_share_set(p, i):
    """Shapes of p whose restriction to C_p contains the i-th linear character.

    All partitions of p except a single conjugate pair: the near-trivial pair
    for i = 0, the one-row/one-column pair otherwise.
    """
    if p < 3 or not 0 <= i <= p - 1:
        raise ValueError("need an odd prime p and 0 <= i < p")
    excluded = (
        {(p - 1, 1), (2,) + (1,) * (p - 2)} if i == 0 else {(p,), (1,) * p}
    )
    return frozenset(partitions(p)) - excluded


def psi_digits(p, k, i):
    """Digit string of the i-th top-twisted linear label (0, ..., 0, i)."""
    if not 0 <= i < p:
        raise ValueError(f"digit {i} out of range mod {p}")
    return (0,) * (k - 1) + (i,)


def narrow_box_lin_set(p, k, la):
    """Predicted full Lin set at n = p^k for the narrow-box shapes, else None.

    The sub-hook (p^k - 1, 1) and its conjugate see exactly the top twists
    with nonzero digit; every shape lying in the (n-2)-box but not in the
    (n-p)-box sees all p top twists.
    """
    n = check_power(p, k)
    la, _ = check_shape(la, p, n)
    if la in ((n - 1, 1), (2,) + (1,) * (n - 2)):
        return frozenset(psi_digits(p, k, i) for i in range(1, p))
    if in_box(la, n - 2) and not in_box(la, n - p):
        return frozenset(psi_digits(p, k, i) for i in range(p))
    return None
