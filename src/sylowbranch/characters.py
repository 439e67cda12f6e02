"""Symmetric group character combinatorics, all in exact integer arithmetic.

Littlewood-Richardson coefficients come from counting lattice skew fillings,
character values from recursive border-strip removal on beta-sets, the
stretched pairing <s_mu[p_p], s_la> from Littlewood's p-core / p-quotient
rule (one p-abacus of la gives the core, the sign and the quotient, and a
multi-LR coefficient the value), and the two plethysm coefficients
a^la_{(2),mu} / a^la_{(1,1),mu} from the identity

    s_mu * s_mu = (s_(2) o s_mu) + (s_(1,1) o s_mu)

combined with the stretched pairing at p = 2.  So the engine's tower
levels reduce to fillings and abaci; character values serve the
classification and the oracles.

cyclic_split is the one place a character of C_p is split over the p
linear characters: the plethysm split, the engine's check of each
constant tuple and its per-label split, and the cyclic case of the
odd-prime classification all call it.

split_walk, the restriction to S_m x S_{n-m}, is the only code that
enumerates fillings: it builds la's cell grid once and walks each inner
shape's skew cells on it, one recursion level per cell over flat index
arrays.  split_pairs is the same walk memoized, so callers must treat its
dicts as read-only; a table read only once (the engine's first peel of a
tower level) is walked without the cache, and lr_coefficient walks only
the inner shape it needs.  young_decompose folds split_pairs over any
number of blocks, peeling the last block first and merging partial
results by remaining shape; lr_multi reads one entry of the fold, keeping
only the wanted constituent of each block.
"""

from collections import Counter, defaultdict
from functools import cache
from math import factorial

from .partitions import check_partition, conjugate


@cache
def sn_degree(la):
    """Dimension of the irreducible character of S_|la| labelled by la."""
    prod = 1
    cols = conjugate(la)
    for r, part in enumerate(la):
        for c in range(part):
            prod *= part - c + cols[c] - r - 1
    return factorial(sum(la)) // prod


def centralizer_order(ct):
    """|C_{S_n}(g)| = prod i^{m_i} m_i! for an element of cycle type ct."""
    z = 1
    for length, count in Counter(ct).items():
        z *= length**count * factorial(count)
    return z


def _strip_removals(la, length):
    """All ways to strip a border strip of the given length off la.

    Yields (smaller partition, sign) with sign = (-1)^(rows spanned - 1),
    computed on the beta-set: removing a strip moves one beta number down by
    `length`, and the height counts the beta numbers jumped over.
    """
    r = len(la)
    beta = [la[i] + r - 1 - i for i in range(r)]
    present = set(beta)
    out = []
    for b in beta:
        c = b - length
        if c < 0 or c in present:
            continue
        height = sum(1 for x in beta if c < x < b)
        newbeta = sorted((present - {b}) | {c}, reverse=True)
        mu = tuple(x - (r - 1 - i) for i, x in enumerate(newbeta))
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        out.append((mu, -1 if height % 2 else 1))
    return out


@cache
def _mn(la, ct):
    if not ct:
        return 1 if not la else 0
    total = 0
    rest = ct[1:]
    for mu, sign in _strip_removals(la, ct[0]):
        total += sign * _mn(mu, rest)
    return total


def character_value(la, ct):
    """Character value of la at the class with cycle type ct (same size)."""
    if sum(la) != sum(ct):
        raise ValueError(f"cycle type {ct} does not match |{la}|")
    return _mn(tuple(la), tuple(sorted(ct, reverse=True)))


def lr_coefficient(la, mu, nu):
    """Littlewood-Richardson coefficient c^la_{mu,nu}.

    Memoized per coefficient: it walks la's fillings for the one inner
    shape, mu or nu, on the smaller side, so it never builds the whole
    split_pairs table.
    """
    return _lr(tuple(la), tuple(mu), tuple(nu))


@cache
def _lr(la, mu, nu):
    if sum(mu) + sum(nu) != sum(la):
        raise ValueError("sizes must satisfy |mu| + |nu| = |la|")
    inner = mu if sum(mu) <= sum(nu) else nu
    # the walk needs a partition inside la, as subshapes gives them
    bounds = zip(la[:1] + inner, inner, la)
    if len(inner) > len(la) or not all(0 < x <= min(prev, top) for prev, x, top in bounds):
        return 0
    return split_walk(la, sum(mu), inner).get((mu, nu), 0)


def subshapes(la, size):
    """All partitions mu of the given size with mu contained in la."""
    out = []
    acc = []
    total = [0] * (len(la) + 1)
    for i in range(len(la) - 1, -1, -1):
        total[i] = total[i + 1] + la[i]

    def rec(row, prev, remaining):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if row == len(la) or remaining > total[row]:
            return
        for part in range(min(prev, la[row], remaining), 0, -1):
            acc.append(part)
            rec(row + 1, part, remaining - part)
            acc.pop()

    rec(0, la[0] if la else 0, size)
    return tuple(out)


# partition -> itself: split_walk keys its tables with these tuples, so
# equal partitions share one object across every table
_shapes = {}


def split_walk(la, m, inner=None):
    """Restriction of la to S_m x S_{n-m}: dict (mu, nu) -> c^la_{mu,nu}.

    Given inner, a partition of min(m, n - m) inside la, only the keys with
    that shape on the smaller side are walked.

    Enumerates sub-shapes mu on the smaller side and buckets the lattice
    skew fillings of la/mu by content nu, so the work is the same whichever
    factor is smaller.  Fillings are weakly increasing along rows, strictly
    increasing down columns, and their reverse row word (rows top to bottom,
    each read right to left) stays a ballot sequence, which is exactly the
    lattice condition enforced incrementally below.

    la's cell grid is built once, in that reading order.  Each inner shape
    mu walks its skew cells on it, recursing once per cell, with mu's cells
    holding value 0: a cell's value runs from vals[above[pos]] + 1 to
    vals[right[pos]], where vals[n] = 0 stands for no cell above and
    vals[n + 1 + r] = r + 1 caps row r; the sentinel counts[0] lets every 1
    pass the ballot test.

    Both shapes of a key are interned in _shapes, so the tables share one
    tuple per partition rather than a copy per key.
    """
    n = sum(la)
    if not 0 <= m <= n:
        raise ValueError(f"block size {m} out of range for |la| = {n}")
    small = min(m, n - m)
    rows = len(la)
    cells = [(r, c) for r in range(rows) for c in range(la[r] - 1, -1, -1)]
    index = {cell: pos for pos, cell in enumerate(cells)}
    above = [index.get((r - 1, c), n) for r, c in cells]
    right = [index.get((r, c + 1), n + 1 + r) for r, c in cells]
    starts = [index[r, la[r] - 1] for r in range(rows)]
    vals = [0] * (n + 1) + list(range(1, rows + 1))
    counts = [n + 1] + [0] * (rows + 1)
    table = {}

    def fill(i):
        if i == len(skew):
            buckets[tuple(counts[1 : counts.index(0)])] += 1
            return
        pos = skew[i]
        for v in range(vals[above[pos]] + 1, vals[right[pos]] + 1):
            if counts[v] < counts[v - 1]:
                counts[v] += 1
                vals[pos] = v
                fill(i + 1)
                counts[v] -= 1

    for inner in subshapes(la, small) if inner is None else (inner,):
        inner = _shapes.setdefault(inner, inner)
        skew = [
            pos
            for r in range(rows)
            for pos in range(starts[r], starts[r] + la[r] - (inner[r] if r < len(inner) else 0))
        ]
        vals[:n] = [0] * n
        buckets = defaultdict(int)
        fill(0)
        for content, cnt in buckets.items():
            content = _shapes.setdefault(content, content)
            table[(inner, content) if small == m else (content, inner)] = cnt
    del fill  # a reference cycle: without it the grid waits for the collector
    return table


split_pairs = cache(split_walk)


def young_decompose(la, sizes, factor=None):
    """Restriction of la to the Young subgroup with the given block sizes.

    Returns a new dict mapping tuples (x_1, ..., x_r), aligned with `sizes`,
    to multiplicities: x_i runs over the keys of factor(mu_i, i), the vector
    of block i's constituent mu_i, and without factor x_i = mu_i.  The fold
    peels blocks from the last one and merges the partial results by
    remaining shape, so each remaining shape is split, and each factor
    vector fetched, once per block; no memo of its own outlives the call.
    The split_pairs tables and factor vectors are only read, so factor may
    hand out memoized vectors.
    """
    la, sizes = tuple(la), tuple(sizes)
    if sum(sizes) != sum(la):
        raise ValueError("block sizes must sum to |la|")
    states = {la: {(): 1}}
    for i in range(len(sizes) - 1, -1, -1):
        merged = defaultdict(lambda: defaultdict(int))
        for rest, tails in states.items():
            # the first block takes what is left whole
            pairs = split_pairs(rest, sizes[i]) if i else {(rest, ()): 1}
            for (mu, nu), c in pairs.items():
                vec = {mu: 1} if factor is None else factor(mu, i)
                if not vec:
                    continue
                out = merged[nu]
                for x, m in vec.items():
                    for tail, t in tails.items():
                        out[(x,) + tail] += c * m * t
        states = merged
    return dict(states.get((), {}))


def lr_multi(la, factors):
    """Multiplicity of chi^{mu_1} x ... x chi^{mu_r} in la restricted.

    The fold's factor keeps only the wanted constituent of each block, so
    its states never hold more than the one wanted tail.
    """
    factors = tuple(tuple(mu) for mu in factors)
    return young_decompose(
        la, map(sum, factors), lambda mu, i: {mu: 1} if mu == factors[i] else {}
    ).get(factors, 0)


@cache
def _p_quotient(la, p):
    """(sign, p-quotient) of la read off one p-abacus; sign 0 if the p-core is not empty.

    The beta-set is padded to a multiple of p.  The p-core is empty iff
    every runner holds the same number of beads.  Then sliding the beads up
    their runners, lowest first, strips la by p-rim hooks, and the sign is
    (-1)^(beads jumped) (James-Kerber 2.7): the bead beta[i] lands at
    tops[i] and jumps each lower bead, settled before it, that landed above.
    The quotient keeps the nonempty runner partitions in runner order.
    """
    r = -(-len(la) // p) * p
    beta = [(la[i] if i < len(la) else 0) + r - 1 - i for i in range(r)]
    runners = [[b // p for b in beta if b % p == j] for j in range(p)]
    if any(len(xs) != r // p for xs in runners):
        return 0, ()
    tops = [b % p + p * sum(1 for c in beta if c < b and c % p == b % p) for b in beta]
    jumped = sum(1 for i, t in enumerate(tops) for u in tops[i + 1 :] if u > t)
    quotient = []
    for xs in runners:
        part = tuple(x - (len(xs) - 1 - i) for i, x in enumerate(xs))
        if part and part[0]:
            quotient.append(tuple(x for x in part if x))
    return -1 if jumped % 2 else 1, tuple(quotient)


def stretch_coefficient(la, mu, p):
    """Coefficient of s_la in s_mu evaluated on p-th power sums, <s_mu[p_p], s_la>.

    Littlewood's rule: 0 unless la has an empty p-core, and then
    sigma_p(la) * c^mu_{la^(0), ..., la^(p-1)}, where sigma_p(la) is the sign
    of stripping la down to its core by p-rim hooks and la^(0..p-1) is its
    p-quotient, both read off one abacus by _p_quotient.  The multi-LR
    coefficient is symmetric in its factors, so the order of the quotient
    does not matter.
    """
    la, mu = tuple(la), tuple(mu)
    if sum(la) != p * sum(mu):
        raise ValueError("need |la| = p * |mu|")
    sign, quotient = _p_quotient(la, p)
    return sign * lr_multi(mu, quotient) if sign else 0


def cyclic_split(p, c, d):
    """Multiplicities of the p linear characters of C_p in a character of it.

    The character has degree c and value d on a generator; the trivial
    character occurs (c + (p-1) d)/p times and each other one (c - d)/p
    times.  Raises ArithmeticError unless every one is a nonnegative
    integer.
    """
    q, r = divmod(c - d, p)
    if r or q < 0 or q + d < 0:
        raise ArithmeticError(f"cyclic split not a nonneg integer: p={p}, c={c}, d={d}")
    return (q + d,) + (q,) * (p - 1)


def plethysm_split(la, mu):
    """(a^la_{(2),mu}, a^la_{(1,1),mu}), the two degree-2 plethysm coefficients.

    The cyclic split at p = 2 of c^la_{mu,mu} and the stretched pairing D:
    a2 = (c^la_{mu,mu} + D)/2 and a11 = (c^la_{mu,mu} - D)/2.
    """
    la, mu = check_partition(la), check_partition(mu)
    if sum(la) != 2 * sum(mu):
        raise ValueError("need |la| = 2|mu|")
    return cyclic_split(2, lr_coefficient(la, mu, mu), stretch_coefficient(la, mu, 2))
