"""Brute-force ground truth, independent of the engine's recursion.

Two routes:

  * direct inner products over the Sylow subgroup, exact in the cyclotomic
    integers Z[zeta_p] (integer accumulators per power of zeta, reduced in
    the power basis; a result must come out rational-integral and divisible
    by the group order).  The full oracle walks the explicit elements of the
    tower; the linear one sums over (cycle type, signature) classes counted
    by the wreath-product cycle-index recursion, so it builds no element;

  * a monomial-expansion plethysm oracle for s_(2) o s_mu and s_(1,1) o s_mu
    with |mu| <= 4: expand s_mu as a sum of monomials over semistandard
    tableaux, read the coefficients of s_mu^2 and s_mu(x^2) at partition
    exponents only (they fix a symmetric polynomial), and read off Schur
    coefficients by triangular elimination against Kostka numbers.

Everything here deliberately avoids the engine and the lattice-filling code
paths in characters (only character values are shared, and those are pinned
separately by orthogonality tests).
"""

from collections import Counter, defaultdict
from functools import cache

from . import tower as tw
from .characters import character_value, sn_degree
from .partitions import check_partition, partitions, sylow_shape


# ---------------------------------------------------------------- cyclotomics

def _zeta_mul_root(p, vec, e):
    """Multiply an exponent vector by zeta^e."""
    out = [0] * p
    for i, c in enumerate(vec):
        if c:
            out[(i + e) % p] += c
    return tuple(out)


def _zeta_mul(p, a, b):
    out = [0] * p
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            if d:
                out[(i + j) % p] += c * d
    return tuple(out)


def _zeta_conj(p, vec):
    return tuple(vec[(-i) % p] for i in range(p))


def _zeta_int(vec):
    """Reduce an exponent vector to a rational integer, or fail loudly.

    Using 1 + zeta + ... + zeta^{p-1} = 0, the vector is integral exactly
    when all coordinates past the first agree.
    """
    if any(c != vec[1] for c in vec[2:]):
        raise ArithmeticError(f"cyclotomic sum is not rational: {vec}")
    return vec[0] - vec[1]


def _zeta_one(p):
    return (1,) + (0,) * (p - 1)


# --------------------------------------------------- inner products over P_n

def _convolve(left, right, join):
    """Bucket product over disjoint points: cycle types merge, signatures join."""
    out = Counter()
    for (ct, sig), c in left.items():
        for (rct, rsig), r in right.items():
            out[tuple(sorted(ct + rct, reverse=True)), join(sig, rsig)] += c * r
    return out


@cache
def _tower_buckets(p, k):
    """Counter of (cycle type, level signature) over the height-k tower.

    Polya's cycle index for H wr C_p (Kerber, Representations of Permutation
    Groups), H the height k-1 tower: an element with top shift 0 is a p-tuple
    of H-elements, so its bucket is the p-fold convolution of H's; one with
    top shift s != 0 has the cycles of its cycle product in H stretched p
    times, and each element of H is the cycle product of |H|^(p-1) tuples.
    """
    if k == 0:
        return Counter({((1,), ()): 1})
    below = _tower_buckets(p, k - 1)
    acc = Counter({((), (0,) * (k - 1)): 1})
    for _ in range(p):
        acc = _convolve(acc, below, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)))
    out = Counter({(ct, sig + (0,)): c for (ct, sig), c in acc.items()})
    weight = sum(below.values()) ** (p - 1)
    for s in range(1, p):
        for (ct, sig), c in below.items():
            out[tuple(p * x for x in ct), sig + (s,)] += c * weight
    return out


@cache
def _signature_buckets(n, p):
    """Counter of (cycle type, per-factor signature) over the Sylow subgroup.

    The product of the factors' _tower_buckets: the factors act on disjoint
    points, so cycle types merge and each factor keeps its own signature.
    No element is built, so the budget is the caller's check on |P_n|.
    """
    acc = Counter({((), ()): 1})
    for h in sylow_shape(n, p):
        acc = _convolve(acc, _tower_buckets(p, h), lambda sigs, sig: sigs + (sig,))
    return acc


def oracle_linear_multiplicity(la, p, psi, budget=None):
    """<chi^la restricted, psi> by direct summation, psi a linear label.

    psi is a digit tuple (single tower factor) or tuple of per-factor digit
    tuples, ascending factor order.  The sum is grouped by (cycle type,
    signature) since the summand only depends on those.
    """
    la = check_partition(la)
    n = sum(la)
    psi = tw.linear_factors(psi, sylow_shape(n, p))
    order = tw.check_budget(n, p, budget)
    acc = [0] * p
    for (ct, sigs), count in _signature_buckets(n, p).items():
        chi = character_value(la, ct)
        if not chi:
            continue
        e = 0
        for digits, sig in zip(psi, sigs):
            e += sum(d * s for d, s in zip(digits, sig))
        acc[(-e) % p] += count * chi
    total = _zeta_int(tuple(acc))
    mult, rem = divmod(total, order)
    if rem:
        raise ArithmeticError(f"inner product not divisible by |P|: {la}, {psi}")
    return mult


@cache
def _tower_element_data(p, k):
    """(element, cycle type) for every element of the height-k tower."""
    return tuple(
        (el, tw.perm_cycle_type(tw.element_perm(p, el)))
        for el in tw.tower_elements(p, k)
    )


@cache
def _label_value(p, label, el):
    """Character value of a tower label at an element, in Z[zeta_p].

    Twisted labels evaluate through the cycle product when the top shift is
    nonzero; induced labels vanish off the base subgroup and otherwise sum
    the factor products over the p rotations.
    """
    if label == tw.LEAF:
        return _zeta_one(p)
    children, s = el if el else ((), 0)
    if tw.is_orbit(label):
        subs = label[1:]
        if s:
            return (0,) * p
        acc = [0] * p
        for j in range(p):
            term = _zeta_one(p)
            for i, sub in enumerate(subs):
                term = _zeta_mul(p, term, _label_value(p, sub, children[(i + j) % p]))
            for i, c in enumerate(term):
                acc[i] += c
        return tuple(acc)
    inner, t = label
    if s == 0:
        term = _zeta_one(p)
        for child in children:
            term = _zeta_mul(p, term, _label_value(p, inner, child))
        return term
    q = children[0]
    for j in range(1, p):
        q = tw.element_mul(p, children[(j * s) % p], q)
    return _zeta_mul_root(p, _label_value(p, inner, q), (t * s) % p)


def oracle_full_restriction(la, p, budget=None):
    """Full decomposition of la over the tower labels by inner products.

    Only for |la| = p^k within the element budget; asserts dimension
    conservation on its own result.
    """
    la = check_partition(la)
    n = sum(la)
    heights = sylow_shape(n, p)
    if len(heights) != 1:
        raise ValueError(f"full oracle needs |la| a power of {p}, got {n}")
    k = heights[0]
    order = tw.check_budget(n, p, budget)
    chis = [(el, character_value(la, ct)) for el, ct in _tower_element_data(p, k)]
    support = [(el, chi) for el, chi in chis if chi]
    vec = {}
    for label in tw.irr_labels(p, k):
        acc = [0] * p
        for el, chi in support:
            val = _zeta_conj(p, _label_value(p, label, el))
            for i, c in enumerate(val):
                if c:
                    acc[i] += chi * c
        total = _zeta_int(tuple(acc))
        mult, rem = divmod(total, order)
        if rem or mult < 0:
            raise ArithmeticError(f"bad oracle multiplicity for {la}, {label}")
        if mult:
            vec[label] = mult
    degree = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
    if degree != sn_degree(la):
        raise ArithmeticError(f"oracle dimension check failed for {la}")
    return vec


# ------------------------------------------------- monomial plethysm oracle

def _ssyt_monomials(shape, nvars, content=None):
    """Monomial expansion of the Schur polynomial: dict exponent -> count.

    Straight-shape semistandard tableaux with entries <= nvars; exponents are
    full length-nvars tuples.  A content caps how often each entry occurs,
    which prunes the walk to the tableaux below it.
    """
    shape = tuple(shape)
    counts = [0] * (nvars + 1)
    grid = {}
    out = defaultdict(int)
    cells = [(r, c) for r, part in enumerate(shape) for c in range(part)]

    def fill(pos):
        if pos == len(cells):
            out[tuple(counts[1:])] += 1
            return
        r, c = cells[pos]
        lo = grid[r, c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1, c] + 1)
        for v in range(lo, nvars + 1):
            if content is not None and counts[v] >= content[v - 1]:
                continue
            grid[r, c] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1
        grid.pop((r, c), None)

    fill(0)
    return dict(out)


@cache
def _kostka(shape, content):
    """Number of semistandard tableaux of the given shape and content."""
    shape, content = tuple(shape), tuple(content)
    if sum(shape) != sum(content):
        return 0
    return _ssyt_monomials(shape, len(content), content).get(content, 0)


def _schur_expand(coeffs, total):
    """Schur coefficients of a symmetric polynomial by Kostka elimination.

    coeffs maps partitions of total to the polynomial's coefficients at
    those exponents, which fix a symmetric polynomial; processing partitions
    in descending lex order makes the Kostka system triangular.
    """
    out = {}
    residue = dict(coeffs)
    for alpha in partitions(total):
        c = residue.get(alpha, 0)
        if not c:
            continue
        out[alpha] = c
        for beta in partitions(total):
            kn = _kostka(alpha, beta)
            if kn:
                residue[beta] = residue.get(beta, 0) - c * kn
    leftovers = {exp: c for exp, c in residue.items() if c}
    if leftovers:
        raise ArithmeticError(f"non-symmetric residue in Schur expansion: {leftovers}")
    return out


@cache
def _plethysm_expansion(mu):
    """Schur expansions of s_(2) o s_mu and s_(1,1) o s_mu.

    The two are (s_mu^2 + s_mu[p_2]) / 2 and (s_mu^2 - s_mu[p_2]) / 2, read
    at each partition exponent alpha of 2|mu| from the monomials K_e x^e of
    s_mu: [x^alpha] s_mu^2 is the sum of K_e K_(alpha - e), and
    [x^alpha] s_mu[p_2] is K_(alpha / 2) when every part of alpha is even.
    """
    mu = tuple(mu)
    total = 2 * sum(mu)
    base = _ssyt_monomials(mu, total)
    halves = ({}, {})
    for alpha in partitions(total):
        exp = alpha + (0,) * (total - len(alpha))
        square = sum(c * base.get(tuple(a - x for a, x in zip(exp, e)), 0) for e, c in base.items())
        doubled = 0 if any(a % 2 for a in alpha) else base.get(tuple(a // 2 for a in exp), 0)
        for half, c in zip(halves, (square + doubled, square - doubled)):
            if c % 2:
                raise ArithmeticError("plethysm expansion is not integral")
            if c:
                half[alpha] = c // 2
    return tuple(_schur_expand(half, total) for half in halves)


def oracle_plethysm_coefficient(nu, mu, la):
    """a^la_{nu,mu} for nu in {(2), (1,1)} via plain monomial expansion."""
    nu, mu, la = tuple(nu), tuple(mu), tuple(la)
    if sum(mu) > 4:
        raise ValueError("monomial oracle is limited to |mu| <= 4")
    if sum(la) != 2 * sum(mu):
        raise ValueError("need |la| = 2|mu|")
    if nu not in ((2,), (1, 1)):
        raise ValueError(f"outer shape must be (2) or (1,1), got {nu}")
    sym, alt = _plethysm_expansion(mu)
    return (sym if nu == (2,) else alt).get(la, 0)
