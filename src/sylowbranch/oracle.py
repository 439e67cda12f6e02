"""Brute-force ground truth, independent of the engine's recursion.

Two routes:

  * direct inner products over the Sylow subgroup, exact in the cyclotomic
    integers Z[zeta_p] (integer accumulators per power of zeta, reduced in
    the power basis; a result must come out rational-integral and divisible
    by the group order).  Both character oracles pair chi^la, read once per
    cycle type, with a label's class sums: for each cycle type, the sum of
    the label's conjugated values over the elements of that type.
    _label_value computes them from the labels' definition (tw.irr_labels)
    by the wreath-product cycle-index recursion weighted by label values
    (Kerber, Representations of Permutation Groups), so no element is
    built; a product label's sums are the convolution of its factors'.
    The element model of the tower (nested (children, top shift) pairs,
    their products, permutations and cycle types, and the labels' values
    element by element) is the reference the recursion is held against; it
    lives in the tests, in tests/elements.py;

  * a monomial-expansion plethysm oracle for s_(2) o s_mu and s_(1,1) o s_mu
    with |mu| <= 4: expand s_mu as a sum of monomials over semistandard
    tableaux, read the coefficients of s_mu^2 and s_mu(x^2) at partition
    exponents only (they fix a symmetric polynomial), and read off Schur
    coefficients by triangular elimination against Kostka numbers, which
    come from removing horizontal strips.

Everything here deliberately avoids the engine and the lattice-filling code
paths in characters (only character values are shared, and those are pinned
separately by orthogonality tests).
"""

import os
from collections import defaultdict
from functools import cache

from . import tower as tw
from .characters import character_value, sn_degree
from .partitions import check_prime, check_shape, partitions


class BudgetExceeded(RuntimeError):
    """Raised when the Sylow subgroup order |P_n| is over the configured budget."""


def sylow_order(n, p):
    """Order of the Sylow p-subgroup of S_n (Legendre's formula)."""
    check_prime(p)
    e = 0
    q = p
    while q <= n:
        e += n // q
        q *= p
    return p**e


def check_budget(n, p, budget=None):
    """|P_n|, or BudgetExceeded when it is over the budget on |P_n|.

    Both oracles call this first.  Neither builds an element, so the budget
    bounds the group order only.  An explicit budget wins, 0 included;
    otherwise SYLOW_BRANCH_BUDGET is read, and the default is 2^20.
    """
    if budget is None:
        budget = int(os.environ.get("SYLOW_BRANCH_BUDGET", 2**20))
    order = sylow_order(n, p)
    if order > budget:
        raise BudgetExceeded(f"|P_{n}| = {order} exceeds the element budget {budget}")
    return order


# ---------------------------------------------------------------- cyclotomics

def _zeta_mul(p, a, b):
    out = [0] * p
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            if d:
                out[(i + j) % p] += c * d
    return tuple(out)


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


# ------------------------------------------------------- class sums over P_n

def _convolve(p, *factors):
    """Class sums of a product over disjoint points: cycle types merge, values multiply."""
    acc = {(): _zeta_one(p)}
    for sums in factors:
        out = defaultdict(lambda: [0] * p)
        for ct, val in acc.items():
            for rct, rval in sums.items():
                vec = out[tuple(sorted(ct + rct, reverse=True))]
                for i, c in enumerate(_zeta_mul(p, val, rval)):
                    vec[i] += c
        acc = {ct: tuple(vec) for ct, vec in out.items() if any(vec)}
    return acc


@cache
def _label_value(p, label):
    """A tower label's class sums: cycle type -> sum of conj(label(g)), in Z[zeta_p].

    The sum runs over the elements g of the label's tower H wr C_p, H the
    tower one level down: a p-tuple of elements of H and a top shift s.
    With s = 0 the cycle type merges the entries' types.  With s != 0 it is
    the type of the entries' cycle product in H stretched p times, and each
    element of H is the cycle product of |H|^(p-1) tuples.  So:

      * LEAF: {(1,): 1};
      * an orbit label (l_1, ..., l_p) vanishes off the base (s = 0); there
        it sums the entries' products over the p rotations, and each
        rotation gives the same sum: p times the convolution of the
        entries' sums;
      * a twist (inner, t) is the product of inner over the entries at
        s = 0: the p-fold convolution of inner's sums; at s != 0 it is
        zeta^(ts) times inner at the cycle product, so the shifts s != 0
        add |H|^(p-1) (sum of zeta^(-ts)) S_inner(ct) at the stretched type
        p*ct, and that sum over s is p - 1 for t = 0 and -1 otherwise.

    Cycle types whose sum is the zero vector are left out.  The dicts are
    cached and shared, so treat them as read-only.
    """
    if label == tw.LEAF:
        return {(1,): _zeta_one(p)}
    if tw.is_orbit(label):
        conv = _convolve(p, *(_label_value(p, sub) for sub in label[1:]))
        return {ct: tuple(p * c for c in val) for ct, val in conv.items()}
    inner, t = label
    below = _label_value(p, inner)
    out = {ct: list(val) for ct, val in _convolve(p, *(below,) * p).items()}
    shifts = p - 1 if t == 0 else -1
    weight = shifts * sylow_order(p ** tw.label_height(p, inner), p) ** (p - 1)
    for ct, val in below.items():
        acc = out.setdefault(tuple(p * x for x in ct), [0] * p)
        for i, c in enumerate(val):
            acc[i] += weight * c
    return {ct: tuple(acc) for ct, acc in out.items() if any(acc)}


def _multiplicity(p, chis, sums, order, what):
    """(1/|P|) sum over ct of chi(ct) S(ct), which must be an integer >= 0.

    chis maps each cycle type of sums to chi(ct).  The sum must be a
    rational integer, divisible by order and not negative; else
    ArithmeticError names what was paired.
    """
    acc = [0] * p
    for ct, val in sums.items():
        chi = chis[ct]
        if chi:
            for i, c in enumerate(val):
                acc[i] += chi * c
    mult, rem = divmod(_zeta_int(tuple(acc)), order)
    if rem or mult < 0:
        raise ArithmeticError(f"bad oracle multiplicity for {what}")
    return mult


def oracle_linear_multiplicity(la, p, psi, budget=None):
    """<chi^la restricted, psi> by direct summation, psi a linear label.

    psi is a digit tuple (single tower factor) or tuple of per-factor digit
    tuples, ascending factor order.  Its class sums are the convolution of
    its factors' _label_value sums, and chi^la is read once per cycle type.
    """
    la, heights = check_shape(la, p)
    n = sum(la)
    psi = tw.linear_factors(psi, p, heights)
    order = check_budget(n, p, budget)
    sums = _convolve(p, *(_label_value(p, tw.linear_label(digits)) for digits in psi))
    chis = {ct: character_value(la, ct) for ct in sums}
    return _multiplicity(p, chis, sums, order, (la, psi))


def oracle_full_restriction(la, p, budget=None):
    """Full decomposition of la over the tower labels by inner products.

    Only for |la| = p^k with |P| within the budget; asserts dimension
    conservation on its own result.  chi^la is read once per cycle type of
    the tower (the trivial label's class sums are the class sizes) and
    paired with the _label_value sums of each label of tw.irr_labels(p, k),
    in that order.
    """
    la, heights = check_shape(la, p)
    n = sum(la)
    if len(heights) != 1:
        raise ValueError(f"full oracle needs |la| a power of {p}, got {n}")
    k = heights[0]
    order = check_budget(n, p, budget)
    trivial = _label_value(p, tw.linear_label((0,) * k))
    chis = {ct: character_value(la, ct) for ct in trivial}
    vec = {}
    for label in tw.irr_labels(p, k):
        mult = _multiplicity(p, chis, _label_value(p, label), order, (la, label))
        if mult:
            vec[label] = mult
    degree = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
    if degree != sn_degree(la):
        raise ArithmeticError(f"oracle dimension check failed for {la}")
    return vec


# ------------------------------------------------- monomial plethysm oracle

def _ssyt_monomials(shape, nvars):
    """Monomial expansion of the Schur polynomial: dict exponent -> count.

    Straight-shape semistandard tableaux with entries <= nvars; exponents are
    full length-nvars tuples.
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
            grid[r, c] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1
        grid.pop((r, c), None)

    fill(0)
    return dict(out)


def _horizontal_strips(shape, size):
    """The shapes mu inside shape with shape / mu a horizontal strip of size cells.

    Row i keeps between max(shape[i+1], shape[i] - left) and shape[i] cells,
    left being the cells still to remove.
    """
    out = []

    def walk(i, left, kept):
        if i == len(shape):
            if not left:
                out.append(tuple(x for x in kept if x))
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        for x in range(max(below, shape[i] - left), shape[i] + 1):
            walk(i + 1, left - shape[i] + x, kept + (x,))

    walk(0, size, ())
    return out


@cache
def _kostka(shape, content):
    """Number of semistandard tableaux of the given shape and content.

    The entries equal to the last content value fill a horizontal strip, so
    K(shape, content) is the sum of K(mu, content[:-1]) over the shapes mu
    that _horizontal_strips leaves.
    """
    shape, content = tuple(shape), tuple(content)
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    return sum(_kostka(mu, content[:-1]) for mu in _horizontal_strips(shape, content[-1]))


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
