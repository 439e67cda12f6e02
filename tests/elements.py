"""The Sylow tower as a group of explicit elements: the tests' reference model.

An element of the height-k tower P_{p^k} = P_{p^(k-1)} wr C_p is a nested
(children, s) pair: p elements one level down and a top shift s; the leaf
is ().  The module builds every element, its permutation of {0..p^k-1}, its
cycle type, products, per-level signatures and each label's value at it,
straight from the labels' definitions.  oracle._label_value computes a
label's class sums by a recursion that builds no element; the tests hold
it against class_sums here, element by element.  Everything is exponential
in |P|, so keep p^k small.
"""

from collections import Counter, defaultdict
from functools import cache
from itertools import product

from sylowbranch import oracle as orc
from sylowbranch import tower as tw
from sylowbranch.partitions import sylow_shape


@cache
def tower_elements(p, k):
    """All elements of the height-k tower as nested (children, s) pairs."""
    if k == 0:
        return ((),)
    below = tower_elements(p, k - 1)
    return tuple(
        (children, s) for children in product(below, repeat=p) for s in range(p)
    )


def element_perm(p, el):
    """The permutation of {0..p^k-1} an element induces, as a tuple of images.

    Blocks of size p^{k-1} are rotated by the top cycle s and each image
    block is then permuted by the corresponding child.
    """
    if el == ():
        return (0,)
    children, s = el
    child_perms = [element_perm(p, c) for c in children]
    m = len(child_perms[0])
    perm = [0] * (p * m)
    for i in range(p):
        j = (i + s) % p
        block = child_perms[j]
        base = j * m
        off = i * m
        for r in range(m):
            perm[off + r] = base + block[r]
    return tuple(perm)


def element_signature(p, el):
    """Per-level digit sums (sigma_1, ..., sigma_k) mod p, innermost first.

    A linear label with digits (d_1..d_k) takes the value
    omega^(sum d_j sigma_j) at the element, omega a fixed primitive p-th
    root of unity.
    """
    if el == ():
        return ()
    children, s = el
    subs = [element_signature(p, c) for c in children]
    levels = tuple(sum(col) % p for col in zip(*subs))
    return levels + (s % p,)


def element_mul(p, a, b):
    """Group product: apply b first, then a."""
    if a == ():
        return ()
    ach, asft = a
    bch, bsft = b
    children = tuple(
        element_mul(p, ach[i], bch[(i - asft) % p]) for i in range(p)
    )
    return (children, (asft + bsft) % p)


def perm_cycle_type(perm):
    """Cycle type of a permutation given as a tuple of images."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        q = start
        while not seen[q]:
            seen[q] = True
            q = perm[q]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def cycle_type(p, el):
    """Cycle type of the permutation an element induces."""
    return perm_cycle_type(element_perm(p, el))


def zeta_mul_root(p, vec, e):
    """Multiply an exponent vector by zeta^e."""
    out = [0] * p
    for i, c in enumerate(vec):
        out[(i + e) % p] += c
    return tuple(out)


def zeta_conj(p, vec):
    """Complex conjugate of an exponent vector: zeta^i -> zeta^-i."""
    return tuple(vec[(-i) % p] for i in range(p))


@cache
def label_value(p, label, el):
    """Character value of a tower label at an element, in Z[zeta_p].

    Twisted labels evaluate through the cycle product when the top shift is
    nonzero; induced labels vanish off the base subgroup and otherwise sum
    the factor products over the p rotations.
    """
    if label == tw.LEAF:
        return orc._zeta_one(p)
    children, s = el if el else ((), 0)
    if tw.is_orbit(label):
        subs = label[1:]
        if s:
            return (0,) * p
        acc = [0] * p
        for j in range(p):
            term = orc._zeta_one(p)
            for i, sub in enumerate(subs):
                term = orc._zeta_mul(p, term, label_value(p, sub, children[(i + j) % p]))
            for i, c in enumerate(term):
                acc[i] += c
        return tuple(acc)
    inner, t = label
    if s == 0:
        term = orc._zeta_one(p)
        for child in children:
            term = orc._zeta_mul(p, term, label_value(p, inner, child))
        return term
    q = children[0]
    for j in range(1, p):
        q = element_mul(p, children[(j * s) % p], q)
    return zeta_mul_root(p, label_value(p, inner, q), t * s)


def canonical(sums):
    """Class sums with each value in the basis 1, zeta, ..., zeta^(p-2), zeros dropped.

    1 + zeta + ... + zeta^(p-1) = 0, so a value has many exponent vectors;
    subtracting the last coordinate from every one picks a single one.
    """
    out = {}
    for ct, vec in sums.items():
        vec = tuple(c - vec[-1] for c in vec)
        if any(vec):
            out[ct] = vec
    return out


@cache
def class_sums(p, k):
    """label -> canonical class sums of every label of the height-k tower, by walking it."""
    elements = [(el, cycle_type(p, el)) for el in tower_elements(p, k)]
    out = {}
    for label in tw.irr_labels(p, k):
        by_ct = defaultdict(lambda: [0] * p)
        for el, ct in elements:
            acc = by_ct[ct]
            for i, c in enumerate(zeta_conj(p, label_value(p, label, el))):
                acc[i] += c
        out[label] = canonical(by_ct)
    return out


@cache
def signature_buckets(p, k):
    """Counter of (cycle type, level signature) over the height-k tower's elements."""
    return Counter(
        (cycle_type(p, el), element_signature(p, el)) for el in tower_elements(p, k)
    )


def linear_class_sums(p, psi):
    """Canonical class sums of a linear label of P_n, from its factors' element buckets.

    psi holds one digit string per factor.  The label's value at an element
    is zeta^(sum of digit * signature) over the factors, which act on
    disjoint points.
    """
    by_ct = defaultdict(lambda: [0] * p)
    for combo in product(*(signature_buckets(p, len(digits)).items() for digits in psi)):
        cts, e, count = [], 0, 1
        for ((ct, sig), c), digits in zip(combo, psi):
            cts += ct
            e += sum(d * s for d, s in zip(digits, sig))
            count *= c
        by_ct[tuple(sorted(cts, reverse=True))][(-e) % p] += count
    return canonical(by_ct)


def class_counts(n, p):
    """Cycle type -> number of elements of P_n, from the recursion's trivial label.

    The trivial label's class sums are the class sizes; a product's are the
    convolution of its factors'.
    """
    trivial = (orc._label_value(p, tw.linear_label((0,) * h)) for h in sylow_shape(n, p))
    return {ct: orc._zeta_int(vec) for ct, vec in orc._convolve(p, *trivial).items()}
