"""Sylow p-subgroup towers of symmetric groups.

The Sylow p-subgroup of S_{p^k} is the iterated wreath product
P_{p^k} = P_{p^{k-1}} wr C_p; its irreducible characters are labelled
recursively here by

  * LEAF            -- the unique character of P_1,
  * (inner, t)      -- the extension of inner x ... x inner twisted by the
                       t-th character of the top C_p (degree deg(inner)^p),
  * ("orb", l_1..l_p) -- induced from a non-constant p-tuple of labels on the
                       base subgroup (degree p * prod deg(l_i)), stored as
                       the lexicographically least rotation.

Linear labels are nested twist chains, identified with digit strings
(d_1, ..., d_k), innermost digit first.  For p = 2 the degree-2^k hooks
biject onto these digit strings: the hook (2^k - y, 1^y) goes to the bits of
the reflected Gray code y ^ (y >> 1), most significant first, and the sign
twist y -> 2^k - 1 - y flips the innermost digit.
The module also provides the explicit permutation model of the tower inside
S_{p^k} used by the full brute-force oracle, with elements carried as nested
(children, top-cycle) pairs.
"""

import os
from functools import cache
from itertools import product
from math import prod

from .partitions import check_prime

LEAF = ()


class BudgetExceeded(RuntimeError):
    """Raised when the Sylow subgroup order |P_n| is over the configured budget."""


def twist(inner, t):
    """The label X(inner; phi_t)."""
    return (inner, t)


def is_twist(label):
    return len(label) == 2 and isinstance(label[1], int)


def rotations(tup):
    """The cyclic rotations of a tuple, starting with the tuple itself."""
    return [tup[i:] + tup[:i] for i in range(len(tup))]


def orbit(labels):
    """Induced label for a non-constant tuple, canonicalized by least rotation.

    Rotations are compared through label_text so that mixed-type nested
    tuples never get compared directly.
    """
    labels = tuple(labels)
    if len(set(labels)) == 1:
        raise ValueError("orbit tuples must not be constant")
    least = min(rotations(labels), key=lambda rot: tuple(label_text(sub) for sub in rot))
    return ("orb",) + least


def lyndon_words(m, p):
    """The Lyndon words of length p over range(m), in lexicographic order.

    Duval's walk (Fredricksen-Kessler-Maiorana order): each word of length
    at most p is extended periodically and its trailing maximal letters are
    dropped.  For prime p these are exactly the least rotations of the
    (m^p - m)/p non-constant necklaces.
    """
    if m < 2:
        return
    word = [0]
    while word:
        size = len(word)
        if size == p:
            yield tuple(word)
        while len(word) < p:
            word.append(word[len(word) - size])
        while word and word[-1] == m - 1:
            word.pop()
        if word:
            word[-1] += 1


def is_orbit(label):
    return bool(label) and label[0] == "orb"


def linear_label(digits):
    """Nested twist chain for a digit string, innermost digit first."""
    label = LEAF
    for d in digits:
        label = (label, d)
    return label


def linear_factors(psi, p, heights):
    """A linear label as per-factor digit tuples, checked against p and the heights.

    A bare digit tuple is accepted when the Sylow subgroup has one factor.
    Every digit must be an int in range(p); it is not reduced mod p.
    """
    psi = tuple(psi)
    if len(heights) == 1 and (not psi or isinstance(psi[0], int)):
        psi = (psi,)
    psi = tuple(tuple(f) for f in psi)
    if len(psi) != len(heights) or any(len(f) != h for f, h in zip(psi, heights)):
        raise ValueError(f"label {psi} does not match the factor shape {heights}")
    if any(type(d) is not int or not 0 <= d < p for f in psi for d in f):
        raise ValueError(f"label {psi} has a digit outside range({p})")
    return psi


def linear_digits(label):
    """Digit string of a linear label, or None when the label is not linear."""
    digits = []
    while label != LEAF:
        if not is_twist(label):
            return None
        label, d = label[0], label[1]
        digits.append(d)
    return tuple(reversed(digits))


@cache
def label_degree(p, label):
    if label == LEAF:
        return 1
    if is_orbit(label):
        return p * prod(label_degree(p, sub) for sub in label[1:])
    return label_degree(p, label[0]) ** p


@cache
def label_height(p, label):
    """Tower height of a label, or ValueError when it is no label at prime p.

    Rejects a digit outside range(p), an orbit whose arity is not p and an
    orbit whose entries have different heights.
    """
    if label == LEAF:
        return 0
    if is_orbit(label):
        subs = label[1:]
        heights = {label_height(p, sub) for sub in subs}
        if len(subs) != p or len(heights) != 1:
            raise ValueError(f"bad orbit label {label_text(label)!r} at p={p}")
        return heights.pop() + 1
    inner, t = label
    if not 0 <= t < p:
        raise ValueError(f"digit {t} out of range at p={p}")
    return label_height(p, inner) + 1


@cache
def irr_labels(p, k):
    """All irreducible-character labels of the height-k tower, sorted.

    Count satisfies |Irr(k)| = (m^p - m)/p + p*m with m = |Irr(k-1)|.  The
    induced labels are the Lyndon words over the level below ranked by
    label_text, that is the least rotations orbit picks.
    """
    if k == 0:
        return (LEAF,)
    below = sorted(irr_labels(p, k - 1), key=label_text)
    labels = [twist(inner, t) for inner in below for t in range(p)]
    labels += [("orb",) + tuple(below[i] for i in word) for word in lyndon_words(len(below), p)]
    return tuple(sorted(labels, key=lambda lab: (label_degree(p, lab), label_text(lab))))


def linear_labels(p, k):
    """All p^k digit strings, lexicographically."""
    return tuple(product(range(p), repeat=k))


def label_text(label):
    """Dotted-digit / bracket text form: "0.1.1", "[e,0]", "[0,1].1", "e"."""
    if label == LEAF:
        return "e"
    if is_orbit(label):
        return "[" + ",".join(label_text(sub) for sub in label[1:]) + "]"
    inner, t = label
    return str(t) if inner == LEAF else label_text(inner) + "." + str(t)


@cache
def parse_label(text):
    """Inverse of label_text."""
    text = text.strip()
    pos = 0

    def digit():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"bad label text {text!r} at position {pos}")
        return int(text[start:pos])

    def atom():
        nonlocal pos
        if pos < len(text) and text[pos] == "e":
            pos += 1
            return LEAF
        if pos < len(text) and text[pos] == "[":
            pos += 1
            subs = [chain()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                subs.append(chain())
            if pos >= len(text) or text[pos] != "]":
                raise ValueError(f"unclosed orbit bracket in {text!r}")
            pos += 1
            return orbit(subs)
        return twist(LEAF, digit())

    def chain():
        nonlocal pos
        label = atom()
        while pos < len(text) and text[pos] == ".":
            pos += 1
            label = twist(label, digit())
        return label

    label = chain()
    if pos != len(text):
        raise ValueError(f"trailing junk in label text {text!r}")
    return label


def hook_to_linear(k, y):
    """Digit string of the linear constituent of the hook (2^k-y, 1^y): Gray code bits."""
    if not 0 <= y <= 2**k - 1:
        raise ValueError(f"hook coordinate y={y} out of range at k={k}")
    return tuple(((y ^ (y >> 1)) >> i) & 1 for i in reversed(range(k)))


def _binary_digits(k, digits):
    digits = tuple(digits)
    if len(digits) != k or any(d not in (0, 1) for d in digits):
        raise ValueError(f"need {k} binary digits, got {digits}")
    return digits


def linear_to_hook(k, digits):
    """Inverse of hook_to_linear."""
    y = 0
    for d in _binary_digits(k, digits):
        y = 2 * y + (d ^ (y & 1))
    return y


def sgn_twist(k, digits):
    """Multiply a linear label of the 2^k tower by the sign restriction.

    That is y -> 2^k - 1 - y on hooks; it flips the innermost digit.
    """
    digits = _binary_digits(k, digits)
    return (1 - digits[0],) + digits[1:] if k else ()


def sylow_order(n, p):
    """Order of the Sylow p-subgroup of S_n (Legendre's formula)."""
    check_prime(p)
    e = 0
    q = p
    while q <= n:
        e += n // q
        q *= p
    return p**e


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


def check_budget(n, p, budget=None):
    """|P_n|, or BudgetExceeded when it is over the budget on |P_n|.

    Both oracles call this first: the full oracle walks all |P_n| elements,
    the linear one sums over the class counts of _signature_buckets.  An
    explicit budget wins, 0 included; otherwise SYLOW_BRANCH_BUDGET is read,
    and the default is 2^20.
    """
    if budget is None:
        budget = int(os.environ.get("SYLOW_BRANCH_BUDGET", 2**20))
    order = sylow_order(n, p)
    if order > budget:
        raise BudgetExceeded(f"|P_{n}| = {order} exceeds the element budget {budget}")
    return order

