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
The module is the label algebra only; the permutation model of the tower,
which the brute-force oracle walks, lives in oracle.
"""

from functools import cache
from itertools import product
from math import prod

LEAF = ()


def twist(inner, t):
    """The label X(inner; phi_t)."""
    return (inner, t)


def rotations(tup):
    """The cyclic rotations of a tuple, starting with the tuple itself."""
    return [tup[i:] + tup[:i] for i in range(len(tup))]


def orbit(labels):
    """Induced label for a non-constant tuple, canonicalized by least rotation.

    Rotations are compared through label_text so that mixed-type nested
    tuples never get compared directly; each entry's text is built once.
    """
    labels = tuple(labels)
    if len(set(labels)) == 1:
        raise ValueError("orbit tuples must not be constant")
    texts = tuple(label_text(sub) for sub in labels)
    i = min(range(len(texts)), key=lambda i: texts[i:] + texts[:i])
    return ("orb",) + labels[i:] + labels[:i]


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
        if is_orbit(label):
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

    By definition: the p twists of each label one level down, and orbit(t)
    for every non-constant p-tuple t of those labels, sorted by (degree,
    text).  Count satisfies |Irr(k)| = (m^p - m)/p + p*m with m = |Irr(k-1)|.
    """
    if k == 0:
        return (LEAF,)
    below = irr_labels(p, k - 1)
    labels = {twist(inner, t) for inner in below for t in range(p)}
    labels |= {orbit(t) for t in product(below, repeat=p) if len(set(t)) > 1}
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
    """Inverse of label_text, parsing each distinct sub-label text once.

    Surrounding whitespace is ignored and any other whitespace is junk.  The
    text is split at its top level: a trailing ".digits" at bracket depth 0
    twists the label before it, and the commas at depth 1 of a "[...]"
    separate an orbit's entries, which orbit() canonicalises.  Each piece is
    parsed through this cached function, so a sub-label shared by many
    texts is parsed once.  Junk raises ValueError naming the whole text.
    """
    try:
        (body,) = text.split()
        if body == "e":
            return LEAF
        if body[0] == "[" and body[-1] == "]":
            pieces = []
            depth = start = 0
            for i, c in enumerate(body):
                if c == "[":
                    depth += 1
                elif c == "]":
                    depth -= 1
                    # the first bracket must close at the end
                    if not depth and i != len(body) - 1:
                        raise ValueError
                elif c == "," and depth == 1:
                    pieces.append(body[start + 1 : i])
                    start = i
            if depth:
                raise ValueError
            pieces.append(body[start + 1 : -1])
            return orbit(parse_label(piece) for piece in pieces)
        # any other label is a digit string after its last dot at depth 0, if
        # it has one: a dot inside brackets would leave a "]" after it
        dot = body.rfind(".")
        digits = body[dot + 1 :]
        if not digits.isdigit():
            raise ValueError
        return twist(parse_label(body[:dot]) if dot >= 0 else LEAF, int(digits))
    except ValueError:
        raise ValueError(f"bad label text {text!r}") from None


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
