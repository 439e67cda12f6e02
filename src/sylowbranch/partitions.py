"""Integer partitions and the shape families the restriction machinery works over.

Partitions are plain tuples of weakly decreasing positive ints.  Besides the
basic operations (conjugation, enumeration, text parsing) this module knows
the special shapes that appear throughout the multiplicity formulas: hooks
(n-x, 1^x), almost hooks (n-2-x, 2, 1^x), the square-box families B_n(t),
the halving map delta on partitions of even numbers, and the exceptional
two-block family used by the k=4 classification arguments.  That family is
one table, two_block_pairs, from each member to its witness row.
"""

from functools import cache
from math import comb


def check_partition(parts):
    """Validate an iterable of parts and return it as a canonical tuple.

    Raises ValueError unless the parts are ints (not bools, floats or
    strings: text is read by parse_partition), positive and weakly
    decreasing.
    """
    la = tuple(parts)
    prev = None
    for part in la:
        if type(part) is not int:
            raise ValueError(f"partition parts must be ints, got {part!r}")
        if part <= 0:
            raise ValueError(f"partition parts must be positive, got {part}")
        if prev is not None and part > prev:
            raise ValueError(f"partition parts must be weakly decreasing, got {la}")
        prev = part
    return la


# the largest partition size read from text or a cache entry: the filling
# walk recurses once per cell, so the engine stops with RecursionError near 1000
CACHE_MAX_SIZE = 2**12


def parse_partition(text):
    """Parse comma-separated parts with exponent shorthand, e.g. "8,2,1^6".

    Each base and exponent is ASCII digits (a base may carry a minus sign,
    for check_partition to reject), so "+3" and "1_6" are bad tokens.
    Raises ValueError as soon as the size would pass CACHE_MAX_SIZE, before
    the token is expanded; a part below 1 counts as one cell there.
    """
    text = text.strip()
    if not text:
        return ()
    parts, size = [], 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty part in partition text {text!r}")
        base, hat, exp = (piece.strip() for piece in token.partition("^"))
        if not (_is_digits(base.removeprefix("-")) and (not hat or _is_digits(exp))):
            raise ValueError(f"bad partition token {token!r}")
        b, e = int(base), int(exp) if hat else 1
        size += max(b, 1) * e
        if size > CACHE_MAX_SIZE:
            raise ValueError(f"partition size passes {CACHE_MAX_SIZE} at {token!r}")
        parts.extend([b] * e)
    return check_partition(parts)


def _is_digits(text):
    return text.isascii() and text.isdigit()


def format_partition(la):
    """Inverse of parse_partition, without the exponent shorthand."""
    return ",".join(str(part) for part in la)


@cache
def partitions(n, max_part=None):
    """All partitions of n (parts bounded by max_part), in descending lex order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(la):
    """Transpose of the Young diagram."""
    if not la:
        return ()
    return tuple(sum(1 for part in la if part > i) for i in range(la[0]))


def hook(n, x):
    """The hook (n-x, 1^x); requires 0 <= x <= n-1."""
    if not 0 <= x <= n - 1:
        raise ValueError(f"hook coordinate x={x} out of range for n={n}")
    return (n - x,) + (1,) * x


def hook_coordinate(la):
    """x such that la = hook(|la|, x), or None if la is not a hook."""
    if not la or any(part != 1 for part in la[1:]):
        return None
    return len(la) - 1


def almost_hook(n, x):
    """The almost hook (n-2-x, 2, 1^x); requires n >= 4 and 0 <= x <= n-4."""
    if not 0 <= x <= n - 4:
        raise ValueError(f"almost-hook coordinate x={x} out of range for n={n}")
    return (n - 2 - x, 2) + (1,) * x


def almost_hook_coordinate(la):
    """x such that la = almost_hook(|la|, x), or None."""
    if len(la) < 2 or la[1] != 2 or any(part != 1 for part in la[2:]):
        return None
    x = len(la) - 2
    return x if la[0] >= 2 else None


def in_box(la, t):
    """Whether la fits in the t x t box: first part and length both <= t."""
    return (la[0] if la else 0) <= t and len(la) <= t


def delta(la):
    """Halve a partition of an even number part by part.

    Even parts are halved; the odd parts (necessarily evenly many) are paired
    up in decreasing order and replaced alternately by (part+1)/2, (part-1)/2.
    Zeros are dropped and the result is sorted.  |delta(la)| = |la| / 2.
    """
    odds = [part for part in la if part % 2]
    if len(odds) % 2:
        raise ValueError(f"delta needs an even partition, got {la}")
    halves = [part // 2 for part in la if part % 2 == 0]
    for pos, part in enumerate(odds):
        halves.append((part + 1) // 2 if pos % 2 == 0 else (part - 1) // 2)
    return tuple(sorted((h for h in halves if h), reverse=True))


@cache
def two_block_pairs(k):
    """The exceptional family at 2^k: member -> witness row.

    Members are the lambda = (mu1, *nu, 1^m) of 2^k, m >= 0, from six families
    (mu1 is the single leading part, nu the block of parts >= 2 after it):

      a) mu1 = 2^{k-1},     nu in {(3), (4), (4,2)}
      b) mu1 = 2^{k-1} - 1, nu in {(4), (5), (5,2), (2,2), (2,2,2)}
      c) mu1 = 2^{k-1} - 2, nu in {(2,2,2), (2,2,2,2)}
      d) mu1 = 2^{k-1} - 3, nu in {(3,2,2), (3,2,2,2)}
      e) mu1 = 2r + 3 odd (r >= 0), nu in {(3), (3,2)}
      f) mu1 = 2r even (r >= 1),    nu = (2,2)

    subject to mu1 >= nu_1 and mu1 + |nu| <= 2^k.  The row (z, x) of a
    member names its self-pairing witnesses one level down: the hook
    (2^{k-1} - z, 1^z) paired with the almost hook at x = 2^{k-2} - 2, or,
    when z is None, the almost hook at x taken twice.  x may be out of
    range, for the boundary members.  The dict is read-only.  k is bounded
    by check_power first: the table holds about 1.5 * 2^k members of up to
    2^k parts each.
    """
    n = check_power(2, k)
    half, quarter = n // 2, n // 4
    # the generic rows of (e) and (f) first; a later row overrides an earlier one
    rows = {}
    for r in range(half - 2):
        rows[2 * r + 3, (3,)] = rows[2 * r + 3, (3, 2)] = (None, half - r - 4)
        rows[2 * r + 2, (2, 2)] = (None, half - r - 3)
    for mu1, nus, row in (
        (half, ((4,), (4, 2)), (None, quarter - 3)),
        (half - 1, ((5,), (5, 2)), (None, quarter - 3)),
        (half - 2, ((2, 2, 2), (2, 2, 2, 2)), (None, quarter - 1)),
        (half - 3, ((3, 2, 2), (3, 2, 2, 2)), (None, quarter - 1)),
        (half, ((3,), (2, 2)), (quarter - 1, quarter - 2)),
        (half - 1, ((4,),), (quarter - 1, quarter - 2)),
        (half - 1, ((2, 2), (2, 2, 2), (3,), (3, 2)), (quarter, quarter - 2)),
    ):
        for nu in nus:
            rows[mu1, nu] = row
    return {
        (mu1, *nu) + (1,) * (n - mu1 - sum(nu)): row
        for (mu1, nu), row in rows.items()
        if mu1 >= nu[0] and mu1 + sum(nu) <= n
    }


def choose(a, b):
    """Binomial coefficient with the out-of-range-is-zero convention."""
    return comb(a, b) if 0 <= b <= a else 0


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_prime(p):
    """Raise ValueError unless p is a prime below 2^64.

    p must be an int, not a bool or a float that equals one: a memo key
    holding 2.0 would hit the entry of 2, and the walks need int sizes.
    Past trial division by the primes up to 37, p must be a strong probable
    prime to each of them as a base: with p - 1 = d 2^s, d odd, a^d = 1 or
    a^(d 2^r) = -1 mod p for some r < s.  That test has no false positive
    below 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86 (2017)).
    """
    if type(p) is not int:
        raise ValueError(f"p must be a prime of type int, got {p!r}")
    if p >= 2**64:
        raise ValueError(f"p must be a prime below 2^64, got {p}")
    if p in _SMALL_PRIMES:
        return
    d, s = p - 1, 0
    while d > 0 and d % 2 == 0:
        d, s = d // 2, s + 1
    if p < 2 or any(p % q == 0 for q in _SMALL_PRIMES) or any(
        pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s))
        for a in _SMALL_PRIMES
    ):
        raise ValueError(f"p must be a prime, got {p}")


def sylow_shape(n, p):
    """Tower heights of the Sylow p-subgroup factors of S_n, ascending.

    Digit a_i of the base-p expansion contributes i repeated a_i times; the
    Sylow subgroup is the direct product of the corresponding towers.
    Raises ValueError unless p is a prime.
    """
    check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    heights = []
    i = 0
    while n:
        n, digit = divmod(n, p)
        heights.extend([i] * digit)
        i += 1
    return tuple(heights)


def check_power(p, k):
    """p^k, or ValueError unless p is a prime, k an int >= 0 and p^k at most CACHE_MAX_SIZE.

    p is checked first, by check_prime, and then k, so that p^k is built
    only from an int p and a bounded k.  A float or bool k would be stored
    in a memo key and written by save_cache as text that load_cache rejects
    (1.0) or that is not JSON (True).
    """
    check_prime(p)
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be an int >= 0, got {k!r}")
    if k > CACHE_MAX_SIZE.bit_length() or p**k > CACHE_MAX_SIZE:
        raise ValueError(f"size {p}^{k} exceeds {CACHE_MAX_SIZE}")
    return p**k


def check_shape(la, p, n=None):
    """The input gate of every (partition, prime) entry: la checked, and its Sylow heights.

    la must be a partition (of n, if given) of at most CACHE_MAX_SIZE and p
    a prime; returns (la as a canonical tuple, sylow_shape(|la|, p)).
    """
    la = check_partition(la)
    size = sum(la)
    if n is not None and size != n:
        raise ValueError(f"|{la}| != {n}")
    if size > CACHE_MAX_SIZE:
        raise ValueError(f"size {size} exceeds {CACHE_MAX_SIZE}")
    return la, sylow_shape(size, p)
