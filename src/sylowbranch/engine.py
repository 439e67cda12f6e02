"""Restriction of irreducible symmetric-group characters to Sylow p-subgroups.

The computation follows the subgroup chain

    S_{p^k}  >  W = S_{p^{k-1}} wr C_p  >  P = P_{p^{k-1}} wr C_p

one tower level at a time.  Both splits over the p twists below are
characters.cyclic_split: a character of C_p with degree c and value d on
a generator contains the trivial character (c + (p-1) d)/p times and each
other linear character (c - d)/p times.

Stage A decomposes over W into p-tuples (mu_1..mu_p) of partitions of
p^{k-1}, each kept as its least rotation with the pair (c, d): c is
c^la_{mu_1..mu_p} (the Young fold holds every rotation), and d is the
stretched pairing D = <s_mu[p_p], s_la> for a constant tuple mu^p and 0
otherwise.  A constant tuple's split cyclic_split(p, c, D) over the p
twists is asserted there.  (For p = 2 this is the classical
symmetric/alternating square split; for odd p it is the same Frobenius
computation carried out over C_p, where only the Galois-invariant
aggregate enters, so no choice of primitive root is made.  The odd-p
stage is a derived extension validated against the brute-force oracle.)

Stage B restricts each W-constituent to P via the recursively known vectors
R_mu of the factors.  Its twisted part is one character of C_p per label l
met in every factor of a tuple: a non-constant orbit adds the regular
character (p c prod_i m_i(l), 0), a constant tuple mu^p the twisted tensor
power (c m^p, d m), and each label is split once by cyclic_split.  Induced
constituents restrict by Mackey's theorem with a single double coset,
scattering products of factor multiplicities over orbit labels.  The
scatter ranks the factor labels once by label_text, so an orbit label's
least rotation is taken on int tuples and equals the one tw.orbit picks.
It is bilinear in the factor vectors: classes sharing their first p - 1
factors are contracted into one vector for the last factor, products are
summed on raw rank tuples, and each distinct tuple is rotated once.  A
constant block visits only the (m^p - m)/p Lyndon words over its m labels,
which for prime p are the least rotations of its non-constant necklaces.
The stretched pairing D comes from Littlewood's p-quotient rule
(characters.stretch_coefficient), not from a sum over cycle types.

Every divisibility is asserted and every full vector is checked against
dimension conservation; failures abort rather than round.

A linear-degree slice of the same recursion (linear_tower) tracks digit
strings only, which is what the classification sweeps and large-k spot
checks run on.
"""

import os
from collections import defaultdict
from itertools import product
from math import prod

from . import characters as ch
from . import tower as tw
from .partitions import check_partition, check_prime, sylow_shape

_full_memo = {}
_lin_memo = {}


def _stage_a(la, p, k):
    """Decomposition over W: least-rotation p-tuple of partitions -> (c, d).

    c is c^la_{mu_1..mu_p}.  For a constant tuple mu^p, d is the stretched
    pairing D, and its split cyclic_split(p, c, d) over the p twists is
    asserted integral here; for a non-constant tuple d = 0.  Rotations are
    built only if mus[0] is least.
    """
    m = p ** (k - 1)
    out = {}
    for mus, c in ch.young_decompose(la, (m,) * p).items():
        if len(set(mus)) == 1:
            d = ch.stretch_coefficient(la, mus[0], p)
            ch.cyclic_split(p, c, d)
            out[mus] = (c, d)
        elif mus[0] == min(mus) and mus == min(tw.rotations(mus)):
            out[mus] = (c, 0)
    return out


def _check_size(la, p, k):
    la = check_partition(la)
    if sum(la) != p**k:
        raise ValueError(f"|{la}| != {p}^{k}")
    return la


def _stage_b(tower, la, p, k, extend):
    """Stage B up to the induced labels, shared by the full and linear paths.

    tower is the per-factor function one level down (restrict_tower or
    linear_tower) and extend(label, t) the label it twists into one level up.
    Returns (acc, blocks): acc is the twisted part, one C_p character
    (degree, value) per label split once, and blocks lists (c, factor
    vectors, constant) for the full path to scatter over induced labels.  A
    constant tuple's value is d m because C_p fixes m of the label's m^p
    tuples.
    """
    deg = defaultdict(int)
    val = defaultdict(int)
    blocks = []
    for mus, (c, d) in _stage_a(la, p, k).items():
        if len(set(mus)) == 1:
            sub = tower(mus[0], p, k - 1)
            blocks.append((c, [sub] * p, True))
            for lab, m in sub.items():
                deg[lab] += c * m**p
                val[lab] += d * m
            continue
        parts = [tower(mu, p, k - 1) for mu in mus]
        blocks.append((c, parts, False))
        for lab, m in parts[0].items():
            coeff = p * c * m
            for other in parts[1:]:
                coeff *= other.get(lab, 0)
            if coeff:
                deg[lab] += coeff
    acc = {}
    for lab, n in deg.items():
        for t, w in enumerate(ch.cyclic_split(p, n, val[lab])):
            if w:
                acc[extend(lab, t)] = w
    return acc, blocks


def _orbit_scatter(blocks, p):
    """The induced part of Stage B: orbit label -> multiplicity.

    Labels are ranked by label_text, so least rotations are found on int
    tuples and agree with tw.orbit.  A constant block meets each induced
    label once, at its least rotation, so only the Lyndon words over its
    rank-sorted labels are visited.  The class blocks are bilinear in their
    factor vectors: blocks whose first p - 1 vectors are the same memoised
    dicts are contracted into one vector for the last factor, products are
    summed on raw rank tuples, and each distinct tuple is rotated once.
    """
    labels = {lab for _, parts, _ in blocks for part in parts for lab in part}
    labels = sorted(labels, key=tw.label_text)
    rank = {lab: i for i, lab in enumerate(labels)}
    induced = defaultdict(int)
    heads = {}
    for c, parts, constant in blocks:
        if constant:
            rs, ms = zip(*sorted((rank[lab], m) for lab, m in parts[0].items()))
            for word in tw.lyndon_words(len(rs), p):
                induced[tuple(rs[i] for i in word)] += c * prod(ms[i] for i in word)
            continue
        _, last = heads.setdefault(tuple(map(id, parts[:-1])), (parts[:-1], defaultdict(int)))
        for lab, m in parts[-1].items():
            last[rank[lab]] += c * m
    raw = defaultdict(int)
    for head, last in heads.values():
        ranks = [[rank[lab] for lab in part] for part in head]
        tail = list(last.items())
        for key, ms in zip(product(*ranks), product(*(part.values() for part in head))):
            w = prod(ms)
            for r, m in tail:
                raw[key + (r,)] += w * m
    for key, m in raw.items():
        # a constant tuple belongs to the twisted part, counted in _stage_b
        if key.count(key[0]) != p:
            induced[min(tw.rotations(key))] += m
    return {("orb",) + tuple(labels[r] for r in key): m for key, m in induced.items()}


def restrict_tower(la, p, k):
    """Full decomposition of la (a partition of p^k) over the tower labels.

    Returns a read-only dict label -> multiplicity, memoized on (p, k, la).
    """
    # a hit is on a key that was checked when it was stored
    hit = _full_memo.get((p, k, la)) if isinstance(la, tuple) else None
    if hit is None:
        la = _check_size(la, p, k)
        hit = _full_memo.get((p, k, la))
    if hit is not None:
        return hit
    if k == 0:
        vec = {tw.LEAF: 1}
    else:
        acc, blocks = _stage_b(restrict_tower, la, p, k, tw.twist)
        vec = {**acc, **_orbit_scatter(blocks, p)}
    total = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
    if total != ch.sn_degree(la):
        raise ArithmeticError(
            f"dimension conservation failed for {la} at (p,k)=({p},{k}): "
            f"{total} != {ch.sn_degree(la)}"
        )
    _full_memo[p, k, la] = vec
    return vec


def _append_digit(digits, t):
    return digits + (t,)


def linear_tower(la, p, k):
    """Linear-degree slice of restrict_tower, keyed by digit strings.

    Exact projection of the same recursion: only the degree-1 labels of the
    factors can assemble into a degree-1 label one level up, through either
    a constant tuple (twists) or a constant block of a twisted constituent,
    so the slice is the twisted part of Stage B alone.
    """
    hit = _lin_memo.get((p, k, la)) if isinstance(la, tuple) else None
    if hit is None:
        la = _check_size(la, p, k)
        hit = _lin_memo.get((p, k, la))
    if hit is not None:
        return hit
    if k == 0:
        vec = {(): 1}
    else:
        vec = _stage_b(linear_tower, la, p, k, _append_digit)[0]
    _lin_memo[p, k, la] = vec
    return vec


def _sylow_product(tower, la, p):
    """The Young-subgroup factor product over the Sylow factors of S_|la|."""
    la = check_partition(la)
    heights = sylow_shape(sum(la), p)
    sizes = tuple(p**h for h in heights)
    return ch.young_decompose(la, sizes, lambda mu, i: tower(mu, p, heights[i]))


def restrict_sylow(la, p):
    """Decomposition of la over the full Sylow p-subgroup of S_|la|.

    Labels are tuples of per-factor tower labels, factors in ascending
    tower-height order.
    """
    return _sylow_product(restrict_tower, la, p)


def linear_sylow(la, p):
    """Linear constituents over the full Sylow subgroup: digit tuples -> mult."""
    return _sylow_product(linear_tower, la, p)


def sbc(la, p, psi):
    """Sylow branching coefficient: multiplicity of the linear label psi.

    psi is a digit tuple (single tower factor) or a tuple of per-factor digit
    tuples in ascending factor order.
    """
    la = check_partition(la)
    psi = tw.linear_factors(psi, p, sylow_shape(sum(la), p))
    return linear_sylow(la, p).get(psi, 0)


def lin_constituents(la, p):
    """Map digit-tuple labels -> multiplicity; every entry is positive."""
    return linear_sylow(la, p)


def count_lin(la, p):
    """Number of distinct linear constituents of la restricted to P_n."""
    return len(linear_sylow(la, p))


CACHE_FORMAT = "sylowbranch-restriction-cache"
CACHE_VERSION = 1
# the largest p^k a cache entry may have: the filling walk recurses once per
# cell, so restrict_tower stops with RecursionError near |la| = 1000
CACHE_MAX_SIZE = 2**12


def save_cache(path):
    """Persist the full-vector memo as versioned JSON; a failed write keeps the old file."""
    import json

    entries = []
    for (p, k, la), vec in sorted(_full_memo.items()):
        entries.append(
            {
                "p": p,
                "k": k,
                "lambda": ",".join(map(str, la)),
                "vector": [
                    [tw.label_text(lab), m]
                    for lab, m in sorted(
                        vec.items(),
                        key=lambda kv: (tw.label_degree(p, kv[0]), tw.label_text(kv[0])),
                    )
                ],
            }
        )
    payload = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "primes": sorted({p for p, _, _ in _full_memo}),
        "max_k": max((k for _, k, _ in _full_memo), default=0),
        "entries": entries,
    }
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_int(value):
    """A JSON integer field as it stands: a float, a bool or a string is corrupt."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def load_cache(path):
    """Prime the full-vector memo from an existing cache file.

    A missing file raises OSError; a stale version, a file that is not a
    restriction cache or a corrupt entry ValueError, and then the memo is
    left as it was.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or payload.get("format") != CACHE_FORMAT:
        raise ValueError(f"not a restriction cache: {path}")
    if payload.get("version") != CACHE_VERSION:
        raise ValueError(
            f"stale cache version {payload.get('version')!r} (need {CACHE_VERSION})"
        )
    loaded = {}
    for i, entry in enumerate(entries):
        try:
            p, k = _json_int(entry["p"]), _json_int(entry["k"])
            check_prime(p)
            if k > CACHE_MAX_SIZE.bit_length() or p**k > CACHE_MAX_SIZE:
                raise ValueError(f"size {p}^{k} exceeds {CACHE_MAX_SIZE}")
            la = _check_size(entry["lambda"].split(","), p, k)
            if (p, k, la) in loaded:
                raise ValueError(f"a second entry for p={p}, k={k}, {la}")
            pairs = [(tw.parse_label(text), _json_int(m)) for text, m in entry["vector"]]
            vec = dict(pairs)
            if len(vec) != len(pairs):
                raise ValueError("a label given twice")
            if any(tw.label_height(p, lab) != k or m <= 0 for lab, m in vec.items()):
                raise ValueError("a label of another height or a multiplicity below 1")
            if sum(m * tw.label_degree(p, lab) for lab, m in vec.items()) != ch.sn_degree(la):
                raise ValueError("dimension conservation fails")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"corrupt cache entry {i} in {path}: {exc}") from exc
        loaded[(p, k, la)] = vec
    _full_memo.update(loaded)
    return len(loaded)
