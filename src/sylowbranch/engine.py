"""Restriction of irreducible symmetric-group characters to Sylow p-subgroups.

The computation follows the subgroup chain

    S_{p^k}  >  W = S_{p^{k-1}} wr C_p  >  P = P_{p^{k-1}} wr C_p

one tower level at a time.  Stage A decomposes over W: a non-constant
C_p-orbit of p-tuples (mu_1..mu_p) of partitions of p^{k-1} contributes its
induced character with multiplicity c^la_{mu_1..mu_p}, and a constant tuple
mu^p splits over the p twists, the t-th receiving

    (1/p) * [ c^la_{mu..mu} + e_t * D ],   e_t = p-1 if t = 0 else -1,

with D the stretched pairing <s_mu[p_p], s_la>.  (For p = 2 this is the
classical symmetric/alternating square split; for odd p it is the same
Frobenius computation carried out over C_p, where only the Galois-invariant
aggregate e_t enters, so no choice of primitive root is made.  The odd-p
stage is a derived extension validated against the brute-force oracle.)

Stage B restricts each W-constituent to P via the recursively known vectors
R_mu of the factors: twisted constituents split their constant-label blocks
through the symmetric-power counts N_s(m) = (m^p + (p-1)m)/p or (m^p - m)/p,
and induced constituents restrict by Mackey's theorem with a single double
coset, scattering products of factor multiplicities over orbit labels.  The
scatter ranks the factor labels once by label_text, so an orbit label's
least rotation is taken on int tuples and equals the one tw.orbit picks; a
constant block visits only the (m^p - m)/p Lyndon words over its m labels,
which for prime p are the least rotations of its non-constant necklaces.

Every divisibility is asserted and every full vector is checked against
dimension conservation; failures abort rather than round.

A linear-degree slice of the same recursion (linear_tower) tracks digit
strings only, which is what the classification sweeps and large-k spot
checks run on.
"""

from collections import defaultdict
from functools import cache
from itertools import product
from math import prod

from . import characters as ch
from . import tower as tw
from .partitions import check_partition, sylow_shape

_full_memo = {}
_lin_memo = {}
_stage_a_memo = {}


def _twist_weights(p, c, d):
    """Stage A multiplicities of the p twists of a constant tuple."""
    weights = []
    for t in range(p):
        e = p - 1 if t == 0 else -1
        q, r = divmod(c + e * d, p)
        if r or q < 0:
            raise ArithmeticError(
                f"twist weight not a nonneg integer: c={c}, D={d}, p={p}, t={t}"
            )
        weights.append(q)
    return weights


@cache
def _sym_power_counts(p, m):
    """N_s(m) for s = 0..p-1: how an m-fold constant block splits over twists."""
    n0, r0 = divmod(m**p + (p - 1) * m, p)
    ns, rs = divmod(m**p - m, p)
    if r0 or rs or n0 < 0 or ns < 0:
        raise ArithmeticError(f"bad symmetric-power counts at p={p}, m={m}")
    return (n0,) + (ns,) * (p - 1)


def _stage_a(la, p, k):
    """Decomposition over W: (non-constant orbit classes, constant data).

    Returns (classes, consts) where classes maps a canonical p-tuple of
    partitions to its multiplicity and consts maps mu to (c, twist weights).
    """
    key = (p, k, la)
    hit = _stage_a_memo.get(key)
    if hit is not None:
        return hit
    m = p ** (k - 1)
    classes = {}
    consts = {}
    for mus, c in ch.young_decompose(la, (m,) * p).items():
        if len(set(mus)) == 1:
            mu = mus[0]
            d = ch.stretch_coefficient(la, mu, p)
            consts[mu] = (c, _twist_weights(p, c, d))
        else:
            canonical = min(tw.rotations(mus))
            if canonical not in classes:
                classes[canonical] = c
    result = (classes, consts)
    _stage_a_memo[key] = result
    return result


def _check_size(la, p, k):
    la = check_partition(la)
    if sum(la) != p**k:
        raise ValueError(f"|{la}| != {p}^{k}")
    return la


def _stage_b(tower, la, p, k, extend):
    """Stage B up to the induced labels, shared by the full and linear paths.

    tower is the per-factor function one level down (restrict_tower or
    linear_tower) and extend(label, t) the label it twists into one level up.
    Returns (acc, blocks): acc holds the twisted part -- the constant-label
    tuples of the orbit classes and the symmetric-power split of the
    constant tuples -- and blocks lists (c, factor vectors, constant) for
    the full path to scatter over induced labels.
    """
    classes, consts = _stage_a(la, p, k)
    acc = defaultdict(int)
    blocks = []
    for mus, c in classes.items():
        parts = [tower(mu, p, k - 1) for mu in mus]
        blocks.append((c, parts, False))
        for lab, m in parts[0].items():
            coeff = c * m
            for other in parts[1:]:
                coeff *= other.get(lab, 0)
            if coeff:
                for t in range(p):
                    acc[extend(lab, t)] += coeff
    for mu, (c, weights) in consts.items():
        sub = tower(mu, p, k - 1)
        if c:
            blocks.append((c, [sub] * p, True))
        for lab, m in sub.items():
            counts = _sym_power_counts(p, m)
            for t, w in enumerate(weights):
                if not w:
                    continue
                for s in range(p):
                    if counts[s]:
                        acc[extend(lab, (t + s) % p)] += w * counts[s]
    return acc, blocks


def _orbit_scatter(blocks, p):
    """The induced part of Stage B: orbit label -> multiplicity.

    Labels are ranked by label_text, so least rotations are found on int
    tuples and agree with tw.orbit.  A constant block meets each induced
    label once, at its least rotation, so only the Lyndon words over its
    rank-sorted labels are visited.
    """
    labels = {lab for _, parts, _ in blocks for part in parts for lab in part}
    labels = sorted(labels, key=tw.label_text)
    rank = {lab: i for i, lab in enumerate(labels)}
    induced = defaultdict(int)
    for c, parts, constant in blocks:
        ranked = [sorted((rank[lab], m) for lab, m in part.items()) for part in parts]
        ranks = [[r for r, _ in part] for part in ranked]
        mults = [[m for _, m in part] for part in ranked]
        if constant:
            rs, ms = ranks[0], mults[0]
            for word in tw.lyndon_words(len(rs), p):
                induced[tuple(rs[i] for i in word)] += c * prod(ms[i] for i in word)
            continue
        for key, ms in zip(product(*ranks), product(*mults)):
            # a constant tuple belongs to the twisted part, counted in _stage_b
            if key.count(key[0]) != p:
                induced[min(tw.rotations(key))] += c * prod(ms)
    return {("orb",) + tuple(labels[r] for r in key): m for key, m in induced.items()}


def restrict_tower(la, p, k):
    """Full decomposition of la (a partition of p^k) over the tower labels.

    Returns a read-only dict label -> multiplicity, memoized on (p, k, la).
    """
    la = _check_size(la, p, k)
    key = (p, k, la)
    hit = _full_memo.get(key)
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
    _full_memo[key] = vec
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
    la = _check_size(la, p, k)
    key = (p, k, la)
    hit = _lin_memo.get(key)
    if hit is not None:
        return hit
    if k == 0:
        vec = {(): 1}
    else:
        vec = dict(_stage_b(linear_tower, la, p, k, _append_digit)[0])
    _lin_memo[key] = vec
    return vec


def _sylow_product(tower, la, p):
    """The Young-subgroup factor product over the Sylow factors of S_|la|."""
    la = check_partition(la)
    heights = sylow_shape(sum(la), p)
    out = defaultdict(int)
    for mus, c in ch.young_decompose(la, tuple(p**h for h in heights)).items():
        parts = [tower(mu, p, h).items() for mu, h in zip(mus, heights)]
        for combo in product(*parts):
            coeff = c
            for _, m in combo:
                coeff *= m
            out[tuple(lab for lab, _ in combo)] += coeff
    return dict(out)


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
    psi = tw.linear_factors(psi, sylow_shape(sum(la), p))
    return linear_sylow(la, p).get(psi, 0)


def lin_constituents(la, p):
    """Map digit-tuple labels -> multiplicity; every entry is positive."""
    return linear_sylow(la, p)


def count_lin(la, p):
    """Number of distinct linear constituents of la restricted to P_n."""
    return len(linear_sylow(la, p))


CACHE_FORMAT = "sylowbranch-restriction-cache"
CACHE_VERSION = 1


def save_cache(path):
    """Persist the full-vector memo as versioned JSON."""
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_cache(path, missing_ok=False):
    """Prime the full-vector memo from a cache file; stale versions are rejected."""
    import json
    import os

    if missing_ok and not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CACHE_FORMAT:
        raise ValueError(f"not a restriction cache: {path}")
    if payload.get("version") != CACHE_VERSION:
        raise ValueError(
            f"stale cache version {payload.get('version')!r} (need {CACHE_VERSION})"
        )
    loaded = 0
    for entry in payload["entries"]:
        p, k = int(entry["p"]), int(entry["k"])
        la = tuple(int(x) for x in entry["lambda"].split(",")) if entry["lambda"] else ()
        vec = {tw.parse_label(text): int(m) for text, m in entry["vector"]}
        try:
            heights_ok = all(tw.label_height(p, lab) == k for lab in vec)
        except ValueError:
            heights_ok = False
        total = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
        if not heights_ok or total != ch.sn_degree(la):
            raise ValueError(f"corrupt cache entry for {la} in {path}")
        _full_memo[(p, k, la)] = vec
        loaded += 1
    return loaded
