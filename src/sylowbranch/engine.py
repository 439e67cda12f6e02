"""Restriction of irreducible symmetric-group characters to Sylow p-subgroups.

The computation follows the subgroup chain

    S_{p^k}  >  W = S_{p^{k-1}} wr C_p  >  P = P_{p^{k-1}} wr C_p

one tower level at a time, by one fold, _level, over the p blocks of size
p^{k-1}.  It peels the last block first and merges partial results by
remaining shape, and each block multiplies in the factor vectors R_mu one
level down, so a p-tuple of labels (l_1..l_p) ends with the weight
sum_mu c^la_{mu_1..mu_p} prod_i m_{mu_i}(l_i).  c^la_{mu_1..mu_p} does not
change when the mu's are rotated, so neither does the weight.

A non-constant label tuple is induced from the base group, and by Mackey's
theorem with a single double coset its orbit label, the least rotation in
label_text order (the one tw.orbit picks), has the weight as multiplicity.
The fold keeps one rotation of each, on label ranks from the first peel
on: the labels of the factor vectors are ranked by label_text before that
peel, a tuple grows only by entries that rank at least its first-filled
(last) one, and one pass over the keys at the end keeps it if, rotated
right by one, it is its least rotation.  That holds without comparing
rotations when the least entry occurs once, as it always does at p = 2.
The rule lives here only; the tests hold it against tw.irr_labels.

A constant tuple (l, ..., l) is one character of C_p per label: its weight
is the degree, and its value on a generator is the sum over the constant
tuples mu^p of D m_mu(l), D the stretched pairing <s_mu[p_p], s_la> from
Littlewood's p-quotient rule (characters.stretch_coefficient).  The fold
carries the constant chains beside the labels, so each mu^p ends with
c = c^la_{mu^p}, and its own split cyclic_split(p, c, D) over the p twists
is asserted; each constant key is then split once by cyclic_split, in the
pass that keeps the orbits.  A character of C_p with degree c and value d
on a generator contains the trivial character (c + (p-1) d)/p times and
each other linear character (c - d)/p times.  (For p = 2 this is the
classical symmetric/alternating square split; for odd p it is the same
Frobenius computation carried out over C_p, where only the
Galois-invariant aggregate enters, so no choice of primitive root is
made.  The odd-p stage is a derived extension validated against the
brute-force full oracle at n = 9 and 27 (p = 3) and n = 25 (p = 5).)

restrict_tower and linear_tower share one memo body, _tower, which checks
the input on a miss, starts both towers from the leaf {(): 1} and stores
what _level returns, or on the linear path a conjugate twin (below).
_level checks every full vector against dimension conservation, its
degree summed from the degrees of the ranked labels one level down.  Every
divisibility is asserted; failures abort rather than round.

A linear-degree slice of the same recursion (linear_tower) tracks digit
strings only, which is what the classification sweeps and large-k spot
checks run on.  Only constant tuples of linear labels give a linear label
one level up, so the slice runs the same fold over the linear vectors one
level down keeping only those, one label -> weight dict per remaining
shape, with no ranks.

For a general n the Sylow subgroup is the product of the towers given by
the base-p digits of n.  restrict_sylow and linear_sylow take the product
by one recursion over those factors, _sylow_product: peel one end factor
with one split_pairs, then multiply by the remaining shapes' products.
The end is the top factor, unless the memo already holds the product of
every shape one bottom factor smaller, as it does in a sweep over
ascending n: then the bottom factor's split, the smallest, is walked
instead.  A cold call stores only shapes one top factor smaller, so the
rule's first O(rows) lookup misses there and the top is peeled (at odd p
a shape whose factors all have the bottom height can meet it, and then
both ends peel the same split).
linear_sylow memoises every such product on (p, la) in _lin_sylow_memo,
so the sweeps that ask for one shape's linear constituents again read
them; like every memoised vector here, its dicts are read-only.
restrict_sylow keeps its products for one call only.  Both take la
through partitions.check_shape, which rejects |la| > CACHE_MAX_SIZE
before the first split, as _tower rejects p^k above it.

The linear memos are filled in conjugate pairs.  chi^la' = chi^la sgn, and
sgn restricted to P is linear, so on a miss _tower looks up la' in
_lin_memo, and _sylow_product la' in _lin_sylow_memo, and if it is there
stores and returns its vector times sgn|P as la's (_twin): no fold.  At odd
p, P has odd order, so sgn|P is trivial and the twin is the same dict.
At p = 2 the top generator of P_{2^k} swaps two blocks of 2^{k-1} points,
an odd permutation only at k = 1, so sgn|P_{2^k} is the digit string
(1, 0, ..., 0) and multiplying by it flips the innermost digit
(tw.sgn_twist), factor by factor in a product.  The full path folds both
shapes: a twin there would leave out of _full_memo the sub-level entries
la's own fold stores, so a restrict --cache file could hold fewer entries
than the fold writes.
"""

import os
from bisect import bisect_left
from collections import defaultdict
from math import prod

from . import characters as ch
from . import tower as tw
from .partitions import check_partition, check_power, check_prime, check_shape, conjugate, format_partition

_full_memo = {}
_lin_memo = {}
_lin_sylow_memo = {}


def _stage_a(la, p, k):
    """Decomposition over W: least-rotation p-tuple of partitions -> c^la_{mu_1..mu_p}.

    Not on the engine's path: it is the per-tuple reference that the tests
    compare _level against.  The Young fold holds every rotation with the
    same coefficient, so rotations are built only if mus[0] is least.
    """
    m = p ** (k - 1)
    return {
        mus: c
        for mus, c in ch.young_decompose(la, (m,) * p).items()
        if mus[0] == min(mus) and mus == min(tw.rotations(mus))
    }


def _check_size(la, p, k):
    check_prime(p)
    n = check_power(p, k)
    la = check_partition(la)
    if sum(la) != n:
        raise ValueError(f"|{la}| != {p}^{k}")
    return la


def _level(la, p, k, full):
    """One tower level of la: restrict_tower's vector if full, else linear_tower's.

    The states map a remaining shape to (key -> weight, mu -> c of its
    constant chain).  On the full path a key is a tuple of label ranks,
    filled from the last block; on the linear path it is a label, kept only
    while every block has it (the diagonal).  Ranking the labels before the
    first peel, the steps that start and extend a key and turning the keys
    back into labels are the only places where the two paths differ.  The
    full path sums the degree of its output from the degrees of the ranks
    and raises ArithmeticError unless it is the degree of la.
    """
    tower = restrict_tower if full else linear_tower
    m = p ** (k - 1)

    def state():
        return defaultdict(int), defaultdict(int)

    states = defaultdict(state)
    subs = {}
    # la's table is read once per level (the memos answer every repeat), so
    # the first peel walks it without the cache
    walk = ch.split_walk(la, m)
    # by symmetry every mu of a later block is met in the first peel
    for mu, _ in walk:
        if mu not in subs:
            subs[mu] = tower(mu, p, k - 1)
    if full:
        labels = sorted({lab for sub in subs.values() for lab in sub}, key=tw.label_text)
        rank = {lab: r for r, lab in enumerate(labels)}
        degs = [tw.label_degree(p, lab) for lab in labels]
        # mu -> (its ranks ascending, their multiplicities)
        ranked = {
            mu: tuple(zip(*sorted((rank[lab], x) for lab, x in sub.items())))
            for mu, sub in subs.items()
        }
    for (mu, nu), c in walk.items():
        vec, chains = states[nu]
        chains[mu] += c
        if full:
            for r, x in zip(*ranked[mu]):
                vec[(r,)] += c * x
        else:
            for lab, x in subs[mu].items():
                vec[lab] += c * x
    for i in range(p - 2, -1, -1):
        merged = defaultdict(state)
        for rest, (vec, chains) in states.items():
            # the first block takes what is left whole
            pairs = ch.split_pairs(rest, m) if i else {(rest, ()): 1}
            for (mu, nu), c in pairs.items():
                out, out_chains = merged[nu]
                if mu in chains:
                    out_chains[mu] += c * chains[mu]
                if full:
                    # a new entry must rank at least the first-filled one
                    rs, xs = ranked[mu]
                    for key, w in vec.items():
                        cw = c * w
                        for j in range(bisect_left(rs, key[-1]), len(rs)):
                            out[(rs[j],) + key] += cw * xs[j]
                else:
                    sub = subs[mu]
                    for lab, w in vec.items():
                        x = sub.get(lab)
                        if x:
                            out[lab] += c * w * x
        states = merged
    vec, chains = states[()]
    # the constant tuples' values, by rank on the full path
    val = defaultdict(int)
    for mu, c in chains.items():
        d = ch.stretch_coefficient(la, mu, p)
        ch.cyclic_split(p, c, d)
        for lab, x in zip(*ranked[mu]) if full else subs[mu].items():
            val[lab] += d * x
    if not full:
        return {
            lab + (t,): w
            for lab, n in vec.items()
            for t, w in enumerate(ch.cyclic_split(p, n, val[lab]))
            if w
        }
    # one pass: the first-filled entry of a key is its least, so a constant
    # key is split over the twists, and of an orbit the least rotation is
    # kept, which starts with the least entry: this one if that is unique
    out, total = {}, 0
    for key, w in vec.items():
        r = key[-1]
        n = key.count(r)
        if n == p:
            for t, x in enumerate(ch.cyclic_split(p, w, val[r])):
                if x:
                    out[tw.twist(labels[r], t)] = x
                    total += x * degs[r] ** p
            continue
        key = key[-1:] + key[:-1]
        if n == 1 or key == min(tw.rotations(key)):
            out[("orb", *map(labels.__getitem__, key))] = w
            total += p * w * prod(map(degs.__getitem__, key))
    if total != ch.sn_degree(la):
        raise ArithmeticError(
            f"dimension conservation failed for {la} at (p,k)=({p},{k}): "
            f"{total} != {ch.sn_degree(la)}"
        )
    return out


def _twin(vec, p, product):
    """la's linear vector read from vec, its conjugate's (a tower vector, or a product if product).

    At odd p that is vec itself; at p = 2 every tower factor of every key
    is sign-twisted, each distinct factor of a product once, so that its
    keys share their factor tuples as a folded product's do.
    """
    if p != 2:
        return vec
    if not product:
        return {tw.sgn_twist(len(d), d): m for d, m in vec.items()}
    flips = {f: tw.sgn_twist(len(f), f) for f in {f for key in vec for f in key}}
    return {tuple(map(flips.__getitem__, key)): m for key, m in vec.items()}


def _tower(memo, la, p, k, full):
    """restrict_tower's body if full, else linear_tower's: memo lookup, check and store."""
    # a hit is on a key that was checked when it was stored; a float or bool
    # p or k can equal such a key's, so it is read only for ints
    hit = memo.get((p, k, la)) if type(p) is type(k) is int and isinstance(la, tuple) else None
    if hit is None:
        la = _check_size(la, p, k)
        hit = memo.get((p, k, la))
    if hit is not None:
        return hit
    if k == 0:
        # tw.LEAF is the empty digit string, so both towers start from {(): 1}
        vec = {tw.LEAF: 1}
    else:
        twin = None if full else memo.get((p, k, conjugate(la)))
        vec = _level(la, p, k, full) if twin is None else _twin(twin, p, False)
    memo[p, k, la] = vec
    return vec


def restrict_tower(la, p, k):
    """Full decomposition of la (a partition of p^k) over the tower labels.

    Returns a read-only dict label -> multiplicity, memoized on (p, k, la).
    """
    return _tower(_full_memo, la, p, k, True)


def linear_tower(la, p, k):
    """Linear-degree slice of restrict_tower, keyed by digit strings.

    Exact projection of the same recursion: only constant tuples of linear
    labels one level down give a linear label, so the slice is _level's
    diagonal over the linear vectors.
    """
    return _tower(_lin_memo, la, p, k, False)


def _rests_held(la, m, p, memo):
    """Whether memo holds the product of every shape nu in la with |nu| = |la| - m.

    Every such nu is a remaining shape of the split by m, because
    s_{la/nu} != 0 for nu in la.  la less its last m cells, taken from the
    bottom row up, is one of them and is looked up first: O(rows), and on a
    cold memo the answer.
    """
    rest = list(la)
    while m >= rest[-1]:
        m -= rest.pop()
    rest[-1] -= m
    if (p, tuple(rest)) not in memo:
        return False
    return all((p, nu) in memo for nu in ch.subshapes(la, sum(rest)))


def _sylow_product(tower, la, p, heights, memo):
    """The Young-subgroup factor product of la over Sylow factors of these heights.

    A recursion over the factors, as deep as there are factors: one end
    factor, of size p^h, is peeled by one split_pairs(la, p^h), the vectors
    c * tower(mu) are summed into one tail per remaining shape nu, and each
    tail is multiplied by nu's product over the other factors, which are
    sylow_shape(|nu|, p).  memo maps (p, la) to its read-only product and is
    read and filled at every level.

    The peeled factor is the top one, unless memo already holds the product
    of every remaining shape of the bottom one, heights[0] (_rests_held):
    then that one is peeled, and its label goes in front of nu's keys, so
    the factors stay in ascending order; the product is the same, since the
    Young restriction is associative.  A sweep over ascending n meets the
    rule, and its bottom split is the small one (corner removal at odd n
    and p = 2).  A cold call stores only the products of shapes one top
    factor smaller, which are one bottom factor smaller only where all of
    la's factors have the bottom height (at odd p), and there both ends
    peel the same split; elsewhere the first lookup of _rests_held misses.
    """
    vec = memo.get((p, la))
    if vec is not None:
        return vec
    # restrict_sylow's products, kept for one call, are never twinned
    twin = memo.get((p, conjugate(la))) if memo is _lin_sylow_memo else None
    if twin is not None:
        vec = _twin(twin, p, True)
    elif len(heights) < 2:
        vec = {(lab,): m for lab, m in tower(la, p, heights[0]).items()} if heights else {(): 1}
    else:
        bottom = _rests_held(la, p ** heights[0], p, memo)
        h, rest = (heights[0], heights[1:]) if bottom else (heights[-1], heights[:-1])
        tails = defaultdict(lambda: defaultdict(int))
        for (mu, nu), c in ch.split_pairs(la, p**h).items():
            tail = tails[nu]
            for lab, x in tower(mu, p, h).items():
                tail[(lab,)] += c * x
        out = defaultdict(int)
        for nu, tail in tails.items():
            inner = _sylow_product(tower, nu, p, rest, memo)
            # the peeled factor's key goes at its end of nu's keys
            for first, a in (tail if bottom else inner).items():
                for last, b in (inner if bottom else tail).items():
                    out[first + last] += a * b
        vec = dict(out)
    memo[p, la] = vec
    return vec


def restrict_sylow(la, p):
    """Decomposition of la over the full Sylow p-subgroup of S_|la|.

    Labels are tuples of per-factor tower labels, factors in ascending
    tower-height order.  Returns a new dict.  The products of the remaining
    shapes are kept for this call only: a lasting memo would answer a
    repeat without reading _full_memo, whose growth is how the CLI decides
    to rewrite its cache file.
    """
    la, heights = check_shape(la, p)
    return _sylow_product(restrict_tower, la, p, heights, {})


def linear_sylow(la, p):
    """Linear constituents over the full Sylow subgroup: digit tuples -> mult > 0.

    Returns a read-only dict, memoized with the products of every remaining
    shape on (p, la) in _lin_sylow_memo.
    """
    la, heights = check_shape(la, p)
    return _sylow_product(linear_tower, la, p, heights, _lin_sylow_memo)


def sbc(la, p, psi):
    """Sylow branching coefficient: multiplicity of the linear label psi.

    psi is a digit tuple (single tower factor) or a tuple of per-factor digit
    tuples in ascending factor order.
    """
    la, heights = check_shape(la, p)
    psi = tw.linear_factors(psi, p, heights)
    return linear_sylow(la, p).get(psi, 0)


lin_constituents = linear_sylow


def count_lin(la, p):
    """Number of distinct linear constituents of la restricted to P_n."""
    return len(linear_sylow(la, p))


CACHE_FORMAT = "sylowbranch-restriction-cache"
CACHE_VERSION = 1


def _json_list(items, depth):
    """A JSON list in json.dump's indent=1 layout, from its items' encoded texts.

    depth is the indent of the items; the closing bracket is one space less.
    """
    pad = "\n" + " " * depth
    items = [pad + item for item in items]
    return f"[{','.join(items)}{pad[:-1]}]" if items else "[]"


def save_cache(path):
    """Persist the full-vector memo as versioned JSON; a failed write keeps the old file.

    The file holds the bytes of json.dump(payload, fh, indent=1) and a
    newline, but the indented layout is built directly, because the json
    module encodes an indented dump in pure Python.  Each string field is
    quoted by json.dumps, and each distinct label's text is built and quoted
    once per call.
    """
    import json

    texts = {}  # label -> (text, quoted text), for this call only
    entries = []
    for (p, k, la), vec in sorted(_full_memo.items()):
        rows = []
        for lab, m in vec.items():
            text = texts.get(lab)
            if text is None:
                plain = tw.label_text(lab)
                text = texts[lab] = (plain, json.dumps(plain))
            rows.append((tw.label_degree(p, lab), text, m))
        rows.sort()
        vector = _json_list([f"[\n     {quoted},\n     {m}\n    ]" for _, (_, quoted), m in rows], 4)
        entries.append(
            f'{{\n   "p": {p},\n   "k": {k},\n   "lambda": {json.dumps(format_partition(la))},\n'
            f'   "vector": {vector}\n  }}'
        )
    primes = sorted({p for p, _, _ in _full_memo})
    max_k = max((k for _, k, _ in _full_memo), default=0)
    doc = (
        f'{{\n "format": {json.dumps(CACHE_FORMAT)},\n "version": {CACHE_VERSION},\n'
        f' "primes": {_json_list(map(str, primes), 2)},\n "max_k": {max_k},\n'
        f' "entries": {_json_list(entries, 2)}\n}}\n'
    )
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(doc)
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
    facts = {}  # (p, label text) -> (height, degree), for this call only
    for i, entry in enumerate(entries):
        try:
            p, k = _json_int(entry["p"]), _json_int(entry["k"])
            # map is lazy, so p and k are checked before a part is read; only the
            # text save_cache writes for la is accepted
            text = entry["lambda"]
            la = _check_size(map(int, text.split(",")), p, k)
            if format_partition(la) != text:
                raise ValueError(f"lambda {text!r} is not as save_cache writes it")
            if (p, k, la) in loaded:
                raise ValueError(f"a second entry for p={p}, k={k}, {la}")
            rows = [(text, tw.parse_label(text), _json_int(m)) for text, m in entry["vector"]]
            vec = {lab: m for _, lab, m in rows}
            if len(vec) != len(rows):
                raise ValueError("a label given twice")
            total = 0
            for text, lab, m in rows:
                fact = facts.get((p, text))
                if fact is None:
                    fact = facts[p, text] = (tw.label_height(p, lab), tw.label_degree(p, lab))
                height, degree = fact
                if height != k or m <= 0:
                    raise ValueError("a label of another height or a multiplicity below 1")
                total += m * degree
            if total != ch.sn_degree(la):
                raise ValueError("dimension conservation fails")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"corrupt cache entry {i} in {path}: {exc}") from exc
        loaded[(p, k, la)] = vec
    _full_memo.update(loaded)
    return len(loaded)
