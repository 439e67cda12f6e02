import json
import math
import os
import random
from collections import defaultdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowbranch import characters, engine, oracle
from sylowbranch import closedform as cf
from sylowbranch import tower as tw
from sylowbranch.characters import cyclic_split, plethysm_split, sn_degree, split_pairs
from sylowbranch.partitions import CACHE_MAX_SIZE, check_power, check_prime, conjugate, hook, partitions, sylow_shape


def test_twisted_tensor_power_split_is_orbit_convolution():
    # engine._level splits a constant tuple's twisted tensor power (c m^p, d m)
    # once.  The reference convolves the twist weights cyclic_split(p, c, d)
    # with the C_p-orbit counts on range(m)^p: N_0 counts all orbits, N_s for
    # s != 0 the non-constant ones
    for p in (2, 3, 5):
        for m in range(6):
            orbits = {min(t[i:] + t[:i] for i in range(p)) for t in product(range(m), repeat=p)}
            nonconstant = sum(len(set(t)) > 1 for t in orbits)
            counts = (len(orbits),) + (nonconstant,) * (p - 1)
            for c in range(13):
                for d in range(-c, c + 1):
                    if (c - d) % p or (c - d) // p + d < 0:
                        continue
                    w = cyclic_split(p, c, d)
                    want = tuple(sum(w[t] * counts[(s - t) % p] for t in range(p)) for s in range(p))
                    assert cyclic_split(p, c * m**p, d * m) == want, (p, m, c, d)


@pytest.mark.parametrize(
    "broken",
    [
        lambda la, mu, d: d + 1,
        # keeps every per-label split integral and nonnegative, so only the
        # check on each constant chain, here (4)^2, catches it: in
        # engine._level, on the full path and on the linear one
        lambda la, mu, d: d + 2 if (la, mu) == ((6, 2), (4,)) else d,
    ],
    ids=["every-pairing", "one-pairing"],
)
def test_level_checks_each_constant_split(monkeypatch, broken):
    real = characters.stretch_coefficient
    monkeypatch.setattr(
        characters, "stretch_coefficient", lambda la, mu, p: broken(la, mu, real(la, mu, p))
    )
    for tower in (engine.restrict_tower, engine.linear_tower):
        monkeypatch.setattr(engine, "_full_memo", {})
        monkeypatch.setattr(engine, "_lin_memo", {})
        with pytest.raises(ArithmeticError, match="cyclic split"):
            tower((6, 2), 2, 3)
    # the Sylow product of (6,2,1) peels (6,2) as its top factor, and its memo
    # holds nothing that skips the tower
    monkeypatch.setattr(engine, "_lin_memo", {})
    monkeypatch.setattr(engine, "_lin_sylow_memo", {})
    with pytest.raises(ArithmeticError, match="cyclic split"):
        engine.linear_sylow((6, 2, 1), 2)


def test_restrict_tower_trivial_levels():
    assert engine.restrict_tower((1,), 2, 0) == {tw.LEAF: 1}
    assert engine.restrict_tower((2,), 2, 1) == {tw.linear_label((0,)): 1}
    assert engine.restrict_tower((1, 1), 2, 1) == {tw.linear_label((1,)): 1}


@pytest.mark.parametrize("name", ["restrict_tower", "linear_tower"])
@pytest.mark.parametrize("p, k", [(2, 3), (3, 2)])
def test_tower_entry_checks_a_miss_and_answers_a_tuple_hit_unchecked(monkeypatch, fresh_memos, name, p, k):
    # both towers go through engine._tower: a list is checked and then hits
    # the vector its tuple stored, and a hit on a tuple skips _check_size
    tower = getattr(engine, name)
    la = (p**k - 2, 2)
    vec = tower(la, p, k)
    assert tower(list(la), p, k) is vec
    for bad in ((3, 1), (1, p**k - 1)):
        with pytest.raises(ValueError):
            tower(bad, p, k)

    def unreachable(*args):
        raise AssertionError("a tuple memo hit was checked again")

    monkeypatch.setattr(engine, "_check_size", unreachable)
    assert tower(la, p, k) is vec


def test_restrict_tower_square_of_two():
    want = {tw.linear_label((0, 0)): 1, tw.linear_label((1, 0)): 1}
    assert engine.restrict_tower((2, 2), 2, 2) == want


def test_restrict_tower_row_is_trivial_label():
    for p, k in ((2, 3), (3, 2)):
        n = p**k
        assert engine.restrict_tower((n,), p, k) == {tw.linear_label((0,) * k): 1}


def test_restrict_tower_dimension_conservation():
    for p, k in ((2, 3), (3, 2)):
        for la in partitions(p**k):
            vec = engine.restrict_tower(la, p, k)
            total = sum(m * tw.label_degree(p, lab) for lab, m in vec.items())
            assert total == sn_degree(la)
            assert all(m > 0 for m in vec.values())


def test_linear_tower_is_the_linear_slice():
    # both paths share the level fold, so this checks the projection: the
    # degree-1 labels of a full vector come only from the degree-1 labels
    # one level down
    every = ((2, 3), (3, 2), (2, 4), (5, 1), (7, 1))
    cases = [(la, p, k) for p, k in every for la in partitions(p**k)]
    cases += [((32 - b, b) if b else (32,), 2, 5) for b in range(7)]
    cases += [((27 - b, b) if b else (27,), 3, 3) for b in range(4)]
    cases += [((5, 5, 5, 5, 5), 5, 2), ((21, 4), 5, 2)]
    for la, p, k in cases:
        full = engine.restrict_tower(la, p, k)
        slc = {
            tw.linear_digits(lab): m
            for lab, m in full.items()
            if tw.linear_digits(lab) is not None
        }
        assert slc == engine.linear_tower(la, p, k), (la, p, k)


def test_every_shape_has_a_linear_constituent():
    for n in range(1, 13):
        for la in partitions(n):
            assert engine.lin_constituents(la, 2)
    for n in range(3, 10):
        for la in partitions(n):
            assert engine.lin_constituents(la, 3)


def test_sbc_example_values():
    assert engine.sbc((6, 2), 2, (0, 0, 0)) == 2
    assert engine.sbc((2, 2), 2, (0, 0)) == 1
    assert engine.sbc((2, 2), 2, (0, 1)) == 0
    assert engine.sbc((8, 2, 1, 1, 1, 1, 1, 1), 2, tw.hook_to_linear(4, 6)) == 1


def test_sbc_accepts_factor_tuples():
    # single-factor shorthand and the explicit per-factor form agree
    assert engine.sbc((6, 2), 2, ((0, 0, 0),)) == 2
    assert engine.sbc((6, 6), 2, ((0, 0), (0, 0, 0))) == 4


def test_empty_partition_restricts_to_the_empty_label():
    # S_0 has the trivial Sylow subgroup with no factors: one empty label
    for p in (2, 3, 5):
        assert engine.linear_sylow((), p) == {(): 1}
        assert engine.restrict_sylow((), p) == {(): 1}
        assert engine.count_lin((), p) == 1


def test_sbc_size_validation():
    with pytest.raises(ValueError):
        engine.sbc((3, 1), 2, (0, 0, 0))


def test_inputs_above_the_size_bound_are_rejected_before_any_split(monkeypatch):
    # (2^40 - 2, 2) used to raise MemoryError in split_walk's cell list
    def unreachable(*args):
        raise AssertionError("an input above the bound reached a split")

    monkeypatch.setattr(characters, "split_walk", unreachable)
    monkeypatch.setattr(characters, "split_pairs", unreachable)
    bound = f"exceeds {CACHE_MAX_SIZE}"
    big = (2**40 - 2, 2)
    for fn in (engine.linear_sylow, engine.restrict_sylow):
        with pytest.raises(ValueError, match=bound):
            fn(big, 2)
        with pytest.raises(ValueError, match=bound):
            fn((CACHE_MAX_SIZE - 1, 2), 3)
    # k is bounded before p^k is built
    for tower in (engine.restrict_tower, engine.linear_tower):
        for k in (13, 40, 10**12):
            with pytest.raises(ValueError, match=bound):
                tower(big, 2, k)
    assert engine._check_size((CACHE_MAX_SIZE,), 2, 12) == (CACHE_MAX_SIZE,)


def test_lin_constituents_remark_values():
    got = engine.lin_constituents((5, 3), 2)
    assert got == {(tw.hook_to_linear(3, 1),): 1, (tw.hook_to_linear(3, 2),): 1}


def test_lin_constituents_composite_oracle_confirmed():
    # frozen from a full element-sum at n=12 (1024 elements)
    got = engine.lin_constituents((6, 6), 2)
    assert len(got) == 9
    assert sum(got.values()) == 14
    assert got[((0, 0), (0, 0, 0))] == 4


def test_stage_a_matches_plethysm_split_at_two():
    # constant-block weights at p=2 are exactly the symmetric/alternating split
    for la in partitions(8):
        for mus, c in engine._stage_a(la, 2, 3).items():
            if mus[0] != mus[1]:
                assert mus[0] < mus[1]
                continue
            a2, a11 = plethysm_split(la, mus[0])
            d = characters.stretch_coefficient(la, mus[0], 2)
            assert cyclic_split(2, c, d) == (a2, a11)
            assert c == a2 + a11


def test_count_lin_matches_lin_constituents():
    for la in partitions(9):
        assert engine.count_lin(la, 2) == len(engine.lin_constituents(la, 2))


def test_containment_monotonicity_spot_checks():
    # adding digit-dominated boxes never loses linear constituents
    def admissible(m, n, p=2):
        while m or n:
            if m % p > n % p:
                return False
            m //= p
            n //= p
        return True

    rng = random.Random(41)
    checked = 0
    for n in range(9, 16):
        for m in {8, n - 8}:
            if not (0 < m < n and admissible(m, n)):
                continue
            for _ in range(4):
                la = rng.choice(partitions(n))
                subs = [
                    nu
                    for nu in partitions(m)
                    if len(nu) <= len(la) and all(nu[i] <= la[i] for i in range(len(nu)))
                ]
                if not subs:
                    continue
                nu = rng.choice(subs)
                assert engine.count_lin(la, 2) >= engine.count_lin(nu, 2), (la, nu)
                checked += 1
    assert checked >= 30


def test_meeting_set_lower_bound_at_sixteen():
    # shared linear constituents of any split pair survive into the product
    for la in partitions(16):
        shared = set()
        for (mu, nu), c in split_pairs(la, 8).items():
            if c:
                shared |= set(engine.lin_constituents(mu, 2)) & set(
                    engine.lin_constituents(nu, 2)
                )
        assert engine.count_lin(la, 2) >= len(shared), la


def _sgn_twisted(lc, heights):
    """Linear constituents at p = 2 times the sign, by the per-factor sign twist."""
    return {
        tuple(tw.sgn_twist(h, d) for d, h in zip(f, heights)): m
        for f, m in lc.items()
    }


def _untwinned(mp):
    """Fresh linear memos and no conjugate to read: every linear vector is folded."""
    mp.setattr(engine, "conjugate", lambda la: None)
    for memo in ("_lin_memo", "_lin_sylow_memo"):
        mp.setattr(engine, memo, {})


def test_linear_twins_match_the_fold(monkeypatch):
    # a vector read from its conjugate's through the sign twist equals the
    # vector the fold gives with no twins; at odd p the twins share one dict
    folds = []
    real_level = engine._level

    def level(*args):
        folds.append(args)
        return real_level(*args)

    monkeypatch.setattr(engine, "_level", level)
    ranges = ((2, 16), (3, 12), (5, 10))
    runs = []
    for twins in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if twins:
                for memo in ("_lin_memo", "_lin_sylow_memo"):
                    mp.setattr(engine, memo, {})
            else:
                _untwinned(mp)
            folds.clear()
            vectors = {
                (p, la): engine.linear_sylow(la, p)
                for p, n_max in ranges
                for n in range(1, n_max + 1)
                for la in partitions(n)
            }
            runs.append((vectors, dict(engine._lin_memo), dict(engine._lin_sylow_memo), len(folds)))
    (vectors, towers, products, folded), (want, want_towers, want_products, want_folded) = runs
    assert vectors == want
    assert towers.keys() <= want_towers.keys() and products.keys() <= want_products.keys()
    assert all(want_towers[key] == vec for key, vec in towers.items())
    assert all(want_products[key] == vec for key, vec in products.items())
    assert folded < want_folded
    assert any(
        towers[3, k, la] is towers.get((3, k, conjugate(la)))
        for (p, k, la) in towers
        if p == 3 and conjugate(la) != la
    )


def test_conjugation_twist_symmetry(monkeypatch):
    _untwinned(monkeypatch)
    for n in (8, 12):
        heights = sylow_shape(n, 2)
        for la in partitions(n):
            lc = engine.lin_constituents(la, 2)
            assert _sgn_twisted(lc, heights) == engine.lin_constituents(conjugate(la), 2)


@st.composite
def prime_and_shape(draw, ranges):
    """A prime p and a shape of n <= n_max, the pair (p, n_max) drawn from ranges."""
    p, n_max = draw(st.sampled_from(ranges))
    n = draw(st.integers(1, n_max))
    return p, draw(st.sampled_from(partitions(n)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(prime_and_shape(((2, 24), (3, 15))))
def test_conjugation_twist_on_drawn_shapes(case):
    # sgn restricts to the per-factor sign twist at p = 2 and to the trivial
    # character of the odd-order P_n at p = 3
    p, la = case
    # a context, not the monkeypatch fixture, so that each example starts afresh
    with pytest.MonkeyPatch.context() as mp:
        _untwinned(mp)
        lc = engine.linear_sylow(la, p)
        if p == 2:
            lc = _sgn_twisted(lc, sylow_shape(sum(la), p))
        assert engine.linear_sylow(conjugate(la), p) == lc


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(prime_and_shape(((3, 18), (5, 15))))
def test_conjugation_fixes_the_full_restriction_at_odd_p(case):
    # P_n has odd order, so sgn restricts to its trivial character and
    # chi^la' = chi^la sgn restricts as chi^la does, label by label
    p, la = case
    assert engine.restrict_sylow(conjugate(la), p) == engine.restrict_sylow(la, p)


def test_sylow_product_matches_the_young_fold(fresh_memos):
    # the reference folds every factor at once with young_decompose.  In the
    # first run the product memo is cleared before each shape (restrict_sylow
    # keeps its products for one call anyway), so the engine peels the top
    # factor, or at odd p a bottom factor of the same height; in the second,
    # a sweep over ascending n, the memo holds the products of the smaller
    # shapes, and the bottom factor is peeled
    lin, full = (engine.linear_sylow, engine.linear_tower), (engine.restrict_sylow, engine.restrict_tower)
    ranges = [lin + (2, 17), lin + (3, 14), lin + (5, 12), full + (2, 15), full + (3, 11)]
    memos = (engine._full_memo, engine._lin_memo, engine._lin_sylow_memo)
    runs = []
    for cold in (True, False):
        for memo in memos:
            memo.clear()
        fresh_memos.clear()
        products = {}
        checked = 0
        for sylow, tower, p, n_max in ranges:
            for n in range(n_max + 1):
                heights = sylow_shape(n, p)
                if len(heights) < 2:
                    continue
                sizes = [p**h for h in heights]
                for la in partitions(n):
                    if cold:
                        engine._lin_sylow_memo.clear()
                    want = characters.young_decompose(la, sizes, lambda mu, i: tower(mu, p, heights[i]))
                    assert sylow(la, p) == want, (p, la)
                    products.update(engine._lin_sylow_memo)
                    checked += 1
        assert checked == 2499
        # only the linear p = 2 bottom peel splits a shape of 15 by 1
        assert bool(fresh_memos[15, 1]) is not cold
        runs.append(products)
    assert runs[0] == runs[1]


def test_ascending_sweep_peels_the_bottom_factor(fresh_memos):
    # once every shape of 14 is memoised, each shape of 15 = 1 + 2 + 4 + 8
    # is split by 1 (corner removal), never by 8
    for n in range(16):
        for la in partitions(n):
            engine.linear_sylow(la, 2)
    assert fresh_memos[15, 1] and not fresh_memos[15, 8]


@pytest.mark.parametrize(
    "la, p, calls",
    [
        ((8, 6, 4, 3, 2), 2, {(3, 2): 2, (7, 4): 8, (23, 16): 1}),
        ((9, 7, 5, 3, 1), 3, {(2, 1): 3, (4, 3): 3, (6, 3): 63, (7, 3): 8, (16, 9): 60, (25, 9): 1}),
    ],
)
def test_a_cold_product_peels_the_top_factor(fresh_memos, la, p, calls):
    # a cold call finds no product one bottom factor smaller, so it makes
    # the split_pairs calls of the top peel, by (|la|, m)
    engine.linear_sylow(la, p)
    assert fresh_memos == calls


_GATED = {
    "check_prime": check_prime,
    "sylow_shape": lambda bad: sylow_shape(4, bad),
    "check_power": lambda bad: check_power(2, bad),
    "restrict_tower p": lambda bad: engine.restrict_tower((1, 1), bad, 1),
    "restrict_tower k": lambda bad: engine.restrict_tower((1, 1), 2, bad),
    "linear_tower p": lambda bad: engine.linear_tower((1, 1), bad, 1),
    "linear_tower k": lambda bad: engine.linear_tower((1, 1), 2, bad),
    "restrict_sylow": lambda bad: engine.restrict_sylow((2, 1), bad),
    "linear_sylow": lambda bad: engine.linear_sylow((2, 1), bad),
    "sbc": lambda bad: engine.sbc((2, 1), bad, ((0,), (0,))),
    "count_lin": lambda bad: engine.count_lin((2, 1), bad),
    "oracle_full_restriction": lambda bad: oracle.oracle_full_restriction((1, 1), bad),
    "oracle_linear_multiplicity": lambda bad: oracle.oracle_linear_multiplicity((2, 1), bad, ((0,), (0,))),
    "check_classification_domain": lambda bad: cf.check_classification_domain(bad, 4),
    "narrow_box_lin_set p": lambda bad: cf.narrow_box_lin_set(bad, 2, (3, 1)),
    "narrow_box_lin_set k": lambda bad: cf.narrow_box_lin_set(2, bad, (3, 1)),
    "almost_hook_sbc": lambda bad: cf.almost_hook_sbc(bad, 0, 0),
    "almost_hook_linear_set": lambda bad: cf.almost_hook_linear_set(bad, 0),
    "halving_criterion": lambda bad: cf.halving_criterion(bad, (2, 2)),
}


@pytest.mark.parametrize("bad", [2.0, True, -1], ids=["float", "bool", "negative"])
def test_gates_reject_a_p_or_k_that_is_not_a_valid_int(fresh_memos, tmp_path, bad):
    # 2.0 and True equal ints, so they once passed check_prime and
    # check_power, reached the walks or the memo keys, and a saved cache
    # held "k": 1.0, which load_cache rejects, or "k": true
    engine.restrict_tower((2, 1, 1), 2, 2)
    for name, call in _GATED.items():
        try:
            call(bad)
        except ValueError:
            continue
        except Exception as exc:
            raise AssertionError(f"{name} raised {exc!r} on {bad!r}") from exc
        raise AssertionError(f"{name} accepted {bad!r}")
    assert all(type(p) is type(k) is int for p, k, _ in engine._full_memo)
    saved = dict(engine._full_memo)
    path = tmp_path / "cache.json"
    engine.save_cache(path)
    engine._full_memo.clear()
    assert engine.load_cache(path) == len(saved)
    assert engine._full_memo == saved


def test_cache_roundtrip(tmp_path):
    engine.restrict_tower((3, 3, 2), 2, 3)
    engine.restrict_tower((2, 2), 2, 2)
    path = tmp_path / "cache.json"
    engine.save_cache(path)
    payload = json.loads(path.read_text())
    assert payload["format"] == engine.CACHE_FORMAT
    assert payload["version"] == engine.CACHE_VERSION
    assert 2 in payload["primes"]
    saved = dict(engine._full_memo)
    engine._full_memo.clear()
    loaded = engine.load_cache(path)
    assert loaded == len(payload["entries"])
    for key, vec in saved.items():
        assert engine._full_memo[key] == vec


def _json_dump_reference(memo):
    """The cache document as json.dump(payload, fh, indent=1) writes it, and a newline."""
    entries = [
        {
            "p": p,
            "k": k,
            "lambda": ",".join(map(str, la)),
            "vector": [
                [text, m]
                for _, text, m in sorted(
                    (tw.label_degree(p, lab), tw.label_text(lab), m) for lab, m in vec.items()
                )
            ],
        }
        for (p, k, la), vec in sorted(memo.items())
    ]
    payload = {
        "format": engine.CACHE_FORMAT,
        "version": engine.CACHE_VERSION,
        "primes": sorted({p for p, _, _ in memo}),
        "max_k": max((k for _, k, _ in memo), default=0),
        "entries": entries,
    }
    return (json.dumps(payload, indent=1) + "\n").encode("utf-8")


def test_save_cache_writes_the_bytes_of_an_indented_json_dump(tmp_path, monkeypatch):
    memos = {}
    for name, p, shapes in (
        ("p=2", 2, [*partitions(8), (24, 8)]),
        ("p=3", 3, partitions(9)),
        ("p=5", 5, [*partitions(5), (20, 5)]),
    ):
        monkeypatch.setattr(engine, "_full_memo", {})
        for la in shapes:
            engine.restrict_sylow(la, p)
        memos[name] = engine._full_memo
    memos["all primes"] = {key: vec for memo in list(memos.values()) for key, vec in memo.items()}
    memos["empty"] = {}
    path = tmp_path / "cache.json"
    for name, memo in memos.items():
        monkeypatch.setattr(engine, "_full_memo", memo)
        engine.save_cache(path)
        assert path.read_bytes() == _json_dump_reference(memo), name
    assert sorted(os.listdir(tmp_path)) == ["cache.json"]


def test_cache_rejects_stale_version(tmp_path):
    engine.restrict_tower((2, 2), 2, 2)
    path = tmp_path / "cache.json"
    engine.save_cache(path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        engine.load_cache(path)


def test_cache_rejects_corrupt_entry(tmp_path):
    engine.restrict_tower((2, 2), 2, 2)
    path = tmp_path / "cache.json"
    engine.save_cache(path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["vector"][0][1] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        engine.load_cache(path)


def test_cache_rejects_label_of_wrong_height(tmp_path):
    engine.restrict_tower((2,), 2, 1)
    path = tmp_path / "cache.json"
    engine.save_cache(path)
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["entries"] if (e["p"], e["lambda"]) == (2, "2"))
    # each keeps the degree sum of (2): one label of degree 1
    for text in ("0.0.5", "5", "0.0"):
        entry["vector"] = [[text, 1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="corrupt cache entry"):
            engine.load_cache(path)


def _naive_tower(la, p, k):
    """restrict_tower from _stage_a's tuples, tuple by tuple.

    The twisted part is summed per tuple, as one C_p character per label
    split by cyclic_split, with the constant tuples' pairings from
    stretch_coefficient; every other product tuple is scattered through
    tw.orbit.
    """
    deg = defaultdict(int)
    val = defaultdict(int)
    tuples = defaultdict(int)
    for mus, c in engine._stage_a(la, p, k).items():
        parts = [engine.restrict_tower(mu, p, k - 1) for mu in mus]
        constant = len(set(mus)) == 1
        if constant:
            d = characters.stretch_coefficient(la, mus[0], p)
            for lab, m in parts[0].items():
                val[lab] += d * m
        for combo in product(*(part.items() for part in parts)):
            labs = tuple(lab for lab, _ in combo)
            w = c * math.prod(m for _, m in combo)
            if len(set(labs)) > 1:
                tuples[labs, constant] += w
            else:
                # the regular character of a non-constant orbit, or a
                # constant tuple's tensor power
                deg[labs[0]] += w if constant else p * w
    acc = defaultdict(int)
    for lab, n in deg.items():
        for t, w in enumerate(cyclic_split(p, n, val[lab])):
            if w:
                acc[tw.twist(lab, t)] += w
    for (labs, constant), m in tuples.items():
        orb = tw.orbit(labs)
        # a constant block meets each orbit at all p rotations; count it at one
        if not constant or orb[1:] == labs:
            acc[orb] += m
    return dict(acc)


def test_restrict_tower_matches_naive_orbit_scatter():
    # the reference builds every orbit label with tw.orbit, so equality also
    # shows that each induced label is its text-least rotation, and it sums
    # the twisted part per tuple, not by the level fold
    every = ((2, 4), (3, 2), (5, 1))
    cases = [(la, p, k) for p, k_max in every for k in range(1, k_max + 1) for la in partitions(p**k)]
    # odd p above the first level: tuples of three or five entries are
    # pruned and rotated, at (3, 3) over factor labels that are orbits
    cases += [((21, 6), 3, 3), ((15, 9, 3), 3, 3), ((20, 5), 5, 2), ((15, 5, 5), 5, 2)]
    # two-row shapes of 32, where every non-constant key has a unique least
    # entry and the fold keeps it without comparing rotations
    cases += [((27, 5), 2, 5), ((25, 7), 2, 5), ((23, 9), 2, 5)]
    for la, p, k in cases:
        assert engine.restrict_tower(la, p, k) == _naive_tower(la, p, k), (p, k, la)


@pytest.mark.parametrize("broken", ["sn_degree", "label_degree"])
@pytest.mark.parametrize(
    "la, p, k, mu", [((6, 2), 2, 3, (4,)), ((6, 3), 3, 2, (3,))], ids=["p=2", "p=3"]
)
def test_dimension_conservation_catches_a_wrong_vector(monkeypatch, broken, la, p, k, mu):
    # the level sums its degrees from the labels one level down, so a wrong
    # S_n degree of la, or a wrong degree of the one label of mu's vector,
    # must still fail the check
    target = tw.linear_label((0,) * (k - 1))
    assert engine.restrict_tower(mu, p, k - 1) == {target: 1}
    if broken == "sn_degree":
        real = characters.sn_degree
        monkeypatch.setattr(characters, "sn_degree", lambda shape: real(shape) + (tuple(shape) == la))
    else:
        # uncached, so no degree computed earlier hides the wrong one
        real = tw.label_degree.__wrapped__
        monkeypatch.setattr(tw, "label_degree", lambda q, lab: real(q, lab) + (lab == target))
    monkeypatch.setattr(engine, "_full_memo", {})
    with pytest.raises(ArithmeticError, match="dimension conservation failed"):
        engine.restrict_tower(la, p, k)


def test_hooks_restrict_to_their_own_linear_label_beyond_hook_diagonal():
    # the hook-diagonal suite stops at k = 4
    for k in (5, 6):
        n = 2**k
        for y in range(n):
            assert engine.lin_constituents(hook(n, y), 2) == {(tw.hook_to_linear(k, y),): 1}, (k, y)
