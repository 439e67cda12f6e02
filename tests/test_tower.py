import os
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowbranch import oracle as orc
from sylowbranch import tower as tw

import elements


def test_irr_label_counts():
    # |Irr(k)| = (m^p - m)/p + p*m from the level below
    assert len(tw.irr_labels(2, 1)) == 2
    assert len(tw.irr_labels(2, 2)) == 5
    assert len(tw.irr_labels(2, 3)) == 20
    assert len(tw.irr_labels(2, 4)) == 230
    assert len(tw.irr_labels(3, 1)) == 3
    assert len(tw.irr_labels(3, 2)) == 17


def test_degree_squares_sum_to_group_order():
    for p, kmax in ((2, 4), (3, 2)):
        for k in range(kmax + 1):
            order = orc.sylow_order(p**k, p)
            total = sum(tw.label_degree(p, lab) ** 2 for lab in tw.irr_labels(p, k))
            assert total == order, (p, k)


def test_label_count_recursion_only_at_large_levels():
    # counting without materializing degree sums: (m^p - m)/p + p*m
    m = len(tw.irr_labels(2, 4))
    assert len(tw.irr_labels(2, 5)) == (m**2 - m) // 2 + 2 * m
    m3 = len(tw.irr_labels(3, 2))
    assert len(tw.irr_labels(3, 3)) == (m3**3 - m3) // 3 + 3 * m3


def test_linear_labels_are_digit_strings():
    assert tw.linear_labels(2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    for p, k in ((2, 3), (3, 2)):
        labs = tw.linear_labels(p, k)
        assert len(labs) == p**k
        for digits in labs:
            assert tw.label_degree(p, tw.linear_label(digits)) == 1
            assert tw.linear_digits(tw.linear_label(digits)) == digits


def test_linear_digits_rejects_nonlinear():
    orb = tw.orbit((tw.LEAF, (tw.LEAF, 1)))
    assert tw.linear_digits(orb) is None
    assert tw.linear_digits(tw.twist(orb, 0)) is None


def test_orbit_canonical_rotation():
    a, b = tw.LEAF, (tw.LEAF, 1)
    assert tw.orbit((a, b)) == tw.orbit((b, a))
    with pytest.raises(ValueError):
        tw.orbit((a, a))
    # rotations compare by label text, not by (degree, text): the degree-4
    # label leads although the other factor has degree 2
    low, high = tw.parse_label("[0.0,0.1]"), tw.parse_label("[0,1].0")
    assert tw.label_text(tw.orbit((low, high))) == "[[0,1].0,[0.0,0.1]]"
    assert tw.orbit((low, high)) == tw.orbit((high, low))


def _rank_space_labels(p, k):
    """engine._level's orbit rule, enumerated on the level below ranked by label_text.

    A non-constant rank tuple is kept if its first entry is its least and it
    is its least rotation; that holds without comparing rotations when the
    least entry occurs once.
    """
    below = sorted(tw.irr_labels(p, k - 1), key=tw.label_text)
    labels = [tw.twist(inner, t) for inner in below for t in range(p)]
    for r in range(len(below)):
        for rest in product(range(r, len(below)), repeat=p - 1):
            key = (r, *rest)
            n = rest.count(r)
            if not n or n < p - 1 and key == min(tw.rotations(key)):
                labels.append(("orb", *map(below.__getitem__, key)))
    return tuple(sorted(labels, key=lambda lab: (tw.label_degree(p, lab), tw.label_text(lab))))


def test_irr_labels_match_brute_force_orbits():
    # irr_labels is the definition (the twists plus orbit() of every
    # non-constant p-tuple); _level's rank-space rule must give the same
    # labels; (3, 3) and (5, 2) have 1,632 and 624 orbit labels
    for p, kmax in ((2, 5), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            assert _rank_space_labels(p, k) == tw.irr_labels(p, k), (p, k)


def test_label_height():
    for p, k in ((2, 3), (3, 2)):
        assert {tw.label_height(p, lab) for lab in tw.irr_labels(p, k)} == {k}
    assert tw.label_height(2, tw.LEAF) == 0
    bad = (
        "5",  # digit out of range
        "0.0.5",
        "[0,1,0.1]",  # arity 3 at p = 2
        "[0,0.1]",  # entries of mixed height
    )
    for text in bad:
        with pytest.raises(ValueError):
            tw.label_height(2, tw.parse_label(text))
    assert tw.label_height(3, tw.parse_label("[0,1,2].2")) == 3


def test_label_text_forms():
    assert tw.label_text(tw.LEAF) == "e"
    assert tw.label_text(tw.linear_label((0, 1, 1))) == "0.1.1"
    # rotations canonicalize to the text-least form, and digits sort before "e"
    orb = tw.orbit((tw.LEAF, (tw.LEAF, 1)))
    assert tw.label_text(orb) == "[1,e]"
    assert tw.label_text(tw.twist(orb, 1)) == "[1,e].1"


def test_label_text_roundtrip():
    for p, k in ((2, 3), (3, 2)):
        for lab in tw.irr_labels(p, k):
            assert tw.parse_label(tw.label_text(lab)) == lab


DRAWN_TOWERS = ((2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (5, 1))


@st.composite
def drawn_label(draw, orbits_only=False):
    """A (p, label) from irr_labels at the towers above, optionally an orbit label."""
    pools = [
        (p, [lab for lab in tw.irr_labels(p, k) if tw.is_orbit(lab) or not orbits_only])
        for p, k in DRAWN_TOWERS
    ]
    p, labels = draw(st.sampled_from([(p, labels) for p, labels in pools if labels]))
    return p, draw(st.sampled_from(labels))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(drawn_label())
def test_label_text_round_trip_on_drawn_labels(case):
    _, lab = case
    assert tw.parse_label(tw.label_text(lab)) == lab


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(drawn_label(orbits_only=True), st.integers(0, 4))
def test_any_rotation_of_an_orbit_text_parses_to_the_canonical_label(case, shift):
    # orbit picks the text-least rotation, so every rotation of the entries'
    # texts must come back as the one stored label
    p, lab = case
    texts = [tw.label_text(sub) for sub in lab[1:]]
    i = shift % p
    assert tw.parse_label("[" + ",".join(texts[i:] + texts[:i]) + "]") == lab


def _descent_parse_label(text):
    """The recursive-descent parser that tw.parse_label replaced, as a reference."""
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
            return tw.LEAF
        if pos < len(text) and text[pos] == "[":
            pos += 1
            subs = [chain()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                subs.append(chain())
            if pos >= len(text) or text[pos] != "]":
                raise ValueError(f"unclosed orbit bracket in {text!r}")
            pos += 1
            return tw.orbit(subs)
        return tw.twist(tw.LEAF, digit())

    def chain():
        nonlocal pos
        label = atom()
        while pos < len(text) and text[pos] == ".":
            pos += 1
            label = tw.twist(label, digit())
        return label

    label = chain()
    if pos != len(text):
        raise ValueError(f"trailing junk in label text {text!r}")
    return label


JUNK_LABEL_TEXTS = (
    # "[0, 1]" has inner whitespace, which splitting then stripping would accept
    "[0, 1]", "[0,1]]", "0..1", ".0", "]", "[]", "1.e", "0 1", "[e]extra",
    "", " ", "0.", "[0,1", "[[0,1]", "x", "ee", "e.e", "[0][1]", "[0]", "[0,1,]",
    "[,0]", "[0,1]x.1", "[0,1] .1", "0. 1", "[0,1].", "0.1e", "²",
)


def test_parse_label_rejects_junk():
    for bad in JUNK_LABEL_TEXTS:
        with pytest.raises(ValueError):
            tw.parse_label(bad)


def test_parse_label_agrees_with_recursive_descent():
    # the top-level split against the old character-by-character parser, on
    # fresh caches: every label text of these towers, every rotation text of
    # an orbit label, the same texts padded with whitespace, and junk
    tw.parse_label.cache_clear()
    texts = []
    for p, kmax in ((2, 4), (3, 2), (5, 1)):
        for k in range(kmax + 1):
            for lab in tw.irr_labels(p, k):
                texts.append(tw.label_text(lab))
                if tw.is_orbit(lab):
                    subs = [tw.label_text(sub) for sub in lab[1:]]
                    texts += ["[" + ",".join(subs[i:] + subs[:i]) + "]" for i in range(1, p)]
    for text in texts + [f" {text}\t" for text in texts[::7]]:
        assert tw.parse_label(text) == _descent_parse_label(text), text
    for bad in JUNK_LABEL_TEXTS:
        with pytest.raises(ValueError):
            _descent_parse_label(bad)


def test_hook_bijection_roundtrip():
    for k in range(1, 7):
        seen = set()
        for y in range(2**k):
            d = tw.hook_to_linear(k, y)
            assert len(d) == k
            assert tw.linear_to_hook(k, d) == y
            seen.add(d)
        assert len(seen) == 2**k


def test_hook_bijection_small_values():
    assert tw.hook_to_linear(1, 0) == (0,)
    assert tw.hook_to_linear(1, 1) == (1,)
    assert tw.hook_to_linear(2, 0) == (0, 0)
    assert tw.hook_to_linear(2, 3) == (1, 0)
    assert tw.hook_to_linear(3, 2) == (0, 1, 1)
    assert tw.hook_to_linear(3, 5) == (1, 1, 1)


def test_hook_labels_are_the_gray_code():
    # digits are the bits of y ^ (y >> 1), most significant first, and the
    # sign twist flips the innermost digit
    for k in range(1, 9):
        for y in range(2**k):
            gray = format(y ^ (y >> 1), f"0{k}b")
            d = tw.hook_to_linear(k, y)
            assert d == tuple(int(c) for c in gray)
            assert tw.sgn_twist(k, d) == (1 - d[0],) + d[1:]
    assert tw.hook_to_linear(0, 0) == tw.sgn_twist(0, ()) == ()
    for k, y in ((3, 8), (3, -1), (0, 1)):
        with pytest.raises(ValueError):
            tw.hook_to_linear(k, y)
    for k, digits in ((2, (0,)), (2, (0, 2)), (0, (0,)), (1, ())):
        for fn in (tw.linear_to_hook, tw.sgn_twist):
            with pytest.raises(ValueError):
                fn(k, digits)


def test_sign_twist_involution_and_fixed_point_free():
    for k in range(1, 6):
        for y in range(2**k):
            d = tw.hook_to_linear(k, y)
            t = tw.sgn_twist(k, d)
            assert t != d
            assert tw.sgn_twist(k, t) == d
            assert tw.linear_to_hook(k, t) == 2**k - 1 - y


def test_sylow_order():
    assert orc.sylow_order(4, 2) == 8
    assert orc.sylow_order(8, 2) == 128
    assert orc.sylow_order(9, 3) == 81
    assert orc.sylow_order(12, 2) == 1024
    assert orc.sylow_order(5, 7) == 1


def test_sylow_order_rejects_non_prime():
    # in a child process, so that a regression to the endless q *= p loop
    # at p = 1 or p = 0 fails on the timeout instead of hanging the suite
    code = (
        "from sylowbranch import oracle as orc\n"
        "for n, p in ((3, 1), (5, 0), (5, 4), (9, 9)):\n"
        "    try:\n"
        "        orc.sylow_order(n, p)\n"
        "    except ValueError as exc:\n"
        "        assert 'prime' in str(exc)\n"
        "    else:\n"
        "        raise SystemExit(f'accepted p={p}')\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_tower_element_count_and_identity():
    for p, k in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        els = elements.tower_elements(p, k)
        assert len(els) == orc.sylow_order(p**k, p)


def test_element_perms_form_a_group():
    # closure under composition and valid permutations, p=2 k=2 and p=3 k=1
    for p, k in ((2, 2), (3, 1)):
        els = elements.tower_elements(p, k)
        perms = {elements.element_perm(p, el) for el in els}
        assert len(perms) == len(els)
        n = p**k
        for perm in perms:
            assert sorted(perm) == list(range(n))
        for a in els:
            for b in els:
                ab = elements.element_mul(p, a, b)
                pa, pb = elements.element_perm(p, a), elements.element_perm(p, b)
                composed = tuple(pa[pb[i]] for i in range(n))
                assert elements.element_perm(p, ab) == composed
                assert ab in els


def test_element_signature_is_a_homomorphism_coordinate():
    # the signature sums each level's digits; it must match the abelianized
    # product rule on a sample
    p, k = 2, 2
    els = elements.tower_elements(p, k)
    for a in els:
        for b in els:
            sa = elements.element_signature(p, a)
            sb = elements.element_signature(p, b)
            sab = elements.element_signature(p, elements.element_mul(p, a, b))
            assert sab == tuple((x + y) % p for x, y in zip(sa, sb))


def test_d8_cycle_type_census():
    # read from the trivial label's class sums, and by walking the elements
    census = {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 3, (4,): 2}
    assert elements.class_counts(4, 2) == census
    walked = Counter(elements.cycle_type(2, el) for el in elements.tower_elements(2, 2))
    assert walked == census


def test_sylow_elements_composite_n():
    # P_6 = P_2 x P_4 has order 16; its class counts, read from the trivial
    # label's class sums, merge the factors' cycle types on disjoint points
    counts = elements.class_counts(6, 2)
    assert sum(counts.values()) == orc.sylow_order(6, 2) == 16
    walked = Counter()
    for a, b in product(elements.tower_elements(2, 1), elements.tower_elements(2, 2)):
        cycles = elements.cycle_type(2, a) + elements.cycle_type(2, b)
        walked[tuple(sorted(cycles, reverse=True))] += 1
    assert counts == walked
    assert all(sum(ct) == 6 for ct in counts)


def test_budget_enforced(monkeypatch):
    with pytest.raises(orc.BudgetExceeded):
        orc.check_budget(16, 2, budget=100)
    monkeypatch.setenv("SYLOW_BRANCH_BUDGET", "4")
    with pytest.raises(orc.BudgetExceeded):
        orc.check_budget(4, 2)
