import os
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from sylowbranch import tower as tw


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
            order = tw.sylow_order(p**k, p)
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


def test_lyndon_words_are_least_rotations_of_nonconstant_necklaces():
    # m = 0 and m = 1 have no non-constant tuple, so nothing is yielded
    for p in (2, 3, 5):
        for m in range(7):
            expected = [
                t
                for t in product(range(m), repeat=p)
                if len(set(t)) > 1 and t == min(tw.rotations(t))
            ]
            words = list(tw.lyndon_words(m, p))
            assert words == expected, (m, p)
            assert len(words) == (m**p - m) // p


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


def test_parse_label_rejects_junk():
    for bad in ("", "0.", "[0,1", "0 1", "x", "[e]extra"):
        with pytest.raises(ValueError):
            tw.parse_label(bad)


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


def test_sign_twist_involution_and_fixed_point_free():
    for k in range(1, 6):
        for y in range(2**k):
            d = tw.hook_to_linear(k, y)
            t = tw.sgn_twist(k, d)
            assert t != d
            assert tw.sgn_twist(k, t) == d
            assert tw.linear_to_hook(k, t) == 2**k - 1 - y


def test_sylow_order():
    assert tw.sylow_order(4, 2) == 8
    assert tw.sylow_order(8, 2) == 128
    assert tw.sylow_order(9, 3) == 81
    assert tw.sylow_order(12, 2) == 1024
    assert tw.sylow_order(5, 7) == 1


def test_sylow_order_rejects_non_prime():
    # in a child process, so that a regression to the endless q *= p loop
    # at p = 1 or p = 0 fails on the timeout instead of hanging the suite
    code = (
        "from sylowbranch import tower as tw\n"
        "for n, p in ((3, 1), (5, 0), (5, 4), (9, 9)):\n"
        "    try:\n"
        "        tw.sylow_order(n, p)\n"
        "    except ValueError as exc:\n"
        "        assert 'prime' in str(exc)\n"
        "    else:\n"
        "        raise SystemExit(f'accepted p={p}')\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_tower_element_count_and_identity():
    for p, k in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        els = tw.tower_elements(p, k)
        assert len(els) == tw.sylow_order(p**k, p)


def test_element_perms_form_a_group():
    # closure under composition and valid permutations, p=2 k=2 and p=3 k=1
    for p, k in ((2, 2), (3, 1)):
        els = tw.tower_elements(p, k)
        perms = {tw.element_perm(p, el) for el in els}
        assert len(perms) == len(els)
        n = p**k
        for perm in perms:
            assert sorted(perm) == list(range(n))
        for a in els:
            for b in els:
                ab = tw.element_mul(p, a, b)
                pa, pb = tw.element_perm(p, a), tw.element_perm(p, b)
                composed = tuple(pa[pb[i]] for i in range(n))
                assert tw.element_perm(p, ab) == composed
                assert ab in els


def test_element_signature_is_a_homomorphism_coordinate():
    # the signature sums each level's digits; it must match the abelianized
    # product rule on a sample
    p, k = 2, 2
    els = tw.tower_elements(p, k)
    for a in els:
        for b in els:
            sa = tw.element_signature(p, a)
            sb = tw.element_signature(p, b)
            sab = tw.element_signature(p, tw.element_mul(p, a, b))
            assert sab == tuple((x + y) % p for x, y in zip(sa, sb))


def test_d8_cycle_type_census():
    census = Counter(ct for ct, sig in tw.sylow_elements(4, 2))
    assert census == {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 3, (4,): 2}


def test_sylow_elements_composite_n():
    # P_6 = P_2 x P_4 has order 16; signatures carry one tuple per factor
    stream = list(tw.sylow_elements(6, 2))
    assert len(stream) == tw.sylow_order(6, 2) == 16
    for ct, sigs in stream:
        assert sum(ct) == 6
        assert len(sigs) == 2
        assert len(sigs[0]) == 1 and len(sigs[1]) == 2


def test_budget_enforced(monkeypatch):
    with pytest.raises(tw.BudgetExceeded):
        list(tw.sylow_elements(16, 2, budget=100))
    monkeypatch.setenv("SYLOW_BRANCH_BUDGET", "4")
    with pytest.raises(tw.BudgetExceeded):
        list(tw.sylow_elements(4, 2))
