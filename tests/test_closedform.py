import pytest

from sylowbranch import closedform as cf
from sylowbranch import engine
from sylowbranch import oracle as orc
from sylowbranch import tower as tw
from sylowbranch.characters import lr_coefficient, plethysm_split
from sylowbranch.partitions import (
    CACHE_MAX_SIZE,
    almost_hook,
    conjugate,
    hook,
    partitions,
    two_block_pairs,
)


def test_window_base_values():
    assert [cf.window_base(y) for y in range(9)] == [-1, -1, 0, 0, 2, 2, 3, 3, 6]
    assert cf.window_base(15) == 10
    assert cf.window_base(16) == 14


def test_formula_frozen_values():
    assert cf.almost_hook_sbc(3, 0, 0) == 2
    assert cf.almost_hook_sbc(4, 6, 6) == 1
    assert cf.almost_hook_sbc(4, 5, 6) == 2  # x = y-1 knocks one off
    assert cf.almost_hook_sbc(4, 12, 6) == 0  # outside the window
    assert cf.almost_hook_sbc(5, 8, 9) == 5


def test_formula_domain():
    with pytest.raises(ValueError):
        cf.almost_hook_sbc(1, 0, 0)
    with pytest.raises(ValueError):
        cf.almost_hook_sbc(3, 5, 0)
    with pytest.raises(ValueError):
        cf.almost_hook_sbc(3, -1, 0)
    with pytest.raises(ValueError):
        cf.almost_hook_sbc(3, 0, 8)


def test_formula_equals_recursion_small_grids():
    for k in (2, 3, 4):
        for x in range(2**k - 3):
            for y in range(2**k):
                assert cf.almost_hook_sbc(k, x, y) == cf.almost_hook_sbc_recursive(
                    k, x, y
                ), (k, x, y)


def test_formula_equals_engine_small_grids():
    for k in (2, 3):
        n = 2**k
        for x in range(n - 3):
            la = almost_hook(n, x)
            vec = engine.lin_constituents(la, 2)
            for y in range(n):
                got = vec.get((tw.hook_to_linear(k, y),), 0)
                assert cf.almost_hook_sbc(k, x, y) == got, (k, x, y)


def test_formula_equals_engine_fixed_large_triples():
    # nonzero spots of the k = 5 grid, frozen against the engine
    for x, y, z in (
        (8, 9, 5),
        (6, 9, 1),
        (10, 9, 1),
        (4, 5, 5),
        (15, 16, 3),
        (12, 14, 5),
        (5, 6, 5),
        (9, 11, 5),
    ):
        assert cf.almost_hook_sbc(5, x, y) == z
        assert engine.sbc(almost_hook(32, x), 2, tw.hook_to_linear(5, y)) == z


def test_plethysm_rule_exhaustive_small():
    for k in (2, 3):
        half = 2 ** (k - 1)
        for x in range(2**k - 3):
            la = almost_hook(2**k, x)
            for mu in partitions(half):
                split = plethysm_split(la, mu)
                for i in (0, 1):
                    assert cf.almost_hook_plethysm_rule(k, x, mu, i) == split[i], (
                        k,
                        x,
                        mu,
                        i,
                    )


def test_two_linear_classification_exact_cases():
    out = cf.two_linear_classification(7, (7,))
    assert (out.count, out.case) == ("1", "trivial-row")
    out = cf.two_linear_classification(7, (1,) * 7)
    assert (out.count, out.case) == ("1", "trivial-column")
    out = cf.two_linear_classification(16, hook(16, 5))
    assert (out.count, out.case) == ("1", "power-hook")
    assert out.witnesses == ((tw.hook_to_linear(4, 5),),)
    out = cf.two_linear_classification(16, (8, 2, 1, 1, 1, 1, 1, 1))
    assert (out.count, out.case) == ("2", "power-almost-hook")
    assert out.witnesses == (
        (tw.hook_to_linear(4, 6),),
        (tw.hook_to_linear(4, 9),),
    )
    for la, ys in ((5, 3), (1, 2)), ((3, 3, 2), (2, 5)), ((2, 2, 2, 1, 1), (5, 6)):
        out = cf.two_linear_classification(8, la)
        assert (out.count, out.case) == ("2", "eight-sporadic")
        assert out.witnesses == tuple((tw.hook_to_linear(3, y),) for y in ys)
    out = cf.two_linear_classification(9, hook(9, 3))
    assert (out.count, out.case) == ("2", "adjacent-hook")
    assert out.witnesses == (
        ((), tw.hook_to_linear(3, 3)),
        ((), tw.hook_to_linear(3, 2)),
    )
    out = cf.two_linear_classification(9, (3, 3, 3))
    assert (out.count, out.case) == ("2", "nine-sporadic")


def test_two_linear_classification_generic_cases():
    assert cf.two_linear_classification(16, (10, 6)).count == ">2"
    assert cf.two_linear_classification(9, (4, 3, 2)).case == "adjacent-generic"
    assert cf.two_linear_classification(12, (6, 6)).case == "generic"
    with pytest.raises(ValueError):
        cf.two_linear_classification(9, (4, 4))


def test_two_linear_classification_matches_engine_small():
    for n in (8, 9, 12):
        for la in partitions(n):
            out = cf.two_linear_classification(n, la)
            got = engine.lin_constituents(la, 2)
            if out.count == ">2":
                assert len(got) > 2, la
            else:
                assert len(got) == int(out.count), la
                assert set(got) == set(out.witnesses), la
                assert all(m == 1 for m in got.values()), la


def test_odd_prime_classification_cases():
    assert cf.odd_prime_classification(3, 9, (9,)).count == "1"
    assert cf.odd_prime_classification(3, 9, (1,) * 9).count == "1"
    out = cf.odd_prime_classification(3, 9, (8, 1))
    assert (out.count, out.case) == ("2", "subhook")
    out = cf.odd_prime_classification(3, 9, (3, 3, 3))
    assert (out.count, out.case) == ("3", "square-sporadic")
    out = cf.odd_prime_classification(3, 9, (7, 2))
    assert (out.count, out.case) == ("3", "narrow-box")
    assert cf.odd_prime_classification(3, 9, (5, 4)).count == ">p"
    out = cf.odd_prime_classification(3, 10, (9, 1))
    assert (out.count, out.case) == ("3", "near-power-box")
    assert cf.odd_prime_classification(3, 10, (5, 5)).case == "near-power-generic"
    assert cf.odd_prime_classification(3, 13, (7, 6)).case == "generic"
    assert cf.odd_prime_classification(5, 25, (24, 1)).count == "4"


def _power_case(p, n, la):
    """(count, case) at n = p^k from the two narrow-box predicates, stated anew."""
    if la in ((n,), (1,) * n):
        return "1", "trivial"
    if (p, la) == (3, (3, 3, 3)):
        return "3", "square-sporadic"
    if la in ((n - 1, 1), (2,) + (1,) * (n - 2)):
        return str(p - 1), "subhook"
    width = max(la[0], len(la))
    if n - p < width <= n - 2:
        return str(p), "narrow-box"
    return ">p", "power-generic"


@pytest.mark.parametrize("p, n", [(3, 9), (3, 27), (5, 25), (7, 49)])
def test_odd_prime_power_cases_match_the_box_predicates(p, n):
    for la in partitions(n):
        out = cf.odd_prime_classification(p, n, la)
        assert (out.count, out.case) == _power_case(p, n, la), la


def test_odd_prime_classification_domain():
    with pytest.raises(ValueError):
        cf.odd_prime_classification(2, 8, (4, 4))
    with pytest.raises(ValueError):
        cf.odd_prime_classification(3, 2, (2,))
    with pytest.raises(ValueError):
        cf.odd_prime_classification(3, 9, (4, 4))
    for p in (1, 9):
        with pytest.raises(ValueError, match="prime"):
            cf.odd_prime_classification(p, 9, (9,))


def test_odd_prime_classification_matches_engine_at_nine():
    for la in partitions(9):
        out = cf.odd_prime_classification(3, 9, la)
        got = engine.count_lin(la, 3)
        if out.count == ">p":
            assert got > 3, la
        else:
            assert got == int(out.count), la


def test_odd_prime_classification_exact_for_cyclic_sylow():
    # p <= n < 2p, where P_n = C_p; (2,2) at p = 3 is 2, not the box's 3
    assert cf.odd_prime_classification(3, 4, (2, 2)) == ("2", "cyclic", None)
    for p in (3, 5, 7):
        for n in range(p, 2 * p):
            for la in partitions(n):
                out = cf.odd_prime_classification(p, n, la)
                assert out.count == str(engine.count_lin(la, p)), (p, n, la)


def test_almost_hook_linear_set():
    assert cf.almost_hook_linear_set(4, 6) == ("exact", (6, 9))
    assert cf.almost_hook_linear_set(4, 3) == ("witnesses", (3, 4, 5))
    assert cf.almost_hook_linear_set(4, 0) == ("witnesses", (0, 1, 3))
    assert cf.almost_hook_linear_set(4, 2) == ("witnesses", (2, 3, 5))
    assert cf.almost_hook_linear_set(4, 12) == ("witnesses", (12, 14, 15))
    with pytest.raises(ValueError):
        cf.almost_hook_linear_set(4, 13)


def test_almost_hook_linear_set_witnesses_are_real():
    for k in (3, 4, 5):
        n = 2**k
        for x in range(n - 3):
            kind, ys = cf.almost_hook_linear_set(k, x)
            for y in ys:
                assert cf.almost_hook_sbc(k, x, y) > 0, (k, x, y)
            if kind == "exact":
                # the full linear set is exactly the two predicted labels
                row = [
                    yy for yy in range(n) if cf.almost_hook_sbc(k, x, yy) > 0
                ]
                assert tuple(row) == ys
                assert all(cf.almost_hook_sbc(k, x, yy) == 1 for yy in ys)


def test_halving_criterion_equals_exceptional_shape():
    for k in (3, 4):
        for la in partitions(2**k):
            assert cf.exceptional_shape(k, la) == cf.halving_criterion(k, la), la


def test_witness_pair_frozen_rows():
    alpha, beta = cf.witness_pair(4, (8, 4) + (1,) * 4)
    assert alpha == beta == almost_hook(8, 1)
    alpha, beta = cf.witness_pair(4, (8, 3) + (1,) * 5)
    assert alpha == hook(8, 3)
    assert beta == almost_hook(8, 2)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_witness_pair_rows_are_valid(k):
    # each prescribed half-shape really pairs with itself inside la, and the
    # two linear sets together exceed two labels; only the two boundary
    # members, whose table coordinate is out of range, have no row to give
    n = 2**k
    raised = set()
    for la in two_block_pairs(k):
        try:
            alpha, beta = cf.witness_pair(k, la)
        except ValueError:
            raised.add(la)
            continue
        assert lr_coefficient(la, alpha, alpha) > 0, la
        assert lr_coefficient(la, beta, beta) > 0, la
        union = set(engine.lin_constituents(alpha, 2)) | set(
            engine.lin_constituents(beta, 2)
        )
        assert len(union) > 2, la
    assert raised == {(n - 3, 3), (2, 2, 2) + (1,) * (n - 6)}


def test_witness_pair_domain():
    with pytest.raises(ValueError):
        cf.witness_pair(3, (5, 3))
    with pytest.raises(ValueError):
        cf.witness_pair(4, (10, 6))


def test_cyclic_share_set():
    assert cf.cyclic_share_set(3, 0) == frozenset({(3,), (1, 1, 1)})
    assert cf.cyclic_share_set(3, 1) == frozenset({(2, 1)})
    assert len(cf.cyclic_share_set(5, 0)) == 5
    assert len(cf.cyclic_share_set(5, 2)) == 5
    with pytest.raises(ValueError):
        cf.cyclic_share_set(3, 3)


def test_cyclic_share_set_matches_oracle():
    for p in (3, 5):
        for i in range(p):
            share = cf.cyclic_share_set(p, i)
            for la in partitions(p):
                member = orc.oracle_linear_multiplicity(la, p, (i,)) > 0
                assert member == (la in share), (p, i, la)


def test_psi_digits():
    assert cf.psi_digits(3, 2, 2) == (0, 2)
    assert cf.psi_digits(3, 3, 1) == (0, 0, 1)
    with pytest.raises(ValueError):
        cf.psi_digits(3, 2, 3)


def test_power_of_k_is_bounded_before_it_is_built():
    # 2^(10^8) would take most of a second to build and fail in its message
    for call in (
        lambda: cf.halving_criterion(10**8, (2,)),
        lambda: cf.narrow_box_lin_set(2, 10**8, (2,)),
        lambda: cf.narrow_box_lin_set(3, 10**8, (2, 1)),
        lambda: cf.almost_hook_sbc(10**8, 0, 0),
        lambda: cf.almost_hook_sbc_recursive(10**8, 0, 0),
        lambda: cf.almost_hook_linear_set(10**8, 0),
    ):
        with pytest.raises(ValueError, match=f"exceeds {CACHE_MAX_SIZE}"):
            call()


def test_narrow_box_lin_set_at_nine():
    assert cf.narrow_box_lin_set(3, 2, (8, 1)) == frozenset({(0, 1), (0, 2)})
    assert cf.narrow_box_lin_set(3, 2, (7, 2)) == frozenset(
        {(0, 0), (0, 1), (0, 2)}
    )
    assert cf.narrow_box_lin_set(3, 2, (3, 3, 3)) is None
    assert cf.narrow_box_lin_set(3, 2, (9,)) is None
    for la in partitions(9):
        want = cf.narrow_box_lin_set(3, 2, la)
        if want is None:
            continue
        got = {digits for (digits,) in engine.lin_constituents(la, 3)}
        assert got == want, la


def test_narrow_box_lin_set_at_twenty_seven():
    assert cf.narrow_box_lin_set(3, 3, (26, 1)) == frozenset(
        {(0, 0, 1), (0, 0, 2)}
    )
    got = engine.lin_constituents((26, 1), 3)
    assert got == {((0, 0, 1),): 1, ((0, 0, 2),): 1}


def test_conjugation_consistency_of_classification():
    # predicted counts are conjugation-invariant
    for n in (8, 9, 16):
        for la in partitions(n):
            a = cf.two_linear_classification(n, la)
            b = cf.two_linear_classification(n, conjugate(la))
            assert a.count == b.count, la
