import math
import random
from collections import Counter, defaultdict
from itertools import product

import pytest

from sylowbranch import engine
from sylowbranch import oracle as orc
from sylowbranch import tower as tw
from sylowbranch.characters import character_value, plethysm_split
from sylowbranch.partitions import partitions, sylow_shape


def test_zeta_int_reduction():
    # 1 + zeta + ... + zeta^{p-1} = 0
    for p in (2, 3, 5):
        assert orc._zeta_int((1,) * p) == 0
    assert orc._zeta_int((5, 2, 2)) == 3
    assert orc._zeta_int((4, 1)) == 3  # p = 2: zeta = -1
    with pytest.raises(ArithmeticError):
        orc._zeta_int((1, 2, 0))


def test_zeta_algebra():
    p = 5
    rng = random.Random(7)
    vecs = [tuple(rng.randrange(-3, 4) for _ in range(p)) for _ in range(6)]
    one = orc._zeta_one(p)
    for a in vecs:
        assert orc._zeta_mul(p, a, one) == a
        assert orc._zeta_conj(p, orc._zeta_conj(p, a)) == a
        assert orc._zeta_mul_root(p, a, p) == a
        for b in vecs:
            assert orc._zeta_mul(p, a, b) == orc._zeta_mul(p, b, a)
            assert orc._zeta_conj(p, orc._zeta_mul(p, a, b)) == orc._zeta_mul(
                p, orc._zeta_conj(p, a), orc._zeta_conj(p, b)
            )
    # conj(x) * x reduces to a nonnegative integer for group-character sums
    # of roots of unity; spot-check the norm on a pure root
    root = orc._zeta_mul_root(p, one, 2)
    assert orc._zeta_int(orc._zeta_mul(p, root, orc._zeta_conj(p, root))) == 1


def test_full_oracle_matches_engine_at_four():
    for la in partitions(4):
        assert orc.oracle_full_restriction(la, 2) == engine.restrict_tower(la, 2, 2)


def test_full_oracle_matches_engine_sample():
    rng = random.Random(11)
    for la in rng.sample(partitions(8), 8):
        assert orc.oracle_full_restriction(la, 2) == engine.restrict_tower(la, 2, 3)
    for la in rng.sample(partitions(9), 6):
        assert orc.oracle_full_restriction(la, 3) == engine.restrict_tower(la, 3, 2)


def test_engine_and_oracle_reject_out_of_range_digits():
    # neither library path reduces a digit mod p
    for la, p, psi in (((2,), 2, (2,)), ((2, 1), 3, (-1,))):
        for count in (engine.sbc, orc.oracle_linear_multiplicity):
            with pytest.raises(ValueError, match="outside range"):
                count(la, p, psi)


def test_full_oracle_rejects_composite_size():
    with pytest.raises(ValueError):
        orc.oracle_full_restriction((4, 2), 2)
    with pytest.raises(ValueError):
        orc.oracle_full_restriction((2, 2), 3)


def test_linear_oracle_matches_engine_composite():
    # n = 6 has factor heights (1, 2); sweep all eight linear labels
    for la in ((4, 2), (3, 2, 1), (2, 2, 1, 1)):
        for digits in [(d0, d1, d2) for d0 in (0, 1) for d1 in (0, 1) for d2 in (0, 1)]:
            psi = ((digits[0],), digits[1:])
            assert orc.oracle_linear_multiplicity(la, 2, psi) == engine.sbc(
                la, 2, psi
            ), (la, psi)


def test_linear_oracle_bare_digit_shorthand():
    assert orc.oracle_linear_multiplicity((6, 2), 2, (0, 0, 0)) == 2
    assert orc.oracle_linear_multiplicity((5, 3), 2, tw.hook_to_linear(3, 1)) == 1


def test_linear_oracle_validates_label_shape():
    with pytest.raises(ValueError):
        orc.oracle_linear_multiplicity((4,), 2, (0, 0, 0))


def test_oracle_budget():
    with pytest.raises(orc.BudgetExceeded):
        orc.oracle_linear_multiplicity((8,), 2, (0, 0, 0), budget=4)
    with pytest.raises(orc.BudgetExceeded):
        orc.oracle_full_restriction((8,), 2, budget=4)


def test_explicit_budget_beats_environment(monkeypatch):
    monkeypatch.setenv("SYLOW_BRANCH_BUDGET", "4")
    orc._signature_buckets.cache_clear()
    assert orc.oracle_linear_multiplicity((4,), 2, (0, 0), budget=8) == 1
    assert orc.oracle_full_restriction((4,), 2, budget=8) == {tw.linear_label((0, 0)): 1}
    with pytest.raises(orc.BudgetExceeded):
        orc.oracle_linear_multiplicity((4,), 2, (0, 0))


def _element_buckets(p, k):
    """(cycle type, level signature) counts over the tower, element by element."""
    return Counter(
        (orc.perm_cycle_type(orc.element_perm(p, el)), orc.element_signature(p, el))
        for el in orc.tower_elements(p, k)
    )


def test_tower_buckets_match_the_element_walk():
    for p, kmax in ((2, 4), (3, 2), (5, 1)):
        for k in range(kmax + 1):
            assert orc._tower_buckets(p, k) == _element_buckets(p, k), (p, k)


def test_signature_buckets_are_the_factor_product():
    for n, p in ((6, 2), (7, 2), (12, 3)):
        factors = [_element_buckets(p, h).items() for h in sylow_shape(n, p)]
        want = Counter()
        for combo in product(*factors):
            ct = tuple(sorted((x for (fct, _), _ in combo for x in fct), reverse=True))
            want[ct, tuple(sig for (_, sig), _ in combo)] += math.prod(c for _, c in combo)
        got = orc._signature_buckets(n, p)
        assert got == want, (n, p)
        assert sum(got.values()) == orc.sylow_order(n, p)


def test_linear_oracle_matches_engine_at_bench_sizes():
    rng = random.Random(20261017)
    for n, p in ((32, 2), (27, 3), (25, 5)):
        # two shapes per size, three labels each: the engine's linear vector
        # is memoised per shape, the oracle pays per label
        for la in rng.sample(partitions(n), 2):
            for _ in range(3):
                psi = tuple(tuple(rng.randrange(p) for _ in range(h)) for h in sylow_shape(n, p))
                got = orc.oracle_linear_multiplicity(la, p, psi, budget=orc.sylow_order(n, p))
                assert got == engine.sbc(la, p, psi), (la, psi)


def test_norm_identity_over_cycle_types():
    # sum of m^2 over the full vector = <chi|, chi|>_P = (1/|P|) sum_ct count(ct) chi(ct)^2;
    # the cycle-index buckets reach sizes the element oracle cannot
    cases = [(la, 2) for la in partitions(16)]
    cases += [((32,), 2)] + [((32 - b, b), 2) for b in (1, 2, 3, 4, 5, 7, 9, 16)]
    cases += [(la, 3) for la in ((27,), (26, 1), (25, 2), (24, 3), (21, 6), (15, 9, 3), (9, 9, 9))]
    cases += [(la, 5) for la in ((20, 5), (15, 5, 5))]
    for la, p in cases:
        n = sum(la)
        counts = Counter()
        for (ct, _), c in orc._signature_buckets(n, p).items():
            counts[ct] += c
        total = sum(c * character_value(la, ct) ** 2 for ct, c in counts.items())
        norm = sum(m * m for m in engine.restrict_sylow(la, p).values())
        assert total == orc.sylow_order(n, p) * norm, (la, p)


def test_kostka_numbers():
    assert orc._kostka((2, 1), (1, 1, 1)) == 2
    assert orc._kostka((2, 1), (2, 1)) == 1
    assert orc._kostka((3,), (1, 1, 1)) == 1
    assert orc._kostka((1, 1), (2,)) == 0
    assert orc._kostka((2, 2), (2, 1, 1)) == 1


def test_kostka_strip_recursion_counts_the_tableaux():
    # the horizontal-strip recursion against the tableaux walk, every pair of
    # partitions of n <= 8 (919 pairs)
    for n in range(9):
        for shape in partitions(n):
            for content in partitions(n):
                want = orc._ssyt_monomials(shape, len(content)).get(content, 0)
                assert orc._kostka(shape, content) == want, (shape, content)


def _small_towers():
    return [(2, k) for k in range(4)] + [(3, k) for k in range(3)]


def test_class_sums_are_orthogonal_to_the_trivial_character():
    # the sum over every class is sum_g conj(label(g)) = |P| <1, label>
    for p, k in _small_towers():
        order = orc.sylow_order(p**k, p)
        trivial = tw.linear_label((0,) * k)
        sums = orc._class_sums(p, k)
        assert list(sums) == list(tw.irr_labels(p, k)), (p, k)
        for label, by_ct in sums.items():
            total = [sum(col) for col in zip(*by_ct.values())]
            assert orc._zeta_int(tuple(total)) == order * (label == trivial), (p, k, label)


def test_class_sums_at_the_identity_are_the_degrees():
    # only the identity has cycle type 1^(p^k)
    for p, k in _small_towers():
        identity = (1,) * p**k
        for label, by_ct in orc._class_sums(p, k).items():
            assert orc._zeta_int(by_ct[identity]) == tw.label_degree(p, label), (p, k, label)


FULL_ORACLE_VECTORS = {
    ((3, 1), 2): {"0.1": 1, "[0,1]": 1},
    ((2, 2), 2): {"0.0": 1, "1.0": 1},
    ((4, 4), 2): {"0.0.0": 2, "0.1.0": 1, "1.0.0": 1, "[0.0,1.0]": 1, "[0,1].0": 1, "[0.1,[0,1]]": 1},
    ((5, 2, 1), 2): {
        "0.0.0": 1, "0.0.1": 1, "0.1.0": 1, "0.1.1": 1, "[0.0,0.1]": 2, "[0.0,1.0]": 1,
        "[0.0,1.1]": 1, "[0.1,1.0]": 1, "[0.1,1.1]": 1, "[0,1].0": 2, "[0,1].1": 2,
        "[0.0,[0,1]]": 3, "[0.1,[0,1]]": 3, "[1.0,[0,1]]": 1, "[1.1,[0,1]]": 1,
    },
    ((6, 3), 3): {
        "0.0": 2, "0.1": 1, "0.2": 1, "1.0": 1, "2.0": 1, "[0,0,1]": 2, "[0,0,2]": 2,
        "[0,1,1]": 2, "[0,1,2]": 2, "[0,2,1]": 2, "[0,2,2]": 2, "[1,1,2]": 1, "[1,2,2]": 1,
    },
    ((3, 3, 3), 3): {
        "0.0": 2, "1.0": 2, "2.0": 2, "[0,1,1]": 2, "[0,1,2]": 2, "[0,2,1]": 2,
        "[0,2,2]": 2, "[1,1,2]": 2, "[1,2,2]": 2,
    },
}


def test_full_oracle_on_every_shape_of_the_suite_sizes():
    for n, p, k in ((4, 2, 2), (8, 2, 3), (9, 3, 2)):
        for la in partitions(n):
            got = orc.oracle_full_restriction(la, p)
            assert got == engine.restrict_tower(la, p, k), (la, p)
            want = FULL_ORACLE_VECTORS.get((la, p))
            if want is not None:
                assert {tw.label_text(lab): m for lab, m in got.items()} == want, (la, p)


def test_plethysm_oracle_classics():
    # sym^2 and alt^2 of the degree-2 Schur functions
    assert orc.oracle_plethysm_coefficient((2,), (2,), (4,)) == 1
    assert orc.oracle_plethysm_coefficient((2,), (2,), (2, 2)) == 1
    assert orc.oracle_plethysm_coefficient((2,), (2,), (3, 1)) == 0
    assert orc.oracle_plethysm_coefficient((1, 1), (2,), (3, 1)) == 1
    assert orc.oracle_plethysm_coefficient((2,), (1, 1), (2, 2)) == 1
    assert orc.oracle_plethysm_coefficient((2,), (1, 1), (1, 1, 1, 1)) == 1
    assert orc.oracle_plethysm_coefficient((1, 1), (1, 1), (2, 1, 1)) == 1
    assert orc.oracle_plethysm_coefficient((1, 1), (1, 1), (2, 2)) == 0


def test_plethysm_oracle_matches_character_split():
    for mu in partitions(1) + partitions(2) + partitions(3) + partitions(4):
        for la in partitions(2 * sum(mu)):
            a2, a11 = plethysm_split(la, mu)
            assert orc.oracle_plethysm_coefficient((2,), mu, la) == a2, (la, mu)
            assert orc.oracle_plethysm_coefficient((1, 1), mu, la) == a11, (la, mu)


def test_plethysm_oracle_domain():
    with pytest.raises(ValueError):
        orc.oracle_plethysm_coefficient((3,), (2,), (6,))
    with pytest.raises(ValueError):
        orc.oracle_plethysm_coefficient((2,), (3, 2), (10,))


def _full_square_sides(mu):
    """s_mu^2 + s_mu(x^2) and s_mu^2 - s_mu(x^2), every monomial in 2|mu| variables."""
    base = orc._ssyt_monomials(mu, 2 * sum(mu))
    square = defaultdict(int)
    for ea, ca in base.items():
        for eb, cb in base.items():
            square[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    sides = []
    for sign in (1, -1):
        side = defaultdict(int, square)
        for exp, c in base.items():
            side[tuple(2 * e for e in exp)] += sign * c
        sides.append({exp: c for exp, c in side.items() if c})
    return sides


def test_plethysm_expansion_matches_the_full_square():
    # the oracle reads only partition exponents; the full square checks that
    # they fix s_mu^2 +- s_mu(x^2): both sides are even and symmetric
    for mu in partitions(1) + partitions(2) + partitions(3) + partitions(4):
        total = 2 * sum(mu)
        want = []
        for side in _full_square_sides(mu):
            for exp, c in side.items():
                assert c % 2 == 0, (mu, exp)
                assert side.get(tuple(sorted(exp, reverse=True))) == c, (mu, exp)
            dominant = {
                tuple(e for e in exp if e): c // 2
                for exp, c in side.items()
                if list(exp) == sorted(exp, reverse=True)
            }
            want.append(orc._schur_expand(dominant, total))
        assert orc._plethysm_expansion(mu) == tuple(want), mu
