import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import pytest

import sylowbranch
from sylowbranch.characters import (
    _p_quotient,
    _strip_removals,
    character_value,
    cyclic_split,
    lr_coefficient,
    lr_multi,
    plethysm_split,
    sn_degree,
    split_pairs,
    stretch_coefficient,
    subshapes,
    young_decompose,
)
from sylowbranch.partitions import conjugate, hook, partitions


def centralizer_order(ct):
    """|C_{S_n}(g)| = prod i^{m_i} m_i! for an element of cycle type ct."""
    return math.prod(length**count * math.factorial(count) for length, count in Counter(ct).items())


def _lr_by_characters(la, factors):
    """c^la_{mu_1..mu_r} as a character inner product, from character_value alone.

    The sum over cycle types a_i of mu_i of chi^la(a_1 u ... u a_r)
    prod chi^{mu_i}(a_i) / z_{a_i}.
    """
    return sum(
        Fraction(
            character_value(la, sum(cts, ())) * math.prod(map(character_value, factors, cts)),
            math.prod(map(centralizer_order, cts)),
        )
        for cts in product(*(partitions(sum(mu)) for mu in factors))
    )


def test_degrees_hook_length_formula():
    assert sn_degree((1,)) == 1
    assert sn_degree((2, 1)) == 2
    assert sn_degree((3, 2)) == 5
    assert sn_degree((4, 4)) == 14
    assert sn_degree((5, 4, 3, 2, 1)) == 292864


def test_degree_takes_any_iterable_of_parts():
    assert sn_degree([3, 1]) == sn_degree(iter((3, 1))) == sn_degree((3, 1)) == 3
    assert sylowbranch.sn_degree([5, 4, 3, 2, 1]) == 292864


def test_degree_squares_sum_to_factorial():
    for n in range(1, 11):
        assert sum(sn_degree(la) ** 2 for la in partitions(n)) == math.factorial(n)


def test_character_values_s4():
    # full character table of S_4, classes keyed by cycle type
    table = {
        (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
        (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
        (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
        (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
        (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
    }
    for la, row in table.items():
        for ct, val in row.items():
            assert character_value(la, ct) == val


def test_character_column_orthogonality():
    for n in range(1, 11):
        las = partitions(n)
        cts = las
        for ct1 in cts:
            for ct2 in cts:
                s = sum(character_value(la, ct1) * character_value(la, ct2) for la in las)
                want = centralizer_order(ct1) if ct1 == ct2 else 0
                assert s == want, (n, ct1, ct2)


def test_character_conjugate_sign():
    for n in range(1, 9):
        for la in partitions(n):
            for ct in partitions(n):
                sign = (-1) ** (n - len(ct))
                assert character_value(conjugate(la), ct) == sign * character_value(la, ct)


def test_lr_small_values():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((2, 2, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((6, 2), (4,), (2, 2)) == 1
    assert lr_coefficient((6, 2), (4,), (1, 1, 1, 1)) == 0
    # not a partition, though each row fits inside la
    assert lr_coefficient((3, 2), (1, 2), (2,)) == 0


def test_public_character_functions_reject_non_partitions():
    # the cached internals behind them are reached only through these checks
    for call in (
        lambda: sn_degree((1, 3)),
        lambda: sn_degree((2, 0, 1)),
        lambda: lr_multi((3, 1, 2), [(3,), (2,), (1,)]),
        lambda: lr_coefficient((1, 3), (2,), (2,)),
        lambda: stretch_coefficient((1, 3), (2,), 2),
        lambda: stretch_coefficient((2, 2), (1.0, 1), 2),
        lambda: character_value((1, 3), (4,)),
        lambda: character_value((3, 1), (2.0, 2)),
    ):
        with pytest.raises(ValueError, match="partition parts"):
            call()


def test_lr_symmetries():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(2, 13)
        m = rng.randrange(1, n)
        la = rng.choice(partitions(n))
        mu = rng.choice(partitions(m))
        nu = rng.choice(partitions(n - m))
        c = lr_coefficient(la, mu, nu)
        assert c == lr_coefficient(la, nu, mu)
        assert c == lr_coefficient(conjugate(la), conjugate(mu), conjugate(nu))


def test_lr_degree_consistency():
    # restricting to S_m x S_{n-m} preserves the degree for every split point
    for n in range(2, 11):
        for la in partitions(n):
            for m in range(1, n):
                total = sum(
                    lr_coefficient(la, mu, nu) * sn_degree(mu) * sn_degree(nu)
                    for mu in partitions(m)
                    for nu in partitions(n - m)
                )
                assert total == sn_degree(la), (la, m)


def test_subshapes():
    subs = subshapes((3, 2), 3)
    assert set(subs) == {(3,), (2, 1)}
    assert set(subshapes((2, 2, 1), 2)) == {(2,), (1, 1)}


def test_young_decompose_two_blocks():
    dec = young_decompose((3, 1), (2, 2))
    assert dec == {((2,), (2,)): 1, ((2,), (1, 1)): 1, ((1, 1), (2,)): 1}
    # block sizes in the given order; total degree identity
    for la in partitions(6):
        dec = young_decompose(la, (2, 4))
        assert all(sum(mus[0]) == 2 and sum(mus[1]) == 4 for mus in dec)


def test_young_decompose_matches_iterated_lr():
    rng = random.Random(7)
    for _ in range(30):
        la = rng.choice(partitions(8))
        dec = young_decompose(la, (2, 2, 4))
        for (m1, m2, m3), c in dec.items():
            total = sum(
                lr_coefficient(la, nu, m3) * lr_coefficient(nu, m1, m2)
                for nu in partitions(4)
            )
            assert c == total


def test_lr_multi_agrees_with_young_decompose():
    for la in partitions(6):
        dec = young_decompose(la, (2, 4))
        for mus, c in dec.items():
            assert lr_multi(la, mus) == c


def test_split_pairs_orientation():
    pairs = split_pairs((6, 2), 4)
    assert pairs[((4,), (2, 2))] == pairs[((2, 2), (4,))] == 1
    # every entry against the character inner product, zero entries included
    for n in range(9):
        for la in partitions(n):
            for m in range(n + 1):
                want = {}
                for mu in partitions(m):
                    for nu in partitions(n - m):
                        c = _lr_by_characters(la, (mu, nu))
                        assert lr_coefficient(la, mu, nu) == c, (la, mu, nu)
                        if c:
                            want[mu, nu] = c
                assert split_pairs(la, m) == want, (la, m)


def test_lr_multi_three_factors_by_characters():
    # every block-size triple of n <= 7, empty blocks and zero entries
    # included, against the character inner product; the value does not
    # depend on the order of the factors or on an added empty one
    for n in range(8):
        for m1 in range(n + 1):
            for m2 in range(n - m1 + 1):
                sizes = (m1, m2, n - m1 - m2)
                for la in partitions(n):
                    for factors in product(*map(partitions, sizes)):
                        c = _lr_by_characters(la, factors)
                        assert lr_multi(la, factors) == c, (la, factors)
                        for order in permutations(factors + ((),)):
                            assert lr_multi(la, order) == c, (la, order)


def test_lr_multi_input_forms():
    assert lr_multi([3, 2, 1], [[2, 1], [], [2, 1]]) == 2
    assert lr_multi((), ()) == lr_multi((), ((),)) == 1
    assert lr_multi((2,), ((2,),)) == 1 and lr_multi((2,), ((1, 1),)) == 0
    # not a partition, in whichever position the peel meets it
    assert lr_multi((3, 2, 1), ((1, 2), (2,), (1,))) == 0
    # a factor part must be an int, though an int factor need not be a partition
    for factors in (((2.0,), (1,)), ((1,), (2.0,)), ((True, True), (1,)), (("2",), (1,))):
        with pytest.raises(ValueError, match="partition parts must be ints"):
            lr_multi((3,), factors)
    mismatched = (((3, 1), ((2,), (1,))), ((3, 1), ()), ((), ((1,),)), ((2, 1), ((2,), (2,))))
    for la, factors in mismatched:
        with pytest.raises(ValueError):
            lr_multi(la, factors)


def test_split_pairs_symmetries_to_twelve():
    # every table of n <= 12: swap and conjugation symmetry and the degree
    # identity, and one tuple object per shape across all the tables
    shapes = {}
    for n in range(13):
        for la in partitions(n):
            for m in range(n + 1):
                pairs = split_pairs(la, m)
                for key in pairs:
                    assert all(shapes.setdefault(mu, mu) is mu for mu in key), (la, m, key)
                swapped = split_pairs(la, n - m)
                assert pairs == {(mu, nu): c for (nu, mu), c in swapped.items()}, (la, m)
                conj = {(conjugate(mu), conjugate(nu)): c for (mu, nu), c in pairs.items()}
                assert split_pairs(conjugate(la), m) == conj, (la, m)
                total = sum(c * sn_degree(mu) * sn_degree(nu) for (mu, nu), c in pairs.items())
                assert total == sn_degree(la), (la, m)


@cache
def _strip_chains(la, p):
    """(sign, chains) of la by repeated _strip_removals, sign 0 for a nonempty p-core.

    chains counts the ways to strip la to its core by p-rim hooks; every
    way must give the same sign.
    """
    strips = _strip_removals(la, p)
    if not strips:
        return (0 if la else 1), 1
    signs, chains = set(), 0
    for mu, s in strips:
        sign, count = _strip_chains(mu, p)
        signs.add(s * sign)
        chains += count
    assert len(signs) == 1, (la, p)
    return signs.pop(), chains


def _hook_lengths(la):
    cols = conjugate(la)
    return [la[r] - c + cols[c] - r - 1 for r in range(len(la)) for c in range(la[r])]


def test_abacus_sign_and_quotient_match_repeated_strips():
    for p, m_max in ((2, 9), (3, 6), (5, 4), (7, 3)):
        for m in range(m_max + 1):
            for la in partitions(p * m):
                sign, quotient = _p_quotient(la, p)
                want, chains = _strip_chains(la, p)
                assert sign == want, (p, la)
                if not sign:
                    continue
                # the p-divisible hooks of la are p times the hooks of its quotient
                assert sum(map(sum, quotient)) == m, (p, la)
                hooks = sorted(h // p for h in _hook_lengths(la) if h % p == 0)
                assert hooks == sorted(h for q in quotient for h in _hook_lengths(q)), (p, la)
                # a chain of strips is a standard filling of the quotient's boxes
                want_chains = math.factorial(m)
                for q in quotient:
                    want_chains = want_chains // math.factorial(sum(q)) * sn_degree(q)
                assert chains == want_chains, (p, la)


def _stretch_character_sum(la, mu, p):
    """<s_mu[p_p], s_la> as sum over ct of chi^la(p ct) chi^mu(ct) / z_ct."""
    total = sum(
        Fraction(character_value(la, tuple(p * part for part in ct)) * character_value(mu, ct), centralizer_order(ct))
        for ct in partitions(sum(mu))
    )
    assert total.denominator == 1
    return int(total)


def test_stretch_coefficient_matches_character_sum():
    # the p-core / p-quotient rule against the independent character sum
    for p, m_max in ((2, 8), (3, 5), (5, 3), (7, 2)):
        for m in range(m_max + 1):
            for mu in partitions(m):
                for la in partitions(p * m):
                    assert stretch_coefficient(la, mu, p) == _stretch_character_sum(la, mu, p), (p, la, mu)


def test_stretch_coefficient_is_plethysm_difference():
    # difference of the two halves: a2 - a11 for p=2
    for m in (1, 2, 3, 4):
        for mu in partitions(m):
            for la in partitions(2 * m):
                a2, a11 = plethysm_split(la, mu)
                assert stretch_coefficient(la, mu, 2) == a2 - a11


def test_stretch_coefficient_odd_prime():
    # p=3: the stretched inner product is always an integer (the engine's
    # twist splitting depends on exact divisibility here)
    for mu in partitions(2):
        for la in partitions(6):
            assert isinstance(stretch_coefficient(la, mu, 3), int)
    assert stretch_coefficient((6,), (2,), 3) == 1
    assert stretch_coefficient((1,) * 6, (1, 1), 3) == 1


def test_cyclic_split_rejects_fractional_or_negative_multiplicities():
    # (2,1,0): halves; (3,1,2): (1-2)/3 and (1+4)/3; (2,1,3): (1-3)/2 = -1
    for p, c, d in ((2, 1, 0), (3, 1, 2), (2, 1, 3)):
        with pytest.raises(ArithmeticError):
            cyclic_split(p, c, d)
    assert cyclic_split(3, 5, 2) == (3, 1, 1)
    assert cyclic_split(2, 3, -1) == (1, 2)


def test_plethysm_split_known_values():
    # sym^2 / alt^2 of the standard shapes
    assert plethysm_split((4,), (2,)) == (1, 0)
    assert plethysm_split((2, 2), (2,)) == (1, 0)
    assert plethysm_split((3, 1), (2,)) == (0, 1)
    assert plethysm_split((2, 1, 1), (2,)) == (0, 0)
    assert plethysm_split((2, 2), (1, 1)) == (1, 0)
    assert plethysm_split((1, 1, 1, 1), (1, 1)) == (1, 0)
    assert plethysm_split((2, 1, 1), (1, 1)) == (0, 1)


def test_plethysm_split_sums_to_square_multiplicity():
    # a2 + a11 = multiplicity of la in mu x mu induced
    for m in (2, 3):
        for mu in partitions(m):
            for la in partitions(2 * m):
                a2, a11 = plethysm_split(la, mu)
                assert a2 + a11 == lr_coefficient(la, mu, mu)
                assert a2 >= 0 and a11 >= 0


def test_plethysm_split_rejects_size_mismatch():
    with pytest.raises(ValueError):
        plethysm_split((3, 1), (3,))


def test_plethysm_split_conjugation_rule():
    # conjugating la conjugates mu and, for odd |mu|, swaps the two components
    for m in range(1, 6):
        for mu in partitions(m):
            for la in partitions(2 * m):
                here = plethysm_split(la, mu)
                there = plethysm_split(conjugate(la), conjugate(mu))
                if m % 2 == 0:
                    assert here == there, (la, mu)
                else:
                    assert here == there[::-1], (la, mu)


def test_plethysm_split_growth_monotonicity():
    # widening both shapes by one top-row box never loses multiplicity
    for m in range(1, 5):
        for mu in partitions(m):
            wider_mu = (mu[0] + 1,) + mu[1:]
            for la in partitions(2 * m):
                wider_la = (la[0] + 2,) + la[1:]
                small = plethysm_split(la, mu)
                big = plethysm_split(wider_la, wider_mu)
                assert all(s <= b for s, b in zip(small, big)), (la, mu)
