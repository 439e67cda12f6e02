from math import isqrt

import pytest

from sylowbranch import characters, closedform, engine, oracle
from sylowbranch.partitions import (
    CACHE_MAX_SIZE,
    almost_hook,
    almost_hook_coordinate,
    check_partition,
    check_prime,
    check_shape,
    conjugate,
    delta,
    format_partition,
    hook,
    hook_coordinate,
    in_box,
    parse_partition,
    partitions,
    sylow_shape,
    two_block_pairs,
)


def test_check_partition_accepts_weakly_decreasing():
    assert check_partition((5, 3, 3, 1)) == (5, 3, 3, 1)
    assert check_partition([4]) == (4,)
    assert check_partition(()) == ()


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((3, 5))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    # a float is not truncated, nor a bool or a digit string converted:
    # text is read by parse_partition
    for parts in ((2.9,), (2.0,), (True,), ("2",), ("1_6",), (2, 1.0)):
        with pytest.raises(ValueError, match="must be ints"):
            check_partition(parts)


def test_check_shape():
    assert check_shape([3, 1], 2) == ((3, 1), (2,))
    assert check_shape((4, 1), 3, 5) == ((4, 1), (0, 0, 1))
    assert check_shape((CACHE_MAX_SIZE,), 2) == ((CACHE_MAX_SIZE,), (12,))
    with pytest.raises(ValueError, match="!= 4"):
        check_shape((3, 1, 1), 2, 4)
    with pytest.raises(ValueError, match=f"exceeds {CACHE_MAX_SIZE}"):
        check_shape((CACHE_MAX_SIZE, 1), 2)
    with pytest.raises(ValueError, match="prime"):
        check_shape((3, 1), 4)


# every public entry that takes a (partition, prime) pair, called on a
# shape la said to be of n
SYLOW_ENTRIES = {
    "restrict_sylow": lambda la, n: engine.restrict_sylow(la, 2),
    "linear_sylow": lambda la, n: engine.linear_sylow(la, 2),
    "sbc": lambda la, n: engine.sbc(la, 2, (0, 0)),
    "count_lin": lambda la, n: engine.count_lin(la, 2),
    "oracle_linear_multiplicity": lambda la, n: oracle.oracle_linear_multiplicity(la, 2, (0, 0)),
    "oracle_full_restriction": lambda la, n: oracle.oracle_full_restriction(la, 2),
    "two_linear_classification": lambda la, n: closedform.two_linear_classification(n, la),
    "odd_prime_classification": lambda la, n: closedform.odd_prime_classification(3, n, la),
}


@pytest.mark.parametrize("entry", sorted(SYLOW_ENTRIES))
@pytest.mark.parametrize(
    "la, n, message",
    (
        ((3.0, 1), 4, "must be ints"),
        (("3", 1), 4, "must be ints"),
        ((3, True), 4, "must be ints"),
        ((1, 3), 4, "weakly decreasing"),
        ((CACHE_MAX_SIZE + 1,), CACHE_MAX_SIZE + 1, f"exceeds {CACHE_MAX_SIZE}"),
    ),
    ids=("float", "str", "bool", "rising", "too-large"),
)
def test_every_sylow_entry_rejects_a_bad_shape_before_any_walk(monkeypatch, entry, la, n, message):
    def unreachable(*args):
        raise AssertionError("a filling walk ran on a rejected shape")

    monkeypatch.setattr(characters, "split_walk", unreachable)
    monkeypatch.setattr(characters, "split_pairs", unreachable)
    with pytest.raises(ValueError, match=message):
        SYLOW_ENTRIES[entry](la, n)


def test_parse_format_roundtrip():
    assert parse_partition("8,2,1^6") == (8, 2) + (1,) * 6
    assert parse_partition("4") == (4,)
    assert parse_partition("3^2,2") == (3, 3, 2)
    # format emits plain comma-separated parts; parse inverts it
    assert format_partition((8, 2) + (1,) * 6) == "8,2,1,1,1,1,1,1"
    for la in [(8, 2, 1, 1), (4,), (1, 1, 1), ()]:
        assert parse_partition(format_partition(la)) == la


def test_parse_bounds_the_size_before_expanding():
    assert parse_partition(f"1^{CACHE_MAX_SIZE}") == (1,) * CACHE_MAX_SIZE
    assert parse_partition(f"{CACHE_MAX_SIZE - 2},1^2") == (CACHE_MAX_SIZE - 2, 1, 1)
    # a part below 1 counts one cell, so no token expands past the bound
    huge = ("1^1000000000", "0^1000000000", "-1^1000000000")
    for text in (f"1^{CACHE_MAX_SIZE + 1}", f"{CACHE_MAX_SIZE},1", *huge):
        with pytest.raises(ValueError, match=str(CACHE_MAX_SIZE)):
            parse_partition(text)
    # below the bound, the parts themselves are checked as before
    for text in ("0^3", "2,3", "1^-1", "x^2"):
        with pytest.raises(ValueError):
            parse_partition(text)


def test_parse_reads_ascii_digits_only():
    # int() would read each of these: "1_6" as 16, "+3" as 3, "1_0" as 10,
    # an Arabic-Indic digit as 1
    for text in ("1_6", "+3", "1^1_0", "3,+1", "2^+1", "1^\u0661"):
        with pytest.raises(ValueError, match="bad partition token"):
            parse_partition(text)
    assert parse_partition(" 8, 2 ,1 ^ 6 ") == (8, 2) + (1,) * 6


def test_partition_counts():
    # p(n) for n = 0..16
    wanted = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
    for n, cnt in enumerate(wanted):
        assert len(partitions(n)) == cnt


def test_partitions_are_canonical_and_ordered():
    for n in range(10):
        las = partitions(n)
        assert las == tuple(sorted(las, reverse=True))
        for la in las:
            assert check_partition(la) == la
            assert sum(la) == n


def test_conjugate_involution():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(11):
        for la in partitions(n):
            assert conjugate(conjugate(la)) == la
            assert sum(conjugate(la)) == n


def test_hooks():
    assert hook(8, 0) == (8,)
    assert hook(8, 3) == (5, 1, 1, 1)
    assert hook(8, 7) == (1,) * 8
    for n in (4, 8, 16):
        for x in range(n):
            h = hook(n, x)
            assert hook_coordinate(h) == x
            assert conjugate(h) == hook(n, n - 1 - x)
    assert hook_coordinate((3, 2)) is None


def test_almost_hooks():
    assert almost_hook(8, 0) == (6, 2)
    assert almost_hook(8, 2) == (4, 2, 1, 1)
    assert almost_hook(8, 4) == (2, 2, 1, 1, 1, 1)
    for n in (8, 16, 32):
        for x in range(n - 3):
            ah = almost_hook(n, x)
            assert sum(ah) == n
            assert almost_hook_coordinate(ah) == x
            assert conjugate(ah) == almost_hook(n, n - 4 - x)
    assert almost_hook_coordinate((5, 1, 1, 1)) is None
    with pytest.raises(ValueError):
        almost_hook(8, 5)


def test_box_membership():
    assert in_box((3, 3, 2), 3)
    assert not in_box((4, 1), 3)
    assert not in_box((2, 1, 1, 1), 3)


def test_delta_even_parts_halved():
    assert delta((4, 2)) == (2, 1)
    assert delta((6,)) == (3,)
    assert delta((2, 2, 2, 2)) == (1, 1, 1, 1)


def test_delta_odd_parts_rounded_alternately():
    # odd parts in decreasing order get +1, -1, +1, ... before halving
    assert delta((3, 1)) == (2,)
    assert delta((3, 2, 2, 1)) == (2, 1, 1)
    assert delta((5, 3, 3, 1)) == (3, 2, 1)
    assert delta((1, 1)) == (1,)


def test_delta_halves_size():
    for n in range(1, 11):
        for la in partitions(2 * n):
            assert sum(delta(la)) == n


def test_delta_needs_even_size():
    with pytest.raises(ValueError):
        delta((3,))


def test_exceptional_family_size_and_membership():
    fam = two_block_pairs(4)
    assert len(fam) == 29
    # one member of each defining row
    assert (8, 3, 1, 1, 1, 1, 1) in fam
    assert (8, 2, 2, 1, 1, 1, 1) in fam
    assert (7, 4, 1, 1, 1, 1, 1) in fam
    assert (6, 2, 2, 2, 1, 1, 1, 1) in fam
    assert (5, 3, 2, 1, 1, 1, 1, 1, 1) in fam
    assert (13, 3) in fam
    assert (2, 2, 2) + (1,) * 10 in fam
    assert (16,) not in fam
    assert (6, 6, 4) not in fam
    for la in fam:
        assert sum(la) == 16
        assert check_partition(la) == la


def _six_families(k):
    """The family's members listed as two_block_pairs' docstring words them."""
    n = 2**k
    half = n // 2
    raw = [(half, nu) for nu in ((3,), (4,), (4, 2))]
    raw += [(half - 1, nu) for nu in ((4,), (5,), (5, 2), (2, 2), (2, 2, 2))]
    raw += [(half - 2, nu) for nu in ((2, 2, 2), (2, 2, 2, 2))]
    raw += [(half - 3, nu) for nu in ((3, 2, 2), (3, 2, 2, 2))]
    raw += [(2 * r + 3, nu) for r in range(n) for nu in ((3,), (3, 2))]
    raw += [(2 * r, (2, 2)) for r in range(1, n)]
    return {
        (mu1, *nu) + (1,) * (n - mu1 - sum(nu))
        for mu1, nu in raw
        if mu1 >= nu[0] and mu1 + sum(nu) <= n
    }


def test_two_block_pairs_keys_are_the_six_families():
    for k in range(3, 9):
        assert set(two_block_pairs(k)) == _six_families(k), k


def test_two_block_pairs_bounds_k_before_listing():
    # the table holds about 1.5 * 2^k members of up to 2^k parts (k = 13 took
    # a 401 MB peak), so k passes check_power first; (3, 2, 2) is neither a
    # hook nor an almost hook, so exceptional_shape reaches the table
    for k in (13, 10**8):
        for call in (
            lambda: two_block_pairs(k),
            lambda: closedform.exceptional_shape(k, (3, 2, 2)),
            lambda: closedform.witness_pair(k, (3, 2, 2)),
        ):
            with pytest.raises(ValueError, match=f"exceeds {CACHE_MAX_SIZE}"):
                call()


def test_exceptional_family_closed_under_stated_conjugates():
    # the family is not conjugation-closed in general, but the two boundary
    # members are conjugate to each other
    assert conjugate((13, 3)) == (2, 2, 2) + (1,) * 10


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _accepts(p):
    try:
        check_prime(p)
    except ValueError as exc:
        assert "prime" in str(exc)
        return False
    return True


def test_check_prime():
    for p in (2, 3, 5, 7, 31, 2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert _accepts(p), p
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 31
    for p in (-3, 0, 1, 4, 9, 25, 3215031751, 3825123056546413051, 2**61 + 1, 2**64 - 1):
        assert not _accepts(p), p
    # the test is exact below 2^64 only, so larger p is rejected outright
    for p in (2**64, 2**89 - 1):
        with pytest.raises(ValueError, match="prime below 2\\^64"):
            check_prime(p)
    with pytest.raises(ValueError, match="prime"):
        sylow_shape(9, 9)


def test_check_prime_agrees_with_trial_division():
    for p in range(-2, 20_000):
        assert _accepts(p) == _is_prime_by_trial_division(p), p


def test_sylow_shape():
    assert sylow_shape(4, 2) == (2,)
    assert sylow_shape(9, 2) == (0, 3)
    assert sylow_shape(12, 2) == (2, 3)
    assert sylow_shape(12, 3) == (1, 2)
    assert sylow_shape(27, 3) == (3,)
    # binary digits of n, one height per set bit, ascending
    for n in range(1, 40):
        heights = sylow_shape(n, 2)
        assert sum(2**h for h in heights) == n
        assert list(heights) == sorted(heights)
