"""Property tests of the Young-subgroup fold over random shapes and compositions."""

from collections import defaultdict
from itertools import product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from sylowbranch.characters import lr_multi, sn_degree, young_decompose
from sylowbranch.partitions import partitions

# derandomized and without an example database, so every run draws the same cases
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def shape_and_sizes(draw, n_max=10):
    """A partition la of n <= n_max and a composition of n into positive blocks."""
    n = draw(st.integers(0, n_max))
    la = draw(st.sampled_from(partitions(n)))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else set()
    bounds = [0, *sorted(cuts), n] if n else [0]
    return la, tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _factor(mu, i):
    # keys collide across shapes and blocks, so the fold has to merge them
    return {("len", len(mu)): i + 1, ("deg", sn_degree(mu) % 3): sum(mu[:1]) + 1}


@DETERMINISTIC
@given(shape_and_sizes())
def test_fold_preserves_degree(case):
    la, sizes = case
    dec = young_decompose(la, sizes)
    assert all(tuple(map(sum, mus)) == sizes for mus in dec)
    assert sum(c * prod(map(sn_degree, mus)) for mus, c in dec.items()) == sn_degree(la)


@DETERMINISTIC
@given(shape_and_sizes(), st.data())
def test_fold_is_invariant_under_block_permutation(case, data):
    la, sizes = case
    order = data.draw(st.permutations(range(len(sizes))))
    permuted = young_decompose(la, [sizes[j] for j in order])
    expected = {
        tuple(mus[j] for j in order): c for mus, c in young_decompose(la, sizes).items()
    }
    assert permuted == expected


@DETERMINISTIC
@given(shape_and_sizes())
def test_fold_with_factor_matches_explicit_product(case):
    la, sizes = case
    explicit = defaultdict(int)
    for mus, c in young_decompose(la, sizes).items():
        vectors = [_factor(mu, i).items() for i, mu in enumerate(mus)]
        for combo in product(*vectors):
            explicit[tuple(x for x, _ in combo)] += c * prod(m for _, m in combo)
    assert young_decompose(la, sizes, _factor) == dict(explicit)


@DETERMINISTIC
@given(shape_and_sizes(), st.data())
def test_lr_multi_reads_one_entry_of_the_fold(case, data):
    la, sizes = case
    dec = young_decompose(la, sizes)
    wanted = [tuple(data.draw(st.sampled_from(partitions(size))) for size in sizes)]
    if dec:
        wanted.append(data.draw(st.sampled_from(sorted(dec))))
    for factors in wanted:
        assert lr_multi(la, factors) == dec.get(factors, 0), factors
