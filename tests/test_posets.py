"""Strict partial orders, linear extensions, and exhaustive generation."""

import itertools
import random

import pytest

from shuffle_lab.permutations import all_permutations
from shuffle_lab.posets import Poset, all_posets

from .oracles import brute_closure, is_linear_extension


def test_transitive_closure():
    poset = Poset(4, [(1, 2), (2, 3)])
    assert (1, 3) in poset.relation
    assert (3, 1) not in poset.relation
    assert (1, 4) not in poset.relation
    assert poset.covers() == ((1, 2), (2, 3))


def test_rejects_cycles_and_bad_pairs():
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        Poset(3, [(1, 1)])
    with pytest.raises(ValueError):
        Poset(3, [(1, 4)])
    with pytest.raises(ValueError):
        Poset(-1)


def test_chain_and_antichain():
    chain = Poset.chain((2, 1, 3))
    assert {(2, 1), (1, 3), (2, 3)} <= chain.relation
    assert chain.linear_extensions() == [(2, 1, 3)]
    anti = Poset(3)
    assert anti.covers() == ()
    assert anti.linear_extensions() == sorted(all_permutations(3))


def test_linear_extensions_of_v_poset():
    # 1 and 3 both below 2
    poset = Poset(3, [(1, 2), (3, 2)])
    assert poset.linear_extensions() == [(1, 3, 2), (3, 1, 2)]


def test_is_linear_extension_agrees_with_enumeration():
    poset = Poset(4, [(1, 2), (3, 2), (3, 4)])
    listed = set(poset.linear_extensions())
    for p in all_permutations(4):
        assert is_linear_extension(poset, p) == (p in listed)
    with pytest.raises(ValueError):
        is_linear_extension(poset, (1, 2, 3))


def test_covers_of_diamond():
    diamond = Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert diamond.covers() == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert (1, 4) in diamond.relation
    assert len(diamond.relation) == 5


def test_equality_ignores_generating_set():
    assert Poset(3, [(1, 2), (2, 3)]) == Poset(3, [(1, 2), (2, 3), (1, 3)])
    assert hash(Poset(3, [(1, 2)])) == hash(Poset(3, [(1, 2)]))
    assert Poset(3) != Poset(4)


def test_all_posets_counts():
    # the number of partial orders on n labeled points: 1, 3, 19, 219, ...
    assert [sum(1 for _ in all_posets(n)) for n in range(1, 5)] == [1, 3, 19, 219]


def test_all_posets_yields_distinct_valid_posets():
    seen = set(all_posets(3))
    assert len(seen) == 19
    assert Poset(3) in seen
    assert Poset(3, [(1, 2), (2, 3)]) in seen


def test_all_posets_cap():
    with pytest.raises(ValueError):
        next(all_posets(6))


def _random_posets(count, seed):
    # orient random pairs along a random order, so no cycle can arise
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 8)
        order = rng.sample(range(1, n + 1), n)
        pairs = [(order[a], order[b]) for a, b in itertools.combinations(range(n), 2)
                 if rng.random() < 0.3]
        yield n, pairs


def test_linear_extensions_and_closure_follow_the_definitions():
    cases = [(n, sorted(poset.relation)) for n in range(1, 5) for poset in all_posets(n)]
    cases += list(_random_posets(60, 18))
    for n, pairs in cases:
        poset = Poset(n, pairs)
        assert poset.relation == brute_closure(n, pairs)
        extensions = [p for p in sorted(all_permutations(n)) if is_linear_extension(poset, p)]
        assert poset.linear_extensions() == extensions
