"""Barred values, P-partitions, sorting permutations, and the shuffle
outcome correspondences.

Maps are rank tuples: 0, 1-, 1, 2-, 2, ... are the ranks 0, 1, 2, 3, 4, ...
"""

import itertools
import random

import pytest

from shuffle_lab.permutations import (
    all_permutations,
    format_permutation,
    inverse,
)
from shuffle_lab import ppartitions
from shuffle_lab.posets import Poset, all_posets
from shuffle_lab.ppartitions import (
    MODES,
    ShuffleOutcome,
    alphabet,
    alphabet_size,
    cut_piles,
    enumerate_bounded,
    format_two_line,
    format_value,
    is_p_partition,
    parse_value,
    pile_poset,
    ppartition_from_shelf_outcome,
    riffle_outcome_to_ppartition,
    shelf_outcome_from_ppartition,
    sorting_permutation,
)

from .oracles import (
    BarredInt,
    bar,
    block_cut_piles,
    bottom_deal_permutation,
    brute_enumerate,
    brute_is_p_partition,
    by_label_enumerate,
    key_sorting_permutation,
    parse_two_line,
    ranks,
)

# the running worked example: f = (1-, 0, 0, 2-, 1-, 1, 0, 2, 2)
F_EX = (1, 0, 0, 3, 1, 2, 0, 4, 4)


def test_barred_int_order():
    ladder = [BarredInt(0), bar(1), BarredInt(1), bar(2), BarredInt(2), bar(3)]
    assert sorted(ladder) == ladder
    assert [v.rank for v in ladder] == [0, 1, 2, 3, 4, 5]
    for rank in range(8):
        assert BarredInt.from_rank(rank).rank == rank
        assert format_value(rank) == str(BarredInt.from_rank(rank))


def test_barred_int_text():
    assert format_value(3) == "2-"
    assert format_value(6) == "3"
    assert parse_value("2-") == 3
    assert parse_value(" 0 ") == 0
    for rank in [0, 1, 8]:
        assert parse_value(format_value(rank)) == rank


def test_barred_int_rejects():
    for text in ["-1", "0-", "-1-", "x"]:
        with pytest.raises(ValueError):
            parse_value(text)


def test_relation_examples():
    # a below b on a naturally labelled pair (1 < 2), then on an unnatural one (2 < 1)
    def natural(a, b):
        return is_p_partition((a, b), Poset(2, [(1, 2)]))

    def unnatural(a, b):
        return is_p_partition((b, a), Poset(2, [(2, 1)]))

    assert natural(0, 0)
    assert not natural(1, 1)
    assert natural(1, 2)
    assert unnatural(1, 1)
    assert not unnatural(0, 0)
    assert not unnatural(4, 2)


def test_alphabet_modes():
    assert alphabet(2, "all") == (0, 1, 2, 3, 4)
    assert alphabet(2, "nonzero") == (1, 2, 3, 4)
    assert alphabet(2, "positive") == (2, 4)
    assert alphabet(0, "all") == (0,)
    assert alphabet(0, "nonzero") == ()
    with pytest.raises(ValueError):
        alphabet(2, "barred")
    with pytest.raises(ValueError):
        alphabet(-1, "all")


def test_alphabet_size_counts_the_alphabet():
    for m, mode in itertools.product(range(12), MODES):
        assert alphabet_size(m, mode) == len(alphabet(m, mode))
    for m, mode in ((2, "barred"), (-1, "all")):
        with pytest.raises(ValueError):
            alphabet_size(m, mode)


def test_mode_bound_inverts_size():
    for mode, m in itertools.product(MODES.values(), range(51)):
        assert mode.bound(mode.size(m)) == m, (mode.name, m)


def test_mode_bound_rejects_sizes_with_no_reading():
    # an "all" alphabet has an odd size, a "nonzero" one an even size
    for name, size in [("all", 0), ("all", 4), ("all", -1), ("nonzero", 3),
                       ("nonzero", -2), ("positive", -1)]:
        with pytest.raises(ValueError, match="alphabet has"):
            MODES[name].bound(size)


def test_sorting_permutation_examples():
    assert format_permutation(sorting_permutation(F_EX)) == "237516489"
    assert sorting_permutation((0,) * 4) == tuple(range(1, 5))
    assert sorting_permutation((1,) * 3) == (3, 2, 1)


def test_bottom_deal_examples():
    assert format_permutation(bottom_deal_permutation(F_EX)) == "732156498"
    assert bottom_deal_permutation((0,) * 3) == (3, 2, 1)
    # no ties: both deal orders sort identically
    strict_f = (2, 3, 6)
    assert bottom_deal_permutation(strict_f) == sorting_permutation(strict_f)


def test_each_map_belongs_to_exactly_its_sorting_chain():
    for n in range(1, 6):
        maps = enumerate_bounded(Poset(n), 2, "all")
        for p in all_permutations(n):
            members = set(enumerate_bounded(Poset.chain(p), 2, "all"))
            for f in maps:
                assert (f in members) == (sorting_permutation(f) == p)


# deal is the one pile rule behind the samplers, the riffle cut and the
# sorting permutation; these checks hold it to the key sort and the block
# cut of tests/oracles.py, and each reads ppartitions.deal at call time, so
# the negative control below can swap in a broken deal.


def _deal_differs(values, owner):
    """Whether deal(values, owner) differs from an oracle: the key sort of
    the map i -> values[owner[i-1]], split by owner, or, for the sorted
    owner list, the block cut of the owner counts."""
    by_key = [[] for _ in values]
    for card in key_sorting_permutation(tuple(values[j] for j in owner)):
        by_key[owner[card - 1]].append(card)
    counts = [0] * len(values)
    for j in owner:
        counts[j] += 1
    return (ppartitions.deal(values, owner) != by_key
            or ppartitions.deal(values, sorted(owner)) != block_cut_piles(values, counts))


def _first_deal_mismatch():
    for mode in MODES:
        for m in range(3):
            values = alphabet(m, mode)
            for n in range(6):
                for owner in itertools.product(range(len(values)), repeat=n):
                    if _deal_differs(values, owner):
                        return mode, m, owner
    rng = random.Random(20)
    for mode in MODES:
        for m, decks in ((10, 20), (10**5, 1)):
            values = alphabet(m, mode)
            for _ in range(decks):
                owner = [rng.randrange(len(values)) for _ in range(1000)]
                if _deal_differs(values, owner):
                    return mode, m, owner
    return None


def _first_sorting_mismatch():
    for n in range(7):
        for f in itertools.product(range(7), repeat=n):
            if sorting_permutation(f) != key_sorting_permutation(f):
                return f
    rng = random.Random(21)
    for top in (2, 20, 2 * 10**6):
        for _ in range(30):
            f = tuple(rng.randrange(top + 1) for _ in range(1000))
            if sorting_permutation(f) != key_sorting_permutation(f):
                return f
    return None


def test_deal_equals_key_sort_and_block_cut():
    assert _first_deal_mismatch() is None


def test_sorting_permutation_equals_key_sort():
    assert _first_sorting_mismatch() is None


def test_unreversed_deal_fails_the_deal_checks(monkeypatch):
    def unreversed(values, owner):
        piles = [[] for _ in values]
        for card, j in enumerate(owner, 1):
            piles[j].append(card)
        return piles

    monkeypatch.setattr(ppartitions, "deal", unreversed)
    assert _first_deal_mismatch() == ("all", 1, (1, 1))
    assert _first_sorting_mismatch() == (1, 1)


def test_is_p_partition_membership_example():
    poset = Poset(3, [(1, 2), (3, 2)])
    assert is_p_partition((0, 1, 1), poset, "all")
    assert not is_p_partition((0, 1, 2), poset, "all")
    assert not is_p_partition((0, 1, 1), poset, "nonzero")
    with pytest.raises(ValueError):
        is_p_partition((0, 0), poset, "all")


def test_is_p_partition_matches_full_relation_oracle():
    for poset in all_posets(3):
        for f in itertools.product(range(4), repeat=3):
            values = tuple(map(BarredInt.from_rank, f))
            for mode in MODES:
                assert is_p_partition(f, poset, mode) == brute_is_p_partition(
                    values, poset, mode
                )


def test_enumerate_examples():
    assert len(enumerate_bounded(Poset(2), 1, "all")) == 9
    assert len(enumerate_bounded(Poset(3), 2, "positive")) == 8
    assert len(enumerate_bounded(Poset.chain((1, 2)), 1, "all")) == 5


def test_enumerate_matches_brute_filter():
    for n in range(1, 4):
        for poset in all_posets(n):
            for mode in MODES:
                for m in range(3):
                    mine = enumerate_bounded(poset, m, mode)
                    assert len(mine) == len(set(mine))
                    assert set(mine) == set(map(ranks, brute_enumerate(poset, m, mode)))


def test_enumerate_equals_by_label_backtrack():
    # the same maps in the same order as the BarredInt backtrack by label
    for n in range(5):
        for poset in all_posets(n):
            for mode, m in itertools.product(MODES, range(3)):
                assert enumerate_bounded(poset, m, mode) == list(
                    map(ranks, by_label_enumerate(poset, m, mode))
                ), (poset, mode, m)
    for p in all_permutations(5):
        chain = Poset.chain(p)
        for mode, m in itertools.product(MODES, range(4)):
            assert enumerate_bounded(chain, m, mode) == list(
                map(ranks, by_label_enumerate(chain, m, mode))
            ), (p, mode, m)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_bounded(Poset(20), 3, "all")


def test_shelf_outcome_worked_example():
    # placement sequence (1t, 1b, 2t, 0, 1b, 2b, 2t, 0, 1t)
    f = (1, 2, 3, 0, 2, 4, 3, 0, 1)  # 1- 1 2- 0 1 2 2- 0 1-
    outcome = shelf_outcome_from_ppartition(f, 2)
    assert outcome.composition == (2, 2, 2, 2, 1)
    assert format_permutation(outcome.permutation) == "489125736"
    assert ppartition_from_shelf_outcome(outcome) == f


def test_shelf_outcome_constant_zero():
    outcome = shelf_outcome_from_ppartition((0,) * 4, 2)
    assert outcome.composition == (4, 0, 0, 0, 0)
    assert outcome.permutation == tuple(range(1, 5))


def test_shelf_outcome_value_errors():
    with pytest.raises(ValueError):
        shelf_outcome_from_ppartition((6,), 2)
    with pytest.raises(ValueError):
        shelf_outcome_from_ppartition((0,), 2, "nonzero")


def test_shelf_round_trip_exhaustive():
    for mode, m in [("all", 1), ("nonzero", 2), ("positive", 2)]:
        values = alphabet(m, mode)
        seen = set()
        for f in itertools.product(values, repeat=4):
            outcome = shelf_outcome_from_ppartition(f, m, mode)
            assert ppartition_from_shelf_outcome(outcome, mode) == f
            seen.add(outcome)
        assert len(seen) == len(values) ** 4


def test_shelf_outcome_rejects_inconsistent_permutation():
    # both cards landed under shelf 1, so the deck must stay in order
    with pytest.raises(ValueError):
        ppartition_from_shelf_outcome(ShuffleOutcome((0, 0, 2), (2, 1)))
    # an odd-length composition has no nonzero-mode reading
    with pytest.raises(ValueError):
        ppartition_from_shelf_outcome(ShuffleOutcome((0, 0, 2), (1, 2)), "nonzero")
    with pytest.raises(ValueError):
        ppartition_from_shelf_outcome(ShuffleOutcome((1, 0, 2), (1, 2)))
    # parts sum to the deck size, but one is negative
    with pytest.raises(ValueError, match="negative"):
        ppartition_from_shelf_outcome(ShuffleOutcome((3, -1, 0), (1, 2)))


def test_pile_poset_flips_barred_piles():
    poset = pile_poset((3, 4, 3, 4, 2), "all")
    assert poset.n == 16
    expected = {
        (1, 2), (2, 3),                      # pile of value 0, ascending
        (7, 6), (6, 5), (5, 4),              # pile of value 1-, flipped
        (8, 9), (9, 10),                     # pile of value 1
        (14, 13), (13, 12), (12, 11),        # pile of value 2-, flipped
        (15, 16),                            # pile of value 2
    }
    assert set(poset.covers()) == expected
    with pytest.raises(ValueError, match="unknown mode"):
        pile_poset((3, 4, 3, 4, 2), "up-down")  # a riffle's name, not a mode


def test_cut_piles_rejects_malformed_compositions():
    values = alphabet(1, "all")
    assert cut_piles(values, (2, 0, 1)) == [[1, 2], [], [3]]
    with pytest.raises(ValueError, match="negative part"):
        cut_piles(values, (2, -1, 1))  # would deal card 2 twice
    with pytest.raises(ValueError, match="negative part"):
        pile_poset((2, -1, 1), "all")
    for A in ((1, 1, 1, 1), (1, 1)):  # one part per value, no card lost
        with pytest.raises(ValueError, match="parts for 3 values"):
            cut_piles(values, A)


def test_riffle_outcome_image_multiset():
    A = (3, 4, 3, 4, 2)
    s = (1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 14, 13, 12, 11, 15, 16)
    f = riffle_outcome_to_ppartition(A, s, "all")
    values = alphabet(2, "all")
    image = sorted(f)
    assert image == [values[0]] * 3 + [values[1]] * 4 + [values[2]] * 3 + [
        values[3]
    ] * 4 + [values[4]] * 2
    assert sorting_permutation(f) == inverse(s)


def test_riffle_outcome_rejects_bad_arrangement():
    A = (3, 4, 3, 4, 2)
    with pytest.raises(ValueError):
        riffle_outcome_to_ppartition(A, tuple(range(1, 17)), "all")
    with pytest.raises(ValueError):
        riffle_outcome_to_ppartition((2, 1), (1, 2), "all")  # even length
    with pytest.raises(ValueError):
        riffle_outcome_to_ppartition((2, 2), (1, 2, 3), "nonzero")


def test_riffle_single_pile_classic():
    f = riffle_outcome_to_ppartition((3,), tuple(range(1, 4)), "positive")
    assert f == (2,) * 3
    with pytest.raises(ValueError):
        riffle_outcome_to_ppartition((3,), (2, 1, 3), "positive")


def test_riffle_outcomes_biject_with_bounded_maps():
    # up-down riffle, n=4, m=1: (cut, arrangement) pairs <-> all 3^4 bounded maps
    n, pile_count = 4, 3
    produced = []
    for A in itertools.product(range(n + 1), repeat=pile_count):
        if sum(A) != n:
            continue
        poset = pile_poset(A, "all")
        for s in poset.linear_extensions():
            produced.append(riffle_outcome_to_ppartition(A, s, "all"))
    assert len(produced) == 3**n
    assert len(set(produced)) == 3**n
    assert set(produced) == set(enumerate_bounded(Poset(n), 1, "all"))


def test_two_line_format_round_trip():
    text = format_two_line(F_EX)
    assert parse_two_line(text) == F_EX
    assert format_two_line((1, 0, 4)) == "1  2 3\n1- 0 2"
    with pytest.raises(ValueError):
        parse_two_line("1 2 3\n")
    with pytest.raises(ValueError):
        parse_two_line("1 3\n0 0")
