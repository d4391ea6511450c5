"""Statistics and algebra of one-line permutations."""

import itertools
import random

import pytest

from shuffle_lab.models import ShuffleSpec, exact_prob
from shuffle_lab.permutations import (
    all_permutations,
    check_permutation,
    compose,
    cycle_type_partition,
    descents,
    fixed_points,
    format_permutation,
    inverse,
    left_peaks,
    peaks,
    permutation_formatter,
    statistic,
)

from .oracles import parse_permutation, str_format_permutation

EX = parse_permutation("237516489")


def test_descents_examples():
    assert descents(tuple(range(1, 6))) == (0, ())
    assert descents((4, 3, 2, 1)) == (3, (1, 2, 3))
    assert descents(EX) == (3, (3, 4, 6))


def test_peaks_examples():
    assert peaks(tuple(range(1, 5))) == 0
    assert peaks((1, 3, 2)) == 1
    assert peaks(EX) == 2


def test_left_peaks_examples():
    assert left_peaks(tuple(range(1, 5))) == 0
    assert left_peaks((2, 1)) == 1
    # EX starts with an ascent, so lpk = pk
    assert left_peaks(EX) == 2


def test_left_peaks_are_peaks_of_zero_prefixed_word():
    for n in range(1, 7):
        for p in all_permutations(n):
            q = (0,) + p
            expected = sum(
                1 for i in range(1, n) if q[i - 1] < q[i] > q[i + 1]
            )
            assert left_peaks(p) == expected


def test_left_peaks_minus_peaks_is_initial_descent():
    for n in range(2, 9):
        for p in all_permutations(n):
            assert left_peaks(p) - peaks(p) == (1 if p[0] > p[1] else 0)


def test_statistic_bounds_attained():
    for n in range(1, 7):
        values = {"lpk": set(), "pk": set(), "des": set()}
        for p in all_permutations(n):
            for kind in values:
                values[kind].add(statistic(p, kind))
        assert min(v for vs in values.values() for v in vs) == 0
        assert max(values["lpk"]) == n // 2
        assert max(values["pk"]) == (n - 1) // 2
        assert max(values["des"]) == n - 1


def test_statistic_dispatch():
    assert statistic(EX, "des") == 3
    assert statistic(EX, "pk") == 2
    assert statistic(EX, "lpk") == 2
    with pytest.raises(ValueError):
        statistic(EX, "maj")


def test_compose_convention():
    # the fixed convention: (st)(i) = s(t(i))
    assert compose((2, 3, 1), (2, 1, 3)) == (3, 2, 1)
    for p in all_permutations(4):
        assert compose(tuple(range(1, 5)), p) == p
        assert compose(p, tuple(range(1, 5))) == p
        assert compose(p, inverse(p)) == tuple(range(1, 5))
        assert compose(inverse(p), p) == tuple(range(1, 5))


def test_compose_associative():
    perms = list(all_permutations(3))
    for a, b, c in itertools.product(perms, repeat=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_examples():
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert inverse((2, 1)) == (2, 1)
    assert inverse((2, 3, 1)) == (3, 1, 2)


def test_cycle_type_examples():
    assert cycle_type_partition(tuple(range(1, 5))) == (1, 1, 1, 1)
    assert cycle_type_partition((2, 1)) == (2,)
    assert cycle_type_partition((2, 3, 1)) == (3,)
    assert cycle_type_partition((2, 1, 3, 5, 4)) == (2, 2, 1)


def test_cycle_type_partition_equals_orbit_sizes():
    # each orbit {i, p(i), p(p(i)), ...} is one cycle, counted once
    for n in range(1, 8):
        for p in all_permutations(n):
            orbits = set()
            for i in range(1, n + 1):
                orbit, j = {i}, p[i - 1]
                while j != i:
                    orbit.add(j)
                    j = p[j - 1]
                orbits.add(frozenset(orbit))
            assert cycle_type_partition(p) == tuple(sorted(map(len, orbits), reverse=True))


def test_cycle_type_is_inverse_invariant():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert cycle_type_partition(p) == cycle_type_partition(inverse(p))


def test_cycle_lengths_sum_to_n():
    for p in all_permutations(5):
        assert sum(cycle_type_partition(p)) == 5
        assert fixed_points(p) == cycle_type_partition(p).count(1)


def test_format_parse_round_trip():
    assert format_permutation(EX) == "237516489"
    long = tuple(range(12, 0, -1))
    assert format_permutation(long) == "12,11,10,9,8,7,6,5,4,3,2,1"
    assert parse_permutation(format_permutation(long)) == long
    for p in all_permutations(4):
        assert parse_permutation(format_permutation(p)) == p


def test_formatter_equals_one_str_per_entry():
    # the label table renders every entry as str() did, commas from n = 10
    rng = random.Random(22)
    for n in [*range(1, 13), 52, 1000]:
        render = permutation_formatter(n)
        cases = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        cases += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(5)]
        for p in cases:
            assert render(p) == format_permutation(p) == str_format_permutation(p), p[:12]


def test_check_permutation_rejects_non_permutations():
    for bad in [(1, 1), (2, 3), (0, 1), (True, 2), (2.0, 1)]:
        with pytest.raises(ValueError):
            check_permutation(bad)
    with pytest.raises(ValueError):
        exact_prob((2.0, 1), ShuffleSpec(2, 1, "riffle-updown"))
