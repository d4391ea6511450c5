"""Brute-force oracles and scripted randomness for the test suite.

Everything here recomputes quantities from raw definitions, independently
of the library's formulas: order preservation is checked over the full
relation (not just covering pairs), statistics are counted by scanning
windows, and bounded-partition sets come from filtering the complete
value-tuple product.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from shuffle_lab.analysis import count_table
from shuffle_lab.models import ShuffleSpec
from shuffle_lab.orderpoly import op_chain, statistic_range
from shuffle_lab.posets import Poset
from shuffle_lab.ppartitions import BarredInt, PPartition


def _rank(v: BarredInt) -> int:
    return 2 * v.magnitude - (1 if v.barred else 0)


def brute_pair_ok(i: int, j: int, fi: BarredInt, fj: BarredInt) -> bool:
    """The raw order-preservation condition for i below j in the poset:
    strictly smaller values always pass; equal values pass when nonbarred
    for naturally ordered pairs (i < j) and when barred otherwise."""
    if _rank(fi) != _rank(fj):
        return _rank(fi) < _rank(fj)
    return (not fi.barred) if i < j else fi.barred


def brute_is_p_partition(f: PPartition, poset: Poset, mode: str) -> bool:
    for v in f:
        if mode == "nonzero" and v.magnitude == 0:
            return False
        if mode == "positive" and (v.magnitude == 0 or v.barred):
            return False
    return all(
        brute_pair_ok(i, j, f[i - 1], f[j - 1]) for i, j in poset.relation
    )


def brute_enumerate(poset: Poset, m: int, mode: str) -> list[PPartition]:
    """Filter every tuple over the full magnitude-<=-m alphabet by the
    full-relation membership check.  Exponential; tiny posets only."""
    values = [BarredInt.from_rank(r) for r in range(2 * m + 1)]
    return [
        f
        for f in itertools.product(values, repeat=poset.n)
        if brute_is_p_partition(f, poset, mode)
    ]


def brute_statistic_counts(n: int, kind: str) -> tuple[int, ...]:
    """Statistic class sizes by scanning all n! permutations."""
    counts: Counter[int] = Counter()
    for p in itertools.permutations(range(1, n + 1)):
        if kind == "des":
            value = sum(1 for a, b in zip(p, p[1:]) if a > b)
        elif kind == "pk":
            value = sum(1 for a, b, c in zip(p, p[1:], p[2:]) if a < b > c)
        elif kind == "lpk":
            q = (0,) + p
            value = sum(1 for a, b, c in zip(q, q[1:], q[2:]) if a < b > c)
        else:
            raise ValueError(f"unknown statistic kind: {kind!r}")
        counts[value] += 1
    return tuple(counts[k] for k in range(max(counts) + 1))


def fraction_distances(spec: ShuffleSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(tv, sep, linf) the slow way: one op_chain call and one Fraction per
    statistic class, tv as half the count-weighted sum of
    |class probability - 1/n!|, sep and linf from the extreme classes."""
    n, total = spec.n, spec.total_outcomes
    counts = count_table(n, spec.statistic_kind).counts
    classes = [
        (Fraction(op_chain(n, k, spec.m, spec.mode), total), counts[k])
        for k in statistic_range(spec.statistic_kind, n)
    ]
    if sum(prob * count for prob, count in classes) != 1:
        raise ValueError("class probabilities do not sum to 1")
    nfact = math.factorial(n)
    tv = sum((count * abs(prob - Fraction(1, nfact)) for prob, count in classes), Fraction(0)) / 2
    extremes = [nfact * classes[0][0], nfact * classes[-1][0]]
    sep = max(1 - scaled for scaled in extremes)
    linf = max(abs(scaled - 1) for scaled in extremes)
    return tv, sep, linf


class ScriptedRNG:
    """randrange stand-in that replays a fixed list of draws, so a sampler
    can be driven through a specific placement sequence."""

    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0

    def randrange(self, bound: int) -> int:
        value = self.script[self.cursor]
        self.cursor += 1
        if not 0 <= value < bound:
            raise AssertionError(f"scripted draw {value} outside range({bound})")
        return value

    def exhausted(self) -> bool:
        return self.cursor == len(self.script)
