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

from shuffle_lab.analysis import CycleSeries, count_table, f_im
from shuffle_lab.models import ShuffleSpec
from shuffle_lab.orderpoly import (
    DecompositionReport,
    convolved_bound,
    mode_statistic,
    op_chain,
    statistic_range,
)
from shuffle_lab.permutations import Perm, all_permutations, compose, statistic
from shuffle_lab.posets import Poset
from shuffle_lab.ppartitions import BarredInt, PPartition, alphabet


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


def product_loop_decomposition(
    n: int, k: int, l: int, mode: str = "all", perturbation: int = 0
) -> DecompositionReport:
    """The two-pass decomposition check by the full n!^2 product loop:
    accumulate op_sigma(k) op_tau(l) onto compose(sigma, tau) for every
    pair, then compare each pi, in lexicographic order, with the single
    pass at the convolved bound."""
    kind = mode_statistic(mode)
    target_m = convolved_bound(k, l, mode) + perturbation
    lhs: dict[Perm, int] = {p: 0 for p in all_permutations(n)}
    op_k = {p: op_chain(n, statistic(p, kind), k, mode) for p in lhs}
    op_l = {p: op_chain(n, statistic(p, kind), l, mode) for p in lhs}
    for s in lhs:
        for t in lhs:
            lhs[compose(s, t)] += op_k[s] * op_l[t]
    checked = 0
    for p, total in sorted(lhs.items()):
        checked += 1
        rhs = op_chain(n, statistic(p, kind), target_m, mode)
        if total != rhs:
            return DecompositionReport(n, k, l, mode, False, checked, (p, total, rhs))
    return DecompositionReport(n, k, l, mode, True, checked)


def pow_product_cycle_series(n: int, m: int) -> CycleSeries:
    """The lazy pass's cycle series as the literal truncated product
    1/(1 - z_1 u) * prod_i two_sided_factor(i)^f(i, m), each power taken
    by CycleSeries.pow (square and multiply)."""
    series = CycleSeries.geometric_z1(n)
    for i in range(1, n + 1):
        series = series * CycleSeries.two_sided_factor(i, n).pow(f_im(i, m))
    return series


def by_label_enumerate(poset: Poset, m: int, mode: str) -> list[PPartition]:
    """Bounded P-partitions by backtracking over elements 1..n with
    BarredInt values: each element tries every alphabet value in
    increasing order, and a covering pair is checked once both endpoints
    are assigned."""
    values = alphabet(m, mode)
    pending: list[list[tuple[int, int]]] = [[] for _ in range(poset.n + 1)]
    for i, j in poset.covers():
        pending[max(i, j)].append((i, j))
    out: list[PPartition] = []
    f: list[BarredInt] = [BarredInt(0)] * poset.n

    def assign(e: int) -> None:
        if e > poset.n:
            out.append(tuple(f))
            return
        for v in values:
            f[e - 1] = v
            if all(brute_pair_ok(i, j, f[i - 1], f[j - 1]) for i, j in pending[e]):
                assign(e + 1)

    assign(1)
    return out


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
