"""Brute-force oracles, test-only helpers and scripted randomness for the
test suite.

The oracles recompute quantities from raw definitions or by the slow
routes the library replaced: order preservation is checked over the full
relation (not just covering pairs), statistics are counted by scanning
windows, bounded-partition sets come from filtering the complete
value-tuple product, products in S_n are taken one pair at a time or
counted into one Counter per class pair, cycle-type laws are totalled
from exact_prob one permutation at a time, the reference samplers sort
the placement map on one key per card, cut the deck into blocks and
scan the pile sizes (none of them calls ppartitions.deal, which the
library's samplers, cut and sorting permutation share), and the
reference writers keep every ``simulate`` row and ``tv-table`` cell
before rendering them, a deck by one str() per card and JSON by
json.dumps.
The reference samplers and randrange_draws call randrange, so they pin
the generator consumption of the samplers' inlined draws.

The library stores a barred value as its integer rank.  The P-partition
oracles work on BarredInt values instead (magnitude and bar), so they do
not share that encoding with the code they check; ``ranks`` turns their
maps into the library's rank tuples for comparison.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering

from shuffle_lab import cli, models
from shuffle_lab import ppartitions as pp
from shuffle_lab.analysis import exact_str, f_im
from shuffle_lab.models import ShuffleSpec, convolve
from shuffle_lab.orderpoly import (
    IdentityReport,
    _adjacent_swaps,
    convolved_bound,
    mode_statistic,
    op_chain,
    op_of_perm,
    statistic_range,
)
from shuffle_lab.permutations import (
    Perm,
    all_permutations,
    check_permutation,
    compose,
    cycle_type_partition,
    descents,
    inverse,
    peaks,
    statistic,
)
from shuffle_lab.posets import Poset
from shuffle_lab.ppartitions import (
    ENUMERATION_CAP,
    PPartition,
    ShuffleOutcome,
    alphabet,
    parse_value,
)


@total_ordering
@dataclass(frozen=True)
class BarredInt:
    """An element of the alphabet 0 < 1- < 1 < 2- < 2 < ...

    The total order is realized by rank(v) = 2|v| - (1 if barred).
    """

    magnitude: int
    barred: bool = False

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("magnitude must be nonnegative")
        if self.barred and self.magnitude == 0:
            raise ValueError("0 has no barred version")

    @property
    def rank(self) -> int:
        return 2 * self.magnitude - (1 if self.barred else 0)

    @classmethod
    def from_rank(cls, rank: int) -> "BarredInt":
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        return cls((rank + 1) // 2, rank % 2 == 1)

    def __lt__(self, other: "BarredInt") -> bool:
        return self.rank < other.rank

    def __str__(self) -> str:
        return f"{self.magnitude}-" if self.barred else str(self.magnitude)


def bar(k: int) -> BarredInt:
    """Shorthand for the barred value k-."""
    return BarredInt(k, True)


def ranks(f: tuple[BarredInt, ...]) -> PPartition:
    """An oracle's map as the library stores it: one rank per card."""
    return tuple(v.rank for v in f)


def brute_pair_ok(i: int, j: int, fi: BarredInt, fj: BarredInt) -> bool:
    """The raw order-preservation condition for i below j in the poset:
    strictly smaller values always pass; equal values pass when nonbarred
    for naturally ordered pairs (i < j) and when barred otherwise."""
    if fi.rank != fj.rank:
        return fi.rank < fj.rank
    return (not fi.barred) if i < j else fi.barred


def brute_is_p_partition(f: tuple[BarredInt, ...], poset: Poset, mode: str) -> bool:
    for v in f:
        if mode == "nonzero" and v.magnitude == 0:
            return False
        if mode == "positive" and (v.magnitude == 0 or v.barred):
            return False
    return all(
        brute_pair_ok(i, j, f[i - 1], f[j - 1]) for i, j in poset.relation
    )


def brute_enumerate(poset: Poset, m: int, mode: str) -> list[tuple[BarredInt, ...]]:
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


def recurrence_count_rows(kind: str):
    """Statistic class sizes for n = 1, 2, ... in turn, by the two-term
    recurrences on n, one entry at a time over the whole row:

    lpk: l(n,k) = (2k+1)   l(n-1,k) + (n+1-2k) l(n-1,k-1)
    pk:  p(n,k) = (2k+2)   p(n-1,k) + (n-2k)   p(n-1,k-1)
    des: A(n,k) = (k+1)    A(n-1,k) + (n-k)    A(n-1,k-1)
    """
    coefficients = {
        "lpk": lambda nn, k: (2 * k + 1, nn + 1 - 2 * k),
        "pk": lambda nn, k: (2 * k + 2, nn - 2 * k),
        "des": lambda nn, k: (k + 1, nn - k),
    }[kind]
    row = [1]
    yield tuple(row)
    for nn in itertools.count(2):
        prev = row + [0, 0]
        row = []
        for k in statistic_range(kind, nn):
            stay, carry = coefficients(nn, k)
            below = prev[k - 1] if k >= 1 else 0
            row.append(stay * prev[k] + carry * below)
        yield tuple(row)


def recurrence_count_table(n: int, kind: str) -> tuple[int, ...]:
    """Row n of recurrence_count_rows."""
    return next(itertools.islice(recurrence_count_rows(kind), n - 1, None))


def op_poset(poset: Poset, m: int, mode: str = "all") -> int:
    """Bounded partitions of an arbitrary poset: the linear-extension sum
    of chain counts."""
    return sum(op_of_perm(p, m, mode) for p in poset.linear_extensions())


def comb_op_chain(n: int, k: int, m: int, mode: str) -> int:
    """op_chain by one math.comb sum per mode, both binomials of every
    term evaluated afresh: for "all" the sum over a of
    4^k C(n + m - a, n) C(n - 2k, a - k), for "nonzero" of
    2 4^k C(n - 1 + m - a, n) C(n - 1 - 2k, a - k), and for "positive"
    the single term C(n - 1 + m - k, n)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k not in statistic_range(mode_statistic(mode), n):
        return 0
    if n == 0:
        return 1  # the empty map
    if mode == "all":
        return 4**k * sum(
            math.comb(n + m - a, n) * math.comb(n - 2 * k, a - k)
            for a in range(k, min(n - k, m) + 1)
        )
    if mode == "nonzero":
        return 2 * 4**k * sum(
            math.comb(n - 1 + m - a, n) * math.comb(n - 1 - 2 * k, a - k)
            for a in range(k, min(n - k, m))
        )
    return math.comb(n - 1 + m - k, n)


def pascal_op_vector(n: int, m: int, mode: str) -> list[int]:
    """op_chain(n, k, m, mode) for every class k, by a Pascal walk over the
    row R[a] = C(top - a, n), top = n + m ("all") or n - 1 + m.

    "positive" is R[k].  The other modes need T_d(a) = sum_j C(d, j)
    R[a + j] at a = k, d = D - 2k (D = n for "all", n - 1 for
    "nonzero"); Pascal's rule T_d(a) = T_(d-1)(a) + T_(d-1)(a + 1) walks d
    up from T_0 = R, so every class comes from the one row.
    """
    length = len(statistic_range(mode_statistic(mode), n))
    if mode == "positive":
        return [math.comb(n - 1 + m - a, n) for a in range(length)]
    top, deg, scale = (n + m, n, 1) if mode == "all" else (n - 1 + m, n - 1, 2)
    row = [math.comb(top - a, n) for a in range(deg + 1)]
    out = [0] * length
    for d in range(deg + 1):
        if (deg - d) % 2 == 0:
            k = (deg - d) // 2
            out[k] = scale * row[k] << 2 * k
        row = [x + y for x, y in zip(row, row[1:])]
    return out


def fraction_distances(spec: ShuffleSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(tv, sep, linf) the slow way: one op_chain call and one Fraction per
    statistic class, tv as half the count-weighted sum of
    |class probability - 1/n!|, sep and linf from the extreme classes."""
    n, total = spec.n, spec.total_outcomes
    counts = recurrence_count_table(n, spec.statistic_kind)
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
) -> IdentityReport:
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
    params = {"n": n, "k": k, "l": l, "mode": mode}
    checked = 0
    for p, total in sorted(lhs.items()):
        checked += 1
        rhs = op_chain(n, statistic(p, kind), target_m, mode)
        if total != rhs:
            mismatch = {"pi": list(p), "lhs": str(total), "rhs": str(rhs)}
            return IdentityReport("decomposition", params, False, checked, mismatch)
    return IdentityReport("decomposition", params, True, checked)


def right_multiplication_tables(perms: list[Perm]):
    """(t, table) for every t in S_n, where ``perms`` lists S_n and
    perms[table[a]] == compose(perms[a], t).

    Consecutive t differ by one adjacent swap s, and compose(s', t s) is
    compose(s', t) with two entries swapped, so each table is the previous
    one read through the swap's table."""
    n = len(perms[0])
    index = {p: a for a, p in enumerate(perms)}
    swap_tables = []
    for a in range(n - 1):
        positions = list(range(n))
        positions[a], positions[a + 1] = a + 1, a
        swap_tables.append([index[tuple(p[q] for q in positions)] for p in perms])
    t = list(range(1, n + 1))
    table = list(range(len(perms)))
    yield tuple(t), table
    for a in _adjacent_swaps(n):
        t[a], t[a + 1] = t[a + 1], t[a]
        table = [swap_tables[a][c] for c in table]
        yield tuple(t), table


def counter_class_products(n: int, kind: str):
    """orderpoly._class_products by one Counter per class pair (i, j):
    for every t of class j, add the products compose(s, t) of every s of
    class i, then read each pi's counts off in lexicographic order and
    number its distinct rows in order of first appearance."""
    perms = list(all_permutations(n))
    stats = [statistic(p, kind) for p in perms]
    values = statistic_range(kind, n)
    members: list[list[int]] = [[] for _ in values]
    for a, stat in enumerate(stats):
        members[stat].append(a)
    counts = {pair: Counter() for pair in itertools.product(values, values)}
    for t, table in right_multiplication_tables(perms):
        j = statistic(t, kind)
        for i in values:
            counts[i, j].update(table[a] for a in members[i])
    row_number: dict[tuple[int, ...], int] = {}
    entries = []
    for a, (p, stat) in enumerate(zip(perms, stats)):
        row = tuple(count[a] for count in counts.values())
        entries.append((p, stat, row_number.setdefault(row, len(row_number))))
    return tuple(row_number), tuple(entries)


def compose_loop_convolution(n: int, k: int, l: int, model: str) -> IdentityReport:
    """models.group_algebra_product_check by the full n!^2 product loop:
    accumulate the two passes' integer weights onto compose(s, t) for
    every pair, then compare each pi, in lexicographic order, with
    models.exact_prob of the single convolved pass."""
    if n > 6:
        raise ValueError("exhaustive convolution check capped at n <= 6")
    a, b = ShuffleSpec(n, k, model), ShuffleSpec(n, l, model)
    c = convolve(a, b)
    assert a.total_outcomes * b.total_outcomes == c.total_outcomes
    kind = a.statistic_kind
    read = inverse if a.riffle else (lambda p: p)
    num_a = {
        p: op_chain(n, statistic(read(p), kind), k, a.mode)
        for p in all_permutations(n)
    }
    num_b = {p: op_chain(n, statistic(read(p), kind), l, a.mode) for p in num_a}
    acc = {p: 0 for p in num_a}
    for s, ns in num_a.items():
        if ns == 0:
            continue
        for t, nt in num_b.items():
            acc[compose(s, t)] += ns * nt
    params = {"n": n, "k": k, "l": l, "model": model}
    for checked, p in enumerate(sorted(acc), start=1):
        lhs = Fraction(acc[p], c.total_outcomes)
        rhs = models.exact_prob(p, c)
        if lhs != rhs:
            mismatch = {"pi": list(p), "lhs": str(lhs), "rhs": str(rhs)}
            return IdentityReport("group-algebra-convolution", params, False, checked, mismatch)
    return IdentityReport("group-algebra-convolution", params, True, len(acc))


class ProductSeries:
    """A truncated series whose terms are cycle-type monomials, with
    truncated multiplication, for building the product form factor by
    factor.

    A monomial z_{i1} z_{i2} ... (a partition, stored largest part first)
    always carries u to the power of the partition's sum, so coefficients
    are keyed by partition alone; ``truncation`` bounds that sum.
    """

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: dict[tuple[int, ...], int]):
        self.truncation = truncation
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def degree_slice(self, d: int) -> dict[tuple[int, ...], int]:
        return {k: v for k, v in self.coeffs.items() if sum(k) == d}

    @classmethod
    def one(cls, truncation: int) -> "ProductSeries":
        return cls(truncation, {(): 1})

    @classmethod
    def geometric_z1(cls, truncation: int) -> "ProductSeries":
        """1/(1 - z_1 u) = sum_j (z_1 u)^j."""
        return cls(truncation, {(1,) * j: 1 for j in range(truncation + 1)})

    @classmethod
    def two_sided_factor(cls, i: int, truncation: int) -> "ProductSeries":
        """(1 + z_i u^i)/(1 - z_i u^i) = 1 + 2 sum_{j>=1} z_i^j u^(ij)."""
        coeffs = {(): 1}
        for j in range(1, truncation // i + 1):
            coeffs[(i,) * j] = 2
        return cls(truncation, coeffs)

    def __mul__(self, other: "ProductSeries") -> "ProductSeries":
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")
        out: dict[tuple[int, ...], int] = {}
        cap = self.truncation
        items = sorted(other.coeffs.items())
        for part_a, ca in self.coeffs.items():
            room = cap - sum(part_a)
            for part_b, cb in items:
                if sum(part_b) > room:
                    continue
                key = tuple(sorted(part_a + part_b, reverse=True))
                out[key] = out.get(key, 0) + ca * cb
        return ProductSeries(cap, out)

    def pow(self, exponent: int) -> "ProductSeries":
        """Repeated truncated multiplication (square and multiply)."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = ProductSeries.one(self.truncation)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def pow_product_cycle_series(n: int, m: int) -> ProductSeries:
    """The lazy pass's cycle series as the literal truncated product
    1/(1 - z_1 u) * prod_i two_sided_factor(i)^f(i, m), each power taken
    by ProductSeries.pow (square and multiply)."""
    series = ProductSeries.geometric_z1(n)
    for i in range(1, n + 1):
        series = series * ProductSeries.two_sided_factor(i, n).pow(f_im(i, m))
    return series


def by_label_enumerate(poset: Poset, m: int, mode: str) -> list[tuple[BarredInt, ...]]:
    """Bounded P-partitions by backtracking over elements 1..n with
    BarredInt values: each element tries every alphabet value in
    increasing order, and a covering pair is checked once both endpoints
    are assigned."""
    values = [BarredInt.from_rank(r) for r in alphabet(m, mode)]
    pending: list[list[tuple[int, int]]] = [[] for _ in range(poset.n + 1)]
    for i, j in poset.covers():
        pending[max(i, j)].append((i, j))
    out: list[tuple[BarredInt, ...]] = []
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


def key_sorting_permutation(f: PPartition) -> Perm:
    """Reference sorting permutation, a sort on one key per card: by value,
    ties upward on plain values and downward on barred (odd-rank) ones."""
    return tuple(
        sorted(
            range(1, len(f) + 1),
            key=lambda i: (f[i - 1], -i if f[i - 1] & 1 else i),
        )
    )


def block_cut_piles(values: tuple[int, ...], A) -> list[list[int]]:
    """Reference riffle cut: pile j is the next A[j] cards of the deck as
    one block, flipped when its value is barred (odd rank)."""
    piles, start = [], 1
    for v, a in zip(values, A):
        block = list(range(start, start + a))
        piles.append(block[::-1] if v & 1 else block)
        start += a
    return piles


def simulate_shelf_by_sort(spec: ShuffleSpec, rng) -> tuple[ShuffleOutcome, Perm]:
    """Reference shelf sampler, the placement map's sorting permutation:
    the same randrange calls as models.simulate_shelf, so the same seed
    gives the same outcome and deck."""
    models._require(spec, riffle=False)
    values = pp.alphabet(spec.m, spec.mode)
    width, randrange = len(values), rng.randrange
    draws = [randrange(width) for _ in range(spec.n)]
    counts = [0] * width
    for d in draws:
        counts[d] += 1
    perm = key_sorting_permutation(tuple(values[d] for d in draws))
    return pp.ShuffleOutcome(tuple(counts), perm), perm


def _riffle_cut(spec: ShuffleSpec, rng) -> list[int]:
    # multinomial cut = n independent uniform pile choices
    piles = spec.choices_per_card
    sizes = [0] * piles
    for _ in range(spec.n):
        sizes[rng.randrange(piles)] += 1
    return sizes


def simulate_riffle_by_scan(spec: ShuffleSpec, rng) -> tuple[ShuffleOutcome, Perm]:
    """Reference riffle sampler, each drop found by a scan over the pile
    sizes: the same randrange calls as models.simulate_riffle."""
    models._require(spec, riffle=True)
    sizes = _riffle_cut(spec, rng)
    piles = block_cut_piles(pp.alphabet(spec.m, spec.mode), sizes)
    bottom_up: list[int] = []
    for total in range(spec.n, 0, -1):  # cards left in the piles
        r = rng.randrange(total)
        for pile in piles:
            if r < len(pile):
                break
            r -= len(pile)
        bottom_up.append(pile.pop())
    deck = tuple(reversed(bottom_up))
    return pp.ShuffleOutcome(tuple(sizes), deck), deck


def simulate_riffle_uniform(spec: ShuffleSpec, rng) -> tuple[ShuffleOutcome, Perm]:
    """Cross-check riffle sampler: the same cut as simulate_riffle_by_scan,
    then a uniformly random interleaving by Fisher-Yates instead of
    proportional drops (the two induce the same law)."""
    if not spec.riffle:
        raise ValueError(f"model {spec.model!r} is not a riffle")
    sizes = _riffle_cut(spec, rng)
    piles = block_cut_piles(alphabet(spec.m, spec.mode), sizes)
    word = [idx for idx, a in enumerate(sizes) for _ in range(a)]
    for i in range(len(word) - 1, 0, -1):
        j = rng.randrange(i + 1)
        word[i], word[j] = word[j], word[i]
    deck = tuple(piles[idx].pop(0) for idx in word)
    return ShuffleOutcome(tuple(sizes), deck), deck


def iter_shelf_placements(spec: ShuffleSpec):
    """All choices^n placement maps of a shelf machine (small n only)."""
    if spec.riffle:
        raise ValueError(f"model {spec.model!r} is not a shelf machine")
    values = alphabet(spec.m, spec.mode)
    if len(values) ** spec.n > ENUMERATION_CAP:
        raise ValueError("placement space exceeds enumeration cap")
    return itertools.product(values, repeat=spec.n)


def parse_two_line(text: str) -> PPartition:
    """Inverse of ppartitions.format_two_line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected two nonempty lines")
    cards = lines[0].split()
    vals = lines[1].split()
    if cards != [str(i) for i in range(1, len(cards) + 1)] or len(vals) != len(cards):
        raise ValueError("malformed two-line array")
    return tuple(parse_value(v) for v in vals)


def bottom_deal_permutation(f: PPartition) -> Perm:
    """Sorting variant for a machine that deals cards to shelf bottoms:
    tie-breaking is reversed on each value class (barred <=> odd rank)."""
    return tuple(
        sorted(
            range(1, len(f) + 1),
            key=lambda i: (f[i - 1], i if f[i - 1] & 1 else -i),
        )
    )


def is_linear_extension(poset: Poset, p: Perm) -> bool:
    """True when i < j in the poset implies i precedes j in p."""
    if len(p) != poset.n:
        raise ValueError(f"size mismatch: {len(p)} vs {poset.n}")
    position = inverse(p)
    return all(position[i - 1] < position[j - 1] for i, j in poset.relation)


def parse_permutation(text: str) -> Perm:
    """Inverse of format_permutation (commas optional for n <= 9)."""
    text = text.strip()
    if "," in text:
        values = [int(part) for part in text.split(",")]
    else:
        values = [int(ch) for ch in text]
    return check_permutation(values)


def parse_exact(text: str) -> Fraction:
    """The Fraction written as "a/b" or "a", read through Decimal, which
    is not held to the int-from-string digit limit that int() is."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def randrange_draws(rng, widths) -> list[int]:
    """models._draws as the plain randrange loop: the draws an rng that
    has only randrange (ScriptedRNG) can make."""
    return [rng.randrange(w) for w in widths]


class ScriptedRNG:
    """randrange stand-in that replays a fixed list of draws, so a sampler
    can be driven through a specific placement sequence (with
    models._draws patched to randrange_draws: the ``scripted_draws``
    fixture).  It records the width of every draw asked for; with ``pad``,
    draws past the end of the script are 0 and join the script."""

    def __init__(self, script, pad=False):
        self.script = list(script)
        self.pad = pad
        self.cursor = 0
        self.widths = []

    def randrange(self, bound: int) -> int:
        self.widths.append(bound)
        if self.pad and self.cursor == len(self.script):
            self.script.append(0)
        value = self.script[self.cursor]
        self.cursor += 1
        if not 0 <= value < bound:
            raise AssertionError(f"scripted draw {value} outside range({bound})")
        return value

    def exhausted(self) -> bool:
        return self.cursor == len(self.script)


def draw_tree_law(sampler, spec: ShuffleSpec, prefix=(), weight=Fraction(1)):
    """The exact law of ``sampler``'s deck when every draw after the fixed
    ``prefix`` is uniform on its width: all continuations are run, in
    odometer order, each weighing ``weight`` over the product of its own
    widths.  Returns ({deck: probability}, set of width sequences seen)."""
    leaves: Counter = Counter()
    widths_seen = set()
    script = list(prefix)
    while True:
        rng = ScriptedRNG(script, pad=True)
        _, deck = sampler(spec, rng)
        script, widths = rng.script[: rng.cursor], rng.widths
        widths_seen.add(tuple(widths))
        leaves[deck, math.prod(widths[len(prefix):])] += 1
        # the next sequence: bump the last free draw that has room left
        i = len(script) - 1
        while i >= len(prefix) and script[i] + 1 == widths[i]:
            i -= 1
        if i < len(prefix):
            break
        script = script[:i] + [script[i] + 1]
    law: Counter = Counter()
    for (deck, width_product), count in leaves.items():
        law[deck] += Fraction(count, width_product) * weight
    return law, widths_seen


def walk_cycle_law(n: int, m: int) -> dict[tuple[int, ...], Fraction]:
    """The chance of each cycle type after one lazy pass, totalled from
    models.exact_prob over all of S_n, one permutation at a time.  Every
    cycle type of S_n is a key, even one of probability 0."""
    spec = ShuffleSpec(n, m, "shelf-lazy")
    law: dict[tuple[int, ...], Fraction] = {}
    for p in all_permutations(n):
        part = cycle_type_partition(p)
        law[part] = law.get(part, 0) + models.exact_prob(p, spec)
    return law


def sum_expected_fixed_points(n: int, m: int) -> Fraction:
    """Mean fixed points after one lazy pass as the term-by-term sum
    1 + 2 sum_{k=1..(n-1)//2} q^(2k) (+ q^n for even n), q = 1/(2m + 1)."""
    q = Fraction(1, 2 * m + 1)
    if n % 2:
        return 1 + 2 * sum((q ** (2 * k) for k in range(1, (n - 1) // 2 + 1)), Fraction(0))
    return 1 + 2 * sum((q ** (2 * k) for k in range(1, n // 2)), Fraction(0)) + q**n


def brute_closure(n: int, pairs) -> set[tuple[int, int]]:
    """Every (i, j) with j reachable from i along the given pairs."""
    above = {i: {j for a, j in pairs if a == i} for i in range(1, n + 1)}
    closure = set()
    for i in range(1, n + 1):
        stack, seen = list(above[i]), set()
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(above[j])
        closure |= {(i, j) for j in seen}
    return closure


def str_format_permutation(p: Perm) -> str:
    """format_permutation before its label table: one str() per entry."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def reference_simulate(args) -> str:
    """The simulate writer before rows were built once: one sampler call
    per deck and a list of row dicts, which each format read back (seeded
    runs only)."""
    spec = ShuffleSpec(args.n, args.m, args.model)
    rng = random.Random(args.seed)
    sampler = models.simulate_riffle if spec.riffle else models.simulate_shelf
    rows = []
    for index in range(args.count):
        _, perm = sampler(spec, rng)
        row = {"index": index, "permutation": str_format_permutation(perm)}
        if args.stats:
            row["des"] = descents(perm)[0]
            row["pk"] = peaks(perm)
            row["lpk"] = row["pk"] + (spec.n >= 2 and perm[0] > perm[1])
        rows.append(row)
    if args.format == "json":
        payload = {"model": spec.model, "n": spec.n, "m": spec.m, "seed": args.seed,
                   "samples": rows}
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        header = ["index", "permutation"] + (["des", "pk", "lpk"] if args.stats else [])
        lines = [",".join(header)]
        lines += [",".join(str(row[h]) for h in header) for row in rows]
        return "\n".join(lines) + "\n"
    lines = []
    for row in rows:
        line = row["permutation"]
        if args.stats:
            line += f"  des={row['des']} pk={row['pk']} lpk={row['lpk']}"
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def reference_tv_table(args) -> str:
    """The tv-table writer before rows were built once: every distance
    kept, then rendered by each format (twice per cell in text)."""
    ms = [int(part) for part in args.m.split(",") if part.strip()]
    model_list = [args.model] if args.model else list(models.SHELF_MODELS)
    labels = {model: models.MODELS[model].label for model in model_list}
    distance = cli._DISTANCES[args.distance]
    cells = {
        (model, m): distance(ShuffleSpec(args.n, m, model)) for model in model_list for m in ms
    }

    def render(value: Fraction) -> str:
        return exact_str(value) if args.exact else cli.format_fixed(value)

    if args.format == "json":
        payload = {
            "n": args.n,
            "distance": args.distance,
            "m": ms,
            "rows": {labels[model]: [render(cells[(model, m)]) for m in ms]
                     for model in model_list},
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        lines = ["model," + ",".join(str(m) for m in ms)]
        for model in model_list:
            lines.append(labels[model] + "," + ",".join(render(cells[(model, m)]) for m in ms))
        return "\n".join(lines) + "\n"
    label_w = max(map(len, labels.values()))
    col_w = max([len(str(m)) for m in ms] + [len(render(v)) for v in cells.values()])
    lines = [" " * label_w + "  " + "  ".join(str(m).rjust(col_w) for m in ms)]
    for model in model_list:
        lines.append(
            labels[model].ljust(label_w)
            + "  "
            + "  ".join(render(cells[(model, m)]).rjust(col_w) for m in ms)
        )
    return "\n".join(lines) + "\n"
