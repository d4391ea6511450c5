"""The barred-integer alphabet, P-partitions, the sorting permutation, and
the correspondences between shuffle outcomes and P-partitions.

Barred integers are ordered 0 < 1- < 1 < 2- < 2 < ... (``k-`` renders the
bar).  A P-partition is a map {1..n} -> barred integers, stored as a tuple
``f`` with ``f[i-1]`` the value at ``i``.  Order preservation along the
poset uses two relations: comparable pairs may share a value only when it
is nonbarred (naturally labeled pair) or only when it is barred
(unnaturally labeled pair).

Shelf-shuffler outcomes encode as P-partitions: card i on shelf k goes on
top of the pile when the value is k-barred, underneath when it is plain k,
and onto the bottom-dealt extra shelf when it is 0.  Riffle outcomes
encode through the pile poset of the cut.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, total_ordering

from .permutations import Perm, check_permutation, inverse
from .posets import Poset

__all__ = [
    "BarredInt",
    "MODES",
    "Mode",
    "PPartition",
    "ShuffleOutcome",
    "WeakComposition",
    "alphabet",
    "alphabet_size",
    "bar",
    "bottom_deal_permutation",
    "cut_piles",
    "enumerate_bounded",
    "format_two_line",
    "is_p_partition",
    "lookup_mode",
    "pile_poset",
    "ppartition_from_shelf_outcome",
    "rel_len",
    "rel_lp",
    "riffle_outcome_to_ppartition",
    "shelf_outcome_from_ppartition",
    "sorting_permutation",
    "variant_mode",
]

# refuse exhaustive enumeration beyond this many candidate functions
ENUMERATION_CAP = 10**7


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

    @classmethod
    def parse(cls, text: str) -> "BarredInt":
        text = text.strip()
        if text.endswith("-"):
            return cls(int(text[:-1]), True)
        return cls(int(text))


def bar(k: int) -> BarredInt:
    """Shorthand for the barred value k-."""
    return BarredInt(k, True)


PPartition = tuple[BarredInt, ...]
WeakComposition = tuple[int, ...]


def rel_lp(a: BarredInt, b: BarredInt) -> bool:
    """a < b, or a = b nonbarred (ties allowed on plain values)."""
    return a.rank < b.rank or (a.rank == b.rank and not a.barred)


def rel_len(a: BarredInt, b: BarredInt) -> bool:
    """a < b, or a = b barred (ties allowed on barred values)."""
    return a.rank < b.rank or (a.rank == b.rank and a.barred)


@dataclass(frozen=True)
class Mode:
    """One value alphabet: the ranks low, low + step, ... up to 2m, the
    statistic that indexes its chain counts, and the riffle variant that
    cuts the deck into one pile per value.

    "all" keeps every value, "nonzero" drops 0, and "positive" keeps only
    the plain values 1..m (a barred value can never satisfy the
    nonzero-image conditions alone, so positive mode forbids bars).
    """

    name: str
    statistic: str
    low: int  # lowest rank
    step: int  # 2 keeps only the plain values
    variant: str

    def ranks(self, m: int) -> range:
        if m < 0:
            raise ValueError("m must be nonnegative")
        return range(self.low, 2 * m + 1, self.step)

    def size(self, m: int) -> int:
        """Values per card at bound m.

        >>> [MODES[name].size(3) for name in MODES]
        [7, 6, 3]
        """
        return len(self.ranks(m))

    def allows(self, rank: int) -> bool:
        return rank >= self.low and (rank - self.low) % self.step == 0

    def bound(self, size: int) -> int:
        """The m whose alphabet has ``size`` values; ValueError if none.

        Two passes with bounds k and l act as one pass over pairs of
        values, so their combined bound is bound(size(k) * size(l)).

        >>> [MODES[name].bound(MODES[name].size(10) ** 2) for name in MODES]
        [220, 200, 100]
        """
        m = (self.low + (size - 1) * self.step) // 2  # the top rank is 2m
        if m < 0 or self.size(m) != size:
            raise ValueError(f"no {self.name!r} alphabet has {size} values")
        return m


MODES = {
    mode.name: mode
    for mode in (
        Mode("all", "lpk", 0, 1, "up-down"),
        Mode("nonzero", "pk", 1, 1, "down-up"),
        Mode("positive", "des", 2, 2, "classic"),
    )
}


def lookup_mode(name: str) -> Mode:
    try:
        return MODES[name]
    except KeyError:
        raise ValueError(f"unknown mode: {name!r}") from None


@lru_cache(maxsize=None)
def alphabet(m: int, mode: str) -> tuple[BarredInt, ...]:
    """The allowed values with magnitude at most m, in increasing order."""
    return tuple(BarredInt.from_rank(r) for r in lookup_mode(mode).ranks(m))


def alphabet_size(m: int, mode: str) -> int:
    """len(alphabet(m, mode)), without building the 2m + 1 values.

    >>> alphabet_size(3, "all"), alphabet_size(3, "nonzero"), alphabet_size(3, "positive")
    (7, 6, 3)
    """
    return lookup_mode(mode).size(m)


def _pair_ok(i: int, j: int, fi: BarredInt, fj: BarredInt) -> bool:
    # the condition for i < j in the poset, split on the natural order of i, j
    return rel_lp(fi, fj) if i < j else rel_len(fi, fj)


def is_p_partition(f: PPartition, poset: Poset, mode: str = "all") -> bool:
    """True when f is order preserving along the poset and its image obeys
    the mode restriction.  Covering pairs suffice by transitivity."""
    if len(f) != poset.n:
        raise ValueError(f"size mismatch: {len(f)} vs {poset.n}")
    allows = lookup_mode(mode).allows
    if not all(allows(v.rank) for v in f):
        return False
    return all(_pair_ok(i, j, f[i - 1], f[j - 1]) for i, j in poset.covers())


def sorting_permutation(f: PPartition) -> Perm:
    """The unique permutation whose chain admits f: sort cards by value,
    breaking ties upward on plain values and downward on barred ones.

    >>> from shuffle_lab.permutations import format_permutation
    >>> f = (bar(1), BarredInt(0), BarredInt(0), bar(2), bar(1),
    ...      BarredInt(1), BarredInt(0), BarredInt(2), BarredInt(2))
    >>> format_permutation(sorting_permutation(f))
    '237516489'
    """
    return tuple(
        sorted(
            range(1, len(f) + 1),
            key=lambda i: (f[i - 1].rank, -i if f[i - 1].barred else i),
        )
    )


def bottom_deal_permutation(f: PPartition) -> Perm:
    """Sorting variant for a machine that deals cards to shelf bottoms:
    tie-breaking is reversed on each value class.

    >>> from shuffle_lab.permutations import format_permutation
    >>> f = (bar(1), BarredInt(0), BarredInt(0), bar(2), bar(1),
    ...      BarredInt(1), BarredInt(0), BarredInt(2), BarredInt(2))
    >>> format_permutation(bottom_deal_permutation(f))
    '732156498'
    """
    return tuple(
        sorted(
            range(1, len(f) + 1),
            key=lambda i: (f[i - 1].rank, i if f[i - 1].barred else -i),
        )
    )


def enumerate_bounded(poset: Poset, m: int, mode: str = "all") -> list[PPartition]:
    """All P-partitions of the poset with every magnitude at most m.

    Backtracks over elements 1..n on integer ranks (barred <=> odd rank).
    Each covering pair bounds its later-labelled endpoint by the value
    already given to the other: a tie is allowed on an even rank when the
    lower element has the smaller label, on an odd rank otherwise.  So
    every element runs, in increasing order, over one interval of the
    alphabet, found by bisecting its ranks.  Refuses instances with more
    than 10^7 candidate functions.
    """
    n = poset.n
    if (2 * m + 1) ** n > ENUMERATION_CAP:
        raise ValueError(f"(2m+1)^n = {(2 * m + 1) ** n} exceeds enumeration cap")
    values = alphabet(m, mode)
    ranks = [v.rank for v in values]
    if n == 0:
        return [()]
    # for each element, the earlier-labelled elements it covers / is covered by
    below: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for i, j in poset.covers():
        if i < j:
            below[j - 1].append(i - 1)
        else:
            above[i - 1].append(j - 1)
    out: list[PPartition] = []
    f = [0] * n  # ranks of the assigned prefix
    top = 2 * m

    def assign(e: int, prefix: PPartition) -> None:
        # f[e] >= f[i] with a tie on even ranks, f[e] <= f[j] with a tie on odd
        lo = 0
        for i in below[e]:
            r = f[i] + (f[i] & 1)
            if r > lo:
                lo = r
        hi = top
        for j in above[e]:
            r = f[j] - 1 + (f[j] & 1)
            if r < hi:
                hi = r
        first, last = bisect_left(ranks, lo), bisect_right(ranks, hi)
        if e + 1 == n:
            out.extend([prefix + (v,) for v in values[first:last]])
            return
        for x in range(first, last):
            f[e] = ranks[x]
            assign(e + 1, prefix + (values[x],))

    assign(0, ())
    return out


# ---------------------------------------------------------------------------
# shuffle outcomes


@dataclass(frozen=True)
class ShuffleOutcome:
    """A (pile composition, deck arrangement) pair.

    The composition counts cards per value of the mode alphabet in
    increasing value order; the permutation reads the shuffled deck top to
    bottom.  Each such pair admits at most one interleaving, so the pair
    pins down the machine's placement sequence exactly.
    """

    composition: WeakComposition
    permutation: Perm


def _composition_alphabet(A: WeakComposition, mode: str) -> tuple[BarredInt, ...]:
    """The alphabet a composition counts cards over: one part per value,
    so its length fixes the bound (ValueError when no bound fits)."""
    return alphabet(lookup_mode(mode).bound(len(A)), mode)


def shelf_outcome_from_ppartition(
    f: PPartition, m: int, mode: str = "all"
) -> ShuffleOutcome:
    """Encode a placement map as (composition, deck order).

    Card i goes to shelf |f(i)|: on top of that shelf's pile when barred,
    underneath when plain, and 0 means the bottom-dealt extra shelf.  The
    deck order is the sorting permutation of f.
    """
    values = alphabet(m, mode)
    index = {v: idx for idx, v in enumerate(values)}
    counts = [0] * len(values)
    for v in f:
        if v.magnitude > m:
            raise ValueError(f"value {v} exceeds shelf count m={m}")
        if v not in index:
            raise ValueError(f"value {v} not allowed in mode {mode!r}")
        counts[index[v]] += 1
    return ShuffleOutcome(tuple(counts), sorting_permutation(f))


def ppartition_from_shelf_outcome(
    outcome: ShuffleOutcome, mode: str = "all"
) -> PPartition:
    """Invert shelf_outcome_from_ppartition.

    The shelf count is read off the composition length; the permutation
    must be tie-consistent with the composition (exactly the arrangements
    the machine can produce), otherwise ValueError.
    """
    values = _composition_alphabet(outcome.composition, mode)
    p = check_permutation(outcome.permutation)
    if sum(outcome.composition) != len(p):
        raise ValueError("composition does not sum to deck size")
    word = [v for v, a in zip(values, outcome.composition) for _ in range(a)]
    f = tuple(word[slot - 1] for slot in inverse(p))  # card i lies in slot inverse(p)[i]
    if sorting_permutation(f) != p:
        raise ValueError("permutation is not consistent with the composition")
    return f


def variant_mode(variant: str) -> str:
    """Mode of the value alphabet used by each riffle variant."""
    for mode in MODES.values():
        if mode.variant == variant:
            return mode.name
    raise ValueError(f"unknown riffle variant: {variant!r}")


def cut_piles(values: tuple[BarredInt, ...], A: WeakComposition) -> list[list[int]]:
    """The piles of a riffle cut, in value order, each listed top to
    bottom: pile j holds the next A[j] cards of the deck, flipped when its
    value is barred."""
    piles, start = [], 1
    for v, a in zip(values, A):
        block = list(range(start, start + a))
        piles.append(block[::-1] if v.barred else block)
        start += a
    return piles


def pile_poset(A: WeakComposition, variant: str) -> Poset:
    """Chains forcing each pile's internal order after the cut; a flipped
    pile's chain runs downward through the labels."""
    piles = cut_piles(_composition_alphabet(A, variant_mode(variant)), A)
    return Poset(sum(A), [pair for pile in piles for pair in zip(pile, pile[1:])])


def riffle_outcome_to_ppartition(
    A: WeakComposition, s: Perm, variant: str
) -> PPartition:
    """The unique placement map behind a riffle outcome.

    ``A`` is the cut (cards per pile, piles in value order) and ``s`` the
    deck arrangement after interleaving.  The image multiset of the result
    is forced by A, and its sorting permutation is inverse(s).  Raises
    ValueError when s does not respect the pile order, i.e. is not a
    linear extension of pile_poset(A, variant).
    """
    mode = variant_mode(variant)
    s = check_permutation(s)
    if sum(A) != len(s) or any(a < 0 for a in A):
        raise ValueError("composition does not sum to deck size")
    word = [v for v, a in zip(_composition_alphabet(A, mode), A) for _ in range(a)]
    f = tuple(word[slot - 1] for slot in s)
    if sorting_permutation(f) != inverse(s):
        raise ValueError("arrangement is not a linear extension of the pile poset")
    return f


# ---------------------------------------------------------------------------
# text format


def format_two_line(f: PPartition) -> str:
    """Two-line array: card indices over values, column aligned.

    >>> print(format_two_line((bar(1), BarredInt(0), BarredInt(2))))
    1  2 3
    1- 0 2
    """
    cards = [str(i) for i in range(1, len(f) + 1)]
    vals = [str(v) for v in f]
    widths = [max(len(c), len(v)) for c, v in zip(cards, vals)]
    top = " ".join(c.ljust(w) for c, w in zip(cards, widths))
    bottom = " ".join(v.ljust(w) for v, w in zip(vals, widths))
    return f"{top.rstrip()}\n{bottom.rstrip()}"
