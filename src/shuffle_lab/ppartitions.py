"""The barred-integer alphabet, P-partitions, the sorting permutation, and
the correspondences between shuffle outcomes and P-partitions.

Barred integers are ordered 0 < 1- < 1 < 2- < 2 < ... (``k-`` renders the
bar), and each is stored as its rank in that order: k has rank 2k and k-
rank 2k - 1, so a value is barred exactly when its rank is odd.  A
P-partition is a map {1..n} -> barred integers, stored as a tuple ``f`` of
ranks with ``f[i-1]`` the value at ``i``.  Order preservation along the
poset allows comparable pairs to share a value only when it is nonbarred
(naturally labeled pair) or only when it is barred (unnaturally labeled
pair).

Shelf-shuffler outcomes encode as P-partitions: card i on shelf k goes on
top of the pile when the value is k-barred, underneath when it is plain k,
and onto the bottom-dealt extra shelf when it is 0.  Riffle outcomes
encode through the pile poset of the cut.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count

from .permutations import Perm, check_permutation, inverse
from .posets import Poset

__all__ = [
    "MODES",
    "Mode",
    "PPartition",
    "ShuffleOutcome",
    "WeakComposition",
    "alphabet",
    "alphabet_size",
    "cut_piles",
    "deal",
    "enumerate_bounded",
    "format_two_line",
    "format_value",
    "is_p_partition",
    "lookup_mode",
    "parse_value",
    "pile_poset",
    "ppartition_from_shelf_outcome",
    "riffle_outcome_to_ppartition",
    "shelf_outcome_from_ppartition",
    "sorting_permutation",
]

# refuse exhaustive enumeration beyond this many candidate functions
ENUMERATION_CAP = 10**7

PPartition = tuple[int, ...]  # the rank of each card's value
WeakComposition = tuple[int, ...]


def format_value(rank: int) -> str:
    """The text of the value with this rank: ``k-`` when barred, ``k`` when
    plain.

    >>> [format_value(rank) for rank in range(6)]
    ['0', '1-', '1', '2-', '2', '3-']
    """
    return f"{(rank + 1) // 2}-" if rank & 1 else str(rank // 2)


def parse_value(text: str) -> int:
    """The rank of a value written as ``k`` or ``k-``; ValueError for a
    negative magnitude or ``0-``."""
    text = text.strip()
    barred = text.endswith("-")
    magnitude = int(text[:-1] if barred else text)
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    if barred and magnitude == 0:
        raise ValueError("0 has no barred version")
    return 2 * magnitude - barred


@dataclass(frozen=True)
class Mode:
    """One value alphabet: the ranks low, low + step, ... up to 2m, and the
    statistic that indexes its chain counts.

    "all" keeps every value, "nonzero" drops 0, and "positive" keeps only
    the plain values 1..m (a barred value can never satisfy the
    nonzero-image conditions alone, so positive mode forbids bars).
    """

    name: str
    statistic: str
    low: int  # lowest rank
    step: int  # 2 keeps only the plain values

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
        Mode("all", "lpk", 0, 1),
        Mode("nonzero", "pk", 1, 1),
        Mode("positive", "des", 2, 2),
    )
}


def lookup_mode(name: str) -> Mode:
    try:
        return MODES[name]
    except KeyError:
        raise ValueError(f"unknown mode: {name!r}") from None


@lru_cache(maxsize=None)
def alphabet(m: int, mode: str) -> tuple[int, ...]:
    """The ranks of the allowed values with magnitude at most m, in
    increasing order."""
    return tuple(lookup_mode(mode).ranks(m))


def alphabet_size(m: int, mode: str) -> int:
    """len(alphabet(m, mode)), without building the 2m + 1 values.

    >>> alphabet_size(3, "all"), alphabet_size(3, "nonzero"), alphabet_size(3, "positive")
    (7, 6, 3)
    """
    return lookup_mode(mode).size(m)


def is_p_partition(f: PPartition, poset: Poset, mode: str = "all") -> bool:
    """True when f is order preserving along the poset and its image obeys
    the mode restriction.  Covering pairs suffice by transitivity.

    For i below j, f(i) <= f(j), and a tie is allowed on a plain value
    (even rank) when i < j, on a barred value (odd rank) when i > j.
    """
    if len(f) != poset.n:
        raise ValueError(f"size mismatch: {len(f)} vs {poset.n}")
    if not all(map(lookup_mode(mode).allows, f)):
        return False
    return all(
        f[i - 1] + ((f[i - 1] & 1) == (i < j)) <= f[j - 1] for i, j in poset.covers()
    )


def deal(values: tuple[int, ...], owner) -> list[list[int]]:
    """Deal card i onto pile owner[i-1], one pile per value, and return the
    piles in value order, each top to bottom, barred (odd-rank) ones
    reversed: chained, the sorting permutation of i -> values[owner[i-1]].

    >>> deal((0, 1, 2), [1, 0, 1, 2, 0])
    [[2, 5], [3, 1], [4]]
    """
    piles = [[] for _ in values]
    for card, j in enumerate(owner, 1):
        piles[j].append(card)
    for j in compress(range(len(piles)), piles):  # the nonempty piles
        if values[j] & 1:
            piles[j].reverse()
    return piles


def sorting_permutation(f: PPartition) -> Perm:
    """The unique permutation whose chain admits f: the deal of f over the
    values it takes (ties upward on plain values, downward on barred ones).

    >>> from shuffle_lab.permutations import format_permutation
    >>> f = (1, 0, 0, 3, 1, 2, 0, 4, 4)  # 1- 0 0 2- 1- 1 0 2 2
    >>> format_permutation(sorting_permutation(f))
    '237516489'
    """
    values = sorted(set(f))
    pile = dict(zip(values, count()))
    return tuple(chain.from_iterable(deal(values, map(pile.__getitem__, f))))


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
    ranks = alphabet(m, mode)
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
    top = 2 * m

    def assign(e: int, prefix: PPartition) -> None:
        # f(e) >= f(i) with a tie on even ranks, f(e) <= f(j) with a tie on odd
        lo = 0
        for i in below[e]:
            r = prefix[i] + (prefix[i] & 1)
            if r > lo:
                lo = r
        hi = top
        for j in above[e]:
            r = prefix[j] - 1 + (prefix[j] & 1)
            if r < hi:
                hi = r
        choices = ranks[bisect_left(ranks, lo) : bisect_right(ranks, hi)]
        if e + 1 == n:
            out.extend([prefix + (r,) for r in choices])
            return
        for r in choices:
            assign(e + 1, prefix + (r,))

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


def _composition_alphabet(A: WeakComposition, mode: str) -> tuple[int, ...]:
    """The alphabet a composition counts cards over: one part per value,
    so its length fixes the bound (ValueError when no bound fits)."""
    return alphabet(lookup_mode(mode).bound(len(A)), mode)


def _map_of_arrangement(A: WeakComposition, s: Perm, mode: str) -> PPartition:
    """The map giving card i the value A counts at deck slot s(i);
    ValueError unless its sorting permutation is inverse(s)."""
    values = _composition_alphabet(A, mode)
    s = check_permutation(s)
    word = [v for v, pile in zip(values, cut_piles(values, A)) for _ in pile]
    if len(word) != len(s):
        raise ValueError("composition does not sum to deck size")
    f = tuple(word[slot - 1] for slot in s)
    if sorting_permutation(f) != inverse(s):
        raise ValueError("arrangement is not consistent with the composition")
    return f


def shelf_outcome_from_ppartition(
    f: PPartition, m: int, mode: str = "all"
) -> ShuffleOutcome:
    """Encode a placement map as (composition, deck order).

    Card i goes to shelf |f(i)|: on top of that shelf's pile when barred,
    underneath when plain, and 0 means the bottom-dealt extra shelf.  The
    deck order is the sorting permutation of f.
    """
    values = alphabet(m, mode)
    counts = Counter(f)
    stray = counts.keys() - set(values)
    if stray:
        raise ValueError(f"ranks {sorted(stray)} not in the {mode!r} alphabet at m={m}")
    return ShuffleOutcome(tuple(counts[v] for v in values), sorting_permutation(f))


def ppartition_from_shelf_outcome(
    outcome: ShuffleOutcome, mode: str = "all"
) -> PPartition:
    """Invert shelf_outcome_from_ppartition.

    The shelf count is read off the composition length; the permutation
    must be tie-consistent with the composition (exactly the arrangements
    the machine can produce), otherwise ValueError.
    """
    p = check_permutation(outcome.permutation)
    return _map_of_arrangement(outcome.composition, inverse(p), mode)


def cut_piles(values: tuple[int, ...], A: WeakComposition) -> list[list[int]]:
    """The piles of a riffle cut, in value order, each listed top to
    bottom: pile j, the next A[j] cards of the deck, dealt.  ValueError
    unless A has one nonnegative part per value."""
    if len(A) != len(values):
        raise ValueError(f"composition has {len(A)} parts for {len(values)} values")
    if any(a < 0 for a in A):
        raise ValueError("composition has a negative part")
    return deal(values, [j for j, a in enumerate(A) for _ in range(a)])


def pile_poset(A: WeakComposition, mode: str) -> Poset:
    """Chains forcing each pile's internal order after a cut over the
    mode's alphabet; a flipped pile's chain runs downward through the
    labels."""
    piles = cut_piles(_composition_alphabet(A, mode), A)
    return Poset(sum(A), [pair for pile in piles for pair in zip(pile, pile[1:])])


def riffle_outcome_to_ppartition(A: WeakComposition, s: Perm, mode: str) -> PPartition:
    """The unique placement map behind a riffle outcome.

    ``A`` is the cut (cards per pile, piles in value order) and ``s`` the
    deck arrangement after interleaving.  The image multiset of the result
    is forced by A, and its sorting permutation is inverse(s).  Raises
    ValueError when s does not respect the pile order, i.e. is not a
    linear extension of pile_poset(A, mode).
    """
    return _map_of_arrangement(A, s, mode)


# ---------------------------------------------------------------------------
# text format


def format_two_line(f: PPartition) -> str:
    """Two-line array: card indices over values, column aligned.

    >>> print(format_two_line((1, 0, 4)))
    1  2 3
    1- 0 2
    """
    cards = [str(i) for i in range(1, len(f) + 1)]
    vals = [format_value(v) for v in f]
    widths = [max(len(c), len(v)) for c, v in zip(cards, vals)]
    top = " ".join(c.ljust(w) for c, w in zip(cards, widths))
    bottom = " ".join(v.ljust(w) for v, w in zip(vals, widths))
    return f"{top.rstrip()}\n{bottom.rstrip()}"
