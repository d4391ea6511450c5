"""Strict partial orders on {1..n}, their linear extensions, and small-n
exhaustive generation.

The relation is stored transitively closed, so comparability queries are
set lookups; covering pairs are derived on demand.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .permutations import Perm, check_permutation

__all__ = ["Poset", "all_posets"]


def _transitive_closure(n: int, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Warshall's algorithm: for each k in turn, everything below k goes
    below everything above k."""
    above: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in pairs:
        above[i].add(j)
    for k in above:
        for i in above:
            if k in above[i]:
                above[i] |= above[k]
    return {(i, j) for i in above for j in above[i]}


class Poset:
    """A strict partial order on {1..n}.

    ``relations`` may be any generating set of pairs (i, j) meaning i < j;
    the constructor closes it transitively and rejects cycles.
    """

    __slots__ = ("n", "relation", "_covers")

    def __init__(self, n: int, relations: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("n must be nonnegative")
        pairs = set()
        for i, j in relations:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation ({i},{j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"reflexive relation ({i},{j})")
            pairs.add((i, j))
        closure = _transitive_closure(n, pairs)
        for i, j in closure:
            if (j, i) in closure or i == j:
                raise ValueError("relations contain a cycle")
        self.n = n
        self.relation = frozenset(closure)
        self._covers: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def chain(cls, p: Perm) -> "Poset":
        """The chain p(1) < p(2) < ... < p(n)."""
        p = check_permutation(p)
        return cls(len(p), zip(p, p[1:]))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j): i < j with no element strictly between."""
        if self._covers is None:
            rel = self.relation
            self._covers = tuple(
                (i, j)
                for (i, j) in sorted(rel)
                if not any((i, k) in rel and (k, j) in rel for k in range(1, self.n + 1))
            )
        return self._covers

    def linear_extensions(self) -> list[Perm]:
        """All linear extensions, as permutations read off top-to-bottom, in
        lexicographic order: each position takes, in increasing order, every
        unplaced element whose predecessors are all placed."""
        n = self.n
        below: list[set[int]] = [set() for _ in range(n + 1)]
        for i, j in self.relation:
            below[j].add(i)
        out: list[Perm] = []

        def extend(prefix: Perm, placed: set[int]) -> None:
            if len(prefix) == n:
                out.append(prefix)
            for e in range(1, n + 1):
                if e not in placed and below[e] <= placed:
                    extend(prefix + (e,), placed | {e})

        extend((), set())
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.relation == other.relation
        )

    def __hash__(self) -> int:
        return hash((self.n, self.relation))

    def __repr__(self) -> str:
        return f"Poset({self.n}, {sorted(self.relation)})"


def all_posets(n: int) -> Iterator[Poset]:
    """Every strict partial order on {1..n}, by brute force over orientations.

    Each unordered pair is incomparable, i<j, or j<i; a choice is kept when
    the resulting relation is already transitively closed.  Counts for
    n = 1..5 are 1, 3, 19, 219, 4231, so this is for small-n testing only.
    """
    if n > 5:
        raise ValueError("all_posets is exhaustive; capped at n <= 5")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rel.add((i, j))
            elif c == 2:
                rel.add((j, i))
        if all(
            (a, d) in rel
            for (a, b) in rel
            for (c, d) in rel
            if b == c
        ):
            yield Poset(n, rel)
