"""Permutations of {1..n} in one-line notation, and the statistics that
index shuffle distributions.

A permutation is a tuple ``p`` of the integers 1..n; ``p[i-1]`` is the image
of ``i``.  Everything is 1-indexed to match the usual one-line notation.

>>> descents((2, 3, 7, 5, 1, 6, 4, 8, 9))
(3, (3, 4, 6))
>>> peaks((2, 3, 7, 5, 1, 6, 4, 8, 9))
2
>>> left_peaks((2, 3, 7, 5, 1, 6, 4, 8, 9))
2
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

__all__ = [
    "Perm",
    "all_permutations",
    "check_permutation",
    "compose",
    "cycle_type_partition",
    "descents",
    "fixed_points",
    "format_permutation",
    "inverse",
    "left_peaks",
    "peaks",
    "permutation_formatter",
    "statistic",
]

# one-line notation: position i (1-based) holds p[i-1]
Perm = tuple[int, ...]


def check_permutation(p: Iterable[int]) -> Perm:
    """Return ``p`` as a tuple, raising ValueError when it is not a
    permutation of {1..n} or has an entry that is not an int (bools and
    floats included)."""
    t = tuple(p)
    if set(map(type, t)) - {int} or sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def all_permutations(n: int) -> Iterator[Perm]:
    """All n! permutations of {1..n} in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def compose(s: Perm, t: Perm) -> Perm:
    """The product st, acting as (st)(i) = s(t(i)).

    The two-pass identities do not pin this convention down: every
    class-product table is symmetric, N_ij = N_ji (see
    orderpoly.check_class_symmetry), so they hold with the factors in
    either order.

    >>> compose((2, 3, 1), (2, 1, 3))
    (3, 2, 1)
    """
    if len(s) != len(t):
        raise ValueError(f"size mismatch: {len(s)} vs {len(t)}")
    return tuple(s[ti - 1] for ti in t)


def inverse(p: Perm) -> Perm:
    """The permutation q with q(p(i)) = i.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for i, pi in enumerate(p, start=1):
        inv[pi - 1] = i
    return tuple(inv)


def descents(p: Perm) -> tuple[int, tuple[int, ...]]:
    """Number and positions of descents: indices i with p(i) > p(i+1)."""
    pos = tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])
    return len(pos), pos


def peaks(p: Perm) -> int:
    """Number of interior peaks: indices 1 < i < n with p(i-1) < p(i) > p(i+1)."""
    return sum(
        1 for i in range(1, len(p) - 1) if p[i - 1] < p[i] > p[i + 1]
    )


def left_peaks(p: Perm) -> int:
    """Number of left peaks: interior peaks, plus one if p(1) > p(2).

    Equivalently the peaks of 0,p(1),...,p(n).
    """
    extra = 1 if len(p) >= 2 and p[0] > p[1] else 0
    return peaks(p) + extra


def statistic(p: Perm, kind: str) -> int:
    """Dispatch on the statistic name: "lpk", "pk" or "des"."""
    if kind == "lpk":
        return left_peaks(p)
    if kind == "pk":
        return peaks(p)
    if kind == "des":
        return descents(p)[0]
    raise ValueError(f"unknown statistic kind: {kind!r}")


def cycle_type_partition(p: Perm) -> tuple[int, ...]:
    """Cycle lengths as a partition tuple, largest part first.

    >>> cycle_type_partition((2, 1, 3, 5, 4))
    (2, 2, 1)
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def fixed_points(p: Perm) -> int:
    return sum(1 for i, pi in enumerate(p, start=1) if pi == i)


def permutation_formatter(n: int) -> Callable[[Perm], str]:
    """format_permutation for permutations of {1..n}: each entry's digits
    are read off a table of labels built once, not made by one str() per
    entry.  No separator for n <= 9, commas beyond.

    >>> permutation_formatter(10)((10, 1, 2, 3, 4, 5, 6, 7, 8, 9))
    '10,1,2,3,4,5,6,7,8,9'
    """
    labels = [str(v) for v in range(n + 1)]  # labels[v] == str(v)
    join = ("" if n <= 9 else ",").join

    def render(p: Perm) -> str:
        return join([labels[v] for v in p])

    return render


def format_permutation(p: Perm) -> str:
    """Compact digit string for n <= 9, comma-separated beyond; p is a
    permutation of {1..n}.

    >>> format_permutation((2, 3, 7, 5, 1, 6, 4, 8, 9))
    '237516489'
    """
    return permutation_formatter(len(p))(p)
