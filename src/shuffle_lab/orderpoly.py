"""Closed-form counts of bounded chain partitions ("order polynomials"),
the statistic class sizes they are weighted by, and exhaustive
verification of the identities the shuffle analysis rests on: two-pass
decomposition, monotonicity in the statistic, the symmetry of the
class-product tables, the closed forms against enumeration, and the split
of bounded P-partitions over linear extensions.  Every check returns an
IdentityReport, most of them through one comparison loop, compare_cases.

Everything is exact integer arithmetic.  For a chain labeled by a
permutation, the count depends only on (n, statistic, bound m), with the
statistic of the mode (ppartitions.MODES): lpk for "all", pk for
"nonzero", des for "positive".  Over m, class k has the generating
function scale t^shift (1+t)^deg / (1-t)^(n+1), one (scale, shift, deg)
row per mode in ``_NUMERATOR``; op_chain reads its t^m coefficient.

Out-of-range statistic values give 0; statistic_range tells the caller
which k are structurally meaningful, and count_table how many
permutations of {1..n} each class holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter, mul
from typing import Iterable, Iterator

from .permutations import Perm, all_permutations, statistic
from .posets import Poset, all_posets
from .ppartitions import MODES, enumerate_bounded, lookup_mode

__all__ = [
    "IdentityReport",
    "check_class_symmetry",
    "check_closed_forms",
    "check_linear_extension_split",
    "check_monotonicity",
    "compare_cases",
    "convolved_bound",
    "count_table",
    "gf_coefficients",
    "mode_statistic",
    "op_chain",
    "op_of_perm",
    "op_vector",
    "statistic_range",
    "EXHAUSTIVE_CAP",
]

# identity checks iterate over all of S_n (and S_n x S_n); refuse beyond this
EXHAUSTIVE_CAP = 7


def mode_statistic(mode: str) -> str:
    """The statistic indexing chain counts in the given mode."""
    return lookup_mode(mode).statistic


def statistic_range(kind: str, n: int) -> range:
    """Attainable values of a statistic on S_n (n >= 1)."""
    if kind == "lpk":
        return range(n // 2 + 1)
    if kind == "pk":
        return range((n - 1) // 2 + 1 if n >= 1 else 1)
    if kind == "des":
        return range(n if n >= 1 else 1)
    raise ValueError(f"unknown statistic kind: {kind!r}")


@lru_cache(maxsize=None)
def count_table(n: int, kind: str) -> tuple[int, ...]:
    """Statistic class sizes: entry k is the number of permutations of
    {1..n} with statistic value k, via two-term recurrences on n.

    lpk: l(n,k) = (2k+1)   l(n-1,k) + (n+1-2k) l(n-1,k-1)
    pk:  p(n,k) = (2k+2)   p(n-1,k) + (n-2k)   p(n-1,k-1)
    des: A(n,k) = (k+1)    A(n-1,k) + (n-k)    A(n-1,k-1)

    Each row is one pass over the previous row and its shift by one,
    with the coefficients as arithmetic progressions in k.  The Eulerian
    row is a palindrome, A(n,k) = A(n, n-1-k) (reverse a permutation), so
    only its left half is computed and then mirrored.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if kind not in ("lpk", "pk", "des"):
        raise ValueError(f"unknown statistic kind: {kind!r}")
    row = [1]
    for nn in range(2, n + 1):
        here, below = row + [0], [0] + row
        if kind == "lpk":
            stay, carry = range(1, nn + 2, 2), range(nn + 1, -1, -2)
        elif kind == "pk":
            stay, carry = range(2, nn + 2, 2), range(nn, -1, -2)
        else:
            half = (nn + 1) // 2
            stay, carry = range(1, half + 1), range(nn, nn - half, -1)
        row = [s * h + c * b for s, c, h, b in zip(stay, carry, here, below)]
        if kind == "des":
            row += row[nn - half - 1 :: -1]
    return tuple(row)


def op_chain(n: int, k: int, m: int, mode: str) -> int:
    """Bounded partitions of a chain on n points whose labeling has
    statistic k (the mode's, see mode_statistic): the t^m coefficient of

        scale t^shift (1+t)^deg / (1-t)^(n+1),

    (scale, shift, deg) the mode's row of ``_NUMERATOR``.  That is

        scale * sum_{i <= min(deg, x - n)} C(deg, i) C(x - i, n),

    x = n + m - shift, and 0 when x < n.  Each term comes from the one
    before: C(deg, i+1) C(x-i-1, n) is C(deg, i) C(x-i, n) times
    (deg - i)(x - i - n), divided exactly by (i + 1)(x - i).  The empty
    chain has one map, the empty one, in every mode.

    >>> op_chain(2, 0, 1, "all"), op_chain(2, 1, 1, "all"), op_chain(2, 1, 1, "positive")
    (5, 4, 0)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k not in statistic_range(mode_statistic(mode), n):
        return 0
    if n == 0:
        return 1
    scale, shift, deg = _NUMERATOR[mode](n, k)
    x = n + m - shift
    if x < n:
        return 0
    term = total = comb(x, n)
    for i in range(min(deg, x - n)):
        term = term * ((deg - i) * (x - i - n)) // ((i + 1) * (x - i))
        total += term
    return scale * total


# (scale, shift, deg) of the chain-count generating function over m,
# scale t^shift (1+t)^deg / (1-t)^(n+1), for class k of each mode
_NUMERATOR = {
    "all": lambda n, k: (4**k, k, n - 2 * k),
    "nonzero": lambda n, k: (2 * 4**k, k + 1, n - 1 - 2 * k),
    "positive": lambda n, k: (1, k + 1, 0),
}


# P0(k), P1(k), P2(k) of the class-vector recurrence
# P0 op(k) + P1 op(k + 1) + P2 op(k + 2) = 0 (see op_vector)
_RECURRENCE = {
    "all": lambda n, m, k: (
        4 * (k - m) * (k + m + 1),
        4 * m * m + 4 * m + 4 * n + 4 * k * n - 14 * k - 8 * k * k - 6,
        (n - 2 * k - 2) * (n - 2 * k - 3),
    ),
    "nonzero": lambda n, m, k: (
        4 * (k + 1 - m) * (k + 1 + m),
        4 * m * m + 6 * n + 4 * k * n - 22 * k - 8 * k * k - 16,
        (n - 2 * k - 3) * (n - 2 * k - 4),
    ),
    "positive": lambda n, m, k: (m - 1 - k, -(n - 1 + m - k), 0),
}


def op_vector(n: int, m: int, mode: str) -> list[int]:
    """op_chain(n, k, m, mode) for every k in the mode's statistic range
    (n >= 1), stepped down a three-term recurrence in k,

        P0(k) op(k) + P1(k) op(k + 1) + P2(k) op(k + 2) = 0,

    with coefficients quadratic in k, n and m, one row per mode in the
    single table ``_RECURRENCE``.

    "positive" is C(n - 1 + m - k, n), and the ratio of consecutive terms,
    C(N, n) / C(N - 1, n) = N / (N - n) with N = n - 1 + m - k, gives its
    row (m - 1 - k, -(n - 1 + m - k), 0).  Over m, the ``_NUMERATOR`` rows
    give "all" the generating function

        4^k t^k (1+t)^(n-2k) / (1-t)^(n+1)
            = (1+t)^n / (1-t)^(n+1) * (4t / (1+t)^2)^k,

    and "nonzero" 2t (1+t)^(n-1) / (1-t)^(n+1) times the same k-th power:
    every class shares one series up to that factor.  So op(k) is the
    op_chain sum, over a = k + i, of a term hypergeometric in k and a, such
    as 4^k C(n - 2k, a - k) C(n + m - a, n) for "all", and creative
    telescoping (Zeilberger's algorithm; Petkovsek, Wilf and Zeilberger,
    "A = B", 1996) gives a recurrence in k with polynomial coefficients.
    Every row is proved (certificate in tests): tests/test_orderpoly.py
    checks each mode's telescoping certificate as a polynomial identity
    in n, m, k and the summation index, and the points where the summand
    is 0 separately.

    Classes above top = min(m, last class) are 0 in every mode, since
    their closed-form sums are empty (in "nonzero" and "positive" class m
    is 0 too).  op(top) and op(top - 1) come from op_chain, and P0 is
    nonzero at every k <= top - 2 in every mode, so each step down is one
    exact division by P0.  A remainder means the table disagrees with the
    proved recurrence and raises ArithmeticError.

    >>> op_vector(4, 2, "all")
    [41, 28, 16]
    >>> op_vector(4, 2, "nonzero"), op_vector(4, 2, "positive")
    ([16, 8], [5, 1, 0, 0])
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    length = len(statistic_range(mode_statistic(mode), n))
    top = min(m, length - 1)
    out = [0] * length
    out[top] = op_chain(n, top, m, mode)
    if top == 0:
        return out
    out[top - 1] = op_chain(n, top - 1, m, mode)
    coefficients = _RECURRENCE[mode]
    for k in range(top - 2, -1, -1):
        p0, p1, p2 = coefficients(n, m, k)
        out[k], remainder = divmod(-(p1 * out[k + 1] + p2 * out[k + 2]), p0)
        if remainder:
            raise ArithmeticError(
                f"class-vector recurrence is inexact at n={n}, m={m}, k={k} ({mode})"
            )
    return out


def op_of_perm(p: Perm, m: int, mode: str) -> int:
    """Chain count for the chain labeled by p."""
    return op_chain(len(p), statistic(p, mode_statistic(mode)), m, mode)


def gf_coefficients(n: int, k: int, mode: str, terms: int) -> list[int]:
    """Coefficients of t^0..t^(terms-1) in the chain-count generating
    function over m (n >= 1), the column of op_chain over m:

        all:      4^k t^k (1+t)^(n-2k) / (1-t)^(n+1)
        nonzero:  2 4^k t^(k+1) (1+t)^(n-1-2k) / (1-t)^(n+1)
        positive: t^(k+1) / (1-t)^(n+1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    return [op_chain(n, k, j, mode) for j in range(terms)]


def convolved_bound(k: int, l: int, mode: str) -> int:
    """Single-pass bound equivalent to passes with bounds k then l: the
    one whose alphabet has size(k) * size(l) values, 2kl + k + l (all),
    2kl (nonzero) or kl (positive)."""
    alphabet = lookup_mode(mode)
    return alphabet.bound(alphabet.size(k) * alphabet.size(l))


@dataclass(frozen=True)
class IdentityReport:
    """Result of an exhaustive identity check: the identity's name, its
    parameters (in display order), whether it held, how many cases were
    compared (up to and including the first mismatch), and that mismatch
    as a JSON-ready dict."""

    identity: str
    params: dict
    ok: bool
    checked: int
    first_mismatch: dict | None = None

    def to_dict(self) -> dict:
        d = {"identity": self.identity, **self.params, "ok": self.ok, "checked": self.checked}
        if self.first_mismatch is not None:
            d["first_mismatch"] = self.first_mismatch
        return d


def compare_cases(
    identity: str, params: dict, fields: tuple[str, ...], cases: Iterable[tuple]
) -> IdentityReport:
    """The report of an identity checked case by case, each case (lhs, rhs,
    *values of fields): stop at the first case whose sides differ, count
    the cases up to and including it, and report its fields (tuples as
    lists), then lhs and rhs as strings.  check_monotonicity (an order, not
    equality), check_class_symmetry (counts permutations, not pairs) and
    check_linear_extension_split (compares sets, reports "unmatched") keep
    their own loops."""
    checked = 0
    for checked, case in enumerate(cases, start=1):
        if case[0] != case[1]:
            values = (list(v) if isinstance(v, tuple) else v for v in case[2:])
            mismatch = {**dict(zip(fields, values)), "lhs": str(case[0]), "rhs": str(case[1])}
            return IdentityReport(identity, params, False, checked, mismatch)
    return IdentityReport(identity, params, True, checked)


def _adjacent_swaps(n: int) -> Iterator[int]:
    """Positions a (0-based) such that swapping entries a, a + 1 in turn,
    starting from the identity, visits every permutation of S_n exactly
    once (Steinhaus-Johnson-Trotter plain changes): n! - 1 swaps.

    >>> list(_adjacent_swaps(3))
    [1, 0, 1, 0, 1]
    """
    if n < 2:
        return
    left, right = range(n - 2, -1, -1), range(n - 1)  # n sweeps across the rest
    sweep = left
    for a in _adjacent_swaps(n - 1):  # the rest take one step between sweeps
        yield from sweep
        yield a + (sweep is left)  # shifted while n is at the left end
        sweep = right if sweep is left else left
    yield from sweep


def _swap_tables(perms: list[Perm]) -> list[list[int]]:
    """One index table per adjacent swap s_a (a = 0..n-2), where ``perms``
    lists S_n: perms[table[b]] is compose(perms[b], s_a), that is perms[b]
    with entries a, a + 1 swapped.  itemgetter(*table) is the swap's
    gather.

    >>> _swap_tables(list(all_permutations(3)))
    [[2, 4, 0, 5, 1, 3], [1, 0, 3, 2, 5, 4]]
    """
    n = len(perms[0])
    index = {p: c for c, p in enumerate(perms)}
    tables = []
    for a in range(n - 1):
        positions = list(range(n))
        positions[a], positions[a + 1] = a + 1, a
        tables.append(list(map(index.__getitem__, map(itemgetter(*positions), perms))))
    return tables


def _statistic_rows(perms: list[Perm], stats: list[int]) -> Iterator[tuple[int, bytes]]:
    """(c, row) for every u in S_n, where ``perms`` lists S_n, ``stats``
    holds the statistic of each, perms[c] is the inverse of u, and
    row[b] is the statistic of compose(perms[b], u).

    u runs over the inverses of the Steinhaus-Johnson-Trotter walk v
    (_adjacent_swaps): v -> v s_a is u -> s_a u, and compose(p, s_a u) is
    compose(compose(p, s_a), u), so each row is the one before read
    through the swap's gather, and the index of v moves through the same
    swap table.  One n!-entry gather per row; no permutation is built or
    hashed.
    """
    tables = _swap_tables(perms)
    gathers = [itemgetter(*table) for table in tables]
    c, row = 0, bytes(stats)
    yield c, row
    for a in _adjacent_swaps(len(perms[0])):
        c, row = tables[a][c], bytes(gathers[a](row))
        yield c, row


@lru_cache(maxsize=None)  # at most 3 * EXHAUSTIVE_CAP tables
def _class_products(
    n: int, kind: str
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[Perm, int, int], ...]]:
    """Structure constants of the statistic-class sums in the group algebra
    of S_n (n >= 1): N_ij(pi) = #{(sigma, tau) : sigma tau = pi,
    stat sigma = i, stat tau = j}, counted over all n!^2 products.

    Returns the distinct rows N(pi) (entries over the pairs (i, j) of
    statistic_range(kind, n) in itertools.product order, rows in order of
    first appearance), and (pi, stat pi, row number) for every pi in
    lexicographic order.

    pi = compose(compose(pi, u), v) for v the inverse of u, so with tau = v
    and sigma = compose(pi, u), N_ij(pi) counts the u with stat v = j whose
    row (_statistic_rows) holds i at pi.  The n! rows of n! bytes fill one
    n! x n! bytearray, the rows of each class j of v in one block of
    consecutive rows; pi's column is a strided slice, and N_ij(pi) is one
    C-level count of i in block j.  At n = 7 the buffer is 25 MB and one
    table takes 1.2-1.6 s on a 2-core machine (0.02-0.05 s at n = 6).
    """
    perms = list(all_permutations(n))
    stats = [statistic(p, kind) for p in perms]
    size = len(perms)
    values = statistic_range(kind, n)  # every value is attained for n >= 1
    bounds = list(itertools.accumulate((stats.count(j) for j in values), initial=0))
    cursor = [size * lo for lo in bounds]  # next free byte of each block
    matrix = bytearray(size * size)
    for c, row in _statistic_rows(perms, stats):
        j = stats[c]
        matrix[cursor[j]:cursor[j] + size] = row
        cursor[j] += size
    blocks = [(i, bounds[j], bounds[j + 1]) for i, j in itertools.product(values, values)]
    row_number: dict[tuple[int, ...], int] = {}
    entries = []
    for b, (p, stat) in enumerate(zip(perms, stats)):
        column = matrix[b::size]
        row = tuple(column.count(i, lo, hi) for i, lo, hi in blocks)
        entries.append((p, stat, row_number.setdefault(row, len(row_number))))
    return tuple(row_number), tuple(entries)


def _factorization_sums(
    n: int, k: int, l: int, mode: str
) -> tuple[list[int], tuple[tuple[Perm, int, int], ...]]:
    """(sums, entries): entries holds (pi, stat pi, row) for every pi in
    S_n, in lexicographic order, and sums[row] is the sum over
    factorizations sigma tau = pi of op_sigma(k) op_tau(l).

    A factorization's term depends only on the statistic classes of sigma
    and tau, so the sum is sum_ij op_k(i) op_l(j) N_ij(pi), read off the
    class-product table of S_n (built once per n and statistic).
    """
    rows, entries = _class_products(n, mode_statistic(mode))
    weights = [a * b for a, b in itertools.product(op_vector(n, k, mode), op_vector(n, l, mode))]
    return [sum(map(mul, weights, row)) for row in rows], entries


def verify_decomposition(
    n: int, k: int, l: int, mode: str = "all", perturbation: int = 0
) -> IdentityReport:
    """Check, for every pi in S_n, that summing op(k)-times-op(l) over all
    factorizations sigma*tau = pi reproduces the single convolved bound:

        sum_{sigma tau = pi} op_sigma(k) op_tau(l) = op_pi(convolved_bound)

    ``perturbation`` is a negative-control knob: it offsets the convolved
    bound so the check must fail (used by the CLI self test).
    """
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive check capped at n <= {EXHAUSTIVE_CAP}")
    if k < 0 or l < 0:
        raise ValueError("bounds must be nonnegative")
    sums, entries = _factorization_sums(n, k, l, mode)
    single = op_vector(n, convolved_bound(k, l, mode) + perturbation, mode)
    cases = ((sums[row], single[stat], p) for p, stat, row in entries)
    return compare_cases("decomposition", {"n": n, "k": k, "l": l, "mode": mode}, ("pi",), cases)


def check_monotonicity(n: int, m: int, mode: str = "all") -> IdentityReport:
    """Chain counts weakly decrease as the statistic grows: op(k) >=
    op(k + 1) over the whole class vector, the last class against 0."""
    params = {"n": n, "m": m, "mode": mode}
    values = op_vector(n, m, mode) + [0]
    for k in range(len(values) - 1):
        if values[k] < values[k + 1]:
            mismatch = {"k": k, "lhs": str(values[k]), "rhs": str(values[k + 1])}
            return IdentityReport("monotonicity", params, False, k + 1, mismatch)
    return IdentityReport("monotonicity", params, True, len(values) - 1)


def check_class_symmetry(n: int, mode: str = "all") -> IdentityReport:
    """N_ij(pi) = N_ji(pi) for every pi in S_n and every pair of classes
    of the mode's statistic.  So each two-pass sum is the same with the
    passes in either order, and no identity here can tell compose(s, t)
    from compose(t, s)."""
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive check capped at n <= {EXHAUSTIVE_CAP}")
    params = {"n": n, "mode": mode}
    rows, entries = _class_products(n, mode_statistic(mode))
    pairs = list(itertools.product(statistic_range(mode_statistic(mode), n), repeat=2))
    for checked, (p, _, row) in enumerate(entries, start=1):
        n_ij = dict(zip(pairs, rows[row]))
        for i, j in pairs:
            if n_ij[i, j] != n_ij[j, i]:
                mismatch = {
                    "pi": list(p), "i": i, "j": j, "lhs": str(n_ij[i, j]), "rhs": str(n_ij[j, i])
                }
                return IdentityReport("symmetry", params, False, checked, mismatch)
    return IdentityReport("symmetry", params, True, len(entries))


def check_closed_forms(n: int, m_max: int) -> IdentityReport:
    """op_of_perm(pi, m, mode) equals the number of bounded P-partitions
    of the chain pi(1) < ... < pi(n), enumerated, for every pi in S_n,
    every mode and every m <= m_max.  Each chain is built once."""
    cases = (
        (op_of_perm(p, m, mode), len(enumerate_bounded(chain, m, mode)), p, mode, m)
        for p in all_permutations(n) for chain in [Poset.chain(p)]
        for mode in MODES for m in range(m_max + 1)
    )
    return compare_cases("closed-forms", {"n": n, "m_max": m_max}, ("pi", "mode", "m"), cases)


def check_linear_extension_split(n: int, m_max: int) -> IdentityReport:
    """The bounded P-partitions of every poset on n points are the disjoint
    union, over its linear extensions p, of those of the chains p, in every
    mode and for every m <= m_max.  Posets are the outer loop, so each
    poset's extensions are listed once; a chain's piece is enumerated once
    per (p, m, mode) across all posets.  "unmatched" in a mismatch counts
    the maps in only one of the poset's set (lhs) and the pieces (rhs)."""
    params = {"n": n, "m_max": m_max}
    pieces: dict[tuple[Perm, int, str], frozenset] = {}
    checked = 0
    for poset in all_posets(n):
        extensions = poset.linear_extensions()
        for mode in MODES:
            for m in range(m_max + 1):
                whole = set(enumerate_bounded(poset, m, mode))
                union: set = set()
                total = 0
                for p in extensions:
                    part = pieces.get((p, m, mode))
                    if part is None:
                        part = frozenset(enumerate_bounded(Poset.chain(p), m, mode))
                        pieces[p, m, mode] = part
                    union |= part
                    total += len(part)
                checked += 1
                if union != whole or total != len(whole):
                    mismatch = {"relations": [list(pair) for pair in sorted(poset.relation)],
                                "mode": mode, "m": m, "lhs": str(len(whole)), "rhs": str(total),
                                "unmatched": len(whole ^ union)}
                    return IdentityReport(
                        "linear-extension-split", params, False, checked, mismatch
                    )
    return IdentityReport("linear-extension-split", params, True, checked)
