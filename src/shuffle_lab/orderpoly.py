"""Closed-form counts of bounded chain partitions ("order polynomials"),
and exhaustive verification of the identities the shuffle analysis rests
on: two-pass decomposition, monotonicity in the statistic, and the
linear-extension sum for general posets.

Everything is exact integer arithmetic.  For a chain labeled by a
permutation, the count depends only on (n, statistic, bound m):

    mode "all"      -> statistic lpk, op_lazy
    mode "nonzero"  -> statistic pk,  op_star
    mode "positive" -> statistic des, op_plus

Out-of-range statistic values give 0; statistic_range tells the caller
which k are structurally meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable

from .permutations import Perm, all_permutations, compose, statistic
from .posets import Poset

__all__ = [
    "DecompositionReport",
    "MonotonicityReport",
    "check_monotonicity",
    "composition_convention_check",
    "convolved_bound",
    "gf_coefficients",
    "mode_statistic",
    "op_chain",
    "op_lazy",
    "op_of_perm",
    "op_plus",
    "op_poset",
    "op_star",
    "op_vector",
    "statistic_range",
    "EXHAUSTIVE_CAP",
]

# identity checks iterate over all of S_n (and S_n x S_n); refuse beyond this
EXHAUSTIVE_CAP = 7

_MODE_STAT = {"all": "lpk", "nonzero": "pk", "positive": "des"}


def mode_statistic(mode: str) -> str:
    """The statistic indexing chain counts in the given mode."""
    try:
        return _MODE_STAT[mode]
    except KeyError:
        raise ValueError(f"unknown mode: {mode!r}") from None


def statistic_range(kind: str, n: int) -> range:
    """Attainable values of a statistic on S_n (n >= 1)."""
    if kind == "lpk":
        return range(n // 2 + 1)
    if kind == "pk":
        return range((n - 1) // 2 + 1 if n >= 1 else 1)
    if kind == "des":
        return range(n if n >= 1 else 1)
    raise ValueError(f"unknown statistic kind: {kind!r}")


def op_lazy(n: int, k: int, m: int) -> int:
    """Bounded chain partitions over the full alphabet, k = lpk.

    >>> op_lazy(2, 0, 1), op_lazy(2, 1, 1)
    (5, 4)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k not in statistic_range("lpk", n):
        return 0
    return 4**k * sum(
        comb(n + m - a, n) * comb(n - 2 * k, a - k) for a in range(k, n - k + 1)
    )


def op_star(n: int, k: int, m: int) -> int:
    """Bounded chain partitions avoiding 0, k = pk."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k not in statistic_range("pk", n):
        return 0
    return 2 * 4**k * sum(
        comb(n - 1 + m - a, n) * comb(n - 1 - 2 * k, a - k) for a in range(k, n - k)
    )


def op_plus(n: int, k: int, m: int) -> int:
    """Bounded chain partitions over plain positive values, k = des.

    >>> op_plus(2, 1, 1)
    0
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k not in statistic_range("des", n):
        return 0
    return comb(n - 1 + m - k, n)


def op_chain(n: int, k: int, m: int, mode: str) -> int:
    """Dispatch to op_lazy/op_star/op_plus by mode."""
    if mode == "all":
        return op_lazy(n, k, m)
    if mode == "nonzero":
        return op_star(n, k, m)
    if mode == "positive":
        return op_plus(n, k, m)
    raise ValueError(f"unknown mode: {mode!r}")


def _comb_row(top: int, n: int, length: int) -> list[int]:
    """[C(top, n), C(top - 1, n), ...], length entries, stepped by
    C(N - 1, n) = C(N, n) (N - n) / N (exact; callers keep N >= 1)."""
    row = [comb(top, n)]
    for a in range(length - 1):
        row.append(row[-1] * (top - a - n) // (top - a))
    return row


def op_vector(n: int, m: int, mode: str) -> list[int]:
    """op_chain(n, k, m, mode) for every k in the mode's statistic range,
    built in one pass (n >= 1).

    The closed forms share the row R[a] = C(top - a, n), with top = n + m
    for "all" and n - 1 + m otherwise.  "positive" is R[k].  The other
    modes need T_d(a) = sum_j C(d, j) R[a + j] at a = k, d = D - 2k
    (D = n for "all", n - 1 for "nonzero"); Pascal's rule
    T_d(a) = T_(d-1)(a) + T_(d-1)(a + 1) walks d up from T_0 = R, so every
    class comes from the one row without a binomial per class.

    >>> op_vector(4, 2, "all")
    [41, 28, 16]
    >>> op_vector(4, 2, "nonzero"), op_vector(4, 2, "positive")
    ([16, 8], [5, 1, 0, 0])
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    kind = mode_statistic(mode)
    if mode == "positive":
        return _comb_row(n - 1 + m, n, len(statistic_range(kind, n)))
    top, deg, scale = (n + m, n, 1) if mode == "all" else (n - 1 + m, n - 1, 2)
    row = _comb_row(top, n, deg + 1)
    out = [0] * (deg // 2 + 1)
    for d in range(deg + 1):
        if (deg - d) % 2 == 0:
            k = (deg - d) // 2
            out[k] = scale * row[k] << 2 * k
        row = [x + y for x, y in zip(row, row[1:])]
    return out


def op_of_perm(p: Perm, m: int, mode: str) -> int:
    """Chain count for the chain labeled by p."""
    return op_chain(len(p), statistic(p, mode_statistic(mode)), m, mode)


def op_poset(poset: Poset, m: int, mode: str = "all") -> int:
    """Bounded partitions of an arbitrary poset: the linear-extension sum."""
    return sum(op_of_perm(p, m, mode) for p in poset.linear_extensions())


def gf_coefficients(n: int, k: int, mode: str, terms: int) -> list[int]:
    """Coefficients of t^0..t^(terms-1) in the chain-count generating
    function over m, computed by truncated polynomial arithmetic (an
    independent route to op_chain(n, k, m)):

        all:      (4t)^k (1+t)^(n-2k)   / (1-t)^(n+1)
        nonzero:  (4t)^(k+1) (1+t)^(n-1-2k) / (2 (1-t)^(n+1))
        positive: t^(k+1)               / (1-t)^(n+1)
    """
    if k not in statistic_range(mode_statistic(mode), n):
        return [0] * terms
    numer = [0] * terms
    if mode == "all":
        shift, scale, binom_deg, half = k, 4**k, n - 2 * k, False
    elif mode == "nonzero":
        shift, scale, binom_deg, half = k + 1, 4 ** (k + 1), n - 1 - 2 * k, True
    else:
        shift, scale, binom_deg, half = k + 1, 1, 0, False
    for a in range(binom_deg + 1):
        if shift + a < terms:
            numer[shift + a] = scale * comb(binom_deg, a)
    out = []
    for j in range(terms):
        c = sum(numer[a] * comb(n + j - a, n) for a in range(j + 1))
        if half:
            if c % 2:
                raise ArithmeticError("nonzero-mode coefficient is not even")
            c //= 2
        out.append(c)
    return out


def convolved_bound(k: int, l: int, mode: str) -> int:
    """Single-pass bound equivalent to passes with bounds k then l."""
    if mode == "all":
        return 2 * k * l + k + l
    if mode == "nonzero":
        return 2 * k * l
    if mode == "positive":
        return k * l
    raise ValueError(f"unknown mode: {mode!r}")


@dataclass(frozen=True)
class DecompositionReport:
    """Result of an exhaustive two-pass decomposition check."""

    n: int
    k: int
    l: int
    mode: str
    ok: bool
    checked: int
    first_mismatch: tuple[Perm, int, int] | None = None  # (pi, lhs, rhs)

    def to_dict(self) -> dict:
        d = {
            "identity": "decomposition",
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "mode": self.mode,
            "ok": self.ok,
            "checked": self.checked,
        }
        if self.first_mismatch is not None:
            pi, lhs, rhs = self.first_mismatch
            d["first_mismatch"] = {"pi": list(pi), "lhs": str(lhs), "rhs": str(rhs)}
        return d


def verify_decomposition(
    n: int, k: int, l: int, mode: str = "all", perturbation: int = 0
) -> DecompositionReport:
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
    kind = mode_statistic(mode)
    target_m = convolved_bound(k, l, mode) + perturbation
    lhs: dict[Perm, int] = {p: 0 for p in all_permutations(n)}
    op_k = {p: op_chain(n, statistic(p, kind), k, mode) for p in lhs}
    op_l = {p: op_chain(n, statistic(p, kind), l, mode) for p in lhs}
    for s in lhs:
        if op_k[s] == 0:
            continue
        for t in lhs:
            lhs[compose(s, t)] += op_k[s] * op_l[t]
    checked = 0
    for p, total in sorted(lhs.items()):
        checked += 1
        rhs = op_chain(n, statistic(p, kind), target_m, mode)
        if total != rhs:
            return DecompositionReport(n, k, l, mode, False, checked, (p, total, rhs))
    return DecompositionReport(n, k, l, mode, True, checked)


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of checking op(n, k, m) >= op(n, k+1, m) over the whole
    statistic range (out-of-range values count as 0)."""

    n: int
    m: int
    mode: str
    ok: bool
    values: tuple[int, ...] = field(default_factory=tuple)
    first_violation: int | None = None  # k with op(k) < op(k+1)

    def to_dict(self) -> dict:
        return {
            "identity": "monotonicity",
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "ok": self.ok,
            "values": [str(v) for v in self.values],
            "first_violation": self.first_violation,
        }


def check_monotonicity(n: int, m: int, mode: str = "all") -> MonotonicityReport:
    """Chain counts weakly decrease as the statistic grows."""
    kind = mode_statistic(mode)
    ks = statistic_range(kind, n)
    values = tuple(op_chain(n, k, m, mode) for k in ks)
    for k in range(len(values)):
        nxt = values[k + 1] if k + 1 < len(values) else 0
        if values[k] < nxt:
            return MonotonicityReport(n, m, mode, False, values, k)
    return MonotonicityReport(n, m, mode, True, values)


def composition_convention_check(sizes: Iterable[int] = (3, 4)) -> bool:
    """Self test pinning the composition convention: the decomposition
    identities must hold with compose(s, t) = s-after-t, for all modes and
    small bounds.  Raises AssertionError on failure."""
    for n, mode, (k, l) in itertools.product(
        sizes, _MODE_STAT, [(1, 1), (1, 2), (2, 1)]
    ):
        report = verify_decomposition(n, k, l, mode)
        if not report.ok:
            raise AssertionError(
                f"composition convention broken: n={n} mode={mode} k={k} l={l}"
            )
    return True
