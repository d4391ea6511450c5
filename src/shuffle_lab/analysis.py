"""Distances to uniformity, fixed-point and cycle-structure statistics
of the lazy shelf model.

A one-pass law is constant on statistic classes, so each distance is an
integer sum over at most n classes of class size (orderpoly.count_table,
two-term recurrences on n, also importable from here) times chain count
(orderpoly.op_vector), not a sum over n! permutations.  Each distance
reads the law models.exact_distribution builds and checks to sum to one;
distances stay exact at n in the thousands.

The cycle machinery expands the product form of the lazy model's cycle
generating function

    1/(1 - z_1 u) * prod_i ((1 + z_i u^i)/(1 - z_i u^i))^f(i, m)

to its degree-n coefficients only: integers indexed by cycle type, which
divided by (2m+1)^n are probabilities.  The cycle checks compare them with
exhaustive totals in the same integers: a lazy pass's law is constant on
lpk classes, so one count of S_n by (cycle type, lpk) per n, weighted by
the chain counts op_vector(n, m, "all"), gives every cycle type's total
at every m.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .models import ShuffleSpec, exact_distribution
from .orderpoly import IdentityReport, compare_cases, count_table, op_vector
from .permutations import all_permutations, cycle_type_partition, left_peaks

__all__ = [
    "AsymptoticReport",
    "SERIES_CAP",
    "asymptotic_compare",
    "check_cycle_distribution",
    "check_expected_fixed_points",
    "count_table",
    "cycle_count_series",
    "cycle_distribution",
    "exact_str",
    "expected_fixed_points",
    "f_im",
    "linf_distance",
    "sep_distance",
    "tv_distance",
    "verify_joint_lpk_cycle",
]

# the series holds one integer below (2m+1)^n per partition of n (and as
# many, one per partition into parts >= 2, before the ones are added):
# 5,604 keys at n = 30, which is still comfortable
SERIES_CAP = 30


# ---------------------------------------------------------------------------
# distances to the uniform distribution


def tv_distance(spec: ShuffleSpec) -> Fraction:
    """Total variation distance to uniform, exactly: the mass above 1/n!
    of the classes more likely than uniform.  Over those classes, with D
    the sum of their masses count_k ops_k and C the sum of count_k, it is
    (n! D - T C) / (T n!).  ops_k / T > 1/n! exactly when ops_k exceeds
    T // n!, so no class is multiplied by n!."""
    return _tv(spec.n, *exact_distribution(spec))


def _tv(n, counts, ops, total, masses) -> Fraction:
    nfact = math.factorial(n)
    uniform = total // nfact
    above = [op > uniform for op in ops]
    mass = sum(itertools.compress(masses, above))
    size = sum(itertools.compress(counts, above))
    return Fraction(nfact * mass - total * size, total * nfact)


def sep_distance(spec: ShuffleSpec) -> Fraction:
    """Separation distance 1 - n! min P(pi), set by the least likely
    class."""
    return _sep(spec.n, *exact_distribution(spec))


def _sep(n, counts, ops, total, masses) -> Fraction:
    return Fraction(total - math.factorial(n) * min(ops), total)


def linf_distance(spec: ShuffleSpec) -> Fraction:
    """l-infinity distance max |n! prob - 1|, set by the least or the most
    likely class."""
    return _linf(spec.n, *exact_distribution(spec))


def _linf(n, counts, ops, total, masses) -> Fraction:
    nfact = math.factorial(n)
    return Fraction(max(abs(nfact * op - total) for op in (min(ops), max(ops))), total)


def exact_str(value: int | Fraction) -> str:
    """str(value) for an int or Fraction of any size.  Decimal writes an
    int's digits exactly and is not held to the interpreter's limit on
    int-to-string conversion (4,300 digits by default), which distances
    and expectations pass from about n = 1000.

    >>> exact_str(Fraction(-3, 4)), exact_str(Fraction(10**5000, 3))[:4]
    ('-3/4', '1000')
    """
    num, den = value.as_integer_ratio()
    if den == 1:
        return str(Decimal(num))
    return str(Decimal(num)) + "/" + str(Decimal(den))


@dataclass(frozen=True)
class AsymptoticReport:
    """Exact distances at m = round(c n^(3/2)) next to the scaling-limit
    predictions; informational, no tolerance attached."""

    n: int
    c: float
    m: int
    tv: Fraction
    sep: Fraction
    linf: Fraction
    limit_sep: float
    limit_linf: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "m": self.m,
            "tv": exact_str(self.tv),
            "sep": exact_str(self.sep),
            "linf": exact_str(self.linf),
            "tv_float": float(self.tv),
            "sep_float": float(self.sep),
            "linf_float": float(self.linf),
            "limit_sep": self.limit_sep,
            "limit_linf": self.limit_linf,
        }


def asymptotic_compare(n: int, c: float) -> AsymptoticReport:
    """Lazy-model distances at shelf count m = round(c n^(3/2)), reported
    beside the limits exp(1/(12 c^2)) - 1 and 1 - exp(-1/(24 c^2))."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c!r}")
    m = round(c * n**1.5)
    law = exact_distribution(ShuffleSpec(n, m, "shelf-lazy"))  # built and checked once
    limits = 1 - math.exp(-1 / (24 * c * c)), math.exp(1 / (12 * c * c)) - 1
    return AsymptoticReport(n, c, m, _tv(n, *law), _sep(n, *law), _linf(n, *law), *limits)


# ---------------------------------------------------------------------------
# cycle structure of the lazy model


def _mobius(d: int) -> int:
    mu, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    if d > 1:
        mu = -mu
    return mu


def f_im(i: int, m: int) -> int:
    """Exponent of the i-th factor in the cycle generating function:
    (1/2i) * sum over odd divisors d of i of mu(d) ((2m+1)^(i/d) - 1).

    Always a nonnegative integer (checked).

    >>> f_im(1, 5), f_im(2, 5), f_im(3, 1)
    (5, 30, 4)
    """
    if i < 1 or m < 0:
        raise ValueError("require i >= 1 and m >= 0")
    total = sum(
        _mobius(d) * ((2 * m + 1) ** (i // d) - 1)
        for d in range(1, i + 1, 2)
        if i % d == 0
    )
    quotient, remainder = divmod(total, 2 * i)
    if remainder or quotient < 0:
        raise ArithmeticError(f"f({i},{m}) = {total}/{2 * i} is not a nonnegative integer")
    return quotient


def _two_sided_power(f: int, terms: int) -> list[int]:
    """[x^j] ((1 + x)/(1 - x))^f for j < terms.

    The series g satisfies (1 - x^2) g' = 2 f g, so its coefficients obey
    (j + 1) a_(j+1) = 2 f a_j + (j - 1) a_(j-1), with a_0 = 1.

    >>> _two_sided_power(3, 4)
    [1, 6, 18, 38]
    """
    coeffs = [1, 2 * f]
    for j in range(1, terms - 1):
        coeffs.append((2 * f * coeffs[j] + (j - 1) * coeffs[j - 1]) // (j + 1))
    return coeffs[:terms]


def cycle_count_series(n: int, m: int) -> dict[tuple[int, ...], int]:
    """The degree-n coefficients of the integer product series: a map from
    each cycle type (partition of n, largest part first) with nonzero
    coefficient to that coefficient, which divided by (2m+1)^n is the
    chance a lazy pass on n cards has that cycle type.

    A monomial z_{i1} z_{i2} ... always carries u to the power of the
    partition's sum, so coefficients are keyed by partition alone.  Each
    factor's power is written down by its coefficient recurrence, and the
    factors are multiplied in from i = n down to 2, so appending i-parts to
    a partition keeps it largest part first.  The z_1 geometric series
    joins the i = 1 factor as prefix sums of its coefficients, and that
    factor completes each partition of d to degree n in exactly one way,
    with n - d ones.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > SERIES_CAP:
        raise ValueError(f"series degree capped at {SERIES_CAP}")
    coeffs: dict[tuple[int, ...], int] = {(): 1}
    for i in range(n, 1, -1):
        power = _two_sided_power(f_im(i, m), n // i + 1)
        grown: dict[tuple[int, ...], int] = {}
        for part, c in coeffs.items():
            room = (n - sum(part)) // i
            for j, a in enumerate(power[: room + 1]):
                if a:
                    grown[part + (i,) * j] = c * a
        coeffs = grown
    ones = list(itertools.accumulate(_two_sided_power(f_im(1, m), n + 1)))
    return {
        part + (1,) * (n - sum(part)): c * ones[n - sum(part)]
        for part, c in coeffs.items()
    }


def cycle_distribution(spec: ShuffleSpec) -> dict[tuple[int, ...], Fraction]:
    """Map cycle type (partition of n, largest part first) -> probability
    under one lazy pass.  Masses are nonnegative and sum to 1."""
    if spec.model != "shelf-lazy":
        raise ValueError("cycle structure is computed for the lazy model only")
    counts = sorted(cycle_count_series(spec.n, spec.m).items())
    total = spec.total_outcomes
    if sum(c for _, c in counts) != total:
        raise ValueError("cycle-type masses do not sum to 1")
    return {part: Fraction(c, total) for part, c in counts}


@lru_cache(maxsize=None)
def _cycle_lpk_table(n: int) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """J_n as ((cycle type, lpk), count) pairs: how many permutations of
    S_n have each cycle type and left-peak count, from one pass over S_n.
    Every cycle type of S_n appears."""
    pairs = ((cycle_type_partition(p), left_peaks(p)) for p in all_permutations(n))
    return tuple(Counter(pairs).items())


def _cycle_law(n: int, m: int) -> dict[tuple[int, ...], int]:
    """(2m+1)^n times the chance of each cycle type after one lazy pass,
    the exhaustive side of the cycle checks.  A lazy pass gives every
    permutation of lpk class k the chain count op_vector(n, m, "all")[k]
    out of (2m+1)^n, so a cycle type totals sum_k J_n(type, k) op[k].
    Every cycle type of S_n is a key, even one of probability 0."""
    ops = op_vector(n, m, "all")
    law: dict[tuple[int, ...], int] = {}
    for (part, k), count in _cycle_lpk_table(n):
        law[part] = law.get(part, 0) + count * ops[k]
    return law


def check_cycle_distribution(n: int, m: int) -> IdentityReport:
    """cycle_distribution of one lazy pass equals the exhaustive totals
    over S_n (_cycle_law), cycle type by cycle type (a type missing from
    either side counts as probability 0)."""
    law = _cycle_law(n, m)
    total = (2 * m + 1) ** n
    table = cycle_distribution(ShuffleSpec(n, m, "shelf-lazy"))
    types = sorted(set(law) | set(table))
    cases = ((Fraction(law.get(part, 0), total), table.get(part, 0), part) for part in types)
    return compare_cases("cycle-distribution", {"n": n, "m": m}, ("type",), cases)


def expected_fixed_points(n: int, m: int) -> Fraction:
    """Mean number of fixed points after one lazy pass.

    >>> expected_fixed_points(2, 1)
    Fraction(10, 9)
    >>> expected_fixed_points(3, 1)
    Fraction(11, 9)
    """
    if n < 1 or m < 0:
        raise ValueError("require n >= 1 and m >= 0")
    # 1 + 2 sum_{k=1..K} b^(-2k), K = (n - 1) // 2, as one geometric sum,
    # plus b^(-n) when n is even
    b, K = 2 * m + 1, (n - 1) // 2
    power = b ** (2 * K)
    mean = 1 + Fraction(2 * (power - 1), power * (b * b - 1)) if m else Fraction(1 + 2 * K)
    return mean if n % 2 else mean + Fraction(1, b**n)


def check_expected_fixed_points(n: int, m: int) -> IdentityReport:
    """expected_fixed_points(n, m) equals the exhaustive mean of the ones
    in each cycle type over S_n (_cycle_law): one case."""
    ones = sum(count * part.count(1) for part, count in _cycle_law(n, m).items())
    cases = [(Fraction(ones, (2 * m + 1) ** n), expected_fixed_points(n, m))]
    return compare_cases("expected-fixed-points", {"n": n, "m": m}, (), cases)


def verify_joint_lpk_cycle(n: int, m_max: int) -> IdentityReport:
    """For each m <= m_max, total the left-peak kernel's t^m coefficient,
    op_chain(n, lpk pi, m), the lazy shelf's (2m+1)^n P(pi), over each
    cycle type of S_n (_cycle_law), and compare with the degree-n
    coefficients of the product series.  Exact equality required."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if n > 6 or m_max > 4:
        raise ValueError("joint identity check capped at n <= 6, m_max <= 4")

    def cases():
        for m in range(1, m_max + 1):
            law, series = _cycle_law(n, m), cycle_count_series(n, m)
            for part in sorted(set(law) | set(series)):
                yield law.get(part, 0), series.get(part, 0), m, part

    return compare_cases("joint-lpk-cycle", {"n": n, "m_max": m_max}, ("m", "type"), cases())
