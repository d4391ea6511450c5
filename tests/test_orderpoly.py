"""Closed-form chain counts against enumeration, and the identity checks
built on them."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from shuffle_lab import orderpoly
from shuffle_lab.analysis import tv_distance
from shuffle_lab.models import ShuffleSpec
from shuffle_lab.orderpoly import (
    EXHAUSTIVE_CAP,
    _adjacent_swaps,
    check_class_symmetry,
    check_closed_forms,
    check_linear_extension_split,
    check_monotonicity,
    convolved_bound,
    gf_coefficients,
    mode_statistic,
    op_chain,
    op_of_perm,
    op_vector,
    statistic_range,
    verify_decomposition,
)
from shuffle_lab.permutations import all_permutations, compose, inverse, statistic
from shuffle_lab.posets import Poset, all_posets
from shuffle_lab.ppartitions import MODES, enumerate_bounded

from .oracles import (
    brute_statistic_counts,
    comb_op_chain,
    counter_class_products,
    op_poset,
    pascal_op_vector,
    product_loop_decomposition,
    right_multiplication_tables,
)


@pytest.mark.parametrize("n", range(8))
def test_adjacent_swaps_visit_every_permutation_once(n):
    perm = list(range(1, n + 1))
    seen = [tuple(perm)]
    for a in _adjacent_swaps(n):
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
        seen.append(tuple(perm))
    assert len(seen) == len(set(seen)) == math.factorial(n)
    assert set(seen) == set(all_permutations(n))


def test_mode_statistic():
    assert mode_statistic("all") == "lpk"
    assert mode_statistic("nonzero") == "pk"
    assert mode_statistic("positive") == "des"
    with pytest.raises(ValueError):
        mode_statistic("plain")


def test_statistic_range():
    assert list(statistic_range("lpk", 5)) == [0, 1, 2]
    assert list(statistic_range("pk", 5)) == [0, 1, 2]
    assert list(statistic_range("pk", 6)) == [0, 1, 2]
    assert list(statistic_range("des", 4)) == [0, 1, 2, 3]
    assert list(statistic_range("des", 1)) == [0]
    with pytest.raises(ValueError):
        statistic_range("maj", 4)


def test_op_examples():
    assert op_chain(2, 0, 1, "all") == 5
    assert op_chain(2, 1, 1, "all") == 4
    assert op_chain(1, 0, 1, "nonzero") == 2
    assert op_chain(2, 1, 1, "positive") == 0
    for n in range(1, 7):
        assert op_chain(n, 0, 0, "all") == 1
        for k in range(1, n // 2 + 1):
            assert op_chain(n, k, 0, "all") == 0
    for n, m in itertools.product(range(1, 6), range(5)):
        assert op_chain(n, 0, m, "positive") == comb(n - 1 + m, n)


def test_op_star_small_chain_is_zero():
    # enumerate the nonzero-valued maps on the chain 1 < 3 < 2 with m = 1
    # by hand: the only alphabet is {1-, 1}, and the chain needs a strict
    # step somewhere it cannot have one
    chain = Poset.chain((1, 3, 2))
    assert len(enumerate_bounded(chain, 1, "nonzero")) == 0
    assert op_chain(3, 1, 1, "nonzero") == 0


def test_out_of_range_statistic_counts_zero():
    assert op_chain(4, 3, 5, "all") == 0
    assert op_chain(4, -1, 5, "all") == 0
    assert op_chain(4, 2, 5, "nonzero") == 0
    assert op_chain(3, 3, 5, "positive") == 0
    for mode in MODES:
        with pytest.raises(ValueError):
            op_chain(3, 0, -1, mode)
    with pytest.raises(ValueError):
        op_chain(3, 0, 1, "plain")


def test_closed_forms_equal_enumeration_on_chains():
    for n in range(1, 5):
        for p in all_permutations(n):
            chain = Poset.chain(p)
            for mode in MODES:
                for m in range(3):
                    assert op_of_perm(p, m, mode) == len(
                        enumerate_bounded(chain, m, mode)
                    )


def test_op_chain_equals_comb_sums():
    # every class, in range or not, of every n < 40 at every m < 45
    for n, mode in itertools.product(range(40), MODES):
        for k, m in itertools.product(range(-1, n // 2 + 3), range(45)):
            assert op_chain(n, k, m, mode) == comb_op_chain(n, k, m, mode), (n, k, m, mode)


def test_op_chain_equals_comb_sums_large_n():
    # the first, middle and last classes, m at and around them and far past n
    for n, mode in itertools.product(range(201), MODES):
        last = len(statistic_range(mode_statistic(mode), n)) - 1
        for k in {0, 1, last // 2, last - 1, last}:
            for m in {0, 1, 2, max(k, 0), k + 1, n, round(n**1.5), 3 * n * n}:
                assert op_chain(n, k, m, mode) == comb_op_chain(n, k, m, mode), (n, k, m, mode)


def test_op_vector_equals_per_class_op_chain():
    for n in range(1, 41):
        for m, mode in itertools.product((0, 1, 2, 3, 7, 50, round(n**1.5)), MODES):
            ks = statistic_range(mode_statistic(mode), n)
            assert op_vector(n, m, mode) == [op_chain(n, k, m, mode) for k in ks], (n, m, mode)


def _top_class(n: int, m: int, mode: str) -> int:
    """The largest class with a nonzero chain count (-1 if none)."""
    return min(m - (mode != "all"), len(statistic_range(mode_statistic(mode), n)) - 1)


def test_op_vector_equals_pascal_walk():
    """m covers top = m (m <= 3), top = the last class (m >= n // 2),
    both sides of it, and m = 0 (a zero "nonzero" vector)."""
    for n in range(1, 201):
        half = n // 2
        for m, mode in itertools.product(
            {0, 1, 2, 3, max(half - 1, 0), half, n, round(n**1.5), 3 * n * n}, MODES
        ):
            assert op_vector(n, m, mode) == pascal_op_vector(n, m, mode), (n, m, mode)


@pytest.mark.parametrize("n", [200, 500, 1000, 2000])
def test_op_vector_large_n_classes(n):
    for m, mode in itertools.product((0, 3, round(n**1.5)), MODES):
        vector = op_vector(n, m, mode)
        assert len(vector) == len(statistic_range(mode_statistic(mode), n))
        top = _top_class(n, m, mode)
        assert not any(vector[top + 1 :]), (n, m, mode)
        for k in {c for c in (0, 1, top - 1, top, len(vector) - 1) if c >= 0}:
            assert vector[k] == op_chain(n, k, m, mode), (n, m, mode, k)


def test_op_vector_recurrence_negative_control(monkeypatch):
    """With P1 off by one, each vector either leaves a remainder in some
    step down or fails the normalisation check of the law it feeds."""
    specs = [
        ShuffleSpec(n, m, model)
        for n, m in ((8, 3), (52, 10), (200, 2828))
        for model in ("shelf-lazy", "shelf-standard", "shelf-strict")
    ]
    for spec in specs:
        tv_distance(spec)  # the honest recurrence passes
    honest = dict(orderpoly._RECURRENCE)

    def off_by_one(mode):
        def coefficients(n, m, k):
            p0, p1, p2 = honest[mode](n, m, k)
            return p0, p1 + 1, p2

        return coefficients

    monkeypatch.setattr(orderpoly, "_RECURRENCE", {mode: off_by_one(mode) for mode in honest})
    for spec in specs:
        with pytest.raises((ArithmeticError, ValueError)):
            tv_distance(spec)


def test_op_vector_guardrails():
    for n, m, mode in ((0, 1, "all"), (3, -1, "nonzero"), (3, 1, "bogus")):
        with pytest.raises(ValueError):
            op_vector(n, m, mode)


def test_op_poset_antichain_and_chains():
    for n, m in itertools.product(range(1, 5), range(3)):
        anti = Poset(n)
        assert op_poset(anti, m, "all") == (2 * m + 1) ** n
        assert op_poset(anti, m, "nonzero") == (2 * m) ** n
        assert op_poset(anti, m, "positive") == m**n
    v_poset = Poset(3, [(1, 2), (3, 2)])
    assert op_poset(v_poset, 1, "all") == op_chain(
        3, statistic((1, 3, 2), "lpk"), 1, "all"
    ) + op_chain(3, statistic((3, 1, 2), "lpk"), 1, "all")


def test_op_poset_equals_enumeration_count():
    # the empty poset has one map, the empty one, in every mode
    for poset in [Poset(0), *all_posets(3)]:
        for mode in MODES:
            for m in range(3):
                assert op_poset(poset, m, mode) == len(
                    enumerate_bounded(poset, m, mode)
                )


def test_generating_function_matches_closed_forms():
    for n in range(1, 6):
        for mode in MODES:
            for k in statistic_range(mode_statistic(mode), n):
                coefficients = gf_coefficients(n, k, mode, 8)
                assert coefficients == [comb_op_chain(n, k, m, mode) for m in range(8)]
    # out-of-range k gives the zero series
    assert gf_coefficients(4, 3, "all", 5) == [0] * 5
    # the series hold for n >= 1 only, while the empty chain has one map
    for mode in MODES:
        with pytest.raises(ValueError):
            gf_coefficients(0, 0, mode, 4)


def test_statistic_totals_against_brute_counts():
    bases = {"all": lambda m: 2 * m + 1, "nonzero": lambda m: 2 * m, "positive": lambda m: m}
    for n in range(1, 7):
        tables = {
            mode: brute_statistic_counts(n, mode_statistic(mode)) for mode in MODES
        }
        for mode, m in itertools.product(MODES, range(4)):
            total = sum(
                count * op_chain(n, k, m, mode)
                for k, count in enumerate(tables[mode])
            )
            assert total == bases[mode](m) ** n


def test_convolved_bound():
    assert convolved_bound(10, 10, "all") == 220
    assert convolved_bound(2, 3, "nonzero") == 12
    assert convolved_bound(4, 5, "positive") == 20
    for k, l in itertools.product(range(30), repeat=2):
        # choices-per-card counts multiply across the two passes
        assert (2 * k + 1) * (2 * l + 1) == 2 * convolved_bound(k, l, "all") + 1
        assert (2 * k) * (2 * l) == 2 * convolved_bound(k, l, "nonzero")
        assert k * l == convolved_bound(k, l, "positive")
    with pytest.raises(ValueError):
        convolved_bound(1, 1, "plain")


def test_verify_decomposition():
    for mode in MODES:
        for k, l in [(0, 2), (1, 1), (1, 2), (2, 2)]:
            report = verify_decomposition(4, k, l, mode)
            assert report.ok and report.checked == 24
            assert report.first_mismatch is None
    report = verify_decomposition(3, 2, 2, "positive")
    assert report.ok and report.to_dict()["identity"] == "decomposition"


def test_verify_decomposition_equals_product_loop():
    # the class-product table against the full n!^2 product loop: the same
    # report, down to checked and the first mismatch
    for n, mode in itertools.product(range(1, 6), MODES):
        for k, l, perturbation in itertools.product(range(4), range(4), (0, 1)):
            assert verify_decomposition(
                n, k, l, mode, perturbation
            ) == product_loop_decomposition(n, k, l, mode, perturbation), (n, mode, k, l)
    for k, l, mode, perturbation in [
        (1, 2, "all", 0),
        (2, 1, "nonzero", 0),
        (2, 2, "positive", 0),
        (1, 1, "all", 1),
    ]:
        assert verify_decomposition(
            6, k, l, mode, perturbation
        ) == product_loop_decomposition(6, k, l, mode, perturbation), (mode, k, l)


def test_right_multiplication_tables_equal_compose():
    # the oracle's tables behind the class products are compose(s, t)
    for n in range(1, 5):
        perms = list(all_permutations(n))
        seen = []
        for t, table in right_multiplication_tables(perms):
            seen.append(t)
            assert [perms[a] for a in table] == [compose(s, t) for s in perms], t
        assert sorted(seen) == perms


def test_statistic_rows_walk_every_inverse_once():
    # row c holds stat(compose(p, u)) for every p, u the inverse of perms[c]
    for n, kind in itertools.product(range(1, 5), ("lpk", "pk", "des")):
        perms = list(all_permutations(n))
        stats = [statistic(p, kind) for p in perms]
        seen = []
        for c, row in orderpoly._statistic_rows(perms, stats):
            seen.append(c)
            u = inverse(perms[c])
            assert list(row) == [statistic(compose(p, u), kind) for p in perms], (kind, u)
        assert sorted(seen) == list(range(len(perms))), (n, kind)


def test_class_products_equal_counter_oracle():
    # all 18 tables of n <= 6, down to the order of the distinct rows
    for n, kind in itertools.product(range(1, 7), ("lpk", "pk", "des")):
        assert orderpoly._class_products(n, kind) == counter_class_products(n, kind), (n, kind)


def test_class_products_count_factorizations():
    # N_ij(pi) = #{(sigma, tau) : sigma tau = pi, stat sigma = i, stat tau = j}
    for n, kind in itertools.product(range(1, 6), ("lpk", "pk", "des")):
        perms = list(all_permutations(n))
        brute = Counter(
            (statistic(s, kind), statistic(t, kind), compose(s, t))
            for s in perms
            for t in perms
        )
        values = statistic_range(kind, n)
        rows, entries = orderpoly._class_products(n, kind)
        assert [p for p, _, _ in entries] == perms
        for p, stat, row in entries:
            assert stat == statistic(p, kind)
            expected = [brute[i, j, p] for i, j in itertools.product(values, values)]
            assert list(rows[row]) == expected, (n, kind, p)


def one_row_per_class(entries) -> bool:
    """Whether every pi of a statistic class has the same class-product row."""
    return len({(stat, row) for _, stat, row in entries}) == len({stat for _, stat, _ in entries})


def test_class_products_are_closed_on_classes():
    # N_ij(pi) depends on pi only through stat pi, so the class sums span a
    # subalgebra: Eulerian (des), peak (pk) and left-peak (lpk)
    for n, kind in itertools.product(range(1, 7), ("lpk", "pk", "des")):
        _, entries = orderpoly._class_products(n, kind)
        assert one_row_per_class(entries), (n, kind)
    # negative control: (1, 2, 4, 3), one of the 11 with one descent, moved
    # to the row of the identity, alone in its class
    _, entries = orderpoly._class_products(4, "des")
    (_, _, row), (p, stat, _) = entries[:2]
    assert (p, stat) == ((1, 2, 4, 3), 1)
    assert not one_row_per_class((entries[0], (p, stat, row), *entries[2:]))


def test_verify_decomposition_negative_control():
    report = verify_decomposition(3, 2, 2, "positive", perturbation=1)
    assert not report.ok
    assert report.first_mismatch is not None
    assert "first_mismatch" in report.to_dict()
    # the report's dict keeps its key order: the CLI prints it as it is
    assert repr(verify_decomposition(1, 0, 0, "all", perturbation=1).to_dict()) == (
        "{'identity': 'decomposition', 'n': 1, 'k': 0, 'l': 0, 'mode': 'all', 'ok': False, "
        "'checked': 1, 'first_mismatch': {'pi': [1], 'lhs': '1', 'rhs': '3'}}"
    )


def test_verify_decomposition_guardrails():
    with pytest.raises(ValueError):
        verify_decomposition(EXHAUSTIVE_CAP + 1, 1, 1, "all")
    with pytest.raises(ValueError):
        verify_decomposition(3, -1, 1, "all")


def test_check_monotonicity(monkeypatch):
    for n, mode in itertools.product(range(1, 9), MODES):
        for m in range(5):
            report = check_monotonicity(n, m, mode)
            assert report.ok, report.to_dict()
            values = op_vector(n, m, mode)
            assert values == sorted(values, reverse=True)
            assert report.checked == len(values) and report.first_mismatch is None
    assert op_vector(8, 3, "all")[0] == op_chain(8, 0, 3, "all")
    # an increasing class vector fails at its first rise
    monkeypatch.setattr(orderpoly, "op_vector", lambda n, m, mode: [3, 5, 4])
    report = check_monotonicity(8, 3, "all")
    assert not report.ok and report.checked == 1
    assert report.to_dict() == {
        "identity": "monotonicity", "n": 8, "m": 3, "mode": "all", "ok": False,
        "checked": 1, "first_mismatch": {"k": 0, "lhs": "3", "rhs": "5"},
    }
    # the last class is compared against 0: a negative count fails there
    monkeypatch.setattr(orderpoly, "op_vector", lambda n, m, mode: [5, 4, -1])
    report = check_monotonicity(8, 3, "all")
    assert not report.ok and report.checked == 3
    assert report.first_mismatch == {"k": 2, "lhs": "-1", "rhs": "0"}


def test_check_class_symmetry(monkeypatch):
    # N_ij = N_ji, so the identities cannot see the composition convention
    for n, mode in itertools.product(range(1, 6), MODES):
        report = check_class_symmetry(n, mode)
        assert report.ok and report.checked == len(list(all_permutations(n))), (n, mode)
    # one asymmetric entry in a table must fail the check
    honest = orderpoly._class_products

    def skewed(n, kind):
        rows, entries = honest(n, kind)
        row = list(rows[0])
        row[1] += 1  # N_01 of the first row, leaving N_10
        return (tuple(row),) + rows[1:], entries

    monkeypatch.setattr(orderpoly, "_class_products", skewed)
    report = check_class_symmetry(3, "positive")
    assert not report.ok and report.checked == 1
    assert report.first_mismatch == {"pi": [1, 2, 3], "i": 0, "j": 1, "lhs": "1", "rhs": "0"}


def test_check_closed_forms(monkeypatch):
    report = check_closed_forms(4, 2)
    assert report.ok and report.checked == 24 * 3 * 3  # S_4, three modes, m <= 2
    assert check_closed_forms(1, 0).checked == 3
    # a closed form off by one fails at the first chain
    honest = orderpoly.op_of_perm
    monkeypatch.setattr(orderpoly, "op_of_perm", lambda p, m, mode: honest(p, m, mode) + 1)
    report = check_closed_forms(3, 2)
    assert not report.ok and report.checked == 1
    assert report.first_mismatch == {
        "pi": [1, 2, 3], "mode": "all", "m": 0, "lhs": "2", "rhs": "1"
    }


def test_check_linear_extension_split(monkeypatch):
    report = check_linear_extension_split(4, 2)
    assert report.ok and report.checked == 219 * 9  # posets on 4 points, 3 modes x m <= 2
    # enumeration that loses one map of a non-chain poset breaks the split
    honest = orderpoly.enumerate_bounded

    def drop_one(poset, m, mode):
        maps = honest(poset, m, mode)
        return maps[1:] if len(poset.linear_extensions()) > 1 else maps

    monkeypatch.setattr(orderpoly, "enumerate_bounded", drop_one)
    report = check_linear_extension_split(3, 2)
    assert not report.ok and report.checked == 1
    assert report.first_mismatch == {
        "relations": [], "mode": "all", "m": 0, "lhs": "0", "rhs": "1", "unmatched": 1
    }

    # pieces that overlap cover the poset's maps but count one of them twice
    def overlapping(poset, m, mode):
        maps = honest(poset, m, mode)
        if poset.linear_extensions() == [(2, 1)]:
            maps = maps + [f for f in honest(Poset.chain((1, 2)), m, mode) if f[0] == f[1]]
        return maps

    monkeypatch.setattr(orderpoly, "enumerate_bounded", overlapping)
    report = check_linear_extension_split(2, 2)
    assert not report.ok and report.checked == 1
    assert report.first_mismatch == {
        "relations": [], "mode": "all", "m": 0, "lhs": "1", "rhs": "2", "unmatched": 0
    }


# ---------------------------------------------------------------------------
# the class-vector recurrence, proved
#
# op(k) = sum over a of F(k, a), with the closed-form summand
#     all:      F(k, a) = 4^k C(n - 2k, a - k) C(n + m - a, n)
#     nonzero:  F(k, a) = 2 4^k C(n - 1 - 2k, a - k) C(n - 1 + m - a, n)
#     positive: F(k, a) = C(n - 1 + m - k, n) at a = 0, else 0
# (C(x, y) = 0 unless 0 <= y <= x).  With G(k, a) = R(a) F(k, a), the
# certificate R of each mode makes, for every integer a,
#     P0 F(k, a) + P1 F(k+1, a) + P2 F(k+2, a) = G(k, a+1) - G(k, a)      (*)
# with P0, P1, P2 the row of orderpoly._RECURRENCE.  F has finite support in
# a, so summing (*) over a telescopes to P0 op(k) + P1 op(k+1) + P2 op(k+2) = 0.
#
# Where F(k, a) != 0, divide (*) by it.  The ratios r1(k) = F(k+1, a)/F(k, a),
# F(k+2, a)/F(k, a) = r1(k) r1(k+1) and s = F(k, a+1)/F(k, a) are the
# rational functions in _CERTIFICATES (each follows from
# C(N-2, j-1)/C(N, j) = j (N-j)/(N (N-1)) and its kin, and the zero cases
# come out as a factor of the numerator), so (*) becomes
#     P0 + P1 r1(k) + P2 r1(k) r1(k+1) = R(a+1) s - R(a),
# and clearing denominators makes it a polynomial identity in (n, m, k, a),
# which test_recurrence_certificates expands and compares.  Every
# denominator is nonzero along op_vector's steps: k <= top - 2 gives
# n - 2k >= 4 ("all") or n - 2k - 1 >= 4 ("nonzero"), and a + 1 - k and
# n + m - a (n - 1 + m - a) are positive wherever F(k, a) != 0.
#
# Where F(k, a) = 0: F(k+1, a) and F(k+2, a) are 0 too (their supports lie
# inside that of F(k, .)), and so is G(k, a), so (*) asks G(k, a+1) = 0.
# F(k, a) = 0 when a < k, when a - k is past the top of the first binomial
# (a > n - k, or n - 1 - k), or when a is past the support of the second
# binomial (a > m in "all", a >= m in "nonzero").  In the last two cases
# a + 1 is past it too, so F(k, a+1) = 0.  In the first, F(k, a+1) = 0
# too, except at a = k - 1, where R(a+1) = R(k) has the factor (a - k)
# and vanishes.  In "positive", R = 0, and F(k) = 0 (k > m - 1) forces
# F(k+1) = 0.
# test_recurrence_telescopes_pointwise checks (*) itself, zeros included.

_CERTIFICATES = {
    # mode: (R numerator, R denominator, r1 = (num, den), s = (num, den))
    "all": (
        lambda n, m, k, a, off=0: -4 * (a - n - m - 1) * (a - k) * (
            (2 + off) * a * a + (2 * m - 2 * n - 1) * a + k * n - m * n - m + n
        ),
        lambda n, m, k: (n - 2 * k) * (n - 2 * k - 1),
        lambda n, m, k, a: (4 * (a - k) * (n - k - a), (n - 2 * k) * (n - 2 * k - 1)),
        lambda n, m, k, a: ((n - k - a) * (m - a), (a + 1 - k) * (n + m - a)),
    ),
    "nonzero": (
        lambda n, m, k, a, off=0: -4 * (a - n - m) * (a - k) * (
            (2 + off) * a * a + (2 * m - 2 * n) * a + k * n - m * n + n
        ),
        lambda n, m, k: (n - 2 * k - 1) * (n - 2 * k - 2),
        lambda n, m, k, a: (4 * (a - k) * (n - 1 - k - a), (n - 1 - 2 * k) * (n - 2 * k - 2)),
        lambda n, m, k, a: ((n - 1 - k - a) * (m - 1 - a), (a + 1 - k) * (n - 1 + m - a)),
    ),
    "positive": (
        lambda n, m, k, a, off=0: off * a * a,
        lambda n, m, k: 1,
        lambda n, m, k, a: (m - 1 - k, n - 1 + m - k),
        lambda n, m, k, a: (0, 1),
    ),
}


class _Poly:
    """A polynomial in (n, m, k, a) with integer coefficients: a dict from
    exponent tuples to nonzero coefficients, with just the ring arithmetic
    that the coefficient and certificate functions use."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def lift(x):
        return x if isinstance(x, _Poly) else _Poly({(0, 0, 0, 0): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in _Poly.lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return _Poly(terms)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in _Poly.lift(other).terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return _Poly(terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -_Poly.lift(other)

    def __rsub__(self, other):
        return _Poly.lift(other) - self

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == _Poly.lift(other).terms


_N, _M, _K, _A = (_Poly({tuple(int(i == j) for j in range(4)): 1}) for i in range(4))


def _telescopes(recurrence, certificate, off=0) -> bool:
    """Whether P0 + P1 r1(k) + P2 r1(k) r1(k+1) = R(a+1) s - R(a), times
    every denominator, holds as a polynomial identity."""
    r_num, r_den, r1, s = certificate
    p0, p1, p2 = recurrence(_N, _M, _K)
    r1_num, d1 = r1(_N, _M, _K, _A)
    r1_next, d2 = r1(_N, _M, _K + 1, _A)
    s_num, s_den = s(_N, _M, _K, _A)
    rd = r_den(_N, _M, _K)
    lhs = (p0 * d1 * d2 + p1 * r1_num * d2 + p2 * r1_num * r1_next) * s_den * rd
    rhs = (r_num(_N, _M, _K, _A + 1, off) * s_num - r_num(_N, _M, _K, _A, off) * s_den) * d1 * d2
    return lhs == rhs


def test_recurrence_certificates():
    assert set(_CERTIFICATES) == set(orderpoly._RECURRENCE)
    for mode, certificate in _CERTIFICATES.items():
        assert _telescopes(orderpoly._RECURRENCE[mode], certificate), mode


def test_recurrence_certificates_negative_control():
    # one certificate coefficient off by one, or one recurrence coefficient
    # off by one, and the identity no longer holds
    for mode, certificate in _CERTIFICATES.items():
        assert not _telescopes(orderpoly._RECURRENCE[mode], certificate, off=1), mode
        honest = orderpoly._RECURRENCE[mode]
        for i in range(3):
            def bumped(n, m, k, i=i):
                row = list(honest(n, m, k))
                row[i] = row[i] + 1
                return row

            assert not _telescopes(bumped, certificate), (mode, i)


def _summand(mode, n, m, k, a):
    def c(x, y):
        return comb(x, y) if 0 <= y <= x else 0

    if mode == "all":
        return 4**k * c(n - 2 * k, a - k) * c(n + m - a, n)
    if mode == "nonzero":
        return 2 * 4**k * c(n - 1 - 2 * k, a - k) * c(n - 1 + m - a, n)
    return c(n - 1 + m - k, n) if a == 0 else 0


def test_recurrence_telescopes_pointwise():
    """(*) in exact arithmetic at every a around the support, zeros
    included, and the ratios the polynomial identity assumes."""
    for mode, (r_num, r_den, r1, s) in _CERTIFICATES.items():
        for n, m in itertools.product(range(4, 15), range(13)):
            top = min(m, len(statistic_range(mode_statistic(mode), n)) - 1)
            for k in range(top - 1):
                p0, p1, p2 = orderpoly._RECURRENCE[mode](n, m, k)
                for a in range(-2, n + m + 3):
                    f = [_summand(mode, n, m, k + j, a) for j in range(3)]
                    g0 = Fraction(r_num(n, m, k, a) * f[0], r_den(n, m, k))
                    g1 = Fraction(r_num(n, m, k, a + 1) * _summand(mode, n, m, k, a + 1),
                                  r_den(n, m, k))
                    assert p0 * f[0] + p1 * f[1] + p2 * f[2] == g1 - g0, (mode, n, m, k, a)
                    if f[0]:
                        num, den = r1(n, m, k, a)
                        assert f[1] * den == f[0] * num, (mode, n, m, k, a)
                        num, den = s(n, m, k, a)
                        assert _summand(mode, n, m, k, a + 1) * den == f[0] * num
