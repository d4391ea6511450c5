"""Closed-form chain counts against enumeration, and the identity checks
built on them."""

import itertools
from collections import Counter
from math import comb

import pytest

from shuffle_lab import orderpoly
from shuffle_lab.analysis import tv_distance
from shuffle_lab.models import ShuffleSpec
from shuffle_lab.orderpoly import (
    EXHAUSTIVE_CAP,
    check_class_symmetry,
    check_monotonicity,
    convolved_bound,
    gf_coefficients,
    mode_statistic,
    op_chain,
    op_lazy,
    op_of_perm,
    op_plus,
    op_poset,
    op_star,
    op_vector,
    statistic_range,
    verify_decomposition,
)
from shuffle_lab.permutations import all_permutations, compose, statistic
from shuffle_lab.posets import Poset, all_posets
from shuffle_lab.ppartitions import MODES, enumerate_bounded

from .oracles import brute_statistic_counts, pascal_op_vector, product_loop_decomposition


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
    assert op_lazy(2, 0, 1) == 5
    assert op_lazy(2, 1, 1) == 4
    assert op_star(1, 0, 1) == 2
    assert op_plus(2, 1, 1) == 0
    for n in range(1, 7):
        assert op_lazy(n, 0, 0) == 1
        for k in range(1, n // 2 + 1):
            assert op_lazy(n, k, 0) == 0
    for n, m in itertools.product(range(1, 6), range(5)):
        assert op_plus(n, 0, m) == comb(n - 1 + m, n)


def test_op_star_small_chain_is_zero():
    # enumerate the nonzero-valued maps on the chain 1 < 3 < 2 with m = 1
    # by hand: the only alphabet is {1-, 1}, and the chain needs a strict
    # step somewhere it cannot have one
    chain = Poset.chain((1, 3, 2))
    assert len(enumerate_bounded(chain, 1, "nonzero")) == 0
    assert op_star(3, 1, 1) == 0


def test_out_of_range_statistic_counts_zero():
    assert op_lazy(4, 3, 5) == 0
    assert op_lazy(4, -1, 5) == 0
    assert op_star(4, 2, 5) == 0
    assert op_plus(3, 3, 5) == 0
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
    assert op_poset(v_poset, 1, "all") == op_lazy(3, statistic((1, 3, 2), "lpk"), 1) + op_lazy(
        3, statistic((3, 1, 2), "lpk"), 1
    )


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
                assert coefficients == [op_chain(n, k, m, mode) for m in range(8)]
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
    # the tables behind the class products are compose(s, t)
    for n in range(1, 5):
        perms = list(all_permutations(n))
        seen = []
        for t, table in orderpoly._right_multiplication_tables(perms):
            seen.append(t)
            assert [perms[a] for a in table] == [compose(s, t) for s in perms], t
        assert sorted(seen) == perms


def test_class_products_count_factorizations():
    # N_ij(pi) = #{(sigma, tau) : sigma tau = pi, stat sigma = i, stat tau = j}
    for n, kind in itertools.product(range(1, 5), ("lpk", "pk", "des")):
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
    assert op_vector(8, 3, "all")[0] == op_lazy(8, 0, 3)
    # an increasing class vector fails at its first rise
    monkeypatch.setattr(orderpoly, "op_vector", lambda n, m, mode: [3, 5, 4])
    report = check_monotonicity(8, 3, "all")
    assert not report.ok and report.checked == 1
    assert report.to_dict() == {
        "identity": "monotonicity", "n": 8, "m": 3, "mode": "all", "ok": False,
        "checked": 1, "first_mismatch": {"k": 0, "lhs": "3", "rhs": "5"},
    }


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
