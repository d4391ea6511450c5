"""Count tables, distances to uniform, and lazy-model cycle structure."""

import itertools
import math
from fractions import Fraction

import pytest

from shuffle_lab import analysis, models
from shuffle_lab.analysis import (
    SERIES_CAP,
    _two_sided_power,
    asymptotic_compare,
    check_cycle_distribution,
    check_expected_fixed_points,
    count_table,
    cycle_count_series,
    cycle_distribution,
    exact_str,
    expected_fixed_points,
    f_im,
    linf_distance,
    sep_distance,
    tv_distance,
    verify_joint_lpk_cycle,
)
from shuffle_lab.models import MODELS, ShuffleSpec, exact_distribution, exact_prob
from shuffle_lab.orderpoly import statistic_range
from shuffle_lab.permutations import all_permutations, cycle_type_partition, fixed_points

from .oracles import (
    ProductSeries,
    brute_statistic_counts,
    fraction_distances,
    parse_exact,
    pow_product_cycle_series,
    recurrence_count_rows,
    sum_expected_fixed_points,
)


def test_count_table_examples():
    assert count_table(4, "lpk") == (1, 18, 5)
    assert count_table(2, "lpk") == (1, 1)
    assert count_table(3, "pk") == (4, 2)
    assert count_table(3, "des") == (1, 4, 1)
    assert count_table(1, "des") == (1,)
    with pytest.raises(ValueError):
        count_table(0, "des")
    with pytest.raises(ValueError):
        count_table(3, "maj")


def test_count_tables_match_brute_force():
    for n in range(1, 10):
        for kind in ("lpk", "pk", "des"):
            assert count_table(n, kind) == brute_statistic_counts(n, kind)


@pytest.mark.parametrize("kind", ["lpk", "pk", "des"])
def test_count_table_equals_row_recurrence(kind):
    # the uncached body, so the test leaves no 300 tables in the cache
    for n, row in zip(range(1, 301), recurrence_count_rows(kind)):
        assert count_table.__wrapped__(n, kind) == row, n


def test_count_table_totals_and_boundaries():
    for n in range(1, 53):
        for kind in ("lpk", "pk", "des"):
            table = count_table(n, kind)
            assert sum(table) == math.factorial(n)
            assert len(table) == len(statistic_range(kind, n))
        assert count_table(n, "lpk")[0] == 1


def test_distance_examples():
    lazy = ShuffleSpec(2, 1, "shelf-lazy")
    assert tv_distance(lazy) == Fraction(1, 18)
    assert sep_distance(lazy) == Fraction(1, 9)
    assert linf_distance(lazy) == Fraction(1, 9)
    # strict single-shelf: the identity keeps all the mass
    assert sep_distance(ShuffleSpec(5, 1, "shelf-strict")) == 1
    assert tv_distance(ShuffleSpec(5, 1, "shelf-strict")) == 1 - Fraction(1, 120)


def test_distance_ordering_and_riffle_reuse():
    shelf_of_riffle = {
        "riffle-updown": "shelf-lazy",
        "riffle-downup": "shelf-standard",
        "riffle-classic": "shelf-strict",
    }
    for model, n, m in itertools.product(MODELS, (2, 5, 8), (1, 2, 3)):
        spec = ShuffleSpec(n, m, model)
        tv, sep, linf = tv_distance(spec), sep_distance(spec), linf_distance(spec)
        assert 0 <= tv <= sep <= linf
        if model in shelf_of_riffle:
            twin = ShuffleSpec(n, m, shelf_of_riffle[model])
            assert (tv, sep, linf) == (
                tv_distance(twin),
                sep_distance(twin),
                linf_distance(twin),
            )


def test_distances_equal_fraction_per_class_formula():
    for model, n in itertools.product(MODELS, range(1, 31)):
        ms = {1, 2, 5, round(n**1.5)} | ({0} if model in ("shelf-lazy", "riffle-updown") else set())
        for m in sorted(ms):
            spec = ShuffleSpec(n, m, model)
            got = (tv_distance(spec), sep_distance(spec), linf_distance(spec))
            assert got == fraction_distances(spec), (model, n, m)


@pytest.mark.parametrize(
    "model, n",
    [(model, n) for n in (100, 200) for model in MODELS]
    + [("shelf-lazy", 500), ("shelf-strict", 500)],
)
def test_distances_equal_fraction_distances_at_large_n(model, n):
    for m in (3, round(n**1.5)) if n < 500 else (round(n**1.5),):
        spec = ShuffleSpec(n, m, model)
        got = (tv_distance(spec), sep_distance(spec), linf_distance(spec))
        assert got == fraction_distances(spec), (model, n, m)


@pytest.mark.parametrize(
    "law", [tv_distance, sep_distance, linf_distance, exact_distribution]
)
def test_corrupted_class_vector_fails_normalization(monkeypatch, law):
    spec = ShuffleSpec(6, 2, "shelf-standard")
    law(spec)  # the honest class vector passes
    honest = models.op_vector

    def bump_middle(n, m, mode):
        ops = honest(n, m, mode)
        ops[1] += 1  # the extremes k = 0 and k_max keep their values
        return ops

    monkeypatch.setattr(models, "op_vector", bump_middle)
    with pytest.raises(ValueError, match="not .* outcomes"):
        law(spec)
    monkeypatch.setattr(models, "op_vector", lambda n, m, mode: honest(n, m, mode)[:-1])
    with pytest.raises(ValueError):
        law(spec)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_scaling_window_linf_gap_shrinks(c):
    """At m = round(c n^(3/2)) the lazy l-infinity distance approaches
    exp(1/(12 c^2)) - 1 (Diaconis-Fulman-Holmes); the gap shrinks
    strictly as the deck doubles.  Separation's gap is not monotone in n
    (at c = 0.5 it grows from n = 26 to 52 and from 208 to 416)."""
    limit = math.exp(1 / (12 * c * c)) - 1
    gaps = [
        abs(float(linf_distance(ShuffleSpec(n, round(c * n**1.5), "shelf-lazy"))) - limit)
        for n in (52, 104, 208, 416)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_extreme_classes_attain_sep_and_linf():
    for model, m in itertools.product(("shelf-lazy", "shelf-standard", "shelf-strict"), (1, 3)):
        spec = ShuffleSpec(8, m, model)
        _, ops, total, _ = exact_distribution(spec)
        nfact = math.factorial(8)
        sep_full = max(1 - Fraction(nfact * op, total) for op in ops)
        linf_full = max(abs(Fraction(nfact * op, total) - 1) for op in ops)
        assert sep_distance(spec) == sep_full
        assert linf_distance(spec) == linf_full


def test_asymptotic_compare():
    report = asymptotic_compare(52, 1.0)
    assert report.m == round(52**1.5)
    assert report.limit_linf == pytest.approx(math.exp(1 / 12) - 1)
    assert report.limit_sep == pytest.approx(1 - math.exp(-1 / 24))
    assert 0 < report.tv <= report.sep <= report.linf
    payload = report.to_dict()
    assert payload["m"] == report.m and "sep_float" in payload
    # the limits collapse to zero as c grows
    wide = asymptotic_compare(8, 1000.0)
    assert wide.limit_linf < 1e-5 and wide.limit_sep < 1e-5
    # at fixed c, larger decks sit closer to the scaling limits
    near = asymptotic_compare(52, 1.0)
    far = asymptotic_compare(26, 1.0)
    assert abs(float(near.sep) - near.limit_sep) <= abs(float(far.sep) - far.limit_sep)
    assert abs(float(near.linf) - near.limit_linf) <= abs(float(far.linf) - far.limit_linf)
    for c in (0, -1.0):
        with pytest.raises(ValueError, match="c must be positive"):
            asymptotic_compare(10, c)


def test_exact_str():
    # str() wherever str() works, so every output written before is unchanged
    for value in [0, 7, -12, 10**4000, -(3**8000) // 7]:
        assert exact_str(value) == str(value)
    for num, den in itertools.product((-5, 0, 1, 3**900), (1, 2, 9, 10**300)):
        assert exact_str(Fraction(num, den)) == str(Fraction(num, den))
    # past the limit, where str() raises
    report = asymptotic_compare(1000, 0.5)
    payload = report.to_dict()
    assert max(len(payload[d]) for d in ("tv", "sep", "linf")) > 4300
    for d in ("tv", "sep", "linf"):
        assert parse_exact(payload[d]) == getattr(report, d)


@pytest.mark.parametrize("n, c", [(52, 0.5), (52, 1.0), (52, 2.0), (200, 1.0)])
def test_asymptotic_compare_builds_one_law(n, c, monkeypatch):
    # the three fields are the three distances, read off one checked law
    built = []
    law = analysis.exact_distribution
    monkeypatch.setattr(
        analysis, "exact_distribution", lambda spec: built.append(spec) or law(spec)
    )
    report = asymptotic_compare(n, c)
    spec = ShuffleSpec(n, report.m, "shelf-lazy")
    assert built == [spec]
    monkeypatch.undo()
    assert report.tv == tv_distance(spec)
    assert report.sep == sep_distance(spec)
    assert report.linf == linf_distance(spec)


def test_f_im_values():
    for m in range(7):
        assert f_im(1, m) == m
        assert f_im(2, m) == m * m + m
    assert f_im(3, 1) == 4
    assert (f_im(1, 5), f_im(2, 5), f_im(3, 1)) == (5, 30, 4)
    for i in range(1, 11):
        for m in range(6):
            value = f_im(i, m)
            assert isinstance(value, int) and value >= 0
    with pytest.raises(ValueError):
        f_im(0, 1)
    with pytest.raises(ValueError):
        f_im(1, -1)


def test_cycle_series_engine():
    geo = ProductSeries.geometric_z1(3)
    assert geo.coeffs == {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1}
    factor = ProductSeries.two_sided_factor(2, 6)
    assert factor.coeffs == {(): 1, (2,): 2, (2, 2): 2, (2, 2, 2): 2}
    product = geo * ProductSeries.two_sided_factor(2, 3)
    assert product.coeffs[(2, 1)] == 2
    assert all(sum(part) <= 3 for part in product.coeffs)
    assert factor.pow(0).coeffs == {(): 1}
    square = factor.pow(2)
    brute = factor * factor
    assert square.coeffs == brute.coeffs
    assert square.degree_slice(4) == {(2, 2): 8}
    # the coefficient recurrence gives the powers that multiplication builds
    assert _two_sided_power(3, 4) == [1, 6, 18, 38]
    for f in range(6):
        power = factor.pow(f)
        assert [power.coeffs.get((2,) * j, 0) for j in range(4)] == _two_sided_power(f, 4)
    with pytest.raises(ValueError):
        factor.pow(-1)
    with pytest.raises(ValueError):
        geo * factor  # truncation mismatch


def test_cycle_count_series_z1_reduction():
    # summing the degree-d coefficients over all cycle types must recover
    # the total number of outcomes on d cards
    for m in (1, 2):
        for d in range(1, 7):
            total = sum(cycle_count_series(d, m).values())
            assert total == (2 * m + 1) ** d


@pytest.mark.parametrize("m", [0, 1, 2, 3, 10])
def test_cycle_count_series_equals_pow_product(m):
    for n in range(1, 13):
        oracle = pow_product_cycle_series(n, m)
        assert oracle.truncation == n
        assert cycle_count_series(n, m) == oracle.degree_slice(n), (n, m)


def test_cycle_count_series_equals_pow_product_at_25():
    assert cycle_count_series(25, 1) == pow_product_cycle_series(25, 1).degree_slice(25)


def test_cycle_count_series_cap():
    with pytest.raises(ValueError):
        cycle_count_series(SERIES_CAP + 1, 1)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            cycle_count_series(n, 1)


def test_cycle_distribution_examples():
    table = cycle_distribution(ShuffleSpec(2, 1, "shelf-lazy"))
    assert table == {(1, 1): Fraction(5, 9), (2,): Fraction(4, 9)}
    assert cycle_distribution(ShuffleSpec(1, 3, "shelf-lazy")) == {(1,): Fraction(1)}
    with pytest.raises(ValueError):
        cycle_distribution(ShuffleSpec(2, 1, "shelf-strict"))


def bumped_series(n, m):
    """cycle_count_series one off at the n-cycle."""
    series = cycle_count_series(n, m)
    series[(n,)] += 1
    return series


def test_cycle_distribution_rejects_a_corrupted_series(monkeypatch):
    monkeypatch.setattr(analysis, "cycle_count_series", bumped_series)
    with pytest.raises(ValueError, match="do not sum to 1"):
        cycle_distribution(ShuffleSpec(4, 1, "shelf-lazy"))


def test_cycle_distribution_matches_exhaustive_totals():
    for n, m in itertools.product(range(1, 6), (1, 2)):
        spec = ShuffleSpec(n, m, "shelf-lazy")
        expected: dict[tuple[int, ...], Fraction] = {}
        for p in all_permutations(n):
            part = cycle_type_partition(p)
            expected[part] = expected.get(part, Fraction(0)) + exact_prob(p, spec)
        expected = {part: value for part, value in expected.items() if value}
        assert cycle_distribution(spec) == expected


def test_cycle_distribution_sums_to_one():
    for n, m in itertools.product((3, 4, 5, 6), (1, 3)):
        table = cycle_distribution(ShuffleSpec(n, m, "shelf-lazy"))
        assert sum(table.values()) == 1
        assert all(p >= 0 for p in table.values())


def test_cycle_distribution_large_m_nears_uniform():
    uniform = {
        (1, 1, 1, 1): Fraction(1, 24),
        (2, 1, 1): Fraction(6, 24),
        (2, 2): Fraction(3, 24),
        (3, 1): Fraction(8, 24),
        (4,): Fraction(6, 24),
    }
    table = cycle_distribution(ShuffleSpec(4, 1000, "shelf-lazy"))
    for part, target in uniform.items():
        assert abs(table[part] - target) < Fraction(1, 1000)


def test_expected_fixed_points_examples():
    assert expected_fixed_points(2, 1) == Fraction(10, 9)
    assert expected_fixed_points(3, 1) == Fraction(11, 9)
    assert expected_fixed_points(4, 10**6) - 1 < Fraction(1, 10**11)
    with pytest.raises(ValueError):
        expected_fixed_points(0, 1)
    with pytest.raises(ValueError):
        expected_fixed_points(3, -1)


def test_expected_fixed_points_matches_exhaustive():
    for n, m in itertools.product(range(1, 6), (1, 2)):
        spec = ShuffleSpec(n, m, "shelf-lazy")
        brute = sum(
            (exact_prob(p, spec) * fixed_points(p) for p in all_permutations(n)),
            Fraction(0),
        )
        assert brute == expected_fixed_points(n, m)



def test_expected_fixed_points_equals_the_term_by_term_sum():
    # the closed form's geometric sum, against adding its terms one by one
    for n, m in itertools.product(range(1, 61), (0, 1, 2, 3, 10, 10**6)):
        assert expected_fixed_points(n, m) == sum_expected_fixed_points(n, m), (n, m)

def test_joint_statistic_cycle_identity(monkeypatch):
    assert verify_joint_lpk_cycle(1, 3).ok
    assert verify_joint_lpk_cycle(3, 1).ok
    report = verify_joint_lpk_cycle(5, 2)
    assert report.ok and report.checked > 0
    assert report.to_dict()["identity"] == "joint-lpk-cycle"
    with pytest.raises(ValueError):
        verify_joint_lpk_cycle(7, 2)
    with pytest.raises(ValueError):
        verify_joint_lpk_cycle(4, 5)
    # m_max = 0 would check no case at all
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        verify_joint_lpk_cycle(3, 0)
    # a series one off at the n-cycle fails there, the last type of m = 1
    monkeypatch.setattr(analysis, "cycle_count_series", bumped_series)
    report = verify_joint_lpk_cycle(4, 2)
    assert not report.ok and report.checked == 5
    assert report.first_mismatch == {"m": 1, "type": [4], "lhs": "20", "rhs": "21"}


def test_check_cycle_distribution(monkeypatch):
    for n, m in itertools.product(range(1, 6), (1, 2)):
        report = check_cycle_distribution(n, m)
        types = cycle_distribution(ShuffleSpec(n, m, "shelf-lazy"))
        assert report.ok and report.checked == len(types), (n, m)
    assert check_cycle_distribution(4, 1).checked == 5  # the partitions of 4
    # a table missing one cycle type fails at that type
    honest = analysis.cycle_distribution

    def missing(spec):
        table = honest(spec)
        del table[(spec.n,)]
        return table

    monkeypatch.setattr(analysis, "cycle_distribution", missing)
    report = check_cycle_distribution(4, 1)
    assert not report.ok and report.checked == 5
    assert report.first_mismatch == {"type": [4], "lhs": "20/81", "rhs": "0"}


def test_check_expected_fixed_points(monkeypatch):
    for n, m in itertools.product(range(1, 6), (1, 2)):
        report = check_expected_fixed_points(n, m)
        assert report.ok and report.checked == 1
    honest = analysis.expected_fixed_points
    monkeypatch.setattr(analysis, "expected_fixed_points", lambda n, m: honest(n, m) + 1)
    report = check_expected_fixed_points(3, 1)
    assert not report.ok
    assert report.to_dict() == {
        "identity": "expected-fixed-points", "n": 3, "m": 1, "ok": False, "checked": 1,
        "first_mismatch": {"lhs": "11/9", "rhs": "20/9"},
    }
