"""Shipping gate: one test per acceptance criterion.

Every criterion is an exact integer/rational identity, a frozen reference
value with its tolerance written down, or a seeded statistical test with
its significance level written down.  Each test prints one
``[ACCEPTANCE] <name>: PASS`` line (run with -s to see them); a failure
is a red test with the offending case in the assertion message.
"""

import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache

from scipy import stats

from shuffle_lab.analysis import (
    asymptotic_compare,
    count_table,
    cycle_distribution,
    expected_fixed_points,
    tv_distance,
    verify_joint_lpk_cycle,
)
from shuffle_lab.cli import format_fixed
from shuffle_lab.models import (
    MODELS,
    ShuffleSpec,
    convolve,
    decks,
    exact_prob,
    group_algebra_product_check,
    simulate_shelf,
)
from shuffle_lab.orderpoly import (
    check_monotonicity,
    mode_statistic,
    op_chain,
    op_of_perm,
    verify_decomposition,
)
from shuffle_lab.permutations import (
    all_permutations,
    cycle_type_partition,
    fixed_points,
    format_permutation,
)
from shuffle_lab.posets import Poset, all_posets
from shuffle_lab.ppartitions import (
    MODES,
    enumerate_bounded,
    parse_value,
    sorting_permutation,
)

from .oracles import ScriptedRNG, bottom_deal_permutation


def _pass(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. frozen 52-card total-variation grid, 4 decimal places, time-boxed

REFERENCE_M = (10, 15, 20, 25, 30, 35, 50, 100, 150, 200, 250, 300)
REFERENCE_TV = {
    "shelf-lazy": "1 .9372 .7184 .5164 .3936 .3003 .1509 .0392 .0177 .0100 .0064 .0045",
    "shelf-standard": "1 .9427 .7201 .5440 .3910 .2993 .1586 .0409 .0183 .0103 .0066 .0046",
    "shelf-strict": "1 1 .9981 .9825 .9468 .8932 .7336 .4199 .2857 .2131 .1709 .1438",
}


def test_tv_reference_grid_within_one_ulp():
    start = time.perf_counter()
    checked = 0
    for model, row in REFERENCE_TV.items():
        for m, cell in zip(REFERENCE_M, row.split()):
            got = tv_distance(ShuffleSpec(52, m, model))
            assert abs(got - Fraction(cell)) <= Fraction(1, 10**4), (
                model,
                m,
                cell,
                float(got),
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 36
    assert elapsed < 60.0
    _pass("tv-reference-grid", f"36 cells at 4 d.p. in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. two lazy passes with m=10 are one pass with m=220, both ways


def test_two_lazy_passes_collapse_to_one():
    once = ShuffleSpec(52, 10, "shelf-lazy")
    assert convolve(once, once) == ShuffleSpec(52, 220, "shelf-lazy")
    for n in range(1, 7):
        report = group_algebra_product_check(n, 10, 10, "shelf-lazy")
        assert report.ok, report.to_dict()
    assert format_fixed(tv_distance(ShuffleSpec(52, 220, "shelf-lazy"))) == "0.0083"
    _pass("repeated-pass", "law equality exact for n<=6; tv(52, m=220) = 0.0083")


# ---------------------------------------------------------------------------
# 3. worked nine-card shuffles and the reference sort/bottom-deal


def test_worked_shuffles_reproduce_reference_decks(scripted_draws):
    cases = [
        ("shelf-strict", 3, [2, 0, 0, 1, 1, 1, 2, 2, 1], "234569178", (2, 4, 3)),
        ("shelf-standard", 2, [0, 1, 2, 2, 1, 3, 2, 0, 0], "981257436", (3, 2, 3, 1)),
        ("shelf-lazy", 2, [1, 2, 3, 0, 2, 4, 3, 0, 1], "489125736", (2, 2, 2, 2, 1)),
    ]
    for model, m, script, deck, composition in cases:
        rng = ScriptedRNG(script)
        outcome, perm = simulate_shelf(ShuffleSpec(9, m, model), rng)
        assert format_permutation(perm) == deck, model
        assert outcome.composition == composition, model
        assert rng.exhausted()

    f = tuple(parse_value(v) for v in "1- 0 0 2- 1- 1 0 2 2".split())
    assert format_permutation(sorting_permutation(f)) == "237516489"
    assert format_permutation(bottom_deal_permutation(f)) == "732156498"
    _pass("worked-examples", "three decks + sort and bottom-deal, exact strings")


# ---------------------------------------------------------------------------
# 4. identity suite: decomposition, monotonicity, disjoint union, totals


def test_identity_suite():
    for n in range(1, 6):
        for mode in MODES:
            for k in range(4):
                for l in range(4):
                    report = verify_decomposition(n, k, l, mode)
                    assert report.ok, report.to_dict()

    for n in range(1, 9):
        for mode in MODES:
            for m in range(6):
                report = check_monotonicity(n, m, mode)
                assert report.ok, report.to_dict()

    # bounded maps of every poset on <= 5 points split by linear extension;
    # chain pieces are shared across posets, so cache them
    @lru_cache(maxsize=None)
    def piece(p, m, mode):
        return frozenset(enumerate_bounded(Poset.chain(p), m, mode))

    seen = 0
    for n in range(1, 6):
        for poset in all_posets(n):
            seen += 1
            extensions = poset.linear_extensions()
            for mode in MODES:
                for m in range(3):
                    whole = set(enumerate_bounded(poset, m, mode))
                    union: set = set()
                    total = 0
                    for ext in extensions:
                        part = piece(ext, m, mode)
                        union |= part
                        total += len(part)
                    assert total == len(whole), (poset, mode, m)
                    assert union == whole, (poset, mode, m)
    assert seen == 1 + 3 + 19 + 219 + 4231

    bases = {"all": lambda m: 2 * m + 1, "nonzero": lambda m: 2 * m, "positive": lambda m: m}
    for n in range(1, 9):
        for mode, base in bases.items():
            table = count_table(n, mode_statistic(mode))
            for m in range(5):
                total = sum(
                    size * op_chain(n, k, m, mode) for k, size in enumerate(table)
                )
                assert total == base(m) ** n, (n, mode, m)
    _pass(
        "identity-suite",
        "decomposition n<=5; monotonicity n<=8; 4473 posets split; totals n<=8",
    )


# ---------------------------------------------------------------------------
# 5. closed-form chain counts equal enumeration


def test_chain_closed_forms_equal_enumeration():
    for n in range(1, 7):
        for p in all_permutations(n):
            chain = Poset.chain(p)
            for mode in MODES:
                for m in range(4):
                    assert op_of_perm(p, m, mode) == len(
                        enumerate_bounded(chain, m, mode)
                    ), (p, mode, m)
    _pass("closed-form-oracle", "chains n<=6, m<=3, all modes, exact")


# ---------------------------------------------------------------------------
# 6. cycle machinery: type laws, fixed-point means, joint refinement


def test_cycle_machinery_exact():
    for n in range(1, 7):
        for m in range(1, 4):
            spec = ShuffleSpec(n, m, "shelf-lazy")
            law: dict[tuple[int, ...], Fraction] = {}
            mean = Fraction(0)
            for p in all_permutations(n):
                pr = exact_prob(p, spec)
                mean += pr * fixed_points(p)
                if pr:
                    part = cycle_type_partition(p)
                    law[part] = law.get(part, Fraction(0)) + pr
            assert cycle_distribution(spec) == law, (n, m)
            assert expected_fixed_points(n, m) == mean, (n, m)
    assert expected_fixed_points(2, 1) == Fraction(10, 9)
    for n in range(1, 6):
        report = verify_joint_lpk_cycle(n, 3)
        assert report.ok, report.to_dict()
    _pass("cycle-machinery", "type laws and means n<=6 m<=3; joint n<=5 m<=3, exact")


# ---------------------------------------------------------------------------
# 7. all six samplers against their exact laws, 10^6 draws each; two
# worker processes only draw and count, the parent tests the counts

CHI_SQUARE_SEEDS = {
    "shelf-lazy": 101,
    "shelf-standard": 102,
    "shelf-strict": 103,
    "riffle-updown": 104,
    "riffle-downup": 105,
    "riffle-classic": 106,
}
CHI_SQUARE_N, CHI_SQUARE_M, CHI_SQUARE_DRAWS = 6, 2, 10**6


def _sampled_deck_counts(model: str) -> dict:
    """How often each deck order came up in the model's seeded draws."""
    spec = ShuffleSpec(CHI_SQUARE_N, CHI_SQUARE_M, model)
    rng = random.Random(CHI_SQUARE_SEEDS[model])
    counts = dict.fromkeys(all_permutations(spec.n), 0)
    for deck in decks(spec, rng, CHI_SQUARE_DRAWS):  # the generator simulate runs
        counts[deck] += 1
    return counts


def test_samplers_follow_exact_laws():
    draws = CHI_SQUARE_DRAWS
    spawn = multiprocessing.get_context("spawn")  # fresh workers: nothing inherited
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        sampled = dict(zip(MODELS, pool.map(_sampled_deck_counts, MODELS)))
    details = []
    for model, counts in sampled.items():
        spec = ShuffleSpec(CHI_SQUARE_N, CHI_SQUARE_M, model)
        probs = {p: exact_prob(p, spec) for p in all_permutations(spec.n)}
        for p, pr in probs.items():
            if pr == 0:
                assert counts[p] == 0, (model, p)
        support = sorted(p for p, pr in probs.items() if pr)
        result = stats.chisquare(
            [counts[p] for p in support], [float(probs[p] * draws) for p in support]
        )
        assert result.pvalue > 1e-3, (model, result.pvalue)
        details.append(f"{model} p={result.pvalue:.3f}")
    _pass("sampler-chi-square", "; ".join(details))


# ---------------------------------------------------------------------------
# 8. distances in the m ~ c n^{3/2} scaling window, beside their limits


def test_scaling_window_distances_are_ordered():
    lines = []
    for c in (0.5, 1.0, 2.0):
        report = asymptotic_compare(52, c)
        assert report.m == round(c * 52**1.5)
        assert 0 < report.tv <= report.sep <= report.linf
        assert math.isfinite(report.limit_sep) and math.isfinite(report.limit_linf)
        lines.append(
            f"c={c}: m={report.m} sep={float(report.sep):.4f} vs {report.limit_sep:.4f}, "
            f"linf={float(report.linf):.4f} vs {report.limit_linf:.4f}"
        )
    _pass("scaling-window", " | ".join(lines))
