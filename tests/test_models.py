"""The six shuffle models: samplers, exact laws, and convolution."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest
from scipy import stats

from shuffle_lab import models
from shuffle_lab import ppartitions as pp
from shuffle_lab.models import (
    MODELS,
    RIFFLE_MODELS,
    SHELF_MODELS,
    ShuffleSpec,
    convolve,
    decks,
    exact_distribution,
    exact_prob,
    group_algebra_product_check,
    simulate_riffle,
    simulate_shelf,
)
from shuffle_lab.permutations import (
    all_permutations,
    descents,
    format_permutation,
    inverse,
    statistic,
)

from .oracles import (
    ScriptedRNG,
    brute_statistic_counts,
    compose_loop_convolution,
    draw_tree_law,
    iter_shelf_placements,
    randrange_draws,
    simulate_riffle_by_scan,
    simulate_riffle_uniform,
    simulate_shelf_by_sort,
)

SHELF_OF_RIFFLE = dict(zip(RIFFLE_MODELS, SHELF_MODELS))


def test_model_table():
    assert SHELF_MODELS == ("shelf-lazy", "shelf-standard", "shelf-strict")
    assert RIFFLE_MODELS == ("riffle-updown", "riffle-downup", "riffle-classic")
    # each riffle is the inverse-law twin of the shelf machine on its alphabet
    for riffle, shelf in SHELF_OF_RIFFLE.items():
        assert MODELS[riffle].mode == MODELS[shelf].mode
        assert MODELS[riffle].riffle and not MODELS[shelf].riffle


def test_spec_validation():
    with pytest.raises(ValueError):
        ShuffleSpec(4, 2, "overhand")
    with pytest.raises(ValueError):
        ShuffleSpec(0, 2, "shelf-lazy")
    with pytest.raises(ValueError):
        ShuffleSpec(4, -1, "shelf-lazy")
    # only the full-alphabet models keep an outcome at m = 0
    assert ShuffleSpec(4, 0, "shelf-lazy").total_outcomes == 1
    assert ShuffleSpec(4, 0, "riffle-updown").total_outcomes == 1
    for model in ("shelf-standard", "shelf-strict", "riffle-downup", "riffle-classic"):
        with pytest.raises(ValueError):
            ShuffleSpec(4, 0, model)


def test_spec_rejects_bools_and_floats():
    # bools are ints to Python and floats fail late in the exact engine
    for n, m in ((True, 1), (5, False), (5.0, 2), (5, 2.0)):
        with pytest.raises(ValueError, match="must be ints"):
            ShuffleSpec(n, m, "shelf-lazy")


def test_spec_properties():
    per_card = {
        "shelf-lazy": 7,
        "shelf-standard": 6,
        "shelf-strict": 3,
        "riffle-updown": 7,
        "riffle-downup": 6,
        "riffle-classic": 3,
    }
    kinds = {"all": "lpk", "nonzero": "pk", "positive": "des"}
    for model, choices in per_card.items():
        spec = ShuffleSpec(5, 3, model)
        assert spec.choices_per_card == choices
        assert spec.total_outcomes == choices**5
        assert spec.statistic_kind == kinds[spec.mode]


def test_exact_prob_examples():
    strict = ShuffleSpec(4, 1, "shelf-strict")
    for p in all_permutations(4):
        assert exact_prob(p, strict) == (1 if p == (1, 2, 3, 4) else 0)
    lazy = ShuffleSpec(2, 1, "shelf-lazy")
    assert exact_prob((1, 2), lazy) == Fraction(5, 9)
    assert exact_prob((2, 1), lazy) == Fraction(4, 9)
    classic = ShuffleSpec(3, 2, "riffle-classic")
    for p in all_permutations(3):
        des_inv = descents(inverse(p))[0]
        assert exact_prob(p, classic) == Fraction(comb(2 + 3 - des_inv - 1, 3), 8)


def test_exact_prob_normalizes():
    for model in MODELS:
        spec = ShuffleSpec(4, 2, model)
        assert sum(exact_prob(p, spec) for p in all_permutations(4)) == 1


def test_exact_prob_riffles_read_the_inverse():
    p = (2, 4, 1, 3)  # lpk 1, but its inverse has lpk 2
    assert exact_prob(p, ShuffleSpec(4, 1, "shelf-lazy")) == Fraction(4, 81)
    assert exact_prob(p, ShuffleSpec(4, 1, "riffle-updown")) == 0
    with pytest.raises(ValueError):
        exact_prob((1, 2), ShuffleSpec(3, 1, "shelf-lazy"))


def test_exact_prob_rejects_non_permutations():
    for model in ("shelf-lazy", "riffle-updown"):
        spec = ShuffleSpec(2, 1, model)
        for p in ((1, 1), (2, 3), (0, 1)):
            with pytest.raises(ValueError, match="not a permutation"):
                exact_prob(p, spec)


def test_full_outcome_space_reproduces_exact_probs():
    for model, n, m in itertools.product(SHELF_MODELS, range(1, 6), (1, 2)):
        spec = ShuffleSpec(n, m, model)
        counts = Counter(
            pp.sorting_permutation(f) for f in iter_shelf_placements(spec)
        )
        for p in all_permutations(n):
            assert counts[p] == exact_prob(p, spec) * spec.total_outcomes


def test_riffle_shelf_inverse_duality():
    for riffle, shelf in SHELF_OF_RIFFLE.items():
        for n, m in itertools.product(range(1, 7), (1, 2)):
            a, b = ShuffleSpec(n, m, riffle), ShuffleSpec(n, m, shelf)
            for p in all_permutations(n):
                assert exact_prob(p, a) == exact_prob(inverse(p), b)


def test_simulate_shelf_scripted_worked_examples(scripted_draws):
    # strict, m=3: shelves (3,1,1,2,2,2,3,3,2), deck 234569178
    rng = ScriptedRNG([2, 0, 0, 1, 1, 1, 2, 2, 1])
    outcome, perm = simulate_shelf(ShuffleSpec(9, 3, "shelf-strict"), rng)
    assert format_permutation(perm) == "234569178"
    assert outcome.composition == (2, 4, 3)
    assert rng.exhausted()

    # standard, m=2: placements (1t,1b,2t,2t,1b,2b,2t,1t,1t), deck 981257436
    rng = ScriptedRNG([0, 1, 2, 2, 1, 3, 2, 0, 0])
    outcome, perm = simulate_shelf(ShuffleSpec(9, 2, "shelf-standard"), rng)
    assert format_permutation(perm) == "981257436"
    assert outcome.composition == (3, 2, 3, 1)
    assert rng.exhausted()

    # lazy, m=2: placements (1t,1b,2t,0,1b,2b,2t,0,1t), deck 489125736
    rng = ScriptedRNG([1, 2, 3, 0, 2, 4, 3, 0, 1])
    outcome, perm = simulate_shelf(ShuffleSpec(9, 2, "shelf-lazy"), rng)
    assert format_permutation(perm) == "489125736"
    assert outcome.composition == (2, 2, 2, 2, 1)
    assert rng.exhausted()


# powers of two, one either side of them, and widths past one 32-bit word
DRAW_WIDTHS = (1, 2, 3, 4, 5, 20, 21, 31, 32, 33, 1000)
DRAW_WIDTHS += (2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_draws_equal_randrange(seed):
    # models._draws inlines randrange's rejection loop: the same draws and
    # the same rng state, also where one draw takes several 32-bit words
    cases = [(w,) * count for w in DRAW_WIDTHS for count in (0, 1, 6, 52, 1000)]
    cases += [range(n, 0, -1) for n in (0, 1, 2, 6, 52, 1000)]
    fast, slow = random.Random(seed), random.Random(seed)
    for widths in cases:
        assert models._draws(fast, widths) == randrange_draws(slow, widths), widths[:1]
        assert fast.getstate() == slow.getstate(), widths[:1]


# draws per model at each deck size in the reference comparison, spread
# evenly over its m values (at least 133 per m at n = 52 and 1000)
REFERENCE_DRAWS = {1: 2_000, 2: 2_000, 6: 50_000, 52: 800, 1000: 800}


@pytest.mark.parametrize("n", sorted(REFERENCE_DRAWS))
@pytest.mark.parametrize("model", MODELS)
def test_samplers_equal_reference_samplers(model, n):
    # the dealing samplers consume the rng as the reference
    # samplers' randrange calls do, so one seed gives the same outcome and
    # deck, draw for draw, and leaves the rng in one state; m = 8 and 16
    # give widths from a power of two (no rejection) to one past it (most)
    riffle = MODELS[model].riffle
    sampler = simulate_riffle if riffle else simulate_shelf
    reference = simulate_riffle_by_scan if riffle else simulate_shelf_by_sort
    # m = 0 leaves a value only in the full alphabet
    ms = [m for m in (0, 1, 2, 8, 10, 16) if pp.alphabet_size(m, MODELS[model].mode)]
    for m in ms:
        spec = ShuffleSpec(n, m, model)
        fast, slow = random.Random(100 * n + m), random.Random(100 * n + m)
        for _ in range(REFERENCE_DRAWS[n] // len(ms)):
            assert sampler(spec, fast) == reference(spec, slow), spec
        assert fast.getstate() == slow.getstate(), spec


# passes per case in the deck generator comparison
DECKS_COUNTS = {1: 50, 2: 50, 6: 50, 52: 10, 1000: 2}


@pytest.mark.parametrize("n", sorted(DECKS_COUNTS))
@pytest.mark.parametrize("model", MODELS)
def test_decks_equal_sampler_calls(model, n):
    # decks draws exactly the deck orders of count sampler calls and leaves
    # the rng in the same state; zero passes draw nothing
    sampler = simulate_riffle if MODELS[model].riffle else simulate_shelf
    for m in (0, 1, 2, 8, 10, 16):
        if not pp.alphabet_size(m, MODELS[model].mode):
            continue
        spec = ShuffleSpec(n, m, model)
        for count in (0, 1, DECKS_COUNTS[n]):
            fast, slow = random.Random(100 * n + m), random.Random(100 * n + m)
            drawn = list(decks(spec, fast, count))
            assert drawn == [sampler(spec, slow)[1] for _ in range(count)], (spec, count)
            assert fast.getstate() == slow.getstate(), (spec, count)


def test_simulate_shelf_outcome_is_consistent():
    spec = ShuffleSpec(6, 2, "shelf-standard")
    rng = random.Random(11)
    for _ in range(200):
        outcome, perm = simulate_shelf(spec, rng)
        assert perm == outcome.permutation
        assert sum(outcome.composition) == 6
        f = pp.ppartition_from_shelf_outcome(outcome, spec.mode)
        assert pp.sorting_permutation(f) == perm


def test_simulate_requires_matching_family():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        simulate_shelf(ShuffleSpec(4, 2, "riffle-classic"), rng)
    with pytest.raises(ValueError):
        simulate_riffle(ShuffleSpec(4, 2, "shelf-lazy"), rng)


def test_simulate_riffle_outcome_is_consistent():
    for model in RIFFLE_MODELS:
        spec = ShuffleSpec(6, 2, model)
        rng = random.Random(13)
        for _ in range(200):
            outcome, perm = simulate_riffle(spec, rng)
            assert perm == outcome.permutation
            assert sum(outcome.composition) == 6
            # the pair is a genuine machine outcome: the conversion accepts it
            f = pp.riffle_outcome_to_ppartition(outcome.composition, perm, spec.mode)
            assert pp.sorting_permutation(f) == inverse(perm)


def _chi_square_against_exact(sampler, spec, samples, seed):
    rng = random.Random(seed)
    counts = Counter()
    for _ in range(samples):
        _, perm = sampler(spec, rng)
        counts[perm] += 1
    observed, expected = [], []
    for p in all_permutations(spec.n):
        probability = exact_prob(p, spec)
        if probability == 0:
            assert counts[p] == 0, f"impossible deck order {p} was sampled"
        else:
            observed.append(counts[p])
            expected.append(float(probability) * samples)
    return stats.chisquare(observed, expected).pvalue


def test_simulate_shelf_statistics():
    spec = ShuffleSpec(4, 1, "shelf-lazy")
    assert _chi_square_against_exact(simulate_shelf, spec, 50_000, 2001) > 1e-3


def test_simulate_riffle_statistics():
    spec = ShuffleSpec(4, 1, "riffle-updown")
    assert _chi_square_against_exact(simulate_riffle, spec, 50_000, 2002) > 1e-3


def test_riffle_interleaving_samplers_agree():
    # proportional dropping and a uniformly random interleaving induce the
    # same law; both must match the exact distribution
    spec = ShuffleSpec(4, 1, "riffle-downup")
    assert _chi_square_against_exact(simulate_riffle, spec, 50_000, 2003) > 1e-3
    assert _chi_square_against_exact(simulate_riffle_uniform, spec, 50_000, 2004) > 1e-3


def test_riffle_cut_is_multinomial():
    spec = ShuffleSpec(10, 3, "riffle-classic")
    rng = random.Random(2005)
    samples = 100_000
    counts = Counter()
    for _ in range(samples):
        outcome, _ = simulate_riffle(spec, rng)
        counts[outcome.composition] += 1
    observed, expected = [], []
    tail_observed, tail_expected = 0, 0.0
    for cut in itertools.product(range(11), repeat=3):
        if sum(cut) != 10:
            continue
        probability = comb(10, cut[0]) * comb(10 - cut[0], cut[1]) / 3**10
        if probability * samples < 20:
            tail_observed += counts[cut]
            tail_expected += probability * samples
        else:
            observed.append(counts[cut])
            expected.append(probability * samples)
    observed.append(tail_observed)
    expected.append(tail_expected)
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_classic_single_pile_is_identity():
    spec = ShuffleSpec(5, 1, "riffle-classic")
    rng = random.Random(3)
    for _ in range(20):
        outcome, perm = simulate_riffle(spec, rng)
        assert perm == (1, 2, 3, 4, 5)
        assert outcome.composition == (5,)



# Exact laws of the shipped samplers: draw_tree_law runs every sequence of
# draws through the sampler code, so the deck law it returns is the code's
# own, and it must equal exact_prob exactly (the chi-square gates above
# cannot see a small bias).


def _exact_law(spec):
    law = {p: exact_prob(p, spec) for p in all_permutations(spec.n)}
    return {p: value for p, value in law.items() if value}


def _draw_contract(spec):
    """The widths a pass asks for: n placements on the alphabet, then for
    a riffle one drop among the t cards left, t = n, ..., 1."""
    width = pp.alphabet_size(spec.m, spec.mode)
    drops = tuple(range(spec.n, 0, -1)) if spec.riffle else ()
    return (width,) * spec.n + drops


def _riffle_law_by_cuts(spec):
    """A riffle's law from one sorted cut per composition of n.

    simulate_riffle reads its n cut draws only through sorted(...), so all
    orderings of one cut give the same deck for the same drops.  The sorted
    cut therefore stands for all multinomial(a) of them, each of
    probability width^-n, and only the n! drop sequences are enumerated."""
    width, n = pp.alphabet_size(spec.m, spec.mode), spec.n
    law, widths_seen = Counter(), set()
    for cut in itertools.product(range(n + 1), repeat=width):
        if sum(cut) != n:
            continue
        orderings = factorial(n) // prod(map(factorial, cut))
        prefix = [j for j, size in enumerate(cut) for _ in range(size)]
        part, widths = draw_tree_law(simulate_riffle, spec, prefix, Fraction(orderings, width**n))
        law.update(part)
        widths_seen |= widths
        # the argument, checked on one reordering: the reversed cut deals the same deck
        drops = [0] * n
        assert simulate_riffle(spec, ScriptedRNG(prefix[::-1] + drops)) == simulate_riffle(
            spec, ScriptedRNG(prefix + drops)
        )
    return law, widths_seen


@pytest.mark.parametrize("model", SHELF_MODELS)
def test_shelf_law_from_every_draw_sequence(model, scripted_draws):
    spec = ShuffleSpec(6, 2, model)
    law, widths_seen = draw_tree_law(simulate_shelf, spec)
    assert widths_seen == {_draw_contract(spec)}
    assert law == _exact_law(spec)


@pytest.mark.parametrize("model", RIFFLE_MODELS)
def test_riffle_law_from_every_draw_sequence(model, scripted_draws):
    spec = ShuffleSpec(5, 1, model)
    law, widths_seen = draw_tree_law(simulate_riffle, spec)
    assert widths_seen == {_draw_contract(spec)}
    assert law == _exact_law(spec)


@pytest.mark.parametrize("model", RIFFLE_MODELS)
def test_riffle_law_from_sorted_cuts(model, scripted_draws):
    spec = ShuffleSpec(6, 2, model)
    law, widths_seen = _riffle_law_by_cuts(spec)
    assert widths_seen == {_draw_contract(spec)}
    assert law == _exact_law(spec)


def _narrow_shelf(spec, rng):
    # every placement draw one narrower than the alphabet (needs scripted_draws)
    return simulate_shelf(spec, SimpleNamespace(randrange=lambda k: rng.randrange(k - 1)))


def _unreversed_shelf(spec, rng):
    # barred buckets read in arrival order, not reversed
    values = pp.alphabet(spec.m, spec.mode)
    buckets = [[] for _ in values]
    for card in range(1, spec.n + 1):
        buckets[rng.randrange(len(values))].append(card)
    return None, tuple(card for bucket in buckets for card in bucket)


def _top_drop_riffle(spec, rng):
    # cards fall from the top of the chosen pile, not the bottom
    values = pp.alphabet(spec.m, spec.mode)
    owner = sorted(rng.randrange(len(values)) for _ in range(spec.n))
    piles = pp.cut_piles(values, [owner.count(j) for j in range(len(values))])
    bottom_up = [piles[owner.pop(rng.randrange(t))].pop(0) for t in range(spec.n, 0, -1)]
    return None, tuple(reversed(bottom_up))


@pytest.mark.parametrize(
    "sampler, spec",
    [
        (_narrow_shelf, ShuffleSpec(4, 2, "shelf-lazy")),
        (_unreversed_shelf, ShuffleSpec(4, 2, "shelf-lazy")),
        (_top_drop_riffle, ShuffleSpec(4, 1, "riffle-updown")),
    ],
)
def test_scripted_law_catches_a_broken_sampler(sampler, spec, scripted_draws):
    law, _ = draw_tree_law(sampler, spec)
    assert sum(law.values()) == 1
    assert law != _exact_law(spec)

def test_exact_distribution_examples():
    assert exact_distribution(ShuffleSpec(2, 1, "shelf-lazy")) == ((1, 1), [5, 4], 9, [5, 4])
    # normalization holds for a larger strict table too
    counts, ops, total, masses = exact_distribution(ShuffleSpec(6, 3, "shelf-strict"))
    assert sum(masses) == total == 3**6
    assert masses == [c * op for c, op in zip(counts, ops)]


def test_exact_distribution_equals_brute_force():
    # every valid spec with n <= 6, m <= 3: class sizes by scanning S_n,
    # and T exact_prob(pi) is the chain count of pi's class, read off pi
    # for a shelf and off pi^-1 for a riffle
    for model, n, m in itertools.product(MODELS, range(1, 7), range(4)):
        if m == 0 and MODELS[model].mode != "all":
            continue  # m = 0 leaves only the lazy alphabet any outcomes
        spec = ShuffleSpec(n, m, model)
        counts, ops, total, masses = exact_distribution(spec)
        kind = spec.statistic_kind
        assert counts == brute_statistic_counts(n, kind), spec
        assert total == spec.total_outcomes and sum(masses) == total, spec
        for p in all_permutations(n):
            k = statistic(inverse(p) if spec.riffle else p, kind)
            assert total * exact_prob(p, spec) == ops[k], (spec, p)


def test_lazy_support_is_bounded_by_shelf_count():
    _, ops, _, _ = exact_distribution(ShuffleSpec(6, 2, "shelf-lazy"))
    assert ops[3] == 0
    assert ops[2] > 0
    _, ops, total, masses = exact_distribution(ShuffleSpec(52, 10, "shelf-lazy"))
    assert all(op == 0 for op in ops[11:]) and len(ops) > 11
    assert sum(masses) == total


def test_convolve_rules():
    assert convolve(ShuffleSpec(52, 10, "shelf-lazy"), ShuffleSpec(52, 10, "shelf-lazy")).m == 220
    assert convolve(ShuffleSpec(8, 4, "shelf-strict"), ShuffleSpec(8, 4, "shelf-strict")).m == 16
    assert convolve(ShuffleSpec(8, 2, "shelf-standard"), ShuffleSpec(8, 3, "shelf-standard")).m == 12
    assert convolve(ShuffleSpec(8, 2, "riffle-updown"), ShuffleSpec(8, 3, "riffle-updown")).m == 17
    assert convolve(ShuffleSpec(8, 0, "shelf-lazy"), ShuffleSpec(8, 3, "shelf-lazy")).m == 3
    with pytest.raises(ValueError):
        convolve(ShuffleSpec(8, 2, "shelf-lazy"), ShuffleSpec(9, 2, "shelf-lazy"))
    with pytest.raises(ValueError):
        convolve(ShuffleSpec(8, 2, "shelf-lazy"), ShuffleSpec(8, 2, "shelf-strict"))
    with pytest.raises(ValueError):
        convolve(ShuffleSpec(8, 2, "shelf-lazy"), ShuffleSpec(8, 2, "riffle-updown"))


def test_group_algebra_product_check():
    for model in SHELF_MODELS:
        assert group_algebra_product_check(4, 1, 1, model).ok
    assert group_algebra_product_check(5, 1, 2, "shelf-lazy").ok
    assert group_algebra_product_check(4, 0, 2, "shelf-lazy").ok
    report = group_algebra_product_check(3, 2, 3, "riffle-downup")
    assert report.ok and report.checked == 6 and report.to_dict()["ok"] is True
    with pytest.raises(ValueError):
        group_algebra_product_check(7, 1, 1, "shelf-lazy")
    with pytest.raises(ValueError, match="unknown model"):
        group_algebra_product_check(4, 1, 1, "lazy")


def _report_or_error(check, *args):
    try:
        return check(*args)
    except ValueError:
        return ValueError


def test_group_algebra_check_equals_compose_loop():
    # the class-product table against the full n!^2 compose loop: the same
    # report, and a ValueError wherever the loop raises one (k or l = 0
    # leaves a nonzero- or positive-alphabet machine without outcomes)
    raised = 0
    for n, model in itertools.product(range(1, 6), MODELS):
        for k, l in itertools.product(range(4), repeat=2):
            want = _report_or_error(compose_loop_convolution, n, k, l, model)
            assert _report_or_error(group_algebra_product_check, n, k, l, model) == want
            raised += want is ValueError
    assert raised == 5 * 4 * 7


def test_group_algebra_check_catches_a_riffle_law_without_inverse(monkeypatch):
    # a riffle exact_prob that reads the deck order instead of its inverse
    # (at n <= 3 every permutation shares its statistics with its inverse):
    # the check reports the same first mismatch as the compose loop
    original = models.exact_prob
    monkeypatch.setattr(
        models, "exact_prob", lambda p, spec: original(inverse(p) if spec.riffle else p, spec)
    )
    for model in RIFFLE_MODELS:
        report = group_algebra_product_check(4, 1, 2, model)
        assert not report.ok and report.first_mismatch is not None
        assert report == compose_loop_convolution(4, 1, 2, model)
    for model in SHELF_MODELS:
        assert group_algebra_product_check(4, 1, 2, model).ok
