"""The six shuffle models: Monte Carlo samplers, exact per-permutation
probabilities, the checked integer law of one pass, and the
repeated-shuffle convolution rule.

Shelf machines deal n cards one at a time from the top of the deck onto m
shelves.  Per card the machine picks, uniformly:

    shelf-strict   a shelf; the card goes under that shelf's pile   (m ways)
    shelf-standard a shelf and a side, top or bottom                (2m ways)
    shelf-lazy     as standard, plus a bottom-only shelf 0          (2m+1 ways)

The shuffled deck reads shelf 0 (if any), then shelf 1, ..., shelf m, each
pile top to bottom.  Riffle machines cut the deck multinomially into
value-ordered piles (classic: m piles; down-up: 2m, odd piles flipped;
up-down: 2m+1, even piles flipped) and interleave by dropping from pile
bottoms with probability proportional to remaining pile size.  The
samplers take a random.Random and consume it exactly as the same
randrange calls would, so a seed gives the same decks and leaves the
generator in the same state.  decks draws many passes of one machine
with the same per-pass code, building no outcome.

Each model's per-permutation law is carried by the statistic of its
alphabet's mode, read off the permutation (shelf) or off its inverse
(riffle); MODELS holds one row per machine.  exact_distribution builds
that law class by class, in integers checked to sum to one, and every
distance in analysis reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Iterator

from . import ppartitions as pp
from .orderpoly import (
    IdentityReport,
    _factorization_sums,
    compare_cases,
    convolved_bound,
    count_table,
    mode_statistic,
    op_chain,
    op_vector,
)
from .permutations import Perm, check_permutation, inverse, statistic

__all__ = [
    "MODELS",
    "Model",
    "RIFFLE_MODELS",
    "SHELF_MODELS",
    "ShuffleSpec",
    "convolve",
    "decks",
    "exact_distribution",
    "exact_prob",
    "group_algebra_product_check",
    "simulate_riffle",
    "simulate_shelf",
]


@dataclass(frozen=True)
class Model:
    """One machine: its name, its row label in tables, the value alphabet
    it places cards over, and whether its law is read off the inverse of
    the deck order (riffles) rather than the deck order itself (shelves)."""

    name: str
    label: str
    mode: str
    riffle: bool


MODELS = {
    model.name: model
    for model in (
        Model("shelf-lazy", "Lazy", "all", False),
        Model("shelf-standard", "Standard", "nonzero", False),
        Model("shelf-strict", "Strict", "positive", False),
        Model("riffle-updown", "Riffle-updown", "all", True),
        Model("riffle-downup", "Riffle-downup", "nonzero", True),
        Model("riffle-classic", "Riffle-classic", "positive", True),
    )
}
SHELF_MODELS = tuple(name for name, model in MODELS.items() if not model.riffle)
RIFFLE_MODELS = tuple(name for name, model in MODELS.items() if model.riffle)


@dataclass(frozen=True)
class ShuffleSpec:
    """One pass of a shuffle machine: deck size n, parameter m, model name."""

    n: int
    m: int
    model: str

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model: {self.model!r}")
        # bools are ints to Python, floats fail late in the exact engine
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError(f"n and m must be ints, got {self.n!r} and {self.m!r}")
        if self.n < 1 or self.m < 0:
            raise ValueError("require n >= 1 and m >= 0")
        # m = 0 leaves no placements unless the alphabet keeps the 0 value
        if self.choices_per_card == 0:
            raise ValueError(f"m = 0 leaves {self.model!r} with no outcomes")

    @property
    def mode(self) -> str:
        return MODELS[self.model].mode

    @property
    def riffle(self) -> bool:
        """Whether the law is read off the inverse of the deck order."""
        return MODELS[self.model].riffle

    @property
    def statistic_kind(self) -> str:
        return mode_statistic(self.mode)

    @property
    def choices_per_card(self) -> int:
        """Placements per card; outcomes are uniform over choices^n."""
        return pp.alphabet_size(self.m, self.mode)

    @property
    def total_outcomes(self) -> int:
        return self.choices_per_card**self.n


def _require(spec: ShuffleSpec, riffle: bool) -> None:
    if spec.riffle != riffle:
        models = RIFFLE_MODELS if riffle else SHELF_MODELS
        raise ValueError(f"model {spec.model!r} not in {models}")


def _draws(rng, widths) -> list[int]:
    """[rng.randrange(w) for w in widths], w >= 1, without randrange's two
    Python frames per draw: the body of Random._randbelow_with_getrandbits
    inlined, so it makes the same getrandbits calls in the same order and
    leaves ``rng`` in the same state."""
    getrandbits = rng.getrandbits
    out = []
    for w in widths:
        k = w.bit_length()
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        out.append(r)
    return out


def _shelf_piles(values: tuple[int, ...], n: int, rng) -> list[list[int]]:
    """One shelf pass: each card dealt onto the pile of its uniform
    placement; chained, the piles are the deck order."""
    return pp.deal(values, _draws(rng, repeat(len(values), n)))


def _riffle_cut(values: tuple[int, ...], n: int, rng) -> tuple[list[int], list[list[int]]]:
    """The sorted cut of one riffle pass, n uniform pile choices: the owner
    list (each card's pile, in pile order) and the dealt piles."""
    owner = sorted(_draws(rng, repeat(len(values), n)))
    return owner, pp.deal(values, owner)


def _riffle_drops(owner: list[int], piles: list[list[int]], rng) -> Perm:
    """Drop from pile bottoms with probability proportional to pile size:
    a uniform index into the owner list picks a pile by size, and popping
    the index keeps the list true.  Empties both; returns the deck."""
    bottom_up = [piles[owner.pop(r)].pop() for r in _draws(rng, range(len(owner), 0, -1))]
    return tuple(reversed(bottom_up))


def simulate_shelf(spec: ShuffleSpec, rng) -> tuple[pp.ShuffleOutcome, Perm]:
    """One machine pass: deal each card onto the pile of its uniform
    placement; the piles chained are the deck order, their lengths the
    composition.  ``rng`` is a random.Random, consumed exactly as n calls
    of randrange(width) would.  Returns (outcome, deck order)."""
    _require(spec, riffle=False)
    piles = _shelf_piles(pp.alphabet(spec.m, spec.mode), spec.n, rng)
    deck = tuple(chain.from_iterable(piles))
    return pp.ShuffleOutcome(tuple(map(len, piles)), deck), deck


def simulate_riffle(spec: ShuffleSpec, rng) -> tuple[pp.ShuffleOutcome, Perm]:
    """One riffle pass by proportional drops from pile bottoms after a
    sorted cut.  ``rng`` is used as n randrange calls at the alphabet
    width, then at n, ..., 1, would.  Returns (outcome, deck order)."""
    _require(spec, riffle=True)
    owner, piles = _riffle_cut(pp.alphabet(spec.m, spec.mode), spec.n, rng)
    sizes = tuple(map(len, piles))
    deck = _riffle_drops(owner, piles, rng)
    return pp.ShuffleOutcome(sizes, deck), deck


def decks(spec: ShuffleSpec, rng, count: int) -> Iterator[Perm]:
    """The deck orders of ``count`` passes of the spec's machine, each the
    one simulate_shelf or simulate_riffle would return, drawn in the same
    order, so ``rng`` ends in the same state.  The alphabet is looked up
    once, and no composition or outcome is built."""
    values, n = pp.alphabet(spec.m, spec.mode), spec.n
    if spec.riffle:
        for _ in range(count):
            owner, piles = _riffle_cut(values, n, rng)
            yield _riffle_drops(owner, piles, rng)
    else:
        for _ in range(count):
            yield tuple(chain.from_iterable(_shelf_piles(values, n, rng)))


def exact_prob(p: Perm, spec: ShuffleSpec) -> Fraction:
    """Exact probability that one pass produces deck order p.

    Shelf models read the statistic off p, riffle models off inverse(p).
    ValueError unless p is a permutation of {1..n}.
    """
    p = check_permutation(p)
    if len(p) != spec.n:
        raise ValueError(f"size mismatch: {len(p)} vs {spec.n}")
    q = inverse(p) if spec.riffle else p
    k = statistic(q, spec.statistic_kind)
    return Fraction(op_chain(spec.n, k, spec.m, spec.mode), spec.total_outcomes)


def exact_distribution(
    spec: ShuffleSpec,
) -> tuple[tuple[int, ...], list[int], int, list[int]]:
    """The law of one pass in integers: (class sizes, chain counts, T,
    class masses).  Each permutation in statistic class k has probability
    ops[k] / T, T = choices^n, and the class as a whole masses[k] / T,
    with masses[k] = counts[k] ops[k].

    Raises ValueError unless the law sums to one, sum masses == T.
    """
    counts = count_table(spec.n, spec.statistic_kind)
    ops = op_vector(spec.n, spec.m, spec.mode)
    if len(ops) != len(counts):
        raise ValueError(f"{len(ops)} chain counts for {len(counts)} classes")
    masses = list(map(mul, counts, ops))
    total = spec.total_outcomes
    mass = sum(masses)
    if mass != total:
        raise ValueError(f"class counts sum to {mass}, not {total} outcomes")
    return counts, ops, total, masses


def convolve(spec1: ShuffleSpec, spec2: ShuffleSpec) -> ShuffleSpec:
    """The single pass equivalent to spec1 followed by spec2.

    Both passes must be the same model on the same deck; the parameter
    combines as 2kl+k+l (lazy/up-down), 2kl (standard/down-up) or kl
    (strict/classic).
    """
    if spec1.n != spec2.n:
        raise ValueError("deck sizes differ")
    if spec1.model != spec2.model:
        raise ValueError("no combination rule across model families")
    return ShuffleSpec(
        spec1.n, convolved_bound(spec1.m, spec2.m, spec1.mode), spec1.model
    )


def group_algebra_product_check(n: int, k: int, l: int, model: str) -> IdentityReport:
    """Convolve the exact n!-point laws of two passes (parameters k then l)
    and compare with the single convolved pass, exactly.

    The two laws share the denominator of the convolved law, so the sum
    over products st = pi runs in integers, read off the class-product
    table.  A riffle's law reads the inverse, and (st)^-1 = t^-1 s^-1, so
    its sum at pi is the one at pi^-1 with the two passes swapped.  Capped
    at n <= 6.
    """
    if n > 6:
        raise ValueError("exhaustive convolution check capped at n <= 6")
    a, b = ShuffleSpec(n, k, model), ShuffleSpec(n, l, model)
    c = convolve(a, b)
    assert a.total_outcomes * b.total_outcomes == c.total_outcomes
    first, second = (l, k) if a.riffle else (k, l)
    sums, entries = _factorization_sums(n, first, second, a.mode)
    row_of = {p: row for p, _, row in entries}
    cases = ((Fraction(sums[row_of[inverse(p) if a.riffle else p]], c.total_outcomes),
              exact_prob(p, c), p) for p in row_of)
    params = {"n": n, "k": k, "l": l, "model": model}
    return compare_cases("group-algebra-convolution", params, ("pi",), cases)
