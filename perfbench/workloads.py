"""The three benchmark workloads: seeded command lists for the
``shuffle-lab`` CLI, and the checks each command's output must pass.

A workload is one *round*: a list of ops (CLI argv, expected exit code,
output check).  The seed picks the values that should not change what a
round costs -- simulate seeds, scaling constants, output formats, twin
models, the order of the ops -- while the sizes and the op mix are fixed
per workload, so runs on different seeds measure the same amount of work.

Reference values come from ``reference.json`` (see record_reference.py):
every exact number the generators can ask for, recorded from the package
as it stood when the benchmark was added.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SHELF_MODELS = ("shelf-lazy", "shelf-standard", "shelf-strict")
RIFFLE_MODELS = ("riffle-updown", "riffle-downup", "riffle-classic")
MODELS = SHELF_MODELS + RIFFLE_MODELS
# shelf model and its inverse-law riffle twin share every distance
FAMILIES = (
    ("shelf-lazy", "riffle-updown"),
    ("shelf-standard", "riffle-downup"),
    ("shelf-strict", "riffle-classic"),
)
LABELS = {
    "shelf-lazy": "Lazy",
    "shelf-standard": "Standard",
    "shelf-strict": "Strict",
    "riffle-updown": "Riffle-updown",
    "riffle-downup": "Riffle-downup",
    "riffle-classic": "Riffle-classic",
}
DISTANCES = ("tv", "sep", "linf")
FORMATS = ("text", "csv", "json")

# the CLI's default tv-table columns
GRID_M = (10, 15, 20, 25, 30, 35, 50, 100, 150, 200, 250, 300)
# frozen 52-card tv grid at 4 places, copied from the acceptance tests
FROZEN_TV = {
    "shelf-lazy": "1 .9372 .7184 .5164 .3936 .3003 .1509 .0392 .0177 .0100 .0064 .0045",
    "shelf-standard": "1 .9427 .7201 .5440 .3910 .2993 .1586 .0409 .0183 .0103 .0066 .0046",
    "shelf-strict": "1 1 .9981 .9825 .9468 .8932 .7336 .4199 .2857 .2131 .1709 .1438",
}

# scaling window m = round(c n^(3/2)); n = 1000 is left out because one
# lazy tv cell there takes about 66 s
WINDOW_N = (52, 200, 500)
WINDOW_C = (0.5, 1, 2)

SAMPLE_M = 10  # shelf count of the casino machine Diaconis-Fulman-Holmes analyse
SAMPLE_COUNTS = {6: 10000, 52: 2000, 1000: 200}  # decks per simulate command
# (format, --stats) styles; deck size j gives model i style (i + 2j) % 6, so
# every size renders each style once and the per-size cost is seed-free
SAMPLE_STYLES = tuple((fmt, stats) for fmt in FORMATS for stats in (False, True))

CYCLE_N = (20, 25)  # cycles deck sizes
CYCLE_M = (1, 2, 3)
FIXED_POINT_N = (13, 26, 52)
FIXED_POINT_M = (2, 5, 10)
VERIFY_CHECKS = 9  # checks the full `verify` suite runs


def window_m(n: int, c: float) -> int:
    return round(c * n**1.5)


class CheckError(Exception):
    """An op's output disagrees with what the workload expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fraction_key(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def tv_key(n: int, model: str, m: int, distance: str) -> str:
    return f"tv-table {n} {model} {m} {distance}"


def cycles_key(n: int, m: int) -> str:
    return f"cycles {n} {m}"


def fixed_points_key(n: int, m: int) -> str:
    return f"fixed-points {n} {m}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv, the exit code it must return, and a
    check that raises CheckError when the captured stdout is wrong."""

    argv: tuple[str, ...]
    expect_rc: int
    check: Callable[[str, dict], None]


# ---------------------------------------------------------------------------
# tv-table


def parse_tv_table(out: str, fmt: str) -> tuple[list[int], dict[str, list[str]]]:
    """(m columns, label -> rendered cells) from any tv-table format."""
    if fmt == "json":
        payload = json.loads(out)
        return [int(m) for m in payload["m"]], {k: list(v) for k, v in payload["rows"].items()}
    lines = out.splitlines()
    require(len(lines) >= 2, "tv-table printed no rows")
    if fmt == "csv":
        head = lines[0].split(",")
        require(head[0] == "model", f"bad csv header {lines[0]!r}")
        ms, rows = head[1:], [line.split(",") for line in lines[1:]]
    else:
        ms, rows = lines[0].split(), [line.split() for line in lines[1:]]
    return [int(m) for m in ms], {row[0]: row[1:] for row in rows}


def tv_table_op(
    n: int,
    ms: tuple[int, ...],
    models: tuple[str, ...],
    distance: str,
    fmt: str,
    exact: bool,
    frozen: bool = False,
) -> Op:
    """A tv-table command; ``models`` is the three shelf models (the CLI
    default, no --model flag) or a single model."""
    argv = ["tv-table"]
    if n != 52:
        argv += ["--n", str(n)]
    if ms != GRID_M:
        argv += ["--m", ",".join(map(str, ms))]
    if models != SHELF_MODELS:
        (model,) = models
        argv += ["--model", model]
    if distance != "tv":
        argv += ["--distance", distance]
    if exact:
        argv.append("--exact")
    if fmt != "text":
        argv += ["--format", fmt]

    def check(out: str, ref: dict) -> None:
        got_ms, rows = parse_tv_table(out, fmt)
        require(got_ms == list(ms), f"m columns {got_ms} != {list(ms)}")
        require(list(rows) == [LABELS[x] for x in models], f"rows {list(rows)}")
        for model in models:
            cells = rows[LABELS[model]]
            require(len(cells) == len(ms), f"{model}: {len(cells)} cells")
            for m, cell in zip(ms, cells):
                want = ref["tv"][tv_key(n, model, m, distance)]
                if exact:
                    got = digest(fraction_key(Fraction(cell)))
                    require(got == want["exact"], f"{model} m={m}: exact value differs")
                else:
                    require(cell == want["fixed4"], f"{model} m={m}: {cell} != {want['fixed4']}")
            if frozen:
                for m, cell, grid in zip(ms, cells, FROZEN_TV[model].split()):
                    require(Fraction(cell) == Fraction(grid), f"{model} m={m}: {cell} off the frozen grid")

    return Op(tuple(argv), 0, check)


def exact_distances(rng: random.Random) -> list[Op]:
    """Distance tables: the 52-card grid, riffle tables and the scaling
    window at n = 52, 200, 500, as multi-cell tables (the CLI's thread
    pool) and single cells.

    Which model family and which distance each costly op computes is fixed,
    because a change to the exact engine may speed up one family or one
    distance (sep and linf need only the extreme classes) and not another;
    the seed picks only shelf-or-riffle twin, c where the cells are cheap,
    output format and --exact.
    """
    def fmt() -> str:
        return rng.choice(FORMATS)

    def coin() -> bool:
        return rng.random() < 0.5

    def twin(family: tuple[str, str]) -> tuple[str]:
        return (rng.choice(family),)

    window = {n: tuple(window_m(n, c) for c in WINDOW_C) for n in WINDOW_N}
    # the 52-card grid; its four tv tables hold the round's median op
    ops = [tv_table_op(52, GRID_M, SHELF_MODELS, "tv", f, False, frozen=True) for f in FORMATS]
    ops += [
        tv_table_op(52, GRID_M, SHELF_MODELS, "tv", "json", True),
        tv_table_op(52, GRID_M, SHELF_MODELS, "sep", fmt(), coin()),
        tv_table_op(52, GRID_M, SHELF_MODELS, "linf", fmt(), coin()),
    ]
    for model, distance in zip(RIFFLE_MODELS, rng.sample(DISTANCES, len(DISTANCES))):
        ops.append(tv_table_op(52, GRID_M, (model,), distance, fmt(), coin()))
    for n in (52, 200):
        # each family once and each distance once, paired by the seed
        distances = rng.sample(DISTANCES, len(DISTANCES))
        for family, distance in zip(FAMILIES, distances):
            ops.append(tv_table_op(n, (rng.choice(window[n]),), twin(family), distance, fmt(), coin()))
    ops.append(tv_table_op(52, window[52], SHELF_MODELS, rng.choice(DISTANCES), fmt(), coin()))
    lazy, standard, strict = FAMILIES
    # six ops of 0.5-1 s each: three-c tables (the thread pool) at n = 200
    # and n = 500, and a strict tv cell at each c for n = 500; with the
    # heavy cell above them, the op_tail_ms rank falls inside this block
    ops.append(tv_table_op(200, window[200], twin(lazy), "tv", fmt(), coin()))
    ops.append(tv_table_op(200, window[200], twin(standard), rng.choice(DISTANCES[1:]), fmt(), coin()))
    ops.append(tv_table_op(500, window[500], twin(strict), rng.choice(DISTANCES[1:]), fmt(), coin()))
    for m in window[500]:
        ops.append(tv_table_op(500, (m,), twin(strict), "tv", fmt(), coin()))
    # one lazy/standard-family tv cell at c = 1: about half of the round
    ops.append(tv_table_op(500, (window_m(500, 1),), twin(rng.choice((lazy, standard))), "tv", fmt(), coin()))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# simulate


def deck_stats(deck: list[int]) -> tuple[int, int, int]:
    """(descents, peaks, left peaks), recomputed independently."""
    des = sum(1 for a, b in zip(deck, deck[1:]) if a > b)
    pk = sum(1 for a, b, c in zip(deck, deck[1:], deck[2:]) if a < b > c)
    lpk = pk + (1 if len(deck) >= 2 and deck[0] > deck[1] else 0)
    return des, pk, lpk


def parse_deck(text: str, n: int) -> list[int]:
    return [int(v) for v in text.split(",")] if n > 9 else [int(ch) for ch in text]


def parse_simulate(out: str, fmt: str, n: int, stats: bool) -> list[tuple[list[int], tuple | None]]:
    """[(deck, (des, pk, lpk) or None)] from any simulate format."""
    rows = []
    if fmt == "json":
        for sample in json.loads(out)["samples"]:
            got = (sample["des"], sample["pk"], sample["lpk"]) if stats else None
            rows.append((parse_deck(sample["permutation"], n), got))
        return rows
    lines = out.splitlines()
    if fmt == "csv":
        want_head = "index,permutation" + (",des,pk,lpk" if stats else "")
        require(lines[0] == want_head, f"bad csv header {lines[0]!r}")
        for index, line in enumerate(lines[1:]):
            fields = line.split(",")
            require(fields[0] == str(index), f"row {index} has index {fields[0]}")
            cells = fields[1:-3] if stats else fields[1:]
            got = tuple(int(v) for v in fields[-3:]) if stats else None
            rows.append((parse_deck(",".join(cells), n), got))
        return rows
    for line in lines:
        deck, *annotations = line.split()
        got = None
        if stats:
            values = dict(part.split("=") for part in annotations)
            got = (int(values["des"]), int(values["pk"]), int(values["lpk"]))
        rows.append((parse_deck(deck, n), got))
    return rows


def simulate_op(model: str, n: int, seed: int, fmt: str, stats: bool) -> Op:
    count = SAMPLE_COUNTS[n]
    argv = ["simulate", "--model", model, "--n", str(n), "--m", str(SAMPLE_M),
            "--seed", str(seed), "--count", str(count)]
    if stats:
        argv.append("--stats")
    if fmt != "text":
        argv += ["--format", fmt]

    def check(out: str, ref: dict) -> None:
        if fmt == "json":
            head = json.loads(out)
            require((head["model"], head["n"], head["m"], head["seed"]) == (model, n, SAMPLE_M, seed),
                    "json header does not echo the command")
        rows = parse_simulate(out, fmt, n, stats)
        require(len(rows) == count, f"{len(rows)} decks, expected {count}")
        full = list(range(1, n + 1))
        for deck, got in rows:
            require(sorted(deck) == full, f"deck is not a permutation of 1..{n}")
            if stats:
                require(got == deck_stats(deck), f"stats {got} != {deck_stats(deck)}")

    return Op(tuple(argv), 0, check)


def sampling(rng: random.Random) -> list[Op]:
    """simulate for all six models at n = 6, 52, 1000."""
    ops = []
    for j, n in enumerate(SAMPLE_COUNTS):
        for i, model in enumerate(MODELS):
            fmt, stats = SAMPLE_STYLES[(i + 2 * j) % len(SAMPLE_STYLES)]
            ops.append(simulate_op(model, n, rng.randrange(2**31), fmt, stats))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify / cycles / fixed-points


def verify_op(extra: tuple[str, ...], fmt: str, expect_rc: int = 0) -> Op:
    argv = ("verify",) + extra + (("--format", fmt) if fmt != "text" else ())
    corrupt = "--self-test-corrupt" in extra
    checks = 1 if corrupt or "--only" in extra else VERIFY_CHECKS

    def check(out: str, ref: dict) -> None:
        if fmt == "json":
            results = [(r["check"], r["ok"]) for r in json.loads(out)]
        else:
            results = []
            for line in out.splitlines():
                status, name = line.split(":", 1)[0].split(" ", 1)
                require(status in ("PASS", "FAIL"), f"bad verify line {line!r}")
                results.append((name, status == "PASS"))
        require(len(results) == checks, f"{len(results)} checks, expected {checks}")
        for name, ok in results:
            # the corrupted self test must fail; every real check must pass
            require(ok != corrupt, f"{name}: {'PASS' if ok else 'FAIL'}")

    return Op(argv, expect_rc, check)


def parse_cycles(out: str, fmt: str) -> dict[tuple[int, ...], Fraction]:
    def parts(text: str) -> tuple[int, ...]:
        return tuple(int(v) for v in text.split("+"))

    if fmt == "json":
        return {
            tuple(row["type"]): Fraction(int(row["prob_num"]), int(row["prob_den"]))
            for row in json.loads(out)["types"]
        }
    lines = out.splitlines()
    if fmt == "csv":
        require(lines[0] == "type,prob_num,prob_den,prob", f"bad csv header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        return {parts(t): Fraction(int(a), int(b)) for t, a, b, _ in rows}
    table = {}
    for line in lines:
        fields = line.split()
        table[parts(fields[0])] = Fraction(fields[2].strip("()"))
    return table


def cycles_canonical(table: dict[tuple[int, ...], Fraction]) -> str:
    return "\n".join(
        f"{'+'.join(map(str, part))}:{fraction_key(p)}" for part, p in sorted(table.items())
    )


def cycles_op(n: int, m: int, fmt: str) -> Op:
    argv = ("cycles", "--n", str(n), "--m", str(m)) + (("--format", fmt) if fmt != "text" else ())

    def check(out: str, ref: dict) -> None:
        table = parse_cycles(out, fmt)
        require(all(sum(part) == n for part in table), "a cycle type is not a partition of n")
        require(sum(table.values()) == 1, "cycle-type masses do not sum to 1")
        require(digest(cycles_canonical(table)) == ref["cycles"][cycles_key(n, m)],
                f"cycle law n={n} m={m} differs from the reference")

    return Op(argv, 0, check)


def parse_fixed_points(out: str, fmt: str) -> Fraction:
    if fmt == "json":
        payload = json.loads(out)
        return Fraction(int(payload["expected_num"]), int(payload["expected_den"]))
    if fmt == "csv":
        _, _, num, den, _ = out.splitlines()[1].split(",")
        return Fraction(int(num), int(den))
    return Fraction(out.split(": ", 1)[1].split(" = ")[0])


def fixed_points_op(n: int, m: int, fmt: str) -> Op:
    argv = ("fixed-points", "--n", str(n), "--m", str(m)) + (("--format", fmt) if fmt != "text" else ())

    def check(out: str, ref: dict) -> None:
        got = digest(fraction_key(parse_fixed_points(out, fmt)))
        require(got == ref["fixed_points"][fixed_points_key(n, m)],
                f"expected fixed points n={n} m={m} differ from the reference")

    return Op(argv, 0, check)


def identities(rng: random.Random) -> list[Op]:
    """The identity verifier and the exact cycle-structure reports."""
    def fmt() -> str:
        return rng.choice(FORMATS)

    def text_or_json() -> str:
        return rng.choice(("text", "json"))

    ops = [
        verify_op((), text_or_json()),
        verify_op(("--only", "decomposition", "--n", "6"), text_or_json()),
        verify_op(("--only", "monotonicity", "--n", "40"), text_or_json()),
        verify_op(("--self-test-corrupt",), text_or_json(), expect_rc=1),
    ]
    # n = 25 laws in every format: this block holds the median op and, as
    # only the decomposition and verify ops cost more, the op_tail_ms rank
    ops += [cycles_op(25, m, f) for m in CYCLE_M for f in FORMATS]
    ops += [cycles_op(20, m, fmt()) for m in CYCLE_M]
    # two cheap ops more than costly ones, so the median op sits mid-block
    ops += [fixed_points_op(n, rng.choice(FIXED_POINT_M), fmt()) for n in rng.sample(FIXED_POINT_N, 2)]
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "exact-distances": exact_distances,
    "sampling": sampling,
    "identities": identities,
}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
