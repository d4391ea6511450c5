"""Command-line front end: sampling, distance tables, identity
verification, and cycle-structure reports.

Exit codes: 0 success, 1 verification failure, 2 usage, I/O or memory
error.  Output is deterministic for a fixed seed and config.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import analysis, models, orderpoly, ppartitions
from .analysis import exact_str
from .permutations import descents, peaks, permutation_formatter

__all__ = ["main", "entry"]

TABLE_M_DEFAULT = "10,15,20,25,30,35,50,100,150,200,250,300"

_DISTANCES = {
    "tv": analysis.tv_distance,
    "sep": analysis.sep_distance,
    "linf": analysis.linf_distance,
}


def format_fixed(value: Fraction, places: int = 4) -> str:
    """Exact decimal rendering, round half to even at the last place, in
    integer arithmetic (Fraction arithmetic took most of a cycles table's
    output time)."""
    num, den = value.as_integer_ratio()
    scaled, rest = divmod(num * 10**places, den)
    if 2 * rest > den or 2 * rest == den and scaled % 2:
        scaled += 1
    whole, part = divmod(abs(scaled), 10**places)
    return f"{'-' if scaled < 0 else ''}{whole}.{part:0{places}d}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    # random.Random seeds from |seed|, so -5 would draw the decks of 5
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    spec = models.ShuffleSpec(args.n, args.m, args.model)
    seed = args.seed
    if seed is None:  # draw one and report it, so the run can be repeated
        seed = random.randrange(2**32)
        if args.format != "json":
            print(f"seed: {seed}", file=sys.stderr)
    rng = random.Random(seed)
    render = permutation_formatter(spec.n)
    names = ("index", "permutation") + (("des", "pk", "lpk") if args.stats else ())

    def rows():  # one tuple per deck, drawn as the writer asks for it
        for index, perm in enumerate(models.decks(spec, rng, args.count)):
            row = (index, render(perm))
            if args.stats:
                pk = peaks(perm)
                # left_peaks(perm), without counting the peaks again
                row += (descents(perm)[0], pk, pk + (spec.n >= 2 and perm[0] > perm[1]))
            yield row

    if args.format == "json":
        header = {"model": spec.model, "n": spec.n, "m": spec.m, "seed": seed, "samples": []}
        head, tail = json.dumps(header, indent=2).rsplit("[]", 1)
        # the bytes json.dumps(payload, indent=2) gives, one template per
        # sample; a permutation string holds only digits and commas, so it
        # needs no escaping
        template = "    {\n%s\n    }" % ",\n".join(
            f'      "{name}": ' + ('"%s"' if name == "permutation" else "%d") for name in names
        )
        samples = ",\n".join(template % row for row in rows())
        text = head + (f"[\n{samples}\n  ]" if samples else "[]") + tail + "\n"
    elif args.format == "csv":
        text = ",".join(names) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows())
    else:
        suffix = "  des={} pk={} lpk={}" if args.stats else ""
        text = "".join(row[1] + suffix.format(*row[2:]) + "\n" for row in rows())
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# tv-table


def cmd_tv_table(args: argparse.Namespace) -> int:
    ms = [int(part) for part in args.m.split(",") if part.strip()]
    if not ms:
        raise ValueError("empty m list")
    model_list = [args.model] if args.model else list(models.SHELF_MODELS)
    distance = _DISTANCES[args.distance]
    render = exact_str if args.exact else format_fixed
    rows = {  # label -> rendered cells; one distance call per cell
        models.MODELS[model].label: [
            render(distance(models.ShuffleSpec(args.n, m, model))) for m in ms
        ]
        for model in model_list
    }
    header = [str(m) for m in ms]
    if args.format == "json":
        payload = {"n": args.n, "distance": args.distance, "m": ms, "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        table = [("model", header), *rows.items()]
        text = "".join(",".join([label, *cells]) + "\n" for label, cells in table)
    else:
        table = [("", header), *rows.items()]
        label_w = max(len(label) for label, _ in table)
        col_w = max(len(cell) for _, cells in table for cell in cells)
        text = "".join(
            label.ljust(label_w) + "  " + "  ".join(cell.rjust(col_w) for cell in cells) + "\n"
            for label, cells in table
        )
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify


# name -> (default n, largest n run (None: not exhaustive, any n), the
# check's IdentityReports at size n, PASS summary).  The generators call
# each check through its module, where the benchmark's tracer wraps it.
_CHECKS = {
    "convention": (4, 4, lambda n: (
        orderpoly.check_class_symmetry(size, mode)
        for size in range(1, n + 1) for mode in ppartitions.MODES),
        "class-product tables are symmetric (N_ij = N_ji) for n<={n}, all statistics, "
        "{checked} cases: the identities hold under either composition convention"),
    "decomposition": (4, orderpoly.EXHAUSTIVE_CAP, lambda n, perturbation=0: (
        orderpoly.verify_decomposition(size, k, l, mode, perturbation=perturbation)
        for size in range(1, n + 1) for mode in ppartitions.MODES
        for k in range(3) for l in range(3)),
        "two-pass decomposition holds up to n={n}, k,l<=2, all modes"),
    "monotonicity": (8, None, lambda n: (
        orderpoly.check_monotonicity(size, m, mode)
        for size in range(1, n + 1) for mode in ppartitions.MODES for m in range(6)),
        "chain counts weakly decrease in the statistic up to n={n}, m<=5"),
    "group-algebra": (4, 4, lambda n: (
        models.group_algebra_product_check(n, k, l, model)
        for model in models.MODELS for k, l in ((1, 1), (1, 2))),
        "distribution convolution matches the single pass at n={n}"),
    "fundamental": (4, 4, lambda n: [orderpoly.check_linear_extension_split(n, 2)],
        "bounded partitions split by linear extension on all posets, n<={n}"),
    "oracle": (4, 5, lambda n: (
        orderpoly.check_closed_forms(size, 2) for size in range(1, n + 1)),
        "closed forms equal enumeration on every chain, n<={n}, m<=2"),
    "cycles": (5, 5, lambda n: (
        analysis.check_cycle_distribution(size, m) for size in range(1, n + 1) for m in (1, 2)),
        "cycle tables match exhaustive totals, n<={n}, m<=2"),
    "fixed-points": (5, 5, lambda n: (
        analysis.check_expected_fixed_points(size, m)
        for size in range(1, n + 1) for m in (1, 2)),
        "fixed-point formula matches exhaustive means, n<={n}, m<=2"),
    "joint": (4, 4, lambda n: [analysis.verify_joint_lpk_cycle(n, 2)],
        "joint statistic/cycle identity holds, n<={n}, m<=2"),
}


def _run_check(name: str, n: int, **corrupt: int) -> dict:
    """One verify result: the check's reports at n (capped at its largest
    size), their summed ``checked``, and the first report that fails."""
    _, largest, reports, summary = _CHECKS[name]
    size = n if largest is None else min(n, largest)
    checked = 0
    for report in reports(size, **corrupt):
        checked += report.checked
        if not report.ok:
            mismatch = report.to_dict()
            return {"ok": False, "detail": f"mismatch: {mismatch}", "checked": checked,
                    "report": mismatch}
    return {"ok": True, "detail": summary.format(n=size, checked=checked), "checked": checked}


def cmd_verify(args: argparse.Namespace) -> int:
    names = [args.only] if args.only else list(_CHECKS)
    cap = orderpoly.EXHAUSTIVE_CAP
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.n is not None and args.n > cap and any(_CHECKS[name][1] is not None for name in names):
        raise ValueError(f"exhaustive verification refuses n > {cap}")
    if args.self_test_corrupt and args.only not in (None, "decomposition"):
        raise ValueError(f"--self-test-corrupt corrupts decomposition, not --only {args.only}")
    if args.self_test_corrupt:
        corrupted = _run_check("decomposition", args.n or 3, perturbation=1)
        results = [{"check": "decomposition[corrupted]", **corrupted}]
    else:
        results = [
            {"check": name, **_run_check(name, _CHECKS[name][0] if args.n is None else args.n)}
            for name in names
        ]
    if args.format == "json":
        text = json.dumps(results, indent=2) + "\n"
    else:
        text = "".join(
            f"{'PASS' if r['ok'] else 'FAIL'} {r['check']}: {r['detail']}\n" for r in results
        )
    _emit(text, args.output)
    return 0 if all(r["ok"] for r in results) else 1


# ---------------------------------------------------------------------------
# cycles / fixed-points


def cmd_cycles(args: argparse.Namespace) -> int:
    spec = models.ShuffleSpec(args.n, args.m, "shelf-lazy")
    table = analysis.cycle_distribution(spec)
    if args.format == "json":
        rows = [
            {"type": list(part), "prob_num": exact_str(p.numerator),
             "prob_den": exact_str(p.denominator)}
            for part, p in table.items()
        ]
        payload = {"model": spec.model, "n": spec.n, "m": spec.m, "types": rows}
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["type,prob_num,prob_den,prob"]
        for part, p in table.items():
            lines.append(
                f"{'+'.join(map(str, part))},{exact_str(p.numerator)},"
                f"{exact_str(p.denominator)},{format_fixed(p, 6)}"
            )
        text = "\n".join(lines) + "\n"
    else:
        labels = ["+".join(map(str, part)) for part in table]
        width = max(map(len, labels))
        lines = [
            f"{label.ljust(width)}  {format_fixed(p, 6)}  ({exact_str(p)})"
            for label, p in zip(labels, table.values())
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_fixed_points(args: argparse.Namespace) -> int:
    value = analysis.expected_fixed_points(args.n, args.m)
    if args.format == "json":
        payload = {
            "n": args.n,
            "m": args.m,
            "expected_num": exact_str(value.numerator),
            "expected_den": exact_str(value.denominator),
            "expected": float(value),
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = (
            f"n,m,expected_num,expected_den,expected\n{args.n},{args.m},"
            f"{exact_str(value.numerator)},{exact_str(value.denominator)},{format_fixed(value, 6)}\n"
        )
    else:
        text = (
            f"expected fixed points after one lazy pass (n={args.n}, m={args.m}): "
            f"{exact_str(value)} = {format_fixed(value, 6)}\n"
        )
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffle-lab",
        description="Exact and Monte Carlo analysis of shelf and riffle shuffles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("simulate", help="draw shuffled decks")
    p.add_argument("--model", choices=models.MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--stats", action="store_true", help="annotate des/pk/lpk")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tv-table", help="distance-to-uniform table over m")
    p.add_argument("--n", type=int, default=52)
    p.add_argument("--m", default=TABLE_M_DEFAULT, help="comma-separated m values")
    p.add_argument("--model", choices=models.MODELS, default=None,
                   help="single model (default: the three shelf models)")
    p.add_argument("--distance", choices=tuple(_DISTANCES), default="tv")
    p.add_argument("--exact", action="store_true", help="print exact rationals")
    add_common(p)
    p.set_defaults(func=cmd_tv_table)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--only", choices=tuple(_CHECKS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--self-test-corrupt", action="store_true",
                   help="negative control: perturb a constant and expect failure")
    p.add_argument("--format", choices=("text", "json"), default="text")  # no CSV form
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cycles", help="cycle-type law of the lazy model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("fixed-points", help="expected fixed points, lazy model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_fixed_points)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a failed allocation raises it with no message
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
