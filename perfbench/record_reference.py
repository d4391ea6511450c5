"""Record reference.json: every exact value the workloads can ask for,
computed by the package in this checkout.

    python3 perfbench/record_reference.py

Run it only at a commit whose results are trusted (the file in the
repository was recorded when the benchmark was added); the benchmark
checks later commits against it.  Takes a few minutes, mostly the n = 500
lazy and standard cells.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import run
import workloads as w


def cli_output(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return out.getvalue()


def main() -> int:
    cli = run.import_cli()
    columns = {52: w.GRID_M + tuple(w.window_m(52, c) for c in w.WINDOW_C)}
    for n in w.WINDOW_N[1:]:
        columns[n] = tuple(w.window_m(n, c) for c in w.WINDOW_C)
    tv = {}
    for n, ms in columns.items():
        for model in w.MODELS:
            for distance in w.DISTANCES:
                argv = ["tv-table", "--n", str(n), "--m", ",".join(map(str, ms)), "--model", model,
                        "--distance", distance, "--exact", "--format", "json"]
                got_ms, rows = w.parse_tv_table(cli_output(cli, argv), "json")
                for m, cell in zip(got_ms, rows[w.LABELS[model]]):
                    value = Fraction(cell)
                    tv[w.tv_key(n, model, m, distance)] = {
                        "exact": w.digest(w.fraction_key(value)),
                        "fixed4": cli.format_fixed(value),
                    }
                print(" ".join(argv), file=sys.stderr, flush=True)
    cycles = {}
    for n in w.CYCLE_N:
        for m in w.CYCLE_M:
            out = cli_output(cli, ["cycles", "--n", str(n), "--m", str(m), "--format", "json"])
            cycles[w.cycles_key(n, m)] = w.digest(w.cycles_canonical(w.parse_cycles(out, "json")))
    fixed_points = {}
    for n in w.FIXED_POINT_N:
        for m in w.FIXED_POINT_M:
            out = cli_output(cli, ["fixed-points", "--n", str(n), "--m", str(m), "--format", "json"])
            fixed_points[w.fixed_points_key(n, m)] = w.digest(
                w.fraction_key(w.parse_fixed_points(out, "json"))
            )
    reference = {
        "recorded_at": run.git_commit(),
        "tv": tv,
        "cycles": cycles,
        "fixed_points": fixed_points,
    }
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
