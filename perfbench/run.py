"""Closed-loop benchmark of the ``shuffle-lab`` command line.

    python3 perfbench/run.py --workload exact-distances --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client in one process drives
``shuffle_lab.cli.main(argv)`` with stdout captured; the next command
starts only when the previous one has returned.  A workload is a round of
seeded commands (workloads.py); whole rounds repeat until ``--seconds``
have passed.  Before each command the package's lru caches are emptied
and garbage is collected, so every command starts as a fresh
``shuffle-lab`` process would.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced copy of the round, checks that tracing changed no
output, prints the per-layer metrics (per traced round) and writes the
spans to perfbench/out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is the full report (provenance, per-command times, output digest).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_IMPORTS = 9  # fresh-interpreter imports per run; setup_s is their median
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, bad args)."""


def import_cli():
    """Import shuffle_lab.cli from this checkout's src/, never from an
    installed copy."""
    package = SRC / "shuffle_lab"
    if not (package / "cli.py").is_file():
        raise SetupError(f"no package source at {package}")
    sys.path.insert(0, str(SRC))
    import shuffle_lab.cli as cli

    if Path(cli.__file__).resolve().parent != package:
        raise SetupError(f"shuffle_lab imported from {cli.__file__}, not {package}")
    return cli


def measure_setup(imports: int = SETUP_IMPORTS) -> list[float]:
    """Seconds to import shuffle_lab.cli in each of several fresh
    interpreters (after one untimed import that writes the bytecode)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        "import shuffle_lab.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    times = []
    for i in range(imports + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise SetupError(f"fresh import failed: {done.stderr.strip()}")
        if i:
            times.append(float(done.stdout))
    return times


def tail_index(count: int) -> int:
    """Index, in ascending order, of the op at the highest percentile that
    still has at least ten ops beyond it; the median's index when fewer
    than eleven ops ran."""
    if count < 1:
        raise ValueError("no ops")
    return count - 11 if count >= 11 else (count - 1) // 2


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def package_version() -> str | None:
    import tomllib

    try:
        with open(ROOT / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return None


@dataclass
class OpResult:
    argv: tuple[str, ...]
    seconds: float
    error: str | None
    output_digest: str


class Runner:
    """Runs ops against the CLI and records what each one did."""

    def __init__(self, cli, reference: dict):
        self.cli = cli
        self.reference = reference
        self.reported_caches = tracing.cache_objects()
        self.cache_counts = {name: [0, 0] for name in self.reported_caches}
        # every lru cache in the package, so each command starts cold
        self.all_caches = {
            id(v): v
            for module in tracing.package_modules()
            for v in vars(module).values()
            if hasattr(v, "cache_clear")
        }

    def run(self, op: workloads.Op) -> OpResult:
        for cache in self.all_caches.values():
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # the op failed; the benchmark keeps going
            rc, error = None, f"raised {exc!r}"
        seconds = perf_counter() - start
        for name, cache in self.reported_caches.items():
            info = cache.cache_info()
            self.cache_counts[name][0] += info.hits
            self.cache_counts[name][1] += info.misses
        text = out.getvalue()
        if error is None and rc != op.expect_rc:
            error = f"exit code {rc}, expected {op.expect_rc}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                op.check(text, self.reference)
            except Exception as exc:  # malformed output fails the op, whatever the parser raised
                error = f"check failed: {exc!r}"[:300]
        return OpResult(op.argv, seconds, error, workloads.digest(text))

    def round(self, ops: list[workloads.Op]) -> list[OpResult]:
        return [self.run(op) for op in ops]


def error_rate(results: list[OpResult]) -> float:
    """Failed ops over attempted ops."""
    return sum(r.error is not None for r in results) / len(results)


def end_to_end(results: list[OpResult], setup_times: list[float]) -> tuple[dict, dict]:
    times = sorted(r.seconds for r in results)
    index = tail_index(len(times))
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * times[index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100 * (index + 1) / len(times), "ops": len(times)}
    return values, tail


def per_command(results: list[OpResult]) -> dict[str, dict]:
    """Median seconds and count per distinct argv (rounds repeat them)."""
    groups: dict[str, list[float]] = {}
    for r in results:
        groups.setdefault(" ".join(r.argv), []).append(r.seconds)
    return {k: {"median_s": statistics.median(v), "runs": len(v)} for k, v in groups.items()}


def run_untraced(runner: Runner, ops, seconds: float) -> tuple[list[OpResult], int]:
    results: list[OpResult] = []
    rounds = 0
    start = perf_counter()
    while True:
        results += runner.round(ops)
        rounds += 1
        if perf_counter() - start >= seconds:
            return results, rounds


def run_traced(runner: Runner, ops, seconds: float) -> tuple[list[OpResult], int, dict, tracing.Tracer]:
    """Pairs of (untraced round, traced round) until half of ``seconds``
    has passed, so a traced run takes about as long as an untraced one."""
    tracer = tracing.Tracer()
    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    tv_roots: set[int] = set()
    tv_wall = 0.0
    traced_counts = {name: [0, 0] for name in runner.cache_counts}
    pairs = 0
    start = perf_counter()
    while True:
        plain = runner.round(ops)
        before = {name: list(c) for name, c in runner.cache_counts.items()}
        undo = tracing.install(tracer)
        try:
            shadow = []
            for op in ops:
                result = runner.run(op)
                if op.argv[0] == "tv-table" and tracer.root is not None:
                    tv_roots.add(tracer.root.span_id)
                    tv_wall += result.seconds
                shadow.append(result)
        finally:
            tracing.uninstall(undo)
        for name, (hits, misses) in runner.cache_counts.items():
            traced_counts[name][0] += hits - before[name][0]
            traced_counts[name][1] += misses - before[name][1]
        for a, b in zip(plain, shadow):
            if b.error is None and a.output_digest != b.output_digest:
                b.error = "output changed under tracing"
        untraced += plain
        traced += shadow
        pairs += 1
        if perf_counter() - start >= seconds / 2:
            break
    everything = untraced + traced
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1
    metrics = tracing.layer_metrics(
        tracer, pairs, traced_counts, tv_roots, tv_wall, overhead, error_rate(everything)
    )
    return everything, pairs, metrics, tracer


def write_spans(tracer: tracing.Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start_s", "end_s", "folded"],
                "spans": [list(s) for s in tracer.spans],
            },
            handle,
        )


def provenance(workload: str, seed: int, ops: list, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "package_version": package_version(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_per_round": len(ops),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the report here")
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        reference = workloads.load_reference()
        setup_times = measure_setup()
    except (SetupError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    runner = Runner(cli, reference)
    report = provenance(args.workload, args.seed, ops, args.seconds, bool(args.trace))
    if args.trace:
        results, rounds, metrics, tracer = run_traced(runner, ops, args.seconds)
        units = tracing.metric_units()
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(tracer, spans_path)
        report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}
    else:
        results, rounds = run_untraced(runner, ops, args.seconds)
        metrics, report["op_tail"] = end_to_end(results, setup_times)
        units = END_TO_END_UNITS
    report["rounds"] = rounds
    report["setup_times_s"] = setup_times

    failed = [r for r in results if r.error is not None]
    report["attempted"] = len(results)
    report["failed"] = len(failed)
    report["error_rate"] = {"value": error_rate(results), "unit": "ratio"}
    report["errors"] = [{"argv": " ".join(r.argv), "error": r.error} for r in failed[:10]]
    report["output_sha256"] = workloads.digest("".join(r.output_digest for r in results[: len(ops)]))
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["commands"] = per_command(results)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
