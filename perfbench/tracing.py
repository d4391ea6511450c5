"""Traced-run support: wrap the package's public functions from outside,
record spans and counts, and turn them into per-layer metrics.

The package is not changed.  ``install`` replaces each target function in
every ``shuffle_lab`` module namespace that holds it, including dispatch
tables such as the CLI's distance map, so a call is traced however the
program looks the function up; ``uninstall`` puts the originals back.

Every wrapped call is timed on a per-thread stack.  A call's self time is
its duration minus the time its wrapped callees cover.  Calls of "span"
targets keep a span record (id, parent span, name, start, end); the hot
"fold" and "leaf" targets -- called once per permutation or per draw, up
to ~10^6 times in one command -- are folded into the enclosing span as a
call count and a total duration, so memory stays bounded.  Self times
include the tracer's own cost per call; trace.overhead_frac reports it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from dataclasses import dataclass
from time import perf_counter

MODULES = ("cli", "analysis", "models", "orderpoly", "ppartitions", "posets", "permutations")
DISTANCES = ("analysis.tv_distance", "analysis.sep_distance", "analysis.linf_distance")
CACHES = ("analysis.count_table", "ppartitions.alphabet")


@dataclass(frozen=True)
class Target:
    """A function to wrap, how to record it, and the per-layer quantities
    it reports.

    kind "span": every call keeps a span record.  "fold": a frame without
    a span record, for hot functions that call other targets.  "leaf": the
    cheapest path, for hot functions that call no other target; its time
    is added straight to the caller's frame.
    """

    module: str
    qualname: str
    report: tuple[str, ...]  # of "calls", "self_s", "results"
    kind: str = "span"
    sizes: tuple[int, ...] = ()  # report us_per_call per deck size (first arg is a ShuffleSpec)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname.replace('__init__', 'init')}"


TARGETS = (
    Target("cli", "main", ("self_s",)),
    Target("analysis", "tv_distance", ("calls", "self_s")),
    Target("analysis", "sep_distance", ("calls", "self_s")),
    Target("analysis", "linf_distance", ("calls", "self_s")),
    Target("analysis", "count_table", ("calls", "self_s"), "leaf"),
    Target("analysis", "cycle_count_series", ("self_s",)),
    Target("analysis", "cycle_distribution", ("self_s",)),
    Target("analysis", "verify_joint_lpk_cycle", ("self_s",)),
    Target("models", "exact_distribution", ("calls", "self_s")),
    Target("models", "exact_prob", ("calls", "self_s"), "fold"),
    Target("models", "group_algebra_product_check", ("self_s",)),
    Target("models", "simulate_shelf", ("calls", "self_s"), "fold", sizes=(6, 52, 1000)),
    Target("models", "simulate_riffle", ("calls", "self_s"), "leaf", sizes=(6, 52, 1000)),
    Target("orderpoly", "op_chain", ("calls", "self_s"), "leaf"),
    Target("orderpoly", "verify_decomposition", ("calls", "self_s")),
    Target("orderpoly", "check_monotonicity", ("self_s",)),
    Target("orderpoly", "gf_coefficients", ("self_s",)),
    Target("ppartitions", "sorting_permutation", ("calls", "self_s"), "leaf"),
    Target("ppartitions", "enumerate_bounded", ("calls", "self_s", "results"), "leaf"),
    Target("posets", "all_posets", ("self_s",), "fold"),
    Target("posets", "Poset.__init__", ("self_s",), "leaf"),
    Target("posets", "Poset.linear_extensions", ("calls", "self_s")),
    Target("permutations", "compose", ("calls", "self_s"), "leaf"),
    Target("permutations", "statistic", ("calls",), "leaf"),
    Target("permutations", "format_permutation", ("self_s",), "leaf"),
)

UNITS = {"calls": "count", "self_s": "s", "results": "count", "us_per_call": "us"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for t in TARGETS:
        for quantity in t.report:
            units[f"{t.name}.{quantity}"] = UNITS[quantity]
        for n in t.sizes:
            units[f"{t.name}.n{n}.us_per_call"] = "us"
    for name in CACHES:
        units[f"{name}.hit_ratio"] = "ratio"
    units["cli.tv_table.cell_overlap"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["error_rate"] = "ratio"
    return units


class Frame:
    __slots__ = ("name", "start", "child", "span_id", "owner", "folded", "foreign", "leaves")

    def __init__(self, name, span_id, owner):
        self.name = name
        self.start = 0.0
        self.child = 0.0  # time covered by same-thread children
        self.span_id = span_id
        self.owner = owner  # nearest frame that keeps a span
        self.folded = {} if span_id else None  # folded descendants: name -> [calls, seconds]
        self.foreign = []  # (start, end) of children run on other threads
        self.leaves = {}  # leaf calls made from this frame: key -> [calls, seconds, results]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _add(table: dict, name: str, calls: int, total: float, self_s: float, results: int) -> None:
    row = table.get(name)
    if row is None:
        table[name] = [calls, total, self_s, results]
    else:
        row[0] += calls
        row[1] += total
        row[2] += self_s
        row[3] += results


class Tracer:
    """Spans and per-name totals of one traced run; safe to call from the
    CLI's pool threads (each thread keeps its own stack and totals)."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[Frame, dict]] = []  # (base frame, totals) per thread
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, folded)
        self.root: Frame | None = None  # frame of the command in flight

    def _stack(self) -> list[Frame]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            base = Frame(None, 0, None)  # collects leaf calls made outside any frame
            local.stack, local.table = [base], {}
            self._threads.append((base, local.table))
            return local.stack

    def _enter(self, name: str, span: bool) -> Frame:
        stack = self._stack()
        if span:
            frame = Frame(name, next(self._ids), None)
            frame.owner = frame
        else:
            frame = Frame(name, 0, stack[-1].owner)
        if len(stack) == 1 and threading.current_thread() is threading.main_thread():
            self.root = frame
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _leave(self, frame: Frame, count: int = 1) -> float:
        end = perf_counter()
        stack = self._local.stack
        table = self._local.table
        stack.pop()
        duration = end - frame.start
        _add(table, frame.name, count, duration, duration - frame.child - covered(frame.foreign), 0)
        self._flush_leaves(frame, table)
        parent = stack[-1]
        top = parent.name is None  # the thread's base frame
        if not top:
            parent.child += duration
        elif self.root is not None and frame is not self.root:
            self.root.foreign.append((frame.start, end))  # a pool thread's top frame
        if frame.span_id:
            owner = self.root if top else parent.owner
            parent_id = owner.span_id if owner is not None and owner is not frame else 0
            self.spans.append((frame.span_id, parent_id, frame.name, frame.start, end, frame.folded or None))
        else:
            owner = frame.owner or self.root
            if owner is not None:
                row = owner.folded.setdefault(frame.name, [0, 0.0])
                row[0] += count
                row[1] += duration
        return duration

    def _flush_leaves(self, frame: Frame, table: dict) -> None:
        owner = frame.owner
        for key, (calls, seconds, results) in frame.leaves.items():
            if isinstance(key, tuple):  # per-size accumulator
                _add(table, f"{key[0]}.n{key[1]}", calls, seconds, seconds, 0)
                continue
            _add(table, key, calls, seconds, seconds, results)
            if owner is not None:
                row = owner.folded.setdefault(key, [0, 0.0])
                row[0] += calls
                row[1] += seconds
        frame.leaves = {}

    def wrap(self, target: Target, fn):
        if target.kind == "leaf":
            return self._wrap_leaf(target, fn)
        name, span = target.name, target.kind == "span"
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            # time each resumption; count the call once
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                count = 1
                while True:
                    frame = enter(name, span)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, count)
                    count = 0
                    yield value

            return generator_wrapper

        sized = bool(target.sizes)

        def wrapper(*args, **kwargs):
            frame = enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = leave(frame)
                if sized:
                    _add(self._local.table, f"{name}.n{args[0].n}", 1, duration, 0.0, 0)

        return wrapper

    def _wrap_leaf(self, target: Target, fn):
        name, local, stack_of = target.name, self._local, self._stack
        sized = bool(target.sizes)
        counted = "results" in target.report

        def leaf_wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - start
            try:
                top = local.stack[-1]
            except AttributeError:
                top = stack_of()[-1]
            top.child += seconds
            leaves = top.leaves
            row = leaves.get(name)
            if row is None:
                row = leaves[name] = [0, 0.0, 0]
            row[0] += 1
            row[1] += seconds
            if counted:
                row[2] += len(result)
            if sized:
                row = leaves.setdefault((name, args[0].n), [0, 0.0, 0])
                row[0] += 1
                row[1] += seconds
            return result

        return leaf_wrapper

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s, results], summed over threads."""
        out: dict[str, list] = {}
        for base, table in list(self._threads):
            self._flush_leaves(base, table)
            for name, row in table.items():
                _add(out, name, *row)
        return out

    def distance_seconds(self, root_ids: set[int]) -> float:
        """Summed duration of distance spans whose parent is one of the
        given command spans."""
        return sum(
            end - start
            for _, parent, name, start, end, _ in self.spans
            if parent in root_ids and name in DISTANCES
        )


def package_modules() -> list:
    """shuffle_lab and its modules."""
    package = importlib.import_module("shuffle_lab")
    return [package] + [importlib.import_module(f"shuffle_lab.{m}") for m in MODULES]


def cache_objects() -> dict[str, object]:
    """The lru caches whose hit ratios are reported, by metric prefix."""
    out = {}
    for name in CACHES:
        module, attr = name.split(".")
        out[name] = getattr(importlib.import_module(f"shuffle_lab.{module}"), attr)
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target wherever the package holds it; returns the undo
    list for ``uninstall``."""
    undo: list[tuple] = []
    by_id: dict[int, tuple] = {}
    for t in TARGETS:
        home = importlib.import_module(f"shuffle_lab.{t.module}")
        if "." in t.qualname:
            cls_name, attr = t.qualname.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(t, original))
            undo.append((cls, attr, original))
        else:
            original = getattr(home, t.qualname)
            by_id[id(original)] = (original, tracer.wrap(t, original), t)
    patched = set()
    for module in package_modules():
        for name, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                undo.append((module, name, value))
                patched.add(hit[2].name)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = by_id.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
                        undo.append((value, key, item))
                        patched.add(hit[2].name)
    missing = {t.name for _, _, t in by_id.values()} - patched
    if missing:
        uninstall(undo)
        raise LookupError(f"trace targets not found: {sorted(missing)}")
    return undo


def uninstall(undo: list[tuple]) -> None:
    for holder, key, original in reversed(undo):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)


def layer_metrics(
    tracer: Tracer,
    rounds: int,
    cache_counts: dict[str, list[int]],
    tv_roots: set[int],
    tv_wall_s: float,
    overhead_frac: float,
    error_rate: float,
) -> dict[str, float]:
    """Per-layer values, per traced round."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    for t in TARGETS:
        calls, _, self_s, results = totals.get(t.name, [0, 0.0, 0.0, 0])
        quantity = {"calls": calls / rounds, "self_s": self_s / rounds, "results": results / rounds}
        for q in t.report:
            values[f"{t.name}.{q}"] = quantity[q]
        for n in t.sizes:
            calls_n, total_n, _, _ = totals.get(f"{t.name}.n{n}", [0, 0.0, 0.0, 0])
            values[f"{t.name}.n{n}.us_per_call"] = 1e6 * total_n / calls_n if calls_n else 0.0
    for name in CACHES:
        hits, misses = cache_counts.get(name, [0, 0])
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.tv_table.cell_overlap"] = tracer.distance_seconds(tv_roots) / tv_wall_s if tv_wall_s else 0.0
    values["trace.overhead_frac"] = overhead_frac
    values["error_rate"] = error_rate
    return values
