"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def declared(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_workloads_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    results = [run.OpResult(("x",), 0.01 * (i + 1), None, "") for i in range(30)]
    values, _ = run.end_to_end(results, [0.05, 0.06, 0.07])
    assert {k: run.END_TO_END_UNITS[k] for k in values} == declared("end_to_end")


def test_per_layer_names_match_benchmark_json(cli, reference):
    runner = run.Runner(cli, reference)
    op = workloads.tv_table_op(52, (187,), ("shelf-lazy",), "tv", "text", False)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        result = runner.run(op)
    finally:
        tracing.uninstall(undo)
    assert result.error is None
    values = tracing.layer_metrics(tracer, 1, runner.cache_counts, {tracer.root.span_id},
                                   result.seconds, 0.0, 0.0)
    assert {k: tracing.metric_units()[k] for k in values} == declared("per_layer")
    assert values["analysis.tv_distance.calls"] == 1
    assert values["orderpoly.op_chain.calls"] == 52 // 2 + 1  # one per lpk class
    assert 0 < values["cli.tv_table.cell_overlap"] <= 1


@pytest.mark.parametrize(
    "count, index",
    [(1, 0), (2, 0), (10, 4), (11, 0), (12, 1), (21, 10), (100, 89), (1000, 989)],
)
def test_tail_index(count, index):
    assert run.tail_index(count) == index
    if count >= 11:
        assert count - 1 - index == 10  # exactly ten ops beyond


def test_tail_percentile_reported():
    results = [run.OpResult(("x",), float(i + 1), None, "") for i in range(40)]
    values, tail = run.end_to_end(results, [0.05])
    assert values["op_tail_ms"] == 30_000.0
    assert tail == {"percentile": 75.0, "ops": 40}


def test_wrong_reference_cell_is_an_error(cli, reference):
    op = workloads.tv_table_op(52, (187,), ("shelf-lazy",), "tv", "json", True)
    assert run.Runner(cli, reference).run(op).error is None
    bad = json.loads(json.dumps(reference))
    bad["tv"][workloads.tv_key(52, "shelf-lazy", 187, "tv")]["exact"] = workloads.digest("1/2")
    results = run.Runner(cli, bad).round([op, op])
    assert run.error_rate(results) == 1.0
    assert "exact value differs" in results[0].error


def test_wrong_exit_code_is_an_error(cli, reference):
    good = workloads.verify_op(("--self-test-corrupt",), "text", expect_rc=1)
    wrong = workloads.verify_op(("--self-test-corrupt",), "text", expect_rc=0)
    results = run.Runner(cli, reference).round([good, wrong])
    assert results[0].error is None
    assert results[1].error.startswith("exit code 1")
    assert run.error_rate(results) == 0.5


def test_trace_install_is_undone(cli):
    from shuffle_lab import analysis, models, orderpoly, posets

    before = (cli._DISTANCES["tv"], models.op_chain, orderpoly.op_chain, posets.Poset.__init__)
    undo = tracing.install(tracing.Tracer())
    assert cli._DISTANCES["tv"] is not before[0] and analysis.tv_distance is not before[0]
    assert models.op_chain is not before[1] and orderpoly.op_chain is not before[2]
    tracing.uninstall(undo)
    assert (cli._DISTANCES["tv"], models.op_chain, orderpoly.op_chain, posets.Poset.__init__) == before


def test_seed_sets_values_not_cost():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 1), workloads.generate(name, 2)
        assert [op.argv for op in a] == [op.argv for op in workloads.generate(name, 1)]
        assert [op.argv for op in a] != [op.argv for op in b]
        assert len(a) == len(b)
        # the same commands at the same sizes, up to seed-drawn values
        kinds = lambda ops: sorted((op.argv[0], op.expect_rc) for op in ops)
        assert kinds(a) == kinds(b)


def test_fails_without_package_source(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
