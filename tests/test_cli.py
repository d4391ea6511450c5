"""Command-line front end and package wiring: output shapes, determinism,
exit codes, the console script, and the public names of each module."""

import ast
import importlib
import itertools
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shuffle_lab
from shuffle_lab import analysis, models, orderpoly
from shuffle_lab.analysis import tv_distance
from shuffle_lab.cli import build_parser, format_fixed, main
from shuffle_lab.models import ShuffleSpec
from shuffle_lab.permutations import descents, inverse, left_peaks, peaks

from .oracles import parse_exact, parse_permutation, reference_simulate, reference_tv_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_fixed():
    assert format_fixed(Fraction(1, 16)) == "0.0625"
    assert format_fixed(Fraction(1)) == "1.0000"
    assert format_fixed(Fraction(-1, 16)) == "-0.0625"
    assert format_fixed(Fraction(1, 3), 6) == "0.333333"
    # ties round half to even at the last kept digit
    assert format_fixed(Fraction(1, 20000)) == "0.0000"
    assert format_fixed(Fraction(3, 20000)) == "0.0002"
    # the Fraction rounding it replaced, ties of both parities included
    values = [Fraction(a, b) for a in range(-60, 61) for b in (1, 2, 3, 7, 8, 2 * 10**6, 10**7)]
    for value, places in itertools.product(values, (0, 1, 4, 6)):
        scaled = round(value * 10**places)
        sign, scaled = "-" if scaled < 0 else "", abs(scaled)
        want = f"{sign}{scaled // 10**places}.{scaled % 10**places:0{places}d}"
        assert format_fixed(value, places) == want, (value, places)


def test_simulate_is_deterministic(capsys):
    argv = ["simulate", "--model", "shelf-lazy", "--n", "9", "--m", "2",
            "--seed", "7", "--count", "5"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 5


def test_simulate_formats(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "riffle-classic", "--n", "5",
                       "--m", "2", "--seed", "1", "--count", "3", "--stats",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,permutation,des,pk,lpk"
    assert len(lines) == 4

    code, out, _ = run(capsys, "simulate", "--model", "shelf-strict", "--n", "6",
                       "--m", "3", "--seed", "2", "--count", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "shelf-strict" and payload["seed"] == 2
    assert len(payload["samples"]) == 2
    assert set(payload["samples"][0]) == {"index", "permutation"}

    code, out, _ = run(capsys, "simulate", "--model", "shelf-lazy", "--n", "4",
                       "--m", "1", "--count", "0")
    assert code == 0 and out == ""


def test_simulate_stats_columns(capsys):
    # the --stats columns are descents, peaks and left_peaks of each deck
    for n in (1, 2, 6, 52):
        for model in ("shelf-lazy", "riffle-downup", "shelf-strict"):
            code, out, _ = run(capsys, "simulate", "--model", model, "--n", str(n),
                               "--m", "3", "--seed", "5", "--count", "40", "--stats",
                               "--format", "json")
            assert code == 0
            for row in json.loads(out)["samples"]:
                perm = parse_permutation(row["permutation"])
                assert (row["des"], row["pk"], row["lpk"]) == (
                    descents(perm)[0], peaks(perm), left_peaks(perm)
                ), (n, model, perm)


def test_unseeded_simulate_reports_its_seed(capsys):
    argv = ["simulate", "--model", "riffle-updown", "--n", "7", "--m", "2", "--count", "4"]
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and err == "" and isinstance(payload["seed"], int)
    code, again, err = run(capsys, *argv, "--format", "json", "--seed", str(payload["seed"]))
    assert code == 0 and err == "" and json.loads(again) == payload
    # text and csv report a drawn seed on one stderr line
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err.startswith("seed: ") and err.count("\n") == 1
        seed = err.removeprefix("seed: ").strip()
        code, again, err = run(capsys, *argv, "--format", fmt, "--seed", seed)
        assert code == 0 and err == "" and again == out


def test_simulate_writes_output_file(tmp_path, capsys):
    target = tmp_path / "samples.txt"
    code, out, _ = run(capsys, "simulate", "--model", "shelf-lazy", "--n", "5",
                       "--m", "2", "--seed", "3", "--count", "4",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 4


def test_simulate_negative_count_is_usage_error(capsys):
    code, out, err = run(capsys, "simulate", "--model", "shelf-lazy", "--n", "4",
                         "--m", "1", "--count", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--count" in err



@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_simulate_negative_seed_is_usage_error(capsys, seed):
    # random.Random seeds from |seed|: -5 would draw the decks of 5
    code, out, err = run(capsys, "simulate", "--model", "shelf-lazy", "--n", "4",
                         "--m", "1", "--seed", seed, "--format", "json")
    assert code == 2 and out == ""
    assert err == "error: --seed must be nonnegative\n"


def test_simulate_seed_zero_is_valid(capsys):
    argv = ["simulate", "--model", "shelf-lazy", "--n", "4", "--m", "1", "--seed", "0",
            "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == 0
    assert out == reference_simulate(build_parser().parse_args(argv))


def test_writers_equal_reference_writers(capsys):
    # simulate and tv-table build each row once; the reference writers keep
    # every row or cell first and render it per format, as the CLI once did.
    # n = 10 is the first comma-separated deck; one JSON sample has no comma
    formats = [["--format", fmt] for fmt in ("text", "csv", "json")]
    runs = [
        (reference_simulate, ["simulate", "--model", model, "--n", n, "--m", "2", "--seed", "13",
                              "--count", count, *fmt, *stats])
        for model in models.MODELS for n in ("1", "6", "10", "52") for count in ("0", "1", "4")
        for fmt in formats for stats in ([], ["--stats"])
    ]
    runs += [
        (reference_tv_table, ["tv-table", "--n", "7", "--distance", distance, *fmt, *exact, *more])
        for distance in ("tv", "sep", "linf") for fmt in formats for exact in ([], ["--exact"])
        # a header wider than every cell sets the text column width
        for more in ([], ["--model", "riffle-downup"], ["--m", "2,1000000"])
    ]
    for reference, argv in runs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == reference(build_parser().parse_args(argv)), argv

def test_output_into_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.txt"
    code, out, err = run(capsys, "tv-table", "--n", "4", "--m", "2", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_tv_table_matches_library(capsys):
    code, out, _ = run(capsys, "tv-table", "--n", "8", "--m", "2,3",
                       "--model", "shelf-lazy", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,2,3"
    want = [format_fixed(tv_distance(ShuffleSpec(8, m, "shelf-lazy"))) for m in (2, 3)]
    assert lines[1] == "Lazy," + ",".join(want)


def test_tv_table_exact_and_default_rows(capsys):
    code, out, _ = run(capsys, "tv-table", "--n", "2", "--m", "1",
                       "--model", "shelf-lazy", "--exact")
    assert code == 0 and "1/18" in out

    code, out, _ = run(capsys, "tv-table", "--n", "6", "--m", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["rows"]) == ["Lazy", "Standard", "Strict"]
    assert payload["m"] == [1, 2]

    code, out, _ = run(capsys, "tv-table", "--n", "6", "--m", "2",
                       "--distance", "sep", "--model", "shelf-strict", "--format", "csv")
    assert code == 0
    from shuffle_lab.analysis import sep_distance

    assert out.splitlines()[1].endswith(format_fixed(sep_distance(ShuffleSpec(6, 2, "shelf-strict"))))


def test_tv_table_riffle_labels(capsys):
    for model, label in (("riffle-updown", "Riffle-updown"),
                         ("riffle-downup", "Riffle-downup"),
                         ("riffle-classic", "Riffle-classic")):
        code, out, _ = run(capsys, "tv-table", "--n", "5", "--m", "2", "--model", model)
        assert code == 0
        assert out.splitlines()[1].split()[0] == label
        code, out, _ = run(capsys, "tv-table", "--n", "5", "--m", "2", "--model", model,
                           "--format", "json")
        assert list(json.loads(out)["rows"]) == [label]


def test_tv_table_rejects_empty_m(capsys):
    code, _, err = run(capsys, "tv-table", "--n", "4", "--m", " ")
    assert code == 2 and "error" in err


def test_verify_single_checks(capsys):
    code, out, _ = run(capsys, "verify", "--only", "convention")
    assert code == 0 and out.startswith("PASS convention")
    for n in ("8", "40"):  # monotonicity is not exhaustive, so any n runs
        code, out, _ = run(capsys, "verify", "--only", "monotonicity", "--n", n)
        assert code == 0 and out.startswith("PASS monotonicity") and f"n={n}," in out
    code, out, _ = run(capsys, "verify", "--only", "oracle", "--n", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["check"] == "oracle" and payload[0]["ok"] is True


def _skew_class_products(monkeypatch):
    honest = orderpoly._class_products

    def skewed(n, kind):
        rows, entries = honest(n, kind)
        if n < 2:
            return rows, entries
        row = list(rows[0])
        row[1] += 1  # N_01 of the first row, leaving N_10
        return (tuple(row),) + rows[1:], entries

    monkeypatch.setattr(orderpoly, "_class_products", skewed)


def _offset_convolved_bound(monkeypatch):
    honest = orderpoly.convolved_bound
    monkeypatch.setattr(orderpoly, "convolved_bound", lambda k, l, mode: honest(k, l, mode) + 1)


def _riffle_law_without_inverse(monkeypatch):
    honest = models.exact_prob
    monkeypatch.setattr(
        models, "exact_prob", lambda p, spec: honest(inverse(p) if spec.riffle else p, spec)
    )


def _drop_one_map(monkeypatch):
    honest = orderpoly.enumerate_bounded

    def drop_one(poset, m, mode):
        maps = honest(poset, m, mode)
        return maps[1:] if len(poset.linear_extensions()) > 1 else maps

    monkeypatch.setattr(orderpoly, "enumerate_bounded", drop_one)


def _bump(module, name):
    """A corruption adding 1 to what module.name returns."""
    def corrupt(monkeypatch):
        honest = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: honest(*args) + 1)
    return corrupt


def _drop_n_cycle(monkeypatch):
    honest = analysis.cycle_distribution

    def missing(spec):
        table = honest(spec)
        del table[(spec.n,)]
        return table

    monkeypatch.setattr(analysis, "cycle_distribution", missing)


def _bump_n_cycle_count(monkeypatch):
    honest = analysis.cycle_count_series

    def bumped(n, m):
        series = honest(n, m)
        series[(n,)] += 1
        return series

    monkeypatch.setattr(analysis, "cycle_count_series", bumped)


# one corruption per verify check, each one its unit tests use (decomposition:
# the bound offset that --self-test-corrupt applies through its perturbation)
CORRUPTIONS = {
    "convention": _skew_class_products,
    "decomposition": _offset_convolved_bound,
    "monotonicity": lambda monkeypatch: monkeypatch.setattr(
        orderpoly, "op_vector", lambda n, m, mode: [3, 5, 4]),
    "group-algebra": _riffle_law_without_inverse,
    "fundamental": _drop_one_map,
    "oracle": _bump(orderpoly, "op_of_perm"),
    "cycles": _drop_n_cycle,
    "fixed-points": _bump(analysis, "expected_fixed_points"),
    "joint": _bump_n_cycle_count,
}


def test_verify_convention_checks_table_symmetry(capsys, monkeypatch):
    # --n 1 still checks a case per statistic
    code, out, _ = run(capsys, "verify", "--only", "convention", "--n", "1")
    assert code == 0 and out.startswith("PASS convention") and ", 3 cases:" in out
    _skew_class_products(monkeypatch)
    code, out, _ = run(capsys, "verify", "--only", "convention")
    assert code == 1 and out.startswith("FAIL convention") and "'n': 2" in out


def test_verify_rejects_csv(capsys):
    # verify has no CSV form, so asking for one is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "convention", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_decomposition_keeps_every_class_table(capsys):
    # one run visits 18 (n, statistic) tables; a second finds them all cached
    orderpoly._class_products.cache_clear()
    assert run(capsys, "verify", "--only", "decomposition", "--n", "6")[0] == 0
    first = orderpoly._class_products.cache_info()
    assert first.misses == 18 and first.currsize == 18
    assert run(capsys, "verify", "--only", "decomposition", "--n", "6")[0] == 0
    assert orderpoly._class_products.cache_info().misses == first.misses


def test_verify_runs_the_nine_checks_in_order(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    names = [line.split(":", 1)[0] for line in out.splitlines()]
    assert names == [
        "PASS " + name
        for name in ("convention", "decomposition", "monotonicity", "group-algebra",
                     "fundamental", "oracle", "cycles", "fixed-points", "joint")
    ]


def test_verify_group_algebra_covers_the_riffles(capsys, monkeypatch):
    # a riffle law that forgets the inverse must fail the convolution check
    _riffle_law_without_inverse(monkeypatch)
    code, out, _ = run(capsys, "verify", "--only", "group-algebra")
    assert code == 1
    assert out.startswith("FAIL group-algebra") and "riffle-updown" in out


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_every_check_can_fail_through_the_cli(capsys, monkeypatch, name):
    CORRUPTIONS[name](monkeypatch)
    code, out, _ = run(capsys, "verify", "--only", name)
    assert code == 1
    assert out.startswith(f"FAIL {name}: mismatch: ") and out.count("\n") == 1


def test_verify_rejects_large_n(capsys):
    # convention runs at most n = 4, but it is exhaustive, so n = 9 is refused
    for name in ("decomposition", "convention"):
        code, _, err = run(capsys, "verify", "--only", name, "--n", "9")
        assert code == 2 and "refuses" in err


def test_verify_takes_n_up_to_the_exhaustive_cap(capsys):
    # n = 7 is the cap itself: accepted, and convention runs at its largest n
    code, out, _ = run(capsys, "verify", "--only", "convention", "--n", "7")
    assert code == 0 and out.startswith("PASS convention") and "n<=4" in out
    code, out, err = run(capsys, "verify", "--only", "convention", "--n", "8")
    assert code == 2 and out == "" and "refuses n > 7" in err


def test_verify_rejects_n_below_one(capsys):
    # a check over no case is a usage error, not a PASS
    for argv in (("--only", "oracle", "--n", "0"), ("--only", "decomposition", "--n", "-2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "--n must be at least 1" in err


def test_verify_corrupt_self_test_fails(capsys):
    code, out, _ = run(capsys, "verify", "--self-test-corrupt")
    assert code == 1
    assert out.startswith("FAIL decomposition[corrupted]")
    # the corrupted run is the decomposition check, so --only may name it
    code, out, _ = run(capsys, "verify", "--self-test-corrupt", "--only", "decomposition")
    assert code == 1
    assert out.startswith("FAIL decomposition[corrupted]")


def test_verify_corrupt_self_test_rejects_other_checks(capsys):
    names = ("convention", "monotonicity", "group-algebra", "fundamental", "oracle",
             "cycles", "fixed-points", "joint")
    for name in names:
        code, out, err = run(capsys, "verify", "--self-test-corrupt", "--only", name)
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and err.count("\n") == 1, name
        assert f"--only {name}" in err, name


def test_verify_decomposition_reports_first_mismatch(capsys):
    # the perturbed bound already fails at n = 1, k = l = 0, the first case
    code, out, _ = run(capsys, "verify", "--self-test-corrupt", "--format", "json")
    assert code == 1
    (result,) = json.loads(out)
    assert result["ok"] is False
    assert "'n': 1, 'k': 0, 'l': 0, 'mode': 'all'" in result["detail"]


def test_verify_json_carries_the_report(capsys):
    code, out, _ = run(capsys, "verify", "--self-test-corrupt", "--format", "json")
    assert code == 1
    (result,) = json.loads(out)
    assert result["checked"] == 1
    assert result["report"]["first_mismatch"] == {"pi": [1], "lhs": "1", "rhs": "3"}
    assert result["detail"] == f"mismatch: {result['report']}"
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    results = {r["check"]: r for r in json.loads(out)}
    assert len(results) == 9 and not any("report" in r for r in results.values())
    convention = results["convention"]
    assert convention["checked"] == 99 and ", 99 cases:" in convention["detail"]
    assert results["fundamental"]["checked"] == 219 * 9


def test_cycles_probabilities_sum_to_one(capsys):
    code, out, _ = run(capsys, "cycles", "--n", "5", "--m", "2", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    total = sum(Fraction(int(r.split(",")[1]), int(r.split(",")[2])) for r in rows)
    assert total == 1
    types = {r.split(",")[0] for r in rows}
    assert {"1+1+1+1+1", "5"} <= types

    code, out, _ = run(capsys, "cycles", "--n", "3", "--m", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["types"][0]["type"] == [1, 1, 1]


def test_cycles_corrupted_series_is_usage_error(capsys, monkeypatch):
    _bump_n_cycle_count(monkeypatch)
    code, out, err = run(capsys, "cycles", "--n", "4", "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "do not sum to 1" in err


@pytest.mark.parametrize("message, line", [
    ("", "error: out of memory\n"),
    ("cannot allocate", "error: out of memory (cannot allocate)\n"),
])
def test_memory_error_is_usage_error(capsys, monkeypatch, message, line):
    # a failed allocation raises a bare MemoryError, with an empty message
    def exhausted(spec, rng, count):
        raise MemoryError(message)

    monkeypatch.setattr(models, "decks", exhausted)
    code, out, err = run(capsys, "simulate", "--model", "shelf-lazy", "--n", "4",
                         "--m", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert err == line


def test_fixed_points_formats(capsys):
    code, out, _ = run(capsys, "fixed-points", "--n", "2", "--m", "1")
    assert code == 0 and "10/9" in out
    code, out, _ = run(capsys, "fixed-points", "--n", "52", "--m", "10",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["expected_den"] == str(21**52)
    assert payload["expected"] == pytest.approx(1 + 2 / (21**2 - 1), rel=1e-6)


def test_exact_output_past_the_int_string_limit(capsys):
    # numerators and denominators of several thousand digits, past the
    # interpreter's default int-to-string limit of 4,300
    code, out, err = run(capsys, "tv-table", "--n", "1000", "--m", "31623",
                         "--model", "shelf-lazy", "--exact")
    assert code == 0 and not err
    label, value = out.splitlines()[1].split()
    assert label == "Lazy" and len(value) > 4300
    assert parse_exact(value) == tv_distance(ShuffleSpec(1000, 31623, "shelf-lazy"))
    want = analysis.expected_fixed_points(3500, 10)
    code, out, _ = run(capsys, "fixed-points", "--n", "3500", "--m", "10", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["expected_den"]) > 4300
    assert parse_exact(payload["expected_num"] + "/" + payload["expected_den"]) == want
    code, out, _ = run(capsys, "fixed-points", "--n", "3500", "--m", "10", "--format", "csv")
    assert code == 0
    assert parse_exact("/".join(out.splitlines()[1].split(",")[2:4])) == want
    code, out, _ = run(capsys, "fixed-points", "--n", "3500", "--m", "10")
    assert code == 0
    assert parse_exact(out.split(": ")[1].split(" = ")[0]) == want


def test_unknown_model_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "overhand", "--n", "3", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_console_script(target, *argv):
    """Run ``target`` the way an installer's generated console script does:
    load the entry point and exit with whatever it returns."""
    code = (
        "import importlib.metadata, sys; sys.exit(importlib.metadata.EntryPoint("
        f"'shuffle-lab', {target!r}, 'console_scripts').load()())"
    )
    package_root = str(Path(shuffle_lab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_console_script_wiring():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert "shuffle-lab" in scripts
    target = scripts["shuffle-lab"]

    proc = run_console_script(target, "fixed-points", "--n", "2", "--m", "1")
    assert proc.returncode == 0
    assert "10/9" in proc.stdout

    # the exit-code contract survives the entry point: argparse's usage error,
    # and the usage error and verification failure that main() returns
    proc = run_console_script(target, "no-such-command")
    assert proc.returncode == 2
    proc = run_console_script(target, "tv-table", "--n", "4", "--m", ",")
    assert proc.returncode == 2
    proc = run_console_script(target, "verify", "--self-test-corrupt")
    assert proc.returncode == 1
    assert proc.stdout.startswith("FAIL decomposition[corrupted]")


PACKAGE_DIR = Path(shuffle_lab.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"shuffle_lab.{name}")
    namespace: dict = {}
    exec(f"from shuffle_lab.{name} import *", namespace)  # AttributeError on a stale name
    assert set(module.__all__) <= set(namespace)


def test_package_does_not_import_the_tests():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level <= 1, (path.name, node.module)
                names = [node.module or ""]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & {"tests", "oracles"}, (
                path.name,
                names,
            )


def test_package_imports_form_a_dag():
    # relative imports between the package's modules, function-level ones
    # included; peel off modules that import nothing left in the graph
    graph = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps - {path.stem}
    assert "analysis" not in graph["models"]
    while graph:
        leaves = {name for name, deps in graph.items() if not deps & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {name: deps for name, deps in graph.items() if name not in leaves}


def test_module_level_imports_are_pinned():
    # every command first pays for `import shuffle_lab.cli`, and one module
    # such as dataclasses is a third of it: an import added at module level
    # must extend this set on purpose (function-level imports are free)
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from module_level(child)

    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in module_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    assert found == {
        "__future__", "argparse", "bisect", "collections", "dataclasses", "decimal",
        "fractions", "functools", "itertools", "json", "math", "operator", "random", "sys",
        "typing",
    }


@pytest.mark.skipif(shutil.which("shuffle-lab") is None,
                    reason="no installed shuffle-lab executable on PATH")
def test_installed_console_script():
    exe = shutil.which("shuffle-lab")
    proc = subprocess.run(
        [exe, "fixed-points", "--n", "2", "--m", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "10/9" in proc.stdout
