"""The benchmark's own checks.  Run from the repository root: python3 -m pytest bench"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import frechetfit  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import solve  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ingest_1m", "generate_1m", "solve_grid"]


def test_ok_fractions_are_bit_identical_across_evaluations():
    first = run.grid_evaluation(frechetfit)
    second = run.grid_evaluation(frechetfit)
    for name in ("moment_ok_frac", "roundtrip_ok_frac", "fit_ok_frac"):
        ok1, n1 = first["accuracy"][name]
        ok2, n2 = second["accuracy"][name]
        assert (ok1, n1) == (ok2, n2)
        assert (ok1 / n1).hex() == (ok2 / n2).hex()
    assert first["calls"] == second["calls"]


def test_grid_reaches_the_known_defects_and_counts_them():
    grid = solve.grid()
    assert grid[0] == solve.ALPHA_MIN and grid[-1] == solve.ALPHA_MAX
    table = oracle.references([grid[-1]])
    results = solve.run_pass(solve.library(frechetfit), [grid[-1]],
                             solve.fit_inputs(table, [grid[-1]]))
    checks = solve.call_checks(grid[-1], results[grid[-1]])
    assert not checks[0]  # negative shape_variance at alpha = 1e8
    assert not all(checks)


def test_oracle_aborts_when_its_precisions_disagree(monkeypatch):
    monkeypatch.setattr(oracle, "LOW_DPS", 15)
    with pytest.raises(oracle.OracleError):
        oracle.references([5.0, 1e6])


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_reference_tasks_do_not_import_frechetfit(tmp_path):
    assert not any(n.split(".")[0] == "frechetfit" for n in _imported_modules(BENCH / "reftasks.py"))
    code = (
        "import sys, reftasks\n"
        "reftasks.import_modules()\n"
        "reftasks.solve_setup([2.5, 10.0, 1e8])\n"
        f"reftasks.generate({str(tmp_path / 'g.txt')!r}, 100, 80, 1)\n"
        f"reftasks.ingest({str(tmp_path / 'g.txt')!r}, 50)\n"
        "assert not any(m.split('.')[0] == 'frechetfit' for m in sys.modules), 'frechetfit imported'\n"
    )
    env = dict(run.child_env(), PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env, check=True)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
