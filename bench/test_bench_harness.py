"""Smoke test of the benchmark harness on a tiny corpus.

    python3 -m pytest -q bench/test_bench_harness.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

from andreev import angles, catalog  # noqa: E402
from bench_trace import TRACED  # noqa: E402
from bench_workloads import WORKLOADS, Item, random_item  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ORIGINAL = [(module, attr, getattr(module, attr)) for module, attr, _ in TRACED]


def _realize_items(w):
    items = [Item(ap.name, ap) for ap in (catalog.cube(), catalog.prism(7))]
    for it in items:
        it.angles = angles.AngleAssignment.uniform(it.ap.edge_count, Fraction(2, 5))
    return items


TINY = {
    "realize": _realize_items,
    "feasible": lambda w: [Item(ap.name, ap) for ap in (catalog.tetrahedron(),
                                                        catalog.prism(5))],
    "combinatorics": lambda w: [random_item(10, 2 + w)],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name, trace):
    wl = dataclasses.replace(WORKLOADS[name], corpus=TINY[name])
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=trace,
                                     import_s=0.0, expected={})
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    json.loads(json.dumps(result))
    for module, attr, fn in ORIGINAL:
        assert getattr(module, attr) is fn


def test_traced_branch_of_a_prism():
    wl = dataclasses.replace(WORKLOADS["realize"], corpus=_realize_items)
    result, _ = run.run_workload(wl, seed=0, seconds=0, trace=True,
                                 import_s=0.0, expected={})
    m = result["metrics"]
    assert m["realize.branch.prism.calls"]["value"] == 2
    assert m["realize.branch.simple.calls"]["value"] == 0
    assert m["numpy.linalg.solve.calls"]["value"] > 0


def test_changed_outcome_is_reported():
    wl = dataclasses.replace(WORKLOADS["feasible"], corpus=TINY["feasible"])
    expected = {"feasible": {
        "tetrahedron": {"outcome": "ok", "verdict": "nonempty", "max_slack": "1/2"},
        "prism_5": {"outcome": "Diverged"}}}
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=False,
                                     import_s=0.0, expected=expected)
    assert result["correct"]
    assert any(line.startswith("OUTCOME CHANGE feasible prism_5") for line in lines)
    expected["feasible"]["tetrahedron"]["max_slack"] = "1/3"
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=False,
                                     import_s=0.0, expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2


def test_host_factor_scales_times_only():
    ops = [[0, p, False, 0.5, None, None] for p in range(3)]
    ops += [[1, p, False, 1.5, None, "Diverged"] for p in range(3)]
    as_timed = run.end_to_end(ops, 2, 3, 0.4, 5, 1.0)
    scaled = run.end_to_end(ops, 2, 3, 0.4, 5, 2.0)
    assert as_timed["ops_per_s"][0] == pytest.approx(0.5)
    assert scaled["ops_per_s"][0] == pytest.approx(0.25)
    for k in ("setup_s", "op_s_p50", "op_s_tail"):
        assert scaled[k][0] == pytest.approx(2 * as_timed[k][0])
    assert scaled["ok_frac"][0] == as_timed["ok_frac"][0] == 0.5


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "feasible", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
