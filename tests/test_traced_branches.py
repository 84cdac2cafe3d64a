"""The bench tracer's branch attribution on a simple complex, whose
realize nests a second realize: build_split_prism realizes the glued
prism through the prism branch."""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from bench_workloads import WORKLOADS, random_item  # noqa: E402

from andreev.angles import AngleAssignment  # noqa: E402


def _one_simple(w):
    it = random_item(10, 0)
    it.angles = AngleAssignment.uniform(it.ap.edge_count, Fraction(2, 5))
    return [it]


def test_nested_prism_realize_is_not_a_branch():
    wl = dataclasses.replace(WORKLOADS["realize"], corpus=_one_simple)
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=True,
                                     import_s=0.0, expected={})
    assert result["correct"] and result["failed"] == 0, lines
    m = result["metrics"]
    assert m["realize.branch.simple.calls"]["value"] == 1
    assert m["realize.branch.prism.calls"]["value"] == 0
