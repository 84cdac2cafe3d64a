"""The bench tracer's branch attribution on complexes whose realize nests
further realize calls: on a simple complex build_split_prism realizes
the glued prism through the prism branch, on a truncated complex the
staged branch realizes its shrunken base, and on a compound complex
each cut's pieces are realized, and cut again, by realize itself."""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from bench_workloads import WORKLOADS, Item, random_item  # noqa: E402

from andreev import angles, catalog  # noqa: E402
from andreev.angles import AngleAssignment  # noqa: E402
from conftest import cube_with_corner_cubes  # noqa: E402


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


def _truncated_tetrahedron(w):
    ap = catalog.truncated_tetrahedron()
    return [Item(ap.name, ap, angles.feasible(ap).witness)]


def test_nested_base_realize_is_not_a_branch():
    """The truncated tetrahedron's base is a triangular prism, realized
    by a nested realize through the prism branch."""
    wl = dataclasses.replace(WORKLOADS["realize"],
                             corpus=_truncated_tetrahedron)
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=True,
                                     import_s=0.0, expected={})
    assert result["correct"] and result["failed"] == 0, lines
    m = result["metrics"]
    assert m["realize.branch.truncated.calls"]["value"] == 1
    for branch in ("simple", "prism", "compound"):
        assert m[f"realize.branch.{branch}.calls"]["value"] == 0


def _star(w):
    ap = cube_with_corner_cubes((0, 2, 5))
    return [Item("star", ap, angles.feasible(ap).witness)]


def test_nested_piece_realizes_are_not_branches():
    wl = dataclasses.replace(WORKLOADS["realize"], corpus=_star)
    result, lines = run.run_workload(wl, seed=0, seconds=0, trace=True,
                                     import_s=0.0, expected={})
    assert result["correct"] and result["failed"] == 0, lines
    m = result["metrics"]
    assert m["realize.branch.compound.calls"]["value"] == 1
    for branch in ("simple", "prism", "truncated"):
        assert m[f"realize.branch.{branch}.calls"]["value"] == 0
