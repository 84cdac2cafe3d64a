"""Which code constructs a DualComplex, counted by wrapping
DualComplex.__post_init__ on fresh copies of each complex, as the bench
hands them to its ops: prismatic_circuits reads the dual off the
complex's own face pairs and vertex faces and builds none, and the
staged shrink and the compound cut build only the complexes they hand
on."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from bench_workloads import WORKLOADS, fresh  # noqa: E402

from andreev import angles, catalog, complexes, realize, whitehead  # noqa: E402
from conftest import cube_with_corner_cubes  # noqa: E402
from test_realize import STAGED_STARTS, staged_cut  # noqa: E402


@pytest.fixture
def duals_made(monkeypatch):
    made = []
    check = complexes.DualComplex.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(complexes.DualComplex, "__post_init__", counted)
    return made


def test_circuits_build_no_dual(duals_made):
    aps = catalog.corpus() + [catalog.corner_truncated_cube(),
                              catalog.corner_doubled_cube(),
                              catalog.split_prism(9)]
    aps += [complexes.primal(whitehead.random_simple(n, 0))
            for n in range(8, 25)]
    copies = [fresh(ap) for ap in aps]
    duals_made.clear()
    for ap in copies:
        complexes.prismatic_circuits(ap, 3)
        complexes.prismatic_circuits(ap, 4)
    assert duals_made == []


@pytest.mark.parametrize("workload,most", [("feasible", 0), ("realize", 36)])
def test_bench_pass_builds_few_duals(workload, most, duals_made):
    """One pass of a bench corpus at seed 0: feasible builds no dual,
    realize at most 36: per simple input the Whitehead reduction's and
    two split prisms (30), and the staged bases and cut pieces of the
    truncated tetrahedron and the corner-truncated and corner-doubled
    cubes (6)."""
    wl = WORKLOADS[workload]
    items = wl.corpus(0)
    duals_made.clear()
    for it in items:
        try:
            wl.op(it, fresh(it.ap))
        except realize.RealizeError:
            pass    # the realize corpus keeps one known Diverged input
    assert len(duals_made) <= most


@pytest.mark.parametrize("ap,made", [
    (catalog.truncated_tetrahedron(), 1), (catalog.corner_truncated_cube(), 1),
    (catalog.corner_doubled_cube(), 4), (staged_cut(16, 0), 3)],
    ids=lambda x: getattr(x, "name", x))
def test_staged_and_compound_realize_build_few_duals(ap, made, duals_made):
    """A staged realize builds its base's dual, a compound one its two
    pieces', and each builds what realizing those builds."""
    a = angles.feasible(ap).witness
    copy = fresh(ap)
    duals_made.clear()
    realize.realize(copy, a)
    assert len(duals_made) == made


@pytest.mark.parametrize("ap", STAGED_STARTS, ids=lambda ap: ap.name)
def test_collapse_base_builds_only_the_base(ap, duals_made):
    copy = fresh(ap)
    duals_made.clear()
    base = realize._collapse_base(copy)[0]
    assert len(duals_made) == 1 and duals_made[0] is complexes.dual(base)


@pytest.mark.parametrize("corners", [(0,), (0, 2), (0, 2, 5)], ids=str)
def test_decompose_builds_only_its_pieces(corners, duals_made):
    ap = fresh(cube_with_corner_cubes(corners))
    a = angles.feasible(ap).witness
    duals_made.clear()
    plan = realize.decompose(ap, a)
    assert len(duals_made) == 2
    assert all(made is complexes.dual(spec.complex)
               for made, spec in zip(duals_made, plan.pieces))
