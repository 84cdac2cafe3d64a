"""prismatic_circuits reads the dual off the complex's own face pairs
and vertex faces, so enumerating circuits constructs no DualComplex;
counted by wrapping DualComplex.__post_init__, on fresh copies of each
complex, as the bench hands them to its ops."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from bench_workloads import WORKLOADS, fresh  # noqa: E402

from andreev import catalog, complexes, realize, whitehead  # noqa: E402


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


@pytest.mark.parametrize("workload,most", [("feasible", 0), ("realize", 76)])
def test_bench_pass_builds_few_duals(workload, most, duals_made):
    """One pass of a bench corpus at seed 0: feasible builds no dual,
    realize at most 76, made by the Whitehead reduction, the prism and
    split-prism builders, the staged branch's base and the cuts."""
    wl = WORKLOADS[workload]
    items = wl.corpus(0)
    duals_made.clear()
    for it in items:
        try:
            wl.op(it, fresh(it.ap))
        except realize.RealizeError:
            pass    # the realize corpus keeps one known Diverged input
    assert len(duals_made) <= most
