"""Census of cell structures: every trivalent cell complex with up to
eleven faces, and what `realize` makes of it.

The complexes with n faces are the duals of the triangulations of the
sphere with n nodes.  These are built from K4 by vertex splitting: a
split cuts a node's link at two of its neighbours, keeps one fan of
triangles at the node and hands the other to a new node, joined to the
first.  Splitting is the inverse of contracting an edge that lies in no
separating triangle, and every triangulation other than K4 has such an
edge (Steinitz and Rademacher), so every triangulation with n + 1 nodes
is a split of one with n; see Brinkmann and McKay, "Fast generation of
planar graphs" (MATCH 58, 2007).  Isomorphic splits, mirror images
included, share a trace of `complexes._canonical_form`, and each class
is kept once, relabelled to its canonical labelling.  The counts are
OEIS A000109: 1, 1, 2, 5, 14, 50, 233, 1249 for n = 4..11.

Each complex with five or more faces is realized at the witness of
`angles.feasible` when its angle set is nonempty, and also at uniform
2/5 when it is simple, and every output is checked with the bench's
realize check.  The branch each realize took is read off the bench's
tracer, so the census keeps no copy of realize's dispatch.  Run as a
script it covers up to MAX_FACES faces and prints, per face count, how
many complexes have an empty angle set and the realize outcomes per
branch, then every failure with its type:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/census.py

Not collected by pytest; tests/test_census.py runs the part up to nine
faces.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from bench_trace import Tracer  # noqa: E402
from bench_workloads import Item, realize_check  # noqa: E402

from andreev import angles, complexes, realize  # noqa: E402
from andreev.angles import AngleAssignment  # noqa: E402
from andreev.complexes import AbstractPolyhedron, DualComplex  # noqa: E402

MAX_FACES = 11
K4 = DualComplex(node_count=4,
                 triangles=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def _splits(dc: DualComplex) -> Iterator[DualComplex]:
    """Every triangulation one vertex split of dc makes: node v's link
    u_0 .. u_{d-1} is cut at u_i and u_j (i < j), v keeps the fan from
    u_i to u_j, the new node w takes the fan from u_j round to u_i, and
    v, w and each of u_i, u_j span a new triangle."""
    w = dc.node_count
    for v in range(dc.node_count):
        link = dc.rotation[v]
        d = len(link)
        fan = [tuple(sorted((v, link[k], link[(k + 1) % d])))
               for k in range(d)]
        rest = [t for t in dc.triangles if t not in fan]
        for i in range(d):
            for j in range(i + 1, d):
                moved = [tuple(sorted((link[k % d], link[(k + 1) % d]))) + (w,)
                         for k in range(j, i + d)]
                new = [tuple(sorted((v, link[x]))) + (w,) for x in (i, j)]
                yield DualComplex(node_count=w + 1, triangles=tuple(sorted(
                    rest + fan[i:j] + moved + new)))


def triangulations(max_nodes: int) -> Dict[int, List[DualComplex]]:
    """The triangulations of the sphere with 4..max_nodes nodes, one per
    isomorphism class, in canonical labels and ordered by canonical
    trace."""
    found = {4: [K4]}
    for n in range(5, max_nodes + 1):
        classes: Dict[tuple, DualComplex] = {}
        for dc in found[n - 1]:
            for child in _splits(dc):
                trace, labels = complexes._canonical_form(child)
                if trace not in classes:
                    classes[trace] = DualComplex(
                        node_count=n, triangles=tuple(sorted(
                            tuple(sorted(labels[x] for x in t))
                            for t in child.triangles)))
        found[n] = [classes[t] for t in sorted(classes)]
    return found


def polyhedra(max_faces: int) -> List[AbstractPolyhedron]:
    """The cell complexes with 5..max_faces faces, named census<N>_<k>."""
    return [complexes.primal(dc, name=f"census{n}_{k}")
            for n, duals in triangulations(max_faces).items() if n >= 5
            for k, dc in enumerate(duals)]


def targets(ap: AbstractPolyhedron) -> List[Tuple[str, AngleAssignment]]:
    """The angles the census realizes ap at: none when the angle set is
    empty, else the feasible witness, and uniform 2/5 as well when ap is
    simple."""
    report = angles.feasible(ap)
    if not report.nonempty:
        return []
    out = [("witness", report.witness)]
    if complexes.is_simple(ap):
        out.append(("2/5", AngleAssignment.uniform(ap.edge_count,
                                                   Fraction(2, 5))))
    return out


def inputs(max_faces: int) -> Iterator[Tuple[str, AbstractPolyhedron,
                                             AngleAssignment]]:
    """(name, complex, angles) for every census realize up to max_faces."""
    for ap in polyhedra(max_faces):
        for label, a in targets(ap):
            yield f"{ap.name}@{label}", ap, a


def check(name: str, ap: AbstractPolyhedron, a: AngleAssignment
          ) -> Tuple[str, Optional[str]]:
    """(branch, wrong): the branch realize(ap, a) took, as the bench's
    tracer attributes it, and None when the output passes the bench's
    realize check, else what went wrong, led by the failure's type."""
    tracer = Tracer()
    tracer.install()
    try:
        r = realize.realize(ap, a)
    except Exception as exc:    # a census records every failure
        r, wrong = None, f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    taken = [b for b, v in tracer.summary()["_branches"].items()
             if v["calls"]]
    kind = taken[0] if len(taken) == 1 else "unattributed"
    if r is not None:
        wrong = realize_check(Item(name, ap, a), r, None)
        wrong = None if wrong is None else f"check: {wrong}"
    return kind, wrong


def main() -> int:
    t0 = time.perf_counter()
    aps = polyhedra(MAX_FACES)
    t1 = time.perf_counter()
    print(f"{len(aps)} complexes with 5..{MAX_FACES} faces, "
          f"generated in {t1 - t0:.1f} s")
    failures = []
    for n in range(5, MAX_FACES + 1):
        here = [ap for ap in aps if ap.face_count == n]
        empty, ok, runs = 0, Counter(), Counter()
        for ap in here:
            aims = targets(ap)
            empty += not aims
            for label, a in aims:
                name = f"{ap.name}@{label}"
                kind, wrong = check(name, ap, a)
                runs[kind] += 1
                if wrong is None:
                    ok[kind] += 1
                else:
                    failures.append((name, kind, wrong))
        outcomes = ", ".join(f"{kind} {ok[kind]}/{runs[kind]} ok"
                             for kind in sorted(runs))
        print(f"N={n}: {len(here)} complexes, {empty} with an empty angle "
              f"set; {outcomes}")
    print(f"{len(failures)} failures; realized in "
          f"{time.perf_counter() - t1:.1f} s")
    for name, kind, wrong in failures:
        print(f"FAIL {name} ({kind}): {wrong}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
