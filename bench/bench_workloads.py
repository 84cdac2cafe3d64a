"""Corpora, the unit of work ("op") and output checks of each workload.

Random complexes are `whitehead.random_simple(n, seed_i, moves=30)`.
Those drawn from the workload seed w use seed_i = 2 + k*w + j for the
j-th of k complexes of a size; seeds 0 and 1 are the fixed ("default")
ones.  The cost of one random complex varies by 20-50% from one seed to
the next, so every corpus keeps a fixed part (the catalog and
default-seed complexes) that the seed does not move, and draws its
seeded complexes where they are a small share of a pass and do not
change which input the median and the tail percentile fall on: the
realize ones are as cheap as the small catalog complexes, the feasible
one costs at least as much as the inputs around the median.  A pass
over a corpus takes five to eight seconds, so that a run makes several
passes.

- realize: `realize.realize(ap, a)` on prisms 5-10, the cube, the
  dodecahedron, the truncated tetrahedron, the corner-truncated and
  corner-doubled cubes, random n in {10,12,14} with seeds 0 and 1,
  random n=16 with seed 1 (it fails with `Diverged`), and two seeded
  random complexes with n=8.  Angles are uniform 2/5, or
  `angles.feasible(ap).witness` where 2/5 is not admissible.  This is
  the product path: the audit, circuit enumeration and Newton carry it,
  the LP none of it.
- feasible: `angles.feasible(ap)` on the 11 complexes of
  `catalog.corpus()`, random n=10 and n=12 with seed 0, and one seeded
  random complex with n=10.  The exact Fraction simplex carries it.
- combinatorics: `whitehead.reduce_to_dn(dual(ap))`,
  `angles.check_conditions(ap, 2/5)` and `complexes.isomorphic(ap, ap)`
  on random n in {24,32,40,48} with seed 0 and one seeded random
  complex for each n in {24,32}: no floats, the O(N^4) 4-cycle scan and
  the Whitehead reduction.

Each op receives a fresh copy of its complex, so no cached property of
one op serves the next: a user realizes a complex once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from andreev import angles, catalog, complexes, minkowski, realize, whitehead
from andreev.angles import AngleAssignment
from andreev.complexes import AbstractPolyhedron

TWO_FIFTHS = Fraction(2, 5)
MOVES = 30
RESIDUAL_TOL = 1e-10    # Gram residual of a realization
ANGLE_TOL = 1e-8        # achieved dihedral angle vs target
_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass
class Item:
    name: str
    ap: AbstractPolyhedron
    angles: Optional[AngleAssignment] = None


def fresh(ap: AbstractPolyhedron) -> AbstractPolyhedron:
    """The same complex as a new object, with no cached properties."""
    return dataclasses.replace(ap)


def random_item(n: int, seed: int) -> Item:
    name = f"random_simple({n},{seed})"
    dc = whitehead.random_simple(n, seed, moves=MOVES)
    return Item(name, complexes.primal(dc, name=name))


def seeded(sizes, per_size: int, w: int) -> List[Item]:
    return [random_item(n, 2 + per_size * w + j)
            for n in sizes for j in range(per_size)]


# realize

def realize_corpus(w: int) -> List[Item]:
    aps = [catalog.prism(n) for n in range(5, 11)]
    aps += [catalog.cube(), catalog.dodecahedron(),
            catalog.truncated_tetrahedron(), catalog.corner_truncated_cube(),
            catalog.corner_doubled_cube()]
    items = [Item(ap.name, ap) for ap in aps]
    items += [random_item(n, s) for n in (10, 12, 14) for s in (0, 1)]
    items += [random_item(16, 1)] + seeded((8,), 2, w)
    for it in items:
        a = AngleAssignment.uniform(it.ap.edge_count, TWO_FIFTHS)
        if not angles.check_conditions(it.ap, a).member:
            a = angles.feasible(it.ap).witness
        it.angles = a
    return items


def realize_op(it: Item, ap: AbstractPolyhedron):
    return realize.realize(ap, it.angles)


def realize_check(it: Item, r, want: Optional[dict]) -> Optional[str]:
    """None when the realization is right, else what is wrong."""
    if r.complex.faces != it.ap.faces:
        return "realization carries another complex"
    target = np.array(it.angles.to_floats())
    V = np.array(r.normals)
    G = V @ _ETA @ V.T
    fa = np.array([e[2] for e in it.ap.edges])
    fb = np.array([e[3] for e in it.ap.edges])
    res = max(np.max(np.abs(np.diag(G) - 1.0)),
              np.max(np.abs(G[fa, fb] + np.cos(target))))
    if not res <= RESIDUAL_TOL:
        return f"Gram residual {res:.3e} > {RESIDUAL_TOL}"
    try:
        got = np.array(r.edge_angles())
    except minkowski.GeometryError as exc:
        return f"edge angles: {type(exc).__name__}"
    dev = np.max(np.abs(got - target))
    if not dev <= ANGLE_TOL:
        return f"angle deviation {dev:.3e} > {ANGLE_TOL}"
    try:
        ext = minkowski.extract_combinatorics(r.normals)
    except minkowski.GeometryError as exc:
        return f"extract_combinatorics: {type(exc).__name__}"
    if (complexes.dual(ext.complex).triangle_set
            != complexes.dual(it.ap).triangle_set):
        return "planes bound another cell structure"
    return None


def realize_record(it: Item, r) -> dict:
    return {}  # geometry is checked against tolerances, not recorded


# feasible

def feasible_corpus(w: int) -> List[Item]:
    items = [Item(ap.name, ap) for ap in catalog.corpus()]
    return (items + [random_item(10, 0), random_item(12, 0)]
            + seeded((10,), 1, w))


def feasible_op(it: Item, ap: AbstractPolyhedron):
    return angles.feasible(ap)


def _fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def feasible_record(it: Item, rep) -> dict:
    return {"verdict": rep.verdict, "max_slack": _fraction(rep.max_slack)}


def feasible_check(it: Item, rep, want: Optional[dict]) -> Optional[str]:
    if want is not None:
        got = feasible_record(it, rep)
        for key in ("verdict", "max_slack"):
            if got[key] != want[key]:
                return f"{key} {got[key]}, recorded {want[key]}"
    elif complexes.is_simple(it.ap) and not rep.nonempty:
        # 2/5 on every edge is admissible on a simple complex.
        return "empty verdict on a simple complex"
    if rep.nonempty != (rep.max_slack > 0):
        return "verdict disagrees with the sign of max_slack"
    if rep.nonempty:
        if rep.witness is None:
            return "nonempty verdict without a witness"
        if not angles.check_conditions(it.ap, rep.witness).member:
            return "witness fails check_conditions"
    elif rep.witness is not None:
        return "empty verdict with a witness"
    return None


# combinatorics

def combinatorics_corpus(w: int) -> List[Item]:
    return ([random_item(n, 0) for n in (24, 32, 40, 48)]
            + seeded((24, 32), 1, w))


def combinatorics_op(it: Item, ap: AbstractPolyhedron):
    trace = whitehead.reduce_to_dn(complexes.dual(ap))
    report = angles.check_conditions(
        ap, AngleAssignment.uniform(ap.edge_count, TWO_FIFTHS))
    iso = complexes.isomorphic(ap, ap)
    return trace, report, iso


def _digest(dc: complexes.DualComplex) -> str:
    text = json.dumps([list(t) for t in dc.triangles])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combinatorics_record(it: Item, out) -> dict:
    trace = out[0]
    return {"moves": len(trace.moves), "end": _digest(trace.end),
            "k3": len(complexes.prismatic_circuits(it.ap, 3)),
            "k4": len(complexes.prismatic_circuits(it.ap, 4))}


def combinatorics_check(it: Item, out, want: Optional[dict]) -> Optional[str]:
    trace, report, iso = out
    try:
        whitehead.replay(trace)
    except whitehead.WhiteheadError as exc:
        return f"replay: {exc}"
    if not report.member:
        return "2/5 rejected on a simple complex"
    tris = complexes.dual(it.ap).triangle_set
    if iso is None or {tuple(sorted(iso[x] for x in t)) for t in tris} != tris:
        return "isomorphic(ap, ap) is not an automorphism"
    if want is not None and (len(trace.moves), _digest(trace.end)) != (
            want["moves"], want["end"]):
        return "reduction differs from the recorded one"
    return None


def combinatorics_input_check(it: Item, want: Optional[dict]) -> Optional[str]:
    """Circuit counts of the input against the recorded ones, once per
    input: the op's own outputs do not expose them."""
    if want is None:
        return None
    got = (len(complexes.prismatic_circuits(it.ap, 3)),
           len(complexes.prismatic_circuits(it.ap, 4)))
    if got != (want["k3"], want["k4"]):
        return f"circuit counts {got}, recorded {(want['k3'], want['k4'])}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], List[Item]]   # workload seed -> inputs
    op: Callable                          # (input, fresh complex) -> output
    check: Callable                       # (input, output, record) -> error
    record: Callable                      # (input, output) -> exact values
    input_check: Optional[Callable] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("realize", realize_corpus, realize_op, realize_check,
             realize_record),
    Workload("feasible", feasible_corpus, feasible_op, feasible_check,
             feasible_record),
    Workload("combinatorics", combinatorics_corpus, combinatorics_op,
             combinatorics_check, combinatorics_record,
             combinatorics_input_check),
)}
