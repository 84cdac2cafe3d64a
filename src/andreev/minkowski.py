"""Numeric primitives in the hyperboloid model.

Vectors live in R^4 with the indefinite form <x,y> = -x0 y0 + x1 y1 +
x2 y2 + x3 y3.  Hyperbolic space is the sheet <x,x> = -1, x0 > 0, and
a plane is the orthogonal complement of a unit spacelike normal v,
bounding the half space <w,v> <= 0.  Signs are classified with
CLASSIFY_TOL = 1e-9, which every helper, stacked kernel and the
certificate use; the 1e-10 residual tolerance of the Newton solves
belongs to `realize`.  Vertices come from one kernel, vertex_cofactors,
which vertex_points, perp_plane, certify and the walks' step test read;
certify and the step test read it on the same unit normals, so a walk's
last step test is its certificate.  The SVD of vertex_point remains
only as the oracle behind extract_combinatorics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from . import catalog, complexes
from .angles import AngleAssignment
from .complexes import AbstractPolyhedron

CLASSIFY_TOL = 1e-9

_METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


class GeometryError(ValueError):
    pass


class NotIntersecting(GeometryError):
    pass


class OutOfRange(GeometryError):
    pass


class NoCommonPoint(GeometryError):
    pass


class IdealPoint(GeometryError):
    pass


class CommonPoint(GeometryError):
    pass


class BadParameters(GeometryError):
    pass


class NonCompact(GeometryError):
    pass


class DegenerateFace(GeometryError):
    pass


def _form(x, y):
    """The form over the first axis, so one formula (and one rounding)
    serves single vectors, tuples included, and stacked ones."""
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def mdot(x, y) -> float:
    return float(_form(x, y))


def _mdot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mdot of matching vectors along the last axis."""
    return _form(x.T, y.T).T


def unit_spacelike(v) -> np.ndarray:
    """v, one vector or a stack of them, with every vector along the
    last axis scaled to <v,v> = 1."""
    V = np.asarray(v, dtype=float)
    q = _mdot_rows(V, V)
    if not np.all(q > 0):
        raise OutOfRange("normal vector is not spacelike")
    return V / np.sqrt(q)[..., None]


def unit_timelike(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = mdot(p, p)
    if q >= 0:
        raise OutOfRange("point vector is not timelike")
    p = p / math.sqrt(-q)
    return p if p[0] > 0 else -p


def dihedral(v, w) -> float:
    """Angle between intersecting planes: arccos(-<v,w>)."""
    c = mdot(v, w)
    if c * c >= 1 - CLASSIFY_TOL:
        raise NotIntersecting(f"<v,w> = {c}, planes tangent or disjoint")
    return math.acos(-c)


def coseqn_determinant(a: float, b: float, g: float) -> float:
    """Gram determinant of three planes meeting pairwise at angles a, b,
    g: positive when they share a finite vertex, zero at an ideal one."""
    ca, cb, cg = math.cos(a), math.cos(b), math.cos(g)
    return 1 - 2 * ca * cb * cg - ca * ca - cb * cb - cg * cg


def coseqn_product(a: float, b: float, g: float) -> float:
    """The same determinant as a product of four cosines of half-sums."""
    return -4 * (math.cos((a + b + g) / 2) * math.cos((a - b + g) / 2)
                 * math.cos((a + b - g) / 2) * math.cos((-a + b + g) / 2))


def _gram(vs: Sequence[np.ndarray]) -> np.ndarray:
    return np.array([[mdot(a, b) for b in vs] for a in vs])


def _minkowski_null(vs: Sequence[np.ndarray]) -> np.ndarray:
    """A vector orthogonal (in the form) to all given vectors."""
    rows = np.array([np.asarray(v, dtype=float) @ _METRIC for v in vs])
    _, _, vt = np.linalg.svd(rows)
    return vt[-1]


def vertex_point(v1, v2, v3) -> np.ndarray:
    """The finite point common to three planes with positive-definite
    Gram matrix, as a unit timelike vector with x0 > 0: the scalar SVD
    oracle of extract_combinatorics, independent of vertex_cofactors."""
    vs = [unit_spacelike(v) for v in (v1, v2, v3)]
    eig = np.linalg.eigvalsh(_gram(vs))
    if eig[0] > CLASSIFY_TOL:
        p = _minkowski_null(vs)
        return unit_timelike(p)
    if eig[0] >= -CLASSIFY_TOL:
        raise IdealPoint("planes meet on the sphere at infinity")
    raise NoCommonPoint("planes have no common point")


# The 3x3 minors of three rows a, b, c of R^4 by expansion along c: with
# m_kl = a_k b_l - a_l b_k, the minor on the columns x < y < z is
# c_x m_yz - c_y m_xz + c_z m_xy, and the cross product's entry j is
# (-1)^j times the minor without column j.
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PAIR_K, _PAIR_L = np.array(_PAIRS).T
_MINOR_C = np.array([[k for k in range(4) if k != j] for j in range(4)])
_MINOR_M = np.array([[_PAIRS.index((y, z)), _PAIRS.index((x, z)),
                      _PAIRS.index((x, y))] for x, y, z in _MINOR_C])
_MINOR_SIGN = np.array([[s, -s, s] for s in (1.0, -1.0, 1.0, -1.0)])


def vertex_cofactors(normals: np.ndarray, triples
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """For every row (i, j, k) of triples, the generalized cross product p
    of the rows normals[i] eta, normals[j] eta, normals[k] eta, which is
    orthogonal in the form to all three normals, and the determinant of
    their Gram matrix, which equals -<p, p>.  Returned stacked as (V,4)
    and (V,): no SVD or eigenvalue solve, only products of cofactors.
    A triple has a finite common point exactly when its determinant is
    positive; that point is p scaled to the hyperboloid."""
    rows = (np.asarray(normals, dtype=float)[np.asarray(triples)]
            * _METRIC.diagonal())
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    m = a[:, _PAIR_K] * b[:, _PAIR_L] - a[:, _PAIR_L] * b[:, _PAIR_K]
    p = np.einsum("vjk,jk,vjk->vj", c[:, _MINOR_C], _MINOR_SIGN,
                  m[:, _MINOR_M])
    return p, -_mdot_rows(p, p)


def vertex_points(units: np.ndarray, triples, cofactors=None) -> np.ndarray:
    """The finite points p / sqrt(det), x0 > 0, common to the planes
    units[i], units[j], units[k] for every row (i, j, k) of triples,
    stacked as (V,4), from their vertex_cofactors (p, dets), computed
    here when not given.  The rows of units are unit normals, so
    CLASSIFY_TOL bounds the dets as it bounds vertex_point's
    eigenvalues: raises IdealPoint for the first triple with |det| <=
    CLASSIFY_TOL and NoCommonPoint for one with det < -CLASSIFY_TOL."""
    p, dets = cofactors or vertex_cofactors(units, triples)
    bad = np.flatnonzero(~(dets > CLASSIFY_TOL))
    if bad.size:
        t = bad[0]
        planes = np.asarray(triples)[t].tolist()
        if dets[t] >= -CLASSIFY_TOL:
            raise IdealPoint(f"planes {planes} meet on the sphere at infinity")
        raise NoCommonPoint(f"planes {planes} have no common point")
    points = p / np.sqrt(dets)[:, None]
    return np.where(points[:, :1] > 0, points, -points)


def cell_points(units: np.ndarray, triples, p: np.ndarray,
                dets: np.ndarray) -> np.ndarray:
    """The cell test of certify and of every continuation step: each
    triple's vertex_cofactors (p, dets) must give a finite point (see
    vertex_points), and that point must lie inside the half space of
    every face of units outside its triple by more than CLASSIFY_TOL.
    Returns the points; raises IdealPoint, NoCommonPoint or WrongCells
    for the first vertex that fails."""
    points = vertex_points(units, triples, (p, dets))
    margin = points @ _METRIC @ units.T
    margin[np.arange(len(margin))[:, None], triples] = -np.inf
    v, f = np.unravel_index(np.argmax(margin), margin.shape)
    if not margin[v, f] < -CLASSIFY_TOL:
        raise WrongCells(
            f"vertex {v} is not inside the half space of face {f} "
            f"(<p, n> = {margin[v, f]:.3g})")
    return points


def perp_plane(v1, v2, v3, interior=(1.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """The plane meeting all three given planes at right angles, which
    exists when they pairwise intersect but share no point, even at
    infinity.  Oriented away from the given interior point."""
    p, det = vertex_cofactors(unit_spacelike([v1, v2, v3]), [(0, 1, 2)])
    if det[0] >= -CLASSIFY_TOL:
        raise CommonPoint("planes share a point (possibly ideal)")
    w = p[0] / math.sqrt(-det[0])
    side = mdot(w, interior)
    if abs(side) <= CLASSIFY_TOL:
        raise GeometryError("interior point lies on the perpendicular plane")
    return -w if side > 0 else w


def _frozen(x) -> np.ndarray:
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Realization:
    """A compact polyhedron given by outward unit face normals and the
    cell structure they bound.  Vertex ids follow the complex;
    normals[f] is the normal of face f and points[v] the hyperboloid
    position of vertex v, as read-only float64 arrays of shape (N,4)
    and (V,4)."""

    complex: AbstractPolyhedron
    normals: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normals", _frozen(self.normals))
        object.__setattr__(self, "points", _frozen(self.points))

    def edge_angles(self) -> List[float]:
        """dihedral of the two faces of every edge, in edge order."""
        ends = np.array([e[2:] for e in self.complex.edges]).T
        c = _mdot_rows(self.normals[ends[0]], self.normals[ends[1]])
        bad = np.flatnonzero(c * c >= 1 - CLASSIFY_TOL)
        if bad.size:
            e = bad[0]
            raise NotIntersecting(f"edge {e}: <v,w> = {c[e]}, planes "
                                  f"tangent or disjoint")
        # math.acos, not np.arccos: the two round differently.
        return [math.acos(-x) for x in c.tolist()]

    def edge_lengths(self) -> List[float]:
        out = []
        for (u, v, _, _) in self.complex.edges:
            c = -mdot(self.points[u], self.points[v])
            out.append(math.acosh(max(c, 1.0)))
        return out


class WrongCells(GeometryError):
    """The planes do not bound the requested cell structure."""


def certify(ap: AbstractPolyhedron, normals) -> Realization:
    """Wrap plane normals as a Realization of ap, after certifying that
    the planes bound exactly that cell structure.

    The certificate is local: each vertex point, computed from the
    cofactors of its own three unit normals (cell_points, the same test
    every continuation step passes), must be finite and lie inside every
    other half space by more than CLASSIFY_TOL.  That suffices.  With P
    the intersection of the half spaces, each edge's two end points are
    then the two ends of P's intersection with the edge's line, so every
    expected vertex has all three of its polytope edges among the
    expected ones.  The graph of bounded edges of a pointed polytope is
    connected, so these are all the vertices, and P is their hull, which
    is compact.  The margin <p, n> = -sinh(distance) is isometry
    invariant, so far-off coordinates do not erode it.
    """
    X = np.asarray(normals, dtype=float)
    if X.shape != (ap.face_count, 4):
        raise WrongCells(
            f"{len(X)} planes for a complex with {ap.face_count} faces")
    faces = np.array([ap.vertex_faces(v) for v in range(ap.vertex_count)])
    units = unit_spacelike(X)
    points = cell_points(units, faces, *vertex_cofactors(units, faces))
    return Realization(complex=ap, normals=X, points=points)


def extract_combinatorics(normals: Sequence) -> Realization:
    """Rebuild the abstract polyhedron bounded by the given planes.

    Every triple of planes with positive-definite Gram matrix whose
    common point lies inside all other half spaces becomes a vertex; the
    triples, read as dual triangles, determine the face structure.  The
    triple's own three planes hold by construction and are not tested,
    since rounding puts far-off points slightly outside them.
    """
    vs = [unit_spacelike(v) for v in normals]
    n = len(vs)
    triples: List[Tuple[int, int, int]] = []
    pts: List[np.ndarray] = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    p = vertex_point(vs[i], vs[j], vs[k])
                except (IdealPoint, NoCommonPoint):
                    continue
                if all(mdot(p, vs[m]) <= CLASSIFY_TOL for m in range(n)
                       if m not in (i, j, k)):
                    triples.append((i, j, k))
                    pts.append(p)
    if not triples:
        raise NonCompact("no vertices at all")
    counts = [0] * n
    for t in triples:
        for f in t:
            counts[f] += 1
    thin = [f for f in range(n) if counts[f] < 3]
    if thin:
        raise NonCompact(f"faces {thin} have fewer than three vertices")
    try:
        dc = complexes.DualComplex(node_count=n, triangles=tuple(sorted(triples)))
        ap = complexes.primal(dc, name="realization")
    except complexes.ComplexError as exc:
        raise DegenerateFace(f"planes do not bound a polyhedron: {exc}")
    # primal() numbers vertices by the rank of their sorted dual triple,
    # which is the order the scan found them in.
    return Realization(complex=ap, normals=vs, points=pts)


def build_prism(n: int, polygon_angle: float, gap: float = 0.1
                ) -> np.ndarray:
    """Unit normals of the prism with n faces over a regular (n-2)-gon
    whose vertex angle is polygon_angle, in the face order of
    catalog.prism(n): the bottom cap, the top cap, then the sides in
    ring order.  The caps meet the sides at pi/2 - gap."""
    if n < 5:
        raise BadParameters("a prism needs at least 5 faces")
    if not (0 < polygon_angle <= math.pi / 2):
        raise BadParameters("polygon angle must lie in (0, pi/2]")
    if not 0 < gap < math.pi / 2:
        raise BadParameters("angle gap must lie in (0, pi/2)")
    k = n - 2
    c = math.cos(2 * math.pi / k)
    s2 = (math.cos(polygon_angle) + c) / (1 - c)
    if s2 <= 0:
        raise BadParameters(
            f"no regular hyperbolic {k}-gon with angle {polygon_angle}")
    d = math.asinh(math.sqrt(s2))
    t = math.asinh(math.sin(gap) / math.sinh(d))

    sides = []
    for i in range(k):
        phi = 2 * math.pi * i / k
        sides.append(np.array([math.sinh(d),
                               math.cosh(d) * math.cos(phi),
                               math.cosh(d) * math.sin(phi), 0.0]))
    top = np.array([math.sinh(t), 0.0, 0.0, math.cosh(t)])
    bottom = np.array([math.sinh(t), 0.0, 0.0, -math.cosh(t)])
    return unit_spacelike([bottom, top] + sides)


def reflect(x, mirror) -> np.ndarray:
    """Minkowski reflection of x across the plane with unit normal mirror."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(mirror, dtype=float)
    return x - 2 * mdot(x, m) * m


def build_split_prism(n: int) -> np.ndarray:
    """Unit normals of the split prism with n >= 8 faces, in the face
    order of catalog.split_prism(n).  The glued prism catalog.prism(n-1)
    is realized by the prism branch of realize.realize with pi/3 on the
    edges of face 0, pi/4 on the edge between face 1 and face n-3 and
    pi/2 elsewhere, then doubled across face 1: the top (face 0) is the
    apex, the sides follow from face n-2 down to face 2, then come the
    mirror images of face n-3 and of the top.  The perpendicular sides
    merge with their mirror images; the pi/4 edge doubles to a right
    angle."""
    if n < 8:
        raise BadParameters("the split prism needs at least 8 faces")

    # Imported here: realize imports this module.
    from . import realize

    quarter = n - 3
    glued = catalog.prism(n - 1)   # caps 0 and 1, sides 2..n-2 in a ring
    target = AngleAssignment(tuple(
        Fraction(1, 3) if 0 in (fa, fb)
        else Fraction(1, 4) if {fa, fb} == {1, quarter}
        else Fraction(1, 2) for (_, _, fa, fb) in glued.edges))
    X = realize.realize(glued, target).normals
    planes = np.vstack([X[:1], X[n - 2:1:-1], reflect(X[quarter], X[1]),
                        reflect(X[0], X[1])])
    return unit_spacelike(planes)


# Export

def _ball(p) -> Tuple[float, float, float]:
    return (p[1] / (1 + p[0]), p[2] / (1 + p[0]), p[3] / (1 + p[0]))


def export(r: Realization, fmt: str = "off") -> bytes:
    if fmt == "off":
        lines = ["OFF", f"{r.complex.vertex_count} {r.complex.face_count} "
                        f"{r.complex.edge_count}"]
        for p in r.points.tolist():
            lines.append(" ".join(f"{c:.17g}" for c in _ball(p)))
        for cycle in r.complex.faces:
            lines.append(" ".join([str(len(cycle))] + [str(v) for v in cycle]))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        data = {
            "name": r.complex.name,
            "vertex_count": r.complex.vertex_count,
            "faces": [list(f) for f in r.complex.faces],
            "normals": [[repr(c) for c in v] for v in r.normals.tolist()],
            "dihedral_angles": r.edge_angles(),
            "edge_lengths": r.edge_lengths(),
        }
        return (json.dumps(data, indent=2) + "\n").encode()
    if fmt == "ball_json":
        data = {
            "name": r.complex.name,
            "vertices": [list(_ball(p)) for p in r.points.tolist()],
            "faces": [list(f) for f in r.complex.faces],
        }
        return (json.dumps(data, indent=2) + "\n").encode()
    raise ValueError(f"unknown export format {fmt!r}")
