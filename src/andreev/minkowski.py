"""Numeric primitives in the hyperboloid model.

Vectors live in R^4 with the indefinite form <x,y> = -x0 y0 + x1 y1 +
x2 y2 + x3 y3.  Hyperbolic space is the sheet <x,x> = -1, x0 > 0, and
a plane is the orthogonal complement of a unit spacelike normal v,
bounding the half space <w,v> <= 0.  All tolerances are overridable;
the defaults are 1e-10 for residuals and 1e-9 for sign classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import complexes
from .complexes import AbstractPolyhedron

CLASSIFY_TOL = 1e-9
RESIDUAL_TOL = 1e-10

_METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


class GeometryError(ValueError):
    pass


class NotIntersecting(GeometryError):
    pass


class OutOfRange(GeometryError):
    pass


class NoFiniteVertex(GeometryError):
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


def mdot(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(-x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3])


def unit_spacelike(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    q = mdot(v, v)
    if q <= 0:
        raise OutOfRange("normal vector is not spacelike")
    return v / math.sqrt(q)


def unit_timelike(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = mdot(p, p)
    if q >= 0:
        raise OutOfRange("point vector is not timelike")
    p = p / math.sqrt(-q)
    return p if p[0] > 0 else -p


def dihedral(v, w, tol: float = CLASSIFY_TOL) -> float:
    """Angle between intersecting planes: arccos(-<v,w>)."""
    c = mdot(v, w)
    if c * c >= 1 - tol:
        raise NotIntersecting(f"<v,w> = {c}, planes tangent or disjoint")
    return math.acos(-c)


class TripleClass(NamedTuple):
    kind: str  # finite_vertex | ideal_vertex | no_vertex
    determinant: float


def coseqn_determinant(a: float, b: float, g: float) -> float:
    ca, cb, cg = math.cos(a), math.cos(b), math.cos(g)
    return 1 - 2 * ca * cb * cg - ca * ca - cb * cb - cg * cg


def coseqn_product(a: float, b: float, g: float) -> float:
    """The same determinant as a product of four cosines of half-sums."""
    return -4 * (math.cos((a + b + g) / 2) * math.cos((a - b + g) / 2)
                 * math.cos((a + b - g) / 2) * math.cos((-a + b + g) / 2))


def triple_class(a: float, b: float, g: float,
                 tol: float = CLASSIFY_TOL) -> TripleClass:
    """Whether planes meeting pairwise at these angles share a finite
    vertex (angle sum above pi), an ideal one (exactly pi), or none."""
    for x in (a, b, g):
        if not (0 < x <= math.pi / 2 + tol):
            raise OutOfRange(f"angle {x} outside (0, pi/2]")
    d = coseqn_determinant(a, b, g)
    if d > tol:
        return TripleClass("finite_vertex", d)
    if d < -tol:
        return TripleClass("no_vertex", d)
    return TripleClass("ideal_vertex", d)


def face_angle(ai: float, aj: float, ak: float,
               tol: float = CLASSIFY_TOL) -> float:
    """Face angle opposite edge i at a finite trivalent vertex, by the
    spherical law of cosines from the three dihedral angles."""
    if triple_class(ai, aj, ak, tol).kind != "finite_vertex":
        raise NoFiniteVertex("dihedral angles do not meet at a finite vertex")
    num = math.cos(ai) + math.cos(aj) * math.cos(ak)
    den = math.sin(aj) * math.sin(ak)
    arg = num / den
    if not (-1 <= arg <= 1):
        raise NoFiniteVertex(f"face-angle cosine {arg} out of range")
    return math.acos(arg)


def _gram(vs: Sequence[np.ndarray]) -> np.ndarray:
    return np.array([[mdot(a, b) for b in vs] for a in vs])


def _minkowski_null(vs: Sequence[np.ndarray]) -> np.ndarray:
    """A vector orthogonal (in the form) to all given vectors."""
    rows = np.array([np.asarray(v, dtype=float) @ _METRIC for v in vs])
    _, _, vt = np.linalg.svd(rows)
    return vt[-1]


def vertex_point(v1, v2, v3, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """The finite point common to three planes with positive-definite
    Gram matrix, as a unit timelike vector with x0 > 0."""
    vs = [unit_spacelike(v) for v in (v1, v2, v3)]
    eig = np.linalg.eigvalsh(_gram(vs))
    if eig[0] > tol:
        p = _minkowski_null(vs)
        return unit_timelike(p)
    if eig[0] >= -tol:
        raise IdealPoint("planes meet on the sphere at infinity")
    raise NoCommonPoint("planes have no common point")


def perp_plane(v1, v2, v3, interior=(1.0, 0.0, 0.0, 0.0),
               tol: float = CLASSIFY_TOL) -> np.ndarray:
    """The plane meeting all three given planes at right angles, which
    exists when they pairwise intersect but share no point, even at
    infinity.  Oriented away from the given interior point."""
    vs = [unit_spacelike(v) for v in (v1, v2, v3)]
    eig = np.linalg.eigvalsh(_gram(vs))
    if eig[0] >= -tol:
        raise CommonPoint("planes share a point (possibly ideal)")
    w = unit_spacelike(_minkowski_null(vs))
    side = mdot(w, interior)
    if abs(side) <= tol:
        raise GeometryError("interior point lies on the perpendicular plane")
    return -w if side > 0 else w


def right_triangle_legs(s1: float, s2: float, s3: float) -> Tuple[float, float, float]:
    """Axis distances a1,a2,a3 with cosh(s_i) = cosh(a_j) cosh(a_k),
    for a non-obtuse triangle with side lengths s1,s2,s3."""
    c1, c2, c3 = math.cosh(s1), math.cosh(s2), math.cosh(s3)
    vals = (c2 * c3 / c1, c3 * c1 / c2, c1 * c2 / c3)
    if any(v < 1 for v in vals):
        raise OutOfRange("side lengths do not come from a non-obtuse triangle")
    return tuple(math.acosh(math.sqrt(v)) for v in vals)


@dataclass(frozen=True)
class Realization:
    """A compact polyhedron given by outward unit face normals, with the
    combinatorics extracted from them.  Vertex ids follow the complex;
    points[v] is the hyperboloid position of vertex v."""

    complex: AbstractPolyhedron
    normals: Tuple[Tuple[float, float, float, float], ...]
    points: Tuple[Tuple[float, float, float, float], ...]

    @cached_property
    def normal_arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(np.array(v) for v in self.normals)

    @cached_property
    def point_arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(np.array(p) for p in self.points)

    def edge_angles(self) -> List[float]:
        out = []
        for (_, _, fa, fb) in self.complex.edges:
            out.append(dihedral(self.normal_arrays[fa], self.normal_arrays[fb]))
        return out

    def edge_lengths(self) -> List[float]:
        out = []
        for (u, v, _, _) in self.complex.edges:
            c = -mdot(self.point_arrays[u], self.point_arrays[v])
            out.append(math.acosh(max(c, 1.0)))
        return out

    def corner_angles(self) -> Dict[Tuple[int, int], float]:
        """Face angle at each (face, vertex) corner, measured between
        the tangent vectors of the two boundary edges at the vertex."""
        out: Dict[Tuple[int, int], float] = {}
        for f, cycle in enumerate(self.complex.faces):
            n = len(cycle)
            for i, v in enumerate(cycle):
                p = self.point_arrays[v]
                angles = []
                for w in (cycle[(i - 1) % n], cycle[(i + 1) % n]):
                    q = self.point_arrays[w]
                    t = q + mdot(q, p) * p
                    angles.append(t / math.sqrt(mdot(t, t)))
                out[(f, v)] = math.acos(
                    max(-1.0, min(1.0, mdot(angles[0], angles[1]))))
        return out


def extract_combinatorics(normals: Sequence, tol: float = CLASSIFY_TOL,
                          name: str = "realization") -> Realization:
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
                    p = vertex_point(vs[i], vs[j], vs[k], tol)
                except (IdealPoint, NoCommonPoint):
                    continue
                if all(mdot(p, vs[m]) <= tol for m in range(n)
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
        ap = complexes.primal(dc, name=name)
    except complexes.ComplexError as exc:
        raise DegenerateFace(f"planes do not bound a polyhedron: {exc}")
    # primal() numbers vertices by the rank of their sorted dual triple.
    order = {t: i for i, t in enumerate(sorted(triples))}
    points: List[Optional[np.ndarray]] = [None] * len(triples)
    for t, p in zip(triples, pts):
        points[order[t]] = p
    return Realization(
        complex=ap,
        normals=tuple(tuple(float(x) for x in v) for v in vs),
        points=tuple(tuple(float(x) for x in p) for p in points))


def build_prism(n: int, polygon_angle: float, gap: float = 0.1,
                tol: float = CLASSIFY_TOL) -> Realization:
    """The prism with n faces over a regular (n-2)-gon whose vertex
    angle is polygon_angle; the top and bottom faces meet the sides at
    pi/2 - gap."""
    if n < 5:
        raise BadParameters("a prism needs at least 5 faces")
    if not (0 < polygon_angle <= math.pi / 2):
        raise BadParameters("polygon angle must lie in (0, pi/2]")
    if gap <= 0:
        raise BadParameters("angle gap must be positive")
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
    return extract_combinatorics(sides + [top, bottom], tol,
                                 name=f"prism_{n}_realized")


def reflect(x, mirror) -> np.ndarray:
    """Minkowski reflection of x across the plane with unit normal mirror."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(mirror, dtype=float)
    return x - 2 * mdot(x, m) * m


def build_split_prism(n: int, tol: float = CLASSIFY_TOL) -> Realization:
    """The split prism with n faces: a prism with n-1 faces carrying
    ring angles pi/3 on top, pi/2 on the verticals and the glued ring
    except for one pi/4 edge, doubled across its bottom plane.  The
    perpendicular glued-ring edges make the side faces merge with their
    mirror images; the pi/4 edge doubles to a right angle."""
    if n < 7:
        raise BadParameters("the split prism needs at least 7 faces")
    if n == 7:
        # Combinatorially the 7-face split prism is the prism itself.
        return build_prism(7, math.pi / 3, math.pi / 10, tol)

    from fractions import Fraction

    from . import realize
    from .angles import AngleAssignment

    m = n - 1
    k = m - 2
    seed = build_prism(m, math.pi / 2, math.pi / 10, tol)
    ap = seed.complex
    top_face, bottom_face = k, k + 1
    quarter_edge = min(e for e, (_, _, fa, fb) in enumerate(ap.edges)
                       if bottom_face in (fa, fb))
    target = []
    for e, (_, _, fa, fb) in enumerate(ap.edges):
        if top_face in (fa, fb):
            target.append(Fraction(1, 3))
        elif e == quarter_edge:
            target.append(Fraction(1, 4))
        else:
            target.append(Fraction(1, 2))
    start = AngleAssignment(tuple(
        Fraction(2, 5) if top_face in (fa, fb) or bottom_face in (fa, fb)
        else Fraction(1, 2)
        for (_, _, fa, fb) in ap.edges))
    glued = realize.continue_path(seed, AngleAssignment(tuple(target)),
                                  start=start)

    b = np.array(glued.normals[bottom_face])
    out: List[np.ndarray] = []
    for f, v in enumerate(glued.normals):
        if f == bottom_face:
            continue
        v = np.array(v)
        out.append(v)
        if abs(mdot(v, b)) > 1e-7:
            out.append(reflect(v, b))
    return extract_combinatorics(out, tol, name=f"split_prism_{n}_realized")


# Export

def _ball(p) -> Tuple[float, float, float]:
    return (p[1] / (1 + p[0]), p[2] / (1 + p[0]), p[3] / (1 + p[0]))


def export(r: Realization, fmt: str = "off") -> bytes:
    if fmt == "off":
        lines = ["OFF", f"{r.complex.vertex_count} {r.complex.face_count} "
                        f"{r.complex.edge_count}"]
        for p in r.points:
            lines.append(" ".join(f"{c:.17g}" for c in _ball(p)))
        for cycle in r.complex.faces:
            lines.append(" ".join([str(len(cycle))] + [str(v) for v in cycle]))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        data = {
            "name": r.complex.name,
            "vertex_count": r.complex.vertex_count,
            "faces": [list(f) for f in r.complex.faces],
            "normals": [[repr(c) for c in v] for v in r.normals],
            "dihedral_angles": r.edge_angles(),
            "edge_lengths": r.edge_lengths(),
        }
        return (json.dumps(data, indent=2) + "\n").encode()
    if fmt == "ball_json":
        data = {
            "name": r.complex.name,
            "vertices": [list(_ball(p)) for p in r.points],
            "faces": [list(f) for f in r.complex.faces],
        }
        return (json.dumps(data, indent=2) + "\n").encode()
    raise ValueError(f"unknown export format {fmt!r}")
