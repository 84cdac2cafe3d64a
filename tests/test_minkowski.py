"""Hyperboloid-model primitives and explicit constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andreev import catalog, complexes, minkowski, whitehead
from conftest import built_prism, built_split_prism

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def random_isometry(rng):
    """A proper orthochronous Lorentz transform: rotation, boost, rotation."""
    def rot():
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        m = np.eye(4)
        m[1:, 1:] = q
        return m

    phi = rng.uniform(-1.5, 1.5)
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = math.cosh(phi)
    boost[0, 1] = boost[1, 0] = math.sinh(phi)
    return rot() @ boost @ rot()


class TestDihedral:
    def test_orthogonal(self):
        assert minkowski.dihedral((0, 1, 0, 0), (0, 0, 1, 0)) == pytest.approx(
            math.pi / 2)

    def test_sixty_degrees(self):
        w = (0, -0.5, math.sqrt(3) / 2, 0)
        assert minkowski.dihedral((0, 1, 0, 0), w) == pytest.approx(math.pi / 3)

    def test_tangent_planes_rejected(self):
        v = np.array([0.0, 1.0, 0.0, 0.0])
        w = np.array([math.sinh(1.0), -math.cosh(1.0), 0.0, 0.0])
        assert abs(minkowski.mdot(w, w) - 1) < 1e-12
        with pytest.raises(minkowski.NotIntersecting):
            minkowski.dihedral(v, w)


def test_coseqn_identity_bulk():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        a, b, g = rng.uniform(1e-3, math.pi / 2, size=3)
        worst = max(worst, abs(minkowski.coseqn_determinant(a, b, g)
                               - minkowski.coseqn_product(a, b, g)))
    assert worst < 1e-12


def test_coseqn_vanishes_on_the_ideal_locus():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.uniform(0.3, math.pi / 2)
        b = rng.uniform(0.3, min(math.pi / 2, math.pi - a - 0.3))
        g = math.pi - a - b
        if not (0 < g <= math.pi / 2):
            continue
        assert abs(minkowski.coseqn_determinant(a, b, g)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, math.pi / 2), st.floats(0.05, math.pi / 2),
       st.floats(0.05, math.pi / 2))
def test_coseqn_identity_hypothesis(a, b, g):
    assert abs(minkowski.coseqn_determinant(a, b, g)
               - minkowski.coseqn_product(a, b, g)) < 1e-12


class TestVertexPoint:
    def test_coordinate_planes(self):
        p = minkowski.vertex_point((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert np.allclose(p, [1, 0, 0, 0])

    def test_residuals(self):
        # a symmetric 2pi/5 corner boosted off the origin
        rng = np.random.default_rng(17)
        L = random_isometry(rng)
        normals = [L @ v for v in _corner_triple(2 * math.pi / 5)]
        p = minkowski.vertex_point(*normals)
        for v in normals:
            assert abs(minkowski.mdot(p, v)) < 1e-10
        assert minkowski.mdot(p, p) == pytest.approx(-1.0)

    def test_ideal_point_rejected(self):
        with pytest.raises(minkowski.GeometryError):
            minkowski.vertex_point(*_corner_triple(math.pi / 3))


def test_vertex_points_match_vertex_point():
    """The cofactor kernel refuses exactly the triples the scalar SVD
    oracle refuses, with the same error, and its points agree with the
    oracle's within a few ulps of max|X|^2 / det."""
    import itertools
    units = minkowski.build_prism(8, math.pi / 2, 0.05)
    refused = set()
    finite, want = [], []
    for t in itertools.combinations(range(len(units)), 3):
        try:
            p = minkowski.vertex_point(*units[list(t)])
        except minkowski.GeometryError as exc:
            refused.add(type(exc))
            with pytest.raises(type(exc)):
                minkowski.vertex_points(units, [t])
            continue
        finite.append(t)
        want.append(p)
    assert finite and minkowski.NoCommonPoint in refused
    want = np.array(want)
    dets = minkowski.vertex_cofactors(units, finite)[1]
    scale = (np.finfo(float).eps * np.abs(units).max() ** 2 / dets
             * np.abs(want).max(axis=1))
    got = minkowski.vertex_points(units, finite)
    assert np.all(np.abs(got - want).max(axis=1) <= 8 * scale)
    ideal = _corner_triple(math.pi / 3)
    with pytest.raises(minkowski.IdealPoint):
        minkowski.vertex_point(*ideal)
    mixed = np.vstack([units, ideal])
    n = len(units)
    with pytest.raises(minkowski.IdealPoint):
        minkowski.vertex_points(mixed, [finite[0], (n, n + 1, n + 2)])
    apart = _vertical_triple(0.5)
    with pytest.raises(minkowski.NoCommonPoint):
        minkowski.vertex_point(*apart)
    with pytest.raises(minkowski.NoCommonPoint):
        minkowski.vertex_points(apart, [(0, 1, 2)])


def _built_realizations():
    built = [built_prism(n, math.pi / 3, 0.1) for n in (5, 6, 8)]
    built.append(built_split_prism(9))
    L = random_isometry(np.random.default_rng(5))
    r = built[-1]
    built.append(minkowski.Realization(complex=r.complex,
                                       normals=r.normals @ L.T,
                                       points=r.points @ L.T))
    return built


@pytest.mark.parametrize("r", _built_realizations(),
                         ids=["prism5", "prism6", "prism8", "split9",
                              "split9_moved"])
def test_edge_angles_match_dihedral(r):
    want = [minkowski.dihedral(r.normals[fa], r.normals[fb])
            for (_, _, fa, fb) in r.complex.edges]
    assert r.edge_angles() == want


def test_edge_angles_name_the_first_tangent_edge():
    r = built_prism(6, math.pi / 3, 0.1)
    normals = np.array(r.normals)
    _, _, fa, fb = r.complex.edges[3]
    # <v,w> = -1 with both unit: the planes touch at infinity
    normals[fa], normals[fb] = (0, 1, 0, 0), (1, -1, 1, 0)
    bent = minkowski.Realization(complex=r.complex, normals=normals,
                                 points=r.points)
    first = None
    for e, (_, _, ga, gb) in enumerate(r.complex.edges):
        try:
            minkowski.dihedral(normals[ga], normals[gb])
        except minkowski.NotIntersecting:
            first = e
            break
    assert first is not None and first <= 3
    with pytest.raises(minkowski.NotIntersecting, match=f"edge {first}:"):
        bent.edge_angles()


def _corner_triple(alpha):
    """Three planes through (1,0,0,0) whose pairwise dihedral angles are
    alpha; at alpha = pi/3 the configuration is ideal instead."""
    target = -math.cos(alpha)               # required pairwise product
    c2 = (2 * target + 1) / 3               # cos^2 of the polar tilt
    if c2 < 0:
        c2 = 0.0
    ct, s = math.sqrt(c2), math.sqrt(1 - c2)
    vs = []
    for i in range(3):
        phi = 2 * math.pi * i / 3
        vs.append(np.array([0.0, s * math.cos(phi), s * math.sin(phi), ct]))
    return vs


def _vertical_triple(t):
    """Three boosted vertical planes; for t > 0 their Gram is indefinite."""
    vs = []
    for i in range(3):
        phi = 2 * math.pi * i / 3
        vs.append(np.array([math.sinh(t), math.cosh(t) * math.cos(phi),
                            math.cosh(t) * math.sin(phi), 0.0]))
    return vs


class TestPerpPlane:
    def test_common_point_rejected(self):
        with pytest.raises(minkowski.CommonPoint):
            minkowski.perp_plane((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_truncating_plane(self):
        normals = _vertical_triple(0.4)
        interior = (math.cosh(0.7), 0.0, 0.0, math.sinh(0.7))
        w = minkowski.perp_plane(*normals, interior=interior)
        assert minkowski.mdot(w, w) == pytest.approx(1.0)
        for v in normals:
            assert abs(minkowski.mdot(w, v)) < 1e-10

    def test_ideal_tangency_rejected(self):
        with pytest.raises(minkowski.CommonPoint):
            minkowski.perp_plane(*_corner_triple(math.pi / 3))


def _triangles(ap):
    return complexes.dual(ap).triangle_set


def _bounded_triangles(planes):
    """The triangles of the cell structure the planes bound."""
    return _triangles(minkowski.extract_combinatorics(planes).complex)


class TestBuildPrism:
    def test_pr5_angles(self):
        planes = minkowski.build_prism(5, math.pi / 4, 0.01)
        ap = catalog.prism(5)
        assert _bounded_triangles(planes) == _triangles(ap)
        r = minkowski.certify(ap, planes)
        for e, ang in enumerate(r.edge_angles()):
            fa, fb = ap.edges[e][2], ap.edges[e][3]
            if len(ap.faces[fa]) == 4 and len(ap.faces[fb]) == 4:
                assert abs(ang - math.pi / 4) < 1e-9
            else:
                assert 0 < ang < math.pi / 2

    def test_pr10(self):
        planes = minkowski.build_prism(10, math.pi / 5)
        assert planes.shape == (10, 4)
        assert _bounded_triangles(planes) == _triangles(catalog.prism(10))

    def test_too_small(self):
        with pytest.raises(minkowski.BadParameters):
            minkowski.build_prism(4, math.pi / 4)

    def test_no_such_polygon(self):
        with pytest.raises(minkowski.BadParameters):
            minkowski.build_prism(5, math.pi / 2)  # euclidean triangle limit

    @pytest.mark.parametrize("gap", [math.pi - 0.3, math.pi / 2, 3.5])
    def test_gap_outside_open_quarter_turn(self, gap):
        with pytest.raises(minkowski.BadParameters):
            minkowski.build_prism(8, math.pi / 2, gap)


class TestSplitPrism:
    def test_seven_faces_refused(self):
        """The 7-face split prism would be the prism itself, which
        build_prism builds."""
        with pytest.raises(minkowski.BadParameters):
            minkowski.build_split_prism(7)

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    def test_matches_target_complex(self, n):
        planes = minkowski.build_split_prism(n)
        assert (_bounded_triangles(planes)
                == catalog.split_prism_dual(n).triangle_set)
        r = minkowski.certify(catalog.split_prism(n), planes)
        for ang in r.edge_angles():
            near = min(abs(ang - math.pi / 3), abs(ang - math.pi / 2))
            assert near < 1e-8

    @pytest.mark.parametrize("n", range(8, 17))
    def test_planes_in_catalog_labels(self, n):
        planes = minkowski.build_split_prism(n)
        minkowski.certify(catalog.split_prism(n), planes)
        ext = minkowski.extract_combinatorics(planes)
        labels = whitehead.split_prism_labels(complexes.dual(ext.complex))
        assert labels == {v: v for v in range(n)}

    def test_too_small(self):
        with pytest.raises(minkowski.BadParameters):
            minkowski.build_split_prism(6)


@pytest.mark.parametrize("n", range(5, 13))
def test_builders_match_extraction(n):
    """The prism builders' planes in catalog order certify on the catalog
    complex, and extraction finds the same cells and vertices."""
    angle = {5: math.pi / 4, 6: 2 * math.pi / 5}.get(n, math.pi / 2)
    built = [built_prism(n, angle, math.pi / 10)]
    if n >= 8:
        built.append(built_split_prism(n))
    for r in built:
        ext = minkowski.extract_combinatorics(r.normals)
        assert _triangles(ext.complex) == _triangles(r.complex)
        at = {ext.complex.vertex_faces(v): p
              for v, p in enumerate(ext.points)}
        want = np.array([at[r.complex.vertex_faces(v)]
                         for v in range(r.complex.vertex_count)])
        assert np.allclose(want, r.points, rtol=1e-9, atol=1e-9)


def test_realization_arrays_are_read_only():
    r = built_prism(5, math.pi / 4, 0.01)
    assert r.normals.shape == (5, 4) and r.points.shape == (6, 4)
    assert r.normals.dtype == r.points.dtype == np.float64
    with pytest.raises(ValueError):
        r.normals[0, 0] = 1.0
    with pytest.raises(ValueError):
        r.points[0, 0] = 1.0


def test_extract_rejects_open_sets():
    planes = minkowski.build_prism(5, math.pi / 4, 0.01)
    with pytest.raises(minkowski.GeometryError):
        minkowski.extract_combinatorics(list(planes)[1:])  # no bottom cap


def test_extracted_vertices_exhaust_definite_triples():
    r = built_prism(6, math.pi / 3, 0.05)
    ap = r.complex
    vs = [np.array(v) for v in r.normals]
    combos = set()
    import itertools
    for i, j, k in itertools.combinations(range(len(vs)), 3):
        g = np.array([[minkowski.mdot(vs[a], vs[b]) for b in (i, j, k)]
                      for a in (i, j, k)])
        if np.all(np.linalg.eigvalsh(g) > 1e-9):
            combos.add((i, j, k))
    listed = {tuple(sorted(ap.vertex_faces(v)))
              for v in range(ap.vertex_count)}
    assert combos == listed


def test_lorentz_invariance():
    rng = np.random.default_rng(3)
    r = built_prism(7, math.pi / 3, 0.04)
    base_angles = r.edge_angles()
    base_lengths = r.edge_lengths()
    for _ in range(3):
        L = random_isometry(rng)
        assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-12)
        moved = minkowski.extract_combinatorics(
            [L @ np.array(v) for v in r.normals])
        m = complexes.isomorphic(complexes.dual(moved.complex),
                                 complexes.dual(r.complex))
        assert m is not None
        assert np.allclose(sorted(moved.edge_angles()), sorted(base_angles),
                           atol=1e-9)
        assert np.allclose(sorted(moved.edge_lengths()), sorted(base_lengths),
                           atol=1e-9)


class TestExport:
    def test_off_counts(self):
        r = built_prism(5, math.pi / 4, 0.01)
        text = minkowski.export(r, "off").decode()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert lines[0] == "OFF"
        nv, nf, ne = (int(x) for x in lines[1].split())
        assert (nv, nf, ne) == (6, 5, 9)
        assert len(lines) == 2 + nv + nf
        for ln in lines[2:2 + nv]:
            coords = [float(x) for x in ln.split()]
            assert len(coords) == 3
            assert sum(c * c for c in coords) < 1.0  # inside the ball
        for ln in lines[2 + nv:]:
            parts = [int(x) for x in ln.split()]
            assert parts[0] == len(parts) - 1

    def test_origin_maps_to_zero(self):
        assert minkowski._ball((1.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_byte_stability(self):
        r = built_prism(6, math.pi / 3, 0.02)
        assert minkowski.export(r, "json") == minkowski.export(r, "json")
        assert minkowski.export(r, "ball_json") == minkowski.export(r, "ball_json")
