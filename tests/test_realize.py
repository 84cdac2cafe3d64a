"""Newton solves, continuation, replay, truncation, and gluing."""

import functools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from andreev import angles, catalog, complexes, minkowski, realize, whitehead
from andreev.angles import AngleAssignment
from conftest import gram_residual
from test_complexes import relabelled


def uniform(ap, r):
    return AngleAssignment.uniform(ap.edge_count, Fraction(r))


@functools.lru_cache(maxsize=None)
def dodeca_two_fifths():
    ap = catalog.dodecahedron()
    return realize.realize(ap, uniform(ap, Fraction(2, 5)))


@functools.lru_cache(maxsize=None)
def random12_two_fifths():
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    return realize.realize(ap, uniform(ap, Fraction(2, 5)))


@functools.lru_cache(maxsize=None)
def near_ideal_event():
    """Walk the 2*pi/5 dodecahedron toward pi/3 on vertex 0's edges,
    which turns that vertex ideal just before the endpoint."""
    r = dodeca_two_fifths()
    vals = [Fraction(2, 5)] * r.complex.edge_count
    for e in r.complex.vertex_edges(0):
        vals[e] = Fraction(1, 3)
    with pytest.raises(realize.EventDetected) as exc:
        realize.continue_path(r, AngleAssignment(tuple(vals)))
    return exc.value


def angle_error(r, a):
    return max(abs(got - float(want) * math.pi)
               for got, want in zip(r.edge_angles(), a))


class TestNewtonSolve:
    def test_prism_refinement(self):
        ap = catalog.prism(5)
        vals = []
        for (_, _, fa, fb) in ap.edges:
            lateral = len(ap.faces[fa]) == 4 and len(ap.faces[fb]) == 4
            vals.append(Fraction(1, 4) if lateral else Fraction(49, 100))
        a = AngleAssignment(tuple(vals))
        seed = minkowski.build_prism(5, math.pi / 4, 0.01)
        m = complexes.isomorphic(complexes.dual(seed.complex),
                                 complexes.dual(ap))
        normals = [None] * ap.face_count
        for f, g in m.items():
            normals[g] = seed.normals[f]
        r = realize.newton_solve(ap, a, normals)
        assert gram_residual(r, a) < 1e-10
        assert angle_error(r, a) < 1e-9

    def test_wrong_combinatorics_detected(self):
        # a seed from a different polyhedron does not silently pass
        ap = catalog.dodecahedron()
        seed = minkowski.build_prism(12, math.pi / 5, 0.05)
        with pytest.raises(realize.RealizeError):
            realize.newton_solve(ap, uniform(ap, Fraction(2, 5)),
                                 seed.normals)

    def test_resolve_from_own_output(self):
        r = dodeca_two_fifths()
        ap = r.complex
        again = realize.newton_solve(ap, uniform(ap, Fraction(2, 5)),
                                     r.normals)
        assert gram_residual(again, uniform(ap, Fraction(2, 5))) < 1e-10


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def loop_solve(ap, target_rad, seed):
    """The slice-gauged Newton solve with per-face and per-edge loops: the
    reference the index-array assembly of _solve_raw must match bit for
    bit, since Newton sits on the float64 floor and any change of
    rounding can flip an input."""
    N, E = ap.face_count, ap.edge_count
    X = np.array(seed, dtype=float)
    cos_t = np.cos(target_rad)
    pairs = [(ea, eb) for (_, _, ea, eb) in ap.edges]
    # so(3,1): rotations in the x1x2, x1x3 and x2x3 planes, then boosts
    # along x1, x2 and x3
    gens = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        G = np.zeros((4, 4))
        G[i, j], G[j, i] = -1.0, 1.0
        gens.append(G)
    for i in (1, 2, 3):
        G = np.zeros((4, 4))
        G[0, i] = G[i, 0] = 1.0
        gens.append(G)
    for G in gens:
        assert np.array_equal(G.T @ ETA + ETA @ G, np.zeros((4, 4)))

    def residual(Y):
        F = np.zeros(4 * N)
        F[:N] = np.einsum("ij,jk,ik->i", Y, ETA, Y) - 1.0
        for r, (i, j) in enumerate(pairs):
            F[N + r] = Y[i] @ ETA @ Y[j] + cos_t[r]
        return F

    F = residual(X)
    steps = 0
    while np.max(np.abs(F[:N + E])) >= realize.RESIDUAL_TOL:
        J = np.zeros((4 * N, 4 * N))
        eX = X @ ETA
        for i in range(N):
            J[i, 4 * i:4 * i + 4] = 2.0 * eX[i]
        for r, (i, j) in enumerate(pairs):
            J[N + r, 4 * i:4 * i + 4] = eX[j]
            J[N + r, 4 * j:4 * j + 4] = eX[i]
        for k, G in enumerate(gens):
            for f in range(N):
                J[N + E + k, 4 * f:4 * f + 4] = G @ X[f]
        X = X + np.linalg.solve(J, -F).reshape(N, 4)
        F = residual(X)
        steps += 1
    return X, steps


@pytest.mark.parametrize("which", ["dodecahedron", "random"])
def test_newton_assembly_matches_loops(which):
    r = (dodeca_two_fifths() if which == "dodecahedron"
         else random12_two_fifths())
    ap = r.complex
    # 2*pi/5 moved by up to 5% per edge: a few full Newton steps away
    target = 0.4 * math.pi * np.linspace(1.0, 1.05, ap.edge_count)
    seed = realize._centred(r.normals, r.points)
    want, steps = loop_solve(ap, target, seed)
    assert steps >= 3
    got = realize._solve_raw(ap, target, seed)
    assert np.array_equal(got, want)
    dets = [np.linalg.det(got[list(f)] @ ETA @ got[list(f)].T)
            for f in map(ap.vertex_faces, range(ap.vertex_count))]
    assert np.array_equal(realize._vertex_dets(ap, got), dets)


class TestContinuePath:
    def test_to_right_angles(self):
        r = dodeca_two_fifths()
        target = uniform(r.complex, Fraction(1, 2))
        out = realize.continue_path(r, target)
        assert angle_error(out, target) < 1e-9
        assert gram_residual(out, target) < 1e-10

    def test_endpoint_checked_exactly(self):
        ap = catalog.prism(5)
        seed = minkowski.build_prism(5, math.pi / 4, 0.01)
        with pytest.raises(angles.NotMember):
            realize.continue_path(seed, uniform(ap, Fraction(2, 5)))

    def test_event_near_degeneration(self):
        ev = near_ideal_event()
        assert ev.vertices == (0,)
        assert ev.t > 0.95

    def test_outputs_meet_residual_tol(self, monkeypatch):
        # Interior path points stop at PATH_TOL; what leaves the walk,
        # the endpoint or the realization an event carries, does not.
        r = dodeca_two_fifths()
        target = uniform(r.complex, Fraction(1, 2))
        X = realize._continue_core(r, np.array(r.edge_angles()),
                                   realize._radians(target))
        assert gram_residual(SimpleNamespace(complex=r.complex, normals=X),
                             target) <= 1e-10

        solves = []
        solve_raw = realize._solve_raw

        def recording(ap, target_rad, seed, *args):
            X = solve_raw(ap, target_rad, seed, *args)
            solves.append((target_rad / math.pi, X))
            return X

        monkeypatch.setattr(realize, "_solve_raw", recording)
        vals = [Fraction(2, 5)] * r.complex.edge_count
        for e in r.complex.vertex_edges(0):
            vals[e] = Fraction(1, 3)
        with pytest.raises(realize.EventDetected) as exc:
            realize.continue_path(r, AngleAssignment(tuple(vals)))
        ev = exc.value.realization
        # a late bisection solve can return its seed unchanged, so
        # several solves may have produced these normals
        at = [a for a, X in solves if np.array_equal(X, ev.normals)]
        assert at
        assert all(gram_residual(ev, a) <= 1e-10 for a in at)


class TestReplay:
    def test_round_trip(self):
        r = dodeca_two_fifths()
        trace = whitehead.reduce_to_dn(complexes.dual(r.complex))
        mv = trace.moves[0]
        there = realize.replay_whitehead(r, mv)
        assert there.complex.face_count == 12
        back = realize.replay_whitehead(there, mv.inverse())
        assert complexes.isomorphic(
            complexes.dual(back.complex),
            complexes.dual(r.complex)) is not None
        assert angle_error(back, uniform(back.complex, Fraction(2, 5))) < 1e-8

    def test_prism_stage_rejected(self):
        seed = minkowski.build_prism(8, math.pi / 2, 0.1)
        dc = complexes.dual(seed.complex)
        a, b = min(dc.edges)
        mv = whitehead.move_on(dc, a, b)
        with pytest.raises(complexes.NotSimple):
            realize.replay_whitehead(seed, mv)


def _replay_first_move():
    r = dodeca_two_fifths()
    trace = whitehead.reduce_to_dn(complexes.dual(r.complex))
    return realize.replay_whitehead(r, trace.moves[0])


def _truncate_near_ideal():
    ev = near_ideal_event()
    return realize.truncate_ideal(ev.realization, vertices=ev.vertices)


def _staged_pipeline():
    ap = catalog.corner_truncated_cube()
    return realize.realize(ap, angles.feasible(ap).witness)


# site -> (function patched in realize, its caller at the site or None
# for any caller, the error it raises, the run that reaches the site)
SINGLE_ATTEMPT_SITES = {
    "crossed_solve": ("_solve_raw", "replay_whitehead",
                      realize.Diverged("forced"), _replay_first_move),
    "truncation_push": ("perp_plane", None,
                        minkowski.OutOfRange("forced"), _truncate_near_ideal),
    "truncation_interior_point": ("_interior_point", None,
                                  minkowski.NoCommonPoint("forced"),
                                  _truncate_near_ideal),
    "rejoin": ("_solve_raw", "_realize_truncated",
               realize.Diverged("forced"), _staged_pipeline),
}


@pytest.mark.parametrize("site", sorted(SINGLE_ATTEMPT_SITES))
def test_single_attempt_sites_fail_typed(site, monkeypatch):
    name, caller, error, run = SINGLE_ATTEMPT_SITES[site]
    original = getattr(realize, name)
    calls = []

    def failing(*args, **kwargs):
        if caller is None or sys._getframe(1).f_code.co_name == caller:
            calls.append(args)
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(realize, name, failing)
    with pytest.raises(realize.RealizeError):
        run()
    assert len(calls) == 1


class TestTruncateIdeal:
    def test_identity_without_ideal_vertices(self):
        r = dodeca_two_fifths()
        assert realize.truncate_ideal(r) is r

    def test_truncation_after_event(self):
        ev = near_ideal_event()
        cut = realize.truncate_ideal(ev.realization, vertices=ev.vertices)
        assert cut.complex.face_count == 13
        tri = next(f for f in range(13) if len(cut.complex.faces[f]) == 3
                   and f >= 12)
        for e, ang in enumerate(cut.edge_angles()):
            if tri in cut.complex.edges[e][2:]:
                assert abs(ang - math.pi / 2) < 1e-9


class TestDecompose:
    def test_corner_doubled_cube_plan(self):
        ap = catalog.corner_doubled_cube()
        a = angles.feasible(ap).witness
        plan = realize.decompose(ap, a)
        assert len(plan.circuits) == 1
        assert len(plan.pieces) == 2
        for spec in plan.pieces:
            assert angles.check_conditions(spec.complex, spec.angles).member
            assert spec.complex.face_count >= 6  # never a triangular prism
            for pf in spec.new_faces:
                assert len(spec.complex.faces[pf]) == 3
                for e, (_, _, fa, fb) in enumerate(spec.complex.edges):
                    if pf in (fa, fb):
                        assert spec.angles[e] == Fraction(1, 2)

    def test_only_truncated_triangles_refused(self):
        ap = catalog.truncated_tetrahedron()
        a = angles.feasible(ap).witness
        with pytest.raises(realize.NoEssentialCircuits):
            realize.decompose(ap, a)


class TestGlue:
    def test_mismatched_pieces_rejected(self):
        ap = catalog.corner_doubled_cube()
        a = angles.feasible(ap).witness
        plan = realize.decompose(ap, a)
        parts = [realize.realize(s.complex, s.angles) for s in plan.pieces]
        # warp the second piece away from its assignment: the fill
        # triangles stop being congruent
        warped = angles.interior_path(plan.pieces[1].complex,
                                      plan.pieces[1].angles, Fraction(1, 4))
        parts[1] = realize.realize(plan.pieces[1].complex, warped)
        with pytest.raises((realize.IncongruentTriangles,
                            realize.IsometrySolveFailed)):
            realize.glue(parts, plan)


class TestRealize:
    def test_dodecahedron_two_fifths(self):
        r = dodeca_two_fifths()
        a = uniform(r.complex, Fraction(2, 5))
        assert gram_residual(r, a) < 1e-10
        assert angle_error(r, a) < 1e-8

    def test_prism_path(self):
        ap = catalog.prism(5)
        vals = []
        for (_, _, fa, fb) in ap.edges:
            lateral = len(ap.faces[fa]) == 4 and len(ap.faces[fb]) == 4
            vals.append(Fraction(1, 4) if lateral else Fraction(49, 100))
        a = AngleAssignment(tuple(vals))
        r = realize.realize(ap, a)
        assert angle_error(r, a) < 1e-9

    def test_too_few_faces(self):
        ap = catalog.tetrahedron()
        with pytest.raises(realize.RealizeError, match="N >= 5"):
            realize.realize(ap, uniform(ap, Fraction(2, 5)))

    def test_infeasible_rejected(self):
        ap = catalog.alternately_truncated_cube()
        with pytest.raises(realize.InfeasibleAngles):
            realize.realize(ap, uniform(ap, Fraction(2, 5)))

    def test_cube_right_angles_rejected(self):
        # all-pi/2 on the cube trips the 4-circuit condition exactly
        ap = catalog.cube()
        with pytest.raises(realize.InfeasibleAngles):
            realize.realize(ap, uniform(ap, Fraction(1, 2)))

    def test_cube(self):
        ap = catalog.cube()
        a = uniform(ap, Fraction(2, 5))
        r = realize.realize(ap, a)
        assert angle_error(r, a) < 1e-8

    def test_random_simple(self):
        dc = whitehead.random_simple(8, seed=11)
        ap = complexes.primal(dc)
        a = uniform(ap, Fraction(2, 5))
        r = realize.realize(ap, a)
        assert angle_error(r, a) < 1e-8

    def test_random_simple_sixteen_faces(self):
        ap = complexes.primal(whitehead.random_simple(16, seed=2, moves=30))
        a = uniform(ap, Fraction(2, 5))
        r = realize.realize(ap, a)
        assert gram_residual(r, a) < 1e-10
        assert angle_error(r, a) < 1e-8

    def test_truncated_triangle_pipeline(self):
        ap = catalog.corner_truncated_cube()
        a = angles.feasible(ap).witness
        r = realize.realize(ap, a)
        assert angle_error(r, a) < 1e-8
        assert gram_residual(r, a) < 1e-10

    def test_staged_pipeline_with_several_events(self):
        # four truncated triangles, three of them reinstated on the way
        ap = catalog.truncated_tetrahedron()
        a = angles.feasible(ap).witness
        r = realize.realize(ap, a)
        assert angle_error(r, a) < 1e-8
        assert gram_residual(r, a) < 1e-10

    def test_compound_pipeline(self):
        ap = catalog.corner_doubled_cube()
        a = angles.feasible(ap).witness
        r = realize.realize(ap, a)
        assert r.complex.face_count == ap.face_count
        assert angle_error(r, a) < 1e-8

    def test_compactness_margin(self):
        r = dodeca_two_fifths()
        dets = realize._vertex_dets(r.complex, np.array(r.normals))
        assert dets.min() > 1e-3

    def test_uniqueness_from_perturbed_seeds(self):
        r = dodeca_two_fifths()
        ap = r.complex
        a = uniform(ap, Fraction(2, 5))
        lengths = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            noisy = np.array(r.normals) + rng.normal(0, 1e-6, (12, 4))
            out = realize.newton_solve(ap, a, noisy)
            lengths.append(sorted(out.edge_lengths()))
        assert np.allclose(lengths[0], lengths[1], atol=1e-8)

    def test_right_angled_dodecahedron_regularity(self):
        # all-right-angle dodecahedron is regular: one edge length
        r = dodeca_two_fifths()
        out = realize.continue_path(r, uniform(r.complex, Fraction(1, 2)))
        lengths = out.edge_lengths()
        assert max(lengths) - min(lengths) < 1e-9


# Uniform 2*pi/5 inputs from n = 16 on that fail when Newton pins a
# vertex at the origin: far faces reach |X| ~ 1e3 and lift the float64
# floor of the Gram residual to RESIDUAL_TOL.
LARGE_TWO_FIFTHS = ([(16, 1), (18, 2)] + [(20, s) for s in (0, 2, 3, 4)]
                    + [(24, s) for s in range(5)])


@pytest.mark.parametrize("n,seed", LARGE_TWO_FIFTHS)
def test_large_two_fifths_realize(n, seed):
    ap = complexes.primal(whitehead.random_simple(n, seed, moves=30))
    a = uniform(ap, Fraction(2, 5))
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert angle_error(r, a) <= 1e-8


def _schlafli_matrix(r):
    """Central differences d l_i / d theta_j of the edge lengths, each
    from two Newton solves seeded with r at theta +- h e_j."""
    h = 1e-5
    theta = np.array(r.edge_angles())
    cols = []
    for j in range(len(theta)):
        step = np.zeros_like(theta)
        step[j] = h
        plus, minus = (realize.newton_solve(r.complex, theta + d, r.normals)
                       for d in (step, -step))
        cols.append((np.array(plus.edge_lengths())
                     - np.array(minus.edge_lengths())) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("which", ["dodecahedron", "random"])
def test_schlafli_symmetry(which):
    """Schlafli: dV = -1/2 sum l_e d theta_e, so d l_i / d theta_j is -2
    times the Hessian of the volume and must be symmetric."""
    r = (dodeca_two_fifths() if which == "dodecahedron"
         else random12_two_fifths())
    M = _schlafli_matrix(r)
    assert np.max(np.abs(M - M.T)) <= 1e-6 * np.max(np.abs(M))


def _two_fifths(ap):
    r = realize.realize(ap, uniform(ap, Fraction(2, 5)))
    return r.complex, r.normals


def _witness(ap):
    r = realize.realize(ap, angles.feasible(ap).witness)
    return r.complex, r.normals


def _boosted_dodecahedron(rapidity):
    """The 2*pi/5 dodecahedron moved so that vertex 0, not the centre,
    sits at the origin, then boosted along x1: far faces reach |X| > 2e3."""
    r = dodeca_two_fifths()
    L = np.eye(4)
    L[0, 0] = L[1, 1] = math.cosh(rapidity)
    L[0, 1] = L[1, 0] = math.sinh(rapidity)
    X = realize._centred(r.normals, r.points[:1]) @ L.T
    assert np.abs(X).max() > 2e3
    return r.complex, X


def _pushed_dodecahedron():
    # Push face 0 inward until it passes the five vertices one edge away.
    r = dodeca_two_fifths()
    X = np.array(r.normals)
    centre = minkowski.unit_timelike(np.sum(r.points, axis=0))
    X[0] = realize._push_normals(X[:1], centre, -0.9)[0]
    return r.complex, X


def _realization(r):
    return r.complex, r.normals


# name -> (builder of (complex, normals), whether the audits accept)
AUDIT_CASES = {
    "dodecahedron": (lambda: _realization(dodeca_two_fifths()), True),
    "cube": (lambda: _two_fifths(catalog.cube()), True),
    "random8": (lambda: _two_fifths(
        complexes.primal(whitehead.random_simple(8, seed=11))), True),
    "prism7": (lambda: _realization(
        minkowski.build_prism(7, math.pi / 3, 0.04)), True),
    "split_prism10": (lambda: _realization(
        minkowski.build_split_prism(10)), True),
    "corner_truncated_cube": (lambda: _witness(
        catalog.corner_truncated_cube()), True),
    "truncated_tetrahedron": (lambda: _witness(
        catalog.truncated_tetrahedron()), True),
    "corner_doubled_cube": (lambda: _witness(
        catalog.corner_doubled_cube()), True),
    "near_ideal": (lambda: _realization(near_ideal_event().realization), True),
    "truncated_after_event": (lambda: _realization(realize.truncate_ideal(
        near_ideal_event().realization, vertices=(0,))), True),
    "boosted7": (lambda: _boosted_dodecahedron(7), True),
    "boosted8": (lambda: _boosted_dodecahedron(8), True),
    "plane_pushed_past_vertex": (_pushed_dodecahedron, False),
}


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_bind_agrees_with_extraction(case):
    build, accepted = AUDIT_CASES[case]
    ap, normals = build()
    try:
        realize._bind(ap, normals)
        bound = True
    except realize.WrongCombinatorics:
        bound = False
    try:
        ext = minkowski.extract_combinatorics(list(normals))
        rebuilt = (complexes.dual(ext.complex).triangle_set
                   == complexes.dual(ap).triangle_set)
    except minkowski.GeometryError:
        rebuilt = False
    assert bound == rebuilt == accepted


def test_circuits_enumerated_once_per_complex(monkeypatch):
    """realize asks for the circuits of one complex many times (the
    is_simple of every collapse_edge along the replay, and the
    check_conditions of the walks outside it); each complex object
    enumerates its cycles once per k."""
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    requested = {}
    enumerations = []
    enumerate_cycles = complexes._simple_cycles
    ask = complexes.prismatic_circuits

    def counting_cycles(dc, k):
        enumerations.append(k)
        return enumerate_cycles(dc, k)

    def recording_ask(ap, k):
        requested[(id(ap), k)] = ap    # holds ap, so its id stays unique
        return ask(ap, k)

    monkeypatch.setattr(complexes, "_simple_cycles", counting_cycles)
    monkeypatch.setattr(complexes, "prismatic_circuits", recording_ask)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    assert len(requested) > 10
    assert len(enumerations) == len(requested)


def test_simple_branch_computes_no_canonical_form(monkeypatch):
    """The reduction's end and the built split prism are matched through
    their split-prism labels, and prisms through _prism_labels, not a
    canonical-form search; the staged and glued branches use neither."""
    inputs = [complexes.primal(whitehead.random_simple(12, 0), name="r12")]
    inputs += [catalog.prism(n) for n in range(5, 11)]
    inputs += [catalog.cube(), catalog.truncated_tetrahedron(),
               catalog.corner_doubled_cube()]
    searches = []
    canonical_form = complexes._canonical_form

    def counting(dc):
        searches.append(dc)
        return canonical_form(dc)

    monkeypatch.setattr(complexes, "_canonical_form", counting)
    for ap in inputs:
        a = uniform(ap, Fraction(2, 5))
        if not angles.check_conditions(ap, a).member:
            a = angles.feasible(ap).witness
        r = realize.realize(ap, a)
        assert gram_residual(r, a) <= 1e-10
        assert searches == [], ap.name


def test_collapse_profiles_are_members():
    """The replay walks to and from pinch profiles without checking them;
    the full condition table confirms the lemma that lets it, on random
    simple complexes at n = 8-32 and split prisms at n = 8-16."""
    simple = [complexes.primal(whitehead.random_simple(n, s, moves=30))
              for n in range(8, 33) for s in range(3)]
    simple += [complexes.primal(catalog.split_prism_dual(n))
               for n in range(8, 17)]
    checked = 0
    for ap in simple:
        assert angles.check_conditions(ap, uniform(ap, Fraction(2, 5))).member
        for e in range(ap.edge_count):
            try:
                profile = realize._collapse_profile(ap, e)
            except complexes.EdgeOnTriangle:
                continue
            assert angles.check_conditions(ap, profile).member, (ap.name, e)
            checked += 1
    assert checked > 4000


@pytest.mark.parametrize("n,seed", [(16, 1), (24, 0)])
def test_replayed_profiles_are_members(n, seed, monkeypatch):
    ap = complexes.primal(whitehead.random_simple(n, seed))
    profiles = []
    collapse_profile = realize._collapse_profile

    def recording(ap, edge):
        out = collapse_profile(ap, edge)
        profiles.append((ap, out))
        return out

    monkeypatch.setattr(realize, "_collapse_profile", recording)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    assert len(profiles) >= 12
    for cur, profile in profiles:
        assert angles.check_conditions(cur, profile).member


def test_condition_tables_per_realize_do_not_grow_with_moves(monkeypatch):
    """Only the caller's target, the walk inside build_split_prism and
    the two walks of _realize_simple outside the replay build the
    condition table; the replay's moves build none."""
    builds = []
    conditions = angles._conditions

    def counting(ap):
        builds.append(ap)
        return conditions(ap)

    monkeypatch.setattr(angles, "_conditions", counting)
    counts = {}
    for n, seed in ((12, 0), (16, 1), (24, 0)):
        ap = complexes.primal(whitehead.random_simple(n, seed))
        moves = len(whitehead.reduce_to_dn(complexes.dual(ap)).moves)
        builds.clear()
        realize.realize(ap, uniform(ap, Fraction(2, 5)))
        counts[moves] = len(builds)
    assert sorted(counts) == [6, 8, 12]
    assert len(set(counts.values())) == 1


def _prism_label_inputs():
    out = list(catalog.corpus())
    out += [relabelled(catalog.prism(n), n) for n in range(5, 15)]
    for n in range(8, 17):
        ap = complexes.primal(whitehead.random_simple(n, 0))
        out += [ap, catalog.truncate_vertices(ap, [0], name="cut1"),
                catalog.truncate_vertices(ap, [0, ap.vertex_count - 1],
                                          name="cut2")]
    out += [catalog.truncate_vertices(catalog.prism(n), [0], name="pcut")
            for n in (5, 6, 7)]
    ap = catalog.corner_doubled_cube()
    out += [spec.complex for spec in
            realize.decompose(ap, angles.feasible(ap).witness).pieces]
    return out


def test_prism_labels_match_isomorphism():
    """_prism_labels finds a prism exactly where the canonical-form
    search does, and its labels carry build_prism's triangles onto the
    complex's own."""
    found = 0
    for ap in _prism_label_inputs():
        n = ap.face_count
        labels = realize._prism_labels(ap)
        want = complexes.isomorphic(ap, catalog.prism(n)) if n >= 5 else None
        assert (labels is None) == (want is None), ap.name
        if labels is None:
            continue
        found += 1
        built = complexes.dual(minkowski.build_prism(n, math.pi / 4).complex)
        moved = {tuple(sorted(labels[x] for x in t)) for t in built.triangles}
        assert moved == complexes.dual(ap).triangle_set
    assert found == 17
