"""Newton solves, continuation, replay, truncation, and gluing."""

import dataclasses
import functools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from andreev import angles, catalog, complexes, minkowski, realize, whitehead
from andreev.angles import AngleAssignment
from conftest import (built_prism, built_split_prism, cube_with_corner_cubes,
                      gram_residual)
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


def staged_cut(n, seed, vertices=None):
    """A random simple complex with the given vertices cut off, by
    default its first and last."""
    ap = complexes.primal(whitehead.random_simple(n, seed, moves=30))
    if vertices is None:
        vertices = [0, ap.vertex_count - 1]
    return catalog.truncate_vertices(ap, list(vertices), name=f"t{n}_{seed}")


@functools.lru_cache(maxsize=None)
def staged_witness(n, seed, vertices=None):
    """staged_cut(n, seed, vertices) realized at its feasible witness by
    the staged branch."""
    cut = staged_cut(n, seed, vertices)
    assert not complexes.is_simple(cut)
    assert not realize._essential_circuits(cut)
    a = angles.feasible(cut).witness
    return realize.realize(cut, a), a


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
        # build_prism lists its planes in catalog.prism(5) order.
        normals = minkowski.build_prism(5, math.pi / 4, 0.01)
        r = realize.newton_solve(ap, a, normals)
        assert gram_residual(r, a) < 1e-10
        assert angle_error(r, a) < 1e-9

    def test_wrong_combinatorics_detected(self):
        # a seed from a different polyhedron does not silently pass
        ap = catalog.dodecahedron()
        seed = minkowski.build_prism(12, math.pi / 5, 0.05)
        with pytest.raises(realize.RealizeError):
            realize.newton_solve(ap, uniform(ap, Fraction(2, 5)), seed)

    @pytest.mark.parametrize("shape", [(3, 4), (6, 3), (8, 4)])
    def test_seed_of_wrong_shape_refused(self, shape):
        ap = catalog.cube()
        with pytest.raises(ValueError, match=r"expected \(6, 4\)"):
            realize.newton_solve(ap, uniform(ap, Fraction(2, 5)),
                                 np.ones(shape))

    def test_resolve_from_own_output(self):
        r = dodeca_two_fifths()
        ap = r.complex
        again = realize.newton_solve(ap, uniform(ap, Fraction(2, 5)),
                                     r.normals)
        assert gram_residual(again, uniform(ap, Fraction(2, 5))) < 1e-10


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def loop_solve(ap, target_rad, seed, tol=realize.RESIDUAL_TOL, rate=None):
    """The slice-gauged Newton solve with per-face and per-edge loops: the
    reference the index-array assembly of _solve_raw must match bit for
    bit, since Newton sits on the float64 floor and any change of
    rounding can flip an input.  With rate, each step solves the path
    tangent as a second column, as _solve_raw does, which changes how
    the step rounds; returns the tangent of the last step too."""
    N, E = ap.face_count, ap.edge_count
    X = np.array(seed, dtype=float)
    cos_t, sin_t = np.cos(target_rad), np.sin(target_rad)
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
    tangent = None
    while np.max(np.abs(F[:N + E])) >= tol:
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
        if rate is None:
            delta = np.linalg.solve(J, -F)
        else:
            minus_dF = np.zeros(4 * N)
            for r in range(E):
                minus_dF[N + r] = sin_t[r] * rate[r]
            both = np.linalg.solve(J, np.column_stack((-F, minus_dF)))
            delta, tangent = both[:, 0], both[:, 1].reshape(N, 4)
        X = X + delta.reshape(N, 4)
        F = residual(X)
        steps += 1
    return X, steps, tangent


@pytest.mark.parametrize("which", ["dodecahedron", "random"])
def test_newton_assembly_matches_loops(which):
    r = (dodeca_two_fifths() if which == "dodecahedron"
         else random12_two_fifths())
    ap = r.complex
    # 2*pi/5 moved by up to 5% per edge: a few full Newton steps away
    target = 0.4 * math.pi * np.linspace(1.0, 1.05, ap.edge_count)
    seed = realize._centred(r.normals, r.points)
    want, steps, _ = loop_solve(ap, target, seed)
    assert steps >= 3
    got, tangent = realize._solve_raw(ap, target, seed)
    assert np.array_equal(got, want) and tangent is None
    rate = np.linspace(-0.1, 0.1, ap.edge_count)
    want, _, want_tangent = loop_solve(ap, target, seed, rate=rate)
    got, tangent = realize._solve_raw(ap, target, seed, rate=rate)
    assert np.array_equal(got, want)
    assert np.array_equal(tangent, want_tangent)
    # _vertex_dets takes -<p, p> of the cofactor vector p, which rounds
    # unlike the LU det of the Gram matrix: equal to a few ulps of |X|^2.
    dets = [np.linalg.det(got[list(f)] @ ETA @ got[list(f)].T)
            for f in map(ap.vertex_faces, range(ap.vertex_count))]
    tol = 256 * np.finfo(float).eps * np.abs(got).max() ** 2
    assert np.max(np.abs(realize._vertex_dets(ap, got) - dets)) <= tol


def test_solve_workspace_leaks_nothing_between_solves(monkeypatch):
    # Every solve of a walk shares one _GramSystem and rewrites its own
    # J and F in place; each output must still be the loop reference's.
    ap = complexes.primal(whitehead.random_simple(10, 0), name="r10")
    calls = []
    solve_raw = realize._solve_raw

    def recording(ap, target_rad, seed, tol=realize.RESIDUAL_TOL,
                  system=None, rate=None):
        out = solve_raw(ap, target_rad, seed, tol, system, rate)
        calls.append((ap, np.array(target_rad), np.array(seed), tol, system,
                      rate, out))
        return out

    monkeypatch.setattr(realize, "_solve_raw", recording)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    tols = [tol for (_, _, _, tol, _, _, _) in calls]
    assert realize.PATH_TOL in tols and realize.RESIDUAL_TOL in tols
    assert any(rate is not None for (*_, rate, _) in calls)
    # a two-step walk on a moved complex plus the crossing before it
    shared = [system for (_, _, _, _, system, _, _) in calls if system]
    assert max(sum(s is t for t in shared) for s in shared) >= 3
    for cur, target, seed, tol, _, rate, (X, tangent) in calls:
        want, _, want_tangent = loop_solve(cur, target, seed, tol, rate)
        assert np.array_equal(X, want)
        assert (tangent is None and want_tangent is None
                or np.array_equal(tangent, want_tangent))


class TestContinuePath:
    def test_to_right_angles(self):
        r = dodeca_two_fifths()
        target = uniform(r.complex, Fraction(1, 2))
        out = realize.continue_path(r, target)
        assert angle_error(out, target) < 1e-9
        assert gram_residual(out, target) < 1e-10

    def test_endpoint_checked_exactly(self):
        ap = catalog.prism(5)
        seed = built_prism(5, math.pi / 4, 0.01)
        with pytest.raises(angles.NotMember):
            realize.continue_path(seed, uniform(ap, Fraction(2, 5)))

    def test_event_near_degeneration(self):
        ev = near_ideal_event()
        assert ev.vertices == (0,)
        assert ev.t > 0.95

    def test_event_inside_the_walk(self, monkeypatch):
        # Toward 1/5 on vertex 0's edges its angle sum 6/5 - 3t/5
        # crosses 1 at t = 1/3, inside the first step, so a PATH_TOL step
        # flags the event and is re-solved to RESIDUAL_TOL from itself
        # before the bisection.
        r = dodeca_two_fifths()
        vals = [Fraction(2, 5)] * r.complex.edge_count
        for e in r.complex.vertex_edges(0):
            vals[e] = Fraction(1, 5)
        solves = []
        solve_raw = realize._solve_raw

        def recording(ap, target_rad, seed, *args):
            X, tangent = solve_raw(ap, target_rad, seed, *args)
            solves.append((target_rad, np.array(seed), X))
            return X, tangent

        monkeypatch.setattr(realize, "_solve_raw", recording)
        with pytest.raises(realize.EventDetected) as exc:
            realize.continue_path(r, AngleAssignment(tuple(vals)))
        ev = exc.value
        assert ev.vertices == (0,)
        assert abs(ev.t - 1 / 3) < 1e-6
        assert any(np.array_equal(t1, t2) and np.array_equal(X1, seed2)
                   for (t1, _, X1), (t2, seed2, _) in zip(solves, solves[1:]))
        start = np.array(r.edge_angles()) / math.pi
        at_t = (1 - ev.t) * start + ev.t * np.array([float(v) for v in vals])
        assert gram_residual(ev.realization, at_t) <= 1e-10

    def test_failed_step_retries_from_a_centred_point(self, monkeypatch):
        # The first PATH_TOL step is handed back boosted far along x1:
        # its Gram residual stays below PATH_TOL, but no solve from that
        # frame reaches RESIDUAL_TOL, so the endpoint is reached only if
        # a failed step retries from its seed centred again.
        r = dodeca_two_fifths()
        target = uniform(r.complex, Fraction(9, 20))
        L = np.eye(4)
        L[0, 0] = L[1, 1] = math.cosh(10)
        L[0, 1] = L[1, 0] = math.sinh(10)
        solve_raw = realize._solve_raw
        calls = []

        def boosting(*args):
            X, tangent = solve_raw(*args)
            calls.append(X)
            if len(calls) == 1:
                return X @ L.T, tangent @ L.T
            return X, tangent

        monkeypatch.setattr(realize, "_solve_raw", boosting)
        X, _ = realize._continue_core(r, np.array(r.edge_angles()),
                                      realize._radians(target))
        assert gram_residual(SimpleNamespace(complex=r.complex, normals=X),
                             target) <= 1e-10

    def test_outputs_meet_residual_tol(self, monkeypatch):
        # Interior path points stop at PATH_TOL; what leaves the walk,
        # the endpoint or the realization an event carries, does not.
        r = dodeca_two_fifths()
        target = uniform(r.complex, Fraction(1, 2))
        X, _ = realize._continue_core(r, np.array(r.edge_angles()),
                                      realize._radians(target))
        assert gram_residual(SimpleNamespace(complex=r.complex, normals=X),
                             target) <= 1e-10

        solves = []
        solve_raw = realize._solve_raw

        def recording(ap, target_rad, seed, *args):
            X, tangent = solve_raw(ap, target_rad, seed, *args)
            solves.append((target_rad / math.pi, X))
            return X, tangent

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
        seed = built_prism(8, math.pi / 2, 0.1)
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
        assert [plan.circuit] == realize._essential_circuits(ap)
        assert len(plan.pieces) == 2
        for spec in plan.pieces:
            assert angles.check_conditions(spec.complex, spec.angles).member
            assert spec.complex.face_count >= 6  # never a triangular prism
            pf = spec.fill[0]
            assert len(spec.complex.faces[pf]) == 3
            for e, (_, _, fa, fb) in enumerate(spec.complex.edges):
                if pf in (fa, fb):
                    assert spec.angles[e] == Fraction(1, 2)

    def test_wrong_number_of_angles(self):
        ap = catalog.corner_doubled_cube()
        a = uniform(catalog.cube(), Fraction(2, 5))
        with pytest.raises(angles.SizeMismatch):
            realize.decompose(ap, a)

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


# Cube corners cut and capped by corner-truncated cubes: three circuits
# pairwise sharing one face, two pairs sharing two faces (the corners of
# a cube edge), and two circuits sharing none (a chain of three pieces).
MULTI_CIRCUIT = {"star": (0, 2, 5), "pair_0_1": (0, 1), "pair_1_2": (1, 2),
                 "chain": (0, 6)}


@pytest.mark.parametrize("name", sorted(MULTI_CIRCUIT))
def test_multi_circuit_complexes_realize(name, monkeypatch):
    """decompose cuts one circuit per call, once per essential circuit of
    the whole, and each cut's two pieces cover the faces of the complex
    cut, sharing just the circuit's."""
    ap = cube_with_corner_cubes(MULTI_CIRCUIT[name])
    a = angles.feasible(ap).witness
    cuts = []
    decompose = realize.decompose

    def recording(whole, angles_):
        plan = decompose(whole, angles_)
        cuts.append((whole, plan))
        return plan

    monkeypatch.setattr(realize, "decompose", recording)
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert angle_error(r, a) <= 1e-8
    ext = minkowski.extract_combinatorics(r.normals)
    assert (complexes.dual(ext.complex).triangle_set
            == complexes.dual(ap).triangle_set)
    assert len(cuts) == len(realize._essential_circuits(ap)) >= 2
    for whole, plan in cuts:
        first, second = (set(spec.face_origin.values())
                         for spec in plan.pieces)
        assert first | second == set(range(whole.face_count))
        assert first & second == set(plan.circuit.dual_nodes)


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


# Staged cuts of random simple complexes, each of which once failed in
# the staged branch: the first four in a solve after a cut, the last
# two and the four-vertex cut below in the cut itself.
STAGED = [(16, 0), (16, 2), (20, 0), (32, 0), (36, 4), (40, 0)]


@pytest.mark.parametrize(
    "n,seed,vertices",
    [pytest.param(n, s, None, id=f"{n}-{s}") for n, s in STAGED]
    + [pytest.param(24, 0, (0, 3, 5, 7), id="24-0-cut0357")])
def test_staged_corpus_realize(n, seed, vertices):
    r, a = staged_witness(n, seed, vertices)
    assert gram_residual(r, a) <= 1e-10
    assert angle_error(r, a) <= 1e-8
    ext = minkowski.extract_combinatorics(list(r.normals))
    assert (complexes.dual(ext.complex).triangle_set
            == complexes.dual(r.complex).triangle_set)


def staged_start(ap, a):
    """The angles the staged branch's last leg starts from, rebuilt as
    _truncated_seed builds them: pi/2 on the edges of the reinstated
    triangles, beta elsewhere."""
    beta = angles.interior_path(ap, a, Fraction(9, 10))
    triangles = set(realize._collapse_base(ap)[2].values())
    return AngleAssignment(tuple(
        angles.HALF if {g, h} & triangles else beta[e]
        for e, (_, _, g, h) in enumerate(ap.edges)))


def test_staged_branch_walks_and_cuts_once(monkeypatch):
    """The staged seed walks its base once, through the ideal point of
    every reinstated vertex, cuts them all off together at the end, and
    walks nothing else; realize walks the cut once to the target: one
    continuation of the base, one call of the planes helper, and one
    last leg from staged_start.  Every earlier walk called from realize
    is the nested realize of the base."""
    callers = {"_continue_core": "_truncated_seed",
               "_cut_planes": "_truncated_seed", "_walk": "realize"}
    calls = {name: [] for name in callers}
    seed_walks = []
    for name, log in calls.items():
        original = getattr(realize, name)

        def recording(*args, _original=original, _log=log,
                      _caller=callers[name], **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if caller == _caller:
                _log.append(args)
            elif caller == "_truncated_seed":
                seed_walks.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(realize, name, recording)
    ap = staged_cut(16, 0)
    a = angles.feasible(ap).witness
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert len(calls["_continue_core"]) == 1
    (cut,) = calls["_cut_planes"]
    assert len(cut[2]) == 2
    assert seed_walks == []
    assert sum(args[0].complex is ap for args in calls["_walk"]) == 1
    bound, target, start_rad = calls["_walk"][-1]
    assert bound.complex is ap
    assert np.array_equal(target, a.to_floats())
    assert np.array_equal(start_rad, staged_start(ap, a).to_floats())


def is_staged(ap):
    """Whether realize takes ap to the staged branch."""
    return (realize._prism_labels(ap) is None and not complexes.is_simple(ap)
            and not realize._essential_circuits(ap))


STAGED_STARTS = ([staged_cut(n, s) for n, s in STAGED]
                 + [staged_cut(24, 0, (0, 3, 5, 7))]
                 + [catalog.truncated_tetrahedron(),
                    catalog.corner_truncated_cube()])


@pytest.mark.parametrize("ap", STAGED_STARTS, ids=lambda ap: ap.name)
def test_staged_starts_are_members(ap):
    """The staged branch's last leg starts in the angle set, which it
    does not check (the lemma in _truncated_seed's docstring)."""
    assert is_staged(ap)
    a = angles.feasible(ap).witness
    assert angles.check_conditions(ap, staged_start(ap, a)).member


def collapse_base_one_at_a_time(ap):
    """The reference for realize._collapse_base, as it was written
    before it shrank all truncated triangles at once: shrink the least
    truncated triangle of the current dual, relabel its nodes, build
    the shrunken dual, and start again until none is left or five faces
    are."""
    dc = complexes.dual(ap)
    labels = list(range(dc.node_count))
    removed = {}
    while dc.node_count > 5:
        adj = dc.adjacency()
        tset = dc.triangle_set
        cand = [f for f in range(dc.node_count)
                if len(adj[f]) == 3 and tuple(sorted(adj[f])) not in tset]
        if not cand:
            break
        f = cand[0]
        tri = tuple(sorted(adj[f]))
        removed[frozenset(labels[x] for x in tri)] = labels[f]
        tris = [t for t in dc.triangles if f not in t] + [tri]
        shift = lambda x: x - 1 if x > f else x
        tris = sorted(tuple(sorted(map(shift, t))) for t in tris)
        dc = complexes.DualComplex(node_count=dc.node_count - 1,
                                   triangles=tuple(tris))
        del labels[f]
    return dc, labels, removed


def assert_collapses_as_reference(ap):
    base, labels, removed = realize._collapse_base(ap)
    dc, want_labels, want_removed = collapse_base_one_at_a_time(ap)
    assert complexes.dual(base).triangles == dc.triangles
    assert labels == want_labels
    assert removed == want_removed


@pytest.mark.parametrize("ap", STAGED_STARTS, ids=lambda ap: ap.name)
def test_collapse_base_matches_one_at_a_time(ap):
    assert_collapses_as_reference(ap)


def realized_pieces(ap):
    """ap and every piece realize cuts from it, in the order realize
    meets them."""
    out, todo = [], [(ap, angles.feasible(ap).witness)]
    while todo:
        whole, a = todo.pop(0)
        out.append(whole)
        if (realize._prism_labels(whole) is None
                and not complexes.is_simple(whole)
                and realize._essential_circuits(whole)):
            todo += [(spec.complex, spec.angles)
                     for spec in realize.decompose(whole, a).pieces]
    return out


@pytest.mark.parametrize("corners", [(0,), (0, 2), (0, 2, 5)], ids=str)
def test_collapse_base_matches_one_at_a_time_on_glued_pieces(corners):
    staged = [p for p in realized_pieces(cube_with_corner_cubes(corners))
              if is_staged(p)]
    # the cut cube, and a corner-truncated cube per corner
    assert len(staged) == len(corners) + 1
    for piece in staged:
        assert_collapses_as_reference(piece)


@pytest.mark.parametrize("ap", STAGED_STARTS, ids=lambda ap: ap.name)
def test_face_adjacency_on_staged_cuts(ap):
    copy = dataclasses.replace(ap)    # no dual attached
    assert (dict(enumerate(complexes.face_adjacency(copy)))
            == complexes.dual(copy).adjacency())


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


@pytest.mark.parametrize("which", ["dodecahedron", "random", "staged16"])
def test_schlafli_symmetry(which):
    """Schlafli: dV = -1/2 sum l_e d theta_e, so d l_i / d theta_j is -2
    times the Hessian of the volume and must be symmetric."""
    r = {"dodecahedron": dodeca_two_fifths,
         "random": random12_two_fifths,
         "staged16": lambda: staged_witness(16, 0)[0]}[which]()
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
        built_prism(7, math.pi / 3, 0.04)), True),
    "split_prism10": (lambda: _realization(built_split_prism(10)), True),
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


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_cofactor_kernel_agrees_with_certify(case):
    """The one vertex kernel against independent oracles: the dets of
    vertex_cofactors against the LU det of each vertex Gram matrix, the
    points of vertex_points against the scalar SVD vertex_point, and
    certify's verdict against the margin test on the SVD points.  Both
    sides round at a few ulps of max|X|^2, so the tolerances scale with
    it (and the points' with 1 / det, by which normalizing divides)."""
    build, _ = AUDIT_CASES[case]
    ap, normals = build()
    X = np.asarray(normals, dtype=float)
    faces = np.array([ap.vertex_faces(v) for v in range(ap.vertex_count)])
    _, dets = minkowski.vertex_cofactors(X, faces)
    rows = X[faces]
    grams = np.linalg.det(rows @ ETA @ rows.transpose(0, 2, 1))
    ulps = 256 * np.finfo(float).eps * np.abs(X).max() ** 2
    assert np.max(np.abs(dets - grams)) <= ulps
    assert dets.min() > 0
    want = np.array([minkowski.vertex_point(*X[f]) for f in faces])
    points = minkowski.vertex_points(X, faces)
    assert (np.max(np.abs(points - want))
            <= ulps / dets.min() * np.abs(want).max())
    margin = want @ ETA @ minkowski.unit_spacelike(X).T
    margin[np.arange(len(faces))[:, None], faces] = -np.inf
    try:
        minkowski.certify(ap, X)
        certified = True
    except minkowski.GeometryError:
        certified = False
    assert certified == (margin.max() < -minkowski.CLASSIFY_TOL)


def test_circuits_enumerated_once_per_complex(monkeypatch):
    """realize asks for the circuits of one complex many times (the
    is_simple of every collapse_surroundings along the replay, and the
    check_conditions of the walks outside it); each complex object
    enumerates its cycles once per k, and a complex the replay derived
    by a move, known simple, enumerates none."""
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    requested = {}
    derived = {}
    enumerations = []
    enumerate_cycles = complexes._simple_cycles
    ask = complexes.prismatic_circuits
    primal_after = whitehead.primal_after

    def counting_cycles(dc, k):
        enumerations.append(k)
        return enumerate_cycles(dc, k)

    def recording_ask(ap, k):
        requested[(id(ap), k)] = ap    # holds ap, so its id stays unique
        return ask(ap, k)

    def recording_after(ap, move):
        out = primal_after(ap, move)
        derived[id(out)] = out
        return out

    monkeypatch.setattr(complexes, "_simple_cycles", counting_cycles)
    monkeypatch.setattr(complexes, "prismatic_circuits", recording_ask)
    monkeypatch.setattr(whitehead, "primal_after", recording_after)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    scanned = [key for key in requested if key[0] not in derived]
    assert len(requested) > 10 and len(derived) > 4
    assert {key for key in requested if key[0] in derived} == {
        (i, 3) for i in derived}
    assert len(enumerations) == len(scanned)


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


def test_prism_seeds_are_members():
    """The prism branch walks from its seed's angles without checking
    them; the full condition table confirms that they lie in the angle
    set of every prism at n = 5-40: 1/4 (n = 5), 2/5 (n = 6) or 1/2 on
    the verticals and 2/5 on the caps."""
    for n in range(5, 41):
        ap = catalog.prism(n)
        labels = realize._prism_labels(ap)
        planes, profile = realize._prism_seed(ap, labels)
        assert planes.shape == (n, 4)
        caps = set(labels[:2])
        vertical = next(v for (_, _, fa, fb), v in zip(ap.edges, profile)
                        if not {fa, fb} & caps)
        assert vertical == {5: Fraction(1, 4), 6: Fraction(2, 5)}.get(
            n, Fraction(1, 2))
        for (_, _, fa, fb), v in zip(ap.edges, profile):
            assert v == (Fraction(2, 5) if {fa, fb} & caps else vertical)
        assert angles.check_conditions(ap, profile).member, n


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
    """Each realize entry builds the condition table once, and nothing
    else does: a prism builds one, the caller's; a simple complex two,
    the caller's and that of the glued prism inside build_split_prism.
    The prism's walk, and the simple complex's legs to and from uniform
    2/5, check nothing, and the replay's moves build no table."""
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
    assert set(counts.values()) == {2}
    for ap in (catalog.prism(6), catalog.cube(), catalog.prism(9)):
        builds.clear()
        realize.realize(ap, uniform(ap, Fraction(2, 5)))
        assert builds == [ap], ap.name


def test_split_prism_labels_twice_per_simple_realize(monkeypatch):
    """split_prism_labels runs twice per simple-branch realize: once as
    reduce_to_dn certifies its end, once as _simple_seed reads the
    end's labels; build_split_prism's planes already come in catalog
    labels."""
    calls = []
    labels = whitehead.split_prism_labels

    def counting(dc):
        calls.append(dc)
        return labels(dc)

    monkeypatch.setattr(whitehead, "split_prism_labels", counting)
    for n, seed in ((10, 0), (12, 0)):
        ap = complexes.primal(whitehead.random_simple(n, seed))
        calls.clear()
        realize.realize(ap, uniform(ap, Fraction(2, 5)))
        assert len(calls) == 2, (n, seed)


def _spy_seed_checks(monkeypatch):
    """Record each minkowski.certify call and each DualComplex made, with
    the innermost of realize.realize, build_prism and build_split_prism
    it runs in, and each walk's start with the certify count so far."""
    calls = []
    owners = {f.__code__: f.__name__ for f in (
        realize.realize, minkowski.build_prism, minkowski.build_split_prism)}

    def owner():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in owners:
            frame = frame.f_back
        return frame and owners[frame.f_code]

    def spy(kind, fn):
        def wrapped(*args, **kwargs):
            calls.append((kind, owner()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(minkowski, "certify",
                        spy("certify", minkowski.certify))
    monkeypatch.setattr(complexes.DualComplex, "__post_init__",
                        spy("dual", complexes.DualComplex.__post_init__))
    monkeypatch.setattr(realize, "_walk", spy("walk", realize._walk))
    for name in ("build_prism", "build_split_prism"):
        monkeypatch.setattr(minkowski, name,
                            spy(name, getattr(minkowski, name)))
    return calls


def test_seeds_are_certified_once(monkeypatch):
    """The prism builders return planes and certify nothing: a prism's
    seed is certified once, on the caller's complex, before its walk,
    and no dual is built; on a simple complex neither builder certifies
    or builds a dual itself."""
    prism = catalog.prism(7)
    simple = complexes.primal(whitehead.random_simple(12, 0))
    calls = _spy_seed_checks(monkeypatch)
    r = realize.realize(prism, uniform(prism, Fraction(2, 5)))
    assert r.complex is prism
    kinds = [kind for kind, _ in calls]
    assert "dual" not in kinds
    assert kinds[:kinds.index("walk")] == ["build_prism", "certify"]

    calls.clear()
    realize.realize(simple, uniform(simple, Fraction(2, 5)))
    kinds = {kind for kind, _ in calls}
    assert {"build_prism", "build_split_prism"} <= kinds
    assert not [(kind, owner) for kind, owner in calls
                if kind in ("certify", "dual") and owner.startswith("build")]


def test_rebuilds_per_realize_do_not_grow_with_moves(monkeypatch):
    """The replay derives each moved complex from the last one by
    whitehead.primal_after, and the reducer patches its duals: the
    number of complexes.build calls and of rotation systems propagated
    from scratch per realize does not depend on the number of moves."""
    builds, rotations = [], []
    build = complexes.build
    propagate = complexes.DualComplex.__dict__["rotation"].func

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counting_rotation(dc):
        rotations.append(dc)
        return propagate(dc)

    rotation = functools.cached_property(counting_rotation)
    rotation.__set_name__(complexes.DualComplex, "rotation")
    monkeypatch.setattr(complexes, "build", counting_build)
    monkeypatch.setattr(complexes.DualComplex, "rotation", rotation)
    counts = {}
    for n, seed in ((12, 0), (16, 1), (24, 0)):
        ap = complexes.primal(whitehead.random_simple(n, seed))
        moves = len(whitehead.reduce_to_dn(complexes.dual(ap)).moves)
        builds.clear()
        rotations.clear()
        realize.realize(ap, uniform(ap, Fraction(2, 5)))
        counts[moves] = (len(builds), len(rotations))
    assert sorted(counts) == [6, 8, 12]
    assert len(set(counts.values())) == 1, counts


def test_event_realization_within_its_stated_bound():
    """EventDetected's realization is solved at the last good parameter,
    so against the angles at the reported t its residual is bounded by
    1.25 RESIDUAL_TOL, not RESIDUAL_TOL: 1.056e-10 on this walk."""
    ev = near_ideal_event()
    r = dodeca_two_fifths()
    vals = np.full(r.complex.edge_count, 2 / 5)
    vals[list(r.complex.vertex_edges(0))] = 1 / 3
    start = np.array(r.edge_angles()) / math.pi
    at_t = (1 - ev.t) * start + ev.t * vals
    assert gram_residual(ev.realization, at_t) <= 1.25 * realize.RESIDUAL_TOL


def test_tangent_matches_central_difference():
    """The tangent a solve returns against (X(t+h) - X(t-h)) / 2h of two
    RESIDUAL_TOL solves seeded with X(t), halfway along the dodecahedron's
    walk to right angles."""
    r = dodeca_two_fifths()
    ap = r.complex
    start = np.array(r.edge_angles())
    target = realize._radians(uniform(ap, Fraction(1, 2)))

    def at(t):
        return (1 - t) * start + t * target

    seed = realize._centred(r.normals, r.points)
    X, tangent = realize._solve_raw(ap, at(0.5), seed, rate=target - start)
    h = 1e-4
    plus, _ = realize._solve_raw(ap, at(0.5 + h), X)
    minus, _ = realize._solve_raw(ap, at(0.5 - h), X)
    central = (plus - minus) / (2 * h)
    assert np.max(np.abs(tangent - central)) <= 1e-4 * np.abs(central).max()


def test_one_gram_system_per_moved_complex(monkeypatch):
    """A replayed move builds one _GramSystem for its pinch walk and one
    for the moved complex, which the crossing solve and the relax walk
    share: two per move (three when each built its own)."""
    built = []
    init = realize._GramSystem.__init__
    replay = realize.replay_whitehead
    per_move = []

    def counting(self, ap):
        built.append(ap)
        init(self, ap)

    def recording(r, move):
        before = len(built)
        out = replay(r, move)
        per_move.append(len(built) - before)
        return out

    monkeypatch.setattr(realize._GramSystem, "__init__", counting)
    monkeypatch.setattr(realize, "replay_whitehead", recording)
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    assert len(per_move) > 4 and set(per_move) == {2}


@pytest.mark.parametrize("which", ["truncated_tetrahedron"]
                         + [f"staged{n}_{s}" for n, s in STAGED + [(28, 0)]])
def test_each_walk_continues_once(which, monkeypatch):
    """Every walk reaches its certified endpoint in one continuation:
    the per-step cell check rejects a step that converges onto other
    cells, so no walk is redone with shorter strides.  Without the
    check, the final walk of the truncated tetrahedron and of staged
    (20, 0), (36, 4) and (40, 0) ends on other cells, and so does the
    cut after staged (28, 0)'s base walk."""
    if which == "truncated_tetrahedron":
        ap = catalog.truncated_tetrahedron()
    else:
        n, s = map(int, which[len("staged"):].split("_"))
        ap = staged_cut(n, s)
    walks, from_walks = [], []
    walk, continue_core = realize._walk, realize._continue_core

    def counting_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    def counting_core(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_walk":
            from_walks.append(args)
        return continue_core(*args, **kwargs)

    monkeypatch.setattr(realize, "_walk", counting_walk)
    monkeypatch.setattr(realize, "_continue_core", counting_core)
    a = angles.feasible(ap).witness
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert len(walks) > 1 and len(from_walks) == len(walks)


@pytest.mark.parametrize("ap", [catalog.prism(6), catalog.cube()],
                         ids=["prism6", "cube"])
def test_zero_length_walks_are_skipped(ap, monkeypatch):
    """At 2/5, prism 6 and the cube are the built regular prism itself:
    their one walk starts at its target, so it returns the certified
    start without continuing, and the result still meets the tolerances."""
    cores = []
    continue_core = realize._continue_core

    def counting_core(*args, **kwargs):
        cores.append(args)
        return continue_core(*args, **kwargs)

    monkeypatch.setattr(realize, "_continue_core", counting_core)
    a = uniform(ap, Fraction(2, 5))
    r = realize.realize(ap, a)
    assert cores == []
    assert gram_residual(r, a) <= 1e-10
    assert angle_error(r, a) <= 1e-8


@pytest.mark.parametrize("which", ["continue_path", "prism7", "staged16_0"])
def test_walk_returns_its_certificate(which):
    """A stepped walk returns the points of its last step's cell test,
    taken on the unit normals: bit for bit what certify gives for the
    walk's normals."""
    if which == "continue_path":
        r = dodeca_two_fifths()
        r = realize.continue_path(r, uniform(r.complex, Fraction(1, 2)))
    elif which == "prism7":
        ap = catalog.prism(7)
        r = realize.realize(ap, uniform(ap, Fraction(2, 5)))
    else:
        r = staged_witness(16, 0)[0]
    want = minkowski.certify(r.complex, r.normals)
    assert np.array_equal(r.normals, want.normals)
    assert np.array_equal(r.points, want.points)


def test_stepped_walks_certify_once(monkeypatch):
    """After a stepped _continue_core, _walk neither binds nor certifies
    its endpoint again: the last step's cell test was the certificate."""
    calls = []
    for module, name in ((realize, "_continue_core"), (realize, "_bind"),
                         (minkowski, "certify")):
        original = getattr(module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            if sys._getframe(1).f_code.co_name == "_walk":
                calls.append(_name)
            return out

        monkeypatch.setattr(module, name, recording)
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    a = uniform(ap, Fraction(2, 5))
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert calls.count("_continue_core") > 1
    after_core = [b for a, b in zip(calls, calls[1:]) if a == "_continue_core"]
    assert set(after_core) <= {"_continue_core"}


@pytest.mark.parametrize("which", ["prism6", "dodecahedron", "random12",
                                   "truncated_tetrahedron",
                                   "corner_doubled_cube"])
def test_realize_uses_one_vertex_kernel(which, monkeypatch):
    """Every branch (prism, simple, staged, glued) locates its vertices
    with minkowski.vertex_cofactors alone: no SVD and no eigenvalue
    solve runs during realize.  The SVD kernel stays in vertex_point,
    the oracle behind extract_combinatorics."""
    if which == "random12":
        ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    else:
        ap = catalog.prism(6) if which == "prism6" else getattr(catalog, which)()
    a = (uniform(ap, Fraction(2, 5)) if which in ("prism6", "dodecahedron",
                                                   "random12")
         else angles.feasible(ap).witness)
    calls = []
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    r = realize.realize(ap, a)
    assert calls == []
    assert gram_residual(r, a) <= 1e-10


@pytest.mark.parametrize("which,ceiling", [("dodecahedron", 164),
                                           ("random12", 134)])
def test_linear_solves_per_realize(which, ceiling, monkeypatch):
    """Linear solves of one uniform 2*pi/5 realize, counted at
    np.linalg.solve, stay within 10% above what the tangent predictor
    and the 0.5 stride take: 149 on the dodecahedron and 122 on
    random_simple(12, 0), against 255 and 198 with zero-order seeds at
    stride 0.25."""
    ap = (catalog.dodecahedron() if which == "dodecahedron" else
          complexes.primal(whitehead.random_simple(12, 0), name="r12"))
    solves = []
    solve = np.linalg.solve

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    assert len(solves) <= ceiling


def test_bisection_stops_at_the_solve_resolution(monkeypatch):
    """near_ideal_event's walk bisects its event down to the width over
    which the target cosines move by RESIDUAL_TOL / 4, not to 1e-12: at
    most 32 bisection solves (38 before), and t within 1e-9 of the
    1e-12 bisection's."""
    r = dodeca_two_fifths()
    vals = [Fraction(2, 5)] * r.complex.edge_count
    for e in r.complex.vertex_edges(0):
        vals[e] = Fraction(1, 3)
    flagged = []
    solve_raw = realize._solve_raw

    def recording(ap, target_rad, seed, *args):
        X, tangent = solve_raw(ap, target_rad, seed, *args)
        flagged.append(realize._vertex_dets(ap, X)[0] < realize.EVENT_TOL)
        return X, tangent

    monkeypatch.setattr(realize, "_solve_raw", recording)
    with pytest.raises(realize.EventDetected) as exc:
        realize.continue_path(r, AngleAssignment(tuple(vals)))
    # The walk's steps end at the first solve that flags vertex 0; every
    # later solve bisects.
    bisection = flagged[flagged.index(True) + 1:]
    assert 0 < len(bisection) <= 32
    assert abs(exc.value.t - 0.9999998776174834) < 1e-9


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
    search does, and its labels carry catalog.prism's triangles onto the
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
        prism = complexes.dual(catalog.prism(n))
        moved = {tuple(sorted(labels[x] for x in t)) for t in prism.triangles}
        assert moved == complexes.dual(ap).triangle_set
    assert found == 17


def _reduction_ends():
    aps = [catalog.dodecahedron()]
    aps += [catalog.split_prism(n) for n in range(8, 13)]
    aps += [complexes.primal(whitehead.random_simple(n, s, moves=30),
                             name=f"r{n}_{s}")
            for n in range(8, 25) for s in range(3)]
    return aps


def test_uniform_two_fifths_member_at_reduction_end():
    """The simple branch walks to uniform 2/5 on the reduction's end
    without checking it: the end is simple, and uniform 2/5 is a member
    of every simple complex.  The full table is the oracle here."""
    for ap in _reduction_ends():
        end = complexes.primal(whitehead.reduce_to_dn(complexes.dual(ap)).end)
        assert complexes.is_simple(end), ap.name
        two_fifths = uniform(end, Fraction(2, 5))
        assert angles.check_conditions(end, two_fifths).member, ap.name


def test_simple_branch_checks_caller_once(monkeypatch):
    ap = complexes.primal(whitehead.random_simple(12, 0), name="r12")
    checked = []
    check_conditions = angles.check_conditions

    def recording(cur, a):
        checked.append(cur)
        return check_conditions(cur, a)

    monkeypatch.setattr(angles, "check_conditions", recording)
    realize.realize(ap, uniform(ap, Fraction(2, 5)))
    assert sum(cur is ap for cur in checked) == 1
