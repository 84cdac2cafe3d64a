"""Numeric realization of an abstract polyhedron with prescribed dihedral
angles.

The solver works on outward unit face normals in Minkowski space.  The
square Newton system has one unit-norm equation per face, one inner
product equation per edge, and six slice rows that keep each step
orthogonal to the orbit of the Lorentz group; the seed of each
continuation or one-off solve is first boosted so that the mean of its
vertex points is the origin, so coordinates stay the size of the
polyhedron.  Continuation moves the target angles along straight lines
inside the angle polytope, whose membership is checked exactly at
rational endpoints (or, for the Whitehead replay's profiles, the
regular prism's angles and the staged branch's cut, known from a lemma:
see `_collapse_profile`, `_prism_seed` and `_realize_truncated`).  On
top of that sit the combinatorial pipelines: prisms are walked from the
regular prism, simple complexes are reached by replaying a Whitehead
reduction backwards from the split prism, complexes whose only
prismatic 3-circuits are truncated triangles have their shrunken base
walked until the would-be triangle vertices pass ideal and turn
hyperideal, then cut off all at once onto the caller's complex, and
everything else is cut along one essential 3-circuit, the two pieces
realized by `realize` itself (which cuts any circuit left in them), and
glued back with one Lorentz isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import angles as angle_sets
from . import catalog, complexes, minkowski, whitehead
from .angles import HALF, AngleAssignment
from .complexes import AbstractPolyhedron
from .minkowski import (GeometryError, Realization, mdot, unit_timelike,
                        perp_plane)

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

RESIDUAL_TOL = 1e-10
PATH_TOL = 1e-6
NEWTON_STEPS = 50
EVENT_TOL = 1e-7
STEP_FLOOR = 1e-6
MAX_STEP = 0.5
GLUE_TOL = 1e-8
REPLAY_EPSILON = Fraction(1, 60)
TWO_FIFTHS = Fraction(2, 5)


class RealizeError(RuntimeError):
    pass


class Diverged(RealizeError):
    pass


class WrongCombinatorics(RealizeError):
    pass


class SingularJacobian(RealizeError):
    pass


class StepFloorReached(RealizeError):
    pass


class EventDetected(RealizeError):
    """A vertex Gram minor hit the ideal threshold mid-path.

    Carries the localized parameter t, the affected vertex ids and a
    realization from the good side of the event: solved to RESIDUAL_TOL
    at a parameter less than t, and so close to t that no target cosine
    moves by more than RESIDUAL_TOL / 4 in between.  Its Gram residual
    against the angles at t is therefore below 1.25 * RESIDUAL_TOL, not
    RESIDUAL_TOL.
    """

    def __init__(self, t: float, vertices: Tuple[int, ...],
                 realization: Realization):
        super().__init__(
            f"vertices {list(vertices)} turn ideal near t={t:.6f}")
        self.t = t
        self.vertices = vertices
        self.realization = realization


class NoEssentialCircuits(RealizeError):
    pass


class IncongruentTriangles(RealizeError):
    pass


class IsometrySolveFailed(RealizeError):
    pass


class InfeasibleAngles(RealizeError):
    pass


def _radians(target) -> np.ndarray:
    if isinstance(target, AngleAssignment):
        return np.array(target.to_floats())
    return np.asarray(target, dtype=float)


# Newton iteration in a slice of the Lorentz group


def _so31() -> np.ndarray:
    """A basis of so(3,1): the three rotations and the three boosts."""
    gens = np.zeros((6, 4, 4))
    for k, (i, j) in enumerate(((1, 2), (1, 3), (2, 3))):
        gens[k, i, j], gens[k, j, i] = -1.0, 1.0
    for k in range(3):
        gens[3 + k, 0, k + 1] = gens[3 + k, k + 1, 0] = 1.0
    return gens


_SO31 = _so31()


def _centred(normals, points) -> np.ndarray:
    """The normals boosted so that the mean of the vertex points lands at
    (1,0,0,0), which keeps every coordinate near the size of the
    polyhedron itself."""
    c = unit_timelike(np.mean(points, axis=0))
    boost = np.empty((4, 4))
    boost[0, 0], boost[0, 1:], boost[1:, 0] = c[0], -c[1:], -c[1:]
    boost[1:, 1:] = np.eye(3) + np.outer(c[1:], c[1:]) / (1.0 + c[0])
    return np.asarray(normals) @ boost


def _recentred(ap: AbstractPolyhedron, X: np.ndarray) -> np.ndarray:
    """X centred on its own vertex points, or X itself when one of them
    is not a finite point."""
    faces = [ap.vertex_faces(v) for v in range(ap.vertex_count)]
    try:
        return _centred(X, minkowski.vertex_points(X, faces))
    except GeometryError:
        return X


class _GramSystem:
    """The index arrays of one complex's Gram system, built once and
    shared by every solve and vertex test of a walk on that complex (and
    by the crossing solve that starts a replay's relax walk): the
    two faces ia, ib of every edge, the flat positions in the Jacobian
    of the face and edge entries, and the (V,3) faces of every vertex.
    Nothing is cached on the complex itself: a complex is usually
    realized once, and each realization keeps its complex alive."""

    def __init__(self, ap: AbstractPolyhedron):
        N, E = ap.face_count, ap.edge_count
        self.ia = np.array([e[2] for e in ap.edges])
        self.ib = np.array([e[3] for e in ap.edges])
        self.vertex_faces = np.array(
            [ap.vertex_faces(v) for v in range(ap.vertex_count)])
        # Jacobian sparsity: per face row its four coordinates, per edge
        # row the coordinates of both faces; the slice rows are dense.
        n = 4 * N
        edge_rows = np.repeat(np.arange(N, N + E), 4)
        self.face_slots = np.repeat(np.arange(N), 4) * n + np.arange(n)
        self.edge_slots_a = edge_rows * n + (
            4 * self.ia[:, None] + np.arange(4)).ravel()
        self.edge_slots_b = edge_rows * n + (
            4 * self.ib[:, None] + np.arange(4)).ravel()


def _solve_raw(ap: AbstractPolyhedron, target_rad: np.ndarray,
               seed: Sequence, tol: float = RESIDUAL_TOL,
               system: Optional[_GramSystem] = None,
               rate: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Solve the Gram system for the face normals to a max residual below
    tol, without extracting combinatorics.  Returns the (N,4) normals X
    and the path tangent dX/dt (or None).

    The unit-norm and edge rows leave the six directions of the Lorentz
    group free; six slice rows <X G_k^T, delta> = 0 take every step
    orthogonal to that orbit, so the solution stays in the seed's frame
    and the callers' centring keeps its coordinates small.

    rate is d(target_rad)/dt along a path through target_rad.  When it
    is given, each iteration also solves J Xdot = -dF/dt on the same
    factorization (dF_e/dt = -sin(theta_e) rate_e on the edge rows, 0 on
    the others), and the tangent of the last iteration's Jacobian is
    returned; it is None without rate or when the seed already met tol.

    system is the complex's _GramSystem, built here when not given.  J
    and F are allocated once per solve; every iteration rewrites the
    same nonzero slots of J, so each J equals a freshly zeroed one."""
    N, E = ap.face_count, ap.edge_count
    if len(target_rad) != E:
        raise ValueError("target has wrong number of angles")
    if system is None:
        system = _GramSystem(ap)
    X = np.array(seed, dtype=float)
    cos_t = np.cos(target_rad)
    ia, ib = system.ia, system.ib
    n_unknown = 4 * N
    F = np.zeros(n_unknown)
    J = np.zeros((n_unknown, n_unknown))
    J_flat = J.reshape(-1)
    if rate is not None:
        minus_dF = np.zeros(n_unknown)
        minus_dF[N:N + E] = np.sin(target_rad) * rate
    tangent = None

    def residual(Y: np.ndarray) -> np.ndarray:
        """Write the residual at Y into F; return Y @ _ETA, which the
        next Jacobian reuses."""
        F[:N] = np.einsum("ij,jk,ik->i", Y, _ETA, Y) - 1.0
        # matmul of stacked rows rounds like Y[i] @ _ETA @ Y[j]; einsum
        # and sum(axis=1) do not, and Newton sits on the float64 floor.
        eY = Y @ _ETA
        pair = np.matmul(eY[ia][:, None, :], Y[ib][:, :, None])[:, 0, 0]
        F[N:N + E] = pair + cos_t
        return eY

    eX = residual(X)
    for step in range(NEWTON_STEPS + 1):
        res = np.abs(F).max()
        if not np.isfinite(res) or res > 1e8:
            raise Diverged(f"residual blew up at step {step}")
        if res < tol:
            break
        if step == NEWTON_STEPS:
            raise Diverged(f"no convergence in {NEWTON_STEPS} steps "
                           f"(residual {res:.3e})")
        J_flat[system.face_slots] = 2.0 * eX.ravel()
        J_flat[system.edge_slots_a] = eX[ib].ravel()
        J_flat[system.edge_slots_b] = eX[ia].ravel()
        J[N + E:] = (X @ _SO31.transpose(0, 2, 1)).reshape(6, n_unknown)
        try:
            if rate is None:
                delta = np.linalg.solve(J, -F)
            else:
                delta, tangent = np.linalg.solve(
                    J, np.column_stack((-F, minus_dF))).T
        except np.linalg.LinAlgError:
            raise SingularJacobian("slice-gauged Jacobian is singular")
        # Plain full steps.  Monotone damping looks tempting but creeps
        # along curved valleys near ill-conditioned stages (a tiny face
        # right after a truncation, say), where the full step converges
        # through a short residual excursion.
        X = X + delta.reshape(N, 4)
        eX = residual(X)
    return X, None if tangent is None else tangent.reshape(N, 4)


def _vertex_dets(ap: AbstractPolyhedron, X: np.ndarray) -> np.ndarray:
    """The vertex dets of X's unit normals, as the walks decide events."""
    faces = [ap.vertex_faces(v) for v in range(ap.vertex_count)]
    return minkowski.vertex_cofactors(minkowski.unit_spacelike(X), faces)[1]


def _bind(ap: AbstractPolyhedron, X: np.ndarray) -> Realization:
    """Wrap solved normals as a Realization carrying the caller's labels,
    after minkowski.certify has certified that the planes bound exactly
    that cell structure."""
    try:
        return minkowski.certify(ap, X)
    except GeometryError as exc:
        raise WrongCombinatorics(str(exc))


def newton_solve(ap: AbstractPolyhedron, target,
                 initial_normals) -> Realization:
    """Solve for the realization of ap with the given edge angles from a
    caller-supplied seed, then certify its combinatorics.  A seed whose
    corners are all finite points is centred first."""
    X = np.array(initial_normals, dtype=float)
    if X.shape != (ap.face_count, 4):
        raise ValueError(f"seed has shape {X.shape}, expected "
                         f"({ap.face_count}, 4): one normal per face")
    X = _recentred(ap, X)
    return _bind(ap, _solve_raw(ap, _radians(target), X)[0])


# Continuation along straight angle paths


def _continue_core(r: Realization, start_rad: np.ndarray,
                   target_rad: np.ndarray,
                   expect_ideal: FrozenSet[int] = frozenset(),
                   system: Optional[_GramSystem] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Step r, centred, from start_rad to target_rad by Euler predictor
    and Newton corrector: each solve is seeded with the last point moved
    along the path tangent its own solve returned.  A step is taken only
    when its solve converges and its watched vertices (those outside
    expect_ideal) pass minkowski.cell_points on the cofactors of the
    unit normals, the inputs of certify; otherwise it is halved (down to
    STEP_FLOOR) and retried from the last point centred again, without
    a tangent.  After a success the step doubles back up to MAX_STEP.
    The expect_ideal vertices are neither tested nor watched for events:
    they may pass ideal and end hyperideal.  system is r's complex's
    _GramSystem, built here when not given.

    Only the t = 1 endpoint leaves this walk: its normals X and the
    points its cell test gave the watched vertices (with nothing in
    expect_ideal, certify's result for X, bit for bit).  So the interior
    points are solved to PATH_TOL, as accurate as the next step's seed
    needs, the endpoint to RESIDUAL_TOL.  Events are decided on
    RESIDUAL_TOL solves only: a step whose vertex dets flag an event is
    first re-solved to RESIDUAL_TOL from itself, the bisection solves to
    RESIDUAL_TOL from zero-order seeds, and the realization
    EventDetected carries is one of those solves (or r itself)."""
    ap = r.complex
    if system is None:
        system = _GramSystem(ap)
    watched = np.array([v for v in range(ap.vertex_count)
                        if v not in expect_ideal], dtype=int)
    watched_faces = system.vertex_faces[watched]
    rate = target_rad - start_rad

    def solve_at(t: float, seed: np.ndarray, tol: float = RESIDUAL_TOL,
                 tangent: bool = False
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return _solve_raw(ap, (1.0 - t) * start_rad + t * target_rad, seed,
                          tol, system, rate if tangent else None)

    def vertex_test(X: np.ndarray):
        """The watched vertices past the event threshold, the unit
        normals, and the cofactors and dets of every watched vertex."""
        units = minkowski.unit_spacelike(X)
        p, dets = minkowski.vertex_cofactors(units, watched_faces)
        return tuple(watched[dets < EVENT_TOL].tolist()), units, p, dets

    # |d cos(theta_e)/dt| <= |target_e - start_e|, so over a parameter
    # interval narrower than this every Gram target moves by less than
    # RESIDUAL_TOL / 4.
    speed = float(np.max(np.abs(rate), initial=0.0))
    resolution = RESIDUAL_TOL / (4.0 * speed) if speed else 1.0

    t, X, Xdot, step = 0.0, _centred(r.normals, r.points), None, MAX_STEP
    while t < 1.0:
        tn = min(1.0, t + step)
        seed = X if Xdot is None else X + (tn - t) * Xdot
        try:
            Xn, Xdot_n = solve_at(tn, seed,
                                  RESIDUAL_TOL if tn == 1.0 else PATH_TOL,
                                  tangent=True)
            bad, units, p, dets = vertex_test(Xn)
            if bad and tn < 1.0:
                Xn, _ = solve_at(tn, Xn)
                bad, units, p, dets = vertex_test(Xn)
            # A step that flags an event goes on to the bisection.
            if not bad:
                points_n = minkowski.cell_points(units, watched_faces, p, dets)
            held = True
        except (Diverged, SingularJacobian, GeometryError):
            held = False
        if not held:
            # A long step can land, within PATH_TOL, on a far boost of
            # the polyhedron, whose float64 floor then stalls the next
            # solves above RESIDUAL_TOL, or converge onto planes that
            # bound other cells; retry shorter from X centred again.
            X, Xdot = _recentred(ap, X), None
            step /= 2.0
            if step < STEP_FLOOR:
                raise StepFloorReached(
                    f"step size fell below {STEP_FLOOR} at t={t:.6f}")
            continue
        if bad:
            # Bisect between the good and bad parameters to localize
            # the first ideal-vertex event, down to `resolution`.
            # Narrower, the RESIDUAL_TOL solves no longer tell the two
            # ends apart: they return their seeds.  Xg is solved to
            # RESIDUAL_TOL at lo, so its residual at the reported
            # t = hi is below 1.25 * RESIDUAL_TOL.  It can exceed
            # RESIDUAL_TOL: hi is bad when a solve seeded with Xg has to
            # move, and then lands past the threshold.
            lo, hi, Xg = t, tn, X
            while hi - lo >= resolution:
                mid = 0.5 * (lo + hi)
                try:
                    Xm, _ = solve_at(mid, Xg)
                except (Diverged, SingularJacobian):
                    hi = mid
                    continue
                worse = vertex_test(Xm)[0]
                if worse:
                    hi, bad = mid, worse
                else:
                    lo, Xg = mid, Xm
            if lo == t and t > 0.0:
                Xg, _ = solve_at(t, X)  # X is an interior PATH_TOL point
            raise EventDetected(hi, bad, _bind(ap, Xg))
        t, X, Xdot, points = tn, Xn, Xdot_n, points_n
        step = min(MAX_STEP, 2.0 * step)
    return X, points


def continue_path(realization: Realization, target: AngleAssignment,
                  start: Optional[AngleAssignment] = None) -> Realization:
    """Walk the realization along the straight angle segment to target.

    Both rational endpoints are checked exactly against the angle
    conditions before any numeric step; convexity then keeps the whole
    segment inside the angle set.
    """
    ap = realization.complex
    report = angle_sets.check_conditions(ap, target)
    # A low vertex sum at the endpoint is the one boundary worth walking
    # toward: the path degenerates there and event detection reports it.
    # Everything else is rejected outright.
    if (report.nonpositive_edges or report.obtuse_edges
            or report.heavy_3circuits or report.heavy_4circuits
            or report.heavy_quads):
        raise angle_sets.NotMember(
            f"target assignment violates the conditions: {report}")
    if start is not None:
        report = angle_sets.check_conditions(ap, start)
        if not report.member:
            raise angle_sets.NotMember(
                f"start assignment violates the conditions: {report}")
    return _walk(realization, _radians(target),
                 None if start is None else _radians(start))


def _walk(realization: Realization, target_rad: np.ndarray,
          start_rad: Optional[np.ndarray] = None,
          system: Optional[_GramSystem] = None) -> Realization:
    """The numeric walk behind continue_path, for endpoints already known
    to lie in the angle set: from start_rad (the measured angles when
    None) to target_rad, certified by its last step's cell test.  system
    is the complex's _GramSystem when the caller already has it."""
    ap = realization.complex
    measured = np.array(realization.edge_angles())
    if start_rad is None:
        start_rad = measured
    else:
        drift = np.max(np.abs(start_rad - measured))
        if drift > 1e-6:
            raise ValueError(
                f"declared start is {drift:.2e} away from the measured angles")
        if np.array_equal(start_rad, target_rad):
            # Nothing to walk: a solve seeded with the realization returns
            # it unchanged, with no linear solve, when it meets the target.
            X = _solve_raw(ap, target_rad, realization.normals, system=system)[0]
            if np.array_equal(X, realization.normals):
                return realization
            return _bind(ap, X)
    X, points = _continue_core(realization, start_rad, target_rad,
                               system=system)
    return Realization(complex=ap, normals=X, points=points)


# Whitehead move replay


def _collapse_profile(ap: AbstractPolyhedron, edge: int) -> AngleAssignment:
    """The angle profile that pinches the given edge: REPLAY_EPSILON
    there, pi/2 on the four surrounding edges, 2*pi/5 elsewhere.

    collapse_surroundings first checks exactly that ap is simple (no
    prismatic 3-circuit) and that no face at the edge is a triangle.  On
    such a complex the profile lies in the angle set, so the replay
    walks to and from it without checking the condition table:
    - every edge lies in (0, 1/2];
    - the edge's two ends sum to 1 + REPLAY_EPSILON, every other vertex
      to at least 6/5;
    - there are no 3-circuit rows;
    - a prismatic 4-circuit crosses pairwise disjoint edges, and the
      surrounding edges come in two pairs, each pair sharing an end of
      the pinched edge, so it crosses at most two pi/2 edges: a sum of
      at most 9/5 < 2;
    - a quadrilateral row has six edges, at most four of them pi/2: a
      sum of at most 14/5 < 3.
    Uniform 2/5 gives 6/5, 8/5 and 12/5 on every simple complex, so it
    lies in the angle set as well."""
    surrounding, _ = complexes.collapse_surroundings(ap, edge)
    values = [TWO_FIFTHS] * ap.edge_count
    for s in surrounding:
        values[s] = HALF
    values[edge] = REPLAY_EPSILON
    return AngleAssignment(tuple(values))


def replay_whitehead(realization: Realization,
                     move: whitehead.WhiteheadMove) -> Realization:
    """Carry a realization across one Whitehead move.

    Three phases: pinch the disappearing edge down to REPLAY_EPSILON
    with its four flanking edges at pi/2; solve the moved complex once at
    its own pinch profile (REPLAY_EPSILON on the inserted edge), seeded
    with the pinched normals unchanged; then relax to the all-2*pi/5
    interior point.  Every profile walked to or from lies in the angle
    set by the argument of _collapse_profile, so no leg rechecks it.
    """
    ap = realization.complex
    a_node, b_node = move.removed_edge
    edge = ap.edge_between_faces(a_node, b_node)
    if edge is None:
        raise whitehead.EdgeMissing(
            f"faces {a_node} and {b_node} share no edge")

    squeezed = _walk(realization, _radians(_collapse_profile(ap, edge)))

    # ap is simple (collapse_surroundings checked it), so the moved
    # complex is patched from ap's and known simple without a rebuild.
    ap2 = whitehead.primal_after(ap, move)
    edge2 = ap2.edge_between_faces(*move.inserted_edge)
    profile2 = _collapse_profile(ap2, edge2)
    target2 = _radians(profile2)

    # One system serves the crossing and the relax walk.
    system2 = _GramSystem(ap2)
    X2, _ = _solve_raw(ap2, target2,
                       _centred(squeezed.normals, squeezed.points),
                       system=system2)
    out = _bind(ap2, X2)

    rest = np.full(ap2.edge_count, float(TWO_FIFTHS) * math.pi)
    return _walk(out, rest, start_rad=target2, system=system2)


# Ideal-vertex truncation


def _interior_point(ap: AbstractPolyhedron, X: np.ndarray,
                    skip: Set[int]) -> np.ndarray:
    """The normalised sum of the vertex points outside skip; a
    GeometryError when one of them is not finite."""
    kept = [ap.vertex_faces(v) for v in range(ap.vertex_count) if v not in skip]
    return unit_timelike(minkowski.vertex_points(X, kept).sum(axis=0))


def _push_normals(X: np.ndarray, p: np.ndarray, delta: float) -> np.ndarray:
    """Move every plane outward by delta along the perpendicular dropped
    from the base point p."""
    out = np.empty_like(X)
    for i, v in enumerate(X):
        s0 = math.asinh(-mdot(v, p))
        u = (v - math.sinh(s0) * p) / math.cosh(s0)
        s = s0 + delta
        out[i] = math.sinh(s) * p + math.cosh(s) * u
    return out


def _cut_planes(ap: AbstractPolyhedron, X: np.ndarray,
                cut: Sequence[int]) -> np.ndarray:
    """X followed by, for each cut vertex in ascending order (hyperideal
    in X), the plane perpendicular to its three faces: the normals of
    catalog.truncate_vertices(ap, cut) in its face order."""
    cut = sorted(set(cut))
    try:
        p = _interior_point(ap, X, set(cut))
        extra = [perp_plane(*X[list(ap.vertex_faces(v))], interior=p)
                 for v in cut]
    except GeometryError as exc:
        raise WrongCombinatorics(f"no interior point or cutting plane: {exc}")
    return np.vstack([X, extra])


def truncate_ideal(realization: Realization,
                   vertices: Optional[Sequence[int]] = None) -> Realization:
    """Cut off the (near-)ideal vertices of a realization: push every
    plane out by 1e-2 so they turn hyperideal, then close each with the
    plane perpendicular to its three faces; with no such vertex this is
    the identity."""
    ap = realization.complex
    X = np.array(realization.normals)
    if vertices is None:
        dets = _vertex_dets(ap, X)
        vertices = [v for v in range(ap.vertex_count) if dets[v] < EVENT_TOL]
    if not vertices:
        return realization
    try:
        p = _interior_point(ap, X, set(vertices))
    except GeometryError as exc:
        raise WrongCombinatorics(f"no interior point to push from: {exc}")
    return _bind(catalog.truncate_vertices(ap, vertices, name=ap.name),
                 _cut_planes(ap, _push_normals(X, p, 1e-2), vertices))


# Staged realization of complexes whose only circuits are truncated
# triangles


def _essential_circuits(ap: AbstractPolyhedron) -> List[complexes.Circuit]:
    """The prismatic 3-circuits of ap that do not just wall off a
    triangular face, that is, differ from its three neighbours."""
    adj = complexes.face_adjacency(ap)
    walls = [adj[f] for f, cycle in enumerate(ap.faces) if len(cycle) == 3]
    return [c for c in complexes.prismatic_circuits(ap, 3)
            if set(c.dual_nodes) not in walls]


def _collapse_base(ap: AbstractPolyhedron) -> Tuple[
        AbstractPolyhedron, List[int], Dict[FrozenSet[int], int]]:
    """Shrink every truncated triangle of ap to a vertex, keeping one
    when the result would otherwise be a tetrahedron.

    Returns the shrunken complex, the map from its faces to faces of ap,
    and each removed triangle (an ap face) keyed by the ap faces of its
    three neighbours.

    A truncated triangle is a triangular face whose neighbours meet at
    no vertex.  All are read off ap, and the least of them, at most
    N - 5 of N faces, are shrunk at once.  On the staged branch's
    inputs that is what shrinking them one at a time gives: with more
    than five faces no two are adjacent or share their neighbours, and
    a face that shrinking one turns into a new truncated triangle is
    walled off with it by a prismatic 3-circuit, which there surrounds
    a triangle on its other side: six faces, of which one is shrunk."""
    adj = complexes.face_adjacency(ap)
    vertices = {ap.vertex_faces(v) for v in range(ap.vertex_count)}
    walls = {f: tuple(sorted(adj[f])) for f, cycle in enumerate(ap.faces)
             if len(cycle) == 3}
    shrunk = [f for f in walls if walls[f] not in vertices][:ap.face_count - 5]
    removed = {frozenset(walls[f]): f for f in shrunk}
    labels = [f for f in range(ap.face_count) if f not in shrunk]
    new = {f: i for i, f in enumerate(labels)}
    triangles = [t for t in vertices if all(x in new for x in t)]
    triangles += [walls[f] for f in shrunk]
    dc = complexes.DualComplex(node_count=len(labels), triangles=tuple(
        sorted(tuple(new[x] for x in t) for t in triangles)))
    base = complexes.primal(dc, name=f"{ap.name}_shrunk")
    assert complexes.is_simple(base) or base.face_count == 5
    return base, labels, removed


def _realize_truncated(ap: AbstractPolyhedron, a: AngleAssignment) -> Realization:
    """The staged pipeline for complexes whose prismatic 3-circuits all
    surround triangular faces: realize the shrunken complex with padded
    angles, walk it once to beta, where every reinstated vertex has
    passed ideal and is hyperideal, and cut all of them off there with
    the planes perpendicular to their faces.  A hyperideal polyhedron is
    determined by its angles (Bao and Bonahon), so the cut is ap's
    polyhedron at `start`: pi/2 on the reinstated triangles' edges, beta
    elsewhere.  It is bound onto ap and walked to a, which realize has
    checked; neither end is checked again, as start is a member.  An
    edge reads pi/2 only when one of its faces is a triangle T.  A vertex
    of T sums to pi + beta_e; every other vertex, and every circuit row
    that avoids the T's, reads beta, a member (interior_path).  A 3- or
    4-cycle through T has a consecutive triple (x, T, z) that spans a
    dual triangle, so it is not prismatic.  A quad row needs all six
    entries at pi/2, since beta < 1/2: two triangles on opposite sides
    of the quad, which close up with its two other neighbours into the
    triangular prism, and a prism takes the prism branch."""
    beta = angle_sets.interior_path(ap, a, Fraction(9, 10))
    base, labels, removed = _collapse_base(ap)
    base_edges = [ap.edge_between_faces(labels[g], labels[h])
                  for (_, _, g, h) in base.edges]

    # Every base edge but the crossed edges of a non-simple base's
    # circuit is padded up by 1/12, which lifts each reinstated vertex's
    # angle sum above pi at the start of the walk.
    specials = (set() if complexes.is_simple(base) else
                set(complexes.prismatic_circuits(base, 3)[0].crossed_edges))
    padded = AngleAssignment(tuple(
        beta[e] if e0 in specials else beta[e] + Fraction(1, 12)
        for e0, e in enumerate(base_edges)))
    assert all(0 < g < HALF for g in padded)

    # Each reinstated vertex's angle sum is linear along the walk from
    # padded to beta, so it crosses pi once and ends below it.
    corners = [frozenset(labels[f] for f in base.vertex_faces(v))
               for v in range(base.vertex_count)]
    cut = [v for v, corner in enumerate(corners) if corner in removed]
    for v in cut:
        edges = base.vertex_edges(v)
        sg = sum(padded[e] for e in edges)
        sb = sum(beta[base_edges[e]] for e in edges)
        assert sb < 1 < sg
    X = _continue_core(realize(base, padded), _radians(padded),
                       np.array([float(beta[e]) * math.pi for e in base_edges]),
                       expect_ideal=frozenset(cut))[0]
    labels += [removed[corners[v]] for v in cut]
    assert sorted(labels) == list(range(ap.face_count))
    normals_ap = _cut_planes(base, X, cut)[np.argsort(labels)]
    triangles = set(removed.values())
    start = AngleAssignment(tuple(
        HALF if {g, h} & triangles else beta[e]
        for e, (_, _, g, h) in enumerate(ap.edges)))
    return _walk(_bind(ap, normals_ap), _radians(a), _radians(start))


# Decomposition along essential circuits and gluing


@dataclass(frozen=True)
class PieceSpec:
    complex: AbstractPolyhedron
    angles: AngleAssignment
    face_origin: Dict[int, int]          # piece face -> face of the whole
    # the fill face, then the three circuit faces in circuit order
    fill: Tuple[int, int, int, int]


@dataclass(frozen=True)
class CompoundPlan:
    """One cut: the essential circuit and the pieces on its two sides."""
    circuit: complexes.Circuit
    pieces: Tuple[PieceSpec, PieceSpec]


def decompose(ap: AbstractPolyhedron, a: AngleAssignment) -> CompoundPlan:
    """Cut the dual along the first essential prismatic 3-circuit and
    fill the hole on each side with a triangle at pi/2 to the circuit's
    faces.  Each piece is one side of the circuit plus its three nodes;
    circuits left in a piece are cut when realize meets that piece.
    The first piece is the side holding a face of ap's least vertex
    triple, the dual's first triangle.  No dual of ap is built: the
    sides are flooded over face_adjacency(ap), and each piece's dual
    takes its triangles from ap's vertex triples."""
    if len(a) != ap.edge_count:
        raise angle_sets.SizeMismatch(
            f"assignment has {len(a)} angles, complex has {ap.edge_count} edges")
    ess = _essential_circuits(ap)
    if not ess:
        raise NoEssentialCircuits(
            "every prismatic 3-circuit surrounds a triangular face")
    circuit = ess[0]
    adj = complexes.face_adjacency(ap)
    triangles = [ap.vertex_faces(v) for v in range(ap.vertex_count)]
    ring = set(circuit.dual_nodes)
    # The circuit is no dual triangle, so every dual triangle has a node
    # off it, on exactly one of the two sides the circuit splits the
    # sphere into; an essential circuit walls off no single face.
    first = next(x for x in min(triangles) if x not in ring)
    side, stack = {first}, [first]
    while stack:
        for y in adj[stack.pop()] - ring - side:
            side.add(y)
            stack.append(y)
    sides = (side, set(range(ap.face_count)) - ring - side)

    pieces = []
    for r, nodes_in in enumerate(sides):
        nodes = sorted(nodes_in | ring)
        relabel = {x: i for i, x in enumerate(nodes)}
        fill = len(nodes)
        ca, cb, cc = (relabel[x] for x in circuit.dual_nodes)
        tris = [tuple(relabel[x] for x in t) for t in triangles
                if not nodes_in.isdisjoint(t)]
        tris += [tuple(sorted(pair + (fill,)))
                 for pair in ((ca, cb), (cb, cc), (ca, cc))]
        piece_dc = complexes.DualComplex(node_count=fill + 1,
                                         triangles=tuple(sorted(tris)))
        piece = complexes.primal(piece_dc, name=f"{ap.name}_piece{r}")
        origin = dict(enumerate(nodes))
        values = tuple(
            HALF if fill in (g, h)
            else a[ap.edge_between_faces(origin[g], origin[h])]
            for (_, _, g, h) in piece.edges)
        pieces.append(PieceSpec(piece, AngleAssignment(values), origin,
                                (fill, ca, cb, cc)))
    return CompoundPlan(circuit, tuple(pieces))


def _triangle_frame(spec: PieceSpec, normals: np.ndarray
                    ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The fill triangle's plane normal and its three corner points, in
    circuit order so both pieces list matching corners."""
    t_face, ca, cb, cc = spec.fill
    corners = minkowski.vertex_points(
        normals, [(t_face, ca, cb), (t_face, cb, cc), (t_face, cc, ca)])
    return normals[t_face], list(corners)


def glue(realizations: Sequence[Realization], plan: CompoundPlan
         ) -> List[np.ndarray]:
    """Fit the two piece realizations together across their fill
    triangles and return the merged normals indexed by original face.

    Each piece is first boosted so that its fill triangle's corners are
    centred; one Lorentz map then carries the second piece's corners
    onto the first's and its fill normal onto the first's reversed."""
    frames, placed = [], []
    for sign, spec, r in zip((-1.0, 1.0), plan.pieces, realizations):
        X = np.array(r.normals)
        X = _centred(X, _triangle_frame(spec, X)[1])
        w, corners = _triangle_frame(spec, X)
        frames.append(np.column_stack(corners + [sign * w]))
        placed.append(X)
    P, Q = frames
    if np.max(np.abs(P.T @ _ETA @ P - Q.T @ _ETA @ Q)) > 1e-6:
        raise IncongruentTriangles("the fill triangles do not match")
    try:
        L = P @ np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        raise IsometrySolveFailed("the fill triangle frames are degenerate")
    if np.max(np.abs(L.T @ _ETA @ L - _ETA)) > 1e-6:
        raise IsometrySolveFailed(
            "the matching map is not a Lorentz isometry")
    placed[1] = placed[1] @ L.T

    merged: Dict[int, np.ndarray] = {}
    for spec, X in zip(plan.pieces, placed):
        for f, orig in spec.face_origin.items():
            if orig not in merged:
                merged[orig] = X[f]
            elif np.max(np.abs(merged[orig] - X[f])) > GLUE_TOL:
                raise IncongruentTriangles(
                    f"face {orig} disagrees across the glue by more than "
                    f"{GLUE_TOL}")
    return [merged[f] for f in range(len(merged))]


# Orchestration


def _prism_labels(ap: AbstractPolyhedron) -> Optional[Tuple[int, ...]]:
    """The faces of ap in the face order of `catalog.prism(n)` (the two
    caps, then sides 2..n-1 in cyclic order), or None when ap is not a
    prism.

    The labels are read off the edge cycle of one (n-2)-gon, taken as
    the second cap (on the cube any face is one); the first cap is the
    one face left.  They are returned only when the prism's triangles
    (side i, side i+1, cap) carry onto exactly the face triples of ap's
    vertices, the triangles of dual(ap)."""
    n = ap.face_count
    k = n - 2
    cap = next((f for f, cycle in enumerate(ap.faces) if len(cycle) == k),
               None)
    if cap is None:
        return None
    sides = [next(g for g in ap.edges[e][2:] if g != cap)
             for e in ap.face_edge_cycle(cap)]
    rest = set(range(n)) - set(sides) - {cap}
    if len(rest) != 1:
        return None
    labels = (rest.pop(), cap) + tuple(sides)
    moved = {tuple(sorted((labels[2 + i], labels[2 + (i + 1) % k],
                           labels[c])))
             for i in range(k) for c in (0, 1)}
    if moved != {ap.vertex_faces(v) for v in range(ap.vertex_count)}:
        return None
    return labels


def _prism_seed(ap: AbstractPolyhedron, labels: Sequence[int]
                ) -> Tuple[Fraction, AngleAssignment]:
    """The vertical angle of the regular prism _realize_prism seeds from
    (1/4 at five faces, 2/5 at six, 1/2 from seven on) and that prism's
    angles on ap, whose faces in catalog.prism order are labels: the
    vertical angle on the side edges, 2/5 on the cap edges."""
    vertical = {5: Fraction(1, 4), 6: TWO_FIFTHS}.get(ap.face_count, HALF)
    caps = {labels[0], labels[1]}
    return vertical, AngleAssignment(tuple(
        vertical if fa not in caps and fb not in caps else TWO_FIFTHS
        for (_, _, fa, fb) in ap.edges))


def _realize_prism(ap: AbstractPolyhedron, a: AngleAssignment,
                   labels: Sequence[int]) -> Realization:
    """Realize the prism ap, whose faces in catalog.prism order are
    labels, from the regular prism, whose planes are certified once, on
    ap.  Neither end of the walk is checked again: realize has checked
    a, and the seed's angles lie in the angle set of every prism
    (test_prism_seeds_are_members)."""
    n = ap.face_count
    vertical, start = _prism_seed(ap, labels)
    normals_ap = np.empty((n, 4))
    normals_ap[list(labels)] = minkowski.build_prism(
        n, float(vertical) * math.pi, gap=math.pi / 10)
    return _walk(_bind(ap, normals_ap), _radians(a), _radians(start))


def _realize_simple(ap: AbstractPolyhedron, a: AngleAssignment) -> Realization:
    trace = whitehead.reduce_to_dn(complexes.dual(ap))
    n = ap.face_count
    # build_split_prism lists its planes in catalog.split_prism(n) order,
    # onto which split_prism_labels labels the reduction's end; this bind
    # is their one certificate.
    labels = whitehead.split_prism_labels(trace.end)
    assert labels is not None
    stage_ap = complexes.primal(trace.end, name=f"{ap.name}_stage")
    current = _bind(stage_ap, minkowski.build_split_prism(n)[
        [labels[v] for v in range(n)]])
    # Neither leg checks its endpoints against the condition table again.
    # Uniform 2/5 lies in the angle set of every simple complex (see
    # _collapse_profile); ap is simple, and so is trace.end, since
    # reduce_to_dn certified each move with flip_keeps_simple.  realize
    # has already checked a exactly on ap.
    interior = np.full(ap.edge_count, float(TWO_FIFTHS) * math.pi)
    current = _walk(current, interior)
    for mv in reversed(trace.moves):
        current = replay_whitehead(current, mv.inverse())
    # The replayed complex carries ap's face ids; rebind to ap's own
    # vertex labels before the final leg.
    final = _bind(ap, np.array(current.normals))
    return _walk(final, _radians(a), interior)


def realize(ap: AbstractPolyhedron, a: AngleAssignment) -> Realization:
    """Produce the compact hyperbolic polyhedron with cell structure ap
    and the requested dihedral angles."""
    if ap.face_count < 5:
        raise RealizeError(f"{ap.face_count} faces: Andreev's theorem "
                           f"needs N >= 5 faces")
    report = angle_sets.check_conditions(ap, a)
    if not report.member:
        raise InfeasibleAngles(
            f"angles violate the linear conditions: {report}")
    labels = _prism_labels(ap)
    if labels is not None:
        return _realize_prism(ap, a, labels)
    if complexes.is_simple(ap):
        return _realize_simple(ap, a)
    if _essential_circuits(ap):
        plan = decompose(ap, a)
        parts = [realize(spec.complex, spec.angles) for spec in plan.pieces]
        merged = glue(parts, plan)
        return newton_solve(ap, a, merged)
    return _realize_truncated(ap, a)
