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
rational endpoints (or, for the Whitehead replay's profiles, known from
the lemma in `_collapse_profile`).  On top of that sit the combinatorial
pipelines: prisms are built directly, simple complexes are reached by
replaying a Whitehead reduction backwards from the split prism,
complexes whose only prismatic 3-circuits are truncated triangles go
through a staged schedule that drives vertices to infinity and truncates
them, and everything else is cut along essential 3-circuits, realized
piecewise, and glued back with Lorentz isometries.
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
                        vertex_point, perp_plane)

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

RESIDUAL_TOL = 1e-10
PATH_TOL = 1e-6
NEWTON_STEPS = 50
EVENT_TOL = 1e-7
STEP_FLOOR = 1e-6
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

    Carries the localized parameter t, the affected vertex ids and the
    last realization on the good side of the event.
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


def _solve_raw(ap: AbstractPolyhedron, target_rad: np.ndarray,
               seed: Sequence, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solve the Gram system for the face normals to a max residual below
    tol, without extracting combinatorics.  Returns an (N,4) array.

    The unit-norm and edge rows leave the six directions of the Lorentz
    group free; six slice rows <X G_k^T, delta> = 0 take every step
    orthogonal to that orbit, so the solution stays in the seed's frame
    and the callers' centring keeps its coordinates small."""
    N, E = ap.face_count, ap.edge_count
    if len(target_rad) != E:
        raise ValueError("target has wrong number of angles")
    X = np.array(seed, dtype=float)
    cos_t = np.cos(target_rad)
    ia = np.array([e[2] for e in ap.edges])
    ib = np.array([e[3] for e in ap.edges])
    n_unknown = 4 * N
    # Jacobian sparsity: per face row its four coordinates, per edge row
    # the coordinates of both faces; the slice rows are dense.
    face_rows = np.repeat(np.arange(N), 4)
    edge_rows = np.repeat(np.arange(N, N + E), 4)
    cols_a = (4 * ia[:, None] + np.arange(4)).ravel()
    cols_b = (4 * ib[:, None] + np.arange(4)).ravel()

    def residual(Y: np.ndarray) -> np.ndarray:
        F = np.zeros(n_unknown)
        F[:N] = np.einsum("ij,jk,ik->i", Y, _ETA, Y) - 1.0
        # matmul of stacked rows rounds like Y[i] @ _ETA @ Y[j]; einsum
        # and sum(axis=1) do not, and Newton sits on the float64 floor.
        eY = Y @ _ETA
        pair = np.matmul(eY[ia][:, None, :], Y[ib][:, :, None])[:, 0, 0]
        F[N:N + E] = pair + cos_t
        return F

    F = residual(X)
    for step in range(NEWTON_STEPS + 1):
        res = np.max(np.abs(F))
        if not np.isfinite(res) or res > 1e8:
            raise Diverged(f"residual blew up at step {step}")
        if res < tol:
            break
        if step == NEWTON_STEPS:
            raise Diverged(f"no convergence in {NEWTON_STEPS} steps "
                           f"(residual {res:.3e})")
        J = np.zeros((n_unknown, n_unknown))
        eX = X @ _ETA
        J[face_rows, np.arange(4 * N)] = 2.0 * eX.ravel()
        J[edge_rows, cols_a] = eX[ib].ravel()
        J[edge_rows, cols_b] = eX[ia].ravel()
        J[N + E:] = (X @ _SO31.transpose(0, 2, 1)).reshape(6, n_unknown)
        try:
            delta = np.linalg.solve(J, -F).reshape(N, 4)
        except np.linalg.LinAlgError:
            raise SingularJacobian("slice-gauged Jacobian is singular")
        # Plain full steps.  Monotone damping looks tempting but creeps
        # along curved valleys near ill-conditioned stages (a tiny face
        # right after a truncation, say), where the full step converges
        # through a short residual excursion.
        X = X + delta
        F = residual(X)
    return X


def _vertex_dets(ap: AbstractPolyhedron, X: np.ndarray) -> np.ndarray:
    rows = X[np.array([ap.vertex_faces(v) for v in range(ap.vertex_count)])]
    return np.linalg.det(rows @ _ETA @ rows.transpose(0, 2, 1))


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
    faces = [ap.vertex_faces(v) for v in range(ap.vertex_count)]
    try:
        X = _centred(X, minkowski.vertex_points(X, faces))
    except GeometryError:
        pass
    return _bind(ap, _solve_raw(ap, _radians(target), X))


# Continuation along straight angle paths


def _continue_core(r: Realization, start_rad: np.ndarray,
                   target_rad: np.ndarray,
                   expect_ideal: FrozenSet[int] = frozenset(),
                   max_step: float = 0.25) -> np.ndarray:
    """Step r, centred once, from start_rad to target_rad, halving the
    step on a failed solve (down to STEP_FLOOR) and doubling it back
    after a success.

    Only the t = 1 endpoint leaves this walk, so the interior points
    are solved to PATH_TOL, as accurate as the next step's seed needs;
    the endpoint is solved to RESIDUAL_TOL.  Events are decided on
    RESIDUAL_TOL solves only: a step whose vertex dets flag an event is
    first re-solved to RESIDUAL_TOL from itself, the bisection solves to
    RESIDUAL_TOL, and the realization EventDetected carries is one of
    those solves (or r itself)."""
    ap = r.complex
    watched = [v for v in range(ap.vertex_count) if v not in expect_ideal]

    def solve_at(t: float, seed: np.ndarray,
                 tol: float = RESIDUAL_TOL) -> np.ndarray:
        return _solve_raw(ap, (1.0 - t) * start_rad + t * target_rad, seed,
                          tol)

    def bad_vertices(X: np.ndarray) -> Tuple[int, ...]:
        dets = _vertex_dets(ap, X)
        return tuple(v for v in watched if dets[v] < EVENT_TOL)

    t, X, step = 0.0, _centred(r.normals, r.points), max_step
    while t < 1.0:
        tn = min(1.0, t + step)
        try:
            Xn = solve_at(tn, X, RESIDUAL_TOL if tn == 1.0 else PATH_TOL)
            bad = bad_vertices(Xn)
            if bad and tn < 1.0:
                Xn = solve_at(tn, Xn)
                bad = bad_vertices(Xn)
        except (Diverged, SingularJacobian, WrongCombinatorics):
            step /= 2.0
            if step < STEP_FLOOR:
                raise StepFloorReached(
                    f"step size fell below {STEP_FLOOR} at t={t:.6f}")
            continue
        if bad:
            # Bisect between the good and bad parameters to localize
            # the first ideal-vertex event.
            lo, hi, Xg = t, tn, X
            for _ in range(60):
                if hi - lo < 1e-12:
                    break
                mid = 0.5 * (lo + hi)
                try:
                    Xm = solve_at(mid, Xg)
                except (Diverged, SingularJacobian, WrongCombinatorics):
                    hi = mid
                    continue
                worse = bad_vertices(Xm)
                if worse:
                    hi, bad = mid, worse
                else:
                    lo, Xg = mid, Xm
            if lo == t and t > 0.0:
                Xg = solve_at(t, X)  # X is an interior PATH_TOL point
            raise EventDetected(hi, bad, _bind(ap, Xg))
        t, X = tn, Xn
        step = min(max_step, 2.0 * step)
    return X


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
          start_rad: Optional[np.ndarray] = None) -> Realization:
    """The numeric walk behind continue_path, for endpoints already known
    to lie in the angle set: from start_rad (the measured angles when
    None) to target_rad, certified at the end by _bind."""
    ap = realization.complex
    measured = np.array(realization.edge_angles())
    if start_rad is None:
        start_rad = measured
    else:
        drift = np.max(np.abs(start_rad - measured))
        if drift > 1e-6:
            raise ValueError(
                f"declared start is {drift:.2e} away from the measured angles")
    try:
        return _bind(ap, _continue_core(realization, start_rad, target_rad))
    except WrongCombinatorics:
        # A long Newton step can converge onto a plane arrangement with
        # the wrong combinatorics without any warning from the residual;
        # redo the walk once with shorter strides.
        return _bind(ap, _continue_core(realization, start_rad, target_rad,
                                        max_step=0.05))


# Whitehead move replay


def _collapse_profile(ap: AbstractPolyhedron, edge: int) -> AngleAssignment:
    """The angle profile that pinches the given edge: REPLAY_EPSILON
    there, pi/2 on the four surrounding edges, 2*pi/5 elsewhere.

    collapse_edge first checks exactly that ap is simple (no prismatic
    3-circuit) and that no face at the edge is a triangle.  On such a
    complex the profile lies in the angle set, so the replay walks to
    and from it without checking the condition table:
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
    con = complexes.collapse_edge(ap, edge)
    values = [TWO_FIFTHS] * ap.edge_count
    for s in con.surrounding_edges:
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
    dc = complexes.dual(ap)
    a_node, b_node = move.removed_edge
    edge = ap.edge_between_faces(a_node, b_node)
    if edge is None:
        raise whitehead.EdgeMissing(
            f"faces {a_node} and {b_node} share no edge")

    squeezed = _walk(realization, _radians(_collapse_profile(ap, edge)))

    dc2 = whitehead.apply_move(dc, move)
    ap2 = complexes.primal(dc2, name=ap.name)
    edge2 = ap2.edge_between_faces(*move.inserted_edge)
    profile2 = _collapse_profile(ap2, edge2)
    target2 = _radians(profile2)

    out = _bind(ap2, _solve_raw(ap2, target2,
                                _centred(squeezed.normals, squeezed.points)))

    rest = np.full(ap2.edge_count, float(TWO_FIFTHS) * math.pi)
    return _walk(out, rest, start_rad=target2)


# Ideal-vertex truncation


def _interior_point(ap: AbstractPolyhedron, X: np.ndarray,
                    skip: Set[int]) -> np.ndarray:
    """The normalised sum of the vertex points outside skip, added in
    vertex order; a GeometryError when one of them is not finite."""
    kept = [ap.vertex_faces(v) for v in range(ap.vertex_count) if v not in skip]
    acc = np.zeros(4)
    for point in minkowski.vertex_points(X, kept):
        acc += point
    return unit_timelike(acc)


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


def _truncate_normals(ap: AbstractPolyhedron, X: np.ndarray,
                      cut: Sequence[int], delta: float) -> Realization:
    """Push all planes out by delta so the cut vertices turn hyperideal,
    then close each of them off with the common perpendicular plane."""
    cut = sorted(set(cut))
    new_ap = catalog.truncate_vertices(ap, cut, name=ap.name)
    try:
        p = _interior_point(ap, X, set(cut))
        Y = _push_normals(X, p, delta)
        extra = [perp_plane(*Y[list(ap.vertex_faces(v))], interior=p)
                 for v in cut]
    except GeometryError as exc:
        raise WrongCombinatorics(
            f"no interior point or cutting plane at a push of {delta}: {exc}")
    return _bind(new_ap, np.vstack([Y, extra]))


def truncate_ideal(realization: Realization,
                   vertices: Optional[Sequence[int]] = None) -> Realization:
    """Cut off the (near-)ideal vertices of a realization with planes
    perpendicular to their three faces; with no such vertex this is the
    identity."""
    ap = realization.complex
    X = np.array(realization.normals)
    if vertices is None:
        dets = _vertex_dets(ap, X)
        vertices = [v for v in range(ap.vertex_count) if dets[v] < EVENT_TOL]
    if not vertices:
        return realization
    return _truncate_normals(ap, X, vertices, 1e-2)


# Staged realization of complexes whose only circuits are truncated
# triangles


def _essential_circuits(ap: AbstractPolyhedron) -> List[complexes.Circuit]:
    dc = complexes.dual(ap)
    adj = dc.adjacency()
    out = []
    for c in complexes.prismatic_circuits(ap, 3):
        nodes = set(c.dual_nodes)
        if any(adj[f] == nodes for f in adj):
            continue  # the circuit just walls off a triangular face
        out.append(c)
    return out


def _collapse_base(ap: AbstractPolyhedron) -> Tuple[
        AbstractPolyhedron, List[int], List[FrozenSet[int]]]:
    """Shrink every truncated triangle of ap to a vertex, keeping one
    when the result would otherwise be a tetrahedron.

    Returns the shrunken complex, the map from its faces to faces of ap,
    and the neighbor-face triples (in ap labels) of the removed
    triangles.
    """
    dc = complexes.dual(ap)
    labels = list(range(dc.node_count))
    created: List[FrozenSet[int]] = []
    while dc.node_count > 5:
        adj = dc.adjacency()
        tset = dc.triangle_set
        cand = [f for f in range(dc.node_count)
                if len(adj[f]) == 3 and tuple(sorted(adj[f])) not in tset]
        if not cand:
            break
        f = cand[0]
        tri = tuple(sorted(adj[f]))
        created.append(frozenset(labels[x] for x in tri))
        tris = [t for t in dc.triangles if f not in t] + [tri]
        shift = lambda x: x - 1 if x > f else x
        tris = sorted(tuple(sorted(map(shift, t))) for t in tris)
        dc = complexes.DualComplex(node_count=dc.node_count - 1,
                                   triangles=tuple(tris))
        del labels[f]
    base = complexes.primal(dc, name=f"{ap.name}_shrunk")
    assert complexes.is_simple(base) or base.face_count == 5
    return base, labels, created


def _realize_truncated(ap: AbstractPolyhedron, a: AngleAssignment) -> Realization:
    """The staged pipeline for complexes whose prismatic 3-circuits all
    surround triangular faces: realize the shrunken complex with padded
    angles, then march the schedule that sends each reinstated vertex to
    infinity and truncate it there."""
    beta = angle_sets.interior_path(ap, a, Fraction(9, 10))
    delta = Fraction(1, 24)
    base, labels, created = _collapse_base(ap)
    n0 = base.face_count

    def base_to_ap_edge(e0: int) -> int:
        _, _, g, h = base.edges[e0]
        idx = ap.edge_between_faces(labels[g], labels[h])
        assert idx is not None
        return idx

    # Three pairwise disjoint edges keep their angles; every other edge
    # gets padded up by 2*delta, which lifts each reinstated vertex's
    # angle sum above pi at the start of the schedule.
    if not complexes.is_simple(base):
        specials = set(complexes.prismatic_circuits(base, 3)[0].crossed_edges)
    else:
        specials, met = set(), set()
        for e0, (u, v, _, _) in enumerate(base.edges):
            if u not in met and v not in met:
                specials.add(e0)
                met.update((u, v))
            if len(specials) == 3:
                break
    gamma = [beta[base_to_ap_edge(e0)]
             + (0 if e0 in specials else 2 * delta)
             for e0 in range(base.edge_count)]
    assert all(0 < g < HALF for g in gamma)
    assert angle_sets.check_conditions(base, AngleAssignment(tuple(gamma))).member

    current = realize(base, AngleAssignment(tuple(gamma)))

    # Event times: when does each reinstated vertex's angle sum cross pi
    # along (1-t)*gamma + t*beta?
    created_set = {s for s in created}
    events: Dict[Fraction, List[int]] = {}
    for v in range(base.vertex_count):
        triple = frozenset(labels[f] for f in base.vertex_faces(v))
        if triple not in created_set:
            continue
        edges = base.vertex_edges(v)
        sg = sum(gamma[e] for e in edges)
        sb = sum(beta[base_to_ap_edge(e)] for e in edges)
        assert sb < 1 < sg
        events.setdefault((sg - 1) / (sg - sb), []).append(v)
    schedule = sorted(events.items())

    def value_at(cur: AbstractPolyhedron, e: int, t: Fraction) -> Fraction:
        _, _, g, h = cur.edges[e]
        if g >= n0 or h >= n0:
            return HALF
        e0 = base.edge_between_faces(g, h)
        return (1 - t) * gamma[e0] + t * beta[base_to_ap_edge(e0)]

    cur_ap = base
    t_prev = Fraction(0)
    triangle_owner: Dict[int, FrozenSet[int]] = {}  # new face -> ap triple

    for stage, (T, group_base) in enumerate(schedule + [(Fraction(1), [])]):
        start_rad = np.array([float(value_at(cur_ap, e, t_prev)) * math.pi
                              for e in range(cur_ap.edge_count)])
        target_rad = np.array([float(value_at(cur_ap, e, T)) * math.pi
                               for e in range(cur_ap.edge_count)])
        # Locate the stage's vertices in the current complex; their three
        # faces are original base faces, whose ids never move.
        group = []
        for v0 in group_base:
            faces = base.vertex_faces(v0)
            group.append(next(v for v in range(cur_ap.vertex_count)
                              if cur_ap.vertex_faces(v) == faces))
        X = _continue_core(current, start_rad, target_rad,
                           expect_ideal=frozenset(group))
        if not group:
            break
        cut = _truncate_normals(cur_ap, X, group, 1e-3)
        for i, v in enumerate(sorted(group)):
            owner = frozenset(labels[f] for f in cur_ap.vertex_faces(v))
            triangle_owner[cur_ap.face_count + i] = owner
        cur_ap = cut.complex
        # Rejoin the schedule midway to the next event, audited by _bind.
        # Right at the event the cut triangles sit near the sphere at
        # infinity and the system is terribly conditioned.
        t_next = schedule[stage + 1][0] if stage + 1 < len(schedule) else Fraction(1)
        t_prev = (T + t_next) / 2
        rad = np.array([float(value_at(cur_ap, e, t_prev)) * math.pi
                        for e in range(cur_ap.edge_count)])
        seed = _centred(cut.normals, cut.points)
        current = _bind(cur_ap, _solve_raw(cur_ap, rad, seed))

    # Map the staged complex back onto the caller's labels and finish
    # with an exact-endpoint continuation to the requested angles.
    face_map: Dict[int, int] = {}
    for g in range(cur_ap.face_count):
        if g < n0:
            face_map[g] = labels[g]
        else:
            owner = triangle_owner[g]
            matches = [f for f in range(ap.face_count)
                       if len(ap.faces[f]) == 3
                       and {fb for e in ap.face_edge_cycle(f)
                            for fb in ap.edges[e][2:]} - {f} == owner]
            assert len(matches) == 1
            face_map[g] = matches[0]
    normals_ap = np.empty((ap.face_count, 4))
    start_vals: List[Fraction] = [Fraction(0)] * ap.edge_count
    for g in range(cur_ap.face_count):
        normals_ap[face_map[g]] = X[g]
    for e, (_, _, g, h) in enumerate(cur_ap.edges):
        idx = ap.edge_between_faces(face_map[g], face_map[h])
        start_vals[idx] = value_at(cur_ap, e, Fraction(1))
    bound = _bind(ap, normals_ap)
    return continue_path(bound, a, start=AngleAssignment(tuple(start_vals)))


# Decomposition along essential circuits and gluing


@dataclass(frozen=True)
class PieceSpec:
    complex: AbstractPolyhedron
    angles: AngleAssignment
    face_origin: Dict[int, int]          # piece face -> face of the whole
    new_faces: Dict[int, int]            # piece triangle face -> circuit index
    circuit_nodes: Dict[int, Tuple[int, int, int]]  # circuit -> piece faces


@dataclass(frozen=True)
class CompoundPlan:
    circuits: Tuple[complexes.Circuit, ...]
    pieces: Tuple[PieceSpec, ...]


def decompose(ap: AbstractPolyhedron, a: AngleAssignment) -> CompoundPlan:
    """Cut the dual along every essential prismatic 3-circuit and fill
    each hole with a triangle, producing pieces whose circuits all
    surround triangular faces."""
    ess = _essential_circuits(ap)
    if not ess:
        raise NoEssentialCircuits(
            "every prismatic 3-circuit surrounds a triangular face")
    dc = complexes.dual(ap)
    cut_edges: Set[Tuple[int, int]] = set()
    for c in ess:
        ns = c.dual_nodes
        for i in range(3):
            x, y = ns[i], ns[(i + 1) % 3]
            cut_edges.add((min(x, y), max(x, y)))

    # Flood-fill triangles across dual edges not on any circuit.
    side: Dict[Tuple[int, int, int], int] = {}
    flanks: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for t in dc.triangles:
        x, y, z = t
        for e in ((x, y), (x, z), (y, z)):
            flanks.setdefault(e, []).append(t)
    region = 0
    for t0 in dc.triangles:
        if t0 in side:
            continue
        stack = [t0]
        side[t0] = region
        while stack:
            t = stack.pop()
            x, y, z = t
            for e in ((x, y), (x, z), (y, z)):
                if e in cut_edges:
                    continue
                for t2 in flanks[e]:
                    if t2 not in side:
                        side[t2] = region
                        stack.append(t2)
        region += 1
    assert region == len(ess) + 1, "circuits do not cut the sphere cleanly"

    pieces: List[PieceSpec] = []
    for r in range(region):
        tris = [t for t in dc.triangles if side[t] == r]
        nodes = sorted({x for t in tris for x in t})
        borders = []
        for l, c in enumerate(ess):
            ns = c.dual_nodes
            e = (min(ns[0], ns[1]), max(ns[0], ns[1]))
            if any(side[t] == r for t in flanks[e]):
                borders.append(l)
        relabel = {x: i for i, x in enumerate(nodes)}
        new_tris = [tuple(sorted(relabel[x] for x in t)) for t in tris]
        new_face_of: Dict[int, int] = {}
        circuit_nodes: Dict[int, Tuple[int, int, int]] = {}
        for l in borders:
            nid = len(relabel)
            relabel[("fill", l)] = nid
            new_face_of[nid] = l
            ca, cb, cc = (relabel[x] for x in ess[l].dual_nodes)
            circuit_nodes[l] = (ca, cb, cc)
            for pair in ((ca, cb), (cb, cc), (ca, cc)):
                new_tris.append(tuple(sorted(pair + (nid,))))
        piece_dc = complexes.DualComplex(node_count=len(relabel),
                                         triangles=tuple(sorted(new_tris)))
        piece = complexes.primal(piece_dc, name=f"{ap.name}_piece{r}")
        origin = {relabel[x]: x for x in nodes}
        values: List[Fraction] = []
        for (_, _, g, h) in piece.edges:
            if g in new_face_of or h in new_face_of:
                values.append(HALF)
            else:
                idx = ap.edge_between_faces(origin[g], origin[h])
                assert idx is not None
                values.append(a[idx])
        piece_angles = AngleAssignment(tuple(values))
        assert angle_sets.check_conditions(piece, piece_angles).member
        assert _prism_labels(piece) is None
        pieces.append(PieceSpec(piece, piece_angles, origin, new_face_of,
                                circuit_nodes))
    return CompoundPlan(tuple(ess), tuple(pieces))


def _triangle_frame(spec: PieceSpec, normals: np.ndarray, l: int
                    ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The fill triangle's plane normal and its three corner points, in
    circuit order so both sides of a pair list matching corners."""
    t_face = next(f for f, lab in spec.new_faces.items() if lab == l)
    ca, cb, cc = spec.circuit_nodes[l]
    w = normals[t_face]
    corners = []
    for x, y in ((ca, cb), (cb, cc), (cc, ca)):
        corners.append(vertex_point(w, normals[x], normals[y]))
    return w, corners


def glue(realizations: Sequence[Realization], plan: CompoundPlan
         ) -> List[np.ndarray]:
    """Fit the piece realizations together across their paired fill
    triangles and return the merged normals indexed by original face."""
    k = len(plan.circuits)
    owners: Dict[int, List[int]] = {l: [] for l in range(k)}
    for r, spec in enumerate(plan.pieces):
        for l in spec.new_faces.values():
            owners[l].append(r)
    for l, rs in owners.items():
        if len(rs) != 2:
            raise IsometrySolveFailed(
                f"circuit {l} does not pair exactly two pieces")

    world: Dict[int, np.ndarray] = {}
    placed: Dict[int, np.ndarray] = {0: np.eye(4)}
    queue = [0]
    while queue:
        r = queue.pop()
        spec = plan.pieces[r]
        T = placed[r]
        for l in set(spec.new_faces.values()):
            other = next(x for x in owners[l] if x != r)
            if other in placed:
                continue
            w1, p1 = _triangle_frame(spec, np.array(realizations[r].normals), l)
            w2, q2 = _triangle_frame(plan.pieces[other],
                                     np.array(realizations[other].normals), l)
            w1 = T @ w1
            p1 = [T @ p for p in p1]
            P = np.column_stack(p1 + [-w1])
            Q = np.column_stack(q2 + [w2])
            gp = P.T @ _ETA @ P
            gq = Q.T @ _ETA @ Q
            if np.max(np.abs(gp - gq)) > 1e-6:
                raise IncongruentTriangles(
                    f"paired triangles for circuit {l} do not match")
            try:
                L = P @ np.linalg.inv(Q)
            except np.linalg.LinAlgError:
                raise IsometrySolveFailed(
                    f"triangle frames for circuit {l} are degenerate")
            if np.max(np.abs(L.T @ _ETA @ L - _ETA)) > 1e-6:
                raise IsometrySolveFailed(
                    f"matching map for circuit {l} is not a Lorentz isometry")
            placed[other] = L
            queue.append(other)

    n_faces = 1 + max(f for spec in plan.pieces for f in spec.face_origin.values())
    merged: List[Optional[np.ndarray]] = [None] * n_faces
    for r, spec in enumerate(plan.pieces):
        T = placed[r]
        normals = np.array(realizations[r].normals)
        for f, orig in spec.face_origin.items():
            v = T @ normals[f]
            if merged[orig] is None:
                merged[orig] = v
            elif np.max(np.abs(merged[orig] - v)) > GLUE_TOL:
                raise IncongruentTriangles(
                    f"face {orig} disagrees across the glue by more than "
                    f"{GLUE_TOL}")
    assert all(v is not None for v in merged)
    return merged


# Orchestration


def _prism_labels(ap: AbstractPolyhedron) -> Optional[Tuple[int, ...]]:
    """The faces of ap in the face order of `minkowski.build_prism(n)`
    (sides 0..n-3 in cyclic order, then the two caps), or None when ap
    is not a prism.

    The labels are read off the edge cycle of one (n-2)-gon, taken as a
    cap (on the cube any face is one); the other cap is the one face
    left.  They are returned only when the prism's triangles (side i,
    side i+1, cap) carry onto exactly the triangles of dual(ap)."""
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
    labels = tuple(sides) + (cap, rest.pop())
    moved = {tuple(sorted((labels[i], labels[(i + 1) % k], labels[c])))
             for i in range(k) for c in (k, k + 1)}
    if moved != complexes.dual(ap).triangle_set:
        return None
    return labels


def _realize_prism(ap: AbstractPolyhedron, a: AngleAssignment,
                   labels: Sequence[int]) -> Realization:
    """Realize the prism ap, whose faces in build_prism order are labels,
    from the regular prism."""
    n = ap.face_count
    seed_angle = {5: Fraction(1, 4), 6: TWO_FIFTHS}.get(n, HALF)
    built = minkowski.build_prism(n, float(seed_angle) * math.pi,
                                  gap=math.pi / 10)
    caps = {labels[n - 2], labels[n - 1]}
    normals_ap = np.empty((n, 4))
    normals_ap[list(labels)] = built.normals
    start = AngleAssignment(tuple(
        seed_angle if fa not in caps and fb not in caps else TWO_FIFTHS
        for (_, _, fa, fb) in ap.edges))
    return continue_path(_bind(ap, normals_ap), a, start=start)


def _realize_simple(ap: AbstractPolyhedron, a: AngleAssignment) -> Realization:
    trace = whitehead.reduce_to_dn(complexes.dual(ap))
    n = ap.face_count
    built = minkowski.build_split_prism(n)
    # Both complexes are labelled onto the catalog split prism; compose.
    end_labels = whitehead.split_prism_labels(trace.end)
    built_labels = whitehead.split_prism_labels(complexes.dual(built.complex))
    assert end_labels is not None and built_labels is not None
    end_node = {lab: v for v, lab in end_labels.items()}
    normals = np.empty((n, 4))
    for f in range(n):
        normals[end_node[built_labels[f]]] = built.normals[f]
    stage_ap = complexes.primal(trace.end, name=f"{ap.name}_stage")
    current = _bind(stage_ap, normals)
    interior = AngleAssignment.uniform(ap.edge_count, TWO_FIFTHS)
    current = continue_path(current, interior)
    for mv in reversed(trace.moves):
        current = replay_whitehead(current, mv.inverse())
    # The replayed complex carries ap's face ids; rebind to ap's own
    # vertex labels before the final leg.
    final = _bind(ap, np.array(current.normals))
    return continue_path(final, a, start=interior)


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
