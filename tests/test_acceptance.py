"""End-to-end acceptance checks with stated numeric budgets."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from andreev import angles, catalog, complexes, minkowski, realize, whitehead
from andreev.angles import AngleAssignment
from conftest import (brute_prismatic, built_prism, built_split_prism,
                      gram_residual)


def uniform(ap, r):
    return AngleAssignment.uniform(ap.edge_count, Fraction(r))


def angle_error(r, a):
    return max(abs(got - float(want) * math.pi)
               for got, want in zip(r.edge_angles(), a))


@functools.lru_cache(maxsize=None)
def dodeca_two_fifths():
    ap = catalog.dodecahedron()
    return realize.realize(ap, uniform(ap, Fraction(2, 5)))


def test_01_combinatorial_axioms(corpus):
    assert len(corpus) == 11
    for ap in corpus:
        assert ap.edge_count == 3 * (ap.face_count - 2), ap.name
        assert ap.face_count - ap.edge_count + ap.vertex_count == 2, ap.name


def test_02_circuit_oracle_equivalence(corpus):
    for ap in corpus:
        if ap.face_count > 14:
            continue
        for k in (3, 4):
            ours = set()
            for c in complexes.prismatic_circuits(ap, k):
                nodes = tuple(c.dual_nodes)
                rot = min(nodes[i:] + nodes[:i] for i in range(k))
                rev = tuple(reversed(rot))
                rot2 = min(rev[i:] + rev[:i] for i in range(k))
                ours.add(min(rot, rot2))
            oracle = {cyc for cyc, _ in brute_prismatic(ap, k)}
            assert ours == oracle, (ap.name, k)


def test_03_nonprismatic_4cycles_separate_two_vertices():
    checked = 0
    for n in range(8, 15):
        for seed in range(15):
            ap = complexes.primal(whitehead.random_simple(n, seed=seed))
            assert complexes.is_simple(ap)
            _audit_4cycle_separation(ap)
            checked += 1
    assert checked >= 100


def _audit_4cycle_separation(ap):
    dc = complexes.dual(ap)
    adj = dc.adjacency()
    prismatic = {cyc for cyc, _ in brute_prismatic(ap, 4)}
    seen = set()
    for a in adj:
        for b in adj[a]:
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d in (a, b) or a not in adj[d]:
                        continue
                    cyc = (a, b, c, d)
                    rot = min(cyc[i:] + cyc[:i] for i in range(4))
                    rev = tuple(reversed(rot))
                    rot2 = min(rev[i:] + rev[:i] for i in range(4))
                    key = min(rot, rot2)
                    if key in seen or key in prismatic:
                        continue
                    seen.add(key)
                    if c in adj[a] or d in adj[b]:
                        continue  # chorded cycle
                    crossed = {ap.edge_between_faces(cyc[i], cyc[(i + 1) % 4])
                               for i in range(4)}
                    graph = {}
                    for e, (u, v, _, _) in enumerate(ap.edges):
                        if e in crossed:
                            continue
                        graph.setdefault(u, []).append(v)
                        graph.setdefault(v, []).append(u)
                    unseen = set(range(ap.vertex_count))
                    sizes = []
                    while unseen:
                        stack = [unseen.pop()]
                        comp = {stack[0]}
                        while stack:
                            x = stack.pop()
                            for y in graph.get(x, ()):
                                if y not in comp:
                                    comp.add(y)
                                    unseen.discard(y)
                                    stack.append(y)
                        sizes.append(len(comp))
                    assert sorted(sizes)[0] == 2 and len(sizes) == 2


def test_04_feasibility_verdicts(corpus):
    rep = angles.feasible(catalog.alternately_truncated_cube())
    assert not rep.nonempty and rep.max_slack <= 0
    for ap in corpus:
        if not complexes.is_simple(ap):
            continue
        rep = angles.feasible(ap)
        assert rep.nonempty, ap.name
        assert angles.check_conditions(ap, rep.witness).member, ap.name


def test_05_condition_five_is_implied():
    shapes = [catalog.cube(), catalog.prism(6), catalog.prism(7),
              catalog.prism(8), catalog.truncated_tetrahedron()]
    for seed in range(5):
        shapes.append(complexes.primal(whitehead.random_simple(10, seed=seed)))
    rng = random.Random(99)
    accepted = 0
    guard = 0
    while accepted < 500:
        guard += 1
        assert guard < 30000
        ap = shapes[rng.randrange(len(shapes))]
        tight = bool(complexes.prismatic_circuits(ap, 3))
        vals = []
        for _ in range(ap.edge_count):
            if tight and rng.random() < 0.35:
                vals.append(Fraction(rng.randint(8, 33), 100))
            else:
                vals.append(Fraction(rng.randint(34, 50), 100))
        rep = angles.check_conditions(ap, AngleAssignment(tuple(vals)))
        if (rep.nonpositive_edges or rep.obtuse_edges or rep.low_vertices
                or rep.heavy_3circuits or rep.heavy_4circuits):
            continue
        accepted += 1
        assert rep.heavy_quads == ()


def test_06_dodecahedron_reduction():
    trace = whitehead.reduce_to_dn(complexes.dual(catalog.dodecahedron()))
    cur = trace.start
    for mv in trace.moves:
        cur = whitehead.apply_move(cur, mv)
        assert complexes.is_simple(complexes.primal(cur))
    assert complexes.isomorphic(cur, catalog.split_prism_dual(12)) is not None


def test_07_randomized_reductions():
    count = 0
    for n in range(8, 15):
        for seed in range(15):
            dc = whitehead.random_simple(n, seed=seed)
            start_deg = {v: len(dc.adjacency()[v]) for v in dc.adjacency()}
            v_inf = min(v for v in start_deg
                        if start_deg[v] == max(start_deg.values()))
            trace = whitehead.reduce_to_dn(dc)
            cur = dc
            size = len(cur.adjacency()[v_inf])
            for mv in trace.moves:
                cur = whitehead.apply_move(cur, mv)
                assert complexes.is_simple(complexes.primal(cur))
                nxt = len(cur.adjacency()[v_inf])
                assert nxt - size in (0, 1)  # grows one episode at a time
                size = nxt
            assert size == n - 3
            assert complexes.isomorphic(
                cur, catalog.split_prism_dual(n)) is not None
            count += 1
    assert count >= 100


def test_08_coseqn_identity():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        a, b, g = rng.uniform(1e-3, math.pi / 2, size=3)
        assert abs(minkowski.coseqn_determinant(a, b, g)
                   - minkowski.coseqn_product(a, b, g)) < 1e-12
    boundary = 0
    while boundary < 100:
        a = rng.uniform(0.3, math.pi / 2)
        b = rng.uniform(0.3, math.pi / 2)
        g = math.pi - a - b
        if not (0 < g <= math.pi / 2):
            continue
        boundary += 1
        assert abs(minkowski.coseqn_determinant(a, b, g)) < 1e-12


def test_09_explicit_prism():
    r = built_prism(5, math.pi / 4, 0.01)
    ap = r.complex
    ext = minkowski.extract_combinatorics(r.normals)
    assert (complexes.dual(ext.complex).triangle_set
            == complexes.dual(ap).triangle_set)
    for e, ang in enumerate(r.edge_angles()):
        fa, fb = ap.edges[e][2], ap.edges[e][3]
        if len(ap.faces[fa]) == 4 and len(ap.faces[fb]) == 4:
            assert abs(ang - math.pi / 4) < 1e-9
        else:
            assert 0 < ang < math.pi / 2


def test_10_split_prism():
    for n in range(8, 13):
        r = built_split_prism(n)
        ext = minkowski.extract_combinatorics(r.normals)
        assert (complexes.dual(ext.complex).triangle_set
                == catalog.split_prism_dual(n).triangle_set)
        # every doubled edge lands on pi/3 or pi/2
        for ang in r.edge_angles():
            assert min(abs(ang - math.pi / 3), abs(ang - math.pi / 2)) < 1e-8
        _audit_split_prism_coplanarity(n)


def _audit_split_prism_coplanarity(n):
    """Rebuild the half prism at the pre-reflection angles and verify
    the faces that merge under the doubling are exactly perpendicular to
    the mirror plane."""
    m = n - 1
    seed = built_prism(m, math.pi / 2, math.pi / 10)
    ap = seed.complex
    bottom, top = 0, 1
    quarter = min(e for e, (_, _, fa, fb) in enumerate(ap.edges)
                  if bottom in (fa, fb))
    target = []
    for e, (_, _, fa, fb) in enumerate(ap.edges):
        if top in (fa, fb):
            target.append(Fraction(1, 3))
        elif e == quarter:
            target.append(Fraction(1, 4))
        else:
            target.append(Fraction(1, 2))
    start = AngleAssignment(tuple(
        Fraction(2, 5) if top in (fa, fb) or bottom in (fa, fb)
        else Fraction(1, 2) for (_, _, fa, fb) in ap.edges))
    glued = realize.continue_path(seed, AngleAssignment(tuple(target)),
                                  start=start)
    b = np.array(glued.normals[bottom])
    qa, qb = ap.edges[quarter][2], ap.edges[quarter][3]
    quarter_face = qa if qb == bottom else qb
    for f in range(2, m):
        if f == quarter_face:
            assert abs(minkowski.mdot(glued.normals[f], b)) > 1e-3
        else:
            assert abs(minkowski.mdot(glued.normals[f], b)) < 1e-8


def _case_11_fixtures():
    dodeca = catalog.dodecahedron()
    pr5 = catalog.prism(5)
    vals = []
    for (_, _, fa, fb) in pr5.edges:
        lateral = len(pr5.faces[fa]) == 4 and len(pr5.faces[fb]) == 4
        vals.append(Fraction(1, 4) if lateral else Fraction(49, 100))
    return [
        (dodeca, uniform(dodeca, Fraction(2, 5))),
        (dodeca, uniform(dodeca, Fraction(1, 2))),
        (pr5, AngleAssignment(tuple(vals))),
    ]


@functools.lru_cache(maxsize=None)
def _case_11_results():
    out = []
    for ap, a in _case_11_fixtures():
        out.append((ap, a, realize.realize(ap, a)))
    return out


def test_11_realization_residuals():
    for ap, a, r in _case_11_results():
        assert gram_residual(r, a) < 1e-10, ap.name
        assert angle_error(r, a) < 1e-9, ap.name


def test_12_uniqueness_from_perturbed_seeds():
    for ap, a, r in _case_11_results():
        baselines = []
        for seed in (5, 6):
            rng = np.random.default_rng(seed)
            noisy = (np.array(r.normals)
                     + rng.normal(0, 1e-6, (ap.face_count, 4)))
            again = realize.newton_solve(ap, a, noisy)
            baselines.append(sorted(again.edge_lengths()))
        assert np.allclose(baselines[0], baselines[1], atol=1e-8), ap.name


def test_13_whitehead_replay_of_the_dodecahedron():
    ap = catalog.dodecahedron()
    trace = whitehead.reduce_to_dn(complexes.dual(ap))
    base = built_split_prism(12)
    mapping = complexes.isomorphic(complexes.dual(base.complex), trace.end)
    normals = [None] * 12
    for f, g in mapping.items():
        normals[g] = base.normals[f]
    stage = realize.newton_solve(
        complexes.primal(trace.end, name="stage"),
        AngleAssignment(tuple(_split_prism_labels(trace.end, base, mapping))),
        normals)
    expected = trace.end
    for mv in reversed(trace.moves):
        inv = mv.inverse()
        stage = realize.replay_whitehead(stage, inv)
        expected = whitehead.apply_move(expected, inv)
        # every stage must assemble into the expected combinatorics
        assert complexes.isomorphic(complexes.dual(stage.complex),
                                    expected) is not None
    target = uniform(stage.complex, Fraction(2, 5))
    final = realize.continue_path(stage, target)
    assert gram_residual(final, target) < 1e-10
    assert complexes.isomorphic(complexes.dual(final.complex),
                                complexes.dual(ap)) is not None


def _split_prism_labels(end, base, mapping):
    """Measured angles of the split prism, transported to the reduction
    target's edge order and snapped to thirds and halves."""
    ap2 = complexes.primal(end, name="stage")
    inv = {g: f for f, g in mapping.items()}
    vals = []
    for (_, _, fa, fb) in ap2.edges:
        e0 = base.complex.edge_between_faces(inv[fa], inv[fb])
        ang = base.edge_angles()[e0]
        frac = Fraction(1, 3) if abs(ang - math.pi / 3) < 1e-6 else Fraction(1, 2)
        vals.append(frac)
    return vals


def test_14_truncation_and_gluing():
    ap = catalog.corner_doubled_cube()
    rep = angles.feasible(ap)
    assert rep.nonempty
    a = rep.witness
    plan = realize.decompose(ap, a)
    assert [plan.circuit] == realize._essential_circuits(ap)
    assert len(plan.pieces) == 2
    r = realize.realize(ap, a)
    assert r.complex.face_count == ap.face_count  # fill triangles removed
    for e in plan.circuit.crossed_edges:
        assert abs(r.edge_angles()[e] - float(a[e]) * math.pi) < 1e-8
    assert angle_error(r, a) < 1e-8
    assert gram_residual(r, a) < 1e-10


def test_15_degeneration_diagnostics():
    r = dodeca_two_fifths()
    ap = r.complex
    vals = [Fraction(2, 5)] * ap.edge_count
    for e in ap.vertex_edges(0):
        vals[e] = Fraction(1, 3)
    with pytest.raises(realize.EventDetected) as exc:
        realize.continue_path(r, AngleAssignment(tuple(vals)))
    ev = exc.value
    assert ev.vertices == (0,)
    assert ev.t > 0.9
    last = ev.realization
    dets = realize._vertex_dets(last.complex, np.array(last.normals))
    assert dets[0] < 2e-7  # last good point, one bisection width early
    assert all(dets[v] > 1e-7 for v in range(1, 20))
    # at the event parameter itself the minor has crossed the threshold
    start = np.array([0.4 * math.pi] * 30)
    full = np.array([float(v) * math.pi for v in vals])
    rad = (1 - ev.t) * start + ev.t * full
    at_event, _ = realize._solve_raw(ap, rad, np.array(last.normals))
    assert realize._vertex_dets(ap, at_event)[0] < 1e-7
    balls = [np.array(p[1:]) / (1 + p[0]) for p in last.points]
    for i in range(1, 20):
        for j in range(i + 1, 20):
            assert np.linalg.norm(balls[i] - balls[j]) > 1e-3
