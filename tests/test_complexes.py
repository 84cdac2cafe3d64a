"""Cell-complex validation, duality, and circuit enumeration."""

import dataclasses
import functools
import json
import random

import pytest

from andreev import catalog, complexes, whitehead
from conftest import brute_prismatic


class TestBuild:
    def test_tetrahedron_counts(self):
        ap = catalog.tetrahedron()
        assert (ap.face_count, ap.edge_count, ap.vertex_count) == (4, 6, 4)

    def test_dodecahedron_counts(self):
        ap = catalog.dodecahedron()
        assert (ap.face_count, ap.edge_count, ap.vertex_count) == (12, 30, 20)

    def test_repeated_face_rejected(self):
        cube = catalog.cube()
        faces = list(cube.faces) + [cube.faces[0]]
        with pytest.raises(complexes.ComplexError):
            complexes.build(cube.vertex_count, faces)

    def test_tiny_face_rejected(self):
        with pytest.raises(complexes.ComplexError):
            complexes.build(2, [[0, 1], [1, 0]])

    def test_nontrivalent_rejected(self):
        # square pyramid: apex has degree 4
        faces = [[0, 1, 2, 3], [0, 4, 1], [1, 4, 2], [2, 4, 3], [3, 4, 0]]
        with pytest.raises(complexes.NotTrivalent):
            complexes.build(5, faces)

    @pytest.mark.parametrize("error, vertex_count, faces", [
        (complexes.EulerViolation, 3, [[0, 1, 2], [0, 2, 1]]),
        (complexes.FaceTooSmall, 4, [[0, 1], [0, 1, 2], [1, 2, 3], [0, 2, 3]]),
        (complexes.FacesMeetTwice, 4,
         [[0, 1, 2, 1], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
        # the tetrahedron with face 0 reversed: 0->2 runs through two faces
        (complexes.EdgeNotInTwoFaces, 4,
         [[0, 2, 1], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
        # more vertices than face corners: rejected before any list of
        # vertex_count entries is allocated
        (complexes.NotTrivalent, 10**20,
         [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
    ])
    def test_each_defect_has_its_type(self, error, vertex_count, faces):
        with pytest.raises(error):
            complexes.build(vertex_count, faces)

    def test_counting_identities(self, corpus):
        for ap in corpus:
            assert ap.edge_count == 3 * (ap.face_count - 2)
            assert 3 * ap.vertex_count == 2 * ap.edge_count
            assert ap.face_count - ap.edge_count + ap.vertex_count == 2


class TestDual:
    def test_cube_is_octahedral(self):
        dc = complexes.dual(catalog.cube())
        assert len(dc.adjacency()) == 6
        assert len(dc.triangles) == 8

    def test_dodecahedron_is_icosahedral(self):
        dc = complexes.dual(catalog.dodecahedron())
        assert len(dc.adjacency()) == 12
        assert len(dc.triangles) == 20
        assert all(len(dc.adjacency()[v]) == 5 for v in dc.adjacency())

    def test_triangular_prism_dual_counts(self):
        dc = complexes.dual(catalog.prism(5))
        assert len(dc.adjacency()) == 5
        assert len(dc.triangles) == 6
        assert len(dc.edges) == 9

    def test_round_trip(self, corpus):
        for ap in corpus:
            back = complexes.primal(complexes.dual(ap))
            assert complexes.isomorphic(complexes.dual(back),
                                        complexes.dual(ap)) is not None


class TestCircuits:
    def test_dodecahedron_has_none(self):
        assert complexes.prismatic_circuits(catalog.dodecahedron(), 3) == []

    def test_triangular_prism_has_one(self):
        found = complexes.prismatic_circuits(catalog.prism(5), 3)
        assert len(found) == 1
        (u0, v0, _, _) = catalog.prism(5).edges[found[0].crossed_edges[0]]
        assert u0 != v0

    def test_alternately_truncated_cube_has_four(self):
        found = complexes.prismatic_circuits(
            catalog.alternately_truncated_cube(), 3)
        assert len(found) == 4
        crossed = set()
        for c in found:
            crossed.update(c.crossed_edges)
        assert len(crossed) == 12  # the twelve original cube edges

    def test_matches_brute_force(self, corpus):
        randoms = [complexes.primal(whitehead.random_simple(n, 0))
                   for n in (16, 24, 32)]
        for ap in list(corpus) + randoms:
            for k in (3, 4):
                ours = {(tuple(c.dual_nodes), tuple(c.crossed_edges))
                        for c in complexes.prismatic_circuits(ap, k)}
                oracle = set()
                for cyc, crossed in brute_prismatic(ap, k):
                    oracle.add((cyc, crossed))
                normalized = set()
                for nodes, crossed in ours:
                    rot = min(nodes[i:] + nodes[:i] for i in range(k))
                    rev = tuple(reversed(rot))
                    rot2 = min(rev[i:] + rev[:i] for i in range(k))
                    normalized.add(min(rot, rot2))
                assert normalized == {c for c, _ in oracle}, ap.name

    def test_non_prismatic_3cycles_meet_at_vertex(self, corpus):
        # any dual 3-cycle that fails the distinct-endpoint test bounds
        # a triangle: its three crossed edges share a vertex
        for ap in corpus:
            dc = complexes.dual(ap)
            prisms = {tuple(sorted(c.dual_nodes))
                      for c in complexes.prismatic_circuits(ap, 3)}
            adj = dc.adjacency()
            for a in adj:
                for b in adj[a]:
                    for c in adj[b]:
                        if c <= b or b <= a or a not in adj[c]:
                            continue
                        if (a, b, c) in prisms:
                            continue
                        crossed = [ap.edge_between_faces(x, y)
                                   for x, y in ((a, b), (b, c), (a, c))]
                        shared = set(ap.edges[crossed[0]][:2])
                        for e in crossed[1:]:
                            shared &= set(ap.edges[e][:2])
                        assert len(shared) == 1


def test_separating_4cycles(corpus):
    # every non-prismatic simple 4-cycle of the dual of a simple complex
    # cuts off exactly two vertices
    for ap in corpus:
        if not complexes.is_simple(ap):
            continue
        prismatic = {c for c, _ in brute_prismatic(ap, 4)}
        dc = complexes.dual(ap)
        adj = dc.adjacency()
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
                        # drop chords: simple cycles only
                        if c in adj[a] or d in adj[b]:
                            continue
                        crossed = {ap.edge_between_faces(cyc[i], cyc[(i + 1) % 4])
                                   for i in range(4)}
                        parts = _components_without(ap, crossed)
                        assert len(parts) == 2
                        assert min(len(p) for p in parts) == 2, ap.name


def _components_without(ap, dropped):
    remaining = {}
    for e, (u, v, _, _) in enumerate(ap.edges):
        if e in dropped:
            continue
        remaining.setdefault(u, []).append(v)
        remaining.setdefault(v, []).append(u)
    unseen = set(range(ap.vertex_count))
    parts = []
    while unseen:
        stack = [unseen.pop()]
        comp = set(stack)
        while stack:
            x = stack.pop()
            for y in remaining.get(x, ()):
                if y not in comp:
                    comp.add(y)
                    unseen.discard(y)
                    stack.append(y)
        parts.append(comp)
    return parts


def test_is_simple_flags():
    assert complexes.is_simple(catalog.tetrahedron())
    assert complexes.is_simple(catalog.dodecahedron())
    assert not complexes.is_simple(catalog.prism(5))
    assert not complexes.is_simple(catalog.truncated_tetrahedron())


def test_quadrilateral_contexts():
    assert len(complexes.quadrilateral_contexts(catalog.cube())) == 6
    assert len(complexes.quadrilateral_contexts(catalog.prism(5))) == 3
    assert complexes.quadrilateral_contexts(catalog.dodecahedron()) == []
    for f, boundary, entering in complexes.quadrilateral_contexts(catalog.cube()):
        assert len(boundary) == 4 and len(entering) == 4
        assert len(set(boundary) | set(entering)) == 8


class TestCollapseEdge:
    """collapse_surroundings: what is left around the 4-valent vertex
    that collapsing an edge would make."""

    def check_surroundings(self, ap, edge):
        edges, faces = complexes.collapse_surroundings(ap, edge)
        u, v, fa, fb = ap.edges[edge]
        # The other four edges at the two ends, each between the two
        # faces it separates in the cyclic order fa, fu, fb, fv.
        at_ends = set(ap.vertex_edges(u)) | set(ap.vertex_edges(v))
        assert set(edges) == at_ends - {edge}
        assert faces[0::2] == (fa, fb)
        assert len(set(faces)) == 4
        for i in range(4):
            assert set(ap.edges[edges[i]][2:]) == {faces[i], faces[(i + 1) % 4]}

    def test_cube_collapse(self):
        cube = catalog.cube()
        for edge in range(cube.edge_count):
            self.check_surroundings(cube, edge)

    def test_dodecahedron_collapse(self):
        dodeca = catalog.dodecahedron()
        for edge in range(dodeca.edge_count):
            self.check_surroundings(dodeca, edge)

    def test_prism_refused(self):
        with pytest.raises(complexes.NotSimple):
            complexes.collapse_surroundings(catalog.prism(5), 0)


class TestIsomorphic:
    def test_relabeled_cube(self):
        cube = catalog.cube()
        perm = [3, 0, 4, 1, 6, 2, 7, 5]
        faces = [[perm[v] for v in f] for f in cube.faces]
        other = complexes.build(8, faces)
        assert complexes.isomorphic(complexes.dual(cube),
                                    complexes.dual(other)) is not None

    def test_cube_is_the_six_face_prism(self):
        # both are combinatorial Pr_6; only the labels differ
        assert complexes.isomorphic(
            complexes.dual(catalog.cube()),
            complexes.dual(catalog.prism(6))) is not None

    def test_different_sizes(self):
        assert complexes.isomorphic(
            complexes.dual(catalog.tetrahedron()),
            complexes.dual(catalog.cube())) is None

    def test_same_size_different_type(self):
        d8 = catalog.split_prism_dual(8)
        pr8 = complexes.dual(catalog.prism(8))
        assert complexes.isomorphic(d8, pr8) is None

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_map_is_valid(self, seed):
        for ap in (catalog.truncated_tetrahedron(),
                   complexes.primal(whitehead.random_simple(16, seed))):
            dc = complexes.dual(ap)
            moved = relabelled(ap, seed)
            m = complexes.isomorphic(ap, moved)
            assert m is not None
            assert sorted(m) == sorted(m.values()) == list(range(dc.node_count))
            image = {tuple(sorted(m[x] for x in t)) for t in dc.triangles}
            assert image == complexes.dual(moved).triangle_set

    def test_equal_degrees_not_isomorphic(self):
        a = whitehead.random_simple(10, 0)
        b = whitehead.random_simple(10, 2)
        assert complexes._degrees(a) == complexes._degrees(b)
        assert complexes.isomorphic(a, b) is None

    def test_maps_match_full_traces(self):
        pairs = []
        shapes = catalog.corpus() + [catalog.corner_truncated_cube(),
                                     catalog.corner_doubled_cube()]
        pairs += [(a, b) for a in shapes for b in shapes]
        pairs += [(ap, relabelled(ap, 3)) for ap in shapes]
        for n in range(8, 25):
            ap = complexes.primal(whitehead.random_simple(n, 0))
            pairs += [(ap, relabelled(ap, n)), (relabelled(ap, 1), ap)]
        unlike = 0
        for n in (10, 12, 14):
            duals = [whitehead.random_simple(n, s) for s in range(6)]
            for i, a in enumerate(duals):
                for b in duals[i + 1:]:
                    if complexes._degrees(a) == complexes._degrees(b):
                        pairs.append((a, b))
                        unlike += reference_isomorphic(a, b) is None
        assert unlike >= 3
        for a, b in pairs:
            assert complexes.isomorphic(a, b) == reference_isomorphic(a, b)


def relabelled(ap, seed):
    """ap with its faces renumbered by a seeded random permutation."""
    dc = complexes.dual(ap)
    perm = list(range(dc.node_count))
    random.Random(seed).shuffle(perm)
    return complexes.primal(complexes.DualComplex(
        node_count=dc.node_count,
        triangles=tuple(sorted(tuple(sorted(perm[x] for x in t))
                               for t in dc.triangles))))


def reference_canonical_form(dc):
    """`complexes._canonical_form` without stopping traces early: every
    trace is built in full and the least whole trace wins."""
    rotation = dc.rotation
    least = min(len(cyc) for cyc in rotation.values())
    starts = [a for a in range(dc.node_count) if len(rotation[a]) == least]
    best = best_labels = None
    for chirality in (1, -1):
        rot = {a: (cyc if chirality == 1 else cyc[::-1])
               for a, cyc in rotation.items()}
        pos = {a: {x: i for i, x in enumerate(cyc)} for a, cyc in rot.items()}
        for a in starts:
            for v0 in rot[a]:
                labels, order, entry, trace = {a: 0}, [a], {a: v0}, []
                for cur in order:
                    cyc = rot[cur]
                    i0 = pos[cur][entry[cur]]
                    row = []
                    for j in range(len(cyc)):
                        x = cyc[(i0 + j) % len(cyc)]
                        if x not in labels:
                            labels[x] = len(labels)
                            order.append(x)
                            entry[x] = cur
                        row.append(labels[x])
                    trace.append(tuple(row))
                if best is None or tuple(trace) < best:
                    best, best_labels = tuple(trace), dict(labels)
    return best, best_labels


def reference_isomorphic(a, b):
    da = a if isinstance(a, complexes.DualComplex) else complexes.dual(a)
    db = b if isinstance(b, complexes.DualComplex) else complexes.dual(b)
    if (da.node_count != db.node_count
            or len(da.triangles) != len(db.triangles)
            or complexes._degrees(da) != complexes._degrees(db)):
        return None
    ta, la = reference_canonical_form(da)
    tb, lb = reference_canonical_form(db)
    if ta != tb:
        return None
    inv_b = {lab: node for node, lab in lb.items()}
    return {node: inv_b[lab] for node, lab in la.items()}


def test_json_round_trip():
    ap = catalog.truncated_tetrahedron()
    again = complexes.from_json(complexes.to_json(ap))
    assert again.faces == ap.faces
    assert again.vertex_count == ap.vertex_count

    circuits = complexes.prismatic_circuits(catalog.prism(5), 3)
    data = json.loads(complexes.circuits_to_json(circuits))
    assert data[0]["kind"] == "prismatic3"
    assert len(data[0]["crossed_edges"]) == 3


def test_random_simple_is_simple():
    for seed in range(5):
        dc = whitehead.random_simple(10, seed=seed)
        ap = complexes.primal(dc)
        assert complexes.is_simple(ap)
        assert ap.face_count == 10


def reference_flank_apexes(dc, a, b):
    """The apexes of the two triangles on dual edge {a,b}, by a scan of
    every triangle: how `whitehead.move_on` found them before it read
    the rotation system."""
    apexes = sorted(next(v for v in t if v not in (a, b))
                    for t in dc.triangles if a in t and b in t)
    assert len(apexes) == 2 and apexes[0] != apexes[1]
    return tuple(apexes)


ROTATION_CASES = ([(ap.name, ap) for ap in catalog.corpus()]
                  + [(f"random_simple({n},{n % 5})", (n, n % 5))
                     for n in range(8, 33, 3)])


@pytest.mark.parametrize("name,case", ROTATION_CASES,
                         ids=[name for name, _ in ROTATION_CASES])
def test_rotation_system(name, case):
    dc = (whitehead.random_simple(*case, moves=30) if isinstance(case, tuple)
          else complexes.dual(case))
    adj = dc.adjacency()
    tri = dc.triangle_set
    rotation = dc.rotation
    assert set(rotation) == set(range(dc.node_count))
    for a, cyc in rotation.items():
        assert len(set(cyc)) == len(cyc) and set(cyc) == adj[a]
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            assert tuple(sorted((a, x, y))) in tri

    def turn(a, x, y):
        """(a, x, y) as a cyclic triple when y follows x around a, else
        (a, y, x); rotated to start at its least node."""
        cyc = rotation[a]
        t = (a, x, y) if cyc[(cyc.index(x) + 1) % len(cyc)] == y else (a, y, x)
        i = t.index(min(t))
        return t[i:] + t[:i]

    for a, b, c in dc.triangles:
        assert turn(a, b, c) == turn(b, c, a) == turn(c, a, b)

    for a, b in dc.edges:
        move = whitehead.move_on(dc, a, b)
        assert move.inserted_edge == reference_flank_apexes(dc, a, b)


def reference_prismatic_circuits(ap, k):
    """The enumeration prismatic_circuits ran before it read the dual's
    triangle set: every k-cycle in order of (node set, cycle), kept when
    its crossed primal edges have 2k distinct endpoints.  No cache."""
    cycles = sorted(complexes._simple_cycles(complexes.dual(ap).adjacency(), k),
                    key=lambda c: (tuple(sorted(c)), c))
    out = []
    for cycle in cycles:
        crossed = tuple(ap.edge_between_faces(cycle[i], cycle[(i + 1) % k])
                        for i in range(k))
        ends = {x for e in crossed for x in ap.edges[e][:2]}
        if len(ends) == 2 * k:
            out.append(complexes.Circuit(kind=f"prismatic{k}",
                                         dual_nodes=cycle,
                                         crossed_edges=crossed))
    return out


@functools.lru_cache(maxsize=None)
def random_primal(n, seed):
    name = f"random_simple({n},{seed})"
    return complexes.primal(whitehead.random_simple(n, seed, moves=30),
                            name=name)


def truncated_random(n, seed):
    """random_simple(n, seed) with a seeded third of its vertices cut
    off: a non-simple complex whose new triangles each carry a
    prismatic 3-circuit."""
    ap = random_primal(n, seed)
    cut = random.Random(seed).sample(range(ap.vertex_count), ap.vertex_count // 3)
    return catalog.truncate_vertices(ap, cut, name=f"truncated {ap.name}")


CIRCUIT_CASES = ([(ap.name, lambda ap=ap: ap) for ap in catalog.corpus()]
                 + [(f"random_simple({n},{s})",
                     lambda n=n, s=s: random_primal(n, s))
                    for n in range(8, 41) for s in range(3)]
                 + [(f"truncated random_simple({n},{s})",
                     lambda n=n, s=s: truncated_random(n, s))
                    for n in (10, 16, 22) for s in range(3)])


@pytest.mark.parametrize("name,make", CIRCUIT_CASES,
                         ids=[name for name, _ in CIRCUIT_CASES])
def test_circuits_match_endpoint_count(name, make):
    ap = make()
    for k in (3, 4):
        want = reference_prismatic_circuits(ap, k)
        assert complexes.prismatic_circuits(dataclasses.replace(ap), k) == want
    if name.startswith("truncated"):
        assert not complexes.is_simple(ap)


class TestCircuitCache:
    def test_replace_starts_empty(self):
        ap = catalog.dodecahedron()
        for k in (3, 4):
            complexes.prismatic_circuits(ap, k)
        assert set(vars(ap)["_circuits"]) == {3, 4}
        assert "_circuits" not in vars(dataclasses.replace(ap))

    def test_returned_list_is_a_copy(self):
        ap = catalog.alternately_truncated_cube()
        first = complexes.prismatic_circuits(ap, 3)
        want = list(first)
        first.clear()
        assert complexes.prismatic_circuits(ap, 3) == want != []

    def test_is_simple_enumerates_only_3_circuits(self):
        ap = dataclasses.replace(catalog.dodecahedron())
        assert complexes.is_simple(ap)
        assert set(ap._circuits) == {3}

    def test_bad_k_caches_nothing(self):
        ap = dataclasses.replace(catalog.cube())
        with pytest.raises(ValueError):
            complexes.prismatic_circuits(ap, 5)
        assert "_circuits" not in vars(ap)


@pytest.mark.parametrize("ap", list(catalog.corpus())
                         + [random_primal(n, n % 3) for n in range(8, 33)],
                         ids=lambda ap: ap.name)
def test_edge_index(ap):
    for i, (u, v, _, _) in enumerate(ap.edges):
        assert ap.edge_index(u, v) == ap.edge_index(v, u) == i
    adjacent = {(u, v) for u, v, _, _ in ap.edges}
    far = [(u, v) for u in range(ap.vertex_count)
           for v in range(u + 1, ap.vertex_count) if (u, v) not in adjacent]
    for u, v in far[:1] + [(0, 0), (0, ap.vertex_count)]:
        with pytest.raises(KeyError):
            ap.edge_index(u, v)


def same_cycle(a, b):
    """Whether the sequences a and b are one cycle, read from any start."""
    return len(a) == len(b) and any(
        tuple(a[i:] + a[:i]) == tuple(b) for i in range(len(a)))


@pytest.mark.parametrize("ap", list(catalog.corpus())
                         + [random_primal(n, s) for n in range(8, 33, 4)
                            for s in range(3)],
                         ids=lambda ap: ap.name)
def test_primal_matches_build(ap):
    """primal(dual(ap)) against the face-list validator: build accepts
    its faces and derives the same edges and vertex faces, and its faces
    are ap's, with each vertex renamed to the rank of its sorted face
    triple, all read one way round (the rotation may mirror ap)."""
    again = complexes.primal(complexes.dual(ap))
    ref = complexes.build(again.vertex_count, again.faces)
    assert again.edges == ref.edges
    assert ([again.vertex_faces(v) for v in range(again.vertex_count)]
            == [ref.vertex_faces(v) for v in range(ref.vertex_count)])
    rank = {t: i for i, t in enumerate(sorted(
        ap.vertex_faces(v) for v in range(ap.vertex_count)))}
    renamed = [[rank[ap.vertex_faces(v)] for v in cycle] for cycle in ap.faces]
    forward = [same_cycle(list(c), list(g))
               for c, g in zip(renamed, again.faces)]
    backward = [same_cycle(c[::-1], list(g))
                for c, g in zip(renamed, again.faces)]
    assert all(forward) or all(backward)


def tetrahedron_triangles(a, b, c, d):
    return [tuple(sorted(t)) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]


# The 7-vertex torus (Csaszar's, as a triangulation: Moebius's), the
# 6-vertex real projective plane, two disjoint tetrahedra, two
# tetrahedra sharing node 0, the cube's dual with one node on no
# triangle, and no triangles at all.
PRIMAL_REJECTS = {
    "torus": (complexes.EulerViolation, 7, sorted(
        tuple(sorted((i, (i + 1) % 7, (i + d) % 7)))
        for i in range(7) for d in (3, 5))),
    "rp2": (complexes.ComplexError, 6, sorted(
        tuple(int(x) for x in t) for t in ("012", "023", "034", "045", "015",
                                           "124", "235", "134", "135", "245"))),
    "two_spheres": (complexes.ComplexError, 8,
                    sorted(tetrahedron_triangles(0, 1, 2, 3)
                           + tetrahedron_triangles(4, 5, 6, 7))),
    "wedge": (complexes.ComplexError, 7,
              sorted(tetrahedron_triangles(0, 1, 2, 3)
                     + tetrahedron_triangles(0, 4, 5, 6))),
    "bare_node": (complexes.ComplexError, 7,
                  list(complexes.dual(catalog.cube()).triangles)),
    "empty": (complexes.ComplexError, 0, []),
}


@pytest.mark.parametrize("case", sorted(PRIMAL_REJECTS))
def test_primal_rejects(case):
    error, nodes, triangles = PRIMAL_REJECTS[case]
    dc = complexes.DualComplex(node_count=nodes, triangles=tuple(triangles))
    with pytest.raises(error):
        complexes.primal(dc)


def test_rp2_is_rejected_as_not_orientable():
    _, nodes, triangles = PRIMAL_REJECTS["rp2"]
    dc = complexes.DualComplex(node_count=nodes, triangles=tuple(triangles))
    with pytest.raises(complexes.ComplexError, match="not orientable"):
        dc.rotation


def mutated_triangles(rng, dc):
    """A seeded defect, or none, in dc's triangles: drop, add or relabel
    a triangle, add a node, or glue a second copy on at 0-3 nodes (on 3,
    a connected sum across one triangle of each, which is a sphere)."""
    tris, n = list(dc.triangles), dc.node_count
    kind = rng.choice(["drop", "add", "relabel", "node", "glue"])
    if kind == "drop":
        del tris[rng.randrange(len(tris))]
    elif kind == "add":
        tris.append(tuple(sorted(rng.sample(range(n), 3))))
    elif kind == "relabel":
        i = rng.randrange(len(tris))
        t = list(tris[i])
        t[rng.randrange(3)] = rng.randrange(n)
        tris[i] = tuple(sorted(t))
    elif kind == "node":
        n += 1
    else:
        k = rng.randrange(4)
        other = [tuple(x + n for x in t) for t in tris]
        ta, tb = tris[0], other[rng.randrange(len(other))]
        if k == 3:
            tris.remove(ta)
            other.remove(tb)
        glue = dict(zip(tb[:k], ta[:k]))
        tris += [tuple(sorted(glue.get(x, x) for x in t)) for t in other]
        used = sorted({x for t in tris for x in t})
        rename = {x: i for i, x in enumerate(used)}
        tris = [tuple(rename[x] for x in t) for t in tris]
        n = len(used)
    return n, tris


@pytest.mark.parametrize("seed", range(4))
def test_mutated_triangulations_fail_typed(seed):
    """Whatever a defect does to a triangle set, primal returns a complex
    that build accepts as it is, or raises ComplexError."""
    rng = random.Random(seed)
    sources = [complexes.dual(ap) for ap in catalog.corpus()] + [
        whitehead.random_simple(n, seed, moves=30) for n in (8, 12, 20)]
    accepted = 0
    for _ in range(150):
        n, tris = mutated_triangles(rng, rng.choice(sources))
        try:
            ap = complexes.primal(complexes.DualComplex(
                node_count=n, triangles=tuple(sorted(tris))))
        except complexes.ComplexError:
            continue
        ref = complexes.build(ap.vertex_count, ap.faces)
        assert ap.edges == ref.edges
        accepted += 1
    assert 0 < accepted < 150
