"""Abstract polyhedra: trivalent cell complexes on the sphere.

An abstract polyhedron is given by its faces, each a cyclic vertex list
oriented counterclockwise as seen from outside the sphere.  `build`
checks a face list against the incidence axioms (trivalence, edges on
exactly two faces, faces meeting in at most one edge or vertex, Euler
relation); `primal` makes the complex dual to a triangulation, whose
rotation system proves all of them but the Euler relation.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import (Collection, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)


class ComplexError(ValueError):
    """Base class for cell-complex validation failures."""


class NotTrivalent(ComplexError):
    pass


class EdgeNotInTwoFaces(ComplexError):
    pass


class FacesMeetTwice(ComplexError):
    pass


class FaceTooSmall(ComplexError):
    pass


class EulerViolation(ComplexError):
    pass


class NotSimple(ComplexError):
    pass


class EdgeOnTriangle(ComplexError):
    pass


@dataclass(frozen=True)
class Circuit:
    """A prismatic k-circuit of the dual complex.

    dual_nodes is the cyclic node sequence in canonical rotation
    (lowest node first, then the smaller neighbor).  crossed_edges are
    the primal edge indices crossed by the circuit, in circuit order.
    """

    kind: str
    dual_nodes: Tuple[int, ...]
    crossed_edges: Tuple[int, ...]


@dataclass(frozen=True)
class AbstractPolyhedron:
    """A trivalent cell complex.  `primal` attaches the dual it was
    made from as `_dual`, which `dual` returns; like the cached
    properties it is no field, so `dataclasses.replace` starts without
    it."""

    vertex_count: int
    faces: Tuple[Tuple[int, ...], ...]
    # edges[i] = (u, v, face_a, face_b) with u < v, lexicographic by (u, v)
    edges: Tuple[Tuple[int, int, int, int], ...]
    name: str = "complex"

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        """Index of the edge joining vertices u and v: the one edge on
        both vertices' edge lists.  KeyError when they are not adjacent."""
        incident = self._vertex_edges
        if u != v and 0 <= u < len(incident) and 0 <= v < len(incident):
            for e in incident[u]:
                if e in incident[v]:
                    return e
        raise KeyError((u, v))

    def edge_between_faces(self, a: int, b: int) -> Optional[int]:
        """Index of the primal edge shared by faces a and b, if any."""
        key = (a, b) if a < b else (b, a)
        return self._face_pair_edges.get(key)

    @cached_property
    def _face_pair_edges(self) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for i, (_, _, fa, fb) in enumerate(self.edges):
            out[(fa, fb) if fa < fb else (fb, fa)] = i
        return out

    def vertex_edges(self, v: int) -> Tuple[int, ...]:
        """Indices of the three edges incident to vertex v, ascending."""
        return self._vertex_edges[v]

    @cached_property
    def _vertex_edges(self) -> Tuple[Tuple[int, ...], ...]:
        incident: List[List[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _, _) in enumerate(self.edges):
            incident[u].append(i)
            incident[v].append(i)
        return tuple(tuple(sorted(e)) for e in incident)

    def vertex_faces(self, v: int) -> Tuple[int, ...]:
        """The three faces meeting at v, ascending."""
        return self.vertex_triples[v]

    @cached_property
    def vertex_triples(self) -> Tuple[Tuple[int, ...], ...]:
        """vertex_faces(v) for every vertex v, in vertex order: the
        triangles of the dual."""
        around: List[set] = [set() for _ in range(self.vertex_count)]
        for f, cycle in enumerate(self.faces):
            for v in cycle:
                around[v].add(f)
        return tuple(tuple(sorted(s)) for s in around)

    def face_edge_cycle(self, f: int) -> Tuple[int, ...]:
        """Edge indices along the boundary of face f, in face order.

        Entry i is the edge between faces[f][i] and faces[f][i+1].
        """
        cycle = self.faces[f]
        n = len(cycle)
        return tuple(self.edge_index(cycle[i], cycle[(i + 1) % n]) for i in range(n))

    @cached_property
    def _circuits(self) -> Dict[int, Tuple[Circuit, ...]]:
        """prismatic_circuits(self, k) by k, filled on first request.

        Not a dataclass field, so dataclasses.replace starts empty."""
        return {}


@dataclass(frozen=True)
class DualComplex:
    """Simplicial triangulation dual to an abstract polyhedron.

    Nodes are the faces of the primal, triangles its vertices.  Edges are
    derived node pairs; when built from a primal they carry its edge index.
    """

    node_count: int
    triangles: Tuple[Tuple[int, int, int], ...]  # each sorted ascending

    def __post_init__(self):
        seen = set()
        for t in self.triangles:
            if len(set(t)) != 3 or tuple(sorted(t)) != tuple(t):
                raise ComplexError("triangles must be sorted triples of distinct nodes")
            if t in seen:
                raise ComplexError("repeated triangle")
            seen.add(t)
            for x in t:
                if not 0 <= x < self.node_count:
                    raise ComplexError("triangle node out of range")

    @cached_property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        es = set()
        for a, b, c in self.triangles:
            es.update({(a, b), (a, c), (b, c)})
        return tuple(sorted(es))

    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        return self._adjacency

    @cached_property
    def _adjacency(self) -> Dict[int, FrozenSet[int]]:
        adj: Dict[int, set] = {i: set() for i in range(self.node_count)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {i: frozenset(nbrs) for i, nbrs in adj.items()}

    @property
    def triangle_set(self) -> FrozenSet[Tuple[int, int, int]]:
        return frozenset(self.triangles)

    @cached_property
    def rotation(self) -> Dict[int, Tuple[int, ...]]:
        """Globally consistent rotation system: every node's link cycle,
        with one orientation for all of them.

        Triangle orientations are propagated from triangle 0 across
        shared edges, then each node's link cycle is ordered by the
        successor rule of its oriented triangles, starting at its least
        neighbor; so triangle 0, (p, q, r) ascending, turns from q to r
        around p.  Raises ComplexError when a dual edge does not lie on
        exactly two triangles, two triangles run their shared edge the
        same way (the surface is not orientable), the triangles are not
        connected, a node lies on no triangle, or a link is more than one
        cycle.
        """
        tri = list(self.triangles)
        if not tri:
            raise ComplexError("no triangles")
        by_edge: Dict[Tuple[int, int], List[int]] = {}
        for i, (a, b, c) in enumerate(tri):
            for e in ((a, b), (a, c), (b, c)):
                by_edge.setdefault(e, []).append(i)
        for e, ts in by_edge.items():
            if len(ts) != 2:
                raise ComplexError(f"dual edge {e} lies on {len(ts)} triangles")

        orient: Dict[int, Tuple[int, int, int]] = {0: tri[0]}
        stack = [0]
        while stack:
            i = stack.pop()
            a, b, c = orient[i]
            for u, v in ((a, b), (b, c), (c, a)):
                e = (u, v) if u < v else (v, u)
                j = by_edge[e][0] if by_edge[e][0] != i else by_edge[e][1]
                if j in orient:
                    p, q, r = orient[j]
                    if (v, u) not in ((p, q), (q, r), (r, p)):
                        raise ComplexError("triangulation is not orientable")
                    continue
                w = next(x for x in tri[j] if x not in (u, v))
                orient[j] = (v, u, w)  # shared edge reversed in the neighbor
                stack.append(j)
        if len(orient) != len(tri):
            raise ComplexError("triangle adjacency graph is disconnected")

        succ: Dict[int, Dict[int, int]] = {n: {} for n in range(self.node_count)}
        for a, b, c in orient.values():
            succ[a][b] = c
            succ[b][c] = a
            succ[c][a] = b
        rotation = {}
        for n in range(self.node_count):
            if not succ[n]:
                raise ComplexError(f"node {n} lies on no triangle")
            start = min(succ[n])
            cycle = [start]
            while True:
                nxt = succ[n][cycle[-1]]
                if nxt == start:
                    break
                cycle.append(nxt)
            # Oriented consistently, succ[n] permutes n's neighbours.
            if len(cycle) != len(succ[n]):
                raise ComplexError(f"rotation at node {n} misses neighbors")
            rotation[n] = tuple(cycle)
        return rotation

    def flip(self, a: int, b: int, x: int, y: int) -> "DualComplex":
        """This complex with its edge ab, on the triangles abx and aby,
        replaced by the edge xy, on axy and bxy.  Raises ComplexError
        unless abx and aby are two triangles and xy is no edge.

        Nothing is rebuilt: the sorted triangles and edges lose and gain
        two triangles and one edge, the adjacency and rotation change at
        a, b, x and y only.  Removing b from a's link (and a from b's)
        and putting y between a and b in x's link (x in y's) keeps the
        rotation consistent; if the new triangle 0 turns the other way,
        every cycle is reversed.  A flip of a sphere triangulation is
        one, so none of __post_init__'s checks is repeated.
        """
        tris = list(self.triangles)
        for t in (a, b, x), (a, b, y):
            t = tuple(sorted(t))
            i = bisect_left(tris, t)
            if tris[i:i + 1] != [t]:
                raise ComplexError(f"no triangle {t} to flip")
            del tris[i]
        if y in self._adjacency[x]:
            raise ComplexError(f"flip target {{{x},{y}}} is already an edge")
        for t in (a, x, y), (b, x, y):
            insort(tris, tuple(sorted(t)))
        edges = list(self.edges)
        del edges[bisect_left(edges, (a, b) if a < b else (b, a))]
        insort(edges, (x, y) if x < y else (y, x))
        adj = dict(self._adjacency)
        adj[a], adj[b] = adj[a] - {b}, adj[b] - {a}
        adj[x], adj[y] = adj[x] | {y}, adj[y] | {x}
        rot = dict(self.rotation)
        rot[a] = _least_first([n for n in rot[a] if n != b])
        rot[b] = _least_first([n for n in rot[b] if n != a])
        rot[x] = _inserted_between(rot[x], a, b, y)
        rot[y] = _inserted_between(rot[y], a, b, x)
        p, q, r = tris[0]
        cyc = rot[p]
        if cyc[(cyc.index(q) + 1) % len(cyc)] != r:
            rot = {n: c[:1] + c[:0:-1] for n, c in rot.items()}
        out = object.__new__(DualComplex)
        out.__dict__.update(node_count=self.node_count, triangles=tuple(tris),
                            edges=tuple(edges), _adjacency=adj, rotation=rot)
        return out


def _least_first(cycle: List[int]) -> Tuple[int, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _inserted_between(cycle: Tuple[int, ...], a: int, b: int,
                      new: int) -> Tuple[int, ...]:
    """The cycle with `new` put between its neighbouring entries a and b."""
    i, j = cycle.index(a), cycle.index(b)
    at = max(i, j) if abs(i - j) == 1 else 0    # 0: the pair wraps around
    return _least_first(list(cycle[:at]) + [new] + list(cycle[at:]))


def build(vertex_count: int, faces: Sequence[Sequence[int]], name: str = "complex") -> AbstractPolyhedron:
    """Validate the incidence axioms of a face list and return the
    derived complex.

    Faces must be cyclic vertex lists oriented consistently (each edge
    traversed once in each direction across the two incident faces).
    """
    faces_t = tuple(tuple(int(v) for v in f) for f in faces)
    n_faces = len(faces_t)
    if n_faces <= 3:
        raise EulerViolation(f"need at least 4 faces, got {n_faces}")
    for f, cycle in enumerate(faces_t):
        if len(cycle) < 3:
            raise FaceTooSmall(f"face {f} has {len(cycle)} edges")
        if len(set(cycle)) != len(cycle):
            raise FacesMeetTwice(f"face {f} repeats a vertex")
        for v in cycle:
            if not 0 <= v < vertex_count:
                raise ComplexError(f"face {f} references vertex {v} out of range")

    # Directed edge sweep.  Each undirected edge must be traversed exactly
    # once in each direction, which also certifies consistent orientation.
    directed: Dict[Tuple[int, int], int] = {}
    for f, cycle in enumerate(faces_t):
        n = len(cycle)
        for i in range(n):
            u, v = cycle[i], cycle[(i + 1) % n]
            if (u, v) in directed:
                raise EdgeNotInTwoFaces(
                    f"directed edge {u}->{v} appears in faces {directed[(u, v)]} and {f}")
            directed[(u, v)] = f

    edge_faces: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for (u, v), f in directed.items():
        if u < v:
            if (v, u) not in directed:
                raise EdgeNotInTwoFaces(f"edge {{{u},{v}}} traversed only one way")
            edge_faces[(u, v)] = (f, directed[(v, u)])

    edges = tuple((u, v, fa, fb) for (u, v), (fa, fb) in sorted(edge_faces.items()))

    # Trivalence: every vertex on exactly 3 edges and 3 faces.  A vertex
    # count above the number of corners leaves some vertex on no face;
    # reject it before any per-vertex list is allocated.
    corners = sum(len(c) for c in faces_t)
    if vertex_count > corners:
        raise NotTrivalent(
            f"{vertex_count} vertices but only {corners} face corners")
    degree = [0] * vertex_count
    for u, v, _, _ in edges:
        degree[u] += 1
        degree[v] += 1
    for v, d in enumerate(degree):
        if d != 3:
            raise NotTrivalent(f"vertex {v} has degree {d}")

    # At a trivalent vertex each two of its three faces share one of its
    # edges.  So two faces that share two vertices share an edge at each:
    # the one edge joining them, or two edges, which is rejected here.
    shared = set()
    for fa, fb in edge_faces.values():
        key = (fa, fb) if fa < fb else (fb, fa)
        if key in shared:
            raise FacesMeetTwice(f"faces {key[0]} and {key[1]} share two edges")
        shared.add(key)

    # With 2E = 3V this also gives E = 3(N-2).
    n_edges = len(edges)
    if vertex_count - n_edges + n_faces != 2:
        raise EulerViolation(
            f"V-E+F = {vertex_count}-{n_edges}+{n_faces} != 2")

    # Dual (face-adjacency) graph must be connected for a sphere complex.
    ap = AbstractPolyhedron(vertex_count=vertex_count, faces=faces_t,
                            edges=edges, name=name)
    adj = face_adjacency(ap)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n_faces:
        raise EulerViolation("face adjacency graph is disconnected")
    return ap


def face_adjacency(ap: AbstractPolyhedron) -> Tuple[FrozenSet[int], ...]:
    """Entry f: the faces sharing an edge with face f.  This is the
    adjacency of dual(ap), read off ap's edges without building it."""
    adj: List[set] = [set() for _ in range(ap.face_count)]
    for _, _, fa, fb in ap.edges:
        adj[fa].add(fb)
        adj[fb].add(fa)
    return tuple(map(frozenset, adj))


def dual(ap: AbstractPolyhedron) -> DualComplex:
    """Dual triangulation: one node per face, one triangle per vertex.

    A complex made by `primal` (so also by `flipped`) from a dual with
    sorted triangles returns that dual, which is what dualizing it
    gives; any other is dualized anew on every call."""
    attached = ap.__dict__.get("_dual")
    if attached is not None:
        return attached
    triangles = tuple(sorted(ap.vertex_triples))
    return DualComplex(node_count=ap.face_count, triangles=triangles)


def primal(dc: DualComplex, name: str = "complex") -> AbstractPolyhedron:
    """The abstract polyhedron whose dual is dc.

    Primal vertices are the dual triangles in lexicographic order; face
    n runs through the triangles at n in the order of n's rotation
    cycle; the edges come from one sweep of the faces' directed sides.
    A rotation that propagates proves every axiom `build` checks but the
    Euler relation: each link is one cycle of distinct triangles, each
    dual edge ab the one primal edge of faces a and b, run once each
    way, and the faces are connected."""
    triangles = sorted(dc.triangles)
    rotation = dc.rotation
    tri_ids = {t: i for i, t in enumerate(triangles)}
    faces = []
    for n in range(dc.node_count):
        cyc = rotation[n]
        k = len(cyc)
        faces.append(tuple(
            tri_ids[tuple(sorted((n, cyc[i], cyc[(i + 1) % k])))]
            for i in range(k)))
    side: Dict[Tuple[int, int], int] = {}
    for f, cycle in enumerate(faces):
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            side[(u, v)] = f
    edges = tuple(sorted([(u, v, f, side[(v, u)])
                          for (u, v), f in side.items() if u < v]))
    if len(triangles) - len(edges) + len(faces) != 2:
        raise EulerViolation(f"V-E+F = {len(triangles)}-{len(edges)}"
                             f"+{len(faces)} != 2")
    ap = AbstractPolyhedron(vertex_count=len(triangles), faces=tuple(faces),
                            edges=edges, name=name)
    ap.__dict__["vertex_triples"] = tuple(triangles)
    if list(dc.triangles) == triangles:
        ap.__dict__["_dual"] = dc
    return ap


def flip_keeps_simple(after: DualComplex, a: int, b: int, x: int,
                      y: int) -> bool:
    """Whether `after`, the flip of a simple complex's edge ab to xy, is
    simple: every 3-cycle through xy is a triangle.  Every 3-cycle a
    flip creates uses xy, and the only triangles on xy are axy and bxy;
    so that holds exactly when a and b are the only common neighbours of
    x and y."""
    adj = after.adjacency()
    return adj[x] & adj[y] == {a, b}


def flipped(ap: AbstractPolyhedron, a: int, b: int, x: int,
            y: int) -> AbstractPolyhedron:
    """ap after the Whitehead move that replaces its dual edge ab, on the
    triangles abx and aby, by xy: `primal` of dual(ap).flip(a, b, x, y),
    named as ap.  The flip keeps its triangles sorted, so the flipped
    dual is attached; and when ap is simple and flip_keeps_simple holds
    the 3-circuit cache starts empty, so it is not scanned again."""
    dc = dual(ap).flip(a, b, x, y)
    out = primal(dc, name=ap.name)
    if flip_keeps_simple(dc, a, b, x, y) and is_simple(ap):
        out._circuits[3] = ()
    return out


def _simple_cycles(adj: Sequence[Collection[int]],
                   k: int) -> List[Tuple[int, ...]]:
    """All simple k-cycles, k in {3,4}, canonical, in no particular
    order, of the graph on nodes 0..len(adj)-1 whose node a has the
    neighbours adj[a].

    A canonical cycle starts at its least node, followed by the smaller of
    that node's two cycle neighbors.  A 4-cycle is found from its least
    node a and the node c opposite it:
    every pair of common neighbors b < d of a and c, both above a, closes
    the cycle (a, b, c, d), so the scan costs the sum of squared degrees.
    """
    found = []
    nodes = range(len(adj))
    if k == 3:
        for a in nodes:
            for b in adj[a]:
                if b <= a:
                    continue
                for c in adj[b]:
                    if c > b and c in adj[a]:
                        found.append((a, b, c))
    elif k == 4:
        for a in nodes:
            mids: Dict[int, List[int]] = {}
            for b in adj[a]:
                if b > a:
                    for c in adj[b]:
                        if c > a:
                            mids.setdefault(c, []).append(b)
            for c, bs in mids.items():
                bs.sort()
                for i, b in enumerate(bs):
                    for d in bs[i + 1:]:
                        found.append((a, b, c, d))
    else:
        raise ValueError("k must be 3 or 4")
    return found


def prismatic_circuits(ap: AbstractPolyhedron, k: int) -> List[Circuit]:
    """Prismatic k-circuits, k in {3,4}: k-cycles of the dual whose
    crossed primal edges have pairwise distinct endpoints (2k vertices in
    all), sorted by node set, then by cycle.

    The edge crossed between dual nodes a and b has as endpoints the two
    dual triangles on ab.  So the edges crossed at a, b and at b, c share
    an endpoint exactly when abc is a dual triangle, and the opposite
    edges of a 4-cycle never do: a cycle is prismatic iff no three
    cyclically consecutive nodes span a triangle of the dual.  A 3-cycle
    is prismatic iff it is not itself a triangle.

    The dual is read off the complex itself, and none is built: its
    edges are face_adjacency(ap), and its triangles the face triples at
    each vertex.  The circuits are enumerated once per complex object
    and k, cached on the complex; each call returns a new list.
    """
    if k not in (3, 4):
        raise ValueError("k must be 3 or 4")
    cached = ap._circuits.get(k)
    if cached is None:
        adj = face_adjacency(ap)
        tris = set(ap.vertex_triples)
        if k == 3:
            kept = [c for c in _simple_cycles(adj, 3) if c not in tris]
        else:
            # The four consecutive triples of (a, b, c, d), each sorted;
            # a is the least node and b < d.
            kept = [(a, b, c, d) for a, b, c, d in _simple_cycles(adj, 4)
                    if (a, b, d) not in tris
                    and ((a, b, c) if b < c else (a, c, b)) not in tris
                    and ((a, c, d) if c < d else (a, d, c)) not in tris
                    and ((c, b, d) if c < b else (b, c, d) if c < d
                         else (b, d, c)) not in tris]
        kept.sort(key=lambda c: (tuple(sorted(c)), c))
        kind = f"prismatic{k}"
        edge = ap.edge_between_faces
        cached = ap._circuits[k] = tuple(
            Circuit(kind=kind, dual_nodes=c,
                    crossed_edges=tuple(edge(c[i], c[(i + 1) % k])
                                        for i in range(k)))
            for c in kept)
    return list(cached)


def is_simple(ap: AbstractPolyhedron) -> bool:
    return not prismatic_circuits(ap, 3)


def quadrilateral_contexts(ap: AbstractPolyhedron):
    """Per 4-sided face: (face, boundary edges e1..e4, entering edges
    e12, e23, e34, e41).  The entering edge e_{i,i+1} is the third edge
    at the vertex shared by boundary edges e_i and e_{i+1}."""
    out = []
    for f, cycle in enumerate(ap.faces):
        if len(cycle) != 4:
            continue
        boundary = list(ap.face_edge_cycle(f))
        entering = []
        for i in range(4):
            corner = cycle[(i + 1) % 4]  # shared by boundary[i], boundary[i+1]
            third = [e for e in ap.vertex_edges(corner)
                     if e not in (boundary[i], boundary[(i + 1) % 4])]
            entering.append(third[0])
        out.append((f, tuple(boundary), tuple(entering)))
    return out


def collapse_surroundings(ap: AbstractPolyhedron, edge: int) -> Tuple[
        Tuple[int, int, int, int], Tuple[int, int, int, int]]:
    """The four edges and the four faces around the 4-valent vertex that
    collapsing `edge` to a point would make, in cyclic order.  Raises
    NotSimple unless ap is simple, EdgeOnTriangle when a face at the
    edge is a triangle."""
    if not is_simple(ap):
        raise NotSimple("edge collapse requires a simple complex")
    u, v, fa, fb = ap.edges[edge]
    for f in set(ap.vertex_faces(u)) | set(ap.vertex_faces(v)):
        if len(ap.faces[f]) == 3:
            raise EdgeOnTriangle(f"face {f} incident to edge {edge} is a triangle")

    fu = next(f for f in ap.vertex_faces(u) if f not in (fa, fb))
    fv = next(f for f in ap.vertex_faces(v) if f not in (fa, fb))
    # Cyclic order around the merged vertex: e1 (on fa), e2, e3 (on fb), e4,
    # with faces fa, fu, fb, fv between consecutive edges.  The other two
    # edges at u lie between fu and fa or fb, those at v between fv and
    # fb or fa.
    pair = ap.edge_between_faces
    return ((pair(fa, fu), pair(fu, fb), pair(fb, fv), pair(fv, fa)),
            (fa, fu, fb, fv))


def _canonical_form(dc: DualComplex):
    """Canonical trace of the rotation system, with the labeling achieving
    it.  Two duals are isomorphic iff their traces are equal.

    A trace opens with the row (1, ..., deg a) of its start node a, so the
    least trace starts at a node of least degree; only those are tried.
    Traces are compared row by row as they grow: one is abandoned at its
    first row above the same row of the best trace so far, and after its
    first row below it the rest is built without comparing.  That finds
    the same least trace, and the same first labeling reaching it, as
    comparing whole traces.
    """
    rotation = dc.rotation
    n = dc.node_count
    least = min(len(cyc) for cyc in rotation.values())
    starts = [a for a in range(n) if len(rotation[a]) == least]
    best = None
    best_labels = None
    for chirality in (1, -1):
        rot = {a: (cyc if chirality == 1 else cyc[::-1]) for a, cyc in rotation.items()}
        pos = {a: {x: i for i, x in enumerate(cyc)} for a, cyc in rot.items()}
        for a in starts:
            for v0 in rot[a]:
                labels = {a: 0}
                order = [a]
                entry = {a: v0}
                trace = []
                tied = best is not None  # equal to best so far
                for cur in order:
                    cyc = rot[cur]
                    i0 = pos[cur][entry[cur]]
                    ring = [cyc[(i0 + j) % len(cyc)] for j in range(len(cyc))]
                    row = []
                    for x in ring:
                        if x not in labels:
                            labels[x] = len(labels)
                            order.append(x)
                            entry[x] = cur
                        row.append(labels[x])
                    row = tuple(row)
                    if tied:
                        other = best[len(trace)]
                        if row > other:
                            break
                        tied = row == other
                    trace.append(row)
                else:
                    if not tied:
                        best = tuple(trace)
                        best_labels = labels
    return best, best_labels


def _degrees(dc: DualComplex) -> List[int]:
    """The sorted degree sequence of the dual graph."""
    deg = [0] * dc.node_count
    for a, b in dc.edges:
        deg[a] += 1
        deg[b] += 1
    return sorted(deg)


def isomorphic(a, b) -> Optional[Dict[int, int]]:
    """Incidence-preserving relabeling between two complexes, or None.

    Accepts abstract polyhedra or dual complexes; the returned map is on
    dual nodes, which for primal inputs means faces.
    """
    da = a if isinstance(a, DualComplex) else dual(a)
    db = b if isinstance(b, DualComplex) else dual(b)
    if da.node_count != db.node_count or len(da.triangles) != len(db.triangles):
        return None
    if _degrees(da) != _degrees(db):
        return None
    ta, la = _canonical_form(da)
    tb, lb = _canonical_form(db)
    if ta != tb:
        return None
    inv_b = {lab: node for node, lab in lb.items()}
    return {node: inv_b[lab] for node, lab in la.items()}


# JSON interfaces

def to_json(ap: AbstractPolyhedron) -> str:
    return json.dumps(
        {"name": ap.name, "vertex_count": ap.vertex_count,
         "faces": [list(f) for f in ap.faces]},
        indent=2) + "\n"


def from_json(text: str) -> AbstractPolyhedron:
    """Read the format of to_json; ValueError on any other shape."""
    data = json.loads(text)
    if not isinstance(data, dict):
        data = {}
    count, faces = data.get("vertex_count"), data.get("faces")
    whole = lambda x: isinstance(x, int) and not isinstance(x, bool)
    if not (whole(count) and isinstance(faces, list)
            and all(isinstance(f, list) and all(map(whole, f)) for f in faces)):
        raise ValueError('expected {"vertex_count": int, '
                         '"faces": [[int, ...], ...]}')
    return build(count, faces, name=str(data.get("name", "complex")))


def circuits_to_json(circuits: Sequence[Circuit]) -> str:
    return json.dumps(
        [{"kind": c.kind, "dual_nodes": list(c.dual_nodes),
          "crossed_edges": list(c.crossed_edges)} for c in circuits],
        indent=2) + "\n"


def dual_to_json_dict(dc: DualComplex) -> dict:
    return {"node_count": dc.node_count, "triangles": [list(t) for t in dc.triangles]}


def dual_from_json_dict(data: dict) -> DualComplex:
    return DualComplex(node_count=int(data["node_count"]),
                       triangles=tuple(tuple(sorted(t)) for t in data["triangles"]))
