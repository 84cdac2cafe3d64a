"""Whitehead moves on dual complexes and the certified reduction of a
simple complex to the split prism.

A Whitehead move removes a dual edge AB flanked by triangles ABX and
ABY and inserts the edge XY, replacing those triangles with AXY and
BXY.  The reduction grows the outer polygon around a fixed apex node
one vertex per episode until only two interior nodes remain.

Every triangle that survives a move is still a triangle and XY is its
only new edge, so a move keeps a simple complex simple exactly when
every 3-cycle through XY is a triangle of the moved complex
(`complexes.flip_keeps_simple`).  That one check certifies each move of
the reduction and of `random_simple`; the reduction's end is certified
by relabeling it exactly onto `catalog.split_prism_dual(n)`
(`split_prism_labels`).
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog, complexes
from .complexes import AbstractPolyhedron, DualComplex


class WhiteheadError(ValueError):
    pass


class EdgeMissing(WhiteheadError):
    pass


class TargetEdgeExists(WhiteheadError):
    pass


class IsPrism(WhiteheadError):
    pass


class TooSmall(WhiteheadError):
    pass


class InternalInvariantBroken(RuntimeError):
    pass


@dataclass(frozen=True)
class WhiteheadMove:
    removed_edge: Tuple[int, int]
    inserted_edge: Tuple[int, int]

    def inverse(self) -> "WhiteheadMove":
        return WhiteheadMove(self.inserted_edge, self.removed_edge)


def _flank_apexes(dc: DualComplex, a: int, b: int) -> Tuple[int, int]:
    """The apexes x < y of the two triangles on dual edge {a,b}: the
    neighbors of b in the rotation around a."""
    if b not in dc.adjacency().get(a, ()):
        lo, hi = (a, b) if a < b else (b, a)
        raise EdgeMissing(f"no dual edge {{{lo},{hi}}}")
    cyc = dc.rotation[a]
    i = cyc.index(b)
    x, y = cyc[i - 1], cyc[(i + 1) % len(cyc)]
    return (x, y) if x < y else (y, x)


def move_on(dc: DualComplex, a: int, b: int) -> WhiteheadMove:
    """The Whitehead move removing dual edge {a,b} of this complex."""
    x, y = _flank_apexes(dc, a, b)
    lo, hi = (a, b) if a < b else (b, a)
    return WhiteheadMove((lo, hi), (x, y))


def _check_move(dc: DualComplex, move: WhiteheadMove) -> None:
    """Raise the WhiteheadError that names why `move` is no flip of dc:
    its removed edge is missing, the triangles on it do not have the
    inserted edge's ends as apexes, or the inserted edge is present."""
    a, b = move.removed_edge
    x, y = _flank_apexes(dc, a, b)
    if (min(x, y), max(x, y)) != tuple(sorted(move.inserted_edge)):
        raise EdgeMissing(
            f"move inserts {move.inserted_edge} but flanks give {{{x},{y}}}")
    if y in dc.adjacency()[x]:
        raise TargetEdgeExists(f"dual edge {{{x},{y}}} already present")


def apply_move(dc: DualComplex, move: WhiteheadMove) -> DualComplex:
    """The moved complex, patched from dc at the move's four nodes by
    `DualComplex.flip`: no triangle, edge or link cycle is rebuilt.
    flip checks the move; a refused one is named by _check_move."""
    try:
        return dc.flip(*move.removed_edge, *move.inserted_edge)
    except complexes.ComplexError:
        _check_move(dc, move)
        raise


def primal_after(ap: AbstractPolyhedron,
                 move: WhiteheadMove) -> AbstractPolyhedron:
    """The complex ap after `move`, by `complexes.flipped`: the primal
    of ap's flipped dual, named as ap; a refused move is named as
    apply_move names it."""
    try:
        return complexes.flipped(ap, *move.removed_edge, *move.inserted_edge)
    except complexes.ComplexError:
        _check_move(complexes.dual(ap), move)
        raise


@dataclass(frozen=True)
class OuterPolygonView:
    """The dual complex seen from a fixed apex node.

    polygon is the apex's link in canonical rotation (lowest node
    first, toward its smaller neighbor).  components[v] lists, for each
    interior node v, the maximal arcs of polygon nodes in v's link,
    each ordered along the polygon.
    """

    v_infty: int
    polygon: Tuple[int, ...]
    interior: Tuple[int, ...]
    components: Dict[int, Tuple[Tuple[int, ...], ...]]
    endpoints: Tuple[int, ...]


def outer_view(dc: DualComplex, v_infty: Optional[int] = None) -> OuterPolygonView:
    n = dc.node_count
    if n <= 7:
        raise TooSmall(f"{n} faces, need more than 7")
    adj = dc.adjacency()
    if v_infty is None:
        v_infty = max(range(n), key=lambda v: (len(adj[v]), -v))

    links = dc.rotation
    link = links[v_infty]
    if len(link) == n - 2:
        raise IsPrism("outer polygon has length N-2")

    # Canonical rotation of the polygon.
    start = link.index(min(link))
    link = link[start:] + link[:start]
    if link[-1] < link[1]:
        link = link[:1] + link[:0:-1]
    polygon = link
    on_p = set(polygon)
    pos = {v: i for i, v in enumerate(polygon)}
    k = len(polygon)

    interior = tuple(v for v in range(n) if v != v_infty and v not in on_p)
    interior_set = set(interior)

    components: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    for v in interior:
        cyc = links[v]
        m = len(cyc)
        runs: List[List[int]] = []
        if all(u in on_p for u in cyc):
            raise InternalInvariantBroken(
                "interior node with link entirely on the polygon")
        # Start the scan at a non-polygon link node so runs do not wrap.
        s = next(i for i, u in enumerate(cyc) if u not in on_p)
        cur: List[int] = []
        for i in range(m):
            u = cyc[(s + i) % m]
            if u in on_p:
                cur.append(u)
            elif cur:
                runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        arcs = []
        for run in runs:
            idx = {pos[u] for u in run}
            if len(idx) == k:
                raise InternalInvariantBroken(
                    "link component covers the whole polygon")
            head = next(i for i in idx if (i - 1) % k not in idx)
            arc = [polygon[(head + j) % k] for j in range(len(run))]
            if set(arc) != set(run):
                raise InternalInvariantBroken(
                    "link component is not a polygon arc")
            arcs.append(tuple(arc))
        arcs.sort(key=lambda a: pos[a[0]])
        components[v] = tuple(arcs)

    endpoints = tuple(v for v in interior
                      if sum(1 for u in adj[v] if u in interior_set) == 1)
    for v in endpoints:
        comps = components[v]
        if len(comps) != 1 or len(comps[0]) < 3:
            raise InternalInvariantBroken(
                f"endpoint {v} connected to the polygon in {comps}")
    return OuterPolygonView(v_infty, polygon, interior, components, endpoints)


@dataclass(frozen=True)
class ReductionTrace:
    start: DualComplex
    moves: Tuple[WhiteheadMove, ...]
    end: DualComplex


class _Reducer:
    def __init__(self, dc: DualComplex):
        self.current = dc
        self.moves: List[WhiteheadMove] = []
        self.seen = {dc.triangles}

    def do(self, a: int, b: int) -> WhiteheadMove:
        move = move_on(self.current, a, b)
        after = apply_move(self.current, move)
        if not complexes.flip_keeps_simple(after, *move.removed_edge,
                                           *move.inserted_edge):
            raise InternalInvariantBroken(
                f"move {move} created a non-facial 3-cycle")
        if after.triangles in self.seen:
            raise InternalInvariantBroken("reduction revisited a complex")
        self.seen.add(after.triangles)
        self.moves.append(move)
        self.current = after
        return move


def _trim_component(red: _Reducer, a: int, arc: Sequence[int],
                    keep: int) -> None:
    """Whitehead moves removing a's connections to the arc's tail until
    only the first `keep` nodes remain, trimming from the far end."""
    arc = list(arc)
    while len(arc) > keep:
        red.do(a, arc[-1])
        arc.pop()


def _strip_other_components(red: _Reducer, v_infty: int, a: int,
                            kept: set) -> None:
    """Remove a's connections to every polygon component disjoint from
    `kept`; a stays connected to at least two polygon nodes in kept."""
    while True:
        view = outer_view(red.current, v_infty)
        target = next((arc for arc in view.components[a]
                       if not (set(arc) & kept)), None)
        if target is None:
            return
        if len(target) > 2:
            _trim_component(red, a, target, 2)
        elif len(target) == 2:
            red.do(a, target[1])
        else:
            red.do(a, target[0])


def _grow_episode(red: _Reducer, v_infty: int) -> None:
    """One episode: Whitehead moves that lengthen the outer polygon by
    exactly one, dispatching on the three shapes the interior can take."""
    view = outer_view(red.current, v_infty)
    k = len(view.polygon)

    wide = [v for v in view.interior if v not in view.endpoints
            and any(len(arc) >= 2 for arc in view.components[v])]
    if wide:
        a = min(wide)
        arc = next(arc for arc in view.components[a] if len(arc) >= 2)
        _trim_component(red, a, arc, 2)
        _strip_other_components(red, v_infty, a, set(arc[:2]))
        red.do(arc[0], arc[1])
    elif any(len(view.components[v][0]) > 3 for v in view.endpoints):
        # Borrow one connection from the endpoint for its interior
        # neighbor, which then has a two-node component.
        a = min(v for v in view.endpoints if len(view.components[v][0]) > 3)
        arc = view.components[a][0]
        red.do(a, arc[-1])
        _grow_episode(red, v_infty)
        return
    else:
        _case3(red, v_infty, view)

    after = outer_view(red.current, v_infty)
    if len(after.polygon) != k + 1:
        raise InternalInvariantBroken("episode did not lengthen the polygon")


def _case3(red: _Reducer, v_infty: int, view: OuterPolygonView) -> None:
    """Endpoints all touch exactly three polygon nodes and every other
    interior node touches the polygon in single nodes only.  Walk the
    chain from an endpoint to the first branching interior node and
    rotate the whole chain past the polygon."""
    adj = red.current.adjacency()
    interior_set = set(view.interior)
    if not view.endpoints:
        raise InternalInvariantBroken("no endpoint in a branching interior")
    i1 = min(view.endpoints)
    arc = view.components[i1][0]
    p2 = arc[1]
    p1, p3 = (arc[0], arc[2]) if arc[0] < arc[2] else (arc[2], arc[0])

    chain = [i1]
    prev, cur = None, i1
    while True:
        nbrs = [u for u in adj[cur] if u in interior_set and u != prev]
        if cur != i1 and len([u for u in adj[cur] if u in interior_set]) > 2:
            break
        if len(nbrs) != 1:
            raise InternalInvariantBroken(
                "interior graph is a segment; complex should be a prism")
        prev, cur = cur, nbrs[0]
        chain.append(cur)
    im = chain[-1]

    _strip_other_components(red, v_infty, im, {p1, p3})
    red.do(im, p3)
    for ik in chain[-2::-1]:
        red.do(ik, p1)
    red.do(p1, p2)


def reduce_to_dn(dc: DualComplex) -> ReductionTrace:
    """Reduce a simple non-prism complex with more than 7 faces to the
    split prism by Whitehead moves, never passing through a complex
    with a prismatic 3-circuit."""
    n = dc.node_count
    if n <= 7:
        raise TooSmall(f"{n} faces, need more than 7")
    if not complexes.is_simple(complexes.primal(dc)):
        raise WhiteheadError("complex is not simple")
    v_infty = outer_view(dc).v_infty  # raises IsPrism

    red = _Reducer(dc)
    while len(outer_view(red.current, v_infty).polygon) < n - 3:
        _grow_episode(red, v_infty)

    # Exactly two interior nodes remain, both endpoints; shrink the one
    # with the smaller polygon contact down to three nodes.
    view = outer_view(red.current, v_infty)
    if sorted(view.interior) != sorted(view.endpoints):
        raise InternalInvariantBroken("final interior nodes are not endpoints")
    a = min(view.interior,
            key=lambda v: (len(view.components[v][0]), v))
    arc = view.components[a][0]
    _trim_component(red, a, arc, 3)

    end = red.current
    if split_prism_labels(end) is None:
        raise InternalInvariantBroken("reduction did not end at the split prism")
    return ReductionTrace(dc, tuple(red.moves), end)


def split_prism_labels(dc: DualComplex) -> Optional[Dict[int, int]]:
    """The relabeling of dc onto `catalog.split_prism_dual(n)`, or None
    when dc is not the split prism.

    The labels are read off `outer_view(dc)`: the apex is 0, the polygon
    is 1..n-3 in its own order starting along the arc of the interior
    endpoint that touches three polygon nodes, that endpoint is n-2 and
    the other interior node n-1.  They are returned only when they carry
    every triangle of dc onto a triangle of the split prism.
    """
    n = dc.node_count
    try:
        view = outer_view(dc)
    except (WhiteheadError, InternalInvariantBroken):
        return None
    threes = [v for v in view.interior
              if [len(arc) for arc in view.components[v]] == [3]]
    if len(view.interior) != 2 or len(threes) != 1:
        return None
    i1 = threes[0]
    i2 = next(v for v in view.interior if v != i1)
    polygon, k = view.polygon, len(view.polygon)
    start = polygon.index(view.components[i1][0][0])
    labels = {view.v_infty: 0, i1: n - 2, i2: n - 1}
    for j in range(k):
        labels[polygon[(start + j) % k]] = 1 + j
    moved = sorted(tuple(sorted(labels[u] for u in t)) for t in dc.triangles)
    if tuple(moved) != catalog.split_prism_dual(n).triangles:
        return None
    return labels


def replay(trace: ReductionTrace) -> DualComplex:
    """Re-run a trace from its start, verifying the recorded end."""
    cur = trace.start
    for move in trace.moves:
        cur = apply_move(cur, move)
    if cur.triangles != trace.end.triangles:
        raise WhiteheadError("trace does not replay to its recorded end")
    return cur


def random_simple(n: int, seed: int, moves: int = 20) -> DualComplex:
    """A random simple complex with n faces, reached from the split
    prism by Whitehead moves that keep every intermediate simple."""
    if n < 8:
        raise TooSmall(f"{n} faces, need at least 8")
    rng = _random.Random(seed)
    cur = catalog.split_prism_dual(n)
    accepted = 0
    attempts = 0
    while accepted < moves and attempts < 200 * (moves + 1):
        attempts += 1
        a, b = rng.choice(cur.edges)
        try:
            move = move_on(cur, a, b)
            after = apply_move(cur, move)
        except WhiteheadError:
            continue
        if not complexes.flip_keeps_simple(after, *move.removed_edge,
                                           *move.inserted_edge):
            continue
        cur = after
        accepted += 1
    return cur


def trace_to_json(trace: ReductionTrace) -> str:
    return json.dumps({
        "start": complexes.dual_to_json_dict(trace.start),
        "moves": [{"remove": list(m.removed_edge), "insert": list(m.inserted_edge)}
                  for m in trace.moves],
        "end": complexes.dual_to_json_dict(trace.end),
    })


def trace_from_json(text: str) -> ReductionTrace:
    data = json.loads(text)
    start = complexes.dual_from_json_dict(data["start"])
    end = complexes.dual_from_json_dict(data["end"])
    moves = tuple(WhiteheadMove(tuple(m["remove"]), tuple(m["insert"]))
                  for m in data["moves"])
    return ReductionTrace(start, moves, end)
