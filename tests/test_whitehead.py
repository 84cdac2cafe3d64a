"""Whitehead moves and the reduction to the split prism."""

import pytest

from andreev import catalog, complexes, whitehead


def icosa():
    return complexes.dual(catalog.dodecahedron())


def first_edge(dc):
    return min(dc.edges)


class TestApplyMove:
    def test_involution(self):
        dc = icosa()
        a, b = first_edge(dc)
        mv = whitehead.move_on(dc, a, b)
        there = whitehead.apply_move(dc, mv)
        back = whitehead.apply_move(there, mv.inverse())
        assert back.triangle_set == dc.triangle_set

    def test_creates_two_new_3cycles_on_icosahedron(self):
        dc = icosa()
        a, b = first_edge(dc)
        mv = whitehead.move_on(dc, a, b)
        created = whitehead.new_3cycles(dc, mv)
        assert len(created) == 2
        x, y = sorted(set(mv.inserted_edge))
        for cyc in created:
            assert x in cyc and y in cyc

    def test_missing_edge(self):
        dc = icosa()
        # 0 and a node at dual distance two share no edge
        far = next(n for n in dc.adjacency()
                   if n != 0 and n not in dc.adjacency()[0])
        with pytest.raises(whitehead.EdgeMissing):
            whitehead.move_on(dc, 0, far)

    def test_target_edge_exists(self):
        # in the triangular prism's dual, the apexes flanking a cap-side
        # edge are the other two side nodes, which already share an edge
        dc = complexes.dual(catalog.prism(5))
        caps = [n for n in dc.adjacency() if len(dc.adjacency()[n]) == 3]
        cap = caps[0]
        side = min(dc.adjacency()[cap])
        mv = whitehead.move_on(dc, cap, side)
        assert tuple(sorted(mv.inserted_edge)) in dc.edges
        with pytest.raises(whitehead.TargetEdgeExists):
            whitehead.apply_move(dc, mv)


class TestOuterView:
    def test_icosahedron_view(self):
        view = whitehead.outer_view(icosa())
        assert view.v_infty == 0
        assert len(view.polygon) == 5
        assert len(view.interior) == 6

    def test_split_prism_polygon_length(self):
        view = whitehead.outer_view(catalog.split_prism_dual(18))
        assert len(view.polygon) == 15
        assert len(view.interior) == 2

    def test_prism_refused(self):
        with pytest.raises(whitehead.IsPrism):
            whitehead.outer_view(complexes.dual(catalog.prism(9)))

    def test_too_small_refused(self):
        with pytest.raises(whitehead.TooSmall):
            whitehead.outer_view(complexes.dual(catalog.cube()))


class TestReduce:
    def test_dodecahedron_reaches_d12(self):
        trace = whitehead.reduce_to_dn(icosa())
        assert complexes.isomorphic(trace.end,
                                    catalog.split_prism_dual(12)) is not None
        assert whitehead.replay(trace).triangle_set == trace.end.triangle_set

    def test_outer_polygon_growth(self):
        start = icosa()
        trace = whitehead.reduce_to_dn(start)
        degrees = {n: len(start.adjacency()[n]) for n in start.adjacency()}
        v_inf = min(n for n in degrees
                    if degrees[n] == max(degrees.values()))
        cur = start
        size = len(cur.adjacency()[v_inf])
        for mv in trace.moves:
            cur = whitehead.apply_move(cur, mv)
            nxt = len(cur.adjacency()[v_inf])
            assert nxt - size in (0, 1)
            size = nxt
        n = len(start.adjacency())
        assert size == n - 3

    def test_random_reductions(self):
        for n in range(8, 13):
            for seed in range(3):
                dc = whitehead.random_simple(n, seed=seed)
                trace = whitehead.reduce_to_dn(dc)
                cur = dc
                for mv in trace.moves:
                    cur = whitehead.apply_move(cur, mv)
                    assert complexes.is_simple(complexes.primal(cur))
                assert complexes.isomorphic(
                    trace.end, catalog.split_prism_dual(n)) is not None

    def test_simplicity_recertified_externally(self):
        trace = whitehead.reduce_to_dn(whitehead.random_simple(10, seed=4))
        cur = trace.start
        for mv in trace.moves:
            cur = whitehead.apply_move(cur, mv)
            assert complexes.is_simple(complexes.primal(cur))


def test_random_simple_deterministic():
    a = whitehead.random_simple(11, seed=9)
    b = whitehead.random_simple(11, seed=9)
    assert a.triangle_set == b.triangle_set


def test_trace_json_round_trip():
    trace = whitehead.reduce_to_dn(whitehead.random_simple(9, seed=1))
    back = whitehead.trace_from_json(whitehead.trace_to_json(trace))
    assert back.start.triangle_set == trace.start.triangle_set
    assert back.end.triangle_set == trace.end.triangle_set
    assert back.moves == trace.moves
    assert whitehead.replay(back).triangle_set == trace.end.triangle_set


def test_reduction_applies_each_move_once(monkeypatch):
    dc = whitehead.random_simple(16, 1, moves=30)
    applied = []
    apply_move = whitehead.apply_move

    def counting_apply(dc, move):
        applied.append(move)
        return apply_move(dc, move)

    monkeypatch.setattr(whitehead, "apply_move", counting_apply)
    trace = whitehead.reduce_to_dn(dc)
    assert applied == list(trace.moves)
