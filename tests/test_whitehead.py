"""Whitehead moves and the reduction to the split prism."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andreev import catalog, complexes, minkowski, realize, whitehead
from andreev.angles import AngleAssignment
from conftest import gram_residual


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
        after = whitehead.apply_move(dc, mv)
        x, y = sorted(set(mv.inserted_edge))
        adj = after.adjacency()
        created = sorted(tuple(sorted((x, y, v))) for v in adj[x] & adj[y])
        assert len(created) == 2
        assert set(created) <= after.triangle_set
        assert complexes.flip_keeps_simple(after, *mv.removed_edge,
                                           *mv.inserted_edge)

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
        with pytest.raises(complexes.ComplexError):
            complexes.flipped(catalog.prism(5), cap, side, *mv.inserted_edge)

    def test_flip_needs_both_triangles(self):
        dc = icosa()
        a, b = dc.edges[0]
        x, y = whitehead.move_on(dc, a, b).inserted_edge
        z = min(set(range(dc.node_count)) - {a, b, x, y})
        with pytest.raises(complexes.ComplexError):
            dc.flip(a, b, x, z)


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


def _relabeled(dc, perm):
    return complexes.DualComplex(dc.node_count, tuple(sorted(
        tuple(sorted(perm[u] for u in t)) for t in dc.triangles)))


def test_step_check_matches_primal_oracle(monkeypatch):
    """Every move random_simple tries, accepted or not, is judged by the
    one step check exactly as by the primal's prismatic 3-circuits."""
    verdicts = []
    keeps_simple = complexes.flip_keeps_simple

    def checked(after, a, b, x, y):
        got = keeps_simple(after, a, b, x, y)
        assert got == complexes.is_simple(complexes.primal(after)), (a, b, x, y)
        verdicts.append(got)
        return got

    monkeypatch.setattr(complexes, "flip_keeps_simple", checked)
    for n in range(8, 25):
        for seed in range(3):
            whitehead.random_simple(n, seed, moves=30)
    assert verdicts.count(True) == 17 * 3 * 30
    assert verdicts.count(False) > verdicts.count(True)


def test_reducer_refuses_a_move_that_breaks_simplicity():
    dc = catalog.split_prism_dual(10)
    bad = []
    for a, b in dc.edges:
        move = whitehead.move_on(dc, a, b)
        try:
            after = whitehead.apply_move(dc, move)
        except whitehead.WhiteheadError:
            continue
        if not complexes.is_simple(complexes.primal(after)):
            bad.append((a, b))
    assert bad
    for a, b in bad:
        red = whitehead._Reducer(dc)
        with pytest.raises(whitehead.InternalInvariantBroken,
                           match="non-facial 3-cycle"):
            red.do(a, b)
        assert red.current is dc and red.moves == []


def test_reduction_builds_one_primal(monkeypatch):
    """Only the entry check builds a primal; moves are certified on the
    dual and the end by its split-prism labels."""
    dc = whitehead.random_simple(16, 1, moves=30)
    built = []
    primal = complexes.primal

    def counting_primal(*args, **kwargs):
        built.append(args[0])
        return primal(*args, **kwargs)

    monkeypatch.setattr(complexes, "primal", counting_primal)
    trace = whitehead.reduce_to_dn(dc)
    assert len(trace.moves) > 10
    assert built == [dc]


def hub_dual(m):
    """An apex over a 2m-gon p_0..p_{2m-1}; below it m endpoints e_j,
    each over the polygon nodes p_2j, p_2j+1, p_2j+2, fanned around a
    hub joined to every endpoint and every even polygon node."""
    k = 2 * m
    p = lambda i: 2 + i % k
    e = lambda j: 2 + k + j
    tris = [(0, p(i), p(i + 1)) for i in range(k)]
    for j in range(m):
        tris += [(e(j), p(2 * j), p(2 * j + 1)),
                 (e(j), p(2 * j + 1), p(2 * j + 2)),
                 (1, e(j), p(2 * j)), (1, e(j), p(2 * j + 2))]
    return complexes.DualComplex(2 + k + m, tuple(sorted(
        tuple(sorted(t)) for t in tris)))


@pytest.mark.parametrize("m", [3, 4])
def test_hub_reduction_runs_case3(m, monkeypatch):
    """The hub's endpoints each touch three polygon nodes and the hub
    touches the polygon in single nodes, so the reducer's third case
    grows the polygon; its trace replays and the complex realizes."""
    dc = hub_dual(m)
    calls = []
    case3 = whitehead._case3

    def counting(*args):
        calls.append(args)
        return case3(*args)

    monkeypatch.setattr(whitehead, "_case3", counting)
    trace = whitehead.reduce_to_dn(dc)
    assert calls
    assert whitehead.replay(trace).triangle_set == trace.end.triangle_set
    ap = complexes.primal(dc)
    a = AngleAssignment.uniform(ap.edge_count, Fraction(2, 5))
    r = realize.realize(ap, a)
    assert gram_residual(r, a) <= 1e-10
    assert max(abs(got - 0.4 * math.pi) for got in r.edge_angles()) <= 1e-8


class TestNonSimpleRefused:
    @pytest.mark.parametrize("make", [catalog.alternately_truncated_cube,
                                      catalog.truncated_tetrahedron])
    def test_not_simple(self, make):
        with pytest.raises(whitehead.WhiteheadError, match="not simple") as exc:
            whitehead.reduce_to_dn(complexes.dual(make()))
        assert type(exc.value) is whitehead.WhiteheadError

    @pytest.mark.parametrize("make", [catalog.tetrahedron,
                                      lambda: catalog.prism(5)])
    def test_too_small_comes_first(self, make):
        with pytest.raises(whitehead.TooSmall):
            whitehead.reduce_to_dn(complexes.dual(make()))


def _labels_carry(labels, dc):
    n = dc.node_count
    moved = sorted(tuple(sorted(labels[u] for u in t)) for t in dc.triangles)
    return (sorted(labels) == list(range(n))
            and tuple(moved) == catalog.split_prism_dual(n).triangles)


class TestSplitPrismLabels:
    def test_random_relabelings(self):
        for n in range(8, 30):
            base = catalog.split_prism_dual(n)
            rng = random.Random(n)
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                dc = _relabeled(base, perm)
                assert _labels_carry(whitehead.split_prism_labels(dc), dc)

    def test_reduction_ends(self):
        for n in range(8, 41):
            for seed in range(3):
                end = whitehead.reduce_to_dn(
                    whitehead.random_simple(n, seed, moves=30)).end
                assert _labels_carry(whitehead.split_prism_labels(end), end)

    def test_built_split_prisms(self):
        for n in range(8, 17):
            planes = minkowski.build_split_prism(n)
            dc = complexes.dual(minkowski.extract_combinatorics(planes).complex)
            assert _labels_carry(whitehead.split_prism_labels(dc), dc)

    def test_none_exactly_where_not_isomorphic(self):
        duals = [complexes.dual(ap) for ap in (
            catalog.prism(9), catalog.truncated_tetrahedron(),
            catalog.alternately_truncated_cube(), catalog.dodecahedron(),
            catalog.corner_doubled_cube())]
        duals += [whitehead.random_simple(n, seed, moves=moves)
                  for n in (8, 9, 12, 17) for seed in range(3)
                  for moves in (1, 2, 30)]
        duals += [catalog.split_prism_dual(n) for n in (8, 9, 12)]
        nones = 0
        for dc in duals:
            iso = complexes.isomorphic(dc, catalog.split_prism_dual(dc.node_count))
            labels = whitehead.split_prism_labels(dc)
            assert (labels is None) == (iso is None)
            nones += labels is None
        assert 0 < nones < len(duals)


# sha256 of repr(random_simple(n, seed, moves=30).triangles): the bench
# corpus draws its inputs from these, so a change to the generator's
# acceptance rule must show here before it moves the benchmark.
RANDOM_SIMPLE_SHA256 = {
    (8, 0): "64b1d4cd7c426fff63992960e77b8f30bafe1050f203822cf36d82aa306cc831",
    (8, 1): "e5b42dc3c337e3a4f2c6398a18b85a8d069a823850049ace6e3c0e4211e69805",
    (8, 2): "c2ecb93f66be0e676e439afa71d576204f1f5399f08dac64ce87819e2bcb7db3",
    (8, 3): "29a4bcf9cea8f2ac5e2f95ac84d4bc7ba4140d4d388ccb68d5c1809ede776dd0",
    (10, 0): "6f1890aa845d8b6253b5d8f06b3dc39aa94a71ba51f82b462b10979656419bbf",
    (10, 1): "87a4ffba1e8281e756cccc38346ed5b961616cc9f222448353f9da17c6a503fb",
    (10, 2): "dc19490554d3766b83607ec1c3eb3c817dde33012de8b100f88f404c6fe4c3b0",
    (10, 3): "85f5ef4afca60aa5ac1a878adf4cb24fedfd1ab6fecdbf8222b7777a973d2a4b",
    (12, 0): "f436b4cf675c3ac3b39c35aa7509514d12cf91a5bf67335a0c585b152a39b479",
    (12, 1): "e9770e57f64cd7da6df405a8324166e390d51b19ba19a6edeac8a9675ec1e540",
    (12, 2): "34b5827032e049dfbb565745b5f2affb41ae7d3a275f818b4978fe14301b53ec",
    (12, 3): "7ef4f8b9368e6298d9d418c58682a59d3c9411fd7f4c4d242e9482b267443b38",
    (14, 0): "fd7eb51d298a67a8b7eee33a734ae404a5ead56a715c2c5a848743ee5024ba78",
    (14, 1): "c208975d5dfcf41a5897a8ccb2894413a05263080e11e67dc68655132af33d13",
    (14, 2): "6e7d0c746b4fd2e9139596465d2767baf7b159417a78ed532d257fc3b10c8962",
    (14, 3): "e6ccde66ad5a76c5fd37dbe276646da26453ed99eed084e8fe20b938308e9549",
    (16, 0): "073dfdf5f6d3198e98dc5f668864a505f33c4c9068480679591181c861a6e395",
    (16, 1): "fe4db9877c2362bc28c4f8dcd08bd0679719a37c104c076fa55988e031dbbc18",
    (16, 2): "33d581776a60229d7ff7b49544619862d7a861538d0c862f594f80b07d6ffbde",
    (16, 3): "6fc1098866f5859f2d1d988341b7688dcf6bcc742359754ebbf5ce3b3e3056c5",
    (24, 0): "7ab9367412314a80a94ba1b4d62e7d81f095e906ed1776d6eacee5abafe60643",
    (24, 1): "3d9c2baaaa46d5502167c2cf26f95ef19ecebf96bfd6b8428b94fa245b1b33d6",
    (24, 2): "35e37db1d4b2469e9205a8d67bb67200af5e3df95a5b9734b6f830a0c853f1c6",
    (24, 3): "100101d17a557c3292da692168230d8d75973632fda131deca3d838611ccd8c7",
}


@pytest.mark.parametrize("n,seed", sorted(RANDOM_SIMPLE_SHA256))
def test_random_simple_pinned(n, seed):
    dc = whitehead.random_simple(n, seed, moves=30)
    digest = hashlib.sha256(repr(dc.triangles).encode()).hexdigest()
    assert digest == RANDOM_SIMPLE_SHA256[(n, seed)]


# The patched move against the from-scratch constructions.


def scratch_move(dc, move):
    """The moved dual built as apply_move built it before it patched:
    the triangle list filtered and sorted, then validated, and every
    derived structure (edges, adjacency, rotation) left to compute."""
    a, b = move.removed_edge
    x, y = move.inserted_edge
    drop = {tuple(sorted((a, b, x))), tuple(sorted((a, b, y)))}
    add = [tuple(sorted((a, x, y))), tuple(sorted((b, x, y)))]
    tris = [t for t in dc.triangles if t not in drop] + add
    return complexes.DualComplex(dc.node_count, tuple(sorted(tris)))


def assert_dual_matches(after, ref):
    assert after.node_count == ref.node_count
    assert after.triangles == ref.triangles
    assert after.edges == ref.edges
    assert after.adjacency() == ref.adjacency()
    assert after.rotation == ref.rotation


def assert_primal_matches(ap, ref):
    """ap, derived by primal_after, against ref = complexes.primal of the
    same dual built from scratch, its faces put through complexes.build,
    so that the edges, vertex faces and dual come from the face-list
    validator and not from primal's own code: every field, the attached
    dual, and the 3-circuit scan (which ap may answer from the empty
    cache it was given)."""
    ref = complexes.build(ref.vertex_count, ref.faces, name=ref.name)
    assert (ap.vertex_count, ap.faces, ap.edges, ap.name) == (
        ref.vertex_count, ref.faces, ref.edges, ref.name)
    assert ([ap.vertex_faces(v) for v in range(ap.vertex_count)]
            == [ref.vertex_faces(v) for v in range(ref.vertex_count)])
    assert_dual_matches(complexes.dual(ap), complexes.dual(ref))
    assert (complexes.prismatic_circuits(ap, 3)
            == reference_circuits(ref))


def reference_circuits(ap):
    """Prismatic 3-circuits of ap by a scan of a fresh copy."""
    return complexes.prismatic_circuits(dataclasses.replace(ap), 3)


def checked_moves(monkeypatch):
    """Make every apply_move compare its patched output with
    scratch_move; returns the list the checked moves go to."""
    seen = []
    apply_move = whitehead.apply_move

    def checked(dc, move):
        after = apply_move(dc, move)
        assert_dual_matches(after, scratch_move(dc, move))
        seen.append(move)
        return after

    monkeypatch.setattr(whitehead, "apply_move", checked)
    return seen


def replayed_complexes(trace, name):
    """The complexes the Whitehead replay derives, without the geometry:
    from the primal of the trace's end, primal_after of every inverse
    move in reverse order; each is checked against complexes.primal."""
    cur = complexes.primal(trace.end, name=name)
    for mv in reversed(trace.moves):
        nxt = whitehead.primal_after(cur, mv.inverse())
        ref = complexes.primal(
            scratch_move(complexes.dual(cur), mv.inverse()), name=name)
        assert_primal_matches(nxt, ref)
        assert complexes.is_simple(nxt)
        cur = nxt
    return cur


ORACLE_CASES = ([("dodecahedron", catalog.dodecahedron)]
                + [(f"random_simple({n},{s})",
                    lambda n=n, s=s: complexes.primal(
                        whitehead.random_simple(n, s, moves=30)))
                   for n in range(8, 49) for s in range(3)])


@pytest.mark.parametrize("name,make", ORACLE_CASES,
                         ids=[name for name, _ in ORACLE_CASES])
def test_patched_moves_match_scratch(name, make, monkeypatch):
    """Every move of the reduction and of the replay's complexes equals
    what the from-scratch constructions give."""
    ap = make()
    seen = checked_moves(monkeypatch)
    trace = whitehead.reduce_to_dn(complexes.dual(ap))
    assert seen == list(trace.moves)
    # Replayed back to the start, the moves give ap itself: every case
    # is the primal of its dual, numbered as primal numbers it.  The
    # replay flips through complexes.flipped, not apply_move; its duals
    # are checked inside replayed_complexes.
    end = replayed_complexes(trace, name)
    assert (end.faces, end.edges) == (ap.faces, ap.edges)
    assert len(seen) == len(trace.moves)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(8, 0), (12, 1), (16, 2), (20, 0)]),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
def test_random_move_sequences_match_scratch(case, picks):
    """Arbitrary sequences of moves, simple or not: the dual is patched
    as scratch_move builds it, and primal_after gives what primal does,
    with the empty 3-circuit cache exactly when the scan finds none."""
    dc = whitehead.random_simple(*case, moves=10)
    ap = complexes.primal(dc, name="r")
    for pick in picks:
        dc = complexes.dual(ap)
        a, b = dc.edges[pick % len(dc.edges)]
        try:
            move = whitehead.move_on(dc, a, b)
            after = whitehead.apply_move(dc, move)
        except whitehead.WhiteheadError:
            continue
        assert_dual_matches(after, scratch_move(dc, move))
        nxt = whitehead.primal_after(ap, move)
        assert_primal_matches(nxt, complexes.primal(after, name="r"))
        ap = nxt
