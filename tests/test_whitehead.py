"""Whitehead moves and the reduction to the split prism."""

import hashlib
import random

import pytest

from andreev import catalog, complexes, minkowski, whitehead


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
        created = whitehead._inserted_3cycles(after, mv)
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


def _relabeled(dc, perm):
    return complexes.DualComplex(dc.node_count, tuple(sorted(
        tuple(sorted(perm[u] for u in t)) for t in dc.triangles)))


def test_step_check_matches_primal_oracle(monkeypatch):
    """Every move random_simple tries, accepted or not, is judged by the
    one step check exactly as by the primal's prismatic 3-circuits."""
    verdicts = []
    keeps_simple = whitehead._keeps_simple

    def checked(after, move):
        got = keeps_simple(after, move)
        assert got == complexes.is_simple(complexes.primal(after)), move
        verdicts.append(got)
        return got

    monkeypatch.setattr(whitehead, "_keeps_simple", checked)
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
            dc = complexes.dual(minkowski.build_split_prism(n).complex)
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
