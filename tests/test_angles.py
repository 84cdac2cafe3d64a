"""Exact condition checking and the rational feasibility program."""

import functools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andreev
from andreev import angles, catalog, complexes, whitehead
from andreev.angles import AngleAssignment


def reference_simplex_max(c, rows, rhs):
    """The dense Fraction tableau with Bland's rule that `feasible` used
    before its integer-row tableau, kept as the oracle: same rows, same
    entering column and ratio test, every entry an exact Fraction."""
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in r] for r in rows]
    rhs = [Fraction(v) for v in rhs]
    m, n = len(rows), len(c)
    tab = [list(rows[i]) + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    tab.append([-ci for ci in c] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))

    while True:
        obj = tab[m]
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            break
        pivot_row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pivot_row]):
                    pivot_row, best = i, ratio
        if pivot_row is None:
            raise ArithmeticError("unbounded objective")
        piv = tab[pivot_row][col]
        tab[pivot_row] = [v / piv for v in tab[pivot_row]]
        for i in range(m + 1):
            if i != pivot_row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [v - factor * p for v, p in zip(tab[i], tab[pivot_row])]
        basis[pivot_row] = col

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return tab[m][-1], x


def reference_check_conditions(ap, a):
    """`check_conditions` as it was before the condition table: every
    condition enumerated on its own and summed in Fractions, kept as the
    oracle of the integer check."""
    if len(a) != ap.edge_count:
        raise angles.SizeMismatch(
            f"assignment has {len(a)} angles, complex has {ap.edge_count} edges")
    r = a.values

    nonpositive = tuple(i for i, v in enumerate(r) if v <= 0)
    obtuse = tuple(i for i, v in enumerate(r) if v > Fraction(1, 2))

    low = tuple(v for v in range(ap.vertex_count)
                if sum(r[e] for e in ap.vertex_edges(v)) <= 1)

    heavy3 = tuple(c.dual_nodes for c in complexes.prismatic_circuits(ap, 3)
                   if sum(r[e] for e in c.crossed_edges) >= 1)
    heavy4 = tuple(c.dual_nodes for c in complexes.prismatic_circuits(ap, 4)
                   if sum(r[e] for e in c.crossed_edges) >= 2)

    heavy_quads = []
    for f, boundary, entering in complexes.quadrilateral_contexts(ap):
        base = sum(r[e] for e in entering)
        if base + r[boundary[0]] + r[boundary[2]] >= 3:
            heavy_quads.append((f, 0))
        if base + r[boundary[1]] + r[boundary[3]] >= 3:
            heavy_quads.append((f, 1))

    return angles.ConditionReport(nonpositive, obtuse, low, heavy3, heavy4,
                                  tuple(heavy_quads))


def uniform(ap, r):
    return AngleAssignment.uniform(ap.edge_count, Fraction(r))


def prism5_witness():
    ap = catalog.prism(5)
    vals = []
    for (_, _, fa, fb) in ap.edges:
        lateral = len(ap.faces[fa]) == 4 and len(ap.faces[fb]) == 4
        vals.append(Fraction(1, 4) if lateral else Fraction(49, 100))
    return ap, AngleAssignment(tuple(vals))


def test_dodecahedron_two_fifths_is_member():
    ap = catalog.dodecahedron()
    rep = angles.check_conditions(ap, uniform(ap, Fraction(2, 5)))
    assert rep.member
    assert rep.heavy_3circuits == () and rep.heavy_4circuits == ()


def test_prism5_two_fifths_violates_circuit_condition():
    ap = catalog.prism(5)
    rep = angles.check_conditions(ap, uniform(ap, Fraction(2, 5)))
    assert not rep.member
    assert len(rep.heavy_3circuits) == 1


def test_prism5_quarter_witness_is_member():
    ap, a = prism5_witness()
    rep = angles.check_conditions(ap, a)
    assert rep.member


def test_size_mismatch():
    with pytest.raises(angles.SizeMismatch):
        angles.check_conditions(catalog.cube(),
                                AngleAssignment((Fraction(1, 2),) * 3))


def test_condition_one_and_obtuse_reporting():
    ap = catalog.tetrahedron()
    vals = [Fraction(1, 2)] * 6
    vals[0] = Fraction(0)
    vals[1] = Fraction(3, 4)
    rep = angles.check_conditions(ap, AngleAssignment(tuple(vals)))
    assert rep.nonpositive_edges == (0,)
    assert rep.obtuse_edges == (1,)
    assert not rep.member


class TestFeasible:
    def test_alternately_truncated_cube_empty(self):
        rep = angles.feasible(catalog.alternately_truncated_cube())
        assert not rep.nonempty
        assert rep.max_slack <= 0
        assert rep.witness is None

    def test_dodecahedron_nonempty(self):
        rep = angles.feasible(catalog.dodecahedron())
        assert rep.nonempty and rep.max_slack > 0
        assert angles.check_conditions(catalog.dodecahedron(),
                                       rep.witness).member

    def test_truncated_tetrahedron_nonempty(self):
        ap = catalog.truncated_tetrahedron()
        rep = angles.feasible(ap)
        assert rep.nonempty
        assert angles.check_conditions(ap, rep.witness).member
        # hand candidate: right angles on the triangle edges, a mild
        # angle on the long edges
        vals = [Fraction(1, 2) if len(ap.faces[fa]) == 3 or len(ap.faces[fb]) == 3
                else Fraction(1, 4)
                for (_, _, fa, fb) in ap.edges]
        assert angles.check_conditions(ap, AngleAssignment(tuple(vals))).member

    def test_simple_corpus_members_nonempty(self, corpus):
        for ap in corpus:
            if not complexes.is_simple(ap):
                continue
            rep = angles.feasible(ap)
            assert rep.nonempty, ap.name
            assert angles.check_conditions(ap, rep.witness).member, ap.name

    def test_witness_beats_random_search(self):
        # one-sided agreement: on an infeasible complex no random point
        # is a member
        ap = catalog.alternately_truncated_cube()
        rng = random.Random(7)
        for _ in range(200):
            vals = tuple(Fraction(rng.randint(1, 50), 100)
                         for _ in range(ap.edge_count))
            assert not angles.check_conditions(ap, AngleAssignment(vals)).member


CHECK_CASES = ([(ap.name, ap) for ap in catalog.corpus()]
               + [(f"random_simple({n},{n % 3})", (n, n % 3))
                  for n in range(8, 25)])


@pytest.mark.parametrize("name,case", CHECK_CASES,
                         ids=[name for name, _ in CHECK_CASES])
def test_integer_check_matches_fraction_check(name, case):
    ap = (complexes.primal(whitehead.random_simple(*case, moves=30))
          if isinstance(case, tuple) else case)
    points = [uniform(ap, r) for r in (Fraction(1, 4), Fraction(1, 3),
                                       Fraction(2, 5), Fraction(1, 2))]
    witness = angles.feasible(ap).witness
    if witness is not None:
        points.append(witness)
    for a in points:
        assert (angles.check_conditions(ap, a)
                == reference_check_conditions(ap, a))


# Sums of these values land exactly on every bound of the conditions.
ON_BOUND_VALUES = [Fraction(0), Fraction(1, 6), Fraction(1, 4),
                   Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
ON_BOUND_SHAPES = [catalog.cube(), catalog.prism(5), catalog.tetrahedron(),
                   catalog.truncated_tetrahedron(),
                   catalog.corner_truncated_cube(),
                   complexes.primal(whitehead.random_simple(10, 1))]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.integers(0, len(ON_BOUND_SHAPES) - 1))
def test_integer_check_matches_fraction_check_on_bounds(data, shape):
    ap = ON_BOUND_SHAPES[shape]
    a = AngleAssignment(tuple(data.draw(
        st.lists(st.sampled_from(ON_BOUND_VALUES),
                 min_size=ap.edge_count, max_size=ap.edge_count))))
    assert angles.check_conditions(ap, a) == reference_check_conditions(ap, a)


ORACLE_CASES = ([(ap.name, ap) for ap in catalog.corpus()]
                + [(f"random_simple({n},{s})", (n, s))
                   for n in (8, 10, 12, 14, 16) for s in range(3)])


@pytest.mark.parametrize("name,case", ORACLE_CASES,
                         ids=[name for name, _ in ORACLE_CASES])
def test_simplex_matches_fraction_tableau(name, case):
    ap = (complexes.primal(whitehead.random_simple(*case, moves=30))
          if isinstance(case, tuple) else case)
    program = angles._program(ap.edge_count, angles._conditions(ap))
    assert angles._simplex_max(*program) == reference_simplex_max(*program)


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-3, 3)
    c = draw(st.lists(coef, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    # sum(x) <= bound keeps the problem bounded
    rows.append([draw(st.integers(1, 3)) for _ in range(n)])
    rhs.append(draw(st.integers(0, 6)))
    return c, rows, rhs


@settings(max_examples=300, deadline=None)
@given(lp=bounded_lps())
def test_simplex_matches_fraction_tableau_on_small_lps(lp):
    value, x = angles._simplex_max(*lp)
    assert (value, x) == reference_simplex_max(*lp)
    c, rows, rhs = lp
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(r, x)) <= b
               for r, b in zip(rows, rhs))
    assert value == sum(a * v for a, v in zip(c, x))


HIGHS_CASES = {
    "random_simple(20,0)":
        lambda: complexes.primal(whitehead.random_simple(20, 0)),
    "random_simple(24,0)":
        lambda: complexes.primal(whitehead.random_simple(24, 0)),
    "alternately_truncated_cube": catalog.alternately_truncated_cube,
}


@pytest.mark.parametrize("name", list(HIGHS_CASES))
def test_max_slack_matches_highs(name):
    optimize = pytest.importorskip("scipy.optimize")
    ap = HIGHS_CASES[name]()
    rep = angles.feasible(ap)
    c, rows, rhs = angles._program(ap.edge_count, angles._conditions(ap))
    res = optimize.linprog([-v for v in c], A_ub=rows, b_ub=rhs,
                           bounds=(0, None), method="highs")
    assert res.status == 0
    assert abs(float(rep.max_slack) - (-res.fun - 1)) <= 1e-9
    if rep.nonempty:
        assert angles.check_conditions(ap, rep.witness).member
    else:
        assert name == "alternately_truncated_cube" and rep.witness is None


def _obtuse_optimizer(c, rows, rhs):
    """A stand-in for _simplex_max whose optimizer has positive slack
    but is no member: every angle is pi."""
    return Fraction(2), [Fraction(1)] * (len(c) - 1) + [Fraction(2)]


def test_witness_recheck_raises(monkeypatch):
    monkeypatch.setattr(angles, "_simplex_max", _obtuse_optimizer)
    with pytest.raises(angles.NotMember, match="exact recheck"):
        angles.feasible(catalog.cube())


def test_witness_recheck_survives_optimize_flag():
    # `python -O` strips assert statements; the recheck must not be one.
    code = textwrap.dedent("""
        from fractions import Fraction
        from andreev import angles, catalog
        angles._simplex_max = lambda c, rows, rhs: (
            Fraction(2), [Fraction(1)] * (len(c) - 1) + [Fraction(2)])
        try:
            angles.feasible(catalog.cube())
        except angles.NotMember:
            print("refused")
    """)
    src = os.path.dirname(os.path.dirname(andreev.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "refused"


class TestInteriorPath:
    def test_identity_at_zero(self):
        ap = catalog.dodecahedron()
        a = uniform(ap, Fraction(2, 5))
        assert angles.interior_path(ap, a, Fraction(0)).values == a.values

    def test_halfway(self):
        ap = catalog.dodecahedron()
        out = angles.interior_path(ap, uniform(ap, Fraction(2, 5)),
                                   Fraction(1, 2))
        assert out.values == (Fraction(11, 30),) * 30
        assert angles.check_conditions(ap, out).member

    def test_prism_witness_deep(self):
        ap, a = prism5_witness()
        out = angles.interior_path(ap, a, Fraction(9, 10))
        assert angles.check_conditions(ap, out).member

    def test_nonmember_rejected(self):
        ap = catalog.prism(5)
        with pytest.raises(angles.NotMember):
            angles.interior_path(ap, uniform(ap, Fraction(2, 5)),
                                 Fraction(1, 2))


@functools.lru_cache(maxsize=None)
def _dodeca_witness():
    return angles.feasible(catalog.dodecahedron()).witness


@settings(max_examples=60, deadline=None)
@given(lam=st.fractions(min_value=Fraction(1, 100),
                        max_value=Fraction(99, 100)),
       seed=st.integers(min_value=0, max_value=10))
def test_convexity(lam, seed):
    ap = catalog.dodecahedron()
    rng = random.Random(seed)
    a = AngleAssignment(tuple(Fraction(rng.randint(35, 50), 100)
                              for _ in range(ap.edge_count)))
    b = _dodeca_witness()
    if not angles.check_conditions(ap, a).member:
        return
    mix = AngleAssignment(tuple(lam * x + (1 - lam) * y
                                for x, y in zip(a.values, b.values)))
    assert angles.check_conditions(ap, mix).member


def test_condition_five_follows_from_the_others():
    """Assignments passing (1)-(4) with non-obtuse angles never trip the
    quadrilateral condition, sampled over a mixed bag of complexes."""
    shapes = [catalog.cube(), catalog.prism(6), catalog.prism(7),
              catalog.prism(8)]
    for seed in range(4):
        shapes.append(complexes.primal(whitehead.random_simple(9, seed=seed)))
    rng = random.Random(2024)
    accepted = 0
    attempts = 0
    while accepted < 500:
        attempts += 1
        assert attempts < 20000
        ap = shapes[rng.randrange(len(shapes))]
        has3 = bool(complexes.prismatic_circuits(ap, 3))
        vals = []
        for _ in range(ap.edge_count):
            if has3 and rng.random() < 0.3:
                vals.append(Fraction(rng.randint(10, 33), 100))
            else:
                vals.append(Fraction(rng.randint(34, 50), 100))
        rep = angles.check_conditions(ap, AngleAssignment(tuple(vals)))
        if (rep.nonpositive_edges or rep.obtuse_edges or rep.low_vertices
                or rep.heavy_3circuits or rep.heavy_4circuits):
            continue
        accepted += 1
        assert rep.heavy_quads == ()


def test_verdict_order_independence():
    # identical verdicts regardless of how the caller assembled values
    ap = catalog.cube()
    vals = [Fraction(2, 5)] * ap.edge_count
    base = angles.check_conditions(ap, AngleAssignment(tuple(vals)))
    again = angles.check_conditions(ap, AngleAssignment(tuple(list(vals))))
    assert base == again


def test_json_round_trip():
    ap, a = prism5_witness()
    back = angles.from_json(angles.to_json(a))
    assert back.values == a.values

    rep = angles.feasible(catalog.cube())
    data = json.loads(angles.feasibility_to_json(rep))
    assert data["verdict"] == "nonempty"
    parsed = [Fraction(data["witness"][str(i)])
              for i in range(len(data["witness"]))]
    assert parsed == list(rep.witness.values)
