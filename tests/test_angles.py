"""Exact condition checking and the rational feasibility program."""

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
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


def _full_int_tableau(c, rows, rhs, dtype):
    """[rows | identity | rhs] over [-c | 0 | 0] as one array of dtype;
    OverflowError when dtype cannot hold the data."""
    m, n = len(rows), len(c)
    tab = np.zeros((m + 1, n + m + 1), dtype=dtype)
    tab[:m, :n] = rows
    tab[np.arange(m), np.arange(n, n + m)] = 1
    tab[:m, -1] = rhs
    tab[m, :n] = [-v for v in c]
    return tab


def reference_full_int_tableau(c, rows, rhs):
    """`_simplex_max` as it was before its tableau was condensed, kept as
    the oracle of the condensed one: the full-width fraction-free int64
    tableau [rows | identity | rhs], with the m basic columns stored,
    promoted to Python ints by the same `angles._fits_int64_limit`
    under the same `angles._INT64_LIMIT`."""
    m, n = len(rows), len(c)
    # Each row is [a_1..a_n, s_1..s_m, rhs]; the last row is the
    # objective in the form z - c.x = 0.
    try:
        tab = _full_int_tableau(c, rows, rhs, np.int64)
    except OverflowError:
        tab = _full_int_tableau(c, rows, rhs, object)
    if tab.dtype != object and not angles._fits_int64_limit(tab):
        tab = tab.astype(object)
    basis = np.arange(n, n + m)

    while True:
        entering = (tab[m, :-1] < 0).nonzero()[0]
        if not entering.size:
            break
        col = entering[0]
        column = tab[:, col].copy()
        rising = (column[:m] > 0).nonzero()[0]
        if not rising.size:
            raise ArithmeticError("unbounded objective")
        a, b = column[rising], tab[rising, -1]
        k = (b * angles._INT64_LIMIT // a).argmin()
        while True:
            lhs, rhs_k = b * a[k], b[k] * a
            below = (lhs < rhs_k).nonzero()[0]
            if not below.size:
                break
            k = below[0]
        ties = rising[lhs == rhs_k]
        pivot_row = ties[basis[ties].argmin()]

        piv = column[pivot_row]
        column[pivot_row] = 0
        touched = column.nonzero()[0]
        new = tab[touched]
        f = column[touched]
        if piv != 1:
            g = np.gcd(piv, f)
            new *= (piv // g)[:, None]
            f //= g
        new -= f[:, None] * tab[pivot_row]
        # The gcd of each new row over its nonzeros only, as rows are
        # mostly zeros.  No row is all zeros (the constraint rows stay
        # independent, and the objective row is not 0 once a pivot is
        # due), so the runs of row_of line up with the rows.
        at = new.ravel().nonzero()[0]
        row_of = at // new.shape[1]
        head = np.ones(len(at), dtype=bool)
        head[1:] = row_of[1:] != row_of[:-1]
        g = np.gcd.reduceat(new.ravel()[at], head.nonzero()[0])
        common = (g > 1).nonzero()[0]
        if common.size:
            new[common] //= g[common, None]
        if tab.dtype != object and not angles._fits_int64_limit(new):
            tab = tab.astype(object)
        tab[touched] = new
        basis[pivot_row] = col

    x = [Fraction(0)] * n
    values = {}
    for i, b in enumerate(basis.tolist()):
        if b < n:
            v = Fraction(int(tab[i, -1]), int(tab[i, b]))
            x[b] = values.setdefault(v, v)
    return sum((ci * xi for ci, xi in zip(c, x)), Fraction(0)), x


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


@pytest.mark.parametrize("name", [name for name, _ in ORACLE_CASES],
                         ids=[name for name, _ in ORACLE_CASES])
def test_simplex_matches_fraction_tableau(name):
    assert angles._simplex_max(*_program_of(name)) == _oracle_optimum(name)


@st.composite
def bounded_lps(draw, scale=1):
    """Small LPs, every datum times up to `scale`."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-3 * scale, 3 * scale)
    c = draw(st.lists(coef, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(0, 5 * scale), min_size=m, max_size=m))
    # sum(x) <= bound keeps the problem bounded
    rows.append([draw(st.integers(1, 3 * scale)) for _ in range(n)])
    rhs.append(draw(st.integers(0, 6 * scale)))
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


# Data drawn up to about 2**40 mostly start beyond the int64 tableau's
# entry bound, so the tableau is promoted to Python ints before the
# first pivot.
@settings(max_examples=200, deadline=None)
@given(lp=bounded_lps(scale=2 ** 38))
def test_simplex_on_wide_data_matches_fraction_tableau(lp):
    assert angles._simplex_max(*lp) == reference_simplex_max(*lp)


def test_simplex_on_data_beyond_int64_matches_fraction_tableau():
    big = 2 ** 70
    lp = ([3, big + 1], [[big, -1], [1, big], [2, 3]], [big, 2 * big, 7])
    value, x = angles._simplex_max(*lp)
    assert (value, x) == reference_simplex_max(*lp)
    assert value > 0


PROMOTION_CASES = ([(ap.name, ap) for ap in catalog.corpus()]
                   + [(f"random_simple({n},{s})", (n, s))
                      for n in (8, 10, 12) for s in range(3)])


@pytest.mark.parametrize("name,case", PROMOTION_CASES,
                         ids=[name for name, _ in PROMOTION_CASES])
def test_simplex_promoted_mid_run_matches_fraction_tableau(
        name, case, monkeypatch):
    """With the entry bound just above the data, the int64 tableau
    starts within it and some pivot leaves it, so the run ends on
    Python ints; the result must still be the Fraction tableau's."""
    ap = (complexes.primal(whitehead.random_simple(*case, moves=30))
          if isinstance(case, tuple) else case)
    c, rows, rhs = angles._program(ap.edge_count, angles._conditions(ap))
    largest = max(abs(v) for v in [*c, *rhs, *(v for r in rows for v in r)])
    fits = []
    check = angles._fits_int64_limit

    def recorded(a):
        fits.append(check(a))
        return fits[-1]

    monkeypatch.setattr(angles, "_INT64_LIMIT", largest + 1)
    monkeypatch.setattr(angles, "_fits_int64_limit", recorded)
    assert (angles._exact_simplex_max(c, rows, rhs)
            == reference_simplex_max(c, rows, rhs))
    assert fits[0] and not all(fits)


def _recorded_run(simplex, program, monkeypatch):
    """simplex(*program) with every `_fits_int64_limit` call recorded:
    the result, the verdicts in order and the shape of the first array
    checked.  One verdict comes before the first pivot and one with each
    pivot until the tableau is promoted."""
    verdicts, shapes = [], []
    check = angles._fits_int64_limit

    def recorded(a):
        shapes.append(a.shape)
        verdicts.append(check(a))
        return verdicts[-1]

    monkeypatch.setattr(angles, "_fits_int64_limit", recorded)
    result = simplex(*program)
    monkeypatch.setattr(angles, "_fits_int64_limit", check)
    return result, verdicts, shapes[0]


@pytest.mark.parametrize("name,case", ORACLE_CASES,
                         ids=[name for name, _ in ORACLE_CASES])
def test_condensed_tableau_matches_full_int_tableau(name, case, monkeypatch):
    """Same optimum, optimizer and pivot count as the full-width tableau,
    on an array n + 2 wide instead of n + m + 1."""
    ap = (complexes.primal(whitehead.random_simple(*case, moves=30))
          if isinstance(case, tuple) else case)
    c, rows, rhs = angles._program(ap.edge_count, angles._conditions(ap))
    full, full_fits, full_shape = _recorded_run(
        reference_full_int_tableau, (c, rows, rhs), monkeypatch)
    got, fits, shape = _recorded_run(
        angles._exact_simplex_max, (c, rows, rhs), monkeypatch)
    assert got == full
    assert fits == full_fits and all(fits)
    m, n = len(rows), len(c)
    assert full_shape == (m + 1, n + m + 1)
    assert shape == (m + 1, n + 2)


@pytest.mark.parametrize("name,case", PROMOTION_CASES,
                         ids=[name for name, _ in PROMOTION_CASES])
def test_condensed_tableau_promotes_at_the_full_tableau_pivot(
        name, case, monkeypatch):
    """With the entry bound just above the data, both tableaus hold the
    same integers, so they leave the bound at the same pivot."""
    ap = (complexes.primal(whitehead.random_simple(*case, moves=30))
          if isinstance(case, tuple) else case)
    c, rows, rhs = angles._program(ap.edge_count, angles._conditions(ap))
    largest = max(abs(v) for v in [*c, *rhs, *(v for r in rows for v in r)])
    monkeypatch.setattr(angles, "_INT64_LIMIT", largest + 1)
    full, full_fits, _ = _recorded_run(
        reference_full_int_tableau, (c, rows, rhs), monkeypatch)
    got, fits, _ = _recorded_run(
        angles._exact_simplex_max, (c, rows, rhs), monkeypatch)
    assert fits == full_fits
    assert fits[0] and not fits[-1]
    assert got == full


@pytest.mark.parametrize("simplex", [angles._exact_simplex_max,
                                     angles._simplex_max, reference_simplex_max,
                                     reference_full_int_tableau],
                         ids=["condensed", "certified", "fraction", "full_int"])
def test_unbounded_objective_raises(simplex):
    # max x subject to -x <= 0: x grows without bound.
    with pytest.raises(ArithmeticError, match="unbounded objective"):
        simplex([1], [[-1]], [0])


# sha256 of feasibility_to_json(feasible(ap)), as recorded before the
# tableau moved to numpy: verdict, max_slack and witness, byte for byte.
FEASIBILITY_PINS = {
    "tetrahedron": "9326b3536a013d0d0984ed0e2ec13e4c08110c6f29355f889364ac9a957a886f",
    "cube": "e5035b109c6f8db372355172088d8223a83730e9e8f5dc01af81a6950547c729",
    "prism_5": "9384c9ca516be37c5c02ab6c181766f4ac3f577bd7a2585de2c1aee02bd452f4",
    "prism_6": "e5035b109c6f8db372355172088d8223a83730e9e8f5dc01af81a6950547c729",
    "prism_7": "c3e0699cd87bf507fe6229028c90ea324f6b3083878d41fb964cceb27b2769e2",
    "prism_8": "c4f3843a224287976807db0fbe9634ec7ab8c0da1f4c17e013c99b9d554e4f07",
    "prism_9": "762f1e4e423508e074a2293cb42d145107dd4cde9d286bd17d39b3abe17665b4",
    "prism_10": "f302d51cb39cc8358552f08a1eeba57f9bfa95e1556446d49f1c80e86ea414ea",
    "dodecahedron": "456dc0182bb3846a81b99562348fe2a73c4701489367f35491507fab8fde0fa5",
    "truncated_tetrahedron": "302220e425e88cc8b27f35dd0b295ad6bc4a35f5bf438b781d7810d40e6df9f6",
    "alternately_truncated_cube": "a9615b12795084dda68c7b71767911dece9bdb2f8d5b09d51576bd2920b8acad",
    "random_simple(8,0)": "8cb1203623466de71c233e338a9edc07375cae4e7715f28475b7f0ba18c892bd",
    "random_simple(8,1)": "8cb1203623466de71c233e338a9edc07375cae4e7715f28475b7f0ba18c892bd",
    "random_simple(8,2)": "66039a6f11afe58a9876360bc84e1e1f5346f3ae4e5e2cab78579d76c17dd797",
    "random_simple(12,0)": "b0fa0bb8c0e5da20b5e99a1d8c20c49d926530197b414749f0866abd2ccc4ed9",
    "random_simple(12,1)": "fe8ab2796125db668e7638c97ba2aa1f76ae34b25a1a1b6f27fe44f803ac9088",
    "random_simple(12,2)": "1da558800cad82f9db582880777e0ecae444ad4ce92262fb0eeaa97073782c52",
    "random_simple(16,0)": "2633a159c395d13b77943753ce03a75a93da8dcc190b8befbb2ff5403b599575",
    "random_simple(16,1)": "1d6536265626f7dcb29b6d07c67ffd303b38e28755affa0b11e4d853d27110de",
    "random_simple(16,2)": "e53f71bf4eb46245ed0c3d34bba5d4cbe083164f101835430ffe887f051d21c0",
    "random_simple(20,0)": "867a86ab43fabb2d0b48e30d40c448cf74cfee8aa35dc848f41366924e561b95",
    "random_simple(20,1)": "33e1fd47302f19c28bc1e4c65de9f9c9b53596ac8855d348ffbff97b24836677",
    "random_simple(20,2)": "30247031ecb44fff0b1a08a852e7f4b242a11fce9ac9204017e9ae1f024b12f7",
    "random_simple(24,0)": "bf3fbd7738d9312ab73660994f5e4339f4cf86daa5f6c6d5793018fe3fa5ada2",
    "random_simple(24,1)": "0dbbc23f7f8ed74a531fb76331331cac732d79cd393d44bb2add1d11c7e7514c",
    "random_simple(24,2)": "8e57d4d7c8b7ba762731cfab34626d48e8ef3aef7a829f6d191dd928e5c17ea0",
}


@functools.lru_cache(maxsize=None)
def _pinned_complex(name):
    if name.startswith("random_simple("):
        n, s = map(int, name[len("random_simple("):-1].split(","))
        return complexes.primal(whitehead.random_simple(n, s, moves=30))
    return next(ap for ap in catalog.corpus() if ap.name == name)


@functools.lru_cache(maxsize=None)
def _pinned_report(name):
    return angles.feasible(_pinned_complex(name))


@pytest.mark.parametrize("name", list(FEASIBILITY_PINS))
def test_feasibility_output_is_pinned(name):
    text = angles.feasibility_to_json(_pinned_report(name))
    assert hashlib.sha256(text.encode()).hexdigest() == FEASIBILITY_PINS[name]


@pytest.mark.parametrize("name", list(FEASIBILITY_PINS))
def test_feasibility_fractions_hold_python_ints(name):
    rep = _pinned_report(name)
    values = [rep.max_slack] + (list(rep.witness) if rep.witness else [])
    for v in values:
        assert type(v) is Fraction
        assert type(v.numerator) is int and type(v.denominator) is int


@functools.lru_cache(maxsize=None)
def _program_of(name):
    ap = _pinned_complex(name)
    return angles._program(ap.edge_count, angles._conditions(ap))


def reference_program(E, table):
    """The max-slack program of `feasible` built row by row in lists:
    u - r_i <= 1 and 2 r_i <= 1 per edge, then sign * sum + u <=
    bound + 1 per condition."""
    rows, rhs = [], []
    for i in range(E):
        for coef, u in ((-1, 1), (2, 0)):
            row = [0] * (E + 1)
            row[i], row[E] = coef, u
            rows.append(row)
            rhs.append(1)
    for _, _, sign, edges, bound in table:
        row = [0] * (E + 1)
        for e in edges:
            row[e] += sign
        row[E] = 1
        rows.append(row)
        rhs.append(bound + 1)
    return [0] * E + [1], rows, rhs


@pytest.mark.parametrize("name", list(FEASIBILITY_PINS))
def test_program_matches_row_by_row_reference(name):
    ap = _pinned_complex(name)
    table = angles._conditions(ap)
    for got, want in zip(angles._program(ap.edge_count, table),
                         reference_program(ap.edge_count, table)):
        assert got.dtype == np.int64 and got.tolist() == want


# The Fraction tableau takes about 24 s on random_simple(20, 0) and 128 s
# on random_simple(24, 0); those programs, which only FEASIBILITY_PINS
# holds, are checked against the full-width integer tableau instead.
_FRACTION_ORACLE = {name for name, _ in ORACLE_CASES}


@functools.lru_cache(maxsize=None)
def _oracle_optimum(name):
    """The exact Bland's-rule optimum and optimizer of `name`'s program,
    by a tableau kept in this file."""
    oracle = (reference_simplex_max if name in _FRACTION_ORACLE
              else reference_full_int_tableau)
    return oracle(*_program_of(name))


def _exact_refused(*program):
    raise AssertionError("the float simplex fell back to the exact tableau")


@pytest.mark.parametrize("name",
                         sorted(_FRACTION_ORACLE | set(FEASIBILITY_PINS)))
def test_float_simplex_certifies_without_fallback(name, monkeypatch):
    """On every program of the corpus and the pins, the float run is
    certified as it stands and returns the exact tableau's answer."""
    monkeypatch.setattr(angles, "_exact_simplex_max", _exact_refused)
    assert angles._simplex_max(*_program_of(name)) == _oracle_optimum(name)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "prism_5",
                                  "dodecahedron", "truncated_tetrahedron",
                                  "alternately_truncated_cube",
                                  "random_simple(8,0)"])
def test_failed_certificate_falls_back_to_the_exact_answer(name, monkeypatch):
    """Rounded to integers, the float optimizer no longer proves itself,
    and the exact tableau answers instead."""
    calls = []
    exact = angles._exact_simplex_max

    def spied(*program):
        calls.append(name)
        return exact(*program)

    monkeypatch.setattr(angles, "_MAX_DENOMINATOR", 1)
    monkeypatch.setattr(angles, "_exact_simplex_max", spied)
    assert angles._simplex_max(*_program_of(name)) == _oracle_optimum(name)
    assert calls == [name]


# max x0 + x1 subject to x0 + 2 x1 <= 4, 3 x0 + x1 <= 6: the optimum is
# x = (8/5, 6/5), proved by y = (2/5, 1/5), with c.x = b.y = 14/5.
CERT_LP = ([1, 1], [[1, 2], [3, 1]], [4, 6])
CERT_X = {0: Fraction(8, 5), 1: Fraction(6, 5)}
CERT_Y = {0: Fraction(2, 5), 1: Fraction(1, 5)}
# max x0 subject to x0 + x1 <= 2, -x0 <= 1: the optimum is x = (2, 0),
# proved by y = (1, 0), with c.x = b.y = 2.
SIGN_LP = ([1, 0], [[1, 1], [-1, 0]], [2, 1])


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("lp,x,y,ok", [
    (CERT_LP, CERT_X, CERT_Y, True),
    # 3 * 14/5 > 6 breaks the second row; c.x = 14/5 = b.y still.
    (CERT_LP, {0: Fraction(14, 5)}, CERT_Y, False),
    # 7/15 < 1 breaks the second column; b.y = 6 * 7/15 = 14/5 = c.x still.
    (CERT_LP, CERT_X, {1: Fraction(7, 15)}, False),
    # Both feasible, but c.x = 2 < 14/5 = b.y.
    (CERT_LP, {0: Fraction(1), 1: Fraction(1)}, CERT_Y, False),
    (SIGN_LP, {0: Fraction(2)}, {0: Fraction(1)}, True),
    # Every other check passes on these two.
    (SIGN_LP, {0: Fraction(2), 1: Fraction(-1)}, {0: Fraction(1)}, False),
    (SIGN_LP, {0: Fraction(2)}, {0: Fraction(7, 6), 1: Fraction(-1, 3)},
     False),
], ids=["optimal", "row", "column", "gap", "optimal_2", "negative_x",
        "negative_y"])
def test_certificate_rejects_bad_pairs(lp, x, y, ok, dtype):
    c, rows, rhs = (np.array(v, dtype=dtype) for v in lp)
    assert angles._certified(c, rows, rhs, x, y) is ok


def test_certificate_rejects_a_loose_nonbasic_slack_row():
    """max x1 + x2 subject to 1999999 x1 <= 2, x0 + x1 + x2 <= 1.  The
    float optimum x1 = 2/1999999 rounds to 1/1000000, which is optimal
    too (y = (0, 1) proves it) but leaves row 0, whose slack is
    nonbasic, loose: not the basis's point, so the certificate fails
    and the exact tableau answers."""
    lp = ([0, 1, 1], [[0, 1999999, 0], [1, 1, 1]], [2, 1])
    c, rows, rhs = (np.array(v, dtype=np.int64) for v in lp)
    x = {1: Fraction(1, 1000000), 2: Fraction(999999, 1000000)}
    assert not angles._certified(c, rows, rhs, x, {0: Fraction(0), 1: Fraction(1)})
    assert angles._certified(c, rows, rhs, x, {1: Fraction(1)})
    assert angles._simplex_max(*lp) == reference_simplex_max(*lp)


def test_certificate_rejects_a_pair_past_int64():
    """max x1 subject to (2**31 - 1) x0 <= 1, x1 <= 1.  The pair
    x = (2**33, 1), y = (0, 1) passes every check but the first row,
    where (2**31 - 1) * 2**33 wraps around in int64 to a negative
    number; so the check must not run in int64 there."""
    big = 2 ** 31 - 1
    c, rows, rhs = (np.array(v, dtype=np.int64)
                    for v in ([0, 1], [[big, 0], [0, 1]], [1, 1]))
    x = {0: Fraction(2 ** 33), 1: Fraction(1)}
    assert (rows @ np.array([2 ** 33, 1]) <= rhs).all()
    assert not angles._certified(c, rows, rhs, x, {1: Fraction(1)})


def _limit_denominator_pairs(values):
    return [(f.numerator, f.denominator) for f in (
        Fraction(v).limit_denominator(angles._MAX_DENOMINATOR)
        for v in values)]


def _farey_neighbours(b, d):
    """a/b < c/d with bc - ad = 1: no fraction of denominator below
    b + d lies between them."""
    c = pow(b, -1, d)
    return Fraction((b * c - 1) // d, b), Fraction(c, d)


def _floats_around(m):
    """The float nearest the Fraction m and its two neighbours."""
    x = float(m)
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Floats at the midpoints of neighbouring fractions whose denominators
# sum past _MAX_DENOMINATOR, the two candidates rounding chooses
# between there, shifted by integers and mirrored.
_HALFWAYS = [sign * v
             for b, d in ((999_999, 10 ** 6), (10 ** 6, 999_999),
                          (2, 999_999), (999_998, 3), (700_001, 300_000))
             for lo, hi in [_farey_neighbours(b, d)]
             for k in (0, 1, 37)
             for v in _floats_around(k + (lo + hi) / 2)
             for sign in (1, -1)]


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e15, -1e15, 1 / 3])),
    min_size=1, max_size=12))
def test_rationals_are_limit_denominator(values):
    """The integer rounding is Fraction.limit_denominator, value for
    value, in lowest terms; repeats share the memo."""
    values = values + values[::-1]
    assert (angles._rationals(np.array(values))
            == _limit_denominator_pairs(values))


def test_rationals_at_the_denominator_bound_and_halfway():
    values = [sign * p / q
              for q in (999_999, 10 ** 6, 10 ** 6 + 1, 2 * 10 ** 6)
              for p in (1, 2, 7, 123_457, q - 1, q + 1, 3 * q + 7)
              for sign in (1, -1)]
    values += _HALFWAYS
    assert (angles._rationals(np.array(values))
            == _limit_denominator_pairs(values))


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 8])
def test_rationals_break_exact_ties_like_limit_denominator(bound,
                                                           monkeypatch):
    """Under a small bound, dyadic values fall exactly halfway between
    the two candidates, and the tie goes where limit_denominator sends
    it."""
    monkeypatch.setattr(angles, "_MAX_DENOMINATOR", bound)
    values = [sign * k / 64 for k in range(1, 200) for sign in (1, -1)]
    assert (angles._rationals(np.array(values))
            == _limit_denominator_pairs(values))


def test_feasibility_output_ignores_blas_threads():
    """The float tableau pivots by elementwise numpy alone, so the
    output does not depend on how many threads BLAS may use."""
    names = ["dodecahedron", "random_simple(12,0)"]
    code = textwrap.dedent("""
        import sys
        from andreev import angles, catalog, complexes, whitehead
        for ap in (catalog.dodecahedron(),
                   complexes.primal(whitehead.random_simple(12, 0, moves=30))):
            print(angles.feasibility_to_json(angles.feasible(ap)))
    """)
    src = os.path.dirname(os.path.dirname(andreev.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path,
                                       OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert [hashlib.sha256(line.encode()).hexdigest()
            for line in outputs[0].splitlines()] == [
                FEASIBILITY_PINS[name] for name in names]


HIGHS_CASES = {
    "random_simple(20,0)":
        lambda: complexes.primal(whitehead.random_simple(20, 0)),
    "random_simple(24,0)":
        lambda: complexes.primal(whitehead.random_simple(24, 0)),
    "random_simple(32,0)":
        lambda: complexes.primal(whitehead.random_simple(32, 0)),
    "random_simple(40,0)":
        lambda: complexes.primal(whitehead.random_simple(40, 0)),
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
