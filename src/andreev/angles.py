"""The five linear angle conditions as one table of integer rows, checked
exactly, and the max-slack feasibility program that decides whether any
angle vector satisfies them all.

Angles are stored as fractions r with the dihedral angle meaning r*pi.
`_conditions` lists every strict condition once, as a row
(report field, label, sign, edges, bound) meaning
sign * sum(r_e for e in edges) < bound: the vertices, then the
prismatic 3- and 4-circuits, then the quadrilaterals.
`check_conditions` evaluates the table in Python ints: with D the
common denominator of the assignment and R = r*D, a row is violated
when sign * sum(R_e) >= bound * D.

The feasibility program is the same table plus two rows per edge, with
integer data in int64 arrays, and `_simplex_max` solves it under
Bland's rule in three layers.  `_float_simplex` pivots a float64
dictionary tableau, the nonbasic columns and the rhs, by whole-array
rank-1 exchanges in elementwise numpy, so the result does not depend on
BLAS threads; its decisions read the exact rule with a tolerance.  Its
optimizer x and its dual y, the objective entries under the nonbasic
slacks, are rounded to fractions by a continued fraction run in Python
ints and scaled to integers over their common denominators, and
`_proves` checks exactly, on the integer data, that x and y are
feasible and that c.x = b.y, which proves x optimal by weak duality,
with the rows of the nonbasic slacks tight, so x is the basis's point.
Only when that check fails does `_exact_simplex_max` decide instead:
the same rule on a condensed fraction-free tableau held in one numpy
int64 array, the nonbasic columns, one column of each row's own basic
coefficient, and the rhs, so the basic columns, each zero but for one
entry, are never stored.
Each stored row is the exact tableau row times a positive scale that is
never written down; a pivot cross-multiplies all the rows it touches at
once instead of dividing, then removes each row's gcd.  Every entry
stays below 2**31 in absolute value, so each product a pivot forms is
exact in int64; a pivot whose rows reach that bound turns the tableau,
once and for good, into Python ints, and the same loop goes on.  Every
pivoting decision reads only signs and ratios within one row, which
the scale leaves alone, so the pivots, the optimum and the optimizer
are exactly those of the same tableau kept in Fractions, on either
dtype.  A float run whose decisions all agree with the exact ones makes
the same pivots, so either layer returns the same optimizer.
The witness is rechecked against the same table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import complexes
from .complexes import AbstractPolyhedron

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class AngleError(ValueError):
    pass


class SizeMismatch(AngleError):
    pass


class NotMember(AngleError):
    pass


@dataclass(frozen=True, slots=True)
class AngleAssignment:
    """Per-edge dihedral angles r_i, meaning alpha_i = r_i * pi."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        # Fractions are immutable, so given ones are kept, not copied.
        object.__setattr__(self, "values", tuple(
            v if type(v) is Fraction else Fraction(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @staticmethod
    def uniform(edge_count: int, r) -> "AngleAssignment":
        return AngleAssignment((Fraction(r),) * edge_count)

    def to_floats(self) -> List[float]:
        import math
        return [float(v) * math.pi for v in self.values]


@dataclass(frozen=True)
class ConditionReport:
    """Violations of the five conditions, empty tuples when satisfied.

    Edges appear in nonpositive_edges when r <= 0 and in obtuse_edges
    when r > 1/2; low_vertices hold vertices whose three incident angles
    sum to at most pi; heavy_3circuits / heavy_4circuits hold the dual
    node cycles of prismatic circuits whose crossed sums reach pi resp.
    2*pi; heavy_quads hold (face, diagonal) pairs whose quadrilateral
    sum reaches 3*pi, diagonal 0 meaning boundary edges 1 and 3.
    """

    nonpositive_edges: Tuple[int, ...]
    obtuse_edges: Tuple[int, ...]
    low_vertices: Tuple[int, ...]
    heavy_3circuits: Tuple[Tuple[int, ...], ...]
    heavy_4circuits: Tuple[Tuple[int, ...], ...]
    heavy_quads: Tuple[Tuple[int, int], ...]

    @property
    def member(self) -> bool:
        return not (self.nonpositive_edges or self.obtuse_edges
                    or self.low_vertices or self.heavy_3circuits
                    or self.heavy_4circuits or self.heavy_quads)


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    nonempty: bool
    max_slack: Fraction
    witness: Optional[AngleAssignment]

    @property
    def verdict(self) -> str:
        return "nonempty" if self.nonempty else "empty"


# One strict condition: sign * sum(r_e for e in edges) < bound, reported
# under `label` in the ConditionReport field named first.
Condition = Tuple[str, object, int, Tuple[int, ...], int]


def _conditions(ap: AbstractPolyhedron) -> List[Condition]:
    """Conditions (2)-(5) of every vertex, prismatic circuit and
    quadrilateral of ap, in the row order of the feasibility program."""
    table: List[Condition] = [
        ("low_vertices", v, -1, ap.vertex_edges(v), -1)
        for v in range(ap.vertex_count)]
    for k, bound in ((3, 1), (4, 2)):
        table += [(f"heavy_{k}circuits", c.dual_nodes, 1, c.crossed_edges, bound)
                  for c in complexes.prismatic_circuits(ap, k)]
    for f, boundary, entering in complexes.quadrilateral_contexts(ap):
        for d in (0, 1):
            table.append(("heavy_quads", (f, d), 1,
                          entering + (boundary[d], boundary[d + 2]), 3))
    return table


def check_conditions(ap: AbstractPolyhedron, a: AngleAssignment) -> ConditionReport:
    if len(a) != ap.edge_count:
        raise SizeMismatch(
            f"assignment has {len(a)} angles, complex has {ap.edge_count} edges")
    return _evaluate(_conditions(ap), a)


def _over_common_denominator(
        pairs: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Fractions given as (numerator, denominator) pairs over their
    common denominator D: the numerators scaled to D, and D."""
    D = lcm(*{q for _, q in pairs})
    return [p * (D // q) for p, q in pairs], D


def _evaluate(table: Sequence[Condition], a: AngleAssignment) -> ConditionReport:
    """The violations of a among the edge bounds and the table's rows,
    decided in integers over the common denominator of a."""
    R, D = _over_common_denominator(
        [v.as_integer_ratio() for v in a.values])
    hits: Dict[str, list] = {"low_vertices": [], "heavy_3circuits": [],
                             "heavy_4circuits": [], "heavy_quads": []}
    for field, label, sign, edges, bound in table:
        if sign * sum(map(R.__getitem__, edges)) >= bound * D:
            hits[field].append(label)
    return ConditionReport(
        nonpositive_edges=tuple(i for i, v in enumerate(R) if v <= 0),
        obtuse_edges=tuple(i for i, v in enumerate(R) if 2 * v > D),
        **{field: tuple(labels) for field, labels in hits.items()})


# Bound on the absolute value of every entry of an int64 tableau, below
# which p*row - f*row_k is exact in int64, and of the integer data that
# `_proves` checks in int64.
_INT64_LIMIT = 2 ** 31


def _fits_int64_limit(a: np.ndarray) -> bool:
    return -_INT64_LIMIT < a.min() and a.max() < _INT64_LIMIT


def _tableau(c: Sequence[int], rows: Sequence[Sequence[int]],
             rhs: Sequence[int], dtype) -> np.ndarray:
    """[rows | 1 | rhs] over [-c | 0 | 0] as one array of dtype, the
    middle column holding each row's own basic coefficient; OverflowError
    when dtype cannot hold the data."""
    m, n = len(rows), len(c)
    tab = np.zeros((m + 1, n + 2), dtype=dtype)
    tab[:m, :n] = rows
    tab[:m, n] = 1
    tab[:m, -1] = rhs
    tab[m, :n] = [-v for v in c]
    return tab


# The float simplex reads an entry within _TOL of 0 as 0, and a ratio
# within _TOL of the least as a tie.
_TOL = 1e-9
# The float optimizer and dual are rounded to the nearest fractions
# whose denominators are at most this.
_MAX_DENOMINATOR = 10 ** 6


def _integer_data(c, rows, rhs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, A, b) as int64 arrays when every entry is below _INT64_LIMIT
    in absolute value, else as arrays of Python ints."""
    try:
        data = [np.asarray(v, dtype=np.int64) for v in (c, rows, rhs)]
    except OverflowError:
        return tuple(np.asarray(v, dtype=object) for v in (c, rows, rhs))
    if all(-_INT64_LIMIT < v.min(initial=0)
           and v.max(initial=0) < _INT64_LIMIT for v in data):
        return tuple(data)
    return tuple(v.astype(object) for v in data)


def _float_simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Bland's rule on a float64 dictionary tableau of the integer data:
    (tab, basis, nonbasic) at the optimum, or None when a pivot column
    has no positive entry or the run outlasts 8 (m + n) pivots, far
    more than Bland's rule takes on these programs, so that a float run
    that cycles still ends.

    The tableau is (m+1) x (n+1): the nonbasic columns, whose variables
    `nonbasic` lists, and the rhs, over the objective row [-c | 0].  A
    pivot on p = tab[k, col] is one rank-1 exchange of the whole array,
    which swaps the pivot column for the leaving variable's, whose entry
    is 1/p in row k and -f/p in a row whose entry was f.  It is
    elementwise numpy alone, so no BLAS call, and with it no thread
    count, can move a bit of the result.  The decisions are those of
    `_exact_simplex_max`, read with a tolerance: the entering variable
    is the one of least label among the objective entries below -_TOL,
    and the leaving one the least label among the rows whose entry is
    above _TOL and whose ratio is within _TOL of the least.
    """
    m, n = A.shape
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = A
    tab[:m, n] = b
    tab[m, :n] = -c
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)
    for _ in range(8 * (m + n)):
        entering = (tab[m, :n] < -_TOL).nonzero()[0]
        if not entering.size:
            return tab, basis, nonbasic
        col = entering[nonbasic[entering].argmin()]
        column = tab[:, col].copy()
        rising = (column[:m] > _TOL).nonzero()[0]
        if not rising.size:
            return None
        ratio = tab[rising, n] / column[rising]
        ties = rising[ratio <= ratio.min() + _TOL]
        k = ties[basis[ties].argmin()]
        prow = tab[k] / column[k]
        prow[col] = 1 / column[k]
        column[k] = 0
        tab[:, col] = 0
        tab -= column[:, None] * prow
        tab[k] = prow
        nonbasic[col], basis[k] = basis[k], nonbasic[col]
    return None


def _rationals(values: np.ndarray) -> List[Tuple[int, int]]:
    """Each float v as the numerator and denominator of
    Fraction(v).limit_denominator(_MAX_DENOMINATOR), the nearest
    fraction whose denominator is at most _MAX_DENOMINATOR, in lowest
    terms.  limit_denominator's continued fraction runs here on the
    integers of v.as_integer_ratio(), with no Fraction made, once per
    distinct value: optimizers repeat a few values.
    """
    top = _MAX_DENOMINATOR
    memo: Dict[float, Tuple[int, int]] = {}
    floats = values.tolist()
    for v in set(floats):
        num, den = v.as_integer_ratio()
        if den > top:
            p0, q0, p1, q1 = 0, 1, 1, 0
            n, d = num, den
            while True:
                a = n // d
                q2 = q0 + a * q1
                if q2 > top:
                    break
                p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
                n, d = d, n - a * d
            # v lies between the convergent p1/q1, d/(q1 den) from v,
            # and the semiconvergent (p0 + k p1)/(q0 + k q1), the two
            # 1/(q1 (q0 + k q1)) apart; a tie goes to p1/q1.
            k = (top - q0) // q1
            if 2 * d * (q0 + k * q1) <= den:
                num, den = p1, q1
            else:
                num, den = p0 + k * p1, q0 + k * q1
        memo[v] = num, den
    return [memo[v] for v in floats]


# A sparse vector of fractions in integers: (the indices of its
# entries, those entries times D, D), D their common denominator.  The
# entries at all other indices are 0.
Scaled = Tuple[List[int], List[int], int]


def _proves(c: np.ndarray, A: np.ndarray, b: np.ndarray,
            x: Scaled, y: Scaled) -> bool:
    """Whether y proves x an optimum of max c.x subject to A x <= b,
    x >= 0, checked exactly on the integer data.  x is given by the
    indices of its variables, their values times Dx, and Dx; y by its
    rows the same way.  The checks are
        A x <= b and x >= 0  (x is feasible),
        y A >= c and y >= 0  (y is dual feasible),
        c.x = b.y,
    and by weak duality no feasible point then beats c.x.  The rows y
    lists, even at 0, those of the nonbasic slacks, must be tight, so x
    is the basis's own point, not another optimum rounding landed on.

    With the data in int64, every entry is below 2**31 =
    _INT64_LIMIT in absolute value.  Then a sum of len(X) products
    A_ij X_j stays below len(X) max|X| 2**31, and each b_i Dx below
    Dx 2**31.  So int64 is exact when len(X) max|X| and Dx are at most
    2**32, and the same for Y.  Otherwise the checks run on Python ints.
    """
    (xi, X, Dx), (yi, Y, Dy) = x, y
    if min(X, default=0) < 0 or min(Y, default=0) < 0:
        return False
    dtype = np.int64
    if A.dtype == object or any(
            len(v) * max(map(abs, v), default=0) > 2 ** 32 or D > 2 ** 32
            for v, D in ((X, Dx), (Y, Dy))):
        dtype = object
        c, A, b = c.astype(object), A.astype(object), b.astype(object)
    X, Y = np.array(X, dtype=dtype), np.array(Y, dtype=dtype)
    Ax, bx = A[:, xi] @ X, b * Dx
    if not ((Ax <= bx).all() and (Ax[yi] == bx[yi]).all()
            and (Y @ A[yi] >= c * Dy).all()):
        return False
    return int(c[xi] @ X) * Dy == int(b[yi] @ Y) * Dx


def _simplex_max(c: Sequence[int], rows: Sequence[Sequence[int]],
                 rhs: Sequence[int]) -> Tuple[Fraction, List[Fraction]]:
    """Maximize c.x subject to rows.x <= rhs, x >= 0, all rhs >= 0, for
    integer data.  Returns (optimal value, optimizer) as exact
    fractions; an unbounded objective raises ArithmeticError.

    `_float_simplex` makes the pivots of `_exact_simplex_max` in
    float64.  Its optimizer x, the rhs of the rows whose basic variable
    is structural, and its dual y, the objective entries under the
    nonbasic slacks (a basic slack's is 0), are rounded to fractions,
    and `_proves` proves x optimal on the original integer data.  Both
    stay integers over their common denominators until the witness is
    made.
    When the float run stops short or the proof fails, the exact
    tableau decides instead.  A float run whose every decision agrees
    with the exact run's makes the same pivots and ends on the same
    basis, so x is the exact run's optimizer, not just an optimum.
    """
    c, A, b = _integer_data(c, rows, rhs)
    solved = _float_simplex(c, A, b)
    if solved is not None:
        tab, basis, nonbasic = solved
        m, n = A.shape
        at = (basis < n).nonzero()[0]
        slacks = (nonbasic >= n).nonzero()[0]
        values, duals = tab[at, n], tab[m, slacks]
        if np.isfinite(values).all() and np.isfinite(duals).all():
            xi, pairs = basis[at].tolist(), _rationals(values)
            X, Dx = _over_common_denominator(pairs)
            y = ((nonbasic[slacks] - n).tolist(),
                 *_over_common_denominator(_rationals(duals)))
            if _proves(c, A, b, (xi, X, Dx), y):
                # Equal values share one Fraction.
                shared = {pq: Fraction(*pq) for pq in set(pairs)}
                x = [Fraction(0)] * n
                for i, pq in zip(xi, pairs):
                    x[i] = shared[pq]
                cx = sum(ci * Xi for ci, Xi in zip(c[xi].tolist(), X))
                return Fraction(cx, Dx), x
    return _exact_simplex_max(c, A, b)


def _exact_simplex_max(c: Sequence[int], rows: Sequence[Sequence[int]],
                       rhs: Sequence[int]) -> Tuple[Fraction, List[Fraction]]:
    """Maximize c.x subject to rows.x <= rhs, x >= 0, all rhs >= 0, for
    integer data.  Returns (optimal value, optimizer) as exact fractions.
    Problems fed in here are always bounded; an unbounded pivot column
    raises ArithmeticError.

    Tableau simplex with Bland's rule, so no cycling and no tolerances,
    kept fraction-free: each stored row is an integer vector standing
    for the exact tableau row times a positive scale that is not kept.
    Pivoting on p = row_k[col] > 0 replaces every other row whose entry
    f in that column is not 0 by p*row - f*row_k (p and f first divided
    by their gcd), divided by the gcd of its entries; row_k stays as it
    is, the exact pivoted row times p.  Every decision reads only signs
    and ratios within one row, which a positive scale leaves alone: the
    entering variable is the one of least index among the negative
    entries of the objective row, and the ratio test takes the least
    rhs_i/a_i, decided by cross-multiplying, b_i*a_k against b_k*a_i,
    with ties going to the smaller basis index.  So the pivots are
    exactly those of the same tableau kept in Fractions.

    The tableau is condensed.  A basic variable's column of the full
    tableau is zero but for its own row's entry d_i, so only d_i is
    stored: the array has the n nonbasic columns, whose variables
    `nonbasic` lists, one column of the d_i (0 on the objective row),
    and the rhs, which are the integers of the full tableau without the
    zeros of its basic columns.  A pivot moves the leaving variable
    into the entering one's column, where row_k's entry is its old d_k
    and every other row's is -f*d_k before the row is rescaled, and
    row_k's d becomes p.  At the end the basic variable of row i is
    rhs_i / d_i, and the optimum is c.x.  The objective row is left as
    the final reduced costs times a positive scale: its entries under
    nonbasic slacks are a dual optimum up to that scale, and basic
    slacks have reduced cost 0.

    The tableau is one numpy array, and a pivot updates all the rows it
    touches at once.  It starts as int64 with every entry below
    _INT64_LIMIT = 2**31 in absolute value, so p*row - f*row_k, a
    difference of two products of such entries, is exact in int64, and
    so is its gcd-reduced row.  When a reduced row reaches the bound, or
    the data start beyond it, the tableau is turned once into Python
    ints (dtype object) and the same loop goes on with the same
    arithmetic, so the dtype never changes a pivot, only the cost.  The
    ratio test proposes its row by the least floor(2**31 * b_i/a_i), an
    integer that never orders two ratios the wrong way round, and the
    cross-multiplied comparison then confirms it exactly; no float
    enters.
    """
    m, n = len(rows), len(c)
    # Each row is [nonbasic columns, d, rhs]; the last row is the
    # objective in the form z - c.x = 0.
    try:
        tab = _tableau(c, rows, rhs, np.int64)
    except OverflowError:
        tab = _tableau(c, rows, rhs, object)
    if tab.dtype != object and not _fits_int64_limit(tab):
        tab = tab.astype(object)
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)

    while True:
        entering = (tab[m, :n] < 0).nonzero()[0]
        if not entering.size:
            break
        col = entering[nonbasic[entering].argmin()]
        column = tab[:, col].copy()
        rising = (column[:m] > 0).nonzero()[0]
        if not rising.size:
            raise ArithmeticError("unbounded objective")
        a, b = column[rising], tab[rising, -1]
        k = (b * _INT64_LIMIT // a).argmin()
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
        # Row k in the full tableau's terms: the entering column's slot
        # holds the leaving variable, whose entry there is d_k.
        prow = tab[pivot_row].copy()
        prow[col], prow[n] = prow[n], 0
        new = tab[touched]
        new[:, col] = 0
        f = column[touched]
        if piv != 1:
            g = np.gcd(piv, f)
            new *= (piv // g)[:, None]
            f //= g
        new -= f[:, None] * prow
        # No row is all zeros: a constraint row keeps its d, and the
        # objective row gains -f*d_k in the entering column.
        g = np.gcd.reduce(new, axis=1)
        common = (g > 1).nonzero()[0]
        if common.size:
            new[common] //= g[common, None]
        # Row k's two entries move before any promotion, so that no
        # int64 scalar lands in an object tableau.
        tab[pivot_row, col], tab[pivot_row, n] = prow[col], piv
        if tab.dtype != object and not _fits_int64_limit(new):
            tab = tab.astype(object)
        tab[touched] = new
        nonbasic[col], basis[pivot_row] = basis[pivot_row], nonbasic[col]

    # Equal values share one Fraction: optimizers repeat a few values
    # (often 1/3 on most edges), and callers keep them in witnesses.
    x = [Fraction(0)] * n
    values: Dict[Fraction, Fraction] = {}
    for i, b in enumerate(basis.tolist()):
        if b < n:
            v = Fraction(int(tab[i, -1]), int(tab[i, n]))
            x[b] = values.setdefault(v, v)
    return sum((ci * x[i] for i, ci in enumerate(map(int, c)) if ci),
               Fraction(0)), x


def _program(edge_count: int, table: Sequence[Condition]) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray]:
    """The max-slack program of `feasible` as int64 arrays (c, rows, rhs)
    for `_simplex_max`, in u = t + 1 over the variables r_0..r_{E-1}, u:
    two rows per edge, u - r_i <= 1 and 2 r_i <= 1, then one row
    sign * sum + u <= bound + 1 per condition of the table, scattered
    from its edge tuples.
    """
    E = edge_count
    m = 2 * E + len(table)
    rows = np.zeros((m, E + 1), dtype=np.int64)
    rhs = np.ones(m, dtype=np.int64)
    edges = np.arange(E)
    rows[2 * edges, edges] = -1
    rows[2 * edges + 1, edges] = 2
    rows[0:2 * E:2, E] = 1
    rows[2 * E:, E] = 1
    _, _, signs, edge_lists, bounds = zip(*table)
    sizes = list(map(len, edge_lists))
    np.add.at(rows, (np.repeat(np.arange(2 * E, m), sizes),
                     np.fromiter(chain.from_iterable(edge_lists), np.intp,
                                 sum(sizes))),
              np.repeat(signs, sizes))
    rhs[2 * E:] = bounds
    rhs[2 * E:] += 1
    c = np.zeros(E + 1, dtype=np.int64)
    c[E] = 1
    return c, rows, rhs


def feasible(ap: AbstractPolyhedron) -> FeasibilityReport:
    """Decide whether some angle vector satisfies all five conditions,
    by maximizing the minimum slack t:

        t <= r_i,  r_i <= 1/2,  vertex sums >= 1 + t,
        prismatic-3 sums <= 1 - t,  prismatic-4 sums <= 2 - t,
        quadrilateral sums <= 3 - t.

    The angle set is nonempty exactly when the optimum is positive.  To
    keep every variable nonnegative the program is solved in u = t + 1;
    the optimum t never goes below -1/2 (take all r_i = 1/2), so the
    substitution loses nothing.  The bound r_i <= 1/2 enters as
    2 r_i <= 1 so that all data are integers.  A witness is rechecked
    against the same condition table before it is returned.
    """
    E = ap.edge_count
    table = _conditions(ap)
    value, x = _simplex_max(*_program(E, table))
    slack = value - 1
    if slack <= 0:
        return FeasibilityReport(False, slack, None)
    witness = AngleAssignment(tuple(x[:E]))
    report = _evaluate(table, witness)
    if not report.member:
        raise NotMember(f"feasibility witness failed the exact recheck: {report}")
    return FeasibilityReport(True, slack, witness)


def interior_path(ap: AbstractPolyhedron, a: AngleAssignment,
                  t: Fraction) -> AngleAssignment:
    """Slide a member of the angle set toward the all-pi/3 point.

    Convexity keeps every intermediate point a member whenever the
    all-pi/3 limit satisfies the non-strict halves of the conditions,
    which it does on every complex: vertex sums are exactly 1 there and
    the strict margin comes from the (1 - t) share of a.
    """
    t = Fraction(t)
    if not (0 <= t < 1):
        raise ValueError("t must lie in [0, 1)")
    report = check_conditions(ap, a)
    if not report.member:
        raise NotMember(f"starting assignment violates the conditions: {report}")
    out = AngleAssignment(tuple((1 - t) * v + t * THIRD for v in a.values))
    after = check_conditions(ap, out)
    if not after.member:
        raise NotMember("convex combination left the angle set")
    return out


def to_json(a: AngleAssignment) -> str:
    return json.dumps(
        {"angles": {str(i): f"{v.numerator}/{v.denominator}"
                    for i, v in enumerate(a.values)}})


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _table_entry(value) -> Fraction:
    """An int or a "p" / "p/q" string as a Fraction.  Floats, bools and
    decimal or exponent strings are refused: to_json never writes them,
    a float is a binary fraction, and "1e4000000" parses for seconds."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return Fraction(value)
    raise TypeError(f"{value!r} is not an integer or a 'p/q' string")


def from_json(text: str) -> AngleAssignment:
    """Read the format of to_json; ValueError on any other shape."""
    data = json.loads(text)
    table = data.get("angles") if isinstance(data, dict) else None
    if not isinstance(table, dict):
        raise ValueError('expected {"angles": {"0": r_0, "1": r_1, ...}}')
    try:
        values = [_table_entry(table[str(i)]) for i in range(len(table))]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad angle table entry: {exc!r}")
    return AngleAssignment(tuple(values))


def feasibility_to_json(rep: FeasibilityReport) -> str:
    out = {"verdict": rep.verdict,
           "max_slack": f"{rep.max_slack.numerator}/{rep.max_slack.denominator}"}
    if rep.witness is not None:
        out["witness"] = json.loads(to_json(rep.witness))["angles"]
    return json.dumps(out)
