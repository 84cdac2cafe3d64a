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
integer data, and `_simplex_max` solves it with a dense tableau of
Python ints under Bland's rule.  Each stored row is the exact tableau
row times a positive scale that is never written down; pivoting
cross-multiplies instead of dividing and then removes the row's gcd.
Every pivoting decision reads only signs and ratios within one row,
which the scale leaves alone, so the pivots, the optimum and the
optimizer are exactly those of the same tableau kept in Fractions.
The witness is rechecked against the same table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

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


def _evaluate(table: Sequence[Condition], a: AngleAssignment) -> ConditionReport:
    """The violations of a among the edge bounds and the table's rows,
    decided in integers over the common denominator of a."""
    D = lcm(*{v.denominator for v in a.values})
    R = [v.numerator * (D // v.denominator) for v in a.values]
    hits: Dict[str, list] = {"low_vertices": [], "heavy_3circuits": [],
                             "heavy_4circuits": [], "heavy_quads": []}
    for field, label, sign, edges, bound in table:
        if sign * sum(map(R.__getitem__, edges)) >= bound * D:
            hits[field].append(label)
    return ConditionReport(
        nonpositive_edges=tuple(i for i, v in enumerate(R) if v <= 0),
        obtuse_edges=tuple(i for i, v in enumerate(R) if 2 * v > D),
        **{field: tuple(labels) for field, labels in hits.items()})


def _simplex_max(c: Sequence[int], rows: Sequence[Sequence[int]],
                 rhs: Sequence[int]) -> Tuple[Fraction, List[Fraction]]:
    """Maximize c.x subject to rows.x <= rhs, x >= 0, all rhs >= 0, for
    integer data.  Returns (optimal value, optimizer) as exact fractions.
    Problems fed in here are always bounded; an unbounded pivot column
    raises ArithmeticError.

    Dense tableau with Bland's rule, so no cycling and no tolerances,
    kept fraction-free: each stored row is an integer vector standing
    for the exact tableau row times a positive scale that is not kept.
    Pivoting on p = row_k[col] > 0 replaces every other row whose entry
    f in that column is not 0 by p*row - f*row_k (p and f first divided
    by their gcd), divided by the gcd of its entries; row_k stays as it
    is, the exact pivoted row times p.  Every decision reads only signs
    and ratios within one row, which a positive scale leaves alone: the
    entering column is the first negative entry of the objective row,
    and the ratio test compares rhs_i/a_i by cross-multiplying,
    b_i*a_best < b_best*a_i, with ties going to the smaller basis
    index.  So the pivots are exactly those of the same tableau kept in
    Fractions.  At the end the basic variable of row i is rhs_i over
    its own coefficient in that row, and the optimum is c.x.
    """
    m, n = len(rows), len(c)
    # Each row is [a_1..a_n, s_1..s_m, rhs]; the last row is the
    # objective in the form z - c.x = 0.
    tab = [list(rows[i]) + [int(i == j) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    tab.append([-ci for ci in c] + [0] * (m + 1))
    basis = list(range(n, n + m))

    while True:
        obj = tab[m]
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            break
        pivot_row = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if pivot_row is None:
                    pivot_row, b_best, a_best = i, tab[i][-1], a
                    continue
                lhs, rhs_best = tab[i][-1] * a_best, b_best * a
                if lhs < rhs_best or (lhs == rhs_best
                                      and basis[i] < basis[pivot_row]):
                    pivot_row, b_best, a_best = i, tab[i][-1], a
        if pivot_row is None:
            raise ArithmeticError("unbounded objective")
        piv = tab[pivot_row][col]
        # Pivot rows are sparse: update only where the pivot row is not 0.
        support = [(j, w) for j, w in enumerate(tab[pivot_row]) if w]
        for i in range(m + 1):
            row = tab[i]
            f = row[col]
            if i == pivot_row or f == 0:
                continue
            g = gcd(piv, f)
            p, f = piv // g, f // g
            if p != 1:
                row = [p * v for v in row]
            for j, w in support:
                row[j] -= f * w
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            tab[i] = row
        basis[pivot_row] = col

    # Equal values share one Fraction: optimizers repeat a few values
    # (often 1/3 on most edges), and callers keep them in witnesses.
    x = [Fraction(0)] * n
    values: Dict[Fraction, Fraction] = {}
    for i, b in enumerate(basis):
        if b < n:
            v = Fraction(tab[i][-1], tab[i][b])
            x[b] = values.setdefault(v, v)
    return sum((ci * xi for ci, xi in zip(c, x)), Fraction(0)), x


def _program(edge_count: int, table: Sequence[Condition]) -> Tuple[
        List[int], List[List[int]], List[int]]:
    """The max-slack program of `feasible` as integer data (c, rows, rhs)
    for `_simplex_max`, in u = t + 1 over the variables r_0..r_{E-1}, u:
    two rows per edge, then one row sign * sum + u <= bound + 1 per
    condition of the table.
    """
    E = edge_count
    n = E + 1
    rows: List[List[int]] = []
    rhs: List[int] = []

    def row(edges, sign: int, bound: int):
        vec = [0] * n
        vec[E] = 1
        for e in edges:
            vec[e] += sign
        rows.append(vec)
        rhs.append(bound)

    for i in range(E):
        row((i,), -1, 1)                      # u - r_i <= 1
        vec = [0] * n
        vec[i] = 2
        rows.append(vec)                      # 2 r_i <= 1
        rhs.append(1)
    for _, _, sign, edges, bound in table:
        row(edges, sign, bound + 1)
    return [0] * E + [1], rows, rhs


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


def from_json(text: str) -> AngleAssignment:
    """Read the format of to_json; ValueError on any other shape."""
    data = json.loads(text)
    table = data.get("angles") if isinstance(data, dict) else None
    if not isinstance(table, dict):
        raise ValueError('expected {"angles": {"0": r_0, "1": r_1, ...}}')
    try:
        values = [Fraction(table[str(i)]) for i in range(len(table))]
    except (KeyError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"bad angle table entry: {exc!r}")
    return AngleAssignment(tuple(values))


def feasibility_to_json(rep: FeasibilityReport) -> str:
    out = {"verdict": rep.verdict,
           "max_slack": f"{rep.max_slack.numerator}/{rep.max_slack.denominator}"}
    if rep.witness is not None:
        out["witness"] = json.loads(to_json(rep.witness))["angles"]
    return json.dumps(out)
