"""Exact rational checking of the five linear angle conditions and the
max-slack feasibility program that decides whether any angle vector
satisfies them all.

Angles are stored as fractions r with the dihedral angle meaning r*pi,
so every comparison below is exact integer arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class AngleAssignment:
    """Per-edge dihedral angles r_i, meaning alpha_i = r_i * pi."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(Fraction(v) for v in self.values))

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


@dataclass(frozen=True)
class FeasibilityReport:
    nonempty: bool
    max_slack: Fraction
    witness: Optional[AngleAssignment]

    @property
    def verdict(self) -> str:
        return "nonempty" if self.nonempty else "empty"


def check_conditions(ap: AbstractPolyhedron, a: AngleAssignment) -> ConditionReport:
    if len(a) != ap.edge_count:
        raise SizeMismatch(
            f"assignment has {len(a)} angles, complex has {ap.edge_count} edges")
    r = a.values

    nonpositive = tuple(i for i, v in enumerate(r) if v <= 0)
    obtuse = tuple(i for i, v in enumerate(r) if v > HALF)

    low = tuple(v for v in range(ap.vertex_count)
                if sum(r[e] for e in ap.vertex_edges(v)) <= 1)

    heavy3 = tuple(c.dual_nodes for c in complexes.prismatic_circuits(ap, 3)
                   if sum(r[e] for e in c.crossed_edges) >= 1)
    heavy4 = tuple(c.dual_nodes for c in complexes.prismatic_circuits(ap, 4)
                   if sum(r[e] for e in c.crossed_edges) >= 2)

    heavy_quads: List[Tuple[int, int]] = []
    for f, boundary, entering in complexes.quadrilateral_contexts(ap):
        base = sum(r[e] for e in entering)
        if base + r[boundary[0]] + r[boundary[2]] >= 3:
            heavy_quads.append((f, 0))
        if base + r[boundary[1]] + r[boundary[3]] >= 3:
            heavy_quads.append((f, 1))

    return ConditionReport(nonpositive, obtuse, low, heavy3, heavy4,
                           tuple(heavy_quads))


def _simplex_max(c: Sequence[Fraction], rows: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> Tuple[Fraction, List[Fraction]]:
    """Maximize c.x subject to rows.x <= rhs, x >= 0, all rhs >= 0.

    Dense tableau with Bland's rule, so no cycling and no tolerances.
    Returns (optimal value, optimizer).  Problems fed in here are always
    bounded, an unbounded pivot column raises ArithmeticError.
    """
    m, n = len(rows), len(c)
    # Tableau: each row is [a_1..a_n, s_1..s_m, rhs]; last row is the
    # objective in the form z - c.x = 0.
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


def feasible(ap: AbstractPolyhedron) -> FeasibilityReport:
    """Decide whether some angle vector satisfies all five conditions,
    by maximizing the minimum slack t:

        t <= r_i,  r_i <= 1/2,  vertex sums >= 1 + t,
        prismatic-3 sums <= 1 - t,  prismatic-4 sums <= 2 - t,
        quadrilateral sums <= 3 - t.

    The angle set is nonempty exactly when the optimum is positive.  To
    keep every variable nonnegative the program is solved in u = t + 1;
    the optimum t never goes below -1/2 (take all r_i = 1/2), so the
    substitution loses nothing.
    """
    E = ap.edge_count
    n = E + 1  # r_0..r_{E-1}, u
    zero = Fraction(0)
    one = Fraction(1)

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []

    def row(coeffs: Dict[int, Fraction], bound: Fraction):
        vec = [zero] * n
        for j, v in coeffs.items():
            vec[j] = v
        rows.append(vec)
        rhs.append(bound)

    for i in range(E):
        row({i: -one, E: one}, one)           # u - r_i <= 1
        row({i: one}, HALF)                   # r_i <= 1/2
    for v in range(ap.vertex_count):          # u - sum <= 0
        coeffs = {E: one}
        for e in ap.vertex_edges(v):
            coeffs[e] = coeffs.get(e, zero) - one
        row(coeffs, zero)
    for c in complexes.prismatic_circuits(ap, 3):
        coeffs = {E: one}
        for e in c.crossed_edges:
            coeffs[e] = coeffs.get(e, zero) + one
        row(coeffs, Fraction(2))
    for c in complexes.prismatic_circuits(ap, 4):
        coeffs = {E: one}
        for e in c.crossed_edges:
            coeffs[e] = coeffs.get(e, zero) + one
        row(coeffs, Fraction(3))
    for f, boundary, entering in complexes.quadrilateral_contexts(ap):
        for d in (0, 1):
            coeffs = {E: one}
            for e in entering + (boundary[d], boundary[d + 2]):
                coeffs[e] = coeffs.get(e, zero) + one
            row(coeffs, Fraction(4))

    objective = [zero] * E + [one]
    value, x = _simplex_max(objective, rows, rhs)
    slack = value - 1
    if slack <= 0:
        return FeasibilityReport(False, slack, None)
    witness = AngleAssignment(tuple(x[:E]))
    report = check_conditions(ap, witness)
    assert report.member, "feasibility witness failed the exact recheck"
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
