"""The census of tests/census.py up to nine faces: the generator finds
every triangulation of the sphere with up to nine nodes, once each, and
every cell structure with five to nine faces realizes."""

from collections import Counter

from census import check, inputs, triangulations

from andreev import complexes

# OEIS A000109, triangulations of the sphere by node count.
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50}
# Realizes per branch up to nine faces, in the bench's branch names.
BRANCHES = {"prism": 9, "simple": 8, "truncated": 19, "compound": 44}


def test_counts_match_a000109():
    found = triangulations(9)
    assert {n: len(duals) for n, duals in found.items()} == A000109
    for n, duals in found.items():
        for dc in duals:
            assert len(dc.triangles) == 2 * n - 4
            assert complexes.primal(dc).face_count == n
        traces = {complexes._canonical_form(dc)[0] for dc in duals}
        assert len(traces) == len(duals)


def test_every_cell_structure_up_to_nine_faces_realizes():
    """Each complex with 5-9 faces at its feasible witness, and at
    uniform 2/5 when simple: 72 complexes, all with a nonempty angle
    set, and 80 realizes, each attributed to one branch by the bench's
    tracer."""
    cases = list(inputs(9))
    assert len({ap.name for _, ap, _ in cases}) == 72
    assert len(cases) == 80
    outcomes = {name: check(name, ap, a) for name, ap, a in cases}
    assert {name: w for name, (_, w) in outcomes.items()
            if w is not None} == {}
    assert Counter(kind for kind, _ in outcomes.values()) == BRANCHES
