"""Print the sha256 of every realize output on a fixed corpus, one line
per input: its name, its outcome (ok, or the RealizeError raised) and
the hash of its normals and points.

A refactor that must not move a bit of geometry runs this on the parent
and on the change and compares the two outputs:

    PYTHONPATH=src python tests/output_hashes.py > after.txt
    PYTHONPATH=<parent checkout>/src python tests/output_hashes.py > before.txt
    diff before.txt after.txt

The corpus (52 inputs): the bench realize corpus at seeds 0 and 1, the
staged cuts of tests/test_realize.py (STAGED plus the four-vertex cut)
and the cube with corner cubes glued on at (0), (0, 2) and (0, 2, 5),
each at its feasible witness, and the truncated tetrahedron and the
corner-truncated cube at theirs.  Every input is a fresh copy, as the
bench hands them to its ops.  BLAS runs one thread, as in the bench:
outputs can differ by thread count.  Not collected by pytest.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads BLAS

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from bench_workloads import fresh, realize_corpus  # noqa: E402
from conftest import cube_with_corner_cubes  # noqa: E402
from test_realize import STAGED, staged_cut  # noqa: E402

from andreev import angles, catalog, realize  # noqa: E402


def corpus():
    """(name, complex, angles) for every input, in a fixed order."""
    for w in (0, 1):
        for it in realize_corpus(w):
            yield f"bench{w}/{it.name}", it.ap, it.angles
    aps = [staged_cut(n, s) for n, s in STAGED]
    aps += [staged_cut(24, 0, (0, 3, 5, 7))]
    aps += [cube_with_corner_cubes(c) for c in ((0,), (0, 2), (0, 2, 5))]
    aps += [catalog.truncated_tetrahedron(), catalog.corner_truncated_cube()]
    for ap in aps:
        yield ap.name, ap, angles.feasible(ap).witness


def main():
    for name, ap, a in corpus():
        try:
            r = realize.realize(fresh(ap), a)
        except realize.RealizeError as exc:
            print(name, type(exc).__name__, "-")
            continue
        digest = hashlib.sha256(r.normals.tobytes() + r.points.tobytes())
        print(name, "ok", digest.hexdigest())


if __name__ == "__main__":
    main()
