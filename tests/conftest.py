import math
import os

import numpy as np
import pytest

from andreev import catalog, complexes, minkowski


def pytest_report_header(config):
    """The BLAS thread settings and numpy version, on which the last bits
    of the solves, and so the outcomes of near-tolerance tests, depend."""
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"numpy {np.__version__}; {threads}"


def pytest_terminal_summary(terminalreporter, config):
    # -q prints no header; state the same line at the end instead.
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(config))


def brute_prismatic(ap, k):
    """Independent circuit oracle: enumerate every simple k-cycle of the
    dual by DFS and keep those whose crossed primal edges have pairwise
    distinct endpoints."""
    dc = complexes.dual(ap)
    adj = dc.adjacency()
    n = len(adj)
    cycles = set()
    for start in range(n):
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in adj[node]:
                if nxt == start and len(path) == k:
                    rot = min(path[i:] + path[:i] for i in range(k))
                    rev = tuple(reversed(rot))
                    rot2 = min(rev[i:] + rev[:i] for i in range(k))
                    cycles.add(min(rot, rot2))
                elif nxt not in path and len(path) < k:
                    stack.append((nxt, path + (nxt,)))
    out = []
    for cyc in sorted(cycles):
        crossed = []
        for i in range(k):
            a, b = cyc[i], cyc[(i + 1) % k]
            crossed.append(ap.edge_between_faces(a, b))
        ends = []
        for e in crossed:
            u, v = ap.edges[e][0], ap.edges[e][1]
            ends += [u, v]
        if len(set(ends)) == 2 * k:
            out.append((cyc, tuple(crossed)))
    return out


def built_prism(n, polygon_angle, gap=0.1):
    """build_prism's planes, certified on catalog.prism(n)."""
    return minkowski.certify(
        catalog.prism(n), minkowski.build_prism(n, polygon_angle, gap))


def built_split_prism(n):
    """build_split_prism's planes, certified on catalog.split_prism(n)."""
    return minkowski.certify(catalog.split_prism(n),
                             minkowski.build_split_prism(n))


def gram_residual(r, target):
    """Max violation of the unit-norm and edge-angle equations."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    V = np.array(r.normals)
    G = V @ eta @ V.T
    worst = max(abs(G[i, i] - 1.0) for i in range(len(V)))
    for e, (_, _, fa, fb) in enumerate(r.complex.edges):
        worst = max(worst, abs(G[fa, fb] + math.cos(float(target[e]) * math.pi)))
    return worst


def glued_duals(d1, t1, d2, t2):
    """The dual of two polyhedra glued across triangular faces t1 of d1
    and t2 of d2: both nodes are deleted and their links identified with
    reversed orientation.  d1's other nodes keep their order, renumbered
    past t1; d2's non-link nodes follow."""
    link1, link2 = d1.rotation[t1], d2.rotation[t2]
    assert len(link1) == len(link2) == 3
    ids = {x: i for i, x in enumerate(x for x in range(d1.node_count)
                                      if x != t1)}
    ids2 = {link2[i]: ids[link1[-i % 3]] for i in range(3)}
    for x in range(d2.node_count):
        if x != t2 and x not in ids2:
            ids2[x] = len(ids) + len(ids2) - 3
    tris = [tuple(sorted(ids[x] for x in t))
            for t in d1.triangles if t1 not in t]
    tris += [tuple(sorted(ids2[x] for x in t))
             for t in d2.triangles if t2 not in t]
    return complexes.DualComplex(node_count=len(ids) + len(ids2) - 3,
                                 triangles=tuple(sorted(tris)))


def cube_with_corner_cubes(corners):
    """The cube with the listed corners cut and a corner-truncated cube
    glued across each cut triangle: one essential 3-circuit per corner,
    made of the corner's three faces, so two circuits share the faces
    their corners share."""
    d = complexes.dual(catalog.truncate_vertices(catalog.cube(), corners,
                                                 name="cube_cut"))
    cap = complexes.dual(catalog.corner_truncated_cube())
    # truncate_vertices appends the triangles after the cube's six faces;
    # gluing the last first keeps the earlier ones' node ids.
    for t in reversed(range(6, 6 + len(corners))):
        d = glued_duals(d, t, cap, 6)
    return complexes.primal(
        d, name="cube_glued_" + "_".join(map(str, corners)))


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus()
