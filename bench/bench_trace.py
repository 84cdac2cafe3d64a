"""Span tracing of the library's public functions, from outside the library.

`Tracer.install()` replaces each function in `TRACED` by a wrapper that
records one span per call: name, start, end and the span that was open
when it started.  Spans live in flat arrays until `summary()` derives
per-name call counts, inclusive time (outermost calls of a name only, so
recursion is not counted twice) and self time (duration minus the time
covered by child spans).  `uninstall()` puts the original functions back.

A wrapper sits on the module attribute, so it sees every call that looks
the name up on the module at call time: `complexes.dual(...)`, a call of
`dual(...)` from inside `complexes` itself, and `np.linalg.solve(...)`.
It cannot see call sites that bound the function with `from ... import`
before the wrapper was installed:

- `realize` binds `vertex_point`, `perp_plane`, `mdot`, `unit_spacelike`
  and `unit_timelike` from `minkowski`, so `minkowski.vertex_point.calls`
  counts only the calls made inside `minkowski` (`extract_combinatorics`,
  the prism builders), not `realize._bind` or `realize._pregauge`;
- `catalog` binds `complexes.build` and `complexes.primal`, so the
  primal built by `catalog.dodecahedron` and `catalog.split_prism` is
  not traced.

`mdot` is never wrapped: `realize` calls it about 200k times per op at
n=14, and a wrapper would cost more than the function.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

from andreev import angles, complexes, minkowski, realize, whitehead

# (module, attribute, span name).  The span name of prismatic_circuits
# gains a ".k3" / ".k4" suffix from its k argument.
TRACED: Tuple[Tuple[object, str, str], ...] = (
    (complexes, "dual", "complexes.dual"),
    (complexes, "primal", "complexes.primal"),
    (complexes, "prismatic_circuits", "complexes.prismatic_circuits"),
    (complexes, "quadrilateral_contexts", "complexes.quadrilateral_contexts"),
    (complexes, "isomorphic", "complexes.isomorphic"),
    (angles, "check_conditions", "angles.check_conditions"),
    (angles, "feasible", "angles.feasible"),
    (angles, "interior_path", "angles.interior_path"),
    (whitehead, "reduce_to_dn", "whitehead.reduce_to_dn"),
    (whitehead, "replay", "whitehead.replay"),
    (minkowski, "extract_combinatorics", "minkowski.extract_combinatorics"),
    (minkowski, "vertex_point", "minkowski.vertex_point"),
    (minkowski, "build_prism", "minkowski.build_prism"),
    (minkowski, "build_split_prism", "minkowski.build_split_prism"),
    (realize, "realize", "realize.realize"),
    (realize, "continue_path", "realize.continue_path"),
    (realize, "replay_whitehead", "realize.replay_whitehead"),
    (realize, "newton_solve", "realize.newton_solve"),
    (realize, "truncate_ideal", "realize.truncate_ideal"),
    (realize, "decompose", "realize.decompose"),
    (realize, "glue", "realize.glue"),
    (np.linalg, "solve", "numpy.linalg.solve"),
)

# Entry points that tell which pipeline a realize call took, checked in
# this order among the spans the call owns directly (not through a
# nested realize call): decompose only runs on the compound branch,
# reduce_to_dn on the simple one, interior_path on the truncated one.
# build_prism also runs inside build_split_prism on the simple branch,
# so it marks the prism branch only when nothing earlier matched.
BRANCH_MARKERS = (
    ("compound", "realize.decompose"),
    ("simple", "whitehead.reduce_to_dn"),
    ("truncated", "angles.interior_path"),
    ("prism", "minkowski.build_prism"),
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")    # a span of the same name was open
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._open_by_name: Dict[int, int] = {}
        self._saved: List[Tuple[object, str, Callable]] = []
        # prismatic_circuits calls on a (complex, k) pair already seen
        # in the same op: the work a cache on the complex would save.
        self._seen_circuits: set = set()
        self.circuit_calls = 0
        self.circuit_repeats = 0
        self.reduction_moves = 0

    # recording

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> int:
        nid = self._id(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open_by_name.get(nid, 0)
        self.nested.append(depth > 0)
        self._open_by_name[nid] = depth + 1
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def leave(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.name_id[sid]] -= 1

    def begin_op(self, name: str) -> int:
        """Open the root span of one op; starts a fresh repeat window."""
        self._seen_circuits.clear()
        return self.enter(name)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        if name == "complexes.prismatic_circuits":
            def wrapper(ap, k, *args, **kwargs):
                key = (ap.vertex_count, ap.faces, k)
                tracer.circuit_calls += 1
                if key in tracer._seen_circuits:
                    tracer.circuit_repeats += 1
                tracer._seen_circuits.add(key)
                sid = tracer.enter(f"{name}.k{k}")
                try:
                    return fn(ap, k, *args, **kwargs)
                finally:
                    tracer.leave(sid)
        elif name == "whitehead.reduce_to_dn":
            def wrapper(*args, **kwargs):
                sid = tracer.enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.leave(sid)
                tracer.reduction_moves += len(out.moves)
                return out
        else:
            def wrapper(*args, **kwargs):
                sid = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave(sid)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # aggregation

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, incl_s (outermost calls only) and self_s.

        Also `_branches`: for each root-level realize call, the branch it
        took and its duration, and `_self_total`: the sum of all self
        times, which equals the sum of the root spans' durations.
        """
        n = len(self.name_id)
        names = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool) if n else np.zeros(0, bool)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64)) if n else np.zeros(0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names[~nested], weights=dur[~nested], minlength=k)
        selfs = np.bincount(names, weights=self_t, minlength=k)
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                   "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)}
        out["_self_total"] = {"s": float(self_t.sum())}
        out["_branches"] = self._branches(names, parent, dur)
        return out

    def _branches(self, names, parent, dur) -> Dict[str, Dict[str, float]]:
        rid = self._name_ids.get("realize.realize")
        res: Dict[str, Dict[str, float]] = {
            b: {"calls": 0, "incl_s": 0.0} for b, _ in BRANCH_MARKERS}
        if rid is None:
            return res
        # owner[s]: the innermost realize span enclosing span s (itself
        # for a realize span).  Parents always precede children.
        owner = np.full(len(names), -1, dtype=np.int64)
        marks: Dict[int, set] = {}
        marker_ids = {self._name_ids[m]: b for b, m in BRANCH_MARKERS
                      if m in self._name_ids}
        for s in range(len(names)):
            p = parent[s]
            if names[s] == rid:
                owner[s] = s
            elif p >= 0:
                owner[s] = owner[p]
            b = marker_ids.get(int(names[s]))
            if b is not None and owner[s] >= 0:
                marks.setdefault(int(owner[s]), set()).add(b)
        for s in np.nonzero(names == rid)[0]:
            p = parent[s]
            if p >= 0 and owner[p] >= 0:
                continue  # nested realize call of a truncated/compound input
            got = marks.get(int(s), set())
            branch = next((b for b, _ in BRANCH_MARKERS if b in got), None)
            if branch is not None:
                res[branch]["calls"] += 1
                res[branch]["incl_s"] += float(dur[s])
        return res
