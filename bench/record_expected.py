"""Record each input's expected outcome into bench/expected.json.

    python3 bench/record_expected.py --workload realize --seeds 0-23

For every input of the workload's corpora at those seeds that is not
recorded yet, run its op once and store the outcome ("ok" or the
exception type) with the values the benchmark compares exactly
(feasible: verdict and max_slack; combinatorics: reduction length and
end, circuit counts).  An output that fails its check is not recorded:
the script stops instead.  Existing entries are never changed; delete
one by hand to record it again.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import run


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["realize", "feasible", "combinatorics"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0"))
    args = ap.parse_args(argv)
    run.import_library()
    from andreev import angles, catalog, realize
    from bench_workloads import WORKLOADS, fresh

    path = run.HERE / "expected.json"
    expected = run.load_expected() if path.exists() else {}
    wl = WORKLOADS[args.workload]
    table = expected.setdefault(wl.name, {})
    if wl.name == "realize":
        # Andreev's theorem needs N >= 5, so the tetrahedron stays out of
        # the corpus; record what realize does with it today.
        tet = catalog.tetrahedron()
        a = angles.AngleAssignment.uniform(tet.edge_count, Fraction(2, 5))
        try:
            realize.realize(tet, a)
            got = "ok"
        except Exception as exc:
            got = f"{type(exc).__module__}.{type(exc).__name__}"
        expected.setdefault("excluded", {})["realize tetrahedron (N < 5)"] = got
    for seed in args.seeds:
        for it in wl.corpus(seed):
            if it.name in table:
                continue
            try:
                out = wl.op(it, fresh(it.ap))
            except Exception as exc:
                table[it.name] = {"outcome": type(exc).__name__}
            else:
                why = wl.check(it, out, None)
                if why is not None:
                    print(f"{it.name}: {why}", file=sys.stderr)
                    return 1
                table[it.name] = {"outcome": "ok", **wl.record(it, out)}
            print(wl.name, seed, it.name, table[it.name], flush=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
