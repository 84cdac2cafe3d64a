"""Benchmark of the andreev pipeline, end to end and layer by layer.

    python3 bench/run.py --workload realize --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --out bench/out/all.json

Run from the repository root; the library is imported from `src/`.
One process, one closed-loop client: each op starts when the previous
one has returned.  A run

1. sets up `SETUP_REPS` times (corpus generation and one warm-up op)
   and reports the median as `setup_s`, plus the import time;
2. makes full passes over the corpus, each pass visiting every input
   once in an order rotated by one from the previous pass, until
   `--seconds` have passed and at least `MIN_PASSES` passes are made;
3. checks every output outside the timed region, compares each input's
   outcome (ok or the exception type) with `expected.json`, and prints
   every change as its own line;
4. prints every metric with its unit and sample count, and as its last
   line one JSON object: {"correct", "attempted", "failed", "metrics"}.

Host factor.  The reference host (2 vCPU Xeon) shares its cores: its
speed moves between two levels about 1.6x apart, within a second and
over stretches of a minute, and CPU time follows wall time, so two runs
of the same code differ by up to a third.  Before every op the run
times a fixed sum of Fractions (`host_probe`, no library code), and
every time metric is multiplied by the run's host factor, REF_PROBE_S
over the mean probe time: it reads in seconds of the reference host at
its typical speed.  A slower library still reads slower by the same
ratio; the factor only takes out how fast the host ran during the run.
Each time metric is also printed as timed.

End-to-end metrics, times scaled by the host factor: `setup_s`;
`ops_per_s`, the inputs whose ops succeeded over the sum of per-input
median op times; `op_s_p50` and `op_s_tail`, Harrell-Davis estimates
over all op times of the median and of the highest percentile with at
least ten samples beyond it (`tail_level`); `ok_frac`, ops that
returned a checked output over ops attempted (an exception or a failed
check is a failure); `peak_rss_mb`.

With `--trace 1` every op runs twice in a row, once untraced and once
traced (`bench_trace.Tracer`), for as many passes as fit the seconds.
The metrics are then the per-layer ones, each per pass, plus
`tracing.overhead_frac`: traced over untraced op time, minus one.
`--workload all` runs every workload in turn in this one process and
writes all results to `--out`.

Exit codes: 0 after a result, 2 when the library cannot be imported
from `src/` or the arguments are wrong.
"""

from __future__ import annotations

import os

# Small dense solves: BLAS threads only add noise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MIN_PASSES = 3  # untraced; so that every input has a median
TAIL_BEYOND = 10
PROBE_TERMS = 600
# Seconds of one host probe on the reference host at its typical speed.
REF_PROBE_S = 2.6e-3
SELF_SUM_TOL = 0.05


def import_library() -> float:
    """Import andreev from ROOT/src and return the seconds it took."""
    src = ROOT / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import andreev
    if not Path(andreev.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"andreev resolved to {andreev.__file__}, not {src}")
    import bench_trace  # noqa: F401  (imports numpy and every module)
    import bench_workloads  # noqa: F401
    return time.perf_counter() - t0


def machine() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def host_probe() -> float:
    """Seconds of a fixed sum of Fractions, the kind of work the exact
    layers do: how fast the host runs right now.  It runs no code of the
    library, so no change to the library moves it."""
    from fractions import Fraction
    t0 = time.perf_counter()
    sum(Fraction(1, k) for k in range(1, PROBE_TERMS))
    return time.perf_counter() - t0


def hd_quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  A single order statistic jumps whenever one
    input's time passes another's, which a corpus of a few dozen inputs
    of very different cost makes common; this estimate moves smoothly."""
    import numpy as np
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=1.0)
    return float(np.diff(edges) @ xs)


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def setup(wl, seed: int, reps: int = SETUP_REPS):
    """Build the corpus `reps` times, each followed by one warm-up op on
    its first input; return the last corpus, every set-up time and host
    probes taken around them."""
    from bench_workloads import fresh
    times, probes = [], [host_probe()]
    for _ in range(reps):
        t0 = time.perf_counter()
        items = wl.corpus(seed)
        try:
            wl.op(items[0], fresh(items[0].ap))
        except Exception:
            pass  # a failing warm-up input still warms the code
        times.append(time.perf_counter() - t0)
        probes.append(host_probe())
    return items, times, probes


def run_op(wl, it, tracer=None):
    """One op on a fresh copy of the input, traced when a tracer is
    given: (seconds, output, error type)."""
    from bench_workloads import fresh
    ap = fresh(it.ap)
    if tracer is not None:
        tracer.install()
    try:
        sid = tracer.begin_op(f"op.{wl.name}") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, err = wl.op(it, ap), None
        except Exception as exc:  # the op's failure is its result
            out, err = None, type(exc).__name__
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.leave(sid)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return dt, out, err


def tail_level(n_items: int) -> float:
    """The highest quantile level with at least TAIL_BEYOND samples
    beyond it in a run of MIN_PASSES passes over n_items inputs, but not
    below the median.  Every run makes at least that many passes, so at
    least as many samples lie beyond it; a level set by the corpus, not
    by the pass count the host's speed allowed, falls on the same input
    from run to run."""
    n = MIN_PASSES * n_items
    return max(0.5, (n - TAIL_BEYOND) / n)


def measure(wl, items, seconds: float, min_passes: int, tracer=None):
    """Make full passes until `seconds` have passed, at least
    `min_passes`.  With a tracer every op runs twice in a row, once
    traced and once not, in alternating order, so that the overhead is
    measured on the same input at nearly the same moment.

    Returns op records [item index, pass, traced, seconds, output, error
    type], the wall time of each pass and a host probe before every op
    (or pair of ops) and after the last.
    """
    ops, pass_wall, probes = [], [], []
    n = len(items)
    t_end = time.perf_counter() + seconds
    p = 0
    while p < min_passes or time.perf_counter() < t_end:
        offset = p % n
        t_pass = time.perf_counter()
        for k in range(n):
            i = (offset + k) % n
            probes.append(host_probe())
            modes = [False] if tracer is None else [(p + k) % 2 == 1, (p + k) % 2 == 0]
            for traced in modes:
                ops.append([i, p, traced, *run_op(wl, items[i], tracer if traced else None)])
        pass_wall.append(time.perf_counter() - t_pass)
        p += 1
    probes.append(host_probe())
    return ops, pass_wall, probes


def verify(wl, items, ops, expected: dict):
    """Check every output and mark each op ok or not; compare each
    input's outcome with the recorded one.  Returns (correct, lines)."""
    lines = []
    correct = True
    want = expected.get(wl.name, {})
    outcome = {}
    for op in ops:
        i, _, _, _, out, err = op
        it = items[i]
        rec = want.get(it.name)
        if rec is not None and rec["outcome"] != "ok":
            rec = None  # no recorded output to compare with
        if err is None:
            why = wl.check(it, out, rec)
            if why is not None:
                correct = False
                err = "check failed: " + why
                lines.append(f"WRONG OUTPUT {wl.name} {it.name}: {why}")
        op[5] = err
        op[4] = None  # outputs are not kept past their check
        outcome.setdefault(i, err or "ok")
    if wl.input_check is not None:
        for it in items:
            why = wl.input_check(it, want.get(it.name))
            if why is not None:
                correct = False
                lines.append(f"WRONG INPUT {wl.name} {it.name}: {why}")
    unrecorded = 0
    for i, got in sorted(outcome.items()):
        rec = want.get(items[i].name)
        if rec is None:
            unrecorded += 1
        elif rec["outcome"] != got:
            lines.append(f"OUTCOME CHANGE {wl.name} {items[i].name}: "
                         f"recorded {rec['outcome']}, now {got}")
    if unrecorded:
        lines.append(f"note: {unrecorded} inputs of {wl.name} have no "
                     f"recorded outcome (seed not in expected.json)")
    return correct, lines


def medians(ops, n_items, traced=False):
    """Each input's median op time over the passes (traced or not)."""
    times = [[] for _ in range(n_items)]
    for i, _, mode, dt, _, _ in ops:
        if mode == traced:
            times[i].append(dt)
    return [statistics.median(ts) for ts in times]


def end_to_end(ops, n_items, passes, setup_s, n_setup, host):
    """The end-to-end metrics, each with its unit and a note; every
    time is multiplied by `host`, the run's host factor."""
    lat = [host * op[3] for op in ops]
    ok = [op[5] is None for op in ops]
    ok_share = sum(ok) / passes  # inputs that succeeded, per pass
    level = tail_level(n_items)
    return {
        "setup_s": (host * setup_s, "s",
                    f"median of {n_setup} set-ups + import"),
        "ops_per_s": (ok_share / (host * sum(medians(ops, n_items))), "1/s",
                      f"ok ops per pass over the sum of {n_items} "
                      f"per-input medians of {passes} passes"),
        "op_s_p50": (hd_quantile(lat, 0.5), "s", f"Harrell-Davis, n={len(lat)}"),
        "op_s_tail": (hd_quantile(lat, level), "s",
                      f"p{100 * level:.1f}, Harrell-Davis, n={len(lat)}"),
        "ok_frac": (sum(ok) / len(ok), "ratio", f"{sum(ok)}/{len(ok)} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "whole process"),
    }


def per_layer(tracer, ops, items, passes_traced):
    """Per-layer metrics per traced pass, the overhead and a self-check
    that self times add up to the traced op time."""
    s = tracer.summary()
    k = max(passes_traced, 1)

    def stat(name, key):
        return s.get(name, {}).get(key, 0) / k

    m = {}
    three = ("minkowski.extract_combinatorics", "angles.check_conditions",
             "complexes.prismatic_circuits.k3", "complexes.prismatic_circuits.k4",
             "realize.replay_whitehead", "whitehead.reduce_to_dn",
             "angles.feasible")
    for name in three:
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
        m[f"{name}.incl_s"] = (stat(name, "incl_s"), "s")
        m[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    m["minkowski.vertex_point.calls"] = (stat("minkowski.vertex_point", "calls"), "count")
    m["minkowski.build_split_prism.incl_s"] = (stat("minkowski.build_split_prism", "incl_s"), "s")
    m["numpy.linalg.solve.calls"] = (stat("numpy.linalg.solve", "calls"), "count")
    m["numpy.linalg.solve.incl_s"] = (stat("numpy.linalg.solve", "incl_s"), "s")
    m["realize.continue_path.self_s"] = (stat("realize.continue_path", "self_s"), "s")
    m["complexes.dual.calls"] = (stat("complexes.dual", "calls"), "count")
    for name in ("complexes.primal", "complexes.isomorphic"):
        m[f"{name}.incl_s"] = (stat(name, "incl_s"), "s")
    m["whitehead.moves"] = (tracer.reduction_moves / k, "count")
    m["complexes.prismatic_circuits.repeat_frac"] = (
        tracer.circuit_repeats / max(tracer.circuit_calls, 1), "ratio")
    for b, v in s["_branches"].items():
        m[f"realize.branch.{b}.calls"] = (v["calls"] / k, "count")
        m[f"realize.branch.{b}.incl_s"] = (v["incl_s"] / k, "s")

    traced = [op for op in ops if op[2]]
    n_ok = sum(op[5] is None for op in traced)
    m["realize.solves_per_ok"] = (
        s.get("numpy.linalg.solve", {}).get("calls", 0) / max(n_ok, 1), "ratio")
    # Overhead from per-input medians, as the end-to-end run takes them.
    m["tracing.overhead_frac"] = (
        sum(medians(ops, len(items), True))
        / sum(medians(ops, len(items), False)) - 1.0, "ratio")

    traced_wall = sum(op[3] for op in traced)
    self_total = s["_self_total"]["s"]
    ok = traced_wall > 0 and abs(self_total / traced_wall - 1.0) <= SELF_SUM_TOL
    note = (f"self times sum to {self_total:.4f} s over {traced_wall:.4f} s "
            f"of traced ops")
    return m, ok, note


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 import_s: float, expected: dict):
    """Set up, measure and check one workload; return the result object
    and the lines to print before it."""
    from bench_trace import Tracer
    name = wl.name
    items, setup_times, probes = setup(wl, seed)
    setup_s = import_s + statistics.median(setup_times)
    tracer = Tracer() if trace else None
    ops, pass_wall, op_probes = measure(wl, items, seconds,
                                        1 if trace else MIN_PASSES, tracer)
    probes += op_probes
    host = REF_PROBE_S / statistics.mean(probes)
    passes = len(pass_wall)
    correct, lines = verify(wl, items, ops, expected)
    lines.append(f"{name}: {len(items)} inputs, {passes} passes, pass walls "
                 + ", ".join(f"{w:.3f}" for w in pass_wall) + " s; set-ups "
                 + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    lines.append(f"host probe: {len(probes)} probes, mean "
                 f"{1e3 * statistics.mean(probes):.3f} ms, min "
                 f"{1e3 * min(probes):.3f} ms, max {1e3 * max(probes):.3f} ms; "
                 f"host factor {host:.4f}")
    if trace:
        metrics, self_ok, note = per_layer(tracer, ops, items, passes)
        lines.append(("" if self_ok else "TRACE CHECK FAILED: ") + note)
        correct = correct and self_ok
        labels = {k: f"per pass, {passes} traced passes" for k in metrics}
    else:
        e2e = end_to_end(ops, len(items), passes, setup_s, len(setup_times),
                         host)
        raw = end_to_end(ops, len(items), passes, setup_s, len(setup_times),
                         1.0)
        metrics = {k: v[:2] for k, v in e2e.items()}
        labels = {k: v[2] + (f"; {raw[k][0]:.6g} {v[1]} as timed"
                             if raw[k][0] != v[0] else "")
                  for k, v in e2e.items()}
    for k, (v, unit) in metrics.items():
        lines.append(f"{name} {k} = {v:.6g} {unit} ({labels[k]})")
    attempted = len(ops)
    failed = sum(op[5] is not None for op in ops)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["realize", "feasible", "combinatorics", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="with --workload all: write results here")
    args = ap.parse_args(argv)

    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"cannot import the andreev library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    expected = load_expected()
    info = machine()
    print("machine: " + json.dumps(info), flush=True)

    names = (["realize", "feasible", "combinatorics"]
             if args.workload == "all" else [args.workload])
    from bench_workloads import WORKLOADS
    results = {}
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), import_s, expected)
        for line in lines:
            print(line, flush=True)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    summary = {"machine": info, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "results": results}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
