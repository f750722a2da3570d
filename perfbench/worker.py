"""One benchmark pass in a fresh process: set up, run the timed region, check.

    python3 perfbench/worker.py --workload refine --seed 0 --trace 0 --check 1 --workdir DIR

Set-up is everything from process start to the timed region: importing
gradedproj (cold, as a user's process does) and building the input plan.  The
last stdout line is a JSON record of the pass; run.py aggregates passes.

The timed region's times are scaled to the host's reference speed: a fixed
reference task of the same kind as the timed region is timed right before
and right after it, and times are multiplied by the task's REFERENCE_S over
its mean.  On a shared host the same pass runs up to twice as slow for
seconds to minutes; the reference slows with it, so the scaled times move
far less between runs, while a change to gradedproj moves them as much as
the raw ones.  A set-up-only pass scales its set-up time (imports in a new
process) by the "spawn" reference.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, span_cost_s  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
# each reference task's typical time on the host the benchmark was built on
# (see NOTES.md), so that scaled times read as seconds on that host
REFERENCE_S = {"compute": 0.125, "spawn": 0.5}

SUMMED_COUNTERS = (
    "mesh.bisections",
    "mesh.marked",
    "polyspace.dofs",
    "polyspace.mass_nnz",
    "projection.form_nnz",
    "projection.decay_shells",
    "cli.output_bytes",
)


def tail_ms_per_bisection(spans) -> float:
    """Milliseconds per bisection over the last tenth of each refine sequence."""
    by_seq = defaultdict(list)
    for rec in spans:
        if rec["name"] == "mesh.refine_lg" and "seq" in rec["attrs"]:
            by_seq[rec["attrs"]["seq"]].append(rec)
    secs = bisections = 0
    for rounds in by_seq.values():
        for rec in rounds[-max(1, len(rounds) // 10):]:
            secs += rec["end"] - rec["start"]
            bisections += rec["attrs"]["bisections"]
    return 1000.0 * secs / bisections if bisections else 0.0


def reference_s(kind: str) -> float:
    """Seconds a fixed reference task takes now.

    "compute": dict and sort work, Fraction sums and small-array numpy, the
    kinds of work gradedproj does in process, without BLAS, whose thread
    count the program under test could change.  "spawn": a new interpreter
    that imports numpy and scipy, as each cli command starts.
    """
    from fractions import Fraction

    import numpy as np

    t0 = time.perf_counter()
    if kind == "spawn":
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, scipy.sparse.linalg"], check=True)
        return time.perf_counter() - t0
    table = {}
    for i in range(60000):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: kv[1])
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(i % 7, i % 11 + 1)
    vec = np.arange(30.0)
    for i in range(6000):
        (vec * i + 1.0).sum() + vec @ vec
    return time.perf_counter() - t0


def layer_metrics(tracer, ops, import_s: float, speed: float) -> dict:
    """The traced pass's counters, rates and tracing cost, the timed region's
    times scaled by ``speed``; run.py adds the layer times from the pass's
    parts."""
    out = {key: sum(op.counters.get(key, 0) for op in ops) for key in SUMMED_COUNTERS}
    out["mesh.closure_ratio"] = out["mesh.bisections"] / out["mesh.marked"] if out["mesh.marked"] else 0.0
    out["mesh.ms_per_bisection_tail"] = speed * tail_ms_per_bisection(tracer.spans)
    out["cli.import_s"] = import_s
    times = [op.result["times"] for op in ops if "times" in op.result]
    out["cli.command_import_s"] = speed * sum(t["import_s"] for t in times)
    out["cli.main_s"] = speed * sum(t["main_s"] for t in times)
    # what tracing adds to the timed region: every span pays the traced
    # wrapper, where an untraced pass pays the cheaper step wrapper on the
    # non-root spans only
    traced_s, step_s = span_cost_s(True), span_cost_s(False)
    steps = sum(rec["parent"] is not None for rec in tracer.spans)
    out["trace.spans"] = len(tracer.spans)
    out["trace.span_us"] = speed * 1e6 * traced_s
    out["trace.overhead_s"] = speed * (len(tracer.spans) * traced_s - steps * step_s)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import gradedproj.cli  # noqa: F401  (the whole package, cold)

    import_s = time.perf_counter() - t0
    if SRC not in Path(gradedproj.cli.__file__).resolve().parents:
        print(f"gradedproj imported from {gradedproj.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    specs = workloads.plan(args.workload, args.seed)
    tracer = Tracer(bool(args.trace))
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * REFERENCE_S["spawn"] / reference_s("spawn")}))
        return 0
    kind = "spawn" if args.workload == "cli" else "compute"
    ref_before = reference_s(kind)

    t1 = time.perf_counter()
    ops = []
    for spec in specs:
        ops.extend(workloads.run_spec(args.workload, spec, tracer, workdir))
    wall_s = time.perf_counter() - t1
    ref_s = (ref_before + reference_s(kind)) / 2
    speed = REFERENCE_S[kind] / ref_s
    rss_kb = max(resource.getrusage(r).ru_maxrss for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    t_check = time.perf_counter()
    failures = {}
    if args.check:
        for op in ops:
            if op.result:
                bad = workloads.check_op(args.workload, op)
                if bad:
                    failures[op.name] = bad
    record = {
        "wall_s": speed * wall_s,
        "raw_wall_s": wall_s,
        "ref_s": ref_s,
        "parts": [(name, speed * secs) for name, secs in tracer.parts(wall_s)],
        "peak_rss_mb": rss_kb / 1024.0,
        "work": sum(op.work for op in ops),
        "ops": [op.record() for op in ops],
        "checked": bool(args.check),
        "check_s": time.perf_counter() - t_check,
        "check_failures": failures,
    }
    if args.trace:
        tracer.write(workdir / "spans.jsonl")
        record["layers"] = layer_metrics(tracer, ops, import_s, speed)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
