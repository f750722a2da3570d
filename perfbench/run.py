"""gradedproj benchmark: one workload, measured in fresh worker processes.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 20 --trace 0

Workloads: refine, certify, stability, cli (see perfbench/NOTES.md).  Each
pass runs the whole workload in a new process, so imports and the exact
reference tables start cold, as they do for a user.  Passes repeat until
--seconds have gone by, not counting the checks (at least three passes).
The first pass also checks every output; later passes must reproduce its
deterministic counters and digests exactly.  --trace 0 reports the
end-to-end metrics over all passes; --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones plus the tracing
overhead.  The last stdout line is the JSON result; metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine", "certify", "stability", "cli")
MIN_PASSES = 3
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc: int) -> dict:
    """The user's environment with gradedproj from this checkout and BLAS
    threads capped at nproc; GP_THREADS stays unset, as users run it."""
    env = dict(os.environ)
    env.pop("GP_THREADS", None)
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float) -> tuple[int | None, str, str]:
    """Run a process in its own session; on timeout kill the whole group and wait."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out.decode(errors="replace"), err.decode(errors="replace")
    except BaseException:  # interrupted or terminated: take the child group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.decode(errors="replace"), err.decode(errors="replace")


def worker_argv(args, workdir: Path, *flags: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *flags,
    ]


def median(values):
    return statistics.median(values) if values else 0.0


def region_parts(records: list[dict]) -> dict[str, float]:
    """The timed region's cost per part name (see tracing.Tracer.parts): for
    each part, at the same position in every pass, the median of its scaled
    time over the passes, summed per name.  A pass's parts add up to its
    timed region.

    The work of a part is identical in every pass, so a slowdown that hits
    one pass in one step is left out without waiting for the whole pass to
    be the outlier.  Passes that made different calls are compared by their
    per-name totals.
    """
    rows = [r["parts"] for r in records]
    names = [name for name, _ in rows[0]]
    out: dict[str, float] = defaultdict(float)
    if all([name for name, _ in row] == names for row in rows):
        for k, name in enumerate(names):
            out[name] += median([row[k][1] for row in rows])
        return out
    totals = []
    for row in rows:
        total: dict[str, float] = defaultdict(float)
        for name, secs in row:
            total[name] += secs
        totals.append(total)
    for name in set().union(*totals):
        out[name] = median([total[name] for total in totals])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_run = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gradedproj" / "cli.py").is_file():
        print(f"no gradedproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    run_dir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Warm-up, not measured: compiles bytecode and reports the environment.
    probe = (
        "import json, platform, numpy, scipy, gradedproj.cli as c;"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'gradedproj': c.__file__}))"
    )
    code, out, err = run_child([sys.executable, "-c", probe], env, run_dir, 60)
    if code != 0:
        print(f"cannot import gradedproj from {ROOT / 'src'}:\n{err}", file=sys.stderr)
        return 2
    info = json.loads(out.strip().splitlines()[-1])
    info.update({"nproc": nproc, "blas_threads": {v: env[v] for v in BLAS_VARS}, "GP_THREADS": None})
    print("# env " + json.dumps(info, sort_keys=True))

    passes = []  # (traced, record or None)
    t_measure = time.monotonic()
    longest = checks_s = 0.0
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - t_run)
        argv = worker_argv(args, run_dir / f"pass{index}", "--trace", str(int(traced)), "--check", str(int(index == 0)))
        t0 = time.monotonic()
        code, out, err = run_child(argv, env, ROOT, remaining - 2)
        longest = max(longest, time.monotonic() - t0)
        record = json.loads(out.strip().splitlines()[-1]) if code == 0 and out.strip() else None
        if record is None:
            print(f"# pass {index} failed (exit {code}): {err.strip()[-2000:]}")
        passes.append((traced, record))
        checks_s += record["check_s"] if record else 0.0
        elapsed = time.monotonic() - t_measure - checks_s  # the checks do not shorten the measurement
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if time.monotonic() - t_run + longest > RUN_LIMIT_S - 5:
            break

    # set-up-only passes (imports and input plan), each scaled by its own reference
    setups = []
    for index in range(SETUP_PROBES):
        remaining = RUN_LIMIT_S - (time.monotonic() - t_run)
        if remaining < 10 and setups:
            break
        code, out, _ = run_child(worker_argv(args, run_dir / f"setup{index}", "--setup-only"), env, ROOT, remaining)
        if code == 0:
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    if not setups:
        print("no set-up pass completed", file=sys.stderr)
        return 2

    good = [(traced, r) for traced, r in passes if r is not None]
    if not good:
        print("no pass completed", file=sys.stderr)
        return 2
    # pass 0 is the checked one; without it nothing was checked
    correct = len(good) == len(passes)
    reference = good[0][1]
    ref_ops = {op["name"]: op for op in reference["ops"]}
    check_failures = reference["check_failures"]
    attempted = failed = 0
    notes = []
    for index, (traced, rec) in enumerate(passes):
        if rec is None:
            attempted += len(reference["ops"])
            failed += len(reference["ops"])
            continue
        if [op["name"] for op in rec["ops"]] != list(ref_ops):
            correct = False
            notes.append(f"pass {index}: operations differ from pass 0")
        for op in rec["ops"]:
            attempted += 1
            ref = ref_ops.get(op["name"])
            repeat_ok = ref is not None and ref["counters"] == op["counters"]
            if not repeat_ok:
                correct = False
                notes.append(f"pass {index} {op['name']}: counters or digests differ from pass 0")
            if op["name"] in check_failures:
                correct = False
            if not op["ok"] or not repeat_ok or op["name"] in check_failures:
                failed += 1
                if index == 0 and not op["ok"]:
                    notes.append(f"{op['name']}: program failure: {op['error'].strip().splitlines()[-1]}")
    for name, msgs in check_failures.items():
        notes.append(f"{name}: check failed: {msgs}")

    plain = [r for traced, r in good if not traced]
    wall_s = sum(region_parts(plain).values())
    walls = [round(r["raw_wall_s"], 4) for r in plain]
    refs = [round(r["ref_s"], 4) for r in plain]
    print(f"# passes {len(passes)} ({sum(t for t, _ in passes)} traced); raw walls {walls}; references {refs}; "
          f"checks {reference['check_s']:.2f} s; set-ups {[round(x, 3) for x in setups]}")
    print("# counters " + json.dumps({op["name"]: op["counters"] for op in reference["ops"]}, sort_keys=True))
    for note in notes:
        print(f"# {note}")

    if args.trace:
        traced_recs = [r for traced, r in good if traced]
        if not traced_recs or not plain:
            print("traced run needs a traced and an untraced pass", file=sys.stderr)
            return 2
        keys = {key for r in traced_recs for key in r["layers"]}
        values = {key: median([r["layers"].get(key, 0.0) for r in traced_recs]) for key in keys}
        # layer and call times from the same parts, aggregated as wall_s is
        parts = region_parts(traced_recs)
        for name, secs in parts.items():
            if name != "untraced":
                layer = f"{name.split('.', 1)[0]}.self_s"
                values[layer] = values.get(layer, 0.0) + secs
                values[f"{name}_s"] = secs
        values["trace.wall_s"] = sum(parts.values())
        values["trace.coverage"] = 1.0 - parts["untraced"] / values["trace.wall_s"]
        values["trace.wall_diff_s"] = values["trace.wall_s"] - wall_s
        values["trace.overhead_frac"] = values["trace.overhead_s"] / values["trace.wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "work_per_s": median([r["work"] for r in plain]) / wall_s,
            "success_frac": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
