"""The four benchmark workloads: seeded input plans, the timed operations, and
the output checks.

``plan(workload, seed)`` turns the seed into a list of operation specs; the
program sees only what the specs describe.  ``run_spec`` performs one spec
inside the timed region and returns one or more ``Op`` records, with spans
around every call into gradedproj.  ``check_op`` verifies an op's output
outside the timed region; it returns a list of failure messages.

An operation is one mesh sequence (refine), one certificate (certify), one
measurement (stability: a weighted ratio, a decay profile over every distance
shell, or the analytic tables) or one command (cli).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from gradedproj.mesh import (
    SimplicialMesh,
    conformity_violations,
    element_distance,
    hanging_vertex_violations,
    kuhn_initial_mesh,
    level_gap,
    marking_policy,
)
from gradedproj.polyspace import (
    BarycentricPoly,
    CRSpace,
    LagrangeSpace,
    lambda_nodal_product_table,
    multi_indices,
    reference_element,
)
from gradedproj.projection import ElementwisePoly, Operators, accelerated_iterate, measure_decay
from gradedproj.stability import (
    Weight,
    cr_dimension_thresholds,
    max_operator,
    measure_weighted_stability,
    qnew_table,
    regularized_h_grading,
    stability_table,
    w12_table,
)

CLI_RUNNER = Path(__file__).resolve().parent / "gradedproj_cmd.py"
CLI_TIMEOUT_S = 120

TOL_KAPPA = 1e-8
TOL_RESIDUAL = 1e-9
TOL_IDENTITY = 1e-12
TOL_DECAY = 1e-9
CHEBYSHEV_NUS = tuple(range(1, 13))

# The README's command lines, verbatim after the program name.  The output
# directory names the per-command metric cli.<name>_s.
README_COMMANDS = [
    "refine --dim 2 --alpha 1 --policy corner --rounds 8 --out out/refine",
    "certify --dim 3 --degree 2 --rounds 3 --policy random:0.3 --out out/cert",
    "certify --dim 2 --degree CR --rounds 4 --out out/crcert",
    "decay --dim 2 --degree 1 --rounds 6 --policy corner --out out/decay",
    "tables --out out/tables",
    "stability --dim 2 --degree 1 --preset 2D-NVB+ --kind W1p --p 3 --out out/stab",
    "stability --dim 2 --degree 1 --gamma-rho 2 --measure --out out/stabm",
    "cr-check --out out/cr",
    "closure-bench --dim 2 --rounds 40 --policy random-count:4 --out out/bench",
    "grading --dim 3 --rounds 4 --policy random:0.25 --out out/grading",
]
CLI_NAMES = [cmd.rsplit("/", 1)[1] for cmd in README_COMMANDS]


@dataclass
class Op:
    name: str
    ok: bool = True  # False when the program raised or exited non-zero
    error: str = ""
    work: float = 0.0  # bisections, certified dofs, measurements or commands
    counters: dict = field(default_factory=dict)  # deterministic: must repeat exactly
    result: dict = field(default_factory=dict)  # what check_op inspects; not compared

    def record(self) -> dict:
        return {"name": self.name, "ok": self.ok, "error": self.error, "work": self.work, "counters": self.counters}


def _subseed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- plans -------------------------------------------------------------------------
# Mesh sizes are element targets rather than round counts: a sequence stops at
# the first round that reaches its target, so the work per spec varies little
# from seed to seed while the marked elements do.


def plan(workload: str, seed: int) -> list[dict]:
    if workload == "refine":
        specs = [
            {"name": "d2-a1-random3", "dim": 2, "alpha": 1, "policy": "random-count:3", "target": 1000},
            {"name": "d3-a2-random2", "dim": 3, "alpha": 2, "policy": "random-count:2", "target": 800},
            {"name": "d3-a1-corner", "dim": 3, "alpha": 1, "policy": "corner", "rounds": 12},
        ]
    elif workload == "certify":
        specs = [
            {"name": "d2-P1-a1", "dim": 2, "degree": 1, "alpha": 1, "target": 280},
            {"name": "d2-P2-a2", "dim": 2, "degree": 2, "alpha": 2, "target": 110},
            {"name": "d2-P3-a1", "dim": 2, "degree": 3, "alpha": 1, "target": 55},
            {"name": "d3-P1-a1", "dim": 3, "degree": 1, "alpha": 1, "target": 220},
            {"name": "d3-P2-a2", "dim": 3, "degree": 2, "alpha": 2, "target": 70},
            {"name": "d3-P3-a1", "dim": 3, "degree": 3, "alpha": 1, "target": 18},
            {"name": "d2-CR-a1", "dim": 2, "degree": "CR", "alpha": 1, "target": 250},
            {"name": "d2-P2-zero-trace", "dim": 2, "degree": 2, "alpha": 1, "target": 110, "zero_trace": True},
        ]
    elif workload == "stability":
        specs = [
            {"name": "d2-P1-Lp2", "dim": 2, "degree": 1, "kind": "Lp", "p": 2.0, "target": 140},
            {"name": "d2-P2-W1p2", "dim": 2, "degree": 2, "kind": "W1p", "p": 2.0, "target": 70},
            {"name": "d2-CR-W1p2", "dim": 2, "degree": "CR", "kind": "W1p", "p": 2.0, "target": 170},
            {"name": "d2-P1-Lp3", "dim": 2, "degree": 1, "kind": "Lp", "p": 3.0, "target": 110},
            {"name": "d3-P1-Lp2", "dim": 3, "degree": 1, "kind": "Lp", "p": 2.0, "target": 140},
            {"name": "analytic-tables"},
        ]
    elif workload == "cli":
        # the seed fixes only the order; each command runs exactly as written
        order = np.random.default_rng(seed).permutation(len(README_COMMANDS))
        return [{"name": CLI_NAMES[i], "argv": README_COMMANDS[i].split()} for i in order]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, spec in enumerate(specs):
        spec["seed"] = _subseed(seed, i)
    return specs


# -- shared helpers ----------------------------------------------------------------


def _count(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _refine_round(mesh, marked, alpha, tr, counters, **attrs) -> None:
    n0 = mesh.n_active
    with tr.span("mesh.refine_lg", **attrs) as sp:
        mesh.refine_lg(marked, alpha)
    added = mesh.n_active - n0  # each bisection adds exactly one element
    sp.set(bisections=added)
    _count(counters, "mesh.bisections", added)
    _count(counters, "mesh.marked", len(marked))


def _grow(dim, alpha, target, rng, tr, counters):
    """BiSecLG(alpha) from the Kuhn cube, random marking, until target elements.

    Each round marks a random fifth of the elements, fewer near the target so
    the last round does not overshoot it by much.
    """
    with tr.span("mesh.initial"):
        mesh = kuhn_initial_mesh(dim, 1)
    while mesh.n_active < target:
        ids = mesh.active_ids()
        take = max(1, min(len(ids) // 5, (target - len(ids)) // 6))
        marked = sorted(int(x) for x in rng.choice(ids, size=take, replace=False))
        _refine_round(mesh, marked, alpha, tr, counters)
    return mesh


def _random_poly(mesh, support, degree, rng) -> ElementwisePoly:
    monos = multi_indices(mesh.dim, degree)
    polys = {
        sid: BarycentricPoly(mesh.dim, {m: Fraction(int(rng.integers(-9, 10)), 4) for m in monos})
        for sid in support
    }
    return ElementwisePoly(mesh, polys)


def _make_space(mesh, spec, tr):
    degree = spec["degree"]
    with tr.span("polyspace.reference"):
        if degree != "CR":
            # cold exact tables: the space's reference element and the
            # patch-assembly product tables of Operators
            reference_element(mesh.dim, degree)
            reference_element(mesh.dim, degree - 1)
            lambda_nodal_product_table(mesh.dim, degree - 1, degree - 1)
            lambda_nodal_product_table(mesh.dim, degree - 1, degree)
    with tr.span("polyspace.space"):
        if degree == "CR":
            space = CRSpace(mesh)
        else:
            space = LagrangeSpace(mesh, degree, spec.get("zero_trace", False))
    with tr.span("polyspace.mass"):
        mass = space.mass_matrix()
    return space, mass


def _m_norm(mass, x) -> float:
    return math.sqrt(max(float(x @ (mass @ x)), 0.0))


def _chebyshev_bound(q: float, nu: int) -> float:
    return 2.0 * q**nu / (1.0 + q ** (2 * nu))


# -- refine --------------------------------------------------------------------------


def _run_refine(spec, tr) -> list[Op]:
    op = Op(spec["name"])
    c = op.counters
    dim, alpha = spec["dim"], spec["alpha"]
    with tr.span("mesh.initial"):
        mesh = kuhn_initial_mesh(dim, 1)
        pick = marking_policy(spec["policy"])
    rng = np.random.default_rng(spec["seed"])
    rounds = 0
    while (mesh.n_active < spec["target"]) if "target" in spec else (rounds < spec["rounds"]):
        with tr.span("mesh.mark"):
            marked = pick(mesh, rng)
        _refine_round(mesh, marked, alpha, tr, c, seq=spec["name"])
        rounds += 1
    c["mesh.rounds"] = rounds
    with tr.span("mesh.distance"):
        dist = element_distance(mesh, "vertex")
    with tr.span("mesh.audit"):
        gap = level_gap(mesh, dist)
        lg = mesh.lg_violation(alpha)
    with tr.span("mesh.to_json"):
        text = json.dumps(mesh.to_json_dict(), sort_keys=True)
    c["mesh.json_sha256"] = _digest(text.encode())
    c["mesh.elements"] = mesh.n_active
    op.work = c["mesh.bisections"]
    op.result = {"mesh": mesh, "alpha": alpha, "gap": gap, "lg": lg}
    return [op]


def _check_refine(op) -> list[str]:
    r = op.result
    mesh, alpha = r["mesh"], r["alpha"]
    bad = []
    if mesh.total_volume() != Fraction(1):
        bad.append(f"total volume {mesh.total_volume()} != 1")
    if r["lg"] is not None:
        bad.append(f"lg_violation({alpha}) = {r['lg']}")
    if r["gap"] > alpha:
        bad.append(f"vertex level gap {r['gap']} > alpha={alpha}")
    hanging = hanging_vertex_violations(mesh)
    if hanging:
        bad.append(f"hanging vertices {hanging}")
    inside = conformity_violations(mesh)
    if inside:
        bad.append(f"vertices inside simplices {inside}")
    return bad


# -- certify -------------------------------------------------------------------------


def _run_certify(spec, tr) -> list[Op]:
    op = Op(spec["name"])
    c = op.counters
    rng = np.random.default_rng(spec["seed"])
    mesh = _grow(spec["dim"], spec["alpha"], spec["target"], rng, tr, c)
    space, mass = _make_space(mesh, spec, tr)
    c["polyspace.dofs"] = space.n_dofs
    c["polyspace.mass_nnz"] = int(mass.nnz)
    with tr.span("projection.operators"):
        ops = Operators(space)
    c["projection.form_nnz"] = int(ops.form_matrix.nnz)
    with tr.span("projection.certify"):
        cert = ops.certify()
    u = _random_poly(mesh, mesh.active_ids(), space.degree + 1, rng)
    with tr.span("projection.apply_C"):
        direct = ops.apply_C(u)
    with tr.span("projection.project"):
        qu = ops.project(u)
    with tr.span("projection.apply_C"):
        via_q = ops.apply_C_coeffs(qu)
    with tr.span("projection.iterate"):
        iterates = [accelerated_iterate(ops, qu, nu) for nu in CHEBYSHEV_NUS]
    op.work = space.n_dofs
    op.result = {"ops": ops, "cert": cert, "direct": direct, "via_q": via_q, "qu": qu, "iterates": iterates}
    return [op]


def _check_certify(op) -> list[str]:
    r = op.result
    ops, cert = r["ops"], r["cert"]
    bad = []
    if not cert.kappa <= cert.bound_kappa + TOL_KAPPA:
        bad.append(f"kappa {cert.kappa} > bound {cert.bound_kappa}")
    if not cert.residual <= TOL_RESIDUAL:
        bad.append(f"eigen residual {cert.residual}")
    form = ops.form_matrix
    sym = abs(form - form.T).max() / max(abs(form).max(), 1e-30)
    scale = max(np.abs(r["direct"]).max(), 1e-30)
    ident = max(sym, float(np.abs(r["direct"] - r["via_q"]).max() / scale))
    if not ident <= TOL_IDENTITY:
        bad.append(f"two-sided identity deviation {ident:.3e}")
    q = ops.q_bound()
    qu_norm = _m_norm(ops.mass, r["qu"])
    for nu, x in zip(CHEBYSHEV_NUS, r["iterates"]):
        err = _m_norm(ops.mass, x - r["qu"]) / qu_norm
        if not err <= _chebyshev_bound(q, nu) + TOL_IDENTITY:
            bad.append(f"Chebyshev error {err:.3e} > bound at nu={nu}")
    return bad


# -- stability -----------------------------------------------------------------------


def _run_stability(spec, tr) -> list[Op]:
    if spec["name"] == "analytic-tables":
        return [_run_analytic(spec, tr)]
    op = Op(f"{spec['name']}/weighted")
    c = op.counters
    rng = np.random.default_rng(spec["seed"])
    mesh = _grow(spec["dim"], 1, spec["target"], rng, tr, c)
    space, mass = _make_space(mesh, spec, tr)
    c["polyspace.dofs"] = space.n_dofs
    c["polyspace.mass_nnz"] = int(mass.nnz)
    with tr.span("projection.operators"):
        ops = Operators(space)
    c["projection.form_nnz"] = int(ops.form_matrix.nnz)
    with tr.span("mesh.distance"):
        dist = element_distance(mesh, "face" if spec["degree"] == "CR" else "vertex")
    anchor = dist.ids[int(rng.integers(dist.n))]
    with tr.span("stability.max_operator"):
        base = {s: 1.0 if s == anchor else 1e-9 for s in dist.ids}
        weight = Weight(max_operator(base, 2.0, dist), dist)
        weight.gamma
    with tr.span("stability.weighted"):
        res = measure_weighted_stability(ops, weight, p=spec["p"], kind=spec["kind"], seed=int(rng.integers(1 << 30)))
    with tr.span("stability.regularized_h"):
        reg = regularized_h_grading(mesh, dist)
    op.work = 1
    op.result = {"weighted": res, "regularized": reg}
    decay = Op(f"{spec['name']}/decay", work=1)
    with tr.span("mesh.distance"):
        shells = dist.from_source(anchor)
    deltas = sorted({int(x) for x in shells if x > 0})
    decay.counters = {
        "projection.decay_shells": len(deltas),
        "shell_sizes": [int((shells == delta).sum()) for delta in deltas],
    }
    try:
        rows = []
        for delta in deltas:
            members = [dist.ids[i] for i in range(dist.n) if shells[i] == delta]
            with tr.span("projection.decay"):
                rows.append(measure_decay(ops, dist, members, [anchor], trials=2, seed=int(rng.integers(1 << 30))))
    except Exception:  # the decay profile fails; the weighted ratio above still counts
        decay.ok, decay.error = False, traceback.format_exc(limit=3)
    else:
        decay.result = {"rows": rows}
    return [op, decay]


def _check_weighted(op) -> list[str]:
    res = op.result["weighted"]
    bad = []
    if res.passed is False:
        bad.append(f"weighted ratio {res.measured} exceeds bound {res.bound}")
    if not (math.isfinite(res.measured) and res.measured > 0):
        bad.append(f"weighted ratio {res.measured} not a positive number")
    reg = op.result["regularized"]
    if not reg.regularized_grading <= reg.gamma * (1 + 1e-12):
        bad.append(f"regularized h grading {reg.regularized_grading} > gamma {reg.gamma}")
    return bad


def _check_decay(op) -> list[str]:
    bad = []
    prev = None
    for row in op.result["rows"]:
        if not row.exact_norm <= row.bound + TOL_DECAY:
            bad.append(f"delta={row.delta}: norm {row.exact_norm} > bound {row.bound}")
        if prev is not None and row.exact_norm > prev.exact_norm + 1e-12:
            bad.append(f"delta={row.delta}: norm {row.exact_norm} not below {prev.exact_norm}")
        if row.sampled > row.exact_norm * (1 + 1e-9) + 1e-14:
            bad.append(f"delta={row.delta}: sampled lower bound {row.sampled} above norm {row.exact_norm}")
        prev = row
    return bad


GRID_2D = [("2^(1/2)", 2**0.5), ("2", 2.0), ("2^(3/2)", 2**1.5), ("4", 4.0)]
GRID_3D = [("2^(1/3)", 2 ** (1 / 3)), ("2", 2.0)]


def _run_analytic(spec, tr) -> Op:
    op = Op(spec["name"])
    with tr.span("stability.analytic"):
        tables = {
            "qnew": qnew_table(),
            "stability_2d": stability_table(2, GRID_2D),
            "stability_3d": stability_table(3, GRID_3D),
            "w12_2d": w12_table(2, GRID_2D),
            "w12_3d": w12_table(3, GRID_3D),
            "cr": cr_dimension_thresholds(100),
        }
    op.counters["tables_sha256"] = _digest(json.dumps(tables, sort_keys=True, default=str).encode())
    op.result = tables
    return op


# published values (the paper's Tables 1-3 and its Crouzeix-Raviart thresholds)
_QNEW_K1 = {"d1": "0.2679", "d2": "0.3333", "d3": "0.3820"}
_QNEW_INF = "0.1716"
_TABLE_2D = {("2", 1): ("[1,inf]", "[1.2619,4.8188]"), ("4", 1): ("[1.1158,9.6376]", "empty")}
_TABLE_3D = {("2", 1): ("[1.0387,26.9019]", "[1.5886,2.6990]")}


def _check_analytic(op) -> list[str]:
    t = op.result
    bad = []
    rows = {row["K"]: row for row in t["qnew"]}
    for key, want in _QNEW_K1.items():
        if f"{rows[1][key]:.4f}" != want:
            bad.append(f"q_new K=1 {key} = {rows[1][key]}")
        if f"{rows['inf'][key]:.4f}" != _QNEW_INF:
            bad.append(f"q_new K=inf {key} = {rows['inf'][key]}")
    for table, published in ((t["stability_2d"], _TABLE_2D), (t["stability_3d"], _TABLE_3D)):
        got = {(row["gamma_h"], row["K"]): (row["Lp"], row["W1p"]) for row in table}
        for key, want in published.items():
            if got.get(key) != want:
                bad.append(f"stability interval {key}: {got.get(key)} != {want}")
    cr = t["cr"]
    if (cr["lp_all_p_max_d"], cr["w1p_all_p_max_d"], cr["w12_all_d"]) != (35, 32, True):
        bad.append(f"CR thresholds {cr}")
    return bad


def _check_stability(op) -> list[str]:
    if op.name == "analytic-tables":
        return _check_analytic(op)
    if op.name.endswith("/weighted"):
        return _check_weighted(op)
    return _check_decay(op)


# -- cli -----------------------------------------------------------------------------


def _run_cli(spec, tr, workdir: Path) -> list[Op]:
    op = Op(spec["name"], work=1)
    out_dir = workdir / spec["argv"][-1]
    times = workdir / f"cli-times-{spec['name']}.json"
    cmd_env = dict(os.environ, PERFBENCH_CLI_TIMES=str(times)) if tr.enabled else None
    with tr.span(f"cli.{spec['name']}"):
        proc = subprocess.run(
            [sys.executable, str(CLI_RUNNER), *spec["argv"]],
            cwd=workdir, env=cmd_env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
    op.ok = proc.returncode == 0
    if not op.ok:
        op.error = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"
    files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
    op.counters = {
        "exit_code": proc.returncode,
        "cli.output_bytes": sum(p.stat().st_size for p in files),
        "files": {str(p.relative_to(workdir)): _digest(p.read_bytes()) for p in files},
    }
    if tr.enabled and times.is_file():
        op.result["times"] = json.loads(times.read_text())
    op.result["out_dir"] = out_dir
    return [op]


def _config_hash_ok(meta: dict) -> bool:
    cfg = json.dumps(meta["config"], sort_keys=True).encode()
    return hashlib.sha256(cfg).hexdigest()[:16] == meta["config_hash"]


def _tsv(path: Path) -> tuple[list[str], list[dict]]:
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    body = [ln.split("\t") for ln in lines if not ln.startswith("# ")]
    return header, [dict(zip(body[0], row)) for row in body[1:]]


def _check_certificate(cert: dict) -> list[str]:
    bad = []
    if not cert["kappa"] <= cert["bound_kappa"] + TOL_KAPPA:
        bad.append(f"kappa {cert['kappa']} > bound {cert['bound_kappa']}")
    if not cert["residual"] <= TOL_RESIDUAL:
        bad.append(f"residual {cert['residual']}")
    return bad


def _check_cli(op) -> list[str]:
    out: Path = op.result["out_dir"]
    name = op.name
    expected = {
        "refine": ["elements.tsv", "grading_report.tsv", "mesh.json"],
        "cert": ["certificate.json"],
        "crcert": ["certificate.json"],
        "decay": ["decay.tsv"],
        "tables": ["cr_thresholds.json", "published_gradings.json", "table1_qnew.tsv", "table2_stability_2d.tsv",
                   "table3_stability_3d.tsv", "table5_w12_ranges_2d.tsv", "table6_w12_ranges_3d.tsv"],
        "stab": ["stability_verdict.json"],
        "stabm": ["stability_verdict.json"],
        "cr": ["cr_check.json"],
        "bench": ["closure_bench.tsv"],
        "grading": ["elements.tsv", "grading.json"],
    }[name]
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if present != expected:
        return [f"output files {present} != {expected}"]
    bad = []
    docs = {f: json.loads((out / f).read_text()) for f in expected if f.endswith(".json")}
    for f, doc in docs.items():
        if "meta" in doc and not _config_hash_ok(doc["meta"]):
            bad.append(f"{f}: config hash does not match its config")
    if name == "refine":
        data = dict(docs["mesh.json"])
        data.pop("meta")
        mesh = SimplicialMesh.from_json_dict(data)
        if mesh.total_volume() != 1 or conformity_violations(mesh) or hanging_vertex_violations(mesh):
            bad.append("mesh.json is not a conforming mesh of the unit square")
        if mesh.lg_violation(1) is not None:
            bad.append("mesh.json violates limited grading")
        _, rows = _tsv(out / "elements.tsv")
        if len(rows) != mesh.n_active:
            bad.append("elements.tsv row count")
    elif name in ("cert", "crcert"):
        bad += _check_certificate(docs["certificate.json"])
    elif name == "decay":
        _, rows = _tsv(out / "decay.tsv")
        prev = math.inf
        for row in rows:
            measured, sampled, bound = float(row["measured"]), float(row["sampled"]), float(row["bound"])
            if measured > bound + TOL_DECAY or measured > prev + 1e-12 or sampled > measured * (1 + 1e-9):
                bad.append(f"decay row {row}")
            prev = measured
        if not rows:
            bad.append("no decay rows")
    elif name == "tables":
        _, rows = _tsv(out / "table1_qnew.tsv")
        if {k: rows[0][k] for k in _QNEW_K1} != _QNEW_K1 or rows[-1]["d2"] != _QNEW_INF:
            bad.append("table1_qnew.tsv differs from the published q column")
        th = docs["cr_thresholds.json"]["thresholds"]
        if (th["lp_all_p_max_d"], th["w1p_all_p_max_d"]) != (35, 32):
            bad.append(f"cr thresholds {th}")
    elif name == "stab":
        doc = docs["stability_verdict.json"]
        if doc["kind"] != "W1p" or not doc["interval"]:
            bad.append("stability verdict fields")
    elif name == "stabm":
        m = docs["stability_verdict.json"]["measurement"]
        if m["passed"] is not True or not m["measured"] <= m["bound"] + 1e-9:
            bad.append(f"measured weighted ratio {m}")
    elif name == "cr":
        res = docs["cr_check.json"]["results"]
        bad += _check_certificate(res["d2"]) + _check_certificate(res["d3"])
        if not res["d2"]["c_equals_q_maxdiff"] <= TOL_IDENTITY:
            bad.append("C_CR != Q_CR")
        if (res["thresholds"]["lp_all_p_max_d"], res["thresholds"]["w1p_all_p_max_d"]) != (35, 32):
            bad.append("cr thresholds")
    elif name == "bench":
        _, rows = _tsv(out / "closure_bench.tsv")
        rounds = [r for r in rows if r["round"] != "total"]
        elements = [2] + [int(r["elements"]) for r in rounds]  # the Kuhn square has 2 triangles
        marked = [int(r["marked"]) for r in rounds]
        if len(rounds) != 40 or marked != [min(4, n) for n in elements[:-1]] or elements != sorted(elements):
            bad.append("closure_bench.tsv rounds")
        total = rows[-1]
        if total["round"] != "total" or int(total["marked"]) != sum(marked):
            bad.append("closure_bench.tsv total row")
        elif abs(float(total["ratio"]) - (elements[-1] - 2) / sum(marked)) > 5e-5:
            bad.append("closure ratio in the total row")
    elif name == "grading":
        doc = docs["grading.json"]
        if doc["level_gap_vertex"] > 1 or abs(doc["gamma_h_vertex"] - 2 ** (doc["level_gap_vertex"] / 3)) > 1e-12:
            bad.append("grading audit")
    return bad


# -- dispatch ------------------------------------------------------------------------


def run_spec(workload: str, spec: dict, tr, workdir: Path) -> list[Op]:
    """Run one spec under a root span; a program error fails its operation."""
    with tr.span("bench.op", op=spec["name"]):
        try:
            if workload == "refine":
                return _run_refine(spec, tr)
            if workload == "certify":
                return _run_certify(spec, tr)
            if workload == "stability":
                return _run_stability(spec, tr)
            return _run_cli(spec, tr, workdir)
        except Exception:  # the benchmark keeps running and reports the failure
            return [Op(spec["name"], ok=False, error=traceback.format_exc(limit=5))]


def check_op(workload: str, op: Op) -> list[str]:
    """Failures found in an op's output; an op that produced none has failed already."""
    try:
        return {"refine": _check_refine, "certify": _check_certify, "stability": _check_stability, "cli": _check_cli}[
            workload
        ](op)
    except Exception:  # a check that cannot read the output fails that output
        return [f"check raised: {traceback.format_exc(limit=3)}"]
