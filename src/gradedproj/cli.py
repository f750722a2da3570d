"""Command-line front end.

Subcommands: refine, certify, decay, tables, stability, cr-check,
closure-bench, grading.  All flags are long-form, all randomness is fixed by
--seed, and identical configurations produce byte-identical outputs.  Every
output embeds the configuration, its hash, the library version and the
tolerances in effect.  Exit codes: 0 success, 2 a certified bound failed,
3 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from . import GradedProjError, __version__
from .analytic import (
    cr_dimension_thresholds,
    grading_value,
    published_gradings,
    qnew_table,
    stability_range,
    stability_table,
    w12_table,
)

if TYPE_CHECKING:
    from .mesh import SimplicialMesh

# The numeric layers are imported inside the commands that use them: numpy
# and scipy take most of a short command's run time, and `tables` and
# `stability` without --measure need neither.

TOLERANCES = {
    "eigen_residual": 1e-9,
    "kappa_slack": 1e-8,
    "identity": 1e-12,
    "decay_slack": 1e-9,
}


class CliInputError(GradedProjError):
    """Invalid command-line input."""


def round4(x: float) -> str:
    """Four decimals, half-even, as a fixed-width string.  The context's 400
    digits hold any finite float to four decimals (the default 28 do not hold
    1e24 and above)."""
    if x == math.inf:
        return "inf"
    return str(Decimal(repr(float(x))).quantize(Decimal("0.0001"), ROUND_HALF_EVEN, Context(prec=400)))


def config_dict(args: argparse.Namespace) -> dict:
    out = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return out


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def effective_tolerances(args) -> dict:
    tols = dict(TOLERANCES)
    for item in getattr(args, "tolerance", None) or []:
        name, _, value = item.partition("=")
        if name not in tols or not value:
            raise CliInputError(f"unknown tolerance override {item!r} (known: {sorted(tols)})")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise CliInputError(f"invalid tolerance value in {item!r}") from exc
    return tols


def output_meta(cfg: dict, tols: dict | None = None) -> dict:
    return {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "tolerances": tols or TOLERANCES,
    }


def tsv_header_lines(cfg: dict, tols: dict | None = None) -> list[str]:
    return [
        f"config: {json.dumps(cfg, sort_keys=True)}",
        f"config_hash: {config_hash(cfg)}",
        f"version: {__version__}",
        f"tolerances: {json.dumps(tols or TOLERANCES, sort_keys=True)}",
    ]


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_tsv(path: Path, header: list[str], columns: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


# -- mesh construction shared by the commands -----------------------------------


def build_mesh(args) -> SimplicialMesh:
    from .mesh import SimplicialMesh, closure_benchmark, kuhn_initial_mesh

    if getattr(args, "mesh", None):
        mesh = SimplicialMesh.load(args.mesh)
    else:
        mesh = kuhn_initial_mesh(args.dim, getattr(args, "cells", 1))
    rounds = getattr(args, "rounds", 0)
    if rounds > 0:  # --rounds 0 never reads --policy
        closure_benchmark(mesh, args.policy, rounds, alpha=args.alpha, seed=args.seed)
    return mesh


def parse_degree(text: str):
    if text.upper() == "CR":
        return "CR"
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = int(text)
    except ValueError as exc:
        raise CliInputError(f"invalid degree {text!r}") from exc
    if value < 1:
        raise CliInputError("degree must be >= 1 or CR")
    return value


def make_space(mesh: SimplicialMesh, degree, zero_trace: bool):
    from .polyspace import CRSpace, LagrangeSpace

    if degree == "CR":
        if zero_trace:
            raise CliInputError("zero-trace variant is only available for Lagrange spaces")
        return CRSpace(mesh)
    return LagrangeSpace(mesh, degree, zero_trace)


# -- subcommands --------------------------------------------------------------------


def cmd_refine(args) -> int:
    from .mesh import element_distance, level_gap, write_element_report

    cfg = config_dict(args)
    mesh = build_mesh(args)
    out_dir = Path(args.out)
    payload = mesh.to_json_dict()
    payload["meta"] = output_meta(cfg)
    write_json(out_dir / "mesh.json", payload)

    dist_v = element_distance(mesh, "vertex")
    dist_f = element_distance(mesh, "face")
    gap_v = level_gap(mesh, dist_v)
    gap_f = level_gap(mesh, dist_f)
    rows = [
        ["elements", str(mesh.n_active)],
        ["vertices", str(len(mesh.points))],
        ["max_level", str(mesh.max_level())],
        ["level_gap_vertex", str(gap_v)],
        ["level_gap_face", str(gap_f)],
        ["gamma_h_vertex", round4(2.0 ** (gap_v / mesh.dim))],
        ["gamma_h_face", round4(2.0 ** (gap_f / mesh.dim))],
        ["total_volume", round4(float(mesh.total_volume()))],
    ]
    write_tsv(out_dir / "grading_report.tsv", tsv_header_lines(cfg), ["key", "value"], rows)
    write_element_report(mesh, dist_v, out_dir / "elements.tsv")

    if args.alpha > 0 and gap_v > args.alpha:
        print(f"vertex level gap {gap_v} exceeds alpha={args.alpha}", file=sys.stderr)
        return 2
    print(f"wrote {out_dir}/mesh.json ({mesh.n_active} elements, gamma_h={2.0**(gap_v/mesh.dim):.4f})")
    return 0


def cmd_certify(args) -> int:
    from .projection import Operators

    cfg = config_dict(args)
    tols = effective_tolerances(args)
    degree = parse_degree(args.degree)
    if degree == math.inf:
        raise CliInputError("certification needs a finite degree or CR")
    mesh = build_mesh(args)
    space = make_space(mesh, degree, args.zero_trace)
    ops = Operators(space)
    cert = ops.certify()
    payload = cert.to_json_dict({"elements": mesh.n_active, "dim": mesh.dim, "max_level": mesh.max_level()})
    payload["meta"] = output_meta(cfg, tols)
    out = Path(args.out) / "certificate.json"
    write_json(out, payload)
    print(
        f"kappa={cert.kappa:.6f} (bound {cert.bound_kappa:.6f}) q={cert.q:.6f} "
        f"lambda=[{cert.lambda_min:.6f},{cert.lambda_max:.6f}] residual={cert.residual:.2e}"
    )
    if cert.kappa > cert.bound_kappa + tols["kappa_slack"]:
        print("condition bound violated", file=sys.stderr)
        return 2
    if cert.residual > tols["eigen_residual"]:
        print("eigen residual too large", file=sys.stderr)
        return 2
    return 0


def cmd_decay(args) -> int:
    import numpy as np

    from .mesh import element_distance
    from .projection import Operators, measure_decay, write_decay_tsv

    cfg = config_dict(args)
    degree = parse_degree(args.degree)
    mesh = build_mesh(args)
    space = make_space(mesh, degree, False)
    ops = Operators(space)
    kind = "face" if degree == "CR" else "vertex"
    dist = element_distance(mesh, kind)
    rng = np.random.default_rng(args.seed)
    source = [dist.ids[int(rng.integers(dist.n))]]
    shells = dist.from_source(source[0])
    deltas = sorted({int(x) for x in shells if x > 0})

    rows = [
        measure_decay(
            ops, dist, [dist.ids[i] for i in np.flatnonzero(shells == delta)], source,
            trials=args.trials, seed=args.seed + delta,
        )
        for delta in deltas
    ]
    tols = effective_tolerances(args)
    out = Path(args.out) / "decay.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_decay_tsv(out, rows, tsv_header_lines(cfg, tols))
    bad = [r for r in rows if r.exact_norm > r.bound + tols["decay_slack"]]
    jitter = 1e-12
    nonmono = [
        (a.delta, b.delta)
        for a, b in zip(rows, rows[1:])
        if b.exact_norm > a.exact_norm + jitter
    ]
    print(f"measured {len(rows)} shells up to delta={rows[-1].delta if rows else 0}; wrote {out}")
    if bad:
        print(f"decay bound violated at delta={[r.delta for r in bad]}", file=sys.stderr)
        return 2
    if nonmono:
        print(f"masked norms not monotone at {nonmono}", file=sys.stderr)
        return 2
    return 0


def cmd_tables(args) -> int:
    cfg = config_dict(args)
    header = tsv_header_lines(cfg)
    out_dir = Path(args.out)

    rows = [
        [str(row["K"])] + [round4(row[f"d{d}"]) for d in (1, 2, 3)]
        for row in qnew_table()
    ]
    write_tsv(out_dir / "table1_qnew.tsv", header, ["K", "d1", "d2", "d3"], rows)

    grid_2d = [("2^(1/2)", 2**0.5), ("2", 2.0), ("2^(3/2)", 2**1.5), ("4", 4.0)]
    rows = [
        [row["gamma_h"], str(row["K"]), row["Lp"], row["W1p"]]
        for row in stability_table(2, grid_2d)
    ]
    write_tsv(out_dir / "table2_stability_2d.tsv", header, ["gamma_h", "K", "Lp", "W1p"], rows)

    grid_3d = [("2^(1/3)", 2 ** (1 / 3)), ("2", 2.0)]
    rows = [
        [row["gamma_h"], str(row["K"]), row["Lp"], row["W1p"]]
        for row in stability_table(3, grid_3d)
    ]
    write_tsv(out_dir / "table3_stability_3d.tsv", header, ["gamma_h", "K", "Lp", "W1p"], rows)

    rows = [[r["gamma_h"], r["K_range"]] for r in w12_table(2, grid_2d)]
    write_tsv(out_dir / "table5_w12_ranges_2d.tsv", header, ["gamma_h", "K_range"], rows)
    rows = [[r["gamma_h"], r["K_range"]] for r in w12_table(3, grid_3d)]
    write_tsv(out_dir / "table6_w12_ranges_3d.tsv", header, ["gamma_h", "K_range"], rows)

    thresholds = cr_dimension_thresholds(args.probe_limit)
    payload = {"thresholds": thresholds, "meta": output_meta(cfg)}
    write_json(out_dir / "cr_thresholds.json", payload)
    write_json(out_dir / "published_gradings.json", {"gradings": published_gradings(), "meta": output_meta(cfg)})
    print(f"wrote tables to {out_dir}/")
    return 0


def cmd_stability(args) -> int:
    cfg = config_dict(args)
    if args.dim < 1:
        raise CliInputError("--dim must be >= 1")
    degree = parse_degree(args.degree)
    gamma_h = args.gamma_h
    if args.preset:
        if gamma_h is not None:
            raise CliInputError("--preset and --gamma-h are mutually exclusive")
        try:
            gamma_h = grading_value(args.preset, dim=args.dim, alpha=args.alpha)
        except KeyError as exc:
            raise CliInputError(f"unknown grading preset {args.preset!r}") from exc
    if gamma_h is None and degree != "CR":
        gamma_h = 2.0 ** (args.alpha / args.dim)
    try:
        p = float(args.p)
    except ValueError as exc:
        raise CliInputError(f"invalid exponent --p {args.p!r}") from exc
    verdict = stability_range(args.dim, degree, gamma_h, args.gamma_rho, args.kind, p)
    payload = verdict.to_json_dict()
    payload["meta"] = output_meta(cfg)
    failures = []
    if args.measure:
        if degree == math.inf:
            raise CliInputError("measurement needs a finite degree or CR")
        import numpy as np

        from .mesh import element_distance, max_operator
        from .projection import Operators
        from .stability import Weight, measure_weighted_stability

        mesh = build_mesh(args)
        space = make_space(mesh, degree, False)
        ops = Operators(space)
        kind_dist = "face" if degree == "CR" else "vertex"
        dist = element_distance(mesh, kind_dist)
        rng = np.random.default_rng(args.seed)
        seed_elem = dist.ids[int(rng.integers(dist.n))]
        base = {s: 1.0 if s == seed_elem else 1e-9 for s in dist.ids}
        # the 1-graded majorant of the base is its maximum, 1.0, everywhere
        graded = max_operator(base, args.gamma_rho, dist) if args.gamma_rho > 1 else dict.fromkeys(dist.ids, 1.0)
        weight = Weight(graded, dist)
        result = measure_weighted_stability(ops, weight, p=p, kind=args.kind, seed=args.seed)
        payload["measurement"] = {
            "measured": result.measured,
            "bound": result.bound,
            "bound_applicable": result.bound_applicable,
            "passed": result.passed,
            "gamma_rho_actual": result.gamma_rho,
            "elements": mesh.n_active,
        }
        if result.passed is False:
            failures.append("weighted stability bound violated")
    out = Path(args.out) / "stability_verdict.json"
    write_json(out, payload)
    print(f"{verdict.kind} d={verdict.dim} K={verdict.degree}: interval {verdict.interval_text()}; wrote {out}")
    for msg in failures:
        print(msg, file=sys.stderr)
    return 2 if failures else 0


def cmd_cr_check(args) -> int:
    import numpy as np

    from .mesh import kuhn_initial_mesh
    from .polyspace import CRSpace
    from .projection import Operators, _random_poly

    cfg = config_dict(args)
    tols = effective_tolerances(args)
    out_dir = Path(args.out)
    failures = []
    results = {}
    for d in (2, 3):
        mesh = kuhn_initial_mesh(d, 1)
        rng = np.random.default_rng(args.seed)
        for _ in range(args.rounds):
            ids = mesh.active_ids()
            marked = [s for s in ids if rng.random() < 0.3] or ids[:1]
            mesh.refine_lg(marked, 1)
        space = CRSpace(mesh)
        ops = Operators(space)
        cert = ops.certify()
        entry = cert.to_json_dict({"elements": mesh.n_active, "dim": d})
        if cert.kappa > cert.bound_kappa + tols["kappa_slack"]:
            failures.append(f"d={d}: kappa {cert.kappa} exceeds {cert.bound_kappa}")
        if d == 2:
            u = _random_poly(mesh, mesh.active_ids(), 1, np.random.default_rng(args.seed))
            diff = float(np.max(np.abs(ops.apply_C(u) - ops.project(u))))
            entry["c_equals_q_maxdiff"] = diff
            if diff > tols["identity"]:
                failures.append(f"d=2: C_CR != Q_CR (diff {diff:.2e})")
        results[f"d{d}"] = entry
    results["thresholds"] = cr_dimension_thresholds(args.probe_limit)
    if results["thresholds"]["lp_all_p_max_d"] != 35 or results["thresholds"]["w1p_all_p_max_d"] != 32:
        failures.append("dimension thresholds moved")
    payload = {"results": results, "meta": output_meta(cfg, tols)}
    write_json(out_dir / "cr_check.json", payload)
    print(f"wrote {out_dir}/cr_check.json")
    for msg in failures:
        print(msg, file=sys.stderr)
    return 2 if failures else 0


# The closure theorem bounds the cumulative ratio R_k by a constant of the
# initial mesh but says nothing of how fast R_k approaches it.  Growth linear
# in k doubles R over each doubling of k.  On random-count:4 runs with alpha 1
# (seeds 0-11, d = 2 and 3, 640 rounds) R_k / R_(k/2) is at most 1.15 in
# d = 2 and 1.41 in d = 3 at every k >= 160, while d = 3 transients still
# read up to 1.54 at k = 100 and 1.68 at k = 80, so the gate starts at 160.
TREND_MIN_ROUNDS = 160
TREND_FACTOR = 1.5


def closure_growth(ratios: list[float]) -> tuple[int, float, float] | None:
    """The latest doubling point k (k = n, n/2, n/4, ... >= TREND_MIN_ROUNDS,
    n = len(ratios)) at which the cumulative ratio R_k = ratios[k - 1] exceeds
    TREND_FACTOR times R_(k // 2) > 0, as (k, R_(k // 2), R_k); None when
    there is none.  Growth like sqrt(k) (1.41 per doubling) or log k passes."""
    k = len(ratios)
    while k >= TREND_MIN_ROUNDS:
        before, after = ratios[k // 2 - 1], ratios[k - 1]
        if before > 0 and after > TREND_FACTOR * before:
            return k, before, after
        k //= 2
    return None


def cmd_closure_bench(args) -> int:
    from .mesh import closure_benchmark, kuhn_initial_mesh

    cfg = config_dict(args)
    mesh = kuhn_initial_mesh(args.dim, args.cells)
    report = closure_benchmark(mesh, args.policy, args.rounds, alpha=args.alpha, seed=args.seed)
    ratios = report.ratios()
    rows = []
    for i in range(report.rounds):
        rows.append(
            [
                str(i),
                str(report.marked_per_round[i]),
                str(report.elements_per_round[i]),
                round4(ratios[i]) if report.marked_per_round[i] or i else "no-op",
            ]
        )
    final = report.ratio
    rows.append(["total", str(report.total_marked), str(report.elements_per_round[-1] if report.elements_per_round else mesh.n_active), "no-op" if final is None else round4(final)])
    out = Path(args.out) / "closure_bench.tsv"
    write_tsv(out, tsv_header_lines(cfg), ["round", "marked", "elements", "ratio"], rows)
    print(f"closure ratio: {'no-op' if final is None else f'{final:.4f}'}; wrote {out}")
    if len(ratios) < TREND_MIN_ROUNDS:
        print(f"trend gate undecided: it decides from {TREND_MIN_ROUNDS} rounds, got {len(ratios)}")
        return 0
    growth = closure_growth(ratios)
    if growth is not None:
        k, before, after = growth
        print(f"closure ratio growth trend: R_{k} / R_{k // 2} = {after:.4f} / {before:.4f} > {TREND_FACTOR}",
              file=sys.stderr)
        return 2
    print(f"no growth trend: R_k / R_(k/2) <= {TREND_FACTOR} at k = {len(ratios)} and its halvings >= "
          f"{TREND_MIN_ROUNDS} (catches linear growth, not sqrt(k) or log k growth)")
    return 0


def cmd_grading(args) -> int:
    from .mesh import element_distance, grading_of, level_gap, regularized_h_grading, write_element_report

    cfg = config_dict(args)
    mesh = build_mesh(args)
    out_dir = Path(args.out)
    dist_v = element_distance(mesh, "vertex")
    dist_f = element_distance(mesh, "face")
    reg = regularized_h_grading(mesh, dist_v, gamma=2.0)
    payload = {
        "elements": mesh.n_active,
        "max_level": mesh.max_level(),
        "gamma_h_vertex": reg.raw_grading,
        "gamma_h_face": float(grading_of(mesh.h_values(), dist_f)) if mesh.n_active > 1 else 1.0,
        "level_gap_vertex": level_gap(mesh, dist_v),
        "level_gap_face": level_gap(mesh, dist_f),
        "regularized_h": {
            "gamma": reg.gamma,
            "grading": reg.regularized_grading,
            "equivalence_ratio": reg.equivalence_ratio,
            "note": "measured evidence only; the grading-2 conjecture is never asserted",
        },
        "meta": output_meta(cfg),
    }
    write_json(out_dir / "grading.json", payload)
    write_element_report(mesh, dist_v, out_dir / "elements.tsv")
    print(
        f"gamma_h vertex={payload['gamma_h_vertex']:.6f} face={payload['gamma_h_face']:.6f}; wrote {out_dir}/grading.json"
    )
    return 0


# -- parser ------------------------------------------------------------------------------


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_mesh_options(p):
    p.add_argument("--dim", type=int, default=2, help="space dimension")
    p.add_argument("--cells", type=int, default=1, help="initial cubes per axis")
    p.add_argument("--rounds", type=int, default=4, help="marking rounds")
    p.add_argument("--alpha", type=int, default=1, help="limited-grading parameter (0: plain closure)")
    p.add_argument("--policy", default="corner", help="marking policy: uniform | corner | random:<fraction>")
    p.add_argument("--mesh", default=None, help="initial mesh JSON instead of the Kuhn mesh; --rounds refine it")
    p.add_argument("--seed", type=int, default=0, help="seed fixing all randomness")
    p.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")


def build_parser() -> Parser:
    parser = Parser(prog="gradedproj", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="generate and refine a mesh, write mesh + grading report")
    _add_mesh_options(p)
    p.add_argument("--out", default="out/refine")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("certify", help="spectral certificate for the approximating operator")
    _add_mesh_options(p)
    p.add_argument("--degree", default="1", help="polynomial degree or CR")
    p.add_argument("--zero-trace", action="store_true", help="zero trace on the marked boundary")
    p.add_argument("--out", default="out/certify")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("decay", help="masked-norm decay of the projection against the bound")
    _add_mesh_options(p)
    p.add_argument("--degree", default="1")
    p.add_argument("--trials", type=int, default=3, help="random samples per shell")
    p.add_argument("--out", default="out/decay")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("tables", help="reproduce the published q and stability-range tables")
    p.add_argument("--probe-limit", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out/tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("stability", help="analytic stability verdict, optionally measured")
    _add_mesh_options(p)
    p.add_argument("--degree", default="1")
    p.add_argument("--gamma-h", type=float, default=None, help="mesh size grading (default 2^(alpha/d))")
    p.add_argument("--preset", default=None, help="published grading preset: 2D-RGB | 2D-NVB+ | 2D-NVB- | 2D-RG | 2D-RG-GHS | BiSecLG")
    p.add_argument("--gamma-rho", type=float, default=1.0)
    p.add_argument("--kind", choices=["Lp", "W1p"], default="Lp")
    p.add_argument("--p", default="2")
    p.add_argument("--measure", action="store_true", help="also measure the weighted ratio on a mesh")
    p.add_argument("--out", default="out/stability")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("cr-check", help="Crouzeix-Raviart certificates and dimension thresholds")
    p.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--probe-limit", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out/cr")
    p.set_defaults(func=cmd_cr_check)

    p = sub.add_parser("closure-bench", help="closure-overhead ratio over marking rounds")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--cells", type=int, default=1)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--policy", default="corner")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out/closure")
    p.set_defaults(func=cmd_closure_bench)

    p = sub.add_parser("grading", help="grading audit of a mesh")
    _add_mesh_options(p)
    p.add_argument("--out", default="out/grading")
    p.set_defaults(func=cmd_grading)

    return parser


# smallest accepted value of each integer option; cr_dimension_thresholds
# scans d = 2..probe_limit, --alpha 0 means plain closure, and numpy's
# generators take no negative seed
OPTION_MINIMUM = {"rounds": 0, "trials": 0, "probe_limit": 2, "alpha": 0, "seed": 0}


def check_minimums(args) -> None:
    for name, low in OPTION_MINIMUM.items():
        value = getattr(args, name, low)
        if value < low:
            raise CliInputError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_minimums(args)
        effective_tolerances(args)  # a malformed --tolerance fails every command that takes one
        return args.func(args)
    except (GradedProjError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
