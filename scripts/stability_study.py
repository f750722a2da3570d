#!/usr/bin/env python3
"""Weighted-stability measurements on refinement sequences.

Two experiments:
  (1) exact weighted-L2 ratios against the analytic constant
      6 gamma^3 / (1 - gamma q) for a grid of weight gradings;
  (2) gradient-ratio trends (p = 2) across refinement rounds for the
      conforming P1 space in 2D/3D and the broken gradient of the
      nonconforming space, which have no explicit constants and are judged
      by the no-blow-up rule.
"""

import sys
from pathlib import Path

import numpy as np

from gradedproj.mesh import element_distance, kuhn_initial_mesh
from gradedproj.polyspace import CRSpace, LagrangeSpace
from gradedproj.projection import Operators
from gradedproj.stability import Weight, max_operator, measure_weighted_stability


def refine(mesh, rng, fraction, alpha):
    ids = mesh.active_ids()
    marked = [s for s in ids if rng.random() < fraction] or ids[:1]
    mesh.refine_lg(marked, alpha)


def weighted_l2_grid(out, seed):
    rows = []
    for dim, rounds in ((2, 6), (3, 3)):
        mesh = kuhn_initial_mesh(dim, 1)
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            refine(mesh, rng, 0.25, 1)
        ops = Operators(LagrangeSpace(mesh, 1))
        dist = element_distance(mesh, "vertex")
        q = ops.q_bound()
        for gamma in (1.25, 1.5, 2.0, 2.5):
            if gamma * q >= 1.0:
                continue
            anchor = dist.ids[int(rng.integers(dist.n))]
            base = {s: 1.0 if s == anchor else 1e-9 for s in dist.ids}
            weight = Weight(max_operator(base, gamma, dist), dist)
            res = measure_weighted_stability(ops, weight, p=2.0, kind="Lp", seed=seed)
            rows.append((dim, gamma, res.measured, res.bound, res.passed))
            print(f"d={dim} gamma={gamma}: measured {res.measured:.4f} <= bound {res.bound:.1f} [{'ok' if res.passed else 'VIOLATION'}]")
    with open(out / "weighted_l2.tsv", "w") as fh:
        fh.write("dim\tgamma\tmeasured\tbound\tpassed\n")
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


def gradient_trends(out, seed):
    cases = [
        ("P1-2d", 2, "lagrange", 8, 0.3),
        ("P1-3d", 3, "lagrange", 4, 0.2),
        ("CR-2d", 2, "cr", 6, 0.3),
        ("CR-3d", 3, "cr", 4, 0.2),
    ]
    with open(out / "gradient_trends.tsv", "w") as fh:
        fh.write("case\tround\tratio\n")
        for name, dim, kind, rounds, fraction in cases:
            mesh = kuhn_initial_mesh(dim, 1)
            rng = np.random.default_rng(seed)
            ratios = []
            for r in range(rounds):
                refine(mesh, rng, fraction, 1)
                space = CRSpace(mesh) if kind == "cr" else LagrangeSpace(mesh, 1)
                ops = Operators(space)
                dist_kind = "face" if kind == "cr" else "vertex"
                dist = element_distance(mesh, dist_kind)
                weight = Weight({s: 1.0 for s in dist.ids}, dist)
                res = measure_weighted_stability(ops, weight, p=2.0, kind="W1p")
                ratios.append(res.measured)
                fh.write(f"{name}\t{r}\t{res.measured:.8f}\n")
            trend_ok = all(ratios[i] <= 1.05 * max(ratios[:i]) for i in range(3, len(ratios)))
            print(f"{name}: ratios {['%.3f' % x for x in ratios]} no-blow-up: {trend_ok}")


def run(out_dir: str = "out/stability", seed: int = 0) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    weighted_l2_grid(out, int(seed))
    gradient_trends(out, int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
