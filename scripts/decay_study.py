#!/usr/bin/env python3
"""Masked-norm decay of the projection versus the certified bound.

Refines a corner-graded mesh, measures the exact operator norm of
1_L Q 1_{L'} for every distance shell around a corner source, and writes a
plot-ready TSV of (delta, measured, sampled, bound) per configuration.
"""

import sys
from pathlib import Path

import numpy as np

from gradedproj.mesh import element_distance, kuhn_initial_mesh, marking_policy
from gradedproj.polyspace import CRSpace, LagrangeSpace
from gradedproj.projection import Operators, measure_decay, write_decay_tsv

CASES = [
    # dim, degree, rounds of corner refinement + uniform sweeps
    (2, 1, 10), (2, 2, 8), (3, 1, 6), (2, "CR", 10), (3, "CR", 5),
]


def run(out_dir: str = "out/decay", seed: int = 0) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for dim, degree, rounds in CASES:
        mesh = kuhn_initial_mesh(dim, 1)
        corner = marking_policy("corner")
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            mesh.refine_lg(corner(mesh, rng), 1)
        mesh.refine_uniform(1)
        space = CRSpace(mesh) if degree == "CR" else LagrangeSpace(mesh, degree)
        ops = Operators(space)
        kind = "face" if degree == "CR" else "vertex"
        dist = element_distance(mesh, kind)
        src = [s for s in mesh.active_ids()][:1]
        shells = dist.from_source(src[0])
        rows = []
        for delta in sorted({int(x) for x in shells if x > 0}):
            members = [dist.ids[i] for i in np.flatnonzero(shells == delta)]
            rows.append(measure_decay(ops, dist, members, src, trials=2, seed=seed + delta))
        name = f"decay_d{dim}_{degree}.tsv"
        write_decay_tsv(out / name, rows, [f"dim={dim} degree={degree} elements={mesh.n_active}"])
        worst = max((r.exact_norm / r.bound for r in rows if r.bound > 0), default=0.0)
        print(f"d={dim} K={degree}: {len(rows)} shells, worst measured/bound = {worst:.3f} -> {name}")
    return 0


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
