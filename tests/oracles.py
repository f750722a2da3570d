"""Helpers of the mesh, projection and stability layers that only the tests
use: a one-simplex mesh, saving a mesh file, graph connectivity, the
per-element evaluation and the Fraction norm of elementwise polynomials that
the stacked coefficient table replaced, the unaccelerated iteration with the
Chebyshev error factor it is compared against, the masked projection norm
over two element sets, and the volume-decay constants of a weight."""

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gradedproj.analytic import StabilityError
from gradedproj.mesh import UNREACHABLE, ElementDistance, SimplicialMesh, level_gap
from gradedproj.polyspace import BarycentricPoly, monomial_values
from gradedproj.projection import ElementwisePoly, Operators, _masked_norm

# -- meshes ---------------------------------------------------------------------------


def reference_simplex_mesh(dim: int, mark_boundary: bool = False) -> SimplicialMesh:
    """A mesh of one reference simplex conv(0, e_1, ..., e_d), tag d, level 0."""
    vertices = [[[int(i == j - 1), 0] for i in range(dim)] for j in range(dim + 1)]
    faces = [[v for v in range(dim + 1) if v != j] for j in range(dim + 1)] if mark_boundary else []
    simplex = {"v": list(range(dim + 1)), "tag": dim, "level": 0}
    return SimplicialMesh.from_json_dict(
        {"version": 1, "dim": dim, "vertices": vertices, "simplices": [simplex], "gamma_faces": faces}
    )


def save_mesh(mesh: SimplicialMesh, path) -> None:
    """Write the mesh file the CLI reads with --mesh."""
    with open(path, "w") as fh:
        json.dump(mesh.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


def connected(dist: ElementDistance) -> bool:
    return bool(np.all(dist.from_source(dist.ids[0]) != UNREACHABLE)) if dist.n else True


# -- elementwise polynomials ---------------------------------------------------------------


def barycentric_values(poly: BarycentricPoly, bary: np.ndarray) -> np.ndarray:
    """Float values of one element's polynomial at the rows of bary: the
    monomial terms, each formed as in monomial_values, summed one after
    another in coefficient order."""
    out = np.zeros(len(bary))
    for term in monomial_values(tuple(poly.coeffs), bary, tuple(poly.coeffs.values())).T:
        out += term
    return out


def fraction_norm2(u: ElementwisePoly) -> float:
    """L2 norm from the exact square of each element's polynomial, each
    integral rounded once, the floats added one after another in polys order
    (no compensated sum)."""
    total = 0.0
    for sid, poly in u.polys.items():
        total += float((poly * poly).integral(u.mesh.volume(sid)))
    return math.sqrt(total)


# -- iteration toward the projection ------------------------------------------------------


def basic_iterate(ops: Operators, u, nu: int) -> np.ndarray:
    """Unaccelerated recursion u_(k+1) = u_(k) + C(u - u_(k)), u_(0) = 0.

    The iterates converge to the projection; on functions where C acts as the
    identity the first step is already exact.
    """
    x = np.zeros(ops.space.n_dofs)
    if nu == 0:
        return x
    cu = ops.apply_C(u) if not isinstance(u, np.ndarray) else ops.apply_C_coeffs(u)
    for _ in range(nu):
        x = x + cu - ops.apply_C_coeffs(x)
    return x


def chebyshev_error_bound(q: float, nu: int) -> float:
    """Accelerated-iteration error factor 2 q^nu / (1 + q^(2 nu))."""
    if nu <= 0:
        return 1.0
    return 2.0 * q**nu / (1.0 + q ** (2 * nu))


def masked_projection_norm(ops: Operators, left: Sequence[int], right: Sequence[int]) -> float:
    """Exact operator norm of u |-> 1_L Q (1_{L'} u) on L2."""
    return _masked_norm(ops, ops.space.element_mass(left), right)


# -- volume decay -----------------------------------------------------------------------------


@dataclass
class VolumeDecayReport:
    gamma: float
    gamma_h: float
    max_ratio: float  # max over T of sum_T' |T'| gamma^(-delta) / |T|
    factor: float | None  # log(gamma_h) / log(gamma / gamma_h^d)
    constant: float | None  # max_ratio / factor
    uniform_caveat: bool


def volume_decay_constant(mesh: SimplicialMesh, gamma: float, dist: ElementDistance) -> VolumeDecayReport:
    """Exact per-element sums sum_T' |T'| gamma^(-delta(T,T')) relative to |T|."""
    gap = level_gap(mesh, dist)
    gamma_h = 2.0 ** (gap / mesh.dim)
    uniform = gap == 0
    if not uniform and gamma <= gamma_h**mesh.dim:
        raise StabilityError(f"need gamma > gamma_h^d = {gamma_h**mesh.dim:.6f}, got {gamma}")
    vols = np.array([float(mesh.volume(s)) for s in dist.ids])
    max_ratio = 0.0
    for sid, vol in zip(dist.ids, vols):
        row = dist.from_source(sid)
        if np.any(row < 0):
            raise StabilityError("disconnected mesh")
        max_ratio = max(max_ratio, float((gamma ** (-row.astype(float))) @ vols / vol))
    if uniform:
        return VolumeDecayReport(gamma, gamma_h, max_ratio, None, None, True)
    factor = math.log(gamma_h) / math.log(gamma / gamma_h**mesh.dim)
    return VolumeDecayReport(gamma, gamma_h, max_ratio, factor, max_ratio / factor, False)
