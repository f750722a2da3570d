"""Helpers of the mesh, projection and stability layers that only the tests
use: a one-simplex mesh, saving a mesh file, graph connectivity, the
unfused bisection kernel the one-pass bisection replaced, the
per-element evaluation and the Fraction norm of elementwise polynomials that
the stacked coefficient table replaced, the unaccelerated iteration with the
Chebyshev error factor it is compared against, the masked projection norm
over two element sets, the dense weighted-ratio engine the scaled Cholesky
factors replaced, and the volume-decay constants of a weight."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from gradedproj.analytic import StabilityError
from gradedproj.mesh import UNREACHABLE, ElementDistance, MeshError, SimplicialMesh, TaggedSimplex, _count, level_gap
from gradedproj.polyspace import BarycentricPoly, monomial_values
from gradedproj.projection import ElementwisePoly, Operators, _masked_norm, weighted_mass, weighted_stiffness

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


class UnfusedBisectionMesh(SimplicialMesh):
    """The bisection kernel before the fused step, verbatim: each simplex's
    exact volume in _volumes (a child gets its parent's divided by 2), the
    parent deactivated and each child added with one histogram step per
    vertex (3(d+1) in all), frozenset edge keys, and every face of the
    parent looked up in the gamma faces.  Closure and grading are inherited,
    so they run on this kernel."""

    @classmethod
    def of(cls, mesh: SimplicialMesh) -> "UnfusedBisectionMesh":
        other = mesh.copy()
        other.__class__ = cls
        other._volumes = {sid: mesh.volume(sid) for sid in mesh.simplices}
        other._edge_mid = {frozenset(edge): z for edge, z in mesh._edge_mid.items()}
        return other

    def copy(self) -> "UnfusedBisectionMesh":
        other = super().copy()
        other.__class__ = type(self)
        return other

    def volume(self, sid: int) -> Fraction:
        return self._volumes[sid]

    def _add_simplex(self, vertices, tag, level, parent, volume) -> int:
        sid = self._next_simplex
        self._next_simplex += 1
        self.simplices[sid] = TaggedSimplex(sid, vertices, tag, level, parent)
        self._active.add(sid)
        self._volumes[sid] = volume
        _count(self._level_counts, level, 1)
        for v in vertices:
            self._stars[v].add(sid)
            self._count_star_level(v, level, 1)
        return sid

    def _deactivate(self, sid: int) -> None:
        simplex = self.simplices[sid]
        simplex.active = False
        self._active.discard(sid)
        _count(self._level_counts, simplex.level, -1)
        for v in simplex.vertices:
            self._stars[v].discard(sid)
            self._count_star_level(v, simplex.level, -1)

    def _count_star_level(self, v: int, level: int, step: int) -> None:
        hist = self._star_levels[v]
        count = hist.get(level, 0)
        if count and count + step:
            hist[level] = count + step
            return
        if len(hist) > 1:
            _count(self._span_counts, max(hist) - min(hist), -1)
        _count(hist, level, step)
        if len(hist) > 1:
            _count(self._span_counts, max(hist) - min(hist), 1)

    def bisect(self, sid: int) -> tuple[int, int, int]:
        if sid not in self._active:
            raise MeshError(f"simplex {sid} is not active")
        s = self.simplices[sid]
        k = s.tag
        v = s.vertices
        a, b = v[0], v[k]
        key = frozenset((a, b))
        zid = self._edge_mid.get(key)
        if zid is None:
            zid = self._edge_mid[key] = self._add_midpoint(a, b)
        new_tag = k - 1 if k > 1 else self.dim
        half = self.volume(sid) / 2
        self._deactivate(sid)
        self._split_gamma(s, a, b, zid)
        c1 = self._add_simplex(v[:k] + (zid,) + v[k + 1 :], new_tag, s.level + 1, sid, half)
        c2 = self._add_simplex(v[1 : k + 1] + (zid,) + v[k + 1 :], new_tag, s.level + 1, sid, half)
        return c1, c2, zid

    def _split_gamma(self, s: TaggedSimplex, a: int, b: int, zid: int) -> None:
        gamma = self._gamma_faces
        if not gamma:
            return
        vset = set(s.vertices)
        for drop in s.vertices:
            face = frozenset(vset - {drop})
            if face in gamma and a in face and b in face:
                gamma.discard(face)
                gamma.add(face - {a} | {zid})
                gamma.add(face - {b} | {zid})

    def hanging_edge(self, sid: int) -> tuple[int, int] | None:
        split = self._edge_mid
        for a, b in combinations(self.simplices[sid].vertices, 2):
            if frozenset((a, b)) in split:
                return a, b
        return None


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


# -- weighted ratio ----------------------------------------------------------------------------


def _exact_weighted_ratio(ops, link, wc2, wf2, gradient: bool) -> float:
    """The dense engine of stability._exact_weighted_ratio before the scaled
    Cholesky factors, verbatim: an eigendecomposition of the fine form B, its
    kernel dropped by a relative cutoff of 1e-12, and every eigenvalue of X^T
    T X on the rest."""
    coarse, fine = link.coarse, link.fine
    x = ops.solve_mass_multi(link.mixed_mass().toarray())  # projection matrix fine -> coarse coefficients
    form = weighted_stiffness if gradient else weighted_mass
    top = form(coarse, wc2).toarray()
    bot = form(fine, wf2).toarray()
    a = x.T @ top @ x
    a = 0.5 * (a + a.T)
    bot = 0.5 * (bot + bot.T)
    w, v = np.linalg.eigh(bot)
    keep = w > max(w.max(), 0.0) * 1e-12
    basis = v[:, keep] / np.sqrt(w[keep])
    small = basis.T @ a @ basis
    ev = np.linalg.eigvalsh(0.5 * (small + small.T))
    return math.sqrt(max(float(ev[-1]), 0.0))


def dense_top_rayleigh(ops, link, wc2, wf2, gradient: bool) -> float:
    """The Rayleigh quotient (X u)^T T (X u) / u^T B u of the top eigenvector u
    the dense engine finds, formed directly from the two forms."""
    coarse, fine = link.coarse, link.fine
    x = ops.solve_mass_multi(link.mixed_mass().toarray())
    form = weighted_stiffness if gradient else weighted_mass
    top = form(coarse, wc2).toarray()
    bot = form(fine, wf2).toarray()
    w, v = np.linalg.eigh(0.5 * (bot + bot.T))
    keep = w > max(w.max(), 0.0) * 1e-12
    basis = v[:, keep] / np.sqrt(w[keep])
    a = x.T @ top @ x
    small = basis.T @ (0.5 * (a + a.T)) @ basis
    u = basis @ np.linalg.eigh(0.5 * (small + small.T))[1][:, -1]
    xu = x @ u
    return float(xu @ top @ xu) / float(u @ bot @ u)


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
