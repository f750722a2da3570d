"""Helpers of the mesh, projection and stability layers that only the tests
use: a one-simplex mesh, saving a mesh file, graph connectivity, the
per-simplex Kuhn mesh the bulk build replaced, the unfused bisection kernel
the one-pass bisection replaced, the per-element evaluation and the
Fraction norm of elementwise polynomials that the stacked coefficient table
replaced, the unaccelerated iteration with the Chebyshev error factor it is
compared against, the masked projection norm over two element sets, the
per-shell block decay measurement and source block that the one solve per
source replaced, the per-call breadth-first set distance, the
Fraction-per-coefficient random polynomial and the per-candidate sampled
weighted ratio that the kept distance rows, the table of quarters and the
block solve replaced, the dense weighted-ratio engine the scaled Cholesky
factors replaced, and the volume-decay constants of a weight."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from gradedproj.analytic import ProjectionError, StabilityError, StabilityVerdict, _round_down4, _round_up4, gamma_max_bound
from gradedproj.mesh import (
    UNREACHABLE,
    ElementDistance,
    MeshError,
    SimplicialMesh,
    TaggedSimplex,
    _count,
    boundary_faces,
    first_appearance,
    level_gap,
    marking_policy,
)
from gradedproj.polyspace import BarycentricPoly, monomial_values, multi_indices
from gradedproj.projection import (
    DecayMeasurement,
    ElementwisePoly,
    Operators,
    _random_poly,
    _sym,
    one_blas_thread,
    weighted_mass,
    weighted_stiffness,
)
from gradedproj.stability import _weighted_p_norm, layer_decomposition

# -- meshes ---------------------------------------------------------------------------


def reference_simplex_mesh(dim: int, mark_boundary: bool = False) -> SimplicialMesh:
    """A mesh of one reference simplex conv(0, e_1, ..., e_d), tag d, level 0."""
    vertices = [[[int(i == j - 1), 0] for i in range(dim)] for j in range(dim + 1)]
    faces = [[v for v in range(dim + 1) if v != j] for j in range(dim + 1)] if mark_boundary else []
    simplex = {"v": list(range(dim + 1)), "tag": dim, "level": 0}
    return SimplicialMesh.from_json_dict(
        {"version": 1, "dim": dim, "vertices": vertices, "simplices": [simplex], "gamma_faces": faces}
    )


def loop_kuhn_initial_mesh(dim: int, cells_per_axis: int = 1, mark_boundary: bool = True) -> SimplicialMesh:
    """mesh.kuhn_initial_mesh before the bulk build, verbatim: one
    add_vertex per vertex and one _add_simplex, with a Fraction volume of
    its own, per simplex."""
    if not 1 <= dim <= 8:
        raise MeshError(f"unsupported dimension {dim}")
    if cells_per_axis < 1:
        raise MeshError("cells_per_axis must be >= 1")
    mesh = SimplicialMesh(dim)
    offsets = np.array(list(product(range(cells_per_axis), repeat=dim)), dtype=np.int64)
    steps = np.eye(dim, dtype=np.int64)[np.array(list(permutations(range(dim))))]  # unit step k along perm[k]
    paths = np.concatenate([np.zeros((len(steps), 1, dim), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    corners = (offsets[:, None, None, :] + paths[None]).reshape(-1, dim)
    ids, first = first_appearance(corners)
    for point in corners[first].tolist():
        mesh.add_vertex(tuple(point))
    for verts in ids.reshape(-1, dim + 1).tolist():
        mesh._add_simplex(tuple(verts), dim, 0, None, Fraction(1, math.factorial(dim)))
    if mark_boundary:
        mesh.gamma_faces = boundary_faces(mesh)
    return mesh


def save_mesh(mesh: SimplicialMesh, path) -> None:
    """Write the mesh file the CLI reads with --mesh."""
    with open(path, "w") as fh:
        json.dump(mesh.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


def connected(dist: ElementDistance) -> bool:
    return bool(np.all(dist.from_source(dist.ids[0]) != UNREACHABLE)) if dist.n else True


def bfs_dist_sets(dist: ElementDistance, left, right) -> int:
    """ElementDistance.dist_sets before the kept rows, verbatim: one
    breadth-first search from left per call, read at right."""
    left = [dist.pos[s] for s in left]
    right = [dist.pos[s] for s in right]
    if not left or not right:
        raise MeshError("element sets must be nonempty")
    vals = dist._bfs(left)[right]
    return UNREACHABLE if np.any(vals == UNREACHABLE) else int(vals.min())


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
        self.simplices[sid] = TaggedSimplex(vertices, tag, level, parent)
        self._active.add(sid)
        self._volumes[sid] = volume
        _count(self._level_counts, level, 1)
        for v in vertices:
            self._stars[v].add(sid)
            self._count_star_level(v, level, 1)
        return sid

    def _deactivate(self, sid: int) -> None:
        simplex = self.simplices[sid]
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


def refine_rounds(mesh: SimplicialMesh, policy: str, rounds: int, alpha: int, seed: int) -> SimplicialMesh:
    """The CLI's own marking loop before it ran through closure_benchmark,
    verbatim: pick, then BiSecLG(alpha), or plain closure for alpha = 0; no
    rounds read no policy."""
    if rounds:
        pick = marking_policy(policy)
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            marked = pick(mesh, rng)
            if not marked:
                continue
            if alpha > 0:
                mesh.refine_lg(marked, alpha)
            else:
                mesh.refine_closure(marked)
    return mesh


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
    """Exact operator norm of u |-> 1_L Q (1_{L'} u) on L2, from the kept
    source block of L' and the shell form of L."""
    source = ops.source_block(right)
    return 0.0 if source is None else source.masked_norm(source.shell_form(ops.space, left))


# -- decay measurement -------------------------------------------------------------------------


def block_source_block(ops: Operators, right: Sequence[int]) -> np.ndarray | None:
    """Operators.source_block before the per-source solve, verbatim but
    without its dict: Y = M^-1 [M_R^1/2] for the element set R = right: M_R
    the mass over R restricted to the dofs of R, M_R^1/2 its square root
    from the eigenpairs above 1e-14 of the largest, zero outside those dofs.
    None when R carries no dof or M_R vanishes."""
    right = sorted(right)
    m_right = ops.space.element_mass(right)
    sub = sorted({g for sid in right for g in ops.space.cell_dofs(sid) if g >= 0})
    if not sub:
        return None
    block = m_right[np.ix_(sub, sub)].toarray()
    with one_blas_thread():
        w, u = np.linalg.eigh(_sym(block))
        keep = w > max(w.max(), 0.0) * 1e-14
        if not np.any(keep):
            return None
        half = u[:, keep] * np.sqrt(w[keep])
        cols = np.zeros((ops.space.n_dofs, half.shape[1]))
        cols[sub, :] = half
        return ops.solve_mass(cols)


def block_measure_decay(ops: Operators, dist: ElementDistance, left, right, trials=5, seed=0, q=None) -> DecayMeasurement:
    """projection.measure_decay before the per-source solve, verbatim but for
    block_source_block: the trials drawn first and projected by one block
    solve per shell, and one sparse product M_L [Y | X] of the mass over L
    for the exact masked norm and the sampled bound."""
    left = sorted(left)
    right = sorted(right)
    if not left or not right:
        raise ProjectionError("element sets must be nonempty")
    delta = dist.dist_sets(left, right)
    qq = q if q is not None else ops.q_bound()
    bound = min(2.0 * qq ** max(delta - 1, 0), 1.0) if delta >= 1 else 1.0
    m_left = ops.space.element_mass(left)
    rng = np.random.default_rng(seed)
    drawn = [_random_poly(ops.mesh, right, ops.space.degree + 1, rng) for _ in range(trials)]
    live = [(u, norm_u) for u in drawn if (norm_u := u.norm2()) != 0]
    y = block_source_block(ops, right)
    blocks = [] if y is None else [y]
    if live:
        blocks.append(ops.solve_mass(np.column_stack([ops.rhs(u) for u, _ in live])))
    exact = sampled = 0.0
    if blocks:
        products = m_left @ np.hstack(blocks)
        if y is not None:
            ev = np.linalg.eigvalsh(_sym(y.T @ products[:, : y.shape[1]]))
            exact = math.sqrt(max(float(ev[-1]), 0.0))
        if live:
            xs, m_xs = np.ascontiguousarray(blocks[-1].T), np.ascontiguousarray(products[:, -len(live) :].T)
            for x, m_x, (_, norm_u) in zip(xs, m_xs, live):
                sampled = max(sampled, math.sqrt(max(float(x @ m_x), 0.0)) / norm_u)
    return DecayMeasurement(delta=delta, exact_norm=exact, sampled=sampled, bound=bound)


def fraction_random_poly(mesh: SimplicialMesh, support: Sequence[int], degree: int, rng) -> ElementwisePoly:
    """projection._random_poly before the table of quarters, verbatim: a new
    Fraction per coefficient."""
    polys = {}
    for sid in support:
        monos = multi_indices(mesh.dim, degree)
        coeffs = {m: Fraction(int(rng.integers(-9, 10)), 4) for m in monos}
        polys[sid] = BarycentricPoly(mesh.dim, coeffs)
    return ElementwisePoly(mesh, polys)


# -- weighted ratio ----------------------------------------------------------------------------


def _exact_weighted_ratio(ops, link, wc2, wf2, gradient: bool) -> float:
    """The dense engine of stability._exact_weighted_ratio before the scaled
    Cholesky factors, verbatim: an eigendecomposition of the fine form B, its
    kernel dropped by a relative cutoff of 1e-12, and every eigenvalue of X^T
    T X on the rest."""
    coarse, fine = link.coarse, link.fine
    x = ops.solve_mass(link.mixed_mass().toarray())  # projection matrix fine -> coarse coefficients
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


def loop_sampled_weighted_ratio(ops, link, weight, wc, wf, p, kind, samples, seed) -> float:
    """stability._sampled_weighted_ratio before the block solve, verbatim:
    one mass solve per candidate."""
    rng = np.random.default_rng(seed)
    fine = link.fine
    layers = layer_decomposition(weight)
    candidates = []
    for _ in range(samples):
        candidates.append(rng.standard_normal(fine.n_dofs))
    children: dict[int, list[int]] = {}
    for fs, anc in link.ancestors.items():
        children.setdefault(anc, []).append(fs)
    keys = sorted(layers)
    for key in (keys[0], keys[-1]):
        for sid in layers[key][:2]:
            dofs = fine.dof_rows(children.get(sid, []))
            vec = np.zeros(fine.n_dofs)
            vec[dofs[dofs >= 0]] = 1.0
            if vec.any():
                candidates.append(vec)
    best = 0.0
    for vec in candidates:
        denom = _weighted_p_norm(fine, vec, wf, p, kind)
        if denom <= 0:
            continue
        qc = ops.solve_mass(link.mixed_mass() @ vec)
        numer = _weighted_p_norm(ops.space, qc, wc, p, kind)
        best = max(best, numer / denom)
    return best


def dense_top_rayleigh(ops, link, wc2, wf2, gradient: bool) -> float:
    """The Rayleigh quotient (X u)^T T (X u) / u^T B u of the top eigenvector u
    the dense engine finds, formed directly from the two forms."""
    coarse, fine = link.coarse, link.fine
    x = ops.solve_mass(link.mixed_mass().toarray())
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


# -- admissible p-intervals -----------------------------------------------------------------


def four_branch_stability_range(dim, degree, gamma_h=None, gamma_rho=1.0, kind="Lp", p=2.0) -> StabilityVerdict:
    """analytic.stability_range with one StabilityVerdict per branch, verbatim."""
    if dim < 1:
        raise StabilityError("dim must be >= 1")
    if kind not in ("Lp", "W1p"):
        raise StabilityError(f"unknown stability kind {kind!r}")
    if not 1 <= gamma_rho < math.inf:
        raise StabilityError("gamma_rho must be finite and >= 1")
    is_cr = degree == "CR"
    if gamma_h is None:
        if not is_cr:
            raise StabilityError("gamma_h required for Lagrange verdicts")
        gamma_h = 2.0 ** (1.0 / dim)
    if not 1 <= gamma_h < math.inf:
        raise StabilityError("gamma_h must be finite and >= 1")
    gmax = gamma_max_bound(dim, degree)
    s = 1 if kind == "W1p" else 0

    def admissible_at(t: float) -> bool:
        return gamma_rho * gamma_h ** (s + dim * t) < gmax

    p_val = math.inf if p in (None, math.inf) else float(p)
    if not p_val >= 1:
        raise StabilityError("p must be in [1, inf]")
    t_of_p = 0.5 if p_val == math.inf else abs(0.5 - 1.0 / p_val)
    admissible = admissible_at(t_of_p)

    if gamma_h == 1.0 or gmax == math.inf:
        all_p = admissible_at(0.5)
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
            all_p=all_p, empty=not all_p and not admissible_at(0.0),
            p_lower=None if all_p else None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )

    t_star = (math.log(gmax) - math.log(gamma_rho) - s * math.log(gamma_h)) / (dim * math.log(gamma_h))
    if t_star <= 0:
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, False,
            all_p=False, empty=True, p_lower=None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )
    if t_star > 0.5:
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
            all_p=True, empty=False, p_lower=None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )
    p_lower = 2.0 / (1.0 + 2.0 * t_star)
    p_upper = math.inf if t_star >= 0.5 else 2.0 / (1.0 - 2.0 * t_star)
    return StabilityVerdict(
        dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
        all_p=False, empty=False, p_lower=p_lower, p_upper=p_upper,
        p_lower_display=_round_up4(p_lower),
        p_upper_display=None if p_upper == math.inf else _round_down4(p_upper),
        gamma_max_bound=gmax,
    )
