"""Global L2-projections, their local approximating operators, and spectral
certificates.

For a Lagrange space V_K the approximating operator is assembled from patch
solves: around each mesh vertex i, the hat function phi_i weights an inner
product on the degree-(K-1) patch space, and

    C u = sum_i phi_i C_i u,   <C_i u, v>_{phi_i} = <u, v>_{phi_i}.

C is self-adjoint, is the identity on degree K-1, maps one distance layer
outward, and its condition number on V_K is at most (2K+d)/K.  For the
Crouzeix-Raviart space the analogue is the face-wise operator with condition
number at most d^2/(d+2).  Those condition numbers drive the decay parameter

    q = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)

used by the accelerated (Chebyshev) iteration and the masked-norm decay
bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElementDistance, SimplicialMesh
from .polyspace import (
    BarycentricPoly,
    CRSpace,
    float_vandermonde_inv,
    lambda_nodal_product_table,
    multi_indices,
    node_key,
    reference_element,
    scatter_matrix,
    simplex_quadrature,
)

DENSE_SOLVE_LIMIT = 5000


class ProjectionError(Exception):
    """Operator assembly or solve failure."""


def q_new(dim: int, degree) -> float:
    """Decay parameter (sqrt(2K+d) - sqrt(K)) / (sqrt(2K+d) + sqrt(K));
    degree may be math.inf for the limit (sqrt(2)-1)/(sqrt(2)+1)."""
    if degree == math.inf or degree is None:
        return (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)
    if dim < 1 or degree < 1:
        raise ProjectionError("q_new requires d, K >= 1")
    a = math.sqrt(2.0 * degree + dim)
    b = math.sqrt(float(degree))
    return (a - b) / (a + b)


def cr_q_bound(dim: int) -> float:
    """Decay parameter from the Crouzeix-Raviart condition bound d^2/(d+2)."""
    kappa = dim * dim / (dim + 2.0)
    rk = math.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


def chebyshev_error_bound(q: float, nu: int) -> float:
    """Accelerated-iteration error factor 2 q^nu / (1 + q^(2 nu))."""
    if nu <= 0:
        return 1.0
    return 2.0 * q**nu / (1.0 + q ** (2 * nu))


# -- function-like right-hand sides -------------------------------------------


@dataclass
class ElementwisePoly:
    """A function given as a polynomial per element (zero elsewhere).

    Treated as immutable after construction (degree and support are cached).
    """

    mesh: SimplicialMesh
    polys: dict[int, BarycentricPoly]

    def support(self) -> list[int]:
        if not hasattr(self, "_support"):
            self._support = sorted(self.polys)
        return self._support

    def degree(self) -> int:
        if not hasattr(self, "_degree"):
            self._degree = max((p.degree() for p in self.polys.values()), default=0)
        return self._degree

    def values(self, sid: int, bary: np.ndarray) -> np.ndarray:
        poly = self.polys.get(sid)
        if poly is None:
            return np.zeros(len(bary))
        return _poly_values(poly, bary)

    def norm2(self) -> float:
        total = 0.0
        for sid, poly in self.polys.items():
            sq = poly * poly
            total += float(sq.integral(self.mesh.volume(sid)))
        return math.sqrt(total)


@dataclass
class FeFunction:
    """Coefficient vector over a finite element space."""

    space: object
    coeffs: np.ndarray

    def norm2(self) -> float:
        m = self.space.mass_matrix()
        return math.sqrt(max(float(self.coeffs @ (m @ self.coeffs)), 0.0))


def _poly_values(poly: BarycentricPoly, bary: np.ndarray) -> np.ndarray:
    out = np.zeros(len(bary))
    for mono, coeff in poly.coeffs.items():
        term = np.full(len(bary), float(coeff))
        for j, e in enumerate(mono):
            if e:
                term *= bary[:, j] ** e
        out += term
    return out


@lru_cache(maxsize=None)
def _nodal_values_at_quad(dim: int, degree: int, quad_degree: int) -> np.ndarray:
    """(n_quad, n_nodes) values of the reference nodal basis at GM points."""
    return _lagrange_values(reference_element(dim, degree), simplex_quadrature(dim, quad_degree)[0])


def _lagrange_values(ref, bary: np.ndarray) -> np.ndarray:
    """(n_points, n_nodes) values of the nodal basis of ref at barycentric points."""
    mono_vals = np.ones((len(bary), ref.n))
    for col, mono in enumerate(ref.monos):
        for j, e in enumerate(mono):
            if e:
                mono_vals[:, col] *= bary[:, j] ** e
    return mono_vals @ float_vandermonde_inv(ref.dim, ref.degree)


def _cr_values_at(bary: np.ndarray, dim: int) -> np.ndarray:
    """(n_quad, d+1) values of the Crouzeix-Raviart basis 1 - d lambda_j."""
    return 1.0 - dim * bary


# -- assembled operators --------------------------------------------------------


@dataclass
class SpectralCertificate:
    dim: int
    degree: object  # polynomial degree or "CR"
    space: str
    n_dofs: int
    lambda_min: float
    lambda_max: float
    kappa: float
    q: float
    bound_kappa: float
    residual: float

    def to_json_dict(self, mesh_info: dict | None = None) -> dict:
        return {
            "d": self.dim,
            "K": self.degree if isinstance(self.degree, str) else int(self.degree),
            "space": self.space,
            "n_dofs": self.n_dofs,
            "mesh": mesh_info or {},
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "kappa": self.kappa,
            "q": self.q,
            "bound_kappa": self.bound_kappa,
            "residual": self.residual,
        }


class Operators:
    """Mass matrix, projection and approximating operator for one space."""

    def __init__(self, space):
        self.space = space
        self.mesh = space.mesh
        self.dim = space.mesh.dim
        self.mass = space.mass_matrix().tocsc()
        self._solver = None
        if isinstance(space, CRSpace):
            self._assemble_cr()
        else:
            self._assemble_patches()

    # assembly ----------------------------------------------------------------

    def _assemble_cr(self):
        m = self.mass.tocsr()
        diag = np.asarray(m.diagonal())
        if np.any(diag <= 0):
            raise ProjectionError("singular face basis function")
        dinv = sp.diags(1.0 / diag)
        self.apply_matrix = (dinv @ m).tocsr()
        self.form_matrix = (m @ dinv @ m).tocsr()
        self._patches = None
        self._rhs_dinv = 1.0 / diag

    def _assemble_patches(self):
        space = self.space
        mesh, K, d = self.mesh, space.degree, self.dim
        low = reference_element(d, K - 1)
        t_gram = lambda_nodal_product_table(d, K - 1, K - 1)
        t_cross = lambda_nodal_product_table(d, K - 1, K)
        gram_f = np.array([[[float(x) for x in row] for row in t_gram[j]] for j in range(d + 1)])
        cross_f = np.array([[[float(x) for x in row] for row in t_cross[j]] for j in range(d + 1)])
        ref_hi = space.ref
        # values of the low basis at the high nodes, and lambda_j there
        eval_low = np.array(
            [[float(low.nodal_poly(a).evaluate(node)) for a in range(low.n)] for node in ref_hi.node_coords]
        )
        lam_at_hi = np.array([[float(x) for x in node] for node in ref_hi.node_coords])

        members: dict[int, list[tuple[int, int]]] = {}
        for sid in space.element_ids:
            for local_j, v in enumerate(mesh.simplices[sid].vertices):
                members.setdefault(v, []).append((sid, local_j))

        gamma = mesh.gamma_faces if getattr(space, "zero_trace", False) else set()
        n = space.n_dofs
        form = sp.lil_matrix((n, n))
        apply_m = sp.lil_matrix((n, n))
        self._patches = []
        for vertex in sorted(members):
            patch = members[vertex]
            # first pass: dof keys per member, and the keys forced to zero by
            # the trace condition (a banned node is banned for the whole
            # patch: continuity pins its nodal value everywhere)
            member_keys = []
            banned_keys: set = set()
            for sid, local_j in patch:
                verts = mesh.simplices[sid].vertices
                banned_locals = []
                if gamma:
                    vset = set(verts)
                    for jf, drop in enumerate(verts):
                        if jf != local_j and frozenset(vset - {drop}) in gamma:
                            banned_locals.append(jf)
                keys = [node_key(verts, alpha) for alpha in low.monos]
                for key, alpha in zip(keys, low.monos):
                    if any(alpha[jf] == 0 for jf in banned_locals):
                        banned_keys.add(key)
                member_keys.append(keys)
            dof_index: dict[object, int] = {}
            rows = []  # per member: (sid, local_j, patch dof ids per low node, global dofs)
            for (sid, local_j), keys in zip(patch, member_keys):
                local_ids = []
                for key in keys:
                    if key in banned_keys:
                        local_ids.append(-1)
                        continue
                    pid = dof_index.get(key)
                    if pid is None:
                        pid = dof_index[key] = len(dof_index)
                    local_ids.append(pid)
                rows.append((sid, local_j, local_ids, space.cell_dofs(sid).tolist()))
            m_patch = len(dof_index)
            if m_patch == 0:
                continue
            gmat = np.zeros((m_patch, m_patch))
            touched: dict[int, int] = {}
            for sid, local_j, local_ids, gdofs in rows:
                vol = float(mesh.volume(sid))
                for a, pa in enumerate(local_ids):
                    if pa < 0:
                        continue
                    for b, pb in enumerate(local_ids):
                        if pb >= 0:
                            gmat[pa, pb] += vol * gram_f[local_j, a, b]
                for g in gdofs:
                    if g >= 0 and g not in touched:
                        touched[g] = len(touched)
            gcols = sorted(touched, key=touched.get)
            gpos = {g: c for c, g in enumerate(gcols)}
            rmat = np.zeros((m_patch, len(gcols)))
            wmat = np.zeros((len(gcols), m_patch))
            for sid, local_j, local_ids, gdofs in rows:
                vol = float(mesh.volume(sid))
                for a, pa in enumerate(local_ids):
                    if pa < 0:
                        continue
                    for mloc, g in enumerate(gdofs):
                        if g >= 0:
                            rmat[pa, gpos[g]] += vol * cross_f[local_j, a, mloc]
                for mloc, g in enumerate(gdofs):
                    if g >= 0:
                        # nodal value of phi_i * psi_a at the high node
                        for a, pa in enumerate(local_ids):
                            if pa >= 0:
                                wmat[gpos[g], pa] = lam_at_hi[mloc, local_j] * eval_low[mloc, a]
            try:
                gchol = scipy.linalg.cho_factor(gmat)
            except scipy.linalg.LinAlgError as exc:
                raise ProjectionError(f"singular patch system at vertex {vertex}") from exc
            ginv_r = scipy.linalg.cho_solve(gchol, rmat)
            cols = np.array(gcols)
            form[np.ix_(cols, cols)] += rmat.T @ ginv_r
            apply_m[np.ix_(cols, cols)] += wmat @ ginv_r
            self._patches.append(
                {
                    "vertex": vertex,
                    "rows": rows,
                    "chol": gchol,
                    "gcols": cols,
                    "wmat": wmat,
                    "m_patch": m_patch,
                }
            )
        self.form_matrix = form.tocsr()
        self.apply_matrix = apply_m.tocsr()

    # solves --------------------------------------------------------------------

    def _ensure_solver(self):
        """Dense Cholesky up to DENSE_SOLVE_LIMIT dofs, plain CG beyond
        (mass matrices of shape-regular meshes are well conditioned)."""
        if self._solver is not None:
            return
        n = self.space.n_dofs
        if n <= DENSE_SOLVE_LIMIT:
            chol = scipy.linalg.cho_factor(self.mass.toarray())
            self._solver = lambda b: scipy.linalg.cho_solve(chol, b)
        else:
            mass = self.mass
            cap = 40 * int(math.sqrt(n)) + 200

            def cg_solve(b):
                x, info = spla.cg(mass, b, rtol=1e-13, atol=0.0, maxiter=cap)
                if info != 0:
                    raise ProjectionError(f"mass CG did not converge (info={info})")
                return x

            self._solver = cg_solve

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        self._ensure_solver()
        x = self._solver(rhs)
        res = np.linalg.norm(self.mass @ x - rhs)
        scale = np.linalg.norm(rhs)
        if scale > 0 and res > 1e-12 * scale * max(1.0, self.space.n_dofs):
            raise ProjectionError(f"mass solve residual {res/scale:.3e} too large")
        return x

    def solve_mass_multi(self, rhs: np.ndarray) -> np.ndarray:
        """Column-batched mass solve (the dense factorization takes the block whole)."""
        self._ensure_solver()
        if self.space.n_dofs <= DENSE_SOLVE_LIMIT:
            return self._solver(rhs)
        return np.column_stack([self.solve_mass(rhs[:, j]) for j in range(rhs.shape[1])])

    # right-hand sides -------------------------------------------------------------

    def rhs(self, u, quad_degree: int | None = None) -> np.ndarray:
        """Moment vector <u, b_m> for the supported function kinds."""
        if isinstance(u, FeFunction):
            if u.space is self.space:
                return self.mass @ u.coeffs
            if u.space.mesh is self.mesh:
                raise ProjectionError("same-mesh cross-space rhs not supported")
            return self._rhs_refined(u)
        if isinstance(u, ElementwisePoly):
            return self._rhs_polys(u)
        if callable(u):
            return self._rhs_callable(u, quad_degree)
        raise ProjectionError(f"unresolvable integrand kind {type(u)!r}")

    def _quad(self, degree: int):
        pts, wts = simplex_quadrature(self.dim, degree)
        if isinstance(self.space, CRSpace):
            basis = _cr_values_at(pts, self.dim)
        else:
            basis = _nodal_values_at_quad(self.dim, self.space.degree, degree)
        return pts, wts, basis

    def _rhs_polys(self, u: ElementwisePoly) -> np.ndarray:
        if u.mesh is not self.mesh:
            raise ProjectionError("ElementwisePoly must live on the operator mesh")
        deg = self.space.degree + u.degree()
        pts, wts, basis = self._quad(deg)
        sids = u.support()
        contribs = [float(self.mesh.volume(sid)) * (basis.T * wts) @ u.values(sid, pts) for sid in sids]
        return self._scatter_vector(sids, contribs)

    def _rhs_callable(self, u: Callable, quad_degree: int | None) -> np.ndarray:
        deg = quad_degree if quad_degree is not None else 2 * self.space.degree + 2
        pts, wts, basis = self._quad(deg)
        contribs = []
        for sid in self.space.element_ids:
            verts = self.mesh.simplices[sid].vertices
            vcoords = np.array([[float(x) for x in self.mesh.coords[v]] for v in verts])
            phys = pts @ vcoords
            vals = np.array([u(x) for x in phys])
            contribs.append(float(self.mesh.volume(sid)) * (basis.T * wts) @ vals)
        return self._scatter_vector(self.space.element_ids, contribs)

    def _scatter_vector(self, element_ids: Sequence[int], contribs: Sequence[np.ndarray]) -> np.ndarray:
        """Sum per-element moment vectors into the global vector, element by
        element (np.add.at applies repeated indices in order)."""
        dofs = self.space.dof_rows(element_ids)
        local = np.array(contribs).reshape(dofs.shape)
        keep = dofs >= 0
        out = np.zeros(self.space.n_dofs)
        np.add.at(out, dofs[keep], local[keep])
        return out

    def _rhs_refined(self, u: FeFunction) -> np.ndarray:
        fine_space = u.space
        link = TwoMeshLink(self.space, fine_space)
        return link.mixed_mass() @ u.coeffs

    # operators ----------------------------------------------------------------------

    def project(self, u, quad_degree: int | None = None) -> np.ndarray:
        """L2-projection onto the space: solve M x = <u, basis>."""
        return self.solve_mass(self.rhs(u, quad_degree))

    def apply_C_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """C restricted to the space, in coefficients (local, one-layer support)."""
        return self.apply_matrix @ coeffs

    def apply_C(self, u, quad_degree: int | None = None) -> np.ndarray:
        """C u for a general integrand, via the weighted patch solves."""
        if isinstance(u, FeFunction) and u.space is self.space:
            return self.apply_matrix @ u.coeffs
        if isinstance(self.space, CRSpace):
            return self._rhs_dinv * self.rhs(u, quad_degree)
        if isinstance(u, FeFunction):
            # function on a refinement: exact via the two-sided identity C = CQ
            return self.apply_matrix @ self.project(u)
        out = np.zeros(self.space.n_dofs)
        for patch in self._patches:
            r = np.zeros(patch["m_patch"])
            for sid, local_j, local_ids, _ in patch["rows"]:
                r_loc = self._patch_moments(u, sid, local_j, quad_degree)
                for a, pa in enumerate(local_ids):
                    if pa >= 0:
                        r[pa] += r_loc[a]
            c = scipy.linalg.cho_solve(patch["chol"], r)
            out[patch["gcols"]] += patch["wmat"] @ c
        return out

    def _patch_moments(self, u, sid: int, local_j: int, quad_degree: int | None) -> np.ndarray:
        """<phi_i psi_a, u> on one element, phi_i = lambda_{local_j}."""
        K = self.space.degree
        low = reference_element(self.dim, K - 1)
        if isinstance(u, ElementwisePoly):
            deg = K + u.degree()
        else:
            deg = quad_degree if quad_degree is not None else 2 * K + 2
        pts, wts = simplex_quadrature(self.dim, deg)
        basis_low = _nodal_values_at_quad(self.dim, K - 1, deg)
        lam = pts[:, local_j]
        if isinstance(u, ElementwisePoly):
            vals = u.values(sid, pts)
        elif callable(u):
            verts = self.mesh.simplices[sid].vertices
            vcoords = np.array([[float(x) for x in self.mesh.coords[v]] for v in verts])
            vals = np.array([u(x) for x in (pts @ vcoords)])
        else:
            raise ProjectionError("patch moments support polys and callables")
        return float(self.mesh.volume(sid)) * (basis_low.T * (wts * lam)) @ vals

    # spectra ---------------------------------------------------------------------------

    def bound_kappa(self) -> float:
        if isinstance(self.space, CRSpace):
            return self.dim**2 / (self.dim + 2.0)
        K = self.space.degree
        return (2.0 * K + self.dim) / K

    def chebyshev_interval(self) -> tuple[float, float]:
        if isinstance(self.space, CRSpace):
            d = self.dim
            den = 2.0 - d + d * d
            return ((2.0 + d) / den, d * d / den)
        K = self.space.degree
        return (K / (2.0 * K + self.dim), 1.0)

    def q_bound(self) -> float:
        if isinstance(self.space, CRSpace):
            return cr_q_bound(self.dim)
        return q_new(self.dim, self.space.degree)

    def certify(self) -> SpectralCertificate:
        """Eigenvalue certificate for the approximating operator on its space."""
        n = self.space.n_dofs
        if n > DENSE_SOLVE_LIMIT:
            raise ProjectionError("certification limited to dense-solver sizes")
        b = _sym(self.form_matrix.toarray())
        m = _sym(self.mass.toarray())
        w, vecs = scipy.linalg.eigh(b, m)
        lam_min, lam_max = float(w[0]), float(w[-1])
        residual = 0.0
        for pos in (0, n - 1):
            x = vecs[:, pos]
            r = b @ x - w[pos] * (m @ x)
            residual = max(residual, float(np.linalg.norm(r) / max(np.linalg.norm(b @ x), 1e-30)))
        if lam_min <= 0:
            raise ProjectionError(f"operator not elliptic: lambda_min={lam_min}")
        kappa = lam_max / lam_min
        rk = math.sqrt(kappa)
        degree = "CR" if isinstance(self.space, CRSpace) else self.space.degree
        name = "CR" if isinstance(self.space, CRSpace) else (
            f"P{self.space.degree}" + ("_zero_trace" if getattr(self.space, "zero_trace", False) else "")
        )
        return SpectralCertificate(
            dim=self.dim,
            degree=degree,
            space=name,
            n_dofs=n,
            lambda_min=lam_min,
            lambda_max=lam_max,
            kappa=kappa,
            q=(rk - 1.0) / (rk + 1.0),
            bound_kappa=self.bound_kappa(),
            residual=residual,
        )

    # masked matrices ---------------------------------------------------------------------

    def masked_mass(self, element_ids: Iterable[int]) -> sp.csr_matrix:
        """Mass restricted to integration over a collection of elements."""
        return self.space.element_mass(element_ids)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


# -- two-mesh coupling ---------------------------------------------------------------------


class TwoMeshLink:
    """Exact integration coupling between a space and one on a refinement.

    The fine mesh must have been produced by refining a copy() of the coarse
    mesh, so simplex indices are shared and ancestry is the parent chain.
    """

    def __init__(self, coarse_space, fine_space):
        self.coarse = coarse_space
        self.fine = fine_space
        self.ancestors = self._ancestor_map()
        self._mixed = None

    def _ancestor_map(self) -> dict[int, int]:
        coarse_active = set(self.coarse.mesh._active)
        out = {}
        for sid in self.fine.element_ids:
            cur = sid
            while cur is not None and cur not in coarse_active:
                cur = self.fine.mesh.simplices[cur].parent
            if cur is None:
                raise ProjectionError(f"fine element {sid} has no ancestor in the coarse mesh")
            out[sid] = cur
        return out

    def barycentric_map(self, fine_sid: int) -> np.ndarray:
        """B[j, l]: coarse barycentric coordinate j of fine vertex l."""
        coarse_sid = self.ancestors[fine_sid]
        cmesh, fmesh = self.coarse.mesh, self.fine.mesh
        cverts = cmesh.simplices[coarse_sid].vertices
        fverts = fmesh.simplices[fine_sid].vertices
        d = cmesh.dim
        a = np.empty((d + 1, d + 1))
        for col, v in enumerate(cverts):
            a[:d, col] = [float(x) for x in cmesh.coords[v]]
        a[d, :] = 1.0
        rhs = np.empty((d + 1, d + 1))
        for col, v in enumerate(fverts):
            rhs[:d, col] = [float(x) for x in fmesh.coords[v]]
        rhs[d, :] = 1.0
        return np.linalg.solve(a, rhs)

    def mixed_mass(self) -> sp.csr_matrix:
        """M_cf[m, n] = <coarse basis m, fine basis n> (polynomial-exact rule)."""
        if self._mixed is not None:
            return self._mixed
        d = self.coarse.mesh.dim
        deg = self.coarse.degree + self.fine.degree
        pts, wts = simplex_quadrature(d, deg)
        fine_is_cr = isinstance(self.fine, CRSpace)
        coarse_is_cr = isinstance(self.coarse, CRSpace)
        fine_vals = _cr_values_at(pts, d) if fine_is_cr else _nodal_values_at_quad(d, self.fine.degree, deg)
        blocks = []
        for sid in self.fine.element_ids:
            bmap = self.barycentric_map(sid)
            cbary = pts @ bmap.T
            if coarse_is_cr:
                cvals = _cr_values_at(cbary, d)
            else:
                cvals = _lagrange_values(self.coarse.ref, cbary)
            blocks.append(float(self.fine.mesh.volume(sid)) * (cvals.T * wts) @ fine_vals)
        coarse_dofs = self.coarse.dof_rows([self.ancestors[sid] for sid in self.fine.element_ids])
        shape = (self.coarse.n_dofs, self.fine.n_dofs)
        self._mixed = scatter_matrix(coarse_dofs, self.fine.dofs, np.array(blocks), shape)
        return self._mixed


# -- iteration toward the projection ----------------------------------------------------------


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


def accelerated_iterate(ops: Operators, u, nu: int, interval: tuple[float, float] | None = None) -> np.ndarray:
    """Chebyshev-accelerated approximation of the projection after nu rounds.

    Returns the coefficients of the nu-th optimal-polynomial combination of
    the basic iterates; nu = 0 gives zero.  The relative error against the
    true projection obeys 2 q^nu / (1 + q^(2 nu)) with q from the spectral
    interval (the certified bounds by default).  Supports grow by at most one
    distance layer per round.
    """
    n = ops.space.n_dofs
    if nu == 0:
        return np.zeros(n)
    lam_min, lam_max = interval if interval is not None else ops.chebyshev_interval()
    if not 0 < lam_min <= lam_max:
        raise ProjectionError("invalid spectral interval")
    f = ops.apply_C(u) if not isinstance(u, np.ndarray) else ops.apply_C_coeffs(u)
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)
    x = np.zeros(n)
    r = f.copy()
    d_vec = r / theta
    if delta == 0:
        for _ in range(nu):
            x = x + d_vec
            r = r - ops.apply_C_coeffs(d_vec)
            d_vec = r / theta
        return x
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    for k in range(nu):
        x = x + d_vec
        if k == nu - 1:
            break
        r = r - ops.apply_C_coeffs(d_vec)
        rho_next = 1.0 / (2.0 * sigma1 - rho)
        d_vec = rho_next * rho * d_vec + (2.0 * rho_next / delta) * r
        rho = rho_next
    return x


# -- decay measurement ------------------------------------------------------------------------


@dataclass
class DecayMeasurement:
    delta: int
    exact_norm: float
    sampled: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.exact_norm <= self.bound + 1e-9


def masked_projection_norm(ops: Operators, left: Sequence[int], right: Sequence[int]) -> float:
    """Exact operator norm of u |-> 1_L Q (1_{L'} u) on L2, via the low-rank
    symmetric eigenproblem over the dofs supported near L'."""
    m_left = ops.masked_mass(left)
    m_right = ops.masked_mass(right)
    sub = sorted({g for sid in right for g in ops.space.cell_dofs(sid) if g >= 0})
    if not sub:
        return 0.0
    block = m_right[np.ix_(sub, sub)].toarray()
    w, u = np.linalg.eigh(_sym(block))
    keep = w > max(w.max(), 0.0) * 1e-14
    if not np.any(keep):
        return 0.0
    half = u[:, keep] * np.sqrt(w[keep])
    n = ops.space.n_dofs
    cols = np.zeros((n, half.shape[1]))
    cols[sub, :] = half
    y = ops.solve_mass_multi(cols)
    small = _sym(y.T @ (m_left @ y))
    ev = np.linalg.eigvalsh(small)
    return math.sqrt(max(float(ev[-1]), 0.0))


def measure_decay(
    ops: Operators,
    dist: ElementDistance,
    left: Sequence[int],
    right: Sequence[int],
    trials: int = 5,
    seed: int = 0,
    q: float | None = None,
) -> DecayMeasurement:
    """Exact masked-operator norm against the decay bound min(2 q^(delta-1), 1),
    plus a random-sampling lower bound as an independent check."""
    left = sorted(left)
    right = sorted(right)
    if not left or not right:
        raise ProjectionError("element sets must be nonempty")
    delta = dist.dist_sets(left, right)
    qq = q if q is not None else ops.q_bound()
    bound = min(2.0 * qq ** max(delta - 1, 0), 1.0) if delta >= 1 else 1.0
    exact = masked_projection_norm(ops, left, right)
    sampled = 0.0
    rng = np.random.default_rng(seed)
    m_left = ops.masked_mass(left)
    for _ in range(trials):
        u = _random_poly(ops.mesh, right, ops.space.degree + 1, rng)
        norm_u = u.norm2()
        if norm_u == 0:
            continue
        x = ops.project(u)
        val = math.sqrt(max(float(x @ (m_left @ x)), 0.0)) / norm_u
        sampled = max(sampled, val)
    return DecayMeasurement(delta=delta, exact_norm=exact, sampled=sampled, bound=bound)


def _random_poly(mesh: SimplicialMesh, support: Sequence[int], degree: int, rng) -> ElementwisePoly:
    polys = {}
    for sid in support:
        monos = multi_indices(mesh.dim, degree)
        coeffs = {m: Fraction(int(rng.integers(-9, 10)), 4) for m in monos}
        polys[sid] = BarycentricPoly(mesh.dim, coeffs)
    return ElementwisePoly(mesh, polys)


def write_decay_tsv(path, rows: Sequence[DecayMeasurement], header_lines: Sequence[str] = ()) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("delta\tmeasured\tsampled\tbound\n")
        for row in rows:
            fh.write(f"{row.delta}\t{row.exact_norm:.12e}\t{row.sampled:.12e}\t{row.bound:.12e}\n")


# -- weighted matrices (used by the stability measurements) -----------------------------------


def weighted_mass(space, weights: dict[int, float]) -> sp.csr_matrix:
    """Mass matrix with a constant multiplier per element (e.g. rho^2)."""
    return space.element_mass([sid for sid in space.element_ids if weights[sid] != 0], weights)


@lru_cache(maxsize=None)
def _grad_product_table(dim: int, degree: int):
    """Tensor W[j, l, a, b] = mean of (d N_a / d lambda_j)(d N_b / d lambda_l),
    integrated exactly and returned in floating point (read-only)."""
    ref = reference_element(dim, degree)
    polys = [ref.nodal_poly(a) for a in range(ref.n)]
    partials = []
    for a, poly in enumerate(polys):
        row = []
        for j in range(dim + 1):
            coeffs = {}
            for mono, c in poly.coeffs.items():
                if mono[j] > 0:
                    key = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
                    coeffs[key] = coeffs.get(key, 0) + c * mono[j]
            row.append(BarycentricPoly(dim, coeffs))
        partials.append(row)
    table = np.array([
        [
            [[float((partials[a][j] * partials[b][l]).integral(Fraction(1))) for b in range(ref.n)] for a in range(ref.n)]
            for l in range(dim + 1)
        ]
        for j in range(dim + 1)
    ])
    table.setflags(write=False)
    return table


def barycentric_gradients(mesh: SimplicialMesh, sid: int) -> np.ndarray:
    """(d+1, d) gradients of the barycentric coordinates of one element."""
    verts = mesh.simplices[sid].vertices
    d = mesh.dim
    pts = np.array([[float(x) for x in mesh.coords[v]] for v in verts])
    edges = (pts[1:] - pts[0]).T  # d x d
    inv = np.linalg.inv(edges)
    grads = np.zeros((d + 1, d))
    grads[1:, :] = inv
    grads[0, :] = -inv.sum(axis=0)
    return grads


def weighted_stiffness(space, weights: dict[int, float]) -> sp.csr_matrix:
    """Broken weighted stiffness: sum_T w_T int_T grad u . grad v."""
    dim = space.mesh.dim
    sids = space.element_ids
    scale = np.array([float(space.mesh.volume(sid)) * weights[sid] for sid in sids])
    gdot = np.array([g @ g.T for g in (barycentric_gradients(space.mesh, sid) for sid in sids)])
    if isinstance(space, CRSpace):
        blocks = ((dim * dim) * scale)[:, None, None] * gdot  # grad psi_j = -d grad lambda_j
    else:
        tab = _grad_product_table(dim, space.degree)
        blocks = np.zeros((len(sids),) + tab.shape[2:])
        for j in range(dim + 1):
            for l in range(dim + 1):
                # a zero gdot term adds +-0.0 and leaves every sum bit-identical
                blocks += (scale * gdot[:, j, l])[:, None, None] * tab[j, l]
    return scatter_matrix(space.dofs, space.dofs, blocks, (space.n_dofs, space.n_dofs))
