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

Operators keeps one patch table for C: per vertex, in vertex order, the
patch members (element row, local vertex), their patch dof ids, the Cholesky
factor of the patch Gram matrix, the touched global dofs and the nodal
weights.  One mesh.first_appearance call over (patch, node key) rows numbers
the patch dofs of all patches, one over (patch, dof) rows the touched dofs.
Assembly fills each patch system with np.add.at, and apply_C accumulates its
moments through the same ids.  The global form and apply matrices are summed
in patch order, so their bits do not depend on how scipy orders duplicate
triplets.

The one integrand kind is ElementwisePoly, a polynomial per element: rhs,
project and apply_C integrate it by a rule exact for its degree, and a
coefficient vector of the space enters through apply_C_coeffs and
accelerated_iterate instead.  rhs and apply_C share one check that rejects
an integrand on another mesh or on an element outside the space.  Its
coefficients form one stacked table, built on first use: a row per support
element, a column per monomial key (by degree, multi_indices order within
one), integer numerators over one common denominator and their floats.
Elementwise integrands are evaluated from it in one pass over the columns
for all elements at once, each row with the bits of its own polynomial
evaluated term by term, and normed exactly: norm2 forms |T| c^T G c in
integers (G the integer monomial moments) and rounds it once per element.  The decay parameter uses the closed-form
condition bounds (bound_kappa); the spectrum of the local operator S behind
them is checked by the tests (acceptance criterion 1), not computed here.

Reference tables and local basis values come from gradedproj.polyspace: the
exact product tables of the patch Gram and cross matrices, the nodal values
of the low-degree basis at the high nodes, the gradient products of the
weighted stiffness, and the one float evaluator of the Lagrange and
Crouzeix-Raviart bases; element geometry from the space's float geometry
table, whose stacked rows make the two-mesh coupling one stacked solve and
matmul, and the weighted stiffness one stacked Gram product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .analytic import ProjectionError, q_new
from .mesh import ElementDistance, SimplicialMesh, first_appearance, node_table
from .polyspace import (
    BarycentricPoly,
    CRSpace,
    MultiIndex,
    basis_values,
    gradient_product_table,
    lambda_nodal_product_table,
    monomial_moments,
    multi_indices,
    nodal_values_at_nodes,
    quadrature_basis,
    scatter_matrix,
    simplex_quadrature,
)

DENSE_SOLVE_LIMIT = 5000


def cr_q_bound(dim: int) -> float:
    """Decay parameter from the Crouzeix-Raviart condition bound d^2/(d+2)."""
    kappa = dim * dim / (dim + 2.0)
    rk = math.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


# -- elementwise polynomial integrands ----------------------------------------


class CoefficientTable(NamedTuple):
    """The coefficients of an ElementwisePoly stacked by element: row r for
    the support element support[r] (rows maps element id to row), column k for
    the monomial keys[k], in degree order and multi_indices order within a
    degree.  numerators are Python ints over the one common denominator;
    floats are their quotients, each rounded once as float(Fraction) rounds,
    with one more row of zeros that stands for every element outside the
    support."""

    keys: tuple[MultiIndex, ...]
    rows: dict[int, int]
    numerators: np.ndarray
    denominator: int
    floats: np.ndarray


@dataclass
class ElementwisePoly:
    """A function given as a polynomial per element (zero elsewhere).

    Treated as immutable after construction (degree, support and the
    coefficient table are cached).
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

    @cached_property
    def table(self) -> CoefficientTable:
        """The coefficient table, built on first use."""
        support = self.support()
        present = {key for poly in self.polys.values() for key in poly.coeffs}
        keys = tuple(m for k in range(self.degree() + 1) for m in multi_indices(self.mesh.dim, k) if m in present)
        col = {key: c for c, key in enumerate(keys)}
        ratios = [[(col[key], _ratio(v)) for key, v in self.polys[sid].coeffs.items()] for sid in support]
        den = math.lcm(*(q for row in ratios for _, (_, q) in row))
        numerators = np.zeros((len(support), len(keys)), dtype=object)
        for r, row in enumerate(ratios):
            for c, (p, q) in row:
                numerators[r, c] = p * (den // q)
        floats = np.zeros((len(support) + 1, len(keys)))
        floats[:-1] = numerators / den  # int / int, rounded once
        return CoefficientTable(keys, {sid: r for r, sid in enumerate(support)}, numerators, den, floats)

    def element_values(self, element_ids: Sequence[int], bary: np.ndarray) -> np.ndarray:
        """(n_elements, n_points) values of the given elements at the
        barycentric points bary, zero outside the support.  Each term is formed
        as polyspace.monomial_values forms it, the coefficient times the
        factors bary_j ** e in j order, and the terms are added column after
        column; a column an element lacks adds zeros.  So a row has the bits of
        its polynomial's terms summed one after another in key order whenever
        that order is a subsequence of the column order."""
        table = self.table
        coeffs = table.floats[[table.rows.get(sid, -1) for sid in element_ids]]
        out = np.zeros((len(coeffs), len(bary)))
        for c, key in enumerate(table.keys):
            term = coeffs[:, c, None]
            for j, e in enumerate(key):
                if e:
                    term = term * bary[..., j] ** e
            out += term
        return out

    def norm2(self) -> float:
        """L2 norm: per element |T| c^T G c exactly in integers (c the
        numerators, G the integer monomial moments), rounded once to a float
        as float(Fraction) rounds, the floats summed in polys order."""
        table = self.table
        moments, scale = monomial_moments(table.keys)
        quad = (table.numerators @ moments * table.numerators).sum(axis=1)
        den = table.denominator**2 * scale
        total = 0.0
        for sid in self.polys:
            vol = self.mesh.volume(sid)
            total += vol.numerator * quad[table.rows[sid]] / (vol.denominator * den)
        return math.sqrt(total)


def _ratio(value) -> tuple[int, int]:
    """Numerator and denominator of an exact coefficient (Fraction, int or float)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    return Fraction(value).as_integer_ratio()


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
        K, d = space.degree, self.dim
        # float tables indexed by the patch vertex's local number j
        gram_f = np.array(lambda_nodal_product_table(d, K - 1, K - 1), dtype=float)
        cross_f = np.array(lambda_nodal_product_table(d, K - 1, K), dtype=float)
        low_at_hi = np.array(nodal_values_at_nodes(d, K - 1, K), dtype=float)
        # nodal[j, m, a]: value of lambda_j psi_a at high node m
        nodal = np.array(space.ref.node_coords, dtype=float).T[:, :, None] * low_at_hi

        # patch-dof key numbers per element row, and the low nodes that a
        # trace face of the element bans in the patch of each of its vertices
        # j (face jf != j bans the nodes on it, alpha[jf] == 0)
        alphas = np.array(multi_indices(d, K - 1))
        keys = first_appearance(node_table(space.vertices, alphas))[0].reshape(len(space.vertices), -1)
        banned = (space.trace_faces[:, None, :] & ~np.eye(d + 1, dtype=bool)) @ (alphas == 0).T

        # patches in vertex order; members (element row, local j) in row order
        flat = space.vertices.ravel()
        order = np.argsort(flat, kind="stable")
        rows, js = np.divmod(order, d + 1)
        patch, starts = first_appearance(flat[order, None])
        bounds = np.r_[starts, len(order)]
        # a banned node is banned for the whole patch: continuity pins its
        # nodal value everywhere
        pids, n_pids, _ = _patch_numbers(patch, keys[rows], banned[rows, js])
        cpos, n_cols, cols = _patch_numbers(patch, space.dofs[rows], space.dofs[rows] < 0)
        col_bounds = np.r_[0, np.cumsum(n_cols)]
        self._patches = []
        # global (row, col, form, apply) triplets, patch by patch; the empty
        # first entry serves a space without patches (no dofs)
        triplets = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),) * 2]
        for p, m_patch in enumerate(n_pids.tolist()):
            if m_patch == 0:
                continue
            prows, pjs, ppids, pcpos = (a[bounds[p] : bounds[p + 1]] for a in (rows, js, pids, cpos))
            gcols = cols[col_bounds[p] : col_bounds[p + 1]]
            n_g = len(gcols)
            # index -1 (banned patch dof, removed trace dof) lands in a scratch
            # row or column past the end; np.add.at adds in (member, a, b)
            # order, and every member writes the same nodal value of a pair
            vols = space.geometry.volumes[prows, None, None]
            gmat = np.zeros((m_patch + 1, m_patch + 1))
            np.add.at(gmat, (ppids[:, :, None], ppids[:, None, :]), vols * gram_f[pjs])
            rmat = np.zeros((m_patch + 1, n_g + 1))
            np.add.at(rmat, (ppids[:, :, None], pcpos[:, None, :]), vols * cross_f[pjs])
            wmat = np.zeros((n_g + 1, m_patch + 1))
            wmat[pcpos[:, :, None], ppids[:, None, :]] = nodal[pjs]
            gmat, rmat, wmat = (np.ascontiguousarray(a[:-1, :-1]) for a in (gmat, rmat, wmat))
            try:
                gchol = scipy.linalg.cho_factor(gmat)
            except scipy.linalg.LinAlgError as exc:
                raise ProjectionError(f"singular patch system at vertex {flat[order[starts[p]]]}") from exc
            ginv_r = scipy.linalg.cho_solve(gchol, rmat)
            triplets.append((np.repeat(gcols, n_g), np.tile(gcols, n_g), rmat.T @ ginv_r, wmat @ ginv_r))
            self._patches.append(_Patch(prows, pjs, ppids, gchol, gcols, wmat))
        rows, cols, form, apply_m = (np.concatenate([np.ravel(t[i]) for t in triplets]) for i in range(4))
        self.form_matrix = _csr_in_order(rows, cols, form, space.n_dofs)
        self.apply_matrix = _csr_in_order(rows, cols, apply_m, space.n_dofs)

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

    def _check_integrand(self, u: ElementwisePoly) -> None:
        """u must live on the operator mesh, supported on elements of the space."""
        if u.mesh is not self.mesh:
            raise ProjectionError("ElementwisePoly must live on the operator mesh")
        outside = set(u.polys).difference(self.space.element_ids)
        if outside:
            raise ProjectionError(f"ElementwisePoly is supported on element {min(outside)}, which is not in the space")

    def rhs(self, u: ElementwisePoly) -> np.ndarray:
        """Moment vector <u, b_m>, by a rule exact for the product's degree
        over the support of u."""
        self._check_integrand(u)
        element_ids = u.support()
        pts, wts, basis = self._quad(self.space.degree + u.degree())
        vols = self.space.geometry.volumes[self.space.rows(element_ids), None, None]
        # one BLAS call per element, with the bits of a separate (vol * weighted) @ values
        local = np.matmul(vols * (basis.T * wts), u.element_values(element_ids, pts)[:, :, None])
        dofs = self.space.dof_rows(element_ids)
        keep = dofs >= 0
        out = np.zeros(self.space.n_dofs)
        np.add.at(out, dofs[keep], local.reshape(dofs.shape)[keep])  # element by element, in order
        return out

    def _quad(self, degree: int):
        pts, wts = simplex_quadrature(self.dim, degree)
        return pts, wts, quadrature_basis(self.dim, self.space.local_degree, degree)

    # operators ----------------------------------------------------------------------

    def project(self, u: ElementwisePoly) -> np.ndarray:
        """L2-projection onto the space: solve M x = <u, basis>."""
        return self.solve_mass(self.rhs(u))

    def apply_C_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """C restricted to the space, in coefficients (local, one-layer support)."""
        return self.apply_matrix @ coeffs

    def apply_C(self, u: ElementwisePoly) -> np.ndarray:
        """C u via the weighted patch solves, by a rule exact for the degree."""
        if isinstance(self.space, CRSpace):
            return self._rhs_dinv * self.rhs(u)
        self._check_integrand(u)
        K = self.space.degree
        deg = K + u.degree()
        pts, wts = simplex_quadrature(self.dim, deg)
        basis_low = quadrature_basis(self.dim, K - 1, deg)
        vals = u.element_values(self.space.element_ids, pts)[:, :, None]
        # moments[r, j, a] = <lambda_j psi_a, u> on element row r; the stacked
        # matmul makes one BLAS call per (r, j), with the bits of a separate
        # (vol * (basis_low.T * (wts * lambda_j))) @ vals
        vols = self.space.geometry.volumes[:, None, None]
        moments = np.stack(
            [np.matmul(vols * (basis_low.T * (wts * lam)), vals)[:, :, 0] for lam in pts.T],
            axis=1,
        )
        out = np.zeros(self.space.n_dofs)
        for patch in self._patches:
            r = np.zeros(patch.wmat.shape[1] + 1)  # r[-1]: scratch slot for banned patch dofs
            np.add.at(r, patch.pids, moments[patch.rows, patch.js])
            out[patch.gcols] += patch.wmat @ scipy.linalg.cho_solve(patch.chol, r[:-1])
        return out

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
        name = "CR" if isinstance(self.space, CRSpace) else (
            f"P{self.space.degree}" + ("_zero_trace" if getattr(self.space, "zero_trace", False) else "")
        )
        return SpectralCertificate(
            dim=self.dim,
            degree=self.space.local_degree,
            space=name,
            n_dofs=n,
            lambda_min=lam_min,
            lambda_max=lam_max,
            kappa=kappa,
            q=(rk - 1.0) / (rk + 1.0),
            bound_kappa=self.bound_kappa(),
            residual=residual,
        )


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


class _Patch(NamedTuple):
    """One vertex patch of the approximating operator: members (element row
    rows[k] of space.dofs, local vertex js[k]), their patch dof ids pids[k, a]
    (-1 where banned by the trace), the Cholesky factor of the patch Gram
    matrix, the touched global dofs gcols and the nodal weights wmat."""

    rows: np.ndarray
    js: np.ndarray
    pids: np.ndarray
    chol: tuple
    gcols: np.ndarray
    wmat: np.ndarray


def _patch_numbers(patch: np.ndarray, ids: np.ndarray, banned: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number ids[k, a] 0, 1, ... per patch (patch[k], nondecreasing from 0) in
    order of first appearance, -1 for an id banned anywhere in its patch; also
    the count of numbers per patch and the ids numbered, patch after patch."""
    owner = np.repeat(patch, ids.shape[1])
    numbers, first = first_appearance(np.stack([owner, ids.ravel()], axis=1), banned.ravel())
    counts = np.bincount(owner[first], minlength=patch[-1] + 1)
    # the numbers run patch after patch: less those of the earlier patches
    local = np.where(numbers >= 0, numbers - (np.cumsum(counts) - counts)[owner], -1)
    return local.reshape(ids.shape), counts, ids.ravel()[first]


def _csr_in_order(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    """n x n CSR matrix with duplicate (row, col) triplets summed in the order
    given, with np.add.at into the distinct pattern; exact zeros are dropped.

    The patch operator sums its blocks in patch order, as its former
    row-list sparse assembly did.  scatter_matrix cannot give that: scipy's
    COO->CSR conversion sums duplicates in an order of its own choosing, which
    gives the form matrix other last bits."""
    order = np.argsort(rows * n + cols)  # equal keys share one place, in any order
    ranked = (rows * n + cols)[order]
    new = np.diff(ranked, prepend=-1) != 0
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1  # each triplet's place in the pattern
    data = np.zeros(int(new.sum()))
    np.add.at(data, inverse, vals)
    out = sp.csr_matrix((data, np.divmod(ranked[new], n)), shape=(n, n))
    out.eliminate_zeros()
    return out


# -- two-mesh coupling ---------------------------------------------------------------------


class TwoMeshLink:
    """Exact integration coupling between a space and one on a refinement.

    The fine mesh must have been produced by refining a copy() of the coarse
    mesh, so simplex indices are shared and ancestry is the parent chain up
    to an element of the coarse space.
    """

    def __init__(self, coarse_space, fine_space):
        self.coarse = coarse_space
        self.fine = fine_space
        self.ancestors = self._ancestor_map()
        self._mixed = None

    def _ancestor_map(self) -> dict[int, int]:
        coarse_ids = set(self.coarse.element_ids)
        out = {}
        for sid in self.fine.element_ids:
            cur = sid
            while cur is not None and cur not in coarse_ids:
                cur = self.fine.mesh.simplices[cur].parent
            if cur is None:
                raise ProjectionError(f"fine element {sid} has no ancestor in the coarse mesh")
            out[sid] = cur
        return out

    def mixed_mass(self) -> sp.csr_matrix:
        """M_cf[m, n] = <coarse basis m, fine basis n> (polynomial-exact rule)."""
        if self._mixed is not None:
            return self._mixed
        coarse, fine = self.coarse, self.fine
        d = coarse.mesh.dim
        deg = coarse.degree + fine.degree
        pts, wts = simplex_quadrature(d, deg)
        fine_vals = quadrature_basis(d, fine.local_degree, deg)
        up = coarse.rows([self.ancestors[sid] for sid in fine.element_ids])

        def affine(vertices):  # stacked matrices with columns (vertex; 1)
            return np.concatenate([np.swapaxes(vertices, 1, 2), np.ones((len(vertices), 1, d + 1))], axis=1)

        # bary[r, j, l]: coarse barycentric coordinate j of vertex l of fine row r
        bary = np.linalg.solve(affine(coarse.geometry.vertices[up]), affine(fine.geometry.vertices))
        cvals = basis_values(d, coarse.local_degree, pts @ np.swapaxes(bary, 1, 2))
        blocks = (fine.geometry.volumes[:, None, None] * (np.swapaxes(cvals, 1, 2) * wts)) @ fine_vals
        self._mixed = scatter_matrix(coarse.dofs[up], fine.dofs, blocks, (coarse.n_dofs, fine.n_dofs))
        return self._mixed


# -- iteration toward the projection ----------------------------------------------------------


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


def _masked_norm(ops: Operators, m_left: sp.csr_matrix, right: Sequence[int]) -> float:
    """Exact operator norm of u |-> 1_L Q (1_{L'} u) on L2, for the mass m_left
    over L, via the low-rank symmetric eigenproblem over the dofs supported
    near L'."""
    m_right = ops.space.element_mass(right)
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
    m_left = ops.space.element_mass(left)
    exact = _masked_norm(ops, m_left, right)
    sampled = 0.0
    rng = np.random.default_rng(seed)
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


def weighted_stiffness(space, weights: dict[int, float]) -> sp.csr_matrix:
    """Broken weighted stiffness: sum_T w_T int_T grad u . grad v."""
    dim = space.mesh.dim
    sids = space.element_ids
    geo = space.geometry
    scale = geo.volumes * np.array([weights[sid] for sid in sids], dtype=float)
    gdot = geo.gradients @ np.swapaxes(geo.gradients, 1, 2)
    if isinstance(space, CRSpace):
        blocks = ((dim * dim) * scale)[:, None, None] * gdot  # grad psi_j = -d grad lambda_j
    else:
        tab = np.array(gradient_product_table(dim, space.degree), dtype=float)
        blocks = np.zeros((len(sids),) + tab.shape[2:])
        for j in range(dim + 1):
            for l in range(dim + 1):
                # a zero gdot term adds +-0.0 and leaves every sum bit-identical
                blocks += (scale * gdot[:, j, l])[:, None, None] * tab[j, l]
    return scatter_matrix(space.dofs, space.dofs, blocks, (space.n_dofs, space.n_dofs))
