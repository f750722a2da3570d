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

C depends on u only through its moments <u, b_m> against the basis of V_K.
The test functions of the patch problem at vertex i are phi_i psi_a, psi_a
the nodal basis of the continuous degree-(K-1) patch space: each is
continuous, of degree K on every element and zero off the patch.  It is zero
on every trace face too: phi_i is zero on one that does not hold vertex i,
and psi_a on one that does, since all low nodes of that face are banned from
the patch space.  So phi_i psi_a = sum_m W[m, a] b_m lies in V_K, with W its
nodal values at the nodes of V_K, the patch right-hand side is W^T <u, b>,
and

    C u = P <u, b>,   P = sum_i W_i G_i^-1 W_i^T,

G_i the patch Gram matrix.  For the Crouzeix-Raviart space C u =
sum_F <u, psi_F> psi_F / ||psi_F||^2, so P = D^-1 with D the diagonal of
the mass matrix.  Operators builds P once, in the one stacked pass over
the vertex patches that builds the form matrix R^T G^-1 R and the apply
matrix W G^-1 R; apply_C is P times rhs.  The patch table (_vertex_patches)
holds every patch at once; one np.bincount fills the G of every patch into
one flat buffer, another every R, one fancy assignment every W; then each
patch factors its G and solves it against [R | W^T] by one LAPACK potrf and
one potrs, called directly.  The three matrices are summed in patch order by
one ordered sum into a pattern sorted once (_csr_in_order), so their bits do
not depend on how scipy orders duplicate triplets, and the form and apply
matrices are not formed as M P M and P M, which round differently.

The one integrand kind is ElementwisePoly, a polynomial per element: rhs,
and through it project and apply_C, integrates it by a rule exact for its
degree, and a coefficient vector of the space enters through apply_C_coeffs
and accelerated_iterate instead.  rhs rejects an integrand on another mesh
or on an element outside the space.  Its coefficients form one stacked
table, built on first use: a row per support element, a column per monomial
key (by degree, multi_indices order within one), integer numerators over one
common denominator and their floats.  Elementwise integrands are evaluated
from it in one pass over the columns for all elements at once, each row with
the bits of its own polynomial evaluated term by term, and normed exactly:
norm2 forms |T| c^T G c in integers (G the integer monomial moments) and
rounds it once per element.  The decay parameter uses the closed-form
condition bounds (bound_kappa); the spectrum of the local operator S behind
them is checked by the tests (acceptance criterion 1), not computed here.

Mass solves factor M once: a dense Cholesky by direct LAPACK calls up to
DENSE_SOLVE_LIMIT dofs, one sparse LU beyond; either solves a block of
columns, each with the bits of its one-column solve.  The decay
measurement solves once per source set R, against the columns of the
identity at the dofs of R, and keeps that block (SourceBlock); each shell L
then reads the exact masked norm and the sampled bound from one small form
gathered from L's own elements, and its distance from the one breadth-first
row that the ElementDistance keeps for the source.

Reference tables and local basis values come from gradedproj.polyspace: the
exact product tables of the patch Gram and cross matrices, the nodal values
of the low-degree basis at the high nodes, the gradient products of the
weighted stiffness, and the one float evaluator of the Lagrange and
Crouzeix-Raviart bases; element geometry from the space's float geometry
table, whose stacked rows make the two-mesh coupling one stacked solve and
matmul, and the weighted stiffness one stacked Gram product.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .analytic import ProjectionError, q_new
from .mesh import ElementDistance, SimplicialMesh, _ranges, first_appearance, node_table
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


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then restore the previous thread
    counts, on an exception too.

    Caps both OpenBLAS copies that numpy and scipy bundle, through their own
    thread calls (_openblas_thread_calls), since each has its own count.  A
    second thread does not pay on the small dense solves, factorizations and
    eigenproblems of this package.  Measured on 2 cores with OpenBLAS 0.3.31:
    below order 500 it gains at most 1.1x for eigh and eigvalsh and 1.6x for
    a Cholesky factor and solve (potrf + potrs, as the patch pass calls them
    and scipy's cho_factor + cho_solve wrap them) and gemm on an idle
    machine, and loses up to 2x (gemm) to 6x (factor and solve) when another
    process keeps the second core busy.  From order 500 two threads win 1.05x
    to 1.9x on an idle machine; the block is capped whatever its size all the
    same, as the measured workloads stay below 400 dofs.  Outside these
    blocks OPENBLAS_NUM_THREADS governs.  Under the cap the results do not
    depend on that variable; OpenBLAS's threaded kernels can round
    differently, in the last bits.  Does nothing when no bundled OpenBLAS with these calls
    is loaded.  The counts are per process: two Python threads inside the
    block at once can leave them at one afterwards, which changes speed,
    not correctness.
    """
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, put in calls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(calls, saved):
            put(count)


@cache
def _openblas_thread_calls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count calls of each bundled OpenBLAS copy in the
    process's loaded-library list: scipy_openblas_{get,set}_num_threads64_
    (numpy's, 64-bit integers) or scipy_openblas_{get,set}_num_threads
    (scipy's).  Empty when the list cannot be read or holds none.  Looked up
    once, on first use, after this module has loaded numpy and scipy.linalg."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]))
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                calls.append((get, put))
                break
    return tuple(calls)


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


class SourceBlock(NamedTuple):
    """What the decay measurement keeps of one source set R, read-only:
    dofs, the sorted dofs S of R; solves, Z = M^-1 E_S (E_S the columns of
    the identity at S) with one more row of zeros, which a dof of -1 reads;
    half, H = M_R^1/2 on S, M_R the mass over R, from the eigenpairs above
    1e-14 of the largest (None when M_R vanishes).  Z is n x |S|; no
    per-element table is kept."""

    dofs: np.ndarray
    solves: np.ndarray
    half: np.ndarray | None

    def shell_form(self, space, left: Sequence[int]) -> np.ndarray:
        """F_L = Z^T M_L Z = sum over T in L of |T| Z_T^T Mhat Z_T (M_L the
        mass over L, Mhat the unit-volume element mass, Z_T the rows of Z at
        the dofs of T), from L's rows of the dof table: one gather and one
        contraction."""
        rows = space.rows(left)
        z = self.solves[space.dofs[rows]]  # (|L|, local dofs, |S|)
        scaled = space.geometry.volumes[rows, None, None] * z
        return np.tensordot(scaled, space.local_mass() @ z, axes=([0, 1], [0, 1]))

    def masked_norm(self, form: np.ndarray) -> float:
        """||1_L Q 1_R|| on L2 from the shell form F_L: the root of the top
        eigenvalue of H^T F_L H, 0 when M_R vanishes."""
        if self.half is None:
            return 0.0
        ev = np.linalg.eigvalsh(_sym(self.half.T @ form @ self.half))
        return math.sqrt(max(float(ev[-1]), 0.0))


class Operators:
    """Mass matrix, projection and approximating operator for one space."""

    def __init__(self, space):
        self.space = space
        self.mesh = space.mesh
        self.dim = space.mesh.dim
        self.mass = space.mass_matrix().tocsc()
        self._solver = None
        self._source_blocks: dict[tuple[int, ...], SourceBlock | None] = {}
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
        self.patch_matrix = dinv.tocsr()

    def _assemble_patches(self):
        space = self.space
        K, d, n = space.degree, self.dim, space.n_dofs
        # float tables indexed by the patch vertex's local number j
        gram_f = np.array(lambda_nodal_product_table(d, K - 1, K - 1), dtype=float)
        cross_f = np.array(lambda_nodal_product_table(d, K - 1, K), dtype=float)
        low_at_hi = np.array(nodal_values_at_nodes(d, K - 1, K), dtype=float)
        # nodal[j, m, a]: value of lambda_j psi_a at high node m
        nodal = np.array(space.ref.node_coords, dtype=float).T[:, :, None] * low_at_hi
        t = _vertex_patches(space)
        sizes, n_cols = t.sizes, np.diff(t.col_starts)
        # G, R and W of every patch, C order, one after another in flat buffers
        g_at = np.cumsum(sizes * sizes) - sizes * sizes
        r_at = np.cumsum(sizes * n_cols) - sizes * n_cols  # W (n_g x m) takes R's places
        member_g, member_r = g_at[t.patch, None, None], r_at[t.patch, None, None]
        pids, cpos, m = t.pids, t.cpos, sizes[t.patch, None, None]
        vols = space.geometry.volumes[t.rows, None, None]
        # index -1 (banned patch dof, removed trace dof) is skipped; bincount
        # adds in (patch, member, a, b) order, and every member writes the
        # same nodal value of a pair
        pairs = (pids[:, :, None] >= 0) & (pids[:, None, :] >= 0)
        at = (member_g + pids[:, :, None] * m + pids[:, None, :])[pairs]
        gbuf = np.bincount(at, (vols * gram_f[t.js])[pairs], minlength=(sizes * sizes).sum())
        pairs = (pids[:, :, None] >= 0) & (cpos[:, None, :] >= 0)
        at = (member_r + pids[:, :, None] * n_cols[t.patch, None, None] + cpos[:, None, :])[pairs]
        rbuf = np.bincount(at, (vols * cross_f[t.js])[pairs], minlength=(sizes * n_cols).sum())
        pairs = np.swapaxes(pairs, 1, 2)
        wbuf = np.zeros(len(rbuf))
        wbuf[(member_r + cpos[:, :, None] * m + pids[:, None, :])[pairs]] = nodal[t.js][pairs]
        if not (np.isfinite(gbuf).all() and np.isfinite(rbuf).all()):
            raise ProjectionError("non-finite patch system")
        # the keys row * n + col of the blocks gcols x gcols of the patches
        # with a patch dof, row-major, patch after patch
        live = sizes > 0
        entry = np.repeat(live, n_cols)
        first, width = np.repeat(t.col_starts[:-1], n_cols)[entry], np.repeat(n_cols, n_cols)[entry]
        keys = np.repeat(t.cols[entry] * n, width)
        keys += t.cols[_ranges(first, first + width)]
        k_at = np.cumsum(n_cols[live] ** 2) - n_cols[live] ** 2
        vals = [np.empty(len(keys)) for _ in range(3)]  # form, apply and patch values there
        potrf, potrs = scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dpotrs
        spans = zip(*(a[live].tolist() for a in (t.vertices, sizes, n_cols, g_at, r_at)), k_at.tolist())
        with one_blas_thread():
            for vertex, m_p, n_g, g0, r0, k0 in spans:
                gmat = gbuf[g0 : g0 + m_p * m_p].reshape(m_p, m_p)
                rmat = rbuf[r0 : r0 + m_p * n_g].reshape(m_p, n_g)
                wmat = wbuf[r0 : r0 + m_p * n_g].reshape(n_g, m_p)
                gchol, info = potrf(gmat, lower=0, clean=0)
                if info > 0:
                    raise ProjectionError(f"singular patch system at vertex {vertex}")
                ginv = potrs(gchol, np.concatenate((rmat, wmat.T), axis=1), lower=0)[0]  # G^-1 [R | W^T]
                ginv_r, ginv_w = ginv[:, :n_g], ginv[:, n_g:]
                for out, block in zip(vals, (rmat.T @ ginv_r, wmat @ ginv_r, wmat @ ginv_w)):
                    out[k0 : k0 + n_g * n_g] = block.ravel()
        self.form_matrix, self.apply_matrix, self.patch_matrix = _csr_in_order(keys, vals, n)

    # solves --------------------------------------------------------------------

    def _ensure_solver(self):
        """Factor M once: dense Cholesky up to DENSE_SOLVE_LIMIT dofs, one
        sparse LU (splu) beyond; either solves a vector or a block of
        columns.  A direct factorization, because the unscaled mass matrix of
        a graded mesh is ill conditioned: its diagonal follows the element
        volumes, and spans 1.4e13 on the P3 space (8164 dofs) of a 24x24 Kuhn
        square after 40 corner rounds, where unpreconditioned CG stalls.
        The LU orders M symmetrically (minimum degree on M + M^T, diagonal
        pivots): on the d=3 P2 space of 6439 dofs (a 6x6x6 Kuhn cube after 10
        corner rounds of BiSecLG(1)) its L + U hold 1.29M nonzeros against
        3.77M under splu's default column ordering, and it factors about 3x
        faster.  The dense factor calls LAPACK's potrf and potrs directly, as
        the patch pass does, with the bits of scipy's cho_factor and
        cho_solve; a non-finite or indefinite M raises ProjectionError.
        solve_mass checks the residuals."""
        if self._solver is not None:
            return
        n = self.space.n_dofs
        if n == 0:  # potrs rejects an empty system
            self._solver = lambda b: np.zeros(np.shape(b))
        elif n <= DENSE_SOLVE_LIMIT:
            dense = self.mass.toarray()
            if not np.isfinite(dense).all():
                raise ProjectionError("non-finite mass matrix")
            potrf, potrs = scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dpotrs
            with one_blas_thread():
                chol, info = potrf(dense, lower=0, clean=0)
            if info > 0:
                raise ProjectionError(f"mass matrix not positive definite (leading minor {info})")
            self._solver = lambda b: potrs(chol, b, lower=0)[0]
        else:
            self._solver = spla.splu(
                self.mass, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True}
            ).solve  # self.mass is CSC

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs for a vector or a block of columns, each column held to
        the residual bound of _checked."""
        self._ensure_solver()
        return self._checked(self._solver(rhs), rhs)

    def _checked(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x, once it is finite and every column has a residual ||M x - b||
        of at most 1e-12 ||b|| max(1, n) (a zero column b passes)."""
        if not np.isfinite(x).all():  # a non-finite rhs gives non-finite x, and no residual shows it
            raise ProjectionError("mass solve gave non-finite values")
        res = np.linalg.norm(self.mass @ x - rhs, axis=0)
        scale = np.linalg.norm(rhs, axis=0)
        rel = np.divide(res, scale, out=np.zeros_like(res), where=scale > 0)
        if not np.all(rel <= 1e-12 * max(1.0, self.space.n_dofs)):  # NaN fails too
            raise ProjectionError(f"mass solve residual {np.max(rel):.3e} too large")
        return x

    def source_block(self, right: Sequence[int]) -> SourceBlock | None:
        """The SourceBlock of the element set R = right, None when R carries
        no dof.  It depends only on the operators and the set, so it is built
        once per set, from its sorted ids, and kept in a dict under them: the
        decay shells around one source share it, read-only."""
        key = tuple(sorted(right))
        if key not in self._source_blocks:
            self._source_blocks[key] = self._build_source_block(list(key))
        return self._source_blocks[key]

    def _build_source_block(self, right: list[int]) -> SourceBlock | None:
        space = self.space
        dofs = space.dof_rows(right)
        sub = np.unique(dofs[dofs >= 0])
        if not len(sub):
            return None
        block = space.element_mass(right)[np.ix_(sub, sub)].toarray()
        unit = np.zeros((space.n_dofs, len(sub)))
        unit[sub, np.arange(len(sub))] = 1.0
        with one_blas_thread():
            w, u = np.linalg.eigh(_sym(block))
            keep = w > max(w.max(), 0.0) * 1e-14
            half = u[:, keep] * np.sqrt(w[keep]) if np.any(keep) else None
            solves = np.vstack((self.solve_mass(unit), np.zeros(len(sub))))  # dof -1 reads the zero row
        for table in (sub, solves, half):
            if table is not None:
                table.setflags(write=False)  # shared by every caller
        return SourceBlock(sub, solves, half)

    # right-hand sides -------------------------------------------------------------

    def rhs(self, u: ElementwisePoly) -> np.ndarray:
        """Moment vector <u, b_m>, by a rule exact for the product's degree
        over the support of u, which must live on the operator mesh,
        supported on elements of the space."""
        if u.mesh is not self.mesh:
            raise ProjectionError("ElementwisePoly must live on the operator mesh")
        element_ids = u.support()
        try:  # a lookup per support element, not a set of the whole space per call
            rows = self.space.rows(element_ids)
        except KeyError as exc:  # the support ascends: the least element outside the space
            raise ProjectionError(f"ElementwisePoly is supported on element {exc.args[0]}, which is not in the space") from None
        pts, wts, basis = self._quad(self.space.degree + u.degree())
        vols = self.space.geometry.volumes[rows, None, None]
        # one BLAS call per element, with the bits of a separate (vol * weighted) @ values
        local = np.matmul(vols * (basis.T * wts), u.element_values(element_ids, pts)[:, :, None])
        dofs = self.space.dofs[rows]
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
        """C u = P <u, basis>, by a rule exact for the degree."""
        return self.patch_matrix @ self.rhs(u)

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
        with one_blas_thread():
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


class PatchTable(NamedTuple):
    """The vertex patches of a Lagrange space, stacked: patch p around
    vertices[p], in vertex order, has the members k with patch[k] = p,
    side by side (element row rows[k] of space.dofs, local vertex js[k]), in
    row order; their patch dof numbers pids[k, a], 0 .. sizes[p] - 1, -1 where
    the trace bans them; the global dofs they touch, cols[col_starts[p] :
    col_starts[p + 1]], in order of first appearance; and the place cpos[k, b]
    there of each member dof, -1 for a removed trace dof.  A patch of size 0
    carries no patch dof and no patch system."""

    vertices: np.ndarray
    rows: np.ndarray
    js: np.ndarray
    patch: np.ndarray
    pids: np.ndarray
    sizes: np.ndarray
    cpos: np.ndarray
    col_starts: np.ndarray
    cols: np.ndarray


def _vertex_patches(space) -> PatchTable:
    """The patch table of a Lagrange space.  A trace face jf != j of a member
    bans the low nodes on it (alpha[jf] == 0) in the patch of its vertex j,
    and for the whole patch: continuity pins their nodal values everywhere."""
    d = space.mesh.dim
    alphas = np.array(multi_indices(d, space.degree - 1))
    keys = first_appearance(node_table(space.vertices, alphas))[0].reshape(len(space.vertices), -1)
    banned = (space.trace_faces[:, None, :] & ~np.eye(d + 1, dtype=bool)) @ (alphas == 0).T
    flat = space.vertices.ravel()
    order = np.argsort(flat, kind="stable")
    rows, js = np.divmod(order, d + 1)
    patch, starts = first_appearance(flat[order, None])
    pids, sizes, _ = _patch_numbers(patch, keys[rows], banned[rows, js])
    cpos, n_cols, cols = _patch_numbers(patch, space.dofs[rows], space.dofs[rows] < 0)
    return PatchTable(flat[order[starts]], rows, js, patch, pids, sizes, cpos, np.r_[0, np.cumsum(n_cols)], cols)


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


def _csr_in_order(keys: np.ndarray, values: Sequence[np.ndarray], n: int) -> list[sp.csr_matrix]:
    """n x n CSR matrices, one per value array, at the triplet keys row * n +
    col, each with its duplicate keys summed in the order given (np.bincount
    adds as np.add.at into zeros does) into the one distinct pattern, whose
    sorted keys give the int32 indptr and indices once; exact zeros are
    dropped.

    The patch operator sums its blocks in patch order.  scatter_matrix cannot
    give that: scipy's COO->CSR conversion sums duplicates in an order of its
    own choosing, which gives the form matrix other last bits."""
    order = np.argsort(keys)  # equal keys share one place, in any order
    ranked = keys[order]
    new = np.diff(ranked, prepend=-1) != 0
    rows, cols = np.divmod(ranked[new], n)
    del ranked  # the per-triplet arrays held at once: keys, values, order, place, inverse
    place = np.cumsum(new)
    place -= 1
    inverse = np.empty_like(order)
    inverse[order] = place  # each triplet's place in the pattern
    del order, place
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols.astype(np.int32)
    out = []
    for column in values:
        data = np.bincount(inverse, column, minlength=len(indices)).astype(float, copy=False)  # float when empty too
        matrix = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
        matrix.eliminate_zeros()
        out.append(matrix)
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
    plus a random-sampling lower bound as an independent check.

    Both come from one solve per source.  A function on R = right (L =
    left) has its moments on the dofs S of R, so Q maps it into the span of
    the columns of Z = M^-1 E_S, kept with H = M_R^1/2 on S in
    ops.source_block(R).  The shell then needs only the |S| x |S| form F_L =
    Z^T M_L Z, built from L's own elements (SourceBlock.shell_form): the
    exact norm of u |-> 1_L Q (1_R u) on L2 is the root of the top
    eigenvalue of H^T F_L H, and the sampled bound is the largest
    sqrt(b_u^T F_L b_u) / ||u||, b_u the moments of u on S, over `trials`
    random polynomials u on R.  All are drawn first, which consumes the
    generator as drawing each just before its projection would (norm2 and
    the moments draw nothing).  Each masked norm is the root of a sum of
    squares: below about 1e-154 that sum is subnormal, and the norm keeps
    few correct digits (or reads 0.0) however it is formed; in `decay --dim
    2 --degree 1 --cells 224 --rounds 20 --policy corner` the shells from
    delta = 282 on read 0.0, as they did with one solve per shell."""
    left = sorted(left)
    right = sorted(right)
    if not left or not right:
        raise ProjectionError("element sets must be nonempty")
    delta = dist.dist_sets(left, right)
    qq = q if q is not None else ops.q_bound()
    bound = min(2.0 * qq ** max(delta - 1, 0), 1.0) if delta >= 1 else 1.0
    rng = np.random.default_rng(seed)
    drawn = [_random_poly(ops.mesh, right, ops.space.degree + 1, rng) for _ in range(trials)]
    live = [(u, norm_u) for u in drawn if (norm_u := u.norm2()) != 0]
    source = ops.source_block(right)
    exact = sampled = 0.0
    if source is not None:
        form = source.shell_form(ops.space, left)
        exact = source.masked_norm(form)
        if live:
            moments = np.column_stack([ops.rhs(u)[source.dofs] for u, _ in live])
            squares = (moments * (form @ moments)).sum(axis=0).tolist()
            sampled = max(math.sqrt(max(sq, 0.0)) / norm_u for sq, (_, norm_u) in zip(squares, live))
    return DecayMeasurement(delta=delta, exact_norm=exact, sampled=sampled, bound=bound)


_QUARTERS = tuple(Fraction(n, 4) for n in range(-9, 10))


def _random_poly(mesh: SimplicialMesh, support: Sequence[int], degree: int, rng) -> ElementwisePoly:
    """A polynomial of the degree on each support element, every barycentric
    monomial's coefficient drawn from n / 4, n = -9 .. 9, in support order."""
    monos = multi_indices(mesh.dim, degree)
    polys = {}
    for sid in support:
        polys[sid] = BarycentricPoly(mesh.dim, {m: _QUARTERS[int(rng.integers(-9, 10)) + 9] for m in monos})
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
