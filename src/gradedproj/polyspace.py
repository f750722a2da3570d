"""Exact polynomial algebra on simplices in the barycentric monomial basis,
Lagrange and Crouzeix-Raviart element spaces, and the local spectral operator
behind the projection condition bounds.

Everything on a single element is exact rational arithmetic.  Monomials are
lambda^sigma = lambda_0^s0 * ... * lambda_d^sd with the integration formula

    mean_T lambda^sigma = sigma! d! / (|sigma| + d)!

Spectra are computed only after conversion to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import SimplicialMesh, fraction_solve

MultiIndex = tuple[int, ...]


class PolySpaceError(Exception):
    """Invalid polynomial-space operation."""


# -- multi indices and exact monomial integration -----------------------------


@lru_cache(maxsize=None)
def multi_indices(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """All (d+1)-tuples of nonnegative integers with |sigma| = degree,
    lexicographically ordered (deterministic basis order)."""
    def gen(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(total - first, parts - 1):
                yield (first,) + rest
    return tuple(gen(degree, dim + 1))


def multi_index_sub(sigma: MultiIndex, j: int) -> MultiIndex:
    if sigma[j] <= 0:
        raise PolySpaceError(f"cannot subtract e_{j} from {sigma}")
    return sigma[:j] + (sigma[j] - 1,) + sigma[j + 1 :]


def mono_mean(sigma: MultiIndex) -> Fraction:
    """Mean value of lambda^sigma over any simplex: sigma! d! / (|sigma|+d)!."""
    d = len(sigma) - 1
    num = factorial(d)
    for s in sigma:
        num *= factorial(s)
    return Fraction(num, factorial(sum(sigma) + d))


def integrate_monomial(sigma: MultiIndex, volume) -> Fraction:
    """Exact integral of lambda^sigma over a simplex of the given volume."""
    if any(s < 0 for s in sigma):
        raise PolySpaceError(f"invalid multi index {sigma}")
    return mono_mean(sigma) * volume


# -- barycentric polynomials ---------------------------------------------------


class BarycentricPoly:
    """Sparse polynomial in barycentric monomials with rational coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[MultiIndex, Fraction] | None = None):
        self.dim = dim
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def monomial(cls, sigma: MultiIndex, coeff=Fraction(1)) -> "BarycentricPoly":
        return cls(len(sigma) - 1, {tuple(sigma): Fraction(coeff)})

    @classmethod
    def zero(cls, dim: int) -> "BarycentricPoly":
        return cls(dim, {})

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __add__(self, other: "BarycentricPoly") -> "BarycentricPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BarycentricPoly(self.dim, out)

    def __sub__(self, other: "BarycentricPoly") -> "BarycentricPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return BarycentricPoly(self.dim, out)

    def scale(self, factor) -> "BarycentricPoly":
        return BarycentricPoly(self.dim, {k: v * factor for k, v in self.coeffs.items()})

    def __mul__(self, other: "BarycentricPoly") -> "BarycentricPoly":
        out: dict[MultiIndex, Fraction] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0) + va * vb
        return BarycentricPoly(self.dim, out)

    def mul_lambda(self, j: int) -> "BarycentricPoly":
        return BarycentricPoly(
            self.dim, {k[:j] + (k[j] + 1,) + k[j + 1 :]: v for k, v in self.coeffs.items()}
        )

    def integral(self, volume) -> Fraction:
        return sum((v * mono_mean(k) for k, v in self.coeffs.items()), Fraction(0)) * volume

    def evaluate(self, bary: Sequence) -> Fraction:
        total = 0
        for k, v in self.coeffs.items():
            term = v
            for b, e in zip(bary, k):
                if e:
                    term *= b ** e
            total += term
        return total

    def homogenize(self, degree: int) -> "BarycentricPoly":
        """Rewrite with all monomials of exactly the given total degree using
        (sum_j lambda_j)^m = 1."""
        out: dict[MultiIndex, Fraction] = {}
        for k, v in self.coeffs.items():
            gap = degree - sum(k)
            if gap < 0:
                raise PolySpaceError(f"degree {sum(k)} exceeds homogenization target {degree}")
            for extra in multi_indices(self.dim, gap):
                coeff = v * _multinomial(extra)
                key = tuple(a + b for a, b in zip(k, extra))
                out[key] = out.get(key, 0) + coeff
        return BarycentricPoly(self.dim, out)

    def substitute(self, forms: Sequence["BarycentricPoly"]) -> "BarycentricPoly":
        """Replace lambda_j by forms[j] (polynomials over another simplex)."""
        dim_out = forms[0].dim
        result = BarycentricPoly.zero(dim_out)
        for k, v in self.coeffs.items():
            term = BarycentricPoly(dim_out, {(0,) * (dim_out + 1): Fraction(v)})
            for j, e in enumerate(k):
                for _ in range(e):
                    term = term * forms[j]
            result = result + term
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, BarycentricPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = " + ".join(f"{v}*l^{k}" for k, v in sorted(self.coeffs.items()))
        return f"BarycentricPoly({terms or '0'})"


@lru_cache(maxsize=None)
def _multinomial(sigma: MultiIndex) -> int:
    total = sum(sigma)
    out = 1
    for s in sigma:
        out *= comb(total, s)
        total -= s
    return out


# -- decomposition operators ---------------------------------------------------


def decomposition_apply(j: int, poly: BarycentricPoly, degree: int) -> BarycentricPoly:
    """Vertex-j splitting operator on polynomials of degree <= K:

        D_j lambda^gamma = (gamma_j / K) lambda^(gamma - e_j)
                           + ((K - |gamma|) / K) lambda^gamma

    For |gamma| = K this reduces to the pure shift rule; summing
    lambda_j D_j over j reproduces the identity.
    """
    if poly.degree() > degree:
        raise PolySpaceError(f"polynomial degree {poly.degree()} exceeds K={degree}")
    out: dict[MultiIndex, Fraction] = {}
    for gamma, v in poly.coeffs.items():
        total = sum(gamma)
        if gamma[j] > 0:
            key = multi_index_sub(gamma, j)
            out[key] = out.get(key, 0) + v * Fraction(gamma[j], degree)
        if total < degree:
            out[gamma] = out.get(gamma, 0) + v * Fraction(degree - total, degree)
    return BarycentricPoly(poly.dim, out)


# -- exact rational linear algebra ----------------------------------------------


def frac_mat_inv(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    _, inv = fraction_solve(matrix, [[int(i == j) for j in range(n)] for i in range(n)])
    if inv is None:
        raise PolySpaceError("singular matrix")
    return inv


def frac_mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


# -- reference element tables ----------------------------------------------------


@dataclass(frozen=True)
class ReferenceElement:
    """Exact local tables for Lagrange elements of one degree on the d-simplex.

    The monomial basis is {lambda^alpha : |alpha| = K}; Lagrange nodes are
    x_alpha with barycentric coordinates alpha / K (the barycenter for K = 0).
    All integrals are for the unit-volume simplex and scale linearly.
    """

    dim: int
    degree: int
    monos: tuple[MultiIndex, ...]
    gram: tuple  # monomial mass, rows of Fractions
    node_coords: tuple  # barycentric coordinates of Lagrange nodes
    vandermonde: tuple  # V[node, mono] = lambda^mono(x_node)
    vandermonde_inv: tuple
    nodal_mass: tuple

    @property
    def n(self) -> int:
        return len(self.monos)

    def nodal_poly(self, a: int) -> BarycentricPoly:
        """Lagrange basis function number a as a monomial-basis polynomial."""
        return BarycentricPoly(
            self.dim, {mono: self.vandermonde_inv[m][a] for m, mono in enumerate(self.monos)}
        )

    def poly_from_nodal(self, values: Sequence) -> BarycentricPoly:
        coeffs = {}
        for m, mono in enumerate(self.monos):
            c = sum(self.vandermonde_inv[m][a] * values[a] for a in range(self.n))
            coeffs[mono] = c
        return BarycentricPoly(self.dim, coeffs)

    def nodal_values(self, poly: BarycentricPoly) -> list[Fraction]:
        return [poly.evaluate(node) for node in self.node_coords]


@lru_cache(maxsize=None)
def reference_element(dim: int, degree: int) -> ReferenceElement:
    monos = multi_indices(dim, degree)
    n = len(monos)
    gram = tuple(
        tuple(mono_mean(tuple(a + b for a, b in zip(ma, mb))) for mb in monos) for ma in monos
    )
    if degree == 0:
        nodes = (tuple(Fraction(1, dim + 1) for _ in range(dim + 1)),)
    else:
        nodes = tuple(tuple(Fraction(a, degree) for a in alpha) for alpha in monos)
    vand = tuple(tuple(BarycentricPoly.monomial(mono).evaluate(node) for mono in monos) for node in nodes)
    vinv = tuple(tuple(row) for row in frac_mat_inv([list(r) for r in vand]))
    nodal_mass = tuple(
        tuple(row)
        for row in frac_mat_mul(
            _transpose(vinv), frac_mat_mul([list(r) for r in gram], [list(r) for r in vinv])
        )
    )
    return ReferenceElement(dim, degree, monos, gram, nodes, vand, vinv, nodal_mass)


def _transpose(m):
    return [list(row) for row in zip(*m)]


@lru_cache(maxsize=None)
def lambda_nodal_product_table(dim: int, degree_a: int, degree_b: int):
    """Exact tensor P[j][a][b] = mean of lambda_j * N^A_a * N^B_b over the
    simplex, with N^A, N^B the nodal bases of the two degrees."""
    ra = reference_element(dim, degree_a)
    rb = reference_element(dim, degree_b)
    polys_a = [ra.nodal_poly(a) for a in range(ra.n)]
    polys_b = [rb.nodal_poly(b) for b in range(rb.n)]
    table = []
    for j in range(dim + 1):
        rows = []
        for pa in polys_a:
            paj = pa.mul_lambda(j)
            rows.append(tuple((paj * pb).integral(Fraction(1)) for pb in polys_b))
        table.append(tuple(rows))
    return tuple(table)


# -- the spectral operator of the decomposition ----------------------------------


def operator_s_matrix(degree: int, dim: int):
    """Matrix A of the operator S on the monomial basis {|alpha| = K} defined by

        <S v, w> = sum_j <lambda_j D_j v, D_j w>

    together with the exact form matrix B = Gram * A (B is symmetric).  On
    monomials S acts as

        S lambda^sigma = ((K^2 + |sigma|(|sigma|+d)) / K^2) lambda^sigma
                         - sum_j (sigma_j^2 / K^2) lambda^(sigma - e_j)

    re-homogenized to total degree K.
    """
    if degree < 1:
        raise PolySpaceError("degree must be >= 1")
    ref = reference_element(dim, degree)
    monos = ref.monos
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    K2 = Fraction(degree * degree)
    a_mat = [[Fraction(0)] * n for _ in range(n)]
    for col, sigma in enumerate(monos):
        total = sum(sigma)
        image = BarycentricPoly.monomial(sigma, Fraction(degree * degree + total * (total + dim), 1) / K2)
        for j, sj in enumerate(sigma):
            if sj:
                image = image - BarycentricPoly.monomial(multi_index_sub(sigma, j), Fraction(sj * sj) / K2)
        image = image.homogenize(degree)
        for mono, coeff in image.coeffs.items():
            a_mat[index[mono]][col] += coeff
    b_mat = frac_mat_mul([list(r) for r in ref.gram], a_mat)
    return a_mat, b_mat


def dim_orthogonal_layer(k: int, dim: int) -> int:
    """Dimension of the L2-orthogonal complement of degree k-1 inside degree k."""
    if k == 0:
        return 1
    return comb(k + dim, dim) - comb(k - 1 + dim, dim)


def s_expected_spectrum(degree: int, dim: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs (K^2 + k(k+d))/K^2 for k = 0..K."""
    return [
        ((degree * degree + k * (k + dim)) / degree**2, dim_orthogonal_layer(k, dim))
        for k in range(degree + 1)
    ]


def s_eigenvalues(degree: int, dim: int) -> np.ndarray:
    """Eigenvalues of S from the symmetric generalized problem B x = mu G x."""
    _, b_mat = operator_s_matrix(degree, dim)
    gram = reference_element(dim, degree).gram
    b = np.array([[float(x) for x in row] for row in b_mat])
    g = np.array([[float(x) for x in row] for row in gram])
    return scipy.linalg.eigh(b, g, eigvals_only=True)


def verify_s_consistency(degree: int, dim: int, trials: int = 20, seed: int = 0) -> dict:
    """Exact cross-check of the two routes to the bilinear form

        sum_j <lambda_j D_j v, D_j w>  versus  v^T B w

    on random rational polynomial pairs; reports mismatches (there must be
    none) and confirms symmetry of the form.
    """
    rng = np.random.default_rng(seed)
    ref = reference_element(dim, degree)
    _, b_mat = operator_s_matrix(degree, dim)
    monos = ref.monos
    mismatches = []
    asymmetries = []
    for t in range(trials):
        cv = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in monos]
        cw = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in monos]
        v = BarycentricPoly(dim, dict(zip(monos, cv)))
        w = BarycentricPoly(dim, dict(zip(monos, cw)))
        direct = Fraction(0)
        for j in range(dim + 1):
            dv = decomposition_apply(j, v, degree)
            dw = decomposition_apply(j, w, degree)
            direct += (dv.mul_lambda(j) * dw).integral(Fraction(1))
        via_matrix = Fraction(0)
        for i in range(len(monos)):
            for k in range(len(monos)):
                via_matrix += cw[i] * b_mat[i][k] * cv[k]
        if direct != via_matrix:
            mismatches.append((t, direct, via_matrix))
        swapped = Fraction(0)
        for j in range(dim + 1):
            dv = decomposition_apply(j, v, degree)
            dw = decomposition_apply(j, w, degree)
            swapped += (dw.mul_lambda(j) * dv).integral(Fraction(1))
        if swapped != direct:
            asymmetries.append(t)
    return {"trials": trials, "mismatches": mismatches, "asymmetries": asymmetries}


# -- finite element spaces --------------------------------------------------------


def node_key(verts: Sequence[int], alpha: MultiIndex) -> tuple:
    """Topological identity of the Lagrange node with multi-index alpha on the
    simplex with vertex ids verts: its (vertex, weight) pairs of nonzero
    weight, sorted.  On a conforming mesh two nodes are the same point exactly
    when their keys are equal (a point lies inside exactly one face)."""
    return tuple(sorted((v, k) for v, k in zip(verts, alpha) if k))


def scatter_matrix(row_dofs: np.ndarray, col_dofs: np.ndarray, blocks: np.ndarray, shape) -> sp.csr_matrix:
    """Global sparse matrix from element blocks: blocks[e, a, b] adds to entry
    (row_dofs[e, a], col_dofs[e, b]); negative dofs (removed trace dofs) are
    skipped.  Triplets are laid out element by element, then by a, then by b.
    scipy's COO->CSR conversion, not that layout, decides the order in which
    duplicates are summed; since the layout is fixed the result is still
    reproducible byte for byte, but it need not equal a sum in triplet order."""
    rows = np.broadcast_to(row_dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])), shape=shape)


@lru_cache(maxsize=None)
def float_local_mass(dim: int, degree) -> np.ndarray:
    """Element mass on the unit-volume simplex in floating point, for Lagrange
    degree K or degree "CR"; read-only, shared by all callers."""
    return _readonly_floats(cr_local_mass(dim) if degree == "CR" else reference_element(dim, degree).nodal_mass)


@lru_cache(maxsize=None)
def float_vandermonde_inv(dim: int, degree: int) -> np.ndarray:
    """Inverse Vandermonde matrix (nodal basis in monomial coefficients) in
    floating point; read-only, shared by all callers."""
    return _readonly_floats(reference_element(dim, degree).vandermonde_inv)


def _readonly_floats(exact) -> np.ndarray:
    out = np.array([[float(x) for x in row] for row in exact])
    out.setflags(write=False)
    return out


class _ElementSpace:
    """Dof table of an element space: dofs[r] holds the global dof of each
    local basis function on element element_ids[r], -1 for a removed trace
    dof."""

    def _set_dofs(self, table) -> None:
        self.dofs = np.array(table, dtype=np.int64).reshape(len(self.element_ids), -1)
        self.dofs.setflags(write=False)
        self._row = {sid: r for r, sid in enumerate(self.element_ids)}
        self._mass = None

    def cell_dofs(self, sid: int) -> np.ndarray:
        """Global dof per local basis function; -1 marks a removed trace dof."""
        return self.dofs[self._row[sid]]

    def dof_rows(self, element_ids: Sequence[int]) -> np.ndarray:
        """Rows of the dof table for the given elements, in the given order."""
        return self.dofs[[self._row[sid] for sid in element_ids]]

    def element_mass(self, element_ids: Sequence[int], weights: dict | None = None) -> sp.csr_matrix:
        """Mass matrix integrated over the given elements only, each scaled by
        weights[sid] when weights are given."""
        element_ids = list(element_ids)
        scale = np.array([float(self.mesh.volume(sid)) for sid in element_ids])
        if weights is not None:
            scale = scale * np.array([weights[sid] for sid in element_ids], dtype=float)
        dofs = self.dof_rows(element_ids)
        return scatter_matrix(dofs, dofs, scale[:, None, None] * self.local_mass(), (self.n_dofs, self.n_dofs))

    def mass_matrix(self) -> sp.csr_matrix:
        if self._mass is None:
            self._mass = self.element_mass(self.element_ids)
        return self._mass


class LagrangeSpace(_ElementSpace):
    """Continuous piecewise polynomials of one degree on a conforming mesh.

    Global dofs are Lagrange nodes, glued across elements by their
    topological identity (node_key); node_coords keeps each dof's exact
    rational coordinates.  With zero_trace=True the dofs on the marked
    boundary part of the mesh are removed from the space.
    """

    kind = "lagrange"

    def __init__(self, mesh: SimplicialMesh, degree: int, zero_trace: bool = False):
        if degree < 1:
            raise PolySpaceError("Lagrange degree must be >= 1")
        self.mesh = mesh
        self.degree = degree
        self.zero_trace = zero_trace
        self.ref = reference_element(mesh.dim, degree)
        self.element_ids = mesh.active_ids()
        self._enumerate_dofs()

    def _enumerate_dofs(self):
        mesh, K = self.mesh, self.degree
        node_ids: dict[tuple, int] = {}
        coords: list[tuple] = []
        on_gamma: set[int] = set()
        table: list[int] = []
        gamma = mesh.gamma_faces if self.zero_trace else set()
        for sid in self.element_ids:
            verts = mesh.simplices[sid].vertices
            gamma_locals = []
            if gamma:
                vset = set(verts)
                gamma_locals = [j for j, drop in enumerate(verts) if frozenset(vset - {drop}) in gamma]
            for alpha in self.ref.monos:
                key = node_key(verts, alpha)
                nid = node_ids.get(key)
                if nid is None:
                    nid = node_ids[key] = len(coords)
                    coords.append(
                        tuple(sum(Fraction(k, K) * mesh.coords[v][i] for v, k in key) for i in range(mesh.dim))
                    )
                table.append(nid)
                if any(alpha[j] == 0 for j in gamma_locals):
                    on_gamma.add(nid)
        self.n_dofs = len(coords) - len(on_gamma)
        self.node_coords = [c for i, c in enumerate(coords) if i not in on_gamma]
        if on_gamma:
            keep = np.ones(len(coords), dtype=bool)
            keep[list(on_gamma)] = False
            remap = np.where(keep, np.cumsum(keep) - 1, -1)
            table = remap[table]
        self._set_dofs(table)

    def local_mass(self) -> np.ndarray:
        return float_local_mass(self.mesh.dim, self.degree)


def cr_local_mass(dim: int, volume=Fraction(1)) -> list[list[Fraction]]:
    """Exact Crouzeix-Raviart element mass matrix

        M_jl = |T| (2 - d + delta_jl d^2) / ((d+2)(d+1)).
    """
    if dim < 2:
        raise PolySpaceError("Crouzeix-Raviart requires dimension >= 2")
    den = (dim + 2) * (dim + 1)
    return [
        [Fraction(2 - dim + (dim * dim if j == l else 0), den) * volume for l in range(dim + 1)]
        for j in range(dim + 1)
    ]


class CRSpace(_ElementSpace):
    """Crouzeix-Raviart space: one dof per (d-1)-face, basis 1 - d*lambda_j."""

    kind = "cr"

    def __init__(self, mesh: SimplicialMesh):
        if mesh.dim < 2:
            raise PolySpaceError("Crouzeix-Raviart requires dimension >= 2")
        self.mesh = mesh
        self.degree = 1
        self.element_ids = mesh.active_ids()
        face_ids: dict[frozenset[int], int] = {}
        table: list[int] = []
        for sid in self.element_ids:
            verts = mesh.simplices[sid].vertices
            vset = set(verts)
            for drop in verts:  # local face j is opposite local vertex j
                table.append(face_ids.setdefault(frozenset(vset - {drop}), len(face_ids)))
        self.n_dofs = len(face_ids)
        self.face_keys = sorted(face_ids, key=face_ids.get)
        self._set_dofs(table)

    def local_mass(self) -> np.ndarray:
        return float_local_mass(self.mesh.dim, "CR")

    @staticmethod
    def local_basis_poly(dim: int, j: int) -> BarycentricPoly:
        coeffs = {(0,) * (dim + 1): Fraction(1)}
        e_j = tuple(int(i == j) for i in range(dim + 1))
        coeffs[e_j] = Fraction(-dim)
        return BarycentricPoly(dim, coeffs)


# -- global decomposition ---------------------------------------------------------


def global_decomposition(space: LagrangeSpace, coeffs: Sequence) -> dict[int, dict[int, BarycentricPoly]]:
    """Split a degree-K Lagrange function v into the patch pieces D_i v with

        v = sum_i phi_i D_i v

    exactly.  Returns, per mesh vertex i, the local polynomials of D_i v on
    the elements of the patch around i.  Coefficients should be exact
    (Fractions or ints) for an exact result.
    """
    mesh, ref, K = space.mesh, space.ref, space.degree
    out: dict[int, dict[int, BarycentricPoly]] = {}
    for sid in space.element_ids:
        verts = mesh.simplices[sid].vertices
        dofs = space.cell_dofs(sid)
        values = [Fraction(coeffs[g]) if g >= 0 else Fraction(0) for g in dofs]
        local = ref.poly_from_nodal(values)
        for j, vertex in enumerate(verts):
            out.setdefault(vertex, {})[sid] = decomposition_apply(j, local, K)
    return out


def decomposition_reconstruction_error(
    space: LagrangeSpace, coeffs: Sequence, pieces: dict[int, dict[int, BarycentricPoly]]
) -> Fraction:
    """Exact max nodal deviation of sum_i phi_i D_i v from v."""
    mesh, ref = space.mesh, space.ref
    worst = Fraction(0)
    for sid in space.element_ids:
        verts = mesh.simplices[sid].vertices
        dofs = space.cell_dofs(sid)
        values = [Fraction(coeffs[g]) if g >= 0 else Fraction(0) for g in dofs]
        original = ref.poly_from_nodal(values)
        total = BarycentricPoly.zero(mesh.dim)
        for j, vertex in enumerate(verts):
            total = total + pieces[vertex][sid].mul_lambda(j)
        diff = total - original
        for node in ref.node_coords:
            worst = max(worst, abs(diff.evaluate(node)))
    return worst


# -- quadrature --------------------------------------------------------------------


@lru_cache(maxsize=None)
def simplex_quadrature(dim: int, degree: int):
    """Grundmann-Moller rule exact for polynomials up to the requested degree.

    Returns (points, weights): barycentric points, weights summing to one, so
    integral over T = |T| * sum_i w_i f(x_i).
    """
    s = max(0, (degree - 1 + 1) // 2)  # rule degree 2s+1 >= degree
    D = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = D + dim - 2 * i
        w = (
            Fraction((-1) ** i)
            * Fraction(denom) ** D
            / (Fraction(2) ** (2 * s) * factorial(i) * factorial(D + dim - i))
        )
        for beta in multi_indices(dim, s - i):
            pts.append([Fraction(2 * b + 1, denom) for b in beta])
            wts.append(w)
    norm = factorial(dim)
    points = np.array([[float(x) for x in p] for p in pts])
    weights = np.array([float(w * norm) for w in wts])
    return points, weights
