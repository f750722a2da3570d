"""Exact polynomial algebra on simplices in the barycentric monomial basis,
the local basis of the Lagrange and Crouzeix-Raviart elements, their element
spaces, and the local spectral operator behind the projection condition
bounds.

Everything on a single element is exact rational arithmetic.  Monomials are
lambda^sigma = lambda_0^s0 * ... * lambda_d^sd with the integration formula

    mean_T lambda^sigma = sigma! d! / (|sigma| + d)!

Every exact element table (nodal mass, the lambda_j-weighted product tables
of the patch operator, the gradient product tables) is a mean of products of
nodal basis functions, Vinv_A^T G Vinv_B with G a monomial moment matrix
from that formula; one kernel forms it in integers over common denominators.
One float evaluator gives the values and barycentric partials of the local
basis, Lagrange degree K or "CR", at any stack of barycentric points.  Spectra
are computed only after conversion to floating point.
Each element space has one float geometry table (ElementGeometry, built on
first use): vertex coordinates, volumes and barycentric gradients.  Its
readers stack element rows, so each element keeps the BLAS and LAPACK calls,
and the bits, of a separate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, lcm, prod
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import GradedProjError
from .mesh import SimplicialMesh, fraction_solve

MultiIndex = tuple[int, ...]


class PolySpaceError(GradedProjError):
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

    def values(self, bary: np.ndarray) -> np.ndarray:
        """Float values at the rows of bary: the monomial terms, each formed as
        in monomial_values, summed one after another in coefficient order."""
        out = np.zeros(len(bary))
        for term in monomial_values(tuple(self.coeffs), bary, tuple(self.coeffs.values())).T:
            out += term
        return out

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

    @property
    def n(self) -> int:
        return len(self.monos)

    @property
    def nodal_mass(self) -> tuple:
        return nodal_mass_table(self.dim, self.degree)

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


@lru_cache(maxsize=None)
def reference_element(dim: int, degree: int) -> ReferenceElement:
    monos = multi_indices(dim, degree)
    gram = tuple(
        tuple(mono_mean(tuple(a + b for a, b in zip(ma, mb))) for mb in monos) for ma in monos
    )
    if degree == 0:
        nodes = (tuple(Fraction(1, dim + 1) for _ in range(dim + 1)),)
    else:
        nodes = tuple(tuple(Fraction(a, degree) for a in alpha) for alpha in monos)
    vand = tuple(tuple(BarycentricPoly.monomial(mono).evaluate(node) for mono in monos) for node in nodes)
    vinv = tuple(tuple(row) for row in frac_mat_inv([list(r) for r in vand]))
    return ReferenceElement(dim, degree, monos, gram, nodes, vand, vinv)


# -- exact reference tables: one integer kernel ------------------------------------


@lru_cache(maxsize=None)
def _integer_vinv(dim: int, degree: int) -> tuple[np.ndarray, int]:
    """Vinv = ints / den, with ints an object array of Python ints and den
    the lcm of the denominators of Vinv."""
    vinv = reference_element(dim, degree).vandermonde_inv
    den = lcm(*(x.denominator for row in vinv for x in row))
    return np.array([[x.numerator * (den // x.denominator) for x in row] for row in vinv], dtype=object), den


def _nodal_form(dim: int, degree_a: int, degree_b: int, moment) -> tuple:
    """Exact table T = Vinv_A^T G Vinv_B as rows of Fractions, for the moment
    matrix G[m][n] = c * mean(lambda^sigma) over the monomials m of degree_a
    and n of degree_b, with (c, sigma) = moment(m, n); c = 0 marks a zero
    entry.  G scaled by (max |sigma| + d)! and Vinv scaled by the lcm of its
    denominators are integers, so T is an integer product with one division
    per entry."""
    pairs = [[moment(m, n) for n in multi_indices(dim, degree_b)] for m in multi_indices(dim, degree_a)]
    scale = factorial(max((sum(s) for row in pairs for c, s in row if c), default=0) + dim)

    def scaled_mean(sigma):  # scale * sigma! d! / (|sigma| + d)!
        out = factorial(dim) * (scale // factorial(sum(sigma) + dim))
        for s in sigma:
            out *= factorial(s)
        return out

    g = np.array([[c * scaled_mean(s) if c else 0 for c, s in row] for row in pairs], dtype=object)
    va, la = _integer_vinv(dim, degree_a)
    vb, lb = _integer_vinv(dim, degree_b)
    return _fraction_rows(va.T @ g @ vb, la * scale * lb)


def _fraction_rows(ints: np.ndarray, den: int) -> tuple:
    return tuple(tuple(Fraction(int(x), den) for x in row) for row in ints)


def _index_sum(*indices) -> MultiIndex:
    return tuple(map(sum, zip(*indices)))


def _unit(dim: int, j: int, step: int) -> MultiIndex:
    return tuple(step if i == j else 0 for i in range(dim + 1))


@lru_cache(maxsize=None)
def nodal_mass_table(dim: int, degree: int):
    """Exact mass M[a][b] = mean of N_a * N_b over the simplex."""
    return _nodal_form(dim, degree, degree, lambda m, n: (1, _index_sum(m, n)))


@lru_cache(maxsize=None)
def lambda_nodal_product_table(dim: int, degree_a: int, degree_b: int):
    """Exact tensor P[j][a][b] = mean of lambda_j * N^A_a * N^B_b over the
    simplex, with N^A, N^B the nodal bases of the two degrees."""
    def table(e_j):
        return _nodal_form(dim, degree_a, degree_b, lambda m, n: (1, _index_sum(m, n, e_j)))

    return tuple(table(_unit(dim, j, 1)) for j in range(dim + 1))


@lru_cache(maxsize=None)
def gradient_product_table(dim: int, degree: int):
    """Exact tensor W[j][l][a][b] = mean of (dN_a / dlambda_j)(dN_b / dlambda_l)
    over the simplex, for the degree-K nodal basis."""
    def table(j, l):
        down = _index_sum(_unit(dim, j, -1), _unit(dim, l, -1))
        return _nodal_form(dim, degree, degree, lambda m, n: (m[j] * n[l], _index_sum(m, n, down)))

    return tuple(tuple(table(j, l) for l in range(dim + 1)) for j in range(dim + 1))


@lru_cache(maxsize=None)
def nodal_values_at_nodes(dim: int, degree: int, node_degree: int):
    """Exact values V[m][a] of the degree-K nodal basis N_a at the Lagrange
    nodes x_m = alpha_m / K' of degree K' = node_degree >= 1: the monomial
    Vandermonde at those nodes, prod_j alpha_j^sigma_j / K'^K, times Vinv."""
    powers = np.array(
        [
            [prod(a**s for a, s in zip(alpha, sigma)) for sigma in multi_indices(dim, degree)]
            for alpha in multi_indices(dim, node_degree)
        ],
        dtype=object,
    )
    vinv, den = _integer_vinv(dim, degree)
    return _fraction_rows(powers @ vinv, node_degree**degree * den)


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
    return _readonly_floats(cr_local_mass(dim) if degree == "CR" else nodal_mass_table(dim, degree))


@lru_cache(maxsize=None)
def float_vandermonde_inv(dim: int, degree: int) -> np.ndarray:
    """Inverse Vandermonde matrix (nodal basis in monomial coefficients) in
    floating point; read-only, shared by all callers."""
    return _readonly_floats(reference_element(dim, degree).vandermonde_inv)


def _readonly_floats(exact) -> np.ndarray:
    out = np.array([[float(x) for x in row] for row in exact])
    out.setflags(write=False)
    return out


# -- float evaluation of the local basis --------------------------------------------


def monomial_values(monos: Sequence[MultiIndex], bary: np.ndarray, coeffs: Sequence | None = None) -> np.ndarray:
    """(..., n_monos) values of coeff * lambda^mono at the barycentric points
    bary[..., :], each formed as the coefficient (1.0 without coeffs) times
    the factors bary_j ** e in j order."""
    points = bary.shape[:-1]
    out = np.empty(points + (len(monos),))
    for col, mono in enumerate(monos):
        term = np.full(points, 1.0 if coeffs is None else float(coeffs[col]))
        for j, e in enumerate(mono):
            if e:
                term *= bary[..., j] ** e
        out[..., col] = term
    return out


def basis_values(dim: int, degree, bary: np.ndarray, partials: bool = False) -> np.ndarray:
    """The local basis at the barycentric points bary[..., :] (a list of
    points, or a stack of lists), for Lagrange degree K (the nodal basis, from
    its monomial coefficients) or degree "CR" (1 - d lambda_j): values, shape
    (..., n_basis), or with partials=True the partials in lambda_j, shape
    (..., d+1, n_basis)."""
    points = bary.shape[:-1]
    if degree == "CR":
        if partials:
            return np.broadcast_to(-dim * np.eye(dim + 1), points + (dim + 1, dim + 1))
        return 1.0 - dim * bary
    monos = multi_indices(dim, degree)
    if not partials:
        return monomial_values(monos, bary) @ float_vandermonde_inv(dim, degree)
    out = np.zeros(points + (dim + 1, len(monos)))
    for j in range(dim + 1):
        cols = [col for col, mono in enumerate(monos) if mono[j]]
        out[..., j, cols] = monomial_values([multi_index_sub(monos[c], j) for c in cols], bary, [monos[c][j] for c in cols])
    return out @ float_vandermonde_inv(dim, degree)


@lru_cache(maxsize=None)
def quadrature_basis(dim: int, degree, quad_degree: int, partials: bool = False) -> np.ndarray:
    """basis_values at the points of simplex_quadrature(dim, quad_degree);
    read-only, shared by all callers."""
    out = basis_values(dim, degree, simplex_quadrature(dim, quad_degree)[0], partials)
    out.setflags(write=False)
    return out


class ElementGeometry(NamedTuple):
    """Read-only float geometry of a space's elements, row r for element_ids[r]:
    vertex coordinates (n, d+1, d) in local order, the exact volumes as floats
    (n,), and the gradients of the barycentric coordinates (n, d+1, d)."""

    vertices: np.ndarray
    volumes: np.ndarray
    gradients: np.ndarray


class _ElementSpace:
    """Dof table of an element space: dofs[r] holds the global dof of each
    local basis function on element element_ids[r], -1 for a removed trace
    dof.  local_degree names the local basis as the tables and evaluators of
    this module take it: the Lagrange degree K, or "CR"."""

    def _set_dofs(self, table) -> None:
        self.dofs = np.array(table, dtype=np.int64).reshape(len(self.element_ids), -1)
        self.dofs.setflags(write=False)
        self._row = {sid: r for r, sid in enumerate(self.element_ids)}
        self._mass = None

    @cached_property
    def geometry(self) -> ElementGeometry:
        """The geometry table of element_ids (not of the mesh's current active
        set), built on first use; the gradients from one stacked inverse."""
        mesh = self.mesh
        coords = np.array([[float(x) for x in c] for c in mesh.coords])
        vertices = coords[[mesh.simplices[sid].vertices for sid in self.element_ids]]
        volumes = np.array([float(mesh.volume(sid)) for sid in self.element_ids])
        inv = np.linalg.inv(np.swapaxes(vertices[:, 1:] - vertices[:, :1], 1, 2))
        gradients = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
        for table in (vertices, volumes, gradients):
            table.setflags(write=False)
        return ElementGeometry(vertices, volumes, gradients)

    def local_mass(self) -> np.ndarray:
        return float_local_mass(self.mesh.dim, self.local_degree)

    def cell_dofs(self, sid: int) -> np.ndarray:
        """Global dof per local basis function; -1 marks a removed trace dof."""
        return self.dofs[self._row[sid]]

    def rows(self, element_ids: Sequence[int]) -> list[int]:
        """Table rows (of dofs and geometry) of the given elements, in the given order."""
        return [self._row[sid] for sid in element_ids]

    def dof_rows(self, element_ids: Sequence[int]) -> np.ndarray:
        """Rows of the dof table for the given elements, in the given order."""
        return self.dofs[self.rows(element_ids)]

    def element_mass(self, element_ids: Sequence[int], weights: dict | None = None) -> sp.csr_matrix:
        """Mass matrix integrated over the given elements only, each scaled by
        weights[sid] when weights are given."""
        element_ids = list(element_ids)
        rows = self.rows(element_ids)
        scale = self.geometry.volumes[rows]
        if weights is not None:
            scale = scale * np.array([weights[sid] for sid in element_ids], dtype=float)
        dofs = self.dofs[rows]
        return scatter_matrix(dofs, dofs, scale[:, None, None] * self.local_mass(), (self.n_dofs, self.n_dofs))

    def mass_matrix(self) -> sp.csr_matrix:
        if self._mass is None:
            self._mass = self.element_mass(self.element_ids)
        return self._mass


class LagrangeSpace(_ElementSpace):
    """Continuous piecewise polynomials of one degree on a conforming mesh.

    Global dofs are Lagrange nodes, glued across elements by their
    topological identity (node_key); node_coords gives each dof's exact
    rational coordinates, computed from the node keys on first read.  With
    zero_trace=True the dofs on the marked boundary part of the mesh are
    removed from the space.
    """

    kind = "lagrange"

    def __init__(self, mesh: SimplicialMesh, degree: int, zero_trace: bool = False):
        if degree < 1:
            raise PolySpaceError("Lagrange degree must be >= 1")
        self.mesh = mesh
        self.degree = self.local_degree = degree
        self.zero_trace = zero_trace
        self.ref = reference_element(mesh.dim, degree)
        self.element_ids = mesh.active_ids()
        self._enumerate_dofs()

    def _enumerate_dofs(self):
        mesh = self.mesh
        node_ids: dict[tuple, int] = {}
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
                nid = node_ids.setdefault(node_key(verts, alpha), len(node_ids))
                table.append(nid)
                if any(alpha[j] == 0 for j in gamma_locals):
                    on_gamma.add(nid)
        self.n_dofs = len(node_ids) - len(on_gamma)
        self._node_keys = [key for i, key in enumerate(node_ids) if i not in on_gamma]
        if on_gamma:
            keep = np.ones(len(node_ids), dtype=bool)
            keep[list(on_gamma)] = False
            remap = np.where(keep, np.cumsum(keep) - 1, -1)
            table = remap[table]
        self._set_dofs(table)

    @cached_property
    def node_coords(self) -> list[tuple]:
        coords, K, dims = self.mesh.coords, self.degree, range(self.mesh.dim)
        return [tuple(sum(Fraction(k, K) * coords[v][i] for v, k in key) for i in dims) for key in self._node_keys]


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
    local_degree = "CR"

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
