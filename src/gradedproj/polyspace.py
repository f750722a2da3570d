"""Exact polynomial algebra on simplices in the barycentric monomial basis,
the local basis of the Lagrange and Crouzeix-Raviart elements, and their
element spaces.

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
Each element space keeps its element vertex table and numbers its dofs from
node keys (Lagrange) or face keys (Crouzeix-Raviart) of that table with the
one topology kernel, mesh.first_appearance.  It has one float geometry table
(ElementGeometry, built on first use): vertex coordinates, volumes and
barycentric gradients.  Its readers stack element rows, so each element
keeps the BLAS and LAPACK calls, and the bits, of a separate evaluation.

The vertex splitting operators D_j and the local operator S of the paper's
proofs are not part of the instrument: the condition bounds are used in
closed form (projection.Operators.bound_kappa), and the tests keep D_j and S
in exact arithmetic, where acceptance criterion 1 checks the spectrum of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, prod
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from . import GradedProjError
from .mesh import SimplicialMesh, bareiss, element_faces, first_appearance, node_table, vertex_table

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
    scale = factorial(sum(sigma) + len(sigma) - 1)
    return Fraction(scaled_mean(sigma, scale), scale)


def scaled_mean(sigma: MultiIndex, scale: int) -> int:
    """scale * mono_mean(sigma), an integer whenever (|sigma| + d)! divides scale."""
    d = len(sigma) - 1
    out = factorial(d) * (scale // factorial(sum(sigma) + d))
    for s in sigma:
        out *= factorial(s)
    return out


# -- barycentric polynomials ---------------------------------------------------


class BarycentricPoly:
    """Sparse polynomial in barycentric monomials with rational coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[MultiIndex, Fraction] | None = None):
        self.dim = dim
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}  # truth is v != 0, without Fraction.__eq__

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __mul__(self, other: "BarycentricPoly") -> "BarycentricPoly":
        out: dict[MultiIndex, Fraction] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0) + va * vb
        return BarycentricPoly(self.dim, out)

    def integral(self, volume) -> Fraction:
        return sum((v * mono_mean(k) for k, v in self.coeffs.items()), Fraction(0)) * volume


# -- reference element tables ----------------------------------------------------


@dataclass(frozen=True)
class ReferenceElement:
    """Exact local data of the Lagrange element of one degree on the d-simplex.

    The monomial basis is {lambda^alpha : |alpha| = K}; Lagrange nodes are
    x_alpha with barycentric coordinates alpha / K (the barycenter for K = 0);
    vandermonde_inv holds the nodal basis in monomial coefficients.
    """

    dim: int
    degree: int
    monos: tuple[MultiIndex, ...]
    node_coords: tuple  # barycentric coordinates of Lagrange nodes
    vandermonde_inv: tuple


@lru_cache(maxsize=None)
def reference_element(dim: int, degree: int) -> ReferenceElement:
    monos = multi_indices(dim, degree)
    if degree == 0:
        nodes = (tuple(Fraction(1, dim + 1) for _ in range(dim + 1)),)
    else:
        nodes = tuple(tuple(Fraction(a, degree) for a in alpha) for alpha in monos)
    return ReferenceElement(dim, degree, monos, nodes, _fraction_rows(*_integer_vinv(dim, degree)))


# -- exact reference tables: one integer kernel ------------------------------------


def _integer_powers(dim: int, degree: int, node_degree: int) -> np.ndarray:
    """node_degree**degree times the monomial Vandermonde of degree `degree`
    at the Lagrange nodes alpha / node_degree, as integers prod_j alpha_j^sigma_j
    (the barycenter's row [1] for degree 0)."""
    return np.array(
        [
            [prod(a**s for a, s in zip(alpha, sigma)) for sigma in multi_indices(dim, degree)]
            for alpha in multi_indices(dim, node_degree)
        ],
        dtype=object,
    )


@lru_cache(maxsize=None)
def _integer_vinv(dim: int, degree: int) -> tuple[np.ndarray, int]:
    """Vinv = ints / den, with ints an object array of Python ints and den > 0
    the lcm of the denominators of Vinv: the Vandermonde is P / K^K for the
    integer powers P, so Vinv = K^K adj(P) / det(P), from one bareiss call."""
    powers = _integer_powers(dim, degree, degree)
    det, adj = bareiss(powers[None], np.eye(len(powers), dtype=np.int64)[None])
    ints, det = degree**degree * adj[0], det.item()
    common = gcd(det, *ints.ravel().tolist()) * (1 if det > 0 else -1)
    return ints // common, det // common


def _nodal_form(dim: int, degree_a: int, degree_b: int, moment) -> tuple:
    """Exact table T = Vinv_A^T G Vinv_B as rows of Fractions, for the moment
    matrix G[m][n] = c * mean(lambda^sigma) over the monomials m of degree_a
    and n of degree_b, with (c, sigma) = moment(m, n); c = 0 marks a zero
    entry.  G scaled by (max |sigma| + d)! and Vinv scaled by the lcm of its
    denominators are integers, so T is an integer product with one division
    per entry."""
    pairs = [[moment(m, n) for n in multi_indices(dim, degree_b)] for m in multi_indices(dim, degree_a)]
    scale = factorial(max((sum(s) for row in pairs for c, s in row if c), default=0) + dim)
    g = np.array([[c * scaled_mean(s, scale) if c else 0 for c, s in row] for row in pairs], dtype=object)
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
def monomial_moments(keys: tuple[MultiIndex, ...]) -> tuple[np.ndarray, int]:
    """Integer moments of the monomials keys over any simplex: G[k, l] =
    scale * mono_mean(keys[k] + keys[l]) as Python ints in a read-only object
    array, with scale = (max |keys[k] + keys[l]| + d)!, so any mix of degrees
    gives integers."""
    scale = factorial(2 * max(map(sum, keys)) + len(keys[0]) - 1) if keys else 1
    out = np.empty((len(keys), len(keys)), dtype=object)
    out[...] = [[scaled_mean(_index_sum(k, l), scale) for l in keys] for k in keys]
    out.setflags(write=False)
    return out, scale


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
    vinv, den = _integer_vinv(dim, degree)
    return _fraction_rows(_integer_powers(dim, degree, node_degree) @ vinv, node_degree**degree * den)


# -- finite element spaces --------------------------------------------------------


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
    dof, numbered from the keys of the read-only vertex table vertices[r].
    local_degree names the local basis as the tables and evaluators of this
    module take it: the Lagrange degree K, or "CR"."""

    def __init__(self, mesh: SimplicialMesh):
        self.mesh = mesh
        self.element_ids = mesh.active_ids()
        self.vertices = vertex_table(mesh, self.element_ids)
        self.vertices.setflags(write=False)
        self._row = {sid: r for r, sid in enumerate(self.element_ids)}
        self._mass = None

    @cached_property
    def geometry(self) -> ElementGeometry:
        """The geometry table of element_ids (not of the mesh's current active
        set), built on first use; the gradients from one stacked inverse."""
        mesh = self.mesh
        # Python's int / int rounds once, as float(Fraction(n, 2**e)) does, and
        # needs only the quotient in float range, not the numerator n
        coords = (np.array(mesh.points, dtype=object) / (1 << mesh.exponent)).astype(float)
        vertices = coords[self.vertices]
        volumes = mesh.float_volumes(self.element_ids)
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

    Global dofs are Lagrange nodes, glued across elements by equal node keys
    (mesh.node_table) and numbered in order of first appearance.
    trace_faces[r, j] flags the local faces on the marked boundary part of
    the mesh (none without zero_trace); with zero_trace=True the dofs on them
    are removed from the space.
    """

    def __init__(self, mesh: SimplicialMesh, degree: int, zero_trace: bool = False):
        if degree < 1:
            raise PolySpaceError("Lagrange degree must be >= 1")
        super().__init__(mesh)
        self.degree = self.local_degree = degree
        self.zero_trace = zero_trace
        self.ref = reference_element(mesh.dim, degree)
        self.trace_faces = np.zeros(self.vertices.shape, dtype=bool)
        if zero_trace and mesh.gamma_faces:
            faces, face_vertices = element_faces(self.vertices)
            gamma = {tuple(sorted(face)) for face in mesh.gamma_faces}
            self.trace_faces = np.array([face in gamma for face in map(tuple, face_vertices.tolist())])[faces]
        self.trace_faces.setflags(write=False)
        alphas = np.array(self.ref.monos)
        keys = node_table(self.vertices, alphas)
        # a node on a trace face (alpha_j = 0 for a flagged face j) is removed
        dofs, first = first_appearance(keys, (self.trace_faces @ (alphas == 0).T).ravel())
        self.n_dofs = len(first)
        self.dofs = dofs.reshape(len(self.element_ids), -1)
        self.dofs.setflags(write=False)


def cr_local_mass(dim: int) -> list[list[Fraction]]:
    """Exact Crouzeix-Raviart element mass matrix of the unit-volume simplex

        M_jl = (2 - d + delta_jl d^2) / ((d+2)(d+1)).
    """
    if dim < 2:
        raise PolySpaceError("Crouzeix-Raviart requires dimension >= 2")
    den = (dim + 2) * (dim + 1)
    return [
        [Fraction(2 - dim + (dim * dim if j == l else 0), den) for l in range(dim + 1)]
        for j in range(dim + 1)
    ]


class CRSpace(_ElementSpace):
    """Crouzeix-Raviart space: one dof per (d-1)-face, basis 1 - d*lambda_j.
    Local dof j is the face opposite local vertex j; face_keys[f] holds the
    sorted vertex ids of face f (mesh.element_faces)."""

    local_degree = "CR"

    def __init__(self, mesh: SimplicialMesh):
        if mesh.dim < 2:
            raise PolySpaceError("Crouzeix-Raviart requires dimension >= 2")
        super().__init__(mesh)
        self.degree = 1
        self.dofs, self.face_keys = element_faces(self.vertices)
        self.dofs.setflags(write=False)
        self.n_dofs = len(self.face_keys)


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
