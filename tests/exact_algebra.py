"""Exact polynomial algebra that only the tests use, as oracles and as checks
of the paper's claims: BarycentricPoly arithmetic beyond the product and the
integral, nodal polynomials of the reference elements, the vertex splitting
operators D_j with the exact decomposition v = sum_i phi_i D_i v, and the
local operator S whose spectrum (K^2 + k(k+d))/K^2 gives the condition bound
kappa <= (2K+d)/K that gradedproj.projection uses in closed form.

Everything here is exact rational arithmetic; s_eigenvalues alone converts to
floating point, for the generalized eigenproblem."""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np
import scipy.linalg

from gradedproj.mesh import node_table
from gradedproj.polyspace import (
    BarycentricPoly,
    LagrangeSpace,
    MultiIndex,
    PolySpaceError,
    ReferenceElement,
    mono_mean,
    multi_index_sub,
    multi_indices,
)

# -- barycentric polynomial arithmetic ---------------------------------------------


def monomial(sigma: MultiIndex, coeff=Fraction(1)) -> BarycentricPoly:
    return BarycentricPoly(len(sigma) - 1, {tuple(sigma): Fraction(coeff)})


def poly_add(*polys: BarycentricPoly) -> BarycentricPoly:
    out: dict[MultiIndex, Fraction] = {}
    for poly in polys:
        for k, v in poly.coeffs.items():
            out[k] = out.get(k, 0) + v
    return BarycentricPoly(polys[0].dim, out)


def poly_sub(a: BarycentricPoly, b: BarycentricPoly) -> BarycentricPoly:
    return poly_add(a, BarycentricPoly(b.dim, {k: -v for k, v in b.coeffs.items()}))


def mul_lambda(poly: BarycentricPoly, j: int) -> BarycentricPoly:
    """lambda_j * poly."""
    return BarycentricPoly(poly.dim, {k[:j] + (k[j] + 1,) + k[j + 1 :]: v for k, v in poly.coeffs.items()})


def evaluate(poly: BarycentricPoly, bary: Sequence) -> Fraction:
    """Exact value at the barycentric point bary."""
    total = 0
    for k, v in poly.coeffs.items():
        term = v
        for b, e in zip(bary, k):
            if e:
                term *= b**e
        total += term
    return total


@lru_cache(maxsize=None)
def _multinomial(sigma: MultiIndex) -> int:
    total = sum(sigma)
    out = 1
    for s in sigma:
        out *= comb(total, s)
        total -= s
    return out


def homogenize(poly: BarycentricPoly, degree: int) -> BarycentricPoly:
    """Rewrite with all monomials of exactly the given total degree using
    (sum_j lambda_j)^m = 1."""
    out: dict[MultiIndex, Fraction] = {}
    for k, v in poly.coeffs.items():
        gap = degree - sum(k)
        if gap < 0:
            raise PolySpaceError(f"degree {sum(k)} exceeds homogenization target {degree}")
        for extra in multi_indices(poly.dim, gap):
            key = tuple(a + b for a, b in zip(k, extra))
            out[key] = out.get(key, 0) + v * _multinomial(extra)
    return BarycentricPoly(poly.dim, out)


def substitute(poly: BarycentricPoly, forms: Sequence[BarycentricPoly]) -> BarycentricPoly:
    """Replace lambda_j by forms[j] (polynomials over another simplex)."""
    dim_out = forms[0].dim
    result = BarycentricPoly(dim_out)
    for k, v in poly.coeffs.items():
        term = BarycentricPoly(dim_out, {(0,) * (dim_out + 1): Fraction(v)})
        for j, e in enumerate(k):
            for _ in range(e):
                term = term * forms[j]
        result = poly_add(result, term)
    return result


def integrate_monomial(sigma: MultiIndex, volume) -> Fraction:
    """Exact integral of lambda^sigma over a simplex of the given volume."""
    if any(s < 0 for s in sigma):
        raise PolySpaceError(f"invalid multi index {sigma}")
    return mono_mean(sigma) * volume


def frac_mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


# -- reference elements and local bases -------------------------------------------


@lru_cache(maxsize=None)
def gram(dim: int, degree: int) -> tuple:
    """Monomial mass of the unit-volume simplex: means of lambda^(a + b)."""
    monos = multi_indices(dim, degree)
    return tuple(tuple(mono_mean(tuple(a + b for a, b in zip(ma, mb))) for mb in monos) for ma in monos)


def nodal_poly(ref: ReferenceElement, a: int) -> BarycentricPoly:
    """Lagrange basis function number a as a monomial-basis polynomial."""
    return BarycentricPoly(ref.dim, {mono: ref.vandermonde_inv[m][a] for m, mono in enumerate(ref.monos)})


def poly_from_nodal(ref: ReferenceElement, values: Sequence) -> BarycentricPoly:
    """The local polynomial with the given nodal values."""
    n = len(ref.monos)
    return BarycentricPoly(
        ref.dim,
        {mono: sum(ref.vandermonde_inv[m][a] * values[a] for a in range(n)) for m, mono in enumerate(ref.monos)},
    )


def cr_basis_poly(dim: int, j: int) -> BarycentricPoly:
    """Crouzeix-Raviart local basis function 1 - d lambda_j."""
    return BarycentricPoly(dim, {(0,) * (dim + 1): Fraction(1), tuple(int(i == j) for i in range(dim + 1)): Fraction(-dim)})


# -- exact node coordinates of a Lagrange space --------------------------------------


def node_keys(space: LagrangeSpace) -> np.ndarray:
    """The node key (mesh.node_table) of each dof, at the dof's first
    appearance in the dof table."""
    numbers, first = np.unique(space.dofs.ravel(), return_index=True)
    return node_table(space.vertices, np.array(space.ref.monos))[first[numbers >= 0]]


def node_coords(space: LagrangeSpace) -> list[tuple]:
    """Exact rational coordinates of each dof, from its node key."""
    points, d, den = space.mesh.points, space.mesh.dim, space.degree << space.mesh.exponent
    pairs = [[(v, k) for v, k in zip(key[: d + 1], key[d + 1 :]) if k] for key in node_keys(space).tolist()]
    return [tuple(Fraction(sum(k * points[v][i] for v, k in vk), den) for i in range(d)) for vk in pairs]


# -- the vertex splitting operators and the exact decomposition -----------------------


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


def _local_polys(space: LagrangeSpace, coeffs: Sequence):
    """(sid, vertex ids, local polynomial) of a degree-K Lagrange function."""
    for sid in space.element_ids:
        values = [Fraction(coeffs[g]) if g >= 0 else Fraction(0) for g in space.cell_dofs(sid)]
        yield sid, space.mesh.simplices[sid].vertices, poly_from_nodal(space.ref, values)


def global_decomposition(space: LagrangeSpace, coeffs: Sequence) -> dict[int, dict[int, BarycentricPoly]]:
    """Split a degree-K Lagrange function v into the patch pieces D_i v with

        v = sum_i phi_i D_i v

    exactly.  Returns, per mesh vertex i, the local polynomials of D_i v on
    the elements of the patch around i.  Coefficients should be exact
    (Fractions or ints) for an exact result.
    """
    out: dict[int, dict[int, BarycentricPoly]] = {}
    for sid, verts, local in _local_polys(space, coeffs):
        for j, vertex in enumerate(verts):
            out.setdefault(vertex, {})[sid] = decomposition_apply(j, local, space.degree)
    return out


def decomposition_reconstruction_error(
    space: LagrangeSpace, coeffs: Sequence, pieces: dict[int, dict[int, BarycentricPoly]]
) -> Fraction:
    """Exact max nodal deviation of sum_i phi_i D_i v from v."""
    worst = Fraction(0)
    for sid, verts, original in _local_polys(space, coeffs):
        total = poly_add(*(mul_lambda(pieces[vertex][sid], j) for j, vertex in enumerate(verts)))
        diff = poly_sub(total, original)
        for node in space.ref.node_coords:
            worst = max(worst, abs(evaluate(diff, node)))
    return worst


# -- the local spectral operator S -------------------------------------------------------


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
    monos = multi_indices(dim, degree)
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    K2 = Fraction(degree * degree)
    a_mat = [[Fraction(0)] * n for _ in range(n)]
    for col, sigma in enumerate(monos):
        total = sum(sigma)
        image = monomial(sigma, Fraction(degree * degree + total * (total + dim), 1) / K2)
        for j, sj in enumerate(sigma):
            if sj:
                image = poly_sub(image, monomial(multi_index_sub(sigma, j), Fraction(sj * sj) / K2))
        for mono, coeff in homogenize(image, degree).coeffs.items():
            a_mat[index[mono]][col] += coeff
    b_mat = frac_mat_mul([list(r) for r in gram(dim, degree)], a_mat)
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
    b = np.array([[float(x) for x in row] for row in b_mat])
    g = np.array([[float(x) for x in row] for row in gram(dim, degree)])
    return scipy.linalg.eigh(b, g, eigvals_only=True)


def verify_s_consistency(degree: int, dim: int, trials: int = 20, seed: int = 0) -> dict:
    """Exact cross-check of the two routes to the bilinear form

        sum_j <lambda_j D_j v, D_j w>  versus  v^T B w

    on random rational polynomial pairs; reports mismatches (there must be
    none) and confirms symmetry of the form.
    """
    rng = np.random.default_rng(seed)
    monos = multi_indices(dim, degree)
    _, b_mat = operator_s_matrix(degree, dim)
    mismatches = []
    asymmetries = []
    for t in range(trials):
        cv = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in monos]
        cw = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in monos]
        v = BarycentricPoly(dim, dict(zip(monos, cv)))
        w = BarycentricPoly(dim, dict(zip(monos, cw)))
        direct = Fraction(0)
        swapped = Fraction(0)
        for j in range(dim + 1):
            dv = decomposition_apply(j, v, degree)
            dw = decomposition_apply(j, w, degree)
            direct += (mul_lambda(dv, j) * dw).integral(Fraction(1))
            swapped += (mul_lambda(dw, j) * dv).integral(Fraction(1))
        via_matrix = sum(cw[i] * b_mat[i][k] * cv[k] for i in range(len(monos)) for k in range(len(monos)))
        if direct != via_matrix:
            mismatches.append((t, direct, via_matrix))
        if swapped != direct:
            asymmetries.append(t)
    return {"trials": trials, "mismatches": mismatches, "asymmetries": asymmetries}
