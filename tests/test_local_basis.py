"""Differential tests of the local-basis layer in gradedproj.polyspace: the
integer kernel behind the exact reference tables and the one float evaluator
of the Lagrange and Crouzeix-Raviart bases, against the BarycentricPoly
products and the per-module evaluators they replaced.  Tables must agree as
exact Fractions, basis values array for array (the evaluator keeps the
replaced float operations and their order)."""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from exact_algebra import evaluate, frac_mat_mul, gram, mul_lambda, nodal_poly
from gradedproj.polyspace import (
    BarycentricPoly,
    basis_values,
    float_vandermonde_inv,
    gradient_product_table,
    lambda_nodal_product_table,
    multi_indices,
    nodal_mass_table,
    nodal_values_at_nodes,
    quadrature_basis,
    reference_element,
    simplex_quadrature,
)

# -- the replaced implementations, kept as oracles --------------------------------


def product_nodal_mass(dim, degree):
    """Vinv^T Gram Vinv by Fraction matrix products."""
    ref = reference_element(dim, degree)
    vinv = [list(row) for row in ref.vandermonde_inv]
    vinv_t = [list(col) for col in zip(*vinv)]
    return tuple(tuple(row) for row in frac_mat_mul(vinv_t, frac_mat_mul([list(r) for r in gram(dim, degree)], vinv)))


@cache
def product_lambda_table(dim, degree_a, degree_b):
    """P[j][a][b] = mean of lambda_j N^A_a N^B_b from BarycentricPoly products."""
    ra, rb = reference_element(dim, degree_a), reference_element(dim, degree_b)
    polys_a = [nodal_poly(ra, a) for a in range(len(ra.monos))]
    polys_b = [nodal_poly(rb, b) for b in range(len(rb.monos))]
    return tuple(
        tuple(tuple((mul_lambda(pa, j) * pb).integral(Fraction(1)) for pb in polys_b) for pa in polys_a)
        for j in range(dim + 1)
    )


@cache
def product_gradient_table(dim, degree):
    """W[j][l][a][b] = mean of (dN_a/dlambda_j)(dN_b/dlambda_l) from products of
    the differentiated BarycentricPolys."""
    ref = reference_element(dim, degree)
    partials = []
    for a in range(len(ref.monos)):
        row = []
        for j in range(dim + 1):
            coeffs = {}
            for mono, c in nodal_poly(ref, a).coeffs.items():
                if mono[j] > 0:
                    key = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
                    coeffs[key] = coeffs.get(key, 0) + c * mono[j]
            row.append(BarycentricPoly(dim, coeffs))
        partials.append(row)
    return tuple(
        tuple(
            tuple(
                tuple((partials[a][j] * partials[b][l]).integral(Fraction(1)) for b in range(len(ref.monos)))
                for a in range(len(ref.monos))
            )
            for l in range(dim + 1)
        )
        for j in range(dim + 1)
    )


def evaluated_low_at_hi(dim, degree):
    """Degree K-1 nodal basis at the degree-K nodes, one evaluate per entry."""
    low, hi = reference_element(dim, degree - 1), reference_element(dim, degree)
    return [[evaluate(nodal_poly(low, a), x) for a in range(len(low.monos))] for x in hi.node_coords]


def lagrange_values(ref, bary):
    mono_vals = np.ones((len(bary), len(ref.monos)))
    for col, mono in enumerate(ref.monos):
        for j, e in enumerate(mono):
            if e:
                mono_vals[:, col] *= bary[:, j] ** e
    return mono_vals @ float_vandermonde_inv(ref.dim, ref.degree)


def cr_values_at(bary, dim):
    return 1.0 - dim * bary


def poly_values(poly, bary):
    out = np.zeros(len(bary))
    for mono, coeff in poly.coeffs.items():
        term = np.full(len(bary), float(coeff))
        for j, e in enumerate(mono):
            if e:
                term *= bary[:, j] ** e
        out += term
    return out


def gradient_values(ref, loc, pts, grads):
    """Gradient of the local function with nodal values loc, from the
    monomial coefficients, term by term."""
    d = ref.dim
    mono_coeffs = float_vandermonde_inv(ref.dim, ref.degree) @ loc
    out = np.zeros((len(pts), d))
    for col, mono in enumerate(ref.monos):
        c = mono_coeffs[col]
        if c == 0:
            continue
        for j, e in enumerate(mono):
            if e == 0:
                continue
            term = np.full(len(pts), float(c) * e)
            for jj, ee in enumerate(mono):
                pw = ee - 1 if jj == j else ee
                if pw:
                    term = term * pts[:, jj] ** pw
            out += term[:, None] * grads[j][None, :]
    return out


# -- exact tables ----------------------------------------------------------------------

PAIRS = [(d, k) for d in (1, 2, 3, 4) for k in (1, 2, 3)]


@pytest.mark.parametrize("dim,degree", PAIRS + [(2, 0), (3, 0)])
def test_nodal_mass_matches_products(dim, degree):
    assert nodal_mass_table(dim, degree) == product_nodal_mass(dim, degree)


@pytest.mark.parametrize("dim,degree", PAIRS)
def test_lambda_tables_match_products(dim, degree):
    for da, db in ((degree - 1, degree - 1), (degree - 1, degree), (degree, degree - 1)):
        table = lambda_nodal_product_table(dim, da, db)
        assert table == product_lambda_table(dim, da, db)
        assert all(isinstance(x, Fraction) for tj in table for row in tj for x in row)


# (4, 3) is left out: its product oracle alone takes about 4 s
@pytest.mark.parametrize("dim,degree", [p for p in PAIRS if p != (4, 3)])
def test_gradient_table_matches_products(dim, degree):
    assert gradient_product_table(dim, degree) == product_gradient_table(dim, degree)


@pytest.mark.parametrize("dim,degree", PAIRS)
def test_low_values_at_high_nodes_match_evaluate(dim, degree):
    assert [list(row) for row in nodal_values_at_nodes(dim, degree - 1, degree)] == evaluated_low_at_hi(dim, degree)


# -- float evaluation ------------------------------------------------------------------


def _points(dim, seed):
    """Grundmann-Moller points of a few degrees and random barycentric points."""
    rng = np.random.default_rng(seed)
    rand = rng.random((7, dim + 1))
    return [simplex_quadrature(dim, q)[0] for q in (1, 4, 8)] + [rand / rand.sum(axis=1, keepdims=True)]


@pytest.mark.parametrize("dim,degree", PAIRS + [(2, 0), (3, 0)])
def test_lagrange_values_match_replaced_evaluator(dim, degree):
    ref = reference_element(dim, degree)
    for bary in _points(dim, degree):
        assert np.array_equal(basis_values(dim, degree, bary), lagrange_values(ref, bary))
    for q in (2, 2 * degree + 2):
        cached = quadrature_basis(dim, degree, q)
        assert np.array_equal(cached, lagrange_values(ref, simplex_quadrature(dim, q)[0]))
        assert not cached.flags.writeable


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cr_values_match_replaced_evaluator(dim):
    for bary in _points(dim, dim):
        assert np.array_equal(basis_values(dim, "CR", bary), cr_values_at(bary, dim))
    assert np.array_equal(quadrature_basis(dim, "CR", 4), cr_values_at(simplex_quadrature(dim, 4)[0], dim))


@pytest.mark.parametrize("dim,degree", [(1, 3), (2, 2), (3, 3), (4, 2)])
def test_poly_values_match_replaced_evaluator(dim, degree):
    rng = np.random.default_rng(dim)
    for deg in range(degree + 1):
        poly = BarycentricPoly(
            dim, {m: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for m in multi_indices(dim, deg)}
        )
        for bary in _points(dim, deg):
            assert np.array_equal(poly.values(bary), poly_values(poly, bary))
    empty = BarycentricPoly(dim)
    assert np.array_equal(empty.values(_points(dim, 0)[0]), np.zeros(len(_points(dim, 0)[0])))


@pytest.mark.parametrize("dim,degree", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_partials_match_replaced_gradient(dim, degree):
    ref = reference_element(dim, degree)
    rng = np.random.default_rng(degree)
    grads = rng.standard_normal((dim + 1, dim))
    grads[0] = -grads[1:].sum(axis=0)
    for bary in _points(dim, degree):
        loc = rng.standard_normal(len(ref.monos))
        got = (basis_values(dim, degree, bary, partials=True) @ loc) @ grads
        want = gradient_values(ref, loc, bary, grads)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    # sum_a N_a is (sum_j lambda_j)^K in the degree-K monomials: every partial is K
    assert np.abs(basis_values(dim, degree, bary, partials=True).sum(axis=2) - degree).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_cr_partials(dim):
    bary = _points(dim, 0)[-1]
    partials = basis_values(dim, "CR", bary, partials=True)
    assert partials.shape == (len(bary), dim + 1, dim + 1)
    assert np.array_equal(partials[3], -dim * np.eye(dim + 1))
