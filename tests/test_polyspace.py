from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_algebra import (
    cr_basis_poly,
    decomposition_apply,
    decomposition_reconstruction_error,
    dim_orthogonal_layer,
    evaluate,
    global_decomposition,
    homogenize,
    integrate_monomial,
    monomial,
    mul_lambda,
    node_coords,
    operator_s_matrix,
    poly_add,
    poly_from_nodal,
    poly_sub,
    s_eigenvalues,
    verify_s_consistency,
)
from fraction_geometry import barycentric_coordinates, coord
from gradedproj.mesh import kuhn_initial_mesh
from gradedproj.polyspace import (
    BarycentricPoly,
    CRSpace,
    LagrangeSpace,
    PolySpaceError,
    cr_local_mass,
    mono_mean,
    multi_indices,
    nodal_mass_table,
    reference_element,
    simplex_quadrature,
)

def test_integration_formula_values():
    assert integrate_monomial((0, 0, 0), Fraction(1)) == 1
    assert integrate_monomial((1, 1, 0), Fraction(1)) == Fraction(1, 12)
    assert integrate_monomial((2, 0, 0, 0), Fraction(1)) == Fraction(1, 10)
    with pytest.raises(PolySpaceError):
        integrate_monomial((-1, 0), Fraction(1))


def test_quadrature_exact_on_monomials():
    # independent oracle for the integration formula (and vice versa)
    for d in (1, 2, 3, 4):
        for degree in range(0, 8):
            pts, wts = simplex_quadrature(d, degree)
            assert abs(wts.sum() - 1.0) < 1e-14
            for sigma in multi_indices(d, degree):
                vals = np.ones(len(pts))
                for j, e in enumerate(sigma):
                    if e:
                        vals *= pts[:, j] ** e
                approx = float(wts @ vals)
                exact = float(mono_mean(sigma))
                assert abs(approx - exact) < 1e-13, (d, degree, sigma)


def test_quadrature_oracle_for_specific_monomial():
    pts, wts = simplex_quadrature(3, 2)
    vals = pts[:, 0] ** 2
    assert abs(float(wts @ vals) - 0.1) < 1e-6  # mean of lambda_0^2 on a tetrahedron


def test_poly_arithmetic_and_partition_of_unity():
    d = 2
    one = poly_add(*(monomial(tuple(int(i == j) for i in range(d + 1))) for j in range(d + 1)))
    sq = one * one
    assert homogenize(sq, 2).coeffs == homogenize(one, 2).coeffs
    assert one.integral(Fraction(1)) == 1
    assert evaluate(one, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))) == 1


def test_decomposition_examples():
    # top-degree shift rule
    out = decomposition_apply(0, monomial((1, 1, 0)), 2)
    assert out.coeffs == {(0, 1, 0): Fraction(1, 2)}
    # vanishing when the exponent is zero
    out = decomposition_apply(0, monomial((0, 2, 0)), 2)
    assert out.coeffs == {}
    # lower-order rule
    out = decomposition_apply(0, monomial((1, 0, 0)), 2)
    assert out.coeffs == {(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)}
    with pytest.raises(PolySpaceError):
        decomposition_apply(0, monomial((3, 0, 0)), 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 3]),
    degree=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 10_000),
)
def test_local_decomposition_identity(dim, degree, seed):
    rng = np.random.default_rng(seed)
    monos = multi_indices(dim, degree)
    poly = BarycentricPoly(
        dim, {m: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for m in monos}
    )
    total = poly_add(*(mul_lambda(decomposition_apply(j, poly, degree), j) for j in range(dim + 1)))
    assert poly_sub(total, poly).coeffs == {}


def test_trace_locality():
    # if v vanishes on a face S containing vertex j, so does D_j v on S
    d, K = 2, 3
    ref = reference_element(d, K)
    rng = np.random.default_rng(3)
    # face S = {lambda_2 = 0}; vertices 0 and 1 lie on S
    values = [
        0 if alpha[2] == 0 else Fraction(int(rng.integers(-5, 6)))
        for alpha in ref.monos
    ]
    poly = poly_from_nodal(ref, values)
    low = reference_element(d, K - 1)
    for j in (0, 1):
        image = decomposition_apply(j, poly, K)
        for node, alpha in zip(low.node_coords, low.monos):
            if alpha[2] == 0:  # node on S
                assert evaluate(image, node) == 0


def test_energy_bound_and_sharpness():
    # sum_j int lambda_j |D_j v|^2 <= (2K+d)/K * ||v||^2, sharp on the top layer
    for d, K in ((1, 2), (2, 1), (2, 2), (3, 2)):
        monos = multi_indices(d, K)
        rng = np.random.default_rng(d * 10 + K)
        vol = Fraction(1)
        bound = Fraction(2 * K + d, K)
        for _ in range(5):
            poly = BarycentricPoly(
                d, {m: Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 3))) for m in monos}
            )
            energy = Fraction(0)
            for j in range(d + 1):
                dj = decomposition_apply(j, poly, K)
                energy += (mul_lambda(dj, j) * dj).integral(vol)
            norm2 = (poly * poly).integral(vol)
            assert energy <= bound * norm2
        # sharpness via the top eigenvalue of the spectral operator
        got = s_eigenvalues(K, d)
        assert abs(got.max() - float(bound)) < 1e-9


def test_s_matrix_spectrum_small_cases():
    got = np.sort(s_eigenvalues(1, 1))
    assert np.allclose(got, [1.0, 3.0], atol=1e-12)
    got = np.sort(s_eigenvalues(2, 2))
    want = [1.0, 1.75, 1.75, 3.0, 3.0, 3.0]
    assert np.allclose(got, want, atol=1e-12)
    assert dim_orthogonal_layer(0, 2) == 1
    assert dim_orthogonal_layer(1, 2) == 2
    assert dim_orthogonal_layer(2, 2) == 3


def test_s_matrix_form_is_symmetric():
    for d, K in ((1, 1), (2, 2), (3, 3)):
        _, b = operator_s_matrix(K, d)
        n = len(b)
        for i in range(n):
            for j in range(n):
                assert b[i][j] == b[j][i]


def test_s_consistency_exact():
    for d in (1, 2, 3):
        for K in (1, 2, 3, 4):
            rep = verify_s_consistency(K, d, trials=9, seed=K * 10 + d)
            assert rep["mismatches"] == []
            assert rep["asymmetries"] == []


def test_cr_local_mass_values():
    m2 = cr_local_mass(2)
    assert m2 == [
        [Fraction(1, 3), 0, 0],
        [0, Fraction(1, 3), 0],
        [0, 0, Fraction(1, 3)],
    ]
    m3 = cr_local_mass(3)
    assert m3[0][0] == Fraction(2, 5)
    assert m3[0][1] == Fraction(-1, 20)
    with pytest.raises(PolySpaceError):
        cr_local_mass(1)


def test_cr_local_mass_against_direct_integration():
    for d in (2, 3, 4):
        table = cr_local_mass(d)
        for j in range(d + 1):
            for l in range(d + 1):
                pj = cr_basis_poly(d, j)
                pl = cr_basis_poly(d, l)
                assert (pj * pl).integral(Fraction(1)) == table[j][l]


def test_lagrange_p1_mass_1d():
    assert nodal_mass_table(1, 1) == ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3)))


def test_mass_matrices_spd(mesh2d):
    import scipy.linalg

    for space in (LagrangeSpace(mesh2d, 1), LagrangeSpace(mesh2d, 2), CRSpace(mesh2d)):
        m = space.mass_matrix().toarray()
        assert np.allclose(m, m.T)
        scipy.linalg.cholesky(m)  # raises if not SPD


def test_lagrange_dof_sharing():
    # continuity: total dof count matches Euler-style counts on a refined square
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(2)
    p1 = LagrangeSpace(m, 1)
    assert p1.n_dofs == len(m.points)
    p2 = LagrangeSpace(m, 2)
    # P2 dofs: vertices + edge midpoints
    edges = set()
    for sid in m.active_ids():
        verts = m.simplices[sid].vertices
        for a in range(3):
            for b in range(a + 1, 3):
                edges.add(frozenset((verts[a], verts[b])))
    assert p2.n_dofs == len(m.points) + len(edges)


def test_zero_trace_removes_boundary_dofs():
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(4)  # 4 sweeps: vertices on a (2^2+1)^2 grid
    full = LagrangeSpace(m, 1)
    zero = LagrangeSpace(m, 1, zero_trace=True)
    boundary_nodes = sum(
        1 for c in node_coords(full) if any(x == 0 or x == 1 for x in c)
    )
    assert zero.n_dofs == full.n_dofs - boundary_nodes


def test_cr_space_dof_count(mesh2d):
    cr = CRSpace(mesh2d)
    faces = set()
    for sid in mesh2d.active_ids():
        verts = mesh2d.simplices[sid].vertices
        for drop in verts:
            faces.add(frozenset(v for v in verts if v != drop))
    assert cr.n_dofs == len(faces)
    with pytest.raises(PolySpaceError):
        CRSpace(kuhn_initial_mesh(1, 2))


def test_global_decomposition_reconstructs(mesh2d):
    space = LagrangeSpace(mesh2d, 3)
    rng = np.random.default_rng(8)
    coeffs = [Fraction(int(x)) for x in rng.integers(-9, 10, space.n_dofs)]
    pieces = global_decomposition(space, coeffs)
    assert decomposition_reconstruction_error(space, coeffs, pieces) == 0


def test_global_decomposition_constant():
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(1)
    space = LagrangeSpace(m, 2)
    coeffs = [Fraction(1)] * space.n_dofs
    pieces = global_decomposition(space, coeffs)
    assert decomposition_reconstruction_error(space, coeffs, pieces) == 0


def test_global_decomposition_continuity_on_patches(mesh2d):
    # D_i v agrees across shared faces inside the patch around i
    space = LagrangeSpace(mesh2d, 2)
    rng = np.random.default_rng(5)
    coeffs = [Fraction(int(x)) for x in rng.integers(-9, 10, space.n_dofs)]
    pieces = global_decomposition(space, coeffs)
    mesh = mesh2d
    low = reference_element(2, 1)
    checked = 0
    for vertex, by_elem in pieces.items():
        elems = sorted(by_elem)
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                sa, sb = elems[a], elems[b]
                va, vb = mesh.simplices[sa].vertices, mesh.simplices[sb].vertices
                shared = sorted(set(va) & set(vb))
                if len(shared) != 2:
                    continue
                # evaluate both local polynomials at the shared edge midpoint
                mid = tuple((coord(mesh, shared[0])[i] + coord(mesh, shared[1])[i]) / 2 for i in range(2))
                bary_a = barycentric_coordinates(mesh, va, mid)
                bary_b = barycentric_coordinates(mesh, vb, mid)
                assert evaluate(by_elem[sa], bary_a) == evaluate(by_elem[sb], bary_b)
                checked += 1
        if checked > 20:
            break
    assert checked > 0


def test_zero_trace_preserved_by_decomposition():
    # v with zero trace: every phi_i * D_i v keeps zero boundary values
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(2)
    space = LagrangeSpace(m, 2)
    rng = np.random.default_rng(4)
    coeffs = []
    for c in node_coords(space):
        on_boundary = any(x == 0 or x == 1 for x in c)
        coeffs.append(Fraction(0) if on_boundary else Fraction(int(rng.integers(-5, 6))))
    pieces = global_decomposition(space, coeffs)
    mesh = m
    for vertex, by_elem in pieces.items():
        for sid, poly in by_elem.items():
            verts = mesh.simplices[sid].vertices
            j = verts.index(vertex) if vertex in verts else None
            term = mul_lambda(poly, j)
            # check at boundary Lagrange nodes of this element
            for alpha, node in zip(space.ref.monos, space.ref.node_coords):
                point = tuple(
                    sum(Fraction(node[k]) * coord(mesh, verts[k])[i] for k in range(3))
                    for i in range(2)
                )
                if any(x == 0 or x == 1 for x in point):
                    assert evaluate(term, node) == 0
