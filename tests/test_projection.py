import json
import math
from fractions import Fraction

import numpy as np
import pytest

from exact_algebra import evaluate, frac_mat_mul, monomial, node_coords, nodal_poly, poly_from_nodal, poly_sub, substitute
from fraction_geometry import barycentric_coordinates, coord, frac_mat_inv
from gradedproj.mesh import closure_benchmark, element_distance, kuhn_initial_mesh
from gradedproj.polyspace import BarycentricPoly, CRSpace, LagrangeSpace, nodal_mass_table
import gradedproj.projection as projection
from gradedproj.cli import main
from gradedproj.projection import (
    ElementwisePoly,
    Operators,
    ProjectionError,
    TwoMeshLink,
    accelerated_iterate,
    cr_q_bound,
    measure_decay,
    one_blas_thread,
    q_new,
    weighted_mass,
    weighted_stiffness,
    _random_poly,
)
from conftest import randomly_refined
from oracles import basic_iterate, chebyshev_error_bound, cholesky_mass_solve, dense_certificate, masked_projection_norm, reference_simplex_mesh


def test_q_new_values():
    assert abs(q_new(2, 1) - 1 / 3) < 1e-15
    assert abs(q_new(3, 2) - 0.3033) < 5e-5
    assert abs(q_new(1, math.inf) - 0.1716) < 5e-5
    with pytest.raises(ProjectionError):
        q_new(0, 1)


@pytest.fixture(scope="module")
def ops2d(mesh2d):
    return Operators(LagrangeSpace(mesh2d, 2))


def _as_elementwise_poly(space, coeffs):
    """The function of the space with the given (exact) coefficients, one
    polynomial per element."""
    return ElementwisePoly(space.mesh, {
        sid: poly_from_nodal(space.ref, [Fraction(coeffs[g]) if g >= 0 else 0 for g in space.cell_dofs(sid)])
        for sid in space.element_ids
    })


def test_projection_identity_on_space(ops2d):
    rng = np.random.default_rng(0)
    coeffs = rng.integers(-9, 10, ops2d.space.n_dofs) / 4
    x = ops2d.project(_as_elementwise_poly(ops2d.space, coeffs))
    assert np.max(np.abs(x - coeffs)) < 1e-12


def test_projection_contraction(ops2d):
    mesh = ops2d.mesh
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = _random_poly(mesh, mesh.active_ids(), 3, rng)
        x = ops2d.project(u)
        proj_norm = math.sqrt(max(x @ (ops2d.mass @ x), 0.0))
        assert proj_norm <= u.norm2() * (1 + 1e-12)


def test_projection_annihilates_orthogonal_part(ops2d):
    # Gram-Schmidt: u_perp = u - Qu has zero projection
    mesh = ops2d.mesh
    space = ops2d.space
    u = _random_poly(mesh, mesh.active_ids(), 3, np.random.default_rng(2))
    x = ops2d.project(u)
    ref = space.ref
    perp = {}
    for sid in mesh.active_ids():
        dofs = space.cell_dofs(sid)
        local = poly_from_nodal(ref, [Fraction(x[g]).limit_denominator(10**12) if g >= 0 else 0 for g in dofs])
        perp[sid] = poly_sub(u.polys[sid], local)
    u_perp = ElementwisePoly(mesh, perp)
    y = ops2d.project(u_perp)
    norm_y = math.sqrt(max(y @ (ops2d.mass @ y), 0.0))
    assert norm_y <= 1e-10 * max(u_perp.norm2(), 1e-30)


def test_c_identity_on_lower_degree(ops2d):
    # nodal interpolation of a degree-(K-1) polynomial is reproduced by C
    vals = np.array([float(c[0] ** 1 + 2 * c[1]) for c in node_coords(ops2d.space)])
    cu = ops2d.apply_C_coeffs(vals)
    assert np.max(np.abs(cu - vals)) < 1e-12


def test_c_self_adjoint_and_two_sided_identity(ops2d):
    b = ops2d.form_matrix.toarray()
    scale = np.abs(b).max()
    assert np.abs(b - b.T).max() <= 1e-12 * scale
    # C = CQ: applying C to u equals applying it to the projection of u
    u = _random_poly(ops2d.mesh, ops2d.mesh.active_ids(), 3, np.random.default_rng(3))
    direct = ops2d.apply_C(u)
    via_q = ops2d.apply_C_coeffs(ops2d.project(u))
    assert np.max(np.abs(direct - via_q)) <= 1e-12 * max(np.abs(direct).max(), 1.0)


def test_c_energy_inequality(ops2d):
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(ops2d.space.n_dofs)
        num = v @ (ops2d.form_matrix @ v)
        den = v @ (ops2d.mass @ v)
        assert num <= den * (1 + 1e-12)


def test_c_minus_identity_orthogonal_to_lower(ops2d):
    # <u - Cu, v> = 0 for all v of degree K-1 (embedded in the K space)
    space = ops2d.space
    mesh = ops2d.mesh
    u = _random_poly(mesh, mesh.active_ids(), 2, np.random.default_rng(5))
    cu = ops2d.apply_C(u)
    rhs_u = ops2d.rhs(u)
    low_vals = np.array([float(1 - 3 * c[0] + 2 * c[1]) for c in node_coords(space)])
    lhs = rhs_u @ low_vals - cu @ (ops2d.mass @ low_vals)
    assert abs(lhs) < 1e-11 * max(1.0, abs(rhs_u @ low_vals))


def test_c_support_one_layer(ops2d):
    mesh = ops2d.mesh
    dist = element_distance(mesh, "vertex")
    src = dist.ids[len(dist.ids) // 2]
    u = _random_poly(mesh, [src], 2, np.random.default_rng(6))
    cu = ops2d.apply_C(u)
    shells = dist.from_source(src)
    for i, sid in enumerate(dist.ids):
        dofs = [g for g in ops2d.space.cell_dofs(sid) if g >= 0]
        if shells[i] > 1:
            assert np.max(np.abs(cu[dofs])) == 0.0


def _exact_operator_matrices(space):
    """Independent oracle: assemble the form and apply matrices of the patch
    operator in exact rational arithmetic, end to end."""
    from gradedproj.polyspace import lambda_nodal_product_table, reference_element

    mesh, K, d = space.mesh, space.degree, space.mesh.dim
    low = reference_element(d, K - 1)
    t_gram = lambda_nodal_product_table(d, K - 1, K - 1)
    t_cross = lambda_nodal_product_table(d, K - 1, K)
    hi = space.ref
    n = space.n_dofs
    form = [[Fraction(0)] * n for _ in range(n)]
    apply_m = [[Fraction(0)] * n for _ in range(n)]
    members = {}
    for sid in space.element_ids:
        for local_j, v in enumerate(mesh.simplices[sid].vertices):
            members.setdefault(v, []).append((sid, local_j))
    eval_low = [[evaluate(nodal_poly(low, a), node) for a in range(len(low.monos))] for node in hi.node_coords]
    for vertex in sorted(members):
        patch = members[vertex]
        dof_index = {}
        rows = []
        for sid, local_j in patch:
            verts = mesh.simplices[sid].vertices
            vcoords = [coord(mesh, v) for v in verts]
            ids = []
            for node in low.node_coords:
                key = "const" if K == 1 else tuple(
                    sum(node[j] * vcoords[j][i] for j in range(d + 1)) for i in range(d)
                )
                ids.append(dof_index.setdefault(key, len(dof_index)))
            rows.append((sid, local_j, ids, space.cell_dofs(sid)))
        m = len(dof_index)
        gmat = [[Fraction(0)] * m for _ in range(m)]
        rmat = [[Fraction(0)] * n for _ in range(m)]
        wmat = [[Fraction(0)] * m for _ in range(n)]
        for sid, local_j, ids, gdofs in rows:
            vol = mesh.volume(sid)
            for a, pa in enumerate(ids):
                for b, pb in enumerate(ids):
                    gmat[pa][pb] += vol * t_gram[local_j][a][b]
                for mloc, g in enumerate(gdofs):
                    rmat[pa][g] += vol * t_cross[local_j][a][mloc]
            for mloc, g in enumerate(gdofs):
                lam = hi.node_coords[mloc][local_j]
                for a, pa in enumerate(ids):
                    wmat[g][pa] = lam * eval_low[mloc][a]
        ginv = frac_mat_inv(gmat)
        ginv_r = frac_mat_mul(ginv, rmat)
        bt = frac_mat_mul([list(col) for col in zip(*rmat)], ginv_r)
        wt = frac_mat_mul(wmat, ginv_r)
        for i in range(n):
            for j in range(n):
                form[i][j] += bt[i][j]
                apply_m[i][j] += wt[i][j]
    return form, apply_m


def test_operator_assembly_matches_exact_oracle():
    # float patch assembly against the all-Fractions construction
    mesh = kuhn_initial_mesh(2, 1)
    mesh.refine_closure([mesh.active_ids()[0]])
    for K in (1, 2):
        space = LagrangeSpace(mesh, K)
        ops = Operators(space)
        form_x, apply_x = _exact_operator_matrices(space)
        b = ops.form_matrix.toarray()
        a = (ops.patch_matrix @ ops.mass).toarray()
        n = space.n_dofs
        dev_b = max(abs(b[i, j] - float(form_x[i][j])) for i in range(n) for j in range(n))
        dev_a = max(abs(a[i, j] - float(apply_x[i][j])) for i in range(n) for j in range(n))
        assert dev_b < 1e-14 and dev_a < 1e-14, (K, dev_b, dev_a)
        # the exact matrices themselves satisfy B = M A exactly
        mass_x = [[Fraction(0)] * n for _ in range(n)]
        local_mass = nodal_mass_table(mesh.dim, K)
        for sid in space.element_ids:
            dofs = space.cell_dofs(sid)
            vol = mesh.volume(sid)
            for i_loc, gi in enumerate(dofs):
                for j_loc, gj in enumerate(dofs):
                    mass_x[gi][gj] += vol * local_mass[i_loc][j_loc]
        ma = frac_mat_mul(mass_x, apply_x)
        assert all(ma[i][j] == form_x[i][j] for i in range(n) for j in range(n))


def test_decay_dimension_one():
    mesh = kuhn_initial_mesh(1, 4)
    mesh.refine_closure(mesh.active_ids()[:2])
    ops = Operators(LagrangeSpace(mesh, 2))
    dist = element_distance(mesh, "vertex")
    src = [dist.ids[0]]
    shells = dist.from_source(src[0])
    target = int(shells.max())
    members = [dist.ids[i] for i in range(dist.n) if shells[i] == target]
    r = measure_decay(ops, dist, members, src, trials=2, seed=0)
    assert r.exact_norm <= r.bound + 1e-12


def test_certificates_on_single_simplices():
    for d in (1, 2, 3):
        for K in (1, 2):
            ops = Operators(LagrangeSpace(reference_simplex_mesh(d), K))
            cert = ops.certify()
            assert abs(cert.lambda_max - 1.0) < 1e-9
            assert abs(cert.lambda_min - K / (2 * K + d)) < 1e-9
            assert cert.residual < 1e-9
            assert 0 <= cert.q < 1


def test_certificate_dimension_four():
    # the bounds are dimension-generic; spot check d=4
    cert = Operators(LagrangeSpace(reference_simplex_mesh(4), 1)).certify()
    assert abs(cert.lambda_min - 1 / 6) < 1e-9 and abs(cert.lambda_max - 1) < 1e-9
    mesh = kuhn_initial_mesh(4, 1)
    ops = Operators(LagrangeSpace(mesh, 1))
    cert = ops.certify()
    assert cert.kappa <= 6.0 + 1e-8
    cr = Operators(CRSpace(mesh)).certify()
    assert cr.kappa <= 16.0 / 6.0 + 1e-8  # d^2/(d+2) at d=4


def test_certificate_bound_on_meshes(mesh2d, mesh3d):
    # the two end eigenpairs agree with the dense eigh of all eigenvectors
    for mesh, K in ((mesh2d, 1), (mesh2d, 2), (mesh3d, 1)):
        ops = Operators(LagrangeSpace(mesh, K))
        cert = ops.certify()
        assert cert.kappa <= cert.bound_kappa + 1e-8
        assert cert.lambda_max <= 1 + 1e-9
        lam_min, lam_max, _ = dense_certificate(ops)
        assert abs(cert.lambda_min - lam_min) <= 1e-13 * lam_min and abs(cert.lambda_max - lam_max) <= 1e-13 * lam_max
        assert cert.residual <= 1e-12


def test_certificate_zero_trace(mesh2d):
    ops = Operators(LagrangeSpace(mesh2d, 2, zero_trace=True))
    cert = ops.certify()
    assert cert.kappa <= cert.bound_kappa + 1e-8
    assert cert.space.endswith("zero_trace")


def test_zero_trace_form_apply_consistency(mesh2d):
    # the form matrix and the patch matrix describe one operator: B = M P M
    # (regression: a trace-banned patch node must be banned patch-wide)
    for degree in (1, 2):
        ops = Operators(LagrangeSpace(mesh2d, degree, zero_trace=True))
        b = ops.form_matrix.toarray()
        ma = ops.mass.toarray() @ (ops.patch_matrix @ ops.mass).toarray()
        assert np.abs(b - ma).max() < 1e-13


def test_zero_trace_partial_boundary_identity():
    # Gamma = {x = 0} only; v = x is degree K-1 with zero trace, so C_Gamma v = v
    mesh = kuhn_initial_mesh(2, 1)
    mesh.refine_uniform(3)
    mesh.gamma_faces = {
        face
        for face in mesh.gamma_faces
        if all(mesh.points[v][0] == 0 for v in face)
    }
    space = LagrangeSpace(mesh, 2, zero_trace=True)
    assert space.n_dofs > 0
    ops = Operators(space)
    vals = np.array([float(c[0]) for c in node_coords(space)])
    cu = ops.apply_C_coeffs(vals)
    assert np.max(np.abs(cu - vals)) < 1e-12
    cert = ops.certify()
    assert cert.kappa <= cert.bound_kappa + 1e-8


def test_certificate_json(ops2d):
    d = ops2d.certify().to_json_dict({"elements": ops2d.mesh.n_active})
    for key in ("d", "K", "mesh", "lambda_min", "lambda_max", "kappa", "q", "bound_kappa", "residual"):
        assert key in d
    assert d["K"] == 2 and d["d"] == 2


def test_chebyshev_zero_iterations(ops2d):
    u = _random_poly(ops2d.mesh, ops2d.mesh.active_ids(), 2, np.random.default_rng(7))
    assert np.all(accelerated_iterate(ops2d, u, 0) == 0.0)


def test_chebyshev_error_bound(ops2d):
    q = ops2d.q_bound()
    u = _random_poly(ops2d.mesh, ops2d.mesh.active_ids(), 3, np.random.default_rng(8))
    qu = ops2d.project(u)
    qu_norm = math.sqrt(qu @ (ops2d.mass @ qu))
    for nu in range(1, 16):
        x = accelerated_iterate(ops2d, u, nu)
        err = math.sqrt(max((x - qu) @ (ops2d.mass @ (x - qu)), 0.0)) / qu_norm
        assert err <= chebyshev_error_bound(q, nu) + 1e-12, nu


def test_chebyshev_support_growth(ops2d):
    mesh = ops2d.mesh
    dist = element_distance(mesh, "vertex")
    src = dist.ids[0]
    u = _random_poly(mesh, [src], 2, np.random.default_rng(9))
    shells = dist.from_source(src)
    for nu in (1, 2, 4):
        x = accelerated_iterate(ops2d, u, nu)
        for i, sid in enumerate(dist.ids):
            if shells[i] > nu:
                dofs = [g for g in ops2d.space.cell_dofs(sid) if g >= 0]
                assert np.max(np.abs(x[dofs])) == 0.0


def test_basic_iterate_exact_on_lower_degree(ops2d):
    # the first basic step already reproduces functions C leaves fixed
    vals = np.array([float(1 - c[0] + 3 * c[1]) for c in node_coords(ops2d.space)])
    u1 = basic_iterate(ops2d, vals, 1)
    assert np.max(np.abs(u1 - vals)) < 1e-12
    assert np.all(basic_iterate(ops2d, vals, 0) == 0.0)


def test_basic_iterate_contracts(ops2d):
    u = _random_poly(ops2d.mesh, ops2d.mesh.active_ids(), 3, np.random.default_rng(12))
    qu = ops2d.project(u)
    qu_norm = math.sqrt(qu @ (ops2d.mass @ qu))
    lam_min, _ = ops2d.chebyshev_interval()
    prev = None
    for nu in (2, 4, 8):
        x = basic_iterate(ops2d, u, nu)
        err = math.sqrt(max((x - qu) @ (ops2d.mass @ (x - qu)), 0.0)) / qu_norm
        assert err <= (1 - lam_min) ** nu + 1e-12
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err


def test_decay_corner_example():
    # uniformly refined square, source at the corner, mask five layers out
    mesh = kuhn_initial_mesh(2, 1)
    mesh.refine_uniform(6)
    ops = Operators(LagrangeSpace(mesh, 1))
    dist = element_distance(mesh, "vertex")
    origin = mesh.points.index((0, 0))
    corner = [s for s in mesh.active_ids() if origin in mesh.simplices[s].vertices]
    src = [corner[0]]
    shells = dist.from_source(src[0])
    members = [dist.ids[i] for i in range(dist.n) if shells[i] == 5]
    assert members
    r = measure_decay(ops, dist, members, src, trials=2, seed=5)
    assert r.bound == pytest.approx(2 * (1 / 3) ** 4)
    assert r.exact_norm <= r.bound + 1e-12


def test_decay_bound_and_sampling(ops2d):
    dist = element_distance(ops2d.mesh, "vertex")
    src = [dist.ids[0]]
    shells = dist.from_source(src[0])
    for target in (1, 2, 4):
        members = [dist.ids[i] for i in range(dist.n) if shells[i] == target]
        if not members:
            continue
        r = measure_decay(ops2d, dist, members, src, trials=3, seed=target)
        assert r.delta == target
        assert r.exact_norm <= r.bound + 1e-9
        assert r.sampled <= r.exact_norm + 1e-9
    # delta = 1 has the trivial bound 1
    members = [dist.ids[i] for i in range(dist.n) if shells[i] == 1]
    r = measure_decay(ops2d, dist, members, src, trials=2, seed=0)
    assert r.bound == 1.0
    # L = L' is a contraction
    r = measure_decay(ops2d, dist, src, src, trials=2, seed=0)
    assert r.exact_norm <= 1.0 + 1e-9


def test_masked_norm_against_dense_oracle():
    # brute-force oracle: norm of the full masked matrix on a tiny mesh
    mesh = randomly_refined(2, 2, seed=3)
    ops = Operators(LagrangeSpace(mesh, 1))
    dist = element_distance(mesh, "vertex")
    left = dist.ids[: dist.n // 3]
    right = dist.ids[2 * dist.n // 3 :]
    fast = masked_projection_norm(ops, left, right)
    m = ops.mass.toarray()
    m_l = ops.space.element_mass(left).toarray()
    m_r = ops.space.element_mass(right).toarray()
    minv = np.linalg.inv(m)
    full = minv @ m_l @ minv
    w = np.linalg.eigvals(m_r @ full)
    dense = math.sqrt(max(w.real.max(), 0.0))
    assert abs(fast - dense) < 1e-10


def test_decay_source_blocks_are_shared_and_keyed_by_the_set(mesh2d, monkeypatch):
    # the source block (the solve Z = M^-1 E_S and H = M_R^1/2) depends only
    # on the operators and the source set: shells measured in turn around two
    # source sets on one Operators give the bits of a fresh Operators each
    # time, an unsorted list of the same set finds the same block, and the
    # one Operators solves once per set, never per shell
    space = LagrangeSpace(mesh2d, 2)
    ops = Operators(space)
    solves = []
    solve_mass = ops.solve_mass
    monkeypatch.setattr(ops, "solve_mass", lambda rhs: solves.append(rhs.shape) or solve_mass(rhs))
    dist = element_distance(mesh2d, "vertex")
    sources = ([dist.ids[0], dist.ids[1]], [dist.ids[-1]])
    shells = [dist.from_source(src[0]) for src in sources]
    for delta in (2, 3, 1):
        for src, shell in zip(sources, shells):
            members = [dist.ids[i] for i in range(dist.n) if shell[i] == delta]
            assert members
            got = measure_decay(ops, dist, members, src, trials=1, seed=delta)
            assert got == measure_decay(Operators(space), dist, members, src, trials=1, seed=delta)
    block = ops.source_block(sources[0])
    assert ops.source_block(sources[0][::-1]) is block
    assert len(ops._source_blocks) == 2
    assert solves == [(space.n_dofs, len(ops.source_block(src).dofs)) for src in sources]


@pytest.mark.parametrize("kind", ["P2", "CR"])
def test_form_matrix_is_built_only_when_read(mesh2d, kind, monkeypatch):
    # P is read by apply_C, the iterate and certify (through B = M P M, which
    # certify alone reads): assembly, projection, decay and the weighted
    # ratio build neither; each reader builds P once and keeps it
    from gradedproj.stability import Weight, measure_weighted_stability

    builds = []
    assemble = "_assemble_cr" if kind == "CR" else "_assemble_patches"
    build = getattr(Operators, assemble)
    monkeypatch.setattr(Operators, assemble, lambda self: builds.append(self) or build(self))
    space = CRSpace(mesh2d) if kind == "CR" else LagrangeSpace(mesh2d, 2)
    dist = element_distance(mesh2d, "vertex")
    u = _random_poly(mesh2d, dist.ids[::2], 2, np.random.default_rng(0))
    weight = Weight({sid: 1.0 + sid % 3 for sid in dist.ids}, dist)
    for reader in (lambda ops: ops.apply_C(u), lambda ops: accelerated_iterate(ops, u, 2), Operators.certify):
        ops = Operators(space)
        ops.project(u)
        measure_decay(ops, dist, dist.ids[-3:], dist.ids[:2], trials=1)
        measure_weighted_stability(ops, weight, p=2.0, kind="Lp")
        measure_weighted_stability(ops, weight, p=3.0, kind="W1p", samples=2)
        assert not {"patch_matrix", "form_matrix"} & vars(ops).keys()
        reader(ops)
        assert ("form_matrix" in vars(ops)) == (reader is Operators.certify)
        kept = vars(ops)["patch_matrix"]
        ops.apply_C(u)
        accelerated_iterate(ops, u, 2)
        ops.certify()
        assert ops.patch_matrix is kept and vars(ops)["form_matrix"] is ops.form_matrix
        assert builds.count(ops) == 1


def test_two_mesh_mixed_mass_against_exact_fractions():
    # independent oracle: exact barycentric substitution in rational arithmetic
    coarse = kuhn_initial_mesh(2, 1)
    fine = coarse.copy()
    fine.refine_uniform(1)
    cs = LagrangeSpace(coarse, 1)
    fs = LagrangeSpace(fine, 1)
    link = TwoMeshLink(cs, fs)
    mixed = link.mixed_mass.toarray()

    exact = np.zeros_like(mixed)
    for fsid in fs.element_ids:
        csid = link.ancestors[fsid]
        cverts = coarse.simplices[csid].vertices
        fverts = fine.simplices[fsid].vertices
        # coarse barycentric coordinates of the fine vertices, exactly
        forms = []
        for j in range(3):
            row = []
            for l in range(3):
                bary = barycentric_coordinates(fine, cverts, coord(fine, fverts[l]))
                row.append(bary[j])
            forms.append(row)
        # coarse hat j on the fine element = sum_l forms[j][l] * lambda_l
        for j in range(3):
            cpoly = BarycentricPoly(
                2,
                {
                    tuple(int(i == l) for i in range(3)): forms[j][l]
                    for l in range(3)
                    if forms[j][l] != 0
                },
            )
            for l in range(3):
                fpoly = monomial(tuple(int(i == l) for i in range(3)))
                val = (cpoly * fpoly).integral(fine.volume(fsid))
                gi = cs.cell_dofs(csid)[j]
                gj = fs.cell_dofs(fsid)[l]
                exact[gi, gj] += float(val)
    assert np.max(np.abs(mixed - exact)) < 1e-14


def test_two_mesh_mixed_mass_quadratic_against_substitution():
    # exact-rational oracle for degree 2: substitute the coarse barycentric
    # forms into the coarse nodal basis and integrate symbolically
    from gradedproj.polyspace import reference_element

    coarse = kuhn_initial_mesh(2, 1)
    fine = coarse.copy()
    fine.refine_uniform(1)
    cs = LagrangeSpace(coarse, 2)
    fs = LagrangeSpace(fine, 2)
    link = TwoMeshLink(cs, fs)
    mixed = link.mixed_mass.toarray()
    ref = reference_element(2, 2)

    exact = np.zeros_like(mixed)
    for fsid in fs.element_ids:
        csid = link.ancestors[fsid]
        cverts = coarse.simplices[csid].vertices
        fverts = fine.simplices[fsid].vertices
        forms = []
        for j in range(3):
            coeffs = {}
            for l in range(3):
                bary = barycentric_coordinates(fine, cverts, coord(fine, fverts[l]))
                if bary[j] != 0:
                    coeffs[tuple(int(i == l) for i in range(3))] = bary[j]
            forms.append(BarycentricPoly(2, coeffs))
        vol = fine.volume(fsid)
        cdofs = cs.cell_dofs(csid)
        fdofs = fs.cell_dofs(fsid)
        for a in range(len(ref.monos)):
            cpoly = substitute(nodal_poly(ref, a), forms)
            for b in range(len(ref.monos)):
                val = (cpoly * nodal_poly(ref, b)).integral(vol)
                exact[cdofs[a], fdofs[b]] += float(val)
    assert np.max(np.abs(mixed - exact)) < 1e-14


def test_projection_of_fine_function(mesh2d):
    coarse = mesh2d
    fine = coarse.copy()
    fine.refine_uniform(1)
    cs = LagrangeSpace(coarse, 1)
    fs = LagrangeSpace(fine, 1)
    ops = Operators(cs)
    # a coarse function seen on the fine mesh projects back to itself
    rng = np.random.default_rng(10)
    xc = rng.standard_normal(cs.n_dofs)
    # interpolate on the fine nodes: coarse P1 is determined by vertex values
    coarse_vals = {c: v for c, v in zip(node_coords(cs), xc)}
    link = TwoMeshLink(cs, fs)
    xf = np.empty(fs.n_dofs)
    fine_nodes = node_coords(fs)
    for fsid in fs.element_ids:
        csid = link.ancestors[fsid]
        cverts = coarse.simplices[csid].vertices
        for local, g in enumerate(fs.cell_dofs(fsid)):
            node = fine_nodes[g]
            bary = barycentric_coordinates(fine, cverts, node)
            xf[g] = sum(float(bary[j]) * coarse_vals[coord(coarse, cverts[j])] for j in range(3))
    back = ops.solve_mass(link.mixed_mass @ xf)
    assert np.max(np.abs(back - xc)) < 1e-11


def test_iteration_on_refined_function(mesh2d):
    # a fine-mesh function feeds the iteration through C = CQ: its projection
    # from the mixed mass, then the iteration on those coefficients
    coarse = mesh2d
    fine = coarse.copy()
    fine.refine_uniform(1)
    cs = LagrangeSpace(coarse, 1)
    fs = LagrangeSpace(fine, 1)
    ops = Operators(cs)
    u = np.random.default_rng(21).standard_normal(fs.n_dofs)
    qu = ops.solve_mass(TwoMeshLink(cs, fs).mixed_mass @ u)
    qu_norm = math.sqrt(max(qu @ (ops.mass @ qu), 0.0))
    q = ops.q_bound()
    for nu in (1, 4, 8):
        x = accelerated_iterate(ops, qu, nu)
        err = math.sqrt(max((x - qu) @ (ops.mass @ (x - qu)), 0.0)) / qu_norm
        assert err <= chebyshev_error_bound(q, nu) + 1e-12


def test_cr_operators(mesh2d, mesh3d):
    # d=2: the face operator equals the projection exactly
    ops = Operators(CRSpace(mesh2d))
    u = _random_poly(mesh2d, mesh2d.active_ids(), 1, np.random.default_rng(11))
    assert np.max(np.abs(ops.apply_C(u) - ops.project(u))) < 1e-12
    cert = ops.certify()
    assert cert.kappa <= 1 + 1e-9
    # d=3: condition bounded by 9/5
    ops3 = Operators(CRSpace(mesh3d))
    cert3 = ops3.certify()
    assert cert3.kappa <= 9 / 5 + 1e-8
    assert cr_q_bound(3) == pytest.approx((math.sqrt(1.8) - 1) / (math.sqrt(1.8) + 1))


def test_cr_accelerated_iteration(mesh3d):
    # the spectral interval and error factor for the face operator
    ops = Operators(CRSpace(mesh3d))
    lo, hi = ops.chebyshev_interval()
    assert (lo, hi) == pytest.approx((5 / 8, 9 / 8))
    q = ops.q_bound()
    u = _random_poly(mesh3d, mesh3d.active_ids(), 2, np.random.default_rng(14))
    qu = ops.project(u)
    qu_norm = math.sqrt(qu @ (ops.mass @ qu))
    for nu in range(1, 13):
        x = accelerated_iterate(ops, u, nu)
        err = math.sqrt(max((x - qu) @ (ops.mass @ (x - qu)), 0.0)) / qu_norm
        assert err <= chebyshev_error_bound(q, nu) + 1e-12
    # one face layer of support growth per round
    dist = element_distance(mesh3d, "face")
    src = dist.ids[0]
    shells = dist.from_source(src)
    u = _random_poly(mesh3d, [src], 1, np.random.default_rng(15))
    for nu in (1, 3):
        x = accelerated_iterate(ops, u, nu)
        for i, sid in enumerate(dist.ids):
            if shells[i] > nu:
                assert np.max(np.abs(x[ops.space.cell_dofs(sid)])) == 0.0


def test_cr_decay(mesh3d):
    ops = Operators(CRSpace(mesh3d))
    dist = element_distance(mesh3d, "face")
    src = [dist.ids[0]]
    shells = dist.from_source(src[0])
    target = int(shells.max())
    members = [dist.ids[i] for i in range(dist.n) if shells[i] == target]
    r = measure_decay(ops, dist, members, src, trials=2, seed=1)
    assert r.exact_norm <= r.bound + 1e-9


def test_weighted_matrices(mesh2d):
    space = LagrangeSpace(mesh2d, 1)
    weights = {sid: 2.0 for sid in space.element_ids}
    mw = weighted_mass(space, weights)
    assert np.allclose(mw.toarray(), 2.0 * space.mass_matrix().toarray())
    kw = weighted_stiffness(space, weights)
    ones = np.ones(space.n_dofs)
    assert np.max(np.abs(kw @ ones)) < 1e-12  # constants in the kernel
    # linear function: int |grad u|^2 = 5 * area * weight for u = x + 2y
    lin = np.array([float(c[0] + 2 * c[1]) for c in node_coords(space)])
    assert lin @ (kw @ lin) == pytest.approx(2.0 * 5.0, rel=1e-12)


def _corner_graded_mesh(dim=2, rounds=20):
    # a Kuhn cell after corner rounds of BiSecLG(1); the 2D default has a
    # mass diagonal spanning 2^18, where unpreconditioned CG on M did not
    # converge
    mesh = kuhn_initial_mesh(dim, 1)
    closure_benchmark(mesh, "corner", rounds, alpha=1)
    return mesh


@pytest.mark.parametrize("kind", ["P2", "CR", "P1z", "P1-graded", "P2-graded-3d"])
def test_sparse_mass_path_matches_dense_cholesky(mesh2d, kind, monkeypatch):
    # the mass solves run one sparse LU of M (symmetric ordering, diagonal
    # pivots) at every size: on graded meshes too it agrees with the dense
    # Cholesky solve it replaced, for a vector and a block alike; certify
    # refuses past DENSE_SOLVE_LIMIT dofs, which a limit of 0 shows
    mesh = {"P1-graded": _corner_graded_mesh, "P2-graded-3d": lambda: _corner_graded_mesh(3, 8)}.get(kind, lambda: mesh2d)()
    space = CRSpace(mesh) if kind == "CR" else LagrangeSpace(mesh, int(kind[1]), zero_trace=kind == "P1z")
    ops = Operators(space)
    if kind == "P1-graded":
        assert space.n_dofs == 148
    if kind == "P2-graded-3d":
        volumes = space.geometry.volumes
        assert space.n_dofs == 581 and volumes.max() / volumes.min() == 16.0
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((space.n_dofs, 3))
    for b in (rhs[:, 0], rhs):
        want, got = cholesky_mass_solve(ops, b), ops.solve_mass(b)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    monkeypatch.setattr(projection, "DENSE_SOLVE_LIMIT", 0)
    with pytest.raises(ProjectionError, match=f"^certification limited to 0 dofs \\(dense eigensolve\\), not {space.n_dofs}$"):
        ops.certify()


def _with_volume(space, rows, value):
    """space with the float volume of the given element rows replaced."""
    volumes = space.geometry.volumes.copy()
    volumes[rows] = value
    space.geometry = space.geometry._replace(volumes=volumes)
    return space


@pytest.mark.parametrize("dim", [2, 3])
def test_singular_patch_system_names_its_vertex(dim):
    # P1: the patch Gram matrix of a vertex is the 1 x 1 sum of its member
    # volumes times a positive table entry, so zero volumes around one vertex
    # make exactly the patches whose members all lie there singular; the
    # first of them in vertex order is named
    mesh = randomly_refined(dim, 3, seed=dim)
    space = LagrangeSpace(mesh, 1)
    vertex = mesh.simplices[mesh.active_ids()[len(mesh.active_ids()) // 2]].vertices[0]
    rows = np.flatnonzero((space.vertices == vertex).any(axis=1))
    table = projection._vertex_patches(space)
    singular = [v for p, v in enumerate(table.vertices.tolist()) if np.isin(table.rows[table.patch == p], rows).all()]
    assert vertex in singular
    with pytest.raises(ProjectionError, match=f"^singular patch system at vertex {singular[0]}$"):
        Operators(_with_volume(space, rows, 0.0)).patch_matrix


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0 in a table product
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("degree", [1, 2, "CR"])
def test_non_finite_patch_system_raises_projection_error(mesh2d, degree, value):
    # a non-finite entry in any patch system, or in the Crouzeix-Raviart
    # diagonal, is a ProjectionError at the first read of P (the CLI's exit
    # 3), not a bare ValueError from the LAPACK wrappers nor a NaN or zero P
    space = CRSpace(mesh2d) if degree == "CR" else LagrangeSpace(mesh2d, degree)
    space = _with_volume(space, [len(mesh2d.active_ids()) - 1], value)
    with pytest.raises(ProjectionError, match="non-finite patch system"):
        Operators(space).patch_matrix


@pytest.mark.parametrize("kind", ["P1", "CR", "P1-sparse", "CR-sparse"])
def test_dense_mass_solves_check_every_column(mesh2d, kind):
    # a wrong solver is caught in the block solve as in the vector one, in
    # any column, for normal right-hand sides and (-sparse) unit columns as
    # source_block solves; a zero right-hand side passes with a zero solution
    ops = Operators(CRSpace(mesh2d) if kind.startswith("CR") else LagrangeSpace(mesh2d, 1))
    rng = np.random.default_rng(2)
    if kind.endswith("-sparse"):
        rhs = np.zeros((ops.space.n_dofs, 3))
        rhs[rng.choice(ops.space.n_dofs, size=3, replace=False), np.arange(3)] = 1.0
    else:
        rhs = rng.standard_normal((ops.space.n_dofs, 3))
    rhs[:, 1] = 0.0
    exact = ops.solve_mass(rhs)
    assert not np.any(exact[:, 1])
    off = exact.copy()
    off[:, 2] *= 1 + 1e-6
    ops._solver = lambda b: off if b.ndim == 2 else off[:, 2]
    with pytest.raises(ProjectionError, match="residual"):
        ops.solve_mass(rhs)
    with pytest.raises(ProjectionError, match="residual"):
        ops.solve_mass(rhs[:, 2])
    ops._solver = lambda b: exact
    assert ops.solve_mass(rhs) is exact


@pytest.mark.parametrize("kind", ["P2", "CR"])
@pytest.mark.parametrize("case", ["other-mesh", "inactive-element"])
def test_integrand_off_the_space_raises(mesh2d, kind, case):
    # rhs and apply_C share one check: the integrand must live on the
    # operator mesh and on elements of the space (not on a refined parent)
    ops = Operators(CRSpace(mesh2d) if kind == "CR" else LagrangeSpace(mesh2d, 2))
    ids = mesh2d.active_ids()
    rng = np.random.default_rng(16)
    if case == "other-mesh":
        u = _random_poly(mesh2d.copy(), ids, 2, rng)
    else:
        parent = mesh2d.simplices[ids[-1]].parent
        assert parent is not None and parent not in ids
        u = _random_poly(mesh2d, ids[:3] + [parent], 2, rng)
    for run in (ops.rhs, ops.apply_C, ops.project, lambda u: accelerated_iterate(ops, u, 2)):
        with pytest.raises(ProjectionError) as err:
            run(u)
        assert "\n" not in str(err.value)


# -- one BLAS thread for small dense work --------------------------------------------


@pytest.fixture
def blas_calls():
    """The bundled OpenBLAS thread calls, each set to 2 threads for the test
    and put back after it."""
    calls = projection._openblas_thread_calls()
    if not calls:
        pytest.skip("no bundled OpenBLAS with its own thread calls is loaded")
    saved = [get() for get, _ in calls]
    for _, put in calls:
        put(2)
    yield calls
    for (_, put), count in zip(calls, saved):
        put(count)


def _counts(calls):
    return [get() for get, _ in calls]


def test_one_blas_thread_caps_and_restores(blas_calls):
    with one_blas_thread():
        assert _counts(blas_calls) == [1] * len(blas_calls)
        with one_blas_thread():  # nested: the inner block restores the cap
            pass
        assert _counts(blas_calls) == [1] * len(blas_calls)
    assert _counts(blas_calls) == [2] * len(blas_calls)
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            1 / 0
    assert _counts(blas_calls) == [2] * len(blas_calls)


def test_one_blas_thread_without_openblas_does_nothing(blas_calls, monkeypatch):
    monkeypatch.setattr(projection, "_openblas_thread_calls", lambda: ())
    with one_blas_thread():
        assert _counts(blas_calls) == [2] * len(blas_calls)
    assert _counts(blas_calls) == [2] * len(blas_calls)


def test_one_blas_thread_keeps_the_bits(blas_calls, monkeypatch, tmp_path):
    # a criterion-3 certificate (245 dofs) and the README weighted-ratio
    # measurement, three ways: the caller at two threads under the cap, the
    # caller at one thread with the cap bypassed, and the caller at two
    # threads with the cap bypassed.  The first two must agree bit for bit:
    # that fails if the cap does not reach the arithmetic.  Against the
    # third, bit identity of kappa cannot hold (OpenBLAS's threaded kernels
    # give it other last bits on meshes of a few hundred dofs), so kappa is
    # held to 1e-14 relative there, and the weighted ratio to its bits.
    mesh = randomly_refined(3, 4, alpha=1, seed=207, fraction=0.15)
    stabm = "stability --dim 2 --degree 1 --gamma-rho 2 --measure --out".split()
    discovered = projection._openblas_thread_calls
    results = []
    for threads, capped in ((2, True), (1, False), (2, False)):
        for _, put in blas_calls:
            put(threads)
        monkeypatch.setattr(projection, "_openblas_thread_calls", discovered if capped else lambda: ())
        cert = Operators(LagrangeSpace(mesh, 3)).certify()
        out = tmp_path / f"{threads}-{capped}"
        assert main(stabm + [str(out)]) == 0
        measured = json.loads((out / "stability_verdict.json").read_text())["measurement"]["measured"]
        results.append((cert.kappa, measured))
    assert results[0] == results[1]
    assert results[2][1] == results[0][1]
    assert abs(results[2][0] - results[0][0]) <= 1e-14 * results[0][0]
