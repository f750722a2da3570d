"""Differential tests of the topological dof map, the scatter assembly
kernel, the patch table of the approximating operator and the float
geometry table of a space, and the stacked coefficient table of an
elementwise polynomial, against the coordinate-keyed numbering, the
element-by-element COO loops, the per-member lil_matrix loops, the
per-element geometry loops and the per-element polynomial evaluation and
Fraction norm they replaced.  The kernel builds the loops' triplets with the
same float operations, and scipy sums the duplicates of both the same way;
the patch table adds in the loops' order (np.add.at, and one ordered sum in
patch order); the geometry readers stack the loops' per-element BLAS and
LAPACK calls; the coefficient table forms and adds the terms of each element
in its key order.  So every comparison is exact (array for array), not to a
tolerance, except for polynomials whose keys are not in the table's order."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from exact_algebra import evaluate, nodal_poly, node_coords as exact_node_coords
from fraction_geometry import coord
from gradedproj.mesh import SimplicialMesh, kuhn_initial_mesh
from gradedproj.polyspace import (
    BarycentricPoly,
    CRSpace,
    LagrangeSpace,
    cr_local_mass,
    multi_indices,
    quadrature_basis,
    reference_element,
    simplex_quadrature,
)
from gradedproj.projection import (
    ElementwisePoly,
    Operators,
    TwoMeshLink,
    _random_poly,
    weighted_mass,
    weighted_stiffness,
)
from gradedproj.stability import _weighted_p_norm
from conftest import randomly_refined
from oracles import barycentric_values, fraction_norm2
from test_local_basis import (
    cr_values_at,
    lagrange_values,
    poly_values,
    product_gradient_table,
    product_lambda_table,
    product_nodal_mass,
)

# -- the replaced implementations, kept as oracles --------------------------------


def node_key(verts, alpha):
    """The former topological node identity: the node's (vertex, weight)
    pairs of nonzero weight, sorted."""
    return tuple(sorted((v, k) for v, k in zip(verts, alpha) if k))


def coordinate_keyed_dofs(mesh, degree, zero_trace):
    """Lagrange numbering that glues nodes by their exact rational coordinates:
    returns (n_dofs, node_coords, {sid: dofs})."""
    ref, K = reference_element(mesh.dim, degree), degree
    node_ids, coords, on_gamma, cell_nodes = {}, [], set(), {}
    gamma = mesh.gamma_faces if zero_trace else set()
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        vcoords = [coord(mesh, v) for v in verts]
        gamma_locals = []
        if gamma:
            vset = set(verts)
            gamma_locals = [j for j, drop in enumerate(verts) if frozenset(vset - {drop}) in gamma]
        locs = []
        for alpha in ref.monos:
            point = tuple(
                sum(Fraction(alpha[j], K) * vcoords[j][i] for j in range(len(verts))) for i in range(mesh.dim)
            )
            nid = node_ids.get(point)
            if nid is None:
                nid = node_ids[point] = len(coords)
                coords.append(point)
            locs.append(nid)
            if any(alpha[j] == 0 for j in gamma_locals):
                on_gamma.add(nid)
        cell_nodes[sid] = locs
    keep = [i for i in range(len(coords)) if i not in on_gamma]
    remap = {old: new for new, old in enumerate(keep)}
    cells = {sid: [remap.get(n, -1) for n in locs] for sid, locs in cell_nodes.items()}
    return len(keep), [coords[i] for i in keep], cells


def eager_node_coords(space):
    """The exact node coordinates as the dof enumeration computed them, one
    per new node key, with the trace dofs removed afterwards."""
    mesh, K = space.mesh, space.degree
    gamma = mesh.gamma_faces if space.zero_trace else set()
    node_ids, coords, on_gamma = {}, [], set()
    for sid in space.element_ids:
        verts = mesh.simplices[sid].vertices
        gamma_locals = [j for j, drop in enumerate(verts) if frozenset(set(verts) - {drop}) in gamma]
        for alpha in space.ref.monos:
            key = node_key(verts, alpha)
            nid = node_ids.get(key)
            if nid is None:
                nid = node_ids[key] = len(coords)
                coords.append(tuple(sum(Fraction(k, K) * coord(mesh, v)[i] for v, k in key) for i in range(mesh.dim)))
            if any(alpha[j] == 0 for j in gamma_locals):
                on_gamma.add(nid)
    return [c for i, c in enumerate(coords) if i not in on_gamma]


def element_coords(mesh, sid):
    return np.array([[float(x) for x in coord(mesh, v)] for v in mesh.simplices[sid].vertices])


def barycentric_gradients(mesh, sid):
    """(d+1, d) gradients of the barycentric coordinates of one element."""
    d = mesh.dim
    pts = element_coords(mesh, sid)
    edges = (pts[1:] - pts[0]).T  # d x d
    inv = np.linalg.inv(edges)
    grads = np.zeros((d + 1, d))
    grads[1:, :] = inv
    grads[0, :] = -inv.sum(axis=0)
    return grads


def barycentric_map(link, fine_sid):
    """B[j, l]: coarse barycentric coordinate j of fine vertex l."""
    coarse_sid = link.ancestors[fine_sid]
    cmesh, fmesh = link.coarse.mesh, link.fine.mesh
    cverts = cmesh.simplices[coarse_sid].vertices
    fverts = fmesh.simplices[fine_sid].vertices
    d = cmesh.dim
    a = np.empty((d + 1, d + 1))
    for col, v in enumerate(cverts):
        a[:d, col] = [float(x) for x in coord(cmesh, v)]
    a[d, :] = 1.0
    rhs = np.empty((d + 1, d + 1))
    for col, v in enumerate(fverts):
        rhs[:d, col] = [float(x) for x in coord(fmesh, v)]
    rhs[d, :] = 1.0
    return np.linalg.solve(a, rhs)


def loop_weighted_p_norm(space, coeffs, wvals, p, kind):
    """||rho u||_p or ||rho grad u||_p, element by element."""
    d = space.mesh.dim
    deg = 2 * space.degree + 2
    wts = simplex_quadrature(d, deg)[1]
    basis = quadrature_basis(d, space.local_degree, deg, partials=kind == "W1p")
    total = 0.0
    sup = 0.0
    for sid in space.element_ids:
        dofs = space.cell_dofs(sid)
        loc = np.array([coeffs[g] if g >= 0 else 0.0 for g in dofs])
        w = wvals[sid]
        vol = float(space.mesh.volume(sid))
        if kind == "W1p":
            vals = np.linalg.norm((basis @ loc) @ barycentric_gradients(space.mesh, sid), axis=1)
        else:
            vals = np.abs(basis @ loc)
        if p == math.inf:
            sup = max(sup, w * vals.max())
        else:
            total += vol * float(wts @ (w * vals) ** p)
    return sup if p == math.inf else total ** (1.0 / p)


def _local_mass(space):
    exact = cr_local_mass(space.mesh.dim) if isinstance(space, CRSpace) else product_nodal_mass(space.mesh.dim, space.degree)
    return np.array([[float(x) for x in row] for row in exact])


def loop_mass(space, element_ids, weights=None):
    """The mass, masked-mass and weighted-mass loop (elements of weight 0 skipped)."""
    local = _local_mass(space)
    rows, cols, vals = [], [], []
    for sid in element_ids:
        vol = float(space.mesh.volume(sid))
        if weights is not None:
            if weights[sid] == 0:
                continue
            vol = vol * weights[sid]
        dofs = space.cell_dofs(sid).tolist()
        for a, ga in enumerate(dofs):
            if ga < 0:
                continue
            for b, gb in enumerate(dofs):
                if gb >= 0:
                    rows.append(ga)
                    cols.append(gb)
                    vals.append(vol * local[a, b])
    return sp.csr_matrix((vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs))


def loop_weighted_stiffness(space, weights):
    dim = space.mesh.dim
    if not isinstance(space, CRSpace):
        tab = np.array(product_gradient_table(dim, space.degree), dtype=float)
    rows, cols, vals = [], [], []
    for sid in space.element_ids:
        grads = barycentric_gradients(space.mesh, sid)
        gdot = grads @ grads.T
        vol = float(space.mesh.volume(sid)) * weights[sid]
        if isinstance(space, CRSpace):
            local = (dim * dim) * vol * gdot
        else:
            local = np.zeros((len(space.ref.monos),) * 2)
            for j in range(dim + 1):
                for l in range(dim + 1):
                    if gdot[j, l] != 0:
                        local += vol * gdot[j, l] * np.array(tab[j][l])
        dofs = space.cell_dofs(sid).tolist()
        for a, ga in enumerate(dofs):
            if ga < 0:
                continue
            for b, gb in enumerate(dofs):
                if gb >= 0:
                    rows.append(ga)
                    cols.append(gb)
                    vals.append(local[a, b])
    return sp.csr_matrix((vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs))


def loop_mixed_mass(link):
    coarse, fine = link.coarse, link.fine
    d = coarse.mesh.dim
    deg = coarse.degree + fine.degree
    pts, wts = simplex_quadrature(d, deg)
    fine_vals = cr_values_at(pts, d) if isinstance(fine, CRSpace) else lagrange_values(fine.ref, pts)
    rows, cols, vals = [], [], []
    for sid in fine.element_ids:
        cbary = pts @ barycentric_map(link, sid).T
        cvals = cr_values_at(cbary, d) if isinstance(coarse, CRSpace) else lagrange_values(coarse.ref, cbary)
        block = float(fine.mesh.volume(sid)) * (cvals.T * wts) @ fine_vals
        for a_loc, ga in enumerate(coarse.cell_dofs(link.ancestors[sid]).tolist()):
            if ga < 0:
                continue
            for b_loc, gb in enumerate(fine.cell_dofs(sid).tolist()):
                if gb >= 0:
                    rows.append(ga)
                    cols.append(gb)
                    vals.append(block[a_loc, b_loc])
    return sp.csr_matrix((vals, (rows, cols)), shape=(coarse.n_dofs, fine.n_dofs))


def loop_rhs(ops, element_ids, contrib):
    out = np.zeros(ops.space.n_dofs)
    for sid in element_ids:
        c = contrib(sid)
        for local, g in enumerate(ops.space.cell_dofs(sid).tolist()):
            if g >= 0:
                out[g] += c[local]
    return out


def loop_patch_operator(space):
    """The patch assembly with per-member loops and lil_matrix sums: returns
    (form, apply, patches) with patches as (rows, chol, gcols, wmat, m_patch)."""
    mesh, K, d = space.mesh, space.degree, space.mesh.dim
    low = reference_element(d, K - 1)
    t_gram = product_lambda_table(d, K - 1, K - 1)
    t_cross = product_lambda_table(d, K - 1, K)
    gram_f = np.array([[[float(x) for x in row] for row in t_gram[j]] for j in range(d + 1)])
    cross_f = np.array([[[float(x) for x in row] for row in t_cross[j]] for j in range(d + 1)])
    eval_low = np.array(
        [[float(evaluate(nodal_poly(low, a), node)) for a in range(len(low.monos))] for node in space.ref.node_coords]
    )
    lam_at_hi = np.array([[float(x) for x in node] for node in space.ref.node_coords])
    members = {}
    for sid in space.element_ids:
        for local_j, v in enumerate(mesh.simplices[sid].vertices):
            members.setdefault(v, []).append((sid, local_j))
    gamma = mesh.gamma_faces if getattr(space, "zero_trace", False) else set()
    n = space.n_dofs
    form = sp.lil_matrix((n, n))
    apply_m = sp.lil_matrix((n, n))
    patches = []
    for vertex in sorted(members):
        patch = members[vertex]
        member_keys, banned_keys = [], set()
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
        dof_index, rows = {}, []
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
        touched = {}
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
                    for a, pa in enumerate(local_ids):
                        if pa >= 0:
                            wmat[gpos[g], pa] = lam_at_hi[mloc, local_j] * eval_low[mloc, a]
        gchol = scipy.linalg.cho_factor(gmat)
        ginv_r = scipy.linalg.cho_solve(gchol, rmat)
        cols = np.array(gcols)
        form[np.ix_(cols, cols)] += rmat.T @ ginv_r
        apply_m[np.ix_(cols, cols)] += wmat @ ginv_r
        patches.append((rows, gchol, cols, wmat, m_patch))
    return form.tocsr(), apply_m.tocsr(), patches


def loop_apply_C(space, patches, u):
    """C u with the patch moments integrated member by member."""
    mesh, K, d = space.mesh, space.degree, space.mesh.dim

    def moments(sid, local_j):
        pts, wts = simplex_quadrature(d, K + u.degree())
        basis_low = lagrange_values(reference_element(d, K - 1), pts)
        vals = poly_values(u.polys[sid], pts) if sid in u.polys else np.zeros(len(pts))
        return float(mesh.volume(sid)) * (basis_low.T * (wts * pts[:, local_j])) @ vals

    out = np.zeros(space.n_dofs)
    for rows, chol, gcols, wmat, m_patch in patches:
        r = np.zeros(m_patch)
        for sid, local_j, local_ids, _ in rows:
            r_loc = moments(sid, local_j)
            for a, pa in enumerate(local_ids):
                if pa >= 0:
                    r[pa] += r_loc[a]
        out[gcols] += wmat @ scipy.linalg.cho_solve(chol, r)
    return out


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# -- meshes ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def meshes():
    return {
        2: randomly_refined(2, 5, seed=3),
        3: randomly_refined(3, 2, seed=5, fraction=0.2),
        4: randomly_refined(4, 1, seed=2, fraction=0.1),
    }


def _shuffled(mesh, seed):
    """The same mesh with each simplex's vertices in random order, so that
    neighbours disagree on the local order of their shared vertices (meshes
    made by bisection of the Kuhn mesh never do)."""
    rng = np.random.default_rng(seed)
    data = mesh.to_json_dict()
    for cell in data["simplices"]:
        cell["v"] = [int(v) for v in rng.permutation(cell["v"])]
    return SimplicialMesh.from_json_dict(data)


def _space(mesh, kind):
    if kind == "CR":
        return CRSpace(mesh)
    return LagrangeSpace(mesh, int(kind[1]), zero_trace=kind.endswith("z"))


# -- dof numbering ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "dim,degree",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)],
)
@pytest.mark.parametrize("zero_trace", [False, True])
@pytest.mark.parametrize("shuffle", [False, True])
def test_vertex_keyed_dofs_match_coordinate_keys(meshes, dim, degree, zero_trace, shuffle):
    mesh = _shuffled(meshes[dim], seed=dim) if shuffle else meshes[dim]
    space = LagrangeSpace(mesh, degree, zero_trace=zero_trace)
    n_dofs, node_coords, cells = coordinate_keyed_dofs(mesh, degree, zero_trace)
    assert space.n_dofs == n_dofs
    assert exact_node_coords(space) == node_coords
    assert space.element_ids == sorted(cells)
    assert all(space.cell_dofs(sid).tolist() == cells[sid] for sid in space.element_ids)
    assert space.dofs.shape == (mesh.n_active, len(space.ref.monos)) and not space.dofs.flags.writeable


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_patch_keys_on_shuffled_mesh_match_exact_oracle(degree):
    # patch dofs are keyed by vertex ids too; the all-Fraction oracle keys them by coordinates
    from test_projection import _exact_operator_matrices

    mesh = kuhn_initial_mesh(2, 1)
    mesh.refine_closure([mesh.active_ids()[0]])
    space = LagrangeSpace(_shuffled(mesh, seed=degree), degree)
    ops = Operators(space)
    form_x, apply_x = _exact_operator_matrices(space)
    assert np.abs(ops.form_matrix.toarray() - np.array(form_x, dtype=float)).max() < 1e-14
    assert np.abs(ops.apply_matrix.toarray() - np.array(apply_x, dtype=float)).max() < 1e-14


# -- global matrices -----------------------------------------------------------------------


@pytest.mark.parametrize("dim,degree", [(2, 1), (2, 3), (3, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("zero_trace", [False, True])
def test_lazy_node_coords_match_eager_list(meshes, dim, degree, zero_trace):
    space = LagrangeSpace(meshes[dim], degree, zero_trace=zero_trace)
    assert exact_node_coords(space) == eager_node_coords(space)
    assert len(exact_node_coords(space)) == space.n_dofs


# -- the float geometry table ---------------------------------------------------------------


def assert_geometry_matches_loops(space):
    geo = space.geometry
    mesh, ids = space.mesh, space.element_ids
    assert np.array_equal(geo.vertices, np.array([element_coords(mesh, sid) for sid in ids]))
    assert np.array_equal(geo.volumes, np.array([float(mesh.volume(sid)) for sid in ids]))
    assert np.array_equal(geo.gradients, np.array([barycentric_gradients(mesh, sid) for sid in ids]))
    assert not any(a.flags.writeable for a in geo)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ["P1", "P3", "CR"])
def test_geometry_table_matches_element_loops(meshes, dim, kind):
    space = _space(_shuffled(meshes[dim], seed=dim), kind)
    assert "geometry" not in vars(space)
    assert_geometry_matches_loops(space)
    assert space.geometry is space.geometry


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["P1", "P2", "P3", "CR", "P1z", "P2z"])
def test_kernel_matrices_match_element_loops(meshes, dim, kind):
    mesh = meshes[dim]
    space = _space(mesh, kind)
    rng = np.random.default_rng(dim)
    ids = space.element_ids
    subset = [sid for sid in ids if rng.random() < 0.4]
    weights = {sid: float(rng.choice([0.0, 0.5, 3.0])) for sid in ids}
    assert_same_csr(space.mass_matrix(), loop_mass(space, ids))
    assert_same_csr(space.element_mass(subset), loop_mass(space, subset))
    assert_same_csr(weighted_mass(space, weights), loop_mass(space, ids, weights))
    assert_same_csr(weighted_stiffness(space, weights), loop_weighted_stiffness(space, weights))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["P1", "P2", "P3", "CR", "P2z"])
@pytest.mark.parametrize("norm", ["Lp", "W1p"])
def test_weighted_p_norm_matches_element_loop(meshes, dim, kind, norm):
    space = _space(meshes[dim], kind)
    rng = np.random.default_rng(dim)
    coeffs = rng.standard_normal(space.n_dofs)
    weights = {sid: float(rng.choice([0.25, 1.0, 3.0])) for sid in space.element_ids}
    for p in (1.0, 3.0, math.inf):
        got = _weighted_p_norm(space, coeffs, weights, p, norm)
        assert got == loop_weighted_p_norm(space, coeffs, weights, p, norm) and got > 0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "kinds", [("P1", "P1"), ("P2", "P1"), ("P1z", "P2"), ("CR", "CR"), ("P1", "CR"), ("CR", "P1"), ("P3", "P3"), ("P3", "P1")]
)
def test_mixed_mass_matches_element_loop(meshes, dim, kinds):
    coarse = meshes[dim]
    fine = coarse.copy()
    fine.refine_lg(fine.active_ids()[::3], 1)
    link = TwoMeshLink(_space(coarse, kinds[0]), _space(fine, kinds[1]))
    assert_same_csr(link.mixed_mass(), loop_mixed_mass(link))


@pytest.mark.parametrize("kind", ["P2", "CR", "P1z"])
def test_geometry_follows_space_after_mesh_refinement(meshes, kind):
    # the table is built on first use, after the mesh has moved on: it must
    # describe the space's elements, now partly inactive, not the mesh's
    mesh = meshes[2].copy()
    space = _space(mesh, kind)
    fine = mesh.copy()
    fine.refine_uniform(1)
    fine_space = _space(fine, kind)
    mesh.refine_closure(mesh.active_ids()[::4])
    assert set(space.element_ids) - set(mesh.active_ids())
    assert_geometry_matches_loops(space)
    weights = {sid: 1.0 + (sid % 3) for sid in space.element_ids}
    assert_same_csr(space.mass_matrix(), loop_mass(space, space.element_ids))
    assert_same_csr(weighted_mass(space, weights), loop_mass(space, space.element_ids, weights))
    assert_same_csr(weighted_stiffness(space, weights), loop_weighted_stiffness(space, weights))
    coeffs = np.random.default_rng(0).standard_normal(space.n_dofs)
    assert _weighted_p_norm(space, coeffs, weights, 3.0, "W1p") == loop_weighted_p_norm(space, coeffs, weights, 3.0, "W1p")
    link = TwoMeshLink(space, fine_space)
    assert set(link.ancestors.values()) == set(space.element_ids)
    assert_same_csr(link.mixed_mass(), loop_mixed_mass(link))


@pytest.mark.parametrize("kind", ["P1", "P2z", "CR"])
def test_rhs_scatter_matches_element_loop(meshes, kind):
    mesh = meshes[2]
    ops = Operators(_space(mesh, kind))
    u = _random_poly(mesh, mesh.active_ids()[::2], 2, np.random.default_rng(1))
    pts, wts, basis = ops._quad(ops.space.degree + u.degree())
    want = loop_rhs(ops, u.support(), lambda sid: float(mesh.volume(sid)) * (basis.T * wts) @ poly_values(u.polys[sid], pts))
    assert np.array_equal(ops.rhs(u), want)
    assert np.array_equal(ops.rhs(ElementwisePoly(mesh, {})), np.zeros(ops.space.n_dofs))


# -- the approximating operator -------------------------------------------------------------


@pytest.mark.parametrize(
    "dim,degree",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)],
)
@pytest.mark.parametrize("zero_trace", [False, True])
@pytest.mark.parametrize("shuffle", [False, True])
def test_patch_table_matches_member_loops(meshes, dim, degree, zero_trace, shuffle):
    mesh = _shuffled(meshes[dim], seed=dim) if shuffle else meshes[dim]
    space = LagrangeSpace(mesh, degree, zero_trace=zero_trace)
    ops = Operators(space)
    form, apply_m, patches = loop_patch_operator(space)
    assert_same_csr(ops.form_matrix, form)
    assert_same_csr(ops.apply_matrix, apply_m)
    u = _random_poly(mesh, mesh.active_ids()[::2], degree + 1, np.random.default_rng(degree))
    assert np.array_equal(ops.apply_C(u), loop_apply_C(space, patches, u))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_patch_table_on_trace_dominated_cells(dim, degree):
    # one Kuhn cube with zero trace: P1 has no dof and no patch, P2 one dof
    space = LagrangeSpace(kuhn_initial_mesh(dim, 1), degree, zero_trace=True)
    ops = Operators(space)
    form, apply_m, patches = loop_patch_operator(space)
    assert space.n_dofs == degree - 1 and len(ops._patches) == len(patches)
    assert_same_csr(ops.form_matrix, form)
    assert_same_csr(ops.apply_matrix, apply_m)
    u = _random_poly(space.mesh, space.element_ids, 2, np.random.default_rng(0))
    assert np.array_equal(ops.apply_C(u), loop_apply_C(space, patches, u))


# -- elementwise polynomials -----------------------------------------------------------------


def _poly(dim, degree, rng, homogeneous=False, shuffle=False):
    """Random coefficients (a third of them zero, which BarycentricPoly drops)
    for the keys of degree `degree`, or of every degree up to it, in the
    coefficient table's order: by degree, multi_indices order within one;
    or in a random order with shuffle=True."""
    keys = [m for k in range(degree if homogeneous else 0, degree + 1) for m in multi_indices(dim, k)]
    if shuffle:
        keys = [keys[i] for i in rng.permutation(len(keys))]
    values = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 30))) * int(rng.random() > 1 / 3) for _ in keys]
    return BarycentricPoly(dim, dict(zip(keys, values)))


def _elementwise(mesh, degree, seed, shuffle=False):
    """Polynomials on every other element, in descending id order: homogeneous
    or with all degrees up to `degree` (both orders are subsequences of the
    table's), one with no coefficient left."""
    rng = np.random.default_rng(seed)
    support = mesh.active_ids()[::-2]
    polys = {sid: _poly(mesh.dim, degree, rng, homogeneous=i % 2 == 0, shuffle=shuffle) for i, sid in enumerate(support)}
    polys[support[1]] = BarycentricPoly(mesh.dim, {m: 0 for m in multi_indices(mesh.dim, degree)})
    return ElementwisePoly(mesh, polys)


def _points(dim, seed):
    """A quadrature rule's points and points off the simplex (negative and
    large barycentric coordinates)."""
    return simplex_quadrature(dim, 9)[0], np.random.default_rng(seed).normal(scale=2.0, size=(7, dim + 1))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_stacked_values_match_per_element_values(meshes, dim, degree):
    mesh = meshes[dim]
    ids = mesh.active_ids()
    u = _elementwise(mesh, degree, seed=10 * dim + degree)
    for bary in _points(dim, degree):
        got = u.element_values(ids, bary)
        assert got.shape == (len(ids), len(bary))
        for sid, row in zip(ids, got):
            want = barycentric_values(u.polys[sid], bary) if sid in u.polys else np.zeros(len(bary))
            assert np.array_equal(row, want)
        subset = ids[::-3] + ids[:2]  # any order, repeats, rows outside the support
        assert np.array_equal(u.element_values(subset, bary), got[[ids.index(sid) for sid in subset]])
        assert np.array_equal(ElementwisePoly(mesh, {}).element_values(ids, bary), np.zeros(got.shape))
        assert u.element_values([], bary).shape == (0, len(bary))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_values_of_reordered_keys_agree(meshes, dim):
    # keys out of the table's order: the same terms added in another order
    mesh = meshes[dim]
    ids = mesh.active_ids()
    u = _elementwise(mesh, 4, seed=dim, shuffle=True)
    for bary in _points(dim, dim):
        got = u.element_values(ids, bary)
        for sid, row in zip(ids, got):
            poly = u.polys.get(sid, BarycentricPoly(dim))
            scale = barycentric_values(BarycentricPoly(dim, {k: abs(v) for k, v in poly.coeffs.items()}), np.abs(bary))
            assert np.all(np.abs(row - barycentric_values(poly, bary)) <= 1e-14 * scale)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("shuffle", [False, True])
def test_exact_norm2_matches_fraction_norm(meshes, dim, shuffle):
    mesh = meshes[dim]
    for degree in range(5):
        u = _elementwise(mesh, degree, seed=dim + degree, shuffle=shuffle)
        assert u.norm2() == fraction_norm2(u)
        for sid, poly in u.polys.items():  # one element: no sum to hide a last bit
            one = ElementwisePoly(mesh, {sid: poly})
            assert one.norm2() == fraction_norm2(one)
    u = _random_poly(mesh, mesh.active_ids(), 3, np.random.default_rng(dim))
    assert u.norm2() == fraction_norm2(u)
    # int and Fraction coefficients with unlike denominators
    polys = {sid: BarycentricPoly(dim, {multi_indices(dim, 1)[0]: 3, multi_indices(dim, 2)[-1]: Fraction(-5, 7 + sid)})
             for sid in mesh.active_ids()[:3]}
    u = ElementwisePoly(mesh, polys)
    assert u.norm2() == fraction_norm2(u)
    assert ElementwisePoly(mesh, {}).norm2() == 0.0

