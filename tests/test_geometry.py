"""Differential tests of the integer mesh geometry (numerators at one mesh
exponent, one Bareiss elimination) against the Fraction geometry it
replaced (tests/fraction_geometry.py): the elimination itself, the hanging
vertex and conformity scans, volumes, the float geometry table, the
Vandermonde inverse and the JSON form of deep meshes.  The grid join of
boxes is checked against all pairs, and the conformity scan against the
column search it replaced (tests/oracles.py)."""

import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import fraction_geometry as fg
from exact_algebra import evaluate, monomial
from conftest import randomly_refined
from oracles import add_simplex, column_conformity_violations
from gradedproj.mesh import (
    MAX_EXPONENT,
    MeshError,
    SimplicialMesh,
    _box_pairs,
    bareiss,
    conformity_violations,
    hanging_vertex_violations,
    kuhn_initial_mesh,
    marking_policy,
    overlap_violations,
)
from gradedproj.polyspace import LagrangeSpace, reference_element

# -- Bareiss against Gauss-Jordan on Fractions ---------------------------------------


def _random_systems(rng, n, k, count, bits):
    """count integer systems n x n with k right-hand sides; entries up to
    2**bits, every third matrix made singular (last row a combination)."""
    a = np.array(
        [[[int(x) for x in rng.integers(-(2**bits), 2**bits, size=n)] for _ in range(n)] for _ in range(count)],
        dtype=object,
    )
    for i in range(0, count, 3):
        if n > 1:
            a[i, -1] = 2 * a[i, 0] - 3 * a[i, -2]
    b = np.array(
        [[[int(x) for x in rng.integers(-(2**bits), 2**bits, size=k)] for _ in range(n)] for _ in range(count)],
        dtype=object,
    ).reshape(count, n, k)
    return a, b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("bits", [1, 40])
def test_bareiss_matches_fraction_solve(n, bits):
    # bits=1 forces zero pivots and row swaps; bits=40 overflows an int64
    # determinant from n = 2 on
    rng = np.random.default_rng(100 * n + bits)
    for k in (0, 1, 3):
        a, b = _random_systems(rng, n, k, 24, bits)
        det, solution = bareiss(a, b)
        assert det.shape == (24,) and solution.shape == (24, n, k)
        for i in range(24):
            want_det, x = fg.fraction_solve(a[i].tolist(), b[i].tolist())
            assert det[i] == want_det and type(det[i]) is int
            if x is None:
                assert not solution[i].any()
            else:
                assert solution[i].tolist() == [[det[i] * v for v in row] for row in x]
    if bits == 40 and n >= 2:
        assert max(abs(d) for d in det.tolist()) > 2**63


def test_bareiss_swaps_rows():
    det, solution = bareiss(np.array([[[0, 2], [3, 1]]]), np.eye(2, dtype=np.int64)[None])
    assert det.tolist() == [-6]
    assert solution.tolist() == [[[1, -2], [-3, 0]]]  # det * inverse


# -- meshes: conforming BiSecLG, nonconforming by raw bisection, hand-made ------------


def _raw_mesh(dim, points, cells, exponent=0):
    """A mesh built without the loader's checks, so nonconforming."""
    mesh = SimplicialMesh(dim)
    mesh.exponent = exponent
    for point in points:
        mesh.add_vertex(tuple(point))
    for verts in cells:
        add_simplex(mesh, tuple(verts), dim, 0, None, fg.det_volume(mesh, verts))
    return mesh


def _raw_bisected(mesh, count, seed):
    """The mesh after count bisections without closure (hanging vertices)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ids = mesh.active_ids()
        mesh.bisect(ids[int(rng.integers(len(ids)))])
    return mesh


MESHES = {
    "1-lg": lambda: randomly_refined(1, 6, seed=1, fraction=0.5),
    "2-lg": lambda: randomly_refined(2, 6, seed=2),
    "3-lg": lambda: randomly_refined(3, 3, seed=3, fraction=0.2),
    "4-lg": lambda: randomly_refined(4, 1, seed=4, fraction=0.1),
    "2-lg-a2": lambda: randomly_refined(2, 8, alpha=2, seed=5),
    "1-raw": lambda: _raw_bisected(randomly_refined(1, 3, seed=6, fraction=0.5), 4, 6),
    "2-raw": lambda: _raw_bisected(randomly_refined(2, 4, seed=7), 6, 7),
    "3-raw": lambda: _raw_bisected(randomly_refined(3, 2, seed=8, fraction=0.2), 6, 8),
    "4-raw": lambda: _raw_bisected(kuhn_initial_mesh(4), 8, 9),
    # a vertex on another triangle's edge that is not its midpoint
    "2-t-junction": lambda: _raw_mesh(2, [(0, 0), (4, 0), (0, 4), (1, 0), (3, 0), (2, -2)], [(0, 1, 2), (3, 4, 5)]),
    # interiors overlap, yet neither triangle holds a vertex of the other
    "2-overlap": lambda: _raw_mesh(2, [(0, 0), (4, 0), (2, 4), (0, 3), (4, 3), (2, -1)], [(0, 1, 2), (3, 4, 5)]),
    # unused vertices: an edge midpoint, a corner's position, one outside, one inside
    "2-unused": lambda: _raw_mesh(2, [(0, 0), (4, 0), (0, 4), (2, 2), (0, 0), (9, 9), (1, 1)], [(0, 1, 2)], exponent=2),
    "3-corner": lambda: _corner(3, 6),
}


def _corner(dim, rounds):
    mesh = kuhn_initial_mesh(dim)
    for _ in range(rounds):
        mesh.refine_closure(marking_policy("corner")(mesh, None))
    return mesh


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def test_scans_match_fraction_scans(mesh):
    for limit in (1, 2, 10**9):
        assert hanging_vertex_violations(mesh, limit) == fg.hanging_vertex_violations(mesh, limit)
        assert conformity_violations(mesh, limit) == fg.conformity_violations(mesh, limit)


def test_scans_find_the_defects():
    found = {}
    for name in ("2-raw", "2-t-junction", "2-overlap", "2-unused"):
        mesh = MESHES[name]()
        found[name] = hanging_vertex_violations(mesh, 10**9), conformity_violations(mesh, 10**9)
    assert found["2-raw"][0] and found["2-raw"][1]
    assert found["2-t-junction"] == ([], [(3, 0), (4, 0)])
    assert found["2-overlap"] == ([], [])  # not a vertex-in-simplex defect
    assert overlap_violations(MESHES["2-overlap"](), 10**9) == [(0, 1)]  # but one of interiors
    assert found["2-unused"] == ([(0, (1, 2))], [(3, 0), (4, 0), (6, 0)])


# -- the grid join of boxes against all pairs --------------------------------------------


def _random_boxes(rng, dim, count):
    """count closed boxes (lo, hi) with corners in -40..40 and extents 0 or
    next to a power of two, a fifth of them points."""
    lo = rng.integers(-40, 41, size=(count, dim))
    extent = rng.choice([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33], size=(count, dim))
    extent[rng.random(count) < 0.2] = 0
    return lo.astype(object), (lo + extent).astype(object)


def _meeting(lo, hi, lo2, hi2):
    """The pairs (i, j) of boxes [lo[i], hi[i]] and [lo2[j], hi2[j]] that meet."""
    return {(i, j) for i in range(len(lo)) for j in range(len(lo2)) if (lo[i] <= hi2[j]).all() and (lo2[j] <= hi[i]).all()}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_box_join_matches_all_pairs(dim):
    rng = np.random.default_rng(dim)
    for count, count2 in [(80, 60), (50, 0), (0, 50), (1, 1)]:
        a, b = _random_boxes(rng, dim, count), _random_boxes(rng, dim, count2)
        for move in [lambda x: x, lambda x: x << 60, lambda x: x * (2**60 + 1), lambda x: x + 2**70 + 1,
                     lambda x: x - 2**64]:
            first, second = ([move(x) for x in box] for box in (a, b))
            for boxes in [(*first, *second), (*first, *first)]:  # two sets, and one with itself
                pairs = list(map(tuple, _box_pairs(*boxes).tolist()))
                assert len(set(pairs)) == len(pairs) and _meeting(*boxes) <= set(pairs), (count, count2, move(1))


# meshes with many hanging vertices, and the number of conformity violations of each
_HANGING = {
    "2-kuhn30-raw400": (lambda: _raw_bisected(kuhn_initial_mesh(2, 30), 400, 3), 346),
    "3-lg-raw200": (lambda: _raw_bisected(randomly_refined(3, 6, seed=11, fraction=0.2), 200, 1), 407),
}


@pytest.mark.parametrize("name", sorted(_HANGING))
def test_conformity_scan_matches_column_search(name):
    make, count = _HANGING[name]
    mesh = make()
    want = column_conformity_violations(mesh, 10**9)
    assert len(want) == count
    for limit in (1, 2, 10**9):
        assert conformity_violations(mesh, limit) == want[:limit]


def test_conformity_scan_sees_vertices_on_cell_boundaries():
    # the midpoint (8, 2) of the edge at x = 8 of the first triangle hangs;
    # that triangle's box [4, 8] x [0, 4] has extent 4 < 2**3, and 8 starts
    # a cell of step 2**3
    points = [(4, 0), (8, 0), (8, 4), (12, 0), (8, 2)]
    cells = [(0, 1, 2), (1, 3, 4), (4, 3, 2)]
    for exponent, move in [(0, lambda x: x), (70, lambda x: x << 70), (2, lambda x: x + 2**80)]:
        mesh = _raw_mesh(2, [[move(x) for x in p] for p in points], cells, exponent=exponent)
        assert conformity_violations(mesh, 10**9) == [(4, 0)]
        assert hanging_vertex_violations(mesh, 10**9) == [(0, (1, 2))]
        assert overlap_violations(mesh, 10**9) == []


# -- disjoint interiors: the separating-axis scan against a linear program --------------


def _interiors_meet(a, b):
    """Whether two simplices (corner rows) share an interior point: the
    largest t such that one point has every barycentric coordinate at least
    t in both is positive.  Small integer corners keep a positive optimum
    far above the solver's tolerance."""
    d1 = len(a)
    # variables: the barycentric coordinates of the point in a, then in b, then t
    eq = np.zeros((len(a[0]) + 2, 2 * d1 + 1))
    eq[:-2, :d1], eq[:-2, d1:-1] = np.array(a, dtype=float).T, -np.array(b, dtype=float).T
    eq[-2, :d1] = eq[-1, d1:-1] = 1.0
    ub = np.hstack([-np.eye(2 * d1), np.ones((2 * d1, 1))])  # t - coordinate <= 0
    cost = np.zeros(2 * d1 + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=ub, b_ub=np.zeros(2 * d1), A_eq=eq, b_eq=np.r_[np.zeros(len(a[0])), 1.0, 1.0],
                  bounds=[(None, None)] * (2 * d1 + 1))
    assert res.status == 0
    return -res.fun > 1e-9


def _random_pairs(dim, count, seed):
    """count pairs of nondegenerate simplices with corners in -2..2, the
    second sharing 0 .. dim corners with the first, some pairs the first
    reflected through a shared face."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.integers(-2, 3, size=(dim + 1, dim))
        shared = int(rng.integers(0, dim + 1))
        b = np.vstack([a[:shared], rng.integers(-2, 3, size=(dim + 1 - shared, dim))])
        if shared == dim and rng.random() < 0.3:  # reflect the last corner through the shared face's centroid
            b[-1] = 2 * a[:dim].sum(axis=0) // dim - a[-1] if dim else b[-1]
        pts = np.vstack([a, b[shared:]])
        if len({tuple(p) for p in pts.tolist()}) != len(pts):
            continue
        if any(np.linalg.matrix_rank((s[1:] - s[0]).astype(float)) < dim for s in (a, b)):
            continue
        out.append((a.tolist(), b.tolist(), shared))
    return out


# the same pairs under maps that keep every verdict: (exponent, numerator map)
_EXACT_PATHS = [
    (0, lambda x: x),
    (70, lambda x: x << 70),  # a high exponent
    (0, lambda x: x * (2**60 + 1)),  # extents beyond int64
    (0, lambda x: x + 2**70 + 1),  # small extents far out: cell numbers beyond int64
]


@pytest.mark.parametrize("dim, count", [(1, 60), (2, 150), (3, 120), (4, 60)])
def test_overlap_scan_matches_linear_program(dim, count):
    met = 0
    for a, b, shared in _random_pairs(dim, count, seed=dim):
        points = a + b[shared:]
        cells = [tuple(range(dim + 1)), tuple(range(shared)) + tuple(range(dim + 1, 2 * dim + 2 - shared))]
        want = [(0, 1)] if _interiors_meet(a, b) else []
        met += bool(want)
        for exponent, move in _EXACT_PATHS:
            mesh = _raw_mesh(dim, [[move(x) for x in p] for p in points], cells, exponent=exponent)
            assert overlap_violations(mesh, 5) == want, (a, b, exponent, move(1))
    assert 0 < met < count


@pytest.mark.parametrize("name", sorted(set(MESHES) - {"2-overlap"}))
def test_overlap_scan_passes_disjoint_meshes(name):
    # bisection, with or without closure, keeps interiors disjoint
    assert overlap_violations(MESHES[name](), 10**9) == []


def _crossed(dim, shift):
    """Two simplices whose nearest parts are crossed lower faces: A's top
    edge along x_0 at x_d = 0 over a face at x_d = -4, B's bottom face
    across the middle axes at x_d = shift under an edge along x_0.  No facet
    plane of either parts them at shift >= 0, only the normal of both
    faces."""
    middle = [[-1] * (dim - 2)] + [[2 * (i == j) - 1 for i in range(dim - 2)] for j in range(dim - 2)]
    a = [[x] + [0] * (dim - 1) for x in (-2, 2)] + [[0] + m + [-4] for m in middle]
    b = [[0] + [2 * v for v in m] + [shift] for m in middle] + [[x] + [0] * (dim - 2) + [shift + 4] for x in (-1, 1)]
    return a, b


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_overlap_scan_parts_crossed_faces(dim, shift):
    a, b = _crossed(dim, shift)
    mesh = _raw_mesh(dim, a + b, [tuple(range(dim + 1)), tuple(range(dim + 1, 2 * dim + 2))])
    assert overlap_violations(mesh) == ([(0, 1)] if _interiors_meet(a, b) else [])
    assert (overlap_violations(mesh) == []) == (shift >= 0)


def test_overlap_scan_orders_and_limits_pairs():
    # three copies of one triangle, shifted: every pair meets
    points = [(0, 0), (4, 0), (0, 4), (1, 0), (5, 0), (1, 4), (0, 1), (4, 1), (0, 5)]
    mesh = _raw_mesh(2, points, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert overlap_violations(mesh, 10**9) == [(0, 1), (0, 2), (1, 2)]
    assert overlap_violations(mesh) == [(0, 1)]


def test_overlap_scan_passes_empty_meshes():
    for dim in range(1, 5):
        assert overlap_violations(SimplicialMesh(dim), 10**9) == []


def test_overlap_scan_sees_overlaps_below_float_resolution():
    # [-2**-60, 1 + 3 * 2**-60] and [1 + 2**-60, 2] overlap by 2**-59
    points = [(-1,), (2**60 + 3,), (2**60 + 1,), (2**61,)]
    mesh = _raw_mesh(1, points, [(0, 1), (2, 3)], exponent=60)
    assert overlap_violations(mesh) == [(0, 1)]
    # [1/2, 1 + 3 * 2**-60] and [1 + 2**-60, 3/2]: the first reaches past
    # the boundary of its grid cells at 1 by 3 * 2**-60
    points = [(2**59,), (2**60 + 3,), (2**60 + 1,), (3 * 2**59,)]
    mesh = _raw_mesh(1, points, [(0, 1), (2, 3)], exponent=60)
    assert overlap_violations(mesh) == [(0, 1)]
    # the same pairs touching only: [.., 1] and [1, ..]
    points = [(-1,), (2**60,), (2**61,)]
    assert overlap_violations(_raw_mesh(1, points, [(0, 1), (1, 2)], exponent=60)) == []


_STELLA = [(2, 2, 2), (2, -2, -2), (-2, 2, -2), (-2, -2, 2), (-2, -2, -2), (-2, 2, 2), (2, -2, 2), (2, 2, -2)]


def _mesh_data(dim, points, cells):
    return {
        "version": 1,
        "dim": dim,
        "vertices": [[[x, 0] for x in p] for p in points],
        "simplices": [{"v": list(v), "tag": dim, "level": 0} for v in cells],
    }


def test_crossing_tetrahedra_do_not_load():
    # the two tetrahedra of a stella octangula: each corner of one lies
    # outside the other, no face is shared, yet both hold the centre
    mesh = _raw_mesh(3, _STELLA, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert conformity_violations(mesh, 10**9) == [] and hanging_vertex_violations(mesh, 10**9) == []
    assert overlap_violations(mesh) == [(0, 1)]
    with pytest.raises(MeshError, match=r"simplices \[0, 1, 2, 3\] and \[4, 5, 6, 7\] overlap"):
        SimplicialMesh.from_json_dict(_mesh_data(3, _STELLA, [(0, 1, 2, 3), (4, 5, 6, 7)]))


def test_face_sharing_tetrahedra_load():
    # two tetrahedra on either side of their common face
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    mesh = SimplicialMesh.from_json_dict(_mesh_data(3, points, [(0, 1, 2, 3), (1, 2, 3, 4)]))
    assert mesh.n_active == 2 and overlap_violations(mesh) == []


def test_volumes_match_fraction_determinants(mesh):
    # halved under bisection, and from Bareiss determinants on load
    meshes = [mesh]
    if not conformity_violations(mesh) and not overlap_violations(mesh):
        meshes.append(SimplicialMesh.from_json_dict(mesh.to_json_dict()))
    for m in meshes:
        for sid in m.active_ids():
            assert m.volume(sid) == fg.det_volume(m, m.simplices[sid].vertices)


def _fraction_geometry_table(mesh, element_ids):
    """The float geometry table as built from Fraction coordinates."""
    coords = np.array([[float(x) for x in c] for c in fg.coords(mesh)])
    vertices = coords[np.array([mesh.simplices[s].vertices for s in element_ids])]
    volumes = np.array([float(fg.det_volume(mesh, mesh.simplices[s].vertices)) for s in element_ids])
    inv = np.linalg.inv(np.swapaxes(vertices[:, 1:] - vertices[:, :1], 1, 2))
    gradients = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
    return vertices, volumes, gradients


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_geometry_table_is_bit_identical(mesh):
    space = LagrangeSpace(mesh, 1)
    for got, want in zip(space.geometry, _fraction_geometry_table(mesh, space.element_ids)):
        _assert_same_bits(got, want)


@pytest.mark.parametrize("dim, degrees", [(1, range(5)), (2, range(5)), (3, range(5)), (4, range(4))])
def test_vandermonde_inverse_matches_fraction_inverse(dim, degrees):
    for degree in degrees:
        ref = reference_element(dim, degree)
        vand = [[evaluate(monomial(mono), node) for mono in ref.monos] for node in ref.node_coords]
        want = fg.frac_mat_inv(vand)
        assert ref.vandermonde_inv == tuple(tuple(row) for row in want)


# -- deep meshes, large numerators and the exponent bound -------------------------------


def _lowest_terms_oracle(x: Fraction) -> list[int]:
    k = x.denominator.bit_length() - 1
    assert x.denominator == 1 << k
    return [x.numerator, k]


def test_deep_corner_mesh_round_trip():
    # 130 corner rounds in d=2 reach exponent 65: numerators beyond int64
    mesh = kuhn_initial_mesh(2)
    pick = marking_policy("corner")
    for _ in range(130):
        mesh.refine_lg(pick(mesh, None), 1)
    assert mesh.exponent == 65
    assert max(abs(x) for p in mesh.points for x in p) >= 2**63
    data = mesh.to_json_dict()
    assert data["vertices"] == [[_lowest_terms_oracle(x) for x in c] for c in fg.coords(mesh)]
    text = json.dumps(data, sort_keys=True)
    loaded = SimplicialMesh.from_json_dict(json.loads(text))
    assert json.dumps(loaded.to_json_dict(), sort_keys=True) == text
    assert mesh.total_volume() == 1 and loaded.total_volume() == 1
    assert loaded.exponent == 65 and loaded.points == mesh.points
    space = LagrangeSpace(mesh, 1)
    want = np.array([[[float(x) for x in fg.coord(mesh, v)] for v in mesh.simplices[s].vertices] for s in space.element_ids])
    _assert_same_bits(space.geometry.vertices, want)


def test_geometry_rounds_large_numerators_like_fractions():
    # single triangles P, P + (a, 0), P + (0, b) with numerators up to 2**122
    # at exponents up to MAX_EXPONENT: float(n) * 2**-e is float(Fraction(n, 2**e))
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = int(rng.integers(0, MAX_EXPONENT + 1))
        bits = int(rng.integers(1, 123))
        px, py, a, b = (int.from_bytes(rng.bytes(16), "little") % (1 << bits) + 1 for _ in range(4))
        points = [(px, py), (px + a, py), (px, py + b)]
        data = {
            "version": 1,
            "dim": 2,
            "vertices": [[[x, e] for x in p] for p in points],
            "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0}],
        }
        mesh = SimplicialMesh.from_json_dict(data)
        want = np.array([[[float(Fraction(x, 2**e)) for x in p] for p in points]])
        _assert_same_bits(LagrangeSpace(mesh, 1).geometry.vertices, want)


def test_bisection_stops_at_the_exponent_bound():
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [[[0, 0], [0, 0]], [[1, MAX_EXPONENT], [0, 0]], [[0, 0], [1, MAX_EXPONENT]]],
        "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0}],
    }
    mesh = SimplicialMesh.from_json_dict(data)
    assert mesh.exponent == MAX_EXPONENT
    with pytest.raises(MeshError, match="exponent"):
        mesh.refine_closure(mesh.active_ids())
