"""Differential tests of the integer mesh geometry (numerators at one mesh
exponent, one Bareiss elimination) against the Fraction geometry it
replaced (tests/fraction_geometry.py): the elimination itself, the hanging
vertex and conformity scans, volumes, the float geometry table, the
Vandermonde inverse, the JSON form of deep meshes, and the patch sparsity
pattern against its np.unique form."""

import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import fraction_geometry as fg
from exact_algebra import evaluate, monomial
import gradedproj.projection as projection
from conftest import randomly_refined
from gradedproj.mesh import (
    MAX_EXPONENT,
    MeshError,
    SimplicialMesh,
    bareiss,
    conformity_violations,
    hanging_vertex_violations,
    kuhn_initial_mesh,
    marking_policy,
)
from gradedproj.polyspace import LagrangeSpace, reference_element
from test_acceptance import MESH_SUITE

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
        mesh._add_simplex(tuple(verts), dim, 0, None, fg.det_volume(mesh, verts))
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
    assert found["2-unused"] == ([(0, (1, 2))], [(3, 0), (4, 0), (6, 0)])


def test_volumes_match_fraction_determinants(mesh):
    # halved under bisection, and from Bareiss determinants on load
    meshes = [mesh]
    if not conformity_violations(mesh):
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


# -- the patch sparsity pattern ------------------------------------------------------


def _csr_by_unique(keys, vals, n):
    """The former pattern builder, for one array of values: np.unique with
    the inverse, np.add.at into zeros and a COO conversion."""
    pattern, inverse = np.unique(keys, return_inverse=True)
    data = np.zeros(len(pattern))
    np.add.at(data, inverse, vals)
    out = sp.csr_matrix((data, np.divmod(pattern, n)), shape=(n, n))
    out.eliminate_zeros()
    return out


def test_patch_pattern_matches_unique_oracle(monkeypatch):
    # the form, apply and patch matrices of every criterion-3 mesh, each
    # value array of the one call against its own unique-based build, bit
    # for bit
    built = []
    sort_based = projection._csr_in_order

    def both(keys, values, n):
        got = sort_based(keys, values, n)
        assert len(values) == len(got) == 3
        built.extend(zip(got, (_csr_by_unique(keys, column, n) for column in values)))
        return got

    monkeypatch.setattr(projection, "_csr_in_order", both)
    for dim, degree, alpha, rounds, fraction, seed in MESH_SUITE:
        projection.Operators(LagrangeSpace(randomly_refined(dim, rounds, alpha=alpha, seed=seed, fraction=fraction), degree))
    assert len(built) == 3 * len(MESH_SUITE)
    for got, want in built:
        for part in ("indptr", "indices", "data"):
            _assert_same_bits(getattr(got, part), getattr(want, part))
