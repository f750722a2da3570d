"""Differential tests of the topology kernel (mesh.first_appearance over
node and face keys, the element graph as its incidence) against the loops
it replaced: node_key dictionaries for Lagrange dofs, the frozenset face
dictionary for Crouzeix-Raviart dofs, face_owners, the set-based adjacency
with its deque breadth-first search, the np.unique first-appearance
numbering of patch dofs, the list-based grading_of, level_gap, max_operator
and element report, and the pair-list readers (oracles.PairGraph) that the
incidence groups replaced.  Every comparison is exact, array for array."""

import heapq
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gradedproj.mesh import (
    SimplicialMesh,
    boundary_faces,
    element_distance,
    element_faces,
    first_appearance,
    grading_of,
    kuhn_initial_mesh,
    level_gap,
    marking_policy,
    max_operator,
    vertex_table,
    write_element_report,
)
from gradedproj.polyspace import CRSpace, LagrangeSpace, reference_element
from gradedproj.projection import _patch_numbers, _vertex_patches
from conftest import neighbor_lists, randomly_refined
from exact_algebra import node_keys
from oracles import PairGraph, reference_simplex_mesh, shared_id_graph
from test_decay_blocks import _components_mesh
from test_dofmap import _shuffled, node_key

# -- the replaced implementations, kept as oracles --------------------------------


def node_key_dofs(mesh, degree, zero_trace):
    """Lagrange numbering by a node_key dictionary: (n_dofs, dof table,
    node keys of the kept dofs, trace-face flags)."""
    ref = reference_element(mesh.dim, degree)
    gamma = mesh.gamma_faces if zero_trace else set()
    node_ids, on_gamma, table, flags = {}, set(), [], []
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        flags.append([frozenset(set(verts) - {drop}) in gamma for drop in verts])
        gamma_locals = [j for j, flag in enumerate(flags[-1]) if flag]
        for alpha in ref.monos:
            nid = node_ids.setdefault(node_key(verts, alpha), len(node_ids))
            table.append(nid)
            if any(alpha[j] == 0 for j in gamma_locals):
                on_gamma.add(nid)
    keep = [i for i in range(len(node_ids)) if i not in on_gamma]
    remap = {old: new for new, old in enumerate(keep)}
    dofs = np.array([remap.get(nid, -1) for nid in table]).reshape(mesh.n_active, len(ref.monos))
    keys = [key for i, key in enumerate(node_ids) if i not in on_gamma]
    return len(keep), dofs, keys, np.array(flags, dtype=bool)


def frozenset_faces(mesh):
    """Crouzeix-Raviart numbering by a frozenset face dictionary: (dof
    table, faces in number order)."""
    face_ids, table = {}, []
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        for drop in verts:  # local face j is opposite local vertex j
            table.append(face_ids.setdefault(frozenset(set(verts) - {drop}), len(face_ids)))
    return np.array(table).reshape(mesh.n_active, -1), sorted(face_ids, key=face_ids.get)


def face_owners(mesh):
    """Active simplices owning each (d-1)-face, in id order."""
    owners = {}
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        for drop in verts:
            owners.setdefault(frozenset(v for v in verts if v != drop), []).append(sid)
    return owners


def set_adjacency(mesh, kind):
    """Neighbor lists from per-element sets over the vertex stars or the
    face owners."""
    ids = mesh.active_ids()
    pos = {sid: i for i, sid in enumerate(ids)}
    nbr = [set() for _ in ids]
    groups = mesh._stars if kind == "vertex" else face_owners(mesh).values()
    for group in groups:
        for i, j in combinations([pos[s] for s in group], 2):
            nbr[i].add(j)
            nbr[j].add(i)
    return [sorted(s) for s in nbr]


def deque_bfs(neighbors, sources):
    dist = np.full(len(neighbors), -1, dtype=np.int32)
    queue = deque()
    for s in sources:
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        i = queue.popleft()
        for j in neighbors[i]:
            if dist[j] == -1:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def unique_first_appearance(ids):
    """Distinct nonnegative values of ids numbered in order of first
    appearance (C order), negative entries -1; and the values in that order."""
    flat = ids.ravel()
    keep = flat >= 0
    values, first, inverse = np.unique(flat[keep], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(values))
    out = np.full(flat.shape, -1, dtype=np.int64)
    out[keep] = rank[inverse]
    return out.reshape(ids.shape), values[order]


def loop_grading_of(values, ids, neighbors):
    gamma = 1
    vals = [values[sid] for sid in ids]
    for i, nbrs in enumerate(neighbors):
        for j in nbrs:
            if j > i:
                ratio = vals[j] / vals[i] if vals[j] >= vals[i] else vals[i] / vals[j]
                gamma = max(gamma, ratio)
    return gamma


def loop_level_gap(mesh, ids, neighbors):
    levels = [mesh.simplices[sid].level for sid in ids]
    return max((abs(levels[i] - levels[j]) for i, nbrs in enumerate(neighbors) for j in nbrs), default=0)


def list_max_operator(values, gamma, ids, neighbors):
    best = [abs(values[s]) for s in ids]
    heap = [(-v, i) for i, v in enumerate(best)]
    heapq.heapify(heap)
    settled = [False] * len(ids)
    while heap:
        negv, i = heapq.heappop(heap)
        if settled[i]:
            continue
        settled[i] = True
        relaxed = -negv / gamma
        for j in neighbors[i]:
            if not settled[j] and relaxed > best[j]:
                best[j] = relaxed
                heapq.heappush(heap, (-relaxed, j))
    return dict(zip(ids, best))


def loop_element_report(mesh, path):
    ids, neighbors = mesh.active_ids(), set_adjacency(mesh, "vertex")
    levels = {s: mesh.simplices[s].level for s in mesh.active_ids()}
    with open(path, "w") as fh:
        fh.write("id\tlevel\tvolume\th\tmin_neighbor_level\n")
        for i, sid in enumerate(ids):
            nbr_levels = [levels[ids[j]] for j in neighbors[i]] or [levels[sid]]
            fh.write(
                "%d\t%d\t%.12g\t%.12g\t%d\n"
                % (sid, levels[sid], float(mesh.volume(sid)), 2.0 ** (-levels[sid] / mesh.dim), min(nbr_levels))
            )


# -- meshes ---------------------------------------------------------------------------


def _with_unused_vertex(mesh):
    """The mesh through its JSON form, with one more vertex no simplex uses."""
    data = mesh.to_json_dict()
    data["vertices"].append([[7, 0]] * mesh.dim)
    return SimplicialMesh.from_json_dict(data)


def _two_triangles():
    """Two triangles far apart, two of their edges marked."""
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [[[x, 0], [y, 0]] for x, y in [(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1)]],
        "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0}, {"v": [3, 4, 5], "tag": 2, "level": 1}],
        "gamma_faces": [[0, 1], [4, 5]],
    }
    return SimplicialMesh.from_json_dict(data)


def _steep(dim, rounds):
    m = kuhn_initial_mesh(dim, 1)
    for _ in range(rounds):
        m.refine_closure(marking_policy("corner")(m, np.random.default_rng(0)))
    return m


MESHES = {
    "2-lg": lambda: randomly_refined(2, 5, seed=3),
    "2-steep": lambda: _steep(2, 6),
    "2-unused": lambda: _with_unused_vertex(randomly_refined(2, 3, seed=1)),
    "2-shuffled": lambda: _shuffled(randomly_refined(2, 4, seed=4), seed=2),
    "2-apart": _two_triangles,
    "2-single": lambda: reference_simplex_mesh(2, mark_boundary=True),
    "3-lg": lambda: randomly_refined(3, 2, seed=5, fraction=0.2),
    "3-steep": lambda: _steep(3, 5),
    "3-unused": lambda: _with_unused_vertex(randomly_refined(3, 2, seed=6, fraction=0.2)),
    "3-single": lambda: reference_simplex_mesh(3, mark_boundary=True),
    "4-lg": lambda: randomly_refined(4, 1, seed=2, fraction=0.1),
    "4-shuffled": lambda: _shuffled(randomly_refined(4, 1, seed=3, fraction=0.1), seed=4),
    "4-single": lambda: reference_simplex_mesh(4, mark_boundary=True),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


# -- dof numbering ---------------------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("zero_trace", [False, True])
def test_lagrange_dofs_match_node_key_numbering(mesh, degree, zero_trace):
    space = LagrangeSpace(mesh, degree, zero_trace=zero_trace)
    n_dofs, dofs, keys, flags = node_key_dofs(mesh, degree, zero_trace)
    d1 = mesh.dim + 1
    assert space.n_dofs == n_dofs and type(space.n_dofs) is int
    assert np.array_equal(space.dofs, dofs) and space.dofs.dtype == np.int64
    assert [tuple((v, k) for v, k in zip(row[:d1], row[d1:]) if k) for row in node_keys(space).tolist()] == keys
    assert np.array_equal(space.trace_faces, flags)
    assert not space.trace_faces.flags.writeable and not space.vertices.flags.writeable


def test_zero_trace_removes_dofs_somewhere():
    # the meshes above mark boundary faces, so the trace check is not vacuous
    for name in ("2-lg", "2-apart", "3-single", "4-lg"):
        mesh = MESHES[name]()
        assert LagrangeSpace(mesh, 2, zero_trace=True).n_dofs < LagrangeSpace(mesh, 2).n_dofs, name


def test_cr_dofs_match_frozenset_faces(mesh):
    space = CRSpace(mesh)
    dofs, faces = frozenset_faces(mesh)
    assert np.array_equal(space.dofs, dofs) and space.n_dofs == len(faces)
    assert [frozenset(face) for face in space.face_keys.tolist()] == faces
    assert all(list(face) == sorted(face) for face in space.face_keys.tolist())


def test_faces_match_face_owners(mesh):
    numbers, faces = element_faces(vertex_table(mesh, mesh.active_ids()))
    owners = face_owners(mesh)
    assert [frozenset(face) for face in faces.tolist()] == list(owners)
    assert np.bincount(numbers.ravel()).tolist() == [len(sids) for sids in owners.values()]
    assert boundary_faces(mesh) == {face for face, sids in owners.items() if len(sids) == 1}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 2, 5])
def test_first_appearance_matches_unique_numbering(seed, width):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 4, size=(300, width))
    numbers, first = first_appearance(table)
    scalar = table @ (4 ** np.arange(width))  # equal rows, equal scalars
    want, values = unique_first_appearance(scalar)
    assert np.array_equal(numbers, want) and np.array_equal(scalar[first], values)
    assert np.array_equal(first, np.sort(first)) and np.array_equal(numbers[first], np.arange(len(first)))
    empty, none = first_appearance(table[:0])
    assert len(empty) == len(none) == 0


@pytest.mark.parametrize("name", ["2-lg", "2-shuffled", "3-lg", "4-single"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_patch_numbers_match_unique_numbering(name, degree):
    # the patch numbers the assembly of the approximating operator reads
    # against per-patch np.unique numbering of the node_key ids with the
    # banned keys removed
    mesh = MESHES[name]()
    space = LagrangeSpace(mesh, degree, zero_trace=True)
    flags = node_key_dofs(mesh, degree, True)[3]
    low = reference_element(mesh.dim, degree - 1).monos
    key_ids = {}
    keys = np.array([[key_ids.setdefault(node_key(vs, a), len(key_ids)) for a in low] for vs in space.vertices.tolist()])
    banned = np.array([[any(a[jf] == 0 for jf in np.flatnonzero(flags[r]) if jf != j) for a in low]
                       for r in range(len(keys)) for j in range(mesh.dim + 1)]).reshape(len(keys), mesh.dim + 1, -1)
    table = _vertex_patches(space)
    flat = space.vertices.ravel()
    assert np.array_equal(table.vertices, np.unique(flat)) and len(table.patch) == len(flat)
    assert np.array_equal(table.patch, np.sort(table.patch))
    assert table.col_starts[0] == 0 and table.col_starts[-1] == len(table.cols)
    for p, vertex in enumerate(table.vertices.tolist()):
        rows, js = np.divmod(np.flatnonzero(flat == vertex), mesh.dim + 1)
        member_keys = keys[rows]
        pids, _ = unique_first_appearance(np.where(np.isin(member_keys, member_keys[banned[rows, js]]), -1, member_keys))
        cpos, gcols = unique_first_appearance(space.dofs[rows])
        members = table.patch == p
        assert np.array_equal(table.rows[members], rows) and np.array_equal(table.js[members], js)
        assert np.array_equal(table.pids[members], pids) and table.sizes[p] == pids.max() + 1
        assert np.array_equal(table.cols[table.col_starts[p] : table.col_starts[p + 1]], gcols)
        assert np.array_equal(table.cpos[members], cpos)


def test_patch_numbers_ban_per_patch():
    # id 5 is banned in one member of patch 0 only: -1 across patch 0, kept in patch 1
    patch = np.array([0, 0, 1])
    ids = np.array([[5, 7], [7, 5], [5, 9]])
    banned = np.array([[False, False], [False, True], [False, False]])
    numbers, counts, values = _patch_numbers(patch, ids, banned)
    assert numbers.tolist() == [[-1, 0], [0, -1], [0, 1]]
    assert counts.tolist() == [1, 2] and values.tolist() == [7, 5, 9]


# -- the element graph and its readers --------------------------------------------------


@pytest.mark.parametrize("kind", ["vertex", "face"])
def test_graph_and_shells_match_set_adjacency(mesh, kind):
    dist = element_distance(mesh, kind)
    neighbors = set_adjacency(mesh, kind)
    assert neighbor_lists(dist) == neighbors
    indptr, indices = shared_id_graph(dist.table)
    assert dist.ids == mesh.active_ids() and indices.dtype == indptr.dtype == np.int64
    rng = np.random.default_rng(dist.n)
    sources = range(dist.n) if dist.n <= 60 else rng.choice(dist.n, 12, replace=False)
    for s in sources:
        assert np.array_equal(dist.from_source(dist.ids[s]), deque_bfs(neighbors, [s]))
    for _ in range(4):
        left = sorted(rng.choice(dist.n, min(3, dist.n), replace=False).tolist())
        right = rng.choice(dist.n, min(2, dist.n), replace=False).tolist()
        shells = deque_bfs(neighbors, left)[right]
        want = -1 if (shells < 0).any() else int(shells.min())
        assert dist.dist_sets([dist.ids[i] for i in left], [dist.ids[i] for i in right]) == want


@pytest.mark.parametrize("kind", ["vertex", "face"])
def test_grading_readers_match_list_loops(mesh, kind):
    dist = element_distance(mesh, kind)
    ids, neighbors = dist.ids, set_adjacency(mesh, kind)
    gap = level_gap(mesh, dist)
    assert type(gap) is int and gap == loop_level_gap(mesh, ids, neighbors)
    rng = np.random.default_rng(len(ids))
    exact = {s: Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 9))) for s in ids}
    floats = {s: float(rng.uniform(0.1, 10.0)) for s in ids}
    for values in (mesh.h_values(), exact, floats):
        got, want = grading_of(values, dist), loop_grading_of(values, ids, neighbors)
        assert got == want and type(got) is type(want)
    for values, gamma in ((mesh.h_values(), 2.0), (floats, 1.5), (exact, Fraction(3, 2))):
        assert max_operator(values, gamma, dist) == list_max_operator(values, gamma, ids, neighbors)


def test_element_report_matches_loop(mesh, tmp_path):
    write_element_report(mesh, element_distance(mesh, "vertex"), tmp_path / "new.tsv")
    loop_element_report(mesh, tmp_path / "old.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


# -- the incidence groups against the pair list they replaced --------------------------


def _corner(dim, rounds):
    """Corner rounds of BiSecLG(1) on one Kuhn cube: a graded mesh around the
    origin, with the large vertex stars of the refined corner."""
    m = kuhn_initial_mesh(dim, 1)
    pick = marking_policy("corner")
    for _ in range(rounds):
        m.refine_lg(pick(m, np.random.default_rng(0)), 1)
    return m


def _assert_readers_match_pair_oracle(mesh, kind, tmp_path):
    dist, pairs = element_distance(mesh, kind), PairGraph(mesh, kind)
    # nothing per pair: the id table, its members and one pointer per group
    held = [a.size for a in vars(dist).values() if isinstance(a, np.ndarray)]
    assert sum(held) <= 3 * dist.n * (mesh.dim + 1) + 2
    assert dist.table.dtype == dist.members.dtype == dist.indptr.dtype == np.int64
    gap = level_gap(mesh, dist)
    assert type(gap) is int and gap == pairs.level_gap(mesh)
    rng = np.random.default_rng(dist.n)
    floats = {s: float(10.0 ** rng.uniform(-6, 6)) for s in dist.ids}  # twelve decades
    exact = {s: Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 9))) for s in dist.ids}
    for values in (mesh.h_values(), floats, exact):
        got, want = grading_of(values, dist), pairs.grading_of(values)
        assert got == want and type(got) is type(want)
    signed = {s: -v if i % 3 else v for i, (s, v) in enumerate(floats.items())}
    for values, gamma in (
        (mesh.h_values(), 2.0), (floats, 2.0), (floats, 1.7), (signed, 1 + 1e-9), (exact, Fraction(3, 2)),
    ):
        got, want = max_operator(values, gamma, dist), pairs.max_operator(values, gamma)
        assert got == want and [type(v) for v in got.values()] == [type(v) for v in want.values()]
    for s in range(dist.n):
        assert np.array_equal(dist.from_source(dist.ids[s]), pairs.bfs([s]))
    for _ in range(8):
        left, right = (rng.choice(dist.ids, rng.integers(1, min(5, dist.n) + 1), replace=False).tolist() for _ in "lr")
        assert dist.dist_sets(left, right) == pairs.dist_sets(left, right)
    if kind == "vertex":
        write_element_report(mesh, dist, tmp_path / "groups.tsv")
        pairs.write_element_report(mesh, tmp_path / "pairs.tsv")
        assert (tmp_path / "groups.tsv").read_bytes() == (tmp_path / "pairs.tsv").read_bytes()


@pytest.mark.parametrize("kind", ["vertex", "face"])
def test_incidence_readers_match_pair_oracle(mesh, kind, tmp_path):
    # level gap, grading, max operator, every distance row, set distances and
    # the element report equal the pair-list readers bit for bit
    _assert_readers_match_pair_oracle(mesh, kind, tmp_path)


@pytest.mark.parametrize("kind", ["vertex", "face"])
@pytest.mark.parametrize("which", ["corner", "components"])
def test_incidence_readers_match_pair_oracle_on_stars_and_pieces(which, kind, tmp_path):
    # a d=3 corner mesh of level 12 (vertex stars of up to 48 elements) and a
    # mesh of three separate pieces
    mesh = _corner(3, 12) if which == "corner" else _components_mesh()
    assert which != "corner" or mesh.max_level() >= 12
    _assert_readers_match_pair_oracle(mesh, kind, tmp_path)
