import itertools
import json
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedproj.analytic import StabilityError
from gradedproj.mesh import (
    ClosureError,
    GradingError,
    MeshError,
    SimplicialMesh,
    UNREACHABLE,
    boundary_faces,
    closure_benchmark,
    conformity_violations,
    element_distance,
    grading_of,
    hanging_vertex_violations,
    kuhn_initial_mesh,
    level_gap,
    marking_policy,
    max_operator,
)
from conftest import distance_matrix, neighbor_lists, randomly_refined
from fraction_geometry import coord, coord_ids, diameter2, midpoint, similarity_classes
from oracles import connected, reference_simplex_mesh, save_mesh


class CoordinateClosureMesh(SimplicialMesh):
    """Reference closure without the edge -> midpoint map: a simplex hangs
    when the exact midpoint of one of its edges is a vertex (Fraction
    coordinates hashed, recorded as vertices are added), and every worklist
    pass ends with a sweep over all active simplices.  strays counts the
    simplices a sweep found, i.e. those the worklist missed."""

    strays = 0

    def __init__(self, dim):
        super().__init__(dim)
        self.fraction_ids = {}

    @classmethod
    def of(cls, mesh: SimplicialMesh) -> "CoordinateClosureMesh":
        other = mesh.copy()
        other.__class__ = cls
        other.fraction_ids = coord_ids(other)
        return other

    def add_vertex(self, point):
        vid = super().add_vertex(point)
        self.fraction_ids[coord(self, vid)] = vid
        return vid

    def hanging_edge(self, sid):
        for a, b in itertools.combinations(self.simplices[sid].vertices, 2):
            if midpoint(coord(self, a), coord(self, b)) in self.fraction_ids:
                return a, b
        return None

    def refine_closure(self, marked):
        marked = sorted(set(marked))
        for sid in marked:
            if sid not in self._active:
                raise MeshError(f"marked simplex {sid} is not active")
        budget = 64 * (self.max_level() + self.dim + 1) * (self.n_active + len(marked) + 1)
        work = deque()
        for sid in marked:
            self._bisect_and_queue(sid, work)
            budget -= 1
        sweeps = 0
        while True:
            while work:
                sid = work.popleft()
                if sid not in self._active:
                    continue
                if self.hanging_edge(sid) is None:
                    continue
                self._bisect_and_queue(sid, work)
                budget -= 1
                if budget < 0:
                    raise ClosureError("closure iteration cap exceeded; tag configuration invalid")
            stray = [sid for sid in self.active_ids() if self.hanging_edge(sid) is not None]
            if not stray:
                return self
            self.strays += len(stray)
            sweeps += 1
            if sweeps > 64 * (self.max_level() + 1):
                raise ClosureError("closure sweep cap exceeded; tag configuration invalid")
            work.extend(stray)


class StarRebuildMesh(SimplicialMesh):
    """Reference limited grading without maintained vertex stars: stars are
    rebuilt from the active simplices on every query, every LG round scans
    all of them, and the owners of a split edge are found by a scan of the
    active simplices.  Reads no incidence map of the mesh."""

    @classmethod
    def of(cls, mesh: SimplicialMesh) -> "StarRebuildMesh":
        other = mesh.copy()
        other.__class__ = cls
        return other

    def vertex_stars(self):
        stars = {}
        for sid in self.active_ids():
            for v in self.simplices[sid].vertices:
                stars.setdefault(v, []).append(sid)
        return stars

    def corner(self):
        origin = self.points.index((0,) * self.dim)
        return sorted(s for s in self.active_ids() if origin in self.simplices[s].vertices)

    def _bisect_and_queue(self, sid, work):
        a, b = self.refinement_edge(sid)
        c1, c2, _ = self.bisect(sid)
        work.append(c1)
        work.append(c2)
        work.extend(s for s in self.active_ids() if {a, b} <= set(self.simplices[s].vertices))

    def lg_violation(self, alpha):
        for star in self.vertex_stars().values():
            lo = min(star, key=lambda s: self.simplices[s].level)
            hi = max(star, key=lambda s: self.simplices[s].level)
            if self.simplices[hi].level - self.simplices[lo].level > alpha:
                return lo, hi
        return None

    def refine_lg(self, marked, alpha):
        pair = self.lg_violation(alpha)
        if pair is not None:
            raise GradingError(f"input mesh violates limited grading: simplices {pair}", pair)
        current = sorted(set(marked))
        while current:
            self.refine_closure(current)
            current = self._lg_marked(alpha)
        return self

    def _lg_marked(self, alpha):
        lagging = set()
        for star in self.vertex_stars().values():
            top = max(self.simplices[s].level for s in star)
            lagging.update(s for s in star if self.simplices[s].level < top - alpha)
        return sorted(lagging)


def test_kuhn_counts():
    m = kuhn_initial_mesh(2, 1)
    assert m.n_active == 2 and len(m.points) == 4
    m = kuhn_initial_mesh(3, 1)
    assert m.n_active == 6 and len(m.points) == 8
    m = kuhn_initial_mesh(2, 2)
    assert m.n_active == 8 and len(m.points) == 9


def test_kuhn_levels_tags_volume():
    for d in (1, 2, 3, 4):
        m = kuhn_initial_mesh(d, 1)
        for sid in m.active_ids():
            s = m.simplices[sid]
            assert s.level == 0 and s.tag == d
            assert m.volume(sid) > 0
        assert m.total_volume() == 1
        assert not hanging_vertex_violations(m)


def test_kuhn_rejects_bad_input():
    with pytest.raises(MeshError):
        kuhn_initial_mesh(0)
    with pytest.raises(MeshError):
        kuhn_initial_mesh(9)
    with pytest.raises(MeshError):
        kuhn_initial_mesh(2, 0)


def test_bisect_children():
    m = kuhn_initial_mesh(2, 1)
    sid = m.active_ids()[0]
    parent_vol = m.volume(sid)
    c1, c2, z = m.bisect(sid)
    assert sid not in m.active_ids()
    for c in (c1, c2):
        s = m.simplices[c]
        assert s.level == 1 and s.parent == sid
        assert z in s.vertices
        assert m.volume(c) == parent_vol / 2
    with pytest.raises(MeshError):
        m.bisect(sid)


def test_volume_conservation_exact(mesh2d, mesh3d):
    assert mesh2d.total_volume() == 1
    assert mesh3d.total_volume() == 1


def test_closure_empty_marking_is_identity():
    m = kuhn_initial_mesh(2, 1)
    before = set(m.active_ids())
    m.refine_closure([])
    assert set(m.active_ids()) == before


def test_closure_single_mark_conforms():
    m = kuhn_initial_mesh(2, 1)
    m.refine_closure([m.active_ids()[0]])
    assert not hanging_vertex_violations(m)
    assert not conformity_violations(m)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 10_000))
def test_closure_random_rounds_conform(dim, seed):
    m = kuhn_initial_mesh(dim, 1)
    rng = np.random.default_rng(seed)
    n_marked_total = 0
    n_before = m.n_active
    for _ in range(4):
        ids = m.active_ids()
        marked = [s for s in ids if rng.random() < 0.3] or ids[:1]
        n_marked_total += len(marked)
        m.refine_closure(marked)
        assert not hanging_vertex_violations(m)
    # every marked simplex was bisected, so at least one new element each
    assert m.n_active - n_before >= n_marked_total
    assert not conformity_violations(m, limit=1)
    assert m.total_volume() == 1


def _geometric_state(m):
    return frozenset(
        tuple(sorted(coord(m, v) for v in m.simplices[s].vertices)) for s in m.active_ids()
    )


def _brute_force_minimal_closure(mesh, marked, max_depth=8, max_states=60_000):
    """Breadth-first search over arbitrary bisection sequences: the smallest
    conforming mesh in which every marked simplex is bisected.  Independent of
    the closure routine (no hanging-vertex pruning)."""
    marked_geo = {
        tuple(sorted(coord(mesh, v) for v in mesh.simplices[s].vertices)) for s in marked
    }
    start = mesh.copy()
    queue = deque([(start, 0)])
    seen = {_geometric_state(start)}
    explored = 0
    while queue:
        m, depth = queue.popleft()
        explored += 1
        if explored > max_states:
            raise RuntimeError("state budget exhausted")
        active_geo = {
            tuple(sorted(coord(m, v) for v in m.simplices[s].vertices)) for s in m.active_ids()
        }
        if not (active_geo & marked_geo) and not hanging_vertex_violations(m):
            return depth, _geometric_state(m)
        if depth >= max_depth:
            continue
        for sid in m.active_ids():
            child = m.copy()
            child.bisect(sid)
            state = _geometric_state(child)
            if state not in seen:
                seen.add(state)
                queue.append((child, depth + 1))
    raise RuntimeError("no conforming refinement within the depth budget")


def test_closure_minimality_brute_force():
    # closure output == the global minimum over all bisection sequences
    cases = []
    m = kuhn_initial_mesh(2, 1)
    cases.append((m, [m.active_ids()[0]]))
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(1)
    cases.append((m, [m.active_ids()[1]]))
    m = kuhn_initial_mesh(2, 1)
    m.refine_uniform(1)
    m.refine_closure([m.active_ids()[0]])
    assert m.n_active <= 16
    deepest = max(m.active_ids(), key=lambda s: m.simplices[s].level)
    cases.append((m, [deepest]))
    for base, marked in cases:
        ours = base.copy()
        before = ours.n_active
        ours.refine_closure(marked)
        our_count = ours.n_active - before  # each bisection adds one element
        best_count, best_state = _brute_force_minimal_closure(base, marked)
        assert our_count == best_count
        assert _geometric_state(ours) == best_state


def test_closure_order_independent():
    m0 = randomly_refined(2, 3, seed=4)
    ids = m0.active_ids()
    marked = ids[::3]

    def geometric_signature(m):
        return frozenset(
            tuple(sorted(coord(m, v) for v in m.simplices[s].vertices))
            for s in m.active_ids()
        )

    reference = None
    for perm_seed in range(4):
        m = m0.copy()
        order = list(marked)
        np.random.default_rng(perm_seed).shuffle(order)
        for sid in order:
            m.refine_closure([sid])
        signature = geometric_signature(m)
        if reference is None:
            reference = signature
        assert signature == reference
    m = m0.copy()
    m.refine_closure(marked)
    assert geometric_signature(m) == reference


def test_uniform_sweeps_halve_h():
    for d in (2, 3):
        m = kuhn_initial_mesh(d, 1)
        m.refine_uniform(d)
        levels = {m.simplices[s].level for s in m.active_ids()}
        assert levels == {d}
        assert m.n_active == kuhn_initial_mesh(d, 1).n_active * 2**d
        assert set(m.h_values().values()) == {0.5}


def test_similarity_classes_stabilize():
    for d in (2, 3):
        m = kuhn_initial_mesh(d, 1)
        m.refine_uniform(3 * d)
        classes = similarity_classes(m)
        m.refine_uniform(d)
        assert similarity_classes(m) == classes


def test_diameter_vs_h_equivalence(mesh2d):
    # h_T / h|_T takes finitely many values on meshes from one initial mesh
    ratios = set()
    for sid in mesh2d.active_ids():
        level = mesh2d.simplices[sid].level
        ratios.add(diameter2(mesh2d, sid) * Fraction(2) ** level)  # (h_T / h|_T)^2 in 2d
    assert len(ratios) <= 4
    vals = sorted(float(r) for r in ratios)
    assert vals[0] > 0


def test_refine_lg_empty_marking_identity(mesh2d):
    m = mesh2d.copy()
    before = set(m.active_ids())
    m.refine_lg([], alpha=1)
    assert set(m.active_ids()) == before


def test_refine_lg_precondition_violation_reports_pair():
    m = kuhn_initial_mesh(2, 1)
    # force a steep level gap with plain closure refinements at a corner
    for _ in range(6):
        corner = marking_policy("corner")(m, np.random.default_rng(0))
        m.refine_closure(corner)
    gap = level_gap(m, element_distance(m, "vertex"))
    assert gap > 1
    with pytest.raises(GradingError) as err:
        m.refine_lg([m.active_ids()[0]], alpha=1)
    lo, hi = err.value.pair
    assert m.simplices[hi].level - m.simplices[lo].level > 1


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3]),
    alpha=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 10_000),
)
def test_refine_lg_limited_grading_holds(dim, alpha, seed):
    m = kuhn_initial_mesh(dim, 1)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        ids = m.active_ids()
        marked = [s for s in ids if rng.random() < 0.25] or ids[:1]
        m.refine_lg(marked, alpha)
        assert m.lg_violation(alpha) is None
    assert level_gap(m, element_distance(m, "vertex")) <= alpha


def test_refine_lg_single_simplex_level_bound():
    # newly created simplices exceed the marked level by at most one
    for d in (2, 3):
        m = randomly_refined(d, 3, alpha=1, seed=9, fraction=0.2)
        sid = max(m.active_ids(), key=lambda s: m.simplices[s].level)
        level = m.simplices[sid].level
        before = set(m.active_ids())
        m.refine_lg([sid], alpha=1)
        new = [s for s in m.active_ids() if s not in before]
        assert new
        assert max(m.simplices[s].level for s in new) <= level + 1


def test_element_distance_basics(mesh2d):
    dist = element_distance(mesh2d, "vertex")
    ids = dist.ids
    assert dist.dist_sets([ids[0]], [ids[0]]) == 0
    mat = distance_matrix(dist)
    assert np.all(mat == mat.T)
    assert np.all(np.diag(mat) == 0)
    assert connected(dist)
    # triangle inequality on a sample
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j, k = rng.integers(0, dist.n, size=3)
        assert mat[i, j] <= mat[i, k] + mat[k, j]


def test_vertex_vs_face_distance():
    # 2x2 grid: pick two triangles meeting only at the center vertex
    m = kuhn_initial_mesh(2, 2)
    dv = element_distance(m, "vertex")
    df = element_distance(m, "face")
    center = m.points.index((1, 1))
    star = [s for s in m.active_ids() if center in m.simplices[s].vertices]
    found = False
    for a, b in itertools.combinations(star, 2):
        shared = set(m.simplices[a].vertices) & set(m.simplices[b].vertices)
        if shared == {center}:
            assert dv.dist_sets([a], [b]) == 1
            assert df.dist_sets([a], [b]) == 2
            found = True
            break
    assert found


def test_face_distance_on_strip():
    # 1 x n strip of squares: the face-dual graph is a path of 2n triangles
    n = 4
    m = kuhn_initial_mesh(2, n)
    keep = [
        s
        for s in m.active_ids()
        if all(m.points[v][1] <= 1 for v in m.simplices[s].vertices)
    ]
    strip = SimplicialMesh(2)
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [[[x, 0] for x in p] for p in m.points],
        "simplices": [
            {"v": list(m.simplices[s].vertices), "tag": 2, "level": 0} for s in keep
        ],
        "gamma_faces": [],
    }
    strip = SimplicialMesh.from_json_dict(data)
    df = element_distance(strip, "face")
    assert distance_matrix(df).max() == 2 * n - 1


def test_disconnected_distance_sentinel():
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [
            [[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]],
            [[5, 0], [0, 0]], [[6, 0], [0, 0]], [[5, 0], [1, 0]],
        ],
        "simplices": [
            {"v": [0, 1, 2], "tag": 2, "level": 0},
            {"v": [3, 4, 5], "tag": 2, "level": 0},
        ],
        "gamma_faces": [],
    }
    m = SimplicialMesh.from_json_dict(data)
    dist = element_distance(m, "vertex")
    assert not connected(dist)
    a, b = dist.ids
    assert dist.dist_sets([a], [b]) == UNREACHABLE


def test_grading_of_constant_and_powers(mesh2d):
    dist = element_distance(mesh2d, "vertex")
    const = {s: Fraction(7) for s in dist.ids}
    assert grading_of(const, dist) == 1
    src = dist.ids[0]
    shells = dist.from_source(src)
    weight = {s: Fraction(3) ** int(shells[i]) for i, s in enumerate(dist.ids)}
    assert grading_of(weight, dist) == 3
    with pytest.raises(GradingError):
        grading_of({s: 0 for s in dist.ids}, dist)


def test_face_grading_of_h_is_two_to_inv_d():
    for d in (2, 3):
        m = randomly_refined(d, 3, alpha=3, seed=21, fraction=0.25)
        dist = element_distance(m, "face")
        gap = level_gap(m, dist)
        assert gap == 1  # face neighbors differ by at most one level
        gamma = grading_of(m.h_values(), dist)
        assert abs(gamma - 2 ** (1 / d)) < 1e-12


def test_closure_benchmark_uniform_ratio():
    m = kuhn_initial_mesh(2, 1)
    rep = closure_benchmark(m, "uniform", 4, alpha=1, seed=0)
    assert rep.ratio is not None and rep.ratio <= 2
    assert all(r <= 2 for r in rep.ratios())


def test_closure_benchmark_noop():
    m = kuhn_initial_mesh(2, 1)
    rep = closure_benchmark(m, lambda mesh, rng: [], 3, alpha=1, seed=0)
    assert rep.ratio is None
    assert rep.total_marked == 0


def test_marking_policies(mesh2d):
    rng = np.random.default_rng(0)
    assert marking_policy("uniform")(mesh2d, rng) == mesh2d.active_ids()
    corner = marking_policy("corner")(mesh2d, rng)
    origin = mesh2d.points.index((0, 0))
    assert corner and all(origin in mesh2d.simplices[s].vertices for s in corner)
    picks = marking_policy("random-count:5")(mesh2d, rng)
    assert len(picks) == 5 and set(picks) <= set(mesh2d.active_ids())
    with pytest.raises(MeshError):
        marking_policy("bogus")


def test_gamma_faces_track_boundary(mesh2d):
    # marked boundary stays a partition of the geometric boundary
    gamma = mesh2d.gamma_faces
    assert gamma == boundary_faces(mesh2d)
    total = Fraction(0)
    for face in gamma:
        a, b = sorted(face)
        pa, pb = coord(mesh2d, a), coord(mesh2d, b)
        assert all(x in (0, 1) for p in (pa, pb) for x in p if x in (0, 1))
        total += max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1]))
    assert total == 4  # unit square perimeter


def test_json_roundtrip(tmp_path, mesh3d):
    path = tmp_path / "mesh.json"
    save_mesh(mesh3d, path)
    loaded = SimplicialMesh.load(path)
    assert loaded.dim == mesh3d.dim
    assert loaded.n_active == mesh3d.n_active
    assert loaded.total_volume() == mesh3d.total_volume()
    assert loaded.gamma_faces == {
        frozenset(sorted(f)) for f in (set(map(frozenset, mesh3d.gamma_faces)))
    } or loaded.gamma_faces == mesh3d.gamma_faces
    sig = lambda m: sorted(
        (tuple(sorted(coord(m, v) for v in m.simplices[s].vertices)), m.simplices[s].level)
        for s in m.active_ids()
    )
    assert sig(loaded) == sig(mesh3d)


def test_json_rejects_bad_version(tmp_path):
    with pytest.raises(MeshError):
        SimplicialMesh.from_json_dict({"version": 2, "dim": 2, "vertices": [], "simplices": []})


def test_reference_simplex_mesh():
    from math import factorial

    for d in (1, 2, 3):
        m = reference_simplex_mesh(d)
        assert m.n_active == 1
        assert m.total_volume() == Fraction(1, factorial(d))


def test_dimension_four_closure():
    m = kuhn_initial_mesh(4, 1)
    assert m.n_active == 24  # 4! Kuhn simplices
    rng = np.random.default_rng(2)
    for _ in range(2):
        ids = m.active_ids()
        m.refine_closure([s for s in ids if rng.random() < 0.2] or ids[:1])
        assert not hanging_vertex_violations(m)
    assert m.total_volume() == 1
    assert level_gap(m, element_distance(m, "face")) <= 1


def _euclid_dist2(mesh, a, b) -> float:
    best = None
    for va in mesh.simplices[a].vertices:
        for vb in mesh.simplices[b].vertices:
            d2 = float(sum((x - y) ** 2 for x, y in zip(coord(mesh, va), coord(mesh, vb))))
            if best is None or d2 < best:
                best = d2
    return best


def test_new_simplices_stay_near_marked():
    # dist(T, T') * 2^(level(T')/d) stays bounded for newly created T'
    for d, alpha in ((2, 1), (3, 2)):
        m = kuhn_initial_mesh(d, 1)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(10):
            ids = m.active_ids()
            target = ids[int(rng.integers(len(ids)))]
            before = set(ids)
            m.refine_lg([target], alpha)
            for sid in m.active_ids():
                if sid in before:
                    continue
                level = m.simplices[sid].level
                gap = math.sqrt(_euclid_dist2(m, target, sid))
                worst = max(worst, gap * 2.0 ** (level / d))
        assert worst < 40.0, worst


def _reload(mesh: SimplicialMesh, cls=SimplicialMesh) -> SimplicialMesh:
    return cls.from_json_dict(json.loads(json.dumps(mesh.to_json_dict())))


@pytest.mark.parametrize("policy", ["random-count:3", "random:0.3", "corner"])
@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_closure_matches_coordinate_oracle(dim, alpha, policy):
    # plain closure (alpha 0) and BiSecLG(alpha): the edge-map closure gives
    # the same mesh, vertex ids and simplex order as the coordinate-hashed,
    # sweeping closure, also after a JSON round trip empties the edge map
    target = {2: 400, 3: 400, 4: 300}[dim]
    ours = kuhn_initial_mesh(dim, 1)
    oracle = CoordinateClosureMesh.of(ours)
    pick = marking_policy(policy)
    rng_ours = np.random.default_rng(100 * dim + alpha)
    rng_oracle = np.random.default_rng(100 * dim + alpha)
    for round_ in range(30):
        if ours.n_active >= target:
            break
        if round_ == 3:
            ours, oracle = _reload(ours), _reload(oracle, CoordinateClosureMesh)
            assert not ours._edge_mid
        for mesh, rng in ((ours, rng_ours), (oracle, rng_oracle)):
            marked = pick(mesh, rng)
            if alpha:
                mesh.refine_lg(marked, alpha)
            else:
                mesh.refine_closure(marked)
        assert ours.to_json_dict() == oracle.to_json_dict()
        assert hanging_vertex_violations(ours, limit=10**9) == []
        assert oracle.strays == 0
    assert round_ > 3


def test_hanging_checker_reads_coordinates():
    # a bisection without closure leaves a hanging vertex that both the edge
    # map and the coordinate scan see; a reload forgets the map, not the scan
    m = kuhn_initial_mesh(2, 1)
    a, b = m.active_ids()
    m.bisect(a)
    assert m.hanging_edge(b) is not None
    found = hanging_vertex_violations(m, limit=10**9)
    assert [sid for sid, _ in found] == [b]
    m._edge_mid.clear()
    assert m.hanging_edge(b) is None
    assert hanging_vertex_violations(m, limit=10**9) == found


@pytest.mark.parametrize("dim", [2, 3, 4])
@given(
    alpha=st.sampled_from([1, 2]),
    rounds=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2**16)), min_size=1, max_size=10),
)
def test_random_marking_properties(dim, alpha, rounds):
    # BiSecLG(alpha) marking `count` random simplices per round, until the
    # mesh has a few hundred simplices (the geometric scan is O(V * N), and
    # costly in d=4): limited grading and exact volume after every round,
    # then conformity and a byte-identical JSON round trip
    m = kuhn_initial_mesh(dim, 1)
    volume = m.total_volume()
    for count, seed in rounds:
        if m.n_active > {2: 200, 3: 200, 4: 100}[dim]:
            break
        ids = m.active_ids()
        m.refine_lg(np.random.default_rng(seed).choice(ids, size=min(count, len(ids)), replace=False).tolist(), alpha)
        assert m.lg_violation(alpha) is None
        assert m.total_volume() == volume
    assert not conformity_violations(m)
    text = json.dumps(m.to_json_dict(), sort_keys=True)
    loaded = SimplicialMesh.from_json_dict(json.loads(text))
    assert json.dumps(loaded.to_json_dict(), sort_keys=True) == text
    assert loaded.total_volume() == volume  # recomputed from coordinates


def _scanned_stars(mesh: SimplicialMesh) -> list[set[int]]:
    stars = [set() for _ in mesh.points]
    for sid in mesh.active_ids():
        for v in mesh.simplices[sid].vertices:
            stars[v].add(sid)
    return stars


def _scanned_lg_violation(mesh: SimplicialMesh, stars: list[set[int]], alpha: int):
    # the first star in vertex-id order whose levels span more than alpha:
    # its lowest-level and its highest-level member, lowest ids on ties
    level = lambda s: mesh.simplices[s].level
    for star in stars:
        if star and max(map(level, star)) - min(map(level, star)) > alpha:
            return min(star, key=lambda s: (level(s), s)), min(star, key=lambda s: (-level(s), s))
    return None


def _assert_level_counts(mesh: SimplicialMesh) -> None:
    # the star level histograms, span counts and mesh-wide level histogram,
    # and the answers read from them, against full scans of the active simplices
    level = lambda s: mesh.simplices[s].level
    stars = _scanned_stars(mesh)
    hists = [dict(Counter(map(level, star))) for star in stars]
    assert mesh._star_levels == hists
    assert mesh._span_counts == dict(Counter(max(h) - min(h) for h in hists if len(h) > 1))
    assert mesh._level_counts == dict(Counter(map(level, mesh.active_ids())))
    assert mesh.max_level() == max(map(level, mesh.active_ids()), default=0)
    for alpha in (1, 2, 3):
        assert mesh.lg_violation(alpha) == _scanned_lg_violation(mesh, stars, alpha)


def _scanned_neighbors(mesh: SimplicialMesh, kind: str) -> list[list[int]]:
    # element graph from pairwise vertex intersections of the active simplices
    ids = mesh.active_ids()
    shared = mesh.dim if kind == "face" else 1
    verts = [set(mesh.simplices[s].vertices) for s in ids]
    return [[j for j in range(len(ids)) if j != i and len(verts[i] & verts[j]) >= shared] for i in range(len(ids))]


@pytest.mark.parametrize("policy", ["random-count:3", "random:0.3", "corner"])
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lg_matches_star_rebuild_oracle(dim, alpha, policy):
    # BiSecLG(alpha) with maintained stars, new-simplex LG rounds and star
    # intersections as edge owners gives the same mesh as full rebuilds and
    # scans, also after a JSON round trip; the stars and their level counts
    # equal a scan after every round, after copy() and after the round trip
    target = {2: 300, 3: 300, 4: 200}[dim]
    ours = kuhn_initial_mesh(dim, 1)
    oracle = StarRebuildMesh.of(ours)
    pick = marking_policy(policy)
    rng_ours = np.random.default_rng(10 * dim + alpha)
    rng_oracle = np.random.default_rng(10 * dim + alpha)
    for round_ in range(30):
        if ours.n_active >= target:
            break
        if round_ == 3:
            ours, oracle = _reload(ours), _reload(oracle, StarRebuildMesh)
            _assert_level_counts(ours)
        marked = pick(ours, rng_ours)
        assert marked == (oracle.corner() if policy == "corner" else pick(oracle, rng_oracle))
        ours.refine_lg(marked, alpha)
        oracle.refine_lg(marked, alpha)
        assert ours.to_json_dict() == oracle.to_json_dict()
        assert ours._stars == _scanned_stars(ours)
        _assert_level_counts(ours)
        _assert_level_counts(ours.copy())
        assert ours.lg_violation(alpha) is None and oracle.lg_violation(alpha) is None
    assert round_ > 3
    for kind in ("vertex", "face"):
        assert neighbor_lists(element_distance(ours, kind)) == _scanned_neighbors(ours, kind)


def test_unused_vertex_has_empty_star():
    # a mesh file may list a vertex no simplex uses: its star is empty and
    # the grading scans skip it
    data = kuhn_initial_mesh(2, 1).to_json_dict()
    data["vertices"].append([[3, 0], [3, 0]])
    m = SimplicialMesh.from_json_dict(data)
    assert m._stars[-1] == set()
    assert m.lg_violation(1) is None
    m.refine_lg(m.active_ids(), 1)
    m.refine_lg(marking_policy("corner")(m, np.random.default_rng(0)), 1)
    assert m.lg_violation(1) is None and m.n_active > 4 and m.total_volume() == 1
    assert m._stars == _scanned_stars(m) and m._stars[4] == set()
    assert not conformity_violations(m)


def test_lg_violation_tie_rule():
    # steep mesh from plain-closure corner rounds: the pair comes from the
    # first steep star in vertex-id order, its lowest-level and its
    # highest-level member, lowest id on ties
    m = kuhn_initial_mesh(2, 1)
    for _ in range(6):
        m.refine_closure(marking_policy("corner")(m, np.random.default_rng(0)))
    level = lambda s: m.simplices[s].level
    steep = [star for star in _scanned_stars(m) if star and max(map(level, star)) - min(map(level, star)) > 1]
    assert len(steep) > 1
    star = sorted(steep[0])
    expected = (min(star, key=lambda s: (level(s), s)), min(star, key=lambda s: (-level(s), s)))
    assert m.lg_violation(1) == expected
    with pytest.raises(GradingError) as err:
        m.refine_lg([m.active_ids()[0]], alpha=1)
    assert err.value.pair == expected


def _pair_loop_level_gap(mesh: SimplicialMesh, dist) -> int:
    # the former level_gap: every neighbor pair in a Python loop
    levels = [mesh.simplices[sid].level for sid in dist.ids]
    gap = 0
    for i, nbrs in enumerate(neighbor_lists(dist)):
        for j in nbrs:
            gap = max(gap, abs(levels[i] - levels[j]))
    return gap


def _steep_closure_mesh(dim: int, rounds: int) -> SimplicialMesh:
    m = kuhn_initial_mesh(dim, 1)
    for _ in range(rounds):
        m.refine_closure(marking_policy("corner")(m, np.random.default_rng(0)))
    return m


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_level_gap_matches_pair_loop(dim):
    # the array level_gap equals the pair loop for both kinds: on BiSecLG
    # meshes, on steep plain-closure meshes (gap > 1) and on one simplex (gap 0)
    meshes = {
        "lg": randomly_refined(dim, 3, alpha=2, seed=5, fraction=0.2),
        "steep": _steep_closure_mesh(dim, {2: 6, 3: 6, 4: 5}[dim]),
        "single": reference_simplex_mesh(dim),
    }
    gaps = {}
    for name, m in meshes.items():
        _assert_level_counts(m)
        for kind in ("vertex", "face"):
            dist = element_distance(m, kind)
            gap = level_gap(m, dist)
            assert type(gap) is int and gap == _pair_loop_level_gap(m, dist), (name, kind)
            gaps[name, kind] = gap
    assert gaps["steep", "vertex"] > 1
    assert gaps["single", "vertex"] == gaps["single", "face"] == 0


def test_span_counts_follow_plain_closure():
    # plain closure makes stars steeper than alpha = 1, 2 (corner rounds) and
    # random rounds bisect inside them: after every round the counts and
    # lg_violation match a scan
    m = kuhn_initial_mesh(2, 1)
    rng = np.random.default_rng(3)
    seen = set()
    for round_ in range(12):
        pick = "corner" if round_ < 6 else "random:0.3"
        m.refine_closure(marking_policy(pick)(m, rng))
        _assert_level_counts(m)
        seen.update(m._span_counts)
    assert max(seen) > 2


@pytest.mark.parametrize("value", [math.nan, math.inf, 0, -1])
def test_grading_of_and_max_operator_reject_bad_values(value):
    # grading_of needs finite positive values, max_operator finite ones (its
    # majorant is of |v|, so 0 and -1 pass), on a 2D Kuhn mesh
    m = kuhn_initial_mesh(2, 1)
    dist = element_distance(m, "vertex")
    a, b = dist.ids
    with pytest.raises(GradingError):
        grading_of({a: 1.0, b: value}, dist)
    if math.isfinite(value):
        assert max_operator({a: 1.0, b: value}, 2.0, dist) == {a: 1.0, b: max(abs(value), 0.5)}
    else:
        with pytest.raises(StabilityError):
            max_operator({a: 1.0, b: value}, 2.0, dist)
    with pytest.raises(StabilityError):
        max_operator({a: 1.0, b: 1.0}, value, dist)
