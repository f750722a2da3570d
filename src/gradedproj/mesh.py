"""Simplicial meshes under Maubach bisection.

Meshes live on dyadic-rational vertex coordinates, so midpoints, volumes and
vertex identity are exact.  Refinement is newest-vertex bisection in the
Maubach formulation: a simplex (x_0, ..., x_d) with tag k splits at the
midpoint z of (x_0, x_k) into

    child_1 = (x_0, ..., x_{k-1}, z, x_{k+1}, ..., x_d)
    child_2 = (x_1, ..., x_k,     z, x_{k+1}, ..., x_d)

both with tag k-1 (or d when k = 1) and level incremented by one.  Conforming
closure is a worklist loop that bisects the owners of already-split edges
(found through an edge -> midpoint vertex id map) until none remain; both
ways to gain a split edge, creation and a neighbor's bisection, queue the
simplex.  The limited-grading variant additionally bisects simplices whose
level lags more than alpha behind a touching neighbor.

The mesh keeps one incidence map, the star of each vertex (the active
simplices containing it): the owners of a split edge (a, b) are the
intersection of the stars of a and b, and touching simplices are those in a
common star.  After each closure round the limited-grading loop reads only
the stars of the simplices that round created.  That is enough: the mesh is
limited-graded on entry (checked by a full scan), and a steep pair of two
older simplices would have been steep before the round, so its lagging
member was marked and bisected in it; every steep star thus holds a new
simplex.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

UNREACHABLE = -1  # explicit sentinel for element distance in a disconnected mesh

Coord = tuple[Fraction, ...]


class MeshError(Exception):
    """Invalid mesh operation or broken mesh invariant."""


class ClosureError(MeshError):
    """Conforming closure exceeded its iteration cap (invalid tag configuration)."""


class GradingError(MeshError):
    """Limited-grading precondition violated."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass
class TaggedSimplex:
    index: int
    vertices: tuple[int, ...]  # bisection order
    tag: int
    level: int
    parent: int | None
    active: bool = True


def _dyadic(fr: Fraction) -> tuple[int, int]:
    """Encode a dyadic rational as (numerator, exponent) with value num / 2**exp."""
    den = fr.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise MeshError(f"coordinate {fr} is not dyadic")
    return fr.numerator, k


class SimplicialMesh:
    """Conforming complex of tagged simplices with exact dyadic coordinates."""

    def __init__(self, dim: int):
        if dim < 1:
            raise MeshError(f"unsupported dimension {dim}")
        self.dim = dim
        self.coords: list[Coord] = []
        self._coord_ids: dict[Coord, int] = {}
        self.simplices: dict[int, TaggedSimplex] = {}
        self._active: set[int] = set()
        self.gamma_faces: set[frozenset[int]] = set()
        self._stars: list[set[int]] = []  # vertex id -> active simplices containing it
        self._volumes: dict[int, Fraction] = {}
        self._edge_mid: dict[frozenset[int], int] = {}
        self._next_simplex = 0

    # -- basic structure ---------------------------------------------------

    def add_vertex(self, coord: Coord) -> int:
        vid = self._coord_ids.get(coord)
        if vid is None:
            vid = len(self.coords)
            self.coords.append(coord)
            self._coord_ids[coord] = vid
            self._stars.append(set())
        return vid

    def active_ids(self) -> list[int]:
        return sorted(self._active)

    @property
    def n_active(self) -> int:
        return len(self._active)

    def is_active(self, sid: int) -> bool:
        return sid in self._active

    def volume(self, sid: int) -> Fraction:
        vol = self._volumes.get(sid)
        if vol is None:
            vol = self._volumes[sid] = self._det_volume(self.simplices[sid].vertices)
        return vol

    def _det_volume(self, verts: Sequence[int]) -> Fraction:
        d = self.dim
        p0 = self.coords[verts[0]]
        rows = [[self.coords[v][i] - p0[i] for i in range(d)] for v in verts[1:]]
        det, _ = fraction_solve(rows, [()] * d)
        fact = 1
        for i in range(2, d + 1):
            fact *= i
        return abs(det) / fact

    def total_volume(self) -> Fraction:
        return sum((self.volume(s) for s in self._active), Fraction(0))

    def max_level(self) -> int:
        return max((self.simplices[s].level for s in self._active), default=0)

    def levels(self) -> dict[int, int]:
        return {s: self.simplices[s].level for s in self._active}

    def h_values(self) -> dict[int, float]:
        """Mesh size function h|_T = 2**(-level/d)."""
        d = self.dim
        return {s: 2.0 ** (-self.simplices[s].level / d) for s in self._active}

    def diameter2(self, sid: int) -> Fraction:
        verts = self.simplices[sid].vertices
        best = Fraction(0)
        for a, b in combinations(verts, 2):
            d2 = _dist2(self.coords[a], self.coords[b])
            if d2 > best:
                best = d2
        return best

    def _register(self, simplex: TaggedSimplex) -> None:
        self.simplices[simplex.index] = simplex
        self._active.add(simplex.index)
        for v in simplex.vertices:
            self._stars[v].add(simplex.index)

    def _deactivate(self, sid: int) -> None:
        simplex = self.simplices[sid]
        simplex.active = False
        self._active.discard(sid)
        for v in simplex.vertices:
            self._stars[v].discard(sid)

    def copy(self) -> "SimplicialMesh":
        other = SimplicialMesh(self.dim)
        other.coords = list(self.coords)
        other._coord_ids = dict(self._coord_ids)
        other.simplices = {
            sid: TaggedSimplex(s.index, s.vertices, s.tag, s.level, s.parent, s.active)
            for sid, s in self.simplices.items()
        }
        other._active = set(self._active)
        other.gamma_faces = set(self.gamma_faces)
        other._stars = [set(star) for star in self._stars]
        other._volumes = dict(self._volumes)
        other._edge_mid = dict(self._edge_mid)
        other._next_simplex = self._next_simplex
        return other

    # -- bisection ---------------------------------------------------------

    def refinement_edge(self, sid: int) -> tuple[int, int]:
        s = self.simplices[sid]
        return s.vertices[0], s.vertices[s.tag]

    def bisect(self, sid: int) -> tuple[int, int, int]:
        """Bisect one active simplex; returns (child1, child2, new_vertex).

        The mesh may be nonconforming afterwards; callers are responsible for
        closure.
        """
        if sid not in self._active:
            raise MeshError(f"simplex {sid} is not active")
        s = self.simplices[sid]
        k = s.tag
        v = s.vertices
        a, b = v[0], v[k]
        key = frozenset((a, b))
        zid = self._edge_mid.get(key)
        if zid is None:
            zid = self._edge_mid[key] = self.add_vertex(_midpoint(self.coords[a], self.coords[b]))
        new_tag = k - 1 if k > 1 else self.dim
        c1 = TaggedSimplex(self._next_simplex, v[:k] + (zid,) + v[k + 1 :], new_tag, s.level + 1, sid)
        c2 = TaggedSimplex(self._next_simplex + 1, v[1 : k + 1] + (zid,) + v[k + 1 :], new_tag, s.level + 1, sid)
        self._next_simplex += 2
        half = self.volume(sid) / 2
        self._deactivate(sid)
        self._split_gamma(s, a, b, zid)
        self._register(c1)
        self._register(c2)
        self._volumes[c1.index] = half
        self._volumes[c2.index] = half
        return c1.index, c2.index, zid

    def _split_gamma(self, s: TaggedSimplex, a: int, b: int, zid: int) -> None:
        if not self.gamma_faces:
            return
        vset = set(s.vertices)
        for drop in s.vertices:
            face = frozenset(vset - {drop})
            if face in self.gamma_faces and a in face and b in face:
                self.gamma_faces.discard(face)
                self.gamma_faces.add(face - {a} | {zid})
                self.gamma_faces.add(face - {b} | {zid})

    def hanging_edge(self, sid: int) -> tuple[int, int] | None:
        """First already-split edge of a simplex (its midpoint vertex exists);
        closure bisects the owners of such edges."""
        split = self._edge_mid
        for a, b in combinations(self.simplices[sid].vertices, 2):
            if frozenset((a, b)) in split:
                return a, b
        return None

    # -- conforming closure ------------------------------------------------

    def refine_closure(self, marked: Iterable[int]) -> "SimplicialMesh":
        """Smallest conforming refinement in which every marked simplex is bisected."""
        marked = sorted(set(marked))
        for sid in marked:
            if sid not in self._active:
                raise MeshError(f"marked simplex {sid} is not active")
        budget = 64 * (self.max_level() + self.dim + 1) * (self.n_active + len(marked) + 1)
        work: deque[int] = deque()
        for sid in marked:
            self._bisect_and_queue(sid, work)
            budget -= 1
        while work:
            sid = work.popleft()
            if sid not in self._active or self.hanging_edge(sid) is None:
                continue
            self._bisect_and_queue(sid, work)
            budget -= 1
            if budget < 0:
                raise ClosureError("closure iteration cap exceeded; tag configuration invalid")
        return self

    def _bisect_and_queue(self, sid: int, work: deque) -> None:
        a, b = self.refinement_edge(sid)
        c1, c2, _ = self.bisect(sid)
        work.append(c1)
        work.append(c2)
        # every remaining owner of the split edge now has a hanging vertex
        work.extend(sorted(self._stars[a] & self._stars[b]))

    def refine_uniform(self, sweeps: int = 1) -> "SimplicialMesh":
        for _ in range(sweeps):
            self.refine_closure(self.active_ids())
        return self

    # -- limited grading ---------------------------------------------------

    def _steep_stars(self, alpha: int, vertices: Iterable[int]) -> Iterator[tuple[int, list[int]]]:
        """(top, lagging) for each star of the given vertices whose levels span
        more than alpha: top is its lowest-id member of highest level, lagging
        its members more than alpha levels below top, in id order."""
        simplices = self.simplices
        for v in vertices:
            star = self._stars[v]
            top_level = max((simplices[s].level for s in star), default=0)
            lagging = sorted(s for s in star if simplices[s].level < top_level - alpha)
            if lagging:
                yield min(s for s in star if simplices[s].level == top_level), lagging

    def lg_violation(self, alpha: int) -> tuple[int, int] | None:
        """A pair (lo, hi) of touching simplices with level gap exceeding alpha,
        if any: from the first steep star in vertex-id order, its lowest-level
        and its highest-level member (lowest ids on ties)."""
        for top, lagging in self._steep_stars(alpha, range(len(self._stars))):
            return min(lagging, key=lambda s: self.simplices[s].level), top
        return None

    def refine_lg(self, marked: Iterable[int], alpha: int) -> "SimplicialMesh":
        """Closure refinement that in addition enforces the limited grading

        |level(T) - level(T')| <= alpha for all touching pairs T, T'.
        """
        if alpha < 1:
            raise MeshError("alpha must be a positive integer")
        pair = self.lg_violation(alpha)
        if pair is not None:
            raise GradingError(f"input mesh violates limited grading: simplices {pair}", pair)
        current = sorted(set(marked))
        rounds = 0
        max_rounds = 2 + (self.max_level() + alpha) // alpha + len(current)
        while current:
            rounds += 1
            if rounds > max_rounds:
                raise ClosureError("limited-grading loop exceeded its round bound")
            first_new = self._next_simplex
            self.refine_closure(current)
            # every steep star now holds a simplex this closure created
            new = range(first_new, self._next_simplex)
            touched = {v for sid in new if sid in self._active for v in self.simplices[sid].vertices}
            current = sorted({s for _, lagging in self._steep_stars(alpha, touched) for s in lagging})
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        verts = [[list(_dyadic(x)) for x in coord] for coord in self.coords]
        cells = [
            {"v": list(self.simplices[s].vertices), "tag": self.simplices[s].tag, "level": self.simplices[s].level}
            for s in self.active_ids()
        ]
        gamma = sorted(sorted(face) for face in self.gamma_faces)
        return {"version": 1, "dim": self.dim, "vertices": verts, "simplices": cells, "gamma_faces": gamma}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialMesh":
        """Mesh from its JSON form.  Malformed or nonconforming input (bad
        indices, tags or faces, a face owned by more than two simplices, a
        hanging vertex) raises MeshError."""
        version = data.get("version") if isinstance(data, dict) else None
        if version != 1:
            raise MeshError(f"unsupported mesh file version {version!r}")
        try:
            mesh = cls(int(data["dim"]))
            vertices = data["vertices"]
            for coord in vertices:
                if len(coord) != mesh.dim:
                    raise MeshError(f"vertex {coord} does not have {mesh.dim} coordinates")
                mesh.add_vertex(tuple(Fraction(num, 1 << k) for num, k in coord))
            cells = [(tuple(map(int, c["v"])), int(c["tag"]), int(c["level"])) for c in data["simplices"]]
            gamma = [tuple(map(int, face)) for face in data.get("gamma_faces", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshError(f"malformed mesh file: {type(exc).__name__}: {exc}") from exc
        n_vertices = len(mesh.coords)
        if n_vertices != len(vertices):
            raise MeshError("mesh file repeats a vertex")
        if not cells:
            raise MeshError("mesh file has no simplices")

        def check_ids(ids, size, what):
            if len(set(ids)) != size or not all(0 <= v < n_vertices for v in ids):
                raise MeshError(f"{what} {list(ids)} needs {size} distinct vertices in 0..{n_vertices - 1}")

        for verts, tag, level in cells:
            check_ids(verts, mesh.dim + 1, "simplex")
            if not 1 <= tag <= mesh.dim:
                raise MeshError(f"simplex {list(verts)} has tag {tag}, not in 1..{mesh.dim}")
            if level < 0:
                raise MeshError(f"simplex {list(verts)} has negative level {level}")
            if mesh._det_volume(verts) == 0:
                raise MeshError(f"degenerate simplex {verts}")
            mesh._register(TaggedSimplex(mesh._next_simplex, verts, tag, level, None))
            mesh._next_simplex += 1
        owners = face_owners(mesh)
        crowded = next((face for face, sids in owners.items() if len(sids) > 2), None)
        if crowded is not None:
            raise MeshError(f"face {sorted(crowded)} is owned by more than two simplices")
        for face in gamma:
            check_ids(face, mesh.dim, "gamma face")
            if len(owners.get(frozenset(face), ())) != 1:
                raise MeshError(f"gamma face {list(face)} is not a boundary face of the mesh")
        mesh.gamma_faces = {frozenset(face) for face in gamma}
        hanging = hanging_vertex_violations(mesh)
        if hanging:
            sid, (a, b) = hanging[0]
            raise MeshError(f"simplex {list(mesh.simplices[sid].vertices)} has a hanging vertex on its edge {[a, b]}")
        return mesh

    @classmethod
    def load(cls, path) -> "SimplicialMesh":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def fraction_solve(matrix: Sequence[Sequence], rhs: Sequence[Sequence]) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Exact Gauss-Jordan elimination: solves matrix @ X = rhs for an n x k
    block rhs (k may be 0) and returns (det(matrix), X), with X None when the
    matrix is singular."""
    n = len(matrix)
    m = [list(map(Fraction, row)) + list(map(Fraction, b)) for row, b in zip(matrix, rhs)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det, [row[n:] for row in m]


def _midpoint(p: Coord, q: Coord) -> Coord:
    return tuple((x + y) / 2 for x, y in zip(p, q))


def _dist2(p: Coord, q: Coord) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


# -- initial meshes ----------------------------------------------------------


def kuhn_initial_mesh(dim: int, cells_per_axis: int = 1, mark_boundary: bool = True) -> SimplicialMesh:
    """Kuhn triangulation of a grid of unit cubes, d! tagged simplices per cube.

    Vertices carry integer coordinates (the domain is [0, cells]^d), all tags
    are d and all levels 0.  Neighboring simplices are reflected copies of each
    other, which is what keeps repeated bisection conforming and deadlock free.
    """
    if not 1 <= dim <= 8:
        raise MeshError(f"unsupported dimension {dim}")
    if cells_per_axis < 1:
        raise MeshError("cells_per_axis must be >= 1")
    mesh = SimplicialMesh(dim)
    for offset in product(range(cells_per_axis), repeat=dim):
        base = tuple(Fraction(c) for c in offset)
        for perm in permutations(range(dim)):
            coords = [base]
            for axis in perm:
                prev = coords[-1]
                coords.append(tuple(x + 1 if i == axis else x for i, x in enumerate(prev)))
            verts = tuple(mesh.add_vertex(c) for c in coords)
            s = TaggedSimplex(mesh._next_simplex, verts, dim, 0, None)
            mesh._next_simplex += 1
            mesh._register(s)
            mesh._volumes[s.index] = Fraction(1, _factorial(dim))
    if mark_boundary:
        mesh.gamma_faces = boundary_faces(mesh)
    return mesh


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def reference_simplex_mesh(dim: int, mark_boundary: bool = False) -> SimplicialMesh:
    """A mesh of one reference simplex conv(0, e_1, ..., e_d), tag d, level 0."""
    mesh = SimplicialMesh(dim)
    verts = [mesh.add_vertex(tuple(Fraction(int(i == j - 1)) for i in range(dim))) for j in range(dim + 1)]
    s = TaggedSimplex(0, tuple(verts), dim, 0, None)
    mesh._next_simplex = 1
    mesh._register(s)
    if mark_boundary:
        mesh.gamma_faces = boundary_faces(mesh)
    return mesh


def face_owners(mesh: SimplicialMesh) -> dict[frozenset[int], list[int]]:
    """Active simplices owning each (d-1)-face, in id order."""
    owners: dict[frozenset[int], list[int]] = {}
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        for drop in verts:
            owners.setdefault(frozenset(v for v in verts if v != drop), []).append(sid)
    return owners


def boundary_faces(mesh: SimplicialMesh) -> set[frozenset[int]]:
    """Faces owned by exactly one active simplex."""
    return {face for face, sids in face_owners(mesh).items() if len(sids) == 1}


# -- element distances -------------------------------------------------------


class ElementDistance:
    """Integer geodesic distance on the element graph.

    kind "vertex": neighbors share at least a vertex (so distance 1 means a
    nonempty intersection on a conforming mesh).  kind "face": neighbors share
    a full (d-1)-face.  Distances to unreachable elements are UNREACHABLE.
    """

    def __init__(self, mesh: SimplicialMesh, kind: str = "vertex"):
        if kind not in ("vertex", "face"):
            raise MeshError(f"unknown distance kind {kind!r}")
        self.kind = kind
        self.ids = mesh.active_ids()
        self.pos = {sid: i for i, sid in enumerate(self.ids)}
        self.neighbors = self._build_adjacency(mesh)

    def _build_adjacency(self, mesh: SimplicialMesh) -> list[list[int]]:
        n = len(self.ids)
        nbr: list[set[int]] = [set() for _ in range(n)]
        groups = mesh._stars if self.kind == "vertex" else face_owners(mesh).values()
        for group in groups:
            idx = [self.pos[s] for s in group]
            for i, j in combinations(idx, 2):
                nbr[i].add(j)
                nbr[j].add(i)
        return [sorted(s) for s in nbr]

    @property
    def n(self) -> int:
        return len(self.ids)

    def from_source(self, sid: int) -> np.ndarray:
        return self._bfs([self.pos[sid]])

    def _bfs(self, sources: list[int]) -> np.ndarray:
        dist = np.full(self.n, UNREACHABLE, dtype=np.int32)
        queue = deque()
        for s in sources:
            if dist[s] != 0:
                dist[s] = 0
                queue.append(s)
        while queue:
            i = queue.popleft()
            base = dist[i] + 1
            for j in self.neighbors[i]:
                if dist[j] == UNREACHABLE:
                    dist[j] = base
                    queue.append(j)
        return dist

    def dist(self, a: int, b: int) -> int:
        return int(self.from_source(a)[self.pos[b]])

    def dist_sets(self, left: Iterable[int], right: Iterable[int]) -> int:
        left = [self.pos[s] for s in left]
        right = [self.pos[s] for s in right]
        if not left or not right:
            raise MeshError("element sets must be nonempty")
        dist = self._bfs(left)
        vals = dist[right]
        if np.any(vals == UNREACHABLE):
            return UNREACHABLE
        return int(vals.min())

    @property
    def connected(self) -> bool:
        return bool(np.all(self._bfs([0]) != UNREACHABLE)) if self.n else True


def element_distance(mesh: SimplicialMesh, kind: str = "vertex") -> ElementDistance:
    return ElementDistance(mesh, kind)


# -- grading -----------------------------------------------------------------


def grading_of(values: dict[int, object], dist: ElementDistance):
    """Smallest gamma making the piecewise-constant weight graded, i.e. the
    largest ratio of values across any distance-1 pair (at least 1)."""
    for sid, val in values.items():
        if val <= 0:
            raise GradingError(f"nonpositive value {val} on simplex {sid}")
    gamma = 1
    vals = [values[sid] for sid in dist.ids]
    for i, nbrs in enumerate(dist.neighbors):
        vi = vals[i]
        for j in nbrs:
            if j < i:
                continue
            ratio = vals[j] / vi if vals[j] >= vi else vi / vals[j]
            if ratio > gamma:
                gamma = ratio
    return gamma


def level_gap(mesh: SimplicialMesh, dist: ElementDistance) -> int:
    """Largest level difference across distance-1 pairs (exact h-grading:
    the grading of h = 2**(-level/d) equals 2**(gap/d))."""
    levels = [mesh.simplices[sid].level for sid in dist.ids]
    gap = 0
    for i, nbrs in enumerate(dist.neighbors):
        for j in nbrs:
            gap = max(gap, abs(levels[i] - levels[j]))
    return gap


# -- marking policies and the closure benchmark -------------------------------


def marking_policy(name: str) -> Callable[[SimplicialMesh, np.random.Generator], list[int]]:
    """Deterministic-by-seed marking policies: uniform, corner, random:<fraction>."""
    if name == "uniform":
        return lambda mesh, rng: mesh.active_ids()
    if name == "corner":
        def corner(mesh: SimplicialMesh, rng: np.random.Generator) -> list[int]:
            origin = tuple(Fraction(0) for _ in range(mesh.dim))
            vid = mesh._coord_ids.get(origin)
            if vid is None:
                raise MeshError("corner policy expects the origin to be a mesh vertex")
            return sorted(mesh._stars[vid])
        return corner
    if name.startswith("random:"):
        fraction = float(name.split(":", 1)[1])
        if not 0 < fraction <= 1:
            raise MeshError("random marking fraction must be in (0, 1]")
        def randomized(mesh: SimplicialMesh, rng: np.random.Generator) -> list[int]:
            ids = mesh.active_ids()
            picks = [s for s in ids if rng.random() < fraction]
            return picks or [ids[int(rng.integers(len(ids)))]]
        return randomized
    if name.startswith("random-count:"):
        count = int(name.split(":", 1)[1])
        if count < 1:
            raise MeshError("random marking count must be >= 1")
        def counted(mesh: SimplicialMesh, rng: np.random.Generator) -> list[int]:
            ids = mesh.active_ids()
            take = min(count, len(ids))
            picks = rng.choice(len(ids), size=take, replace=False)
            return sorted(ids[i] for i in picks)
        return counted
    raise MeshError(f"unknown marking policy {name!r}")


@dataclass
class ClosureReport:
    rounds: int
    marked_per_round: list[int]
    elements_per_round: list[int]
    initial_elements: int

    @property
    def total_marked(self) -> int:
        return sum(self.marked_per_round)

    @property
    def added_elements(self) -> int:
        return self.elements_per_round[-1] - self.initial_elements if self.elements_per_round else 0

    @property
    def ratio(self) -> float | None:
        """(#T_n - #T_0) / sum(#M_m); None when nothing was ever marked."""
        if self.total_marked == 0:
            return None
        return self.added_elements / self.total_marked

    def ratios(self) -> list[float]:
        out = []
        marked_sum = 0
        for m, n in zip(self.marked_per_round, self.elements_per_round):
            marked_sum += m
            out.append((n - self.initial_elements) / marked_sum if marked_sum else 0.0)
        return out


def closure_benchmark(
    mesh: SimplicialMesh,
    policy: str | Callable,
    rounds: int,
    alpha: int = 1,
    seed: int = 0,
) -> ClosureReport:
    """Run BiSecLG(alpha) repeatedly and record the closure ratio per round."""
    pick = marking_policy(policy) if isinstance(policy, str) else policy
    rng = np.random.default_rng(seed)
    marked_counts: list[int] = []
    sizes: list[int] = []
    n0 = mesh.n_active
    for _ in range(rounds):
        marked = pick(mesh, rng)
        marked_counts.append(len(marked))
        if marked:
            mesh.refine_lg(marked, alpha)
        sizes.append(mesh.n_active)
    return ClosureReport(rounds, marked_counts, sizes, n0)


# -- verification helpers ------------------------------------------------------


def hanging_vertex_violations(mesh: SimplicialMesh, limit: int = 1) -> list[tuple[int, tuple[int, int]]]:
    """Coordinate scan: active simplices owning an edge whose exact midpoint is
    an existing vertex.  Independent of the edge -> midpoint map, so it also
    validates loaded meshes, whose map starts empty."""
    out = []
    for sid in mesh.active_ids():
        for a, b in combinations(mesh.simplices[sid].vertices, 2):
            if _midpoint(mesh.coords[a], mesh.coords[b]) in mesh._coord_ids:
                out.append((sid, (a, b)))
                if len(out) >= limit:
                    return out
                break
    return out


def conformity_violations(mesh: SimplicialMesh, limit: int = 1) -> list[tuple[int, int]]:
    """Geometric scan: pairs (vertex, simplex) where the vertex lies inside the
    closed simplex without being one of its corners.  Exact, O(V * N); meant
    for test meshes."""
    out: list[tuple[int, int]] = []
    active = mesh.active_ids()
    boxes = {}
    for sid in active:
        pts = [mesh.coords[v] for v in mesh.simplices[sid].vertices]
        lo = tuple(min(p[i] for p in pts) for i in range(mesh.dim))
        hi = tuple(max(p[i] for p in pts) for i in range(mesh.dim))
        boxes[sid] = (lo, hi)
    for vid, coord in enumerate(mesh.coords):
        for sid in active:
            verts = mesh.simplices[sid].vertices
            if vid in verts:
                continue
            lo, hi = boxes[sid]
            if any(coord[i] < lo[i] or coord[i] > hi[i] for i in range(mesh.dim)):
                continue
            if _contains(mesh, verts, coord):
                out.append((vid, sid))
                if len(out) >= limit:
                    return out
    return out


def _contains(mesh: SimplicialMesh, verts: Sequence[int], point: Coord) -> bool:
    bary = barycentric_coordinates(mesh, verts, point)
    return bary is not None and all(b >= 0 for b in bary)


def barycentric_coordinates(mesh: SimplicialMesh, verts: Sequence[int], point: Coord) -> list[Fraction] | None:
    """Exact barycentric coordinates of a point w.r.t. a simplex, or None if
    the defining system is singular."""
    m = [[mesh.coords[v][i] for v in verts] for i in range(mesh.dim)] + [[1] * len(verts)]
    _, x = fraction_solve(m, [[b] for b in point] + [[1]])
    return None if x is None else [row[0] for row in x]


def similarity_classes(mesh: SimplicialMesh) -> set[tuple]:
    """Similarity classes of active simplices, keyed by sorted squared edge
    lengths normalized by the smallest (exact rationals)."""
    classes = set()
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        lengths = sorted(_dist2(mesh.coords[a], mesh.coords[b]) for a, b in combinations(verts, 2))
        smallest = lengths[0]
        classes.add(tuple(l / smallest for l in lengths))
    return classes


def write_element_report(mesh: SimplicialMesh, path) -> None:
    """TSV per-element report: id, level, volume, h, min neighbor level."""
    dist = element_distance(mesh, "vertex")
    levels = mesh.levels()
    with open(path, "w") as fh:
        fh.write("id\tlevel\tvolume\th\tmin_neighbor_level\n")
        for i, sid in enumerate(dist.ids):
            nbr_levels = [levels[dist.ids[j]] for j in dist.neighbors[i]] or [levels[sid]]
            fh.write(
                "%d\t%d\t%.12g\t%.12g\t%d\n"
                % (sid, levels[sid], float(mesh.volume(sid)), 2.0 ** (-levels[sid] / mesh.dim), min(nbr_levels))
            )
