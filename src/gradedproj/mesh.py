"""Simplicial meshes under Maubach bisection.

Every vertex is dyadic, held as integer numerators at one mesh exponent e
(vertex v is points[v] * 2**-e), so midpoints, volumes and point location are
exact integer questions; one fraction-free elimination, bareiss, answers the
linear ones.  Refinement is newest-vertex bisection in the Maubach
formulation: a simplex (x_0, ..., x_d) with tag k splits at the midpoint z of
(x_0, x_k) into

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
common star.  Beside each star it keeps the star's level histogram (level ->
count), the number of vertices by star level span, and one histogram of the
levels of all active simplices, all updated where the stars are; so the
grading questions (is some star steeper than alpha, which star, the maximal
level) read counts and never scan the mesh.  A bisection is one fused
update: each vertex of the parent, and the midpoint, has its star and its
histogram touched once, the histogram moving one count from the parent's
level to the children's, and the span counts change only when a histogram
gains or loses a level.  The simplex records, a list indexed by id, are
the only per-simplex store: each holds its exact level-0 volume V_0, one
object shared with its descendants, and volume() returns V_0 * 2**-level.
A new mesh, Kuhn or loaded, fills every store in one pass.  After each
closure round the limited-grading loop reads only the stars of the
simplices that round created.  That is enough: the mesh is limited-graded
on entry (checked by the span counts), and a steep pair of two older
simplices would have been steep before the round, so its lagging member was
marked and bisected in it; every steep star thus holds a new simplex.

Topological identity has one kernel, first_appearance, which numbers the
rows of an integer key table by one stable lexsort.  node_table keys the
nodes of the element vertex table by vertex ids and weights (Lagrange and
patch dofs); the weights 1 - e_j key the faces (Crouzeix-Raviart dofs,
boundary and marked faces).  ElementDistance holds the element graph as its
incidence: the elements that share a vertex id or a face number, by id.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import GradedProjError
from .analytic import StabilityError

UNREACHABLE = -1  # explicit sentinel for element distance in a disconnected mesh

MAX_EXPONENT = 1022  # n * 2**-e for e <= 1022 converts to a normal float (the least is 2**-1022)


def coordinate_bits(dim: int) -> int:
    """Every loaded coordinate x satisfies |x| < 2**coordinate_bits(dim), with
    coordinate_bits(dim) = 1023 // dim - 1.

    Then each coordinate is a finite float, and so is each simplex volume:
    the edge vectors have components below 2**(1023 // dim), so by Hadamard's
    inequality |det| / d! < d**(d/2) / d! * 2**(d * (1023 // dim)) <= 2**1023.
    The bound keeps holding under refinement: bisection only adds midpoints,
    which lie in the convex hull of the loaded vertices, and halves volumes.
    """
    return 1023 // dim - 1


class MeshError(GradedProjError):
    """Invalid mesh operation or broken mesh invariant."""


class ClosureError(MeshError):
    """Conforming closure exceeded its iteration cap (invalid tag configuration)."""


class GradingError(MeshError):
    """Limited-grading precondition violated."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass(slots=True)
class TaggedSimplex:
    """One simplex, active or bisected: its index in SimplicialMesh.simplices
    is its id, and membership in the active set says which."""

    vertices: tuple[int, ...]  # bisection order
    tag: int
    level: int
    parent: int | None
    volume0: Fraction  # exact level-0 volume, volume * 2**level; children share their parent's object


class SimplicialMesh:
    """Conforming complex of tagged simplices; vertex v is the exact dyadic
    point points[v] * 2**-exponent (integer numerators, one exponent)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise MeshError(f"unsupported dimension {dim}")
        self.dim = dim
        self.points: list[tuple[int, ...]] = []
        self.exponent = 0
        self.simplices: list[TaggedSimplex] = []  # by id: ids are 0, 1, ... in creation order
        self._active: set[int] = set()
        self._gamma_faces: set[frozenset[int]] = set()
        self._gamma_vertices: set[int] = set()  # vertices of the gamma faces
        self._stars: list[set[int]] = []  # vertex id -> active simplices containing it
        self._star_levels: list[dict[int, int]] = []  # vertex id -> {level: count} over its star
        self._span_counts: dict[int, int] = {}  # star level span > 0 -> number of vertices
        self._level_counts: dict[int, int] = {}  # level -> number of active simplices
        self._edge_mid: dict[tuple[int, int], int] = {}  # edge (a, b), a < b -> midpoint vertex id

    @property
    def gamma_faces(self) -> frozenset[frozenset[int]]:
        """The marked boundary faces (vertex id sets); bisection splits them.
        Read-only: assign a new set to change them, so the set of their
        vertices follows."""
        return frozenset(self._gamma_faces)

    @gamma_faces.setter
    def gamma_faces(self, faces: Iterable[frozenset[int]]) -> None:
        self._gamma_faces = set(faces)
        self._gamma_vertices = {v for face in self._gamma_faces for v in face}

    # -- basic structure ---------------------------------------------------

    def add_vertex(self, point: tuple[int, ...]) -> int:
        """Append a vertex with numerators point at the mesh exponent; vertex
        identity is topological (the edge -> midpoint map), not a lookup."""
        self.points.append(point)
        self._stars.append(set())
        self._star_levels.append({})
        return len(self.points) - 1

    def active_ids(self) -> list[int]:
        return sorted(self._active)

    @property
    def n_active(self) -> int:
        return len(self._active)

    def _record(self, sid: int) -> TaggedSimplex:
        """The record of simplex sid; an id outside the list is a MeshError."""
        if not 0 <= sid < len(self.simplices):
            raise MeshError(f"no simplex {sid}")
        return self.simplices[sid]

    def volume(self, sid: int) -> Fraction:
        """Exact volume: the record's level-0 volume over 2**level."""
        s = self._record(sid)
        return s.volume0 / (1 << s.level)

    def float_volumes(self, element_ids: Sequence[int]) -> np.ndarray:
        """float(volume(sid)) for each sid, without a Fraction per element:
        each distinct level-0 volume is divided once by 2**l for the least
        level l of its elements and rounded to a float, then scaled by
        np.ldexp, which is exact in the normal range; a subnormal result is
        rounded from its Fraction instead."""
        records = [self._record(sid) for sid in element_ids]
        level0 = [s.volume0 for s in records]
        levels = np.array([s.level for s in records], dtype=np.int64)
        family: dict[int, int] = {}  # id of a shared level-0 volume -> its number
        codes = np.array([family.setdefault(id(v), len(family)) for v in level0], dtype=np.int64)
        shared = list({id(v): v for v in level0}.values())  # in the order family numbers them
        low = np.full(len(shared), levels.max(initial=0))
        np.minimum.at(low, codes, levels)
        base = np.array([float(v / (1 << l)) for v, l in zip(shared, low.tolist())])
        out = np.ldexp(base[codes], low[codes] - levels)
        for r in np.flatnonzero(out < np.finfo(float).tiny).tolist():
            out[r] = float(self.volume(element_ids[r]))
        return out

    def total_volume(self) -> Fraction:
        return sum((self.volume(s) for s in self._active), Fraction(0))

    def max_level(self) -> int:
        """Highest level of an active simplex (0 on an empty mesh), read from
        the mesh-wide level histogram."""
        return max(self._level_counts, default=0)

    def h_values(self) -> dict[int, float]:
        """Mesh size function h|_T = 2**(-level/d)."""
        d = self.dim
        return {s: 2.0 ** (-self.simplices[s].level / d) for s in self._active}

    def _fill(self, points: list, table: np.ndarray, tags: Sequence[int], levels: Sequence[int], volumes: Sequence[Fraction]) -> None:
        """Fill an empty mesh at once: the vertices points, and one active
        simplex per row of the vertex table, numbered in row order, with the
        tag, level and level-0 volume (volume * 2**level) at its row.  The
        stores are those that registering the simplices one at a time would
        fill, each star gaining its ids in ascending order; one bincount per
        distinct level gives the star histograms."""
        self.points = [tuple(point) for point in points]
        rows = table.tolist()
        self.simplices = list(map(TaggedSimplex, map(tuple, rows), tags, levels, repeat(None), volumes))
        self._active = set(range(len(rows)))
        stars = self._stars = [set() for _ in self.points]
        for sid, verts in enumerate(rows):
            for v in verts:
                stars[v].add(sid)
        hists = self._star_levels = [{} for _ in self.points]
        levels = np.asarray(levels, dtype=np.int64)
        distinct, counts = np.unique(levels, return_counts=True)
        self._level_counts = dict(zip(distinct.tolist(), counts.tolist()))
        for level in distinct.tolist():
            per_vertex = np.bincount(table[levels == level].ravel(), minlength=len(hists))
            at = np.flatnonzero(per_vertex)
            for v, n in zip(at.tolist(), per_vertex[at].tolist()):
                hists[v][level] = n
        self._span_counts = dict(Counter(max(hist) - min(hist) for hist in hists if len(hist) > 1))

    def _rekey(self, hist: dict[int, int], old: int | None, new: int, gain: int) -> None:
        """Move one count of a star histogram off level old (None: none) and
        add gain at level new, where a level appears or vanishes: the vertex
        leaves its old span in the span counts and joins its new one."""
        spans = self._span_counts
        if len(hist) > 1:
            _count(spans, max(hist) - min(hist), -1)
        if old is not None:
            _count(hist, old, -1)
        hist[new] = hist.get(new, 0) + gain
        if len(hist) > 1:
            _count(spans, max(hist) - min(hist), 1)

    def copy(self) -> "SimplicialMesh":
        other = SimplicialMesh(self.dim)
        other.points = list(self.points)
        other.exponent = self.exponent
        other.simplices = list(self.simplices)  # records are never mutated, so both meshes share them
        other._active = set(self._active)
        other._gamma_faces = set(self._gamma_faces)
        other._gamma_vertices = set(self._gamma_vertices)
        other._stars = [set(star) for star in self._stars]
        other._star_levels = [dict(hist) for hist in self._star_levels]
        other._span_counts = dict(self._span_counts)
        other._level_counts = dict(self._level_counts)
        other._edge_mid = dict(self._edge_mid)
        return other

    # -- bisection ---------------------------------------------------------

    def refinement_edge(self, sid: int) -> tuple[int, int]:
        s = self._record(sid)
        return s.vertices[0], s.vertices[s.tag]

    def bisect(self, sid: int) -> tuple[int, int, int]:
        """Bisect one active simplex; returns (child1, child2, new_vertex).

        One fused update: child1 holds every parent vertex but x_k, child2
        every one but x_0, both hold the midpoint z.  So each star loses the
        parent and gains the children its vertex is in, and its histogram
        moves one count from the parent's level to the children's, once per
        vertex (one more count where the vertex is in both children).

        The mesh may be nonconforming afterwards; callers are responsible for
        closure.
        """
        if sid not in self._active:
            raise MeshError(f"simplex {sid} is not active")
        s = self.simplices[sid]
        k, v, level = s.tag, s.vertices, s.level
        a, b = v[0], v[k]
        key = (a, b) if a < b else (b, a)
        zid = self._edge_mid.get(key)
        if zid is None:
            zid = self._edge_mid[key] = self._add_midpoint(a, b)
        if a in self._gamma_vertices and b in self._gamma_vertices:
            self._split_gamma(v, a, b, zid)
        up = level + 1
        tag = k - 1 if k > 1 else self.dim
        simplices = self.simplices
        c1 = len(simplices)
        c2 = c1 + 1
        simplices.append(TaggedSimplex(v[:k] + (zid,) + v[k + 1 :], tag, up, sid, s.volume0))
        simplices.append(TaggedSimplex(v[1 : k + 1] + (zid,) + v[k + 1 :], tag, up, sid, s.volume0))
        active = self._active
        active.discard(sid)
        active.add(c1)
        active.add(c2)
        counts = self._level_counts
        _count(counts, level, -1)
        counts[up] = counts.get(up, 0) + 2
        stars, hists = self._stars, self._star_levels
        for u in v:
            star = stars[u]
            star.discard(sid)
            if u == a:
                star.add(c1)
                gain = 1
            elif u == b:
                star.add(c2)
                gain = 1
            else:
                star.add(c1)
                star.add(c2)
                gain = 2
            hist = hists[u]
            n, m = hist[level], hist.get(up)
            if n > 1 and m:
                hist[level] = n - 1
                hist[up] = m + gain
            else:
                self._rekey(hist, level, up, gain)
        star = stars[zid]
        star.add(c1)
        star.add(c2)
        hist = hists[zid]
        if up in hist:
            hist[up] += 2
        else:
            self._rekey(hist, None, up, 2)
        return c1, c2, zid

    def _add_midpoint(self, a: int, b: int) -> int:
        """Add the midpoint of vertices a and b: (a + b) / 2 when every
        component of a + b is even, else a + b at exponent e + 1, doubling
        every numerator."""
        total = tuple(x + y for x, y in zip(self.points[a], self.points[b]))
        if not any(x & 1 for x in total):
            return self.add_vertex(tuple(x >> 1 for x in total))
        if self.exponent >= MAX_EXPONENT:
            raise MeshError(f"bisection needs mesh exponent {self.exponent + 1} > {MAX_EXPONENT}")
        self.exponent += 1
        self.points = [tuple(x << 1 for x in p) for p in self.points]
        return self.add_vertex(total)

    def _split_gamma(self, vertices: tuple[int, ...], a: int, b: int, zid: int) -> None:
        """Replace each gamma face of the simplex that holds the split edge
        (a, b), the face opposite a vertex other than a and b, by its two
        halves at the midpoint zid."""
        gamma = self._gamma_faces
        for drop in vertices:
            if drop == a or drop == b:
                continue
            face = frozenset(x for x in vertices if x != drop)
            if face in gamma:
                gamma.discard(face)
                gamma.add(face - {a} | {zid})
                gamma.add(face - {b} | {zid})
                self._gamma_vertices.add(zid)

    def hanging_edge(self, sid: int) -> tuple[int, int] | None:
        """First already-split edge of a simplex (its midpoint vertex exists);
        closure bisects the owners of such edges."""
        split = self._edge_mid
        for a, b in combinations(self._record(sid).vertices, 2):
            if ((a, b) if a < b else (b, a)) in split:
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
        """Per sweep, the conforming closure of marking every active simplex.
        The closure goes on bisecting the children that a neighbor's
        bisection left with a split edge, so a sweep more than doubles the
        element count in general (on one graded mesh 140 elements become
        327, not 280)."""
        for _ in range(sweeps):
            self.refine_closure(self.active_ids())
        return self

    # -- limited grading ---------------------------------------------------

    def _steep_stars(self, alpha: int, vertices: Iterable[int]) -> Iterator[tuple[int, list[int]]]:
        """(top, lagging) for each star of the given vertices whose levels span
        more than alpha: top is its lowest-id member of highest level, lagging
        its members more than alpha levels below top, in id order.  A star is
        judged steep by its level histogram; only steep stars list members."""
        simplices = self.simplices
        for v in vertices:
            hist = self._star_levels[v]
            if not hist or max(hist) - min(hist) <= alpha:
                continue
            top_level = max(hist)
            star = self._stars[v]
            lagging = sorted(s for s in star if simplices[s].level < top_level - alpha)
            yield min(s for s in star if simplices[s].level == top_level), lagging

    def lg_violation(self, alpha: int) -> tuple[int, int] | None:
        """A pair (lo, hi) of touching simplices with level gap exceeding alpha,
        if any: from the first steep star in vertex-id order, its lowest-level
        and its highest-level member (lowest ids on ties).  None as soon as the
        span counts show no star spanning more than alpha levels; otherwise
        the walk skips the stars whose histogram spans at most alpha."""
        if max(self._span_counts, default=0) <= alpha:
            return None
        for top, lagging in self._steep_stars(alpha, range(len(self._stars))):
            return min(lagging, key=lambda s: self.simplices[s].level), top
        raise MeshError("span counts disagree with the star level histograms")

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
            first_new = len(self.simplices)
            self.refine_closure(current)
            # every steep star now holds a simplex this closure created
            new = range(first_new, len(self.simplices))
            touched = {v for sid in new if sid in self._active for v in self.simplices[sid].vertices}
            current = sorted({s for _, lagging in self._steep_stars(alpha, touched) for s in lagging})
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        verts = [[_lowest_terms(n, self.exponent) for n in point] for point in self.points]
        cells = [
            {"v": list(self.simplices[s].vertices), "tag": self.simplices[s].tag, "level": self.simplices[s].level}
            for s in self.active_ids()
        ]
        gamma = sorted(sorted(face) for face in self.gamma_faces)
        return {"version": 1, "dim": self.dim, "vertices": verts, "simplices": cells, "gamma_faces": gamma}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialMesh":
        """Mesh from its JSON form.  Malformed or nonconforming input (a
        number that is not an integer in its range, exponents 0..MAX_EXPONENT,
        a coordinate not below 2**coordinate_bits(d) in magnitude, a
        repeated vertex, a degenerate simplex, bad faces, a face owned by
        more than two simplices, a vertex in the closure of a simplex it is
        not a corner of, two simplices whose interiors meet) raises
        MeshError.  Bisection keeps interiors disjoint, so only a load tests
        them (overlap_violations)."""
        version = data.get("version") if isinstance(data, dict) else None
        if version != 1:
            raise MeshError(f"unsupported mesh file version {version!r}")
        try:
            d = _integer(data["dim"], "dimension", 1)
            vertices = [
                [(_integer(n, "numerator"), _integer(k, "exponent", 0, MAX_EXPONENT)) for n, k in c] for c in data["vertices"]
            ]
            last = len(vertices) - 1
            cells = [
                (tuple(_integer(v, "vertex id", 0, last) for v in c["v"]), _integer(c["tag"], "tag", 1, d),
                 _integer(c["level"], "level", 0))
                for c in data["simplices"]
            ]
            gamma = [tuple(_integer(v, "vertex id", 0, last) for v in face) for face in data.get("gamma_faces", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshError(f"malformed mesh file: {type(exc).__name__}: {exc}") from exc
        mesh = cls(d)
        if any(len(c) != d for c in vertices):
            raise MeshError(f"a vertex does not have {d} coordinates")
        bits = coordinate_bits(d)
        for i, c in enumerate(vertices):
            for n, k in c:
                if abs(n).bit_length() > bits + k:  # |n| * 2**-k >= 2**bits
                    raise MeshError(f"vertex {i} has a coordinate of magnitude 2**{abs(n).bit_length() - 1 - k} "
                                    f"or more; coordinates must be below 2**{bits}")
        mesh.exponent = e = max((k for c in vertices for _, k in c), default=0)
        points = [tuple(n << (e - k) for n, k in c) for c in vertices]
        exact = np.array(points, dtype=object).reshape(-1, d)
        if len(first_appearance(exact)[1]) != len(vertices):
            raise MeshError("mesh file repeats a vertex")
        if not cells:
            raise MeshError("mesh file has no simplices")
        for ids, size in [(verts, d + 1) for verts, _, _ in cells] + [(face, d) for face in gamma]:
            if len(set(ids)) != size:
                raise MeshError(f"{list(ids)} is not {size} distinct vertices")
        rows, tags, levels = zip(*cells)
        table = np.array(rows, dtype=np.int64)
        corners = exact[table]
        dets, _ = bareiss(corners[:, 1:] - corners[:, :1], np.zeros((len(cells), d, 0), dtype=object))
        keys = list(zip(map(abs, dets.tolist()), levels))
        for verts, (det, _) in zip(rows, keys):
            if det == 0:
                raise MeshError(f"degenerate simplex {list(verts)}")
        scale = math.factorial(d) << (d * e)  # volume = |det| / scale
        level0 = {(det, level): Fraction(det << level, scale) for det, level in dict.fromkeys(keys)}
        mesh._fill(points, table, tags, levels, [level0[key] for key in keys])
        boundary = _boundary_faces(table)
        for face in gamma:
            if frozenset(face) not in boundary:
                raise MeshError(f"gamma face {list(face)} is not a boundary face of the mesh")
        mesh.gamma_faces = {frozenset(face) for face in gamma}
        inside = conformity_violations(mesh)
        if inside:
            vid, sid = inside[0]
            raise MeshError(f"vertex {vid} lies in simplex {list(mesh.simplices[sid].vertices)} but is not its corner")
        overlap = _overlapping_rows(mesh, table)
        if len(overlap):
            a, b = overlap[0].tolist()
            raise MeshError(f"simplices {list(cells[a][0])} and {list(cells[b][0])} overlap")
        return mesh

    @classmethod
    def load(cls, path) -> "SimplicialMesh":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # also an integer past Python's digit limit
                raise MeshError(f"malformed mesh file: {exc}") from exc
        return cls.from_json_dict(data)


def _integer(value, what: str, low=-math.inf, high=math.inf) -> int:
    """value when it is an int (not a bool, not a float) in low..high."""
    if type(value) is not int or not low <= value <= high:
        raise MeshError(f"{what} {value!r} is not an integer in {low}..{high}")
    return value


def _lowest_terms(n: int, e: int) -> list[int]:
    """[numerator, exponent] of n * 2**-e in lowest terms, [0, 0] for zero."""
    k = min(e, (n & -n).bit_length() - 1) if n else e  # trailing zero bits of n, at most e
    return [n >> k, e - k]


def _point_table(mesh: SimplicialMesh) -> np.ndarray:
    """(V, d) object array of the vertex numerators, exact Python ints."""
    return np.array(mesh.points, dtype=object).reshape(-1, mesh.dim)


def bareiss(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) of
    a stack of integer systems matrix @ X = rhs, shapes (s, n, n) and
    (s, n, k) (k may be 0).  Returns det(matrix) and det(matrix) * X as
    object arrays of exact Python ints, both 0 for a singular matrix.  After
    the step on column c every entry is a minor of the augmented matrix
    (Sylvester's identity), so each division by the previous pivot is exact;
    the last pivot is the determinant of the row-swapped matrix."""
    n = matrix.shape[-1]
    m = np.concatenate([matrix, rhs], axis=-1).astype(object)
    rows, sign, prev = np.arange(len(m)), np.ones(len(m), dtype=object), np.ones(len(m), dtype=object)
    for c in range(n):
        pivot = c + (m[:, c:, c] != 0).argmax(axis=1)  # c when the column is zero: singular
        m[rows, c], m[rows, pivot] = m[rows, pivot], m[rows, c]
        sign[pivot != c] *= -1
        top = m[:, c, c]
        step = (top[:, None, None] * m - m[:, :, c:c + 1] * m[:, c:c + 1, :]) // prev[:, None, None]
        step[:, c] = m[:, c]
        # a zero pivot zeroes the rows below it, so the last pivot, det, is 0
        m, prev = step, np.where(top == 0, 1, top)
    det = sign * m[:, n - 1, n - 1]
    return det, np.where((det == 0)[:, None, None], 0, sign[:, None, None] * m[:, :, n:])


def _count(counts: dict[int, int], key: int, step: int) -> None:
    """Add step to counts[key], dropping the key when its count reaches 0."""
    n = counts.get(key, 0) + step
    if n:
        counts[key] = n
    else:
        del counts[key]


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
    offsets = np.array(list(product(range(cells_per_axis), repeat=dim)), dtype=np.int64)
    steps = np.eye(dim, dtype=np.int64)[np.array(list(permutations(range(dim))))]  # unit step k along perm[k]
    paths = np.concatenate([np.zeros((len(steps), 1, dim), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    corners = (offsets[:, None, None, :] + paths[None]).reshape(-1, dim)
    ids, first = first_appearance(corners)
    table = ids.reshape(-1, dim + 1)
    n = len(table)
    mesh._fill(corners[first].tolist(), table, [dim] * n, [0] * n, [Fraction(1, math.factorial(dim))] * n)
    if mark_boundary:
        mesh.gamma_faces = _boundary_faces(table)
    return mesh


def boundary_faces(mesh: SimplicialMesh) -> set[frozenset[int]]:
    """Faces owned by exactly one active simplex."""
    return _boundary_faces(vertex_table(mesh, mesh.active_ids()))


def _boundary_faces(table: np.ndarray) -> set[frozenset[int]]:
    """The faces of the rows of a vertex table that exactly one row owns;
    MeshError when a face has more than two owners."""
    faces, face_vertices = element_faces(table)
    owners = np.bincount(faces.ravel())
    if owners.max(initial=0) > 2:
        raise MeshError(f"face {face_vertices[np.argmax(owners > 2)].tolist()} is owned by more than two simplices")
    return set(map(frozenset, face_vertices[owners == 1].tolist()))


# -- topology: one sorted numbering of keyed rows ------------------------------


def vertex_table(mesh: SimplicialMesh, element_ids: Sequence[int]) -> np.ndarray:
    """(n, d+1) vertex ids of the given simplices, in their local order."""
    return np.array([mesh.simplices[sid].vertices for sid in element_ids], dtype=np.int64).reshape(-1, mesh.dim + 1)


def first_appearance(keys: np.ndarray, banned: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Number the rows of an integer key table 0, 1, ... in order of first
    appearance, equal rows alike; rows equal to a banned row are -1 and take
    no number.  Returns the numbers and the first row of each number.  One
    stable lexsort puts equal rows side by side, the earliest first."""
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = np.cumsum(new) - 1  # groups in key order
    kept = np.ones(int(new.sum()), dtype=bool)
    if banned is not None:
        kept[group[banned]] = False
    first = np.zeros(len(keys), dtype=bool)
    first[order[new][kept]] = True
    return np.where(kept[group], (np.cumsum(first) - 1)[order[new]][group], -1), np.flatnonzero(first)


def node_table(vertices: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Key rows of the nodes (element row r, multi index alphas[a]), in that
    C order: the row's vertex ids beside their weights, sorted by id, with
    id -1 for weight 0.  On a conforming mesh two nodes are the same point
    exactly when their keys are equal (a point lies inside exactly one face)."""
    ids = np.where(alphas > 0, vertices[:, None, :], -1)
    order = np.argsort(ids, axis=-1)
    weights = np.broadcast_to(alphas, ids.shape)
    keys = np.concatenate([np.take_along_axis(ids, order, -1), np.take_along_axis(weights, order, -1)], axis=-1)
    return keys.reshape(-1, 2 * vertices.shape[1])


def element_faces(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face numbers (n, d+1) of the rows of a vertex table, local face j
    opposite local vertex j (the node of weights 1 - e_j), in order of first
    appearance, and the sorted vertex ids (n_faces, d) of each face."""
    d1 = vertices.shape[1]
    keys = node_table(vertices, 1 - np.eye(d1, dtype=np.int64))
    numbers, first = first_appearance(keys)
    return numbers.reshape(-1, d1), keys[first, 1:d1]


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The ranges starts[i]:stops[i], concatenated."""
    lengths = stops - starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


# -- element distances -------------------------------------------------------


class ElementDistance:
    """Integer geodesic distance on the element graph, held as its incidence:
    neighbors share a vertex id (kind "vertex"; distance 1 means a nonempty
    intersection on a conforming mesh) or a face number (kind "face").  table
    (n, d+1) holds these ids numbered 0, 1, ... in ascending order, one group
    per id; (indptr, members) lists each group's members, ascending, in CSR
    form: O(n (d+1)) entries, nothing per pair.  Unreachable is UNREACHABLE.

    The breadth-first row of each source set is computed once and kept,
    read-only, under the set's sorted positions, the way Operators keeps one
    decay source block per set: a decay profile reads every shell's distance
    from the one row of its source.  The element graph is fixed at
    construction, so a kept row never goes stale.
    """

    def __init__(self, mesh: SimplicialMesh, kind: str = "vertex"):
        if kind not in ("vertex", "face"):
            raise MeshError(f"unknown distance kind {kind!r}")
        self.ids = mesh.active_ids()
        self.pos = {sid: i for i, sid in enumerate(self.ids)}
        table = vertex_table(mesh, self.ids)
        table = element_faces(table)[0] if kind == "face" else table
        self.table = np.unique(table, return_inverse=True)[1].reshape(table.shape)
        self.indptr = np.r_[0, np.cumsum(np.bincount(self.table.ravel()))]
        self.members = np.argsort(self.table.ravel(), kind="stable") // table.shape[1]
        self._kept: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.ids)

    def _per_group(self, reduce: np.ufunc, values: np.ndarray) -> np.ndarray:
        """reduce over the members of each group, of values per element."""
        return reduce.reduceat(values[self.members], self.indptr[:-1])

    def from_source(self, sid: int) -> np.ndarray:
        """Distances from sid to every element, in ids order: a copy of the
        kept row, free to write into."""
        return self._row((self.pos[sid],)).copy()

    def _row(self, sources: tuple[int, ...]) -> np.ndarray:
        """The read-only row of distances from the nearest of the sources
        (sorted distinct positions), built on first use."""
        row = self._kept.get(sources)
        if row is None:
            row = self._kept[sources] = self._bfs(list(sources))
            row.setflags(write=False)
        return row

    def _bfs(self, sources: list[int]) -> np.ndarray:
        """Distances from the nearest source, one frontier array per level:
        its groups, each expanded once, give their unreached members the level."""
        dist = np.full(self.n, UNREACHABLE, dtype=np.int32)
        dist[sources] = 0
        slot = np.full(len(self.indptr) - 1, -1)  # a group's place in its level's list; -1 until expanded
        frontier, level = np.asarray(sources, dtype=np.int64), 0
        while len(frontier):
            level += 1
            groups = self.table[frontier].ravel()
            groups = groups[slot[groups] < 0]
            slot[groups] = places = np.arange(len(groups))  # of a repeated group, one write lands
            groups = groups[slot[groups] == places]
            reached = self.members[_ranges(self.indptr[groups], self.indptr[groups + 1])]
            frontier = reached[dist[reached] == UNREACHABLE]  # a member of several groups comes more than once
            dist[frontier] = level
        return dist

    @cached_property
    def _components(self) -> np.ndarray:
        """A label per element, equal exactly within a connected component:
        each round hooks the label of every element onto the least label of
        each of its groups and then jumps pointers until every label is its
        own, until no round changes a label.  Labels only shrink, so rounds
        end; at the end every group holds one label."""
        labels, sizes = np.arange(self.n), np.diff(self.indptr)
        while True:
            hooked = labels.copy()
            np.minimum.at(hooked, labels[self.members], np.repeat(self._per_group(np.minimum, labels), sizes))
            while not np.array_equal(hooked, jumped := hooked[hooked]):
                hooked = jumped
            if np.array_equal(hooked, labels):
                return labels
            labels = hooked

    def dist_sets(self, left: Iterable[int], right: Iterable[int]) -> int:
        """The least distance between an element of left and one of right,
        read from the kept row of right; UNREACHABLE when some element of
        right has no element of left in its component."""
        left = [self.pos[s] for s in left]
        right = [self.pos[s] for s in right]
        if not left or not right:
            raise MeshError("element sets must be nonempty")
        labels = self._components
        if not np.isin(labels[right], labels[left]).all():
            return UNREACHABLE
        vals = self._row(tuple(sorted(set(right))))[left]
        return int(vals[vals != UNREACHABLE].min())


def element_distance(mesh: SimplicialMesh, kind: str = "vertex") -> ElementDistance:
    return ElementDistance(mesh, kind)


# -- grading -----------------------------------------------------------------


def grading_of(values: dict[int, object], dist: ElementDistance):
    """Smallest gamma making the piecewise-constant weight graded, i.e. the
    largest ratio of values across any distance-1 pair (at least 1): the
    largest max / min of a group, bit for bit, as division rounds
    monotonically.  Every value must be finite and positive; exact values
    (Fractions) give an exact ratio."""
    for sid, val in values.items():
        if not 0 < val < math.inf:  # false for NaN too
            raise GradingError(f"value {val} on simplex {sid} is not finite and positive")
    vals = np.array([values[sid] for sid in dist.ids])
    shared = np.diff(dist.indptr) > 1
    ratios = dist._per_group(np.maximum, vals)[shared] / dist._per_group(np.minimum, vals)[shared]
    top = np.asarray(ratios.max(initial=1)).tolist()  # a Python float, or an exact Fraction
    return top if top > 1 else 1


def level_gap(mesh: SimplicialMesh, dist: ElementDistance) -> int:
    """Largest level difference across distance-1 pairs, 0 when there are
    none (exact h-grading: the grading of h = 2**(-level/d) equals
    2**(gap/d)): the largest max - min level of a group."""
    levels = np.array([mesh.simplices[sid].level for sid in dist.ids], dtype=np.int64)
    return int((dist._per_group(np.maximum, levels) - dist._per_group(np.minimum, levels)).max(initial=0))


def max_operator(values: dict[int, object], gamma, dist: ElementDistance) -> dict[int, object]:
    """Smallest gamma-graded majorant: (M_gamma v)|_T = max_T' gamma^(-delta(T,T')) |v_T'|.

    Exact when values and gamma are rational.  Computed as the least
    solution of b_T = max(|v_T|, b_T' / gamma over the neighbors T'): each
    round divides the max of each group of an element grown in the previous
    round once by gamma and relaxes the group's members, until none grows
    (division rounds monotonically: max(b) / gamma is max(b / gamma)).  So
    every value is the largest chain of divisions along a walk, as a
    Dijkstra relaxation would give, bit for bit.  Every value must be finite.
    """
    if not 1 < gamma < math.inf:  # false for NaN too
        raise StabilityError(f"max_operator requires a finite gamma > 1, got {gamma}")
    for sid, val in values.items():
        if not abs(val) < math.inf:  # false for NaN too
            raise StabilityError(f"value {val} on simplex {sid} is not finite")
    best = np.array([abs(values[s]) for s in dist.ids])
    if best.dtype.kind != "f":
        best = best.astype(object)  # ints and Fractions stay exact
    grown = np.arange(dist.n)
    while len(grown):
        groups = np.unique(dist.table[grown])
        starts, sizes = dist.indptr[groups], np.diff(dist.indptr)[groups]
        members = dist.members[_ranges(starts, starts + sizes)]
        relaxed = np.repeat(np.maximum.reduceat(best[members], np.cumsum(sizes) - sizes) / gamma, sizes)
        up = relaxed > best[members]
        np.maximum.at(best, members[up], relaxed[up])
        grown = members[up]
    return dict(zip(dist.ids, best.tolist()))


@dataclass
class RegularizedGradingReport:
    """Grading of the smallest gamma-graded majorant of h = 2^(-level/d) and
    its equivalence ratio sup(majorant / h).  The conjectured grading 2 for
    plain bisection meshes corresponds to a bounded ratio at gamma = 2; this
    report only measures, it never asserts the conjecture."""

    gamma: float
    raw_grading: float
    regularized_grading: float
    equivalence_ratio: float


def regularized_h_grading(mesh: SimplicialMesh, dist: ElementDistance, gamma: float = 2.0) -> RegularizedGradingReport:
    h = mesh.h_values()
    raw = float(grading_of(h, dist)) if dist.n > 1 else 1.0
    reg = max_operator(h, gamma, dist)
    reg_grading = float(grading_of(reg, dist)) if dist.n > 1 else 1.0
    ratio = max(reg[s] / h[s] for s in dist.ids)
    return RegularizedGradingReport(gamma, raw, reg_grading, float(ratio))


# -- marking policies and the closure benchmark -------------------------------


def marking_policy(name: str) -> Callable[[SimplicialMesh, np.random.Generator], list[int]]:
    """Deterministic-by-seed marking policies: uniform, corner, random:<fraction>, random-count:<n>."""
    if name == "uniform":
        return lambda mesh, rng: mesh.active_ids()
    if name == "corner":
        def corner(mesh: SimplicialMesh, rng: np.random.Generator) -> list[int]:
            try:
                return sorted(mesh._stars[mesh.points.index((0,) * mesh.dim)])
            except ValueError:
                raise MeshError("corner policy expects the origin to be a mesh vertex") from None
        return corner
    if name.startswith("random:"):
        try:
            fraction = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise MeshError(f"invalid marking fraction in {name!r}") from exc
        if not 0 < fraction <= 1:
            raise MeshError("random marking fraction must be in (0, 1]")
        def randomized(mesh: SimplicialMesh, rng: np.random.Generator) -> list[int]:
            ids = mesh.active_ids()
            picks = [s for s in ids if rng.random() < fraction]
            return picks or [ids[int(rng.integers(len(ids)))]]
        return randomized
    if name.startswith("random-count:"):
        try:
            count = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise MeshError(f"invalid marking count in {name!r}") from exc
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
    """Run BiSecLG(alpha) repeatedly, plain closure refinement for alpha = 0,
    and record the closure ratio per round."""
    pick = marking_policy(policy) if isinstance(policy, str) else policy
    rng = np.random.default_rng(seed)
    marked_counts: list[int] = []
    sizes: list[int] = []
    n0 = mesh.n_active
    for _ in range(rounds):
        marked = pick(mesh, rng)
        marked_counts.append(len(marked))
        if marked:
            if alpha:
                mesh.refine_lg(marked, alpha)
            else:
                mesh.refine_closure(marked)
        sizes.append(mesh.n_active)
    return ClosureReport(rounds, marked_counts, sizes, n0)


# -- verification helpers ------------------------------------------------------


def hanging_vertex_violations(mesh: SimplicialMesh, limit: int = 1) -> list[tuple[int, tuple[int, int]]]:
    """Active simplices owning an edge whose exact midpoint is an existing
    vertex, with the first such edge (local order), at most limit of them.
    Independent of the edge -> midpoint map, so it also validates loaded
    meshes, whose map starts empty.  One integer pass: the edge sums a + b
    whose components are all even, halved, are numbered together with the
    vertex table by first_appearance."""
    ids = mesh.active_ids()
    table = vertex_table(mesh, ids)
    ia, ib = np.triu_indices(mesh.dim + 1, 1)  # the edges in combinations order
    points = _point_table(mesh)
    sums = points[table[:, ia]] + points[table[:, ib]]
    even = (sums % 2 == 0).all(axis=-1)
    numbers, first = first_appearance(np.concatenate([points, (sums // 2).reshape(-1, mesh.dim)]))
    hit = even & (first[numbers[len(points):]] < len(points)).reshape(even.shape)
    rows = np.flatnonzero(hit.any(axis=1))[:limit]
    edges = hit[rows].argmax(axis=1)
    return [(ids[r], (int(table[r, ia[j]]), int(table[r, ib[j]]))) for r, j in zip(rows.tolist(), edges.tolist())]


def conformity_violations(mesh: SimplicialMesh, limit: int = 1) -> list[tuple[int, int]]:
    """Pairs (vertex, simplex), ascending, where the vertex lies in the closed
    active simplex without being one of its corners; at most limit of them.

    An empty list proves that no vertex lies in the closure of an active
    simplex it is not a corner of (no hanging vertex, no vertex on another
    simplex's face).  It does not prove that simplex interiors are disjoint:
    two overlapping triangles that hold no vertex of each other pass, and
    overlap_violations finds them.  Exact: the grid join of _box_pairs
    pairs the closed bounding boxes with every vertex, used or not, as a box
    of extent 0; for the vertices in a simplex's box, bareiss gives det
    times the barycentric coordinates, all of the sign of det exactly in the
    closure."""
    ids = mesh.active_ids()
    table = vertex_table(mesh, ids)
    points = _point_table(mesh)
    corners = points[table]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    rows, vids = _box_pairs(lo, hi, points, points).T
    p = points[vids]
    keep = ((p >= lo[rows]) & (p <= hi[rows])).all(axis=1) & (table[rows] != vids[:, None]).all(axis=1)
    rows, vids = rows[keep], vids[keep]
    # barycentric system: corners as columns over a row of ones, point over a one
    ones = np.ones((len(rows), 1, mesh.dim + 1), dtype=object)
    system = np.concatenate([np.swapaxes(corners[rows], 1, 2), ones], axis=1)
    det, bary = bareiss(system, np.concatenate([points[vids], ones[:, 0, :1]], axis=1)[:, :, None])
    inside = (det != 0) & (bary[:, :, 0] * det[:, None] >= 0).all(axis=1)
    return sorted(zip(vids[inside].tolist(), [ids[r] for r in rows[inside].tolist()]))[:limit]


def overlap_violations(mesh: SimplicialMesh, limit: int = 1) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, ascending, of active simplices whose interiors
    intersect; at most limit of them.

    An empty list proves that the interiors of the active simplices are
    pairwise disjoint.  Exact, by the separating-axis theorem (Gottschalk,
    Lin & Manocha 1996 for d = 3): two d-simplices A and B have disjoint
    interiors if and only if 0 is not an interior point of A - B, that is,
    if and only if some facet hyperplane of A - B has A on one side and B on
    the other.  A facet of A - B is spanned by d - 1 edge directions of A
    and B, so its normal is a generalized cross product (the cofactor
    vector) of d - 1 of their edges: the pair is apart if and only if some
    nonzero such n has max over A of n.x <= min over B of n.x, or the same
    with A and B swapped.  That is 6 candidate normals in d = 2, 66 in d = 3
    and 1140 in d = 4; only pairs whose bounding boxes meet are tested, the
    facet normals of either simplex first, and every candidate only for the
    pairs those leave.  The arithmetic is in Python ints at the mesh
    exponent, relative to a corner of A."""
    ids = mesh.active_ids()
    return [(ids[a], ids[b]) for a, b in _overlapping_rows(mesh, vertex_table(mesh, ids))[:limit].tolist()]


def _overlapping_rows(mesh: SimplicialMesh, table: np.ndarray) -> np.ndarray:
    """Row pairs (a, b), a < b, ascending, of the simplices of a vertex
    table whose interiors intersect (overlap_violations).  Interiors meet
    only where open bounding boxes do, and on integer numerators the open
    box (lo, hi) meets another exactly where the closed boxes [lo, hi - 1]
    do: the grid join of _box_pairs pairs those with themselves.  Its
    candidates are compared on the ranks of their numerators on each axis,
    which keep every comparison."""
    d = mesh.dim
    exact = _point_table(mesh)
    corners = exact[table]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    a, b = _box_pairs(lo, hi - 1, lo, hi - 1).T
    a, b = a[a < b], b[a < b]
    rank = np.stack([np.unique(exact[:, i], return_inverse=True)[1] for i in range(d)], axis=-1)[table]
    lo, hi = rank.min(axis=1), rank.max(axis=1)
    meet = (lo[a] < hi[b]).all(axis=1) & (lo[b] < hi[a]).all(axis=1)
    a, b = a[meet], b[meet]
    faces = [[i for i in range(d + 1) if i != j] for j in range(d + 1)]
    used, at = np.unique(np.concatenate([a, b]), return_inverse=True)
    corners = corners[used]
    facets = _cross(np.stack([corners[:, f[1:]] - corners[:, f[:1]] for f in faces], axis=1))
    at_a, at_b = at[: len(a)], at[len(a) :]
    bad = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(a), 4096):
        chunk = slice(start, start + 4096)
        pa, pb = at_a[chunk], at_b[chunk]
        y = np.stack([corners[pa], corners[pb]], axis=1) - corners[pa, None, :1]
        left = ~_parts(y, np.concatenate([facets[pa], facets[pb]], axis=1))
        bad.append(start + np.flatnonzero(left)[~_apart(y[left])])
    bad = np.concatenate(bad)
    bad = np.stack([a[bad], b[bad]], axis=1)
    return bad[np.lexsort(bad.T[::-1])]


def _box_pairs(lo: np.ndarray, hi: np.ndarray, lo2: np.ndarray, hi2: np.ndarray) -> np.ndarray:
    """Index pairs (i, j) of closed integer boxes [lo[i], hi[i]] and [lo2[j],
    hi2[j]] that share a grid cell, among them each pair that meets, once.
    A box of extent below 2**k touches at most two cells per axis of the
    grid of step 2**k; it is joined, on the grid of its own class k, with
    the boxes of the other set of no larger class (of a smaller one for a
    box of the second set), in the one cell that holds the greater of their
    least corners.  Cell numbers are clipped to int64, which only joins
    more boxes."""
    scales = [np.array([e.bit_length() for e in (h - l).max(axis=1).tolist()], dtype=np.int64) for l, h in ((lo, hi), (lo2, hi2))]
    pick = np.array(list(product((0, 1), repeat=lo.shape[1])), dtype=np.int64).reshape(-1, lo.shape[1])
    found = [np.zeros((0, 2), dtype=np.int64)]
    for k in np.unique(np.concatenate(scales)).tolist():
        first, last = ([np.clip(x >> k, -(2**62), 2**62).astype(np.int64) for x in ends] for ends in ((lo, lo2), (hi, hi2)))
        for rows in ((scales[0] == k, scales[1] <= k), (scales[0] < k, scales[1] == k)):
            sides = []
            for f, l, r in zip(first, last, rows):
                cells = f[r, None] + pick
                touched = (cells <= l[r, None]).all(axis=2)
                sides.append((cells[touched], np.repeat(np.flatnonzero(r), len(pick))[touched.ravel()]))
            (cells, a), (cells2, b) = sides
            number = first_appearance(np.concatenate([cells, cells2]))[0]
            order = np.argsort(number[len(a) :], kind="stable")
            starts, stops = (np.searchsorted(number[len(a) :][order], number[: len(a)], side) for side in ("left", "right"))
            hit = order[_ranges(starts, stops)]
            a, b = np.repeat(a, stops - starts), b[hit]
            keep = (cells2[hit] == np.maximum(first[0][a], first[1][b])).all(axis=1)
            found.append(np.stack([a[keep], b[keep]], axis=1))
    return np.concatenate(found)


def _apart(y: np.ndarray) -> np.ndarray:
    """For each pair of simplices y[p] (corner coordinates, shape (2, d + 1,
    d), Python ints) whether a candidate normal of
    overlap_violations parts it: the cofactor vectors of every d - 1 of
    their edges, 64 at a time."""
    d1, d = y.shape[2:]
    ia, ib = np.triu_indices(d1, 1)
    edges = (y[:, :, ib] - y[:, :, ia]).reshape(len(y), 2 * len(ia), d)
    count = math.comb(2 * len(ia), d - 1)
    subsets = np.array(list(combinations(range(2 * len(ia)), d - 1)), dtype=np.int64).reshape(count, d - 1)
    apart = np.zeros(len(y), dtype=bool)
    for start in range(0, count, 64):
        todo = np.flatnonzero(~apart)
        if not len(todo):
            break
        apart[todo] = _parts(y[todo], _cross(edges[todo][:, subsets[start : start + 64]]))
    return apart


def _parts(y: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Whether some nonzero normals[p, c] has max n.x over one simplex of
    y[p] at most min n.x over the other."""
    proj = np.matmul(y, np.swapaxes(normals, 1, 2)[:, None])  # (p, 2, d + 1, c)
    top, low = proj.max(axis=2), proj.min(axis=2)
    split = (top[:, 0] <= low[:, 1]) | (top[:, 1] <= low[:, 0])
    return (split & (normals != 0).any(axis=-1)).any(axis=-1)


def _cross(v: np.ndarray) -> np.ndarray:
    """Generalized cross products of the rows of v (..., d - 1, d): the
    vectors n, n_i = (-1)**i times the minor of v without column i, normal
    to every row (n = (1) when d = 1)."""
    d = v.shape[-1]
    return np.stack([(-1) ** i * _det(np.delete(v, i, axis=-1)) for i in range(d)], axis=-1)


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of the square matrices m (..., k, k) by cofactor
    expansion along the first row: ring operations only, so exact in Python
    ints."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2], dtype=m.dtype)
    out = m[..., 0, 0] * _det(m[..., 1:, 1:])
    for j in range(1, k):
        term = m[..., 0, j] * _det(np.delete(m[..., 1:, :], j, axis=-1))
        out = out - term if j % 2 else out + term
    return out


def write_element_report(mesh: SimplicialMesh, dist: ElementDistance, path) -> None:
    """TSV per-element report of the elements of a vertex-kind graph: id,
    level, volume, h, min neighbor level (its own level without neighbors),
    from each group's lowest and second lowest level (with multiplicity)."""
    levels = np.array([mesh.simplices[sid].level for sid in dist.ids], dtype=np.int64)
    none, at, starts = np.iinfo(np.int64).max, levels[dist.members], dist.indptr[:-1]
    lowest = np.minimum.reduceat(at, starts)
    held = at == np.repeat(lowest, np.diff(dist.indptr))  # members at their group's lowest level
    second = np.where(np.add.reduceat(held, starts) > 1, lowest, np.minimum.reduceat(np.where(held, none, at), starts))
    lows = np.where(levels[:, None] == lowest[dist.table], second[dist.table], lowest[dist.table]).min(axis=1)
    lows = np.where(lows == none, levels, lows)
    with open(path, "w") as fh:
        fh.write("id\tlevel\tvolume\th\tmin_neighbor_level\n")
        for sid, level, low in zip(dist.ids, levels.tolist(), lows.tolist()):
            fh.write("%d\t%d\t%.12g\t%.12g\t%d\n" % (sid, level, float(mesh.volume(sid)), 2.0 ** (-level / mesh.dim), low))
