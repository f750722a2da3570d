"""Fraction geometry of a mesh, kept as test oracles.

The mesh holds integer numerators at one exponent; these helpers give each
vertex as a tuple of Fractions and answer the exact geometric questions the
way the library did before (Gauss-Jordan elimination on Fractions, hashed
coordinate tuples, O(V * N) scans), independent of its integer code.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial


def coord(mesh, v):
    """Vertex v as a tuple of Fractions."""
    den = 1 << mesh.exponent
    return tuple(Fraction(n, den) for n in mesh.points[v])


def coords(mesh):
    return [coord(mesh, v) for v in range(len(mesh.points))]


def coord_ids(mesh):
    """Fraction coordinate tuple -> vertex id."""
    return {c: v for v, c in enumerate(coords(mesh))}


def midpoint(p, q):
    return tuple((x + y) / 2 for x, y in zip(p, q))


def dist2(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def fraction_solve(matrix, rhs):
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


def frac_mat_inv(matrix):
    n = len(matrix)
    _, inv = fraction_solve(matrix, [[int(i == j) for j in range(n)] for i in range(n)])
    assert inv is not None, "singular matrix"
    return inv


def det_volume(mesh, verts):
    p = [coord(mesh, v) for v in verts]
    rows = [[q[i] - p[0][i] for i in range(mesh.dim)] for q in p[1:]]
    det, _ = fraction_solve(rows, [()] * mesh.dim)
    return abs(det) / factorial(mesh.dim)


def barycentric_coordinates(mesh, verts, point):
    """Exact barycentric coordinates of a point w.r.t. a simplex, or None if
    the defining system is singular."""
    p = [coord(mesh, v) for v in verts]
    m = [[q[i] for q in p] for i in range(mesh.dim)] + [[1] * len(verts)]
    _, x = fraction_solve(m, [[b] for b in point] + [[1]])
    return None if x is None else [row[0] for row in x]


def diameter2(mesh, sid):
    return max(dist2(coord(mesh, a), coord(mesh, b)) for a, b in combinations(mesh.simplices[sid].vertices, 2))


def similarity_classes(mesh):
    """Similarity classes of active simplices, keyed by sorted squared edge
    lengths normalized by the smallest (exact rationals)."""
    classes = set()
    points = coords(mesh)
    for sid in mesh.active_ids():
        verts = mesh.simplices[sid].vertices
        lengths = sorted(dist2(points[a], points[b]) for a, b in combinations(verts, 2))
        classes.add(tuple(l / lengths[0] for l in lengths))
    return classes


def hanging_vertex_violations(mesh, limit=1):
    """Coordinate scan: active simplices owning an edge whose exact midpoint
    is an existing vertex, with the first such edge."""
    points = coords(mesh)
    ids = set(points)
    out = []
    for sid in mesh.active_ids():
        for a, b in combinations(mesh.simplices[sid].vertices, 2):
            if midpoint(points[a], points[b]) in ids:
                out.append((sid, (a, b)))
                if len(out) >= limit:
                    return out
                break
    return out


def conformity_violations(mesh, limit=1):
    """Geometric scan: pairs (vertex, simplex) where the vertex lies inside
    the closed simplex without being one of its corners; O(V * N)."""
    out = []
    points = coords(mesh)
    active = mesh.active_ids()
    boxes = {}
    for sid in active:
        pts = [points[v] for v in mesh.simplices[sid].vertices]
        boxes[sid] = (
            tuple(min(p[i] for p in pts) for i in range(mesh.dim)),
            tuple(max(p[i] for p in pts) for i in range(mesh.dim)),
        )
    for vid, c in enumerate(points):
        for sid in active:
            verts = mesh.simplices[sid].vertices
            if vid in verts:
                continue
            lo, hi = boxes[sid]
            if any(c[i] < lo[i] or c[i] > hi[i] for i in range(mesh.dim)):
                continue
            bary = barycentric_coordinates(mesh, verts, c)
            if bary is not None and all(b >= 0 for b in bary):
                out.append((vid, sid))
                if len(out) >= limit:
                    return out
    return out
