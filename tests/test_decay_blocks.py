"""Differential tests of the block work in the decay measurement and the
sampled weighted ratio against the per-shell, per-candidate and per-call
code they replaced (kept verbatim in oracles.py): the kept distance rows of
ElementDistance, the one solve per source of measure_decay, the block solve
of _sampled_weighted_ratio and the dense Cholesky mass factor that the one
sparse LU replaced; and the block mass solve against its column solves.

measure_decay is held to the per-shell block code (oracles.
block_measure_decay) to 1e-12 relative, not bit for bit: the per-source
form F_L = Z^T M_L Z sums the same products in another order.  Below
1e-150 both lose relative accuracy (a masked norm under about 1e-154 has a
subnormal square), so only which rows are zero is compared there."""

import math
from fractions import Fraction

import numpy as np
import pytest

import gradedproj.projection as projection
from gradedproj.cli import build_mesh, build_parser
from gradedproj.mesh import UNREACHABLE, SimplicialMesh, element_distance, kuhn_initial_mesh, max_operator
from gradedproj.polyspace import BarycentricPoly, CRSpace, LagrangeSpace
from gradedproj.projection import Operators, ProjectionError, _random_poly, measure_decay, one_blas_thread
from gradedproj.stability import Weight, _fine_weights, _sampled_weighted_ratio, _unit_scaled, fine_link
from conftest import randomly_refined
from oracles import bfs_dist_sets, block_measure_decay, cholesky_mass_solve, fraction_random_poly, loop_sampled_weighted_ratio

# the stability workload's cases (name, d, degree, kind, p, target elements)
STABILITY_CASES = [
    ("d2-P1-Lp2", 2, 1, "Lp", 2.0, 140),
    ("d2-P2-W1p2", 2, 2, "W1p", 2.0, 70),
    ("d2-CR-W1p2", 2, "CR", "W1p", 2.0, 170),
    ("d2-P1-Lp3", 2, 1, "Lp", 3.0, 110),
    ("d3-P1-Lp2", 3, 1, "Lp", 2.0, 140),
]


def stability_case(seed: int, index: int):
    """The mesh, operators, distance, anchor and generator of the stability
    workload's case at the seed, as its run draws them: BiSecLG(1) from the
    Kuhn cube, a random fifth marked per round (fewer near the target), the
    anchor, then the weighted ratio's seed; the generator is left where the
    decay shells draw their seeds."""
    name, dim, degree, kind, p, target = STABILITY_CASES[index]
    rng = np.random.default_rng(int(np.random.SeedSequence((seed, index)).generate_state(1)[0]))
    mesh = kuhn_initial_mesh(dim, 1)
    while mesh.n_active < target:
        ids = mesh.active_ids()
        take = max(1, min(len(ids) // 5, (target - len(ids)) // 6))
        mesh.refine_lg(sorted(int(x) for x in rng.choice(ids, size=take, replace=False)), 1)
    space = CRSpace(mesh) if degree == "CR" else LagrangeSpace(mesh, degree)
    dist = element_distance(mesh, "face" if degree == "CR" else "vertex")
    anchor = dist.ids[int(rng.integers(dist.n))]
    weighted_seed = int(rng.integers(1 << 30))
    return Operators(space), dist, anchor, weighted_seed, rng, kind, p


def shells_of(dist, source):
    row = dist.from_source(source)
    return [(delta, [dist.ids[i] for i in np.flatnonzero(row == delta)]) for delta in sorted(set(row[row > 0].tolist()))]


# -- decay rows -----------------------------------------------------------------------------


def assert_rows_agree(got, want):
    """Equal delta and bound; exact and sampled zero alike, and within 1e-12
    relative wherever the oracle's value exceeds 1e-150."""
    assert (got.delta, got.bound) == (want.delta, want.bound)
    for a, b in ((got.exact_norm, want.exact_norm), (got.sampled, want.sampled)):
        assert (a == 0.0) == (b == 0.0)
        if b > 1e-150:
            assert abs(a - b) <= 1e-12 * b, (got, want)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("index", range(len(STABILITY_CASES)))
def test_decay_rows_match_trial_loop_on_stability_workload(seed, index):
    # every shell of the workload's decay profile, two trials each, as the
    # workload runs it: the rows agree with the per-shell block code's
    ops, dist, anchor, _, rng, _, _ = stability_case(seed, index)
    shells = shells_of(dist, anchor)
    assert len(shells) >= 3
    for delta, members in shells:
        trial_seed = int(rng.integers(1 << 30))
        got = measure_decay(ops, dist, members, [anchor], trials=2, seed=trial_seed)
        assert_rows_agree(got, block_measure_decay(ops, dist, members, [anchor], trials=2, seed=trial_seed))
        assert got.delta == delta


def test_decay_rows_match_trial_loop_on_readme_decay_mesh():
    # the README decay command's mesh, source and per-shell seeds, at its
    # default three trials and at 0 and 7
    args = build_parser().parse_args("decay --dim 2 --degree 1 --rounds 6 --policy corner".split())
    mesh = build_mesh(args)
    ops = Operators(LagrangeSpace(mesh, 1))
    dist = element_distance(mesh, "vertex")
    source = [dist.ids[int(np.random.default_rng(args.seed).integers(dist.n))]]
    for trials in (args.trials, 0, 7):
        for delta, members in shells_of(dist, source[0]):
            got = measure_decay(ops, dist, members, source, trials=trials, seed=args.seed + delta)
            assert_rows_agree(got, block_measure_decay(ops, dist, members, source, trials=trials, seed=args.seed + delta))
            assert (got.sampled == 0.0) == (trials == 0)


@pytest.mark.parametrize("degree", [1, 2])
def test_decay_rows_match_block_code_on_zero_trace_spaces(mesh2d, degree):
    # removed trace dofs (-1 in the dof table) in the shells and in the
    # source: a boundary source of one and of three elements
    ops = Operators(LagrangeSpace(mesh2d, degree, zero_trace=True))
    dist = element_distance(mesh2d, "vertex")
    boundary = [s for s in dist.ids if (ops.space.dof_rows([s]) < 0).any()]
    for source in ([boundary[0]], boundary[-3:]):
        for delta, members in shells_of(dist, source[0])[:6]:
            got = measure_decay(ops, dist, members, source, trials=3, seed=delta)
            assert_rows_agree(got, block_measure_decay(ops, dist, members, source, trials=3, seed=delta))
            assert got.exact_norm > 0 and got.sampled > 0


def test_decay_rows_with_empty_blocks_match_trial_loop(mesh2d):
    # a source with no dof (zero trace on a boundary element of a one-cell
    # mesh) has no source block, and polynomials of norm zero are skipped
    mesh = kuhn_initial_mesh(2, 1)
    ops = Operators(LagrangeSpace(mesh, 1, zero_trace=True))
    dist = element_distance(mesh, "vertex")
    a, b = dist.ids
    assert ops.source_block([a]) is None
    for trials in (0, 3):
        got = measure_decay(ops, dist, [b], [a], trials=trials, seed=4)
        assert_rows_agree(got, block_measure_decay(ops, dist, [b], [a], trials=trials, seed=4))
        assert got.exact_norm == got.sampled == 0.0
    # every draw of norm zero: the rows agree with a block of no trials
    ops = Operators(LagrangeSpace(mesh2d, 1))
    dist = element_distance(mesh2d, "vertex")
    src = [dist.ids[0]]
    members = shells_of(dist, src[0])[0][1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_random_poly", _zero_poly)
        got = measure_decay(ops, dist, members, src, trials=3, seed=0)
    assert got.sampled == 0.0
    assert_rows_agree(got, block_measure_decay(ops, dist, members, src, trials=0, seed=0))


def _zero_poly(mesh, support, degree, rng):
    return projection.ElementwisePoly(mesh, {sid: BarycentricPoly(mesh.dim) for sid in support})


def test_random_poly_matches_fraction_oracle(mesh3d):
    # the same coefficients, and the generator left in the same state
    for degree in (1, 2, 3):
        ids = mesh3d.active_ids()[:5]
        rng_a, rng_b = np.random.default_rng(degree), np.random.default_rng(degree)
        got, want = _random_poly(mesh3d, ids, degree, rng_a), fraction_random_poly(mesh3d, ids, degree, rng_b)
        assert {s: p.coeffs for s, p in got.polys.items()} == {s: p.coeffs for s, p in want.polys.items()}
        assert all(type(v) is Fraction for p in got.polys.values() for v in p.coeffs.values())
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


def test_barycentric_poly_drops_exactly_the_zeros():
    values = [0, 1, -2, 0.0, -0.0, 0.5, math.nan, math.inf, Fraction(0), Fraction(0, 7), Fraction(-3, 4), True, False]
    coeffs = {(k, 0, 0): v for k, v in enumerate(values)}
    kept = BarycentricPoly(2, coeffs).coeffs
    assert list(kept) == [key for key, v in coeffs.items() if v != 0]
    assert all(kept[key] is coeffs[key] for key in kept)


# -- sampled weighted ratio -------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_weighted_ratio_matches_candidate_loop(seed):
    # the workload's p = 3 case with its graded weight and seed, and the
    # other cases' meshes at p = 3 and p = inf, both kinds
    for index in range(len(STABILITY_CASES)):
        ops, dist, anchor, weighted_seed, _, kind, p = stability_case(seed, index)
        base = {s: 1.0 if s == anchor else 1e-9 for s in dist.ids}
        weight = _unit_scaled(Weight(max_operator(base, 2.0, dist), dist))
        runs = [(kind, p)] if p == 3.0 else [(kind, 3.0), ("Lp", math.inf)]
        for kind, p in runs:
            link = fine_link(ops.space, kind)
            wc, wf = weight.as_floats(), _fine_weights(weight, link)
            with one_blas_thread():
                got = _sampled_weighted_ratio(ops, link, weight, wc, wf, p, kind, 20, weighted_seed)
                want = loop_sampled_weighted_ratio(ops, link, weight, wc, wf, p, kind, 20, weighted_seed)
            assert got == want and got > 0


# -- distance rows ----------------------------------------------------------------------------


def _components_mesh():
    """Three separate pieces: two triangles, a Kuhn square of two triangles
    shifted to x in [5, 6], and one triangle at x in [8, 9]."""
    tri = lambda x: [[[x, 0], [0, 0]], [[x + 1, 0], [0, 0]], [[x, 0], [1, 0]]]
    vertices = tri(0) + [[[5, 0], [0, 0]], [[6, 0], [0, 0]], [[5, 0], [1, 0]], [[6, 0], [1, 0]]] + tri(8)
    simplices = [[0, 1, 2], [3, 4, 6], [3, 5, 6], [7, 8, 9]]
    return SimplicialMesh.from_json_dict({
        "version": 1, "dim": 2, "vertices": vertices, "gamma_faces": [],
        "simplices": [{"v": v, "tag": 2, "level": 0} for v in simplices],
    })


@pytest.mark.parametrize("kind", ["vertex", "face"])
@pytest.mark.parametrize("which", ["mesh2d", "mesh3d", "components"])
def test_dist_sets_matches_one_search_per_call(request, which, kind):
    # random left and right sets of sizes 1 to 6, repeated right sets too,
    # against one breadth-first search from left per call
    mesh = _components_mesh() if which == "components" else request.getfixturevalue(which)
    dist = element_distance(mesh, kind)
    rng = np.random.default_rng(len(which))
    rights = [rng.choice(dist.ids, rng.integers(1, min(6, dist.n) + 1), replace=False).tolist() for _ in range(6)]
    seen = set()
    for _ in range(60):
        left = rng.choice(dist.ids, rng.integers(1, min(6, dist.n) + 1), replace=False).tolist()
        right = rights[rng.integers(len(rights))]
        got = dist.dist_sets(left, right)
        assert got == bfs_dist_sets(dist, left, right)
        seen.add(got == UNREACHABLE)
    if which == "components":
        assert seen == {True, False}


def test_dist_sets_is_unreachable_when_one_right_element_is_cut_off():
    # the two-triangle mesh of test_disconnected_distance_sentinel: right
    # holds both triangles, left only the first, so the second has no left
    # element in its component (its row reaches left at distance 0 all the same)
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [
            [[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]],
            [[5, 0], [0, 0]], [[6, 0], [0, 0]], [[5, 0], [1, 0]],
        ],
        "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0}, {"v": [3, 4, 5], "tag": 2, "level": 0}],
        "gamma_faces": [],
    }
    dist = element_distance(SimplicialMesh.from_json_dict(data), "vertex")
    a, b = dist.ids
    assert dist.dist_sets([a], [a, b]) == UNREACHABLE == bfs_dist_sets(dist, [a], [a, b])
    assert dist.dist_sets([a, b], [a]) == 0 == bfs_dist_sets(dist, [a, b], [a])
    assert dist.dist_sets([a, b], [a, b]) == 0


def test_from_source_copy_does_not_reach_the_kept_row(mesh2d):
    dist = element_distance(mesh2d, "vertex")
    src, far = dist.ids[0], dist.ids[-1]
    row = dist.from_source(src)
    want = dist.dist_sets([far], [src])
    assert want == row[-1] > 1
    row[:] = 0
    assert dist.dist_sets([far], [src]) == want
    assert dist.from_source(src)[-1] == want
    kept = dist._row((dist.pos[src],))
    with pytest.raises(ValueError):
        kept[0] = 5


# -- mass solves --------------------------------------------------------------------------------


def _solver_spaces():
    """Spaces of orders 29 to 270: the stability workload's at seed 0 and
    P2, P3 and zero-trace P2 spaces of a randomly refined square."""
    spaces = [stability_case(0, index)[0].space for index in range(len(STABILITY_CASES))]
    mesh = randomly_refined(2, 6, seed=4)
    return spaces + [LagrangeSpace(mesh, 2), LagrangeSpace(mesh, 3), LagrangeSpace(mesh, 2, zero_trace=True)]


def _rhs_block(rng, n, k, pattern):
    """An n x k right-hand side block: normal entries ("dense"), or unit
    columns at distinct random dofs ("sparse"), the kind source_block solves."""
    if pattern == "dense":
        return rng.standard_normal((n, k))
    block = np.zeros((n, k))
    block[rng.choice(n, size=k, replace=False), np.arange(k)] = 1.0
    return block


@pytest.mark.parametrize("pattern", ["dense", "sparse"])
def test_block_mass_solve_equals_column_solves(pattern):
    # a k-column solve has, in each column, the bits of its one-column
    # solve, for normal right-hand sides and for unit columns alike
    rng = np.random.default_rng(0)
    for space in _solver_spaces():
        ops = Operators(space)
        for k in (2, 3, 7):
            block = _rhs_block(rng, space.n_dofs, k, pattern)
            got = ops.solve_mass(block)
            for j in range(k):
                assert np.array_equal(got[:, j], ops.solve_mass(np.ascontiguousarray(block[:, j])))


def test_mass_solve_matches_cho_factor():
    # the sparse LU agrees with the dense Cholesky solve it replaced to
    # 1e-12 relative, for one column and a block
    rng = np.random.default_rng(1)
    for space in _solver_spaces():
        ops = Operators(space)
        for rhs in (rng.standard_normal(space.n_dofs), rng.standard_normal((space.n_dofs, 2))):
            want = cholesky_mass_solve(ops, rhs)
            got = ops.solve_mass(rhs)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0 in the mass assembly
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_mass_matrix_raises_projection_error(mesh2d, value):
    # Operators keeps M alone and builds no P, so a CR space with a
    # non-finite volume gets one; the mass factor then refuses it
    space = CRSpace(mesh2d)
    volumes = space.geometry.volumes.copy()
    volumes[-1] = value
    space.geometry = space.geometry._replace(volumes=volumes)
    ops = Operators(space)
    with pytest.raises(ProjectionError, match="non-finite mass matrix"):
        ops.solve_mass(np.ones(space.n_dofs))


def test_non_finite_right_hand_side_raises_projection_error(mesh2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    rhs = np.ones((ops.space.n_dofs, 2))
    rhs[3, 1] = np.nan
    with pytest.raises(ProjectionError, match="non-finite"):
        ops.solve_mass(rhs)


def test_rhs_names_the_least_element_outside_the_space(mesh2d):
    # two inactive parents in the support, the larger one first: the
    # message names the smaller
    ops = Operators(LagrangeSpace(mesh2d, 1))
    ids = mesh2d.active_ids()
    parents = sorted({mesh2d.simplices[sid].parent for sid in ids} - {None})[:2]
    u = _random_poly(mesh2d, ids[:3] + parents[::-1], 1, np.random.default_rng(0))
    with pytest.raises(ProjectionError, match=f"supported on element {parents[0]}, which is not in the space"):
        ops.rhs(u)
