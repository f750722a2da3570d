import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedproj.mesh import (
    GradingError,
    SimplicialMesh,
    element_distance,
    grading_of,
    kuhn_initial_mesh,
    level_gap,
    reference_simplex_mesh,
)
from gradedproj.polyspace import CRSpace, LagrangeSpace
from gradedproj.projection import Operators, masked_projection_norm
from gradedproj.stability import (
    StabilityError,
    Weight,
    cr_dimension_thresholds,
    gamma_max_bound,
    grading_value,
    layer_decomposition,
    max_operator,
    measure_weighted_stability,
    published_gradings,
    qnew_table,
    stability_range,
    stability_table,
    volume_decay_constant,
)
from gradedproj.stability import _weighted_p_norm
from conftest import distance_matrix, randomly_refined


@pytest.fixture(scope="module")
def dist2d(mesh2d):
    return element_distance(mesh2d, "vertex")


def test_max_operator_constant(dist2d):
    vals = {s: Fraction(5) for s in dist2d.ids}
    out = max_operator(vals, Fraction(2), dist2d)
    assert all(v == 5 for v in out.values())


def brute_max_operator(values, gamma, dist):
    """Test oracle: max over the full distance matrix of |v_T'| / gamma^delta(T, T'),
    O(N^2) (the former brute-force path of max_operator)."""
    absvals = [abs(values[s]) for s in dist.ids]
    mat = distance_matrix(dist)
    out = []
    for i in range(dist.n):
        best = absvals[i]
        for j in range(dist.n):
            dd = int(mat[i, j])
            if dd > 0 and absvals[j] / gamma**dd > best:
                best = absvals[j] / gamma**dd
        out.append(best)
    return dict(zip(dist.ids, out))


def test_max_operator_indicator(dist2d):
    src = dist2d.ids[0]
    vals = {s: Fraction(1) if s == src else Fraction(0) for s in dist2d.ids}
    shells = dist2d.from_source(src)
    for out in (brute_max_operator(vals, Fraction(2), dist2d), max_operator(vals, Fraction(2), dist2d)):
        for i, s in enumerate(dist2d.ids):
            assert out[s] == Fraction(1, 2 ** int(shells[i]))


def test_max_operator_methods_agree(dist2d):
    rng = np.random.default_rng(0)
    vals = {s: Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 7))) for s in dist2d.ids}
    gamma = Fraction(3, 2)
    assert brute_max_operator(vals, gamma, dist2d) == max_operator(vals, gamma, dist2d)


def test_max_operator_float_matches_oracle(dist2d):
    # in floats the hop-by-hop division and gamma**delta round differently
    rng = np.random.default_rng(1)
    vals = {s: float(rng.random()) * 10.0 ** -int(rng.integers(0, 6)) for s in dist2d.ids}
    oracle = brute_max_operator(vals, 1.7, dist2d)
    out = max_operator(vals, 1.7, dist2d)
    assert max(abs(out[s] - oracle[s]) / oracle[s] for s in dist2d.ids) <= 1e-15


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_max_operator_properties(seed, mesh2d):
    dist = element_distance(mesh2d, "vertex")
    rng = np.random.default_rng(seed)
    vals = {s: Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 5))) or Fraction(1, 9) for s in dist.ids}
    gamma = Fraction(2)
    out = max_operator(vals, gamma, dist)
    # majorant
    assert all(out[s] >= abs(vals[s]) for s in dist.ids)
    # grading at most gamma (positive values needed for grading_of)
    positive = {s: v if v > 0 else Fraction(1, 10**9) for s, v in out.items()}
    assert grading_of(positive, dist) <= gamma
    # powers identity, exact
    squared = max_operator({s: v * v for s, v in vals.items()}, gamma * gamma, dist)
    assert all(out[s] ** 2 == squared[s] for s in dist.ids)
    # sup norm equality
    assert max(out.values()) == max(abs(v) for v in vals.values())


def test_max_operator_rejects_gamma_at_most_one(dist2d):
    with pytest.raises(StabilityError):
        max_operator({s: 1 for s in dist2d.ids}, 1.0, dist2d)


def test_max_operator_lp_bound(mesh2d, dist2d):
    # ||M_gamma v||_p <= (max_T sum_T' (|T'|/|T|) gamma^(-p delta))^(1/p) ||v||_p
    rng = np.random.default_rng(3)
    vals = {s: float(rng.uniform(0.1, 5.0)) for s in dist2d.ids}
    gap = level_gap(mesh2d, dist2d)
    gamma_h = 2 ** (gap / 2)
    for p in (1.0, 2.0, 3.0):
        gamma = gamma_h ** (2 / p) * 1.5
        out = max_operator(vals, gamma, dist2d)
        vols = {s: float(mesh2d.volume(s)) for s in dist2d.ids}
        lhs = sum(vols[s] * out[s] ** p for s in dist2d.ids) ** (1 / p)
        rhs_norm = sum(vols[s] * vals[s] ** p for s in dist2d.ids) ** (1 / p)
        rep = volume_decay_constant(mesh2d, gamma**p, dist2d)
        assert lhs <= rep.max_ratio ** (1 / p) * rhs_norm * (1 + 1e-12)
    # p = infinity: exact equality of sup norms
    out = max_operator(vals, 2.0, dist2d)
    assert max(out.values()) == max(vals.values())


def test_weight_invariants(dist2d):
    rng = np.random.default_rng(1)
    w = Weight({s: Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 5))) for s in dist2d.ids}, dist2d)
    assert w.inverse().gamma == w.gamma
    w2 = Weight({s: Fraction(int(rng.integers(1, 9))) for s in dist2d.ids}, dist2d)
    assert w.product(w2).gamma <= w.gamma * w2.gamma
    with pytest.raises(Exception):
        Weight({s: 0 for s in dist2d.ids}, dist2d)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, 0.0, -1, Fraction(-1, 3)])
def test_weight_rejects_values_not_finite_and_positive(dist2d, bad):
    # NaN passes a "v <= 0" test, and an all-inf weight used to report grading 1
    values = {s: 1.0 for s in dist2d.ids}
    values[dist2d.ids[-1]] = bad
    with pytest.raises(GradingError, match="not finite and positive"):
        Weight(values, dist2d)
    with pytest.raises(GradingError):
        Weight({s: bad for s in dist2d.ids}, dist2d)
    assert Weight({s: Fraction(10) ** 400 for s in dist2d.ids}, dist2d).gamma == 1


def test_layer_decomposition_shells(dist2d):
    src = dist2d.ids[0]
    shells = dist2d.from_source(src)
    w = Weight({s: Fraction(2) ** int(shells[i]) for i, s in enumerate(dist2d.ids)}, dist2d)
    assert w.gamma == 2
    layers = layer_decomposition(w)
    for i, members in layers.items():
        for s in members:
            assert int(shells[dist2d.pos[s]]) == i
    # layer-distance compatibility |i - j| <= delta(L_i, L_j)
    keys = sorted(layers)
    for a in keys:
        for b in keys:
            if a < b:
                assert b - a <= dist2d.dist_sets(layers[a], layers[b])


def test_layer_decomposition_constant_weight(dist2d):
    w = Weight({s: 3.7 for s in dist2d.ids}, dist2d)
    layers = layer_decomposition(w)
    assert list(layers) == [0]
    assert layers[0] == sorted(w.values)


def test_layer_decomposition_random_graded(dist2d):
    rng = np.random.default_rng(5)
    base = {s: 1.0 if s == dist2d.ids[3] else 1e-6 for s in dist2d.ids}
    w = Weight(max_operator(base, 1.7, dist2d), dist2d)
    layers = layer_decomposition(w)
    keys = sorted(layers)
    assert sum(len(v) for v in layers.values()) == dist2d.n
    for a in keys:
        for b in keys:
            if a < b:
                assert b - a <= dist2d.dist_sets(layers[a], layers[b])


def test_stability_range_table_rows():
    v = stability_range(2, 1, 2.0, 1.0, "W1p")
    assert (v.p_lower_display, v.p_upper_display) == (1.2619, 4.8188)
    v = stability_range(3, 1, 2.0, 1.0, "Lp")
    assert (v.p_lower_display, v.p_upper_display) == (1.0387, 26.9019)
    v = stability_range(2, 3, 2.0, 1.0, "W1p")
    assert v.all_p and v.interval_text() == "[1,inf]"
    v = stability_range(2, 1, 4.0, 1.0, "W1p")
    assert v.empty and v.interval_text() == "empty"


def test_stability_range_admissibility_matches_interval():
    for p in (1.0, 1.3, 2.0, 4.8, 5.0, math.inf):
        v = stability_range(2, 1, 2.0, 1.0, "W1p", p=p)
        if v.p_lower is not None:
            inside = (p > v.p_lower and (v.p_upper is None or p < v.p_upper))
            assert v.admissible == inside
    # symmetric in 1/p around 1/2
    v = stability_range(2, 1, 2.0, 1.0, "W1p")
    assert 1 / v.p_lower + 1 / v.p_upper == pytest.approx(1.0, abs=1e-12)


def test_stability_range_monotonicity():
    # widen in K, shrink in gamma_h
    prev = None
    for K in (1, 2, 3, 4):
        v = stability_range(2, K, 2.0, 1.0, "W1p")
        width = (0.0 if v.empty else (1e9 if v.all_p else v.p_upper - v.p_lower))
        if prev is not None:
            assert width >= prev - 1e-12
        prev = width
    prev = None
    for gh in (1.2, 1.6, 2.0, 2.8, 4.0):
        v = stability_range(2, 2, gh, 1.0, "W1p")
        width = (0.0 if v.empty else (1e9 if v.all_p else v.p_upper - v.p_lower))
        if prev is not None:
            assert width <= prev + 1e-12
        prev = width


def test_stability_range_weighted_and_cr():
    # a nontrivial weight narrows the interval
    base = stability_range(2, 2, 2.0, 1.0, "W1p")
    tight = stability_range(2, 2, 2.0, 1.5, "W1p")
    assert tight.p_lower > base.p_lower
    # CR defaults to the face grading 2^(1/d)
    v = stability_range(3, "CR", None, 1.0, "Lp")
    assert v.all_p
    v2 = stability_range(2, "CR", None, 1.0, "W1p")
    assert v2.all_p  # d = 2: infinite grading bound
    with pytest.raises(StabilityError):
        stability_range(2, 1, None, 1.0, "Lp")
    with pytest.raises(StabilityError):
        stability_range(2, 1, 2.0, 0.5, "Lp")


def test_gamma_max_bounds():
    assert gamma_max_bound(2, 1) == pytest.approx(3.0)
    assert gamma_max_bound(2, "CR") == math.inf
    assert gamma_max_bound(3, "CR") == pytest.approx((3 + math.sqrt(5)) / (3 - math.sqrt(5)))


def test_cr_dimension_thresholds():
    th = cr_dimension_thresholds(100)
    assert th["lp_all_p_max_d"] == 35
    assert th["w1p_all_p_max_d"] == 32
    assert th["w12_all_d"] is True and th["w12_failures"] == []


def test_volume_decay(mesh2d, dist2d):
    rep = volume_decay_constant(mesh2d, 8.0, dist2d)
    assert rep.max_ratio >= 1.0
    assert rep.factor is not None and rep.constant == rep.max_ratio / rep.factor
    with pytest.raises(StabilityError):
        volume_decay_constant(mesh2d, 1.5, dist2d)  # gamma <= gamma_h^d


def test_volume_decay_single_simplex_and_uniform():
    m = reference_simplex_mesh(2)
    rep = volume_decay_constant(m, 2.0, element_distance(m, "vertex"))
    assert rep.max_ratio == 1.0 and rep.uniform_caveat
    m = kuhn_initial_mesh(2, 2)
    rep = volume_decay_constant(m, 2.0, element_distance(m, "vertex"))
    assert rep.uniform_caveat and rep.factor is None


def test_volume_decay_rejects_disconnected_mesh():
    data = {
        "version": 1,
        "dim": 2,
        "vertices": [[[x, 0], [y, 0]] for x, y in ((0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1))],
        "simplices": [{"v": [0, 1, 2], "tag": 2, "level": 0}, {"v": [3, 4, 5], "tag": 2, "level": 0}],
        "gamma_faces": [],
    }
    m = SimplicialMesh.from_json_dict(data)
    with pytest.raises(StabilityError, match="disconnected"):
        volume_decay_constant(m, 2.0, element_distance(m, "vertex"))


def test_volume_decay_bounded_over_corner_rounds():
    m = kuhn_initial_mesh(2, 1)
    rng = np.random.default_rng(0)
    ratios = []
    from gradedproj.mesh import marking_policy

    corner = marking_policy("corner")
    for _ in range(8):
        m.refine_lg(corner(m, rng), 2)
        dist = element_distance(m, "vertex")
        rep = volume_decay_constant(m, 9.0, dist)  # gamma_h^d = 4 at most
        ratios.append(rep.max_ratio)
    assert max(ratios[3:]) <= 1.05 * max(ratios[:3]) + 5.0  # bounded, no blow-up
    assert max(ratios) < 50


def test_weighted_stability_constant_weight(mesh2d, dist2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    w = Weight({s: 1.0 for s in dist2d.ids}, dist2d)
    res = measure_weighted_stability(ops, w, p=2.0, kind="Lp", fine_sweeps=1)
    assert res.measured <= 1.0 + 1e-9
    assert res.bound == pytest.approx(6.0 / (1.0 - ops.q_bound()))
    assert res.passed


def test_weighted_stability_graded_weight(mesh2d, dist2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    base = {s: 1.0 if s == dist2d.ids[0] else 1e-9 for s in dist2d.ids}
    w = Weight(max_operator(base, 2.0, dist2d), dist2d)
    assert float(w.gamma) == pytest.approx(2.0)
    res = measure_weighted_stability(ops, w, p=2.0, kind="Lp", fine_sweeps=1)
    assert res.bound == pytest.approx(6.0 * 8.0 / (1.0 - 2.0 / 3.0))
    assert res.measured <= res.bound + 1e-9
    assert res.passed


def test_weighted_stability_inadmissible_grading(mesh2d, dist2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    base = {s: 1.0 if s == dist2d.ids[0] else 1e-9 for s in dist2d.ids}
    w = Weight(max_operator(base, 4.0, dist2d), dist2d)  # 4 > 1/q = 3
    res = measure_weighted_stability(ops, w, p=2.0, kind="Lp", fine_sweeps=1)
    assert res.bound is None and not res.bound_applicable
    assert "not applicable" in res.note


def test_weighted_stability_gradient_ratio(mesh2d, dist2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    w = Weight({s: 1.0 for s in dist2d.ids}, dist2d)
    res = measure_weighted_stability(ops, w, p=2.0, kind="W1p", fine_sweeps=1)
    assert res.measured < 50  # bounded diagnostic (no hard constant)
    assert res.bound is None


def test_weighted_stability_sampled_p(mesh2d, dist2d):
    ops = Operators(LagrangeSpace(mesh2d, 1))
    base = {s: 1.0 if s == dist2d.ids[0] else 1e-9 for s in dist2d.ids}
    w = Weight(max_operator(base, 1.5, dist2d), dist2d)
    res = measure_weighted_stability(ops, w, p=4.0, kind="Lp", samples=5, seed=2)
    assert res.measured > 0 and res.bound is None


def test_weighted_to_decay_estimate(mesh2d, dist2d):
    # with gamma < 1/q: ||1_L Q 1_L'|| <= min(c gamma^(-delta), 1), c = 6 gamma^3/(1-gamma q)
    ops = Operators(LagrangeSpace(mesh2d, 1))
    q = ops.q_bound()
    gamma = 2.5
    c = 6 * gamma**3 / (1 - gamma * q)
    src = [dist2d.ids[0]]
    shells = dist2d.from_source(src[0])
    for target in (2, int(shells.max())):
        members = [dist2d.ids[i] for i in range(dist2d.n) if shells[i] == target]
        if not members:
            continue
        norm = masked_projection_norm(ops, members, src)
        assert norm <= min(c * gamma ** (-target), 1.0) + 1e-9


def test_weighted_stability_zero_trace(mesh2d, dist2d):
    # the zero-trace projection obeys the same weighted bound machinery
    ops = Operators(LagrangeSpace(mesh2d, 1, zero_trace=True))
    base = {s: 1.0 if s == dist2d.ids[1] else 1e-9 for s in dist2d.ids}
    w = Weight(max_operator(base, 2.0, dist2d), dist2d)
    res = measure_weighted_stability(ops, w, p=2.0, kind="Lp", fine_sweeps=1)
    assert res.bound is not None
    assert res.measured <= res.bound + 1e-9


def test_gradient_ratio_bounded_across_refinements():
    # W^{1,2} ratio on graded 2D meshes: no growth trend (1.05 rule after round 3)
    mesh = kuhn_initial_mesh(2, 1)
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(8):
        ids = mesh.active_ids()
        marked = [s for s in ids if rng.random() < 0.3] or ids[:1]
        mesh.refine_lg(marked, 2)
        dist = element_distance(mesh, "vertex")
        ops = Operators(LagrangeSpace(mesh, 1))
        w = Weight({s: 1.0 for s in dist.ids}, dist)
        res = measure_weighted_stability(ops, w, p=2.0, kind="W1p", fine_sweeps=1)
        ratios.append(res.measured)
    for i in range(3, len(ratios)):
        assert ratios[i] <= 1.05 * max(ratios[:i]), ratios


def test_weighted_to_decay_with_measured_constant(mesh2d, dist2d):
    # the chain behind the decay-from-weights argument, with the constant
    # measured on the same samples
    ops = Operators(LagrangeSpace(mesh2d, 1))
    gamma = 2.0
    src = [dist2d.ids[0]]
    shells = dist2d.from_source(src[0])
    target = int(shells.max()) - 1
    members = [dist2d.ids[i] for i in range(dist2d.n) if shells[i] == target]
    wvals = max_operator({s: 1.0 if s in members else 1e-300 for s in dist2d.ids}, gamma, dist2d)
    w2 = {s: wvals[s] ** 2 for s in dist2d.ids}
    from gradedproj.projection import weighted_mass, _random_poly

    mw = weighted_mass(ops.space, w2)
    ml = ops.masked_mass(members)
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(6):
        u = _random_poly(mesh2d, src, 2, rng)
        qc = ops.project(u)
        wq = math.sqrt(max(qc @ (mw @ qc), 0.0))
        # ||w u|| <= gamma^(-delta) ||u|| since w <= gamma^(-delta) on the source
        wu = wvals[src[0]] * u.norm2()
        lq = math.sqrt(max(qc @ (ml @ qc), 0.0))
        samples.append((lq, wq, wu, u.norm2()))
    c_meas = max(wq / wu for _, wq, wu, _ in samples if wu > 0)
    delta = dist2d.dist_sets(members, src)
    for lq, wq, wu, norm_u in samples:
        assert lq <= wq + 1e-12  # masking below the weighted norm
        assert lq <= c_meas * gamma ** (-delta) * norm_u * (1 + 1e-9)


def test_regularized_h_grading(mesh3d):
    from gradedproj.stability import regularized_h_grading

    dist = element_distance(mesh3d, "vertex")
    rep = regularized_h_grading(mesh3d, dist, gamma=2.0)
    assert rep.regularized_grading <= 2.0 + 1e-12
    assert rep.equivalence_ratio >= 1.0
    # evidence check on a refinement sequence: the equivalence ratio stays bounded
    mesh = kuhn_initial_mesh(3, 1)
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(6):
        ids = mesh.active_ids()
        marked = [s for s in ids if rng.random() < 0.2] or ids[:1]
        mesh.refine_closure(marked)
        rep = regularized_h_grading(mesh, element_distance(mesh, "vertex"), gamma=2.0)
        ratios.append(rep.equivalence_ratio)
    assert max(ratios) < 8.0


def test_w12_degree_ranges():
    from gradedproj.stability import w12_admissible_degrees, w12_all_degrees_max_dim, w12_table

    # certified rows of the published W^{1,2} comparison tables
    assert w12_admissible_degrees(2, 2.0)["k_min"] == 1
    assert w12_admissible_degrees(2, 2**1.5)["k_min"] == 1
    assert w12_admissible_degrees(2, 4.0)["k_min"] == 3
    assert w12_admissible_degrees(3, 2 ** (1 / 3))["k_min"] == 1
    assert w12_admissible_degrees(3, 2.0)["k_min"] == 1
    for dim, gh in ((2, 2.0), (2, 4.0), (3, 2.0)):
        assert w12_admissible_degrees(dim, gh)["all_from_k_min"]
    rows = w12_table(2, [("2", 2.0), ("4", 4.0)])
    assert rows[0]["K_range"] == "{1,2,...}"
    assert rows[1]["K_range"] == "{3,4,...}"
    # grading 2 covers every degree up to dimension six, no further
    assert w12_all_degrees_max_dim() == 6
    assert w12_admissible_degrees(7, 2.0)["k_min"] == 2  # K=1 fails exactly at d=7


def _linear_interpolant(space, a):
    """Coefficients of the interpolant of u(x) = a . x: nodal values for
    Lagrange, values at the face barycenters for Crouzeix-Raviart (both
    reproduce linear functions exactly)."""
    if isinstance(space, CRSpace):
        coords = space.mesh.coords
        points = [np.mean([[float(x) for x in coords[v]] for v in face], axis=0) for face in space.face_keys]
    else:
        points = [[float(x) for x in c] for c in space.node_coords]
    return np.array(points) @ a


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["P1", "P2", "CR"])
def test_w1p_norm_of_linear_function(dim, kind):
    # |grad u| = |a| everywhere on the unit square or cube, so with weight 1
    # every gradient p-norm of u(x) = a . x is |a|
    mesh = randomly_refined(dim, 2, seed=dim, fraction=0.4)
    space = CRSpace(mesh) if kind == "CR" else LagrangeSpace(mesh, int(kind[1]))
    a = np.array([0.75, -1.25, 0.5][:dim])
    coeffs = _linear_interpolant(space, a)
    ones = {sid: 1.0 for sid in space.element_ids}
    for p in (3.0, math.inf):
        assert abs(_weighted_p_norm(space, coeffs, ones, p, "W1p") - np.linalg.norm(a)) < 1e-12
    if dim == 2:
        dist = element_distance(mesh, "vertex")
        weight = Weight(max_operator({s: 1.0 if s == dist.ids[0] else 1e-3 for s in dist.ids}, 2.0, dist), dist)
        res = measure_weighted_stability(Operators(space), weight, p=3.0, kind="W1p", samples=4, seed=1)
        assert res.p == 3.0 and res.kind == "W1p" and res.bound is None and res.passed is None
        assert 0 < res.measured < math.inf


def test_cr_weighted_l2_bound(mesh3d):
    # the weighted bound with the face-based decay parameter
    from gradedproj.polyspace import CRSpace

    ops = Operators(CRSpace(mesh3d))
    dist = element_distance(mesh3d, "face")
    q = ops.q_bound()
    gamma = 1.5
    assert gamma * q < 1.0
    base = {s: 1.0 if s == dist.ids[0] else 1e-9 for s in dist.ids}
    w = Weight(max_operator(base, gamma, dist), dist)
    res = measure_weighted_stability(ops, w, p=2.0, kind="Lp", fine_sweeps=1)
    assert res.passed, (res.measured, res.bound)


def test_cr_broken_gradient_ratio_bounded():
    # ||grad_NC Q_CR u|| / ||grad u|| over conforming u, across refinements
    from gradedproj.polyspace import CRSpace

    for dim in (2, 3):
        mesh = kuhn_initial_mesh(dim, 1)
        rng = np.random.default_rng(dim)
        ratios = []
        for _ in range(6 if dim == 2 else 4):
            ids = mesh.active_ids()
            marked = [s for s in ids if rng.random() < 0.25] or ids[:1]
            mesh.refine_lg(marked, 1)
            ops = Operators(CRSpace(mesh))
            dist = element_distance(mesh, "face")
            w = Weight({s: 1.0 for s in dist.ids}, dist)
            res = measure_weighted_stability(ops, w, p=2.0, kind="W1p", fine_sweeps=1)
            ratios.append(res.measured)
        for i in range(3, len(ratios)):
            assert ratios[i] <= 1.05 * max(ratios[:i]), (dim, ratios)


def _nc_interpolate(mesh, cr_space, p1_space, coeffs):
    """Test utility: face-mean interpolant onto the nonconforming space.

    For piecewise-linear input the mean over a face is the average of its
    vertex values, exactly.
    """
    out = np.zeros(cr_space.n_dofs)
    vertex_vals = {}
    for node, val in zip(p1_space.node_coords, coeffs):
        vertex_vals[node] = val
    for fid, face in enumerate(cr_space.face_keys):
        vals = [vertex_vals[mesh.coords[v]] for v in face]
        out[fid] = sum(vals) / len(vals)
    return out


def test_nc_interpolant_estimates(mesh2d):
    # the two local estimates behind the broken-gradient stability argument:
    # ||w - I w||_{2,T} <= 2 h_T ||grad w||_{2,T} and ||grad I w|| <= ||grad w||
    from gradedproj.polyspace import CRSpace, LagrangeSpace as LS
    from gradedproj.projection import weighted_mass, weighted_stiffness
    from test_dofmap import barycentric_gradients

    mesh = mesh2d
    cr = CRSpace(mesh)
    p1 = LS(mesh, 1)
    rng = np.random.default_rng(9)
    ones = {s: 1.0 for s in mesh.active_ids()}
    k_cr = weighted_stiffness(cr, ones)
    k_p1 = weighted_stiffness(p1, ones)
    for _ in range(5):
        w = rng.standard_normal(p1.n_dofs)
        iw = _nc_interpolate(mesh, cr, p1, w)
        grad_w2 = float(w @ (k_p1 @ w))
        grad_iw2 = float(iw @ (k_cr @ iw))
        assert grad_iw2 <= grad_w2 * (1 + 1e-12)
        # elementwise L2 difference against 2 h_T local gradient norms
        for sid in mesh.active_ids():
            verts = mesh.simplices[sid].vertices
            grads = barycentric_gradients(mesh, sid)
            wl = np.array([w[p1.cell_dofs(sid)[j]] for j in range(3)])
            il = np.array([iw[cr.cell_dofs(sid)[j]] for j in range(3)])
            vol = float(mesh.volume(sid))
            # difference of P1 (barycentric coeffs wl) and CR local (psi_j = 1 - 2 lambda_j)
            # evaluate both on the local quadrature of degree 2
            from gradedproj.polyspace import simplex_quadrature

            pts, wts = simplex_quadrature(2, 2)
            vals_w = pts @ wl
            vals_i = (1.0 - 2.0 * pts) @ il
            diff2 = vol * float(wts @ (vals_w - vals_i) ** 2)
            grad_local = (wl @ grads) @ (wl @ grads)
            h_t2 = float(mesh.diameter2(sid))
            assert diff2 <= 4.0 * h_t2 * vol * grad_local + 1e-14


def test_published_gradings_and_tables():
    data = published_gradings()
    assert grading_value("2D-RGB") == pytest.approx(2**1.5)
    assert grading_value("2D-NVB+") == 2.0
    assert grading_value("2D-NVB-") == pytest.approx(2**1.5)
    assert grading_value("2D-RG") == 4.0
    assert grading_value("2D-RG-GHS") == 2.0
    assert grading_value("BiSecLG", dim=3, alpha=3) == 2.0
    with pytest.raises(StabilityError):
        grading_value("BiSecLG")
    rows = qnew_table()
    assert rows[0]["d2"] == pytest.approx(1 / 3)
    assert rows[-1]["K"] == "inf"
    table = stability_table(2, [("2", 2.0)], degrees=(1,))
    assert table[0]["W1p"] == "[1.2619,4.8188]"
