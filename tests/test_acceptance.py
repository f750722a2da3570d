"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gradedproj.mesh import (
    element_distance,
    grading_of,
    kuhn_initial_mesh,
    level_gap,
    marking_policy,
)
from gradedproj.polyspace import CRSpace, LagrangeSpace, cr_local_mass
from gradedproj.projection import (
    Operators,
    accelerated_iterate,
    measure_decay,
    q_new,
    _random_poly,
)
from gradedproj.stability import (
    Weight,
    cr_dimension_thresholds,
    max_operator,
    measure_weighted_stability,
    stability_range,
)
from conftest import randomly_refined
from exact_algebra import s_eigenvalues, s_expected_spectrum
from oracles import chebyshev_error_bound, reference_simplex_mesh, volume_decay_constant

TOL_EIG = 1e-9
TOL_KAPPA = 1e-8
TOL_IDENTITY = 1e-12


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1. spectral oracle -----------------------------------------------------------


def test_criterion_01_spectral_oracle():
    start = time.time()
    worst = 0.0
    for d in (1, 2, 3):
        for K in (1, 2, 3, 4):
            got = np.sort(s_eigenvalues(K, d))
            want = []
            for mu, mult in s_expected_spectrum(K, d):
                want.extend([mu] * mult)
            err = float(np.max(np.abs(got - np.sort(want))))
            worst = max(worst, err)
    elapsed = time.time() - start
    report(
        1,
        worst <= TOL_EIG and elapsed < 5.0,
        f"spectral oracle d<=3, K<=4: max eigenvalue error {worst:.2e} (tol {TOL_EIG}), {elapsed:.2f}s < 5s",
    )


# -- 2. single-simplex sharpness ---------------------------------------------------


def test_criterion_02_single_simplex_sharpness():
    worst = 0.0
    for d in (1, 2, 3):
        for K in (1, 2, 3, 4):
            cert = Operators(LagrangeSpace(reference_simplex_mesh(d), K)).certify()
            worst = max(worst, abs(cert.lambda_max - 1.0), abs(cert.lambda_min - K / (2 * K + d)))
    report(2, worst <= TOL_EIG, f"single-simplex lambda_max=1 and lambda_min=K/(2K+d): max dev {worst:.2e}")


# -- 3. mesh-level condition bound and two-sided identity ---------------------------


MESH_SUITE = [
    # (dim, degree, alpha, rounds, fraction, seed); dof counts span 85..2261
    (2, 1, 1, 14, 0.30, 101), (2, 1, 2, 15, 0.30, 102), (2, 1, 3, 13, 0.25, 103),
    (2, 2, 1, 11, 0.30, 104), (2, 2, 2, 12, 0.25, 105), (2, 2, 3, 10, 0.30, 106),
    (2, 3, 1, 9, 0.30, 107), (2, 3, 2, 9, 0.25, 108), (2, 3, 3, 8, 0.20, 109),
    (2, 1, 1, 16, 0.20, 110), (2, 2, 1, 12, 0.15, 111), (2, 3, 1, 10, 0.15, 112),
    (3, 1, 1, 10, 0.25, 201), (3, 1, 2, 10, 0.20, 202), (3, 1, 3, 8, 0.15, 203),
    (3, 2, 1, 7, 0.25, 204), (3, 2, 2, 7, 0.15, 205), (3, 2, 3, 6, 0.12, 206),
    (3, 3, 1, 4, 0.15, 207), (3, 3, 2, 4, 0.20, 208),
]


def test_criterion_03_mesh_level_bound():
    worst_excess = -math.inf
    worst_identity = 0.0
    sizes = []
    for dim, degree, alpha, rounds, fraction, seed in MESH_SUITE:
        mesh = randomly_refined(dim, rounds, alpha=alpha, seed=seed, fraction=fraction)
        space = LagrangeSpace(mesh, degree)
        assert space.n_dofs <= 3000, (dim, degree, space.n_dofs)
        sizes.append(space.n_dofs)
        ops = Operators(space)
        cert = ops.certify()
        worst_excess = max(worst_excess, cert.kappa - cert.bound_kappa)
        b = ops.form_matrix.toarray()
        sym = np.abs(b - b.T).max() / max(np.abs(b).max(), 1e-30)
        u = _random_poly(mesh, mesh.active_ids(), degree + 1, np.random.default_rng(seed))
        direct = ops.apply_C(u)
        via_q = ops.apply_C_coeffs(ops.project(u))
        scale = max(np.abs(direct).max(), 1e-30)
        ident = max(sym, float(np.abs(direct - via_q).max() / scale))
        worst_identity = max(worst_identity, ident)
    report(
        3,
        worst_excess <= TOL_KAPPA and worst_identity <= TOL_IDENTITY,
        f"20 BiSecLG meshes (dofs {min(sizes)}..{max(sizes)}): kappa excess {worst_excess:.2e} "
        f"(tol {TOL_KAPPA}), two-sided identity dev {worst_identity:.2e} (tol {TOL_IDENTITY})",
    )


# -- 4. Table 1, decay parameter column -----------------------------------------------

TABLE1_QNEW = {
    1: ["0.2679", "0.2251", "0.2087", "0.2000", "0.1946", "0.1909", "0.1883",
        "0.1862", "0.1847", "0.1834", "0.1823", "0.1815", "0.1807", "0.1801"],
    2: ["0.3333", "0.2679", "0.2404", "0.2251", "0.2154", "0.2087", "0.2038",
        "0.2000", "0.1970", "0.1946", "0.1926", "0.1909", "0.1895", "0.1883"],
    3: ["0.3820", "0.3033", "0.2679", "0.2476", "0.2344", "0.2251", "0.2183",
        "0.2129", "0.2087", "0.2053", "0.2024", "0.2000", "0.1979", "0.1962"],
}


def test_criterion_04_qnew_table():
    from gradedproj.cli import round4

    bad = []
    for d, column in TABLE1_QNEW.items():
        for K, want in enumerate(column, start=1):
            got = round4(q_new(d, K))
            if got != want:
                bad.append((d, K, got, want))
        if round4(q_new(d, math.inf)) != "0.1716":
            bad.append((d, "inf", round4(q_new(d, math.inf)), "0.1716"))
    report(4, not bad, f"q table (d=1,2,3; K=1..14,inf) reproduced to 4 decimals; mismatches: {bad}")


# -- 5. Tables 2 and 3 ------------------------------------------------------------------

TABLE2_2D = {
    (2**0.5, 1): ("[1,inf]", "[1,inf]"),
    (2.0, 1): ("[1,inf]", "[1.2619,4.8188]"),
    (2.0, 2): ("[1,inf]", "[1.0527,19.9937]"),
    (2.0, 3): ("[1,inf]", "[1,inf]"),
    (2.0, math.inf): ("[1,inf]", "[1,inf]"),
    (2**1.5, 1): ("[1,inf]", "[1.8928,2.1200]"),
    (2**1.5, 2): ("[1,inf]", "[1.5790,2.7271]"),
    (2**1.5, 3): ("[1,inf]", "[1.4589,3.1794]"),
    (2**1.5, math.inf): ("[1,inf]", "[1.1797,6.5660]"),
    (4.0, 1): ("[1.1158,9.6376]", "empty"),
    (4.0, 2): ("[1.0257,39.9874]", "empty"),
    (4.0, 3): ("[1,inf]", "[1.9452,2.0580]"),
    (4.0, math.inf): ("[1,inf]", "[1.5729,2.7455]"),
}

TABLE3_3D = {
    (2 ** (1 / 3), 1): ("[1,inf]", "[1,inf]"),
    (2.0, 1): ("[1.0387,26.9019]", "[1.5886,2.6990]"),
    (2.0, 2): ("[1,inf]", "[1.3508,3.8511]"),
    (2.0, 3): ("[1,inf]", "[1.2501,4.9997]"),
    (2.0, math.inf): ("[1,inf]", "[1,inf]"),
}


def _interval_text(dim, gh, K, kind):
    v = stability_range(dim, K, gh, 1.0, kind)
    text = v.interval_text()
    if not v.empty and not v.all_p:
        lower = f"{v.p_lower_display:.4f}"
        upper = "inf" if v.p_upper_display is None else f"{v.p_upper_display:.4f}"
        text = f"[{lower},{upper}]"
    return text


def test_criterion_05_stability_tables():
    bad = []
    for (gh, K), (lp, w1p) in TABLE2_2D.items():
        got = (_interval_text(2, gh, K, "Lp"), _interval_text(2, gh, K, "W1p"))
        if got != (lp, w1p):
            bad.append((2, gh, K, got, (lp, w1p)))
    for (gh, K), (lp, w1p) in TABLE3_3D.items():
        got = (_interval_text(3, gh, K, "Lp"), _interval_text(3, gh, K, "W1p"))
        if got != (lp, w1p):
            bad.append((3, gh, K, got, (lp, w1p)))
    report(5, not bad, f"all printed p-intervals of both stability tables reproduced; mismatches: {bad}")


# -- 6. decay ------------------------------------------------------------------------------


def _decay_pairs(dist, rng, count):
    """(L, L') pairs: random small sources against shells and random blocks."""
    pairs = []
    ids = dist.ids
    while len(pairs) < count:
        src = [ids[int(rng.integers(dist.n))]]
        shells = dist.from_source(src[0])
        reachable = sorted({int(x) for x in shells if x > 0})
        if not reachable:
            continue
        target = int(rng.choice(reachable))
        members = [ids[i] for i in range(dist.n) if shells[i] == target]
        if rng.random() < 0.4:  # thin the far set
            members = members[:: max(1, len(members) // 6)]
        pairs.append((members, src))
    return pairs


def test_criterion_06_decay():
    violations = []
    total = 0
    for dim, degree, rounds, seed in ((2, 1, 8, 61), (3, 1, 4, 62)):
        mesh = kuhn_initial_mesh(dim, 1)
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            ids = mesh.active_ids()
            marked = [s for s in ids if rng.random() < 0.25] or ids[:1]
            mesh.refine_lg(marked, 2)
        ops = Operators(LagrangeSpace(mesh, degree))
        dist = element_distance(mesh, "vertex")
        pairs = _decay_pairs(dist, rng, 50)
        for left, right in pairs:
            r = measure_decay(ops, dist, left, right, trials=1, seed=int(rng.integers(1 << 30)))
            total += 1
            if r.exact_norm > r.bound + 1e-9:
                violations.append((dim, r.delta, r.exact_norm, r.bound))
    report(6, not violations, f"{total} masked-norm pairs across 2D/3D meshes, zero bound violations: {violations}")


# -- 7. accelerated iteration ------------------------------------------------------------


def test_criterion_07_chebyshev():
    worst_margin = -math.inf
    support_ok = True
    for dim, degree, rounds, seed in ((2, 1, 6, 71), (2, 2, 5, 72)):
        mesh = randomly_refined(dim, rounds, alpha=1, seed=seed, fraction=0.3)
        ops = Operators(LagrangeSpace(mesh, degree))
        q = ops.q_bound()
        rng = np.random.default_rng(seed)
        for _ in range(10):
            u = _random_poly(mesh, mesh.active_ids(), degree + 1, rng)
            qu = ops.project(u)
            qu_norm = math.sqrt(max(qu @ (ops.mass @ qu), 0.0))
            for nu in range(1, 21):
                x = accelerated_iterate(ops, u, nu)
                err = math.sqrt(max((x - qu) @ (ops.mass @ (x - qu)), 0.0)) / qu_norm
                worst_margin = max(worst_margin, err - chebyshev_error_bound(q, nu))
        # exact support scan: nu layers at most
        dist = element_distance(mesh, "vertex")
        src = dist.ids[0]
        shells = dist.from_source(src)
        u = _random_poly(mesh, [src], degree, rng)
        for nu in (1, 2, 3, 5):
            x = accelerated_iterate(ops, u, nu)
            for i, sid in enumerate(dist.ids):
                if shells[i] > nu:
                    dofs = [g for g in ops.space.cell_dofs(sid) if g >= 0]
                    if np.max(np.abs(x[dofs])) != 0.0:
                        support_ok = False
    report(
        7,
        worst_margin <= 1e-12 and support_ok,
        f"relative iteration error within 2q^nu/(1+q^2nu) for nu=1..20 (worst margin {worst_margin:.2e}) "
        f"and supports confined to nu layers: {support_ok}",
    )


# -- 8. weighted L2 ------------------------------------------------------------------------


def test_criterion_08_weighted_l2():
    violations = []
    runs = 0
    for dim, rounds, seed in ((2, 5, 81), (2, 7, 82), (3, 3, 83)):
        mesh = randomly_refined(dim, rounds, alpha=1, seed=seed, fraction=0.25)
        ops = Operators(LagrangeSpace(mesh, 1))
        dist = element_distance(mesh, "vertex")
        q = ops.q_bound()
        rng = np.random.default_rng(seed)
        for gamma in (1.5, 2.0, 2.5):
            if gamma * q >= 1.0:
                continue
            anchor = dist.ids[int(rng.integers(dist.n))]
            base = {s: 1.0 if s == anchor else 1e-9 for s in dist.ids}
            weight = Weight(max_operator(base, gamma, dist), dist)
            res = measure_weighted_stability(ops, weight, p=2.0, kind="Lp", seed=seed)
            runs += 1
            if not res.passed:
                violations.append((dim, gamma, res.measured, res.bound))
    report(8, not violations and runs == 9, f"{runs} exact weighted ratios vs 6g^3/(1-gq), violations: {violations}")


# -- 9. graded maximal operator suite ---------------------------------------------------------


def test_criterion_09_max_operator_suite():
    mesh = randomly_refined(2, 6, alpha=1, seed=91, fraction=0.3)
    dist = element_distance(mesh, "vertex")
    rng = np.random.default_rng(91)
    vals = {s: Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7))) or Fraction(1, 3) for s in dist.ids}
    gamma = Fraction(2)
    out = max_operator(vals, gamma, dist)
    positive = {s: v if v > 0 else Fraction(1, 10**12) for s, v in out.items()}
    ok_grading = grading_of(positive, dist) <= gamma
    ok_majorant = all(out[s] >= abs(vals[s]) for s in dist.ids)
    squared = max_operator({s: v * v for s, v in vals.items()}, gamma**2, dist)
    ok_powers = all(out[s] ** 2 == squared[s] for s in dist.ids)
    ok_sup = max(out.values()) == max(abs(v) for v in vals.values())
    # finite Lp norm whenever gamma > gamma_h^(d/p), with the measured volume-decay constant
    gap = level_gap(mesh, dist)
    gamma_h = 2 ** (gap / 2)
    ok_lp = True
    fvals = {s: abs(float(v)) + 1e-3 for s, v in vals.items()}
    for p in (1.0, 2.0):
        g = gamma_h ** (2 / p) * 1.25
        mg = max_operator(fvals, g, dist)
        vols = {s: float(mesh.volume(s)) for s in dist.ids}
        lhs = sum(vols[s] * mg[s] ** p for s in dist.ids) ** (1 / p)
        rhs = sum(vols[s] * fvals[s] ** p for s in dist.ids) ** (1 / p)
        rep = volume_decay_constant(mesh, g**p, dist)
        if lhs > rep.max_ratio ** (1 / p) * rhs * (1 + 1e-12):
            ok_lp = False
    report(
        9,
        ok_grading and ok_majorant and ok_powers and ok_sup and ok_lp,
        f"grading<=gamma {ok_grading}, majorant {ok_majorant}, powers exact {ok_powers}, "
        f"sup-norm equality {ok_sup}, Lp bound with measured constant {ok_lp}",
    )


# -- 10. limited-grading bisection over 1000 rounds --------------------------------------------


def test_criterion_10_bisec_lg_1000_rounds():
    configs = [
        (2, 1, "random-count:3"), (2, 2, "random-count:3"), (2, 3, "random-count:3"),
        (3, 1, "random-count:2"), (3, 2, "random-count:2"), (3, 3, "random-count:2"),
    ]
    rounds_each = 167
    total_rounds = 0
    lg_ok = True
    grading_ok = True
    trend_violations = []
    envelope = {}
    for dim, alpha, policy in configs:
        mesh = kuhn_initial_mesh(dim, 1)
        pick = marking_policy(policy)
        rng = np.random.default_rng(1000 + 10 * dim + alpha)
        ratios = []
        marked_sum = 0
        n0 = mesh.n_active
        for _ in range(rounds_each):
            marked = pick(mesh, rng)
            marked_sum += len(marked)
            mesh.refine_lg(marked, alpha)
            total_rounds += 1
            if mesh.lg_violation(alpha) is not None:
                lg_ok = False
            ratios.append((mesh.n_active - n0) / marked_sum)
        # exact dyadic grading: level gap across touching simplices at most alpha
        gap = level_gap(mesh, element_distance(mesh, "vertex"))
        if gap > alpha:
            grading_ok = False
        envelope[(dim, alpha)] = max(ratios)
        burn = max(3, len(ratios) // 2)
        for i in range(burn, len(ratios)):
            if ratios[i] > 1.05 * max(ratios[:i]):
                trend_violations.append((dim, alpha, i))
    # fixed observed envelope (generous cap above all recorded runs)
    envelope_ok = all(v <= 50.0 for v in envelope.values())
    report(
        10,
        lg_ok and grading_ok and total_rounds == 1002 and not trend_violations and envelope_ok,
        f"{total_rounds} rounds: limited grading always holds {lg_ok}, exact h-grading <= 2^(alpha/d) "
        f"{grading_ok}, ratio envelope {dict((k, round(v, 2)) for k, v in envelope.items())}, "
        f"no growth trend {not trend_violations}",
    )


# -- 11. Crouzeix-Raviart -------------------------------------------------------------------------


def test_criterion_11_crouzeix_raviart():
    # exact local mass
    mass_ok = True
    for d in (2, 3, 4):
        table = cr_local_mass(d)
        for j in range(d + 1):
            for l in range(d + 1):
                want = Fraction(2 - d + (d * d if j == l else 0), (d + 2) * (d + 1))
                if table[j][l] != want:
                    mass_ok = False
    diag_ok = all(cr_local_mass(2)[j][l] == 0 for j in range(3) for l in range(3) if j != l)

    mesh2 = randomly_refined(2, 5, alpha=1, seed=111, fraction=0.3)
    ops2 = Operators(CRSpace(mesh2))
    u = _random_poly(mesh2, mesh2.active_ids(), 1, np.random.default_rng(11))
    c_eq_q = float(np.max(np.abs(ops2.apply_C(u) - ops2.project(u))))
    kappa_ok = True
    for mesh, d in ((mesh2, 2), (randomly_refined(3, 3, alpha=1, seed=112, fraction=0.2), 3)):
        cert = Operators(CRSpace(mesh)).certify()
        if cert.kappa > d * d / (d + 2) + TOL_KAPPA:
            kappa_ok = False
    th = cr_dimension_thresholds(100)
    thresholds_ok = th["lp_all_p_max_d"] == 35 and th["w1p_all_p_max_d"] == 32 and th["w12_all_d"]
    report(
        11,
        mass_ok and diag_ok and c_eq_q <= TOL_IDENTITY and kappa_ok and thresholds_ok,
        f"CR local mass exact {mass_ok}, 2D diagonal {diag_ok}, ||C-Q||={c_eq_q:.2e} (tol {TOL_IDENTITY}), "
        f"kappa bounds d=2,3 {kappa_ok}, thresholds (35, 32, all d<=100) {thresholds_ok}",
    )


# -- 12. bisection level gap across faces ---------------------------------------------------------


def test_criterion_12_face_level_gap():
    gap_ok = True
    grading_ok = True
    for dim, rounds, seed in ((2, 8, 121), (3, 5, 122)):
        mesh = kuhn_initial_mesh(dim, 1)
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            ids = mesh.active_ids()
            marked = [s for s in ids if rng.random() < 0.25] or ids[:1]
            mesh.refine_closure(marked)
        dist = element_distance(mesh, "face")
        gap = level_gap(mesh, dist)
        if gap > 1:
            gap_ok = False
        levels = {mesh.simplices[s].level for s in mesh.active_ids()}
        if len(levels) > 1:
            gamma = grading_of(mesh.h_values(), dist)
            if abs(gamma - 2 ** (1 / dim)) > 1e-12 or gap != 1:
                grading_ok = False
    report(
        12,
        gap_ok and grading_ok,
        f"face-sharing level gap <= 1 after plain closure refinement {gap_ok}; "
        f"face grading of h equals 2^(1/d) exactly on nonuniform meshes {grading_ok}",
    )


# -- 13. scope statement ---------------------------------------------------------------------------


def test_criterion_13_gate_composition():
    # The asymptotic theorems quantify over all meshes and weights and cannot
    # be exhausted at desk scale; the binding gate is the set of exact finite
    # certificates (1-3, 6-8) plus the table reproductions (4-5, 11).
    finite_certificates = {1, 2, 3, 6, 7, 8}
    table_reproductions = {4, 5, 11}
    structural = {9, 10, 12}
    assert finite_certificates | table_reproductions | structural == set(range(1, 13))
    report(13, True, "gate = exact finite certificates (1-3, 6-8) + table reproduction (4-5, 11) + structure (9, 10, 12)")
