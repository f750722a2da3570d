"""Weight grading, the graded maximal operator, layer decompositions, the
analytic stability-range calculus, and empirical weighted-norm measurements.

The guaranteed stability window for exponent p is the strict inequality

    gamma_rho * gamma_h^(s + d |1/2 - 1/p|) < gamma_max,   s = 0 (Lp), 1 (W1p)

with gamma_max instantiated by its certified lower bound 1/q_new (Lagrange)
or (d + sqrt(d+2)) / (d - sqrt(d+2)) (Crouzeix-Raviart, where the mesh size
grading is 2^(1/d)).  Interval endpoints are printed conservatively: the lower
endpoint is rounded up and the upper endpoint rounded down at four decimals,
so every printed p is admissible.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg

from .mesh import ElementDistance, GradingError, SimplicialMesh, grading_of, level_gap
from .polyspace import CRSpace, LagrangeSpace, float_vandermonde_inv, simplex_quadrature
from .projection import (
    FeFunction,
    Operators,
    TwoMeshLink,
    _nodal_values_at_quad,
    _cr_values_at,
    q_new,
    weighted_mass,
    weighted_stiffness,
)


class StabilityError(Exception):
    """Invalid stability-analysis input."""


# -- published mesh-size gradings of the classical refinement strategies ---------

_GRADINGS_FILE = Path(__file__).with_name("published_gradings.json")


def published_gradings() -> dict:
    """Mesh-size gradings reported in the literature for classical refinement
    strategies (read-only constants; never recomputed here)."""
    with open(_GRADINGS_FILE) as fh:
        return json.load(fh)


def grading_value(name: str, dim: int | None = None, alpha: int | None = None) -> float:
    data = published_gradings()
    if name == "BiSecLG":
        if dim is None or alpha is None:
            raise StabilityError("BiSecLG grading needs dim and alpha")
        return 2.0 ** (alpha / dim)
    entry = data[name]
    return float(entry["base"]) ** float(entry["exponent"])


# -- weights ----------------------------------------------------------------------


@dataclass
class Weight:
    """Per-simplex positive piecewise-constant weight with its grading."""

    values: dict[int, object]
    dist: ElementDistance
    _gamma: object = field(default=None, repr=False)

    def __post_init__(self):
        for sid, v in self.values.items():
            if v <= 0:
                raise GradingError(f"nonpositive weight {v} on simplex {sid}")

    @property
    def gamma(self):
        if self._gamma is None:
            self._gamma = grading_of(self.values, self.dist)
        return self._gamma

    def inverse(self) -> "Weight":
        return Weight({s: 1 / v for s, v in self.values.items()}, self.dist)

    def product(self, other: "Weight") -> "Weight":
        return Weight({s: v * other.values[s] for s, v in self.values.items()}, self.dist)

    def power(self, exponent) -> "Weight":
        return Weight({s: v**exponent for s, v in self.values.items()}, self.dist)

    def as_floats(self) -> dict[int, float]:
        return {s: float(v) for s, v in self.values.items()}


# -- graded maximal operator -------------------------------------------------------


def max_operator(values: dict[int, object], gamma, dist: ElementDistance) -> dict[int, object]:
    """Smallest gamma-graded majorant: (M_gamma v)|_T = max_T' gamma^(-delta(T,T')) |v_T'|.

    Exact when values and gamma are rational.  Computed by one max-product
    Dijkstra relaxation from all sources (every hop multiplies by 1/gamma),
    O(E log N) on the element graph.
    """
    if gamma <= 1:
        raise StabilityError("max_operator requires gamma > 1")
    ids = dist.ids
    best = [abs(values[s]) for s in ids]
    heap = [(-v, i) for i, v in enumerate(best)]
    heapq.heapify(heap)
    settled = [False] * dist.n
    while heap:
        negv, i = heapq.heappop(heap)
        if settled[i]:
            continue
        settled[i] = True
        v = -negv
        relaxed = v / gamma
        for j in dist.neighbors[i]:
            if not settled[j] and relaxed > best[j]:
                best[j] = relaxed
                heapq.heappush(heap, (-relaxed, j))
    return dict(zip(ids, best))


def layer_decomposition(weight: Weight) -> dict[int, list[int]]:
    """Disjoint layers L_i = {T : gamma^(i-1) < value_T <= gamma^i}.

    A weight with grading 1 is one single layer (flagged by key 0 only).
    """
    gamma = weight.gamma
    if gamma == 1:
        return {0: sorted(weight.values)}
    layers: dict[int, list[int]] = {}
    lg = math.log(float(gamma))
    for sid, val in weight.values.items():
        i = math.ceil(math.log(float(val)) / lg - 1e-12)
        # exact fix-up of the float estimate
        while not val <= gamma**i:
            i += 1
        while gamma ** (i - 1) >= val:
            i -= 1
        layers.setdefault(i, []).append(sid)
    return {i: sorted(v) for i, v in sorted(layers.items())}


# -- the analytic stability range ----------------------------------------------------


@dataclass
class StabilityVerdict:
    dim: int
    degree: object  # K or "CR"
    gamma_h: float
    gamma_rho: float
    kind: str  # "Lp" | "W1p"
    p: float
    admissible: bool
    all_p: bool
    empty: bool
    p_lower: float | None  # exact open-interval endpoints
    p_upper: float | None
    p_lower_display: float | None  # conservative 4-decimal endpoints
    p_upper_display: float | None
    gamma_max_bound: float

    def interval_text(self) -> str:
        if self.empty:
            return "empty"
        if self.all_p:
            return "[1,inf]"
        upper = "inf" if self.p_upper_display is None else f"{self.p_upper_display:.4f}"
        lower = "1" if self.p_lower_display is None else f"{self.p_lower_display:.4f}"
        return f"[{lower},{upper}]"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree if isinstance(self.degree, str) else int(self.degree),
            "gamma_h": self.gamma_h,
            "gamma_rho": self.gamma_rho,
            "kind": self.kind,
            "p": None if self.p == math.inf else self.p,
            "admissible": self.admissible,
            "interval": self.interval_text(),
            "gamma_max_bound": self.gamma_max_bound,
            "guarantee": "certified lower bound 1/q; the true worst grading may be larger",
        }


def _round_up4(x: float) -> float:
    return math.ceil(x * 10000 - 1e-9 * abs(x) * 10000 - 1e-12) / 10000


def _round_down4(x: float) -> float:
    return math.floor(x * 10000 + 1e-9 * abs(x) * 10000 + 1e-12) / 10000


def gamma_max_bound(dim: int, degree) -> float:
    """Certified lower bound for the worst grading: 1/q_new, or the
    Crouzeix-Raviart value (d + sqrt(d+2)) / (d - sqrt(d+2)) (infinite for d=2)."""
    if degree == "CR":
        s = math.sqrt(dim + 2.0)
        if dim <= s:
            return math.inf
        return (dim + s) / (dim - s)
    return 1.0 / q_new(dim, degree)


def stability_range(
    dim: int,
    degree,
    gamma_h: float | None = None,
    gamma_rho: float = 1.0,
    kind: str = "Lp",
    p: float = 2.0,
) -> StabilityVerdict:
    """Solve the strict grading inequality for the admissible p-interval.

    degree is a polynomial degree, math.inf for the limit value, or "CR"
    (where gamma_h defaults to the bisection face grading 2^(1/d)).
    """
    if kind not in ("Lp", "W1p"):
        raise StabilityError(f"unknown stability kind {kind!r}")
    if gamma_rho < 1:
        raise StabilityError("gamma_rho must be >= 1")
    is_cr = degree == "CR"
    if gamma_h is None:
        if not is_cr:
            raise StabilityError("gamma_h required for Lagrange verdicts")
        gamma_h = 2.0 ** (1.0 / dim)
    if gamma_h < 1:
        raise StabilityError("gamma_h must be >= 1")
    gmax = gamma_max_bound(dim, degree)
    s = 1 if kind == "W1p" else 0

    def admissible_at(t: float) -> bool:
        return gamma_rho * gamma_h ** (s + dim * t) < gmax

    p_val = math.inf if p in (None, math.inf) else float(p)
    t_of_p = 0.5 if p_val == math.inf else abs(0.5 - 1.0 / p_val)
    admissible = admissible_at(t_of_p)

    if gamma_h == 1.0 or gmax == math.inf:
        all_p = admissible_at(0.5)
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
            all_p=all_p, empty=not all_p and not admissible_at(0.0),
            p_lower=None if all_p else None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )

    t_star = (math.log(gmax) - math.log(gamma_rho) - s * math.log(gamma_h)) / (dim * math.log(gamma_h))
    if t_star <= 0:
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, False,
            all_p=False, empty=True, p_lower=None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )
    if t_star > 0.5:
        return StabilityVerdict(
            dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
            all_p=True, empty=False, p_lower=None, p_upper=None,
            p_lower_display=None, p_upper_display=None, gamma_max_bound=gmax,
        )
    p_lower = 2.0 / (1.0 + 2.0 * t_star)
    p_upper = math.inf if t_star >= 0.5 else 2.0 / (1.0 - 2.0 * t_star)
    return StabilityVerdict(
        dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
        all_p=False, empty=False, p_lower=p_lower, p_upper=p_upper,
        p_lower_display=_round_up4(p_lower),
        p_upper_display=None if p_upper == math.inf else _round_down4(p_upper),
        gamma_max_bound=gmax,
    )


# -- Crouzeix-Raviart dimension thresholds (exact integer arithmetic) ----------------


def _cr_power(dim: int) -> tuple[int, int]:
    """(a, b) with (d + s)^d = a + b s in Z[s], s^2 = d + 2."""
    a, b = 1, 0
    for _ in range(dim):
        a, b = a * dim + b * (dim + 2), a + b * dim
    return a, b


def _cr_condition_holds(dim: int, two_power: int) -> bool:
    """Exact test of 2^(two_power / (2 d)) < (d + s)/(d - s) for s = sqrt(d+2)."""
    if dim * dim <= dim + 2:  # d = 2: the bound is infinite
        return True
    a, b = _cr_power(dim)
    u = a * a + b * b * (dim + 2)
    v = 2 * a * b
    lhs = u * (2**two_power - 1)
    rhs_sq = v * v * (dim + 2) * (2**two_power + 1) ** 2
    if lhs <= 0:
        return True
    return lhs * lhs < rhs_sq


def cr_dimension_thresholds(probe_limit: int = 100) -> dict:
    """Largest dimensions with full [1, inf] stability ranges for the
    Crouzeix-Raviart projection, plus the W^{1,2} scan up to the probe limit.

    Conditions (strict): 2^(1/2) < R for all-p Lp, 2^(1/d + 1/2) < R for
    all-p W1p, and 2^(1/d) < R for W^{1,2}, with R = (d + sqrt(d+2))/(d - sqrt(d+2)).
    """
    lp_max = w1p_max = None
    w12_all = True
    w12_failures = []
    for d in range(2, probe_limit + 1):
        if _cr_condition_holds(d, d):  # 2^(1/2) < R  <=>  2^d < R^(2d)
            lp_max = d
        if _cr_condition_holds(d, d + 2):  # 2^(1/d + 1/2) = 2^((d+2)/(2d))
            w1p_max = d
        if not _cr_condition_holds(d, 2):  # 2^(1/d) = 2^(2/(2d))
            w12_all = False
            w12_failures.append(d)
    return {
        "lp_all_p_max_d": lp_max,
        "w1p_all_p_max_d": w1p_max,
        "w12_all_d": w12_all,
        "w12_failures": w12_failures,
        "probe_limit": probe_limit,
    }


# -- volume decay -----------------------------------------------------------------------


@dataclass
class VolumeDecayReport:
    gamma: float
    gamma_h: float
    max_ratio: float  # max over T of sum_T' |T'| gamma^(-delta) / |T|
    factor: float | None  # log(gamma_h) / log(gamma / gamma_h^d)
    constant: float | None  # max_ratio / factor
    uniform_caveat: bool


def volume_decay_constant(mesh: SimplicialMesh, gamma: float, dist: ElementDistance) -> VolumeDecayReport:
    """Exact per-element sums sum_T' |T'| gamma^(-delta(T,T')) relative to |T|."""
    gap = level_gap(mesh, dist)
    gamma_h = 2.0 ** (gap / mesh.dim)
    uniform = gap == 0
    if not uniform and gamma <= gamma_h**mesh.dim:
        raise StabilityError(f"need gamma > gamma_h^d = {gamma_h**mesh.dim:.6f}, got {gamma}")
    vols = np.array([float(mesh.volume(s)) for s in dist.ids])
    max_ratio = 0.0
    for sid, vol in zip(dist.ids, vols):
        row = dist.from_source(sid)
        if np.any(row < 0):
            raise StabilityError("disconnected mesh")
        max_ratio = max(max_ratio, float((gamma ** (-row.astype(float))) @ vols / vol))
    if uniform:
        return VolumeDecayReport(gamma, gamma_h, max_ratio, None, None, True)
    factor = math.log(gamma_h) / math.log(gamma / gamma_h**mesh.dim)
    return VolumeDecayReport(gamma, gamma_h, max_ratio, factor, max_ratio / factor, False)


# -- weighted stability measurements ------------------------------------------------------


@dataclass
class WeightedStabilityResult:
    p: float
    kind: str
    gamma_rho: float
    q: float
    measured: float
    bound: float | None  # p=2 only: 6 gamma^3 / (1 - gamma q) when gamma < 1/q
    bound_applicable: bool
    passed: bool | None  # None when no hard bound exists
    note: str = ""


def _fine_weights(weight: Weight, link: TwoMeshLink) -> dict[int, float]:
    vals = weight.as_floats()
    return {sid: vals[link.ancestors[sid]] for sid in link.fine.element_ids}


def measure_weighted_stability(
    ops: Operators,
    weight: Weight,
    p: float = 2.0,
    kind: str = "Lp",
    fine_sweeps: int = 1,
    samples: int = 20,
    seed: int = 0,
) -> WeightedStabilityResult:
    """Measured weighted operator ratio sup ||rho Q u|| / ||rho u||.

    p = 2: the exact supremum over a refinement's FE space via a generalized
    eigenvalue problem (a certified lower bound for the true operator norm,
    compared against the analytic constant 6 gamma^3 / (1 - gamma q) when the
    grading is admissible).  p != 2: maximization over random samples plus
    layer-localized candidates; no hard constant exists, so the result is a
    diagnostic number.
    """
    space = ops.space
    gamma = float(weight.gamma)
    q = ops.q_bound()
    fine_mesh = space.mesh.copy()
    fine_mesh.refine_uniform(fine_sweeps)
    if isinstance(space, CRSpace):
        # gradient ratios compare the broken gradient of the projection
        # against conforming trial functions, so sample from Lagrange P1
        fine_space = LagrangeSpace(fine_mesh, 1) if kind == "W1p" else CRSpace(fine_mesh)
    else:
        fine_space = LagrangeSpace(fine_mesh, space.degree, getattr(space, "zero_trace", False))
    link = TwoMeshLink(space, fine_space)
    wc = weight.as_floats()
    wf = _fine_weights(weight, link)

    if p == 2 and kind == "Lp":
        measured = _exact_weighted_ratio(ops, link, {s: v * v for s, v in wc.items()}, {s: v * v for s, v in wf.items()}, gradient=False)
    elif p == 2 and kind == "W1p":
        measured = _exact_weighted_ratio(ops, link, {s: v * v for s, v in wc.items()}, {s: v * v for s, v in wf.items()}, gradient=True)
    else:
        measured = _sampled_weighted_ratio(ops, link, weight, wc, wf, p, kind, samples, seed)

    bound = None
    applicable = False
    passed = None
    if p == 2 and kind == "Lp":
        if gamma * q < 1.0:
            bound = 6.0 * gamma**3 / (1.0 - gamma * q)
            applicable = True
            passed = measured <= bound + 1e-9
        else:
            passed = None
    return WeightedStabilityResult(
        p=p, kind=kind, gamma_rho=gamma, q=q, measured=measured,
        bound=bound, bound_applicable=applicable, passed=passed,
        note="" if applicable or p != 2 or kind != "Lp" else "bound not applicable: gamma_rho >= 1/q",
    )


def _exact_weighted_ratio(ops, link, wc2, wf2, gradient: bool) -> float:
    coarse, fine = link.coarse, link.fine
    mc = ops.mass.toarray()
    chol = scipy.linalg.cho_factor(mc)
    mcf = link.mixed_mass().toarray()
    x = scipy.linalg.cho_solve(chol, mcf)  # projection matrix fine -> coarse coefficients
    if gradient:
        top = weighted_stiffness(coarse, wc2).toarray()
        bot = weighted_stiffness(fine, wf2).toarray()
    else:
        top = weighted_mass(coarse, wc2).toarray()
        bot = weighted_mass(fine, wf2).toarray()
    a = x.T @ top @ x
    a = 0.5 * (a + a.T)
    bot = 0.5 * (bot + bot.T)
    w, v = np.linalg.eigh(bot)
    keep = w > max(w.max(), 0.0) * 1e-12
    basis = v[:, keep] / np.sqrt(w[keep])
    small = basis.T @ a @ basis
    ev = np.linalg.eigvalsh(0.5 * (small + small.T))
    return math.sqrt(max(float(ev[-1]), 0.0))


def _sampled_weighted_ratio(ops, link, weight, wc, wf, p, kind, samples, seed) -> float:
    rng = np.random.default_rng(seed)
    fine = link.fine
    layers = layer_decomposition(weight)
    candidates = []
    for _ in range(samples):
        candidates.append(rng.standard_normal(fine.n_dofs))
    keys = sorted(layers)
    for key in (keys[0], keys[-1]):
        for sid in layers[key][:2]:
            fine_members = [fs for fs, anc in link.ancestors.items() if anc == sid]
            vec = np.zeros(fine.n_dofs)
            for fs in fine_members:
                for g in fine.cell_dofs(fs):
                    if g >= 0:
                        vec[g] = 1.0
            if vec.any():
                candidates.append(vec)
    best = 0.0
    for vec in candidates:
        u = FeFunction(fine, vec)
        denom = _weighted_p_norm(fine, vec, wf, p, kind)
        if denom <= 0:
            continue
        qc = ops.solve_mass(link.mixed_mass() @ vec)
        numer = _weighted_p_norm(ops.space, qc, wc, p, kind)
        best = max(best, numer / denom)
    return best


def _weighted_p_norm(space, coeffs, wvals, p, kind) -> float:
    """||rho u||_p or ||rho grad u||_p of an FE function via quadrature."""
    d = space.mesh.dim
    deg = 2 * space.degree + 2
    pts, wts = simplex_quadrature(d, deg)
    if isinstance(space, CRSpace):
        basis = _cr_values_at(pts, d)
    else:
        basis = _nodal_values_at_quad(d, space.degree, deg)
    total = 0.0
    sup = 0.0
    from .projection import barycentric_gradients

    for sid in space.element_ids:
        dofs = space.cell_dofs(sid)
        loc = np.array([coeffs[g] if g >= 0 else 0.0 for g in dofs])
        w = wvals[sid]
        vol = float(space.mesh.volume(sid))
        if kind == "W1p":
            grads = barycentric_gradients(space.mesh, sid)
            if isinstance(space, CRSpace):
                gval = np.linalg.norm((-d) * (loc @ grads))
                vals = np.full(len(wts), gval)
            else:
                gv = _gradient_values(space, sid, loc, pts, grads)
                vals = np.linalg.norm(gv, axis=1)
        else:
            vals = np.abs(basis @ loc)
        if p == math.inf:
            sup = max(sup, w * vals.max())
        else:
            total += vol * float(wts @ (w * vals) ** p)
    return sup if p == math.inf else total ** (1.0 / p)


def _gradient_values(space, sid, loc, pts, grads):
    ref = space.ref
    d = space.mesh.dim
    mono_coeffs = float_vandermonde_inv(ref.dim, ref.degree) @ loc  # monomial coefficients of the local function
    out = np.zeros((len(pts), d))
    for col, mono in enumerate(ref.monos):
        c = mono_coeffs[col]
        if c == 0:
            continue
        for j, e in enumerate(mono):
            if e == 0:
                continue
            term = np.full(len(pts), float(c) * e)
            for jj, ee in enumerate(mono):
                pw = ee - 1 if jj == j else ee
                if pw:
                    term = term * pts[:, jj] ** pw
            out += term[:, None] * grads[j][None, :]
    return out


# -- regularized mesh size (empirical evidence, never an assertion) ---------------------------


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


# -- table reproduction --------------------------------------------------------------------


def qnew_table(dims=(1, 2, 3), degrees=tuple(range(1, 15))) -> list[dict]:
    rows = []
    for degree in degrees:
        row = {"K": degree}
        for d in dims:
            row[f"d{d}"] = q_new(d, degree)
        rows.append(row)
    limit_row = {"K": "inf"}
    for d in dims:
        limit_row[f"d{d}"] = q_new(d, math.inf)
    rows.append(limit_row)
    return rows


def stability_table(dim: int, gradings: Sequence[tuple[str, float]], degrees=(1, 2, 3, math.inf)) -> list[dict]:
    rows = []
    for name, gh in gradings:
        for degree in degrees:
            lp = stability_range(dim, degree, gh, 1.0, "Lp")
            w1p = stability_range(dim, degree, gh, 1.0, "W1p")
            rows.append(
                {
                    "gamma_h": name,
                    "K": "inf" if degree == math.inf else degree,
                    "Lp": lp.interval_text(),
                    "W1p": w1p.interval_text(),
                }
            )
    return rows


def w12_admissible_degrees(dim: int, gamma_h: float, k_max: int = 50) -> dict:
    """Degrees K with guaranteed W^{1,2}-stability: gamma_h < 1/q_new(d, K).

    The threshold is monotone (1/q_new increases in K), so the result is a
    half line {k_min, k_min+1, ...} or empty up to the probe limit.
    """
    k_min = None
    for K in range(1, k_max + 1):
        if gamma_h < 1.0 / q_new(dim, K):
            k_min = K
            break
    all_from = k_min is not None and all(
        gamma_h < 1.0 / q_new(dim, K) for K in range(k_min, k_max + 1)
    )
    return {"k_min": k_min, "all_from_k_min": all_from, "k_max_probed": k_max}


def w12_all_degrees_max_dim() -> int:
    """Largest d such that the grading-2 mesh size function gives guaranteed
    W^{1,2}-stability for every degree: 2 < 1/q_new(d, K) for all K, which is
    tightest at K = 1 and reduces to sqrt(d+2) < 3, i.e. d <= 6 (exact)."""
    best = None
    for d in range(2, 50):
        if d + 2 < 9:  # sqrt(d+2) < 3 exactly
            best = d
    return best


def w12_table(dim: int, gradings: Sequence[tuple[str, float]], k_max: int = 50) -> list[dict]:
    """Guaranteed-K-range rows for W^{1,2}-stability (the certified rows of
    the published comparison tables; literature ranges are not recomputed)."""
    rows = []
    for name, gh in gradings:
        info = w12_admissible_degrees(dim, gh, k_max)
        if info["k_min"] is None:
            text = "empty"
        elif info["all_from_k_min"]:
            text = f"{{{info['k_min']},{info['k_min'] + 1},...}}"
        else:
            text = "irregular"
        rows.append({"gamma_h": name, "K_range": text})
    return rows


@dataclass
class StabilityTrend:
    """Measured ratios across a refinement sequence with the no-blow-up rule
    (each ratio after round 3 at most 1.05 times the running maximum)."""

    p: float
    kind: str
    ratios: list[float]
    passed: bool
    first_violation: int | None


def measure_stability_trend(
    make_ops,
    refine_step,
    weight_of,
    p: float,
    kind: str,
    rounds: int,
    fine_sweeps: int = 1,
    samples: int = 10,
    seed: int = 0,
) -> StabilityTrend:
    """Drive `refine_step` repeatedly, measuring the weighted ratio each
    round; this is the pass criterion for exponents without explicit
    constants."""
    ratios: list[float] = []
    first_violation = None
    for r in range(rounds):
        refine_step(r)
        ops = make_ops()
        weight = weight_of(ops)
        res = measure_weighted_stability(
            ops, weight, p=p, kind=kind, fine_sweeps=fine_sweeps, samples=samples, seed=seed + r
        )
        ratios.append(res.measured)
        if r >= 3 and ratios[r] > 1.05 * max(ratios[:r]):
            if first_violation is None:
                first_violation = r
    return StabilityTrend(p, kind, ratios, first_violation is None, first_violation)
