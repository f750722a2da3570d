"""Weights and their grading, layer decompositions, and empirical
weighted-norm measurements.

The analytic stability-range calculus lives in gradedproj.analytic and the
graded maximal operator in gradedproj.mesh; their names stay importable
from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import (  # noqa: F401  (re-exported)
    StabilityError,
    StabilityVerdict,
    cr_dimension_thresholds,
    gamma_max_bound,
    grading_value,
    published_gradings,
    qnew_table,
    stability_range,
    stability_table,
    w12_admissible_degrees,
    w12_all_degrees_max_dim,
    w12_table,
)
from .mesh import (  # noqa: F401  (max_operator and the regularized grading are re-exported)
    ElementDistance,
    GradingError,
    grading_of,
    max_operator,
    regularized_h_grading,
)
from .polyspace import CRSpace, LagrangeSpace, quadrature_basis, simplex_quadrature
from .projection import Operators, TwoMeshLink, weighted_mass, weighted_stiffness


# -- weights ----------------------------------------------------------------------


@dataclass
class Weight:
    """Per-simplex finite positive piecewise-constant weight with its grading."""

    values: dict[int, object]
    dist: ElementDistance
    _gamma: object = field(default=None, repr=False)

    def __post_init__(self):
        for sid, v in self.values.items():
            if not 0 < v < math.inf:  # false for NaN too
                raise GradingError(f"weight {v} on simplex {sid} is not finite and positive")

    @property
    def gamma(self):
        if self._gamma is None:
            self._gamma = grading_of(self.values, self.dist)
        return self._gamma

    def as_floats(self) -> dict[int, float]:
        return {s: float(v) for s, v in self.values.items()}


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
    x = ops.solve_mass_multi(link.mixed_mass().toarray())  # projection matrix fine -> coarse coefficients
    form = weighted_stiffness if gradient else weighted_mass
    top = form(coarse, wc2).toarray()
    bot = form(fine, wf2).toarray()
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
    children: dict[int, list[int]] = {}
    for fs, anc in link.ancestors.items():
        children.setdefault(anc, []).append(fs)
    keys = sorted(layers)
    for key in (keys[0], keys[-1]):
        for sid in layers[key][:2]:
            dofs = fine.dof_rows(children.get(sid, []))
            vec = np.zeros(fine.n_dofs)
            vec[dofs[dofs >= 0]] = 1.0
            if vec.any():
                candidates.append(vec)
    best = 0.0
    for vec in candidates:
        denom = _weighted_p_norm(fine, vec, wf, p, kind)
        if denom <= 0:
            continue
        qc = ops.solve_mass(link.mixed_mass() @ vec)
        numer = _weighted_p_norm(ops.space, qc, wc, p, kind)
        best = max(best, numer / denom)
    return best


def _weighted_p_norm(space, coeffs, wvals, p, kind) -> float:
    """||rho u||_p or ||rho grad u||_p of an FE function via quadrature, all
    elements stacked (one BLAS call per element, as a loop makes), summed in
    element order."""
    d = space.mesh.dim
    deg = 2 * space.degree + 2
    wts = simplex_quadrature(d, deg)[1]
    geo = space.geometry
    loc = np.where(space.dofs >= 0, np.asarray(coeffs)[space.dofs], 0.0)
    w = np.array([wvals[sid] for sid in space.element_ids], dtype=float)
    if kind == "W1p":
        # grad u = sum_j (du / dlambda_j) grad lambda_j at each point
        partials = np.matmul(quadrature_basis(d, space.local_degree, deg, partials=True), loc[:, None, :, None])
        vals = np.linalg.norm(partials[..., 0] @ geo.gradients, axis=-1)
    else:
        vals = np.abs(np.matmul(quadrature_basis(d, space.local_degree, deg), loc[:, :, None])[..., 0])
    if p == math.inf:
        return float((w * vals.max(axis=1)).max())
    # cumsum adds one term after another; np.sum would add pairwise
    total = np.cumsum(geo.volumes * np.matmul(wts, ((w[:, None] * vals) ** p)[:, :, None])[:, 0])[-1]
    return float(total) ** (1.0 / p)
