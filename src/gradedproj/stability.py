"""Weights and their grading, layer decompositions, and empirical
weighted-norm measurements.

The analytic stability-range calculus lives in gradedproj.analytic and the
graded maximal operator in gradedproj.mesh; their names stay importable
from here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .analytic import (  # noqa: F401  (re-exported)
    ProjectionError,
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
from .projection import Operators, TwoMeshLink, one_blas_thread, weighted_mass, weighted_stiffness


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


def _unit_scaled(weight: Weight) -> Weight:
    """The weight times the power of two that puts its maximum in [0.5, 1).

    The ratio sup ||rho Q u|| / ||rho u|| does not change under rho -> c rho;
    the scaled weight keeps the squares the exact path forms in float range,
    and a weight already in range is returned as it is.  Raises
    StabilityError when the smallest scaled square is subnormal (or zero).
    """
    vals = weight.as_floats()
    shift = -math.frexp(max(vals.values()))[1]
    if math.ldexp(min(vals.values()), shift) ** 2 < sys.float_info.min:
        raise StabilityError(f"weight range {max(vals.values()) / min(vals.values()):.3e} too wide: its squares leave the normal float range")
    if shift == 0:
        return weight
    return Weight({sid: math.ldexp(v, shift) for sid, v in vals.items()}, weight.dist, _gamma=weight.gamma)


def fine_link(space, kind: str) -> TwoMeshLink:
    """The coupling of the space with the one the weighted ratio sups over:
    the same kind of space on one uniform refinement of its mesh,
    Lagrange P1 for a Crouzeix-Raviart gradient ratio (the broken gradient of
    the projection against conforming trial functions)."""
    fine_mesh = space.mesh.copy().refine_uniform()
    if isinstance(space, CRSpace):
        fine_space = LagrangeSpace(fine_mesh, 1) if kind == "W1p" else CRSpace(fine_mesh)
    else:
        fine_space = LagrangeSpace(fine_mesh, space.degree, getattr(space, "zero_trace", False))
    return TwoMeshLink(space, fine_space)


def measure_weighted_stability(
    ops: Operators,
    weight: Weight,
    p: float = 2.0,
    kind: str = "Lp",
    samples: int = 20,
    seed: int = 0,
) -> WeightedStabilityResult:
    """Measured weighted operator ratio sup ||rho Q u|| / ||rho u||.

    p = 2: the exact supremum over a refinement's FE space via a generalized
    eigenvalue problem (a certified lower bound for the true operator norm,
    compared against the analytic constant 6 gamma^3 / (1 - gamma q) when the
    grading is admissible).  p != 2: maximization over random samples plus
    layer-localized candidates; no hard constant exists, so the result is a
    diagnostic number.  Both run on the weight scaled by a power of two into
    [0.5, 1) (_unit_scaled), so c rho with c a power of two gives the bits of
    rho.
    """
    gamma = float(weight.gamma)
    q = ops.q_bound()
    weight = _unit_scaled(weight)
    link = fine_link(ops.space, kind)
    wc = weight.as_floats()
    wf = _fine_weights(weight, link)

    with one_blas_thread():
        if p == 2 and kind in ("Lp", "W1p"):
            wc2, wf2 = ({s: v * v for s, v in w.items()} for w in (wc, wf))
            measured = _exact_weighted_ratio(ops, link, wc2, wf2, gradient=kind == "W1p")
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
    """sup ||rho Q u|| / ||rho u|| over the fine space (u and Q u weighted by
    rho^2 = wf2 and wc2): the square root of lambda_max of X^T T X against B,
    with X = M_c^-1 M_cf the projection in coefficients and T, B the coarse
    and fine weighted mass (or, for gradients, stiffness) forms.

    Each form is factored as D^1/2 C C^T D^1/2, D its diagonal and C the
    Cholesky factor of the Jacobi-scaled D^-1/2 (.) D^-1/2.  Then lambda_max
    is the largest squared singular value of Z = C_B^-1 D_B^-1/2 X^T D_T^1/2
    C_T, taken from the Gram matrix of Z in its smaller dimension: no
    eigenvectors, no eigenproblem larger than min(n_c, n_f).  The scaled
    factors are well conditioned on graded weights, and a power-of-two
    scaling of the weight leaves every bit of the ratio unchanged.

    The stiffness forms vanish on constants.  When both spaces contain them
    (no trace dof removed), Q maps constants to constants, so the ratio is
    the same on the quotient spaces modulo constants, and grounding one dof
    on each side represents those quotients exactly: a fine u stands for the
    u with u_j = 0, j the dof of the largest diagonal of B (row and column j
    of B and column j of X dropped); a coarse v stands for v - v_k 1, k the
    dof of the largest diagonal of T (row k of X subtracted from the others,
    then row and column k of T and row k of X dropped).  The grounded forms
    are positive definite; a factorization that fails anyway raises
    ProjectionError.
    """
    coarse, fine = link.coarse, link.fine
    x = ops.solve_mass(link.mixed_mass.toarray())  # projection matrix fine -> coarse coefficients
    form = weighted_stiffness if gradient else weighted_mass
    top = form(coarse, wc2).toarray()
    bot = form(fine, wf2).toarray()
    if gradient and _has_constants(coarse) and _has_constants(fine):
        k = int(np.argmax(np.diag(top)))
        j = int(np.argmax(np.diag(bot)))
        x = np.delete(np.delete(x - x[k], k, axis=0), j, axis=1)
        top = _ground(top, k)
        bot = _ground(bot, j)
    root_t, chol_t = _scaled_cholesky(top)
    root_b, chol_b = _scaled_cholesky(bot)
    z = scipy.linalg.solve_triangular(chol_b, (x.T / root_b[:, None] * root_t) @ chol_t, lower=True)
    if not z.size:
        return 0.0
    gram = z.T @ z if z.shape[1] <= z.shape[0] else z @ z.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _has_constants(space) -> bool:
    """Whether the space holds the constants: no trace dof removed."""
    return bool(np.all(space.dofs >= 0))


def _ground(form: np.ndarray, k: int) -> np.ndarray:
    return np.delete(np.delete(form, k, axis=0), k, axis=1)


def _scaled_cholesky(form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^1/2 (the root of the diagonal) and the lower Cholesky factor of
    D^-1/2 form D^-1/2."""
    diag = np.diag(form)
    if not np.all(diag > 0):
        raise ProjectionError("weighted form has a nonpositive diagonal")
    root = np.sqrt(diag)
    try:
        return root, scipy.linalg.cholesky(form / root[:, None] / root, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ProjectionError(f"weighted form not positive definite: {exc}") from exc


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
    live = [(vec, denom) for vec in candidates if not (denom := _weighted_p_norm(fine, vec, wf, p, kind)) <= 0]
    best = 0.0
    if live:
        # one block solve; a column of it has the bits of its one-column solve
        qcs = ops.solve_mass(link.mixed_mass @ np.column_stack([vec for vec, _ in live]))
        for qc, (_, denom) in zip(np.ascontiguousarray(qcs.T), live):
            best = max(best, _weighted_p_norm(ops.space, qc, wc, p, kind) / denom)
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
