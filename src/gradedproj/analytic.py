"""The analytic results of the stability theory: the decay parameter q_new,
the published mesh-size gradings, the stability-range calculus, the
guaranteed degree ranges for W^{1,2}-stability and the Crouzeix-Raviart
dimension thresholds.

The guaranteed stability window for exponent p is the strict inequality

    gamma_rho * gamma_h^(s + d |1/2 - 1/p|) < gamma_max,   s = 0 (Lp), 1 (W1p)

with gamma_max instantiated by its certified lower bound 1/q_new (Lagrange)
or (d + sqrt(d+2)) / (d - sqrt(d+2)) (Crouzeix-Raviart, where the mesh size
grading is 2^(1/d)).  Interval endpoints are printed conservatively: the lower
endpoint is rounded up and the upper endpoint rounded down at four decimals,
so every printed p is admissible.

This module imports only the standard library, so the commands that print
these results start without numpy or scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import GradedProjError


class ProjectionError(GradedProjError):
    """Operator assembly or solve failure (raised here by q_new;
    gradedproj.projection re-exports it)."""


class StabilityError(GradedProjError):
    """Invalid stability-analysis input."""


# -- the decay parameter ------------------------------------------------------------


def q_new(dim: int, degree) -> float:
    """Decay parameter (sqrt(2K+d) - sqrt(K)) / (sqrt(2K+d) + sqrt(K));
    degree may be math.inf for the limit (sqrt(2)-1)/(sqrt(2)+1)."""
    if degree == math.inf or degree is None:
        return (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)
    if dim < 1 or degree < 1:
        raise ProjectionError("q_new requires d, K >= 1")
    a = math.sqrt(2.0 * degree + dim)
    b = math.sqrt(float(degree))
    return (a - b) / (a + b)


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


# -- the analytic stability range ----------------------------------------------------


@dataclass
class StabilityVerdict:
    dim: int
    degree: object  # K, math.inf or "CR"
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
            "degree": "inf" if self.degree == math.inf else self.degree if isinstance(self.degree, str) else int(self.degree),
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
    if dim < 1:
        raise StabilityError("dim must be >= 1")
    if kind not in ("Lp", "W1p"):
        raise StabilityError(f"unknown stability kind {kind!r}")
    if not 1 <= gamma_rho < math.inf:
        raise StabilityError("gamma_rho must be finite and >= 1")
    is_cr = degree == "CR"
    if gamma_h is None:
        if not is_cr:
            raise StabilityError("gamma_h required for Lagrange verdicts")
        gamma_h = 2.0 ** (1.0 / dim)
    if not 1 <= gamma_h < math.inf:
        raise StabilityError("gamma_h must be finite and >= 1")
    gmax = gamma_max_bound(dim, degree)
    s = 1 if kind == "W1p" else 0

    def admissible_at(t: float) -> bool:
        return gamma_rho * gamma_h ** (s + dim * t) < gmax

    p_val = math.inf if p in (None, math.inf) else float(p)
    if not p_val >= 1:
        raise StabilityError("p must be in [1, inf]")
    t_of_p = 0.5 if p_val == math.inf else abs(0.5 - 1.0 / p_val)
    admissible = admissible_at(t_of_p)

    p_lower = p_upper = None
    if gamma_h == 1.0 or gmax == math.inf:
        all_p = admissible_at(0.5)
        empty = not all_p and not admissible_at(0.0)
    else:
        t_star = (math.log(gmax) - math.log(gamma_rho) - s * math.log(gamma_h)) / (dim * math.log(gamma_h))
        all_p, empty = t_star > 0.5, t_star <= 0
        if empty:
            admissible = False  # the float admissible_at can disagree with t_star at the boundary
        elif not all_p:
            p_lower = 2.0 / (1.0 + 2.0 * t_star)
            p_upper = math.inf if t_star >= 0.5 else 2.0 / (1.0 - 2.0 * t_star)
    return StabilityVerdict(
        dim, degree, gamma_h, gamma_rho, kind, p_val, admissible,
        all_p=all_p, empty=empty, p_lower=p_lower, p_upper=p_upper,
        p_lower_display=None if p_lower is None else _round_up4(p_lower),
        p_upper_display=None if p_upper in (None, math.inf) else _round_down4(p_upper),
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
