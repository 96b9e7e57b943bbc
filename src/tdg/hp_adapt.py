"""Fixed-fraction marking and the h-versus-p refinement decision.

The forecast indicator of each element lives in a dict {id: value} that
`decide_and_refine` returns and the adapt loop passes to the next step's
`plan_refinement` and `decide_and_refine`.  A marked element whose current
indicator still exceeds its forecast failed to converge at the expected
rate and is h-refined; otherwise it is p-enriched.  A missing id counts as
an infinite forecast, so the first refinement of any element is a p-step.
The forecast factors GAMMA_H = 4 (after h-refinement), GAMMA_P = 0.4
(after p-enrichment) and GAMMA_N = 1 (unchanged elements) are those of
Melenk & Wohlmuth (Adv. Comput. Math. 15, 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mesh import refine_elements

MODES = ("hp", "h_only")
GAMMA_H, GAMMA_P, GAMMA_N = 4.0, 0.4, 1.0


@dataclass
class AdaptConfig:
    """Adaptivity controls with the reference parameter values as defaults."""

    mode: str = "hp"
    fraction: float = 0.25
    policy: str = "none"
    max_iters: int = 10

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {self.fraction}")


def mark_elements(records, fraction):
    """Ids of the ceil(fraction * N) elements with the largest indicators.

    Ties are broken by ascending element id so marking is deterministic.
    """
    count = math.ceil(fraction * len(records))
    ranked = sorted(records, key=lambda r: (-r.eta, r.element))
    return {r.element for r in ranked[:count]}


def plan_refinement(marks, records, predictions, config):
    """Split the marked ids into (h_set, p_set) by the prediction test."""
    eta = {r.element: r.eta for r in records}
    h_set = set()
    p_set = set()
    for eid in sorted(marks):
        if eta[eid] > predictions.get(eid, math.inf):
            h_set.add(eid)
        else:
            p_set.add(eid)
    if config.mode == "h_only":
        h_set |= p_set
        p_set = set()
    return h_set, p_set


def decide_and_refine(mesh, plan, records, predictions):
    """Apply the (h_set, p_set) plan of `plan_refinement` and forecast the next indicators.

    `predictions` holds the forecasts for `mesh`.  Returns ``(new_mesh,
    forecasts)``, where ``forecasts`` maps every element id of the new mesh
    to its predicted indicator value.  Degree bumps happen before
    subdivision so elements p-enriched this step but split anyway by mesh
    closure pass the higher degree to their children; closure-split
    elements use the subdivision prediction formula with their own
    indicator.
    """
    eta = {r.element: r.eta for r in records}
    h_set, p_set = plan
    new_mesh = refine_elements(mesh, h_set, raise_degree=p_set)
    n_children = 1 << mesh.dim
    forecasts = {}
    for parent, children in new_mesh.last_refined.items():
        q_parent = mesh.elements[parent].degree + (parent in p_set)
        pred_sq = (1.0 / n_children) * GAMMA_H * 0.5 ** (2 * q_parent) * eta[parent] ** 2
        for cid in children:
            forecasts[cid] = math.sqrt(pred_sq)
    for eid in new_mesh.elements:
        if eid in forecasts:
            continue
        if eid in p_set:
            forecasts[eid] = math.sqrt(GAMMA_P) * eta[eid]
        else:
            forecasts[eid] = math.sqrt(GAMMA_N) * predictions.get(eid, math.inf)
    return new_mesh, forecasts


def enforce_degree_compatibility(mesh):
    """Raise degrees until adjacent elements differ by at most one.

    Sweeps the interior (side_a, side_b) pairs of the skeleton columns in
    skeleton order until a sweep changes nothing.  Only ever raises the
    lower side, so p-refinement decisions are never undone; terminates
    because degrees are bounded by the current maximum.
    """
    skeleton = mesh.facets()
    interior = skeleton.side_b >= 0
    pairs = list(zip(skeleton.side_a[interior].tolist(), skeleton.side_b[interior].tolist()))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            el_a, el_b = mesh.elements[a], mesh.elements[b]
            if el_a.degree - el_b.degree > 1:
                el_b.degree = el_a.degree - 1
                changed = True
            elif el_b.degree - el_a.degree > 1:
                el_a.degree = el_b.degree - 1
                changed = True
    return mesh
