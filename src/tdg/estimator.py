"""A posteriori error indicators and effectivity indices.

The elementwise indicator combines weighted facet residuals of the discrete
solution: the solution jump and normal-derivative jump across interior
facets, the impedance-condition residual on Robin boundary facets, and the
trace mismatch on Dirichlet facets.  Interior facets contribute to both
adjacent elements, each with its own diameter/degree weight.

With ``h`` the element diameter and ``q`` the element degree, the squared
facet integrals are weighted by ``alpha h/q`` for the solution jump and the
Dirichlet term, ``beta h^3/q^3`` for the normal-derivative jump and
``delta h^3/q^3`` for the Robin term (``alpha``, ``beta``, ``delta`` from
``PenaltyParams``).  For a discrete solution made of waves of number ``k``
the normal-derivative jump is about ``k`` times the solution jump, so the
weighted gradient-to-solution-jump ratio goes like ``kh/q``: the gradient
jump dominates on coarse meshes and the solution jump once ``kh/q`` is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PenaltyParams
from .mesh import DIRICHLET, ROBIN
from .quadrature import skeleton_rules


@dataclass
class IndicatorRecord:
    """Indicator value and its component breakdown for one element."""

    element: int
    eta: float
    jump_u: float
    jump_gradu: float
    robin: float
    dirichlet: float
    eta_pred: float = math.inf

    @property
    def components(self):
        return (self.jump_u, self.jump_gradu, self.robin, self.dirichlet)


def _facet_square_integrals(facet, rule, mesh, solution, problem):
    """Raw squared facet integrals over `rule`, before elementwise weighting.

    Returns ``(targets, jump_u_sq, jump_gradu_sq, robin_sq, dirichlet_sq)``
    where ``targets`` lists the element ids the facet contributes to.
    """
    el_a = mesh.elements[facet.side_a]
    normal = facet.normal
    if facet.is_boundary:
        values, gn = solution.value_and_derivative(el_a, rule.points, normal)
        tag = facet.side_b
        data = problem.boundary_data(tag, rule.points, normal)
        if tag == ROBIN:
            residual = data - (gn + 1j * el_a.k * problem.impedance_sign * values)
            robin_sq = float(rule.weights @ np.abs(residual) ** 2)
            return [facet.side_a], 0.0, 0.0, robin_sq, 0.0
        if tag == DIRICHLET:
            residual = data - values
            diri_sq = float(rule.weights @ np.abs(residual) ** 2)
            return [facet.side_a], 0.0, 0.0, 0.0, diri_sq
        raise ValueError(f"unknown boundary tag {tag!r}")
    el_b = mesh.elements[facet.side_b]
    val_a, gn_a = solution.value_and_derivative(el_a, rule.points, normal)
    val_b, gn_b = solution.value_and_derivative(el_b, rule.points, normal)
    jump_u_sq = float(rule.weights @ np.abs(val_a - val_b) ** 2)
    jump_gn_sq = float(rule.weights @ np.abs(gn_a - gn_b) ** 2)
    return [facet.side_a, facet.side_b], jump_u_sq, jump_gn_sq, 0.0, 0.0


def indicators(mesh, solution, problem, params=PenaltyParams(), predictions=None):
    """Indicator records for every element, ordered by element id."""
    raw_sums = {eid: [0.0, 0.0, 0.0, 0.0] for eid in mesh.elements}
    facets = mesh.facets()
    for facet, rule in zip(facets, skeleton_rules(mesh, facets)):
        targets, ju, jg, ro, di = _facet_square_integrals(facet, rule, mesh, solution, problem)
        for eid in targets:
            sums = raw_sums[eid]
            sums[0] += ju
            sums[1] += jg
            sums[2] += ro
            sums[3] += di
    records = []
    predictions = predictions or {}
    for eid in mesh.element_ids():
        el = mesh.elements[eid]
        ju_sq, jg_sq, ro_sq, di_sq = raw_sums[eid]
        h = el.h
        q = el.degree
        ju2 = params.alpha * (h / q) * ju_sq
        jg2 = params.beta * (h ** 3 / q ** 3) * jg_sq
        ro2 = params.delta * (h ** 3 / q ** 3) * ro_sq
        di2 = params.alpha * (h / q) * di_sq
        eta = math.sqrt(ju2 + jg2 + ro2 + di2)
        records.append(IndicatorRecord(
            element=eid,
            eta=eta,
            jump_u=math.sqrt(ju2),
            jump_gradu=math.sqrt(jg2),
            robin=math.sqrt(ro2),
            dirichlet=math.sqrt(di2),
            eta_pred=predictions.get(eid, math.inf),
        ))
    return records


def global_estimate(records):
    """Euclidean combination ``(sum eta^2)^(1/2)`` of the element indicators."""
    return math.sqrt(sum(r.eta ** 2 for r in records))


def effectivities(records, abs_error):
    """(E_total, E_jump_u, E_jump_gradu, E_robin) against the exact L2 error.

    Each component effectivity is the Euclidean sum of that component over
    all elements divided by the absolute L2 error ``abs_error``; a
    numerically exact solution yields infinite effectivities rather than a
    division error.
    """
    total = global_estimate(records)
    comp_u = math.sqrt(sum(r.jump_u ** 2 for r in records))
    comp_g = math.sqrt(sum(r.jump_gradu ** 2 for r in records))
    comp_r = math.sqrt(sum(r.robin ** 2 for r in records))
    if abs_error == 0.0:
        return math.inf, math.inf, math.inf, math.inf
    return total / abs_error, comp_u / abs_error, comp_g / abs_error, comp_r / abs_error
