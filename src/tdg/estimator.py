"""A posteriori error indicators and effectivity indices.

The elementwise indicator combines weighted facet residuals of the discrete
solution: the solution jump and normal-derivative jump across interior
facets, the impedance-condition residual on Robin boundary facets, and the
trace mismatch on Dirichlet facets.  Interior facets contribute to both
adjacent elements, each with its own diameter/degree weight.

With ``h`` the element diameter and ``q`` the element degree, the squared
facet integrals are weighted by ``alpha h/q`` for the solution jump and the
Dirichlet term, ``beta h^3/q^3`` for the normal-derivative jump and
``delta h^3/q^3`` for the Robin term, where ``alpha``, ``beta`` and
``delta`` are the flux weights ``ALPHA``, ``BETA`` and ``DELTA`` of
`tdg.assembly`.  For a discrete solution made of waves of number ``k`` the
normal-derivative jump is about ``k`` times the solution jump, so the
weighted gradient-to-solution-jump ratio goes like ``kh/q``: the gradient
jump dominates on coarse meshes and the solution jump once ``kh/q`` is small.

The facet integrals are taken pointwise on Gauss rules, one batch of
`quadrature.skeleton_batches` at a time: traces from the per-axis factors
of `basis.grid_waves` contracted with the coefficients by `basis.grid_sum`,
never as a (facets, points, waves) array, then weighted sums of
``|u_a - u_b|^2``.
The assembly's closed-form Gram blocks would give the jumps as ``c^H G c``,
but that form subtracts large, nearly equal terms.  On the 8782 interior
facets of the final ``ex2_lshape_h_k20`` mesh (condition estimate 1.2e14)
its solution-jump integrals differ from quadrature by a median of 2.3e-8
relative, 8.2e-7 at the 90th percentile and 6.3e-2 at worst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ALPHA, BETA, DELTA
from .basis import WaveTable, grid_sum, grid_waves
from .mesh import ROBIN
from .quadrature import skeleton_batches


@dataclass
class IndicatorRecord:
    """Indicator value and its component breakdown for one element."""

    element: int
    eta: float
    jump_u: float
    jump_gradu: float
    robin: float
    dirichlet: float


def _weighted_squares(weights, values):
    """Per-facet quadrature sums of |values|^2, (F,) from (F, m) arrays."""
    return np.einsum("fm,fm->f", weights, np.abs(values) ** 2)


def _traces(waves, ids, p, batch):
    """u_h, its derivative along the normals (each (F, m)) and k (F,) on elements ids."""
    kd, centroids, k, coeffs = waves.take(ids, p)
    factors, dn = grid_waves(kd, centroids, batch.grid_axes(), batch.normal)
    return grid_sum(factors, coeffs), grid_sum(factors, dn * coeffs), k


def indicators(mesh, coefficients, problem):
    """Indicator records for every element, ordered by element id."""
    ids = np.array(mesh.element_ids())
    waves = WaveTable(mesh.elements, coefficients)
    # Raw squared facet integrals per element: jump_u, jump_gradu, robin, dirichlet.
    raw = np.zeros((len(ids), 4))
    for batch in skeleton_batches(mesh):
        w = batch.weights()
        rows_a = np.searchsorted(ids, batch.side_a)
        if not batch.is_boundary:
            u_a, gn_a, _ = _traces(waves, batch.side_a, batch.p_a, batch)
            u_b, gn_b, _ = _traces(waves, batch.side_b, batch.p_b, batch)
            jumps = np.stack([_weighted_squares(w, u_a - u_b),
                              _weighted_squares(w, gn_a - gn_b)], axis=1)
            np.add.at(raw[:, :2], rows_a, jumps)
            np.add.at(raw[:, :2], np.searchsorted(ids, batch.side_b), jumps)
            continue
        # Data first: hankel1 and jv slow down right after a zgemm (tdg.basis).
        data = problem.boundary_on_grid(batch.tag, batch.grid_axes(), batch.normal[0])
        u, gn, k = _traces(waves, batch.side_a, batch.p_a, batch)
        if batch.tag == ROBIN:
            residual = data - (gn + 1j * k[:, None] * u)
            np.add.at(raw[:, 2], rows_a, _weighted_squares(w, residual))
        else:
            np.add.at(raw[:, 3], rows_a, _weighted_squares(w, data - u))
    records = []
    for eid, (ju_sq, jg_sq, ro_sq, di_sq) in zip(ids.tolist(), raw.tolist()):
        el = mesh.elements[eid]
        h = el.h
        q = el.degree
        ju2 = ALPHA * (h / q) * ju_sq
        jg2 = BETA * (h ** 3 / q ** 3) * jg_sq
        ro2 = DELTA * (h ** 3 / q ** 3) * ro_sq
        di2 = ALPHA * (h / q) * di_sq
        eta = math.sqrt(ju2 + jg2 + ro2 + di2)
        records.append(IndicatorRecord(
            element=eid,
            eta=eta,
            jump_u=math.sqrt(ju2),
            jump_gradu=math.sqrt(jg2),
            robin=math.sqrt(ro2),
            dirichlet=math.sqrt(di2),
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
