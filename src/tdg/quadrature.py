"""Gauss-Legendre quadrature on reference intervals, facets and cells.

Nodes are computed by Newton iteration on the Legendre polynomials from
Chebyshev initial guesses and cached per point count.  Facet and volume
rules are tensor products mapped onto axis-aligned geometry, all facets of
a skeleton pass at once (facet_rules) with one facet's arithmetic.  The count
per direction is n = q + ceil(0.7*k*h) + 12: products of two plane
waves oscillate with phase up to c = k*h across the region, and n-point
Gauss-Legendre resolves e^{ict} to 1e-12 only once n exceeds roughly
0.68*c + 10 (measured), after which the error drops superexponentially.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points (m, dim) and weights (m,) on a physical region.

    A volume rule also keeps its per-axis nodes (dim, n) in `axis_points`;
    `points` is their tensor grid in "ij" order (first axis slowest).
    """

    points: np.ndarray
    weights: np.ndarray
    axis_points: np.ndarray | None = None


@lru_cache(maxsize=None)
def _gauss_nodes(n):
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got {n}")
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        # Legendre recurrence for P_n and P_{n-1} at the current iterate
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def points_per_direction(degree, wavenumber, diameter):
    """Gauss points per axis; elementwise over arrays of facets."""
    n = np.asarray(degree) + np.ceil(0.7 * np.asarray(wavenumber) * diameter).astype(int) + 12
    return n if n.ndim else int(n)


def _tensor_points(nodes, weights):
    """Tensor grids of B sets of d 1D rules, nodes and weights (B, d, n).

    Points come out (B, n**d, d) in meshgrid "ij" order (first axis
    slowest); weights (B, n**d) are 1 * w_0 * w_1 * ... in axis order.
    """
    batch, d, n = nodes.shape
    grid = (batch,) + (n,) * d
    pts = np.empty(grid + (d,))
    w = np.ones(grid)
    for ax in range(d):
        spread = (slice(None),) + tuple(slice(None) if a == ax else None for a in range(d))
        pts[..., ax] = nodes[:, ax][spread]
        w = w * weights[:, ax][spread]
    return pts.reshape(batch, -1, d), w.reshape(batch, -1)


def facet_rules(facets, k_max, q_max):
    """Tensor Gauss rules on axis-aligned facets, built in one pass.

    Facet i gets points_per_direction(q_max[i], k_max[i], diameter) points
    per tangential axis.  Facets sharing a point count and normal axis are
    mapped together, each tangential axis as mid + half * x with weights
    half * w, the normal coordinate set to lo[axis].  Yields one rule per
    facet, in order, as views into the group arrays, so a pass never holds
    all per-facet rule objects at once; each facet needs lo/hi corners and
    the normal axis.
    """
    lo = np.array([facet.lo for facet in facets])
    hi = np.array([facet.hi for facet in facets])
    axes = np.array([facet.axis for facet in facets])
    # Facet.diameter, evaluated once per distinct extent hi - lo.
    extents, which = np.unique(hi - lo, axis=0, return_inverse=True)
    diameter = np.array([float(np.linalg.norm(e)) for e in extents])[which.reshape(-1)]
    n_pts = points_per_direction(np.asarray(q_max), np.asarray(k_max), diameter)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    where = np.empty((len(facets), 2), dtype=int)  # (group, slot) of each facet
    grids = []
    for n, axis in sorted(set(zip(n_pts.tolist(), axes.tolist()))):
        members = np.flatnonzero((n_pts == n) & (axes == axis))
        x, w = _gauss_nodes(n)
        tangential = [ax for ax in range(lo.shape[1]) if ax != axis]
        sub = np.ix_(members, tangential)
        pts_t, wts = _tensor_points(
            mid[sub][..., None] + half[sub][..., None] * x, half[sub][..., None] * w
        )
        pts = np.empty(pts_t.shape[:2] + lo.shape[1:])
        pts[:, :, tangential] = pts_t
        pts[:, :, axis] = lo[members, axis, None]
        where[members, 0] = len(grids)
        where[members, 1] = np.arange(len(members))
        grids.append((pts, wts))
    for g, j in where.tolist():
        pts, wts = grids[g]
        yield QuadratureRule(points=pts[j], weights=wts[j])


def facet_rule(facet, k_max, q_max):
    """Tensor Gauss rule on one axis-aligned facet (see facet_rules)."""
    return next(facet_rules([facet], [k_max], [q_max]))


def skeleton_rules(mesh, facets):
    """facet_rules for mesh facets, at the larger k and degree of their sides."""
    els = mesh.elements
    sides = [(els[f.side_a], els[f.side_a if f.is_boundary else f.side_b]) for f in facets]
    k_max = [max(a.k, b.k) for a, b in sides]
    return facet_rules(facets, k_max, [max(a.degree, b.degree) for a, b in sides])


def volume_rule(element):
    """Tensor Gauss rule on an axis-aligned element box.

    Its axis_points, mid + half * x per axis, are the very arrays that
    points expands, so a separable integrand evaluated on them and ravelled
    in "ij" order lines up with points and weights.
    """
    n = points_per_direction(element.degree, element.k, element.h)
    x, w = _gauss_nodes(n)
    mid = 0.5 * (element.lo + element.hi)
    half = 0.5 * (element.hi - element.lo)
    nodes = mid[:, None] + half[:, None] * x
    pts, wts = _tensor_points(nodes[None], (half[:, None] * w)[None])
    return QuadratureRule(points=pts[0], weights=wts[0], axis_points=nodes)
