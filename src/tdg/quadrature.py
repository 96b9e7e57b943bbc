"""Gauss-Legendre quadrature, the skeleton grouping, and closed-form plane-wave Grams.

Nodes and weights come from numpy.polynomial.legendre.leggauss (eigenvalues
of the Jacobi matrix, Golub & Welsch, Math. Comp. 23, 1969), exactly
symmetric about 0, and are cached per point count.  Facet and volume
rules are tensor products mapped onto axis-aligned geometry.  The count
per direction is n = q + ceil(0.7*k*h) + 12: products of two plane
waves oscillate with phase up to c = k*h across the region, and n-point
Gauss-Legendre resolves e^{ict} to 1e-12 only once n exceeds roughly
0.68*c + 10 (measured), after which the error drops superexponentially.

mesh.facets() is the skeleton as columns, one row per facet (axis, side
ids, tag, normal, lo, hi).  Every skeleton pass (assembly and estimator)
walks one grouping of those columns, skeleton_batches: facets sharing a
point count, normal axis and side wave counts, and on the boundary a tag
and a normal, form one FacetBatch, cut to at most BATCH_VALUES complex
values wide.  A batch builds its grid once, in the one grid layout of
tdg.basis: per-axis nodes (F, n_a), the normal axis with its one node
(FacetBatch.grid_axes), and the tangential axes' weights (F, n) each
(FacetBatch.tangential_weights).  Plane-wave traces and plane-wave problem
data factor over those axes (basis.grid_waves,
ProblemSpec.boundary_on_grid); the tensor weights (FacetBatch.weights) use
each facet's own arithmetic, so they equal facet_rule's weight for
weight.  Tensor points (grid_points) are built only where something reads
them: a rule builds its points on first access.

A product of two plane waves integrates in closed form over an
axis-aligned box: box_gram, a phase times one L sinc(a L / 2) factor per
axis of nonzero extent (Huttunen, Monk & Kaipio, J. Comput. Phys. 182,
2002; Gittelson, Hiptmair & Perugia, M2AN 43, 2009).  Interior facets
need no points at all.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Weights (m,) of a tensor Gauss rule on a physical region, and its grid.

    `axes` is the grid of one region in the layout of tdg.basis: one (1, n_a)
    node array per axis, a facet's normal axis with its one node.  `points`
    (m, dim), their tensor grid in "ij" order (first axis slowest), is built
    on first access only: a pass that reads values on the grid from
    per-axis factors never needs it.
    """

    weights: np.ndarray
    axes: list

    @cached_property
    def points(self):
        return grid_points(self.axes)[0]


@lru_cache(maxsize=None)
def _gauss_nodes(n):
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got {n}")
    return np.polynomial.legendre.leggauss(n)


def points_per_direction(degree, wavenumber, diameter):
    """Gauss points per axis; elementwise over arrays of facets."""
    n = np.asarray(degree) + np.ceil(0.7 * np.asarray(wavenumber) * diameter).astype(int) + 12
    return n if n.ndim else int(n)


def grid_points(axes):
    """Points (F, prod n_a, d) of F tensor grids; axes[a] (F, n_a) holds their nodes on axis a.

    "ij" order (first axis slowest), as np.meshgrid(..., indexing="ij")
    ravelled; every coordinate is a copy of a node.
    """
    d = len(axes)
    shape = (len(axes[0]),) + tuple(nodes.shape[1] for nodes in axes)
    pts = np.empty(shape + (d,))
    for ax, nodes in enumerate(axes):
        pts[..., ax] = nodes.reshape(shape[:1] + tuple(-1 if a == ax else 1 for a in range(d)))
    return pts.reshape(shape[0], -1, d)


def outer_rows(factors):
    """Row-wise outer products (F, prod n_a) of per-axis factors (F, n_a), "ij" order.

    Entry (i_0, i_1, ...) of row f is ((factors[0][f, i_0] * factors[1][f, i_1]) * ...).
    """
    values = factors[0]
    for factor in factors[1:]:
        values = (values[:, :, None] * factor[:, None, :]).reshape(len(values), -1)
    return values


def cis(phase):
    """exp(i phase) of a real array, cos and sin written in place."""
    values = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=values.real)
    np.sin(phase, out=values.imag)
    return values


# Complex values one batch of a skeleton pass may hold in one array, about
# facets x points x waves of both sides (1 MB): caps a pass's working set
# beyond the blocks or sums it returns.
BATCH_VALUES = 1 << 16


def _box_nodes(lo, hi, n, axis=None):
    """Grid axes (F, n_a) and weights of F boxes [lo, hi] (F, d), n Gauss nodes per axis.

    A facet's normal `axis` gets its one node lo[axis] and no weights; the
    weights, (F, n) per other axis, come in axis order.
    """
    x, w = _gauss_nodes(n)
    half = 0.5 * (hi - lo)
    nodes, weights = (0.5 * (lo + hi))[..., None] + half[..., None] * x, half[..., None] * w
    axes = [lo[:, ax, None] if ax == axis else nodes[:, ax] for ax in range(lo.shape[1])]
    return axes, [weights[:, ax] for ax in range(lo.shape[1]) if ax != axis]


def _rule(lo, hi, n, axis=None):
    """QuadratureRule of the one box [lo, hi] (d,), as _box_nodes."""
    axes, weights = _box_nodes(lo[None], hi[None], n, axis)
    return QuadratureRule(weights=outer_rows(weights)[0], axes=axes)


def facet_rule(lo, hi, axis, k_max, q_max):
    """Tensor Gauss rule on one axis-aligned facet with corners lo, hi (d,) and normal axis.

    points_per_direction(q_max, k_max, facet diameter) points per tangential
    axis; point for point the rule FacetBatch builds for the facet.
    """
    return _rule(lo, hi, points_per_direction(q_max, k_max, float(np.linalg.norm(hi - lo))), axis)


@dataclass(frozen=True)
class FacetBatch:
    """Facets of one skeleton pass that are evaluated together.

    They share the normal axis, the Gauss point count n per tangential axis,
    the wave counts p_a, p_b of their sides (p_b = 0 on the boundary), the
    tag ("" inside) and, on the boundary, the normal.  Arrays run over the
    batch's facets in skeleton order, as in mesh.Skeleton: side ids (F,),
    side_b -1 on the boundary, normals, lo and hi corners (F, d).
    """

    side_a: np.ndarray
    side_b: np.ndarray
    tag: str
    normal: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    axis: int
    n: int
    p_a: int
    p_b: int

    @property
    def is_boundary(self):
        return bool(self.tag)

    @cached_property
    def _nodes(self):
        return _box_nodes(self.lo, self.hi, self.n, self.axis)

    def weights(self):
        """Tensor weights (F, m), facet by facet as facet_rule."""
        return outer_rows(self.tangential_weights())

    def grid_axes(self):
        """Per-axis nodes (F, n_a) of the facets' grids: n on each tangential axis, 1 on the normal.

        grid_points(grid_axes()) are the Gauss points (F, m, d) that go with
        weights(), facet by facet as facet_rule.
        """
        return self._nodes[0]

    def tangential_weights(self):
        """Gauss weights (F, n) per tangential axis, in axis order."""
        return self._nodes[1]


def skeleton_batches(mesh):
    """The columns of mesh.facets() grouped into FacetBatches, for every skeleton pass.

    A facet gets points_per_direction(q_max, k_max, diameter) points per
    tangential axis at the larger degree and wavenumber of its sides.
    Groups are keyed by boundary tag (interior first), point count, normal
    axis, normal sign (boundary only) and the sides' wave counts; one stable
    np.lexsort over the key columns puts them in sorted key order with each
    group's facets in skeleton order.  A group is cut into batches of at
    most BATCH_VALUES // (m * (p_a + p_b)) facets, at least one, with m
    points per facet; the batches are yielded one at a time, so a pass never
    holds more than one batch's rules and traces.
    """
    skeleton = mesh.facets()
    ids = np.array(mesh.element_ids())
    elements = [mesh.elements[eid] for eid in ids.tolist()]
    k = np.array([el.k for el in elements])
    q = np.array([el.degree for el in elements])
    p = np.array([el.n_waves for el in elements])
    boundary = skeleton.side_b < 0
    a = np.searchsorted(ids, skeleton.side_a)
    b = np.where(boundary, a, np.searchsorted(ids, skeleton.side_b))
    # The facet diameter, evaluated once per distinct extent hi - lo.
    extents, which = np.unique(skeleton.hi - skeleton.lo, axis=0, return_inverse=True)
    diameter = np.array([float(np.linalg.norm(e)) for e in extents])[which.reshape(-1)]
    n_pts = points_per_direction(np.maximum(q[a], q[b]), np.maximum(k[a], k[b]), diameter)
    sign = np.where(boundary, skeleton.normal.sum(axis=1), 0.0).astype(int)
    tags, tag_code = np.unique(skeleton.tag, return_inverse=True)
    keys = np.stack([tag_code, n_pts, skeleton.axis, sign, p[a], np.where(boundary, 0, p[b])])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    cuts = np.flatnonzero(np.any(keys[:, 1:] != keys[:, :-1], axis=0)) + 1
    firsts = keys[:, np.concatenate([[0], cuts])].T.tolist()
    for members, (code, n, axis, _, p_a, p_b) in zip(np.split(order, cuts), firsts):
        width = n ** (mesh.dim - 1) * (p_a + p_b)
        size = max(1, BATCH_VALUES // width)
        for start in range(0, len(members), size):
            sl = members[start:start + size]
            yield FacetBatch(side_a=skeleton.side_a[sl], side_b=skeleton.side_b[sl],
                             tag=str(tags[code]), normal=skeleton.normal[sl], lo=skeleton.lo[sl],
                             hi=skeleton.hi[sl], axis=axis, n=n, p_a=p_a, p_b=p_b)


def box_gram(lo, hi, kd_t, centre_t, kd_r, centre_r):
    """Closed-form Gram blocks of plane waves over F axis-aligned boxes.

    Box f spans [lo[f], hi[f]] (F, d).  Test wave i of box f is
    exp(i kd_t[f, i] . (x - centre_t[f])), trial wave j likewise with
    kd_r (F, p_r, d) and centre_r (F, d).  Returns the (F, p_t, p_r) blocks
    of int conj(test_i) trial_j.  With a = kd_r[j] - kd_t[i] and x_m the
    box midpoint the integrand is a phase exp(i (kd_r[j] . (x_m - centre_r)
    - kd_t[i] . (x_m - centre_t))) times exp(i a . (x - x_m)), which
    integrates to e sinc(a e / 2) over an axis of extent e, written
    e * np.sinc(a e / 2 pi).  An axis of zero extent contributes 1, so a
    facet, a box of zero width along its normal, gets its surface integral.
    """
    mid = 0.5 * (lo + hi)
    phase = (np.einsum("fjd,fd->fj", kd_r, mid - centre_r)[:, None, :]
             - np.einsum("fid,fd->fi", kd_t, mid - centre_t)[:, :, None])
    gram = cis(phase)
    for ax, ext in enumerate((hi - lo).T):
        a = kd_r[:, None, :, ax] - kd_t[:, :, None, ax]
        scale = np.where(ext > 0.0, ext, 1.0)[:, None, None]
        gram *= scale * np.sinc(a * (ext / (2.0 * np.pi))[:, None, None])
    return gram


def volume_rule(element):
    """Tensor Gauss rule on an axis-aligned element box.

    Its axes, mid + half * x per axis, are the very arrays that points
    expands, so a separable integrand evaluated on them and ravelled in
    "ij" order lines up with points and weights.
    """
    return _rule(element.lo, element.hi, points_per_direction(element.degree, element.k, element.h))
