"""Plane-wave bases: direction sets, per-element frames, evaluation.

Each element carries p plane waves exp(i k d_l . (x - x_K)) centered at
its centroid.  In 2D the p = 2q+1 canonical directions are evenly spaced
angles; in 3D the p = (q+1)^2 come from bundled near-maximum-determinant
sphere point sets (first point at the north pole) and cover q = 1..8.
In both, the element frame is a rotation matrix (None for the identity)
that maps the canonical set rigidly.

Values are built from the complex product (x - x_K) @ (i k d)^T, whose
real parts are +-0 and whose imaginary parts are the phases, by writing
cos and sin of the phases into its real and imaginary parts in place.
That equals np.exp of the product bit for bit, for two measured reasons
(numpy 2.4.6, OpenBLAS 0.3.31, AVX-512 CPU):
- complex np.exp runs 9-12x slower right after an OpenBLAS complex
  matrix-matrix product (zgemm), which is how this product is formed;
  np.cos and np.sin do not slow down.  scipy's hankel1 and jv slow down
  3-4x in the same way, so none of the three is called directly after a
  zgemm; a matrix-vector product (zgemv) in between restores the speed.
- a real phase product (x - x_K) @ (k d)^T rounds differently for one-
  and two-wave sets and moves acceptance criterion 3's refraction error
  from 8.9e-16 to 9.7e-16.
An element's directions_override bypasses the frame.

On a tensor grid a wave factors over the axes (sum factorisation;
Orszag, J. Comput. Phys. 37, 1980).  Every pass gives its F grids one way,
`axes`: one (F, n_a) node array per axis, "ij" order (first axis
slowest), a facet's normal axis with its one node.  grid_waves writes one
factor (F, n_a, p) per axis with n_a > 1 as cos/sin of the broadcast
phases (x_a - x_K,a) k d_a: sum_a n_a p cos/sin pairs per grid, not
prod_a n_a p.  One-node axes join the first factor through the pointwise
product, so a 2D facet's one factor is its pointwise trace bit for bit.
grid_sum contracts the factors as ((c * F_0) * F_1 ...) @ F_last^T, the
same bits for a grid alone or stacked with others; F_0 @ (c * F_1^T)
would round differently.  Values from two or more factors differ from
eval_basis(...) @ c in the last bits.  Both skeleton passes and
problems.l2_errors evaluate grids with these two functions only.
"""

from functools import lru_cache
from importlib import resources
from math import atan2, pi

import numpy as np


class UnsupportedDegreeError(Exception):
    """No direction set available for the requested basis size."""


@lru_cache(maxsize=None)
def _load_sphere_points(p):
    name = f"sphere_points_p{p}.txt"
    try:
        text = resources.files("tdg.data").joinpath(name).read_text()
    except FileNotFoundError:
        return None
    rows = [
        [float(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    pts = np.array(rows)
    if pts.shape != (p, 3):
        raise UnsupportedDegreeError(f"direction file {name} has shape {pts.shape}")
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # scripts/generate_direction_sets.py writes the pole first; snap it exactly.
    if np.max(np.abs(pts[0] - (0.0, 0.0, 1.0))) > 1e-12:
        raise UnsupportedDegreeError(f"direction file {name} does not start at the pole")
    pts[0] = (0.0, 0.0, 1.0)
    return pts


@lru_cache(maxsize=None)
def canonical_directions(p, dim):
    """Canonical unit directions, shape (p, dim); first is (1,0)/(0,0,1)."""
    if dim == 2:
        angles = 2.0 * pi * np.arange(p) / p
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim == 3:
        pts = _load_sphere_points(p)
        if pts is not None:
            return pts
        raise UnsupportedDegreeError(f"no bundled 3D direction set for p={p}")
    raise UnsupportedDegreeError(f"unsupported dimension {dim}")


def frame_from_direction(direction):
    """Rotation matrix (dim, dim) mapping the canonical first direction to `direction`.

    In 2D, the rotation by theta = atan2(d_y, d_x) mod 2 pi; None (the
    canonical fan) when theta == 0, so that fan keeps its bits.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if d.shape[0] == 3:
        return rotation_matrix_3d(d)
    theta = atan2(d[1], d[0]) % (2.0 * pi)
    if theta == 0.0:
        return None
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_matrix_3d(direction):
    """Orthogonal matrix sending (0,0,1) to `direction`.

    Identity when d_x = d_y = 0; otherwise det = -1, which is fine
    since only the mapped direction set matters.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    s = np.hypot(d[0], d[1])
    if s == 0.0:
        return np.eye(3)
    return np.array(
        [
            [d[0] * d[2] / s, d[1] / s, d[0]],
            [d[1] * d[2] / s, -d[0] / s, d[1]],
            [-s, 0.0, d[2]],
        ]
    )


def element_directions(element):
    """Direction set actually used by an element, shape (p, dim)."""
    if element.directions_override is not None:
        return element.directions_override
    base = canonical_directions(element.n_waves, element.dim)
    return base if element.frame is None else base @ element.frame.T


def _exp_in_place(values):
    """exp of complex values whose real parts are +-0: cos/sin of the phases, in place."""
    np.cos(values.imag, out=values.real)
    np.sin(values.imag, out=values.imag)
    return values


def _plane_waves(offsets, ikd):
    """exp(offsets @ ikd^T) for real offsets x - x_K (..., m, dim), ikd (..., p, dim).

    Bit for bit np.exp of the complex product, built in place (module
    docstring).
    """
    return _exp_in_place(offsets @ np.swapaxes(ikd, -1, -2))


def eval_basis(element, points, order=0):
    """Evaluate the element's plane waves at physical points.

    Returns values (m, p) for order 0; adds gradients (m, p, dim) for
    order 1 and Hessians (m, p, dim, dim) for order 2.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ikd = 1j * element.k * element_directions(element)
    values = _plane_waves(pts - element.centroid, ikd)
    if order == 0:
        return values
    grads = values[:, :, None] * ikd[None, :, :]
    if order == 1:
        return values, grads
    outer = ikd[:, :, None] * ikd[:, None, :]
    hessians = values[:, :, None, None] * outer[None, :, :, :]
    if order == 2:
        return values, grads, hessians
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


class WaveTable:
    """Plane waves of a mesh's elements, stacked per wave count p.

    Built once per skeleton pass, so that a batch of facets gathers its
    sides by fancy indexing instead of element by element.  take() returns
    wave vectors k d (F, p, dim), centroids (F, dim), wavenumbers (F,) and,
    when coefficients were given, the coefficient vectors (F, p).
    """

    def __init__(self, elements, coefficients=None):
        by_count = {}
        for eid in sorted(elements):
            by_count.setdefault(elements[eid].n_waves, []).append(elements[eid])
        self._tables = {}
        for p, els in by_count.items():
            columns = [
                np.array([el.id for el in els]),
                np.stack([el.k * element_directions(el) for el in els]),
                np.stack([el.centroid for el in els]),
                np.array([el.k for el in els]),
            ]
            if coefficients is not None:
                columns.append(np.stack([coefficients[el.id] for el in els]))
            self._tables[p] = columns

    def take(self, ids, p):
        """The columns of the elements `ids`, all with p waves, in that order."""
        table_ids, *columns = self._tables[p]
        rows = np.searchsorted(table_ids, ids)
        return [column[rows] for column in columns]


def grid_waves(kd, centroids, axes, normals=None):
    """Plane-wave factors (F, n_a, p) per axis with n_a > 1 (module docstring).

    Grid f carries the waves kd[f] (p, dim) centred at centroids[f] (F, dim).
    With normals (F, dim), also returns i k d_l . n (F, p), the normal
    derivative of a wave over its value.
    """
    ikd = 1j * kd
    offsets = [nodes - centre[:, None] for nodes, centre in zip(axes, centroids.T)]
    wide = [ax for ax, nodes in enumerate(axes) if nodes.shape[1] > 1]
    joined = [ax for ax, nodes in enumerate(axes) if ax == wide[0] or nodes.shape[1] == 1]
    factors = []
    if len(joined) > 1:
        shape = offsets[wide.pop(0)].shape
        columns = np.stack([np.broadcast_to(offsets[ax], shape) for ax in joined], axis=-1)
        factors.append(_plane_waves(columns, ikd[:, :, joined]))
    factors += [_exp_in_place(offsets[ax][..., None] * ikd[:, None, :, ax]) for ax in wide]
    if normals is None:
        return factors
    return factors, (ikd @ normals[:, :, None])[:, :, 0]


def grid_sum(factors, coeffs):
    """sum_l coeffs[f, l] phi_l on F grids from grid_waves factors, (F, prod n_a) in "ij" order.

    ((c * F_0) * F_1 ...) @ F_last^T, in this order (module docstring).
    """
    head = coeffs[:, None, :]
    for factor in factors[:-1]:
        head = (head[:, :, None, :] * factor[:, None]).reshape(len(coeffs), -1, coeffs.shape[1])
    return (head @ np.swapaxes(factors[-1], 1, 2)).reshape(len(coeffs), -1)
