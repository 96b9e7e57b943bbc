"""Directional adaptivity: steer each element's plane-wave fan.

The dominant local propagation direction is estimated from the Hessian of
the discrete solution at the element centroid: the principal eigenvector of
the Hessian of an oscillatory field points along the direction of most rapid
variation.  Real and imaginary parts are analysed separately.  With l1, l2
and m1, m2 the leading eigenvalue magnitudes of Re and Im, v1 and w1 their
leading eigenvectors, a part is concentrated when its first magnitude is at
least GAP_FACTOR times its second, and dominates the other part when its
first is at least GAP_FACTOR times the other's first:
1. Re concentrated and dominating Im gives v1;
2. otherwise, Im concentrated and dominating Re gives w1;
3. otherwise, both concentrated gives the normalised bisector of v1 and w1,
   or None when v1 + w1 is shorter than SUM_EPS;
4. anything else gives None.
The resulting axis is then oriented by the local impedance trace at the
centroid x_K.  There every wave exp(i k d_l . (x - x_K)) equals 1, so both
steps read sums of the coefficients c_l, with no basis evaluation:
u = sum_l c_l, du/da = sum_l c_l i k d_l . a, Hessian -k^2 sum_l c_l d_l d_l^T.
"""

from __future__ import annotations

import numpy as np

from .basis import element_directions, frame_from_direction

GAP_FACTOR = 2.0
SIGN_EPS = 1e-12
SUM_EPS = 1e-8


def _fix_sign(vector):
    """Flip so the first component larger than SIGN_EPS in magnitude is positive."""
    for c in vector:
        if abs(c) > SIGN_EPS:
            if c < 0.0:
                return -vector
            return vector
    return vector


def symmetric_eigenpairs(matrix):
    """Eigenpairs of a real symmetric 2x2 or 3x3 matrix, |value| descending.

    Returns ``(values, vectors)`` with unit-norm eigenvector columns.  Each
    vector's sign is normalised so its first non-negligible component is
    positive, and ties in magnitude keep their algebraic order, which makes
    the output reproducible across runs.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape not in ((2, 2), (3, 3)):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {matrix.shape}")
    values, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    # eigh sorts ascending; reversed, the stable sort keeps ties in
    # magnitude in descending algebraic order.
    values, vectors = values[::-1], vectors[:, ::-1]
    order = np.argsort(-np.abs(values), kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        vectors[:, j] = _fix_sign(vectors[:, j])
    return values, vectors


def potential_direction(lam, vecs_re, mu, vecs_im, gap=GAP_FACTOR):
    """Select a candidate dominant direction by the module's rules, or None.

    ``lam``/``mu`` are eigenvalues of the real/imaginary Hessians sorted by
    descending magnitude with matching eigenvector columns; ``gap`` is the
    factor of the concentration and dominance tests.
    """
    l1, l2 = abs(lam[0]), abs(lam[1])
    m1, m2 = abs(mu[0]), abs(mu[1])
    re_concentrated, im_concentrated = l1 >= gap * l2, m1 >= gap * m2
    if re_concentrated and l1 >= gap * m1:
        return vecs_re[:, 0]
    if im_concentrated and m1 >= gap * l1:
        return vecs_im[:, 0]
    if not (re_concentrated and im_concentrated):
        return None
    combined = vecs_re[:, 0] + vecs_im[:, 0]
    norm = np.linalg.norm(combined)
    return None if norm < SUM_EPS else combined / norm


def centroid_hessians(solution, element):
    """Hessians of (Re u, Im u) at the centroid: two real symmetric matrices."""
    coeff = solution.coefficients[element.id]
    dirs = element_directions(element)
    outer = np.einsum("pd,pe->pde", dirs, dirs)
    hess = -(element.k**2) * np.einsum("p,pde->de", coeff, outer)
    return hess.real, hess.imag


def orient_direction(solution, element, axis):
    """Give the undirected axis a forward orientation.

    For a local wave ``A exp(i k d . (x - x_K))`` the amplitude-normalised
    impedance trace ``(grad u . axis + i k u) / (i k u)`` at the centroid
    equals exactly 2 when ``axis`` points along the travel direction ``d``
    and exactly 0 when it points against it, independent of the complex
    amplitude ``A``; the midpoint 1 separates the two cases.  (Without the
    normalisation the forward value is ``2 Re A``, so any field with local
    amplitude below one half would always be flipped.)
    """
    coeff = solution.coefficients[element.id]
    ik = 1j * element.k
    denom = ik * coeff.sum()
    if denom == 0.0:
        return axis
    derivative = ((ik * element_directions(element)) @ axis) @ coeff
    trace = (derivative + denom) / denom
    if trace.real < 1.0:
        return -axis
    return axis


def element_direction(solution, element):
    """Dominant oriented propagation direction for one element, or None."""
    h_re, h_im = centroid_hessians(solution, element)
    axis = potential_direction(*symmetric_eigenpairs(h_re), *symmetric_eigenpairs(h_im))
    if axis is None:
        return None
    return orient_direction(solution, element, axis)


POLICIES = ("none", "marked-p", "marked-all", "all")


def apply_directional_adaptivity(mesh, solution, policy, h_marked=(), p_marked=()):
    """Re-orient the plane-wave fans of selected elements in place.

    ``policy`` chooses the target set: ``none``, ``marked-p`` (elements about
    to be p-refined), ``marked-all`` (everything marked for refinement, with
    any h-subdivision happening afterwards so children inherit the new frame),
    or ``all``.  Elements without a clear dominant direction keep their frame.
    Returns {element id: new frame, a rotation matrix or None} for the updated elements.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown directional policy {policy!r}; expected one of {POLICIES}")
    if policy == "none":
        selected = []
    elif policy == "marked-p":
        selected = sorted(set(p_marked))
    elif policy == "marked-all":
        selected = sorted(set(h_marked) | set(p_marked))
    else:
        selected = sorted(mesh.elements)
    updated = {}
    for eid in selected:
        element = mesh.elements[eid]
        direction = element_direction(solution, element)
        if direction is None:
            continue
        frame = frame_from_direction(direction)
        element.frame = frame
        updated[eid] = frame
    return updated
