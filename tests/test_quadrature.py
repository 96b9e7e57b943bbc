"""Gauss-Legendre rules against closed-form polynomial and oscillatory integrals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.mesh import DomainSpec, build_initial_mesh, refine_elements
from tdg.problems import ConstantWavenumber
from tdg.quadrature import (
    _gauss_nodes,
    facet_rule,
    points_per_direction,
    skeleton_rules,
    volume_rule,
)


def _mesh(n=1, k=10.0, q0=3, kind="unit_square"):
    domain = DomainSpec(kind=kind)
    return build_initial_mesh(domain, n, ConstantWavenumber(k), q0)


def test_gauss_weights_sum_to_interval():
    for n in range(1, 40):
        _, weights = _gauss_nodes(n)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 12, 25])
def test_gauss_polynomial_exactness(n):
    # An n-point rule integrates monomials up to degree 2n - 1 exactly.
    nodes, weights = _gauss_nodes(n)
    for degree in range(2 * n):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        approx = np.sum(weights * nodes**degree)
        assert approx == pytest.approx(exact, abs=1e-13)


def test_gauss_rejects_empty_rule():
    with pytest.raises(ValueError):
        _gauss_nodes(0)


def test_point_count_grows_with_wavenumber_and_degree():
    base = points_per_direction(3, 10.0, 1.0)
    assert points_per_direction(9, 10.0, 1.0) > base
    assert points_per_direction(3, 60.0, 1.0) > base
    assert points_per_direction(3, 10.0, 0.25) < base


@pytest.mark.parametrize("k", [5.0, 20.0, 40.0])
def test_facet_rule_oscillatory_closed_form(k):
    # One element on (0,1)^2; bottom facet carries exp(i 2k x) whose
    # integral over [0,1] is (exp(2ik) - 1) / (2ik).
    mesh = _mesh(k=k, q0=4)
    bottom = [f for f in mesh.facets() if f.is_boundary and f.axis == 1 and f.lo[1] == 0.0]
    assert len(bottom) == 1
    rule = facet_rule(bottom[0], 2.0 * k, 4)
    integrand = np.exp(2j * k * rule.points[:, 0])
    approx = np.sum(rule.weights * integrand)
    exact = (np.exp(2j * k) - 1.0) / (2j * k)
    assert abs(approx - exact) <= 1e-12


@pytest.mark.parametrize("k", [5.0, 20.0])
def test_volume_rule_oscillatory_closed_form_2d(k):
    mesh = _mesh(k=k, q0=4)
    (element,) = mesh.elements.values()
    rule = volume_rule(element)
    # Integrand exp(i k (x + 2 y)) factors into two 1D closed forms.
    integrand = np.exp(1j * k * (rule.points[:, 0] + 2.0 * rule.points[:, 1]))
    approx = np.sum(rule.weights * integrand)
    exact = ((np.exp(1j * k) - 1.0) / (1j * k)) * ((np.exp(2j * k) - 1.0) / (2j * k))
    assert abs(approx - exact) <= 1e-12


def test_volume_rule_oscillatory_closed_form_3d():
    k = 12.0
    mesh = _mesh(k=k, q0=2, kind="unit_cube")
    (element,) = mesh.elements.values()
    rule = volume_rule(element)
    integrand = np.exp(1j * k * rule.points.sum(axis=1))
    approx = np.sum(rule.weights * integrand)
    exact = ((np.exp(1j * k) - 1.0) / (1j * k)) ** 3
    assert abs(approx - exact) <= 1e-12


def test_volume_rule_measures_element():
    mesh = _mesh(n=4, k=20.0)
    for element in mesh.elements.values():
        rule = volume_rule(element)
        assert rule.weights.sum() == pytest.approx(0.0625, abs=1e-14)


def test_facet_rule_doubling_consistency():
    # Doubling the requested degree must not change a converged integral.
    k = 30.0
    mesh = _mesh(k=k, q0=3)
    facet = next(f for f in mesh.facets() if f.axis == 0)
    coarse = facet_rule(facet, k, 3)
    fine = facet_rule(facet, 2.0 * k, 12)
    integrand = lambda pts: np.exp(1j * k * (0.8 * pts[:, 0] + 0.6 * pts[:, 1]))
    a = np.sum(coarse.weights * integrand(coarse.points))
    b = np.sum(fine.weights * integrand(fine.points))
    assert abs(a - b) <= 1e-10


def test_facet_rule_sits_on_facet_plane():
    mesh = _mesh(n=2, k=10.0)
    for facet in mesh.facets():
        rule = facet_rule(facet, 10.0, 3)
        assert_allclose(rule.points[:, facet.axis], facet.lo[facet.axis], atol=0.0)
        assert rule.weights.sum() == pytest.approx(facet.measure, abs=1e-14)


# Reference: the per-facet meshgrid construction the batched rules replaced.
def _meshgrid_tensor(axes_1d):
    grids = np.meshgrid(*[a for a, _ in axes_1d], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[w for _, w in axes_1d], indexing="ij")
    w = np.ones(pts.shape[0])
    for wg in wgrids:
        w = w * wg.ravel()
    return pts, w


def _axis_rule(lo, hi, ax, x, w):
    mid = 0.5 * (lo[ax] + hi[ax])
    half = 0.5 * (hi[ax] - lo[ax])
    return mid + half * x, half * w


def _reference_facet_rule(facet, k_max, q_max):
    x, w = _gauss_nodes(points_per_direction(q_max, k_max, facet.diameter))
    dim = facet.lo.shape[0]
    tangential = [ax for ax in range(dim) if ax != facet.axis]
    pts_t, wts = _meshgrid_tensor(
        [_axis_rule(facet.lo, facet.hi, ax, x, w) for ax in tangential]
    )
    pts = np.empty((pts_t.shape[0], dim))
    pts[:, facet.axis] = facet.lo[facet.axis]
    pts[:, tangential] = pts_t
    return pts, wts


def _reference_volume_rule(element):
    x, w = _gauss_nodes(points_per_direction(element.degree, element.k, element.h))
    return _meshgrid_tensor(
        [_axis_rule(element.lo, element.hi, ax, x, w) for ax in range(element.dim)]
    )


def _hp_mesh(kind, n, marked):
    mesh = refine_elements(_mesh(n=n, k=17.0, q0=2, kind=kind), marked)
    for eid, el in mesh.elements.items():
        el.degree = 2 + eid % 3
    return mesh


@pytest.mark.parametrize(
    "kind, n, marked", [("unit_square", 4, [0, 5, 6]), ("unit_cube", 2, [0, 3])]
)
def test_batched_facet_rules_equal_meshgrid_reference(kind, n, marked):
    mesh = _hp_mesh(kind, n, marked)
    facets = mesh.facets()
    levels = {(f.level, mesh.elements[f.side_b].level) for f in facets if not f.is_boundary}
    assert (1, 0) in levels  # hanging facets: finer side_a, coarser side_b
    assert any(f.is_boundary for f in facets)
    rules = list(skeleton_rules(mesh, facets))
    assert len(rules) == len(facets)
    for facet, rule in zip(facets, rules):
        el_a = mesh.elements[facet.side_a]
        sides = [el_a] if facet.is_boundary else [el_a, mesh.elements[facet.side_b]]
        k_max = max(el.k for el in sides)
        q_max = max(el.degree for el in sides)
        pts, wts = _reference_facet_rule(facet, k_max, q_max)
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, wts)
        single = facet_rule(facet, k_max, q_max)
        assert np.array_equal(single.points, pts)
        assert np.array_equal(single.weights, wts)


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_volume_rule_equals_meshgrid_reference(kind):
    mesh = _hp_mesh(kind, 2, [1])
    for element in mesh.elements.values():
        rule = volume_rule(element)
        pts, wts = _reference_volume_rule(element)
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, wts)
        grids = np.meshgrid(*rule.axis_points, indexing="ij")
        assert np.array_equal(np.stack([g.ravel() for g in grids], axis=1), rule.points)
