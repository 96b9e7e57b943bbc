"""Benchmark problems: exact solutions, interface physics, boundary data."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.basis import frame_from_direction
from tdg.mesh import DIRICHLET, ROBIN, DomainSpec, build_initial_mesh, refine_elements
from tdg.problems import (
    ProblemError,
    ProblemSpec,
    l2_errors,
)
from tdg.quadrature import grid_points, skeleton_batches, volume_rule
from tdg.solution import DiscreteSolution

mpmath.mp.dps = 40


def _domain(kind="unit_square", boundary=None):
    return DomainSpec(kind=kind, boundary_partition=boundary or {"all": ROBIN})


def hankel_problem(k=20.0, sign=1.0):
    return ProblemSpec(
        kind="hankel_source", domain=_domain(), k=k, impedance_sign=sign
    )


def corner_problem(k=20.0):
    return ProblemSpec(kind="singular_corner", domain=_domain("l_shape"), k=k)


def plane_problem(k=20.0, direction=(1.0, 1.0, 1.0)):
    return ProblemSpec(kind="plane_wave", domain=_domain("unit_cube"), k=k,
                       direction=direction)


def transmission_problem(deg):
    return ProblemSpec(
        kind="transmission",
        domain=_domain("square2", {"all": DIRICHLET}),
        omega=11.0,
        index_below=2.0,
        index_above=1.0,
        incidence_deg=deg,
    )


# Independent reference formulas, evaluated in extended precision -------------

def _mp_hankel(k, x, y):
    r = mpmath.sqrt((x + mpmath.mpf("0.25")) ** 2 + y**2)
    return mpmath.hankel1(0, k * r)


def _mp_corner(k, x, y):
    r = mpmath.sqrt(x**2 + y**2)
    theta = mpmath.atan2(y, x)
    if theta < 0:
        theta += 2 * mpmath.pi
    return mpmath.besselj(mpmath.mpf(2) / 3, k * r) * mpmath.sin(2 * theta / 3)


def _mp_transmission(deg):
    k1 = mpmath.mpf(22)
    k2 = mpmath.mpf(11)
    theta = mpmath.radians(deg)
    kx = k1 * mpmath.cos(theta)
    ky = k1 * mpmath.sin(theta)
    ktrans = mpmath.sqrt(mpmath.mpc(k2**2 - kx**2))
    if mpmath.im(ktrans) < 0:
        ktrans = -ktrans
    refl = (ky - ktrans) / (ky + ktrans)
    trans = 1 + refl

    def u(x, y):
        if y <= 0:
            return mpmath.exp(1j * (kx * x + ky * y)) + refl * mpmath.exp(
                1j * (kx * x - ky * y)
            )
        return trans * mpmath.exp(1j * (kx * x + ktrans * y))

    return u


def _mp_laplacian(f, point, h=mpmath.mpf("1e-9")):
    total = mpmath.mpc(0)
    for axis in range(len(point)):
        shifted = list(point)
        shifted[axis] = point[axis] + h
        total += f(*shifted)
        shifted[axis] = point[axis] - h
        total += f(*shifted)
    return (total - 2 * len(point) * f(*point)) / h**2


def test_hankel_matches_reference_and_pde():
    problem = hankel_problem(k=20.0)
    pts = np.array([[0.1, 0.2], [0.6, 0.9], [0.95, 0.05]])
    ours = problem.exact_solution(pts)
    for (x, y), v in zip(pts, ours):
        ref = _mp_hankel(mpmath.mpf(20), mpmath.mpf(float(x)), mpmath.mpf(float(y)))
        assert abs(v - complex(ref)) <= 1e-12 * abs(complex(ref))
        resid = _mp_laplacian(
            lambda a, b: _mp_hankel(mpmath.mpf(20), a, b),
            (mpmath.mpf(float(x)), mpmath.mpf(float(y))),
        ) + 400 * ref
        assert abs(complex(resid)) <= 1e-8


def test_corner_matches_reference_and_pde():
    problem = corner_problem(k=20.0)
    pts = np.array([[-0.3, 0.4], [-0.7, -0.2], [0.5, 0.6]])
    ours = problem.exact_solution(pts)
    for (x, y), v in zip(pts, ours):
        ref = _mp_corner(mpmath.mpf(20), mpmath.mpf(float(x)), mpmath.mpf(float(y)))
        assert abs(v - complex(ref)) <= 1e-12 * max(1.0, abs(complex(ref)))
        resid = _mp_laplacian(
            lambda a, b: _mp_corner(mpmath.mpf(20), a, b),
            (mpmath.mpf(float(x)), mpmath.mpf(float(y))),
        ) + 400 * ref
        assert abs(complex(resid)) <= 1e-8


def test_corner_frozen_value():
    problem = corner_problem(k=20.0)
    value = problem.exact_solution(np.array([[-0.3, 0.4]]))[0]
    assert value.real == pytest.approx(-0.07979124973597306, abs=1e-14)
    assert value.imag == 0.0


def test_plane_wave_matches_reference_and_pde():
    problem = plane_problem(k=20.0)
    d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    pts = np.array([[0.2, 0.7, 0.4], [0.9, 0.1, 0.8]])
    ours = problem.exact_solution(pts)
    expected = np.exp(1j * 20.0 * pts @ d)
    assert_allclose(ours, expected, rtol=1e-13)

    def f(x, y, z):
        return mpmath.exp(1j * 20 * (d[0] * x + d[1] * y + d[2] * z))

    point = tuple(mpmath.mpf(float(c)) for c in pts[0])
    resid = _mp_laplacian(f, point) + 400 * f(*point)
    assert abs(complex(resid)) <= 1e-8


@pytest.mark.parametrize("deg", [29.0, 69.0])
def test_transmission_matches_reference_and_pde(deg):
    problem = transmission_problem(deg)
    pts = np.array([[0.3, -0.5], [-0.8, -0.1], [0.2, 0.4], [-0.5, 0.9]])
    ours = problem.exact_solution(pts)
    u = _mp_transmission(deg)
    for (x, y), v in zip(pts, ours):
        ref = u(mpmath.mpf(float(x)), mpmath.mpf(float(y)))
        assert abs(v - complex(ref)) <= 1e-12 * max(1.0, abs(complex(ref)))
        ksq = 484 if y <= 0 else 121
        resid = _mp_laplacian(u, (mpmath.mpf(float(x)), mpmath.mpf(float(y)))) + ksq * ref
        assert abs(complex(resid)) <= 1e-8


@pytest.mark.parametrize("deg", [29.0, 69.0])
def test_transmission_interface_continuity(deg):
    problem = transmission_problem(deg)
    xs = np.linspace(-0.9, 0.9, 7)
    below = np.stack([xs, np.full_like(xs, -1e-30)], axis=1)
    above = np.stack([xs, np.full_like(xs, 1e-30)], axis=1)
    ub, gb = problem.exact_solution(below, gradient=True)
    ua, ga = problem.exact_solution(above, gradient=True)
    assert_allclose(ub, ua, rtol=1e-12, atol=1e-12)
    # Normal flux (d/dy) is continuous; tangential derivative follows
    # from value continuity.
    assert_allclose(gb[:, 1], ga[:, 1], rtol=1e-12, atol=1e-10)


def test_transmission_29_evanescent_decay():
    problem = transmission_problem(29.0)
    ys = np.array([0.1, 0.3, 0.6, 0.9])
    pts = np.stack([np.full_like(ys, 0.2), ys], axis=1)
    mags = np.abs(problem.exact_solution(pts))
    assert np.all(np.diff(mags) < 0.0)
    # Total internal reflection: |R| = 1 below the interface.
    deep = problem.exact_solution(np.array([[0.2, 0.95]]))[0]
    assert abs(deep) < 0.1 * mags[0]


def test_transmission_69_propagates():
    problem = transmission_problem(69.0)
    ys = np.linspace(0.05, 0.95, 9)
    pts = np.stack([np.full_like(ys, -0.4), ys], axis=1)
    mags = np.abs(problem.exact_solution(pts))
    # Transmitted plane wave has constant modulus |T|.
    assert_allclose(mags, mags[0], rtol=1e-12)


def test_gradient_matches_finite_differences():
    cases = [
        (hankel_problem(), np.array([[0.3, 0.6]])),
        (corner_problem(), np.array([[-0.4, 0.5]])),
        (transmission_problem(69.0), np.array([[0.25, -0.35]])),
        (plane_problem(), np.array([[0.2, 0.3, 0.7]])),
    ]
    h = 1e-6
    for problem, pts in cases:
        _, grad = problem.exact_solution(pts, gradient=True)
        for axis in range(pts.shape[1]):
            shift = np.zeros(pts.shape[1])
            shift[axis] = h
            fd = (
                problem.exact_solution(pts + shift)
                - problem.exact_solution(pts - shift)
            ) / (2.0 * h)
            assert_allclose(grad[0, axis], fd[0], rtol=1e-6, atol=1e-6)


def test_robin_boundary_data_definition():
    problem = hankel_problem(k=20.0)
    pts = np.array([[0.4, 1.0], [0.8, 1.0]])
    normal = np.array([0.0, 1.0])
    g = problem.boundary_data(ROBIN, pts, normal)
    u, grad = problem.exact_solution(pts, gradient=True)
    assert_allclose(g, grad @ normal + 1j * 20.0 * u, rtol=1e-14)

    flipped = hankel_problem(k=20.0, sign=-1.0)
    g2 = flipped.boundary_data(ROBIN, pts, normal)
    assert_allclose(g2, grad @ normal - 1j * 20.0 * u, rtol=1e-14)

    # A piecewise wavenumber enters pointwise; y = 0 takes k_below = 22.
    problem = transmission_problem(69.0)
    pts = np.array([[-1.0, -0.5], [-1.0, 0.0], [-1.0, 0.5]])
    normal = np.array([-1.0, 0.0])
    g = problem.boundary_data(ROBIN, pts, normal)
    u, grad = problem.exact_solution(pts, gradient=True)
    assert_allclose(g, grad @ normal + 1j * np.array([22.0, 22.0, 11.0]) * u, rtol=1e-14)


def test_dirichlet_boundary_data_is_trace():
    problem = transmission_problem(69.0)
    pts = np.array([[-1.0, -0.3], [-1.0, 0.6]])
    g = problem.boundary_data(DIRICHLET, pts, np.array([-1.0, 0.0]))
    assert_allclose(g, problem.exact_solution(pts), rtol=1e-14)


def test_boundary_data_unknown_tag():
    with pytest.raises(ProblemError):
        hankel_problem().boundary_data("neumann", np.array([[0.0, 0.0]]),
                                       np.array([1.0, 0.0]))


def test_wavenumber_fields():
    pts = np.array([[0.1, -0.4], [0.1, 0.4], [0.3, 0.3]])
    assert np.array_equal(hankel_problem().wavenumber(pts), [20.0, 20.0, 20.0])

    problem = transmission_problem(69.0)
    assert np.array_equal(problem.wavenumber(pts), [22.0, 11.0, 11.0])
    assert problem.facet_wavenumber(22.0, 11.0) == 11.0
    assert problem.facet_wavenumber(22.0, 22.0) == 22.0
    k_a, k_b = np.array([22.0, 22.0, 11.0]), np.array([11.0, 22.0, 11.0])
    assert np.array_equal(problem.facet_wavenumber(k_a, k_b), [11.0, 22.0, 11.0])

    uniform = hankel_problem()
    assert uniform.facet_wavenumber(20.0, 20.0) == 20.0
    with pytest.raises(ProblemError):
        uniform.facet_wavenumber(20.0, 21.0)
    with pytest.raises(ProblemError):
        uniform.facet_wavenumber(np.array([20.0, 20.0]), np.array([20.0, 21.0]))


def test_wavenumber_at_points_matches_per_point_lookup():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (40, 2))
    pts[::4, 1] = 0.0  # exactly on the interface, which counts as below
    interface = transmission_problem(69.0)
    for problem in (hankel_problem(), interface):
        expected = np.array([problem.wavenumber(p[None, :])[0] for p in pts])
        assert np.array_equal(problem.wavenumber(pts), expected)
    assert np.all(interface.wavenumber(pts[::4]) == 22.0)
    assert np.array_equal(interface.wavenumber(pts), np.where(pts[:, 1] <= 0.0, 22.0, 11.0))


def test_validation_errors():
    with pytest.raises(ProblemError):
        ProblemSpec(kind="unknown", domain=_domain())
    with pytest.raises(ProblemError):
        ProblemSpec(kind="hankel_source", domain=_domain(), k=-1.0)
    with pytest.raises(ProblemError):
        ProblemSpec(kind="singular_corner", domain=_domain(), k=20.0)
    with pytest.raises(ProblemError):
        ProblemSpec(
            kind="transmission",
            domain=_domain("square2", {"all": DIRICHLET}),
            omega=11.0,
            index_below=2.0,
        )
    with pytest.raises(ProblemError):
        ProblemSpec(kind="hankel_source", domain=_domain(), k=20.0,
                    impedance_sign=0.5)
    for direction in (None, (1.0,), (1.0, 1.0, 1.0), (0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0),
                      (1e200, 1e200)):
        with pytest.raises(ProblemError, match="plane_wave direction"):
            ProblemSpec(kind="plane_wave", domain=_domain(), k=20.0, direction=direction)
    with pytest.raises(ProblemError, match="plane_wave direction"):
        ProblemSpec(kind="plane_wave", domain=_domain("unit_cube"), k=20.0, direction=(1.0, 1.0))
    # Other kinds ignore the direction.
    ProblemSpec(kind="hankel_source", domain=_domain(), k=20.0, direction=(1.0, 1.0, 1.0))
    # Non-positive media parameters divide by zero in the skeleton or make the system singular.
    for bad in ({"omega": -11.0}, {"omega": 0.0}, {"index_below": -2.0}, {"index_above": 0.0}):
        with pytest.raises(ProblemError, match="must be positive"):
            dataclasses.replace(transmission_problem(69.0), **bad)


def test_transmission_wave_parameters():
    problem = transmission_problem(69.0)
    kx, ky, ktrans, refl, trans = problem._transmission_waves
    # Tangential wavenumber is shared; the normal one closes |k| = k2.
    assert kx == pytest.approx(22.0 * math.cos(math.radians(69.0)))
    assert kx**2 + abs(ktrans) ** 2 == pytest.approx(121.0)
    assert ktrans.imag == 0.0
    assert trans == pytest.approx(1.0 + refl)

    evan = transmission_problem(29.0)
    _, _, ktrans29, refl29, _ = evan._transmission_waves
    assert ktrans29.real == pytest.approx(0.0)
    assert ktrans29.imag > 0.0
    assert abs(refl29) == pytest.approx(1.0)


# Values on tensor grids against the pointwise definitions ---------------------

def _grids(problem):
    """(axes, normal or None) of every volume rule and boundary batch of a small hp mesh.

    The boundary batches cover both signs of every normal axis.
    """
    mesh = build_initial_mesh(problem.domain, 2, problem.wavenumber, 2)
    mesh = refine_elements(mesh, [min(mesh.elements)], raise_degree=[max(mesh.elements)])
    grids = [(volume_rule(el).axes, None) for el in mesh.elements.values()]
    sides = set()
    for batch in skeleton_batches(mesh):
        if batch.is_boundary:
            grids.append((batch.grid_axes(), batch.normal[0]))
            sides.add((batch.axis, int(batch.normal[0, batch.axis])))
    assert sides == {(ax, sign) for ax in range(mesh.dim) for sign in (-1, 1)}
    return grids


def _on_grids(problem):
    """(grid values, pointwise values) of u and of both kinds of boundary data."""
    for axes, normal in _grids(problem):
        pts = grid_points(axes)
        flat = pts.reshape(-1, pts.shape[2])
        if normal is None:
            yield problem.exact_on_grid(axes), problem.exact_solution(flat).reshape(pts.shape[:2])
            continue
        for tag in (ROBIN, DIRICHLET):
            want = problem.boundary_data(tag, flat, normal).reshape(pts.shape[:2])
            yield problem.boundary_on_grid(tag, axes, normal), want


def _assert_close_on_grids(problem, tol):
    for got, want in _on_grids(problem):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("problem", [
    ProblemSpec(kind="plane_wave", domain=_domain(), k=20.0, direction=(1.0, -2.0)),
    ProblemSpec(kind="plane_wave", domain=_domain("unit_cube"), k=20.0,
                direction=(0.3, -0.5, 0.8), impedance_sign=-1.0),
], ids=["2d", "3d"])
def test_plane_wave_on_grid_matches_pointwise(problem):
    # |u| = 1 and |g_R| <= 2k: the tolerance is 1e-14 absolute on u.
    _assert_close_on_grids(problem, 1e-14)


@pytest.mark.parametrize("problem", [
    hankel_problem(sign=-1.0), corner_problem(),
    transmission_problem(29.0), transmission_problem(69.0),
], ids=["hankel", "corner", "transmission-evanescent", "transmission-propagating"])
def test_non_plane_wave_on_grid_is_pointwise_bit_for_bit(problem):
    for got, want in _on_grids(problem):
        assert np.array_equal(got, want)


# Exact-value cache of l2_errors across adaptive steps -------------------------

def _rotate_first(mesh):
    mesh.elements[min(mesh.elements)].frame = frame_from_direction([0.0, 0.6, 0.8])
    return mesh


def _cache_case(name):
    """A problem, its initial mesh and the steps that each give the next mesh."""
    if name == "corner_h":
        problem, n, q = corner_problem(), 4, 3
        steps = [lambda m: refine_elements(m, [1, 4]),
                 lambda m: refine_elements(m, sorted(m.elements)[-3:])]
    elif name == "hankel_p":
        problem, n, q = hankel_problem(), 4, 3
        steps = [lambda m: refine_elements(m, [], raise_degree=[0, 5, 9]),
                 lambda m: refine_elements(m, [2], raise_degree=[0, 15])]
    else:
        problem, n, q = plane_problem(), 2, 2
        steps = [_rotate_first, lambda m: refine_elements(m, [3])]
    mesh = build_initial_mesh(problem.domain, n, problem.wavenumber, q)
    return problem, mesh, steps


def _exact_keys(mesh):
    """{key: rule size} of every element, by the key l2_errors documents."""
    keys = {}
    for el in mesh.elements.values():
        rule = volume_rule(el)
        keys[(el.level, el.cell, rule.axes[0].shape[1], el.k)] = len(rule.weights)
    return keys


@pytest.mark.parametrize("name", ["corner_h", "hankel_p", "cube_rotated"])
def test_l2_errors_cache_evaluates_only_new_elements(name, monkeypatch):
    problem, mesh, steps = _cache_case(name)
    rows = []
    exact_on_grid = ProblemSpec.exact_on_grid

    def counting(self, axes):
        values = exact_on_grid(self, axes)
        rows.append(values.size)
        return values

    monkeypatch.setattr(ProblemSpec, "exact_on_grid", counting)
    rng = np.random.default_rng(7)
    cache = {}
    previous = {}
    for step in [None, *steps]:
        if step is not None:
            mesh = step(mesh)
        solution = DiscreteSolution(mesh, {
            eid: rng.standard_normal(el.n_waves) + 1j * rng.standard_normal(el.n_waves)
            for eid, el in mesh.elements.items()
        })
        current = _exact_keys(mesh)
        rows.clear()
        cached = l2_errors(solution, problem, cache)
        assert sum(rows) == sum(size for key, size in current.items()
                                if key not in previous)
        assert set(cache) == set(current)
        assert cached == l2_errors(solution, problem)
        previous = current
