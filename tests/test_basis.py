"""Plane-wave direction sets, frame rotations, and basis evaluation."""

from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg import basis
from tdg.basis import (
    UnsupportedDegreeError,
    WaveTable,
    canonical_directions,
    element_directions,
    eval_basis,
    frame_from_direction,
    grid_sum,
    grid_waves,
    rotation_matrix_3d,
)
from tdg.mesh import DomainSpec, build_initial_mesh, refine_elements
from tdg.quadrature import facet_rule, grid_points, skeleton_batches, volume_rule
from tdg.solution import DiscreteSolution


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _element(kind="unit_square", k=10.0, q0=3):
    mesh = build_initial_mesh(DomainSpec(kind=kind), 1, _constant_k(k), q0)
    (element,) = mesh.elements.values()
    return element


@pytest.mark.parametrize("q", range(2, 10))
def test_canonical_directions_2d(q):
    p = 2 * q + 1
    dirs = canonical_directions(p, 2)
    assert dirs.shape == (p, 2)
    assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    angles = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2.0 * np.pi)
    assert angles[0] == pytest.approx(0.0, abs=1e-15)
    gaps = np.diff(np.sort(angles))
    assert_allclose(gaps, 2.0 * np.pi / p, atol=1e-12)


@pytest.mark.parametrize("q", range(1, 9))
def test_canonical_directions_3d(q):
    p = (q + 1) ** 2
    dirs = canonical_directions(p, 3)
    assert dirs.shape == (p, 3)
    assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert_allclose(dirs[0], [0.0, 0.0, 1.0], atol=1e-12)
    # Exactly the bundled file's rows, normalised, with the first snapped
    # to the pole: loading applies no rotation.
    rows = np.loadtxt(resources.files("tdg.data") / f"sphere_points_p{p}.txt")
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[0] = (0.0, 0.0, 1.0)
    assert np.array_equal(dirs, rows)
    # Distinct, reasonably separated points.
    gram = dirs @ dirs.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-4


def test_direction_file_must_start_at_pole(monkeypatch):
    text = "0 1 0\n0 0 1\n1 0 0\n-1 0 0\n"
    file = SimpleNamespace(read_text=lambda: text)
    package = SimpleNamespace(joinpath=lambda name: file)
    monkeypatch.setattr(basis, "resources", SimpleNamespace(files=lambda name: package))
    with pytest.raises(UnsupportedDegreeError, match="does not start at the pole"):
        basis._load_sphere_points.__wrapped__(4)


def test_unsupported_3d_size_raises_without_fallback():
    with pytest.raises(UnsupportedDegreeError):
        canonical_directions(12, 3)


def test_rotated_directions_2d():
    frame = frame_from_direction((0.0, 1.0))
    dirs = canonical_directions(7, 2) @ frame.T
    assert_allclose(dirs[0], [0.0, 1.0], atol=1e-15)
    base = canonical_directions(7, 2)
    # Rigid rotation preserves all pairwise angles.
    assert_allclose(dirs @ dirs.T, base @ base.T, atol=1e-12)


def test_frame_from_direction_normalizes():
    frame = frame_from_direction((3.0, 4.0))
    dirs = canonical_directions(5, 2) @ frame.T
    assert_allclose(dirs[0], [0.6, 0.8], atol=1e-15)


def test_rotation_matrix_3d_properties_random():
    rng = np.random.default_rng(1234)
    raw = rng.normal(size=(10_000, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    eye = np.eye(3)
    pole = np.array([0.0, 0.0, 1.0])
    worst_orth = 0.0
    worst_map = 0.0
    for d in raw:
        t = rotation_matrix_3d(d)
        worst_orth = max(worst_orth, np.abs(t.T @ t - eye).max())
        worst_map = max(worst_map, np.abs(t @ pole - d).max())
    assert worst_orth <= 1e-12
    assert worst_map <= 1e-12


def test_rotation_matrix_3d_pole_is_identity():
    assert_allclose(rotation_matrix_3d((0.0, 0.0, 1.0)), np.eye(3), atol=0.0)


def test_frame_from_direction_3d_first_direction():
    d = np.array([1.0, -2.0, 0.5])
    d /= np.linalg.norm(d)
    frame = frame_from_direction(d)
    dirs = canonical_directions(16, 3) @ frame.T
    assert_allclose(dirs[0], d, atol=1e-12)


def test_element_directions_override():
    element = _element()
    base = element_directions(element)
    assert base.shape == (7, 2)
    custom = np.array([[1.0, 0.0], [0.0, 1.0]])
    element.directions_override = custom
    try:
        assert element_directions(element) is custom
    finally:
        element.directions_override = None


@pytest.mark.parametrize(
    "kind, direction", [("unit_square", (0.6, 0.8)), ("unit_cube", (0.48, 0.6, 0.64))]
)
def test_element_directions_follow_in_place_mesh_changes(kind, direction):
    # The table2/table3 protocols rotate frames and raise degrees in place;
    # the directions must follow both and yield to overrides.
    mesh = build_initial_mesh(DomainSpec(kind=kind), 2, _constant_k(10.0), 2)
    first, second = (mesh.elements[eid] for eid in mesh.element_ids()[:2])

    def check():
        for el in mesh.elements.values():
            expected = el.directions_override
            if expected is None:
                expected = canonical_directions(el.n_waves, el.dim)
                if el.frame is not None:
                    expected = expected @ el.frame.T
            assert np.array_equal(element_directions(el), expected)

    check()
    first.frame = frame_from_direction(direction)
    check()
    for el in mesh.elements.values():
        el.degree += 1
    check()
    custom = np.eye(len(direction))
    second.directions_override = custom
    assert element_directions(second) is custom
    check()
    second.directions_override = None
    check()


def test_eval_basis_values_and_phases():
    element = _element(k=10.0)
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    values = eval_basis(element, pts)
    assert values.shape == (2, 7)
    # Plane waves are 1 at the centroid expansion point.
    assert_allclose(values[0], 1.0, atol=1e-15)
    assert_allclose(np.abs(values), 1.0, atol=1e-13)


def _reference_values(element, pts):
    phase = (pts - element.centroid) @ (1j * element.k * element_directions(element)).T
    return np.exp(phase)


def _refraction_override(p):
    # The shapes of criterion 3's injected refraction directions.
    d = np.array([np.sin(np.radians(69.0)), np.cos(np.radians(69.0))])
    if p == 1:
        return d[None, :]
    return np.array([d, [d[0], -d[1]]])


@pytest.mark.parametrize(
    "kind,k,q0,override",
    [
        ("unit_square", 20.0, 4, None),
        ("unit_cube", 20.0, 3, None),
        ("unit_square", 22.0, 3, 2),
        ("unit_square", 11.0, 3, 1),
    ],
)
def test_eval_basis_equals_complex_exp_bit_for_bit(kind, k, q0, override):
    element = _element(kind=kind, k=k, q0=q0)
    if override is not None:
        element.directions_override = _refraction_override(override)
    rng = np.random.default_rng(11)
    pts = element.lo + rng.random((400, element.dim)) * (element.hi - element.lo)
    values = eval_basis(element, pts)
    assert np.array_equal(values, _reference_values(element, pts))


@pytest.mark.parametrize(
    "kind,k,override",
    [
        ("unit_square", 20.0, None),
        ("unit_cube", 20.0, None),
        ("unit_square", 22.0, 2),
        ("unit_square", 11.0, 1),
    ],
)
def test_solution_on_grid_matches_pointwise_values(kind, k, override):
    # Mixed degrees, one rotated frame, and criterion 3's override shapes.
    mesh = build_initial_mesh(DomainSpec(kind=kind), 2, _constant_k(k), 2)
    direction = (0.6, 0.8) if kind == "unit_square" else (0.48, 0.6, 0.64)
    mesh.elements[mesh.element_ids()[0]].frame = frame_from_direction(direction)
    rng = np.random.default_rng(3)
    coefficients = {}
    for eid, el in mesh.elements.items():
        el.degree = 2 + eid % 3
        if override is not None:
            el.directions_override = _refraction_override(override)
        coefficients[eid] = rng.normal(size=el.n_waves) + 1j * rng.normal(size=el.n_waves)
    for el in mesh.elements.values():
        rule = volume_rule(el)
        coeff = coefficients[el.id]
        expected = eval_basis(el, rule.points) @ coeff
        kd = el.k * element_directions(el)
        grid = grid_sum(grid_waves(kd[None], el.centroid[None], rule.axes), coeff[None])[0]
        # A value sums p unit-modulus waves and may cancel to near 0, so the
        # relative tolerance is taken against sum |c_l|, the sum's scale.
        assert_allclose(grid, expected, rtol=0.0, atol=1e-13 * np.abs(coeff).sum())


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_stacked_volume_grids_equal_one_grid_calls(kind):
    # One rotated frame and one directions_override among equal-sized elements.
    mesh = build_initial_mesh(DomainSpec(kind=kind), 2, _constant_k(20.0), 2)
    elements = [mesh.elements[eid] for eid in mesh.element_ids()]
    direction = (0.6, 0.8) if kind == "unit_square" else (0.48, 0.6, 0.64)
    elements[0].frame = frame_from_direction(direction)
    rng = np.random.default_rng(5)
    override = rng.normal(size=(elements[1].n_waves, mesh.dim))
    elements[1].directions_override = override / np.linalg.norm(override, axis=1, keepdims=True)
    coefficients = {el.id: rng.normal(size=el.n_waves) + 1j * rng.normal(size=el.n_waves)
                    for el in elements}
    solution = DiscreteSolution(mesh, coefficients)
    rules = [volume_rule(el) for el in elements]
    axes = [np.concatenate([rule.axes[ax] for rule in rules]) for ax in range(mesh.dim)]
    kd = np.stack([el.k * element_directions(el) for el in elements])
    centroids = np.stack([el.centroid for el in elements])
    coeffs = np.stack([coefficients[el.id] for el in elements])
    stacked = grid_sum(grid_waves(kd, centroids, axes), coeffs)
    for values, el, rule in zip(stacked, elements, rules):
        assert np.array_equal(values, solution.on_grid(el, rule.axes))


def test_eval_basis_gradient_matches_finite_differences():
    element = _element(k=7.0)
    pts = np.array([[0.31, 0.62]])
    h = 1e-6
    values, grads = eval_basis(element, pts, order=1)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (eval_basis(element, pts + shift) - eval_basis(element, pts - shift)) / (
            2.0 * h
        )
        assert_allclose(grads[0, :, axis], fd[0], rtol=1e-8, atol=1e-8)


def test_eval_basis_hessian_matches_finite_differences():
    element = _element(k=7.0)
    pts = np.array([[0.4, 0.55]])
    h = 1e-5
    values, grads, hessians = eval_basis(element, pts, order=2)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        _, gp = eval_basis(element, pts + shift, order=1)
        _, gm = eval_basis(element, pts - shift, order=1)
        fd = (gp - gm) / (2.0 * h)
        assert_allclose(hessians[0, :, :, axis], fd[0], rtol=1e-7, atol=1e-6)


@pytest.mark.parametrize("kind,q0", [("unit_square", 4), ("unit_cube", 3)])
def test_basis_satisfies_helmholtz(kind, q0):
    element = _element(kind=kind, k=20.0, q0=q0)
    rng = np.random.default_rng(7)
    pts = element.lo + rng.random((5, element.dim)) * (element.hi - element.lo)
    values, grads, hessians = eval_basis(element, pts, order=2)
    residual = np.trace(hessians, axis1=2, axis2=3) + element.k**2 * values
    assert np.abs(residual).max() <= 1e-8


def test_eval_basis_rejects_bad_order():
    element = _element()
    with pytest.raises(ValueError):
        eval_basis(element, [[0.5, 0.5]], order=3)


def test_canonical_frame_is_identity():
    element = _element()
    assert element.frame is None
    assert_allclose(element_directions(element), canonical_directions(7, 2), atol=0.0)


# --- sum-factorised facet traces against pointwise evaluation ---

def _trace_mesh(kind, n, marked):
    # Mixed degrees, one rotated frame and hanging facets.
    mesh = build_initial_mesh(DomainSpec(kind=kind), n, _constant_k(17.0), 2)
    mesh = refine_elements(mesh, marked)
    direction = (0.6, 0.8) if kind == "unit_square" else (0.48, 0.6, 0.64)
    mesh.elements[mesh.element_ids()[0]].frame = frame_from_direction(direction)
    for eid, el in mesh.elements.items():
        el.degree = 1 + eid % 3
    return mesh


def _batch_sides(batch):
    sides = [(batch.side_a, batch.p_a)]
    return sides if batch.is_boundary else sides + [(batch.side_b, batch.p_b)]


def test_2d_traces_equal_pointwise_plane_waves_bit_for_bit():
    mesh = _trace_mesh("unit_square", 4, [0, 5, 6])
    waves = WaveTable(mesh.elements)
    for batch in skeleton_batches(mesh):
        points = grid_points(batch.grid_axes())
        for ids, p in _batch_sides(batch):
            kd, centroids, _ = waves.take(ids, p)
            factors, dn = grid_waves(kd, centroids, batch.grid_axes(), batch.normal)
            assert len(factors) == 1
            want = basis._plane_waves(points - centroids[:, None, :], 1j * kd)
            assert np.array_equal(factors[0], want)
            assert np.array_equal(dn, np.einsum("fpd,fd->fp", 1j * kd, batch.normal))


def test_3d_trace_factors_match_eval_basis_on_facet_rules():
    mesh = _trace_mesh("unit_cube", 2, [0, 3])
    waves = WaveTable(mesh.elements)
    facets = mesh.facets()
    rows = {key: f for f, key in enumerate(zip(facets.side_a.tolist(), map(tuple, facets.lo),
                                                map(tuple, facets.hi)))}
    normals, hanging = set(), 0
    for batch in skeleton_batches(mesh):
        for ids, p in _batch_sides(batch):
            kd, centroids, _ = waves.take(ids, p)
            (f0, f1), dn = grid_waves(kd, centroids, batch.grid_axes(), batch.normal)
            values = (f0[:, :, None, :] * f1[:, None, :, :]).reshape(len(ids), -1, p)
            for j, eid in enumerate(ids.tolist()):
                f = rows[batch.side_a[j], tuple(batch.lo[j]), tuple(batch.hi[j])]
                axis, side_b, normal = facets.axis[f], facets.side_b[f], facets.normal[f]
                sides = [facets.side_a[f]] + ([] if side_b < 0 else [side_b])
                k_max = max(mesh.elements[s].k for s in sides)
                q_max = max(mesh.elements[s].degree for s in sides)
                rule = facet_rule(facets.lo[f], facets.hi[f], axis, k_max, q_max)
                want, grads = eval_basis(mesh.elements[eid], rule.points, order=1)
                dwant = grads @ normal
                assert_allclose(values[j], want, rtol=0.0, atol=1e-13)
                assert_allclose(values[j] * dn[j], dwant, rtol=0.0, atol=1e-13 * 17.0)
                normals.add((int(axis), int(normal[axis])))
                hanging += bool(side_b >= 0) and (
                    mesh.elements[sides[0]].level != mesh.elements[side_b].level)
    assert normals == {(axis, sign) for axis in range(3) for sign in (-1, 1)}
    assert hanging > 0
