"""Direction extraction: eigensolvers, selection table, orientation, policies."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.basis import canonical_directions, element_directions
from tdg.directional import (
    GAP_FACTOR,
    POLICIES,
    apply_directional_adaptivity,
    centroid_hessians,
    element_direction,
    orient_direction,
    potential_direction,
    symmetric_eigenpairs,
)
from tdg.mesh import DomainSpec, build_initial_mesh
from tdg.solution import DiscreteSolution

K = 20.0


def _constant_k(k):
    """Map from points (m, d) to the wavenumber k at each, (m,)."""
    return lambda points: np.full(len(points), float(k))


def _mesh(n=2, q0=3, kind="unit_square"):
    return build_initial_mesh(DomainSpec(kind=kind), n, _constant_k(K), q0)


def _single_wave_solution(mesh, index=1, amplitude=1.0 + 0.0j):
    """Every element carries `amplitude` times canonical fan direction `index`."""
    coeffs = {}
    for eid, el in mesh.elements.items():
        c = np.zeros(el.n_waves, dtype=complex)
        c[index] = amplitude
        coeffs[eid] = c
    return DiscreteSolution(mesh=mesh, coefficients=coeffs)


# Eigensolvers ---------------------------------------------------------------

def test_symmetric_eigenpairs_2x2_closed_form():
    matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
    values, vectors = symmetric_eigenpairs(matrix)
    assert_allclose(np.abs(values), [3.0, 1.0])
    assert_allclose(matrix @ vectors[:, 0], values[0] * vectors[:, 0], atol=1e-14)
    assert_allclose(matrix @ vectors[:, 1], values[1] * vectors[:, 1], atol=1e-14)
    # Ordered by magnitude, sign-fixed to a positive leading component.
    assert vectors[0, 0] > 0.0 and vectors[0, 1] > 0.0


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [2, 3])
def test_symmetric_eigenpairs_random(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    matrix = a + a.T
    values, vectors = symmetric_eigenpairs(matrix)
    assert np.all(np.diff(np.abs(values)) <= 1e-12)
    assert_allclose(vectors.T @ vectors, np.eye(dim), atol=1e-12)
    for i in range(dim):
        assert_allclose(
            matrix @ vectors[:, i], values[i] * vectors[:, i], atol=1e-10
        )
    reference = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    assert_allclose(np.abs(values), reference, atol=1e-11)


def test_symmetric_eigenpairs_rejects_bad_shape():
    with pytest.raises(ValueError):
        symmetric_eigenpairs(np.eye(4))


def test_sign_convention_flips_negated_vectors():
    matrix = np.diag([5.0, 1.0])
    _, vectors = symmetric_eigenpairs(matrix)
    assert_allclose(vectors[:, 0], [1.0, 0.0])
    assert_allclose(vectors[:, 1], [0.0, 1.0])


# Selection truth table ------------------------------------------------------

V1 = np.array([1.0, 0.0])
W1 = np.array([0.0, 1.0])
OTHER = np.array([0.0, 1.0])
OTHER2 = np.array([1.0, 0.0])


def _vecs(first, second):
    return np.stack([first, second], axis=1)


TABLE = [
    # (lam, mu, expected) with gap factor 2
    ((10.0, 1.0), (4.0, 1.0), V1),                      # both concentrated, Re dominant
    ((4.0, 1.0), (10.0, 1.0), W1),                      # both concentrated, Im dominant
    ((4.0, 1.0), (5.0, 1.0), (V1 + W1) / math.sqrt(2)), # comparable: bisector
    ((10.0, 1.0), (1.0, 0.9), V1),                      # only Re concentrated + dominant
    ((4.0, 1.0), (3.0, 2.9), None),                     # Re concentrated, not dominant
    ((1.0, 0.9), (10.0, 1.0), W1),                      # only Im concentrated + dominant
    ((6.0, 5.9), (8.0, 1.0), None),                     # Im concentrated, not dominant
    ((1.0, 0.9), (1.0, 0.9), None),                     # nothing concentrated
    ((10.0, 9.0), (1.0, 0.9), None),                    # Re dominant, not concentrated
    ((1.0, 0.9), (10.0, 9.0), None),                    # Im dominant, not concentrated
    ((10.0, 9.0), (4.0, 1.0), None),                    # Re dominant, only Im concentrated
]


@pytest.mark.parametrize("lam,mu,expected", TABLE)
def test_potential_direction_truth_table(lam, mu, expected):
    result = potential_direction(
        np.array(lam), _vecs(V1, OTHER), np.array(mu), _vecs(W1, OTHER2)
    )
    if expected is None:
        assert result is None
    else:
        assert_allclose(result, expected, atol=1e-14)


def test_potential_direction_antiparallel_sum_is_none():
    # Comparable strengths but opposite axes cancel; no usable direction.
    result = potential_direction(
        np.array([4.0, 1.0]),
        _vecs(V1, OTHER),
        np.array([5.0, 1.0]),
        _vecs(-V1, OTHER),
    )
    assert result is None


def test_potential_direction_custom_gap():
    lam, mu = np.array([3.0, 1.0]), np.array([1.0, 0.9])
    vecs = _vecs(V1, OTHER)
    mvecs = _vecs(W1, OTHER2)
    assert potential_direction(lam, vecs, mu, mvecs, gap=4.0) is None
    assert_allclose(potential_direction(lam, vecs, mu, mvecs, gap=1.5), V1)


# Hessians from the discrete solution ---------------------------------------

def test_hessian_eigenpairs_single_wave():
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    solution = _single_wave_solution(mesh, index=1, amplitude=1.0)
    d = canonical_directions(7, 2)[1]
    h_re, h_im = centroid_hessians(solution, element)
    lam, vecs_re = symmetric_eigenpairs(h_re)
    mu, vecs_im = symmetric_eigenpairs(h_im)
    # H(u) = -k^2 d d^T for a unit-amplitude wave with zero phase at the
    # centroid, so the real part carries everything.
    assert lam[0] == pytest.approx(-K**2, rel=1e-12)
    assert abs(lam[1]) <= 1e-9
    assert np.abs(mu).max() <= 1e-9
    assert_allclose(np.abs(vecs_re[:, 0] @ d), 1.0, atol=1e-12)


def test_hessian_eigenpairs_complex_amplitude():
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    amplitude = 2.0 * np.exp(1j * np.pi / 3.0)
    solution = _single_wave_solution(mesh, index=2, amplitude=amplitude)
    d = canonical_directions(7, 2)[2]
    h_re, h_im = centroid_hessians(solution, element)
    lam, vecs_re = symmetric_eigenpairs(h_re)
    mu, vecs_im = symmetric_eigenpairs(h_im)
    assert lam[0] == pytest.approx(-K**2 * amplitude.real, rel=1e-12)
    assert mu[0] == pytest.approx(-K**2 * amplitude.imag, rel=1e-12)
    assert_allclose(np.abs(vecs_re[:, 0] @ d), 1.0, atol=1e-12)
    assert_allclose(np.abs(vecs_im[:, 0] @ d), 1.0, atol=1e-12)


# Orientation ----------------------------------------------------------------

@pytest.mark.parametrize("amplitude", [1.0, 3.0, 0.2, 0.01 * np.exp(1j * np.pi / 3)])
def test_orientation_keeps_forward_axis(amplitude):
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    solution = _single_wave_solution(mesh, index=1, amplitude=amplitude)
    d = canonical_directions(7, 2)[1]
    assert_allclose(orient_direction(solution, element, d), d)
    assert_allclose(orient_direction(solution, element, -d), d)


@pytest.mark.parametrize("a,b,expected_sign", [
    (1.0, 0.9, 1.0),
    (0.9j, 1.0, -1.0),
    (0.3 - 0.2j, 0.1 + 0.05j, 1.0),
    (0.01, 0.02, -1.0),
])
def test_orientation_follows_the_larger_of_two_opposite_waves(a, b, expected_sign):
    # u = A exp(i k d.(x - x_K)) + B exp(-i k d.(x - x_K)): the trace is
    # 1 + (A - B)/(A + B), whose real part exceeds 1 exactly when
    # Re((A - B) conj(A + B)) = |A|^2 - |B|^2 > 0.
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    d = np.array([0.6, 0.8])
    element.directions_override = np.stack([d, -d])
    coeffs = {element.id: np.array([a, b], dtype=complex)}
    solution = DiscreteSolution(mesh=mesh, coefficients=coeffs)
    assert_allclose(orient_direction(solution, element, d), expected_sign * d)
    assert_allclose(orient_direction(solution, element, -d), expected_sign * d)


def test_orientation_zero_field_keeps_axis():
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    coeffs = {element.id: np.zeros(7, dtype=complex)}
    solution = DiscreteSolution(mesh=mesh, coefficients=coeffs)
    axis = np.array([0.0, 1.0])
    assert_allclose(orient_direction(solution, element, axis), axis)


def test_element_direction_end_to_end():
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    solution = _single_wave_solution(mesh, index=1, amplitude=1.5)
    d = canonical_directions(7, 2)[1]
    assert_allclose(element_direction(solution, element), d, atol=1e-9)


def test_element_direction_none_for_isotropic_field():
    mesh = _mesh(n=1, q0=3)
    (element,) = mesh.elements.values()
    # Superpose many fan waves with equal weight: no dominant curvature axis.
    coeffs = {element.id: np.full(7, 1.0 + 0.0j)}
    solution = DiscreteSolution(mesh=mesh, coefficients=coeffs)
    assert element_direction(solution, element) is None


# Policy plumbing ------------------------------------------------------------

def test_policy_names_and_aliases():
    assert POLICIES == ("none", "marked-p", "marked-all", "all")
    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=1)
    for name in ("marked_p", "marked-p-only", "ALL", "all-elements", "everything"):
        with pytest.raises(ValueError, match="unknown directional policy"):
            apply_directional_adaptivity(mesh, solution, name)


def test_apply_policy_none_changes_nothing():
    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=1)
    before = {eid: el.frame for eid, el in mesh.elements.items()}
    updated = apply_directional_adaptivity(mesh, solution, "none",
                                           h_marked=[0], p_marked=[1])
    assert updated == {}
    assert {eid: el.frame for eid, el in mesh.elements.items()} == before


def test_apply_policy_target_sets():
    d = canonical_directions(7, 2)[1]

    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=1)
    updated = apply_directional_adaptivity(mesh, solution, "marked-p",
                                           h_marked=[0], p_marked=[2])
    assert sorted(updated) == [2]
    assert_allclose(element_directions(mesh.elements[2])[0], d, atol=1e-12)
    assert element_directions(mesh.elements[0])[0].tolist() == [1.0, 0.0]

    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=1)
    updated = apply_directional_adaptivity(mesh, solution, "marked-all",
                                           h_marked=[0], p_marked=[2])
    assert sorted(updated) == [0, 2]

    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=1)
    updated = apply_directional_adaptivity(mesh, solution, "all")
    assert sorted(updated) == [0, 1, 2, 3]
    for el in mesh.elements.values():
        assert_allclose(element_directions(el)[0], d, atol=1e-12)


def test_apply_skips_elements_without_direction():
    mesh = _mesh(n=2, q0=3)
    coeffs = {eid: np.full(7, 1.0 + 0.0j) for eid in mesh.elements}
    coeffs[3] = np.zeros(7, dtype=complex)
    coeffs[3][1] = 1.0
    solution = DiscreteSolution(mesh=mesh, coefficients=coeffs)
    updated = apply_directional_adaptivity(mesh, solution, "all")
    assert sorted(updated) == [3]
    assert element_directions(mesh.elements[0])[0].tolist() == [1.0, 0.0]


def test_apply_is_idempotent_for_fixed_field():
    # Coefficients are relative to the element fan, so after re-framing
    # the same physical wave sits on fan index 0; a second pass with the
    # re-expressed field must leave the frames unchanged.
    mesh = _mesh(n=2, q0=3)
    solution = _single_wave_solution(mesh, index=2, amplitude=1.0 - 0.5j)
    first = apply_directional_adaptivity(mesh, solution, "all")
    firsts = {eid: element_directions(mesh.elements[eid])[0] for eid in first}
    solution = _single_wave_solution(mesh, index=0, amplitude=1.0 - 0.5j)
    second = apply_directional_adaptivity(mesh, solution, "all")
    for eid in second:
        assert_allclose(element_directions(mesh.elements[eid])[0], firsts[eid], atol=1e-12)


def test_apply_3d_frame_orientation():
    mesh = _mesh(n=1, q0=2, kind="unit_cube")
    (element,) = mesh.elements.values()
    d = canonical_directions(9, 3)[4]
    coeffs = {element.id: np.zeros(9, dtype=complex)}
    coeffs[element.id][4] = 2.0
    solution = DiscreteSolution(mesh=mesh, coefficients=coeffs)
    updated = apply_directional_adaptivity(mesh, solution, "all")
    assert list(updated) == [element.id]
    assert_allclose(element_directions(element)[0], d, atol=1e-9)
