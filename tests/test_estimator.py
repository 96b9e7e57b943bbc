"""Error indicators: exactness, component weighting, and effectivities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.assembly import PenaltyParams, assemble_system
from tdg.estimator import (
    IndicatorRecord,
    effectivities,
    global_estimate,
    indicators,
)
from tdg.mesh import DIRICHLET, ROBIN, DomainSpec, build_initial_mesh
from tdg.problems import ProblemSpec
from tdg.solution import DiscreteSolution
from tdg.solve import solve

K = 20.0


def _plane_problem(boundary=None):
    domain = DomainSpec(kind="unit_square", boundary_partition=boundary or {"all": ROBIN})
    return ProblemSpec(kind="plane_wave", domain=domain, k=K, direction=(1.0, 0.0))


def _mesh(problem, n=2, q0=3):
    return build_initial_mesh(problem.domain, n, problem.wavenumber_field(), q0)


def _element_at(mesh, centroid):
    for el in mesh.elements.values():
        if np.allclose(el.centroid, centroid):
            return el
    raise AssertionError(f"no element centred at {centroid}")


def _zero_solution(mesh):
    coeffs = {eid: np.zeros(el.n_waves, dtype=complex) for eid, el in mesh.elements.items()}
    return DiscreteSolution(mesh=mesh, coefficients=coeffs)


def test_recovered_solution_has_vanishing_indicators():
    problem = _plane_problem()
    mesh = _mesh(problem, n=4)
    system = assemble_system(mesh, problem)
    report = solve(system)
    solution = DiscreteSolution.from_vector(mesh, report.coefficients, system.dof_map)
    records = indicators(mesh, solution, problem)
    assert len(records) == 16
    assert max(r.eta for r in records) <= 1e-9
    assert global_estimate(records) <= 1e-9


def test_single_wave_jump_components():
    # One element carries the exact plane wave, its neighbours are zero:
    # every facet integral then has a closed form.
    problem = _plane_problem()
    mesh = _mesh(problem, n=2, q0=3)
    solution = _zero_solution(mesh)
    el_a = _element_at(mesh, (0.25, 0.25))
    el_b = _element_at(mesh, (0.75, 0.25))
    el_b.degree = 4
    solution.coefficients[el_b.id] = np.zeros(el_b.n_waves, dtype=complex)
    coeff = np.zeros(el_a.n_waves, dtype=complex)
    coeff[0] = np.exp(1j * K * el_a.centroid[0])
    solution.coefficients[el_a.id] = coeff

    records = {r.element: r for r in indicators(mesh, solution, problem)}
    h = el_a.h
    rec_a = records[el_a.id]
    # |u| = 1 on both interior facets of length 1/2 each.
    assert rec_a.jump_u == pytest.approx(math.sqrt(0.5 * (h / 3.0) * 1.0), rel=1e-12)
    # The normal gradient jumps only across the facet normal to the
    # propagation direction.
    assert rec_a.jump_gradu == pytest.approx(
        math.sqrt(0.5 * (h**3 / 27.0) * (K**2 * 0.5)), rel=1e-12
    )
    # The carried wave satisfies the impedance condition exactly.
    assert rec_a.robin <= 1e-12
    assert rec_a.dirichlet == 0.0
    assert rec_a.eta == pytest.approx(
        math.sqrt(rec_a.jump_u**2 + rec_a.jump_gradu**2 + rec_a.robin**2), rel=1e-12
    )

    # The shared facet contributes the same raw integrals to the other
    # side, weighted with that element's own diameter and degree.
    rec_b = records[el_b.id]
    assert rec_b.jump_u == pytest.approx(math.sqrt(0.5 * (h / 4.0) * 0.5), rel=1e-12)
    assert rec_b.jump_gradu == pytest.approx(
        math.sqrt(0.5 * (h**3 / 64.0) * (K**2 * 0.5)), rel=1e-12
    )


def test_dirichlet_mismatch_component():
    problem = _plane_problem(boundary={"all": DIRICHLET})
    mesh = _mesh(problem, n=2, q0=3)
    solution = _zero_solution(mesh)
    records = {r.element: r for r in indicators(mesh, solution, problem)}
    el_a = _element_at(mesh, (0.25, 0.25))
    rec = records[el_a.id]
    # Boundary trace of the unit-modulus wave over two facets of length 1/2.
    assert rec.dirichlet == pytest.approx(
        math.sqrt(0.5 * (el_a.h / 3.0) * 1.0), rel=1e-12
    )
    assert rec.robin == 0.0


def test_custom_penalty_weights_scale_components():
    problem = _plane_problem()
    mesh = _mesh(problem, n=2)
    solution = _zero_solution(mesh)
    solution.coefficients[0][0] = 1.0
    base = {r.element: r for r in indicators(mesh, solution, problem)}
    scaled = {
        r.element: r
        for r in indicators(
            mesh, solution, problem, params=PenaltyParams(alpha=2.0, beta=0.5, delta=0.5)
        )
    }
    for eid in base:
        assert scaled[eid].jump_u == pytest.approx(2.0 * base[eid].jump_u, rel=1e-13)


def test_predictions_are_attached():
    problem = _plane_problem()
    mesh = _mesh(problem, n=2)
    solution = _zero_solution(mesh)
    records = indicators(mesh, solution, problem, predictions={0: 0.125})
    by_id = {r.element: r for r in records}
    assert by_id[0].eta_pred == 0.125
    assert all(math.isinf(by_id[e].eta_pred) for e in by_id if e != 0)


def test_global_estimate_is_euclidean():
    records = [
        IndicatorRecord(element=0, eta=3.0, jump_u=3.0, jump_gradu=0.0, robin=0.0,
                        dirichlet=0.0),
        IndicatorRecord(element=1, eta=4.0, jump_u=0.0, jump_gradu=4.0, robin=0.0,
                        dirichlet=0.0),
    ]
    assert global_estimate(records) == pytest.approx(5.0)


def test_effectivities_from_components():
    records = [
        IndicatorRecord(element=0, eta=13.0, jump_u=3.0, jump_gradu=4.0, robin=12.0,
                        dirichlet=0.0),
        IndicatorRecord(element=1, eta=0.0, jump_u=0.0, jump_gradu=0.0, robin=0.0,
                        dirichlet=0.0),
    ]
    total, e_u, e_g, e_r = effectivities(records, 2.0)
    assert total == pytest.approx(6.5)
    assert e_u == pytest.approx(1.5)
    assert e_g == pytest.approx(2.0)
    assert e_r == pytest.approx(6.0)


def test_effectivities_zero_error_is_infinite():
    records = [
        IndicatorRecord(element=0, eta=1.0, jump_u=1.0, jump_gradu=0.0, robin=0.0,
                        dirichlet=0.0)
    ]
    values = effectivities(records, 0.0)
    assert all(math.isinf(v) for v in values)


def test_indicator_order_and_nonnegativity():
    problem = _plane_problem()
    mesh = _mesh(problem, n=2)
    solution = _zero_solution(mesh)
    solution.coefficients[1][2] = 0.3 - 0.4j
    records = indicators(mesh, solution, problem)
    assert [r.element for r in records] == sorted(mesh.elements)
    for r in records:
        assert r.eta >= 0.0
        assert all(c >= 0.0 for c in r.components)
