"""Error indicators: exactness, component weighting, and effectivities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg import estimator
from tdg.assembly import assemble_system
from tdg.basis import eval_basis
from tdg.estimator import (
    IndicatorRecord,
    effectivities,
    global_estimate,
    indicators,
)
from tdg import quadrature
from tdg.mesh import DIRICHLET, ROBIN, DomainSpec, build_initial_mesh, refine_elements
from tdg.problems import ProblemSpec
from tdg.quadrature import facet_rule
from tdg.solve import solve

K = 20.0


def _plane_problem(boundary=None):
    domain = DomainSpec(kind="unit_square", boundary_partition=boundary or {"all": ROBIN})
    return ProblemSpec(kind="plane_wave", domain=domain, k=K, direction=(1.0, 0.0))


def _mesh(problem, n=2, q0=3):
    return build_initial_mesh(problem.domain, n, problem.wavenumber, q0)


def _element_at(mesh, centroid):
    for el in mesh.elements.values():
        if np.allclose(el.centroid, centroid):
            return el
    raise AssertionError(f"no element centred at {centroid}")


def _zero_coefficients(mesh):
    return {eid: np.zeros(el.n_waves, dtype=complex) for eid, el in mesh.elements.items()}


def _components(record):
    return (record.jump_u, record.jump_gradu, record.robin, record.dirichlet)


def test_recovered_solution_has_vanishing_indicators():
    problem = _plane_problem()
    mesh = _mesh(problem, n=4)
    system = assemble_system(mesh, problem)
    report = solve(system)
    coefficients = system.split(report.coefficients)
    records = indicators(mesh, coefficients, problem)
    assert len(records) == 16
    assert max(r.eta for r in records) <= 1e-9
    assert global_estimate(records) <= 1e-9


def test_single_wave_jump_components():
    # One element carries the exact plane wave, its neighbours are zero:
    # every facet integral then has a closed form.
    problem = _plane_problem()
    mesh = _mesh(problem, n=2, q0=3)
    coefficients = _zero_coefficients(mesh)
    el_a = _element_at(mesh, (0.25, 0.25))
    el_b = _element_at(mesh, (0.75, 0.25))
    el_b.degree = 4
    coefficients[el_b.id] = np.zeros(el_b.n_waves, dtype=complex)
    coeff = np.zeros(el_a.n_waves, dtype=complex)
    coeff[0] = np.exp(1j * K * el_a.centroid[0])
    coefficients[el_a.id] = coeff

    records = {r.element: r for r in indicators(mesh, coefficients, problem)}
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
    coefficients = _zero_coefficients(mesh)
    records = {r.element: r for r in indicators(mesh, coefficients, problem)}
    el_a = _element_at(mesh, (0.25, 0.25))
    rec = records[el_a.id]
    # Boundary trace of the unit-modulus wave over two facets of length 1/2.
    assert rec.dirichlet == pytest.approx(
        math.sqrt(0.5 * (el_a.h / 3.0) * 1.0), rel=1e-12
    )
    assert rec.robin == 0.0


def test_custom_penalty_weights_scale_components(monkeypatch):
    problem = _plane_problem()
    mesh = _mesh(problem, n=2)
    coefficients = _zero_coefficients(mesh)
    coefficients[0][0] = 1.0
    base = {r.element: r for r in indicators(mesh, coefficients, problem)}
    # The estimator binds the weights at import, so they are patched there.
    monkeypatch.setattr(estimator, "ALPHA", 2.0)
    scaled = {r.element: r for r in indicators(mesh, coefficients, problem)}
    for eid in base:
        assert scaled[eid].jump_u == pytest.approx(2.0 * base[eid].jump_u, rel=1e-13)


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
    coefficients = _zero_coefficients(mesh)
    coefficients[1][2] = 0.3 - 0.4j
    records = indicators(mesh, coefficients, problem)
    assert [r.element for r in records] == sorted(mesh.elements)
    for r in records:
        assert r.eta >= 0.0
        assert all(c >= 0.0 for c in _components(r))


# --- batched skeleton passes against a per-facet pointwise reference ---

def _reference_components(mesh, coefficients, problem):
    """Weighted (jump_u, jump_gradu, robin, dirichlet) per element id, one facet at a time."""
    raw = {eid: np.zeros(4) for eid in mesh.elements}
    facets = mesh.facets()
    for f, (side_b, tag) in enumerate(zip(facets.side_b.tolist(), facets.tag.tolist())):
        el_a = mesh.elements[facets.side_a[f]]
        sides = [el_a] if side_b < 0 else [el_a, mesh.elements[side_b]]
        rule = facet_rule(facets.lo[f], facets.hi[f], facets.axis[f],
                          max(el.k for el in sides), max(el.degree for el in sides))
        w = rule.weights
        normal = facets.normal[f]
        traces = []
        for el in sides:
            values, grads = eval_basis(el, rule.points, order=1)
            c = coefficients[el.id]
            traces.append((values @ c, (grads @ normal) @ c))
        if side_b < 0:
            ((u, gn),) = traces
            data = problem.boundary_data(tag, rule.points, normal)
            if tag == ROBIN:
                residual = data - (gn + 1j * el_a.k * u)
                raw[el_a.id][2] += w @ np.abs(residual) ** 2
            else:
                raw[el_a.id][3] += w @ np.abs(data - u) ** 2
            continue
        (u_a, gn_a), (u_b, gn_b) = traces
        for el in sides:
            raw[el.id][0] += w @ np.abs(u_a - u_b) ** 2
            raw[el.id][1] += w @ np.abs(gn_a - gn_b) ** 2
    out = {}
    for eid, (ju, jg, ro, di) in raw.items():
        el = mesh.elements[eid]
        low, high = el.h / el.degree, (el.h / el.degree) ** 3
        out[eid] = np.sqrt([estimator.ALPHA * low * ju, estimator.BETA * high * jg,
                            estimator.DELTA * high * ro, estimator.ALPHA * low * di])
    return out


def _mixed_case(kind):
    if kind == "unit_square":
        boundary, direction, n, marked = {"all": ROBIN, "xmin": DIRICHLET}, (0.6, 0.8), 4, [0, 5]
    else:
        boundary, direction, n, marked = {"all": ROBIN, "zmax": DIRICHLET}, (0.0, 0.6, 0.8), 2, [0]
    domain = DomainSpec(kind=kind, boundary_partition=boundary)
    problem = ProblemSpec(kind="plane_wave", domain=domain, k=K, direction=direction)
    mesh = refine_elements(build_initial_mesh(domain, n, problem.wavenumber, 2), marked)
    for eid, el in mesh.elements.items():
        el.degree = 1 + eid % 3
    rng = np.random.default_rng(3)
    coeffs = {eid: rng.normal(size=el.n_waves) + 1j * rng.normal(size=el.n_waves)
              for eid, el in mesh.elements.items()}
    return mesh, problem, coeffs


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_batched_indicators_match_per_facet_reference(kind):
    mesh, problem, coefficients = _mixed_case(kind)
    facets = mesh.facets()
    interior = facets.side_b >= 0
    assert any(mesh.elements[a].level != mesh.elements[b].level for a, b in
               zip(facets.side_a[interior].tolist(), facets.side_b[interior].tolist()))
    assert set(facets.tag[~interior].tolist()) == {ROBIN, DIRICHLET}
    want = _reference_components(mesh, coefficients, problem)
    records = indicators(mesh, coefficients, problem)
    assert [r.element for r in records] == sorted(want)
    for record in records:
        assert_allclose(_components(record), want[record.element], rtol=1e-12, atol=0.0)
    for column in range(4):
        assert any(want[eid][column] > 0.0 for eid in want)


@pytest.mark.parametrize("kind", ["unit_square", "unit_cube"])
def test_batch_cap_of_one_facet_changes_nothing(kind, monkeypatch):
    mesh, problem, coefficients = _mixed_case(kind)
    batches = list(quadrature.skeleton_batches(mesh))
    assert max(len(b.side_a) for b in batches) > 1
    for b in batches:  # (facets, points, waves of both sides) within the cap
        width = b.n ** (mesh.dim - 1) * (b.p_a + b.p_b)
        assert len(b.side_a) == 1 or len(b.side_a) * width <= quadrature.BATCH_VALUES
    system = assemble_system(mesh, problem)
    records = indicators(mesh, coefficients, problem)
    monkeypatch.setattr(quadrature, "BATCH_VALUES", 1)
    assert all(len(b.side_a) == 1 for b in quadrature.skeleton_batches(mesh))
    single = assemble_system(mesh, problem)
    assert sorted(single.blocks) == sorted(system.blocks)
    for key, block in system.blocks.items():
        assert np.max(np.abs(single.blocks[key] - block)) <= 1e-14 * np.max(np.abs(block))
    assert np.max(np.abs(single.rhs - system.rhs)) <= 1e-14 * np.max(np.abs(system.rhs))
    for one, many in zip(indicators(mesh, coefficients, problem), records):
        assert_allclose(_components(one), _components(many), rtol=1e-14, atol=0.0)
