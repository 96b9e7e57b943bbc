"""Skeleton-form assembly: exact recovery, layout, and flux parameters."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from tdg.assembly import PenaltyParams, assemble_system
from tdg.basis import eval_basis, frame_from_direction
from tdg.mesh import DIRICHLET, ROBIN, DomainSpec, build_initial_mesh, refine_elements
from tdg.problems import ProblemSpec, l2_errors
from tdg.quadrature import facet_rule
from tdg.solution import DiscreteSolution
from tdg.solve import solve


def _plane_problem(domain_kind, direction, k=20.0, boundary=None):
    domain = DomainSpec(kind=domain_kind, boundary_partition=boundary or {"all": ROBIN})
    return ProblemSpec(kind="plane_wave", domain=domain, k=k, direction=direction)


def _mesh_for(problem, n, q0):
    return build_initial_mesh(problem.domain, n, problem.wavenumber, q0)


def _solve_problem(mesh, problem, params=None):
    system = assemble_system(mesh, problem, params or PenaltyParams())
    report = solve(system)
    solution = DiscreteSolution.from_vector(mesh, report.coefficients, system.dof_map)
    return solution, report, system


def _relative_error(solution, problem):
    abs_err, norm = l2_errors(solution, problem)
    return abs_err / norm


def test_penalty_defaults_are_half():
    params = PenaltyParams()
    assert (params.alpha, params.beta, params.delta) == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("n", [1, 4])
def test_recovery_2d_aligned_plane_wave(n):
    # Direction (1, 0) is the first canonical basis direction, so the
    # exact solution lies in the discrete space.
    problem = _plane_problem("unit_square", (1.0, 0.0))
    mesh = _mesh_for(problem, n, 3)
    solution, report, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-10
    assert report.residual <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_recovery_3d_aligned_plane_wave(n):
    problem = _plane_problem("unit_cube", (0.0, 0.0, 1.0))
    mesh = _mesh_for(problem, n, 2)
    solution, _, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-10


def test_recovery_with_dirichlet_boundary():
    problem = _plane_problem("unit_square", (1.0, 0.0), boundary={"all": DIRICHLET})
    mesh = _mesh_for(problem, 2, 3)
    solution, _, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-10


def test_recovery_with_mixed_boundary():
    problem = _plane_problem(
        "unit_square", (1.0, 0.0), boundary={"all": ROBIN, "xmin": DIRICHLET}
    )
    mesh = _mesh_for(problem, 2, 3)
    solution, _, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-10


def test_recovery_on_nonconforming_mesh():
    # Hanging sub-facets must integrate the same coupling as the
    # conforming skeleton for a solution inside the space.
    problem = _plane_problem("unit_square", (1.0, 0.0))
    mesh = _mesh_for(problem, 2, 3)
    mesh = refine_elements(mesh, [0, 3])
    solution, _, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-9


def test_recovery_rotated_frame_direction():
    # A wave off the canonical fan is recovered once a frame rotation
    # puts it back into the direction set.
    from tdg.basis import frame_from_direction

    direction = np.array([0.6, 0.8])
    problem = _plane_problem("unit_square", tuple(direction))
    mesh = _mesh_for(problem, 2, 3)
    canonical, _, _ = _solve_problem(mesh, problem)
    misaligned = _relative_error(canonical, problem)
    assert misaligned > 1e-6

    for el in mesh.elements.values():
        el.frame = frame_from_direction(direction)
    solution, _, _ = _solve_problem(mesh, problem)
    assert _relative_error(solution, problem) <= 1e-10


def test_system_layout_4x4():
    problem = _plane_problem("unit_square", (1.0, 0.0))
    mesh = _mesh_for(problem, 4, 3)
    system = assemble_system(mesh, problem)
    assert system.dim == 112
    assert system.rhs.shape == (112,)
    matrix = system.to_sparse()
    assert matrix.shape == (112, 112)
    spans = sorted(system.dof_map.values())
    assert spans[0][0] == 0
    assert spans[-1][1] == 112
    for (start, end), (nstart, _) in zip(spans, spans[1:]):
        assert end == nstart


def test_blocks_follow_mesh_adjacency():
    problem = _plane_problem("unit_square", (1.0, 0.0))
    mesh = _mesh_for(problem, 2, 3)
    system = assemble_system(mesh, problem)
    facets = mesh.facets()
    interior = facets.side_b >= 0
    neighbours = set(zip(facets.side_a[interior].tolist(), facets.side_b[interior].tolist()))
    for test_id, trial_id in system.blocks:
        if test_id != trial_id:
            assert (test_id, trial_id) in neighbours or (
                trial_id,
                test_id,
            ) in neighbours


def test_flux_parameters_change_system():
    problem = _plane_problem("unit_square", (1.0, 0.0))
    mesh = _mesh_for(problem, 2, 3)
    base = assemble_system(mesh, problem).to_sparse().toarray()
    heavy = (
        assemble_system(mesh, problem, PenaltyParams(alpha=1.0, beta=0.25, delta=0.5))
        .to_sparse()
        .toarray()
    )
    assert np.abs(base - heavy).max() > 1e-6


def test_assembly_is_deterministic():
    problem = _plane_problem("unit_square", (0.6, 0.8))
    mesh = _mesh_for(problem, 2, 4)
    a = assemble_system(mesh, problem).to_sparse().toarray()
    b = assemble_system(mesh, problem).to_sparse().toarray()
    assert np.array_equal(a, b)
    assert np.array_equal(
        assemble_system(mesh, problem).rhs, assemble_system(mesh, problem).rhs
    )


def _meshgrid_csr(system):
    # Reference: the per-block meshgrid flattening to_sparse replaced.
    rows, cols, data = [], [], []
    for test_id, trial_id in sorted(system.blocks):
        r0, r1 = system.dof_map[test_id]
        c0, c1 = system.dof_map[trial_id]
        rr, cc = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        data.append(system.blocks[(test_id, trial_id)].ravel())
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(system.dim, system.dim),
    )


@pytest.mark.parametrize(
    "kind, direction, n, marked",
    [("unit_square", (0.6, 0.8), 4, [0, 5]), ("unit_cube", (0.0, 0.6, 0.8), 2, [0])],
)
def test_to_sparse_equals_meshgrid_flattening(kind, direction, n, marked):
    problem = _plane_problem(kind, direction)
    mesh = refine_elements(_mesh_for(problem, n, 2), marked)
    for eid, el in mesh.elements.items():
        el.degree = 1 + eid % 3  # mixed p: off-diagonal blocks are rectangular
    system = assemble_system(mesh, problem)
    assert any(b.shape[0] != b.shape[1] for b in system.blocks.values())
    got, want = system.to_sparse(), _meshgrid_csr(system)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def _reference_system(mesh, problem, params=PenaltyParams()):
    """Blocks and rhs by Gauss quadrature, one facet at a time."""
    system = assemble_system(mesh, problem, params)  # for the dof layout only
    blocks, rhs = {}, np.zeros_like(system.rhs)
    alpha, beta, delta = params.alpha, params.beta, params.delta
    facets = mesh.facets()
    for f, (side_b, tag) in enumerate(zip(facets.side_b.tolist(), facets.tag.tolist())):
        el_a = mesh.elements[facets.side_a[f]]
        sides = [el_a] if side_b < 0 else [el_a, mesh.elements[side_b]]
        rule = facet_rule(facets.lo[f], facets.hi[f], facets.axis[f],
                          max(el.k for el in sides), max(el.degree for el in sides))
        w = rule.weights[:, None]
        traces = [(v, g @ facets.normal[f]) for v, g in
                  (eval_basis(el, rule.points, order=1) for el in sides)]
        if side_b < 0:
            ((v, g),) = traces
            data = rule.weights * problem.boundary_data(tag, rule.points, facets.normal[f])
            vc, gc = v.conj().T, g.conj().T
            if tag == ROBIN:
                ikt = 1j * el_a.k * problem.impedance_sign
                mat = (1.0 - delta) * (gc @ (w * v) + ikt * (vc @ (w * v))) - delta * (
                    (gc @ (w * g)) / ikt + vc @ (w * g))
                vec = (1.0 - delta) * (vc @ data) - (delta / ikt) * (gc @ data)
            else:
                ika = 1j * el_a.k * alpha
                mat = ika * (vc @ (w * v)) - vc @ (w * g)
                vec = ika * (vc @ data) - gc @ data
            blocks[el_a.id, el_a.id] = blocks.get((el_a.id, el_a.id), 0) + mat
            r0, r1 = system.dof_map[el_a.id]
            rhs[r0:r1] += vec
            continue
        ik = 1j * problem.facet_wavenumber(sides[0].k, sides[1].k)
        signed = [(el, v, g, s) for el, (v, g), s in zip(sides, traces, (1.0, -1.0))]
        for el_t, v_t, g_t, s_t in signed:
            for el_r, v_r, g_r, s_r in signed:
                mat = g_t.conj().T @ (0.5 * s_t * w * v_r - (beta / ik) * s_r * s_t * w * g_r)
                mat += v_t.conj().T @ (-0.5 * s_t * w * g_r + alpha * ik * s_r * s_t * w * v_r)
                key = (el_t.id, el_r.id)
                blocks[key] = blocks.get(key, 0) + mat
    return system, blocks, rhs


def _assert_matches_reference(mesh, problem, params=PenaltyParams()):
    system, blocks, rhs = _reference_system(mesh, problem, params)
    assert sorted(system.blocks) == sorted(blocks)
    for key, block in blocks.items():
        assert np.max(np.abs(system.blocks[key] - block)) <= 1e-12 * np.max(np.abs(block))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize(
    "kind, direction, n, marked",
    [("unit_square", (0.6, 0.8), 4, [0, 5]), ("unit_cube", (0.0, 0.6, 0.8), 2, [0])],
)
def test_closed_form_blocks_match_per_facet_quadrature(kind, direction, n, marked):
    boundary = {"all": ROBIN, "xmin": DIRICHLET}
    problem = _plane_problem(kind, direction, boundary=boundary)
    mesh = refine_elements(_mesh_for(problem, n, 2), marked)
    for eid, el in mesh.elements.items():
        el.degree = 1 + eid % 3
        if eid % 4 == 1:
            el.frame = frame_from_direction(np.roll(direction, 1))
    _assert_matches_reference(mesh, problem, PenaltyParams(alpha=0.7, beta=0.3, delta=0.4))


def test_closed_form_blocks_match_on_transmission_facets():
    domain = DomainSpec(kind="square2", boundary_partition={"all": DIRICHLET})
    problem = ProblemSpec(kind="transmission", domain=domain, omega=8.0, index_below=1.0,
                          index_above=1.5, incidence_deg=40.0)
    mesh = refine_elements(_mesh_for(problem, 4, 3), [5])
    facets = mesh.facets()
    assert any(mesh.elements[a].k != mesh.elements[b].k
               for a, b in zip(facets.side_a.tolist(), facets.side_b.tolist()) if b >= 0)
    _assert_matches_reference(mesh, problem)
