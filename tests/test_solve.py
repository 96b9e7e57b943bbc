"""Direct solver and deterministic condition estimation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.assembly import GlobalSystem
from tdg.solve import SingularSystemError, SolveReport, solve


def _system(matrix, rhs):
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    return GlobalSystem(
        blocks={(0, 0): matrix},
        rhs=np.asarray(rhs, dtype=complex),
        dof_map={0: (0, n)},
        dim=n,
    )


def test_identity_system():
    rhs = np.array([1.0 + 2j, -3.0, 0.5j, 4.0])
    report = solve(_system(np.eye(4), rhs))
    assert isinstance(report, SolveReport)
    assert_allclose(report.coefficients, rhs, rtol=1e-15)
    assert report.condition_estimate == pytest.approx(1.0, rel=1e-10)
    assert report.residual <= 1e-15


def test_diagonal_condition_estimate_is_exact():
    diag = np.array([1.0, 0.5, 1e-6, 2.0])
    report = solve(_system(np.diag(diag), np.ones(4)))
    # For a diagonal matrix the 1-norm condition number is max/min.
    assert report.condition_estimate == pytest.approx(2.0 / 1e-6, rel=1e-10)


def test_singular_matrix_raises():
    matrix = np.ones((3, 3))
    with pytest.raises(SingularSystemError):
        solve(_system(matrix, np.ones(3)))


def test_zero_row_raises():
    matrix = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(SingularSystemError):
        solve(_system(matrix, np.ones(3)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_condition_estimate_within_factor_100(seed):
    rng = np.random.default_rng(seed)
    n = 50
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    true_cond = np.linalg.cond(matrix, p=1)
    report = solve(_system(matrix, rng.normal(size=n).astype(complex)))
    est = report.condition_estimate
    assert est <= true_cond * 1.0000001
    assert est >= true_cond / 100.0


def test_solve_accuracy_random():
    rng = np.random.default_rng(11)
    n = 64
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x_true = rng.normal(size=n) + 1j * rng.normal(size=n)
    report = solve(_system(matrix, matrix @ x_true))
    assert_allclose(report.coefficients, x_true, rtol=1e-10)
    assert report.residual <= 1e-12


def test_solve_is_bitwise_deterministic():
    rng = np.random.default_rng(5)
    n = 40
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rhs = rng.normal(size=n).astype(complex)
    a = solve(_system(matrix, rhs))
    b = solve(_system(matrix, rhs))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.condition_estimate == b.condition_estimate


def test_solve_matches_dense_reference():
    rng = np.random.default_rng(9)
    n = 80
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rhs = rng.normal(size=n).astype(complex)
    report = solve(_system(matrix, rhs))
    assert_allclose(report.coefficients, np.linalg.solve(matrix, rhs), rtol=1e-11)
    true_cond = np.linalg.cond(matrix, p=1)
    assert report.condition_estimate <= true_cond * 1.0000001
    assert report.condition_estimate >= true_cond / 100.0


def _multi_block_system(rng):
    # Elements 0, 1, 2 with 3, 2 and 4 waves; 0 and 2 share no block.
    dof_map = {0: (0, 3), 1: (3, 5), 2: (5, 9)}
    keys = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
    blocks = {}
    for test_id, trial_id in keys:
        (r0, r1), (c0, c1) = dof_map[test_id], dof_map[trial_id]
        shape = (r1 - r0, c1 - c0)
        blocks[(test_id, trial_id)] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rhs = rng.normal(size=9) + 1j * rng.normal(size=9)
    return GlobalSystem(blocks=blocks, rhs=rhs, dof_map=dof_map, dim=9)


def test_multi_block_system_matches_dense_reference():
    system = _multi_block_system(np.random.default_rng(21))
    dense = np.zeros((9, 9), dtype=complex)
    for (test_id, trial_id), block in system.blocks.items():
        r0, r1 = system.dof_map[test_id]
        c0, c1 = system.dof_map[trial_id]
        dense[r0:r1, c0:c1] = block
    report = solve(system)
    assert_allclose(report.coefficients, np.linalg.solve(dense, system.rhs), rtol=1e-11)
    assert report.residual <= 1e-12


def test_element_without_blocks_raises():
    system = _multi_block_system(np.random.default_rng(21))
    for key in [key for key in system.blocks if 1 in key]:
        del system.blocks[key]
    with pytest.raises(SingularSystemError):
        solve(system)
