"""Direct solver and deterministic condition estimation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.assembly import GlobalSystem
from tdg.solve import DENSE_LIMIT, SingularSystemError, SolveReport, solve


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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_matrix_raises():
    matrix = np.ones((3, 3))
    with pytest.raises(SingularSystemError):
        solve(_system(matrix, np.ones(3)))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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


def test_sparse_path_matches_dense():
    # Same block system solved below and above the dense cut-over.
    rng = np.random.default_rng(9)
    n = 80
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rhs = rng.normal(size=n).astype(complex)
    dense = solve(_system(matrix, rhs))

    import tdg.solve as solve_mod

    original = solve_mod.DENSE_LIMIT
    solve_mod.DENSE_LIMIT = 1
    try:
        sparse = solve(_system(matrix, rhs))
    finally:
        solve_mod.DENSE_LIMIT = original
    assert_allclose(sparse.coefficients, dense.coefficients, rtol=1e-11)
    ratio = sparse.condition_estimate / dense.condition_estimate
    assert 0.01 <= ratio <= 100.0


def test_dense_limit_constant():
    assert DENSE_LIMIT == 2000
