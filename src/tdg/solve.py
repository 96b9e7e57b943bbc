"""Direct solution of the assembled system with a condition estimate.

Every system is factorized by SuperLU on its CSC matrix, with scipy's
default COLAMD column order and partial-pivoting threshold.  The 1-norm
condition number is estimated with a deterministic Hager-style power
iteration on the factorized inverse; no randomness is involved, so
repeated runs give identical numbers.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

# Read only by the benchmark tracer, which labels solves below it dense.
DENSE_LIMIT = 0


class SingularSystemError(Exception):
    """The system matrix factorization hit an exactly zero pivot."""


@dataclass
class SolveReport:
    coefficients: np.ndarray
    condition_estimate: float
    residual: float


def _inverse_one_norm_estimate(solve_op, adjoint_op, n):
    """Hager/Higham estimate of ||A^{-1}||_1 from solve callbacks."""
    x = np.full(n, 1.0 / n, dtype=complex)
    best = 0.0
    for _ in range(5):
        y = solve_op(x)
        gamma = float(np.sum(np.abs(y)))
        if gamma <= best * (1.0 + 1e-12):
            break
        best = gamma
        mags = np.abs(y)
        xi = np.where(mags == 0.0, 1.0 + 0.0j, y / np.where(mags == 0.0, 1.0, mags))
        z = adjoint_op(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.real(np.vdot(z, x)) * (1.0 + 1e-12):
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    # Higham's extra probe guards against adversarial underestimates.
    i = np.arange(n)
    probe = ((-1.0) ** i) * (1.0 + i / max(n - 1, 1))
    y = solve_op(probe.astype(complex))
    best = max(best, 2.0 * float(np.sum(np.abs(y))) / (3.0 * n))
    return best


def solve(system):
    """LU-solve the global system; returns coefficients, cond estimate, residual."""
    b = system.rhs
    a = system.to_sparse().tocsc()
    try:
        factor = spla.splu(a)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    x = factor.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solution contains non-finite entries")

    norm_a = float(np.max(np.abs(a).sum(axis=0)))
    cond = norm_a * _inverse_one_norm_estimate(
        factor.solve, lambda v: factor.solve(v, trans="H"), system.dim
    )
    res = float(np.linalg.norm(a @ x - b) / max(np.linalg.norm(b), 1.0))
    return SolveReport(coefficients=x, condition_estimate=cond, residual=res)
