"""Bessel and Hankel functions used by the benchmark solutions.

J_nu (real order nu >= 0) and H^(1)_0, H^(1)_1 on the positive real
axis, evaluated by ``scipy.special`` (``jv``, ``hankel1``, which wrap the
AMOS routines of D. E. Amos, ACM TOMS 12, 1986).  Against mpmath at 50
digits, on 1700 points of [0.001, 75], the error is at most 1.3e-14 times
max(1, |f|) for J_{2/3} and J_{5/3} and below 7e-16 for J_0, J_1,
H^(1)_0 and H^(1)_1; the tests ask for 1e-12.

``scipy.special`` is imported on the first call, so importing the solver
does not pay for it when no problem needs a Bessel function.
"""

import numpy as np


class SpecialDomainError(ValueError):
    """Argument or order outside the supported domain."""


def bessel_j(nu, x):
    """J_nu(x) for real nu >= 0 and x >= 0."""
    if nu < 0:
        raise SpecialDomainError(f"J requires order >= 0, got {nu}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise SpecialDomainError("J requires x >= 0")
    from scipy.special import jv

    out = jv(nu, arr)
    return float(out) if arr.ndim == 0 else out


def hankel1(order, x):
    """H^(1)_order(x) = J + iY for order 0 or 1, x > 0."""
    if order not in (0, 1):
        raise SpecialDomainError(f"H1 implemented for orders 0 and 1, got {order}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise SpecialDomainError("H1 requires x > 0")
    from scipy.special import hankel1 as h1

    out = h1(order, arr)
    return complex(out) if arr.ndim == 0 else out
