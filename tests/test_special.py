"""Bessel/Hankel evaluation against an extended-precision oracle."""

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdg.special import SpecialDomainError, bessel_j, hankel1

mpmath.mp.dps = 50

# Reference values computed with mpmath at 50 digits and frozen.
J_REFERENCE = [
    (0.0, 0.5, 0.9384698072408129),
    (2.0 / 3.0, 1.0, 0.5979499736736285),
    (2.0 / 3.0, 0.5, 0.4233107506844835),
    (5.0 / 3.0, 2.0, 0.4470630982312241),
    (1.0, 3.7, 0.05383398774546186),
]
Y_REFERENCE = [
    (0, 1.0, 0.08825696421567696),
    (1, 2.5, 0.1459181379667858),
]
H1_REFERENCE = [
    (0, 1.0, 0.7651976865579665 + 0.08825696421567696j),
    (0, 5.0, -0.1775967713143383 - 0.3085176252490338j),
    (1, 5.0, -0.3275791375914652 + 0.1478631433912268j),
]


@pytest.mark.parametrize("nu,x,expected", J_REFERENCE)
def test_bessel_j_frozen_values(nu, x, expected):
    assert bessel_j(nu, x) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("order,x,expected", Y_REFERENCE)
def test_bessel_y_frozen_values(order, x, expected):
    # Y_n = Im H^(1)_n on the positive real axis.
    assert hankel1(order, x).imag == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("order,x,expected", H1_REFERENCE)
def test_hankel1_frozen_values(order, x, expected):
    value = hankel1(order, x)
    assert value.real == pytest.approx(expected.real, abs=1e-14)
    assert value.imag == pytest.approx(expected.imag, abs=1e-14)


def _grid():
    # Small, moderate and large arguments, up to 75.
    return np.concatenate([
        np.linspace(0.05, 2.0, 9),
        np.linspace(2.5, 15.5, 14),
        np.linspace(16.5, 75.0, 16),
    ])


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0 / 3.0, 5.0 / 3.0])
def test_bessel_j_oracle_grid(nu):
    xs = _grid()
    ours = bessel_j(nu, xs)
    for x, v in zip(xs, ours):
        ref = float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(float(x))))
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("order", [0, 1])
def test_hankel1_oracle_grid(order):
    xs = _grid()
    ours = hankel1(order, xs)
    for x, v in zip(xs, ours):
        ref = mpmath.hankel1(order, mpmath.mpf(float(x)))
        ref = complex(ref)
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))


def test_wronskian_identity():
    # J0(x) Y1(x) - J1(x) Y0(x) = -2 / (pi x)
    xs = np.linspace(0.2, 40.0, 57)
    lhs = bessel_j(0.0, xs) * hankel1(1, xs).imag - bessel_j(1.0, xs) * hankel1(0, xs).imag
    assert_allclose(lhs, -2.0 / (np.pi * xs), rtol=1e-11, atol=1e-13)


def test_hankel_is_j_plus_iy():
    # Y is read as Im H^(1) everywhere, so the check left is Re H^(1) = J.
    xs = np.linspace(0.3, 30.0, 23)
    for order in (0, 1):
        assert_allclose(hankel1(order, xs).real, bessel_j(float(order), xs),
                        rtol=1e-13, atol=1e-15)


def test_vector_scalar_agreement():
    xs = np.array([0.7, 3.1, 20.0])
    vec = bessel_j(2.0 / 3.0, xs)
    for x, v in zip(xs, vec):
        assert bessel_j(2.0 / 3.0, float(x)) == v


@pytest.mark.parametrize("func,order,kind", [(hankel1, 0, complex), (hankel1, 1, complex)])
def test_vector_scalar_agreement_and_types(func, order, kind):
    xs = np.array([0.7, 3.1, 20.0])
    vec = func(order, xs)
    assert isinstance(vec, np.ndarray) and vec.shape == xs.shape
    assert vec.dtype == np.dtype(kind)
    for x, v in zip(xs, vec):
        scalar = func(order, float(x))
        assert type(scalar) is kind
        assert scalar == v


def test_importing_the_driver_does_not_load_scipy_special():
    # scipy.special is imported on the first Bessel call only, so runs whose
    # exact solution needs none (plane waves, 3D) do not pay for loading it.
    code = "import sys, tdg.driver; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_domain_errors():
    with pytest.raises(SpecialDomainError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(SpecialDomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(SpecialDomainError):
        hankel1(0, -2.0)
    with pytest.raises(SpecialDomainError):
        hankel1(3, 1.0)
