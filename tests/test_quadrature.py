"""Adaptive Simpson and batched Gauss-Kronrod integrators against known integrals.

Every expected number here is a hand integral: power and log antiderivatives,
nothing taken from the code under test.
"""

import math

import numpy as np
import pytest

from paralyap.quadrature import QuadratureError, adaptive_simpson, integrate_batch


def test_polynomial_is_nearly_exact():
    # Simpson is exact on cubics up to roundoff.
    val = adaptive_simpson(lambda s: s**3 - 2.0 * s, 0.0, 2.0, tol=1e-12)
    assert abs(val - (4.0 - 4.0)) < 1e-13


def test_smooth_integrand():
    val = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10)
    assert abs(val - 2.0) < 1e-9


def test_reversed_limits_flip_sign():
    fwd = adaptive_simpson(lambda s: s * s, 0.0, 1.0, tol=1e-12)
    rev = adaptive_simpson(lambda s: s * s, 1.0, 0.0, tol=1e-12)
    assert abs(fwd - 1.0 / 3.0) < 1e-11
    assert abs(fwd + rev) < 1e-14


def test_integrable_endpoint_singularity():
    # int_0^1 s^(-1/2) ds = 2; the integrand reports inf at the left end and
    # the integrator retreats a sliver inside, dropping O(1e-6) of mass.
    def f(s):
        return 1.0 / math.sqrt(s) if s > 0.0 else math.inf

    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-9)
    assert abs(val - 2.0) < 1e-5


def test_interval_straddling_zero_with_kink():
    # split_at_zero must keep the kink of |s| off the panel interiors.
    val = adaptive_simpson(abs, -1.0, 1.0, tol=1e-12)
    assert abs(val - 1.0) < 1e-11


def test_tiny_positive_edge_uses_log_substitution():
    # int_{1e-10}^{1} ds/s = 10 ln 10 spans ten decades; bisection in s cannot
    # resolve that within the depth cap, the exp substitution can.
    val = adaptive_simpson(lambda s: 1.0 / s, 1e-10, 1.0, tol=1e-10)
    assert abs(val - 10.0 * math.log(10.0)) < 1e-8


def test_tiny_negative_edge_mirrors_the_substitution():
    val = adaptive_simpson(lambda s: 1.0 / abs(s), -1.0, -1e-10, tol=1e-10)
    assert abs(val - 10.0 * math.log(10.0)) < 1e-8


def test_log_substitution_keeps_orientation():
    # Same edge case but with a signed integrand: int_{eps}^{1} s^(-1/2)/2.
    val = adaptive_simpson(lambda s: 0.5 / math.sqrt(s), 1e-12, 1.0, tol=1e-10)
    assert abs(val - (1.0 - 1e-6)) < 1e-7


def test_nonintegrable_singularity_raises():
    def f(s):
        return 1.0 / s if s != 0.0 else math.inf

    with pytest.raises(QuadratureError):
        adaptive_simpson(f, 0.0, 1.0, tol=1e-9)


def test_singular_right_endpoint_at_zero():
    def f(s):
        return 1.0 / math.sqrt(abs(s)) if s != 0.0 else math.inf

    val = adaptive_simpson(f, -1.0, 0.0, tol=1e-9)
    assert abs(val - 2.0) < 1e-5


def test_nonintegrable_right_endpoint_raises():
    def f(s):
        return 1.0 / abs(s) if s != 0.0 else math.inf

    with pytest.raises(QuadratureError):
        adaptive_simpson(f, -1.0, 0.0, tol=1e-9)


def test_random_polynomials_match_antiderivative():
    rng = np.random.default_rng(7)
    for _ in range(25):
        coef = rng.uniform(-2.0, 2.0, size=5)
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        poly = np.polynomial.Polynomial(coef)
        exact = poly.integ()(b) - poly.integ()(a)
        val = adaptive_simpson(poly, a, b, tol=1e-11)
        assert abs(val - exact) <= 1e-9 * (1.0 + abs(exact))


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (lambda s: s**3 - 2.0 * s, 0.0, 2.0, 0.0),
        (np.sin, 0.0, math.pi, 2.0),
        (lambda s: s * s, 1.0, 0.0, -1.0 / 3.0),
        (lambda s: 1.0 / np.sqrt(s), 0.0, 1.0, 2.0),
        (np.abs, -1.0, 1.0, 1.0),
        (lambda s: 1.0 / s, 1e-10, 1.0, 10.0 * math.log(10.0)),
        (lambda s: 1.0 / np.abs(s), -1.0, -1e-10, 10.0 * math.log(10.0)),
        (lambda s: 1.0 / s, 0.0, 1.0, None),
    ],
    ids=["cubic", "sin", "reversed", "sqrt-at-0", "abs-across-0",
         "log-positive", "log-negative", "1/s-at-0-diverges"],
)
def test_batch_integrator_on_hand_integrals(f, a, b, exact):
    # The batched core samples no endpoint, so the singular edges need no
    # guard in the integrand; the divergent 1/s must exhaust the depth cap.
    def integrand(idx, s):
        return f(s)

    if exact is None:
        with pytest.raises(QuadratureError) as info:
            integrate_batch(integrand, a, b, tol=1e-10)
        assert info.value.index == 0
        return
    val = integrate_batch(integrand, a, b, tol=1e-10)
    assert abs(val - exact) <= 1e-9 * (1.0 + abs(exact))
