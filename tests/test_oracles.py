"""Pointwise potentials against independent high-precision mpmath quadrature."""

import mpmath as mp
import pytest

from glpot import TestFunction, apply_kernel_report, parse_kernel_spec


def _bessel_potential_of_indicator(nu: float, x: float, lo: float, hi: float) -> float:
    """int_lo^hi |x-y|^(-nu) K_nu(|x-y|) dy, split where the integrand is singular."""
    with mp.workdps(30):
        nu_mp, x_mp = mp.mpf(nu), mp.mpf(x)
        cuts = sorted({lo, hi} | ({x} if lo < x < hi else set()))

        def integrand(y):
            z = abs(x_mp - y)
            return z**-nu_mp * mp.besselk(nu_mp, z)

        total = sum(mp.quad(integrand, [mp.mpf(a), mp.mpf(b)]) for a, b in zip(cuts[:-1], cuts[1:]))
        return float(total)


@pytest.mark.parametrize("x", [-0.5, 0.5, 2.0])
def test_bessel_potential_of_indicator(x):
    kernel = parse_kernel_spec("bessel:0.5")
    nu = (1.0 - kernel.alpha) / 2.0
    want = _bessel_potential_of_indicator(nu, x, 0.0, 1.0)
    got = apply_kernel_report(TestFunction.indicator(0.0, 1.0), x, kernel)
    actual = abs(got.value - want)
    assert actual <= 1e-8 * abs(want)
    assert actual <= got.error
