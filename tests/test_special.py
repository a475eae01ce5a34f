import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma
from scipy.special import gammaincc as sp_gammaincc

from glpot import DomainError, ToleranceError, special, upper_gamma
from glpot.special import log_upper_gamma


def test_unit_shape_closed_form():
    # Gamma_up(1, x) = e^-x
    for x in (0.1, 0.5, 1.0, 5.0):
        assert upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)


def test_zero_lower_limit_is_complete():
    for s in (0.5, 1.0, 2.3, 7.0):
        assert upper_gamma(s, 0.0) == pytest.approx(math.gamma(s), rel=1e-14)


def test_against_scipy_grid():
    # independent implementation cross-check over the ranges the norms use
    for s in np.linspace(0.2, 40.0, 41):
        for x in (1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 60.0):
            want = float(sp_gammaincc(s, x) * sp_gamma(s))
            if want == 0.0:
                continue
            assert upper_gamma(float(s), x) == pytest.approx(want, rel=1e-10)


def test_log_variant():
    for s, x in ((2.0, 0.5), (20.0, 3.0), (55.0, 1.0)):
        assert log_upper_gamma(s, x) == pytest.approx(math.log(upper_gamma(s, x)), rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        upper_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        upper_gamma(1.0, -1.0)


def test_log_variant_far_tail_against_mpmath():
    # past x ~ 745 the regularised Q(s, x) underflows, but its log does not
    import mpmath as mp

    with mp.workdps(30):
        for s, x in ((1.0, 1023.0), (257.0, 255.0), (257.0, 800.0), (3.5, 5000.0)):
            want = float(mp.log(mp.gammainc(s, x)))
            assert log_upper_gamma(s, x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k", [13, 15, 18, 20])
def test_log_variant_at_large_order_against_mpmath(k):
    # near x = s the series needs ~7.4 sqrt(s) terms, past a flat cap of 500 from s ~ 4600 on
    import mpmath as mp

    s = 2.0**k
    with mp.workdps(40):
        for x in (s - 2.0, s + 1.5, 1.01 * s):
            want = float(mp.log(mp.gammainc(s, x)))
            assert log_upper_gamma(s, x) == pytest.approx(want, rel=4e-16, abs=0.0)


def test_unconverged_sum_raises(monkeypatch):
    monkeypatch.setattr(special, "_max_iter", lambda s: 10)
    with pytest.raises(ToleranceError):
        log_upper_gamma(1000.0, 999.0)  # the series
    with pytest.raises(ToleranceError):
        log_upper_gamma(1000.0, 1002.0)  # the continued fraction


@pytest.mark.parametrize("s", sorted(set(np.linspace(0.2, 50.0, 50).tolist()) | {0.5, 1.0, 1.5, 2.0}))
def test_upper_gamma_against_mpmath(s):
    import mpmath as mp

    with mp.workdps(30):
        for x in (0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 49.0, 51.0, 100.0, 300.0, 700.0):
            want = float(mp.gammainc(mp.mpf(s), mp.mpf(x)))
            assert upper_gamma(s, x) == pytest.approx(want, rel=1e-12), (s, x)
