import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glpot import (
    DomainError,
    MultiIndex,
    PotentialParams,
    derivative_bound_shape,
    holder_conjugate,
    marcinkiewicz_theta,
    orlicz_exponent,
    riesz_bound_shape,
    singular_bound_shape,
    sobolev_p,
    sobolev_q,
    young_k,
)

P_HALF = PotentialParams(1, 0.5)
_EPS = sys.float_info.epsilon


class TestParams:
    def test_valid(self):
        p = PotentialParams(2, 1.0)
        assert p.q_lower == 2.0
        assert p.p_upper == 2.0

    @pytest.mark.parametrize("d,alpha", [(1, 0.0), (1, 1.0), (1, -0.5), (0, 0.5), (2, 2.5)])
    def test_invalid(self, d, alpha):
        with pytest.raises(DomainError):
            PotentialParams(d, alpha)

    def test_multiindex(self):
        xi = MultiIndex((1, 0, 2))
        assert xi.order == 3
        with pytest.raises(DomainError):
            MultiIndex((-1, 0))


class TestSobolevPair:
    def test_values(self):
        assert sobolev_q(4.0 / 3.0, P_HALF) == pytest.approx(4.0, abs=1e-12)
        assert sobolev_q(4.0 / 3.0, PotentialParams(2, 1.0)) == pytest.approx(4.0, abs=1e-12)
        assert sobolev_p(4.0, P_HALF) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_endpoint_blowup(self):
        # q grows without bound as p approaches the upper endpoint
        assert sobolev_q(2.0 - 1e-9, P_HALF) > 1e8

    def test_endpoint_limit_p(self):
        # p decreases to 1 as q approaches the lower endpoint
        assert sobolev_p(2.0 + 1e-9, P_HALF) == pytest.approx(1.0, abs=1e-8)

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(7)
        ps = 1.0 + 1e-6 + (1.0 - 2e-6) * rng.random(10_000)
        for p in ps:
            back = sobolev_p(sobolev_q(p, P_HALF), P_HALF)
            assert abs(back - p) <= 1e-12 * p

    def test_interval_identities(self):
        # p - 1 and d/alpha - p expressed through q
        d, alpha = 1, 0.5
        rng = np.random.default_rng(11)
        for p in 1.0 + 1e-6 + (1.0 - 2e-6) * rng.random(200):
            q = sobolev_q(p, P_HALF)
            lhs1 = p - 1.0
            rhs1 = (d - alpha) * (q - d / (d - alpha)) / (d + alpha * q)
            assert abs(lhs1 - rhs1) <= 1e-12
            lhs2 = d / alpha - p
            rhs2 = d**2 / (alpha * (d + alpha * q))
            assert abs(lhs2 - rhs2) <= 1e-12

    def test_domain_errors(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(DomainError):
                sobolev_q(bad, P_HALF)
        with pytest.raises(DomainError):
            sobolev_p(2.0, P_HALF)

    def test_endpoint_margin(self):
        # inputs within 1e-12 of an open endpoint are rejected, not clamped
        with pytest.raises(DomainError):
            sobolev_q(1.0 + 1e-13, P_HALF)
        with pytest.raises(DomainError):
            sobolev_q(2.0 - 1e-13, P_HALF)
        assert sobolev_q(1.0 + 1e-11, P_HALF) > 1.0


class TestHolderYoung:
    def test_conjugate(self):
        assert holder_conjugate(2.0) == pytest.approx(2.0, abs=1e-15)
        assert holder_conjugate(4.0 / 3.0) == pytest.approx(4.0, abs=1e-12)
        assert holder_conjugate(holder_conjugate(1.7)) == pytest.approx(1.7, rel=1e-14)
        # overflow-safe blow-up toward 1
        assert holder_conjugate(1.0 + 1e-12) > 1e11
        with pytest.raises(DomainError):
            holder_conjugate(1.0)

    def test_young_values(self):
        assert young_k(2.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert young_k(10.0, 1.5) == pytest.approx(30.0 / 13.0, rel=1e-14)
        # r = p' gives k = p'/2 when p' >= 2
        pp = holder_conjugate(4.0 / 3.0)
        assert young_k(pp, 4.0 / 3.0) == pytest.approx(pp / 2.0, rel=1e-14)

    def test_young_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            r = 1.0 + 20.0 * rng.random()
            p = 1.05 + 3.0 * rng.random()
            try:
                k = young_k(r, p)
            except DomainError:
                continue
            assert abs(1.0 + 1.0 / r - 1.0 / p - 1.0 / k) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(-9.0, 6.0).map(lambda e: 1.0 + 10.0**e))
    def test_conjugate_identity(self, p):
        assert abs(1.0 / p + 1.0 / holder_conjugate(p) - 1.0) <= 4.0 * _EPS

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.0, 6.0).map(lambda e: 10.0**e), p=st.floats(-9.0, 6.0).map(lambda e: 1.0 + 10.0**e))
    def test_young_identity(self, r, p):
        try:
            k = young_k(r, p)
        except DomainError:
            assume(False)  # the relation admits no k >= 1 here
        assert k >= 1.0 - 1e-12
        assert abs(1.0 + 1.0 / r - 1.0 / p - 1.0 / k) <= 4.0 * _EPS

    def test_young_rejects_small_k(self):
        with pytest.raises(DomainError):
            young_k(1.0, 10.0)  # k = p'/(1+p') < 1


class TestShapes:
    def test_riesz_shape_value(self):
        assert riesz_bound_shape(1.5, P_HALF) == pytest.approx(2.0, rel=1e-14)

    def test_riesz_shape_reflection(self):
        rng = np.random.default_rng(5)
        centre = (1.0 + 2.0) / 2.0
        for p in 1.0 + 1e-3 + (1.0 - 2e-3) * rng.random(300):
            mirrored = 2.0 * centre - p
            assert riesz_bound_shape(p, P_HALF) == pytest.approx(
                riesz_bound_shape(mirrored, P_HALF), rel=1e-12
            )

    def test_riesz_shape_blows_up(self):
        assert riesz_bound_shape(1.0 + 1e-10, P_HALF) > 1e4
        with pytest.raises(DomainError):
            riesz_bound_shape(1.0, P_HALF)

    def test_derivative_shape(self):
        params = PotentialParams(2, 1.5)
        xi = MultiIndex((1, 0))
        got = derivative_bound_shape(2.0, params, xi)
        # alpha(xi) = 0.5, d/alpha(xi) = 4: bracket (p-1)(4-p) = 2, exponent 0.5/2-1
        want = (1.5**-1) * (0.5**-1) * 2.0 ** (0.5 / 2.0 - 1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_derivative_shape_order_zero(self):
        params = PotentialParams(2, 1.5)
        xi0 = MultiIndex((0, 0))
        p = 1.2
        lead = 1.0 / (1.5 * 0.5)
        assert derivative_bound_shape(p, params, xi0) == pytest.approx(
            lead * riesz_bound_shape(p, params), rel=1e-14
        )

    def test_derivative_shape_errors(self):
        params = PotentialParams(2, 1.5)
        with pytest.raises(DomainError):
            derivative_bound_shape(2.0, params, MultiIndex((2, 0)))  # |xi| >= alpha
        with pytest.raises(DomainError):
            derivative_bound_shape(5.0, params, MultiIndex((1, 0)))  # p past d/alpha(xi)
        with pytest.raises(DomainError):
            derivative_bound_shape(2.0, params, MultiIndex((1,)))  # wrong length

    def test_derivative_shape_endpoint_blowup(self):
        params = PotentialParams(2, 1.5)
        assert derivative_bound_shape(4.0 - 1e-10, params, MultiIndex((1, 0))) > 1e4

    def test_singular_shape(self):
        assert singular_bound_shape(2.0) == pytest.approx(4.0, abs=1e-14)
        assert singular_bound_shape(3.0) == pytest.approx(4.5, abs=1e-14)
        # asymptotically linear in p
        assert singular_bound_shape(1e6) == pytest.approx(1e6, rel=1e-5)
        with pytest.raises(DomainError):
            singular_bound_shape(1.0)


class TestThetaOrlicz:
    def test_theta_value(self):
        theta, one_minus = marcinkiewicz_theta(4.0 / 3.0, P_HALF)
        assert theta == pytest.approx(0.5, abs=1e-14)
        assert one_minus == pytest.approx(0.5, abs=1e-14)

    def test_theta_limits(self):
        theta_lo, _ = marcinkiewicz_theta(1.0 + 1e-9, P_HALF)
        theta_hi, _ = marcinkiewicz_theta(2.0 - 1e-9, P_HALF)
        assert theta_lo < 1e-8
        assert theta_hi > 1.0 - 1e-8

    def test_theta_identity_random(self):
        rng = np.random.default_rng(13)
        for p in 1.0 + 1e-6 + (1.0 - 2e-6) * rng.random(1000):
            theta, one_minus = marcinkiewicz_theta(p, P_HALF)
            assert abs(1.0 / p - (one_minus + theta * 0.5)) <= 1e-12

    def test_orlicz(self):
        assert orlicz_exponent(0.5, P_HALF) == pytest.approx(1.0, abs=1e-14)
        assert orlicz_exponent(1.0, P_HALF) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert orlicz_exponent(1e9, P_HALF) < 1e-8
        with pytest.raises(DomainError):
            orlicz_exponent(0.0, P_HALF)
