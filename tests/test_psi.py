import math

import numpy as np
import pytest

from glpot import (
    DomainError,
    FeasibilityError,
    MultiIndex,
    PotentialParams,
    PowerPsiSpec,
    PsiFunction,
    SlowlyVarying,
    bessel_theta,
    check_slowly_varying,
    derivative_zeta,
    fit_growth_exponent,
    parse_psi_spec,
    power_psi,
    riesz_zeta,
    singular_bound_shape,
    singular_psi1,
    truncated_nu,
    truncated_nu_general,
    zeta_S,
)

P_HALF = PotentialParams(1, 0.5)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestSlowlyVarying:
    def test_constant(self):
        assert check_slowly_varying(SlowlyVarying.constant(), [0.5, 2.0, 10.0], 1e6) == 0.0

    def test_log_power_kappa_one(self):
        # direct evaluation: (1+ln(1+2e6))/(1+ln(1+1e6)) - 1
        S = SlowlyVarying.log_power(1.0)
        direct = (1.0 + math.log1p(2e6)) / (1.0 + math.log1p(1e6)) - 1.0
        dev = check_slowly_varying(S, [2.0], 1e6)
        assert dev == pytest.approx(direct, rel=1e-12)
        assert dev <= 0.06

    def test_acceptance_pair(self):
        S = SlowlyVarying.log_power(1.0)
        assert check_slowly_varying(S, [0.5, 2.0], 1e6) <= 0.06

    def test_deviation_shrinks_with_z(self):
        S = SlowlyVarying.log_power(2.0)
        assert check_slowly_varying(S, [2.0], 1e9) < check_slowly_varying(S, [2.0], 1e6)

    def test_not_slowly_varying(self):
        S = SlowlyVarying(lambda z: z, "z")
        assert check_slowly_varying(S, [2.0], 1e6) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            SlowlyVarying.log_power(2.5)
        with pytest.raises(DomainError):
            check_slowly_varying(SlowlyVarying.constant(), [2.0], 100.0)


class TestPowerPsi:
    def test_finite_interval_value(self):
        psi = power_psi(1.0, 2.0, 1.0, 1.0)
        assert psi(1.5) == pytest.approx(4.0, rel=1e-14)

    def test_degenerate_constant(self):
        psi = power_psi(1.0, 2.0, 0.0, 0.0)
        for p in (1.1, 1.5, 1.9):
            assert psi(p) == 1.0

    def test_infinite_interval_crossover(self):
        psi = power_psi(1.0, math.inf, 1.0, -1.0)
        assert psi.crossover == pytest.approx(GOLDEN, rel=1e-11)
        # continuity at the crossover
        h = psi.crossover
        eps = 1e-6
        assert abs(psi(h - eps) - psi(h + eps)) <= 1e-4 * psi(h + eps)
        # piecewise definition
        assert psi(1.2) == pytest.approx((0.2) ** -1.0, rel=1e-12)
        assert psi(10.0) == pytest.approx(10.0, rel=1e-12)

    def test_crossover_to_the_double(self):
        # (h - 1)^-1 = h^(1/2): h^3 - 2h^2 + h - 1 = 0, whose real root mpmath gives as 1.7548776662466927
        h = power_psi(1.0, math.inf, 1.0, -0.5).crossover
        assert abs(h - 1.7548776662466927) <= 2.0 * math.ulp(1.7548776662466927)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PowerPsiSpec(1.0, math.inf, 1.0, 1.0)  # needs gamma < 0
        with pytest.raises(DomainError):
            PowerPsiSpec(1.0, math.inf, 0.0, -1.0)  # needs beta > 0
        with pytest.raises(DomainError):
            PowerPsiSpec(1.0, 2.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            PowerPsiSpec(2.0, 1.0, 0.0, 0.0)

    def test_domain_enforced(self):
        psi = power_psi(1.0, 2.0, 1.0, 1.0)
        for bad in (1.0, 2.0, 0.5, 3.0):
            with pytest.raises(DomainError):
                psi(bad)

    def test_grid_diagnostics(self):
        psi = power_psi(1.0, 2.0, 1.0, 0.5)
        report = psi.check_on_grid()
        assert report["positive"]
        assert report["continuous"]

    def test_endpoint_limits(self):
        psi = power_psi(1.0, 2.0, 1.0, 1.0)
        lim_a, lim_b = psi.endpoint_limits
        assert lim_a == math.inf and lim_b == math.inf
        const = PsiFunction.constant(1.0, 2.0, 3.0)
        assert const.endpoint_limits == (3.0, 3.0)
        grows = power_psi(1.0, math.inf, 1.0, -1.0)
        assert grows.endpoint_limits == (math.inf, math.inf)

    def test_parse_round_trip(self):
        psi = parse_psi_spec("power:a=1,b=2,beta=1,gamma=1")
        assert psi(1.5) == pytest.approx(4.0, rel=1e-14)
        const = parse_psi_spec("const:a=1,b=inf,value=2")
        assert const(17.0) == 2.0
        with pytest.raises(DomainError):
            parse_psi_spec("power:a=1,b=2")
        with pytest.raises(DomainError):
            parse_psi_spec("mystery:a=1,b=2")


class TestRieszZeta:
    def test_constant_weight_value(self):
        zeta = riesz_zeta(PsiFunction.constant(1.0, 2.0), P_HALF)
        assert zeta(4.0) == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_domain(self):
        zeta = riesz_zeta(PsiFunction.constant(1.0, 2.0), P_HALF)
        assert zeta.a == pytest.approx(2.0)
        assert zeta.b == math.inf
        with pytest.raises(DomainError):
            zeta(2.0)
        with pytest.raises(DomainError):
            riesz_zeta(PsiFunction.constant(1.0, 3.0), P_HALF)  # weight domain too wide

    def test_power_weight_image_exponents(self):
        # output grows like (q-2)^-(beta+1/2) at the lower endpoint and
        # like q^(gamma+1/2) at infinity
        beta, gamma = 1.0, 1.0
        zeta = riesz_zeta(power_psi(1.0, 2.0, beta, gamma), P_HALF)
        eps = [1e-4, 1e-5, 1e-6]
        fit_low = fit_growth_exponent(eps, [zeta(2.0 + e) for e in eps])
        assert fit_low.slope == pytest.approx(-(beta + 0.5), abs=2e-3)
        qs = [1e4, 1e5, 1e6]
        fit_high = fit_growth_exponent(qs, [zeta(q) for q in qs])
        assert fit_high.slope == pytest.approx(gamma + 0.5, abs=2e-3)

    def test_output_is_valid_weight(self):
        zeta = riesz_zeta(power_psi(1.0, 2.0, 0.5, 0.5), P_HALF)
        report = zeta.check_on_grid()
        assert report["positive"] and report["continuous"]


class TestDerivativeZeta:
    def test_value(self):
        params = PotentialParams(2, 1.5)
        psi = PsiFunction.constant(1.0, 2.0 / 0.5)
        out = derivative_zeta(psi, params, MultiIndex((1, 0)))
        assert out(8.0) == pytest.approx(6.0**0.75, rel=1e-14)

    def test_order_zero_uses_printed_bracket(self):
        # with |xi| = 0 the bracket is [q (d-alpha)/d]^(1-alpha/d), which
        # differs from the image-weight shape: both are positive weights
        params = P_HALF
        psi = PsiFunction.constant(1.0, 2.0)
        out = derivative_zeta(psi, params, MultiIndex((0,)))
        q = 4.0
        assert out(q) == pytest.approx((q * 0.5) ** 0.5, rel=1e-14)
        assert out(q) != pytest.approx(riesz_zeta(psi, params)(q), rel=1e-6)

    def test_monotone_for_constant_weight(self):
        params = PotentialParams(2, 1.5)
        out = derivative_zeta(PsiFunction.constant(1.0, 4.0), params, MultiIndex((1, 0)))
        qs = np.linspace(out.a + 0.1, out.a + 50.0, 200)
        vals = [out(q) for q in qs]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_output_is_valid_weight(self):
        params = PotentialParams(2, 1.5)
        out = derivative_zeta(power_psi(1.0, 4.0, 0.5, 0.5), params, MultiIndex((1, 0)))
        report = out.check_on_grid()
        assert report["positive"] and report["continuous"]


class TestBesselTheta:
    def test_value(self):
        params = PotentialParams(2, 1.5)
        psi = PsiFunction.constant(2.0 * 1 / 1.5, math.inf)
        out = bessel_theta(psi, params, MultiIndex((1, 0)))
        assert out(4.0) == pytest.approx(8.0 / 6.5, rel=1e-14)

    def test_limit_at_infinity(self):
        params = PotentialParams(2, 1.5)
        psi = PsiFunction.constant(2.0 / 1.5, math.inf)
        out = bessel_theta(psi, params, MultiIndex((1, 0)))
        assert out(1e8) == pytest.approx(1.0, rel=1e-7)

    def test_matches_direct_substitution(self):
        # recompute through an independent inline formula on a 100-point grid
        params = PotentialParams(2, 1.5)
        alpha, order = 1.5, 1
        psi = power_psi(2.0 * order / alpha, math.inf, 1.0, -0.5)
        out = bessel_theta(psi, params, MultiIndex((1, 0)))
        for m in np.geomspace(3.1, 1e3, 100):
            lead = 2.0 * m * order / (2.0 * m * order - alpha)
            direct = (
                lead
                * psi(2.0 * m * order / alpha) ** (order / (2.0 * alpha))
                * psi(2.0 * m * (1.0 - order / alpha)) ** ((alpha - order) / (2.0 * alpha))
            )
            assert out(float(m)) == pytest.approx(direct, rel=1e-14)

    def test_errors(self):
        params = PotentialParams(2, 1.5)
        psi = PsiFunction.constant(2.0 / 1.5, math.inf)
        with pytest.raises(DomainError):
            bessel_theta(psi, params, MultiIndex((0, 0)))  # |xi| = 0
        with pytest.raises(DomainError):
            bessel_theta(psi, params, MultiIndex((2, 0)))  # |xi| >= alpha

    def test_output_is_valid_weight(self):
        params = PotentialParams(2, 1.5)
        psi = power_psi(2.0 / 1.5, math.inf, 1.0, -0.5)
        out = bessel_theta(psi, params, MultiIndex((1, 0)))
        report = out.check_on_grid()
        assert report["positive"] and report["continuous"]

    def test_infeasible_m_is_domain_error(self):
        # alpha = 1.2, |xi| = 1: at m just above max(2 alpha/|xi|, 1) = 2.4 the
        # second weight argument 2m(1 - 1/alpha) = m/3 is below the weight's a
        params = PotentialParams(2, 1.2)
        psi = PsiFunction.constant(2.0 / 1.2, math.inf)
        out = bessel_theta(psi, params, MultiIndex((1, 0)))
        with pytest.raises(DomainError):
            out(3.0)
        assert out(6.0) > 0.0  # feasible once m > |xi|/(alpha - |xi|) scaled


class TestSingularPsi1:
    def test_values(self):
        out = singular_psi1(PsiFunction.constant(1.0, math.inf))
        assert out(2.0) == pytest.approx(4.0, rel=1e-14)
        assert out(3.0) == pytest.approx(4.5, rel=1e-14)

    def test_ratio_is_bound_shape(self):
        psi = power_psi(1.0, 3.0, 0.5, 1.0)
        out = singular_psi1(psi)
        for p in (1.2, 1.7, 2.5):
            assert out(p) / psi(p) == pytest.approx(singular_bound_shape(p), rel=1e-14)


class TestZetaS:
    def test_plain_value(self):
        out = zeta_S(PsiFunction.constant(1.0, 2.0), P_HALF, 1.0, SlowlyVarying.constant())
        assert out(4.0) == pytest.approx(4.5**1.5, rel=1e-14)

    def test_log_family_factor(self):
        S = SlowlyVarying.log_power(1.0)
        out = zeta_S(PsiFunction.constant(1.0, 2.0), P_HALF, 1.0, S)
        assert out(4.0) == pytest.approx(4.5**1.5 * S(3.0) * S(1.0), rel=1e-14)

    def test_ratio_to_image_weight_bounded(self):
        # beta = 0, S = 1: the two weights agree up to a bounded factor
        psi = PsiFunction.constant(1.0, 2.0)
        plain = zeta_S(psi, P_HALF, 0.0, SlowlyVarying.constant())
        zeta = riesz_zeta(psi, P_HALF)
        ratios = [plain(q) / zeta(q) for q in np.geomspace(2.1, 1e3, 200)]
        assert 0.1 <= min(ratios) and max(ratios) <= 10.0
        assert max(ratios) / min(ratios) < 10.0

    def test_output_is_valid_weight(self):
        out = zeta_S(power_psi(1.0, 2.0, 0.5, 0.5), P_HALF, 1.0, SlowlyVarying.log_power(1.0))
        report = out.check_on_grid()
        assert report["positive"] and report["continuous"]


class TestTruncatedNu:
    def test_constant_weight_small_r(self):
        psi = PsiFunction.constant(1.0, 2.0)
        for r in (1.2, 1.5, 1.9):
            res = truncated_nu(psi, P_HALF, r)
            assert res.value == pytest.approx(1.0, rel=1e-9)
            assert res.argmin_p == pytest.approx(1.0, abs=1e-9)

    def test_constant_weight_feasibility_boundary(self):
        # for r > 2 only p > 2r/(r+2) keeps the induced argument inside (1, 2),
        # so the infimum is sqrt((r+2)/4) at the feasibility boundary
        psi = PsiFunction.constant(1.0, 2.0)
        for r in (4.0, 10.0, 100.0):
            res = truncated_nu(psi, P_HALF, r)
            assert res.value == pytest.approx(math.sqrt((r + 2.0) / 4.0), rel=1e-6)

    def test_growth_exponent(self):
        psi = power_psi(1.0, 2.0, 0.0, 1.0)
        rs = [10.0, 1e2, 1e3, 1e4]
        fit = fit_growth_exponent(rs, [truncated_nu(psi, P_HALF, r).value for r in rs])
        assert abs(fit.slope - 1.5) <= 0.05

    def test_upper_bound_route(self):
        # the infimum is bounded by the objective at p0 = d/(d-alpha) - 1/r,
        # which has the advertised r^(1-alpha/d)-with-shifted-argument shape
        psi = power_psi(1.0, 2.0, 0.0, 1.0)
        ratios = []
        for r in (10.0, 1e2, 1e3, 1e4):
            res = truncated_nu(psi, P_HALF, r)
            p0 = 2.0 - 1.0 / r
            pp0 = p0 / (p0 - 1.0)
            k0 = r * pp0 / (r + pp0)
            bound = (2.0 - p0) ** -0.5 * psi(k0)
            assert res.value <= bound * (1.0 + 1e-12)
            c3 = (2.0 - k0) * r
            ratios.append(res.value / (r**0.5 * psi(2.0 - c3 / r)))
        assert max(ratios) / min(ratios) <= 10.0

    def test_general_specialisation_exact(self):
        rng = np.random.default_rng(23)
        const_S = SlowlyVarying.constant()
        for _ in range(100):
            gamma = 0.1 + 2.0 * rng.random()
            r = 1.5 + 10.0 ** (3.0 * rng.random())
            psi = power_psi(1.0, 2.0, 0.0, gamma)
            a = truncated_nu(psi, P_HALF, r)
            b = truncated_nu_general(psi, P_HALF, 0.0, const_S, r)
            assert a.value == b.value
            assert a.argmin_p == b.argmin_p

    def test_general_beta_monotone_objective(self):
        psi = PsiFunction.constant(1.0, 2.0)
        res = truncated_nu_general(psi, P_HALF, 1.0, SlowlyVarying.constant(), 1.5)
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_general_beta_growth(self):
        # independent oracle: dense grid minimisation of the same objective
        gamma, beta = 1.0, 1.0
        psi = power_psi(1.0, 2.0, 0.0, gamma)
        S = SlowlyVarying.constant()
        rs = [10.0, 1e2, 1e3, 1e4]
        vals = []
        for r in rs:
            res = truncated_nu_general(psi, P_HALF, beta, S, r)
            grid = 2.0 - np.geomspace(1e-9, 1.0, 4000)

            def objective(p):
                if p == 1.0:
                    k = r
                else:
                    pp = p / (p - 1.0)
                    k = r * pp / (r + pp)
                if not (1.0 + 1e-12 < k < 2.0 - 1e-12):
                    return math.inf
                return (2.0 - p) ** (-1.0 - beta + 0.5) * psi(k)

            grid_min = min(objective(float(p)) for p in grid)
            assert res.value <= grid_min * (1.0 + 1e-9)
            assert res.value >= grid_min * (1.0 - 5e-3)
            vals.append(res.value)
        fit = fit_growth_exponent(rs, vals)
        assert abs(fit.slope - (1.0 + beta + gamma - 0.5)) <= 0.05

    def test_monotone_in_weight(self):
        small = power_psi(1.0, 2.0, 0.0, 0.5)
        large = power_psi(1.0, 2.0, 0.0, 1.0)  # pointwise >= small on (1, 2)
        for r in (5.0, 50.0, 500.0):
            assert truncated_nu(large, P_HALF, r).value >= truncated_nu(small, P_HALF, r).value

    def test_empty_feasible_set(self):
        # r = 1 drives the induced argument below every p-interval point
        with pytest.raises(FeasibilityError):
            truncated_nu(PsiFunction.constant(1.0, 2.0), P_HALF, 1.0)

    def test_preconditions(self):
        psi = PsiFunction.constant(1.0, 2.0)
        with pytest.raises(DomainError):
            truncated_nu(psi, P_HALF, 0.5)
        with pytest.raises(DomainError):
            truncated_nu_general(psi, P_HALF, -1.0, SlowlyVarying.constant(), 2.0)
