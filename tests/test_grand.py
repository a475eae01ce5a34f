import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as sp_quad

from glpot import (
    DivergenceError,
    DomainError,
    KernelSpec,
    PotentialNormEvaluator,
    PsiFunction,
    QuadratureSpec,
    TestFunction,
    fit_growth_exponent,
    grand_norm,
    lp_norm,
    parse_psi_spec,
    v_functional,
)
from glpot.exponents import PotentialParams, sobolev_q


class TestFitGrowthExponent:
    def test_exact_power(self):
        xs = [1.0, 2.0, 5.0, 11.0]
        fit = fit_growth_exponent(xs, [x**1.5 for x in xs])
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_intercept(self):
        xs = [1.0, 3.0, 9.0]
        fit = fit_growth_exponent(xs, [7.0 * x**2 for x in xs])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_noise_robustness(self):
        rng = np.random.default_rng(17)
        xs = np.geomspace(1.0, 100.0, 20)
        ys = xs**1.5 * (1.0 + 0.01 * (2.0 * rng.random(20) - 1.0))
        fit = fit_growth_exponent(xs, ys)
        assert fit.slope == pytest.approx(1.5, abs=0.02)
        assert fit.max_residual > 0.0

    def test_degenerate(self):
        with pytest.raises(DomainError):
            fit_growth_exponent([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            fit_growth_exponent([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


class TestGrandNorm:
    def test_self_normalised_weight(self):
        g0 = TestFunction.g_delta(0.0)
        psi = PsiFunction.from_callable(1.1, 1.9, lambda p: lp_norm(g0, p), "own-norm")
        report = grand_norm(g0, psi)
        assert report.value == pytest.approx(1.0, rel=1e-12)
        assert not report.left_unbounded_suspected
        assert not report.right_unbounded_suspected

    def test_homogeneity(self):
        g0 = TestFunction.g_delta(0.0)
        psi = PsiFunction.constant(1.2, 1.8)
        a = grand_norm(g0.scaled(4.0), psi).value
        b = grand_norm(g0, psi).value
        assert a == pytest.approx(4.0 * b, rel=1e-8)

    def test_narrow_window_recovers_fixed_exponent_norm(self):
        # constant weight on (r-eps, r+eps): the sup approaches |f|_r from
        # above monotonically as the window shrinks
        g0 = TestFunction.g_delta(0.0)
        r = 1.5
        target = lp_norm(g0, r)
        values = []
        for eps in (0.1, 0.01):
            psi = PsiFunction.constant(r - eps, r + eps)
            values.append(grand_norm(g0, psi).value)
        assert values[0] >= values[1] >= target * (1.0 - 1e-9)
        assert abs(values[1] - target) < abs(values[0] - target)

    def test_sup_dominates_sampled_ratios(self):
        g1 = TestFunction.g_delta(1.0)
        psi = PsiFunction.constant(1.3, 1.7, 2.0)
        report = grand_norm(g1, psi)
        rng = np.random.default_rng(21)
        for p in 1.3 + 0.4 * rng.random(50):
            assert report.value >= lp_norm(g1, float(p)) / psi(float(p)) - 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_infinite_upper_interval(self):
        # probes p up to ~1e9, where single panels legitimately hit roundoff;
        # |g_0|_p / 1 tends to 1/e as p grows and the sup sits at the left end
        g0 = TestFunction.g_delta(0.0)
        psi = PsiFunction.constant(1.0, math.inf)
        report = grand_norm(g0, psi)
        assert report.argmax_p < 1.1
        assert report.left_unbounded_suspected  # |g|_p blows up as p -> 1+
        assert not report.right_unbounded_suspected

    def test_divergent_points_excluded_and_flagged(self):
        # weight interval reaching past the integrability range: the sup is
        # still climbing at the right refinement depth and divergent p's are
        # recorded rather than evaluated
        f = TestFunction.f_delta(0.5, 0.0)
        psi = PsiFunction.constant(1.0, 3.0)
        report = grand_norm(f, psi)
        assert report.divergent_points
        assert all(p >= 2.0 for p in report.divergent_points)
        assert report.right_unbounded_suspected
        assert math.isfinite(report.value)

    def test_bounded_pair_is_not_flagged(self):
        # its deepest right points, 2^-29 and 2^-30 below p = 2, once missed the
        # tolerance, and an unreachable last point set the flag
        f = TestFunction.f_delta(0.5, 1.0)
        report = grand_norm(f, parse_psi_spec("power:a=1,b=2,beta=0,gamma=1.5"))
        assert not (report.left_unbounded_suspected or report.right_unbounded_suspected)
        assert report.inaccurate_points == () and report.divergent_points == ()
        assert 2.0 - 2.0**-30 in report.grid

    def test_inaccurate_points_excluded_and_listed(self, far_rows_unresolved):
        # the points whose rows are unresolved are listed and skipped instead of
        # aborting the whole report
        g1 = TestFunction.g_delta(1.0)
        psi = parse_psi_spec("power:a=1,b=2,beta=1,gamma=1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = grand_norm(g1, psi)
        assert not caught
        assert report.inaccurate_points
        assert all(0.0 < p - 1.0 < 1e-8 for p in report.inaccurate_points)
        assert not set(report.inaccurate_points) & set(report.divergent_points)
        assert report.argmax_p not in report.inaccurate_points
        assert math.isfinite(report.value)
        assert report.value == lp_norm(g1, report.argmax_p) / psi(report.argmax_p)
        # the deepest left point is unreachable, so the left end stays suspect
        assert report.left_unbounded_suspected


class TestPotentialNormEvaluator:
    def test_indicator_norm_against_closed_form(self):
        # the potential of the indicator has an elementary closed form, so
        # |u|_q can be computed by direct quadrature as an independent oracle
        ind = TestFunction.indicator(0.0, 1.0)
        ev = PotentialNormEvaluator(ind, KernelSpec.riesz(0.5))

        def u(x: float) -> float:
            if x < 0.0:
                return 2.0 * (math.sqrt(1.0 - x) - math.sqrt(-x))
            if x <= 1.0:
                return 2.0 * (math.sqrt(x) + math.sqrt(1.0 - x))
            return 2.0 * (math.sqrt(x) - math.sqrt(x - 1.0))

        for q in (3.0, 6.0):
            body, _ = sp_quad(lambda x: u(x) ** q, -50.0, 50.0, limit=400)
            # |u| ~ |x|^(-1/2) far out: add the analytic tail of (2*0.5)|x|^(-q/2)
            tail = 2.0 * 50.0 ** (1.0 - q / 2.0) / (q / 2.0 - 1.0)
            want = (body + tail) ** (1.0 / q)
            assert ev.qnorm(q) == pytest.approx(want, rel=5e-3)

    def test_qnorm_consistent_across_construction(self):
        f = TestFunction.g_delta(0.0)
        a = PotentialNormEvaluator(f, KernelSpec.riesz(0.5)).qnorm(2.5)
        b = PotentialNormEvaluator(f, KernelSpec.riesz(0.5)).qnorm(2.5)
        assert a == b

    def test_rejects_bad_q(self):
        ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
        with pytest.raises(DomainError):
            ev.qnorm(0.5)

    def test_divergent_qnorm_detected(self):
        # at q = 1/(1-alpha) the potential's tail x^(alpha-1) ln x is not in L_q
        ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
        with pytest.raises(DivergenceError):
            ev.qnorm(2.0)

    def test_divergence_message_prints_q_exactly(self):
        # q = 2.000004 printed with :g read "q=2", the exponent where the norm does diverge
        q = sobolev_q(1.0 + 1e-6, PotentialParams(1, 0.5))
        ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
        with pytest.raises(DivergenceError, match=f"q={format(q, '.17g')}$"):
            ev.log_qnorm(q)


class TestVFunctional:
    def test_scale_invariance(self):
        f = TestFunction.g_delta(0.0)
        a = v_functional(f.scaled(5.0), 1.4, 0.5)
        b = v_functional(f, 1.4, 0.5)
        assert a == pytest.approx(b, rel=1e-8)

    def test_tail_family_bounded_near_lower_endpoint(self):
        f = TestFunction.g_delta(0.0)
        ev = PotentialNormEvaluator(f, KernelSpec.riesz(0.5))
        vals = [v_functional(f, p, 0.5, evaluator=ev) for p in (1.1, 1.05, 1.02)]
        assert max(vals) / min(vals) <= 3.0

    def test_origin_family_bounded_near_upper_endpoint(self):
        f = TestFunction.f_delta(0.5, 0.0)
        ev = PotentialNormEvaluator(f, KernelSpec.riesz(0.5))
        vals = [v_functional(f, p, 0.5, evaluator=ev) for p in (1.8, 1.9, 1.95)]
        assert max(vals) / min(vals) <= 3.0

    def test_divergent_density_rejected(self):
        with pytest.raises(DivergenceError):
            v_functional(TestFunction.example3(0.5, 1.0), 1.5, 0.5)

    def test_other_kernel_order(self):
        # the ratio stays bounded at alpha = 0.3 as well
        alpha = 0.3
        f = TestFunction.f_delta(alpha, 0.0)
        ev = PotentialNormEvaluator(f, KernelSpec.riesz(alpha))
        vals = [v_functional(f, p, alpha, evaluator=ev) for p in (3.0, 3.2, 3.3)]
        assert max(vals) / min(vals) <= 3.0

    def test_validates_exponent(self):
        with pytest.raises(DomainError):
            v_functional(TestFunction.g_delta(0.0), 2.5, 0.5)
