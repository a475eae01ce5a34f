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
    ToleranceError,
    fit_growth_exponent,
    grand_norm,
    lp_norm,
    parse_psi_spec,
    v_functional,
)
from glpot import grand
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
        psi = PsiFunction(1.1, 1.9, lambda p: lp_norm(g0, p), "own-norm")
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
            assert math.exp(ev.log_qnorm(q)) == pytest.approx(want, rel=5e-3)

    def test_narrow_indicator_norm_against_closed_form(self):
        # indicator(1, 1.1) is narrower than 1/8 of its inner end; its table holds points in the piece and at
        # its ends, where the kernel-end width check read nan and failed the whole call
        ev = PotentialNormEvaluator(TestFunction.indicator(1.0, 1.1), KernelSpec.riesz(0.5))

        def u(x: float) -> float:
            a, b = math.sqrt(abs(x - 1.0)), math.sqrt(abs(x - 1.1))
            return 2.0 * (a + b if 1.0 < x < 1.1 else abs(a - b))

        q = 4.0
        body, _ = sp_quad(lambda x: u(x) ** q, -50.0, 50.0, points=(1.0, 1.1), limit=400)
        # |u| ~ 0.1 |x|^(-1/2) far out
        tail = 2.0 * 0.1**q * 50.0 ** (1.0 - q / 2.0) / (q / 2.0 - 1.0)
        assert math.exp(ev.log_qnorm(q)) == pytest.approx((body + tail) ** (1.0 / q), rel=5e-3)

    def test_qnorm_consistent_across_construction(self):
        f = TestFunction.g_delta(0.0)
        a = PotentialNormEvaluator(f, KernelSpec.riesz(0.5)).log_qnorm(2.5)
        b = PotentialNormEvaluator(f, KernelSpec.riesz(0.5)).log_qnorm(2.5)
        assert a == b

    def test_rejects_bad_q(self):
        ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
        with pytest.raises(DomainError):
            ev.log_qnorm(0.5)

    def test_divergent_qnorm_detected(self):
        # at q = 1/(1-alpha) the potential's tail x^(alpha-1) ln x is not in L_q
        ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
        with pytest.raises(DivergenceError):
            ev.log_qnorm(2.0)

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


# ---------------------------------------------------------------------------
# chunked tables against a loop that adds one doubling per scaled call
# ---------------------------------------------------------------------------


class DoublingReference(PotentialNormEvaluator):
    """Near and far tables built one doubling per scaled call, inner tables one call each.

    Its stop rule, range cap and messages are PotentialNormEvaluator's own; it
    keeps each table as a (coordinates, ln u) pair in ``_near`` / ``_far``.
    """

    def _reference_extend(self, side, near, target):
        tables = self._near if near else self._far
        coords, vals = tables.get(side, (np.empty(0), np.empty(0)))
        new = []
        last, c = (coords[-1], coords[-1] * self.ratio) if len(coords) else (0.0, 1.0 if near else self.t0)
        while last < target:
            new.append(c)
            last, c = c, c * self.ratio
        evaluate = grand.log_potential_near if near else grand.log_potential_far
        new_vals = evaluate(self.f, self.kernel, np.array(new), side)
        tables[side] = (np.concatenate([coords, new]), np.concatenate([vals, new_vals]))

    def _grown_log_integral(self, side, q, near, stride=1):
        tables = self._near if near else self._far
        if side not in tables:
            self._reference_extend(side, near, 40.0 if near else self.t0 + 30.0)
        while True:
            coords, vals = tables[side]
            g = q * vals + (-coords if near else coords)
            g_max = g.max()
            if g_max == -math.inf:
                return -math.inf
            if g[-1] <= g_max - 46.0 and g[-1] <= g[-2] <= g[-3]:
                break
            if coords[-1] >= 5.0e4:
                if g[-1] >= g_max - 1.0:
                    raise DivergenceError(f"q-norm of the potential of {self.f.label} appears divergent at q={q:.17g}")
                raise ToleranceError(f"potential table for {self.f.label} exceeded its range cap", achieved=math.inf)
            self._reference_extend(side, near, coords[-1] * 2.0)
        return grand._strided_log_integral(coords, g, stride)

    def _log_qnorm_power(self, q, stride=1):
        total = -math.inf
        for side in (1.0, -1.0):
            if side not in self._inner:
                xs = self._inner_coords()
                self._inner[side] = (xs, grand.log_potential_far(self.f, self.kernel, np.log(xs), side))
            total = np.logaddexp(total, self._grown_log_integral(side, q, near=True, stride=stride))
            total = np.logaddexp(total, self._inner_log_integral(side, q, stride=stride))
            total = np.logaddexp(total, self._grown_log_integral(side, q, near=False, stride=stride))
        return total


def _assert_same_tables(ev, ref):
    """Every table the reference built is, bit for bit, the grown prefix of ev's."""
    for mine, theirs in ((ev._near, ref._near), (ev._far, ref._far)):
        assert mine.keys() == theirs.keys()
        for side, (coords, vals) in theirs.items():
            n = mine[side].lengths[mine[side].grown]
            assert np.array_equal(mine[side].coords[:n], coords)
            assert np.array_equal(mine[side].vals[:n], vals)
    assert ev._inner.keys() == ref._inner.keys()
    for side, (xs, vals) in ref._inner.items():
        assert np.array_equal(ev._inner[side][0], xs) and np.array_equal(ev._inner[side][1], vals)


def _outcome(fn):
    try:
        return fn()
    except (DivergenceError, ToleranceError) as exc:
        return type(exc), str(exc)


RIESZ_HALF = KernelSpec.riesz(0.5)
TABLE_QS = (2.05, 2.5, 5.0, 40.0)


class TestChunkedTables:
    @pytest.mark.parametrize(
        "f", [TestFunction.g_delta(0.0), TestFunction.f_delta(0.5, 1.0), TestFunction.h_delta(0.5, 0.0)], ids=str
    )
    @pytest.mark.parametrize("qs", [TABLE_QS, TABLE_QS[::-1]], ids=["ascending", "descending"])
    def test_log_qnorm_matches_the_doubling_loop(self, f, qs):
        ev, ref = PotentialNormEvaluator(f, RIESZ_HALF), DoublingReference(f, RIESZ_HALF)
        for q in qs:
            assert ev.log_qnorm(q) == ref.log_qnorm(q)
            _assert_same_tables(ev, ref)

    def test_restricted_norm_matches_the_doubling_loop(self):
        f, kernel = TestFunction.f_zero(0.5, 1.0), KernelSpec.truncated(0.5, radius=1.0)
        ev, ref = PotentialNormEvaluator(f, kernel), DoublingReference(f, kernel)
        for r in (4.0, 64.0, 512.0, 8.0):
            assert ev.restricted_log_qnorm(r, 1.0) == ref.restricted_log_qnorm(r, 1.0)
            _assert_same_tables(ev, ref)

    def test_refined_evaluator_matches_the_doubling_loop(self):
        f = TestFunction.f_delta(0.5, 1.0)
        ev, ref = PotentialNormEvaluator(f, RIESZ_HALF), DoublingReference(f, RIESZ_HALF)
        for q in (3.0, 12.0):
            assert ev.log_qnorm(q) == ref.log_qnorm(q)
        ev._refine()
        ref._refine()
        for q in (12.0, 3.0):
            assert ev.log_qnorm(q) == ref.log_qnorm(q)
            _assert_same_tables(ev, ref)

    @pytest.mark.parametrize(
        "offset,error,message",
        [
            (1e-4, ToleranceError, "exceeded its range cap"),
            (1e-5, DivergenceError, f"q={sobolev_q(1.0 + 1e-5, PotentialParams(1, 0.5)):.17g}$"),
        ],
    )
    def test_cap_paths_match_the_doubling_loop(self, offset, error, message):
        f = TestFunction.g_delta(0.0)
        ev, ref = PotentialNormEvaluator(f, RIESZ_HALF), DoublingReference(f, RIESZ_HALF)
        with pytest.raises(error, match=message):
            v_functional(f, 1.0 + offset, 0.5, evaluator=ev)
        assert _outcome(lambda: v_functional(f, 1.0 + offset, 0.5, evaluator=ev)) == _outcome(
            lambda: v_functional(f, 1.0 + offset, 0.5, evaluator=ref)
        )
        _assert_same_tables(ev, ref)


class TestScaledCallCount:
    """A return to one scaled call per table doubling must fail these (22 and 16 calls that way)."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        for name in ("log_potential_near", "log_potential_far"):
            original = getattr(grand, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(grand, name, counted)
        return calls

    def test_tail_family_toward_p_one(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        f = TestFunction.g_delta(0.0)
        ev = PotentialNormEvaluator(f, RIESZ_HALF)
        for p in (1.1, 1.03, 1.01):
            v_functional(f, p, 0.5, evaluator=ev)
        assert len(calls) <= 8

    def test_origin_family_toward_the_upper_end(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        f = TestFunction.f_delta(0.5, 1.0)
        ev = PotentialNormEvaluator(f, RIESZ_HALF)
        for p in (1.9, 1.97, 1.99):
            v_functional(f, p, 0.5, evaluator=ev)
        assert len(calls) <= 6
