import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad

from glpot import (
    DivergenceError,
    DomainError,
    PsiFunction,
    QuadratureSpec,
    SlowlyVarying,
    TestFunction,
    ToleranceError,
    decreasing_rearrangement,
    distribution_function,
    fit_growth_exponent,
    grand_norm,
    lp_norm,
    lp_norm_closed_form,
    lp_norm_report,
    weak_lp_quasinorm,
)
from glpot import norms
from glpot.catalog import MonotoneBranch, Piece
from glpot.quadrature import integrate_decaying

E = math.e


def _phi_user():
    """|x|^(-1/2) on the whole line, with explicit branch annotations."""
    return TestFunction.user(
        evaluator=lambda x: abs(x) ** -0.5,
        pieces=(
            Piece("origin", -1.0, 0.0, power=0.5),
            Piece("origin", 0.0, 1.0, power=0.5),
            Piece("tail", -math.inf, -1.0, power=0.5),
            Piece("tail", 1.0, math.inf, power=0.5),
        ),
        branches=(
            MonotoneBranch(-math.inf, 0.0, increasing=True),
            MonotoneBranch(0.0, math.inf, increasing=False),
        ),
        label="abs-power-half",
    )


class TestCatalog:
    def test_point_values(self):
        g0 = TestFunction.g_delta(0.0)
        assert g0(E**2) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert g0(1.0) == 0.0
        f0 = TestFunction.f_delta(0.5, 0.0)
        assert f0(math.exp(-2.0)) == pytest.approx(math.e, rel=1e-14)
        assert f0(0.5) == 0.0

    def test_h_disjoint_supports(self):
        h = TestFunction.h_delta(0.5, 1.0)
        (lo1, hi1), (lo2, hi2) = ((piece.lo, piece.hi) for piece in h.pieces)
        assert hi1 <= lo2  # (0, 1/e) then (e, inf)
        assert h(0.1) == TestFunction.f_delta(0.5, 1.0)(0.1)
        assert h(10.0) == TestFunction.g_delta(1.0)(10.0)

    def test_parameter_errors(self):
        with pytest.raises(DomainError):
            TestFunction.g_delta(-0.5)
        with pytest.raises(DomainError):
            TestFunction.f_delta(1.5, 0.0)
        with pytest.raises(DomainError):
            TestFunction.example3(0.5, 0.2)  # gamma below alpha
        with pytest.raises(DomainError):
            TestFunction.f_zero(0.5, 0.2)
        with pytest.raises(DomainError):
            TestFunction.indicator(1.0, 1.0)

    def test_f_zero_is_origin_family(self):
        fz = TestFunction.f_zero(0.5, 1.0)
        fd = TestFunction.f_delta(0.5, 0.5)
        for x in (1e-4, 0.1, 0.3):
            assert fz(x) == fd(x)

    def test_big_r_slow_factor(self):
        from glpot import SlowlyVarying

        S = SlowlyVarying.log_power(1.0)
        r = TestFunction.big_r(0.5, 1.0, S)
        x = 0.01
        y = -math.log(x)
        assert r(x) == pytest.approx(x**-0.5 * y * S(y), rel=1e-14)
        assert r(-x) == r(x)

    def test_user_requires_hints(self):
        with pytest.raises(DomainError):
            TestFunction.user(
                evaluator=lambda x: x,
                pieces=(Piece("origin", 0.0, 1.0),),
            )

    @pytest.mark.parametrize("right", [Piece("origin", 0.0, 1.0, power=0.3), Piece("origin", 0.0, 1.0, 0.5, 1.0)])
    def test_user_origin_pieces_must_agree(self, right):
        # the singular point 0 has one (power, log_power), shared by the origin pieces on both sides
        with pytest.raises(DomainError, match="disagree at 0"):
            TestFunction.user(lambda x: abs(x) ** -0.5, (Piece("origin", -1.0, 0.0, power=0.5), right))


class TestLpNormOracles:
    def test_g0_two_norm(self):
        assert lp_norm(TestFunction.g_delta(0.0), 2.0) == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_f0_one_norm(self):
        assert lp_norm(TestFunction.f_delta(0.5, 0.0), 1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-9)

    def test_density_that_raises_is_a_tolerance_error(self):
        # |y - 1/2|^-0.3 on (0, 1), stated as bounded: the peak sample of the plain piece lands on the pole
        f = TestFunction.user(lambda y: abs(y - 0.5) ** -0.3, (Piece("plain", 0.0, 1.0),))
        with pytest.raises(ToleranceError, match=r"\|user\|_p at p = 1\.5 not resolved: the density raised ZeroDiv"):
            lp_norm_report(f, 1.5)
        with pytest.raises(ToleranceError, match=r"at p = 1\.2\d* to 1\.7\d* not resolved"):
            grand_norm(f, PsiFunction.constant(1.2, 1.8, 1.0))

    def test_closed_form_unit_cases(self):
        # Gamma_up(1, x) = e^-x makes both families elementary at delta = 0
        assert lp_norm_closed_form(TestFunction.g_delta(0.0), 2.0) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        assert lp_norm_closed_form(TestFunction.f_delta(0.5, 0.0), 1.0) == pytest.approx(
            2.0 * math.exp(-0.5), rel=1e-12
        )

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_quadrature_matches_oracle_tail_family(self, delta, p):
        f = TestFunction.g_delta(delta)
        assert lp_norm(f, p) == pytest.approx(lp_norm_closed_form(f, p), rel=1e-6)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
    def test_quadrature_matches_oracle_origin_family(self, delta, p):
        f = TestFunction.f_delta(0.5, delta)
        assert lp_norm(f, p) == pytest.approx(lp_norm_closed_form(f, p), rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 1.9])
    def test_quadrature_matches_oracle_even_family(self, p):
        f = TestFunction.big_r(0.5, 1.0)
        assert lp_norm(f, p) == pytest.approx(lp_norm_closed_form(f, p), rel=1e-6)

    def test_example3_norm(self):
        # |f|_p^p = 2 (alpha p - 1)^(-(gamma-alpha)p - 1) Gamma((gamma-alpha)p + 1) for p > 1/alpha
        f = TestFunction.example3(0.5, 1.0)
        p = 3.0
        want = (2.0 * 0.5**-2.5 * math.gamma(2.5)) ** (1.0 / 3.0)
        assert lp_norm(f, p) == pytest.approx(want, rel=1e-8)

    def test_asymptotic_complete_gamma_agreement(self):
        # near p = 1 the exact upper-incomplete form approaches the complete one
        p = 1.001
        delta = 1.0
        exact = lp_norm_closed_form(TestFunction.g_delta(delta), p) ** p
        approx = (p - 1.0) ** (-delta * p - 1.0) * math.gamma(delta * p + 1.0)
        assert exact / approx == pytest.approx(1.0, abs=0.01)

    def test_homogeneity(self):
        f = TestFunction.f_delta(0.5, 1.0)
        assert lp_norm(f.scaled(3.5), 1.5) == pytest.approx(3.5 * lp_norm(f, 1.5), rel=1e-10)
        assert lp_norm_closed_form(f.scaled(3.5), 1.5) == pytest.approx(
            3.5 * lp_norm_closed_form(f, 1.5), rel=1e-12
        )

    @pytest.mark.parametrize("delta,p", [(1.0, 256.0), (0.0, 1024.0), (2.0, 300.0)])
    def test_closed_form_large_p_against_mpmath(self, delta, p):
        # Gamma(delta p + 1, p - 1) leaves the double range here; the norm does not
        import mpmath as mp

        with mp.workdps(30):
            c = mp.mpf(p) - 1
            log_power = mp.log(mp.gammainc(delta * p + 1, c)) - (delta * p + 1) * mp.log(c)
            want = float(mp.exp(log_power / p))
        got = lp_norm_closed_form(TestFunction.g_delta(delta), p)
        assert got == pytest.approx(want, rel=1e-13)

    def test_disjoint_additivity(self):
        p = 1.4
        h = TestFunction.h_delta(0.5, 1.0)
        f = TestFunction.f_delta(0.5, 1.0)
        g = TestFunction.g_delta(1.0)
        assert lp_norm(h, p) ** p == pytest.approx(lp_norm(f, p) ** p + lp_norm(g, p) ** p, rel=1e-8)

    def test_divergence_analysis(self):
        with pytest.raises(DivergenceError):
            lp_norm(TestFunction.f_delta(0.5, 0.0), 2.0)  # alpha p = 1
        with pytest.raises(DivergenceError):
            lp_norm(TestFunction.f_delta(0.5, 0.0), 2.4)
        with pytest.raises(DivergenceError):
            lp_norm(TestFunction.g_delta(0.0), 1.0)  # tail exponent exactly 1
        with pytest.raises(DivergenceError):
            lp_norm(TestFunction.example3(0.5, 1.0), 2.0)  # needs p > 1/alpha
        with pytest.raises(DomainError):
            lp_norm(TestFunction.g_delta(0.0), 0.8)

    def test_report_and_tolerance_error(self):
        res = lp_norm_report(TestFunction.g_delta(0.0), 2.0)
        assert res.rel_error < 1e-8
        # no estimate goes below the rounding floor of a few ulps
        strict = QuadratureSpec(rel_tol=1e-17)
        with pytest.raises(ToleranceError) as err:
            lp_norm(TestFunction.g_delta(1.0), 1.5, strict)
        assert err.value.achieved > 1e-17

    @pytest.mark.parametrize(
        "f,p",
        [
            (TestFunction.g_delta(1.0), 1.0 + 2.0**-29),
            (TestFunction.f_delta(0.5, 1.0), 2.0 - 2.0**-29),
            (TestFunction.f_delta(0.25, 2.0), 4.0 - 2.0**-26),
        ],
        ids=lambda v: getattr(v, "label", repr(v)),
    )
    def test_reaches_the_ends_of_the_exponent_interval(self, f, p):
        # these once missed the tolerance: |f|^p spreads to |ln|x|| ~ 1e10 there
        assert lp_norm(f, p) == pytest.approx(lp_norm_closed_form(f, p), rel=1e-12)

    def test_tolerance_error_names_the_exact_exponent(self):
        p = 1.0 + 2.0**-29
        with pytest.raises(ToleranceError, match=r"\|_1\.0000000018626451 quadrature"):
            lp_norm(TestFunction.g_delta(1.0), p, QuadratureSpec(rel_tol=1e-17))

    @pytest.mark.parametrize("knob", [{"abs_tol": 1e-10}, {"max_depth": 10}])
    def test_the_tolerance_is_the_only_knob(self, knob):
        assert QuadratureSpec().rel_tol == 1e-8
        with pytest.raises(TypeError):
            QuadratureSpec(**knob)

    @pytest.mark.parametrize(
        "f",
        [TestFunction.g_delta(1.0), TestFunction.g_delta(2.5), TestFunction.example3(0.5, 1.0)],
        ids=lambda f: f.label,
    )
    def test_closed_form_holds_at_large_p(self, f):
        # the closed form's upper gamma has order ~ delta p here; its series once stopped short
        for k in range(1, 21):
            p = 1.0 + 2.0**k
            assert lp_norm_closed_form(f, p) == pytest.approx(lp_norm(f, p), rel=1e-13, abs=0.0)


class TestNormAsymptotics:
    def test_tail_family_slopes_match_exact_form(self):
        # fitted slope of ln|g_d|_p vs ln(p-1) against the closed-form route
        for delta in (0.0, 1.0):
            f = TestFunction.g_delta(delta)
            eps = [1e-1, 1e-2, 1e-3]
            quad_fit = fit_growth_exponent(eps, [lp_norm(f, 1.0 + e) for e in eps])
            exact_fit = fit_growth_exponent(eps, [lp_norm_closed_form(f, 1.0 + e) for e in eps])
            assert quad_fit.slope == pytest.approx(exact_fit.slope, abs=1e-6)

    def test_tail_family_slope_delta_one(self):
        f = TestFunction.g_delta(1.0)
        eps = [1e-1, 1e-2, 1e-3]
        fit = fit_growth_exponent(eps, [lp_norm(f, 1.0 + e) for e in eps])
        assert abs(fit.slope - (-2.0)) <= 0.05

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_origin_family_slopes(self, delta):
        f = TestFunction.f_delta(0.5, delta)
        offs = [1e-1, 1e-2, 1e-3]
        fit = fit_growth_exponent(offs, [lp_norm(f, 2.0 - o) for o in offs])
        assert abs(fit.slope - (-(delta + 0.5))) <= 0.05

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_even_family_moment_law(self, delta):
        # slope of ln|R|_p vs ln(1 - alpha p) within 0.1 of -(delta + alpha)
        alpha = 0.5
        f = TestFunction.big_r(alpha, delta)
        cs = [1e-2, 10.0**-2.5, 1e-3]
        norms = [lp_norm(f, (1.0 - c) / alpha) for c in cs]
        fit = fit_growth_exponent(cs, norms)
        assert abs(fit.slope - (-(delta + alpha))) <= 0.1


class TestDistribution:
    def test_indicator(self):
        f = TestFunction.indicator(0.0, 1.0)
        assert distribution_function(f, 0.5) == 1.0
        assert distribution_function(f, 1.0) == 0.0

    def test_abs_power_closed_form(self):
        phi = _phi_user()
        for lam in (0.3, 1.0, 4.0):
            assert distribution_function(phi, lam) == pytest.approx(2.0 * lam**-2.0, rel=1e-8)

    def test_monotone_in_level(self):
        f = TestFunction.f_delta(0.5, 1.0)
        levels = np.geomspace(1e-2, 1e3, 1000)
        values = [distribution_function(f, lam) for lam in levels]
        assert all(b <= a + 1e-12 for a, b in zip(values[:-1], values[1:]))

    def test_two_branch_tail_family(self):
        # delta = 2 has a hump at x = e^2; compare against a brute grid measure
        f = TestFunction.g_delta(2.0)
        for lam in (0.3, 0.5):
            got = distribution_function(f, lam)
            ys = np.linspace(1.0, 60.0, 2_000_001)
            xs = np.exp(ys)
            mask = (ys**2.0 / xs) > lam
            brute = float(np.trapezoid(mask.astype(float) * xs, ys))
            assert got == pytest.approx(brute, rel=1e-3)

    def test_even_family_with_decaying_slow_factor(self):
        # kappa = -2 makes the profile dip before the power blow-up takes over,
        # so the monotone branches are located numerically; check the measure
        # against a brute grid
        f = TestFunction.big_r(0.5, 0.0, SlowlyVarying.log_power(-2.0))
        assert len(f.branches) >= 4  # at least one interior split per side
        for lam in (1.0, 2.0, 5.0):
            got = distribution_function(f, lam)
            ys = np.linspace(1.0, 80.0, 4_000_001)
            vals = np.exp(0.5 * ys) * (1.0 + np.log1p(ys)) ** -2.0
            mask = vals > lam
            brute = 2.0 * float(np.trapezoid(mask.astype(float) * np.exp(-ys), ys))
            assert got == pytest.approx(brute, rel=1e-3)

    def test_turning_point_past_y_60(self):
        # in y = -ln|x| this profile falls to y = 74.19 and rises after; level 0.2 crosses it twice
        f = TestFunction.big_r(0.005, 0.0, SlowlyVarying.log_power(-2.0))
        with mp.workdps(40):

            def excess(y):
                return mp.exp(mp.mpf(0.005) * y) * (1 + mp.log1p(y)) ** -2 - mp.mpf(0.2)

            falls, rises = (mp.findroot(excess, bracket, solver="anderson") for bracket in ((1, 74), (75, 1000)))
            want = float(2 * (mp.exp(-1) - mp.exp(-falls) + mp.exp(-rises)))
        assert distribution_function(f, 0.2) == pytest.approx(want, rel=1e-12)

    def test_callable_slow_factor_has_no_branches(self):
        # the log_power(-2) factor as a callable: it turns, but states no kappa to find its turns by
        f = TestFunction.big_r(0.5, 0.0, SlowlyVarying.from_callable(lambda z: (1.0 + math.log1p(z)) ** -2.0))
        assert f.branches == ()
        with pytest.raises(DomainError, match="no monotone-branch annotation"):
            distribution_function(f, 0.5705)

    @pytest.mark.parametrize("level", [0.05, 0.2, 0.4, 0.6])
    def test_example3_against_mpmath_roots(self, level):
        # |x|^-1/2 |ln|x||^1/2 on |x| > 1 rises to e^-1/2 at |x| = e and falls after:
        # two crossings per side, each found here by bisection at 40 digits
        f = TestFunction.example3(0.5, 1.0)
        with mp.workdps(40):
            lam = mp.mpf(level)

            def crossing(rising, falling):
                for _ in range(200):
                    mid = (rising + falling) / 2
                    if mp.sqrt(mp.log(mid) / mid) > lam:
                        rising = mid
                    else:
                        falling = mid
                return rising

            e = mp.e
            want = float(2 * (crossing(e, mp.mpf(1e6)) - crossing(e, mp.mpf(1))))
        assert distribution_function(f, level) == pytest.approx(want, rel=1e-12)


class TestRearrangement:
    def test_indicator(self):
        f = TestFunction.indicator(0.0, 1.0)
        assert decreasing_rearrangement(f, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert decreasing_rearrangement(f, 2.0) == 0.0

    def test_equimeasurable(self):
        f = TestFunction.f_delta(0.5, 0.0)
        for lam in np.geomspace(2.0, 1e3, 100):
            t = distribution_function(f, lam)
            assert decreasing_rearrangement(f, t * (1.0 + 1e-6)) <= lam * (1.0 + 1e-6)
            assert decreasing_rearrangement(f, t * (1.0 - 1e-6)) >= lam * (1.0 - 1e-6)

    def test_rearranged_norm_identity(self):
        # integral of f*(t)^p equals |f|_p^p (p = 1)
        f = TestFunction.f_delta(0.5, 0.0)
        spec = QuadratureSpec(rel_tol=1e-5)
        val, _ = integrate_decaying(
            lambda w: decreasing_rearrangement(f, math.exp(-w)) * math.exp(-w), 1.0, spec
        )
        head, _ = sp_quad(lambda t: decreasing_rearrangement(f, t), math.exp(-1.0), 1.0, limit=100)
        total = val + head
        assert total == pytest.approx(lp_norm(f, 1.0), rel=1e-4)


class TestWeakQuasinorm:
    def test_indicator(self):
        assert weak_lp_quasinorm(TestFunction.indicator(0.0, 1.0), 2.0) == pytest.approx(1.0, rel=1e-9)

    def test_abs_power_constant_profile(self):
        # level * m(level)^(1/2) = sqrt(2) at every level
        phi = _phi_user()
        assert weak_lp_quasinorm(phi, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize(
        "f,p",
        [
            (TestFunction.g_delta(0.0), 2.0),
            (TestFunction.f_delta(0.5, 0.0), 1.5),
            (TestFunction.indicator(0.0, 1.0), 3.0),
        ],
    )
    def test_dominated_by_strong_norm(self, f, p):
        assert weak_lp_quasinorm(f, p) <= lp_norm(f, p) * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# properties over drawn catalog forms
# ---------------------------------------------------------------------------

ALPHAS = st.floats(0.1, 0.6)  # every p below is under 1/alpha
DELTAS = st.floats(0.0, 2.0)
FORMS = st.one_of(
    st.builds(TestFunction.f_delta, ALPHAS, DELTAS),
    st.builds(TestFunction.g_delta, DELTAS),
    st.builds(TestFunction.h_delta, ALPHAS, DELTAS),
    st.builds(TestFunction.big_r, ALPHAS, DELTAS),
    st.builds(lambda lo, width: TestFunction.indicator(lo, lo + width), st.floats(-5.0, 5.0), st.floats(0.01, 10.0)),
)
LEVELS = st.floats(-8.0, 8.0).map(math.exp)
_EPS = sys.float_info.epsilon


def _exponent_interval(f: TestFunction) -> tuple[float, float]:
    """The interval whose interior holds the exponents of finite norms of f."""
    a, b = 1.0, math.inf
    for piece in f.pieces:
        if piece.role == "origin":
            b = min(b, 1.0 / piece.power)
        elif piece.role == "tail":
            a = 1.0 / piece.power
    return a, b


@settings(max_examples=60, deadline=None)
@given(f=FORMS, c=st.floats(1e-3, 1e3), p=st.floats(1.05, 1.6))
def test_norm_scales_with_the_coefficient(f, c, p):
    scaled = dataclasses.replace(f, coefficient=c * f.coefficient)
    assert lp_norm(scaled, p) == pytest.approx(c * lp_norm(f, p), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(f=FORMS, a=LEVELS, b=LEVELS)
def test_distribution_function_does_not_increase_with_the_level(f, a, b):
    lo, hi = sorted((a, b))
    assert distribution_function(f, lo) >= distribution_function(f, hi)


@settings(max_examples=100, deadline=None)
@given(f=FORMS, level=LEVELS)
def test_rearrangement_is_equimeasurable(f, level):
    # f* decreases, so |{f* > level}| = m_f(level) = t means f*(t) <= level < f*(s) for s < t
    t = distribution_function(f, level)
    if not 0.0 < t < math.inf:
        return
    assert decreasing_rearrangement(f, t) <= level * (1.0 + 2.0 * norms._BRENT_TOL)
    assert decreasing_rearrangement(f, t * (1.0 - 1e-6)) >= level


@settings(max_examples=25, deadline=None)
@given(f=FORMS, data=st.data())
def test_a_norm_is_the_same_alone_and_in_a_grand_norm_grid(f, data):
    # the grand-norm grid over the exponent interval of finite norms
    a, b = _exponent_interval(f)
    psi = PsiFunction.constant(a, b, 2.0)
    report = grand_norm(f, psi)
    assert report.value == lp_norm(f, report.argmax_p) / 2.0
    grid = [p for p in report.grid if p not in report.divergent_points]
    values, rels = norms._lp_norms(f, np.array(grid))
    i = data.draw(st.integers(0, len(grid) - 1))
    alone = lp_norm_report(f, grid[i])
    assert (alone.value, alone.rel_error) == (values[i], rels[i])


@settings(max_examples=40, deadline=None)
@given(f=FORMS, us=st.lists(st.floats(0.02, 0.98), min_size=3, max_size=3, unique=True))
def test_norms_obey_holder_interpolation(f, us):
    # |f|_r <= |f|_p^theta |f|_s^(1-theta) for p < r < s, 1/r = theta/p + (1-theta)/s
    a, b = _exponent_interval(f)
    b = min(b, a + 8.0)
    p, r, s = sorted(a + (b - a) * u for u in us)
    assume(p < r < s)
    theta = (1.0 / r - 1.0 / s) / (1.0 / p - 1.0 / s)
    at_p, at_r, at_s = (lp_norm_report(f, x) for x in (p, r, s))
    # each norm moved to the end of its reported error that works against the inequality
    low_r = math.log(at_r.value) + math.log1p(-at_r.rel_error)
    high = theta * (math.log(at_p.value) + math.log1p(at_p.rel_error)) + (1.0 - theta) * (
        math.log(at_s.value) + math.log1p(at_s.rel_error)
    )
    assert low_r <= high + 8.0 * _EPS * max(1.0, abs(high))
