import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as sp_quad
from scipy.special import gammaincc

from glpot import (
    DivergenceError,
    DomainError,
    EvalGrid,
    KernelSpec,
    SlowlyVarying,
    TestFunction,
    ToleranceError,
    apply_kernel,
    apply_kernel_report,
    fractional_maximal,
    hl_maximal,
    interval_mass,
    log_potential_far,
    log_potential_near,
    lp_norm,
    macdonald_K,
    parse_kernel_spec,
)
from glpot.catalog import Piece
from glpot.potentials import _interval_masses
from glpot.special import upper_gamma

RIESZ_HALF = KernelSpec.riesz(0.5)
BESSEL_HALF = KernelSpec.bessel(0.5)


# (form, mpmath density of |f|) for the mass oracles
MASS_FORMS = {
    "f_delta": (TestFunction.f_delta(0.5, 1.0), lambda x: x**-0.5 * abs(mp.log(x))),
    "g_delta": (TestFunction.g_delta(1.0), lambda x: mp.log(x) / x),
    "h_delta": (TestFunction.h_delta(0.25, 2.0), lambda x: abs(x) ** (-1 if x > 1 else -0.25) * abs(mp.log(x)) ** 2),
    "big_r": (TestFunction.big_r(0.5, 1.0), lambda x: abs(x) ** -0.5 * abs(mp.log(abs(x)))),
    "indicator": (TestFunction.indicator(-0.5, 2.0), lambda x: mp.mpf(1)),
    "example3": (TestFunction.example3(0.5, 1.25), lambda x: abs(x) ** -0.5 * abs(mp.log(abs(x))) ** 0.75),
    "big_r_kappa": (
        TestFunction.big_r(0.5, 1.0, SlowlyVarying.log_power(1.0)),
        lambda x: abs(x) ** -0.5 * abs(mp.log(abs(x))) * (1 + mp.log(1 + abs(mp.log(abs(x))))),
    ),
}
#: bounds (lo, hi) of the mass oracles, empty and reversed intervals and
#: intervals outside every support among them
MASS_BOUNDS = [
    (-1.0, 1.0),
    (0.0, 0.1),
    (-0.2, -0.01),
    (0.05, 0.3),
    (-0.3, 0.2),
    (0.4, 2.5),
    (3.0, 10.0),
    (-1.0, 10.0),
    (-40.0, -2.0),
    (2.0, 50.0),
    (0.2, 0.2),
    (1.0, 0.5),
    (-0.9, -0.6),
]


def _mp_mass(f, density, lo, hi):
    """Integral of the density over (lo, hi) within the support of f, at 30 digits."""
    total = mp.mpf(0)
    with mp.workdps(30):
        for piece in f.pieces:
            a, b = max(piece.lo, lo), min(piece.hi, hi)
            if b > a:
                total += mp.quad(density, [a, b])
    return float(total)


def _scalar_maximal_sup(f, x, weight_exp, n_grid):
    """Reference for the lockstep search: one point, one scalar mass per radius."""
    scale = max(1.0, f.support_bound, abs(x))
    radii = np.geomspace(1e-6 * scale, 1e6 * scale, n_grid)

    def objective(r):
        return r**weight_exp * interval_mass(f, x - r, x + r)

    vals = [objective(r) for r in radii]
    i = int(np.argmax(vals))
    a, b = radii[max(i - 1, 0)], radii[min(i + 1, n_grid - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = objective(d)
    return max(vals[i], fc, fd)


def _kernel_value(k: KernelSpec, z: float) -> float:
    """K(z) from the kernel's array method: |z|^(alpha-1) times its regular part."""
    return abs(z) ** (k.alpha - 1.0) * float(k.regular_part(math.log(abs(z))))


class TestKernelSpec:
    def test_values(self):
        k = KernelSpec.riesz(0.5)
        assert _kernel_value(k, 0.25) == pytest.approx(2.0, rel=1e-14)
        assert _kernel_value(k, -0.25) == pytest.approx(2.0, rel=1e-14)

    def test_log_variant(self):
        k = KernelSpec.log_riesz(0.5, 1.0)
        z = 0.1
        assert _kernel_value(k, z) == pytest.approx(z**-0.5 * abs(math.log(z)), rel=1e-14)

    def test_truncated(self):
        k = KernelSpec.truncated(0.5, radius=1.0)
        assert _kernel_value(k, 2.0) == 0.0
        assert _kernel_value(k, 0.25) == pytest.approx(2.0, rel=1e-14)

    def test_bessel_local_behaviour(self):
        # the regular part |z|^nu K_nu(|z|) tends to 2^(nu-1) Gamma(nu) at zero
        alpha = 0.5
        k = KernelSpec.bessel(alpha)
        nu = (1.0 - alpha) / 2.0
        want = 2.0 ** (nu - 1.0) * math.gamma(nu)
        assert float(k.regular_part(math.log(1e-8))) == pytest.approx(want, rel=1e-4)

    def test_regular_part_is_elementwise(self):
        # an array of ln|z| gives the same values as each ln|z| alone, also where |z| underflows
        ln_z = np.array([-800.0, -20.0, -1.0, 0.0, 0.5, 3.0, 6.5])
        for k in (KernelSpec.riesz(0.5), KernelSpec.log_riesz(0.5, 1.0, SlowlyVarying.log_power(1.0)),
                  KernelSpec.truncated(0.5, 2.0, radius=2.0), KernelSpec.bessel(0.3)):
            got = k.regular_part(ln_z)
            assert got.shape == ln_z.shape and np.isfinite(got).all()
            assert got.tolist() == pytest.approx([float(k.regular_part(v)) for v in ln_z], rel=1e-14, abs=0.0)
        nu = 0.35
        limit = 2.0 ** (nu - 1.0) * math.gamma(nu)
        assert KernelSpec.bessel(0.3).regular_part(-800.0) == pytest.approx(limit, rel=1e-14)

    def test_parse(self):
        assert parse_kernel_spec("riesz:0.5").variant == "riesz"
        assert parse_kernel_spec("truncated:0.5,0,1").radius == 1.0
        assert parse_kernel_spec("log_riesz:0.5,1,1").slow is not None
        assert parse_kernel_spec("bessel:0.25").alpha == 0.25
        with pytest.raises(DomainError):
            parse_kernel_spec("riesz:0.5,1")
        with pytest.raises(DomainError):
            parse_kernel_spec("nope:0.5")

    def test_validation(self):
        with pytest.raises(DomainError):
            KernelSpec.riesz(1.5)
        with pytest.raises(DomainError):
            KernelSpec.truncated(0.5, radius=-1.0)
        with pytest.raises(DomainError):
            KernelSpec("riesz", 0.5, radius=1.0)
        with pytest.raises(DomainError):
            KernelSpec.log_riesz(0.5, math.nan)  # once read as the plain riesz kernel


class TestMacdonald:
    def test_half_order_closed_form(self):
        for x in (0.1, 1.0, 4.0, 10.0):
            want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert macdonald_K(0.5, x) == pytest.approx(want, rel=1e-10)

    def test_reference_values(self):
        assert macdonald_K(0.5, 1.0) == pytest.approx(0.4610685, rel=1e-6)
        assert macdonald_K(0.5, 4.0) == pytest.approx(0.0114780, rel=1e-4)

    def test_large_argument_asymptotics(self):
        for nu in (0.0, 1.0):
            lead = math.sqrt(math.pi / 100.0) * math.exp(-50.0)
            assert macdonald_K(nu, 50.0) / lead == pytest.approx(1.0, abs=0.02)

    def test_against_mpmath(self):
        import mpmath as mp

        with mp.workdps(30):
            for nu in (0.0, 0.25, 0.5, 1.0, 2.5, 5.0):
                for x in np.geomspace(1e-12, 699.9, 40):
                    want = float(mp.besselk(nu, mp.mpf(float(x))))
                    assert macdonald_K(nu, float(x)) == pytest.approx(want, rel=1e-12)

    def test_no_underflow_below_reach(self):
        # the unscaled K_nu underflows to 0.0 near x ~ 697.5; the kernel reaches 700
        assert macdonald_K(0.25, 699.0) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            macdonald_K(0.5, 0.0)
        with pytest.raises(DomainError):
            macdonald_K(-1.0, 1.0)

    def test_underflow_flag(self):
        with pytest.warns(RuntimeWarning):
            assert macdonald_K(0.5, 800.0) == 0.0


class TestApplyKernel:
    def test_indicator_values(self):
        ind = TestFunction.indicator(0.0, 1.0)
        assert apply_kernel(ind, 0.0, RIESZ_HALF) == pytest.approx(2.0, rel=1e-9)
        assert apply_kernel(ind, 0.5, RIESZ_HALF) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)

    def test_indicator_closed_form_grid(self):
        # u(x) = 2(sqrt(x)+sqrt(1-x)) inside, 2(sqrt|x| - sqrt(|x|-1))-type outside
        ind = TestFunction.indicator(0.0, 1.0)

        def oracle(x):
            if x < 0.0:
                return 2.0 * (math.sqrt(1.0 - x) - math.sqrt(-x))
            if x <= 1.0:
                return 2.0 * (math.sqrt(x) + math.sqrt(1.0 - x))
            return 2.0 * (math.sqrt(x) - math.sqrt(x - 1.0))

        for x in (-3.0, -0.2, 0.3, 0.9, 1.5, 7.0):
            assert apply_kernel(ind, x, RIESZ_HALF) == pytest.approx(oracle(x), rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        f = TestFunction.f_delta(0.5, 1.0)
        c = 3.7
        for x in rng.uniform(-2.0, 2.0, 20):
            if abs(x) < 1e-6:
                continue
            a = apply_kernel(f.scaled(c), float(x), RIESZ_HALF)
            b = apply_kernel(f, float(x), RIESZ_HALF)
            assert a == pytest.approx(c * b, rel=1e-10)

    def test_divergence_checks(self):
        with pytest.raises(DivergenceError):
            apply_kernel(TestFunction.example3(0.5, 1.0), 0.0, RIESZ_HALF)  # tail too fat
        with pytest.raises(DivergenceError):
            apply_kernel(TestFunction.f_delta(0.5, 0.0), 0.0, RIESZ_HALF)  # on-singularity

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_are_refused(self, x):
        with pytest.raises(DomainError, match="x must be finite"):
            apply_kernel_report(TestFunction.indicator(0.0, 1.0), x, RIESZ_HALF)

    def test_truncated_window(self):
        ind = TestFunction.indicator(0.0, 1.0)
        k = KernelSpec.truncated(0.5, radius=0.5)
        assert apply_kernel(ind, 3.0, k) == 0.0
        # at x = 2 the window (1.5, 2.5) misses [0, 1] as well
        assert apply_kernel(ind, 2.0, k) == 0.0
        # radius 0.5 at the midpoint still sees the whole support
        assert apply_kernel(ind, 0.5, k) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
        # radius 0.25 clips it: 2 * int_0^0.25 u^(-1/2) du = 4 sqrt(0.25)
        k2 = KernelSpec.truncated(0.5, radius=0.25)
        assert apply_kernel(ind, 0.5, k2) == pytest.approx(2.0, rel=1e-9)

    def test_log_kernel_value(self):
        # int_0^1 |x-y|^(-1/2) |ln|x-y||  dy at x = 0 equals int_0^1 u^(-1/2)|ln u| du = 4
        ind = TestFunction.indicator(0.0, 1.0)
        k = KernelSpec.log_riesz(0.5, 1.0)
        assert apply_kernel(ind, 0.0, k) == pytest.approx(4.0, rel=1e-8)

    def test_report_error_estimate(self):
        res = apply_kernel_report(TestFunction.g_delta(0.0), 10.0, RIESZ_HALF)
        assert res.error / res.value < 1e-8

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    @pytest.mark.parametrize("power", [0.95, 0.99])
    def test_unresolved_points_raise(self, power, delta):
        # a user density is evaluated in floats: next to its singularity of power ~1 the nodes
        # reach where |y|^-power overflows or y rounds to 0, and the point raises, naming x
        f = TestFunction.user(
            evaluator=lambda y: abs(y) ** -power * abs(math.log(abs(y))) ** delta,
            pieces=(Piece("origin", 0.0, 1.0 / math.e, power=power, log_power=delta),),
        )
        with pytest.raises(ToleranceError, match=r"potential at x=0\.5 not resolved: the density overflowed"):
            apply_kernel_report(f, 0.5, RIESZ_HALF)

    @pytest.mark.parametrize(
        "power, delta, want",
        [
            # int_1^inf e^(-(1-power) w) w^delta (1/2 - e^-w)^(-1/2) dw, y = e^-w, by mpmath at 45 digits
            (0.95, 1.0, "566.265976597759611863248819239"),
            (0.95, 2.0, "22629.7068232199814374154914473"),
            (0.97, 1.0, "1571.97626286109673320078904214"),
            (0.97, 2.0, "104759.003161109201918397612333"),
            (0.99, 1.0, "14142.8139767227475379200617849"),
            (0.99, 2.0, "2828429.73318561654431208423057"),
        ],
    )
    def test_points_next_to_a_singularity_of_power_near_one(self, power, delta, want):
        # the catalog density is formed in logs at every node, so nothing overflows
        got = apply_kernel_report(TestFunction.f_delta(power, delta), 0.5, RIESZ_HALF)
        actual = abs(got.value - float(want))
        assert actual <= got.error <= 1e-13 * got.value


class TestScaledEvaluators:
    def test_far_matches_direct_tail_family(self):
        g1 = TestFunction.g_delta(1.0)
        for t in (2.0, 5.0, 10.0):
            for side in (1.0, -1.0):
                direct = apply_kernel(g1, side * math.exp(t), RIESZ_HALF)
                scaled = log_potential_far(g1, RIESZ_HALF, t, side)
                assert scaled == pytest.approx(math.log(direct), abs=1e-7)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    @pytest.mark.parametrize("t", [1.5, 1.6, 1.69])
    def test_far_tail_family_close_to_support(self, delta, t):
        # for t < 1 + ln 2 the support edge e lies in (e^t / 2, e^t)
        g = TestFunction.g_delta(delta)
        direct = apply_kernel(g, math.exp(t), RIESZ_HALF)
        assert log_potential_far(g, RIESZ_HALF, t, 1.0) == pytest.approx(math.log(direct), abs=1e-9)

    def test_far_matches_direct_origin_family(self):
        fd = TestFunction.f_delta(0.5, 1.0)
        for t in (2.0, 6.0):
            direct = apply_kernel(fd, math.exp(t), RIESZ_HALF)
            assert log_potential_far(fd, RIESZ_HALF, t, 1.0) == pytest.approx(math.log(direct), abs=1e-7)

    def test_near_matches_direct_origin_family(self):
        fd = TestFunction.f_delta(0.5, 1.0)
        for y in (2.0, 5.0, 20.0):
            for side in (1.0, -1.0):
                direct = apply_kernel(fd, side * math.exp(-y), RIESZ_HALF)
                scaled = log_potential_near(fd, RIESZ_HALF, y, side)
                assert scaled == pytest.approx(math.log(direct), abs=1e-7)

    def test_near_matches_direct_tail_family(self):
        g0 = TestFunction.g_delta(0.0)
        for y in (1.0, 4.0):
            direct = apply_kernel(g0, math.exp(-y), RIESZ_HALF)
            assert log_potential_near(g0, RIESZ_HALF, y, 1.0) == pytest.approx(math.log(direct), abs=1e-7)

    def test_near_matches_direct_combined_family(self):
        h = TestFunction.h_delta(0.5, 0.0)
        for y in (1.5, 3.0):
            direct = apply_kernel(h, math.exp(-y), RIESZ_HALF)
            assert log_potential_near(h, RIESZ_HALF, y, 1.0) == pytest.approx(math.log(direct), abs=1e-6)

    def test_near_truncated_matches_direct(self):
        f0 = TestFunction.f_zero(0.5, 1.0)
        k = KernelSpec.truncated(0.5, radius=1.0)
        for y in (1.5, 4.0):
            direct = apply_kernel(f0, math.exp(-y), k)
            assert log_potential_near(f0, k, y, 1.0) == pytest.approx(math.log(direct), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_cross_check_other_orders(self, alpha):
        k = KernelSpec.riesz(alpha)
        fd = TestFunction.f_delta(alpha, 1.0)
        h = TestFunction.h_delta(alpha, 0.5)
        br = TestFunction.big_r(alpha, 0.5, SlowlyVarying.log_power(1.0))
        for f in (fd, h, br):
            for y in (2.0, 6.0):
                for side in (1.0, -1.0):
                    direct = apply_kernel(f, side * math.exp(-y), k)
                    assert log_potential_near(f, k, y, side) == pytest.approx(math.log(direct), abs=2e-6)
            for t in (2.0, 7.0):
                direct = apply_kernel(f, math.exp(t), k)
                assert log_potential_far(f, k, t, 1.0) == pytest.approx(math.log(direct), abs=2e-6)

    def test_extreme_depth_no_overflow(self):
        fd = TestFunction.f_delta(0.5, 1.0)
        val = log_potential_near(fd, RIESZ_HALF, 1000.0, 1.0)
        # v(e^-y) ~ (2/3) y^(3/2)-type growth: ln v stays modest
        assert 0.0 < val < 50.0
        g1 = TestFunction.g_delta(1.0)
        far = log_potential_far(g1, RIESZ_HALF, 1200.0, 1.0)
        assert -650.0 < far < -550.0  # (alpha-1) t plus log factors


class TestAsymptoticShapes:
    def test_tail_family_far_shape(self):
        # u(x) / (x^(alpha-1) (ln x)^(delta+1)) bounded within a decade
        for delta in (0.0, 1.0):
            g = TestFunction.g_delta(delta)
            ratios = []
            for t in np.linspace(math.log(1e2), math.log(1e6), 25):
                ln_u = log_potential_far(g, RIESZ_HALF, float(t), 1.0)
                ln_model = -0.5 * t + (delta + 1.0) * math.log(t)
                ratios.append(math.exp(ln_u - ln_model))
            assert 0.1 < min(ratios) and max(ratios) < 10.0

    def test_origin_family_near_shape(self):
        # v(x) / |ln x|^(delta+1) bounded for x in [1e-6, 1e-2]
        for delta in (0.0, 1.0):
            f = TestFunction.f_delta(0.5, delta)
            ratios = []
            for y in np.linspace(math.log(1e2), math.log(1e6), 25):
                ln_v = log_potential_near(f, RIESZ_HALF, float(y), 1.0)
                ratios.append(math.exp(ln_v - (delta + 1.0) * math.log(y)))
            assert 0.1 < min(ratios) and max(ratios) < 10.0

    def test_truncated_near_shape(self):
        f0 = TestFunction.f_zero(0.5, 1.0)  # delta = 0.5
        k = KernelSpec.truncated(0.5, radius=1.0 / math.e)
        ratios = []
        for y in np.linspace(math.log(1e2), math.log(1e6), 25):
            ln_v = log_potential_near(f0, k, float(y), 1.0)
            ratios.append(math.exp(ln_v - 1.5 * math.log(y)))
        assert 0.1 < min(ratios) and max(ratios) < 10.0

    def test_log_kernel_far_shape(self):
        # with kernel log order beta and slow factor S:
        # u(x) ~ x^(alpha-1) (ln x)^(delta+beta+1) S(ln x)
        delta, beta = 1.0, 1.0
        S = SlowlyVarying.log_power(1.0)
        g = TestFunction.g_delta(delta)
        k = KernelSpec.log_riesz(0.5, beta, S)
        ratios = []
        for t in np.linspace(math.log(1e2), math.log(1e6), 25):
            ln_u = log_potential_far(g, k, float(t), 1.0)
            ln_model = -0.5 * t + (delta + beta + 1.0) * math.log(t) + math.log(S(t))
            ratios.append(math.exp(ln_u - ln_model))
        assert 0.1 < min(ratios) and max(ratios) < 10.0


class TestBesselPotential:
    def test_far_field_decay(self):
        ind = TestFunction.indicator(0.0, 1.0)
        assert apply_kernel(ind, 10.0, BESSEL_HALF) < 1e-3

    def test_linearity(self):
        rng = np.random.default_rng(4)
        ind = TestFunction.indicator(0.0, 1.0)
        for x in rng.uniform(-2.0, 3.0, 10):
            a = apply_kernel(ind.scaled(2.5), float(x), BESSEL_HALF)
            b = apply_kernel(ind, float(x), BESSEL_HALF)
            assert a == pytest.approx(2.5 * b, rel=1e-8)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_smoothed_norm_finite_alongside_plain(self, p):
        # both |smoothed f|_p and |I f|_p are finite for the indicator
        ind = TestFunction.indicator(0.0, 1.0)
        xs = np.linspace(-8.0, 9.0, 121)
        smoothed = np.array([apply_kernel(ind, float(x), BESSEL_HALF) for x in xs])
        plain = np.array([apply_kernel(ind, float(x), RIESZ_HALF) for x in xs])
        n_smooth = np.trapezoid(smoothed**p, xs) ** (1.0 / p)
        n_plain = np.trapezoid(plain**p, xs) ** (1.0 / p)
        assert math.isfinite(n_smooth) and n_smooth > 0.0
        assert math.isfinite(n_plain) and n_plain > 0.0
        # the exponential tail keeps the smoothed norm within a fixed multiple
        assert n_smooth <= 3.0 * n_plain


class TestIntervalMass:
    def test_indicator(self):
        ind = TestFunction.indicator(0.0, 1.0)
        assert interval_mass(ind, -1.0, 0.25) == pytest.approx(0.25)
        assert interval_mass(ind, 2.0, 3.0) == 0.0

    def test_tail_family_analytic(self):
        g = TestFunction.g_delta(1.0)
        got = interval_mass(g, 3.0, 10.0)
        want, _ = sp_quad(lambda x: math.log(x) / x, 3.0, 10.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_origin_family_analytic(self):
        f = TestFunction.f_delta(0.5, 1.0)
        got = interval_mass(f, 0.0, 0.1)
        want, _ = sp_quad(lambda x: x**-0.5 * (-math.log(x)), 0.0, 0.1, limit=200)
        assert got == pytest.approx(want, rel=1e-9)

    def test_even_family_with_slow_factor_numeric(self):
        S = SlowlyVarying.log_power(1.0)
        r = TestFunction.big_r(0.5, 0.0, S)
        got = interval_mass(r, -0.1, 0.2)
        want_r, _ = sp_quad(lambda x: x**-0.5 * S(-math.log(x)), 0.0, 0.2, limit=200)
        want_l, _ = sp_quad(lambda x: x**-0.5 * S(-math.log(x)), 0.0, 0.1, limit=200)
        assert got == pytest.approx(want_r + want_l, rel=1e-7)

    def test_gammaincc_against_upper_gamma(self):
        # the closed-form masses use scipy's Q(s, x); upper_gamma is the
        # independent series / continued-fraction reference for Gamma(s) Q(s, x)
        for s in (1.0, 1.5, 2.0, 3.25):
            for x in (0.0, 0.3, 1.0, 2.5, 4.0, 17.0, 90.0, 300.0):
                want = upper_gamma(s, x)
                assert math.gamma(s) * gammaincc(s, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MASS_FORMS))
    def test_array_masses_against_scalar_and_mpmath(self, name):
        f, density = MASS_FORMS[name]
        lo, hi = np.array([b[0] for b in MASS_BOUNDS]), np.array([b[1] for b in MASS_BOUNDS])
        got = _interval_masses(f, lo, hi)
        assert got.shape == lo.shape
        for (a, b), m in zip(MASS_BOUNDS, got):
            assert m == interval_mass(f, a, b)
            want = _mp_mass(f, density, a, b)
            if want == 0.0:
                assert m == 0.0
            else:
                assert m == pytest.approx(want, rel=1e-12)

    def test_array_masses_over_infinite_ranges(self):
        lo, hi = np.array([1.0, -math.inf, 3.0, 0.5]), np.array([math.inf, -2.0, math.inf, 0.75])
        ex3 = TestFunction.example3(0.5, 1.25)
        got = _interval_masses(ex3, lo, hi)
        assert got[:3].tolist() == [math.inf, math.inf, math.inf]
        assert got[3] == 0.0
        # a x^-1 tail with a log power grows like (ln x)^(delta+1)
        assert _interval_masses(TestFunction.g_delta(1.0), lo, hi)[[0, 2]].tolist() == [math.inf, math.inf]
        # a decaying tail with a varying slow factor goes to the batched rule, also over (3, inf)
        S = SlowlyVarying.log_power(1.0)
        piece = Piece("tail", math.e, math.inf, power=2.0)
        tail = TestFunction("custom", "x^-2 S(ln x)", (piece,), slow=S)
        got = _interval_masses(tail, np.array([3.0, 0.0]), np.array([math.inf, 10.0]))
        with mp.workdps(30):
            want = [mp.quad(lambda x: (1 + mp.log(1 + mp.log(x))) / x**2, [a, b]) for a, b in ((3, mp.inf), (mp.e, 10))]
        assert got == pytest.approx([float(w) for w in want], rel=1e-12)

    def test_user_density_through_quadrature(self):
        # |x|^(-1/2) on (-1, 1): the mass over (a, b) is 2 (sqrt|b| -+ sqrt|a|)
        f = TestFunction.user(
            evaluator=lambda x: abs(x) ** -0.5,
            pieces=(Piece("origin", -1.0, 0.0, power=0.5), Piece("origin", 0.0, 1.0, power=0.5)),
        )

        def exact(a, b):
            a, b = max(a, -1.0), min(b, 1.0)
            if b <= a:
                return 0.0
            prim = lambda x: math.copysign(2.0 * math.sqrt(abs(x)), x)  # noqa: E731
            return prim(b) - prim(a)

        bounds = [(-0.5, 0.25), (0.0, 1.0), (0.1, 0.2), (-2.0, -0.3), (0.3, 0.3), (2.0, 3.0), (0.5, -0.5)]
        lo, hi = np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])
        got = _interval_masses(f, lo, hi)
        for (a, b), m in zip(bounds, got):
            assert m == interval_mass(f, a, b)
            assert m == pytest.approx(exact(a, b), rel=1e-12, abs=1e-300)

    def test_user_density_that_vanishes_on_part_of_a_piece(self):
        # 0 on (2, 3) and x^-2 beyond, on one x^-2 tail: read as its annotation where it is 0, the mass
        # over (2, 3) was 1/6 and the L_1 norm 1/2
        f = TestFunction.user(lambda x: 0.0 if x < 3.0 else x**-2.0, (Piece("tail", 2.0, math.inf, power=2.0),))
        lo, hi = np.array([2.0, 2.5, 2.0, 2.0, 3.5]), np.array([3.0, 2.9, 4.0, math.inf, 4.0])
        got = _interval_masses(f, lo, hi)
        assert got[:2].tolist() == [0.0, 0.0]
        assert got[2:] == pytest.approx([1.0 / 12.0, 1.0 / 3.0, 1.0 / 3.5 - 0.25], rel=1e-12)
        assert lp_norm(f, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_unbounded_plain_piece(self):
        # a plain piece states no decay: the mass over (-inf, inf) of exp(-x^2) read 1.1e-297 for sqrt(pi)
        f = TestFunction.user(lambda x: math.exp(-x * x), (Piece("plain", -math.inf, math.inf),))
        with pytest.raises(DomainError, match="no decay hint"):
            interval_mass(f, -math.inf, math.inf)
        with pytest.raises(DomainError, match="no decay hint"):
            interval_mass(f, 0.0, math.inf)
        assert interval_mass(f, -1.0, 1.0) == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bounds_are_refused(self, lo, hi):
        with pytest.raises(DomainError, match="must not be nan"):
            interval_mass(TestFunction.indicator(0.0, 1.0), lo, hi)


class TestMaximalOperators:
    def test_plain_indicator_oracle(self):
        ind = TestFunction.indicator(0.0, 1.0)
        # closed-form optimisation: at x = 2 the best radius is 2 (value 1/2)
        assert hl_maximal(ind, 2.0) == pytest.approx(0.5, rel=1e-4)
        # at x = 1/2 radius 1/2 captures all mass: value 2
        assert hl_maximal(ind, 0.5) == pytest.approx(2.0, rel=1e-4)

    def test_homogeneity(self):
        f = TestFunction.f_delta(0.5, 0.0)
        x = 0.7
        assert hl_maximal(f.scaled(3.0), x) == pytest.approx(3.0 * hl_maximal(f, x), rel=1e-10)

    def test_fractional_indicator_oracle(self):
        ind = TestFunction.indicator(0.0, 1.0)
        assert fractional_maximal(ind, 0.0, 0.5) == pytest.approx(1.0, rel=1e-4)

    def test_fractional_order_near_one(self):
        ind = TestFunction.indicator(0.0, 1.0)
        assert fractional_maximal(ind, 0.5, 0.999) == pytest.approx(1.0, rel=2e-3)

    def test_pointwise_domination_spot(self):
        ind = TestFunction.indicator(0.0, 1.0)
        for x in (-1.0, 0.2, 0.5, 2.0, 5.0):
            assert fractional_maximal(ind, x, 0.5) <= apply_kernel(ind, x, RIESZ_HALF)

    def test_sublinearity(self):
        # h = f + g with disjoint supports: M h <= M f + M g pointwise
        rng = np.random.default_rng(9)
        h = TestFunction.h_delta(0.5, 0.0)
        f = TestFunction.f_delta(0.5, 0.0)
        g = TestFunction.g_delta(0.0)
        for x in rng.uniform(-5.0, 10.0, 100):
            mh = hl_maximal(h, float(x), n_grid=80)
            mf = hl_maximal(f, float(x), n_grid=80)
            mg = hl_maximal(g, float(x), n_grid=80)
            assert mh <= (mf + mg) * (1.0 + 1e-9)

    def test_not_locally_integrable(self):
        bad = TestFunction.user(
            evaluator=lambda x: abs(x) ** -1.5,
            pieces=(Piece("origin", 0.0, 1.0, power=1.5),),
        )
        with pytest.raises(DivergenceError):
            hl_maximal(bad, 0.5)

    def test_density_that_raises_is_a_tolerance_error(self):
        # |y - 1/2|^-1 on (0, 1/2) and (1/2, 1), stated as bounded: bisecting toward the pole, the
        # batched rule's nodes on (0, 1/2) reach it
        f = TestFunction.user(lambda y: abs(y - 0.5) ** -1.0, (Piece("plain", 0.0, 0.5), Piece("plain", 0.5, 1.0)))
        with pytest.raises(ToleranceError, match=r"mass of user over \(0, 0\.5\) not resolved: the density raised"):
            interval_mass(f, 0.0, 1.0)
        for maximal in (lambda: hl_maximal(f, 0.5), lambda: fractional_maximal(f, np.array([0.25, 0.5]), 0.5)):
            with pytest.raises(ToleranceError, match=r"mass of user over \(.*\) not resolved"):
                maximal()

    def test_mass_the_rule_cannot_resolve_is_a_tolerance_error(self):
        # 1e9 x oscillates ~1.6e8 times over (0, 1): every panel cap is reached before the rule settles
        f = TestFunction.user(lambda x: 1.0 + 0.5 * math.sin(1e9 * x), (Piece("plain", 0.0, 1.0),))
        message = r"^mass of user over \(0, 1\) not resolved \(achieved relative error inf\)$"
        with pytest.raises(ToleranceError, match=message) as e:
            interval_mass(f, 0.0, 1.0)
        assert e.value.achieved == math.inf

    @pytest.mark.parametrize("name", ["indicator", "f_delta", "h_delta", "big_r", "example3"])
    def test_lockstep_search_matches_scalar_loop(self, name):
        f = MASS_FORMS[name][0]
        xs = np.array([-3.5, -1e-3, 0.2, 1.7, 9.0])
        got = fractional_maximal(f, xs, 0.4, n_grid=60)
        want = [_scalar_maximal_sup(f, float(x), 0.4 - 1.0, 60) for x in xs]
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["indicator", "f_delta", "h_delta", "big_r"]),
        xs=st.lists(st.floats(-4.0, 6.0, allow_nan=False), min_size=1, max_size=6),
        alpha=st.floats(0.05, 0.95),
    )
    def test_array_points_match_single_points(self, name, xs, alpha):
        f = MASS_FORMS[name][0]
        got = fractional_maximal(f, np.array(xs), alpha)
        assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
        for x, m in zip(xs, got):
            single = fractional_maximal(f, x, alpha)
            assert isinstance(single, float)
            assert m == pytest.approx(single, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(1e-6, 3.0))
    def test_even_density_has_even_maximal(self, x):
        left, right = hl_maximal(TestFunction.big_r(0.5, 1.0), np.array([-x, x]))
        assert left == pytest.approx(right, rel=1e-14)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            EvalGrid((1.0, 1.0))
        with pytest.raises(DomainError):
            EvalGrid.geometric(-1.0, 2.0, 5)
