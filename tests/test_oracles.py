"""Pointwise potentials and L_p norms against independent high-precision mpmath references."""

import functools
import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glpot import TestFunction, apply_kernel_report, log_potential_far, log_potential_near, lp_norm_report, parse_kernel_spec
from glpot.catalog import Piece
from glpot.errors import ToleranceError
from glpot.cli import parse_form_spec


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


# ---------------------------------------------------------------------------
# scaled evaluators: ln u(side e^L) in the log variable w = ln|y'| - L
# ---------------------------------------------------------------------------
#
# mpmath numbers have an unbounded exponent, so the reference integrates
# f(y') K(x - y') |y'| over w = ln z = ln(|y'|/|x|) directly, at 30 digits,
# with tanh-sinh on ranges split at every feature (support ends, z = 1, the
# kinks |x - y'| = 1 of a log kernel, the truncation window) and then
# geometrically from each feature, so that no panel is long against its
# feature.  Each panel is mapped onto (0, 1) and integrated at O(1) scale,
# with w = end v^(1/alpha) on the two panels at the kernel singularity.


def _segments(form: str):
    """(sign of y', range of v = ln|y'|, ln|f|(e^v), power a of |f| ~ |y'|^-a at an infinite v) of each support
    segment, from the textbook formulas."""
    name, _, args = form.partition(":")
    p = [mp.mpf(v) for v in args.split(",")]
    if name == "g_delta":
        return [(1, 1, mp.inf, lambda v: -v + p[0] * mp.log(v), 1)]
    if name == "f_delta":
        return [(1, -mp.inf, -1, lambda v: -p[0] * v + p[1] * mp.log(-v), p[0])]
    if name == "h_delta":
        return _segments(f"f_delta:{args}") + _segments(f"g_delta:{args.split(',')[1]}")
    if name == "big_r":  # |x|^-a |ln|x||^delta (1 + ln(1 + |ln|x||))^kappa
        kappa = p[2] if len(p) > 2 else 0
        ln_f = lambda v: -p[0] * v + p[1] * mp.log(-v) + kappa * mp.log(1 + mp.log1p(-v))
        return [(1, -mp.inf, -1, ln_f, p[0]), (-1, -mp.inf, -1, ln_f, p[0])]
    if name == "example3":
        ln_f = lambda v: -p[0] * v + (p[1] - p[0]) * mp.log(v)
        return [(1, 0, mp.inf, ln_f, p[0]), (-1, 0, mp.inf, ln_f, p[0])]
    if name == "indicator":  # lo < 0 < hi
        return [(1, -mp.inf, mp.log(p[1]), lambda v: 0, 0), (-1, -mp.inf, mp.log(-p[0]), lambda v: 0, 0)]
    raise ValueError(form)


def _geometric(a, b, rate):
    """a, b and points 2^j in from each end, j = -1, 0, 1, ... up to half the range.

    An infinite end is moved 2^10 past the finite one, or 200/rate when
    that is further: the integrand decays there like e^(-rate |w|) times a
    power of |w|, below e^-120 of its peak at that distance for the log
    orders here (up to 3).
    """
    reach = max(mp.mpf(2) ** 10, 200 / rate if rate > 0 else 0)
    a, b = (b - reach if mp.isinf(a) else a), (a + reach if mp.isinf(b) else b)
    pts = {a, b}
    for end, step in ((a, 1), (b, -1)):
        d = mp.mpf(0.5)
        while d <= (b - a) / 2:
            pts.add(end + step * d)
            d *= 2
    return sorted(pts)


@functools.lru_cache(maxsize=None)
def _mp_bessel_regular_part(nu, ln_d):
    """d^nu K_nu(d) at d = e^ln_d; the nodes far out on a tail all have the same d at the working precision."""
    return mp.exp(nu * ln_d) * mp.besselk(nu, mp.exp(ln_d))


def _mp_log_potential(form: str, kernel, ln_x: float, side: float, dps: int = 30) -> float:
    """ln of int f(y') K(x - y') dy' at x = side e^ln_x, 30 digits (or dps)."""
    with mp.workdps(dps):
        L, alpha, beta = mp.mpf(ln_x), mp.mpf(kernel.alpha), mp.mpf(kernel.beta)
        kappa = kernel.slow.kappa if kernel.slow is not None else 0
        ln_rho = mp.log(kernel.reach) if math.isfinite(kernel.reach) else mp.inf
        nu = (1 - alpha) / 2
        total = mp.mpf(0)
        for sign, v_lo, v_hi, ln_f, power in _segments(form):
            same = sign == side
            # the integrand decays like e^((1 - a) w) as w -> -inf and e^((alpha - a) w) as w -> inf
            rate = 1 - power if mp.isinf(v_lo) else power - alpha

            def integrand(w):
                g = L + (mp.log(abs(mp.expm1(w))) if same else mp.log1p(mp.exp(w)))  # ln|x - y'|
                if g >= ln_rho:
                    return mp.mpf(0)
                val = mp.exp(ln_f(L + w) + L + w + (alpha - 1) * g)
                if beta or kappa:
                    val *= abs(g) ** beta * (1 + mp.log1p(abs(g))) ** kappa
                if kernel.variant == "bessel":  # |x - y'|^(alpha-1) times d^nu K_nu(d) is d^-nu K_nu(d)
                    val *= _mp_bessel_regular_part(nu, g)
                return val

            feats = {mp.mpf(0)}
            for c in (1, kernel.reach):  # |x - y'| = c: |1 - z| or 1 + z = c e^-L
                if not math.isfinite(c):
                    continue
                for s in (-1, 1) if same else (1,):
                    z_m1 = s * c * mp.exp(-L) if same else c * mp.exp(-L) - 2  # z - 1
                    if z_m1 > -1:
                        feats.add(mp.log1p(z_m1))
            w_lo, w_hi = v_lo - L, v_hi - L
            cuts = sorted({w_lo, w_hi} | {w for w in feats if w_lo < w < w_hi})
            pts = sorted({p for a, b in zip(cuts[:-1], cuts[1:]) for p in _geometric(a, b, rate)})
            # tanh-sinh stops on an absolute error estimate
            scale = max(integrand((p + q) / 2) for p, q in zip(pts[:-1], pts[1:]))
            for p, q in zip(pts[:-1], pts[1:]) if scale > 0 else ():
                if same and 0 in (p, q):  # |w|^(alpha-1) at w = 0: w = end v^(1/alpha)
                    end = p + q
                    panel = lambda v: integrand(end * v ** (1 / alpha)) * v ** (1 / alpha - 1) / alpha
                else:
                    panel = lambda v: integrand(p + (q - p) * v)
                total += scale * abs(q - p) * mp.quad(lambda v: panel(v) / scale, [0, 1])
        return float(mp.log(total))


def _scaled(form: str, kernel_text: str, region: str, side: float, depth: float) -> tuple[float, float]:
    """(glpot's ln u, mpmath's ln u) at x = side e^depth (far) or side e^-depth (near)."""
    f, kernel = parse_form_spec(form), parse_kernel_spec(kernel_text)
    evaluate = log_potential_far if region == "far" else log_potential_near
    ln_x = depth if region == "far" else -depth
    return evaluate(f, kernel, depth, side), _mp_log_potential(form, kernel, ln_x, side)


def _assert_close_in_u(got: float, want: float) -> None:
    # 1e-12 relative in u is 1e-12 in ln u; past |ln u| ~ 4500 the spacing of
    # doubles near ln u is itself above 1e-12, so a few of those are allowed too
    assert math.isfinite(want) and abs(got - want) <= 1e-12 + 4.0 * math.ulp(want), (got, want)


@pytest.mark.parametrize(
    "form, region, depth, delta",
    [
        ("g_delta:{}", "far", 12500.0, 0.0),
        ("g_delta:{}", "far", 6950.0, 1.0),
        ("f_delta:0.5,{}", "near", 12500.0, 0.0),
        ("f_delta:0.5,{}", "near", 12500.0, 1.0),
    ],
)
def test_scaled_long_panels(form, region, depth, delta):
    """One QUADPACK pass over a panel thousands of units long missed the feature at its end."""
    got, want = _scaled(form.format(delta), "riesz:0.5", region, 1.0, depth)
    _assert_close_in_u(got, want)


RIESZ, LOG_RIESZ, TRUNCATED = "riesz:0.5", "log_riesz:0.5,1,1", "truncated:0.5,0,4.8"


@pytest.mark.parametrize(
    "form, kernel, region, side, depth",
    [
        ("g_delta:1", RIESZ, "far", 1.0, 1.6),
        ("g_delta:1", RIESZ, "far", -1.0, 5e4),
        ("g_delta:1", RIESZ, "near", 1.0, 5e4),
        ("g_delta:1", LOG_RIESZ, "far", 1.0, 5e4),
        ("g_delta:1", TRUNCATED, "far", 1.0, 5e4),
        ("g_delta:1", TRUNCATED, "near", 1.0, 1.6),
        ("f_delta:0.5,1", RIESZ, "far", 1.0, 5e4),
        ("f_delta:0.5,1", RIESZ, "near", -1.0, 5e4),
        ("f_delta:0.5,1", LOG_RIESZ, "near", 1.0, 5e4),
        ("f_delta:0.5,1", LOG_RIESZ, "far", -1.0, 6.0),
        ("f_delta:0.5,1", TRUNCATED, "far", 1.0, 1.6),
        ("f_delta:0.5,1", TRUNCATED, "near", -1.0, 3.0),
        ("h_delta:0.5,0.5", LOG_RIESZ, "near", 1.0, 3.0),
        ("h_delta:0.5,0.5", RIESZ, "far", -1.0, 40.0),
        ("big_r:0.3,0.5,1", RIESZ, "near", 1.0, 5e4),
        ("big_r:0.3,0.5,1", LOG_RIESZ, "near", -1.0, 1.6),
        ("big_r:0.3,0.5,1", TRUNCATED, "near", 1.0, 6.0),
        ("example3:0.7,1", RIESZ, "far", 1.0, 5e4),
        ("example3:0.7,1", RIESZ, "near", -1.0, 5e4),
        ("example3:0.7,1", LOG_RIESZ, "near", 1.0, 3.0),
        ("example3:0.7,1", TRUNCATED, "far", -1.0, 1.6),
        ("example3:0.7,0.7", "riesz:0.3", "far", -1.0, 6.0),
        ("indicator:-0.5,2", RIESZ, "near", -1.0, 1.6),
        ("indicator:-0.5,2", RIESZ, "far", 1.0, 5e4),
        ("indicator:-0.5,2", LOG_RIESZ, "near", 1.0, 5e4),
        ("indicator:-0.5,2", TRUNCATED, "far", -1.0, 1.6),
        # finite potentials at x = 1/2 that defeated bisection toward a power-substituted log end
        ("f_delta:0.95,1", RIESZ, "far", 1.0, -math.log(2.0)),  # u = 566.26597659775961
        ("f_delta:0.97,1", RIESZ, "far", 1.0, -math.log(2.0)),  # u = 1571.97626286109673
        ("f_delta:0.99,2", RIESZ, "far", 1.0, -math.log(2.0)),  # u = 2828429.73318561654
        ("big_r:0.97,0.5", RIESZ, "far", 1.0, -math.log(2.0)),  # u = 480.968793906583980
        # log orders 0.5-3 at density powers 0.02-0.99, slow factors, log kernels' ends
        ("f_delta:0.02,0.5", RIESZ, "far", 1.0, 0.7),
        ("f_delta:0.3,3", RIESZ, "near", -1.0, 3.0),
        ("f_delta:0.7,2", RIESZ, "far", -1.0, 40.0),
        ("f_delta:0.9,1", RIESZ, "near", 1.0, 2000.0),
        ("f_delta:0.99,0.5", RIESZ, "far", 1.0, 0.7),
        ("f_delta:0.99,3", RIESZ, "near", -1.0, 3.0),
        ("h_delta:0.99,3", LOG_RIESZ, "far", -1.0, 40.0),
        ("f_delta:0.9,2", "truncated:0.5,2,3", "near", -1.0, 3.0),
        ("big_r:0.9,1,1", RIESZ, "near", -1.0, 3.0),
        ("big_r:0.02,3,2", LOG_RIESZ, "far", 1.0, 0.7),
        ("big_r:0.5,0.5,1", "truncated:0.5,2,3", "near", 1.0, 2000.0),
        ("g_delta:3", LOG_RIESZ, "far", 1.0, 0.7),
        # x where |x - y| = 1 for some y in the support: the kink of a log kernel's factor
        *(
            (form, kernel, "far", math.copysign(1.0, x), math.log(abs(x)))
            for kernel in ("log_riesz:0.5,1", "truncated:0.5,1,2")
            for form, x in [
                ("h_delta:0.5,1", 1.993597),
                ("h_delta:0.5,1", 3.71967),
                ("f_delta:0.5,1", 27.0 / 23.0),
                *(("f_delta:0.5,1", x) for x in (1.02, 1.105, 1.19, 1.275, 1.36, -0.66, -0.82, -0.98)),
            ]
        ),
    ],
)
def test_scaled_evaluators_against_mpmath(form, kernel, region, side, depth):
    got, want = _scaled(form, kernel, region, side, depth)
    _assert_close_in_u(got, want)


# ---------------------------------------------------------------------------
# apply_kernel: the same reference at moderate |x|
# ---------------------------------------------------------------------------

SWEEP_FORMS = ("g_delta:1", "f_delta:0.5,1", "h_delta:0.5,0.5", "big_r:0.3,0.5,1", "example3:0.7,1", "indicator:-0.5,2")


@pytest.mark.parametrize("x", [-3.0, -0.7, 0.3, 1.3, 5.0])
@pytest.mark.parametrize("kernel", [RIESZ, LOG_RIESZ, TRUNCATED])
@pytest.mark.parametrize("form", SWEEP_FORMS)
def test_apply_kernel_against_mpmath(form, kernel, x):
    k = parse_kernel_spec(kernel)
    got = apply_kernel_report(parse_form_spec(form), x, k)
    want = math.exp(_mp_log_potential(form, k, math.log(abs(x)), math.copysign(1.0, x)))
    if want == 0.0:  # the truncation window misses the support
        assert got.value == 0.0
        return
    actual = abs(got.value - want)
    assert actual <= 1e-10 * want
    assert actual <= got.error


def _window_edge_near_a_support_edge(f, k, x) -> bool:
    """Whether a truncated kernel's window edge x -+ radius falls within 1e-3 of an end of the support."""
    ends = [end for piece in f.pieces for end in (piece.lo, piece.hi) if math.isfinite(end)]
    return k.radius is not None and any(abs(x + d - end) < 1e-3 for d in (-k.radius, k.radius) for end in ends)


@pytest.mark.parametrize("kernel", [RIESZ, LOG_RIESZ, TRUNCATED])
@pytest.mark.parametrize("form", SWEEP_FORMS)
@settings(max_examples=12, deadline=None)
@given(x=st.floats(-5.0, 5.0).filter(lambda v: abs(v) > 1e-300))  # halving (0, x) needs x/2 > 0
def test_apply_kernel_matches_the_scaled_evaluator(form, kernel, x):
    # two paths to the same number: sub-pieces of the support in x, and the region table in ln|y|/|x|
    f, k = parse_form_spec(form), parse_kernel_spec(kernel)
    # a window that leaves a sliver of the support: the scaled evaluator rounds its edge in w, a known
    # defect (example3 under truncated:0.5,0,1 at x = 1e-5 is 2.2e-11 off mpmath, where
    # test_truncation_window_slivers holds apply_kernel_report to its reported error)
    assume(not _window_edge_near_a_support_edge(f, k, x))
    got = apply_kernel_report(f, x, k).value
    want = math.exp(log_potential_far(f, k, math.log(abs(x)), math.copysign(1.0, x)))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("x", [1e-5, 2.0**-14, -(2.0**-24), 1e-3])
def test_truncation_window_slivers(x):
    # the window (x - 1, x + 1) keeps only (1, 1 + |x|) of example3's support: the rounding of x -+ 1
    # and of the ends' distances moves the value by ~1e-16 / |x| of itself, and the error says so
    form, k = "example3:0.7,1", parse_kernel_spec("truncated:0.5,0,1")
    got = apply_kernel_report(parse_form_spec(form), x, k)
    want = math.exp(_mp_log_potential(form, k, math.log(abs(x)), math.copysign(1.0, x)))
    assert abs(got.value - want) <= got.error <= 1e-14 / abs(x) * want


@pytest.mark.parametrize(
    "form, x",
    [("f_delta:0.5,1", math.nextafter(1.0, 2.0)), ("f_delta:0.5,1", 1.0 + 1e-9), ("big_r:0.3,0.5,1", -math.nextafter(1.0, 2.0))],
)
def test_window_edge_next_to_the_density_singularity(form, x):
    # the window's edge x -+ 1 lands within 1e-9 of the singularity at 0: the piece it leaves is graded in ln|y|
    k = parse_kernel_spec("truncated:0.5,0,1")
    got = apply_kernel_report(parse_form_spec(form), x, k)
    want = math.exp(_mp_log_potential(form, k, math.log(abs(x)), math.copysign(1.0, x)))
    assert abs(got.value - want) <= min(got.error, 1e-13 * want)


def test_a_sliver_below_the_rounding_raises():
    # at x = 2^-52 the window keeps (1, 1 + 2^-52), one ulp of y: rounding decides the value
    with pytest.raises(ToleranceError, match=r"potential at x=2\.2204460492503131e-16 too inaccurate"):
        apply_kernel_report(parse_form_spec("example3:0.7,1"), 2.0**-52, parse_kernel_spec("truncated:0.5,0,1"))


@pytest.mark.parametrize("x", [2.0, -3.0])
def test_user_density_potential_against_mpmath(x):
    # |y|^(-1/2) on (-1, 1) under riesz:0.5; with a = |x| > 1 the two halves are
    # int_0^1 y^(-1/2) (a -+ y)^(-1/2) dy = 2 asin(a^(-1/2)) and 2 asinh(a^(-1/2))
    f = TestFunction.user(
        evaluator=lambda y: abs(y) ** -0.5,
        pieces=(Piece("origin", -1.0, 0.0, power=0.5), Piece("origin", 0.0, 1.0, power=0.5)),
    )
    got = apply_kernel_report(f, x, parse_kernel_spec(RIESZ))
    with mp.workdps(30):
        r = 1 / mp.sqrt(abs(x))
        want = float(2 * mp.asin(r) + 2 * mp.asinh(r))
    actual = abs(got.value - want)
    assert actual <= 1e-12 * want
    assert actual <= got.error


@pytest.mark.parametrize("x", [-3.0, -0.7, 0.3, 1.3, 5.0])
@pytest.mark.parametrize("kernel", ["bessel:0.3", "bessel:0.5", "bessel:0.8"])
@pytest.mark.parametrize("form", SWEEP_FORMS)
def test_bessel_potential_against_mpmath(form, kernel, x):
    k = parse_kernel_spec(kernel)
    got = apply_kernel_report(parse_form_spec(form), x, k)
    # mp.besselk of a fractional order costs milliseconds at 30 digits; at 17 the float result is the same
    want = math.exp(_mp_log_potential(form, k, math.log(abs(x)), math.copysign(1.0, x), dps=17))
    actual = abs(got.value - want)
    assert actual <= 1e-12 * want
    assert actual <= got.error


# ---------------------------------------------------------------------------
# L_p norms toward the ends of the exponent interval
# ---------------------------------------------------------------------------
#
# |f|_p^p is a textbook integral in y = |ln|x||: int_y0^inf e^(-c y) y^m dy
# = c^(-m-1) Gamma(m+1, c y0) for a constant slow factor, at 30 digits with
# the float parameters taken exactly.  A log-power slow factor is integrated
# by tanh-sinh in u = ln y, where the peak at e^u ~ (m+1)/c is O(1) wide.

#: form -> exponent interval (a, b) of finite norms; the parameter pairs of
#: f_zero and example3 lie within a factor 2, so gamma - alpha is exact in floats
LP_FORMS = {
    "g_delta:0": (1.0, math.inf),
    "g_delta:1": (1.0, math.inf),
    "g_delta:2.5": (1.0, math.inf),
    "f_delta:0.5,0": (1.0, 2.0),
    "f_delta:0.5,1": (1.0, 2.0),
    "f_delta:0.3,1.7": (1.0, 1.0 / 0.3),
    "f_delta:0.25,2": (1.0, 4.0),
    "h_delta:0.5,1": (1.0, 2.0),
    "h_delta:0.3,0.4": (1.0, 1.0 / 0.3),
    "f_zero:0.5,1": (1.0, 2.0),
    "big_r:0.5,1": (1.0, 2.0),
    "big_r:0.3,0.5": (1.0, 1.0 / 0.3),
    "big_r:0.3,0.5,1": (1.0, 1.0 / 0.3),
    "example3:0.5,1": (2.0, math.inf),
    "example3:0.7,1.3": (1.0 / 0.7, math.inf),
    "indicator:-0.5,2": (1.0, math.inf),
}
#: offsets 2^-k from a finite end, down to 2^-30
LP_RUNGS = (1, 3, 6, 10, 14, 18, 22, 26, 28, 29, 30)


def _mp_gamma_tail(c, m, y0, kappa, p):
    """int_y0^inf e^(-c y) y^m (1 + ln(1 + y))^(kappa p) dy."""
    if kappa == 0:
        return c ** (-m - 1) * mp.gammainc(m + 1, c * y0)
    peak = mp.log((m + 1) / c)
    cuts = [mp.log(y0)] + [u for u in (peak - 20, peak - 5, peak, peak + 2) if u > mp.log(y0)]
    cuts.append(mp.log((m + 121) / c))  # e^(-c y) < e^-120 beyond

    def integrand(u):
        return mp.exp(-c * mp.exp(u) + (m + 1) * u) * (1 + mp.log(1 + mp.exp(u))) ** (kappa * p)

    return mp.quad(integrand, cuts)


def _mp_lp_norm(form: str, p: float):
    """|f|_p from the textbook integrals, at 30 digits."""
    name, _, args = form.partition(":")
    with mp.workdps(30):
        a = [mp.mpf(float(v)) for v in args.split(",")]
        P = mp.mpf(p)
        if name == "g_delta":
            power = _mp_gamma_tail(P - 1, a[0] * P, 1, 0, P)
        elif name in ("f_delta", "h_delta"):
            power = _mp_gamma_tail(1 - a[0] * P, a[1] * P, 1, 0, P)
            if name == "h_delta":
                power += _mp_gamma_tail(P - 1, a[1] * P, 1, 0, P)
        elif name == "f_zero":
            power = _mp_gamma_tail(1 - a[0] * P, (a[1] - a[0]) * P, 1, 0, P)
        elif name == "big_r":  # both sides of 0
            power = 2 * _mp_gamma_tail(1 - a[0] * P, a[1] * P, 1, a[2] if len(a) > 2 else 0, P)
        elif name == "example3":  # both sides, from |x| = 1
            power = 2 * mp.gamma((a[1] - a[0]) * P + 1) * (a[0] * P - 1) ** (-(a[1] - a[0]) * P - 1)
        else:
            power = a[1] - a[0]
        return power ** (1 / P)


def _lp_ladder(a: float, b: float) -> list[float]:
    ladder = [a + 2.0**-k for k in LP_RUNGS]
    return ladder + ([b - 2.0**-k for k in LP_RUNGS] if b < math.inf else [a + 2.0**k for k in range(6)])


@pytest.mark.parametrize("form", sorted(LP_FORMS))
def test_lp_norm_report_against_mpmath(form):
    f = parse_form_spec(form)
    for p in _lp_ladder(*LP_FORMS[form]):
        got = lp_norm_report(f, p)
        want = _mp_lp_norm(form, p)
        actual = float(abs(got.value - want) / want)
        assert actual <= got.rel_error <= 1e-12, (p, actual, got.rel_error)
