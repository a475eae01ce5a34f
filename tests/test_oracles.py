"""Pointwise potentials and L_p norms against independent high-precision mpmath references."""

import math

import mpmath as mp
import pytest

from glpot import TestFunction, apply_kernel_report, log_potential_far, log_potential_near, lp_norm_report, parse_kernel_spec
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
    """(sign of y', range of v = ln|y'|, ln|f|(e^v)) of each support segment, from the textbook formulas."""
    name, _, args = form.partition(":")
    p = [mp.mpf(v) for v in args.split(",")]
    if name == "g_delta":
        return [(1, 1, mp.inf, lambda v: -v + p[0] * mp.log(v))]
    if name == "f_delta":
        return [(1, -mp.inf, -1, lambda v: -p[0] * v + p[1] * mp.log(-v))]
    if name == "h_delta":
        return _segments(f"f_delta:{args}") + _segments(f"g_delta:{args.split(',')[1]}")
    if name == "big_r":  # |x|^-a |ln|x||^delta (1 + ln(1 + |ln|x||))^kappa
        ln_f = lambda v: -p[0] * v + p[1] * mp.log(-v) + p[2] * mp.log(1 + mp.log1p(-v))
        return [(1, -mp.inf, -1, ln_f), (-1, -mp.inf, -1, ln_f)]
    if name == "example3":
        ln_f = lambda v: -p[0] * v + (p[1] - p[0]) * mp.log(v)
        return [(1, 0, mp.inf, ln_f), (-1, 0, mp.inf, ln_f)]
    if name == "indicator":  # lo < 0 < hi
        return [(1, -mp.inf, mp.log(p[1]), lambda v: 0), (-1, -mp.inf, mp.log(-p[0]), lambda v: 0)]
    raise ValueError(form)


def _geometric(a, b):
    """a, b and points 2^j in from each end, j = -1, 0, 1, ... up to half the range.

    An infinite end is moved 2^10 past the finite one: every integrand here
    decays there at least as fast as e^(-0.2 |w|).
    """
    a, b = (b - 2**10 if mp.isinf(a) else a), (a + 2**10 if mp.isinf(b) else b)
    pts = {a, b}
    for end, step in ((a, 1), (b, -1)):
        d = mp.mpf(0.5)
        while d <= (b - a) / 2:
            pts.add(end + step * d)
            d *= 2
    return sorted(pts)


def _mp_log_potential(form: str, kernel, ln_x: float, side: float) -> float:
    """ln of int f(y') K(x - y') dy' at x = side e^ln_x, 30 digits."""
    with mp.workdps(30):
        L, alpha, beta = mp.mpf(ln_x), mp.mpf(kernel.alpha), mp.mpf(kernel.beta)
        kappa = kernel.slow.kappa if kernel.slow is not None else 0
        ln_rho = mp.log(kernel.radius) if kernel.radius is not None else mp.inf
        total = mp.mpf(0)
        for sign, v_lo, v_hi, ln_f in _segments(form):
            same = sign == side

            def integrand(w):
                g = L + (mp.log(abs(mp.expm1(w))) if same else mp.log1p(mp.exp(w)))  # ln|x - y'|
                if g >= ln_rho:
                    return mp.mpf(0)
                val = mp.exp(ln_f(L + w) + L + w + (alpha - 1) * g)
                if beta or kappa:
                    val *= abs(g) ** beta * (1 + mp.log1p(abs(g))) ** kappa
                return val

            feats = {mp.mpf(0)}
            for c in (1, kernel.radius):  # |x - y'| = c: |1 - z| or 1 + z = c e^-L
                if c is None:
                    continue
                for s in (-1, 1) if same else (1,):
                    z_m1 = s * c * mp.exp(-L) if same else c * mp.exp(-L) - 2  # z - 1
                    if z_m1 > -1:
                        feats.add(mp.log1p(z_m1))
            w_lo, w_hi = v_lo - L, v_hi - L
            cuts = sorted({w_lo, w_hi} | {w for w in feats if w_lo < w < w_hi})
            pts = sorted({p for a, b in zip(cuts[:-1], cuts[1:]) for p in _geometric(a, b)})
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
