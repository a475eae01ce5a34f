"""The batched Gauss-Legendre rule and the scaled evaluators built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpot import (
    KernelSpec,
    PotentialNormEvaluator,
    TestFunction,
    apply_kernel_report,
    grand_norm,
    log_potential_far,
    log_potential_near,
    lp_norm_report,
    parse_psi_spec,
)
from glpot import potentials, quadrature
from glpot.catalog import INV_E
from glpot.cli import parse_form_spec
from glpot.errors import ToleranceError
from glpot.experiments import ExperimentConfig, _e6_potentials, _run_e6, run_experiment
from glpot.psi import SlowlyVarying
from glpot.quadrature import integrate_batch, log_piecewise_integral

# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------


def test_rows_of_panels_against_closed_forms():
    powers = np.array([0.0, 3.0, 7.5])

    def fn(rows, x):
        return x ** powers[rows, None]

    lo = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 2.0], [0.0, 2.0, 2.0]])  # the last row's second panel is empty
    hi = np.array([[1.0, 2.0, 3.0], [0.5, 2.0, 3.0], [2.0, 2.0, 3.0]])
    value, error = integrate_batch(fn, lo, hi)
    want = 3.0 ** (powers + 1.0) / (powers + 1.0)
    np.testing.assert_allclose(value, want, rtol=1e-14)
    assert np.all(error <= 1e-13 * want)


def test_bisection_reaches_a_log_singularity():
    # ln x at 0 defeats any fixed order; bisection toward 0 has to carry it
    value, error = integrate_batch(lambda rows, x: np.log(x), np.zeros((1, 1)), np.ones((1, 1)))
    assert value[0] == pytest.approx(-1.0, rel=1e-13)
    assert abs(value[0] + 1.0) <= error[0]


def test_depth_cap_raises():
    # x^-1/2 needs ~2 log2(1/tol) bisections at 0, beyond the cap: its row gets the
    # error inf, a good row of the same batch keeps its bits, and the scaled evaluators raise
    def singular_then_cubic(rows, x):
        return np.where(rows[:, None] == 0, x**-0.5, x**3)

    capped = integrate_batch(singular_then_cubic, np.zeros((2, 1)), np.ones((2, 1)))
    alone = integrate_batch(lambda rows, x: x**3, np.zeros((1, 1)), np.ones((1, 1)))
    assert capped.error[0] == math.inf
    assert (capped.value[1], capped.error[1]) == (alone.value[0], alone.error[0])
    with pytest.raises(ToleranceError):
        potentials._log_power_panel(lambda rows, v: v**-0.5, 0.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ToleranceError):
        potentials._log_outward(lambda anchor, sign: (lambda rows, s: s**-0.5, 0.0), -1.0, np.zeros(1), np.ones(1), 1.0, 0.0)


def test_a_noisy_row_stops_at_the_panel_cap():
    # noise far above the tolerance fails every panel on every level, so that row's panel
    # count doubles until the cap stops it; a good row of the same batch keeps its bits
    panels = []

    def noisy_then_cubic(rows, x):
        panels.append(np.count_nonzero(rows == 0))
        return np.where(rows[:, None] == 0, 1.0 + 1e-6 * np.sin(1e9 * x), x**3)

    capped = integrate_batch(noisy_then_cubic, np.zeros((2, 1)), np.ones((2, 1)))
    alone = integrate_batch(lambda rows, x: x**3, np.zeros((1, 1)), np.ones((1, 1)))
    assert capped.error[0] == math.inf
    assert max(panels) <= quadrature.MAX_ROW_PANELS
    assert len(panels) <= quadrature.MAX_DEPTH  # the panel cap stopped it, not the depth cap
    assert (capped.value[1], capped.error[1]) == (alone.value[0], alone.error[0])


# ---------------------------------------------------------------------------
# scaled evaluators: one value per point, whatever the batch
# ---------------------------------------------------------------------------


def _levels_per_call(monkeypatch) -> list:
    """Bisection levels of every integrate_batch call made by the potentials module."""
    depths = []

    def counting(fn, lo, hi):
        calls = 0

        def fn_counted(rows, x):
            nonlocal calls
            calls += 1  # once per level
            return fn(rows, x)

        result = integrate_batch(fn_counted, lo, hi)
        depths.append(calls - 1)
        return result

    monkeypatch.setattr(potentials, "integrate_batch", counting)
    return depths


def test_the_default_tables_never_bisect_deep(monkeypatch):
    # a log factor at a power-substituted end once took up to 35 bisection levels
    # there; in log coordinates no region of E1-E4's tables needs more than a few
    depths = _levels_per_call(monkeypatch)
    for name in ("E1_upper_thm1", "E2_lower_p_to_1", "E3_lower_p_to_inv_alpha", "E4_truncated_thm6"):
        run_experiment(ExperimentConfig(name=name), write_files=False)
    assert len(depths) > 100
    assert max(depths) <= 12

RIESZ, LOG_RIESZ, TRUNCATED = KernelSpec.riesz(0.5), KernelSpec.log_riesz(0.5, 1.0), KernelSpec.truncated(0.5, radius=1.0)
CASES = {
    "g_delta(1) x riesz": (TestFunction.g_delta(1.0), RIESZ),
    "f_delta(0.5,1) x log_riesz": (TestFunction.f_delta(0.5, 1.0), LOG_RIESZ),
    "h_delta(0.5,0.5) x riesz": (TestFunction.h_delta(0.5, 0.5), RIESZ),
    "f_zero(0.5,1) x truncated": (TestFunction.f_zero(0.5, 1.0), TRUNCATED),
    "indicator(-0.5,2) x truncated": (TestFunction.indicator(-0.5, 2.0), KernelSpec.truncated(0.5, radius=4.8)),
    "example3(0.7,1) x riesz": (TestFunction.example3(0.7, 1.0), RIESZ),
}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    evaluate=st.sampled_from([log_potential_far, log_potential_near]),
    side=st.sampled_from([1.0, -1.0]),
    coords=st.lists(st.floats(-3.0, 80.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_each_point_is_bit_identical_alone_and_in_any_batch(case, evaluate, side, coords, data):
    f, kernel = CASES[case]
    batch = evaluate(f, kernel, np.array(coords), side)
    alone = np.array([evaluate(f, kernel, c, side) for c in coords])
    assert batch.tobytes() == alone.tobytes()
    order = data.draw(st.permutations(range(len(coords))))
    shuffled = evaluate(f, kernel, np.array(coords)[order], side)
    assert shuffled.tobytes() == batch[order].tobytes()


EVEN = {
    "big_r(0.3,0.5,1)": TestFunction.big_r(0.3, 0.5, SlowlyVarying.log_power(1.0)),
    "example3(0.7,1)": TestFunction.example3(0.7, 1.0),
    "indicator(-2,2)": TestFunction.indicator(-2.0, 2.0),
}


@pytest.mark.parametrize("form", sorted(EVEN))
@pytest.mark.parametrize("kernel", [RIESZ, LOG_RIESZ, KernelSpec.truncated(0.5, radius=4.8)], ids=lambda k: k.variant)
@pytest.mark.parametrize("evaluate", [log_potential_far, log_potential_near])
def test_even_densities_give_even_potentials(form, kernel, evaluate):
    depths = np.geomspace(1.6, 2000.0, 25)
    right, left = evaluate(EVEN[form], kernel, depths, 1.0), evaluate(EVEN[form], kernel, depths, -1.0)
    assert not np.isnan(right).any()  # -inf where a truncated kernel misses the support
    assert right.tobytes() == left.tobytes()


def test_float_in_float_out():
    g = TestFunction.g_delta(1.0)
    one = log_potential_far(g, RIESZ, 3.0, 1.0)
    assert type(one) is float
    assert log_potential_far(g, RIESZ, np.array([3.0]), 1.0).tolist() == [one]


def test_user_slow_factors_are_evaluated_elementwise():
    # the same S as a user callable and as the built-in family: same function, same bits
    log_power = SlowlyVarying.log_power(1.0)
    user = SlowlyVarying.from_callable(lambda z: (1.0 + math.log1p(z)) ** 1.0)
    depths = np.array([1.6, 6.0, 40.0])
    for evaluate in (log_potential_far, log_potential_near):
        builtin = evaluate(TestFunction.big_r(0.3, 0.5, log_power), KernelSpec.log_riesz(0.5, 1.0, log_power), depths, 1.0)
        called = evaluate(TestFunction.big_r(0.3, 0.5, user), KernelSpec.log_riesz(0.5, 1.0, user), depths, 1.0)
        assert called.tobytes() == builtin.tobytes()


# ---------------------------------------------------------------------------
# potential-norm tables and L_p norms make no QUADPACK call
# ---------------------------------------------------------------------------


def test_potential_norm_tables_never_reach_quadpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called while building a potential table")

    monkeypatch.setattr(quadrature, "_quad", refuse)
    for f in (TestFunction.g_delta(1.0), TestFunction.f_delta(0.5, 1.0), TestFunction.h_delta(0.5, 1.0)):
        assert math.isfinite(PotentialNormEvaluator(f, RIESZ).log_qnorm(4.0))
    ev = PotentialNormEvaluator(TestFunction.f_zero(0.5, 1.0), TRUNCATED)
    assert math.isfinite(ev.restricted_log_qnorm(8.0, 1.0))


def test_lp_norms_never_reach_quadpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called for an L_p norm")

    monkeypatch.setattr(quadrature, "_quad", refuse)
    near_two = (1.5, 2.0 - 2.0**-30)  # 2^-30 from the end p = 2 of most of these exponent intervals
    above_two = (2.0 + 2.0**-30, 3.0)
    for form, ps in [
        ("g_delta:1", above_two),
        ("f_delta:0.5,1", near_two),
        ("h_delta:0.5,1", near_two),
        ("f_zero:0.5,1", near_two),
        ("big_r:0.5,1", near_two),
        ("big_r:0.3,0.5,1", near_two),
        ("example3:0.5,1", above_two),
        ("indicator:-0.5,2", above_two),
    ]:
        for p in ps:
            assert math.isfinite(lp_norm_report(parse_form_spec(form), p).value)
    report = grand_norm(TestFunction.f_delta(0.5, 1.0), parse_psi_spec("power:a=1,b=2,beta=0,gamma=1.5"))
    assert math.isfinite(report.value)


#: the forms and kernels of `glpot potential`'s benchmark grid
POINTWISE_FORMS = ("indicator:0,1", "f_delta:0.5,1", "g_delta:1", "h_delta:0.5,1")
POINTWISE_KERNELS = ("riesz:0.5", "log_riesz:0.5,1", "truncated:0.5,0,1", "bessel:0.5")


def test_pointwise_potentials_never_reach_quadpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called for a pointwise potential")

    monkeypatch.setattr(quadrature, "_quad", refuse)
    for form in POINTWISE_FORMS:
        for kernel in POINTWISE_KERNELS:
            f, k = parse_form_spec(form), potentials.parse_kernel_spec(kernel)
            for x in (-2.5, -0.3, 0.2, 1.0, 2.0, 3.3, 5.5):
                result = apply_kernel_report(f, x, k)
                assert math.isfinite(result.value) and result.error <= 1e-12 * max(result.value, 1e-300)


@pytest.mark.parametrize(
    "form, kernel, x",
    [
        ("g_delta:1", "riesz:0.5", 2.716261),  # 0.002 below the support's end e
        ("g_delta:1", "log_riesz:0.5,1", 2.716261),
        ("g_delta:1", "bessel:0.5", 2.716261),
        ("f_delta:0.5,1", "riesz:0.5", 0.37),  # 0.002 past the end 1/e away from the singularity
        ("f_delta:0.5,1", "riesz:0.5", math.nextafter(INV_E, 1.0)),
        ("big_r:0.5,1", "riesz:0.5", -math.nextafter(INV_E, 1.0)),
        ("indicator:0,1", "riesz:0.5", math.nextafter(1.0, 2.0)),
    ],
)
def test_points_next_to_a_support_edge_bisect_shallow(monkeypatch, form, kernel, x):
    # the kernel's near singularity is graded in ln|x - y|, so a few levels resolve it
    depths = _levels_per_call(monkeypatch)
    apply_kernel_report(parse_form_spec(form), x, potentials.parse_kernel_spec(kernel))
    assert len(depths) == 1 and depths[0] <= 6


# ---------------------------------------------------------------------------
# E6's potentials come from the same batched path
# ---------------------------------------------------------------------------

E6_FORMS = {f.label: f for f in (TestFunction.indicator(0.0, 1.0), TestFunction.f_delta(0.5, 0.0))}


def _assert_matches_apply_kernel(f, x, pot):
    ref = apply_kernel_report(f, float(x), RIESZ)
    assert abs(pot - ref.value) <= max(ref.error, 1e-12 * ref.value), (f.label, x)


def test_e6_potentials_match_apply_kernel_at_every_grid_point():
    result = _run_e6(ExperimentConfig(name="E6_maximal_domination"))
    assert len(result.csv_rows) == 400
    for label, x, _, pot, _ in result.csv_rows:
        _assert_matches_apply_kernel(E6_FORMS[label], x, pot)


@pytest.mark.parametrize("label", sorted(E6_FORMS))
def test_e6_potentials_match_apply_kernel_at_the_edges(label):
    # the indicator ends at 1, f_delta at 1/e; 1e-9 sits next to f_delta's singularity
    xs = np.array([-1.0, -INV_E, 1e-9, INV_E, 1.0])
    for x, pot in zip(xs, _e6_potentials(E6_FORMS[label], RIESZ, xs)):
        _assert_matches_apply_kernel(E6_FORMS[label], x, pot)


def test_e6_never_reaches_quadpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called while running E6")

    monkeypatch.setattr(quadrature, "_quad", refuse)
    assert _run_e6(ExperimentConfig(name="E6_maximal_domination")).passed


# ---------------------------------------------------------------------------
# log-space assembly of the potential norms
# ---------------------------------------------------------------------------


def _scalar_log_piecewise_integral(ys, gs):
    """The same panel formula, one panel at a time, summed pair by pair."""

    def panel(y1, y2, g1, g2):
        h = y2 - y1
        if h <= 0.0:
            return -math.inf
        m = max(g1, g2)
        if min(g1, g2) == -math.inf:
            return -math.inf
        rise = abs(g2 - g1)
        if rise < 1e-12:
            return m + math.log(h)
        return m + math.log(-math.expm1(-rise) / (rise / h))

    total = -math.inf
    for i in range(len(ys) - 1):
        total = quadrature.logsumexp_pair(total, panel(ys[i], ys[i + 1], gs[i], gs[i + 1]))
    return total


WIDTHS = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
STEPS = st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13), st.floats(-40.0, 40.0))  # flat, nearly flat, sloped


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(-50.0, 50.0),
    g0=st.floats(-700.0, 700.0),
    panels=st.lists(st.tuples(WIDTHS, STEPS, st.booleans()), min_size=1, max_size=40),
)
def test_log_piecewise_integral_matches_the_scalar_panel_formula(start, g0, panels):
    ys, gs, g = [start], [g0], g0
    for width, step, dropped in panels:
        g += step
        ys.append(ys[-1] + width)
        gs.append(-math.inf if dropped else g)
    want = _scalar_log_piecewise_integral(ys, gs)
    got = log_piecewise_integral(np.array(ys), np.array(gs))
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - want) <= 8 * math.ulp(max(abs(want), 1.0))


def test_log_piecewise_integral_of_a_nearly_flat_panel():
    # e^8 (e^(10^-6) - 1) / 10^-6 at 30 digits: ln is 8.0000005000000416666...; the
    # difference of exponentials lost the last 5 digits to cancellation
    got = log_piecewise_integral(np.array([0.0, 1.0]), np.array([8.0, 8.0 + 1e-6]))
    assert abs(got - 8.000000500000041666) <= 2 * math.ulp(8.0)


def test_log_piecewise_integral_of_an_all_minus_inf_grid():
    assert log_piecewise_integral(np.array([0.0, 1.0, 3.0]), np.full(3, -np.inf)) == -math.inf
