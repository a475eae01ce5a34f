"""The batched Gauss-Legendre rule and the scaled evaluators built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpot import KernelSpec, PotentialNormEvaluator, TestFunction, log_potential_far, log_potential_near
from glpot import quadrature
from glpot.errors import ToleranceError
from glpot.psi import SlowlyVarying
from glpot.quadrature import integrate_batch

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
    # x^-1/2 needs ~2 log2(1/tol) bisections at 0, beyond the cap
    with pytest.raises(ToleranceError):
        integrate_batch(lambda rows, x: x**-0.5, np.zeros((1, 1)), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# scaled evaluators: one value per point, whatever the batch
# ---------------------------------------------------------------------------

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
# potential-norm tables make no QUADPACK call
# ---------------------------------------------------------------------------


def test_potential_norm_tables_never_reach_quadpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called while building a potential table")

    monkeypatch.setattr(quadrature, "_quad", refuse)
    for f in (TestFunction.g_delta(1.0), TestFunction.f_delta(0.5, 1.0), TestFunction.h_delta(0.5, 1.0)):
        assert math.isfinite(PotentialNormEvaluator(f, RIESZ).log_qnorm(4.0))
    ev = PotentialNormEvaluator(TestFunction.f_zero(0.5, 1.0), TRUNCATED)
    assert math.isfinite(ev.restricted_log_qnorm(8.0, 1.0))
