"""Catalog forms described by their pieces: values, closed-form norms, masses and scaled potentials."""

import math
import re
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glpot
from glpot import (
    DivergenceError,
    DomainError,
    KernelSpec,
    SlowlyVarying,
    TestFunction,
    apply_kernel,
    interval_mass,
    log_potential_far,
    log_potential_near,
    lp_norm_closed_form,
)
from glpot import potentials
from glpot.catalog import MonotoneBranch, Piece

E, INV_E = math.e, 1.0 / math.e
RIESZ = KernelSpec.riesz(0.5)


# ---------------------------------------------------------------------------
# point values against the textbook formulas
# ---------------------------------------------------------------------------


def _g(x, delta):
    return math.log(x) ** delta / x if x > E else 0.0


def _f(x, alpha, delta):
    return x**-alpha * (-math.log(x)) ** delta if 0.0 < x < INV_E else 0.0


def _big_r(x, alpha, delta, kappa):
    ax = abs(x)
    if not 0.0 < ax < INV_E:
        return 0.0
    y = -math.log(ax)
    return ax**-alpha * y**delta * (1.0 + math.log1p(y)) ** kappa


def _example3(x, alpha, gamma):
    ax = abs(x)
    return ax**-alpha * math.log(ax) ** (gamma - alpha) if ax > 1.0 else 0.0


FORMS = [
    (TestFunction.g_delta(0.0), lambda x: _g(x, 0.0)),
    (TestFunction.g_delta(2.5), lambda x: _g(x, 2.5)),
    (TestFunction.f_delta(0.3, 1.5), lambda x: _f(x, 0.3, 1.5)),
    (TestFunction.h_delta(0.5, 1.0), lambda x: _f(x, 0.5, 1.0) + _g(x, 1.0)),
    (TestFunction.f_zero(0.4, 1.1), lambda x: _f(x, 0.4, 0.7)),
    (TestFunction.big_r(0.6, 0.5), lambda x: _big_r(x, 0.6, 0.5, 0.0)),
    (TestFunction.big_r(0.6, 0.5, SlowlyVarying.log_power(-1.5)), lambda x: _big_r(x, 0.6, 0.5, -1.5)),
    (TestFunction.example3(0.5, 1.25), lambda x: _example3(x, 0.5, 1.25)),
    (TestFunction.indicator(-0.5, 2.0), lambda x: 1.0 if -0.5 <= x <= 2.0 else 0.0),
    (TestFunction.h_delta(0.5, 1.0).scaled(2.5), lambda x: 2.5 * (_f(x, 0.5, 1.0) + _g(x, 1.0))),
    (TestFunction.indicator(0.0, 1.0).scaled(3.0), lambda x: 3.0 if 0.0 <= x <= 1.0 else 0.0),
    (TestFunction.user(lambda x: math.exp(-x * x), (Piece("plain", -math.inf, math.inf),)), lambda x: math.exp(-x * x)),
]
FORM_IDS = [f.label for f, _ in FORMS]

# |x| from subnormal to huge, both signs
ABSCISSAE = st.one_of(
    st.floats(-5.0, 5.0),
    st.floats(-1e12, 1e12),
    st.floats(-1e-6, 1e-6),
)


@pytest.mark.parametrize("f,formula", FORMS, ids=FORM_IDS)
@settings(max_examples=200, deadline=None)
@given(x=ABSCISSAE)
def test_value_matches_formula(f, formula, x):
    assert f(x) == pytest.approx(formula(x), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("f,formula", FORMS, ids=FORM_IDS)
def test_value_at_support_endpoints_and_outside(f, formula):
    ends = {v for piece in f.pieces for v in (piece.lo, piece.hi) if math.isfinite(v)}
    for x in sorted(ends | {-1e300, -3.0, -1.0, 0.0, 1.0, 3.0, 1e300}):
        assert f(x) == pytest.approx(formula(x), rel=1e-13, abs=0.0), x


def test_singular_pieces_are_open_and_plain_pieces_closed():
    assert TestFunction.g_delta(1.0)(E) == 0.0
    assert TestFunction.f_delta(0.5, 1.0)(INV_E) == 0.0
    assert TestFunction.big_r(0.5, 1.0)(0.0) == 0.0
    assert TestFunction.example3(0.5, 1.0)(-1.0) == 0.0
    ind = TestFunction.indicator(-1.0, 2.0)
    assert ind(-1.0) == ind(2.0) == 1.0
    assert ind(math.nextafter(2.0, 3.0)) == 0.0


# ---------------------------------------------------------------------------
# monotone branches follow from the pieces
# ---------------------------------------------------------------------------

KAPPAS = (-2.0, -1.0, 1.0, 2.0)
ANNOTATED = [
    TestFunction.g_delta(0.0),
    TestFunction.g_delta(1.0),
    TestFunction.g_delta(2.5),
    TestFunction.f_delta(0.3, 1.5),
    TestFunction.f_zero(0.4, 1.1),
    TestFunction.h_delta(0.5, 2.0),
    TestFunction.big_r(0.6, 0.5),
    *(TestFunction.big_r(0.2, 0.0, SlowlyVarying.log_power(kappa)) for kappa in KAPPAS),
    *(TestFunction.big_r(0.5, 1.0, SlowlyVarying.log_power(kappa)) for kappa in KAPPAS),
    TestFunction.example3(0.5, 1.25),
    TestFunction.example3(0.5, 0.5),
    TestFunction.indicator(-0.5, 2.0),
]


def _annotated_id(f):
    return f"{f.label}*{f.slow.label}" if f.slow is not None else f.label


def _samples(branch: MonotoneBranch) -> np.ndarray:
    """Increasing x strictly inside a branch, geometric in |x| (|x| in [e^-50, e^50] at a 0 or infinite end)."""
    side = 1.0 if branch.hi > 0.0 else -1.0
    inner, outer = sorted((abs(branch.lo), abs(branch.hi)))
    t = np.linspace(math.log(inner) if inner > 0.0 else -50.0, math.log(outer) if outer < math.inf else 50.0, 42)
    return np.sort(side * np.exp(t[1:-1]))


@pytest.mark.parametrize("f", ANNOTATED, ids=_annotated_id)
def test_annotations_come_from_the_pieces(f):
    # the branches tile the singular pieces, in order
    branches = iter(f.branches)
    for piece in f.pieces:
        end = piece.lo
        while piece.role != "plain" and end != piece.hi:
            branch = next(branches)
            assert branch.lo == end < branch.hi
            end = branch.hi
    assert next(branches, None) is None
    for branch in f.branches:
        assert all(math.copysign(1.0, end) == 1.0 for end in (branch.lo, branch.hi) if end == 0.0)
        values = np.array([f(x) for x in _samples(branch)])
        rises = values[1:] >= values[:-1] * (1.0 - 1e-14)
        falls = values[1:] <= values[:-1] * (1.0 + 1e-14)
        assert (rises if branch.increasing else falls).all(), branch


def _branches(ends, increasing):
    return [MonotoneBranch(lo, hi, up) for lo, hi, up in zip(ends[:-1], ends[1:], increasing)]


def _slow_turn(alpha, kappa):
    """|x| = e^-y where big_r(alpha, 0, log_power(kappa)) turns, alpha + kappa/((1 + ln(1 + y))(1 + y)) = 0."""
    with mp.workdps(40):
        y = mp.findroot(lambda y: mp.mpf(alpha) + mp.mpf(kappa) / ((1 + mp.log1p(y)) * (1 + y)), 2)
        return float(mp.exp(-y))


# each case: the form, its branches, and how many ulps a branch end may miss: the closed forms
# (g_delta's peak at x = e^delta) to the bit, the slow-factor turns within 4 ulps of the 40-digit root
BRANCH_ENDS = {
    "g_delta(1)": (TestFunction.g_delta(1.0), _branches([E, math.inf], [False]), 0),
    "g_delta(2.5)": (TestFunction.g_delta(2.5), _branches([E, math.exp(2.5), math.inf], [True, False]), 0),
    "big_r(0.5,1)": (TestFunction.big_r(0.5, 1.0), _branches([-INV_E, 0.0, INV_E], [True, False]), 0),
    **{
        f"big_r(0.5,1,{kappa:g})": (
            TestFunction.big_r(0.5, 1.0, SlowlyVarying.log_power(kappa)),
            _branches([-INV_E, 0.0, INV_E], [True, False]),
            0,
        )
        for kappa in (1.0, 2.0)
    },
    **{
        f"big_r({alpha:g},0,{kappa:g})": (
            TestFunction.big_r(alpha, 0.0, SlowlyVarying.log_power(kappa)),
            _branches([-INV_E, -turn, 0.0, turn, INV_E], [False, True, False, True]),
            4,
        )
        for alpha, kappa in ((0.2, -2.0), (0.2, -1.0), (0.5, -2.0))
        for turn in (_slow_turn(alpha, kappa),)
    },
}


@pytest.mark.parametrize("case", list(BRANCH_ENDS))
def test_branch_ends_to_the_bit(case):
    f, want, ulps = BRANCH_ENDS[case]
    assert [b.increasing for b in f.branches] == [b.increasing for b in want]
    got_ends, want_ends = ([end for b in branches for end in (b.lo, b.hi)] for branches in (f.branches, want))
    assert len(got_ends) == len(want_ends)
    for got, end in zip(got_ends, want_ends):
        assert got.hex() == end.hex() or abs(got - end) <= ulps * math.ulp(end), (got, end)


def test_constant_slow_factors_are_dropped():
    constant = SlowlyVarying.log_power(0.0)
    assert TestFunction.big_r(0.5, 1.0, constant).slow is None
    assert replace(TestFunction.g_delta(1.0), slow=constant).slow is None
    assert KernelSpec.log_riesz(0.5, 0.0, constant).slow is None
    assert not KernelSpec.log_riesz(0.5, 0.0, constant).has_log_factor


# ---------------------------------------------------------------------------
# closed-form norms of every catalog form with a constant slow factor
# ---------------------------------------------------------------------------


def _y_integral(c, m, y0):
    """int_y0^inf e^(-c y) y^m dy by mpmath quadrature."""
    return mp.quad(lambda y: mp.exp(-c * y) * y**m, [y0, y0 + 1, mp.inf])


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_h_delta_norm_against_mpmath(p):
    alpha, delta = 0.5, 1.0
    with mp.workdps(30):
        a, d, pp = mp.mpf(alpha), mp.mpf(delta), mp.mpf(p)
        origin = _y_integral(1 - a * pp, d * pp, 1)
        tail = _y_integral(pp - 1, d * pp, 1)
        want = float((origin + tail) ** (1 / pp))
    assert lp_norm_closed_form(TestFunction.h_delta(alpha, delta), p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_h_delta_norm_is_the_sum_of_its_parts(p):
    f_part = lp_norm_closed_form(TestFunction.f_delta(0.5, 1.0), p)
    g_part = lp_norm_closed_form(TestFunction.g_delta(1.0), p)
    want = (f_part**p + g_part**p) ** (1.0 / p)
    assert lp_norm_closed_form(TestFunction.h_delta(0.5, 1.0), p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [2.5, 4.0, 40.0])
def test_example3_norm_against_mpmath(p):
    alpha, gamma = 0.5, 1.25
    with mp.workdps(30):
        a, pp = mp.mpf(alpha), mp.mpf(p)
        m = (mp.mpf(gamma) - a) * pp
        # two tails, each int_0^inf e^(-(alpha p - 1) y) y^m dy
        want = float((2 * _y_integral(a * pp - 1, m, 0)) ** (1 / pp))
    assert lp_norm_closed_form(TestFunction.example3(alpha, gamma), p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [1.0, 2.0, 7.5])
def test_indicator_norm(p):
    f = TestFunction.indicator(-1.0, 2.5).scaled(3.0)
    assert lp_norm_closed_form(f, p) == pytest.approx(3.0 * 3.5 ** (1.0 / p), rel=1e-14)


def test_closed_form_refuses_user_and_varying_slow_factor():
    user = TestFunction.user(lambda x: 1.0, (Piece("plain", 0.0, 1.0),))
    with pytest.raises(DomainError):
        lp_norm_closed_form(user, 2.0)
    with pytest.raises(DomainError):
        lp_norm_closed_form(TestFunction.big_r(0.5, 1.0, SlowlyVarying.log_power(1.0)), 1.5)


# ---------------------------------------------------------------------------
# interval mass
# ---------------------------------------------------------------------------


def _count_quadrature(monkeypatch) -> list:
    """The span (lo, hi) of the intervals of each batched mass call with intervals, one call per piece."""
    calls = []
    original = potentials._integrated_masses

    def spy(f, piece, a, b):
        if len(a):
            calls.append((float(a.min()), float(b.max())))
        return original(f, piece, a, b)

    monkeypatch.setattr(potentials, "_integrated_masses", spy)
    return calls


def test_example3_mass_by_quadrature(monkeypatch):
    calls = _count_quadrature(monkeypatch)
    alpha, gamma = 0.5, 1.25
    got = interval_mass(TestFunction.example3(alpha, gamma), -3.0, 5.0)
    assert sorted(calls) == [(-3.0, -1.0), (1.0, 5.0)]
    with mp.workdps(30):
        a, d = mp.mpf(alpha), mp.mpf(gamma) - mp.mpf(alpha)
        want = float(sum(mp.quad(lambda x: x**-a * mp.log(x) ** d, [1, b]) for b in (3, 5)))
    assert got == pytest.approx(want, rel=1e-12)
    assert interval_mass(TestFunction.example3(alpha, gamma), 1.0, math.inf) == math.inf
    assert interval_mass(TestFunction.example3(alpha, gamma), -math.inf, 0.0) == math.inf


def test_closed_form_masses_need_no_quadrature(monkeypatch):
    calls = _count_quadrature(monkeypatch)
    h = TestFunction.h_delta(0.5, 1.0)
    got = interval_mass(h, -1.0, 10.0)
    with mp.workdps(30):
        origin = mp.quad(lambda x: x**-0.5 * (-mp.log(x)), [0, mp.e**-1])
        tail = mp.quad(lambda x: mp.log(x) / x, [mp.e, 10])
        want = float(origin + tail)
    assert got == pytest.approx(want, rel=1e-12)
    assert interval_mass(TestFunction.big_r(0.5, 1.0), -1.0, 1.0) == pytest.approx(2.0 * float(origin), rel=1e-12)
    assert calls == []


# ---------------------------------------------------------------------------
# scaled evaluators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("evaluate", [log_potential_far, log_potential_near])
@pytest.mark.parametrize(
    "f, error",
    [
        (TestFunction.example3(0.5, 1.25), DivergenceError),  # tail power 0.5 <= alpha: u is infinite
        (TestFunction.user(lambda x: 1.0, (Piece("plain", 0.0, 1.0),)), DomainError),
    ],
    ids=["example3", "user"],
)
def test_scaled_evaluators_refuse_unsupported_densities(evaluate, f, error):
    with pytest.raises(error):
        evaluate(f, RIESZ, 3.0, 1.0)


@pytest.mark.parametrize("evaluate", [log_potential_far, log_potential_near])
def test_scaled_evaluators_refuse_bessel_kernel_and_bad_side(evaluate):
    with pytest.raises(DomainError):
        evaluate(TestFunction.g_delta(1.0), KernelSpec.bessel(0.5), 3.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(TestFunction.g_delta(1.0), RIESZ, 3.0, 0.5)


@pytest.mark.parametrize("evaluate", [log_potential_far, log_potential_near])
@pytest.mark.parametrize(
    "depth", [math.inf, -math.inf, math.nan, np.array([1.0, math.nan])], ids=["inf", "-inf", "nan", "array"]
)
def test_scaled_evaluators_refuse_non_finite_depths(evaluate, depth):
    # t = -inf once gave ln u = -inf at x = 0, where u(0) = 2 for indicator(0,1) under riesz:0.5
    with pytest.raises(DomainError, match="must be finite"):
        evaluate(TestFunction.indicator(0.0, 1.0), RIESZ, depth, 1.0)


# forms and kernels the scaled evaluators refused before they shared one region table
NEWLY_SCALED = {
    "example3(0.7,1) x riesz(0.5)": (TestFunction.example3(0.7, 1.0), RIESZ),
    "example3(0.7,0.7) x riesz(0.3)": (TestFunction.example3(0.7, 0.7), KernelSpec.riesz(0.3)),
    "indicator(-0.5,2) x riesz(0.5)": (TestFunction.indicator(-0.5, 2.0), RIESZ),
    "f_delta x partial window": (TestFunction.f_delta(0.5, 1.0), KernelSpec.truncated(0.5, radius=3.0)),
    "g_delta x partial window": (TestFunction.g_delta(1.0), KernelSpec.truncated(0.5, radius=8.0)),
    "h_delta x slow log_riesz": (
        TestFunction.h_delta(0.5, 0.5),
        KernelSpec.log_riesz(0.5, 1.0, SlowlyVarying.log_power(1.0)),
    ),
    "g_delta with a slow factor": (replace(TestFunction.g_delta(1.0), slow=SlowlyVarying.log_power(1.0)), RIESZ),
    "big_r with a slow factor": (TestFunction.big_r(0.3, 0.5, SlowlyVarying.log_power(1.0)), KernelSpec.riesz(0.3)),
}


@pytest.mark.parametrize("case", list(NEWLY_SCALED))
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_scaled_evaluators_match_apply_kernel(case, side):
    f, kernel = NEWLY_SCALED[case]
    for depth in (1.6, 3.0, 6.0):
        for evaluate, x in ((log_potential_far, side * math.exp(depth)), (log_potential_near, side * math.exp(-depth))):
            direct = apply_kernel(f, x, kernel)
            if direct == 0.0:  # the window misses the support
                assert evaluate(f, kernel, depth, side) == -math.inf
            else:
                assert evaluate(f, kernel, depth, side) == pytest.approx(math.log(direct), abs=5e-12)


def _mirrored_g(delta: float) -> TestFunction:
    """g_delta reflected onto (-inf, -e)."""
    g = TestFunction.g_delta(delta)
    return replace(
        g,
        label=f"g_delta({delta:g})(-x)",
        pieces=(Piece("tail", -math.inf, -E, power=1.0, log_power=delta),),
        branches=(),
    )


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_mirrored_tail_piece(side):
    g, mirrored = TestFunction.g_delta(1.0), _mirrored_g(1.0)
    assert mirrored(-5.0) == g(5.0)
    assert log_potential_far(mirrored, RIESZ, 4.0, side) == log_potential_far(g, RIESZ, 4.0, -side)
    assert log_potential_near(mirrored, RIESZ, 3.0, side) == log_potential_near(g, RIESZ, 3.0, -side)
    assert interval_mass(mirrored, -20.0, -3.0) == pytest.approx(interval_mass(g, 3.0, 20.0), rel=1e-15)


# ---------------------------------------------------------------------------
# forms are dispatched on their pieces, never on their kind
# ---------------------------------------------------------------------------


def _source_lines():
    """(file name, line number, line) of every line of the imported package."""
    sources = sorted(Path(glpot.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path.name, n, line


def test_no_source_line_compares_kind():
    pattern = re.compile(r"\.kind\s*(==|!=|in\b)")
    offending = [
        f"{name}:{n}: {line.strip()}"
        for name, n, line in _source_lines()
        if pattern.search(line)
    ]
    assert offending == []


def test_constant_slow_factor_is_decided_at_construction_only():
    # TestFunction and KernelSpec drop a constant slow factor; everything else tests `slow is not None`
    reads = [name for name, _, line in _source_lines() if ".is_constant" in line and name != "psi.py"]
    assert sorted(reads) == ["catalog.py", "potentials.py"]
    assert [f"{name}:{n}" for name, n, line in _source_lines() if "BATCH_SPEC" in line] == []


def _inverse_square(x: float) -> float:
    return 1.0 / (1.0 + x * x)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Piece("foo", 0.5, 2.0, power=0.5), "unknown piece role 'foo'"),
        (lambda: Piece("plain", math.nan, 1.0), "lo < hi"),
        (lambda: Piece("plain", 1.0, 1.0), "lo < hi"),
        # the indicator of [0, 1] counted twice on (0.5, 1): its L_1 norm read 1.5
        (lambda: TestFunction.user(lambda x: 1.0, (Piece("plain", 0.0, 1.0), Piece("plain", 0.5, 1.0))), "overlap"),
        (lambda: TestFunction.user(lambda x: 1.0, (Piece("plain", 0.5, 1.0), Piece("plain", 0.0, 2.0))), "overlap"),
        # 1/(1 + x^2) on (-1, inf) as one tail: its L_1 norm read pi/4 for a true 3 pi/4
        (lambda: TestFunction.user(_inverse_square, (Piece("tail", -1.0, math.inf, power=2.0),)), "one side of 0"),
        (lambda: TestFunction.user(_inverse_square, (Piece("tail", 0.0, math.inf, power=2.0),)), "one side of 0"),
        (lambda: TestFunction.user(_inverse_square, (Piece("tail", -math.inf, math.inf, power=2.0),)), "one side of 0"),
        (lambda: TestFunction.user(abs, (Piece("origin", 0.0, math.inf, power=0.5),)), "at a finite other end"),
        # a log power across |x| = 1, where |ln|x|| is 0: the piece integral in y read nan there
        (lambda: TestFunction.user(_inverse_square, (Piece("tail", 0.5, math.inf, 2.0, 1.0),)), "cross \\|x\\| = 1"),
        (lambda: TestFunction.user(abs, (Piece("origin", 0.0, 2.0, 0.5, -1.0),)), "cross \\|x\\| = 1"),
        (lambda: TestFunction("custom", "raw", (Piece("plain", 0.0, 1.0), Piece("plain", 0.5, 2.0))), "overlap"),
        (lambda: TestFunction("custom", "raw", ()), "needs the pieces"),
    ],
    ids=["role", "nan-end", "empty", "overlap", "nested", "tail-across-0", "tail-from-0", "tail-both-ways",
         "origin-to-inf", "tail-log-across-1", "origin-log-across-1", "raw-overlap", "raw-no-pieces"],
)
def test_malformed_pieces_are_refused_when_built(build, match):
    with pytest.raises(DomainError, match=match):
        build()


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (0.0, math.nan)])
def test_indicator_needs_finite_ends(lo, hi):
    # indicator(0, inf) once built: lp_norm and apply_kernel refused it while interval_mass and
    # lp_norm_closed_form read inf
    with pytest.raises(DomainError, match="an indicator needs finite ends"):
        TestFunction.indicator(lo, hi)


@pytest.mark.parametrize(
    "lo, hi, label",
    [(0.0, 1.0, "indicator([0,1])"), (-0.5, 2.0, "indicator([-0.5,2])"), (1e-7, 1e20, "indicator([1e-07,1e+20])"),
     # ":g" wrote both as 3, so the label named the empty indicator([3,3])
     (3.0, 3.0 + 2.0**-20, "indicator([3,3.0000009536743164])"),
     (0.1, 0.1 + 0.2, "indicator([0.1,0.30000000000000004])")],
)
def test_an_indicator_label_reads_back_as_its_ends(lo, hi, label):
    assert TestFunction.indicator(lo, hi).label == label


def test_piece_end_messages_tell_ends_apart():
    with pytest.raises(DomainError, match=r"got \(3\.0000009536743164, 3\)"):
        Piece("plain", 3.0 + 2.0**-20, 3.0)
    with pytest.raises(DomainError, match=r"got \(0\.5, 3\.0000009536743164\) with power"):
        TestFunction.user(abs, (Piece("tail", 0.5, 3.0 + 2.0**-20),))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: TestFunction.example3(1.0, 1.5), r"alpha must be in \(0,1\), got 1\.0"),
        (lambda: TestFunction.example3(math.nan, 1.0), r"alpha must be in \(0,1\), got nan"),
        (lambda: TestFunction.example3(0.5, 0.4), r"example3 needs gamma >= alpha/d = 0\.5"),
        (lambda: TestFunction.f_delta(0.5, -0.1), r"delta must be >= 0, got -0\.1"),
        (lambda: TestFunction.big_r(0.5, math.nan), r"delta must be >= 0, got nan"),
        (lambda: TestFunction.h_delta(0.0, 1.0), r"alpha must be in \(0,1\) for d=1 forms, got 0\.0"),
    ],
    ids=["example3-alpha-1", "example3-alpha-nan", "example3-gamma", "f_delta-delta", "big_r-delta-nan",
         "h_delta-alpha"],
)
def test_catalog_parameters_out_of_range_are_refused(build, match):
    with pytest.raises(DomainError, match=match):
        build()
