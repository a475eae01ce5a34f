"""Catalog of 1-D extremal test functions with singularity annotations.

Every function here is non-negative, supported on explicit intervals, and
annotated with the local power/log exponents its quadrature and convergence
analysis need.  The log-blowup families come in two flavours: tail-supported
(x^-1 log-power on (e, inf)) and origin-supported (x^-alpha log-power on
(0, 1/e)); the remaining forms are built from these plus indicators.  Each
form is described once, by its ``Piece`` tuple with the coefficient and the
slow factor; evaluation, norms, masses and the scaled potentials all read
that description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from scipy.optimize import brentq

from .errors import DomainError
from .psi import SlowlyVarying

E = math.e
INV_E = 1.0 / math.e


@dataclass(frozen=True)
class Singularity:
    """Annotation of a non-smooth point: |f| ~ |x-location|^(-power) |ln|x-location||^(log_power)."""

    location: float
    power: float = 0.0
    log_power: float = 0.0


@dataclass(frozen=True)
class Piece:
    """One support segment of |f| in x.

    role 'origin': singular end at x = 0 (use y = -ln|x|); role 'tail':
    unbounded end (use y = ln|x|); role 'plain': bounded and finite.
    ``power``/``log_power`` describe |f| ~ |x|^-power |ln|x||^log_power at the
    critical end (singularity or infinity).  For the catalog forms the pieces,
    the coefficient and the slow factor are the whole description: a plain
    piece is the constant coefficient on [lo, hi], a singular piece is
    coefficient * |x|^-power |ln|x||^log_power S(|ln|x||) on (lo, hi).
    """

    role: str  # 'plain' | 'origin' | 'tail'
    lo: float
    hi: float
    power: float = 0.0
    log_power: float = 0.0

    @property
    def y0(self) -> float:
        """|ln|x|| at the finite end of a singular piece (outer bound at the origin, inner bound at infinity)."""
        if self.role == "origin":
            return -math.log(max(abs(self.lo), abs(self.hi)))
        return math.log(abs(self.lo) if self.hi == math.inf else abs(self.hi))

    def rate(self, p: float) -> float:
        """c with |x|^(-power p) dx = e^(-c y) dy in y = |ln|x|| (c > 0: |f|^p decays in y).

        Correctly rounded: next to the endpoint p = 1/power, c is tiny and the
        rounding error of power p alone would be a large part of it.
        """
        product, error = _two_product(self.power, p)
        return (1.0 - product) - error if self.role == "origin" else (product - 1.0) + error


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(a b rounded, its rounding error), exactly: Dekker's product of Veltkamp halves."""
    product = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _halves(a), _halves(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _halves(a: float) -> tuple[float, float]:
    """a as the sum of two floats of at most 26 significant bits each."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


@dataclass(frozen=True)
class MonotoneBranch:
    """Interval on which |f| is continuous and strictly monotone."""

    lo: float
    hi: float
    increasing: bool


@dataclass(frozen=True)
class TestFunction:
    """A closed-form 1-D function plus the annotations quadrature relies on.

    ``kind``, ``alpha``, ``delta`` and ``interval`` record how a catalog form
    was built; evaluation reads only ``pieces``, ``coefficient`` and ``slow``
    (or ``evaluator`` for a user density).
    """

    __test__ = False  # not a pytest collection target

    kind: str
    label: str
    support: tuple[tuple[float, float], ...]
    pieces: tuple[Piece, ...]
    singularities: tuple[Singularity, ...] = ()
    alpha: float = 0.0
    delta: float = 0.0
    coefficient: float = 1.0
    slow: Optional[SlowlyVarying] = None
    interval: tuple[float, float] = (0.0, 0.0)
    evaluator: Optional[Callable[[float], float]] = None
    branches: tuple[MonotoneBranch, ...] = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def g_delta(delta: float) -> "TestFunction":
        """x^-1 (ln x)^delta on (e, inf), zero elsewhere; delta >= 0."""
        if delta < 0.0:
            raise DomainError(f"delta must be >= 0, got {delta}")
        if delta <= 1.0:
            branches = (MonotoneBranch(E, math.inf, increasing=False),)
        else:
            peak = math.exp(delta)
            branches = (
                MonotoneBranch(E, peak, increasing=True),
                MonotoneBranch(peak, math.inf, increasing=False),
            )
        return TestFunction(
            kind="g_delta",
            label=f"g_delta({delta:g})",
            support=((E, math.inf),),
            pieces=(Piece("tail", E, math.inf, power=1.0, log_power=delta),),
            singularities=(Singularity(math.inf, 1.0, delta),),
            delta=delta,
            branches=branches,
        )

    @staticmethod
    def f_delta(alpha: float, delta: float) -> "TestFunction":
        """x^-alpha |ln x|^delta on (0, 1/e), zero elsewhere; alpha in (0,1), delta >= 0."""
        _check_alpha_delta(alpha, delta)
        return TestFunction(
            kind="f_delta",
            label=f"f_delta({alpha:g},{delta:g})",
            support=((0.0, INV_E),),
            pieces=(Piece("origin", 0.0, INV_E, power=alpha, log_power=delta),),
            singularities=(Singularity(0.0, alpha, delta),),
            alpha=alpha,
            delta=delta,
            branches=(MonotoneBranch(0.0, INV_E, increasing=False),),
        )

    @staticmethod
    def h_delta(alpha: float, delta: float) -> "TestFunction":
        """f_delta + g_delta (disjoint supports)."""
        _check_alpha_delta(alpha, delta)
        g = TestFunction.g_delta(delta)
        f = TestFunction.f_delta(alpha, delta)
        return TestFunction(
            kind="h_delta",
            label=f"h_delta({alpha:g},{delta:g})",
            support=f.support + g.support,
            pieces=f.pieces + g.pieces,
            singularities=f.singularities + g.singularities,
            alpha=alpha,
            delta=delta,
            branches=f.branches + g.branches,
        )

    @staticmethod
    def f_zero(alpha: float, gamma: float) -> "TestFunction":
        """The origin-family witness with delta = gamma - alpha (d = 1)."""
        delta = gamma - alpha
        if delta < 0.0:
            raise DomainError(f"f_zero needs gamma >= alpha, got gamma={gamma}, alpha={alpha}")
        fn = TestFunction.f_delta(alpha, delta)
        return replace(fn, label=f"f_zero({alpha:g},{gamma:g})")

    @staticmethod
    def big_r(alpha: float, delta: float, slow: Optional[SlowlyVarying] = None) -> "TestFunction":
        """|x|^-alpha |ln|x||^delta S(|ln|x||) on 0 < |x| < 1/e (even)."""
        _check_alpha_delta(alpha, delta)
        return TestFunction(
            kind="big_r",
            label=f"big_r({alpha:g},{delta:g})",
            support=((-INV_E, 0.0), (0.0, INV_E)),
            pieces=(
                Piece("origin", -INV_E, 0.0, power=alpha, log_power=delta),
                Piece("origin", 0.0, INV_E, power=alpha, log_power=delta),
            ),
            singularities=(Singularity(0.0, alpha, delta),),
            alpha=alpha,
            delta=delta,
            slow=slow,
            branches=_big_r_branches(alpha, delta, slow),
        )

    @staticmethod
    def example3(alpha: float, gamma: float) -> "TestFunction":
        """|x|^-alpha |ln|x||^(gamma-alpha) on |x| > 1 (even); gamma >= alpha."""
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must be in (0,1), got {alpha}")
        if gamma < alpha:
            raise DomainError(f"example3 needs gamma >= alpha/d = {alpha}, got {gamma}")
        delta = gamma - alpha
        return TestFunction(
            kind="example3",
            label=f"example3({alpha:g},{gamma:g})",
            support=((-math.inf, -1.0), (1.0, math.inf)),
            pieces=(
                Piece("tail", -math.inf, -1.0, power=alpha, log_power=delta),
                Piece("tail", 1.0, math.inf, power=alpha, log_power=delta),
            ),
            singularities=(
                Singularity(-math.inf, alpha, delta),
                Singularity(math.inf, alpha, delta),
            ),
            alpha=alpha,
            delta=delta,
        )

    @staticmethod
    def indicator(lo: float, hi: float) -> "TestFunction":
        if not hi > lo:
            raise DomainError(f"indicator needs lo < hi, got [{lo}, {hi}]")
        return TestFunction(
            kind="indicator",
            label=f"indicator([{lo:g},{hi:g}])",
            support=((lo, hi),),
            pieces=(Piece("plain", lo, hi),),
            interval=(lo, hi),
        )

    @staticmethod
    def user(
        evaluator: Callable[[float], float],
        support: tuple[tuple[float, float], ...],
        singularities: tuple[Singularity, ...] = (),
        pieces: tuple[Piece, ...] = (),
        branches: tuple[MonotoneBranch, ...] = (),
        label: str = "user",
    ) -> "TestFunction":
        """User-supplied function; singular/unbounded pieces need explicit decay hints."""
        if not pieces:
            pieces = tuple(Piece("plain", lo, hi) for lo, hi in support)
        for piece in pieces:
            if piece.role != "plain" and piece.power == 0.0 and piece.log_power == 0.0:
                raise DomainError("user pieces with singular/unbounded ends need decay hints")
        return TestFunction(
            kind="user",
            label=label,
            support=tuple(support),
            pieces=pieces,
            singularities=tuple(singularities),
            evaluator=evaluator,
            branches=branches,
        )

    # -- evaluation --------------------------------------------------------

    def __call__(self, x: float) -> float:
        if self.evaluator is not None:
            return self.coefficient * self.evaluator(x)
        for piece in self.pieces:
            if piece.role == "plain":
                if piece.lo <= x <= piece.hi:
                    return self.coefficient
            elif piece.lo < x < piece.hi:
                ax = abs(x)
                y = abs(math.log(ax))
                v = self.coefficient * ax**-piece.power * y**piece.log_power
                return v if self.slow is None else v * self.slow(y)
        return 0.0

    def scaled(self, factor: float) -> "TestFunction":
        """Same function multiplied by a scalar."""
        return replace(self, coefficient=self.coefficient * abs(factor), label=f"{abs(factor):g}*{self.label}")

    # -- geometry ----------------------------------------------------------

    @property
    def support_bound(self) -> float:
        """Largest finite |x| among support endpoints (1.0 if none)."""
        vals = [abs(v) for seg in self.support for v in seg if math.isfinite(v)]
        return max(vals) if vals else 1.0


def _check_alpha_delta(alpha: float, delta: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1) for d=1 forms, got {alpha}")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")


def _big_r_branches(alpha: float, delta: float, slow: Optional[SlowlyVarying]) -> tuple[MonotoneBranch, ...]:
    """Monotone branches of big_r; with a slowly varying factor the split
    points of ln f(e^-y) = alpha y + delta ln y + ln S(y) are located from the
    analytic derivative on a sign-scan."""
    if slow is None or getattr(slow, "kappa", 0.0) == 0.0:
        return (
            MonotoneBranch(-INV_E, 0.0, increasing=True),
            MonotoneBranch(0.0, INV_E, increasing=False),
        )
    kappa = slow.kappa

    def dlog(y: float) -> float:
        return alpha + delta / y + kappa / ((1.0 + math.log1p(y)) * (1.0 + y))

    ys = [1.0 + i * 0.05 for i in range(int((60.0 - 1.0) / 0.05) + 1)]
    crit: list[float] = []
    for y1, y2 in zip(ys[:-1], ys[1:]):
        if dlog(y1) == 0.0:
            crit.append(y1)
        elif dlog(y1) * dlog(y2) < 0.0:
            crit.append(float(brentq(dlog, y1, y2, xtol=1e-12)))
    # y-points where ln f turns; in x: x = e^-y, increasing y = decreasing x
    xs = sorted(math.exp(-y) for y in crit)
    right: list[MonotoneBranch] = []
    cuts = [0.0, *xs, INV_E]
    # f(e^-y) increasing in y  <=>  f decreasing in x on that piece
    for i in range(len(cuts) - 1):
        mid_y = -math.log(0.5 * (cuts[i] + cuts[i + 1])) if cuts[i] > 0 else -math.log(cuts[i + 1] / 2.0)
        right.append(MonotoneBranch(cuts[i], cuts[i + 1], increasing=dlog(mid_y) < 0.0))
    left = tuple(MonotoneBranch(-b.hi, -b.lo, increasing=not b.increasing) for b in reversed(right))
    return left + tuple(right)
