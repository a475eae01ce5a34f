"""Catalog of 1-D extremal test functions, each described by its pieces.

Every function here is non-negative, supported on the ranges of its pieces,
and annotated piece by piece with the power/log exponents its quadrature
and convergence analysis need.  The log-blowup families come in two
flavours: tail-supported (x^-1 log-power on (e, inf)) and origin-supported
(x^-alpha log-power on (0, 1/e)); the remaining forms are built from these
plus indicators.  Each form is described once, by its ``Piece`` tuple with
the coefficient and the slow factor; evaluation, norms, masses and the
scaled potentials all read that description, and the support, the singular
point at 0 and the monotone branches are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

from .errors import DomainError
from .psi import SlowlyVarying
from .special import least_double

E = math.e
INV_E = 1.0 / math.e


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

    def __post_init__(self):
        if self.role not in ("plain", "origin", "tail"):
            raise DomainError(f"unknown piece role {self.role!r}")
        if not self.lo < self.hi:  # also refuses a nan end
            raise DomainError(f"a piece needs lo < hi, got ({_end(self.lo)}, {_end(self.hi)})")

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


def _end(x: float) -> str:
    """x as ``:g`` writes it where that reads back as x, else to all 17 digits: ends 2^-20 apart stay apart."""
    text = f"{x:g}"
    return text if float(text) == x else f"{x:.17g}"


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
    (or ``evaluator`` for a user density).  The pieces are the whole
    annotation: the support is their ranges and the one singular point is 0,
    the shared end of the origin pieces.  A catalog form's ``branches`` are
    derived from its pieces; a user density states them.  ``slow`` is None
    unless the slow factor varies: a constant one is dropped at construction.

    The pieces are checked once, here, and read as given downstream: an origin
    piece ends at 0 and at a finite other end, a tail piece at infinity on one
    side of 0, each with a nonzero power or log_power, the origin ones agreeing;
    one with a log_power stays on one side of |x| = 1, where |ln|x|| is 0;
    pieces may share an end but not overlap.  Anything else is a DomainError.
    """

    __test__ = False  # not a pytest collection target

    kind: str
    label: str
    pieces: tuple[Piece, ...]
    alpha: float = 0.0
    delta: float = 0.0
    coefficient: float = 1.0
    slow: Optional[SlowlyVarying] = None
    interval: tuple[float, float] = (0.0, 0.0)
    evaluator: Optional[Callable[[float], float]] = None
    branches: tuple[MonotoneBranch, ...] = ()

    def __post_init__(self):
        if self.slow is not None and self.slow.is_constant:
            object.__setattr__(self, "slow", None)  # consumers test ``slow is not None`` only
        if not self.pieces:
            raise DomainError(f"{self.label} needs the pieces of its support")
        for piece in self.pieces:
            ends = f"({_end(piece.lo)}, {_end(piece.hi)})"
            if piece.role != "plain" and piece.power == 0.0 and piece.log_power == 0.0:
                raise DomainError(f"a {piece.role} piece needs a decay hint, got {ends} with power = log_power = 0")
            if piece.role == "origin" and not (0.0 in (piece.lo, piece.hi) and math.isfinite(piece.lo + piece.hi)):
                raise DomainError(f"an origin piece must end at 0 and at a finite other end, got {ends}")
            one_sided = piece.lo > 0.0 and piece.hi == math.inf or piece.hi < 0.0 and piece.lo == -math.inf
            if piece.role == "tail" and not one_sided:
                raise DomainError(f"a tail piece must end at infinity and lie on one side of 0, got {ends}")
            if piece.role != "plain" and piece.log_power != 0.0 and piece.y0 < 0.0:
                raise DomainError(f"a {piece.role} piece with a log power must not cross |x| = 1, got {ends}")
        ordered = sorted((piece.lo, piece.hi) for piece in self.pieces)
        if any(b[0] < a[1] for a, b in zip(ordered[:-1], ordered[1:])):
            raise DomainError(f"the pieces of {self.label} overlap: {ordered}")
        self.origin_exponents  # origin pieces that disagree raise DomainError here, not at first use

    # -- construction ------------------------------------------------------

    @staticmethod
    def g_delta(delta: float) -> "TestFunction":
        """x^-1 (ln x)^delta on (e, inf), zero elsewhere; delta >= 0."""
        if not delta >= 0.0:
            raise DomainError(f"delta must be >= 0, got {delta}")
        pieces = (Piece("tail", E, math.inf, power=1.0, log_power=delta),)
        return _form("g_delta", f"g_delta({delta:g})", pieces, delta=delta)

    @staticmethod
    def f_delta(alpha: float, delta: float) -> "TestFunction":
        """x^-alpha |ln x|^delta on (0, 1/e), zero elsewhere; alpha in (0,1), delta >= 0."""
        _check_alpha_delta(alpha, delta)
        pieces = (Piece("origin", 0.0, INV_E, power=alpha, log_power=delta),)
        return _form("f_delta", f"f_delta({alpha:g},{delta:g})", pieces, alpha=alpha, delta=delta)

    @staticmethod
    def h_delta(alpha: float, delta: float) -> "TestFunction":
        """f_delta + g_delta (disjoint supports)."""
        _check_alpha_delta(alpha, delta)
        pieces = TestFunction.f_delta(alpha, delta).pieces + TestFunction.g_delta(delta).pieces
        return _form("h_delta", f"h_delta({alpha:g},{delta:g})", pieces, alpha=alpha, delta=delta)

    @staticmethod
    def f_zero(alpha: float, gamma: float) -> "TestFunction":
        """The origin-family witness with delta = gamma - alpha (d = 1)."""
        delta = gamma - alpha
        if not delta >= 0.0:
            raise DomainError(f"f_zero needs gamma >= alpha, got gamma={gamma}, alpha={alpha}")
        fn = TestFunction.f_delta(alpha, delta)
        return replace(fn, label=f"f_zero({alpha:g},{gamma:g})")

    @staticmethod
    def big_r(alpha: float, delta: float, slow: Optional[SlowlyVarying] = None) -> "TestFunction":
        """|x|^-alpha |ln|x||^delta S(|ln|x||) on 0 < |x| < 1/e (even)."""
        _check_alpha_delta(alpha, delta)
        pieces = (
            Piece("origin", -INV_E, 0.0, power=alpha, log_power=delta),
            Piece("origin", 0.0, INV_E, power=alpha, log_power=delta),
        )
        return _form("big_r", f"big_r({alpha:g},{delta:g})", pieces, alpha=alpha, delta=delta, slow=slow)

    @staticmethod
    def example3(alpha: float, gamma: float) -> "TestFunction":
        """|x|^-alpha |ln|x||^(gamma-alpha) on |x| > 1 (even); gamma >= alpha."""
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must be in (0,1), got {alpha}")
        if not gamma >= alpha:
            raise DomainError(f"example3 needs gamma >= alpha/d = {alpha}, got {gamma}")
        delta = gamma - alpha
        pieces = (
            Piece("tail", -math.inf, -1.0, power=alpha, log_power=delta),
            Piece("tail", 1.0, math.inf, power=alpha, log_power=delta),
        )
        return _form("example3", f"example3({alpha:g},{gamma:g})", pieces, alpha=alpha, delta=delta)

    @staticmethod
    def indicator(lo: float, hi: float) -> "TestFunction":
        """1 on [lo, hi], zero elsewhere; both ends finite."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"an indicator needs finite ends, got ({_end(lo)}, {_end(hi)})")
        return _form("indicator", f"indicator([{_end(lo)},{_end(hi)}])", (Piece("plain", lo, hi),), interval=(lo, hi))

    @staticmethod
    def user(
        evaluator: Callable[[float], float],
        pieces: tuple[Piece, ...],
        branches: tuple[MonotoneBranch, ...] = (),
        label: str = "user",
    ) -> "TestFunction":
        """User-supplied function on its pieces: plain where it is bounded, origin pieces at a
        singularity at 0 and tail pieces at an unbounded end, each with its decay hints."""
        return TestFunction(kind="user", label=label, pieces=tuple(pieces), evaluator=evaluator, branches=branches)

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
                try:
                    v = self.coefficient * ax**-piece.power * y**piece.log_power
                except OverflowError:  # past the largest float, next to the singularity
                    return math.inf
                return v if self.slow is None else v * self.slow(y)
        return 0.0

    def scaled(self, factor: float) -> "TestFunction":
        """Same function multiplied by a scalar."""
        return replace(self, coefficient=self.coefficient * abs(factor), label=f"{abs(factor):g}*{self.label}")

    # -- geometry ----------------------------------------------------------

    @property
    def support_bound(self) -> float:
        """Largest finite |x| among piece ends (1.0 if none)."""
        vals = [abs(v) for piece in self.pieces for v in (piece.lo, piece.hi) if math.isfinite(v)]
        return max(vals) if vals else 1.0

    @cached_property
    def origin_exponents(self) -> tuple[float, float]:
        """(power, log_power) of the singularity at 0 that the origin pieces share; (0, 0) without one."""
        exponents = {(piece.power, piece.log_power) for piece in self.pieces if piece.role == "origin"}
        if len(exponents) > 1:
            raise DomainError(f"origin pieces of {self.label} disagree at 0: (power, log_power) in {sorted(exponents)}")
        return exponents.pop() if exponents else (0.0, 0.0)

    @cached_property
    def singular_at_zero(self) -> bool:
        return self.origin_exponents != (0.0, 0.0)

    @cached_property
    def ln_coefficient(self) -> float:
        return math.log(self.coefficient)


def _check_alpha_delta(alpha: float, delta: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1) for d=1 forms, got {alpha}")
    if not delta >= 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")


def _form(kind: str, label: str, pieces: tuple[Piece, ...], slow: Optional[SlowlyVarying] = None,
          **recorded) -> TestFunction:
    """A catalog form from its pieces: its monotone branches follow from them."""
    return TestFunction(
        kind=kind,
        label=label,
        pieces=pieces,
        slow=slow,
        branches=tuple(branch for piece in pieces for branch in _branches(piece, slow)),
        **recorded,
    )


#: the sign scan for the turning points of a form with a slow factor steps by _SCAN_STEP over y in
#: [y0, _SCAN_END], then grows y by the factor 1 + _SCAN_STEP/_SCAN_END up to the last y a turn can have
_SCAN_END, _SCAN_STEP = 60.0, 0.05


def _branches(piece: Piece, slow: Optional[SlowlyVarying]) -> tuple[MonotoneBranch, ...]:
    """The monotone branches of |f| on one piece, in increasing x; none on a plain piece.

    In y = |ln|x||, ln|f| = -+power y + log_power ln y + kappa ln(1 + ln(1 + y))
    (- on a tail, + at the origin).  Without a slow factor (kappa = 0) a tail
    turns at y = log_power/power and an origin piece never; with one, the
    turning points are located by a sign scan of the derivative, each to the
    double by :func:`~glpot.special.least_double`.
    The scan stops at y = (|log_power| + |kappa|)/power, past which the power
    term alone sets the derivative's sign.  A slow factor given as a callable
    has no kappa, and its piece no branches.
    """
    kappa = 0.0 if slow is None else slow.kappa
    if piece.role == "plain" or kappa is None:
        return ()
    outward = 1.0 if piece.role == "tail" else -1.0  # ln|x| = outward y

    def dlog(y: float) -> float:
        return -outward * piece.power + piece.log_power / y + kappa / ((1.0 + math.log1p(y)) * (1.0 + y))

    y0 = piece.y0
    if kappa == 0.0:
        peak = piece.log_power / piece.power if piece.role == "tail" else -math.inf
        turns = [peak] if peak > y0 else []
    else:
        ys = [y0 + i * _SCAN_STEP for i in range(int((_SCAN_END - y0) / _SCAN_STEP) + 1)]
        while ys[-1] < (abs(piece.log_power) + abs(kappa)) / piece.power:
            ys.append(ys[-1] * (1.0 + _SCAN_STEP / _SCAN_END))
        ds = [dlog(y) for y in ys]
        turns = []
        for y1, y2, d1, d2 in zip(ys[:-1], ys[1:], ds[:-1], ds[1:]):
            if d1 == 0.0:
                turns.append(y1)
            elif d1 * d2 < 0.0:
                turns.append(least_double(lambda y: math.copysign(1.0, d2) * dlog(y), y1, y2))
    side = 1.0 if piece.hi > 0.0 else -1.0
    along = side * outward > 0.0  # x grows with y
    finite_end, singular_end = (piece.lo, piece.hi) if along else (piece.hi, piece.lo)
    cuts = [finite_end, *(side * math.exp(outward * y) for y in turns), singular_end]  # in the order of growing y
    ys = [y0, *turns, math.inf]
    branches = []
    for a, b, ya, yb in zip(cuts[:-1], cuts[1:], ys[:-1], ys[1:]):
        rising = dlog(ya + 1.0 if yb == math.inf else (ya + yb) / 2.0) > 0.0  # |f| grows with y
        branches.append(MonotoneBranch(min(a, b), max(a, b), increasing=rising == along))
    return tuple(branches if along else reversed(branches))
