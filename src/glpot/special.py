"""Special functions implemented to double precision, and the one root search over the doubles.

The upper incomplete gamma function, computed by the classical series /
continued-fraction pair, and its logarithm.  ``log_upper_gamma`` serves the
closed-form norms; ``upper_gamma`` has no caller in the package (the
interval masses use scipy's ``gammaincc`` on arrays) and stays as the
independent reference the tests check ``gammaincc`` against.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

from .errors import DomainError, ToleranceError

_EPS = 1e-15


def _max_iter(s: float) -> int:
    # near x = s the series needs ~7.4 sqrt(s) terms to reach _EPS, the continued fraction ~0.9 sqrt(s)
    return 500 + int(16.0 * math.sqrt(s))


def _lower_regularized_series(s: float, x: float) -> float:
    """P(s,x) by the power series, for x < s + 1."""
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_max_iter(s)):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ToleranceError(f"incomplete gamma series at s={s!r}, x={x!r} did not converge", abs(term / total))
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_cf(s: float, x: float) -> float:
    """h in Q(s,x) = h x^s e^(-x) / Gamma(s), by a modified Lentz continued fraction, for x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _max_iter(s)):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ToleranceError(f"incomplete gamma fraction at s={s!r}, x={x!r} did not converge", abs(delta - 1.0))
    return h


def upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma integral of x^(s-1) e^(-x) over (x, infinity).

    Accurate to better than 1e-10 relative for s > 0, x >= 0 in the ranges
    the norm formulas use (s up to ~50, x up to ~700).
    """
    if s <= 0.0:
        raise DomainError(f"shape must be positive, got s={s!r}")
    if x < 0.0:
        raise DomainError(f"lower limit must be >= 0, got x={x!r}")
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return (1.0 - _lower_regularized_series(s, x)) * math.gamma(s)
    return _upper_cf(s, x) * math.exp(-x + s * math.log(x) - math.lgamma(s)) * math.gamma(s)


def log_upper_gamma(s: float, x: float) -> float:
    """log of :func:`upper_gamma`, usable when gamma(s) itself would overflow."""
    if s <= 0.0:
        raise DomainError(f"shape must be positive, got s={s!r}")
    if x < 0.0:
        raise DomainError(f"lower limit must be >= 0, got x={x!r}")
    if x == 0.0:
        return math.lgamma(s)
    if x < s + 1.0:
        return math.log1p(-_lower_regularized_series(s, x)) + math.lgamma(s)
    # ln h - x + s ln x: no exp, so nothing underflows for large x
    return math.log(_upper_cf(s, x)) - x + s * math.log(x)


_AS_DOUBLE, _AS_INT = struct.Struct("<d"), struct.Struct("<q")


def _rank(x: float) -> int:
    """x's position in the order of all doubles: 0 at +-0, +-1 at the least subnormals, +-2^63 - 2^52 at +-inf."""
    i = _AS_INT.unpack(_AS_DOUBLE.pack(x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _double(rank: int) -> float:
    """The double of a rank: the inverse of _rank (-0 comes back as +0)."""
    x = _AS_DOUBLE.unpack(_AS_INT.pack(abs(rank)))[0]
    return x if rank >= 0 else -x


def least_double(g: Callable[[float], float], lo: float, hi: float) -> float:
    """The least double x in (lo, hi] with g(x) >= 0, where that test turns true once from lo to hi.

    Every root glpot finds comes from here.  g is not called at the ends, so
    an end may be singular or infinite; hi comes back where the test is false
    throughout.  The bracket is kept as ranks (:func:`_rank`), so it spans
    zero, the subnormals and +-max with no tolerance and ends at two
    neighbouring doubles.  A step takes the Illinois secant point of g in
    rank space, where a rank grows like ln|x| (so g should be a log ratio
    where the test compares magnitudes), and the midpoint until both ends
    have values or where two steps did not halve the bracket: at most three
    calls per halving of its 2^64 ranks, 192 in all.
    """
    a, b = _rank(lo), _rank(hi)
    g_a = g_b = math.nan  # not called at the ends
    kept = 0  # which end the last step kept: -1 the lower, 1 the upper
    before = last = 2 * (b - a)  # the width two steps back and one step back
    while b - a > 1:
        width = b - a
        if 2 * width > before + 1 or not 0.0 < g_b - g_a < math.inf:  # nan until both ends have values
            r = a + width // 2
        else:
            r = min(max(b - round(g_b / (g_b - g_a) * width), a + 1), b - 1)
        value = g(_double(r))
        if value >= 0.0:
            b, g_b = r, value
            if kept == -1:  # the lower end kept twice: Illinois halves its value
                g_a *= 0.5
            kept = -1
        else:
            a, g_a = r, value
            if kept == 1:
                g_b *= 0.5
            kept = 1
        before, last = last, width
    return _double(b)
