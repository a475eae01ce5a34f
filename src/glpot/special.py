"""Special functions implemented to double precision.

The upper incomplete gamma function, computed by the classical series /
continued-fraction pair, and its logarithm.  ``log_upper_gamma`` serves the
closed-form norms; ``upper_gamma`` has no caller in the package (the
interval masses use scipy's ``gammaincc`` on arrays) and stays as the
independent reference the tests check ``gammaincc`` against.
"""

from __future__ import annotations

import math

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
