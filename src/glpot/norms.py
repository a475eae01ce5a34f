"""L_p norms, distribution functions and rearrangements of catalog functions.

The quadrature route takes |f|^p piece by piece and moves each singular
piece to the variable y = |ln|x||, where |f|^p dx becomes the gamma-type
integrand e^(-c y) y^m, times the slow factor when the form has one (``slow``
is None for a constant one).  Every exponent of a request is one row of the
batched Gauss-Legendre rule (:func:`~glpot.quadrature.integrate_batch`):
doubling panels outward from the integrand's peak, cut where
:func:`~glpot.quadrature.tail_cutoff` drops the rest, so a single p and a
whole grand-norm grid run the same code and get the same bits.  A plain
catalog piece is exact.  The closed-form route expresses every catalog form
without a slow factor through the upper incomplete gamma function and serves
as an independent oracle.  The distribution function inverts |f| on the
monotone branches the catalog derives from the pieces.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .catalog import MonotoneBranch, Piece, TestFunction
from .errors import DivergenceError, DomainError, ToleranceError
from .quadrature import QuadratureSpec, integrate_batch, logsumexp_pair, tail_cutoff
from .special import log_upper_gamma


class NormResult(NamedTuple):
    value: float
    rel_error: float


def _piece_converges(piece: Piece, p: float) -> bool:
    """Exponent analysis of |f|^p on one piece: e^(-c y) y^(log_power p) in y."""
    if piece.role == "plain":
        return True
    c = piece.rate(p)
    return c > 0.0 or (c == 0.0 and piece.log_power * p < -1.0)


def check_lp_convergence(f: TestFunction, p: float) -> None:
    for piece in f.pieces:
        if not _piece_converges(piece, p):
            raise DivergenceError(
                f"|{f.label}|_{p:g} diverges: piece {piece.role} on ({piece.lo:g}, {piece.hi:g}) "
                f"has local exponent {piece.power * p:g} (log order {piece.log_power * p:g})"
            )


_EPS = sys.float_info.epsilon
#: panel ends from y0 to halfway up to the peak, as fractions of that range:
#: halving toward y0, where the slow factor and, at y0 = 0 (a piece ending at
#: |x| = 1), y^m vary on the scale of y0 or less
_TOWARD_Y0 = np.concatenate([[0.0], 2.0 ** -np.arange(40, -1, -1)])


def _log_extra(f: TestFunction, piece: Piece):
    """y -> ln|f| minus the piece's annotation coefficient |x|^-power |ln|x||^log_power, or None if 0.

    For a catalog form that is ln S(y) of a varying slow factor.  A user
    density is evaluated while |x| = e^(-+y) is representable and follows
    its annotation beyond.
    """
    if f.evaluator is None:
        if f.slow is None:
            return None
        slow = np.vectorize(f.slow, otypes=[float])
        return lambda y: np.log(slow(y))
    sign_x = 1.0 if piece.hi > 0.0 else -1.0
    sign_y = -1.0 if piece.role == "origin" else 1.0
    density = np.vectorize(f, otypes=[float])

    def extra(y):
        near = y <= 700.0
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(density(sign_x * np.exp(sign_y * np.minimum(y, 700.0)))))
        annotation = math.log(f.coefficient) - sign_y * piece.power * y
        if piece.log_power != 0.0:
            annotation = annotation + piece.log_power * np.log(y)
        return np.where(near & (log_abs > -np.inf), log_abs - annotation, 0.0)

    return extra


def _log_singular_integrals(f: TestFunction, piece: Piece, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln of the |f|^p integral over one singular piece, its relative error) for every p.

    In y the integrand is C^p e^(-c y) y^m e^(p extra(y)), c = Piece.rate(p)
    and m = log_power p.  It is integrated in s = y - y_peak, the offset from
    its peak y_peak = max(y0, m/c), as exp(-c s + m ln(1 + s/y_peak) + ...):
    each term is small where the integrand is not, so none is the difference
    of two terms of size p power y, however large p or close to an endpoint
    of its interval.
    """
    c = np.array([piece.rate(p) for p in ps])
    if not (c > 0.0).all():
        raise DomainError(f"|{f.label}|_p: the batched rule needs |f|^p to decay exponentially in |ln|x||")
    m = piece.log_power * ps
    y0 = piece.y0
    y_peak = np.where(m > 0.0, np.maximum(y0, m / c), y0)
    ln_peak = np.log(y_peak, out=np.zeros_like(y_peak), where=(m != 0.0))
    right = np.array([tail_cutoff(ci, mi, y0) for ci, mi in zip(c, m)]) - y_peak
    left = (y0 - y_peak) / 2.0
    # in s: doubling panels outward from the peak, the first min(1, 4/c) wide to resolve it, right
    # to the tail cut and left to halfway down to y0; from there, panels halving toward y0
    width = np.minimum(1.0, 4.0 / c)
    n_doubling = int(np.ceil(np.log2(np.maximum(right, -left) / width + 1.0).max())) + 1
    doubling = width[:, None] * (2.0 ** np.arange(n_doubling + 1) - 1.0)
    outward_right, outward_left = np.minimum(doubling, right[:, None]), np.maximum(-doubling, left[:, None])
    below = (y0 - y_peak)[:, None] * (1.0 - _TOWARD_Y0 / 2.0)
    lo = np.concatenate([below[:, :-1], outward_left[:, 1:], outward_right[:, :-1]], axis=1)
    hi = np.concatenate([below[:, 1:], outward_left[:, :-1], outward_right[:, 1:]], axis=1)
    extra = _log_extra(f, piece)
    extra_peak = np.zeros(len(ps)) if extra is None else extra(y_peak)

    def exponent(rows, s):
        g = -c[rows, None] * s
        if piece.log_power != 0.0:
            g += m[rows, None] * np.log1p(s / y_peak[rows, None])
        if extra is not None:
            g += ps[rows, None] * (extra(y_peak[rows, None] + s) - extra_peak[rows, None])
        return g

    value, error = integrate_batch(lambda rows, s: np.exp(exponent(rows, s)), lo, hi)
    # the cut tail is below 2 e^-cT T^m / c: the cutoff T keeps cT > 2m + 2
    tail = 2.0 * np.exp(exponent(slice(None), right[:, None])[:, 0]) / c
    shift = ps * math.log(f.coefficient) - c * y_peak + m * ln_peak + ps * extra_peak
    return shift + np.log(value), (error + tail) / value


def _log_plain_integrals(f: TestFunction, piece: Piece, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln of the |f|^p integral over a bounded piece, its relative error) for every p.

    A catalog piece is the constant coefficient, so the integral is exact.
    A user density is integrated relative to its largest sampled value.
    """
    length = piece.hi - piece.lo
    if f.evaluator is None:
        return ps * math.log(f.coefficient) + math.log(length), np.zeros(len(ps))
    density = np.vectorize(f, otypes=[float])
    peak = np.abs(density(np.linspace(piece.lo, piece.hi, 129))).max()
    if peak == 0.0:
        return np.full(len(ps), -np.inf), np.zeros(len(ps))
    value, error = integrate_batch(
        lambda rows, x: (np.abs(density(x)) / peak) ** ps[rows, None],
        np.full((len(ps), 1), piece.lo),
        np.full((len(ps), 1), piece.hi),
    )
    with np.errstate(divide="ignore"):
        return ps * math.log(peak) + np.log(value), error / value


def _log_lp_integrals(f: TestFunction, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln of each piece's integral of |f|^p and that integral's relative error, one column per p.

    Every p must be >= 1 and pass check_lp_convergence.  Each singular piece
    is one integrate_batch call with a row per p, so a p's column does not
    depend on the other exponents of the request.
    """
    logs, rels = np.empty((2, len(f.pieces), len(ps)))
    for i, piece in enumerate(f.pieces):
        if piece.role == "plain":
            logs[i], rels[i] = _log_plain_integrals(f, piece, ps)
        elif piece.role in ("origin", "tail"):
            logs[i], rels[i] = _log_singular_integrals(f, piece, ps)
        else:
            raise DomainError(f"unknown piece role {piece.role!r}")
    return logs, rels


def _lp_norms(f: TestFunction, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|f|_p, its relative error) for every p of a request, each p on its own column."""
    try:
        logs, rels = _log_lp_integrals(f, ps)
    except (OverflowError, ZeroDivisionError) as exc:  # a user density evaluated in floats, at a pole
        where = f"{ps[0]:.17g}" if len(ps) == 1 else f"{ps.min():.17g} to {ps.max():.17g}"
        raise ToleranceError(
            f"|{f.label}|_p at p = {where} not resolved: the density raised {type(exc).__name__}: {exc}",
            achieved=math.inf,
        ) from exc
    log_total = functools.reduce(np.logaddexp, logs)
    with np.errstate(invalid="ignore"):  # nan where every piece is 0, dropped below
        # each piece's relative error, weighted by its share of the total
        rel = sum(r * np.exp(lv - log_total) for lv, r in zip(logs, rels))
    # the n-against-2n estimate misses rounding: a few ulps of ln|f|_p^p, then of the last exp
    rel = (rel + _EPS * (8.0 + np.abs(log_total))) / ps + _EPS  # of the norm, not of its p-th power
    return np.exp(log_total / ps), np.where(log_total == -np.inf, 0.0, rel)


def lp_norm_report(f: TestFunction, p: float, spec: QuadratureSpec | None = None) -> NormResult:
    """(integral of |f|^p)^(1/p) with an error estimate, by singular quadrature.

    Pieces are accumulated in log space, so norms stay accurate even when
    the p-th power integral itself would under- or overflow.  The reported
    error is the batched rule's n-against-2n estimate plus a rounding floor;
    past ``spec.rel_tol`` it raises ToleranceError.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    spec = spec or QuadratureSpec()
    check_lp_convergence(f, p)
    values, rels = _lp_norms(f, np.array([float(p)]))
    if not rels[0] <= spec.rel_tol:
        raise ToleranceError(f"|{f.label}|_{p:.17g} quadrature too inaccurate", achieved=float(rels[0]))
    return NormResult(float(values[0]), float(rels[0]))


def lp_norm(f: TestFunction, p: float, spec: QuadratureSpec | None = None) -> float:
    return lp_norm_report(f, p, spec).value


def lp_norm_closed_form(f: TestFunction, p: float) -> float:
    """Exact norm of a catalog form via the upper incomplete gamma.

    A singular piece contributes int_y0^inf e^(-c y) y^m dy = c^(-m-1) Gamma_up(m+1, c y0)
    in y = |ln|x|| (m = log_power p, c = Piece.rate(p), y0 = Piece.y0), a plain
    piece its length.  |f|_p^p is summed in log space and divided by p before
    exponentiating, so large p neither overflows Gamma_up nor underflows its tail.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    check_lp_convergence(f, p)
    if f.evaluator is not None or f.slow is not None:
        raise DomainError(f"no closed-form norm for {f.label}")
    log_power = -math.inf
    for piece in f.pieces:
        if piece.role == "plain":
            lv = math.log(piece.hi - piece.lo)
        else:
            m, c = piece.log_power * p, piece.rate(p)
            lv = (-m - 1.0) * math.log(c) + log_upper_gamma(m + 1.0, c * piece.y0)
        log_power = logsumexp_pair(log_power, lv)
    return f.coefficient * math.exp(log_power / p)


# ---------------------------------------------------------------------------
# distribution function and rearrangement
# ---------------------------------------------------------------------------

_BRENT_TOL = 1e-10
#: geometric levels of :func:`weak_lp_quasinorm`'s grid
_WEAK_GRID_SIZE = 1000


def _branch_endpoint_values(f: TestFunction, br: MonotoneBranch) -> tuple[float, float]:
    """(limit at lo, limit at hi) of |f| along a monotone branch."""

    def val_near(point: float, inward: float) -> float:
        if math.isinf(point):
            return 0.0  # catalog tails decay to zero
        if point == 0.0 and f.origin_exponents[0] > 0.0:
            return math.inf
        x = point + inward * 1e-13 * max(1.0, abs(point))
        v = abs(f(x))
        if v == 0.0:
            step = 1e-9
            for _ in range(40):
                v = abs(f(point + inward * step))
                if v > 0.0:
                    break
                step *= 4.0
        return v

    return val_near(br.lo, +1.0), val_near(br.hi, -1.0)


def _probe_points(endpoint: float, other: float, inward: float):
    """Points approaching `endpoint` from inside the branch.

    Infinite endpoints are approached by doubling outward; finite ones by
    offsets shrinking geometrically (which chases blow-up crossings that sit
    arbitrarily close to a singular endpoint)."""
    if math.isinf(endpoint):
        ref = abs(other) if not math.isinf(other) else 1.0
        pt = math.copysign(max(2.0, 2.0 * ref + 2.0), endpoint)
        for _ in range(1100):
            yield pt
            pt *= 2.0
    else:
        ref = max(1.0, abs(endpoint), abs(other) if not math.isinf(other) else 1.0)
        eps = 1e-13 * ref
        for _ in range(120):
            yield endpoint + inward * eps
            eps *= 1e-3
            if eps < 1e-290:
                return


def _invert_on_branch(f: TestFunction, br: MonotoneBranch, level: float) -> float:
    """Solve |f(x)| = level on a monotone branch by bracketed root-finding.

    The caller guarantees the level lies strictly between the branch's
    endpoint limits, so each bracket end only needs a probe of its own sign.
    """

    def g(x: float) -> float:
        return abs(f(x)) - level

    small_end = br.lo if br.increasing else br.hi
    big_end = br.hi if br.increasing else br.lo

    def find(endpoint: float, want_negative: bool) -> float:
        inward = 1.0 if endpoint == br.lo else -1.0
        for pt in _probe_points(endpoint, br.lo if endpoint == br.hi else br.hi, inward):
            val = g(pt)
            if val == 0.0:
                return pt
            if (val < 0.0) == want_negative:
                return pt
        raise DomainError(f"could not bracket level {level:g} on branch ({br.lo:g}, {br.hi:g})")

    a = find(small_end, want_negative=True)
    b = find(big_end, want_negative=False)
    if g(a) == 0.0:
        return a
    if g(b) == 0.0:
        return b
    lo_pt, hi_pt = min(a, b), max(a, b)
    return float(brentq(g, lo_pt, hi_pt, xtol=1e-280, rtol=1e-12, maxiter=500))


def distribution_function(f: TestFunction, level: float) -> float:
    """Measure of {x : |f(x)| > level}; may be math.inf."""
    if level <= 0.0:
        raise DomainError(f"level must be positive, got {level}")
    if f.evaluator is None and all(piece.role == "plain" for piece in f.pieces):
        return sum(piece.hi - piece.lo for piece in f.pieces) if f.coefficient > level else 0.0
    if not f.branches:
        raise DomainError(f"{f.label} carries no monotone-branch annotation")
    total = 0.0
    for br in f.branches:
        v_lo, v_hi = _branch_endpoint_values(f, br)
        above_lo, above_hi = v_lo > level, v_hi > level
        if above_lo and above_hi:
            if math.isinf(br.hi) or math.isinf(br.lo):
                return math.inf
            total += br.hi - br.lo
        elif above_lo or above_hi:
            x_cross = _invert_on_branch(f, br, level)
            total += (x_cross - br.lo) if above_lo else (br.hi - x_cross)
    return total


def decreasing_rearrangement(f: TestFunction, t: float) -> float:
    """f*(t) = inf{level : m_f(level) <= t}, by bisection on the level."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    hi = 1.0
    for _ in range(200):
        if distribution_function(f, hi) <= t:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = hi
    for _ in range(1100):
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
        if distribution_function(f, lo) > t:
            break
        hi = lo  # the bracket stays within a factor 2, so the relative width below is reached
    else:
        return 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if distribution_function(f, mid) <= t:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _BRENT_TOL * hi:
            break
    return hi


def weak_lp_quasinorm(f: TestFunction, p: float) -> float:
    """sup over a geometric level grid of level * m_f(level)^(1/p).

    The grid of ``_WEAK_GRID_SIZE`` levels spans the essential range of |f|
    (read off the rearrangement at extreme measure scales) and is refined
    geometrically below interior plateau edges so suprema approached
    one-sidedly are captured.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    hi = decreasing_rearrangement(f, 1e-9)
    lo = decreasing_rearrangement(f, 1e6)
    if not hi > 0.0:
        return 0.0
    if math.isinf(hi):
        return math.inf  # mass above every level
    if not lo > 0.0:
        lo = hi * 1e-12
    lo = min(lo, hi * (1.0 - 1e-9))
    levels = [lo * (hi / lo) ** (i / (_WEAK_GRID_SIZE - 1)) for i in range(_WEAK_GRID_SIZE)]
    levels += [hi * (1.0 - 2.0**-k) for k in range(1, 41)]
    levels += [lo * (1.0 + 2.0**-k) for k in range(1, 41)]
    best = 0.0
    for level in levels:
        if level <= 0.0:
            continue
        m = distribution_function(f, level)
        if math.isinf(m):
            return math.inf
        if m > 0.0:
            best = max(best, level * m ** (1.0 / p))
    return best
