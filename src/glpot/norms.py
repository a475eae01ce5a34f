"""L_p norms, distribution functions and rearrangements of catalog functions.

The quadrature route takes |f|^p piece by piece and moves each singular
piece to the variable y = |ln|x||, where |f|^p dx becomes the gamma-type
integrand e^(-c y) y^m, times the slow factor when the form has one (``slow``
is None for a constant one).  Every exponent of a request is one row of the
batched Gauss-Kronrod rule (:func:`~glpot.quadrature.integrate_batch`):
doubling panels outward from the integrand's peak, cut where
:func:`~glpot.quadrature.tail_cutoff` drops the rest, so a single p and a
whole grand-norm grid run the same code and get the same bits.  Below the
peak, panels halve toward the range's start y_lo only down to the scale
the integrand varies on there, y_lo: a row keeps the halving panels at
least y_lo wide and the top one, so it still tiles its range.  The
mirror-image pieces of an even catalog form share one integral.  A row may
cover part of a piece: the interval masses of :mod:`glpot.potentials` are
this integral at p = 1, one row per interval.  A plain catalog piece is
exact.  The closed-form route expresses every catalog form without a slow
factor through the upper incomplete gamma function and serves as an
independent oracle.  The distribution function inverts |f| on the
monotone branches the catalog derives from the pieces, and the decreasing
rearrangement inverts the distribution function, each root the double
where a comparison turns, by :func:`~glpot.special.least_double`.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .catalog import MonotoneBranch, Piece, TestFunction, _end
from .errors import DivergenceError, DomainError, ToleranceError
from .quadrature import QuadratureSpec, integrate_batch, tail_cutoff
from .special import least_double, log_upper_gamma


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
                f"|{f.label}|_{p:g} diverges: piece {piece.role} on ({_end(piece.lo)}, {_end(piece.hi)}) "
                f"has local exponent {piece.power * p:g} (log order {piece.log_power * p:g})"
            )


_EPS = sys.float_info.epsilon
_LOG_MIN = math.log(sys.float_info.min)  #: ln of the smallest normal float
#: panel ends from a range's start y_lo to halfway up to the peak, as fractions of that range:
#: halving toward y_lo, down to the scale on which the slow factor and y^m vary there, y_lo
#: itself.  A row keeps the edges at least y_lo from its start and the top one, all 41 panels
#: where y_lo = 0 (a piece ending at |x| = 1); the others collapse onto the start
_TOWARD_Y0 = np.concatenate([[0.0], 2.0 ** -np.arange(40, -1, -1)])


def _log_extra(f: TestFunction, piece: Piece):
    """y -> ln|f| minus the piece's annotation coefficient |x|^-power |ln|x||^log_power, or None if 0.

    For a catalog form that is ln S(y) of a varying slow factor.  A user
    density is called only where |x| = e^(-+y) is representable and its
    annotation is a normal float, and follows its annotation elsewhere: past
    either limit its value is no longer a number to compare with.  Where it
    is called and is 0 it is a true zero, -inf.
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
        annotation = math.log(f.coefficient) - sign_y * piece.power * y
        if piece.log_power != 0.0:
            annotation = annotation + piece.log_power * np.log(y)
        called = (y <= 700.0) & (annotation >= _LOG_MIN)
        out = np.zeros(y.shape)
        if called.any():
            with np.errstate(divide="ignore"):
                out[called] = np.log(np.abs(density(sign_x * np.exp(sign_y * y[called])))) - annotation[called]
        return out

    return extra


def _log_singular_integrals(f: TestFunction, piece: Piece, ps: np.ndarray, y_lo: np.ndarray | None = None,
                            length: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(ln of the |f|^p integral over y in (y_lo, y_lo + length), its relative error), one per row of ps.

    The range is part of one singular piece, by default all of it: (y0, inf).

    In y the integrand is C^p e^(-c y) y^m e^(p extra(y)), c = Piece.rate(p)
    and m = log_power p.  It is integrated in s = y - y_peak, the offset from
    its peak y_peak: max(y_lo, m/c) within the range where it decays (c > 0),
    the range's far end where it does not, as exp(-c s + m ln(1 + s/y_peak) + ...):
    each term is small where the integrand is not, so none is the difference
    of two terms of size p power y, however large p or close to an endpoint
    of its interval.  The range ends at y_lo - y_peak + length in s, so a
    short one keeps the digits of its length.  An infinite length needs c > 0,
    or c = 0 and m < -1, and is cut where tail_cutoff drops the rest, which the
    error then covers.  Such a row with c = 0 decays only as a power of y, so it
    is integrated in ln y instead, where y^m dy = e^((m + 1) ln y) d ln y: its
    rate there is -(m + 1) and its power 0.
    """
    c = np.array([piece.rate(p) for p in ps])
    m = piece.log_power * ps
    y_lo, length = ([piece.y0] * len(ps), [math.inf] * len(ps)) if y_lo is None else (y_lo.tolist(), length.tolist())
    in_log = None  # the rows run in ln y, if any: they need a negative log power
    if piece.log_power < 0.0:
        in_log = (c == 0.0) & (m < -1.0) & np.isinf(length)
        in_log = in_log if in_log.any() else None
    if in_log is not None:
        with np.errstate(divide="ignore"):  # y_lo = 0, where y^m is not integrable: nan below
            y_lo = np.where(in_log, np.log(y_lo), y_lo).tolist()
        c, m = np.where(in_log, -1.0 - m, c), np.where(in_log, 0.0, m)
    rows = []  # (y_peak, start, right, cut rate) of each row, in floats: as arrays each step would be a numpy call
    for ci, mi, lo, n in zip(c.tolist(), m.tolist(), y_lo, length):
        # e^(-c y) y^m peaks at m/c, clipped to the range, and at its far end hi where c <= 0
        hi = lo + n
        peak = hi if ci <= 0.0 else max(lo, min(mi / ci, hi)) if mi > 0.0 else lo
        start = -n if peak == hi else lo - peak  # a peak at the far end: its s is 0, exactly
        if n < math.inf:  # no tail is cut from a finite range
            rows.append((peak, start, start + n, math.inf))
        elif ci > 0.0:
            rows.append((peak, start, tail_cutoff(ci, mi, lo) - peak, ci))
        else:
            raise DomainError(f"|{f.label}|_p: the batched rule needs |f|^p to decay exponentially in |ln|x||")
    y_peak, start, right, cut_rate = np.array(rows).reshape(-1, 4).T
    ln_peak = np.log(y_peak, out=np.zeros_like(y_peak), where=(m != 0.0))
    left = start / 2.0
    # in s: doubling panels outward from the peak, the first min(1, 4/|c|) wide to resolve it, right
    # to the range's end or tail cut and left to halfway down to y_lo; from there, panels halving toward y_lo
    width = 4.0 / np.maximum(np.abs(c), 4.0)
    n_doubling = int(np.ceil(np.log2(np.maximum(right, -left) / width + 1.0).max(initial=0.0))) + 1
    doubling = width[:, None] * (2.0 ** np.arange(n_doubling + 1) - 1.0)
    outward_right, outward_left = np.minimum(doubling, right[:, None]), np.maximum(-doubling, left[:, None])
    below = start[:, None] * (1.0 - _TOWARD_Y0 / 2.0)
    # halving edges closer than y_lo to the start collapse onto it, and their empty panels cost nothing;
    # the top edge stays, so the panels still tile the range.  A row in ln y starts at its peak
    near = -start[:, None] * (_TOWARD_Y0 / 2.0) < np.array(y_lo)[:, None]
    near[:, -1] = False
    below = np.where(near, start[:, None], below)
    lo = np.concatenate([below[:, :-1], outward_left[:, 1:], outward_right[:, :-1]], axis=1)
    hi = np.concatenate([below[:, 1:], outward_left[:, :-1], outward_right[:, 1:]], axis=1)
    y_scale = y_peak if in_log is None else np.where(in_log, 1.0, y_peak)  # of the m term, 0 on rows in ln y

    def y_at(v, rows):  # y at the coordinate v = y_peak + s of rows; on the rows in ln y, v is ln y
        if in_log is None:
            return v
        with np.errstate(over="ignore"):  # past |x| = e^700 a user density follows its annotation anyway
            return np.where(in_log[rows], np.exp(v), v)

    extra = _log_extra(f, piece)
    extra_peak = np.zeros(len(ps)) if extra is None else extra(y_at(y_peak, slice(None)))
    if f.evaluator is not None:  # a density that is 0 at the peak: scale by its annotation there
        extra_peak[extra_peak == -np.inf] = 0.0

    def exponent(rows, s):
        g = -c[rows, None] * s
        if piece.log_power != 0.0:
            g += m[rows, None] * np.log1p(s / y_scale[rows, None])
        if extra is not None:
            g += ps[rows, None] * (extra(y_at(y_peak[rows, None] + s, (rows, None))) - extra_peak[rows, None])
        return g

    value, error = integrate_batch(lambda rows, s: np.exp(exponent(rows, s)), lo, hi)
    # the cut tail is below 2 e^-cT T^m / c: the cutoff T keeps cT > 2m + 2
    tail = 2.0 * np.exp(exponent(slice(None), right[:, None])[:, 0]) / cut_rate
    shift = ps * math.log(f.coefficient) - c * y_peak + m * ln_peak + ps * extra_peak
    return shift + np.log(value), (error + tail) / value


def _log_plain_integrals(f: TestFunction, piece: Piece, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln of the |f|^p integral over a bounded piece, its relative error) for every p.

    A catalog piece is the constant coefficient, so the integral is exact.
    A user density is integrated relative to its largest sampled value.
    """
    length = piece.hi - piece.lo
    if math.isinf(length):
        raise DomainError(f"{f.label}: a plain piece has no decay hint to integrate its unbounded range by")
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
    depend on the other exponents of the request.  The mirror images of an
    even catalog form (same role, exponents and |ends|) have the same
    integrand in y, coefficient and slow factor included, so they share one.
    """
    logs, rels = np.empty((2, len(f.pieces), len(ps)))
    mirrored = {}  # a catalog form's singular integrals by role, exponents and |ends|
    for i, piece in enumerate(f.pieces):
        if piece.role == "plain":
            logs[i], rels[i] = _log_plain_integrals(f, piece, ps)
            continue
        key = (piece.role, piece.power, piece.log_power, *sorted((abs(piece.lo), abs(piece.hi))))
        if f.evaluator is not None or key not in mirrored:  # a user density's two sides may differ
            mirrored[key] = _log_singular_integrals(f, piece, ps)
        logs[i], rels[i] = mirrored[key]
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
    # the G20/K41 estimate misses rounding: a few ulps of ln|f|_p^p, then of the last exp
    rel = (rel + _EPS * (8.0 + np.abs(log_total))) / ps + _EPS  # of the norm, not of its p-th power
    return np.exp(log_total / ps), np.where(log_total == -np.inf, 0.0, rel)


def lp_norm_report(f: TestFunction, p: float, spec: QuadratureSpec | None = None) -> NormResult:
    """(integral of |f|^p)^(1/p) with an error estimate, by singular quadrature.

    Pieces are accumulated in log space, so norms stay accurate even when
    the p-th power integral itself would under- or overflow.  The reported
    error is the batched rule's G20/K41 estimate plus a rounding floor;
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
    logs = []
    for piece in f.pieces:
        if piece.role == "plain":
            logs.append(math.log(piece.hi - piece.lo))
        else:
            m, c = piece.log_power * p, piece.rate(p)
            logs.append((-m - 1.0) * math.log(c) + log_upper_gamma(m + 1.0, c * piece.y0))
    return f.coefficient * math.exp(functools.reduce(np.logaddexp, logs) / p)


# ---------------------------------------------------------------------------
# distribution function and rearrangement
# ---------------------------------------------------------------------------

#: geometric levels of :func:`weak_lp_quasinorm`'s grid
_WEAK_GRID_SIZE = 1000


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) for a, b >= 0, nonzero with the sign of a - b where a != b: near 1, log1p of the exact a - b."""
    if a == 0.0 or b == math.inf:
        return -math.inf if a != b else 0.0
    if b == 0.0 or a == math.inf:
        return math.inf
    if 0.5 <= a / b <= 2.0:
        return math.log1p((a - b) / b)
    return math.log(a) - math.log(b)


def _branch_endpoint_values(f: TestFunction, br: MonotoneBranch) -> tuple[float, float]:
    """(limit at lo, limit at hi) of |f| along a monotone branch: |f| at the double next to a finite regular end."""

    def val_near(point: float, inward: float) -> float:
        if math.isinf(point):
            return 0.0  # catalog tails decay to zero
        if point == 0.0 and f.origin_exponents[0] > 0.0:
            return math.inf
        return abs(f(math.nextafter(point, inward)))

    return val_near(br.lo, br.hi), val_near(br.hi, br.lo)


def distribution_function(f: TestFunction, level: float) -> float:
    """Measure of {x : |f(x)| > level}; may be math.inf.

    On a branch that crosses the level, the crossing is the least double
    past which |f| <= level (falling) or |f| >= level (rising), by
    :func:`~glpot.special.least_double`; the two differ only where |f|
    equals the level, a set of measure 0.
    """
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
        elif above_lo:
            total += least_double(lambda x: _log_ratio(level, abs(f(x))), br.lo, br.hi) - br.lo
        elif above_hi:
            total += br.hi - least_double(lambda x: _log_ratio(abs(f(x)), level), br.lo, br.hi)
    return total


def decreasing_rearrangement(f: TestFunction, t: float) -> float:
    """f*(t) = inf{level : m_f(level) <= t}: the least positive double with m_f <= t, 0 where every one has it."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    level = least_double(lambda lam: _log_ratio(t, distribution_function(f, lam)), 0.0, math.inf)
    return 0.0 if level == math.ulp(0.0) else level


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
