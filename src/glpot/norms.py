"""L_p norms, distribution functions and rearrangements of catalog functions.

The quadrature route splits |f|^p at every singularity, moves log-singular
pieces to the variable y = |ln|x|| (where they become gamma-type integrands),
and truncates infinite ranges by the tail rule of the quadrature spec.  The
closed-form route expresses every catalog form with a constant slow factor
through the upper incomplete gamma function and serves as an independent
oracle.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from scipy.integrate import IntegrationWarning
from scipy.optimize import brentq

from .catalog import MonotoneBranch, Piece, TestFunction
from .errors import DivergenceError, DomainError, ToleranceError
from .quadrature import QuadratureSpec, integrate_decaying, integrate_panel, logsumexp_pair
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


def _piece_log_abs(f: TestFunction, piece: Piece, y: float) -> float:
    """ln|f| at |x| = e^(-y) (origin piece) or e^y (tail piece), exactly.

    The catalog densities coincide with their annotation |x|^-power
    |ln|x||^log_power (times the slow factor) throughout the piece; user
    densities are evaluated directly while |x| is representable and through
    their decay hint beyond.
    """
    sign_y = piece.power if piece.role == "origin" else -piece.power
    if f.evaluator is None:
        val = math.log(f.coefficient) + sign_y * y
        if piece.log_power != 0.0:
            val += piece.log_power * math.log(max(y, 1e-300))
        if f.slow is not None:
            val += math.log(f.slow(y))
        return val
    if y <= 700.0:
        x = math.exp(-y) if piece.role == "origin" else math.exp(y)
        x = x if piece.hi > 0.0 or piece.hi == math.inf else -x
        v = abs(f(x))
        if v > 0.0:
            return math.log(v)
    return math.log(f.coefficient) + sign_y * y + piece.log_power * math.log(max(y, 1e-300))


def _log_piece_integral(f: TestFunction, piece: Piece, p: float, spec: QuadratureSpec) -> tuple[float, float]:
    """(ln of the |f|^p integral over one singular piece, relative error).

    The transformed integrand exp(p ln|f| -+ y) is rescaled by its peak so
    arbitrarily large p cannot underflow the quadrature.
    """
    y0, decay = piece.y0, piece.rate(p)
    orient = -1.0 if piece.role == "origin" else 1.0

    def log_integrand(y: float) -> float:
        return p * _piece_log_abs(f, piece, y) + orient * y

    # peak of e^{-c y} y^m sits at y = m/c
    m = piece.log_power * p
    y_peak = max(y0, m / decay) if decay > 0.0 and m > 0.0 else y0
    shift = max(log_integrand(y0), log_integrand(y_peak))

    def integrand(y: float) -> float:
        return math.exp(log_integrand(y) - shift)

    if decay > 0.0:
        width = min(1.0, 4.0 / decay)  # resolve the boundary layer at huge p
        v, e = integrate_decaying(integrand, y0, spec, decay_rate=decay, poly_degree=m, first_width=width)
    else:
        v, e = integrate_decaying(integrand, y0, spec)
    if v <= 0.0:
        return -math.inf, 0.0
    return shift + math.log(v), e / v


def _log_plain_piece(f: TestFunction, piece: Piece, p: float, spec: QuadratureSpec) -> tuple[float, float]:
    """(ln of the |f|^p integral over a bounded piece, relative error)."""
    xs = [piece.lo + (piece.hi - piece.lo) * i / 128.0 for i in range(129)]
    peak = max(abs(f(x)) for x in xs)
    if peak == 0.0:
        return -math.inf, 0.0
    v, e = integrate_panel(lambda x: (abs(f(x)) / peak) ** p, piece.lo, piece.hi, spec)
    if v <= 0.0:
        return -math.inf, 0.0
    return p * math.log(peak) + math.log(v), e / v


def lp_norm_report(f: TestFunction, p: float, spec: QuadratureSpec | None = None) -> NormResult:
    """(integral of |f|^p)^(1/p) with an error estimate, by singular quadrature.

    Pieces are accumulated in log space, so norms stay accurate even when
    the p-th power integral itself would under- or overflow.  QUADPACK's
    warnings are silenced: the error check below decides whether the norm is
    accurate enough.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    spec = spec or QuadratureSpec()
    check_lp_convergence(f, p)
    logs: list[float] = []
    rels: list[float] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for piece in f.pieces:
            if piece.role == "plain":
                lv, rel = _log_plain_piece(f, piece, p, spec)
            elif piece.role in ("origin", "tail"):
                lv, rel = _log_piece_integral(f, piece, p, spec)
            else:
                raise DomainError(f"unknown piece role {piece.role!r}")
            logs.append(lv)
            rels.append(rel)
    log_total = -math.inf
    for lv in logs:
        log_total = logsumexp_pair(log_total, lv)
    if log_total == -math.inf:
        return NormResult(0.0, 0.0)
    # weight each piece's relative error by its share of the total
    rel = sum(r * math.exp(lv - log_total) for lv, r in zip(logs, rels) if lv > -math.inf)
    rel /= p  # relative error of the norm, not of its p-th power
    if rel > spec.rel_tol:
        raise ToleranceError(f"|{f.label}|_{p:.17g} quadrature too inaccurate", achieved=rel)
    return NormResult(math.exp(log_total / p), rel)


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
    if f.evaluator is not None or not (f.slow is None or f.slow.is_constant):
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


def _branch_endpoint_values(f: TestFunction, br: MonotoneBranch) -> tuple[float, float]:
    """(limit at lo, limit at hi) of |f| along a monotone branch."""

    def val_near(point: float, inward: float) -> float:
        if math.isinf(point):
            return 0.0  # catalog tails decay to zero
        for s in f.singularities:
            if s.location == point and s.power > 0.0:
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
    else:
        return 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if distribution_function(f, mid) <= t:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _BRENT_TOL * max(1.0, hi):
            break
    return hi


def weak_lp_quasinorm(f: TestFunction, p: float, grid_size: int = 1000) -> float:
    """sup over a geometric level grid of level * m_f(level)^(1/p).

    The grid spans the essential range of |f| (read off the rearrangement at
    extreme measure scales) and is refined geometrically below interior
    plateau edges so suprema approached one-sidedly are captured.
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
    levels = [lo * (hi / lo) ** (i / (grid_size - 1)) for i in range(grid_size)]
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
