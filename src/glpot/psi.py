"""Exponent-interval weight functions and their transforms.

A weight is a positive continuous function psi on an open exponent interval
(a, b); the grand norm of f against psi is sup_p |f|_p / psi(p).  This module
provides the power-weight family (including the two-piece continuation used
when b is infinite), slowly varying factors, and every weight-to-weight
transform induced by the potential operators: the image weight under
fractional integration, its derivative variant, the smoothed-potential
derivative weight, the singular-transform weight, the slowly-varying
generalisation, and the truncation infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from scipy.optimize import brentq

from .errors import DomainError, FeasibilityError, NoRootError
from .exponents import ENDPOINT_MARGIN, MultiIndex, PotentialParams, _check_multiindex

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# slowly varying factors
# ---------------------------------------------------------------------------


class SlowlyVarying:
    """Positive function S on (0, inf) with S(lambda z)/S(z) -> 1 as z -> inf.

    The built-in family is (1 + ln(1+z))^kappa with |kappa| <= 2; arbitrary
    evaluators can be wrapped with :meth:`from_callable`.
    """

    def __init__(self, fn: Callable[[float], float], label: str, kappa: Optional[float] = None):
        self._fn = fn
        self.label = label
        self.kappa = kappa if kappa is not None else 0.0

    def __call__(self, z: float) -> float:
        if z < 0.0:
            raise DomainError(f"slowly varying argument must be >= 0, got {z}")
        return self._fn(z)

    def __repr__(self):
        return f"SlowlyVarying({self.label})"

    @property
    def is_constant(self) -> bool:
        return self.kappa == 0.0 and self.label == "1"

    @staticmethod
    def log_power(kappa: float) -> "SlowlyVarying":
        if abs(kappa) > 2.0:
            raise DomainError(f"built-in family restricted to |kappa| <= 2, got {kappa}")
        if kappa == 0.0:
            return SlowlyVarying.constant()
        return SlowlyVarying(lambda z: (1.0 + math.log1p(z)) ** kappa, f"(1+ln(1+z))^{kappa:g}", kappa)

    @staticmethod
    def constant() -> "SlowlyVarying":
        return SlowlyVarying(lambda z: 1.0, "1", 0.0)

    @staticmethod
    def from_callable(fn: Callable[[float], float], label: str = "user") -> "SlowlyVarying":
        return SlowlyVarying(fn, label, None)


def check_slowly_varying(S: SlowlyVarying, lambdas, z_max: float) -> float:
    """Max over the given lambdas of |S(lambda z_max)/S(z_max) - 1|."""
    if z_max < 1e3:
        raise DomainError(f"z_max must be >= 1e3, got {z_max}")
    base = S(z_max)
    return max(abs(S(lam * z_max) / base - 1.0) for lam in lambdas)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


class PsiFunction:
    """Positive weight p -> psi(p) on an open interval (a, b), b possibly inf."""

    def __init__(self, a: float, b: float, fn: Callable[[float], float], label: str = "psi"):
        if not (1.0 <= a < b):
            raise DomainError(f"need 1 <= a < b, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self._fn = fn
        self.label = label
        self._limits: Optional[tuple[float, float]] = None

    def __repr__(self):
        return f"PsiFunction({self.label} on ({self.a:g}, {self.b:g}))"

    def contains(self, p: float) -> bool:
        if p - self.a < ENDPOINT_MARGIN:
            return False
        if self.b != math.inf and self.b - p < ENDPOINT_MARGIN:
            return False
        return True

    def __call__(self, p: float) -> float:
        if not self.contains(p):
            raise DomainError(f"p={p!r} outside weight domain ({self.a:g}, {self.b:g})")
        value = self._fn(p)
        if not value > 0.0:
            raise DomainError(f"weight {self.label} non-positive at p={p}: {value!r}")
        return value

    @property
    def endpoint_limits(self) -> tuple[float, float]:
        """Numerically probed limits at a+0 and b-0 (math.inf when unbounded)."""
        if self._limits is None:
            self._limits = (self._probe(left=True), self._probe(left=False))
        return self._limits

    def _probe(self, left: bool) -> float:
        scale = 1.0 if self.b == math.inf else self.b - self.a
        vals = []
        for k in range(8, 26):
            if left:
                p = self.a + scale * 2.0**-k
            elif self.b == math.inf:
                p = max(self.a + 1.0, 2.0) * 2.0 ** (k - 7)
            else:
                p = self.b - scale * 2.0**-k
            try:
                vals.append(self._fn(p))
            except (OverflowError, ValueError):
                return math.inf
        # increments that keep growing toward the endpoint mean divergence;
        # a finite limit is approached with shrinking increments
        d1, d2 = vals[-1] - vals[-2], vals[-2] - vals[-3]
        if d1 > 0.0 and d1 >= 0.9 * d2 and vals[-1] > vals[-4]:
            return math.inf
        return vals[-1]

    def check_on_grid(self) -> dict:
        """Positivity and continuity smoke test on 256 uniform points of the interval's middle 70%.

        Continuity heuristic: adjacent relative jumps must stay below 10x the
        grid spacing (measured relative to the trimmed interval length).
        """
        n, trim = 256, 0.15
        hi = self.b if self.b != math.inf else self.a + max(2.0, 2.0 * (self.a + 1.0))
        length = hi - self.a
        lo, hi = self.a + trim * length, hi - trim * length
        step = (hi - lo) / (n - 1)
        values = [self._fn(lo + i * step) for i in range(n)]
        min_value = min(values)
        max_jump = 0.0
        for v1, v2 in zip(values[:-1], values[1:]):
            max_jump = max(max_jump, abs(v2 - v1) / min(v1, v2) if min(v1, v2) > 0 else math.inf)
        return {
            "positive": min_value > 0.0,
            "min_value": min_value,
            "max_rel_jump": max_jump,
            "jump_allowance": 10.0 * step,
            "continuous": max_jump <= 10.0 * step,
        }

    @staticmethod
    def constant(a: float, b: float, value: float = 1.0, label: Optional[str] = None) -> "PsiFunction":
        if value <= 0.0:
            raise DomainError(f"constant weight must be positive, got {value}")
        return PsiFunction(a, b, lambda p: value, label or f"const({value:g})")

    @staticmethod
    def from_callable(a: float, b: float, fn: Callable[[float], float], label: str = "psi") -> "PsiFunction":
        return PsiFunction(a, b, fn, label)


@dataclass(frozen=True)
class PowerPsiSpec:
    """Parameters of the power weight (p-a)^-beta (b-p)^-gamma.

    With b = inf the weight continues as p^-gamma = p^|gamma| past the
    crossover h solving (h-a)^-beta = h^-gamma; then beta > 0 and gamma < 0
    are required.
    """

    a: float
    b: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (1.0 <= self.a < self.b):
            raise DomainError(f"need 1 <= a < b, got a={self.a}, b={self.b}")
        if self.b == math.inf:
            if not (self.beta > 0.0 and self.gamma < 0.0):
                raise DomainError("infinite upper endpoint requires beta > 0 and gamma < 0")
        else:
            if self.beta < 0.0 or self.gamma < 0.0:
                raise DomainError("finite-interval power weight requires beta, gamma >= 0")


def make_power_psi(spec: PowerPsiSpec) -> PsiFunction:
    """Build the power weight; for b = inf the crossover is found by bracketed root-finding."""
    a, b, beta, gamma = spec.a, spec.b, spec.beta, spec.gamma
    if b != math.inf:
        fn = lambda p: (p - a) ** -beta * (b - p) ** -gamma
        return PsiFunction(a, b, fn, f"power(a={a:g},b={b:g},beta={beta:g},gamma={gamma:g})")

    def continuity_gap(h: float) -> float:
        return -beta * math.log(h - a) + gamma * math.log(h)

    lo, hi = a + 1e-9, a + 1e6
    if continuity_gap(lo) * continuity_gap(hi) > 0.0:
        raise NoRootError(f"continuity equation has no sign change on ({lo}, {hi})")
    h = float(brentq(continuity_gap, lo, hi, rtol=1e-12, maxiter=200))

    def fn(p: float) -> float:
        if p < h:
            return (p - a) ** -beta
        return p ** -gamma

    psi = PsiFunction(a, b, fn, f"power(a={a:g},b=inf,beta={beta:g},gamma={gamma:g},h={h:.12g})")
    psi.crossover = h
    return psi


def power_psi(a: float, b: float, beta: float, gamma: float) -> PsiFunction:
    """Convenience wrapper around :func:`make_power_psi`."""
    return make_power_psi(PowerPsiSpec(a, b, beta, gamma))


# ---------------------------------------------------------------------------
# serialization (CLI wire format)
# ---------------------------------------------------------------------------


def parse_psi_spec(text: str) -> PsiFunction:
    """Parse 'power:a=1,b=2,beta=1,gamma=1' or 'const:a=1,b=2,value=1'."""
    try:
        family, _, args = text.partition(":")
        kv = {}
        if args:
            for item in args.split(","):
                key, _, val = item.partition("=")
                kv[key.strip()] = float(val) if val.strip() != "inf" else math.inf
    except ValueError as exc:
        raise DomainError(f"malformed weight spec {text!r}: {exc}") from exc
    if family == "power":
        needed = {"a", "b", "beta", "gamma"}
        if set(kv) != needed:
            raise DomainError(f"power weight needs keys {sorted(needed)}, got {sorted(kv)}")
        return power_psi(kv["a"], kv["b"], kv["beta"], kv["gamma"])
    if family == "const":
        if not {"a", "b"} <= set(kv) <= {"a", "b", "value"}:
            raise DomainError(f"const weight needs keys a,b[,value], got {sorted(kv)}")
        return PsiFunction.constant(kv["a"], kv["b"], kv.get("value", 1.0))
    raise DomainError(f"unknown weight family {family!r}")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _q_image(a: float, b: float, params: PotentialParams, reduced_alpha: float) -> tuple[float, float]:
    """Image of (a, b) under p -> d p/(d - reduced_alpha p), with closure at the ends."""
    d = params.d
    q_lo = d / (d - reduced_alpha) if a <= 1.0 + ENDPOINT_MARGIN else a * d / (d - reduced_alpha * a)
    if b >= d / reduced_alpha - ENDPOINT_MARGIN:
        q_hi = math.inf
    else:
        q_hi = b * d / (d - reduced_alpha * b)
    return q_lo, q_hi


def riesz_zeta(psi: PsiFunction, params: PotentialParams) -> PsiFunction:
    """Image weight over q: [q^2/(q - d/(d-alpha))]^(1-alpha/d) psi(dq/(d+alpha q))."""
    d, alpha = params.d, params.alpha
    if psi.a < 1.0 - ENDPOINT_MARGIN or psi.b > params.p_upper + ENDPOINT_MARGIN:
        raise DomainError(f"weight domain ({psi.a}, {psi.b}) not inside [1, d/alpha] = [1, {params.p_upper}]")
    q_lo, q_hi = _q_image(psi.a, psi.b, params, alpha)
    expo = 1.0 - alpha / d

    def fn(q: float) -> float:
        return (q * q / (q - params.q_lower)) ** expo * psi(d * q / (d + alpha * q))

    return PsiFunction(q_lo, q_hi, fn, f"riesz_zeta[{psi.label}]")


def derivative_zeta(psi: PsiFunction, params: PotentialParams, xi: MultiIndex) -> PsiFunction:
    """Image weight for order-|xi| derivatives of the potential (verbatim bracket form)."""
    reduced = _check_multiindex(params, xi)
    d = params.d
    p_hi = d / reduced
    if psi.a < 1.0 - ENDPOINT_MARGIN or psi.b > p_hi + ENDPOINT_MARGIN:
        raise DomainError(f"weight domain ({psi.a}, {psi.b}) not inside [1, d/(alpha-|xi|)] = [1, {p_hi}]")
    q_lo, q_hi = _q_image(psi.a, psi.b, params, reduced)
    expo = 1.0 - reduced / d
    lead = (d - params.alpha + xi.order) / d

    def fn(q: float) -> float:
        return (q * lead) ** expo * psi(d * q / (d + q * reduced))

    return PsiFunction(q_lo, q_hi, fn, f"derivative_zeta[{psi.label},|xi|={xi.order}]")


def bessel_theta(psi: PsiFunction, params: PotentialParams, xi: MultiIndex) -> PsiFunction:
    """Weight over m for derivatives of the smoothed potential.

    Defined on m in (max(2 alpha/|xi|, 1), inf); parameter combinations that
    push a psi argument outside psi's domain surface as DomainError from the
    evaluation (the interval itself follows the defining formula).
    """
    alpha = params.alpha
    order = xi.order
    if order < 1:
        raise DomainError("derivative order |xi| must be >= 1")
    _check_multiindex(params, xi)
    if psi.a > 2.0 * order / alpha + ENDPOINT_MARGIN or psi.b != math.inf:
        raise DomainError(
            f"weight must be defined on (2|xi|/alpha, inf) = ({2.0 * order / alpha:g}, inf), got ({psi.a:g}, {psi.b:g})"
        )
    m_lo = max(2.0 * alpha / order, 1.0)

    def fn(m: float) -> float:
        lead = 2.0 * m * order / (2.0 * m * order - alpha)
        return (
            lead
            * psi(2.0 * m * order / alpha) ** (order / (2.0 * alpha))
            * psi(2.0 * m * (1.0 - order / alpha)) ** ((alpha - order) / (2.0 * alpha))
        )

    return PsiFunction(m_lo, math.inf, fn, f"bessel_theta[{psi.label},|xi|={order}]")


def singular_psi1(psi: PsiFunction) -> PsiFunction:
    """p^2/(p-1) psi(p) on psi's own interval (order-zero singular transform weight)."""
    if psi.a < 1.0 - ENDPOINT_MARGIN:
        raise DomainError(f"weight must start at a >= 1, got a={psi.a}")

    def fn(p: float) -> float:
        return p * p / (p - 1.0) * psi(p)

    return PsiFunction(psi.a, psi.b, fn, f"singular_psi1[{psi.label}]")


def zeta_S(psi: PsiFunction, params: PotentialParams, beta: float, S: SlowlyVarying) -> PsiFunction:
    """Slowly-varying generalisation of :func:`riesz_zeta` with extra log order beta."""
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    d, alpha = params.d, params.alpha
    if psi.a < 1.0 - ENDPOINT_MARGIN or psi.b > params.p_upper + ENDPOINT_MARGIN:
        raise DomainError(f"weight domain ({psi.a}, {psi.b}) not inside [1, d/alpha]")
    q_lo, q_hi = _q_image(psi.a, psi.b, params, alpha)
    expo = 1.0 + beta - alpha / d

    def fn(q: float) -> float:
        p = d * q / (d + alpha * q)
        bracket = (p - 1.0) * (params.p_upper - p)
        return psi(p) * S(1.0 / (p - 1.0)) * S(1.0 / (q * (d - alpha) - d)) / bracket**expo

    return PsiFunction(q_lo, q_hi, fn, f"zeta_S[{psi.label},beta={beta:g},S={S.label}]")


# ---------------------------------------------------------------------------
# truncation infimum
# ---------------------------------------------------------------------------


class NuResult(NamedTuple):
    value: float
    argmin_p: float


def _young_argument(p: float, r: float) -> float:
    """k = r p'/(r + p') with the p -> 1 limit k = r."""
    if p == 1.0:
        return r
    return r * p / ((r + 1.0) * p - r)


def truncated_nu_general(
    psi: PsiFunction,
    params: PotentialParams,
    beta: float,
    S: SlowlyVarying,
    r: float,
) -> NuResult:
    """inf over p in [1, d/(d-alpha)) of the truncated-operator weight objective.

    objective(p) = (d/(d-alpha) - p)^(-1-beta+alpha/d) * S((d-alpha)/(d - p(d-alpha)))
                   * psi(r p'/(r + p'))

    p values whose induced argument leaves psi's domain are excluded; the inf
    is located by golden-section search over the feasible interval plus
    geometric offset ladders toward both of its endpoints.
    """
    if r < 1.0:
        raise DomainError(f"r must be >= 1, got {r}")
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    d, alpha = params.d, params.alpha
    p_hi = params.q_lower  # d/(d-alpha), the upper end of the truncation exponent interval
    expo = -1.0 - beta + alpha / d

    def objective(p: float) -> float:
        k = _young_argument(p, r)
        if not psi.contains(k):
            return math.inf
        s_arg = (d - alpha) / (d - p * (d - alpha))
        return (p_hi - p) ** expo * S(s_arg) * psi(k)

    # the induced argument k(p) decreases from r at p=1; invert it to find the
    # feasible p interval against psi's domain (a, b)
    def p_of_k(k: float) -> float:
        return k * r / (k * r + k - r)

    lo = 1.0
    if psi.b != math.inf and r >= psi.b:
        lo = max(lo, p_of_k(psi.b))
    hi = p_hi
    k_at_hi = _young_argument(p_hi, r)
    if k_at_hi <= psi.a:
        hi = min(hi, p_of_k(psi.a))
    pad = 1e-13 * max(1.0, p_hi)
    lo_in, hi_in = lo + pad, hi - pad
    if not hi_in > lo_in:
        raise FeasibilityError(
            f"no p in [1, {p_hi:g}) maps into the weight domain ({psi.a:g}, {psi.b:g}) at r={r:g}"
        )

    candidates: list[float] = []
    if objective(1.0) < math.inf:
        candidates.append(1.0)
    # golden-section over the feasible interval
    a_, b_ = lo_in, hi_in
    c_ = b_ - _GOLDEN * (b_ - a_)
    d_ = a_ + _GOLDEN * (b_ - a_)
    fc, fd = objective(c_), objective(d_)
    for _ in range(160):
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - _GOLDEN * (b_ - a_)
            fc = objective(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + _GOLDEN * (b_ - a_)
            fd = objective(d_)
    candidates.append(c_ if fc < fd else d_)
    # geometric endpoint ladders (offsets 2^-k) toward both feasible endpoints
    for k in range(41):
        off = 2.0**-k
        for p in (hi_in - off, lo_in + off):
            if lo_in <= p <= hi_in:
                candidates.append(p)

    best_p = min(candidates, key=objective)
    best = objective(best_p)
    if not math.isfinite(best):
        raise FeasibilityError(f"objective infinite at every candidate for r={r:g}")
    return NuResult(best, best_p)


def truncated_nu(psi: PsiFunction, params: PotentialParams, r: float) -> NuResult:
    """Specialisation of :func:`truncated_nu_general` to beta = 0, S = 1.

    Delegates outright so the two share one search configuration bit for bit.
    """
    return truncated_nu_general(psi, params, 0.0, SlowlyVarying.constant(), r)
