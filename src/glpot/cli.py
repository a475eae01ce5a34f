"""Command-line interface: weight transforms, norms, potentials and experiments.

Exit codes: 0 success, 2 validation error (bad arguments, malformed specs,
unknown config keys), 3 numeric failure (divergence, tolerance, feasibility).
``lpnorm``, ``vfun`` and ``potential`` write every row even when some
exponents or points fail (value inf where it diverges, nan where it missed
its tolerance), name each failure on stderr, then exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import TestFunction
from .errors import DivergenceError, DomainError, FeasibilityError, ToleranceError
from .exponents import MultiIndex, PotentialParams, sobolev_q
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, format_value, run_experiment
from .grand import PotentialNormEvaluator, grand_norm, v_functional
from .norms import lp_norm_report
from .potentials import EvalGrid, KernelSpec, apply_kernel_report, parse_kernel_spec
from .psi import SlowlyVarying, bessel_theta, derivative_zeta, parse_psi_spec, riesz_zeta, singular_psi1, zeta_S
from .quadrature import QuadratureSpec


def _big_r(alpha: float, delta: float, kappa: float | None = None) -> TestFunction:
    return TestFunction.big_r(alpha, delta, None if kappa is None else SlowlyVarying.log_power(kappa))


#: every catalog form: its spec NAME:ARGS (a bracketed argument may be left out), what it is, and its constructor
_FORMS = (
    ("g_delta:DELTA", "x^-1 (ln x)^DELTA on (e, inf)", TestFunction.g_delta),
    ("f_delta:ALPHA,DELTA", "x^-ALPHA |ln x|^DELTA on (0, 1/e)", TestFunction.f_delta),
    ("h_delta:ALPHA,DELTA", "f_delta + g_delta (disjoint supports)", TestFunction.h_delta),
    ("f_zero:ALPHA,GAMMA", "f_delta with DELTA = GAMMA - ALPHA", TestFunction.f_zero),
    ("big_r:ALPHA,DELTA[,KAPPA]", "|x|^-ALPHA |ln|x||^DELTA (1+ln(1+|ln|x||))^KAPPA on 0<|x|<1/e", _big_r),
    ("example3:ALPHA,GAMMA", "|x|^-ALPHA |ln|x||^(GAMMA-ALPHA) on |x|>1", TestFunction.example3),
    ("indicator:LO,HI", "1 on [LO, HI]", TestFunction.indicator),
)


def parse_form_spec(text: str) -> TestFunction:
    name, _, args = text.partition(":")
    try:
        vals = [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise DomainError(f"malformed form spec {text!r}") from exc
    for spec, _, build in _FORMS:
        form, _, signature = spec.partition(":")
        required, _, optional = signature.partition("[")
        n_required = required.count(",") + 1
        if name == form and n_required <= len(vals) <= n_required + optional.count(","):
            return build(*vals)
    raise DomainError(f"unknown form spec {text!r} (see the 'catalog' subcommand)")


def parse_grid_spec(text: str) -> EvalGrid:
    parts = text.split(":")
    if len(parts) != 4:
        raise DomainError(f"grid spec must be RULE:LO:HI:N, got {text!r}")
    rule = parts[0]
    try:
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise DomainError(f"malformed grid spec {text!r}") from exc
    if rule == "geometric":
        return EvalGrid.geometric(lo, hi, n)
    if rule == "uniform":
        return EvalGrid.uniform(lo, hi, n)
    raise DomainError(f"unknown grid rule {rule!r}")


def _parse_multiindex(text: str) -> MultiIndex:
    try:
        return MultiIndex(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise DomainError(f"malformed multi-index {text!r}") from exc


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_rows(header: str, name: str, points, lead, compute, out: str | None) -> int:
    """Write a CSV row per point, lead(point)'s columns then compute(point)'s, and return the exit code.

    A point where compute raises DivergenceError reads inf (every integrand is non-negative), one
    where it raises ToleranceError nan, in its first computed column and nan in the rest; it is named
    on stderr, every row is still written, and the code is 3.
    """
    lines, failed = [header], 0
    for point in points:
        cells = lead(point)
        try:
            cells += tuple(compute(point))
        except (DivergenceError, ToleranceError) as exc:
            sys.stderr.write(f"numeric failure at {name}={format_value(point)}: {exc}\n")
            n_computed = header.count(",") + 1 - len(cells)
            cells += (math.inf if isinstance(exc, DivergenceError) else math.nan,) + (math.nan,) * (n_computed - 1)
            failed += 1
        lines.append(",".join(format_value(cell) for cell in cells))
    _emit(lines, out)
    return 3 if failed else 0


#: every weight transform of 'transform --kind': the optional flags it reads, each with its default, and its
#: builder from the weight and those flags.  derivative_zeta's xi defaults to d zeros (None until d is known).
#: bessel_theta needs 1 <= |xi| < alpha < d, so its defaults are the first derivative in two dimensions.
_TRANSFORMS = {
    "riesz_zeta": ({"d": 1, "alpha": 0.5}, lambda psi, d, alpha: riesz_zeta(psi, PotentialParams(d, alpha))),
    "derivative_zeta": (
        {"d": 1, "alpha": 0.5, "xi": None},
        lambda psi, d, alpha, xi: derivative_zeta(
            psi, PotentialParams(d, alpha), MultiIndex((0,) * d) if xi is None else _parse_multiindex(xi)
        ),
    ),
    "bessel_theta": (
        {"d": 2, "alpha": 1.5, "xi": "1,0"},
        lambda psi, d, alpha, xi: bessel_theta(psi, PotentialParams(d, alpha), _parse_multiindex(xi)),
    ),
    "singular_psi1": ({}, singular_psi1),
    "zeta_S": (
        {"d": 1, "alpha": 0.5, "beta": 0.0, "kappa": 0.0},
        lambda psi, d, alpha, beta, kappa: zeta_S(psi, PotentialParams(d, alpha), beta, SlowlyVarying.log_power(kappa)),
    ),
}


def _quad_from_args(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol)


def _add_quad_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-8)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glpot", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    tr = subs.add_parser("transform", help="evaluate a weight transform over a grid")
    tr.add_argument("--psi", required=True, help="weight spec, e.g. power:a=1,b=2,beta=1,gamma=1")
    tr.add_argument("--kind", required=True, choices=list(_TRANSFORMS))
    tr.add_argument("--alpha", type=float, default=None, help="all kinds but singular_psi1")
    tr.add_argument("--d", type=int, default=None, help="all kinds but singular_psi1")
    tr.add_argument("--xi", default=None, help="comma-separated multi-index, e.g. 1,0 (derivative_zeta, bessel_theta)")
    tr.add_argument("--beta", type=float, default=None, help="zeta_S only")
    tr.add_argument("--kappa", type=float, default=None, help="zeta_S only")
    tr.add_argument("--qgrid", required=True, help="RULE:LO:HI:N")
    tr.add_argument("--out", default=None)

    lp = subs.add_parser("lpnorm", help="L_p norm of a catalog function")
    lp.add_argument("--form", required=True)
    lp.add_argument("--p", type=float, required=True, action="append")
    lp.add_argument("--out", default=None)
    _add_quad_args(lp)

    gr = subs.add_parser("grand", help="grand norm of a catalog function against a weight")
    gr.add_argument("--form", required=True)
    gr.add_argument("--psi", required=True)
    gr.add_argument("--out", default=None)
    _add_quad_args(gr)

    vf = subs.add_parser("vfun", help="sharpness ratio functional at given exponents")
    vf.add_argument("--form", required=True)
    vf.add_argument("--alpha", type=float, required=True)
    vf.add_argument("--p", type=float, required=True, action="append")
    vf.add_argument("--out", default=None)
    _add_quad_args(vf)

    po = subs.add_parser("potential", help="evaluate a kernel convolution on a grid")
    po.add_argument("--form", required=True)
    po.add_argument("--kernel", required=True, help="e.g. riesz:0.5, truncated:0.5,0,1, bessel:0.5")
    po.add_argument("--grid", required=True, help="RULE:LO:HI:N")
    po.add_argument("--out", default=None)
    _add_quad_args(po)

    ve = subs.add_parser("verify", help="run a named experiment")
    ve.add_argument("experiment", choices=list(EXPERIMENT_NAMES))
    ve.add_argument("--config", default=None, help="JSON config file")
    ve.add_argument("--out", default=None, help="output directory")

    subs.add_parser("catalog", help="list catalog test functions")
    return parser


def _cmd_transform(args) -> int:
    psi = parse_psi_spec(args.psi)
    reads, build = _TRANSFORMS[args.kind]
    flags = ("d", "alpha", "xi", "beta", "kappa")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    unread = sorted(set(given) - set(reads))
    if unread:
        raise DomainError(f"--kind {args.kind} does not read --{', --'.join(unread)}")
    out_psi = build(psi, **{**reads, **given})
    grid = parse_grid_spec(args.qgrid)
    lines = ["q,value"]
    for q in grid.points:
        lines.append(f"{format_value(q)},{format_value(out_psi(q))}")
    _emit(lines, args.out)
    return 0


def _cmd_lpnorm(args) -> int:
    f = parse_form_spec(args.form)
    spec = _quad_from_args(args)
    return _emit_rows("form,p,value,error_estimate", "p", args.p, lambda p: (f.label, p),
                      lambda p: lp_norm_report(f, p, spec), args.out)


def _cmd_grand(args) -> int:
    f = parse_form_spec(args.form)
    psi = parse_psi_spec(args.psi)
    report = grand_norm(f, psi, _quad_from_args(args))
    lines = [
        f"value={format_value(report.value)}",
        f"argmax_p={format_value(report.argmax_p)}",
        f"left_unbounded_suspected={format_value(report.left_unbounded_suspected)}",
        f"right_unbounded_suspected={format_value(report.right_unbounded_suspected)}",
        f"divergent_points={len(report.divergent_points)}",
        f"inaccurate_points={len(report.inaccurate_points)}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_vfun(args) -> int:
    f = parse_form_spec(args.form)
    spec = _quad_from_args(args)
    params = PotentialParams(1, args.alpha)
    evaluator = PotentialNormEvaluator(f, KernelSpec.riesz(args.alpha), spec)  # its tables serve every p
    return _emit_rows("form,p,q,V", "p", args.p, lambda p: (f.label, p, sobolev_q(p, params)),
                      lambda p: (v_functional(f, p, args.alpha, spec, evaluator=evaluator),), args.out)


def _cmd_potential(args) -> int:
    f = parse_form_spec(args.form)
    kernel = parse_kernel_spec(args.kernel)
    grid = parse_grid_spec(args.grid)
    spec = _quad_from_args(args)
    return _emit_rows("x,value,error_estimate", "x", grid.points, lambda x: (x,),
                      lambda x: apply_kernel_report(f, x, kernel, spec), args.out)


def _cmd_verify(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        if cfg.name != args.experiment:
            raise DomainError(f"config is for {cfg.name!r}, not {args.experiment!r}")
    else:
        cfg = ExperimentConfig(name=args.experiment)
    if args.out:
        cfg.output_dir = args.out
    result = run_experiment(cfg)
    status = "PASS" if result.passed else "FAIL"
    sys.stdout.write(f"{result.name}: {status}\n")
    for key, value in result.summary.items():
        sys.stdout.write(f"  {key}={format_value(value)}\n")
    return 0


def _cmd_catalog(_args) -> int:
    for spec, desc, _ in _FORMS:
        sys.stdout.write(f"{spec:32s} {desc}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "transform": _cmd_transform,
        "lpnorm": _cmd_lpnorm,
        "grand": _cmd_grand,
        "vfun": _cmd_vfun,
        "potential": _cmd_potential,
        "verify": _cmd_verify,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except (DivergenceError, ToleranceError, FeasibilityError, OverflowError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
