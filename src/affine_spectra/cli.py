"""Command line interface.

Every subcommand takes the system either as --preset name:args or as
--system file.json (spectrum additionally accepts a precomputed
--constants file.json).  Results go to stdout as JSON, or CSV for the
tabular commands; errors are one JSON object on stderr with exit code 1
(argparse usage errors keep exit code 2).  Floats in JSON use the strings
"inf", "-inf", "nan" for non-finite values; CSV numbers are %.17g.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import errors, exponent, oracle, spectrum
from .coding import (coding_of_point, format_coding, in_T, parse_coding,
                     project, generate_run_structured,
                     run_structure_for_target)
from .evaluate import derivative_series, evaluate, sample
from .ifs import LAMBDA_TOL, SpectrumConstants, compute_constants
from .presets import parse_preset, system_from_dict


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, path: str | None) -> None:
    _emit(json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n", path)


def _g(x: float) -> str:
    return "%.17g" % x


def _add_system_args(p, with_constants: bool = False) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="preset string, e.g. takagi:0.5")
    g.add_argument("--system", help="path to a system JSON file")
    if with_constants:
        g.add_argument("--constants", help="path to a constants JSON file")


def _load_system(args):
    if getattr(args, "preset", None):
        return parse_preset(args.preset)
    with open(args.system, "r", encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))


def _load_constants(args) -> SpectrumConstants:
    if getattr(args, "constants", None):
        with open(args.constants, "r", encoding="utf-8") as fh:
            return SpectrumConstants.from_dict(json.load(fh))
    return compute_constants(_load_system(args))


# ---------------------------------------------------------------- commands


def _cmd_validate(args) -> int:
    system = _load_system(args)
    constants = compute_constants(system, lambda_tol=args.lambda_tol)
    out = {
        "valid": True,
        "r": system.r,
        "vertices": [list(v) for v in system.vertices],
        "regime": constants.regime.value,
        "lambda_set": constants.lambda_set,
        "lambda_borderline": constants.lambda_borderline,
        "index_zero": constants.index_zero,
    }
    if constants.lambda_borderline:
        out["warning"] = ("overlap expression within tolerance of zero for "
                          "some indices; classified as empty")
    _emit_json(out, args.output)
    return 0


def _cmd_constants(args) -> int:
    constants = compute_constants(_load_system(args),
                                  lambda_tol=args.lambda_tol)
    _emit_json(constants.to_dict(), args.output)
    return 0


def _cmd_eval(args) -> int:
    res = evaluate(_load_system(args), args.x, args.tol)
    _emit_json({"x": args.x, "value": res.value,
                "error_bound": res.error_bound,
                "depth": res.depth_used}, args.output)
    return 0


def _cmd_sample(args) -> int:
    xs, values, errs = sample(_load_system(args), args.points, args.tol)
    lines = ["x,value,error_bound"]
    for x, v, err in zip(xs, values, errs):
        lines.append(f"{_g(x)},{_g(v)},{_g(err)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _fraction_str(x) -> str:
    """str(x) for an exact Fraction, with the interpreter's limit on the
    digits of an int-to-str conversion (Python 3.11, and 3.10 from 3.10.7)
    lifted for this one conversion and restored after it: a long coding's
    numerator and denominator run to thousands of digits."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_coding(args) -> int:
    system = _load_system(args)
    if args.x is not None:
        pc = coding_of_point(system, args.x, args.depth)
        deepest = pc.interval
        out = {
            "x": args.x,
            "coding": format_coding(pc.coding),
            "prefix": list(pc.coding.prefix),
            "period": list(pc.coding.period) if pc.coding.period else None,
            "cut_point": pc.cut_point,
            "ambiguous": pc.ambiguous,
            "interval": {"left": deepest.left, "right": deepest.right,
                         "length": deepest.length},
        }
    else:
        coding = parse_coding(args.coding)
        x = project(system, coding, exact=args.exact)
        out = {"coding": format_coding(coding),
               "x": _fraction_str(x) if args.exact else x}
        if args.in_t:
            q = in_T(system, coding)
            out["in_t"] = {
                "member": q.member,
                "decided": q.decided,
                "left": format_coding(q.left) if q.left else None,
                "right": format_coding(q.right) if q.right else None,
                "n0": q.n0,
                "boundary_digit": q.boundary_digit,
            }
    _emit_json(out, args.output)
    return 0


def _side_dict(se):
    if se is None:
        return None
    out = {"side": se.side, "alpha": se.alpha, "derivative": se.derivative,
           "infinite": se.infinite}
    if se.bundle is not None:
        out.update({"gamma0": se.bundle.gamma0, "gamma1": se.bundle.gamma1,
                    "gamma2": se.bundle.gamma2, "gamma": se.bundle.gamma,
                    "method": se.bundle.method,
                    "horizon_used": se.bundle.horizon_used})
    return out


def _cmd_exponent(args) -> int:
    system = _load_system(args)
    constants = compute_constants(system)
    if args.x is not None:
        coding = coding_of_point(system, args.x, args.depth).coding
    else:
        coding = parse_coding(args.coding)
    rep = exponent.exponent_report(system, constants, coding,
                                   horizon=args.horizon,
                                   series_tol=args.series_tol)
    out = {"coding": format_coding(rep.coding), "cut_point": rep.cut_point,
           "alpha": rep.alpha}
    if rep.cut is not None:
        cut = rep.cut
        out["cut"] = {
            "n0": cut.n0, "boundary_digit": cut.boundary_digit,
            "coding_left": format_coding(cut.coding_left),
            "coding_right": format_coding(cut.coding_right),
            "alpha_left": cut.alpha_left, "alpha_right": cut.alpha_right,
            "differentiable": cut.differentiable,
            "derivative_left": cut.derivative_left,
            "derivative_right": cut.derivative_right,
        }
    else:
        out["right"] = _side_dict(rep.right)
        out["left"] = _side_dict(rep.left)
    _emit_json(out, args.output)
    return 0


def _cmd_spectrum(args) -> int:
    constants = _load_constants(args)
    table = spectrum.spectrum_table(constants, points=args.points)
    if args.json:
        rows = [{"alpha": pt.alpha, "dim": pt.dim, "branch": pt.branch,
                 "note": pt.note} for pt in table]
        _emit_json({"regime": constants.regime.value, "rows": rows},
                   args.output)
        return 0
    lines = ["alpha,dim,branch"]
    for pt in table:
        lines.append(f"{_g(pt.alpha)},{_g(pt.dim)},{pt.branch}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    # a negative or nan threshold would print a result that cannot pass
    if not args.tol >= 0.0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    if not args.slope_tol >= 0.0:
        raise ValueError(f"--slope-tol must be >= 0, got {args.slope_tol}")
    if math.isnan(args.r2_min):
        raise ValueError("--r2-min must not be nan")
    if not args.series_tol >= 0.0:
        raise ValueError(f"--series-tol must be >= 0, got {args.series_tol}")
    system = _load_system(args)
    if args.mode == "ae":
        smp = oracle.ae_exponent_sample(system, args.points, args.horizon,
                                        args.seed)
        if math.isinf(smp.expected):
            err = 0.0 if math.isinf(smp.median) else math.inf
        else:
            err = abs(smp.median - smp.expected)
        out = {"mode": "ae", "expected": smp.expected, "median": smp.median,
               "deciles": list(smp.deciles),
               "fraction_finite": smp.fraction_finite,
               "error": err, "pass": bool(err <= args.tol)}
        _emit_json(out, args.output)
        return 0

    if not args.coding:
        raise ValueError(f"mode {args.mode} needs --coding")
    coding = parse_coding(args.coding)
    constants = compute_constants(system)
    side = "left" if coding.constant_tail() == system.r else "right"
    bundle = exponent.gammas(system, constants, coding, side=side)
    xi = project(system, coding)

    if args.mode == "derivative":
        deriv = derivative_series(system, coding, args.series_tol,
                                  gamma=bundle.gamma)
        hs = [2.0 ** -k for k in range(10, 27)]
        chk = oracle.check_derivative(system, xi, hs, deriv, side)
        out = {"mode": "derivative", "x": xi, "side": side,
               "derivative": deriv,
               "final_step": chk.final_step,
               "final_discrepancy": chk.final_discrepancy,
               "pass": bool(chk.final_discrepancy <= args.tol)}
        _emit_json(out, args.output)
        return 0

    deriv = None
    if bundle.gamma > 1.0 and coding.eventually_periodic:
        deriv = exponent._series_or_none(system, coding, args.series_tol)
    est = oracle.estimate_exponent(system, xi, side, derivative=deriv)
    err = abs(est.slope - bundle.gamma)
    out = {"mode": "exponent", "x": xi, "side": side,
           "exact": bundle.gamma, "method": bundle.method,
           "estimated": est.slope, "r2": est.r2, "error": err,
           "subtracted": est.subtracted,
           "pass": bool(err <= args.slope_tol and est.r2 >= args.r2_min)}
    _emit_json(out, args.output)
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _cmd_gen_coding(args) -> int:
    system = _load_system(args)
    constants = compute_constants(system)
    block_ends = _parse_int_list(args.block_ends) if args.block_ends else None
    run_lengths = _parse_int_list(args.run_lengths) if args.run_lengths else None
    p = tuple(float(v) for v in args.p.split(",")) if args.p else None
    rs = run_structure_for_target(system, constants, args.alpha,
                                  length=args.length, p=p,
                                  block_ends=block_ends,
                                  run_lengths=run_lengths)
    n_last = max((n for n in rs.block_ends if n <= args.length), default=0)
    if not n_last:
        raise errors.InvalidSchedule(
            f"no block end lies at or below --length {args.length}")
    coding = generate_run_structured(rs, args.length, args.seed)
    # the traces at position n_last, from the chunk that holds it; the
    # chunks run on to --length, so that a zero-contraction digit anywhere
    # in the coding raises InfiniteExponent
    for start, c0, _, c2 in exponent._trace_chunks(
            constants, coding, args.length, "right", n_last - 1):
        if start < n_last <= start + len(c0):
            g0, g2 = float(c0[n_last - 1 - start]), float(c2[n_last - 1 - start])
    out = {
        "alpha": args.alpha,
        "lam": rs.lam,
        "tau": rs.tau,
        "k_star": rs.k_star,
        "p": list(rs.p),
        "block_ends": list(rs.block_ends),
        "run_lengths": list(rs.run_lengths),
        "diagnostics": {
            "gamma2_at_last_block": g2,
            "gamma0_at_last_block": g0,
        },
        "digits": list(coding.prefix),
    }
    _emit_json(out, args.output)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="affine-spectra",
        description="Self-affine functions: values, codings, pointwise "
                    "exponents and dimension spectra.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_constants=False):
        _add_system_args(p, with_constants)
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("validate", help="check a system and report its regime")
    common(p)
    p.add_argument("--lambda-tol", type=float, default=LAMBDA_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("constants", help="derived constants as JSON")
    common(p)
    p.add_argument("--lambda-tol", type=float, default=LAMBDA_TOL)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("eval", help="evaluate phi at one point")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sample", help="uniform grid of values as CSV")
    common(p)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("coding", help="digit address of a point, or the "
                                      "point of a coding")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--x", type=float)
    g.add_argument("--coding", help='digit string like "1,2,(1,2)"')
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--exact", action="store_true",
                   help="project through exact rational arithmetic")
    p.add_argument("--in-t", action="store_true", dest="in_t",
                   help="also decide two-coding membership")
    p.set_defaults(func=_cmd_coding)

    p = sub.add_parser("exponent", help="pointwise exponent report")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--x", type=float)
    g.add_argument("--coding")
    p.add_argument("--depth", type=int, default=64,
                   help="digits extracted when using --x")
    p.add_argument("--horizon", type=int, default=None,
                   help="force a finite-horizon scan")
    p.add_argument("--series-tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("spectrum", help="dimension spectrum table")
    common(p, with_constants=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--json", action="store_true",
                   help="JSON rows instead of CSV")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="empirical cross-check of exponents, "
                                      "derivatives or typical points")
    common(p)
    p.add_argument("--mode", choices=("exponent", "derivative", "ae"),
                   required=True)
    p.add_argument("--coding", help="periodic coding (exponent/derivative)")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="pass threshold (default 0.02 for ae, 0.01 for "
                        "derivative)")
    p.add_argument("--slope-tol", type=float, default=0.05)
    p.add_argument("--r2-min", type=float, default=0.98)
    p.add_argument("--series-tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-coding", help="sample a coding with prescribed "
                                          "run structure (overlap regime)")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--length", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block-ends", help="comma list overriding the schedule")
    p.add_argument("--run-lengths", help="comma list, with --block-ends")
    p.add_argument("--p", help="comma list of digit frequencies")
    p.set_defaults(func=_cmd_gen_coding)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "coding" and args.exact and args.x is not None:
        ap.error("--exact applies to --coding only")
    if getattr(args, "tol", None) is None and args.command == "verify":
        args.tol = 0.02 if args.mode == "ae" else 0.01
    try:
        return args.func(args)
    except (errors.AffineSpectraError, ArithmeticError, ValueError, OSError,
            KeyError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; the name reported is
        # the public one
        name = "MemoryError" if isinstance(exc, MemoryError) \
            else type(exc).__name__
        payload = {"error": name, "message": str(exc)}
        branch = getattr(exc, "branch", None)
        if branch is not None:
            payload["branch"] = branch
        if isinstance(exc, errors.NonConvergence):
            payload["achieved_bound"] = exc.achieved_bound
            payload["depth"] = exc.depth
        sys.stderr.write(json.dumps(_jsonable(payload)) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
