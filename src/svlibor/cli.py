"""Command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .affine import effective_caplet_params, swap_effective_params
from .calibrate import CalibrationOptions, calibrate_all, fit_report_rows
from .errors import SvLiborError
from .fourier import QuadratureConfig, caplet_price, implied_vol, swaption_price
from .market_data import load_curve, load_panel, strip_libors, swap_context
from .model import (build_factorization, build_loadings, correlation_matrices,
                    factorize_vols, load_params)
from .montecarlo import MCConfig, mc_caplet, mc_caplets, mc_swaption, mc_swaptions

THREADS_ENV = "SVLIBOR_THREADS"


def _fmt(x) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _strike_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad strike list {text!r}") from exc


def _add_io(parser, model=True):
    parser.add_argument("--curve", required=True, help="curve CSV (T,B)")
    if model:
        parser.add_argument("--model", required=True, help="model parameter JSON")
        parser.add_argument("--corr-decay", type=float, default=None,
                            help="override the correlation decay of the model file")
    parser.add_argument("--out", default="-", help="output path (default stdout)")


def _add_quad(parser):
    parser.add_argument("--quad-zmax", type=float, default=400.0)
    parser.add_argument("--quad-n", type=int, default=128)
    parser.add_argument("--quad-mode", choices=["adaptive", "fft"],
                        default="adaptive")


def _add_mc(parser):
    parser.add_argument("--paths", type=int, default=30000)
    parser.add_argument("--steps-per-year", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get(THREADS_ENV, "1")))
    parser.add_argument("--antithetic", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svlibor",
        description="Displaced Libor model with expiry-wise square-root "
                    "stochastic volatility: Fourier and Monte Carlo pricing, "
                    "caplet calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strip", help="strip forward Libors from a curve")
    _add_io(p, model=False)

    p = sub.add_parser("price-caplet", help="caplet price table")
    _add_io(p)
    _add_quad(p)
    _add_mc(p)
    p.add_argument("--j", type=int, required=True, help="expiry index")
    p.add_argument("--strike", type=float, default=None)
    p.add_argument("--strikes", type=_strike_list, default=None)
    p.add_argument("--no-mc", action="store_true",
                   help="skip the Monte Carlo columns")
    p.add_argument("--dump-effective", action="store_true",
                   help="emit effective affine parameters as JSON and exit")

    p = sub.add_parser("price-swaption", help="payer swaption price table")
    _add_io(p)
    _add_quad(p)
    _add_mc(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--strike", type=float, default=None)
    p.add_argument("--strikes", type=_strike_list, default=None)
    p.add_argument("--no-mc", action="store_true")
    p.add_argument("--dump-effective", action="store_true")

    p = sub.add_parser("mc-price", help="Monte Carlo price of one instrument")
    _add_io(p)
    _add_mc(p)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--substitute", choices=["none", "caplet", "swap"],
                   default="none")

    p = sub.add_parser("calibrate", help="fit per-maturity vol parameters")
    _add_io(p)
    p.add_argument("--panels", required=True, help="caplet panel CSV")
    p.add_argument("--fit-report", default=None,
                   help="optional per-strike diagnostics CSV")

    p = sub.add_parser("implied-vol", help="invert Black-76 for one price")
    p.add_argument("--price", type=float, required=True)
    p.add_argument("--forward", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--expiry", type=float, required=True)
    p.add_argument("--discount", type=float, required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("correlations",
                       help="instantaneous correlation matrices at t = 0")
    _add_io(p)
    return parser


def _load_market(args):
    tenor, curve = load_curve(args.curve)
    params = load_params(args.model)
    if getattr(args, "corr_decay", None) is not None:
        import dataclasses
        params = dataclasses.replace(params, corr_decay=args.corr_decay)
    return tenor, curve, params


def _quad_from(args) -> QuadratureConfig:
    return QuadratureConfig(z_max=args.quad_zmax, n=args.quad_n,
                            kind=args.quad_mode)


def _mc_from(args, substitution=None) -> MCConfig:
    return MCConfig(paths=args.paths, steps_per_year=args.steps_per_year,
                    seed=args.seed, substitution=substitution,
                    threads=args.threads, antithetic=args.antithetic)


def _strikes_from(args) -> list[float]:
    if args.strikes is not None:
        return list(args.strikes)
    if args.strike is not None:
        return [args.strike]
    raise SvLiborError("one of --strike / --strikes is required")


def _write_table(out, strikes, fourier, mc_results):
    writer = csv.writer(out)
    writer.writerow(["strike", "fourier_price", "mc_price", "mc_se",
                     "abs_error", "rel_error"])
    for i, k in enumerate(strikes):
        if mc_results is None:
            writer.writerow([_fmt(k), _fmt(fourier[i]), "", "", "", ""])
            continue
        mc = mc_results[i]
        abs_err = abs(fourier[i] - mc.price)
        rel_err = abs_err / abs(mc.price) if mc.price != 0.0 else float("nan")
        writer.writerow([_fmt(k), _fmt(fourier[i]), _fmt(mc.price),
                         _fmt(mc.se), _fmt(abs_err), _fmt(rel_err)])


def _cmd_strip(args) -> int:
    tenor, curve = load_curve(args.curve)
    libors = strip_libors(curve, tenor)
    with _open_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["j", "T", "L"])
        for j in range(1, tenor.n):
            writer.writerow([j, _fmt(tenor.dates[j]), _fmt(libors[j])])
    return 0


def _cmd_price_caplet(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    libors = strip_libors(curve, tenor)
    if args.dump_effective:
        eff = effective_caplet_params(args.j, params, fact, tenor, libors)
        with _open_out(args.out) as out:
            json.dump(eff.as_dict(), out, indent=2)
            out.write("\n")
        return 0
    strikes = _strikes_from(args)
    fourier = [caplet_price(args.j, k, tenor, curve, params, fact,
                            _quad_from(args), libors) for k in strikes]
    mc = None
    if not args.no_mc:
        mc = mc_caplets({args.j: np.array(strikes)}, tenor, curve, params,
                        fact, _mc_from(args))[args.j]
    with _open_out(args.out) as out:
        _write_table(out, strikes, fourier, mc)
    return 0


def _cmd_price_swaption(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    libors = strip_libors(curve, tenor)
    if args.dump_effective:
        ctx = swap_context(args.p, args.q, curve, tenor)
        eff = swap_effective_params(ctx, params, fact, tenor, libors)
        with _open_out(args.out) as out:
            json.dump(eff.as_dict(), out, indent=2)
            out.write("\n")
        return 0
    strikes = _strikes_from(args)
    fourier = [swaption_price(args.p, args.q, k, tenor, curve, params, fact,
                              _quad_from(args), libors) for k in strikes]
    mc = None
    if not args.no_mc:
        mc = mc_swaptions({(args.p, args.q): np.array(strikes)}, tenor,
                          curve, params, fact, _mc_from(args))[(args.p, args.q)]
    with _open_out(args.out) as out:
        _write_table(out, strikes, fourier, mc)
    return 0


def _cmd_mc_price(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    is_caplet = args.j is not None
    if is_caplet == (args.p is not None or args.q is not None):
        raise SvLiborError("give either --j (caplet) or --p/--q (swaption)")
    substitution = None
    if args.substitute == "caplet":
        if not is_caplet:
            raise SvLiborError("--substitute caplet needs --j")
        substitution = ("caplet", args.j)
    elif args.substitute == "swap":
        if is_caplet:
            raise SvLiborError("--substitute swap needs --p/--q")
        substitution = ("swap", args.p, args.q)
    cfg = _mc_from(args, substitution)
    if is_caplet:
        res = mc_caplet(args.j, args.strike, tenor, curve, params, fact, cfg)
    else:
        res = mc_swaption(args.p, args.q, args.strike, tenor, curve, params,
                          fact, cfg)
    payload = {"price": res.price, "se": res.se, "paths": res.paths,
               "steps_per_year": cfg.steps_per_year, "seed": cfg.seed}
    with _open_out(args.out) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    return 0


def _cmd_calibrate(args) -> int:
    tenor, curve, params = _load_market(args)
    panels = load_panel(args.panels)
    result = calibrate_all(panels, params, tenor, curve, CalibrationOptions())
    with _open_out(args.out) as out:
        json.dump(result.to_dict(), out, indent=2)
        out.write("\n")
    if args.fit_report:
        rows = fit_report_rows(result, panels, tenor, curve)
        with open(args.fit_report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "maturity", "strike", "market_price", "model_price",
                "market_ivol", "model_ivol"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
    return 0


def _cmd_implied_vol(args) -> int:
    vol = implied_vol(args.price, args.forward, args.strike, args.expiry,
                      args.discount)
    with _open_out(args.out) as out:
        json.dump({"implied_vol": vol}, out, indent=2)
        out.write("\n")
    return 0


def _cmd_correlations(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    cor_ll, cor_lv, cor_vv = correlation_matrices(params, fact)
    with _open_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["matrix", "j", "jprime", "value"])
        for name, mat in (("libor_libor", cor_ll), ("libor_vol", cor_lv),
                          ("vol_vol", cor_vv)):
            for j in range(1, tenor.n):
                for jp in range(1, tenor.n):
                    writer.writerow([name, j, jp, _fmt(mat[j, jp])])
    return 0


_COMMANDS = {
    "strip": _cmd_strip,
    "price-caplet": _cmd_price_caplet,
    "price-swaption": _cmd_price_swaption,
    "mc-price": _cmd_mc_price,
    "calibrate": _cmd_calibrate,
    "implied-vol": _cmd_implied_vol,
    "correlations": _cmd_correlations,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed stdout; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SvLiborError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
