"""Command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .affine import effective_caplet_params, swap_effective_params
from .calibrate import calibrate_all, fit_report_rows
from .errors import SvLiborError
from .fourier import caplet_price, implied_vol, swaption_price
from .market_data import load_curve, load_panel, strip_libors, swap_context
from .model import build_factorization, correlation_matrices, load_params
from .montecarlo import MCConfig, mc_caplets, mc_swaptions

THREADS_ENV = "SVLIBOR_THREADS"


def _fmt(x) -> str:
    """A CSV cell: ``x`` to 17 significant digits, empty if not finite."""
    return format(float(x), ".17g") if math.isfinite(x) else ""


@contextlib.contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _plain(obj):
    """``obj`` as JSON values: a record (dataclass instance) as its fields,
    an array as a list, and a float that is not finite as None, at any
    depth."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if dataclasses.is_dataclass(obj):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def _write_json(path, payload) -> None:
    """``payload`` as indented strict JSON (``_plain``): no NaN or
    Infinity token, which strict parsers reject, but null."""
    with _open_out(path) as out:
        json.dump(_plain(payload), out, indent=2, allow_nan=False)
        out.write("\n")


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


def _add_mc(parser):
    parser.add_argument("--paths", type=int, default=30000)
    parser.add_argument("--steps-per-year", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    # A string default is converted only when an MC subcommand is parsed.
    parser.add_argument("--threads", type=int,
                        default=os.environ.get(THREADS_ENV, "1"))
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

    for command, instrument, indices in (
            ("price-caplet", "caplet", {"--j": "expiry index"}),
            ("price-swaption", "payer swaption",
             {"--p": "expiry index (start of the swap)",
              "--q": "end index of the swap"})):
        p = sub.add_parser(command, help=f"{instrument} price table")
        _add_io(p)
        _add_mc(p)
        for flag, text in indices.items():
            p.add_argument(flag, type=int, required=True, help=text)
        p.add_argument("--strikes", "--strike", dest="strikes",
                       type=_strike_list, default=None,
                       help="comma-separated strikes")
        p.add_argument("--no-mc", action="store_true",
                       help="skip the Monte Carlo columns")
        p.add_argument(
            "--dump-effective", action="store_true",
            help="emit effective affine parameters as JSON and exit")

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
        params = dataclasses.replace(params, corr_decay=args.corr_decay)
    return tenor, curve, params


def _mc_from(args, substitution=None) -> MCConfig:
    return MCConfig(paths=args.paths, steps_per_year=args.steps_per_year,
                    seed=args.seed, substitution=substitution,
                    threads=args.threads, antithetic=args.antithetic)


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


def _cmd_price(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    libors = strip_libors(curve, tenor)
    caplet = args.command == "price-caplet"
    index = (args.j,) if caplet else (args.p, args.q)
    if args.dump_effective:
        if caplet:
            eff = effective_caplet_params(args.j, params, fact, tenor, libors)
        else:
            ctx = swap_context(args.p, args.q, curve, tenor)
            eff = swap_effective_params(ctx, params, fact, tenor, libors)
        _write_json(args.out, eff)
        return 0
    if args.strikes is None:
        raise SvLiborError("one of --strike / --strikes is required")
    strikes = np.array(args.strikes)
    price, mc_price = ((caplet_price, mc_caplets) if caplet
                       else (swaption_price, mc_swaptions))
    fourier = price(*index, strikes, tenor, curve, params, fact,
                    libors=libors)
    mc = None
    if not args.no_mc:
        key = args.j if caplet else index
        mc = mc_price({key: strikes}, tenor, curve, params, fact,
                      _mc_from(args))[key]
    with _open_out(args.out) as out:
        _write_table(out, strikes, fourier, mc)
    return 0


def _cmd_mc_price(args) -> int:
    tenor, curve, params = _load_market(args)
    fact = build_factorization(params, tenor)
    is_caplet = args.j is not None
    legs = (args.p is not None) + (args.q is not None)
    if (is_caplet, legs) not in ((True, 0), (False, 2)):
        raise SvLiborError("give either --j (caplet) or both --p and --q "
                           "(swaption)")
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
    key, mc_price = ((args.j, mc_caplets) if is_caplet
                     else ((args.p, args.q), mc_swaptions))
    res = mc_price({key: [args.strike]}, tenor, curve, params, fact,
                   cfg)[key][0]
    payload = {"price": res.price, "se": res.se, "paths": res.paths,
               "steps_per_year": cfg.steps_per_year, "seed": cfg.seed,
               "steps": res.steps, "elapsed_s": res.elapsed}
    _write_json(args.out, payload)
    return 0


def _cmd_calibrate(args) -> int:
    tenor, curve, params = _load_market(args)
    panels = load_panel(args.panels)
    result = calibrate_all(panels, params, tenor, curve)
    _write_json(args.out, result.to_dict())
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
    _write_json(args.out, {"implied_vol": vol})
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
    "price-caplet": _cmd_price,
    "price-swaption": _cmd_price,
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
