"""Rebuild the caplet and payer swaption benchmark tables on the fixtures.

For each caplet expiry and swaption leg the table shows the Fourier price
next to two Monte Carlo estimates: the substituted model (the same dynamics
the characteristic function prices, so the two columns should agree within
noise) and the full model (whose gap to the Fourier column is the
approximation error).  Caplets are priced at the model file's correlation
decay, swaptions at --swap-decay.

    python3 scripts/reproduce_tables.py --paths 30000 --seed 0

--out also writes both tables to one CSV.  Its rows name the instrument and
the period [T_p, T_q] it covers: a caplet on expiry j has p = j, q = j + 1.
"""

import argparse
import csv
import dataclasses
import pathlib
import sys

import numpy as np

from svlibor.fourier import caplet_price, swaption_price
from svlibor.market_data import load_curve, strip_libors
from svlibor.model import build_factorization, load_params
from svlibor.montecarlo import MCConfig, mc_caplets, mc_swaptions

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", default=str(FIXTURES / "curve_table.csv"))
    ap.add_argument("--model", default=str(FIXTURES / "model_table.json"))
    ap.add_argument("--expiries", default="5,11,15,19",
                    help="comma-separated caplet expiry indices")
    ap.add_argument("--legs", default="2:10,4:10,4:20,10:20",
                    help="comma-separated swaption p:q pairs")
    ap.add_argument("--swap-decay", type=float, default=0.0553,
                    help="correlation decay of the swaption table")
    ap.add_argument("--strikes", default="0,0.005,0.01,0.015,0.02,0.025,0.03")
    ap.add_argument("--paths", type=int, default=30000)
    ap.add_argument("--steps-per-year", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default=None, help="also write rows to this CSV")
    return ap.parse_args(argv)


def table(instrument, legs, strikes, tenor, curve, params, mc):
    """One row per leg (p, q) and strike.  The library takes a caplet by its
    expiry p alone and a swaption by (p, q)."""
    caplet = instrument == "caplet"
    price, mc_price, tag = ((caplet_price, mc_caplets, "caplet") if caplet
                            else (swaption_price, mc_swaptions, "swap"))
    market = (tenor, curve, params, build_factorization(params, tenor))
    libors = strip_libors(curve, tenor)
    index = {leg: leg[:1] if caplet else leg for leg in legs}
    key = {leg: leg[0] if caplet else leg for leg in legs}
    # one substituted run per leg (the substitution is leg-specific), then a
    # single full-model run covering every leg at once
    sub = {}
    for leg in legs:
        cfg = MCConfig(substitution=(tag, *index[leg]), **mc)
        sub[leg] = mc_price({key[leg]: strikes}, *market, cfg)[key[leg]]
    full = mc_price({key[leg]: strikes for leg in legs}, *market,
                    MCConfig(**mc))

    rows = []
    for (p, q) in legs:
        fourier = price(*index[p, q], strikes, *market, libors=libors)
        mc_sub, mc_full = sub[p, q], full[key[p, q]]
        for i, k in enumerate(strikes):
            rows.append({
                "instrument": instrument, "p": p, "q": q, "strike": float(k),
                "fourier": float(fourier[i]),
                "mc_substituted": mc_sub[i].price, "se_sub": mc_sub[i].se,
                "mc_full": mc_full[i].price, "se_full": mc_full[i].se,
            })
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    tenor, curve = load_curve(args.curve)
    params = load_params(args.model)
    strikes = np.array([float(tok) for tok in args.strikes.split(",")])
    mc = dict(paths=args.paths, steps_per_year=args.steps_per_year,
              seed=args.seed, threads=args.threads)
    tables = [
        ("caplet", [(j, j + 1) for j in map(int, args.expiries.split(","))],
         params),
        ("swaption", [tuple(int(tok) for tok in leg.split(":"))
                      for leg in args.legs.split(",")],
         dataclasses.replace(params, corr_decay=args.swap_decay)),
    ]

    rows = []
    for instrument, legs, decayed in tables:
        part = table(instrument, legs, strikes, tenor, curve, decayed, mc)
        print(f"{instrument}s at correlation decay {decayed.corr_decay}")
        print(f"{'[p, q]':>7} {'K':>7} {'fourier':>10} {'sub MC':>10} "
              f"{'(se)':>9} {'full MC':>10} {'(se)':>9}")
        for r in part:
            print(f"[{r['p']:>2},{r['q']:>2}] {r['strike']:>7.3f} "
                  f"{r['fourier']:>10.6f} {r['mc_substituted']:>10.6f} "
                  f"({r['se_sub']:.1e}) {r['mc_full']:>10.6f} "
                  f"({r['se_full']:.1e})")
        rows += part

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
