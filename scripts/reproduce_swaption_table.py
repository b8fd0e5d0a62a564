"""Rebuild the payer swaption benchmark table (correlation decay 0.0553).

Same layout as the caplet script: Fourier price, substituted-model MC, and
full-model MC for the four standard legs.

    python3 scripts/reproduce_swaption_table.py --paths 30000 --seed 0
"""

import argparse
import csv
import dataclasses
import pathlib
import sys

import numpy as np

from svlibor.fourier import swaption_price
from svlibor.market_data import load_curve, strip_libors
from svlibor.model import build_factorization, load_params
from svlibor.montecarlo import MCConfig, mc_swaptions

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", default=str(FIXTURES / "curve_table.csv"))
    ap.add_argument("--model", default=str(FIXTURES / "model_table.json"))
    ap.add_argument("--corr-decay", type=float, default=0.0553)
    ap.add_argument("--legs", default="2:10,4:10,4:20,10:20",
                    help="comma-separated p:q pairs")
    ap.add_argument("--strikes", default="0,0.005,0.01,0.015,0.02,0.025,0.03")
    ap.add_argument("--paths", type=int, default=30000)
    ap.add_argument("--steps-per-year", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tenor, curve = load_curve(args.curve)
    params = load_params(args.model)
    if args.corr_decay is not None:
        params = dataclasses.replace(params, corr_decay=args.corr_decay)
    fact = build_factorization(params, tenor)
    libors = strip_libors(curve, tenor)
    legs = [tuple(int(tok) for tok in leg.split(":"))
            for leg in args.legs.split(",")]
    strikes = np.array([float(tok) for tok in args.strikes.split(",")])

    mc = dict(paths=args.paths, steps_per_year=args.steps_per_year,
              seed=args.seed, threads=args.threads)
    sub = {leg: mc_swaptions({leg: strikes}, tenor, curve, params, fact,
                             MCConfig(substitution=("swap",) + leg, **mc))[leg]
           for leg in legs}
    full = mc_swaptions({leg: strikes for leg in legs}, tenor, curve, params,
                        fact, MCConfig(**mc))

    rows = []
    for (p, q) in legs:
        fourier = swaption_price(p, q, strikes, tenor, curve, params, fact,
                                 libors=libors)
        for i, k in enumerate(strikes):
            rows.append({
                "p": p, "q": q, "strike": float(k),
                "fourier": float(fourier[i]),
                "mc_substituted": sub[(p, q)][i].price,
                "se_sub": sub[(p, q)][i].se,
                "mc_full": full[(p, q)][i].price,
                "se_full": full[(p, q)][i].se,
            })

    print(f"{'leg':>7} {'K':>7} {'fourier':>10} {'sub MC':>10} {'(se)':>9} "
          f"{'full MC':>10} {'(se)':>9}")
    for r in rows:
        print(f"[{r['p']:>2},{r['q']:>2}] {r['strike']:>7.3f} "
              f"{r['fourier']:>10.6f} {r['mc_substituted']:>10.6f} "
              f"({r['se_sub']:.1e}) {r['mc_full']:>10.6f} "
              f"({r['se_full']:.1e})")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
