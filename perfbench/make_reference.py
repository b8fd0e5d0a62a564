"""Record the acceptance-grid Fourier prices the fourier_surface check uses.

Prices every caplet expiry (fixture parameters) and every acceptance
swaption leg (decay 0.0553) on the acceptance strike grid with the default
quadrature, and writes them to reference_prices.json next to this file.
Rerun only when a change is meant to move these prices:

    python3 perfbench/make_reference.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from workloads import LEGS, REFERENCE_FILE, STRIKES, fourier, load_market  # noqa: E402


def main() -> int:
    m = load_market()
    caplets = {str(j): fourier.caplet_price(j, STRIKES, m.tenor, m.curve,
                                             m.params, m.fact,
                                             libors=m.libors).tolist()
               for j in range(1, m.tenor.n)}
    swaptions = {f"{p},{q}": fourier.swaption_price(
                     p, q, STRIKES, m.tenor, m.curve, m.swap_params,
                     m.swap_fact, libors=m.libors).tolist()
                 for p, q in LEGS}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"strikes": STRIKES.tolist(), "caplets": caplets,
                   "swaptions": swaptions}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
