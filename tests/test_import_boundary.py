"""The package runs on numpy alone: no path loads scipy.

Pricing, Monte Carlo, Black-76 (``math.erfc``), its implied vol (Newton
steps) and the calibration (``calibrate_maturity``, a Levenberg-Marquardt
loop written with numpy) leave every ``scipy`` module unloaded; scipy is
a test dependency only.  Only Monte Carlo needs a thread pool, so the
import, the Fourier pricing and the calibration leave ``concurrent``
unloaded too, and importing the package leaves ``numpy.polynomial``
unloaded (the quadrature's Gauss-Legendre rule is written out).  The check
runs in a fresh interpreter, because this test process has long since
loaded all three.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys

import numpy as np

import svlibor
import svlibor.cli
from svlibor import (CapletPanel, MCConfig, black76, build_factorization,
                     calibrate_maturity, caplet_price, implied_vol,
                     load_curve, load_params, mc_caplets, strip_libors,
                     swaption_price)


def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)


tenor, curve = load_curve("fixtures/curve_table.csv")
params = load_params("fixtures/model_table.json")
fact = build_factorization(params, tenor)
libors = strip_libors(curve, tenor)
out = {"after_import": loaded("scipy", "concurrent"),
       "polynomial": sorted(m for m in sys.modules
                            if m.startswith("numpy.polynomial"))}

strikes = np.array([0.8, 1.0, 1.2]) * libors[5]
caplets = caplet_price(5, strikes, tenor, curve, params, fact)
swaptions = swaption_price(2, 6, np.array([0.02, 0.03]), tenor, curve, params,
                           fact)
black = black76(0.03, 2.0, 0.2, 0.03)
out["after_pricing"] = loaded("scipy", "concurrent")

out["implied_vol"] = implied_vol(black, 0.03, 0.03, 2.0, 1.0)
out["after_implied_vol"] = loaded("scipy", "concurrent")
j = 5
truth = (params.beta_norm[j], params.kappa[j], params.eps[j], params.rho[j])
panel = CapletPanel(expiry=j, strikes=strikes, quotes=caplets)
fit = calibrate_maturity(panel, params, tenor, curve,
                         warm_start=tuple(float(x) for x in truth))
out["fit_objective"] = fit.objective
out["fit_iterations"] = fit.iterations
out["after_calibration"] = loaded("scipy", "concurrent")

mc = mc_caplets({3: np.array([0.01])}, tenor, curve, params, fact,
                MCConfig(paths=64, steps_per_year=2))
out["prices_finite"] = bool(np.all(np.isfinite(caplets))
                            and np.all(np.isfinite(swaptions))
                            and np.isfinite(mc[3][0].price)
                            and np.isfinite(black))
out["after_mc"] = loaded("scipy")
print(json.dumps(out))
"""


def run_fresh(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pricing_paths_leave_scipy_optimize_unloaded():
    out = run_fresh(SCRIPT)
    assert out["after_import"] == []
    assert out["polynomial"] == []
    assert out["prices_finite"]
    assert out["after_pricing"] == []
    assert abs(out["implied_vol"] - 0.2) < 1e-10
    assert out["after_implied_vol"] == []
    assert 0 < out["fit_iterations"] <= 60
    assert out["fit_objective"] < 1e-7
    assert out["after_calibration"] == []
    assert out["after_mc"] == []
