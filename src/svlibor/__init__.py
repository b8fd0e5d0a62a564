"""Expiry-wise stochastic-volatility displaced Libor model.

Curve stripping, approximate affine Fourier pricing with a Black control
variate, full-model Monte Carlo, and per-maturity caplet calibration.
"""

from .affine import (CharFnParams, effective_caplet_params,
                     swap_averaged_vol_params, swap_effective_params)
from .calibrate import (CalibrationResult, MaturityFit, calibrate_all,
                        calibrate_maturity, fit_report_rows)
from .charfn import black_cf, caplet_cf_params, heston_cf, swaption_cf_params
from .errors import (ArbitrageBoundError, CorrelationError, CurveError,
                     DecompositionError, DegenerateDriftError, InvariantError,
                     ParseError, QuadratureError, SimulationError, StrikeError,
                     SvLiborError)
from .fourier import (DEFAULT_QUAD, QuadratureConfig, black76, caplet_price,
                      carr_madan_cv, implied_vol, swaption_price)
from .market_data import (CapletPanel, DiscountCurve, SwapContext,
                          TenorStructure, load_curve, load_panel,
                          strip_libors, swap_context)
from .model import (ModelParams, VolFactorization, build_factorization,
                    build_loadings, correlation_matrices, factorize_vols,
                    load_params)
from .montecarlo import (MCConfig, MCResult, deflated_bond_means, mc_caplets,
                         mc_swaptions, simulate)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageBoundError", "CalibrationResult",
    "CapletPanel", "CharFnParams", "CorrelationError", "CurveError",
    "DEFAULT_QUAD", "DecompositionError", "DegenerateDriftError",
    "DiscountCurve", "InvariantError", "MCConfig",
    "MCResult", "MaturityFit", "ModelParams", "ParseError", "QuadratureConfig",
    "QuadratureError", "SimulationError", "StrikeError", "SvLiborError",
    "SwapContext", "TenorStructure", "VolFactorization",
    "black76", "black_cf", "build_factorization", "build_loadings",
    "calibrate_all", "calibrate_maturity", "caplet_cf_params", "caplet_price",
    "carr_madan_cv", "correlation_matrices", "deflated_bond_means",
    "effective_caplet_params", "factorize_vols", "fit_report_rows",
    "heston_cf", "implied_vol", "load_curve", "load_panel", "load_params",
    "mc_caplets", "mc_swaptions", "simulate", "strip_libors",
    "swap_averaged_vol_params", "swap_context", "swap_effective_params",
    "swaption_cf_params", "swaption_price",
]
