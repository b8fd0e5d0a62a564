"""Closed-form characteristic functions of the affine log-rate dynamics.

For the displaced log-return x = ln((L+alpha)(T)/(L+alpha)(0)) under the
frozen affine approximation, the characteristic function is of Heston type:

    phi(z) = exp( A(z,T) + B(z,T) v0 ) * exp( -1/2 (iz + z^2) Gamma ),

with Gamma = integral of |gamma|^2 over [0, T] and, writing
psi = iz + z^2,

    a = kappa* - i z (sigma . beta),
    d = sqrt( a^2 + |beta|^2 psi eps^2 )          (principal branch),
    B = -|beta|^2 psi phi1 / ( a phi1 + (1 + e^{-dT})/2 ),
    A = (kappa* theta* / eps^2) * ( (a-d) T - 2 ln(1 + (a-d) phi1) ),

    phi1 = (1 - e^{-dT}) / (2d).

This is the algebraic rearrangement of the textbook (a+d)/(a-d) form that
keeps every exponential argument non-positive in real part (|e^{-dT}| <= 1
since Re d >= 0 on the principal branch), so no overflow occurs for any z
on the pricing contour, and the complex logarithm stays on its principal
branch without rotation counting.  Two further substitutions keep the
evaluation stable where naive arithmetic cancels: a - d is computed as
-|beta|^2 psi eps^2 / (a + d), and the logarithm via a log1p series, so
that A (which carries a 1/eps^2 prefactor) stays accurate down to the
deterministic-variance limit; phi1 switches to its Taylor series as
dT -> 0, which removes the d = 0 removable singularity.

The same formula serves caplets (measure-changed parameters of expiry j)
and swaptions (annuity-averaged parameters of the leg [p, q]); only the
parameter bundle differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import effective_caplet_params, swap_effective_params
from .errors import InvariantError
from .market_data import swap_context

__all__ = [
    "CharFnParams",
    "heston_cf",
    "black_cf",
    "caplet_cf_params",
    "swaption_cf_params",
]

# Below this vol of vol the Riccati solution is evaluated in its
# deterministic-variance limit; the formula above degenerates to 0/0.
EPS_DETERMINISTIC = 1e-8


@dataclass(frozen=True)
class CharFnParams:
    """Inputs of the Heston-type characteristic function.

    kappa_star, theta_star: effective mean reversion of the variance proxy.
    eps: vol of vol norm.  sigma_beta: cross term sigma . beta coupling the
    variance noise to the rate noise.  beta_sq: |beta|^2.  gamma_int:
    integral of |gamma|^2 over [0, T].  horizon: T.  v0: initial variance.
    """

    kappa_star: float
    theta_star: float
    eps: float
    sigma_beta: float
    beta_sq: float
    gamma_int: float
    horizon: float
    v0: float

    def __post_init__(self):
        if self.eps < 0.0:
            raise InvariantError("eps", "vol of vol must be >= 0")
        if self.horizon <= 0.0:
            raise InvariantError("horizon", "need T > 0")
        if self.v0 <= 0.0:
            raise InvariantError("v0", "initial variance must be positive")
        if self.beta_sq < 0.0 or self.gamma_int < 0.0:
            raise InvariantError("beta_sq", "squared loadings must be >= 0")
        # Cauchy-Schwarz: |sigma . beta| <= |sigma| |beta| <= eps |beta|.
        bound = self.eps * np.sqrt(self.beta_sq) + 1e-12
        if abs(self.sigma_beta) > bound:
            raise InvariantError("sigma_beta", "exceeds eps * |beta|")


def _deterministic_cf(z: np.ndarray, p: CharFnParams) -> np.ndarray:
    # eps = 0: v follows dv = kappa*(theta* - v)dt and the log-rate is
    # Gaussian with variance |beta|^2 int v + Gamma.
    kt = p.kappa_star * p.horizon
    if abs(kt) < 1e-14:
        mean_v = p.v0 * p.horizon
    else:
        mean_v = (p.theta_star * p.horizon
                  - (p.v0 - p.theta_star) * np.expm1(-kt) / p.kappa_star)
    total_var = p.beta_sq * mean_v + p.gamma_int
    psi = 1j * z + z * z
    return np.exp(-0.5 * psi * total_var)


def heston_cf(z, p: CharFnParams):
    """Characteristic function E exp(izx) of the affine log-return.

    Vectorized over complex ``z``; the Carr-Madan contour evaluates it at
    z - i for real z.  Principal-branch sqrt and log throughout.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if p.eps < EPS_DETERMINISTIC:
        out = _deterministic_cf(z, p)
        return out[0] if scalar else out

    psi = 1j * z + z * z
    a = p.kappa_star - 1j * z * p.sigma_beta
    w_sq = p.beta_sq * psi * p.eps ** 2
    d = np.sqrt(a * a + w_sq)
    T = p.horizon
    dT = d * T
    E = np.exp(-dT)

    # a - d without cancellation: (a - d)(a + d) = -|beta|^2 psi eps^2.
    # The guarded branches below are rare, so each is patched in only
    # where its mask holds instead of being evaluated over every node.
    apd = a + d
    tiny = np.abs(apd) < 1e-12 * (np.abs(a) + np.abs(d) + 1.0)
    amd = -w_sq / np.where(tiny, 1.0, apd)
    if tiny.any():
        amd[tiny] = a[tiny] - d[tiny]

    # phi1 = (1 - e^{-dT}) / (2d), Taylor past the d = 0 singularity.
    small = np.abs(dT) < 1e-5
    phi1 = (1.0 - E) / np.where(small, 1.0, 2.0 * dT / T)
    if small.any():
        ds = dT[small]
        phi1[small] = (T / 2.0) * (1.0 - ds / 2.0 + ds * ds / 6.0)

    # ln(1 + w) accurate for the |w| ~ eps^2 regime hit as eps -> 0.
    w = amd * phi1
    w_small = np.abs(w) < 1e-4
    log_term = np.log(1.0 + np.where(w_small, 0.0, w))
    if w_small.any():
        ws = w[w_small]
        log_term[w_small] = ws * (1.0 - ws * (0.5 - ws / 3.0))

    B = -p.beta_sq * psi * phi1 / (a * phi1 + (1.0 + E) / 2.0)
    A = (p.kappa_star * p.theta_star / p.eps ** 2) * (amd * T - 2.0 * log_term)
    out = np.exp(A + B * p.v0 - 0.5 * psi * p.gamma_int)
    return out[0] if scalar else out


def black_cf(z, sigma_b: float, horizon: float):
    """Characteristic function of the zero-drift lognormal log-return."""
    z = np.asarray(z, dtype=complex)
    return np.exp(-0.5 * sigma_b ** 2 * horizon * (z * z + 1j * z))


def caplet_cf_params(j: int, params, fact, tenor, libors) -> CharFnParams:
    """Assemble the caplet characteristic function inputs for expiry j."""
    eff = effective_caplet_params(j, params, fact, tenor, libors)
    gamma_sq = float(eff.gamma @ eff.gamma)
    return CharFnParams(
        kappa_star=eff.kappa_eff,
        theta_star=eff.theta_eff,
        eps=eff.eps,
        sigma_beta=eff.sigma_beta,
        beta_sq=eff.beta_norm ** 2,
        gamma_int=gamma_sq * eff.expiry,
        horizon=eff.expiry,
        v0=eff.v0,
    )


def swaption_cf_params(p: int, q: int, params, fact, tenor, curve,
                       libors) -> CharFnParams:
    """Assemble the swap-rate characteristic function inputs for [p, q].

    The single variance proxy uses eps^2 = |sigma_pq|^2 + sigmabar_pq^2 and
    starts at v0 = theta_pq.
    """
    ctx = swap_context(p, q, curve, tenor)
    eff = swap_effective_params(ctx, params, fact, tenor, libors)
    eps_sq = float(eff.sigma_avg @ eff.sigma_avg) + eff.sigma_bar_avg ** 2
    beta_sq = float(eff.beta @ eff.beta)
    gamma_sq = float(eff.gamma @ eff.gamma)
    return CharFnParams(
        kappa_star=eff.kappa_eff,
        theta_star=eff.theta_eff,
        eps=float(np.sqrt(eps_sq)),
        sigma_beta=float(eff.sigma_avg @ eff.beta),
        beta_sq=beta_sq,
        gamma_int=gamma_sq * eff.expiry,
        horizon=eff.expiry,
        v0=eff.theta_avg,
    )
