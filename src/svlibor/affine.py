"""Effective affine parameters for caplet and swaption pricing.

Freezing Libor-dependent drift coefficients at their time-0 values turns the
variance dynamics under the payment measure (caplets) and the annuity
measure (swaptions) into square-root processes with shifted mean reversion.
The shift conserves the product kappa * theta.

Both approximations end in ``CharFnParams``, the one record of the eight
numbers the Heston-type characteristic function (``charfn.heston_cf``)
reads; ``TANGENT_FIELDS`` names the five a tangent row moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDriftError, InvariantError
from .market_data import SwapContext, TenorStructure
from .model import ModelParams, VolFactorization

__all__ = [
    "CapletMap",
    "CharFnParams",
    "caplet_map",
    "effective_caplet_params",
    "swap_averaged_vol_params",
    "swap_displacement",
    "swap_effective_params",
]

# The CharFnParams fields a ``heston_cf`` tangent row moves, in order.
TANGENT_FIELDS = ("kappa_star", "theta_star", "eps", "sigma_beta", "beta_sq")


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
        if self.beta_sq < 0.0:
            raise InvariantError("beta_sq", "squared loading must be >= 0")
        if self.gamma_int < 0.0:
            raise InvariantError("gamma_int", "integrated squared Gaussian "
                                 "loading must be >= 0")
        # Cauchy-Schwarz: |sigma . beta| <= |sigma| |beta| <= eps |beta|.
        bound = self.eps * np.sqrt(self.beta_sq) + 1e-12
        if abs(self.sigma_beta) > bound:
            raise InvariantError("sigma_beta", "exceeds eps * |beta|")


def _drift_loads(params: ModelParams, libors: np.ndarray,
                 tenor: TenorStructure) -> np.ndarray:
    """Frozen drift couplings c_k = [delta_k (L_k + alpha_k)/(1 + delta_k L_k)](0)."""
    delta = tenor.day_counts
    n = tenor.n
    c = np.zeros(n + 1)
    body = slice(1, n)
    c[body] = (delta[body] * (libors[body] + params.alpha[body])
               / (1.0 + delta[body] * libors[body]))
    return c


@dataclass(frozen=True)
class CapletMap:
    """Expiry j's caplet map from x = (|beta_j|, kappa_j, eps_j, rho_j) to
    its characteristic-function inputs under the T_{j+1}-forward measure.

    It holds what none of x moves: the drift slope C_j = sum_{k>j}
    sqrt(theta_k/theta_j) c_k (e_j . beta_k), the frozen drift's tail sum
    over k > j with sigma_j = rho_j eps_j e_j factored out; e_j . e_j;
    theta_j; T_j and Gamma_j = |gamma_j|^2 T_j.  ``at`` gives

        kappa_star = kappa_eff = kappa_j - rho_j eps_j C_j,
        theta_star = kappa_j theta_j / kappa_eff,
        sigma . beta = rho_j eps_j |beta_j| (e_j . e_j),

    with eps_j, |beta_j|^2, Gamma_j, T_j and v0 = theta_j.
    """

    j: int
    slope: float
    ee: float
    theta: float
    expiry: float
    gamma_int: float

    def at(self, x) -> CharFnParams:
        """The caplet's CF inputs at x; DegenerateDriftError for a
        non-positive kappa_eff."""
        beta, kappa, eps, rho = x
        kappa_eff = float(kappa - rho * eps * self.slope)
        if kappa_eff <= 0.0:
            raise DegenerateDriftError(f"kappa_eff(j={self.j})", kappa_eff)
        return CharFnParams(
            kappa_star=kappa_eff,
            theta_star=float(kappa * self.theta / kappa_eff),
            eps=float(eps), sigma_beta=float(rho * eps * beta * self.ee),
            beta_sq=float(beta) ** 2, gamma_int=self.gamma_int,
            horizon=self.expiry, v0=self.theta)

    def partials(self, x, kappa_eff: float) -> np.ndarray:
        """Partials of the caplet CF inputs in x.

        Rows are the fields ``TANGENT_FIELDS``; columns are x = (|beta_j|,
        kappa_j, eps_j, rho_j).  ``kappa_eff`` is ``at(x).kappa_star``.
        """
        beta, kappa, eps, rho = x
        slope, ee, theta = self.slope, self.ee, self.theta
        d_kappa = np.array([0.0, 1.0, -rho * slope, -eps * slope])
        # d theta_star = theta_j (d kappa - (kappa / kappa_eff) d kappa_eff)
        #               / kappa_eff.
        d_theta = -(theta * kappa / kappa_eff ** 2) * d_kappa
        d_theta[1] += theta / kappa_eff
        return np.array([
            d_kappa,
            d_theta,
            [0.0, 0.0, 1.0, 0.0],
            [rho * eps * ee, 0.0, rho * beta * ee, eps * beta * ee],
            [2.0 * beta, 0.0, 0.0, 0.0],
        ])


def caplet_map(j: int, params: ModelParams, fact: VolFactorization,
               tenor: TenorStructure, libors: np.ndarray) -> CapletMap:
    """Expiry j's ``CapletMap``; IndexError for j outside 1..n-1.  None of
    its fields moves with expiry j's own entries of ``params``."""
    n = params.n
    if not (1 <= j <= n - 1):
        raise IndexError(f"expiry index {j} outside 1..{n - 1}")
    c = _drift_loads(params, libors, tenor)
    tail = slice(j + 1, n)
    e_j = fact.loadings[j]
    slope = np.sum(np.sqrt(params.theta[tail] / params.theta[j]) * c[tail]
                   * params.beta_norm[tail] * (fact.loadings[tail] @ e_j))
    expiry = float(tenor.dates[j])
    return CapletMap(j=j, slope=float(slope), ee=float(e_j @ e_j),
                     theta=float(params.theta[j]), expiry=expiry,
                     gamma_int=float(params.gamma[j] @ params.gamma[j])
                     * expiry)


def effective_caplet_params(j: int, params: ModelParams, fact: VolFactorization,
                            tenor: TenorStructure,
                            libors: np.ndarray) -> CharFnParams:
    """CF inputs of the caplet on L_j, v_j under the T_{j+1}-forward
    measure: expiry j's ``CapletMap`` at its entries of ``params``."""
    return caplet_map(j, params, fact, tenor, libors).at(
        (params.beta_norm[j], params.kappa[j], params.eps[j], params.rho[j]))


def swap_averaged_vol_params(ctx: SwapContext, params: ModelParams,
                             fact: VolFactorization):
    """w-weighted averages (kappa, theta, sigma vector, sigmabar) over the leg."""
    leg = np.arange(ctx.p, ctx.q)
    w = ctx.weights[leg]
    kappa_avg = float(w @ params.kappa[leg])
    theta_avg = float(w @ params.theta[leg])
    sigma_avg = w @ fact.sigma[leg]
    sigma_bar_avg = float(w @ fact.sigma_bar[leg])
    return kappa_avg, theta_avg, sigma_avg, sigma_bar_avg


def swap_displacement(ctx: SwapContext, params: ModelParams) -> float:
    """Swap-rate displacement alpha_pq = sum_{j in [p, q)} xi_j alpha_j."""
    leg = slice(ctx.p, ctx.q)
    return float(ctx.xi[leg] @ params.alpha[leg])


def swap_effective_params(ctx: SwapContext, params: ModelParams,
                          fact: VolFactorization, tenor: TenorStructure,
                          libors: np.ndarray) -> CharFnParams:
    """CF inputs of the payer swaption on the leg [p, q]: averaged swap-rate
    loadings plus the annuity-measure drift shift.

    beta_pq and gamma_pq are the xi-weighted sums of beta_j and gamma_j
    scaled by (L_j + alpha_j)/(S + alpha_pq) at time 0, the swap rate
    displaced by alpha_pq (``swap_displacement``) as each Libor is by
    alpha_j, so that [j, j+1] is the caplet on L_j.  The mean-reversion
    shift mirrors the caplet case with the averaged sigma_pq and the
    weight-mixed correction sum; theta is rescaled to conserve
    kappa * theta.  The single variance proxy has
    eps^2 = |sigma_pq|^2 + sigmabar_pq^2 and starts at v0 = theta_pq.
    """
    kappa_avg, theta_avg, sigma_avg, sigma_bar_avg = \
        swap_averaged_vol_params(ctx, params, fact)
    n = params.n
    leg = np.arange(ctx.p, ctx.q)
    scale = ((libors[leg] + params.alpha[leg])
             / (ctx.swap_rate + swap_displacement(ctx, params)) * ctx.xi[leg])
    beta_pq = scale @ (params.beta_norm[leg, None] * fact.loadings[leg])
    gamma_pq = scale @ params.gamma[leg]

    c = _drift_loads(params, libors, tenor)
    sigma_beta = np.zeros(n + 1)
    body = slice(1, n)
    sigma_beta[body] = (params.beta_norm[body, None]
                        * fact.loadings[body]) @ sigma_avg
    # tail_l = sum_{k=l+1}^{n-1} c_k (sigma_pq . beta_k), assembled once and
    # mixed with the annuity weights.
    terms = c * sigma_beta
    tails = np.concatenate([np.cumsum(terms[::-1])[::-1][1:], [0.0]])
    correction = float(ctx.weights[leg] @ tails[leg])
    kappa_eff = float(kappa_avg - correction)
    if kappa_eff <= 0.0:
        raise DegenerateDriftError(f"kappa_eff(p={ctx.p},q={ctx.q})", kappa_eff)
    expiry = float(tenor.dates[ctx.p])
    eps_sq = float(sigma_avg @ sigma_avg) + sigma_bar_avg ** 2
    return CharFnParams(
        kappa_star=kappa_eff,
        theta_star=float(kappa_avg * theta_avg / kappa_eff),
        eps=float(np.sqrt(eps_sq)),
        sigma_beta=float(sigma_avg @ beta_pq),
        beta_sq=float(beta_pq @ beta_pq),
        gamma_int=float(gamma_pq @ gamma_pq) * expiry,
        horizon=expiry,
        v0=theta_avg,
    )
