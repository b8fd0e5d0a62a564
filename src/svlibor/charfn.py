"""Closed-form characteristic functions of the affine log-rate dynamics.

For the displaced log-return x = ln((L+alpha)(T)/(L+alpha)(0)) under the
frozen affine approximation, the characteristic function is of Heston type:

    phi(z) = exp( A(z,T) + B(z,T) v0 ) * exp( -1/2 (iz + z^2) Gamma ),

with Gamma = integral of |gamma|^2 over [0, T] and, writing
psi = iz + z^2,

    a = kappa* - i z (sigma . beta),
    d = sqrt( a^2 + |beta|^2 psi eps^2 )          (principal branch),
    B = -|beta|^2 psi phi1 / g,
    A = (kappa* theta* / eps^2) * ( (a-d) T - 2 ln g ),

    phi1 = (1 - e^{-dT}) / (2d),
    g = 1 + (a-d) phi1 = ( (a+d) - (a-d) e^{-dT} ) / (2d).

This is the algebraic rearrangement of the textbook (a+d)/(a-d) form that
keeps every exponential argument non-positive in real part (|e^{-dT}| <= 1
since Re d >= 0 on the principal branch), so no overflow occurs for any z
on the pricing contour, and the complex logarithm stays on its principal
branch without rotation counting.  Further substitutions keep the
evaluation stable where naive arithmetic cancels (Lord & Kahl 2010): the
smaller of a + d and a - d comes from (a + d)(a - d) = -|beta|^2 psi eps^2;
ln g is taken from real parts, as log1p of |g|^2 - 1 = 2 Re w + |w|^2 with
w = (a-d) phi1, so that A (which carries a 1/eps^2 prefactor) stays
accurate down to the deterministic-variance limit; where 1 + w cancels
towards 0 (Re a < 0, strong positive vol-rate correlation) g comes from
the quotient form instead; phi1 switches to its Taylor series as dT -> 0,
which removes the d = 0 removable singularity.

The same formula serves caplets (measure-changed parameters of expiry j)
and swaptions (annuity-averaged parameters of the leg [p, q]); only the
parameter bundle differs.

``heston_cf`` also returns forward-mode derivatives of phi along given
directions in (kappa*, theta*, eps, sigma . beta, |beta|^2), computed on
the same guarded branches as the value; the calibration's Jacobian is
built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine import effective_caplet_params, swap_effective_params
from .errors import InvariantError
from .market_data import swap_context

__all__ = [
    "CharFnParams",
    "heston_cf",
    "explosion_margin",
    "black_cf",
    "caplet_cf_params",
    "swaption_cf_params",
]

# The CharFnParams fields a ``heston_cf`` tangent row moves, in order.
TANGENT_FIELDS = ("kappa_star", "theta_star", "eps", "sigma_beta", "beta_sq")

# Where |dT| is below P_SERIES the tangents take dphi1/dd from the series
# of (e^x - 1 - x) / x^2 = sum_k x^k / (k + 2)!, cut after x^(P_TERMS - 1).
P_SERIES = 1e-2
P_TERMS = 7

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


def _abs_sq(x: np.ndarray) -> np.ndarray:
    return x.real * x.real + x.imag * x.imag


def _safe(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` with 1 where ``mask`` holds, a denominator safe to divide by;
    ``x`` itself when the mask is empty, as it almost always is."""
    return np.where(mask, 1.0, x) if mask.any() else x


def heston_cf(z, p: CharFnParams, psi=None, tangents=None):
    """Characteristic function E exp(izx) of the affine log-return.

    Vectorized over complex ``z``; the Carr-Madan contour evaluates it at
    z - i for real z.  Principal-branch sqrt and log throughout.  ``psi``
    is iz + z^2 at ``z`` when the caller has it at hand (the quadrature
    rule caches it for its contour).

    ``tangents``, a (k, 5) array whose rows are directions in the fields
    ``TANGENT_FIELDS``, asks for the forward-mode derivatives as well: the
    call then returns (phi, dphi) with dphi of shape (k,) + z.shape, the
    derivative of phi along each row.  The deterministic-variance limit
    (eps below EPS_DETERMINISTIC) has no tangents.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if p.eps < EPS_DETERMINISTIC:
        if tangents is not None:
            raise NotImplementedError("no tangents below EPS_DETERMINISTIC")
        out = _deterministic_cf(z, p)
        return out[0] if scalar else out

    if psi is None:
        psi = 1j * z + z * z
    a = p.kappa_star - z * (1j * p.sigma_beta)
    w_sq = p.beta_sq * psi * p.eps ** 2
    d = np.sqrt(a * a + w_sq)
    T = p.horizon
    dT = d * T
    E = np.exp(-dT)

    # a + d and a - d: the larger in modulus is formed directly, the other
    # from (a + d)(a - d) = -|beta|^2 psi eps^2 without cancellation.  The
    # guarded branches below are rare, so each is patched in only where its
    # mask holds instead of being evaluated over every node.
    apd = a + d
    amd = a - d
    flip = np.abs(apd) <= np.abs(amd)  # Re a < 0, or a = d = 0
    direct = amd[flip]
    amd = -w_sq / _safe(flip, apd)
    if direct.size:
        amd[flip] = direct
        apd[flip] = -w_sq[flip] / np.where(direct == 0.0, 1.0, direct)

    # phi1 = (1 - e^{-dT}) / (2d), Taylor past the d = 0 singularity.
    small = np.abs(dT) < 1e-5
    phi1 = (1.0 - E) / _safe(small, 2.0 * dT / T)
    if small.any():
        ds = dT[small]
        phi1[small] = (T / 2.0) * (1.0 - ds / 2.0 + ds * ds / 6.0)

    # g = 1 + w, also B's denominator.  log1p keeps ln g accurate in the
    # |w| ~ eps^2 regime hit as eps -> 0; where 1 + w cancels towards 0
    # (Re a < 0) g comes from the quotient form instead.
    w = amd * phi1
    g = 1.0 + w
    near = np.abs(g) < 0.5
    log_abs = 0.5 * np.log1p(np.where(near, 0.0, 2.0 * w.real + _abs_sq(w)))
    if near.any():
        g[near] = (apd[near] - amd[near] * E[near]) / (2.0 * d[near])
        log_abs[near] = np.log(np.abs(g[near]))
    log_g = log_abs + 1j * np.arctan2(g.imag, g.real)

    B = -p.beta_sq * psi * phi1 / g
    A = (p.kappa_star * p.theta_star / p.eps ** 2) * (amd * T - 2.0 * log_g)
    exponent = A + B * p.v0
    if p.gamma_int:
        exponent -= 0.5 * psi * p.gamma_int
    out = np.exp(exponent)
    if tangents is None:
        return out[0] if scalar else out

    # Forward-mode tangents.  At every node phi depends on the fields only
    # through a, w_sq and scalar factors, so the derivatives of the
    # exponent by a and by w_sq are formed once, in stable forms on the
    # same branches as the values, and each tangent row is a combination
    # of five node arrays.  With r = 1/d and P = dphi1/dd:
    #   d(a +- d)/da = +-(a +- d) r,  d(a +- d)/dw_sq = +-r/2,
    #   dd/da = a r,  dd/dw_sq = r/2,  P = (T E/2 - phi1) r
    #   = -(T^2/2) E (e^{dT} - 1 - dT) / (dT)^2,
    # and, writing the exponent as K (amd T - 2 ln g) - v0 |beta|^2 psi
    # phi1 / g with K = kappa* theta* / eps^2, its derivative along any
    # seed is K T d(amd) - c1 dg - c2 dphi1 with c2 = v0 |beta|^2 psi / g
    # and c1 = (2K - c2 phi1) / g.
    # d = 0 needs a = 0 and psi = 0: z = 0, or phi(-i) if kappa* = sigma.beta.
    r = 1.0 / _safe(d == 0.0, d)
    # The derivative of the exponent by d vanishes as d -> 0 (phi is even
    # in d) and is divided by d again, so P needs full accuracy there: its
    # series where the closed form cancels.
    P = (0.5 * T * E - phi1) * r
    series = np.abs(dT) < P_SERIES
    if series.any():
        x = dT[series]
        h = np.full(x.shape, 1.0 / math.factorial(P_TERMS + 1), dtype=complex)
        for k in range(P_TERMS, 1, -1):
            h = h * x + 1.0 / math.factorial(k)
        P[series] = (-0.5 * T * T) * E[series] * h
    half_r = 0.5 * r
    aP = a * P
    dg_a = (aP - phi1) * amd * r
    dg_w = (amd * P - phi1) * half_r
    if near.any():
        # The quotient form: 1 + w cancels, so its derivative would too.
        rn, gn, En = r[near], g[near], E[near]
        tail = amd[near] * T * En - 2.0 * gn
        dg_a[near] = (0.5 * rn * rn) * (apd[near] + amd[near] * En
                                        + a[near] * tail)
        dg_w[near] = (0.25 * rn * rn) * (1.0 + En + tail)
    K = p.kappa_star * p.theta_star / p.eps ** 2
    inv_g = 1.0 / g
    c2 = (p.v0 * p.beta_sq) * psi * inv_g
    c1 = (2.0 * K - c2 * phi1) * inv_g
    # A tangent row moves a by dk - iz dsb, w_sq by psi (2 eps |beta|^2 de
    # + eps^2 db), K by (theta* dk + kappa* dth) / eps^2 - 2 K de / eps and
    # the B term by -v0 psi (phi1 / g) db.  Node rows: minus the exponent's
    # derivative by a, that times iz, psi times minus its derivative by
    # w_sq, A / K, and psi phi1 / g.
    nodes = np.empty((5, z.size), dtype=complex)
    np.multiply(K * T, amd, out=nodes[0])
    nodes[0] += c2 * aP
    nodes[0] *= r
    nodes[0] += c1 * dg_a
    np.multiply(1j * z, nodes[0], out=nodes[1])
    np.multiply(K * T + c2 * P, half_r, out=nodes[2])
    nodes[2] += c1 * dg_w
    nodes[2] *= psi
    np.subtract(amd * T, 2.0 * log_g, out=nodes[3])
    np.multiply(psi * phi1, inv_g, out=nodes[4])
    dk, dth, de, dsb, db = np.asarray(tangents, dtype=float).T
    coef = np.stack([-dk, dsb,
                     -2.0 * p.eps * p.beta_sq * de - p.eps ** 2 * db,
                     (p.theta_star * dk + p.kappa_star * dth) / p.eps ** 2
                     - 2.0 * K * de / p.eps,
                     -p.v0 * db], axis=1)
    d_exponent = (coef @ nodes.view(np.float64)).view(complex)
    d_out = out * d_exponent
    return (out[0], d_out[:, 0]) if scalar else (out, d_out)


def explosion_margin(p: CharFnParams) -> float:
    """Width of the strip below the pricing contour where phi is analytic.

    phi(z - i) is the characteristic function under the share measure.
    When its variance reversion a = kappa* - sigma.beta is negative, the
    moment E exp((1 + delta) x) explodes by T once delta exceeds about
    4 a^2 e^{aT} / (|beta|^2 eps^2) (Andersen & Piterbarg 2007), and
    phi(z - i) varies on that scale near z = 0.  Returns inf for a >= 0.
    """
    a = p.kappa_star - p.sigma_beta
    if a >= 0.0:
        return float("inf")
    return 4.0 * a * a * math.exp(a * p.horizon) / (p.beta_sq * p.eps ** 2)


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
