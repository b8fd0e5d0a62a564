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
built from them.  Given arrays for its results (``out``), it writes every
node array into the calling thread's work arrays, so that pricing a
Fourier row allocates none.  Its two complex exponentials, e^{-dT} and phi
itself, are numpy's ``exp``: every argument has a non-positive real part
on the contour, so neither needs guarding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scratch import Scratch
from .affine import (EffectiveCapletParams, effective_caplet_params,
                     swap_effective_params)
from .errors import InvariantError
from .market_data import swap_context

__all__ = [
    "CharFnParams",
    "heston_cf",
    "explosion_margin",
    "black_cf",
    "caplet_cf_params",
    "cf_params_of",
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

_SCRATCH = Scratch()


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


def _safe(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` with 1 where ``mask`` holds, a denominator safe to divide by;
    ``x`` itself when the mask is empty, as it almost always is."""
    return np.where(mask, 1.0, x) if mask.any() else x


def heston_cf(z, p: CharFnParams, psi=None, tangents=None, out=None):
    """Characteristic function E exp(izx) of the affine log-return.

    Vectorized over complex ``z``; the Carr-Madan contour evaluates it at
    z - i for real z.  Principal-branch sqrt and log throughout.  ``psi``
    is iz + z^2 at ``z`` when the caller has it at hand
    (``QuadratureConfig.psi`` holds it for the rule's contour).

    ``tangents``, a (k, 5) array whose rows are directions in the fields
    ``TANGENT_FIELDS``, asks for the forward-mode derivatives as well: the
    call then returns (phi, dphi) with dphi of shape (k,) + z.shape, the
    derivative of phi along each row.  The deterministic-variance limit
    (eps below EPS_DETERMINISTIC) has no tangents.

    ``out`` receives the values instead of new arrays: an array of z's
    shape, or with tangents the pair (phi, dphi) of arrays of those shapes.
    The intermediates live in per-thread work arrays (``_scratch``), so
    with ``out`` a warm call allocates no array of z's size; the Fourier
    rows call it so.
    """
    z = np.asarray(z, dtype=complex)
    if psi is None:
        psi = 1j * z + z * z
    if out is not None:
        return _heston_cf(z, p, psi, tangents, out)
    shape = z.shape
    z, psi = np.atleast_1d(z), np.atleast_1d(psi)
    phi = np.empty(z.shape, dtype=complex)
    if tangents is None:
        return _heston_cf(z, p, psi, None, phi).reshape(shape)[()]
    k = np.shape(tangents)[0]
    d_phi = np.empty((k,) + z.shape, dtype=complex)
    phi, d_phi = _heston_cf(z, p, psi, tangents, (phi, d_phi))
    return phi.reshape(shape)[()], d_phi.reshape((k,) + shape)


def _heston_cf(z: np.ndarray, p: CharFnParams, psi: np.ndarray, tangents,
               out):
    """``heston_cf`` at an array ``z`` with its ``psi``, into ``out``."""
    if p.eps < EPS_DETERMINISTIC:
        if tangents is not None:
            raise NotImplementedError("no tangents below EPS_DETERMINISTIC")
        np.copyto(out, _deterministic_cf(z, p))
        return out

    # Every step writes into a work array with ``out=`` and keeps the
    # operand order of the expression it stands for (numpy's complex product
    # need not commute bitwise), so the values are bitwise those of the
    # formulas evaluated into new arrays.
    buf = _SCRATCH.arrays(z.shape)
    tmp = buf("tmp")
    mod, mod2 = buf("mod", float), buf("mod2", float)
    a = np.multiply(z, 1j * p.sigma_beta, out=buf("a"))
    np.subtract(p.kappa_star, a, out=a)
    w_sq = np.multiply(psi, p.beta_sq, out=buf("w_sq"))
    w_sq *= p.eps ** 2
    d = np.multiply(a, a, out=buf("d"))
    d += w_sq
    np.sqrt(d, out=d)
    T = p.horizon
    dT = np.multiply(d, T, out=buf("dT"))
    E = np.negative(dT, out=buf("E"))
    np.exp(E, out=E)

    # a + d and a - d: the larger in modulus is formed directly, the other
    # from (a + d)(a - d) = -|beta|^2 psi eps^2 without cancellation.  The
    # guarded branches below are rare, so each is patched in only where its
    # mask holds instead of being evaluated over every node.
    apd = np.add(a, d, out=buf("apd"))
    amd = np.subtract(a, d, out=buf("amd"))
    flip = np.less_equal(np.abs(apd, out=mod), np.abs(amd, out=mod2),
                         out=buf("flip", bool))  # Re a < 0, or a = d = 0
    direct = amd[flip]
    np.negative(w_sq, out=amd)
    amd /= _safe(flip, apd)
    if direct.size:
        amd[flip] = direct
        apd[flip] = -w_sq[flip] / np.where(direct == 0.0, 1.0, direct)

    # phi1 = (1 - e^{-dT}) / (2d), Taylor past the d = 0 singularity.
    small = np.less(np.abs(dT, out=mod), 1e-5, out=buf("small", bool))
    phi1 = np.subtract(1.0, E, out=buf("phi1"))
    np.multiply(dT, 2.0, out=tmp)
    tmp /= T
    phi1 /= _safe(small, tmp)
    if small.any():
        ds = dT[small]
        phi1[small] = (T / 2.0) * (1.0 - ds / 2.0 + ds * ds / 6.0)

    # g = 1 + w, also B's denominator.  log1p keeps ln g accurate in the
    # |w| ~ eps^2 regime hit as eps -> 0; where 1 + w cancels towards 0
    # (Re a < 0) g comes from the quotient form instead.  ln |g| and arg g
    # are formed in the real and imaginary parts of ln g.
    w = np.multiply(amd, phi1, out=buf("w"))
    g = np.add(w, 1.0, out=buf("g"))
    near = np.less(np.abs(g, out=mod), 0.5, out=buf("near", bool))
    log_g = buf("log_g")
    log_abs = log_g.real
    np.multiply(w.real, w.real, out=log_abs)
    log_abs += np.multiply(w.imag, w.imag, out=mod)
    log_abs += np.multiply(w.real, 2.0, out=mod)
    if near.any():
        log_abs[near] = 0.0
    np.log1p(log_abs, out=log_abs)
    log_abs *= 0.5
    if near.any():
        g[near] = (apd[near] - amd[near] * E[near]) / (2.0 * d[near])
        log_abs[near] = np.log(np.abs(g[near]))
    np.arctan2(g.imag, g.real, out=log_g.imag)

    # A = K (amd T - 2 ln g) with K = kappa* theta* / eps^2, and
    # B = -|beta|^2 psi phi1 / g.
    K = p.kappa_star * p.theta_star / p.eps ** 2
    A_over_K = np.multiply(amd, T, out=buf("A_over_K"))
    A_over_K -= np.multiply(log_g, 2.0, out=tmp)
    exponent = np.multiply(A_over_K, K, out=buf("exponent"))
    B = np.multiply(psi, -p.beta_sq, out=tmp)
    B *= phi1
    B /= g
    B *= p.v0
    exponent += B
    if p.gamma_int:
        gamma_term = np.multiply(psi, 0.5, out=tmp)
        gamma_term *= p.gamma_int
        exponent -= gamma_term
    if tangents is None:
        return np.exp(exponent, out=out)
    phi, d_phi = out
    np.exp(exponent, out=phi)

    # Forward-mode tangents.  At every node phi depends on the fields only
    # through a, w_sq and scalar factors, so the derivatives of the
    # exponent by a and by w_sq are formed once, in stable forms on the
    # same branches as the values, and each tangent row is a combination
    # of five node arrays.  With r = 1/d and P = dphi1/dd:
    #   d(a +- d)/da = +-(a +- d) r,  d(a +- d)/dw_sq = +-r/2,
    #   dd/da = a r,  dd/dw_sq = r/2,  P = (T E/2 - phi1) r
    #   = -(T^2/2) E (e^{dT} - 1 - dT) / (dT)^2,
    # and, writing the exponent as K (amd T - 2 ln g) - v0 |beta|^2 psi
    # phi1 / g, its derivative along any seed is K T d(amd) - c1 dg
    # - c2 dphi1 with c2 = v0 |beta|^2 psi / g and c1 = (2K - c2 phi1) / g.
    # d = 0 needs a = 0 and psi = 0: z = 0, or phi(-i) if kappa* = sigma.beta.
    r = np.divide(1.0, _safe(np.equal(d, 0.0, out=buf("zero", bool)), d),
                  out=buf("r"))
    # The derivative of the exponent by d vanishes as d -> 0 (phi is even
    # in d) and is divided by d again, so P needs full accuracy there: its
    # series where the closed form cancels.
    P = np.multiply(E, 0.5 * T, out=buf("P"))
    P -= phi1
    P *= r
    series = np.less(np.abs(dT, out=mod), P_SERIES, out=buf("series", bool))
    if series.any():
        x = dT[series]
        h = np.full(x.shape, 1.0 / math.factorial(P_TERMS + 1), dtype=complex)
        for k in range(P_TERMS, 1, -1):
            h = h * x + 1.0 / math.factorial(k)
        P[series] = (-0.5 * T * T) * E[series] * h
    half_r = np.multiply(r, 0.5, out=buf("half_r"))
    aP = np.multiply(a, P, out=buf("aP"))
    dg_a = np.subtract(aP, phi1, out=buf("dg_a"))
    dg_a *= amd
    dg_a *= r
    dg_w = np.multiply(amd, P, out=buf("dg_w"))
    dg_w -= phi1
    dg_w *= half_r
    if near.any():
        # The quotient form: 1 + w cancels, so its derivative would too.
        rn, gn, En = r[near], g[near], E[near]
        tail = amd[near] * T * En - 2.0 * gn
        dg_a[near] = (0.5 * rn * rn) * (apd[near] + amd[near] * En
                                        + a[near] * tail)
        dg_w[near] = (0.25 * rn * rn) * (1.0 + En + tail)
    inv_g = np.divide(1.0, g, out=buf("inv_g"))
    c2 = np.multiply(psi, p.v0 * p.beta_sq, out=buf("c2"))
    c2 *= inv_g
    c1 = np.multiply(c2, phi1, out=buf("c1"))
    np.subtract(2.0 * K, c1, out=c1)
    c1 *= inv_g
    # A tangent row moves a by dk - iz dsb, w_sq by psi (2 eps |beta|^2 de
    # + eps^2 db), K by (theta* dk + kappa* dth) / eps^2 - 2 K de / eps and
    # the B term by -v0 psi (phi1 / g) db.  Node rows: minus the exponent's
    # derivative by a, that times iz, psi times minus its derivative by
    # w_sq, A / K, and psi phi1 / g.
    nodes = buf("nodes", rows=5)
    np.multiply(amd, K * T, out=nodes[0])
    nodes[0] += np.multiply(c2, aP, out=tmp)
    nodes[0] *= r
    nodes[0] += np.multiply(c1, dg_a, out=tmp)
    np.multiply(np.multiply(z, 1j, out=tmp), nodes[0], out=nodes[1])
    np.multiply(c2, P, out=tmp)
    tmp += K * T
    np.multiply(tmp, half_r, out=nodes[2])
    nodes[2] += np.multiply(c1, dg_w, out=tmp)
    nodes[2] *= psi
    nodes[3] = A_over_K
    np.multiply(psi, phi1, out=nodes[4])
    nodes[4] *= inv_g
    dk, dth, de, dsb, db = np.asarray(tangents, dtype=float).T
    coef = np.stack([-dk, dsb,
                     -2.0 * p.eps * p.beta_sq * de - p.eps ** 2 * db,
                     (p.theta_star * dk + p.kappa_star * dth) / p.eps ** 2
                     - 2.0 * K * de / p.eps,
                     -p.v0 * db], axis=1)
    d_exponent = buf("d_exponent", rows=len(coef))
    np.matmul(coef, nodes.view(np.float64), out=d_exponent.view(np.float64))
    for row, d in zip(d_phi, d_exponent):
        # A row at a time: numpy buffers a broadcast product over the block.
        np.multiply(phi, d, out=row)
    return phi, d_phi


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


def cf_params_of(eff: EffectiveCapletParams) -> CharFnParams:
    """The characteristic function inputs of a caplet's parameters."""
    return CharFnParams(
        kappa_star=eff.kappa_eff,
        theta_star=eff.theta_eff,
        eps=eff.eps,
        sigma_beta=eff.sigma_beta,
        beta_sq=eff.beta_norm ** 2,
        gamma_int=float(eff.gamma @ eff.gamma) * eff.expiry,
        horizon=eff.expiry,
        v0=eff.v0,
    )


def caplet_cf_params(j: int, params, fact, tenor, libors) -> CharFnParams:
    """Assemble the caplet characteristic function inputs for expiry j."""
    return cf_params_of(effective_caplet_params(j, params, fact, tenor,
                                                libors))


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
