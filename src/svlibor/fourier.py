"""Fourier pricing: Black-76, Carr-Madan inversion with Black control variate.

The call price with characteristic function phi of the log-return is

    price = D * [ Black(F, T, sigma_b, K)
        + (F / 2 pi) * Int_{-inf}^{inf} (phi_B(z-i) - phi(z-i))
                       / (z (z-i)) * e^{-i z ln(K/F)} dz ],

where D collects discounting and accrual, and phi_B is the Black
characteristic function with a reference volatility sigma_b.  Subtracting
the analytically invertible Black term makes the integrand decay fast,
and by Hermitian symmetry (phi(-conj(z)) = conj(phi(z))) the integral
equals twice the real part over the half line z > 0, which is what the
quadrature below evaluates.

Every price goes through two steps.  A ``StrikeRow`` (``caplet_row``,
``swaption_row``) holds what no characteristic function changes: forward,
discount, strikes, the phase rows cos/sin(z ln(K/F)) over the rule's
nodes, and the ``QuadratureConfig`` itself, which built its nodes and
their node-only contour terms when it was constructed.  ``price_row`` then
costs one CF call on the contour and one matrix-vector product, so a
calibration builds its row once and prices every candidate against it.

No sine or cosine is evaluated on the phases.  numpy's float64 tan is
vectorized where its sin and cos are scalar code, so every phase pair
comes from one tangent per node and strike, by the half-angle identity

    (cos theta, sin theta) = ((1 - t^2), 2t) / (1 + t^2),  t = tan(theta/2).

The characteristic functions' complex exponentials are numpy's ``exp``.

The cost of a row does not depend on the state of the C heap.  A row
allocates its phase matrix and builds it in place; a warm ``price_row``
writes the CF values, their tangents and the integrand into per-thread
work arrays (``_scratch``) and allocates nothing of the contour's size.
Temporaries of that size, freed and allocated again on every row, are
what the heap hands back to the system and then faults in anew.

The module needs numpy alone: the normal CDF of Black-76 is built on
``math.erfc``, and ``implied_vol`` runs safeguarded Newton steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._scratch import Scratch
from .charfn import (caplet_cf_params, explosion_margin, heston_cf,
                     swaption_cf_params)
from .errors import ArbitrageBoundError, InvariantError, QuadratureError, StrikeError
from .market_data import strip_libors, swap_context
from .model import build_factorization

__all__ = [
    "QuadratureConfig",
    "StrikeRow",
    "black76",
    "carr_madan_cv",
    "caplet_row",
    "swaption_row",
    "price_row",
    "caplet_price",
    "swaption_price",
    "implied_vol",
]


# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit those of
# ``numpy.polynomial.legendre.leggauss(16)``: written out, so that importing
# the package does not load ``numpy.polynomial``.
_GL16_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499])
_GL16_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176])


@dataclass(frozen=True)
class QuadratureConfig:
    """Graded static half-line quadrature on [0, z_max], with its nodes.

    Composite 16-point Gauss-Legendre on n / 16 panels: the first is
    [0, INNER_PANEL], the next ones are geometric up to z_max / 10 and
    the last 3/8 are uniform on [z_max / 10, z_max].  The geometric panels
    resolve the control-variate integrand where large total variance
    concentrates it near z = 0; the uniform ones cap the panel width for
    small total variance, where the integrand still oscillates at the
    log-moneyness frequency far out.  All n nodes go through one
    characteristic-function call, and the prices are smooth functions of
    the model parameters.  The default (1536 nodes) holds wide strikes to
    1e-9; the calibration objective uses 768 (``calibrate.QUAD``).

    The constructor builds the rule's read-only arrays with their
    node-only contour terms, from the 16-point rule written out in this
    module; equality and hash are those of (z_max, n).  A strike row's
    phase pairs are its ``pair_weights`` times ((1 - t^2), 2t) / (1 + t^2),
    t = tan(z ln(K/F) / 2) at each of its ``nodes``.
    """

    z_max: float = 400.0
    n: int = 1536
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    # each node's weight twice, for a phase pair
    pair_weights: np.ndarray = field(init=False, repr=False, compare=False)
    # z - i at every node, then -i for the phi(-i) check
    contour: np.ndarray = field(init=False, repr=False, compare=False)
    # z (z - i)
    denom: np.ndarray = field(init=False, repr=False, compare=False)
    # iz + z^2 at the contour: the exponent of the Black CF (up to its
    # factor) and the Heston CF's psi.
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.z_max <= 0.0:
            raise InvariantError("z_max", "truncation bound must be positive")
        if self.n < 64:
            raise InvariantError("n", "need at least 64 nodes")
        if self.n % 16:
            raise InvariantError("n", "node count must be a multiple of 16")
        x, w = _GL16_NODES, _GL16_WEIGHTS
        panels = self.n // 16
        uniform = panels * 3 // 8
        knee = self.z_max / 10.0
        edges = np.concatenate([[0.0],
                                np.geomspace(INNER_PANEL, knee,
                                             panels - uniform),
                                np.linspace(knee, self.z_max,
                                            uniform + 1)[1:]])
        half = np.diff(edges) / 2.0
        centers = (edges[:-1] + edges[1:]) / 2.0
        nodes = (centers[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        zi = nodes - 1j
        contour = np.append(zi, -1j)
        for name, arr in (("nodes", nodes),
                          ("pair_weights", np.repeat(weights, 2)),
                          ("contour", contour), ("denom", nodes * zi),
                          ("psi", contour * contour + 1j * contour)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# Width of the graded rule's first panel [0, INNER_PANEL].  A characteristic
# function that varies on a scale under half of it near z = 0 is refused.
INNER_PANEL = 1e-4
DEFAULT_QUAD = QuadratureConfig()

# Strikes whose phase tangents share one pair of work arrays.
PHASE_BLOCK = 16

_SCRATCH = Scratch()
_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2) of a 1-D array.

    A loop over ``math.erfc``: rows hold a few dozen strikes, and numpy has
    no erfc of its own.  Black-76 passes d+ and d- in one array.
    """
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()])


def _black(F, K, log_fk, total):
    """Black-76 calls F N(d+) - K N(d-) of positive strikes K, with
    ``log_fk`` = ln(F/K) and ``total`` = vol sqrt(T), and their d+.

    ``total`` <= 0 gives the intrinsic value and d+ None.  Unchecked: the
    callers validate their inputs.
    """
    if total <= 0.0:
        return np.maximum(F - K, 0.0), None
    d_plus = log_fk / total + 0.5 * total
    n = _norm_cdf(np.concatenate((d_plus, d_plus - total)))
    return F * n[:d_plus.size] - K * n[d_plus.size:], d_plus


def black76(forward, expiry, vol, strike):
    """Undiscounted Black-76 call value L N(d+) - K N(d-).

    Vectorized over forward/strike; vol = 0 or expiry = 0 degenerates to
    the intrinsic value, non-positive strikes return forward parity
    (exercise certain) with a warning.  A forward that is not positive, a
    vol or expiry that is negative, or any input that is not finite raises
    InvariantError.
    """
    F = np.asarray(forward, dtype=float)
    K = np.asarray(strike, dtype=float)
    scalar = F.ndim == 0 and K.ndim == 0
    F, K = np.atleast_1d(F), np.atleast_1d(K)
    F, K = np.broadcast_arrays(F, K)
    if not np.all((F > 0.0) & (F < np.inf)):
        raise InvariantError("forward",
                             "Black-76 needs a positive, finite forward")
    if not np.all(np.isfinite(K)):
        raise InvariantError("strike", "Black-76 needs finite strikes")
    for name, value in (("expiry", expiry), ("vol", vol)):
        if not 0.0 <= float(value) < np.inf:
            raise InvariantError(name, f"{value} is not finite and >= 0")
    out = np.empty(F.shape)
    certain = K <= 0.0
    if np.any(certain):
        warnings.warn("non-positive strike: returning forward parity F - K",
                      stacklevel=2)
        out[certain] = F[certain] - K[certain]
    live = ~certain
    if np.any(live):
        out[live] = _black(F[live], K[live], np.log(F[live] / K[live]),
                           float(vol) * np.sqrt(float(expiry)))[0]
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class StrikeRow:
    """The part of a Carr-Madan price row that no characteristic function
    changes: forward, discount, strikes and the phase rows.

    Built once per strike vector (``caplet_row``, ``swaption_row``) and
    priced for any number of characteristic functions (``price_row``).
    Zero strikes price by parity, discount * forward; the live (positive)
    ones carry ln(F/K) for Black-76 and a phase row over the rule's nodes:
    w cos(theta) and w sin(theta), theta = z ln(K/F), interleaved per node
    (w the node's weight), the layout of a complex array's (real,
    imaginary) pairs.  A pair is built as w ((1 - t^2), 2t) / (1 + t^2)
    from t = tan(theta / 2), within 4 * 2^-53 w of numpy's cos and sin.
    Its arrays are read-only: a calibration prices every candidate against
    one row.
    """

    forward: float
    discount: float
    shape: tuple  # () for a scalar strike
    live: np.ndarray  # mask of the positive strikes
    strikes: np.ndarray  # the live strikes
    log_fk: np.ndarray  # ln(F/K) of the live strikes
    phases: np.ndarray  # (live strikes, 2 * nodes)
    rule: QuadratureConfig


def _strike_row(forward: float, strike: np.ndarray, discount: float,
                quad: QuadratureConfig) -> StrikeRow:
    """Row of finite non-negative strikes (a caplet's displaced); live
    ones need a positive forward.  Raises StrikeError otherwise."""
    K = np.atleast_1d(strike)
    if not np.all((K >= 0.0) & (K < np.inf)):
        raise StrikeError("a strike (for a caplet, strike plus displacement)"
                          " is negative or not finite")
    live = K != 0.0
    K_live = K[live]
    if K_live.size and forward <= 0.0:
        raise StrikeError("Carr-Madan needs a positive forward")
    # Built in place, so that a row allocates its phases and nothing else
    # of their size.  A block of strikes at a time, t = tan(theta / 2) and
    # t^2 go into contiguous work arrays (tan and the arithmetic there run
    # at about half their cost on the interleaved slots), and the pairs
    # (1 - t^2, 2t) / (1 + t^2) into the phases; then every pair is
    # multiplied by its node's weight.  The loops over strikes are where an
    # array broadcasts: numpy buffers a broadcast product over the whole
    # matrix.
    phases = np.empty((K_live.size, 2 * quad.nodes.size))
    buf = _SCRATCH.arrays(quad.nodes.shape)
    t_work = buf("tan", float, rows=PHASE_BLOCK)
    t_sq_work = buf("tan_sq", float, rows=PHASE_BLOCK)
    half_log_kf = 0.5 * np.log(K_live / forward)
    for start in range(0, K_live.size, PHASE_BLOCK):
        block = phases[start:start + PHASE_BLOCK]
        cos, sin = block[:, 0::2], block[:, 1::2]
        t, t_sq = t_work[:len(block)], t_sq_work[:len(block)]
        for row, half in zip(t, half_log_kf[start:start + PHASE_BLOCK]):
            np.multiply(half, quad.nodes, out=row)
        np.tan(t, out=t)
        np.multiply(t, t, out=t_sq)
        np.subtract(1.0, t_sq, out=cos)
        t_sq += 1.0
        cos /= t_sq
        t *= 2.0
        np.divide(t, t_sq, out=sin)
    for row in phases:
        row *= quad.pair_weights
    log_fk = np.log(forward / K_live)
    for arr in (live, K_live, log_fk, phases):
        arr.setflags(write=False)
    return StrikeRow(forward=forward, discount=discount,
                     shape=np.shape(strike), live=live, strikes=K_live,
                     log_fk=log_fk, phases=phases, rule=quad)


def _invert(row: StrikeRow, values: np.ndarray, sigma_b: float,
            expiry: float, tangents=None):
    """Prices of a row's strikes from CF values at ``row.rule.contour``.

    The Black control variate with volatility ``sigma_b`` over ``expiry``
    is inverted in closed form; the correction integral is one
    matrix-vector product of the row's phases with the integrand's (real,
    imaginary) pairs.  Raises QuadratureError when a CF value or a price
    is inf or nan, and InvariantError unless phi(-i) = 1.

    ``tangents`` = (d_values, d_sigma_b), the derivatives of the CF values
    (k, contour) and of sigma_b (k,) along k directions, asks for the
    derivatives of the prices as well, returned with them as
    (prices, (strikes..., k)).  They are those of this discrete price, so
    the control variate's part does not cancel.  They are returned as
    computed: a tangent that overflows comes back inf or nan, for the
    caller to check, while the prices are checked as without tangents.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise QuadratureError(f"non-finite characteristic function at "
                              f"{finite.size - finite.sum()} of "
                              f"{finite.size} contour points")
    check = values[-1]
    if not abs(check - 1.0) <= 1e-8:
        raise InvariantError("cf", f"phi(-i) = {check:.12g}, expected 1")
    rule = row.rule
    # The integrand goes into this thread's work arrays (``_scratch``).
    buf = _SCRATCH.arrays(rule.nodes.shape)
    black_values = np.multiply(rule.psi[:-1], -0.5 * sigma_b ** 2 * expiry,
                               out=buf("black"))
    np.exp(black_values, out=black_values)
    base = np.subtract(black_values, values[:-1], out=buf("base"))
    base /= rule.denom
    # Re(exp(-i k z) base) @ weights = phases @ (Re base, Im base) pairs.
    corr = row.phases @ base.view(np.float64)
    # Black-76 on the live strikes (forward and strikes are positive).
    F = row.forward
    black, d_plus = _black(F, row.strikes, row.log_fk,
                           sigma_b * np.sqrt(expiry))
    # Half-line real part carries the factor 2 / (2 pi).
    price = row.discount * (black + F * corr / np.pi)
    finite = np.isfinite(price)
    if not finite.all():
        raise QuadratureError(f"non-finite price at "
                              f"{finite.size - finite.sum()} of {finite.size} "
                              "strikes: the integrand overflowed")
    if tangents is None:
        return _assemble(row, price)
    d_values, d_sigma_b = tangents
    # d phi_B = -sigma_b T psi phi_B d sigma_b; one product of the phases
    # with every direction's interleaved (real, imaginary) pairs.
    d_phi_b = np.multiply(rule.psi[:-1], -sigma_b * expiry, out=buf("tmp"))
    d_phi_b *= black_values
    d_base = buf("d_base", rows=len(d_values))
    for db, ds, dv in zip(d_base, d_sigma_b, d_values):
        # A direction at a time: numpy buffers a broadcast over the block.
        np.multiply(ds, d_phi_b, out=db)
        db -= dv[:-1]
        db /= rule.denom
    d_corr = row.phases @ d_base.view(np.float64).T
    if d_plus is None:
        d_black = np.zeros(d_corr.shape)
    else:
        # Vega F n(d+) sqrt(T) per strike, times d sigma_b per direction.
        vega = F * np.exp(-0.5 * d_plus * d_plus) * np.sqrt(
            expiry / (2.0 * np.pi))
        d_black = np.outer(vega, d_sigma_b)
    d_price = row.discount * (d_black + F * d_corr / np.pi)
    return _assemble(row, price), _assemble(row, d_price, 0.0)


def _assemble(row: StrikeRow, price: np.ndarray, parity=None):
    """Live rows in strike order, with ``parity`` (by default the parity
    price) at the zero strikes; extra axes of ``price`` ride along."""
    if len(price) == row.live.size:
        out = price
    else:
        fill = row.discount * row.forward if parity is None else parity
        out = np.full(row.live.shape + price.shape[1:], fill)
        out[row.live] = price
    if row.shape == ():
        return float(out[0]) if out.ndim == 1 else out[0]
    return out


def carr_madan_cv(cf, forward: float, strike, expiry: float,
                  discount_times_accrual: float, sigma_b: float):
    """Call price by Carr-Madan inversion with a Black control variate, on
    the default rule ``DEFAULT_QUAD``.

    ``cf`` maps complex z to the characteristic function value; it must be
    normalized to phi(-i) = 1 (checked).  Vectorized over ``strike``; a
    zero strike prices by parity.  Raises StrikeError on a negative or
    non-finite strike, and QuadratureError when a CF value on the contour
    or a price comes out inf or nan.
    """
    row = _strike_row(forward, np.asarray(strike, dtype=float),
                      discount_times_accrual, DEFAULT_QUAD)
    return _invert(row, cf(row.rule.contour), sigma_b, expiry)


def price_row(row: StrikeRow, cf_params, tangents=None):
    """Discounted calls of a strike row under the Heston-type CF.

    ``cf_params`` builds the CharFnParams; it is called only when a strike
    is positive.  Raises QuadratureError when the characteristic
    function's explosion margin is too narrow for the rule's first panel
    to resolve, and whatever ``_invert`` raises.

    ``tangents``, a (k, 5) array of directions in ``charfn.TANGENT_FIELDS``,
    asks for the exact derivatives of the prices along them as well: the
    call returns (prices, derivatives) with derivatives of shape
    (strikes..., k), from one tangent characteristic-function call.  The
    prices and the errors raised for them are those of a call without
    tangents; a derivative that is not finite is returned as such, not
    raised.
    """
    if not row.strikes.size:
        prices = _assemble(row, np.zeros(0))
        if tangents is None:
            return prices
        return prices, np.zeros(np.shape(prices) + (len(tangents),))
    cfp = cf_params()
    margin = explosion_margin(cfp)
    if margin < INNER_PANEL / 2.0:
        raise QuadratureError(
            f"moment explosion margin {margin:.3g} is below half the "
            f"first quadrature panel ({INNER_PANEL:g})")
    sigma_b = float(np.sqrt(cfp.beta_sq * cfp.v0
                            + cfp.gamma_int / cfp.horizon))
    rule = row.rule
    buf = _SCRATCH.arrays(rule.contour.shape)
    if tangents is None:
        values = heston_cf(rule.contour, cfp, psi=rule.psi, out=buf("phi"))
        return _invert(row, values, sigma_b, cfp.horizon)
    values, d_values = heston_cf(
        rule.contour, cfp, psi=rule.psi, tangents=tangents,
        out=(buf("phi"), buf("d_phi", rows=np.shape(tangents)[0])))
    # sigma_b^2 = |beta|^2 v0 + gamma_int / T moves with beta_sq only.
    d_sigma_b = cfp.v0 * np.asarray(tangents)[:, 4] / (2.0 * sigma_b)
    return _invert(row, values, sigma_b, cfp.horizon, (d_values, d_sigma_b))


def caplet_row(j: int, strike, tenor, curve, params,
               quad: QuadratureConfig = DEFAULT_QUAD, libors=None) -> StrikeRow:
    """Strike row of the caplets on L_j (displaced forward and strikes).

    K + alpha_j = 0 prices by zero-strike parity, K + alpha_j < 0 is
    rejected, and so is an expiry index outside 1..n-1 (IndexError).
    """
    if not (1 <= j <= params.n - 1):
        raise IndexError(f"expiry index {j} outside 1..{params.n - 1}")
    if libors is None:
        libors = strip_libors(curve, tenor)
    disp_k = np.asarray(strike, dtype=float) + params.alpha[j]
    discount = float(tenor.accruals()[j] * curve.bonds[j + 1])
    return _strike_row(float(libors[j] + params.alpha[j]), disp_k, discount,
                       quad)


def swaption_row(p: int, q: int, strike, tenor, curve,
                 quad: QuadratureConfig = DEFAULT_QUAD) -> StrikeRow:
    """Strike row of the payer swaptions on S_{p,q}.

    No displacement applies to the swap rate; K = 0 prices by parity to
    B_p(0) - B_q(0).
    """
    ctx = swap_context(p, q, curve, tenor)
    return _strike_row(ctx.swap_rate, np.asarray(strike, dtype=float),
                       ctx.annuity, quad)


def caplet_price(j: int, strike, tenor, curve, params, fact=None,
                 quad: QuadratureConfig = DEFAULT_QUAD, libors=None):
    """Caplet on L_j: delta_j B_{j+1}(0) E (L_j(T_j) - K)^+ via Fourier.

    Displacement shifts both forward and strike; K + alpha_j = 0 prices by
    zero-strike parity, K + alpha_j < 0 is rejected.
    """
    if fact is None:
        fact = build_factorization(params, tenor)
    if libors is None:
        libors = strip_libors(curve, tenor)
    row = caplet_row(j, strike, tenor, curve, params, quad, libors)
    return price_row(row, lambda: caplet_cf_params(j, params, fact, tenor,
                                                   libors))


def swaption_price(p: int, q: int, strike, tenor, curve, params, fact=None,
                   quad: QuadratureConfig = DEFAULT_QUAD, libors=None):
    """Payer swaption B_{p,q}(0) E (S_{p,q}(T_p) - K)^+ via Fourier.

    No displacement applies to the swap rate; K = 0 prices by parity to
    B_p(0) - B_q(0).
    """
    if fact is None:
        fact = build_factorization(params, tenor)
    if libors is None:
        libors = strip_libors(curve, tenor)
    row = swaption_row(p, q, strike, tenor, curve, quad)
    return price_row(row, lambda: swaption_cf_params(p, q, params, fact,
                                                     tenor, curve, libors))


def implied_vol(target_price: float, forward: float, strike: float,
                expiry: float, discount_times_accrual: float) -> float:
    """Black vol matching a call price to 1e-10 absolute.

    Newton's method on the Black price, safeguarded by bisection inside a
    bracket [1e-6, hi] (hi doubled from 5 until it holds the root), as in
    rtsafe (Press et al.); Jaeckel's "Let's be rational" (2015) is the
    faster and more accurate successor.  Prices at the intrinsic lower
    bound report vol 0 with a warning; targets outside the static
    no-arbitrage band raise.  A negative or non-finite expiry, or a forward
    or discount that is not positive and finite, or a target that is not
    finite, raises InvariantError before any bracketing.
    """
    if not math.isfinite(target_price):
        raise InvariantError("target_price", f"{target_price} is not finite")
    if not 0.0 <= expiry < np.inf:
        raise InvariantError("expiry", f"{expiry} is not finite and >= 0")
    for name, value in (("forward", forward),
                        ("discount_times_accrual", discount_times_accrual)):
        if not 0.0 < value < np.inf:
            raise InvariantError(name, f"{value} is not finite and > 0")
    D = discount_times_accrual
    lower = D * max(forward - strike, 0.0)
    upper = D * forward
    pad = 1e-12 * max(1.0, upper)
    if target_price < lower - pad or target_price >= upper - pad:
        raise ArbitrageBoundError(
            f"target {target_price:.6g} outside ({lower:.6g}, {upper:.6g})")
    if target_price <= lower + pad:
        warnings.warn("target price at intrinsic bound: implied vol is 0",
                      stacklevel=2)
        return 0.0

    def gap(vol: float) -> float:
        return D * black76(forward, expiry, vol, strike) - target_price

    lo, hi = 1e-6, 5.0
    if gap(lo) >= 0.0:
        warnings.warn("target price below the vol grid floor: reporting 0",
                      stacklevel=2)
        return 0.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 80.0:
            raise ArbitrageBoundError(
                "no Black vol below 80 matches the target price")
    # Newton from the inflection point of the price in vol, sqrt(2 |ln F/K|
    # / T), where plain Newton converges monotonically; a bisection
    # whenever the step would leave the bracket or fails to halve the last
    # one.  Every step shrinks the bracket or halves the step, so the loop
    # ends once a step is below the tolerance of the root.
    log_fk = math.log(forward / strike)
    sqrt_t = math.sqrt(expiry)
    vol = min(max(math.sqrt(2.0 * abs(log_fk)) / sqrt_t, lo), hi)
    last = hi - lo
    while True:
        g = gap(vol)
        if g == 0.0:
            return vol
        if g < 0.0:
            lo = vol
        else:
            hi = vol
        total = vol * sqrt_t
        d_plus = log_fk / total + 0.5 * total
        vega = D * forward * sqrt_t * math.exp(-0.5 * d_plus * d_plus) \
            / math.sqrt(2.0 * math.pi)
        step = g / vega if vega > 0.0 else math.inf
        if lo < vol - step < hi and 2.0 * abs(step) <= last:
            vol -= step
        else:
            step = 0.5 * (hi - lo)
            vol = lo + step
        last = abs(step)
        if last <= 1e-14 + 8.9e-16 * vol:
            return vol
