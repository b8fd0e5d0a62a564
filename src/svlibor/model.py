"""Model parameterization and volatility factorization.

The displaced forward Libors carry expiry-wise square-root stochastic
variances.  Under the terminal measure, for j = 1..n-1,

    d(L_j + alpha_j) = (L_j + alpha_j) [ (...) dt
        + sqrt(v_j) beta_j . dW + gamma_j . dWhat ],
    dv_j = kappa_j (theta_j - v_j) dt
        + sqrt(v_j) ( sigma_j . dW + sigmabar_j dWbar ),     v_j(0) = theta_j,

where W (dim m), What (dim m_hat) and Wbar (scalar) are independent standard
Brownian motions.  The vol loadings are factorized as

    sigma_j    = eps_j rho_j e_j,
    sigmabar_j = sqrt(1 - rho_j^2) eps_j,

so that |sigma_j|^2 + sigmabar_j^2 = eps_j^2 and the instantaneous
correlation between L_j and v_j is exactly rho_j.  The unit vectors e_j are
rows of the lower-triangular Cholesky factor of the exponential correlation
matrix r_ij = exp(-a |T_i - T_j|), and beta_j = |beta_j| e_j.

Per-expiry arrays follow the package-wide padding convention: entry j holds
the quantity for expiry j, entry 0 is NaN (scalars) or a zero row (vectors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CorrelationError, DecompositionError, InvariantError
from .market_data import _read_only

__all__ = [
    "ModelParams",
    "VolFactorization",
    "build_loadings",
    "factorize_vols",
    "build_factorization",
    "correlation_matrices",
    "load_params",
]

_SCALAR_FIELDS = ("alpha", "beta_norm", "rho", "kappa", "theta", "eps")

# field: (test that every valid entry passes, message), for expiries
# 1..n-1.  NaN fails each test; a non-finite entry is refused before them.
_CHECKS = {
    "kappa": (lambda x: x > 0.0, "mean-reversion speed must be positive"),
    "theta": (lambda x: x > 0.0, "mean-reversion level must be positive"),
    "eps": (lambda x: x >= 0.0, "vol of vol must be non-negative"),
    "rho": (lambda x: np.abs(x) <= 1.0, "correlation must lie in [-1, 1]"),
    "beta_norm": (lambda x: x >= 0.0, "loading norm must be non-negative"),
}


def _pad_scalar(raw, n: int, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (n - 1,):
        raise InvariantError(name, f"expected {n - 1} entries, got {arr.shape}")
    out = np.full(n, np.nan)
    out[1:] = arr
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full model parameter set for expiries j = 1..n-1.

    Parameters
    ----------
    alpha, beta_norm, rho, kappa, theta, eps
        Padded per-expiry arrays (see module docstring): displacement,
        Libor loading norm |beta_j|, Libor-variance correlation, variance
        mean-reversion speed and level, vol of vol.
    gamma
        Padded (n, m_hat) matrix of Gaussian loadings; m_hat = 0 when the
        Gaussian part is absent.
    corr_decay
        Decay rate a >= 0 of the input correlations r_ij = exp(-a|T_i-T_j|).
    """

    alpha: np.ndarray
    beta_norm: np.ndarray
    rho: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    eps: np.ndarray
    gamma: np.ndarray = field(default=None)  # type: ignore[assignment]
    corr_decay: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.kappa).size
        for name in _SCALAR_FIELDS:
            arr = _read_only(getattr(self, name))
            if arr.shape != (n,):
                raise InvariantError(name, f"expected padded length {n}")
            if not np.all(np.isfinite(arr[1:])):
                raise InvariantError(name, "entries must be finite")
            object.__setattr__(self, name, arr)
        gamma = _read_only(np.zeros((n, 0)) if self.gamma is None
                           else self.gamma)
        if gamma.ndim != 2 or gamma.shape[0] != n:
            raise InvariantError("gamma", f"expected shape ({n}, m_hat)")
        object.__setattr__(self, "gamma", gamma)

        for name, (valid, message) in _CHECKS.items():
            if not np.all(valid(getattr(self, name)[1:])):
                raise InvariantError(name, message)
        if not np.all(np.isfinite(gamma[1:])):
            raise InvariantError("gamma", "loadings must be finite")
        if not 0.0 <= self.corr_decay < np.inf:
            raise InvariantError("corr_decay", "decay rate must be finite, >= 0")

    @property
    def n(self) -> int:
        """Number of tenor periods; expiries run 1..n-1."""
        return self.kappa.size

    @property
    def m_hat(self) -> int:
        return self.gamma.shape[1]

    def with_expiry(self, j: int, *, beta_norm=None, rho=None, kappa=None,
                    eps=None) -> "ModelParams":
        """Copy of the parameter set with expiry j's entries replaced.

        The copy is built through the constructor, so ``__post_init__``
        validates it like any other parameter set.  It shares the arrays
        it leaves unchanged, which are read-only.
        """
        changes = {}
        for name, value in (("beta_norm", beta_norm), ("rho", rho),
                            ("kappa", kappa), ("eps", eps)):
            if value is not None:
                changes[name] = arr = getattr(self, name).copy()
                arr[j] = value
                arr.setflags(write=False)
        return replace(self, **changes)

    @classmethod
    def from_arrays(cls, *, alpha, beta_norm, rho, kappa, theta, eps,
                    gamma=None, corr_decay=0.0) -> "ModelParams":
        """Build from plain per-expiry arrays of length n-1 (unpadded)."""
        n = len(kappa) + 1
        fields = {name: _pad_scalar(vals, n, name) for name, vals in
                  zip(_SCALAR_FIELDS, (alpha, beta_norm, rho, kappa, theta, eps))}
        if gamma is not None:
            gamma = np.asarray(gamma, dtype=float)
            if gamma.ndim == 1:
                gamma = gamma[:, None]
            if gamma.shape[0] != n - 1:
                raise InvariantError("gamma", f"expected {n - 1} rows")
            gamma = np.vstack([np.zeros((1, gamma.shape[1])), gamma])
        return cls(gamma=gamma, corr_decay=float(corr_decay), **fields)


@dataclass(frozen=True, eq=False)
class VolFactorization:
    """Factorized volatility loadings.

    ``loadings`` holds the unit vectors e_j as rows (padded, zero row 0),
    ``sigma`` the rows sigma_j = rho_j eps_j e_j, and ``sigma_bar`` the
    scalars sigmabar_j = sqrt(1 - rho_j^2) eps_j.
    """

    loadings: np.ndarray
    sigma: np.ndarray
    sigma_bar: np.ndarray

    def __post_init__(self):
        for name in ("loadings", "sigma", "sigma_bar"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        norms = np.linalg.norm(self.loadings[1:], axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise InvariantError("loadings", "rows must be unit vectors")

    @property
    def m(self) -> int:
        return self.loadings.shape[1]


def build_loadings(tenor, decay: float) -> np.ndarray:
    """Unit loading vectors e_j from the exponential correlation matrix.

    Returns the padded (n, n-1) matrix whose row j (j = 1..n-1) is e_j, the
    j-th row of the lower-triangular Cholesky factor of
    r_ij = exp(-decay |T_i - T_j|), so that e_i . e_j = r_ij.
    """
    n = tenor.n
    k = n - 1
    if not 0.0 <= decay < np.inf:
        raise InvariantError("corr_decay", "decay rate must be finite, >= 0")
    expiries = tenor.dates[1:n]
    corr = np.exp(-decay * np.abs(expiries[:, None] - expiries[None, :]))
    if decay == 0.0 and k > 1:
        # The all-ones matrix is singular; jitter would only mask it.
        raise DecompositionError(
            "correlation matrix is singular for decay 0 with more than one "
            "expiry; use a positive decay or add diagonal jitter")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(corr + 1e-12 * np.eye(k))
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                "correlation matrix is not positive definite even after "
                "1e-12 diagonal jitter") from exc
    out = np.zeros((n, k))
    out[1:] = chol
    out.setflags(write=False)
    return out


def factorize_vols(params: ModelParams, loadings: np.ndarray) -> VolFactorization:
    """Split eps_j into the W-loading sigma_j and orthogonal scalar sigmabar_j."""
    rho_eps = params.rho * params.eps
    sigma = np.where(np.isnan(rho_eps)[:, None], 0.0, rho_eps[:, None]) * loadings
    sigma_bar = np.sqrt(np.maximum(1.0 - params.rho ** 2, 0.0)) * params.eps
    return VolFactorization(loadings=loadings, sigma=sigma, sigma_bar=sigma_bar)


def build_factorization(params: ModelParams, tenor) -> VolFactorization:
    """Convenience: Cholesky loadings for params.corr_decay, then factorize."""
    return factorize_vols(params, build_loadings(tenor, params.corr_decay))


def correlation_matrices(params: ModelParams, fact: VolFactorization,
                         v: np.ndarray | None = None):
    """Instantaneous correlation matrices (Cor_LL, Cor_Lv, Cor_vv) at state v.

    Entry (j, j') of Cor_LL couples L_j with L_j', of Cor_Lv L_j with v_j',
    and of Cor_vv v_j with v_j', for j, j' = 1..n-1; row and column 0 are
    NaN.  ``v`` is a padded variance state and defaults to the initial state
    v_j(0) = theta_j.  With B, Gamma and Sigma the matrices of rows
    beta_j = |beta_j| e_j, gamma_j and sigma_j, and the Libor vols
    s_j = sqrt(|gamma_j|^2 + v_j |beta_j|^2),

        Cor_LL = (Gamma Gamma^T + sqrt(v) sqrt(v)^T * B B^T) / (s s^T),
        Cor_Lv = (sqrt(v) * B Sigma^T) / (s eps^T),
        Cor_vv = (Sigma Sigma^T + sigmabar sigmabar^T) / (eps eps^T),

    with * and / elementwise, clipped to [-1, 1]: a diagonal entry is the
    ratio of two separately rounded squares and can land an ulp above 1.
    With gamma = 0 the Libor correlation reduces to e_j . e_j' = r_jj'
    whatever the state.  A negative state entry raises
    InvariantError, and a vanishing s_j (v_j = 0 and gamma_j = 0) or eps_j
    raises CorrelationError; each names the first expiry at fault.
    """
    n = params.n
    v = np.asarray(params.theta if v is None else v, dtype=float)[1:n]
    if np.any(v < 0.0):
        raise InvariantError("v", "variance state must be non-negative at "
                             f"j={1 + np.argmax(v < 0.0)}")
    gamma, eps = params.gamma[1:], params.eps[1:]
    s = np.sqrt(np.sum(gamma ** 2, axis=1) + v * params.beta_norm[1:] ** 2)
    if np.any(s <= 0.0):
        raise CorrelationError("Libor volatility vanishes at "
                               f"j={1 + np.argmax(s <= 0.0)} (v=0 and gamma=0)")
    if np.any(eps <= 0.0):
        raise CorrelationError(
            f"vol of vol vanishes at j={1 + np.argmax(eps <= 0.0)}")
    B = params.beta_norm[1:, None] * fact.loadings[1:]
    sig, sigbar = fact.sigma[1:], fact.sigma_bar[1:]
    root_v = np.sqrt(v)
    out = np.full((3, n, n), np.nan)
    out[0, 1:, 1:] = ((gamma @ gamma.T + np.outer(root_v, root_v) * (B @ B.T))
                      / np.outer(s, s))
    out[1, 1:, 1:] = root_v[:, None] * (B @ sig.T) / np.outer(s, eps)
    out[2, 1:, 1:] = (sig @ sig.T + np.outer(sigbar, sigbar)) / np.outer(eps, eps)
    return tuple(np.clip(out, -1.0, 1.0, out=out))


def load_params(path) -> ModelParams:
    """Read a model parameter JSON file.

    The file is an object with per-expiry arrays ``alpha, beta_norm, rho,
    kappa, theta, eps`` (length n-1), an optional 2-D array ``gamma``
    (n-1 rows), and the scalar ``corr_decay``.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    missing = [k for k in (*_SCALAR_FIELDS, "corr_decay") if k not in obj]
    if missing:
        raise InvariantError(missing[0], "missing from parameter file")
    return ModelParams.from_arrays(
        alpha=obj["alpha"], beta_norm=obj["beta_norm"], rho=obj["rho"],
        kappa=obj["kappa"], theta=obj["theta"], eps=obj["eps"],
        gamma=obj.get("gamma"), corr_decay=obj["corr_decay"])
