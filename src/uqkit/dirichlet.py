"""Closed-form evidential quantities of Dirichlet distributions.

Every quantity here has a seeded Monte Carlo counterpart (normalized Gamma
draws) used by the verification harness; the closed forms are the product,
the sampler is the oracle. Concentrations below 1e-3 are rejected to keep
the digamma-based expressions well conditioned, and those above 1e8 because
`log_beta` is a difference of log-gamma values that cancels as alpha grows:
KL(Dir(c, 1) || Dir(1, 1)) = log c - (c - 1)/c holds to a relative 3e-9 at
c = 1e8, 3.5e-8 at 1e9, and comes out 0 at 1e100.
"""

from __future__ import annotations

import numpy as np

from .special import lgam, psi

_MIN_ALPHA = 1e-3
_MAX_ALPHA = 1e8


def digamma(x):
    """Derivative of log Gamma, elementwise; exposed for the formulas in this module."""
    x = np.asarray(x, dtype=float)
    return np.array([psi(v) for v in x.ravel()]).reshape(x.shape)[()]


def log_beta(alpha) -> float:
    """Log multivariate Beta: sum(logGamma(alpha_k)) - logGamma(sum(alpha))."""
    a = np.asarray(alpha, dtype=float).ravel()
    return float(np.array([lgam(v) for v in a]).sum() - lgam(a.sum()))


class DirichletParams:
    """Validated concentration vector with its derived total alpha0."""

    __slots__ = ("alpha", "alpha0")

    def __init__(self, alpha):
        arr = np.asarray(alpha, dtype=float).ravel()
        if arr.size < 2:
            raise ValueError("need at least two concentration parameters")
        if not np.all(np.isfinite(arr)):
            raise ValueError("concentration parameters must be finite")
        if np.any(arr < _MIN_ALPHA):
            raise ValueError(f"concentration parameters must be >= {_MIN_ALPHA}")
        if np.any(arr > _MAX_ALPHA):
            raise ValueError(f"concentration parameters must be <= {_MAX_ALPHA:g}")
        self.alpha = arr
        self.alpha0 = float(arr.sum())

    def __len__(self) -> int:
        return self.alpha.size

    def __repr__(self) -> str:
        return f"DirichletParams({self.alpha.tolist()})"


def mean(d: DirichletParams) -> np.ndarray:
    """Expected categorical distribution alpha_k / alpha0."""
    return d.alpha / d.alpha0

def log_expectation(d: DirichletParams, k: int) -> float:
    """E[log pi_k] = psi(alpha_k) - psi(alpha0)."""
    if not 0 <= k < len(d):
        raise ValueError("component index out of range")
    return float(digamma(d.alpha[k]) - digamma(d.alpha0))


def entropy(d: DirichletParams) -> float:
    """Differential entropy of the Dirichlet density."""
    a, a0 = d.alpha, d.alpha0
    k = len(d)
    return float(log_beta(a) + (a0 - k) * digamma(a0) - ((a - 1.0) * digamma(a)).sum())


def expected_entropy(d: DirichletParams) -> float:
    """Expected Shannon entropy of a categorical drawn from the Dirichlet."""
    a, a0 = d.alpha, d.alpha0
    return float(-(a / a0 * (digamma(a + 1.0) - digamma(a0 + 1.0))).sum())


def kl(d: DirichletParams, reference: DirichletParams) -> float:
    """KL divergence from `d` to `reference` (both Dirichlet, same K)."""
    if len(d) != len(reference):
        raise ValueError("dimension mismatch")
    a, a0 = d.alpha, d.alpha0
    g = reference.alpha
    return float(log_beta(g) - log_beta(a) + ((a - g) * (digamma(a) - digamma(a0))).sum())


def kl_uniform(d: DirichletParams) -> float:
    """KL divergence to the all-ones (uniform-density) Dirichlet."""
    return kl(d, DirichletParams(np.ones(len(d))))


def mutual_information(d: DirichletParams) -> float:
    """Epistemic share of the predictive entropy.

    Equals the entropy of the mean categorical minus the expected entropy, in
    the closed form -sum (a_k/a0) * (log(a_k/a0) - psi(a_k+1) + psi(a0+1)).
    """
    a, a0 = d.alpha, d.alpha0
    ratio = a / a0
    return float(-(ratio * (np.log(ratio) - digamma(a + 1.0) + digamma(a0 + 1.0))).sum())


def log_pdf(d: DirichletParams, points: np.ndarray) -> np.ndarray:
    """Log density at simplex points (rows); supports the Monte Carlo oracles."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return _log_pdf_of_logs(d, np.log(pts))


def _log_pdf_of_logs(d: DirichletParams, log_points: np.ndarray) -> np.ndarray:
    """`log_pdf` from the logs of the points, so that callers holding them log once."""
    return -log_beta(d.alpha) + ((d.alpha - 1.0) * log_points).sum(axis=1)


def sample(d: DirichletParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws via normalized Gamma variates; rows sum to one (NaN if every variate is 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gammas = rng.gamma(shape=d.alpha, size=(n, len(d)))
    with np.errstate(invalid="ignore"):
        return gammas / gammas.sum(axis=1, keepdims=True)
