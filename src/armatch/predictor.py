"""Horizon-k best-linear-predictor coefficients on a length-p lag window.

The lag window is ordered (y_t, y_{t-1}, ..., y_{t-p+1}); every dot product
in the package relies on that convention.
"""

from dataclasses import dataclass

import numpy as np

from .acvf import levinson_solve
from .errors import InsufficientLags, NonStationary, SingularToeplitz
from .loss import _predictors

__all__ = ["PredictorCoeffs", "predictor_from_model", "predictor_from_acvf"]


@dataclass(frozen=True)
class PredictorCoeffs:
    """Weights on (y_t, ..., y_{t-p+1}) predicting y_{t+horizon}."""

    alpha: np.ndarray
    horizon: int
    order: int

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float)) if np.size(self.alpha) else np.zeros(0)
        if a.shape[0] != self.order:
            raise ValueError("alpha length must equal order")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "alpha", a)


def predictor_from_model(model, k):
    """Model-implied k-step predictor: first row of the k-th companion power.

    O(k p) by the companion recursion of ``loss._predictors``; agrees with
    the Toeplitz route through the model-implied autocovariances (see
    :func:`predictor_from_acvf`).
    """
    if k < 1:
        raise ValueError("horizon must be >= 1")
    p = model.order
    if p == 0:
        return PredictorCoeffs(np.zeros(0), k, 0)
    if not model.is_stationary:
        raise NonStationary("AR coefficients are not stationary")
    return PredictorCoeffs(_predictors(model.phi, k)[k], k, p)


def predictor_from_acvf(truth, p, k):
    """Best k-step linear predictor under an arbitrary stationary truth.

    Solves Gamma_p alpha = (gamma(k), ..., gamma(k+p-1))'.  Requires
    ``truth.max_lag >= p + k - 1``.
    """
    if p < 1:
        raise ValueError("predictor_from_acvf requires p >= 1")
    if k < 1:
        raise ValueError("horizon must be >= 1")
    if truth.max_lag < p + k - 1:
        raise InsufficientLags(
            f"need gamma up to lag {p + k - 1}, have {truth.max_lag}"
        )
    g = truth.gamma
    # Levinson variance recursion doubles as the singularity probe for Gamma_p.
    levinson_solve(truth, p)
    lags = np.arange(p)
    alpha = np.linalg.solve(g[np.abs(lags[:, None] - lags)], g[k: k + p])
    if not np.all(np.isfinite(alpha)):
        raise SingularToeplitz("Toeplitz solve produced non-finite coefficients")
    return PredictorCoeffs(alpha, k, p)
