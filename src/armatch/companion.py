"""Companion matrices of AR coefficient vectors and their spectral radii.

The stationarity predicate is the step-down recursion in ``acvf``; a
radius here is computed only where its value is needed: to project an
optimizer start into the stationary region.
"""

import numpy as np


def companion_matrix(phi):
    """Companion matrix of an AR coefficient vector (or a stack of them,
    one per row of ``phi``, giving a stack of matrices).

    Top row is ``phi``, the subdiagonal is 1, everything else 0.  Its k-th
    power propagates the AR recursion k steps, so the first row of the k-th
    power gives the k-step predictor weights on the lag window.
    """
    phi = np.asarray(phi, dtype=float)
    p = phi.shape[-1]
    if p < 1:
        raise ValueError("companion_matrix requires p >= 1")
    C = np.zeros(phi.shape + (p,))
    C[..., 0, :] = phi
    idx = np.arange(p - 1)
    C[..., idx + 1, idx] = 1.0
    return C


def spectral_radius(matrix):
    """Largest eigenvalue modulus of a square matrix.

    Computed from the dense eigenvalue decomposition: companion matrices
    routinely have a complex-conjugate dominant pair (e.g. phi = (0, -1)),
    for which plain power iteration does not converge.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    if matrix.shape[0] == 1:
        return abs(float(matrix[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def ar_spectral_radii(phis):
    """Spectral radius of the companion matrix of each row of a (B, p)
    stack of AR coefficient vectors, p >= 1, from one stacked ``eigvals``."""
    return np.max(np.abs(np.linalg.eigvals(companion_matrix(phis))), axis=1)
