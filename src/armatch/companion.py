"""Companion-matrix helpers used for stationarity checks and predictor powers."""

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


def ar_spectral_radius(phi):
    """Spectral radius of the companion matrix of ``phi`` (0.0 when p = 0)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] == 0:
        return 0.0
    return spectral_radius(companion_matrix(phi))


def ar_spectral_radii(phis):
    """Spectral radius of the companion matrix of each row of a (B, p)
    stack of AR coefficient vectors, p >= 1, from one stacked ``eigvals``."""
    return np.max(np.abs(np.linalg.eigvals(companion_matrix(phis))), axis=1)


# Margin of the bound in ``radii_below``: it absorbs the rounding of the
# bound's sum and of eigvals, so a row the bound settles is one eigvals
# would put below c too.
_SCREEN_MARGIN = 1e-6


def _squared_root_poly(phis):
    """Coefficients d (B, p) of prod_i (w - z_i^2) = w^p + d_1 w^(p-1) + ...
    + d_p over the companion roots z_i of each row of a (B, p) stack.

    With a = (1, -phi_1, ..., -phi_p), P(x) = sum_j a_j x^j satisfies
    P(x) P(-x) = sum_l d_l x^(2l), d_l = sum_(i+j=2l) (-1)^j a_i a_j; the odd
    powers cancel.  One step of Graeffe's root-squaring method.
    """
    B, p = phis.shape
    a = np.concatenate([np.ones((B, 1)), -phis], axis=1)
    j = np.arange(p + 1)
    terms = np.zeros((B, p + 1, 2 * p + 1))
    terms[:, j[:, None], j[:, None] + j] = a[:, :, None] * (a * (-1.0) ** j)[:, None, :]
    return np.add.reduce(terms, axis=1)[:, 2::2]


def radii_below(phis, c):
    """``ar_spectral_radii(phis) < c`` for a (B, p) stack, p >= 1, calling
    ``eigvals`` only on the rows two coefficient bounds do not settle.

    A companion root z of phi solves 1 = sum_j phi_j z^-j.  If |z| >= c,
    then 1 <= sum_j |phi_j| |z|^-j <= sum_j |phi_j| c^-j, so a row whose
    sum_j |phi_j| c^-j is below 1 has every root inside radius c.  (For
    c < 1 this is not the test sum_j |phi_j| < c.)  The rows this misses
    get the same bound at c^2 on the polynomial whose roots are the squared
    roots (``_squared_root_poly``), which squaring pulls apart from the
    circle: AR(0.75, -0.5) reads 1.25 on phi at c = 1 but 0.6875 on the
    squared roots.  Neither bound is always the tighter, so both run.
    """
    phis = np.asarray(phis, dtype=float)
    p = phis.shape[1]
    below = np.abs(phis) @ (c ** -np.arange(1.0, p + 1)) < 1.0 - _SCREEN_MARGIN
    rest = np.flatnonzero(~below)
    if rest.size:
        d = _squared_root_poly(phis[rest])
        below[rest] = np.abs(d) @ (c ** (-2.0 * np.arange(1.0, p + 1))) < 1.0 - _SCREEN_MARGIN
        rest = rest[~below[rest]]
    if rest.size:
        below[rest] = ar_spectral_radii(phis[rest]) < c
    return below
