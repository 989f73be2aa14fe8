"""Fitting AR(p) models by minimizing the multi-step prediction criterion.

The optimizer works in unconstrained coordinates s -> r = tanh(s) -> phi
(partial autocorrelations to AR coefficients), so every iterate is
stationary by construction.  ``fit_ols`` is the closed-form one-step
conditional-least-squares baseline, which feature matching reproduces at
m = 1; ``fit_ideal`` minimizes the population criterion under a known truth.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .acvf import ArParams, ar_to_pacf, levinson_solve, pacf_to_ar
from .companion import ar_spectral_radius
from .errors import NoConvergence, SingularDesign, TooShort
from .loss import (
    _check_length,
    _empirical_moments,
    _finite_series,
    _moments_q,
    _population_moments,
    _q_impl,
    empirical_q,
    lag_matrix,
    population_q,
)

__all__ = ["FitOptions", "FitResult", "fit_ols", "fit_match", "fit_ideal"]

# Clamp on |r| when mapping into arctanh coordinates.
_R_MAX = 1.0 - 1e-10

# Deterministic jitter patterns for the extra optimizer starts (no RNG so
# repeated fits are bit-identical).
_JITTERS = (0.3, -0.45)


@dataclass(frozen=True)
class FitOptions:
    """Optimizer knobs for :func:`fit_match` and :func:`fit_ideal`."""

    max_iter: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    extra_starts: int = 2


@dataclass(frozen=True)
class FitResult:
    model: ArParams
    q_value: float
    m: int
    order: int
    iterations: int = 0
    restarts: int = 0
    converged: bool = True
    grad_norm: float = 0.0


def fit_ols(series, p):
    """Conditional least squares: regress y_{t+1} on (y_t, ..., y_{t-p+1}).

    The estimate is reported as-is; it is not forced into the stationary
    region (check ``result.is_stationary``).
    """
    y = _finite_series(series)
    n = y.shape[0]
    if n < 2 * p + 1 or n < 2:
        raise TooShort(
            f"series of length {n} too short for OLS at p={p} (need n >= {2 * p + 1})",
            min_n=max(2 * p + 1, 2),
        )
    if p == 0:
        return ArParams(np.zeros(0), float(y @ y) / n)
    X = lag_matrix(y, p)
    target = y[p:]
    G = X.T @ X
    scale = np.trace(G) / p
    if scale <= 0.0 or np.linalg.matrix_rank(G) < p or np.min(np.linalg.eigvalsh(G)) <= 1e-12 * scale:
        raise SingularDesign("lagged design Gram matrix is singular")
    phi = np.linalg.solve(G, X.T @ target)
    resid = target - X @ phi
    return ArParams(phi, float(resid @ resid) / resid.shape[0])


def _project_stationary(phi):
    """Shrink coefficients toward 0 until the spectral radius is < 0.99."""
    phi = np.asarray(phi, dtype=float).copy()
    for _ in range(2000):
        if ar_spectral_radius(phi) < 0.99:
            return phi
        phi *= 0.95
    return np.zeros_like(phi)


def _pacf_to_ar_with_jac(r):
    """Step-up recursion together with the Jacobian d(phi)/d(r).

    Both live in one preallocated array M, filled in place: row 0 is the
    coefficient vector and row c + 1 is the column d(phi)/d(r_c).  Before
    step k only M[:k + 1, :k] is nonzero, and the step reflects exactly that
    block.  Its row-reversed copy is formed as a temporary first, because
    M[:k + 1, :k] and M[:k + 1, k-1::-1] overlap.  The Jacobian is returned
    C-contiguous, so that J.T @ g sums in the same order as for any other
    (p, p) Jacobian.
    """
    p = r.shape[0]
    M = np.zeros((p + 1, p))
    for k in range(p):
        rk = r[k]
        if k:
            M[k + 1, :k] = -M[0, k - 1::-1]
            M[: k + 1, :k] -= rk * M[: k + 1, k - 1::-1]
        M[0, k] = rk
        M[k + 1, k] = 1.0
    return M[0], M[1:].T.copy()


def _phi_to_s(phi):
    r = ar_to_pacf(_project_stationary(phi))
    return np.arctanh(np.clip(r, -_R_MAX, _R_MAX))


def _check_orders(p, m):
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")


def _moments_objective(moments, m):
    """objective(s) -> (value, gradient) of the moment-form criterion in the
    unconstrained coordinates s -> r = tanh(s) -> phi."""

    def objective(s):
        r = np.tanh(s)
        phi, J = _pacf_to_ar_with_jac(r)
        q, g_phi = _moments_q(*moments, phi, m, want_grad=True)
        return q, (J.T @ g_phi) * (1.0 - r * r)

    return objective


def _minimize_reparam(objective, s0_list, opts):
    """Minimize objective(s) -> (value, grad) over the starts.

    Quasi-Newton (BFGS) on the analytic gradient, with a Nelder-Mead
    polish whenever the gradient criterion is not met.
    Returns (best_s, best_q, grad_inf, iterations, converged).
    """
    best = None
    total_iter = 0
    for s0 in s0_list:
        res = minimize(
            objective,
            s0,
            method="BFGS",
            jac=True,
            options={"maxiter": opts.max_iter, "gtol": opts.grad_tol},
        )
        total_iter += int(res.nit)
        q, g = objective(res.x)
        ginf = float(np.max(np.abs(g)))
        if ginf >= opts.grad_tol * max(1.0, q):
            # Gradient path stalled; polish with Nelder-Mead.
            nm = minimize(
                lambda s: objective(s)[0],
                res.x,
                method="Nelder-Mead",
                options={
                    "maxiter": opts.max_iter,
                    "xatol": opts.step_tol,
                    "fatol": opts.step_tol,
                },
            )
            total_iter += int(nm.nit)
            if nm.fun <= q:
                q2, g2 = objective(nm.x)
                res_x = nm.x
                q = q2
                ginf = float(np.max(np.abs(g2)))
            else:
                res_x = res.x
        else:
            res_x = res.x
        if best is None or q < best[1]:
            best = (res_x, q, ginf)
    s, q, ginf = best
    converged = ginf < opts.grad_tol * max(1.0, q)
    return s, q, ginf, total_iter, converged


def fit_match(series, p, m, opts=None):
    """Minimize the up-to-m-step prediction criterion over stationary AR(p).

    Multi-start: the (projected) OLS solution plus deterministic jittered
    copies.  Never raises on a hard instance: if no start converges the
    best point found is returned with ``converged=False``.
    """
    _check_orders(p, m)
    opts = opts or FitOptions()
    y = _finite_series(series)
    n = y.shape[0]
    _check_length(n, p, m)
    if p == 0:
        model = ArParams(np.zeros(0), float(y @ y) / n)
        return FitResult(model, empirical_q(y, model, m), m, 0)

    X = lag_matrix(y, p)
    target = y[p:]

    if m == 1:
        # At m = 1 the criterion is exactly the conditional least-squares
        # quadratic, so a stationary OLS solution is the exact minimizer
        # over the (open) stationary region; skip the iterative solver.
        try:
            ols = fit_ols(y, p)
        except (SingularDesign, TooShort):
            ols = None
        if ols is not None and ar_spectral_radius(ols.phi) < 1.0:
            q, g = _q_impl(y, X, ols.phi, 1, want_grad=True)
            return FitResult(
                ols,
                q,
                1,
                p,
                iterations=0,
                restarts=0,
                converged=True,
                grad_norm=float(np.max(np.abs(g))),
            )

    objective = _moments_objective(_empirical_moments(y, X, p, m), m)
    try:
        phi0 = fit_ols(y, p).phi
    except (SingularDesign, TooShort):
        phi0 = np.zeros(p)
    s0 = _phi_to_s(phi0)
    starts = [s0] + [s0 + j for j in _JITTERS[: opts.extra_starts]]
    s, q, ginf, iters, converged = _minimize_reparam(objective, starts, opts)
    phi = pacf_to_ar(np.tanh(s))
    resid = target - X @ phi
    model = ArParams(phi, float(resid @ resid) / resid.shape[0])
    return FitResult(
        model,
        empirical_q(y, model, m),
        m,
        p,
        iterations=iters,
        restarts=len(starts) - 1,
        converged=converged,
        grad_norm=ginf,
    )


def fit_ideal(truth, p, m, opts=None):
    """Minimize the population criterion under a known truth.

    Returns ``(model, q_star)`` where model.sigma2 is the attained one-step
    population mean squared error.  The population moments are built once
    per fit, and the optimizer runs on the criterion's analytic gradient.
    """
    _check_orders(p, m)
    opts = opts or FitOptions()
    if p == 0:
        return ArParams(np.zeros(0), float(truth.gamma[0])), float(truth.gamma[0])
    objective = _moments_objective(_population_moments(truth.gamma, p, m), m)
    phi0, _, _ = levinson_solve(truth, p)
    s0 = _phi_to_s(phi0)
    starts = [s0] + [s0 + j for j in _JITTERS[: opts.extra_starts]]
    s, qstar, ginf, _, converged = _minimize_reparam(objective, starts, opts)
    if not converged and ginf >= 1e-6 * max(1.0, qstar):
        raise NoConvergence(
            f"ideal-world fit did not converge (grad inf-norm {ginf:.3e})"
        )
    phi = pacf_to_ar(np.tanh(s))
    model = ArParams(phi, 1.0)
    one_step = population_q(truth, model, p, 1)
    return ArParams(phi, one_step), float(qstar)
