"""Fitting AR(p) models by minimizing the multi-step prediction criterion.

One damped Newton solver, ``minimize``, runs every iterative fit on a
stack of starts at once (the starts of one fit, or of many fits in groups,
as ``_fit_stack`` does for a stack of series), in unconstrained coordinates
s -> r = tanh(s) -> phi (partial autocorrelations to AR coefficients), so
every iterate is stationary by construction.  ``fit_ols`` is the closed-form one-step
conditional-least-squares baseline, which feature matching reproduces at
m = 1; ``fit_ideal`` minimizes the population criterion under a known truth.
"""

from dataclasses import dataclass

import numpy as np

from .acvf import (
    SINGULARITY_FLOOR, ArParams, _durbin, _pacf_to_ar, _pacf_to_ar_with_jac, _step_down, levinson_solve, pacf_to_ar
)
from .companion import ar_spectral_radii
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
)

__all__ = ["FitOptions", "FitResult", "fit_ols", "fit_match", "fit_ideal"]

# Clamp on |r| when mapping into arctanh coordinates.
_R_MAX = 1.0 - 1e-10

# |s| bound that keeps |tanh(s)| <= _R_MAX, so every iterate is stationary.
_S_MAX = float(np.arctanh(_R_MAX))

# Spectral radius below which a start point is used as it is, and the
# radius a start at or beyond it is scaled to.
_START_RADIUS = 0.99
_PROJECT_RADIUS = 0.98

# Forward-difference step in s of the Newton Hessian.
_H_STEP = 1e-6


@dataclass(frozen=True)
class FitOptions:
    """Solver knobs for :func:`fit_match` and :func:`fit_ideal`."""

    max_iter: int = 500
    grad_tol: float = 1e-8


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
    phi, ok = _stacked_ols(y[None], X[None])
    if not ok[0]:
        raise SingularDesign("lagged design Gram matrix is singular")
    return ArParams(phi[0], _q_impl(y, X, phi[0], 1, want_grad=False)[0])


def _gram_ok(G):
    """The design check of ``fit_ols`` on a stack (B, p, p) of Gram
    matrices: False where the trace is not positive, the least eigenvalue
    is at most 1e-12 times the mean one, or the rank is below p.  For
    p < 67 that eigenvalue floor exceeds ``matrix_rank``'s tolerance
    (largest singular value times p times the machine epsilon), so the
    rank test (an SVD) runs only above."""
    p = G.shape[-1]
    scale = np.trace(G, axis1=1, axis2=2) / p
    ok = (scale > 0.0) & (np.linalg.eigvalsh(G)[:, 0] > 1e-12 * scale)
    if p >= 67:
        ok &= np.linalg.matrix_rank(G) == p
    return ok


def _project_stationary(phi):
    """Each vector of phi, one (p,) or a stack (B, p), as it is if the
    step-down at radius _START_RADIUS (``_step_down``) puts every companion
    root inside it; otherwise phi_j (_PROJECT_RADIUS / rho)^j with rho the
    spectral radius, which scales every root by _PROJECT_RADIUS / rho and
    so lands at radius _PROJECT_RADIUS.  ``eigvals`` runs once per scaled
    vector, for its rho, and on no other."""
    phi = np.array(phi, dtype=float)
    rows = phi.reshape(-1, phi.shape[-1])
    out = ~_step_down(rows, _START_RADIUS)[1]
    if out.any():
        rho = ar_spectral_radii(rows[out])[:, None]
        rows[out] *= (_PROJECT_RADIUS / rho) ** np.arange(1, rows.shape[1] + 1)
    return phi


def _phi_to_s(phi):
    """The solver coordinates s = arctanh(r) of a start phi, one vector (p,)
    or a stack (B, p): each vector projected (``_project_stationary``),
    then r from one stacked step-down, clamped to |r| <= _R_MAX."""
    phi = _project_stationary(phi)
    return _r_to_s(_step_down(phi.reshape(-1, phi.shape[-1]))[0].reshape(phi.shape))


def _r_to_s(r):
    """s = arctanh(r), r clamped to |r| <= _R_MAX."""
    return np.arctanh(np.clip(r, -_R_MAX, _R_MAX))


def _check_orders(p, m):
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")


def _newton_terms(moments, m, S):
    """q (N,), gradient (N, p) and Hessian (N, p, p) in s at the rows of S,
    under moments shared by every row or one set per row (row axis after
    the horizon axis, as ``minimize`` stacks them).

    The Hessian is the symmetrised forward difference (step _H_STEP) of the
    analytic gradient, so each row needs p + 1 gradients; all N (p + 1) of
    them come from one stacked kernel call.
    """
    N, p = S.shape
    pts = S[:, None, :] + _H_STEP * np.eye(p + 1, p, -1)
    if moments[0].ndim == 2:  # per row: one set for the row's p + 1 points
        moments = tuple(x[:, :, None] for x in moments)
    else:  # shared: one flat stack of points is faster
        pts = pts.reshape(-1, p)
    r = np.tanh(pts)
    phi, J = _pacf_to_ar_with_jac(r)
    q, g_phi = _moments_q(*moments, phi, m, want_grad=True)
    g = (np.matmul(g_phi[..., None, :], J)[..., 0, :] * (1.0 - r * r)).reshape(N, p + 1, p)
    H = (g[:, 1:] - g[:, :1]) / _H_STEP
    return q.reshape(N, p + 1)[:, 0], g[:, 0], 0.5 * (H + H.swapaxes(1, 2))


def minimize(moments, m, starts, opts, groups=None):
    """Damped Newton on the moment-form criterion from each row of
    ``starts`` (R, p), in the coordinates s -> r = tanh(s) -> phi.

    The rows fall into groups 0..G-1 by ``groups`` (R,), the row -> group
    index; without it all rows are one group.  ``moments`` (s, c, G) are
    shared by every row, or are one set per group stacked after the horizon
    axis: s (m, G), c (m, G, p), G (m, G, p, p).  Each set is divided by its
    s_1 first, so the stop rule and the damping do not depend on the
    series' scale.  Each iteration takes, for all rows still running at
    once, the Levenberg-Marquardt step -V diag(1 / (|w| + lam max|w|)) V'g
    of the Hessian H = V diag(w) V' (|w| keeps it a descent direction where
    H is indefinite).  A trial that does not raise q is accepted and lam
    shrinks tenfold, to no less than 1e-12; otherwise lam, which starts at
    1e-3, grows a hundredfold.  A row stops when
    grad_inf < grad_tol * max(1, q) (converged), when an accepted step
    changes q by at most 4e-16 |q| or a step is below 1e-12 relative (the
    rounding floor of q), or after ``opts.max_iter`` steps.

    Returns, per group, arrays (s, q, grad_inf, iterations, converged) of
    its row with the least q, preferring a converged row among those within
    1e-12 relative of it; q and grad_inf are in the criterion's own scale,
    iterations are summed over the group's rows.
    """
    R = starts.shape[0]
    groups = np.zeros(R, dtype=int) if groups is None else np.asarray(groups)
    scale = np.where(moments[0][0] > 0.0, moments[0][0], 1.0)
    moments = (moments[0] / scale, moments[1] / scale[..., None], moments[2] / scale[..., None, None])
    per_row = scale.ndim > 0
    if per_row:  # one set per group: expand to one set per row
        moments = tuple(x[:, groups] for x in moments)
        scale = scale[groups]

    def terms(rows, S):
        return _newton_terms(tuple(x[:, rows] for x in moments) if per_row else moments, m, S)

    S = np.clip(starts, -_S_MAX, _S_MAX)
    q, g, H = terms(np.arange(R), S)
    ginf = np.maximum.reduce(np.abs(g), axis=1)
    converged = ginf < opts.grad_tol * np.maximum(1.0, q)
    running = ~converged
    lam = np.full(R, 1e-3)
    iters = np.zeros(R, dtype=int)
    for _ in range(opts.max_iter):
        act = np.flatnonzero(running)
        if act.size == 0:
            break
        w, V = np.linalg.eigh(H[act])
        den = np.abs(w) + lam[act, None] * np.maximum.reduce(np.abs(w), axis=1, keepdims=True)
        step = -np.matmul(V, (np.matmul(g[act, None, :], V)[:, 0] / den)[..., None])[..., 0]
        trial = np.clip(S[act] + step, -_S_MAX, _S_MAX)
        qt, gt, Ht = terms(act, trial)
        iters[act] += 1
        ok = qt <= q[act]
        floor = ok & (q[act] - qt <= 4e-16 * np.abs(qt))
        acc = act[ok]
        S[acc], q[acc], g[acc], H[acc] = trial[ok], qt[ok], gt[ok], Ht[ok]
        ginf[acc] = np.maximum.reduce(np.abs(gt[ok]), axis=1)
        converged[acc] = ginf[acc] < opts.grad_tol * np.maximum(1.0, q[acc])
        lam[act] = np.where(ok, np.maximum(lam[act] / 10.0, 1e-12), lam[act] * 100.0)
        big = np.maximum(1.0, np.maximum.reduce(np.abs(S[act]), axis=1))
        floor |= np.maximum.reduce(np.abs(step), axis=1) <= 1e-12 * big
        running[act] = ~(converged[act] | floor)
    # Rows within rounding of their group's least q tie; a converged one is
    # preferred, then the least q, then the first row.
    n_groups = int(groups.max()) + 1
    qmin = np.full(n_groups, np.inf)
    np.minimum.at(qmin, groups, q)
    best = converged & (q <= qmin[groups] + 1e-12 * np.abs(qmin[groups]))
    order = np.lexsort((q, ~best, groups))
    pick = order[np.searchsorted(groups[order], np.arange(n_groups))]
    scale = np.broadcast_to(scale, (R,))[pick]
    total = np.zeros(n_groups, dtype=int)
    np.add.at(total, groups, iters)
    return S[pick], q[pick] * scale, ginf[pick] * scale, total, converged[pick]


def _stacked_ols(Y, X):
    """``fit_ols``'s coefficients for every row y of a stack Y (B, n), with
    X[b] = lag_matrix(Y[b], p): (phi (B, p), ok (B,)), zeros where ok is
    False because ``fit_ols`` would raise SingularDesign (``_gram_ok``).
    The Gram matrices and right-hand sides come from stacked products, each
    acting on one slice of X as ``fit_ols`` does on its matrix, and the
    solves from one stacked call, so a row's phi is ``fit_ols``'s bit for
    bit."""
    p = X.shape[-1]
    Xt = X.transpose(0, 2, 1)
    G = Xt @ X
    rhs = Xt @ Y[:, p:, None]
    ok = _gram_ok(G)
    phi = np.zeros((Y.shape[0], p))
    phi[ok] = np.linalg.solve(G[ok], rhs[ok])[..., 0]
    return phi, ok


def _ideal_starts(Y, p, m, opts):
    """(rows, S): for each series y of a stack Y (G, n), n >= p + m, the s
    of ``fit_ideal`` under its uncentered biased sample autocovariances
    gamma_k = (1/n) sum_t y_t y_{t+k}, k < p + m (at m = 1 the projected
    Levinson solution), and the indices of the series that get one: none
    where gamma is singular (gamma_0 = 0, or the last Durbin variance at or
    below SINGULARITY_FLOOR gamma_0, where ``levinson_solve`` raises).
    Past m = 1 every row comes from one grouped ``minimize`` call."""
    n = Y.shape[1]
    gamma = np.stack([(Y[:, None, : n - k] @ Y[:, k:, None])[:, 0, 0] for k in range(p + m)], axis=1) / n
    levinson = [_durbin(g, p) if g[0] > 0.0 else None for g in gamma]
    # The Durbin variances do not increase, and stop after the first one <= 0.
    floor = SINGULARITY_FLOOR * gamma[:, 0]
    rows = np.array([i for i, d in enumerate(levinson) if d and d[2][-1] > floor[i]], dtype=int)
    if not rows.size:
        return rows, np.empty((0, p))
    S = _phi_to_s(np.array([levinson[i][0] for i in rows]))
    if m > 1:  # one series' moments go in unstacked, as in _fit_stack
        moments = _population_moments(gamma[rows] if rows.size > 1 else gamma[rows[0]], p, m)
        S = minimize(moments, m, S, opts, np.arange(rows.size))[0]
    return rows, S


def _fit_stack(Y, X, m, opts, start=None):
    """The one place that chooses how ``fit_match`` fits a series, for
    every row of a stack Y (G, n) of equal-length finite series with lag
    matrices X = lag_matrix(Y, p), n >= p + m, p >= 1: arrays phi (G, p),
    iterations, restarts, converged and grad_inf (G,).

    At m = 1 the criterion is exactly the conditional least-squares
    quadratic, so a row whose OLS solution passes ``_gram_ok`` and the
    step-down takes it as the exact minimizer (grad_inf reads NaN there).
    Every other row is one group of one ``minimize`` call on the stacked
    empirical moments, from its projected OLS solution (zeros where OLS
    raises SingularDesign or TooShort) and a second start (``restarts``):
    its ``_ideal_starts`` row if it has one, or, where the caller knows the
    law the series came from, ``start`` (p,), that law's ideal-world fit,
    projected as every start is, for every row.  The solver acts on each
    row alone, so a fit does not depend on its stack.  A solved model that
    fails the step-down is not converged.
    """
    G, n = Y.shape
    p = X.shape[-1]
    ols, ok = _stacked_ols(Y, X) if n >= 2 * p + 1 else (np.zeros((G, p)), np.zeros(G, dtype=bool))
    closed = ok & _step_down(ols)[1] if m == 1 else np.zeros(G, dtype=bool)
    phi, iterations, restarts = ols, np.zeros(G, dtype=int), np.zeros(G, dtype=int)
    converged, grad_inf = closed.copy(), np.full(G, np.nan)
    solve = np.flatnonzero(~closed)
    if solve.size:
        Ys, Xs = Y[solve], X[solve]
        if start is None:
            rows, second = _ideal_starts(Ys, p, m, opts)
        else:
            rows, second = np.arange(solve.size), np.broadcast_to(_phi_to_s(start), (solve.size, p))
        # A lone series' moments go in unstacked: minimize's shared-moment
        # form skips the per-row indexing and solves faster.
        moments = _empirical_moments(Ys, Xs, p, m) if solve.size > 1 else _empirical_moments(Ys[0], Xs[0], p, m)
        S, _, grad_inf[solve], iterations[solve], conv = minimize(
            moments, m, np.concatenate([_phi_to_s(ols[solve]), second]), opts,
            np.concatenate([np.arange(solve.size), rows]),
        )
        phi[solve] = _pacf_to_ar(np.tanh(S))
        converged[solve] = conv & _step_down(phi[solve])[1]
        restarts[solve] = np.bincount(rows, minlength=solve.size)
    return phi, iterations, restarts, converged, grad_inf


def _fit_match_stack(Y, p, m, opts, start=None):
    """``fit_match(y, p, m, opts)`` for every row y of a stack Y (G, n) of
    equal-length finite series, n >= p + m, p >= 1, bit for bit (with a
    known ``start``, the same fit from that second start instead of the
    ideal-world one; see ``_fit_stack``): the fit of ``_fit_stack``, then q
    from the stacked residual kernel, sigma2 (the m = 1 criterion, q itself
    at m = 1) likewise, and, on the rows that took the closed form, the
    exact gradient norm from the same m = 1 call."""
    X = lag_matrix(Y, p)
    phi, iterations, restarts, converged, grad_inf = _fit_stack(Y, X, m, opts, start)
    q, grad = _q_impl(Y, X, phi, m, want_grad=m == 1)
    sigma2 = q if m == 1 else _q_impl(Y, X, phi, 1, want_grad=False)[0]
    closed = np.isnan(grad_inf)
    if closed.any():
        grad_inf[closed] = np.maximum.reduce(np.abs(grad[closed]), axis=1)
    columns = (x.tolist() for x in (sigma2, q, iterations, restarts, converged, grad_inf))
    return [
        FitResult(ArParams(f, s2), qv, m, p, iterations=it, restarts=r, converged=c, grad_norm=g)
        for f, s2, qv, it, r, c, g in zip(phi, *columns)
    ]


def fit_match(series, p, m, opts=None):
    """Minimize the up-to-m-step prediction criterion over stationary AR(p).

    At m = 1 a stationary OLS solution is the exact minimizer and is
    returned as it is (``iterations`` and ``restarts`` read 0).  Otherwise
    two starts, one batch: the OLS solution (root-scaled to radius
    _PROJECT_RADIUS when its radius is _START_RADIUS or more), and the
    ideal-world fit under the sample autocovariances (``restarts`` reads 1;
    0 where they are singular and only the OLS row runs).  Never raises on
    a hard instance: if no start converges the best point found is
    returned with ``converged=False``.  So is a model that is not
    stationary (``ArParams.is_stationary``): the step-up from |r| within
    rounding of 1 can land just outside the region.  Past its argument
    checks and the p = 0 closed form this is the one-series call of
    ``_fit_match_stack``.
    """
    _check_orders(p, m)
    y = _finite_series(series)
    n = y.shape[0]
    _check_length(n, p, m)
    if p == 0:
        model = ArParams(np.zeros(0), float(y @ y) / n)
        return FitResult(model, empirical_q(y, model, m), m, 0)
    return _fit_match_stack(y[None], p, m, opts or FitOptions())[0]


def fit_ideal(truth, p, m, opts=None):
    """Minimize the population criterion under a known truth.

    Returns ``(model, q_star)`` where model.sigma2 is the attained one-step
    population mean squared error.  At m = 1 the criterion is the one-step
    error gamma(0) - 2 phi'gamma_p + phi'Gamma_p phi, whose minimizer is the
    Levinson (Yule-Walker) solution and whose minimum is the recursion's
    last variance v[p], so both come from ``levinson_solve`` and no solver
    runs.  Past m = 1 the solver starts from the Levinson solution, and
    sigma2 is the m = 1 criterion at its result, which the step-up from
    |r| < 1 keeps stationary.  Where that start is root-scaled (radius
    _START_RADIUS or more), the Levinson partial autocorrelations as they
    are, clamped to |r| <= _R_MAX, are a second start row of the same call:
    under an AR(p) truth the Levinson solution minimizes the criterion at
    every m, and near the unit circle the solver can fail to reach it from
    radius _PROJECT_RADIUS.  ``fit_match`` starts from this fit under
    the sample autocovariances.
    """
    _check_orders(p, m)
    opts = opts or FitOptions()
    if p == 0:
        return ArParams(np.zeros(0), float(truth.gamma[0])), float(truth.gamma[0])
    phi0, pacf, v = levinson_solve(truth, p)
    if m == 1:
        return ArParams(phi0, v[p]), float(v[p])
    start = _project_stationary(phi0)
    starts = _r_to_s(_step_down(start[None])[0])
    if not np.array_equal(start, phi0):  # root-scaled
        starts = np.concatenate([starts, _r_to_s(pacf)[None]])
    s, qstar, ginf, _, converged = (x[0] for x in minimize(_population_moments(truth.gamma, p, m), m, starts, opts))
    if not converged and ginf >= 1e-6 * max(truth.gamma[0], qstar):
        raise NoConvergence(f"ideal-world fit did not converge (grad inf-norm {ginf:.3e})")
    phi = pacf_to_ar(np.tanh(s))
    sigma2 = _moments_q(*_population_moments(truth.gamma, p, 1), phi, 1, want_grad=False)[0]
    return ArParams(phi, sigma2), float(qstar)
