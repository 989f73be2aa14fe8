"""Fitting AR(p) models by minimizing the multi-step prediction criterion.

One damped Newton solver, ``minimize``, runs every iterative fit on a
stack of starts at once (the starts of one fit, or of many fits in groups,
as the m > 1 bootstrap does), in unconstrained coordinates
s -> r = tanh(s) -> phi (partial autocorrelations to AR coefficients), so
every iterate is stationary by construction.  ``fit_ols`` is the closed-form one-step
conditional-least-squares baseline, which feature matching reproduces at
m = 1; ``fit_ideal`` minimizes the population criterion under a known truth.
"""

from dataclasses import dataclass

import numpy as np

from .acvf import ArParams, _pacf_to_ar_with_jac, ar_to_pacf, levinson_solve, pacf_to_ar
from .companion import ar_spectral_radii, ar_spectral_radius, radii_below
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

# Deterministic jitter patterns for the extra optimizer starts (no RNG so
# repeated fits are bit-identical).
_JITTERS = (0.3, -0.45)


@dataclass(frozen=True)
class FitOptions:
    """Solver knobs for :func:`fit_match` and :func:`fit_ideal`."""

    max_iter: int = 500
    grad_tol: float = 1e-8
    extra_starts: int = 2  # jittered starts of fit_match; fit_ideal has one start


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
    """Each vector of phi, one (p,) or a stack (B, p), as it is if its
    spectral radius rho is below _START_RADIUS; otherwise phi_j
    (_PROJECT_RADIUS / rho)^j, which scales every companion root by
    _PROJECT_RADIUS / rho and so lands at radius _PROJECT_RADIUS.

    ``radii_below`` screens the vectors first, so ``eigvals`` runs only on
    those its coefficient bounds do not settle inside _START_RADIUS."""
    phi = np.array(phi, dtype=float)
    rows = phi.reshape(-1, phi.shape[-1])
    out = np.flatnonzero(~radii_below(rows, _START_RADIUS))
    if out.size:
        for i, rho in zip(out.tolist(), ar_spectral_radii(rows[out]).tolist()):
            rows[i] = rows[i] * (_PROJECT_RADIUS / rho) ** np.arange(1, rows.shape[1] + 1)
    return phi


def _phi_to_s(phi):
    r = ar_to_pacf(_project_stationary(phi))
    return np.arctanh(np.clip(r, -_R_MAX, _R_MAX))


def _match_starts(phi, opts):
    """The start rows of a data fit from start coefficients phi, one vector
    (p,) or a stack (B, p), each already inside _START_RADIUS: its s
    and ``opts.extra_starts`` jittered copies, shape (..., 1 + extra, p)."""
    r = np.array([ar_to_pacf(row) for row in phi.reshape(-1, phi.shape[-1])]).reshape(phi.shape)
    s0 = np.arctanh(np.clip(r, -_R_MAX, _R_MAX))
    return np.stack([s0] + [s0 + j for j in _JITTERS[: opts.extra_starts]], axis=-2)


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


def _ols_starts(Y, X, p):
    """The start coefficients of ``fit_match`` for every row y of a stack
    Y (G, n) with X = lag_matrix(Y, p), p >= 1: the OLS solution of
    ``fit_ols(y, p)``, or zeros where that raises SingularDesign or
    TooShort, projected inside _START_RADIUS (``_project_stationary``);
    shape (G, p).
    """
    phi = _stacked_ols(Y, X)[0] if Y.shape[1] >= 2 * p + 1 else np.zeros((Y.shape[0], p))
    return _project_stationary(phi)


def _fit_match_stack(Y, p, m, opts):
    """``fit_match(y, p, m, opts)`` on its iterative path, for every row y
    of a stack Y (G, n) of equal-length finite series, p >= 1, in one
    ``minimize`` call: one group per series, on the stacked empirical
    moments.

    Each series gets the start rows ``fit_match`` gives it (its OLS
    solution, or zeros where OLS raises SingularDesign or TooShort,
    projected inside _START_RADIUS, plus the jittered copies), and back the
    same FitResult, bit for bit: every step of the solver acts on each row
    alone, so a series' result does not depend on the others in its stack.
    The tail runs for the whole stack too: one step-up call, then sigma2
    (the m = 1 criterion) and q from the stacked residual kernel.
    """
    G = Y.shape[0]
    X = lag_matrix(Y, p)
    starts = _match_starts(_ols_starts(Y, X, p), opts)
    groups = np.repeat(np.arange(G), starts.shape[1])
    # A lone series' moments go in unstacked: minimize's shared-moment form
    # skips the per-row indexing and solves faster.
    moments = _empirical_moments(Y, X, p, m) if G > 1 else _empirical_moments(Y[0], X[0], p, m)
    S, _, grad_inf, iterations, converged = minimize(moments, m, starts.reshape(-1, p), opts, groups)
    phi = _pacf_to_ar_with_jac(np.tanh(S))[0]
    sigma2 = _q_impl(Y, X, phi, 1, want_grad=False)[0].tolist()
    q = _q_impl(Y, X, phi, m, want_grad=False)[0].tolist()
    restarts = starts.shape[1] - 1
    return [
        FitResult(ArParams(f, s2), qv, m, p, iterations=it, restarts=restarts, converged=c, grad_norm=g)
        for f, s2, qv, it, c, g in zip(phi, sigma2, q, iterations.tolist(), converged.tolist(), grad_inf.tolist())
    ]


def fit_match(series, p, m, opts=None):
    """Minimize the up-to-m-step prediction criterion over stationary AR(p).

    Multi-start, one batch: the OLS solution (root-scaled to radius
    _PROJECT_RADIUS when its radius is _START_RADIUS or more) plus
    ``opts.extra_starts`` deterministic jittered copies.  Never raises on
    a hard instance: if no start converges the best point found is
    returned with ``converged=False``.  Past the p = 0 and m = 1 closed
    forms this is the one-series call of ``_fit_match_stack``.
    """
    _check_orders(p, m)
    opts = opts or FitOptions()
    y = _finite_series(series)
    n = y.shape[0]
    _check_length(n, p, m)
    if p == 0:
        model = ArParams(np.zeros(0), float(y @ y) / n)
        return FitResult(model, empirical_q(y, model, m), m, 0)
    if m == 1 and n >= 2 * p + 1:
        X = lag_matrix(y, p)
        phi, ok = _stacked_ols(y[None], X[None])
        if ok[0] and ar_spectral_radius(phi[0]) < 1.0:
            # At m = 1 the criterion is exactly the conditional least-squares
            # quadratic, so a stationary OLS solution is the exact minimizer
            # over the (open) stationary region; skip the iterative solver.
            q, g = _q_impl(y, X, phi[0], 1, want_grad=True)
            return FitResult(ArParams(phi[0], q), q, 1, p, converged=True, grad_norm=float(np.max(np.abs(g))))
    return _fit_match_stack(y[None], p, m, opts)[0]


def fit_ideal(truth, p, m, opts=None):
    """Minimize the population criterion under a known truth.

    Returns ``(model, q_star)`` where model.sigma2 is the attained one-step
    population mean squared error.  At m = 1 the criterion is the one-step
    error gamma(0) - 2 phi'gamma_p + phi'Gamma_p phi, whose minimizer is the
    Levinson (Yule-Walker) solution and whose minimum is the recursion's
    last variance v[p], so both come from ``levinson_solve`` and no solver
    runs.  Past m = 1 the solver starts once, from the Levinson solution
    (``opts.extra_starts`` is not used), and sigma2 is the m = 1 criterion
    at its result, which the step-up from |r| < 1 keeps stationary.
    """
    _check_orders(p, m)
    opts = opts or FitOptions()
    if p == 0:
        return ArParams(np.zeros(0), float(truth.gamma[0])), float(truth.gamma[0])
    phi0, _, v = levinson_solve(truth, p)
    if m == 1:
        return ArParams(phi0, v[p]), float(v[p])
    s, qstar, ginf, _, converged = (
        x[0] for x in minimize(_population_moments(truth.gamma, p, m), m, _phi_to_s(phi0)[None], opts)
    )
    if not converged and ginf >= 1e-6 * max(truth.gamma[0], qstar):
        raise NoConvergence(f"ideal-world fit did not converge (grad inf-norm {ginf:.3e})")
    phi = pacf_to_ar(np.tanh(s))
    sigma2 = _moments_q(*_population_moments(truth.gamma, p, 1), phi, 1, want_grad=False)[0]
    return ArParams(phi, sigma2), float(qstar)
