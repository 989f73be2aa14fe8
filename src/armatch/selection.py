"""Order selection by penalized log-loss.

L(p) = log of the fitted multi-step criterion.  In-sample L(p) understates
the out-of-sample (population) log-loss; the optimism is estimated by a
parametric residual bootstrap and added as the complexity penalty.  The
chosen order minimizes L(p) + bias(p), ties going to the smaller p.
"""

import math
from dataclasses import dataclass

import numpy as np

from .acvf import _step_down, ar_acvf
from .errors import BootstrapFailed, DegenerateFit, SingularDesign, TooShort
from .estimator import FitOptions, _fit_match_stack, _fit_stack, fit_ideal, fit_match, fit_ols
from .loss import _finite_series, _moments_q, _population_moments, _q_impl, ar_filter, lag_matrix, population_q
from .seeding import rng_from, stream_integers

__all__ = [
    "OrderRow",
    "SelectionResult",
    "log_loss",
    "ideal_log_loss",
    "approx_decrease",
    "bootstrap_bias",
    "select_order",
    "aic_baseline",
]

_DEGENERATE_FLOOR = 1e-300
_BURNIN_BASE = 200


@dataclass(frozen=True)
class OrderRow:
    order: int
    log_loss: float
    bias_estimate: float
    criterion: float
    converged: bool
    iterations: int
    replicates_used: int
    bias_se: float  # Monte-Carlo standard error of bias_estimate (NaN if one replicate)


@dataclass(frozen=True)
class SelectionResult:
    rows: tuple
    chosen_p: int
    m: int
    bootstrap_replicates: int
    seed: int
    tie_break: str = "ties broken toward the smaller order"


def log_loss(series, p, m, opts=None):
    """log of the fitted criterion, together with the fit itself."""
    fit = fit_match(series, p, m, opts)
    if fit.q_value <= _DEGENERATE_FLOOR:
        raise DegenerateFit(f"fitted criterion {fit.q_value} at p={p} is degenerate")
    return math.log(fit.q_value), fit


def ideal_log_loss(truth, p, m, opts=None):
    """log of the population criterion at its ideal-world minimizer."""
    _, qstar = fit_ideal(truth, p, m, opts)
    return math.log(qstar)


def approx_decrease(truth, p, m, opts=None):
    """One step of the log-loss decrease and its relative-decrease proxy.

    Returns (lhs, rhs) with lhs = Lstar(p) - Lstar(p+1) and
    rhs = (Qstar_p - Qstar_{p+1}) / Qstar_{p+1}; the two agree when the
    population criterion varies slowly in p.
    """
    _, q_p = fit_ideal(truth, p, m, opts)
    _, q_p1 = fit_ideal(truth, p + 1, m, opts)
    lhs = math.log(q_p) - math.log(q_p1)
    rhs = (q_p - q_p1) / q_p1
    return lhs, rhs


def _simulate_fitted(model, resid_pool, n, rng):
    """Generate a length-n series from the fitted AR recursion with
    innovations resampled i.i.d. (with replacement) from the centered
    residual pool.  Returns the series and the n innovations it kept."""
    p = model.order
    burn = _BURNIN_BASE + p
    eps = rng.choice(resid_pool, size=n + burn, replace=True)
    return ar_filter(model.phi, eps)[burn:], eps[burn:]


def _subsample_length(n, p, m):
    """Length of the bootstrap series: about two thirds of the data.

    Resampling at a reduced length is what makes bootstrap order selection
    consistent: the optimism at the shorter length is roughly (n / length)
    times the full-sample optimism, so the penalty is conservatively
    inflated and spurious orders are suppressed.  The floor keeps every
    refit feasible.
    """
    return max(-(-2 * n // 3), 2 * p + 1, m + p)


def _bootstrap_replicate(args):
    """One replicate's difference on its own (a fresh rng_from(seed, p, b),
    one refit and ``population_q``): the per-replicate reference form of
    ``_batched_diffs``, which no library code calls.  The refit is
    ``fit_match`` at m = 1 or p = 0; past that it is the one-series stacked
    fit whose second start is the fitted model, as in the batch."""
    model, resid_pool, gamma_hat, n, p, m, seed, b, opts = args
    rng = rng_from(seed, p, b)
    yb, eps = _simulate_fitted(model, resid_pool, n, rng)
    try:
        if m == 1 or p == 0:
            fb = fit_match(yb, p, m, opts)
        else:
            fb = _fit_match_stack(yb[None], p, m, opts or FitOptions(), start=model.phi)[0]
    except TooShort:  # cannot happen for matching n, defensive only
        return None
    if fb.q_value <= _DEGENERATE_FLOOR:
        return None
    l_b = math.log(fb.q_value)
    lstar_b = math.log(population_q(gamma_hat, fb.model, p, m))
    # Control variate: the dominant noise in l_b is the level of the drawn
    # innovations over the in-sample window, log(mean eps^2), whose
    # resampling mean is known from the pool moments (log mu plus the
    # second-order log correction).  Centering it leaves the optimism
    # estimate unbiased while shrinking its variance by more than an order
    # of magnitude, which is what makes selection workable at moderate B.
    tail = eps[p:]
    z_b = math.log(float(tail @ tail) / tail.shape[0])
    return lstar_b - (l_b - z_b)


def _batched_diffs(tasks):
    """The differences of ``_bootstrap_replicate`` for the tasks of one
    order (they differ only in b), computed as one batch.

    Replicate b draws its innovations from the stream of
    rng_from(seed, p, b), as ``_simulate_fitted`` does, but the indices of
    all B streams are drawn in one pass (``stream_integers``).  The B
    series are filtered together and fitted by ``_fit_stack``: at m = 1
    each gets the model ``fit_match`` gives it.  Past m = 1 the second
    start of every refit is the fitted model, not an ideal-world solve
    under the series' sample autocovariances: the bootstrap law is that
    AR(p) model, and an AR(p) truth's own coefficients minimize the
    population criterion at every m (its k-step best linear predictor uses
    its last p values, and the AR recursion reproduces it).  The in-sample
    criterion comes from the stacked residual kernel ``_q_impl`` and Q*
    from the moments of gamma_hat.  A replicate reads None (skipped) where
    its model fails the step-down (the predicate of ``population_q``), its
    in-sample criterion is at most _DEGENERATE_FLOOR, or its difference is
    not finite.
    """
    model, pool, gamma_hat, ell, p, m, seed, _, opts = tasks[0]
    burn = _BURNIN_BASE + p
    # Row b holds the indices _simulate_fitted's rng.choice draws.
    eps = pool[stream_integers(seed, p, [task[7] for task in tasks], pool.shape[0], ell + burn)]
    tail = eps[:, burn + p:]
    tail_ms = np.einsum("ij,ij->i", tail, tail) / tail.shape[1]
    y = ar_filter(model.phi, eps)[:, burn:]
    X = lag_matrix(y, p)
    if p:
        phi = _fit_stack(y, X, m, opts or FitOptions(), start=model.phi if m > 1 else None)[0]
        qstar = _moments_q(*_population_moments(gamma_hat.gamma, p, m), phi, m, want_grad=False)[0]
    else:
        phi, qstar = np.zeros((len(tasks), 0)), gamma_hat.gamma[0]
    q = _q_impl(y, X, phi, m, want_grad=False)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        diffs = np.log(qstar) - (np.log(q) - np.log(tail_ms))
    ok = _step_down(phi, 1.0)[1] & (q > _DEGENERATE_FLOOR) & np.isfinite(diffs)
    return [d if good else None for good, d in zip(ok.tolist(), diffs.tolist())]


def _control_variate_mean(resid_pool, n):
    """E[log(mean of n i.i.d. squared draws)] to second order."""
    sq = resid_pool * resid_pool
    mu = float(np.mean(sq))
    var = float(np.var(sq))
    return math.log(mu) - var / (2.0 * n * mu * mu)


def _bootstrap_tasks(y, fit, m, B, seed, opts):
    """The replicate tasks b = 1..B of a fitted order (see
    ``_bootstrap_replicate``)."""
    p = fit.order
    resid = y[p:] - lag_matrix(y, p) @ fit.model.phi
    resid = resid - resid.mean()
    if float(resid @ resid) <= 0.0:
        raise DegenerateFit("residuals are identically zero; cannot bootstrap")
    gamma_hat = ar_acvf(fit.model, p + m)
    ell = _subsample_length(y.shape[0], p, m)
    return [(fit.model, resid, gamma_hat, ell, p, m, seed, b, opts) for b in range(1, B + 1)]


def _penalty(tasks):
    """(bias estimate, replicates used, its Monte-Carlo standard error) of
    one order's tasks; at most 20% of the replicates may be degenerate."""
    _, resid, gamma_hat, ell, p, m, *_ = tasks[0]
    B = len(tasks)
    control = _control_variate_mean(resid, ell - p)
    if p == 0 and m == 1 and np.min(resid * resid) > _DEGENERATE_FLOOR:
        # Every difference is then log gamma_hat(0): q_b and the control
        # variate are the same mean square, and none can be degenerate.
        return math.log(gamma_hat.gamma[0]) - control, B, 0.0
    used = np.array([d for d in _batched_diffs(tasks) if d is not None])
    skipped = B - used.shape[0]
    if skipped > 0.2 * B:
        raise BootstrapFailed(f"{skipped}/{B} bootstrap replicates degenerate")
    bias = float(np.mean(used) - control)
    se = float(np.std(used, ddof=1)) / math.sqrt(used.shape[0]) if used.shape[0] > 1 else math.nan
    return bias, used.shape[0], se


def bootstrap_bias(series, p, m, B, seed, opts=None):
    """Parametric residual-bootstrap estimate of the log-loss optimism.

    Fit the order-p model, resample its centered one-step residuals to
    generate B series from the fitted recursion, refit each, and average
    log(population criterion under the fitted law) - log(in-sample
    criterion).  The bootstrap series are shorter than the data (about
    two thirds, see ``_subsample_length``), which conservatively inflates
    the penalty and is what makes the downstream order selection reliable.
    Replicate b uses the derived seed mix(seed, p, b); degenerate
    replicates are skipped, at most 20% of them.  The B replicates run as
    one vectorised batch in this process (``_batched_diffs``): the resample
    indices drawn in one pass, then one stacked refit.  Past m = 1 each
    refit starts from its series' OLS solution and from the fitted model,
    which is the bootstrap world's own ideal-world fit.  At p = 0 and m = 1
    every replicate difference is log gamma_hat(0), so no series is drawn.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    y = _finite_series(series)
    return _penalty(_bootstrap_tasks(y, fit_match(y, p, m, opts), m, B, seed, opts))[0]


def _max_feasible_order(n, m):
    # fit_match needs n >= m + p; the OLS start needs n >= 2p + 1.
    feasible = min(n - m, (n - 1) // 2)
    return max(feasible, -1)


def select_order(series, p_max, m, B, seed, opts=None):
    """Choose the AR order minimizing L(p) + bootstrap optimism penalty.

    Every order is fitted once, and that fit also seeds its bootstrap; then
    each order's replicates run as one batch (see ``bootstrap_bias``).
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if B < 1:
        raise ValueError("B must be >= 1")
    y = _finite_series(series)
    n = y.shape[0]
    feasible = _max_feasible_order(n, m)
    if feasible < p_max:
        raise TooShort(
            f"series of length {n} supports p_max <= {feasible} at m={m}, "
            f"got p_max={p_max}",
            max_feasible_order=feasible,
        )
    fits, task_lists = [], []
    for p in range(p_max + 1):
        L, fit = log_loss(y, p, m, opts)
        fits.append((L, fit))
        task_lists.append(_bootstrap_tasks(y, fit, m, B, seed, opts))
    rows = []
    for (L, fit), tasks in zip(fits, task_lists):
        bias, used, se = _penalty(tasks)
        rows.append(
            OrderRow(
                order=fit.order,
                log_loss=L,
                bias_estimate=bias,
                criterion=L + bias,
                converged=fit.converged,
                iterations=fit.iterations,
                replicates_used=used,
                bias_se=se,
            )
        )
    crit = np.array([r.criterion for r in rows])
    chosen = int(np.argmin(crit))  # first minimum = smallest order
    return SelectionResult(
        rows=tuple(rows),
        chosen_p=chosen,
        m=m,
        bootstrap_replicates=B,
        seed=seed,
    )


def aic_baseline(series, p_max):
    """AIC over conditional-least-squares fits: log(sigma2_p) + 2p/n.

    Returns (chosen_p, aic_values).  An order whose lagged design is
    singular, or whose residual variance is degenerate, scores NaN; the
    choice is the least finite value, ties going to the smaller order, and
    DegenerateFit is raised only if no value is finite.
    """
    y = _finite_series(series)
    n = y.shape[0]
    if n < 2 * p_max + 1 or n < 2:
        raise TooShort(
            f"series of length {n} too short for OLS at p_max={p_max}",
            min_n=max(2 * p_max + 1, 2),
        )
    values = np.full(p_max + 1, np.nan)
    for p in range(p_max + 1):
        try:
            s2 = fit_ols(y, p).sigma2
        except SingularDesign:
            continue
        if s2 > _DEGENERATE_FLOOR:
            values[p] = math.log(s2) + 2.0 * p / n
    finite = np.isfinite(values)
    if not finite.any():
        raise DegenerateFit("no order has a finite AIC")
    return int(np.argmin(np.where(finite, values, np.inf))), values
