"""Multi-step prediction-error criteria.

Both criteria are one quadratic form in the model-implied k-step
predictors alpha_k (the first row of C(phi)^k):

    Q = (1/m) sum_{k=1..m} [s_k - 2 alpha_k' c_k + alpha_k' G_k alpha_k].

They differ only in where (s_k, c_k, G_k) come from.  The empirical
criterion takes them from the data: the mean square of the k-step targets,
their mean cross-products with the lag window and the window's mean Gram
matrix, each over the n - k - p + 1 usable rows.  The population criterion
(``population_q``) is its expectation under a known stationary truth:
s_k = gamma(0), c_k = (gamma(k), ..., gamma(k+p-1)) and
G_k = Toeplitz(gamma(0..p-1)).  ``_moments_q`` evaluates the form and its
gradient in phi for either source in O(m p^2), independent of the series
length, for one coefficient vector or a stack of them; the fits optimize
through it.  The residual kernel ``_q_impl`` instead sums the residuals
directly, which stays accurate when Q is far below s_k; it scores one
series (``empirical_q``) or a stack of them (the stacked fits and the
bootstrap), any p >= 0, with the same bits.  Series are treated as mean-zero:
nothing here ever centers the data.  ``ar_filter`` runs the AR recursion
itself on the same table: the impulse response is h_k = alpha_k[0].
"""

import numpy as np

from .errors import InsufficientLags, NonStationary, TooShort

__all__ = ["empirical_q", "empirical_q_gradient", "population_q", "lag_matrix", "ar_filter"]


def lag_matrix(y, p):
    """Rows (y_t, y_{t-1}, ..., y_{t-p+1}) for t = p..n-1 (0-based t = p-1..n-2).

    Shape (n - p, p) for one series y (n,), (B, n - p, p) for a stack
    (B, n), and zero columns at p = 0; always a fresh C-contiguous array,
    so a stack's slice X[b] is laid out, and multiplies, exactly as the
    one-series matrix.  Row i predicts y at index p + i (+ horizon - 1).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if p == 0:
        return np.empty(y.shape + (0,))
    return np.stack([y[..., p - 1 - j: n - 1 - j] for j in range(p)], axis=-1)


def _finite_series(series):
    """The series as a float array; ValueError unless every value is finite."""
    y = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("series must be finite")
    return y


def _check_length(n, p, m):
    # Shortest horizon-m sum needs n - m - p + 1 >= 1, and a fit two values.
    min_n = max(m + p, 2)
    if n < min_n:
        raise TooShort(f"series of length {n} too short for p={p}, m={m} (need n >= {min_n})", min_n=min_n)


def _predictors(phi, m):
    """Rows alpha_0..alpha_m, alpha_k = first row of C(phi)^k, for phi of
    shape (p,) or a stack (N, p); A[k] has phi's shape.

    One companion step maps a row a to a[0] * phi + (a[1:], 0), so the
    table costs O(m p) per vector.  A[k, ..., 0] holds (C^k)[0, 0].

    One vector steps over Python floats, which costs a fraction of a
    numpy call per step; each entry is the same product, plus the same
    addend, so the table equals a stack's row bit for bit.
    """
    if phi.ndim == 1 and phi.shape[0]:
        f = phi.tolist()
        a = [1.0] + [0.0] * (len(f) - 1)
        rows = [a]
        for _ in range(m):
            h = a[0]
            a = [h * x + b for x, b in zip(f, a[1:])] + [h * f[-1]]
            rows.append(a)
        return np.array(rows)
    A = np.zeros((m + 1,) + phi.shape)
    A[0, ..., 0] = 1.0
    for k in range(1, m + 1):
        A[k] = A[k - 1, ..., :1] * phi
        A[k, ..., :-1] += A[k - 1, ..., 1:]
    return A


# Steps per block of ``ar_filter``.  Its rounding error grows with the
# block's impulse and state responses: on AR(8)-AR(10) filters with every
# PACF value at +-0.995, 16 was about ten times more accurate than 32 and
# within 8% of its speed on a (100, 540) stack (12 and 48 were slower).
_FILTER_BLOCK = 16


def ar_filter(phi, eps):
    """The AR recursion y_t = eps_t + sum_j phi_j y_{t-j} from a zero start,
    along the last axis of ``eps``: one series (N,) or a stack (B, N).

    Blocked on the predictor table A = _predictors(phi, L).  Over a block
    of L steps starting at t, y_{t+k} = sum_{i<=k} h_{k-i} eps_{t+i} +
    alpha_{k+1}' (y_{t-1}, ..., y_{t-p}), with h_k = A[k, 0] the impulse
    response; so each block is one matmul of the window (last p outputs,
    then the block's innovations) with a fixed (p + L, L) matrix, and the
    loop over blocks carries the last p outputs.  The output buffer starts
    as a copy of eps and is overwritten block by block.

    Equal to the recursion up to rounding, which grows with the filter's
    gain G = sum_k |h_k| (about u G^2 max|y|, u the unit roundoff, where
    the sequential recursion is nearer u G sum|phi| max|y|): as accurate
    for a well-damped filter, less so near the unit circle at high order.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.array(eps, dtype=float)
    p, n = phi.shape[0], y.shape[-1]
    if p == 0 or n == 0:
        return y
    L = max(_FILTER_BLOCK, p)
    A = _predictors(phi, L)
    lag = np.arange(L)
    d = lag - lag[:, None]
    # Rows: the state (oldest first) -> alpha_1..alpha_L, then the
    # innovations through h_{j-i} (zero below the diagonal).
    V = np.concatenate([A[1:, ::-1].T, np.where(d >= 0, A[d, 0], 0.0)])
    r = min(L, n)
    y[..., :r] = y[..., :r] @ V[p:p + r, :r]
    for lo in range(L, n, L):
        r = min(L, n - lo)
        y[..., lo:lo + r] = y[..., lo - p:lo + r] @ V[:p + r, :r]
    return y


def _adjoint_grad(phi, A, W):
    """sum_k W[k-1]' d(alpha_k)/d(phi) for the predictor table A, per
    vector of phi's stack (W has shape (m,) + phi.shape).

    d(alpha_k)/d(phi_j) = sum_{i<k} (C^i)[0, 0] (C^{k-1-i})[j, :], so with
    the backward recursion S_i = w_i + C S_{i+1} (S_{m+1} = 0) the sum is
    sum_{i=1..m} (C^{i-1})[0, 0] S_i, at O(m p) cost.
    """
    S = np.zeros(phi.shape)
    grad = np.zeros(phi.shape)
    for i in range(W.shape[0], 0, -1):
        head = np.add.reduce(phi * S, axis=-1)
        S[..., 1:] = S[..., :-1]
        S[..., 0] = head
        S += W[i - 1]
        grad += A[i - 1, ..., :1] * S
    return grad


def _moments_q(s, c, G, phi, m, want_grad):
    """The criterion (1/m) sum_k [s_k - 2 alpha_k' c_k + alpha_k' G_k alpha_k]
    and, when requested, its gradient in phi.

    ``phi`` is one vector (p,) or a stack (..., p); q and the gradient
    follow its leading shape.  The moments serve every vector, with ``s`` of
    shape (m,), ``c`` (m, p) and ``G`` (m, p, p), or (p, p) when one matrix
    serves every horizon; or they carry their own axes after the horizon
    axis, broadcast against phi's leading shape (``s`` (m, ...), ``c``
    (m, ..., p), ``G`` (m, ..., p, p)), one set per vector.
    """
    A = _predictors(phi, m)
    if s.ndim == 1:
        lead = (1,) * (phi.ndim - 1)
        c = c.reshape(c.shape[:1] + lead + c.shape[1:])
        G = G.reshape(G.shape[:-2] + lead + G.shape[-2:])
    Ga = np.matmul(G, A[1:, ..., None])[..., 0]
    q = (np.add.reduce(s, axis=0) + np.add.reduce(A[1:] * (Ga - 2.0 * c), axis=(0, -1))) / m
    if not want_grad:
        return q, None
    return q, _adjoint_grad(phi, A, (2.0 / m) * (Ga - c))


def _population_moments(gamma, p, m):
    """(s, c, G) of the population criterion from gamma(0..p+m-1): from one
    sequence (K,), s (m,), c (m, p) and G (p, p), one matrix for every
    horizon; from a stack (B, K), one set per row, laid out as
    ``_empirical_moments`` lays out a stack's: s (m, B), c (m, B, p) and
    G (m, B, p, p)."""
    if gamma.shape[-1] < p + m:
        raise InsufficientLags(
            f"need gamma up to lag {p + m - 1}, have {gamma.shape[-1] - 1}"
        )
    lags = np.arange(p)
    c = gamma[..., np.arange(1, m + 1)[:, None] + lags]
    G = gamma[..., np.abs(lags[:, None] - lags)]
    if gamma.ndim == 1:
        return np.full(m, gamma[0]), c, G
    return np.repeat(gamma[None, :, 0], m, axis=0), c.swapaxes(0, 1), np.broadcast_to(G, (m,) + G.shape)


def _empirical_moments(y, X, p, m):
    """(s, c, G) of the empirical criterion, each averaged over the
    n - k - p + 1 rows of horizon k, for one series y (n,) with
    X = lag_matrix(y, p), or for a stack of equal-length series y (B, n)
    with their lag matrices X (B, n - p, p).  The horizon axis comes first:
    s (m, B), c (m, B, p) and G (m, B, p, p) for a stack.

    The horizon-k window is the horizon-(k+1) window plus one row, so the
    Gram matrices accumulate from the shortest window by rank-one updates.
    """
    n = y.shape[-1]
    lead = y.shape[:-1]
    rows = n - p + 1 - np.arange(1, m + 1)
    Xt = X.swapaxes(-1, -2)
    G = np.empty((m,) + lead + (p, p))
    G[-1] = Xt[..., : rows[-1]] @ X[..., : rows[-1], :]
    for k in range(m - 1, 0, -1):
        x = X[..., rows[k], :]
        G[k - 1] = G[k] + x[..., :, None] * x[..., None, :]
    s = np.empty((m,) + lead)
    c = np.empty((m,) + lead + (p,))
    for k in range(1, m + 1):
        target = y[..., p + k - 1:, None]
        s[k - 1] = (target.swapaxes(-1, -2) @ target)[..., 0, 0]
        c[k - 1] = (Xt[..., : rows[k - 1]] @ target)[..., 0]
    rows = rows.reshape((m,) + (1,) * len(lead))
    return s / rows, c / rows[..., None], G / rows[..., None, None]


def _q_impl(y, X, phi, m, want_grad):
    """The empirical criterion summed over the residuals of horizons 1..m
    and, when requested, its exact gradient in phi (by the adjoint
    recursion, with w_k = -(2 / (m rows_k)) X_k' r_k), p >= 0.

    One series y (n,) with X = lag_matrix(y, p) and phi (p,) gives a float
    q; a stack y (B, n) with its lag matrices X (B, n - p, p) and phi
    (B, p) gives q (B,).  Every product is a stacked ``@`` acting on one
    slice of X as on a one-series matrix, so a stack's row equals the
    one-series call bit for bit.
    """
    n, p = y.shape[-1], phi.shape[-1]
    alpha = _predictors(phi, m) if p else None
    total = 0.0
    W = np.empty((m,) + phi.shape) if want_grad else None
    for k in range(1, m + 1):
        rows = n - k - p + 1
        resid = y[..., p + k - 1:]
        if p:
            resid = resid - (X[..., :rows, :] @ alpha[k][..., None])[..., 0]
        total = total + (resid[..., None, :] @ resid[..., None])[..., 0, 0] / rows
        if want_grad:
            W[k - 1] = (-2.0 / (m * rows)) * (X[..., :rows, :].swapaxes(-1, -2) @ resid[..., None])[..., 0]
    q = total / m if y.ndim > 1 else float(total) / m
    return q, _adjoint_grad(phi, alpha, W) if want_grad else None


def _criterion_series(series, p, m):
    """The series of an empirical criterion of order p and horizon m, as a
    float array, after the checks both criteria share."""
    y = _finite_series(series)
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_length(y.shape[0], p, m)
    return y


def empirical_q(series, model, m):
    """Average squared up-to-m-step-ahead prediction error of ``model``.

    (1/m) sum_{k=1..m} [1/(n-k-p+1)] sum_t (y_{t+k} - alpha_k' y_{t,p})^2,
    with alpha_k the model-implied k-step predictor.  For p = 0 the
    predictor is zero and the k-sum runs over n - k + 1 terms.
    """
    y = _criterion_series(series, model.order, m)
    return _q_impl(y, lag_matrix(y, model.order), model.phi, m, want_grad=False)[0]


def empirical_q_gradient(series, model, m):
    """Exact gradient of :func:`empirical_q` with respect to phi.

    alpha_k is the first row of C(phi)^k; its Jacobian follows from the
    product rule over the k companion factors:
    d(alpha_k)/d(phi_j) = sum_{i=0..k-1} (C^i)_[0,0] * (C^{k-1-i})_[j-1, :].
    """
    p = model.order
    if p < 1:
        raise ValueError("gradient requires p >= 1")
    y = _criterion_series(series, p, m)
    return _q_impl(y, lag_matrix(y, p), model.phi, m, want_grad=True)[1]


def population_q(truth, model, p, m):
    """Expected up-to-m-step squared prediction error under a known truth.

    (1/m) sum_{k=1..m} [gamma(0) - 2 alpha_k' gamma_{k,p} + alpha_k' Gamma_p alpha_k]
    with all autocovariances taken from ``truth`` and alpha_k the
    model-implied predictors.  Requires ``truth.max_lag >= p + m - 1``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p != model.order:
        raise ValueError(f"p={p} does not match model order {model.order}")
    g = truth.gamma
    if p == 0:
        return float(g[0])
    moments = _population_moments(g, p, m)
    if not model.is_stationary:
        raise NonStationary("AR coefficients are not stationary")
    return float(_moments_q(*moments, model.phi, m, want_grad=False)[0])
