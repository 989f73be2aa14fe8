"""Autocovariance sequences, the Levinson-Durbin recursion, and the partial
autocorrelation parametrization of the stationary AR region.

Conventions
-----------
gamma(k) = E[y_t y_{t+k}] for a mean-zero stationary process.  An
:class:`AcvfSeq` stores gamma(0), ..., gamma(K).  AR coefficients follow
y_t = phi_1 y_{t-1} + ... + phi_p y_{t-p} + eps_t.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientLags, NonStationary, SingularToeplitz

# Relative floor on Levinson prediction-error variances; below this the
# Toeplitz matrix is treated as singular.
SINGULARITY_FLOOR = 1e-12


@dataclass(frozen=True)
class AcvfSeq:
    """Autocovariance sequence gamma(0..K) of a stationary process."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if g.ndim != 1 or g.shape[0] < 1:
            raise ValueError("gamma must be a 1-d sequence with at least gamma(0)")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        if g[0] <= 0.0:
            raise ValueError("gamma(0) must be positive")
        if np.any(np.abs(g[1:]) > g[0] * (1.0 + 1e-12)):
            raise ValueError("|gamma(k)| must not exceed gamma(0)")
        object.__setattr__(self, "gamma", g)
        # Leading Toeplitz minors of every order must be PSD: the recursion's
        # last variance may reach zero but not fall below it (small slack for
        # roundoff).
        v = _durbin(g, self.max_lag)[2]
        if v[-1] < -1e-10 * g[0]:
            raise ValueError(
                "gamma is not a valid autocovariance sequence "
                f"(order-{v.shape[0] - 1} Toeplitz minor is indefinite)"
            )

    @property
    def max_lag(self):
        return self.gamma.shape[0] - 1

    def __getitem__(self, k):
        return float(self.gamma[k])


@dataclass(frozen=True)
class ArParams:
    """AR(p) coefficients plus innovation variance; p = 0 is white noise."""

    phi: np.ndarray
    sigma2: float

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float)) if np.size(self.phi) else np.zeros(0)
        if phi.ndim != 1 or not np.all(np.isfinite(phi)):
            raise ValueError("phi must be a finite 1-d vector")
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 < 0.0:
            raise ValueError("sigma2 must be finite and nonnegative")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma2", s2)

    @property
    def order(self):
        return self.phi.shape[0]

    @property
    def is_stationary(self):
        return bool(_step_down(self.phi[None])[1][0])


@dataclass(frozen=True)
class ArmaSpec:
    """ARMA(p, q) data-generating specification (AR part must be stationary)."""

    ar: np.ndarray
    ma: np.ndarray
    sigma2: float

    def __post_init__(self):
        ar = np.atleast_1d(np.asarray(self.ar, dtype=float)) if np.size(self.ar) else np.zeros(0)
        ma = np.atleast_1d(np.asarray(self.ma, dtype=float)) if np.size(self.ma) else np.zeros(0)
        if not (np.all(np.isfinite(ar)) and np.all(np.isfinite(ma))):
            raise ValueError("ARMA coefficients must be finite")
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "ar", ar)
        object.__setattr__(self, "ma", ma)
        object.__setattr__(self, "sigma2", s2)

    @property
    def is_stationary(self):
        return bool(_step_down(self.ar[None])[1][0])


def _durbin(g, p):
    """The Durbin recursion on gamma(0..p): (phi, pacf, v) as
    :func:`levinson_solve` returns them, except that it stops after the
    first variance v[j] <= 0, where pacf and v end at order j and phi is the
    order-j solution."""
    v = np.empty(p + 1)
    v[0] = g[0]
    pacf = np.empty(p)
    a = np.zeros(0)
    for j in range(1, p + 1):
        r = (g[j] - a @ g[j - 1:0:-1]) / v[j - 1] if j > 1 else g[1] / v[0]
        new = np.empty(j)
        if j > 1:
            new[: j - 1] = a - r * a[::-1]
        new[j - 1] = r
        a = new
        pacf[j - 1] = r
        v[j] = v[j - 1] * (1.0 - r * r)
        if v[j] <= 0.0:
            return a, pacf[:j], v[: j + 1]
    return a, pacf, v


def levinson_solve(acvf, p):
    """Solve the order-p Yule-Walker Toeplitz system by Levinson-Durbin.

    Parameters
    ----------
    acvf : AcvfSeq
        Autocovariances gamma(0..K) with K >= p.
    p : int
        Order of the system, p >= 1.

    Returns
    -------
    phi : ndarray, shape (p,)
        Solution of Gamma_p phi = (gamma(1), ..., gamma(p))'.
    pacf : ndarray, shape (p,)
        Reflection coefficients (partial autocorrelations) of orders 1..p.
    v : ndarray, shape (p + 1,)
        One-step prediction-error variances of orders 0..p (non-increasing).

    Raises
    ------
    InsufficientLags
        If the sequence is shorter than p lags.
    SingularToeplitz
        If any recursion variance falls below ``SINGULARITY_FLOOR * gamma(0)``.
    """
    if p < 1:
        raise ValueError("levinson_solve requires p >= 1")
    g = acvf.gamma
    if acvf.max_lag < p:
        raise InsufficientLags(f"need gamma up to lag {p}, have {acvf.max_lag}")
    a, pacf, v = _durbin(g, p)
    floor = SINGULARITY_FLOOR * g[0]
    for j in range(1, v.shape[0]):
        if v[j] <= floor:
            raise SingularToeplitz(
                f"order-{j} prediction-error variance {v[j]:.3e} at or below "
                f"the floor {floor:.3e}"
            )
    return a, pacf, v


def _linear_acvf(phi, theta, sigma2, max_lag):
    """Autocovariances gamma(0..max_lag) of the ARMA process with AR part
    phi (stationary), MA part theta and innovation variance sigma2.

    gamma(0..r), r = max(p, q), solve the dense (r+1) x (r+1) system
    gamma(k) - sum_j phi_j gamma(|k - j|) = sigma2 sum_{j=k..q} theta_j psi_{j-k}
    (theta_0 = 1), in which only the MA(inf) weights psi_0..psi_q enter
    (Brockwell & Davis 1991, section 3.3); higher lags extend by
    gamma(k) = sum_j phi_j gamma(k - j).  A model within rounding of the
    unit circle whose sequence fails ``AcvfSeq``'s checks raises
    NonStationary.
    """
    p, q = phi.shape[0], theta.shape[0]
    r = max(p, q)
    theta = np.concatenate(([1.0], theta))
    psi = theta.copy()
    if p:  # with no AR part psi = theta, bit for bit
        for j in range(1, q + 1):
            k = min(j, p)
            psi[j] += phi[:k] @ psi[j - 1:: -1][:k]
    b = np.zeros(r + 1)
    for k in range(q + 1):
        b[k] = sigma2 * (theta[k:] @ psi[: q + 1 - k])
    A = np.eye(r + 1)
    for k in range(r + 1):
        for j in range(1, p + 1):
            A[k, abs(k - j)] -= phi[j - 1]
    g = np.zeros(max(max_lag, r) + 1)
    g[: r + 1] = np.linalg.solve(A, b)
    for k in range(r + 1, g.shape[0]):
        g[k] = phi[0] * g[k - 1] if p == 1 else phi @ g[k - 1: k - p - 1: -1]
    try:
        return AcvfSeq(g[: max_lag + 1])
    except ValueError as exc:
        raise NonStationary(f"the model gives no valid autocovariances: {exc}") from None


def ar_acvf(model, max_lag):
    """Autocovariances gamma(0..max_lag) implied by a stationary AR model:
    the dense Yule-Walker solve of ``_linear_acvf`` with no MA part."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if not model.is_stationary:
        raise NonStationary("AR coefficients are not stationary")
    return _linear_acvf(model.phi, np.zeros(0), model.sigma2, max_lag)


def arma_acvf(spec, max_lag):
    """Autocovariances gamma(0..max_lag) of a stationary ARMA process,
    exact up to rounding: one dense solve of ``_linear_acvf``.  With no MA
    part it equals :func:`ar_acvf` bit for bit."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if not spec.is_stationary:
        raise NonStationary("AR part of the ARMA spec is not stationary")
    return _linear_acvf(spec.ar, spec.ma, spec.sigma2, max_lag)


def pacf_to_ar(r):
    """Map partial autocorrelations r_1..r_p (each in (-1, 1)) to a
    stationary AR coefficient vector by the Levinson step-up recursion."""
    r = np.atleast_1d(np.asarray(r, dtype=float)) if np.size(r) else np.zeros(0)
    if np.any(np.abs(r) >= 1.0):
        raise ValueError("partial autocorrelations must lie strictly in (-1, 1)")
    return _pacf_to_ar(r)


def _pacf_to_ar(r):
    """The step-up recursion alone, for one vector r of shape (p,) or a
    stack (N, p): row 0 of :func:`_pacf_to_ar_with_jac`, by the same
    arithmetic in the same order, so the two agree bit for bit."""
    phi = np.array(r, dtype=float)
    for k in range(1, phi.shape[-1]):
        phi[..., :k] -= r[..., k, None] * phi[..., k - 1::-1]
    return phi


def _pacf_to_ar_with_jac(r):
    """Step-up recursion together with the Jacobian d(phi)/d(r), for one
    vector r of shape (p,) or a stack (N, p).

    Both live in one preallocated array M of shape r.shape[:-1] + (p + 1, p),
    filled in place: row 0 is the coefficient vector and row c + 1 is the
    column d(phi)/d(r_c).  Column k enters as (r_k, e_k): step k reads and
    writes only the block M[..., :k + 1, :k], so the later columns can be
    set up front.  The step reflects that block; its row-reversed copy is
    formed as a temporary first, because M[..., :k + 1, :k] and
    M[..., :k + 1, k-1::-1] overlap.  Returns phi and J with
    J[..., i, c] = d(phi_i)/d(r_c) (a view of M).
    """
    p = r.shape[-1]
    M = np.zeros(r.shape[:-1] + (p + 1, p))
    M[..., 0, :] = r
    M[..., 1:, :] = np.eye(p)
    for k in range(1, p):
        M[..., k + 1, :k] = -M[..., 0, k - 1::-1]
        M[..., : k + 1, :k] -= r[..., k, None, None] * M[..., : k + 1, k - 1::-1]
    return M[..., 0, :], M[..., 1:, :].swapaxes(-1, -2)


def _step_down(phis, c=1.0):
    """The package's one stationarity predicate: the Levinson step-down
    recursion on each row of a (B, p) stack of AR coefficient vectors,
    taken as phi_j c^-j, in p stacked steps.  Returns (r, ok).

    r (B, p) holds the reflection coefficients (partial autocorrelations);
    a row's r past its first |r_j| >= 1 is meaningless.  ok (B,) is True
    where every |r_j| < 1, which holds exactly when every companion root
    of the row lies inside radius c (Barndorff-Nielsen & Schou 1973); a
    row with a non-finite value is not ok.  Each row's arithmetic is the
    one-vector recursion's, so r does not depend on the stack.
    """
    a = np.array(phis, dtype=float).T  # (p, B): step j acts on rows, as in the one-vector loop
    p = a.shape[0]
    if c != 1.0:
        a *= c ** -np.arange(1.0, p + 1)[:, None]
    r = np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(p, 1, -1):
            rj = r[j - 1] = a[j - 1]
            a = (a[: j - 1] + rj * a[j - 2::-1]) / (1.0 - rj * rj)
        r[:1] = a[:1]
        return r.T, np.logical_and.reduce(np.abs(r) < 1.0, axis=0)


def ar_to_pacf(phi):
    """Inverse of :func:`pacf_to_ar`: one vector's row of :func:`_step_down`.

    Raises NonStationary if any recovered reflection coefficient has
    modulus >= 1 or is not finite, i.e. if ``phi`` is outside the
    stationary region.
    """
    a = np.atleast_1d(np.asarray(phi, dtype=float)) if np.size(phi) else np.zeros(0)
    r, ok = _step_down(a[None])
    if not ok[0]:
        raise NonStationary("AR coefficients are outside the stationary region")
    return r[0]
