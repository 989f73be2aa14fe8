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

from .companion import ar_spectral_radius
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
        return ar_spectral_radius(self.phi) < 1.0


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
        return ar_spectral_radius(self.ar) < 1.0


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


def ar_acvf(model, max_lag):
    """Autocovariances gamma(0..max_lag) implied by a stationary AR model.

    gamma(0..p) solve the dense Yule-Walker system (including sigma2);
    higher lags extend by gamma(k) = sum_j phi_j gamma(k - j).
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if not model.is_stationary:
        raise NonStationary("AR coefficients are not stationary")
    phi = model.phi
    p = model.order
    if p == 0:
        g = np.zeros(max_lag + 1)
        g[0] = model.sigma2
        return AcvfSeq(g)
    # Equations gamma(k) - sum_j phi_j gamma(|k - j|) = sigma2 * [k == 0],
    # k = 0..p, assembled as a dense (p+1) x (p+1) system.
    A = np.eye(p + 1)
    for k in range(p + 1):
        for j in range(1, p + 1):
            A[k, abs(k - j)] -= phi[j - 1]
    b = np.zeros(p + 1)
    b[0] = model.sigma2
    head = np.linalg.solve(A, b)
    g = np.empty(max(max_lag, p) + 1)
    g[: p + 1] = head
    for k in range(p + 1, g.shape[0]):
        g[k] = phi @ g[k - 1: k - p - 1: -1] if p > 1 else phi[0] * g[k - 1]
    return AcvfSeq(g[: max_lag + 1])


def arma_acvf(spec, max_lag):
    """Autocovariances of a stationary ARMA process via its MA(inf) weights.

    The psi-weight expansion is truncated adaptively using the geometric
    decay rate of the AR part, so the neglected tail contributes less than
    1e-12 * gamma(0).  Pure MA specs are computed exactly.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if not spec.is_stationary:
        raise NonStationary("AR part of the ARMA spec is not stationary")
    ar, ma = spec.ar, spec.ma
    p, q = ar.shape[0], ma.shape[0]
    if p == 0:
        psi = np.concatenate(([1.0], ma))
    else:
        rho = ar_spectral_radius(ar)
        # |psi_j| decays like rho^j asymptotically; start past the MA part
        # and grow until the geometric tail bound is negligible.
        n_psi = q + p + 64
        psi = None
        while True:
            psi = np.zeros(n_psi)
            psi[0] = 1.0
            psi[1: q + 1] = ma
            for j in range(1, n_psi):
                lo = max(0, j - p)
                psi[j] += ar[: j - lo] @ psi[j - 1: lo - 1 if lo > 0 else None: -1]
            tail_mag = np.max(np.abs(psi[-p:])) if p > 0 else 0.0
            # Bound on the neglected part of sum psi_j psi_{j+k}.
            tail_bound = (tail_mag ** 2) * rho / max(1.0 - rho * rho, 1e-300)
            gamma0 = spec.sigma2 * float(psi @ psi)
            if tail_bound * spec.sigma2 < 1e-13 * max(gamma0, 1e-300):
                break
            if n_psi > 2_000_000:
                raise NonStationary("psi-weight expansion failed to converge")
            n_psi *= 2
    g = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        g[k] = spec.sigma2 * float(psi[: psi.shape[0] - k] @ psi[k:]) if k < psi.shape[0] else 0.0
    return AcvfSeq(g)


def pacf_to_ar(r):
    """Map partial autocorrelations r_1..r_p (each in (-1, 1)) to a
    stationary AR coefficient vector by the Levinson step-up recursion."""
    r = np.atleast_1d(np.asarray(r, dtype=float)) if np.size(r) else np.zeros(0)
    if np.any(np.abs(r) >= 1.0):
        raise ValueError("partial autocorrelations must lie strictly in (-1, 1)")
    return _pacf_to_ar_with_jac(r)[0]


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


def ar_to_pacf(phi):
    """Inverse of :func:`pacf_to_ar` (Levinson step-down recursion).

    Raises NonStationary if any recovered reflection coefficient has
    modulus >= 1, i.e. if ``phi`` is outside the stationary region.
    """
    a = np.atleast_1d(np.asarray(phi, dtype=float)) if np.size(phi) else np.zeros(0)
    p = a.shape[0]
    r = np.empty(p)
    a = a.copy()
    for j in range(p, 0, -1):
        rj = a[j - 1]
        if abs(rj) >= 1.0 or not np.isfinite(rj):
            raise NonStationary("AR coefficients are outside the stationary region")
        r[j - 1] = rj
        if j > 1:
            a = (a[: j - 1] + rj * a[j - 2::-1]) / (1.0 - rj * rj)
    return r
