import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armatch import (
    AcvfSeq,
    ArParams,
    ArmaSpec,
    InsufficientLags,
    ar_acvf,
    arma_acvf,
    pacf_to_ar,
    population_q,
    predictor_from_acvf,
    predictor_from_model,
)
from armatch.acvf import _step_down
from armatch.companion import ar_spectral_radii, companion_matrix, spectral_radius


class TestCompanion:
    def test_scalar(self):
        C = companion_matrix([0.5])
        assert C.shape == (1, 1) and C[0, 0] == 0.5
        assert spectral_radius(C) == pytest.approx(0.5)

    def test_complex_pair_boundary(self):
        # eigenvalues +-i: radius exactly 1 (non-stationary boundary)
        assert spectral_radius(companion_matrix([0.0, -1.0])) == pytest.approx(1.0)

    def test_quadratic_roots(self):
        # z^2 - 0.75 z + 0.5 has root modulus sqrt(0.5)
        assert spectral_radius(companion_matrix([0.75, -0.5])) == pytest.approx(
            np.sqrt(0.5), abs=1e-10
        )

    def test_structure(self):
        C = companion_matrix([0.1, 0.2, 0.3])
        assert C[0].tolist() == [0.1, 0.2, 0.3]
        assert C[1, 0] == 1.0 and C[2, 1] == 1.0 and C[2, 0] == 0.0


def _scale_roots(phi, t):
    """Rows phi_j t^j: every companion root of the row scaled by t."""
    return phi * t[:, None] ** np.arange(1.0, phi.shape[1] + 1)


def _squared_roots_poly_oracle(phi):
    """Coefficients after the leading 1 of the monic polynomial with the
    squared companion roots of each row, from numpy's roots."""
    return np.array([np.poly(np.roots(np.r_[1.0, -row]) ** 2).real[1:] for row in phi])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 12), c=st.sampled_from([0.99, 1.0]))
def test_step_down_equals_eigvals(seed, p, c):
    # The step-down at radius c puts a row inside exactly when eigvals
    # does.  Rows: random rows at scales from deep inside to well outside
    # the unit circle; rows just inside and just outside the coefficient
    # bound sum_j |phi_j| c^-j = 1 - 1e-6, and rows with sum_j |phi_j| just
    # under 1 - 1e-6, which differ from them when c < 1.  Then stationary
    # rows, their roots scaled to put each just inside or outside radius c,
    # and just inside or outside the same bound on the polynomial with the
    # squared roots (sum_l |d_l| c^-2l = 1 - 1e-6), which the scaling moves
    # monotonically: d_l scales by t^2l.
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((60, p)) * rng.uniform(0.01, 2.0, (60, 1)) / np.sqrt(p)
    phi[:5, 1:] = 0.0  # one real root, |phi_1|
    weighted = np.abs(phi) @ (c ** -np.arange(1.0, p + 1))
    total = np.abs(phi).sum(axis=1)
    nudge = 1.0 + rng.choice([-1e-9, -1e-15, 0.0, 1e-15, 1e-9], (60, 1))
    stationary = np.array([pacf_to_ar(r) for r in rng.uniform(-0.95, 0.95, (40, p))])
    rho = ar_spectral_radii(stationary)
    d = np.abs(_squared_roots_poly_oracle(stationary))
    lo, hi = np.zeros(40), 2.0 * c / rho
    for _ in range(80):  # bisection on t for the squared bound at 1 - 1e-6
        mid = 0.5 * (lo + hi)
        inside = (d * (mid[:, None] / c) ** np.arange(2.0, 2 * p + 1, 2)).sum(axis=1) < 1.0 - 1e-6
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    rows = np.vstack([
        phi,
        phi / weighted[:, None] * (1.0 - 1e-6) * nudge,
        phi / total[:, None] * (1.0 - 1e-6) * nudge,
        stationary,
        _scale_roots(stationary, c / rho * (1.0 + rng.choice([-1e-3, -1e-7, 1e-7, 1e-3], 40))),
        _scale_roots(stationary, lo * (1.0 + rng.choice([-1e-6, -1e-12, 1e-12, 1e-6], 40))),
    ])
    np.testing.assert_array_equal(_step_down(rows, c)[1], ar_spectral_radii(rows) < c)


class TestPredictorFromModel:
    def test_ar1_powers(self):
        c = predictor_from_model(ArParams([0.6], 1.0), 3)
        assert c.alpha == pytest.approx([0.216])

    def test_one_step_is_phi(self):
        c = predictor_from_model(ArParams([0.5, 0.2], 1.0), 1)
        assert c.alpha == pytest.approx([0.5, 0.2])

    def test_two_step_hand_square(self):
        c = predictor_from_model(ArParams([0.5, 0.2], 1.0), 2)
        assert c.alpha == pytest.approx([0.45, 0.10])

    def test_order_zero_empty(self):
        assert predictor_from_model(ArParams([], 1.0), 4).alpha.shape == (0,)

    def test_ar1_semigroup(self):
        model = ArParams([0.83], 1.0)
        for k in range(1, 11):
            got = predictor_from_model(model, k).alpha[0]
            assert got == pytest.approx(0.83 ** k, rel=1e-14)


class TestPredictorFromAcvf:
    def test_white_noise_unpredictable(self):
        truth = AcvfSeq([1.0] + [0.0] * 8)
        for p, k in [(1, 1), (2, 3), (3, 2)]:
            assert np.max(np.abs(predictor_from_acvf(truth, p, k).alpha)) < 1e-14

    def test_ar1_two_step(self):
        truth = ar_acvf(ArParams([0.5], 1.0), 4)
        assert predictor_from_acvf(truth, 1, 2).alpha == pytest.approx([0.25])

    def test_ma1_one_step_vs_grid(self):
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 4)
        alpha = predictor_from_acvf(truth, 1, 1).alpha
        assert alpha == pytest.approx([0.4])
        # 1-d grid minimization of the population one-step error
        grid = np.linspace(-0.99, 0.99, 19801)
        err = truth[0] - 2 * grid * truth[1] + grid ** 2 * truth[0]
        assert abs(grid[np.argmin(err)] - alpha[0]) < 1e-4

    def test_insufficient_lags(self):
        with pytest.raises(InsufficientLags):
            predictor_from_acvf(AcvfSeq([1.0, 0.3]), 2, 2)


class TestDuality:
    def test_companion_vs_toeplitz_routes(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(300):
            p = int(rng.integers(1, 7))
            k = int(rng.integers(1, 11))
            model = ArParams(pacf_to_ar(rng.uniform(-0.9, 0.9, p)), 1.0)
            a = predictor_from_model(model, k).alpha
            b = predictor_from_acvf(ar_acvf(model, p + k), p, k).alpha
            scale = max(np.max(np.abs(a)), 1e-8)
            worst = max(worst, np.max(np.abs(a - b)) / scale)
        assert worst < 1e-8

    def test_optimality_first_order(self):
        # Perturbing the optimal coefficients must not reduce the population error.
        rng = np.random.default_rng(23)
        truth = arma_acvf(ArmaSpec([0.7], [0.3], 1.0), 12)
        p, k = 3, 2
        alpha = predictor_from_acvf(truth, p, k).alpha
        base = _pop_error(truth, alpha, p, k)
        for _ in range(10):
            d = rng.standard_normal(p)
            d *= 1e-3 / np.linalg.norm(d)
            assert _pop_error(truth, alpha + d, p, k) >= base - 1e-12


def _pop_error(truth, alpha, p, k):
    from scipy.linalg import toeplitz

    g = truth.gamma
    G = toeplitz(g[:p])
    return float(g[0] - 2 * alpha @ g[k: k + p] + alpha @ G @ alpha)
