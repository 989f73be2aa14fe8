import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from armatch import (
    AcvfSeq,
    ArParams,
    ArmaSpec,
    TooShort,
    arma_acvf,
    empirical_q,
    empirical_q_gradient,
    pacf_to_ar,
    population_q,
    simulate_arma,
)
from armatch.loss import (
    _FILTER_BLOCK,
    _adjoint_grad,
    _empirical_moments,
    _moments_q,
    _population_moments,
    _predictors,
    _q_impl,
    ar_filter,
    lag_matrix,
)

Y4 = np.array([1.0, 0.0, 2.0, 1.0])


class TestEmpiricalQ:
    def test_hand_m1(self):
        assert empirical_q(Y4, ArParams([0.5], 1.0), 1) == pytest.approx(4.25 / 3)

    def test_hand_m2(self):
        expected = (4.25 / 3 + 2.03125) / 2
        assert empirical_q(Y4, ArParams([0.5], 1.0), 2) == pytest.approx(expected)

    def test_p0_is_mean_square(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        assert empirical_q(y, ArParams([], 1.0), 1) == pytest.approx(float(y @ y) / 50)

    def test_p0_multi_horizon_term_counts(self):
        y = np.arange(1.0, 7.0)
        # k-th term averages y_k..y_n over n - k + 1 values
        expected = 0.5 * (
            float(y @ y) / 6 + float(y[1:] @ y[1:]) / 5
        )
        assert empirical_q(y, ArParams([], 1.0), 2) == pytest.approx(expected)

    def test_too_short_reports_minimum(self):
        with pytest.raises(TooShort) as exc:
            empirical_q(np.ones(4), ArParams([0.1, 0.2, 0.3], 1.0), 2)
        assert exc.value.min_n == 5

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.standard_normal(30)
            model = ArParams(pacf_to_ar(rng.uniform(-0.9, 0.9, 2)), 1.0)
            assert empirical_q(y, model, 3) >= 0.0


class TestGradient:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        y = np.random.default_rng(73).standard_normal(30)
        y[7] = bad
        with pytest.raises(ValueError, match="series must be finite"):
            empirical_q(y, ArParams([0.5], 1.0), 2)
        with pytest.raises(ValueError, match="series must be finite"):
            empirical_q_gradient(y, ArParams([0.5], 1.0), 2)

    def test_hand_value(self):
        # (2/3) sum (phi y_t - y_{t+1}) y_t at phi = 0.5 equals 1/3
        g = empirical_q_gradient(Y4, ArParams([0.5], 1.0), 1)
        assert g == pytest.approx([1 / 3])

    def test_zero_at_ols_solution(self):
        g = empirical_q_gradient(Y4, ArParams([0.4], 1.0), 1)
        assert abs(g[0]) < 1e-12

    def test_matches_central_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            n = int(rng.integers(p + m + 5, 60))
            y = rng.standard_normal(n)
            phi = pacf_to_ar(rng.uniform(-0.85, 0.85, p))
            model = ArParams(phi, 1.0)
            g = empirical_q_gradient(y, model, m)
            fd = np.empty(p)
            for j in range(p):
                h = 1e-6 * max(1.0, abs(phi[j]))
                e = np.zeros(p)
                e[j] = h
                fd[j] = (
                    empirical_q(y, ArParams(phi + e, 1.0), m)
                    - empirical_q(y, ArParams(phi - e, 1.0), m)
                ) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(g - fd)) / scale < 1e-5


def _q_oracle(y, p, phi, m):
    """The one-series residual loop (value and gradient) as it was before
    the kernel took stacks; p = 0 as empirical_q's own loop was."""
    n = y.shape[0]
    if p == 0:
        return sum(float(y[k - 1:] @ y[k - 1:]) / (n - k + 1) for k in range(1, m + 1)) / m, None
    X = lag_matrix(y, p)
    alpha = _predictors(phi, m)
    total = 0.0
    W = np.empty((m, p))
    for k in range(1, m + 1):
        rows = n - k - p + 1
        resid = y[p + k - 1:] - X[:rows] @ alpha[k]
        total += float(resid @ resid) / rows
        W[k - 1] = (-2.0 / (m * rows)) * (X[:rows].T @ resid)
    return total / m, _adjoint_grad(phi, alpha, W)


class TestStackedResidualKernel:
    def test_stack_rows_equal_one_series_calls(self):
        # Values and gradients of every row, bit for bit, against the
        # one-series call on that row's series, and that call against the
        # one-series loop.
        rng = np.random.default_rng(67)
        for _ in range(300):
            p = int(rng.integers(0, 11))
            m = int(rng.integers(1, 21))
            B = int(rng.integers(1, 9))
            n = int(rng.integers(p + m + 1, 120))
            Y = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((B, n))
            phi = np.array([pacf_to_ar(rng.uniform(-0.95, 0.95, p)) for _ in range(B)]).reshape(B, p)
            want_grad = p > 0
            q, g = _q_impl(Y, lag_matrix(Y, p), phi, m, want_grad)
            assert q.shape == (B,)
            for b in range(B):
                q1, g1 = _q_impl(Y[b], lag_matrix(Y[b], p), phi[b], m, want_grad)
                q0, g0 = _q_oracle(Y[b], p, phi[b], m)
                assert isinstance(q1, float) and q1 == q[b] == q0, (p, m, B)
                if want_grad:
                    assert g1.tobytes() == g[b].tobytes() == g0.tobytes(), (p, m, B)


class TestPopulationQ:
    def test_white_noise_truth(self):
        truth = AcvfSeq([1.0, 0.0, 0.0])
        assert population_q(truth, ArParams([0.5], 1.0), 1, 1) == pytest.approx(1.25)

    def test_true_model_attains_innovation_variance(self):
        from armatch import ar_acvf

        truth = ar_acvf(ArParams([0.5], 1.0), 3)
        assert population_q(truth, ArParams([0.5], 1.0), 1, 1) == pytest.approx(1.0)

    def test_p0_returns_gamma0(self):
        truth = AcvfSeq([2.5, 0.3, 0.1])
        assert population_q(truth, ArParams([], 1.0), 0, 2) == pytest.approx(2.5)

    def test_against_monte_carlo(self):
        # Oracle: average the squared 1..3-step prediction errors over a
        # 10^6-observation simulated path.
        truth = ArmaSpec([0.8], [-0.5], 1.0)
        model = ArParams([0.3], 1.0)
        q = population_q(arma_acvf(truth, 4), model, 1, 3)
        y = simulate_arma(truth, 1_000_000, 123)
        errs = []
        per_term_var = []
        for k in (1, 2, 3):
            e = y[k:] - 0.3 ** k * y[:-k]
            errs.append(float(np.mean(e ** 2)))
            per_term_var.append(np.var(e ** 2) / e.shape[0])
        mc = float(np.mean(errs))
        se = float(np.sqrt(np.sum(per_term_var))) / 3
        assert abs(q - mc) < 3 * max(se, 1e-6) * 3  # generous: terms are correlated

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(37)
        truth = ArmaSpec([0.6], [0.25], 1.0)
        y = simulate_arma(truth, 20_000, 911)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            model = ArParams(pacf_to_ar(rng.uniform(-0.8, 0.8, p)), 1.0)
            emp = empirical_q(y, model, m)
            pop = population_q(arma_acvf(truth, p + m), model, p, m)
            assert abs(emp - pop) < 0.05 * pop

    def test_mmse_lower_bound(self):
        rng = np.random.default_rng(41)
        truth = arma_acvf(ArmaSpec([0.7, -0.2], [0.4], 1.0), 12)
        g = truth.gamma
        for _ in range(30):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            model = ArParams(pacf_to_ar(rng.uniform(-0.9, 0.9, p)), 1.0)
            G = toeplitz(g[:p])
            floor = np.mean(
                [
                    g[0] - g[k: k + p] @ np.linalg.solve(G, g[k: k + p])
                    for k in range(1, m + 1)
                ]
            )
            assert population_q(truth, model, p, m) >= floor - 1e-12


def _predictor_oracle(phi, k):
    """First row of the k-th power of the companion matrix, built directly."""
    p = phi.shape[0]
    C = np.zeros((p, p))
    C[0] = phi
    C[np.arange(1, p), np.arange(p - 1)] = 1.0
    return np.linalg.matrix_power(C, k)[0]


class TestMomentKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        phi=st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0), min_size=1, max_size=8),
        m=st.integers(0, 24),
    )
    def test_one_vector_table_equals_stack_row(self, phi, m):
        phi = np.array(phi)
        stacked = _predictors(np.stack([phi, phi[::-1]]), m)[:, 0]
        assert _predictors(phi, m).tobytes() == stacked.tobytes()

    def test_empirical_moments_match_residual_path(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, 21))
            n = int(rng.integers(p + m + 5, 200))
            y = rng.standard_normal(n)
            phi = pacf_to_ar(rng.uniform(-0.9, 0.9, p))
            model = ArParams(phi, 1.0)
            moments = _empirical_moments(y, lag_matrix(y, p), p, m)
            q, g = _moments_q(*moments, phi, m, want_grad=True)
            ref = empirical_q(y, model, m)
            assert abs(q - ref) <= 1e-10 * ref
            g_ref = empirical_q_gradient(y, model, m)
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * max(np.max(np.abs(g_ref)), ref)

    def test_population_matches_toeplitz_oracle(self):
        rng = np.random.default_rng(59)
        truth = arma_acvf(ArmaSpec([0.7, -0.2], [0.4], 1.0), 30)
        g = truth.gamma
        for _ in range(100):
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, 21))
            phi = pacf_to_ar(rng.uniform(-0.9, 0.9, p))
            Gamma = toeplitz(g[:p])
            oracle = np.mean([
                g[0] - 2 * a @ g[k: k + p] + a @ Gamma @ a
                for k in range(1, m + 1)
                for a in [_predictor_oracle(phi, k)]
            ])
            q = population_q(truth, ArParams(phi, 1.0), p, m)
            assert abs(q - oracle) <= 1e-10 * oracle

    def test_population_gradient_matches_central_differences(self):
        rng = np.random.default_rng(61)
        truth = arma_acvf(ArmaSpec([0.8], [-0.5], 1.0), 30)
        for _ in range(100):
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, 21))
            phi = pacf_to_ar(rng.uniform(-0.8, 0.8, p))
            moments = _population_moments(truth.gamma, p, m)
            g = _moments_q(*moments, phi, m, want_grad=True)[1]
            fd = np.empty(p)
            for j in range(p):
                h = 1e-6 * max(1.0, abs(phi[j]))
                e = np.zeros(p)
                e[j] = h
                fd[j] = (
                    _moments_q(*moments, phi + e, m, want_grad=False)[0]
                    - _moments_q(*moments, phi - e, m, want_grad=False)[0]
                ) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(g - fd)) / scale < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 6),
    m=st.integers(1, 8),
    scale=st.floats(1e-3, 1e3),
)
def test_empirical_q_scale_equivariance(seed, p, m, scale):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(60)
    model = ArParams(pacf_to_ar(rng.uniform(-0.9, 0.9, p)), 1.0)
    q = empirical_q(y, model, m)
    assert empirical_q(scale * y, model, m) == pytest.approx(scale ** 2 * q, rel=1e-10)
    g = empirical_q_gradient(y, model, m)
    g_scaled = empirical_q_gradient(scale * y, model, m)
    tol = 1e-10 * scale ** 2 * max(np.max(np.abs(g)), q)
    assert np.max(np.abs(g_scaled - scale ** 2 * g)) <= tol


def _filter_tol(phi, n, floor):
    """``floor`` (relative to max|y|), or the conditioning term when larger.

    Any two float64 evaluations of the recursion differ by more than 1e-12
    relative once the filter is badly conditioned: lfilter itself is 1e-9
    off an extended-precision recursion at AR(10) with every PACF value at
    +-0.995.  ``ar_filter`` stays within 0.7 u G^2 of lfilter over such
    filters (G = sum_{k<n} |h_k|, u = 2.2e-16); 1e-15 G^2 leaves a margin,
    and for a filter with G < 30 the floor is the binding term."""
    h = lfilter([1.0], np.r_[1.0, -phi], np.eye(1, n)[0])
    return max(floor, 1e-15 * np.sum(np.abs(h)) ** 2)


class TestArFilter:
    # Lengths around block boundaries, besides arbitrary ones.
    EDGES = [k * _FILTER_BLOCK + d for k in (1, 2, 5) for d in (-1, 0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        pacf=st.lists(st.floats(-0.995, 0.995), min_size=0, max_size=10),
        n=st.one_of(st.integers(1, 700), st.sampled_from(EDGES)),
        rows=st.sampled_from([None, 1, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lfilter(self, pacf, n, rows, seed):
        phi = pacf_to_ar(pacf)
        eps = np.random.default_rng(seed).standard_normal(n if rows is None else (rows, n))
        ref = lfilter([1.0], np.r_[1.0, -phi], eps, axis=-1)
        got = ar_filter(phi, eps)
        assert got.shape == eps.shape
        assert np.max(np.abs(got - ref)) <= _filter_tol(phi, n, 1e-12) * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(
        pacf=st.lists(st.floats(-0.995, 0.995), min_size=1, max_size=10),
        n=st.one_of(st.integers(1, 700), st.sampled_from(EDGES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_match_one_series(self, pacf, n, seed):
        phi = pacf_to_ar(pacf)
        eps = np.random.default_rng(seed).standard_normal((5, n))
        stack = ar_filter(phi, eps)
        tol = _filter_tol(phi, n, 1e-13)
        for b in range(eps.shape[0]):
            row = ar_filter(phi, eps[b])
            assert np.max(np.abs(stack[b] - row)) <= tol * np.max(np.abs(row))

    def test_hand_recursion(self):
        # y0 = 1, y1 = 0.5, y2 = 0.5 * 0.5 - 0.25 * 1 + 2 = 2.
        y = ar_filter(np.array([0.5, -0.25]), np.array([1.0, 0.0, 2.0]))
        assert y.tolist() == [1.0, 0.5, 2.0]

    def test_order_beyond_block(self):
        p = 2 * _FILTER_BLOCK + 3
        phi = pacf_to_ar(np.random.default_rng(1).uniform(-0.5, 0.5, p))
        eps = np.random.default_rng(2).standard_normal((2, 300))
        ref = lfilter([1.0], np.r_[1.0, -phi], eps, axis=-1)
        assert np.max(np.abs(ar_filter(phi, eps) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fresh_output_and_input_untouched(self):
        eps = np.arange(40.0)
        for phi in (np.zeros(0), np.array([0.3])):
            y = ar_filter(phi, eps)
            assert not np.shares_memory(y, eps)
        assert eps.tolist() == list(range(40))
