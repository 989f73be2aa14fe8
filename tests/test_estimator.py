import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from armatch import (
    AcvfSeq,
    ArParams,
    ArmaSpec,
    InsufficientLags,
    SingularDesign,
    SingularToeplitz,
    TarSpec,
    TooShort,
    ar_acvf,
    ar_to_pacf,
    arma_acvf,
    empirical_q,
    empirical_q_gradient,
    fit_ideal,
    fit_match,
    fit_ols,
    levinson_solve,
    pacf_to_ar,
    population_q,
    simulate_arma,
    simulate_tar,
)

from armatch import estimator
from armatch.acvf import _pacf_to_ar_with_jac
from armatch.companion import ar_spectral_radii
from armatch.estimator import _phi_to_s
from armatch.loss import _empirical_moments, _moments_q, _population_moments, ar_filter, lag_matrix
from armatch.seeding import mix_seed, rng_from

Y4 = np.array([1.0, 0.0, 2.0, 1.0])


class TestFitOls:
    def test_hand_example(self):
        model = fit_ols(Y4, 1)
        assert model.phi == pytest.approx([0.4])

    def test_consistency_ar1(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 10_000, 77)
        model = fit_ols(y, 1)
        assert 0.45 < model.phi[0] < 0.55

    def test_constant_zero_singular(self):
        with pytest.raises(SingularDesign):
            fit_ols(np.zeros(20), 1)

    def test_too_short(self):
        with pytest.raises(TooShort) as exc:
            fit_ols(np.ones(6), 3)
        assert exc.value.min_n == 7

    def test_p0_variance(self):
        y = np.array([1.0, -1.0, 3.0])
        model = fit_ols(y, 0)
        assert model.phi.shape == (0,)
        assert model.sigma2 == pytest.approx(11.0 / 3.0)

    def test_not_projected_when_explosive(self):
        # A near-unit-root sample can give |phi| >= 1; result reported as-is.
        y = np.cumsum(np.ones(30))
        model = fit_ols(y, 1)
        assert model.phi[0] > 1.0
        assert not model.is_stationary

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 10, 30, 70])
    def test_gram_check_equals_rank_and_eigenvalue_oracle(self, p):
        # The check fit_ols made before it used _gram_ok: an SVD rank test
        # and the eigenvalue floor.  Designs run from well conditioned
        # through a column 10^k away from another (k = -1..-16 in quarter
        # steps, so some land on each side of the floor) to a zero column
        # and a zero matrix.
        def oracle(G):
            scale = np.trace(G) / p
            return not (scale <= 0.0 or np.linalg.matrix_rank(G) < p
                        or np.min(np.linalg.eigvalsh(G)) <= 1e-12 * scale)

        rng = np.random.default_rng(p)
        Gs = [np.zeros((p, p))]
        for k in [None, *np.arange(-1.0, -16.25, -0.25), "zero"]:
            X = rng.standard_normal((3 * p + 20, p))
            if k == "zero":
                X[:, -1] = 0.0
            elif k is not None and p > 1:
                X[:, -1] = X[:, 0] + 10.0**k * rng.standard_normal(X.shape[0])
            elif k is not None:
                X *= 10.0**k
            Gs.append(X.T @ X)
        G = np.array(Gs)
        ok = estimator._gram_ok(G)
        assert ok.tolist() == [oracle(g) for g in G]
        assert ok.any() and not ok.all()

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(60)
        model = fit_ols(y, 3)
        from armatch.loss import lag_matrix

        X = lag_matrix(y, 3)
        resid = y[3:] - X @ model.phi
        assert np.max(np.abs(X.T @ resid)) < 1e-9


class TestFitMatch:
    def test_hand_example(self):
        fit = fit_match(Y4, 1, 1)
        assert fit.model.phi == pytest.approx([0.4], abs=1e-6)
        assert fit.q_value == pytest.approx(
            empirical_q(Y4, ArParams([0.4], 1.0), 1), abs=1e-8
        )
        assert fit.converged

    def test_m1_matches_ols(self):
        # At m = 1 the criterion is exactly the conditional least squares
        # objective, so the two fits agree whenever OLS is stationary.
        rng = np.random.default_rng(101)
        checked = 0
        for seed in range(100):
            y = simulate_arma(
                ArmaSpec([0.75, -0.5], [], 1.0), 300, int(rng.integers(1 << 30))
            )
            ols = fit_ols(y, 2)
            if not ols.is_stationary:
                continue
            fit = fit_match(y, 2, 1)
            assert np.max(np.abs(fit.model.phi - ols.phi)) < 1e-5
            checked += 1
        assert checked >= 90

    def test_p0(self):
        y = np.array([1.0, 2.0, -1.0, 0.5])
        fit = fit_match(y, 0, 2)
        assert fit.order == 0
        assert fit.model.phi.shape == (0,)
        assert fit.q_value == pytest.approx(empirical_q(y, fit.model, 2))

    def test_stationary_by_construction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            y = rng.standard_normal(40)
            fit = fit_match(y, 3, 4)
            assert fit.model.is_stationary

    def test_multistep_differs_from_one_step(self):
        # Under ARMA(1,1) misspecification the multi-step fit typically
        # lands away from the one-step fit.
        diffs = []
        for seed in range(50):
            y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 400, 1000 + seed)
            f1 = fit_match(y, 1, 1)
            f5 = fit_match(y, 1, 5)
            diffs.append(abs(f5.model.phi[0] - f1.model.phi[0]))
        assert np.median(diffs) > 0.01

    def test_dominates_candidate_models(self):
        rng = np.random.default_rng(21)
        truth = ArParams([0.6, -0.2], 1.0)
        for seed in range(5):
            y = simulate_arma(ArmaSpec(truth.phi, [], 1.0), 120, 500 + seed)
            fit = fit_match(y, 2, 3)
            candidates = [truth.phi, fit_match(y, 2, 1).model.phi]
            candidates += [pacf_to_ar(rng.uniform(-0.9, 0.9, 2)) for _ in range(10)]
            for phi in candidates:
                q = empirical_q(y, ArParams(np.asarray(phi), 1.0), 3)
                assert fit.q_value <= q + 1e-9

    def test_sigma2_is_mean_squared_residual(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 200, 3)
        fit = fit_match(y, 1, 3)
        resid = y[1:] - fit.model.phi[0] * y[:-1]
        assert fit.model.sigma2 == pytest.approx(float(resid @ resid) / resid.shape[0])

    def test_too_short(self):
        with pytest.raises(TooShort):
            fit_match(np.ones(3), 2, 2)

    def test_deterministic(self):
        y = simulate_arma(ArmaSpec([0.4], [0.3], 1.0), 150, 17)
        a = fit_match(y, 2, 4)
        b = fit_match(y, 2, 4)
        assert a.model.phi.tolist() == b.model.phi.tolist()
        assert a.q_value == b.q_value

    @pytest.mark.parametrize("p, m", [(2, 0), (2, -1), (-1, 2)])
    def test_rejects_bad_orders(self, p, m):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 3)
        with pytest.raises(ValueError, match="must be >= "):
            fit_match(y, p, m)


class TestNonFiniteSeries:
    def test_fit_ols(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 90)
        y[10] = np.nan
        with pytest.raises(ValueError, match="series must be finite"):
            fit_ols(y, 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_fit_match(self, m):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 91)
        y[20] = np.inf
        with pytest.raises(ValueError, match="series must be finite"):
            fit_match(y, 2, m)


class TestPacfJacobian:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_step_up_and_central_differences(self, p):
        r = np.random.default_rng(p).uniform(-0.9, 0.9, p)
        phi, J = _pacf_to_ar_with_jac(r)
        np.testing.assert_array_equal(phi, pacf_to_ar(r))
        h = 1e-6
        fd = np.column_stack([
            (pacf_to_ar(r + h * e) - pacf_to_ar(r - h * e)) / (2 * h) for e in np.eye(p)
        ])
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_stacked_rows_match_step_up_and_central_differences(self, p):
        r = np.random.default_rng(100 + p).uniform(-0.95, 0.95, (7, p))
        phi, J = _pacf_to_ar_with_jac(r)
        assert phi.shape == (7, p) and J.shape == (7, p, p)
        h = 1e-6
        for i in range(7):
            np.testing.assert_array_equal(phi[i], pacf_to_ar(r[i]))
            fd = np.column_stack([
                (pacf_to_ar(r[i] + h * e) - pacf_to_ar(r[i] - h * e)) / (2 * h) for e in np.eye(p)
            ])
            np.testing.assert_allclose(J[i], fd, rtol=0, atol=1e-7)


def _bfgs_oracle_q(y, p, m):
    """Least empirical criterion over scipy BFGS runs on the moment form,
    from the OLS start and two fixed offsets of it in s."""
    moments = _empirical_moments(y, lag_matrix(y, p), p, m)

    def objective(s):
        r = np.tanh(s)
        phi, J = _pacf_to_ar_with_jac(r)
        q, g = _moments_q(*moments, phi, m, want_grad=True)
        return q, (g @ J) * (1.0 - r * r)

    s0 = _phi_to_s(fit_ols(y, p).phi)
    best = np.inf
    for s in (s0, s0 + 0.3, s0 - 0.45):
        res = scipy_minimize(objective, s, method="BFGS", jac=True, options={"gtol": 1e-8})
        best = min(best, empirical_q(y, ArParams(pacf_to_ar(np.tanh(res.x)), 1.0), m))
    return best


class TestNewtonSolver:
    @pytest.mark.parametrize("kind", ["arma", "tar"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_worse_than_scipy_bfgs_from_the_same_starts(self, kind, seed):
        if kind == "arma":
            y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 300, 40 + seed)
        else:
            y = simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), 300, 40 + seed)
        for p in (1, 2, 4, 6, 8):
            for m in (2, 5, 10):
                fit = fit_match(y, p, m)
                assert fit.converged
                assert fit.q_value <= _bfgs_oracle_q(y, p, m) * (1.0 + 1e-12), (p, m)

    @pytest.mark.parametrize("p, m", [(2, 3), (4, 5)])
    def test_trend_fit_returns_a_model(self, p, m):
        # The minimum lies on the unit-root boundary; steps in s that are
        # not clamped round tanh(s) to 1, and pacf_to_ar then raises.
        fit = fit_match(np.arange(50.0), p, m)
        assert fit.model.order == p and np.all(np.isfinite(fit.model.phi))

    @pytest.mark.parametrize("q, g, picked", [
        # Within 1e-12 relative of each other: only the largest q passes the
        # gradient test, and that converged row is chosen.
        ([1.6063727033494275, 1.606372703349427, 1.6063727033494277], [1e-6, 1e-6, 1e-12], 2),
        # No tie: the least q is chosen although it did not converge.
        ([1.6, 1.5, 1.7], [1e-12, 1e-6, 1e-12], 1),
        # 2.5e-12 relative apart, the rounding error of the moment form near
        # the unit circle: still a tie, and the converged row is chosen.
        ([51.398091390173747, 51.398091390044193, 51.5], [1e-12, 1e-6, 1e-12], 0),
    ])
    def test_row_choice_prefers_converged_only_on_a_rounding_tie(self, monkeypatch, q, g, picked):
        q, g = np.array(q), np.array(g)[:, None]
        monkeypatch.setattr(
            estimator, "_newton_terms", lambda moments, m, S: (q.copy(), g.copy(), np.ones((3, 1, 1)))
        )
        monkeypatch.setattr(estimator, "_MAX_ITER", 0)
        moments = (np.ones(2), np.zeros((2, 1)), np.ones((1, 1)))
        s, q_best, ginf, iterations, converged = estimator.minimize(moments, 2, np.zeros((3, 1)))
        assert q_best == q[picked] and ginf == g[picked, 0] and iterations == 0
        assert converged == (g[picked, 0] < 1e-8)


@pytest.mark.parametrize("p, m", [(1, 2), (3, 5), (6, 10)])
def test_grouped_minimize_equals_one_call_per_group(p, m):
    # Five series at scales 1e-100..1e100, their two start rows (OLS and
    # ideal-world) interleaved in one call, against one call per series.
    ys = [10.0 ** (100 * s - 100) * simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 200, 50 + s) for s in range(3)]
    ys += [simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), 200, 50 + s) for s in range(2)]
    moments = [_empirical_moments(y, lag_matrix(y, p), p, m) for y in ys]
    starts = [np.concatenate([_phi_to_s(fit_ols(y, p).phi)[None], estimator._ideal_starts(y[None], p, m)[1]])
              for y in ys]
    assert all(len(st) == 2 for st in starts)
    rows = np.random.default_rng(0).permutation(sum(len(st) for st in starts))
    groups = np.repeat(np.arange(len(ys)), len(starts[0]))[rows]
    stacked = tuple(np.stack(x, axis=1) for x in zip(*moments))
    S, q, ginf, iterations, converged = estimator.minimize(stacked, m, np.concatenate(starts)[rows], groups)
    for g, (mom, st) in enumerate(zip(moments, starts)):
        one = estimator.minimize(mom, m, st)
        assert q[g] == pytest.approx(one[1][0], rel=1e-12)
        assert converged[g] == one[4][0]


def _ols_row_only_q(y, p, m):
    """The empirical criterion where the solver ends from fit_match's OLS
    start row alone."""
    moments = _empirical_moments(y, lag_matrix(y, p), p, m)
    s = estimator.minimize(moments, m, _phi_to_s(fit_ols(y, p).phi)[None])[0][0]
    return empirical_q(y, ArParams(pacf_to_ar(np.tanh(s)), 1.0), m)


@pytest.mark.parametrize("k, p", [(11, 2), (8, 6), (23, 8)])
def test_ideal_start_escapes_the_ols_start_local_minimum(k, p):
    # A TAR at n = 60, m = 20, where the solve from the OLS row alone ends
    # in a local minimum 7.5%, 1.0% and 0.6% above the least q; the fit
    # with the ideal-world start reaches the BFGS oracle's q.
    y = simulate_tar(TarSpec([0.9], [-0.4, 0.3], 0.5, 2, 1.0), 60, mix_seed(777, k))
    m = 20
    fit = fit_match(y, p, m)
    assert _ols_row_only_q(y, p, m) >= 1.005 * fit.q_value
    assert fit.converged and fit.restarts == 1
    assert fit.q_value == pytest.approx(_bfgs_oracle_q(y, p, m), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tar=st.booleans(),
    n=st.integers(60, 400),
    p=st.integers(1, 8),
    m=st.integers(2, 10),
)
def test_ideal_start_can_only_help(seed, tar, n, p, m):
    # The OLS row's path does not depend on the ideal row beside it, so the
    # fit ends no higher than a solve from the OLS row alone.
    if tar:
        y = simulate_tar(TarSpec([0.9], [-0.4, 0.3], 0.5, 2, 1.0), n, seed)
    else:
        y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), n, seed)
    assert fit_match(y, p, m).q_value <= _ols_row_only_q(y, p, m) * (1.0 + 1e-12)


@pytest.mark.parametrize("p", [5, 6])
@pytest.mark.parametrize("m", [1, 4])
def test_ideal_starts_are_fit_ideal_under_the_sample_autocovariances(p, m):
    # A series gets a second start exactly where levinson_solve accepts its
    # uncentered biased sample autocovariances, and that start is fit_ideal
    # under them (at m = 1 the projected Levinson solution).  A Gaussian
    # pulse (width 20, n = 400) has a last Durbin variance of 1.1e-11
    # gamma_0 at p = 5 and 1.7e-13 gamma_0, below the floor, at p = 6.  A
    # random walk's Levinson start is root-scaled, so its solve also starts
    # from the unscaled partial autocorrelations, as fit_ideal's does: its
    # start is fit_ideal's bit for bit, and not the solve from the projected
    # row alone.
    n = 400
    t = np.arange(n)
    Y = np.array([simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), n, 5),
                  simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), n, 6),
                  np.zeros(n), np.exp(-(((t - n / 2) / 20.0) ** 2)),
                  np.cumsum(rng_from(0).standard_normal(n))])
    gamma = np.stack([(Y[:, None, : n - k] @ Y[:, k:, None])[:, 0, 0] for k in range(p + m)], axis=1) / n
    rows, S = estimator._ideal_starts(Y, p, m)
    want = []
    for i, g in enumerate(gamma):
        try:
            truth = AcvfSeq(g)
            phi0 = levinson_solve(truth, p)[0]
        except (ValueError, SingularToeplitz):
            continue
        want.append(i)
        got = pacf_to_ar(np.tanh(S[len(want) - 1]))
        expected = fit_ideal(truth, p, m)[0].phi if m > 1 else pacf_to_ar(np.tanh(_phi_to_s(phi0)))
        if i < 2:  # the pulse's start is ill-conditioned in gamma
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-7)
        elif i == 4:
            assert not np.array_equal(estimator._project_stationary(phi0), phi0)
            assert got.tobytes() == expected.tobytes()
            if m > 1:
                alone = estimator.minimize(_population_moments(g, p, m), m, _phi_to_s(phi0)[None])[0][0]
                assert S[len(want) - 1].tobytes() != alone.tobytes()
    assert rows.tolist() == want == [0, 1] + [3] * (p == 5) + [4]


@pytest.mark.parametrize("m", [2, 5, 20])
def test_fit_ideal_is_the_ideal_solve_on_one_row(m):
    # Past m = 1 fit_ideal is _ideal_solve on its truth's one row, bit for
    # bit, where the Levinson start is root-scaled (the AR(8) truth of
    # test_ar_truth_near_the_unit_circle) and where it is not.
    near = ar_acvf(ArParams(pacf_to_ar([0.343, 0.355, -0.89, -0.83, -0.632, -0.515, -0.534, -0.812]), 1.0), 8 + m)
    for truth, p, scaled in [(near, 8, True), (TestFitIdeal._sweep_truths()[0], 4, False)]:
        phi0, pacf, _ = levinson_solve(truth, p)
        assert np.array_equal(estimator._project_stationary(phi0), phi0) != scaled
        s, q = estimator._ideal_solve(truth.gamma[None], phi0[None], pacf[None], m)[:2]
        model, qstar = fit_ideal(truth, p, m)
        assert model.phi.tobytes() == pacf_to_ar(np.tanh(s[0])).tobytes()
        assert qstar == q[0]


def _explosive(n, seed):
    """An AR(1) path with phi = 1 + 6 / n: at n 60-400 and p 1-5 its OLS
    design passes the Gram check and its OLS solution is not stationary."""
    return ar_filter(np.array([1.0 + 6.0 / n]), np.random.default_rng(seed).standard_normal(n))


@pytest.mark.parametrize("m", [1, 3])
def test_singular_autocovariances_keep_the_ols_row_alone(m):
    # An all-zero series has gamma_0 = 0: it gets no ideal-world start, and
    # no 0/0 is evaluated on the way; its neighbours in a stack get theirs.
    # At m = 1 a stationary OLS solution is taken as it is, so there the
    # neighbour is explosive and runs the solver too.
    neighbour = _explosive(80, 3) if m == 1 else simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 80, 3)
    Y = np.array([neighbour, np.zeros(80)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fits = estimator._fit_match_stack(Y, 2, m)
        zero = fit_match(np.zeros(80), 2, 3)
    assert [fit.restarts for fit in fits] == [1, 0]
    assert fits[0].iterations > 0 and fits[1].converged
    assert zero.restarts == 0 and zero.converged and zero.q_value == 0.0
    assert _same_fit(fits[1], estimator._fit_match_stack(Y[1:], 2, m)[0])


def _same_fit(a, b):
    """FitResult equality field for field, bit for bit."""
    return (
        a.model.phi.tobytes() == b.model.phi.tobytes()
        and repr(a.model.sigma2) == repr(b.model.sigma2)
        and repr(a.q_value) == repr(b.q_value)
        and (a.m, a.order, a.iterations, a.restarts, a.converged) == (b.m, b.order, b.iterations, b.restarts, b.converged)
        and repr(a.grad_norm) == repr(b.grad_norm)
    )


@pytest.mark.parametrize("kind", ["tar", "arma11"])
@pytest.mark.parametrize("n", [60, 400])
def test_stacked_fit_equals_fit_match_bit_for_bit(kind, n):
    # Four series per stack, p in {1, 2, 3, 5, 8}, m in {2, 5, 10}: the
    # stacked fit gives every series the FitResult of its own fit_match
    # call, and a subset of the stack gives the same bits as the whole.
    if kind == "tar":
        Y = np.array([simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), n, 100 + s) for s in range(4)])
    else:
        Y = np.array([simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), n, 100 + s) for s in range(4)])
    for p in (1, 2, 3, 5, 8):
        for m in (2, 5, 10):
            full = estimator._fit_match_stack(Y, p, m)
            for y, fit in zip(Y, full):
                assert _same_fit(fit, fit_match(y, p, m)), (p, m)
            for rows in ([1, 2], [3, 0], [2]):
                for fit, g in zip(estimator._fit_match_stack(Y[rows], p, m), rows):
                    assert _same_fit(fit, full[g]), (p, m, rows)


def _mixed_series(kind, n, seed):
    if kind == "arma":
        return simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), n, seed)
    if kind == "tar":
        return simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), n, seed)
    if kind == "alternating":  # singular design at p >= 2
        return np.tile([1.0, -1.0], n)[:n]
    if kind == "walk":  # OLS often outside the stationary region
        return np.cumsum(np.random.default_rng(seed).standard_normal(n))
    return np.zeros(n)  # singular at every p


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.permutations(["arma", "tar", "alternating", "walk", "zero", "arma", "tar"]),
    seed=st.integers(0, 2**32 - 8),
    n=st.integers(13, 200),
    p=st.integers(1, 8),
    m=st.integers(1, 5),
)
def test_stacked_fit_is_fit_match_and_m1_gives_ols(kinds, seed, n, p, m):
    # Every row of a mixed stack is fit_match on its own series, bit for
    # bit, whichever way the row is fitted; at m = 1 a row is fit_ols's
    # solution exactly wherever that solution is stationary (n < 2p + 1
    # leaves OLS too short, and every row runs the solver).
    assume(n >= p + m)
    Y = np.array([_mixed_series(kind, n, seed + i) for i, kind in enumerate(kinds)])
    for y, fit in zip(Y, estimator._fit_match_stack(Y, p, m)):
        assert _same_fit(fit, fit_match(y, p, m))
        if m > 1:
            continue
        try:
            ols = fit_ols(y, p)
        except (SingularDesign, TooShort):
            continue
        if ols.is_stationary:
            assert fit.model.phi.tobytes() == ols.phi.tobytes()
            assert repr(fit.model.sigma2) == repr(ols.sigma2) == repr(fit.q_value)
            assert (fit.iterations, fit.restarts, fit.converged) == (0, 0, True)
            assert repr(fit.grad_norm) == repr(float(np.max(np.abs(empirical_q_gradient(y, ols, 1)))))


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.permutations(["arma", "tar", "alternating", "walk", "zero", "arma", "tar"]),
    seed=st.integers(0, 2**32 - 8),
    n=st.integers(13, 200),
    p=st.integers(1, 8),
    m=st.integers(2, 6),
    radius=st.floats(0.0, 0.999),
)
def test_stacked_fit_from_a_known_start_is_row_by_row(kinds, seed, n, p, m, radius):
    # With a known second start (a stationary AR vector, root-scaled where
    # its radius is 0.99 or more) every row of a mixed stack gets its
    # one-series fit from that start, bit for bit, and every row runs it.
    assume(n >= p + m)
    Y = np.array([_mixed_series(kind, n, seed + i) for i, kind in enumerate(kinds)])
    start = pacf_to_ar(np.random.default_rng(seed).uniform(-radius, radius, p))
    full = estimator._fit_stack(Y, lag_matrix(Y, p), m, start=start)
    assert full[2].tolist() == [1] * len(Y)
    for g, y in enumerate(Y):
        one = estimator._fit_stack(y[None], lag_matrix(y[None], p), m, start=start)
        for a, b in zip(full, one):  # phi, iterations, restarts, converged, grad_inf
            assert a[g:g + 1].tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [None, 60, 400])
def test_stacked_ols_starts_equal_per_series_path(monkeypatch, p, n):
    # Rows: TAR and ARMA series, an alternating series (singular design at
    # p >= 2), an integrated random walk, an explosive series (OLS not
    # stationary, so projected) and a zero series (singular at every p);
    # n = None is too short for OLS.  At m = 1 a series whose OLS solution
    # is stationary takes it and never reaches the solver; every other
    # series is one group of the solve, in stack order, whose first start
    # row is the s of its own OLS solution, or of zeros where fit_ols raises.
    n = n or 2 * p
    rows = [simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), n, s) for s in range(4)]
    rows += [simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), n, 7), np.tile([1.0, -1.0], n)[:n],
             np.cumsum(np.cumsum(np.random.default_rng(p).standard_normal(n))), _explosive(n, p), np.zeros(n)]
    Y = np.array(rows)
    calls = []
    real = estimator.minimize
    monkeypatch.setattr(estimator, "minimize", lambda *a: calls.append(a) or real(*a))
    fits = estimator._fit_match_stack(Y, p, 1)
    (_, _, starts, groups), = calls  # at m = 1 the ideal rows need no solve
    solved = singular = projected = 0
    for y, fit in zip(Y, fits):
        try:
            start = fit_ols(y, p).phi
        except (SingularDesign, TooShort):
            start = np.zeros(p)
            singular += 1
        else:
            if ArParams(start, 1.0).is_stationary:
                assert fit.model.phi.tobytes() == start.tobytes() and fit.iterations == 0
                continue
        projected += ar_spectral_radii(start[None])[0] >= estimator._START_RADIUS
        assert starts[solved].tobytes() == _phi_to_s(start).tobytes()
        solved += 1
    assert groups[:solved].tolist() == list(range(solved)) and groups.max() == solved - 1
    assert singular >= (len(rows) if n < 2 * p + 1 else 1 + (p >= 2))
    assert projected >= (n >= 2 * p + 1)


def test_projection_scales_every_root_to_the_projection_radius():
    # phi_j (c / rho)^j scales each companion root by c / rho, so one
    # eigvals call lands the start at radius c; a start inside
    # _START_RADIUS is kept as it is.
    rng = np.random.default_rng(5)
    c = estimator._PROJECT_RADIUS
    # Radii just inside and at or above _START_RADIUS, real and complex roots.
    edge = [np.array([x]) for x in (0.985, -0.99, 0.995)]
    edge += [np.array([2 * x * np.cos(1.0), -x * x]) for x in (0.985, 0.99, 0.995)]
    done = 0
    while done < 300:
        phi = edge.pop() if edge else rng.uniform(-3.0, 3.0, int(rng.integers(1, 13)))
        rho = ar_spectral_radii(phi[None])[0]
        if rho < estimator._START_RADIUS:
            assert estimator._project_stationary(phi).tobytes() == phi.tobytes()
            continue
        assert abs(ar_spectral_radii(estimator._project_stationary(phi)[None])[0] - c) <= 1e-12
        done += 1


def test_projection_screen_spares_eigvals(monkeypatch):
    # A start the step-down puts inside _START_RADIUS is kept without an
    # eigenvalue call; the starts outside it get one stacked call, for rho.
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or real(a))
    phi = np.array([0.75, -0.5])  # sum |phi_j| = 1.25; radius sqrt(0.5)
    assert estimator._project_stationary(phi).tobytes() == phi.tobytes()
    assert calls == []
    estimator._project_stationary(np.array([[1.5, 0.0], [0.75, -0.5], [0.0, 1.2]]))
    assert calls == [1]


def test_projection_of_a_stack_is_row_by_row():
    # The stack form, which the OLS starts use, projects each row as the
    # one-vector call does, bit for bit, and leaves its input unchanged.
    rng = np.random.default_rng(11)
    for p in range(1, 9):
        phi = rng.uniform(-2.0, 2.0, (30, p)) / p
        before = phi.copy()
        stacked = estimator._project_stationary(phi)
        assert phi.tobytes() == before.tobytes()
        assert stacked.tobytes() == np.array([estimator._project_stationary(row) for row in phi]).tobytes()


def test_phi_to_s_of_a_stack_equals_the_per_row_form():
    # One stacked step-down gives each row the s of its own projection and
    # ar_to_pacf call, bit for bit.
    rng = np.random.default_rng(12)
    for p in range(1, 11):
        phi = rng.uniform(-2.0, 2.0, (30, p)) / p
        per_row = []
        for row in phi:
            r = ar_to_pacf(estimator._project_stationary(row))
            per_row.append(np.arctanh(np.clip(r, -estimator._R_MAX, estimator._R_MAX)))
            assert _phi_to_s(row).tobytes() == per_row[-1].tobytes()
        assert _phi_to_s(phi).tobytes() == np.array(per_row).tobytes()


def test_fit_outside_the_stationary_region_is_not_converged():
    # On deterministic series the criterion's minimum sits on the unit-root
    # boundary, where the step-up from |r| within rounding of 1 can land
    # just outside the stationary region; such a fit reports
    # converged=False.  The 240 fits at m > 1 include some that land
    # outside; at m = 1 the OLS solution, often outside, must not be
    # returned as it is.
    outside = 0
    for n in (50, 80):
        t = np.arange(n, dtype=float)
        for y in (t, np.ones(n), (-1.0) ** t, t * t, 1.05 ** t):
            for p in (1, 2, 3, 5, 8, 10):
                for m in (1, 2, 5, 10, 20):
                    fit = fit_match(y, p, m)
                    outside += not fit.model.is_stationary
                    assert fit.model.is_stationary or not fit.converged, (n, p, m)
    assert outside > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 6),
    m=st.integers(2, 8),
    log_c=st.floats(-150, 150),
)
def test_fit_match_scale_equivariance(seed, p, m, log_c):
    c = 10.0 ** log_c
    y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 200, seed)
    fit = fit_match(y, p, m)
    scaled = fit_match(c * y, p, m)
    np.testing.assert_allclose(scaled.model.phi, fit.model.phi, rtol=0, atol=1e-6)
    assert scaled.q_value == pytest.approx(c * c * fit.q_value, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pacf=st.lists(st.floats(-0.95, 0.95), min_size=0, max_size=3),
    theta=st.floats(-0.9, 0.9),
    n=st.integers(60, 400),
    p=st.integers(1, 8),
    m=st.integers(1, 10),
)
# Its OLS start converges; its ideal-world start stops short at a q that
# rounding puts 2.5e-12 relative below the converged one.
@example(seed=8994809, pacf=[-0.9337709042576007, -0.95, -0.93359375], theta=-0.671875, n=90, p=8, m=4)
def test_fit_match_is_stationary_and_converged(seed, pacf, theta, n, p, m):
    y = simulate_arma(ArmaSpec(pacf_to_ar(pacf), [theta], 1.0), n, seed)
    fit = fit_match(y, p, m)
    assert fit.model.is_stationary
    assert fit.converged


class TestFitIdeal:
    def test_true_model_recovered(self):
        truth = ar_acvf(ArParams([0.5], 1.0), 4)
        model, qstar = fit_ideal(truth, 1, 3)
        assert model.phi == pytest.approx([0.5], abs=1e-6)
        # average of the 1..3-step MSEs at the true model:
        # (1 + (1 + phi^2) + (1 + phi^2 + phi^4)) / 3
        assert qstar == pytest.approx((1 + 1.25 + 1.3125) / 3, abs=1e-8)
        assert fit_ideal(truth, 1, 1)[1] == pytest.approx(1.0, abs=1e-8)

    def test_ma1_one_step(self):
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 4)
        model, qstar = fit_ideal(truth, 1, 1)
        assert model.phi == pytest.approx([0.4], abs=1e-6)
        assert qstar == pytest.approx(1.25 - 2 * 0.4 * 0.5 + 0.16 * 1.25, abs=1e-8)

    def test_ma1_two_step_grid_oracle(self):
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 4)
        model, qstar = fit_ideal(truth, 1, 2)
        # Independent grid oracle: for p = 1 the k-step predictor is phi^k,
        # so the population error is gamma0 - 2 phi^k gamma(k) + phi^{2k} gamma0.
        g = truth.gamma
        grid = np.arange(-0.999, 0.999, 1e-5)
        vals = 0.5 * (
            (g[0] - 2 * grid * g[1] + grid ** 2 * g[0])
            + (g[0] - 2 * grid ** 2 * g[2] + grid ** 4 * g[0])
        )
        best = grid[np.argmin(vals)]
        assert abs(model.phi[0] - best) < 1e-4
        assert qstar == pytest.approx(float(np.min(vals)), abs=1e-8)
        assert population_q(truth, model, 1, 2) == pytest.approx(qstar)

    def test_p0_returns_gamma0(self):
        truth = AcvfSeq([2.0, 0.5, 0.2])
        model, qstar = fit_ideal(truth, 0, 2)
        assert model.phi.shape == (0,)
        assert qstar == pytest.approx(2.0)

    def test_sigma2_is_one_step_mse(self):
        truth = arma_acvf(ArmaSpec([0.7], [0.3], 1.0), 6)
        model, _ = fit_ideal(truth, 2, 3)
        assert model.sigma2 == pytest.approx(
            population_q(truth, model, 2, 1), abs=1e-10
        )

    def test_nesting_qstar_non_increasing(self):
        truth = arma_acvf(ArmaSpec([0.6], [0.4], 1.0), 12)
        for m in (1, 3):
            prev = np.inf
            for p in range(0, 6):
                _, qstar = fit_ideal(truth, p, m)
                assert qstar <= prev + 1e-9
                prev = qstar

    @staticmethod
    def _sweep_truths():
        # The truths of the benchmark's ideal_sweep: ARMA(1,1) (phi 0.8,
        # theta -0.5) and MA(1) (theta 0.5), gamma(0..29) in closed form.
        lags = np.arange(30)
        phi, theta = 0.8, -0.5
        arma = np.empty(30)
        arma[0] = (1.0 + 2.0 * phi * theta + theta * theta) / (1.0 - phi * phi)
        arma[1:] = (1.0 + phi * theta) * (phi + theta) / (1.0 - phi * phi) * phi ** (lags[1:] - 1.0)
        ma = np.zeros(30)
        ma[:2] = (1.25, 0.5)
        return [AcvfSeq(arma), AcvfSeq(ma)]

    def test_one_step_is_levinson_without_solver(self, monkeypatch):
        # At m = 1 the minimizer is the Yule-Walker solution and the minimum
        # the recursion's last variance: both straight from levinson_solve.
        def no_solver(*args, **kwargs):
            raise AssertionError("minimize called at m = 1")

        monkeypatch.setattr(estimator, "minimize", no_solver)
        for truth in self._sweep_truths():
            for p in range(1, 11):
                phi, _, v = levinson_solve(truth, p)
                model, qstar = fit_ideal(truth, p, 1)
                assert model.phi.tobytes() == phi.tobytes()
                assert model.sigma2 == qstar == v[p]
                assert type(qstar) is float

    @pytest.mark.parametrize("m", [1, 3])
    def test_short_or_singular_truth_raises(self, m):
        with pytest.raises(InsufficientLags, match="need gamma up to lag 3, have 2"):
            fit_ideal(AcvfSeq([1.0, 0.5, 0.2]), 3, m)
        # gamma constant: Toeplitz of rank one, singular from order 1 on.
        with pytest.raises(SingularToeplitz, match="order-1 prediction-error variance"):
            fit_ideal(AcvfSeq([1.0, 1.0, 1.0, 1.0, 1.0]), 2, m)

    def test_sigma2_is_population_q_bit_for_bit(self):
        for truth in self._sweep_truths():
            for p, m in [(1, 2), (3, 5), (6, 20)]:
                model, _ = fit_ideal(truth, p, m)
                assert model.sigma2 == population_q(truth, model, p, 1)

    @pytest.mark.parametrize("p, m", [(1, 0), (0, 0), (-1, 1)])
    def test_rejects_bad_orders(self, p, m):
        truth = arma_acvf(ArmaSpec([0.5], [], 1.0), 6)
        with pytest.raises(ValueError, match="must be >= "):
            fit_ideal(truth, p, m)

    @pytest.mark.parametrize("m", [2, 5, 10, 16, 20])
    def test_ar_truth_near_the_unit_circle(self, m):
        # Every |PACF| <= 0.89, yet the spectral radius is 0.99998: the
        # Levinson start is the minimizer, and root-scaled to radius 0.98 it
        # is too far for the solver to return from (NoConvergence).  The
        # unscaled Levinson row reaches the truth.
        phi = pacf_to_ar([0.343, 0.355, -0.89, -0.83, -0.632, -0.515, -0.534, -0.812])
        assert ar_spectral_radii(phi[None])[0] > 0.9999
        model, _ = fit_ideal(ar_acvf(ArParams(phi, 1.0), 8 + m), 8, m)
        np.testing.assert_allclose(model.phi, phi, rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    pacf=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=10),
    m=st.integers(2, 20),
    sigma2=st.floats(0.1, 10.0),
)
def test_fit_ideal_returns_an_ar_truth(pacf, m, sigma2):
    # Under an AR(p) truth the k-step best linear predictor uses the last p
    # values and the AR recursion reproduces it, so the truth's own
    # coefficients minimize the population criterion at every m.
    phi = pacf_to_ar(pacf)
    model, _ = fit_ideal(ar_acvf(ArParams(phi, sigma2), len(pacf) + m), len(pacf), m)
    np.testing.assert_allclose(model.phi, phi, rtol=0, atol=1e-6)
