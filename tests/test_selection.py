import math

import numpy as np
import pytest

from armatch import (
    ArmaSpec,
    BootstrapFailed,
    DegenerateFit,
    TarSpec,
    TooShort,
    aic_baseline,
    approx_decrease,
    ar_acvf,
    arma_acvf,
    bootstrap_bias,
    fit_match,
    ideal_log_loss,
    log_loss,
    select_order,
    simulate_arma,
    simulate_tar,
)
from armatch import estimator, parallel, selection
from armatch.acvf import ArParams
from armatch.cli import main
from armatch.loss import lag_matrix
from armatch.seeding import mix_seed, rng_from, stream_integers

Y4 = np.array([1.0, 0.0, 2.0, 1.0])


class TestLogLoss:
    def test_hand_example(self):
        L, fit = log_loss(Y4, 1, 1)
        assert L == pytest.approx(math.log(1.4), abs=1e-6)
        assert fit.model.phi == pytest.approx([0.4], abs=1e-5)

    def test_p0_is_log_mean_square(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(40)
        L, _ = log_loss(y, 0, 1)
        assert L == pytest.approx(math.log(float(y @ y) / 40))

    def test_zero_series_degenerate(self):
        with pytest.raises(DegenerateFit):
            log_loss(np.zeros(50), 1, 1)


class TestIdealLogLoss:
    def test_ar1_truth_exact(self):
        truth = ar_acvf(ArParams([0.5], 1.0), 4)
        assert ideal_log_loss(truth, 1, 1) == pytest.approx(0.0, abs=1e-8)
        assert ideal_log_loss(truth, 0, 1) == pytest.approx(math.log(4 / 3))

    def test_non_increasing_in_p(self):
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 12)
        vals = [ideal_log_loss(truth, p, 1) for p in range(1, 5)]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_ma1_against_grid_oracle(self):
        # p = 1, m = 1: the ideal log-loss is log min over phi of
        # gamma0 - 2 phi gamma1 + phi^2 gamma0.
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 4)
        g = truth.gamma
        grid = np.arange(-0.999, 0.999, 1e-5)
        oracle = math.log(np.min(g[0] - 2 * grid * g[1] + grid ** 2 * g[0]))
        assert ideal_log_loss(truth, 1, 1) == pytest.approx(oracle, abs=1e-8)


class TestApproxDecrease:
    def test_embedded_truth_gives_zero(self):
        truth = ar_acvf(ArParams([0.5], 1.0), 6)
        lhs, rhs = approx_decrease(truth, 1, 1)
        assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8

    def test_slow_variation_regime(self):
        truth = arma_acvf(ArmaSpec([], [0.5], 1.0), 12)
        lhs, rhs = approx_decrease(truth, 1, 1)
        assert 0 < lhs < 0.05
        assert abs(lhs - rhs) < 0.1 * abs(rhs)

    def test_large_decrease_both_positive(self):
        truth = arma_acvf(ArmaSpec([], [0.9], 1.0), 12)
        lhs, rhs = approx_decrease(truth, 0, 1)
        assert lhs > 0.05 and rhs > 0.05


class TestBootstrapBias:
    def test_deterministic(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 120, 5)
        a = bootstrap_bias(y, 1, 1, 5, seed=42)
        b = bootstrap_bias(y, 1, 1, 5, seed=42)
        assert a == b

    def test_jobs_do_not_change_result(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 120, 6)
        a = bootstrap_bias(y, 2, 2, 8, seed=9)
        b = bootstrap_bias(y, 2, 2, 8, seed=9)
        assert a == b

    def test_seed_matters(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 120, 7)
        assert bootstrap_bias(y, 1, 1, 5, seed=1) != bootstrap_bias(
            y, 1, 1, 5, seed=2
        )

    def test_ar1_calibration_heuristic(self):
        # The classical AIC optimism for the log residual variance is
        # 2p/n; the bootstrap estimate should land within a factor ~3.
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 500, 11)
        c = 2.0 / 500
        est = bootstrap_bias(y, 1, 1, 200, seed=3)
        assert 0.3 * c < est < 3 * c

    def test_trend_in_p(self):
        # Larger models overfit more: averaged over seeds the bias
        # estimate should grow from p = 0 to p = 4.
        lo, hi = [], []
        for seed in range(12):
            y = simulate_arma(ArmaSpec([0.5], [], 1.0), 300, 2000 + seed)
            lo.append(bootstrap_bias(y, 0, 1, 30, seed=seed))
            hi.append(bootstrap_bias(y, 4, 1, 30, seed=seed))
        assert np.mean(hi) > np.mean(lo)

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            bootstrap_bias(np.ones(50) + np.arange(50) % 2, 1, 1, 0, seed=1)


def _order_law(y, p, m):
    _, fit = log_loss(y, p, m)
    return selection._bootstrap_law(y, fit, m)


def _batch(law, m, B, seed):
    """The batch's differences for replicates b = 1..B."""
    return selection._batched_diffs(law, m, seed, range(1, B + 1))


def _oracle(law, m, B, seed):
    """The oracle's differences for replicates b = 1..B, one at a time."""
    return [selection._bootstrap_replicate(law, m, seed, b) for b in range(1, B + 1)]


class TestBatchedBootstrap:
    """The m = 1 batch against the per-replicate oracle ``_bootstrap_replicate``."""

    @pytest.mark.parametrize("spec", [ArmaSpec([0.75, -0.5], [], 1.0), ArmaSpec([], [], 1.0)])
    @pytest.mark.parametrize("p", range(7))
    def test_equals_per_replicate(self, spec, p):
        y = simulate_arma(spec, 300, 60 + p)
        law = _order_law(y, p, 1)
        batched = _batch(law, 1, 40, seed=13)
        oracle = _oracle(law, 1, 40, seed=13)
        assert [d is None for d in batched] == [d is None for d in oracle]
        kept = [(a, b) for a, b in zip(batched, oracle) if b is not None]
        # The differences are differences of logs of O(1) criteria, so they
        # agree to rounding in absolute terms even when they are near zero.
        np.testing.assert_allclose(*zip(*kept), rtol=1e-12, atol=1e-14)

    def test_failed_stationarity_check_skips_the_replicate(self, monkeypatch):
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 300, 71)
        law = _order_law(y, 2, 1)
        oracle = _oracle(law, 1, 10, seed=3)
        assert selection._penalty(law, 1, 10, seed=3)[1] == 10
        _skips_one_replicate(monkeypatch, law, 1, oracle, 4, rtol=1e-12, atol=1e-14)

    def test_degenerate_criterion_skips_the_replicate(self, monkeypatch):
        # An in-sample criterion of 1e-300 or less has a finite log, yet the
        # replicate reads None.
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 300, 71)
        law = _order_law(y, 2, 1)
        real = selection._q_impl

        def one_degenerate(*args, **kwargs):
            q, grad = real(*args, **kwargs)
            q[2] = 1e-301
            return q, grad

        monkeypatch.setattr(selection, "_q_impl", one_degenerate)
        monkeypatch.setattr(selection, "_bootstrap_replicate", None)
        batched = _batch(law, 1, 10, seed=3)
        assert batched[2] is None and all(d is not None for i, d in enumerate(batched) if i != 2)

    def test_failed_gram_check_runs_the_solver(self, monkeypatch):
        # A replicate whose OLS design fails the Gram check is fitted by the
        # solver inside the batch, from zeros and its ideal-world start, as
        # fit_match fits such a series; at m = 1 the solver ends at the OLS
        # minimizer, so its difference is the oracle's within tolerance.
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 300, 74)
        law = _order_law(y, 2, 1)
        oracle = _oracle(law, 1, 10, seed=3)
        real, real_minimize = estimator._stacked_ols, estimator.minimize
        solved = []

        def one_fails(Y, X):
            phi, ok = real(Y, X)
            ok[6], phi[6] = False, 0.0
            return phi, ok

        monkeypatch.setattr(estimator, "_stacked_ols", one_fails)
        monkeypatch.setattr(estimator, "minimize", lambda *a: solved.append(a[3].max() + 1) or real_minimize(*a))
        redone = _recording_oracle(monkeypatch)
        batched = _batch(law, 1, 10, seed=3)
        assert redone == [] and solved == [1]
        assert batched[6] == pytest.approx(oracle[6], abs=1e-7)
        np.testing.assert_allclose(batched[:6] + batched[7:], oracle[:6] + oracle[7:], rtol=1e-12, atol=1e-14)

    # n = 2^31 + 1 and 3 * 2^30 + 7 reject about a half and a quarter of
    # all 32-bit halves, so most of their rows are redrawn by numpy; 2^32 - 5
    # and 2^32 - 1 are at the top of the mapped range, 2^32 and 2^40 outside it.
    N_VALUES = (1, 2, 3, 500, 537, 2**20 + 3, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5, 2**32 - 1, 2**32, 2**40)

    def test_stream_integers_reuses_one_generator(self, monkeypatch):
        # After the first call no Philox is built: one generator is reset to
        # each stream's key.  n = 64 rejects no 32-bit half, so numpy's own
        # generators are not called on either.
        want = np.stack([rng_from(9, 3, b).integers(0, 64, 50) for b in range(5)])
        stream_integers(9, 3, [0], 64, 50)
        built = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or real(*a, **k))
        got = stream_integers(9, 3, range(5), 64, 50)
        assert built == []
        assert got.tobytes() == want.tobytes()

    def test_stream_integers_equal_fresh_generators(self):
        # Each row must equal what rng_from(seed, p, b) draws, both by
        # integers and by the rng.choice of _simulate_fitted, for keys on
        # both sides of 2^63 and lengths that use a whole or half last word.
        bs = [1, 2, 3, 7, 40, 100]
        keys = []
        for seed, p in [(13, 2), (2**64 - 1, 0), (2**63, 5)]:
            keys += [mix_seed(seed, p, b) for b in bs]
            for n in self.N_VALUES:
                for L in (1, 2, 743, 744):
                    got = stream_integers(seed, p, bs, n, L)
                    want = np.stack([rng_from(seed, p, b).integers(0, n, L) for b in bs])
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (seed, p, n, L)
                    if n <= 2**20 + 3:
                        pool = np.arange(n, dtype=float)
                        chosen = [rng_from(seed, p, b).choice(pool, size=L, replace=True) for b in bs]
                        assert pool[got].tobytes() == np.stack(chosen).tobytes()
                    else:  # choice on an int draws the same indices as on a pool of that size
                        chosen = [rng_from(seed, p, b).choice(n, size=L, replace=True) for b in bs]
                        assert got.tobytes() == np.stack(chosen).tobytes()
        assert min(keys) < 2**63 <= max(keys)

    def test_bias_se_is_spread_of_differences(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 200, 72)
        res = select_order(y, 2, 1, 30, seed=4)
        for row in res.rows:
            d = np.array(_oracle(_order_law(y, row.order, 1), 1, 30, seed=4))
            assert row.bias_se == pytest.approx(np.std(d, ddof=1) / math.sqrt(30), rel=1e-9)

    def test_single_replicate_has_no_se(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 73)
        assert math.isnan(select_order(y, 1, 1, 1, seed=4).rows[1].bias_se)


def _skips_one_replicate(monkeypatch, law, m, oracle, row, **tol):
    """Make the batch's step-down reject replicate ``row`` of b = 1..B
    (B = len(oracle), seed 3): it reads None, the order's replicates used
    drop by one, no replicate is redone by ``_bootstrap_replicate``, and the
    others keep the oracle's values."""
    real = selection._step_down
    calls = []

    def one_fails(phis, c):
        r, ok = real(phis, c)
        ok[row] = False
        calls.append(c)
        return r, ok

    B = len(oracle)
    used = selection._penalty(law, m, B, seed=3)[1]
    monkeypatch.setattr(selection, "_step_down", one_fails)
    monkeypatch.setattr(selection, "_bootstrap_replicate", None)
    batched = _batch(law, m, B, seed=3)
    assert calls == [1.0] and batched[row] is None
    assert selection._penalty(law, m, B, seed=3)[1] == used - 1
    rest = [i for i in range(B) if i != row]
    np.testing.assert_allclose([batched[i] for i in rest], [oracle[i] for i in rest], **tol)


def _recording_oracle(monkeypatch):
    """Record the b of every replicate the batch redoes with the oracle."""
    oracle = selection._bootstrap_replicate
    redone = []

    def replicate(law, m, seed, b):
        redone.append(b)
        return oracle(law, m, seed, b)

    monkeypatch.setattr(selection, "_bootstrap_replicate", replicate)
    return redone


class TestMultistepBatch:
    """The m > 1 batch against the per-replicate oracle ``_bootstrap_replicate``."""

    @pytest.mark.parametrize("m", [2, 5, 10])
    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("truth", ["arma", "tar"])
    def test_equals_per_replicate(self, truth, p, m):
        if truth == "arma":
            y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 300, 90 + p)
        else:
            y = simulate_tar(TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0), 300, 90 + p)
        law = _order_law(y, p, m)
        batched = _batch(law, m, 12, seed=17)
        oracle = _oracle(law, m, 12, seed=17)
        assert [d is None for d in batched] == [d is None for d in oracle]
        kept = [(a, b) for a, b in zip(batched, oracle) if b is not None]
        # The batch's moments differ from the oracle's by rounding, so both
        # fits stop within the solver's tolerance of the same minimum.
        np.testing.assert_allclose(*zip(*kept), rtol=0, atol=1e-7)

    def test_fits_are_the_one_series_fit_on_the_batch_series(self, monkeypatch):
        # Every replicate's fit is the one-series stacked fit of its series
        # from the same two starts, its OLS solution and the fitted model,
        # bit for bit, including a replicate whose OLS design fails the Gram
        # check: it starts from zeros inside the batch, as it does alone.
        y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 300, 74)
        law = _order_law(y, 2, 3)
        fitted = law[0].phi
        stacks = []
        real_stack = selection._fit_stack

        def recording(Y, *args, **kwargs):
            stacks.append((Y.copy(), kwargs["start"], real_stack(Y, *args, **kwargs)))
            return stacks[-1][2]

        monkeypatch.setattr(selection, "_fit_stack", recording)
        _batch(law, 3, 10, seed=3)
        singular = stacks[0][0][6, :3]
        real_ols = estimator._stacked_ols
        failed = []

        def singular_row(Y, X):
            phi, ok = real_ols(Y, X)
            hit = np.all(Y[:, :3] == singular, axis=1)
            failed.append(int(np.sum(hit)))
            ok &= ~hit
            phi[hit] = 0.0
            return phi, ok

        monkeypatch.setattr(estimator, "_stacked_ols", singular_row)
        redone = _recording_oracle(monkeypatch)
        batched = _batch(law, 3, 10, seed=3)
        assert redone == [] and np.all(np.isfinite(batched))
        Y, start, (phi, iterations, restarts, converged, grad_inf) = stacks[1]
        assert start is fitted
        for b, y_b in enumerate(Y):
            one = estimator._fit_stack(y_b[None], lag_matrix(y_b[None], 2), 3, start=start)
            assert phi[b].tobytes() == one[0][0].tobytes()
            assert (iterations[b], restarts[b], converged[b]) == (one[1][0], one[2][0], one[3][0])
            assert repr(float(grad_inf[b])) == repr(float(one[4][0]))
        assert restarts.tolist() == [1] * 10  # every replicate gets the known start
        assert failed == [1] + [0] * 6 + [1] + [0] * 3  # the batch, then the one-series fits of rows 0..9
        assert phi[6].tobytes() != stacks[0][2][0][6].tobytes()

    def test_known_start_replaces_the_ideal_world_solve(self, monkeypatch):
        # Past m = 1 the bootstrap world is known (the fitted AR model), so
        # no replicate runs _ideal_starts, and each order's refits are one
        # minimize call.
        y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 300, 74)
        law = _order_law(y, 3, 5)
        want = _batch(law, 5, 12, seed=3)

        def no_ideal_starts(*args):
            raise AssertionError("_ideal_starts ran")

        calls = []
        real_minimize = estimator.minimize
        monkeypatch.setattr(estimator, "_ideal_starts", no_ideal_starts)
        monkeypatch.setattr(estimator, "minimize", lambda *a: calls.append(a[2].shape) or real_minimize(*a))
        assert _batch(law, 5, 12, seed=3) == want
        assert calls == [(24, 3)]  # the OLS and the known start of all 12 replicates

    def test_projected_start_stays_in_batch(self, monkeypatch):
        # Near a unit root many bootstrap OLS starts have radius 0.99 or
        # more; fit_match projects them, and so does the batch.
        y = simulate_arma(ArmaSpec([0.995], [], 1.0), 300, 79)
        law = _order_law(y, 1, 3)
        oracle = _oracle(law, 3, 12, seed=3)
        real = estimator._project_stationary
        projected = []

        def recording(phi):  # one start or the stack of a batch's OLS starts
            radii = estimator.ar_spectral_radii(np.atleast_2d(phi))
            projected.extend((radii >= estimator._START_RADIUS).tolist())
            return real(phi)

        monkeypatch.setattr(estimator, "_project_stationary", recording)
        redone = _recording_oracle(monkeypatch)
        batched = _batch(law, 3, 12, seed=3)
        assert redone == [] and sum(projected) >= 2
        np.testing.assert_allclose(batched, oracle, rtol=0, atol=1e-7)

    def test_failed_stationarity_check_skips_the_replicate(self, monkeypatch):
        y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 300, 75)
        law = _order_law(y, 3, 4)
        oracle = _oracle(law, 4, 10, seed=3)
        assert selection._penalty(law, 4, 10, seed=3)[1] == 10
        _skips_one_replicate(monkeypatch, law, 4, oracle, 4, rtol=0, atol=1e-7)


@pytest.mark.parametrize("y, m", [
    (np.arange(50.0) ** 2, 1), (np.arange(80.0) ** 2, 5), (np.arange(80.0), 2), (1.05 ** np.arange(80.0), 1),
])
def test_unit_root_replicates_are_skipped_not_refitted(monkeypatch, y, m):
    # Deterministic series whose fitted models sit near the unit circle: a
    # replicate whose model fails the step-down reads None and counts
    # against the 20% rule, and the selection finishes.
    monkeypatch.setattr(selection, "_bootstrap_replicate", None)
    res = select_order(y, 6, m, 20, seed=7)
    assert all(16 <= row.replicates_used <= 20 for row in res.rows)
    assert any(row.replicates_used < 20 for row in res.rows)


class TestOrderZeroPenalty:
    """At p = 0 and m = 1 every replicate difference is log gamma_hat(0)."""

    def test_closed_form_equals_replicate_mean(self, monkeypatch):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 200, 76)
        law = _order_law(y, 0, 1)
        diffs = _oracle(law, 1, 40, seed=6)
        control = selection._control_variate_mean(law[1], law[3])
        monkeypatch.setattr(selection, "_batched_diffs", None)  # no draws
        bias, used, se = selection._penalty(law, 1, 40, seed=6)
        assert used == 40 and se == 0.0
        assert abs(bias - (np.mean(diffs) - control)) <= 1e-15

    def test_degenerate_pool_keeps_the_draws(self, monkeypatch):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 200, 77)
        law = _order_law(y, 0, 1)
        pool = law[1].copy()
        pool[0] = 0.0  # a draw of this residual alone would be degenerate
        law = (law[0], pool, *law[2:])
        real = selection._batched_diffs
        batches = []

        def recording(law, m, seed, bs):
            batches.append(len(bs))
            return real(law, m, seed, bs)

        monkeypatch.setattr(selection, "_batched_diffs", recording)
        bias, used, se = selection._penalty(law, 1, 20, seed=6)
        diffs = _oracle(law, 1, 20, seed=6)
        control = selection._control_variate_mean(pool, law[3])
        assert batches == [20] and used == 20
        assert bias == pytest.approx(np.mean(diffs) - control, abs=1e-14)

    def test_multistep_needs_no_solver(self, monkeypatch):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 200, 78)
        law = _order_law(y, 0, 4)
        oracle = _oracle(law, 4, 15, seed=6)
        monkeypatch.setattr(selection, "_fit_stack", None)
        monkeypatch.setattr(estimator, "minimize", None)
        monkeypatch.setattr(selection, "_bootstrap_replicate", None)
        np.testing.assert_allclose(_batch(law, 4, 15, seed=6), oracle, rtol=0, atol=1e-14)


class TestSelectOrder:
    def test_shape_and_criterion_identity(self):
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 200, 31)
        res = select_order(y, 3, 1, 10, seed=5)
        assert [r.order for r in res.rows] == [0, 1, 2, 3]
        for r in res.rows:
            assert r.criterion == r.log_loss + r.bias_estimate
        crit = [r.criterion for r in res.rows]
        assert res.chosen_p == int(np.argmin(crit))

    def test_too_short_reports_feasible_max(self):
        with pytest.raises(TooShort) as exc:
            select_order(np.ones(10), 8, 3, 5, seed=1)
        assert exc.value.max_feasible_order == 4

    def test_deterministic(self):
        y = simulate_arma(ArmaSpec([0.6], [], 1.0), 150, 41)
        a = select_order(y, 2, 1, 10, seed=8)
        b = select_order(y, 2, 1, 10, seed=8)
        assert a == b

    def test_rows_equal_bootstrap_bias(self):
        y = simulate_arma(ArmaSpec([0.8], [-0.5], 1.0), 120, 42)
        res = select_order(y, 2, 3, 6, seed=11)
        for row in res.rows:
            assert row.bias_estimate == bootstrap_bias(y, row.order, 3, 6, seed=11)

    def test_fits_each_order_once_at_m1(self, monkeypatch):
        calls = []
        real = selection.fit_match

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(selection, "fit_match", counting)
        monkeypatch.setattr(selection, "_bootstrap_replicate", None)  # no fallback
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 300, 43)
        select_order(y, 4, 1, 20, seed=2)
        assert calls == [0, 1, 2, 3, 4]

    def test_a_failing_order_ends_the_pass(self, monkeypatch, tmp_path, capsys):
        # Each order is fitted and scored before the next is fitted: order
        # 1's replicates all read None, so order 2 is never fitted.  At
        # m = 1 order 0 takes the closed form and draws nothing.
        calls = []
        real = selection.fit_match

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(selection, "fit_match", counting)
        monkeypatch.setattr(selection, "_batched_diffs", lambda *args: [None] * 20)
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 200, 44)
        with pytest.raises(BootstrapFailed, match="20/20 bootstrap replicates degenerate"):
            select_order(y, 3, 1, 20, seed=2)
        assert calls == [0, 1]
        series = tmp_path / "y.txt"
        series.write_text("".join(repr(float(v)) + "\n" for v in y))
        code = main(["select", "--input", str(series), "--max-order", "3", "--steps", "1",
                     "--bootstrap", "20", "--seed", "2", "--output", str(tmp_path / "sel.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "sel.json").exists()

    def test_recovers_strong_ar2(self):
        y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 500, 55)
        res = select_order(y, 4, 1, 50, seed=7)
        assert res.chosen_p == 2


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bootstrap_bias(self, bad):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 80)
        y[50] = bad
        with pytest.raises(ValueError, match="series must be finite"):
            bootstrap_bias(y, 1, 1, 5, seed=1)

    def test_select_order(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 81)
        y[3] = np.nan
        with pytest.raises(ValueError, match="series must be finite"):
            select_order(y, 2, 1, 5, seed=1)

    def test_aic_baseline(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 82)
        y[-1] = -np.inf
        with pytest.raises(ValueError, match="series must be finite"):
            aic_baseline(y, 2)


class TestParallelMap:
    """The pool size is min(jobs, CPU count, tasks); no process is started."""

    @pytest.mark.parametrize(
        "jobs, cpus, items, workers",
        [(8, 2, 100, 2), (64, 4, 10, 4), (64, 64, 3, 3), (3, None, 10, None), (2, 1, 10, None)],
    )
    def test_pool_size_is_capped(self, monkeypatch, jobs, cpus, items, workers):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, it, chunksize=1):
                return map(fn, it)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        out = parallel.parallel_map(abs, range(-items, 0), jobs)
        assert out == list(range(items, 0, -1))
        assert started == ([] if workers is None else [workers])


class TestAicBaseline:
    def test_ar2_modal_choice(self):
        chosen = [
            aic_baseline(
                simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 500, 3000 + s), 6
            )[0]
            for s in range(20)
        ]
        assert np.bincount(chosen).argmax() == 2

    def test_white_noise_prefers_small(self):
        chosen = [
            aic_baseline(simulate_arma(ArmaSpec([], [], 1.0), 500, 4000 + s), 5)[0]
            for s in range(20)
        ]
        assert np.mean(np.array(chosen) <= 1) >= 0.6

    def test_too_short(self):
        with pytest.raises(TooShort):
            aic_baseline(np.ones(5), 4)

    def test_values_length(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 100, 1)
        p, vals = aic_baseline(y, 3)
        assert vals.shape == (4,)
        assert p == int(np.argmin(vals))

    def test_no_finite_value_raises(self):
        # A zero series: order 0 is degenerate, every lagged design singular.
        with pytest.raises(DegenerateFit, match="no order has a finite AIC"):
            aic_baseline(np.zeros(10), 2)
