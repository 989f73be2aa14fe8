import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import armatch.estimator as estimator
import armatch.parallel as parallel
import armatch.simulation as simulation
from armatch import (
    ArMatchError,
    ArmaSpec,
    EstimatorSpec,
    ExperimentPlan,
    NonStationary,
    SelectionSettings,
    TarSpec,
    ar_acvf,
    arma_acvf,
    run_experiment,
    simulate_arma,
    simulate_tar,
)
from armatch.acvf import ArParams, pacf_to_ar
from armatch.seeding import rng_from


def simulate_tar_numpy(spec, n, seed, burnin=500, dist="gaussian", t_df=5.0):
    """The numpy loop ``simulate_tar`` used to run, kept as the byte oracle:
    a reversed (negative-stride) lag window and a length-p ``@`` per step."""
    p = max(spec.phi_low.shape[0], spec.phi_high.shape[0], spec.delay)
    rng = rng_from(seed)
    eps = simulation._innovations(rng, burnin + n, spec.sigma2, dist, t_df)
    lo = np.concatenate([spec.phi_low, np.zeros(p - spec.phi_low.shape[0])])
    hi = np.concatenate([spec.phi_high, np.zeros(p - spec.phi_high.shape[0])])
    buf = np.zeros(burnin + n + p)
    for t in range(burnin + n):
        i = t + p
        window = buf[i - p: i][::-1]
        phi = lo if buf[i - spec.delay] <= spec.threshold else hi
        buf[i] = phi @ window + eps[t]
    return buf[p + burnin:]


EXPLOSIVE_TAR = TarSpec([1.18558561, -0.54277853], [-1.05493674, -0.4191051], 0.0, 2, 1.0)


def _oracle_rows(plan):
    """The report rows one _run_replicate call per replicate gives."""
    gamma = simulation._truth_gamma(plan)
    return [row for r in range(plan.replicates) for row in simulation._run_replicate((plan, r, gamma))]


class TestSimulateArma:
    def test_deterministic(self):
        spec = ArmaSpec([0.5], [0.3], 1.0)
        a = simulate_arma(spec, 100, 7)
        b = simulate_arma(spec, 100, 7)
        assert np.array_equal(a, b)

    def test_seed_changes_path(self):
        spec = ArmaSpec([0.5], [], 1.0)
        assert not np.array_equal(simulate_arma(spec, 50, 1), simulate_arma(spec, 50, 2))

    def test_single_observation(self):
        assert simulate_arma(ArmaSpec([0.5], [], 1.0), 1, 3).shape == (1,)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationary):
            simulate_arma(ArmaSpec([1.1], [], 1.0), 10, 1)

    def test_lag1_autocovariance(self):
        y = simulate_arma(ArmaSpec([0.5], [], 1.0), 50_000, 19)
        g1 = float(np.mean(y[1:] * y[:-1]))
        # gamma(1) = 2/3; MC standard error of the lag-1 product mean
        se = float(np.std(y[1:] * y[:-1])) / np.sqrt(y.shape[0] - 1)
        assert abs(g1 - 2 / 3) < 3 * se

    def test_sample_acvf_matches_theory_many_specs(self):
        rng = np.random.default_rng(23)
        specs = [
            ArmaSpec([0.8], [-0.5], 1.0),
            ArmaSpec([], [0.7], 2.0),
            ArmaSpec([0.6, -0.3], [0.2], 0.5),
            ArmaSpec([0.3], [], 1.5),
            ArmaSpec([], [], 1.0),
        ]
        n = 100_000
        for i, spec in enumerate(specs):
            y = simulate_arma(spec, n, 900 + i)
            g = arma_acvf(spec, 5).gamma
            for k in range(6):
                prod = y[k:] * y[: n - k] if k else y * y
                se = float(np.std(prod)) / np.sqrt(prod.shape[0])
                assert abs(float(np.mean(prod)) - g[k]) < 4 * max(se, 1e-12)

    def test_student_t_variance_scaled(self):
        y = simulate_arma(ArmaSpec([], [], 2.0), 200_000, 5, dist="t", t_df=6.0)
        assert abs(float(np.var(y)) - 2.0) < 0.1

    @pytest.mark.parametrize("ar, ma", [
        ([0.5], [0.3]),
        ([0.8], [-0.5]),
        ([0.6, -0.3, 0.1], [0.4, 0.2]),
        ([0.995], [0.9]),
        ([], [0.7, -0.2]),
        ([1.8, -0.9], []),
    ])
    def test_matches_lfilter_on_same_innovations(self, ar, ma):
        spec = ArmaSpec(ar, ma, 2.0)
        n, burnin, seed = 700, 50, 31
        warm = burnin + max(len(ar), len(ma))
        eps = simulation._innovations(rng_from(seed), warm + n, 2.0)
        ref = lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar, dtype=float)], eps)[warm:]
        y = simulate_arma(spec, n, seed, burnin=burnin)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSimulateTar:
    def test_regimes_collapse_to_ar(self):
        spec = TarSpec([0.5], [0.5], 0.0, 1, 1.0)
        y = simulate_tar(spec, 200, 13, burnin=500)
        # Same innovations driven through the common AR(1) recursion.
        from armatch.seeding import rng_from

        eps = rng_from(13).standard_normal(700)
        ref = np.zeros(701)
        for t in range(700):
            ref[t + 1] = 0.5 * ref[t] + eps[t]
        assert np.allclose(y, ref[501:], atol=1e-12)

    def test_deterministic(self):
        spec = TarSpec([0.5, -0.2], [-0.3], 0.5, 2, 1.0)
        assert np.array_equal(simulate_tar(spec, 80, 3), simulate_tar(spec, 80, 3))

    def test_no_drift(self):
        # Loose stationarity sanity: asymmetric regimes give a nonzero
        # stationary mean, but the two half-sample means must agree and
        # the level stays bounded.
        spec = TarSpec([0.6], [-0.4], 0.0, 1, 1.0)
        y = simulate_tar(spec, 100_000, 8)
        half = y.shape[0] // 2
        assert abs(float(np.mean(y[:half])) - float(np.mean(y[half:]))) < 0.05
        assert abs(float(np.mean(y))) < 3 * float(np.std(y))

    def test_order_two_matches_hand_loop(self):
        from armatch.seeding import rng_from

        spec = TarSpec([0.4, -0.3], [-0.2, 0.1], 0.25, 2, 1.0)
        y = simulate_tar(spec, 50, 21, burnin=10)
        eps = rng_from(21).standard_normal(60)
        buf = [0.0, 0.0]
        for t in range(60):
            lo = buf[-2] <= 0.25
            phi = (0.4, -0.3) if lo else (-0.2, 0.1)
            buf.append(phi[0] * buf[-1] + phi[1] * buf[-2] + eps[t])
        assert np.allclose(y, buf[12:], atol=1e-12)

    def test_nonstationary_regime_rejected(self):
        with pytest.raises(NonStationary):
            TarSpec([1.2], [0.5], 0.0, 1, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0),
            TarSpec([0.4, -0.3], [-0.2, 0.1], 0.25, 2, 2.0),
            TarSpec([0.5], [0.3], 0.1, 3, 0.7),  # delay > order: zero padding
            TarSpec([0.1, 0.05, -0.1, 0.2, 0.1], [-0.1] * 7, -0.2, 9, 1.3),
        ],
    )
    @pytest.mark.parametrize("dist", ["gaussian", "t"])
    def test_bytes_equal_numpy_loop(self, spec, dist):
        for seed in range(5):
            got = simulate_tar(spec, 2000, seed, dist=dist, t_df=4.0)
            assert got.tobytes() == simulate_tar_numpy(spec, 2000, seed, dist=dist, t_df=4.0).tobytes()
        for n, burnin in [(1, 0), (1, 500), (5, 0)]:
            got = simulate_tar(spec, n, 3, burnin=burnin, dist=dist)
            assert got.shape == (n,)
            assert got.tobytes() == simulate_tar_numpy(spec, n, 3, burnin=burnin, dist=dist).tobytes()

    def test_threshold_hit_exactly_goes_low(self, monkeypatch):
        # eps = 1, 0, 0: y0 = 1, y1 = -0.5 * y0 (high regime: 1 > -0.5), and
        # y1 = -0.5 equals the threshold, so y2 = 0.5 * y1 (low regime).
        monkeypatch.setattr(simulation, "_innovations", lambda rng, size, *a: np.array([1.0, 0.0, 0.0]))
        spec = TarSpec([0.5], [-0.5], -0.5, 1, 1.0)
        y = simulate_tar(spec, 3, 0, burnin=0)
        assert y.tolist() == [1.0, -0.5, -0.25]
        assert y.tobytes() == simulate_tar_numpy(spec, 3, 0, burnin=0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        r_low=st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=6),
        r_high=st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=6),
        threshold=st.floats(-2.0, 2.0),
        delay=st.integers(1, 8),
        sigma2=st.floats(0.01, 100.0),
        n=st.integers(1, 300),
        burnin=st.integers(0, 60),
        seed=st.integers(0, 2**64 - 1),
        dist=st.sampled_from(["gaussian", "t"]),
    )
    def test_bytes_equal_numpy_loop_property(self, r_low, r_high, threshold, delay, sigma2, n,
                                             burnin, seed, dist):
        spec = TarSpec(pacf_to_ar(r_low), pacf_to_ar(r_high), threshold, delay, sigma2)
        got = simulate_tar(spec, n, seed, burnin=burnin, dist=dist)
        assert got.tobytes() == simulate_tar_numpy(spec, n, seed, burnin=burnin, dist=dist).tobytes()

    def test_diverging_path_raises_nonstationary(self):
        # Both regimes are stationary, but the switched process diverges.
        with pytest.raises(NonStationary, match="TAR path diverged: non-finite value"):
            simulate_tar(EXPLOSIVE_TAR, 4000, 1)

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError):
            TarSpec([0.5], [0.3], 0.0, 0, 1.0)


class TestRunExperiment:
    def _tiny_plan(self, **kw):
        defaults = dict(
            truth=ArmaSpec([0.5], [], 1.0),
            n=120,
            replicates=3,
            estimators=(
                EstimatorSpec("match1", "match", 1, 1),
                EstimatorSpec("ols1", "ols", 1),
            ),
            eval_horizons=(1, 2),
            base_seed=11,
        )
        defaults.update(kw)
        return ExperimentPlan(**defaults)

    def test_single_replicate_shape(self):
        plan = self._tiny_plan(replicates=1, estimators=(EstimatorSpec("e", "match", 1, 2),))
        report = run_experiment(plan)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["replicate"] == 0 and row["estimator"] == "e"
        assert np.isfinite(row["score"])

    def test_deterministic_across_jobs(self):
        plan = self._tiny_plan()
        a = run_experiment(plan, jobs=1)
        b = run_experiment(plan, jobs=3)
        assert a == b

    def test_ols_and_match_agree_at_m1(self):
        report = run_experiment(self._tiny_plan())
        by_est = {}
        for row in report.rows:
            by_est.setdefault(row["estimator"], []).append(row["score"])
        assert np.allclose(by_est["match1"], by_est["ols1"], rtol=1e-5)

    def test_headline_misspecification_advantage(self):
        # ARMA(1,1) truth fitted by AR(1): matching horizons 1..5 beats the
        # one-step fit on the multi-step population loss.  Small-R probe of
        # the full acceptance experiment.
        plan = ExperimentPlan(
            truth=ArmaSpec([0.8], [-0.5], 1.0),
            n=400,
            replicates=30,
            estimators=(
                EstimatorSpec("m1", "match", 1, 1),
                EstimatorSpec("m5", "match", 1, 5),
            ),
            eval_horizons=(1, 2, 3, 4, 5),
            base_seed=99,
        )
        report = run_experiment(plan, jobs=2)
        s = report.summary
        assert s["estimators"]["m5"]["mean_score"] < s["estimators"]["m1"]["mean_score"]
        assert s["win_rate"]["m5_vs_m1"] >= 0.7

    def test_tar_truth_scored_on_held_out(self):
        plan = ExperimentPlan(
            truth=TarSpec([0.6], [-0.4], 0.0, 1, 1.0),
            n=150,
            replicates=2,
            estimators=(EstimatorSpec("m2", "match", 1, 2),),
            eval_horizons=(1, 2),
            base_seed=4,
        )
        report = run_experiment(plan)
        assert all(np.isfinite(row["score"]) for row in report.rows)

    def test_selection_rows_present(self):
        plan = self._tiny_plan(
            replicates=2, selection=SelectionSettings(p_max=2, m=1, B=5)
        )
        report = run_experiment(plan)
        sel_rows = [r for r in report.rows if r["estimator"] == "select_order"]
        assert len(sel_rows) == 2
        assert all(isinstance(r["chosen_p"], int) for r in sel_rows)
        assert "selection" in report.summary

    def test_nan_scores_counted(self):
        # Near-unit-root truth, short series: some OLS fits are not
        # stationary and score NaN; the summary counts them per estimator.
        plan = self._tiny_plan(
            truth=ArmaSpec([0.98], [], 1.0),
            n=40,
            replicates=60,
            estimators=(EstimatorSpec("ols3", "ols", 3), EstimatorSpec("match1", "match", 1, 1)),
        )
        report = run_experiment(plan)
        nan = {
            name: sum(1 for r in report.rows if r["estimator"] == name and np.isnan(r["score"]))
            for name in ("ols3", "match1")
        }
        assert nan["ols3"] > 0
        assert report.summary["nan_scores"] == nan
        assert report.summary["failed"] == 0

    def test_linalg_error_recorded_as_failure(self, monkeypatch):
        real = simulation.fit_ols

        def fails_on_replicate_1(y, p):
            if y[0] == first_y[1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(y, p)

        plan = self._tiny_plan(replicates=12, estimators=(EstimatorSpec("ols1", "ols", 1),))
        first_y = [simulation._simulate_truth(plan, simulation.mix_seed(11, r))[0] for r in range(12)]
        monkeypatch.setattr(simulation, "fit_ols", fails_on_replicate_1)
        report = run_experiment(plan)
        assert report.summary["failed"] == 1
        assert report.summary["failures"] == [{"replicate": 1, "error": "LinAlgError: Singular matrix"}]
        assert [r["replicate"] for r in report.rows] == [0] + list(range(2, 12))

    @pytest.mark.parametrize("kind", ["arma", "tar", "selection"])
    def test_blocks_equal_one_replicate_at_a_time(self, kind):
        estimators = (
            EstimatorSpec("ols2", "ols", 2),
            EstimatorSpec("m1", "match", 2, 1),
            EstimatorSpec("m3", "match", 2, 3),
            EstimatorSpec("m5", "match", 3, 5),
            EstimatorSpec("m3_again", "match", 2, 3),
            EstimatorSpec("p0", "match", 0, 4),
        )
        kw = dict(estimators=estimators, replicates=5, eval_horizons=(1, 2, 3, 4, 5))
        if kind == "tar":
            kw["truth"] = TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0)
        if kind == "selection":
            kw["selection"] = SelectionSettings(p_max=2, m=2, B=4)
        plan = self._tiny_plan(**kw)
        assert repr(run_experiment(plan).rows) == repr(tuple(_oracle_rows(plan)))

    def test_bytes_do_not_depend_on_jobs_or_blocks(self, monkeypatch):
        plan = self._tiny_plan(
            truth=TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0),
            replicates=7,
            estimators=(EstimatorSpec("m3", "match", 2, 3), EstimatorSpec("ols1", "ols", 1)),
        )
        reports = [repr(run_experiment(plan, jobs=jobs)) for jobs in (1, 2, 3)]
        monkeypatch.setattr(simulation, "_BLOCK", 3)  # 7 replicates in blocks of 2, 2 and 3
        reports += [repr(run_experiment(plan, jobs=jobs)) for jobs in (1, 2)]
        assert reports[1:] == reports[:1] * 4

    @pytest.mark.parametrize("replicates, sizes", [(8, [8]), (32, [32]), (33, [16, 17]), (70, [23, 23, 24])])
    def test_blocks_sized_by_block_limit_alone(self, monkeypatch, replicates, sizes):
        seen = []
        monkeypatch.setattr(simulation, "parallel_map", lambda fn, blocks, jobs: seen.extend(blocks) or [])
        monkeypatch.setattr(simulation, "_summarize", lambda *a: {})
        run_experiment(self._tiny_plan(replicates=replicates), jobs=4)
        assert [len(b[1]) for b in seen] == sizes
        assert [r for b in seen for r in b[1]] == list(range(replicates))

    def test_one_block_starts_no_pool(self, monkeypatch):
        plan = self._tiny_plan(
            truth=TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0),
            replicates=8,
            estimators=(EstimatorSpec("m3", "match", 2, 3), EstimatorSpec("ols1", "ols", 1)),
        )
        expected = repr(run_experiment(plan, jobs=1))

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        assert repr(run_experiment(plan, jobs=2)) == expected

    def test_failure_inside_batched_fit_fails_one_replicate(self, monkeypatch):
        real = estimator.fit_ols

        def fails_on_replicate_1(y, p):
            if y[0] == first_y[1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(y, p)

        plan = self._tiny_plan(replicates=12, estimators=(EstimatorSpec("m2", "match", 1, 2),))
        expected = run_experiment(plan).rows
        first_y = [simulation._simulate_truth(plan, simulation.mix_seed(11, r))[0] for r in range(12)]
        batches = []
        real_stack = simulation._fit_match_stack
        monkeypatch.setattr(simulation, "_fit_match_stack", lambda Y, *a: batches.append(len(Y)) or real_stack(Y, *a))
        monkeypatch.setattr(estimator, "fit_ols", fails_on_replicate_1)
        report = run_experiment(plan)
        assert batches == [12]  # the batched call ran, and raised
        assert report.summary["failures"] == [{"replicate": 1, "error": "LinAlgError: Singular matrix"}]
        assert report.rows == tuple(row for row in expected if row["replicate"] != 1)

    def test_diverging_tar_replicates_recorded_as_failures(self, monkeypatch):
        # Replicate 1's series and replicate 5's held-out path diverge: the
        # first fails in its block's simulation, the second in its replicate.
        real = simulation.simulate_tar

        def explosive(spec, n, seed, **kw):
            if seed in diverging:
                return real(EXPLOSIVE_TAR, n, seed, burnin=4000, **kw)
            return real(spec, n, seed, **kw)

        plan = self._tiny_plan(
            truth=TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0),
            replicates=20,
            estimators=(EstimatorSpec("m2", "match", 2, 2),),
        )
        diverging = {simulation.mix_seed(11, 1), simulation.mix_seed(11, 20 + 5)}
        monkeypatch.setattr(simulation, "simulate_tar", explosive)
        report = run_experiment(plan)
        error = "NonStationary: TAR path diverged: non-finite value"
        assert report.summary["failures"] == [{"replicate": 1, "error": error}, {"replicate": 5, "error": error}]
        assert sorted({r["replicate"] for r in report.rows}) == [0, 2, 3, 4] + list(range(6, 20))

    def test_diverging_tar_truth_fails_the_experiment(self):
        # The n = 400 series stay finite (near 1e75); the 4000-long
        # held-out paths diverge.
        plan = self._tiny_plan(
            truth=EXPLOSIVE_TAR, n=400, replicates=4, estimators=(EstimatorSpec("m2", "match", 2, 2),)
        )
        with pytest.raises(ArMatchError, match="4/4 replicates failed: NonStationary: TAR path diverged"):
            run_experiment(plan)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            self._tiny_plan(replicates=0)
        with pytest.raises(ValueError):
            self._tiny_plan(estimators=())
        with pytest.raises(ValueError):
            self._tiny_plan(eval_horizons=())
        with pytest.raises(ValueError):
            self._tiny_plan(innovations="cauchy")
