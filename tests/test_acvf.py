import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from armatch import (
    AcvfSeq,
    ArParams,
    ArmaSpec,
    InsufficientLags,
    NonStationary,
    SingularToeplitz,
    ar_acvf,
    ar_to_pacf,
    arma_acvf,
    levinson_solve,
    pacf_to_ar,
)
from armatch.acvf import _durbin, _pacf_to_ar, _pacf_to_ar_with_jac, _step_down
from armatch.companion import ar_spectral_radii


class TestLevinsonSolve:
    def test_order_one(self):
        phi, pacf, v = levinson_solve(AcvfSeq([1.0, 0.5]), 1)
        assert phi == pytest.approx([0.5])
        assert pacf == pytest.approx([0.5])
        assert v == pytest.approx([1.0, 0.75])

    def test_exact_ar1_sequence_gives_zero_second_coeff(self):
        # gamma(2) = gamma(1)^2 / gamma(0): the sequence is exactly AR(1)
        phi, pacf, _ = levinson_solve(AcvfSeq([1.0, 0.5, 0.25]), 2)
        assert phi == pytest.approx([0.5, 0.0], abs=1e-14)
        assert pacf == pytest.approx([0.5, 0.0], abs=1e-14)

    def test_near_unit_correlation_survives_order_one(self):
        phi, _, v = levinson_solve(AcvfSeq([1.0, 0.999999999999]), 1)
        assert v[1] > 0

    def test_perfect_correlation_is_singular(self):
        with pytest.raises(SingularToeplitz):
            levinson_solve(AcvfSeq([1.0, 1.0, 1.0]), 2)

    def test_singular_names_the_first_order_below_the_floor(self):
        # An AR(1) with phi = 1 - 1e-13: every variance from order 1 on is
        # about 2e-13 gamma(0), below the floor but positive.
        g = (1.0 - 1e-13) ** np.arange(4)
        with pytest.raises(SingularToeplitz, match="order-1 prediction-error"):
            levinson_solve(AcvfSeq(g), 3)

    def test_insufficient_lags(self):
        with pytest.raises(InsufficientLags):
            levinson_solve(AcvfSeq([1.0, 0.5]), 2)

    def test_variances_non_increasing(self):
        g = ar_acvf(ArParams([0.6, -0.3, 0.1], 1.0), 8)
        _, _, v = levinson_solve(g, 6)
        assert np.all(np.diff(v) <= 1e-14)

    def test_recovers_generating_model(self):
        model = ArParams([0.75, -0.5], 1.0)
        phi, _, v = levinson_solve(ar_acvf(model, 6), 2)
        assert phi == pytest.approx([0.75, -0.5], abs=1e-10)
        assert v[-1] == pytest.approx(1.0, abs=1e-10)


class TestArAcvf:
    def test_ar1_closed_form(self):
        g = ar_acvf(ArParams([0.5], 1.0), 2)
        assert g.gamma == pytest.approx([4 / 3, 2 / 3, 1 / 3])

    def test_white_noise(self):
        g = ar_acvf(ArParams([], 2.0), 3)
        assert g.gamma == pytest.approx([2.0, 0.0, 0.0, 0.0])

    def test_ar2_against_independent_solve(self):
        # Independent oracle: assemble the 3x3 Yule-Walker system directly
        # and extend by the recursion; exact values 16/9, 8/9, -2/9, -11/18,
        # -25/72 confirmed by a rational solve.
        p1, p2 = 0.75, -0.5
        A = np.array([[1.0, -p1, -p2], [-p1, 1.0 - p2, 0.0], [-p2, -p1, 1.0]])
        head = np.linalg.solve(A, [1.0, 0.0, 0.0])
        g3 = p1 * head[2] + p2 * head[1]
        g4 = p1 * g3 + p2 * head[2]
        expected = np.concatenate([head, [g3, g4]])
        got = ar_acvf(ArParams([p1, p2], 1.0), 4).gamma
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(
            [16 / 9, 8 / 9, -2 / 9, -11 / 18, -25 / 72], rel=1e-12
        )

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationary):
            ar_acvf(ArParams([1.01], 1.0), 2)

    def test_invalid_autocovariances_raise_nonstationary(self):
        # phi just below 1 passes the step-down, but gamma(0) =
        # sigma2 / (1 - phi^2) overflows: the sequence fails AcvfSeq's checks.
        model = ArParams([1.0 - 2.0**-53], 1e300)
        assert model.is_stationary
        with pytest.raises(NonStationary, match="gamma must be finite"):
            ar_acvf(model, 3)

    @pytest.mark.parametrize("phi, sigma2", [
        # Data fits (m = 5 on t^2 at n = 50, p = 5; on 1.05^t at n = 80,
        # p = 4; m = 1 on t at n = 50, p = 3) whose roots sit within
        # rounding of the unit circle: their Yule-Walker solutions fail
        # |gamma(k)| <= gamma(0), gamma(0) > 0 and the Toeplitz minor check.
        ([1.7857783319567044, -0.35738547393368636, 0.35741040473172014, -1.785782730097203,
          0.9999794672397141], 1.5969467639895891e-07),
        ([1.999987014491978, 1.2729067351613388e-05, -1.9999870073393704, 0.9999872637799886],
         1.401573434372554e-05),
        ([1.0000000043238058, 0.9999999842603965, -0.9999999933121895], 1.7531019512247237e-14),
    ])
    def test_boundary_models_never_raise_value_error(self, phi, sigma2):
        model = ArParams(phi, sigma2)
        assert model.is_stationary
        try:
            ar_acvf(model, model.order + 5)
        except NonStationary:
            pass

    def test_yule_walker_recursion_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            r = rng.uniform(-0.9, 0.9, p)
            model = ArParams(pacf_to_ar(r), float(rng.uniform(0.5, 2.0)))
            g = ar_acvf(model, p + 10)
            for k in range(p + 1, p + 11):
                pred = model.phi @ g.gamma[k - 1: k - p - 1: -1] if p > 1 else model.phi[0] * g.gamma[k - 1]
                assert abs(g.gamma[k] - pred) < 1e-10 * g.gamma[0]


class TestArmaAcvf:
    def test_ma1_closed_form(self):
        g = arma_acvf(ArmaSpec([], [0.4], 1.0), 3)
        assert g.gamma == pytest.approx([1.16, 0.4, 0.0, 0.0], abs=1e-14)

    def test_matches_ar_route(self):
        a = ar_acvf(ArParams([0.5], 1.0), 6).gamma
        b = arma_acvf(ArmaSpec([0.5], [], 1.0), 6).gamma
        assert np.max(np.abs(a - b)) < 1e-12

    def test_empty_ma_agrees_with_ar_acvf_many_models(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            phi = pacf_to_ar(rng.uniform(-0.9, 0.9, p))
            a = ar_acvf(ArParams(phi, 1.3), 10).gamma
            b = arma_acvf(ArmaSpec(phi, [], 1.3), 10).gamma
            assert a.tobytes() == b.tobytes()

    def test_arma11_against_brute_force_psi(self):
        phi, theta, s2 = 0.8, -0.5, 1.0
        N = 10_000
        psi = np.zeros(N)
        psi[0] = 1.0
        psi[1] = theta + phi
        for j in range(2, N):
            psi[j] = phi * psi[j - 1]
        expected = [s2 * psi[: N - k] @ psi[k:] for k in range(6)]
        got = arma_acvf(ArmaSpec([phi], [theta], s2), 5).gamma
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationary):
            arma_acvf(ArmaSpec([1.2], [0.3], 1.0), 3)

    @pytest.mark.parametrize("phi", [0.99, 0.9999, 0.99999])
    def test_arma11_closed_form_near_the_unit_circle(self, phi):
        theta, s2 = 0.3, 1.7
        g = arma_acvf(ArmaSpec([phi], [theta], s2), 5).gamma
        denom = 1.0 - phi * phi
        assert g[0] == pytest.approx(s2 * (1.0 + 2.0 * phi * theta + theta * theta) / denom, rel=1e-9)
        assert g[1] == pytest.approx(s2 * (1.0 + phi * theta) * (phi + theta) / denom, rel=1e-9)


@st.composite
def _stationary_arma(draw):
    """ARMA(p <= 4, q <= 4) whose AR roots, real or in conjugate pairs,
    have modulus at most 0.9."""
    p = draw(st.integers(0, 4))
    roots = []
    while len(roots) < p:
        radius = draw(st.floats(0.0, 0.9))
        if p - len(roots) >= 2 and draw(st.booleans()):
            z = radius * np.exp(1j * draw(st.floats(0.0, np.pi)))
            roots += [z, np.conj(z)]
        else:
            roots.append(radius * draw(st.sampled_from([-1.0, 1.0])))
    poly = np.ones(1)  # coefficients of prod_i (1 - z_i B)
    for z in roots:
        poly = np.convolve(poly, [1.0, -z])
    phi = -poly[1:].real
    theta = draw(st.lists(st.floats(-2.0, 2.0), max_size=4))
    return ArmaSpec(phi, theta, 10.0 ** draw(st.floats(-3.0, 3.0)))


@settings(max_examples=100, deadline=None)
@given(spec=_stationary_arma(), max_lag=st.integers(0, 12))
def test_arma_acvf_matches_a_long_psi_sum(spec, max_lag):
    # The truth's autocovariances are a valid (PSD) sequence up to the lag
    # asked for and agree with a 2000-term MA(inf) sum, whose neglected tail
    # is below 0.9^2000 relative.  The tolerance is set by the dense solve:
    # four real roots at 0.9 give its matrix a condition number near 1e7
    # and an error of 5.4e-10 gamma(0) (against a 60-digit solve); the
    # psi-sum is within 2e-13 there.
    got = arma_acvf(spec, max_lag)
    assert isinstance(got, AcvfSeq) and got.max_lag == max_lag
    N = 2000
    psi = lfilter(np.r_[1.0, spec.ma], np.r_[1.0, -spec.ar], np.eye(1, N)[0])
    want = np.array([spec.sigma2 * (psi[: N - k] @ psi[k:]) for k in range(max_lag + 1)])
    assert np.max(np.abs(got.gamma - want)) <= 1e-9 * want[0]


class TestPacfBijection:
    def test_order_one_identity(self):
        assert pacf_to_ar([0.5]) == pytest.approx([0.5])
        assert ar_to_pacf([0.5]) == pytest.approx([0.5])

    def test_hand_step_up(self):
        # phi1 = r1 (1 - r2), phi2 = r2
        assert pacf_to_ar([0.5, 0.2]) == pytest.approx([0.4, 0.2])

    def test_round_trip_and_stationarity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = int(rng.integers(1, 7))
            r = rng.uniform(-0.95, 0.95, p)
            phi = pacf_to_ar(r)
            assert ar_spectral_radii(phi[None])[0] < 1.0
            assert np.max(np.abs(ar_to_pacf(phi) - r)) < 1e-12

    def test_nonstationary_input_rejected(self):
        with pytest.raises(NonStationary):
            ar_to_pacf([1.5])

    def test_empty(self):
        assert pacf_to_ar([]).shape == (0,)
        assert ar_to_pacf([]).shape == (0,)


class TestAcvfSeq:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            AcvfSeq([0.0, 0.1])

    def test_rejects_lag_exceeding_variance(self):
        with pytest.raises(ValueError):
            AcvfSeq([1.0, 1.5])

    def test_rejects_indefinite_sequence(self):
        with pytest.raises(ValueError):
            AcvfSeq([1.0, 0.9, -0.9])

    def test_rejects_indefinite_sequence_at_high_order(self):
        # Every minor up to order 12 is positive definite; the 15 x 15
        # Toeplitz matrix has minimum eigenvalue -0.47.
        g = 0.5 ** np.arange(15)
        g[13] = 0.95
        with pytest.raises(ValueError, match="indefinite"):
            AcvfSeq(g)


def _durbin_oracle(g, p):
    """The Durbin loop ``levinson_solve`` ran on its own, floor check left
    out: (phi, pacf, v) of every order up to p."""
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
    return a, pacf, v


def _psd_oracle(g):
    """The order named by the PSD check ``AcvfSeq`` ran on its own, or None
    if it passes."""
    v = g[0]
    a = np.zeros(0)
    for j in range(1, g.shape[0]):
        if v <= 0.0:
            break
        r = (g[j] - a @ g[j - 1:0:-1]) / v if j > 1 else g[1] / v
        new = np.empty(j)
        if j > 1:
            new[: j - 1] = a - r * a[::-1]
        new[j - 1] = r
        a = new
        v = v * (1.0 - r * r)
        if v < -1e-10 * g[0]:
            return j
    return None


class TestDurbin:
    def test_equals_the_levinson_loop_bit_for_bit(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            p = int(rng.integers(1, 16))
            truth = ar_acvf(ArParams(pacf_to_ar(rng.uniform(-0.99, 0.99, p)), 10.0 ** rng.uniform(-3, 3)), p + 3)
            for order in (1, p, p + 3):
                got = _durbin(truth.gamma, order)
                want = _durbin_oracle(truth.gamma, order)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
                solved = levinson_solve(truth, order)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(solved, want))

    def test_stops_after_the_first_non_positive_variance(self):
        g = np.array([1.0, 1.0, 0.5, 0.2])
        phi, pacf, v = _durbin(g, 3)
        assert pacf.tolist() == [1.0] and v.tolist() == [1.0, 0.0] and phi.tolist() == [1.0]

    def test_acvf_seq_rejects_at_the_same_order(self):
        # Random symmetric sequences, most of them indefinite at some order,
        # after two whose order-2 variance is -1e-8 (rejected) and -1e-12
        # (inside the roundoff slack) of gamma(0).
        rng = np.random.default_rng(83)
        named = set()
        hand = [np.array([1.0, 0.9, 0.81 - 0.19 * np.sqrt(1.0 + d / 0.19)]) for d in (1e-8, 1e-12)]
        for _ in range(400):
            K = int(rng.integers(1, 15))
            g = hand.pop() if hand else np.concatenate(
                ([1.0], rng.uniform(-1.0, 1.0, K) * rng.uniform(0.2, 1.0) ** np.arange(1, K + 1))
            )
            j = _psd_oracle(g)
            if j is None:
                AcvfSeq(g)
            else:
                named.add(j)
                with pytest.raises(ValueError, match=f"order-{j} Toeplitz minor is indefinite"):
                    AcvfSeq(g)
        assert len(named) >= 4


def test_step_up_equals_the_plain_loop_bit_for_bit():
    # pacf_to_ar is the coefficient-only step-up; it must give the bits of
    # the plain step-up loop.
    rng = np.random.default_rng(85)
    for _ in range(2000):
        r = rng.uniform(-0.999, 0.999, int(rng.integers(0, 13)))
        a = np.zeros(0)
        for j in range(1, r.shape[0] + 1):
            new = np.empty(j)
            if j > 1:
                new[: j - 1] = a - r[j - 1] * a[::-1]
            new[j - 1] = r[j - 1]
            a = new
        assert pacf_to_ar(r).tobytes() == a.tobytes()


def test_coefficient_step_up_is_row_zero_of_the_jacobian_step_up():
    # The solver's Newton terms take phi from the step-up with Jacobian and
    # the fits' post-solve map from the coefficient-only one: both must
    # give the same bits, for one vector or a stack.
    rng = np.random.default_rng(86)
    for i in range(300):
        p = int(rng.integers(0, 13))
        r = rng.uniform(-0.999, 0.999, (int(rng.integers(1, 9)), p) if i % 2 else p)
        assert _pacf_to_ar(r).tobytes() == _pacf_to_ar_with_jac(r)[0].tobytes()


def _step_down_loop(phi):
    """The one-vector step-down loop: the partial autocorrelations of phi,
    or None at the first r_j with |r_j| >= 1 or not finite."""
    a = phi.copy()
    r = np.empty(a.shape[0])
    for j in range(a.shape[0], 0, -1):
        rj = a[j - 1]
        if not abs(rj) < 1.0:
            return None
        r[j - 1] = rj
        if j > 1:
            a = (a[: j - 1] + rj * a[j - 2::-1]) / (1.0 - rj * rj)
    return r


def test_step_down_equals_the_plain_loop_bit_for_bit():
    # Each row of the stacked step-down gives the bits of the one-vector
    # loop, and so does ar_to_pacf; a row the loop rejects is not ok, and
    # ar_to_pacf raises on it.
    rng = np.random.default_rng(86)
    for p in range(1, 11):
        stationary = np.array([pacf_to_ar(r) for r in rng.uniform(-0.999, 0.999, (50, p))])
        rows = np.vstack([stationary, rng.uniform(-2.0, 2.0, (50, p)), np.full(p, np.nan), np.full(p, np.inf)])
        r, ok = _step_down(rows)
        assert ok[:50].all() and not ok[-2:].any()
        for row, got, good in zip(rows, r, ok.tolist()):
            want = _step_down_loop(row)
            assert good == (want is not None)
            if good:
                assert got.tobytes() == want.tobytes() == ar_to_pacf(row).tobytes()
            else:
                with pytest.raises(NonStationary):
                    ar_to_pacf(row)
