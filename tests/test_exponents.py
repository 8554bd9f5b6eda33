import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sharp import (
    EigenvalueProblemSignal,
    ProblemParams,
    classify_bq,
    hls_ladder,
    nu_case_machine,
    predict_mu,
)


class TestPredictMu:
    def test_eigen_dominated(self):
        pred = predict_mu(0.4, 1.0, 0.5)
        assert pred.mu == 1.0
        assert pred.sigma == 1.0
        assert pred.regime == "eigen-dominated"
        assert pred.log_exponent is None

    def test_scaling_dominated(self):
        pred = predict_mu(0.2, 1.0, 0.5)
        assert pred.mu == pytest.approx(0.8, rel=1e-15)
        assert pred.sigma == pytest.approx(0.8, rel=1e-15)
        assert pred.regime == "scaling-dominated"

    def test_critical_detected_exactly(self):
        pred = predict_mu(0.25, 1.0, 0.5)
        assert pred.regime == "critical"
        assert pred.mu == 1.0
        assert pred.log_exponent == pytest.approx(2.0, rel=1e-15)

    def test_force_critical_flag(self):
        pred = predict_mu(0.25 * (1 + 1e-9), 1.0, 0.5, force_critical=True)
        assert pred.regime == "critical"
        assert pred.log_exponent == pytest.approx(2.0, rel=1e-15)

    def test_gamma_equals_s_regime(self):
        pred = predict_mu(0.3, 0.3, 0.5)
        assert pred.mu == pytest.approx(0.3, rel=1e-15)
        assert pred.regime == "eigen-dominated"

    def test_p_equal_one_signals_eigenvalue_problem(self):
        with pytest.raises(EigenvalueProblemSignal):
            predict_mu(0.3, 1.0, 1.0)

    def test_validation(self):
        for args in ((1.5, 1.0, 0.5), (0.3, 0.0, 0.5), (0.3, 1.0, -0.1),
                     (0.3, 1.0, 0.0), (0.3, 1.0, 1.5)):
            with pytest.raises(ValueError, match="must lie in"):
                predict_mu(*args)

    def test_profile_shapes(self):
        d = np.array([1e-4, 1e-3, 1e-2])
        noncrit = predict_mu(0.2, 1.0, 0.5)
        np.testing.assert_allclose(noncrit.profile(d), d ** 0.8, rtol=1e-14)
        crit = predict_mu(0.25, 1.0, 0.5)
        np.testing.assert_allclose(
            crit.profile(d), d * (1 + np.abs(np.log(d)) ** 2), rtol=1e-14)


class TestClassifyBq:
    def test_threshold_example(self):
        cls = classify_bq(1, 0.2, 1.0, 0.625)
        assert cls.regime == "log"
        assert cls.log_exponent == pytest.approx(1.6, rel=1e-12)
        assert cls.q_low == pytest.approx(0.625, rel=1e-15)
        assert cls.q_high == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_power_example(self):
        cls = classify_bq(1, 0.2, 1.0, 1.0)
        assert cls.regime == "power"
        assert cls.phi_exponent == pytest.approx(0.4, rel=1e-12)

    def test_linear_example(self):
        assert classify_bq(1, 0.2, 1.0, 0.5).regime == "linear"

    @pytest.mark.parametrize("s,gamma,regime,exp", [
        (0.3, 0.5, "linear", 1.0),      # gamma < 2s
        (0.25, 0.5, "log", 1.0),        # gamma = 2s
        (0.2, 0.8, "power", 0.5),       # gamma > 2s: exponent 2s/gamma
    ])
    def test_b1_table(self, s, gamma, regime, exp):
        cls = classify_bq(1, s, gamma, 1.0)
        assert cls.regime == regime
        if regime == "power":
            assert cls.phi_exponent == pytest.approx(exp, rel=1e-12)
        if regime == "log":
            assert cls.log_exponent == pytest.approx(1.0, rel=1e-15)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension N"):
            classify_bq(0, 0.2, 1.0, 0.5)

    @pytest.mark.parametrize("N", [math.nan, math.inf, -math.inf, 0, 1.5])
    def test_dimension_is_a_positive_integer_for_every_rule(self, N):
        # the B_q classifier and the HLS ladder state the one rule of N
        with pytest.raises(ValueError, match="positive integer"):
            classify_bq(N, 0.2, 1.0, 0.5)
        with pytest.raises(ValueError, match="positive integer"):
            hls_ladder(N, 0.2)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            classify_bq(1, 0.2, 1.0, 2.0)   # q_high = 5/3
        with pytest.raises(ValueError):
            classify_bq(1, 0.2, 1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(0.05, 0.45), gamma=st.floats(0.05, 1.0),
           q=st.floats(0.05, 1.0))
    def test_power_exponent_in_unit_interval(self, s, gamma, q):
        cls = classify_bq(1, s, gamma, q)
        if cls.regime == "power":
            assert 0.0 < cls.phi_exponent < 1.0 + 1e-12


class TestHlsLadder:
    def test_one_step_example(self):
        lad = hls_ladder(1, 0.2)
        assert lad.sequence == pytest.approx((2.0, 10.0), rel=1e-12)
        assert lad.k_star == 1

    def test_three_dimensional_example(self):
        lad = hls_ladder(3, 0.5)
        assert lad.sequence == (2.0, 6.0)
        assert lad.k_star == 1

    def test_start_above_the_target_takes_no_step(self):
        lad = hls_ladder(1, 0.4)  # p_0 = 2 > N/(2s) = 1.25
        assert lad.k_star == 0
        assert lad.sequence == (2.0,)

    def test_nonpositive_denominator_terminates(self):
        lad = hls_ladder(1, 0.25)  # p_0 = N/(2s): the next denominator N - 2s p_0 is 0
        assert lad.k_star == 1
        assert lad.sequence == (2.0, math.inf)

    def test_tiny_order_exhausts_the_step_guard(self):
        with pytest.raises(RuntimeError, match="failed to terminate"):
            hls_ladder(1, 1e-5)  # about N/(4s) = 25000 steps

    @pytest.mark.parametrize("N,s", [(0, 0.2), (1, -0.3), (1, 0.0), (1, 1.5)])
    def test_invalid_input_rejected(self, N, s):
        with pytest.raises(ValueError):
            hls_ladder(N, s)

    @pytest.mark.parametrize("s", [0.0, -0.3, 1.5, float("nan")])
    def test_order_range_is_the_operators(self, s):
        with pytest.raises(ValueError) as ladder:
            hls_ladder(1, s)
        with pytest.raises(ValueError) as params:
            ProblemParams(s=s, gamma=1.0)
        assert str(ladder.value) == str(params.value) == "fractional order s must lie in (0, 1]"

    @pytest.mark.parametrize("N,s", [(1, 0.05), (1, 0.3), (2, 0.4), (3, 0.45)])
    def test_termination_bound(self, N, s):
        lad = hls_ladder(N, s)
        assert len(lad.sequence) - 1 <= math.ceil(N / (2 * s * 2.0))


class TestNuCaseMachine:
    def test_subcritical_case(self):
        lab = nu_case_machine(0.2, 1.0, 2.0)
        assert lab.label == "II.A.1"
        assert lab.nu_infinity == pytest.approx(0.4, rel=1e-12)
        assert lab.sigma_out == pytest.approx(0.8, rel=1e-12)
        assert not lab.log_flag

    def test_critical_case(self):
        lab = nu_case_machine(0.25, 1.0, 2.0)
        assert lab.label == "II.A.2"
        assert lab.sigma_out == 1.0
        assert lab.log_flag

    def test_case_one(self):
        lab = nu_case_machine(0.4, 1.0, 2.0)
        assert lab.label == "I"
        assert lab.sigma_out == 1.0

    def test_case_four(self):
        assert nu_case_machine(0.3, 0.6, 2.0).label == "IV"

    def test_direct_case(self):
        assert nu_case_machine(0.3, 0.5, 2.0).label == "DIRECT"

    def test_case_three_boundary(self):
        # gamma = 2s(m+1)/m with s = 1/3, m = 2: gamma = 1
        lab = nu_case_machine(1.0 / 3.0, 1.0, 2.0)
        assert lab.label == "III"
        assert lab.sigma_out == 1.0

    def test_case_two_b(self):
        # 2s(m+1)/m = 0.9 < 1 < 2sm/(m-1) = 1.2 fails; pick s = 0.28, m = 2:
        # thresholds 0.56 < 0.84 < 1.12, gamma = 1 lies in (0.84, 1.12)
        lab = nu_case_machine(0.28, 1.0, 2.0)
        assert lab.label == "II.B"
        assert lab.sigma_out == 1.0

    def test_threshold_ordering(self):
        for m in (1.1, 1.5, 2.0, 4.0, 10.0):
            s = 0.2
            assert 2 * s < 2 * s * (m + 1) / m < 2 * s * m / (m - 1)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            nu_case_machine(0.2, 1.0, 1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, 1.0, 0.5, 0.0])
    def test_m_outside_one_to_infinity_rejected(self, m):
        # the case machine checks m itself: it cross-checks predict_mu, not through it
        with pytest.raises(ValueError, match="finite m > 1"):
            nu_case_machine(0.2, 1.0, m)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(0.01, 0.49), gamma=st.floats(0.05, 1.0),
           p=st.floats(0.05, 0.95))
    def test_cross_oracle_sigma_agreement(self, s, gamma, p):
        pred = predict_mu(s, gamma, p)
        lab = nu_case_machine(s, gamma, 1.0 / p)
        assert abs(lab.sigma_out - pred.sigma) <= 1e-12
        assert lab.log_flag == (pred.regime == "critical")
