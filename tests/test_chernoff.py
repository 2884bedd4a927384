"""Unit tests for the Chernoff machinery (Equations 1–3, 5–8)."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.learning.chernoff import (
    aiming_sample_size,
    chernoff_tail,
    confidence_radius,
    pao_sample_size,
    pib_sequential_threshold,
    pib_sequential_thresholds,
    pib_sum_threshold,
    samples_for_radius,
    sequential_confidence,
)


class TestTail:
    def test_formula(self):
        assert chernoff_tail(10, 0.5, 1.0) == pytest.approx(
            math.exp(-2 * 10 * 0.25)
        )

    def test_decreases_in_n(self):
        assert chernoff_tail(20, 0.5, 1.0) < chernoff_tail(10, 0.5, 1.0)

    def test_decreases_in_beta(self):
        assert chernoff_tail(10, 0.6, 1.0) < chernoff_tail(10, 0.5, 1.0)

    def test_zero_beta_is_one(self):
        assert chernoff_tail(10, 0.0, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_tail(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            chernoff_tail(10, -0.1, 1.0)


class TestRadius:
    def test_inverts_tail(self):
        delta = 0.05
        radius = confidence_radius(50, delta, 2.0)
        assert chernoff_tail(50, radius, 2.0) == pytest.approx(delta)

    def test_samples_for_radius_suffice(self):
        n = samples_for_radius(0.1, 0.05, 1.0)
        assert confidence_radius(n, 0.05, 1.0) <= 0.1 + 1e-12
        # And n-1 would not suffice (tightness).
        assert confidence_radius(n - 1, 0.05, 1.0) > 0.1


class TestPIBThresholds:
    def test_sum_threshold_formula(self):
        # Λ√(n/2 ln(1/δ)).
        assert pib_sum_threshold(100, 0.05, 4.0) == pytest.approx(
            4.0 * math.sqrt(50 * math.log(20))
        )

    def test_equation3_instantiation(self):
        # Paper's G_A case: Λ = f*(Rp)+f*(Rg) = 4.
        threshold = pib_sum_threshold(200, 0.05, 4.0)
        # Observed gain k_g·2 − k_p·2 must exceed ~69 to accept:
        # 4·sqrt(200/2·ln 20) ≈ 69.2.
        assert threshold == pytest.approx(69.23, abs=0.1)

    def test_sequential_schedule_sums_to_delta(self):
        delta = 0.1
        total = sum(sequential_confidence(i, delta) for i in range(1, 200_000))
        assert total == pytest.approx(delta, rel=1e-4)

    def test_sequential_threshold_grows_with_tests(self):
        early = pib_sequential_threshold(100, 10, 0.05, 4.0)
        late = pib_sequential_threshold(100, 1000, 0.05, 4.0)
        assert late > early

    def test_sequential_threshold_exceeds_single_test(self):
        # Testing repeatedly must cost confidence.
        single = pib_sum_threshold(100, 0.05, 4.0)
        sequential = pib_sequential_threshold(100, 5, 0.05, 4.0)
        assert sequential > single


class TestSampleSizes:
    def test_equation7_formula(self):
        n, f_not, eps, delta = 4, 2.0, 1.0, 0.1
        expected = math.ceil(2 * (n * f_not / eps) ** 2 * math.log(2 * n / delta))
        assert pao_sample_size(n, f_not, eps, delta) == expected

    def test_zero_fnot_needs_no_samples(self):
        assert pao_sample_size(4, 0.0, 1.0, 0.1) == 0
        assert aiming_sample_size(4, 0.0, 1.0, 0.1) == 0

    def test_grows_with_tighter_epsilon(self):
        assert pao_sample_size(4, 2.0, 0.5, 0.1) > pao_sample_size(4, 2.0, 1.0, 0.1)

    def test_grows_with_confidence(self):
        assert pao_sample_size(4, 2.0, 1.0, 0.01) > pao_sample_size(4, 2.0, 1.0, 0.1)

    def test_footnote11_asymptotics(self):
        # m'(e) ≈ 2(nF¬/ε)² ln(4n/δ) for large n: ratio of the aiming
        # size to that leading term tends to 1.
        eps, delta, f_not = 1.0, 0.1, 2.0
        n = 4000
        leading = 2 * (n * f_not / eps) ** 2 * math.log(4 * n / delta)
        assert aiming_sample_size(n, f_not, eps, delta) == pytest.approx(
            leading, rel=0.01
        )

    def test_aiming_exceeds_plain_for_same_parameters(self):
        # ln(4n/δ) > ln(2n/δ) and the exact shrink factor is smaller.
        assert aiming_sample_size(4, 2.0, 1.0, 0.1) > pao_sample_size(
            4, 2.0, 1.0, 0.1
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            pao_sample_size(0, 2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            pao_sample_size(4, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            aiming_sample_size(4, 2.0, 0.0, 0.1)


class TestSequentialThresholds:
    """One test's shared log term and per-count roots reproduce
    Equation 6's threshold bit for bit."""

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 9),
        st.floats(min_value=1e-9, max_value=0.999999),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_bit_identical_to_the_closed_form(self, n, i, delta, value_range):
        threshold = pib_sequential_thresholds(i, delta)
        expected = pib_sequential_threshold(n, i, delta, value_range)
        assert threshold(n, value_range) == expected
        # A cached root gives the same bits again, under another Λ too.
        assert threshold(n, value_range) == expected
        assert threshold(n, 2.0 * value_range) == \
            pib_sequential_threshold(n, i, delta, 2.0 * value_range)

    def test_rejects_what_the_closed_form_rejects(self):
        with pytest.raises(ValueError):
            pib_sequential_thresholds(0, 0.1)
        threshold = pib_sequential_thresholds(3, 0.1)
        with pytest.raises(ValueError):
            threshold(0, 1.0)
        with pytest.raises(ValueError):
            threshold(2, 0.0)
