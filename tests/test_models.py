import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonloop import (
    ClickHistogram,
    ClickPatternStats,
    Coherent,
    Fock,
    LoopConfig,
    LossyFock,
    MultiThermal,
    Thermal,
    TimeTagStream,
    mean_photon_number,
    pmf,
)
from photonloop.errors import UnsortedStream
from photonloop.models import wilson_interval

ALL_SOURCES = [
    Fock(0),
    Fock(3),
    Coherent(0.0),
    Coherent(0.3),
    Coherent(7.5),
    Thermal(0.0),
    Thermal(1.0),
    Thermal(42.0),
    MultiThermal(3.0, 1.8),
    MultiThermal(10.0, 4.2),
    LossyFock(1, 0.2),
    LossyFock(5, 0.77),
]


class TestMeanPhotonNumber:
    def test_fock(self):
        assert mean_photon_number(Fock(3)) == 3.0

    def test_lossy_fock_is_binomial_mean(self):
        assert mean_photon_number(LossyFock(1, 0.2)) == pytest.approx(0.2)

    def test_multithermal(self):
        assert mean_photon_number(MultiThermal(300.0, 1.8)) == 300.0

    @pytest.mark.parametrize("source", ALL_SOURCES)
    def test_matches_pmf_expectation(self, source):
        n = np.arange(source.truncation_bound(1e-14) + 1)
        assert float(n @ source.pmf(n)) == pytest.approx(
            mean_photon_number(source), abs=1e-8, rel=1e-9
        )


class TestPmf:
    def test_vacuum_coherent(self):
        assert pmf(Coherent(0.0), 0) == 1.0

    def test_thermal_ground_state_weight(self):
        # 1 / (1 + nbar) at nbar = 1
        assert pmf(Thermal(1.0), 0) == pytest.approx(0.5, abs=1e-12)

    def test_multithermal_single_mode_is_thermal(self):
        mt, th = MultiThermal(1.0, 1.0), Thermal(1.0)
        n = np.arange(21)
        np.testing.assert_allclose(mt.pmf(n), th.pmf(n), atol=1e-12)

    @pytest.mark.parametrize("source", ALL_SOURCES)
    def test_normalized_under_adaptive_truncation(self, source):
        n = np.arange(source.truncation_bound(1e-12) + 1)
        assert float(np.sum(source.pmf(n))) == pytest.approx(1.0, abs=1e-9)

    @given(nbar=st.floats(0.01, 50.0), k=st.floats(1.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_multithermal_normalized(self, nbar, k):
        source = MultiThermal(nbar, k)
        n = np.arange(source.truncation_bound(1e-12) + 1)
        assert abs(float(np.sum(source.pmf(n))) - 1.0) < 1e-9

    def test_multithermal_variance_matches_samples(self):
        source = MultiThermal(3.0, 1.8)
        rng = np.random.default_rng(12)
        draws = source.sample(rng, 10**6).astype(float)
        expected_var = 3.0 + 3.0**2 / 1.8
        s2 = draws.var()
        # standard error of the sample variance from the fourth moment
        m4 = np.mean((draws - draws.mean()) ** 4)
        se = np.sqrt((m4 - s2**2) / len(draws))
        assert abs(s2 - expected_var) < 3 * se


class TestLoopConfig:
    def test_reflectivity_out_of_range_names_field(self):
        with pytest.raises(ValueError, match="R"):
            LoopConfig(mode="passive", R=1.2, eta=0.9, nu=0.0)

    def test_dark_count_must_be_below_one(self):
        with pytest.raises(ValueError, match="nu"):
            LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1.0)

    def test_gate_must_fit_inside_loop_delay(self):
        with pytest.raises(ValueError, match="gate_width_ps"):
            LoopConfig(
                mode="passive", R=0.5, eta=0.9, nu=0.0,
                loop_delay_ps=1000, gate_width_ps=1000,
            )

    def test_mode_coerced_from_string(self):
        cfg = LoopConfig(mode="active", R=0.1, eta=0.8, nu=0.0)
        assert cfg.mode.value == "active"

    def test_immutable(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.R = 0.6


class TestWilsonInterval:
    @pytest.mark.parametrize("clicks", [0, 1, 500, 999, 1000])
    def test_brackets_point_estimate(self, clicks):
        lo, hi = wilson_interval(np.array([clicks]), 1000)
        p = clicks / 1000
        assert 0.0 <= lo[0] <= p <= hi[0] <= 1.0

    def test_nonzero_width_at_extremes(self):
        lo, hi = wilson_interval(np.array([0, 1000]), 1000)
        assert hi[0] > 0.0 and lo[1] < 1.0


class TestClickHistogram:
    def test_from_clicks_invariants(self):
        hist = ClickHistogram.from_clicks([10, 0, 990], 1000)
        assert hist.n_bins == 3
        assert np.all(hist.ci_lo <= hist.p_hat) and np.all(hist.p_hat <= hist.ci_hi)

    def test_clicks_cannot_exceed_trials(self):
        with pytest.raises(ValueError, match="clicks"):
            ClickHistogram.from_clicks([11], 10)


class TestClickPatternStats:
    def test_from_counts_moments(self):
        stats = ClickPatternStats.from_counts([25, 50, 25], p_hat=np.array([0.5, 0.5]))
        assert stats.c.sum() == pytest.approx(1.0, abs=1e-12)
        assert stats.mean_c == pytest.approx(1.0)
        assert stats.var_c == pytest.approx(0.5)
        assert stats.m == pytest.approx(0.5)
        assert stats.sigma2 == 0.0

    def test_mean_is_first_moment_of_c(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 100, size=8)
        stats = ClickPatternStats.from_counts(counts, p_hat=rng.random(7))
        k = np.arange(8)
        assert stats.mean_c == pytest.approx(float(stats.c @ k), abs=1e-12)


class TestTimeTagStream:
    def test_unsorted_raises_with_index(self):
        with pytest.raises(UnsortedStream) as err:
            TimeTagStream(channels=[0, 1, 1], times_ps=[0, 500, 400])
        assert err.value.index == 2
        assert "2" in str(err.value)

    def test_sorted_stream_accepted(self):
        stream = TimeTagStream(channels=[0, 1], times_ps=[0, 7])
        assert stream.n_records == 2
