import dataclasses
import math

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

THREE_SIGMA = 0.9973002039367398  # criterion 2's coverage, as in test_acceptance

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


class TestSourceValidation:
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Coherent(math.inf), "nbar"),
            (lambda: Thermal(math.inf), "nbar"),
            (lambda: MultiThermal(math.inf, 2.0), "nbar"),
            (lambda: MultiThermal(2.0, math.inf), "K"),
        ],
        ids=["coherent", "thermal", "multithermal-nbar", "multithermal-K"],
    )
    def test_infinite_parameter_names_field(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make()


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

    @pytest.mark.parametrize("source", [Thermal(0.0), MultiThermal(0.0, 1.0), MultiThermal(0.0, 4.2)])
    def test_vacuum_truncates_at_zero(self, source):
        assert source.truncation_bound(1e-12) == 0

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

    def test_last_bin_offset_must_fit_int64(self):
        with pytest.raises(ValueError, match="loop_delay_ps must keep n_bins"):
            LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0, n_bins=4, loop_delay_ps=1 << 61)
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0, n_bins=4, loop_delay_ps=(1 << 61) - 1)
        assert cfg.n_bins * cfg.loop_delay_ps == (1 << 63) - 4

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

    @pytest.mark.parametrize("coverage", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_rejects_coverage_outside_unit_interval(self, coverage):
        with pytest.raises(ValueError, match="coverage"):
            wilson_interval(np.array([3]), 10, coverage)

    @staticmethod
    def _scipy_reference(clicks, trials, coverage):
        """The Wilson interval written out, with z from ``scipy.stats.norm.ppf``."""
        from scipy.stats import norm

        z = norm.ppf(0.5 + coverage / 2.0)
        p = clicks / trials
        denom = 1.0 + z**2 / trials
        center = (p + z**2 / (2 * trials)) / denom
        half = (z / denom) * np.sqrt(p * (1.0 - p) / trials + z**2 / (4.0 * trials**2))
        lo = np.minimum(np.clip(center - half, 0.0, None), p)
        return lo, np.maximum(np.clip(center + half, None, 1.0), p)

    @pytest.mark.parametrize("trials", [7, 1000, 10**6])
    def test_default_coverage_bit_identical_to_scipy(self, trials):
        # keeps every histogram CSV byte-identical to the scipy-based releases
        clicks = np.unique(np.r_[np.linspace(0, trials, 500).astype(np.int64), 1, trials - 1])
        got = wilson_interval(clicks, trials)
        ref = self._scipy_reference(clicks, trials, 0.683)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("trials", [7, 1000, 10**6])
    def test_three_sigma_agrees_with_scipy(self, trials):
        clicks = np.unique(np.r_[np.linspace(0, trials, 500).astype(np.int64), 1, trials - 1])
        got = wilson_interval(clicks, trials, THREE_SIGMA)
        ref = self._scipy_reference(clicks, trials, THREE_SIGMA)
        # z differs by one ulp; lo = center - half cancels at low counts, so allow 2 ulps of 1
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=2 * np.finfo(float).eps)


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

    def test_sorted_stream_spanning_int64_accepted(self):
        # neighbours more than 2**63 ps apart: their difference wraps in int64
        times = [-(2**63), 0, 2**63 - 1]
        assert TimeTagStream(channels=[0, 1, 0], times_ps=times).n_records == 3
        with pytest.raises(UnsortedStream) as err:
            TimeTagStream(channels=[0, 0], times_ps=[2**63 - 1, -(2**63)])
        assert err.value.index == 1

    @pytest.mark.parametrize("channel", [2, -1])
    def test_other_channels_raise_naming_the_record(self, channel):
        """Only sync and detector records: the first other one is named, before any sort error."""
        message = rf"record 2 has unknown channel {channel}; expected 0 \(sync\) or 1 \(detector\)"
        with pytest.raises(ValueError, match=message):
            TimeTagStream(channels=[0, 1, channel, 1, channel], times_ps=[0, 1, 2, 3, 4])
        with pytest.raises(ValueError, match=message):
            TimeTagStream(channels=[0, 1, channel], times_ps=[5, 0, 7])

    def test_channel_ids_are_class_constants(self):
        assert [f.name for f in dataclasses.fields(TimeTagStream)] == ["channels", "times_ps"]
        assert (TimeTagStream.sync_channel, TimeTagStream.detector_channel) == (0, 1)
        with pytest.raises(TypeError):
            TimeTagStream(channels=[0], times_ps=[0], sync_channel=2)
