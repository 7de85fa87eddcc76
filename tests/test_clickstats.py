import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonloop import (
    ClickPatternStats,
    Coherent,
    LoopConfig,
    SimOptions,
    TimeTagStream,
    clickstats,
    simulator,
)
from photonloop.errors import (
    AllDegenerate,
    DegenerateDenominator,
    NoSyncRecords,
    UnsortedStream,
)
from conftest import enumerate_independent_patterns


def stats_from_probs(p, c=None):
    """Pattern stats for independent bins with click probabilities p."""
    p = np.asarray(p, dtype=float)
    c = enumerate_independent_patterns(p) if c is None else np.asarray(c, dtype=float)
    k = np.arange(len(c))
    mean_c = float(c @ k)
    m = float(p.mean())
    return ClickPatternStats(
        c=c,
        mean_c=mean_c,
        var_c=float(c @ (k - mean_c) ** 2),
        m=m,
        sigma2=float(np.mean((p - m) ** 2)),
    )


class TestIngest:
    def _stream(self, records):
        records = sorted(records, key=lambda r: r[1])
        return TimeTagStream(channels=[r[0] for r in records], times_ps=[r[1] for r in records])

    def _config(self, n_bins=5):
        return LoopConfig(
            mode="passive", R=0.5, eta=0.9, nu=0.0,
            n_bins=n_bins, loop_delay_ps=1000, gate_width_ps=100,
        )

    def test_single_pulse_pattern(self):
        cfg = self._config()
        stream = self._stream([(0, 0), (1, 1000), (1, 3000)])
        res = clickstats.ingest_time_tags(stream, cfg)
        np.testing.assert_array_equal(res.histogram.clicks, [1, 0, 1, 0, 0])
        assert res.pattern_stats.c[2] == 1.0
        assert res.n_discarded == 0

    def test_no_sync_records(self):
        stream = self._stream([(1, 100)])
        with pytest.raises(NoSyncRecords):
            clickstats.ingest_time_tags(stream, self._config())

    def test_mutated_stream_rechecked(self):
        stream = self._stream([(0, 0), (1, 1000), (1, 2000)])
        stream.times_ps[2] = 500  # bypasses construction-time validation
        with pytest.raises(UnsortedStream):
            clickstats.ingest_time_tags(stream, self._config())

    def test_gate_edges_left_inclusive_right_exclusive(self):
        cfg = self._config()
        inside_left = self._stream([(0, 0), (1, 1000 - 50)])
        outside_right = self._stream([(0, 0), (1, 1000 + 50)])
        assert clickstats.ingest_time_tags(inside_left, cfg).histogram.clicks[0] == 1
        res = clickstats.ingest_time_tags(outside_right, cfg)
        assert res.histogram.clicks[0] == 0
        assert res.n_discarded == 1

    def test_out_of_gate_records_tallied(self):
        cfg = self._config()
        stream = self._stream([(0, 0), (1, 1500), (1, 2000), (1, 99_000)])
        res = clickstats.ingest_time_tags(stream, cfg)
        np.testing.assert_array_equal(res.histogram.clicks, [0, 1, 0, 0, 0])
        assert res.n_discarded == 2

    def test_duplicate_records_in_gate_count_once(self):
        cfg = self._config()
        stream = self._stream([(0, 0), (1, 1000), (1, 1010)])
        res = clickstats.ingest_time_tags(stream, cfg)
        assert res.histogram.clicks[0] == 1

    def test_multiple_pulses_fill_c0(self):
        cfg = self._config()
        stream = self._stream([(0, 0), (0, 1_000_000), (1, 1_001_000)])
        res = clickstats.ingest_time_tags(stream, cfg)
        assert res.histogram.trials == 2
        assert res.pattern_stats.c[0] == pytest.approx(0.5)
        assert res.pattern_stats.c[1] == pytest.approx(0.5)


class TestWitnesses:
    def test_two_even_bins_is_poisson_binomial_baseline(self):
        stats = stats_from_probs([0.5, 0.5])
        np.testing.assert_allclose(stats.c, [0.25, 0.5, 0.25])
        assert clickstats.q_pb(stats) == pytest.approx(0.0, abs=1e-12)

    def test_single_photon_split_two_ways(self):
        stats = stats_from_probs([0.5, 0.5], c=[0.0, 1.0, 0.0])
        assert clickstats.q_pb(stats) == pytest.approx(-1.0, abs=1e-12)
        assert clickstats.q_b(stats) == pytest.approx(-1.0, abs=1e-12)

    def test_witnesses_agree_for_uniform_bins(self):
        stats = stats_from_probs([0.3] * 6)
        assert stats.sigma2 == 0.0
        assert clickstats.q_pb(stats) == pytest.approx(clickstats.q_b(stats), abs=1e-12)

    def test_binomial_clicks_give_zero_binomial_witness(self):
        stats = stats_from_probs([0.25] * 4)
        assert clickstats.q_b(stats) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_bins_fool_the_binomial_witness(self):
        # independent (classical-like) bins with a decaying profile
        stats = stats_from_probs([0.9, 0.45, 0.22, 0.1, 0.05])
        assert clickstats.q_pb(stats) == pytest.approx(0.0, abs=1e-12)
        assert clickstats.q_b(stats) < -0.1

    def test_all_vacuum_is_degenerate(self):
        stats = stats_from_probs([0.0, 0.0], c=[1.0, 0.0, 0.0])
        with pytest.raises(DegenerateDenominator):
            clickstats.q_pb(stats)
        with pytest.raises(DegenerateDenominator):
            clickstats.q_b(stats)

    @given(
        st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_independent_bins_match_direct_formula(self, probs):
        p = np.asarray(probs)
        stats = stats_from_probs(p)
        n = len(p)
        # direct evaluation from the enumerated moments
        mean = float(p.sum())
        var = float((p * (1 - p)).sum())
        direct = n * var / (mean * (n - mean) - n**2 * stats.sigma2) - 1.0
        assert clickstats.q_pb(stats) == pytest.approx(direct, abs=1e-9)
        assert abs(direct) < 1e-9  # independent bins sit exactly at the baseline


class TestBootstrap:
    def test_single_iteration_has_zero_spread(self):
        stats = stats_from_probs([0.5, 0.5])
        res = clickstats.bootstrap_sigma(stats, trials_observed=100, iterations=1, seed=0)
        assert res.sigma_qpb == 0.0 and res.sigma_qb == 0.0

    def test_default_iteration_count(self):
        sig = inspect.signature(clickstats.bootstrap_sigma)
        assert sig.parameters["iterations"].default == 10000

    def test_spread_shrinks_with_sample_size(self):
        stats = stats_from_probs([0.6, 0.35, 0.2, 0.1])
        small = clickstats.bootstrap_sigma(stats, trials_observed=10**4, iterations=4000, seed=2)
        large = clickstats.bootstrap_sigma(stats, trials_observed=10**6, iterations=4000, seed=2)
        ratio = small.sigma_qpb / large.sigma_qpb
        assert abs(ratio - 10.0) < 2.0

    def test_deterministic_for_fixed_seed(self):
        stats = stats_from_probs([0.6, 0.3])
        a = clickstats.bootstrap_sigma(stats, trials_observed=1000, iterations=200, seed=3)
        b = clickstats.bootstrap_sigma(stats, trials_observed=1000, iterations=200, seed=3)
        assert (a.sigma_qpb, a.sigma_qb) == (b.sigma_qpb, b.sigma_qb)

    def test_all_degenerate_raises(self):
        stats = stats_from_probs([0.0, 0.0], c=[1.0, 0.0, 0.0])
        with pytest.raises(AllDegenerate):
            clickstats.bootstrap_sigma(stats, trials_observed=100, iterations=10, seed=4)

    def test_unpacks_as_pair(self):
        stats = stats_from_probs([0.5, 0.5])
        sigma_qpb, sigma_qb = clickstats.bootstrap_sigma(
            stats, trials_observed=500, iterations=50, seed=5
        )
        assert sigma_qpb >= 0.0 and sigma_qb >= 0.0


class TestWitnessesOnSimulatedData:
    def test_coherent_light_is_witness_neutral(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)
        m = 200_000
        _, stats = simulator.simulate_ensemble(cfg, Coherent(3.0), SimOptions(n_pulses=m, seed=21))
        qpb = clickstats.q_pb(stats)
        res = clickstats.bootstrap_sigma(stats, trials_observed=m, iterations=3000, seed=22)
        assert abs(qpb) <= 4 * res.sigma_qpb
