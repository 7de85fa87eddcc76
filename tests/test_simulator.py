import math

import numpy as np
import pytest

from photonloop import (
    ArtifactModel,
    Coherent,
    Fock,
    LoopConfig,
    SimOptions,
    analytic,
    clickstats,
    simulator,
)
from photonloop.errors import GuardExceeded


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSimulatePulse:
    def test_vacuum_gives_empty_pattern(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0)
        r = rng(1)
        for _ in range(50):
            assert simulator.simulate_pulse(cfg, Fock(0), r) == frozenset()

    def test_full_reflection_always_first_bin(self):
        cfg = LoopConfig(mode="passive", R=1.0, eta=0.3, nu=0.0)
        r = rng(2)
        for _ in range(50):
            assert simulator.simulate_pulse(cfg, Fock(1), r) == frozenset({1})

    def test_single_photon_first_bin_rate(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0, n_bins=20)
        hist, _ = simulator.simulate_ensemble(cfg, Fock(1), SimOptions(n_pulses=10**5, seed=3))
        sigma = math.sqrt(0.5 * 0.5 / 10**5)
        assert abs(hist.p_hat[0] - 0.5) < 3 * sigma

    def test_guard_rejects_bright_pulses(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0, n_max_guard=2)
        with pytest.raises(GuardExceeded):
            simulator.simulate_ensemble(cfg, Coherent(5.0), SimOptions(n_pulses=1000, seed=4))


class TestSimulateEnsemble:
    def test_matches_closed_form(self, splitter_half_config):
        cfg = splitter_half_config
        source = Coherent(3.0)
        m = 200_000
        hist, _ = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=5))
        for j in range(1, 21):
            p = analytic.click_prob_closed(cfg, source, j)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / m)
            assert abs(hist.p_hat[j - 1] - p) < 4.5 * sigma

    def test_seed_determinism(self, splitter_half_config):
        opts = SimOptions(n_pulses=30_000, seed=9)
        h1, s1 = simulator.simulate_ensemble(splitter_half_config, Coherent(3.0), opts)
        h2, s2 = simulator.simulate_ensemble(splitter_half_config, Coherent(3.0), opts)
        np.testing.assert_array_equal(h1.clicks, h2.clicks)
        np.testing.assert_array_equal(s1.c, s2.c)

    def test_worker_count_invariance(self, splitter_half_config):
        base = dict(n_pulses=50_000, seed=9)
        h1, _ = simulator.simulate_ensemble(
            splitter_half_config, Coherent(3.0), SimOptions(**base, n_workers=1)
        )
        h4, _ = simulator.simulate_ensemble(
            splitter_half_config, Coherent(3.0), SimOptions(**base, n_workers=4)
        )
        np.testing.assert_array_equal(h1.clicks, h4.clicks)

    def test_lossless_single_photon_fires_exactly_one_bin(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=1.0, nu=0.0, n_bins=60)
        _, stats = simulator.simulate_ensemble(cfg, Fock(1), SimOptions(n_pulses=50_000, seed=6))
        assert stats.c[1] == pytest.approx(1.0, abs=1e-9)

    def test_dark_counts_only(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3)
        m = 200_000
        _, stats = simulator.simulate_ensemble(cfg, Fock(0), SimOptions(n_pulses=m, seed=7))
        expected = cfg.n_bins * cfg.nu
        se = math.sqrt(expected / m)
        assert abs(stats.mean_c - expected) < 3 * se

    def test_recorded_patterns_consistent_with_histogram(self, splitter_half_config):
        opts = SimOptions(n_pulses=5_000, seed=8, record_patterns=True)
        res = simulator.simulate_ensemble(splitter_half_config, Coherent(3.0), opts)
        assert res.patterns.shape == (5_000, splitter_half_config.n_bins)
        np.testing.assert_array_equal(res.patterns.sum(axis=0), res.histogram.clicks)


class TestEmitTimeTags:
    def test_round_trip_reproduces_ensemble(self, splitter_half_config):
        cfg = LoopConfig(
            mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=30
        )
        opts = SimOptions(n_pulses=4_000, seed=42)
        hist, stats = simulator.simulate_ensemble(cfg, Coherent(3.0), opts)
        stream = simulator.emit_time_tags(cfg, Coherent(3.0), opts, 40 * cfg.loop_delay_ps)
        got = clickstats.ingest_time_tags(stream, cfg)
        np.testing.assert_array_equal(got.histogram.clicks, hist.clicks)
        np.testing.assert_array_equal(got.pattern_stats.c, stats.c)
        assert got.n_discarded == 0

    def test_zero_pulses_gives_empty_stream(self, splitter_half_config):
        stream = simulator.emit_time_tags(
            splitter_half_config,
            Coherent(3.0),
            SimOptions(n_pulses=0, seed=1),
            200 * splitter_half_config.loop_delay_ps,
        )
        assert stream.n_records == 0

    def test_deterministic_stream(self, splitter_half_config):
        opts = SimOptions(n_pulses=2_000, seed=13)
        period = 200 * splitter_half_config.loop_delay_ps
        s1 = simulator.emit_time_tags(splitter_half_config, Coherent(3.0), opts, period)
        s2 = simulator.emit_time_tags(splitter_half_config, Coherent(3.0), opts, period)
        np.testing.assert_array_equal(s1.times_ps, s2.times_ps)
        np.testing.assert_array_equal(s1.channels, s2.channels)

    def test_rep_period_must_cover_all_bins(self, splitter_half_config):
        with pytest.raises(ValueError, match="rep_period_ps"):
            simulator.emit_time_tags(
                splitter_half_config, Coherent(3.0), SimOptions(n_pulses=10), 10
            )

    def test_ensemble_rejects_artifact(self, splitter_half_config):
        art = ArtifactModel(back_reflection_prob=0.1, reflection_delay_ps=1, dead_time_ps=0)
        with pytest.raises(ValueError, match="artifact"):
            simulator.simulate_ensemble(
                splitter_half_config, Coherent(3.0), SimOptions(n_pulses=10, artifact=art)
            )

    def test_reflection_delay_must_miss_gates(self, splitter_half_config):
        art = ArtifactModel(
            back_reflection_prob=0.1,
            reflection_delay_ps=splitter_half_config.loop_delay_ps,
            dead_time_ps=0,
        )
        with pytest.raises(ValueError, match="reflection_delay_ps"):
            simulator.emit_time_tags(
                splitter_half_config,
                Coherent(3.0),
                SimOptions(n_pulses=10, artifact=art),
                200 * splitter_half_config.loop_delay_ps,
            )


class TestBackReflectionArtifact:
    """Dead time from spurious back-reflections undercounts early bins."""

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=40)
    SRC = Coherent(1000.0)

    def _run(self, artifact, m=20_000):
        opts = SimOptions(n_pulses=m, seed=77, artifact=artifact)
        stream = simulator.emit_time_tags(self.CFG, self.SRC, opts, 50 * self.CFG.loop_delay_ps)
        res = clickstats.ingest_time_tags(stream, self.CFG)
        p = np.array(
            [analytic.click_prob_closed(self.CFG, self.SRC, j) for j in range(1, 41)]
        )
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-9) / m)
        return res, (res.histogram.p_hat - p) / sigma

    def test_long_dead_time_suppresses_early_bins(self):
        # dead time above the loop delay chains across consecutive clicks
        art = ArtifactModel(
            back_reflection_prob=0.1,
            reflection_delay_ps=self.CFG.loop_delay_ps // 2,
            dead_time_ps=int(1.2 * self.CFG.loop_delay_ps),
        )
        res, dev = self._run(art)
        assert np.all(dev[1:11] < -5.0)
        assert np.all(np.abs(dev[29:]) < 4.0)

    def test_spurious_records_fall_outside_gates(self):
        art = ArtifactModel(
            back_reflection_prob=0.1,
            reflection_delay_ps=int(0.75 * self.CFG.loop_delay_ps),
            dead_time_ps=int(0.6 * self.CFG.loop_delay_ps),
        )
        res, dev = self._run(art)
        assert res.n_discarded > 0
        # saturated early bins dip by roughly the back-reflection probability
        assert np.all(dev[1:6] < -5.0)
        assert np.all(np.abs(dev[29:]) < 4.0)

    def test_disabled_artifact_matches_analytic(self):
        res, dev = self._run(None)
        assert res.n_discarded == 0
        assert np.all(np.abs(dev) < 4.5)
