import dataclasses
import inspect
import tracemalloc

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

    def test_stream_spanning_int64_ingested(self):
        # lo + 2000 and 2**62 are more than 2**63 ps apart: their int64 difference wraps
        lo = -(2**63)
        stream = self._stream([(0, lo), (1, lo + 2000), (0, 2**62), (1, 2**62 + 1000), (0, 2**63 - 1)])
        res = clickstats.ingest_time_tags(stream, self._config())
        np.testing.assert_array_equal(res.histogram.clicks, [1, 1, 0, 0, 0])
        assert res.histogram.trials == 3 and res.n_discarded == 0

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


def _ingest_with_unique(stream, config):
    """Reference gating that deduplicates with np.unique, whatever the key order.

    Returns (clicks, k_counts, n_discarded).
    """
    sync = stream.times_ps[stream.channels == stream.sync_channel]
    det = stream.times_ps[stream.channels == stream.detector_channel]
    n_bins, delay, gate = config.n_bins, config.loop_delay_ps, config.gate_width_ps
    pulse = np.searchsorted(sync, det, side="right") - 1
    offset = det - sync[np.clip(pulse, 0, None)]
    j = (offset + delay // 2) // delay
    residual = offset - j * delay
    in_gate = (pulse >= 0) & (j >= 1) & (j <= n_bins) & (2 * residual >= -gate) & (2 * residual < gate)
    keys = np.unique(pulse[in_gate] * n_bins + (j[in_gate] - 1))
    clicks = np.bincount(keys % n_bins, minlength=n_bins)
    k_counts = np.bincount(np.bincount(keys // n_bins, minlength=len(sync)), minlength=n_bins + 1)
    return clicks, k_counts, int(len(det) - in_gate.sum())


@st.composite
def _gated_streams(draw):
    """A config and a sorted stream mixing in-gate repeats, stray and early records.

    Records of equal time come in any order, and the last gates of a pulse
    may reach past the next sync.
    """
    n_bins = draw(st.integers(1, 6))
    delay, gate = 1000, draw(st.sampled_from([2, 100, 999]))
    config = LoopConfig(
        mode="passive", R=0.5, eta=0.9, nu=0.0,
        n_bins=n_bins, loop_delay_ps=delay, gate_width_ps=gate,
    )
    period = n_bins * delay + draw(st.integers(1, 2 * delay))
    n_sync = draw(st.integers(1, 6))
    syncs = [i * period for i in range(n_sync)]
    records = [(0, t) for t in syncs]
    # records aimed at gate j of pulse i; several may share one gate
    aimed = st.tuples(
        st.integers(-1, n_sync - 1), st.integers(0, n_bins + 1),
        st.integers(-gate // 2, (gate - 1) // 2), st.integers(1, 3),
    )
    for i, j, residual, repeats in draw(st.lists(aimed, max_size=30)):
        start = syncs[i] if i >= 0 else -period
        records += [(1, start + j * delay + residual)] * repeats
    # stray records anywhere, before the first sync included
    stray = st.integers(-2 * delay, n_sync * period + delay)
    records += [(1, t) for t in draw(st.lists(stray, max_size=20))]
    # detector records at a sync's time, before or after it in the stream
    records += [(1, t) for t in draw(st.lists(st.sampled_from(syncs), max_size=3))]
    records = draw(st.permutations(records))
    records.sort(key=lambda r: r[1])
    stream = TimeTagStream(channels=[r[0] for r in records], times_ps=[r[1] for r in records])
    return stream, config


class TestIngestDedupe:
    """The linear dedupe must agree with np.unique on every sorted stream."""

    @staticmethod
    def _assert_matches_unique(stream, config):
        res = clickstats.ingest_time_tags(stream, config)
        clicks, k_counts, n_discarded = _ingest_with_unique(stream, config)
        np.testing.assert_array_equal(res.histogram.clicks, clicks)
        np.testing.assert_array_equal(res.pattern_stats.c, k_counts / k_counts.sum())
        assert res.n_discarded == n_discarded

    @given(_gated_streams())
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, case):
        self._assert_matches_unique(*case)

    @given(
        seed=st.integers(0, 2**32),
        extra_pulses=st.integers(-3, 40),
        reflection=st.tuples(st.integers(2, 4), st.integers(-40, 40)).filter(lambda r: r[1] != 0),
        prob=st.floats(0.05, 0.9),
        dead_time=st.sampled_from([0, 10, 40_000]),
    )
    @settings(max_examples=12, deadline=None)
    def test_emitted_streams_with_spurs_across_block_edges(
        self, seed, extra_pulses, reflection, prob, dead_time
    ):
        config = LoopConfig(
            mode="passive", R=0.5, eta=0.9, nu=1e-3,
            n_bins=6, loop_delay_ps=100_000, gate_width_ps=100,
        )
        # spurs land near a later pulse's gate (inside it when |offset| < gate / 2),
        # and past the next sync, so the last pulses of block 0 spill into block 1;
        # emit_time_tags refuses such a delay, but tagger data may hold these spurs,
        # so they and the dead time are added to an emitted clean stream by hand
        multiple, offset = reflection
        opts = SimOptions(n_pulses=simulator.BLOCK_SIZE + extra_pulses, seed=seed)
        clean = simulator.emit_time_tags(config, Coherent(20.0), opts, 8 * config.loop_delay_ps)
        sync = clean.channels == clean.sync_channel
        det = clean.times_ps[~sync]
        spur = det[np.random.default_rng(seed).random(len(det)) < prob]
        det = np.sort(np.concatenate([det, spur + (multiple + 4) * config.loop_delay_ps + offset]))
        det = det[simulator._apply_dead_time(det, dead_time, None)]
        times = np.concatenate([clean.times_ps[sync], det])
        channels = np.concatenate([clean.channels[sync], np.ones(len(det), dtype=np.int64)])
        order = np.lexsort((channels, times))
        self._assert_matches_unique(TimeTagStream(channels=channels[order], times_ps=times[order]), config)


def _gate_in_chunks(stream, config, cuts):
    """The IngestResult of a TagGate fed ``stream`` cut at the sorted record indexes ``cuts``."""
    gate = clickstats.TagGate(config)
    for a, b in zip([0, *cuts], [*cuts, stream.n_records]):
        gate.feed(stream.channels[a:b], stream.times_ps[a:b])
    return gate.result()


def _assert_cuts_change_nothing(stream, config, cuts):
    """Cut at ``cuts``, the stream gates as when fed whole, and as the np.unique reference."""
    got, whole = _gate_in_chunks(stream, config, cuts), clickstats.ingest_time_tags(stream, config)
    np.testing.assert_array_equal(got.histogram.clicks, whole.histogram.clicks)
    assert got.histogram.trials == whole.histogram.trials
    np.testing.assert_array_equal(got.pattern_stats.c, whole.pattern_stats.c)
    assert got.n_discarded == whole.n_discarded
    clicks, k_counts, n_discarded = _ingest_with_unique(stream, config)
    np.testing.assert_array_equal(got.histogram.clicks, clicks)
    np.testing.assert_array_equal(got.pattern_stats.c, k_counts / k_counts.sum())
    assert got.n_discarded == n_discarded


@st.composite
def _cut_streams(draw):
    """A gated stream and sorted cut points, repeats (empty chunks) and both ends included."""
    stream, config = draw(_gated_streams())
    cuts = sorted(draw(st.lists(st.integers(0, stream.n_records), max_size=8)))
    return stream, config, cuts


class TestReflectionInGates:
    """A spur lands where TagGate would gate it: in any pulse's gate, the period taken into account."""

    LOOP = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)
    PERIOD = 44 * 156_000

    def test_spur_in_a_later_pulse_gate(self):
        # bin j's spur lands 1,000 ps after bin j - 4 of the next pulse, inside its 4,000 ps gate
        assert clickstats.reflection_in_gates(self.LOOP, 40 * 156_000 + 1_000, self.PERIOD)

    @pytest.mark.parametrize("delay", [78_000, 158_000, 3 * PERIOD + 78_000])
    def test_spurs_between_every_pulse_gates(self, delay):
        assert not clickstats.reflection_in_gates(self.LOOP, delay, self.PERIOD)

    def test_loop_delay_multiple_past_the_last_bin(self):
        """Spurs 40 loop delays late sit on bins 41 to 80, past the last bin and before the next sync."""
        assert not clickstats.reflection_in_gates(self.LOOP, 40 * 156_000, 100 * 156_000)
        assert clickstats.reflection_in_gates(self.LOOP, 40 * 156_000, self.PERIOD)

    def test_one_bin_spur_on_a_sync(self):
        """On a 1-bin loop, a spur 1,844,000 ps late lands on the sync two pulses on, in no gate."""
        loop = dataclasses.replace(self.LOOP, n_bins=1)
        assert not clickstats.reflection_in_gates(loop, 1_844_000, 1_000_000)

    @pytest.mark.parametrize(
        "period, in_gates", [(PERIOD, False), (10**20, True)], ids=["short-period", "period-past-int64"]
    )
    def test_delay_past_int64(self, period, in_gates):
        """10**30 ps is 28.41 loop delays past a sync 44 loop delays apart, and a multiple of 10**20."""
        assert clickstats.reflection_in_gates(self.LOOP, 10**30, period) is in_gates


class TestTagGate:
    """A stream fed in chunks, cut at any record, gates as when fed whole."""

    CFG = LoopConfig(
        mode="passive", R=0.5, eta=0.9, nu=0.0, n_bins=3, loop_delay_ps=1000, gate_width_ps=100,
    )

    @given(_cut_streams())
    @settings(max_examples=300, deadline=None)
    def test_random_cuts_match_whole_stream(self, case):
        _assert_cuts_change_nothing(*case)

    @pytest.mark.parametrize(
        "records, cuts",
        [
            # a detector record tied with the next sync, cut between them: it is that sync's
            ([(0, 0), (1, 1000), (1, 5000), (0, 5000), (1, 6000)], [3]),
            ([(0, 0), (1, 5000), (0, 5000), (1, 7000)], [2, 2, 2]),
            # records before the first sync, with the first sync in a later chunk
            ([(1, -3000), (1, -2000), (0, 0), (1, 1000)], [1, 2]),
            # two records in one gate, on either side of the cut
            ([(0, 0), (1, 1000), (1, 1010), (1, 3000)], [2]),
            ([(0, 0), (1, 1990), (1, 2000), (0, 10000), (1, 12000)], [2]),
            # chunks holding no sync, and empty chunks
            ([(0, 0), (1, 1000), (1, 2000), (1, 2030), (1, 3000), (0, 9000)], [1, 1, 2, 3, 4, 4, 5]),
        ],
        ids=["tie-across-cut", "tie-after-empty-chunks", "before-first-sync", "one-gate-across-cut",
             "one-gate-then-next-pulse", "no-sync-chunks"],
    )
    def test_chunk_edges(self, records, cuts):
        stream = TimeTagStream(channels=[c for c, _ in records], times_ps=[t for _, t in records])
        _assert_cuts_change_nothing(stream, self.CFG, cuts)

    def test_tie_across_cut_goes_to_the_later_sync(self):
        config = dataclasses.replace(self.CFG, n_bins=6)
        stream = TimeTagStream(channels=[0, 1, 0], times_ps=[0, 5000, 5000])
        res = _gate_in_chunks(stream, config, [2])
        # 5000 ps after the first sync is bin 5's gate; at the second sync's own time it is in none
        assert res.histogram.clicks.sum() == 0 and res.n_discarded == 1

    @given(
        times=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=20, unique=True).map(sorted),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_unsorted_pair_named_by_stream_index(self, times, data):
        i = data.draw(st.integers(1, len(times) - 1))
        times[i - 1], times[i] = times[i], times[i - 1]
        channels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=len(times), max_size=len(times)))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(times)), max_size=4)) + [i])
        gate = clickstats.TagGate(self.CFG)
        with pytest.raises(UnsortedStream) as err:
            for a, b in zip([0, *cuts], [*cuts, len(times)]):
                gate.feed(np.array(channels[a:b]), np.array(times[a:b]))
        assert err.value.index == i

    def test_empty_chunks_only_have_no_sync(self):
        gate = clickstats.TagGate(self.CFG)
        gate.feed(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(NoSyncRecords):
            gate.result()


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

    def test_n_is_the_gated_bin_count(self):
        stats = stats_from_probs([0.9, 0.45, 0.22, 0.1, 0.05])
        for witness in (clickstats.q_pb, clickstats.q_b):
            with pytest.raises(TypeError):
                witness(stats, 4)

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


@pytest.fixture(scope="module")
def coherent_stats():
    """Pattern stats of 5000 coherent:2 pulses on a 40-bin loop."""
    cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)
    return simulator.simulate_ensemble(cfg, Coherent(2.0), SimOptions(n_pulses=5000, seed=9)).pattern_stats


def _whole_array_bootstrap(stats, trials_observed, iterations, seed):
    """``bootstrap_sigma`` with every iteration drawn in one call: the reference for batched draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    c = rng.multinomial(trials_observed, stats.c, size=iterations) / trials_observed
    k = np.arange(c.shape[-1], dtype=float)
    mean = c @ k
    var = c @ k**2 - mean**2
    out = []
    for sigma2 in (stats.sigma2, 0.0):
        denom = mean * (stats.n_bins - mean) - stats.n_bins**2 * sigma2
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.divide(stats.n_bins * var, denom) - 1.0
        ok = denom > 0
        out.append((float(np.std(values[ok])) if ok.sum() >= 2 else float("nan"), int((~ok).sum())))
    return out


class TestBootstrap:
    @pytest.mark.parametrize("iterations", [1, 0, -3])
    def test_fewer_than_two_iterations_refused(self, iterations):
        """The spread of one resample is 0: it would report zero error bars."""
        stats = stats_from_probs([0.5, 0.5])
        with pytest.raises(ValueError, match="iterations"):
            clickstats.bootstrap_sigma(stats, trials_observed=100, iterations=iterations, seed=0)

    @pytest.mark.parametrize("trials_observed", [0, -1])
    def test_no_observed_trials_refused(self, trials_observed):
        stats = stats_from_probs([0.5, 0.5])
        with pytest.raises(ValueError, match="trials_observed must be >= 1"):
            clickstats.bootstrap_sigma(stats, trials_observed=trials_observed, iterations=10, seed=0)

    def test_one_usable_iteration_gives_nan_sigmas(self):
        stats = stats_from_probs([0.1, 0.0], c=[0.8, 0.2, 0.0])
        res = clickstats.bootstrap_sigma(stats, trials_observed=2, iterations=5, seed=6)
        assert res.n_degenerate_qpb == res.n_degenerate_qb == 4  # 4 resamples with no click
        assert np.isnan(res.sigma_qpb) and np.isnan(res.sigma_qb)

    @pytest.mark.parametrize("seed", [0, 2**100 + 3])
    @pytest.mark.parametrize(
        "iterations",
        [2, clickstats._BOOTSTRAP_ROWS - 1, clickstats._BOOTSTRAP_ROWS, clickstats._BOOTSTRAP_ROWS + 1,
         2 * clickstats._BOOTSTRAP_ROWS + 1, 10_000],
    )
    def test_batches_match_whole_array(self, coherent_stats, iterations, seed):
        """Batched draws give the sigmas and degenerate counts of one whole-array draw, bit for bit."""
        res = clickstats.bootstrap_sigma(coherent_stats, trials_observed=5000, iterations=iterations, seed=seed)
        (sigma_qpb, n_qpb), (sigma_qb, n_qb) = _whole_array_bootstrap(coherent_stats, 5000, iterations, seed)
        assert (res.n_degenerate_qpb, res.n_degenerate_qb) == (n_qpb, n_qb)
        assert res.sigma_qpb.hex() == sigma_qpb.hex() and res.sigma_qb.hex() == sigma_qb.hex()

    def test_memory_per_iteration_is_bounded(self, coherent_stats):
        """Only each iteration's moments are kept: a row of counts and its float copy took 656 B."""
        iterations = 100_000
        tracemalloc.start()
        try:
            clickstats.bootstrap_sigma(coherent_stats, trials_observed=5000, iterations=iterations, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * iterations, peak

    def test_default_iteration_count(self):
        sig = inspect.signature(clickstats.bootstrap_sigma)
        assert sig.parameters["iterations"].default == 10000

    def test_trials_observed_is_required(self):
        """One redrawn pulse gives every resample var 0 and zero error bars: there is no default."""
        stats = stats_from_probs([0.5, 0.5])
        with pytest.raises(TypeError, match="trials_observed"):
            clickstats.bootstrap_sigma(stats)
        with pytest.raises(TypeError):  # not by position either, where N used to go
            clickstats.bootstrap_sigma(stats, 100)

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

    def test_all_degenerate_gives_nan_sigmas(self):
        stats = stats_from_probs([0.0, 0.0], c=[1.0, 0.0, 0.0])
        res = clickstats.bootstrap_sigma(stats, trials_observed=100, iterations=10, seed=4)
        assert np.isnan(res.sigma_qpb) and np.isnan(res.sigma_qb)
        assert res.n_degenerate_qpb == res.n_degenerate_qb == 10

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
