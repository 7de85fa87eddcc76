import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from photonloop import (
    ArtifactModel,
    Coherent,
    Fock,
    LoopConfig,
    LossyFock,
    MultiThermal,
    SimOptions,
    Thermal,
    TimeTagStream,
    analytic,
    clickstats,
    simulator,
)
from photonloop.errors import GuardExceeded

from conftest import enumerate_independent_patterns


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

        # tag streams too, spurs and dead time included, on both kernels
        delay = splitter_half_config.loop_delay_ps
        art = ArtifactModel(
            back_reflection_prob=0.1, reflection_delay_ps=delay // 2, dead_time_ps=delay // 3
        )
        for source in (Coherent(3.0), LossyFock(1, 0.6)):
            for artifact in (None, art):
                s1, s4 = (
                    simulator.emit_time_tags(
                        splitter_half_config, source, SimOptions(**base, n_workers=workers),
                        200 * delay, artifact,
                    )
                    for workers in (1, 4)
                )
                np.testing.assert_array_equal(s1.channels, s4.channels)
                np.testing.assert_array_equal(s1.times_ps, s4.times_ps)

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


def _chi2_within_bounds(chi2, dof, coverage=0.999):
    tail = (1.0 - coverage) / 2.0
    return sps.chi2.ppf(tail, dof) <= chi2 <= sps.chi2.isf(tail, dof)


def _poisson_binomial(p):
    """Exact P(k bins fire), k = 0..N, for independent bins with click probabilities p."""
    c = np.ones(1)
    for pj in p:
        c = np.convolve(c, [1.0 - pj, pj])
    return c


def _k_count_chi2(observed, expected):
    """Pearson chi^2 and dof of k-counts, both sparse tails pooled so every cell expects >= 5 pulses."""
    lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
    pool = lambda c: np.concatenate(([c[: lo + 1].sum()], c[lo + 1 : hi], [c[hi:].sum()]))
    observed, expected = pool(observed), pool(expected)
    return float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1


def _record_counts(stream, config, rep_period_ps):
    """Clicks per bin and k-counts read straight off a clean stream's detector records, ungated.

    Without artifacts a record of pulse i and bin j sits at i * rep_period_ps + j * loop_delay_ps.
    """
    syncs = stream.times_ps[stream.channels == stream.sync_channel]
    records = stream.times_ps[stream.channels == stream.detector_channel]
    clicks = np.bincount(records % rep_period_ps // config.loop_delay_ps - 1, minlength=config.n_bins)
    fired = np.bincount(records // rep_period_ps, minlength=len(syncs))
    return clicks, np.bincount(fired, minlength=config.n_bins + 1)


class _CountingRng:
    """A generator that counts its ``random`` and ``choice`` calls.

    The per-bin kernel makes one ``random`` call a round of geometric gaps and one ``choice``
    call a dense bin.
    """

    def __init__(self, generator):
        self.rng, self.rounds, self.choices = generator, 0, 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size):
        self.rounds += 1
        return self.rng.random(size)

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)


class TestSparseKernel:
    """The per-bin kernel is exact: clicks and patterns against closed forms.

    Geometric gaps draw the sparse bins of a block and a binomial plus
    rng.choice the dense ones; each way is checked one block at a time too.
    """

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)

    def draw_blocks(self, log_miss, size, seeds):
        """One block a seed: clicks per bin, per pulse index and k-counts, the gap rounds and the dense bins.

        Checks that each block draws every (pulse, bin) pair at most once and
        that its clicks per bin count its pairs.
        """
        n_bins = len(log_miss)
        clicks, per_pulse, k_counts = np.zeros(n_bins), np.zeros(size), np.zeros(n_bins + 1)
        rounds = choices = 0
        for seed in seeds:
            counting = _CountingRng(rng(seed))
            draws = simulator._sample_clicks(counting, size, log_miss)
            keys = draws.bins * size + draws.pulses
            assert len(np.unique(keys)) == len(keys)
            np.testing.assert_array_equal(draws.clicks, np.bincount(draws.bins, minlength=n_bins))
            clicks += draws.clicks
            fired = np.bincount(draws.pulses, minlength=size)
            per_pulse += fired
            k_counts += np.bincount(fired, minlength=n_bins + 1)
            rounds += counting.rounds
            choices += counting.choices
        return clicks, per_pulse, k_counts, rounds, choices

    def check_closed_forms(self, p, n_blocks, clicks, per_pulse, k_counts):
        """The counts of :meth:`draw_blocks` against independent bins that fire with p."""
        m = n_blocks * len(per_pulse)
        var = m * p * (1.0 - p)
        tested = var > 5.0
        certain = m * np.minimum(p, 1.0 - p) < 1e-6
        np.testing.assert_array_equal(clicks[certain], np.round(m * p[certain]))
        chi2 = float(((clicks - m * p) ** 2 / np.where(tested, var, 1.0))[tested].sum())
        dof = int(tested.sum())
        assert _chi2_within_bounds(chi2, dof), f"clicks: chi2 = {chi2:.2f} over {dof}"
        # every pulse index fires alike, the block's first and last included
        mean, var = n_blocks * p.sum(), n_blocks * (p * (1.0 - p)).sum()
        chi2 = float(((per_pulse - mean) ** 2 / var).sum())
        assert _chi2_within_bounds(chi2, len(per_pulse)), f"per pulse: chi2 = {chi2:.2f}"
        chi2, dof = _k_count_chi2(k_counts, _poisson_binomial(p) * m)
        assert _chi2_within_bounds(chi2, dof), f"k-counts: chi2 = {chi2:.2f}"

    def log_miss(self, nbar):
        """Per-bin log no-click probability of Coherent(nbar) on ``CFG``, dark counts included."""
        no_dark = np.full(self.CFG.n_bins, np.log1p(-self.CFG.nu))
        return no_dark - analytic.bin_exit_probs(self.CFG) * nbar

    def test_sample_clicks_edge_probabilities(self):
        p = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
        size = 50_000
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-p)
        draws = simulator._sample_clicks(rng(11), size, log_miss)
        pulses, bins = draws.pulses, draws.bins
        clicks = np.bincount(bins, minlength=len(p))
        assert clicks[0] == 0
        assert clicks[1] == 0
        assert abs(clicks[2] - size / 2) < 5 * math.sqrt(size / 4)
        assert clicks[3] == size
        np.testing.assert_array_equal(np.sort(pulses[bins == 4]), np.arange(size))
        for j in range(len(p)):
            assert len(np.unique(pulses[bins == j])) == clicks[j]  # distinct pulses per bin

    @pytest.mark.parametrize("nbar", [3.0, 300.0, 1e6])
    def test_per_bin_clicks_match_closed_form(self, nbar):
        # bins with p > 1/2 draw the pulses that miss them: bins 1-7 at
        # nbar = 300, bins 1-17 at nbar = 1e6 (1-14 of them certain to fire)
        source = Coherent(nbar)
        p = np.array([analytic.click_prob_closed(self.CFG, source, j) for j in range(1, 21)])
        m, seeds = 40_000, range(300, 320)
        var = m * p * (1.0 - p)
        tested = var > 5.0
        certain = m * len(seeds) * np.minimum(p, 1.0 - p) < 1e-6
        chi2, dof = 0.0, 0
        for seed in seeds:
            hist, _ = simulator.simulate_ensemble(
                self.CFG, source, SimOptions(n_pulses=m, seed=seed)
            )
            z2 = (hist.clicks - m * p) ** 2 / np.where(tested, var, 1.0)
            chi2 += float(z2[tested].sum())
            dof += int(tested.sum())
            np.testing.assert_array_equal(hist.clicks[certain], np.round(m * p[certain]))
        assert dof >= 100
        assert _chi2_within_bounds(chi2, dof), f"chi2/dof = {chi2 / dof:.3f} over {dof}"

    def test_k_count_distribution_matches_independent_bins(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=8)
        source = Coherent(3.0)
        p = np.array([analytic.click_prob_closed(cfg, source, j) for j in range(1, 9)])
        expected_c = enumerate_independent_patterns(p)
        m = 400_000
        _, stats = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=21))
        observed, expected = stats.c * m, expected_c * m
        # pool the sparse upper tail so every cell expects at least 5 pulses
        last = int(np.nonzero(expected >= 5.0)[0].max())
        observed = np.append(observed[:last], observed[last:].sum())
        expected = np.append(expected[:last], expected[last:].sum())
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert _chi2_within_bounds(chi2, len(expected) - 1), f"chi2 = {chi2:.2f}"

    def test_guarded_coherent_matches_closed_form(self):
        # a guard that is never crossed routes Coherent light through the photon chain
        # and the sparse dark counts (test_guard_rejects_bright_pulses covers crossing it)
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20, n_max_guard=40)
        source = Coherent(3.0)
        p = np.array([analytic.click_prob_closed(cfg, source, j) for j in range(1, 21)])
        m = 200_000
        hist, _ = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=23))
        chi2 = float(((hist.clicks - m * p) ** 2 / (m * p * (1.0 - p))).sum())
        assert _chi2_within_bounds(chi2, len(p)), f"chi2 = {chi2:.2f}"


    @pytest.mark.parametrize("size", [1, 700, simulator.BLOCK_SIZE])
    def test_block_of_sparse_dense_and_flipped_bins(self, size):
        # Coherent(300): bins 1-7 flip (1-4 certain to fire), and they draw the pulses that
        # miss them as dense bins do, however few they expect: fewer than _SPARSE_PAIRS in
        # blocks of 1 and 700 pulses, and in blocks of BLOCK_SIZE for bins 1-5
        log_miss = self.log_miss(300.0)
        p = np.array([analytic.click_prob_closed(self.CFG, Coherent(300.0), j) for j in range(1, 21)])
        flip = p > 0.5
        assert flip.sum() == 7
        assert (size * (1.0 - p[flip]) < simulator._SPARSE_PAIRS).sum() == (7 if size < 1000 else 5)
        np.testing.assert_array_equal(simulator._pair_probs(log_miss)[0], flip)
        seeds = range(500, 500 + min(4000, 655_360 // size))
        clicks, per_pulse, k_counts, rounds, choices = self.draw_blocks(log_miss, size, seeds)
        # a block draws one rng.choice a dense bin, the 7 flipped ones and, in full blocks only,
        # some that do not flip, and at least one round of gaps for its sparse bins
        assert (choices > 7 * len(seeds)) == (size == simulator.BLOCK_SIZE)
        assert choices >= 7 * len(seeds) and rounds >= len(seeds)
        self.check_closed_forms(p, len(seeds), clicks, per_pulse, k_counts)

    def test_top_up_rounds(self, monkeypatch):
        # with no margin a bin's first gaps often end inside the block; in blocks of 1000 pulses
        # every bin but flipped bin 1 (p = 0.78) is sparse, bin 2 (p = 0.49) among them
        monkeypatch.setattr(simulator, "_GAP_MARGIN", 0.0)
        size, seeds = 1000, range(600, 900)
        p = np.array([analytic.click_prob_closed(self.CFG, Coherent(3.0), j) for j in range(1, 21)])
        np.testing.assert_array_equal(np.flatnonzero(simulator._pair_probs(self.log_miss(3.0))[0]), [0])
        clicks, per_pulse, k_counts, rounds, choices = self.draw_blocks(self.log_miss(3.0), size, seeds)
        self.check_closed_forms(p, len(seeds), clicks, per_pulse, k_counts)
        assert choices == len(seeds)  # bin 1 is the one dense bin: the other 19 draw gaps
        assert rounds > 2 * len(seeds)

    def test_top_up_rounds_in_a_run(self, monkeypatch):
        # without margin a bin's first gaps often end inside the block, in both full blocks and
        # in the partial last one
        source, opts = Coherent(3.0), SimOptions(n_pulses=2 * simulator.BLOCK_SIZE + 5000, seed=700)
        rep = (self.CFG.n_bins + 4) * self.CFG.loop_delay_ps
        monkeypatch.setattr(simulator, "_GAP_MARGIN", 0.0)
        block_rng, counting = simulator._block_rng, []
        monkeypatch.setattr(
            simulator, "_block_rng", lambda *args: counting.append(_CountingRng(block_rng(*args))) or counting[-1]
        )
        stream = simulator.emit_time_tags(self.CFG, source, opts, rep)
        assert len(counting) == 3 and sum(c.rounds for c in counting) > len(counting)
        clicks, k_counts = _record_counts(stream, self.CFG, rep)
        gated = clickstats.ingest_time_tags(stream, self.CFG)
        np.testing.assert_array_equal(gated.histogram.clicks, clicks)
        np.testing.assert_array_equal(gated.pattern_stats.c, k_counts / opts.n_pulses)
        # every pulse of the run is its own index, so the partial block's pulses are tested too
        detector = stream.times_ps[stream.channels == stream.detector_channel]
        per_pulse = np.bincount(detector // rep, minlength=opts.n_pulses)
        p = np.array([analytic.click_prob_closed(self.CFG, source, j) for j in range(1, 21)])
        self.check_closed_forms(p, 1, clicks, per_pulse, k_counts)

    def test_extreme_probabilities_raise_no_warning(self):
        # p = 0, p = 1, a p whose log1p(-p) is subnormal, and a p whose miss probability is
        # subnormal (a flipped bin of subnormal p'); a division that overflowed would raise here
        log_miss = np.array([0.0, -np.inf, -1e-310, -710.0])
        tiny = np.finfo(float).tiny
        assert 0.0 < -log_miss[2] < tiny and 0.0 < np.exp(log_miss[3]) < tiny
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            np.testing.assert_array_equal(simulator._pair_probs(log_miss)[0], [False, True, False, True])
            for size in (1, simulator.BLOCK_SIZE):
                for seed in range(5):
                    counting = _CountingRng(rng(seed))
                    draws = simulator._sample_clicks(counting, size, log_miss)
                    assert counting.choices == 2  # the flipped bins 2 and 4 draw their misses, none
                    np.testing.assert_array_equal(draws.clicks, [0, size, 0, size])
                    np.testing.assert_array_equal(np.bincount(draws.bins, minlength=4), [0, size, 0, size])


class TestPhotonChain:
    """The photon-routing chain is exact for every source that draws photon numbers."""

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)

    @pytest.mark.parametrize(
        "source",
        [Fock(1), Fock(3), Thermal(3.0), LossyFock(1, 0.6), MultiThermal(3.0, 1.8)],
        ids=["fock-1", "fock-3", "thermal-3", "lossyfock", "multithermal"],
    )
    def test_per_bin_clicks_match_closed_form(self, source):
        # LossyFock and MultiThermal have no closed form; the photon-number sum is their oracle
        click_prob = (
            analytic.click_prob_numeric
            if isinstance(source, (LossyFock, MultiThermal))
            else analytic.click_prob_closed
        )
        p = np.array([click_prob(self.CFG, source, j) for j in range(1, 21)])
        m, seeds = 40_000, range(400, 410)
        var = m * p * (1.0 - p)
        chi2, dof = 0.0, 0
        for seed in seeds:
            hist, _ = simulator.simulate_ensemble(
                self.CFG, source, SimOptions(n_pulses=m, seed=seed)
            )
            chi2 += float(((hist.clicks - m * p) ** 2 / var).sum())
            dof += len(p)
        assert _chi2_within_bounds(chi2, dof), f"chi2/dof = {chi2 / dof:.3f} over {dof}"

    def test_k_count_distribution_matches_multinomial_enumeration(self):
        # Fock(2) on 3 bins: enumerate where both photons go (bins 1-3 or lost), then
        # let each bin without a photon fire on a dark count; nu is large enough that
        # dark counts often land on a bin a photon already fired
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.05, n_bins=3)
        cells = np.append(analytic.bin_exit_probs(cfg), 0.0)
        cells[-1] = 1.0 - cells[:-1].sum()
        expected = np.zeros(4)
        for first, second in itertools.product(range(4), repeat=2):
            fired = len({first, second} - {3})
            dark = sps.binom.pmf(np.arange(4 - fired), 3 - fired, cfg.nu)
            expected[fired:] += cells[first] * cells[second] * dark
        m = 200_000
        _, stats = simulator.simulate_ensemble(cfg, Fock(2), SimOptions(n_pulses=m, seed=31))
        chi2 = float(((stats.c * m - expected * m) ** 2 / (expected * m)).sum())
        assert _chi2_within_bounds(chi2, len(expected) - 1), f"chi2 = {chi2:.2f}"

    def test_block_pairs_are_distinct(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.05, n_bins=10)
        draws = simulator._simulate_block(cfg, Fock(5), 4096, rng(32))
        keys = draws.bins * 4096 + draws.pulses
        assert len(np.unique(keys)) == len(keys)
        np.testing.assert_array_equal(draws.clicks, np.bincount(draws.bins, minlength=cfg.n_bins))

    def test_all_photons_lost_gives_no_pairs(self):
        cfg = LoopConfig(mode="active", R=0.5, eta=0.0, nu=0.0, n_bins=20)
        q = analytic.bin_exit_probs(cfg)
        assert not q.any()
        draws = simulator._simulate_block(cfg, Fock(300), 1000, rng(33))
        assert len(draws.pulses) == len(draws.bins) == 0 and not draws.clicks.any()

    def test_empty_tail_raises_no_warning(self):
        # R = 1: every photon leaves into bin 1 and the tail past it is exactly 0;
        # pytest turns a RuntimeWarning from dividing by it into an error
        cfg = LoopConfig(mode="passive", R=1.0, eta=0.9, nu=0.0, n_bins=20)
        q = analytic.bin_exit_probs(cfg)
        assert q[0] == 1.0 and not q[1:].any()
        draws = simulator._simulate_block(cfg, Thermal(3.0), 1000, rng(34))
        pulses, bins = draws.pulses, draws.bins
        assert (bins == 0).all() and len(np.unique(pulses)) == len(pulses)

    def test_block_memory_stays_sparse(self, hdr_config):
        # a dense (pulses, n_bins + 1) int64 matrix of this block alone would be 17 MB
        tracemalloc.start()
        try:
            simulator._simulate_block(hdr_config, Fock(3), simulator.BLOCK_SIZE, rng(35))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"block peaked at {peak / 1e6:.1f} MB"


class TestSinglePhotonKernel:
    """Fock(1) and LossyFock(1, t) route their one photon by one uniform a pulse."""

    CFG = dict(mode="passive", R=0.5, eta=0.9, n_bins=20)

    @pytest.mark.parametrize(
        "source, guard, one_photon",
        [
            (Fock(1), None, True),
            (Fock(1), 1, True),
            (LossyFock(1, 0.6), None, True),
            (LossyFock(1, 0.6), 1, True),
            (Fock(0), None, False),
            (Fock(2), None, False),
            (LossyFock(3, 0.8), None, False),
            (Thermal(3.0), None, False),
            (Fock(1), 0, False),  # a guard of 0 has to see the photon to refuse it
        ],
        ids=["fock-1", "fock-1-guard-1", "lossyfock", "lossyfock-guard-1", "fock-0", "fock-2",
             "lossyfock-3", "thermal-3", "fock-1-guard-0"],
    )
    def test_plan_picks_the_kernel(self, source, guard, one_photon):
        """A block's pairs are its photon pairs, then its dark pairs that repeat none of them."""
        cfg = LoopConfig(**self.CFG, nu=1e-3, n_max_guard=guard)
        size, seed, q = 1000, 43, analytic.bin_exit_probs(cfg)
        if guard == 0:  # only the routing chain sees the photon numbers, and it refuses the photons
            with pytest.raises(GuardExceeded):
                simulator._simulate_block(cfg, source, size, rng(seed))
            return
        draws = simulator._simulate_block(cfg, source, size, rng(seed))
        r = rng(seed)
        if one_photon:  # the first size uniforms, one a pulse, against cumsum(t q_j)
            drawn = np.searchsorted(np.cumsum(q * source.mean_photon_number()), r.random(size), side="right")
            pulses = np.flatnonzero(drawn < cfg.n_bins)
            bins = drawn[pulses]
        else:  # photon numbers, then the routing chain
            pulses, bins = simulator._route_photons(r, source.sample(r, size), q)
        dark = simulator._sample_clicks(r, size, np.full(cfg.n_bins, np.log1p(-cfg.nu)))
        assert len(dark.pulses)
        np.testing.assert_array_equal(draws.pulses[: len(pulses)], pulses)
        np.testing.assert_array_equal(draws.bins[: len(pulses)], bins)
        photon_pairs = set(zip(pulses.tolist(), bins.tolist()))
        dark_pairs = [pair for pair in zip(dark.pulses.tolist(), dark.bins.tolist()) if pair not in photon_pairs]
        assert list(zip(draws.pulses[len(pulses) :].tolist(), draws.bins[len(pulses) :].tolist())) == dark_pairs

    @pytest.mark.parametrize("source", [Fock(1), LossyFock(1, 0.6)], ids=["fock-1", "lossyfock"])
    def test_without_dark_counts_at_most_one_bin_fires(self, source):
        cfg = LoopConfig(**self.CFG, nu=0.0)
        m = 100_000
        _, stats = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=41))
        assert not stats.c[2:].any()
        p = source.mean_photon_number() * analytic.bin_exit_probs(cfg).sum()
        assert abs(stats.c[1] - p) < 4 * math.sqrt(p * (1 - p) / m)

    @pytest.mark.parametrize("source", [Fock(1), LossyFock(1, 0.6)], ids=["fock-1", "lossyfock"])
    def test_mean_k_matches_numeric_sum(self, source):
        cfg = LoopConfig(**self.CFG, nu=1e-3)
        m = 100_000
        _, stats = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=42))
        want = sum(analytic.click_prob_numeric(cfg, source, j) for j in range(1, cfg.n_bins + 1))
        assert abs(stats.mean_c - want) < 4 * math.sqrt(stats.var_c / m)

    @pytest.mark.parametrize("source", [Fock(1), LossyFock(1, 0.6)], ids=["fock-1", "lossyfock"])
    def test_gated_chunks_match_ensemble(self, source):
        cfg = LoopConfig(**self.CFG, nu=1e-3)
        opts = SimOptions(n_pulses=2 * simulator.BLOCK_SIZE + 777, seed=43)
        hist, stats = simulator.simulate_ensemble(cfg, source, opts)
        gate = clickstats.TagGate(cfg)
        rep = (cfg.n_bins + 4) * cfg.loop_delay_ps
        chunks = list(simulator.iter_time_tags(cfg, source, opts, rep))
        assert len(chunks) == 3
        for channels, times, _clicks in chunks:
            gate.feed(channels, times)
        gated = gate.result()
        np.testing.assert_array_equal(gated.histogram.clicks, hist.clicks)
        np.testing.assert_array_equal(gated.pattern_stats.c, stats.c)
        np.testing.assert_array_equal(np.sum([clicks for *_, clicks in chunks], axis=0), hist.clicks)

    def test_guard_of_zero_refuses_a_photon(self):
        cfg = LoopConfig(**self.CFG, nu=1e-3, n_max_guard=0)
        with pytest.raises(GuardExceeded):
            simulator.simulate_ensemble(cfg, Fock(1), SimOptions(n_pulses=1000, seed=44))


class TestFiredCountClasses:
    """Unguarded Coherent ensembles, drawn by fired-count classes, against their exact law.

    The bins fire independently with p_j = 1 - (1 - nu) exp(-q_j nbar), so bin j's clicks are
    Binomial(n, p_j) and a pulse's k is Poisson-binomial over the p_j.
    """

    HDR = LoopConfig(mode="passive", R=0.9137, eta=0.8615, nu=1.2e-7, n_bins=130)
    LOOP_40 = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)

    @pytest.mark.parametrize(
        "cfg, source",
        [
            # bins 1-33 flip (p_j > 1/2), 18 of them certain to fire in all 8e6 pulses
            (HDR, Coherent(208_011.0 / analytic.output_fraction(HDR))),
            (HDR, Coherent(4.5)),
            (LOOP_40, Coherent(2.0)),
        ],
        ids=["hdr-bright", "hdr-attenuated", "loop-40"],
    )
    def test_pooled_runs_follow_the_law(self, cfg, source):
        m, seeds = 20_000, range(400)
        clicks, k_counts = np.zeros(cfg.n_bins), np.zeros(cfg.n_bins + 1)
        for seed in seeds:
            hist, stats = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=seed))
            clicks += hist.clicks
            k_counts += np.rint(stats.c * m)
        n = m * len(seeds)
        q = np.array([analytic.bin_exit_prob(cfg, j) for j in range(1, cfg.n_bins + 1)])
        miss = (1.0 - cfg.nu) * np.exp(-q * source.nbar)
        p = 1.0 - miss
        # per-bin clicks: exact where the rarer outcome is out of reach, a z-score where it is not
        certain = n * np.minimum(p, miss) < 1e-6
        np.testing.assert_array_equal(clicks[certain], np.where(p[certain] > 0.5, n, 0))
        var = n * p * miss
        tested = var > 5.0
        z = (clicks - n * p) / np.sqrt(np.where(tested, var, 1.0))
        worst = np.abs(np.where(tested, z, 0.0)).argmax()
        assert abs(z[worst]) < 5.0, f"bin {worst + 1}: z = {z[worst]:.1f}"
        chi2, dof = _k_count_chi2(k_counts, _poisson_binomial(p) * n)
        assert dof >= 5 and _chi2_within_bounds(chi2, dof), f"k-counts: chi2 = {chi2:.2f} over {dof}"

    def test_few_pair_bins_follow_the_law(self):
        """Bins drawn once, in total, place their few pulses in the right classes.

        Five bins spread 12 pulses over several classes; then 16 bins, every other one flipped,
        each expect 0.9 * _FEW_PAIRS of them to change, so each draws one binomial and most
        place one pulse or more by its index in cumsum(H).
        """
        n, runs = 12, 10_000
        few = 0.9 * simulator._FEW_PAIRS / n
        p = np.array([0.5, 0.3, 0.7, 0.4, 0.6] + [few, 1.0 - few] * 8)
        rng = simulator._block_rng(11, 0)
        k_counts = np.zeros(len(p) + 1)
        for _ in range(runs):
            k_counts += simulator._fired_count_classes(np.log1p(-p), n, rng)[1]
        chi2, dof = _k_count_chi2(k_counts, _poisson_binomial(p) * n * runs)
        assert dof >= 8 and _chi2_within_bounds(chi2, dof), f"k-counts: chi2 = {chi2:.2f} over {dof}"

    @pytest.mark.parametrize(
        "nbar, nu, n_pulses",
        [
            (0.0, 1e-3, 50_000), (0.0, 0.0, 50_000), (0.0, 0.05, 3),
            (2.0, 1e-4, 1), (2.0, 1e-4, 2**62), (1e6, 1e-4, 2**62),
        ],
        ids=["dark-only", "nothing-fires", "few-pairs", "one-pulse", "2**62-pulses", "2**62-saturated"],
    )
    def test_classes_hold_every_pulse_once(self, nbar, nu, n_pulses):
        """Each pulse sits in one class, and a pulse in class k made k of the clicks."""
        cfg = dataclasses.replace(self.LOOP_40, nu=nu)
        hist, stats = simulator.simulate_ensemble(cfg, Coherent(nbar), SimOptions(n_pulses=n_pulses, seed=3))
        assert hist.trials == n_pulses and stats.c.sum() == pytest.approx(1.0)
        log_miss = simulator._coherent_log_miss(cfg, Coherent(nbar))
        clicks, k_counts = simulator._fired_count_classes(log_miss, n_pulses, simulator._block_rng(3, 0))
        np.testing.assert_array_equal(clicks, hist.clicks)
        assert sum(k_counts.tolist()) == n_pulses
        assert sum(k * h for k, h in enumerate(k_counts.tolist())) == sum(clicks.tolist())
        assert (k_counts >= 0).all() and (clicks >= 0).all() and (clicks <= n_pulses).all()
        if nbar == 0.0 and nu == 0.0:
            assert not clicks.any() and k_counts[0] == n_pulses
        if n_pulses == 3:  # every bin draws once, in total, and some bins place a pulse
            assert (n_pulses * simulator._pair_probs(log_miss)[1] < simulator._FEW_PAIRS).all()
            assert clicks.sum() > 0


class TestEmitTimeTags:
    def test_round_trip_reproduces_ensemble(self, splitter_half_config):
        """Gating a clean stream gives the sampled ensemble: the clicks and k-counts of its records."""
        cfg = LoopConfig(
            mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=30
        )
        opts = SimOptions(n_pulses=4_000, seed=42)
        rep = 40 * cfg.loop_delay_ps
        stream = simulator.emit_time_tags(cfg, Coherent(3.0), opts, rep)
        clicks, k_counts = _record_counts(stream, cfg, rep)
        got = clickstats.ingest_time_tags(stream, cfg)
        np.testing.assert_array_equal(got.histogram.clicks, clicks)
        np.testing.assert_array_equal(got.pattern_stats.c, k_counts / opts.n_pulses)
        assert got.n_discarded == 0

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_round_trip_with_saturated_bins(self, n_workers):
        # bins 1-13 fire in every pulse (flipped, no misses) and bins 15-17 are flipped
        # with 37 to 9,700 expected misses: the kernel draws their misses and masks them out
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=30)
        source = Coherent(1e6)
        opts = SimOptions(n_pulses=40_000, seed=17, n_workers=n_workers)
        rep = 40 * cfg.loop_delay_ps
        chunks = list(simulator.iter_time_tags(cfg, source, opts, rep))
        sampled = np.sum([clicks for _channels, _times, clicks in chunks], axis=0)
        assert (sampled[:13] == opts.n_pulses).all()
        assert (0 < opts.n_pulses - sampled[14:17]).all()
        assert (opts.n_pulses - sampled[14:17] < opts.n_pulses // 2).all()
        stream = simulator.emit_time_tags(cfg, source, opts, rep)
        clicks, k_counts = _record_counts(stream, cfg, rep)
        np.testing.assert_array_equal(clicks, sampled)
        got = clickstats.ingest_time_tags(stream, cfg)
        np.testing.assert_array_equal(got.histogram.clicks, sampled)
        np.testing.assert_array_equal(got.pattern_stats.c, k_counts / opts.n_pulses)
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

    @pytest.mark.parametrize(
        "delay, n_pulses, rep",
        [(156_000, 10, 10**20), (156_000, 20, 10**18), (2 * 10**18, 2, 8 * 2 * 10**18)],
        ids=["period-past-int64", "last-pulse-past-int64", "default-period-past-int64"],
    )
    def test_times_past_int64_raise(self, delay, n_pulses, rep):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=4, loop_delay_ps=delay)
        with pytest.raises(ValueError, match="rep_period_ps .* and n_pulses .* int64"):
            simulator.emit_time_tags(cfg, Coherent(3.0), SimOptions(n_pulses=n_pulses), rep)

    @pytest.mark.parametrize("reflection", [None, 78_000])
    def test_last_record_at_the_int64_limit(self, reflection):
        """The last pulse's bin 4, moved by the reflection, may land on 2**63 - 1 ps, not past it."""
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=4)
        art = reflection and ArtifactModel(back_reflection_prob=0.5, reflection_delay_ps=reflection, dead_time_ps=0)
        rep = (1 << 63) - 1 - 4 * cfg.loop_delay_ps - (reflection or 0)
        stream = simulator.emit_time_tags(cfg, Coherent(300.0), SimOptions(n_pulses=2, seed=3), rep, art)
        assert stream.times_ps.max() == (1 << 63) - 1
        with pytest.raises(ValueError, match="rep_period_ps"):
            simulator.emit_time_tags(cfg, Coherent(300.0), SimOptions(n_pulses=2, seed=3), rep + 1, art)

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
                SimOptions(n_pulses=10),
                200 * splitter_half_config.loop_delay_ps,
                art,
            )

    @pytest.mark.parametrize("delay_ps", [154_000, 156_100, 157_999, 1_999, 129 * 156_000 + 1_999])
    def test_reflection_delay_beside_a_bin_centre_must_miss_gates(self, splitter_half_config, delay_ps):
        """Within half a gate of bin j + k's centre, k < n_bins, a spur lands in that bin's gate."""
        art = ArtifactModel(back_reflection_prob=0.1, reflection_delay_ps=delay_ps, dead_time_ps=0)
        with pytest.raises(ValueError, match="reflection_delay_ps"):
            simulator.emit_time_tags(
                splitter_half_config, Coherent(3.0), SimOptions(n_pulses=10), 200 * 156_000, art
            )

    def test_reflection_delay_on_a_gate_edge_leaves_the_clicks(self):
        """Spurs 158,000 ps late sit on the next bin's right gate edge, which the gate excludes."""
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)
        art = ArtifactModel(back_reflection_prob=0.5, reflection_delay_ps=158_000, dead_time_ps=0)
        opts, rep = SimOptions(n_pulses=5_000, seed=1), 44 * cfg.loop_delay_ps
        stream = simulator.emit_time_tags(cfg, Coherent(2.0), opts, rep, art)
        gated = clickstats.ingest_time_tags(stream, cfg)
        clean = simulator.emit_time_tags(cfg, Coherent(2.0), opts, rep)
        assert gated.n_discarded > 1_000
        np.testing.assert_array_equal(gated.histogram.clicks, _record_counts(clean, cfg, rep)[0])

    def test_sync_precedes_detector_record_at_same_time(self):
        # a 1-bin loop: spurs of its records land exactly on the next sync, in no gate:
        # 156000 + 6708001 = 6864001
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=1)
        art = ArtifactModel(back_reflection_prob=0.3, reflection_delay_ps=6_708_001, dead_time_ps=0)
        stream = simulator.emit_time_tags(
            cfg, Coherent(3.0), SimOptions(n_pulses=5_000, seed=5), 6_864_001, art
        )
        sync = stream.channels == stream.sync_channel
        ties = np.isin(stream.times_ps[~sync], stream.times_ps[sync]).sum()
        assert ties > 500
        # already in (time, channel) order: the stable two-key sort leaves it as it is
        order = np.lexsort((stream.channels, stream.times_ps))
        np.testing.assert_array_equal(order, np.arange(stream.n_records))


def _whole_stream_tags(config, source, opts, rep_period_ps, artifact):
    """Reference emitter: every detector time at once, one global sort, dead time and sync merge."""
    delay, rep = np.int64(config.loop_delay_ps), np.int64(rep_period_ps)
    det = []
    blocks = simulator._map_blocks(config, source, opts, lambda _block, draws: draws)
    for block, draws in enumerate(blocks):
        t = (block * simulator.BLOCK_SIZE + draws.pulses) * rep + (draws.bins + 1) * delay
        if artifact and len(t):
            art_rng = simulator._block_rng(opts.seed, block, key_offset=simulator._ARTIFACT_KEY_OFFSET)
            spur = t[art_rng.random(len(t)) < artifact.back_reflection_prob]
            t = np.concatenate([t, spur + np.int64(artifact.reflection_delay_ps)])
        det.append(t)
    det = np.sort(np.concatenate(det))
    if artifact and artifact.dead_time_ps > 0 and len(det) > 1:
        keep = np.ones(len(det), dtype=bool)
        keep[1:] = np.diff(det) >= artifact.dead_time_ps
        det = det[keep]
    # sorted by time, with a detector record after every sync at or before its time
    sync = np.arange(opts.n_pulses, dtype=np.int64) * rep
    times = np.concatenate([sync, det])
    channels = np.concatenate([np.zeros(len(sync), dtype=np.int64), np.ones(len(det), dtype=np.int64)])
    order = np.lexsort((channels, times))
    return channels[order], times[order]


class TestTagChunks:
    """``iter_time_tags`` emits block by block what a whole-stream emitter emits."""

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=6, loop_delay_ps=100_000)
    REP = 800_001
    BLOCK_PS = simulator.BLOCK_SIZE * REP

    @pytest.mark.parametrize(
        "n_bins, artifact",
        [
            (6, None),
            # a 1-bin loop: spurs of its records land exactly on a sync BLOCK_SIZE + 3 pulses
            # later, in no gate: two blocks on, and on a block's first sync among them
            (1, ArtifactModel(0.9, (simulator.BLOCK_SIZE + 3) * REP - 100_000, 0)),
            # spurs more than two blocks later, and a dead time of 5 periods over every block edge
            (6, ArtifactModel(0.2, 2 * BLOCK_PS + 250_001, 5 * REP)),
            (6, ArtifactModel(0.1, 250_001, 150_000)),
        ],
        ids=["clean", "spurs-on-syncs-blocks-later", "long-delay-long-dead-time", "short"],
    )
    @pytest.mark.parametrize("source", [Coherent(3.0), LossyFock(1, 0.6)], ids=["coherent", "lossyfock"])
    def test_chunks_match_whole_stream_reference(self, n_bins, artifact, source):
        config = dataclasses.replace(self.CFG, n_bins=n_bins)
        opts = SimOptions(n_pulses=3 * simulator.BLOCK_SIZE + 50, seed=8)
        chunks = list(simulator.iter_time_tags(config, source, opts, self.REP, artifact))
        assert len(chunks) == 4
        for block, (channels, times, _clicks) in enumerate(chunks[1:], start=1):
            # each chunk opens with its block's first sync
            assert (channels[0], times[0]) == (0, block * self.BLOCK_PS)
        channels, times, clicks = zip(*chunks)
        channels, times = np.concatenate(channels), np.concatenate(times)
        want_channels, want_times = _whole_stream_tags(config, source, opts, self.REP, artifact)
        if artifact:
            assert clicks == (None,) * 4
        else:  # the sampled clicks, as the kernel counted them: those of the records
            want = TimeTagStream(channels=want_channels, times_ps=want_times)
            np.testing.assert_array_equal(np.sum(clicks, axis=0), _record_counts(want, config, self.REP)[0])
        np.testing.assert_array_equal(times, want_times)
        np.testing.assert_array_equal(channels, want_channels)
        stream = simulator.emit_time_tags(config, source, opts, self.REP, artifact)
        np.testing.assert_array_equal(stream.times_ps, want_times)
        np.testing.assert_array_equal(stream.channels, want_channels)

    def test_spurs_tie_block_first_syncs(self):
        """The delay of the reference case above puts detector records on a later block's first sync.

        Such a record is the spur of a bin-1 record BLOCK_SIZE + 3 pulses earlier, on the same
        1-bin loop. Coherent(50) misses bin 1 with probability 1.4e-11 and a spur is missing with
        probability 1e-9, so whatever the draw, both later blocks that can have the tie have it.
        """
        config = dataclasses.replace(self.CFG, n_bins=1)
        artifact = ArtifactModel(1.0 - 1e-9, (simulator.BLOCK_SIZE + 3) * self.REP - 100_000, 0)
        opts = SimOptions(n_pulses=3 * simulator.BLOCK_SIZE + 50, seed=8)
        chunks = list(simulator.iter_time_tags(config, Coherent(50.0), opts, self.REP, artifact))
        for channels, times, _clicks in chunks[2:]:
            assert (channels[1], times[1]) == (1, times[0])

    def test_blocks_simulated_as_chunks_are_asked_for(self, monkeypatch):
        calls = []
        simulate_block = simulator._simulate_block
        monkeypatch.setattr(
            simulator, "_simulate_block", lambda *args: calls.append(1) or simulate_block(*args)
        )
        opts = SimOptions(n_pulses=5 * simulator.BLOCK_SIZE, seed=1)
        chunks = simulator.iter_time_tags(self.CFG, Coherent(3.0), opts, self.REP)
        assert calls == []
        next(chunks)
        assert len(calls) == 1
        next(chunks)
        assert len(calls) == 2

    def test_arguments_checked_before_iteration(self):
        with pytest.raises(ValueError, match="rep_period_ps"):
            simulator.iter_time_tags(self.CFG, Coherent(3.0), SimOptions(n_pulses=10), 10)


class TestBackReflectionArtifact:
    """Dead time from spurious back-reflections undercounts early bins."""

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=40)
    SRC = Coherent(1000.0)

    def _run(self, artifact, m=20_000):
        opts = SimOptions(n_pulses=m, seed=77)
        stream = simulator.emit_time_tags(self.CFG, self.SRC, opts, 50 * self.CFG.loop_delay_ps, artifact)
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


class TestOptionChecks:
    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: ArtifactModel(0.1, 0, 0), "reflection_delay_ps must be positive"),
            (lambda: ArtifactModel(0.1, -5, 0), "reflection_delay_ps must be positive"),
            (lambda: ArtifactModel(0.1, 78_000, -7), r"dead_time_ps must be in \[0, 2\*\*63\)"),
            (lambda: ArtifactModel(0.1, 78_000, 1 << 63), r"dead_time_ps must be in \[0, 2\*\*63\)"),
            (lambda: SimOptions(n_pulses=-1), "n_pulses must be non-negative"),
            (lambda: SimOptions(n_pulses=1 << 63), r"n_pulses must be non-negative and below 2\*\*63"),
            (lambda: SimOptions(n_pulses=10**19), r"n_pulses must be non-negative and below 2\*\*63"),
            (lambda: SimOptions(n_pulses=10, seed=-1), "seed must be a 64-bit"),
            (lambda: SimOptions(n_pulses=10, seed=2**64), "seed must be a 64-bit"),
            (lambda: SimOptions(n_pulses=10, n_workers=0), "n_workers must be >= 1"),
            (
                lambda: simulator.simulate_ensemble(
                    LoopConfig(mode="passive", R=0.5, eta=0.9, nu=0.0), Coherent(1.0), SimOptions(n_pulses=0)
                ),
                "n_pulses must be >= 1",
            ),
        ],
        ids=[
            "delay-0", "delay-negative", "dead-time-negative", "dead-time-2**63",
            "pulses", "pulses-2**63", "pulses-10**19", "seed-negative", "seed-2**64", "workers",
            "ensemble-pulses",
        ],
    )
    def test_out_of_range_option_raises(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestBlockRng:
    @pytest.mark.parametrize("seed", [2024, 2**64 - 1])
    @pytest.mark.parametrize("key_offset", [0, simulator._ARTIFACT_KEY_OFFSET])
    @pytest.mark.parametrize("block", [0, 7, 2**40])
    def test_same_stream_as_jumped_philox(self, seed, key_offset, block):
        jumped = np.random.Generator(np.random.Philox(key=seed + key_offset).jumped(block))
        got = simulator._block_rng(seed, block, key_offset)
        assert np.array_equal(got.integers(0, 2**63, 64), jumped.integers(0, 2**63, 64))
        assert np.array_equal(got.random(64), jumped.random(64))


class TestSeededOutputs:
    """SHA-256 pins of seeded outputs, so a kernel change cannot alter them silently.

    The unguarded coherent ensembles date from version 0.13.0, which draws
    them by fired-count classes; the hdr_calibration ones from 0.15.0, which
    draws a bin that few pulses change once. The Coherent(300) tag stream
    with artifacts dates from 0.14.0, which draws every bin of p > 1/2 as a
    dense one; the stream of the file_pipeline leg, pinned then, is the draw
    of 0.13.0 too.
    The LossyFock(1, 0.6) ones date from 0.12.0, which draws one uniform a
    pulse; the others, guarded Coherent light included, from 0.9.0, which
    draws sparse bins by geometric gaps. The ensemble ones hold for any worker count. The
    simulate_pulse ones, blocks of one pulse, were computed with version 0.15.0 and added in
    0.16.0, which draws the same. A change that means to draw differently updates them and
    bumps the version.
    """

    CFG = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)
    OPTS = dict(n_pulses=40_000, seed=2024)
    # the hdr_calibration loop, and its bright source: n_out = 208,011 photons a pulse
    HDR = LoopConfig(mode="passive", R=0.9137, eta=0.8615, nu=1.2e-7, n_bins=130)
    HDR_BRIGHT = Coherent(208_011.0 / analytic.output_fraction(HDR))
    # the loop of file_pipeline's tagged coherent leg
    LOOP_40 = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)

    @pytest.mark.parametrize(
        "source, guard, digest",
        [
            (Coherent(3.0), None, "19f62360e34b073a862de4faf77f9928323d31f439fcabf08c17a2bbf9dd666a"),
            (Coherent(300.0), None, "d0dc08229e22c03c35c93f6b69c64e328f74b90be36465ff02d647ad6899f80f"),
            (Coherent(1e6), None, "df9fb40fb17e26adb85c2294e98544806dfcf7629ab7eb339deeb21691ad875b"),
            (LossyFock(1, 0.6), None, "dd876a865977aa087be214584fbf1376ff43593b6620c5c91f72f920785131dd"),
            # the routing chain's sources, pinned at version 0.11.0, and guarded Coherent light
            # at 0.12.0: the chain draws its pulses as it did before the class kernel came
            (Fock(3), None, "8f09e974fba95246d964321cc59ab941bb474514838adc5cfcb4bc954c919a81"),
            (Thermal(3.0), None, "92cb21bba1b23a178a66f48c5ef63848afac92b235658ce4608293d531eb7a93"),
            (Coherent(3.0), 40, "ffd6bf42c6e8106465ca4d01d7a3c6356845dd85a266855f0b98dd5ff0826f73"),
        ],
        ids=[
            "coherent-3", "coherent-300", "coherent-1e6", "lossyfock", "fock-3", "thermal-3", "coherent-3-guarded"
        ],
    )
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ensemble_digest(self, source, guard, digest, n_workers):
        cfg = dataclasses.replace(self.CFG, n_max_guard=guard)
        hist, stats = simulator.simulate_ensemble(cfg, source, SimOptions(**self.OPTS, n_workers=n_workers))
        k_counts = np.rint(stats.c * hist.trials).astype("<i8")
        got = hashlib.sha256(hist.clicks.astype("<i8").tobytes() + k_counts.tobytes())
        assert got.hexdigest() == digest

    @pytest.mark.parametrize(
        "source, digest",
        [
            (HDR_BRIGHT, "ce5176b7edc3e9f19cd46abfab54ca67bf4bbd66011d2d117ff54b26cceb8345"),
            (Coherent(4.5), "4b73c423272380964c7904eec05259c384107867658f9dbd3b8c981428d7a84c"),
        ],
        ids=["hdr-bright", "hdr-attenuated"],
    )
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_hdr_ensemble_digest(self, source, digest, n_workers):
        """The hdr_calibration loop's two legs, pinned at version 0.15.0."""
        hist, stats = simulator.simulate_ensemble(
            self.HDR, source, SimOptions(**self.OPTS, n_workers=n_workers)
        )
        k_counts = np.rint(stats.c * hist.trials).astype("<i8")
        got = hashlib.sha256(hist.clicks.astype("<i8").tobytes() + k_counts.tobytes())
        assert got.hexdigest() == digest

    @pytest.mark.parametrize(
        "source, digest",
        [
            (Coherent(3.0), "7e8729389bbfd3813bb5624eeaec466b32f50e4eb3c315f40a65e9819fcf14dd"),
            (Thermal(3.0), "97354c1a44cb56a2f5721f28a83c4230cc0ac49cc4496cad8a16254714242a77"),
            (LossyFock(1, 0.6), "799abb8e4dafbad07b3f8d449d2f97f6127c88fb7f15333d0e5640b56359114b"),
        ],
        ids=["coherent-3", "thermal-3", "lossyfock"],
    )
    def test_simulate_pulse_digest(self, source, digest):
        """2,000 consecutive single pulses from one generator, each a block of one pulse."""
        r, fired = rng(self.OPTS["seed"]), np.zeros((2000, self.CFG.n_bins), dtype=np.uint8)
        for i in range(len(fired)):
            for j in simulator.simulate_pulse(self.CFG, source, r):
                fired[i, j - 1] = 1
        assert hashlib.sha256(fired.tobytes()).hexdigest() == digest

    def test_hdr_bright_tags_match_ensemble(self):
        # a full bright block holds bins of every class: 46 dense (one rng.choice each), 33 of
        # them flipped, and the other 84 sparse, drawn by gaps
        flip, p = simulator._pair_probs(simulator._coherent_log_miss(self.HDR, self.HDR_BRIGHT))
        sparse = ~flip & (p > 0) & (simulator.BLOCK_SIZE * p < simulator._SPARSE_PAIRS)
        counting = _CountingRng(rng(0))
        simulator._simulate_block(self.HDR, self.HDR_BRIGHT, simulator.BLOCK_SIZE, counting)
        assert (counting.choices, flip.sum(), sparse.sum()) == (46, 33, 84)
        assert counting.choices + sparse.sum() == self.HDR.n_bins and counting.rounds >= 1
        opts = SimOptions(**self.OPTS)
        gate = clickstats.TagGate(self.HDR)
        rep = (self.HDR.n_bins + 4) * self.HDR.loop_delay_ps
        sampled, parts = np.zeros(self.HDR.n_bins, dtype=np.int64), []
        for channels, times, clicks in simulator.iter_time_tags(self.HDR, self.HDR_BRIGHT, opts, rep):
            gate.feed(channels, times)
            sampled += clicks
            parts.append((channels, times))
        gated = gate.result()
        channels, times = (np.concatenate(part) for part in zip(*parts))
        clicks, k_counts = _record_counts(TimeTagStream(channels=channels, times_ps=times), self.HDR, rep)
        np.testing.assert_array_equal(clicks, sampled)
        np.testing.assert_array_equal(gated.histogram.clicks, sampled)
        np.testing.assert_array_equal(gated.pattern_stats.c, k_counts / opts.n_pulses)

    @pytest.mark.parametrize(
        "config, source, n_pulses, rep, artifact, digest",
        [
            (
                CFG, Coherent(300.0), 40_000, 4_000_000,
                ArtifactModel(back_reflection_prob=0.05, reflection_delay_ps=50_000, dead_time_ps=100_000),
                "4596b1cd1cbd65562e578907544f583f927b543f70abb36c54cecb61a1b85aee",
            ),
            (CFG, LossyFock(1, 0.6), 40_000, 4_000_000, None,
             "f3d864a8a142a65a989f0c585e1753b4d44a772ebc003ae2d1221ba3199fec7e"),
            # 12 full blocks and a partial one of 3,392 pulses, at the CLI's default period
            (LOOP_40, Coherent(2.0), 200_000, 44 * LOOP_40.loop_delay_ps, None,
             "eb68fb062a53fa336d79e4ac46ec7bc9f80982147dac24dd3cb37c9c70069e50"),
        ],
        ids=["coherent-artifact", "lossyfock", "file-pipeline-coherent"],
    )
    def test_tag_stream_digest(self, config, source, n_pulses, rep, artifact, digest):
        opts = SimOptions(n_pulses=n_pulses, seed=self.OPTS["seed"])
        stream = simulator.emit_time_tags(config, source, opts, rep, artifact)
        got = hashlib.sha256(
            np.asarray(stream.channels, "<i8").tobytes() + np.asarray(stream.times_ps, "<i8").tobytes()
        )
        assert got.hexdigest() == digest
