"""Pulse-level Monte Carlo of the loop detector.

Photons route independently, so one block of pulses is sampled by one of
two exact kernels:

* Coherent light without an ``n_max_guard``: by Poisson splitting the bins
  are independent, and bin j fires with p_j = 1 - (1 - nu) exp(-q_j nbar),
  dark counts included. Each bin is sampled sparsely, at a cost of
  O(min(clicks, misses)): a bin with p_j > 1/2 is *flipped*, and its drawn
  pulses are the ones that miss. A *dense* bin, one that expects many
  drawn pulses, takes a binomial number of pulses and then that many
  distinct pulses; all *sparse* bins of a block are drawn at once, by
  geometric gaps between their pulses.
* Every other source, and Coherent light under a guard (the guard needs the
  per-pulse photon numbers): each pulse draws a photon number and one
  conditional-binomial chain routes the photons, lost ones first and then
  bin by bin, over only the pulses that still hold photons. The dark counts
  come from the per-bin kernel with p_j = nu and are merged with the photon
  pairs sparsely; no (pulses, bins) array is built.

All that the per-bin kernel works out before its first draw (which bins
flip, which are dense or sparse, the gap counts and the first round of
gaps' fixed arrays) is a plan, made once per call and block size and shared
by every block of that size. A block's output is its clicks per bin and its
(pulse, bin) pairs, each filed as a hit or, for a flipped bin, a miss as it
is drawn. The ensemble tallies that encoding directly, in O(min(clicks,
misses)): a pulse's k-count is the number of flipped bins plus its hits
minus its misses. Only the time-tag emitter, whose output is O(clicks)
anyway, expands misses into clicks (``_hit_pairs``). Both run their blocks
through one block map, ``_map_blocks``. Randomness comes from counter-based
Philox streams keyed by the seed and jumped per fixed-size pulse block, so
histograms and tag streams are bit-identical for a given seed no matter how
many workers run the blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import analytic
from .errors import GuardExceeded
from .models import (
    ClickHistogram,
    ClickPatternStats,
    Coherent,
    LoopConfig,
    PhotonSource,
    TimeTagStream,
)

__all__ = [
    "ArtifactModel",
    "SimOptions",
    "SimulationResult",
    "simulate_pulse",
    "simulate_ensemble",
    "emit_time_tags",
    "iter_time_tags",
]

#: Pulses per RNG block. Fixed so that outputs are independent of worker count.
BLOCK_SIZE = 16384

#: Key offset separating the artifact RNG stream from the pattern stream.
_ARTIFACT_KEY_OFFSET = 1 << 64

#: Expected pairs per block, size * min(p, 1 - p), below which :func:`_sample_clicks` draws a
#: bin by geometric gaps, with the block's other sparse bins, and not by rng.choice.
# Gaps beat a binomial plus rng.choice up to ~1,024 pairs a bin (8 such bins beside 130 dark ones:
# 207-211 vs 227-233 us a block), not at 1,536 (500-542 vs 262 us); whole hdr_calibration and
# 40-bin blocks ran flat from a cutoff of 512 to 1,024 (numpy 2.4, 2 vCPUs)
_SPARSE_PAIRS = 512

#: A sparse bin expecting mu pairs first draws ceil(mu + _GAP_MARGIN * (sqrt(mu) + 1)) gaps;
#: at 4 about one hdr_calibration block in 3,000 draws a second round.
_GAP_MARGIN = 4.0


@dataclass(frozen=True)
class ArtifactModel:
    """Back-reflection and dead-time imperfections of the physical setup.

    Every detector record spawns, with probability ``back_reflection_prob``,
    a spurious record ``reflection_delay_ps`` later (outside the gates).
    Any record, kept or suppressed, then blinds the detector for
    ``dead_time_ps`` (paralyzable dead time: a record is kept only when the
    gap to the immediately preceding record is at least ``dead_time_ps``).
    Spurious spawns are drawn before suppression is applied.
    """

    back_reflection_prob: float
    reflection_delay_ps: int
    dead_time_ps: int

    def __post_init__(self):
        if not 0.0 <= self.back_reflection_prob < 1.0:
            raise ValueError(
                f"back_reflection_prob must be in [0, 1), got {self.back_reflection_prob}"
            )
        if self.reflection_delay_ps <= 0:
            raise ValueError(
                f"reflection_delay_ps must be positive, got {self.reflection_delay_ps}"
            )
        if self.dead_time_ps < 0:
            raise ValueError(f"dead_time_ps must be non-negative, got {self.dead_time_ps}")


@dataclass(frozen=True)
class SimOptions:
    """Run options every Monte Carlo entry point honours.

    ``n_pulses`` pulses are drawn from Philox streams keyed by ``seed``, in
    blocks of ``BLOCK_SIZE`` spread over ``n_workers`` threads; the output
    does not depend on ``n_workers``. Two workers are barely faster than one
    on either sampling kernel, since a block is a few milliseconds of short
    numpy calls under the interpreter lock: ``emit_time_tags`` of 200,000
    pulses took 60-64 -> 55-57 ms for LossyFock(1, 0.6) and 41-47 -> 48-52 ms
    for Coherent(2) (medians of 11 in two rounds, 40-bin loop, 2 shared
    vCPUs, numpy 2.4.6).
    """

    n_pulses: int
    seed: int = 0
    n_workers: int = 1

    def __post_init__(self):
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be non-negative, got {self.n_pulses}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class SimulationResult:
    """Ensemble output; unpacks as (histogram, pattern_stats)."""

    histogram: ClickHistogram
    pattern_stats: ClickPatternStats

    def __iter__(self):
        return iter((self.histogram, self.pattern_stats))


def _block_rng(seed: int, block_index: int, key_offset: int = 0) -> np.random.Generator:
    # the stream of Philox(key=...).jumped(block_index): a jump adds 1 to counter word 2
    bit_generator = np.random.Philox(key=seed + key_offset, counter=[0, 0, block_index, 0])
    return np.random.Generator(bit_generator)


def _check_guard(config: LoopConfig, ns: np.ndarray):
    guard = config.n_max_guard
    if guard is not None and bool((ns > guard).any()):
        raise GuardExceeded(
            f"pulse drew {int(ns.max())} photons, above the guard of {guard}"
        )


class _GapRound(NamedTuple):
    """The part of one round of geometric gaps that no draw changes.

    The round draws for the plan's sparse bins ``sparse[todo]``, ``counts[i]``
    gaps for bin ``todo[i]``, one bin after another. Gap g belongs to bin
    ``bins[g]``, its pair is a miss when ``miss[g]``, it divides by
    log(1 - p') ``log_skips[g]`` and its ratio is capped at ``caps[g]``.
    ``ends`` indexes each bin's last gap.
    """

    todo: np.ndarray
    counts: np.ndarray
    ends: np.ndarray
    bins: np.ndarray
    miss: np.ndarray
    log_skips: np.ndarray
    caps: np.ndarray


class _Plan(NamedTuple):
    """What the block kernel works out before its first draw, for blocks of ``size`` pulses.

    Made once per call and block size, by :func:`_plan_bins` or
    :func:`_plan_block`, and only read by the blocks. Bin j draws pairs with
    p' = min(p_j, 1 - p_j), and ``flip`` marks p_j > 1/2, whose pairs are
    misses. Each ``dense`` bin draws Binomial(size, ``p_dense``) pairs,
    misses where ``dense_flip``. The ``sparse`` bins, ascending, draw
    geometric gaps with log(1 - p') ``log_skip``, ``n_gaps`` each in the
    first round, whose fixed part is ``first`` (None without sparse bins).
    ``route`` is q_j when the photons go through the routing chain and the
    kernel draws only the dark counts; it is None when the kernel draws the
    photons too.
    """

    size: int
    flip: np.ndarray
    dense: np.ndarray
    dense_flip: np.ndarray
    p_dense: np.ndarray
    sparse: np.ndarray
    log_skip: np.ndarray
    n_gaps: np.ndarray
    first: Optional[_GapRound] = None
    route: Optional[np.ndarray] = None

    def gap_round(self, todo: np.ndarray) -> _GapRound:
        """The fixed part of a round of gaps for the sparse bins ``sparse[todo]``."""
        counts = self.n_gaps[todo]
        bins = self.sparse[todo]
        log_skips = np.repeat(self.log_skip[todo], counts)
        # a gap over size pulses passes the block's end all the same: capping the ratio at
        # size + 1 keeps a subnormal log1p(-p') from overflowing it
        caps = (self.size + 1) * log_skips
        miss = np.repeat(self.flip[bins], counts)
        return _GapRound(todo, counts, np.cumsum(counts) - 1, np.repeat(bins, counts), miss, log_skips, caps)


class _Draws(NamedTuple):
    """One block's clicks, as they were drawn.

    ``clicks`` holds each bin's clicks in the block's ``size`` pulses. The
    (pulse, bin) pairs come in parts ``(bins, pulses)``, where ``bins`` is
    one bin or one bin per pulse. A pair in ``hits`` is a click; one in
    ``misses`` is a pulse that a ``flip`` bin misses, and a flipped bin fires
    in every other pulse of the block.
    """

    size: int
    flip: np.ndarray
    clicks: np.ndarray
    hits: list
    misses: list


def _concat(parts: list) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _plan_bins(size: int, log_miss: np.ndarray) -> _Plan:
    """The :class:`_Plan` of :func:`_sample_clicks` for bins of log no-click probability ``log_miss``."""
    hit = -np.expm1(log_miss)
    miss = np.exp(log_miss)
    flip = miss < hit
    p = np.where(flip, miss, hit)
    expected = size * p
    dense = np.flatnonzero(expected >= _SPARSE_PAIRS)
    sparse = np.flatnonzero((expected > 0) & (expected < _SPARSE_PAIRS))
    # log(1 - p') per sparse bin, from whichever of log_miss and miss holds it exactly
    log_skip = log_miss[sparse]
    flipped = flip[sparse]
    log_skip[flipped] = np.log1p(-miss[sparse[flipped]])
    mean = expected[sparse]
    n_gaps = np.ceil(mean + _GAP_MARGIN * (np.sqrt(mean) + 1.0)).astype(np.int64)
    plan = _Plan(size, flip, dense, flip[dense], p[dense], sparse, log_skip, n_gaps)
    return plan._replace(first=plan.gap_round(np.arange(len(sparse))) if len(sparse) else None)


def _sample_clicks(rng: np.random.Generator, plan: _Plan) -> _Draws:
    """Sample independent per-bin clicks for ``plan.size`` pulses, sparsely.

    Bin j fires in each pulse independently with probability
    1 - exp(log_miss[j]), for the ``log_miss`` the plan was made from;
    taking the log of the no-click probability keeps both tails exact. A bin
    with p > 1/2 is flipped: its pairs are the pulses that *miss* it, drawn
    with probability 1 - p. So each bin draws pairs with p' = min(p, 1 - p),
    in one of two ways:

    * a *dense* bin, which expects at least ``_SPARSE_PAIRS`` pairs
      (size * p'), draws k ~ Binomial(size, p') and picks k distinct pulses;
    * all *sparse* bins at once draw geometric gaps: a bin's next pair is
      ``floor(log1p(-U) / log1p(-p')) + 1`` pulses after its last, for U
      uniform on [0, 1), and its pairs are the gaps' running sums that fall
      inside the block. Each bin first draws ceil(mu + ``_GAP_MARGIN`` *
      (sqrt(mu) + 1)) gaps, mu = size * p' being its expected pairs; the few
      bins whose gaps end inside the block draw again from where they
      stopped, until every bin has passed the block's end.

    Both ways make every (pulse, bin) a pair with probability p', all
    independently. Each pair is filed as a hit or a miss as it is drawn, and
    each bin's clicks are counted from its pairs: its k, or the sparse pairs
    it drew, taken from ``size`` when it is flipped. A flipped bin without
    pairs fires in every pulse.
    """
    size = plan.size
    pairs = np.zeros(len(plan.flip), dtype=np.int64)  # per bin
    hits, misses = [], []
    ks = rng.binomial(size, plan.p_dense)
    pairs[plan.dense] = ks
    for j, flipped, k in zip(plan.dense.tolist(), plan.dense_flip.tolist(), ks.tolist()):
        (misses if flipped else hits).append((j, rng.choice(size, k, replace=False, shuffle=False)))
    start = np.zeros(len(plan.sparse), dtype=np.int64)  # the pulse each bin's next gap counts from
    gaps = plan.first
    while gaps is not None:
        ratio = np.log1p(-rng.random(len(gaps.log_skips)))
        np.maximum(ratio, gaps.caps, out=ratio)
        ratio /= gaps.log_skips
        at = ratio.astype(np.int64)  # the floor, as ratio >= 0
        at += 1
        np.cumsum(at, out=at)
        # each bin's running sum of gaps from its start; a pair's pulse is that sum minus 1
        at -= np.repeat(np.concatenate(([0], at[gaps.ends[:-1]])) - start[gaps.todo] + 1, gaps.counts)
        inside = at < size
        for part, kept in ((hits, inside & ~gaps.miss), (misses, inside & gaps.miss)):
            bins = gaps.bins[kept]
            part.append((bins, at[kept]))
            pairs += np.bincount(bins, minlength=len(pairs))
        start[gaps.todo] = at[gaps.ends] + 1
        todo = gaps.todo[start[gaps.todo] < size]
        gaps = plan.gap_round(todo) if len(todo) else None
    return _Draws(size, plan.flip, np.where(plan.flip, size - pairs, pairs), hits, misses)


def _hit_pairs(draws: _Draws) -> tuple[np.ndarray, np.ndarray]:
    """Expand :class:`_Draws` into its (pulse, bin) click pairs.

    The pairs in ``hits`` are clicks and stay as they are. The ``misses`` of
    the flipped bins are cleared from one (flipped bins, size) mask whose
    other entries are their clicks. The pairs may come in any order, within
    a part and across parts, and the clicks come out in no particular order.
    Costs O(size) per flipped bin.
    """
    pulses = [p for _j, p in draws.hits]
    bins = [np.broadcast_to(j, p.shape) for j, p in draws.hits]
    flipped = np.flatnonzero(draws.flip)
    if len(flipped):
        row = np.cumsum(draws.flip) - 1  # a flipped bin's row of the mask
        fires = np.ones((len(flipped), draws.size), dtype=bool)
        for j, p in draws.misses:
            fires[row[j], p] = False
        per_row = np.count_nonzero(fires, axis=1)
        pulses.append(np.flatnonzero(fires) - np.repeat(np.arange(len(flipped)) * draws.size, per_row))
        bins.append(np.repeat(flipped, per_row))
    return _concat(pulses), _concat(bins)


def _route_photons(
    rng: np.random.Generator, ns: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Route ``ns[i]`` photons of each pulse i over the bins: its fired (pulse, bin) pairs.

    Exact for any photon numbers, by a conditional-binomial chain. First
    m ~ Binomial(ns, sum(q)) photons of each pulse leave into some bin; the
    rest are lost, and pulses with m = 0 drop out. Then bin j takes
    k_j ~ Binomial(n_left, q_j / sum_{i>=j} q_i) of the photons still left,
    vectorised over the pulses that have any, and a pulse drops out once
    all its photons are placed. Returns 0-based ``(pulses, bins)``, sorted
    by bin and then pulse, one pair per bin that caught at least one photon.
    """
    tail = np.cumsum(q[::-1])[::-1]
    split = np.divide(q, tail, out=np.zeros_like(q), where=tail > 0)
    left = rng.binomial(ns, min(tail[0], 1.0))
    alive = np.flatnonzero(left)
    left = left[alive]
    pulses, counts = [], []
    for p in split:
        if not len(alive):
            break
        k = rng.binomial(left, p)
        hit = np.flatnonzero(k)
        pulses.append(alive[hit])
        counts.append(len(hit))
        left -= k
        more = left > 0
        alive, left = alive[more], left[more]
    if not pulses:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pulses), np.repeat(np.arange(len(counts)), counts)


def _plan_block(config: LoopConfig, source: PhotonSource, size: int) -> _Plan:
    """The :class:`_Plan` of :func:`_simulate_block` for blocks of ``size`` pulses.

    Unguarded Coherent light plans the per-bin kernel over its photons and
    dark counts together. Every other source, and Coherent light under a
    guard (the guard needs the per-pulse photon numbers), plans the kernel
    over the dark counts alone, p_j = nu, and routes its photons by q_j.
    """
    q = analytic.bin_exit_probs(config)
    log_no_dark = np.full(config.n_bins, np.log1p(-config.nu))
    if isinstance(source, Coherent) and config.n_max_guard is None:
        return _plan_bins(size, log_no_dark - q * source.nbar)
    return _plan_bins(size, log_no_dark)._replace(route=q)


def _simulate_block(
    config: LoopConfig, source: PhotonSource, plan: _Plan, rng: np.random.Generator
) -> _Draws:
    """The :class:`_Draws` of one block of ``plan.size`` pulses.

    Without a ``plan.route`` this is the per-bin kernel, dark counts
    included. With one, the block draws photon numbers, routes them with
    :func:`_route_photons` and adds the dark counts of the per-bin kernel,
    dropping a dark pair that repeats a photon pair; every pair is then a
    hit, and no bin is flipped.
    """
    if plan.route is None:
        return _sample_clicks(rng, plan)
    ns = source.sample(rng, plan.size)
    _check_guard(config, ns)
    pulses, bins = _route_photons(rng, ns, plan.route)
    dark_pulses, dark_bins = _hit_pairs(_sample_clicks(rng, plan))
    if len(pulses) and len(dark_pulses):
        # the chain's keys come out sorted, so membership is a binary search
        keys = bins * plan.size + pulses
        dark = dark_bins * plan.size + dark_pulses
        new = keys[np.minimum(np.searchsorted(keys, dark), len(keys) - 1)] != dark
        dark_pulses, dark_bins = dark_pulses[new], dark_bins[new]
    pulses = np.concatenate([pulses, dark_pulses])
    bins = np.concatenate([bins, dark_bins])
    no_flip = np.zeros(config.n_bins, dtype=bool)
    return _Draws(plan.size, no_flip, np.bincount(bins, minlength=config.n_bins), [(bins, pulses)], [])


def _map_blocks(
    config: LoopConfig, source: PhotonSource, opts: SimOptions, fn: Callable
) -> Iterator:
    """``fn(block, draws)`` of every block, in block order.

    Block b holds ``draws.size`` pulses from ``b * BLOCK_SIZE`` on and draws
    from the seed's Philox stream jumped b times; ``draws`` is its
    :class:`_Draws`, with pulses counted within the block. The plans of the
    blocks, one per block size (the last block may be partial), are made
    once, when the first result is asked for. ``fn`` runs on the worker
    threads, and the results do not depend on ``opts.n_workers``. With one
    worker a block is simulated only when its result is asked for.
    """
    blocks = range(-(-opts.n_pulses // BLOCK_SIZE))

    def size_of(block: int) -> int:
        return min(BLOCK_SIZE, opts.n_pulses - block * BLOCK_SIZE)

    sizes = {size_of(block) for block in (*blocks[:1], *blocks[-1:])}
    plans = {size: _plan_block(config, source, size) for size in sizes}

    def run(block: int):
        plan = plans[size_of(block)]
        return fn(block, _simulate_block(config, source, plan, _block_rng(opts.seed, block)))

    if opts.n_workers > 1:
        with ThreadPoolExecutor(max_workers=opts.n_workers) as pool:
            yield from pool.map(run, blocks)
    else:
        yield from map(run, blocks)


def simulate_pulse(
    config: LoopConfig, source: PhotonSource, rng: np.random.Generator
) -> frozenset[int]:
    """Simulate a single pulse; returns the set of fired bins (1-based)."""
    draws = _simulate_block(config, source, _plan_block(config, source, 1), rng)
    _pulses, bins = _hit_pairs(draws)
    return frozenset((bins + 1).tolist())


def simulate_ensemble(
    config: LoopConfig, source: PhotonSource, opts: SimOptions
) -> SimulationResult:
    """Aggregate click statistics over ``opts.n_pulses`` pulses.

    Returns a :class:`SimulationResult` that unpacks as
    ``(ClickHistogram, ClickPatternStats)``. Deterministic for a fixed
    seed, independent of ``n_workers``.

    Each block comes as its :class:`_Draws`: from the sparse per-bin kernel
    for Coherent light without ``n_max_guard``, otherwise from the
    photon-routing chain over per-pulse photon numbers (the guard has to see
    them) plus sparse dark counts. The tally takes each bin's clicks as the
    kernel counted them and never expands a flipped bin's misses into
    clicks, so a saturated bin costs O(misses), not O(size): a pulse's
    k-count is the number of flipped bins plus its hits minus its misses.
    Artifacts act on detector records, so only :func:`emit_time_tags`
    models them.
    """
    if opts.n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {opts.n_pulses}")
    n_bins = config.n_bins

    def tally(_block, draws):
        fired_per_pulse = np.count_nonzero(draws.flip) + np.bincount(
            _concat([p for _j, p in draws.hits]), minlength=draws.size
        )
        if draws.misses:
            fired_per_pulse -= np.bincount(_concat([p for _j, p in draws.misses]), minlength=draws.size)
        return draws.clicks, np.bincount(fired_per_pulse, minlength=n_bins + 1)

    clicks = np.zeros(n_bins, dtype=np.int64)
    k_counts = np.zeros(n_bins + 1, dtype=np.int64)
    for block_clicks, block_k in _map_blocks(config, source, opts, tally):
        clicks += block_clicks
        k_counts += block_k
    hist = ClickHistogram.from_clicks(clicks, opts.n_pulses)
    stats = ClickPatternStats.from_counts(k_counts, hist.p_hat)
    return SimulationResult(histogram=hist, pattern_stats=stats)


def _apply_dead_time(times: np.ndarray, dead_time_ps: int, previous: Optional[int]) -> np.ndarray:
    """Paralyzable dead-time filter over sorted, non-empty record times.

    A record survives only when the previous record (kept or not) is at
    least ``dead_time_ps`` earlier; every record extends the blind window.
    ``previous`` is the time of the record before ``times[0]``, or None.
    """
    first = times[0] - dead_time_ps if previous is None else previous
    return np.diff(times, prepend=first) >= dead_time_ps


def emit_time_tags(
    config: LoopConfig,
    source: PhotonSource,
    opts: SimOptions,
    rep_period_ps: int,
    artifact: Optional[ArtifactModel] = None,
) -> TimeTagStream:
    """Produce a synthetic time-tag stream for ``opts.n_pulses`` pulses.

    One sync record marks each pulse start; a detector record is placed at
    ``start + j * loop_delay_ps`` for every fired bin j. Without
    ``artifact``, gating the stream gives the clicks that were sampled, so
    its histogram and k-counts are those of :func:`simulate_ensemble` (the
    pattern RNG stream is shared). With it, back-reflection records and
    dead-time suppression are applied to the detector channel.
    Deterministic for a fixed seed, independent of ``opts.n_workers``. The
    records are those of :func:`iter_time_tags`, joined.
    """
    empty = np.empty(0, dtype=np.int64)
    chunks = iter_time_tags(config, source, opts, rep_period_ps, artifact)
    # zip stops at the shortest tuple: the empty head keeps channels and times, not clicks
    channels, times = (np.concatenate(parts) for parts in zip((empty, empty), *chunks))
    return TimeTagStream(channels=channels, times_ps=times)


def iter_time_tags(
    config: LoopConfig,
    source: PhotonSource,
    opts: SimOptions,
    rep_period_ps: int,
    artifact: Optional[ArtifactModel] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The records of :func:`emit_time_tags` as ``(channels, times, clicks)`` chunks, one per block.

    Block b's chunk holds its syncs and every detector record from its first
    sync up to the next block's first sync, which a record at that very time
    follows; the last chunk holds every record after that. A block's clicks
    come from :func:`_hit_pairs` in no particular order, and a chunk sorts
    only its own records: spurious records wait in a sorted buffer until the
    block they land in, and dead time carries the last detector time, kept
    or suppressed, across chunks. ``clicks`` is the block's clicks per bin as
    sampled, which gating the chunk gives too; with ``artifact``, which moves
    and drops records, it is None. The arguments are checked before the first
    block is simulated; with one worker, memory stays that of one block.
    """
    if rep_period_ps <= config.n_bins * config.loop_delay_ps:
        raise ValueError(
            f"rep_period_ps must exceed n_bins * loop_delay_ps, got {rep_period_ps}"
        )
    if artifact and artifact.reflection_delay_ps % config.loop_delay_ps == 0:
        raise ValueError(
            "reflection_delay_ps must not be a multiple of loop_delay_ps; "
            "spurious events have to fall outside the gates"
        )
    rep = np.int64(rep_period_ps)
    delay = np.int64(config.loop_delay_ps)

    def detector_times(block, draws):
        pulses, bins = _hit_pairs(draws)
        t = (block * BLOCK_SIZE + pulses) * rep + (bins + 1) * delay
        if not artifact:
            return t, draws.clicks
        if len(t):
            art_rng = _block_rng(opts.seed, block, key_offset=_ARTIFACT_KEY_OFFSET)
            spur = t[art_rng.random(len(t)) < artifact.back_reflection_prob]
            t = np.concatenate([t, spur + np.int64(artifact.reflection_delay_ps)])
        return t, None

    def chunks():
        pending = np.empty(0, dtype=np.int64)  # detector times past the blocks so far, sorted
        previous = None  # the last detector time, kept or suppressed
        for block, (det_times, clicks) in enumerate(_map_blocks(config, source, opts, detector_times)):
            first = block * BLOCK_SIZE
            size = min(BLOCK_SIZE, opts.n_pulses - first)
            det_times = np.sort(np.concatenate([pending, det_times]))
            if first + size < opts.n_pulses:
                cut = np.searchsorted(det_times, (first + size) * rep)
                det_times, pending = det_times[:cut], det_times[cut:]
            if artifact and len(det_times):
                keep = _apply_dead_time(det_times, artifact.dead_time_ps, previous)
                previous = det_times[-1]
                det_times = det_times[keep]
            # place by count: detector record k follows the k records before it and the block's
            # syncs at or before its time, min(t // rep_period_ps + 1 - first, size) of them;
            # sync i follows i syncs and the records that follow at most i syncs
            n_syncs = np.minimum(det_times // rep + 1 - first, size)
            sync_at = np.arange(size) + np.cumsum(np.bincount(n_syncs, minlength=size))[:size]
            times = np.empty(size + len(det_times), dtype=np.int64)
            times[sync_at] = (first + np.arange(size, dtype=np.int64)) * rep
            times[np.arange(len(det_times)) + n_syncs] = det_times
            channels = np.full(len(times), TimeTagStream.detector_channel, dtype=np.int64)
            channels[sync_at] = TimeTagStream.sync_channel
            yield channels, times, clicks

    return chunks()
