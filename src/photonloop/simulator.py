"""Pulse-level Monte Carlo of the loop detector.

Photons route independently. Under Coherent light without an
``n_max_guard`` the bins fire independently, by Poisson splitting: bin j
fires with p_j = 1 - (1 - nu) exp(-q_j nbar), dark counts included. Its
ensemble needs no pulses: the numbers H_k of pulses that have fired k of the
bins so far are a sufficient statistic, and :func:`simulate_ensemble` draws
them bin by bin, one binomial per class, or one in all where few pulses
change (:func:`_fired_count_classes`).

Where pulse identities are needed (time tags and :func:`simulate_pulse`), one
block of pulses is sampled by one of three exact kernels:

* Coherent light without an ``n_max_guard``: the per-bin kernel. A *dense*
  bin, one that expects many clicks or fires with p_j > 1/2, takes a
  binomial number of distinct pulses: its clicks, or else the pulses that
  miss it, which one mask of the block turns into its clicks. All *sparse*
  bins of a block are drawn at once, by geometric gaps between their clicks.
* Fock(1) and LossyFock(1, t), unless a guard of 0 must see each photon:
  one uniform u a pulse sends its photon to bin searchsorted(cdf, u) of
  cdf = cumsum(t q_j), or loses it past cdf[-1], exact to 2^-53.
* Every other source, and Coherent light under a guard (the guard needs the
  per-pulse photon numbers): each pulse draws a photon number and one
  conditional-binomial chain routes the photons, lost ones first and then
  bin by bin, over only the pulses that still hold photons.

The last two draw the dark counts from the per-bin kernel with p_j = nu and
merge them with the photon pairs sparsely; no (pulses, bins) array is built.
Their blocks also serve the ensembles of every source but unguarded
Coherent light.

All that the per-bin kernel works out before its first draw (which bins are
dense or sparse, the gap counts and the first round of gaps' fixed arrays)
is a plan, made once per call and block size and shared by every block of
that size. A block's output is its clicks per bin and its (pulse, bin) click
pairs, in no particular order. Blocks run through one block map,
``_map_blocks``. Randomness comes from counter-based Philox streams keyed by
the seed and jumped per fixed-size pulse block, so histograms and tag
streams are bit-identical for a given seed no matter how many workers run
the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import analytic
from .errors import GuardExceeded
from .models import (
    ClickHistogram,
    ClickPatternStats,
    Coherent,
    Fock,
    LoopConfig,
    LossyFock,
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
    "reflection_in_gates",
]

#: Pulses per RNG block. Fixed so that outputs are independent of worker count.
BLOCK_SIZE = 16384

#: Key offset separating the artifact RNG stream from the pattern stream.
_ARTIFACT_KEY_OFFSET = 1 << 64

#: Expected clicks per block, size * p, below which :func:`_sample_clicks` draws a bin of
#: p <= 1/2 by geometric gaps, with the block's other sparse bins, and not by rng.choice.
# Gaps beat a binomial plus rng.choice up to ~1,024 pairs a bin (8 such bins beside 130 dark ones:
# 207-211 vs 227-233 us a block), not at 1,536 (500-542 vs 262 us); whole hdr_calibration and
# 40-bin blocks ran flat from a cutoff of 512 to 1,024 (numpy 2.4, 2 vCPUs)
_SPARSE_PAIRS = 512

#: A sparse bin expecting mu clicks first draws ceil(mu + _GAP_MARGIN * (sqrt(mu) + 1)) gaps;
#: at 4 about one hdr_calibration block in 3,000 draws a second round.
_GAP_MARGIN = 4.0

#: Pulses expected to change, n_pulses * p', below which :func:`_fired_count_classes` draws a
#: bin once, in total, and not once per class.
# hdr_calibration's two legs drew flat from 0.5 to 2 (0.79-0.81 and 0.52-0.54 ms; numpy 2.4, 2 vCPUs)
_FEW_PAIRS = 1.0


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
        if not 0 <= self.dead_time_ps < 1 << 63:  # record times and their gaps are int64
            raise ValueError(f"dead_time_ps must be in [0, 2**63), got {self.dead_time_ps}")


def reflection_in_gates(config: LoopConfig, reflection_delay_ps: int) -> bool:
    """Whether a detector record moved by ``reflection_delay_ps`` can land in a gate of its pulse.

    It lands k bins on, r from that bin's centre, inside the gate by the test of
    :class:`~photonloop.clickstats.TagGate`; a multiple of the loop delay always counts.
    A later pulse's gates, which depend on the repetition period, are not checked.
    """
    delay, gate = config.loop_delay_ps, config.gate_width_ps
    k = (reflection_delay_ps + delay // 2) // delay
    r2 = 2 * (reflection_delay_ps - k * delay)
    return reflection_delay_ps % delay == 0 or (k < config.n_bins and -gate <= r2 < gate)


@dataclass(frozen=True)
class SimOptions:
    """Run options every Monte Carlo entry point honours.

    ``n_pulses`` pulses are drawn from Philox streams keyed by ``seed``, in
    blocks of ``BLOCK_SIZE`` spread over ``n_workers`` threads; the output
    does not depend on ``n_workers``. An ensemble of unguarded Coherent
    light draws no blocks, so it runs no threads whatever ``n_workers`` is.
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
    ``bins[g]``, it divides by log(1 - p) ``log_skips[g]`` and its ratio is
    capped at ``caps[g]``. ``ends`` indexes each bin's last gap.
    """

    todo: np.ndarray
    counts: np.ndarray
    ends: np.ndarray
    bins: np.ndarray
    log_skips: np.ndarray
    caps: np.ndarray


class _Plan(NamedTuple):
    """What the block kernel works out before its first draw, for blocks of ``size`` pulses.

    Made once per call and block size, by :func:`_plan_bins` or
    :func:`_plan_block`, and only read by the blocks of ``n_bins`` bins. Each
    ``dense`` bin draws Binomial(size, ``p_dense``) distinct pulses: its
    clicks, or, where ``dense_flip`` marks p_j > 1/2, the pulses that miss
    it, with ``p_dense`` = 1 - p_j. The ``sparse`` bins, ascending and all of
    p_j <= 1/2, draw geometric gaps with log(1 - p_j) ``log_skip``,
    ``n_gaps`` each in the first round, whose fixed part is ``first`` (None
    without sparse bins).
    ``route`` is q_j when the photons are routed apart and the kernel draws
    only the dark counts; it is None when the kernel draws the photons too.
    ``cdf``, cumsum(t q_j), routes a source of at most one photon by one
    uniform a pulse; without it the routing chain does.
    """

    size: int
    n_bins: int
    dense: np.ndarray
    dense_flip: np.ndarray
    p_dense: np.ndarray
    sparse: np.ndarray
    log_skip: np.ndarray
    n_gaps: np.ndarray
    first: Optional[_GapRound] = None
    route: Optional[np.ndarray] = None
    cdf: Optional[np.ndarray] = None

    def gap_round(self, todo: np.ndarray) -> _GapRound:
        """The fixed part of a round of gaps for the sparse bins ``sparse[todo]``."""
        counts = self.n_gaps[todo]
        bins = self.sparse[todo]
        log_skips = np.repeat(self.log_skip[todo], counts)
        # a gap over size pulses passes the block's end all the same: capping the ratio at
        # size + 1 keeps a subnormal log1p(-p) from overflowing it
        caps = (self.size + 1) * log_skips
        return _GapRound(todo, counts, np.cumsum(counts) - 1, np.repeat(bins, counts), log_skips, caps)


class _Draws(NamedTuple):
    """One block's clicks: ``clicks`` per bin and the (``pulses``, ``bins``) pairs, in no particular order."""

    clicks: np.ndarray
    pulses: np.ndarray
    bins: np.ndarray


def _pair_probs(log_miss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(flip, p')`` of bins of log no-click probability ``log_miss``.

    ``flip`` marks the bins that fire more often than not, and p' =
    min(p, 1 - p) is the chance of what a bin draws: a miss where ``flip``,
    else a click. Taking both from the log keeps both tails exact.
    """
    hit = -np.expm1(log_miss)
    miss = np.exp(log_miss)
    flip = miss < hit
    return flip, np.where(flip, miss, hit)


def _plan_bins(size: int, log_miss: np.ndarray) -> _Plan:
    """The :class:`_Plan` of :func:`_sample_clicks` for bins of log no-click probability ``log_miss``."""
    flip, p = _pair_probs(log_miss)
    expected = size * p
    dense = np.flatnonzero(flip | (expected >= _SPARSE_PAIRS))
    sparse = np.flatnonzero(~flip & (expected > 0) & (expected < _SPARSE_PAIRS))
    mean = expected[sparse]
    n_gaps = np.ceil(mean + _GAP_MARGIN * (np.sqrt(mean) + 1.0)).astype(np.int64)
    plan = _Plan(size, len(log_miss), dense, flip[dense], p[dense], sparse, log_miss[sparse], n_gaps)
    return plan._replace(first=plan.gap_round(np.arange(len(sparse))) if len(sparse) else None)


def _sample_clicks(rng: np.random.Generator, plan: _Plan) -> _Draws:
    """Sample independent per-bin clicks for ``plan.size`` pulses, sparsely.

    Bin j fires in each pulse independently with probability
    p_j = 1 - exp(log_miss[j]), for the ``log_miss`` the plan was made from;
    taking the log of the no-click probability keeps both tails exact. Each
    bin is drawn in one of two ways:

    * a *dense* bin, one with p_j > 1/2 or expecting at least
      ``_SPARSE_PAIRS`` clicks (size * p_j), draws k ~ Binomial(size, p')
      and picks k distinct pulses, p' = min(p_j, 1 - p_j). When p_j > 1/2
      they are the pulses that miss it, and one mask of the block turns them
      into its clicks, so the draws cost O(min(clicks, size - clicks));
    * all *sparse* bins at once draw geometric gaps: a bin's next click is
      ``floor(log1p(-U) / log1p(-p_j)) + 1`` pulses after its last, for U
      uniform on [0, 1), and its clicks are the gaps' running sums that fall
      inside the block. Each bin first draws ceil(mu + ``_GAP_MARGIN`` *
      (sqrt(mu) + 1)) gaps, mu = size * p_j being its expected clicks; the
      few bins whose gaps end inside the block draw again from where they
      stopped, until every bin has passed the block's end.

    Both ways make every (pulse, bin) a click with probability p_j, all
    independently.
    """
    size = plan.size
    pulses = []
    fires = np.empty(size, dtype=bool)
    ks = rng.binomial(size, plan.p_dense)
    for flipped, k in zip(plan.dense_flip.tolist(), ks.tolist()):
        drawn = rng.choice(size, k, replace=False, shuffle=False)
        if flipped:  # drawn are the pulses that miss the bin
            fires.fill(True)
            fires[drawn] = False
            drawn = np.flatnonzero(fires)
        pulses.append(drawn)
    clicks = np.zeros(plan.n_bins, dtype=np.int64)
    clicks[plan.dense] = [len(p) for p in pulses]
    bins = [np.repeat(plan.dense, clicks[plan.dense])]
    start = np.zeros(len(plan.sparse), dtype=np.int64)  # the pulse each bin's next gap counts from
    gaps = plan.first
    while gaps is not None:
        ratio = np.log1p(-rng.random(len(gaps.log_skips)))
        np.maximum(ratio, gaps.caps, out=ratio)
        ratio /= gaps.log_skips
        at = ratio.astype(np.int64)  # the floor, as ratio >= 0
        at += 1
        np.cumsum(at, out=at)
        # each bin's running sum of gaps from its start; a click's pulse is that sum minus 1
        at -= np.repeat(np.concatenate(([0], at[gaps.ends[:-1]])) - start[gaps.todo] + 1, gaps.counts)
        inside = at < size
        pulses.append(at[inside])
        bins.append(gaps.bins[inside])
        clicks += np.bincount(bins[-1], minlength=plan.n_bins)
        start[gaps.todo] = at[gaps.ends] + 1
        todo = gaps.todo[start[gaps.todo] < size]
        gaps = plan.gap_round(todo) if len(todo) else None
    return _Draws(clicks, np.concatenate([np.empty(0, dtype=np.int64), *pulses]), np.concatenate(bins))


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


def _independent_bins(config: LoopConfig, source: PhotonSource) -> bool:
    """Whether the bins fire independently: unguarded Coherent light (the guard needs photon numbers)."""
    return isinstance(source, Coherent) and config.n_max_guard is None


def _coherent_log_miss(config: LoopConfig, source: Coherent) -> np.ndarray:
    """log P(bin j does not fire) for Coherent light: log(1 - nu) - q_j nbar."""
    return np.log1p(-config.nu) - analytic.bin_exit_probs(config) * source.nbar


def _fired_count_classes(
    log_miss: np.ndarray, n_pulses: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks per bin and k-counts of ``n_pulses`` pulses whose bins fire independently.

    Bin j fires in each pulse with probability 1 - exp(``log_miss[j]``),
    independently of the other bins and pulses. Pulses fall into classes by
    the number k of bins they have fired so far, H_k pulses each; H starts as
    (n_pulses, 0, ..., 0). Given the classes, bin j's column is i.i.d.
    Bernoulli(p_j) over the pulses, so X_k ~ Binomial(H_k, p_j) of class k
    fire it, one draw for each non-empty class. A flipped bin draws the
    pulses that miss it, with p' = 1 - p_j, and fires in the rest. Bin j then
    has sum(X) clicks and X moves up one class. The final H is the k-counts.

    A bin that expects fewer than ``_FEW_PAIRS`` pulses to change draws
    their number, Binomial(n_pulses, p'), once. Mostly it is 0: nothing
    moves, or a flipped bin moves every class up one. Otherwise those pulses
    are a uniform subset of that size, and their classes, read off
    cumsum(H), are multivariate hypergeometric. Exact in law, and
    O(classes) a bin whatever ``n_pulses`` is.
    """
    flip, p = _pair_probs(log_miss)
    lo, h = 0, [n_pulses]  # H_k = h[k - lo]; every class outside h is empty
    clicks = []
    for p_j, flipped in zip(p.tolist(), flip.tolist()):
        if n_pulses * p_j < _FEW_PAIRS:
            changed = rng.binomial(n_pulses, p_j)
            if not changed:
                clicks.append(n_pulses if flipped else 0)
                lo += flipped
                continue
            pulses = rng.choice(n_pulses, changed, replace=False, shuffle=False)
            fired = np.bincount(np.searchsorted(np.cumsum(h), pulses, side="right"), minlength=len(h)).tolist()
        else:
            fired = [rng.binomial(n, p_j) if n else 0 for n in h]
        if flipped:
            fired = [n - x for n, x in zip(h, fired)]
        clicks.append(sum(fired))
        h = [n - x + up for n, x, up in zip(h + [0], fired + [0], [0] + fired)]
        while not h[-1]:
            h.pop()
        while not h[0]:
            lo, h = lo + 1, h[1:]
    k_counts = np.zeros(len(log_miss) + 1, dtype=np.int64)
    k_counts[lo : lo + len(h)] = h
    return np.array(clicks, dtype=np.int64), k_counts


def _plan_block(config: LoopConfig, source: PhotonSource, size: int) -> _Plan:
    """The :class:`_Plan` of :func:`_simulate_block` for blocks of ``size`` pulses.

    Unguarded Coherent light plans the per-bin kernel over its photons and
    dark counts together. Every other source, and Coherent light under a
    guard (the guard needs the per-pulse photon numbers), plans the kernel
    over the dark counts alone, p_j = nu, and routes its photons by q_j.
    Fock(1) and LossyFock(1, t) route theirs by ``cdf`` = cumsum(t q_j),
    unless a guard of 0 has to see each photon to refuse it.
    """
    if _independent_bins(config, source):
        return _plan_bins(size, _coherent_log_miss(config, source))
    q = analytic.bin_exit_probs(config)
    plan = _plan_bins(size, np.full(config.n_bins, np.log1p(-config.nu)))._replace(route=q)
    if isinstance(source, (Fock, LossyFock)) and source.n == 1 and config.n_max_guard != 0:
        return plan._replace(cdf=np.cumsum(q * source.mean_photon_number()))
    return plan


def _simulate_block(
    config: LoopConfig, source: PhotonSource, plan: _Plan, rng: np.random.Generator
) -> _Draws:
    """The :class:`_Draws` of one block of ``plan.size`` pulses.

    Without a ``plan.route`` this is the per-bin kernel, dark counts
    included. With one, the block routes its photons, by one uniform u a
    pulse into bin ``searchsorted(plan.cdf, u, side="right")`` (none when
    that is ``n_bins``) or else by :func:`_route_photons` over drawn photon
    numbers, and adds the dark counts of the per-bin kernel, dropping a dark
    pair that repeats a photon pair.
    """
    if plan.route is None:
        return _sample_clicks(rng, plan)
    if plan.cdf is not None:
        drawn = np.searchsorted(plan.cdf, rng.random(plan.size), side="right")
        pulses = np.flatnonzero(drawn < config.n_bins)
        bins = drawn[pulses]
    else:
        ns = source.sample(rng, plan.size)
        _check_guard(config, ns)
        pulses, bins = _route_photons(rng, ns, plan.route)
    _dark_clicks, dark_pulses, dark_bins = _sample_clicks(rng, plan)
    if plan.cdf is not None:  # a pulse's one photon pair is in bin drawn[pulse]
        new = drawn[dark_pulses] != dark_bins
        dark_pulses, dark_bins = dark_pulses[new], dark_bins[new]
    elif len(pulses) and len(dark_pulses):
        # the chain's keys come out sorted, so membership is a binary search
        keys = bins * plan.size + pulses
        dark = dark_bins * plan.size + dark_pulses
        new = keys[np.minimum(np.searchsorted(keys, dark), len(keys) - 1)] != dark
        dark_pulses, dark_bins = dark_pulses[new], dark_bins[new]
    pulses = np.concatenate([pulses, dark_pulses])
    bins = np.concatenate([bins, dark_bins])
    return _Draws(np.bincount(bins, minlength=config.n_bins), pulses, bins)


def _block_size(n_pulses: int, block: int) -> int:
    """The pulses of block ``block`` of a run of ``n_pulses``: ``BLOCK_SIZE``, fewer in the last block."""
    return min(BLOCK_SIZE, n_pulses - block * BLOCK_SIZE)


def _map_blocks(
    config: LoopConfig, source: PhotonSource, opts: SimOptions, fn: Callable
) -> Iterator:
    """``fn(block, draws)`` of every block, in block order.

    Block b holds ``_block_size(n_pulses, b)`` pulses from ``b * BLOCK_SIZE``
    on and draws from the seed's Philox stream jumped b times; ``draws`` is its
    :class:`_Draws`, with pulses counted within the block. The plans of the
    blocks, one per block size (the last block may be partial), are made
    once, when the first result is asked for. ``fn`` runs on the worker
    threads, and the results do not depend on ``opts.n_workers``. With one
    worker a block is simulated only when its result is asked for.
    """
    blocks = range(-(-opts.n_pulses // BLOCK_SIZE))
    sizes = {_block_size(opts.n_pulses, block) for block in (*blocks[:1], *blocks[-1:])}
    plans = {size: _plan_block(config, source, size) for size in sizes}

    def run(block: int):
        plan = plans[_block_size(opts.n_pulses, block)]
        return fn(block, _simulate_block(config, source, plan, _block_rng(opts.seed, block)))

    if opts.n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imports logging: only when it is used

        with ThreadPoolExecutor(max_workers=opts.n_workers) as pool:
            yield from pool.map(run, blocks)
    else:
        yield from map(run, blocks)


def simulate_pulse(
    config: LoopConfig, source: PhotonSource, rng: np.random.Generator
) -> frozenset[int]:
    """Simulate a single pulse; returns the set of fired bins (1-based)."""
    draws = _simulate_block(config, source, _plan_block(config, source, 1), rng)
    return frozenset((draws.bins + 1).tolist())


def simulate_ensemble(
    config: LoopConfig, source: PhotonSource, opts: SimOptions
) -> SimulationResult:
    """Aggregate click statistics over ``opts.n_pulses`` pulses.

    Returns a :class:`SimulationResult` that unpacks as
    ``(ClickHistogram, ClickPatternStats)``. Deterministic for a fixed
    seed, independent of ``n_workers``.

    Unguarded Coherent light draws no pulses: its bins fire independently,
    and :func:`_fired_count_classes` draws the clicks and k-counts by
    fired-count classes from the seed's Philox stream, in O(n_bins^2) work at
    most, whatever ``opts.n_pulses`` is. This is an exact sample of the
    same law as :func:`emit_time_tags`, but not the same draw. Every other
    source runs the pulse blocks of :func:`_plan_block`'s kernel: a pulse's
    k-count is its number of pairs. Artifacts act on detector records, so
    only :func:`emit_time_tags` models them.
    """
    if opts.n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {opts.n_pulses}")
    n_bins = config.n_bins
    if _independent_bins(config, source):
        log_miss = _coherent_log_miss(config, source)
        clicks, k_counts = _fired_count_classes(log_miss, opts.n_pulses, _block_rng(opts.seed, 0))
    else:
        def tally(block, draws):
            fired_per_pulse = np.bincount(draws.pulses, minlength=_block_size(opts.n_pulses, block))
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
    its histogram and k-counts are those of its own pulses. They are those
    of :func:`simulate_ensemble` too (the pattern RNG stream is shared),
    except for unguarded Coherent light, whose ensemble is drawn by
    fired-count classes: the same law, not the same draw. With ``artifact``,
    back-reflection records and dead-time suppression are applied to the
    detector channel.
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
    come in no particular order, and a chunk sorts only its own records:
    spurious records wait in a sorted buffer until the block they land in,
    and dead time carries the last detector time, kept or suppressed, across
    chunks. ``clicks`` is the block's clicks per bin as sampled, which gating
    the chunk gives too; with ``artifact``, which moves and drops records, it
    is None. The arguments are checked before the first block is simulated,
    record times against int64 too; with one worker, memory stays that of
    one block.
    """
    if rep_period_ps <= config.n_bins * config.loop_delay_ps:
        raise ValueError(
            f"rep_period_ps must exceed n_bins * loop_delay_ps, got {rep_period_ps}"
        )
    if artifact and reflection_in_gates(config, artifact.reflection_delay_ps):
        raise ValueError(
            f"reflection_delay_ps {artifact.reflection_delay_ps} puts spurious records in the "
            "gates; they have to fall outside them"
        )
    # the last pulse's last bin, moved by a reflection: the latest record time
    last = (opts.n_pulses - 1) * rep_period_ps + config.n_bins * config.loop_delay_ps
    last += artifact.reflection_delay_ps if artifact else 0
    if max(last, rep_period_ps) >= 1 << 63:
        raise ValueError(
            f"rep_period_ps {rep_period_ps} and n_pulses {opts.n_pulses} need record times up to "
            f"{max(last, rep_period_ps)} ps, past the int64 limit of {(1 << 63) - 1} ps"
        )
    rep = np.int64(rep_period_ps)
    delay = np.int64(config.loop_delay_ps)

    def detector_times(block, draws):
        t = (block * BLOCK_SIZE + draws.pulses) * rep + (draws.bins + 1) * delay
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
            size = _block_size(opts.n_pulses, block)
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
