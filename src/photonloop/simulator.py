"""Pulse-level Monte Carlo of the loop detector.

Photons route independently: each pulse draws a photon number from the
source, distributes the photons over the time bins (or loss) with the
per-photon exit probabilities, and ORs in per-bin dark counts. Randomness
comes from counter-based Philox streams keyed by the seed and jumped per
fixed-size pulse block, so results are bit-identical for a given seed no
matter how the blocks are scheduled across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from . import analytic
from .errors import GuardExceeded
from .models import ClickHistogram, ClickPatternStats, LoopConfig, PhotonSource, TimeTagStream

__all__ = [
    "ArtifactModel",
    "SimOptions",
    "SimulationResult",
    "simulate_pulse",
    "simulate_ensemble",
    "emit_time_tags",
]

#: Pulses per RNG block. Fixed so that outputs are independent of worker count.
BLOCK_SIZE = 16384

#: Key offset separating the artifact RNG stream from the pattern stream.
_ARTIFACT_KEY_OFFSET = 1 << 64


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
    """Run options for the Monte Carlo: pulse count, seed, extras."""

    n_pulses: int
    seed: int = 0
    record_patterns: bool = False
    artifact: Optional[ArtifactModel] = None
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
    patterns: Optional[np.ndarray] = None

    def __iter__(self):
        return iter((self.histogram, self.pattern_stats))


@lru_cache(maxsize=32)
def _routing_pvals(config: LoopConfig) -> np.ndarray:
    """Multinomial cell probabilities: q_1..q_N plus the loss remainder."""
    q = analytic.bin_exit_probs(config)
    loss = max(0.0, 1.0 - q.sum())
    return np.append(q, loss)


def _block_rng(seed: int, block_index: int, key_offset: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed + key_offset).jumped(block_index))


def _check_guard(config: LoopConfig, ns: np.ndarray):
    guard = config.n_max_guard
    if guard is not None and bool((ns > guard).any()):
        raise GuardExceeded(
            f"pulse drew {int(ns.max())} photons, above the guard of {guard}"
        )


def _scatter_dark_counts(rng: np.random.Generator, fired: np.ndarray, nu: float):
    """Flip Bernoulli(nu) dark counts into ``fired`` via sparse placement.

    Draws the number of dark events for the whole block and places them on
    distinct cells (redrawing on collision), which is distribution-identical
    to per-cell Bernoulli draws but avoids materializing a uniform per cell.
    Only used when dark events are rare enough that collisions are unlikely.
    """
    n_cells = fired.size
    k = int(rng.binomial(n_cells, nu))
    while k:
        idx = rng.integers(0, n_cells, size=k)
        if len(np.unique(idx)) == k:
            fired.reshape(-1)[idx] = True
            break


def _simulate_block(
    config: LoopConfig, source: PhotonSource, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Boolean fired matrix of shape (size, n_bins) for one block of pulses."""
    ns = source.sample(rng, size)
    _check_guard(config, ns)
    counts = rng.multinomial(ns, _routing_pvals(config))
    fired = counts[:, :-1] > 0
    if config.nu > 0.0:
        if config.nu * fired.size < 1.0:
            _scatter_dark_counts(rng, fired, config.nu)
        else:
            fired |= rng.random((size, config.n_bins)) < config.nu
    return fired


def _iter_blocks(n_pulses: int) -> Iterator[tuple[int, int, int]]:
    """Yield (block_index, start_pulse, size) covering n_pulses."""
    for block in range(0, -(-n_pulses // BLOCK_SIZE) if n_pulses else 0):
        start = block * BLOCK_SIZE
        yield block, start, min(BLOCK_SIZE, n_pulses - start)


def simulate_pulse(
    config: LoopConfig, source: PhotonSource, rng: np.random.Generator
) -> frozenset[int]:
    """Simulate a single pulse; returns the set of fired bins (1-based)."""
    fired = _simulate_block(config, source, rng, 1)[0]
    return frozenset((np.nonzero(fired)[0] + 1).tolist())


def simulate_ensemble(
    config: LoopConfig, source: PhotonSource, opts: SimOptions
) -> SimulationResult:
    """Aggregate click statistics over ``opts.n_pulses`` pulses.

    Returns a :class:`SimulationResult` that unpacks as
    ``(ClickHistogram, ClickPatternStats)``. With ``record_patterns`` the
    raw (n_pulses, n_bins) boolean pattern matrix is attached as well.
    Deterministic for a fixed seed, independent of ``n_workers``.

    Artifacts act on detector records, which only :func:`emit_time_tags`
    produces; ``opts.artifact`` is rejected here rather than ignored.
    """
    if opts.n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {opts.n_pulses}")
    if opts.artifact is not None:
        raise ValueError(
            "simulate_ensemble does not model artifacts; gate the stream of emit_time_tags"
        )
    n_bins = config.n_bins

    def run_block(args):
        block, _start, size = args
        fired = _simulate_block(config, source, _block_rng(opts.seed, block), size)
        clicks = fired.sum(axis=0)
        k_counts = np.bincount(fired.sum(axis=1), minlength=n_bins + 1)
        return clicks, k_counts, fired if opts.record_patterns else None

    blocks = list(_iter_blocks(opts.n_pulses))
    if opts.n_workers > 1:
        with ThreadPoolExecutor(max_workers=opts.n_workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    clicks = np.zeros(n_bins, dtype=np.int64)
    k_counts = np.zeros(n_bins + 1, dtype=np.int64)
    for block_clicks, block_k, _ in results:
        clicks += block_clicks
        k_counts += block_k
    patterns = (
        np.concatenate([r[2] for r in results], axis=0) if opts.record_patterns else None
    )

    hist = ClickHistogram.from_clicks(clicks, opts.n_pulses)
    stats = ClickPatternStats.from_counts(k_counts, hist.p_hat)
    return SimulationResult(histogram=hist, pattern_stats=stats, patterns=patterns)


def _apply_dead_time(times: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Paralyzable dead-time filter over sorted record times.

    A record survives only when the previous record (kept or not) is at
    least ``dead_time_ps`` earlier; every record extends the blind window.
    """
    keep = np.ones(len(times), dtype=bool)
    if dead_time_ps > 0 and len(times) > 1:
        keep[1:] = np.diff(times) >= dead_time_ps
    return keep


def emit_time_tags(
    config: LoopConfig, source: PhotonSource, opts: SimOptions, rep_period_ps: int
) -> TimeTagStream:
    """Produce a synthetic time-tag stream for ``opts.n_pulses`` pulses.

    One sync record marks each pulse start; a detector record is placed at
    ``start + j * loop_delay_ps`` for every fired bin j. With artifacts
    disabled, ingesting the stream reproduces :func:`simulate_ensemble`
    exactly (the pattern RNG stream is shared). With ``opts.artifact`` set,
    back-reflection records and dead-time suppression are applied to the
    detector channel.
    """
    if rep_period_ps <= config.n_bins * config.loop_delay_ps:
        raise ValueError(
            f"rep_period_ps must exceed n_bins * loop_delay_ps, got {rep_period_ps}"
        )
    artifact = opts.artifact
    if artifact and artifact.reflection_delay_ps % config.loop_delay_ps == 0:
        raise ValueError(
            "reflection_delay_ps must not be a multiple of loop_delay_ps; "
            "spurious events have to fall outside the gates"
        )

    delay = np.int64(config.loop_delay_ps)
    det_chunks: list[np.ndarray] = []
    sync_times = np.arange(opts.n_pulses, dtype=np.int64) * np.int64(rep_period_ps)
    for block, start, size in _iter_blocks(opts.n_pulses):
        fired = _simulate_block(config, source, _block_rng(opts.seed, block), size)
        pulse_idx, bin_idx = np.nonzero(fired)
        t = sync_times[start + pulse_idx] + (bin_idx.astype(np.int64) + 1) * delay
        if artifact and len(t):
            art_rng = _block_rng(opts.seed, block, key_offset=_ARTIFACT_KEY_OFFSET)
            spur = t[art_rng.random(len(t)) < artifact.back_reflection_prob]
            t = np.concatenate([t, spur + np.int64(artifact.reflection_delay_ps)])
            t.sort(kind="stable")
        det_chunks.append(t)

    det_times = np.concatenate(det_chunks) if det_chunks else np.empty(0, dtype=np.int64)
    if artifact:
        det_times = np.sort(det_times, kind="stable")  # spurs may cross block edges
        det_times = det_times[_apply_dead_time(det_times, artifact.dead_time_ps)]

    channels = np.concatenate(
        [np.zeros(len(sync_times), dtype=np.int64), np.ones(len(det_times), dtype=np.int64)]
    )
    times = np.concatenate([sync_times, det_times])
    order = np.lexsort((channels, times))
    return TimeTagStream(channels=channels[order], times_ps=times[order])
