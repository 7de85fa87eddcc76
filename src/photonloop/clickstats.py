"""Time-tag ingestion and click-pattern nonclassicality witnesses.

The Poisson-binomial witness compares the observed variance of the
number-of-bins-fired distribution against the variance of independent bins
with the same (generally unequal) click probabilities; negativity is a
sufficient condition for nonclassical light. Dropping the bin-probability
spread term gives the plain binomial witness, which falsely flags
classical light whenever the bin probabilities are unequal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, NoSyncRecords, UnsortedStream
from .models import ClickHistogram, ClickPatternStats, LoopConfig, TimeTagStream

__all__ = [
    "IngestResult",
    "ingest_time_tags",
    "TagGate",
    "reflection_in_gates",
    "q_pb",
    "q_b",
    "BootstrapResult",
    "bootstrap_sigma",
]

#: Bootstrap iterations drawn per call: bounds the count arrays, whatever ``iterations``.
_BOOTSTRAP_ROWS = 1024


@dataclass(frozen=True)
class IngestResult:
    """Gated statistics of a time-tag stream; unpacks as (histogram, pattern_stats).

    ``n_discarded`` tallies detector records that fell outside every gate.
    """

    histogram: ClickHistogram
    pattern_stats: ClickPatternStats
    n_discarded: int

    def __iter__(self):
        return iter((self.histogram, self.pattern_stats))


def ingest_time_tags(stream: TimeTagStream, config: LoopConfig) -> IngestResult:
    """Gate a time-tag stream into per-pulse, per-bin clicks: a :class:`TagGate` fed it whole."""
    gate = TagGate(config)
    gate.feed(stream.channels, stream.times_ps)
    return gate.result()


class TagGate:
    """Gates a time-tag stream, sync and detector records only, fed in consecutive chunks cut anywhere.

    For each sync record, bin j spans a window of ``gate_width_ps`` centred
    on ``t_sync + j * loop_delay_ps`` (left edge inclusive, right edge
    exclusive: ``_gate_offsets``, the test :func:`reflection_in_gates` also
    applies); a bin fires when at least one detector record falls inside.
    A record's pulse is the last sync at or before its time, a sync that
    shares its time but comes after it in the stream included. Detector
    records outside every gate are discarded and tallied.

    Several records inside one gate count as one click. The dedupe relies on
    the stream's time order: it makes the in-gate keys ``pulse * n_bins +
    (j - 1)`` non-decreasing, so repeats are adjacent and one linear pass
    drops them.

    Between chunks the gate keeps the open pulse (the last sync so far: its
    time and how many bins it has fired), the key of the last click, and
    the trailing records of equal time, which a later sync may still claim.
    Memory is that of one chunk; no array has an entry per pulse of the
    stream.
    """

    def __init__(self, config: LoopConfig):
        self._config = config
        self._clicks = np.zeros(config.n_bins, dtype=np.int64)
        self._k_counts = np.zeros(config.n_bins + 1, dtype=np.int64)
        self._n_syncs = 0
        self._n_discarded = 0
        self._n_fed = 0  # records fed so far, the held-back ones included
        self._open_time = None  # sync time of the open pulse; None before the first sync
        self._open_fired = 0
        self._last_key = -1  # dedupe key of the last click
        self._held = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def feed(self, channels: np.ndarray, times: np.ndarray):
        """Gate the stream's next records; ``UnsortedStream`` names a record by its index in the stream."""
        held_channels, held_times = self._held
        if len(times) and len(held_times) and times[0] < held_times[-1]:
            raise UnsortedStream(self._n_fed)
        bad = np.flatnonzero(times[1:] < times[:-1])  # np.diff wraps past 2**63 ps apart
        if len(bad):
            raise UnsortedStream(self._n_fed + int(bad[0]) + 1)
        self._n_fed += len(times)
        if not len(times):
            return
        if len(held_times):
            channels = np.concatenate([held_channels, channels])
            times = np.concatenate([held_times, times])
        # hold back the trailing run of equal times: a sync in the next chunk may share it
        # (copies, so that the chunk's arrays are not kept alive or read after they change)
        cut = np.searchsorted(times, times[-1])
        self._held = channels[cut:].copy(), times[cut:].copy()
        self._gate(channels[:cut], times[:cut])

    def result(self) -> IngestResult:
        """The statistics of every record fed; raises ``NoSyncRecords`` when there was no sync."""
        self._gate(*self._held)
        self._held = self._held[0][:0], self._held[1][:0]
        if self._open_time is None:
            raise NoSyncRecords("stream contains no sync records")
        k_counts = self._k_counts.copy()
        k_counts[self._open_fired] += 1
        hist = ClickHistogram.from_clicks(self._clicks, self._n_syncs)
        stats = ClickPatternStats.from_counts(k_counts, hist.p_hat)
        return IngestResult(histogram=hist, pattern_stats=stats, n_discarded=self._n_discarded)

    def _gate(self, channels: np.ndarray, times: np.ndarray):
        """Gate sorted records that no later record can move to another pulse."""
        n_bins = self._config.n_bins

        # compress and flatnonzero beat boolean indexing on interleaved masks
        is_sync = channels == TimeTagStream.sync_channel
        has_open = self._open_time is not None
        # pulse 0 is the open pulse, pulse i the chunk's sync i; before the first sync
        # of the stream, a placeholder below every time stands in for the open pulse
        sync_times = np.concatenate(
            ([self._open_time if has_open else np.iinfo(np.int64).min], np.compress(is_sync, times))
        )
        det_at = np.flatnonzero(channels == TimeTagStream.detector_channel)

        # in time order, a record's pulse is the running count of syncs, plus any
        # sync that shares its time but comes after it
        pulse = np.cumsum(is_sync)[det_at]
        del is_sync
        offset = times[det_at]
        del det_at
        tied = np.flatnonzero(sync_times[np.minimum(pulse + 1, len(sync_times) - 1)] == offset)
        pulse[tied] = np.searchsorted(sync_times, offset[tied], side="right") - 1
        offset -= sync_times[pulse]
        j, ok = _gate_offsets(offset, self._config)
        del offset
        ok &= pulse >= (0 if has_open else 1)
        hit = np.flatnonzero(ok)
        self._n_discarded += len(ok) - len(hit)

        pulse, bin_of = pulse[hit], j[hit] - 1
        key = (pulse + self._n_syncs) * n_bins + bin_of  # pulses counted from the stream's start
        first = np.diff(key, prepend=self._last_key) != 0
        self._clicks += np.bincount(bin_of[first], minlength=n_bins)
        fired = np.bincount(pulse[first], minlength=len(sync_times))
        fired[0] += self._open_fired
        # every pulse but the last is closed: no later record can reach it
        self._k_counts += np.bincount(fired[0 if has_open else 1 : -1], minlength=n_bins + 1)
        self._open_fired = int(fired[-1])
        if len(key):
            self._last_key = int(key[-1])
        n_new = len(sync_times) - 1
        if n_new:
            self._open_time = int(sync_times[-1])
            self._n_syncs += n_new


def _gate_offsets(offset: np.ndarray, config: LoopConfig) -> tuple[np.ndarray, np.ndarray]:
    """(nearest bin j, inside bin j's gate) of records ``offset`` ps after their sync; overwrites ``offset``."""
    delay, gate = config.loop_delay_ps, config.gate_width_ps
    j = offset + delay // 2
    j //= delay
    residual = offset  # in place: a chunk can be large
    residual -= j * delay
    residual *= 2
    inside = (j >= 1) & (j <= config.n_bins)
    inside &= (residual >= -gate) & (residual < gate)
    return j, inside


def reflection_in_gates(config: LoopConfig, reflection_delay_ps: int, rep_period_ps: int) -> bool:
    """Whether a reflection delay puts records in a gate of any pulse, syncs ``rep_period_ps`` apart."""
    # a bin-j record lands (j * loop_delay_ps + the delay) mod the period after the last sync at or
    # before it; in Python ints, as the delay and the period may pass int64
    offset = np.arange(1, config.n_bins + 1, dtype=object) * config.loop_delay_ps
    offset = (offset + reflection_delay_ps) % rep_period_ps
    return bool(_gate_offsets(offset, config)[1].any())


def _witness(mean, var, n_bins: int, sigma2):
    """(N var / D - 1, D) with D = <c>(N - <c>) - N^2 sigma^2, for scalar or array moments.

    The witness is defined only where D > 0; callers check D.
    """
    denom = mean * (n_bins - mean) - n_bins**2 * sigma2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(n_bins * var, denom) - 1.0, denom


def q_pb(stats: ClickPatternStats) -> float:
    """Poisson-binomial nonclassicality witness of a click-pattern distribution.

    N is ``stats.n_bins``, the bins that c_k and sigma^2 were gathered on;
    any other N gives a wrong witness. To leave out trailing noise-floor
    bins, gate fewer bins: lower ``n_bins`` in the config.
    """
    q, denom = _witness(stats.mean_c, stats.var_c, stats.n_bins, stats.sigma2)
    if denom <= 0:
        raise DegenerateDenominator(f"<c>(N - <c>) - N^2 sigma^2 = {denom} is not positive")
    return float(q)


def q_b(stats: ClickPatternStats) -> float:
    """Binomial witness: the uniform-splitting special case (sigma^2 = 0) of :func:`q_pb`, same N.

    Ignores the spread of the per-bin probabilities, so exponentially
    decaying bins make classical light look falsely nonclassical.
    """
    q, denom = _witness(stats.mean_c, stats.var_c, stats.n_bins, 0.0)
    if denom <= 0:
        raise DegenerateDenominator(f"<c>(N - <c>) = {denom} is not positive")
    return float(q)


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap witness uncertainties; unpacks as (sigma_qpb, sigma_qb)."""

    sigma_qpb: float
    sigma_qb: float
    n_degenerate_qpb: int
    n_degenerate_qb: int

    def __iter__(self):
        return iter((self.sigma_qpb, self.sigma_qb))


def bootstrap_sigma(
    stats: ClickPatternStats,
    *,
    trials_observed: int,
    iterations: int = 10000,
    seed: int = 0,
) -> BootstrapResult:
    """Parametric bootstrap uncertainties of both witnesses, with N = ``stats.n_bins``.

    Each iteration redraws ``trials_observed`` pulses, the count that c_k was
    measured on, from a multinomial over c_k and recomputes both witnesses;
    the returned sigmas are the (population) standard deviations across
    iterations. The bin-probability moments entering the Poisson-binomial
    witness stay fixed at their measured values, since the pattern
    distribution alone carries no per-bin information. Degenerate iterations
    are excluded and tallied; a witness with fewer than 2 usable iterations
    gets a NaN sigma. Iterations are drawn ``_BOOTSTRAP_ROWS`` at a time,
    the rows one call would draw, keeping their moments: 64 B an iteration.
    """
    if iterations < 2:
        raise ValueError(f"iterations must be >= 2, got {iterations}")
    if trials_observed < 1:
        raise ValueError(f"trials_observed must be >= 1, got {trials_observed}")

    rng = np.random.Generator(np.random.Philox(key=seed))
    k = np.arange(len(stats.c), dtype=float)
    mean, var = np.empty(iterations), np.empty(iterations)
    edges = [*range(0, iterations, _BOOTSTRAP_ROWS), iterations]
    for lo, hi in zip(edges, edges[1:]):
        c_resampled = rng.multinomial(trials_observed, stats.c, size=hi - lo) / trials_observed
        mean[lo:hi] = c_resampled @ k
        var[lo:hi] = c_resampled @ k**2 - mean[lo:hi] ** 2

    sigmas, n_degenerate = [], []
    for sigma2 in (stats.sigma2, 0.0):  # q_pb, then q_b
        values, denom = _witness(mean, var, stats.n_bins, sigma2)
        usable = values[denom > 0]
        sigmas.append(float(np.std(usable)) if len(usable) >= 2 else float("nan"))
        n_degenerate.append(iterations - len(usable))
    return BootstrapResult(*sigmas, *n_degenerate)
