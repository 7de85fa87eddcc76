"""Domain types shared by every photonloop module.

Covers the detector/loop configuration, photon-number distributions of the
input light, click histograms with binomial confidence intervals, pattern
(number-of-bins-fired) statistics, raw time-tag streams, and the result
containers of the fitting and calibration pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import stats as _sps

from .errors import UnsortedStream

__all__ = [
    "Mode",
    "LoopConfig",
    "PhotonSource",
    "Fock",
    "Coherent",
    "Thermal",
    "MultiThermal",
    "LossyFock",
    "mean_photon_number",
    "pmf",
    "wilson_interval",
    "ClickHistogram",
    "ClickPatternStats",
    "TimeTagStream",
    "FitResult",
    "CalibrationResult",
]


class Mode(str, Enum):
    """Loop switching architecture: actively gated in-coupling or a fixed splitter."""

    ACTIVE = "active"
    PASSIVE = "passive"


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class LoopConfig:
    """Parameters of a fibre-loop click detector.

    Parameters
    ----------
    mode : Mode
        Active (full pulse switched into the loop) or passive (fixed splitter,
        a fraction R goes straight to the detector in bin 1).
    R : float
        Splitter reflectivity, in [0, 1].
    eta : float
        Round-trip loop efficiency, in [0, 1].
    nu : float
        Dark-count probability per bin, in [0, 1).
    n_bins : int
        Number of detection time bins recorded per pulse.
    loop_delay_ps, gate_width_ps : int
        Round-trip time and post-processing gate width, picoseconds.
        The gate must be narrower than the loop delay so gates never overlap.
    sigma_R, sigma_eta, sigma_nu : float
        Absolute 1-sigma uncertainties of R, eta, nu; used by the
        calibration error propagation.
    n_max_guard : int, optional
        Maximum tolerated photons per pulse (detector damage/latching guard).
        Simulations raise ``GuardExceeded`` if a pulse draws more.
    """

    mode: Mode
    R: float
    eta: float
    nu: float
    n_bins: int = 130
    loop_delay_ps: int = 156_000
    gate_width_ps: int = 4_000
    sigma_R: float = 0.0
    sigma_eta: float = 0.0
    sigma_nu: float = 0.0
    n_max_guard: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        _require(0.0 <= self.R <= 1.0, f"R must be in [0, 1], got {self.R}")
        _require(0.0 <= self.eta <= 1.0, f"eta must be in [0, 1], got {self.eta}")
        _require(0.0 <= self.nu < 1.0, f"nu must be in [0, 1), got {self.nu}")
        _require(self.n_bins >= 1, f"n_bins must be >= 1, got {self.n_bins}")
        _require(self.loop_delay_ps > 0, f"loop_delay_ps must be positive, got {self.loop_delay_ps}")
        _require(self.gate_width_ps > 0, f"gate_width_ps must be positive, got {self.gate_width_ps}")
        _require(
            self.gate_width_ps < self.loop_delay_ps,
            f"gate_width_ps must be smaller than loop_delay_ps, got {self.gate_width_ps} >= {self.loop_delay_ps}",
        )
        _require(self.sigma_R >= 0.0, f"sigma_R must be non-negative, got {self.sigma_R}")
        _require(self.sigma_eta >= 0.0, f"sigma_eta must be non-negative, got {self.sigma_eta}")
        _require(self.sigma_nu >= 0.0, f"sigma_nu must be non-negative, got {self.sigma_nu}")
        if self.n_max_guard is not None:
            _require(self.n_max_guard >= 0, f"n_max_guard must be non-negative, got {self.n_max_guard}")


class PhotonSource:
    """Photon-number distribution of the light entering the loop.

    Subclasses provide the mean, the probability mass function, a sampler,
    and a truncation bound for tail-controlled series evaluation.
    """

    def mean_photon_number(self) -> float:
        raise NotImplementedError

    def pmf(self, n) -> np.ndarray | float:
        """Probability of exactly ``n`` photons (vectorized over ``n``)."""
        raise NotImplementedError

    def truncation_bound(self, tail_tol: float) -> int:
        """Smallest n_t such that P(n > n_t) < tail_tol."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw photon numbers for ``size`` pulses."""
        raise NotImplementedError


@dataclass(frozen=True)
class Fock(PhotonSource):
    """Photon-number eigenstate with exactly ``n`` photons per pulse."""

    n: int

    def __post_init__(self):
        _require(self.n >= 0, f"n must be non-negative, got {self.n}")

    def mean_photon_number(self) -> float:
        return float(self.n)

    def pmf(self, n):
        return np.where(np.asarray(n) == self.n, 1.0, 0.0)[()]

    def truncation_bound(self, tail_tol: float) -> int:
        return self.n

    def sample(self, rng, size):
        return np.full(size, self.n, dtype=np.int64)


@dataclass(frozen=True)
class Coherent(PhotonSource):
    """Coherent (laser) light: Poissonian photon statistics with mean ``nbar``."""

    nbar: float

    def __post_init__(self):
        _require(self.nbar >= 0, f"nbar must be non-negative, got {self.nbar}")

    def mean_photon_number(self) -> float:
        return float(self.nbar)

    def pmf(self, n):
        return _sps.poisson.pmf(n, self.nbar)

    def truncation_bound(self, tail_tol):
        return int(_sps.poisson.isf(tail_tol, self.nbar)) + 1

    def sample(self, rng, size):
        return rng.poisson(self.nbar, size=size).astype(np.int64)


@dataclass(frozen=True)
class Thermal(PhotonSource):
    """Single-mode thermal light: Bose-Einstein (geometric) statistics."""

    nbar: float

    def __post_init__(self):
        _require(self.nbar >= 0, f"nbar must be non-negative, got {self.nbar}")

    @property
    def _p(self) -> float:
        return 1.0 / (1.0 + self.nbar)

    def mean_photon_number(self) -> float:
        return float(self.nbar)

    def pmf(self, n):
        # nbar^n / (1+nbar)^(n+1), i.e. negative binomial with shape 1
        return _sps.nbinom.pmf(n, 1.0, self._p)

    def truncation_bound(self, tail_tol):
        if self.nbar == 0:
            return 0
        return int(_sps.nbinom.isf(tail_tol, 1.0, self._p)) + 1

    def sample(self, rng, size):
        return rng.negative_binomial(1.0, self._p, size=size).astype(np.int64)


@dataclass(frozen=True)
class MultiThermal(PhotonSource):
    """Mixture of K independent thermal modes with total mean ``nbar``.

    Modeled as a Gamma(shape=K, scale=nbar/K)-mixed Poisson, i.e. a negative
    binomial with real-valued shape K. Reduces to ``Thermal`` at K=1 and to
    Poissonian statistics as K -> inf; variance is nbar + nbar^2/K.
    """

    nbar: float
    K: float

    def __post_init__(self):
        _require(self.nbar >= 0, f"nbar must be non-negative, got {self.nbar}")
        _require(self.K >= 1.0, f"K must be >= 1, got {self.K}")

    @property
    def _p(self) -> float:
        return self.K / (self.K + self.nbar)

    def mean_photon_number(self) -> float:
        return float(self.nbar)

    def pmf(self, n):
        return _sps.nbinom.pmf(n, self.K, self._p)

    def truncation_bound(self, tail_tol):
        if self.nbar == 0:
            return 0
        return int(_sps.nbinom.isf(tail_tol, self.K, self._p)) + 1

    def sample(self, rng, size):
        return rng.negative_binomial(self.K, self._p, size=size).astype(np.int64)


@dataclass(frozen=True)
class LossyFock(PhotonSource):
    """Heralded ``n``-photon state after binomial loss with transmission ``t``.

    Models heralded single photons reaching the loop with a Klyshko-style
    transmission efficiency; the loss acts before the loop.
    """

    n: int
    t: float

    def __post_init__(self):
        _require(self.n >= 0, f"n must be non-negative, got {self.n}")
        _require(0.0 <= self.t <= 1.0, f"t must be in [0, 1], got {self.t}")

    def mean_photon_number(self) -> float:
        return float(self.n) * self.t

    def pmf(self, n):
        return _sps.binom.pmf(n, self.n, self.t)

    def truncation_bound(self, tail_tol):
        return self.n

    def sample(self, rng, size):
        return rng.binomial(self.n, self.t, size=size).astype(np.int64)


def mean_photon_number(source: PhotonSource) -> float:
    """Mean photon number of any source variant."""
    return source.mean_photon_number()


def pmf(source: PhotonSource, n) -> np.ndarray | float:
    """Photon-number probability mass of any source variant."""
    return source.pmf(n)


def wilson_interval(
    clicks: np.ndarray, trials: int, coverage: float = 0.683
) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval for binomial success probabilities.

    Well behaved at probabilities near 0 and 1, where this detector spends
    most of its bins.

    Parameters
    ----------
    clicks : array of int
        Successes per bin.
    trials : int
        Number of Bernoulli trials (pulses).
    coverage : float
        Two-sided coverage; default 0.683 (one Gaussian sigma).

    Returns
    -------
    (lo, hi) : arrays of the interval bounds.
    """
    _require(trials >= 1, f"trials must be >= 1, got {trials}")
    clicks = np.asarray(clicks)
    _require(bool(((clicks >= 0) & (clicks <= trials)).all()), "clicks must lie in [0, trials]")
    z = _sps.norm.ppf(0.5 + coverage / 2.0)
    p = clicks.astype(float) / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / trials + z**2 / (4.0 * trials**2))
    lo = np.clip(center - half, 0.0, None)
    hi = np.clip(center + half, None, 1.0)
    # guard against rounding pushing a bound past the point estimate
    return np.minimum(lo, p), np.maximum(hi, p)


@dataclass(frozen=True)
class ClickHistogram:
    """Per-bin click counts over ``trials`` pulses, with confidence bounds."""

    trials: int
    clicks: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    def __post_init__(self):
        _require(self.trials >= 1, f"trials must be >= 1, got {self.trials}")
        clicks = np.asarray(self.clicks, dtype=np.int64)
        _require(bool((clicks >= 0).all()), "clicks must be non-negative")
        _require(bool((clicks <= self.trials).all()), "clicks cannot exceed trials")
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "p_hat", np.asarray(self.p_hat, dtype=float))
        object.__setattr__(self, "ci_lo", np.asarray(self.ci_lo, dtype=float))
        object.__setattr__(self, "ci_hi", np.asarray(self.ci_hi, dtype=float))

    @classmethod
    def from_clicks(cls, clicks, trials: int, coverage: float = 0.683) -> "ClickHistogram":
        clicks = np.asarray(clicks, dtype=np.int64)
        lo, hi = wilson_interval(clicks, trials, coverage)
        return cls(trials=trials, clicks=clicks, p_hat=clicks / trials, ci_lo=lo, ci_hi=hi)

    @property
    def n_bins(self) -> int:
        return len(self.clicks)

    def sigma_p(self) -> np.ndarray:
        """Per-bin click-probability uncertainty (half the confidence interval)."""
        return (self.ci_hi - self.ci_lo) / 2.0


@dataclass(frozen=True)
class ClickPatternStats:
    """Distribution of the number of bins that fired per pulse.

    ``c[k]`` is the probability that exactly k of the N bins clicked;
    ``m`` and ``sigma2`` are the mean and population variance of the
    per-bin click probabilities of the same run.
    """

    c: np.ndarray
    mean_c: float
    var_c: float
    m: float
    sigma2: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        _require(abs(c.sum() - 1.0) < 1e-9, f"pattern probabilities must sum to 1, got {c.sum()}")
        _require(self.sigma2 >= 0.0, "sigma2 must be non-negative")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_counts(cls, k_counts: np.ndarray, p_hat: np.ndarray) -> "ClickPatternStats":
        """Build from per-pulse fired-bin-count tallies and the run's p_hat.

        ``k_counts[k]`` is the number of pulses in which exactly k bins fired;
        its length fixes N + 1.
        """
        k_counts = np.asarray(k_counts, dtype=np.int64)
        total = k_counts.sum()
        _require(total >= 1, "k_counts must tally at least one pulse")
        c = k_counts / total
        k = np.arange(len(c))
        mean_c = float(c @ k)
        var_c = float(c @ (k - mean_c) ** 2)
        p_hat = np.asarray(p_hat, dtype=float)
        m = float(p_hat.mean())
        sigma2 = float(np.mean((p_hat - m) ** 2))
        return cls(c=c, mean_c=mean_c, var_c=var_c, m=m, sigma2=sigma2)

    @property
    def n_bins(self) -> int:
        return len(self.c) - 1


@dataclass(frozen=True)
class TimeTagStream:
    """Raw time-tagger records: one channel id and one timestamp per event.

    Records must be sorted by time (non-decreasing); construction raises
    ``UnsortedStream`` naming the first offending record otherwise.
    """

    channels: np.ndarray
    times_ps: np.ndarray
    sync_channel: int = 0
    detector_channel: int = 1

    def __post_init__(self):
        channels = np.asarray(self.channels, dtype=np.int64)
        times = np.asarray(self.times_ps, dtype=np.int64)
        _require(channels.shape == times.shape, "channels and times_ps must have equal length")
        if len(times) > 1:
            bad = np.nonzero(np.diff(times) < 0)[0]
            if len(bad):
                raise UnsortedStream(int(bad[0]) + 1)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "times_ps", times)

    @property
    def n_records(self) -> int:
        return len(self.times_ps)


@dataclass(frozen=True)
class FitResult:
    """Loop parameters recovered from an attenuated-coherent histogram.

    For a passive loop, R and eta are individually identifiable and
    ``identifiable`` is True. For an active loop only the product R*eta is
    constrained by the data; the per-parameter fields are NaN and the
    product is reported in ``r_eta_hat``.
    """

    R_hat: float
    eta_hat: float
    nbar_hat: float
    sigma_R: float
    sigma_eta: float
    sigma_nbar: float
    residual_norm: float
    dof: int
    r_eta_hat: float
    sigma_r_eta: float
    identifiable: bool


@dataclass(frozen=True)
class CalibrationResult:
    """Output of the high-dynamic-range photon-number calibration.

    ``n_out_per_bin`` has one row per bin: (estimate, sigma), NaN where the
    bin was saturated or below the noise floor.
    """

    n_out_per_bin: np.ndarray
    j_min: int
    n_measured: float
    sigma_n_measured: float
    included_bins: tuple[int, ...]
    saturated_bins: tuple[int, ...]
    below_noise_bins: tuple[int, ...]
    sde: Optional[float] = None
    sigma_sde: Optional[float] = None
    dynamic_range_db: Optional[float] = None
