"""Exception hierarchy for the photonloop package."""


class PhotonLoopError(Exception):
    """Base class for all photonloop runtime errors."""


class UnsupportedSource(PhotonLoopError):
    """No closed-form click probability exists for this photon source."""


class NonConvergence(PhotonLoopError):
    """A truncated series would need more terms than the configured cap."""


class DivergentLoop(PhotonLoopError):
    """Loop gain R*eta >= 1; geometric photon-number sums do not converge."""


class GuardExceeded(PhotonLoopError):
    """A drawn photon number exceeded the configured per-pulse guard."""


class UnsortedStream(PhotonLoopError):
    """Time-tag records are not sorted by time.

    `index` is the position of the first record that breaks the ordering.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"time-tag record {index} is earlier than its predecessor")


class NoSyncRecords(PhotonLoopError):
    """The time-tag stream contains no sync (pulse trigger) records."""


class DegenerateDenominator(PhotonLoopError):
    """Witness denominator is non-positive; statistics are insufficient."""


class SaturatedBin(PhotonLoopError):
    """Click probability is too close to 1 to invert (log diverges)."""


class BelowNoise(PhotonLoopError):
    """Click probability lies below the dark-count floor."""


class NoValidBins(PhotonLoopError):
    """No per-bin estimate is usable for the weighted mean."""


class FitDiverged(PhotonLoopError):
    """The loop-parameter fit failed to converge."""


class SaturatedFirstBin(PhotonLoopError):
    """First-bin click probability is saturated; attenuate the input more."""
