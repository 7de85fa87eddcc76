"""photonloop: simulation and calibration of time-multiplexed loop click detectors."""

from . import analytic, calibration, clickstats, errors, simulator
from .models import (
    CalibrationResult,
    ClickHistogram,
    ClickPatternStats,
    Coherent,
    FitResult,
    Fock,
    LoopConfig,
    LossyFock,
    Mode,
    MultiThermal,
    PhotonSource,
    Thermal,
    TimeTagStream,
    mean_photon_number,
    pmf,
)
from .simulator import ArtifactModel, SimOptions

__version__ = "0.17.0"

__all__ = [
    "analytic",
    "calibration",
    "clickstats",
    "errors",
    "simulator",
    "Mode",
    "LoopConfig",
    "PhotonSource",
    "Fock",
    "Coherent",
    "Thermal",
    "MultiThermal",
    "LossyFock",
    "ClickHistogram",
    "ClickPatternStats",
    "TimeTagStream",
    "FitResult",
    "CalibrationResult",
    "ArtifactModel",
    "SimOptions",
    "mean_photon_number",
    "pmf",
    "__version__",
]
