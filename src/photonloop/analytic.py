"""Closed-form and numeric click probabilities and mean photon flows.

A photon entering the loop exits into time bin j with a per-photon
probability q_j fixed by the splitter reflectivity R and the round-trip
efficiency eta; photons route independently. Everything in this module
follows from q_j: the bin click probability for n incident photons is
1 - (1 - q_j)^n, and averaging over a photon-number distribution gives the
closed forms for Fock, coherent, and thermal light, in both the active and
passive switching architectures.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergentLoop, NonConvergence, UnsupportedSource
from .models import Coherent, Fock, LoopConfig, Mode, PhotonSource, Thermal

__all__ = [
    "bin_exit_prob",
    "bin_exit_probs",
    "prob_bin_given_n",
    "click_prob_closed",
    "click_prob_numeric",
    "mean_photons_per_bin",
    "total_output_photons",
    "output_fraction",
    "invert_total_output",
]

#: Hard cap on the number of photon-number terms in the numeric summation.
MAX_SUM_TERMS = 10_000_000


def bin_exit_prob(config: LoopConfig, j):
    """Per-photon probability q_j of leaving the loop into time bin j (1-based).

    Active: q_j = (1-R) R^(j-1) eta^j for all j >= 1.
    Passive: q_1 = R (direct reflection, no loop pass);
    q_j = (1-R)^2 R^(j-2) eta^(j-1) for j >= 2.

    This is the only place q_j is written down. ``j`` is an int (returns a
    float) or an integer array (returns an array of the same shape).
    """
    j_arr = np.asarray(j)
    if (j_arr < 1).any():
        raise ValueError(f"j must be >= 1, got {j}")
    R, eta = config.R, config.eta
    jf = j_arr.astype(float)
    if config.mode is Mode.ACTIVE:
        q = (1.0 - R) * R ** (jf - 1.0) * eta**jf
    else:
        # the j >= 2 branch is clamped at j = 1 so that R = 0 cannot divide by zero there
        loop = (1.0 - R) ** 2 * R ** np.maximum(jf - 2.0, 0.0) * eta ** (jf - 1.0)
        q = np.where(j_arr == 1, R, loop)
    return float(q) if q.ndim == 0 else q


def bin_exit_probs(config: LoopConfig, n_bins: int | None = None) -> np.ndarray:
    """Vector of q_j for j = 1..n_bins (default: config.n_bins)."""
    n = config.n_bins if n_bins is None else n_bins
    return bin_exit_prob(config, np.arange(1, n + 1))


def _no_click_power(q: float, n) -> np.ndarray | float:
    """(1 - q)^n evaluated stably in log space for bright pulses."""
    n = np.asarray(n, dtype=float)
    if q >= 1.0:
        return np.where(n == 0, 1.0, 0.0)[()]
    return np.exp(n * math.log1p(-q))[()]


def prob_bin_given_n(config: LoopConfig, j: int, n: int) -> float:
    """Probability that bin j holds at least one photon, given n incident."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return float(1.0 - _no_click_power(bin_exit_prob(config, j), n))


def click_prob_closed(config: LoopConfig, source: PhotonSource, j: int) -> float:
    """Closed-form click probability of bin j for Fock, coherent, or thermal light.

    Uses the architecture-appropriate analytic expression, including the
    distinct passive j=1 branch. Other source variants have no closed form;
    use :func:`click_prob_numeric` for those.
    """
    q = bin_exit_prob(config, j)
    nu = config.nu
    if isinstance(source, Fock):
        no_click = _no_click_power(q, source.n)
    elif isinstance(source, Coherent):
        no_click = math.exp(-q * source.nbar)
    elif isinstance(source, Thermal):
        no_click = 1.0 / (1.0 + q * source.nbar)
    else:
        raise UnsupportedSource(
            f"no closed form for {type(source).__name__}; use click_prob_numeric"
        )
    return 1.0 - (1.0 - nu) * no_click


def click_prob_numeric(
    config: LoopConfig,
    source: PhotonSource,
    j: int,
    tail_tol: float = 1e-12,
    max_terms: int = MAX_SUM_TERMS,
) -> float:
    """Click probability of bin j by direct photon-number summation.

    Evaluates (1 - nu) * sum_n P(j|n) rho(n) + nu, truncating the sum where
    the remaining probability mass of the source falls below ``tail_tol``.
    Works for every source variant and serves as the oracle for the closed
    forms. The truncation error is bounded by ``tail_tol`` since P(j|n) <= 1;
    on top of that the result inherits the precision of the pmf terms, which
    degrades to ~1e-9 relative for means around 1e5 (log-gamma cancellation
    in double precision).
    """
    if tail_tol <= 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    n_cut = source.truncation_bound(tail_tol)
    if n_cut + 1 > max_terms:
        raise NonConvergence(
            f"summation needs {n_cut + 1} terms, above the cap of {max_terms}"
        )
    n = np.arange(n_cut + 1)
    weights = np.asarray(source.pmf(n), dtype=float)
    q = bin_exit_prob(config, j)
    p_click_given_n = 1.0 - np.asarray(_no_click_power(q, n), dtype=float)
    # exact summation: plain dot products drift by ~n*eps over bright-pulse ranges
    total = math.fsum(weights * p_click_given_n)
    return float((1.0 - config.nu) * total + config.nu)


def mean_photons_per_bin(config: LoopConfig, nbar_in: float, j: int) -> float:
    """Mean photon number delivered to bin j for ``nbar_in`` photons per pulse."""
    if nbar_in < 0:
        raise ValueError(f"nbar_in must be non-negative, got {nbar_in}")
    return nbar_in * bin_exit_prob(config, j)


def output_fraction(config: LoopConfig) -> float:
    """Fraction of the input mean photon number that ever reaches the detector.

    Geometric sum of the per-bin exit probabilities over all bins:
    eta(1-R)/(1-R eta) for active, (R + eta - 2 R eta)/(1 - R eta) passive.
    """
    R, eta = config.R, config.eta
    if R * eta >= 1.0:
        raise DivergentLoop(f"R*eta must be < 1, got {R * eta}")
    if config.mode is Mode.ACTIVE:
        return eta * (1.0 - R) / (1.0 - R * eta)
    return (R + eta - 2.0 * R * eta) / (1.0 - R * eta)


def total_output_photons(config: LoopConfig, nbar_in: float) -> float:
    """Total mean photon number leaving the loop, summed over all bins."""
    if nbar_in < 0:
        raise ValueError(f"nbar_in must be non-negative, got {nbar_in}")
    return nbar_in * output_fraction(config)


def invert_total_output(config: LoopConfig, nbar_out: float) -> float:
    """Input mean photon number that produces ``nbar_out`` at the detector."""
    if nbar_out < 0:
        raise ValueError(f"nbar_out must be non-negative, got {nbar_out}")
    if nbar_out == 0.0:
        return 0.0
    return nbar_out / output_fraction(config)
