"""High-dynamic-range photon-number calibration of a loop click detector.

Pipeline: fit the loop parameters on an attenuated coherent run, invert
every bin of a bright run into an independent estimate of the mean output
photon number, propagate all uncertainties per bin, and combine the bins
into an inverse-variance weighted mean. Referencing the result against a
power-meter reading yields the system detection efficiency and the dynamic
range of the detector.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Optional

import numpy as np
from scipy import constants
from scipy.optimize import least_squares

from . import analytic
from .errors import (
    BelowNoise,
    FitDiverged,
    NoValidBins,
    SaturatedBin,
    SaturatedFirstBin,
)
from .models import CalibrationResult, ClickHistogram, FitResult, LoopConfig, Mode

__all__ = [
    "power_to_photons",
    "estimate_nout_per_bin",
    "nout_partial_derivatives",
    "propagate_sigma_nout",
    "weighted_mean_nout",
    "fit_loop_params",
    "system_detection_efficiency",
    "dynamic_range_db",
    "max_usable_bins",
    "calibrate",
]

_EPS = float(np.finfo(float).eps)


def power_to_photons(power_watts: float, rep_rate_hz: float, wavelength_m: float) -> float:
    """Mean photons per pulse corresponding to an average power reading."""
    if rep_rate_hz <= 0:
        raise ValueError(f"rep_rate_hz must be positive, got {rep_rate_hz}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength_m must be positive, got {wavelength_m}")
    if power_watts < 0:
        raise ValueError(f"power_watts must be non-negative, got {power_watts}")
    photon_energy = constants.h * constants.c / wavelength_m
    return power_watts / (photon_energy * rep_rate_hz)


def _inversion_coefficient(config: LoopConfig, j):
    """Maps ln[(1-nu)/(1-p_j)] to the total mean output photon number.

    Equals (total output fraction) / q_j; for an active loop it depends on
    R and eta only through their product.
    """
    return analytic.output_fraction(config) / analytic.bin_exit_prob(config, j)


def _float_if_scalar(value):
    """A 0-d result (every input was a scalar) as a float; arrays unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def estimate_nout_per_bin(config: LoopConfig, p_j, j):
    """Per-bin estimate of the total mean output photon number.

    Inverts the coherent-state click probability of bin j, so a coherent
    input is assumed. ``p_j`` and ``j`` are scalars (returns a float) or
    arrays that broadcast together (returns an array). Raises
    ``SaturatedBin`` when a p_j is too close to 1 for the logarithm to be
    meaningful and ``BelowNoise`` when a p_j is under the dark-count floor;
    the message names the first such bin.
    """
    p, jb = np.broadcast_arrays(np.asarray(p_j, dtype=float), np.asarray(j))
    saturated = np.flatnonzero(1.0 - p <= _EPS)
    if len(saturated):
        k = saturated[0]
        raise SaturatedBin(f"bin {jb.flat[k]}: p = {p.flat[k]} is saturated")
    below = np.flatnonzero(p < config.nu)
    if len(below):
        k = below[0]
        raise BelowNoise(
            f"bin {jb.flat[k]}: p = {p.flat[k]} is below the dark-count floor {config.nu}"
        )
    # ln[(1-nu)/(1-p_j)], stable for p_j close to nu
    log_ratio = np.log1p((p - config.nu) / (1.0 - p))
    return _float_if_scalar(_inversion_coefficient(config, jb) * log_ratio)


def nout_partial_derivatives(config: LoopConfig, p_j, j) -> dict:
    """Partial derivatives of the per-bin estimate wrt p_j, R, eta, nu.

    Every branch is a closed form. The estimate is C_j ln[(1-nu)/(1-p_j)]
    with the inversion coefficient C_j = (output fraction) / q_j, so the R
    and eta partials are the estimate times d ln C_j. With s = R eta and
    D = R + eta - 2 R eta:

    - active: C_j = 1/((1-s) s^(j-1)), so d ln C_j/dR = eta g and
      d ln C_j/d eta = R g with g = 1/(1-s) - (j-1)/s;
    - passive: C_j = D/((1-s) q_j), so d ln C_j/dR = (1-2 eta)/D + eta/(1-s)
      - d ln q_j/dR and d ln C_j/d eta = (1-2R)/D + R/(1-s) - (j-1)/eta,
      where d ln q_j/dR is 1/R for j = 1 and (j-2)/R - 2/(1-R) for j >= 2.

    Accepts scalars or broadcastable arrays like :func:`estimate_nout_per_bin`
    and returns floats or arrays to match.
    """
    nout = estimate_nout_per_bin(config, p_j, j)
    p, jf = np.broadcast_arrays(np.asarray(p_j, dtype=float), np.asarray(j, dtype=float))
    coeff = _inversion_coefficient(config, jf)
    R, eta = config.R, config.eta
    s = R * eta
    if config.mode is Mode.ACTIVE:
        g = 1.0 / (1.0 - s) - (jf - 1.0) / s
        dln_r, dln_eta = eta * g, R * g
    else:
        denom = R + eta - 2.0 * s
        dln_q_r = np.where(jf == 1.0, 1.0 / R, (jf - 2.0) / R - 2.0 / (1.0 - R))
        dln_r = (1.0 - 2.0 * eta) / denom + eta / (1.0 - s) - dln_q_r
        dln_eta = (1.0 - 2.0 * R) / denom + R / (1.0 - s) - (jf - 1.0) / eta
    partials = {
        "p": coeff / (1.0 - p),
        "R": nout * dln_r,
        "eta": nout * dln_eta,
        "nu": -coeff / (1.0 - config.nu),
    }
    return {key: _float_if_scalar(value) for key, value in partials.items()}


def propagate_sigma_nout(config: LoopConfig, p_j, sigma_p, j):
    """Gaussian-propagated uncertainty of the per-bin photon-number estimate.

    Four-term quadrature over the uncertainties of the click probability
    (``sigma_p``) and of R, eta, nu (taken from ``config``). Accepts scalars
    or broadcastable arrays and returns a float or an array to match.
    """
    d = nout_partial_derivatives(config, p_j, j)
    return _float_if_scalar(
        np.sqrt(
            (d["p"] * np.asarray(sigma_p, dtype=float)) ** 2
            + (d["R"] * config.sigma_R) ** 2
            + (d["eta"] * config.sigma_eta) ** 2
            + (d["nu"] * config.sigma_nu) ** 2
        )
    )


def weighted_mean_nout(
    estimates: Iterable[tuple[float, float]], j_min: int = 1
) -> tuple[float, float]:
    """Inverse-variance weighted mean of per-bin estimates from bin j_min on.

    ``estimates[k]`` belongs to bin j = k + 1. Bins with non-finite values or
    non-positive sigma are skipped. Returns (mean, sigma) with
    sigma = 1/sqrt(sum of weights).
    """
    est = np.asarray(list(estimates), dtype=float).reshape(-1, 2)
    x, sigma = est[:, 0], est[:, 1]
    ok = np.isfinite(x) & np.isfinite(sigma) & (sigma > 0)
    ok &= np.arange(1, len(est) + 1) >= j_min
    if not ok.any():
        raise NoValidBins(f"no usable per-bin estimate at or above bin {j_min}")
    weights = 1.0 / sigma[ok] ** 2
    return float((weights @ x[ok]) / weights.sum()), float(1.0 / math.sqrt(weights.sum()))


def _decay_slope(log_l: np.ndarray, js: np.ndarray) -> float:
    if len(js) < 2:
        return math.log(0.5)
    return float(np.polyfit(js, log_l, 1)[0])


def _fit_starts(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=20240712))
    starts = [x0]
    for _ in range(4):
        jitter = rng.normal(0.0, 0.1, size=len(x0))
        starts.append(np.clip(x0 * np.exp(jitter), lo, hi))
    return starts


def fit_loop_params(hist: ClickHistogram, config_prior: LoopConfig) -> FitResult:
    """Weighted nonlinear least squares of the coherent click model.

    The model is p_j = 1 - (1 - nu) exp(-q_j nbar), with q_j from
    :func:`analytic.bin_exit_prob`. Fits (R, eta, nbar) for a passive loop.
    For an active loop the data constrain only the product R*eta and the
    overall brightness, so the loop is represented as (R, eta) = (R*eta, 1):
    q_j = (1 - s) s^(j-1) with s = R*eta, and the fit is over (s, nbar).
    ``r_eta_hat`` carries the product and the individual parameters are
    reported as NaN with ``identifiable`` False; :func:`calibrate` inverts
    with the same representation. ``nu`` is held fixed at the separately
    measured value from ``config_prior``.

    Weighting is inverse-variance and iteratively refined: the first pass
    uses the confidence widths of the measured click probabilities, later
    passes use binomial variances evaluated on the fitted curve. Reweighting
    on the model removes the bias that data-derived weights introduce
    (upward-fluctuating near-saturated bins would otherwise get
    systematically smaller errors and larger weights).
    """
    p_hat = hist.p_hat
    if p_hat[0] > 0.99:
        raise SaturatedFirstBin(
            f"first-bin click probability {p_hat[0]:.4f} > 0.99; attenuate the input"
        )
    nu = config_prior.nu
    n_bins = hist.n_bins
    sigma = np.maximum(hist.sigma_p(), 1e-12)

    # exact per-bin exponents L_j = q_j * nbar seed the start values
    usable = (p_hat > nu + 3.0 * sigma) & (p_hat < 1.0 - 1e-6)
    L = np.full(n_bins, np.nan)
    ok = 1.0 - p_hat > _EPS
    L[ok] = np.log1p((p_hat[ok] - nu) / (1.0 - p_hat[ok]))
    decay = usable.copy()
    decay[0] = False
    js = np.nonzero(decay)[0] + 1
    slope = _decay_slope(np.log(L[decay]), js) if decay.sum() >= 2 else math.log(0.5)
    s0 = min(max(math.exp(slope), 1e-3), 0.999)

    passive = config_prior.mode is Mode.PASSIVE
    if passive:
        if usable[0] and usable[1]:
            ratio = L[1] / L[0]
            r0 = 1.0 / (1.0 + math.sqrt(max(ratio / s0, 1e-12)))
        else:
            r0 = 0.5
        eta0 = min(max(s0 / r0, 1e-3), 1.0)
        nbar0 = L[0] / r0 if usable[0] else max(np.nanmax(L), 0.1)
        x0 = np.array([r0, eta0, max(nbar0, 1e-6)])
        lo = np.array([1e-9, 1e-9, 0.0])
        hi = np.array([1.0 - 1e-9, 1.0, np.inf])
    else:
        nbar0 = (L[0] if usable[0] else max(np.nanmax(L), 0.1)) / (1.0 - s0)
        x0 = np.array([s0, max(nbar0, 1e-6)])
        lo = np.array([1e-9, 0.0])
        hi = np.array([1.0 - 1e-9, np.inf])
    bins = np.arange(1, n_bins + 1)

    def model(x):
        loop = replace(config_prior, R=x[0], eta=x[1] if passive else 1.0)
        return 1.0 - (1.0 - nu) * np.exp(-analytic.bin_exit_prob(loop, bins) * x[-1])

    best = None
    for start in _fit_starts(x0, lo, hi):
        try:
            res = least_squares(
                lambda x: (model(x) - p_hat) / sigma, start, bounds=(lo, hi), method="trf"
            )
        except Exception:
            continue
        if res.success and math.isfinite(res.cost) and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitDiverged("least-squares failed from every start point")

    for _ in range(2):
        p_model = model(best.x)
        sigma = np.sqrt(
            np.maximum(p_model * (1.0 - p_model), 1.0 / hist.trials) / hist.trials
        )
        try:
            res = least_squares(
                lambda x: (model(x) - p_hat) / sigma, best.x, bounds=(lo, hi), method="trf"
            )
        except Exception:
            break
        if not (res.success and math.isfinite(res.cost)):
            break
        best = res

    jac = best.jac
    cov = np.linalg.pinv(jac.T @ jac)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    residual_norm = float(2.0 * best.cost)
    dof = n_bins - len(x0)

    if passive:
        r, eta, nbar = best.x
        var_prod = (
            (eta * perr[0]) ** 2 + (r * perr[1]) ** 2 + 2.0 * r * eta * cov[0, 1]
        )
        return FitResult(
            R_hat=float(r),
            eta_hat=float(eta),
            nbar_hat=float(nbar),
            sigma_R=float(perr[0]),
            sigma_eta=float(perr[1]),
            sigma_nbar=float(perr[2]),
            residual_norm=residual_norm,
            dof=dof,
            r_eta_hat=float(r * eta),
            sigma_r_eta=float(math.sqrt(max(var_prod, 0.0))),
            identifiable=True,
        )
    nan = float("nan")
    return FitResult(
        R_hat=nan,
        eta_hat=nan,
        nbar_hat=nan,
        sigma_R=nan,
        sigma_eta=nan,
        sigma_nbar=nan,
        residual_norm=residual_norm,
        dof=dof,
        r_eta_hat=float(best.x[0]),
        sigma_r_eta=float(perr[0]),
        identifiable=False,
    )


def system_detection_efficiency(n_measured: float, n_dark: float, n_pm: float) -> float:
    """Detected over incident mean photon number, referenced to a power meter."""
    if n_pm <= 0:
        raise ValueError(f"n_pm must be positive, got {n_pm}")
    return (n_measured - n_dark) / n_pm


def dynamic_range_db(n_bar: float, nu: float) -> float:
    """Dynamic range 10*log10(n_bar / nu) in dB."""
    if n_bar <= 0:
        raise ValueError(f"n_bar must be positive, got {n_bar}")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return 10.0 * math.log10(n_bar / nu)


def max_usable_bins(
    config: LoopConfig, n_max: float, decay_base: Optional[float] = None
) -> float:
    """Approximate number of bins occupied above the noise floor.

    Uses log10(nu / n_max) / log10(decay_base) with the default base
    eta*(1-R). The per-bin tail of the click probabilities actually decays
    with ratio R*eta, which can be passed explicitly as ``decay_base`` as an
    alternative estimate; the two coincide at R = 1/2.
    """
    if not n_max > config.nu > 0:
        raise ValueError(f"need n_max > nu > 0, got n_max={n_max}, nu={config.nu}")
    base = config.eta * (1.0 - config.R) if decay_base is None else decay_base
    if not 0.0 < base < 1.0:
        raise ValueError(f"decay base must be in (0, 1), got {base}")
    return math.log10(config.nu / n_max) / math.log10(base)


def _auto_j_min(per_bin: np.ndarray) -> int:
    """Smallest bin whose estimate agrees with the weighted mean of later bins.

    Guards against systematically undercounting early bins (e.g. from
    back-reflection dead time): a bin is accepted once it deviates from the
    inverse-variance weighted mean of the later usable bins by less than
    twice its own sigma. The tail means come from reverse cumulative sums.
    """
    valid = np.flatnonzero(np.isfinite(per_bin[:, 0]) & (per_bin[:, 1] > 0))
    if not len(valid):
        return 1
    x, sigma = per_bin[valid, 0], per_bin[valid, 1]
    w = 1.0 / sigma**2
    tail_w = np.cumsum(w[::-1])[::-1][1:]
    tail_wx = np.cumsum((w * x)[::-1])[::-1][1:]
    agrees = np.append(np.abs(x[:-1] - tail_wx / tail_w) < 2.0 * sigma[:-1], True)
    return int(valid[np.argmax(agrees)]) + 1


def calibrate(
    hist_bright: ClickHistogram,
    fit: FitResult,
    config: LoopConfig,
    n_pm: Optional[float] = None,
    sigma_n_pm: float = 0.0,
    j_min: Optional[int] = None,
    n_dark: float = 0.0,
    min_misses: int = 100,
) -> CalibrationResult:
    """Full bright-run calibration from a histogram and fitted loop parameters.

    Every bin of the bright histogram is inverted into an estimate of the
    mean output photon number with its propagated sigma, all usable bins in
    one array call of :func:`estimate_nout_per_bin` and
    :func:`propagate_sigma_nout` (closed-form partials on every branch).
    Saturated and below-noise bins are masked out and reported. For an
    active fit (``fit.identifiable`` False) the loop is represented as
    (R, eta) = (R*eta, 1), as in :func:`fit_loop_params`; the inversion
    depends on R and eta only through their product. A bin counts as saturated
    unless at least ``min_misses`` pulses produced no click in it: the
    inversion goes through log(1/(1 - p)), and with fewer misses the log of
    the noisy miss rate is both unstable and systematically biased high.
    Bins from ``j_min`` on enter the weighted mean (``j_min=None`` selects
    it automatically, see :func:`_auto_j_min`). When a power-meter photon
    number ``n_pm`` is given, the system detection efficiency (with
    uncertainty) and the dynamic range are attached; otherwise the dynamic
    range is referenced to the measured photon number.
    """
    if fit.identifiable:
        cal_cfg = replace(
            config,
            R=fit.R_hat,
            eta=fit.eta_hat,
            sigma_R=fit.sigma_R,
            sigma_eta=fit.sigma_eta,
        )
    else:
        cal_cfg = replace(
            config, R=fit.r_eta_hat, eta=1.0, sigma_R=fit.sigma_r_eta, sigma_eta=0.0
        )

    p = hist_bright.p_hat
    j = np.arange(1, hist_bright.n_bins + 1)
    saturated = (hist_bright.clicks > hist_bright.trials - min_misses) | (1.0 - p <= _EPS)
    below_noise = ~saturated & (p < config.nu)
    ok = ~(saturated | below_noise)
    per_bin = np.full((hist_bright.n_bins, 2), np.nan)
    per_bin[ok, 0] = estimate_nout_per_bin(cal_cfg, p[ok], j[ok])
    per_bin[ok, 1] = propagate_sigma_nout(cal_cfg, p[ok], hist_bright.sigma_p()[ok], j[ok])

    if not np.isfinite(per_bin[:, 0]).any():
        raise NoValidBins("every bin is saturated or below the noise floor")
    if j_min is None:
        j_min = _auto_j_min(per_bin)

    n_measured, sigma_n = weighted_mean_nout(per_bin, j_min=j_min)
    usable = np.isfinite(per_bin[:, 0]) & (per_bin[:, 1] > 0) & (j >= j_min)
    included = tuple(j[usable].tolist())

    sde = sigma_sde = None
    if n_pm is not None:
        sde = system_detection_efficiency(n_measured, n_dark, n_pm)
        sigma_sde = (
            math.sqrt((sigma_n / n_pm) ** 2 + ((n_measured - n_dark) * sigma_n_pm / n_pm**2) ** 2)
        )

    dr = None
    dr_ref = n_pm if n_pm is not None else n_measured
    if config.nu > 0 and dr_ref > 0:
        dr = dynamic_range_db(dr_ref, config.nu)

    return CalibrationResult(
        n_out_per_bin=per_bin,
        j_min=j_min,
        n_measured=n_measured,
        sigma_n_measured=sigma_n,
        included_bins=included,
        saturated_bins=tuple(j[saturated].tolist()),
        below_noise_bins=tuple(j[below_noise].tolist()),
        sde=sde,
        sigma_sde=sigma_sde,
        dynamic_range_db=dr,
    )
