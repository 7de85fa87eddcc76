"""High-dynamic-range photon-number calibration of a loop click detector.

Pipeline: fit the loop parameters on an attenuated coherent run, invert
every bin of a bright run into an independent estimate of the mean output
photon number, propagate all uncertainties per bin, and combine the bins
into an inverse-variance weighted mean. Referencing the result against a
power-meter reading yields the system detection efficiency and the dynamic
range of the detector.

The fit is a box-bounded Levenberg-Marquardt on the 2 or 3 loop
parameters, written in numpy and driven by the closed-form Jacobian of the
click model (q_j and d ln q_j from :mod:`analytic`); the module needs no
scipy. It solves once from a start derived from the data, then twice more
from its result with weights taken on the fitted curve.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Optional

import numpy as np

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
#: Misses (pulses without a click) a bright bin needs to be inverted: the
#: inversion goes through log(1/(1 - p)), and with fewer misses the log of the
#: noisy miss rate is both unstable and systematically biased high.
_MIN_MISSES = 100

#: Levenberg-Marquardt constants: the starting damping, the damping at which
#: no step lowers the cost any more, the Gauss-Newton decrement (relative to
#: the cost) that counts as converged, and the most steps one solve takes.
_LM_DAMPING = 1e-3
_LM_MAX_DAMPING = 1e10
_LM_TOL = 1e-12
_LM_MAX_STEPS = 100


def power_to_photons(power_watts: float, rep_rate_hz: float, wavelength_m: float) -> float:
    """Mean photons per pulse corresponding to an average power reading."""
    if not 0 < rep_rate_hz < math.inf:
        raise ValueError(f"rep_rate_hz must be positive and finite, got {rep_rate_hz}")
    if not 0 < wavelength_m < math.inf:
        raise ValueError(f"wavelength_m must be positive and finite, got {wavelength_m}")
    if not 0 <= power_watts < math.inf:
        raise ValueError(f"power_watts must be non-negative and finite, got {power_watts}")
    photon_energy = 6.62607015e-34 * 299792458.0 / wavelength_m  # exact SI h [J s] and c [m/s]
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
    with the inversion coefficient C_j = F / q_j, F the output fraction, so
    the R and eta partials are the estimate times d ln C_j = d ln F - d ln q_j.
    d ln q_j comes from :func:`analytic.exit_prob_log_grad`; with s = R eta and
    D = R + eta - 2 R eta, d ln F is

    - active, F = eta (1-R)/(1-s): d/dR = eta/(1-s) - 1/(1-R) and
      d/d eta = 1/eta + R/(1-s);
    - passive, F = D/(1-s): d/dR = (1-2 eta)/D + eta/(1-s) and
      d/d eta = (1-2R)/D + R/(1-s).

    Accepts scalars or broadcastable arrays like :func:`estimate_nout_per_bin`
    and returns floats or arrays to match.
    """
    nout = estimate_nout_per_bin(config, p_j, j)
    p, jf = np.broadcast_arrays(np.asarray(p_j, dtype=float), np.asarray(j, dtype=float))
    coeff = _inversion_coefficient(config, jf)
    R, eta = config.R, config.eta
    s = R * eta
    if config.mode is Mode.ACTIVE:
        dln_f_r, dln_f_eta = eta / (1.0 - s) - 1.0 / (1.0 - R), 1.0 / eta + R / (1.0 - s)
    else:
        denom = R + eta - 2.0 * s
        dln_f_r = (1.0 - 2.0 * eta) / denom + eta / (1.0 - s)
        dln_f_eta = (1.0 - 2.0 * R) / denom + R / (1.0 - s)
    dln_q_r, dln_q_eta = analytic.exit_prob_log_grad(config.mode, R, eta, jf)
    partials = {
        "p": coeff / (1.0 - p),
        "R": nout * (dln_f_r - dln_q_r),
        "eta": nout * (dln_f_eta - dln_q_eta),
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


def _levenberg_marquardt(residuals, x, lo, hi):
    """Minimise the cost |r(x)|^2 / 2 over the box lo <= x <= hi, starting at ``x``.

    ``residuals(x)`` returns r and its Jacobian J. A parameter on a bound
    that the gradient g = J^T r pushes outwards is held. For the others each
    step solves the damped normal equations (A + lambda a_max I) dx = -g,
    with A = J^T J and a_max its largest eigenvalue, through one
    eigendecomposition of A per point, and is clipped to the box. (Damping
    by diag A instead lets a parameter that barely moves the model, such as
    eta at R near 1, jump across the whole box in one step.) A step that
    lowers the cost is taken and divides lambda by 10; any other multiplies
    it by 10. The solve has converged when the undamped Gauss-Newton step
    would lower the cost by at most ``_LM_TOL`` of it, or when lambda passes
    ``_LM_MAX_DAMPING`` (no step lowers the cost beyond rounding). Returns
    (x, cost, J) there, or None when A is singular to working precision,
    the starting cost is not finite or ``_LM_MAX_STEPS`` steps do not
    converge.
    """
    r, jac = residuals(x)
    cost = 0.5 * float(r @ r)
    if not math.isfinite(cost):
        return None
    damping, curv = _LM_DAMPING, None
    for _ in range(_LM_MAX_STEPS):
        if curv is None:  # a new point: build its system and test it
            grad = jac.T @ r
            free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
            curv, basis = np.linalg.eigh((jac.T @ jac)[free][:, free])
            if len(curv) and curv[0] <= _EPS * curv[-1]:  # eigh sorts them ascending
                return None  # singular to working precision
            proj = basis.T @ grad[free]
            if 0.5 * float(proj**2 @ (1.0 / curv)) <= _LM_TOL * cost:
                return x, cost, jac
        trial = x.copy()
        trial[free] -= basis @ (proj / (curv + damping * curv[-1]))
        trial = np.minimum(np.maximum(trial, lo), hi)
        r_trial, jac_trial = residuals(trial)
        cost_trial = 0.5 * float(r_trial @ r_trial)
        if cost_trial < cost:  # False for a NaN cost
            x, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            damping, curv = damping / 10.0, None
        else:
            damping *= 10.0
            if damping > _LM_MAX_DAMPING:
                return x, cost, jac
    return None


def _click_model(x: np.ndarray, mode: Mode, nu: float, bins: np.ndarray):
    """Coherent click probabilities p_j at the fit parameters ``x``, and their Jacobian.

    ``x`` is (R, eta, nbar) for a passive loop; for an active one it is
    (R*eta, nbar), the loop taken with eta = 1. ``bins`` holds the bins j
    as floats. With p_j = 1 - (1 - nu) e^(-q_j nbar), dp_j/d nbar is
    (1 - nu) e^(-q_j nbar) q_j and dp_j/dR is that times nbar d ln q_j/dR
    (likewise for eta), with d ln q_j from :func:`analytic.exit_prob_log_grad`.
    """
    passive = mode is Mode.PASSIVE
    R, eta, nbar = x.tolist() if passive else (float(x[0]), 1.0, float(x[1]))
    q = analytic.exit_prob(mode, R, eta, bins)
    exponent = q * nbar
    decay = np.exp(-exponent)
    # nu e^(-q nbar) - expm1(-q nbar) keeps p_j exact where it is near nu
    p = nu * decay - np.expm1(-exponent)
    miss = (1.0 - nu) * decay
    dln_q_r, dln_q_eta = analytic.exit_prob_log_grad(mode, R, eta, bins)
    dp_dln_q = miss * exponent
    if passive:
        return p, np.array([dp_dln_q * dln_q_r, dp_dln_q * dln_q_eta, miss * q]).T
    return p, np.array([dp_dln_q * dln_q_r, miss * q]).T


def fit_loop_params(hist: ClickHistogram, config_prior: LoopConfig) -> FitResult:
    """Weighted nonlinear least squares of the coherent click model.

    The model is p_j = 1 - (1 - nu) exp(-q_j nbar), with q_j from
    :func:`analytic.exit_prob`. Fits (R, eta, nbar) for a passive loop.
    For an active loop the data constrain only the product R*eta and the
    overall brightness, so the loop is represented as (R, eta) = (R*eta, 1):
    q_j = (1 - s) s^(j-1) with s = R*eta, and the fit is over (s, nbar).
    ``r_eta_hat`` carries the product and the individual parameters are
    reported as NaN with ``identifiable`` False; :func:`calibrate` inverts
    with the same representation. ``nu`` is held fixed at the separately
    measured value from ``config_prior``.

    The solver is :func:`_levenberg_marquardt` on the closed-form Jacobian
    of :func:`_click_model`, run once from the start guessed from the data;
    ``FitDiverged`` is raised when that solve fails. The covariance is the
    pseudo-inverse of J^T J at the optimum.

    Weighting is inverse-variance and iteratively refined: the first solve
    uses the confidence widths of the measured click probabilities, two more
    start from its result with binomial variances evaluated on the fitted
    curve (a refit that fails keeps the previous result). Reweighting
    on the model removes the bias that data-derived weights introduce
    (upward-fluctuating near-saturated bins would otherwise get
    systematically smaller errors and larger weights).
    """
    passive = config_prior.mode is Mode.PASSIVE
    n_params = 3 if passive else 2
    if hist.n_bins < n_params:
        raise ValueError(
            f"a {config_prior.mode.value} fit has {n_params} parameters and needs at least "
            f"{n_params} bins, but the histogram has {hist.n_bins}"
        )
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
    slope = float(np.polyfit(js, np.log(L[decay]), 1)[0]) if len(js) >= 2 else math.log(0.5)
    s0 = min(max(math.exp(slope), 1e-3), 0.999)

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
    mode, bins = config_prior.mode, np.arange(1.0, n_bins + 1)

    def solve(start, sigma):
        weight = 1.0 / sigma

        def residuals(x):
            p, jac = _click_model(x, mode, nu, bins)
            return (p - p_hat) * weight, jac * weight[:, None]

        return _levenberg_marquardt(residuals, start, lo, hi)

    best = solve(x0, sigma)
    if best is None:
        raise FitDiverged("the least-squares fit failed from the start point")
    for _ in range(2):
        p_model = _click_model(best[0], mode, nu, bins)[0]
        sigma = np.sqrt(np.maximum(p_model * (1.0 - p_model), 1.0 / hist.trials) / hist.trials)
        res = solve(best[0], sigma)
        if res is None:
            break
        best = res

    x, cost, jac = best
    cov = np.linalg.pinv(jac.T @ jac)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    if passive:
        r, eta = x[:2]
        var_prod = (eta * perr[0]) ** 2 + (r * perr[1]) ** 2 + 2.0 * r * eta * cov[0, 1]
        per_param, r_eta, sigma_r_eta = (*x, *perr), r * eta, math.sqrt(max(var_prod, 0.0))
    else:
        per_param, r_eta, sigma_r_eta = (math.nan,) * 6, x[0], perr[0]
    return FitResult(
        *(float(v) for v in per_param),  # R, eta, nbar, then their sigmas, in field order
        residual_norm=float(2.0 * cost),
        dof=n_bins - n_params,
        r_eta_hat=float(r_eta),
        sigma_r_eta=float(sigma_r_eta),
        identifiable=passive,
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
    unless at least ``_MIN_MISSES`` (100) pulses produced no click in it.
    Bins from ``j_min`` on enter the weighted mean (``j_min=None`` selects
    it automatically, see :func:`_auto_j_min`; a given ``j_min`` outside
    1..n_bins raises ``ValueError``). When a power-meter photon
    number ``n_pm`` is given, the system detection efficiency (with
    uncertainty) and the dynamic range are attached; otherwise the dynamic
    range is referenced to the measured photon number.
    """
    if j_min is not None and not 1 <= j_min <= hist_bright.n_bins:
        raise ValueError(f"j_min must lie in 1..{hist_bright.n_bins}, got {j_min}")
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
    saturated = (hist_bright.clicks > hist_bright.trials - _MIN_MISSES) | (1.0 - p <= _EPS)
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
