import math
from dataclasses import replace

import numpy as np
import pytest

from photonloop import (
    ArtifactModel,
    ClickHistogram,
    Coherent,
    FitResult,
    LoopConfig,
    SimOptions,
    Thermal,
    analytic,
    calibration,
    clickstats,
    simulator,
)
from photonloop.models import Mode
from photonloop.errors import (
    BelowNoise,
    FitDiverged,
    NoValidBins,
    SaturatedBin,
    SaturatedFirstBin,
)


def hdr_cfg(**kw):
    base = dict(mode="passive", R=0.91370, eta=0.8615, nu=1.2e-7)
    base.update(kw)
    return LoopConfig(**base)


def exact_histogram(cfg, nbar, m=10**6):
    """Histogram whose p_hat equals the analytic coherent curve exactly."""
    p = np.array(
        [analytic.click_prob_closed(cfg, Coherent(nbar), j) for j in range(1, cfg.n_bins + 1)]
    )
    clicks = np.rint(p * m).astype(np.int64)
    ref = ClickHistogram.from_clicks(clicks, m)
    return ClickHistogram(trials=m, clicks=clicks, p_hat=p, ci_lo=ref.ci_lo, ci_hi=ref.ci_hi)


class TestPowerToPhotons:
    def test_nanowatt_pulse_train(self):
        got = calibration.power_to_photons(1.61e-9, 50e3, 1550e-9)
        assert got == pytest.approx(251_000, rel=0.01)

    def test_zero_power(self):
        assert calibration.power_to_photons(0.0, 50e3, 1550e-9) == 0.0

    def test_bit_identical_to_scipy_constants(self):
        from scipy import constants

        ref = 1.61e-9 / (constants.h * constants.c / 1550e-9 * 50e3)
        assert calibration.power_to_photons(1.61e-9, 50e3, 1550e-9) == ref

    def test_linear_in_rep_rate(self):
        one = calibration.power_to_photons(1e-9, 50e3, 1550e-9)
        two = calibration.power_to_photons(1e-9, 100e3, 1550e-9)
        assert two == pytest.approx(one / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position,name", [(0, "power_watts"), (1, "rep_rate_hz"), (2, "wavelength_m")])
    def test_non_finite_rejected(self, bad, position, name):
        args = [1e-9, 50e3, 1550e-9]
        args[position] = bad
        with pytest.raises(ValueError, match=name):
            calibration.power_to_photons(*args)


class TestEstimateNoutPerBin:
    @pytest.mark.parametrize("j", [1, 2, 30])
    def test_inverts_coherent_click_probability(self, j):
        # brightness where no probed bin is saturated to double precision
        cfg = hdr_cfg()
        nbar_out = 5.0
        nbar_in = analytic.invert_total_output(cfg, nbar_out)
        p = analytic.click_prob_closed(cfg, Coherent(nbar_in), j)
        assert calibration.estimate_nout_per_bin(cfg, p, j) == pytest.approx(
            nbar_out, rel=1e-10
        )

    @pytest.mark.parametrize("mode", ["active", "passive"])
    def test_inversion_identity_both_modes(self, mode):
        cfg = LoopConfig(mode=mode, R=0.4, eta=0.9, nu=1e-5)
        nbar_in = 8.0
        nbar_out = analytic.total_output_photons(cfg, nbar_in)
        for j in (1, 2, 7):
            p = analytic.click_prob_closed(cfg, Coherent(nbar_in), j)
            assert calibration.estimate_nout_per_bin(cfg, p, j) == pytest.approx(
                nbar_out, rel=1e-10
            )

    def test_noise_floor_maps_to_zero(self):
        cfg = hdr_cfg()
        assert calibration.estimate_nout_per_bin(cfg, cfg.nu, 3) == 0.0

    def test_saturated_bin_rejected(self):
        with pytest.raises(SaturatedBin):
            calibration.estimate_nout_per_bin(hdr_cfg(), 1.0, 2)

    def test_below_noise_rejected(self):
        with pytest.raises(BelowNoise):
            calibration.estimate_nout_per_bin(hdr_cfg(), 1e-8, 2)


class TestSigmaPropagation:
    def test_zero_inputs_give_zero(self):
        cfg = hdr_cfg()
        p = analytic.click_prob_closed(cfg, Coherent(10.0), 2)
        assert calibration.propagate_sigma_nout(cfg, p, 0.0, 2) == 0.0

    @pytest.mark.parametrize("mode,j", [("passive", 1), ("passive", 4), ("active", 3)])
    def test_sigma_p_term_matches_finite_difference(self, mode, j):
        cfg = LoopConfig(mode=mode, R=0.6, eta=0.85, nu=1e-5)
        p, sigma_p = 0.31, 2e-4
        got = calibration.propagate_sigma_nout(cfg, p, sigma_p, j)
        h = 1e-7 * (1 - p)
        fd = (
            calibration.estimate_nout_per_bin(cfg, p + h, j)
            - calibration.estimate_nout_per_bin(cfg, p - h, j)
        ) / (2 * h)
        assert got == pytest.approx(abs(fd) * sigma_p, rel=1e-6)

    def test_partials_match_finite_differences_all_branches(self):
        grid = [
            ("passive", 1, 0.45), ("passive", 2, 0.45), ("passive", 17, 0.45),
            ("active", 1, 0.45), ("active", 9, 0.45),
            ("active", 2, 0.5), ("passive", 1, 0.5),
        ]
        for mode, j, R in grid:
            cfg = LoopConfig(mode=mode, R=R, eta=0.9, nu=3e-4)
            p = 0.2
            d = calibration.nout_partial_derivatives(cfg, p, j)
            fd_r = (
                calibration.estimate_nout_per_bin(replace(cfg, R=R + 1e-7), p, j)
                - calibration.estimate_nout_per_bin(replace(cfg, R=R - 1e-7), p, j)
            ) / 2e-7
            fd_eta = (
                calibration.estimate_nout_per_bin(replace(cfg, eta=0.9 + 1e-7), p, j)
                - calibration.estimate_nout_per_bin(replace(cfg, eta=0.9 - 1e-7), p, j)
            ) / 2e-7
            assert d["R"] == pytest.approx(fd_r, rel=1e-5)
            assert d["eta"] == pytest.approx(fd_eta, rel=1e-5)

    def test_error_budget_ordering_across_bins(self):
        # with the bench uncertainties, the eta term dominates mid bins and
        # the click-probability term dominates late bins
        cfg = hdr_cfg(sigma_R=5e-5, sigma_eta=3e-4, sigma_nu=2e-9)
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        m = 7_500_000

        def budget(j):
            p = analytic.click_prob_closed(cfg, Coherent(nbar_in), j)
            clicks = np.array([p * m])
            from photonloop.models import wilson_interval

            lo, hi = wilson_interval(clicks, m)
            sigma_p = float(hi[0] - lo[0]) / 2
            d = calibration.nout_partial_derivatives(cfg, p, j)
            return {
                "p": abs(d["p"]) * sigma_p,
                "R": abs(d["R"]) * cfg.sigma_R,
                "eta": abs(d["eta"]) * cfg.sigma_eta,
                "nu": abs(d["nu"]) * cfg.sigma_nu,
            }

        mid = budget(40)
        late = budget(95)
        assert max(mid, key=mid.get) == "eta"
        assert max(late, key=late.get) == "p"


class TestWeightedMean:
    def test_equal_pair(self):
        mean, sigma = calibration.weighted_mean_nout([(5.0, 0.2), (5.0, 0.2)])
        assert mean == pytest.approx(5.0)
        assert sigma == pytest.approx(0.2 / math.sqrt(2))

    def test_single_estimate(self):
        mean, sigma = calibration.weighted_mean_nout([(3.0, 0.7)])
        assert mean == pytest.approx(3.0, rel=1e-15)
        assert sigma == pytest.approx(0.7, rel=1e-15)

    def test_j_min_excludes_early_bins(self):
        mean, _ = calibration.weighted_mean_nout([(100.0, 1.0), (5.0, 1.0)], j_min=2)
        assert mean == 5.0

    def test_no_valid_bins(self):
        with pytest.raises(NoValidBins):
            calibration.weighted_mean_nout([(1.0, 0.0), (math.nan, 1.0)])

    def test_stays_in_convex_hull_with_smaller_sigma(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ests = [(float(x), float(s)) for x, s in zip(rng.normal(10, 2, 6), rng.uniform(0.1, 3, 6))]
            mean, sigma = calibration.weighted_mean_nout(ests)
            xs = [x for x, _ in ests]
            assert min(xs) <= mean <= max(xs)
            assert sigma <= min(s for _, s in ests)


class TestFitLoopParams:
    def test_noiseless_recovery(self):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=2.0)
        fit = calibration.fit_loop_params(hist, cfg)
        assert fit.R_hat == pytest.approx(0.91370, abs=1e-6)
        assert fit.eta_hat == pytest.approx(0.8615, abs=1e-6)
        assert fit.nbar_hat == pytest.approx(2.0, abs=1e-5)
        assert fit.identifiable
        assert fit.r_eta_hat == pytest.approx(0.91370 * 0.8615, abs=1e-6)

    def test_simulated_recovery_within_uncertainty(self):
        cfg = hdr_cfg()
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(2.0), SimOptions(n_pulses=10**6, seed=11)
        )
        fit = calibration.fit_loop_params(hist, cfg)
        assert abs(fit.R_hat - 0.91370) < 5 * fit.sigma_R
        assert abs(fit.eta_hat - 0.8615) < 5 * fit.sigma_eta
        assert fit.dof == cfg.n_bins - 3

    def test_saturated_first_bin_rejected(self):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=100.0)
        with pytest.raises(SaturatedFirstBin):
            calibration.fit_loop_params(hist, cfg)

    def test_active_mode_identifies_only_the_product(self):
        cfg = LoopConfig(mode="active", R=0.1, eta=0.8, nu=1e-5)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(5.0), SimOptions(n_pulses=300_000, seed=12)
        )
        fit = calibration.fit_loop_params(hist, cfg)
        assert not fit.identifiable
        assert math.isnan(fit.R_hat) and math.isnan(fit.eta_hat)
        assert abs(fit.r_eta_hat - 0.08) < 6 * fit.sigma_r_eta
        assert fit.sigma_r_eta < 0.01

    def test_solver_failure_surfaces(self, monkeypatch):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=2.0)

        def boom(*a, **kw):
            return None  # the solver's answer to a singular system or a non-finite cost

        monkeypatch.setattr(calibration, "_levenberg_marquardt", boom)
        with pytest.raises(FitDiverged):
            calibration.fit_loop_params(hist, cfg)

    def test_non_finite_cost_from_the_start_diverges(self, monkeypatch):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=2.0)
        monkeypatch.setattr(analytic, "exit_prob", lambda mode, R, eta, j: np.full(len(j), np.nan))
        with pytest.raises(FitDiverged):
            calibration.fit_loop_params(hist, cfg)

    def test_singular_system_from_the_start_diverges(self, monkeypatch):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=2.0)
        # R and eta no longer move the model: J^T J has rank 1
        monkeypatch.setattr(
            analytic, "exit_prob_log_grad", lambda mode, R, eta, j: (np.zeros(len(j)), np.zeros(len(j)))
        )
        with pytest.raises(FitDiverged):
            calibration.fit_loop_params(hist, cfg)

    def test_programming_error_propagates(self, monkeypatch):
        cfg = hdr_cfg()
        hist = exact_histogram(cfg, nbar=2.0)

        def broken(*a, **kw):
            raise TypeError("broken model")

        monkeypatch.setattr(analytic, "exit_prob", broken)
        with pytest.raises(TypeError, match="broken model"):
            calibration.fit_loop_params(hist, cfg)

    @pytest.mark.parametrize(
        "cfg, nbar",
        [(hdr_cfg(n_bins=130), 4.5), (LoopConfig(mode="active", R=0.5, eta=0.9, nu=1e-4, n_bins=40), 2.0)],
        ids=["passive", "active"],
    )
    def test_one_solve_then_two_refits(self, monkeypatch, cfg, nbar):
        """A converging fit solves from its data-derived start, then refits twice on model weights."""
        solver, starts = calibration._levenberg_marquardt, []

        def counted(residuals, x, lo, hi):
            starts.append(x)
            return solver(residuals, x, lo, hi)

        monkeypatch.setattr(calibration, "_levenberg_marquardt", counted)
        calibration.fit_loop_params(exact_histogram(cfg, nbar=nbar), cfg)
        assert len(starts) == 3

    @pytest.mark.parametrize(
        "seed, R_hat, eta_hat",
        # as the five-start fit of version 0.10.0 fitted the draws of version 0.15.0
        [(1, 0.9136592966310437, 0.8614768271288374), (2, 0.9136516160370931, 0.8614972602908715)],
        ids=["1", "2"],
    )
    def test_converges_at_high_reflectivity(self, seed, R_hat, eta_hat):
        cfg = hdr_cfg(n_bins=130)
        opts = SimOptions(n_pulses=10**6, seed=seed)
        hist = simulator.simulate_ensemble(cfg, Coherent(4.5), opts).histogram
        fit = calibration.fit_loop_params(hist, cfg)
        assert (fit.R_hat, fit.eta_hat) == pytest.approx((R_hat, eta_hat), rel=1e-6)


class TestClickModelJacobian:
    """The closed-form Jacobian of the fit model against central differences."""

    @pytest.mark.parametrize(
        "mode,x",
        [
            ("passive", [0.9137, 0.8615, 2.0]),
            ("passive", [0.5, 1.0, 4.0]),  # eta on its upper bound
            ("active", [0.78, 3.0]),
            ("active", [0.45, 1e-6]),  # nbar at the smallest start value
        ],
    )
    def test_matches_central_differences(self, mode, x):
        bins = np.arange(1.0, 41.0)  # row 0 is bin j = 1, the passive loop's direct reflection
        x = np.array(x)
        _, jac = calibration._click_model(x, Mode(mode), 1.2e-7, bins)
        for k in range(len(x)):
            h = 1e-6 * x[k]
            up, down = x.copy(), x.copy()
            up[k] += h
            down[k] -= h
            fd = (
                calibration._click_model(up, Mode(mode), 1.2e-7, bins)[0]
                - calibration._click_model(down, Mode(mode), 1.2e-7, bins)[0]
            ) / (2 * h)
            scale = np.abs(jac[:, k]).max()
            np.testing.assert_allclose(jac[:, k], fd, rtol=1e-6, atol=1e-8 * scale)


def wobbled_histogram(cfg, nbar_in, trials):
    """Histogram off the coherent curve by a deterministic wobble of ~0.8 binomial sigma."""
    q = analytic.bin_exit_probs(cfg)
    p = 1.0 - (1.0 - cfg.nu) * np.exp(-q * nbar_in)
    j = np.arange(1, cfg.n_bins + 1)
    wobble = 0.8 * np.sqrt(trials * p * (1.0 - p)) * np.sin(2.3 * j)
    clicks = np.clip(np.rint(trials * p + wobble), 0, trials).astype(np.int64)
    return ClickHistogram.from_clicks(clicks, trials)


LOOP_40 = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-4, n_bins=40)
ACTIVE_HIGH_GAIN = LoopConfig(mode="active", R=0.98, eta=0.98, nu=1.2e-7, n_bins=130)


def gated_artifact_histogram(cfg):
    """Gated tags of Coherent(2): back reflections half a loop delay late, 93,600 ps dead time."""
    artifact = ArtifactModel(back_reflection_prob=0.3, reflection_delay_ps=78_000, dead_time_ps=93_600)
    opts = SimOptions(n_pulses=50_000, seed=5)
    stream = simulator.emit_time_tags(cfg, Coherent(2.0), opts, (cfg.n_bins + 4) * cfg.loop_delay_ps, artifact)
    return cfg, clickstats.ingest_time_tags(stream, cfg).histogram


def ensemble_histogram(cfg, source, n_pulses, seed):
    return cfg, simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=n_pulses, seed=seed)).histogram


class TestFitMatchesPinnedResults:
    """Fits of sweep-style histograms against the earlier trf solver's results.

    Each loop gets an attenuated histogram with 2 photons in bin 1 over 1e6
    trials, and a bright one with 1e5 photons in over 1e5 trials, as the
    benchmark's fit/invert sweep builds them, but wobbled deterministically
    instead of sampled. The numbers were computed with
    ``scipy.optimize.least_squares`` (trf) before the fit moved to its own
    solver; included bins run from j_min to ``last`` less ``gaps``.
    """

    PINNED = [
        # mode, R, eta, (R_hat, eta_hat, nbar_hat) or r_eta_hat, sigma_r_eta, j_min, last, gaps
        ("passive", 0.5, 0.8615, (0.500203039786854, 0.8613965337925081, 4.001396099739615),
         0.00032556693280753825, 12, 28, []),
        ("passive", 0.9137, 0.8615, (0.9137982882262711, 0.8615828510605679, 2.1903197901163574),
         0.0007375174457612619, 21, 83, [76, 79, 81, 82]),
        ("active", 0.5, 0.9, 0.44996015680592216, 0.00023153749769936577, 13, 28, []),
        ("active", 0.9137, 0.9, 0.8223263051712518, 5.600889450820072e-05, 37, 113, [106, 109, 111, 112]),
    ]

    @pytest.mark.parametrize("mode,R,eta,hat,sigma_r_eta,j_min,last,gaps", PINNED)
    def test_same_fit_and_bins(self, mode, R, eta, hat, sigma_r_eta, j_min, last, gaps):
        cfg = LoopConfig(mode=mode, R=R, eta=eta, nu=1.2e-7, n_bins=130)
        atten = wobbled_histogram(cfg, 2.0 / analytic.bin_exit_prob(cfg, 1), 10**6)
        fit = calibration.fit_loop_params(atten, cfg)
        if mode == "passive":
            assert (fit.R_hat, fit.eta_hat, fit.nbar_hat) == pytest.approx(hat, rel=1e-7)
        else:
            assert fit.r_eta_hat == pytest.approx(hat, rel=1e-7)
        assert fit.sigma_r_eta == pytest.approx(sigma_r_eta, rel=1e-5)
        cal = calibration.calibrate(wobbled_histogram(cfg, 1e5, 10**5), fit, cfg)
        assert cal.j_min == j_min
        assert cal.included_bins == tuple(j for j in range(j_min, last + 1) if j not in gaps)

    # inputs whose fit was once insured by four jittered starts besides the data-derived one,
    # with (R_hat, eta_hat, nbar_hat) or r_eta_hat as the five-start fit of version 0.10.0 found them;
    # the 1,000-trial ensemble is the draw of version 0.15.0, the active one that of 0.13.0,
    # the gated tags those of 0.14.0
    HARD = [
        ("gated-artifact", lambda: gated_artifact_histogram(LOOP_40),
         (0.5354802374228386, 0.8869553472577058, 1.8650607039183356)),
        ("thermal-as-coherent", lambda: ensemble_histogram(LOOP_40, Thermal(2.0), 100_000, 6),
         (0.482626059202875, 0.9796748754364943, 1.4428409310658366)),
        ("1000-trials", lambda: ensemble_histogram(LOOP_40, Coherent(2.0), 1_000, 7),
         (0.4988692103638735, 0.8809343924563467, 1.9235909231188368)),
        ("active-r-eta-0.96", lambda: ensemble_histogram(ACTIVE_HIGH_GAIN, Coherent(2.0), 100_000, 8),
         0.9604205327083994),
    ]

    @pytest.mark.parametrize("make, hat", [case[1:] for case in HARD], ids=[case[0] for case in HARD])
    def test_hard_cases_keep_their_fit(self, make, hat):
        cfg, hist = make()
        fit = calibration.fit_loop_params(hist, cfg)
        if cfg.mode is Mode.PASSIVE:
            assert (fit.R_hat, fit.eta_hat, fit.nbar_hat) == pytest.approx(hat, rel=1e-7)
        else:
            assert fit.r_eta_hat == pytest.approx(hat, rel=1e-7)


class TestHeadlineRatios:
    def test_sde_from_bench_numbers(self):
        got = calibration.system_detection_efficiency(208_011, 0, 251_000)
        assert got == pytest.approx(0.8287, abs=5e-4)

    def test_sde_identity_and_zero(self):
        assert calibration.system_detection_efficiency(10.0, 0.0, 10.0) == 1.0
        assert calibration.system_detection_efficiency(10.0, 10.0, 10.0) == 0.0

    def test_dynamic_range(self):
        assert calibration.dynamic_range_db(2.5e5, 1.2e-7) == pytest.approx(123.2, abs=0.05)
        assert calibration.dynamic_range_db(1e-3, 1e-3) == 0.0
        base = calibration.dynamic_range_db(10.0, 1e-3)
        assert calibration.dynamic_range_db(100.0, 1e-3) == pytest.approx(base + 10.0)


    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: calibration.system_detection_efficiency(10.0, 0.0, 0.0), "n_pm must be positive"),
            (lambda: calibration.system_detection_efficiency(10.0, 0.0, -1.0), "n_pm must be positive"),
            (lambda: calibration.dynamic_range_db(0.0, 1e-3), "n_bar must be positive"),
            (lambda: calibration.dynamic_range_db(10.0, 0.0), "nu must be positive"),
        ],
        ids=["sde-pm-0", "sde-pm-negative", "range-nbar-0", "range-nu-0"],
    )
    def test_non_positive_argument_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestMaxUsableBins:
    def test_bench_configuration(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3)
        got = calibration.max_usable_bins(cfg, 300.0)
        assert got == pytest.approx(15.8, abs=0.05)

    def test_cross_check_against_noise_crossing(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3)
        j_max = calibration.max_usable_bins(cfg, 300.0)
        crossing = next(
            j
            for j in range(2, 100)
            if analytic.click_prob_closed(cfg, Coherent(300.0), j) - cfg.nu < cfg.nu
        )
        assert abs(j_max - crossing) <= 1.5

    def test_degenerate_and_monotone(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3)
        assert calibration.max_usable_bins(cfg, cfg.nu * (1 + 1e-12)) == pytest.approx(0.0, abs=1e-9)
        quieter = replace(cfg, nu=1e-6)
        assert calibration.max_usable_bins(quieter, 300.0) > calibration.max_usable_bins(cfg, 300.0)

    @pytest.mark.parametrize(
        "nu, n_max, decay_base, match",
        [
            (1e-3, 1e-3, None, "need n_max > nu > 0"),
            (0.0, 300.0, None, "need n_max > nu > 0"),
            (1e-3, 300.0, 1.0, "decay base must be in"),
            (1e-3, 300.0, 0.0, "decay base must be in"),
        ],
        ids=["n-max-at-nu", "nu-0", "base-1", "base-0"],
    )
    def test_out_of_range_rejected(self, nu, n_max, decay_base, match):
        cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=nu)
        with pytest.raises(ValueError, match=match):
            calibration.max_usable_bins(cfg, n_max, decay_base)

    def test_alternative_decay_base(self):
        cfg = LoopConfig(mode="passive", R=0.7, eta=0.9, nu=1e-3)
        default_base = calibration.max_usable_bins(cfg, 300.0)
        loop_gain = calibration.max_usable_bins(cfg, 300.0, decay_base=cfg.R * cfg.eta)
        assert default_base != loop_gain  # distinct conventions away from R = 1/2


def perfect_fit(cfg, sigma_R=1e-6, sigma_eta=1e-6):
    return FitResult(
        R_hat=cfg.R, eta_hat=cfg.eta, nbar_hat=math.nan,
        sigma_R=sigma_R, sigma_eta=sigma_eta, sigma_nbar=math.nan,
        residual_norm=0.0, dof=0,
        r_eta_hat=cfg.R * cfg.eta, sigma_r_eta=2e-6, identifiable=True,
    )


def auto_j_min_reference(per_bin):
    """The O(N^2) selection: one weighted mean over the later bins per candidate."""
    valid = [
        j
        for j in range(1, len(per_bin) + 1)
        if math.isfinite(per_bin[j - 1, 0]) and per_bin[j - 1, 1] > 0
    ]
    for idx, j in enumerate(valid):
        tail = valid[idx + 1 :]
        if not tail:
            return j
        wm, _ = calibration.weighted_mean_nout(
            [(per_bin[t - 1, 0], per_bin[t - 1, 1]) for t in tail]
        )
        if abs(per_bin[j - 1, 0] - wm) < 2.0 * per_bin[j - 1, 1]:
            return j
    return valid[-1] if valid else 1


class TestCalibrate:
    def test_auto_j_min_matches_quadratic_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            sigma = 10.0 ** rng.uniform(-1, 2, n)
            # an undercounted head, then estimates scattered around the truth
            head = np.arange(n) < rng.integers(0, 6)
            x = 100.0 + sigma * rng.normal(0, 1.5, n) - 50.0 * head
            per_bin = np.column_stack([x, sigma])
            per_bin[rng.random(n) < 0.3] = np.nan
            assert calibration._auto_j_min(per_bin) == auto_j_min_reference(per_bin)

    @pytest.mark.parametrize("mode", ["passive", "active"])
    def test_rows_match_scalar_inversion(self, mode):
        # below-noise bins are those without a click (p_hat < nu). The far bins sit near the
        # dark floor, each clickless in 50,000 pulses with probability ~exp(-0.5), so over 100
        # bins the chance that none is below noise is 9e-21 passive, 9e-19 active (1e-4 and
        # 1e-2 over 60 bins): whatever the draw, every class of bin is checked
        cfg = LoopConfig(mode=mode, R=0.8, eta=0.9, nu=1e-5, n_bins=100)
        nbar_in = analytic.invert_total_output(cfg, 2_000.0)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=50_000, seed=38)
        )
        if mode == "passive":
            fit = perfect_fit(cfg, sigma_R=5e-5, sigma_eta=3e-4)
            cal_cfg = replace(cfg, sigma_R=5e-5, sigma_eta=3e-4)
        else:
            fit = replace(perfect_fit(cfg), identifiable=False, sigma_r_eta=4e-5)
            cal_cfg = replace(cfg, R=cfg.R * cfg.eta, eta=1.0, sigma_R=4e-5, sigma_eta=0.0)
        res = calibration.calibrate(hist, fit, cfg)
        assert res.saturated_bins and res.below_noise_bins
        sigma_p = hist.sigma_p()
        for j in range(1, cfg.n_bins + 1):
            row = res.n_out_per_bin[j - 1]
            if j in res.saturated_bins or j in res.below_noise_bins:
                assert np.isnan(row).all()
                continue
            p = float(hist.p_hat[j - 1])
            est = calibration.estimate_nout_per_bin(cal_cfg, p, j)
            sig = calibration.propagate_sigma_nout(cal_cfg, p, float(sigma_p[j - 1]), j)
            assert isinstance(est, float) and isinstance(sig, float)
            assert row[0] == pytest.approx(est, rel=1e-12)
            assert row[1] == pytest.approx(sig, rel=1e-12)

    def test_all_saturated_is_no_valid_bins(self):
        cfg = hdr_cfg(n_bins=10)
        hist = ClickHistogram.from_clicks([1000] * 10, 1000)
        with pytest.raises(NoValidBins):
            calibration.calibrate(hist, perfect_fit(cfg), cfg)

    @pytest.mark.parametrize("j_min", [0, -3, 131])
    def test_j_min_outside_bins_rejected(self, j_min):
        cfg = hdr_cfg()
        with pytest.raises(ValueError, match=f"j_min must lie in 1..130, got {j_min}"):
            calibration.calibrate(exact_histogram(cfg, nbar=2.0), perfect_fit(cfg), cfg, j_min=j_min)

    def test_explicit_j_min_honored(self):
        cfg = hdr_cfg()
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=200_000, seed=31)
        )
        res = calibration.calibrate(hist, perfect_fit(cfg), cfg, j_min=25)
        assert res.j_min == 25
        assert res.included_bins[0] >= 25

    def test_lossless_pipeline_has_unit_efficiency(self):
        cfg = LoopConfig(mode="passive", R=0.5, eta=1.0, nu=1e-9, n_bins=60)
        nbar_in = 50.0
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=500_000, seed=32)
        )
        res = calibration.calibrate(hist, perfect_fit(cfg), cfg, n_pm=nbar_in)
        assert res.sde == pytest.approx(1.0, abs=4 * max(res.sigma_sde, 1e-3))

    def test_sde_and_dynamic_range_attached(self):
        cfg = hdr_cfg()
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=300_000, seed=33)
        )
        res = calibration.calibrate(
            hist, perfect_fit(cfg), cfg, n_pm=251_000.0, sigma_n_pm=12_500.0
        )
        assert res.sde == pytest.approx(0.829, abs=0.02)
        assert res.sigma_sde > 0
        assert res.dynamic_range_db == pytest.approx(123.2, abs=0.1)
        assert len(res.saturated_bins) > 0

    def test_active_mode_calibration_uses_the_product(self):
        cfg = LoopConfig(mode="active", R=0.1, eta=0.8, nu=1e-6, n_bins=20)
        n_out_truth = 500.0
        nbar_in = analytic.invert_total_output(cfg, n_out_truth)
        bright, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=500_000, seed=36)
        )
        atten, _ = simulator.simulate_ensemble(
            cfg, Coherent(5.0), SimOptions(n_pulses=500_000, seed=37)
        )
        fit = calibration.fit_loop_params(atten, cfg)
        assert not fit.identifiable
        res = calibration.calibrate(bright, fit, cfg)
        assert res.n_measured == pytest.approx(n_out_truth, rel=0.1)

    def test_without_power_meter_reference(self):
        cfg = hdr_cfg()
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=200_000, seed=34)
        )
        res = calibration.calibrate(hist, perfect_fit(cfg), cfg)
        assert res.sde is None
        assert res.dynamic_range_db == pytest.approx(
            calibration.dynamic_range_db(res.n_measured, cfg.nu), abs=1e-9
        )

    def test_high_sigma_bins_do_not_move_the_mean(self):
        cfg = hdr_cfg()
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        hist, _ = simulator.simulate_ensemble(
            cfg, Coherent(nbar_in), SimOptions(n_pulses=300_000, seed=35)
        )
        fit = perfect_fit(cfg, sigma_R=5e-5, sigma_eta=3e-4)
        res = calibration.calibrate(hist, fit, cfg, j_min=30)
        ests = [tuple(row) for row in res.n_out_per_bin]
        full_mean, full_sigma = calibration.weighted_mean_nout(ests, j_min=30)
        core_mean, _ = calibration.weighted_mean_nout(ests[:55], j_min=30)
        assert res.included_bins[-1] > 55  # the full range does include noisy bins
        assert abs(full_mean - core_mean) < full_sigma
