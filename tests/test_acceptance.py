"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and runtime
budget and prints a PASS/FAIL line (run with ``pytest -v -s`` to see them).
"""

import itertools
import time
from dataclasses import replace

import numpy as np

from photonloop import (
    ArtifactModel,
    Coherent,
    Fock,
    LoopConfig,
    MultiThermal,
    SimOptions,
    Thermal,
    analytic,
    calibration,
    clickstats,
    simulator,
)
from photonloop.models import wilson_interval

THREE_SIGMA = 0.9973002039367398  # two-sided coverage of 3 Gaussian sigma


def _report(num: int, desc: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({desc}): {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


def test_criterion_1_closed_forms_match_numeric_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for mode, R, eta, nu, nbar in itertools.product(
        ("active", "passive"), (0.1, 0.5, 0.9), (0.1, 0.5, 0.9), (0.0, 1e-3), (0.01, 1.0, 300.0)
    ):
        cfg = LoopConfig(mode=mode, R=R, eta=eta, nu=nu)
        # Fock occupancy must be an integer; 0.01 rounds down to vacuum
        sources = (Fock(int(round(nbar))), Coherent(nbar), Thermal(nbar))
        for source in sources:
            for j in range(1, 21):
                closed = analytic.click_prob_closed(cfg, source, j)
                numeric = analytic.click_prob_numeric(cfg, source, j, tail_tol=1e-12)
                worst = max(worst, abs(closed - numeric))
    elapsed = time.monotonic() - t0
    _report(
        1,
        "closed forms vs numeric oracle",
        worst < 1e-8 and elapsed < 10.0,
        f"max |closed - numeric| = {worst:.3g} (tol 1e-8), {elapsed:.1f}s < 10s",
    )


def test_criterion_2_simulated_histograms_match_analytic_curves():
    t0 = time.monotonic()
    cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)
    m = 10**6
    curves = {}
    seeds = iter(range(201, 207))
    for label, make in (("fock", Fock), ("coherent", Coherent), ("thermal", Thermal)):
        for nbar in (3, 300):
            source = make(nbar)
            hist, _ = simulator.simulate_ensemble(
                cfg, source, SimOptions(n_pulses=m, seed=next(seeds))
            )
            analytic_p = np.array(
                [analytic.click_prob_closed(cfg, source, j) for j in range(1, 21)]
            )
            curves[(label, nbar)] = (hist, analytic_p)

    worst_outside = 0
    for (label, nbar), (hist, analytic_p) in curves.items():
        lo, hi = wilson_interval(hist.clicks, m, coverage=THREE_SIGMA)
        outside = int(np.sum((analytic_p < lo) | (analytic_p > hi)))
        worst_outside = max(worst_outside, outside)

    ordering_ok = True
    for nbar in (3, 300):
        hf, pf = curves[("fock", nbar)]
        hc, pc = curves[("coherent", nbar)]
        ht, pt = curves[("thermal", nbar)]
        assert np.all(pf >= pc - 1e-15) and np.all(pc >= pt - 1e-15)
        sig = lambda h: h.sigma_p()
        slack_fc = 3 * np.hypot(sig(hf), sig(hc))
        slack_ct = 3 * np.hypot(sig(hc), sig(ht))
        ordering_ok &= bool(np.all(hf.p_hat >= hc.p_hat - slack_fc))
        ordering_ok &= bool(np.all(hc.p_hat >= ht.p_hat - slack_ct))

    elapsed = time.monotonic() - t0
    _report(
        2,
        "simulated histograms vs analytic curves",
        worst_outside <= 1 and ordering_ok and elapsed < 60.0,
        f"worst bins outside 3-sigma = {worst_outside}/20 (allowed 1), "
        f"state ordering {'held' if ordering_ok else 'violated'}, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_calibration_round_trip():
    t0 = time.monotonic()
    cfg = LoopConfig(mode="passive", R=0.91370, eta=0.8615, nu=1.2e-7)
    n_out_truth = 208_011.0
    nbar_in = analytic.invert_total_output(cfg, n_out_truth)
    bright, _ = simulator.simulate_ensemble(
        cfg, Coherent(nbar_in), SimOptions(n_pulses=7_500_000, seed=1001)
    )
    # calibration leg: brightest attenuation that keeps bin 1 unsaturated,
    # acquired longer; fit-parameter errors enter the per-bin inversion
    # amplified ~(j-1)-fold, so this run needs more statistics than the
    # bright one
    atten, _ = simulator.simulate_ensemble(
        cfg, Coherent(4.5), SimOptions(n_pulses=64_000_000, seed=1002)
    )
    fit = calibration.fit_loop_params(atten, cfg)
    result = calibration.calibrate(bright, fit, cfg, n_pm=251_000.0, sigma_n_pm=12_500.0)
    rel_dev = abs(result.n_measured - n_out_truth) / n_out_truth
    elapsed = time.monotonic() - t0
    _report(
        3,
        "bright-run calibration round trip",
        rel_dev < 0.005 and elapsed < 600.0,
        f"n_measured = {result.n_measured:.0f} +- {result.sigma_n_measured:.0f} "
        f"vs truth {n_out_truth:.0f} (rel dev {rel_dev:.2%}, tol 0.5%), {elapsed:.0f}s < 600s",
    )


def test_criterion_4_headline_numbers():
    dr = calibration.dynamic_range_db(2.5e5, 1.2e-7)
    sde = calibration.system_detection_efficiency(208_011, 0, 251_000)
    photons = calibration.power_to_photons(1.61e-9, 50e3, 1550e-9)
    ok = (
        abs(dr - 123.2) <= 0.05
        and abs(sde - 0.828) <= 0.001
        and abs(photons - 251_000) / 251_000 <= 0.01
    )
    _report(
        4,
        "headline numbers",
        ok,
        f"DR = {dr:.3f} dB (123.2 +- 0.05), SDE = {sde:.4f} (0.828 +- 0.001), "
        f"photons/pulse = {photons:.0f} (251000 +- 1%)",
    )


def test_criterion_5_gradient_audit():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        R = float(rng.uniform(0.15, 0.95))
        eta = float(rng.uniform(0.3, 0.99))
        nu = float(rng.uniform(1e-5, 1e-3))
        p = float(rng.uniform(3 * nu + 1e-4, 0.999))
        j = int(rng.integers(2, 60))
        cfg = LoopConfig(mode="passive", R=R, eta=eta, nu=nu)
        d = calibration.nout_partial_derivatives(cfg, p, j)

        def central(f, x, h):
            return (f(x + h) - f(x - h)) / (2 * h)

        fd = {
            "R": central(lambda x: calibration.estimate_nout_per_bin(replace(cfg, R=x), p, j), R, 1e-6 * R),
            "eta": central(lambda x: calibration.estimate_nout_per_bin(replace(cfg, eta=x), p, j), eta, 1e-6 * eta),
            "p": central(lambda x: calibration.estimate_nout_per_bin(cfg, x, j), p, 1e-7 * (1 - p)),
            "nu": central(lambda x: calibration.estimate_nout_per_bin(replace(cfg, nu=x), p, j), nu, 1e-2 * nu),
        }
        for key, ref in fd.items():
            worst = max(worst, abs(d[key] - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    _report(
        5,
        "error-propagation gradient audit",
        worst < 1e-6 and elapsed < 5.0,
        f"worst relative deviation = {worst:.3g} (tol 1e-6) over 100 random points, "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_6_nonclassicality_witness_contrast():
    t0 = time.monotonic()
    m = 10**6

    def witness(cfg, source, seed):
        _, stats = simulator.simulate_ensemble(cfg, source, SimOptions(n_pulses=m, seed=seed))
        qpb = clickstats.q_pb(stats)
        qb = clickstats.q_b(stats)
        boot = clickstats.bootstrap_sigma(stats, trials_observed=m, iterations=10000, seed=seed)
        return qpb, qb, boot

    coh_cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)
    qpb_c, _, boot_c = witness(coh_cfg, Coherent(3.0), 61)
    coherent_ok = abs(qpb_c) <= 4 * boot_c.sigma_qpb

    fock_cfg = LoopConfig(mode="passive", R=0.5, eta=1.0, nu=0.0, n_bins=20)
    qpb_f, _, boot_f = witness(fock_cfg, Fock(1), 62)
    fock_ok = qpb_f < -5 * boot_f.sigma_qpb and qpb_f < 0

    mt_cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=20)
    qpb_m, qb_m, boot_m = witness(mt_cfg, MultiThermal(100.0, 1.8), 63)
    multithermal_ok = qpb_m >= -3 * boot_m.sigma_qpb and qb_m < -5 * boot_m.sigma_qb

    elapsed = time.monotonic() - t0
    _report(
        6,
        "witness contrast (coherent / single photon / multi-thermal)",
        coherent_ok and fock_ok and multithermal_ok and elapsed < 300.0,
        f"coherent QPB = {qpb_c:+.4f} ({abs(qpb_c) / max(boot_c.sigma_qpb, 1e-12):.1f} sigma), "
        f"single-photon QPB = {qpb_f:+.4f}, "
        f"multi-thermal QPB = {qpb_m:+.4f} vs QB = {qb_m:+.4f} "
        f"({abs(qb_m) / max(boot_m.sigma_qb, 1e-12):.0f} sigma), {elapsed:.0f}s < 300s",
    )


def test_criterion_7_fit_recovery():
    cfg = LoopConfig(mode="passive", R=0.91370, eta=0.8615, nu=1.2e-7)
    hist, _ = simulator.simulate_ensemble(cfg, Coherent(2.0), SimOptions(n_pulses=10**6, seed=71))
    fit = calibration.fit_loop_params(hist, cfg)
    dev_r = abs(fit.R_hat - 0.91370) / fit.sigma_R
    dev_eta = abs(fit.eta_hat - 0.8615) / fit.sigma_eta
    sigma_ok = 5e-6 < fit.sigma_R < 5e-4 and 3e-5 < fit.sigma_eta < 3e-3
    _report(
        7,
        "loop-parameter fit recovery",
        dev_r < 5 and dev_eta < 5 and sigma_ok,
        f"R = {fit.R_hat:.5f} +- {fit.sigma_R:.1e} ({dev_r:.1f} sigma off), "
        f"eta = {fit.eta_hat:.4f} +- {fit.sigma_eta:.1e} ({dev_eta:.1f} sigma off), "
        f"sigmas within 10x of 5e-5 / 3e-4",
    )


def test_criterion_8_back_reflection_artifact():
    cfg = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3, n_bins=40)
    source = Coherent(1000.0)
    m = 20_000
    analytic_p = np.array([analytic.click_prob_closed(cfg, source, j) for j in range(1, 41)])
    sigma = np.sqrt(np.maximum(analytic_p * (1 - analytic_p), 1e-9) / m)

    def deviations(artifact, seed):
        opts = SimOptions(n_pulses=m, seed=seed)
        stream = simulator.emit_time_tags(cfg, source, opts, 50 * cfg.loop_delay_ps, artifact)
        res = clickstats.ingest_time_tags(stream, cfg)
        return (res.histogram.p_hat - analytic_p) / sigma

    artifact = ArtifactModel(
        back_reflection_prob=0.1,
        reflection_delay_ps=int(0.75 * cfg.loop_delay_ps),
        dead_time_ps=int(0.6 * cfg.loop_delay_ps),
    )
    dev_on = deviations(artifact, 81)
    dev_off = deviations(None, 81)
    early_depressed = bool(np.all(dev_on[1:6] < -5.0))
    late_unaffected = bool(np.all(np.abs(dev_on[29:]) < 4.0))
    off_clean = bool(np.all(np.abs(dev_off) < 4.5))
    _report(
        8,
        "back-reflection dead-time undercounting",
        early_depressed and late_unaffected and off_clean,
        f"bins 2-6 deviation = {np.round(dev_on[1:6], 1).tolist()} sigma (all < -5), "
        f"late bins max |dev| = {np.abs(dev_on[29:]).max():.1f} (< 4), "
        f"artifact off max |dev| = {np.abs(dev_off).max():.1f} (< 4.5)",
    )
