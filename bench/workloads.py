"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in ``__init__`` and then
runs passes. ``run_pass(i)`` is the timed unit of work; ``check(out)``
verifies its outputs afterwards, outside the timed region, and returns the
operations it attempted, the failures among them and the items of work the
pass completed. Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from photonloop import Coherent, LoopConfig, SimOptions, calibration, cli, simulator
from photonloop.errors import PhotonLoopError
from photonloop.models import ClickHistogram

#: Pulses of the criterion-3 round trip: 7.5 M bright plus 64 M attenuated.
CRITERION_3_PULSES = 7_500_000 + 64_000_000
#: Criterion 3 accepts a 0.5% deviation from the truth at full statistics.
CRITERION_3_TOL = 0.005
#: Accuracy checks sit at 5 sigma: the benchmark makes hundreds of checks
#: per campaign where an acceptance test makes one.
CHECK_SIGMAS = 5.0


def sub_seed(seed: int, *keys: int) -> int:
    """A 64-bit seed derived from the run seed and the given keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


# The benchmark writes q_j down itself instead of asking ``analytic``, so
# that its inputs and truths do not depend on the code under test.
def exit_probs(mode: str, R: float, eta: float, n_bins: int) -> np.ndarray:
    """Per-photon probability q_j of leaving into bin j = 1..n_bins."""
    j = np.arange(1, n_bins + 1, dtype=float)
    if mode == "active":
        return (1.0 - R) * R ** (j - 1) * eta**j
    return np.where(j == 1, R, (1.0 - R) ** 2 * R ** (j - 2) * eta ** (j - 1))


def output_fraction(mode: str, R: float, eta: float) -> float:
    """Sum of q_j over all bins: the share of input photons that reach the detector."""
    if mode == "active":
        return eta * (1.0 - R) / (1.0 - R * eta)
    return (R + eta - 2.0 * R * eta) / (1.0 - R * eta)


def _log_coefficient(mode: str, R: float, eta: float, bins: np.ndarray) -> np.ndarray:
    """ln of the per-bin inversion coefficient (output fraction / q_j)."""
    q = exit_probs(mode, R, eta, int(bins.max()))[bins - 1]
    return math.log(output_fraction(mode, R, eta)) - np.log(q)


def calibration_sigma(mode: str, params: dict, sigmas: dict, per_bin, included, n_measured, sigma_n):
    """Uncertainty of a calibrated photon number, fit errors counted coherently.

    ``calibrate`` propagates the fit errors into every bin and then averages
    the bins as if their errors were independent; they are not, because all
    bins share the same fitted R and eta. This adds the shift of the weighted
    mean under a one-sigma move of each fitted parameter, summed linearly
    (the worst case over their correlation), to the reported sigma.
    ``params`` holds R and eta (passive) or the product r (active);
    ``per_bin`` rows are (estimate, sigma) per bin.
    """
    bins = np.asarray(included, dtype=int)
    weights = 1.0 / np.asarray(per_bin, dtype=float)[bins - 1, 1] ** 2
    if mode == "active":
        coeff = lambda p: _log_coefficient("active", p["r"], 1.0, bins)
    else:
        coeff = lambda p: _log_coefficient("passive", p["R"], p["eta"], bins)
    shift = 0.0
    for name, value in params.items():
        h = 1e-6 * value
        up = coeff({**params, name: value + h})
        down = coeff({**params, name: value - h})
        slope = float(weights @ ((up - down) / (2 * h)) / weights.sum())
        shift += abs(slope) * sigmas[name]
    return math.hypot(sigma_n, n_measured * shift)


def _near(value, truth, tol) -> bool:
    """|value - truth| <= tol; False when either is missing or NaN."""
    return value is not None and tol is not None and bool(abs(value - truth) <= tol)


@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    items: float


class HdrCalibration:
    """Criterion 3 at 1/64 scale: bright and attenuated Monte Carlo, fit, calibrate."""

    name = "hdr_calibration"
    items_name = "pulses requested"
    ops_per_pass = 1
    SCALE = 64
    TRUTH = 208_011.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = LoopConfig(mode="passive", R=0.91370, eta=0.8615, nu=1.2e-7, n_bins=130)
        self.nbar_in = self.TRUTH / output_fraction("passive", self.cfg.R, self.cfg.eta)
        self.n_bright = 7_500_000 // self.SCALE
        self.n_atten = 64_000_000 // self.SCALE
        self.pulses_requested = self.n_bright + self.n_atten
        # criterion 3's 0.5% is read as a 2-sigma bound at full statistics;
        # statistical errors grow as 1/sqrt(pulses) when the run shrinks
        self.tol = (
            CHECK_SIGMAS / 2.0 * CRITERION_3_TOL
            * math.sqrt(CRITERION_3_PULSES / self.pulses_requested)
        )

    def seeds_for(self, i: int) -> dict:
        return {"bright": sub_seed(self.seed, 1, i, 0), "atten": sub_seed(self.seed, 1, i, 1)}

    def bright_options(self, i: int, n_workers: int = 1) -> SimOptions:
        return SimOptions(n_pulses=self.n_bright, seed=self.seeds_for(i)["bright"], n_workers=n_workers)

    def run_pass(self, i: int):
        bright, _ = simulator.simulate_ensemble(self.cfg, Coherent(self.nbar_in), self.bright_options(i))
        atten, _ = simulator.simulate_ensemble(
            self.cfg, Coherent(4.5), SimOptions(n_pulses=self.n_atten, seed=self.seeds_for(i)["atten"])
        )
        fit = calibration.fit_loop_params(atten, self.cfg)
        return calibration.calibrate(bright, fit, self.cfg, n_pm=251_000.0, sigma_n_pm=12_500.0)

    def check(self, result) -> Outcome:
        rel = (result.n_measured - self.TRUTH) / self.TRUTH
        failures = [] if _near(rel, 0.0, self.tol) else [
            f"n_measured {result.n_measured:.0f} is {rel:+.2%} off the truth (tolerance {self.tol:.1%})"
        ]
        return Outcome(1, failures, self.pulses_requested)

    def speedup_2_workers(self) -> tuple[float, bool]:
        """Bright-leg time with one worker over two, and whether both agree exactly."""
        source = Coherent(self.nbar_in)
        times: dict[int, list[float]] = {1: [], 2: []}
        clicks = {}
        for order in ((1, 2), (2, 1)):
            for workers in order:
                t0 = time.perf_counter()
                hist, _ = simulator.simulate_ensemble(self.cfg, source, self.bright_options(0, workers))
                times[workers].append(time.perf_counter() - t0)
                clicks[workers] = hist.clicks
        ratio = float(np.median(times[1]) / np.median(times[2]))
        return ratio, bool(np.array_equal(clicks[1], clicks[2]))

    def close(self):
        pass


class CliFailed(RuntimeError):
    pass


def run_cli(*args):
    """Run one photonloop command in this process; raise if it does not exit 0."""
    argv = [str(a) for a in args]
    try:
        cli.main.main(args=argv, prog_name="photonloop", standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise CliFailed(f"photonloop {argv[0]} exited with {exc.code}") from None


def _read_clicks(path: str) -> list[tuple[int, int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(int(r["bin"]), int(r["clicks"]), int(r["trials"])) for r in csv.DictReader(fh)]


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _count_records(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


class FilePipeline:
    """simulate -> analyze -> fit -> calibrate through the CLI, on files."""

    name = "file_pipeline"
    items_name = "tag records written"
    ops_per_pass = 4
    LOOP = {"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 1e-4, "n_bins": 40}
    HERALDED = "lossyfock:1:0.6"
    ATTEN_NBAR = 2.0
    BRIGHT_NBAR = 5000.0
    N_TAGGED = 200_000
    N_BRIGHT = 20_000
    STEPS = ("heralded", "heralded_bootstrap", "atten", "atten_bootstrap", "bright")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.root = tempfile.mkdtemp(prefix="file_pipeline-", dir=workdir)
        self.config = os.path.join(self.root, "loop.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.LOOP, fh)
        self.pulses_requested = 2 * self.N_TAGGED + self.N_BRIGHT
        self.truth = self.BRIGHT_NBAR * output_fraction("passive", self.LOOP["R"], self.LOOP["eta"])

    def seeds_for(self, i: int) -> dict:
        # the CLI takes a signed 64-bit seed
        return {step: sub_seed(self.seed, 2, i, k) >> 1 for k, step in enumerate(self.STEPS)}

    def run_pass(self, i: int) -> str:
        d = os.path.join(self.root, f"pass{i}")
        os.mkdir(d)
        f = lambda name: os.path.join(d, name)
        seeds = self.seeds_for(i)
        cfg = ("--config", self.config)
        run_cli("simulate", *cfg, "--source", self.HERALDED, "--pulses", self.N_TAGGED,
                "--seed", seeds["heralded"], "-o", f("heralded.csv"), "--emit-tags", f("heralded_tags.csv"))
        run_cli("analyze", *cfg, "--tags", f("heralded_tags.csv"), "-o", f("heralded.json"),
                "--seed", seeds["heralded_bootstrap"])
        run_cli("simulate", *cfg, "--source", f"coherent:{self.ATTEN_NBAR}", "--pulses", self.N_TAGGED,
                "--seed", seeds["atten"], "-o", f("atten.csv"), "--emit-tags", f("atten_tags.csv"))
        run_cli("analyze", *cfg, "--tags", f("atten_tags.csv"), "-o", f("atten.json"),
                "--seed", seeds["atten_bootstrap"], "--hist-output", f("gated.csv"))
        run_cli("fit", *cfg, "--hist", f("gated.csv"), "-o", f("fit.json"))
        run_cli("simulate", *cfg, "--source", f"coherent:{self.BRIGHT_NBAR}", "--pulses", self.N_BRIGHT,
                "--seed", seeds["bright"], "-o", f("bright.csv"))
        run_cli("calibrate", *cfg, "--bright", f("bright.csv"), "--attenuated", f("gated.csv"),
                "-o", f("calibration.json"))
        return d

    def check(self, d: str) -> Outcome:
        f = lambda name: os.path.join(d, name)
        failures = []
        heralded = _load_json(f("heralded.json"))
        if not (heralded["qpb"] is not None and heralded["qpb"] < 0.0):
            failures.append(f"heralded single photons gave qpb = {heralded['qpb']}, not negative")
        if _read_clicks(f("gated.csv")) != _read_clicks(f("atten.csv")):
            failures.append("gated histogram differs from the simulated one")
        fit = _load_json(f("fit.json"))
        misses = [
            f"{key} = {fit[f'{key}_hat']} +- {fit[f'sigma_{key}']} vs {self.LOOP[key]}"
            for key in ("R", "eta")
            if not _near(fit[f"{key}_hat"], self.LOOP[key], CHECK_SIGMAS * fit[f"sigma_{key}"])
        ]
        if misses:
            failures.append("fit misses the truth: " + ", ".join(misses))
        cal = _load_json(f("calibration.json"))
        included = [row["bin"] for row in cal["per_bin"] if row["included"]]
        per_bin = np.array(
            [[np.nan if row[k] is None else row[k] for k in ("n_out", "sigma")] for row in cal["per_bin"]]
        )
        sigma = calibration_sigma(
            "passive", {"R": cal["R_hat"], "eta": cal["eta_hat"]},
            {"R": cal["sigma_R"], "eta": cal["sigma_eta"]},
            per_bin, included, cal["n_measured"], cal["sigma_n_measured"],
        )
        if not _near(cal["n_measured"], self.truth, CHECK_SIGMAS * sigma):
            failures.append(f"calibrated {cal['n_measured']:.1f} +- {sigma:.1f} vs truth {self.truth:.1f}")
        records = _count_records(f("heralded_tags.csv")) + _count_records(f("atten_tags.csv"))
        shutil.rmtree(d)
        return Outcome(4, failures, records)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class SweepCase:
    mode: str
    R: float
    eta: float
    cfg: LoopConfig
    atten: ClickHistogram
    brights: list[tuple[float, ClickHistogram]]


class FitInvertSweep:
    """One fit per loop, then calibrate a power sweep; no Monte Carlo."""

    name = "fit_invert_sweep"
    items_name = "calibrate calls"
    # two passive loops for each active one, so that the calibrate latency
    # median falls among passive calls and p90 among active ones, not in the
    # gap between them
    LOOPS = [("passive", R, eta) for R in (0.5, 0.75, 0.9137) for eta in (0.8615, 0.95)] + [
        ("active", R, 0.9) for R in (0.5, 0.75, 0.9)
    ]
    NU = 1.2e-7
    N_BINS = 130
    ATTEN_TRIALS = 10**6
    BRIGHT_TRIALS = 10**5
    ATTEN_FIRST_BIN_PHOTONS = 2.0
    POWERS = np.geomspace(1e2, 1e6, 16)
    pulses_requested = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.Generator(np.random.Philox(key=self.seeds_for(0)["histograms"]))
        self.cases = []
        for mode, R, eta in self.LOOPS:
            q = exit_probs(mode, R, eta, self.N_BINS)
            atten = self._histogram(rng, q, self.ATTEN_FIRST_BIN_PHOTONS / q[0], self.ATTEN_TRIALS)
            brights = [(n_in, self._histogram(rng, q, n_in, self.BRIGHT_TRIALS)) for n_in in self.POWERS]
            cfg = LoopConfig(mode=mode, R=R, eta=eta, nu=self.NU, n_bins=self.N_BINS)
            self.cases.append(SweepCase(mode, R, eta, cfg, atten, brights))
        self.calibrations_per_pass = len(self.cases) * len(self.POWERS)
        self.ops_per_pass = len(self.cases) + self.calibrations_per_pass

    def seeds_for(self, i: int) -> dict:
        return {"histograms": sub_seed(self.seed, 3)}

    def _histogram(self, rng, q, nbar_in, trials) -> ClickHistogram:
        p = 1.0 - (1.0 - self.NU) * np.exp(-q * nbar_in)
        return ClickHistogram.from_clicks(rng.binomial(trials, p), trials)

    def run_pass(self, i: int):
        out = []
        for case in self.cases:
            try:
                fit = calibration.fit_loop_params(case.atten, case.cfg)
            except PhotonLoopError as exc:
                out.append((case, exc, []))
                continue
            results = []
            for _n_in, hist in case.brights:
                try:
                    results.append(calibration.calibrate(hist, fit, case.cfg))
                except PhotonLoopError as exc:
                    results.append(exc)
            out.append((case, fit, results))
        return out

    def check(self, out) -> Outcome:
        failures = []
        for case, fit, results in out:
            label = f"{case.mode} R={case.R} eta={case.eta}"
            if isinstance(fit, Exception):
                failures += [f"{label}: fit raised {fit!r}"] * (1 + len(case.brights))
                continue
            if case.mode == "active":
                params, sigmas = {"r": fit.r_eta_hat}, {"r": fit.sigma_r_eta}
                fit_ok = _near(fit.r_eta_hat, case.R * case.eta, CHECK_SIGMAS * fit.sigma_r_eta)
            else:
                params, sigmas = {"R": fit.R_hat, "eta": fit.eta_hat}, {"R": fit.sigma_R, "eta": fit.sigma_eta}
                fit_ok = _near(fit.R_hat, case.R, CHECK_SIGMAS * fit.sigma_R) and _near(
                    fit.eta_hat, case.eta, CHECK_SIGMAS * fit.sigma_eta
                )
            if not fit_ok:
                failures.append(f"{label}: fit {params} +- {sigmas} misses the truth")
            for (n_in, _hist), res in zip(case.brights, results):
                if isinstance(res, Exception):
                    failures.append(f"{label} n_in={n_in:.3g}: calibrate raised {res!r}")
                    continue
                truth = n_in * output_fraction(case.mode, case.R, case.eta)
                sigma = calibration_sigma(
                    case.mode, params, sigmas, res.n_out_per_bin, res.included_bins,
                    res.n_measured, res.sigma_n_measured,
                )
                if not _near(res.n_measured, truth, CHECK_SIGMAS * sigma):
                    failures.append(
                        f"{label} n_in={n_in:.3g}: calibrated {res.n_measured:.4g} +- {sigma:.2g} "
                        f"vs truth {truth:.4g}"
                    )
        return Outcome(self.ops_per_pass, failures, self.calibrations_per_pass)

    def close(self):
        pass


WORKLOADS = {wl.name: wl for wl in (HdrCalibration, FilePipeline, FitInvertSweep)}
