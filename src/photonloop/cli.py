"""Command-line front end: simulate, analyze, fit, calibrate.

File formats are plain CSV/JSON: histograms as
``bin,clicks,trials,p_hat,ci_lo,ci_hi``, time tags as ``channel,time_ps``
(channel 0 = sync, 1 = detector, integer picoseconds, sorted ascending),
configs as JSON mirroring the LoopConfig field names, and reports as JSON
with a ``schema_version`` and the fully resolved configuration embedded.
Exit codes: 0 success, 2 validation failure, 3 runtime failure. Every flag
can be overridden through ``PHOTONLOOP_``-prefixed environment variables.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import click
import numpy as np

from . import calibration, clickstats, simulator
from .errors import PhotonLoopError
from .models import (
    ClickHistogram,
    Coherent,
    Fock,
    LoopConfig,
    LossyFock,
    MultiThermal,
    PhotonSource,
    Thermal,
    TimeTagStream,
)

SCHEMA_VERSION = 1

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(LoopConfig)}
_REQUIRED_FIELDS = {"mode", "R", "eta", "nu"}
_INTEGER_FIELDS = {"n_bins", "loop_delay_ps", "gate_width_ps", "n_max_guard"}


def load_loop_config(path: str) -> LoopConfig:
    """Read a LoopConfig from a JSON file mirroring the field names."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config field '{unknown[0]}' in {path}")
    missing = sorted(_REQUIRED_FIELDS - set(data))
    if missing:
        raise ValueError(f"config file {path} is missing required field '{missing[0]}'")
    for name, value in data.items():
        if name == "mode" or (name == "n_max_guard" and value is None):
            continue
        kind = int if name in _INTEGER_FIELDS else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            expected = "an integer" if name in _INTEGER_FIELDS else "a number"
            raise ValueError(f"config field '{name}' in {path} must be {expected}, got {value!r}")
    return LoopConfig(**data)


def config_as_dict(config: LoopConfig) -> dict:
    out = dataclasses.asdict(config)
    out["mode"] = config.mode.value
    return out


def parse_source(text: str) -> PhotonSource:
    """Parse ``fock:N | coherent:X | thermal:X | multithermal:X:K | lossyfock:N:T``."""
    kind, _, rest = text.partition(":")
    args = rest.split(":") if rest else []
    try:
        if kind == "fock" and len(args) == 1:
            return Fock(int(args[0]))
        if kind == "coherent" and len(args) == 1:
            return Coherent(float(args[0]))
        if kind == "thermal" and len(args) == 1:
            return Thermal(float(args[0]))
        if kind == "multithermal" and len(args) == 2:
            return MultiThermal(float(args[0]), float(args[1]))
        if kind == "lossyfock" and len(args) == 2:
            return LossyFock(int(args[0]), float(args[1]))
    except ValueError as exc:
        raise ValueError(f"invalid source spec '{text}': {exc}") from exc
    raise ValueError(
        f"invalid source spec '{text}'; expected fock:N, coherent:X, thermal:X, "
        "multithermal:X:K or lossyfock:N:T"
    )


def write_histogram_csv(hist: ClickHistogram, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "clicks", "trials", "p_hat", "ci_lo", "ci_hi"])
        for j in range(hist.n_bins):
            writer.writerow(
                [
                    j + 1,
                    int(hist.clicks[j]),
                    hist.trials,
                    repr(float(hist.p_hat[j])),
                    repr(float(hist.ci_lo[j])),
                    repr(float(hist.ci_hi[j])),
                ]
            )


def read_histogram_csv(path: str) -> ClickHistogram:
    bins, clicks, trials, p_hat, lo, hi = [], [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            bins.append(int(row["bin"]))
            clicks.append(int(row["clicks"]))
            trials.append(int(row["trials"]))
            p_hat.append(float(row["p_hat"]))
            lo.append(float(row["ci_lo"]))
            hi.append(float(row["ci_hi"]))
    if not bins:
        raise ValueError(f"histogram file {path} has no rows")
    if bins != list(range(1, len(bins) + 1)):
        raise ValueError(f"histogram file {path}: bin column must run 1..N")
    if len(set(trials)) != 1:
        raise ValueError(f"histogram file {path}: trials column must be constant")
    return ClickHistogram(
        trials=trials[0],
        clicks=np.array(clicks),
        p_hat=np.array(p_hat),
        ci_lo=np.array(lo),
        ci_hi=np.array(hi),
    )


def write_tags_csv(stream: TimeTagStream, path: str):
    data = np.column_stack([stream.channels, stream.times_ps])
    np.savetxt(path, data, fmt="%d", delimiter=",", header="channel,time_ps", comments="")


def read_tags_csv(path: str) -> TimeTagStream:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "channel,time_ps":
            raise ValueError(f"tags file {path}: expected header 'channel,time_ps'")
        body = fh.read()
    if not body.strip():
        channels = times = np.empty(0, dtype=np.int64)
    else:
        data = np.loadtxt(body.splitlines(), delimiter=",", dtype=np.int64, ndmin=2)
        channels, times = data[:, 0], data[:, 1]
    return TimeTagStream(channels=channels, times_ps=times)


def _write_report(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _cli_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except PhotonLoopError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group(context_settings={"auto_envvar_prefix": "PHOTONLOOP"})
def main():
    """Loop-detector simulation and calibration toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--source", "source_spec", required=True, help="e.g. coherent:3 or fock:1")
@click.option("--pulses", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", "hist_path", required=True, help="histogram CSV output")
@click.option("--emit-tags", "tags_path", default=None, help="also write a time-tag CSV")
@click.option("--rep-period-ps", type=int, default=None, help="pulse period for time tags")
@click.option("--back-reflection-prob", type=float, default=0.0, show_default=True)
@click.option("--reflection-delay-ps", type=int, default=None)
@click.option("--dead-time-ps", type=int, default=0, show_default=True)
@_cli_errors
def simulate(
    config_path,
    source_spec,
    pulses,
    seed,
    hist_path,
    tags_path,
    rep_period_ps,
    back_reflection_prob,
    reflection_delay_ps,
    dead_time_ps,
):
    """Monte Carlo a pulse ensemble and write its click histogram."""
    config = load_loop_config(config_path)
    source = parse_source(source_spec)
    artifact = None
    if back_reflection_prob > 0.0 or dead_time_ps > 0:
        if reflection_delay_ps is None:
            reflection_delay_ps = config.loop_delay_ps // 2
        artifact = simulator.ArtifactModel(
            back_reflection_prob=back_reflection_prob,
            reflection_delay_ps=reflection_delay_ps,
            dead_time_ps=dead_time_ps,
        )
    opts = simulator.SimOptions(n_pulses=pulses, seed=seed, artifact=artifact)
    if artifact is None:
        hist, _stats = simulator.simulate_ensemble(config, source, opts)
        write_histogram_csv(hist, hist_path)
        if tags_path is None:
            return
    if rep_period_ps is None:
        rep_period_ps = (config.n_bins + 4) * config.loop_delay_ps
    stream = simulator.emit_time_tags(config, source, opts, rep_period_ps)
    if artifact is not None:
        # artifacts act on the detector records, so the histogram is gated from them
        write_histogram_csv(clickstats.ingest_time_tags(stream, config).histogram, hist_path)
    if tags_path is not None:
        write_tags_csv(stream, tags_path)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--tags", "tags_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "report_path", required=True, help="JSON report output")
@click.option("--hist-output", default=None, help="also write the gated histogram CSV")
@click.option("--witness-bins", type=int, default=None, help="N entering the witnesses")
@click.option("--bootstrap-iterations", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_cli_errors
def analyze(config_path, tags_path, report_path, hist_output, witness_bins, bootstrap_iterations, seed):
    """Gate a time-tag stream and report click statistics and witnesses."""
    config = load_loop_config(config_path)
    stream = read_tags_csv(tags_path)
    hist, stats, discarded = _ingest(stream, config)
    if hist_output is not None:
        write_histogram_csv(hist, hist_output)

    n_bins = config.n_bins if witness_bins is None else witness_bins
    qpb = qb = None
    degenerate_reason = None
    try:
        qpb = clickstats.q_pb(stats, n_bins)
        qb = clickstats.q_b(stats, n_bins)
    except PhotonLoopError as exc:
        degenerate_reason = str(exc)
    boot = clickstats.bootstrap_sigma(
        stats, n_bins, trials_observed=hist.trials, iterations=bootstrap_iterations, seed=seed
    )

    _write_report(
        report_path,
        {
            "schema_version": SCHEMA_VERSION,
            "config": config_as_dict(config),
            "trials": hist.trials,
            "clicks": hist.clicks.tolist(),
            "p_hat": hist.p_hat.tolist(),
            "c": stats.c.tolist(),
            "mean_c": stats.mean_c,
            "var_c": stats.var_c,
            "m": stats.m,
            "sigma2": stats.sigma2,
            "witness_bins": n_bins,
            "qpb": _finite_or_none(qpb),
            "qb": _finite_or_none(qb),
            "sigma_qpb": _finite_or_none(boot.sigma_qpb),
            "sigma_qb": _finite_or_none(boot.sigma_qb),
            "bootstrap_iterations": bootstrap_iterations,
            "n_degenerate_qpb": boot.n_degenerate_qpb,
            "n_degenerate_qb": boot.n_degenerate_qb,
            "degenerate_reason": degenerate_reason,
            "n_discarded_records": discarded,
        },
    )


def _ingest(stream, config):
    result = clickstats.ingest_time_tags(stream, config)
    return result.histogram, result.pattern_stats, result.n_discarded


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--hist", "hist_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "report_path", required=True, help="JSON fit output")
@_cli_errors
def fit(config_path, hist_path, report_path):
    """Fit loop parameters to an attenuated-coherent histogram."""
    config = load_loop_config(config_path)
    hist = read_histogram_csv(hist_path)
    result = calibration.fit_loop_params(hist, config)
    _write_report(
        report_path,
        {
            "schema_version": SCHEMA_VERSION,
            "config": config_as_dict(config),
            "R_hat": _finite_or_none(result.R_hat),
            "eta_hat": _finite_or_none(result.eta_hat),
            "nbar_hat": _finite_or_none(result.nbar_hat),
            "sigma_R": _finite_or_none(result.sigma_R),
            "sigma_eta": _finite_or_none(result.sigma_eta),
            "sigma_nbar": _finite_or_none(result.sigma_nbar),
            "r_eta_hat": _finite_or_none(result.r_eta_hat),
            "sigma_r_eta": _finite_or_none(result.sigma_r_eta),
            "residual_norm": result.residual_norm,
            "dof": result.dof,
            "identifiable": result.identifiable,
        },
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--bright", "bright_path", required=True, type=click.Path(exists=True))
@click.option("--attenuated", "atten_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", "report_path", required=True, help="JSON report output")
@click.option("--power", type=float, default=None, help="power-meter reading, watts")
@click.option("--rep-rate", type=float, default=None, help="pulse repetition rate, Hz")
@click.option("--wavelength", type=float, default=None, help="wavelength, metres")
@click.option("--sigma-power", type=float, default=0.0, show_default=True)
@click.option("--j-min", type=int, default=None, help="first bin of the weighted mean")
@click.option("--n-dark", type=float, default=0.0, show_default=True)
@_cli_errors
def calibrate(
    config_path,
    bright_path,
    atten_path,
    report_path,
    power,
    rep_rate,
    wavelength,
    sigma_power,
    j_min,
    n_dark,
):
    """Run the full calibration: fit on the attenuated run, invert the bright run."""
    config = load_loop_config(config_path)
    bright = read_histogram_csv(bright_path)
    atten = read_histogram_csv(atten_path)

    fit_result = calibration.fit_loop_params(atten, config)

    n_pm = sigma_n_pm = None
    if power is not None and rep_rate is not None and wavelength is not None:
        n_pm = calibration.power_to_photons(power, rep_rate, wavelength)
        sigma_n_pm = (
            calibration.power_to_photons(sigma_power, rep_rate, wavelength)
            if sigma_power > 0
            else 0.0
        )
    result = calibration.calibrate(
        bright,
        fit_result,
        config,
        n_pm=n_pm,
        sigma_n_pm=sigma_n_pm or 0.0,
        j_min=j_min,
        n_dark=n_dark,
    )

    per_bin = [
        {
            "bin": j + 1,
            "n_out": _finite_or_none(result.n_out_per_bin[j, 0]),
            "sigma": _finite_or_none(result.n_out_per_bin[j, 1]),
            "included": (j + 1) in result.included_bins,
        }
        for j in range(len(result.n_out_per_bin))
    ]
    _write_report(
        report_path,
        {
            "schema_version": SCHEMA_VERSION,
            "config": config_as_dict(config),
            "R_hat": _finite_or_none(fit_result.R_hat),
            "eta_hat": _finite_or_none(fit_result.eta_hat),
            "sigma_R": _finite_or_none(fit_result.sigma_R),
            "sigma_eta": _finite_or_none(fit_result.sigma_eta),
            "r_eta_hat": _finite_or_none(fit_result.r_eta_hat),
            "sigma_r_eta": _finite_or_none(fit_result.sigma_r_eta),
            "identifiable": fit_result.identifiable,
            "j_min": result.j_min,
            "n_measured": result.n_measured,
            "sigma_n_measured": result.sigma_n_measured,
            "n_pm": n_pm,
            "sigma_n_pm": sigma_n_pm,
            "sde": result.sde,
            "sigma_sde": result.sigma_sde,
            "dynamic_range_db": result.dynamic_range_db,
            "saturated_bins": list(result.saturated_bins),
            "below_noise_bins": list(result.below_noise_bins),
            "per_bin": per_bin,
        },
    )


if __name__ == "__main__":
    main()
