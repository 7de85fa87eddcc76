"""Span recorder and the instrumentation of the photonloop modules.

The benchmark records spans from its own files: it replaces the public
functions of each photonloop module (module attributes, class methods and
the CLI command callbacks) with wrappers while a traced window runs, and
puts the originals back afterwards. Calls inside a module go through its
globals, which are the module attributes, so they are seen too.

A span is ``[name, start, end, parent]``, with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 for
none). Spans stay in memory and are written out when the run ends. A call's
self time is its duration minus the durations of the wrapped calls made
inside it; the code is single-threaded, so those never overlap.

Functions called many times per call of their caller (``NO_SPAN``) get
their calls and self time counted but no span of their own, so that a
single calibrate call does not leave hundreds of spans behind. The other
per-bin helpers of ``calibration`` (``estimate_nout_per_bin``,
``propagate_sigma_nout``, ``weighted_mean_nout``) are not wrapped at all:
their time is calibrate's self time, and wrapping them would add to the
tracing overhead without feeding any metric.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("models", "analytic", "simulator", "clickstats", "calibration", "cli")

NO_SPAN = {
    "analytic": ("bin_exit_prob", "output_fraction"),
    "calibration": ("nout_partial_derivatives",),
}

TIMED = {
    "models": ("mean_photon_number", "pmf", "wilson_interval"),
    "analytic": (
        "bin_exit_probs",
        "prob_bin_given_n",
        "click_prob_closed",
        "click_prob_numeric",
        "mean_photons_per_bin",
        "total_output_photons",
        "invert_total_output",
    ),
    "simulator": ("simulate_pulse", "simulate_ensemble", "emit_time_tags"),
    "clickstats": ("ingest_time_tags", "q_pb", "q_b", "bootstrap_sigma"),
    "calibration": (
        "power_to_photons",
        "fit_loop_params",
        "system_detection_efficiency",
        "dynamic_range_db",
        "max_usable_bins",
        "calibrate",
    ),
    "cli": (
        "load_loop_config",
        "config_as_dict",
        "parse_source",
        "write_histogram_csv",
        "read_histogram_csv",
        "write_tags_csv",
        "read_tags_csv",
        "_write_report",  # private, but every report the CLI writes goes through it
    ),
}

CLI_COMMANDS = ("simulate", "analyze", "fit", "calibrate")


class Recorder:
    """Spans, self times and counters, recorded only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._frames: list[list[float]] = []  # time taken by each open call's children
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name: str, keep_span: bool, fn, args=(), kwargs=None):
        self.counts[name + ".calls"] += 1
        frame = [0.0]
        self._frames.append(frame)
        if keep_span:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open_spans[-1] if self._open_spans else -1])
            self._open_spans.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._frames.pop()
            if keep_span:
                self._open_spans.pop()
                self.spans[idx][1:3] = start, end
            self.self_s[name] += end - start - frame[0]
            if self._frames:
                self._frames[-1][0] += end - start

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self._call(name, True, fn, args)

    def wrap(self, name: str, fn, keep_span: bool = True, after=None):
        """Wrap ``fn``; ``after(counts, args, kwargs, result)`` adds counters."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            result = rec._call(name, keep_span, fn, args, kwargs)
            if after is not None:
                after(rec.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _add_file_size(key: str, index: int, name: str):
    def after(counts, args, kwargs, _result):
        counts[key] += os.path.getsize(_arg(args, kwargs, index, name))

    return after


def _after_sample(counts, _args, _kwargs, ns):
    counts["models.sample.photons"] += int(ns.sum())


def _after_simulate_ensemble(counts, args, kwargs, result):
    counts["simulator.pulses"] += _arg(args, kwargs, 2, "opts").n_pulses
    counts["simulator.clicks"] += int(result.histogram.clicks.sum())


def _after_emit_time_tags(counts, args, kwargs, stream):
    counts["simulator.pulses"] += _arg(args, kwargs, 2, "opts").n_pulses
    counts["simulator.clicks"] += int((stream.channels == stream.detector_channel).sum())


def _after_ingest(counts, args, kwargs, result):
    counts["clickstats.records_in"] += _arg(args, kwargs, 0, "stream").n_records
    counts["clickstats.records_discarded"] += result.n_discarded


def _after_bootstrap(counts, _args, _kwargs, result):
    counts["clickstats.bootstrap_degenerate"] += result.n_degenerate_qpb + result.n_degenerate_qb


def _after_calibrate(counts, _args, _kwargs, result):
    estimates = result.n_out_per_bin[:, 0]
    counts["calibration.bins_total"] += len(estimates)
    counts["calibration.bins_inverted"] += int(np.isfinite(estimates).sum())
    counts["calibration.bins_included"] += len(result.included_bins)


AFTER = {
    "simulator.simulate_ensemble": _after_simulate_ensemble,
    "simulator.emit_time_tags": _after_emit_time_tags,
    "clickstats.ingest_time_tags": _after_ingest,
    "clickstats.bootstrap_sigma": _after_bootstrap,
    "calibration.calibrate": _after_calibrate,
    "cli.write_histogram_csv": _add_file_size("cli.bytes_written", 1, "path"),
    "cli.write_tags_csv": _add_file_size("cli.bytes_written", 1, "path"),
    "cli._write_report": _add_file_size("cli.bytes_written", 0, "path"),
    "cli.read_histogram_csv": _add_file_size("cli.bytes_read", 0, "path"),
    "cli.read_tags_csv": _add_file_size("cli.bytes_read", 0, "path"),
}


def instrument(rec: Recorder, package):
    """Wrap the public functions of every photonloop module in ``rec``."""
    modules = {name: getattr(package, name) for name in MODULES}
    for table, keep_span in ((NO_SPAN, False), (TIMED, True)):
        for mod_name, funcs in table.items():
            module = modules[mod_name]
            for func in funcs:
                name = f"{mod_name}.{func}"
                rec.patch(module, func, rec.wrap(name, getattr(module, func), keep_span, AFTER.get(name)))

    models = modules["models"]
    for cls in (models.Fock, models.Coherent, models.Thermal, models.MultiThermal, models.LossyFock):
        rec.patch(cls, "sample", rec.wrap("models.sample", cls.__dict__["sample"], after=_after_sample))
        rec.patch(cls, "pmf", rec.wrap("models.pmf", cls.__dict__["pmf"]))
        rec.patch(cls, "truncation_bound", rec.wrap("models.truncation_bound", cls.__dict__["truncation_bound"]))
    for cls, method in ((models.ClickHistogram, "from_clicks"), (models.ClickPatternStats, "from_counts")):
        func = cls.__dict__[method].__func__
        rec.patch(cls, method, classmethod(rec.wrap(f"models.{cls.__name__}.{method}", func)))
    # construction of a stream re-checks its sort order over every record
    stream_cls = models.TimeTagStream
    rec.patch(stream_cls, "__post_init__", rec.wrap("models.TimeTagStream", stream_cls.__dict__["__post_init__"]))

    for command in CLI_COMMANDS:
        cmd = modules["cli"].main.commands[command]
        rec.patch(cmd, "callback", rec.wrap(f"cli.{command}", cmd.callback))
