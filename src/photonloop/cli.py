"""Command-line front end: simulate, analyze, fit, calibrate.

File formats are plain CSV/JSON: histograms as
``bin,clicks,trials,p_hat,ci_lo,ci_hi``, time tags as ``channel,time_ps``
(channel 0 = sync, 1 = detector, integer picoseconds, sorted ascending),
configs as JSON mirroring the LoopConfig field names, and reports as strict
JSON (null for any non-finite number) with a ``schema_version`` and the
fully resolved configuration embedded.
Exit codes: 0 success, 2 validation failure, 3 runtime failure. Every flag
can be overridden through ``PHOTONLOOP_``-prefixed environment variables.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import sys
import warnings
from typing import Callable, Generator, Iterator, Optional

import click
import numpy as np

from . import calibration, clickstats, simulator
from .errors import DegenerateDenominator, NoSyncRecords, PhotonLoopError, UnsortedStream
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

SCHEMA_VERSION = 2

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(LoopConfig)}
_REQUIRED_FIELDS = {"mode", "R", "eta", "nu"}
_INTEGER_FIELDS = {"n_bins", "loop_delay_ps", "gate_width_ps", "n_max_guard"}
_DERIVED_COLUMNS = ("p_hat", "ci_lo", "ci_hi")
_HISTOGRAM_COLUMNS = ("bin", "clicks", "trials") + _DERIVED_COLUMNS
_TAG_HEADER = b"channel,time_ps\n"
#: Tag rows formatted per write: bounds the memory of one formatted chunk.
_TAG_ROWS_PER_WRITE = 16_384
#: Where the printed width of sorted int64 values changes: 1 - 10**18 .. -9, 0, 10 .. 10**18.
_WIDTH_EDGES = np.r_[1 - 10 ** np.arange(18, 0, -1, dtype=np.int64), 0, 10 ** np.arange(1, 19, dtype=np.int64)]
#: The printed width below the first edge, then from each edge on: '-' and 19 .. 1 digits, then 1 .. 19.
_EDGE_WIDTHS = np.r_[20:1:-1, 1:20]
#: Digits are printed and read 9 at a time, in uint32 limbs; the weight of each digit of a limb.
_LIMB = np.uint64(10**9)
_LIMB_WEIGHTS = 10 ** np.arange(8, -1, -1, dtype=np.uint32)
#: Tag file bytes read per chunk: bounds the memory of one decoded chunk, which then fits in L2.
_TAG_BYTES_PER_READ = 1 << 18
#: A line numpy decodes, and the longest: ``-`` and 18 digits per cell, a comma and a newline.
_TAG_LINE, _TAG_LINE_MAX = re.compile(rb"(-?)(\d{1,18}),(-?)(\d{1,18})\n"), 40


def load_loop_config(path: str) -> LoopConfig:
    """Read a LoopConfig from a JSON file mirroring the field names; every error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("must hold a JSON object")
        unknown = sorted(set(data) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config field '{unknown[0]}'")
        missing = sorted(_REQUIRED_FIELDS - set(data))
        if missing:
            raise ValueError(f"missing required field '{missing[0]}'")
        for name, value in data.items():
            if name == "mode" or (name == "n_max_guard" and value is None):
                continue
            kind = int if name in _INTEGER_FIELDS else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                expected = "an integer" if name in _INTEGER_FIELDS else "a number"
                raise ValueError(f"config field '{name}' must be {expected}, got {value!r}")
        return LoopConfig(**data)
    except ValueError as exc:  # JSON syntax, unknown mode and range errors included
        raise ValueError(f"config file {path}: {exc}") from None


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
        writer.writerow(_HISTOGRAM_COLUMNS)
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
    """Read a histogram CSV; the derived columns must match the clicks.

    The histogram is rebuilt from the ``clicks`` and ``trials`` columns, and
    a row whose ``p_hat``, ``ci_lo`` or ``ci_hi`` is not finite or differs
    from the rebuilt value by more than 1e-9 relative is rejected.
    """
    rows = []
    reader = csv.DictReader(_text_lines(path, "histogram"))
    missing = [name for name in _HISTOGRAM_COLUMNS if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"histogram file {path} has no '{missing[0]}' column")
    for row in reader:
        cells = []
        for name in _HISTOGRAM_COLUMNS:
            kind = float if name in _DERIVED_COLUMNS else int
            try:
                cells.append(kind(row[name]))
            except (TypeError, ValueError):
                what = "a number" if kind is float else "an integer"
                raise ValueError(
                    f"histogram file {path}: line {reader.line_num} column '{name}' is "
                    f"{row[name]!r}, not {what}"
                ) from None
        rows.append(cells)
    if not rows:
        raise ValueError(f"histogram file {path} has no rows")
    bins, clicks, trials = ([row[i] for row in rows] for i in range(3))
    if bins != list(range(1, len(bins) + 1)):
        raise ValueError(f"histogram file {path}: bin column must run 1..N")
    if len(set(trials)) != 1:
        raise ValueError(f"histogram file {path}: trials column must be constant")
    try:
        hist = ClickHistogram.from_clicks(clicks, trials[0])
    except (ValueError, OverflowError) as exc:  # clicks outside [0, trials] or int64, trials < 1
        raise ValueError(f"histogram file {path}: {exc}") from None
    rebuilt = np.column_stack([hist.p_hat, hist.ci_lo, hist.ci_hi])
    derived = np.array([row[3:] for row in rows])
    bad = ~np.isclose(derived, rebuilt, rtol=1e-9, atol=0.0)  # NaN and inf included
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"histogram file {path}: row {row + 1} column '{_DERIVED_COLUMNS[col]}' is "
            f"{derived[row, col]!r}, but its clicks and trials give {rebuilt[row, col]!r}"
        )
    return hist


def write_tags_csv(stream: TimeTagStream, path: str):
    """Write the header, then ``f"{c},{t}\\n"`` per record, byte for byte; a channel is one digit."""
    with open(path, "wb") as fh:
        fh.write(_TAG_HEADER)
        _write_tag_rows(fh, stream.channels, stream.times_ps)


def _write_tag_rows(fh, channels: np.ndarray, times: np.ndarray):
    """Write ``f"{c},{t}\\n"`` per record to the binary file ``fh``; ``times`` must be sorted and
    every channel 0 or 1, as in a :class:`TimeTagStream`, so that it prints as one byte.

    Sorted times change width only at ±10**k, so one search of those edges cuts a chunk into runs
    of equal widths. A run is built column-major, as a (width, rows) uint8 array of whole lines (a
    digit position is one contiguous store), and written transposed.
    """
    for lo in range(0, len(times), _TAG_ROWS_PER_WRITE):
        chunk = times[lo : lo + _TAG_ROWS_PER_WRITE]
        t_edges = np.searchsorted(chunk, _WIDTH_EDGES)
        cuts = sorted(set(t_edges.tolist()) - {0, len(chunk)})
        for a, b in zip([0, *cuts], [*cuts, len(chunk)]):
            width = _EDGE_WIDTHS[np.searchsorted(t_edges, a, side="right")]
            block = np.empty((width + 3, b - a), dtype=np.uint8)
            block[0] = channels[lo + a : lo + b] + ord("0")
            block[1], block[-1] = ord(","), ord("\n")
            _put_digits(block[2:-1], np.abs(chunk[a:b]).view(np.uint64))  # |-2**63| wraps to 2**63
            block[2, chunk[a:b] < 0] = ord("-")
            fh.write(block.T.tobytes())


@contextlib.contextmanager
def _replaced_on_success(*paths: Optional[str]) -> Iterator[list]:
    """Temporary paths beside ``paths`` (None for None), moved onto them if the block succeeds, else deleted;
    two paths naming one file, of which one would be lost, raise ``ValueError`` before the block runs."""
    for a, b in itertools.combinations(filter(None, paths), 2):
        if os.path.realpath(a) == os.path.realpath(b):
            raise ValueError(f"outputs {a} and {b} are one file; give each output its own path")
    parts = {path: os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.part")
             for path in filter(None, paths)}
    try:
        yield [parts.get(path) for path in paths]
        for path, part in parts.items():
            os.replace(part, path)
    except OSError as exc:  # name the output, not its temporary path
        exc.filename = {part: path for path, part in parts.items()}.get(exc.filename, exc.filename)
        raise
    finally:
        for part in parts.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _put_digits(rows: np.ndarray, magnitude: np.ndarray):
    """Write the last ``len(rows)`` decimal digits of ``magnitude`` in ASCII, one row per digit,
    from 9-digit limbs of the uint64 magnitudes: uint32 divides faster."""
    for end in range(len(rows), 0, -9):
        if end > 9:
            high = magnitude // _LIMB
            limb = (magnitude - high * _LIMB).astype(np.uint32)
            magnitude = high
        else:
            limb = magnitude.astype(np.uint32)
        for row in range(end - 1, max(end - 9, 0) - 1, -1):
            quotient = limb // 10
            rows[row] = limb - 10 * quotient
            limb = quotient
    rows += ord("0")


def _get_digits(digits: np.ndarray, negative: bool, out: np.ndarray):
    """Read into ``out`` the integers whose digits (0 to 9, most significant first) are the 1 to 18
    rows of ``digits``, negated if ``negative``; 9-digit limbs sum in uint32, as :func:`_put_digits`."""
    limbs = [digits[:-9], digits[-9:]] if len(digits) > 9 else [digits]
    np.einsum("i,ij->j", _LIMB_WEIGHTS[-len(limbs[0]) :], limbs[0], dtype=np.uint32, out=out, casting="unsafe")
    if len(limbs) > 1:
        out *= 10**9
        out += np.einsum("i,ij->j", _LIMB_WEIGHTS, limbs[1], dtype=np.uint32)
    if negative:
        np.negative(out, out=out)


def _decode_tag_lines(buf: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(channels, times) of ``buf``, whole ``[-]digits,[-]digits\\n`` lines; None if a line is not
    of that form, a cell has more than 18 digits, or the layout changes too often for runs to pay.

    A run is the rows at its first line's stride that share that line's newline, comma and sign
    columns; only those are tested, in windows of 64 rows growing 8-fold, so a run costs its own
    length. Rows that pass are copied transposed to check and sum their digits; a non-digit ends it.
    """
    n_lines = np.count_nonzero(buf == ord("\n"))
    channels, times = np.empty(n_lines, dtype=np.int64), np.empty(n_lines, dtype=np.int64)
    pos = done = n_runs = 0
    while pos < len(buf):
        first = _TAG_LINE.match(buf[pos : pos + _TAG_LINE_MAX].tobytes())
        n_runs += 1
        # ~35 us a window vs np.loadtxt's ~0.15 us a line: even near 1 run per 512 lines (numpy 2.4, 2 vCPUs)
        if not first or n_runs > 64 + n_lines // 512:
            return None
        width = first.end()
        # the newline, comma and sign columns: each row of the run holds its first line's bytes there
        fixed = [width - 1, first.end(2), *(first.start(group) for group in (1, 3) if first[group])]
        layout = buf[pos : pos + width][fixed]
        for window in (64 * 8**i for i in itertools.count()):
            rows = buf[pos : pos + min(window, (len(buf) - pos) // width) * width].reshape(-1, width)
            ok = (rows[:, fixed] == layout).all(axis=1)
            n = len(rows) if ok.all() else int(ok.argmin())
            columns = rows[:n].T.copy()
            columns -= ord("0")
            c_digits, t_digits = columns[slice(*first.span(2))], columns[slice(*first.span(4))]
            bad = np.flatnonzero((c_digits.max(axis=0) > 9) | (t_digits.max(axis=0) > 9))
            n = int(bad[0]) if len(bad) else n
            _get_digits(c_digits[:, :n], bool(first[1]), channels[done : done + n])
            _get_digits(t_digits[:, :n], bool(first[3]), times[done : done + n])
            pos, done = pos + n * width, done + n
            if n < window:
                break
    return channels, times


def _writer_form_chunks(fh) -> Generator[tuple[np.ndarray, np.ndarray], None, bytes]:
    """(channels, times) of the form ``write_tags_csv`` writes, one chunk per read of the binary ``fh``.

    That form is ``[-]digits,[-]digits\\n`` lines, at most 18 digits a cell. Every read of
    ``_TAG_BYTES_PER_READ`` goes into one buffer, after the partial line that the read before left
    at its front, and its whole lines go to :func:`_decode_tag_lines`. Returns the bytes read but
    not decoded: those from the first line of the first read that shows another form on.
    """
    buf = bytearray(_TAG_LINE_MAX + _TAG_BYTES_PER_READ)
    view, data = memoryview(buf), np.frombuffer(buf, np.uint8)
    tail = 0
    while n_read := fh.readinto(view[tail : tail + _TAG_BYTES_PER_READ]):
        filled = tail + n_read
        end = buf.rfind(b"\n", 0, filled) + 1
        tail = filled - end
        lines = _decode_tag_lines(data[:end]) if tail < _TAG_LINE_MAX else None
        if lines is None:
            return bytes(buf[:filled])
        yield lines
        buf[:tail] = buf[end:filled]
    return bytes(buf[:tail])


def _tag_chunks(path: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(channels, times) of a tags file, each byte read once, in bounded reads.

    The writer's form goes through :func:`_writer_form_chunks`. From the
    first line of the first read in another form on (the header, if it is
    not byte-exact), ``np.loadtxt`` parses batches of whole lines of a text
    stream, about ``_TAG_BYTES_PER_READ`` (256 KiB) each, so universal
    newlines, comments and blank lines behave as ever. A batch it rejects
    raises, naming the file's first bad line.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_TAG_HEADER))
        rest = (yield from _writer_form_chunks(fh)) if head == _TAG_HEADER else head
        try:
            # the first batch is what was read, up to the end of the line the last read cut
            lines = io.TextIOWrapper(io.BytesIO(rest + fh.readline()), encoding="utf-8").readlines()
            if head != _TAG_HEADER and (lines.pop(0) if lines else "").strip() != "channel,time_ps":
                raise ValueError("expected header 'channel,time_ps'")
            text = io.TextIOWrapper(fh, encoding="utf-8")
            batches = itertools.chain([lines], iter(lambda: text.readlines(_TAG_BYTES_PER_READ), []))
            for batch in filter(None, batches):
                with warnings.catch_warnings():  # a batch of blank and comment lines holds no records
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(batch, delimiter=",", dtype=np.int64, ndmin=2)
                if len(data):
                    if data.shape[1] != 2:
                        raise ValueError(f"{data.shape[1]} columns")
                    yield data[:, 0], data[:, 1]
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(_bad_tag_cell(path) or f"tags file {path}: {exc}") from None


def _fold_tags_file(path: str, feed: Callable):
    """Pass the chunks of :func:`_tag_chunks` to ``feed(channels, times)``.

    ``feed`` may raise ``UnsortedStream`` with the record's index in the
    file. Errors name the file line (header = line 1) and wait for the end
    of the file, so that a parse error comes before an unknown channel, and
    an unknown channel before a record out of time order, wherever each lies.
    """
    sync, detector = TimeTagStream.sync_channel, TimeTagStream.detector_channel
    done, unknown, unsorted = 0, None, None
    for channels, times in _tag_chunks(path):
        if unknown is None:
            bad = TimeTagStream.first_unknown_channel(channels)
            if bad >= 0:
                unknown = done + bad, int(channels[bad])
            elif unsorted is None:
                try:
                    feed(channels, times)
                except UnsortedStream as exc:
                    unsorted = exc.index
        done += len(times)
    if unknown is not None:
        record, channel = unknown
        raise ValueError(
            f"tags file {path}: unknown channel {channel} on line {_tag_line(path, record)}; "
            f"expected {sync} (sync) or {detector} (detector)"
        )
    if unsorted is not None:
        raise _unsorted_tags(path, unsorted)


def _unsorted_tags(path: str, record: int) -> ValueError:
    return ValueError(
        f"tags file {path}: time_ps on line {_tag_line(path, record)} is earlier "
        "than on the line before; records must be sorted by time"
    )


def read_tags_csv(path: str) -> TimeTagStream:
    """Read a tags CSV; errors name the file line (header = line 1).

    The chunks of :func:`_fold_tags_file`, joined: every accepted form is
    read once, one bounded read or batch at a time.
    """
    parts = [(np.empty(0, dtype=np.int64),) * 2]
    _fold_tags_file(path, lambda *chunk: parts.append(chunk))
    channels, times = (np.concatenate(columns) for columns in zip(*parts))
    try:
        return TimeTagStream(channels=channels, times_ps=times)
    except UnsortedStream as exc:
        raise _unsorted_tags(path, exc.index) from None


def _text_lines(path: str, kind: str) -> Iterator[str]:
    """The lines of a text file, ends kept; a byte that is not UTF-8 raises, naming the file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for number, line in enumerate(fh, start=1):
            if re.search("[\udc80-\udcff]", line):  # how surrogateescape keeps such a byte
                raise ValueError(f"{kind} file {path}: line {number} is not UTF-8")
            yield line


def _tag_lines(path: str) -> Iterator[tuple[int, list[str]]]:
    """(file line, cells) of each record of a tags file, as np.loadtxt sees them; a bad header raises."""
    lines = enumerate(_text_lines(path, "tags"), start=1)
    if next(lines, (1, ""))[1].strip() != "channel,time_ps":
        raise ValueError(f"tags file {path}: expected header 'channel,time_ps'")
    for number, line in lines:
        text = line.partition("#")[0].rstrip("\r\n")  # np.loadtxt keeps a line of spaces
        if text:
            yield number, text.split(",")


def _tag_line(path: str, record: int) -> int:
    """File line of the 0-based ``record``; rescans the file, so only for errors."""
    return next(itertools.islice(_tag_lines(path), record, None))[0]


def _bad_tag_cell(path: str) -> Optional[str]:
    """Describe the first line of a tags file that is not two int64 cells."""
    for number, cells in _tag_lines(path):
        if len(cells) != 2:
            return f"tags file {path}: line {number} has {len(cells)} columns, expected 2"
        for name, cell in zip(("channel", "time_ps"), cells):
            cell = cell.strip()
            if not re.fullmatch(r"[+-]?\d+", cell) or not -(1 << 63) <= int(cell) < 1 << 63:
                return f"tags file {path}: line {number} column '{name}' is {cell!r}, not an integer"
    return None


def _write_report(path: str, config: LoopConfig, fields: dict):
    """Write a strict-JSON report: the schema version, the resolved config, then ``fields``."""
    report = {"schema_version": SCHEMA_VERSION, "config": config_as_dict(config), **fields}
    text = json.dumps(_null_non_finite(report), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _null_non_finite(value):
    """``value`` with every NaN or infinite float, however deeply nested, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(item) for item in value]
    return value


def _cli_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ValueError, OSError) as exc:  # an OSError names the input or output path
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except PhotonLoopError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _output_option(*decls: str, **attrs):
    """An option naming an output file: a directory there exits 2 before the command runs."""
    return click.option(*decls, type=click.Path(dir_okay=False), **attrs)


@click.group(context_settings={"auto_envvar_prefix": "PHOTONLOOP"})
def main():
    """Loop-detector simulation and calibration toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--source", "source_spec", required=True, help="e.g. coherent:3 or fock:1")
@click.option("--pulses", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output_option("-o", "--output", "hist_path", required=True, help="histogram CSV output")
@_output_option("--emit-tags", "tags_path", default=None, help="also write a time-tag CSV")
@click.option("--rep-period-ps", type=click.IntRange(min=1), default=None, help="pulse period for time tags")
@click.option("--back-reflection-prob", type=float, default=0.0, show_default=True)
@click.option("--reflection-delay-ps", type=click.IntRange(min=1), default=None)
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
    # checked whenever given, as the simulator checks them only on the runs that use them
    if rep_period_ps is not None and rep_period_ps <= config.n_bins * config.loop_delay_ps:
        raise ValueError(
            f"--rep-period-ps must exceed n_bins * loop_delay_ps = "
            f"{config.n_bins * config.loop_delay_ps}, got {rep_period_ps}"
        )
    if reflection_delay_ps is not None and simulator.reflection_in_gates(config, reflection_delay_ps):
        raise ValueError(
            f"--reflection-delay-ps {reflection_delay_ps} puts spurious records in the gates "
            f"(loop_delay_ps = {config.loop_delay_ps}, gate_width_ps = {config.gate_width_ps})"
        )
    artifact = None
    if back_reflection_prob != 0.0 or dead_time_ps != 0:  # ArtifactModel rejects bad values
        if reflection_delay_ps is None:
            reflection_delay_ps = config.loop_delay_ps // 2
        artifact = simulator.ArtifactModel(
            back_reflection_prob=back_reflection_prob,
            reflection_delay_ps=reflection_delay_ps,
            dead_time_ps=dead_time_ps,
        )
    opts = simulator.SimOptions(n_pulses=pulses, seed=seed)
    with _replaced_on_success(hist_path, tags_path) as (hist_part, tags_part):
        if tags_path is None and artifact is None:
            hist = simulator.simulate_ensemble(config, source, opts).histogram
        else:
            # one simulation: -o tallies the sampled clicks, which gating the tags gives
            # too; artifacts move and drop records, so then -o is gated from the tags
            if rep_period_ps is None:
                rep_period_ps = (config.n_bins + 4) * config.loop_delay_ps
            gate = clickstats.TagGate(config) if artifact else None
            clicks = np.zeros(config.n_bins, dtype=np.int64)
            chunks = simulator.iter_time_tags(config, source, opts, rep_period_ps, artifact)
            with open(tags_part, "wb") if tags_part else contextlib.nullcontext() as fh:
                if fh:
                    fh.write(_TAG_HEADER)
                for channels, times, block_clicks in chunks:
                    if gate:
                        gate.feed(channels, times)
                    else:
                        clicks += block_clicks
                    if fh:
                        _write_tag_rows(fh, channels, times)
            hist = gate.result().histogram if gate else ClickHistogram.from_clicks(clicks, pulses)
        write_histogram_csv(hist, hist_part)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tags", "tags_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_output_option("-o", "--output", "report_path", required=True, help="JSON report output")
@_output_option("--hist-output", default=None, help="also write the gated histogram CSV")
@click.option("--bootstrap-iterations", type=click.IntRange(min=2), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(0, 2**128 - 1), default=0, show_default=True)
@_cli_errors
def analyze(config_path, tags_path, report_path, hist_output, bootstrap_iterations, seed):
    """Gate a time-tag stream and report click statistics and witnesses."""
    config = load_loop_config(config_path)
    with _replaced_on_success(report_path, hist_output) as (report_part, hist_part):
        gate = clickstats.TagGate(config)
        _fold_tags_file(tags_path, gate.feed)
        try:
            gated = gate.result()
        except NoSyncRecords:
            raise ValueError(f"tags file {tags_path} has no sync (channel 0) records") from None
        hist, stats = gated
        qpb = qb = degenerate_reason = None
        try:
            qpb = clickstats.q_pb(stats)
        except DegenerateDenominator as exc:
            degenerate_reason = str(exc)
        try:  # q_b's denominator is never below q_pb's, so q_b may survive alone
            qb = clickstats.q_b(stats)
        except DegenerateDenominator as exc:
            degenerate_reason = degenerate_reason or str(exc)
        boot = clickstats.bootstrap_sigma(
            stats, trials_observed=hist.trials, iterations=bootstrap_iterations, seed=seed
        )

        if hist_part is not None:
            write_histogram_csv(hist, hist_part)
        _write_report(
            report_part,
            config,
            {
                "trials": hist.trials,
                "clicks": hist.clicks.tolist(),
                "p_hat": hist.p_hat.tolist(),
                "c": stats.c.tolist(),
                "mean_c": stats.mean_c,
                "var_c": stats.var_c,
                "m": stats.m,
                "sigma2": stats.sigma2,
                "witness_bins": stats.n_bins,
                "qpb": qpb,
                "qb": qb,
                "sigma_qpb": boot.sigma_qpb,
                "sigma_qb": boot.sigma_qb,
                "bootstrap_iterations": bootstrap_iterations,
                "n_degenerate_qpb": boot.n_degenerate_qpb,
                "n_degenerate_qb": boot.n_degenerate_qb,
                "degenerate_reason": degenerate_reason,
                "n_discarded_records": gated.n_discarded,
            },
        )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--hist", "hist_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_output_option("-o", "--output", "report_path", required=True, help="JSON fit output")
@_cli_errors
def fit(config_path, hist_path, report_path):
    """Fit loop parameters to an attenuated-coherent histogram."""
    config = load_loop_config(config_path)
    hist = read_histogram_csv(hist_path)
    result = calibration.fit_loop_params(hist, config)
    with _replaced_on_success(report_path) as (report_part,):
        _write_report(report_part, config, dataclasses.asdict(result))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--bright", "bright_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--attenuated", "atten_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_output_option("-o", "--output", "report_path", required=True, help="JSON report output")
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
    for flag, value in {"--sigma-power": sigma_power, "--n-dark": n_dark}.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{flag} must be a finite non-negative number, got {value}")
        if value > 0 and power is None:  # each acts only on the efficiency, which needs a power reading
            raise ValueError(f"{flag} needs --power, --rep-rate and --wavelength")
    reading = {"--power": power, "--rep-rate": rep_rate, "--wavelength": wavelength}
    missing = [flag for flag, value in reading.items() if value is None]
    if 0 < len(missing) < len(reading):
        raise ValueError(
            f"{' and '.join(missing)} missing: give --power, --rep-rate and --wavelength "
            "together or none of them"
        )
    for flag, value in reading.items():
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{flag} must be a finite positive number, got {value}")
    config = load_loop_config(config_path)
    bright = read_histogram_csv(bright_path)
    atten = read_histogram_csv(atten_path)

    fit_result = calibration.fit_loop_params(atten, config)

    n_pm = sigma_n_pm = None
    if not missing:
        n_pm = calibration.power_to_photons(power, rep_rate, wavelength)
        sigma_n_pm = calibration.power_to_photons(sigma_power, rep_rate, wavelength)
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
        {"bin": j + 1, "n_out": n_out, "sigma": sigma, "included": (j + 1) in result.included_bins}
        for j, (n_out, sigma) in enumerate(result.n_out_per_bin.tolist())
    ]
    with _replaced_on_success(report_path) as (report_part,):
        _write_report(
            report_part,
            config,
            {
                **dataclasses.asdict(fit_result),
                "j_min": result.j_min,
                "n_measured": result.n_measured,
                "sigma_n_measured": result.sigma_n_measured,
                "n_pm": n_pm,
                "sigma_n_pm": sigma_n_pm,
                "sde": result.sde,
                "sigma_sde": result.sigma_sde,
                "dynamic_range_db": result.dynamic_range_db,
                "saturated_bins": result.saturated_bins,
                "below_noise_bins": result.below_noise_bins,
                "per_bin": per_bin,
            },
        )


if __name__ == "__main__":
    main()
