"""photonloop benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are made from ``--seed``. The workload repeats
passes for ``--seconds`` (at least MIN_PASSES), checks every pass's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the workload runs untraced for
half of ``--seconds`` and traced for the other half, and the metrics are
per layer, per traced pass. The line before it carries the provenance and
detail of the run, which is also written with the spans to ``bench/out/``.
README.md describes the workloads and metrics.
"""

import os

# one simulator worker and no other threads: pin the numeric libraries
# before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Seed kept out of tuning, for confirming a claimed gain afterwards.
HELDOUT_SEED = 90210
MIN_PASSES = 3
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import photonloop.cli; "
    "print(time.perf_counter() - t); print(photonloop.cli.__file__)"
)

# spans whose self time is a per-layer metric "<span>.self_s"
SELF_TIME_SPANS = (
    "models.sample",
    "simulator.simulate_ensemble",
    "simulator.emit_time_tags",
    "clickstats.ingest_time_tags",
    "clickstats.bootstrap_sigma",
    "calibration.fit_loop_params",
    "calibration.calibrate",
    "cli.simulate",
    "cli.analyze",
    "cli.fit",
    "cli.calibrate",
    "cli.write_tags_csv",
    "cli.read_tags_csv",
    "cli.write_histogram_csv",
    "cli.read_histogram_csv",
)

# counters reported per traced pass under their own names
COUNTERS = (
    "models.sample.calls",
    "models.sample.photons",
    "simulator.pulses",
    "simulator.clicks",
    "clickstats.records_in",
    "clickstats.records_discarded",
    "clickstats.bootstrap_degenerate",
    "calibration.fit_loop_params.calls",
    "calibration.bins_inverted",
    "calibration.nout_partial_derivatives.calls",
    "cli.bytes_written",
    "cli.bytes_read",
    "analytic.bin_exit_prob.calls",
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def measure_setup() -> list[float]:
    """Seconds to import photonloop.cli in fresh interpreters, after one warm-up."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported photonloop from {path}")
        if k:
            samples.append(float(seconds))
    return samples


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "photonloop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "utc_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class PassesFailed(Exception):
    """Every pass of a window raised: there is nothing to time."""


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]):
        self.attempted += attempted
        self.failures += failures


def run_pass(workload, i: int, tally: Tally, instruments=(), span=None):
    """Run and check pass ``i``; return (seconds, items), or None if it raised."""
    for inst in instruments:
        inst.active = True
    t0 = time.perf_counter()
    try:
        out = workload.run_pass(i) if span is None else span("bench.pass", workload.run_pass, i)
    except Exception as exc:  # a pass that raises is counted as failed, not fatal
        tally.add(workload.ops_per_pass, [f"pass {i} raised {exc!r}"] * workload.ops_per_pass)
        return None
    finally:
        elapsed = time.perf_counter() - t0
        for inst in instruments:
            inst.active = False
    outcome = workload.check(out)
    tally.add(outcome.attempted, outcome.failures)
    return elapsed, outcome.items


def run_window(workload, first: int, seconds: float, tally: Tally, instruments=(), span=None):
    """Run passes from index ``first`` until ``seconds`` have gone, and at
    least MIN_PASSES; return (times and items of the passes that did not
    raise, next index)."""
    times, items = [], []
    i = first
    deadline = time.perf_counter() + seconds
    while i - first < MIN_PASSES or time.perf_counter() < deadline:
        done = run_pass(workload, i, tally, instruments, span)
        if done is not None:
            times.append(done[0])
            items.append(done[1])
        i += 1
    if not times:
        raise PassesFailed(tally.failures[-1])
    return times, items, i


def pass_seeds(workload, n: int) -> list[dict]:
    """The distinct seeds of passes 0..n-1, in order."""
    seen = []
    for i in range(n):
        if workload.seeds_for(i) not in seen:
            seen.append(workload.seeds_for(i))
    return seen


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def end_to_end(workload, args, tally, record) -> dict:
    setup = measure_setup()
    times, items, last = run_window(workload, 0, args.seconds, tally)
    record.update(pass_seeds=pass_seeds(workload, last), setup_s=summary(setup), run_s=summary(times),
                  items=workload.items_name, pass_times=times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(times), "s"),
        "items_per_s": (statistics.median(n / t for n, t in zip(items, times)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, args, tally, record, package) -> dict:
    # the untraced half times only calibrate, for its latency percentiles
    probe = tracing.Recorder()
    probe.patch(package.calibration, "calibrate", probe.wrap("calibrate", package.calibration.calibrate))
    try:
        plain, _, nxt = run_window(workload, 0, args.seconds / 2, tally, instruments=[probe])
    finally:
        probe.restore()
    latencies = [end - start for _name, start, end, _parent in probe.spans]
    rec = tracing.Recorder()
    tracing.instrument(rec, package)
    try:
        traced, _, last = run_window(workload, nxt, args.seconds / 2, tally, instruments=[rec], span=rec.span)
    finally:
        rec.restore()
    passes = len(traced)
    counts = rec.counts
    metrics = {}
    for module in tracing.MODULES:
        total = sum(v for k, v in rec.self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total / passes, "s")
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (rec.self_s.get(name, 0.0) / passes, "s")
    for name in COUNTERS:
        metrics[name] = (counts[name] / passes, "bytes" if name.startswith("cli.bytes") else "count")
    metrics["calibration.fit_failed"] = (counts["calibration.fit_loop_params.raised"] / passes, "count")
    requested = workload.pulses_requested * passes
    metrics["simulator.pulses_simulated_per_requested"] = (
        counts["simulator.pulses"] / requested if requested else 0.0, "ratio")
    bins = counts["calibration.bins_total"]
    metrics["calibration.bins_included_frac"] = (
        counts["calibration.bins_included"] / bins if bins else 0.0, "fraction")
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else [0.0] * 9
    metrics["calibration.calibrate.p50_ms"] = (1e3 * deciles[4], "ms")
    metrics["calibration.calibrate.p90_ms"] = (1e3 * deciles[8], "ms")
    metrics["calibration.calibrate.samples"] = (len(latencies), "count")
    speedup = 0.0
    if hasattr(workload, "speedup_2_workers"):
        speedup, same = workload.speedup_2_workers()
        tally.add(1, [] if same else ["bright leg differs between 1 and 2 workers"])
    metrics["simulator.speedup_2_workers"] = (speedup, "ratio")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")
    metrics["trace.spans_per_pass"] = (len(rec.spans) / passes, "count")
    record.update(pass_seeds=pass_seeds(workload, last), untraced_run_s=summary(plain),
                  traced_run_s=summary(traced), spans=rec.spans, counts=dict(counts))
    return metrics


def main() -> int:
    args = parse_args()
    if not (SRC / "photonloop" / "__init__.py").is_file():
        return fail(f"no photonloop sources under {SRC}; run from the root of a photonloop checkout")
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("PHOTONLOOP_")]:
        del os.environ[key]  # the CLI reads its options from these

    import photonloop
    import photonloop.cli
    import workloads

    if not Path(photonloop.__file__).resolve().is_relative_to(SRC):
        return fail(f"imported photonloop from {photonloop.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    tally = Tally()
    record = provenance(args)
    try:
        if args.trace:
            metrics = per_layer(workload, args, tally, record, photonloop)
        else:
            metrics = end_to_end(workload, args, tally, record)
    except PassesFailed as exc:
        return fail(f"every pass of {args.workload} raised; the last: {exc}")
    finally:
        workload.close()

    failed = len(tally.failures)
    record.update(attempted=tally.attempted, failed=failed,
                  failed_frac=failed / tally.attempted, failures=tally.failures[:20])
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))
    for bulky in ("spans", "counts", "pass_times"):
        record.pop(bulky, None)
    print(json.dumps({"bench": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
