"""The benchmark's own files still fit the package they measure.

``bench/tracing.py`` replaces ``owner.__dict__[name]`` for every name it
times, each source class's own ``sample``, ``pmf`` and ``truncation_bound``
included, and ``bench/workloads.py`` builds its options with the package's
keywords. A source change that moves one of those names would otherwise show
only in a traced benchmark run. The bench modules are loaded from their files
as they are; no bytecode is written beside them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import photonloop
import photonloop.cli  # noqa: F401  (instrument wraps the CLI module too)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def load_bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
        spec.loader.exec_module(module)
        return module

    return load


def test_instrument_finds_and_restores_every_name(load_bench):
    tracing = load_bench("tracing")
    rec = tracing.Recorder()
    try:
        tracing.instrument(rec, photonloop)
        patched = list(rec._patches)
    finally:
        rec.restore()
    assert len(patched) > len(tracing.CLI_COMMANDS)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} was not restored"


def test_workloads_build_their_options(load_bench, tmp_path):
    workloads = load_bench("workloads")
    hdr = workloads.HdrCalibration(1, str(tmp_path))
    opts = hdr.bright_options(0)
    assert isinstance(opts, photonloop.SimOptions)
    assert opts.n_pulses == hdr.n_bright
