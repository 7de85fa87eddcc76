import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import photonloop
from photonloop import analytic, cli, simulator, Coherent, LoopConfig, Thermal, TimeTagStream
from photonloop.models import FitResult
from photonloop.cli import (
    main,
    parse_source,
    read_histogram_csv,
    read_tags_csv,
    write_tags_csv,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(
        json.dumps(
            {
                "mode": "passive",
                "R": 0.5,
                "eta": 0.9,
                "nu": 1e-3,
                "n_bins": 25,
                "loop_delay_ps": 156000,
                "gate_width_ps": 4000,
            }
        )
    )
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def strict_json(path):
    """A report parsed as strict JSON: a NaN, Infinity or -Infinity in it is an error."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestWriteReport:
    def test_non_finite_floats_written_as_null(self, tmp_path):
        config = LoopConfig(mode="passive", R=0.5, eta=0.9, nu=1e-3)
        path = tmp_path / "r.json"
        fields = {
            "nan": math.nan,
            "per_bin": [{"bin": 1, "n_out": math.inf, "sigma": -math.inf, "included": False}],
            "pair": (1.5, np.float64("nan")),
            "finite": 2.5,
            "count": 3,
            "missing": None,
        }
        cli._write_report(str(path), config, fields)
        report = strict_json(path)
        assert list(report) == ["schema_version", "config", *fields]
        assert report["schema_version"] == cli.SCHEMA_VERSION
        assert report["config"] == cli.config_as_dict(config)
        assert report["nan"] is None and report["missing"] is None
        assert report["per_bin"] == [{"bin": 1, "n_out": None, "sigma": None, "included": False}]
        assert report["pair"] == [1.5, None]
        assert report["finite"] == 2.5 and report["count"] == 3


class TestParseSource:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("fock:1", "Fock"),
            ("coherent:3", "Coherent"),
            ("thermal:0.5", "Thermal"),
            ("multithermal:300:1.8", "MultiThermal"),
            ("lossyfock:1:0.2", "LossyFock"),
        ],
    )
    def test_grammar(self, spec, expected):
        assert type(parse_source(spec)).__name__ == expected

    @pytest.mark.parametrize("spec", ["laser:3", "coherent", "fock:1:2", "coherent:abc"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError, match="source"):
            parse_source(spec)


class TestSimulateCommand:
    def test_deterministic_histogram(self, runner, config_file, tmp_path):
        args = [
            "simulate", "--config", config_file, "--source", "coherent:3",
            "--pulses", "20000", "--seed", "7",
        ]
        run_ok(runner, args + ["-o", str(tmp_path / "a.csv")])
        run_ok(runner, args + ["-o", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        hist = read_histogram_csv(str(tmp_path / "a.csv"))
        assert hist.trials == 20000 and hist.n_bins == 25

    def test_emit_tags(self, runner, config_file, tmp_path):
        run_ok(
            runner,
            [
                "simulate", "--config", config_file, "--source", "coherent:3",
                "--pulses", "500", "--seed", "7",
                "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv"),
            ],
        )
        stream = read_tags_csv(str(tmp_path / "t.csv"))
        assert (stream.channels == 0).sum() == 500
        assert stream.n_records > 500

    @pytest.mark.parametrize(
        "source, guard",
        [
            ("lossyfock:1:0.6", None),
            ("coherent:3", None),
            ("fock:1", None),
            ("thermal:3", None),
            ("multithermal:300:1.8", None),
            ("coherent:100", None),  # bins 1-6 fire in most pulses: the kernel draws their misses
            ("coherent:3", 100),  # under a guard coherent light takes the routing chain
        ],
        ids=["lossyfock:1:0.6", "coherent:3", "fock:1", "thermal:3", "multithermal:300:1.8",
             "coherent:100", "coherent:3-guarded"],
    )
    def test_tagged_histogram_matches_untagged(self, runner, config_file, tmp_path, source, guard):
        """-o of a tagged run tallies the sampled clicks: it equals the gated tags' and the records' own.

        The untagged run draws the same pulses, apart from unguarded coherent light, whose
        ensemble is drawn by fired-count classes: the same law, so it agrees bin by bin within 5 sigma.
        """
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**json.loads(Path(config_file).read_text()), "n_max_guard": guard}))
        n_pulses = simulator.BLOCK_SIZE + 500
        args = ["simulate", "--config", str(config), "--source", source, "--pulses", str(n_pulses), "--seed", "13"]
        run_ok(runner, args + ["-o", str(tmp_path / "plain.csv")])
        run_ok(runner, args + ["-o", str(tmp_path / "tagged.csv"), "--emit-tags", str(tmp_path / "t.csv")])
        run_ok(runner, ["analyze", "--config", str(config), "--tags", str(tmp_path / "t.csv"),
                        "-o", str(tmp_path / "r.json"), "--hist-output", str(tmp_path / "gated.csv"),
                        "--bootstrap-iterations", "10"])
        assert (tmp_path / "tagged.csv").read_bytes() == (tmp_path / "gated.csv").read_bytes()
        loop = cli.load_loop_config(str(config))
        stream = read_tags_csv(str(tmp_path / "t.csv"))
        records = stream.times_ps[stream.channels == stream.detector_channel]
        rep = (loop.n_bins + 4) * loop.loop_delay_ps  # the default period
        bins = records % rep // loop.loop_delay_ps - 1
        tagged = read_histogram_csv(str(tmp_path / "tagged.csv")).clicks
        np.testing.assert_array_equal(tagged, np.bincount(bins, minlength=loop.n_bins))
        if source.startswith("coherent") and guard is None:
            plain = read_histogram_csv(str(tmp_path / "plain.csv")).clicks
            p = (plain + tagged) / (2 * n_pulses)
            assert (np.abs(plain - tagged) <= 5 * np.sqrt(2 * n_pulses * p * (1 - p)) + 1e-9).all()
        else:
            assert (tmp_path / "tagged.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_failure_in_a_later_block_leaves_no_outputs(self, runner, tmp_path):
        """Block 0 passes the guard and is written; block 1 exceeds it: neither file is left."""
        block = simulator.BLOCK_SIZE
        maxima = [Thermal(1.0).sample(simulator._block_rng(1, b), block).max() for b in (0, 1)]
        assert maxima[0] <= 12 < maxima[1]
        config = tmp_path / "loop.json"
        config.write_text(json.dumps({**_VALID_CONFIG, "n_max_guard": 12}))
        result = runner.invoke(
            main,
            ["simulate", "--config", str(config), "--source", "thermal:1", "--pulses", str(3 * block),
             "--seed", "1", "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 3, result.output
        assert "guard" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json"]

    def test_zero_pulses_exits_2(self, runner, config_file, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "0",
             "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 2
        assert "--pulses" in result.output

    @pytest.mark.parametrize("tagged", [False, True], ids=["histogram", "emit-tags"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_rep_period_exits_2(self, runner, config_file, tmp_path, value, tagged):
        args = ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "10",
                "-o", str(tmp_path / "h.csv"), "--rep-period-ps", value]
        if tagged:
            args += ["--emit-tags", str(tmp_path / "t.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--rep-period-ps" in result.output
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("tagged", [False, True], ids=["histogram", "emit-tags"])
    @pytest.mark.parametrize("value", ["5", str(25 * 156000)], ids=["5", "n_bins-delays"])
    def test_rep_period_inside_the_bins_exits_2(self, runner, config_file, tmp_path, value, tagged):
        """A period that does not pass the last bin is refused, tags or not, naming the flag."""
        args = ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "10",
                "-o", str(tmp_path / "h.csv"), "--rep-period-ps", value]
        if tagged:
            args += ["--emit-tags", str(tmp_path / "t.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--rep-period-ps" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json"]

    @pytest.mark.parametrize(
        "delay, args",
        [
            (156_000, ["--pulses", "10", "--rep-period-ps", str(10**20)]),
            (156_000, ["--pulses", "20", "--rep-period-ps", str(10**18)]),
            (4 * 10**18, ["--pulses", "2"]),  # the default period, n_bins + 4 loop delays
        ],
        ids=["period-past-int64", "last-pulse-past-int64", "default-period-past-int64"],
    )
    def test_tag_times_past_int64_exit_2(self, runner, tmp_path, delay, args):
        """Tag times that int64 cannot hold are refused before anything is written."""
        config = tmp_path / "loop.json"
        config.write_text(json.dumps(
            {"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 1e-3, "n_bins": 4, "loop_delay_ps": delay}
        ))
        result = runner.invoke(
            main,
            ["simulate", "--config", str(config), "--source", "coherent:3", *args,
             "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 2, result.output
        assert "rep_period_ps" in result.output and "n_pulses" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json"]

    @pytest.mark.parametrize(
        "extra", [[], ["--back-reflection-prob", "0.1"]], ids=["alone", "with-artifact"]
    )
    @pytest.mark.parametrize("value", ["156000", "312000", "156100", "157999", "154000"])
    def test_reflection_delay_on_a_gate_exits_2(self, runner, config_file, tmp_path, extra, value):
        """A delay that puts spurious records in the gates is refused, artifact or not, naming the flag."""
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "10",
             "-o", str(tmp_path / "h.csv"), "--reflection-delay-ps", value, *extra],
        )
        assert result.exit_code == 2, result.output
        assert "--reflection-delay-ps" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop.json"]

    @pytest.mark.parametrize("value", ["158000", "78000"])
    def test_reflection_delay_off_the_gates_keeps_the_histogram(self, runner, config_file, tmp_path, value):
        """Spurs outside every gate of their pulse are discarded: -o is that of the tagged run without them."""
        run = ["simulate", "--config", config_file, "--source", "coherent:2", "--pulses", "5000", "--seed", "1"]
        run_ok(runner, [*run, "-o", str(tmp_path / "clean.csv"), "--emit-tags", str(tmp_path / "clean_tags.csv")])
        run_ok(runner, [*run, "-o", str(tmp_path / "spurs.csv"),
                        "--back-reflection-prob", "0.5", "--reflection-delay-ps", value])
        assert (tmp_path / "spurs.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()

    @pytest.mark.parametrize(
        "source, field",
        [("coherent:inf", "nbar"), ("thermal:inf", "nbar"),
         ("multithermal:inf:2", "nbar"), ("multithermal:2:inf", "K")],
    )
    def test_infinite_source_parameter_exits_2(self, runner, config_file, tmp_path, source, field):
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", source,
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert result.exit_code == 2, result.output
        assert f"invalid source spec '{source}': {field} must be finite" in result.output
        assert not (tmp_path / "h.csv").exists()

    def test_invalid_reflectivity_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "passive", "R": 1.2, "eta": 0.9, "nu": 0.0}))
        result = runner.invoke(
            main,
            ["simulate", "--config", str(bad), "--source", "coherent:3",
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert result.exit_code == 2
        assert "R" in result.output

    def test_unknown_config_field_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 0.0, "bogus": 1}))
        result = runner.invoke(
            main,
            ["simulate", "--config", str(bad), "--source", "coherent:3",
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert result.exit_code == 2
        assert "bogus" in result.output

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_bins", "130"),
            ("R", "0.5"),
            ("nu", True),
            ("n_bins", 130.0),
            ("loop_delay_ps", 1.56e5),
            ("n_max_guard", "5"),
        ],
    )
    def test_wrong_config_type_exits_2(self, runner, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        config = {"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 0.0, field: value}
        bad.write_text(json.dumps(config))
        result = runner.invoke(
            main,
            ["simulate", "--config", str(bad), "--source", "coherent:3",
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert result.exit_code == 2
        assert f"'{field}'" in result.output

    def test_bad_source_exits_2(self, runner, config_file, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "laser:3",
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert result.exit_code == 2

    def test_seed_from_environment(self, runner, config_file, tmp_path):
        args = [
            "simulate", "--config", config_file, "--source", "coherent:3",
            "--pulses", "5000",
        ]
        run_ok(runner, args + ["--seed", "99", "-o", str(tmp_path / "flag.csv")])
        result = runner.invoke(
            main, args + ["-o", str(tmp_path / "env.csv")],
            env={"PHOTONLOOP_SIMULATE_SEED": "99"}, catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "env.csv").read_bytes()

    def test_artifact_flags(self, runner, config_file, tmp_path):
        args = [
            "simulate", "--config", config_file, "--source", "coherent:100",
            "--pulses", "2000", "--seed", "5",
        ]
        artifact = [
            "--back-reflection-prob", "0.1",
            "--reflection-delay-ps", "117000", "--dead-time-ps", "93600",
        ]
        tagged = ["-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")]
        run_ok(runner, args + artifact + tagged)
        run_ok(runner, args + artifact + ["-o", str(tmp_path / "untagged.csv")])
        run_ok(runner, args + ["-o", str(tmp_path / "clean.csv")])
        run_ok(
            runner,
            ["analyze", "--config", config_file, "--tags", str(tmp_path / "t.csv"),
             "-o", str(tmp_path / "r.json"), "--bootstrap-iterations", "100",
             "--hist-output", str(tmp_path / "gated.csv")],
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["n_discarded_records"] > 0  # spurious events land outside gates
        # the -o histogram is the gated tag stream, artifacts included
        gated = (tmp_path / "gated.csv").read_bytes()
        assert (tmp_path / "h.csv").read_bytes() == gated
        assert (tmp_path / "untagged.csv").read_bytes() == gated
        assert (tmp_path / "clean.csv").read_bytes() != gated

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--back-reflection-prob", "-0.5", "back_reflection_prob"),
            ("--back-reflection-prob", "nan", "back_reflection_prob"),
            ("--dead-time-ps", "-7", "dead_time_ps"),
        ],
    )
    def test_bad_artifact_flag_exits_2(self, runner, config_file, tmp_path, flag, value, field):
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "10",
             "-o", str(tmp_path / "h.csv"), flag, value],
        )
        assert result.exit_code == 2, result.output
        assert field in result.output

    @pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
    @pytest.mark.parametrize("value", [str(1 << 63), "10000000000000000000"])
    def test_dead_time_past_int64_exits_2(self, runner, config_file, tmp_path, tagged, value):
        """Record gaps are int64: a dead time of 2**63 ps or more is refused before any output."""
        tags = ["--emit-tags", str(tmp_path / "t.csv")] if tagged else []
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "coherent:2", "--pulses", "10",
             "-o", str(tmp_path / "h.csv"), "--dead-time-ps", value, *tags],
        )
        assert result.exit_code == 2, result.output
        assert "dead_time_ps" in result.output
        assert not (tmp_path / "h.csv").exists() and not (tmp_path / "t.csv").exists()

    def test_largest_dead_time_runs(self, runner, config_file, tmp_path):
        """A dead time of 2**63 - 1 ps keeps the first detector record and blinds the rest of the run."""
        tags = tmp_path / "t.csv"
        run_ok(
            runner,
            ["simulate", "--config", config_file, "--source", "coherent:2", "--pulses", "10", "--seed", "1",
             "-o", str(tmp_path / "h.csv"), "--dead-time-ps", str((1 << 63) - 1), "--emit-tags", str(tags)],
        )
        channels = [line.split(",")[0] for line in tags.read_text().splitlines()[1:]]
        assert channels.count("1") == 1

    @pytest.mark.parametrize(
        "extra", [[], ["--back-reflection-prob", "0.1"]], ids=["alone", "with-artifact"]
    )
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_reflection_delay_exits_2(self, runner, config_file, tmp_path, extra, value):
        """The delay is checked whether or not any artifact is switched on."""
        result = runner.invoke(
            main,
            ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "10",
             "-o", str(tmp_path / "h.csv"), "--reflection-delay-ps", value, *extra],
        )
        assert result.exit_code == 2, result.output
        assert "--reflection-delay-ps" in result.output
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--source", "coherent:3", "--pulses", "3000", "--seed", "11"],
             "ebb6de1da053ac7ef7257ad7211192be4e62f1ef7e9a2cf41b49e09854373d68"),
            (["--source", "coherent:100", "--pulses", "2000", "--seed", "5",
              "--back-reflection-prob", "0.1", "--reflection-delay-ps", "117000",
              "--dead-time-ps", "93600"],
             "64344f04049786fdc70aa6828f9235637edc357a3d40f602824e04149686b272"),
        ],
        ids=["clean", "artifacts"],
    )
    def test_tag_file_digest(self, runner, config_file, tmp_path, args, digest):
        """The tag file's bytes, not only its arrays, stay pinned: clean since version 0.9.0, and with
        artifacts since 0.14.0, whose kernel draws coherent:100's flipped bins as dense ones."""
        tags = tmp_path / "t.csv"
        run_ok(
            runner,
            ["simulate", "--config", config_file, *args,
             "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tags)],
        )
        assert hashlib.sha256(tags.read_bytes()).hexdigest() == digest


class TestAnalyzeCommand:
    def test_round_trip_matches_simulated_histogram(self, runner, config_file, tmp_path):
        run_ok(
            runner,
            ["simulate", "--config", config_file, "--source", "coherent:3",
             "--pulses", "3000", "--seed", "11",
             "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")],
        )
        run_ok(
            runner,
            ["analyze", "--config", config_file, "--tags", str(tmp_path / "t.csv"),
             "-o", str(tmp_path / "r.json"), "--hist-output", str(tmp_path / "h2.csv"),
             "--bootstrap-iterations", "200"],
        )
        assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schema_version"] == 2
        assert report["config"]["R"] == 0.5
        for key in ("qpb", "qb", "sigma_qpb", "sigma_qb"):
            assert report[key] is not None
        assert len(report["c"]) == 26

    def test_unsorted_tags_named_by_index(self, runner, config_file, tmp_path):
        tags = tmp_path / "bad.csv"
        tags.write_text("channel,time_ps\n0,0\n1,500\n1,400\n")
        result = runner.invoke(
            main,
            ["analyze", "--config", config_file, "--tags", str(tags),
             "-o", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 2
        assert "bad.csv" in result.output and "line 4" in result.output

    def test_sorted_tags_spanning_int64_accepted(self, runner, config_file, tmp_path):
        # neighbouring times more than 2**63 ps apart, whose int64 difference wraps
        tags = tmp_path / "far.csv"
        tags.write_text(
            "channel,time_ps\n0,-9223372036854775808\n1,-9223372036853995808\n"
            "0,4611686018427387904\n1,4611686018427543904\n1,4611686018427699904\n"
            "0,9223372036854775807\n"
        )
        run_ok(
            runner,
            ["analyze", "--config", config_file, "--tags", str(tags),
             "-o", str(tmp_path / "r.json"), "--bootstrap-iterations", "50"],
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["trials"] == 3 and report["n_discarded_records"] == 0
        assert report["clicks"][:5] == [1, 1, 0, 0, 1]

    def test_syncs_without_clicks_report_degenerate_bootstrap(self, runner, config_file, tmp_path):
        """No detector click at all: every witness and bootstrap iteration is degenerate, yet reported."""
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n0,0\n0,10000000\n0,20000000\n")
        run_ok(
            runner,
            ["analyze", "--config", config_file, "--tags", str(tags),
             "-o", str(tmp_path / "r.json"), "--bootstrap-iterations", "50"],
        )
        report = strict_json(tmp_path / "r.json")
        assert report["trials"] == 3 and report["clicks"] == [0] * 25
        assert report["qpb"] is None and report["qb"] is None and report["degenerate_reason"]
        assert report["sigma_qpb"] is None and report["sigma_qb"] is None
        assert report["n_degenerate_qpb"] == report["n_degenerate_qb"] == 50

    @pytest.mark.parametrize("value", ["0", "-3", "30"])
    def test_witness_bins_flag_is_gone_exits_2(self, runner, config_file, tmp_path, value):
        """N is the gated bin count: no value, in range or not, may override it."""
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n0,0\n1,156000\n0,10000000\n")
        result = runner.invoke(
            main,
            ["analyze", "--config", config_file, "--tags", str(tags),
             "-o", str(tmp_path / "r.json"), "--witness-bins", value],
        )
        assert result.exit_code == 2, result.output
        assert "--witness-bins" in result.output
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("n_bins", [20, 30, 40])
    def test_coherent_light_is_witness_neutral_at_any_gated_bin_count(self, runner, tmp_path, n_bins):
        """One coherent tags file gated on fewer bins: N follows the config, and q_pb stays near 0."""
        loop = {"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 1e-4}
        (tmp_path / "loop40.json").write_text(json.dumps({**loop, "n_bins": 40}))
        (tmp_path / "loop.json").write_text(json.dumps({**loop, "n_bins": n_bins}))
        run_ok(
            runner,
            ["simulate", "--config", str(tmp_path / "loop40.json"), "--source", "coherent:2",
             "--pulses", "20000", "--seed", "5", "-o", str(tmp_path / "h.csv"),
             "--emit-tags", str(tmp_path / "t.csv")],
        )
        run_ok(
            runner,
            ["analyze", "--config", str(tmp_path / "loop.json"), "--tags", str(tmp_path / "t.csv"),
             "-o", str(tmp_path / "r.json"), "--bootstrap-iterations", "1000", "--seed", "6"],
        )
        report = strict_json(tmp_path / "r.json")
        assert report["witness_bins"] == n_bins == len(report["clicks"])
        assert report["trials"] == 20000 and report["n_degenerate_qpb"] == 0
        assert abs(report["qpb"]) <= 5 * report["sigma_qpb"], report["qpb"]

    @pytest.mark.parametrize("value", ["1", "0", "-2"])  # one iteration has no spread: zero error bars
    def test_bootstrap_iterations_below_2_exits_2(self, runner, config_file, tmp_path, value):
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n0,0\n1,156000\n0,10000000\n")
        result = runner.invoke(
            main,
            ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json"),
             "--hist-output", str(tmp_path / "g.csv"), "--bootstrap-iterations", value],
        )
        assert result.exit_code == 2, result.output
        assert "--bootstrap-iterations" in result.output
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "g.csv").exists()

    def test_report_independent_of_read_size(self, runner, config_file, tmp_path, monkeypatch):
        """Reads cut lines, ties and gates anywhere; the report and histogram stay the same."""
        run_ok(
            runner,
            # spurs of bin-1 records land on the sync two pulses later
            ["simulate", "--config", config_file, "--source", "coherent:3", "--pulses", "600",
             "--seed", "4", "--rep-period-ps", "4524001",
             "--back-reflection-prob", "0.2", "--reflection-delay-ps", str(2 * 4524001 - 156000),
             "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tmp_path / "t.csv")],
        )
        stream = read_tags_csv(str(tmp_path / "t.csv"))
        sync = stream.channels == 0
        assert np.isin(stream.times_ps[~sync], stream.times_ps[sync]).sum() > 10
        outputs = []
        for bytes_per_read in (cli._TAG_BYTES_PER_READ, 4096, 61, 7):
            monkeypatch.setattr(cli, "_TAG_BYTES_PER_READ", bytes_per_read)
            run_ok(
                runner,
                ["analyze", "--config", config_file, "--tags", str(tmp_path / "t.csv"),
                 "-o", str(tmp_path / "r.json"), "--hist-output", str(tmp_path / "g.csv"),
                 "--bootstrap-iterations", "50"],
            )
            outputs.append(((tmp_path / "r.json").read_bytes(), (tmp_path / "g.csv").read_bytes()))
        assert outputs[1:] == outputs[:1] * 3
        assert outputs[0][1] == (tmp_path / "h.csv").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])  # the bootstrap's Philox key range
    def test_seed_outside_key_range_exits_2(self, runner, config_file, tmp_path, seed):
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n0,0\n1,156000\n0,10000000\n")
        result = runner.invoke(
            main,
            ["analyze", "--config", config_file, "--tags", str(tags),
             "-o", str(tmp_path / "r.json"), "--seed", seed],
        )
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
        assert not (tmp_path / "r.json").exists()

    def test_binomial_witness_reported_when_only_qpb_degenerate(self, runner, tmp_path):
        """Bin 1 fires on every pulse and bin 2 never: q_pb's denominator is 0, q_b's is not."""
        config = tmp_path / "loop.json"
        config.write_text(json.dumps({**_VALID_CONFIG, "n_bins": 2}))
        tags = tmp_path / "t.csv"
        tags.write_text(
            "channel,time_ps\n" + "".join(f"0,{i * 936_000}\n1,{i * 936_000 + 156_000}\n" for i in range(1000))
        )
        run_ok(
            runner,
            ["analyze", "--config", str(config), "--tags", str(tags),
             "-o", str(tmp_path / "r.json"), "--bootstrap-iterations", "50"],
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["clicks"] == [1000, 0]
        assert report["qpb"] is None and report["qb"] == -1.0
        assert "N^2 sigma^2" in report["degenerate_reason"]
        assert report["sigma_qpb"] is None and report["n_degenerate_qpb"] == 50
        assert report["sigma_qb"] == 0.0 and report["n_degenerate_qb"] == 0


_ASCII = st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#")


@st.composite
def malformed_tags(draw):
    """(kind, text) of a tags file broken in one way; ``#`` starts a comment, so none is drawn."""
    kind = draw(st.sampled_from(["header", "cell", "columns", "channel", "unsorted", "no_sync"]))
    n = draw(st.integers(0 if kind == "no_sync" else 2, 6))
    times = sorted(draw(st.lists(st.integers(10_000, 10**9), min_size=n, max_size=n)))
    channels = [0] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 1, max_size=n - 1)) if n else []
    rows = [[str(c), str(t)] for c, t in zip(channels, times)]
    header = "channel,time_ps"
    i = draw(st.integers(1, n - 1)) if n > 1 else 0
    if kind == "header":
        header = draw(st.text(_ASCII, max_size=20).filter(lambda h: h.strip() != "channel,time_ps"))
    elif kind == "cell":
        not_int64 = st.one_of(
            st.text(_ASCII, max_size=8).filter(lambda c: not re.fullmatch(r"\s*[+-]?\d+\s*", c)),
            st.integers(1 << 63, 1 << 80).map(str),
        )
        rows[i][draw(st.integers(0, 1))] = draw(not_int64)
    elif kind == "columns":
        rows[i] = rows[i][:1] if draw(st.booleans()) else rows[i] + ["7"] * draw(st.integers(1, 3))
    elif kind == "channel":
        rows[i][0] = draw(st.sampled_from(["-1", "2", "7", "10"]))
    elif kind == "unsorted":
        rows[i][1] = str(times[i - 1] - draw(st.integers(1, 10_000)))
    else:
        rows = [["1", row[1]] for row in rows]
    return kind, "".join(line + "\n" for line in [header] + [",".join(row) for row in rows])


_VALID_CONFIG = {
    "mode": "passive", "R": 0.5, "eta": 0.9, "nu": 1e-3,
    "n_bins": 25, "loop_delay_ps": 156000, "gate_width_ps": 4000,
}
#: Values outside each checked field's range; NaN fails every range.
_OUT_OF_RANGE = {
    "R": [-0.1, 1.5, 2.0, math.nan], "eta": [-1e-9, 1.0 + 1e-9, math.nan], "nu": [-0.5, 1.0, 3.0],
    "n_bins": [0, -4], "loop_delay_ps": [0, -156000], "gate_width_ps": [0, 156000, 10**6],
    "sigma_R": [-0.01, math.inf], "sigma_eta": [-1.0, math.inf], "sigma_nu": [-1e-9, math.inf],
    "n_max_guard": [-1],
}


@st.composite
def malformed_configs(draw):
    """(kind, text) of a config file broken in one way."""
    kind = draw(st.sampled_from(["syntax", "not_object", "unknown", "missing", "type", "mode", "range"]))
    config = dict(_VALID_CONFIG)
    if kind == "syntax":
        return kind, draw(st.sampled_from(["", "{", "{\"mode\": \"passive\",}", "[1,", "nul", "{'R': 1}"]))
    if kind == "not_object":
        return kind, json.dumps(draw(st.one_of(st.lists(st.integers(), max_size=3), st.text(max_size=5),
                                              st.integers(), st.none())))
    if kind == "unknown":
        config[draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in cli._CONFIG_FIELDS))] = 1
    elif kind == "missing":
        del config[draw(st.sampled_from(sorted(cli._REQUIRED_FIELDS)))]
    elif kind == "type":
        field = draw(st.sampled_from(["R", "eta", "nu", "n_bins", "loop_delay_ps", "sigma_R"]))
        wrong = [True, "1", [1], {"x": 1}] + ([0.5, 130.0] if field in cli._INTEGER_FIELDS else [])
        config[field] = draw(st.sampled_from(wrong))
    elif kind == "mode":
        config["mode"] = draw(st.one_of(st.text(max_size=10).filter(lambda m: m not in ("active", "passive")),
                                        st.integers(), st.none(), st.just(["passive"])))
    else:
        field = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        config[field] = draw(st.sampled_from(_OUT_OF_RANGE[field]))
    return kind, json.dumps(config)


@st.composite
def malformed_histograms(draw):
    """(kind, text) of a histogram file broken in one way."""
    from photonloop.models import ClickHistogram

    trials = draw(st.integers(1, 10**6))
    clicks = draw(st.lists(st.integers(0, trials), min_size=2, max_size=6))
    hist = ClickHistogram.from_clicks(clicks, trials)
    rows = [[j + 1, clicks[j], trials, *(repr(float(x[j])) for x in (hist.p_hat, hist.ci_lo, hist.ci_hi))]
            for j in range(len(clicks))]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["trials", "derived", "clicks", "trials_below_1", "bin"]))
    if kind == "trials":
        rows[i][2] = trials + draw(st.integers(1, 10)) * draw(st.sampled_from([1, -1]))
    elif kind == "derived":
        col = draw(st.integers(3, 5))
        edited = repr(float(rows[i][col]) * 1.001 + 1e-3)
        rows[i][col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", edited]))
    elif kind == "clicks":
        rows[i][1] = draw(st.one_of(st.integers(-(2**70), -1), st.integers(trials + 1, 2**70)))
    elif kind == "trials_below_1":
        below = draw(st.integers(-10, 0))
        rows = [[row[0], 0, below, *row[3:]] for row in rows]
    else:
        rows[i][0] = draw(st.sampled_from([0, -1, len(rows) + 1, i or 2]))  # i repeats the bin above
    lines = ["bin,clicks,trials,p_hat,ci_lo,ci_hi"] + [",".join(map(str, row)) for row in rows]
    return kind, "\n".join(lines) + "\n"


class TestMalformedInputs:
    @pytest.mark.parametrize("value", ["0.9", "nan"])
    def test_inconsistent_histogram_exits_2(self, runner, config_file, tmp_path, value):
        hist = tmp_path / "h.csv"
        run_ok(
            runner,
            ["simulate", "--config", config_file, "--source", "coherent:3",
             "--pulses", "2000", "--seed", "3", "-o", str(hist)],
        )
        lines = hist.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = value  # row 2's p_hat
        lines[2] = ",".join(fields)
        hist.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["fit", "--config", config_file, "--hist", str(hist), "-o", str(tmp_path / "f.json")]
        )
        assert result.exit_code == 2
        assert "row 2" in result.output and "'p_hat'" in result.output
        assert "h.csv" in result.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bin,clicks,trials,p_hat,ci_lo\n1,0,10,0.0,0.0\n", "has no 'ci_hi' column"),
            ("", "has no 'bin' column"),
            ("bin,clicks,trials,p_hat,ci_lo,ci_hi\n", "has no rows"),
        ],
        ids=["column", "empty", "rows"],
    )
    def test_histogram_without_a_column_or_rows_exits_2(self, runner, config_file, tmp_path, text, message):
        hist = tmp_path / "h.csv"
        hist.write_text(text)
        result = runner.invoke(
            main, ["fit", "--config", config_file, "--hist", str(hist), "-o", str(tmp_path / "f.json")]
        )
        assert result.exit_code == 2, result.output
        assert f"histogram file {hist} {message}" in result.output

    def test_non_integer_histogram_cell_exits_2(self, runner, config_file, tmp_path):
        hist = tmp_path / "h.csv"
        run_ok(
            runner,
            ["simulate", "--config", config_file, "--source", "coherent:3",
             "--pulses", "2000", "--seed", "3", "-o", str(hist)],
        )
        lines = hist.read_text().splitlines()
        fields = lines[2].split(",")
        for cell, message in [("3.5", "column 'clicks' is '3.5'"), ("3\udcff5", "is not UTF-8")]:
            fields[1] = cell  # row 2's clicks, on file line 3; \udcff writes the byte 0xff
            lines[2] = ",".join(fields)
            hist.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
            result = runner.invoke(
                main, ["fit", "--config", config_file, "--hist", str(hist), "-o", str(tmp_path / "f.json")]
            )
            assert result.exit_code == 2
            assert "h.csv" in result.output and f"line 3 {message}" in result.output

    @pytest.mark.parametrize(
        "body, line, column",
        [
            ("0,0\n1,156000\n1,x\n", 4, "'time_ps'"),
            ("0,0\n\n2.5,156000\n", 4, "'channel'"),
            ("0,0\n1,99999999999999999999\n", 3, "'time_ps'"),
            ("0,0\n1,156000,7\n", 3, "3 columns"),
            ("0\n1\n", 2, "1 columns"),
            ("0,5\n  \n1,7\n", 3, "1 columns"),
            ("0,5\n  # c\n1,7\n", 3, "1 columns"),
            ("0,5\n125\n", 3, "1 columns"),  # the length of the line before, a digit where its comma stood
            ("0,0\n1,15\udcff6000\n", 3, "not UTF-8"),
        ],
    )
    def test_non_integer_tag_cell_exits_2(self, runner, config_file, tmp_path, body, line, column):
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n" + body, encoding="utf-8", errors="surrogateescape")  # \udcff: byte 0xff
        result = runner.invoke(
            main, ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2
        assert "t.csv" in result.output and f"line {line}" in result.output
        assert column in result.output

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({120_000: "1,5"}, "time_ps on line 120001 is earlier"),
            ({130_000: "7,130000000"}, "unknown channel 7 on line 130001"),
            ({140_000: "1,x"}, "line 140001 column 'time_ps' is 'x', not an integer"),
            # an unknown channel anywhere is named before an earlier record out of order
            ({2_000: "1,5", 140_000: "9,140000000"}, "unknown channel 9 on line 140001"),
            # a bad cell anywhere is named before an earlier unknown channel
            (
                {2_000: "1,5", 100_000: "9,100000000", 140_000: "1,1.5"},
                "line 140001 column 'time_ps' is '1.5'",
            ),
            # another form past the first read: np.loadtxt reads it from the top
            ({2_000: "1,5", 140_000: "1, 140000000"}, "time_ps on line 2001 is earlier"),
        ],
        ids=["unsorted", "channel", "cell", "channel-after-unsorted", "cell-after-both", "late-other-form"],
    )
    def test_errors_past_the_first_read_name_their_line(self, runner, config_file, tmp_path, edits, message):
        lines = ["channel,time_ps"] + [f"{i % 2},{1000 * i}" for i in range(150_000)]
        for line, text in edits.items():
            lines[line] = text
        tags = tmp_path / "t.csv"
        tags.write_text("\n".join(lines) + "\n")
        assert tags.stat().st_size > cli._TAG_BYTES_PER_READ
        result = runner.invoke(
            main, ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, result.output
        assert f"tags file {tags}: {message}" in result.output
        with pytest.raises(ValueError, match=re.escape(message)):
            read_tags_csv(str(tags))

    @pytest.mark.parametrize(
        "args, named",
        [
            (["analyze", "--config", "{config}", "--tags", "{dir}", "-o", "{tmp}/r.json"], "{dir}"),
            (["fit", "--config", "{dir}", "--hist", "{config}", "-o", "{tmp}/f.json"], "{dir}"),
            (["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10", "-o", "{dir}"], "{dir}"),
            (
                ["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10",
                 "-o", "{tmp}/missing/h.csv"],
                "{tmp}/missing/h.csv",
            ),
            (
                ["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10",
                 "-o", "{dir}", "--emit-tags", "{tmp}/tt.csv"],
                "{dir}",
            ),
            (
                ["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10",
                 "-o", "{tmp}/h.csv", "--emit-tags", "{tmp}/missing/tt.csv"],
                "{tmp}/missing/tt.csv",
            ),
            (
                ["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10",
                 "-o", "{tmp}/missing/h.csv", "--emit-tags", "{tmp}/tt.csv"],
                "{tmp}/missing/h.csv",
            ),
            (
                ["analyze", "--config", "{config}", "--tags", "{tmp}/t.csv", "-o", "{dir}",
                 "--hist-output", "{tmp}/g.csv"],
                "{dir}",
            ),
            (
                ["analyze", "--config", "{config}", "--tags", "{tmp}/t.csv", "-o", "{tmp}/missing/r.json",
                 "--hist-output", "{tmp}/g.csv", "--bootstrap-iterations", "10"],
                "{tmp}/missing/r.json",
            ),
            (
                ["analyze", "--config", "{config}", "--tags", "{tmp}/t.csv", "-o", "{tmp}/r.json",
                 "--hist-output", "{dir}"],
                "{dir}",
            ),
            (["fit", "--config", "{config}", "--hist", "{tmp}/h0.csv", "-o", "{dir}"], "{dir}"),
            (
                ["calibrate", "--config", "{config}", "--bright", "{tmp}/h0.csv",
                 "--attenuated", "{tmp}/h0.csv", "-o", "{tmp}/missing/c.json"],
                "{tmp}/missing/c.json",
            ),
            # two outputs naming one file: one of them would be lost
            (
                ["simulate", "--config", "{config}", "--source", "coherent:1", "--pulses", "10",
                 "-o", "{tmp}/same.csv", "--emit-tags", "{tmp}/same.csv"],
                "outputs {tmp}/same.csv and {tmp}/same.csv are one file",
            ),
            (
                ["analyze", "--config", "{config}", "--tags", "{tmp}/t.csv", "-o", "{tmp}/r.json",
                 "--hist-output", "{tmp}/r.json", "--bootstrap-iterations", "10"],
                "outputs {tmp}/r.json and {tmp}/r.json are one file",
            ),
            (
                ["analyze", "--config", "{config}", "--tags", "{tmp}/t.csv", "-o", "{tmp}/r.json",
                 "--hist-output", "{dir}/../r.json", "--bootstrap-iterations", "10"],
                "outputs {tmp}/r.json and {dir}/../r.json are one file",
            ),
        ],
        ids=[
            "analyze-tags-dir", "fit-config-dir", "simulate-output-dir", "simulate-output-no-parent",
            "simulate-output-dir-with-tags", "simulate-tags-no-parent", "simulate-output-no-parent-with-tags",
            "analyze-output-dir", "analyze-output-no-parent", "analyze-hist-output-dir", "fit-output-dir",
            "calibrate-output-no-parent", "simulate-output-is-tags", "analyze-output-is-hist-output",
            "analyze-output-is-hist-output-spelt-otherwise",
        ],
    )
    def test_unusable_path_exits_2_naming_it(self, runner, config_file, tmp_path, args, named):
        """Exit 2, naming the path as given (not a temporary one), and leave no output behind."""
        (tmp_path / "d").mkdir()
        (tmp_path / "t.csv").write_text("channel,time_ps\n0,0\n1,156000\n0,10000000\n")
        sim = simulator.simulate_ensemble(
            cli.load_loop_config(config_file), Coherent(2.0), simulator.SimOptions(n_pulses=20000, seed=1)
        )
        cli.write_histogram_csv(sim.histogram, str(tmp_path / "h0.csv"))
        inputs = sorted(p.name for p in tmp_path.iterdir())
        fill = lambda text: text.format(config=config_file, dir=tmp_path / "d", tmp=tmp_path)
        result = runner.invoke(main, [fill(arg) for arg in args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert fill(named) in result.output
        assert ".part" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        assert not any((tmp_path / "d").iterdir())

    def test_unknown_tag_channel_exits_2(self, runner, config_file, tmp_path):
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n0,0\n1,156000\n7,312000\n")
        result = runner.invoke(
            main, ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2
        assert "channel 7" in result.output and "line 4" in result.output

    @pytest.mark.parametrize("body", ["", "1,156000\n1,312000\n"], ids=["header-only", "detector-only"])
    def test_no_sync_record_exits_2(self, runner, config_file, tmp_path, body):
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n" + body)
        result = runner.invoke(
            main, ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2
        assert "t.csv" in result.output and "no sync" in result.output

    @given(malformed=malformed_tags())
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # files are rewritten per example
    )
    def test_malformed_tags_exit_2_naming_file(self, runner, config_file, tmp_path, malformed):
        """Also with reads so small that the malformation lies after the first chunk."""
        kind, text = malformed
        tags = tmp_path / "t.csv"
        tags.write_text(text)
        args = ["analyze", "--config", config_file, "--tags", str(tags), "-o", str(tmp_path / "r.json")]
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit), (kind, text, result.exception)
        assert result.exit_code == 2, (kind, text, result.output)
        assert str(tags) in result.output, (kind, text, result.output)
        for bytes_per_read in (1, 7, 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_TAG_BYTES_PER_READ", bytes_per_read)
                chunked = runner.invoke(main, args)
            assert (chunked.exit_code, chunked.output) == (2, result.output), (kind, text, bytes_per_read)

    @given(malformed=malformed_configs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_config_exits_2_naming_file(self, runner, tmp_path, malformed):
        kind, text = malformed
        config = tmp_path / "loop.json"
        config.write_text(text)
        result = runner.invoke(
            main,
            ["simulate", "--config", str(config), "--source", "coherent:3",
             "--pulses", "10", "-o", str(tmp_path / "h.csv")],
        )
        assert isinstance(result.exception, SystemExit), (kind, text, result.exception)
        assert result.exit_code == 2, (kind, text, result.output)
        assert str(config) in result.output, (kind, text, result.output)

    @given(malformed=malformed_histograms())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_histogram_exits_2_naming_file(self, runner, config_file, tmp_path, malformed):
        kind, text = malformed
        hist = tmp_path / "h.csv"
        hist.write_text(text)
        result = runner.invoke(main, ["fit", "--config", config_file, "--hist", str(hist), "-o", str(tmp_path / "f.json")])
        assert isinstance(result.exception, SystemExit), (kind, text, result.exception)
        assert result.exit_code == 2, (kind, text, result.output)
        assert str(hist) in result.output, (kind, text, result.output)


class TestFitCommand:
    def test_fit_report(self, runner, tmp_path):
        cfg_path = tmp_path / "loop.json"
        cfg_path.write_text(
            json.dumps({"mode": "passive", "R": 0.91370, "eta": 0.8615,
                        "nu": 1.2e-7, "n_bins": 130})
        )
        run_ok(
            runner,
            ["simulate", "--config", str(cfg_path), "--source", "coherent:2",
             "--pulses", "300000", "--seed", "3", "-o", str(tmp_path / "h.csv")],
        )
        run_ok(
            runner,
            ["fit", "--config", str(cfg_path), "--hist", str(tmp_path / "h.csv"),
             "-o", str(tmp_path / "fit.json")],
        )
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["identifiable"] is True
        assert abs(fit["R_hat"] - 0.91370) < 0.005
        assert abs(fit["eta_hat"] - 0.8615) < 0.01
        assert "starts_converged" not in fit and "start_cost_spread" not in fit

    @pytest.mark.parametrize(
        "mode, n_bins, exit_code",
        [("passive", 1, 2), ("passive", 2, 2), ("active", 1, 2), ("passive", 3, 0), ("active", 2, 0)],
    )
    def test_fewer_bins_than_parameters_exits_2(self, runner, tmp_path, mode, n_bins, exit_code):
        cfg_path, hist, out = tmp_path / "loop.json", str(tmp_path / "h.csv"), tmp_path / "fit.json"
        cfg_path.write_text(
            json.dumps({"mode": mode, "R": 0.5, "eta": 0.9, "nu": 1e-4, "n_bins": n_bins})
        )
        run_ok(
            runner,
            ["simulate", "--config", str(cfg_path), "--source", "coherent:2",
             "--pulses", "100000", "--seed", "5", "-o", hist],
        )
        result = runner.invoke(main, ["fit", "--config", str(cfg_path), "--hist", hist, "-o", str(out)])
        assert result.exit_code == exit_code, result.output
        if exit_code == 2:
            n_params = 3 if mode == "passive" else 2
            assert f"{n_params} parameters" in result.output
            assert f"the histogram has {n_bins}" in result.output
        else:  # exactly determined: still fitted, near the truth
            fit = strict_json(out)  # strict: an active fit's NaN per-parameter fields read as null
            assert fit["dof"] == 0
            assert abs(fit["r_eta_hat"] - 0.45) < 0.02


class TestCalibrateCommand:
    def _setup(self, runner, tmp_path):
        cfg_path = tmp_path / "loop.json"
        cfg_path.write_text(
            json.dumps({"mode": "passive", "R": 0.91370, "eta": 0.8615,
                        "nu": 1.2e-7, "n_bins": 130})
        )
        cfg = LoopConfig(mode="passive", R=0.91370, eta=0.8615, nu=1.2e-7)
        nbar_in = analytic.invert_total_output(cfg, 208_011.0)
        run_ok(
            runner,
            ["simulate", "--config", str(cfg_path), "--source", f"coherent:{nbar_in}",
             "--pulses", "200000", "--seed", "41", "-o", str(tmp_path / "bright.csv")],
        )
        run_ok(
            runner,
            ["simulate", "--config", str(cfg_path), "--source", "coherent:4.5",
             "--pulses", "200000", "--seed", "42", "-o", str(tmp_path / "atten.csv")],
        )
        return cfg_path

    @pytest.fixture(scope="class")
    def calibrate_args(self, tmp_path_factory):
        """``calibrate`` arguments without a power reading, over one simulated pair of runs."""
        tmp_path = tmp_path_factory.mktemp("calibrate")
        cfg_path = self._setup(CliRunner(), tmp_path)
        return ["calibrate", "--config", str(cfg_path),
                "--bright", str(tmp_path / "bright.csv"),
                "--attenuated", str(tmp_path / "atten.csv"),
                "-o", str(tmp_path / "cal.json")]

    @pytest.mark.parametrize(
        "given, missing",
        [
            (["--power", "1.61e-9", "--rep-rate", "50e3"], "--wavelength"),
            (["--power", "1.61e-9"], "--rep-rate and --wavelength"),
            (["--rep-rate", "50e3", "--wavelength", "1550e-9"], "--power"),
        ],
        ids=["no-wavelength", "power-only", "no-power"],
    )
    def test_partial_power_reading_exits_2(self, runner, calibrate_args, given, missing):
        result = runner.invoke(main, calibrate_args + given)
        assert result.exit_code == 2, result.output
        assert f"{missing} missing" in result.output

    @pytest.mark.parametrize("flag, value", [("--sigma-power", "1e-10"), ("--n-dark", "1e9")],
                             ids=["sigma-power", "n-dark"])
    def test_sigma_power_without_power_exits_2(self, runner, calibrate_args, flag, value):
        """Both act only on the efficiency, which needs a power reading: without one they exit 2."""
        result = runner.invoke(main, calibrate_args + [flag, value])
        assert result.exit_code == 2, result.output
        assert f"{flag} needs --power" in result.output

    @pytest.mark.parametrize("sigma_power", ["-1e-13", "nan", "inf"])
    def test_bad_sigma_power_exits_2(self, runner, calibrate_args, sigma_power):
        reading = ["--power", "1e-12", "--rep-rate", "5e4", "--wavelength", "1550e-9"]
        result = runner.invoke(main, calibrate_args + reading + ["--sigma-power", sigma_power])
        assert result.exit_code == 2, result.output
        assert "--sigma-power must be a finite non-negative number" in result.output

    @pytest.mark.parametrize("n_dark", ["-5", "nan", "inf"])
    def test_bad_n_dark_exits_2(self, runner, calibrate_args, n_dark):
        result = runner.invoke(main, calibrate_args + ["--n-dark", n_dark])
        assert result.exit_code == 2, result.output
        assert "--n-dark must be a finite non-negative number" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--power", "--rep-rate", "--wavelength"])
    def test_non_finite_power_reading_exits_2(self, runner, calibrate_args, flag, value):
        """Each reading must be finite and positive, and the message names its flag."""
        reading = {"--power": "1e-12", "--rep-rate": "5e4", "--wavelength": "1550e-9", flag: value}
        result = runner.invoke(main, calibrate_args + [arg for pair in reading.items() for arg in pair])
        assert result.exit_code == 2, result.output
        assert f"{flag} must be a finite positive number, got {float(value)}" in result.output
        assert "Traceback" not in result.output

    def test_report_has_no_start_statistics(self, runner, calibrate_args):
        run_ok(runner, calibrate_args)
        report = json.loads(Path(calibrate_args[-1]).read_text())
        assert "starts_converged" not in report and "start_cost_spread" not in report

    def test_report_carries_the_whole_fit(self, runner, calibrate_args, tmp_path):
        """For the same attenuated histogram, the fit fields of calibrate equal the fit report's."""
        config, atten = calibrate_args[2], calibrate_args[6]
        run_ok(runner, ["fit", "--config", config, "--hist", atten, "-o", str(tmp_path / "fit.json")])
        run_ok(runner, calibrate_args)
        fit, report = strict_json(tmp_path / "fit.json"), strict_json(calibrate_args[-1])
        fields = [key for key in fit if key not in ("schema_version", "config")]
        assert fields == [field.name for field in dataclasses.fields(FitResult)]
        assert [key for key in report if key in fields] == fields
        assert {key: report[key] for key in fields} == {key: fit[key] for key in fields}
        assert report["dof"] == 127 and report["residual_norm"] > 0

    @pytest.mark.parametrize("j_min", [0, 131, 500])
    def test_j_min_outside_bins_exits_2(self, runner, calibrate_args, j_min):
        result = runner.invoke(main, calibrate_args + ["--j-min", str(j_min)])
        assert result.exit_code == 2, result.output
        assert f"j_min must lie in 1..130, got {j_min}" in result.output

    def test_full_report(self, runner, tmp_path):
        cfg_path = self._setup(runner, tmp_path)
        run_ok(
            runner,
            ["calibrate", "--config", str(cfg_path),
             "--bright", str(tmp_path / "bright.csv"),
             "--attenuated", str(tmp_path / "atten.csv"),
             "--power", "1.61e-9", "--rep-rate", "50e3", "--wavelength", "1550e-9",
             "--sigma-power", "0.08e-9",
             "-o", str(tmp_path / "cal.json")],
        )
        report = strict_json(tmp_path / "cal.json")
        # fit noise at this small pulse count dominates (amplified per bin);
        # the precision target lives in the acceptance suite
        assert abs(report["n_measured"] - 208_011) / 208_011 < 0.12
        assert 0.70 < report["sde"] < 0.95
        assert abs(report["dynamic_range_db"] - 123.2) < 0.2
        assert report["per_bin"][0]["included"] is False
        assert any(row["included"] for row in report["per_bin"])

    def test_missing_power_omits_sde(self, runner, tmp_path):
        cfg_path = self._setup(runner, tmp_path)
        run_ok(
            runner,
            ["calibrate", "--config", str(cfg_path),
             "--bright", str(tmp_path / "bright.csv"),
             "--attenuated", str(tmp_path / "atten.csv"),
             "-o", str(tmp_path / "cal.json")],
        )
        report = json.loads((tmp_path / "cal.json").read_text())
        assert report["sde"] is None
        assert report["n_measured"] > 0

    def test_saturated_attenuated_run_fails_with_hint(self, runner, tmp_path):
        cfg_path = self._setup(runner, tmp_path)
        result = runner.invoke(
            main,
            ["calibrate", "--config", str(cfg_path),
             "--bright", str(tmp_path / "bright.csv"),
             "--attenuated", str(tmp_path / "bright.csv"),
             "-o", str(tmp_path / "cal.json")],
        )
        assert result.exit_code == 3
        assert "attenuate" in result.output.lower()


#: 0, the int64 extremes and the neighbours of every power of ten that fits, with both signs.
_INT64_EDGES = sorted(
    {0, 2**63 - 1, -(2**63)}
    | {sign * (10**k + d) for k in range(19) for d in (-1, 0, 1) for sign in (1, -1)}
)

#: One record per value of ``_INT64_EDGES``, on sync and detector channels in turn.
_EDGE_STREAM = TimeTagStream(channels=np.arange(len(_INT64_EDGES)) % 2, times_ps=_INT64_EDGES)


@st.composite
def sorted_int64_streams(draw, max_abs=2**63):
    """Sorted int64 streams on sync and detector channels, the only ones a stream holds.

    Times lie in [-max_abs, max_abs], clipped to int64.
    """
    high = min(max_abs, 2**63 - 1)
    value = st.one_of(st.integers(-max_abs, high), st.sampled_from([v for v in _INT64_EDGES if -max_abs <= v <= high]))
    times = sorted(draw(st.lists(value, max_size=40)))
    channels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(times), max_size=len(times)))
    return TimeTagStream(channels=channels, times_ps=times)


class TestTagsCsvRoundTrip:
    def test_write_read_identity(self, tmp_path, splitter_half_config):
        from photonloop import SimOptions, simulator

        stream = simulator.emit_time_tags(
            splitter_half_config,
            Coherent(3.0),
            SimOptions(n_pulses=200, seed=5),
            200 * splitter_half_config.loop_delay_ps,
        )
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        back = read_tags_csv(str(path))
        np.testing.assert_array_equal(back.channels, stream.channels)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    def test_empty_stream_round_trip(self, tmp_path, splitter_half_config):
        from photonloop import SimOptions, simulator

        stream = simulator.emit_time_tags(
            splitter_half_config,
            Coherent(3.0),
            SimOptions(n_pulses=0, seed=5),
            200 * splitter_half_config.loop_delay_ps,
        )
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        assert read_tags_csv(str(path)).n_records == 0

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"])
    def test_empty_file_reads_without_warning(self, tmp_path, body):
        path = tmp_path / "tags.csv"
        path.write_text("channel,time_ps\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = read_tags_csv(str(path))
        assert stream.n_records == 0
        write_tags_csv(stream, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_text() == "channel,time_ps\n"

    @pytest.mark.parametrize("n_records", [70_000, 0])
    def test_writer_matches_savetxt(self, tmp_path, n_records):
        rng = np.random.default_rng(17)
        stream = TimeTagStream(
            channels=rng.integers(0, 2, n_records),
            times_ps=np.sort(rng.integers(0, 1 << 62, n_records)),
        )
        write_tags_csv(stream, str(tmp_path / "fast.csv"))
        np.savetxt(
            tmp_path / "ref.csv", np.column_stack([stream.channels, stream.times_ps]),
            fmt="%d", delimiter=",", header="channel,time_ps", comments="",
        )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @given(
        stream=sorted_int64_streams(),
        rows_per_write=st.sampled_from([1, 2, 3, 7, cli._TAG_ROWS_PER_WRITE]),
    )
    # every width edge of the times in one stream
    @example(stream=_EDGE_STREAM, rows_per_write=cli._TAG_ROWS_PER_WRITE)
    @example(stream=_EDGE_STREAM, rows_per_write=7)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # files are rewritten per example
    )
    def test_writer_matches_per_row_format(self, tmp_path, stream, rows_per_write):
        """Byte for byte the per-row format; small chunks make short streams cross chunk edges."""
        path = tmp_path / "tags.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_TAG_ROWS_PER_WRITE", rows_per_write)
            write_tags_csv(stream, str(path))
        rows = zip(stream.channels.tolist(), stream.times_ps.tolist())
        want = "channel,time_ps\n" + "".join(f"{c},{t}\n" for c, t in rows)
        assert path.read_bytes() == want.encode()
        back = read_tags_csv(str(path))
        np.testing.assert_array_equal(back.channels, stream.channels)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    @given(
        stream=sorted_int64_streams(max_abs=10**18 - 1),
        zeros=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        bytes_per_read=st.sampled_from([1, 5, 16, cli._TAG_BYTES_PER_READ]),
    )
    # the second row at the first line's stride lines up its newline, comma and '-', but holds a
    # newline and a comma among its digits: that row ends the run, the read still decodes
    @example(stream=TimeTagStream(channels=[0] * 6, times_ps=[-(10**17 - 1), -1, 0, 0, 0, 0]),
             zeros=[0], bytes_per_read=cli._TAG_BYTES_PER_READ)
    # padded "001,005" then "0,12345": one length, another comma column
    @example(stream=TimeTagStream(channels=[1, 0], times_ps=[5, 12345]),
             zeros=[2, 0], bytes_per_read=cli._TAG_BYTES_PER_READ)
    # "0,-5", "1,-3", then "0,12", "1,14": one length, the sign changes inside the run
    @example(stream=TimeTagStream(channels=[0, 1, 0, 1], times_ps=[-5, -3, 12, 14]),
             zeros=[0], bytes_per_read=cli._TAG_BYTES_PER_READ)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # files are rewritten per example
    )
    def test_writer_files_read_without_loadtxt(self, tmp_path, stream, zeros, bytes_per_read):
        """A file in the writer's form never reaches np.loadtxt, so no fallback hides a lost speed-up.

        Leading zeros, up to 18 digits a cell, keep that form, and multi-digit channels with it.
        """
        path, padded = tmp_path / "tags.csv", tmp_path / "padded.csv"
        write_tags_csv(stream, str(path))
        cell = lambda v, z: ("-" if v < 0 else "") + str(abs(v)).zfill(min(18, len(str(abs(v))) + z))
        rows = zip(stream.channels.tolist(), stream.times_ps.tolist(), itertools.cycle(zeros))
        padded.write_text("channel,time_ps\n" + "".join(f"{cell(c, z)},{cell(t, z)}\n" for c, t, z in rows))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "loadtxt", _no_loadtxt)
            mp.setattr(cli, "_TAG_BYTES_PER_READ", bytes_per_read)
            for back in (read_tags_csv(str(path)), read_tags_csv(str(padded))):
                np.testing.assert_array_equal(back.channels, stream.channels)
                np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    def test_simulated_first_read_decodes_without_loadtxt(self, runner, tmp_path, monkeypatch):
        """The first read of a simulated file holds several short runs; it decodes all the same."""
        loop = {"mode": "passive", "R": 0.5, "eta": 0.9, "nu": 1e-4, "n_bins": 40}
        (tmp_path / "loop.json").write_text(json.dumps(loop))
        config, tags, rep = LoopConfig(**loop), tmp_path / "t.csv", 44 * 156000
        run_ok(runner, ["simulate", "--config", str(tmp_path / "loop.json"), "--source", "coherent:2",
                        "--pulses", "20000", "--seed", "1", "--rep-period-ps", str(rep),
                        "-o", str(tmp_path / "h.csv"), "--emit-tags", str(tags)])
        first_read = tags.read_bytes()[len("channel,time_ps\n") :][: cli._TAG_BYTES_PER_READ]
        lengths = [len(line) for line in first_read.split(b"\n")[:-1]]
        assert sum(a != b for a, b in zip(lengths, lengths[1:])) >= 6  # 7 or more runs
        stream = simulator.emit_time_tags(config, Coherent(2.0), photonloop.SimOptions(n_pulses=20000, seed=1), rep)
        monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
        back = read_tags_csv(str(tags))
        np.testing.assert_array_equal(back.channels, stream.channels)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    def test_large_writer_file_reads_without_loadtxt(self, tmp_path, monkeypatch):
        """About 1.6 MB of 18-digit times: lines straddle the real chunk edges."""
        rng = np.random.default_rng(23)
        n = 90_000
        stream = TimeTagStream(
            channels=rng.integers(0, 2, n), times_ps=np.sort(rng.integers(-(10**17), 10**18, n))
        )
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        assert path.stat().st_size > cli._TAG_BYTES_PER_READ
        monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
        back = read_tags_csv(str(path))
        np.testing.assert_array_equal(back.channels, stream.channels)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    @given(
        stream=sorted_int64_streams(),
        decorated=st.data(),
        bytes_per_read=st.sampled_from([1, 5, 16, cli._TAG_BYTES_PER_READ]),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # files are rewritten per example
    )
    def test_decorated_files_read_alike(self, tmp_path, stream, decorated, bytes_per_read):
        """Every form np.loadtxt accepts reads to the arrays of the writer's form."""
        canonical, variant = tmp_path / "canonical.csv", tmp_path / "variant.csv"
        write_tags_csv(stream, str(canonical))
        variant.write_bytes(decorated.draw(decorated_tags(stream)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_TAG_BYTES_PER_READ", bytes_per_read)
            for path in (canonical, variant):
                back = read_tags_csv(str(path))
                np.testing.assert_array_equal(back.channels, stream.channels)
                np.testing.assert_array_equal(back.times_ps, stream.times_ps)

    def test_widths_changing_every_line_go_to_loadtxt(self, tmp_path, monkeypatch):
        """Leading zeros on every other line: one run per line would not pay, np.loadtxt reads it."""
        n = 3000
        times = np.arange(n) * 1000
        path = tmp_path / "tags.csv"
        path.write_text("channel,time_ps\n" + "".join(f"{i % 2},{t:0{5 + i % 2}d}\n" for i, t in enumerate(times)))
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        back = read_tags_csv(str(path))
        assert calls == [1]
        np.testing.assert_array_equal(back.channels, np.arange(n) % 2)
        np.testing.assert_array_equal(back.times_ps, times)

    def test_a_file_changing_form_is_read_once(self, tmp_path, monkeypatch):
        """Spaces after a comma well past the first read: what was decoded stays, no byte is read twice."""
        n, bytes_per_read = 2000, 64
        lines = [b"%d,%d\n" % (i % 2, 1000 * i) for i in range(n)]
        lines[n // 2] = b"%d, %d\n" % (n // 2 % 2, 1000 * (n // 2))
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,time_ps\n" + b"".join(lines))
        reads, parsed = [], []

        class Counted(io.FileIO):
            def readinto(self, buffer):
                start, n_read = self.tell(), super().readinto(buffer)
                reads.append((start, n_read))
                return n_read

        def counted_open(p, mode="r", **kwargs):
            fh = io.BufferedReader(Counted(p))
            return fh if mode == "rb" else io.TextIOWrapper(fh, **kwargs)

        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda lines, **k: parsed.append(len(lines)) or loadtxt(lines, **k))
        monkeypatch.setattr(cli, "_TAG_BYTES_PER_READ", bytes_per_read)
        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        back = read_tags_csv(str(path))
        np.testing.assert_array_equal(back.channels, np.arange(n) % 2)
        np.testing.assert_array_equal(back.times_ps, 1000 * np.arange(n))
        times_read = np.zeros(path.stat().st_size, dtype=int)
        for start, n_read in reads:
            times_read[start : start + n_read] += 1
        assert (times_read == 1).all()
        # the writer's decoder kept every record before the read that showed spaces
        assert n // 2 - bytes_per_read < n - sum(parsed) <= n // 2


class TestBoundedMemory:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_tag_path_memory_does_not_grow_with_pulses(self, runner, config_file, tmp_path, newline):
        """simulate --emit-tags plus analyze at 10x the pulses peaks within 1.5x of 1x.

        At 1x the tags file already spans several reads and blocks; a path
        holding whole streams would peak about 7x higher at 10x. CRLF line
        ends take the batched ``np.loadtxt`` path from the first read on.
        """
        tags, cfg = str(tmp_path / "t.csv"), ["--config", config_file]

        def peak(pulses):
            tracemalloc.reset_peak()
            run_ok(runner, ["simulate", *cfg, "--source", "coherent:2", "--pulses", str(pulses),
                            "-o", str(tmp_path / "h.csv"), "--emit-tags", tags])
            with open(tags, "rb") as src, open(tmp_path / "e.csv", "wb") as dst:
                for chunk in iter(lambda: src.read(1 << 20), b""):
                    dst.write(chunk.replace(b"\n", newline))
            run_ok(runner, ["analyze", *cfg, "--tags", str(tmp_path / "e.csv"), "-o", str(tmp_path / "r.json"),
                            "--bootstrap-iterations", "100"])
            return tracemalloc.get_traced_memory()[1]

        pulses = 4 * simulator.BLOCK_SIZE
        tracemalloc.start()
        try:
            small, large = peak(pulses), peak(10 * pulses)
        finally:
            tracemalloc.stop()
        assert os.path.getsize(tags) > 10 * cli._TAG_BYTES_PER_READ
        assert large <= 1.5 * small, (small, large)


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called")


@st.composite
def decorated_tags(draw, stream):
    """A tags file of ``stream`` in a form np.loadtxt reads but the writer never writes."""
    kinds = draw(st.sets(st.sampled_from(
        ["crlf", "blank", "comment", "space", "plus", "zeros", "nineteen", "no_final_newline"]
    ), min_size=1))
    rows = stream.n_records
    picked = lambda: draw(st.lists(st.booleans(), min_size=rows, max_size=rows))

    def cells(values, zeros, nineteen, plus, space):
        out = []
        for v, z, w, p, s in zip(values.tolist(), zeros, nineteen, plus, space):
            digits = str(abs(v)).zfill(19 if w else len(str(abs(v))) + z)
            cell = ("-" if v < 0 else "+" if p else "") + digits
            out.append(f" {cell} " if s else cell)
        return out

    none = [False] * rows
    zeros = [draw(st.integers(0, 3)) if "zeros" in kinds else 0 for _ in range(rows)]
    nineteen = picked() if "nineteen" in kinds else none
    plus = picked() if "plus" in kinds else none
    space = picked() if "space" in kinds else none
    lines = [
        f"{c},{t}" for c, t in zip(
            cells(stream.channels, zeros, none, plus, space), cells(stream.times_ps, zeros, nineteen, plus, space)
        )
    ]
    if "comment" in kinds:
        lines = [line + " # note, 12" if flag else line for line, flag in zip(lines, picked())]
        lines.insert(draw(st.integers(0, rows)), "# a comment line, 0,1")
    if "blank" in kinds:
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = "\r\n" if "crlf" in kinds else "\n"
    text = end.join(["channel,time_ps", *lines]) + end
    if "no_final_newline" in kinds and lines:
        text = text[: -len(end)]
    return text.encode()


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this photonloop."""
    src = str(Path(photonloop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestColdStart:
    def test_import_loads_no_scipy(self):
        proc = _run_python(
            "import sys, photonloop.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        """concurrent.futures, and the logging it imports, load only when a run asks for workers."""
        proc = _run_python(
            "import sys, photonloop.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_simulate_and_analyze_run_without_scipy(self, config_file, tmp_path):
        """simulate, analyze, fit and calibrate all run with scipy unimportable."""
        hist, tagged, tags, report, fit, bright, cal = (
            str(tmp_path / n) for n in ("h.csv", "g.csv", "t.csv", "r.json", "f.json", "b.csv", "c.json")
        )
        cfg = ["--config", config_file]
        sim = ["simulate", *cfg, "--source", "coherent:3", "--pulses", "2000"]
        commands = [
            sim + ["-o", hist],
            sim + ["-o", tagged, "--emit-tags", tags],
            ["analyze", *cfg, "--tags", tags, "-o", report, "--bootstrap-iterations", "100"],
            ["simulate", *cfg, "--source", "coherent:2", "--pulses", "200000", "-o", hist],
            ["fit", *cfg, "--hist", hist, "-o", fit],
            ["simulate", *cfg, "--source", "coherent:5000", "--pulses", "20000", "-o", bright],
            ["calibrate", *cfg, "--bright", bright, "--attenuated", hist, "-o", cal,
             "--power", "1e-12", "--rep-rate", "5e4", "--wavelength", "1550e-9"],
        ]
        proc = _run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from photonloop.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code)\n",
            json.dumps(commands),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * len(commands), proc.stderr
