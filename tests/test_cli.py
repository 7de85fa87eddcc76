import json

import numpy as np
import pytest
from click.testing import CliRunner

from photonloop import analytic, Coherent, LoopConfig
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
        assert report["schema_version"] == 1
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
        assert result.exit_code == 3
        assert "2" in result.output


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
        report = json.loads((tmp_path / "cal.json").read_text())
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
