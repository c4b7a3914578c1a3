"""End-to-end tests of the command-line runner.

These drive entsense.cli.main directly (no subprocess) so failures
carry tracebacks; one test exercises the installed console script.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entsense import __version__, simulator
from entsense.cli import analytic_calibration, main
from entsense.config import PRESET_NAMES, load_preset, parse_config
from entsense.errors import ConfigurationError
from entsense.events import INFORMATIVE_PATTERNS
from entsense.model import (
    EfficiencyBudget,
    SourceParams,
    pattern_distribution,
)
from entsense.simulator import read_event_log
from log_digests import DIGEST_FILE, UNLOGGED_RUNS, logged_runs, run_digests


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def small_source():
    return {"mu": 0.056, "visibility": 0.9804, "n_max": 4}


def small_efficiency():
    return {"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}


def fringe_doc(pulses=100_000, points=9, analytic=False):
    doc = {
        "source": small_source(),
        "efficiency": small_efficiency(),
        "scan": {"points": points, "pulses_per_point": pulses},
        "seed": 4202,
    }
    if analytic:
        doc["scan"]["analytic"] = True
    return doc


def blocks_doc(k_bar=500, s=40, num_phases=2):
    return {
        "source": {"mu": 0.001, "visibility": 1.0, "n_max": 3},
        "efficiency": {"uniform": 1.0},
        "blocks": {"k_bar": k_bar, "s": s, "num_phases": num_phases},
        "seed": 42,
    }


class TestArgumentHandling:
    def test_no_subcommand_exits_nonzero(self):
        assert main([]) != 0

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_config_and_preset_together_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", fringe_doc())
        code = main(["fringe", "--config", cfg, "--preset", "ideal",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "exactly one of --config or --preset" in capsys.readouterr().err

    def test_neither_config_nor_preset_rejected(self, tmp_path, capsys):
        code = main(["fringe", "--out", str(tmp_path)])
        assert code == 2
        assert "exactly one of --config or --preset" in capsys.readouterr().err

    def test_unknown_preset_lists_options(self, tmp_path, capsys):
        code = main(["fringe", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        for name in PRESET_NAMES:
            assert name in err

    def test_trials_without_blocks_section_rejected(self, tmp_path, capsys):
        doc = blocks_doc()
        del doc["blocks"]
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["random-phase", "--config", cfg, "--trials", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config key blocks" in err and "--trials" in err

    @pytest.mark.parametrize("flag, owner", [("--workers", "fringe"),
                                             ("--trials", "random-phase")])
    def test_flag_only_on_subcommand_that_reads_it(self, tmp_path, capsys,
                                                   flag, owner):
        for sub in ("fringe", "precision", "threshold-scan", "random-phase",
                    "audit"):
            if sub == owner:
                continue
            log = ["--log", "events.csv"] if sub == "audit" else []
            code = main([sub, "--preset", "ideal", flag, "3", *log,
                         "--out", str(tmp_path)])
            assert code == 2
            assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_console_script_version(self):
        out = subprocess.run(["entsense", "--version"], capture_output=True,
                             text=True, check=True)
        assert __version__ in out.stdout

    def test_import_loads_no_scipy(self):
        # scipy is a test extra only; the runtime import must not pull it in
        src = str(Path(__file__).resolve().parent.parent / "src")
        probe = ("import sys, entsense.cli; print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
    def test_import_asks_for_one_blas_thread(self, preset, want):
        # set before numpy's first import; a value the user set wins
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = ("import os, sys, entsense; assert 'numpy' in sys.modules; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env={**env, "PYTHONPATH": src})
        assert out.stdout.strip() == want


class TestConfigErrors:
    def test_non_utf8_config_byte_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = json.dumps(load_preset("paper-240m").raw).encode("ascii")
        at = text.index(b"source") + 1
        bad.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        out = tmp_path / "out"
        code = main(["precision", "--config", str(bad), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"config file {bad} is not UTF-8: byte {at} (0xff)" in err
        assert not out.exists()

    def test_invalid_json_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"source": }')
        code = main(["fringe", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "line" in err

    def test_missing_required_key_named(self, tmp_path, capsys):
        doc = fringe_doc()
        del doc["source"]["mu"]
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["fringe", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config key source.mu" in capsys.readouterr().err

    def test_unknown_section_named(self, tmp_path, capsys):
        doc = fringe_doc()
        doc["detector"] = {}
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["fringe", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config key detector" in capsys.readouterr().err

    def test_unknown_efficiency_channel_named(self, tmp_path, capsys):
        doc = fringe_doc()
        doc["efficiency"]["C1"] = 0.5
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["fringe", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config key efficiency.C1" in capsys.readouterr().err

    def test_missing_section_for_subcommand(self, tmp_path, capsys):
        doc = blocks_doc()
        del doc["blocks"]
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["random-phase", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config key blocks" in capsys.readouterr().err

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigurationError, match="config root"):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize("key", ["include_rest", "method"])
    def test_removed_blocks_key_rejected(self, tmp_path, capsys, key):
        doc = blocks_doc()
        doc["blocks"][key] = False if key == "include_rest" else "blocked"
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["random-phase", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert f"config key blocks.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("scan.span", [False, True]),
        ("scan.span", [0, math.inf]),
        ("scan.eta_range", [0.5, True]),
        ("seed", 2**64),
        ("source.mu", 10**400),
        ("scan.pulses_per_point", 2**62),
    ], ids=["span-booleans", "span-infinity", "eta_range-boolean", "seed-65-bits",
            "mu-beyond-float", "pulses-beyond-stream-layout"])
    def test_bad_value_rejected_before_any_output(self, tmp_path, capsys, key,
                                                  value):
        doc = fringe_doc()
        doc["scan"]["eta_step"] = 0.1  # read only next to an eta_range
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        code = main(["fringe", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert f"config key {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Config schema", 1)[1]
        example = example.split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads("\n".join(line for line in example.splitlines()
                                    if not line.lstrip().startswith("//")))
        config = parse_config(doc)
        assert set(doc) == {"source", "efficiency", "scan", "blocks", "seed"}
        assert config.blocks.num_phases == doc["blocks"]["num_phases"]

    def test_all_presets_parse(self):
        for name in PRESET_NAMES:
            config = load_preset(name)
            assert config.seed >= 0
            assert config.source.mu > 0

    def test_visibility_out_of_range_named(self, tmp_path, capsys):
        doc = fringe_doc()
        doc["source"]["visibility"] = 1.5
        cfg = write_config(tmp_path / "c.json", doc)
        code = main(["fringe", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config key source.visibility" in capsys.readouterr().err


class TestFringeCommand:
    def test_analytic_fractions_match_closed_form(self, tmp_path):
        doc = fringe_doc(points=13, analytic=True)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out)]) == 0

        rows = (out / "fringe_scan.csv").read_text().strip().splitlines()
        assert rows[0] == "theta,frac_a1b1,frac_a1b2,frac_a2b1,frac_a2b2,c_sum"
        assert len(rows) == 14
        source = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
        eff = EfficiencyBudget(small_efficiency())
        for line in rows[1:]:
            vals = [float(x) for x in line.split(",")]
            dist = pattern_distribution(source, eff, 3.0 * vals[0])
            p_inf = dist.informative_probability()
            expected = [p / p_inf for p in dist.coincidence_quartet()]
            assert vals[1:5] == pytest.approx(expected, abs=1e-12)
            assert vals[5] == pytest.approx(p_inf, abs=1e-15)

    def test_analytic_fit_recovers_effective_visibility(self, tmp_path):
        doc = fringe_doc(points=13, analytic=True)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fringe_fit.json").read_text())
        cal = analytic_calibration(SourceParams(mu=0.056, visibility=0.9804,
                                                n_max=4),
                                   EfficiencyBudget(small_efficiency()))
        assert fit["visibility_hat"] == pytest.approx(cal.visibility_hat,
                                                      abs=1e-9)
        assert abs(fit["phase_offset"]) < 1e-9

    def test_sampled_fit_within_interval(self, tmp_path):
        doc = fringe_doc(pulses=150_000, points=9)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fringe_fit.json").read_text())
        cal = analytic_calibration(SourceParams(mu=0.056, visibility=0.9804,
                                                n_max=4),
                                   EfficiencyBudget(small_efficiency()))
        err = math.sqrt(fit["covariance"][4][4])
        assert abs(fit["visibility_hat"] - cal.visibility_hat) < 5.0 * err

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        doc = fringe_doc(pulses=60_000, points=7)
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["fringe", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fringe", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ("fringe_scan.csv", "fringe_fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        doc = fringe_doc(pulses=60_000, points=7)
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "w1"
        out4 = tmp_path / "w4"
        assert main(["fringe", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["fringe", "--config", cfg, "--out", str(out4),
                     "--workers", "4"]) == 0
        assert ((out1 / "fringe_scan.csv").read_bytes()
                == (out4 / "fringe_scan.csv").read_bytes())
        assert ((out1 / "fringe_fit.json").read_bytes()
                == (out4 / "fringe_fit.json").read_bytes())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        code = main(["fringe", "--preset", "ideal", "--workers", workers,
                     "--out", str(out)])
        assert code == 2
        assert (f"argument --workers: must be >= 1, got {workers}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_seed_override_changes_data_and_manifest(self, tmp_path):
        doc = fringe_doc(pulses=60_000, points=7)
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["fringe", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fringe", "--config", cfg, "--out", str(out2),
                     "--seed", "777"]) == 0
        man = json.loads((out2 / "manifest.json").read_text())
        assert man["seed"] == 777
        assert man["resolved_config"]["seed"] == 777
        assert ((out1 / "fringe_scan.csv").read_bytes()
                != (out2 / "fringe_scan.csv").read_bytes())

    def test_manifest_records_preset_source(self, tmp_path):
        doc = fringe_doc(points=13, analytic=True)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert list(man) == ["subcommand", "config_path", "seed", "out_dir",
                             "version", "timestamp", "resolved_config"]
        assert man["subcommand"] == "fringe"
        assert man["version"] == __version__
        assert man["config_path"] == cfg
        assert man["out_dir"] == str(out)

    def test_event_log_flag_writes_log(self, tmp_path):
        doc = fringe_doc(pulses=30_000, points=5)
        doc["scan"]["span"] = [0.05, 1.45]
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        log = tmp_path / "events.csv"
        assert main(["fringe", "--config", cfg, "--out", str(out),
                     "--log", str(log)]) == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "pulse_index,setting_index,pattern,truth_pairs"
        assert len(lines) == 1 + 5 * 30_000


class TestPrecisionCommand:
    def test_scan_rows_and_peak(self, tmp_path):
        doc = blocks_doc(k_bar=800, s=60)
        doc["scan"] = {"points": 4}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["precision", "--config", cfg, "--out", str(out)]) == 0

        rows = (out / "precision_scan.csv").read_text().strip().splitlines()
        assert rows[0] == ("theta,theta_hat,delta,delta_err,n,snl,hl,"
                           "db_below_snl,extremum")
        assert len(rows) == 5
        branch = math.pi / 3.0
        report = json.loads((out / "precision.json").read_text())
        assert len(report["per_phase"]) == 4
        for j, line in enumerate(rows[1:]):
            vals = line.split(",")
            theta = float(vals[0])
            assert theta == pytest.approx(branch * (j + 1) / 5.0, rel=1e-12)
            n = float(vals[4])
            assert float(vals[5]) == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)
            assert float(vals[6]) == pytest.approx(1.0 / math.sqrt(3 * n), rel=1e-12)
        peak = max(report["per_phase"], key=lambda p: p["db_below_snl"])
        assert report["peak"]["db_below_snl"] == peak["db_below_snl"]

    def test_ideal_run_beats_snl_at_every_setpoint(self, tmp_path):
        doc = blocks_doc(k_bar=1500, s=80)
        doc["scan"] = {"points": 3}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["precision", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "precision.json").read_text())
        for p in report["per_phase"]:
            assert p["db_below_snl"] > 0.0

    def test_replay_is_byte_identical(self, tmp_path):
        doc = blocks_doc(k_bar=400, s=30)
        doc["scan"] = {"points": 3}
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["precision", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["precision", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ("precision_scan.csv", "precision.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestThresholdScanCommand:
    def test_sign_flips_across_threshold(self, tmp_path):
        doc = {
            "source": {"mu": 0.001, "visibility": 1.0, "n_max": 3},
            "scan": {"eta_range": [0.50, 0.70], "eta_step": 0.2,
                     "pulses_per_point": 4_000_000},
            "seed": 1234,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["threshold-scan", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "threshold_scan.csv").read_text().strip().splitlines()
        assert rows[0] == "eta,c_sum,n,db_below_snl"
        table = {float(r.split(",")[0]): float(r.split(",")[3])
                 for r in rows[1:]}
        assert table[0.5] < 0.0
        assert table[0.7] > 0.0

    def test_crossing_reported(self, tmp_path):
        doc = {
            "source": {"mu": 0.001, "visibility": 1.0, "n_max": 3},
            "scan": {"eta_range": [0.52, 0.64], "eta_step": 0.02,
                     "pulses_per_point": 2_000_000},
            "seed": 808,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["threshold-scan", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["ideal_threshold"] == pytest.approx(math.sqrt(3.0) / 3.0)
        assert 0.52 < report["crossing_eta"] < 0.64
        assert report["slope_db_per_eta"] > 0.0

    def test_missing_eta_range_rejected(self, tmp_path, capsys):
        code = main(["threshold-scan", "--preset", "ideal",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "scan.eta_range" in capsys.readouterr().err

    def test_replay_is_byte_identical(self, tmp_path):
        doc = {
            "source": {"mu": 0.001, "visibility": 1.0, "n_max": 3},
            "scan": {"eta_range": [0.55, 0.60], "eta_step": 0.05,
                     "pulses_per_point": 500_000},
            "seed": 31,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["threshold-scan", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["threshold-scan", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ("threshold_scan.csv", "threshold.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRandomPhaseCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", blocks_doc(num_phases=2))
        out = tmp_path / "out"
        assert main(["random-phase", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trials.csv").read_text().strip().splitlines()
        assert rows[0] == "index,estimated_phase_rad,stddev,stddev_err"
        assert len(rows) == 3
        doc = json.loads((out / "random_phase.json").read_text())
        assert doc["num_phases"] == 2
        branch = math.pi / 3.0
        for trial in doc["trials"]:
            assert 0.0 <= trial["theta_true"] <= branch
            assert 0.0 <= trial["theta_hat"] <= branch
            assert trial["delta"] > 0.0
            assert trial["n"] > 0.0

    def test_trials_flag_overrides_phase_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", blocks_doc(num_phases=2))
        out = tmp_path / "out"
        assert main(["random-phase", "--config", cfg, "--out", str(out),
                     "--trials", "4"]) == 0
        doc = json.loads((out / "random_phase.json").read_text())
        assert doc["num_phases"] == 4
        man = json.loads((out / "manifest.json").read_text())
        assert man["resolved_config"]["blocks"]["num_phases"] == 4

    def test_zero_trials_is_vacuous(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", blocks_doc())
        out = tmp_path / "out"
        assert main(["random-phase", "--config", cfg, "--out", str(out),
                     "--trials", "0"]) == 0
        doc = json.loads((out / "random_phase.json").read_text())
        assert doc["trials"] == []

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", blocks_doc(num_phases=2))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["random-phase", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["random-phase", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        for name in ("trials.csv", "random_phase.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestLateFailure:
    @pytest.mark.parametrize("subcommand, analytic", [
        ("precision", False),
        ("random-phase", False),
        ("fringe", True),
        ("fringe", False),
    ])
    def test_zero_mu_exits_cleanly_without_manifest(self, tmp_path, capsys,
                                                    subcommand, analytic):
        # no pair is ever emitted, so no informative event can occur
        doc = load_preset("paper-240m").raw
        doc["source"]["mu"] = 0
        doc["scan"].update(analytic=analytic, pulses_per_point=10_000)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "informative" in err
        assert not out.exists()  # no data file, no manifest, no directory


def make_log(tmp_path, pulses=120_000, points=5):
    doc = fringe_doc(pulses=pulses, points=points)
    doc["scan"]["span"] = [0.05, 1.45]
    doc["blocks"] = {"k_bar": 300, "s": 5}
    cfg = write_config(tmp_path / "log_config.json", doc)
    out = tmp_path / "logrun"
    log = tmp_path / "events.csv"
    assert main(["fringe", "--config", cfg, "--out", str(out),
                 "--log", str(log)]) == 0
    return cfg, log


# a full-span log necessarily includes settings near fringe extrema, where
# small blocks legitimately warn about boundary estimates; that flagging is
# the documented behavior, not a defect in these tests
@pytest.mark.filterwarnings("ignore::entsense.errors.DegenerateEstimateWarning")
class TestAuditCommand:
    def test_tally_round_trip_exact(self, tmp_path):
        cfg, log = make_log(tmp_path)
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(out)]) == 0

        tallies = read_event_log(str(log)).tallies
        rows = (out / "tallies.csv").read_text().strip().splitlines()
        assert rows[0] == "setting_index,event_type,count"
        by_setting = {}
        for line in rows[1:]:
            s_idx, name, count = line.split(",")
            by_setting.setdefault(int(s_idx), {})[name] = int(count)
        assert len(by_setting) == len(tallies)
        for tally in tallies:
            written = by_setting[tally.setting_index]
            assert sum(written.values()) == int(sum(tally.counts))
            assert written["A1A2B1B2"] == int(tally.counts[0b1111])
            assert written["NoClick"] == int(tally.counts[0])

    def test_audit_reports_accounting_and_precision(self, tmp_path):
        cfg, log = make_log(tmp_path)
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["settings"] == 5
        assert doc["n"] > 0.0
        assert set(doc["N_i"]) == {"A1", "A2", "B1", "B2"}
        # 0.6M pulses at mu=0.056 leaves a few-percent statistical wobble
        assert abs(doc["n_vs_truth_relative"]) < 0.05
        assert len(doc["precision"]) == 5
        for entry in doc["precision"]:
            assert entry["s"] >= 2
            assert entry["delta_hat"] > 0.0

    def test_audit_without_blocks_skips_precision(self, tmp_path):
        cfg, log = make_log(tmp_path)
        doc = json.loads((tmp_path / "log_config.json").read_text())
        del doc["blocks"]
        cfg2 = write_config(tmp_path / "noblocks.json", doc)
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg2, "--log", str(log),
                     "--out", str(out)]) == 0
        assert json.loads((out / "audit.json").read_text())["precision"] is None

    def test_audit_rejects_oversized_blocks(self, tmp_path, capsys):
        cfg, log = make_log(tmp_path)
        doc = json.loads((tmp_path / "log_config.json").read_text())
        doc["blocks"] = {"k_bar": 10_000_000, "s": 2}
        cfg2 = write_config(tmp_path / "big.json", doc)
        code = main(["audit", "--config", cfg2, "--log", str(log),
                     "--out", str(tmp_path / "audit")])
        assert code == 2
        assert "informative events" in capsys.readouterr().err

    def test_missing_log_file_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", fringe_doc())
        code = main(["audit", "--config", cfg, "--log",
                     str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_log_row_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", fringe_doc())
        log = tmp_path / "bad.csv"
        log.write_text("pulse_index,setting_index,pattern,truth_pairs\n"
                       "0,0,5,1\n1,0,5\n")
        code = main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(tmp_path / "audit")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err

    def test_non_utf8_log_byte_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", fringe_doc())
        log = tmp_path / "bad.csv"
        log.write_bytes(b"pulse_index,setting_index,pattern,truth_pairs\n"
                        b"0,0,5,1\n1,0,\xff,1\n2,0,5,1\n")
        out = tmp_path / "audit"
        code = main(["audit", "--config", cfg, "--log", str(log), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 3 ('1,0,\xff,1')" in err
        assert not out.exists()

    def test_post_selected_log_fails_cleanly(self, tmp_path, capsys):
        # keeping only the informative rows is the post-selection the
        # audit exists to rule out
        cfg, log = make_log(tmp_path)
        header, *rows = log.read_text().splitlines()
        kept = [r for r in rows if int(r.split(",")[2]) in INFORMATIVE_PATTERNS]
        assert 0 < len(kept) < len(rows)
        log.write_text("\n".join([header, *kept]) + "\n")
        code = main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(tmp_path / "audit")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "setting 0 has pulse_index" in err

    def test_audit_parses_log_once(self, tmp_path, monkeypatch):
        import entsense.cli

        cfg, log = make_log(tmp_path)
        reads, parse_callers = [], []
        real_read = entsense.cli.read_event_log

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        def recording(parse):
            def record(*args):
                parse_callers.append(sys._getframe(1).f_globals["__name__"])
                return parse(*args)
            return record

        monkeypatch.setattr(entsense.cli, "read_event_log", counting_read)
        monkeypatch.setattr(simulator, "_parse_log_block",
                            recording(simulator._parse_log_block))
        assert main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(tmp_path / "audit")]) == 0
        assert len(reads) == 1
        assert parse_callers and set(parse_callers) == {"entsense.simulator"}

    def test_degenerate_setting_reported_not_fatal(self, tmp_path):
        # six A1B1 events cut into three blocks of two: every block estimate
        # lands on the same branch edge, so the spread is exactly zero
        log = tmp_path / "flat.csv"
        log.write_text("pulse_index,setting_index,pattern,truth_pairs\n"
                       + "".join(f"{i},0,5,1\n" for i in range(6)))
        doc = json.loads(json.dumps(load_preset("paper-240m").raw))
        doc["blocks"]["k_bar"] = 2
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(out)]) == 0
        precision = json.loads((out / "audit.json").read_text())["precision"]
        assert precision == [{"setting_index": 0, "s": 3, "degenerate": True}]

    def test_audit_n_matches_library_accounting(self, tmp_path):
        cfg, log = make_log(tmp_path)
        out = tmp_path / "audit"
        assert main(["audit", "--config", cfg, "--log", str(log),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "audit.json").read_text())
        from entsense.resources import ResourceAudit

        source = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
        eff = EfficiencyBudget(small_efficiency())
        merged = ResourceAudit.from_tallies(read_event_log(str(log)).tallies,
                                            source, eff)
        assert doc["n"] == pytest.approx(merged.n, rel=1e-12)
        truth = 3.0 * sum(read_event_log(str(log)).truth_pairs)
        assert doc["truth_photon_passes"] == pytest.approx(truth)


def assert_recorded_digests(got):
    """got, {"<run>/<file>": sha256}, equals the digests recorded for
    those runs in tests/data/log_digests.json (see tests/log_digests.py
    to regenerate)."""
    recorded = json.loads(DIGEST_FILE.read_text())
    runs = {name.split("/")[0] for name in got}
    want = {name: digest for name, digest in recorded["files"].items()
            if name.split("/")[0] in runs}
    assert sorted(got) == sorted(want)
    for name, digest in want.items():
        assert got[name] == digest, (
            f"{name}: sha256 {got[name]} under numpy {np.__version__}, "
            f"recorded {digest} under numpy {recorded['numpy']}")


@pytest.mark.filterwarnings("ignore::entsense.errors.DegenerateEstimateWarning")
def test_event_log_bytes_match_recorded_digests(tmp_path):
    # the logged runs' event logs, audit and fringe files, pinned
    assert_recorded_digests(run_digests(tmp_path, logged_runs(tmp_path)))


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.filterwarnings("ignore::entsense.errors.DegenerateEstimateWarning")
def test_audit_bytes_at_any_core_count(tmp_path, monkeypatch, pools, cores):
    # the logged set's audit reads its log on 1 and on 2 threads, and
    # writes the recorded bytes on both
    monkeypatch.setattr(simulator, "_usable_cores", lambda: cores)
    runs = [(name, argv) for name, argv in logged_runs(tmp_path)
            if name != "fringe --workers 2"]
    assert_recorded_digests(run_digests(tmp_path, runs))
    assert pools == ([] if cores == 1 else [cores])


@pytest.mark.filterwarnings("ignore::entsense.errors.DegenerateEstimateWarning")
def test_unlogged_bytes_match_recorded_digests(tmp_path):
    # every data file of the unlogged subcommands on the shipped presets
    assert_recorded_digests(run_digests(tmp_path, UNLOGGED_RUNS))


class TestNumericFormatting:
    def test_csv_floats_round_trip(self, tmp_path):
        doc = fringe_doc(points=13, analytic=True)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fringe", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "fringe_scan.csv").read_text().strip().splitlines()
        source = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
        eff = EfficiencyBudget(small_efficiency())
        # repr round-trip: parsing and re-repr-ing reproduces the text
        for line in rows[1:]:
            for tok in line.split(","):
                assert repr(float(tok)) == tok
