"""Random unknown-phase experiment tests.

The bit-to-phase mapping has exact endpoint anchors; the experiment
driver is checked for determinism, branch folding, extremum flagging,
and statistical agreement with the per-block resource bound.
"""

import io
import json
import math
import os
import threading
import warnings

import numpy as np
import pytest

from entsense import randomphase, simulator
from entsense.cli import analytic_calibration, main
from entsense.errors import (
    ConfigurationError,
    DegenerateEstimateWarning,
    DomainError,
)
from entsense.estimation import FringeFit, fit_fringe, fold_to_branch
from entsense.model import (
    EfficiencyBudget,
    SourceParams,
    global_phase,
    pattern_distribution,
)
from entsense.randomphase import (
    PHASE_BITS,
    TRIALS_CSV_HEADER,
    PhaseMeasurement,
    bits_to_phase,
    draw_phase_settings,
    is_extremum,
    measure_phase_point,
    precision_scan,
    random_bit_blocks,
    run_random_phase_experiment,
    threshold_scan,
    write_trials_csv,
)

MU_10KM, V_10KM = 0.072, 0.9586
ETA_10KM = {"A1": 0.5810, "A2": 0.6046, "B1": 0.5837, "B2": 0.5284}


def fitted_calibration(source, eff, points=13):
    thetas = np.linspace(0.0, 2 * math.pi / 3, points)
    rows = []
    for t in thetas:
        dist = pattern_distribution(source, eff, 3.0 * t)
        quartet = np.array(dist.coincidence_quartet())
        rows.append((t, quartet / quartet.sum()))
    return fit_fringe(rows, counts=np.full(points, 1e9))


class TestBitsToPhase:
    def test_all_zeros(self):
        assert bits_to_phase([0] * 64) == 0.0

    def test_top_bit_is_half_turn(self):
        assert bits_to_phase([1] + [0] * 63) == math.pi

    def test_all_ones(self):
        # 2*pi*(1 - 2^-64); the offset is below float64 resolution, so
        # the correctly rounded value coincides with the full turn
        want = 2 * math.pi * (1 - 2.0 ** -64)
        assert bits_to_phase([1] * 64) == want

    def test_least_significant_bit_granularity(self):
        lsb = bits_to_phase([0] * 63 + [1])
        assert lsb == pytest.approx(2 * math.pi / 2.0 ** 64, rel=1e-15)

    def test_string_form_accepted(self):
        assert bits_to_phase("1" + "0" * 63) == math.pi

    def test_distinct_blocks_map_distinctly(self):
        a = bits_to_phase([0] * 62 + [1, 0])
        b = bits_to_phase([0] * 62 + [1, 1])
        assert a != b

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            bits_to_phase([0] * 63)
        with pytest.raises(DomainError):
            bits_to_phase([0] * 65)

    def test_non_bit_values_rejected(self):
        with pytest.raises(DomainError):
            bits_to_phase([0] * 63 + [2])
        with pytest.raises(DomainError):
            bits_to_phase("0" * 63 + "x")


class TestBitSource:
    def test_deterministic_per_seed(self):
        a = random_bit_blocks(99, 10)
        b = random_bit_blocks(99, 10)
        assert np.array_equal(a, b)
        assert a.shape == (10, PHASE_BITS)

    def test_seed_changes_the_stream(self):
        base = random_bit_blocks(99, 10)
        assert not np.array_equal(base, random_bit_blocks(100, 10))

    def test_mapped_phases_are_uniform(self):
        # mean of a million uniform phases is pi within 4 sigma
        blocks = random_bit_blocks(31337, 1_000_000)
        frac = blocks @ (0.5 ** np.arange(1, PHASE_BITS + 1))
        phases = 2 * math.pi * frac
        assert phases.min() >= 0.0
        assert phases.max() < 2 * math.pi
        four_sigma = 4 * (2 * math.pi / math.sqrt(12)) / 1000.0
        assert abs(phases.mean() - math.pi) < four_sigma

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            random_bit_blocks(1, -1)


class TestDrawPhaseSettings:
    def test_block_consumption_order(self):
        blocks = random_bit_blocks(7, 4)
        settings = draw_phase_settings(7, 2)
        assert settings[0].theta_a == bits_to_phase(blocks[0])
        assert settings[0].theta_b == bits_to_phase(blocks[1])
        assert settings[1].theta_a == bits_to_phase(blocks[2])
        assert settings[1].theta_b == bits_to_phase(blocks[3])

    def test_angles_cover_the_circle(self):
        settings = draw_phase_settings(123, 50)
        angles = [s.theta_a for s in settings] + [s.theta_b for s in settings]
        assert all(0.0 <= a < 2 * math.pi for a in angles)
        assert max(angles) > math.pi  # not stuck in a half-circle


class TestMeasurePhasePoint:
    def test_ideal_block_precision_hits_resource_bound(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        m = measure_phase_point(source, eff, FringeFit.ideal(), math.pi / 2,
                                900, 500, seed=24601)
        assert m.stats.delta_hat == pytest.approx(1.0 / 90.0, rel=0.05)
        assert m.report.db_below_snl > 0
        # per-block resource share: about 3 photons per informative event
        assert m.report.n == pytest.approx(m.audit.n / 500, rel=1e-12)
        assert m.report.n == pytest.approx(2700, rel=0.02)
        assert not m.extremum

    def test_extremum_is_flagged_not_dropped(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        with pytest.warns(UserWarning):
            m = measure_phase_point(source, eff, FringeFit.ideal(), 0.05,
                                    100, 8, seed=5)
        assert m.extremum
        assert isinstance(m, PhaseMeasurement)

    def test_method_and_calibration_validation(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        with pytest.raises(ConfigurationError):
            measure_phase_point(source, eff, None, 1.0, 10, 3, seed=1)


class TestRunRandomPhaseExperiment:
    def test_vacuous_request(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             0, 100, 10, seed=3)
        assert result.trials == ()
        assert result.phases_truth == ()

    def test_negative_phase_count_rejected(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        with pytest.raises(ConfigurationError):
            run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                        -1, 100, 10, seed=3)

    def test_deterministic_given_seed(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        a = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                        2, 300, 20, seed=42)
        b = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                        2, 300, 20, seed=42)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.setting == tb.setting
            assert ta.measurement.theta_hat == tb.measurement.theta_hat
            assert ta.measurement.stats.delta_hat == tb.measurement.stats.delta_hat

    def test_truths_fold_into_branch(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             3, 200, 10, seed=360)
        for trial in result.trials:
            assert 0.0 <= trial.theta_true <= math.pi / 3
            assert trial.theta_true == pytest.approx(
                fold_to_branch(global_phase(trial.setting)), abs=1e-15)

    def test_extremum_flags_follow_truths(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             3, 200, 10, seed=360)
        for trial in result.trials:
            assert trial.measurement.extremum == is_extremum(3 * trial.theta_true)
        assert result.flagged_indices() == [
            t.index for t in result.trials if t.measurement.extremum]

    def test_unbiased_away_from_extrema(self):
        # seed 42 draws three truths with |cos u| < 0.5
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             3, 900, 200, seed=42)
        assert result.flagged_indices() == []
        for trial in result.trials:
            stderr = trial.measurement.stats.delta_hat / math.sqrt(200)
            assert abs(trial.residual) < 4 * stderr

    def test_error_bar_identity_exact(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             2, 300, 25, seed=42)
        for trial in result.trials:
            stats = trial.measurement.stats
            assert stats.delta_err == stats.delta_hat / math.sqrt(2 * (25 - 1))

    def test_long_distance_band(self):
        # shortened version of the published working point: per-phase
        # spreads land in the widened tolerance band and never beat the
        # shot-noise baseline
        source = SourceParams(mu=MU_10KM, visibility=V_10KM)
        eff = EfficiencyBudget(ETA_10KM)
        cal = fitted_calibration(source, eff)
        result = run_random_phase_experiment(source, eff, cal, 2, 4750, 150,
                                             seed=42)
        for trial in result.trials:
            m = trial.measurement
            assert 0.0042 <= m.stats.delta_hat <= 0.0065
            assert m.report.db_below_snl < 0


class TestPrecisionScan:
    def test_matches_per_setpoint_measurements(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(0.9)
        thetas, measurements, peak = precision_scan(
            source, eff, FringeFit.ideal(), 3, 300, 12, seed=77)
        assert thetas == [math.pi / 3 * (j + 1) / 4 for j in range(3)]
        want = [measure_phase_point(source, eff, FringeFit.ideal(), 3.0 * t,
                                    300, 12, seed=77, setting_index=j)
                for j, t in enumerate(thetas)]
        for got, ref in zip(measurements, want):
            assert got.theta_hat == ref.theta_hat
            assert got.stats.delta_hat == ref.stats.delta_hat
            assert got.report == ref.report
        dbs = [m.report.db_below_snl for m in want]
        assert peak == dbs.index(max(dbs))


class TestSetpointThreads:
    """The blocked setpoints of precision_scan and the trials of
    run_random_phase_experiment run on min(usable cores, setpoints)
    threads, with the same results, warnings and errors as one by one."""

    SOURCE = SourceParams(mu=1e-3, visibility=1.0)
    EFF = EfficiencyBudget.uniform(0.9)

    def serial(self, us, k_bar, s, seed):
        """measure_phase_point one setpoint after another, and the
        warnings it records."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = [measure_phase_point(self.SOURCE, self.EFF, FringeFit.ideal(),
                                        u, k_bar, s, seed=seed, setting_index=j)
                    for j, u in enumerate(us)]
        return want, caught

    @staticmethod
    def messages(caught):
        assert all(issubclass(w.category, DegenerateEstimateWarning) for w in caught)
        return sorted(str(w.message) for w in caught)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_precision_scan_at_any_core_count(self, monkeypatch, pools, cores):
        monkeypatch.setattr(randomphase, "_usable_cores", lambda: cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thetas, measurements, peak = precision_scan(
                self.SOURCE, self.EFF, FringeFit.ideal(), 9, 60, 12, seed=77)
        assert pools == ([] if cores == 1 else [cores])
        want, want_caught = self.serial([3.0 * t for t in thetas], 60, 12, 77)
        assert measurements == want
        assert self.messages(caught) == self.messages(want_caught)
        assert len(caught) == 2  # two edge setpoints have boundary blocks

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_random_phase_at_any_core_count(self, monkeypatch, pools, cores):
        monkeypatch.setattr(randomphase, "_usable_cores", lambda: cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_random_phase_experiment(
                self.SOURCE, self.EFF, FringeFit.ideal(), 9, 100, 12, seed=360)
        assert pools == ([] if cores == 1 else [cores])
        want, want_caught = self.serial(
            [3.0 * t.theta_true for t in result.trials], 100, 12, 360)
        assert [t.measurement for t in result.trials] == want
        assert self.messages(caught) == self.messages(want_caught)
        assert len(caught) == 3  # trials 1, 6 and 8 sit near an extremum

    def test_threads_capped_by_setpoints(self, monkeypatch, pools):
        monkeypatch.setattr(randomphase, "_usable_cores", lambda: 4)
        precision_scan(self.SOURCE, self.EFF, FringeFit.ideal(), 3, 300, 12, seed=77)
        run_random_phase_experiment(self.SOURCE, self.EFF, FringeFit.ideal(),
                                    1, 300, 12, seed=42)
        run_random_phase_experiment(self.SOURCE, self.EFF, FringeFit.ideal(),
                                    0, 300, 12, seed=42)
        assert pools == [3]

    def test_usable_cores(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert randomphase._usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert randomphase._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert randomphase._usable_cores() == 1

    def test_unknown_core_count_builds_no_pool(self, monkeypatch, pools):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        precision_scan(self.SOURCE, self.EFF, FringeFit.ideal(), 3, 300, 12, seed=77)
        assert pools == []

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_first_failing_setpoint_raises(self, monkeypatch, cores):
        # setpoints 3 and 7 fail; 3's error is raised and nothing past the
        # 2 * threads setpoints in flight when it is consumed is started
        called, lock = [], threading.Lock()
        real = randomphase.measure_phase_point

        def failing(*args, setting_index, **kwargs):
            with lock:
                called.append(setting_index)
            if setting_index in (3, 7):
                raise DomainError(f"setpoint {setting_index} failed")
            return real(*args, setting_index=setting_index, **kwargs)

        monkeypatch.setattr(randomphase, "_usable_cores", lambda: cores)
        monkeypatch.setattr(randomphase, "measure_phase_point", failing)
        with pytest.raises(DomainError, match="^setpoint 3 failed$"):
            precision_scan(self.SOURCE, self.EFF, FringeFit.ideal(), 12, 300, 12,
                           seed=77)
        assert set(range(4)) <= set(called)
        assert max(called) < 3 + 2 * cores
        assert len(called) == len(set(called))
        if cores == 1:
            assert called == [0, 1, 2, 3]

    def test_failed_setpoint_leaves_no_output(self, monkeypatch, tmp_path, capsys):
        real = randomphase.measure_phase_point

        def failing(*args, setting_index, **kwargs):
            if setting_index == 3:
                raise DomainError("setpoint 3 failed")
            return real(*args, setting_index=setting_index, **kwargs)

        monkeypatch.setattr(randomphase, "_usable_cores", lambda: 2)
        monkeypatch.setattr(randomphase, "measure_phase_point", failing)
        out = tmp_path / "out"
        assert main(["precision", "--preset", "paper-240m", "--out", str(out)]) == 2
        assert "setpoint 3 failed" in capsys.readouterr().err
        assert not out.exists()  # so no manifest.json either


class TestThresholdScan:
    SOURCE = SourceParams(mu=1e-3, visibility=1.0, n_max=3)

    def test_single_efficiency_has_no_fit(self):
        rows, fit = threshold_scan(self.SOURCE, [0.6], 20_000, seed=5)
        assert len(rows) == 1 and rows[0][0] == 0.6
        assert fit == (None, None, None)

    def test_flat_db_has_no_fit(self, monkeypatch):
        monkeypatch.setattr(randomphase, "predicted_db_below_snl",
                            lambda k, fisher, n: 0.25)
        rows, fit = threshold_scan(self.SOURCE, [0.55, 0.6, 0.65], 20_000,
                                   seed=5)
        assert [r[3] for r in rows] == [0.25] * 3
        assert fit == (None, None, None)

    def test_crossing_is_the_fitted_line_zero(self):
        etas = [0.5, 0.55, 0.6, 0.65]
        rows, (slope, intercept, crossing) = threshold_scan(
            self.SOURCE, etas, 50_000, seed=5)
        assert [r[0] for r in rows] == etas
        want = np.polyfit([r[0] for r in rows], [r[3] for r in rows], 1)
        assert (slope, intercept) == tuple(want)
        assert crossing == -intercept / slope
        assert 0.5 < crossing < 0.65


class TestPhaseTrialDict:
    def test_matches_cli_output(self, tmp_path):
        doc = {"source": {"mu": 0.001, "visibility": 1.0, "n_max": 3},
               "efficiency": {"uniform": 0.95},
               "blocks": {"k_bar": 400, "s": 20, "num_phases": 3},
               "seed": 9}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["random-phase", "--config", str(cfg),
                     "--out", str(out)]) == 0
        trials = json.loads((out / "random_phase.json").read_text())["trials"]
        source = SourceParams(mu=0.001, visibility=1.0, n_max=3)
        eff = EfficiencyBudget.uniform(0.95)
        result = run_random_phase_experiment(
            source, eff, analytic_calibration(source, eff), 3, 400, 20, seed=9)
        entries = [t.as_dict() for t in result.trials]
        assert entries == trials
        assert [list(e) for e in entries] == [list(t) for t in trials]


class TestTrialsCsv:
    def test_table_layout(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             3, 200, 10, seed=360)
        buf = io.StringIO()
        write_trials_csv(result, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == TRIALS_CSV_HEADER
        assert len(lines) == 4
        for trial, line in zip(result.trials, lines[1:]):
            idx, est, sd, sd_err = line.split(",")
            assert int(idx) == trial.index
            assert float(est) == trial.measurement.theta_hat
            assert float(sd) == trial.measurement.stats.delta_hat
            assert float(sd_err) == trial.measurement.stats.delta_err

    def test_path_output(self, tmp_path):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        result = run_random_phase_experiment(source, eff, FringeFit.ideal(),
                                             1, 100, 5, seed=2)
        path = tmp_path / "trials.csv"
        write_trials_csv(result, path)
        assert path.read_text().startswith(TRIALS_CSV_HEADER)


class TestFoldToBranch:
    @pytest.mark.parametrize("theta, want", [
        (0.0, 0.0),
        (0.5, 0.5),
        (math.pi / 3, math.pi / 3),
        (1.5, 2 * math.pi / 3 - 1.5),
        (2 * math.pi / 3 + 0.2, 0.2),
        (-0.2, 0.2),
        (4 * math.pi, 0.0),
    ])
    def test_values(self, theta, want):
        assert fold_to_branch(theta) == pytest.approx(want, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-10, 10, size=50):
            once = fold_to_branch(theta)
            assert fold_to_branch(once) == pytest.approx(once, abs=1e-12)
