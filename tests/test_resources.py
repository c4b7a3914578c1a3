"""Resource accounting and baseline tests.

Monte Carlo reference values come from the simulator's emitted-pair
truth side channel; the analytic per-pulse total was cross-checked
against 3x the mean pair number (each pair contributes one single-pass
and one double-pass photon).
"""

import json
import math

import numpy as np
import pytest

from entsense.errors import ConfigurationError, DomainError
from entsense.estimation import block_stats
from entsense.events import Tally
from entsense.model import (
    CHANNELS,
    EfficiencyBudget,
    PhaseSetting,
    SourceParams,
    fisher_per_informative_event,
    pattern_distribution,
)
from entsense.resources import (
    PASS_WEIGHT,
    PrecisionReport,
    ResourceAudit,
    actual_photons,
    db_below_snl,
    hl,
    predicted_db_below_snl,
    snl,
    threshold_efficiency,
)
from entsense.simulator import ExperimentConfig, run_experiment

MU_240, V_240 = 0.056, 0.9804
ETA_240 = {"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}


class TestActualPhotons:
    def test_lossless_single_pair_limit(self):
        assert actual_photons(1000, 1.0, 0.0) == pytest.approx(1000.0, rel=1e-14)

    def test_half_efficiency_at_zero_mu(self):
        assert actual_photons(1000, 0.5, 0.0) == pytest.approx(2000.0, rel=1e-14)

    def test_working_point_correction(self):
        value = actual_photons(1e6, 0.7432, 0.056)
        assert value == pytest.approx(1356368.8248, abs=1e-3)
        assert value == pytest.approx(1.356e6, rel=1e-3)

    def test_zero_recorded_gives_zero(self):
        assert actual_photons(0, 0.7, 0.1) == 0.0

    def test_monotone_decreasing_in_eta(self):
        etas = np.linspace(0.3, 1.0, 15)
        for mu in (0.0, 0.056, 0.1):
            values = [actual_photons(1e6, e, mu) for e in etas]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_mu(self):
        mus = np.linspace(0.0, 0.1, 11)
        for eta in (0.5, 0.7432, 1.0):
            values = [actual_photons(1e6, eta, m) for m in mus]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_mu_limit_is_recorded_over_eta(self):
        for eta in (0.5, 0.7432, 0.9):
            value = actual_photons(1e6, eta, 1e-9)
            assert value == pytest.approx(1e6 / eta, rel=1e-9)

    def test_corrected_never_below_recorded(self):
        for eta in np.linspace(0.2, 1.0, 9):
            for mu in np.linspace(0.0, 0.15, 7):
                assert actual_photons(5e5, eta, mu) >= 5e5 - 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            actual_photons(1000, 0.0, 0.056)
        with pytest.raises(DomainError):
            actual_photons(1000, 1.2, 0.056)
        with pytest.raises(DomainError):
            actual_photons(1000, -0.5, 0.056)
        with pytest.raises(DomainError):
            actual_photons(1000, 0.7, -0.01)
        with pytest.raises(DomainError):
            actual_photons(-1, 0.7, 0.056)


class TestBaselines:
    def test_snl_direct_value(self):
        assert snl(9) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_snl_matches_three_photon_unit(self):
        for n0 in (1, 10, 4750, 2.5e6):
            assert snl(3 * n0) == pytest.approx(1.0 / math.sqrt(3 * n0),
                                                rel=1e-14)

    def test_snl_two_form_identity(self):
        for n in np.logspace(-3, 12, 40):
            direct = snl(n)
            two_term = math.sqrt((3.0 / n) / 9.0 + (4.0 / 9.0) * 3.0 / (2.0 * n))
            assert abs(direct - two_term) <= 1e-12 * direct

    def test_snl_at_audited_scale(self):
        assert snl(1356368.8248 * 1.0) == pytest.approx(8.6e-4, abs=2e-6)

    def test_hl_values(self):
        assert hl(3) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert hl(27) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_hl_to_snl_ratio(self):
        for n in np.logspace(-2, 10, 25):
            assert hl(n) / snl(n) == pytest.approx(1.0 / math.sqrt(3.0),
                                                   rel=1e-13)

    def test_positivity_domain(self):
        for fn in (snl, hl):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-5.0)
            with pytest.raises(DomainError):
                fn(float("nan"))

    def test_threshold_closed_form(self):
        value = threshold_efficiency()
        assert value == math.sqrt(3.0) / 3.0
        assert value == pytest.approx(0.57735026919, abs=1e-11)


class TestDbBelowSnl:
    def test_equality_is_zero(self):
        assert db_below_snl(0.01, 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_ideal_maximum(self):
        assert db_below_snl(0.01 / math.sqrt(3.0), 0.01) == pytest.approx(
            10.0 * math.log10(3.0), rel=1e-12)
        assert db_below_snl(0.01 / math.sqrt(3.0), 0.01) == pytest.approx(
            4.771, abs=5e-4)

    def test_published_scale_ratio(self):
        assert db_below_snl(0.01 / 1.1112, 0.01) == pytest.approx(0.916,
                                                                  abs=5e-4)

    def test_antisymmetric_under_swap(self):
        for a, b in [(0.004, 0.005), (1.0, 2.0), (3e-4, 8.6e-4)]:
            assert db_below_snl(a, b) == pytest.approx(-db_below_snl(b, a),
                                                       rel=1e-12)

    def test_sign_convention(self):
        assert db_below_snl(0.004, 0.005) > 0
        assert db_below_snl(0.006, 0.005) < 0

    def test_variance_convention_equals_twice_amplitude_convention(self):
        value = db_below_snl(0.004, 0.005)
        assert value == pytest.approx(2 * 10 * math.log10(0.005 / 0.004),
                                      rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            db_below_snl(0.0, 0.01)
        with pytest.raises(DomainError):
            db_below_snl(0.01, 0.0)


class TestPredictedDb:
    def test_ideal_limit_is_three(self):
        # k events of information 9 against n = 3k passes: 10*log10(3)
        assert predicted_db_below_snl(1000, 9.0, 3000) == pytest.approx(
            10 * math.log10(3.0), rel=1e-12)

    def test_matches_measured_form(self):
        # a precision exactly at the event-budget bound reproduces it
        k, fisher, n = 5000, 7.3, 21000
        delta = 1.0 / math.sqrt(k * fisher)
        assert predicted_db_below_snl(k, fisher, n) == pytest.approx(
            db_below_snl(delta, snl(n)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            predicted_db_below_snl(0, 9.0, 100)
        with pytest.raises(DomainError):
            predicted_db_below_snl(10, 0.0, 100)
        with pytest.raises(DomainError):
            predicted_db_below_snl(10, 9.0, 0.0)


def analytic_tally(source, eff, u, scale=10**9):
    dist = pattern_distribution(source, eff, u)
    counts = np.asarray(
        np.round(np.asarray(dist.probs) * scale), dtype=np.int64)
    return Tally(counts=counts)


class TestResourceAudit:
    def test_from_counts_matches_formula(self):
        recorded = {"A1": 1e6, "A2": 1.1e6, "B1": 0.9e6, "B2": 1.05e6}
        audit = ResourceAudit.from_counts(recorded, MU_240, ETA_240)
        for ch in CHANNELS:
            assert audit.N_tilde_i[ch] == pytest.approx(
                actual_photons(recorded[ch], ETA_240[ch], MU_240), rel=1e-14)
        want_n = sum(PASS_WEIGHT[ch] * audit.N_tilde_i[ch] for ch in CHANNELS)
        assert audit.n == pytest.approx(want_n, rel=1e-14)

    def test_pass_weights_double_the_b_side(self):
        assert PASS_WEIGHT == {"A1": 1, "A2": 1, "B1": 2, "B2": 2}

    def test_n_dominates_weighted_recorded_sum(self):
        recorded = {"A1": 5e5, "A2": 5.5e5, "B1": 4.5e5, "B2": 5.2e5}
        audit = ResourceAudit.from_counts(recorded, 0.08, ETA_240)
        weighted = sum(PASS_WEIGHT[ch] * recorded[ch] for ch in CHANNELS)
        assert audit.n >= weighted

    def test_analytic_tally_recovers_pair_budget(self):
        # per-pulse audited total vs 3x the mean pair number: the closed
        # form undercounts by ~0.24% at this working point
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        scale = 10**12
        tally = analytic_tally(source, eff, math.pi / 2, scale=scale)
        audit = ResourceAudit.from_tallies(tally, source, eff)
        per_pulse = audit.n / scale
        assert per_pulse == pytest.approx(0.1675995471, abs=1e-8)
        truth = 3 * source.mean_pairs()
        assert per_pulse == pytest.approx(truth, rel=5e-3)

    def test_monte_carlo_truth_channel_agreement(self):
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        cfg = ExperimentConfig(
            source=source, eff=eff,
            settings=(PhaseSetting(math.pi / 6, 0.0),),
            pulses_per_setting=4_000_000, seed=90210)
        result = run_experiment(cfg)
        audit = ResourceAudit.from_tallies(result.tallies, source, eff)
        n_true = 3 * result.truth_pairs[0]
        assert abs(audit.n / n_true - 1.0) < 5e-3

    def test_tally_list_merges(self):
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        t1 = analytic_tally(source, eff, 1.0, scale=10**9)
        t2 = analytic_tally(source, eff, 2.0, scale=10**9)
        both = ResourceAudit.from_tallies([t1, t2], source, eff)
        solo = [ResourceAudit.from_tallies(t, source, eff) for t in (t1, t2)]
        for ch in CHANNELS:
            assert both.N_i[ch] == solo[0].N_i[ch] + solo[1].N_i[ch]

    def test_channel_key_validation(self):
        with pytest.raises(ConfigurationError):
            ResourceAudit.from_counts({"A1": 1.0}, 0.05, ETA_240)
        bad_eta = dict(ETA_240)
        bad_eta.pop("B2")
        recorded = {ch: 1e5 for ch in CHANNELS}
        with pytest.raises(ConfigurationError):
            ResourceAudit.from_counts(recorded, 0.05, bad_eta)

    def test_inconsistent_total_rejected(self):
        recorded = {ch: 1e5 for ch in CHANNELS}
        audit = ResourceAudit.from_counts(recorded, 0.05, ETA_240)
        with pytest.raises(ConfigurationError, match="pass-weighted"):
            ResourceAudit(N_i=audit.N_i, N_tilde_i=audit.N_tilde_i,
                          n=audit.n * 2, mu=audit.mu, eta=audit.eta)

    def test_json_field_names(self):
        recorded = {ch: 1e5 for ch in CHANNELS}
        audit = ResourceAudit.from_counts(recorded, 0.05, ETA_240)
        doc = json.loads(json.dumps(audit.as_dict()))
        assert set(doc) == {"N_i", "N_tilde_i", "n", "mu", "eta"}
        assert set(doc["N_i"]) == set(CHANNELS)
        assert doc["n"] == audit.n
        assert audit.as_dict() == doc


class TestPrecisionReport:
    def make_stats(self):
        rng = np.random.default_rng(5)
        values = rng.normal(math.pi / 6, 0.005, size=400)
        return block_stats(values)

    def test_assemble_consistency(self):
        stats = self.make_stats()
        n = 3 * 4750 * 400
        report = PrecisionReport.assemble(math.pi / 6, stats, n,
                                          params={"mu": MU_240})
        assert report.snl == pytest.approx(snl(n), rel=1e-14)
        assert report.hl == pytest.approx(hl(n), rel=1e-14)
        assert report.db_below_snl == pytest.approx(
            db_below_snl(stats.delta_hat, snl(n)), rel=1e-12)
        assert (report.db_below_snl > 0) == (report.delta_hat < report.snl)

    def test_inconsistent_db_rejected(self):
        stats = self.make_stats()
        n = 3 * 4750 * 400
        report = PrecisionReport.assemble(math.pi / 6, stats, n)
        with pytest.raises(ConfigurationError):
            PrecisionReport(
                theta_hat=report.theta_hat, delta_hat=report.delta_hat,
                delta_err=report.delta_err, n=report.n, snl=report.snl,
                hl=report.hl, db_below_snl=report.db_below_snl + 0.5,
                params={})

    def test_json_field_names(self):
        stats = self.make_stats()
        report = PrecisionReport.assemble(0.5, stats, 10_000,
                                          params={"k_bar": 4750, "s": 400})
        doc = json.loads(json.dumps(report.as_dict()))
        assert set(doc) == {"theta_hat", "delta_hat", "delta_err", "n",
                            "snl", "hl", "db_below_snl", "params"}
        assert doc["params"] == {"k_bar": 4750, "s": 400}
        assert report.as_dict() == doc


class TestCompositionWithModel:
    def test_ideal_point_predicts_maximum_violation(self):
        source = SourceParams(mu=1e-6, visibility=1.0, n_max=2)
        eff = EfficiencyBudget.uniform(1.0)
        fisher = fisher_per_informative_event(source, eff, math.pi / 2)
        # lossless: every emitted pair is informative, n = 3 per event
        value = predicted_db_below_snl(1.0, fisher, 3.0)
        assert value == pytest.approx(10 * math.log10(3.0), abs=1e-4)
