"""Taxonomy, tally, and efficiency-estimator tests.

Sampled cross-checks against the simulator live in test_simulator; here
everything is exact, with the analytic pattern distribution serving as the
infinite-statistics oracle for the efficiency estimator's multi-pair bias.
"""

import math
import warnings

import numpy as np
import pytest

from entsense.errors import ConfigurationError, DomainError, EmptyStatisticsError
from entsense.events import (
    COINCIDENCE_TYPES,
    INFORMATIVE_TYPES,
    EventType,
    Tally,
    classify,
    coincidence_fractions,
    estimate_efficiencies,
    write_tally_csv,
)
from entsense.model import (
    CHANNELS,
    EfficiencyBudget,
    SourceParams,
    pattern_distribution,
)

ETA_240M = {"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}


def expected_tally(mu, eta, routing, scale=10**12, u=0.37):
    """Tally whose counts are the analytic expectation at huge statistics."""
    src = SourceParams(mu=mu, visibility=0.98, n_max=4)
    dist = pattern_distribution(src, EfficiencyBudget(eta=eta), u, routing=routing)
    return Tally(np.rint(dist.probs * scale).astype(np.int64))


class TestTaxonomy:
    def test_classification_is_identity_on_masks(self):
        for p in range(16):
            assert int(classify(p)) == p

    def test_classification_is_bijective(self):
        assert len({classify(p) for p in range(16)}) == 16

    def test_out_of_range_rejected(self):
        for bad in (-1, 16, 255):
            with pytest.raises(DomainError):
                classify(bad)

    def test_classification_examples(self):
        assert classify(0b0001) is EventType.A1
        assert classify(0b0001).category == "Single"
        assert classify(0b0110) is EventType.A2B1
        assert classify(0b0110).category == "Twofold"
        assert classify(0b1111) is EventType.A1A2B1B2
        assert classify(0b1111).category == "Fourfold"

    def test_category_census(self):
        census = {}
        for p in range(16):
            census[classify(p).category] = census.get(classify(p).category, 0) + 1
        assert census == {
            "NoClick": 1, "Single": 4, "Twofold": 6, "Threefold": 4, "Fourfold": 1,
        }

    def test_informative_subset(self):
        assert len(INFORMATIVE_TYPES) == 9
        assert set(COINCIDENCE_TYPES) <= set(INFORMATIVE_TYPES)
        for t in EventType:
            alice = bool(int(t) & 0b0011)
            bob = bool(int(t) & 0b1100)
            assert t.is_informative == (alice and bob)
        # A1A2 and B1B2 are twofolds on a single node: counted, not informative
        assert not EventType.A1A2.is_informative
        assert not EventType.B1B2.is_informative

    def test_names_are_serialization_tokens(self):
        assert EventType.NoClick.name == "NoClick"
        assert EventType.A1B2.name == "A1B2"
        assert EventType["A1A2B1B2"] is EventType.A1A2B1B2

    def test_channel_views(self):
        assert EventType.A2B1.channels == ("A2", "B1")
        assert EventType.A1A2B1B2.multiplicity == 4
        assert EventType.NoClick.multiplicity == 0


class TestTally:
    def test_total_counts_all_pulses(self):
        t = Tally.from_patterns([0, 0, 5, 9, 15, 0])
        assert t.total == 6
        assert t[EventType.NoClick] == 3
        assert t["A1B1"] == 1

    def test_c_sum_and_bounds(self):
        t = Tally.from_patterns([0, 1, 4, 5, 5, 9, 7, 15, 3, 12])
        informative = sum(t[e] for e in INFORMATIVE_TYPES)
        assert t.c_sum == informative == 5
        nonempty = t.total - t[EventType.NoClick]
        assert t.c_sum <= nonempty

    def test_channel_clicks_singles_inclusive(self):
        t = Tally.from_patterns([0b0001, 0b0101, 0b1101, 0b0010])
        clicks = t.channel_clicks()
        assert clicks == {"A1": 3, "A2": 1, "B1": 2, "B2": 1}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Tally(np.full(16, -1))
        with pytest.raises(ConfigurationError):
            Tally(np.zeros(9, dtype=np.int64))
        with pytest.raises(DomainError):
            Tally.from_patterns([16])

    def test_from_counts(self):
        t = Tally.from_counts({EventType.A1B2: 50, "A2B1": 50}, setting_index=2)
        assert t.c_sum == 100
        assert t.setting_index == 2


class TestCoincidenceFractions:
    def test_two_channel_example(self):
        t = Tally.from_counts({"A1B2": 50, "A2B1": 50})
        assert coincidence_fractions(t) == (0.0, 0.5, 0.5, 0.0)

    def test_fourfold_inflates_denominator(self):
        t = Tally.from_counts(
            {"A1B1": 25, "A1B2": 25, "A2B1": 25, "A2B2": 25, "A1A2B1B2": 4}
        )
        assert coincidence_fractions(t) == tuple([25 / 104] * 4)

    def test_empty_statistics(self):
        with pytest.raises(EmptyStatisticsError):
            coincidence_fractions(Tally.from_counts({"A1": 7, "B1B2": 3}))

    def test_fractions_do_not_always_sum_to_one(self):
        t = Tally.from_counts({"A1B1": 10, "A1A2B1": 5})
        assert sum(coincidence_fractions(t)) == pytest.approx(10 / 15)


class TestEstimateEfficiencies:
    def test_lossless_calibration_is_exact(self):
        # eta=1, mu->0: every pair clicks both partner channels, nothing else
        t = Tally.from_counts({"A1B1": 5000, "A2B2": 5000, "NoClick": 10**6})
        assert estimate_efficiencies(t) == {
            "A1": 1.0, "A2": 1.0, "B1": 1.0, "B2": 1.0,
        }

    def test_zero_denominator(self):
        t = Tally.from_counts({"A1B1": 10})
        with pytest.raises(EmptyStatisticsError):
            # B2 never clicked, so A2's estimate has an empty denominator
            estimate_efficiencies(t)

    def test_recovers_configured_eta_at_vanishing_mu(self):
        t = expected_tally(1e-9, ETA_240M, "calibration", scale=10**17)
        est = estimate_efficiencies(t)
        for ch in CHANNELS:
            assert est[ch] == pytest.approx(ETA_240M[ch], abs=1e-6)

    def test_multipair_bias_sign_and_magnitude(self):
        # The estimator is biased low at mu > 0: extra pairs promote exact
        # twofolds into threefolds/fourfolds, deflating the numerator faster
        # than the singles-inclusive denominator.  Slope is ~ -0.26..-0.30
        # per unit mu at these efficiencies.
        for mu in (0.0025, 0.056, 0.1):
            est = estimate_efficiencies(expected_tally(mu, ETA_240M, "calibration"))
            for ch in CHANNELS:
                bias = est[ch] - ETA_240M[ch]
                assert bias < 0.0
                assert 0.20 * mu < -bias < 0.35 * mu

    def test_bias_regression_value(self):
        # Frozen from the analytic expectation at the 240 m working point.
        est = estimate_efficiencies(expected_tally(0.056, ETA_240M, "calibration"))
        assert est["A1"] - ETA_240M["A1"] == pytest.approx(-0.015848, abs=2e-5)

    def test_estimates_structurally_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            counts = rng.integers(0, 1000, size=16)
            t = Tally(counts)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    est = estimate_efficiencies(t)
            except EmptyStatisticsError:
                continue
            for value in est.values():
                assert 0.0 <= value <= 1.0


class TestTallyCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        tallies = [
            Tally.from_patterns(rng.integers(0, 16, size=2000), setting_index=i)
            for i in range(3)
        ]
        path = tmp_path / "tally.csv"
        write_tally_csv(tallies, path)
        back = {}
        for line in path.read_text().splitlines()[1:]:
            setting, token, count = line.split(",")
            back.setdefault(int(setting), {})[token] = int(count)
        assert [Tally.from_counts(back[s], s) for s in sorted(back)] == tallies

    def test_row_shape_and_spelling(self, tmp_path):
        path = tmp_path / "one.csv"
        write_tally_csv(Tally.from_counts({"A1A2B1B2": 2}, setting_index=7), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting_index,event_type,count"
        assert len(lines) == 17
        assert "7,NoClick,0" in lines
        assert "7,A1A2B1B2,2" in lines
        # rows run in ascending mask order
        write_tally_csv(Tally.from_patterns([5, 9, 0, 15], setting_index=4), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 17
        assert lines[1 + 5] == "4,A1B1,1"
