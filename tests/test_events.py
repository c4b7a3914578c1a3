"""Taxonomy and tally tests.

Sampled cross-checks against the simulator live in test_simulator; here
everything is exact.
"""

import numpy as np
import pytest

from entsense.errors import ConfigurationError, EmptyStatisticsError
from entsense.events import (
    COINCIDENCE_TYPES,
    INFORMATIVE_TYPES,
    EventType,
    Tally,
    coincidence_fractions,
    write_tally_csv,
)


def tally_of(counts, setting_index=0):
    """A tally from a {serialization token: count} map."""
    arr = np.zeros(16, dtype=np.int64)
    for token, count in counts.items():
        arr[EventType[token]] = count
    return Tally(arr, setting_index)


class TestTaxonomy:
    def test_classification_is_identity_on_masks(self):
        for p in range(16):
            assert int(EventType(p)) == p

    def test_classification_is_bijective(self):
        assert len({EventType(p) for p in range(16)}) == 16

    def test_classification_examples(self):
        assert EventType(0b0001) is EventType.A1
        assert EventType(0b0001).category == "Single"
        assert EventType(0b0110) is EventType.A2B1
        assert EventType(0b0110).category == "Twofold"
        assert EventType(0b1111) is EventType.A1A2B1B2
        assert EventType(0b1111).category == "Fourfold"

    def test_category_census(self):
        census = {}
        for p in range(16):
            census[EventType(p).category] = census.get(EventType(p).category, 0) + 1
        assert census == {
            "NoClick": 1, "Single": 4, "Twofold": 6, "Threefold": 4, "Fourfold": 1,
        }

    def test_informative_subset(self):
        assert len(INFORMATIVE_TYPES) == 9
        assert set(COINCIDENCE_TYPES) <= set(INFORMATIVE_TYPES)
        for t in EventType:
            alice = bool(int(t) & 0b0011)
            bob = bool(int(t) & 0b1100)
            assert (t in INFORMATIVE_TYPES) == (alice and bob)
        # A1A2 and B1B2 are twofolds on a single node: counted, not informative
        assert EventType.A1A2 not in INFORMATIVE_TYPES
        assert EventType.B1B2 not in INFORMATIVE_TYPES

    def test_names_are_serialization_tokens(self):
        assert EventType.NoClick.name == "NoClick"
        assert EventType.A1B2.name == "A1B2"
        assert EventType["A1A2B1B2"] is EventType.A1A2B1B2

    def test_channel_views(self):
        assert EventType.A1A2B1B2.multiplicity == 4
        assert EventType.NoClick.multiplicity == 0


class TestTally:
    def test_total_counts_all_pulses(self):
        t = Tally(np.bincount([0, 0, 5, 9, 15, 0], minlength=16))
        assert int(t.counts.sum()) == 6
        assert t.counts[EventType.NoClick] == 3
        assert t.counts[EventType.A1B1] == 1

    def test_c_sum_and_bounds(self):
        t = Tally(np.bincount([0, 1, 4, 5, 5, 9, 7, 15, 3, 12], minlength=16))
        informative = sum(t.counts[e] for e in INFORMATIVE_TYPES)
        assert t.c_sum == informative == 5
        nonempty = int(t.counts.sum()) - t.counts[EventType.NoClick]
        assert t.c_sum <= nonempty

    def test_channel_clicks_singles_inclusive(self):
        t = Tally(np.bincount([0b0001, 0b0101, 0b1101, 0b0010], minlength=16))
        clicks = t.channel_clicks()
        assert clicks == {"A1": 3, "A2": 1, "B1": 2, "B2": 1}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Tally(np.full(16, -1))
        with pytest.raises(ConfigurationError):
            Tally(np.zeros(9, dtype=np.int64))


class TestCoincidenceFractions:
    def test_two_channel_example(self):
        t = tally_of({"A1B2": 50, "A2B1": 50})
        assert coincidence_fractions(t) == (0.0, 0.5, 0.5, 0.0)

    def test_fourfold_inflates_denominator(self):
        t = tally_of(
            {"A1B1": 25, "A1B2": 25, "A2B1": 25, "A2B2": 25, "A1A2B1B2": 4}
        )
        assert coincidence_fractions(t) == tuple([25 / 104] * 4)

    def test_empty_statistics(self):
        with pytest.raises(EmptyStatisticsError):
            coincidence_fractions(tally_of({"A1": 7, "B1B2": 3}))

    def test_fractions_do_not_always_sum_to_one(self):
        t = tally_of({"A1B1": 10, "A1A2B1": 5})
        assert sum(coincidence_fractions(t)) == pytest.approx(10 / 15)


class TestTallyCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        tallies = [
            Tally(np.bincount(rng.integers(0, 16, size=2000), minlength=16), i)
            for i in range(3)
        ]
        path = tmp_path / "tally.csv"
        write_tally_csv(tallies, path)
        back = {}
        for line in path.read_text().splitlines()[1:]:
            setting, token, count = line.split(",")
            back.setdefault(int(setting), {})[token] = int(count)
        assert [tally_of(back[s], s) for s in sorted(back)] == tallies

    def test_row_shape_and_spelling(self, tmp_path):
        path = tmp_path / "one.csv"
        write_tally_csv([tally_of({"A1A2B1B2": 2}, setting_index=7)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting_index,event_type,count"
        assert len(lines) == 17
        assert "7,NoClick,0" in lines
        assert "7,A1A2B1B2,2" in lines
        # rows run in ascending mask order
        write_tally_csv([Tally(np.bincount([5, 9, 0, 15], minlength=16), 4)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 17
        assert lines[1 + 5] == "4,A1B1,1"
