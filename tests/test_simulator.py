"""Sampler tests: determinism, stream layout, and oracle equivalence.

The analytic pattern distribution (itself brute-force-verified in
test_model) is the oracle for every sampled frequency here.
"""

import contextlib
import functools
import io
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from entsense import simulator
from entsense.errors import ConfigurationError, EmptyStatisticsError
from entsense.events import Tally, coincidence_fractions
from entsense.model import (
    INFORMATIVE_PATTERNS,
    N_PATTERNS,
    EfficiencyBudget,
    PhaseSetting,
    SourceParams,
    coincidence_probs,
    pattern_distribution,
)
from entsense.simulator import (
    _SLOT_OF_PATTERN,
    EVENT_LOG_HEADER,
    LANE_BITS,
    LANE_PULSES,
    MAX_PULSES_PER_SETTING,
    BlockedRunSample,
    ExperimentConfig,
    cut_blocks,
    read_event_log,
    run_experiment,
    sample_blocked_run,
    sample_patterns,
    sample_tally,
    stream_generator,
    tally_pulses,
)

SRC_240M = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
EFF_240M = EfficiencyBudget(
    eta={"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}
)


def chi_square_p(counts, probs):
    n = counts.sum()
    expected = probs * n
    keep = expected > 0
    stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    return stats.chi2.sf(stat, dof)


class TestStreamGenerator:
    def test_same_key_same_stream(self):
        a = stream_generator(42, LANE_PULSES, 3, 7).random(8)
        b = stream_generator(42, LANE_PULSES, 3, 7).random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct_across_coordinates(self):
        base = stream_generator(42, LANE_PULSES, 3, 7).random(4)
        for args in ((43, 0, 3, 7), (42, 1, 3, 7), (42, 0, 4, 7), (42, 0, 3, 8)):
            other = stream_generator(*args).random(4)
            assert not np.array_equal(base, other)

    def test_layout_bounds(self):
        with pytest.raises(ConfigurationError):
            stream_generator(2**64, 0)
        with pytest.raises(ConfigurationError):
            stream_generator(1, 256)
        with pytest.raises(ConfigurationError):
            stream_generator(1, 0, 2**24)
        with pytest.raises(ConfigurationError):
            stream_generator(1, 0, 0, 2**32)


class TestSamplePulse:
    def test_mu_zero_is_always_empty(self):
        src = SourceParams(mu=0.0, visibility=1.0, n_max=1)
        rng = stream_generator(1, LANE_PULSES)
        patterns, pairs = sample_patterns(src, EFF_240M, 0.3, rng, 50)
        assert not patterns.any() and not pairs.any()

    def test_empty_fraction_tracks_poisson_weight(self):
        src = SourceParams(mu=0.0025, visibility=1.0, n_max=2)
        eff = EfficiencyBudget.uniform(1.0)
        rng = stream_generator(7, LANE_PULSES)
        n = 10**6
        patterns, _ = sample_patterns(src, eff, math.pi / 2, rng, n)
        p_empty = math.exp(-0.0025)
        sigma = math.sqrt(p_empty * (1 - p_empty) / n)
        assert (patterns == 0).mean() == pytest.approx(p_empty, abs=3 * sigma)

    def test_truth_conservation(self):
        rng = stream_generator(3, LANE_PULSES)
        patterns, pairs = sample_patterns(SRC_240M, EFF_240M, 1.1, rng, 200_000)
        clicks = np.unpackbits(patterns.reshape(-1, 1), axis=1).sum(axis=1)
        assert np.all(clicks <= 2 * pairs)
        assert patterns[pairs == 0].max(initial=0) == 0

    def test_all_sixteen_patterns_within_4_sigma(self):
        rng = stream_generator(11, LANE_PULSES)
        n = 10**7
        patterns, _ = sample_patterns(SRC_240M, EFF_240M, math.pi / 2, rng, n)
        emp = np.bincount(patterns, minlength=N_PATTERNS) / n
        want = pattern_distribution(SRC_240M, EFF_240M, math.pi / 2).probs
        sigma = np.sqrt(want * (1 - want) / n)
        np.testing.assert_array_less(np.abs(emp - want), 4 * sigma)

    def test_chi_square_regression_seeds(self):
        # fixed regression seed set; failures here mean the sampler and
        # the analytic distribution diverged, not bad luck
        for seed in (101, 202, 303):
            rng = stream_generator(seed, LANE_PULSES)
            patterns, _ = sample_patterns(SRC_240M, EFF_240M, 1.3, rng, 10**6)
            counts = np.bincount(patterns, minlength=N_PATTERNS)
            p = chi_square_p(counts, pattern_distribution(SRC_240M, EFF_240M, 1.3).probs)
            assert p > 1e-3


def reference_sample_patterns(source, eff, u, rng, n):
    # the pulse path as first written: Generator.random() doubles and
    # searchsorted plus clip over every pulse, kept as the reference the
    # raw-word, emitting-only kernel must equal
    cum_pairs = np.cumsum(source.pair_weights())
    cum_route = np.cumsum(coincidence_probs(u, source.visibility))
    eta = eff.as_array()
    m = np.searchsorted(cum_pairs, rng.random(n), side="right")
    np.clip(m, 0, source.n_max, out=m)
    m = m.astype(np.int16)
    total = int(m.sum())
    routes = np.searchsorted(cum_route, rng.random(total), side="right")
    np.clip(routes, 0, 3, out=routes)
    a_idx, b_idx = routes >> 1, routes & 1
    a_click = rng.random(total) < eta[a_idx]
    b_click = rng.random(total) < eta[2 + b_idx]
    masks = (a_click << a_idx | (b_click << (2 + b_idx))).astype(np.uint8)
    patterns = np.zeros(n, dtype=np.uint8)
    emitting = m > 0
    if total:
        starts = np.concatenate(([0], np.cumsum(m, dtype=np.int64)))[:-1]
        patterns[emitting] = np.bitwise_or.reduceat(masks, starts[emitting])
    return patterns, m


class CraftedWords:
    """Stands in for a Generator: its k-th draw returns the k-th array of
    words, cycled to size, as raw words from bit_generator.random_raw or
    as the doubles (w >> 11) * 2**-53 that random() makes of them."""

    def __init__(self, *words):
        self.words = iter(words)
        self.bit_generator = self

    def random_raw(self, size):
        return np.resize(np.asarray(next(self.words), dtype=np.uint64), size)

    def random(self, size):
        return (self.random_raw(size) >> 11) * 2.0**-53


def step_words(p):
    # for each step ceil(p * 2^53), the k = step - 1 and k = step inside
    # [0, 2^53), each with its 11 low bits all clear and all set, and the
    # words 0 and 2^64 - 1
    steps = np.ceil(np.ldexp(p, 53)).astype(np.int64)
    k = np.clip(np.concatenate((steps - 1, steps)), 0, 2**53 - 1).astype(np.uint64)
    return np.concatenate((k << 11, k << 11 | np.uint64(2**11 - 1),
                           np.array([0, 2**64 - 1], dtype=np.uint64)))


class TestEmittingKernel:
    """The raw-word pulse kernel against the float searchsorted reference."""

    @pytest.mark.parametrize("mu", [0.0, 0.0025, 0.1])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_matches_reference_draws(self, mu, n):
        src = SourceParams(mu=mu, visibility=0.9804, n_max=4)
        got_rng = stream_generator(17, LANE_PULSES, 2, n)
        want_rng = stream_generator(17, LANE_PULSES, 2, n)
        patterns, m = sample_patterns(src, EFF_240M, 1.1, got_rng, n)
        want_patterns, want_m = reference_sample_patterns(
            src, EFF_240M, 1.1, want_rng, n)
        assert patterns.dtype == np.uint8 and m.dtype == np.int16
        np.testing.assert_array_equal(patterns, want_patterns)
        np.testing.assert_array_equal(m, want_m)
        np.testing.assert_array_equal(got_rng.random(3), want_rng.random(3))

    @pytest.mark.parametrize("mu, n_max, visibility, u", [
        (0.1, 4, 1.0, 0.0),          # routes A1B1 and A2B2 have weight 0
        (0.1, 4, 0.9804, 1.1),
        (0.0025, 4, 1.0, math.pi),   # routes A1B2 and A2B1 have weight 0
        (0.0025, 3, 0.1, 0.2),       # last pair and route cumsums 1 - 2^-53
    ])
    def test_draws_on_every_edge(self, mu, n_max, visibility, u):
        # a word at or above the last cumulative weight's step, which
        # roundoff can put below 2^53, is clipped into the last bin
        src = SourceParams(mu=mu, visibility=visibility, n_max=n_max)
        cum_pairs = np.cumsum(src.pair_weights())
        cum_route = np.cumsum(coincidence_probs(u, visibility))
        for cum, top in ((cum_pairs, n_max), (cum_route, 3)):
            words = step_words(cum)
            want = np.minimum(np.searchsorted(cum, (words >> 11) * 2.0**-53,
                                              side="right"), top)
            got = simulator._edges_passed(simulator._steps(cum[:top]), words >> 11)
            np.testing.assert_array_equal(got, want)
        # the whole kernel on pair, route and click words sitting on those
        # steps; the click words are rotated so that each photon meets
        # every one of them
        pair_words, route_words = step_words(cum_pairs), step_words(cum_route)
        click_words = step_words(EFF_240M.as_array())
        n = len(pair_words)
        for shift in range(len(click_words)):
            clicks = np.roll(click_words, shift)
            draws = (pair_words, route_words, clicks, clicks[::-1])
            got = sample_patterns(src, EFF_240M, u, CraftedWords(*draws), n)
            want = reference_sample_patterns(src, EFF_240M, u, CraftedWords(*draws), n)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("source, eff", [
        pytest.param(SRC_240M, EfficiencyBudget.uniform(1.0), id="eta-1"),
        pytest.param(SourceParams(mu=0.0, visibility=0.9804, n_max=4), EFF_240M,
                     id="mu-0"),
        # the cumulative pair weights from m = 16 on round to 1.0
        pytest.param(SourceParams(mu=2.0, visibility=0.9804, n_max=24), EFF_240M,
                     id="last-pair-weights-round-to-1"),
    ])
    def test_matches_reference_on_steps_of_2_to_the_53(self, source, eff):
        # a probability that rounds to 1 gives the step 2^53: no word passes
        # it, and a photon with it always clicks
        tested = np.concatenate((np.cumsum(source.pair_weights())[:source.n_max],
                                 eff.as_array()))
        assert simulator._steps(tested).max() == 2**53
        n = 60_000
        got_rng, tally_rng, want_rng = (stream_generator(29, LANE_PULSES, 3, 5)
                                        for _ in range(3))
        patterns, m = sample_patterns(source, eff, 0.7, got_rng, n)
        counts, truth = tally_pulses(source, eff, 0.7, tally_rng, n)
        want_patterns, want_m = reference_sample_patterns(source, eff, 0.7, want_rng, n)
        np.testing.assert_array_equal(patterns, want_patterns)
        np.testing.assert_array_equal(m, want_m)
        np.testing.assert_array_equal(counts,
                                      np.bincount(want_patterns, minlength=N_PATTERNS))
        assert truth == int(want_m.sum(dtype=np.int64))
        want_state = want_rng.bit_generator.state  # counter, buffer and position
        np.testing.assert_equal(got_rng.bit_generator.state, want_state)
        np.testing.assert_equal(tally_rng.bit_generator.state, want_state)

    def test_random_is_the_raw_words_top_53_bits(self):
        # Generator.random() on a stream is (w >> 11) * 2^-53 of its raw
        # words, one word a draw: the identity the raw-word kernel rests on
        doubles = stream_generator(31, LANE_PULSES, 4, 6).random(10_007)
        words = stream_generator(31, LANE_PULSES, 4, 6).bit_generator.random_raw(10_007)
        np.testing.assert_array_equal(doubles, (words >> 11) * 2.0**-53)

    @pytest.mark.parametrize("mu", [0.0, 0.056, 0.1])
    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_tally_equals_bincount_of_patterns(self, mu, n):
        src = SourceParams(mu=mu, visibility=0.9804, n_max=4)
        tally_rng = stream_generator(23, LANE_PULSES, 1, n)
        pulse_rng = stream_generator(23, LANE_PULSES, 1, n)
        counts, truth = tally_pulses(src, EFF_240M, 0.4, tally_rng, n)
        patterns, m = sample_patterns(src, EFF_240M, 0.4, pulse_rng, n)
        assert counts.dtype == np.int64 and type(truth) is int
        np.testing.assert_array_equal(counts,
                                      np.bincount(patterns, minlength=N_PATTERNS))
        assert truth == int(m.sum(dtype=np.int64))
        np.testing.assert_array_equal(tally_rng.random(3), pulse_rng.random(3))

    @pytest.mark.parametrize("draw", [sample_patterns, tally_pulses])
    def test_negative_count_rejected(self, draw):
        rng = stream_generator(1, LANE_PULSES)
        with pytest.raises(ConfigurationError, match="pulse count must be >= 0"):
            draw(SRC_240M, EFF_240M, 0.3, rng, -1)


def refusal(line, text):
    """The reader's error for a line not in the writer's form."""
    return (f"event log: line {line} ({text!r}) is not 4 unsigned integers "
            f"joined by ',' and ended by '\\n'")


@contextlib.contextmanager
def piped(text):
    """The read end of a pipe that a thread fills with text, decoded as
    a path is, with every line end kept as it is."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(write_fd, "w", encoding="latin-1", newline="") as writer:
                writer.write(text)
        except BrokenPipeError:  # the reader stopped at a refused line
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        with os.fdopen(read_fd, encoding="latin-1", newline="\n") as fh:
            assert not fh.seekable()
            yield fh
    finally:
        feeder.join()


class TestRunExperiment:
    def make_config(self, **kw):
        defaults = dict(
            source=SRC_240M,
            eff=EFF_240M,
            settings=(PhaseSetting(0.9, 0.0), PhaseSetting(2.1, 0.3)),
            pulses_per_setting=200_000,
            seed=555,
            chunk_size=1 << 16,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_repeat_runs_identical(self):
        cfg = self.make_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.tallies == r2.tallies
        assert r1.truth_pairs == r2.truth_pairs

    def test_worker_count_invariance(self):
        cfg = self.make_config()
        log1, log4 = io.StringIO(), io.StringIO()
        r1 = run_experiment(cfg, workers=1, event_log=log1)
        r4 = run_experiment(cfg, workers=4, event_log=log4)
        assert r1.tallies == r4.tallies
        assert r1.truth_pairs == r4.truth_pairs
        assert log1.getvalue() == log4.getvalue()

    def test_threaded_run_bounds_chunks_in_flight(self, monkeypatch):
        # behind a slow log writer, at most 2 * workers chunks may be
        # started and not yet written
        workers = 4
        lock = threading.Lock()
        state = {"started": 0, "consumed": 0, "peak": 0}
        real_sample, real_write = simulator.sample_patterns, simulator._write_log_chunk

        def sample(*args):
            with lock:
                state["started"] += 1
                in_flight = state["started"] - state["consumed"]
                state["peak"] = max(state["peak"], in_flight)
            return real_sample(*args)

        def slow_write(*args):
            time.sleep(0.005)
            real_write(*args)
            with lock:
                state["consumed"] += 1

        cfg = self.make_config(pulses_per_setting=40 * 1024, chunk_size=1024)
        monkeypatch.setattr(simulator, "sample_patterns", sample)
        monkeypatch.setattr(simulator, "_write_log_chunk", slow_write)
        log = io.StringIO()
        result = run_experiment(cfg, workers=workers, event_log=log)
        monkeypatch.undo()
        assert state["started"] == state["consumed"] == 2 * 40
        assert state["peak"] <= 2 * workers
        serial_log = io.StringIO()
        assert run_experiment(cfg, event_log=serial_log).tallies == result.tallies
        assert serial_log.getvalue() == log.getvalue()

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_unlogged_run_equals_logged_run(self, workers):
        # the unlogged path tallies chunks without per-pulse arrays; the
        # short final chunk (100_001 = 3 * 2^15 + 1,697) included
        cfg = self.make_config(pulses_per_setting=100_001, chunk_size=1 << 15)
        unlogged = run_experiment(cfg, workers=workers)
        logged = run_experiment(cfg, workers=workers, event_log=io.StringIO())
        assert unlogged.tallies == logged.tallies
        assert unlogged.truth_pairs == logged.truth_pairs
        assert unlogged.pulses == logged.pulses == [100_001, 100_001]

    def test_threaded_unlogged_run_bounds_chunks_in_flight(self, monkeypatch):
        # behind a slow reduction, at most 2 * workers chunks may be
        # tallied and not yet added in; the truth total is an int subclass
        # whose reflected add is the reduction's last step for a chunk
        workers = 4
        lock = threading.Lock()
        state = {"started": 0, "consumed": 0, "peak": 0}
        real_tally = simulator.tally_pulses

        class SlowTruth(int):
            def __radd__(self, other):
                time.sleep(0.005)
                with lock:
                    state["consumed"] += 1
                return other + int(self)

        def tally(*args):
            with lock:
                state["started"] += 1
                in_flight = state["started"] - state["consumed"]
                state["peak"] = max(state["peak"], in_flight)
            counts, truth = real_tally(*args)
            return counts, SlowTruth(truth)

        cfg = self.make_config(pulses_per_setting=40 * 1024, chunk_size=1024)
        monkeypatch.setattr(simulator, "tally_pulses", tally)
        result = run_experiment(cfg, workers=workers)
        monkeypatch.undo()
        assert state["started"] == state["consumed"] == 2 * 40
        assert state["peak"] <= 2 * workers
        serial = run_experiment(cfg)
        assert serial.tallies == result.tallies
        assert serial.truth_pairs == result.truth_pairs

    def test_one_pool_per_run(self, monkeypatch):
        # a threaded run builds one pool for all its settings, a serial
        # run none, and both give the same tallies and log
        pools = []

        class CountingPool(simulator.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", CountingPool)
        cfg = self.make_config(
            settings=tuple(PhaseSetting(0.7 * k, 0.0) for k in range(3)),
            pulses_per_setting=5 * 4096, chunk_size=4096)
        threaded_log, serial_log = io.StringIO(), io.StringIO()
        threaded = run_experiment(cfg, workers=2, event_log=threaded_log)
        assert len(pools) == 1
        serial = run_experiment(cfg, event_log=serial_log)
        assert len(pools) == 1
        assert threaded.tallies == serial.tallies
        assert threaded.truth_pairs == serial.truth_pairs
        assert threaded_log.getvalue() == serial_log.getvalue()

    def test_short_final_chunk(self):
        cfg = self.make_config(pulses_per_setting=100_001, chunk_size=1 << 15)
        result = run_experiment(cfg)
        for tally in result.tallies:
            assert tally.total == 100_001

    def test_tally_matches_model_fractions(self):
        cfg = self.make_config(
            settings=(PhaseSetting(3 * math.pi / 6, 0.0),),  # u = pi/2
            pulses_per_setting=10**6,
        )
        tally = run_experiment(cfg).tallies[0]
        fractions = coincidence_fractions(tally)
        dist = pattern_distribution(SRC_240M, EFF_240M, math.pi / 2)
        quartet = dist.coincidence_quartet() / dist.informative_probability()
        for got, want in zip(fractions, quartet):
            sigma = math.sqrt(want * (1 - want) / tally.c_sum)
            assert got == pytest.approx(want, abs=4 * sigma)

    def test_event_log_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        cfg = self.make_config(pulses_per_setting=20_000)
        result = run_experiment(cfg, event_log=path)
        back = read_event_log(path)
        assert back.tallies == result.tallies
        assert back.truth_pairs == result.truth_pairs
        assert back.pulses == [20_000, 20_000]
        first = path.read_text().splitlines()[0]
        assert first == EVENT_LOG_HEADER
        assert result.patterns is None

    def test_event_log_patterns_in_log_order(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(EVENT_LOG_HEADER + "\n0,1,9,1\n0,0,5,1\n1,1,0,0\n"
                        "1,0,15,2\n2,1,6,1\n")
        back = read_event_log(path)
        assert [list(p) for p in back.patterns] == [[5, 15], [9, 6]]

    @pytest.mark.parametrize("rows, found, expected", [
        ("0,0,5,1\n1,0,0,0\n3,0,6,1\n", 3, 2),   # a pulse left out
        ("0,0,5,1\n1,0,0,0\n1,0,6,1\n", 1, 2),   # a pulse repeated
        ("1,0,5,1\n2,0,0,0\n", 1, 0),             # the first pulse missing
    ])
    def test_pulse_index_out_of_sequence(self, tmp_path, rows, found, expected):
        path = tmp_path / "events.csv"
        path.write_text(EVENT_LOG_HEADER + "\n0,1,9,1\n" + rows)
        with pytest.raises(ConfigurationError,
                           match=f"setting 0 has pulse_index {found} "
                                 f"where {expected} is expected"):
            read_event_log(path)

    def test_doubled_log_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        run_experiment(self.make_config(pulses_per_setting=2_000), event_log=path)
        rows = path.read_text().split("\n", 1)[1]
        path.write_text(EVENT_LOG_HEADER + "\n" + rows + rows)
        with pytest.raises(ConfigurationError,
                           match="setting 0 has pulse_index 0 where 2000 is"):
            read_event_log(path)

    def test_event_log_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pulse,setting,pattern,truth\n0,0,5,1\n")
        with pytest.raises(ConfigurationError):
            read_event_log(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text(EVENT_LOG_HEADER + "\n")
        with pytest.raises(EmptyStatisticsError):
            read_event_log(empty)
        out_of_range = tmp_path / "oor.csv"
        out_of_range.write_text(EVENT_LOG_HEADER + "\n0,0,16,1\n")
        with pytest.raises(ConfigurationError):
            read_event_log(out_of_range)

    @pytest.mark.parametrize("row", ["1,0,x,1", "1,0,5", "1,0,5,1,7"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        # the header is line 1
        path = tmp_path / "bad.csv"
        path.write_text(EVENT_LOG_HEADER + "\n0,0,5,1\n1,0,6,1\n" + row + "\n3,0,6,1\n")
        message = re.escape(refusal(4, row))
        with pytest.raises(ConfigurationError, match=message):
            read_event_log(path)
        with pytest.raises(ConfigurationError, match=message):
            read_event_log(io.StringIO(path.read_text()))

    @pytest.mark.parametrize("row, error", [
        ("1,0,6,1", None),
        pytest.param("1,0,6", "line 3 \\('1,0,6'\\)", id="1,0,6-line 3")])
    def test_unseekable_log(self, row, error):
        # a pipe is read once, and a bad row still names its line
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(EVENT_LOG_HEADER + "\n0,0,5,1\n" + row + "\n")
        with os.fdopen(read_fd) as fh:
            assert not fh.seekable()
            if error is None:
                assert read_event_log(fh).pulses == [2]
            else:
                with pytest.raises(ConfigurationError, match=error):
                    read_event_log(fh)

    def test_malformed_row_past_the_first_block_of_lines(self, tmp_path):
        path = tmp_path / "late.csv"
        rows = "".join(f"{i},0,5,1\n" for i in range(40_000))
        path.write_text(EVENT_LOG_HEADER + "\n" + rows + "40000,0,5\n")
        with pytest.raises(ConfigurationError, match="line 40002 "):
            read_event_log(path)

    @pytest.mark.parametrize("row, found", [
        ("1,0,16,1", "setting 0, pulse_index 1 has pattern 16, outside 0..15"),
        # a sign is not in the writer's form, so these rows fail at their
        # line, before the range check that their ids name
        pytest.param("1,0,-1,1", refusal(4, "1,0,-1,1"),
                     id="1,0,-1,1-setting 0, pulse_index 1 has pattern -1, outside 0..15"),
        pytest.param("1,1,5,-2", refusal(4, "1,1,5,-2"),
                     id="1,1,5,-2-setting 1, pulse_index 1 has truth_pairs -2, below 0"),
    ])
    def test_out_of_range_row_names_its_pulse(self, tmp_path, row, found):
        path = tmp_path / "oor.csv"
        path.write_text(EVENT_LOG_HEADER + "\n0,0,5,1\n0,1,9,1\n" + row
                        + "\n2,0,16,1\n")
        with pytest.raises(ConfigurationError, match=re.escape(found)):
            read_event_log(path)

    def test_reader_memory_is_bounded(self, tmp_path):
        path = tmp_path / "events.csv"
        result = run_experiment(self.make_config(pulses_per_setting=200_000),
                                event_log=path)
        tracemalloc.start()
        try:
            back = read_event_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tallies == result.tallies
        assert peak < 8 * 2**20

    def test_pulse_index_gap_past_the_first_block(self, tmp_path):
        path = tmp_path / "gap.csv"
        rows = [f"{i},0,5,1\n" for i in range(40_000)]
        del rows[30_000]  # line 30,002, some 349,000 characters in, holds 30,001
        assert len("".join(rows[:30_000])) > simulator._LOG_CHARS
        path.write_text(EVENT_LOG_HEADER + "\n" + "".join(rows))
        with pytest.raises(ConfigurationError,
                           match="setting 0 has pulse_index 30001 where 30000 is"):
            read_event_log(path)

    def test_interleaved_settings_across_a_block_edge(self, tmp_path):
        # 2 x 15,000 alternating rows, some 340,000 characters, put both
        # settings on both sides of the first text block's edge
        rng = np.random.default_rng(3)
        patterns = rng.integers(0, N_PATTERNS, (15_000, 2))
        pairs = rng.integers(0, 5, (15_000, 2))
        text = EVENT_LOG_HEADER + "\n" + "".join(
            f"{i},{s},{patterns[i, s]},{pairs[i, s]}\n"
            for i in range(15_000) for s in (0, 1))
        assert len(text) > simulator._LOG_CHARS + 20_000
        path = tmp_path / "interleaved.csv"
        path.write_text(text)
        back = read_event_log(path)
        informative = np.isin(patterns, INFORMATIVE_PATTERNS)
        assert back.pulses == [15_000, 15_000]
        assert back.truth_pairs == pairs.sum(axis=0).tolist()
        for s in (0, 1):
            want = np.bincount(patterns[:, s], minlength=N_PATTERNS)
            assert back.tallies[s] == Tally(want, setting_index=s)
            assert back.patterns[s].dtype == np.uint8
            assert back.patterns[s].tolist() == patterns[informative[:, s], s].tolist()

    @pytest.mark.parametrize("blank", [3, 2 * simulator._LOG_CHARS])
    def test_blank_lines_at_a_block_edge(self, tmp_path, blank):
        # the rows fill the first _LOG_CHARS characters but for the last,
        # where the blank lines start, and the rows go on after them; the
        # longer run of blank lines fills a whole block.  The first blank
        # line is refused, from a file and from a pipe.
        rows, size = [], 0
        while size + len(row := f"{len(rows)},0,5,1\n") < simulator._LOG_CHARS:
            rows.append(row)
            size += len(row)
        # widen the last row's truth_pairs by the characters still missing
        before = len(rows)
        rows[-1] = f"{before - 1},0,5,{10 ** (simulator._LOG_CHARS - 1 - size)}\n"
        assert len("".join(rows)) == simulator._LOG_CHARS - 1
        rows += [f"{i},0,5,1\n" for i in range(before, before + 10)]
        text = (EVENT_LOG_HEADER + "\n" + "".join(rows[:before]) + "\n" * blank
                + "".join(rows[before:]))
        path = tmp_path / "blank.csv"
        path.write_text(text)
        message = re.escape(refusal(1 + before + 1, ""))
        with pytest.raises(ConfigurationError, match=message):
            read_event_log(path)
        with piped(text) as fh, pytest.raises(ConfigurationError, match=message):
            read_event_log(fh)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            self.make_config(settings=())
        with pytest.raises(ConfigurationError):
            self.make_config(pulses_per_setting=0)
        with pytest.raises(ConfigurationError):
            self.make_config(chunk_size=0)
        with pytest.raises(ConfigurationError):
            self.make_config(seed=-1)


class TestLogReader:
    """One parser: the writer's form reads, and any other line is refused
    by its number."""

    @pytest.mark.parametrize("rows, line, bad", [
        ("99999999999999999999,0,5,1\n", 4, "99999999999999999999,0,5,1"),
        ("9223372036854775808,0,5,1\n", 4, "9223372036854775808,0,5,1"),
        # the comma total of canonical lines, on lines with 2 and 4
        ("2,0,9\n3,0,5,1,7\n", 4, "2,0,9"),
        ("2,0,9,1\n3,0,5\n4,0,5,1,7\n", 5, "3,0,5"),
        ("2,,5,1\n", 4, "2,,5,1"),
        (",2,0,5,1\n", 4, ",2,0,5,1"),
        ("+5\n", 4, "+5"),
        (" 5\n", 4, " 5"),
        ("2,0\x0c5,1\n", 4, "2,0\x0c5,1"),  # a form feed ends no line
        ("57", 4, "57"),  # the last line, with no line end
        pytest.param("2,0,5,1\r\n", 4, "2,0,5,1\r", id="crlf"),
        pytest.param("2,0,5,1\r3,0,5,1\n", 4, "2,0,5,1\r3,0,5,1", id="cr"),
        pytest.param("\n", 4, "", id="blank"),
        pytest.param("2,0,-1,1\n", 4, "2,0,-1,1", id="negative"),
        pytest.param(f"{2**63 - 1},0,5,1\n", 4, f"{2**63 - 1},0,5,1",
                     id="int64-maximum"),
    ])
    def test_non_canonical_rows_fail_as_before(self, tmp_path, monkeypatch,
                                               rows, line, bad):
        # canonical rows around the bad one fill its block: the parser
        # must refuse the block, not read a wrong value from it.  The
        # edge of the first text block moves over the bad rows a
        # character at a time, and the default block holds them whole.
        before = "".join(f"{i},0,5,1\n" for i in range(2))
        after = ("".join(f"{i},0,5,1\n" for i in range(4, 200))
                 if rows.endswith("\n") else "")
        text = EVENT_LOG_HEADER + "\n" + before + rows + after
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("ascii"))
        message = re.escape(refusal(line, bad))
        edges = range(len(before) - 1, len(before) + len(rows) + 2)
        for chars in [*edges, simulator._LOG_CHARS]:
            monkeypatch.setattr(simulator, "_LOG_CHARS", chars)
            with pytest.raises(ConfigurationError, match=message):
                read_event_log(path)
            with piped(text) as fh, pytest.raises(ConfigurationError, match=message):
                read_event_log(fh)

    @pytest.mark.parametrize("header", [
        pytest.param("  " + EVENT_LOG_HEADER + " \t\n", id="padded"),
        pytest.param(EVENT_LOG_HEADER + "\r\n", id="crlf"),
        pytest.param(EVENT_LOG_HEADER + " \n", id="trailing-space"),
    ])
    def test_header_only_in_the_writer_form(self, tmp_path, header):
        # the header, like every row, reads only as the writer writes it
        text = header + "0,0,5,1\n1,0,0,0\n"
        path = tmp_path / "header.csv"
        path.write_bytes(text.encode("ascii"))
        line = header.removesuffix("\n")
        message = re.escape(f"event log: line 1 ({line!r}) is not the header "
                            f"{EVENT_LOG_HEADER!r} ended by '\\n'")
        with pytest.raises(ConfigurationError, match=message):
            read_event_log(path)
        with piped(text) as fh, pytest.raises(ConfigurationError, match=message):
            read_event_log(fh)

    def test_canonical_log_takes_the_fast_path(self, tmp_path, monkeypatch):
        # each text block of a written log is parsed once, whole
        path = tmp_path / "events.csv"
        cfg = ExperimentConfig(source=SRC_240M, eff=EFF_240M,
                               settings=(PhaseSetting(0.9, 0.0), PhaseSetting(2.1, 0.3)),
                               pulses_per_setting=30_000, seed=5)
        result = run_experiment(cfg, event_log=path)
        parse, blocks = simulator._parse_log_block, []

        def spy(text):  # called on the reader's worker threads
            rows = parse(text)
            blocks.append(rows)
            return rows

        monkeypatch.setattr(simulator, "_parse_log_block", spy)
        back = read_event_log(path)
        assert (back.tallies, back.truth_pairs, back.pulses) == (
            result.tallies, result.truth_pairs, result.pulses)
        assert len(blocks) > 2 and all(rows is not None for rows in blocks)
        assert sum(map(len, blocks)) == sum(result.pulses)

    def test_single_byte_edits_read_or_name_their_line(self, tmp_path):
        path = tmp_path / "edited.csv"
        header = (EVENT_LOG_HEADER + "\n").encode("ascii")
        read = 0
        for body in single_byte_edits(EDITED_LOG):
            path.write_bytes(header + body)
            try:
                back = read_event_log(path)
            except ConfigurationError as err:
                assert re.match(r"event log: (line|setting) \d", str(err)), body
                got = None
            except EmptyStatisticsError:
                got = None
            else:
                got = (back.tallies, back.truth_pairs, back.pulses)
                read += 1
            assert got == plain_parse(body), body
        assert read  # leading zeros, for one, still read


def block_first_lines(text):
    """The line number, the header being line 1, of each text block's
    first line, cut as the reader cuts a log: _LOG_CHARS characters and
    the rest of the last line."""
    fh = io.StringIO(text, newline="\n")
    fh.readline()
    firsts, line = [], 2
    while block := fh.read(simulator._LOG_CHARS) + fh.readline():
        firsts.append(line)
        line += block.count("\n")
    return firsts


@functools.cache
def interleaved_log():
    """A log of 60,000 rows whose setting, 0, 1 or 2, is drawn for each
    row, so every text block holds all three and each runs on across
    every block edge; with each row's setting, pattern and truth_pairs."""
    rng = np.random.default_rng(21)
    setting = rng.integers(0, 3, 60_000)
    pattern = rng.integers(0, N_PATTERNS, 60_000)
    truth = rng.integers(0, 4, 60_000)
    index = np.zeros(60_000, dtype=np.int64)
    for s in range(3):
        index[setting == s] = np.arange(np.count_nonzero(setting == s))
    text = EVENT_LOG_HEADER + "\n" + "".join(
        f"{i},{s},{p},{t}\n" for i, s, p, t in zip(index.tolist(), setting.tolist(),
                                                  pattern.tolist(), truth.tolist()))
    return text, setting, pattern, truth


def with_line(text, number, line):
    """text with its line `number` (the header being 1) replaced by line."""
    lines = text.split("\n")
    lines[number - 1] = line
    return "\n".join(lines)


class TestPooledReader:
    """The reader parses its text blocks on min(usable cores, blocks)
    threads and merges them in block order: the same result, and the
    same first error, at any core count."""

    @staticmethod
    def read_both(tmp_path, text):
        """read_event_log of text from a path, then from a pipe."""
        path = tmp_path / "events.csv"
        path.write_text(text)
        with piped(text) as fh:
            return read_event_log(path), read_event_log(fh)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_same_result_at_any_core_count(self, tmp_path, monkeypatch, pools, cores):
        text, setting, pattern, truth = interleaved_log()
        assert len(block_first_lines(text)) > 4
        monkeypatch.setattr(simulator, "_usable_cores", lambda: cores)
        results = self.read_both(tmp_path, text)
        assert pools == ([] if cores == 1 else [cores, cores])
        for back in results:
            assert back.pulses == np.bincount(setting).tolist()
            assert back.truth_pairs == np.bincount(setting, weights=truth).astype(int).tolist()
            for s in range(3):
                want = np.bincount(pattern[setting == s], minlength=N_PATTERNS)
                assert back.tallies[s] == Tally(want, setting_index=s)
                own = pattern[setting == s]
                assert back.patterns[s].dtype == np.uint8
                assert back.patterns[s].tolist() == own[np.isin(own, INFORMATIVE_PATTERNS)].tolist()

    def test_threads_capped_by_blocks(self, tmp_path, monkeypatch, pools):
        # a path's size bounds its blocks, so a one-block log is read
        # serially; a pipe's size is unknown
        monkeypatch.setattr(simulator, "_usable_cores", lambda: 4)
        text = EVENT_LOG_HEADER + "\n" + "".join(f"{i},0,5,1\n" for i in range(1000))
        for back in self.read_both(tmp_path, text):
            assert back.pulses == [1000]
        assert pools == [4]
        monkeypatch.setattr(simulator, "_LOG_CHARS", 4096)
        self.read_both(tmp_path, text)
        assert pools == [4, 3, 4]

    def malformed_in_blocks_3_and_5(self, text):
        firsts = block_first_lines(text)
        for number in (firsts[4] + 7, firsts[2] + 7):
            row = text.split("\n")[number - 1]
            text = with_line(text, number, row.replace(",", ";", 1))
        bad = text.split("\n")[firsts[2] + 6]
        return text, refusal(firsts[2] + 7, bad)

    def pattern_above_15(self, text):
        # a two-digit pattern in block 4 becomes 99, and block 5 holds a
        # malformed line; the block edges stay where they were
        firsts = block_first_lines(text)
        lines = text.split("\n")
        number = next(n for n in range(firsts[3], firsts[4])
                      if len(lines[n - 1].split(",")[2]) == 2)
        i, s, _, t = lines[number - 1].split(",")
        text = with_line(text, number, f"{i},{s},99,{t}")
        text = with_line(text, firsts[4] + 2, lines[firsts[4] + 1] + ",0")
        return text, f"setting {s}, pulse_index {i} has pattern 99, outside 0..15"

    def gap_at_a_block_edge(self, text, inside=0):
        # the pulse_index of block 3's first row of one setting (or its
        # row `inside` rows later), one too high, where the setting's last
        # row before it is in block 2 (or earlier in block 3)
        firsts = block_first_lines(text)
        lines = text.split("\n")
        number = firsts[2]
        s = lines[number - 1].split(",")[1]
        for _ in range(inside):
            number = next(n for n in range(number + 1, firsts[3])
                          if lines[n - 1].split(",")[1] == s)
        i, _, p, t = lines[number - 1].split(",")
        text = with_line(text, number, f"{int(i) + 1},{s},{p},{t}")
        return text, f"setting {s} has pulse_index {int(i) + 1} where {i} is expected"

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("case", ["malformed", "pattern", "gap-at-edge", "gap-inside"])
    def test_same_first_error_at_any_core_count(self, tmp_path, monkeypatch, cores, case):
        text = interleaved_log()[0]
        if case == "malformed":
            text, message = self.malformed_in_blocks_3_and_5(text)
        elif case == "pattern":
            text, message = self.pattern_above_15(text)
        else:
            text, message = self.gap_at_a_block_edge(text, 0 if case == "gap-at-edge" else 5)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: cores)
        path = tmp_path / "events.csv"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            read_event_log(path)
        with piped(text) as fh, pytest.raises(ConfigurationError, match=re.escape(message)):
            read_event_log(fh)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_blocks_in_flight_are_bounded(self, tmp_path, monkeypatch, workers):
        # behind a slow merge, at most 2 * workers blocks may be parsed
        # and not yet merged; the truth sum is an int subclass whose
        # reflected add is a step of the merge, once a block in a log of
        # one setting
        lock = threading.Lock()
        state = {"started": 0, "consumed": 0, "peak": 0}
        real = simulator._summarize_log_block

        class SlowTruth(int):
            def __radd__(self, other):
                time.sleep(0.003)
                with lock:
                    state["consumed"] += 1
                return other + int(self)

        def summarize(text):
            with lock:
                state["started"] += 1
                state["peak"] = max(state["peak"], state["started"] - state["consumed"])
            lines, bad, settings = real(text)
            return lines, bad, [block._replace(truth=SlowTruth(block.truth))
                                for block in settings]

        path = tmp_path / "events.csv"
        path.write_text(EVENT_LOG_HEADER + "\n"
                        + "".join(f"{i},0,{i % 16},{i % 3}\n" for i in range(20_000)))
        monkeypatch.setattr(simulator, "_LOG_CHARS", 4096)
        blocks = len(block_first_lines(path.read_text()))
        serial = read_event_log(path)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: workers)
        monkeypatch.setattr(simulator, "_summarize_log_block", summarize)
        back = read_event_log(path)
        assert state["started"] == state["consumed"] == blocks > 4 * workers
        assert state["peak"] <= 2 * workers
        assert (back.tallies, back.truth_pairs, back.pulses) == (
            serial.tallies, serial.truth_pairs, serial.pulses)
        assert [p.tolist() for p in back.patterns] == [p.tolist() for p in serial.patterns]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_early_error_stops_the_reading(self, monkeypatch, workers):
        # a log malformed in its 2nd block raises with at most 2 + 2 *
        # workers of its blocks read
        class CountingReads(io.StringIO):
            def read(self, size=-1):
                self.reads += 1
                return super().read(size)

        monkeypatch.setattr(simulator, "_LOG_CHARS", 4096)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: workers)
        text = EVENT_LOG_HEADER + "\n" + "".join(f"{i},0,5,1\n" for i in range(40_000))
        firsts = block_first_lines(text)
        number = firsts[1] + 3
        text = with_line(text, number, f"{number - 2},0,5")
        fh = CountingReads(text, newline="\n")
        fh.reads = 0
        with pytest.raises(ConfigurationError,
                           match=re.escape(refusal(number, f"{number - 2},0,5"))):
            read_event_log(fh)
        assert len(firsts) > 10 * workers
        assert fh.reads <= 2 + 2 * workers


# a small canonical log body of two interleaved settings, and the bytes
# that single_byte_edits inserts or puts in place of one of its bytes
EDITED_LOG = b"0,0,5,1\n0,1,9,2\n1,0,15,1\n1,1,0,0\n2,0,6,3\n2,1,10,1\n"
EDIT_BYTES = b"09,\n\r-+ x\xff"


def single_byte_edits(body):
    """body with one byte deleted, inserted or replaced, in every way."""
    for at in range(len(body)):
        yield body[:at] + body[at + 1:]
    for at in range(len(body) + 1):
        for byte in EDIT_BYTES:
            yield body[:at] + bytes([byte]) + body[at:]
    for at in range(len(body)):
        for byte in EDIT_BYTES:
            yield body[:at] + bytes([byte]) + body[at + 1:]


def plain_parse(body):
    """(tallies, truth_pairs, pulses) of a log body by plain Python, or
    None when the body is not in the writer's form or its rows are out
    of order or range."""
    text = body.decode("latin-1")
    if not text.endswith("\n"):
        return None
    fields = [line.split(",") for line in text[:-1].split("\n")]
    if not all(len(row) == 4 and all(f.isascii() and f.isdigit() for f in row)
               for row in fields):
        return None
    counts, truth, pulses = {}, {}, {}
    for index, s_idx, pattern, pairs in ([int(f) for f in row] for row in fields):
        if (max(index, s_idx, pattern, pairs) >= 2**63 - 1 or pattern >= N_PATTERNS
                or index != pulses.get(s_idx, 0)):
            return None
        pulses[s_idx] = index + 1
        truth[s_idx] = truth.get(s_idx, 0) + pairs
        counts.setdefault(s_idx, np.zeros(N_PATTERNS, dtype=np.int64))[pattern] += 1
    order = sorted(pulses)
    return ([Tally(counts[s], setting_index=s) for s in order],
            [truth[s] for s in order], [pulses[s] for s in order])


def savetxt_log_chunk(fh, lo, setting_index, patterns, m):
    """The np.savetxt event-log writer, kept as the byte-level reference."""
    n = len(patterns)
    table = np.empty((n, 4), dtype=np.int64)
    table[:, 0] = np.arange(lo, lo + n)
    table[:, 1] = setting_index
    table[:, 2] = patterns
    table[:, 3] = m
    np.savetxt(fh, table, fmt="%d", delimiter=",")


def assert_same_log(got, want):
    # names the first differing line; a plain == on logs of 10^5 lines
    # makes pytest's failure diff take minutes
    if got != want:
        pairs = enumerate(zip(got.splitlines(), want.splitlines()), start=1)
        line = next((i for i, (a, b) in pairs if a != b), None)
        pytest.fail(f"logs differ at line {line} "
                    f"({len(got)} against {len(want)} characters)")


class TestLogWriter:
    """The vectorized event-log writer against np.savetxt, byte for byte."""

    def streams(self, n, seed, n_max=SRC_240M.n_max):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, N_PATTERNS, n).astype(np.uint8)
        m = rng.integers(0, n_max + 1, n).astype(np.int16)
        m[:2] = 0, n_max
        return patterns, m

    # the last three put the writer on the stream layout's extremes:
    # 16-digit pulse indices up to the last one a setting holds, and pair
    # numbers up to a three-digit n_max; with the largest setting index
    @pytest.mark.parametrize("lo, n, n_max", [
        pytest.param(0, 25, 4, id="0-25"),  # 9 -> 10
        pytest.param(99_990, 20, 4, id="99990-20"),  # 99_999 -> 100_000
        pytest.param(1_048_570, 12, 4, id="1048570-12"),  # 1_048_575 -> 1_048_576
        # past one slice, 5 -> 6 digits
        pytest.param(99_999 - 70_000, (1 << 16) + 5_000, 4, id="29999-70536"),
        pytest.param(10**15 - 10, 20, 4, id="15-to-16-digits"),
        pytest.param(MAX_PULSES_PER_SETTING - 40, 40, 999, id="last-pulse-index"),
        pytest.param(0, 3_000, 999, id="n_max-999"),
    ])
    @pytest.mark.parametrize("setting_index", [0, 12, 2**24 - 1])
    def test_matches_savetxt(self, tmp_path, lo, n, n_max, setting_index):
        patterns, m = self.streams(n, seed=lo + setting_index, n_max=n_max)
        want, got = io.StringIO(), io.StringIO()
        savetxt_log_chunk(want, lo, setting_index, patterns, m)
        simulator._write_log_chunk(got, lo, setting_index, patterns, m)
        assert_same_log(got.getvalue(), want.getvalue())
        path = tmp_path / "chunk.csv"
        with open(path, "w", newline="") as fh:
            simulator._write_log_chunk(fh, lo, setting_index, patterns, m)
        assert_same_log(path.read_bytes(), want.getvalue().encode("ascii"))

    def test_threaded_small_chunks_match_savetxt_log(self, monkeypatch):
        # chunks of 7 put the 9 -> 10 and 99 -> 100 index steps inside
        # chunks, and 12 settings give two-digit setting indices
        cfg = ExperimentConfig(
            source=SRC_240M, eff=EFF_240M,
            settings=tuple(PhaseSetting(0.25 * k, 0.0) for k in range(12)),
            pulses_per_setting=150, seed=77, chunk_size=7)
        serial, threaded, reference = io.StringIO(), io.StringIO(), io.StringIO()
        run_experiment(cfg, event_log=serial)
        run_experiment(cfg, workers=2, event_log=threaded)
        monkeypatch.setattr(simulator, "_write_log_chunk", savetxt_log_chunk)
        run_experiment(cfg, event_log=reference)
        assert_same_log(serial.getvalue(), reference.getvalue())
        assert_same_log(threaded.getvalue(), reference.getvalue())
        assert serial.getvalue().count("\n") == 1 + 12 * 150

    def test_chunk_peak_memory(self, tmp_path):
        # formatting runs in fixed row slices: a full default chunk stays
        # far below the (n, 4) int64 table np.savetxt needed (32 MiB)
        patterns, m = self.streams(1 << 20, seed=3)
        with open(tmp_path / "chunk.csv", "w", newline="") as fh:
            tracemalloc.start()
            try:
                simulator._write_log_chunk(fh, 3 << 20, 7, patterns, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSampleTally:
    def test_counts_sum_to_pulses(self):
        rng = stream_generator(21, 1)
        tally = sample_tally(SRC_240M, EFF_240M, 0.8, 300_000, rng)
        assert tally.total == 300_000

    def test_matches_distribution(self):
        rng = stream_generator(22, 1)
        tally = sample_tally(SRC_240M, EFF_240M, 0.8, 10**6, rng)
        p = chi_square_p(
            tally.counts, pattern_distribution(SRC_240M, EFF_240M, 0.8).probs
        )
        assert p > 1e-3


def sample_blocked_run_pulse_level(source, eff, u, k_bar, s, rng,
                                   setting_index=0, chunk=1 << 18):
    """Reference blocked acquisition on the explicit pulse path.

    Streams pulses until the (k_bar*s)-th informative event, trims at
    exactly that pulse, and cuts blocks by informative arrival order.
    Slower than sample_blocked_run by orders of magnitude; exists to
    cross-validate the factorized sampler.
    """
    if k_bar < 1 or s < 1:
        raise ConfigurationError("blocked run needs k_bar >= 1 and s >= 1")
    need = k_bar * s
    codes = []
    counts = np.zeros(N_PATTERNS, dtype=np.int64)
    collected = 0
    pulses = 0
    while collected < need:
        patterns, _ = sample_patterns(source, eff, u, rng, chunk)
        keep_mask = _SLOT_OF_PATTERN[patterns] >= 0
        kept = patterns[keep_mask]
        if collected + len(kept) >= need:
            # trim the chunk at the pulse carrying the final needed event
            take = need - collected
            cut = int(np.nonzero(keep_mask)[0][take - 1]) + 1
            patterns = patterns[:cut]
            kept = kept[:take]
        counts += np.bincount(patterns, minlength=N_PATTERNS)
        codes.append(kept)
        collected += len(kept)
        pulses += len(patterns)
    return BlockedRunSample(
        block_counts=cut_blocks(np.concatenate(codes), k_bar, s),
        tally=Tally(counts, setting_index=setting_index),
        pulses=pulses,
    )


class TestBlockedRun:
    def test_shapes_and_exact_bookkeeping(self):
        rng = stream_generator(31, 2)
        run = sample_blocked_run(SRC_240M, EFF_240M, math.pi / 2, 400, 50, rng)
        assert run.block_counts.shape == (50, 9)
        np.testing.assert_array_equal(run.block_counts.sum(axis=1), 400)
        assert run.tally.c_sum == 400 * 50
        assert run.tally.total == run.pulses

    def test_pulse_level_bookkeeping(self):
        rng = stream_generator(32, LANE_PULSES)
        run = sample_blocked_run_pulse_level(
            SRC_240M, EFF_240M, math.pi / 2, 300, 20, rng, chunk=1 << 14
        )
        np.testing.assert_array_equal(run.block_counts.sum(axis=1), 300)
        assert run.tally.c_sum == 300 * 20
        assert run.tally.total == run.pulses
        # the trimmed stream always ends on an informative pulse
        assert run.pulses >= 300 * 20

    def test_factorized_and_pulse_paths_agree(self):
        # Same distribution, different mechanics: compare informative-type
        # totals (chi-square against the analytic conditional law) and the
        # pulse totals (negative-binomial scale) on both paths.
        k_bar, s = 500, 60
        dist = pattern_distribution(SRC_240M, EFF_240M, 1.1)
        p_inf = dist.informative_probability()
        q = dist.probs[list(INFORMATIVE_PATTERNS)] / p_inf

        fac = sample_blocked_run(
            SRC_240M, EFF_240M, 1.1, k_bar, s, stream_generator(41, 2)
        )
        pul = sample_blocked_run_pulse_level(
            SRC_240M, EFF_240M, 1.1, k_bar, s, stream_generator(42, LANE_PULSES)
        )
        for run in (fac, pul):
            totals = run.block_counts.sum(axis=0)
            assert chi_square_p(totals, q) > 1e-3
            nb_mean = k_bar * s / p_inf
            nb_sd = math.sqrt(k_bar * s * (1 - p_inf)) / p_inf
            assert abs(run.pulses - nb_mean) < 5 * nb_sd

        # per-block count variance matches the multinomial law on both paths
        for run in (fac, pul):
            col = run.block_counts[:, list(INFORMATIVE_PATTERNS).index(0b0101)]
            var_want = k_bar * q[list(INFORMATIVE_PATTERNS).index(0b0101)] * (
                1 - q[list(INFORMATIVE_PATTERNS).index(0b0101)]
            )
            # chi-square bounds on a sample variance with s-1 dof
            ratio = col.var(ddof=1) / var_want
            lo = stats.chi2.ppf(5e-4, s - 1) / (s - 1)
            hi = stats.chi2.ppf(1 - 5e-4, s - 1) / (s - 1)
            assert lo < ratio < hi

    def test_blocked_run_validation(self):
        rng = stream_generator(51, 2)
        with pytest.raises(ConfigurationError):
            sample_blocked_run(SRC_240M, EFF_240M, 1.0, 0, 5, rng)
        with pytest.raises(ConfigurationError):
            sample_blocked_run_pulse_level(SRC_240M, EFF_240M, 1.0, 5, 0, rng)


def per_event_block_counts(stream, k_bar, s):
    """The per-event cutter that cut_blocks replaced, kept as its reference."""
    slot = {p: i for i, p in enumerate(INFORMATIVE_PATTERNS)}
    codes = np.array([slot[p] for p in stream if p in slot], dtype=np.intp)
    used = codes[: s * k_bar].reshape(s, k_bar)
    block_counts = np.zeros((s, len(INFORMATIVE_PATTERNS)), dtype=np.int64)
    for b in range(s):
        block_counts[b] = np.bincount(used[b], minlength=len(INFORMATIVE_PATTERNS))
    return block_counts


class TestCutBlocks:
    @pytest.mark.parametrize("n, k_bar, dtype", [
        (1000, 7, np.uint8), (5003, 64, np.int64), (300, 1, np.uint8),
        (40_000, 333, np.int64),
    ])
    def test_matches_per_event_reference(self, n, k_bar, dtype):
        stream = np.random.default_rng(n).integers(0, N_PATTERNS, size=n).astype(dtype)
        K = int(np.isin(stream, INFORMATIVE_PATTERNS).sum())
        assert K < n  # the stream mixes in non-informative patterns
        assert k_bar == 1 or K % k_bar  # the last partial block is dropped
        s = K // k_bar
        got = cut_blocks(stream, k_bar, s)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, per_event_block_counts(stream.tolist(), k_bar, s))

    def test_fewer_blocks_than_the_stream_holds(self):
        stream = np.random.default_rng(3).integers(0, N_PATTERNS, size=2000)
        full = cut_blocks(stream, 50, 20)
        np.testing.assert_array_equal(cut_blocks(stream, 50, 7), full[:7])

    def test_short_stream_rejected(self):
        with pytest.raises(EmptyStatisticsError):
            cut_blocks(np.array([5, 0, 9, 15]), 2, 2)
