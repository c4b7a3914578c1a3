"""Deterministic Monte Carlo generation of per-pulse click patterns.

Every random draw in the package flows from one 64-bit seed through
counter-based streams: a chunk of work owns the Philox generator keyed by

    key = [seed, (lane << 56) | (setting_index << 32) | (chunk_index)]

so any chunk's stream is reproducible in isolation and independent of
every other chunk.  A run splits each setting's pulse range into
fixed-size chunks, samples each chunk on its own stream, and reduces the
results in (setting, chunk) order; the output is therefore bit-identical
for any worker count, including zero (sequential).  A threaded run feeds
every (setting, chunk) item of the run to one pool, with at most
2 * workers chunks in flight across setting boundaries; the same ordered
map runs the blocked setpoints of randomphase, each on its own stream,
and parses the event-log reader's text blocks.

Two sampling paths are exposed:

- the pulse path (`run_experiment`, `sample_patterns`, `tally_pulses`):
  every pulse is drawn explicitly - pair number, per-pair route under
  the sensing law (model.coincidence_probs), per-photon survival - and
  carries the emitted-pair truth side channel used by the resource
  audit.  The pair-number, route and click draws are fixed by the
  determinism contract.  Each draw is one of Philox's raw 64-bit words,
  and each test is an integer compare of the word's top 53 bits with a
  step ceil(p * 2**53) of a weight p, which decides exactly as the
  compare of Generator.random()'s double with p; so a replay rests on
  Philox's output, not on numpy's conversion of words to doubles.  The
  pair numbers and routes are computed on the emitting pulses only, by
  counting the steps of the cumulative weights each word passes, which
  equals searchsorted plus the clip to the last bin.
  `tally_pulses` reduces a chunk to its 16 counts and truth total
  without per-pulse arrays; `sample_patterns` scatters the same draws
  into per-pulse arrays for the event log;
- distributional shortcuts (`sample_tally`, `sample_blocked_run`): the
  per-pulse outcome is an iid categorical over the 16 patterns, so a run
  that only needs counts can be drawn as a multinomial, and a blocked run
  (s blocks of k_bar informative events each) factorizes exactly into a
  negative-binomial pulse total, per-block multinomials over the nine
  informative types, and a multinomial over the non-informative types.
  The factorization is an identity, not an approximation; the test suite
  checks the two paths against each other.
"""

from __future__ import annotations

import io
import os
from collections import deque
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError, DomainError, EmptyStatisticsError
from .events import Tally
from .model import (
    INFORMATIVE_PATTERNS,
    N_PATTERNS,
    EfficiencyBudget,
    PhaseSetting,
    SourceParams,
    coincidence_probs,
    global_phase,
    pattern_distribution,
)

__all__ = [
    "LANE_PULSES",
    "LANE_TALLY",
    "LANE_BLOCKS",
    "LANE_BITS",
    "MAX_PULSES_PER_SETTING",
    "ExperimentConfig",
    "ExperimentResult",
    "BlockedRunSample",
    "stream_generator",
    "sample_patterns",
    "tally_pulses",
    "run_experiment",
    "sample_tally",
    "sample_blocked_run",
    "cut_blocks",
    "read_event_log",
    "EVENT_LOG_HEADER",
]

# Stream lanes keep unrelated consumers of the same seed independent.
LANE_PULSES = 0  # pulse-path sampling
LANE_TALLY = 1  # multinomial tally shortcut
LANE_BLOCKS = 2  # blocked-run shortcut
LANE_BITS = 3  # random-bit source (phase QRNG stand-in)

_DEFAULT_CHUNK = 1 << 20
_CHUNK_LIMIT = 1 << 32  # chunk indices the stream key's low 32 bits hold
# the most pulses a setting can draw at the default chunk size
MAX_PULSES_PER_SETTING = (_CHUNK_LIMIT - 1) * _DEFAULT_CHUNK
_LOG_SLICE = 1 << 13  # rows formatted at once; sizes the writer's buffers
# characters read at once: a reader's text block, of which 2 * threads are in flight
_LOG_CHARS = 1 << 17
_INT64_MAX = np.iinfo(np.int64).max

EVENT_LOG_HEADER = "pulse_index,setting_index,pattern,truth_pairs"

# informative slot of each pattern, in INFORMATIVE_PATTERNS order; -1 for
# the non-informative ones, listed after it in pattern order
_SLOT_OF_PATTERN = np.full(N_PATTERNS, -1, dtype=np.int64)
_SLOT_OF_PATTERN[list(INFORMATIVE_PATTERNS)] = np.arange(len(INFORMATIVE_PATTERNS))
_NON_INFORMATIVE_PATTERNS = np.flatnonzero(_SLOT_OF_PATTERN < 0)


def stream_generator(seed, lane, setting_index=0, chunk_index=0):
    """Philox generator for one work chunk, keyed, never seeded serially.

    The second key word packs (lane, setting_index, chunk_index) as
    (8, 24, 32) bits; the ranges are validated because silent wrap-around
    would alias streams.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    lane = int(lane)
    setting_index = int(setting_index)
    chunk_index = int(chunk_index)
    if not 0 <= lane < 2**8:
        raise ConfigurationError(f"lane must be in [0, 255], got {lane}")
    if not 0 <= setting_index < 2**24:
        raise ConfigurationError(
            f"setting_index must be in [0, 2^24), got {setting_index}"
        )
    if not 0 <= chunk_index < _CHUNK_LIMIT:
        raise ConfigurationError(f"chunk_index must be in [0, 2^32), got {chunk_index}")
    word = (lane << 56) | (setting_index << 32) | chunk_index
    return np.random.Generator(np.random.Philox(key=[seed, word]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a simulated acquisition.

    pulses_per_setting need not be a multiple of chunk_size: chunk
    boundaries are fixed at multiples of chunk_size and the final chunk is
    simply short, so the chunk decomposition (and hence every random
    stream) depends only on (pulses_per_setting, chunk_size), never on the
    worker count.
    """

    source: SourceParams
    eff: EfficiencyBudget
    settings: tuple
    pulses_per_setting: int
    seed: int
    chunk_size: int = _DEFAULT_CHUNK

    def __post_init__(self):
        settings = tuple(self.settings)
        if not settings:
            raise ConfigurationError("config needs at least one phase setting")
        for s in settings:
            if not isinstance(s, PhaseSetting):
                raise ConfigurationError(f"settings must be PhaseSetting, got {s!r}")
        object.__setattr__(self, "settings", settings)
        if not isinstance(self.pulses_per_setting, int) or self.pulses_per_setting < 1:
            raise ConfigurationError(
                f"pulses_per_setting must be an integer >= 1, got {self.pulses_per_setting}"
            )
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be an integer >= 1, got {self.chunk_size}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned, got {self.seed}")
        if len(settings) >= 2**24:
            raise ConfigurationError("too many settings for the stream layout")
        n_chunks = -(-self.pulses_per_setting // self.chunk_size)
        if n_chunks >= _CHUNK_LIMIT:
            raise ConfigurationError("too many chunks for the stream layout")


@dataclass
class ExperimentResult:
    """Per-setting tallies plus the simulation-truth pair totals; patterns
    holds each setting's informative click patterns in log order when
    read back from an event log."""

    tallies: list
    truth_pairs: list
    pulses: list
    patterns: list | None = None


def _alice_bob_index(routes):
    # route order (A1B1, A1B2, A2B1, A2B2): alice = r >> 1, bob = r & 1
    return routes >> 1, routes & 1


def _steps(p):
    """The integer steps ceil(p * 2**53) of probabilities p, as uint64.

    Generator.random() on Philox reads a raw word w as the double
    k * 2**-53, k = w >> 11, so against a probability p, r >= p holds
    exactly when k >= step and r < p exactly when k < step.  A p that
    rounds to 1 gives the step 2**53, which no k reaches.
    """
    return np.ceil(np.ldexp(p, 53)).astype(np.uint64)


def _edges_passed(steps, k):
    """How many of the ascending steps each k is at or above, as int16.

    Equals searchsorted(edges, k * 2**-53, side="right") for the edges
    that the steps come from; a caller that leaves the last edge of a
    cumulative distribution out gets the clip to its last bin, which
    guards roundoff in the final cumsum, for free.
    """
    passed = np.zeros(len(k), dtype=np.int16)
    for step in steps:
        passed += k >= step
    return passed


def _draw_emitting(source, eff, u, rng, n):
    """One chunk of the pulse path, kept only where a pair was emitted.

    Returns (idx int64[k], patterns uint8[k], m int16[k]): the indices of
    the k pulses with m >= 1 pairs, in order, with their click patterns
    and pair numbers; every other pulse has pattern 0 and m = 0.  The
    draw sequence per chunk is fixed: pair numbers, then routes, then
    Alice survivals, then Bob survivals; changing it would change every
    seeded result, so it is part of the determinism contract.  Each draw
    is one of Philox's raw 64-bit words, tested against the _steps of
    the cumulative pair weights, the cumulative route weights and the
    channel efficiencies by integer compares, which decide as the
    compares of Generator.random()'s doubles with those weights would.
    """
    if n < 0:
        raise ConfigurationError(f"pulse count must be >= 0, got {n}")
    pair_steps = _steps(np.cumsum(source.pair_weights()))
    route_steps = _steps(np.cumsum(coincidence_probs(u, source.visibility)))
    click_steps = _steps(eff.as_array())
    raw = rng.bit_generator.random_raw

    words = raw(n)
    # k >= step is w >= step << 11, a bound no word reaches for the step 2**53
    emit = int(pair_steps[0]) << 11
    idx = (np.flatnonzero(words >= np.uint64(emit)) if emit < 2**64
           else np.zeros(0, dtype=np.intp))
    m = _edges_passed(pair_steps[1:source.n_max], words[idx] >> 11)
    m += 1  # pair_steps[0], the step every emitting pulse passed
    total = int(m.sum())
    routes = _edges_passed(route_steps[:3], raw(total) >> 11)
    a_idx, b_idx = _alice_bob_index(routes)
    a_click = raw(total) >> 11 < click_steps[a_idx]
    b_click = raw(total) >> 11 < click_steps[2 + b_idx]
    masks = (a_click << a_idx | (b_click << (2 + b_idx))).astype(np.uint8)

    starts = np.cumsum(m, dtype=np.int64) - m  # each pulse's first photon
    return idx, np.bitwise_or.reduceat(masks, starts), m


def sample_patterns(source, eff, u, rng, n):
    """Vectorized pulse path: n pulses on a caller-owned generator.

    Returns (patterns uint8[n], truth_pairs int16[n]).  The draws are
    Philox's raw words, in the fixed order of _draw_emitting; the pair
    numbers and routes are computed on the emitting pulses only, by
    counting the integer steps of the cumulative weights each word's top
    53 bits pass, which equals searchsorted(side="right") on the doubles
    Generator.random() would give, followed by the clip to the last bin.
    """
    idx, emitting, m_emitting = _draw_emitting(source, eff, u, rng, n)
    patterns = np.zeros(n, dtype=np.uint8)
    patterns[idx] = emitting
    m = np.zeros(n, dtype=np.int16)
    m[idx] = m_emitting
    return patterns, m


def tally_pulses(source, eff, u, rng, n):
    """The pulse path reduced to counts: n pulses, no per-pulse arrays.

    Returns (counts int64[16], truth_pairs int), equal to the bincount of
    sample_patterns' patterns and the sum of its pair numbers for the same
    generator state: the same raw words, compared with the same integer
    steps (see _draw_emitting).  Leaves the generator where
    sample_patterns does.
    """
    idx, patterns, m = _draw_emitting(source, eff, u, rng, n)
    counts = np.bincount(patterns, minlength=N_PATTERNS)
    counts[0] += n - len(idx)
    return counts, int(m.sum(dtype=np.int64))


def run_experiment(config, *, workers=None, event_log=None):
    """Run the full pulse-path acquisition described by config.

    Deterministic given (config.seed, config.chunk_size): chunk streams
    are keyed by (seed, setting, chunk) and reduced in (setting, chunk)
    order, so any worker count gives bit-identical tallies and event logs.
    The chunks go through _ordered_map: one pool of `workers` threads
    serves the whole run (none when workers is unset or 1) and keeps at
    most 2 * workers chunks in flight, across setting boundaries.  Each
    chunk's 16 counts are added into its setting's int64 row.  A
    PhaseSetting is fully checked when it is built, so no setting fails
    part way through a run.  When event_log is a path or writable text
    file, every pulse is appended as
    `pulse_index,setting_index,pattern,truth_pairs`; without a log each
    chunk is reduced by tally_pulses, with the same draws.
    """
    phases = [3.0 * global_phase(setting) for setting in config.settings]
    pulses, chunk_size = config.pulses_per_setting, config.chunk_size
    work = [(s_idx, c_idx, lo, min(chunk_size, pulses - lo))
            for s_idx in range(len(phases))
            for c_idx, lo in enumerate(range(0, pulses, chunk_size))]

    def draw(item):
        s_idx, c_idx, lo, size = item
        rng = stream_generator(config.seed, LANE_PULSES, s_idx, c_idx)
        args = (config.source, config.eff, phases[s_idx], rng, size)
        if event_log is None:
            return s_idx, lo, *tally_pulses(*args), None
        patterns, m = sample_patterns(*args)
        return (s_idx, lo, np.bincount(patterns, minlength=N_PATTERNS),
                int(m.sum(dtype=np.int64)), (patterns, m))

    counts = np.zeros((len(phases), N_PATTERNS), dtype=np.int64)
    truth = [0] * len(phases)
    to_file = event_log is not None and not hasattr(event_log, "write")
    with (
        open(Path(event_log), "w", newline="") if to_file
        else nullcontext(event_log) as log_fh,
        closing(_ordered_map(draw, work, workers)) as drawn,
    ):
        if log_fh is not None:
            log_fh.write(EVENT_LOG_HEADER + "\n")
        for s_idx, lo, chunk_counts, chunk_truth, rows in drawn:
            counts[s_idx] += chunk_counts
            truth[s_idx] += chunk_truth
            if rows is not None:
                _write_log_chunk(log_fh, lo, s_idx, *rows)
    tallies = [Tally(row, setting_index=s_idx) for s_idx, row in enumerate(counts)]
    return ExperimentResult(tallies, truth, [pulses] * len(phases))


def _ordered_map(fn, items, workers):
    """Yield fn(item) for each of items, in item order.

    Serial, with no pool, when workers is unset or at most 1.  Otherwise
    one ThreadPoolExecutor of `workers` threads runs the items, with at
    most 2 * workers of them submitted and not yet consumed, so a slow
    consumer (the event-log writer) holds at most that many results in
    memory.  items is drawn lazily on the calling thread, at most one
    past those submitted, so it may read a file or a pipe.  The first
    item to raise, in item order, raises here, and the items not yet
    started are cancelled; the pool is shut down when the generator
    finishes or is closed.
    """
    if not workers or workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _usable_cores():
    """Cores this process may run on: its affinity set where the platform
    reports one, else os.cpu_count(), else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _write_log_chunk(fh, lo, setting_index, patterns, m):
    n = len(patterns)
    table = _CsvRows((max(lo + n - 1, 0), setting_index, int(patterns.max(initial=0)),
                      int(m.max(initial=0))), min(n, _LOG_SLICE))
    for start in range(0, n, _LOG_SLICE):
        stop = min(start + _LOG_SLICE, n)
        fh.write(table.format((np.arange(lo + start, lo + stop), setting_index,
                               patterns[start:stop], m[start:stop])))


class _CsvRows:
    """Formats slices of non-negative integer columns as ASCII CSV rows.

    Gives the text of np.savetxt(fmt="%d", delimiter=","): each row is its
    values in decimal without leading zeros, joined by "," and ended by
    "\n".  Each column fills a field of right-aligned characters, as wide
    as the largest value it will hold (maxima), in one (rows, characters)
    uint8 matrix.  A field's digits come from the right, one floor
    division by the scalar 10 each: the digit is the value less ten times
    its quotient, and the last quotient is the leading digit itself.
    Leading zeros are NUL bytes, so the matrix's bytes with the NULs
    deleted are the text.  A column given as an int is the same value on
    every row.  The matrix and the digit arithmetic live in buffers made
    once for slices of up to `rows` rows, so formatting one slice after
    another allocates only copies of the text.
    """

    def __init__(self, maxima, rows):
        self.widths = [len(str(value)) for value in maxima]
        chars = sum(self.widths) + len(self.widths)
        self.cells = np.empty((rows, chars), dtype=np.uint8)
        # value, quotient, digit, and the offset of a digit's character
        self.work = np.empty((4, rows), dtype=np.int64)
        ends = np.cumsum(np.add(self.widths, 1))
        self.cells[:, ends - 1] = ord(",")
        self.cells[:, -1] = ord("\n")

    def format(self, columns):
        size = len(columns[0])
        cells = self.cells[:size]
        start = 0
        for col, width in zip(columns, self.widths):
            field = cells[:, start:start + width]
            start += width + 1
            value, quotient, digit, offset = self.work[:, :size]
            np.copyto(value, col)
            for j in range(width):  # the j-th digit from the right
                if j < width - 1:
                    np.floor_divide(value, 10, out=quotient)
                    np.multiply(quotient, 10, out=digit)
                    np.subtract(value, digit, out=digit)
                else:  # the leading digit is the last quotient itself
                    digit = value
                char = field[:, width - 1 - j]
                if j:  # a leading zero, where the value is 0, stays NUL
                    np.minimum(value, 1, out=offset)
                    np.multiply(offset, ord("0"), out=offset)
                    np.add(digit, offset, out=char, casting="unsafe")
                else:
                    np.add(digit, ord("0"), out=char, casting="unsafe")
                value, quotient = quotient, value
        return cells.tobytes().translate(None, b"\0").decode("ascii")


def read_event_log(path_or_file):
    """Parse an event-log CSV back into per-setting tallies and truth totals.

    Accepts a path or a readable text file, a pipe included, holding a
    log in the form run_experiment writes: the header line, exactly
    EVENT_LOG_HEADER and "\n", then one line per pulse of four unsigned
    decimal integers below 2**63 - 1 (leading zeros allowed), joined by
    "," and ended by "\n".  Nothing else reads: not "\r\n" or "\r" line
    ends, blank lines, signs, spaces, a header with anything around it,
    a last line without its "\n", nor a byte outside ASCII.  A path is
    opened as latin-1 with newline="\n", so every byte reaches that check
    as it is; a file object is read as its caller decodes it.  The log is
    read once, by the calling thread, in blocks of whole lines of about
    _LOG_CHARS characters.  The blocks go through _ordered_map on
    min(usable cores, blocks) threads (the block count is known for a
    path only), where _summarize_log_block parses each and reduces it to
    per-setting summaries; the calling thread merges the summaries in
    block order into running per-setting totals.  So memory is bounded
    by 2 * threads blocks in flight, text and summary, plus the
    informative events, and the result is the same at any thread count.
    Returns an ExperimentResult whose tallies are ordered by setting
    index, with each setting's informative click patterns (uint8, in log
    order) as its patterns, for callers that cut blocks by arrival.
    ConfigurationError names the first line not in that form, the header
    being line 1, and the setting and pulse_index of a pattern above 15.
    So does a setting whose pulse_index column, in log order, is not 0,
    1, ..., P-1: a log with pulses left out or repeated would audit a
    post-selected record as complete.  Settings may interleave.  The
    first error in log order is raised: within a block, a line's form,
    then a pattern's range, then pulse_index order, setting by setting.
    """
    if not hasattr(path_or_file, "read"):
        with open(Path(path_or_file), encoding="latin-1", newline="\n") as fh:
            blocks = os.fstat(fh.fileno()).st_size // _LOG_CHARS + 1
            return _read_log_blocks(fh, min(_usable_cores(), blocks))
    return _read_log_blocks(path_or_file, _usable_cores())


def _read_log_blocks(fh, threads):
    """read_event_log of an open text file, on `threads` threads."""
    first = fh.readline()
    if first != EVENT_LOG_HEADER + "\n":
        first = first.removesuffix("\n")
        raise ConfigurationError(
            f"event log: line 1 ({first!r}) is not the header "
            f"{EVENT_LOG_HEADER!r} ended by '\\n'")

    def texts():
        # a block of whole lines: _LOG_CHARS characters and the rest of the last line
        while text := fh.read(_LOG_CHARS) + fh.readline():
            yield text

    counts, truth, informative = {}, {}, {}
    pulses = {}  # per setting: the pulses read, so the pulse_index expected next
    line = 1  # lines read
    with closing(_ordered_map(_summarize_log_block, texts(), threads)) as summaries:
        for lines, bad, settings in summaries:
            if bad is not None:
                number, row = bad
                raise ConfigurationError(
                    f"event log: line {line + number} ({row!r}) is not 4 unsigned "
                    f"integers joined by ',' and ended by '\\n'")
            line += lines
            for block in settings:
                s_idx, done = block.setting, pulses.get(block.setting, 0)
                gap = (0, block.first) if block.first != done else block.gap
                if gap is not None:
                    raise ConfigurationError(
                        f"event log: setting {s_idx} has pulse_index {gap[1]} "
                        f"where {done + gap[0]} is expected; each setting's pulses "
                        f"must run 0, 1, 2, ... in log order, none left out or repeated"
                    )
                pulses[s_idx] = done + block.rows
                truth[s_idx] = truth.get(s_idx, 0) + block.truth
                counts[s_idx] = counts.get(s_idx, 0) + block.counts
                informative.setdefault(s_idx, []).append(block.informative)
    if not pulses:
        raise EmptyStatisticsError("event log has no rows")
    order = sorted(pulses)
    return ExperimentResult([Tally(counts[s], setting_index=s) for s in order],
                            [truth[s] for s in order], [pulses[s] for s in order],
                            [np.concatenate(informative[s]) for s in order])


class _SettingBlock(NamedTuple):
    """One setting's rows in one text block of an event log."""

    setting: int
    rows: int
    first: int  # the first row's pulse_index
    gap: tuple | None  # (row j, its pulse_index) of the first j > 0 not first + j
    counts: np.ndarray  # the 16 pattern counts
    truth: int  # the truth_pairs sum
    informative: np.ndarray  # the informative patterns, uint8, in log order


def _summarize_log_block(text):
    """One block of whole event-log lines, parsed and reduced per setting.

    Returns (lines, bad, settings).  When the block is not in the
    writer's form, bad is (number, line) of its first line refused on its
    own, numbered from 1 within the block.  Otherwise lines is the
    block's line count and settings its _SettingBlock summaries in
    setting order.  A pattern above 15 raises ConfigurationError, naming
    the block's first such row.
    """
    rows = _parse_log_block(text)
    if rows is None:
        numbered = enumerate(io.StringIO(text, newline="\n"), start=1)
        return 0, next((number, row.removesuffix("\n")) for number, row in numbered
                       if _parse_log_block(row) is None), []
    out_of_range = rows[:, 2] >= N_PATTERNS
    if out_of_range.any():
        index, s_idx, pattern, _ = rows[np.argmax(out_of_range)].tolist()
        raise ConfigurationError(
            f"event log: setting {s_idx}, pulse_index {index} has pattern "
            f"{pattern}, outside 0..{N_PATTERNS - 1}")
    settings = rows[:, 1]
    if (settings == settings[0]).all():  # the usual block: one setting
        groups = [(int(settings[0]), rows)]
    else:  # gathers by row number beat a mask
        groups = [(s_idx, rows[np.flatnonzero(settings == s_idx)])
                  for s_idx in np.unique(settings).tolist()]
    summaries = []
    for s_idx, own in groups:
        index, stream = own[:, 0], own[:, 2]
        gap = np.flatnonzero(np.diff(index) != 1)[:1] + 1
        summaries.append(_SettingBlock(
            s_idx, len(own), int(index[0]),
            (int(gap[0]), int(index[gap[0]])) if gap.size else None,
            np.bincount(stream, minlength=N_PATTERNS), int(own[:, 3].sum()),
            stream[_SLOT_OF_PATTERN[stream] >= 0].astype(np.uint8)))
    return len(rows), None, summaries


def _parse_log_block(text):
    """Event-log lines in the writer's form as an int64 array of 4
    columns, or None when the text is not in that form.

    The form is four unsigned decimal integers a line, joined by "," and
    ended by "\n".  The text must hold ASCII digits, commas and "\n" only,
    its commas and line ends must run ",,,\n" line after line, and
    np.fromstring must read one value per comma or line end from it, so
    no field is empty and no digits follow the last line end.  The first
    two are one bytes-level test: the text with its digits deleted by
    bytes.translate equals ",,,\n" repeated.  np.fromstring saturates an
    out-of-range field at the int64 maximum, so a text holding that value
    is refused too, and every value read is below 2**63 - 1.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    # every byte but a digit
    separators = raw.translate(None, b"0123456789")
    if separators != b",,,\n" * (len(separators) // 4):
        return None
    try:
        values = np.fromstring(raw.replace(b"\n", b","), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if values.size != len(separators) or values.max() == _INT64_MAX:
        return None
    return values.reshape(-1, 4)


def sample_tally(source, eff, u, pulses, rng, setting_index=0):
    """Multinomial shortcut: a pulse-count tally without per-pulse draws.

    Distribution-exact because pulses are iid categorical over the 16
    patterns.  No truth side channel (pair numbers are integrated out).
    """
    if pulses < 0:
        raise ConfigurationError(f"pulse count must be >= 0, got {pulses}")
    dist = pattern_distribution(source, eff, u)
    counts = rng.multinomial(pulses, dist.probs)
    return Tally(counts.astype(np.int64), setting_index=setting_index)


@dataclass
class BlockedRunSample:
    """A run recorded as s blocks of exactly k_bar informative events.

    block_counts[b, j] counts block b's events of the j-th informative
    type, ordered as INFORMATIVE_PATTERNS.  tally is the full 16-type
    tally of the whole run (all blocks plus non-informative events);
    pulses is the number of pulse slots consumed, the final pulse being
    the run's last informative event.
    """

    block_counts: np.ndarray
    tally: Tally
    pulses: int


def cut_blocks(patterns, k_bar, s):
    """Count the first s*k_bar informative events of a pattern stream in blocks.

    Blocks follow arrival order: block b holds informative events
    b*k_bar .. (b+1)*k_bar - 1, non-informative patterns are skipped, and
    events past the last block are left out.  Returns block_counts[b, j],
    the count of the j-th INFORMATIVE_PATTERNS type in block b.
    """
    slots = _SLOT_OF_PATTERN[np.asarray(patterns)]
    slots = slots[slots >= 0][: k_bar * s]
    if len(slots) < k_bar * s:
        raise EmptyStatisticsError(
            f"stream holds {len(slots)} informative events; "
            f"{s} blocks of {k_bar} need {k_bar * s}"
        )
    n_slots = len(INFORMATIVE_PATTERNS)
    cells = np.arange(len(slots)) // k_bar * n_slots + slots
    return np.bincount(cells, minlength=s * n_slots).reshape(s, n_slots)


def sample_blocked_run(source, eff, u, k_bar, s, rng, setting_index=0):
    """Draw a blocked acquisition by its exact factorization.

    The pulse stream is iid, so conditioned on type (informative or not)
    events are iid categorical; blocks partition the informative events
    by arrival order, hence the s block count vectors are independent
    multinomial(k_bar, q).  The pulse total is k_bar*s plus a negative
    binomial number of non-informative pulses, and those split
    multinomially between no-click/single-side types.  Identical in
    distribution to running the pulse path and cutting blocks.
    """
    if k_bar < 1 or s < 1:
        raise ConfigurationError("blocked run needs k_bar >= 1 and s >= 1")
    dist = pattern_distribution(source, eff, u)
    inf_idx = list(INFORMATIVE_PATTERNS)
    p_inf = dist.informative_probability()
    if p_inf <= 0.0:
        raise DomainError("informative probability is zero at this setting")
    q = dist.probs[inf_idx] / p_inf
    block_counts = rng.multinomial(k_bar, q, size=s).astype(np.int64)

    failures = int(rng.negative_binomial(k_bar * s, p_inf))
    p_rest = dist.probs[_NON_INFORMATIVE_PATTERNS]
    rest_total = p_rest.sum()
    counts = np.zeros(N_PATTERNS, dtype=np.int64)
    counts[inf_idx] = block_counts.sum(axis=0)
    if failures and rest_total > 0.0:
        counts[_NON_INFORMATIVE_PATTERNS] = rng.multinomial(failures,
                                                            p_rest / rest_total)
    return BlockedRunSample(
        block_counts=block_counts,
        tally=Tally(counts, setting_index=setting_index),
        pulses=k_bar * s + failures,
    )

