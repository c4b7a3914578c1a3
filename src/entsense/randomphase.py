"""The library's phase runs: precision and threshold scans, and blind trials.

``precision_scan`` measures blocked precision on the interior setpoints
of the identifiable branch, ``threshold_scan`` sweeps a uniform channel
efficiency for the shot-noise crossing, and ``run_random_phase_experiment``
runs unknown-phase trials driven by a seeded random bit source.  The
command-line subcommands of the same names only write and print what
these return.

The hardware in the loop would be a quantum random number generator
rotating both sensors to phases nobody chose; here a counter-based
pseudo-random bit stream stands in, preserving the 64-bit block protocol
bit-exactly so the mapping from bit block to phase is the part under
test, not the entropy source.

Each trial folds its truth onto the identifiable branch before any
comparison, and truths landing at a fringe extremum are flagged in the
result rather than dropped: an extremum trial still spends its photons,
it just cannot localize the phase, and hiding that would quietly bias
any precision summary.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .config import dump_csv
from .errors import ConfigurationError, DomainError, EmptyStatisticsError
from .estimation import block_stats, estimate_blocks, fold_to_branch
from .model import (
    EfficiencyBudget,
    PhaseSetting,
    fisher_per_informative_event,
    global_phase,
)
from .resources import PrecisionReport, ResourceAudit, predicted_db_below_snl
from .simulator import (
    LANE_BITS,
    LANE_BLOCKS,
    LANE_TALLY,
    _ordered_map,
    _usable_cores,
    cut_blocks,
    sample_blocked_run,
    sample_tally,
    stream_generator,
)

__all__ = [
    "PHASE_BITS",
    "TRIALS_CSV_HEADER",
    "bits_to_phase",
    "random_bit_blocks",
    "draw_phase_settings",
    "is_extremum",
    "PhaseMeasurement",
    "measure_phase_point",
    "measure_logged_setting",
    "precision_scan",
    "threshold_scan",
    "PhaseTrial",
    "RandomPhaseTrialSet",
    "run_random_phase_experiment",
    "write_trials_csv",
]

PHASE_BITS = 64
TRIALS_CSV_HEADER = "index,estimated_phase_rad,stddev,stddev_err"

# |cos u| at or above this marks a fringe extremum: the likelihood loses
# its curvature on one side and per-block estimates pile on the branch
# boundary.
EXTREMUM_COS = 0.95


def bits_to_phase(bits):
    """Map exactly 64 bits, most significant first, onto [0, 2*pi).

    Accepts an iterable of 0/1 integers or a string of '0'/'1'
    characters; the block is read as an unsigned integer v and the phase
    is 2*pi * v / 2**64, tiling the circle evenly.  The tiling is
    injective in exact arithmetic; at double precision the step is far
    below one ulp near the top of the range, where the final block
    rounds to the full turn itself (the same phase as 0).
    """
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise DomainError("bit string may contain only '0' and '1'")
        values = [int(c) for c in bits]
    else:
        values = [int(b) for b in bits]
        if any(b not in (0, 1) for b in values):
            raise DomainError(f"bits must be 0 or 1, got {sorted(set(values))}")
    if len(values) != PHASE_BITS:
        raise DomainError(
            f"phase blocks are exactly {PHASE_BITS} bits, got {len(values)}"
        )
    v = 0
    for b in values:
        v = (v << 1) | b
    return 2.0 * math.pi * v / 2.0 ** PHASE_BITS


def random_bit_blocks(seed, count):
    """Deterministic (count, 64) array of bits from the bit-source lane."""
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    rng = stream_generator(seed, LANE_BITS)
    return rng.integers(0, 2, size=(count, PHASE_BITS), dtype=np.uint8)


def draw_phase_settings(seed, num_phases):
    """Draw (theta_a, theta_b) pairs, two 64-bit blocks per phase.

    Block order is theta_a then theta_b for phase 0, then phase 1, and
    so on; consuming the stream any other way would silently change
    every seeded experiment.
    """
    blocks = random_bit_blocks(seed, 2 * num_phases)
    settings = []
    for i in range(num_phases):
        theta_a = bits_to_phase(blocks[2 * i])
        theta_b = bits_to_phase(blocks[2 * i + 1])
        settings.append(PhaseSetting(theta_a, theta_b))
    return settings


def is_extremum(u):
    """Whether an interference phase sits at a fringe extremum."""
    return abs(math.cos(u)) >= EXTREMUM_COS


@dataclass(frozen=True)
class PhaseMeasurement:
    """One phase point reduced to estimate, spread, and resource audit."""

    theta_hat: float
    stats: object
    audit: ResourceAudit
    report: PrecisionReport
    extremum: bool


def measure_phase_point(source, eff, calibration, u, k_bar, s, *, seed,
                        setting_index=0):
    """Simulate and reduce s blocks of k_bar informative events at u.

    The blocks are drawn by the exact factorized block sampler,
    sample_blocked_run, on the blocked-run lane of setting_index.  The
    audit covers the whole run; the precision report divides its n by s,
    because the spread it quotes is the precision of one block's worth
    of resources, not of the pooled run.  It is the reduce of the draw,
    the two halves that _measure_setpoints runs on different threads.
    """
    _require_calibration(calibration)
    drawn = _draw_setpoint(source, eff, u, k_bar, s, seed, setting_index)
    return _reduce_setpoint(source, eff, calibration, u, k_bar, s, drawn)


def _require_calibration(calibration):
    if calibration is None:
        raise ConfigurationError(
            "a fringe calibration must be fitted before phase estimation"
        )


def _draw_setpoint(source, eff, u, k_bar, s, seed, setting_index):
    """The draw half of measure_phase_point: the s x 9 block counts of the
    setpoint's run and the audit of the whole run."""
    rng = stream_generator(seed, LANE_BLOCKS, setting_index=setting_index)
    run = sample_blocked_run(source, eff, u, k_bar, s, rng,
                             setting_index=setting_index)
    return run.block_counts, ResourceAudit.from_tallies(run.tally, source, eff)


def _reduce_setpoint(source, eff, calibration, u, k_bar, s, drawn):
    """The reduce half of measure_phase_point: the block MLE, the spread
    and the report of a _draw_setpoint result."""
    block_counts, audit = drawn
    theta_hat, stats, report = _block_report(
        block_counts, calibration, audit.n / s,
        params={
            "mu": source.mu,
            "visibility": source.visibility,
            "eta": dict(eff.eta),
            "k_bar": int(k_bar),
            "s": int(s),
        },
    )
    if report is None:
        raise DomainError(f"all {s} block estimates at u={u!r} coincide: zero spread")
    return PhaseMeasurement(
        theta_hat=theta_hat, stats=stats, audit=audit, report=report,
        extremum=is_extremum(u),
    )


def measure_logged_setting(patterns, tally, source, eff, calibration, k_bar):
    """Re-cut one logged setting into blocks and reduce them.

    patterns is the setting's informative click patterns in log order,
    as read_event_log returns them (any others are skipped), and tally
    its full tally.  The log has a fixed pulse count, so the informative
    total K rarely divides k_bar; blocks cover the first (K // k_bar) *
    k_bar events and the per-block resource share prorates the setting's
    audited n by k_bar / K, which reduces to n / s when the log ends
    exactly at a block boundary.

    Returns (report, s).  report is None when all s block estimates
    coincide, as when every block of a fringe-extremum setting lands on
    the branch edge: their spread is zero and has no dB figure.
    """
    K = tally.c_sum
    s = K // k_bar
    if s < 2:
        raise EmptyStatisticsError(
            f"log holds {K} informative events at this setting; "
            f"need at least 2 blocks of {k_bar}"
        )
    audit = ResourceAudit.from_tallies(tally, source, eff)
    _, _, report = _block_report(
        cut_blocks(patterns, k_bar, s), calibration, audit.n * k_bar / K,
        params={"k_bar": k_bar, "s": s},
    )
    return report, s


def precision_scan(source, eff, calibration, points, k_bar, s, *, seed):
    """Blocked precision at points interior setpoints of the branch.

    The branch ends are fringe extrema where the estimate degenerates, so
    the setpoints split (0, pi/3) evenly without touching either end;
    setpoint j draws from setting index j.  The setpoints' draws run on
    min(usable cores - 1, points) background threads and the calling
    thread estimates each setpoint as its draw arrives, because the block
    MLE thrashes the GIL when two threads run it (_measure_setpoints);
    the result is the same at any core count, with at most 2 * threads
    setpoints' s x 9 int64 block arrays in flight.  Returns (thetas,
    measurements, peak), peak being the index of the largest dB below the
    shot-noise limit.
    """
    branch = math.pi / 3.0
    thetas = [branch * (j + 1) / (points + 1) for j in range(points)]
    measurements = _measure_setpoints(source, eff, calibration,
                                      [3.0 * t for t in thetas], k_bar, s,
                                      seed=seed)
    peak = max(range(len(measurements)),
               key=lambda i: measurements[i].report.db_below_snl)
    return thetas, measurements, peak


def _measure_setpoints(source, eff, calibration, us, k_bar, s, *, seed):
    """measure_phase_point at each u of us, setpoint j on setting index j.

    Each setpoint draws from its own stream, so the draws (the sampler
    and the audit, mostly numpy's multinomial, which releases the GIL)
    run through simulator._ordered_map on min(usable cores - 1,
    setpoints) background threads, none on one core.  The calling thread
    reduces each setpoint (the block MLE, its spread and the report) in
    setpoint order as its draw arrives: the MLE's numpy calls are short,
    so two threads solving at once pass the GIL back and forth and take
    longer than one.  The list is equal at any thread count.  At most
    2 * threads draws are in flight, each with its s x 9 int64 block
    array (115 kB at paper-240m's s = 1595) until it is reduced.  The
    first setpoint to raise, in setpoint order, draw or reduce, raises
    here, and the draws not yet started are not run.
    """
    _require_calibration(calibration)

    def draw(item):
        j, u = item
        return _draw_setpoint(source, eff, u, k_bar, s, seed, j)

    threads = min(_usable_cores() - 1, len(us))
    with closing(_ordered_map(draw, enumerate(us), threads)) as drawn:
        return [_reduce_setpoint(source, eff, calibration, u, k_bar, s, run)
                for u, run in zip(us, drawn)]


def threshold_scan(source, etas, pulses, *, seed):
    """Model-predicted dB below the shot-noise limit across uniform
    efficiencies, and the line fitted through it.

    Each efficiency eta_i draws a tally of pulses at the mid-branch
    operating point u = pi/2 from setting index i; its dB figure pairs the
    tally's informative count and audited n with the Fisher information
    per informative event at the same u.  Returns (rows, (slope,
    intercept, crossing)), rows being (eta, c_sum, n, db) tuples and
    crossing the eta where the fitted line reaches 0 dB.  The fit is all
    None with fewer than 2 rows or a flat dB, and crossing is None for a
    zero slope.
    """
    u = 0.5 * math.pi
    rows = []
    for i, eta in enumerate(etas):
        eff = EfficiencyBudget.uniform(float(eta))
        rng = stream_generator(seed, LANE_TALLY, setting_index=i)
        tally = sample_tally(source, eff, u, pulses, rng, setting_index=i)
        audit = ResourceAudit.from_tallies(tally, source, eff)
        fisher = fisher_per_informative_event(source, eff, u)
        rows.append((eta, tally.c_sum, audit.n,
                     predicted_db_below_snl(tally.c_sum, fisher, audit.n)))
    ys = np.array([r[3] for r in rows])
    if len(rows) < 2 or not np.ptp(ys) > 0:
        return rows, (None, None, None)
    slope, intercept = np.polyfit(np.array([r[0] for r in rows]), ys, 1)
    return rows, (slope, intercept, -intercept / slope if slope != 0 else None)


def _block_report(block_counts, calibration, n, params):
    """(theta_hat, stats, report) of the blocks against a per-block
    resource share n; report is None when the spread is zero."""
    estimates = estimate_blocks(block_counts, calibration)
    stats = block_stats(estimates)
    theta_hat = float(np.mean(estimates))
    if stats.delta_hat == 0.0:
        return theta_hat, stats, None
    return theta_hat, stats, PrecisionReport.assemble(theta_hat, stats, n,
                                                      params=params)


@dataclass(frozen=True)
class PhaseTrial:
    """One random-phase trial: drawn setting, folded truth, measurement."""

    index: int
    setting: PhaseSetting
    theta_true: float
    measurement: PhaseMeasurement

    @property
    def residual(self):
        return self.measurement.theta_hat - self.theta_true

    def as_dict(self):
        """The trial's entry in random_phase.json."""
        m = self.measurement
        return {
            "index": self.index,
            "theta_true": self.theta_true,
            "theta_hat": m.theta_hat,
            "residual": self.residual,
            "extremum": m.extremum,
            "delta": m.stats.delta_hat,
            "delta_err": m.stats.delta_err,
            "n": m.report.n,
            "snl": m.report.snl,
            "hl": m.report.hl,
            "db_below_snl": m.report.db_below_snl,
        }


@dataclass(frozen=True)
class RandomPhaseTrialSet:
    """All trials of one seeded random-phase experiment."""

    seed: int
    phases_truth: tuple
    trials: tuple

    def residuals(self):
        return np.array([t.residual for t in self.trials])

    def flagged_indices(self):
        return [t.index for t in self.trials if t.measurement.extremum]


def run_random_phase_experiment(source, eff, calibration, num_phases, k_bar,
                                s, *, seed):
    """Run num_phases random unknown-phase trials end to end.

    For each trial both sensor angles are drawn from the bit source, the
    combined truth is folded onto the identifiable branch, and the
    blocks are simulated and estimated against the supplied calibration;
    trial i draws from setting index i.  The trials' draws run on
    min(usable cores - 1, num_phases) background threads and the calling
    thread estimates each trial as its draw arrives, because the block
    MLE thrashes the GIL when two threads run it (_measure_setpoints);
    the result is the same at any core count, with at most 2 * threads
    trials' s x 9 int64 block arrays in flight.
    num_phases=0 is a valid vacuous request.
    """
    if num_phases < 0:
        raise ConfigurationError(f"num_phases must be >= 0, got {num_phases}")
    settings = draw_phase_settings(seed, num_phases)
    truths = [fold_to_branch(global_phase(setting)) for setting in settings]
    measurements = _measure_setpoints(source, eff, calibration,
                                      [3.0 * t for t in truths], k_bar, s,
                                      seed=seed)
    trials = [PhaseTrial(index=i, setting=setting, theta_true=theta_true,
                         measurement=measurement)
              for i, (setting, theta_true, measurement)
              in enumerate(zip(settings, truths, measurements))]
    return RandomPhaseTrialSet(
        seed=int(seed),
        phases_truth=tuple(settings),
        trials=tuple(trials),
    )


def write_trials_csv(trial_set, path_or_file):
    """Results table, one row per random phase: the estimate, its
    spread over blocks, and the error bar of the spread itself."""
    dump_csv(TRIALS_CSV_HEADER, [
        (trial.index, trial.measurement.theta_hat,
         trial.measurement.stats.delta_hat, trial.measurement.stats.delta_err)
        for trial in trial_set.trials
    ], path_or_file)
