"""Two-node entangled-photon phase-sensing: simulation and estimation.

The package models a desk-scale version of a distributed sensing network in
which one node applies its phase once and the other twice, so the network
senses the single global combination (theta_A - 2*theta_B)/3.  It covers
the probabilistic pair source, per-channel losses, threshold detectors, the
sixteen-outcome event taxonomy, Fisher-information analysis, phase
estimation, and loss-corrected resource accounting that counts every
emitted photon rather than post-selecting.

Layout:

- :mod:`entsense.model`       closed-form probabilities and Fisher analysis
- :mod:`entsense.simulator`   deterministic Monte Carlo click generation
- :mod:`entsense.events`      taxonomy and tallies
- :mod:`entsense.estimation`  fringe fits, phase MLE, block statistics
- :mod:`entsense.resources`   photon accounting, SNL/HL, dB metric
- :mod:`entsense.randomphase` precision and threshold scans, blind trials
- :mod:`entsense.cli`         thin command-line shell over those runs

Importing entsense before numpy sets OPENBLAS_NUM_THREADS to 1 unless
it is already set, so that process gets single-threaded BLAS.
"""

import os

# numpy's bundled OpenBLAS starts a busy-waiting thread on its first
# import, which holds a core the package's own thread pool needs for most
# of a short run; entsense's BLAS work (a fringe fit's normal equations,
# one (s, 4) x (4,) product per block solve) gains nothing from it.  The
# setting must precede that import, and a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigurationError,
    DegenerateEstimateWarning,
    DomainError,
    EmptyStatisticsError,
    EntsenseError,
    FitError,
)
from .model import (
    ALPHA,
    CHANNELS,
    COINCIDENCE_CHANNELS,
    ClickDistribution,
    EfficiencyBudget,
    GLOBAL_PHASE_PERIOD,
    PhaseSetting,
    SourceParams,
    coincidence_probs,
    crb,
    effective_fi,
    fisher_matrix,
    fisher_per_informative_event,
    global_phase,
    pattern_distribution,
)
from .events import (
    EventType,
    Tally,
    classify,
    coincidence_fractions,
    write_tally_csv,
)
from .simulator import (
    ExperimentConfig,
    ExperimentResult,
    read_event_log,
    run_experiment,
    sample_blocked_run,
    sample_tally,
    stream_generator,
    tally_pulses,
)
from .estimation import (
    BlockStats,
    FringeFit,
    block_stats,
    estimate_blocks,
    fit_fringe,
    fold_to_branch,
)
from .resources import (
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
from .randomphase import (
    PhaseMeasurement,
    PhaseTrial,
    RandomPhaseTrialSet,
    bits_to_phase,
    draw_phase_settings,
    measure_phase_point,
    run_random_phase_experiment,
    write_trials_csv,
)
from .config import (
    PRESET_NAMES,
    RunConfig,
    load_config_file,
    load_preset,
    parse_config,
)

# entsense.cli is intentionally not imported here: it reads __version__
# from this module at import time and is only needed by the console script

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BlockStats",
    "CHANNELS",
    "COINCIDENCE_CHANNELS",
    "ClickDistribution",
    "ConfigurationError",
    "DegenerateEstimateWarning",
    "DomainError",
    "EfficiencyBudget",
    "EmptyStatisticsError",
    "EntsenseError",
    "EventType",
    "ExperimentConfig",
    "ExperimentResult",
    "FitError",
    "FringeFit",
    "GLOBAL_PHASE_PERIOD",
    "PASS_WEIGHT",
    "PRESET_NAMES",
    "PhaseMeasurement",
    "PhaseSetting",
    "PhaseTrial",
    "PrecisionReport",
    "RandomPhaseTrialSet",
    "ResourceAudit",
    "RunConfig",
    "SourceParams",
    "Tally",
    "actual_photons",
    "bits_to_phase",
    "block_stats",
    "classify",
    "coincidence_fractions",
    "coincidence_probs",
    "crb",
    "db_below_snl",
    "draw_phase_settings",
    "effective_fi",
    "estimate_blocks",
    "fisher_matrix",
    "fisher_per_informative_event",
    "fit_fringe",
    "fold_to_branch",
    "global_phase",
    "hl",
    "load_config_file",
    "load_preset",
    "measure_phase_point",
    "parse_config",
    "pattern_distribution",
    "predicted_db_below_snl",
    "read_event_log",
    "run_experiment",
    "run_random_phase_experiment",
    "sample_blocked_run",
    "sample_tally",
    "snl",
    "stream_generator",
    "tally_pulses",
    "threshold_efficiency",
    "write_tally_csv",
    "write_trials_csv",
    "__version__",
]
