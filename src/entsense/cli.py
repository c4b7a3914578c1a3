"""Command-line experiment runner: a thin shell over library calls.

Each subcommand parses its arguments, resolves one config, calls the
library run that owns the job, writes the files and prints one summary
line.  Five subcommands cover the toolkit end to end: ``fringe`` scans the
coincidence interference pattern and fits it, ``precision`` runs blocked
phase estimation across the identifiable branch, ``threshold-scan``
sweeps a uniform efficiency looking for the shot-noise crossing,
``random-phase`` runs the unknown-phase protocol against bit-sourced
truths, and ``audit`` re-derives tallies and photon accounting from an
event log.  Every run resolves one JSON config (or a shipped preset),
derives all randomness from the single seed in that config, and on success
writes a ``manifest.json`` after the data files; its config echo replays
the run: feeding a manifest back through --config reproduces every data
file byte for byte (the fresh manifest records its own new timestamp).

Output files per subcommand, all in the --out directory:

========== ====================================================
fringe      fringe_scan.csv, fringe_fit.json
precision   precision_scan.csv, precision.json
threshold-  threshold_scan.csv, threshold.json
random-     trials.csv, random_phase.json
audit       tallies.csv, audit.json
========== ====================================================

CSV floats are written with ``repr`` so a file either matches a replay
bit for bit or differs for a real reason.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    PRESET_NAMES,
    dump_csv,
    dump_json,
    load_config_file,
    load_preset,
    parse_config,
    write_manifest,
)
from .errors import ConfigurationError, EmptyStatisticsError, EntsenseError
from .estimation import fit_fringe
from .events import coincidence_fractions, write_tally_csv
from .model import PhaseSetting, pattern_distribution
from .randomphase import (
    measure_logged_setting,
    precision_scan,
    run_random_phase_experiment,
    threshold_scan,
    write_trials_csv,
)
from .resources import ResourceAudit, threshold_efficiency
from .simulator import ExperimentConfig, read_event_log, run_experiment

__all__ = ["analytic_calibration", "build_parser", "main"]

FRINGE_CSV_HEADER = "theta,frac_a1b1,frac_a1b2,frac_a2b1,frac_a2b2,c_sum"
PRECISION_CSV_HEADER = "theta,theta_hat,delta,delta_err,n,snl,hl,db_below_snl,extremum"
THRESHOLD_CSV_HEADER = "eta,c_sum,n,db_below_snl"

_CALIBRATION_POINTS = 13


def analytic_calibration(source, eff, points=_CALIBRATION_POINTS):
    """Calibration fringe fitted to the model's exact fractions.

    Stands in for a calibration run of unlimited length: the scan rows
    are the closed-form coincidence fractions over one fringe period.
    Fractions are normalized by the full informative probability, not by
    the quartet alone, as the measured fractions are normalized by C_sum.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi / 3.0, points)
    rows = _analytic_rows(source, eff, [float(t) for t in thetas])
    return fit_fringe([(t, fracs) for t, fracs, _ in rows],
                      counts=np.full(points, 1e9))


def _analytic_rows(source, eff, thetas):
    """(theta, exact coincidence fractions, informative probability) rows.

    The fractions are normalized by the informative probability.
    """
    rows = []
    for t in thetas:
        dist = pattern_distribution(source, eff, 3.0 * t)
        p_inf = dist.informative_probability()
        if p_inf == 0.0:
            raise EmptyStatisticsError(f"informative probability is zero at theta={t!r}; "
                                       "coincidence fractions undefined")
        rows.append((t, tuple(float(p) / p_inf for p in dist.coincidence_quartet()),
                     p_inf))
    return rows


def _load_run_config(args):
    """Resolve --config/--preset plus overrides into one RunConfig."""
    if (args.config is None) == (args.preset is None):
        raise ConfigurationError("exactly one of --config or --preset is required")
    if args.config is not None:
        config = load_config_file(args.config)
        config_path = args.config
    else:
        config = load_preset(args.preset)
        config_path = f"preset:{args.preset}"
    # overrides re-parse the raw document so the manifest echo stays honest
    raw = json.loads(json.dumps(config.raw))
    changed = False
    if args.seed is not None:
        raw["seed"] = args.seed
        changed = True
    trials = getattr(args, "trials", None)  # random-phase only
    if trials is not None:
        if "blocks" not in raw:
            raise ConfigurationError(
                "config key blocks: --trials override requires a blocks section"
            )
        raw["blocks"]["num_phases"] = trials
        changed = True
    if changed:
        config = parse_config(raw)
    return config, config_path


def _prepare_out(args):
    """The --out directory, made once the results are in, so a run that
    fails before its first data file leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fringe(args, config):
    scan = config.require("scan")
    eff = config.require("efficiency")
    source = config.source
    thetas = scan.setpoints()

    if scan.analytic:
        csv_rows = _analytic_rows(source, eff, thetas)
        counts = None
    else:
        settings = tuple(PhaseSetting(3.0 * t, 0.0) for t in thetas)
        exp = ExperimentConfig(
            source=source,
            eff=eff,
            settings=settings,
            pulses_per_setting=scan.pulses_per_point,
            seed=config.seed,
        )
        if args.log is not None:
            Path(args.log).parent.mkdir(parents=True, exist_ok=True)
        result = run_experiment(exp, workers=args.workers, event_log=args.log)
        csv_rows = [(t, coincidence_fractions(tally), tally.c_sum)
                    for t, tally in zip(thetas, result.tallies)]
        counts = [c_sum for _, _, c_sum in csv_rows]
    fit = fit_fringe([(t, fracs) for t, fracs, _ in csv_rows], counts=counts)

    out = _prepare_out(args)
    dump_csv(FRINGE_CSV_HEADER, [(t, *fracs, c_sum) for t, fracs, c_sum in csv_rows],
             out / "fringe_scan.csv")
    fit.to_json(out / "fringe_fit.json")
    err = fit.visibility_stderr()
    print(
        f"fringe: {len(thetas)} setpoints, fitted visibility "
        f"{fit.visibility_hat:.6f} +/- {err:.2e} -> {out / 'fringe_fit.json'}"
    )


def cmd_precision(args, config):
    scan = config.require("scan")
    blocks = config.require("blocks")
    eff = config.require("efficiency")
    source = config.source
    calibration = analytic_calibration(source, eff)
    thetas, measurements, peak = precision_scan(
        source, eff, calibration, scan.points, blocks.k_bar, blocks.s,
        seed=config.seed,
    )

    out = _prepare_out(args)
    dump_csv(PRECISION_CSV_HEADER, [
        (t, m.report.theta_hat, m.report.delta_hat, m.report.delta_err, m.report.n,
         m.report.snl, m.report.hl, m.report.db_below_snl, int(m.extremum))
        for t, m in zip(thetas, measurements)
    ], out / "precision_scan.csv")

    doc = {
        "k_bar": blocks.k_bar,
        "s": blocks.s,
        "peak": {
            "theta": thetas[peak],
            "extremum": measurements[peak].extremum,
            **measurements[peak].report.as_dict(),
        },
        "per_phase": [
            {"theta": t, "extremum": m.extremum, **m.report.as_dict()}
            for t, m in zip(thetas, measurements)
        ],
    }
    dump_json(doc, out / "precision.json")
    print(
        f"precision: {len(thetas)} setpoints, peak {doc['peak']['db_below_snl']:+.4f} dB "
        f"vs SNL at theta_hat={thetas[peak]:.4f} -> {out / 'precision.json'}"
    )


def cmd_threshold_scan(args, config):
    scan = config.require("scan")
    source = config.source
    etas = scan.eta_points()
    rows, (slope, intercept, crossing) = threshold_scan(
        source, etas, scan.pulses_per_point, seed=config.seed)

    out = _prepare_out(args)
    dump_csv(THRESHOLD_CSV_HEADER, rows, out / "threshold_scan.csv")

    doc = {
        "points": len(rows),
        "eta_range": [float(rows[0][0]), float(rows[-1][0])],
        "pulses_per_point": scan.pulses_per_point,
        "slope_db_per_eta": slope,
        "intercept_db": intercept,
        "crossing_eta": crossing,
        "ideal_threshold": threshold_efficiency(),
    }
    dump_json(doc, out / "threshold.json")
    shown = "none" if crossing is None else f"{crossing:.4f}"
    print(
        f"threshold-scan: {len(rows)} efficiencies, SNL crossing at eta={shown} "
        f"(lossless-limit threshold {threshold_efficiency():.4f}) -> "
        f"{out / 'threshold.json'}"
    )


def cmd_random_phase(args, config):
    blocks = config.require("blocks")
    eff = config.require("efficiency")
    source = config.source
    calibration = analytic_calibration(source, eff)
    trial_set = run_random_phase_experiment(
        source, eff, calibration, blocks.num_phases, blocks.k_bar, blocks.s,
        seed=config.seed,
    )
    out = _prepare_out(args)
    write_trials_csv(trial_set, out / "trials.csv")
    trials_doc = [tr.as_dict() for tr in trial_set.trials]
    doc = {
        "num_phases": len(trial_set.trials),
        "k_bar": blocks.k_bar,
        "s": blocks.s,
        "flagged_indices": list(trial_set.flagged_indices()),
        "trials": trials_doc,
    }
    dump_json(doc, out / "random_phase.json")
    if trials_doc:
        worst = max(t["delta"] for t in trials_doc)
        print(
            f"random-phase: {len(trials_doc)} trials, worst per-block spread "
            f"{worst:.4e}, {len(doc['flagged_indices'])} flagged -> "
            f"{out / 'random_phase.json'}"
        )
    else:
        print(f"random-phase: 0 trials -> {out / 'random_phase.json'}")


def cmd_audit(args, config):
    eff = config.require("efficiency")
    source = config.source
    result = read_event_log(args.log)
    merged = ResourceAudit.from_tallies(result.tallies, source, eff)
    truth_passes = 3.0 * float(sum(result.truth_pairs))
    doc = merged.as_dict()
    doc["settings"] = len(result.tallies)
    doc["pulses"] = list(result.pulses)
    doc["truth_pairs"] = list(result.truth_pairs)
    doc["truth_photon_passes"] = truth_passes
    doc["n_vs_truth_relative"] = (
        (merged.n - truth_passes) / truth_passes if truth_passes > 0 else None
    )

    precision = None
    if config.blocks is not None:
        calibration = analytic_calibration(source, eff)
        precision = []
        for tally, patterns in zip(result.tallies, result.patterns):
            report, s = measure_logged_setting(
                patterns, tally, source, eff, calibration, config.blocks.k_bar)
            fields = report.as_dict() if report else {"degenerate": True}
            precision.append({"setting_index": tally.setting_index, "s": s, **fields})
    doc["precision"] = precision
    out = _prepare_out(args)
    write_tally_csv(result.tallies, out / "tallies.csv")
    dump_json(doc, out / "audit.json")

    rel = doc["n_vs_truth_relative"]
    rel_text = "n/a" if rel is None else f"{rel:+.4%}"
    print(
        f"audit: {len(result.tallies)} settings, n={merged.n:.6g} "
        f"({rel_text} vs truth passes) -> {out / 'audit.json'}"
    )


def _worker_count(text):
    """--workers as an int >= 1; argparse reports anything else as exit 2."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


_COMMANDS = {
    "fringe": cmd_fringe,
    "precision": cmd_precision,
    "threshold-scan": cmd_threshold_scan,
    "random-phase": cmd_random_phase,
    "audit": cmd_audit,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entsense",
        description=(
            "Simulate and analyze a two-node entangled-photon "
            "phase-sensing network."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config",
                       help="JSON run config, or a manifest.json to replay")
        p.add_argument("--preset",
                       help=f"shipped preset: {', '.join(PRESET_NAMES)}")
        p.add_argument("--seed", type=int,
                       help="override the config's seed (unsigned 64-bit)")
        p.add_argument("--out", default=".",
                       help="output directory (default: current)")

    p = sub.add_parser("fringe",
                       help="scan the coincidence fringe and fit it")
    common(p)
    p.add_argument("--workers", type=_worker_count,
                   help="worker threads for pulse-path sampling (>= 1)")
    p.add_argument("--log",
                   help="also write the per-pulse event log to this path")

    p = sub.add_parser("precision",
                       help="blocked phase precision across the branch")
    common(p)

    p = sub.add_parser("threshold-scan",
                       help="sweep uniform efficiency for the SNL crossing")
    common(p)

    p = sub.add_parser("random-phase",
                       help="estimate bit-sourced unknown phases")
    common(p)
    p.add_argument("--trials", type=int,
                   help="override blocks.num_phases")

    p = sub.add_parser("audit",
                       help="recompute tallies and accounting from an event log")
    common(p)
    p.add_argument("--log", required=True,
                   help="event log to audit, as fringe --log writes it: the "
                        "header pulse_index,setting_index,pattern,truth_pairs, "
                        "then per pulse 4 unsigned integers joined by ',' and "
                        "ended by a line feed")

    return parser


@functools.cache
def _parser():
    """build_parser's parser, built by the process's first main call;
    parse_args leaves it as it was, so every later call reuses it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config, config_path = _load_run_config(args)
        _COMMANDS[args.subcommand](args, config)
        # written last, so only a run that succeeded leaves a manifest
        write_manifest(Path(args.out), args.subcommand, config_path, config,
                       __version__)
        return 0
    except EntsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
