"""One benchmark workload, run in a fresh interpreter.

Started by run.py, which times its set-up from the outside:

    python3 perfbench/workload.py --workload NAME --seed N --work DIR --setup-only
    python3 perfbench/workload.py --workload NAME --seed N --work DIR --seconds S --trace 0|1

Set-up is importing ``entsense.cli`` from this checkout's src/ and
resolving the workload's config through ``entsense.config``; the process
then prints the monotonic clock, which run.py compares with the time it
spawned the process.  A measuring run repeats whole rounds of the
workload's ``entsense.cli.main`` calls, made in-process, for about S
seconds, checks every output of every round (checks.py), and prints one
JSON object as its last line.

With --trace 1 the first half of the time runs untraced rounds and the
second half traced passes: one round plus a fixed set of probe calls
into every layer at the workload's parameters (see probe()), so that
every layer metric is measured on every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import entsense  # noqa: E402
import entsense.cli  # noqa: E402
import entsense.config  # noqa: E402

from checks import (  # noqa: E402
    CheckError,
    check_audit,
    check_event_log,
    check_fringe,
    check_precision,
)
from spans import Tracer  # noqa: E402

WORKLOADS = ("blocked-precision", "pulse-scan", "event-log")
PRESET = "paper-240m"
WORKERS = 2  # fixed, so every machine runs the same work; sized on 2 cores

# Rounds are kept to a few seconds so that a run's median covers many of
# them.  pulse-scan: 13 x 5M pulses on the threaded pulse path, about 2.4 s.
SCAN_PULSES = 5_000_000
# event-log: 5 x 120k logged pulses (600k rows, 7.5 MB), about 2.4 s.  120k
# pulses give ~3650 informative events a setting; audit cuts them into
# ~36 blocks of 100.  Audit fails when every block of a setting lands on the
# branch edge, which each block at a fringe-extremum setting (theta = 0 and
# 2 pi/3 in this scan) does with probability ~1/2; 36 blocks make that
# ~2^-36 a setting, where 7 blocks of 500 failed at seed 17.
LOG_POINTS, LOG_PULSES, LOG_K_BAR = 5, 120_000, 100
# probe sizes: small next to every round, large enough to time; the logged
# probe's ~1220 informative events a setting make ~30 blocks of 40
PROBE_BLOCKS = 200
PROBE_PULSES = 1 << 20
PROBE_LOG_POINTS, PROBE_LOG_PULSES, PROBE_LOG_K_BAR = 5, 40_000, 40


def workload_config(name, seed):
    """The run config of a workload: the shipped paper-240m preset, resized."""
    config = json.loads((SRC / "entsense" / "presets" / f"{PRESET}.json").read_text())
    config["seed"] = seed
    if name == "pulse-scan":
        config["scan"]["pulses_per_point"] = SCAN_PULSES
    elif name == "event-log":
        config["scan"].update(points=LOG_POINTS, pulses_per_point=LOG_PULSES)
        config["blocks"]["k_bar"] = LOG_K_BAR
    return config


def probe_log_config(config):
    probe = json.loads(json.dumps(config))
    probe["scan"].update(points=PROBE_LOG_POINTS, pulses_per_point=PROBE_LOG_PULSES)
    probe["blocks"]["k_bar"] = PROBE_LOG_K_BAR
    return probe


@dataclass
class Op:
    """One subcommand call and the check of its outputs."""

    argv: list
    check: object  # () -> informative events the outputs account for


def _check_logged_fringe(fringe, log, config):
    check_fringe(fringe, config)
    check_event_log(log, config)
    return 0  # the audit of the same log counts these events


def logged_scan_ops(config, config_path, work):
    """fringe --log, then audit of that log; events are counted once, by audit."""
    log, fringe, audit = work / "events.csv", work / "fringe", work / "audit"
    return [
        Op(["fringe", "--config", str(config_path), "--log", str(log), "--out", str(fringe)],
           lambda: _check_logged_fringe(fringe, log, config)),
        Op(["audit", "--config", str(config_path), "--log", str(log), "--out", str(audit)],
           lambda: check_audit(audit, fringe, config)),
    ]


def round_ops(name, config, config_path, work, seed):
    out = work / "out"
    if name == "blocked-precision":
        return [Op(["precision", "--preset", PRESET, "--seed", str(seed), "--out", str(out)],
                   lambda: check_precision(out, config))]
    if name == "pulse-scan":
        return [Op(["fringe", "--config", str(config_path), "--workers", str(WORKERS),
                    "--out", str(out)],
                   lambda: check_fringe(out, config))]
    return logged_scan_ops(config, config_path, work)


def _rchar():
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("rchar:"))


class Session:
    """Runs operations and keeps the attempted/failed/correct tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, ops, tracer=None):
        """Run ops in order; (seconds inside the calls, events accounted for)."""
        wall = 0.0
        events = 0
        for op in ops:
            self.attempted += 1
            log = Path(op.argv[op.argv.index("--log") + 1]) if "--log" in op.argv else None
            rchar = _rchar()
            start = time.perf_counter()
            try:
                rc = entsense.cli.main(op.argv)
            except Exception:  # any crash of the program is a failed operation
                traceback.print_exc()
                rc = None
            wall += time.perf_counter() - start
            if rc != 0:
                self.failed += 1
                continue
            if tracer is not None and log is not None:
                if op.argv[0] == "audit":
                    tracer.count["cli.audit_rchar"] += _rchar() - rchar
                    tracer.count["cli.audit_log_bytes"] += log.stat().st_size
                else:
                    tracer.count["cli.log_bytes"] += log.stat().st_size
            try:
                events += op.check()
            except CheckError as exc:
                self.correct = False
                print(f"check failed: {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return wall, events


def repeat(seconds, one):
    """Call one() until the next call would likely end past `seconds`."""
    start = time.monotonic()
    results, durations = [], []
    while not durations or time.monotonic() - start + statistics.median(durations) <= seconds:
        begin = time.monotonic()
        results.append(one())
        durations.append(time.monotonic() - begin)
    return results


def probe(resolved, seed, session, probe_ops, tracer):
    """Direct calls into every layer at the workload's source, loss and k_bar.

    Calls go through the module attributes, so the tracer's wrappers see them.
    """
    from entsense import cli, model, randomphase, simulator

    source, eff = resolved.source, resolved.efficiency
    for j in range(13):
        u = math.pi * (j + 1) / 14  # the precision subcommand's interior setpoints
        model.pattern_distribution(source, eff, u)
        model.fisher_per_informative_event(source, eff, u)
    calibration = cli.analytic_calibration(source, eff)
    randomphase.measure_phase_point(source, eff, calibration, math.pi / 2.0,
                                    resolved.blocks.k_bar, PROBE_BLOCKS, seed=seed)
    simulator.run_experiment(simulator.ExperimentConfig(
        source=source, eff=eff, settings=(model.PhaseSetting(math.pi / 2.0, 0.0),),
        pulses_per_setting=PROBE_PULSES, seed=seed))
    session.run(probe_ops, tracer)


def layer_metrics(tracer, passes, overhead_s):
    t = tracer

    def per_pass(value):
        return value / passes

    values = {
        "estimation.estimate_blocks_blocks_per_s":
            (t.rate("estimation.blocks", "estimation.estimate_blocks"), "blocks/s"),
        "estimation.self_s": (per_pass(t.self_seconds["estimation"]), "s"),
        "estimation.blocks": (per_pass(t.count["estimation.blocks"]), "count"),
        "estimation.degenerate_blocks":
            (per_pass(t.count["estimation.degenerate_blocks"]), "count"),
        "estimation.fit_fringe_ms": (1e3 * t.mean_seconds("estimation.fit_fringe"), "ms"),
        "simulator.sample_patterns_pulses_per_s":
            (t.rate("simulator.pulses", "simulator.sample_patterns"), "pulses/s"),
        "simulator.run_experiment_pulses_per_s":
            (t.rate("simulator.run_pulses", "simulator.run_experiment"), "pulses/s"),
        "simulator.pulses": (per_pass(t.count["simulator.pulses"]), "count"),
        "simulator.self_s": (per_pass(t.self_seconds["simulator"]), "s"),
        "simulator.log_write_rows_per_s":
            (t.count["simulator.log_rows"] / t.count["simulator.log_write_s"], "rows/s"),
        "simulator.read_event_log_rows_per_s":
            (t.rate("simulator.read_rows", "simulator.read_event_log"), "rows/s"),
        "simulator.sample_blocked_run_ms":
            (1e3 * t.mean_seconds("simulator.sample_blocked_run"), "ms"),
        "cli.audit_read_bytes_per_log_byte":
            (t.count["cli.audit_rchar"] / t.count["cli.audit_log_bytes"], "ratio"),
        "cli.log_bytes": (per_pass(t.count["cli.log_bytes"]), "bytes"),
        "cli.analytic_calibration_ms":
            (1e3 * t.mean_seconds("cli.analytic_calibration"), "ms"),
        "cli.self_s": (per_pass(t.self_seconds["cli"]), "s"),
        "randomphase.measure_phase_point_s":
            (t.mean_seconds("randomphase.measure_phase_point"), "s"),
        "randomphase.self_s": (per_pass(t.self_seconds["randomphase"]), "s"),
        "model.pattern_distribution_us":
            (1e6 * t.mean_seconds("model.pattern_distribution"), "us"),
        "model.fisher_per_event_us":
            (1e6 * t.mean_seconds("model.fisher_per_informative_event"), "us"),
        "model.self_s": (per_pass(t.self_seconds["model"]), "s"),
        "resources.audit_us":
            (1e6 * t.mean_seconds("resources.ResourceAudit.from_tallies"), "us"),
        "resources.self_s": (per_pass(t.self_seconds["resources"]), "s"),
        "events.self_s": (per_pass(t.self_seconds["events"]), "s"),
        "config.self_s": (per_pass(t.self_seconds["config"]), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def resolve(name, config_path, seed):
    """Resolve the run config the way the subcommand will."""
    if name == "blocked-precision":
        preset = entsense.config.load_preset(PRESET)
        return entsense.config.parse_config(dict(preset.raw, seed=seed))
    return entsense.config.load_config_file(config_path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(entsense.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"entsense imported from {entsense.__file__}, not from {SRC}")
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    config = workload_config(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    resolved = resolve(args.workload, config_path, args.seed)
    setup_mark = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_mark": setup_mark}))
        return 0

    # degenerate estimates are counted by the traced run, not printed per round
    warnings.simplefilter("ignore", entsense.DegenerateEstimateWarning)
    ops = round_ops(args.workload, config, config_path, work, args.seed)
    session = Session()

    def one_round(tracer=None):
        return session.run(ops, tracer)

    if args.trace == 0:
        rounds = repeat(args.seconds, one_round)
        walls = [w for w, _ in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "events_per_s": {"value": statistics.median(e / w for w, e in rounds),
                             "unit": "events/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    else:
        probe_config = probe_log_config(config)
        probe_path = work / "probe_config.json"
        probe_path.write_text(json.dumps(probe_config, indent=2))
        probe_ops = logged_scan_ops(probe_config, probe_path, work / "probe")
        untraced = repeat(args.seconds / 2.0, one_round)
        tracer = Tracer()
        tracer.install()
        try:
            def one_pass():
                result = one_round(tracer)
                probe(resolved, args.seed, session, probe_ops, tracer)
                return result

            traced = repeat(args.seconds / 2.0, one_pass)
        finally:
            tracer.uninstall()
        walls = [w for w, _ in untraced + traced]
        overhead = (statistics.median(w for w, _ in traced)
                    - statistics.median(w for w, _ in untraced))
        metrics = layer_metrics(tracer, len(traced), overhead)

    print(json.dumps({
        "setup_mark": setup_mark,
        "round_walls": walls,
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
