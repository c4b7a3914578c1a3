"""sha256 digests of the CLI's data files, and the script that regenerates
them.

Two sets of runs are pinned; each run's digests cover every file in its
--out directory but manifest.json, which records a timestamp.

- The logged set is the benchmark's event-log round: the paper-240m
  preset resized to 5 setpoints of 120,000 logged pulses, k_bar 100 and
  seed 11.  It logs `fringe` at --workers 1 and 2 (the log is written
  into the run's --out directory) and audits the first log.
- The unlogged set runs `fringe`, `precision` and `random-phase` on the
  paper-240m and paper-10km presets, `threshold-scan` on its preset and
  `fringe` on the ideal preset.

Each file is named "<subcommand and its options>/<file name>".
tests/test_cli.py reruns both sets and compares them with
tests/data/log_digests.json.  A change that alters these bytes on purpose
regenerates the file with

    PYTHONPATH=src python tests/log_digests.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from entsense.cli import main
from entsense.config import load_preset

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "log_digests.json"

# (name, argv) of the unlogged set
UNLOGGED_RUNS = [(name, name.split()) for name in (
    *(f"{command} --preset {preset}" for preset in ("paper-240m", "paper-10km")
      for command in ("fringe", "precision", "random-phase")),
    "threshold-scan --preset threshold-scan",
    "fringe --preset ideal")]


def log_config():
    doc = load_preset("paper-240m").raw
    doc["seed"] = 11
    doc["scan"].update(points=5, pulses_per_point=120_000)
    doc["blocks"]["k_bar"] = 100
    return doc


def logged_runs(work):
    """(name, argv) of the logged set, in run order, writing under work."""
    config = work / "config.json"
    config.write_text(json.dumps(log_config()))

    def log(workers):
        return str(work / f"fringe --workers {workers}" / "events.csv")

    runs = [(f"fringe --workers {w}", ["fringe", "--workers", str(w), "--log", log(w)])
            for w in (1, 2)]
    runs.append(("audit", ["audit", "--log", log(1)]))
    return [(name, [*argv, "--config", str(config)]) for name, argv in runs]


def run_digests(work, runs):
    """{"<run name>/<file name>": sha256} of the runs, each made in the
    directory work/<run name>."""
    digests = {}
    for name, argv in runs:
        out = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            if main([*argv, "--out", str(out)]) != 0:
                raise RuntimeError(f"entsense {' '.join(argv)} failed")
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        # audit reports blocks at the branch edge as warnings
        warnings.simplefilter("ignore")
        work = Path(work)
        files = {**run_digests(work, logged_runs(work)),
                 **run_digests(work, UNLOGGED_RUNS)}
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "files": files}
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGEST_FILE}\n")
