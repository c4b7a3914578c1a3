"""sha256 digests of the event-log path's data files, and the script that
regenerates them.

The run is the benchmark's event-log round: the paper-240m preset resized
to 5 setpoints of 120,000 logged pulses, k_bar 100 and seed 11.  It logs
`fringe` at --workers 1 and 2 and audits the first log; the digests cover
each `events.csv` and the audit's `tallies.csv`.  tests/test_cli.py
reruns the set and compares it with tests/data/log_digests.json.  A change
that alters these bytes on purpose regenerates the file with

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


def log_config():
    doc = load_preset("paper-240m").raw
    doc["seed"] = 11
    doc["scan"].update(points=5, pulses_per_point=120_000)
    doc["blocks"]["k_bar"] = 100
    return doc


def run_digests(work):
    """{file name: sha256} of the logged runs, made under the directory work."""
    work = Path(work)
    config = work / "config.json"
    config.write_text(json.dumps(log_config()))
    logs = {w: work / f"w{w}" / "events.csv" for w in (1, 2)}
    runs = [(f"fringe --workers {w}/events.csv", log,
             ["fringe", "--workers", str(w), "--log", str(log), "--out", str(log.parent)])
            for w, log in logs.items()]
    runs.append(("audit/tallies.csv", work / "audit" / "tallies.csv",
                 ["audit", "--log", str(logs[1]), "--out", str(work / "audit")]))
    digests = {}
    for name, path, argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            if main([*argv, "--config", str(config)]) != 0:
                raise RuntimeError(f"entsense {' '.join(argv)} failed")
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        # audit reports blocks at the branch edge as warnings
        warnings.simplefilter("ignore")
        doc = {"python": platform.python_version(), "numpy": np.__version__,
               "files": run_digests(work)}
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGEST_FILE}\n")
