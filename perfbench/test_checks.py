"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest perfbench/test_checks.py

The oracle is held to closed forms.  Each check must pass on healthy
outputs of a small run of the program and fail on the same outputs with
one thing corrupted.
"""

from __future__ import annotations

import csv
import json
import math
import shutil

import numpy as np
import pytest

import checks
import oracle
import workload
from checks import CheckError

PAPER_ETA = (0.7432, 0.7667, 0.7477, 0.6974)


@pytest.mark.parametrize("u", [0.0, 0.4, 1.3, 2.8])
def test_lossless_single_pair_is_the_coincidence_quartet(u):
    vis = 0.9
    d = oracle.single_pair(vis, (1.0, 1.0, 1.0, 1.0), u)
    minus, plus = (1 - vis * math.cos(u)) / 4, (1 + vis * math.cos(u)) / 4
    np.testing.assert_allclose(d[list(oracle.COINCIDENCE)], [minus, plus, plus, minus],
                               rtol=0, atol=1e-15)
    others = [p for p in range(16) if p not in oracle.COINCIDENCE]
    assert np.all(d[others] == 0.0)


@pytest.mark.parametrize("u", [0.3, 1.7, 2.9])
def test_distribution_sums_to_one(u):
    joint = oracle.joint(0.3, 0.95, PAPER_ETA, u, 6)
    assert abs(joint.sum() - 1.0) < 1e-14
    assert np.all(joint >= 0.0)
    assert joint[0, 1:].sum() == 0.0  # no pairs, no clicks


@pytest.mark.parametrize("u", [0.2, 1.0, 1.6, 2.5])
def test_ideal_fisher_information_is_nine(u):
    # lossless, one pair at most, unit visibility: 9 for every phase
    fisher = oracle.fisher_per_informative_event(0.2, 1.0, (1.0,) * 4, u, 1)
    assert abs(fisher - 9.0) < 1e-6


def _run(argv):
    assert workload.entsense.cli.main(argv) == 0


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return path


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def precision_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("precision")
    config = workload.workload_config("blocked-precision", 11)
    config["blocks"]["s"] = 200
    cfg = _write_config(base / "config.json", config)
    _run(["precision", "--config", str(cfg), "--out", str(base / "out")])
    return config, base / "out"


@pytest.fixture(scope="module")
def log_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("log")
    config = workload.workload_config("event-log", 12)
    cfg = _write_config(base / "config.json", config)
    log = base / "events.csv"
    _run(["fringe", "--config", str(cfg), "--log", str(log), "--out", str(base / "fringe")])
    _run(["audit", "--config", str(cfg), "--log", str(log), "--out", str(base / "audit")])
    return config, base


@pytest.fixture(scope="module")
def fringe_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("fringe")
    config = workload.workload_config("pulse-scan", 13)
    config["scan"]["pulses_per_point"] = 1_000_000
    cfg = _write_config(base / "config.json", config)
    _run(["fringe", "--config", str(cfg), "--workers", "2", "--out", str(base / "out")])
    return config, base / "out"


def _copy(src, tmp_path):
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def test_precision_healthy(precision_run):
    config, out = precision_run
    assert checks.check_precision(out, config) == 13 * 6200 * 200


def _scale_delta(factor, row_index):
    def csv_edit(rows):
        row = rows[row_index]
        delta = float(row["delta"]) * factor
        row["delta"] = repr(delta)
        row["db_below_snl"] = repr(10 * math.log10(float(row["snl"]) ** 2 / delta**2))

    return csv_edit


@pytest.mark.parametrize("corruption", ["delta_doubled", "theta_hat_shifted",
                                        "snl_off", "peak_wrong", "row_dropped"])
def test_precision_corrupted(precision_run, tmp_path, corruption):
    config, healthy = precision_run
    out = _copy(healthy, tmp_path)
    scan, doc = out / "precision_scan.csv", out / "precision.json"
    j = 6

    def sync_json():
        with open(scan, newline="") as fh:
            rows = list(csv.DictReader(fh))

        def edit(d):
            for entry, row in zip(d["per_phase"], rows):
                for key, col in (("theta_hat", "theta_hat"), ("delta_hat", "delta"),
                                 ("n", "n"), ("snl", "snl"), ("db_below_snl", "db_below_snl")):
                    entry[key] = float(row[col])
            d["peak"]["db_below_snl"] = max(e["db_below_snl"] for e in d["per_phase"])

        _edit_json(doc, edit)

    if corruption == "delta_doubled":
        _rewrite_csv(scan, _scale_delta(2.0, j))
        sync_json()
    elif corruption == "theta_hat_shifted":
        def shift(rows):
            rows[j]["theta_hat"] = repr(float(rows[j]["theta_hat"]) + 4 * float(rows[j]["delta"]))
        _rewrite_csv(scan, shift)
        sync_json()
    elif corruption == "snl_off":
        def snl_off(rows):
            rows[j]["snl"] = repr(float(rows[j]["snl"]) * 1.001)
        _rewrite_csv(scan, snl_off)
        sync_json()
    elif corruption == "peak_wrong":
        _edit_json(doc, lambda d: d["peak"].update(db_below_snl=d["peak"]["db_below_snl"] - 0.5))
    elif corruption == "row_dropped":
        _rewrite_csv(scan, lambda rows: rows.pop())
    with pytest.raises(CheckError):
        checks.check_precision(out, config)


def test_logged_scan_healthy(log_run):
    config, base = log_run
    assert checks.check_fringe(base / "fringe", config) > 0
    checks.check_event_log(base / "events.csv", config)
    assert checks.check_audit(base / "audit", base / "fringe", config) > 0


@pytest.mark.parametrize("corruption", ["fraction_shifted", "c_sum_scaled", "visibility"])
def test_fringe_corrupted(fringe_run, tmp_path, corruption):
    config, healthy = fringe_run
    assert checks.check_fringe(healthy, config) > 0
    out = _copy(healthy, tmp_path)
    scan = out / "fringe_scan.csv"
    if corruption == "fraction_shifted":
        def shift(rows):
            rows[2]["frac_a1b1"] = repr(float(rows[2]["frac_a1b1"]) + 0.02)
        _rewrite_csv(scan, shift)
    elif corruption == "c_sum_scaled":
        def scale(rows):
            rows[1]["c_sum"] = str(int(int(rows[1]["c_sum"]) * 1.03))
        _rewrite_csv(scan, scale)
    else:
        _edit_json(out / "fringe_fit.json", lambda d: d.update(visibility_hat=0.0))
    with pytest.raises(CheckError):
        checks.check_fringe(out, config)


def test_event_log_row_missing(log_run, tmp_path):
    config, base = log_run
    log = tmp_path / "events.csv"
    lines = (base / "events.csv").read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]))
    with pytest.raises(CheckError):
        checks.check_event_log(log, config)


@pytest.mark.parametrize("corruption", ["tally_off_by_one", "truth_pairs_scaled",
                                        "n_vs_truth_shifted", "n_off", "pulses_wrong"])
def test_audit_corrupted(log_run, tmp_path, corruption):
    config, base = log_run
    out = _copy(base / "audit", tmp_path)
    doc = out / "audit.json"
    if corruption == "tally_off_by_one":
        def bump(rows):
            row = next(r for r in rows if r["event_type"] == "A1B2")
            row["count"] = str(int(row["count"]) + 1)
        _rewrite_csv(out / "tallies.csv", bump)
    elif corruption == "truth_pairs_scaled":
        def scale(d):
            d["truth_pairs"] = [int(t * 1.03) for t in d["truth_pairs"]]
            d["truth_photon_passes"] = 3.0 * sum(d["truth_pairs"])
        _edit_json(doc, scale)
    elif corruption == "n_vs_truth_shifted":
        _edit_json(doc, lambda d: d.update(n_vs_truth_relative=d["n_vs_truth_relative"] + 0.02))
    elif corruption == "n_off":
        _edit_json(doc, lambda d: d.update(n=d["n"] * 1.0001))
    else:
        _edit_json(doc, lambda d: d.update(pulses=[p + 1 for p in d["pulses"]]))
    with pytest.raises(CheckError):
        checks.check_audit(out, base / "fringe", config)


def test_accounting_bias_matches_a_direct_sum():
    # the delta-method mean is the ratio of exact expectations
    config = workload.probe_log_config(workload.workload_config("event-log", 1))
    mu, vis, n_max, eta = checks.source_params(config)
    bias, sd = checks.expected_accounting_bias(config)
    weights = checks._accounting_weights(mu, eta)
    num = den = 0.0
    for theta in checks.scan_setpoints(config):
        dist = oracle.pulse_distribution(mu, vis, eta, 3 * theta, n_max)
        clicks = [sum(dist[p] for p in range(16) if p >> b & 1) for b in range(4)]
        num += float(np.dot(clicks, weights))
        den += 3.0 * float(oracle.pair_weights(mu, n_max) @ np.arange(n_max + 1))
    assert abs(bias - (num / den - 1.0)) < 1e-12
    assert 0.0 < sd < 0.05
