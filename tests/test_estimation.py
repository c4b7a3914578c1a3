"""Fringe calibration, per-block MLE, and block-statistics tests.

Frozen values were produced by an independent check script that fitted
exact model fractions (themselves validated against brute-force
enumeration in test_model) and cross-checked the MLE against direct
construction of count vectors proportional to the single-pair law.
"""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize_scalar

from entsense import estimation
from entsense.cli import _analytic_rows, analytic_calibration
from entsense.config import PRESET_NAMES, load_preset
from entsense.errors import (
    ConfigurationError,
    DegenerateEstimateWarning,
    DomainError,
    FitError,
)
from entsense.estimation import (
    FRINGE_SIGNS,
    FringeFit,
    block_stats,
    estimate_blocks,
    fit_fringe,
)
from entsense.events import Tally
from entsense.model import (
    COINCIDENCE_PATTERNS,
    INFORMATIVE_PATTERNS,
    EfficiencyBudget,
    SourceParams,
    coincidence_probs,
    crb,
    pattern_distribution,
)
from entsense.simulator import (
    LANE_BLOCKS,
    LANE_TALLY,
    sample_blocked_run,
    sample_tally,
    stream_generator,
)

SIGNS = np.array(FRINGE_SIGNS)

MU_240, V_240 = 0.056, 0.9804
ETA_240 = {"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}

# Asymptotic fit of the exact coincidence fractions at the 240 m working
# point over 13 setpoints spanning one full period: multi-pair events
# wash the fitted visibility below the source value.
V_EFF_240 = 0.9770541660143687
OFFSETS_240 = (0.2547794032, 0.2374813634, 0.2626542531, 0.2451442835)

SCAN_THETAS = np.linspace(0.0, 2 * math.pi / 3, 13)


def synthetic_fractions(thetas, offsets, visibility, phi0):
    offsets = np.asarray(offsets)
    c = np.cos(3 * np.asarray(thetas) + phi0)[:, None]
    return offsets[None, :] * (1.0 + c * SIGNS * visibility)


def exact_fraction_scan(source, eff, thetas):
    rows = []
    for t in thetas:
        dist = pattern_distribution(source, eff, 3.0 * t)
        quartet = np.array(dist.coincidence_quartet())
        rows.append((t, quartet / quartet.sum()))
    return rows


def tally_from_quartet(probs, scale=10**12):
    counts = np.zeros(16, dtype=np.int64)
    for pattern, p in zip(COINCIDENCE_PATTERNS, probs):
        counts[pattern] = round(p * scale)
    return Tally(counts=counts)


def mle_one(tally, calibration):
    """The block MLE of one tally, as a one-row estimate_blocks call."""
    row = tally.counts[list(INFORMATIVE_PATTERNS)]
    return float(estimate_blocks(row[None, :], calibration)[0])


class TestFringeFit:
    def test_noiseless_recovery_is_exact(self):
        offsets = (0.24, 0.26, 0.25, 0.25)
        fracs = synthetic_fractions(SCAN_THETAS, offsets, 0.97, 0.15)
        fit = fit_fringe(list(zip(SCAN_THETAS, fracs)))
        assert abs(fit.visibility_hat - 0.97) < 1e-8
        assert abs(fit.phase_offset - 0.15) < 1e-8
        assert np.abs(np.array(fit.offsets) - offsets).max() < 1e-8
        assert fit.residual_chi2 < 1e-10
        assert fit.dof == 13 * 4 - 6

    def test_recovers_unit_visibility_at_bound(self):
        fracs = synthetic_fractions(SCAN_THETAS, (0.25,) * 4, 1.0, 0.0)
        fit = fit_fringe(list(zip(SCAN_THETAS, fracs)))
        assert abs(fit.visibility_hat - 1.0) < 1e-8
        assert abs(fit.phase_offset) < 1e-10

    def test_negative_phase_origin_recovered(self):
        fracs = synthetic_fractions(SCAN_THETAS, (0.25,) * 4, 0.9, -2.0)
        fit = fit_fringe(list(zip(SCAN_THETAS, fracs)))
        assert abs(fit.phase_offset - (-2.0)) < 1e-7

    def test_phase_origin_reported_in_principal_interval(self):
        fracs = synthetic_fractions(SCAN_THETAS, (0.25,) * 4, 0.9, 3.5)
        fit = fit_fringe(list(zip(SCAN_THETAS, fracs)))
        assert -math.pi < fit.phase_offset <= math.pi
        assert abs(fit.phase_offset - (3.5 - 2 * math.pi)) < 1e-7

    def test_amplitudes_are_offset_times_visibility(self):
        fit = FringeFit.ideal(visibility=0.8)
        assert fit.amplitudes == tuple(0.25 * 0.8 for _ in range(4))

    def test_channel_fractions_matches_closed_form(self):
        fit = FringeFit.ideal(visibility=0.9, phase_offset=0.1)
        u = 1.3
        got = fit.channel_fractions(u)
        want = 0.25 * (1 + SIGNS * 0.9 * math.cos(u + 0.1))
        assert np.allclose(got, want, atol=1e-15)

    def test_asymptotic_240m_values(self):
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        rows = exact_fraction_scan(source, eff, SCAN_THETAS)
        fit = fit_fringe(rows, counts=np.full(len(rows), 1e9))
        assert abs(fit.visibility_hat - V_EFF_240) < 1e-8
        assert abs(fit.phase_offset) < 1e-9
        assert np.abs(np.array(fit.offsets) - OFFSETS_240).max() < 1e-8
        # washout direction: multi-pair background always lowers contrast
        assert fit.visibility_hat < V_240

    def test_span_requirement(self):
        thetas = np.linspace(0.0, 0.3, 7)
        fracs = synthetic_fractions(thetas, (0.25,) * 4, 0.9, 0.0)
        with pytest.raises(DomainError, match="span"):
            fit_fringe(list(zip(thetas, fracs)))

    def test_minimum_distinct_setpoints(self):
        thetas = np.linspace(0.0, 2.0, 4)
        fracs = synthetic_fractions(thetas, (0.25,) * 4, 0.9, 0.0)
        with pytest.raises(DomainError, match="distinct"):
            fit_fringe(list(zip(thetas, fracs)))

    def test_duplicated_setpoints_do_not_count_as_distinct(self):
        thetas = np.array([0.0, 0.0, 0.7, 0.7, 1.4, 1.4, 2.1])
        fracs = synthetic_fractions(thetas, (0.25,) * 4, 0.9, 0.0)
        with pytest.raises(DomainError, match="distinct"):
            fit_fringe(list(zip(thetas, fracs)))

    def test_wrong_row_width_rejected(self):
        rows = [(t, (0.3, 0.3, 0.4)) for t in SCAN_THETAS]
        with pytest.raises(ConfigurationError):
            fit_fringe(rows)

    def test_counts_must_align_with_rows(self):
        fracs = synthetic_fractions(SCAN_THETAS, (0.25,) * 4, 0.9, 0.0)
        with pytest.raises(ConfigurationError):
            fit_fringe(list(zip(SCAN_THETAS, fracs)), counts=np.ones(5))
        with pytest.raises(ConfigurationError):
            fit_fringe(list(zip(SCAN_THETAS, fracs)), counts=np.zeros(13))

    def test_covariance_scales_inversely_with_counts(self):
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        rows = exact_fraction_scan(source, eff, SCAN_THETAS)
        fit_lo = fit_fringe(rows, counts=np.full(len(rows), 1e6))
        fit_hi = fit_fringe(rows, counts=np.full(len(rows), 4e6))
        ratio = fit_lo.visibility_stderr() / fit_hi.visibility_stderr()
        assert abs(ratio - 2.0) < 1e-6

    def test_visibility_interval_coverage(self):
        # 100 seeded scan repetitions at the 240 m point; the 95% interval
        # from the fit covariance must cover the asymptotic fitted value
        # nearly at nominal rate (diagonal weighting costs slight width).
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        pulses, seed = 200_000, 2025
        hits = 0
        pulls = []
        for rep in range(100):
            scan, csums = [], []
            for j, t in enumerate(SCAN_THETAS):
                rng = stream_generator(seed, LANE_TALLY, setting_index=j,
                                       chunk_index=rep)
                tal = sample_tally(source, eff, 3.0 * t, pulses, rng,
                                   setting_index=j)
                quartet = np.array(tal.coincidence_counts(), dtype=float)
                scan.append((t, quartet / tal.c_sum))
                csums.append(tal.c_sum)
            fit = fit_fringe(scan, counts=np.array(csums))
            sigma = fit.visibility_stderr()
            pulls.append((fit.visibility_hat - V_EFF_240) / sigma)
            if abs(fit.visibility_hat - V_EFF_240) <= 1.96 * sigma:
                hits += 1
        assert hits >= 88
        assert abs(float(np.mean(pulls))) < 1.0

    def test_json_round_trip(self, tmp_path):
        fit = FringeFit.ideal(visibility=0.93, phase_offset=0.2)
        path = tmp_path / "fit.json"
        fit.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["visibility_hat"] == 0.93
        assert doc["phase_offset"] == 0.2
        assert set(doc["offsets"]) == {"A1B1", "A1B2", "A2B1", "A2B2"}
        assert doc["offsets"]["A1B1"] == 0.25
        assert doc["amplitudes"]["A2B1"] == pytest.approx(0.25 * 0.93)
        assert len(doc["covariance"]) == 6
        assert doc["dof"] == 0

    def test_fit_error_carries_residuals(self):
        err = FitError("no convergence", residuals=np.array([1.0, 2.0]))
        assert err.residuals is not None
        assert len(err.residuals) == 2

    def test_step_cap_raises_fit_error_with_residuals(self, monkeypatch):
        scan, counts = noisy_scan(0)
        monkeypatch.setattr(estimation, "_FIT_MAX_STEPS", 1)
        with pytest.raises(FitError, match="did not converge within 1 steps") as err:
            fit_fringe(scan, counts=counts)
        assert err.value.residuals.shape == (13 * 4,)
        assert np.all(np.isfinite(err.value.residuals))

    @pytest.mark.parametrize("where, value", [("theta", math.nan),
                                              ("fraction", math.nan),
                                              ("fraction", math.inf),
                                              ("count", math.inf),
                                              ("count", math.nan)])
    def test_non_finite_input_names_the_row(self, where, value):
        scan, counts = noisy_scan(0)
        t, fracs = scan[7]
        if where == "theta":
            scan[7] = (value, fracs)
        elif where == "fraction":
            scan[7] = (t, (*fracs[:3], value))
        else:
            counts[7] = value
        with pytest.raises(ConfigurationError, match="scan row 7: .* finite"):
            fit_fringe(scan, counts=counts)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            FringeFit(1.2, 0.0, (0.25,) * 4, np.zeros((6, 6)), 0.0, 0)
        with pytest.raises(ConfigurationError):
            FringeFit(0.9, 0.0, (0.25, 0.25, 0.25), np.zeros((6, 6)), 0.0, 0)
        with pytest.raises(ConfigurationError):
            FringeFit(0.9, 0.0, (0.25,) * 4, np.zeros((5, 5)), 0.0, 0)


def noisy_scan(rep):
    """A seeded 13-point sampled scan at the 240 m point, with its C_sum
    counts."""
    source = SourceParams(mu=MU_240, visibility=V_240)
    eff = EfficiencyBudget(ETA_240)
    scan, csums = [], []
    for j, t in enumerate(SCAN_THETAS):
        rng = stream_generator(3113, LANE_TALLY, setting_index=j, chunk_index=rep)
        tal = sample_tally(source, eff, 3.0 * t, 200_000, rng, setting_index=j)
        scan.append((t, np.array(tal.coincidence_counts(), dtype=float) / tal.c_sum))
        csums.append(tal.c_sum)
    return scan, np.array(csums, dtype=float)


def least_squares_fit(scan, counts=None):
    """(parameters, covariance, chi2) of scipy's trust-region fit on the
    residuals, start and bounds of fit_fringe, phi0 in (-pi, pi]."""
    thetas = np.array([t for t, _ in scan])
    fracs = np.array([f for _, f in scan], dtype=float)
    var_shape = np.clip(fracs * (1.0 - fracs), 1e-6, None)
    weights = 1.0 / var_shape if counts is None else counts[:, None] / var_shape

    def residuals(p):
        model = p[:4] * (1.0 + np.cos(3 * thetas + p[5])[:, None] * SIGNS * p[4])
        return ((model - fracs) * np.sqrt(weights)).ravel()

    a0, v0, phi0 = estimation._fourier_probe(thetas, fracs)
    result = least_squares(
        residuals, np.concatenate([np.clip(a0, 1e-6, None), [v0, phi0]]),
        bounds=([1e-9] * 4 + [0.0, -2 * math.pi], [np.inf] * 4 + [1.0, 2 * math.pi]),
        xtol=1e-10, ftol=1e-12, gtol=1e-12, max_nfev=200)
    assert result.status > 0
    cov = np.linalg.inv(result.jac.T @ result.jac)
    chi2 = 2.0 * result.cost
    if counts is None:
        cov = cov * chi2 / (fracs.size - 6)
    params = result.x.copy()
    params[5] = math.remainder(params[5], 2 * math.pi)
    return params, cov, chi2


def parity_cases():
    """(id, scan, counts): the analytic calibration of every preset (the
    threshold scan at both ends of its efficiency range), noiseless scans
    at V = 1 and at phase origins -2 and 3.5, and 20 noisy scans fitted
    with and without their counts."""
    thetas = [float(t) for t in SCAN_THETAS]
    cases = []
    for name in PRESET_NAMES:
        config = load_preset(name)
        if name == "threshold-scan":
            effs = [EfficiencyBudget.uniform(eta) for eta in config.scan.eta_range]
        else:
            effs = [config.require("efficiency")]
        for i, eff in enumerate(effs):
            rows = _analytic_rows(config.source, eff, thetas)
            cases.append((f"{name}-{i}", [(t, f) for t, f, _ in rows],
                          np.full(len(rows), 1e9)))
    for name, v, phi0 in (("unit-visibility", 1.0, 0.0), ("origin-2", 0.9, -2.0),
                          ("origin3.5", 0.9, 3.5)):
        fracs = synthetic_fractions(SCAN_THETAS, (0.24, 0.26, 0.25, 0.25), v, phi0)
        cases.append((name, list(zip(SCAN_THETAS, fracs)), None))
    for rep in range(20):
        scan, counts = noisy_scan(rep)
        cases.append((f"noisy{rep}-counts", scan, counts))
        cases.append((f"noisy{rep}-relative", scan, None))
    return cases


class TestLeastSquaresParity:
    """fit_fringe's Levenberg-Marquardt against scipy's least_squares on the
    same problem: parameters within 1e-8, covariance and chi^2 within 1e-6
    relative.  A noiseless relative-mode fit has chi^2 at rounding level
    (below 1e-12) and a covariance scaled by it; those compare absolutely."""

    def test_matches_least_squares(self):
        cases = parity_cases()
        assert len(cases) == 5 + 3 + 40
        for name, scan, counts in cases:
            fit = fit_fringe(scan, counts=counts)
            params = np.array([*fit.offsets, fit.visibility_hat, fit.phase_offset])
            want, want_cov, want_chi2 = least_squares_fit(scan, counts)
            np.testing.assert_allclose(params, want, rtol=0, atol=1e-8, err_msg=name)
            if want_chi2 < 1e-12:
                assert counts is None and fit.residual_chi2 < 1e-12, name
                np.testing.assert_allclose(fit.covariance, want_cov, rtol=0,
                                           atol=1e-12, err_msg=name)
                continue
            scale = np.abs(want_cov).max()
            np.testing.assert_allclose(fit.covariance, want_cov, rtol=0,
                                       atol=1e-6 * scale, err_msg=name)
            assert fit.residual_chi2 == pytest.approx(want_chi2, rel=1e-6), name

    @pytest.mark.parametrize("seed", range(8))
    def test_visibility_held_on_its_bound(self, seed):
        # noise pushes the unconstrained visibility past 1, so the fit must
        # hold V on the bound and solve the other five parameters; the
        # interior-point reference stops up to about 1e-8 short of that
        # optimum, so the fit's chi^2 may only be lower
        rng = np.random.default_rng(seed)
        fracs = synthetic_fractions(SCAN_THETAS, (0.24, 0.26, 0.25, 0.25), 0.995, 0.15)
        fracs = np.clip(fracs + rng.normal(0.0, 0.004, fracs.shape), 1e-4, None)
        scan = list(zip(SCAN_THETAS, fracs))
        fit = fit_fringe(scan)
        want, _, want_chi2 = least_squares_fit(scan)
        assert fit.visibility_hat == 1.0
        assert fit.residual_chi2 <= want_chi2 * (1.0 + 1e-12)
        params = np.array([*fit.offsets, fit.visibility_hat, fit.phase_offset])
        np.testing.assert_allclose(params, want, rtol=0, atol=1e-7)


class TestMlePhase:
    """The MLE of a single tally, through a one-row estimate_blocks call."""

    def test_exact_inversion_at_quarter_period(self):
        tally = tally_from_quartet(coincidence_probs(math.pi / 2, V_EFF_240))
        cal = FringeFit.ideal(visibility=V_EFF_240)
        theta_hat = mle_one(tally, cal)
        assert abs(theta_hat - math.pi / 6) < 1e-9

    @pytest.mark.parametrize("u_true", [0.4, 1.0, 2.0, 2.8])
    def test_inversion_across_branch(self, u_true):
        tally = tally_from_quartet(coincidence_probs(u_true, 0.95))
        cal = FringeFit.ideal(visibility=0.95)
        theta_hat = mle_one(tally, cal)
        assert abs(theta_hat - u_true / 3) < 1e-7

    def test_out_of_branch_truth_comes_back_folded(self):
        # cos is even: u and 2*pi - u produce identical coincidence
        # statistics, so the estimator returns the in-branch image.
        u_outside = 2 * math.pi - 0.9
        tally = tally_from_quartet(coincidence_probs(u_outside, 0.95))
        cal = FringeFit.ideal(visibility=0.95)
        theta_hat = mle_one(tally, cal)
        assert abs(theta_hat - 0.9 / 3) < 1e-7

    def test_calibration_phase_offset_shifts_inversion(self):
        tally = tally_from_quartet(coincidence_probs(1.7, 0.95))
        cal = FringeFit.ideal(visibility=0.95, phase_offset=0.2)
        theta_hat = mle_one(tally, cal)
        assert abs(theta_hat - 1.5 / 3) < 1e-7

    def test_antiphase_extremum_hits_lower_boundary(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[0b0110] = 500  # A1B2
        counts[0b1001] = 500  # A2B1
        with pytest.warns(DegenerateEstimateWarning, match="boundary"):
            theta_hat = mle_one(Tally(counts=counts),
                                FringeFit.ideal(visibility=0.99))
        assert theta_hat == 0.0

    def test_inphase_extremum_hits_upper_boundary(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[0b0101] = 500  # A1B1
        counts[0b1010] = 500  # A2B2
        with pytest.warns(DegenerateEstimateWarning, match="boundary"):
            theta_hat = mle_one(Tally(counts=counts),
                                FringeFit.ideal(visibility=0.99))
        assert theta_hat == pytest.approx(math.pi / 3, abs=1e-12)

    def test_flat_likelihood_returns_branch_midpoint(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[0b0111] = 10  # threefold only: informative, no coincidences
        with pytest.warns(DegenerateEstimateWarning, match="flat"):
            theta_hat = mle_one(Tally(counts=counts),
                                FringeFit.ideal(visibility=0.9))
        assert theta_hat == pytest.approx(math.pi / 6, abs=1e-12)


class TestEstimateBlocks:
    def test_matches_scalar_mle_rowwise(self):
        source = SourceParams(mu=MU_240, visibility=V_240)
        eff = EfficiencyBudget(ETA_240)
        rng = stream_generator(99, LANE_BLOCKS)
        run = sample_blocked_run(source, eff, math.pi / 2, k_bar=400, s=6,
                                 rng=rng)
        cal = FringeFit.ideal(visibility=V_EFF_240)
        batch = estimate_blocks(run.block_counts, cal)
        for i in range(6):
            one = estimate_blocks(run.block_counts[i:i + 1], cal)[0]
            assert batch[i] == pytest.approx(one, abs=1e-10)

    def test_crb_saturation_on_ideal_run(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        rng = stream_generator(12345, LANE_BLOCKS)
        run = sample_blocked_run(source, eff, math.pi / 2, k_bar=900, s=500,
                                 rng=rng)
        ests = estimate_blocks(run.block_counts, FringeFit.ideal())
        stats = block_stats(ests)
        bound = crb(900, 9.0)  # criterion 1 proves the 9 exactly
        ratio = stats.delta_hat / bound
        assert 0.95 < ratio < 1.05
        assert ratio == pytest.approx(1.0047081509, abs=1e-6)

    def test_unbiased_away_from_extrema(self):
        source = SourceParams(mu=1e-3, visibility=1.0)
        eff = EfficiencyBudget.uniform(1.0)
        rng = stream_generator(12345, LANE_BLOCKS)
        run = sample_blocked_run(source, eff, math.pi / 2, k_bar=900, s=500,
                                 rng=rng)
        ests = estimate_blocks(run.block_counts, FringeFit.ideal())
        stats = block_stats(ests)
        pull = (np.mean(ests) - math.pi / 6) / (stats.delta_hat / math.sqrt(500))
        assert abs(pull) < 4.0

    def test_shape_validation(self):
        cal = FringeFit.ideal()
        with pytest.raises(ConfigurationError):
            estimate_blocks(np.zeros(9, dtype=int), cal)
        with pytest.raises(ConfigurationError):
            estimate_blocks(np.zeros((3, 7), dtype=int), cal)


GRID_SIZE = 4096  # the u grid of both references below


def brent_estimate_blocks(block_counts, cal):
    """The per-block bounded-Brent polish that the batched Newton solve
    replaced, kept as its reference: (u estimates, boundary and flat
    counts)."""
    cats = block_category_counts(block_counts)
    u_grid = np.linspace(0.0, math.pi, GRID_SIZE + 2)[1:-1]
    loglike = cats @ estimation._category_log_probs(u_grid, cal).T
    best = np.argmax(loglike, axis=1)
    flat = loglike.max(axis=1) - loglike.min(axis=1) < 1e-12

    def refine(row, lo, hi):
        def neg_loglike(u):
            logp = estimation._category_log_probs(np.array([u]), cal)[0]
            return -float(np.dot(row, logp))
        return float(minimize_scalar(neg_loglike, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-12}).x)

    u_hat = np.empty(len(cats))
    n_boundary = n_flat = 0
    for i, b in enumerate(best):
        if flat[i]:
            u_hat[i] = math.pi / 2
            n_flat += 1
            continue
        lo = 0.0 if b == 0 else u_grid[b - 1]
        hi = math.pi if b == len(u_grid) - 1 else u_grid[b + 1]
        u_hat[i] = refine(cats[i], lo, hi)
        if b in (0, len(u_grid) - 1):
            edge = 0.0 if b == 0 else math.pi
            if abs(u_hat[i] - edge) < 1e-6:
                u_hat[i] = edge
                n_boundary += 1
    return u_hat, n_boundary, n_flat


def grid_estimate_blocks(block_counts, cal):
    """The grid-plus-Newton solve that the grid-free one replaced, kept as
    its reference: each block's best point of a 4096-point u grid, polished
    by the safeguarded Newton loop within the grid cells either side.
    Returns (u estimates, boundary and flat counts)."""
    cats = block_category_counts(block_counts)
    nodes = np.linspace(0.0, math.pi, GRID_SIZE + 2)  # the grid is nodes[1:-1]
    loglike = cats @ estimation._category_log_probs(nodes[1:-1], cal).T
    best = np.argmax(loglike, axis=1)
    flat = loglike.max(axis=1) - loglike.min(axis=1) < 1e-12
    at_lo = best == 0
    at_hi = best == GRID_SIZE - 1

    u_hat = np.where(flat, math.pi / 2.0, nodes[best + 1])
    lo, hi = nodes[best], nodes[best + 2]
    active = np.flatnonzero(~flat)
    for _ in range(estimation._MAX_STEPS):
        x = u_hat[active]
        g, h = slopes(cats[active], cal, x)
        lo[active] = b_lo = np.where(g > 0, x, lo[active])
        hi[active] = b_hi = np.where(g > 0, hi[active], x)
        newton = x - np.divide(g, h, out=np.zeros_like(g), where=h < 0)
        inside = (h < 0) & (((b_lo < newton) & (newton < b_hi)) | (newton == x))
        u_hat[active] = u_new = np.where(inside, newton, (b_lo + b_hi) / 2)
        active = active[abs(u_new - x) > estimation._STEP_TOL]
        if not active.size:
            break
    edge = np.where(at_lo, 0.0, math.pi)
    boundary = ~flat & (at_lo | at_hi) & (np.abs(u_hat - edge) < 1e-6)
    u_hat[boundary] = edge[boundary]
    return u_hat, int(boundary.sum()), int(flat.sum())


def converged_estimate_blocks(block_counts, cal):
    """The grid-free solve with every row iterated to _STEP_TOL, kept as the
    reference for stopping rows whose bracket is settled by the boundary
    rule.  Returns (u estimates, boundary and flat counts)."""
    cats = block_category_counts(block_counts)
    phi0 = cal.phase_offset
    turn = -phi0 % math.pi
    left, right = (0.0, turn) if turn >= math.pi / 2.0 else (turn, math.pi)
    a = np.array(cal.offsets)
    b = a * np.array(FRINGE_SIGNS) * cal.visibility_hat
    fracs = cats / np.maximum(cats.sum(axis=1, keepdims=True), 1)
    c = (fracs * a.sum() - a) @ b / max(b @ b, np.finfo(float).tiny)
    root = np.arccos(np.clip(c, -1.0, 1.0))
    if math.sin((left + right) / 2.0 + phi0) < 0.0:
        root = -root
    start = (root - phi0) % (2.0 * math.pi)
    u_hat = np.where((left < start) & (start < right), start, (left + right) / 2.0)
    lo, hi = np.full(len(cats), left), np.full(len(cats), right)
    active = np.arange(len(cats))
    for _ in range(estimation._MAX_STEPS):
        x = u_hat[active]
        g, h = slopes(cats[active], cal, x)
        lo[active] = b_lo = np.where(g > 0, x, lo[active])
        hi[active] = b_hi = np.where(g > 0, hi[active], x)
        newton = x - np.divide(g, h, out=np.zeros_like(g), where=h < 0)
        inside = (h < 0) & (((b_lo < newton) & (newton < b_hi)) | (newton == x))
        u_hat[active] = u_new = np.where(inside, newton, (b_lo + b_hi) / 2)
        active = active[abs(u_new - x) > estimation._STEP_TOL]
        if not active.size:
            break
    logp = estimation._category_log_probs(np.append(u_hat, [left, right]), cal)
    peak = (cats * logp[:-2]).sum(axis=1)
    flat = peak - (cats[:, None, :] * logp[-2:]).sum(axis=2).min(axis=1) < 1e-12
    u_hat = np.minimum(u_hat, (-2.0 * phi0 - u_hat) % (2.0 * math.pi))
    u_hat[flat] = math.pi / 2.0
    edge = np.where(u_hat < math.pi / 2.0, 0.0, math.pi)
    boundary = ~flat & (np.abs(u_hat - edge) < 1e-6)
    u_hat[boundary] = edge[boundary]
    return u_hat, int(boundary.sum()), int(flat.sum())


def slopes(cats, cal, u):
    """estimation._loglike_slopes at u of (n, 4) rows of coincidence counts."""
    return estimation._loglike_slopes(cats.T, estimation._slope_terms(cal), u)


def rowwise_loglike_slopes(cats, cal, u):
    """The (n, 5) form of the slope kernel, one row per block, that the
    transposed (5, n) form replaced with the same operations, kept as its
    reference: L'(u) and L''(u) of cats @ _category_log_probs."""
    alpha = np.array(cal.offsets)
    beta = alpha * np.array(FRINGE_SIGNS) * cal.visibility_hat
    alpha, beta = np.append(alpha, alpha.sum()), np.append(beta, beta.sum())
    phase = u[:, None] + cal.phase_offset
    f = alpha - abs(beta) + 2 * abs(beta) * np.where(
        beta > 0, np.cos(phase / 2), np.sin(phase / 2)) ** 2
    weights = np.where(f[:, :4] / f[:, 4:] > 1e-300, cats, 0)
    weights = np.column_stack([weights, -weights.sum(axis=1)])
    f = np.where(weights != 0, f, 1.0)
    g = -beta * np.sin(phase) / f
    h = -beta * np.cos(phase) / f - g * g
    return (weights * g).sum(axis=1), (weights * h).sum(axis=1)


def block_category_counts(block_counts):
    slots = [INFORMATIVE_PATTERNS.index(p) for p in COINCIDENCE_PATTERNS]
    return block_counts[:, slots]


def loglike(cats, cal, u):
    return cats @ estimation._category_log_probs(np.atleast_1d(u), cal).T


def degenerate_counts(caught):
    counts = {"boundary": 0, "flat": 0}
    for w in caught:
        assert issubclass(w.category, DegenerateEstimateWarning)
        kind = "boundary" if "boundary" in str(w.message) else "flat"
        counts[kind] += int(str(w.message).split()[0])
    return counts["boundary"], counts["flat"]


class TestBatchedPolish:
    """The vectorized Newton polish against the per-block Brent reference.

    Brent's bounded search stops at sqrt(eps)*|u| + xatol/3, so the
    reference sits up to a few 1e-8 in u from the likelihood's
    stationary point; the batched solve lands on it.
    """

    SOURCE = SourceParams(mu=MU_240, visibility=V_240)
    EFF = EfficiencyBudget(ETA_240)

    @pytest.fixture(scope="class")
    def calibrations(self):
        cal = analytic_calibration(self.SOURCE, self.EFF)
        return {"fit": cal, "shifted": replace(cal, phase_offset=0.2)}

    def blocks(self, u):
        rng = stream_generator(2024, LANE_BLOCKS, setting_index=int(100 * u))
        return sample_blocked_run(self.SOURCE, self.EFF, u, k_bar=6200, s=40,
                                  rng=rng).block_counts

    @pytest.mark.parametrize("cal_name", ["fit", "shifted"])
    @pytest.mark.parametrize("u", [0.6, 1.3, 2.0, 2.7])
    def test_matches_brent_reference_and_is_stationary(self, calibrations, cal_name, u):
        cal = calibrations[cal_name]
        block_counts = self.blocks(u)
        got = 3.0 * estimate_blocks(block_counts, cal)
        want, n_boundary, n_flat = brent_estimate_blocks(block_counts, cal)
        assert (n_boundary, n_flat) == (0, 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)
        cats = block_category_counts(block_counts)
        g, h = slopes(cats, cal, got)
        assert np.all(h < 0)
        assert np.max(np.abs(g / h)) <= 1e-12

    def test_slopes_match_finite_differences(self, calibrations):
        cal = calibrations["shifted"]
        cats = block_category_counts(self.blocks(1.3))
        u = np.linspace(0.3, 2.9, len(cats))
        g, h = slopes(cats, cal, u)
        for i in range(len(cats)):
            at = lambda x: loglike(cats[i], cal, x)[0]
            d = 1e-5
            assert g[i] == pytest.approx((at(u[i] + d) - at(u[i] - d)) / (2 * d),
                                         rel=1e-6)
            d = 1e-4
            assert h[i] == pytest.approx(
                (at(u[i] + d) - 2 * at(u[i]) + at(u[i] - d)) / d**2, rel=1e-5)

    @pytest.mark.parametrize("seed", range(4))
    def test_slopes_equal_the_rowwise_reference(self, calibrations, seed):
        # bit for bit, over calibrations whose rates vanish (V = 1 at the
        # fringe extrema), blocks with empty channels, and u at the branch
        # edges or within the 1e-6 edge rule of them
        rng = np.random.default_rng(seed)
        offsets = tuple(rng.uniform(0.1, 0.4, 4))
        cals = [calibrations["fit"], calibrations["shifted"], FringeFit.ideal(),
                FringeFit.ideal(visibility=0.0),
                replace(FringeFit.ideal(), offsets=offsets),
                replace(FringeFit.ideal(), offsets=offsets,
                        visibility_hat=float(rng.uniform(0.5, 1.0)),
                        phase_offset=float(rng.uniform(-math.pi, math.pi)))]
        n = 500
        cats = rng.integers(0, 4000, size=(n, 4))
        cats[rng.random((n, 4)) < 0.2] = 0
        cats[:8] = 0
        u = rng.uniform(0.0, math.pi, n)
        u[:40] = np.tile([0.0, math.pi, 5e-7, math.pi - 5e-7, 2e-6], 8)
        for cal in cals:
            got, want = slopes(cats, cal, u), rowwise_loglike_slopes(cats, cal, u)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        # the ideal fringe's rates do vanish there
        assert (FringeFit.ideal().channel_fractions(u[:2]) == 0).sum() == 4

    def test_mixed_batch_keeps_degenerate_semantics(self):
        cal = FringeFit.ideal()
        slot = INFORMATIVE_PATTERNS.index
        lower_edge = np.zeros(9, dtype=np.int64)
        lower_edge[[slot(0b0110), slot(0b1001)]] = 500  # A1B2, A2B1
        upper_edge = np.zeros(9, dtype=np.int64)
        upper_edge[[slot(0b0101), slot(0b1010)]] = 500  # A1B1, A2B2
        flat = np.zeros(9, dtype=np.int64)
        flat[slot(0b0111)] = 10  # threefold only: no coincidences
        # maxima inside the first grid cell (pi/4097 wide), from counts
        # proportional to the law: at 5e-7 the 1e-6 edge rule reports the
        # edge; at 2e-6, where cos(u) = 1 - 2e-12, it must not
        near = {}
        for u, events in ((3e-4, 1e12), (5e-7, 1e17), (2e-6, 1e16)):
            near[u] = np.zeros(9, dtype=np.int64)
            for p, q in zip(COINCIDENCE_PATTERNS, coincidence_probs(u, 1.0)):
                near[u][slot(p)] = round(q * events)
        rng = stream_generator(12345, LANE_BLOCKS)
        ordinary = sample_blocked_run(SourceParams(mu=1e-3, visibility=1.0),
                                      EfficiencyBudget.uniform(1.0), 1.2,
                                      k_bar=900, s=5, rng=rng).block_counts
        batch = np.vstack([ordinary[:2], lower_edge, flat, near[3e-4], upper_edge,
                           near[5e-7], near[2e-6], ordinary[2:]])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = 3.0 * estimate_blocks(batch, cal)
        want, n_boundary, n_flat = brent_estimate_blocks(batch, cal)
        assert (n_boundary, n_flat) == (3, 1)
        assert degenerate_counts(caught) == (n_boundary, n_flat)
        assert len(caught) == 2
        assert (got[2], got[3], got[5], got[6]) == (0.0, math.pi / 2, math.pi, 0.0)
        np.testing.assert_array_equal(got[[2, 3, 5, 6]], want[[2, 3, 5, 6]])
        assert got[4] == pytest.approx(3e-4, rel=1e-6)
        assert got[7] == pytest.approx(2e-6, rel=1e-6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)


PRESETS = ("paper-240m", "paper-10km", "ideal")


@pytest.fixture(scope="module")
def precision_scans():
    """Per preset: its analytic calibration and the block counts of its
    precision scan's interior setpoints, drawn as `precision` draws them."""
    scans = {}
    for name in PRESETS:
        config = load_preset(name)
        source, eff = config.source, config.require("efficiency")
        blocks, points = config.require("blocks"), config.require("scan").points
        runs = []
        for j in range(points):
            u = 3.0 * (math.pi / 3.0 * (j + 1) / (points + 1))
            rng = stream_generator(config.seed, LANE_BLOCKS, setting_index=j)
            runs.append(sample_blocked_run(source, eff, u, blocks.k_bar, blocks.s,
                                           rng, setting_index=j).block_counts)
        scans[name] = (analytic_calibration(source, eff), runs)
    return scans


def estimate_with_counts(block_counts, cal):
    """(u estimates, boundary and flat counts) from estimate_blocks."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u = 3.0 * estimate_blocks(block_counts, cal)
    return (u, *degenerate_counts(caught))


class TestGridFree:
    """The grid-free solve against the grid-plus-Newton reference, and the
    piece, mirror-tie and degenerate rules it states for phi0 != 0."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_grid_reference_on_precision_scans(self, precision_scans, preset):
        cal, runs = precision_scans[preset]
        for block_counts in runs:
            got, *got_counts = estimate_with_counts(block_counts, cal)
            want, *want_counts = grid_estimate_blocks(block_counts, cal)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert got_counts == want_counts

    @pytest.mark.parametrize("u", [0.0, math.pi])
    def test_matches_grid_reference_at_fringe_extrema(self, precision_scans, u):
        # about half the blocks of an extremum setting land on the edge
        cal = precision_scans["paper-240m"][0]
        rng = stream_generator(24001, LANE_BLOCKS, setting_index=99)
        block_counts = sample_blocked_run(
            TestBatchedPolish.SOURCE, TestBatchedPolish.EFF, u, k_bar=6200, s=400,
            rng=rng).block_counts
        got, *got_counts = estimate_with_counts(block_counts, cal)
        want, *want_counts = grid_estimate_blocks(block_counts, cal)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert got_counts == want_counts
        assert 100 < got_counts[0] < 300

    @pytest.mark.parametrize("u", [0.0, math.pi])
    def test_edge_rows_stop_early_with_identical_results(self, precision_scans,
                                                         monkeypatch, u):
        # a row whose bracket lies within 1e-6 of 0 or pi stops iterating;
        # the boundary rule gives it the edge either way
        cal = precision_scans["paper-240m"][0]
        rng = stream_generator(24001, LANE_BLOCKS, setting_index=99)
        block_counts = sample_blocked_run(
            TestBatchedPolish.SOURCE, TestBatchedPolish.EFF, u, k_bar=6200, s=400,
            rng=rng).block_counts
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = estimate_blocks(block_counts, cal)
        want, *want_counts = converged_estimate_blocks(block_counts, cal)
        np.testing.assert_array_equal(got, want / 3.0)
        assert list(degenerate_counts(caught)) == want_counts
        assert len(caught) == 1 and 100 < want_counts[0] < 300

        # The saving hangs on the sign of the fitted origin, which sits at
        # rounding level: for phi0 <= 0 the reference's edge rows at u = 0
        # converge by Newton without bisecting, so there is nothing to save.
        # Count rows at phi0 = +6.6e-12, an origin whose edge rows bisect.
        cal = replace(cal, phase_offset=6.6e-12)
        rows = []
        real_slopes = estimation._loglike_slopes

        def counting_slopes(cats, terms, u):
            rows.append(len(u))
            return real_slopes(cats, terms, u)

        monkeypatch.setattr(estimation, "_loglike_slopes", counting_slopes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateEstimateWarning)
            estimate_blocks(block_counts, cal)
        got_rows, rows[:] = sum(rows), []
        converged_estimate_blocks(block_counts, cal)
        assert got_rows < 0.7 * sum(rows)

    @pytest.mark.parametrize("phase_offset", [0.2, -0.2, 2.0, -2.0])
    def test_moment_start_inside_the_piece(self, precision_scans, monkeypatch,
                                           phase_offset):
        # Blocks drawn at u in (pi - 2, 2) have their maximum inside the
        # piece with no mirror in [0, pi] at any of these origins.  At
        # |phi0| > pi/2 the root of cos(u + phi0) = c on the piece is
        # -arccos(c) - phi0 (mod 2 pi); starting at the piece's midpoint
        # instead takes 5 Newton rows a block here.
        cal = replace(precision_scans["paper-240m"][0], phase_offset=phase_offset)
        block_counts = np.vstack([
            sample_blocked_run(TestBatchedPolish.SOURCE, TestBatchedPolish.EFF, u,
                               k_bar=6200, s=400,
                               rng=stream_generator(24001, LANE_BLOCKS,
                                                    setting_index=i)).block_counts
            for i, u in enumerate((1.3, 1.6, 1.9))])
        calls = []
        real_slopes = estimation._loglike_slopes

        def counting_slopes(cats, terms, u):
            calls.append(u.copy())
            return real_slopes(cats, terms, u)

        monkeypatch.setattr(estimation, "_loglike_slopes", counting_slopes)
        got, *got_counts = estimate_with_counts(block_counts, cal)
        turn = -phase_offset % math.pi
        left, right = (0.0, turn) if turn >= math.pi / 2.0 else (turn, math.pi)
        assert not np.any(calls[0] == (left + right) / 2.0)
        assert sum(len(u) for u in calls) < 3.5 * len(block_counts)
        want, *want_counts = grid_estimate_blocks(block_counts, cal)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert got_counts == want_counts == [0, 0]

    @pytest.mark.parametrize("phase_offset", [0.2, -0.2, 2.0])
    def test_shifted_calibration_matches_dense_grid(self, precision_scans, phase_offset):
        cal = replace(precision_scans["paper-240m"][0], phase_offset=phase_offset)
        block_counts = np.vstack([
            sample_blocked_run(TestBatchedPolish.SOURCE, TestBatchedPolish.EFF, u,
                               k_bar=6200, s=12,
                               rng=stream_generator(7, LANE_BLOCKS, setting_index=i)
                               ).block_counts
            for i, u in enumerate((0.1, 1.6, 3.0))])
        got = estimate_with_counts(block_counts, cal)[0]
        cats = block_category_counts(block_counts)
        dense = np.linspace(0.0, math.pi, 50_001)
        dense_loglike = loglike(cats, cal, dense)
        at_got = np.array([loglike(row, cal, u)[0] for row, u in zip(cats, got)])
        # no point of the dense grid beats an estimate
        assert np.all(at_got >= dense_loglike.max(axis=1) - 1e-12 * np.abs(at_got))
        # the dense argmax is the estimate or its mirror, which ties in L; on
        # a tie the estimate is the lower of the two
        mirror = (-2.0 * phase_offset - got) % (2.0 * math.pi)
        best = dense[np.argmax(dense_loglike, axis=1)]
        assert np.all(np.minimum(abs(got - best), abs(mirror - best)) <= dense[1])
        tied = (mirror <= math.pi) & (abs(mirror - got) > 1e-9)
        assert np.all(got[tied] < mirror[tied])
        turn = -phase_offset % math.pi
        past_turn = ~tied & (got > turn + 1e-3) & (got < math.pi)
        if phase_offset == 0.2:
            assert tied.sum() >= 6
        else:  # the maximum past the turn is found there
            assert past_turn.sum() >= 12

    def test_mirror_ties_keep_the_lower_u(self, precision_scans):
        # at phi0 = 0.2 a maximum past pi - phi0 has a mirror below it with
        # the same likelihood, as at the setpoint nearest pi/3
        cal, runs = precision_scans["paper-240m"]
        shifted = replace(cal, phase_offset=0.2)
        got = 3.0 * estimate_blocks(runs[-1], shifted)
        mirror = (-0.4 - got) % (2.0 * math.pi)
        tied = mirror <= math.pi
        assert tied.sum() > 100
        assert np.all(got[tied] < mirror[tied])
        cats = block_category_counts(runs[-1])[tied]
        at_got = loglike(cats, shifted, got[tied]).diagonal()
        at_mirror = loglike(cats, shifted, mirror[tied]).diagonal()
        np.testing.assert_allclose(at_mirror, at_got, rtol=1e-12, atol=0)

    def test_one_call_peak_memory(self, precision_scans):
        cal, runs = precision_scans["paper-240m"]
        tracemalloc.start()
        try:
            estimate_blocks(runs[6], cal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs[6]) == 1595
        assert peak < 4 * 2**20

    def test_zero_visibility_is_flat_everywhere(self, precision_scans):
        # the moment start divides by the fitted visibility
        block_counts = precision_scans["paper-240m"][1][6]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            got = estimate_blocks(block_counts, FringeFit.ideal(visibility=0.0))
        np.testing.assert_array_equal(got, math.pi / 2.0 / 3.0)
        assert len(caught) == 1
        assert degenerate_counts(caught) == (0, len(block_counts))


class TestBlockStats:
    def test_four_point_example(self):
        stats = block_stats([0.1, 0.2, 0.3, 0.4])
        assert stats.s == 4
        assert stats.delta_hat == pytest.approx(0.1290994449, abs=1e-10)
        assert stats.delta_err == pytest.approx(0.0527046277, abs=1e-10)

    def test_error_bar_identity(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0.5, 0.01, size=333)
        stats = block_stats(values)
        assert stats.delta_err == pytest.approx(
            stats.delta_hat / math.sqrt(2 * 332), rel=1e-14)

    def test_published_style_error_bar(self):
        # a spread of 0.00536 over 1579 blocks carries an error bar of
        # 9.5e-5 on the spread itself
        rng = np.random.default_rng(3)
        values = rng.normal(size=1579)
        values *= 0.00536 / values.std(ddof=1)
        stats = block_stats(values)
        assert stats.s == 1579
        assert stats.delta_hat == pytest.approx(0.00536, rel=1e-12)
        assert stats.delta_err == pytest.approx(9.5e-5, abs=5e-7)

    def test_constant_estimates_have_zero_spread(self):
        stats = block_stats([0.25] * 10)
        assert stats.delta_hat == 0.0
        assert stats.delta_err == 0.0

    def test_gaussian_width_recovered(self):
        rng = np.random.default_rng(11)
        sigma = 0.0048
        values = rng.normal(math.pi / 6, sigma, size=1579)
        stats = block_stats(values)
        assert abs(stats.delta_hat - sigma) < 4 * stats.delta_err

    def test_too_few_estimates_rejected(self):
        with pytest.raises(DomainError):
            block_stats([0.1])
        with pytest.raises(DomainError):
            block_stats([])

