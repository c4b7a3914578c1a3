"""Phase estimation: fringe calibration, per-block MLE, block statistics.

The estimation chain mirrors how the measured data are reduced: a scan of
coincidence fractions versus the set phase calibrates the four fringe
curves (shared visibility and phase origin, per-channel offsets); blocks
of k_bar informative events are then inverted all at once, one maximum-
likelihood estimate per block against the calibrated curves; the spread
of the per-block estimates is the measured precision, with the
chi-distribution error bar delta/sqrt(2(s-1)).

Branch discipline: the fringe depends on the set phases only through
cos(3*theta_hat + phi0), which is even and 2*pi/3-periodic in theta_hat,
so only u = 3*theta_hat in (0, pi) is identifiable.  Estimates are
reported folded onto that branch as theta_hat in (0, pi/3); truths outside
it come back as their folded image u <-> 2*pi - u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import dump_json
from .errors import (
    ConfigurationError,
    DegenerateEstimateWarning,
    DomainError,
    FitError,
)
from .model import COINCIDENCE_CHANNELS, COINCIDENCE_PATTERNS, INFORMATIVE_PATTERNS

__all__ = [
    "FRINGE_SIGNS",
    "FringeFit",
    "fit_fringe",
    "fold_to_branch",
    "estimate_blocks",
    "BlockStats",
    "block_stats",
]


def fold_to_branch(theta_hat):
    """Identifiable image of any phase value in the branch [0, pi/3].

    The fringe reads only cos(3*theta_hat), so values equal modulo the
    period or mirrored about its midpoint are indistinguishable; this is
    the map every truth must pass through before being compared with an
    estimate.
    """
    period = 2.0 * math.pi / 3.0
    t = float(theta_hat) % period
    return period - t if t > period / 2.0 else t

# Anti-phase pattern of the four coincidence channels (A1B1, A1B2, A2B1,
# A2B2): the first and last fall as cos(u) rises, the middle two grow.
FRINGE_SIGNS = (-1.0, 1.0, 1.0, -1.0)

_MIN_SETPOINTS = 5
_HALF_PERIOD = math.pi / 3.0  # span requirement, in theta_hat


@dataclass(frozen=True)
class FringeFit:
    """Calibrated fringe curves for the four coincidence channels.

    The fitted model per channel is

        fraction_ch(theta) = offset_ch * (1 + sign_ch * V * cos(3*theta + phi0))

    so the fringe amplitude of a channel is offset_ch * V.  Parameter
    order in the covariance matrix is (offset_A1B1, offset_A1B2,
    offset_A2B1, offset_A2B2, visibility_hat, phase_offset).
    """

    visibility_hat: float
    phase_offset: float
    offsets: tuple
    covariance: np.ndarray = field(repr=False)
    residual_chi2: float
    dof: int

    def __post_init__(self):
        if not 0.0 <= self.visibility_hat <= 1.0:
            raise ConfigurationError(
                f"fitted visibility must lie in [0, 1], got {self.visibility_hat}"
            )
        offsets = tuple(float(a) for a in self.offsets)
        if len(offsets) != 4 or any(a <= 0 for a in offsets):
            raise ConfigurationError("fit needs four positive channel offsets")
        object.__setattr__(self, "offsets", offsets)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (6, 6):
            raise ConfigurationError(f"covariance must be 6x6, got {cov.shape}")
        object.__setattr__(self, "covariance", cov)

    @property
    def amplitudes(self):
        """Per-channel fringe amplitude offset_ch * V."""
        return tuple(a * self.visibility_hat for a in self.offsets)

    def channel_fractions(self, u):
        """Model fractions of the four channels at interference phase u."""
        c = np.cos(np.asarray(u, dtype=float) + self.phase_offset)
        a = np.array(self.offsets)
        s = np.array(FRINGE_SIGNS)
        return a[..., :] * (1.0 + np.multiply.outer(c, s * self.visibility_hat))

    def visibility_stderr(self):
        return float(math.sqrt(max(self.covariance[4, 4], 0.0)))

    def to_json(self, path=None):
        doc = {
            "visibility_hat": self.visibility_hat,
            "phase_offset": self.phase_offset,
            "offsets": dict(zip(COINCIDENCE_CHANNELS, self.offsets)),
            "amplitudes": dict(zip(COINCIDENCE_CHANNELS, self.amplitudes)),
            "covariance": self.covariance.tolist(),
            "residual_chi2": self.residual_chi2,
            "dof": self.dof,
        }
        return dump_json(doc, path)

    @classmethod
    def ideal(cls, visibility=1.0, phase_offset=0.0):
        """Noise-free calibration: equal quarters at a given visibility."""
        return cls(
            visibility_hat=visibility,
            phase_offset=phase_offset,
            offsets=(0.25, 0.25, 0.25, 0.25),
            covariance=np.zeros((6, 6)),
            residual_chi2=0.0,
            dof=0,
        )


def _fourier_probe(thetas, fracs):
    # Initial parameters from a discrete Fourier probe at the fringe period.
    offsets = fracs.mean(axis=0)
    phasor = np.exp(-3j * thetas)
    z = 2.0 * (phasor[:, None] * fracs).mean(axis=0)
    combined = np.dot(np.array(FRINGE_SIGNS), z) / max(offsets.sum(), 1e-12)
    v0 = min(max(abs(combined), 0.05), 1.0)
    phi0 = float(np.angle(combined))
    return offsets, v0, phi0


_FIT_MAX_STEPS = 200  # trial steps; a fit from the Fourier probe takes 4 to 7
_FIT_XTOL = 1e-10
# a step that leaves the cost within rounding is still taken: near the
# optimum the cost stops resolving Gauss-Newton steps well above _FIT_XTOL
_FIT_COST_ULPS = 64 * np.finfo(float).eps


def _levenberg_marquardt(residuals, jacobian, x, lower, upper):
    """Bounded Levenberg-Marquardt (More 1978) on 0.5 * |r(x)|^2 from x.

    The damping is scaled by the largest diagonal of J^T J seen so far, per
    parameter.  A trial step is clipped into the box, and a parameter on a
    bound whose descent direction leaves the box is held there for the
    step.  Converged when a step, accepted or not, has a norm of at most
    _FIT_XTOL * (_FIT_XTOL + |x|).  Returns x, r(x) and J(x); raises
    FitError after _FIT_MAX_STEPS trial steps.
    """
    r, jac = residuals(x), jacobian(x)
    cost, damping, scale = r @ r, 1e-3, np.zeros_like(x)
    for _ in range(_FIT_MAX_STEPS):
        g, jtj = jac.T @ r, jac.T @ jac
        scale = np.maximum(scale, np.diag(jtj))
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        a = jtj[np.ix_(free, free)] + np.diag(damping * scale[free])
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(a, -g[free])
        trial = np.clip(x + step, lower, upper)
        tiny = _FIT_XTOL * (_FIT_XTOL + np.linalg.norm(x))
        small = np.linalg.norm(trial - x) <= tiny
        r_trial = residuals(trial)
        cost_trial = r_trial @ r_trial
        if cost_trial <= cost * (1.0 + _FIT_COST_ULPS):
            x, r, cost = trial, r_trial, cost_trial
            jac = jacobian(x)
            damping = max(damping / 10.0, 1e-12)
        else:
            damping *= 10.0
        if small:
            return x, r, jac
    raise FitError(
        f"fringe fit did not converge within {_FIT_MAX_STEPS} steps", residuals=r
    )


def fit_fringe(scan, counts=None):
    """Joint weighted fit of the four coincidence-fraction fringes.

    scan: iterable of (theta_hat setpoint, fraction quartet) rows in
    channel order (A1B1, A1B2, A2B1, A2B2).  counts: optional per-point
    informative totals; when given, weights are the multinomial variance
    of each fraction and the parameter covariance is absolute, otherwise
    weights are shape-only and the covariance is scaled by the residual
    variance (documented relative mode).

    All four channels share the visibility and the phase origin; the
    {A1B1, A2B2} pair is locked in anti-phase with {A1B2, A2B1} through
    the fixed sign pattern.

    The solver is a bounded Levenberg-Marquardt on the weighted residuals
    with their closed-form Jacobian, started at a Fourier probe of the
    fringe; offsets >= 1e-9, V in [0, 1], phi0 in [-2 pi, 2 pi].  The
    covariance is (J^T J)^-1 at the optimum.  Against
    scipy.optimize.least_squares on the same residuals and bounds it
    agrees within 1e-8 absolute in the parameters and 1e-6 relative in
    the covariance and chi^2.
    """
    rows = list(scan)
    thetas = np.array([float(r[0]) for r in rows])
    fracs = np.array([[float(x) for x in r[1]] for r in rows])
    if fracs.shape[1] != 4:
        raise ConfigurationError("each scan row needs the four coincidence fractions")
    if counts is not None:
        counts = np.asarray(counts, dtype=float)
        if counts.shape != thetas.shape:
            raise ConfigurationError("counts must align with scan rows")
    columns = [thetas, fracs] if counts is None else [thetas, fracs, counts]
    bad = np.flatnonzero(~np.isfinite(np.column_stack(columns)).all(axis=1))
    if bad.size:
        raise ConfigurationError(
            f"scan row {bad[0]}: setpoint, fractions and count must be finite"
        )
    if len(np.unique(np.round(thetas, 12))) < _MIN_SETPOINTS:
        raise DomainError(f"fringe fit needs >= {_MIN_SETPOINTS} distinct setpoints")
    span = thetas.max() - thetas.min()
    if span <= _HALF_PERIOD:
        raise DomainError(
            f"setpoints span {span:.4f} rad; more than half a fringe period "
            f"({_HALF_PERIOD:.4f} rad) is required"
        )
    if counts is not None and np.any(counts <= 0):
        raise ConfigurationError("per-point counts must be positive")

    # Per-point binomial variance of each fraction, from the data; the
    # channel cross-covariances of the multinomial are left out (diagonal
    # weighting), which costs a few percent of efficiency at most.
    var_shape = np.clip(fracs * (1.0 - fracs), 1e-6, None)
    weights = 1.0 / var_shape if counts is None else counts[:, None] / var_shape
    sqrt_w = np.sqrt(weights)

    signs = np.array(FRINGE_SIGNS)
    channel = np.arange(4)

    def residuals(params):
        c = np.cos(3 * thetas + params[5])[:, None] * signs
        return ((params[:4] * (1.0 + c * params[4]) - fracs) * sqrt_w).ravel()

    def jacobian(params):
        c = np.cos(3 * thetas + params[5])[:, None] * signs
        s = np.sin(3 * thetas + params[5])[:, None] * signs
        jac = np.zeros(fracs.shape + (6,))
        jac[:, channel, channel] = 1.0 + c * params[4]
        jac[..., 4] = params[:4] * c
        jac[..., 5] = -params[:4] * s * params[4]
        return (jac * sqrt_w[..., None]).reshape(-1, 6)

    a0, v0, phi0 = _fourier_probe(thetas, fracs)
    x0 = np.concatenate([np.clip(a0, 1e-6, None), [v0, phi0]])
    lower = np.array([1e-9] * 4 + [0.0, -2 * math.pi])
    upper = np.array([np.inf] * 4 + [1.0, 2 * math.pi])
    params, res, jac = _levenberg_marquardt(residuals, jacobian, x0, lower, upper)
    phi_hat = math.remainder(params[5], 2 * math.pi)

    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    chi2 = float(res @ res)
    dof = fracs.size - 6
    if counts is None and dof > 0:
        cov = cov * (chi2 / dof)

    return FringeFit(
        visibility_hat=float(params[4]),
        phase_offset=float(phi_hat),
        offsets=tuple(params[:4]),
        covariance=cov,
        residual_chi2=chi2,
        dof=dof,
    )


_COINC_SLOTS = [INFORMATIVE_PATTERNS.index(p) for p in COINCIDENCE_PATTERNS]
_STEP_TOL = 8.0 * np.finfo(float).eps  # Newton solve: a few ulp of u ~ 1
_MAX_STEPS = 64  # bisection alone takes a piece of width pi to _STEP_TOL in 51


def _category_log_probs(u_grid, calibration):
    """log p per coincidence channel on the u grid, per the calibration."""
    rates = calibration.channel_fractions(u_grid)  # (G, 4), fractions of C_sum
    probs = rates / rates.sum(axis=1, keepdims=True)
    return np.log(np.clip(probs, 1e-300, None))


def _slope_terms(calibration):
    """The per-calibration constants of _loglike_slopes, as columns over
    its five terms (the four channel rates, then their sum): phi0, then
    alpha - |beta|, 2 |beta|, beta > 0 and -beta of each term."""
    alpha = np.array(calibration.offsets)
    beta = alpha * np.array(FRINGE_SIGNS) * calibration.visibility_hat
    alpha, beta = np.append(alpha, alpha.sum()), np.append(beta, beta.sum())
    return (calibration.phase_offset, (alpha - abs(beta))[:, None],
            (2 * abs(beta))[:, None], (beta > 0)[:, None], (-beta)[:, None])


def _loglike_slopes(cats, terms, u):
    """L'(u) and L''(u) of cats.T @ _category_log_probs, one u per column
    of the (4, n) coincidence counts cats; terms is _slope_terms.

    Each log p = log r_c - log R is a sum of log(alpha + beta cos(u + phi0))
    terms of the fit r_c = a_c (1 + s_c V cos(u + phi0)), R their sum;
    clipped terms are constant there.  The five terms are added in order,
    as numpy adds the columns of an (n, 5) array, so the slopes do not
    depend on the layout."""
    phi0, floor, swing, cos_half, neg_beta = terms
    phase = u + phi0
    # two terms of one sign, so no cancellation where a probability vanishes
    f = floor + swing * np.where(cos_half, np.cos(phase / 2), np.sin(phase / 2)) ** 2
    weights = np.where(f[:4] / f[4] > 1e-300, cats, 0)
    weights = np.vstack([weights, -weights.sum(axis=0)])
    f = np.where(weights != 0, f, 1.0)  # keeps 0 * inf out of dropped terms
    g = neg_beta * np.sin(phase) / f
    h = neg_beta * np.cos(phase) / f - g * g
    return (weights * g).sum(axis=0), (weights * h).sum(axis=0)


def estimate_blocks(block_counts, calibration):
    """Vectorized per-block MLE: one theta_hat per row of block_counts.

    block_counts is (s, 9) over INFORMATIVE_PATTERNS order (as produced
    by the blocked samplers).

    L depends on u only through c = cos(u + phi0) and has at most one
    stationary point in c, a maximum (Cauchy-Schwarz).  c turns at -phi0
    mod pi; the longer of the two monotone pieces of [0, pi] spans the
    other's c range, so it brackets one safeguarded Newton solve for all
    blocks.  A block starts at the root of cos(u + phi0) = c on the piece,
    arccos(c) - phi0 or -arccos(c) - phi0 (mod 2*pi) by the sign of
    sin(u + phi0) there, for the least-squares c of the coincidence
    fractions clipped to [-1, 1]; or at the piece's midpoint when that
    root is outside the open piece.  Ties: u
    and (-2*phi0 - u) mod 2*pi share L to rounding (< 1e-12 |L|); the lower
    is returned.  Flat (L(u_hat) < 1e-12 above the lower piece end): the
    branch midpoint.  Boundary: a maximum within 1e-6 of 0 or pi is that
    edge.  Flat and boundary blocks raise one summary warning each.
    """
    block_counts = np.asarray(block_counts, dtype=np.int64)
    if block_counts.ndim != 2:
        raise ConfigurationError("block_counts must be two-dimensional")
    if block_counts.shape[1] != len(INFORMATIVE_PATTERNS):
        raise ConfigurationError(
            "block_counts must have one column per informative type"
        )
    cats = block_counts[:, _COINC_SLOTS]

    phi0 = calibration.phase_offset
    turn = -phi0 % math.pi  # where cos(u + phi0) turns; 0 when phi0 = 0
    left, right = (0.0, turn) if turn >= math.pi / 2.0 else (turn, math.pi)
    a = np.array(calibration.offsets)
    b = a * np.array(FRINGE_SIGNS) * calibration.visibility_hat
    fracs = cats / np.maximum(cats.sum(axis=1, keepdims=True), 1)
    c = (fracs * a.sum() - a) @ b / max(b @ b, np.finfo(float).tiny)
    # sin(u + phi0) keeps one sign on the piece, which picks the root of
    # cos(u + phi0) = c that can lie in it
    root = np.arccos(np.clip(c, -1.0, 1.0))
    if math.sin((left + right) / 2.0 + phi0) < 0.0:
        root = -root
    start = (root - phi0) % (2.0 * math.pi)
    u_hat = np.where((left < start) & (start < right), start, (left + right) / 2.0)

    # Safeguarded Newton (rtsafe) on L'(u) = 0: a step moves one bracket end
    # to u by the sign of L', then takes the Newton step if L'' < 0 and it
    # lands strictly inside the bracket or is zero (converged), else bisects.
    # A row stops once its bracket lies within 1e-6 of 0 or pi: the boundary
    # rule below sets any u there to the edge.
    lo, hi = np.full(len(cats), left), np.full(len(cats), right)
    active = np.arange(len(cats))
    cats_t, terms = block_counts.T[_COINC_SLOTS], _slope_terms(calibration)
    for _ in range(_MAX_STEPS):
        x = u_hat[active]
        g, h = _loglike_slopes(cats_t[:, active], terms, x)
        lo[active] = b_lo = np.where(g > 0, x, lo[active])
        hi[active] = b_hi = np.where(g > 0, hi[active], x)
        newton = x - np.divide(g, h, out=np.zeros_like(g), where=h < 0)
        inside = (h < 0) & (((b_lo < newton) & (newton < b_hi)) | (newton == x))
        u_hat[active] = u_new = np.where(inside, newton, (b_lo + b_hi) / 2)
        active = active[(abs(u_new - x) > _STEP_TOL) & (b_hi >= 1e-6)
                        & (math.pi - b_lo >= 1e-6)]
        if not active.size:
            break
    logp = _category_log_probs(np.append(u_hat, [left, right]), calibration)
    peak = (cats * logp[:-2]).sum(axis=1)
    flat = peak - (cats[:, None, :] * logp[-2:]).sum(axis=2).min(axis=1) < 1e-12
    u_hat = np.minimum(u_hat, (-2.0 * phi0 - u_hat) % (2.0 * math.pi))
    u_hat[flat] = math.pi / 2.0
    edge = np.where(u_hat < math.pi / 2.0, 0.0, math.pi)
    boundary = ~flat & (np.abs(u_hat - edge) < 1e-6)
    u_hat[boundary] = edge[boundary]

    if boundary.any():
        warnings.warn(f"{boundary.sum()} block estimate(s) at the branch boundary "
                      "(fringe extremum): no curvature information past the edge",
                      DegenerateEstimateWarning, stacklevel=2)
    if flat.any():
        warnings.warn(f"{flat.sum()} block(s) with an exactly flat likelihood; "
                      "returning the branch midpoint",
                      DegenerateEstimateWarning, stacklevel=2)
    return u_hat / 3.0


@dataclass(frozen=True)
class BlockStats:
    """Spread of per-block phase estimates and its own error bar."""

    s: int
    delta_hat: float
    delta_err: float


def block_stats(estimates):
    """Bessel-corrected spread of block estimates with its error bar.

    delta_err = delta_hat / sqrt(2(s-1)), the leading-order error of a
    sample standard deviation from s draws.
    """
    if not isinstance(estimates, np.ndarray):
        estimates = list(estimates)
    values = np.asarray(estimates, dtype=float)
    s = len(values)
    if s < 2:
        raise DomainError(f"block statistics need at least 2 estimates, got {s}")
    delta_hat = float(values.std(ddof=1))
    delta_err = delta_hat / math.sqrt(2.0 * (s - 1))
    return BlockStats(s=s, delta_hat=delta_hat, delta_err=delta_err)

