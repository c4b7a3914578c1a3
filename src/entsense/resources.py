"""Resource accounting without post-selection, and the precision baselines.

Every photon that enters a sensor is a resource, whether or not its
detector fired: the recorded click totals are inflated back to the true
photon numbers with a closed-form correction for loss and for threshold
detectors under-counting multi-pair pulses.  The shot-noise and ideal
entangled baselines are then both expressed against the same total n, so
a quoted dB violation never leans on discarding unlucky events.

Pass weighting is hard-coded to the (1, 2) sensor topology: photons on
the B side cross their phase plate twice, so each one counts twice in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError
from .model import CHANNELS

__all__ = [
    "PASS_WEIGHT",
    "actual_photons",
    "snl",
    "hl",
    "threshold_efficiency",
    "db_below_snl",
    "predicted_db_below_snl",
    "ResourceAudit",
    "PrecisionReport",
]

PASS_WEIGHT = {"A1": 1, "A2": 1, "B1": 2, "B2": 2}


def actual_photons(recorded, eta, mu):
    """True photon count behind a recorded click total.

    recorded clicks undercount the photons that entered the channel in
    two ways: a fraction (1 - eta) never fired the detector, and pulses
    carrying several same-channel photons fire it only once.  The
    correction

        (recorded/eta) * ((4+mu)*eta - 4*(2+mu)) / (2*(2+mu)*(eta-2))

    undoes both to first order in the pair statistics; at mu = 0 it
    reduces to recorded/eta exactly.  The eta = 2 pole lies outside the
    accepted domain (0, 1].
    """
    if not (math.isfinite(eta) and 0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise DomainError(f"mu must be >= 0, got {mu}")
    if not (math.isfinite(recorded) and recorded >= 0.0):
        raise DomainError(f"recorded count must be >= 0, got {recorded}")
    factor = ((4.0 + mu) * eta - 4.0 * (2.0 + mu)) / (2.0 * (2.0 + mu) * (eta - 2.0))
    return (recorded / eta) * factor


def snl(n):
    """Shot-noise-limited phase precision for n photon passes, 1/sqrt(n).

    The optimal classical split of the budget sends n/3 single-pass
    probes to the first sensor and 2n/3 double-pass probes to the second;
    the combined two-term variance collapses to exactly 1/n.  Both forms
    are evaluated and must agree to 1e-12, so a silent change to either
    would trip here first.
    """
    if not (math.isfinite(n) and n > 0.0):
        raise DomainError(f"resource count must be > 0, got {n}")
    direct = 1.0 / math.sqrt(n)
    two_term = math.sqrt((1.0 / 9.0) * (3.0 / n) + (4.0 / 9.0) * (3.0 / (2.0 * n)))
    if abs(two_term - direct) > 1e-12 * direct:
        raise AssertionError(
            f"shot-noise forms disagree: {direct} vs {two_term}"
        )
    return direct


def hl(n):
    """Ideal lossless entangled-strategy precision for n photon passes.

    Each entangled trial spends 3 passes and carries phase information
    9 per trial, so n passes give k = n/3 trials and
    delta = 1/(3*sqrt(n/3)) = 1/sqrt(3n).  Fractional n is handled
    continuously.
    """
    if not (math.isfinite(n) and n > 0.0):
        raise DomainError(f"resource count must be > 0, got {n}")
    return 1.0 / math.sqrt(3.0 * n)


def threshold_efficiency():
    """Uniform channel efficiency at which the best entangled strategy
    only ties the shot-noise baseline: sqrt(3)/3, in closed form."""
    return math.sqrt(3.0) / 3.0


def db_below_snl(delta_hat, snl_value):
    """How far a measured precision beats the shot-noise baseline, in dB.

    10*log10 of the variance ratio (equal to 20*log10 of the standard
    deviation ratio); positive exactly when delta_hat < snl_value.
    """
    if not (math.isfinite(delta_hat) and delta_hat > 0.0):
        raise DomainError(f"delta_hat must be > 0, got {delta_hat}")
    if not (math.isfinite(snl_value) and snl_value > 0.0):
        raise DomainError(f"snl must be > 0, got {snl_value}")
    return 10.0 * math.log10((snl_value / delta_hat) ** 2)


def predicted_db_below_snl(informative_events, fisher_per_event, n):
    """Model-implied dB violation for an observed budget.

    The best precision supported by k informative events at Fisher
    information F each is 1/sqrt(k*F); against snl(n) that is
    10*log10(k*F/n).  Feeding the observed event count and audited n
    keeps the prediction on the same footing as a measured value.
    """
    if not (math.isfinite(informative_events) and informative_events > 0):
        raise DomainError(
            f"informative event count must be > 0, got {informative_events}"
        )
    if not (math.isfinite(fisher_per_event) and fisher_per_event > 0):
        raise DomainError(f"fisher_per_event must be > 0, got {fisher_per_event}")
    if not (math.isfinite(n) and n > 0):
        raise DomainError(f"resource count must be > 0, got {n}")
    return 10.0 * math.log10(informative_events * fisher_per_event / n)


@dataclass(frozen=True)
class ResourceAudit:
    """Recorded and corrected per-channel photon counts, and their total.

    N_i maps each channel to its recorded (singles-inclusive) click
    total; N_tilde_i to the corrected true photon count, real-valued by
    design since rounding would bias dB comparisons near threshold.
    n = N_tilde(A1) + N_tilde(A2) + 2*N_tilde(B1) + 2*N_tilde(B2).
    """

    N_i: dict
    N_tilde_i: dict
    n: float
    mu: float
    eta: dict

    def __post_init__(self):
        for name, mapping in (("N_i", self.N_i), ("N_tilde_i", self.N_tilde_i),
                              ("eta", self.eta)):
            if set(mapping) != set(CHANNELS):
                raise ConfigurationError(
                    f"{name} must map exactly the channels {CHANNELS}"
                )
        total = sum(PASS_WEIGHT[ch] * self.N_tilde_i[ch] for ch in CHANNELS)
        if abs(total - self.n) > 1e-6 * max(1.0, abs(total)):
            raise ConfigurationError(
                f"n={self.n} does not match the pass-weighted sum {total}"
            )
        for ch in CHANNELS:
            if self.N_tilde_i[ch] < self.N_i[ch] * (1.0 - 1e-12):
                raise ConfigurationError(
                    f"corrected count below recorded count in {ch}: losses "
                    "only ever inflate the true number"
                )

    @classmethod
    def from_counts(cls, recorded, mu, eta):
        """Build the audit from per-channel recorded totals."""
        if set(recorded) != set(CHANNELS):
            raise ConfigurationError(
                f"recorded counts must map exactly the channels {CHANNELS}"
            )
        if set(eta) != set(CHANNELS):
            raise ConfigurationError(
                f"eta must map exactly the channels {CHANNELS}"
            )
        n_tilde = {
            ch: actual_photons(recorded[ch], eta[ch], mu) for ch in CHANNELS
        }
        n = sum(PASS_WEIGHT[ch] * n_tilde[ch] for ch in CHANNELS)
        return cls(
            N_i={ch: float(recorded[ch]) for ch in CHANNELS},
            N_tilde_i=n_tilde, n=n, mu=float(mu),
            eta={ch: float(eta[ch]) for ch in CHANNELS},
        )

    @classmethod
    def from_tallies(cls, tallies, source, eff):
        """Audit one tally or a sequence of tallies against source/loss
        parameters: recorded counts are the per-channel click totals."""
        if hasattr(tallies, "channel_clicks"):
            tallies = [tallies]
        else:
            tallies = list(tallies)
        recorded = {ch: 0 for ch in CHANNELS}
        for tally in tallies:
            for ch, count in tally.channel_clicks().items():
                recorded[ch] += count
        return cls.from_counts(recorded, source.mu, dict(eff.eta))

    def as_dict(self):
        """The accounting as a JSON-ready dict, as audit.json holds it."""
        return {
            "N_i": {ch: self.N_i[ch] for ch in CHANNELS},
            "N_tilde_i": {ch: self.N_tilde_i[ch] for ch in CHANNELS},
            "n": self.n,
            "mu": self.mu,
            "eta": {ch: self.eta[ch] for ch in CHANNELS},
        }


@dataclass(frozen=True)
class PrecisionReport:
    """One phase point's precision against its resource baselines."""

    theta_hat: float
    delta_hat: float
    delta_err: float
    n: float
    snl: float
    hl: float
    db_below_snl: float
    params: dict

    def __post_init__(self):
        want_db = db_below_snl(self.delta_hat, self.snl)
        if abs(want_db - self.db_below_snl) > 1e-9:
            raise ConfigurationError(
                f"db_below_snl={self.db_below_snl} inconsistent with "
                f"delta_hat and snl (expect {want_db})"
            )
        if (self.db_below_snl > 0.0) != (self.delta_hat < self.snl):
            raise ConfigurationError("dB sign must match delta_hat < snl")

    @classmethod
    def assemble(cls, theta_hat, stats, n, params=None):
        """Combine a BlockStats with an audited resource total."""
        snl_value = snl(n)
        return cls(
            theta_hat=float(theta_hat),
            delta_hat=stats.delta_hat,
            delta_err=stats.delta_err,
            n=float(n),
            snl=snl_value,
            hl=hl(n),
            db_below_snl=db_below_snl(stats.delta_hat, snl_value),
            params=dict(params or {}),
        )

    def as_dict(self):
        """The report as a JSON-ready dict, as the precision outputs hold it."""
        return {
            "theta_hat": self.theta_hat,
            "delta_hat": self.delta_hat,
            "delta_err": self.delta_err,
            "n": self.n,
            "snl": self.snl,
            "hl": self.hl,
            "db_below_snl": self.db_below_snl,
            "params": dict(self.params),
        }
