"""Closed-form model of the two-sensor entangled-photon phase network.

Geometry: a photon-pair source sits between sensor A and sensor B.  One
photon of each pair crosses sensor A's phase plate once; the partner
crosses sensor B's phase plate twice (a loop), so the interference
depends on the single combination u = theta_A - 2*theta_B = 3*theta_hat,
where theta_hat = (theta_A - 2*theta_B)/3 is the global quantity being
estimated with weights alpha = (1/3, -2/3).

Each sensor splits its photon onto two threshold detectors, giving four
detection channels A1, A2, B1, B2.  Click patterns are 4-bit masks with

    bit 0 = A1,  bit 1 = A2,  bit 2 = B1,  bit 3 = B2.

For a single pair the coincidence law is

    P(A1,B1) = P(A2,B2) = (1 - V*cos u)/4
    P(A1,B2) = P(A2,B1) = (1 + V*cos u)/4

with V the two-photon interference visibility.  The source emits a
thermal-pump pair number m per pulse, modeled as Poisson(mu) truncated
at n_max and renormalized; pairs in a pulse act independently, each
photon survives its channel's heralding efficiency, and threshold
detectors OR together every surviving photon.  `pattern_distribution`
evaluates the resulting exact 16-pattern distribution per pulse, which
is the oracle for the Monte Carlo sampler and for every rate used by
the estimation and resource-accounting layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "ALPHA",
    "CHANNELS",
    "COINCIDENCE_CHANNELS",
    "COINCIDENCE_PATTERNS",
    "GLOBAL_PHASE_PERIOD",
    "INFORMATIVE_PATTERNS",
    "N_PATTERNS",
    "ClickDistribution",
    "EfficiencyBudget",
    "PhaseSetting",
    "SourceParams",
    "coincidence_probs",
    "crb",
    "fisher_per_informative_event",
    "global_phase",
    "pattern_distribution",
    "pattern_is_informative",
]

N_PATTERNS = 16
CHANNELS = ("A1", "A2", "B1", "B2")
_ALICE_MASK = 0b0011
_BOB_MASK = 0b1100

# Estimation weights of the global function theta_hat = (theta_A - 2 theta_B)/3.
ALPHA = (1.0 / 3.0, -2.0 / 3.0)

# The coincidence fringe repeats when 3*theta_hat advances by 2*pi.
GLOBAL_PHASE_PERIOD = 2.0 * math.pi / 3.0

# Two-photon coincidence outcomes, in the fixed order used everywhere a
# quartet of coincidence values appears.
COINCIDENCE_CHANNELS = ("A1B1", "A1B2", "A2B1", "A2B2")
COINCIDENCE_PATTERNS = (0b0101, 0b1001, 0b0110, 0b1010)


def pattern_is_informative(pattern):
    """True when at least one Alice and at least one Bob detector clicked.

    These are the nine event types whose relative frequencies carry the
    phase fringe; Alice-only or Bob-only events are classified but not
    used by the estimator.
    """
    return bool(pattern & _ALICE_MASK) and bool(pattern & _BOB_MASK)


INFORMATIVE_PATTERNS = tuple(p for p in range(N_PATTERNS) if pattern_is_informative(p))


@dataclass(frozen=True)
class PhaseSetting:
    """One configured pair of sensor phases, in radians.

    A photon crosses sensor A's phase plate once and its partner crosses
    sensor B's twice, so a setting acts on the fringe only through
    global_phase.  Both angles, and the interference phase
    3 * global_phase they make, must be finite.
    """

    theta_a: float
    theta_b: float

    def __post_init__(self):
        # inf or nan when an angle is, or when theta_a - 2*theta_b overflows
        if not math.isfinite(3.0 * global_phase(self)):
            raise ConfigurationError(
                "phase setting angles and theta_a - 2*theta_b must be finite, "
                f"got ({self.theta_a}, {self.theta_b})"
            )


def global_phase(setting):
    """Global function theta_hat = (theta_A - 2*theta_B)/3 of a setting."""
    return (setting.theta_a - 2.0 * setting.theta_b) / 3.0


@dataclass(frozen=True)
class SourceParams:
    """Pair source parameters: mean pair number, visibility, truncation.

    The per-pulse pair number is Poisson(mu) truncated at n_max and
    renormalized; the construction refuses (mu, n_max) combinations
    whose untruncated Poisson mass beyond n_max exceeds 1e-6, so the
    renormalization is always a bookkeeping detail rather than a model
    change.
    """

    mu: float
    visibility: float
    n_max: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigurationError(f"mu must be a finite number >= 0, got {self.mu}")
        if not (math.isfinite(self.visibility) and 0.0 <= self.visibility <= 1.0):
            raise ConfigurationError(
                f"visibility must lie in [0, 1], got {self.visibility}"
            )
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ConfigurationError(f"n_max must be an integer >= 1, got {self.n_max}")
        if self._truncated_mass() < 1.0 - 1e-6:
            raise ConfigurationError(
                f"Poisson mass below truncation is {self._truncated_mass():.9f} "
                f"for mu={self.mu}, n_max={self.n_max}; raise n_max"
            )

    def _truncated_mass(self):
        return float(sum(self._raw_weights()))

    def _raw_weights(self):
        w = np.empty(self.n_max + 1)
        w[0] = math.exp(-self.mu)
        for m in range(1, self.n_max + 1):
            w[m] = w[m - 1] * self.mu / m
        return w

    def pair_weights(self):
        """Renormalized truncated-Poisson weights, index m = 0..n_max."""
        w = self._raw_weights()
        return w / w.sum()

    def mean_pairs(self):
        """Mean emitted pairs per pulse under the truncated distribution."""
        w = self.pair_weights()
        return float(np.dot(np.arange(self.n_max + 1), w))


@dataclass(frozen=True)
class EfficiencyBudget:
    """End-to-end heralding efficiency per detection channel.

    eta maps each of A1, A2, B1, B2 to a survival probability in (0, 1]:
    the product of every loss between the source and the click.
    """

    eta: dict

    def __post_init__(self):
        eta = dict(self.eta)
        missing = [ch for ch in CHANNELS if ch not in eta]
        extra = [ch for ch in eta if ch not in CHANNELS]
        if missing or extra:
            raise ConfigurationError(
                f"efficiency map must have exactly the channels {CHANNELS}; "
                f"missing {missing}, unexpected {extra}"
            )
        for ch, value in eta.items():
            if not (math.isfinite(value) and 0.0 < value <= 1.0):
                raise ConfigurationError(
                    f"efficiency for {ch} must lie in (0, 1], got {value}"
                )
        object.__setattr__(self, "eta", eta)

    @classmethod
    def uniform(cls, eta):
        return cls(eta={ch: eta for ch in CHANNELS})

    def as_array(self):
        """Efficiencies in channel order (A1, A2, B1, B2)."""
        return np.array([self.eta[ch] for ch in CHANNELS])


def coincidence_probs(u, visibility):
    """Single-pair coincidence probabilities at interference phase u.

    Returns the quartet (A1B1, A1B2, A2B1, A2B2):

        ( (1 - V cos u)/4, (1 + V cos u)/4,
          (1 + V cos u)/4, (1 - V cos u)/4 )
    """
    if not (math.isfinite(visibility) and 0.0 <= visibility <= 1.0):
        raise DomainError(f"visibility must lie in [0, 1], got {visibility}")
    if not math.isfinite(u):
        raise DomainError(f"interference phase must be finite, got {u}")
    vc = visibility * math.cos(u)
    minus = (1.0 - vc) / 4.0
    plus = (1.0 + vc) / 4.0
    return np.array([minus, plus, plus, minus])


def _coincidence_derivs(u, visibility):
    # d/du of coincidence_probs, same outcome order.
    vs = visibility * math.sin(u)
    return np.array([vs, -vs, -vs, vs]) / 4.0


@dataclass(frozen=True)
class ClickDistribution:
    """Exact per-pulse probability over the 16 click patterns."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (N_PATTERNS,):
            raise ConfigurationError(
                f"pattern distribution must have shape (16,), got {probs.shape}"
            )
        if probs.min() < -1e-12:
            raise ConfigurationError(
                f"pattern distribution has negative mass {probs.min():.3e}"
            )
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                f"pattern distribution sums to {probs.sum():.12f}, not 1 within 1e-9"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def informative_probability(self):
        """Total probability of the nine both-sides-clicked patterns."""
        return float(self.probs[list(INFORMATIVE_PATTERNS)].sum())

    def coincidence_quartet(self):
        """Probabilities of the exact twofold patterns (A1B1, A1B2, A2B1, A2B2)."""
        return self.probs[list(COINCIDENCE_PATTERNS)].copy()


def _single_pair_closure(eta, p_route):
    """q[T] = P(one pair's clicks all lie inside subset T), for all 16 T.

    The Alice photon on route r clicks its channel with probability
    eta_A(r); "clicks inside T" allows either no click or a click on a
    channel belonging to T.  Each route's term is p_route[r] times its
    Alice factor times its Bob factor, and the four terms are added in
    route order, from 0.0.
    """
    inside = (np.arange(N_PATTERNS)[:, None] >> np.arange(4)) & 1  # T holds channel c
    fac = (1.0 - eta) + eta * inside.astype(float)
    # route index r: alice channel r >> 1 (0 = A1), bob channel 2 + (r & 1)
    terms = p_route * fac[:, [0, 0, 1, 1]] * fac[:, [2, 3, 2, 3]]
    q = np.zeros(N_PATTERNS)
    for term in terms.T:
        q += term
    return q


def _mobius_invert(values):
    # Subset-lattice Moebius inversion over the 4 channel bits, on a copy:
    # one pass a bit, in which no T holding the bit is read
    out = values.copy()
    subsets = np.arange(N_PATTERNS)
    for b in range(4):
        has = subsets[subsets >> b & 1 == 1]
        out[has] -= out[has ^ (1 << b)]
    return out


def pattern_distribution(source, eff, u, *, with_derivative=False):
    """Exact click-pattern distribution of one pulse, and optionally d/du.

    Built by subset closure: for each channel subset T the probability
    that all clicks fall inside T is E_m[q_T^m] with q_T the single-pair
    closure and m the truncated pair number; Moebius inversion over the
    subset lattice then yields the exact pattern probabilities.  The
    derivative path pushes d/du through the same transform, which is
    linear.
    """
    p_route = coincidence_probs(u, source.visibility)
    eta = eff.as_array()
    q = _single_pair_closure(eta, p_route)
    w = source.pair_weights()
    powers = q[None, :] ** np.arange(len(w))[:, None]
    closure = w @ powers
    probs = _mobius_invert(closure)
    dist = ClickDistribution(probs=probs)
    if not with_derivative:
        return dist
    dp_route = _coincidence_derivs(u, source.visibility)
    dq = _single_pair_closure(eta, dp_route)  # closure is linear in the route law
    # d closure/du = (sum_m w_m m q^(m-1)) * dq
    m = np.arange(len(w))
    power_sum = (w * m) @ np.where(
        m[:, None] >= 1, q[None, :] ** np.clip(m[:, None] - 1, 0, None), 0.0
    )
    d_probs = _mobius_invert(power_sum * dq)
    return dist, d_probs


def crb(k, effective_fisher):
    """Cramer-Rao bound on the global phase after k independent trials."""
    if not (math.isfinite(k) and k >= 1):
        raise DomainError(f"trial count must be >= 1, got {k}")
    if not (math.isfinite(effective_fisher) and effective_fisher > 0.0):
        raise DomainError(
            f"effective Fisher information must be > 0, got {effective_fisher}"
        )
    return 1.0 / math.sqrt(k * effective_fisher)


def fisher_per_informative_event(source, eff, u):
    """Fisher information about theta_hat carried by one informative event.

    Conditions the exact pattern distribution on the informative set
    (both sides clicked) and evaluates the categorical Fisher information
    of the conditional type frequencies in u, times 9 to convert from u
    to theta_hat = u/3.  In the lossless single-pair limit this recovers
    the coincidence law's 9 V^2 sin^2 u / (1 - V^2 cos^2 u).
    """
    dist, d_probs = pattern_distribution(source, eff, u, with_derivative=True)
    idx = list(INFORMATIVE_PATTERNS)
    p = dist.probs[idx]
    dp = d_probs[idx]
    p_inf = p.sum()
    if p_inf <= 0.0:
        raise DomainError("no informative probability mass at this setting")
    dp_inf = dp.sum()
    q = p / p_inf
    dq = (dp * p_inf - p * dp_inf) / p_inf**2
    # Subset-lattice cancellation leaves roundoff dust of order 1e-16 in
    # the rarest patterns; treat derivatives below that scale as zero.
    dust = 1e-9 * max(1.0, float(np.abs(dq).max()))
    fi_u = 0.0
    for qi, dqi in zip(q, dq):
        if qi > 0.0:
            fi_u += dqi * dqi / qi
        elif abs(dqi) > dust:
            raise DomainError(
                "informative Fisher information diverges: a zero-probability "
                "event type has nonzero phase sensitivity at this setting"
            )
    return 9.0 * fi_u
