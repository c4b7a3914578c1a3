"""Independent per-pulse oracle for the two-node click model.

Enumerates the 16-pattern click distribution of one pulse straight from
the physics, pair by pair, without the subset-closure algebra the
program uses: a truncated-Poisson pair number m, each pair routed onto
(A1B1, A1B2, A2B1, A2B2) with probabilities ((1 - V cos u)/4,
(1 + V cos u)/4, (1 + V cos u)/4, (1 - V cos u)/4), each photon surviving
its channel with probability eta, and threshold detectors OR-ing every
surviving photon.  The joint law of (m, pattern) comes out of the same
enumeration, which gives exact expectations and variances for the
resource checks.  Fisher information is taken by central finite
differences of the conditional informative distribution.

Pattern bits: 0 = A1, 1 = A2, 2 = B1, 3 = B2.
"""

from __future__ import annotations

import math

import numpy as np

N_PATTERNS = 16
INFORMATIVE = tuple(p for p in range(N_PATTERNS) if p & 0b0011 and p & 0b1100)
COINCIDENCE = (0b0101, 0b1001, 0b0110, 0b1010)  # A1B1, A1B2, A2B1, A2B2
CHANNELS = ("A1", "A2", "B1", "B2")


def pair_weights(mu, n_max):
    """Poisson(mu) weights for m = 0..n_max, renormalized after truncation."""
    w = np.array([mu**m / math.factorial(m) for m in range(n_max + 1)])
    return w / w.sum()


def single_pair(visibility, eta, u):
    """Click-pattern law of one pair: route, then per-photon survival."""
    vc = visibility * math.cos(u)
    routes = ((1 - vc) / 4, (1 + vc) / 4, (1 + vc) / 4, (1 - vc) / 4)
    d = np.zeros(N_PATTERNS)
    for r, p_route in enumerate(routes):
        a_bit, b_bit = r >> 1, 2 + (r & 1)
        for a_alive in (0, 1):
            pa = eta[a_bit] if a_alive else 1.0 - eta[a_bit]
            for b_alive in (0, 1):
                pb = eta[b_bit] if b_alive else 1.0 - eta[b_bit]
                mask = (a_alive << a_bit) | (b_alive << b_bit)
                d[mask] += p_route * pa * pb
    return d


def joint(mu, visibility, eta, u, n_max):
    """(n_max + 1, 16) array of P(m pairs and pattern) for one pulse."""
    one = single_pair(visibility, eta, u)
    per_m = [np.eye(N_PATTERNS)[0]]
    for _ in range(n_max):
        prev, nxt = per_m[-1], np.zeros(N_PATTERNS)
        for x in range(N_PATTERNS):
            for y in range(N_PATTERNS):
                nxt[x | y] += prev[x] * one[y]
        per_m.append(nxt)
    return pair_weights(mu, n_max)[:, None] * np.array(per_m)


def pulse_distribution(mu, visibility, eta, u, n_max):
    """P(pattern) for one pulse, all 16 patterns."""
    return joint(mu, visibility, eta, u, n_max).sum(axis=0)


def fisher_per_informative_event(mu, visibility, eta, u, n_max, h=1e-5):
    """Fisher information about theta = u/3 per informative event.

    Categorical information of the nine informative types conditioned on
    being informative, by central differences in u, times 9 for u -> theta.
    """
    def cond(x):
        p = pulse_distribution(mu, visibility, eta, x, n_max)[list(INFORMATIVE)]
        return p / p.sum()

    q = cond(u)
    dq = (cond(u + h) - cond(u - h)) / (2.0 * h)
    live = q > 0.0  # types the configuration cannot produce carry no information
    return 9.0 * float(np.sum(dq[live] ** 2 / q[live]))
