"""Analytic-model tests: closed forms, oracles, and invariants.

The pattern-distribution oracle here is an independent brute-force
enumeration over per-pair outcomes (route x per-photon detection), kept
deliberately naive so it shares no code path with the subset-closure
implementation.
"""

import itertools
import math

import numpy as np
import pytest

from entsense import model
from entsense.errors import ConfigurationError, DomainError
from entsense.model import (
    ALPHA,
    CHANNELS,
    COINCIDENCE_PATTERNS,
    GLOBAL_PHASE_PERIOD,
    INFORMATIVE_PATTERNS,
    N_PATTERNS,
    ClickDistribution,
    EfficiencyBudget,
    PhaseSetting,
    SourceParams,
    coincidence_probs,
    crb,
    fisher_per_informative_event,
    global_phase,
    pattern_distribution,
    pattern_is_informative,
)


def brute_pattern_distribution(mu, visibility, eta, u, n_max):
    """Enumerate every per-pair outcome combination explicitly."""
    vc = visibility * math.cos(u)
    route_p = [(1 - vc) / 4, (1 + vc) / 4, (1 + vc) / 4, (1 - vc) / 4]
    route_bits = [(0, 2), (0, 3), (1, 2), (1, 3)]  # (alice bit, bob bit)
    raw = [math.exp(-mu) * mu**m / math.factorial(m) for m in range(n_max + 1)]
    weights = [x / sum(raw) for x in raw]
    echs = [eta["A1"], eta["A2"], eta["B1"], eta["B2"]]
    single = []
    for r, (abit, bbit) in enumerate(route_bits):
        ea, eb = echs[abit], echs[bbit]
        for da in (0, 1):
            for db in (0, 1):
                p = route_p[r] * (ea if da else 1 - ea) * (eb if db else 1 - eb)
                single.append(((da << abit) | (db << bbit), p))
    probs = np.zeros(N_PATTERNS)
    for m, wm in enumerate(weights):
        if m == 0:
            probs[0] += wm
            continue
        for combo in itertools.product(single, repeat=m):
            mask = 0
            p = wm
            for cmask, cp in combo:
                mask |= cmask
                p *= cp
            probs[mask] += p
    return probs


def loop_single_pair_closure(eta, p_route):
    # the closure as first written, one subset and one route at a time,
    # the terms added by Python's sum: the reference the table must equal
    eta_a = np.array([eta[0], eta[1]])
    eta_b = np.array([eta[2], eta[3]])
    q = np.empty(N_PATTERNS)
    for T in range(N_PATTERNS):
        a_in = np.array([(T >> 0) & 1, (T >> 1) & 1], dtype=float)
        b_in = np.array([(T >> 2) & 1, (T >> 3) & 1], dtype=float)
        a_fac = (1.0 - eta_a) + eta_a * a_in
        b_fac = (1.0 - eta_b) + eta_b * b_in
        q[T] = sum(p_route[r] * a_fac[r >> 1] * b_fac[r & 1] for r in range(4))
    return q


def loop_mobius_invert(values):
    # the inversion as first written, one subset at a time
    out = values.copy()
    for b in range(4):
        bit = 1 << b
        for T in range(N_PATTERNS):
            if T & bit:
                out[T] -= out[T ^ bit]
    return out


def loop_pattern_distribution(source, eff, u):
    # pattern_distribution's probabilities (clipped at 0, as
    # ClickDistribution stores them) and derivative, on the loops above
    p_route = coincidence_probs(u, source.visibility)
    eta = eff.as_array()
    q = loop_single_pair_closure(eta, p_route)
    w = source.pair_weights()
    probs = loop_mobius_invert(w @ (q[None, :] ** np.arange(len(w))[:, None]))
    dq = loop_single_pair_closure(eta, model._coincidence_derivs(u, source.visibility))
    m = np.arange(len(w))
    power_sum = (w * m) @ np.where(
        m[:, None] >= 1, q[None, :] ** np.clip(m[:, None] - 1, 0, None), 0.0)
    return np.clip(probs, 0.0, None), loop_mobius_invert(power_sum * dq)


def random_model_cases(count, seed):
    """(source, eff, u) drawn over mu, V, n_max, eta and u, with some
    efficiencies of 1 and some phases of 0 and -0."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        mu = float(rng.choice([0.0, rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0)]))
        n_max = int(rng.integers(1, 25))
        eta = rng.uniform(0.01, 1.0, 4)
        if len(cases) % 5 == 0:
            eta[rng.integers(4)] = 1.0
        u = float(rng.uniform(-7.0, 7.0))
        if len(cases) % 9 == 0:
            u = float(rng.choice([0.0, -0.0]))
        try:
            source = SourceParams(mu=mu, visibility=float(rng.uniform()), n_max=n_max)
        except ConfigurationError:  # Poisson mass past n_max too large
            continue
        cases.append((source, EfficiencyBudget(eta=dict(zip(CHANNELS, eta.tolist()))), u))
    return cases


class TestGlobalPhase:
    def test_zero(self):
        assert global_phase(PhaseSetting(0.0, 0.0)) == 0.0

    def test_direct_substitution(self):
        assert global_phase(PhaseSetting(math.pi, 0.0)) == pytest.approx(math.pi / 3)

    def test_matches_alpha_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ta, tb = rng.uniform(-10, 10, size=2)
            setting = PhaseSetting(float(ta), float(tb))
            assert global_phase(setting) == pytest.approx(
                ALPHA[0] * ta + ALPHA[1] * tb, abs=1e-12
            )

    @pytest.mark.parametrize("theta_a, theta_b", [
        (math.nan, 0.0), (0.0, math.inf), (1.5e308, -1.5e308)])
    def test_non_finite_interference_phase_rejected(self, theta_a, theta_b):
        # the last pair is finite, but theta_a - 2*theta_b overflows
        with pytest.raises(ConfigurationError, match="must be finite"):
            PhaseSetting(theta_a, theta_b)


class TestSourceParams:
    def test_truncation_mass_guard(self):
        with pytest.raises(ConfigurationError):
            SourceParams(mu=1.5, visibility=1.0, n_max=2)

    def test_weights_renormalized(self):
        src = SourceParams(mu=0.072, visibility=0.95, n_max=4)
        w = src.pair_weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        raw = [math.exp(-0.072) * 0.072**m / math.factorial(m) for m in range(5)]
        np.testing.assert_allclose(w, np.array(raw) / sum(raw), rtol=1e-13)

    def test_mean_pairs_tracks_mu_at_small_mu(self):
        src = SourceParams(mu=0.01, visibility=1.0)
        assert src.mean_pairs() == pytest.approx(0.01, rel=1e-6)

    def test_visibility_bounds(self):
        with pytest.raises(ConfigurationError):
            SourceParams(mu=0.05, visibility=1.01)
        with pytest.raises(ConfigurationError):
            SourceParams(mu=-0.05, visibility=0.5)


class TestEfficiencyBudget:
    def test_requires_all_channels(self):
        with pytest.raises(ConfigurationError):
            EfficiencyBudget(eta={"A1": 0.5, "A2": 0.5, "B1": 0.5})

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ConfigurationError):
                EfficiencyBudget.uniform(bad)


class TestCoincidenceProbs:
    def test_u_zero_ideal(self):
        np.testing.assert_allclose(
            coincidence_probs(0.0, 1.0), [0.0, 0.5, 0.5, 0.0], atol=1e-15
        )

    def test_u_quarter_ideal(self):
        np.testing.assert_allclose(
            coincidence_probs(math.pi / 2, 1.0), [0.25] * 4, atol=1e-15
        )

    def test_partial_visibility(self):
        np.testing.assert_allclose(
            coincidence_probs(0.0, 0.98), [0.005, 0.495, 0.495, 0.005], atol=1e-15
        )

    def test_normalized_everywhere(self):
        for u in np.linspace(-7, 7, 29):
            assert coincidence_probs(float(u), 0.7).sum() == pytest.approx(1.0)

    def test_visibility_domain(self):
        with pytest.raises(DomainError):
            coincidence_probs(0.3, 1.5)


PATTERN_CASES = [
    # (mu, V, eta dict, u, n_max)
    (0.0025, 1.0, dict.fromkeys(CHANNELS, 1.0), 0.0, 2),
    (0.056, 0.9804, {"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974},
     math.pi / 2, 4),
    (0.072, 0.9586, {"A1": 0.5810, "A2": 0.6046, "B1": 0.5837, "B2": 0.5284},
     1.1, 4),
    (0.15, 0.5, {"A1": 0.9, "A2": 0.2, "B1": 0.55, "B2": 0.7}, 2.5, 4),
    (0.056, 0.0, {"A1": 0.3, "A2": 0.8, "B1": 0.6, "B2": 0.4}, -1.2, 3),
]


class TestPatternDistribution:
    @pytest.mark.parametrize("mu,v,eta,u,n_max", PATTERN_CASES)
    def test_matches_brute_force_enumeration(self, mu, v, eta, u, n_max):
        src = SourceParams(mu=mu, visibility=v, n_max=n_max)
        dist = pattern_distribution(src, EfficiencyBudget(eta=eta), u)
        want = brute_pattern_distribution(mu, v, eta, u, n_max)
        np.testing.assert_allclose(dist.probs, want, atol=1e-14)

    @pytest.mark.parametrize("mu,v,eta,u,n_max", PATTERN_CASES)
    def test_derivative_matches_finite_difference(self, mu, v, eta, u, n_max):
        src = SourceParams(mu=mu, visibility=v, n_max=n_max)
        eff = EfficiencyBudget(eta=eta)
        _, d_probs = pattern_distribution(src, eff, u, with_derivative=True)
        h = 1e-6
        plus = pattern_distribution(src, eff, u + h).probs
        minus = pattern_distribution(src, eff, u - h).probs
        np.testing.assert_allclose(d_probs, (plus - minus) / (2 * h), atol=5e-9)

    def test_tables_equal_the_loops_bit_for_bit(self):
        # the closure and the inversion are vectorized without reordering
        # a single floating-point operation
        rng = np.random.default_rng(6)
        for source, eff, u in random_model_cases(500, seed=5):
            eta = eff.as_array()
            for law in (coincidence_probs(u, source.visibility),
                        model._coincidence_derivs(u, source.visibility)):
                got = model._single_pair_closure(eta, law)
                want = loop_single_pair_closure(eta, law)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            values = rng.normal(size=N_PATTERNS)
            assert np.array_equal(model._mobius_invert(values), loop_mobius_invert(values))
            dist, d_probs = pattern_distribution(source, eff, u, with_derivative=True)
            want_probs, want_d_probs = loop_pattern_distribution(source, eff, u)
            assert np.array_equal(dist.probs, want_probs)
            assert np.array_equal(d_probs, want_d_probs)

    def test_no_click_floor_at_small_mu(self):
        src = SourceParams(mu=0.0025, visibility=0.9, n_max=3)
        dist = pattern_distribution(src, EfficiencyBudget.uniform(0.6), 0.4)
        assert dist.probs[0] >= math.exp(-0.0025)

    def test_single_pair_limit_reduces_to_coincidence_law(self):
        src = SourceParams(mu=1e-7, visibility=1.0, n_max=2)
        dist = pattern_distribution(src, EfficiencyBudget.uniform(1.0), 0.0)
        clicked = 1.0 - dist.probs[0]
        assert dist.probs[0b1001] / clicked == pytest.approx(0.5, abs=1e-6)
        assert dist.probs[0b0110] / clicked == pytest.approx(0.5, abs=1e-6)
        assert dist.probs[0b0101] / clicked == pytest.approx(0.0, abs=1e-6)

    def test_normalization_across_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = float(rng.uniform(0, 0.15))
            src = SourceParams(mu=mu, visibility=float(rng.uniform(0, 1)), n_max=4)
            eta = {ch: float(rng.uniform(0.05, 1.0)) for ch in CHANNELS}
            dist = pattern_distribution(
                src, EfficiencyBudget(eta=eta), float(rng.uniform(-7, 7))
            )
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            assert dist.probs.min() >= 0.0

    def test_period_in_u(self):
        src = SourceParams(mu=0.15, visibility=0.8, n_max=4)
        eff = EfficiencyBudget.uniform(0.5)
        a = pattern_distribution(src, eff, 0.9).probs
        b = pattern_distribution(src, eff, 0.9 + 2 * math.pi).probs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_channel_swap_symmetry(self):
        # Swapping A1<->A2 together with B1<->B2 relabels the pattern bits;
        # the distribution follows the relabeling of the efficiency map.
        def swap_mask(p):
            a = ((p & 1) << 1) | ((p >> 1) & 1)
            b = (((p >> 2) & 1) << 1) | ((p >> 3) & 1)
            return a | (b << 2)

        src = SourceParams(mu=0.15, visibility=0.9, n_max=4)
        eta = {"A1": 0.9, "A2": 0.4, "B1": 0.7, "B2": 0.55}
        swapped = {"A1": eta["A2"], "A2": eta["A1"], "B1": eta["B2"], "B2": eta["B1"]}
        a = pattern_distribution(src, EfficiencyBudget(eta=eta), 1.3).probs
        b = pattern_distribution(src, EfficiencyBudget(eta=swapped), 1.3).probs
        for p in range(N_PATTERNS):
            assert a[p] == pytest.approx(b[swap_mask(p)], abs=1e-14)
        uniform = pattern_distribution(src, EfficiencyBudget.uniform(0.6), 1.3).probs
        for p in range(N_PATTERNS):
            assert uniform[p] == pytest.approx(uniform[swap_mask(p)], abs=1e-14)

    def test_distribution_validation(self):
        with pytest.raises(ConfigurationError):
            ClickDistribution(probs=np.full(16, 0.1))
        with pytest.raises(ConfigurationError):
            ClickDistribution(probs=np.zeros(8))

    def test_helper_views(self):
        src = SourceParams(mu=0.056, visibility=0.98, n_max=4)
        eff = EfficiencyBudget.uniform(0.7)
        dist = pattern_distribution(src, eff, 1.0)
        informative = sum(dist.probs[p] for p in INFORMATIVE_PATTERNS)
        assert dist.informative_probability() == pytest.approx(informative)
        np.testing.assert_allclose(
            dist.coincidence_quartet(), [dist.probs[p] for p in COINCIDENCE_PATTERNS]
        )


class TestFisher:
    def test_visibility_law(self):
        # FI per informative event = 9 V^2 sin^2 u / (1 - V^2 cos^2 u) for
        # a lossless source that emits at most one pair
        rng = np.random.default_rng(17)
        eff = EfficiencyBudget.uniform(1.0)
        for _ in range(60):
            v = float(rng.uniform(0.05, 0.999))
            u = float(rng.uniform(0.05, math.pi - 0.05))
            law = 9 * v**2 * math.sin(u) ** 2 / (1 - v**2 * math.cos(u) ** 2)
            src = SourceParams(mu=1e-3, visibility=v, n_max=1)
            fi = fisher_per_informative_event(src, eff, u)
            assert fi == pytest.approx(law, abs=1e-6)

    def test_partial_visibility_peak(self):
        src = SourceParams(mu=1e-3, visibility=0.98, n_max=1)
        fi = fisher_per_informative_event(
            src, EfficiencyBudget.uniform(1.0), math.pi / 2
        )
        assert fi == pytest.approx(8.6436, abs=1e-10)

    def test_crb_values(self):
        assert crb(1, 9.0) == pytest.approx(1.0 / 3.0)
        assert crb(4750, 9.0) == pytest.approx(0.0048365083, abs=1e-9)
        assert crb(4, 1.0) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            crb(0, 9.0)
        with pytest.raises(DomainError):
            crb(10, 0.0)


class TestFisherPerInformativeEvent:
    def test_lossless_single_pair_limit_recovers_nine(self):
        src = SourceParams(mu=1e-6, visibility=1.0, n_max=2)
        fi = fisher_per_informative_event(src, EfficiencyBudget.uniform(1.0), 0.9)
        assert fi == pytest.approx(9.0, rel=1e-5)

    def test_matches_closed_form_at_small_mu(self):
        src = SourceParams(mu=1e-6, visibility=0.93, n_max=2)
        eff = EfficiencyBudget.uniform(1.0)
        for u in (0.5, math.pi / 2, 2.2):
            law = 9 * 0.93**2 * math.sin(u) ** 2 / (1 - 0.93**2 * math.cos(u) ** 2)
            fi = fisher_per_informative_event(src, eff, u)
            assert fi == pytest.approx(law, rel=1e-4)

    def test_loss_and_multipair_reduce_information(self):
        src = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
        eff = EfficiencyBudget(
            eta={"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974}
        )
        fi = fisher_per_informative_event(src, eff, math.pi / 2)
        assert 0.0 < fi < 9.0

    def test_matches_conditional_finite_difference(self):
        src = SourceParams(mu=0.072, visibility=0.9586, n_max=4)
        eff = EfficiencyBudget(
            eta={"A1": 0.5810, "A2": 0.6046, "B1": 0.5837, "B2": 0.5284}
        )
        u, h = 1.3, 1e-5

        def conditional(uu):
            probs = pattern_distribution(src, eff, uu).probs
            inf = probs[list(INFORMATIVE_PATTERNS)]
            return inf / inf.sum()

        q = conditional(u)
        dq = (conditional(u + h) - conditional(u - h)) / (2 * h)
        fi_fd = 9.0 * float(np.sum(dq * dq / q))
        fi = fisher_per_informative_event(src, eff, u)
        assert fi == pytest.approx(fi_fd, rel=1e-5)


class TestPatternHelpers:
    def test_informative_partition(self):
        assert len(INFORMATIVE_PATTERNS) == 9
        for p in range(N_PATTERNS):
            expected = bool(p & 0b0011) and bool(p & 0b1100)
            assert pattern_is_informative(p) is expected

    def test_period_constant(self):
        assert GLOBAL_PHASE_PERIOD == pytest.approx(2 * math.pi / 3)
