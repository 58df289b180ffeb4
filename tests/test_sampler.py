"""Exact-sampling machinery: streams, mixtures, fringe rejection.

Statistical checks draw large seeded batches and compare moments and
Kolmogorov-Smirnov distances against the closed-form densities the
samplers claim to realise.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUITE_SEED, Weighted, quad_grid
from qtraj import sampler
from qtraj.analytic import (
    FringeTerm,
    GaussComponent,
    GaussFringeDensity,
    Marginal1D,
    born_x,
    conditional_p_given_x,
    marginal_p,
    marginal_x,
    q_single_mode,
    two_mode_q,
)
from qtraj.cli import build_state, load_scenario, shipped_scenarios
from qtraj.core import AmplifierSpec, ModeSpec, SuperpositionSpec, TwoModeSpec
from qtraj.sampler import (
    EnvelopeViolation,
    RngStream,
    sample_fringe_density,
    sample_p_given_x,
)
from qtraj.sde_engine import path_densities
from qtraj.stats import ks_critical, ks_statistic

HALF = 1.0 / math.sqrt(2.0)
AMP = AmplifierSpec(1.0, 3.0, 30)


def cat(x1, r=0.0, phi=0.0):
    return SuperpositionSpec(ModeSpec(x1, r), c1_mag=HALF, c2_mag=HALF,
                             phase_phi=phi)


def negative_dip_density():
    """Structurally invalid density: a sharp negative well at x = 3."""
    comps = (GaussComponent(1.0, (0.0,), (1.0,)),)
    fringe = FringeTerm(0.5, (3.0,), (0.04,), (0.0,), math.pi)
    return Marginal1D(gaussians=comps, fringe=fringe, norm=1.0, axes=("x",))


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(SUITE_SEED, 7).generator().standard_normal(16)
        b = RngStream(SUITE_SEED, 7).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(SUITE_SEED, 0).generator().standard_normal(16)
        b = RngStream(SUITE_SEED, 1).generator().standard_normal(16)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_child_streams_are_distinct_and_reproducible(self):
        base = RngStream(SUITE_SEED, 3)
        c0 = base.child(10).generator().standard_normal(8)
        c1 = base.child(11).generator().standard_normal(8)
        c0_again = RngStream(SUITE_SEED, 3).child(10).generator() \
            .standard_normal(8)
        assert np.max(np.abs(c0 - c1)) > 1e-3
        np.testing.assert_array_equal(c0, c0_again)

    def test_huge_stream_indices_wrap(self):
        big = RngStream(SUITE_SEED, 2 ** 70)
        assert big.generator().standard_normal(4).shape == (4,)

    @pytest.mark.parametrize("seed, index", [
        (SUITE_SEED, 7), (-3, 5), (SUITE_SEED, 2 ** 70)])
    def test_stream_is_sfc64_spawned_from_seed_and_index(self, seed, index):
        # Pins the stream definition: changing it is a new seed.
        mask = (1 << 64) - 1
        expected = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed & mask, spawn_key=(index & mask,))))
        got = RngStream(seed, index).generator()
        np.testing.assert_array_equal(got.standard_normal(64),
                                      expected.standard_normal(64))


class TestSampleFringeDensity:
    def test_plain_gaussian_uses_direct_mixture_path(self):
        dens = marginal_x(ModeSpec(1.0, 0.5), AMP, 0.0)
        diag = {}
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 23), 50000,
                                  diagnostics=diag)
        assert x.shape == (50000,)
        assert diag["n_proposed"] == diag["n_accepted"] == 50000
        assert diag["acceptance_bound"] == pytest.approx(1.0)

    def test_non_negative_flat_fringe_folds_into_mixture(self):
        dens = born_x(cat(1.0, 0.0, 0.0))
        diag = {}
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 24), 100000,
                                  diagnostics=diag)
        assert diag["n_proposed"] == 100000
        assert ks_statistic(x, dens) < ks_critical(100000, alpha=0.001)

    def test_negative_flat_fringe_needs_rejection(self):
        dens = born_x(cat(1.0, 0.0, math.pi))
        diag = {}
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 25), 100000,
                                  diagnostics=diag)
        assert diag["n_proposed"] > diag["n_accepted"] >= 100000
        assert ks_statistic(x, dens) < ks_critical(100000, alpha=0.001)

    def test_oscillating_fringe_matches_density(self):
        dens = marginal_p(cat(2.0, 0.0, 0.0), AMP, 0.0)
        diag = {}
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 26), 100000,
                                  diagnostics=diag)
        assert ks_statistic(x, dens) < ks_critical(100000, alpha=0.001)
        empirical = diag["n_accepted"] / diag["n_proposed"]
        assert empirical <= 1.0 + 1e-12
        assert empirical >= 0.4 * diag["acceptance_bound"]

    def test_counts_every_accepted_proposal(self):
        # The initial momentum marginal of a well-separated squeezed cat
        # has a fringe of amplitude ~1e-8: nearly every proposal is
        # accepted, including the ones the last, over-sized batch draws
        # beyond the requested count.
        spec = SuperpositionSpec(ModeSpec(6.0, 2.0), c1_mag=HALF,
                                 c2_mag=HALF, phase_phi=0.5 * math.pi)
        dens = marginal_p(spec, AmplifierSpec(1.0, 3.0, 300), 0.0)
        diag = {}
        sample_fringe_density(dens, RngStream(SUITE_SEED, 30), 8192,
                              diagnostics=diag)
        n, bound = diag["n_proposed"], diag["acceptance_bound"]
        assert 8192 <= diag["n_accepted"] <= n
        binomial_se = math.sqrt(bound * (1.0 - bound) / n)
        assert diag["n_accepted"] / n >= bound - 5.0 * binomial_se - 1e-12

    def test_reruns_are_bit_identical(self):
        dens = marginal_p(cat(2.0, 0.0, 0.0), AMP, 0.0)
        a = sample_fringe_density(dens, RngStream(SUITE_SEED, 28), 5000)
        b = sample_fringe_density(dens, RngStream(SUITE_SEED, 28), 5000)
        np.testing.assert_array_equal(a, b)

    def test_negative_density_raises(self):
        dens = negative_dip_density()
        with pytest.raises(EnvelopeViolation):
            sample_fringe_density(dens, RngStream(SUITE_SEED, 29), 20000)

    @pytest.mark.parametrize("field,value", [
        ("phase", float("nan")), ("amplitude", float("nan")),
        ("variances", (float("nan"),))])
    def test_non_finite_density_raises(self, field, value):
        # A NaN ratio is neither above 1 nor below 0, and is never
        # accepted: without the check the loop would never end.  The
        # constructors refuse a NaN field, so the fringe is patched after
        # construction to reach the sampler's own check.
        dens = marginal_p(cat(2.0, 0.0, 0.0), AMP, 0.0)
        fringe = replace(dens.fringe)
        object.__setattr__(fringe, field, value)
        dens = replace(dens, fringe=fringe)
        with pytest.raises(EnvelopeViolation):
            sample_fringe_density(dens, RngStream(SUITE_SEED, 37), 1000)


@pytest.fixture
def narrow_bins(monkeypatch):
    """Envelopes binned over 1.5 sigmas: the tails carry real mass."""
    monkeypatch.setattr(sampler, "_RANGE_SIGMAS", 1.5)
    sampler._compiled.cache_clear()
    yield
    sampler._compiled.cache_clear()


class TestPiecewiseEnvelope:
    """One-axis densities reject against a compiled piecewise envelope."""

    @pytest.mark.parametrize("marginal,stream", [(marginal_x, 50),
                                                 (marginal_p, 51)])
    def test_odd_cat_near_one_photon_limit(self, marginal, stream):
        # The fringe nearly cancels the mixture: a global envelope
        # accepts 0.5% of x(0) and 0.25% of p(0) proposals here.
        dens = marginal(cat(0.1, 0.0, math.pi), AMP, 0.0)
        n = 400_000
        diag = {}
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, stream), n,
                                  diagnostics=diag)
        assert diag["n_accepted"] / diag["n_proposed"] >= 0.5
        assert ks_statistic(x, dens) < ks_critical(n, alpha=0.001)

    @pytest.mark.parametrize("marginal,stream", [(marginal_x, 52),
                                                 (marginal_p, 53)])
    def test_tails_beyond_the_bins_are_drawn_exactly(self, narrow_bins,
                                                     marginal, stream):
        dens = marginal(cat(1.0, 0.0, math.pi), AMP, 0.0)
        spans = [(c.means[0], c.variances[0])
                 for c in dens.gaussians + (dens.fringe,)]
        lo = min(m - 1.5 * math.sqrt(v) for m, v in spans)
        hi = max(m + 1.5 * math.sqrt(v) for m, v in spans)
        n = 200_000
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, stream), n)
        beyond = 1.0 - float(dens.bin_masses(np.linspace(lo, hi, 65)).sum())
        assert beyond > 0.1
        frac = float(np.mean((x < lo) | (x > hi)))
        assert frac == pytest.approx(
            beyond, abs=5.0 * math.sqrt(beyond * (1.0 - beyond) / n))
        assert ks_statistic(x, dens) < ks_critical(n, alpha=0.001)


class TestCheckEnvelope:
    """The rejection loop checks its envelope on every candidate."""

    def test_valid_densities_pass(self):
        folded = born_x(cat(1.0, 0.0, 0.0))
        osc = marginal_p(cat(1.5, 0.5, 0.5 * math.pi), AMP, 0.8)
        for dens in (folded, osc):
            diag = {}
            sample_fringe_density(dens, RngStream(SUITE_SEED, 35), 100000,
                                  diagnostics=diag)
            n, bound = diag["n_proposed"], diag["acceptance_bound"]
            binomial_se = math.sqrt(bound * (1.0 - bound) / n)
            assert diag["n_accepted"] / n >= bound - 5.0 * binomial_se - 1e-12

    def test_negative_density_is_flagged(self):
        # An oscillating fringe twice the mixture's height: the target
        # dips below zero wherever cos(3 p) < -1/2.
        comps = (GaussComponent(1.0, (0.0, 0.0), (1.0, 1.0)),)
        fringe = FringeTerm(2.0, (0.0, 0.0), (1.0, 1.0), (0.0, 3.0), 0.0)
        dens = GaussFringeDensity(gaussians=comps, fringe=fringe)
        with pytest.raises(EnvelopeViolation):
            sample_fringe_density(dens, RngStream(SUITE_SEED, 36), 1000)


def assert_acceptance_bounded(diag, floor):
    """The bound is at least ``floor`` and the counted acceptance is no
    more than 5 binomial errors below it."""
    n, bound = diag["n_proposed"], diag["acceptance_bound"]
    binomial_se = math.sqrt(max(bound * (1.0 - bound), 0.0) / n)
    assert bound >= floor
    assert diag["n_accepted"] / n >= bound - 5.0 * binomial_se - 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(x1=st.floats(0.1, 6.0), r=st.floats(-1.0, 2.0),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       x1b=st.floats(0.1, 6.0), r2=st.floats(-1.0, 2.0),
       t_frac=st.floats(0.0, 1.0))
def test_family_members_never_violate_their_envelope(x1, r, phi, x1b, r2,
                                                     t_frac):
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    joint = two_mode_q(TwoModeSpec(spec, ModeSpec(x1b, r2)), AMP, t)
    densities = (marginal_x(spec, AMP, t), marginal_p(spec, AMP, t),
                 joint.marginal("p_a", "p_b"), joint.marginal("x_a", "x_b"))
    for i, dens in enumerate(densities):
        diag = {}
        draws = sample_fringe_density(dens, RngStream(SUITE_SEED, 40 + i),
                                      2000, diagnostics=diag)
        assert np.isfinite(draws).all()
        assert_acceptance_bounded(diag, 0.5)


REFUSAL = "only one axis, or two of one shared diagonal covariance"


def unequal_variance_pair(fringe=None):
    """A normalised two-axis member whose components differ in variance."""
    comps = (GaussComponent(0.5, (0.0, 0.0), (1.0, 2.0)),
             GaussComponent(0.5, (0.0, 0.0), (1.5, 2.0)))
    dens = GaussFringeDensity(comps, fringe)
    return replace(dens, norm=1.0 / dens.total_mass())


class TestFactoredPairs:
    """Two-axis members of the shared-covariance form: one compiled
    one-axis stage along the draw axis times a normal across it."""

    N = 200_000
    PAIRS = {"odd_r0": (0.1, 0.0, math.pi, 0.1),
             "odd_r-1": (0.1, -1.0, math.pi, 0.1),
             "quarter": (1.0, 0.5, 0.5 * math.pi, 2.0)}
    CASES = [(name, t, keep) for name in PAIRS for t in (0.0, AMP.t_final)
             for keep in (("x_a", "x_b"), ("p_a", "p_b"))]

    @pytest.fixture(scope="class", params=range(len(CASES)),
                    ids=[f"{n}-t{t:g}-{k[0][0]}" for n, t, k in CASES])
    def draws(self, request):
        name, t, keep = self.CASES[request.param]
        x1, r, phi, x1b = self.PAIRS[name]
        joint = two_mode_q(TwoModeSpec(cat(x1, r, phi), ModeSpec(x1b, 0.0)),
                           AMP, t)
        dens = joint.marginal(*(a for a in joint.axes if a not in keep))
        diag = {}
        pairs = sample_fringe_density(
            dens, RngStream(SUITE_SEED, 70 + request.param), self.N,
            diagnostics=diag)
        return dens, pairs, diag

    def test_compiles_to_one_axis_stage(self, draws):
        dens, _, _ = draws
        assert isinstance(sampler._compiled(dens), sampler._Factored)

    def test_each_axis_matches_its_marginal(self, draws):
        dens, pairs, _ = draws
        for i, axis in enumerate(dens.axes):
            other = dens.axes[1 - i]
            assert ks_statistic(pairs[:, i], dens.marginal(other)) \
                < ks_critical(self.N, alpha=0.001), axis

    def test_covariance_matches_quadrature(self, draws):
        dens, pairs, _ = draws
        m0, m1 = dens.moments(0)[0], dens.moments(1)[0]
        spans = [(min(c.means[a] for c in dens.gaussians)
                  - 12.0 * math.sqrt(dens.gaussians[0].variances[a]),
                  max(c.means[a] for c in dens.gaussians)
                  + 12.0 * math.sqrt(dens.gaussians[0].variances[a]))
                 for a in (0, 1)]
        expected = quad_grid(Weighted(dens, lambda u, v: (u - m0) * (v - m1)),
                             spans)
        prod = (pairs[:, 0] - m0) * (pairs[:, 1] - m1)
        se = float(np.std(prod)) / math.sqrt(self.N)
        assert float(np.mean(prod)) == pytest.approx(expected, abs=5.0 * se)

    def test_acceptance_is_bounded(self, draws):
        assert_acceptance_bounded(draws[2], 0.9)

    def test_hand_built_member_off_the_origin(self):
        # Means on a tilted line that misses the origin, unequal scales
        # and a subtracting flat fringe: the across mean is not zero and
        # the one-axis stage rejects.
        var = (2.0, 0.5)
        comps = (GaussComponent(0.5, (1.0, 3.0), var),
                 GaussComponent(0.5, (-1.0, 2.0), var))
        fringe = FringeTerm(-0.3, (0.0, 2.5), var, (0.0, 0.0), 0.0)
        dens = GaussFringeDensity(comps, fringe)
        dens = replace(dens, norm=1.0 / dens.total_mass())
        assert isinstance(sampler._compiled(dens), sampler._Factored)
        diag = {}
        pairs = sample_fringe_density(dens, RngStream(SUITE_SEED, 84),
                                      self.N, diagnostics=diag)
        assert diag["n_proposed"] > diag["n_accepted"]
        for i, axis in enumerate(dens.axes):
            assert ks_statistic(pairs[:, i], dens.marginal(dens.axes[1 - i])) \
                < ks_critical(self.N, alpha=0.001), axis

    def test_member_outside_the_form_is_refused(self):
        # Unequal component variances: not one shared covariance, with an
        # oscillating fringe or as an exact mixture.
        for fringe in (FringeTerm(0.4, (0.0, 0.0), (1.0, 2.0), (0.0, 2.0),
                                  0.0), None):
            dens = unequal_variance_pair(fringe)
            with pytest.raises(ValueError, match=REFUSAL):
                sampler._compiled(dens)
            with pytest.raises(ValueError, match=REFUSAL):
                sample_fringe_density(dens, RngStream(SUITE_SEED, 82), 10)


class TestTwoForms:
    """The sampler draws a one-axis member, or a two-axis member of one
    shared diagonal covariance through its one-axis stage; it refuses
    every other density."""

    @staticmethod
    def shipped_densities():
        """(label, density) of every density a shipped scenario samples:
        a single mode's at both gain signs (``born`` runs both), a pair's
        at its own."""
        for name in shipped_scenarios():
            state, amp = build_state(load_scenario(name))
            rates = ((amp.gain_rate_g,) if isinstance(state, TwoModeSpec)
                     else (amp.gain_rate_g, -amp.gain_rate_g))
            for g in rates:
                dens = path_densities(state, replace(amp, gain_rate_g=g))
                for field, member in zip(dens._fields, dens):
                    yield f"{name} g={g:g} {field}", member

    def test_every_shipped_density_compiles(self):
        seen = set()
        for label, dens in self.shipped_densities():
            env = sampler._compiled(dens)
            if isinstance(env, sampler._Factored):
                assert dens.ndim == 2, label
                env = sampler._compiled(env.along)
            assert isinstance(env, sampler._Envelope), label
            assert env.means.ndim == env.sigmas.ndim == 1, label
            seen.add(dens.ndim)
        assert seen == {1, 2}

    def test_other_densities_are_refused(self):
        spec = cat(1.5, 0.5, 0.5 * math.pi)
        pair = TwoModeSpec(spec, ModeSpec(2.0, 0.0))
        for dens in (q_single_mode(spec, AMP, 0.8), two_mode_q(pair, AMP, 0.8),
                     unequal_variance_pair()):
            with pytest.raises(ValueError, match=REFUSAL):
                sample_fringe_density(dens, RngStream(SUITE_SEED, 85), 10)


def evaluate_every_candidate(density, rng, size):
    """The rejection loop without the squeeze: the density is evaluated at
    every candidate.  Returns the draws and (n_proposed, n_accepted)."""
    env = sampler._compiled(density)
    if isinstance(env, sampler._Factored):
        along, counts = evaluate_every_candidate(env.along, rng, size)
        across = rng.standard_normal(size) + env.across
        return np.column_stack(sampler._rotate(along, across, env.axis,
                                               env.scales)), counts
    assert not env.exact
    out = np.empty(size)
    filled = n_proposed = n_accepted = 0
    while filled < size:
        m = min(math.ceil((size - filled) * env.mass), sampler._MAX_BATCH)
        pts, height, _ = env.propose(rng, m)
        got = pts[rng.random(m) < density.density(pts) / height]
        n_proposed += m
        n_accepted += len(got)
        take = min(len(got), size - filled)
        out[filled:filled + take] = got[:take]
        filled += take
    return out, (n_proposed, n_accepted)


def crest(k, phi):
    """The fringe stage's crest density N(v)(1 + cos(phi + k v)) / M."""
    return TestFringeStage.closed_form(1.0, k, phi)


def odd_pair(t, keep):
    joint = two_mode_q(TwoModeSpec(cat(0.1, 0.0, math.pi), ModeSpec(0.1, 0.0)),
                       AMP, t)
    return joint.marginal(*(a for a in joint.axes if a not in keep))


class TestSqueeze:
    """Candidates below a bin's lower bound are accepted unevaluated: the
    draws and counts are those of evaluating every candidate."""

    MEMBERS = {
        "odd_x0": lambda: marginal_x(cat(0.1, 0.0, math.pi), AMP, 0.0),
        "odd_xtf": lambda: marginal_x(cat(0.1, 0.0, math.pi), AMP, 3.0),
        "odd_p0": lambda: marginal_p(cat(0.1, 0.0, math.pi), AMP, 0.0),
        "crest_pi_k0.05": lambda: crest(0.05, math.pi),
        "crest_pi_k0.3": lambda: crest(0.3, math.pi),
        "odd_pair_x": lambda: odd_pair(AMP.t_final, ("x_a", "x_b")),
        "odd_pair_p": lambda: odd_pair(0.0, ("p_a", "p_b")),
    }
    # (draws, largest batch): one batch, several, and many small ones.
    SIZES = [(1, None), (5_000, None), (150_000, None), (150_000, 8192)]

    @pytest.mark.parametrize("size,max_batch", SIZES)
    @pytest.mark.parametrize("member", MEMBERS)
    def test_draws_equal_evaluating_every_candidate(self, monkeypatch,
                                                    member, size, max_batch):
        if max_batch is not None:
            monkeypatch.setattr(sampler, "_MAX_BATCH", max_batch)
        dens = self.MEMBERS[member]()
        diag = {}
        got = sample_fringe_density(dens, RngStream(SUITE_SEED, 90), size,
                                    diagnostics=diag)
        want, counts = evaluate_every_candidate(
            dens, RngStream(SUITE_SEED, 90).generator(), size)
        np.testing.assert_array_equal(got, want)
        assert (diag["n_proposed"], diag["n_accepted"]) == counts
        assert 0 <= diag["n_evaluated"] <= diag["n_proposed"]
        if size > 1000:  # the squeeze decides nearly every candidate
            assert diag["n_evaluated"] < 0.1 * diag["n_proposed"]

    @pytest.mark.parametrize("k,phi", [(0.05, math.pi), (0.3, math.pi),
                                       (2.0, 1.0)])
    def test_fringe_stage_equals_evaluating_every_candidate(self, monkeypatch,
                                                            k, phi):
        s = np.linspace(0.0, 1.0, 100_001)
        got = sampler._fringe_stage(s, k, phi,
                                    RngStream(SUITE_SEED, 91).generator())
        monkeypatch.setattr(sampler, "sample_fringe_density",
                            lambda d, rng, n: evaluate_every_candidate(
                                d, rng, n)[0])
        want = sampler._fringe_stage(s, k, phi,
                                     RngStream(SUITE_SEED, 91).generator())
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("which", [0, 1])
    def test_compile_refuses_bounds_the_density_breaks(self, monkeypatch,
                                                       which):
        # The certificate: the density at every bin's edges and midpoint
        # must lie within the bin's bounds.
        bin_bounds = sampler._bin_bounds

        def broken(density, a, b):
            bounds = list(bin_bounds(density, a, b))
            bounds[which] = bounds[which] * (1.01 if which == 0 else 0.99)
            return tuple(bounds)

        monkeypatch.setattr(sampler, "_bin_bounds", broken)
        with pytest.raises(EnvelopeViolation, match="outside its bounds"):
            sampler._Envelope(crest(0.3, math.pi))

    def test_compile_allows_the_rounding_of_a_cancelling_fringe(self):
        # A trough of this crest meets the left edge of bin 3748, 8.3
        # sigmas out, where 1 + cos is about 4e-8: the density rounds
        # 2e-9 above the bin's upper bound there, while its exact value
        # lies 3.8e-9 below it.  The compile used to refuse it.
        dens = crest(0.0546875, 2.6875)
        env = sampler._Envelope(dens)
        edge = env.lo + 3748 * env.width
        assert dens.density(edge) > env.bounds[3748] * (1.0 + 1e-9)
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 93), 100_000)
        assert ks_statistic(x, dens) < ks_critical(100_000, alpha=0.001)

    def test_draws_allow_the_rounding_of_a_cancelling_fringe(self,
                                                             monkeypatch):
        # Every candidate proposed at the same edge: the density there
        # rounds 2e-9 above the bin's height, far inside the certificate's
        # tol, so each is drawn.  The draw used to raise EnvelopeViolation.
        dens = crest(0.0546875, 2.6875)
        env = sampler._compiled(dens)
        edge = env.lo + 3748 * env.width
        height = env.bounds[3748]
        assert dens.density(edge) > height * (1.0 + 1e-9)
        monkeypatch.setattr(env, "propose", lambda rng, m: (
            np.full(m, edge), np.full(m, height), np.zeros(m)))
        x = sample_fringe_density(dens, RngStream(SUITE_SEED, 94), 10)
        assert np.all(x == edge)

    def test_exact_mixtures_evaluate_nothing(self):
        diag = {}
        sample_fringe_density(born_x(cat(1.0, 0.0, 0.0)),
                              RngStream(SUITE_SEED, 92), 1000, diag)
        assert diag["n_evaluated"] == 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x1=st.floats(0.05, 6.0), r=st.floats(-1.0, 2.0),
       phi=st.one_of(st.just(math.pi),
                     st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
       t_frac=st.floats(0.0, 1.0), k=st.floats(0.01, 3.0))
def test_bin_bounds_hold_at_random_points(x1, r, phi, t_frac, k):
    # Near-cancelling members included: the odd cat at small x1 (phi = pi)
    # and the crest at phi = pi with small k.
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    pair = two_mode_q(TwoModeSpec(spec, ModeSpec(x1, r)), AMP, t)
    members = (marginal_x(spec, AMP, t), marginal_p(spec, AMP, t),
               pair.marginal("p_a", "p_b"), pair.marginal("x_a", "x_b"),
               crest(k, phi))
    rng = np.random.default_rng(SUITE_SEED)
    for dens in members:
        env = sampler._compiled(dens)
        if isinstance(env, sampler._Factored):
            dens, env = env.along, sampler._compiled(env.along)
        if env.exact:  # an exact mixture: no bins
            continue
        slot = rng.integers(0, sampler._BINS, 20_000)
        u = env.lo + (slot + rng.random(slot.size)) * env.width
        d = dens.density(u)
        assert np.all(np.maximum(d, 0.0) >= env.lower[slot])
        assert np.all(d <= env.bounds[slot] * (1.0 + 1e-9))


class TestCompiledPick:
    """Components are picked from a CDF compiled once, with the indices
    and the stream position of ``Generator.choice(p=...)``."""

    @pytest.mark.parametrize("weights", [(0.3, 0.7), (1.0, 2.0, 3.0, 4.0)])
    def test_mixture_equals_generator_choice(self, weights):
        comps = tuple(GaussComponent(w, (float(i),), (1.0 + i,))
                      for i, w in enumerate(weights))
        env = sampler._Envelope(Marginal1D(comps, None, axes=("u",)))
        a, b = (RngStream(SUITE_SEED, 83).generator() for _ in range(2))
        got = env.mixture(a, 10_000)
        w = np.array(weights)
        idx = b.choice(len(w), size=10_000, p=w / w.sum())
        z = b.standard_normal(10_000)
        means = np.array([c.means[0] for c in comps])
        sigmas = np.sqrt([c.variances[0] for c in comps])
        np.testing.assert_array_equal(got, means[idx] + sigmas[idx] * z)
        np.testing.assert_array_equal(a.random(8), b.random(8))


class TestFringeStage:
    """N(0, 1)(1 + s cos(phi + k v)) as a per-record mixture of N(0, 1) and
    one compiled crest density."""

    @staticmethod
    def closed_form(s, k, phi):
        dens = Marginal1D((GaussComponent(1.0, (0.0,), (1.0,)),),
                          FringeTerm(s, (0.0,), (1.0,), (k,), phi),
                          axes=("v",))
        return replace(dens, norm=1.0 / dens.total_mass())

    @pytest.mark.parametrize("s,k,phi", [
        (0.0, 1.0, 0.0), (0.5, 2.0, 1.0), (1.0, 3.0, 0.5 * math.pi),
        (0.5, 0.1, math.pi), (1.0, 0.1, math.pi), (1.0, 0.0, 2.5)])
    def test_matches_closed_form(self, s, k, phi):
        n = 200_000
        v = sampler._fringe_stage(np.full(n, s), k, phi,
                                  RngStream(SUITE_SEED, 60).generator())
        assert ks_statistic(v, self.closed_form(s, k, phi)) \
            < ks_critical(n, alpha=0.001)

    def test_each_record_keeps_its_own_ratio(self):
        # Half the records at s = 0, half at s = 1: each half follows
        # its own law, so the stage mixes per record, not per call.
        n = 200_000
        s = np.tile([0.0, 1.0], n // 2)
        v = sampler._fringe_stage(s, 2.0, 0.0,
                                  RngStream(SUITE_SEED, 61).generator())
        crit = ks_critical(n // 2, alpha=0.001)
        assert ks_statistic(v[0::2], self.closed_form(0.0, 2.0, 0.0)) < crit
        assert ks_statistic(v[1::2], self.closed_form(1.0, 2.0, 0.0)) < crit

    def test_zero_crest_mass_is_never_drawn(self):
        # k = 0, phi = pi: the crest N(v)(1 + cos(pi)) has no mass.
        v = sampler._fringe_stage(np.full(1000, 0.5), 0.0, math.pi,
                                  RngStream(SUITE_SEED, 62).generator())
        assert np.isfinite(v).all()


class TestSamplePGivenX:
    def test_scalar_input_gives_scalar_output(self):
        p = sample_p_given_x(cat(1.0, 0.0, 0.5 * math.pi), 0.3,
                             RngStream(SUITE_SEED, 30))
        assert np.ndim(p) == 0

    def test_shape_is_preserved(self):
        x = np.zeros((2, 3))
        p = sample_p_given_x(cat(1.0, 0.0, 0.5 * math.pi), x,
                             RngStream(SUITE_SEED, 31))
        assert p.shape == (2, 3)

    def test_bare_mode_is_plain_gaussian(self):
        mode = ModeSpec(1.0, 0.7)
        n = 100000
        p = sample_p_given_x(mode, np.full(n, 0.4),
                             RngStream(SUITE_SEED, 32))
        se = math.sqrt(mode.sigma_p2 / n)
        assert float(p.mean()) == pytest.approx(0.0, abs=5 * se)
        assert float(p.var()) == pytest.approx(mode.sigma_p2, rel=0.02)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_position_raises(self, bad):
        # A NaN anchor was never accepted: the draw looped forever.
        with pytest.raises(ValueError, match="finite positions"):
            sample_p_given_x(cat(1.0, 0.0, math.pi), np.array([0.0, bad]),
                             RngStream(SUITE_SEED, 38))

    @pytest.mark.parametrize("phi", [0.0, 0.5 * math.pi])
    def test_matches_conditional_density(self, phi):
        spec = cat(1.0, 0.0, phi)
        x0 = 0.4
        n = 100000
        p = sample_p_given_x(spec, np.full(n, x0),
                             RngStream(SUITE_SEED, 33))
        target = conditional_p_given_x(spec, AMP, 0.0, x0)
        assert ks_statistic(p, target) < ks_critical(n, alpha=0.001)
        mean, var = target.moments(0)
        assert float(p.mean()) == pytest.approx(
            mean, abs=5 * math.sqrt(var / n))

    def test_odd_cat_at_small_separation(self):
        # The fringe nearly cancels the Gaussian at x = 0: a rejection
        # loop against N(p)(1 + s) accepted about 0.12% here.
        spec = cat(0.1, 0.0, math.pi)
        n = 200_000
        p = sample_p_given_x(spec, np.zeros(n), RngStream(SUITE_SEED, 63))
        target = conditional_p_given_x(spec, AMP, 0.0, 0.0)
        assert ks_statistic(p, target) < ks_critical(n, alpha=0.001)

    def test_reruns_are_bit_identical(self):
        spec = cat(1.0, 0.0, 0.5 * math.pi)
        x = np.linspace(-2, 2, 64)
        a = sample_p_given_x(spec, x, RngStream(SUITE_SEED, 34))
        b = sample_p_given_x(spec, x, RngStream(SUITE_SEED, 34))
        np.testing.assert_array_equal(a, b)
