"""Closed-form densities against independent quadrature oracles.

Every closed form is checked three ways where it applies: frozen
reference values, internal identities of the density family (masses,
marginals, conditionals), and direct numerical integration that does not
reuse the closed-form path being tested.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from conftest import gl_nodes, quad_grid, quad_moments_1d
from qtraj.analytic import (
    FringeTerm,
    GaussComponent,
    GaussFringeDensity,
    Marginal1D,
    TimeOutOfRange,
    UnsupportedPhase,
    _branch_fringe_ratio,
    _faddeeva,
    _meter_branch_density,
    born_p,
    born_x,
    conditional_given_meter_x,
    conditional_p_given_x,
    fbc_from_wigner,
    inferred_state_A_analytic,
    marginal_p,
    marginal_x,
    meter_condition_weights,
    meter_conditional_variances,
    q_single_mode,
    two_mode_q,
    variances_postselected_analytic,
    wigner_cat,
)
from qtraj.core import AmplifierSpec, ModeSpec, SuperpositionSpec, TwoModeSpec

HALF = 1.0 / math.sqrt(2.0)


def cat(x1, r=0.0, phi=0.0, c1_mag=HALF):
    c2 = math.sqrt(max(1.0 - c1_mag ** 2, 0.0))
    return SuperpositionSpec(ModeSpec(x1, r), c1_mag=c1_mag, c2_mag=c2,
                             phase_phi=phi)


def two_mode(x1=1.0, r=1.5, x1b=4.0, r2=0.0, phi=0.5 * math.pi):
    return TwoModeSpec(cat(x1, r, phi), ModeSpec(x1b, r2))


AMP = AmplifierSpec(1.0, 3.0, 30)


def erfc_cdf(points, mean=0.0, sd=1.0, upper=False):
    """The CDF of N(mean, sd^2) at each point from ``math.erfc``, or with
    ``upper`` the mass above it."""
    sign = 1.0 if upper else -1.0
    return np.array([0.5 * math.erfc(sign * (u - mean) / (sd * math.sqrt(2.0)))
                     for u in points])


def erfc_masses(edges, mean=0.0, sd=1.0):
    """Bin masses of N(mean, sd^2) from ``math.erfc``; a bin above the
    mean is the difference of two upper tails."""
    edges = np.asarray(edges)
    above = edges[:-1] >= mean
    cdf = erfc_cdf(edges, mean, sd)
    sf = erfc_cdf(edges, mean, sd, upper=True)
    return np.where(above, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])


def quad_masses(dens, edges):
    """Bin masses by scipy ``quad`` on pieces shorter than a fringe period."""
    k = 0.0 if dens.fringe is None else abs(dens.fringe.wave[0])
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(a, b, math.ceil(k * (b - a) / (2 * math.pi)) + 2)
        out.append(math.fsum(
            quad(lambda u: float(dens.pdf(u)), lo, hi, epsabs=1e-17,
                 epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])))
    return np.array(out)


# ---------------------------------------------------------------------------
# density family mechanics


class TestDensityFamily:
    def _hand_density(self):
        comps = (GaussComponent(0.55, (1.0, -0.5), (1.5, 0.8)),
                 GaussComponent(0.45, (-2.0, 0.3), (0.5, 2.0)))
        fringe = FringeTerm(0.3, (0.2, -0.1), (1.0, 1.2), (0.7, 1.3), 0.4)
        return GaussFringeDensity(gaussians=comps, fringe=fringe, norm=1.1,
                                  axes=("x", "p"))

    def test_component_validation(self):
        with pytest.raises(ValueError):
            GaussComponent(-0.1, (0.0,), (1.0,))
        with pytest.raises(ValueError):
            GaussComponent(1.0, (0.0,), (0.0,))
        with pytest.raises(ValueError):
            GaussComponent(1.0, (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            FringeTerm(1.0, (0.0,), (-1.0,), (0.0,), 0.0)
        with pytest.raises(ValueError):
            FringeTerm(1.0, (0.0,), (1.0,), (0.0, 1.0), 0.0)

    def test_density_validation(self):
        comp = GaussComponent(1.0, (0.0,), (1.0,))
        with pytest.raises(ValueError):
            GaussFringeDensity(gaussians=(comp,), fringe=None, norm=0.0,
                               axes=("x",))
        with pytest.raises(ValueError):
            GaussFringeDensity(gaussians=(comp,), fringe=None, norm=1.0,
                               axes=("x", "p"))
        with pytest.raises(ValueError):
            Marginal1D(gaussians=(GaussComponent(1.0, (0.0, 0.0), (1.0, 1.0)),),
                       fringe=None, norm=1.0, axes=("x", "p"))

    def test_density_matches_hand_formula(self):
        dens = self._hand_density()
        x, p = 0.7, -1.1

        def g(u, m, v):
            return math.exp(-0.5 * (u - m) ** 2 / v) / math.sqrt(
                2 * math.pi * v)

        expected = 1.1 * (
            0.55 * g(x, 1.0, 1.5) * g(p, -0.5, 0.8)
            + 0.45 * g(x, -2.0, 0.5) * g(p, 0.3, 2.0)
            + 0.3 * g(x, 0.2, 1.0) * g(p, -0.1, 1.2)
            * math.cos(0.7 * x + 1.3 * p + 0.4))
        assert dens.density(x, p) == pytest.approx(expected, rel=1e-14)

    def test_total_mass_matches_quadrature(self):
        dens = self._hand_density()
        quad = quad_grid(dens, [(-14.0, 14.0), (-16.0, 16.0)], n=220)
        assert dens.total_mass() == pytest.approx(quad, abs=1e-10)

    def test_moments_match_quadrature(self):
        dens = self._hand_density()
        for ai, span in ((0, (-14.0, 14.0)), (1, (-16.0, 16.0))):
            other = (-16.0, 16.0) if ai == 0 else (-14.0, 14.0)
            x, wx = gl_nodes(*span, 260)
            y, wy = gl_nodes(*other, 260)
            if ai == 0:
                vals = dens.density(x[:, None], y[None, :])
            else:
                vals = dens.density(y[:, None], x[None, :])
                vals = vals.T
            f = vals @ wy
            m0 = np.sum(f * wx)
            m1 = np.sum(x * f * wx) / m0
            m2 = np.sum(x * x * f * wx) / m0
            mean, var = dens.moments(ai)
            assert mean == pytest.approx(m1, abs=1e-10)
            assert var == pytest.approx(m2 - m1 * m1, abs=1e-10)

    def test_moments_by_axis_name(self):
        dens = self._hand_density()
        assert dens.moments("p") == dens.moments(1)

    def test_marginal_matches_quadrature(self):
        dens = self._hand_density()
        marg = dens.marginal("p")
        assert isinstance(marg, Marginal1D)
        assert marg.axes == ("x",)
        p, wp = gl_nodes(-16.0, 16.0, 260)
        for x0 in (-2.5, 0.0, 0.9, 3.0):
            direct = float(np.sum(dens.density(x0, p) * wp))
            assert marg.pdf(x0) == pytest.approx(direct, abs=1e-12)

    def test_marginal_rejects_dropping_everything(self):
        with pytest.raises(ValueError):
            self._hand_density().marginal("x", "p")

    def test_scaled_is_change_of_variables(self):
        dens = self._hand_density()
        factor = 2.0
        scaled = dens.scaled("x", factor)
        for x0, p0 in ((-1.0, 0.5), (0.3, -0.2), (2.0, 1.0)):
            expected = factor * dens.density(factor * x0, p0)
            assert scaled.density(x0, p0) == pytest.approx(expected,
                                                           rel=1e-12)

    def test_scaled_preserves_mass(self):
        dens = self._hand_density()
        assert dens.scaled("p", 3.0).total_mass() == pytest.approx(
            dens.total_mass(), rel=1e-12)
        # Bitwise the hand-built member: m / c, v / c^2 and k c on p.
        c = 3.0
        comps = (GaussComponent(0.55, (1.0, -0.5 / c), (1.5, 0.8 / c ** 2)),
                 GaussComponent(0.45, (-2.0, 0.3 / c), (0.5, 2.0 / c ** 2)))
        fringe = FringeTerm(0.3, (0.2, -0.1 / c), (1.0, 1.2 / c ** 2),
                            (0.7, 1.3 * c), 0.4)
        assert dens.scaled("p", c) == GaussFringeDensity(
            gaussians=comps, fringe=fringe, norm=1.1, axes=("x", "p"))

    def test_convolved_adds_variance(self):
        comps = (GaussComponent(0.7, (1.0,), (2.0,)),
                 GaussComponent(0.3, (-1.0,), (0.5,)))
        fringe = FringeTerm(0.2, (0.0,), (1.0,), (0.0,), 0.1)
        dens = Marginal1D(gaussians=comps, fringe=fringe, norm=1.0,
                          axes=("x",))
        added = 0.9
        conv = dens.convolved("x", added)
        assert conv == Marginal1D(  # bitwise the hand-built member
            gaussians=(GaussComponent(0.7, (1.0,), (2.0 + added,)),
                       GaussComponent(0.3, (-1.0,), (0.5 + added,))),
            fringe=FringeTerm(0.2, (0.0,), (1.0 + added,), (0.0,), 0.1),
            norm=1.0, axes=("x",))
        mean0, var0 = dens.moments(0)
        mean1, var1 = conv.moments(0)
        assert mean1 == pytest.approx(mean0, abs=1e-13)
        assert var1 == pytest.approx(var0 + added, rel=1e-12)
        # pointwise against an explicit smoothing integral
        u, wu = gl_nodes(-14.0, 14.0, 300)
        for x0 in (-1.5, 0.0, 0.8):
            kern = np.exp(-0.5 * (x0 - u) ** 2 / added) / math.sqrt(
                2 * math.pi * added)
            direct = float(np.sum(dens.pdf(u) * kern * wu))
            assert conv.pdf(x0) == pytest.approx(direct, abs=1e-12)

    def test_convolved_rejects_oscillating_axis(self):
        fringe = FringeTerm(0.2, (0.0,), (1.0,), (0.5,), 0.0)
        dens = Marginal1D(gaussians=(GaussComponent(1.0, (0.0,), (1.0,)),),
                          fringe=fringe, norm=1.0, axes=("x",))
        with pytest.raises(ValueError):
            dens.convolved("x", 1.0)

    def test_bin_masses_sum_to_total_mass(self):
        dens = marginal_x(cat(1.0, 0.0, 0.0), AMP, 0.0)
        lo, hi = dens.support_hint()
        masses = dens.bin_masses(np.linspace(lo, hi, 101))
        assert float(masses.sum()) == pytest.approx(dens.total_mass(),
                                                    abs=1e-12)

    @staticmethod
    def fringed(k, amplitude=0.5):
        """A wide Gaussian carrying a fringe of wave number k."""
        return Marginal1D(
            gaussians=(GaussComponent(1.0, (0.0,), (1e4,)),),
            fringe=FringeTerm(amplitude, (0.0,), (1e4,), (k,), 0.0),
            axes=("x",))

    def test_bin_masses_of_a_fringe_are_exact_at_any_wave(self):
        # Half bins of width 1, so the fringe turns k rad across each: the
        # 24-point rule used to refuse k > 24, and the 8-point one k > 8.
        edges = np.linspace(-10.0, 10.0, 11)
        for k in (24.0, 24.0 * (1 + 1e-9), 8.01, 40.0):
            dens = self.fringed(k)
            np.testing.assert_allclose(dens.bin_masses(edges),
                                       quad_masses(dens, edges),
                                       rtol=0, atol=1e-15)
        # Without amplitude the fringe adds nothing.
        np.testing.assert_array_equal(
            self.fringed(1e3, amplitude=0.0).bin_masses(edges),
            replace(self.fringed(1e3), fringe=None).bin_masses(edges))

    def test_bin_masses_of_a_narrow_term_are_exact(self):
        # A unit Gaussian centred on a bin edge, in half bins of h sigma:
        # the 24- and 8-point rules used to refuse h above 6 and 2.
        def unit(extra=()):
            return Marginal1D(
                gaussians=(GaussComponent(1.0, (0.0,), (1.0,)),) + extra,
                fringe=None, axes=("x",))

        for h in (6.0, 2.0):
            for edges in (np.arange(-4, 5) * 2.0 * h + h,
                          (np.arange(-4, 5) * 2.0 * h + h) * (1 + 1e-9)):
                np.testing.assert_allclose(unit().bin_masses(edges),
                                           erfc_masses(edges), rtol=0,
                                           atol=1e-15)
                np.testing.assert_allclose(unit().cdf(edges),
                                           erfc_cdf(edges), rtol=0,
                                           atol=1e-15)
        # A narrow term of weight 0 adds nothing; one of weight 1e-9 adds
        # its mass, whether a component or a non-oscillating fringe.
        edges = np.linspace(-30.0, 30.0, 6)
        narrow = GaussComponent(0.0, (0.0,), (1e-6,))
        np.testing.assert_array_equal(unit((narrow,)).bin_masses(edges),
                                      unit().bin_masses(edges))
        want = erfc_masses(edges) + 1e-9 * erfc_masses(edges, sd=1e-3)
        for dens in (unit((replace(narrow, weight=1e-9),)),
                     replace(unit(), fringe=FringeTerm(
                         1e-9, (0.0,), (1e-6,), (0.0,), 0.0))):
            np.testing.assert_allclose(dens.bin_masses(edges), want,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r", [6.0, 12.0])
    def test_born_masses_the_rules_refused_are_exact(self, r):
        # born's bins at fig_born_x's state beyond state.r = 5: each x
        # packet is many sigma to a half bin, and the p fringe cos(x1 p)
        # turns tens to thousands of rad across one.
        spec = cat(4.0, r, 0.0)
        tx, tp = born_x(spec), born_p(spec)
        edges = np.linspace(*tx.support_hint(4.0), 101)
        f = tx.fringe  # a Gaussian of weight A cos(phi)
        assert f.wave == (0.0,)
        want = tx.norm * sum(
            w * erfc_masses(edges, t.means[0], math.sqrt(t.variances[0]))
            for w, t in [(c.weight, c) for c in tx.gaussians]
            + [(f.amplitude * math.cos(f.phase), f)])
        np.testing.assert_allclose(tx.bin_masses(edges), want, rtol=0,
                                   atol=1e-15)
        edges = np.linspace(*tp.support_hint(4.0), 101)
        if r == 6.0:  # 21 pieces to each of 100 bins
            np.testing.assert_allclose(tp.bin_masses(edges),
                                       quad_masses(tp, edges), rtol=0,
                                       atol=1e-15)
        np.testing.assert_allclose(np.cumsum(tp.bin_masses(edges)),
                                   tp.cdf(edges[1:]) - tp.cdf(edges[0]),
                                   rtol=0, atol=1e-15)

    def test_cdf_monotone_and_normalised(self):
        dens = marginal_x(cat(2.0, 0.5, 0.0), AMP, 1.0)
        pts = np.linspace(*dens.support_hint(), 400)
        c = dens.cdf(pts)
        assert np.all(np.diff(c) >= -1e-13)
        assert c[0] == pytest.approx(0.0, abs=1e-10)
        assert c[-1] == pytest.approx(dens.total_mass(), abs=1e-9)


class TestNonFiniteFields:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["weight", "means", "variances"])
    def test_component_rejects_it_by_name(self, field, bad):
        fields = {"weight": 1.0, "means": (0.0,), "variances": (1.0,)}
        fields[field] = bad if field == "weight" else (bad,)
        with pytest.raises(ValueError, match=f"GaussComponent.{field} "):
            GaussComponent(**fields)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize(
        "field", ["amplitude", "means", "variances", "wave", "phase"])
    def test_fringe_rejects_it_by_name(self, field, bad):
        fields = {"amplitude": 0.5, "means": (0.0,), "variances": (1.0,),
                  "wave": (2.0,), "phase": 0.0}
        fields[field] = bad if field in ("amplitude", "phase") else (bad,)
        with pytest.raises(ValueError, match=f"FringeTerm.{field} "):
            FringeTerm(**fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_density_rejects_a_non_finite_norm(self, bad):
        comps = (GaussComponent(1.0, (0.0,), (1.0,)),)
        with pytest.raises(ValueError, match="GaussFringeDensity.norm "):
            GaussFringeDensity(gaussians=comps, fringe=None, norm=bad,
                               axes=("x",))

    def test_nan_mean_never_reaches_the_sampler(self):
        # A hand-built marginal with a NaN mean used to draw [nan nan nan].
        with pytest.raises(ValueError, match="GaussComponent.means "):
            Marginal1D(gaussians=(GaussComponent(1.0, (math.nan,), (1.0,)),),
                       fringe=None, axes=("x",))


class TestCheckTime:
    def test_rejects_out_of_window_times(self):
        spec = cat(1.0)
        with pytest.raises(TimeOutOfRange):
            q_single_mode(spec, AMP, -0.5)
        with pytest.raises(TimeOutOfRange):
            q_single_mode(spec, AMP, AMP.t_final + 0.5)

    def test_clamps_roundoff_boundaries(self):
        spec = cat(1.0)
        q_single_mode(spec, AMP, -1e-13)
        q_single_mode(spec, AMP, AMP.t_final * (1.0 + 1e-13))

    @pytest.mark.parametrize("build", [
        lambda t: conditional_p_given_x(cat(1.0), AMP, t, 0.5),
        lambda t: two_mode_q(two_mode(), AMP, t),
        lambda t: meter_condition_weights(two_mode(), AMP, t, 0.5),
        lambda t: conditional_given_meter_x(two_mode(), 0.5, AMP, t),
        lambda t: _meter_branch_density(two_mode(), 0.7, 0.3, AMP, t),
    ], ids=["conditional_p_given_x", "two_mode_q", "meter_condition_weights",
            "conditional_given_meter_x", "_meter_branch_density"])
    def test_every_timed_builder_refuses_out_of_window_times(self, build):
        build(AMP.t_final * (1.0 + 1e-13))
        for t in (-0.5, AMP.t_final + 0.5):
            with pytest.raises(TimeOutOfRange):
                build(t)


class TestMirrorPackets:
    """The second packet of a two-packet member is the first one's mirror
    image, and each zero coordinate of it is +0.0: a -0.0 would change
    the density's repr."""

    @pytest.mark.parametrize("x1", [1.0, 0.0])
    @pytest.mark.parametrize("build", [
        lambda x1: q_single_mode(cat(x1), AMP, 1.0),
        lambda x1: two_mode_q(TwoModeSpec(cat(x1, 1.5), ModeSpec(x1, 0.0)),
                              AMP, 1.0),
        lambda x1: _meter_branch_density(
            TwoModeSpec(cat(x1, 1.5), ModeSpec(4.0, 0.0)), 0.7, 0.3),
        lambda x1: wigner_cat(cat(x1)),
        lambda x1: wigner_cat(cat(x1, phi=0.5 * math.pi)),
    ], ids=["q_single_mode", "two_mode_q", "_meter_branch_density",
            "wigner_cat_zero", "wigner_cat_quarter"])
    def test_zero_coordinates_of_the_mirror_are_positive(self, build, x1):
        dens = build(x1)
        first, second = dens.gaussians
        assert second.means == tuple(-m for m in first.means)
        zeros = [m for m in second.means if m == 0.0]
        assert zeros
        assert all(math.copysign(1.0, m) == 1.0 for m in zeros)
        assert "-0.0" not in repr(dens)


# ---------------------------------------------------------------------------
# single-mode distributions


class TestQSingleMode:
    def test_coherent_peak_value(self):
        dens = q_single_mode(ModeSpec(2.0, 0.0), AMP, 0.0)
        assert dens.density(2.0, 0.0) == pytest.approx(
            0.07957747154594767, abs=1e-14)

    def test_squeezed_peak_value(self):
        r = 1.0
        mode = ModeSpec(0.0, r)
        dens = q_single_mode(mode, AMP, 0.0)
        peak = 1.0 / (2.0 * math.pi * math.sqrt(mode.sigma_x2 * mode.sigma_p2))
        assert dens.density(0.0, 0.0) == pytest.approx(peak, rel=1e-14)

    @pytest.mark.parametrize("spec", [
        cat(1.0, 0.0, 0.0),
        cat(1.0, 2.0, 0.0),
        cat(2.0, 1.0, 0.5 * math.pi),
        cat(4.0, 0.0, math.pi),
        cat(1.5, 0.0, 0.3, c1_mag=0.6),
        SuperpositionSpec(ModeSpec(1.0, 0.5)),
    ])
    @pytest.mark.parametrize("t", [0.0, 1.5, 3.0])
    def test_total_mass_is_one(self, spec, t):
        dens = q_single_mode(spec, AMP, t)
        assert dens.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_normalisation_by_quadrature(self):
        for spec in (cat(1.0, 0.0, 0.0), cat(1.0, 2.0, 0.0),
                     cat(2.0, 1.0, 0.5 * math.pi)):
            for t in (0.0, 1.1):
                dens = q_single_mode(spec, AMP, t)
                sx = math.sqrt(max(c.variances[0] for c in dens.gaussians))
                sp = math.sqrt(max(c.variances[1] for c in dens.gaussians))
                cx = max(abs(c.means[0]) for c in dens.gaussians)
                quad = quad_grid(dens, [(-cx - 10 * sx, cx + 10 * sx),
                                        (-11 * sp, 11 * sp)], n=260)
                assert quad == pytest.approx(1.0, abs=2e-6)

    @pytest.mark.parametrize("phi", [0.0, 0.5 * math.pi, math.pi])
    def test_positivity_on_grid(self, phi):
        dens = q_single_mode(cat(1.0, 0.0, phi), AMP, 0.0)
        x = np.linspace(-8, 8, 161)[:, None]
        p = np.linspace(-8, 8, 161)[None, :]
        assert float(dens.density(x, p).min()) >= -1e-12

    def test_frozen_interference_peak_values(self):
        spec0 = cat(1.0, 0.0, 0.0)
        specq = cat(1.0, 0.0, 0.5 * math.pi)
        amp = AmplifierSpec(1.0, 1.0, 4)
        assert marginal_x(spec0, amp, 0.0).pdf(0.0) == pytest.approx(
            0.24325386043978303, abs=1e-12)
        assert marginal_x(specq, amp, 0.0).pdf(0.0) == pytest.approx(
            0.21969564473386122, abs=1e-12)

    @pytest.mark.parametrize("spec", [cat(1.0, 2.0, 0.0),
                                      cat(2.0, 0.0, 0.5 * math.pi),
                                      cat(1.5, 0.7, 0.3, c1_mag=0.6)])
    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_marginals_match_direct_integration(self, spec, t):
        dens = q_single_mode(spec, AMP, t)
        mx = marginal_x(spec, AMP, t)
        mp = marginal_p(spec, AMP, t)
        sp = math.sqrt(max(c.variances[1] for c in dens.gaussians))
        sx = math.sqrt(max(c.variances[0] for c in dens.gaussians))
        cx = max(abs(c.means[0]) for c in dens.gaussians)
        p, wp = gl_nodes(-12 * sp, 12 * sp, 500)
        x, wx = gl_nodes(-cx - 12 * sx, cx + 12 * sx, 500)
        for x0 in (-1.8, 0.0, 0.6, 2.5):
            direct = float(np.sum(dens.density(x0, p) * wp))
            assert mx.pdf(x0) == pytest.approx(direct, abs=1e-8)
        for p0 in (-1.2, 0.0, 0.4, 2.0):
            direct = float(np.sum(dens.density(x, p0) * wx))
            assert mp.pdf(p0) == pytest.approx(direct, abs=1e-8)

    def test_marginal_moments_match_quadrature(self):
        spec = cat(1.5, 0.7, 0.0, c1_mag=0.6)
        for t in (0.0, 1.5):
            mx = marginal_x(spec, AMP, t)
            lo, hi = mx.support_hint(12.0)
            mean_q, var_q = quad_moments_1d(mx, lo, hi, n=600)
            mean, var = mx.moments(0)
            assert mean == pytest.approx(mean_q, abs=1e-9)
            assert var == pytest.approx(var_q, rel=1e-9)
            mp = marginal_p(spec, AMP, t)
            lo, hi = mp.support_hint(12.0)
            mean_q, var_q = quad_moments_1d(mp, lo, hi, n=600)
            mean, var = mp.moments(0)
            assert mean == pytest.approx(mean_q, abs=1e-9)
            assert var == pytest.approx(var_q, rel=1e-9)

    @pytest.mark.parametrize("spec", [cat(1.0, 0.0, 0.0),
                                      cat(2.0, 1.0, 0.5 * math.pi),
                                      cat(1.0, 0.0, 0.3, c1_mag=0.6)])
    @pytest.mark.parametrize("t", [0.0, 1.1])
    @pytest.mark.parametrize("x0", [-1.5, 0.0, 0.8])
    def test_conditional_factorises_the_joint(self, spec, t, x0):
        dens = q_single_mode(spec, AMP, t)
        mx = marginal_x(spec, AMP, t)
        cond = conditional_p_given_x(spec, AMP, t, x0)
        p = np.linspace(-10, 10, 101)
        joint = dens.density(x0, p)
        product = mx.pdf(x0) * cond.pdf(p)
        assert np.max(np.abs(joint - product)) < 1e-9 * max(joint.max(), 1e-3)

    def test_conditional_is_normalised(self):
        for phi in (0.0, 0.5 * math.pi, 0.3):
            cond = conditional_p_given_x(cat(2.0, 1.0, phi), AMP, 0.7, 0.4)
            assert cond.total_mass() == pytest.approx(1.0, abs=1e-12)
            lo, hi = cond.support_hint(12.0)
            x, w = gl_nodes(lo, hi, 500)
            assert float(np.sum(cond.pdf(x) * w)) == pytest.approx(1.0,
                                                                   abs=1e-9)


class TestBornDensities:
    def test_position_record_of_wide_cat_is_two_gaussians(self):
        spec = cat(4.0, 0.0, 0.5 * math.pi)
        target = born_x(spec)
        x = np.linspace(-9, 9, 361)
        expected = 0.5 / math.sqrt(2 * math.pi) * (
            np.exp(-0.5 * (x - 4.0) ** 2) + np.exp(-0.5 * (x + 4.0) ** 2))
        assert np.max(np.abs(target.pdf(x) - expected)) < 1e-12

    def test_momentum_record_carries_full_fringe(self):
        spec = cat(4.0, 0.0, 0.5 * math.pi)
        target = born_p(spec)
        p = np.linspace(-6, 6, 241)
        expected = np.exp(-0.5 * p * p) / math.sqrt(2 * math.pi) \
            * (1.0 - np.sin(4.0 * p))
        assert np.max(np.abs(target.pdf(p) - expected)) < 1e-12

    def test_momentum_record_null(self):
        target = born_p(cat(4.0, 0.0, 0.5 * math.pi))
        assert abs(float(target.pdf(math.pi / 8.0))) < 1e-15

    def test_branch_weights_are_amplitude_squares(self):
        from scipy.integrate import quad
        spec = cat(3.0, 4.0, 0.0, c1_mag=0.6)
        target = born_x(spec)
        plus_mass, err = quad(target.pdf, 0.0, 10.0, points=[3.0], limit=200)
        assert err < 1e-9
        assert plus_mass == pytest.approx(0.36, abs=1e-9)

    def test_masses_are_one(self):
        for spec in (cat(1.0, 0.0, 0.0), cat(2.0, 1.0, math.pi),
                     cat(1.0, 0.0, 0.3, c1_mag=0.6)):
            assert born_x(spec).total_mass() == pytest.approx(1.0, abs=1e-12)
            assert born_p(spec).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_rescaled_marginal_converges_to_position_record(self):
        spec = cat(1.0, 0.0, 0.0)
        target = born_x(spec)
        x = np.linspace(-8, 8, 401)
        ref = target.pdf(x)
        dists = []
        for t in (1.0, 2.0, 3.0):
            amp = AmplifierSpec(1.0, t, 4)
            scaled = marginal_x(spec, amp, t).scaled("x", amp.gain_tf)
            dists.append(float(np.max(np.abs(scaled.pdf(x) - ref))))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.01

    def test_rescaled_momentum_marginal_converges_to_momentum_record(self):
        spec = cat(2.0, 0.0, 0.5 * math.pi)
        target = born_p(spec)
        p = np.linspace(-6, 6, 301)
        ref = target.pdf(p)
        dists = []
        for t in (1.0, 2.0, 3.0):
            amp = AmplifierSpec(-1.0, t, 4)
            scaled = marginal_p(spec, amp, t).scaled("p", 1.0 / amp.gain_tf)
            dists.append(float(np.max(np.abs(scaled.pdf(p) - ref))))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.01


class TestWigner:
    def test_coherent_packet(self):
        dens = wigner_cat(ModeSpec(1.5, 0.0))
        x = np.linspace(-4, 6, 101)[:, None]
        p = np.linspace(-5, 5, 101)[None, :]
        expected = np.exp(-0.5 * (x - 1.5) ** 2 - 0.5 * p ** 2) \
            / (2.0 * math.pi)
        assert np.max(np.abs(dens.density(x, p) - expected)) < 1e-15

    @pytest.mark.parametrize("x1", [1.0, 4.0])
    def test_zero_phase_cat_matches_printed_form(self, x1):
        dens = wigner_cat(cat(x1, 0.0, 0.0))
        x = np.linspace(-x1 - 5, x1 + 5, 161)[:, None]
        p = np.linspace(-6, 6, 161)[None, :]
        pref = np.exp(-0.5 * p ** 2) / (4.0 * math.pi
                                        * (1.0 + math.exp(-0.5 * x1 ** 2)))
        expected = pref * (np.exp(-0.5 * (x - x1) ** 2)
                           + np.exp(-0.5 * (x + x1) ** 2)
                           + 2.0 * np.exp(-0.5 * x ** 2) * np.cos(p * x1))
        assert np.max(np.abs(dens.density(x, p) - expected)) < 1e-12

    @pytest.mark.parametrize("x1", [1.0, 2.0, 4.0])
    def test_origin_value_is_separation_independent(self, x1):
        dens = wigner_cat(cat(x1, 0.0, 0.0))
        assert dens.density(0.0, 0.0) == pytest.approx(
            0.15915494309189535, abs=1e-14)

    def test_interference_swings_negative(self):
        dens = wigner_cat(cat(4.0, 0.0, 0.0))
        x = np.linspace(-6, 6, 201)[:, None]
        p = np.linspace(-3, 3, 201)[None, :]
        assert float(dens.density(x, p).min()) < -1e-3

    def test_zero_phase_marginal_matches_printed_form(self):
        x1 = 2.0
        marg = wigner_cat(cat(x1, 0.0, 0.0)).marginal("p")
        x = np.linspace(-7, 7, 281)
        expected = (np.exp(-0.5 * (x - x1) ** 2)
                    + np.exp(-0.5 * (x + x1) ** 2)
                    + 2.0 * np.exp(-0.5 * x ** 2)
                    * math.exp(-0.5 * x1 ** 2)) \
            / (2.0 * math.sqrt(2.0 * math.pi)
               * (1.0 + math.exp(-0.5 * x1 ** 2)))
        assert np.max(np.abs(marg.pdf(x) - expected)) < 1e-12

    def test_quarter_phase_is_even_two_gaussian_part(self):
        dens = wigner_cat(cat(3.0, 1.0, 0.5 * math.pi))
        assert dens.fringe is None
        assert dens.total_mass() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x1,r", [(1.0, 0.0), (3.0, 0.8), (1.0, 0.8)])
    def test_zero_phase_mass_is_one(self, x1, r):
        assert wigner_cat(cat(x1, r, 0.0)).total_mass() == pytest.approx(
            1.0, abs=1e-12)

    def test_unsupported_phase(self):
        with pytest.raises(UnsupportedPhase):
            wigner_cat(cat(1.0, 0.0, 0.3))

    def test_single_packet_any_phase(self):
        dens = wigner_cat(SuperpositionSpec(ModeSpec(1.0, 0.5),
                                            phase_phi=0.3))
        assert dens.fringe is None

    @pytest.mark.parametrize("spec", [
        cat(1.0, 0.0, 0.0),
        cat(3.0, 0.8, 0.0),
        cat(2.0, 0.8, 0.5 * math.pi),
        SuperpositionSpec(ModeSpec(1.5, 0.5)),
    ])
    def test_scaled_smoothed_marginal_equals_final_time_marginal(self, spec):
        amp = AmplifierSpec(1.0, 2.0, 8)
        built = fbc_from_wigner(spec, amp)
        direct = marginal_x(spec, amp, amp.t_final)
        lo, hi = direct.support_hint(8.0)
        x = np.linspace(lo, hi, 301)
        scale = float(np.max(np.abs(direct.pdf(x))))
        assert np.max(np.abs(built.pdf(x) - direct.pdf(x))) < 1e-9 * scale

    def test_unit_gain_limit_reproduces_initial_marginal(self):
        spec = cat(1.0, 0.0, 0.0)
        amp = AmplifierSpec(1e-9, 1e-3, 1)
        built = fbc_from_wigner(spec, amp)
        direct = marginal_x(spec, amp, 0.0)
        x = np.linspace(-6, 6, 241)
        assert np.max(np.abs(built.pdf(x) - direct.pdf(x))) < 1e-9


def observed_product(mom):
    """The uncertainty product of the measured quadrature variances."""
    return math.sqrt(mom.observed_var_x * mom.observed_var_p)


class TestPostselectedMoments:
    def test_single_packet(self):
        mom = variances_postselected_analytic(SuperpositionSpec(
            ModeSpec(2.0, 1.0)))
        mode = ModeSpec(2.0, 1.0)
        assert mom.var_x == pytest.approx(mode.sigma_x2)
        assert mom.mean_p == 0.0
        assert mom.var_p == pytest.approx(mode.sigma_p2)

    def test_zero_separation_has_no_fringe_remnant(self):
        mom = variances_postselected_analytic(cat(0.0, 0.0, 0.5 * math.pi))
        assert mom.mean_p == pytest.approx(0.0, abs=1e-15)
        assert mom.observed_var_x == pytest.approx(1.0, rel=1e-12)
        assert mom.observed_var_p == pytest.approx(1.0, rel=1e-12)
        assert observed_product(mom) == pytest.approx(1.0, rel=1e-12)

    def test_product_below_one_for_finite_separation(self):
        for x1 in (0.5, 1.0, 2.0):
            mom = variances_postselected_analytic(cat(x1, 0.0,
                                                      0.5 * math.pi))
            assert observed_product(mom) < 1.0
        far = variances_postselected_analytic(cat(8.0, 0.0, 0.5 * math.pi))
        assert observed_product(far) == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_position_variance(self):
        mom = variances_postselected_analytic(cat(6.0, 2.0, 0.5 * math.pi))
        assert mom.observed_var_x == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_mean_matches_selection_independent_quadrature(self):
        # The conditional fringe mean weighted over the position marginal
        # collapses to a closed form independent of how the (symmetric)
        # sign selection splits trajectories; verify against explicit
        # quadrature for two very different selection profiles.
        x1, r = 0.8, 0.5
        spec = cat(x1, r, 0.5 * math.pi)
        mom = variances_postselected_analytic(spec)
        sx2 = spec.mode.sigma_x2
        sp2 = spec.mode.sigma_p2
        k = x1 / sx2
        cond_amp = k * sp2 * math.exp(-0.5 * k * k * sp2)
        x, w = gl_nodes(-14.0, 14.0, 800)
        packets = 0.5 * (
            np.exp(-0.5 * (x - x1) ** 2 / sx2)
            + np.exp(-0.5 * (x + x1) ** 2 / sx2)) / math.sqrt(
                2 * math.pi * sx2)
        u = x * x1 / sx2
        sech = 2.0 * np.exp(-np.abs(u)) / (1.0 + np.exp(-2.0 * np.abs(u)))
        from math import erf
        for tau in (0.5, 2.0):
            sel = 0.5 * (1.0 + np.array([erf(v / tau) for v in x]))
            prob_plus = float(np.sum(packets * sel * w))
            mean_p = -cond_amp * float(np.sum(sech * sel * packets * w)) \
                / prob_plus
            assert prob_plus == pytest.approx(0.5, abs=1e-10)
            assert mean_p == pytest.approx(mom.mean_p, rel=1e-9)

    def test_variance_identity(self):
        spec = cat(0.8, 0.5, 0.5 * math.pi)
        mom = variances_postselected_analytic(spec)
        assert mom.var_p == pytest.approx(
            spec.mode.sigma_p2 - mom.mean_p ** 2, rel=1e-14)

    def test_unsupported_configurations(self):
        with pytest.raises(UnsupportedPhase):
            variances_postselected_analytic(cat(1.0, 0.0, 0.0))
        with pytest.raises(UnsupportedPhase):
            variances_postselected_analytic(
                cat(1.0, 0.0, 0.5 * math.pi, c1_mag=0.6))


# ---------------------------------------------------------------------------
# two-mode distributions


class TestTwoModeQ:
    @pytest.mark.parametrize("phi", [0.5 * math.pi, 0.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_total_mass_is_one(self, phi, t):
        amp = AmplifierSpec(1.0, 2.0, 8)
        dens = two_mode_q(two_mode(phi=phi, x1b=1.0), amp, t)
        assert dens.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_mode_state(self):
        from qtraj.core import ScenarioError
        with pytest.raises(ScenarioError):
            two_mode_q(cat(1.0), AMP, 0.0)

    def test_normalisation_by_quadrature(self):
        amp = AmplifierSpec(1.0, 1.0, 4)
        spec = two_mode(x1=1.0, r=0.5, x1b=2.0, r2=0.0)
        dens = two_mode_q(spec, amp, 0.0)
        spans = [(-12.0, 12.0), (-14.0, 14.0), (-14.0, 14.0), (-14.0, 14.0)]
        quad = quad_grid(dens, spans, n=80)
        assert quad == pytest.approx(1.0, abs=1e-6)

    def test_meter_marginal_matches_direct_integration(self):
        amp = AmplifierSpec(1.0, 1.0, 4)
        spec = two_mode(x1=1.0, r=0.5, x1b=2.0, r2=0.0, phi=0.5 * math.pi)
        dens = two_mode_q(spec, amp, 0.5)
        marg = dens.marginal("x_a", "p_a", "p_b")
        xa, wxa = gl_nodes(-14.0, 14.0, 90)
        pa, wpa = gl_nodes(-14.0, 14.0, 90)
        pb, wpb = gl_nodes(-14.0, 14.0, 90)
        wrest = np.einsum("i,j,k->ijk", wxa, wpa, wpb)
        for xb0 in (-3.0, 0.0, 1.2, 4.0):
            vals = dens.density(xa[:, None, None], pa[None, :, None], xb0,
                                pb[None, None, :])
            direct = float(np.sum(vals * wrest))
            assert marg.pdf(xb0) == pytest.approx(direct, abs=1e-6)

    def test_quarter_phase_meter_marginal_is_balanced_mixture(self):
        amp = AmplifierSpec(1.0, 2.0, 8)
        spec = two_mode(x1=1.0, r=1.5, x1b=4.0, r2=0.0)
        t = 2.0
        marg = two_mode_q(spec, amp, t).marginal("x_a", "p_a", "p_b")
        g = math.exp(t)
        sxb = 1.0 + g * g
        x = np.linspace(-60, 60, 241)
        expected = 0.5 * (
            np.exp(-0.5 * (x - 4.0 * g) ** 2 / sxb)
            + np.exp(-0.5 * (x + 4.0 * g) ** 2 / sxb)) / math.sqrt(
                2 * math.pi * sxb)
        assert np.max(np.abs(marg.pdf(x) - expected)) < 1e-12


class TestConditionalGivenMeter:
    @pytest.mark.parametrize("xb0", [-1.5, 0.0, 0.7])
    def test_matches_joint_over_meter_marginal(self, xb0):
        amp = AmplifierSpec(1.0, 1.0, 4)
        spec = two_mode(x1=1.0, r=0.5, x1b=2.0, r2=0.0)
        joint = two_mode_q(spec, amp, 0.0)
        meter = joint.marginal("x_a", "p_a", "p_b")
        cond = conditional_given_meter_x(spec, xb0)
        xa = np.linspace(-5, 5, 21)[:, None, None]
        pa = np.linspace(-6, 6, 21)[None, :, None]
        pb = np.linspace(-6, 6, 21)[None, None, :]
        direct = joint.density(xa, pa, xb0, pb) / meter.pdf(xb0)
        got = cond.density(xa, pa, pb)
        assert np.max(np.abs(got - direct)) < 1e-9 * float(direct.max())

    def test_matches_joint_at_later_time(self):
        amp = AmplifierSpec(1.0, 1.0, 4)
        spec = two_mode(x1=1.0, r=0.5, x1b=2.0, r2=0.0)
        t, xb0 = 0.8, 1.1
        joint = two_mode_q(spec, amp, t)
        meter = joint.marginal("x_a", "p_a", "p_b")
        cond = conditional_given_meter_x(spec, xb0, amp=amp, t=t)
        xa = np.linspace(-8, 8, 17)[:, None, None]
        pa = np.linspace(-6, 6, 17)[None, :, None]
        pb = np.linspace(-6, 6, 17)[None, None, :]
        direct = joint.density(xa, pa, xb0, pb) / meter.pdf(xb0)
        got = cond.density(xa, pa, pb)
        assert np.max(np.abs(got - direct)) < 1e-9 * float(direct.max())

    def test_is_normalised(self):
        cond = conditional_given_meter_x(two_mode(), 0.9)
        assert cond.total_mass() == pytest.approx(1.0, abs=1e-12)


class TestBranchFringeRatio:
    """2|c1 c2| / (|c1|^2 e^u + |c2|^2 e^-u), finite for every u."""

    @pytest.mark.parametrize("c1_sq", [0.5, 0.2, 0.9])
    def test_finite_and_exact_at_any_u(self, c1_sq):
        sup = SuperpositionSpec(ModeSpec(1.0), c1_mag=math.sqrt(c1_sq),
                                c2_mag=math.sqrt(1.0 - c1_sq), phase_phi=1.0)
        u = np.concatenate([np.linspace(-1e3, 1e3, 20001),
                            [-np.inf, np.inf, -745.0, 745.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _branch_fringe_ratio(sup, u)
        assert np.isfinite(got).all()
        assert np.all((got >= 0.0) & (got <= 1.0))
        np.testing.assert_array_equal(got[-4:-2], [0.0, 0.0])
        near = np.abs(u) <= 30.0
        w = 2.0 * math.sqrt(c1_sq * (1.0 - c1_sq))
        want = w / (c1_sq * np.exp(u[near]) + (1.0 - c1_sq) * np.exp(-u[near]))
        np.testing.assert_allclose(got[near], want, rtol=1e-14, atol=0.0)


class TestInferredState:
    def test_branch_mirror_symmetry(self):
        spec = two_mode(x1=1.0, r=1.5, x1b=2.0)
        plus = inferred_state_A_analytic(spec, +1)
        minus = inferred_state_A_analytic(spec, -1)
        x = np.linspace(-5, 5, 41)[:, None]
        p = np.linspace(-6, 6, 41)[None, :]
        assert np.max(np.abs(plus.density(x, p)
                             - minus.density(-x, -p))) < 1e-14

    def test_strong_meter_limit_is_pure_packet(self):
        spec = two_mode(x1=1.0, r=1.5, x1b=12.0, r2=0.0)
        dens = inferred_state_A_analytic(spec, +1)
        sxa = spec.mode_a.mode.sigma_x2
        spa = spec.mode_a.mode.sigma_p2
        x = np.linspace(-4, 6, 41)[:, None]
        p = np.linspace(-10, 10, 41)[None, :]
        packet = np.exp(-0.5 * (x - 1.0) ** 2 / sxa - 0.5 * p ** 2 / spa) \
            / (2 * math.pi * math.sqrt(sxa * spa))
        assert np.max(np.abs(dens.density(x, p) - packet)) < 1e-12

    def test_coherent_limit_printed_form(self):
        x1 = 2.0
        spec = two_mode(x1=x1, r=0.0, x1b=14.0, r2=0.0)
        dens = inferred_state_A_analytic(spec, +1)
        x = np.linspace(-3, 7, 41)[:, None]
        p = np.linspace(-7, 7, 41)[None, :]
        expected = np.exp(-0.25 * (x - x1) ** 2 - 0.25 * p ** 2) \
            / (4.0 * math.pi)
        assert np.max(np.abs(dens.density(x, p) - expected)) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(UnsupportedPhase):
            inferred_state_A_analytic(two_mode(phi=0.0))
        with pytest.raises(ValueError):
            inferred_state_A_analytic(two_mode(), branch=0)


class TestMeterConditionalVariances:
    # coherent system alpha0 = 0.1 (x1 = 0.2) with coherent meters of
    # amplitude beta0 (x1b = 2 beta0)
    FROZEN = [(0.3, 0.7586847834271699), (0.5, 0.6465453180412198),
              (0.7, 0.7347428448562392), (1.0, 0.9296101103375064)]

    @pytest.mark.parametrize("b0,expected", FROZEN)
    def test_frozen_coherent_values(self, b0, expected):
        spec = two_mode(x1=0.2, r=0.0, x1b=2.0 * b0, r2=0.0)
        mom = meter_conditional_variances(spec)
        assert mom.observed_var_pb == pytest.approx(expected, abs=1e-12)
        assert mom.observed_var_pb == pytest.approx(expected, abs=5e-5)

    def test_position_variance_is_squeezed_value(self):
        spec = two_mode(x1=1.0, r=1.5, x1b=4.0, r2=0.8)
        mom = meter_conditional_variances(spec)
        assert mom.observed_var_xb == pytest.approx(math.exp(-1.6), rel=1e-12)

    def test_zero_meter_amplitude(self):
        mom = meter_conditional_variances(two_mode(x1b=0.0, r2=0.0))
        assert mom.mean_pb == 0.0
        assert mom.observed_var_pb == pytest.approx(1.0, rel=1e-12)

    def test_product_below_one_for_coherent_meter(self):
        for b0 in (0.2, 0.5, 1.0, 1.5):
            spec = two_mode(x1=0.2, r=0.0, x1b=2.0 * b0, r2=0.0)
            mom = meter_conditional_variances(spec)
            prod = math.sqrt(mom.observed_var_xb * mom.observed_var_pb)
            assert prod < 1.0

    def test_unsupported_phase(self):
        with pytest.raises(UnsupportedPhase):
            meter_conditional_variances(two_mode(phi=0.0))

    def test_mean_uses_both_damping_factors(self):
        spec = two_mode(x1=1.0, r=1.5, x1b=1.5, r2=0.5)
        mom = meter_conditional_variances(spec)
        sxb = spec.mode_b.sigma_x2
        spb = spec.mode_b.sigma_p2
        x1b = spec.x1b
        sxa = spec.mode_a.mode.sigma_x2
        spa = spec.mode_a.mode.sigma_p2
        sys_damp = math.exp(-0.5 * spec.x1 ** 2 * (1.0 + spa / sxa) / sxa)
        meter_damp = math.exp(-0.5 * x1b ** 2 * (1.0 + spb / sxb) / sxb)
        assert mom.mean_pb == pytest.approx(
            -(x1b * spb / sxb) * sys_damp * meter_damp, rel=1e-14)


class TestMeterFringeDamping:
    """The system's damping of the meter fringe inside <p_b>_+."""

    @staticmethod
    def system_damping(spec):
        """<p_b>_+ divided by its meter-only factors."""
        sxb, spb = spec.mode_b.sigma_x2, spec.mode_b.sigma_p2
        x1b = spec.x1b
        meter = -(x1b * spb / sxb) * math.exp(
            -0.5 * x1b ** 2 * (1.0 + spb / sxb) / sxb)
        return meter_conditional_variances(spec).mean_pb / meter

    def test_coherent_special_case(self):
        spec = two_mode(x1=1.3, r=0.0, x1b=1.0, r2=0.0)
        assert self.system_damping(spec) == pytest.approx(
            math.exp(-0.5 * 1.3 ** 2), rel=1e-14)

    def test_normalized_form_matches_system_trace_quadrature(self):
        # Integrating the interference term of the meter-conditioned
        # distribution over the system coordinates yields the damping
        # applied to the meter fringe.
        spec = two_mode(x1=1.0, r=1.5, x1b=2.0, r2=0.0)
        sup = spec.mode_a
        sxa = sup.mode.sigma_x2
        spa = sup.mode.sigma_p2
        k_a = spec.x1 / sxa
        packet_damp = math.exp(-0.5 * spec.x1 ** 2 / sxa)
        xa, wxa = gl_nodes(-14.0, 14.0, 600)
        pa, wpa = gl_nodes(-30.0, 30.0, 800)
        gx = np.exp(-0.5 * xa ** 2 / sxa) / math.sqrt(2 * math.pi * sxa)
        gp = np.exp(-0.5 * pa ** 2 / spa) / math.sqrt(2 * math.pi * spa)
        # complex amplitude of the fringe after tracing out the system
        integral = packet_damp * float(np.sum(gx * wxa)) \
            * float(np.sum(gp * np.cos(k_a * pa) * wpa))
        assert integral == pytest.approx(self.system_damping(spec), abs=1e-9)


# ---------------------------------------------------------------------------
# properties over random family members

MEMBERS = dict(x1=st.floats(0.5, 6.0), r=st.floats(-1.0, 2.0),
               phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
               x1b=st.floats(0.5, 6.0), r2=st.floats(-1.0, 2.0),
               t_frac=st.floats(0.0, 1.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-8.0, 8.0), **MEMBERS)
def test_every_constructor_has_unit_mass(x, x1, r, phi, x1b, r2, t_frac):
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    pair = TwoModeSpec(spec, ModeSpec(x1b, r2))
    members = {
        "marginal_x": marginal_x(spec, AMP, t),
        "marginal_p": marginal_p(spec, AMP, t),
        "conditional_p_given_x": conditional_p_given_x(spec, AMP, t, x),
        "born_x": born_x(spec),
        "born_p": born_p(spec),
        # The Wigner closed form exists at phases 0 and pi/2.
        "fbc_from_wigner": fbc_from_wigner(cat(x1, r, 0.0), AMP),
        "fbc_from_wigner_quarter": fbc_from_wigner(
            cat(x1, r, 0.5 * math.pi), AMP),
        "two_mode_q": two_mode_q(pair, AMP, t),
        "conditional_given_meter_x": conditional_given_meter_x(pair, x),
    }
    for name, dens in members.items():
        assert dens.total_mass() == pytest.approx(1.0, abs=1e-12), name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(**MEMBERS)
def test_moments_equal_the_moments_of_the_marginal(x1, r, phi, x1b, r2,
                                                   t_frac):
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    pair = TwoModeSpec(spec, ModeSpec(x1b, r2))
    for dens in (q_single_mode(spec, AMP, t), two_mode_q(pair, AMP, t)):
        for axis in dens.axes:
            others = [a for a in dens.axes if a != axis]
            assert dens.moments(axis) == pytest.approx(
                dens.marginal(*others).moments(0), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(factor=st.floats(0.2, 5.0), flip=st.booleans(),
       axis=st.integers(0, 3), **MEMBERS)
def test_scaled_keeps_mass_and_rescales_moments(factor, flip, axis, x1, r,
                                                phi, x1b, r2, t_frac):
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    c = -factor if flip else factor
    for dens in (q_single_mode(spec, AMP, t),
                 two_mode_q(TwoModeSpec(spec, ModeSpec(x1b, r2)), AMP, t)):
        ax = dens.axes[axis % dens.ndim]
        out = dens.scaled(ax, c)
        assert out.total_mass() == pytest.approx(dens.total_mass(),
                                                 rel=1e-12)
        mean, var = dens.moments(ax)
        # var is m2/m0 - mean^2: rounding scales with mean^2, not var.
        tol = 1e-12 * (var + mean * mean)
        got_mean, got_var = out.moments(ax)
        assert got_mean == pytest.approx(mean / c, rel=1e-12, abs=1e-12)
        assert got_var == pytest.approx(var / c ** 2, abs=tol / c ** 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(added=st.floats(0.01, 10.0), **MEMBERS)
def test_convolved_keeps_mass_and_mean_and_adds_variance(added, x1, r, phi,
                                                         x1b, r2, t_frac):
    t = t_frac * AMP.t_final
    spec = cat(x1, r, phi)
    for dens in (q_single_mode(spec, AMP, t),
                 two_mode_q(TwoModeSpec(spec, ModeSpec(x1b, r2)), AMP, t)):
        # The fringe oscillates along the momenta only.
        for ax in (a for a in dens.axes if a.startswith("x")):
            out = dens.convolved(ax, added)
            assert out.total_mass() == pytest.approx(dens.total_mass(),
                                                     rel=1e-12)
            mean, var = dens.moments(ax)
            tol = 1e-12 * (var + added + mean * mean)
            got_mean, got_var = out.moments(ax)
            assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert got_var == pytest.approx(var + added, abs=tol)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_sd=st.floats(-6.0, 4.0), wave=st.floats(-1e3, 1e3),
       phase=st.floats(0.0, 2.0 * math.pi), visibility=st.floats(0.0, 1.0),
       centre=st.floats(-1e3, 1e3), other=st.floats(0.0, 2.0),
       shift=st.floats(-20.0, 20.0), ratio=st.floats(0.1, 10.0))
def test_bin_masses_and_cdf_agree_on_any_one_axis_member(
        log_sd, wave, phase, visibility, centre, other, shift, ratio):
    # N(c, sd^2)(1 + V cos(k u + theta)) plus a second packet: non-negative.
    sd = 10.0 ** log_sd
    dens = Marginal1D(
        gaussians=(GaussComponent(1.0, (centre,), (sd * sd,)),
                   GaussComponent(other, (centre + shift * sd,),
                                  ((ratio * sd) ** 2,))),
        fringe=FringeTerm(visibility, (centre,), (sd * sd,), (wave,), phase),
        axes=("u",))
    edges = np.linspace(*dens.support_hint(12.0), 257)
    masses, cdf = dens.bin_masses(edges), dens.cdf(edges)
    total = dens.total_mass()
    assert masses.sum() == pytest.approx(total, abs=1e-13)
    # Monotone, and the cumulative masses, up to rounding.
    assert np.all(np.diff(cdf) >= -1e-15 * total)
    assert np.all(masses >= -1e-15 * total)
    np.testing.assert_allclose(cdf[1:] - cdf[0], np.cumsum(masses), rtol=0,
                               atol=1e-13)


class TestFaddeeva:
    def test_matches_scipy_over_the_upper_half_plane(self):
        radius = np.logspace(-4.0, 3.0, 281)
        angle = np.linspace(0.0, math.pi, 361)
        z = (radius[:, None] * np.exp(1j * angle)).ravel()
        np.testing.assert_allclose(_faddeeva(z), wofz(z), rtol=1e-13, atol=0)
