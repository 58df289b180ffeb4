"""End-to-end acceptance runs at full scale.

One numbered test per acceptance criterion, in order; the verbose test
line is the pass/fail record.  Every random quantity uses the fixed
suite seed with a per-criterion offset chosen before any run was made.

Two assertions are expected to fail by design: the reconstruction
criterion compares the inferred system state against the idealised
projection target, while a meter of finite strength provably leaves a
small opposite-packet admixture (a few thousandths in the mean, many
standard errors at this scale).  Each is paired with a companion test
that holds the same data to the exact finite-strength expectation,
which must pass.
"""

import math
import time

import numpy as np
import pytest

from conftest import SUITE_SEED, gl_nodes, quad_grid, variance_batch_se
from qtraj.analytic import (
    _meter_branch_density,
    born_p,
    born_x,
    conditional_p_given_x,
    fbc_from_wigner,
    inferred_state_A_analytic,
    marginal_p,
    marginal_x,
    meter_conditional_variances,
    q_single_mode,
    variances_postselected_analytic,
)
from qtraj.core import (
    AmplifierSpec,
    ModeSpec,
    SuperpositionSpec,
    TwoModeSpec,
    sigma_p2_at,
    sigma_x2_at,
)
from qtraj.postselect import (
    _select_by_sign,
    _Tally,
    _tally_meter,
    build_loops,
    infer_state_A_numeric,
    meter_sign_agreement,
    observed_variances,
    uncertainty_product,
)
from qtraj.sampler import RngStream
from qtraj.sde_engine import (
    simulate_p_measurement,
    simulate_single_mode,
    simulate_two_mode,
)
from qtraj.stats import bin_z_scores, histogram, ks_statistic

HALF = 1.0 / math.sqrt(2.0)
MIN_EXPECTED = 25.0  # bins expecting fewer counts are pooled

_cache = {}


def cat(x1, r=0.0, phi=0.5 * math.pi):
    return SuperpositionSpec(ModeSpec(x1, r), c1_mag=HALF, c2_mag=HALF,
                             phase_phi=phi)


def scaled_finals(ens, which="x"):
    """Final-time record divided by the accumulated gain of its axis."""
    if which == "x":
        return ens.x_paths[:, -1] / abs(ens.amp.gain_tf)
    return ens.p_paths[:, -1] * abs(ens.amp.gain_tf)


def pooled_max_z(hist, target):
    """max|z| of binned samples, bins expecting few counts pooled first.

    A bin the target nearly empties holds a Poisson count, so a single
    count there reads many sigmas.  Bins expecting fewer than
    MIN_EXPECTED counts are pooled into one; if the pool still expects
    fewer, its excess is scaled by sqrt(expected) + 1, so that |z| < 4
    allows a count up to expected + 4 sqrt(expected) + 4.
    """
    masses = target.bin_masses(hist.edges)
    expected = hist.n * masses / masses.sum()
    big = expected >= MIN_EXPECTED
    obs = np.append(hist.counts[big], hist.counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    scale = np.sqrt(exp * (1.0 - exp / hist.n))
    if exp[-1] < MIN_EXPECTED:
        scale[-1] = math.sqrt(exp[-1]) + 1.0
    return float(np.max(np.abs(obs - exp) / scale))


def momentum_record(t_final, offset):
    """Rescaled momentum records of a strong momentum measurement."""
    key = ("p-record", t_final, offset)
    if key not in _cache:
        amp = AmplifierSpec(-1.0, t_final, 1)
        ens = simulate_p_measurement(cat(4.0, 0.0), amp, 1_000_000,
                                     SUITE_SEED + offset)
        _cache[key] = scaled_finals(ens, "p")
    return _cache[key]


def collapse_branch(r):
    """Positive-meter-sign branch of the standard reconstruction run."""
    key = ("collapse", r)
    if key not in _cache:
        offset = 108 if r else 118
        spec = TwoModeSpec(cat(1.0, r), ModeSpec(4.0, 0.0))
        amp = AmplifierSpec(1.0, 2.0, 1)
        n = 1_200_000
        plus = _Tally(n)  # selected and reduced block by block, as collapse
        for lo, keep, selected, _, _ in _select_by_sign(
                spec, amp, n, SUITE_SEED + offset, None):
            _tally_meter(plus, spec, selected.x_b0, lo, keep)
        _cache[key] = (spec, infer_state_A_numeric(plus, spec))
    return _cache[key]


def looped_plus(spec, amp, n, seed, mode="a"):
    """The plus branch's looped (x, p) moments of one mode, selected,
    looped and reduced block by block as ``postselect`` does: block j
    loops from stream (1 << 20) + j."""
    tally = _Tally(n)
    for j, (lo, keep, plus, _, _) in enumerate(
            _select_by_sign(spec, amp, n, seed, None)):
        loops = build_loops(plus, spec, RngStream(seed, (1 << 20) + j))
        tally.add((loops.x0, loops.p0) if mode == "a"
                  else (loops.x_b0, loops.p_b0), lo, keep)
    return tally


def branch_meter_expectations(spec, amp):
    """Exact E[w_plus] and E[sech] over initial meter positions of the
    positive-meter-sign branch, by quadrature over the joint law of the
    final and initial meter positions."""
    mode_b = spec.mode_b
    t_f = amp.t_final
    g_tf = math.exp(amp.gain_rate_g * t_f)
    s_tf = sigma_x2_at(mode_b, amp, t_f)
    sxb0 = mode_b.sigma_x2
    c = math.exp(-amp.gain_rate_g * t_f)
    resid = 1.0 - c * c
    center = g_tf * spec.x1b
    y, wy = gl_nodes(0.0, center + 12.0 * math.sqrt(s_tf), 1400)
    mix = 0.5 * (np.exp(-0.5 * (y - center) ** 2 / s_tf)
                 + np.exp(-0.5 * (y + center) ** 2 / s_tf)) \
        / math.sqrt(2 * math.pi * s_tf)
    x_hi = c * (center + 12.0 * math.sqrt(s_tf)) + 12.0
    x, wx = gl_nodes(-12.0, x_hi, 2400)
    kern = np.exp(-0.5 * (x[None, :] - c * y[:, None]) ** 2 / resid) \
        / math.sqrt(2 * math.pi * resid)
    u = x * spec.x1b / sxb0
    w_plus = 0.5 * (1.0 + np.tanh(u))
    sech = 2.0 * np.exp(-np.abs(u)) / (1.0 + np.exp(-2.0 * np.abs(u)))
    base = ((wy * mix) @ kern) * wx
    total = float(base.sum())
    assert total == pytest.approx(0.5, abs=1e-8)
    return float((base * w_plus).sum() / total), \
        float((base * sech).sum() / total)


class TestAcceptance:
    def test_criterion_01_position_record_obeys_projective_statistics(self):
        spec = cat(4.0, 0.0)
        amp = AmplifierSpec(1.0, 4.0, 1)
        start = time.perf_counter()
        ens = simulate_single_mode(spec, amp, 1_000_000, SUITE_SEED + 101)
        runtime = time.perf_counter() - start
        scaled = scaled_finals(ens, "x")
        target = born_x(spec)
        lo, hi = target.support_hint(4.0)
        hist = histogram(scaled, np.linspace(lo, hi, 101))
        max_z = float(np.max(np.abs(bin_z_scores(hist, target))))
        ks = ks_statistic(scaled, target)
        print(f"\ncriterion 1: max|z|={max_z:.2f} (<4), ks={ks:.5f} "
              f"(<0.0017), runtime={runtime:.1f}s (<60)")
        assert max_z < 4.0
        assert ks < 0.0017
        assert runtime < 60.0

    def test_criterion_02_momentum_record_obeys_projective_statistics(self):
        scaled = momentum_record(4.0, 102)
        hist = histogram(scaled, np.linspace(-8.0, 8.0, 41))
        max_z = pooled_max_z(hist, born_p(cat(4.0)))
        print(f"\ncriterion 2: max|z|={max_z:.2f} over 0.4-wide bins "
              f"including the interference nulls (<4)")
        assert max_z < 4.0

    def test_criterion_02a_momentum_record_matches_exact_finite_gain_law(
            self):
        amp = AmplifierSpec(-1.0, 4.0, 1)
        exact = marginal_p(cat(4.0), amp, amp.t_final).scaled(
            "p", 1.0 / amp.gain_tf)
        hist = histogram(momentum_record(4.0, 102),
                         np.linspace(-8.0, 8.0, 41))
        max_z = pooled_max_z(hist, exact)
        print(f"\ncriterion 2 companion A: max|z|={max_z:.2f} against the "
              f"finite-gain law itself (<4)")
        assert max_z < 4.0

    def test_criterion_02b_longer_amplification_closes_the_gap(self):
        hist = histogram(momentum_record(6.0, 112),
                         np.linspace(-8.0, 8.0, 41))
        max_z = pooled_max_z(hist, born_p(cat(4.0)))
        print(f"\ncriterion 2 companion B: max|z|={max_z:.2f} against the "
              f"projective limit after six gain times (<4)")
        assert max_z < 4.0

    @pytest.mark.parametrize("phi,peak,offset", [
        (0.0, 0.24325386043978303, 103),
        (0.5 * math.pi, 0.21969564473386122, 113),
    ])
    def test_criterion_03_interference_peak_heights(self, phi, peak, offset):
        spec = cat(1.0, 0.0, phi)
        amp = AmplifierSpec(1.0, 2.0, 1)
        n = 1_000_000
        ens = simulate_single_mode(spec, amp, n, SUITE_SEED + offset)
        hist = histogram(ens.x_paths[:, 0], np.array([-0.05, 0.05]))
        got = float(hist.density[0]) * hist.n / n
        print(f"\ncriterion 3 (phase {phi:.3f}): initial-time density at "
              f"the origin {got:.5f} vs {peak:.5f} (+-0.005)")
        assert got == pytest.approx(peak, abs=0.005)

    @pytest.mark.parametrize("label,spec,offset", [
        ("squeezed", ModeSpec(3.0, 3.0), 104),
        ("coherent", ModeSpec(2.0, 0.0), 114),
        ("superposed", cat(3.0, 0.0), 124),
    ])
    def test_criterion_04_backward_initial_law(self, label, spec, offset):
        amp = AmplifierSpec(1.0, 3.0, 1)
        ens = simulate_single_mode(spec, amp, 100_000, SUITE_SEED + offset)
        d = ks_statistic(ens.x_paths[:, 0], marginal_x(spec, amp, 0.0))
        print(f"\ncriterion 4 ({label}): ks={d:.5f} (<0.00616)")
        assert d < 0.006164779987778185

    def test_criterion_05_conjugate_variance_decay(self):
        spec = cat(6.0, 2.0)
        amp = AmplifierSpec(1.0, 3.0, 10)
        ens = simulate_single_mode(spec, amp, 200_000, SUITE_SEED + 105)
        worst = 0.0
        for j, t in enumerate(ens.amp.grid):
            expected = sigma_p2_at(spec.mode, amp, t)
            got = float(np.var(ens.p_paths[:, j], ddof=1))
            se = variance_batch_se(ens.p_paths[:, j])
            worst = max(worst, abs(got - expected) / se)
            assert got == pytest.approx(expected, abs=4 * se)
        variances = np.var(ens.p_paths, axis=0, ddof=1)
        assert np.all(np.diff(variances) < 0)
        print(f"\ncriterion 5: conjugate variance follows "
              f"1+(sigma_p^2(0)-1)e^(-2gt) at every grid time "
              f"(worst deviation {worst:.2f} s.e.); final "
              f"{variances[-1]:.4f} vs "
              f"{sigma_p2_at(spec.mode, amp, amp.t_final):.4f}")

    def test_criterion_06_conditional_variance_sweep(self):
        amp = AmplifierSpec(1.0, 2.0, 1)
        n = 12_000_000
        rows = {}
        for i, r in enumerate((0.0, 1.0, 2.0)):
            for j, x1 in enumerate((0.5, 1.0, 2.0, 4.0, 6.0)):
                spec = cat(x1, r)
                seed = SUITE_SEED + 200 + 10 * i + j
                prod = uncertainty_product(looped_plus(spec, amp, n, seed))
                expected = variances_postselected_analytic(spec)
                rows[(r, x1)] = prod
                dev = abs(prod.var_p.variance - expected.observed_var_p) \
                    / prod.var_p.std_error_variance
                print(f"criterion 6 r={r} x1={x1}: conditional momentum "
                      f"variance {prod.var_p.variance:.5f} vs "
                      f"{expected.observed_var_p:.5f} ({dev:.2f} s.e.), "
                      f"product {prod.epsilon:.4f}+-{prod.std_error:.4f}")
        for (r, x1), prod in rows.items():
            expected = variances_postselected_analytic(cat(x1, r))
            assert prod.var_p.variance == pytest.approx(
                expected.observed_var_p,
                abs=4 * prod.var_p.std_error_variance), (r, x1)
            assert not prod.negative_variance, (r, x1)
            # nothing sits significantly above the unit bound anywhere
            assert prod.epsilon - 4 * prod.std_error < 1.0, (r, x1)
        # sub-unit products where interference survives the selection,
        # many standard errors below the bound
        for r, x1 in ((0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (1.0, 0.5)):
            prod = rows[(r, x1)]
            assert prod.epsilon + 4 * prod.std_error < 1.0, (r, x1)
        # and growing back toward the bound as the packets separate
        for r in (0.0, 1.0):
            assert rows[(r, 6.0)].epsilon > rows[(r, 0.5)].epsilon, r

    @pytest.mark.parametrize("x1b,lo,hi,offset", [
        (8.0, 0.999, 1.0, 107),
        (0.2, 0.4, 0.9, 117),
    ])
    def test_criterion_07_meter_sign_agreement(self, x1b, lo, hi, offset):
        spec = TwoModeSpec(cat(1.0, 1.5), ModeSpec(x1b, 0.0))
        amp = AmplifierSpec(1.0, 2.0, 1)
        ens = simulate_two_mode(spec, amp, 200_000, SUITE_SEED + offset)
        agree = meter_sign_agreement(ens)
        print(f"\ncriterion 7 (meter separation {x1b}): sign agreement "
              f"{agree:.4f}, required within ({lo}, {hi})")
        assert lo <= agree <= hi

    @pytest.mark.parametrize("r", [1.5, 0.0])
    def test_criterion_08_reconstruction_matches_projection_target(self, r):
        spec, inferred = collapse_branch(r)
        target = inferred_state_A_analytic(spec, +1)
        tmean, tvar = target.moments("x")
        mx = inferred.moments_x
        zm = abs(mx.mean - tmean) / mx.std_error_mean
        zv = abs(mx.variance - tvar) / mx.std_error_variance
        print(f"\ncriterion 8 (system squeezing {r}): inferred mean "
              f"{mx.mean:.5f} vs target {tmean:.5f} ({zm:.1f} s.e.), "
              f"variance {mx.variance:.5f} vs {tvar:.5f} ({zv:.1f} s.e.) "
              f"-- a finite meter provably leaves this residual")
        assert mx.mean == pytest.approx(tmean, abs=4 * mx.std_error_mean)
        assert mx.variance == pytest.approx(tvar,
                                            abs=4 * mx.std_error_variance)

    @pytest.mark.parametrize("r", [1.5, 0.0])
    def test_criterion_08a_reconstruction_matches_exact_expectation(self, r):
        spec, inferred = collapse_branch(r)
        e_w, e_s = branch_meter_expectations(spec, AmplifierSpec(1.0, 2.0, 1))
        exact = _meter_branch_density(spec, e_w, e_s).marginal("p_b")
        emean, evar = exact.moments("x_a")
        mx = inferred.moments_x
        zm = abs(mx.mean - emean) / mx.std_error_mean
        zv = abs(mx.variance - evar) / mx.std_error_variance
        print(f"\ncriterion 8 companion (system squeezing {r}): inferred "
              f"mean {mx.mean:.5f} vs exact finite-meter {emean:.5f} "
              f"({zm:.1f} s.e.), variance {mx.variance:.5f} vs "
              f"{evar:.5f} ({zv:.1f} s.e.)")
        assert mx.mean == pytest.approx(emean, abs=5 * mx.std_error_mean)
        assert mx.variance == pytest.approx(evar,
                                            abs=5 * mx.std_error_variance)
        assert inferred.w_plus_bar == pytest.approx(e_w, abs=0.002)
        assert inferred.sech_bar == pytest.approx(e_s, abs=0.002)

    def test_criterion_09_meter_variance_witness(self):
        amp = AmplifierSpec(1.0, 2.0, 1)
        n = 1_200_000
        frozen = {0.6: 0.7586847834271699, 1.0: 0.6465453180412198,
                  1.4: 0.7347428448562392, 2.0: 0.9296101103375064}
        for i, (x1b, target) in enumerate(sorted(frozen.items())):
            spec = TwoModeSpec(cat(0.2, 0.0), ModeSpec(x1b, 0.0))
            seed = SUITE_SEED + 300 + i
            loops = looped_plus(spec, amp, n, seed, mode="b")
            _, est_pb = observed_variances(loops)
            prod = uncertainty_product(loops)
            closed = meter_conditional_variances(spec)
            dev = abs(est_pb.variance - target) / est_pb.std_error_variance
            print(f"criterion 9 meter separation {x1b}: conditional meter "
                  f"momentum variance {est_pb.variance:.5f} vs "
                  f"{target:.5f} ({dev:.2f} s.e.), product "
                  f"{prod.epsilon:.4f}+-{prod.std_error:.4f}")
            assert closed.observed_var_pb == pytest.approx(target, abs=1e-12)
            assert est_pb.variance == pytest.approx(
                target, abs=4 * est_pb.std_error_variance)
            assert prod.epsilon + 4 * prod.std_error < 1.0

    def test_criterion_10_structural_properties(self):
        spec = cat(1.0, 0.0, 0.0)
        amp = AmplifierSpec(1.0, 2.0, 4)
        # normalisation and positivity of the phase-space distribution
        dens = q_single_mode(spec, amp, 1.0)
        assert quad_grid(dens, [(-30.0, 30.0), (-12.0, 12.0)], n=320) \
            == pytest.approx(1.0, abs=2e-6)
        x = np.linspace(-12, 12, 121)[:, None]
        p = np.linspace(-10, 10, 121)[None, :]
        assert float(dens.density(x, p).min()) >= -1e-12
        # the conditional factorises the joint
        mx = marginal_x(spec, amp, 1.0)
        for x0 in (-0.7, 0.4):
            cond = conditional_p_given_x(spec, amp, 1.0, x0)
            pv = np.linspace(-6, 6, 61)
            assert np.max(np.abs(dens.density(x0, pv)
                                 - mx.pdf(x0) * cond.pdf(pv))) < 1e-9
        # scaling and smoothing the static phase-space density
        # reproduces the amplified marginal exactly
        built = fbc_from_wigner(spec, amp)
        direct = marginal_x(spec, amp, amp.t_final)
        grid = np.linspace(*direct.support_hint(8.0), 241)
        assert np.max(np.abs(built.pdf(grid) - direct.pdf(grid))) < 1e-9
        # projective branch weights are the amplitude squares
        from scipy.integrate import quad
        lop = SuperpositionSpec(ModeSpec(3.0, 4.0), c1_mag=0.6, c2_mag=0.8,
                                phase_phi=0.5 * math.pi)
        mass, _ = quad(born_x(lop).pdf, 0.0, 12.0, points=[3.0], limit=200)
        assert mass == pytest.approx(0.36, abs=1e-6)
        # step-size invariance of the transported variance
        for steps in (4, 8):
            a = AmplifierSpec(1.0, 2.0, steps)
            halved = simulate_single_mode(ModeSpec(1.0, 1.0), a, 30000,
                                          SUITE_SEED + 110)
            col = steps // 2
            got = float(np.var(halved.x_paths[:, col], ddof=1))
            se = variance_batch_se(halved.x_paths[:, col])
            assert got == pytest.approx(
                sigma_x2_at(ModeSpec(1.0, 1.0), a, 1.0), abs=4 * se)
        # exact reproducibility across thread counts
        one = simulate_single_mode(spec, amp, 20000, SUITE_SEED + 110,
                                   threads=1)
        two = simulate_single_mode(spec, amp, 20000, SUITE_SEED + 110,
                                   threads=2)
        np.testing.assert_array_equal(one.x_paths, two.x_paths)
        np.testing.assert_array_equal(one.p_paths, two.p_paths)
        print("\ncriterion 10: normalisation, positivity, conditional "
              "factorisation, static-scaling identity, branch weights, "
              "step-size invariance and thread determinism all hold")
