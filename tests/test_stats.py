"""Histogramming and goodness-of-fit metrics.

Mechanics are pinned by tiny hand-counted cases; the statistical
behaviour is checked with large seeded Gaussian draws, both calibrated
(sampling the stated target) and miscalibrated (sampling a shifted
target) to confirm the metrics actually detect mismatches.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import SUITE_SEED
from qtraj import stats
from qtraj.analytic import (FringeTerm, GaussComponent, Marginal1D, born_p,
                            born_x, marginal_x)
from qtraj.core import AmplifierSpec, ModeSpec, SuperpositionSpec
from qtraj.sampler import sample_fringe_density
from qtraj.stats import (
    BadEdges,
    DensityComparison,
    Histogram,
    bin_z_scores,
    compare_density,
    histogram,
    ks_critical,
    ks_statistic,
)

AMP = AmplifierSpec(1.0, 1.0, 4)


def centred_target(mean=0.0):
    """Gaussian reference density with variance 2 centred on `mean`."""
    return marginal_x(ModeSpec(mean, 0.0), AMP, 0.0)


def rng(offset):
    return np.random.Generator(np.random.Philox(SUITE_SEED + offset))


def cat(x1, phi):
    """An equal-weight superposition of unsqueezed packets at +-x1."""
    half = math.sqrt(0.5)
    return SuperpositionSpec(ModeSpec(x1), half, half, phi)


class TestHistogram:
    def test_hand_counted_case(self):
        h = histogram([-0.5, 0.1, 0.2, 0.35, 0.9, 1.7], [0.0, 0.5, 1.0])
        assert isinstance(h, Histogram)
        assert h.counts.tolist() == [3, 1]
        assert h.n == 4
        assert h.n_below == 1
        assert h.n_above == 1
        np.testing.assert_allclose(h.centers, [0.25, 0.75])
        np.testing.assert_allclose(h.widths, [0.5, 0.5])
        np.testing.assert_allclose(h.density, [1.5, 0.5])

    def test_boundary_samples_are_in_range(self):
        h = histogram([0.0, 1.0], [0.0, 0.5, 1.0])
        assert h.counts.tolist() == [1, 1]
        assert h.n_below == 0
        assert h.n_above == 0

    def test_density_integrates_to_one_in_range(self):
        samples = rng(1).normal(0.0, math.sqrt(2.0), 100000)
        h = histogram(samples, np.linspace(-8, 8, 51))
        assert float(np.sum(h.density * h.widths)) == pytest.approx(
            1.0, abs=1e-12)
        assert h.n + h.n_below + h.n_above == len(samples)

    def test_fully_out_of_range_yields_zero_density(self):
        h = histogram([5.0, -3.0], [0.0, 1.0])
        assert h.n == 0
        assert h.n_above == 1
        assert h.n_below == 1
        np.testing.assert_array_equal(h.density, [0.0])

    @pytest.mark.parametrize("edges", [
        [1.0, 0.0], [0.5], [[0.0, 1.0], [2.0, 3.0]], [0.0, 0.0, 1.0],
    ])
    def test_bad_edges(self, edges):
        with pytest.raises(BadEdges):
            histogram([0.5], edges)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            histogram([], [0.0, 1.0])

    def test_sum_bins_both_sample_sets(self):
        a, b = rng(2).normal(0.0, 1.0, 1000), rng(3).normal(0.5, 2.0, 700)
        edges = np.linspace(-3.0, 3.0, 13)
        got, want = histogram(a, edges) + histogram(b, edges), histogram(
            np.concatenate([a, b]), edges)
        for field in ("edges", "counts", "density"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))
        assert (got.n, got.n_below, got.n_above) \
            == (want.n, want.n_below, want.n_above)

    def test_nan_samples_are_refused_by_count(self):
        # Without the refusal a NaN lands in no count at all.
        samples = [0.1, math.nan, 0.2, math.inf, -math.inf, math.nan]
        with pytest.raises(ValueError, match="2 NaN"):
            histogram(samples, np.linspace(-3.0, 3.0, 7))


class TestBinZScores:
    def test_calibrated_samples_have_small_scores(self):
        target = centred_target()
        samples = rng(2).normal(0.0, math.sqrt(2.0), 200000)
        h = histogram(samples, np.linspace(*target.support_hint(4.0), 41))
        z = bin_z_scores(h, target)
        assert z.shape == (40,)
        assert np.all(np.isfinite(z))
        assert float(np.max(np.abs(z))) < 5.0
        assert float(np.mean(np.abs(z))) < 1.5

    def test_shifted_target_is_detected(self):
        samples = rng(2).normal(0.0, math.sqrt(2.0), 200000)
        target = centred_target(mean=0.5)
        h = histogram(samples, np.linspace(-6, 6, 41))
        z = bin_z_scores(h, target)
        assert float(np.max(np.abs(z))) > 10.0

    def test_scores_are_signed(self):
        samples = rng(3).normal(0.0, math.sqrt(2.0), 200000)
        target = centred_target(mean=0.5)
        h = histogram(samples, np.linspace(-6, 6, 13))
        z = bin_z_scores(h, target)
        # samples sit left of the proposed target: deficit on the right
        assert z[1] > 0
        assert z[-2] < 0

    def test_empty_target_bins_stay_finite(self):
        samples = rng(4).normal(0.0, math.sqrt(2.0), 10000)
        h = histogram(samples, np.linspace(-30, 30, 61))
        z = bin_z_scores(h, centred_target())
        assert np.all(np.isfinite(z))

    def test_no_in_range_sample_is_refused(self):
        # A NaN z-score column would otherwise follow from 0 / 0.
        h = histogram([-9.0, 9.5], np.linspace(-6, 6, 13))
        for compare in (bin_z_scores, compare_density):
            with pytest.raises(ValueError, match="histogram range"):
                compare(h, centred_target())
        # So would a target with no mass in range.
        h = histogram([0.5, 1.5], np.linspace(-6, 6, 13))
        for compare in (bin_z_scores, compare_density):
            with pytest.raises(ValueError, match="no mass inside"):
                compare(h, centred_target(1000.0))


class TestCompareDensity:
    def test_returns_both_metrics(self, monkeypatch):
        target = centred_target()
        samples = rng(5).normal(0.0, math.sqrt(2.0), 200000)
        h = histogram(samples, np.linspace(-6, 6, 41))
        calls, masses = [], Marginal1D.bin_masses
        monkeypatch.setattr(Marginal1D, "bin_masses", lambda self, *a, **k:
                            calls.append(a) or masses(self, *a, **k))
        comp = compare_density(h, target)
        assert len(calls) == 1  # both metrics from one integration
        assert isinstance(comp, DensityComparison)
        assert comp.max_z == pytest.approx(
            float(np.max(np.abs(bin_z_scores(h, target)))))
        assert 0.0 <= comp.ks < 0.01

    def test_detects_shift(self):
        samples = rng(5).normal(0.0, math.sqrt(2.0), 200000)
        comp = compare_density(histogram(samples, np.linspace(-6, 6, 41)),
                               centred_target(mean=0.5))
        assert comp.max_z > 10.0
        assert comp.ks > 0.05


class TestKsStatistic:
    def test_single_sample_at_symmetry_point(self):
        assert ks_statistic([0.0], centred_target()) == pytest.approx(
            0.5, abs=1e-14)

    def test_single_sample_off_centre(self):
        phi = 0.5 * (1.0 + math.erf(0.5))
        assert ks_statistic([1.0], centred_target()) == pytest.approx(
            phi, abs=1e-6)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            ks_statistic([], centred_target())

    def test_calibrated_draw_passes_critical_value(self):
        samples = rng(6).normal(0.0, math.sqrt(2.0), 100000)
        d = ks_statistic(samples, centred_target())
        assert d < ks_critical(100000, alpha=0.001)

    def test_shifted_draw_fails_critical_value(self):
        samples = rng(6).normal(0.05, math.sqrt(2.0), 100000)
        d = ks_statistic(samples, centred_target())
        assert d > ks_critical(100000, alpha=0.001)

    @staticmethod
    def exact(samples, target):
        """The statistic with the exact CDF at every sample."""
        s = np.sort(samples)
        n = len(s)
        cdf = target.cdf(s) / target.total_mass()
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))

    def test_a_fringe_finer_than_the_table_keeps_the_stated_bound(self):
        # The table's cells are 24 sigma / 20,000 = 1.2e-3 wide here, so a
        # fringe of wave number 2e4 turns 24 rad across each (the 8-point
        # rule used to refuse it); at n = 1000 the central cells' bound
        # exceeds ks_critical(n) / 100, and they are evaluated exactly.
        target = Marginal1D(
            gaussians=(GaussComponent(1.0, (0.0,), (1.0,)),),
            fringe=FringeTerm(0.5, (0.0,), (1.0,), (2e4,), 0.0), axes=("x",))
        for n in (1, 1000):
            samples = rng(11).normal(0.0, 1.0, n)
            assert ks_statistic(samples, target) == pytest.approx(
                self.exact(samples, target), abs=ks_critical(n) / 100)

    def test_equals_exact_evaluation_at_high_squeezing(self):
        # born_x at state.r = 12: packets e^-12 wide, each inside one table
        # cell, against records e^-6 wide (the finite gain of fig_born_x).
        # Interpolated, those cells misread the CDF by far more than the
        # critical value; they are evaluated exactly.
        target = born_x(SuperpositionSpec(ModeSpec(4.0, 12.0), math.sqrt(0.5),
                                          math.sqrt(0.5), 0.0))
        n = 20000
        draw = rng(12)
        samples = (np.where(draw.random(n) < 0.5, -4.0, 4.0)
                   + math.exp(-6.0) * draw.standard_normal(n))
        exact = self.exact(samples, target)
        assert ks_statistic(samples, target) == pytest.approx(
            exact, abs=ks_critical(n) / 100)
        grid, cdfv = target._cdf_table()
        assert np.max(np.abs(np.interp(samples, grid, cdfv)
                             - target.cdf(samples))) > 10 * ks_critical(n)


class TestKsBlocks:
    """The statistic is taken over blocks of the CDF, with the bits of the
    whole-array formula and without its full-size temporaries."""

    @staticmethod
    def unblocked(samples, target):
        s = np.sort(samples)
        n = len(s)
        grid, cdfv = target._cdf_table()  # no cell of these needs more
        cdf = np.interp(s, grid, cdfv, left=0.0, right=cdfv[-1]) \
            / target.total_mass()
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))

    B = stats._KS_BLOCK

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_equals_the_unblocked_formula(self, n):
        samples = rng(7).normal(0.02, math.sqrt(2.0), n)
        assert ks_statistic(samples, centred_target()) \
            == self.unblocked(samples, centred_target())

    def test_a_nan_sample_is_not_dropped_by_the_blocks(self):
        # NaN sorts last, into the last block; the statistic stays NaN.
        samples = rng(7).normal(0.0, math.sqrt(2.0), self.B + 17)
        samples[-1] = math.nan
        assert math.isnan(ks_statistic(samples, centred_target()))

    @pytest.mark.parametrize("at", [0, B, -1])
    def test_a_nan_in_an_ascending_sample_gives_nan(self, at):
        samples = np.sort(rng(7).normal(0.0, math.sqrt(2.0), self.B + 17))
        samples[at] = math.nan
        assert math.isnan(ks_statistic(samples, centred_target()))

    def test_an_ascending_sample_gives_the_bits_of_a_shuffled_one(self):
        samples = rng(9).normal(0.02, math.sqrt(2.0), 3 * self.B + 17)
        assert ks_statistic(np.sort(samples), centred_target()) \
            == ks_statistic(samples, centred_target())

    @pytest.mark.parametrize("ascending", [False, True])
    def test_leaves_the_callers_array_as_it_was(self, ascending):
        samples = rng(9).normal(0.0, math.sqrt(2.0), self.B + 17)
        if ascending:
            samples.sort()
        kept = samples.copy()
        ks_statistic(samples, centred_target())
        assert samples.tobytes() == kept.tobytes()

    @staticmethod
    def ks_peak(samples):
        ks_statistic(samples[:10], centred_target())  # warm any caches
        tracemalloc.start()
        try:
            ks_statistic(samples, centred_target())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holds_no_full_size_temporaries(self):
        samples = rng(8).normal(0.0, math.sqrt(2.0), 1_000_000)
        # The sorted copy is 8 MB; the whole-array formula took about 40.
        assert self.ks_peak(samples) < 2.5 * samples.nbytes

    def test_reads_an_ascending_sample_without_a_copy(self):
        samples = np.sort(rng(8).normal(0.0, math.sqrt(2.0), 1_000_000))
        assert self.ks_peak(samples) < 0.5 * samples.nbytes

    TABLES = {
        "born_x": lambda: born_x(cat(2.0, 0.5 * math.pi)),
        "born_p": lambda: born_p(cat(2.0, 0.5 * math.pi)),
        "odd_cat": lambda: marginal_x(cat(0.1, math.pi), AMP, 0.0),
        "crest": lambda: Marginal1D(
            (GaussComponent(1.0, (0.0,), (1.0,)),),
            FringeTerm(1.0, (0.0,), (1.0,), (0.3,), math.pi), axes=("v",)),
    }

    def test_divides_each_interpolated_value_by_the_mass(self):
        # The crest's mass is not 1, so dividing the table instead of
        # each interpolated value would move the last bit of about a
        # third of the values; a sample of the crest itself keeps the
        # statistic small enough to show it in most of the five draws.
        target = self.TABLES["crest"]()
        assert target.total_mass() != 1.0
        draws = sample_fringe_density(target, rng(10), 5 * (self.B + 17))
        for samples in draws.reshape(5, -1):
            assert ks_statistic(samples, target) \
                == self.unblocked(samples, target)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_cdf_table_has_the_bits_of_the_unblocked_masses(self, name):
        # The table's nodes are the exact CDF, taken at once.
        target = self.TABLES[name]()
        grid, cdfv = target._cdf_table()
        want = np.linspace(*target.support_hint(12.0), 20001)
        assert grid.tobytes() == want.tobytes()
        assert cdfv.tobytes() == target.cdf(want).tobytes()


class TestKsCritical:
    def test_frozen_reference_value(self):
        assert ks_critical(100000, alpha=0.001) == pytest.approx(
            0.006164779987778185, abs=1e-15)

    def test_matches_formula(self):
        n, alpha = 317, 0.05
        expected = math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
        assert ks_critical(n, alpha) == pytest.approx(expected, rel=1e-14)

    def test_shrinks_with_sample_size(self):
        assert ks_critical(400) == pytest.approx(ks_critical(100) / 2.0,
                                                 rel=1e-14)
