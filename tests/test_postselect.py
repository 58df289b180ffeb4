"""Sign selection, loop resampling, and branch statistics.

Mechanics are pinned on hand-built ensembles; the resampling laws are
checked statistically against the closed-form conditionals, using the
fact that the union of both branches restores the unconditioned
marginals.
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import SUITE_SEED, Weighted, gathered_selection, quad_grid
from qtraj.analytic import (
    UnsupportedPhase,
    conditional_given_meter_x,
    inferred_state_A_analytic,
    marginal_p,
    marginal_x,
    meter_condition_weights,
    two_mode_q,
)
from qtraj.core import (
    AmplifierSpec,
    ModeSpec,
    ScenarioError,
    SuperpositionSpec,
    TwoModeSpec,
    validate_scenario,
)
from qtraj.postselect import (
    EmptyBranch,
    EmptyEnsemble,
    MomentEstimate,
    PostselectedEnsemble,
    TooFewSamples,
    _BLOCK,
    _draw_conditional_triple,
    _select_by_sign,
    _Tally,
    bin_by_sign,
    build_loops,
    infer_state_A_numeric,
    meter_sign_agreement,
    observed_variances,
    uncertainty_product,
)
from qtraj.sampler import RngStream
from qtraj.sde_engine import (
    CHUNK,
    TrajectoryEnsemble,
    _simulate,
    iter_chunks,
    simulate_single_mode,
    simulate_two_mode,
)
from qtraj.stats import ks_critical, ks_statistic

HALF = 1.0 / math.sqrt(2.0)


def cat(x1, r=0.0, phi=0.5 * math.pi):
    return SuperpositionSpec(ModeSpec(x1, r), c1_mag=HALF, c2_mag=HALF,
                             phase_phi=phi)


def two_spec(x1=1.0, r=1.5, x1b=4.0, r2=0.0, phi=0.5 * math.pi):
    return TwoModeSpec(cat(x1, r, phi), ModeSpec(x1b, r2))


def synthetic_ensemble(finals, x_b_finals=None):
    """Tiny ensemble whose column 0 tags rows and whose last column is given."""
    spec = cat(1.0) if x_b_finals is None else two_spec()
    amp = AmplifierSpec(1.0, 1.0, 1)
    validate_scenario(spec, amp)
    n = len(finals)
    tags = np.arange(n, dtype=float)
    x = np.column_stack([tags, np.asarray(finals, dtype=float)])
    p = np.column_stack([10.0 + tags, np.zeros(n)])
    if x_b_finals is None:
        return TrajectoryEnsemble(amp=amp, x_paths=x, p_paths=p)
    xb = np.column_stack([20.0 + tags, np.asarray(x_b_finals, dtype=float)])
    pb = np.column_stack([30.0 + tags, np.zeros(n)])
    return TrajectoryEnsemble(amp=amp, x_paths=x, p_paths=p,
                              x_b_paths=xb, p_b_paths=pb)


def repeated(selected, k):
    """The branch with each trajectory repeated k times: k loops an anchor."""
    return PostselectedEnsemble(
        selected.branch, *(None if a is None else np.repeat(a, k)
                           for a in (selected.x0, selected.p0,
                                     selected.x_b0, selected.p_b0)))


@pytest.fixture(scope="module")
def single_run():
    spec = cat(1.5, 1.0)
    amp = AmplifierSpec(1.0, 2.0, 4)
    ens = simulate_single_mode(spec, amp, 30000, SUITE_SEED + 70)
    return spec, amp, ens


@pytest.fixture(scope="module")
def two_mode_run():
    spec = two_spec()
    amp = AmplifierSpec(1.0, 2.0, 4)
    ens = simulate_two_mode(spec, amp, 30000, SUITE_SEED + 71)
    return spec, amp, ens


class TestBinBySign:
    def test_hand_built_split(self):
        ens = synthetic_ensemble([2.0, -1.0, 0.0, 3.0, -0.5])
        plus, minus = bin_by_sign(ens)
        assert plus.branch == +1 and minus.branch == -1
        np.testing.assert_array_equal(plus.x0, [0.0, 2.0, 3.0])
        np.testing.assert_array_equal(minus.x0, [1.0, 4.0])
        np.testing.assert_array_equal(plus.p0, [10.0, 12.0, 13.0])
        assert plus.x_b0 is None

    def test_tie_goes_to_plus(self):
        plus, minus = bin_by_sign(synthetic_ensemble([0.0, -0.0]))
        # -0.0 >= 0.0 is true, so both zeros land in the plus branch
        assert plus.n == 2
        assert minus.n == 0

    def test_meter_mode_uses_meter_finals(self):
        ens = synthetic_ensemble([1.0, 1.0, -1.0], [-2.0, 5.0, 1.0])
        plus, minus = bin_by_sign(ens, mode="b")
        np.testing.assert_array_equal(plus.x0, [1.0, 2.0])
        np.testing.assert_array_equal(plus.x_b0, [21.0, 22.0])
        np.testing.assert_array_equal(minus.x_b0, [20.0])
        assert plus.x_b0 is not None

    def test_meter_mode_needs_meter(self):
        with pytest.raises(ScenarioError):
            bin_by_sign(synthetic_ensemble([1.0]), mode="b")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bin_by_sign(synthetic_ensemble([1.0]), mode="c")

    def test_empty_ensemble(self):
        ens = synthetic_ensemble([1.0])
        empty = TrajectoryEnsemble(amp=ens.amp,
                                   x_paths=ens.x_paths[:0],
                                   p_paths=ens.p_paths[:0])
        with pytest.raises(EmptyEnsemble):
            bin_by_sign(empty)

    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_blockwise_index_equals_mask_selection(self, mode):
        # A ragged count: no power-of-two block size divides it.
        n = 3 * 16384 + 37
        rng = RngStream(SUITE_SEED, 84).generator()
        ens = synthetic_ensemble(rng.standard_normal(n),
                                 rng.standard_normal(n))
        key = (ens.x_paths if mode == "a" else ens.x_b_paths)[:, -1]
        mask = key >= 0.0
        for branch, sel in zip(bin_by_sign(ens, mode), (mask, ~mask)):
            for name, paths in (("x0", ens.x_paths), ("p0", ens.p_paths),
                                ("x_b0", ens.x_b_paths),
                                ("p_b0", ens.p_b_paths)):
                np.testing.assert_array_equal(getattr(branch, name),
                                              paths[:, 0][sel])

    def test_blockwise_index_spans_several_blocks(self):
        n = 2 * _BLOCK + 37
        rng = RngStream(SUITE_SEED, 86).generator()
        ens = synthetic_ensemble(rng.standard_normal(n))
        mask = ens.x_paths[:, -1] >= 0.0
        for branch, sel in zip(bin_by_sign(ens), (mask, ~mask)):
            np.testing.assert_array_equal(branch.x0, ens.x_paths[sel, 0])
            np.testing.assert_array_equal(branch.p0, ens.p_paths[sel, 0])

    def test_branches_partition_the_run(self, single_run):
        _, _, ens = single_run
        plus, minus = bin_by_sign(ens)
        assert plus.n + minus.n == ens.count
        assert abs(plus.n - minus.n) < 5 * math.sqrt(ens.count)


class TestSelectBySign:
    """Selecting block by block gives the bits of the gathered path."""

    RUNS = {"single": (cat(1.0), "a"), "two": (two_spec(x1b=0.5), "b")}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 37])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_equals_bin_by_sign_of_the_gathered_run(self, run, n, threads):
        spec, mode = self.RUNS[run]
        amp = AmplifierSpec(1.0, 2.0, 1)
        seed = SUITE_SEED + 85
        ens = _simulate(spec, amp, n, seed, threads)
        *got, n_agree = gathered_selection(spec, amp, n, seed, threads)
        for sel, want in zip(got, bin_by_sign(ens, mode)):
            assert sel.branch == want.branch
            assert sel.p0 is None and sel.p_b0 is None
            np.testing.assert_array_equal(sel.x0, want.x0)
            if mode == "b":
                np.testing.assert_array_equal(sel.x_b0, want.x_b0)
            else:
                assert sel.x_b0 is None
        if mode == "b":
            assert n_agree / n == meter_sign_agreement(ens)
        else:
            assert n_agree == n

    def test_blocks_hold_fixed_runs_of_chunks(self):
        # Block j is trajectories j * 8 * CHUNK onward, whatever the
        # thread count; keep marks the rows its plus branch holds.
        n, spec, amp = 2 * _BLOCK + 5, cat(1.0), AmplifierSpec(1.0, 2.0, 1)
        ens = _simulate(spec, amp, n, SUITE_SEED + 86, 2)
        blocks = list(_select_by_sign(spec, amp, n, SUITE_SEED + 86, 2))
        assert [b[0] for b in blocks] == [0, _BLOCK, 2 * _BLOCK]
        for lo, keep, plus, minus, _ in blocks:
            rows = ens.x_paths[lo:lo + _BLOCK]
            np.testing.assert_array_equal(keep, rows[:, -1] >= 0.0)
            np.testing.assert_array_equal(plus.x0, rows[keep, 0])
            np.testing.assert_array_equal(minus.x0, rows[~keep, 0])

    def test_stream_offset_selects_the_offset_streams(self):
        spec, amp = cat(1.0), AmplifierSpec(1.0, 2.0, 1)
        a = gathered_selection(spec, amp, 100, SUITE_SEED, 1, stream_offset=3)
        chunks = iter_chunks(spec, amp, 100, SUITE_SEED, 1, stream_offset=3)
        x = next(chunks)[2][0]
        np.testing.assert_array_equal(a[0].x0, x[x[:, -1] >= 0.0, 0])

    def test_negative_gain_single_mode_is_refused(self):
        with pytest.raises(ScenarioError, match="sign selection needs"):
            next(_select_by_sign(cat(1.0), AmplifierSpec(-1.0, 2.0, 1), 100,
                                 SUITE_SEED, 1))
        # A two-mode run keeps the engine's own message.
        with pytest.raises(ScenarioError, match="amplify both positions"):
            next(_select_by_sign(two_spec(), AmplifierSpec(-1.0, 2.0, 1), 100,
                                 SUITE_SEED, 1))

    def test_peak_stays_below_the_gathered_stage_2_arrays(self):
        # The gathered path holds each mode's (t = 0, t_final) columns for
        # every trajectory before it selects: 2 x 2 x 8 B x n.
        n = 100_000
        spec, amp = two_spec(), AmplifierSpec(1.0, 2.0, 1)
        gathered_selection(spec, amp, 10, SUITE_SEED, 1)  # warm any caches
        tracemalloc.start()
        try:
            for _ in _select_by_sign(spec, amp, n, SUITE_SEED, 1):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 * 8 * n


class TestBuildLoops:
    def test_single_mode_anchors_and_multiplicity(self, single_run):
        spec, _, ens = single_run
        plus, _ = bin_by_sign(ens)
        loops = build_loops(repeated(plus, 3), spec,
                            RngStream(SUITE_SEED, 72))
        assert loops.n == 3 * plus.n
        np.testing.assert_array_equal(loops.x0, np.repeat(plus.x0, 3))
        assert loops.branch == +1
        # fresh momenta vary within an anchor group
        assert float(np.std(loops.p0[:3])) > 0

    def test_union_of_branch_loops_restores_the_marginal(self, single_run):
        spec, amp, ens = single_run
        plus, minus = bin_by_sign(ens)
        rng = RngStream(SUITE_SEED, 73)
        lp = build_loops(plus, spec, rng)
        lm = build_loops(minus, spec, rng)
        p_all = np.concatenate([lp.p0, lm.p0])
        assert ks_statistic(p_all, marginal_p(spec, amp, 0.0)) \
            < ks_critical(len(p_all), alpha=0.001)

    def test_two_mode_loops_draw_fresh_triples(self, two_mode_run):
        spec, amp, ens = two_mode_run
        plus, minus = bin_by_sign(ens, mode="b")
        rng = RngStream(SUITE_SEED, 74)
        lp = build_loops(repeated(plus, 2), spec, rng)
        assert lp.n == 2 * plus.n
        np.testing.assert_array_equal(lp.x_b0, np.repeat(plus.x_b0, 2))
        lm = build_loops(repeated(minus, 2), spec, rng)
        xa = np.concatenate([lp.x0, lm.x0])
        pb = np.concatenate([lp.p_b0, lm.p_b0])
        joint = two_mode_q(spec, amp, 0.0)
        crit = ks_critical(len(xa), alpha=0.001)
        assert ks_statistic(xa, joint.marginal("p_a", "x_b", "p_b")) < crit
        assert ks_statistic(pb, joint.marginal("x_a", "p_a", "x_b")) < crit

    def test_two_mode_loops_need_meter_coordinates(self, two_mode_run):
        spec, _, _ = two_mode_run
        bare = PostselectedEnsemble(+1, np.ones(5), np.zeros(5))
        with pytest.raises(ScenarioError):
            build_loops(bare, spec, RngStream(SUITE_SEED, 75))

    @pytest.mark.parametrize("single_mode", [True, False],
                             ids=["single_mode", "two_mode"])
    def test_non_finite_anchor_raises(self, single_mode):
        # A NaN anchor was never accepted: the loops ran forever.
        anchors = np.array([0.0, math.nan, 1.0])
        if single_mode:
            spec, selected = cat(1.0), PostselectedEnsemble(+1, anchors,
                                                            np.zeros(3))
        else:
            spec = two_spec()
            selected = PostselectedEnsemble(+1, np.zeros(3), np.zeros(3),
                                            anchors, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            build_loops(selected, spec, RngStream(SUITE_SEED, 83))

    def test_empty_branch(self):
        empty = PostselectedEnsemble(+1, np.empty(0), np.empty(0))
        with pytest.raises(EmptyBranch):
            build_loops(empty, cat(1.0), RngStream(SUITE_SEED, 76))


class TestConditionalTriple:
    """Two-mode loops draw (x_a, p_a, p_b) as a chain: x_a from its
    marginal, then the whitened momenta along and across the wave."""

    N = 200_000
    ANCHOR = 0.5

    @pytest.fixture(scope="class", params=[0.0, 0.5 * math.pi, math.pi],
                    ids=["phi0", "phi_quarter", "phi_pi"])
    def draws(self, request):
        # A weak pair, so the fringe survives the momentum integrals.
        spec = two_spec(x1=1.0, r=0.0, x1b=0.5, phi=request.param)
        rng = RngStream(SUITE_SEED, 90).generator()
        triple = _draw_conditional_triple(spec, np.full(self.N, self.ANCHOR),
                                          rng)
        return conditional_given_meter_x(spec, self.ANCHOR), triple

    def test_each_coordinate_matches_its_marginal(self, draws):
        dens, triple = draws
        crit = ks_critical(self.N, alpha=0.001)
        for axis, values in zip(dens.axes, triple):
            others = [a for a in dens.axes if a != axis]
            assert ks_statistic(values, dens.marginal(*others)) < crit, axis

    @pytest.mark.parametrize("pair", [("p_a", "p_b"), ("x_a", "p_b")])
    def test_covariance_matches_quadrature(self, draws, pair):
        dens, triple = draws
        i, j = (dens.axis_index(a) for a in pair)
        mi, mj = dens.moments(i)[0], dens.moments(j)[0]
        spans = [(-8.0 - 4.0 * math.sqrt(v), 8.0 + 4.0 * math.sqrt(v))
                 for v in dens.gaussians[0].variances]
        expected = quad_grid(
            Weighted(dens, lambda *c: (c[i] - mi) * (c[j] - mj)), spans,
            n=101)
        prod = (triple[i] - mi) * (triple[j] - mj)
        se = float(np.std(prod)) / math.sqrt(self.N)
        assert float(np.mean(prod)) == pytest.approx(expected, abs=5.0 * se)

    # d < 0: the packets (0.3, 2.0, 1.5), the chi(3) stage (1.0, 0.5, -0.8)
    # and merging packets (0.03, 0.03, 0.5), where 1 + d is 4.5e-4.
    @pytest.mark.parametrize("phi", [math.pi, 0.75 * math.pi],
                             ids=["phi_pi", "phi_3pi_4"])
    @pytest.mark.parametrize("x1,x1b,anchor", [
        (0.3, 2.0, 1.5), (1.0, 0.5, -0.8), (0.03, 0.03, 0.5)])
    def test_odd_pair_holds_the_conditional_moments(self, phi, x1, x1b,
                                                    anchor):
        n = 200_000
        spec = two_spec(x1=x1, r=0.0, x1b=x1b, phi=phi)
        triple = _draw_conditional_triple(
            spec, np.full(n, anchor), RngStream(SUITE_SEED, 92).generator())
        dens = conditional_given_meter_x(spec, anchor)
        for i, values in enumerate(triple):
            mean, var = dens.moments(i)
            m4 = float(np.mean((values - mean) ** 4))
            assert float(np.mean(values)) == pytest.approx(
                mean, abs=4.0 * math.sqrt(var / n)), dens.axes[i]
            assert float(np.var(values, ddof=1)) == pytest.approx(
                var, abs=4.0 * math.sqrt((m4 - var * var) / n)), dens.axes[i]

    def test_odd_pair_cost_stays_bounded_as_the_packets_merge(self):
        # Rejecting from the packets kept 1 + d of them: 14.8 s per 100k
        # anchors here.  The composition draws them in about 0.05 s.
        spec = two_spec(x1=0.03, r=0.0, x1b=0.03, phi=math.pi)
        rng = RngStream(SUITE_SEED, 93).generator()
        anchors = math.sqrt(2.0) * rng.standard_normal(100_000)
        start = time.process_time()
        _draw_conditional_triple(spec, anchors, rng)
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("anchor", [-1e3, 1e3])
    def test_far_anchors_give_finite_draws(self, anchor):
        spec = two_spec(x1=1.0, r=0.0, x1b=0.5, phi=math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            triple = _draw_conditional_triple(
                spec, np.full(1000, anchor),
                RngStream(SUITE_SEED, 91).generator())
        assert all(np.isfinite(c).all() for c in triple)


class TestTally:
    """One reducer: per batch, a count, a shifted sum and a sum of squares."""

    N, OFFSET = 50_003, 1e6  # the offset cancels without the shift

    def records(self):
        rng = RngStream(SUITE_SEED, 87).generator()
        return self.OFFSET + [[1.0], [3.0]] * rng.standard_normal((2, self.N))

    def check(self, tally, cols, labels):
        estimates, b_means = tally.moments()
        for k, (est, col) in enumerate(zip(estimates, cols)):
            batches = [col[labels == b] for b in range(10)]
            assert est.n == len(col) == tally.n
            assert est.mean == pytest.approx(np.mean(col), rel=1e-12)
            assert est.variance == pytest.approx(np.var(col, ddof=1),
                                                 rel=1e-12)
            np.testing.assert_allclose(
                b_means[:, k], [np.mean(b) for b in batches], rtol=1e-12)
            b_vars = [np.var(b, ddof=1) for b in batches]
            se = float(np.std(b_vars, ddof=1)) / math.sqrt(10)
            assert est.std_error_variance == pytest.approx(se, rel=1e-9)

    def test_gathered_rows_batch_by_contiguous_tenths(self):
        cols = self.records()
        labels = np.repeat(np.arange(10), np.diff(
            np.arange(11) * self.N // 10))
        whole = _Tally(self.N)
        whole.add(cols)
        self.check(whole, cols, labels)
        ragged = _Tally(self.N)
        rng = RngStream(SUITE_SEED, 88).generator()
        cuts = np.sort(rng.integers(0, self.N, 30))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, self.N]):
            ragged.add(cols[:, lo:hi], lo)
        self.check(ragged, cols, labels)

    def test_selected_rows_batch_by_their_source_row(self):
        # As a block kernel feeds it: the records of the rows keep marks,
        # each in the batch of its source row.
        values = self.records()
        keep = RngStream(SUITE_SEED, 89).generator().random(self.N) < 0.3
        labels = (np.searchsorted(np.arange(11) * self.N // 10,
                                  np.flatnonzero(keep), side="right") - 1)
        tally = _Tally(self.N)
        for lo in range(0, self.N, 7_919):
            rows = keep[lo:lo + 7_919]
            tally.add(values[:, lo:lo + 7_919][:, rows], lo, rows)
        self.check(tally, values[:, keep], labels)

    def test_a_batch_below_two_records_is_refused(self):
        tally = _Tally(1000)
        keep = np.ones(1000, dtype=bool)
        keep[:99] = False  # batch 0 keeps one record
        tally.add((np.arange(1000.0)[keep],), 0, keep)
        with pytest.raises(TooFewSamples, match="a batch holds 1 samples"):
            tally.moments()


class TestObservedVariances:
    def _branch(self, var_x, var_p, n=20000, offset=78):
        rng = RngStream(SUITE_SEED, offset).generator()
        return PostselectedEnsemble(
            +1, math.sqrt(var_x) * rng.standard_normal(n),
            math.sqrt(var_p) * rng.standard_normal(n))

    def test_subtracts_the_sampling_floor(self):
        est_x, est_p = observed_variances(self._branch(1.5, 3.0))
        assert isinstance(est_x, MomentEstimate)
        assert est_x.variance == pytest.approx(
            0.5, abs=6 * est_x.std_error_variance)
        assert est_p.variance == pytest.approx(
            2.0, abs=6 * est_p.std_error_variance)
        assert est_x.mean == pytest.approx(0.0, abs=6 * est_x.std_error_mean)
        assert est_x.n == 20000

    def test_negative_observed_variance_is_reported_unclamped(self):
        est_x, _ = observed_variances(self._branch(0.25, 2.0, offset=79))
        assert est_x.variance == pytest.approx(
            -0.75, abs=6 * est_x.std_error_variance)
        assert est_x.variance < 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            observed_variances(self._branch(1.0, 1.0, n=99))

    def test_meter_mode_needs_meter(self):
        with pytest.raises(ScenarioError):
            observed_variances(self._branch(1.0, 1.0), mode="b")

    @pytest.mark.parametrize("mode, spec, name", [
        ("a", cat(1.0), "p0"), ("b", two_spec(), "p_b0")])
    def test_undrawn_conjugate_is_refused_by_name(self, mode, spec, name):
        # The selector stops after the backward relaxation: no momenta.
        plus, _, _ = gathered_selection(spec, AmplifierSpec(1.0, 2.0, 1),
                                        2000, SUITE_SEED + 82, 1)
        assert getattr(plus, name) is None
        for estimate in (observed_variances, uncertainty_product):
            with pytest.raises(ValueError, match=name):
                estimate(plus, mode=mode)


class TestUncertaintyProduct:
    def test_product_and_error_propagation(self):
        rng = RngStream(SUITE_SEED, 80).generator()
        branch = PostselectedEnsemble(
            +1, math.sqrt(1.5) * rng.standard_normal(20000),
            math.sqrt(3.0) * rng.standard_normal(20000))
        est_x, est_p = observed_variances(branch)
        prod = uncertainty_product(branch)
        assert not prod.negative_variance
        assert prod.var_x.variance == est_x.variance
        assert prod.var_p.variance == est_p.variance
        assert prod.epsilon == pytest.approx(
            math.sqrt(est_x.variance * est_p.variance), rel=1e-12)
        expected_se = 0.5 * math.hypot(
            est_x.std_error_variance * est_p.variance,
            est_p.std_error_variance * est_x.variance) / prod.epsilon
        assert prod.std_error == pytest.approx(expected_se, rel=1e-12)

    def test_negative_variance_yields_nan(self):
        rng = RngStream(SUITE_SEED, 81).generator()
        branch = PostselectedEnsemble(
            +1, 0.5 * rng.standard_normal(20000),
            math.sqrt(3.0) * rng.standard_normal(20000))
        prod = uncertainty_product(branch)
        assert prod.negative_variance
        assert math.isnan(prod.epsilon)


class TestMeterWeights:
    """Meter weights at t = 0, the form loops and state inference use."""

    AMP = AmplifierSpec(1.0, 1.0, 2)

    def test_weights_and_suppression_identity(self):
        spec = two_spec()
        xb = np.array([-500.0, -3.0, -0.4, 0.0, 0.4, 3.0, 500.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow at |u| = 1000
            w_plus, s = meter_condition_weights(spec, self.AMP, 0.0, xb)
        assert np.all(np.isfinite(w_plus)) and np.all(np.isfinite(s))
        assert np.all((w_plus >= 0) & (w_plus <= 1))
        np.testing.assert_allclose(s * s, 4 * w_plus * (1 - w_plus),
                                   atol=1e-13)
        np.testing.assert_allclose(w_plus + w_plus[::-1], 1.0, atol=1e-13)

    def test_matches_reference_weight_form(self):
        spec = two_spec()
        xb = np.linspace(-6, 6, 41)
        w_plus, s = meter_condition_weights(spec, self.AMP, 0.0, xb)
        u = xb * spec.x1b / spec.mode_b.sigma_x2
        np.testing.assert_allclose(w_plus, 1.0 / (1.0 + np.exp(-2.0 * u)),
                                   atol=1e-12)
        np.testing.assert_allclose(s, 1.0 / np.cosh(u), atol=1e-12)


class TestInferState:
    def test_reconstruction_from_strong_meter_branch(self, two_mode_run):
        spec, _, ens = two_mode_run
        plus, _ = bin_by_sign(ens, mode="b")
        inferred = infer_state_A_numeric(plus, spec)
        assert inferred.n == plus.n
        assert inferred.values.shape == (100, 100)
        assert len(inferred.x_centers) == 100
        assert inferred.grid_mass == pytest.approx(1.0, abs=0.02)
        assert 0.95 < inferred.w_plus_bar <= 1.0
        assert 0.0 <= inferred.sech_bar < 0.1
        assert inferred.moments_x.mean == pytest.approx(spec.x1, abs=0.01)
        assert inferred.meter_hist.n > 0

    def test_close_to_analytic_limit_state(self, two_mode_run):
        spec, _, ens = two_mode_run
        plus, _ = bin_by_sign(ens, mode="b")
        inferred = infer_state_A_numeric(plus, spec)
        target = inferred_state_A_analytic(spec, +1)
        x = inferred.x_centers[:, None]
        p = inferred.p_centers[None, :]
        assert np.max(np.abs(inferred.values - target.density(x, p))) < 5e-4

    def test_branch_sign_flips_the_packet(self, two_mode_run):
        spec, _, ens = two_mode_run
        _, minus = bin_by_sign(ens, mode="b")
        inferred = infer_state_A_numeric(minus, spec)
        assert inferred.w_plus_bar < 0.05
        assert inferred.moments_x.mean == pytest.approx(-spec.x1, abs=0.01)

    def test_requires_meter_and_quarter_phase(self, two_mode_run):
        spec, _, _ = two_mode_run
        bare = PostselectedEnsemble(+1, np.ones(200), np.zeros(200))
        with pytest.raises(ScenarioError):
            infer_state_A_numeric(bare, spec)
        empty = PostselectedEnsemble(+1, np.empty(0), np.empty(0))
        with pytest.raises(EmptyBranch):
            infer_state_A_numeric(empty, spec)
        rng = RngStream(SUITE_SEED, 82).generator()
        branch = PostselectedEnsemble(+1, rng.standard_normal(200),
                                      rng.standard_normal(200),
                                      rng.standard_normal(200) + 4.0,
                                      rng.standard_normal(200))
        for wrong in (branch, empty):  # the phase, whatever the records
            with pytest.raises(UnsupportedPhase):
                infer_state_A_numeric(wrong, two_spec(phi=0.0))

    def test_too_few_samples(self):
        # Fewer records than batches would leave empty batch means.
        rng = RngStream(SUITE_SEED, 83).generator()
        branch = PostselectedEnsemble(+1, *rng.standard_normal((4, 50)))
        with pytest.raises(TooFewSamples, match="^50 samples"):
            infer_state_A_numeric(branch, two_spec())


class TestMeterSignAgreement:
    def test_matches_direct_count(self, two_mode_run):
        _, _, ens = two_mode_run
        got = meter_sign_agreement(ens)
        direct = float(np.mean((ens.x_paths[:, -1] >= 0)
                               == (ens.x_b_paths[:, -1] >= 0)))
        assert got == pytest.approx(direct, abs=1e-12)
        assert got > 0.99

    def test_needs_two_modes(self, single_run):
        _, _, ens = single_run
        with pytest.raises(ScenarioError):
            meter_sign_agreement(ens)
