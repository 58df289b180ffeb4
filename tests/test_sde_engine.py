"""Forward-backward path generation against the closed-form marginals.

The relaxation kernel is exact for any step size, so simulated columns
at grid times must reproduce the corresponding closed-form marginals --
that is the main consistency property probed here, alongside kernel
mechanics, chunking determinism, and thread invariance.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import (SUITE_SEED, gathered_selection, stage1_sums,
                      variance_batch_se)
from qtraj.analytic import fbc_from_wigner, marginal_p, marginal_x, two_mode_q
from qtraj.core import (
    AmplifierSpec,
    ModeSpec,
    ScenarioError,
    SuperpositionSpec,
    TwoModeSpec,
    sigma_p2_at,
    sigma_x2_at,
)
import qtraj.sde_engine
from qtraj.cli import EXIT_OK, main
from qtraj.postselect import bin_by_sign
from qtraj.sampler import RngStream
from qtraj.sde_engine import (
    CHUNK,
    N_SAVED_PATHS,
    TrajectoryEnsemble,
    _path_chunk,
    _simulate,
    chunk_bounds,
    grid_sums,
    n_chunks,
    path_densities,
    relax,
    resolve_threads,
    simulate_p_measurement,
    simulate_single_mode,
    simulate_two_mode,
    sums_chain,
)
from qtraj.stats import ks_critical, ks_statistic

HALF = 1.0 / math.sqrt(2.0)


def cat(x1, r=0.0, phi=0.0):
    return SuperpositionSpec(ModeSpec(x1, r), c1_mag=HALF, c2_mag=HALF,
                             phase_phi=phi)


def ou_steps(start, rate, dt, rng, n_steps=1):
    """A ``relax`` fill as (path, step): column k is k exact OU steps."""
    out = np.empty((n_steps + 1, len(start)))
    relax(out, start, rate, dt, rng)
    return out.T


class TestOuStep:
    """The exact Ornstein-Uhlenbeck step, as ``relax`` applies it."""

    def test_matches_exact_kernel(self):
        rate, dt = 0.7, 0.3
        value = np.array([1.0, -2.0, 0.5])
        z = RngStream(SUITE_SEED, 40).generator().standard_normal(3)
        out = ou_steps(value, rate, dt, RngStream(SUITE_SEED, 40).generator())
        c = math.exp(-rate * dt)
        expected = c * value + math.sqrt(1.0 - c * c) * z
        np.testing.assert_array_equal(out[:, 0], value)
        np.testing.assert_allclose(out[:, 1], expected, rtol=1e-15)

    def test_reversed_view_fills_backward(self):
        rate, dt = 0.7, 0.3
        end = np.array([1.0, -2.0, 0.5])
        fwd = ou_steps(end, rate, dt, RngStream(SUITE_SEED, 44).generator(),
                       n_steps=4)
        bwd = np.empty((5, len(end)))
        relax(bwd[::-1], end, rate, dt,
              RngStream(SUITE_SEED, 44).generator())
        np.testing.assert_array_equal(bwd.T, fwd[:, ::-1])

    def test_preserves_stationary_variance(self):
        rng = RngStream(SUITE_SEED, 41).generator()
        x = ou_steps(rng.standard_normal(200000), 1.3, 0.25, rng, n_steps=5)
        assert float(x[:, -1].var()) == pytest.approx(1.0, abs=0.02)

    def test_large_step_forgets_the_start(self):
        rng = RngStream(SUITE_SEED, 42).generator()
        x = ou_steps(np.full(100000, 50.0), 1.0, 40.0, rng)[:, -1]
        assert float(x.mean()) == pytest.approx(0.0, abs=0.05)
        assert float(x.var()) == pytest.approx(1.0, abs=0.02)

    def test_rejects_bad_increments(self):
        rng = RngStream(SUITE_SEED, 43).generator()
        with pytest.raises(ValueError):
            ou_steps(np.zeros(2), 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            ou_steps(np.zeros(2), -1.0, 0.1, rng)


class TestChunking:
    def test_chunk_bookkeeping(self):
        n = 2 * CHUNK + 37
        assert n_chunks(n) == 3
        assert chunk_bounds(n, 0) == (0, CHUNK)
        assert chunk_bounds(n, 2) == (2 * CHUNK, n)

    def test_ensemble_spanning_chunks(self):
        amp = AmplifierSpec(1.0, 1.0, 3)
        ens = simulate_single_mode(ModeSpec(1.0, 0.0), amp,
                                   CHUNK + 11, SUITE_SEED + 44)
        assert ens.count == CHUNK + 11
        assert ens.x_paths.shape == (CHUNK + 11, 4)


class TestEnsembleContainer:
    def _ensemble(self):
        amp = AmplifierSpec(1.0, 1.0, 2)
        return simulate_single_mode(ModeSpec(0.5, 0.0), amp, 10,
                                    SUITE_SEED + 45)

    def test_count_and_mode_flag(self):
        ens = self._ensemble()
        assert ens.x_paths.shape == ens.p_paths.shape == (10, 3)
        assert ens.x_b_paths is None
        assert ens.count == 10
        assert not ens.is_two_mode

    def test_shape_validation(self):
        ens = self._ensemble()
        with pytest.raises(ValueError):
            TrajectoryEnsemble(amp=ens.amp, x_paths=ens.x_paths,
                               p_paths=ens.p_paths[:, :-1])
        with pytest.raises(ValueError):
            TrajectoryEnsemble(amp=ens.amp,
                               x_paths=ens.x_paths, p_paths=ens.p_paths,
                               x_b_paths=ens.x_paths)

    def test_amp_sets_the_column_count(self):
        # Each path holds one column per time of its amplifier's grid.
        ens = self._ensemble()
        assert len(ens.amp.grid) == ens.x_paths.shape[1] == 3
        for n_steps in (1, 3):
            with pytest.raises(ValueError, match=rf"\(count, {n_steps + 1}\)"):
                TrajectoryEnsemble(replace(ens.amp, n_steps=n_steps),
                                   ens.x_paths, ens.p_paths)

    def test_conjugates_come_for_every_mode_or_none(self):
        # Only (x, p) and (x, p, x_b, p_b) are ensembles; any other set of
        # arrays is refused with a ValueError that names what is missing.
        ens = self._ensemble()
        names = ("x_paths", "p_paths", "x_b_paths", "p_b_paths")
        for present in itertools.product((True, False), repeat=4):
            arrays = [ens.x_paths if on else None for on in present]
            if present in ((True, True, False, False), (True,) * 4):
                assert TrajectoryEnsemble(ens.amp, *arrays).count == 10
                continue
            missing = next(name for name, on in zip(names, present)
                           if not on)
            with pytest.raises(ValueError, match=missing):
                TrajectoryEnsemble(ens.amp, *arrays)


class TestSingleModeLaw:
    N = 30000

    @pytest.mark.parametrize("spec", [
        ModeSpec(3.0, 3.0),
        cat(2.0, 0.0, 0.0),
        cat(1.5, 1.0, 0.5 * math.pi),
    ])
    def test_boundary_columns_follow_their_marginals(self, spec):
        amp = AmplifierSpec(1.0, 2.0, 20)
        ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 46)
        crit = ks_critical(self.N, alpha=0.001)
        assert ks_statistic(ens.x_paths[:, -1],
                            marginal_x(spec, amp, 2.0)) < crit
        assert ks_statistic(ens.x_paths[:, 0],
                            marginal_x(spec, amp, 0.0)) < crit
        assert ks_statistic(ens.p_paths[:, 0],
                            marginal_p(spec, amp, 0.0)) < crit

    def test_variance_transport_along_the_grid(self):
        spec = cat(1.5, 1.0, 0.5 * math.pi)
        amp = AmplifierSpec(1.0, 2.0, 8)
        ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 47)
        for j, t in enumerate(ens.amp.grid):
            for arr, marg in ((ens.x_paths, marginal_x(spec, amp, t)),
                              (ens.p_paths, marginal_p(spec, amp, t))):
                _, var = marg.moments(0)
                got = float(np.var(arr[:, j], ddof=1))
                se = variance_batch_se(arr[:, j])
                assert got == pytest.approx(var, abs=5 * se)

    def test_single_step_grid_is_exact(self):
        spec = cat(2.0, 0.0, 0.0)
        amp = AmplifierSpec(1.0, 2.0, 1)
        ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 48)
        assert ens.x_paths.shape == (self.N, 2)
        crit = ks_critical(self.N, alpha=0.001)
        assert ks_statistic(ens.x_paths[:, 0],
                            marginal_x(spec, amp, 0.0)) < crit

    def test_halving_the_step_preserves_the_law(self):
        spec = ModeSpec(1.0, 1.0)
        coarse = AmplifierSpec(1.0, 2.0, 4)
        fine = AmplifierSpec(1.0, 2.0, 8)
        for amp, col in ((coarse, 2), (fine, 4)):
            ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 49)
            t = ens.amp.grid[col]
            assert t == pytest.approx(1.0)
            got = float(np.var(ens.x_paths[:, col], ddof=1))
            se = variance_batch_se(ens.x_paths[:, col])
            assert got == pytest.approx(
                sigma_x2_at(ModeSpec(1.0, 1.0), amp, t), abs=5 * se)

    @pytest.mark.parametrize("n_steps", [1, 50])
    def test_endpoint_covariance_does_not_depend_on_steps(self, n_steps):
        # x(0) relaxes from x(t_f) over the whole window in any number of
        # exact steps, so cov(x(0), x(t_f)) = e^{-g t_f} var(x(t_f)).
        spec = ModeSpec(1.0, 1.0)
        amp = AmplifierSpec(1.0, 2.0, n_steps)
        ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 62)
        x0, x_tf = ens.x_paths[:, 0], ens.x_paths[:, -1]
        _, var_tf = marginal_x(spec, amp, amp.t_final).moments(0)
        expected = math.exp(-amp.gain_rate_g * amp.t_final) * var_tf
        batch_covs = [np.cov(a, b)[0, 1] for a, b in
                      zip(np.array_split(x0, 10), np.array_split(x_tf, 10))]
        se = float(np.std(batch_covs, ddof=1)) / math.sqrt(10)
        assert np.cov(x0, x_tf)[0, 1] == pytest.approx(expected, abs=5 * se)

    def test_wigner_boundary_matches_final_marginal(self):
        spec = cat(2.0, 0.0, 0.0)
        amp = AmplifierSpec(1.0, 2.0, 4)
        ens = simulate_single_mode(spec, amp, self.N, SUITE_SEED + 50,
                                   boundary_method="wigner")
        target = fbc_from_wigner(spec, amp)
        assert ks_statistic(ens.x_paths[:, -1], target) \
            < ks_critical(self.N, alpha=0.001)

    def test_invalid_boundary_method(self):
        amp = AmplifierSpec(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            simulate_single_mode(ModeSpec(1.0, 0.0), amp, 10,
                                 SUITE_SEED, boundary_method="exact")
        # The Wigner boundary is a single mode's amplified position only.
        pair = TwoModeSpec(cat(1.0, 0.0, 0.5 * math.pi), ModeSpec(2.0))
        for spec, gain_rate in ((pair, 1.0), (cat(2.0), -1.0)):
            with pytest.raises(ScenarioError, match="boundary_method"):
                path_densities(spec, AmplifierSpec(gain_rate, 1.0, 2),
                               "wigner")

    def test_gain_sign_guards(self):
        with pytest.raises(ScenarioError):
            simulate_single_mode(ModeSpec(1.0, 0.0),
                                 AmplifierSpec(-1.0, 1.0, 2), 10, SUITE_SEED)
        with pytest.raises(ScenarioError):
            simulate_p_measurement(ModeSpec(1.0, 0.0),
                                   AmplifierSpec(1.0, 1.0, 2), 10, SUITE_SEED)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            simulate_single_mode(ModeSpec(1.0, 0.0),
                                 AmplifierSpec(1.0, 1.0, 2), 0, SUITE_SEED)

    def test_non_integral_count_is_refused_by_name(self):
        # int() truncated 1.5 to a one-trajectory run.
        with pytest.raises(ValueError, match="n_traj"):
            simulate_single_mode(cat(1.0), AmplifierSpec(1.0, 1.0, 2), 1.5,
                                 SUITE_SEED)

    def test_numpy_integer_count_is_accepted(self):
        ens = simulate_single_mode(cat(1.0), AmplifierSpec(1.0, 1.0, 2),
                                   np.int64(3), SUITE_SEED)
        assert ens.count == 3


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        amp = AmplifierSpec(1.0, 1.5, 5)
        a = simulate_single_mode(cat(1.0), amp, 4000, SUITE_SEED + 51)
        b = simulate_single_mode(cat(1.0), amp, 4000, SUITE_SEED + 51)
        np.testing.assert_array_equal(a.x_paths, b.x_paths)
        np.testing.assert_array_equal(a.p_paths, b.p_paths)

    def test_thread_count_does_not_change_results(self):
        # Every mode and a multi-step path, at chunk-edge run sizes,
        # through one scheduler.
        runs = {
            "single": lambda n, t: simulate_single_mode(
                cat(1.0), AmplifierSpec(1.0, 1.5, 1), n, SUITE_SEED + 52,
                threads=t),
            "p": lambda n, t: simulate_p_measurement(
                cat(1.0, 0.0, 0.5 * math.pi), AmplifierSpec(-1.0, 1.5, 1),
                n, SUITE_SEED + 52, threads=t),
            "two": lambda n, t: simulate_two_mode(
                TwoModeSpec(cat(1.0, 0.0, 0.5 * math.pi), ModeSpec(2.0)),
                AmplifierSpec(1.0, 1.5, 1), n, SUITE_SEED + 52, threads=t),
            "five steps": lambda n, t: simulate_single_mode(
                cat(1.0), AmplifierSpec(1.0, 1.5, 5), n, SUITE_SEED + 52,
                threads=t),
        }
        fields = ("x_paths", "p_paths", "x_b_paths", "p_b_paths")
        for mode, run in runs.items():
            for n in (1, CHUNK - 1, CHUNK, CHUNK + 1):
                ref = run(n, 1)
                assert ref.count == n
                for threads in (2, 3):
                    got = run(n, threads)
                    for name in fields:
                        a, b = getattr(ref, name), getattr(got, name)
                        if a is None:
                            assert b is None
                            continue
                        np.testing.assert_array_equal(
                            a, b, err_msg=f"{mode} n={n} threads={threads} "
                                          f"{name}")

    @pytest.mark.parametrize("threads", [0, -5])
    def test_thread_count_below_one_is_refused(self, threads):
        with pytest.raises(ScenarioError, match=r"^threads = "):
            simulate_single_mode(cat(1.0), AmplifierSpec(1.0, 1.5, 1), 10,
                                 SUITE_SEED, threads=threads)

    @pytest.mark.parametrize("threads", [1.9, 2.5])
    def test_non_integral_thread_count_is_refused_by_name(self, threads):
        # int() truncated 1.9 to a one-thread run.
        with pytest.raises(ScenarioError, match=r"^threads = "):
            simulate_single_mode(cat(1.0), AmplifierSpec(1.0, 1.5, 1), 10,
                                 SUITE_SEED, threads=threads)

    def test_numpy_integer_thread_count_is_accepted(self):
        assert resolve_threads(np.int64(2)) == 2

    def test_seed_changes_results(self):
        amp = AmplifierSpec(1.0, 1.5, 5)
        a = simulate_single_mode(cat(1.0), amp, 1000, SUITE_SEED + 53)
        b = simulate_single_mode(cat(1.0), amp, 1000, SUITE_SEED + 54)
        assert float(np.max(np.abs(a.x_paths - b.x_paths))) > 1e-6


class TestPMeasurement:
    N = 30000

    def test_columns_follow_their_marginals(self):
        spec = cat(2.0, 0.0, 0.5 * math.pi)
        amp = AmplifierSpec(-1.0, 2.0, 10)
        ens = simulate_p_measurement(spec, amp, self.N, SUITE_SEED + 55)
        crit = ks_critical(self.N, alpha=0.001)
        assert ks_statistic(ens.p_paths[:, -1],
                            marginal_p(spec, amp, 2.0)) < crit
        assert ks_statistic(ens.p_paths[:, 0],
                            marginal_p(spec, amp, 0.0)) < crit
        assert ks_statistic(ens.x_paths[:, 0],
                            marginal_x(spec, amp, 0.0)) < crit

    def test_position_contracts_toward_unit_variance(self):
        spec = ModeSpec(0.0, 2.0)
        amp = AmplifierSpec(-1.0, 2.0, 4)
        ens = simulate_p_measurement(spec, amp, self.N, SUITE_SEED + 56)
        t = ens.amp.grid[-1]
        got = float(np.var(ens.x_paths[:, -1], ddof=1))
        se = variance_batch_se(ens.x_paths[:, -1])
        assert got == pytest.approx(sigma_x2_at(spec, amp, t), abs=5 * se)
        assert sigma_x2_at(spec, amp, t) < spec.sigma_x2
        got_p = float(np.var(ens.p_paths[:, -1], ddof=1))
        se_p = variance_batch_se(ens.p_paths[:, -1])
        assert got_p == pytest.approx(sigma_p2_at(spec, amp, t),
                                      abs=5 * se_p)


class TestTwoMode:
    N = 30000

    def _spec(self, x1b=4.0):
        sys = cat(1.0, 1.5, 0.5 * math.pi)
        return TwoModeSpec(sys, ModeSpec(x1b, 0.0))

    def test_shapes_and_flags(self):
        amp = AmplifierSpec(1.0, 1.0, 5)
        ens = simulate_two_mode(self._spec(), amp, 500, SUITE_SEED + 57)
        assert ens.is_two_mode
        assert ens.x_b_paths.shape == (500, 6)
        assert ens.p_b_paths.shape == (500, 6)

    def test_boundary_columns_follow_their_marginals(self):
        spec = self._spec()
        amp = AmplifierSpec(1.0, 2.0, 10)
        ens = simulate_two_mode(spec, amp, self.N, SUITE_SEED + 58)
        crit = ks_critical(self.N, alpha=0.001)
        joint_tf = two_mode_q(spec, amp, 2.0)
        joint_t0 = two_mode_q(spec, amp, 0.0)
        assert ks_statistic(ens.x_b_paths[:, -1],
                            joint_tf.marginal("x_a", "p_a", "p_b")) < crit
        assert ks_statistic(ens.x_paths[:, -1],
                            joint_tf.marginal("p_a", "x_b", "p_b")) < crit
        assert ks_statistic(ens.x_paths[:, 0],
                            joint_t0.marginal("p_a", "x_b", "p_b")) < crit
        assert ks_statistic(ens.p_paths[:, 0],
                            joint_t0.marginal("x_a", "x_b", "p_b")) < crit
        assert ks_statistic(ens.p_b_paths[:, 0],
                            joint_t0.marginal("x_a", "p_a", "x_b")) < crit

    def test_branch_signs_are_strongly_correlated(self):
        amp = AmplifierSpec(1.0, 2.0, 4)
        ens = simulate_two_mode(self._spec(x1b=4.0), amp, self.N,
                                SUITE_SEED + 59)
        agree = np.sign(ens.x_paths[:, -1]) == np.sign(ens.x_b_paths[:, -1])
        assert float(agree.mean()) > 0.995

    def test_weak_meter_decorrelates(self):
        amp = AmplifierSpec(1.0, 2.0, 4)
        ens = simulate_two_mode(self._spec(x1b=0.1), amp, self.N,
                                SUITE_SEED + 60)
        agree = np.sign(ens.x_paths[:, -1]) == np.sign(ens.x_b_paths[:, -1])
        assert 0.4 < float(agree.mean()) < 0.75

    def test_rerun_is_bit_identical(self):
        amp = AmplifierSpec(1.0, 1.0, 3)
        a = simulate_two_mode(self._spec(), amp, 3000, SUITE_SEED + 61)
        b = simulate_two_mode(self._spec(), amp, 3000, SUITE_SEED + 61)
        np.testing.assert_array_equal(a.x_b_paths, b.x_b_paths)
        np.testing.assert_array_equal(a.p_b_paths, b.p_b_paths)

    def test_requires_two_mode_spec(self):
        with pytest.raises(ScenarioError):
            simulate_two_mode(cat(1.0), AmplifierSpec(1.0, 1.0, 2), 10,
                              SUITE_SEED)

    def test_single_mode_refuses_a_pair(self):
        with pytest.raises(ScenarioError, match="simulate_two_mode"):
            simulate_single_mode(self._spec(), AmplifierSpec(1.0, 1.0, 2),
                                 10, SUITE_SEED)

    def test_negative_gain_is_refused(self):
        # Both positions carry the boundary, so neither may be de-amplified.
        with pytest.raises(ScenarioError, match="gain rate amp.g"):
            simulate_two_mode(self._spec(), AmplifierSpec(-1.0, 2.0, 2), 10,
                              SUITE_SEED)


class TestStagePrefix:
    """A chunk stopped after stage 1 or 2 holds the full chunk's values."""

    RUNS = {
        "x": (cat(1.0), 1.0),
        "p": (cat(1.0, 0.0, 0.5 * math.pi), -1.0),
        "two": (TwoModeSpec(cat(1.0, 0.0, 0.5 * math.pi), ModeSpec(2.0)),
                1.0),
    }

    @pytest.mark.parametrize("size", [1, CHUNK - 1])
    @pytest.mark.parametrize("n_steps", [1, 5])
    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_stopped_chunk_is_a_prefix_of_the_full_chunk(self, mode,
                                                         n_steps, size):
        spec, rate = self.RUNS[mode]
        amp = AmplifierSpec(rate, 1.5, n_steps)
        dens = path_densities(spec, amp)
        full = _path_chunk(dens, amp, SUITE_SEED + 62, 7, size)
        amplified = full[0::2] if rate > 0.0 else full[1::2]
        ends, paths = (_path_chunk(dens, amp, SUITE_SEED + 62, 7, size,
                                   through=stage) for stage in (1, 2))
        assert len(ends) == len(paths) == len(amplified) == dens.boundary.ndim
        for want, end, path in zip(amplified, ends, paths):
            assert end.shape == (size, 1)
            np.testing.assert_array_equal(end, want[:, -1:])
            assert path.shape == (size, n_steps + 1)
            np.testing.assert_array_equal(path, want)

    @pytest.mark.parametrize("mode", ["x", "two"])
    def test_stopped_ensemble_leaves_conjugates_none(self, mode):
        # The selector stops each chunk after stage 2, at one step, so
        # its branches hold the full run's positions and no conjugate.
        spec, rate = self.RUNS[mode]
        amp = AmplifierSpec(rate, 1.5, 1)
        full = bin_by_sign(_simulate(spec, amp, CHUNK + 5, SUITE_SEED + 63, 2),
                           "b" if mode == "two" else "a")
        part = gathered_selection(spec, replace(amp, n_steps=3), CHUNK + 5,
                                  SUITE_SEED + 63, 2)
        for got, want in zip(part, full):
            assert got.p0 is None and got.p_b0 is None
            assert (got.x_b0 is None) == (mode == "x")
            np.testing.assert_array_equal(got.x0, want.x0)
            if mode == "two":
                np.testing.assert_array_equal(got.x_b0, want.x_b0)

    def test_records_commands_never_draw_the_conjugates(self, tmp_path,
                                                        monkeypatch):
        initial, drawn = [], []
        build = qtraj.sde_engine.path_densities
        sample = qtraj.sde_engine.sample_fringe_density

        def densities(*args, **kwargs):
            dens = build(*args, **kwargs)
            initial.append(dens.initial)
            return dens

        def counted(density, *args, **kwargs):
            drawn.append(density)
            return sample(density, *args, **kwargs)

        monkeypatch.setattr(qtraj.sde_engine, "path_densities", densities)
        monkeypatch.setattr(qtraj.sde_engine, "sample_fringe_density",
                            counted)
        for cmd, scenario in (("born", "fig_born_x"),
                              ("postselect", "fig_condvar"),
                              ("collapse", "fig_infer_eig"),
                              ("run", "fig_sup")):
            initial.clear()
            drawn.clear()
            assert main([cmd, "--scenario", scenario, "--out",
                         str(tmp_path / cmd), "--trajectories", "2000",
                         "--seed", str(SUITE_SEED)]) == EXIT_OK
            assert drawn and initial, cmd
            draws_initial = any(d is i for d in drawn for i in initial)
            assert draws_initial == (cmd == "run"), cmd


class TestTalliedChunk:
    """``grid_sums`` tallies ``run``'s one-step chunks per grid time.

    Up to ``N_SAVED_PATHS`` trajectories every row is bitwise the saved
    paths' reductions.  Above it the other paths' sums come from their
    exact law, so only what the chunks draw before any relaxation stays
    bitwise: the amplified coordinates' t_final sums, those of the
    stage-1 ends in chunk order, and the saved paths' t_final values.
    """

    RUNS = TestStagePrefix.RUNS

    @pytest.mark.parametrize("n", [1, 5, 37, CHUNK])
    @pytest.mark.parametrize("n_steps", [2, 3])
    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_tallies_are_the_stored_paths_reductions(self, mode, n_steps,
                                                     n):
        spec, rate = self.RUNS[mode]
        amp = AmplifierSpec(rate, 1.5, n_steps)
        sums, saved = grid_sums(spec, amp, n, SUITE_SEED + 64, 1)
        k = min(n, N_SAVED_PATHS)
        assert sums.shape == (len(saved), n_steps + 1, 2)
        assert saved.shape == (len(saved), n_steps + 1, k)
        if n <= N_SAVED_PATHS:
            for tally, paths in zip(sums, saved):
                np.testing.assert_array_equal(tally[:, 0], paths.sum(axis=1))
                np.testing.assert_array_equal(
                    tally[:, 1], np.einsum("ij,ij->i", paths, paths))
        ends, first = stage1_sums(spec, amp, n, SUITE_SEED + 64)
        amplified = range(rate < 0.0, len(saved), 2)
        assert len(amplified) == len(ends) == len(first)
        for i, end, values in zip(amplified, ends, first):
            np.testing.assert_array_equal(sums[i, -1], end)
            np.testing.assert_array_equal(saved[i, -1], values)
        assert np.isfinite(sums).all() and np.isfinite(saved).all()
        assert (sums[:, :, 1] - sums[:, :, 0] ** 2 / n >= 0.0).all()


class TestSumsChain:
    """The per-step sums ``run`` draws, against closed forms and ``relax``.

    From a fixed start row of m paths, k exact steps give
    S_k ~ N(c^k S_0, m (1 - c^2k)) and M2_k / (1 - c^2k) ~ noncentral
    chi^2(m - 1, c^2k M2_0 / (1 - c^2k)).  Each KS test is at 1e-3.
    """

    RATE, DT, STEPS, REPLICAS = 0.5, 0.1, (1, 10, 40), 10_000

    @staticmethod
    def start(m):
        # Two clusters and a spread, scaled so M2_0 is 12-21 at every m.
        rng = RngStream(SUITE_SEED, 90).generator()
        row = np.where(np.arange(m) % 2, 1.5, -0.5) + rng.standard_normal(m)
        return row * 3.0 / math.sqrt(m)

    def chain(self, m, stream, rate=RATE, dt=DT, shape=None):
        start = self.start(m)
        return sums_chain(start.sum(), m * start.var(), m, rate, dt,
                          RngStream(SUITE_SEED, stream).generator(),
                          shape or (max(self.STEPS), self.REPLICAS))

    @pytest.mark.parametrize("m", [3, 12, 8192])
    def test_follows_the_closed_form_law(self, m):
        start = self.start(m)
        total, m2 = self.chain(m, 91)
        for k in self.STEPS:
            decay = math.exp(-2.0 * self.RATE * self.DT * k)  # c^2k
            law_s = stats.norm(math.sqrt(decay) * start.sum(),
                               math.sqrt(m * (1.0 - decay)))
            law_m2 = stats.ncx2(m - 1, decay * m * start.var() / (1 - decay))
            assert stats.kstest(total[k - 1], law_s.cdf).pvalue > 1e-3
            assert stats.kstest(m2[k - 1] / (1.0 - decay),
                                law_m2.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("m", [1, 2, 3, 12])
    def test_matches_explicit_relaxation(self, m):
        total, m2 = self.chain(m, 92)
        paths = np.empty((max(self.STEPS) + 1, self.REPLICAS * m))
        relax(paths, np.tile(self.start(m), self.REPLICAS), self.RATE,
              self.DT, RngStream(SUITE_SEED, 93).generator())
        for k in self.STEPS:
            rows = paths[k].reshape(self.REPLICAS, m)
            assert stats.ks_2samp(total[k - 1],
                                  rows.sum(axis=1)).pvalue > 1e-3
            if m == 1:  # one path has no spread
                assert not m2[k - 1].any()
            else:
                assert stats.ks_2samp(m2[k - 1],
                                      m * rows.var(axis=1)).pvalue > 1e-3

    @pytest.mark.parametrize("m", [2, 3, 12])
    def test_one_step_means(self, m):
        # E[S'] = c S and E[M2'] = c^2 M2 + s^2 (m - 1), each to within 5
        # standard errors: Var S' = m s^2 and, with a, b ~ N(0, 1) and
        # X ~ chi^2(m - 2), Var M2' = 4 c^2 M2 s^2 + 2 s^4 (m - 1).
        n, rate, dt = 200_000, 1.0, 0.5
        start = self.start(m)
        total, m2 = self.chain(m, 94, rate, dt, (1, n))
        c = math.exp(-rate * dt)
        s2, m2_0 = 1.0 - c * c, m * start.var()
        assert abs(total.mean() - c * start.sum()) < 5.0 * math.sqrt(
            m * s2 / n)
        se = math.sqrt((4.0 * c * c * m2_0 * s2 + 2.0 * s2 * s2 * (m - 1))
                       / n)
        assert abs(m2.mean() - (c * c * m2_0 + s2 * (m - 1))) < 5.0 * se
