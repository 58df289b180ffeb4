"""Scenario-type construction, derived constants and validation errors."""

import math

import numpy as np
import pytest

from qtraj.analytic import marginal_p, marginal_x, two_mode_q
from qtraj.core import (
    AmplifierSpec,
    ModeSpec,
    NonNormalizedAmplitudes,
    NonPositiveSteps,
    ScenarioError,
    SuperpositionSpec,
    TwoModeSpec,
    ZeroGain,
    as_superposition,
    gain,
    sigma_p2_at,
    sigma_x2_at,
    validate_scenario,
)


class TestModeSpec:
    def test_coherent_variances(self):
        mode = ModeSpec(mean_x=1.0)
        assert mode.sigma_x2 == pytest.approx(2.0, abs=1e-15)
        assert mode.sigma_p2 == pytest.approx(2.0, abs=1e-15)

    def test_squeezed_variances(self):
        mode = ModeSpec(mean_x=0.0, squeeze_r=1.0)
        assert mode.sigma_x2 == pytest.approx(1.0 + math.exp(-2.0), rel=1e-15)
        assert mode.sigma_p2 == pytest.approx(1.0 + math.exp(2.0), rel=1e-15)

    @pytest.mark.parametrize("r", [-2.0, -0.5, 0.0, 0.7, 3.0])
    def test_observed_variance_product_is_unity(self, r):
        # (sigma_x^2 - 1)(sigma_p^2 - 1) = 1 for every squeezing value
        mode = ModeSpec(mean_x=2.0, squeeze_r=r)
        prod = (mode.sigma_x2 - 1.0) * (mode.sigma_p2 - 1.0)
        assert prod == pytest.approx(1.0, rel=1e-12)

    def test_overlap_exponent(self):
        assert ModeSpec(1.0, 0.0).overlap_exponent == pytest.approx(0.5)
        assert ModeSpec(2.0, 1.0).overlap_exponent == pytest.approx(
            2.0 * math.exp(2.0), rel=1e-15)


class TestSuperpositionSpec:
    def test_default_is_single_packet(self):
        sup = SuperpositionSpec(ModeSpec(1.5))
        assert sup.c1_mag == 1.0 and sup.c2_mag == 0.0
        assert sup.fringe_weight == 0.0
        assert sup.norm_factor == pytest.approx(1.0, abs=1e-15)

    def test_equal_amplitude_norm_factor(self):
        sup = SuperpositionSpec(ModeSpec(1.0, 0.0),
                                c1_mag=1 / math.sqrt(2),
                                c2_mag=1 / math.sqrt(2), phase_phi=0.0)
        assert sup.fringe_weight == pytest.approx(1.0, abs=1e-12)
        assert sup.norm_factor == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_quarter_phase_norm_is_unity(self):
        sup = SuperpositionSpec(ModeSpec(3.0, 1.0),
                                c1_mag=1 / math.sqrt(2),
                                c2_mag=1 / math.sqrt(2),
                                phase_phi=0.5 * math.pi)
        assert sup.norm_factor == pytest.approx(1.0, abs=1e-15)

    def test_opposite_phase_norm_exceeds_unity(self):
        sup = SuperpositionSpec(ModeSpec(1.0, 0.0),
                                c1_mag=1 / math.sqrt(2),
                                c2_mag=1 / math.sqrt(2), phase_phi=math.pi)
        assert sup.norm_factor == pytest.approx(
            1.0 / (1.0 - math.exp(-0.5)), rel=1e-12)

    def test_rejects_non_normalised_amplitudes(self):
        with pytest.raises(NonNormalizedAmplitudes):
            SuperpositionSpec(ModeSpec(1.0), c1_mag=0.8, c2_mag=0.8)

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(NonNormalizedAmplitudes):
            SuperpositionSpec(ModeSpec(1.0), c1_mag=-1.0, c2_mag=0.0)


class TestTwoModeSpec:
    def _sup(self):
        return SuperpositionSpec(ModeSpec(1.0, 1.5),
                                 c1_mag=1 / math.sqrt(2),
                                 c2_mag=1 / math.sqrt(2),
                                 phase_phi=0.5 * math.pi)

    def test_separations(self):
        spec = TwoModeSpec(self._sup(), ModeSpec(4.0, 0.0))
        assert spec.x1 == 1.0
        assert spec.x1b == 4.0

    def test_rejects_unequal_branch_amplitudes(self):
        sup = SuperpositionSpec(ModeSpec(1.0), c1_mag=0.6, c2_mag=0.8,
                                phase_phi=0.5 * math.pi)
        with pytest.raises(NonNormalizedAmplitudes):
            TwoModeSpec(sup, ModeSpec(4.0))


class TestNonFiniteFields:
    BUILD = {
        "ModeSpec.mean_x": lambda v: ModeSpec(v, 0.0),
        "ModeSpec.squeeze_r": lambda v: ModeSpec(1.0, v),
        "SuperpositionSpec.c1_mag":
            lambda v: SuperpositionSpec(ModeSpec(1.0), c1_mag=v),
        "SuperpositionSpec.c2_mag":
            lambda v: SuperpositionSpec(ModeSpec(1.0), c2_mag=v),
        "SuperpositionSpec.phase_phi":
            lambda v: SuperpositionSpec(ModeSpec(1.0), phase_phi=v),
        "AmplifierSpec.gain_rate_g": lambda v: AmplifierSpec(v, 1.0),
        "AmplifierSpec.t_final": lambda v: AmplifierSpec(1.0, v),
        "AmplifierSpec.n_steps": lambda v: AmplifierSpec(1.0, 1.0, v),
    }

    @pytest.mark.parametrize("field", sorted(BUILD))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            self.BUILD[field](value)


class TestAmplifierSpec:
    def test_gain_tf(self):
        amp = AmplifierSpec(gain_rate_g=1.0, t_final=3.0, n_steps=10)
        assert amp.gain_tf == pytest.approx(math.exp(3.0), rel=1e-15)

    def test_negative_rate_gain(self):
        amp = AmplifierSpec(gain_rate_g=-1.0, t_final=4.0, n_steps=10)
        assert amp.gain_tf == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_rejects_zero_rate(self):
        with pytest.raises(ZeroGain):
            AmplifierSpec(gain_rate_g=0.0, t_final=1.0)

    @pytest.mark.parametrize("tf", [0.0, -1.0])
    def test_rejects_non_positive_duration(self, tf):
        with pytest.raises(NonPositiveSteps):
            AmplifierSpec(gain_rate_g=1.0, t_final=tf)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_rejects_bad_step_counts(self, n):
        with pytest.raises(NonPositiveSteps):
            AmplifierSpec(gain_rate_g=1.0, t_final=1.0, n_steps=n)


class TestTimeGrid:
    def test_from_amplifier(self):
        amp = AmplifierSpec(1.0, 2.0, n_steps=4)
        np.testing.assert_array_equal(amp.grid, np.linspace(0.0, 2.0, 5))
        np.testing.assert_array_equal(amp.grid, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("rate, t_final, n_steps", [
        (1.0, 6.0, 300), (-0.3, 0.7 / 3, 7), (2.0, 1e-12, 1), (1.0, 3.0, 50)])
    def test_is_the_linspace_bit_for_bit(self, rate, t_final, n_steps):
        # run's t column and every path column are read off this grid.
        amp = AmplifierSpec(rate, t_final, n_steps)
        assert amp.grid.tobytes() == np.linspace(
            0.0, t_final, n_steps + 1).tobytes()
        with pytest.raises(AttributeError):
            amp.grid = np.zeros(n_steps + 1)


class TestEvolvedVariances:
    def test_gain_is_vectorised(self):
        amp = AmplifierSpec(2.0, 1.0, 5)
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(gain(amp, t), np.exp(2.0 * t))

    def test_initial_values(self):
        mode = ModeSpec(1.0, 0.8)
        amp = AmplifierSpec(1.0, 3.0, 5)
        assert sigma_x2_at(mode, amp, 0.0) == pytest.approx(mode.sigma_x2)
        assert sigma_p2_at(mode, amp, 0.0) == pytest.approx(mode.sigma_p2)

    def test_amplified_growth_and_decay(self):
        mode = ModeSpec(1.0, 0.0)
        amp = AmplifierSpec(1.0, 2.0, 5)
        g2 = math.exp(4.0)
        assert sigma_x2_at(mode, amp, 2.0) == pytest.approx(1.0 + g2,
                                                            rel=1e-12)
        assert sigma_p2_at(mode, amp, 2.0) == pytest.approx(1.0 + 1.0 / g2,
                                                            rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.7, 1.9, 3.0])
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.5])
    def test_observed_product_is_time_invariant(self, t, r):
        mode = ModeSpec(2.0, r)
        amp = AmplifierSpec(1.0, 3.0, 5)
        prod = ((sigma_x2_at(mode, amp, t) - 1.0)
                * (sigma_p2_at(mode, amp, t) - 1.0))
        assert prod == pytest.approx(1.0, rel=1e-12)

    def test_negative_rate_mirrors_roles(self):
        mode = ModeSpec(1.0, 0.0)
        amp = AmplifierSpec(-1.0, 2.0, 5)
        assert sigma_x2_at(mode, amp, 2.0) == pytest.approx(
            1.0 + math.exp(-4.0), rel=1e-12)
        assert sigma_p2_at(mode, amp, 2.0) == pytest.approx(
            1.0 + math.exp(4.0), rel=1e-12)


class TestAsSuperposition:
    def test_wraps_bare_mode(self):
        mode = ModeSpec(1.0, 0.5)
        sup = as_superposition(mode)
        assert isinstance(sup, SuperpositionSpec)
        assert sup.mode is mode
        assert sup.c2_mag == 0.0

    def test_idempotent(self):
        sup = SuperpositionSpec(ModeSpec(1.0))
        assert as_superposition(sup) is sup


class TestValidateScenario:
    def _cat(self, phi=0.5 * math.pi):
        return SuperpositionSpec(ModeSpec(2.0, 1.0),
                                 c1_mag=1 / math.sqrt(2),
                                 c2_mag=1 / math.sqrt(2), phase_phi=phi)

    def test_single_mode_constants(self):
        sup = self._cat(phi=0.0)
        amp = AmplifierSpec(1.0, 2.0, 8)
        assert validate_scenario(sup, amp) is None
        assert len(amp.grid) == 9

    def test_bare_mode_is_promoted(self):
        # A bare packet is checked as the trivial superposition's packet.
        amp = AmplifierSpec(1.0, 1.0, 2)
        assert validate_scenario(ModeSpec(1.0), amp) is None
        for spec in (ModeSpec(6.0, 400.0), as_superposition(ModeSpec(6.0,
                                                                     400.0))):
            with pytest.raises(ScenarioError, match=r"^state\.r = 400 "):
                validate_scenario(spec, amp)

    def test_two_mode_defaults_meter_amplifier(self):
        spec = TwoModeSpec(self._cat(), ModeSpec(4.0, 0.0))
        amp = AmplifierSpec(1.0, 2.0, 8)
        assert validate_scenario(spec, amp) is None
        # quarter phase: no interference in the joint norm
        assert two_mode_q(spec, amp, 0.0).norm == pytest.approx(1.0,
                                                               abs=1e-15)

    def test_two_mode_zero_phase_norm(self):
        spec = TwoModeSpec(self._cat(phi=0.0), ModeSpec(1.0, 0.0))
        amp = AmplifierSpec(1.0, 2.0, 8)
        assert validate_scenario(spec, amp) is None
        ea = spec.mode_a.mode.overlap_exponent
        eb = spec.mode_b.overlap_exponent
        f2 = 1.0 + math.exp(-ea - eb)
        assert two_mode_q(spec, amp, 0.0).norm == pytest.approx(1.0 / f2,
                                                               rel=1e-14)

    @pytest.mark.parametrize("rate", [1.0, -1.0])
    def test_overflowing_gain_rejected(self, rate):
        with pytest.raises(ScenarioError, match="amp.gtf"):
            validate_scenario(self._cat(), AmplifierSpec(rate, 400.0, 2))
        # The meter's packet sets the gain bound of a two-mode state: the
        # system alone, or with a coherent meter, passes at this gain.
        amp = AmplifierSpec(1.0, 200.0, 2)
        with pytest.raises(ScenarioError, match=r"amp\.gtf = 200 .*< 144\.8"):
            validate_scenario(TwoModeSpec(self._cat(), ModeSpec(4.0, 100.0)),
                              amp)
        validate_scenario(self._cat(), amp)
        validate_scenario(TwoModeSpec(self._cat(), ModeSpec(4.0, 0.0)), amp)
        # well inside the range: the closed forms stay finite
        amp = AmplifierSpec(rate, 300.0, 2)
        validate_scenario(self._cat(), amp)
        assert math.isfinite(amp.gain_tf)

    @pytest.mark.parametrize("r", [300.0, -400.0])
    def test_overflowing_squeezing_names_its_key(self, r):
        big = SuperpositionSpec(ModeSpec(6.0, r), c1_mag=1 / math.sqrt(2),
                                c2_mag=1 / math.sqrt(2), phase_phi=0.5)
        with pytest.raises(ScenarioError, match=r"state\.r = .*\|state\.r\|"):
            validate_scenario(big, AmplifierSpec(1.0, 1.0, 2))
        pair = TwoModeSpec(self._cat(), ModeSpec(4.0, r))
        with pytest.raises(ScenarioError, match="meter.r2"):
            validate_scenario(pair, AmplifierSpec(1.0, 1.0, 2))

    @pytest.mark.parametrize("r", [0.0, 100.0, 172.0])
    def test_gain_bound_is_positive_and_holds(self, r):
        spec = SuperpositionSpec(ModeSpec(6.0, r), c1_mag=1 / math.sqrt(2),
                                 c2_mag=1 / math.sqrt(2), phase_phi=0.5)
        for rate in (1.0, -1.0):
            with pytest.raises(ScenarioError, match="amp.gtf") as err:
                validate_scenario(spec, AmplifierSpec(rate, 1.0e3, 2))
            limit = float(str(err.value).rsplit("< ", 1)[1])
            assert limit > 0.0
            # just inside the bound every closed-form moment is finite
            amp = AmplifierSpec(rate, 0.99 * limit, 2)
            validate_scenario(spec, amp)
            with np.errstate(over="raise", invalid="raise"):
                for t in (0.0, amp.t_final):
                    for marg in (marginal_x(spec, amp, t),
                                 marginal_p(spec, amp, t)):
                        assert all(map(math.isfinite, marg.moments(0)))
