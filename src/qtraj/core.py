"""Scenario types for amplified-measurement trajectory simulations.

Conventions used throughout the package: quadratures x = a + a^dag and
p = (a - a^dag)/i, so the phase-space (Husimi) variances of a coherent
state are 2 per axis and measured variances are smaller by 1 per axis
(antinormal ordering).  A mode squeezed with parameter r has t = 0
phase-space variances

    sigma_x^2 = 1 + exp(-2 r),      sigma_p^2 = 1 + exp(2 r).

Linear amplification at rate g multiplies mean displacements along x by
G(t) = exp(g t) and evolves the variances as

    sigma_x^2(t) = 1 + G(t)^2 (sigma_x^2(0) - 1),
    sigma_p^2(t) = 1 + (sigma_p^2(0) - 1) / G(t)^2,

which also covers g < 0 (de-amplification of x, amplification of p).
Superpositions are two wave packets centred at +-x1 on the x axis with
amplitudes c1, c2 and relative phase phi; their overlap exponent
x1^2 exp(2 r) / 2 is invariant under amplification, so the state norm is
a constant of the motion and is precomputed here once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np


class ScenarioError(ValueError):
    """A scenario that cannot be simulated."""


class NonNormalizedAmplitudes(ScenarioError):
    """Superposition amplitudes with |c1|^2 + |c2|^2 != 1."""


class ZeroGain(ScenarioError):
    """Amplifier with g = 0 (the measurement needs a finite rate)."""


class NonPositiveSteps(ScenarioError):
    """Time grid with fewer than one step or non-positive duration."""


def _require_finite(spec, *names) -> None:
    """Reject a NaN or infinite field (or tuple entry), naming it."""
    for name in names:
        value = getattr(spec, name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(map(math.isfinite, values)):
            raise ScenarioError(f"{type(spec).__name__}.{name} = {value!r} "
                                f"is not finite")


@dataclass(frozen=True)
class ModeSpec:
    """A single squeezed wave packet.

    Parameters
    ----------
    mean_x : float
        Centre of the packet on the x axis (twice the coherent amplitude).
    squeeze_r : float
        Squeezing parameter; r > 0 narrows x, r = 0 is coherent.
    """

    mean_x: float
    squeeze_r: float = 0.0

    def __post_init__(self):
        _require_finite(self, "mean_x", "squeeze_r")

    @property
    def sigma_x2(self) -> float:
        return 1.0 + math.exp(-2.0 * self.squeeze_r)

    @property
    def sigma_p2(self) -> float:
        return 1.0 + math.exp(2.0 * self.squeeze_r)

    @property
    def overlap_exponent(self) -> float:
        """Exponent damping interference between packets at +-mean_x."""
        return 0.5 * self.mean_x ** 2 * math.exp(2.0 * self.squeeze_r)


@dataclass(frozen=True)
class SuperpositionSpec:
    """Superposition c1 |packet at +x1> + c2 e^{i phi} |packet at -x1>.

    The two packets share the squeezing of ``mode`` and sit at +-mean_x;
    c1_mag and c2_mag are the real magnitudes (|c1|^2 + |c2|^2 = 1) and
    phase_phi the relative phase.  c2_mag = 0 reduces to a single
    squeezed packet.
    """

    mode: ModeSpec
    c1_mag: float = 1.0
    c2_mag: float = 0.0
    phase_phi: float = 0.0

    def __post_init__(self):
        _require_finite(self, "c1_mag", "c2_mag", "phase_phi")
        norm = self.c1_mag ** 2 + self.c2_mag ** 2
        if abs(norm - 1.0) > 1e-12:
            raise NonNormalizedAmplitudes(
                f"|c1|^2 + |c2|^2 = {norm!r}, expected 1 within 1e-12")
        if self.c1_mag < 0 or self.c2_mag < 0:
            raise NonNormalizedAmplitudes(
                "amplitude magnitudes must be non-negative")

    @property
    def x1(self) -> float:
        return self.mode.mean_x

    @property
    def fringe_weight(self) -> float:
        """Weight 2 |c1 c2| of the interference term."""
        return 2.0 * self.c1_mag * self.c2_mag

    @property
    def norm_factor(self) -> float:
        """State norm N = 1 / (1 + 2|c1 c2| cos(phi) e^{-overlap})."""
        ov = math.exp(-self.mode.overlap_exponent)
        return 1.0 / (1.0 + self.fringe_weight * math.cos(self.phase_phi) * ov)


@dataclass(frozen=True)
class TwoModeSpec:
    """System superposition entangled with a meter packet.

    The joint state is the branch-correlated superposition of
    (system at +x1, meter at +x1b) and (system at -x1, meter at -x1b)
    with equal magnitudes and relative phase taken from ``mode_a``.
    """

    mode_a: SuperpositionSpec
    mode_b: ModeSpec

    def __post_init__(self):
        if abs(self.mode_a.c1_mag ** 2 - 0.5) > 1e-12:
            raise NonNormalizedAmplitudes(
                "entangled scenarios need equal branch amplitudes 1/sqrt(2)")

    @property
    def x1(self) -> float:
        return self.mode_a.x1

    @property
    def x1b(self) -> float:
        return self.mode_b.mean_x


@dataclass(frozen=True)
class AmplifierSpec:
    """Measurement amplifier: rate g over [0, t_final] on an n_steps grid."""

    gain_rate_g: float
    t_final: float
    n_steps: int = 300

    def __post_init__(self):
        _require_finite(self, "gain_rate_g", "t_final", "n_steps")
        if self.gain_rate_g == 0.0:
            raise ZeroGain("amplifier rate g must be non-zero")
        if self.t_final <= 0.0:
            raise NonPositiveSteps(f"t_final = {self.t_final!r} must be > 0")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise NonPositiveSteps(f"n_steps = {self.n_steps!r} must be >= 1")

    @property
    def gain_tf(self) -> float:
        return math.exp(self.gain_rate_g * self.t_final)

    @property
    def grid(self) -> np.ndarray:
        """The n_steps + 1 grid times, 0 to t_final inclusive."""
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


StateSpec = Union[ModeSpec, SuperpositionSpec, TwoModeSpec]


def as_superposition(spec: Union[ModeSpec, SuperpositionSpec]) -> SuperpositionSpec:
    """Wrap a bare packet as the trivial (c2 = 0) superposition."""
    if isinstance(spec, SuperpositionSpec):
        return spec
    return SuperpositionSpec(mode=spec, c1_mag=1.0, c2_mag=0.0, phase_phi=0.0)


def gain(amp: AmplifierSpec, t) -> float:
    """Amplitude gain G(t) = exp(g t)."""
    return np.exp(amp.gain_rate_g * np.asarray(t, dtype=float))


def sigma_x2_at(mode: ModeSpec, amp: AmplifierSpec, t) -> float:
    g2 = gain(amp, t) ** 2
    return 1.0 + g2 * (mode.sigma_x2 - 1.0)


def sigma_p2_at(mode: ModeSpec, amp: AmplifierSpec, t) -> float:
    g2 = gain(amp, t) ** 2
    return 1.0 + (mode.sigma_p2 - 1.0) / g2


# Largest exponent a double holds, with headroom for sums of squares.
_MAX_LOG_SQUARE = math.log(sys.float_info.max) - 16.0


def _check_overflow(amp: AmplifierSpec, mode: ModeSpec, x_key: str,
                    r_key: str) -> None:
    """Reject a packet, or a gain, whose closed forms overflow a double.

    Every t = 0 product that ``GaussFringeDensity.moments`` squares (the
    centre, the widths 1 + e^{+-2r} and the fringe's wave number times
    its width, x1 e^{2r}) is at most max(|x1|, 1) 2 e^{2|r|}, and the
    gain scales it by G(t_final)^{+-1}.  The packet is checked first,
    so the bound quoted for the gain is positive.
    """
    room = 0.5 * _MAX_LOG_SQUARE - math.log(2.0 * max(abs(mode.mean_x), 1.0))
    if room <= 0.0:
        raise ScenarioError(f"{x_key} = {mode.mean_x:.6g} overflows the "
                            f"closed forms of this state")
    r = mode.squeeze_r
    if 2.0 * abs(r) >= room:
        raise ScenarioError(f"{r_key} = {r:.6g} overflows the closed forms "
                            f"of this state; it needs |{r_key}| < "
                            f"{0.5 * room:.4g}")
    gtf = amp.gain_rate_g * amp.t_final
    limit = room - 2.0 * abs(r)
    if abs(gtf) >= limit:
        raise ScenarioError(f"amp.gtf = {gtf:.6g} overflows at t_final; "
                            f"this state needs |amp.gtf| < {limit:.4g}")


def validate_scenario(spec: StateSpec, amp: AmplifierSpec) -> None:
    """Check a state/amplifier pairing.

    Parameters
    ----------
    spec : ModeSpec, SuperpositionSpec or TwoModeSpec
        A bare packet is checked as the trivial superposition's packet.
    amp : AmplifierSpec
        Amplifier acting on every mode of the state.

    Raises
    ------
    NonNormalizedAmplitudes, ZeroGain, NonPositiveSteps
        Propagated from the component specs.
    ScenarioError
        For a packet whose own closed forms would overflow (naming its
        key), or a gain whose closed forms at t_final would overflow.
    """
    if isinstance(spec, TwoModeSpec):
        _check_overflow(amp, spec.mode_a.mode, "state.x1", "state.r")
        _check_overflow(amp, spec.mode_b, "meter.x1b", "meter.r2")
        return
    _check_overflow(amp, as_superposition(spec).mode, "state.x1", "state.r")
