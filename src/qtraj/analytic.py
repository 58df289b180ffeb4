"""Closed-form phase-space densities for amplified measurement.

Everything here is built from one density family: a mixture of
axis-diagonal Gaussians plus at most one interference ("fringe") term

    rho(u) = norm * [ sum_i w_i prod_a N(u_a; mu_ia, s_ia^2)
                      + A prod_a N(u_a; m_a, f_a^2) cos(k . u + theta) ] ,

where N(u; mu, s^2) is the normalised Gaussian pdf.  The family is closed
under the operations the model needs:

* marginalising axis a multiplies A by exp(-k_a^2 f_a^2 / 2), adds
  k_a m_a to theta and drops the axis;
* rescaling u_a -> u_a / c scales means by 1/c, variances by 1/c^2 and
  the wave-vector component by c;
* convolving axis a with N(0, v) adds v to every variance on that axis
  (supported when the fringe does not oscillate along a).

The time-dependent distribution of an amplified superposition, all its
marginals and conditionals, the long-time outcome distributions, and the
entangled system-meter distribution are each a member of this family, so
the printed formulas fall out of the generic operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .core import (
    AmplifierSpec,
    ModeSpec,
    ScenarioError,
    SuperpositionSpec,
    TwoModeSpec,
    _require_finite,
    as_superposition,
    gain,
    sigma_p2_at,
    sigma_x2_at,
)

# Conditionals taken at t = 0 involve no amplifier; any one stands in.
_T0_AMP = AmplifierSpec(1.0, 1.0, 1)
_CDF_BINS = 20000  # bins of the CDF table over 12 sigma
_CDF_BLOCK = 2000  # bins per block of its Gauss-Legendre points


class TimeOutOfRange(ScenarioError):
    """Requested time outside the amplifier window [0, t_final]."""


class UnsupportedPhase(ScenarioError):
    """Closed form not available at this superposition phase."""


def _check_time(amp: AmplifierSpec, t: float) -> float:
    t = float(t)
    if t < -1e-12 or t > amp.t_final * (1.0 + 1e-12) + 1e-12:
        raise TimeOutOfRange(
            f"t = {t!r} outside [0, {amp.t_final!r}]")
    return min(max(t, 0.0), amp.t_final)


@dataclass(frozen=True)
class GaussComponent:
    """One diagonal Gaussian: non-negative weight, per-axis mean/variance."""

    weight: float
    means: Tuple[float, ...]
    variances: Tuple[float, ...]

    def __post_init__(self):
        _require_finite(self, "weight", "means", "variances")
        if self.weight < 0:
            raise ValueError(f"component weight {self.weight!r} < 0")
        if len(self.means) != len(self.variances):
            raise ValueError("means/variances length mismatch")
        if any(v <= 0 for v in self.variances):
            raise ValueError("component variances must be positive")


@dataclass(frozen=True)
class FringeTerm:
    """Interference term A * (Gaussian envelope) * cos(k . u + theta)."""

    amplitude: float
    means: Tuple[float, ...]
    variances: Tuple[float, ...]
    wave: Tuple[float, ...]
    phase: float

    def __post_init__(self):
        _require_finite(self, "amplitude", "means", "variances", "wave",
                        "phase")
        n = len(self.means)
        if len(self.variances) != n or len(self.wave) != n:
            raise ValueError("fringe parameter length mismatch")
        if any(v <= 0 for v in self.variances):
            raise ValueError("fringe envelope variances must be positive")


def _gauss_pdf(u, mean, var):
    return np.exp(-0.5 * (u - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


@dataclass(frozen=True)
class GaussFringeDensity:
    """Gaussian mixture plus one interference term on named axes.

    Attributes
    ----------
    gaussians : tuple of GaussComponent
    fringe : FringeTerm or None
    norm : float
        Overall positive prefactor; chosen so the density integrates to 1.
    axes : tuple of str
        Axis names, e.g. ("x", "p") or ("x_a", "p_a", "x_b", "p_b").
    """

    gaussians: Tuple[GaussComponent, ...]
    fringe: Optional[FringeTerm]
    norm: float = 1.0
    axes: Tuple[str, ...] = ("x", "p")

    def __post_init__(self):
        _require_finite(self, "norm")
        if self.norm <= 0:
            raise ValueError(f"norm {self.norm!r} must be positive")
        n = len(self.axes)
        for c in self.gaussians:
            if len(c.means) != n:
                raise ValueError("component dimension != number of axes")
        if self.fringe is not None and len(self.fringe.means) != n:
            raise ValueError("fringe dimension != number of axes")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def axis_index(self, axis: Union[int, str]) -> int:
        if isinstance(axis, str):
            return self.axes.index(axis)
        return axis

    # -- evaluation -----------------------------------------------------

    def density(self, *coords) -> np.ndarray:
        """Evaluate the density at broadcastable per-axis coordinates."""
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinate arrays")
        coords = [np.asarray(c, dtype=float) for c in coords]
        total = 0.0
        for c in self.gaussians:
            term = c.weight
            for u, mu, v in zip(coords, c.means, c.variances):
                term = term * _gauss_pdf(u, mu, v)
            total = total + term
        if self.fringe is not None:
            f = self.fringe
            term = f.amplitude
            arg = f.phase
            for u, mu, v, k in zip(coords, f.means, f.variances, f.wave):
                term = term * _gauss_pdf(u, mu, v)
                arg = arg + k * u
            total = total + term * np.cos(arg)
        return self.norm * total

    def total_mass(self) -> float:
        """Closed-form integral over all axes."""
        mass = sum(c.weight for c in self.gaussians)
        f = self._reduced_fringe(())
        if f is not None:
            mass += f.amplitude * math.cos(f.phase)
        return self.norm * mass

    def _reduced_fringe(self, keep) -> Optional[FringeTerm]:
        """The fringe with every axis outside ``keep`` integrated out."""
        f = self.fringe
        if f is None:
            return None
        amp, phase = f.amplitude, f.phase
        for j, (m, v, k) in enumerate(zip(f.means, f.variances, f.wave)):
            if j not in keep:
                amp *= math.exp(-0.5 * k * k * v)
                phase += k * m
        return FringeTerm(amp, tuple(f.means[i] for i in keep),
                          tuple(f.variances[i] for i in keep),
                          tuple(f.wave[i] for i in keep), phase)

    # -- closed-form moments --------------------------------------------

    def moments(self, axis: Union[int, str]) -> Tuple[float, float]:
        """Mean and variance along one axis (normalisation-independent)."""
        ai = self.axis_index(axis)
        m0 = sum(c.weight for c in self.gaussians)
        m1 = sum(c.weight * c.means[ai] for c in self.gaussians)
        m2 = sum(c.weight * (c.variances[ai] + c.means[ai] ** 2)
                 for c in self.gaussians)
        red = self._reduced_fringe((ai,))
        if red is not None:
            (m,), (v,), (k,) = red.means, red.variances, red.wave
            damp = red.amplitude * math.exp(-0.5 * k * k * v)
            co = math.cos(k * m + red.phase)
            si = math.sin(k * m + red.phase)
            m0 += damp * co
            m1 += damp * (m * co - k * v * si)
            m2 += damp * ((v + m * m - k * k * v * v) * co
                          - 2.0 * k * m * v * si)
        mean = m1 / m0
        return mean, m2 / m0 - mean * mean

    # -- family operations ----------------------------------------------

    def marginal(self, *drop) -> "GaussFringeDensity":
        """Integrate out the named axes, keeping the rest in order."""
        drop_idx = {self.axis_index(a) for a in drop}
        keep = [i for i in range(self.ndim) if i not in drop_idx]
        if not keep:
            raise ValueError("cannot marginalise away every axis")
        comps = tuple(
            GaussComponent(c.weight,
                           tuple(c.means[i] for i in keep),
                           tuple(c.variances[i] for i in keep))
            for c in self.gaussians)
        axes = tuple(self.axes[i] for i in keep)
        cls = Marginal1D if len(keep) == 1 else GaussFringeDensity
        return cls(gaussians=comps, fringe=self._reduced_fringe(keep),
                   norm=self.norm, axes=axes)

    def _mapped(self, axis: Union[int, str], mean, var, wave
                ) -> "GaussFringeDensity":
        """The same density with, on one axis only, every mean, variance
        and fringe wave number passed through ``mean``, ``var``, ``wave``."""
        ai = self.axis_index(axis)

        def on_axis(tup, fn):
            return tuple(fn(v) if j == ai else v for j, v in enumerate(tup))

        comps = tuple(GaussComponent(c.weight, on_axis(c.means, mean),
                                     on_axis(c.variances, var))
                      for c in self.gaussians)
        fr = self.fringe
        if fr is not None:
            fr = FringeTerm(fr.amplitude, on_axis(fr.means, mean),
                            on_axis(fr.variances, var), on_axis(fr.wave, wave),
                            fr.phase)
        return type(self)(gaussians=comps, fringe=fr, norm=self.norm,
                          axes=self.axes)

    def scaled(self, axis: Union[int, str], factor: float) -> "GaussFringeDensity":
        """Density of u_axis / factor (e.g. gain-rescaled outcomes)."""
        return self._mapped(axis, lambda m: m / factor,
                            lambda v: v / factor ** 2, lambda k: k * factor)

    def convolved(self, axis: Union[int, str], added_var: float) -> "GaussFringeDensity":
        """Convolve one axis with N(0, added_var).

        Only supported when the fringe does not oscillate along that axis
        (its wave-vector component is zero there); the general case would
        leave the family.
        """
        fr = self.fringe
        if fr is not None and fr.wave[self.axis_index(axis)] != 0.0:
            raise ValueError("cannot convolve along an oscillating axis")
        return self._mapped(axis, lambda m: m, lambda v: v + added_var,
                            lambda k: k)


class Marginal1D(GaussFringeDensity):
    """One-variable restriction of the density family."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.axes) != 1:
            raise ValueError("Marginal1D needs exactly one axis")

    def pdf(self, u) -> np.ndarray:
        return self.density(u)

    def bin_masses(self, edges: np.ndarray, order: int = 24) -> np.ndarray:
        """Integrate the density over each bin by Gauss-Legendre rule."""
        edges = np.asarray(edges, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(order)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = self.density(pts)
        return (vals * weights[None, :]).sum(axis=1) * half

    def support_hint(self, n_sigma: float = 10.0) -> Tuple[float, float]:
        """Interval outside which the density is negligible."""
        terms = self.gaussians + (() if self.fringe is None else (self.fringe,))
        reach = [(t.means[0], n_sigma * math.sqrt(t.variances[0]))
                 for t in terms]
        return min(m - r for m, r in reach), max(m + r for m, r in reach)

    def _cdf_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """A dense grid over the support hint and the cumulative masses at
        its points (the truncated tail mass is far below any statistical
        resolution).  Masses are taken a block of bins at a time; each
        bin sums its own row, so the bits are those of the whole grid."""
        grid = np.linspace(*self.support_hint(12.0), _CDF_BINS + 1)
        masses = [self.bin_masses(grid[j:j + _CDF_BLOCK + 1], order=8)
                  for j in range(0, _CDF_BINS, _CDF_BLOCK)]
        return grid, np.concatenate([[0.0], np.cumsum(np.concatenate(masses))])

    def cdf(self, points) -> np.ndarray:
        """The CDF, interpolated between the masses of `_cdf_table`."""
        grid, cdfv = self._cdf_table()
        return np.interp(np.asarray(points, dtype=float), grid, cdfv,
                         left=0.0, right=cdfv[-1])


# ----------------------------------------------------------------------
# Single-mode distributions
# ----------------------------------------------------------------------

def _at(mode: ModeSpec, amp: AmplifierSpec, t: float
        ) -> Tuple[float, float, float]:
    """Gain G(t) and one packet's variances (sigma_x^2(t), sigma_p^2(t))."""
    return (float(gain(amp, t)), sigma_x2_at(mode, amp, t),
            sigma_p2_at(mode, amp, t))


def q_single_mode(spec: Union[ModeSpec, SuperpositionSpec], amp: AmplifierSpec,
                  t: float) -> GaussFringeDensity:
    """Phase-space distribution of an amplified superposition at time t.

    Two Gaussians riding at +-G(t) x1 with variances (sigma_x^2(t),
    sigma_p^2(t)), plus an interference term centred at the origin whose
    oscillation lives along p with wave number G(t) x1 / sigma_x^2(t).

    Parameters
    ----------
    spec : ModeSpec or SuperpositionSpec
    amp : AmplifierSpec
    t : float
        Time in [0, t_final].

    Returns
    -------
    GaussFringeDensity with axes ("x", "p").
    """
    sup = as_superposition(spec)
    g, sx2, sp2 = _at(sup.mode, amp, _check_time(amp, t))
    x1 = sup.x1
    comps = (
        GaussComponent(sup.c1_mag ** 2, (g * x1, 0.0), (sx2, sp2)),
        GaussComponent(sup.c2_mag ** 2, (-g * x1, 0.0), (sx2, sp2)),
    )
    fringe = None
    if sup.fringe_weight != 0.0:
        fringe = FringeTerm(
            amplitude=sup.fringe_weight * math.exp(-0.5 * (g * x1) ** 2 / sx2),
            means=(0.0, 0.0), variances=(sx2, sp2),
            wave=(0.0, g * x1 / sx2), phase=sup.phase_phi)
    return GaussFringeDensity(gaussians=comps, fringe=fringe,
                              norm=sup.norm_factor, axes=("x", "p"))


def marginal_x(spec, amp: AmplifierSpec, t: float) -> Marginal1D:
    """Position marginal of the amplified superposition at time t.

    The interference survives the p-integration as a non-oscillating
    Gaussian of weight 2|c1 c2| cos(phi) exp(-overlap), centred at 0 with
    the component variance; for cos(phi) = 0 it vanishes and the marginal
    is the plain two-Gaussian mixture.
    """
    return q_single_mode(spec, amp, t).marginal("p")


def marginal_p(spec, amp: AmplifierSpec, t: float) -> Marginal1D:
    """Momentum marginal: a single Gaussian carrying the fringe pattern."""
    return q_single_mode(spec, amp, t).marginal("x")


def _branch_fringe_ratio(sup: SuperpositionSpec, u):
    """Stable 2|c1 c2| / (|c1|^2 e^u + |c2|^2 e^-u) for u = x G x1 / sigma_x^2."""
    w = sup.fringe_weight
    if w == 0.0:
        return np.zeros_like(np.asarray(u, dtype=float))
    u = np.asarray(u, dtype=float)
    la = np.log(sup.c1_mag ** 2) + u
    lb = np.log(sup.c2_mag ** 2) - u
    return w * np.exp(-np.logaddexp(la, lb))


def conditional_p_given_x(spec, amp: AmplifierSpec, t: float,
                          x: float) -> Marginal1D:
    """Momentum distribution conditioned on the position value at time t.

    N(p; 0, sigma_p^2(t)) [1 + s(x) cos(phi + p G x1 / sigma_x^2(t))]
    with the branch-weighted fringe ratio
    s(x) = 2|c1 c2| / (|c1|^2 e^u + |c2|^2 e^-u), u = x G x1 / sigma_x^2;
    for equal amplitudes s = sech(u).
    """
    sup = as_superposition(spec)
    g, sx2, sp2 = _at(sup.mode, amp, _check_time(amp, t))
    k = g * sup.x1 / sx2
    s = float(_branch_fringe_ratio(sup, x * g * sup.x1 / sx2))
    fringe = (FringeTerm(s, (0.0,), (sp2,), (k,), sup.phase_phi)
              if s != 0.0 else None)
    dens = Marginal1D(gaussians=(GaussComponent(1.0, (0.0,), (sp2,)),),
                      fringe=fringe, axes=("p",))
    return replace(dens, norm=1.0 / dens.total_mass())


def born_x(spec) -> Marginal1D:
    """Infinite-gain limit of the gain-rescaled position marginal.

    Two Gaussians of variance exp(-2r) at +-x1 with weights |c_j|^2 plus
    the overlap-suppressed interference Gaussian — i.e. the measured
    outcome distribution the amplification steers the rescaled variable
    x0 = x/G towards.
    """
    sup = as_superposition(spec)
    v = math.exp(-2.0 * sup.mode.squeeze_r)
    x1 = sup.x1
    comps = (GaussComponent(sup.c1_mag ** 2, (x1,), (v,)),
             GaussComponent(sup.c2_mag ** 2, (-x1,), (v,)))
    fringe = None
    if sup.fringe_weight != 0.0:
        fringe = FringeTerm(
            amplitude=sup.fringe_weight * math.exp(-sup.mode.overlap_exponent),
            means=(0.0,), variances=(v,), wave=(0.0,), phase=sup.phase_phi)
    return Marginal1D(gaussians=comps, fringe=fringe, norm=sup.norm_factor,
                      axes=("x",))


def born_p(spec) -> Marginal1D:
    """Long-time limit of the rescaled momentum marginal under g < 0.

    A Gaussian of variance exp(2r) carrying the undamped fringe
    cos(phi + p0 x1): de-amplifying x restores full interference
    visibility in the conjugate outcome.
    """
    sup = as_superposition(spec)
    v = math.exp(2.0 * sup.mode.squeeze_r)
    comps = (GaussComponent(1.0, (0.0,), (v,)),)
    fringe = None
    if sup.fringe_weight != 0.0:
        fringe = FringeTerm(sup.fringe_weight, (0.0,), (v,), (sup.x1,),
                            sup.phase_phi)
    return Marginal1D(gaussians=comps, fringe=fringe, norm=sup.norm_factor,
                      axes=("p",))


def _phase_kind(phi: float) -> str:
    if abs(math.remainder(phi, 2.0 * math.pi)) < 1e-12:
        return "zero"
    if abs(math.remainder(phi - 0.5 * math.pi, 2.0 * math.pi)) < 1e-12:
        return "quarter"
    return "other"


def wigner_cat(spec) -> GaussFringeDensity:
    """Wigner function of the (possibly squeezed) superposition.

    Supported phases: phi = 0 returns the two branch Gaussians of
    variances (e^{-2r}, e^{2r}) plus the interference Gaussian at the
    origin oscillating along p; phi = pi/2 returns the even two-Gaussian
    part.  Other phases raise UnsupportedPhase.  A single packet
    (c2 = 0) is a plain Gaussian for any phase.  Positivity is *not*
    asserted: the interference term swings negative by construction.

    The interference parameters are fixed by requiring that convolving
    with the unit vacuum Gaussian per axis reproduces the phase-space
    distribution at t = 0 (that consistency is what `fbc_from_wigner`
    exploits).
    """
    sup = as_superposition(spec)
    vx = math.exp(-2.0 * sup.mode.squeeze_r)
    vp = math.exp(2.0 * sup.mode.squeeze_r)
    x1 = sup.x1
    if sup.fringe_weight == 0.0:
        return GaussFringeDensity(
            gaussians=(GaussComponent(1.0, (x1, 0.0), (vx, vp)),),
            fringe=None, norm=1.0, axes=("x", "p"))
    kind = _phase_kind(sup.phase_phi)
    comps = (GaussComponent(sup.c1_mag ** 2, (x1, 0.0), (vx, vp)),
             GaussComponent(sup.c2_mag ** 2, (-x1, 0.0), (vx, vp)))
    if kind == "quarter":
        return GaussFringeDensity(gaussians=comps, fringe=None,
                                  norm=sup.norm_factor, axes=("x", "p"))
    if kind != "zero":
        raise UnsupportedPhase(
            f"no closed-form Wigner at phi = {sup.phase_phi!r}")
    sx2 = sup.mode.sigma_x2
    sp2 = sup.mode.sigma_p2
    wave_p = x1 * sp2 / (sx2 * vp)
    amp = sup.fringe_weight * math.exp(
        -0.5 * x1 ** 2 / sx2 + 0.5 * x1 ** 2 * sp2 / (sx2 ** 2 * vp))
    fringe = FringeTerm(amp, (0.0, 0.0), (vx, vp), (0.0, wave_p), 0.0)
    return GaussFringeDensity(gaussians=comps, fringe=fringe,
                              norm=sup.norm_factor, axes=("x", "p"))


def fbc_from_wigner(spec, amp: AmplifierSpec) -> Marginal1D:
    """Future boundary density built from the Wigner marginal.

    Rescale the Wigner x-marginal by G(t_final) and convolve with the
    unit Gaussian of vacuum noise; the result equals the position
    marginal at t_final exactly, which is the boundary-sampling identity
    the `wigner` boundary method relies on.
    """
    marginal = wigner_cat(spec).marginal("p")
    return marginal.scaled("x", 1.0 / amp.gain_tf).convolved("x", 1.0)


@dataclass(frozen=True)
class PostselectedMoments:
    """Phase-space moments after selecting the sign of the amplified x.

    ``var_x`` and ``var_p`` are phase-space variances; the measured
    quadrature variances are smaller by 1 (``observed_*``).
    """

    var_x: float
    mean_p: float
    var_p: float

    @property
    def observed_var_x(self) -> float:
        return self.var_x - 1.0

    @property
    def observed_var_p(self) -> float:
        return self.var_p - 1.0

    @property
    def observed_product(self) -> float:
        return math.sqrt(self.observed_var_x * self.observed_var_p)


def _remnant_damping(mode: ModeSpec) -> float:
    """exp(-x1^2 (1 + sigma_p^2/sigma_x^2) / (2 sigma_x^2)) of one packet."""
    sx2, sp2 = mode.sigma_x2, mode.sigma_p2
    return math.exp(-0.5 * mode.mean_x ** 2 * (1.0 + sp2 / sx2) / sx2)


def variances_postselected_analytic(spec) -> PostselectedMoments:
    """Conditional moments of a sign-postselected balanced superposition.

    Valid for equal branch amplitudes at phase pi/2 (where the position
    marginal carries no interference, so each sign branch is exactly one
    displaced Gaussian in x).  The conditional momentum keeps a fringe
    remnant producing

        <p>_+ = -(sigma_p^2 x1 / sigma_x^2)
                 exp(-x1^2 (1 + sigma_p^2/sigma_x^2) / (2 sigma_x^2)),
        (Delta p)_+^2 = sigma_p^2 - <p>_+^2 ,

    while (Delta x)_+^2 = sigma_x^2.
    """
    sup = as_superposition(spec)
    if sup.fringe_weight != 0.0:
        if abs(sup.c1_mag ** 2 - 0.5) > 1e-12 or _phase_kind(sup.phase_phi) != "quarter":
            raise UnsupportedPhase(
                "closed-form postselected moments need equal amplitudes "
                "at phase pi/2")
    sx2 = sup.mode.sigma_x2
    sp2 = sup.mode.sigma_p2
    x1 = sup.x1
    if sup.fringe_weight == 0.0:
        return PostselectedMoments(var_x=sx2, mean_p=0.0, var_p=sp2)
    mean_p = -(sp2 * x1 / sx2) * _remnant_damping(sup.mode)
    return PostselectedMoments(var_x=sx2, mean_p=mean_p,
                               var_p=sp2 - mean_p ** 2)


# ----------------------------------------------------------------------
# Two-mode (system + meter) distributions
# ----------------------------------------------------------------------

def two_mode_q(spec: TwoModeSpec, amp: AmplifierSpec, t: float
               ) -> GaussFringeDensity:
    """Joint phase-space distribution of system and meter at time t.

    Axes ("x_a", "p_a", "x_b", "p_b").  Two branch Gaussians displaced
    to +-G (x1, x1b) plus one four-variable interference term
    whose oscillation involves both momenta.
    """
    if not isinstance(spec, TwoModeSpec):
        raise ScenarioError("two_mode_q needs a TwoModeSpec")
    t = _check_time(amp, t)
    sup = spec.mode_a
    g, sxa, spa = _at(sup.mode, amp, t)
    _, sxb, spb = _at(spec.mode_b, amp, t)
    x1, x1b = spec.x1, spec.x1b
    ea = sup.mode.overlap_exponent
    eb = spec.mode_b.overlap_exponent
    f2 = 1.0 + math.cos(sup.phase_phi) * math.exp(-ea - eb)
    comps = (
        GaussComponent(0.5, (g * x1, 0.0, g * x1b, 0.0), (sxa, spa, sxb, spb)),
        GaussComponent(0.5, (-g * x1, 0.0, -g * x1b, 0.0), (sxa, spa, sxb, spb)),
    )
    fringe = FringeTerm(
        amplitude=math.exp(-0.5 * (g * x1) ** 2 / sxa
                           - 0.5 * (g * x1b) ** 2 / sxb),
        means=(0.0, 0.0, 0.0, 0.0),
        variances=(sxa, spa, sxb, spb),
        wave=(0.0, g * x1 / sxa, 0.0, g * x1b / sxb),
        phase=sup.phase_phi)
    return GaussFringeDensity(gaussians=comps, fringe=fringe, norm=1.0 / f2,
                              axes=("x_a", "p_a", "x_b", "p_b"))


def meter_condition_weights(spec: TwoModeSpec, amp: AmplifierSpec, t: float,
                            x_b):
    """Branch weights and fringe ratio conditioned on a meter position.

    Returns (w_plus, s) with u = x_b G x1b / sigma_xb^2(t): the weight
    (1 + tanh u)/2 of the +x1 branch and the interference suppression
    factor sech u (the branch fringe ratio at the equal amplitudes of a
    TwoModeSpec), both vectorised over x_b and finite for any |u|.
    """
    g, sxb, _ = _at(spec.mode_b, amp, _check_time(amp, t))
    u = np.asarray(x_b, dtype=float) * g * spec.x1b / sxb
    return 0.5 * (1.0 + np.tanh(u)), _branch_fringe_ratio(spec.mode_a, u)


def _meter_branch_density(spec: TwoModeSpec, w_plus: float, s: float,
                          amp: AmplifierSpec = _T0_AMP, t: float = 0.0
                          ) -> GaussFringeDensity:
    """Un-normalised (x_a, p_a, p_b) density of the meter-conditioned state.

    w_plus and s are the branch weight and interference suppression of
    ``meter_condition_weights``.  Both enter linearly, so the density at
    averaged factors is the average of the per-record densities.
    """
    sup = spec.mode_a
    g, sxa, spa = _at(sup.mode, amp, t)
    _, sxb, spb = _at(spec.mode_b, amp, t)
    x1 = g * spec.x1
    comps = (GaussComponent(w_plus, (x1, 0.0, 0.0), (sxa, spa, spb)),
             GaussComponent(1.0 - w_plus, (-x1, 0.0, 0.0), (sxa, spa, spb)))
    fringe = FringeTerm(
        amplitude=s * math.exp(-0.5 * x1 ** 2 / sxa),
        means=(0.0, 0.0, 0.0), variances=(sxa, spa, spb),
        wave=(0.0, x1 / sxa, g * spec.x1b / sxb), phase=sup.phase_phi)
    return GaussFringeDensity(gaussians=comps, fringe=fringe, norm=1.0,
                              axes=("x_a", "p_a", "p_b"))


def conditional_given_meter_x(spec: TwoModeSpec, x_b: float,
                              amp: AmplifierSpec = _T0_AMP,
                              t: float = 0.0) -> GaussFringeDensity:
    """Distribution of (x_a, p_a, p_b) given the meter position at time t.

    A branch mixture weighted by w_plus/w_minus plus the
    sech-suppressed interference term oscillating in both momenta.
    Defaults to t = 0 (the inferred-state construction conditions on
    backward-propagated meter values).
    """
    t = _check_time(amp, t)
    w_plus, s = meter_condition_weights(spec, amp, t, x_b)
    dens = _meter_branch_density(spec, float(w_plus), float(s), amp, t)
    return replace(dens, norm=1.0 / dens.total_mass())


def inferred_state_A_analytic(spec: TwoModeSpec, branch: int = +1
                              ) -> GaussFringeDensity:
    """Large-meter limit of the system state inferred from the meter sign.

    For branch +1: the phase-space Gaussian of the packet at +x1 with a
    residual interference term damped by the meter factor
    exp(-x1b^2 (1 + sigma_pb^2/sigma_xb^2) / (2 sigma_xb^2)); as
    x1b grows the correction dies and the packet alone remains.  Only
    the pi/2 phase (interference-free meter marginal) is supported.
    """
    sup = spec.mode_a
    if _phase_kind(sup.phase_phi) != "quarter":
        raise UnsupportedPhase("inferred-state closed form needs phase pi/2")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    sxa = sup.mode.sigma_x2
    spa = sup.mode.sigma_p2
    x1 = spec.x1
    comps = (GaussComponent(1.0, (branch * x1, 0.0), (sxa, spa)),)
    fringe = FringeTerm(
        amplitude=(_remnant_damping(spec.mode_b)
                   * math.exp(-0.5 * x1 ** 2 / sxa)),
        means=(0.0, 0.0), variances=(sxa, spa),
        wave=(0.0, x1 / sxa), phase=branch * 0.5 * math.pi)
    return GaussFringeDensity(gaussians=comps, fringe=fringe, norm=1.0,
                              axes=("x", "p"))


@dataclass(frozen=True)
class MeterMoments:
    """Observed (measured) conditional moments of the postselected meter."""

    observed_var_xb: float
    mean_pb: float
    observed_var_pb: float


def meter_conditional_variances(spec: TwoModeSpec) -> MeterMoments:
    """Measured meter variances after selecting its amplified sign.

    The position variance collapses to the squeezed value e^{-2 r2}.
    The momentum keeps a fringe remnant damped by BOTH modes:

        <p_b>_+ = -(x1b sigma_pb^2 / sigma_xb^2)
                   exp(-x1^2 (1 + sigma_pa^2/sigma_xa^2) / (2 sigma_xa^2))
                   exp(-x1b^2 (1 + sigma_pb^2/sigma_xb^2) / (2 sigma_xb^2))

    and (observed) variance sigma_pb^2 - <p_b>_+^2 - 1; for a coherent
    meter on a coherent system this is
    1 - x1b^2 e^{-x1b^2} e^{-x1^2}  (equal to
    1 - 4 b0^2 e^{-4 b0^2} e^{-4 a0^2} in amplitude units).
    """
    sup = spec.mode_a
    if _phase_kind(sup.phase_phi) != "quarter":
        raise UnsupportedPhase("meter moments closed form needs phase pi/2")
    sxb, spb = spec.mode_b.sigma_x2, spec.mode_b.sigma_p2
    x1b = spec.x1b
    mean_pb = (-(x1b * spb / sxb) * _remnant_damping(sup.mode)
               * _remnant_damping(spec.mode_b))
    return MeterMoments(
        observed_var_xb=sxb - 1.0,
        mean_pb=mean_pb,
        observed_var_pb=spb - mean_pb ** 2 - 1.0)

