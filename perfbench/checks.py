"""Correctness checks of every benchmark operation.

Each check compares the program's output with references computed apart
from the Monte Carlo path, and with properties the method must have.
Short formulas are written out here from the conventions of the README
(x = a + a^dagger, p = (a - a^dagger)/i, vacuum variance 1 per axis in
the wave function and 2 in the phase-space distribution); longer
derivations use the package's closed-form twins, which share no code
with the simulation.  A check returns a list of problems; an empty list
means the output passed.

Statistical tolerances are ``Z`` standard errors.  The checks see a few
hundred roughly independent statistics per run, so a five-sigma limit
keeps false alarms below one in a thousand runs while any real fault of
the size the self-test plants shows up at tens of sigma.
"""

from __future__ import annotations

import csv
import math

import numpy as np

Z = 5.0
KS_ALPHA = 1e-6
MIN_EXPECTED = 25.0
LEG_NODES, LEG_WEIGHTS = np.polynomial.legendre.leggauss(32)


# ---------------------------------------------------------------------------
# reading CLI output


def read_csv(path):
    """(comment lines, header, rows as lists of strings)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    reader = list(csv.reader(body))
    return comments, reader[0], reader[1:]


def columns(header, rows):
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def floats(values):
    return np.array([float(v) for v in values])


def _within(problems, label, got, ref, tol):
    if not abs(got - ref) <= tol:
        problems.append(f"{label}: got {got:.10g}, expected {ref:.10g} "
                        f"+- {tol:.3g}")


# ---------------------------------------------------------------------------
# closed forms written out for the checks


def gauss_pdf(u, mean, var):
    return np.exp(-0.5 * (u - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def bin_masses(pdf, edges):
    """Integral of ``pdf`` over each bin by a 32-point Gauss-Legendre rule."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * LEG_NODES[None, :]
    return (pdf(pts) * LEG_WEIGHTS[None, :]).sum(axis=1) * half


def position_law(x1, r, phi):
    """|psi(x)|^2 of |+x1/2> + e^{i phi} |-x1/2> squeezed by r.

    Each packet has the wave function exp(-(x -+ x1)^2 / (4v)) with
    v = e^{-2r}; their product integrates to e^{-x1^2 / (2v)}.
    """
    v = math.exp(-2.0 * r)
    overlap = math.exp(-0.5 * x1 * x1 / v)
    norm = 1.0 + math.cos(phi) * overlap

    def pdf(x):
        return (0.5 * gauss_pdf(x, x1, v) + 0.5 * gauss_pdf(x, -x1, v)
                + math.cos(phi) * overlap * gauss_pdf(x, 0.0, v)) / norm
    return pdf


def momentum_law(x1, r, phi, blur=0.0):
    """|psi~(p)|^2 of the same state, convolved with N(0, blur).

    The packets' momentum wave functions are exp(-p^2/(4v)) e^{-+i p x1/2}
    with v = e^{2r}, so |psi~|^2 = N(p; 0, v)(1 + cos(phi + p x1)) / norm.
    Convolving with N(0, w) gives N(p; 0, v + w) times
    1 + e^{-x1^2 v w / (2 (v + w))} cos(phi + x1 p v / (v + w)).
    """
    v = math.exp(2.0 * r)
    w = blur
    norm = 1.0 + math.cos(phi) * math.exp(-0.5 * x1 * x1 * v)
    damp = math.exp(-0.5 * x1 * x1 * v * w / (v + w))
    k = x1 * v / (v + w)

    def pdf(p):
        return gauss_pdf(p, 0.0, v + w) * (1.0 + damp * np.cos(phi + k * p)) \
            / norm
    return pdf


def cat_phase_space_moments(x1, phi):
    """Variances of x and p in the phase-space distribution at t = 0 of an
    unsqueezed balanced cat, from antinormal ordering:
    <x^2> = 2 Re<a^2> + 2 (<n> + 1) and <p^2> = -2 Re<a^2> + 2 (<n> + 1),
    with <a^2> = alpha^2 and <n> = alpha^2 (1 - c)/(1 + c),
    c = cos(phi) e^{-2 alpha^2}, alpha = x1 / 2.  Both means vanish."""
    a2 = 0.25 * x1 * x1
    c = math.cos(phi) * math.exp(-2.0 * a2)
    n = a2 * (1.0 - c) / (1.0 + c)
    return 2.0 * a2 + 2.0 * n + 2.0, -2.0 * a2 + 2.0 * n + 2.0


def transported(var0_x, var0_p, gain):
    """Amplification transport of the README: x variances grow as
    1 + G^2 (v - 1), p variances shrink as 1 + (v - 1) / G^2."""
    return (1.0 + gain * gain * (var0_x - 1.0),
            1.0 + (var0_p - 1.0) / (gain * gain))


def quarter_cat_moments(x1, r, gain, meter=None):
    """Moments at gain G of the x and p marginals of a balanced cat at
    phase pi/2, optionally entangled with a meter packet (x1b, r2).

    At phase pi/2 the position marginal carries no interference: two
    packets at +-G x1 of variance s_x(t) = 1 + G^2 e^{-2r}.  The momentum
    marginal is N(0, s_p(t)) times 1 + A cos(pi/2 + k p), odd in p, so its
    second moment is s_p(t) and its mean is -A k s_p e^{-k^2 s_p / 2}, with
    A = e^{-(G x1)^2 / (2 s_x)} (times the meter's overlap and momentum
    damping for a pair) and k = G x1 / s_x.
    Returns (mean_x, var_x, m4_x, mean_p, var_p, m4_p) with m4 the
    fourth central moment.
    """
    sx, sp = transported(1.0 + math.exp(-2.0 * r), 1.0 + math.exp(2.0 * r),
                         gain)
    shift = gain * x1
    k = shift / sx
    amp = math.exp(-0.5 * shift * shift / sx)
    if meter is not None:
        x1b, r2 = meter
        sxb, spb = transported(1.0 + math.exp(-2.0 * r2),
                               1.0 + math.exp(2.0 * r2), gain)
        kb = gain * x1b / sxb
        amp *= math.exp(-0.5 * (gain * x1b) ** 2 / sxb - 0.5 * kb * kb * spb)
    mean_p = -amp * k * sp * math.exp(-0.5 * k * k * sp)
    var_x = sx + shift * shift
    m4_x = 3 * sx * sx + 6 * sx * shift * shift + shift ** 4
    return (0.0, var_x, m4_x, mean_p, sp - mean_p * mean_p, 3 * sp * sp)


def meter_branch_expectations(x1b, r2, g, t_final):
    """E[w_plus], E[w_plus^2], E[sech], E[sech^2] over the initial meter
    positions of the trajectories whose final meter position is >= 0.

    The final meter position is 1/2 N(+-G x1b, s(t_f)); relaxing backward
    over t_f gives x(0) = c x(t_f) + sqrt(1 - c^2) z with c = e^{-g t_f}.
    With u = x(0) x1b / s_x(0): w_plus = (1 + tanh u) / 2 and
    sech = 1 / cosh u.  Integrated by tensor Gauss-Legendre quadrature.
    """
    gain = math.exp(g * t_final)
    sx0 = 1.0 + math.exp(-2.0 * r2)
    s_tf = 1.0 + gain * gain * (sx0 - 1.0)
    c = math.exp(-g * t_final)
    resid = 1.0 - c * c
    center = gain * x1b
    y_hi = center + 12.0 * math.sqrt(s_tf)
    y, wy = _gl(0.0, y_hi, 800)
    x, wx = _gl(-12.0 * math.sqrt(resid), c * y_hi + 12.0 * math.sqrt(resid),
                1600)
    mix = 0.5 * (gauss_pdf(y, center, s_tf) + gauss_pdf(y, -center, s_tf))
    kern = gauss_pdf(x[None, :], c * y[:, None], resid)
    weight = ((wy * mix) @ kern) * wx
    total = weight.sum()
    u = x * x1b / sx0
    w_plus = 0.5 * (1.0 + np.tanh(u))
    sech = 1.0 / np.cosh(np.minimum(np.abs(u), 700.0))
    e = [float((weight * f).sum() / total)
         for f in (w_plus, w_plus * w_plus, sech, sech * sech)]
    return e[0], e[1], e[2], e[3]


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def ks_critical(n):
    return math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) / math.sqrt(n)


def symmetric_split(problems, label, n_plus, n_minus, n):
    if n_plus + n_minus != n:
        problems.append(f"{label}: branches hold {n_plus} + {n_minus} "
                        f"trajectories, not {n}")
    _within(problems, f"{label} plus-branch count", n_plus, 0.5 * n,
            Z * 0.5 * math.sqrt(n))


def check_moments(problems, label, m, mean, var, m4):
    """Sample mean and variance against their references, with standard
    errors sqrt(var / n) and sqrt((m4 - var^2) / n) from the reference
    variance and fourth central moment."""
    n = m["n"]
    _within(problems, f"{label} mean", m["mean"], mean, Z * math.sqrt(var / n))
    _within(problems, f"{label} variance", m["var"], var,
            Z * math.sqrt(max(m4 - var * var, 0.0) / n))


def sample_se_var(m):
    """Standard error of a sample variance from the sample's own moments."""
    return math.sqrt(max(m["m4"] - m["var"] ** 2, 0.0) / m["n"])


def binned_law(problems, label, counts, n_total, pdf, edges):
    """max|z| of the bin counts and the binned KS distance against a law.

    Masses are renormalised to the histogram range, as the counts are.
    Bins expecting fewer than MIN_EXPECTED counts are pooled: there a
    single count is a many-sigma z-score, because the count is Poisson,
    not normal.  If the pool still expects fewer, its count may exceed
    the expectation by Z sqrt(expected) + Z.  The binned KS distance is
    at most the sample KS distance, so the asymptotic critical value at
    KS_ALPHA bounds it.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    if n < 0.99 * n_total:
        problems.append(f"{label}: only {n:.0f} of {n_total} samples in range")
    masses = bin_masses(pdf, edges)
    p = masses / masses.sum()
    big = n * p >= MIN_EXPECTED
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(n * p[big], n * p[~big].sum())
    z = (obs - exp) / np.sqrt(exp * (1.0 - exp / n))
    if exp[-1] < MIN_EXPECTED:
        _within(problems, f"{label} count in bins the law nearly empties",
                obs[-1], exp[-1], Z * math.sqrt(exp[-1]) + Z)
        z = z[:-1]
    if not np.max(np.abs(z)) < Z:
        problems.append(f"{label}: max|z| = {np.max(np.abs(z)):.2f} >= {Z}")
    ks = float(np.max(np.abs(np.cumsum(counts / n) - np.cumsum(p))))
    if not ks < ks_critical(n):
        problems.append(f"{label}: binned KS {ks:.5f} >= {ks_critical(n):.5f}")


# ---------------------------------------------------------------------------
# CLI operations


def check_run(op, out_dir):
    """``qtraj run``: every grid time's moments follow the transport laws."""
    sc = op["scenario"]
    problems = []
    _, header, rows = read_csv(f"{out_dir}/summary.csv")
    col = columns(header, rows)
    t = floats(col["t"])
    n = sc["trajectories"]
    if len(t) != sc["n_steps"] + 1 or set(col["n"]) != {str(n)}:
        problems.append("summary.csv: wrong grid length or trajectory count")
        return problems
    # (column suffix, x1, r, the other mode of a pair or None)
    if sc["kind"] == "two_mode":
        modes = [("", sc["x1"], sc["r"], (sc["x1b"], sc["r2"])),
                 ("_b", sc["x1b"], sc["r2"], (sc["x1"], sc["r"]))]
    else:
        modes = [("", sc["x1"], sc["r"], None)]
    for j, tj in enumerate(t):
        gain = math.exp(sc["g"] * tj)
        for suffix, x1, r, other in modes:
            mx, vx, m4x, mp, vp, m4p = quarter_cat_moments(x1, r, gain, other)
            lab = f"summary t={tj:.4g}"
            check_moments(problems, f"{lab} x{suffix}", {
                "n": n, "mean": float(col["mean_x" + suffix][j]),
                "var": float(col["var_x" + suffix][j])}, mx, vx, m4x)
            check_moments(problems, f"{lab} p{suffix}", {
                "n": n, "mean": float(col["mean_p" + suffix][j]),
                "var": float(col["var_p" + suffix][j])}, mp, vp, m4p)
            if suffix == "":
                _within(problems, f"{lab} var_x_expected",
                        float(col["var_x_expected"][j]), vx, 1e-9 * vx)
                _within(problems, f"{lab} var_p_expected",
                        float(col["var_p_expected"][j]), vp, 1e-9 * vp)
    _, header, rows = read_csv(f"{out_dir}/trajectories.csv")
    if not rows or len(rows) % len(t):
        problems.append(f"trajectories.csv: {len(rows)} rows do not make "
                        f"whole paths of {len(t)} times")
    # Each (time, axis) block of marginals.csv is a density on a grid.
    _, header, rows = read_csv(f"{out_dir}/marginals.csv")
    blocks = {}
    for t_, axis, coord, dens in rows:
        blocks.setdefault((t_, axis), []).append((float(coord), float(dens)))
    if len(blocks) != 3 * 2 * len(modes):
        problems.append(f"marginals.csv: {len(blocks)} (time, axis) blocks")
    for (t_, axis), pts in blocks.items():
        c, d = np.array(pts).T
        mass = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(c)))
        _within(problems, f"marginals.csv t={t_} {axis} mass", mass, 1.0,
                1e-3)
    return problems


def check_born(op, out_dir):
    """``qtraj born``: expected densities are the projective laws, and the
    counts follow them."""
    sc = op["scenario"]
    problems = []
    comments, header, rows = read_csv(f"{out_dir}/born_check.csv")
    col = columns(header, rows)
    laws = {"x": position_law(sc["x1"], sc["r"], sc["phi"]),
            "p": momentum_law(sc["x1"], sc["r"], sc["phi"])}
    reported_ks = {}
    for field in comments[-1].split():
        key, _, val = field.partition("=")
        if key == "basis":
            basis = val
        elif key == "ks":
            reported_ks[basis] = float(val)
    for basis, pdf in laws.items():
        sel = [i for i, b in enumerate(col["basis"]) if b == basis]
        if len(sel) < 10:
            problems.append(f"born basis {basis}: {len(sel)} bins")
            continue
        center = floats([col["center"][i] for i in sel])
        width = floats([col["width"][i] for i in sel])
        counts = floats([col["count"][i] for i in sel])
        expected = floats([col["expected_density"][i] for i in sel])
        observed = floats([col["observed_density"][i] for i in sel])
        edges = np.append(center - 0.5 * width, center[-1] + 0.5 * width[-1])
        own = bin_masses(pdf, edges) / width
        err = np.max(np.abs(expected - own) / (own + 1e-12))
        if not err < 1e-7:
            problems.append(f"born basis {basis}: expected_density differs "
                            f"from |psi|^2 bin masses by {err:.3g} (rel)")
        n_in = counts.sum()
        if not np.allclose(observed, counts / (n_in * width), rtol=1e-8,
                           atol=0.0):
            problems.append(f"born basis {basis}: observed_density does not "
                            f"match the counts")
        binned_law(problems, f"born basis {basis}", counts,
                   sc["trajectories"], pdf, edges)
        ks = reported_ks.get(basis, math.inf)
        if not ks < ks_critical(sc["trajectories"]):
            problems.append(f"born basis {basis}: reported KS {ks} >= "
                            f"{ks_critical(sc['trajectories']):.5f}")
    return problems


def check_postselect(op, out_dir):
    """``qtraj postselect``: branch counts, symmetric split, and the
    conditional momentum variance against the closed-form twin."""
    from qtraj.analytic import variances_postselected_analytic
    from qtraj.core import ModeSpec, SuperpositionSpec

    sc = op["scenario"]
    n = sc["trajectories"]
    problems = []
    _, header, rows = read_csv(f"{out_dir}/postselect.csv")
    col = columns(header, rows)
    sweep = sorted({0.5, 1.0, 2.0, 4.0, 6.0, sc["x1"]})
    got = sorted({float(v) for v in col["x1"]})
    if got != sweep:
        problems.append(f"postselect: separations {got}, expected {sweep}")
        return problems
    for x1 in sweep:
        sel = [i for i, v in enumerate(col["x1"]) if float(v) == x1]
        branch = {int(col["branch"][i]): i for i in sel}
        if set(branch) != {1, -1}:
            problems.append(f"postselect x1={x1}: branches {sorted(branch)}")
            continue
        label = f"postselect x1={x1}"
        symmetric_split(problems, label, int(col["n"][branch[1]]),
                        int(col["n"][branch[-1]]), n)
        spec = SuperpositionSpec(ModeSpec(x1, sc["r"]), c1_mag=0.5 ** 0.5,
                                 c2_mag=0.5 ** 0.5, phase_phi=sc["phi"])
        twin = variances_postselected_analytic(spec).observed_var_p
        for b, i in branch.items():
            vx = float(col["observed_var_x"][i])
            vp = float(col["observed_var_p"][i])
            eps = float(col["epsilon"][i])
            nb = int(col["n"][i])
            # The loop momenta are near-Gaussian: the standard error of a
            # sample variance s^2 is about s^2 sqrt(2 / n); the batch error
            # the program reports is used when it is larger.
            se = max(float(col["var_p_err"][i]),
                     (vp + 1.0) * math.sqrt(2.0 / (nb - 1)))
            _within(problems, f"{label} branch {b} observed_var_p", vp, twin,
                    Z * se)
            if col["negative_variance"][i] != "0" or vx <= 0 or vp <= 0:
                problems.append(f"{label} branch {b}: negative variance")
            else:
                _within(problems, f"{label} branch {b} epsilon", eps,
                        math.sqrt(vx * vp), 1e-8 * eps)
    return problems


def check_collapse(op, out_dir):
    """``qtraj collapse``: branch counts and the meter-averaged branch
    weight and interference suppression against quadrature."""
    sc = op["scenario"]
    problems = []
    _, header, rows = read_csv(f"{out_dir}/meter_corr.csv")
    val = {q: float(v) for q, v in rows}
    n = sc["trajectories"]
    if int(val["n_trajectories"]) != n:
        problems.append("meter_corr.csv: wrong trajectory count")
    n_plus = int(val["n_plus"])
    symmetric_split(problems, "collapse", n_plus, int(val["n_minus"]), n)
    _branch_means(problems, "collapse", sc, n_plus, val["w_plus_bar"],
                  val["sech_bar"])
    _, header, rows = read_csv(f"{out_dir}/inferred_state.csv")
    grid = np.array([[float(v) for v in r] for r in rows])
    xs, ps = np.unique(grid[:, 0]), np.unique(grid[:, 1])
    if len(rows) != len(xs) * len(ps) or len(xs) < 2 or len(ps) < 2:
        problems.append(f"inferred_state.csv: {len(rows)} rows are not a "
                        f"full grid")
    else:
        mass = grid[:, 2].sum() * (xs[1] - xs[0]) * (ps[1] - ps[0])
        _within(problems, "inferred_state.csv mass vs grid_mass", mass,
                val["grid_mass"], 1e-6)
    return problems


def _branch_means(problems, label, p, n_plus, w_bar, s_bar):
    ew, ew2, es, es2 = meter_branch_expectations(p["x1b"], p["r2"], p["g"],
                                                 p["gtf"] / p["g"])
    _within(problems, f"{label} w_plus_bar", w_bar, ew,
            Z * math.sqrt(max(ew2 - ew * ew, 0.0) / n_plus))
    _within(problems, f"{label} sech_bar", s_bar, es,
            Z * math.sqrt(max(es2 - es * es, 0.0) / n_plus))


CLI_CHECKS = {"run": check_run, "born": check_born,
              "postselect": check_postselect, "collapse": check_collapse}


# ---------------------------------------------------------------------------
# API cases of the sampling workload


def check_case(name, params, summary):
    problems = []
    if name == "odd_cat":
        g, t_f, _ = params["amp"]
        gain = math.exp(g * t_f)
        vx0, vp0 = cat_phase_space_moments(params["x1"], params["phi"])
        vx_tf, vp_tf = transported(vx0, vp0, gain)
        for key, var in (("x0", vx0), ("p0", vp0), ("x_tf", vx_tf),
                         ("p_tf", vp_tf)):
            m = summary[key]
            _within(problems, f"odd_cat {key} mean", m["mean"], 0.0,
                    Z * math.sqrt(m["var"] / m["n"]))
            _within(problems, f"odd_cat {key} variance", m["var"], var,
                    Z * sample_se_var(m))
    elif name == "quarter_cats":
        for (r, x1), row in zip(params["points"], summary["points"]):
            label = f"quarter_cats r={r} x1={x1}"
            symmetric_split(problems, label, row["n_plus"], row["n_minus"],
                            params["n"])
            _within(problems, f"{label} observed_var_p", row["var_p"],
                    row["twin_var_p"], Z * sample_se_var(row["p_loops"]))
    elif name == "p_record":
        g, t_f, _ = params["amp"]
        gain = math.exp(abs(g) * t_f)
        pdf = momentum_law(params["x1"], params["r"], params["phi"],
                           blur=1.0 / gain ** 2)
        lo, hi, bins = params["edges"]
        binned_law(problems, "p_record", summary["counts"], summary["n"],
                   pdf, np.linspace(lo, hi, bins + 1))
    elif name == "weak_pair":
        symmetric_split(problems, "weak_pair", summary["n_plus"],
                        summary["n_minus"], params["n"])
        # Coherent system and meter: observed meter momentum variance
        # 1 - x1b^2 e^{-x1b^2} e^{-x1^2}.
        own = 1.0 - params["x1b"] ** 2 * math.exp(
            -params["x1b"] ** 2 - params["x1"] ** 2)
        _within(problems, "weak_pair closed-form twin",
                summary["twin_var_pb"], own, 1e-12)
        _within(problems, "weak_pair observed_var_pb", summary["var_pb"], own,
                Z * sample_se_var(summary["pb_loops"]))
    elif name == "strong_pair":
        symmetric_split(problems, "strong_pair", summary["n_plus"],
                        summary["n_minus"], params["n"])
        g, t_f, _ = params["amp"]
        _branch_means(problems, "strong_pair",
                      {"x1b": params["x1b"], "r2": params["r2"], "g": g,
                       "gtf": g * t_f},
                      summary["n_plus"], summary["w_plus_bar"],
                      summary["sech_bar"])
    return problems


# ---------------------------------------------------------------------------
# sampler counters of the traced run


def check_acceptance(tallies):
    """Measured acceptance is no more than Z binomial errors below the bound.

    The sampler reports ``n_accepted`` as the draws it returned; accepted
    proposals beyond that from its last batch are dropped uncounted.  The
    check allows for them with ``16 + 3 sqrt(size)`` per call, which is
    what one over-sized last batch can carry, so it flags only a deficit
    larger than those losses (a proposal envelope that is off by a few
    per cent).
    """
    problems = []
    for key, t in tallies.items():
        b, prop, acc = t["bound"], t["proposed"], t["accepted"]
        sigma = math.sqrt(prop * max(b * (1.0 - b), 0.0))
        slack = t["calls"] * 16.0 + 3.0 * math.sqrt(acc * t["calls"])
        if acc < b * prop - Z * sigma - slack:
            problems.append(
                f"sampler acceptance {acc / prop:.5f} over {prop} proposals "
                f"is below the bound {b:.5f} by more than {Z} binomial "
                f"errors ({key[:60]}...)")
    return problems
