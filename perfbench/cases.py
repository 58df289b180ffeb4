"""Python-API cases of the ``sampling`` workload.

Every case runs at one relaxation step and one thread, the regime of the
acceptance tests, where rejection sampling and conditional redraws take
most of the time.  ``CASES`` holds the parameters the checks need; the
functions take the imported qtraj modules as arguments, so this module
imports nothing of the package and the parent process can read it.

Each ``run_*`` function is the timed region of its case: it makes the
API calls and returns their results.  ``summarise`` turns those results
into the plain numbers the checks compare, outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

HALF = 1.0 / math.sqrt(2.0)
QUARTER = 0.5 * math.pi
STEP1 = (1.0, 2.0, 1)  # gain rate, t_final, n_steps of the acceptance tests

CASES = {
    # Odd cat near the one-photon limit: acceptance 0.044 at t_f and
    # 0.022 at t = 0, the sampler's weak spot.
    "odd_cat": {"x1": 0.3, "r": 0.0, "phi": math.pi, "amp": STEP1,
                "n": 200_000},
    # Quarter-phase cats through sign selection, loops and the
    # uncertainty product, at (r, x1) points of the criterion-6 sweep.
    "quarter_cats": {"points": ((0.0, 1.0), (1.0, 0.5), (2.0, 2.0)),
                     "phi": QUARTER, "amp": STEP1, "n": 1_000_000},
    # Momentum-amplified cat: oscillating boundary density, acceptance 0.5.
    "p_record": {"x1": 4.0, "r": 0.0, "phi": QUARTER, "amp": (-1.0, 4.0, 1),
                 "n": 1_000_000, "edges": (-8.0, 8.0, 40)},
    # Weak system-meter pair: meter-sign selection, loops, meter moments.
    "weak_pair": {"x1": 0.2, "r": 0.0, "x1b": 1.0, "r2": 0.0, "phi": QUARTER,
                  "amp": STEP1, "n": 1_000_000},
    # Strong meter on a squeezed system: state inference from the meter.
    "strong_pair": {"x1": 1.0, "r": 1.5, "x1b": 4.0, "r2": 0.0,
                    "phi": QUARTER, "amp": STEP1, "n": 1_000_000},
}

# Index of each case's stream block, so cases never share a stream.
_SEED_OFFSET = {name: i for i, name in enumerate(CASES)}
LOOP_STREAM = 1 << 20


def trajectories(name):
    """Trajectories a case simulates, counted from its inputs."""
    c = CASES[name]
    return c["n"] * len(c.get("points", (None,)))


def case_seed(name, seed):
    return seed * 16 + _SEED_OFFSET[name]


def _cat(q, x1, r, phi):
    return q.core.SuperpositionSpec(q.core.ModeSpec(x1, r), c1_mag=HALF,
                                    c2_mag=HALF, phase_phi=phi)


def _amp(q, amp):
    return q.core.AmplifierSpec(*amp)


def _pair(q, c):
    return q.core.TwoModeSpec(_cat(q, c["x1"], c["r"], c["phi"]),
                              q.core.ModeSpec(c["x1b"], c["r2"]))


def build_first_densities(q):
    """Densities the first case samples (the workload's set-up work)."""
    c = CASES["odd_cat"]
    spec, amp = _cat(q, c["x1"], c["r"], c["phi"]), _amp(q, c["amp"])
    return (q.analytic.marginal_x(spec, amp, amp.t_final),
            q.analytic.marginal_p(spec, amp, 0.0))


def run_odd_cat(q, seed, c):
    spec = _cat(q, c["x1"], c["r"], c["phi"])
    return q.sde_engine.simulate_single_mode(spec, _amp(q, c["amp"]), c["n"],
                                             seed, threads=1)


def run_quarter_cats(q, seed, c):
    out = []
    for i, (r, x1) in enumerate(c["points"]):
        spec = _cat(q, x1, r, c["phi"])
        ens = q.sde_engine.simulate_single_mode(spec, _amp(q, c["amp"]),
                                                c["n"], seed + i, threads=1)
        plus, minus = q.postselect.bin_by_sign(ens)
        del ens
        loops = q.postselect.build_loops(
            plus, spec, q.sampler.RngStream(seed + i, LOOP_STREAM))
        prod = q.postselect.uncertainty_product(loops)
        out.append((spec, plus.n, minus.n, loops, prod))
    return out


def run_p_record(q, seed, c):
    spec = _cat(q, c["x1"], c["r"], c["phi"])
    return q.sde_engine.simulate_p_measurement(spec, _amp(q, c["amp"]),
                                               c["n"], seed, threads=1)


def run_weak_pair(q, seed, c):
    spec = _pair(q, c)
    ens = q.sde_engine.simulate_two_mode(spec, _amp(q, c["amp"]), c["n"],
                                         seed, threads=1)
    plus, minus = q.postselect.bin_by_sign(ens, mode="b")
    del ens
    loops = q.postselect.build_loops(plus, spec,
                                     q.sampler.RngStream(seed, LOOP_STREAM))
    _, est_pb = q.postselect.observed_variances(loops, mode="b")
    return spec, plus.n, minus.n, loops, est_pb


def run_strong_pair(q, seed, c):
    spec = _pair(q, c)
    ens = q.sde_engine.simulate_two_mode(spec, _amp(q, c["amp"]), c["n"],
                                         seed, threads=1)
    plus, minus = q.postselect.bin_by_sign(ens, mode="b")
    del ens
    return plus.n, minus.n, q.postselect.infer_state_A_numeric(plus, spec)


RUN = {"odd_cat": run_odd_cat, "quarter_cats": run_quarter_cats,
       "p_record": run_p_record, "weak_pair": run_weak_pair,
       "strong_pair": run_strong_pair}


def moments(values):
    """n, mean, variance and fourth central moment of a sample."""
    v = np.asarray(values, dtype=float)
    d = v - v.mean()
    d2 = d * d
    return {"n": int(v.size), "mean": float(v.mean()),
            "var": float(d2.sum() / (v.size - 1)),
            "m4": float((d2 * d2).mean())}


def summarise(q, name, result):
    c = CASES[name]
    if name == "odd_cat":
        return {"x0": moments(result.x_paths[:, 0]),
                "x_tf": moments(result.x_paths[:, -1]),
                "p0": moments(result.p_paths[:, 0]),
                "p_tf": moments(result.p_paths[:, -1])}
    if name == "quarter_cats":
        rows = []
        for spec, n_plus, n_minus, loops, prod in result:
            twin = q.analytic.variances_postselected_analytic(spec)
            rows.append({"n_plus": n_plus, "n_minus": n_minus,
                         "var_p": prod.var_p.variance,
                         "p_loops": moments(loops.p0),
                         "twin_var_p": twin.observed_var_p})
        return {"points": rows}
    if name == "p_record":
        gain = math.exp(abs(c["amp"][0]) * c["amp"][1])
        lo, hi, bins = c["edges"]
        record = result.p_paths[:, -1] / gain
        counts, _ = np.histogram(record, bins=np.linspace(lo, hi, bins + 1))
        return {"counts": counts.tolist(), "n": int(record.size)}
    if name == "weak_pair":
        spec, n_plus, n_minus, loops, est_pb = result
        twin = q.analytic.meter_conditional_variances(spec)
        return {"n_plus": n_plus, "n_minus": n_minus,
                "var_pb": est_pb.variance, "pb_loops": moments(loops.p_b0),
                "twin_var_pb": twin.observed_var_pb}
    n_plus, n_minus, inferred = result
    return {"n_plus": n_plus, "n_minus": n_minus,
            "w_plus_bar": inferred.w_plus_bar, "sech_bar": inferred.sech_bar}
