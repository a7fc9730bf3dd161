"""Per-layer metrics from one traced run's spans and counters.

A span's self time is its duration minus the time its direct child spans
cover; children of one span never overlap, because all spans come from one
thread.  Per-function totals add only the outermost call of each function,
so nested calls (a quadrature inside a ``g`` query inside a quadrature) are
not counted twice.
"""

import json

import numpy as np

# The per-layer metrics, in report order, with their units.
METRICS = {
    "init.import_s": "s",
    "models.from_descriptor_s": "s",
    "models.callback_calls": "count",
    "models.callback_points": "count",
    "models.points_per_call": "points/call",
    "characteristics.provider_build_s": "s",
    "characteristics.curves": "count",
    "characteristics.curve_states": "count",
    "characteristics.curve_s": "s",
    "characteristics.g_calls": "count",
    "characteristics.g_points": "count",
    "characteristics.g_points_per_call": "points/call",
    "characteristics.g_s": "s",
    "characteristics.reduced_g_calls": "count",
    "characteristics.extrapolations": "count",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.evals_per_call": "evals/call",
    "quadrature.s": "s",
    "quadrature.errors": "count",
    "lagrangian.build_s": "s",
    "lagrangian.eval_L_s": "s",
    "lagrangian.eval_Lp_s": "s",
    "lagrangian.eval_Lpp_s": "s",
    "lagrangian.compare_s": "s",
    "lagrangian.eval_points": "count",
    "lagrangian.self_s": "s",
    "solver.simulate_s": "s",
    "solver.steps": "count",
    "solver.steps_per_s": "1/s",
    "solver.rhs_calls": "count",
    "solver.dt_min": "model_time",
    "energy.trace_s": "s",
    "energy.frame_s.p50": "s",
    "energy.frame_s.p90": "s",
    "energy.decay_s": "s",
    "energy.verify_s": "s",
    "energy.mask_fraction_max": "fraction",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace_path, bytes_written):
    """Every metric in METRICS except trace.overhead_s, from one trace file."""
    with np.load(trace_path) as data:
        names = [str(n) for n in data["names"]]
        name_id = data["name_id"]
        parent = data["parent"]
        dur = data["end"] - data["start"]
        outer = data["outer"]
        counters = json.loads(str(data["counters"]))

    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_time = dur - child
    ids = {n: i for i, n in enumerate(names)}

    def of(name):
        return name_id == ids[name]

    def total(name):
        return float(np.sum(dur[of(name) & outer]))

    def count(name):
        return int(np.count_nonzero(of(name)))

    def self_of(prefix):
        sel = np.isin(name_id, [i for n, i in ids.items() if n.startswith(prefix)])
        return float(np.sum(self_time[sel]))

    frames = np.sort(dur[of("energy.energy_of_frame")])
    sim_s = total("solver.simulate")
    builds = sum(total(f"characteristics.{n}") for n in ("analytic_g", "reduced_ode_g", "tabulate_g"))
    g_calls = count("characteristics.g")
    q_calls = count("quadrature.adaptive_simpson")
    cb_calls = counters.get("models.callback_calls", 0)
    return {
        "init.import_s": counters["import_s"],
        "models.from_descriptor_s": total("models.from_descriptor"),
        "models.callback_calls": cb_calls,
        "models.callback_points": counters.get("models.callback_points", 0),
        "models.points_per_call": _ratio(counters.get("models.callback_points", 0), cb_calls),
        "characteristics.provider_build_s": builds,
        "characteristics.curves": count("characteristics.integrate_characteristics"),
        "characteristics.curve_states": counters.get("characteristics.curve_states", 0),
        "characteristics.curve_s": total("characteristics.integrate_characteristics"),
        "characteristics.g_calls": g_calls,
        "characteristics.g_points": counters.get("characteristics.g_points", 0),
        "characteristics.g_points_per_call": _ratio(counters.get("characteristics.g_points", 0), g_calls),
        "characteristics.g_s": total("characteristics.g"),
        "characteristics.reduced_g_calls": count("characteristics.reduced_g"),
        "characteristics.extrapolations": counters.get("characteristics.extrapolations", 0),
        "quadrature.calls": q_calls,
        "quadrature.integrand_evals": counters.get("quadrature.integrand_evals", 0),
        "quadrature.evals_per_call": _ratio(counters.get("quadrature.integrand_evals", 0), q_calls),
        "quadrature.s": total("quadrature.adaptive_simpson"),
        "quadrature.errors": counters.get("quadrature.adaptive_simpson.errors", 0),
        "lagrangian.build_s": total("lagrangian.build_lagrangian"),
        "lagrangian.eval_L_s": total("lagrangian.eval_L"),
        "lagrangian.eval_Lp_s": total("lagrangian.eval_Lp"),
        "lagrangian.eval_Lpp_s": total("lagrangian.eval_Lpp"),
        "lagrangian.compare_s": total("lagrangian.compare_closed_form"),
        "lagrangian.eval_points": counters.get("lagrangian.eval_points", 0),
        "lagrangian.self_s": self_of("lagrangian."),
        "solver.simulate_s": sim_s,
        "solver.steps": counters.get("solver.steps", 0),
        "solver.steps_per_s": _ratio(counters.get("solver.steps", 0), sim_s),
        "solver.rhs_calls": count("solver.evolution_rhs"),
        "solver.dt_min": counters.get("solver.dt_min", 0.0),
        "energy.trace_s": total("energy.energy_trace"),
        "energy.frame_s.p50": float(np.percentile(frames, 50)) if frames.size else 0.0,
        "energy.frame_s.p90": float(np.percentile(frames, 90)) if frames.size else 0.0,
        "energy.decay_s": total("energy.decay_formula"),
        "energy.verify_s": total("energy.verify_decay"),
        "energy.mask_fraction_max": counters.get("energy.mask_fraction_max", 0.0),
        "cli.self_s": self_of("cli."),
        "cli.bytes_written": bytes_written,
    }
