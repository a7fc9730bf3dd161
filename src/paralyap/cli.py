"""Batch command-line entry point.

Four subcommands cover the pipeline: ``construct-energy`` builds the energy
integrand and dumps it on a grid, ``simulate`` evolves an initial profile,
``verify`` runs a simulation and checks the energy-decay contract on it, and
``compare-closed-form`` scores the numeric construction against a builtin's
closed-form reference.

All runs are driven by a JSON config plus ``--config/--out`` and write a
manifest recording the fully resolved configuration, so a rerun of the same
config with the same package version reproduces every CSV byte for byte.
This module alone fixes the byte format of the artifacts: ``_write_csv``
writes each float as ``repr`` and ``_write_json`` sorts keys and indents by
two; only the streamed ``trajectory.csv`` has its own writer.
``--workers N`` is accepted for compatibility and ignored: every stage runs
in one thread.  Exit codes: 0 success, 1 error, 2 success with warnings.
"""

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characteristics import (
    CharacteristicsError,
    CharControls,
    GProvider,
    ReducedGError,
    SeedGrid,
    analytic_g,
    reduced_ode_g,
    tabulate_g,
)
from .energy import energy_trace, standard_pme_energy, verify_decay
from .lagrangian import (
    Lagrangian,
    LagrangianError,
    LagrangianOptions,
    build_lagrangian,
    compare_closed_form,
    eval_L,
    eval_Lp,
    eval_Lpp,
    second_difference_lpp,
)
from .models import ProblemSpec, from_descriptor
from .quadrature import QuadratureError
from .solver import Grid1D, SolverControls, SolverError, simulate

_DEFAULTS = {
    "model": {"model": "heat", "bc": ["dirichlet", "dirichlet"]},
    "g_mode": "analytic",
    "normalization": {"p0": "canonical", "g0": 0.0},
    "lagrangian": {"p_base": None, "quad_tol": 1e-9},
    "grid": {"n_cells": 128},
    "time": {"t_end": 0.01, "output_stride": 8},
    "initial": {"profile": "sin", "amplitude": 1.0, "k": 1},
    "char_controls": {},
    "seed_grid": {
        "u0": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "p0": [-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0],
    },
    "query_box": [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    "coverage_min": 0.9,
    "grid_dump": {
        "x": [0.5],
        "u": {"min": 0.25, "max": 1.0, "n": 9},
        "p": {"min": 0.25, "max": 2.0, "n": 9},
    },
    "compare": {
        "x": 0.5,
        "u": {"min": 0.25, "max": 1.0, "n": 12},
        "p": {"min": 0.25, "max": 2.0, "n": 24},
        "lpp_check": {"h": 5e-3, "quad_tol": 1e-12, "p_min": 0.3, "p_max": 2.0, "n": 9},
    },
}


class CliError(RuntimeError):
    def __init__(self, module, message):
        super().__init__(f"{module}: {message}")
        self.module = module


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _resolve_config(path):
    if path is None:
        raise CliError("cli", "--config is required")
    try:
        user = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError("cli", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError("cli", f"config is not valid JSON: {exc}")
    if not isinstance(user, dict):
        raise CliError("cli", "config must be a JSON object")
    return _merge(_DEFAULTS, user)


def _axis(d):
    return np.linspace(float(d["min"]), float(d["max"]), int(d["n"]))


def _build_spec(config) -> ProblemSpec:
    try:
        return from_descriptor(config["model"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("models", str(exc))


def _char_controls(config) -> CharControls:
    kinds = {f.name: f.type for f in dataclasses.fields(CharControls)}
    extra = set(config["char_controls"]) - set(kinds)
    if extra:
        raise CliError("characteristics", f"unknown curve controls {sorted(extra)}")
    # A wrong type raises here; only the Optional controls (x_end, dt_max) take null.
    return CharControls(**{
        key: None if value is None and kinds[key] not in (int, float)
        else (int if kinds[key] is int else float)(value)
        for key, value in config["char_controls"].items()
    })


def _build_provider(spec, config) -> GProvider:
    mode = config["g_mode"]
    norm = config["normalization"]
    try:
        if norm["p0"] == "canonical":
            forms = spec.closed_forms
            norm["p0"] = forms.canonical_p0 if forms is not None else 1.0
        p0, g0 = float(norm["p0"]), float(norm["g0"])
        if mode == "tabulated":
            seeds = SeedGrid(*(tuple(map(float, config["seed_grid"][k])) for k in ("u0", "p0")))
            # Each range is converted as given; tabulate_g checks the box shape.
            box = tuple(tuple(map(float, r)) for r in config["query_box"])
            coverage_min = float(config["coverage_min"])
            controls = _char_controls(config)
    except (TypeError, ValueError) as exc:
        raise CliError("characteristics", f"bad provider setting: {exc}")
    try:
        if mode == "analytic":
            return analytic_g(spec, p0, g0)
        if mode == "reduced":
            return reduced_ode_g(spec, p0, g0)
        if mode == "tabulated":
            return tabulate_g(spec, seeds, controls, box, coverage_min=coverage_min)
    except (ValueError, ReducedGError, CharacteristicsError) as exc:
        raise CliError("characteristics", str(exc))
    raise CliError("cli", f"unknown g_mode {mode!r}")


def _build_lagrangian(spec, provider, config) -> Lagrangian:
    opts = config["lagrangian"]
    try:
        extra = set(opts) - set(_DEFAULTS["lagrangian"])
        p_base = None if opts["p_base"] is None else float(opts["p_base"])
        options = LagrangianOptions(p_base=p_base, quad_tol=float(opts["quad_tol"]))
    except (TypeError, ValueError) as exc:
        raise CliError("lagrangian", f"bad setting: {exc}")
    if extra:
        raise CliError("lagrangian", f"unknown settings {sorted(extra)}")
    try:
        return build_lagrangian(spec, provider, options)
    except (LagrangianError, QuadratureError) as exc:
        raise CliError("lagrangian", str(exc))


def _initial_profile(config, grid: Grid1D) -> np.ndarray:
    init = config["initial"]
    if not isinstance(init, dict):
        raise CliError("cli", f"initial must be a JSON object, got {init!r}")
    x = grid.nodes
    profile = init.get("profile", "sin")
    try:
        amp = float(init.get("amplitude", 1.0))
        if profile == "zero":
            return np.zeros_like(x)
        if profile == "sin":
            return amp * np.sin(np.pi * float(init.get("k", 1)) * x)
        if profile == "shifted_sin":
            return float(init.get("offset", 0.5)) + amp * np.sin(np.pi * x)
        if profile == "ramp_sin":
            return x + amp * np.sin(np.pi * x)
        if profile == "bump":
            c = float(init.get("center", 0.5))
            s = float(init.get("sharpness", 8.0))
            return np.maximum(0.0, amp - s * (x - c) ** 2)
        if profile == "csv":
            path = init.get("path")
            if not path:
                raise CliError("cli", "initial profile 'csv' needs a 'path'")
            vals = np.loadtxt(path, dtype=float, ndmin=1)
            if len(vals) != len(x):
                raise CliError(
                    "cli", f"initial CSV has {len(vals)} values, grid wants {len(x)}"
                )
            return vals
    except (TypeError, ValueError, OSError) as exc:
        raise CliError("cli", f"bad initial profile setting: {exc}")
    raise CliError("cli", f"unknown initial profile {profile!r}")


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _write_json(out_dir: Path, name: str, payload):
    """The one JSON format of every artifact: sorted keys, 2-space indent, final newline."""
    _write(out_dir, name, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(out_dir: Path, name: str, header, columns):
    """One row per index, each float as ``repr``; a None column gives empty cells."""
    n = max(len(c) for c in columns if c is not None)
    cells = [[""] * n if c is None else [repr(float(v)) for v in c] for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    _write(out_dir, name, "\n".join(rows) + "\n")


def _manifest(out_dir, command, config, results):
    _write_json(out_dir, "manifest.json", {
        "command": command,
        "version": __version__,
        "config": config,
        "results": results,
    })


def _provider_summary(provider: GProvider):
    return {
        "variant": provider.variant,
        "coverage": provider.coverage,
        "low_coverage": provider.low_coverage,
        "extrapolations": provider.extrapolations,
    }


def cmd_construct_energy(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    # The dump grid is read before the build, so a bad setting fails fast.
    dump = config["grid_dump"]
    try:
        xs = [float(v) for v in dump["x"]]
        if not xs:
            raise ValueError("x needs at least one value")
        us = _axis(dump["u"])
        ps = _axis(dump["p"])
    except (TypeError, ValueError, KeyError) as exc:
        raise CliError("cli", f"bad grid_dump setting: {exc}")
    provider = _build_provider(spec, config)
    lag = _build_lagrangian(spec, provider, config)
    # Rows run over x, then u, then p: the C order of an "ij" meshgrid.
    xx, uu, pp = (a.ravel() for a in np.meshgrid(xs, us, ps, indexing="ij"))
    try:
        columns = (
            xx, uu, pp,
            eval_L(lag, xx, uu, pp),
            eval_Lp(lag, xx, uu, pp),
            eval_Lpp(lag, xx, uu, pp),
        )
    except (LagrangianError, QuadratureError) as exc:
        raise CliError("lagrangian", str(exc))
    _write_csv(out_dir, "lagrangian_grid.csv", ("x", "u", "p", "L", "L_p", "L_pp"), columns)

    sidecar = dict(lag.metadata)
    sidecar["provider"] = _provider_summary(provider)
    forms = spec.closed_forms
    if forms is not None and forms.lagrangian is not None:
        comparison = compare_closed_form(lag, us, ps, x=xs[0])
        sidecar["closed_form_residual"] = comparison["max_residual"]
    if provider.variant == "tabulated":
        _write_json(out_dir, "g_provider.json",
                    {**provider.snapshot, "extrapolations": provider.extrapolations})
    _write_json(out_dir, "lagrangian_sidecar.json", sidecar)

    warn = provider.low_coverage
    _manifest(out_dir, "construct-energy", config, {
        "p_base": lag.p_base,
        "provider": _provider_summary(provider),
        "warning": "low_coverage" if warn else None,
    })
    if warn:
        print(f"warning: tabulated g coverage {provider.coverage:.3f} "
              f"below {config['coverage_min']}", file=sys.stderr)
        return 2
    return 0


def _simulation_inputs(config):
    """The grid, initial profile, end time and solver controls of a run."""
    try:
        grid = Grid1D(int(config["grid"]["n_cells"]))
        controls = SolverControls(output_stride=int(config["time"]["output_stride"]))
        t_end = float(config["time"]["t_end"])
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError("solver", str(exc))
    return grid, _initial_profile(config, grid), t_end, controls


def _run_simulation(spec, grid, u0, t_end, controls):
    try:
        return simulate(spec, u0, t_end, grid, controls)
    except (SolverError, ValueError) as exc:
        raise CliError("solver", str(exc))


def _write_trajectory(out_dir: Path, grid, result):
    """Stream trajectory.csv one frame at a time; the whole table is never built."""
    x = [repr(xi) for xi in grid.nodes.tolist()]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trajectory.csv", "w") as fh:
        fh.write("t,x,u,ut\n")
        for frame in result:
            t = repr(float(frame.t))
            fh.write("".join(f"{t},{xi},{ui!r},{uti!r}\n"
                             for xi, ui, uti in zip(x, frame.u.tolist(), frame.ut.tolist())))


def cmd_simulate(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    grid, u0, t_end, controls = _simulation_inputs(config)
    result = _run_simulation(spec, grid, u0, t_end, controls)
    _write_trajectory(out_dir, grid, result)
    _manifest(out_dir, "simulate", config, {
        "termination": result.termination,
        "n_steps": result.n_steps,
        "dt_smallest": result.dt_smallest,
        "dt_largest": result.dt_largest,
        "n_frames": len(result),
    })
    return 0


def cmd_verify(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    # The simulation settings are read before the build, so a bad one fails fast.
    grid, u0, t_end, controls = _simulation_inputs(config)
    provider = _build_provider(spec, config)
    lag = _build_lagrangian(spec, provider, config)
    result = _run_simulation(spec, grid, u0, t_end, controls)
    try:
        trace = energy_trace(lag, result, grid)
        report = verify_decay(trace)
    except (ValueError, LagrangianError, QuadratureError) as exc:
        raise CliError("energy", str(exc))
    payload = report.to_dict()
    m = spec.params.get("divergence_form_m")
    if m is not None:
        dual = [standard_pme_energy(f, float(m), grid) for f in result]
        payload["standard_energy"] = {
            "E": [d["E"] for d in dual],
            "dEdt": [d["dEdt"] for d in dual],
            "monotone": all(
                dual[i + 1]["E"] <= dual[i]["E"] + 1e-8 * (1.0 + abs(dual[i]["E"]))
                for i in range(len(dual) - 1)
            ),
        }
    _write_csv(out_dir, "energy_trace.csv",
               ("t", "E", "dEdt_measured", "dEdt_formula", "dEdt_model", "mask_fraction"),
               (trace.times, trace.E, trace.dEdt_measured, trace.dEdt_formula,
                trace.dEdt_model, trace.mask_fraction))
    _write_json(out_dir, "verify_report.json", payload)
    _manifest(out_dir, "verify", config, {
        "passed_monotonicity": report.passed_monotonicity,
        "passed_consistency": report.passed_consistency,
        "max_consistency_error": report.max_consistency_error,
    })
    if not report.passed_monotonicity:
        print(f"monotonicity violations: {len(report.monotonicity_violations)}",
              file=sys.stderr)
        return 1
    if not report.passed_consistency:
        print(f"consistency warnings: {len(report.consistency_violations)} "
              f"({report.checked_frames} frames checked)", file=sys.stderr)
        return 2
    return 0


def cmd_compare_closed_form(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    # Every compare setting is read before the build, so a bad one fails fast.
    cmp_cfg = config["compare"]
    try:
        x = float(cmp_cfg["x"])
        us = _axis(cmp_cfg["u"])
        ps = _axis(cmp_cfg["p"])
    except (TypeError, ValueError, KeyError) as exc:
        raise CliError("cli", f"bad compare setting: {exc}")
    forms = spec.closed_forms
    if forms is not None and forms.documented_lagrangian is not None:
        lpp_cfg = cmp_cfg["lpp_check"]
        try:
            h, quad_tol = float(lpp_cfg["h"]), float(lpp_cfg["quad_tol"])
            p_grid = np.linspace(
                float(lpp_cfg["p_min"]), float(lpp_cfg["p_max"]), int(lpp_cfg["n"])
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise CliError("cli", f"bad compare.lpp_check setting: {exc}")
    provider = _build_provider(spec, config)
    lag = _build_lagrangian(spec, provider, config)
    try:
        comparison = compare_closed_form(lag, us, ps, x=x)
    except (LagrangianError, QuadratureError) as exc:
        raise CliError("lagrangian", str(exc))

    report = {"model": comparison["model"], "oracle": comparison["oracle"]}
    if comparison["oracle"] is None:
        report["note"] = comparison["note"]
        _write_json(out_dir, "comparison.json", report)
        _manifest(out_dir, "compare-closed-form", config, report)
        print(report["note"])
        return 0

    # Rows run over u, then p, as the tables do.
    _write_csv(out_dir, "comparison.csv",
               ("u", "p", "L_numeric", "L_closed", "residual_after_affine_fit"),
               (np.repeat(us, len(ps)), np.tile(ps, len(us)),
                *(comparison[k].ravel() for k in ("L_numeric", "L_closed", "residual"))))

    report["max_residual"] = comparison["max_residual"]
    report["note"] = comparison["note"]
    if "documented" in comparison:
        doc = comparison["documented"]
        report["documented_variant"] = {
            "max_residual": doc["max_residual"],
            "note": doc["note"],
            "discrepancy_detected": doc["discrepancy_detected"],
        }
        check_lag = dataclasses.replace(lag, quad_tol=quad_tol)
        u_ref = float(us[len(us) // 2])
        second = second_difference_lpp(check_lag, x, u_ref, p_grid, h=h)
        direct = eval_Lpp(check_lag, x, u_ref, p_grid)
        report["lpp_check"] = {
            "h": h,
            "u": u_ref,
            "p": [float(v) for v in p_grid],
            "second_difference": [float(v) for v in np.atleast_1d(second)],
            "direct_weight": [float(v) for v in np.atleast_1d(direct)],
            "max_residual": float(np.max(np.abs(np.atleast_1d(second) - np.atleast_1d(direct)))),
        }
    _write_json(out_dir, "comparison.json", report)
    _manifest(out_dir, "compare-closed-form", config, report)
    return 0


_COMMANDS = {
    "construct-energy": cmd_construct_energy,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "compare-closed-form": cmd_compare_closed_form,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paralyap",
        description="Construct and verify decay energies for 1-D degenerate parabolic models",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False, help="JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    # Accepted for compatibility and ignored: nothing runs in parallel.
    parser.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        config = _resolve_config(args.config)
        return _COMMANDS[args.command](config, Path(args.out))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, LagrangianError, QuadratureError,
            CharacteristicsError, ReducedGError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
