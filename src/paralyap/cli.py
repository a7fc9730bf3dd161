"""Batch command-line entry point.

Four subcommands cover the pipeline: ``construct-energy`` builds the energy
integrand and dumps it on a grid, ``simulate`` evolves an initial profile,
``verify`` runs a simulation and checks the energy-decay contract on it, and
``compare-closed-form`` scores the numeric construction against a builtin's
closed-form reference.  Both energy commands read the same sections, and
``_closed_form`` scores both on the dump grid, so their residuals agree.

All runs are driven by a JSON config plus ``--config/--out``.  One rule
checks its keys: ``_merge`` lays the config over ``_DEFAULTS``, the complete
list of settable keys, and refuses any key that the defaults lack, at any
depth; only the model descriptor's keys are left to the models stage, which
knows each family's.  ``_setting`` reads and converts every value, and
``_stage`` turns what a stage's own code raises into that stage's error, so
every failure prints as ``error: <stage>: ...`` and a bad setting names its
dotted key (``_STAGES`` maps each section to its stage).  A setting that
the run does not read must keep its default: ``_READS`` lists the sections
each command reads, ``_PROFILES`` the ``initial`` keys each profile reads,
and ``_refuse_unread`` names every other key that differs from its default.
The same rule refuses ``normalization.p0`` under ``g_mode`` ``"tabulated"``,
whose g has no p0.  Every number is checked where it is read:
``lagrangian.quad_tol`` and ``time.t_end`` must be finite and positive, the
normalization values, each ``grid_dump.x``, a non-null
``lagrangian.p_base``, every ``initial`` number and each value of a ``csv``
profile (named by its line) finite, and every count an integer.
No setting takes a boolean.
Each command reads all of its settings before it builds anything.  A
manifest records the fully resolved configuration, so a rerun of the same
config with the same package version reproduces every CSV byte for byte.
This module fixes the byte format of the artifacts: ``_write_csv``
writes each float as ``repr`` and ``_write_json`` sorts keys and indents by
two.  The one exception is ``trajectory.csv``, whose rows (each float as
``repr`` too) are formatted by ``_trajectory.py`` in a second interpreter
while the solver steps: ``_TrajectoryWriter`` is ``simulate``'s sink, pipes
each stored frame to it, and keeps the file only if both succeed.
``--workers N`` is accepted for compatibility and ignored: every stage runs
in one thread.  ``main`` is the process entry point: it makes the ``--out``
directory before any stage runs, and freezes the heap that the imports
built, so the collections at shutdown skip it.  Exit codes: 0 success, 1
error, 2 success with consistency warnings.
"""

import argparse
import contextlib
import copy
import dataclasses
import gc
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characteristics import (
    GProvider,
    ReducedGError,
    analytic_g,
    canonical_p0,
    reduced_ode_g,
    tabulate_g,
)
from .energy import _rises, energy_trace, standard_pme_energy, verify_decay
from .lagrangian import (
    Lagrangian,
    LagrangianError,
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
    "initial": {"profile": "sin", "amplitude": 1.0, "k": 1, "offset": 0.5,
                "center": 0.5, "sharpness": 8.0, "path": None},
    "grid_dump": {
        "x": [0.5],
        "u": {"min": 0.25, "max": 1.0, "n": 9},
        "p": {"min": 0.25, "max": 2.0, "n": 9},
    },
}

# The stage that reports a bad setting of each section; any other section is the CLI's.
_STAGES = {"model": "models", "normalization": "characteristics", "lagrangian": "lagrangian",
           "grid": "solver", "time": "solver"}

# The sections that each command reads.
_ENERGY_SECTIONS = ("model", "g_mode", "normalization", "lagrangian", "grid_dump")
_READS = {
    "construct-energy": _ENERGY_SECTIONS,
    "simulate": ("model", "grid", "time", "initial"),
    "verify": ("model", "g_mode", "normalization", "lagrangian", "grid", "time", "initial"),
    "compare-closed-form": _ENERGY_SECTIONS,
}

# The L_pp check beside a documented variant: the five-point second difference
# of L in p with its own step and quadrature tolerance, at the dump's middle u.
_LPP_H = 5e-3
_LPP_QUAD_TOL = 1e-12
_LPP_P = np.linspace(0.3, 2.0, 9)


class CliError(RuntimeError):
    def __init__(self, module, message):
        super().__init__(f"{module}: {message}")
        self.module = module


@contextlib.contextmanager
def _stage(name):
    """Report what a stage's own code raises as an error of that stage."""
    try:
        yield
    except (ValueError, SolverError, LagrangianError, QuadratureError, ReducedGError) as exc:
        raise CliError(name, str(exc)) from None


def _merge(base, override, path=""):
    """``base`` updated by ``override``, which may set only keys that ``base`` has.

    Inside ``model`` the models stage checks the keys instead: each family
    reads its own.
    """
    section, prefix = path.partition(".")[0], f"{path}." if path else ""
    stage = _STAGES.get(section, "cli")
    if not isinstance(override, dict):
        raise CliError(stage, f"{path or 'config'} must be a JSON object, got {override!r}")
    extra = [] if section == "model" else sorted(set(override) - set(base))
    if extra:
        raise CliError(stage, f"unknown settings {[prefix + key for key in extra]}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        nested = isinstance(out.get(key), dict)
        out[key] = _merge(out[key], val, prefix + key) if nested else copy.deepcopy(val)
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
    return _merge(_DEFAULTS, user)


def _changed(settings, defaults, prefix=""):
    """The dotted keys, at any depth, whose value in ``settings`` differs from ``defaults``.

    A boolean always differs: no default is one, and ``True == 1`` would
    otherwise pass it as a default of 1.
    """
    for key, value in settings.items():
        default = defaults.get(key)
        if isinstance(value, dict) and isinstance(default, dict):
            yield from _changed(value, default, f"{prefix}{key}.")
        elif isinstance(value, bool) or value != default:
            yield prefix + key


def _refuse_unread(settings, defaults, read, reader, prefix=""):
    """Refuse a non-default value in any key of ``settings`` outside ``read``."""
    others = {key: value for key, value in settings.items() if key not in read}
    unread = sorted(_changed(others, defaults, prefix))
    if unread:
        raise CliError("cli", f"settings {unread} are not read by {reader}")


def _setting(config, key, convert=float):
    """The setting at the dotted ``key``, through ``convert``; a failure names the key."""
    section, *path = key.split(".")
    value = config[section]
    for part in path:
        value = value[part]
    try:
        return convert(_no_bool(value))
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise CliError(_STAGES.get(section, "cli"), f"{key}: {exc}") from None


def _no_bool(value):
    """``value``, unless it is a boolean: JSON ``true`` is not the number 1."""
    if isinstance(value, bool):
        raise ValueError(f"takes no boolean, got {value!r}")
    return value


def _checked(kind, ok, what):
    """A converter through ``kind`` that refuses a value for which ``ok`` is false."""
    def convert(value):
        v = kind(value)
        if not ok(v):
            raise ValueError(f"must be {what}, got {v!r}")
        return v
    return convert


_FINITE = _checked(float, math.isfinite, "finite")
_STEP = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
# A whole number may be written 16, 16.0 or "16"; 16.7 is refused, not truncated.
_WHOLE = _checked(float, float.is_integer, "an integer")
_COUNT = _checked(lambda v: int(_WHOLE(v)), lambda n: n >= 1, ">= 1")
_POINTS = _checked(lambda v: [float(_no_bool(e)) for e in v],
                   lambda v: v and all(map(math.isfinite, v)), "a nonempty list of finite numbers")


def _axis(config, key):
    """``n`` points from ``min`` to ``max``, the settings of the section at ``key``."""
    return np.linspace(_setting(config, f"{key}.min", _FINITE),
                       _setting(config, f"{key}.max", _FINITE),
                       _setting(config, f"{key}.n", _COUNT))


def _dump_grid(config):
    """The ``grid_dump`` x points and its u and p axes."""
    return (_setting(config, "grid_dump.x", _POINTS), _axis(config, "grid_dump.u"),
            _axis(config, "grid_dump.p"))


def _build_spec(config) -> ProblemSpec:
    with _stage("models"):
        return from_descriptor(config["model"])


def _build_provider(spec, config) -> GProvider:
    norm, mode = config["normalization"], config["g_mode"]
    if mode == "tabulated":
        # The plane x = 0 normalizes the traced g, so it has no p0.
        _refuse_unread(norm, _DEFAULTS["normalization"], ("g0",), f"g_mode {mode!r}",
                       "normalization.")
    if norm["p0"] == "canonical":
        norm["p0"] = canonical_p0(spec)
    p0 = _setting(config, "normalization.p0", _FINITE)
    g0 = _setting(config, "normalization.g0", _FINITE)
    with _stage("characteristics"):
        if mode == "analytic":
            return analytic_g(spec, p0, g0)
        if mode == "reduced":
            return reduced_ode_g(spec, p0, g0)
        if mode == "tabulated":
            return tabulate_g(spec, g0)
    raise CliError("cli", f"g_mode: unknown mode {mode!r}")


def _build_lagrangian(spec, provider, p_base, quad_tol) -> Lagrangian:
    with _stage("lagrangian"):
        return build_lagrangian(spec, provider, p_base=p_base, quad_tol=quad_tol)


def _build_energy(spec, config):
    """The g provider and the Lagrangian; every setting of both is read before either is built."""
    p_base = _setting(config, "lagrangian.p_base", lambda v: None if v is None else _FINITE(v))
    quad_tol = _setting(config, "lagrangian.quad_tol", _STEP)
    provider = _build_provider(spec, config)
    return provider, _build_lagrangian(spec, provider, p_base, quad_tol)


def _csv_profile(path, n):
    """One finite number per nonblank line of the text file at ``path``, one per node."""
    if not path:
        raise ValueError("profile 'csv' needs a path")
    lines = [(k, line) for k, line in enumerate(Path(path).read_text().splitlines(), 1)
             if line.strip()]
    if len(lines) != n:
        raise ValueError(f"CSV has {len(lines)} values, grid wants {n}")
    values = np.empty(n)
    for i, (k, line) in enumerate(lines):
        try:
            values[i] = _FINITE(line)
        except ValueError as exc:
            raise ValueError(f"line {k}: {exc}") from None
    return values


# The ``initial`` keys that each profile reads, in reading order, and its
# builder, called with the nodes and those values.
_PROFILES = {
    "zero": ((), np.zeros_like),
    "sin": (("amplitude", "k"), lambda x, a, k: a * np.sin(np.pi * k * x)),
    "shifted_sin": (("amplitude", "offset"), lambda x, a, offset: offset + a * np.sin(np.pi * x)),
    "ramp_sin": (("amplitude",), lambda x, a: x + a * np.sin(np.pi * x)),
    "bump": (("amplitude", "center", "sharpness"),
             lambda x, a, c, s: np.maximum(0.0, a - s * (x - c) ** 2)),
    "csv": (("path",), lambda x, values: values),
}


def _initial_profile(config, grid: Grid1D) -> np.ndarray:
    """The initial state; a non-default value in a key the profile does not read is refused."""
    x = grid.nodes
    init = config["initial"]
    profile = init["profile"]
    if not isinstance(profile, str) or profile not in _PROFILES:
        raise CliError("cli", f"initial.profile: unknown profile {profile!r}")
    keys, build = _PROFILES[profile]
    _refuse_unread(init, _DEFAULTS["initial"], ("profile", *keys), f"profile {profile!r}",
                   "initial.")
    convert = {"path": lambda path: _csv_profile(path, len(x))}
    return build(x, *(_setting(config, f"initial.{key}", convert.get(key, _FINITE)) for key in keys))


def _write(out_dir: Path, name: str, text: str):
    try:
        (out_dir / name).write_text(text)
    except OSError as exc:
        raise CliError("cli", f"{name}: {exc}") from None


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
    return {"variant": provider.variant, "extrapolations": provider.extrapolations}


def _closed_form(lag, xs, us, ps):
    """The closed-form comparison of both energy commands, at the first dump x on its (u, p) axes."""
    with _stage("lagrangian"):
        return compare_closed_form(lag, us, ps, x=xs[0])


def cmd_construct_energy(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    xs, us, ps = _dump_grid(config)
    provider, lag = _build_energy(spec, config)
    # Rows run over x, then u, then p: the C order of an "ij" meshgrid.
    xx, uu, pp = (a.ravel() for a in np.meshgrid(xs, us, ps, indexing="ij"))
    sidecar = {**lag.metadata, "provider": _provider_summary(provider)}
    with _stage("lagrangian"):
        columns = (xx, uu, pp, eval_L(lag, xx, uu, pp), eval_Lp(lag, xx, uu, pp),
                   eval_Lpp(lag, xx, uu, pp))
    comparison = _closed_form(lag, xs, us, ps)
    if comparison["oracle"] is not None:
        sidecar["closed_form_residual"] = comparison["max_residual"]
    _write_csv(out_dir, "lagrangian_grid.csv", ("x", "u", "p", "L", "L_p", "L_pp"), columns)
    _write_json(out_dir, "lagrangian_sidecar.json", sidecar)
    _manifest(out_dir, "construct-energy", config, {
        "p_base": lag.p_base,
        "provider": _provider_summary(provider),
    })
    return 0


def _simulation_inputs(config):
    """The grid, initial profile, end time and solver controls of a run."""
    grid = _setting(config, "grid.n_cells", lambda v: Grid1D(int(_WHOLE(v))))
    controls = _setting(config, "time.output_stride",
                        lambda v: SolverControls(output_stride=int(_WHOLE(v))))
    t_end = _setting(config, "time.t_end", _STEP)
    return grid, _initial_profile(config, grid), t_end, controls


def _run_simulation(spec, grid, u0, t_end, controls, sink=None):
    with _stage("solver"):
        return simulate(spec, u0, t_end, grid, controls, sink=sink)


# The record after the last frame: a t that the solver never stores.
_END_RECORD = struct.pack("d", math.nan)


class _TrajectoryWriter:
    """The ``simulate`` sink that streams each stored frame to ``_trajectory.py``.

    The first frame starts the writer, a second interpreter under ``-I -S``
    that formats ``trajectory.csv.part`` while the solver keeps stepping; it
    gets the node values, then each frame's t, u and u_t as native float64.
    On leaving the ``with`` block the pipe is closed and the writer waited
    for, whatever happened; only a solver that succeeded first sends the end
    record, a NaN t, without which the writer removes its part file.  So a
    run that is stopped or killed, by SIGKILL too, leaves no part file.  The
    part file becomes ``trajectory.csv`` only if the solver and the writer
    both succeeded; otherwise it is removed, and a failed writer is reported
    with the last line of its stderr.  Whatever else the writer prints is
    passed on to this process's stderr.
    """

    def __init__(self, path: Path, nodes: np.ndarray):
        self.path = path
        self.part = path.with_name(path.name + ".part")
        self.nodes = nodes
        self.proc = None

    def __call__(self, frame):
        if self.proc is None:
            # Imported here: the other commands start no writer, and the
            # import costs them about 5 ms of start-up.
            import subprocess

            # This interpreter's -W and -X options: the writer warns and fails as the CLI does.
            options = [f"-W{option}" for option in sys.warnoptions] + [
                f"-X{key}" if value is True else f"-X{key}={value}"
                for key, value in sys._xoptions.items()]
            command = [sys.executable, "-I", "-S", *options,
                       str(Path(__file__).with_name("_trajectory.py")),
                       str(len(self.nodes)), str(self.part)]
            try:
                self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                             stderr=subprocess.PIPE)
            except OSError as exc:
                raise CliError("cli", f"trajectory.csv: cannot start the writer: {exc}") from None
            self.proc.stdin.write(self.nodes)
        write = self.proc.stdin.write
        write(struct.pack("d", frame.t))
        write(frame.u)
        write(frame.ut)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        proc = self.proc
        if proc is None:
            return False
        # A broken pipe is the writer's own failure, which its stderr explains.
        writer_failed = kind is BrokenPipeError
        if kind is None:
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.write(_END_RECORD)
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        message = proc.stderr.read().decode(errors="replace")
        proc.stderr.close()
        code = proc.wait()
        if kind is None and code == 0:
            sys.stderr.write(message)
            try:
                os.replace(self.part, self.path)
                return False
            except OSError as err:
                message = str(err)
        # A directory at the part path is the user's, not the writer's.
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            self.part.unlink()
        if kind is None or writer_failed:
            last = message.strip().splitlines()[-1:] or [f"exit code {code}"]
            raise CliError("cli", f"trajectory.csv: {last[0]}") from None
        return False


def cmd_simulate(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    grid, u0, t_end, controls = _simulation_inputs(config)
    with _TrajectoryWriter(out_dir / "trajectory.csv", grid.nodes) as writer:
        result = _run_simulation(spec, grid, u0, t_end, controls, sink=writer)
    _manifest(out_dir, "simulate", config, {
        "n_steps": result.n_steps,
        "dt_smallest": result.dt_smallest,
        "dt_largest": result.dt_largest,
        "n_frames": len(result),
    })
    return 0


def cmd_verify(config, out_dir: Path) -> int:
    spec = _build_spec(config)
    grid, u0, t_end, controls = _simulation_inputs(config)
    provider, lag = _build_energy(spec, config)
    result = _run_simulation(spec, grid, u0, t_end, controls)
    with _stage("energy"):
        trace = energy_trace(lag, result, grid)
        report = verify_decay(trace)
    payload = report.to_dict()
    m = spec.divergence_form_m
    if m is not None:
        dual = standard_pme_energy(result.u, float(m), grid)
        payload["standard_energy"] = {
            "E": dual["E"].tolist(),
            "dEdt": dual["dEdt"].tolist(),
            "monotone": not _rises(dual["E"]).size,
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
        "p_base": lag.p_base,
        "singular_weight": lag.singular_weight,
        "provider": _provider_summary(provider),
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
    xs, us, ps = _dump_grid(config)
    _, lag = _build_energy(spec, config)
    comparison = _closed_form(lag, xs, us, ps)
    report = {key: comparison[key] for key in ("model", "oracle", "note")}
    if comparison["oracle"] is None:
        print(report["note"])
    else:
        # Rows run over u, then p, as the tables do.
        _write_csv(out_dir, "comparison.csv",
                   ("u", "p", "L_numeric", "L_closed", "residual_after_affine_fit"),
                   (np.repeat(us, len(ps)), np.tile(ps, len(us)),
                    *(comparison[k].ravel() for k in ("L_numeric", "L_closed", "residual"))))
        report["max_residual"] = comparison["max_residual"]
    doc = comparison.get("documented")
    if doc is not None:
        # The L_pp check runs only beside a documented variant.
        check_lag = dataclasses.replace(lag, quad_tol=_LPP_QUAD_TOL)
        u_ref = float(us[len(us) // 2])
        with _stage("lagrangian"):
            second = second_difference_lpp(check_lag, xs[0], u_ref, _LPP_P, h=_LPP_H)
            direct = eval_Lpp(check_lag, xs[0], u_ref, _LPP_P)
        report["documented_variant"] = {
            key: doc[key] for key in ("max_residual", "note", "discrepancy_detected")}
        report["lpp_check"] = {
            "h": _LPP_H,
            "u": u_ref,
            "p": _LPP_P.tolist(),
            "second_difference": second.tolist(),
            "direct_weight": direct.tolist(),
            "max_residual": float(np.max(np.abs(second - direct))),
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
    """Run one command and return its exit code; this is the process entry point.

    Once the arguments parse, it freezes everything alive (``gc.freeze``):
    in a fresh process that is what the imports built, which lives until the
    process ends, so no later collection walks it, those at shutdown
    included.  Only what the command builds is left to the collector.  An
    in-process caller's heap is frozen too: reference counting still frees
    it, but a cycle in it is never collected.
    """
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
    gc.freeze()

    try:
        config = _resolve_config(args.config)
        _refuse_unread(config, _DEFAULTS, _READS[args.command], args.command)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("cli", f"--out: {exc}") from None
        return _COMMANDS[args.command](config, out_dir)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
