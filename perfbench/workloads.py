"""The benchmark's workloads: seeded inputs, run configs and output checks.

Each workload is one ``paralyap`` CLI invocation.  Its initial profile (when
it has one) is generated from the benchmark seed and written as a one-value-
per-line CSV that the config names through ``initial.profile: "csv"``, so
the program receives only generated inputs.  Why each workload exists, and
which layer it stresses, is written down in ``README.md`` next to this file.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# The seed whose outputs are stored in reference.json.
DEFAULT_SEED = 0
# ROADMAP item 1's gate: a run agrees with the reference when every value is
# within 10 * quad_tol * (1 + |reference|).
QUAD_TOL = 1e-9
REF_TOL = 10.0 * QUAD_TOL
# Monotonicity slack used by verify_decay; the check re-applies it to the CSV.
MONO_TOL = 1e-8


def _rho_profile(rng, x):
    # x + small sine modes: Dirichlet ends stay at 0 and 1, and the mode
    # amplitudes are capped so that u_x >= 1 - 0.27 * pi > 0 everywhere.
    a1 = 0.2 + 0.02 * rng.uniform(-1.0, 1.0)
    a2, a3 = 0.01 * rng.uniform(-1.0, 1.0, size=2)
    u = x + a1 * np.sin(np.pi * x) + a2 * np.sin(2 * np.pi * x) + a3 * np.sin(3 * np.pi * x)
    if not np.all(np.diff(u) > 0.0):
        raise ValueError("generated verify-rho profile is not monotone")
    return u


def _robin_profile(rng, x):
    # sin(pi x) does not satisfy the Robin condition u_x = u at x = 0; the
    # mismatch relaxes in the first frames and is what raises the
    # consistency warning this workload expects.
    amp = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
    b2, b3 = 0.02 * rng.uniform(-1.0, 1.0, size=2)
    return amp * np.sin(np.pi * x) + b2 * np.sin(2 * np.pi * x) + b3 * np.sin(3 * np.pi * x)


def _pme_profile(rng, x):
    amp = 1.0 + 0.01 * rng.uniform(-1.0, 1.0)
    center = 0.5 + 0.02 * rng.uniform(-1.0, 1.0)
    sharpness = 8.0 + 0.4 * rng.uniform(-1.0, 1.0)
    u = np.maximum(0.0, amp - sharpness * (x - center) ** 2)
    u[0] = u[-1] = 0.0
    return u


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    expected_exit: int
    # What work_per_s counts.
    unit: str
    config: dict
    # Builds the initial profile from (rng, nodes); None for workloads that
    # take no profile, whose inputs are then the same for every seed.
    profile: Optional[Callable] = None
    # Output columns compared against the stored reference.
    primary: tuple = ()


_RHO = {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-rho",
            command="verify",
            expected_exit=0,
            unit="frames",
            config={
                "model": _RHO,
                "g_mode": "analytic",
                "grid": {"n_cells": 128},
                "time": {"t_end": 0.0024, "output_stride": 125},
            },
            profile=_rho_profile,
            primary=("E",),
        ),
        Workload(
            name="verify-robin-tab",
            command="verify",
            expected_exit=2,
            unit="frames",
            config={
                "model": {
                    "model": "heat",
                    "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"],
                },
                "g_mode": "tabulated",
                "grid": {"n_cells": 128},
                "time": {"t_end": 0.004, "output_stride": 60},
            },
            profile=_robin_profile,
            primary=("E",),
        ),
        Workload(
            name="simulate-pme-fine",
            command="simulate",
            expected_exit=0,
            unit="frames",
            config={
                "model": {"model": "porous_medium", "m": 2.0},
                "grid": {"n_cells": 512},
                "time": {"t_end": 0.025, "output_stride": 64},
            },
            profile=_pme_profile,
            primary=("u",),
        ),
        Workload(
            name="construct-grid-reduced",
            command="construct-energy",
            expected_exit=0,
            unit="points",
            config={"model": _RHO, "g_mode": "reduced", "lagrangian": {"quad_tol": QUAD_TOL}},
            primary=("L", "L_p"),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the run config (and its generated profile) for one seed."""
    work_dir.mkdir(parents=True, exist_ok=True)
    config = json.loads(json.dumps(workload.config))
    if workload.profile is not None:
        n = int(config["grid"]["n_cells"])
        u0 = workload.profile(np.random.default_rng(seed), np.linspace(0.0, 1.0, n + 1))
        profile_path = work_dir / "initial.csv"
        profile_path.write_text("".join(f"{float(v)!r}\n" for v in u0))
        config["initial"] = {"profile": "csv", "path": str(profile_path.resolve())}
    path = work_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def reference_seed(workload: Workload, seed: int) -> bool:
    """Whether the stored reference applies to this seed's inputs."""
    return workload.profile is None or seed == DEFAULT_SEED


def _table(path: Path, columns) -> dict:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    idx = [header.index(c) for c in columns]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=idx)
    return {c: data[:, i] for i, c in enumerate(columns)}


_READ = {
    "verify": ("energy_trace.csv", ("t", "E")),
    "simulate": ("trajectory.csv", ("t", "u")),
    "construct-energy": ("lagrangian_grid.csv", ("L", "L_p", "L_pp")),
}


def primary_output(workload: Workload, table: dict) -> dict:
    """The columns of the run's primary output that the reference stores.

    For ``simulate`` only the last stored frame is kept, which is enough to
    pin the whole trajectory of a deterministic explicit scheme.
    """
    out = {c: table[c] for c in workload.primary}
    if workload.command == "simulate":
        last = table["t"] == table["t"][-1]
        out = {c: v[last] for c, v in out.items()}
    return out


@dataclass
class RunCheck:
    problems: list
    # Stored frames verified or written, or dump-grid points.
    units: int = 0
    ref_err: Optional[float] = None
    consistency_err: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.problems


def read_outputs(workload: Workload, out_dir: Path) -> dict:
    name, columns = _READ[workload.command]
    return _table(out_dir / name, columns)


def check_run(workload: Workload, seed: int, exit_code: int, out_dir: Path,
              reference: Optional[dict]) -> RunCheck:
    """Check one run's exit code and outputs; compare with the reference.

    The check re-derives what it can from the CSV files instead of trusting
    the program's own verdicts: E must not rise between stored frames,
    porous-medium states must stay nonnegative and obey the maximum
    principle, and the dumped L_pp must be positive.
    """
    check = RunCheck([])
    if exit_code != workload.expected_exit:
        check.problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    try:
        table = read_outputs(workload, out_dir)
        _check_outputs(workload, out_dir, table, check)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        check.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return check
    if reference_seed(workload, seed):
        if reference is None:
            check.problems.append("no stored reference for this workload")
        else:
            check.ref_err = _reference_gap(workload, table, reference, check.problems)
    return check


def _check_outputs(workload, out_dir, table, check):
    problems = check.problems
    if workload.command == "verify":
        report = json.loads((out_dir / "verify_report.json").read_text())
        if not report["passed_monotonicity"]:
            problems.append("verify reports a monotonicity violation")
        check.consistency_err = float(report["max_consistency_error"])
        E = table["E"]
        check.units = len(E)
        if len(E) < 3 or not np.all(np.isfinite(E)):
            problems.append("energy trace is too short or not finite")
        elif np.any(E[1:] > E[:-1] + MONO_TOL * (1.0 + np.abs(E[:-1]))):
            problems.append("E rises between stored frames")
    elif workload.command == "simulate":
        t, u = table["t"], table["u"]
        n_nodes = int(workload.config["grid"]["n_cells"]) + 1
        if len(u) % n_nodes or not np.all(np.isfinite(u)):
            problems.append("trajectory is ragged or not finite")
            return
        frames = u.reshape(-1, n_nodes)
        check.units = len(frames)
        if float(np.min(frames)) < -1e-12:
            problems.append("porous-medium state went negative")
        peaks = np.max(frames, axis=1)
        if np.any(peaks[1:] > peaks[0] * (1.0 + 1e-12)):
            problems.append("maximum principle violated")
        if not math.isclose(float(t[-1]), float(workload.config["time"]["t_end"])):
            problems.append("trajectory stops before t_end")
    else:
        lpp = table["L_pp"]
        check.units = len(lpp)
        values = np.concatenate([lpp, table["L"], table["L_p"]])
        if not np.all(np.isfinite(values)) or not np.all(lpp > 0.0):
            problems.append("lagrangian grid is not finite or L_pp <= 0")
        if len(lpp) != 81:
            problems.append(f"expected the default 9 x 9 dump grid, got {len(lpp)} rows")
        sidecar = json.loads((out_dir / "lagrangian_sidecar.json").read_text())
        if not float(sidecar.get("closed_form_residual", math.inf)) <= 1e-6:
            problems.append("closed-form residual missing or above 1e-6")


def _reference_gap(workload, table, reference, problems) -> float:
    got = primary_output(workload, table)
    gap = 0.0
    for column, ref_values in reference.items():
        ref = np.asarray(ref_values, dtype=float)
        val = got[column]
        if val.shape != ref.shape:
            problems.append(f"{column}: {val.size} values, reference has {ref.size}")
            return math.inf
        gap = max(gap, float(np.max(np.abs(val - ref) / (1.0 + np.abs(ref)))))
    if not gap <= REF_TOL:
        problems.append(f"reference gap {gap:.3g} above {REF_TOL:g}")
    return gap
