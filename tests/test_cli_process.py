"""The CLI's checks that need their own interpreter, and their twins in process.

A run at a set BLAS/OpenMP thread count, under ``-X dev``, or that imports a
submodule into a fresh interpreter goes through ``run_python``, the one
process helper that ``test_cli.py`` uses too.  A run that needs neither
goes through ``main`` in process, with warnings as errors, as
``python -W error -m paralyap`` would run it.  CI runs the CLI only where
Tier-1 cannot: with SciPy absent.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from test_cli import _ROBIN_HEAT, _SMALL_DUMP, ROOT, _run, run_python


def _run_process(tmp_path, command, config, *options, threads=None, name="run"):
    """``python *options -m paralyap command`` on ``config``: (process, out dir)."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    proc = run_python(*options, "-m", "paralyap", command, "--config", str(cfg),
                      "--out", str(out), threads=threads)
    return proc, out


_POROUS_MEDIUM = {"model": "porous_medium", "m": 2.0}
_SHORT = {"t_end": 0.004, "output_stride": 8}

# name: (command, config, exit code, artifacts compared, run under -X dev)
_THREADED = {
    # A Robin heat run on the traced g; 2 is its consistency warning.
    "verify-traced-robin-heat": (
        "verify", {"model": _ROBIN_HEAT, "g_mode": "tabulated", "grid": {"n_cells": 16},
                   "time": _SHORT},
        2, ("energy_trace.csv", "verify_report.json"), False),
    # Heat's traced curves are straight and land in one step.  rho_laplacian_poly
    # (3, 1) moves x at speed 2|p|, so its curves back to x = 0 take several
    # controlled steps.
    "construct-traced-multistep": (
        "construct-energy", {"model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
                             "g_mode": "tabulated"},
        0, ("lagrangian_grid.csv",), False),
    # At n = 0.5 the g rate is infinite at p = 0, so the queries that the l0
    # quadrature makes there cannot reach the plane; the L of the dump grid
    # is still finite, and the run exits 0.
    "construct-traced-unreached": (
        "construct-energy", {"model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.5},
                             "g_mode": "tabulated"},
        0, ("lagrangian_grid.csv",), False),
    # inverse_mcf's D = 1 is one scalar, which the curve field divides by, and
    # R = -(1 + p^2) bends every curve in p, along which g moves at rate 2p.
    # A curve from (x, p) meets x = 0 only if arctan p + x < pi/2, so the dump
    # stays at x <= 0.25: at the default 0.5 the curves from p near 2 blow up
    # first.
    "construct-traced-bending": (
        "construct-energy", {"model": {"model": "inverse_mcf"}, "g_mode": "tabulated",
                             "grid_dump": {"x": [0.1, 0.25]}},
        0, ("lagrangian_grid.csv",), False),
    # Heat with u_x = u on the left mirrors a ghost node through b(u).
    "simulate-robin-heat": (
        "simulate", {"model": _ROBIN_HEAT, "grid": {"n_cells": 32}, "time": _SHORT},
        0, ("trajectory.csv",), False),
    # Neumann ends run the divergence form over both ghosts; m = 1.5 takes u^m
    # through np.power rather than a square.
    **{f"simulate-neumann-pme-{m}": (
        "simulate", {"model": {"model": "porous_medium", "m": m, "bc": ["neumann", "neumann"]},
                     "grid": {"n_cells": 32}, "time": _SHORT, "initial": {"profile": "bump"}},
        0, ("trajectory.csv",), False) for m in (2.0, 1.5)},
    # At stride 1 on 256 cells every step stores a frame, so the pipe to the
    # trajectory writer fills and the solver waits on it.  The writer gets the
    # CLI's options, so its stderr must be empty under -X dev too.
    "simulate-lagging-writer": (
        "simulate", {"model": _POROUS_MEDIUM, "grid": {"n_cells": 256},
                     "time": {"t_end": 0.002, "output_stride": 1}, "initial": {"profile": "bump"}},
        0, ("trajectory.csv",), True),
}


@pytest.mark.parametrize("name", _THREADED)
def test_artifacts_are_the_same_bytes_at_one_and_two_threads(tmp_path, name):
    # No result may depend on the thread count.  -W error turns a warning into
    # a failure; under -X dev an artifact left for the collector to close
    # shows as a ResourceWarning on stderr.
    command, config, code, artifacts, dev = _THREADED[name]
    options = ("-X", "dev", "-W", "error") if dev else ("-W", "error")
    # The two runs go at once, each waited on by its own thread.
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda threads: _run_process(
            tmp_path, command, config, *options, threads=threads, name=f"threads_{threads}"),
            (1, 2)))
    outs = []
    for proc, out in runs:
        assert proc.returncode == code, proc.stderr
        if dev:
            assert proc.stderr == ""
        assert not list(out.glob("*.part"))
        outs.append(out)
    for artifact in artifacts:
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact


@pytest.mark.parametrize("command, config", [
    ("construct-energy", {"model": {"model": "heat"}, "grid_dump": _SMALL_DUMP}),
    ("simulate", {"model": _POROUS_MEDIUM, "grid": {"n_cells": 32}, "initial": {"profile": "bump"}}),
], ids=["construct-energy", "simulate"])
def test_no_artifact_needs_the_collector_to_reach_disk(tmp_path, command, config):
    # The CLI freezes its import-time heap, so the collector never walks it.
    # Under -X dev an artifact left for the collector to close shows as a
    # ResourceWarning, which at shutdown is printed, not raised.
    proc, _ = _run_process(tmp_path, command, config, "-X", "dev", "-W", "error")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


_SUBMODULES = sorted(path.stem for path in (ROOT / "src" / "paralyap").glob("[!_]*.py"))


@pytest.mark.parametrize("module", _SUBMODULES)
def test_each_submodule_imports_alone(module):
    # The package re-exports nothing, so no fixed import order hides a cycle.
    proc = run_python("-W", "error", "-c", f"import paralyap.{module}", timeout=60)
    assert proc.returncode == 0, proc.stderr


# name: (command, config); each run must exit 0.  The simulate run of the
# SciPy-absent smoke is the simulate case of the -X dev test above.
_WARNING_FREE = {
    "construct-traced-robin-heat": ("construct-energy", {"model": _ROBIN_HEAT,
                                                         "g_mode": "tabulated"}),
    "compare-inverse-mcf": ("compare-closed-form", {"model": {"model": "inverse_mcf"}}),
    # A zero dg/dp: the reduced g is the flat g0.
    **{f"construct-reduced-flat-{descriptor['model']}": (
        "construct-energy", {"model": descriptor, "g_mode": "reduced"}) for descriptor in (
            {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.0},
            {"model": "mcf_poly", "n": 0.0},
            {"model": "porous_medium", "m": 1.0})},
    # On a monotone ramp the constructed energy of porous_medium m = 2 falls,
    # and its decay formula, weighted by D u_xx - R, matches the measured dE/dt.
    "verify-pme-ramp": ("verify", {"model": _POROUS_MEDIUM, "grid": {"n_cells": 32},
                                   "time": {"t_end": 0.01, "output_stride": 8},
                                   "initial": {"profile": "ramp_sin", "amplitude": 0.2}}),
}


@pytest.mark.parametrize("name", _WARNING_FREE)
def test_runs_exit_0_with_warnings_as_errors(tmp_path, name):
    command, config = _WARNING_FREE[name]
    code, _ = _run(tmp_path, command, config)
    assert code == 0


def test_ci_runs_the_cli_only_in_its_scipy_absent_smoke():
    # Every other check that runs the CLI lives in Tier-1: a CI step that
    # invokes paralyap outside the one smoke run that needs SciPy absent fails.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = workflow.split("- name:")[1:]
    smoke = [step for step in steps if 'find_spec("scipy") is not None' in step]
    assert len(smoke) == 1
    assert [step.splitlines()[0] for step in steps
            if step not in smoke and "paralyap" in step.partition("run:")[2]] == []
