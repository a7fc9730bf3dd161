"""Command-line contract: files, exit codes, reproducibility.

Each run goes through ``main`` in-process with a JSON config in a temp
directory, exactly as a shell invocation would.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paralyap import cli, models
from paralyap.characteristics import CharacteristicsError
from paralyap.cli import _write_trajectory, main
from paralyap.lagrangian import LagrangianError
from paralyap.models import from_descriptor
from paralyap.quadrature import QuadratureError
from paralyap.solver import Grid1D, SolverControls, SolverError, simulate


def _run(tmp_path, command, config, name="run", extra=()):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def _read_json(path):
    return json.loads(path.read_text())


def test_construct_energy_outputs(tmp_path):
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "heat"},
        "grid_dump": {"x": [0.0], "u": {"min": 0.0, "max": 1.0, "n": 3},
                      "p": {"min": 0.25, "max": 1.0, "n": 4}},
    })
    assert code == 0
    grid = (out / "lagrangian_grid.csv").read_text().strip().splitlines()
    assert grid[0] == "x,u,p,L,L_p,L_pp"
    assert len(grid) == 1 + 1 * 3 * 4
    side = _read_json(out / "lagrangian_sidecar.json")
    assert side["p_base"] == 0.0
    assert side["closed_form_residual"] < 1e-8
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "construct-energy"
    assert manifest["config"]["model"]["model"] == "heat"
    assert manifest["config"]["normalization"]["p0"] == 1.0  # resolved, not "canonical"


_CATALOG = [
    {"model": "heat"},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
    {"model": "mcf_poly", "n": 1.0},
    {"model": "inverse_mcf"},
    {"model": "porous_medium", "m": 2.0},
    {"model": "rho_laplacian_pure", "rho": 3.0},
    {"model": "mcf_pure"},
    {"model": "quasilinear_gradient", "a": {"kind": "constant"}},
    {"model": "quasilinear_gradient", "a": {"kind": "power_abs", "exponent": 1.0}},
    {"model": "quasilinear_gradient", "a": {"kind": "mcf"}},
    {"model": "filtration", "a": {"kind": "power"}},
    {"model": "filtration", "a": {"kind": "superslow"}},
]


@pytest.mark.parametrize(
    "descriptor", _CATALOG,
    ids=lambda d: "-".join([d["model"], *(v["kind"] for v in d.values() if isinstance(v, dict))]),
)
def test_construct_energy_runs_on_every_catalog_entry(tmp_path, descriptor):
    # Default settings throughout: every model and preset that the
    # descriptor reader accepts must build a density end to end.
    code, out = _run(tmp_path, "construct-energy", {"model": descriptor})
    assert code == 0
    assert (out / "lagrangian_grid.csv").exists()


def test_catalog_smoke_test_and_readme_list_every_family():
    # A family added to the catalog must also be smoke-tested above and
    # documented in README's "Built-in models" table.
    families = set(models._FAMILIES)
    assert {d["model"] for d in _CATALOG} == families
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Built-in models", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert {row.split("`")[1] for row in rows} == families
    assert len(rows) == len(families)


def test_readme_configs_pass_the_settings_rules(tmp_path):
    # README pairs its first JSON config with construct-energy and its second
    # with verify; a documented key that the CLI refuses fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```json\n")[1:]]
    assert len(blocks) == 2
    for command, block in zip(("construct-energy", "verify"), blocks):
        path = tmp_path / f"{command}.json"
        path.write_text(block)
        config = cli._resolve_config(path)
        cli._refuse_unread(config, cli._DEFAULTS, cli._READS[command], command)


_SMALL_DUMP = {"x": [0.0], "u": {"min": 0.25, "max": 1.0, "n": 3},
               "p": {"min": 0.25, "max": 2.0, "n": 5}}
_SMALL_COMPARE = {"x": 0.0, "u": {"min": 0.25, "max": 1.0, "n": 2},
                  "p": {"min": 0.25, "max": 1.0, "n": 3}}
_CONSTRUCT_FILES = {"manifest.json", "lagrangian_grid.csv", "lagrangian_sidecar.json"}
_VERIFY_FILES = {"manifest.json", "energy_trace.csv", "verify_report.json"}


# (command, config, every artifact it writes) for each command and g mode.
_REPRODUCIBLE_RUNS = {
    "construct-reduced": (
        "construct-energy", {"model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
                             "g_mode": "reduced", "grid_dump": _SMALL_DUMP},
        _CONSTRUCT_FILES),
    "construct-tabulated": (
        "construct-energy", {"model": {"model": "heat"}, "g_mode": "tabulated",
                             "grid_dump": _SMALL_DUMP},
        _CONSTRUCT_FILES),
    "simulate-heat": (
        "simulate", {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                     "time": {"t_end": 1e-3, "output_stride": 16}},
        {"manifest.json", "trajectory.csv"}),
    "verify-heat": (
        "verify", {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                   "time": {"t_end": 1e-3, "output_stride": 8}},
        _VERIFY_FILES),
    "verify-porous-medium": (
        "verify", {"model": {"model": "porous_medium", "m": 2.0}, "grid": {"n_cells": 16},
                   "time": {"t_end": 1e-3, "output_stride": 8},
                   "initial": {"profile": "bump"}},
        _VERIFY_FILES),
    "compare-inverse-mcf": (
        "compare-closed-form", {"model": {"model": "inverse_mcf"}, "compare": _SMALL_COMPARE},
        {"manifest.json", "comparison.csv", "comparison.json"}),
    "compare-mcf-poly": (
        "compare-closed-form", {"model": {"model": "mcf_poly", "n": 1.0},
                                "compare": _SMALL_COMPARE},
        {"manifest.json", "comparison.json"}),
}


def test_construct_energy_is_byte_reproducible(tmp_path):
    # Every command, and every artifact it writes, is the same byte for byte
    # on a rerun of the same config.
    for case, (command, config, files) in _REPRODUCIBLE_RUNS.items():
        code1, out1 = _run(tmp_path, command, config, name=f"{case}-a")
        code2, out2 = _run(tmp_path, command, config, name=f"{case}-b")
        assert code1 == code2 and code1 in (0, 2), case
        assert {f.name for f in out1.iterdir()} == {f.name for f in out2.iterdir()} == files, case
        for fname in files:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), (case, fname)


def test_artifact_writers_fix_the_byte_format(tmp_path):
    cli._write_csv(tmp_path, "table.csv", ("a", "none", "b"),
                   (np.array([0.1, 1.0 / 3.0, 1e-300, 5e-324, -0.0]), None, range(5)))
    assert (tmp_path / "table.csv").read_text() == (
        "a,none,b\n"
        "0.1,,0.0\n"
        "0.3333333333333333,,1.0\n"
        "1e-300,,2.0\n"
        "5e-324,,3.0\n"
        "-0.0,,4.0\n"
    )
    cli._write_json(tmp_path, "report.json", {"b": [1.0, float("nan")], "a": {"d": 1, "c": None}})
    assert (tmp_path / "report.json").read_text() == (
        '{\n'
        '  "a": {\n'
        '    "c": null,\n'
        '    "d": 1\n'
        '  },\n'
        '  "b": [\n'
        '    1.0,\n'
        '    NaN\n'
        '  ]\n'
        '}\n'
    )


def test_construct_energy_reduced_handles_a_rest_point_base(tmp_path):
    # The probe picks p_base = 0 for this model, which sits exactly on the
    # reaction's rest point; the reduced provider must answer with nan there
    # and let the limit probe finish the job instead of erroring out.
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
        "g_mode": "reduced",
        "grid_dump": {"x": [0.0], "u": {"min": 0.25, "max": 1.0, "n": 2},
                      "p": {"min": 0.25, "max": 2.0, "n": 3}},
    })
    assert code == 0
    side = _read_json(out / "lagrangian_sidecar.json")
    assert side["p_base"] == 0.0
    assert side["g_variant"] == "reduced_ode"
    assert side["closed_form_residual"] < 1e-6


def test_simulate_outputs(tmp_path):
    code, out = _run(tmp_path, "simulate", {
        "model": {"model": "porous_medium", "m": 2.0},
        "grid": {"n_cells": 32},
        "time": {"t_end": 1e-3, "output_stride": 4},
        "initial": {"profile": "sin", "amplitude": 1.0, "k": 1},
    })
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "t,x,u,ut"
    manifest = _read_json(out / "manifest.json")
    results = manifest["results"]
    # one long-format row per node per frame
    assert len(rows) == 1 + results["n_frames"] * 33


def test_trajectory_writer_holds_one_frame_at_a_time(tmp_path):
    spec = from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(512)
    u0 = np.maximum(0.0, 1.0 - 8.0 * (grid.nodes - 0.5) ** 2)
    result = simulate(spec, u0, 2.5e-3, grid, SolverControls(output_stride=16))
    assert len(result) == 199
    tracemalloc.start()
    try:
        _write_trajectory(tmp_path, grid, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole 6.5 MB table held as one string plus its line list peaks
    # near 24 MiB; one frame's rows take well under 1 MiB.
    assert peak < 2 * 2**20
    x = grid.nodes.tolist()
    rows = ["t,x,u,ut"] + [
        f"{float(frame.t)!r},{xi!r},{ui!r},{uti!r}"
        for frame in result
        for xi, ui, uti in zip(x, frame.u.tolist(), frame.ut.tolist())
    ]
    assert (tmp_path / "trajectory.csv").read_text() == "\n".join(rows) + "\n"


def test_verify_passes_for_linear_diffusion(tmp_path):
    code, out = _run(tmp_path, "verify", {
        "model": {"model": "heat"},
        "grid": {"n_cells": 64},
        "time": {"t_end": 5e-3, "output_stride": 8},
        "initial": {"profile": "sin", "amplitude": 1.0, "k": 1},
    })
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert report["passed_monotonicity"] is True
    assert report["passed_consistency"] is True
    trace = (out / "energy_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "t,E,dEdt_measured,dEdt_formula,dEdt_model,mask_fraction"
    E = [float(r.split(",")[1]) for r in trace[1:]]
    assert all(b < a for a, b in zip(E, E[1:]))


def test_verify_adds_the_conventional_pair_for_divergence_models(tmp_path, capsys):
    code, out = _run(tmp_path, "verify", {
        "model": {"model": "porous_medium", "m": 2.0},
        "grid": {"n_cells": 64},
        "time": {"t_end": 2e-3, "output_stride": 8},
        "initial": {"profile": "sin", "amplitude": 1.5, "k": 1},
    })
    # The constructed-energy consistency carries a singular 1/|u_x| factor
    # at the crest, so this run legitimately finishes with warnings.
    assert code == 2
    assert "consistency" in capsys.readouterr().err
    report = _read_json(out / "verify_report.json")
    assert report["passed_monotonicity"] is True
    std = report["standard_energy"]
    assert len(std["E"]) == len(std["dEdt"])
    assert std["monotone"] is True


def test_workers_flag_is_accepted_and_ignored(tmp_path, capsys):
    config = {"model": {"model": "heat"}, "grid": {"n_cells": 16},
              "time": {"t_end": 1e-3, "output_stride": 16}}
    code1, out1 = _run(tmp_path, "simulate", config, name="a")
    code2, out2 = _run(tmp_path, "simulate", config, name="b", extra=("--workers", "3"))
    assert code1 == 0 and code2 == 0
    for fname in ("trajectory.csv", "manifest.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    assert "workers" not in _read_json(out1 / "manifest.json")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "--workers" not in capsys.readouterr().out


_SMALL_VERIFY = {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                 "time": {"t_end": 1e-3, "output_stride": 8}}


def _small(command):
    """The sections of ``_SMALL_VERIFY`` that ``command`` reads."""
    return {section: v for section, v in _SMALL_VERIFY.items() if section in cli._READS[command]}


@pytest.mark.parametrize("section, override, stage", [
    ("time", {"t_end": 0}, "solver"),
    ("grid", {"n_cells": 4}, "solver"),
    ("time", {"output_stride": 0}, "solver"),
    ("time", {"output_stride": -2}, "solver"),
    # Only the initial and the final frame are stored: too few to verify.
    ("time", {"output_stride": 1000000}, "energy"),
    # Values of the wrong type, which int() and float() reject with TypeError.
    ("time", {"t_end": None}, "solver"),
    ("grid", {"n_cells": None}, "solver"),
    ("time", {"output_stride": [1]}, "solver"),
    # Not finite: nan would stop at once, inf would never reach its end.
    ("time", {"t_end": "nan"}, "solver"),
    ("time", {"t_end": "inf"}, "solver"),
], ids=["t_end-0", "n_cells-4", "stride-0", "stride-negative", "stride-huge",
        "t_end-null", "n_cells-null", "stride-list", "t_end-nan", "t_end-inf"])
def test_bad_grid_and_time_values_name_the_stage(tmp_path, capsys, section, override, stage):
    config = {**_SMALL_VERIFY, section: {**_SMALL_VERIFY[section], **override}}
    code, _ = _run(tmp_path, "verify", config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override", [
    ("simulate", {"initial": None}),
    ("simulate", {"initial": {"amplitude": None}}),
    ("simulate", {"initial": {"k": [1]}}),
    ("simulate", {"initial": {"profile": "bump", "center": "a"}}),
    ("simulate", {"initial": {"profile": "csv", "path": "missing.csv"}}),
    ("simulate", {"initial": {"profile": "csv", "path": "abc.csv"}}),
    ("construct-energy", {"grid_dump": {"x": None}}),
    ("construct-energy", {"grid_dump": {"x": []}}),
    ("construct-energy", {"grid_dump": {"u": {"n": "many"}}}),
    ("compare-closed-form", {"compare": {"x": None}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"n": None}}}),
    # Out of range: an empty axis, and a second-difference step that is not
    # a finite positive number.
    ("construct-energy", {"grid_dump": {"u": {"n": 0}}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"n": 0}}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"h": 0}}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"h": "inf"}}}),
    # Not finite, or a tolerance that is not positive: each would reach the
    # artifacts as a nan row or a bare NaN.
    ("construct-energy", {"grid_dump": {"x": ["nan"]}}),
    ("construct-energy", {"grid_dump": {"x": [0.5, "inf"]}}),
    ("compare-closed-form", {"compare": {"x": "nan"}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"quad_tol": "nan"}}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"quad_tol": 0}}}),
], ids=["initial-null", "amplitude-null", "k-list", "center-string", "csv-missing",
        "csv-not-numbers", "dump-x-null", "dump-x-empty", "dump-u-n-string",
        "compare-x-null", "lpp_check-n-null", "dump-u-n-0", "lpp_check-n-0",
        "lpp_check-h-0", "lpp_check-h-inf", "dump-x-nan", "dump-x-inf", "compare-x-nan",
        "lpp_check-quad_tol-nan", "lpp_check-quad_tol-0"])
@pytest.mark.filterwarnings("error")
def test_bad_initial_and_dump_values_name_the_stage(tmp_path, capsys, monkeypatch,
                                                    command, override):
    (tmp_path / "abc.csv").write_text("abc\n")
    monkeypatch.chdir(tmp_path)
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cli: ")
    assert "Traceback" not in err


def _no_build(spec, config):
    raise AssertionError("the g provider was built before the run settings were read")


def _robin_b(b):
    return {"model": "heat", "bc": [{"kind": "robin", "b": b}, "dirichlet"]}


@pytest.mark.parametrize("descriptor", [
    {"model": "rho_laplacian_poly", "rho": "nan", "n": 1.0},
    {"model": "rho_laplacian_poly", "rho": 1.5, "n": 1.0},
    {"model": "mcf_poly", "n": "inf"},
    {"model": "mcf_poly", "n": -1.0},
    {"model": "quasilinear_gradient", "a": {"kind": "power_abs", "exponent": "nan"}},
    # A negative coefficient is a backward heat equation; a negative exponent
    # makes the diffusion infinite at u_x = 0.
    {"model": "quasilinear_gradient", "a": {"kind": "power_abs", "coef": -1.0}},
    {"model": "quasilinear_gradient", "a": {"kind": "power_abs", "exponent": -1.0}},
    {"model": "quasilinear_gradient", "a": {"kind": "constant", "value": 0.0}},
    {"model": "porous_medium", "m": "nan"},
    {"model": "porous_medium", "m": "inf"},
    {"model": "porous_medium", "m": 0.5},
    {"model": "filtration", "a": {"kind": "power", "exponent": -1}},
    _robin_b(1.0),
    _robin_b("zero"),
    {"model": ["heat"]},
    # Keys that nothing reads: a typo would silently leave the default.
    {"model": "quasilinear_gradient", "a": {"kind": "constant", "vlaue": 2.0}},
    _robin_b({"kind": "linear", "slop": 3.0}),
    {"model": "rho_laplacian_poly", "rho": 3, "n": 1, "m": 2},
    {"model": "heat", "bc": [{"kind": "robin", "slope": 1.0}, "dirichlet"]},
], ids=["rho-nan", "rho-1.5", "n-inf", "n-negative", "power_abs-nan", "power_abs-coef-negative",
        "power_abs-exponent-negative", "constant-zero", "m-nan", "m-inf",
        "m-0.5", "filtration-decreasing", "robin-b-number", "robin-b-string", "model-list",
        "constant-vlaue", "robin-b-slop", "poly-stray-m", "robin-bc-stray-slope"])
def test_bad_descriptors_fail_in_the_models_stage(tmp_path, capsys, monkeypatch, descriptor):
    monkeypatch.setattr(cli, "_build_provider", _no_build)
    code, _ = _run(tmp_path, "construct-energy", {"model": descriptor})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: models: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override", [
    ("construct-energy", {"grid_dump": {"x": None}}),
    ("compare-closed-form", {"compare": {"x": None}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"},
                             "compare": {"lpp_check": {"n": None}}}),
], ids=["dump-x-null", "compare-x-null", "lpp_check-n-null"])
def test_bad_dump_values_fail_before_the_build(tmp_path, capsys, monkeypatch, command, override):
    monkeypatch.setattr(cli, "_build_provider", _no_build)
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cli: ")


@pytest.mark.parametrize("section, override, stage", [
    ("grid", {"n_cells": 4}, "solver"),
    ("time", {"output_stride": 0}, "solver"),
    ("initial", {"profile": "csv"}, "cli"),
    ("initial", {"profile": "csv", "path": "missing.csv"}, "cli"),
], ids=["n_cells-4", "stride-0", "csv-no-path", "csv-missing"])
def test_bad_simulation_values_fail_before_the_build(tmp_path, capsys, monkeypatch,
                                                     section, override, stage):
    monkeypatch.setattr(cli, "_build_provider", _no_build)
    monkeypatch.chdir(tmp_path)
    config = {**_SMALL_VERIFY, section: {**_SMALL_VERIFY.get(section, {}), **override}}
    code, _ = _run(tmp_path, "verify", config)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {stage}: ")


_TABULATED = {"g_mode": "tabulated"}


@pytest.mark.parametrize("override, stage", [
    # The settings of the old curve controls and interpolation table, and a
    # typo of one, are refused rather than ignored.
    ({**_TABULATED, "char_controls": {"tol": None}}, "cli"),
    ({**_TABULATED, "seed_grid": {"u0": None}}, "cli"),
    ({**_TABULATED, "coverage_min": None}, "cli"),
    ({**_TABULATED, "query_box": [[0.0, 1.0], [-1.0, 1.0]]}, "cli"),
    ({"qurey_box": [[0.0, 1.0]]}, "cli"),
    ({"time": {**_SMALL_VERIFY["time"], "dt_max": 1e-4}}, "solver"),
    ({"grid": {"n_cells": 16, "cells": 32}}, "solver"),
    ({**_TABULATED, "char_controls": {"x_end": 1.0}}, "cli"),
    ({"normalization": {"p0": None}}, "characteristics"),
    ({"normalization": None}, "characteristics"),
    ({"lagrangian": {"quad_tol": None}}, "lagrangian"),
    ({"lagrangian": {"p_star": 0.5}}, "lagrangian"),
    # Not finite, or a tolerance that is not positive.
    ({"lagrangian": {"quad_tol": "nan"}}, "lagrangian"),
    ({"lagrangian": {"quad_tol": 0}}, "lagrangian"),
    ({"lagrangian": {"quad_tol": -1}}, "lagrangian"),
    ({"normalization": {"g0": "-inf"}}, "characteristics"),
    ({"normalization": {"p0": "nan"}}, "characteristics"),
], ids=["tol-null", "u0-null", "coverage_min-null", "query_box-2", "qurey_box-typo",
        "time-dt_max", "grid-cells", "x_end", "p0-null", "normalization-null", "quad_tol-null",
        "p_star-unknown", "quad_tol-nan", "quad_tol-0", "quad_tol-negative", "g0-minus-inf",
        "p0-nan"])
def test_bad_provider_and_lagrangian_values_name_the_stage(tmp_path, capsys, override, stage):
    code, _ = _run(tmp_path, "verify", {**_SMALL_VERIFY, **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ")
    assert "Traceback" not in err


_INVERSE_MCF = {"model": {"model": "inverse_mcf"}, "compare": _SMALL_COMPARE}


@pytest.mark.parametrize("command, override, expected", [
    # A key of no default, in each section that took any key before.
    ("simulate", {"initial": {"profile": "sin", "amplitute": 0.5}},
     "error: cli: unknown settings ['initial.amplitute']"),
    ("verify", {"normalization": {"go": 2.0}},
     "error: characteristics: unknown settings ['normalization.go']"),
    ("construct-energy", {"grid_dump": {**_SMALL_DUMP, "u": {**_SMALL_DUMP["u"], "num": 7}}},
     "error: cli: unknown settings ['grid_dump.u.num']"),
    ("compare-closed-form", {**_INVERSE_MCF, "compare": {**_SMALL_COMPARE, "lpp": {"h": 0.01}}},
     "error: cli: unknown settings ['compare.lpp']"),
    ("compare-closed-form", {**_INVERSE_MCF, "compare": {"lpp_check": {"hh": 0.01}}},
     "error: cli: unknown settings ['compare.lpp_check.hh']"),
    # A bad value names its dotted key.
    ("verify", {"time": {"t_end": "abc", "output_stride": 8}},
     "error: solver: time.t_end: could not convert string to float: 'abc'"),
    ("construct-energy", {"grid_dump": {"u": {"n": "many"}}}, "error: cli: grid_dump.u.n: "),
    ("construct-energy", {"grid_dump": {"u": {"n": 0}}},
     "error: cli: grid_dump.u.n: must be >= 1, got 0"),
    ("compare-closed-form", {**_INVERSE_MCF, "compare": {"lpp_check": {"h": "inf"}}},
     "error: cli: compare.lpp_check.h: must be finite and > 0, got inf"),
], ids=["initial-typo", "normalization-typo", "dump-u-typo", "compare-typo", "lpp_check-typo",
        "t_end-string", "dump-u-n-string", "dump-u-n-0", "lpp_check-h-inf"])
def test_bad_settings_name_the_stage_and_the_key(tmp_path, capsys, command, override, expected):
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override, unread", [
    ("construct-energy", {"time": {"t_end": "abc"}}, ["time.t_end"]),
    ("simulate", {"g_mode": "bogus"}, ["g_mode"]),
    ("simulate", {"normalization": {"g0": 1.0}, "compare": {"lpp_check": {"h": 0.01}}},
     ["compare.lpp_check.h", "normalization.g0"]),
    ("verify", {"grid_dump": {"x": "abc"}}, ["grid_dump.x"]),
    ("compare-closed-form", {"time": {"t_end": "abc"}}, ["time.t_end"]),
], ids=["construct-time", "simulate-g_mode", "simulate-nested", "verify-grid_dump",
        "compare-time"])
def test_settings_that_the_command_does_not_read_are_refused(tmp_path, capsys,
                                                              command, override, unread):
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    assert capsys.readouterr().err == f"error: cli: settings {unread} are not read by {command}\n"
    # The same sections at their default values are no error.
    defaults = {section: cli._DEFAULTS[section] for section in override}
    code, _ = _run(tmp_path, command, {**_small(command), **defaults}, name="defaults")
    assert code == 0


_ROBIN_HEAT = {"model": "heat",
               "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"]}


@pytest.mark.parametrize("command, override, unread, expected", [
    # The plane x = 0 normalizes the traced g, so it reads no p0.
    ("construct-energy", {"model": _ROBIN_HEAT, "g_mode": "tabulated"},
     {"normalization": {"p0": 2.0}},
     "error: cli: settings ['normalization.p0'] are not read by g_mode 'tabulated'\n"),
    # The L_pp check runs only beside a documented variant, which heat lacks.
    ("compare-closed-form", {}, {"compare": {"lpp_check": {"h": 0.01, "n": 3}}},
     "error: cli: settings ['compare.lpp_check.h', 'compare.lpp_check.n'] are not read by "
     "model 'heat', which documents no variant\n"),
], ids=["tabulated-p0", "heat-lpp_check"])
def test_settings_that_the_model_or_mode_does_not_read_are_refused(
        tmp_path, capsys, command, override, unread, expected):
    code, _ = _run(tmp_path, command, {**_small(command), **override, **unread})
    assert code == 1
    assert capsys.readouterr().err == expected
    # The same section at its defaults is no error, and a tabulated manifest
    # still records the resolved canonical p0.
    defaults = {name: cli._DEFAULTS[name] for name in unread}
    code, out = _run(tmp_path, command, {**_small(command), **override, **defaults},
                     name="defaults")
    assert code == 0
    assert _read_json(out / "manifest.json")["config"]["normalization"]["p0"] == 1.0


def _raise(error):
    def fail(*args, **kwargs):
        raise error("injected")

    return fail


@pytest.mark.parametrize("command, config, call, error, stage", [
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "from_descriptor", ValueError, "models"),
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "analytic_g", CharacteristicsError,
     "characteristics"),
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "build_lagrangian", LagrangianError,
     "lagrangian"),
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "eval_L", QuadratureError, "lagrangian"),
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "compare_closed_form", LagrangianError,
     "lagrangian"),
    ("simulate", _SMALL_VERIFY, "simulate", SolverError, "solver"),
    ("verify", _SMALL_VERIFY, "energy_trace", QuadratureError, "energy"),
    ("compare-closed-form", _INVERSE_MCF, "second_difference_lpp", LagrangianError,
     "lagrangian"),
], ids=["from_descriptor", "analytic_g", "build_lagrangian", "eval_L", "compare_closed_form",
        "simulate", "energy_trace", "second_difference_lpp"])
def test_library_errors_name_their_stage(tmp_path, capsys, monkeypatch,
                                          command, config, call, error, stage):
    monkeypatch.setattr(cli, call, _raise(error))
    code, _ = _run(tmp_path, command, {"model": {"model": "heat"}, **config})
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {stage}: injected\n"


def test_manifest_records_every_resolved_default(tmp_path):
    code, out = _run(tmp_path, "simulate", {**_SMALL_VERIFY, "initial": {"profile": "bump"}})
    assert code == 0
    config = _read_json(out / "manifest.json")["config"]
    assert config["initial"] == {"profile": "bump", "amplitude": 1.0, "k": 1, "offset": 0.5,
                                 "center": 0.5, "sharpness": 8.0, "path": None}


def test_benchmark_launcher_runs_a_traced_verify(tmp_path):
    # perfbench/launch.py and perfbench/tracer.py bind CLI and module
    # functions by name; a rename that breaks them must fail here.
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"model": "heat",
                  "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"]},
        "g_mode": "tabulated",
        "grid": {"n_cells": 16},
        "time": {"t_end": 0.004, "output_stride": 8},
    }))
    marks, trace = tmp_path / "marks.json", tmp_path / "trace.npz"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(marks), str(trace),
         "verify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "1"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300,
    )
    # 2: the consistency warning of a sine profile that misses the Robin condition.
    assert proc.returncode == 2, proc.stderr
    assert "setup_end" in _read_json(marks)
    assert trace.exists()


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # A blocked scipy makes any scipy import fail, so a tabulated verify that
    # runs to its verdict shows that NumPy alone runs every g mode.
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"model": "heat",
                  "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"]},
        "g_mode": "tabulated",
        "grid": {"n_cells": 16},
        "time": {"t_end": 0.004, "output_stride": 8},
    }))
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from paralyap.cli import main",
        f"raise SystemExit(main(['verify', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    # 2: the consistency warning of a sine profile that misses the Robin condition.
    assert proc.returncode == 2, proc.stderr
    assert "consistency" in proc.stderr
    provider = _read_json(tmp_path / "out" / "manifest.json")["results"]["provider"]
    assert provider == {"variant": "tabulated", "extrapolations": 0}


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # The package holds only __version__: every name comes from a submodule.
    root = Path(__file__).resolve().parents[1]
    script = "\n".join([
        "import sys",
        "import paralyap",
        "loaded = sorted(m for m in sys.modules if m.startswith('paralyap.') or m == 'numpy')",
        "print(loaded, sorted(n for n in vars(paralyap) if not n.startswith('__')))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def test_tabulated_metadata_is_strict_json(tmp_path):
    # The plane x = 0 normalizes the tabulated g, so it has no p0: the
    # sidecar records null, never a bare NaN, and g0 is the configured one.
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "heat"}, "g_mode": "tabulated",
        "normalization": {"g0": 0.5}, "grid_dump": _SMALL_DUMP,
    })
    assert code == 0

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    for name in ("lagrangian_sidecar.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=refuse)
    side = _read_json(out / "lagrangian_sidecar.json")
    assert side["normalization"] == {"p0": None, "g0": 0.5}
    assert side["provider"] == {"variant": "tabulated", "extrapolations": 0}


def test_compare_closed_form_scores_a_builtin(tmp_path):
    code, out = _run(tmp_path, "compare-closed-form", {
        "model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
        "compare": {"x": 0.0,
                    "u": {"min": 0.25, "max": 1.0, "n": 3},
                    "p": {"min": 0.25, "max": 2.0, "n": 8}},
    })
    assert code == 0
    report = _read_json(out / "comparison.json")
    assert report["oracle"] == "closed_form"
    assert report["max_residual"] < 1e-6
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "u,p,L_numeric,L_closed,residual_after_affine_fit"
    assert len(rows) == 1 + 3 * 8


def test_compare_closed_form_reports_a_missing_oracle(tmp_path, capsys):
    code, out = _run(tmp_path, "compare-closed-form", {
        "model": {"model": "mcf_poly", "n": 1.0},
        "compare": {"x": 0.0,
                    "u": {"min": 0.25, "max": 1.0, "n": 2},
                    "p": {"min": 0.25, "max": 1.0, "n": 3}},
    })
    assert code == 0
    assert "oracle disabled" in capsys.readouterr().out
    report = _read_json(out / "comparison.json")
    assert report["oracle"] is None
    assert not (out / "comparison.csv").exists()


def test_initial_profile_from_csv(tmp_path):
    nodes = np.linspace(0.0, 1.0, 17)
    data = tmp_path / "profile.csv"
    np.savetxt(data, 0.5 * np.sin(np.pi * nodes))
    code, out = _run(tmp_path, "simulate", {
        "model": {"model": "heat"},
        "grid": {"n_cells": 16},
        "time": {"t_end": 1e-4, "output_stride": 64},
        "initial": {"profile": "csv", "path": str(data)},
    })
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    first_u = float(rows[1 + 8].split(",")[2])
    assert first_u == pytest.approx(0.5 * np.sin(np.pi * 0.5), abs=1e-12)


# Per profile: non-default values for the keys it reads, and a key it does not read.
@pytest.mark.parametrize("profile, own, stray", [
    ("zero", {}, {"amplitude": 2.0}),
    ("sin", {"amplitude": 0.5, "k": 2}, {"center": 0.3}),
    ("shifted_sin", {"amplitude": 0.5, "offset": 1.0}, {"k": 2}),
    ("ramp_sin", {"amplitude": 0.5}, {"offset": 0.1}),
    ("bump", {"amplitude": 0.5, "center": 0.4, "sharpness": 4.0}, {"k": 2}),
    ("csv", {"path": "profile.csv"}, {"amplitude": 2.0, "sharpness": 1.0}),
], ids=["zero", "sin", "shifted_sin", "ramp_sin", "bump", "csv"])
def test_initial_keys_that_the_profile_does_not_read_are_refused(tmp_path, capsys, monkeypatch,
                                                                  profile, own, stray):
    monkeypatch.chdir(tmp_path)
    np.savetxt(tmp_path / "profile.csv", np.linspace(0.0, 1.0, 17) ** 2)
    base = {"model": {"model": "heat"}, "grid": {"n_cells": 16},
            "time": {"t_end": 1e-4, "output_stride": 64}}
    initial = {"profile": profile, **own}
    code, out = _run(tmp_path, "simulate", {**base, "initial": initial})
    assert code == 0
    assert _read_json(out / "manifest.json")["config"]["initial"]["profile"] == profile
    code, _ = _run(tmp_path, "simulate", {**base, "initial": {**initial, **stray}}, name="stray")
    assert code == 1
    keys = sorted(f"initial.{key}" for key in stray)
    assert capsys.readouterr().err == (
        f"error: cli: settings {keys} are not read by profile {profile!r}\n")


def test_missing_config_is_an_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config file not found" in capsys.readouterr().err


def test_unknown_model_is_an_error(tmp_path, capsys):
    code, _ = _run(tmp_path, "construct-energy", {"model": {"model": "nope"}})
    assert code == 1
    assert "models" in capsys.readouterr().err


def test_invalid_json_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_command_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert "invalid choice" in capsys.readouterr().err
