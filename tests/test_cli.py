"""Command-line contract: files, exit codes, reproducibility.

Each run goes through ``main`` in-process with a JSON config in a temp
directory, exactly as a shell invocation would.
"""

import json

import numpy as np
import pytest

from paralyap.cli import main


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


@pytest.mark.parametrize(
    "descriptor",
    [
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
    ],
    ids=lambda d: "-".join([d["model"], *(v["kind"] for v in d.values() if isinstance(v, dict))]),
)
def test_construct_energy_runs_on_every_catalog_entry(tmp_path, descriptor):
    # Default settings throughout: every model and preset that the
    # descriptor reader accepts must build a density end to end.
    code, out = _run(tmp_path, "construct-energy", {"model": descriptor})
    assert code == 0
    assert (out / "lagrangian_grid.csv").exists()


def test_construct_energy_is_byte_reproducible(tmp_path):
    config = {
        "model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
        "g_mode": "reduced",
        "grid_dump": {"x": [0.0], "u": {"min": 0.25, "max": 1.0, "n": 3},
                      "p": {"min": 0.25, "max": 2.0, "n": 5}},
    }
    code1, out1 = _run(tmp_path, "construct-energy", config, name="a")
    code2, out2 = _run(tmp_path, "construct-energy", config, name="b")
    assert code1 == 0 and code2 == 0
    for fname in ("lagrangian_grid.csv", "lagrangian_sidecar.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


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


def test_construct_energy_tabulated_writes_the_snapshot(tmp_path):
    # Curves of this model keep p frozen, so the seeds must already span
    # the p range of the query box.
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "heat"},
        "g_mode": "tabulated",
        "seed_grid": {"u0": [-1.0, -0.5, 0.0, 0.5, 1.0],
                      "p0": [-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6]},
        "query_box": [[0.0, 1.0], [-0.5, 0.5], [-0.5, 0.5]],
        "grid_dump": {"x": [0.5], "u": {"min": -0.4, "max": 0.4, "n": 3},
                      "p": {"min": 0.1, "max": 0.4, "n": 3}},
    })
    assert code == 0
    snap = _read_json(out / "g_provider.json")
    assert snap["variant"] == "tabulated"
    assert snap["n_samples"] == len(snap["samples"]["g"])


def test_low_coverage_returns_a_warning_code(tmp_path, capsys):
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "heat"},
        "g_mode": "tabulated",
        "seed_grid": {"u0": [0.0], "p0": [0.5]},
        "query_box": [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "grid_dump": {"x": [0.5], "u": {"min": -0.1, "max": 0.1, "n": 2},
                      "p": {"min": 0.4, "max": 0.6, "n": 2}},
    })
    assert code == 2
    assert "coverage" in capsys.readouterr().err
    side = _read_json(out / "lagrangian_sidecar.json")
    assert side["provider"]["low_coverage"] is True


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
    assert results["termination"] == "t_end_reached"
    # one long-format row per node per frame
    assert len(rows) == 1 + results["n_frames"] * 33


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
