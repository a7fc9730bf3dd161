"""Command-line contract: files, exit codes, reproducibility.

Each run goes through ``main`` in-process with a JSON config in a temp
directory, exactly as a shell invocation would.  A check that needs its own
interpreter starts it through ``start_python`` or ``run_python``, here and in
``test_cli_process.py``.
"""

import ast
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paralyap import _trajectory, cli, models
from paralyap.characteristics import ReducedGError, analytic_g, reduced_ode_g
from paralyap.cli import main
from paralyap.lagrangian import LagrangianError, build_lagrangian
from paralyap.models import from_descriptor
from paralyap.quadrature import QuadratureError
from paralyap.solver import Grid1D, SolverControls, SolverError, simulate


ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, command, config, name="run", extra=()):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def start_python(*args, threads=None, **popen):
    """Start ``python *args`` with this checkout's ``src`` as its PYTHONPATH.

    ``threads`` sets the BLAS and OpenMP thread counts; ``args`` may begin
    with interpreter options such as ``-W error`` or ``-X dev``.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if threads is not None:
        env |= {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **popen)


def run_python(*args, threads=None, timeout=120):
    """Run ``python *args`` as ``start_python`` does, and capture its output."""
    with start_python(*args, threads=threads,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        finally:
            proc.kill()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


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


# The catalog, the forcing exponents 0, 1/2 and 2, and the builtins whose
# reduced g became available with a zero rate, with whether e^g blows up at
# p = 0 under the analytic and the reduced g.
_PROBED = [*_CATALOG,
           {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.0},
           {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.5},
           {"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0},
           {"model": "mcf_poly", "n": 0.0},
           {"model": "porous_medium", "m": 1.0}]
_SINGULAR_AT_ZERO = [
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
    {"model": "mcf_poly", "n": 1.0},
    {"model": "porous_medium", "m": 2.0},
    {"model": "filtration", "a": {"kind": "power"}},
    {"model": "filtration", "a": {"kind": "superslow"}},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.5},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0},
]


@pytest.mark.parametrize("g_mode", ["analytic", "reduced"])
@pytest.mark.parametrize("descriptor", _PROBED, ids=lambda d: json.dumps(d, sort_keys=True))
def test_the_probe_finds_each_builtin_singular_weight(descriptor, g_mode):
    # No spec declares how e^g behaves at p = 0: the Lagrangian's probe of g
    # near 0 decides it, and it records the decision in the sidecar.
    spec = from_descriptor(descriptor)
    provider = {"analytic": analytic_g, "reduced": reduced_ode_g}[g_mode]
    lag = build_lagrangian(spec, provider(spec, spec.closed_forms.canonical_p0))
    assert lag.singular_weight is (descriptor in _SINGULAR_AT_ZERO)
    assert lag.metadata["singular_weight"] is lag.singular_weight


def test_catalog_smoke_test_and_readme_list_every_family():
    # A family added to the catalog must also be smoke-tested above and
    # documented in README's "Built-in models" table.
    families = set(models._FAMILIES)
    assert {d["model"] for d in _CATALOG} == families
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Built-in models", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert {row.split("`")[1] for row in rows} == families
    assert len(rows) == len(families)


def test_readme_configs_pass_the_settings_rules(tmp_path):
    # README pairs its first JSON config with construct-energy and its second
    # with verify; a documented key that the CLI refuses fails here.
    readme = (ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```json\n")[1:]]
    assert len(blocks) == 2
    for command, block in zip(("construct-energy", "verify"), blocks):
        path = tmp_path / f"{command}.json"
        path.write_text(block)
        config = cli._resolve_config(path)
        cli._refuse_unread(config, cli._DEFAULTS, cli._READS[command], command)


def test_readme_python_blocks_run_in_order():
    # The quick start, the provider swap, the hand-built spec and the
    # Filtration example, run as one session in the order a reader meets them.
    readme = (ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


_SMALL_DUMP = {"x": [0.0], "u": {"min": 0.25, "max": 1.0, "n": 3},
               "p": {"min": 0.25, "max": 2.0, "n": 5}}
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
        "compare-closed-form", {"model": {"model": "inverse_mcf"}, "grid_dump": _SMALL_DUMP},
        {"manifest.json", "comparison.csv", "comparison.json"}),
    "compare-mcf-poly": (
        "compare-closed-form", {"model": {"model": "mcf_poly", "n": 1.0},
                                "grid_dump": _SMALL_DUMP},
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


def _plain_trajectory(grid, result):
    """trajectory.csv as plain expressions: a row per node per frame, each float as repr."""
    x = grid.nodes.tolist()
    rows = ["t,x,u,ut"] + [
        f"{float(frame.t)!r},{xi!r},{ui!r},{uti!r}"
        for frame in result
        for xi, ui, uti in zip(x, frame.u.tolist(), frame.ut.tolist())
    ]
    return "\n".join(rows) + "\n"


def test_trajectory_writer_holds_one_frame_at_a_time(tmp_path):
    spec = from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(512)
    u0 = np.maximum(0.0, 1.0 - 8.0 * (grid.nodes - 0.5) ** 2)
    result = simulate(spec, u0, 2.5e-3, grid, SolverControls(output_stride=16))
    assert len(result) == 199
    # The writer's input: the nodes, then (t, u, u_t) per frame, native
    # float64, then the end record.
    source = io.BytesIO(grid.nodes.tobytes() + b"".join(
        np.float64(frame.t).tobytes() + frame.u.tobytes() + frame.ut.tobytes()
        for frame in result) + np.float64(np.nan).tobytes())
    tracemalloc.start()
    try:
        with open(tmp_path / "trajectory.csv", "w", encoding="ascii") as out:
            _trajectory.write_trajectory(source, len(grid.nodes), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole 6.5 MB table held as one string plus its line list peaks
    # near 24 MiB; one frame's rows take well under 1 MiB.
    assert peak < 2 * 2**20
    assert (tmp_path / "trajectory.csv").read_text() == _plain_trajectory(grid, result)


def test_every_trajectory_cell_is_the_repr_of_its_float():
    # A signed zero, the smallest subnormal, repr's switches to an exponent
    # below 1e-4 and from 1e16, and two shortest round trips.
    values = [-0.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2, 1 / 3]
    assert [repr(v) for v in values] == [
        "-0.0", "5e-324", "1e-05", "1e+16", "0.30000000000000004", "0.3333333333333333"]
    n = len(values)
    x = np.linspace(0.0, 1.0, n)
    t, u, ut = 0.1 + 0.2, values, values[::-1]
    source = io.BytesIO(x.tobytes() + np.array([t, *u, *ut]).tobytes()
                        + np.float64(np.nan).tobytes())
    out = io.StringIO()
    _trajectory.write_trajectory(source, n, out)
    rows = out.getvalue().splitlines()
    assert rows[0] == "t,x,u,ut"
    assert [row.split(",") for row in rows[1:]] == [
        [repr(t), repr(xi), repr(ui), repr(uti)] for xi, ui, uti in zip(x.tolist(), u, ut)]


def test_simulate_writes_plain_rows_when_the_writer_lags(tmp_path):
    # At stride 1 on 256 cells every step stores a 4 KiB frame, so the pipe to
    # the writer fills and the solver waits on it.  The file must still be
    # the plain-expression rows of the frames that simulate returns.
    config = {"model": {"model": "porous_medium", "m": 2.0}, "grid": {"n_cells": 256},
              "time": {"t_end": 5e-4, "output_stride": 1}, "initial": {"profile": "bump"}}
    code, out = _run(tmp_path, "simulate", config)
    assert code == 0
    grid = Grid1D(256)
    spec = from_descriptor(config["model"])
    u0 = np.maximum(0.0, 1.0 - 8.0 * (grid.nodes - 0.5) ** 2)
    result = simulate(spec, u0, 5e-4, grid, SolverControls(output_stride=1))
    # Eight times a default 64 KiB pipe buffer.
    assert len(result) * 2 * len(grid.nodes) * 8 > 8 * 2**16
    assert (out / "trajectory.csv").read_text() == _plain_trajectory(grid, result)
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "trajectory.csv"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_solver_failure_leaves_no_trajectory_and_no_child(tmp_path, capsys, monkeypatch):
    # The solver fails at the fifth frame, once the writer has made its part file.
    out = tmp_path / "run_out"

    def failing(spec, u0, t_end, grid, controls, sink):
        def store(frame):
            sink(frame)
            store.frames += 1
            if store.frames == 5:
                deadline = time.monotonic() + 60.0
                while not (out / "trajectory.csv.part").exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise SolverError("injected failure")
        store.frames = 0
        return simulate(spec, u0, t_end, grid, controls, sink=store)

    monkeypatch.setattr(cli, "simulate", failing)
    code, _ = _run(tmp_path, "simulate", {
        "model": {"model": "porous_medium", "m": 2.0}, "grid": {"n_cells": 64},
        "time": {"t_end": 1e-3, "output_stride": 1}, "initial": {"profile": "bump"}})
    assert code == 1
    assert capsys.readouterr().err == "error: solver: injected failure\n"
    assert list(out.iterdir()) == []
    _assert_no_child_left()


@pytest.mark.parametrize("blocked, message", [
    # The writer cannot open its part file.
    ("trajectory.csv.part", "IsADirectoryError: [Errno 21] Is a directory"),
    # The writer succeeds, but its part file cannot take the final name.
    ("trajectory.csv", "[Errno 21] Is a directory"),
])
def test_a_failing_writer_is_a_cli_error(tmp_path, capsys, blocked, message):
    out = tmp_path / "run_out"
    (out / blocked / "keep").mkdir(parents=True)
    code, _ = _run(tmp_path, "simulate", {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                                          "time": {"t_end": 1e-3, "output_stride": 4}})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cli: trajectory.csv: {message}"), err
    assert "Traceback" not in err
    assert sorted(f.name for f in out.iterdir()) == [blocked]
    _assert_no_child_left()


def test_the_writer_gets_the_cli_options_and_its_stderr_is_passed_on(tmp_path, capsys,
                                                                     monkeypatch):
    # Under -X importtime the writer prints its imports; they reach the CLI's
    # stderr, and NumPy is not among them.
    monkeypatch.setattr(sys, "_xoptions", {**sys._xoptions, "importtime": True})
    code, _ = _run(tmp_path, "simulate", {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                                          "time": {"t_end": 1e-3, "output_stride": 4}})
    assert code == 0
    err = capsys.readouterr().err
    assert "import time:" in err and "encodings" in err
    assert "numpy" not in err and "paralyap" not in err


def test_the_trajectory_writer_imports_only_the_standard_library():
    # The CLI runs it under -I -S, where neither the package nor NumPy is on the path.
    tree = ast.parse(Path(_trajectory.__file__).read_text())
    imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported and imported <= sys.stdlib_module_names, imported


# A record cut short, then no frame and two whole frames without the end
# record: the input of a caller that died inside a frame or between two.
@pytest.mark.parametrize("floats, got", [(5, 40), (0, 0), (38, 0)])
def test_the_trajectory_writer_removes_its_file_without_the_end_record(tmp_path, floats, got):
    part = tmp_path / "trajectory.csv.part"
    nodes = np.linspace(0.0, 1.0, 9)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", _trajectory.__file__, "9", str(part)],
        input=nodes.tobytes() + np.ones(floats).tobytes(), capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert f"EOFError: input ends without the end record: {got} of 152 bytes".encode() in proc.stderr
    assert not part.exists()


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_a_killed_simulate_leaves_no_part_file(tmp_path, signum):
    # A run of about 26,000 steps on 512 cells still steps when the part
    # file appears, and at stride 64 the writer keeps up, so the pipe mostly
    # holds whole records when the CLI dies.  The writer inherits the CLI's
    # stdout, so that pipe ends only once both processes have exited, which
    # must take at most 5 s.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"model": "porous_medium", "m": 2.0}, "grid": {"n_cells": 512},
        "time": {"t_end": 0.025, "output_stride": 64}, "initial": {"profile": "bump"}}))
    out = tmp_path / "run_out"
    part = out / "trajectory.csv.part"
    proc = start_python("-m", "paralyap", "simulate", "--config", str(cfg), "--out", str(out),
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not part.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signum)
        proc.communicate(timeout=5)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signum
    assert list(out.iterdir()) == []


def test_an_artifact_that_cannot_be_written_is_a_cli_error(tmp_path, capsys):
    out = tmp_path / "run_out"
    (out / "manifest.json").mkdir(parents=True)
    code, _ = _run(tmp_path, "simulate", {"model": {"model": "heat"}, "grid": {"n_cells": 16},
                                          "time": {"t_end": 1e-3, "output_stride": 4}})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cli: manifest.json: [Errno 21] Is a directory"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["construct-energy", "simulate", "verify",
                                     "compare-closed-form"])
def test_an_out_path_that_is_a_file_is_refused_before_any_stage(tmp_path, capsys, monkeypatch,
                                                               command):
    def no_stage(config):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "_build_spec", no_stage)
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text("{}")
    out.write_text("a file")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cli: --out: [Errno 17] File exists: {str(out)!r}"), err
    assert out.read_text() == "a file"


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


def test_verify_exits_1_when_the_energy_rises(tmp_path, capsys):
    # The constructed energy of porous_medium m = 2 rises on the default sin
    # profile: monotonicity fails, and that outranks a consistency warning.
    code, out = _run(tmp_path, "verify", {
        "model": {"model": "porous_medium", "m": 2.0},
        "grid": {"n_cells": 32},
        "time": {"t_end": 0.01, "output_stride": 8},
    })
    assert code == 1
    assert capsys.readouterr().err == "monotonicity violations: 3\n"
    report = _read_json(out / "verify_report.json")
    assert report["passed_monotonicity"] is False
    assert len(report["monotonicity_violations"]) == 3
    assert _read_json(out / "manifest.json")["results"]["passed_monotonicity"] is False


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


def test_a_count_may_be_written_as_a_whole_float_or_a_string(tmp_path):
    # 16.0 and "8" are the counts 16 and 8; only a fraction is refused.
    runs = {name: _run(tmp_path, "simulate", {**_small("simulate"), **override}, name=name)
            for name, override in (("int", {}), ("spelled", {
                "grid": {"n_cells": 16.0}, "time": {"t_end": 1e-3, "output_stride": "8"}}))}
    assert [code for code, _ in runs.values()] == [0, 0]
    trajectories = [(out / "trajectory.csv").read_bytes() for _, out in runs.values()]
    assert trajectories[0] == trajectories[1]


@pytest.mark.parametrize("command, override, says", [
    ("simulate", {"initial": None}, "cli: initial must be a JSON object"),
    ("simulate", {"initial": {"amplitude": None}}, "cli: initial.amplitude: "),
    ("simulate", {"initial": {"k": [1]}}, "cli: initial.k: "),
    ("simulate", {"initial": {"profile": "bump", "center": "a"}}, "cli: initial.center: "),
    ("simulate", {"initial": {"profile": "csv", "path": "missing.csv"}}, "cli: initial.path: "),
    ("simulate", {"initial": {"profile": "csv", "path": "abc.csv"}}, "cli: initial.path: "),
    ("construct-energy", {"grid_dump": {"x": None}}, "cli: grid_dump.x: "),
    ("construct-energy", {"grid_dump": {"x": []}}, "cli: grid_dump.x: "),
    ("construct-energy", {"grid_dump": {"u": {"n": "many"}}}, "cli: grid_dump.u.n: "),
    ("compare-closed-form", {"grid_dump": {"x": None}}, "cli: grid_dump.x: "),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"}, "grid_dump": {"u": {"n": None}}},
     "cli: grid_dump.u.n: "),
    # Out of range: an empty axis.
    ("construct-energy", {"grid_dump": {"u": {"n": 0}}}, "cli: grid_dump.u.n: "),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"}, "grid_dump": {"p": {"n": 0}}},
     "cli: grid_dump.p.n: "),
    # Not finite: each would reach the artifacts as a nan row or a bare NaN.
    ("construct-energy", {"grid_dump": {"x": ["nan"]}}, "cli: grid_dump.x: "),
    ("construct-energy", {"grid_dump": {"x": [0.5, "inf"]}}, "cli: grid_dump.x: "),
    ("compare-closed-form", {"grid_dump": {"x": ["nan"]}}, "cli: grid_dump.x: "),
    # A JSON boolean is not the number 1, a count is not truncated, and a
    # profile name that is not a string is unknown.
    ("construct-energy", {"grid_dump": {"u": {"n": True}}}, "cli: grid_dump.u.n: "),
    ("construct-energy", {"grid_dump": {"x": [True]}}, "cli: grid_dump.x: "),
    ("construct-energy", {"grid_dump": {"u": {"n": 3.5}}}, "cli: grid_dump.u.n: "),
    ("simulate", {"initial": {"profile": ["sin"]}}, "cli: initial.profile: "),
    # A non-finite initial state or end time would only fail in the solver,
    # after the energy is built; each is refused where it is read.
    ("verify", {"initial": {"amplitude": "inf"}}, "cli: initial.amplitude: must be finite"),
    ("verify", {"initial": {"k": "nan"}}, "cli: initial.k: must be finite"),
    ("verify", {"initial": {"profile": "bump", "sharpness": "-inf"}},
     "cli: initial.sharpness: must be finite"),
    ("verify", {"initial": {"profile": "csv", "path": "nan.csv"}},
     "cli: initial.path: line 9: must be finite, got nan"),
    # A blank line is skipped, yet counted in the line number.
    ("verify", {"initial": {"profile": "csv", "path": "inf.csv"}},
     "cli: initial.path: line 5: must be finite, got -inf"),
    ("verify", {"time": {"t_end": "inf"}}, "solver: time.t_end: must be finite and > 0"),
], ids=["initial-null", "amplitude-null", "k-list", "center-string", "csv-missing",
        "csv-not-numbers", "dump-x-null", "dump-x-empty", "dump-u-n-string",
        "compare-dump-x-null", "compare-dump-u-n-null", "dump-u-n-0", "compare-dump-p-n-0",
        "dump-x-nan", "dump-x-inf", "compare-dump-x-nan", "dump-u-n-true", "dump-x-true",
        "dump-u-n-fraction", "profile-list", "amplitude-inf", "k-nan", "sharpness-minus-inf",
        "csv-nan", "csv-minus-inf", "t_end-inf"])
def test_bad_initial_and_dump_values_name_the_stage(tmp_path, capsys, monkeypatch,
                                                    command, override, says):
    (tmp_path / "abc.csv").write_text("abc\n")
    values = [repr(v) for v in np.sin(np.pi * np.linspace(0.0, 1.0, 17)).tolist()]
    (tmp_path / "nan.csv").write_text("\n".join(values[:8] + ["nan"] + values[9:]) + "\n")
    (tmp_path / "inf.csv").write_text("\n".join(values[:3] + ["", "-inf"] + values[4:]) + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_build_provider", _no_build)
    monkeypatch.setattr(cli, "_run_simulation", _no_run)
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}")
    assert "Traceback" not in err


def _no_build(spec, config):
    raise AssertionError("the g provider was built before the run settings were read")


def _no_run(*args, **kwargs):
    raise AssertionError("the solver ran before the run settings were read")


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
    ("compare-closed-form", {"model": {"model": "inverse_mcf"}, "grid_dump": {"x": None}}),
    ("compare-closed-form", {"model": {"model": "inverse_mcf"}, "grid_dump": {"p": {"n": None}}}),
], ids=["dump-x-null", "compare-dump-x-null", "compare-dump-p-n-null"])
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
    ({"lagrangian": {"p_base": "nan"}}, "lagrangian"),
    ({"lagrangian": {"p_base": "inf"}}, "lagrangian"),
], ids=["tol-null", "u0-null", "coverage_min-null", "query_box-2", "qurey_box-typo",
        "time-dt_max", "grid-cells", "x_end", "p0-null", "normalization-null", "quad_tol-null",
        "p_star-unknown", "quad_tol-nan", "quad_tol-0", "quad_tol-negative", "g0-minus-inf",
        "p0-nan", "p_base-nan", "p_base-inf"])
def test_bad_provider_and_lagrangian_values_name_the_stage(tmp_path, capsys, override, stage):
    code, _ = _run(tmp_path, "verify", {**_SMALL_VERIFY, **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ")
    assert "Traceback" not in err


_INVERSE_MCF = {"model": {"model": "inverse_mcf"}, "grid_dump": _SMALL_DUMP}


@pytest.mark.parametrize("command, override, expected", [
    # A key of no default, in each section that took any key before.
    ("simulate", {"initial": {"profile": "sin", "amplitute": 0.5}},
     "error: cli: unknown settings ['initial.amplitute']"),
    ("verify", {"normalization": {"go": 2.0}},
     "error: characteristics: unknown settings ['normalization.go']"),
    ("construct-energy", {"grid_dump": {**_SMALL_DUMP, "u": {**_SMALL_DUMP["u"], "num": 7}}},
     "error: cli: unknown settings ['grid_dump.u.num']"),
    ("compare-closed-form", {**_INVERSE_MCF, "grid_dump": {**_SMALL_DUMP, "xs": [0.5]}},
     "error: cli: unknown settings ['grid_dump.xs']"),
    # A bad value names its dotted key.
    ("verify", {"time": {"t_end": "abc", "output_stride": 8}},
     "error: solver: time.t_end: could not convert string to float: 'abc'"),
    ("construct-energy", {"grid_dump": {"u": {"n": "many"}}}, "error: cli: grid_dump.u.n: "),
    ("construct-energy", {"grid_dump": {"u": {"n": 0}}},
     "error: cli: grid_dump.u.n: must be >= 1, got 0"),
    ("compare-closed-form", {**_INVERSE_MCF, "grid_dump": {**_SMALL_DUMP, "x": ["inf"]}},
     "error: cli: grid_dump.x: must be a nonempty list of finite numbers"),
    ("verify", {"lagrangian": {"p_base": "nan"}},
     "error: lagrangian: lagrangian.p_base: must be finite, got nan\n"),
    # No setting takes a boolean, and a count is refused, not truncated.
    ("simulate", {"time": {"t_end": True}},
     "error: solver: time.t_end: takes no boolean, got True\n"),
    ("verify", {"lagrangian": {"p_base": True}},
     "error: lagrangian: lagrangian.p_base: takes no boolean, got True\n"),
    ("construct-energy", {"grid_dump": {"u": {"n": True}}},
     "error: cli: grid_dump.u.n: takes no boolean, got True\n"),
    ("construct-energy", {"grid_dump": {"x": [True]}},
     "error: cli: grid_dump.x: takes no boolean, got True\n"),
    ("simulate", {"grid": {"n_cells": 16.7}},
     "error: solver: grid.n_cells: must be an integer, got 16.7\n"),
    ("simulate", {"time": {"output_stride": 2.9}},
     "error: solver: time.output_stride: must be an integer, got 2.9\n"),
    ("construct-energy", {"model": {"model": "porous_medium", "m": True}},
     "error: models: m must be a finite number, got True\n"),
    ("construct-energy", {"model": {"model": "heat", "bc": [
        {"kind": "robin", "b": {"kind": "linear", "slope": True}}, "dirichlet"]}},
     "error: models: slope must be a finite number, got True\n"),
    # Not finite, or a tolerance that is not positive.
    ("construct-energy", {"lagrangian": {"quad_tol": "nan"}},
     "error: lagrangian: lagrangian.quad_tol: must be finite and > 0"),
    ("construct-energy", {"grid_dump": {"x": ["nan"]}},
     "error: cli: grid_dump.x: must be a nonempty list of finite numbers"),
    ("construct-energy", {"normalization": {"g0": "-inf"}},
     "error: characteristics: normalization.g0: must be finite"),
    # Removed sections are unknown.
    ("verify", {"char_controls": {"tol": 1e-9}}, "error: cli: unknown settings ['char_controls']"),
    ("compare-closed-form", {"compare": {"x": 0.5}}, "error: cli: unknown settings ['compare']"),
], ids=["initial-typo", "normalization-typo", "dump-u-typo", "compare-dump-typo",
        "t_end-string", "dump-u-n-string", "dump-u-n-0", "compare-dump-x-inf", "p_base-nan",
        "t_end-true", "p_base-true", "dump-u-n-true", "dump-x-true", "n_cells-fraction",
        "stride-fraction", "m-true", "robin-slope-true", "quad_tol-nan", "dump-x-nan",
        "g0-minus-inf", "char_controls", "compare-section"])
def test_bad_settings_name_the_stage_and_the_key(tmp_path, capsys, command, override, expected):
    code, _ = _run(tmp_path, command, {**_small(command), **override})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override, unread", [
    ("construct-energy", {"time": {"t_end": "abc"}}, ["time.t_end"]),
    ("simulate", {"g_mode": "bogus"}, ["g_mode"]),
    ("simulate", {"normalization": {"g0": 1.0}, "grid_dump": {"u": {"n": 3}}},
     ["grid_dump.u.n", "normalization.g0"]),
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
], ids=["tabulated-p0"])
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
    ("construct-energy", {"grid_dump": _SMALL_DUMP}, "analytic_g", ReducedGError,
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
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"model": "heat",
                  "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"]},
        "g_mode": "tabulated",
        "grid": {"n_cells": 16},
        "time": {"t_end": 0.004, "output_stride": 8},
    }))
    marks, trace = tmp_path / "marks.json", tmp_path / "trace.npz"
    proc = run_python(str(ROOT / "perfbench" / "launch.py"), str(marks), str(trace),
                      "verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                      "--workers", "1", timeout=300)
    # 2: the consistency warning of a sine profile that misses the Robin condition.
    assert proc.returncode == 2, proc.stderr
    assert "setup_end" in _read_json(marks)
    assert trace.exists()


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # A blocked scipy makes any scipy import fail, so a tabulated verify that
    # runs to its verdict shows that NumPy alone runs every g mode.
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
    proc = run_python("-c", script, timeout=120)
    # 2: the consistency warning of a sine profile that misses the Robin condition.
    assert proc.returncode == 2, proc.stderr
    assert "consistency" in proc.stderr
    provider = _read_json(tmp_path / "out" / "manifest.json")["results"]["provider"]
    assert provider == {"variant": "tabulated", "extrapolations": 0}


def test_a_run_leaves_its_import_time_heap_frozen(tmp_path):
    # main freezes what the imports built, so the collections at shutdown
    # skip it: after a run the collector tracks only a small remainder.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": {"model": "heat"}, "grid_dump": _SMALL_DUMP}))
    script = "\n".join([
        "import gc",
        "from paralyap.cli import main",
        f"code = main(['construct-energy', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])",
        "print(code, len(gc.get_objects()), gc.get_freeze_count())",
    ])
    proc = run_python("-c", script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, tracked, frozen = map(int, proc.stdout.split())
    assert code == 0
    assert tracked < frozen / 10, (tracked, frozen)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # The package holds only __version__: every name comes from a submodule.
    script = "\n".join([
        "import sys",
        "import paralyap",
        "loaded = sorted(m for m in sys.modules if m.startswith('paralyap.') or m == 'numpy')",
        "print(loaded, sorted(n for n in vars(paralyap) if not n.startswith('__')))",
    ])
    proc = run_python("-c", script, timeout=60)
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


@pytest.mark.parametrize("n, unreached", [(2.0, 0), (0.5, 0)])
def test_traced_queries_that_cannot_reach_the_plane_are_counted(tmp_path, n, unreached):
    # rho_laplacian_poly (3, n) has D = 2|p| and R = -|p|**n, so at p = 0 the
    # curve field R/D is 0/0 and, at n = 0.5, the g rate is infinite: no curve
    # from p = 0 reaches the plane.  The probe's curves reach x = 0, so p_base
    # is 0, and since D vanishes there the l0 quadrature never asks for g at
    # p = 0: its compatibility term takes the limit from p = 1e-6 and 1e-7,
    # whose curves land.  So no query of the 9 x 9 dump grid, nor of its
    # closed-form comparison, is unreached.
    code, out = _run(tmp_path, "construct-energy", {
        "model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": n}, "g_mode": "tabulated",
    })
    assert code == 0
    results = _read_json(out / "manifest.json")["results"]
    assert results["p_base"] == 0.0
    assert results["provider"] == {"variant": "tabulated", "extrapolations": unreached}


# The catalog entries whose builtin ships a closed-form L.
_ORACLES = [d for d in _CATALOG if from_descriptor(d).closed_forms.lagrangian is not None]


@pytest.mark.parametrize("descriptor", _ORACLES, ids=lambda d: json.dumps(d, sort_keys=True))
def test_both_energy_commands_report_one_closed_form_residual(tmp_path, descriptor):
    # compare-closed-form and construct-energy's sidecar score the same
    # comparison, at the first dump x on the dump's u and p axes.
    config = {"model": descriptor, "grid_dump": {**_SMALL_DUMP, "x": [0.25, 0.75]}}
    code, construct = _run(tmp_path, "construct-energy", config, name="construct")
    assert code == 0
    code, compare = _run(tmp_path, "compare-closed-form", config, name="compare")
    assert code == 0
    residual = _read_json(construct / "lagrangian_sidecar.json")["closed_form_residual"]
    report = _read_json(compare / "comparison.json")
    assert residual.hex() == report["max_residual"].hex()
    rows = (compare / "comparison.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 5


@pytest.mark.parametrize("config, p_base, singular", [
    (_SMALL_VERIFY, 0.0, False),
    ({"model": {"model": "porous_medium", "m": 2.0}, "grid": {"n_cells": 16},
      "time": {"t_end": 1e-3, "output_stride": 8}, "initial": {"profile": "bump"}}, 1.0, True),
], ids=["heat", "porous_medium-2"])
def test_verify_records_the_base_point_and_the_singular_weight(tmp_path, config, p_base,
                                                               singular):
    # As construct-energy's manifest does, so a failed verify says which base
    # the density was built from and whether flat nodes were masked.
    code, out = _run(tmp_path, "verify", config)
    assert code in (0, 2)
    results = _read_json(out / "manifest.json")["results"]
    assert (results["p_base"], results["singular_weight"]) == (p_base, singular)


def test_compare_closed_form_scores_a_builtin(tmp_path):
    code, out = _run(tmp_path, "compare-closed-form", {
        "model": {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
        "grid_dump": {"x": [0.0],
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
        "grid_dump": {"x": [0.0],
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
    # True == 1, the default of k, yet a boolean is never a default.
    ("bump", {}, {"k": True}),
    ("csv", {"path": "profile.csv"}, {"amplitude": 2.0, "sharpness": 1.0}),
], ids=["zero", "sin", "shifted_sin", "ramp_sin", "bump", "bump-boolean", "csv"])
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


def test_a_csv_profile_of_the_wrong_length_is_refused(tmp_path, capsys):
    np.savetxt(tmp_path / "short.csv", np.zeros(10))
    code, _ = _run(tmp_path, "simulate", {
        "grid": {"n_cells": 16},
        "initial": {"profile": "csv", "path": str(tmp_path / "short.csv")},
    })
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cli: initial.path: CSV has 10 values, grid wants 17\n")


def test_unknown_g_mode_is_an_error(tmp_path, capsys):
    code, _ = _run(tmp_path, "construct-energy", {"g_mode": "spline"})
    assert code == 1
    assert capsys.readouterr().err == "error: cli: g_mode: unknown mode 'spline'\n"


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
