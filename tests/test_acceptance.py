"""End-to-end gate: one test per shipped guarantee, run on the real pipeline.

Each test exercises the public API the way a user would (or drives the CLI
directly), checks the stated tolerance, and asserts its own wall-clock
budget so a quadrature or controller regression cannot hide behind a
passing value.  The conftest hook prints one [ACCEPTANCE] line per test.
"""

import json
import math
import time

import numpy as np

from paralyap import energy, models
from paralyap.characteristics import (
    CharControls,
    analytic_g,
    integrate_characteristics,
    reduced_g,
    tabulate_g,
)
from paralyap.cli import main
from paralyap.energy import (
    energy_trace,
    standard_pme_energy,
    verify_decay,
)
from paralyap.lagrangian import (
    build_lagrangian,
    compare_closed_form,
    eval_L,
    eval_Lp,
)
from paralyap.solver import Grid1D, SolverControls, simulate


def _elapsed_ok(t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


def test_seed_curve_closed_form():
    """A curve of the linear-diffusion power model follows its exact solution.

    With unit diffusion the curve parameter equals x, the gradient decays
    like exp(-tau), and the log-weight grows linearly, so integrating to
    tau = 1 gives three independently checkable values.
    """
    t0 = time.perf_counter()
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 2.0, "n": 1.0})
    traj = integrate_characteristics(
        spec,
        {"u0": 1.0, "p0": 1.0, "g0": 0.0},
        CharControls(tol=1e-12, tau_max=1.0, x_end=None),
    )
    end = traj.final
    assert abs(end.tau - 1.0) < 1e-9, f"stopped at tau={end.tau!r}"
    err_x = abs(end.x - 1.0)
    err_p = abs(end.p - math.exp(-1.0))
    err_g = abs(end.g - 1.0)
    assert err_x <= 1e-8, f"x error {err_x:.3e}"
    assert err_p <= 1e-8, f"p error {err_p:.3e}"
    assert err_g <= 1e-8, f"g error {err_g:.3e}"
    _elapsed_ok(t0, 1.0)


def test_reduced_g_matches_analytic():
    """Numerical dg/dp quadrature reproduces every shipped closed-form g.

    The quadrature path is forced (no logarithm shortcut) on 100 gradients
    per model, normalized at each model's canonical gradient.
    """
    t0 = time.perf_counter()
    descriptors = [
        {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
        {"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0},
        {"model": "mcf_poly", "n": 1.0},
        {"model": "mcf_poly", "n": 2.0},
        {"model": "inverse_mcf"},
        {"model": "porous_medium", "m": 2.0},
    ]
    ps = np.linspace(0.05, 3.0, 100)
    worst = {}
    for desc in descriptors:
        spec = models.from_descriptor(desc)
        p0 = spec.closed_forms.canonical_p0
        expected = analytic_g(spec, p0=p0)(0.0, 1.0, ps)
        got = reduced_g(spec, ps, p0=p0, g0=0.0, method="quadrature")
        worst[spec.name] = float(np.max(np.abs(got - expected)))
    assert max(worst.values()) <= 1e-6, f"worst per model: {worst}"
    _elapsed_ok(t0, 5.0)


def test_lagrangian_closed_forms():
    """The constructed density matches known closed forms up to affine slack.

    Four models ship a directly integrable density; the comparison removes
    the per-u affine-in-p freedom the construction legitimately has and
    requires the rest to agree on a 40x40 positive-branch grid.
    """
    t0 = time.perf_counter()
    descriptors = [
        {"model": "rho_laplacian_pure", "rho": 3.0},
        {"model": "mcf_pure"},
        {"model": "mcf_poly", "n": 2.0},
        {"model": "porous_medium", "m": 2.0},
    ]
    us = np.linspace(0.25, 1.0, 40)
    pvals = np.linspace(0.05, 2.0, 40)
    worst = {}
    for desc in descriptors:
        spec = models.from_descriptor(desc)
        p0 = spec.closed_forms.canonical_p0
        lag = build_lagrangian(spec, analytic_g(spec, p0=p0))
        comparison = compare_closed_form(lag, us, pvals, x=0.5)
        assert comparison["oracle"] == "closed_form", comparison["note"]
        worst[spec.name] = comparison["max_residual"]
    assert max(worst.values()) <= 1e-5, f"worst per model: {worst}"
    _elapsed_ok(t0, 60.0)


def test_variational_identity():
    """L_u - d/dx L_p - p * (d/du L_p) equals the weighted reaction pointwise.

    This is the algebraic identity that makes the energy decay along
    solutions; it is checked by central differences at 200 seeded random
    states per model, inside each model's valid gradient branch.
    """
    t0 = time.perf_counter()
    cases = [
        ({"model": "heat"}, (-1.0, 1.0), (-2.0, 2.0)),
        ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, (0.25, 1.0), (0.05, 2.0)),
        ({"model": "mcf_poly", "n": 1.0}, (0.25, 1.0), (0.05, 2.0)),
        ({"model": "inverse_mcf"}, (-1.0, 1.0), (-1.5, 1.5)),
        ({"model": "porous_medium", "m": 2.0}, (0.25, 1.0), (0.05, 2.0)),
        ({"model": "rho_laplacian_pure", "rho": 3.0}, (-1.0, 1.0), (0.05, 2.0)),
    ]
    rng = np.random.default_rng(42)
    worst = {}
    for desc, ubox, pbox in cases:
        spec = models.from_descriptor(desc)
        p0 = spec.closed_forms.canonical_p0
        lag = build_lagrangian(
            spec, analytic_g(spec, p0=p0), quad_tol=1e-10
        )
        residual = 0.0
        for _ in range(200):
            x = float(rng.uniform(0.1, 0.9))
            u = float(rng.uniform(*ubox))
            p = float(rng.uniform(*pbox))
            hu = 1e-5 * (1.0 + abs(u))
            hx = 1e-5
            L_u = (eval_L(lag, x, u + hu, p) - eval_L(lag, x, u - hu, p)) / (2 * hu)
            L_px = (eval_Lp(lag, x + hx, u, p) - eval_Lp(lag, x - hx, u, p)) / (2 * hx)
            L_pu = (eval_Lp(lag, x, u + hu, p) - eval_Lp(lag, x, u - hu, p)) / (2 * hu)
            weighted = math.exp(float(lag.g_provider(x, u, p))) * float(
                spec.reaction(x, u, p)
            )
            residual = max(residual, abs(L_u - L_px - p * L_pu - weighted))
        worst[spec.name] = residual
    assert max(worst.values()) <= 1e-4, f"worst per model: {worst}"
    _elapsed_ok(t0, 60.0)


def test_heat_energy_identity():
    """For linear diffusion the measured dE/dt equals -int(u_t^2) within 2%.

    A sine profile is evolved on 128 cells; the energy must be strictly
    decreasing frame to frame and the finite-difference slope of E must
    agree with the predicted decay at every interior stored time.
    """
    t0 = time.perf_counter()
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(128)
    u0 = np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, 0.02, grid, SolverControls(output_stride=16))
    lag = build_lagrangian(spec, analytic_g(spec))
    trace = energy_trace(lag, result, grid)
    assert np.all(np.diff(trace.E) < 0.0), "energy must strictly decrease"
    rel = np.abs(trace.dEdt_measured[1:-1] - trace.dEdt_formula[1:-1]) / np.abs(
        trace.dEdt_formula[1:-1]
    )
    assert float(np.max(rel)) <= 0.02, f"worst relative mismatch {float(np.max(rel)):.4f}"
    _elapsed_ok(t0, 30.0)


def test_gradient_flow_decay():
    """The constructed energy is a Lyapunov function for the power model.

    A monotone profile (gradients stay on the positive branch) is evolved;
    the decay verdict must report monotone energy and formula-consistent
    slopes with no unreliable frames.
    """
    t0 = time.perf_counter()
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(128)
    u0 = grid.nodes + 0.2 * np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, 0.01, grid, SolverControls(output_stride=32))
    lag = build_lagrangian(spec, analytic_g(spec))
    trace = energy_trace(lag, result, grid)
    # verify's fixed rule is this test's tolerances: rise 1e-8, consistency 5 %, mask 10 %.
    assert (energy._TOL_MONO, energy._TOL_CONSISTENCY, energy._MASK_RELIABLE) == (1e-8, 0.05, 0.1)
    report = verify_decay(trace)
    assert report.passed_monotonicity, report.monotonicity_violations
    assert report.passed_consistency, (
        f"max consistency error {report.max_consistency_error:.4f}: "
        f"{report.consistency_violations}"
    )
    assert report.unreliable_fraction == 0.0
    _elapsed_ok(t0, 120.0)


def test_porous_medium_dual_energy():
    """Degenerate diffusion decays both the constructed and standard energies.

    The constructed energy must be non-increasing with a negative predicted
    slope while the state still moves; the standard power-mean energy must
    be non-increasing and satisfy its own decay identity within 5% at
    interior times.
    """
    t0 = time.perf_counter()
    m = 2.0
    spec = models.from_descriptor({"model": "porous_medium", "m": m})
    grid = Grid1D(128)
    u0 = 1.5 * np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, 0.02, grid, SolverControls(output_stride=16))
    lag = build_lagrangian(spec, analytic_g(spec))
    trace = energy_trace(lag, result, grid)

    assert energy._TOL_MONO == 1e-8
    report = verify_decay(trace)
    assert report.passed_monotonicity, report.monotonicity_violations
    moving = np.array([float(np.max(np.abs(f.ut))) for f in result]) > 1e-6
    assert np.all(trace.dEdt_formula[moving] < 0.0), "predicted slope must stay negative"

    standard = standard_pme_energy(result.u, m, grid)
    E_std, dEdt_std = standard["E"], standard["dEdt"]
    scale = 1e-12 * (1.0 + float(np.max(np.abs(E_std))))
    assert np.all(np.diff(E_std) <= scale), "standard energy must not increase"
    measured = np.gradient(E_std, trace.times)
    rel = np.abs(measured[1:-1] - dEdt_std[1:-1]) / np.abs(dEdt_std[1:-1])
    assert float(np.max(rel)) <= 0.05, f"worst relative mismatch {float(np.max(rel)):.4f}"
    _elapsed_ok(t0, 120.0)


def test_robin_boundary_transversality():
    """The boundary term cancels L_p exactly on a Robin boundary manifold.

    The weight comes from curves traced back to x = 0 alone (no closed
    form), every query must reach that plane, and the resulting density
    must satisfy L_p(0, u, b(u)) = 0 along b(u) = u to 1e-6.
    """
    t0 = time.perf_counter()
    spec = models.from_descriptor(
        {
            "model": "heat",
            "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}, "dirichlet"],
        }
    )
    provider = tabulate_g(spec)
    lag = build_lagrangian(spec, provider)
    us = np.linspace(-1.0, 1.0, 50)
    slopes = np.array([abs(float(eval_Lp(lag, 0.0, u, u))) for u in us])
    assert provider.extrapolations == 0, f"{provider.extrapolations} unreached queries"
    assert float(np.max(slopes)) <= 1e-6, f"worst boundary slope {float(np.max(slopes)):.3e}"
    _elapsed_ok(t0, 30.0)


def test_inverse_curvature_discrepancy_report(tmp_path):
    """The CLI flags the documented inverse-curvature variant as inconsistent.

    The comparison run must succeed, report the direct construction as
    matching, mark the separately documented density as discrepant, and the
    emitted second differences of L must equal 1/(1+p^2) to 1e-6.
    """
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"model": "inverse_mcf"}}))
    out_dir = tmp_path / "out"
    rc = main(["compare-closed-form", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0

    report = json.loads((out_dir / "comparison.json").read_text())
    assert report["max_residual"] <= 1e-6, report["max_residual"]
    doc = report["documented_variant"]
    assert doc["discrepancy_detected"] is True
    assert doc["max_residual"] > 1e-3, doc["max_residual"]

    lpp = report["lpp_check"]
    pg = np.array(lpp["p"])
    second = np.array(lpp["second_difference"])
    err = float(np.max(np.abs(second - 1.0 / (1.0 + pg * pg))))
    assert err <= 1e-6, f"second-difference error {err:.3e}"
    _elapsed_ok(t0, 120.0)
