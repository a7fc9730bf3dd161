"""Energy monitors: frame energies, decay formulas, trace verification.

Hand oracles: for u = sin(pi x) the Dirichlet energy is pi^2/4, its heat
decay is -pi^4/2, and the conventional degenerate-diffusion energies have
elementary integrals.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from paralyap import models
from paralyap.characteristics import analytic_g
from paralyap.energy import (
    EnergyTrace,
    _simpson,
    decay_formula,
    energy_of_frame,
    energy_trace,
    filtration_energy,
    node_gradient,
    standard_pme_energy,
    verify_decay,
)
from paralyap.lagrangian import LagrangianError, build_lagrangian, eval_L
from paralyap.solver import Grid1D, SolverControls, StateFrame, evolution_rhs, simulate


def _heat_lagrangian():
    spec = models.from_descriptor({"model": "heat"})
    return spec, build_lagrangian(spec, analytic_g(spec))


def _frame(spec, grid, u):
    return StateFrame(0.0, u, evolution_rhs(spec, grid, u))


def test_node_gradient_interior_and_ends():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(64)
    frame = _frame(spec, grid, grid.nodes**2)
    p = node_gradient(spec, frame, grid)
    assert np.max(np.abs(p - 2.0 * grid.nodes)) < 1e-10  # exact for quadratics


def test_node_gradient_reports_robin_slope_exactly():
    robin = {"kind": "robin", "b": {"kind": "linear", "slope": 3.0}}
    grid = Grid1D(16)
    u = 0.5 + 0.1 * grid.nodes
    for end, bc in ((0, [robin, "dirichlet"]), (-1, ["dirichlet", robin])):
        spec = models.from_descriptor({"model": "heat", "bc": bc})
        p = node_gradient(spec, _frame(spec, grid, u), grid)
        assert p[end] == pytest.approx(3.0 * u[end], abs=1e-14)


def test_dirichlet_energy_of_a_sine():
    spec, lag = _heat_lagrangian()
    grid = Grid1D(128)
    frame = _frame(spec, grid, np.sin(np.pi * grid.nodes))
    E = energy_of_frame(lag, frame, grid)
    assert E == pytest.approx(math.pi**2 / 4.0, abs=2e-3)


def test_simpson_matches_scipy_for_odd_and_even_node_counts():
    rng = np.random.default_rng(7)
    for n_cells in range(8, 65):
        grid = Grid1D(n_cells)
        x = grid.nodes
        for y in (np.exp(x) * np.sin(3.0 * x), rng.standard_normal(len(x))):
            gap = abs(_simpson(y, grid.dx) - simpson(y, x=x))
            assert gap <= 1e-14 * np.sum(np.abs(y)) * grid.dx, (n_cells, gap)


def test_energy_of_an_odd_cell_count_matches_scipy():
    # 9 cells give 10 nodes, so the last interval takes the end correction.
    spec, lag = _heat_lagrangian()
    grid = Grid1D(9)
    x = grid.nodes
    frame = _frame(spec, grid, np.sin(np.pi * x) + 0.3 * x * x)
    values = eval_L(lag, x, frame.u, node_gradient(spec, frame, grid))
    assert energy_of_frame(lag, frame, grid) == pytest.approx(simpson(values, x=x), rel=1e-14)


def test_energy_rejects_non_finite_states():
    spec, lag = _heat_lagrangian()
    grid = Grid1D(16)
    u = np.sin(np.pi * grid.nodes)
    u[3] = math.nan
    frame = StateFrame(0.0, u, np.zeros_like(u))
    with pytest.raises(LagrangianError):
        energy_of_frame(lag, frame, grid)


def test_heat_decay_formula_value():
    spec, lag = _heat_lagrangian()
    grid = Grid1D(128)
    frame = _frame(spec, grid, np.sin(np.pi * grid.nodes))
    d = decay_formula(spec, lag.g_provider, frame, grid)
    assert d.mask_fraction == 0.0
    assert d.value == pytest.approx(-math.pi**4 / 2.0, rel=2e-3)


def test_decay_formula_uses_the_solver_curvature_at_a_robin_end():
    # inverse_mcf carries u_xx in f1_weight, so the energy monitor must read
    # the ghost-node curvature the solver used, q_0 = 2 (u_1 - u_0) / dx^2 at
    # a Neumann end, not a one-sided stencil.
    spec = models.from_descriptor({"model": "inverse_mcf", "bc": ["neumann", "dirichlet"]})
    provider = analytic_g(spec, p0=spec.closed_forms.canonical_p0)
    grid = Grid1D(16)
    x, dx = grid.nodes, grid.dx
    u = 0.3 * np.cos(0.5 * np.pi * x)
    frame = _frame(spec, grid, u)
    p = np.gradient(u, dx, edge_order=2)
    p[0] = 0.0
    q = np.empty_like(u)
    q[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    q[0] = 2.0 * (u[1] - u[0]) / dx**2
    q[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dx**2
    integrand = np.exp(provider(x, u, p)) * spec.f1_weight(x, u, p, q, frame.ut) * frame.ut
    expected = -simpson(integrand, x=x)
    assert decay_formula(spec, provider, frame, grid).value == pytest.approx(expected, rel=1e-12)


def test_singular_weight_masks_flat_gradients():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(64)
    # one-signed gradient with a very flat spot at x = 1/2, where 1/|p|
    # blows up relative to the gradient scale
    frame = _frame(spec, grid, (grid.nodes - 0.5) ** 7)
    d = decay_formula(spec, analytic_g(spec), frame, grid)
    assert 0.0 < d.mask_fraction <= 0.1
    assert math.isfinite(d.value)


def test_off_branch_gradients_are_masked_too():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(64)
    # the shipped g(p) lives on the positive branch; sin(pi x) spends half
    # the domain at negative slope, and those nodes must not poison the sum
    frame = _frame(spec, grid, np.sin(np.pi * grid.nodes))
    d = decay_formula(spec, analytic_g(spec), frame, grid)
    assert d.mask_fraction >= 0.5
    assert math.isfinite(d.value)


def test_standard_degenerate_energies():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(256)

    # m = 1: E = int sin^2 / 2 = 1/4, decay = -int (pi cos)^2 = -pi^2/2
    frame = _frame(models.from_descriptor({"model": "heat"}), grid, np.sin(np.pi * grid.nodes))
    out = standard_pme_energy(frame, 1.0, grid)
    assert out["E"] == pytest.approx(0.25, abs=1e-6)
    assert out["dEdt"] == pytest.approx(-math.pi**2 / 2.0, rel=1e-3)

    # m = 2 on u = x: E = int x^3 / 3 = 1/12, decay = -int (2x)^2 = -4/3
    frame2 = _frame(spec, grid, grid.nodes.copy())
    out2 = standard_pme_energy(frame2, 2.0, grid)
    assert out2["E"] == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert out2["dEdt"] == pytest.approx(-4.0 / 3.0, rel=1e-3)


@pytest.mark.parametrize(
    "a, a_du, E, dEdt",
    [
        # a = v is the Dirichlet pair: E = int sin^2 / 2, decay -int (pi cos)^2.
        (lambda v: v, lambda v: 1.0, 0.25, -math.pi**2 / 2.0),
        # a = v**2: E = int sin^3 / 3 = 4 / (9 pi), decay -int (pi sin(2 pi x))^2;
        # a_du comes from the central-difference fallback.
        (lambda v: v**2, None, 4.0 / (9.0 * math.pi), -math.pi**2 / 2.0),
    ],
    ids=["a=v", "a=v^2"],
)
def test_filtration_energy_on_a_sine(a, a_du, E, dEdt):
    grid = Grid1D(256)
    frame = _frame(models.from_descriptor({"model": "heat"}), grid, np.sin(np.pi * grid.nodes))
    out = filtration_energy(frame, a=a, a_du=a_du, grid=grid)
    assert out["E"] == pytest.approx(E, abs=1e-6)
    assert out["dEdt"] == pytest.approx(dEdt, rel=1e-3)


def test_trace_columns_and_model_oracle():
    spec, lag = _heat_lagrangian()
    grid = Grid1D(64)
    result = simulate(
        spec, np.sin(np.pi * grid.nodes), t_end=4e-3, grid=grid,
        controls=SolverControls(output_stride=4),
    )
    trace = energy_trace(lag, result, grid)
    assert len(trace) == len(result)
    assert np.all(np.diff(trace.E) < 0.0)
    # unit decay weight: the model oracle is the same -int ut^2 integral
    assert trace.dEdt_model is not None
    assert np.allclose(trace.dEdt_model, trace.dEdt_formula, rtol=1e-12)


def test_verify_accepts_a_clean_heat_run():
    spec, lag = _heat_lagrangian()
    grid = Grid1D(64)
    result = simulate(
        spec, np.sin(np.pi * grid.nodes), t_end=8e-3, grid=grid,
        controls=SolverControls(output_stride=8),
    )
    report = verify_decay(energy_trace(lag, result, grid))
    assert report.passed_monotonicity
    assert report.passed_consistency
    assert report.max_consistency_error < 0.02
    assert report.unreliable_fraction == 0.0


def _synthetic_trace(E, measured=None, formula=None, mask=None):
    n = len(E)
    t = np.linspace(0.0, 1.0, n)
    E = np.asarray(E, dtype=float)
    measured = np.gradient(E, t) if measured is None else np.asarray(measured, float)
    formula = measured.copy() if formula is None else np.asarray(formula, float)
    mask = np.zeros(n) if mask is None else np.asarray(mask, float)
    return EnergyTrace(t, E, measured, formula, None, mask)


def test_verify_flags_an_energy_rise():
    report = verify_decay(_synthetic_trace([1.0, 0.5, 0.8, 0.2]))
    assert not report.passed_monotonicity
    assert report.monotonicity_violations[0]["index"] == 1


def test_verify_flags_a_formula_mismatch():
    trace = _synthetic_trace([1.0, 0.8, 0.6, 0.4], formula=[-0.8, -0.8, -0.8, -0.8])
    report = verify_decay(_synthetic_trace([1.0, 0.8, 0.6, 0.4]))
    assert report.passed_consistency
    report = verify_decay(trace)
    assert not report.passed_consistency
    assert report.max_consistency_error > 0.05


def test_verify_skips_heavily_masked_times():
    trace = _synthetic_trace(
        [1.0, 0.8, 0.6, 0.4],
        formula=[-0.6, 5.0, -0.6, -0.6],
        mask=[0.0, 0.5, 0.0, 0.0],
    )
    report = verify_decay(trace, mask_reliable=0.1)
    assert report.passed_consistency  # the bad interior time was unreliable
    assert report.unreliable_fraction == pytest.approx(0.25)


def test_verify_does_not_pass_consistency_without_a_checked_frame():
    # Every interior time is masked, so nothing was compared: no pass.
    trace = _synthetic_trace([1.0, 0.8, 0.6, 0.4], mask=[0.0, 0.5, 0.5, 0.0])
    report = verify_decay(trace, mask_reliable=0.1)
    assert report.checked_frames == 0
    assert report.to_dict()["checked_frames"] == 0
    assert not report.passed_consistency
    assert report.passed_monotonicity
    assert verify_decay(_synthetic_trace([1.0, 0.8, 0.6, 0.4])).checked_frames == 2


def test_verify_needs_three_times():
    with pytest.raises(ValueError):
        verify_decay(_synthetic_trace([1.0, 0.5]))
