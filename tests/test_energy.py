"""Energy monitors: frame energies, decay formulas, trace verification.

Hand oracles: for u = sin(pi x) the Dirichlet energy is pi^2/4, its heat
decay is -pi^4/2, and the conventional degenerate-diffusion energies have
elementary integrals.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from paralyap import energy, models
from paralyap.characteristics import analytic_g, reduced_ode_g, tabulate_g
from paralyap.energy import (
    EnergyTrace,
    _simpson,
    decay_formula,
    energy_of_frame,
    energy_trace,
    standard_pme_energy,
    verify_decay,
)
from paralyap.lagrangian import LagrangianError, build_lagrangian, eval_L
from paralyap.solver import (
    Grid1D,
    SimulationResult,
    SolverControls,
    StateFrame,
    _node_derivatives,
    evolution_rhs,
    simulate,
)


def _heat_lagrangian():
    spec = models.from_descriptor({"model": "heat"})
    return spec, build_lagrangian(spec, analytic_g(spec))


def _frame(spec, grid, u):
    return StateFrame(0.0, u, evolution_rhs(spec, grid, u))


def test_node_gradient_interior_and_ends():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(64)
    p = _node_derivatives(spec, grid, grid.nodes**2)[0]
    assert np.max(np.abs(p - 2.0 * grid.nodes)) < 1e-10  # exact for quadratics


def test_node_gradient_reports_robin_slope_exactly():
    robin = {"kind": "robin", "b": {"kind": "linear", "slope": 3.0}}
    grid = Grid1D(16)
    u = 0.5 + 0.1 * grid.nodes
    for end, bc in ((0, [robin, "dirichlet"]), (-1, ["dirichlet", robin])):
        spec = models.from_descriptor({"model": "heat", "bc": bc})
        p = _node_derivatives(spec, grid, u)[0]
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
    values = eval_L(lag, x, frame.u, _node_derivatives(spec, grid, frame.u)[0])
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
    d = decay_formula(lag, frame, grid)
    assert d.mask_fraction == 0.0
    assert d.value == pytest.approx(-math.pi**4 / 2.0, rel=2e-3)


def test_decay_formula_uses_the_solver_curvature_at_a_robin_end():
    # The decay weight D u_xx - R carries u_xx, so the energy monitor must
    # read the ghost-node curvature the solver used, q_0 = 2 (u_1 - u_0) / dx^2
    # at a Neumann end, not a one-sided stencil.
    spec = models.from_descriptor({"model": "inverse_mcf", "bc": ["neumann", "dirichlet"]})
    provider = analytic_g(spec)
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
    weight = spec.diffusion_coeff(x, u, p) * q - spec.reaction(x, u, p)
    expected = -simpson(np.exp(provider(x, u, p)) * weight * frame.ut, x=x)
    lag = build_lagrangian(spec, provider)
    assert decay_formula(lag, frame, grid).value == pytest.approx(expected, rel=1e-12)


def test_a_fully_nonlinear_rhs_decays_with_the_weight_of_the_construction():
    # ut = (u_xx + 1 + u_x^2)^3 for D = 1, R = -(1 + u_x^2): the decay weight
    # is D u_xx - R, which ut only shares the sign of.  log cos(x - 1/2) is a
    # rest state; the sine moves it off.
    spec = models.ProblemSpec(
        name="cubic", diffusion_coeff=lambda x, u, p: 1.0,
        reaction=lambda x, u, p: -(1.0 + p * p), reaction_dp=lambda x, u, p: -2.0 * p,
        rhs=lambda x, u, p, q: (q + 1.0 + p * p) ** 3,
        bc_left=models.BoundaryCondition.dirichlet(), bc_right=models.BoundaryCondition.dirichlet(),
    )
    provider = tabulate_g(spec)
    grid = Grid1D(32)
    x, dx = grid.nodes, grid.dx
    u = np.log(np.cos(x - 0.5)) + 0.05 * np.sin(np.pi * x)
    frame = _frame(spec, grid, u)
    # At the Dirichlet ends ut = 0, so only the interior stencils matter.
    p = np.gradient(u, dx, edge_order=2)
    q = np.zeros_like(u)
    q[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    expected = -simpson(np.exp(provider(x, u, p)) * (q + 1.0 + p * p) * frame.ut, x=x)
    d = decay_formula(build_lagrangian(spec, provider), frame, grid)
    assert d.mask_fraction == 0.0
    assert d.value == pytest.approx(expected, rel=1e-12)


def test_singular_weight_masks_flat_gradients():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(64)
    # one-signed gradient with a very flat spot at x = 1/2, where 1/|p|
    # blows up relative to the gradient scale
    frame = _frame(spec, grid, (grid.nodes - 0.5) ** 7)
    d = decay_formula(build_lagrangian(spec, analytic_g(spec)), frame, grid)
    assert 0.0 < d.mask_fraction <= 0.1
    assert math.isfinite(d.value)


def test_a_hand_built_singular_weight_is_masked_with_nothing_declared():
    # D = 1, R = -p: the reduced g is log|p0/p|, so e^g ~ 1/|p| at p = 0.
    # The spec states the equation and its reducibility, nothing about masks.
    spec = models.ProblemSpec(
        name="custom", diffusion_coeff=lambda x, u, p: 1.0, reaction=lambda x, u, p: -p,
        reaction_dp=lambda x, u, p: -1.0, shared_factor_reducible=True,
        bc_left=models.BoundaryCondition.dirichlet(), bc_right=models.BoundaryCondition.dirichlet(),
    )
    lag = build_lagrangian(spec, reduced_ode_g(spec))
    assert lag.singular_weight
    grid = Grid1D(64)
    frame = _frame(spec, grid, (grid.nodes - 0.5) ** 7)
    d = decay_formula(lag, frame, grid)
    assert 0.0 < d.mask_fraction <= 0.1
    assert math.isfinite(d.value)
    # Beyond the node where u_x = 0 and g is nan, the mask takes the nodes
    # where u_x is tiny but e^g is huge.
    unmasked = decay_formula(dataclasses.replace(lag, singular_weight=False), frame, grid)
    assert unmasked.mask_fraction < d.mask_fraction


def test_off_branch_gradients_are_masked_too():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(64)
    # the shipped g(p) lives on the positive branch; sin(pi x) spends half
    # the domain at negative slope, and those nodes must not poison the sum
    frame = _frame(spec, grid, np.sin(np.pi * grid.nodes))
    d = decay_formula(build_lagrangian(spec, analytic_g(spec)), frame, grid)
    assert d.mask_fraction >= 0.5
    assert math.isfinite(d.value)


def test_standard_degenerate_energies():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(256)

    # m = 1: E = int sin^2 / 2 = 1/4, decay = -int (pi cos)^2 = -pi^2/2
    frame = _frame(models.from_descriptor({"model": "heat"}), grid, np.sin(np.pi * grid.nodes))
    out = standard_pme_energy(frame.u, 1.0, grid)
    assert out["E"] == pytest.approx(0.25, abs=1e-6)
    assert out["dEdt"] == pytest.approx(-math.pi**2 / 2.0, rel=1e-3)

    # m = 2 on u = x: E = int x^3 / 3 = 1/12, decay = -int (2x)^2 = -4/3
    frame2 = _frame(spec, grid, grid.nodes.copy())
    out2 = standard_pme_energy(frame2.u, 2.0, grid)
    assert out2["E"] == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert out2["dEdt"] == pytest.approx(-4.0 / 3.0, rel=1e-3)


def test_a_stack_gives_each_row_the_bits_of_that_row_alone():
    rng = np.random.default_rng(11)
    for n_cells in (8, 9, 128, 511):
        grid = Grid1D(n_cells)
        stack = rng.random((7, n_cells + 1)) * 10.0 ** rng.uniform(-8.0, 8.0, (7, 1))
        assert (_simpson(stack, grid.dx).tobytes()
                == np.array([_simpson(row, grid.dx) for row in stack]).tobytes())
        whole = standard_pme_energy(stack, 2.0, grid)
        rows = [standard_pme_energy(row, 2.0, grid) for row in stack]
        for key in ("E", "dEdt"):
            assert whole[key].tobytes() == np.array([r[key] for r in rows]).tobytes(), key
    # The solver's stencil on a stack: Dirichlet, Robin (b linear in u, or a
    # Python-float constant) and Neumann ends, on each family of kernel.
    for model in ({"model": "heat"}, {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
                  {"model": "porous_medium", "m": 2.0}):
        for bc in (["dirichlet", "dirichlet"], [_ROBIN_U, _WAVE_END], [_WAVE_END, "dirichlet"],
                   ["neumann", _ROBIN_U], ["dirichlet", "neumann"]):
            spec = models.from_descriptor({**model, "bc": bc})
            for n_cells in (8, 33):
                grid = Grid1D(n_cells)
                stack = 0.5 + rng.random((6, n_cells + 1))
                whole = _node_derivatives(spec, grid, stack)
                rows = [_node_derivatives(spec, grid, row) for row in stack]
                for k, key in enumerate("pq"):
                    assert (whole[k].tobytes()
                            == np.array([r[k] for r in rows]).tobytes()), (model, bc, key)


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


_ROBIN_U = {"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}
_WAVE_END = {"kind": "robin", "b": {"kind": "constant", "value": -0.5}}


def _traced_heat():
    spec = models.from_descriptor({"model": "heat", "bc": [_ROBIN_U, "dirichlet"]})
    grid = Grid1D(32)
    result = simulate(spec, np.sin(np.pi * grid.nodes), 2e-3, grid, SolverControls(8))
    return build_lagrangian(spec, tabulate_g(spec)), result, grid


def _rho_poly():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(64)
    u0 = grid.nodes + 0.2 * np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, 2e-3, grid, SolverControls(16))
    return build_lagrangian(spec, analytic_g(spec)), result, grid


def _robin_porous_medium():
    # The free-boundary wave u = (t - x)_+ / 2 from t = 0.3, held by b = -1/2:
    # the nodes ahead of its front are masked.
    spec = models.from_descriptor(
        {"model": "porous_medium", "m": 2.0, "bc": [_WAVE_END, "dirichlet"]})
    grid = Grid1D(32)
    u0 = 0.5 * np.maximum(0.3 - grid.nodes, 0.0)
    result = simulate(spec, u0, 0.05, grid, SolverControls(8))
    return build_lagrangian(spec, analytic_g(spec)), result, grid


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _columns(trace):
    return trace.E, trace.dEdt_formula, trace.dEdt_model, trace.mask_fraction


@pytest.mark.parametrize("case", [_traced_heat, _rho_poly, _robin_porous_medium],
                         ids=["heat-robin-traced", "rho-poly-analytic", "pme-robin"])
def test_trace_columns_equal_the_per_frame_values_bitwise(case):
    lag, result, grid = case()
    spec = lag.spec
    trace = energy_trace(lag, result, grid)
    assert len(trace) == len(result) >= 4
    assert trace.dEdt_model is not None
    decays = [decay_formula(lag, f, grid) for f in result]
    assert _bits(trace.E) == _bits([energy_of_frame(lag, f, grid) for f in result])
    assert _bits(trace.dEdt_formula) == _bits([d.value for d in decays])
    assert _bits(trace.mask_fraction) == _bits([d.mask_fraction for d in decays])
    # The model oracle has no per-frame function: a trace of one frame stands in.
    alone = [energy_trace(lag, SimulationResult((f,), 0, 0.0, 0.0), grid) for f in result]
    assert _bits(trace.dEdt_model) == _bits([a.dEdt_model[0] for a in alone])
    backward = SimulationResult(result.frames[::-1], result.n_steps,
                                result.dt_smallest, result.dt_largest)
    reversed_trace = energy_trace(lag, backward, grid)
    for column, reversed_column in zip(_columns(trace), _columns(reversed_trace)):
        assert _bits(reversed_column) == _bits(column[::-1])


def _counting(monkeypatch, lag):
    """``lag`` with a counted provider, and the counts of eval_L calls and of
    provider calls made outside eval_L."""
    calls = {"eval_L": 0, "provider": 0}
    inside = []
    eval_L_before, provider_before = energy.eval_L, lag.g_provider

    def counted_eval_L(*args):
        calls["eval_L"] += 1
        inside.append(True)
        try:
            return eval_L_before(*args)
        finally:
            inside.pop()

    def counted_provider(x, u, p):
        if not inside:
            calls["provider"] += 1
        return provider_before(x, u, p)

    monkeypatch.setattr(energy, "eval_L", counted_eval_L)
    return dataclasses.replace(lag, g_provider=counted_provider), calls


def _frames(spec, grid, n_frames, dt=1e-3):
    """A decaying sine, one frame every ``dt``."""
    frames = []
    for k in range(n_frames):
        u = np.sin(np.pi * grid.nodes) * (1.0 - 0.01 * k)
        frames.append(StateFrame(k * dt, u, evolution_rhs(spec, grid, u)))
    return SimulationResult(tuple(frames), 0, 0.0, 0.0)


def test_a_trace_calls_eval_L_and_the_provider_once_per_block(monkeypatch):
    spec, lag = _heat_lagrangian()
    grid = Grid1D(128)
    short = _frames(spec, grid, 4)
    lag, calls = _counting(monkeypatch, lag)
    energy_trace(lag, short, grid)
    assert calls == {"eval_L": 1, "provider": 1}

    long = _frames(spec, grid, 40)
    blocks = -(-40 * 129 // energy._BLOCK_POINTS)
    assert blocks > 1
    calls.update(eval_L=0, provider=0)
    energy_trace(lag, long, grid)
    assert calls == {"eval_L": blocks, "provider": blocks}


def test_blocks_that_split_frames_leave_every_column_unchanged(monkeypatch):
    lag, result, grid = _rho_poly()
    whole = energy_trace(lag, result, grid)
    monkeypatch.setattr(energy, "_BLOCK_POINTS", 50)
    lag, calls = _counting(monkeypatch, lag)
    split = energy_trace(lag, result, grid)
    assert calls["eval_L"] == -(-len(result) * 65 // 50)
    for a, b in zip(_columns(whole), _columns(split)):
        assert _bits(a) == _bits(b)


def test_a_non_finite_energy_integrand_names_the_frame_and_the_node(monkeypatch):
    spec, lag = _heat_lagrangian()
    grid = Grid1D(16)

    def poisoned(lag, x, u, p):
        values = eval_L(lag, x, u, p)
        values[17 + 8] = math.inf
        return values

    monkeypatch.setattr(energy, "eval_L", poisoned)
    with pytest.raises(ValueError, match=r"not finite at t=0\.25, node 8 \(x=0\.5\)"):
        energy_trace(lag, _frames(spec, grid, 2, dt=0.25), grid)


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
    report = verify_decay(trace)
    assert report.passed_consistency  # the bad interior time was unreliable
    assert report.unreliable_fraction == pytest.approx(0.25)


def test_verify_does_not_pass_consistency_without_a_checked_frame():
    # Every interior time is masked, so nothing was compared: no pass.
    trace = _synthetic_trace([1.0, 0.8, 0.6, 0.4], mask=[0.0, 0.5, 0.5, 0.0])
    report = verify_decay(trace)
    assert report.checked_frames == 0
    assert report.to_dict()["checked_frames"] == 0
    assert not report.passed_consistency
    assert report.passed_monotonicity
    assert verify_decay(_synthetic_trace([1.0, 0.8, 0.6, 0.4])).checked_frames == 2


def _verify_by_loop(trace, tol_mono=1e-8, tol_consistency=0.05, mask_reliable=0.1):
    """The frame-by-frame form of verify_decay, kept as its reference."""
    mono, cons, max_err, checked = [], [], 0.0, 0
    for k in range(len(trace) - 1):
        if trace.E[k + 1] > trace.E[k] + tol_mono * (1.0 + abs(trace.E[k])):
            mono.append({"index": k, "t": float(trace.times[k + 1]),
                         "E_before": float(trace.E[k]), "E_after": float(trace.E[k + 1])})
    for k in range(1, len(trace) - 1):
        if trace.mask_fraction[k] > mask_reliable:
            continue
        checked += 1
        measured, formula = trace.dEdt_measured[k], trace.dEdt_formula[k]
        rel = abs(measured - formula) / (1.0 + abs(formula))
        max_err = max(max_err, rel)
        if rel > tol_consistency:
            cons.append({"index": k, "t": float(trace.times[k]), "measured": float(measured),
                         "formula": float(formula), "relative_error": float(rel)})
    return mono, cons, float(max_err), checked


def test_verify_equals_its_frame_by_frame_reference():
    rng = np.random.default_rng(3)
    for n in (3, 4, 9, 30):
        for _ in range(20):
            E = np.cumsum(rng.normal(-0.1, 0.1, n))
            formula = rng.normal(-1.0, 0.2, n)
            measured = formula * (1.0 + rng.normal(0.0, 0.05, n))
            measured[rng.random(n) < 0.1] = math.nan
            mask = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            mask[rng.random(n) < 0.1] = math.nan
            trace = EnergyTrace(np.linspace(0.0, 1.0, n), E, measured, formula, None, mask)
            report = verify_decay(trace)
            got = (report.monotonicity_violations, report.consistency_violations,
                   report.max_consistency_error, report.checked_frames)
            assert got == _verify_by_loop(trace)


def test_verify_needs_three_times():
    with pytest.raises(ValueError):
        verify_decay(_synthetic_trace([1.0, 0.5]))
