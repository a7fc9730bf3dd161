"""Method-of-lines solver: stencils, boundary handling, time stepping.

The reference updates are re-derived here with the plain 3-point stencils,
so a solver regression cannot hide behind its own arithmetic.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from paralyap import models
from paralyap.solver import (
    Grid1D,
    SolverControls,
    SolverError,
    StateFrame,
    _CFL_SAFETY,
    _Kernel,
    _node_derivatives,
    evolution_rhs,
    simulate,
)


def test_grid_properties():
    grid = Grid1D(10)
    assert grid.dx == pytest.approx(0.1)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert len(grid.nodes) == 11
    with pytest.raises(ValueError):
        Grid1D(4)


def test_grid_nodes_are_built_once_and_read_only():
    grid = Grid1D(16)
    assert grid.nodes is grid.nodes
    assert np.array_equal(grid.nodes, np.linspace(0.0, 1.0, 17))
    with pytest.raises(ValueError):
        grid.nodes[3] = 0.5
    # The cached array is not a dataclass field: equal grids stay equal.
    assert grid == Grid1D(16) and hash(grid) == hash(Grid1D(16))


def test_divergence_stencil_hand_value():
    # u = x^2 on eight cells, m = 2: w = x^4 and the stencil at x = 0.5 is
    # (0.375^4 - 2*0.5^4 + 0.625^4) / 0.125^2 = 3.03125 (exact 12 x^2 = 3).
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(8)
    out = evolution_rhs(spec, grid, grid.nodes**2)
    assert out[4] == pytest.approx(3.03125, abs=1e-12)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_degenerate_power_rejects_negative_states():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    u = np.full(9, 0.5)
    u[1] = -0.1
    with pytest.raises(SolverError):
        evolution_rhs(spec, Grid1D(8), u)


def test_interior_rhs_matches_reference_stencil():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(16)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, grid.n_cells + 1)
    ut = evolution_rhs(spec, grid, u)
    ref = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.dx**2
    assert np.max(np.abs(ut[1:-1] - ref)) < 1e-12
    assert ut[0] == 0.0 and ut[-1] == 0.0  # Dirichlet nodes are pinned


def test_robin_end_uses_the_ghost_node():
    spec = models.from_descriptor({"model": "heat", "bc": [_robin(1.0), "dirichlet"]})
    grid = Grid1D(8)
    u = np.full(grid.n_cells + 1, 0.5)
    ut = evolution_rhs(spec, grid, u)
    # ghost = u[1] - 2 dx b(u[0]); for constant u = c the end rhs is -2c/dx
    assert ut[0] == pytest.approx(-2.0 * 0.5 / grid.dx, rel=1e-12)
    assert np.max(np.abs(ut[1:])) == 0.0


def _robin(slope):
    return {"kind": "robin", "b": {"kind": "linear", "slope": slope}}


@pytest.mark.parametrize("desc", [
    {"model": "heat"},
    {"model": "porous_medium", "m": 2.0},
    {"model": "inverse_mcf"},
], ids=lambda d: d["model"])
def test_robin_ends_mirror_each_other(desc):
    # Reflecting x -> 1 - x turns u_x = u at the left end into u_x = -u at
    # the right end, and flips the sign of u_x everywhere.
    left = models.from_descriptor({**desc, "bc": [_robin(1.0), "dirichlet"]})
    right = models.from_descriptor({**desc, "bc": ["dirichlet", _robin(-1.0)]})
    grid = Grid1D(32)
    x = grid.nodes
    u = 0.6 + 0.3 * np.cos(np.pi * x) + 0.05 * np.sin(3.0 * np.pi * x)
    ut_left = evolution_rhs(left, grid, u)
    ut_right = evolution_rhs(right, grid, u[::-1])[::-1]
    # Not bitwise: the end sums run in opposite order.
    assert np.max(np.abs(ut_right - ut_left)) <= 1e-12 * np.max(np.abs(ut_left))
    assert ut_left[-1] == 0.0 and ut_left[0] != 0.0
    p_left = _node_derivatives(left, grid, u)[0]
    p_right = _node_derivatives(right, grid, u[::-1])[0][::-1]
    assert np.array_equal(p_right, -p_left)
    assert p_left[0] == u[0]


def test_porous_medium_with_neumann_ends_conserves_mass():
    spec = models.from_descriptor(
        {"model": "porous_medium", "m": 2.0, "bc": ["neumann", "neumann"]}
    )
    grid = Grid1D(32)
    u = np.random.default_rng(5).uniform(0.1, 1.0, grid.n_cells + 1)
    ut = evolution_rhs(spec, grid, u)
    weights = np.full(len(u), grid.dx)
    weights[[0, -1]] *= 0.5
    assert abs(float(np.sum(weights * ut))) <= 1e-12 * float(np.max(np.abs(ut)))


_STENCIL_MODELS = [
    {"model": "heat"},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
    {"model": "inverse_mcf"},
]
_STENCIL_ENDS = {"dirichlet": "dirichlet", "robin": _robin(2.0), "neumann": "neumann"}


@pytest.mark.parametrize("right", sorted(_STENCIL_ENDS))
@pytest.mark.parametrize("left", sorted(_STENCIL_ENDS))
@pytest.mark.parametrize("desc", _STENCIL_MODELS, ids=lambda d: d["model"])
def test_rhs_is_the_model_rhs_on_the_shared_stencil(desc, left, right):
    spec = models.from_descriptor({**desc, "bc": [_STENCIL_ENDS[left], _STENCIL_ENDS[right]]})
    grid = Grid1D(16)
    x = grid.nodes
    u = 0.2 + 0.3 * x + 0.1 * np.sin(2.0 * np.pi * x)
    ut = evolution_rhs(spec, grid, u)
    p, q = _node_derivatives(spec, grid, u)
    free = np.ones(len(u), dtype=bool)
    free[0] = left != "dirichlet"
    free[-1] = right != "dirichlet"
    assert np.array_equal(ut[free], spec.rhs(x[free], u[free], p[free], q[free]))
    assert np.all(ut[~free] == 0.0)


def test_heun_step_matches_reference_update():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(16)
    u0 = np.sin(np.pi * grid.nodes)
    frame = StateFrame(0.0, u0, evolution_rhs(spec, grid, u0))
    dt = 1e-4

    def lap(v):
        out = np.zeros_like(v)
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / grid.dx**2
        return out

    k1 = lap(u0)
    k2 = lap(u0 + dt * k1)
    expected = u0 + 0.5 * dt * (k1 + k2)
    expected[0] = u0[0]
    expected[-1] = u0[-1]
    kernel = _Kernel(spec, grid)
    after = StateFrame(*kernel.step(frame.t, frame.u, dt, kernel.rhs(frame.u)))
    assert after.t == pytest.approx(dt)
    assert np.max(np.abs(after.u - expected)) < 1e-14


def test_dirichlet_values_are_pinned_to_the_initial_profile():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    grid = Grid1D(32)
    u0 = grid.nodes + 0.2 * np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, t_end=5e-3, grid=grid)
    for frame in result:
        assert frame.u[0] == 0.0
        assert frame.u[-1] == 1.0


def test_dirichlet_ends_hold_their_value_in_the_divergence_form():
    # The rhs is 0 at a Dirichlet node, so the Heun stages hold each end
    # value bit for bit; no step writes it back.
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(16)
    u0 = 0.3 + 0.4 * grid.nodes + 0.5 * np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, t_end=2e-3, grid=grid)
    assert result.n_steps > 1
    for frame in result:
        assert frame.ut[0] == 0.0 and frame.ut[-1] == 0.0
        assert frame.u[0] == u0[0] and frame.u[-1] == u0[-1]


def test_linear_steady_state_is_preserved():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(16)
    result = simulate(spec, grid.nodes.copy(), t_end=0.01, grid=grid)
    assert np.max(np.abs(result[-1].u - grid.nodes)) < 1e-12


def test_heat_decay_rate_matches_the_spectrum():
    # sin(pi x) decays like exp(-lambda t) with the discrete eigenvalue
    # lambda = 2 (1 - cos(pi dx)) / dx^2.
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(64)
    u0 = np.sin(np.pi * grid.nodes)
    t_end = 0.02
    result = simulate(spec, u0, t_end=t_end, grid=grid)
    lam = 2.0 * (1.0 - math.cos(math.pi * grid.dx)) / grid.dx**2
    mid = result[-1].u[grid.n_cells // 2]
    assert mid == pytest.approx(math.exp(-lam * t_end), rel=1e-3)
    assert result[-1].t == pytest.approx(t_end, abs=1e-14)


def test_frames_carry_their_own_rhs():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(16)
    result = simulate(spec, np.sin(np.pi * grid.nodes), t_end=1e-3, grid=grid)
    for frame in result:
        assert np.array_equal(frame.ut, evolution_rhs(spec, grid, frame.u))


def test_output_stride_thins_frames_but_keeps_ends():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(32)
    u0 = np.sin(np.pi * grid.nodes)
    dense = simulate(spec, u0, t_end=2e-3, grid=grid)
    thin = simulate(
        spec, u0, t_end=2e-3, grid=grid, controls=SolverControls(output_stride=8)
    )
    assert len(thin) < len(dense)
    assert thin[0].t == 0.0
    assert thin[-1].t == pytest.approx(2e-3, abs=1e-16)


def test_sink_receives_each_stored_frame_as_it_is_stored():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(32)
    u0 = _bump(grid.nodes)
    received = []

    def sink(frame):
        # Frames arrive in order; their arrays are copied as they arrive.
        assert not received or frame.t > received[-1][0]
        received.append((frame.t, frame.u.copy(), frame.ut.copy(), frame))

    controls = SolverControls(output_stride=5)
    result = simulate(spec, u0, 1e-3, grid, controls, sink=sink)
    plain = simulate(spec, u0, 1e-3, grid, controls)
    assert result.n_steps % 5, "the final frame must be off-stride"
    assert len(received) == len(result) == len(plain)
    assert all(r[3] is f for r, f in zip(received, result.frames))
    for (t, u, ut, _), frame in zip(received, plain):
        assert t == frame.t
        assert u.tobytes() == frame.u.tobytes() and ut.tobytes() == frame.ut.tobytes()


def _stepped_by_hand(spec, grid, u0, t_end, stride):
    """simulate's loop, with a fresh kernel for each CFL bound and each step."""
    frame = StateFrame(0.0, u0, evolution_rhs(spec, grid, u0))
    frames, dts = [frame], []
    while frame.t < t_end - 1e-14 * t_end:
        dt = min(_Kernel(spec, grid).cfl_dt(frame.u, t_end / 64.0, frame.t), t_end - frame.t)
        frame = StateFrame(*_Kernel(spec, grid).step(frame.t, frame.u, dt, k1=frame.ut))
        dts.append(dt)
        if len(dts) % stride == 0:
            frames.append(frame)
    if frames[-1] is not frame:
        frames.append(frame)
    return frames, dts


def _bump(x):
    return np.maximum(0.0, 1.0 - 16.0 * (x - 0.5) ** 2)


@pytest.mark.parametrize("desc, profile", [
    ({"model": "heat", "bc": [_robin(1.0), "dirichlet"]}, lambda x: np.sin(np.pi * x)),
    ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, lambda x: x + 0.2 * np.sin(np.pi * x)),
    ({"model": "porous_medium", "m": 2.0}, _bump),
    ({"model": "porous_medium", "m": 2.0, "bc": ["neumann", "neumann"]}, _bump),
    ({"model": "inverse_mcf"}, lambda x: 0.3 * np.sin(np.pi * x)),
], ids=["heat-robin", "rho-dirichlet", "pme-dirichlet", "pme-neumann", "inverse_mcf"])
def test_simulate_is_the_public_step_loop_bit_for_bit(desc, profile):
    spec = models.from_descriptor(desc)
    grid = Grid1D(32)
    u0 = profile(grid.nodes)
    t_end = 4e-3
    result = simulate(spec, u0, t_end=t_end, grid=grid, controls=SolverControls(output_stride=3))
    frames, dts = _stepped_by_hand(spec, grid, u0, t_end, 3)
    assert result.n_steps == len(dts) > 3
    assert result.dt_smallest == min(dts) and result.dt_largest == max(dts)
    assert len(result) == len(frames)
    for got, want in zip(result, frames):
        assert got.t == want.t
        assert got.u.tobytes() == want.u.tobytes()
        assert got.ut.tobytes() == want.ut.tobytes()


def _reference_rhs(spec, grid, u):
    """du/dt by plain expressions: ghost nodes, 3-point stencils, spec.rhs."""
    dx, x, n = grid.dx, grid.nodes, len(u)
    up = np.concatenate(([0.0], u, [0.0]))
    p = np.zeros(n)
    p[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    ends = (spec.bc_left, spec.bc_right)
    if ends[0].kind == "robin":
        p[0] = float(ends[0].robin_b(u[0]))
        up[0] = u[1] - 2.0 * dx * p[0]
    if ends[1].kind == "robin":
        p[-1] = float(ends[1].robin_b(u[-1]))
        up[-1] = u[-2] + 2.0 * dx * p[-1]
    w = up if spec.divergence_form_m is None else np.maximum(up, 0.0) ** float(spec.divergence_form_m)
    q = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (dx * dx)
    free = np.array([ends[0].kind != "dirichlet"] + [True] * (n - 2) + [ends[1].kind != "dirichlet"])
    ut = np.zeros(n)
    if spec.divergence_form_m is None:
        ut[free] = spec.rhs(x[free], u[free], p[free], q[free])
    else:
        ut[free] = q[free]
    return ut


def _reference_heun(spec, grid, u0, t_end, stride):
    """simulate's contract by plain expressions: np.gradient CFL steps and Heun updates."""
    dx = grid.dx
    frames = [StateFrame(0.0, u0, _reference_rhs(spec, grid, u0))]
    frame, dts = frames[0], []
    while frame.t < t_end - 1e-14 * t_end:
        coef = np.abs(spec.diffusion_coeff(grid.nodes, frame.u, np.gradient(frame.u, dx)))
        coef_max = float(np.max(coef))
        dt = t_end / 64.0
        if coef_max > 1e-30:
            dt = min(dt, _CFL_SAFETY * dx * dx / coef_max)
        dt = min(dt, t_end - frame.t)
        k1 = frame.ut
        k2 = _reference_rhs(spec, grid, frame.u + dt * k1)
        u = frame.u + 0.5 * dt * (k1 + k2)
        frame = StateFrame(frame.t + dt, u, _reference_rhs(spec, grid, u))
        dts.append(dt)
        if len(dts) % stride == 0:
            frames.append(frame)
    if frames[-1] is not frame:
        frames.append(frame)
    return frames, dts


def _constant_coefficient_spec():
    # Evaluators that return Python floats: the kernel must broadcast them.
    neumann, dirichlet = models.BoundaryCondition.neumann(), models.BoundaryCondition.dirichlet()
    return models.ProblemSpec(name="constant", diffusion_coeff=lambda x, u, p: 1.0,
                              reaction=lambda x, u, p: 0.0, bc_left=neumann, bc_right=dirichlet)


def _replaced_spec():
    # dataclasses.replace reruns __post_init__, which stores each evaluator
    # as given, so the copy shares them.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0,
                                   "bc": [_robin(1.0), "dirichlet"]})
    copy = dataclasses.replace(spec, name="copy")
    assert all(getattr(copy, name) is getattr(spec, name) for name in (
        "diffusion_coeff", "diffusion_coeff_dx", "diffusion_coeff_du", "reaction",
        "reaction_dp", "rhs"))
    return copy


_PME_ENDS = {"dirichlet": "dirichlet", "neumann": "neumann"}
_REFERENCE_CASES = {
    **{f"pme-{m}-{end}": ({"model": "porous_medium", "m": m, "bc": [bc, bc]}, _bump)
       for m in (1.0, 1.5, 2.0, 3.0) for end, bc in _PME_ENDS.items()},
    "heat-robin": ({"model": "heat", "bc": [_robin(1.0), "dirichlet"]}, lambda x: np.sin(np.pi * x)),
    "rho": ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, lambda x: x + 0.2 * np.sin(np.pi * x)),
    "inverse_mcf": ({"model": "inverse_mcf"}, lambda x: 0.3 * np.sin(np.pi * x)),
    "superslow": ({"model": "filtration", "a": {"kind": "superslow"}},
                  lambda x: 0.4 + 0.4 * np.sin(np.pi * x)),
    "constant-float": (_constant_coefficient_spec, lambda x: np.cos(0.5 * np.pi * x)),
    "replaced": (_replaced_spec, lambda x: np.sin(np.pi * x) + 0.5 * x),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_simulate_matches_the_plain_reference_loop_bit_for_bit(case):
    # The reference shares no code with the kernel: it builds each stage and
    # power with plain expressions, so a kernel that reuses buffers must keep
    # every bit.
    desc, profile = _REFERENCE_CASES[case]
    spec = desc() if callable(desc) else models.from_descriptor(desc)
    grid = Grid1D(32)
    u0 = profile(grid.nodes)
    t_end = 4e-3
    result = simulate(spec, u0, t_end=t_end, grid=grid, controls=SolverControls(output_stride=3))
    frames, dts = _reference_heun(spec, grid, u0, t_end, 3)
    assert result.n_steps == len(dts) > 3
    assert result.dt_smallest == min(dts) and result.dt_largest == max(dts)
    assert len(result) == len(frames)
    for got, want in zip(result, frames):
        assert got.t == want.t
        assert got.u.tobytes() == want.u.tobytes()
        assert got.ut.tobytes() == want.ut.tobytes()


@pytest.mark.parametrize("desc", [
    {"model": "heat", "bc": [_robin(1.0), "dirichlet"]},
    {"model": "porous_medium", "m": 2.0, "bc": ["neumann", "neumann"]},
    {"model": "porous_medium", "m": 2.0},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
], ids=["heat", "porous_medium", "porous_medium-dirichlet", "rho_laplacian_poly"])
def test_stored_frames_own_their_arrays(desc):
    spec = models.from_descriptor(desc)
    grid = Grid1D(16)
    u0 = 0.2 + np.sin(np.pi * grid.nodes)
    kept = u0.copy()
    result = simulate(spec, u0, t_end=1e-3, grid=grid)
    assert len(result) > 3
    want = [(f.u.copy(), f.ut.copy()) for f in result]
    # A mark per array: an array shared with any other would show its mark.
    for k, frame in enumerate(result):
        frame.u[:] = 2 * k
        frame.ut[:] = 2 * k + 1
    for k, frame in enumerate(result):
        assert np.all(frame.u == 2 * k) and np.all(frame.ut == 2 * k + 1)
    assert np.array_equal(u0, kept)
    for frame, (u, ut) in zip(simulate(spec, u0, t_end=1e-3, grid=grid), want):
        assert np.array_equal(frame.u, u) and np.array_equal(frame.ut, ut)


def test_cfl_scales_with_the_diffusion_coefficient():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(32)
    u0 = np.sin(np.pi * grid.nodes)
    result = simulate(spec, u0, t_end=1e-2, grid=grid)
    bound = 0.4 * grid.dx**2 / 1.0
    assert result.dt_largest <= bound + 1e-15


def test_degenerate_simulation_requires_nonnegative_data():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(16)
    with pytest.raises(SolverError):
        simulate(spec, np.sin(2.0 * np.pi * grid.nodes), t_end=1e-3, grid=grid)


def test_porous_medium_front_stays_nonnegative():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    grid = Grid1D(64)
    u0 = np.maximum(0.0, 1.0 - 16.0 * (grid.nodes - 0.5) ** 2)
    result = simulate(spec, u0, t_end=5e-3, grid=grid)
    assert float(np.min(result[-1].u)) >= -1e-12
    # mass is conserved away from the (inactive) boundary
    assert float(trapezoid(result[-1].u, grid.nodes)) == pytest.approx(
        float(trapezoid(u0, grid.nodes)), rel=1e-6
    )


def test_bad_inputs_raise():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(16)
    with pytest.raises(ValueError):
        simulate(spec, np.zeros(5), t_end=1e-3, grid=grid)
    with pytest.raises(ValueError):
        simulate(spec, np.zeros(grid.n_cells + 1), t_end=0.0, grid=grid)


@pytest.mark.parametrize("desc", [{"model": "heat"}, {"model": "porous_medium", "m": 2.0}],
                         ids=["heat", "porous_medium-2"])
def test_a_non_finite_u0_is_refused_before_any_step(desc):
    # Without the check heat failed after its first step and porous_medium
    # blamed its diffusion coefficient; the refusal names the node instead.
    spec, grid = models.from_descriptor(desc), Grid1D(16)
    u0 = np.linspace(0.0, 1.0, grid.n_cells + 1)
    u0[5] = math.nan
    frames = []
    with pytest.raises(ValueError, match=r"^u0 is not finite at node 5 \(x=0\.3125\): nan$"):
        simulate(spec, u0, t_end=1e-3, grid=grid, sink=frames.append)
    assert frames == []


@pytest.mark.parametrize("bc", ["dirichlet", _robin(2.0)], ids=["dirichlet", "robin"])
@pytest.mark.parametrize("desc", [
    {"model": "heat"},
    {"model": "porous_medium", "m": 2.0},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0},
    {"model": "mcf_poly", "n": 2.0},
], ids=lambda d: d["model"])
def test_cfl_step_keeps_the_np_gradient_stencil(desc, bc):
    # The CFL bound reads u_x from np.gradient's stencil: second order inside,
    # first order at the ends.  Bitwise equality keeps every step size, and
    # so every stored frame, as it was.
    spec = models.from_descriptor({**desc, "bc": [bc, bc]})
    grid = Grid1D(8)
    for seed in range(24):
        u = np.random.default_rng(seed).uniform(0.1, 1.0, grid.n_cells + 1)
        p = np.gradient(u, grid.dx)
        coef = np.abs(np.asarray(spec.diffusion_coeff(grid.nodes, u, p), dtype=float))
        expected = min(1.0, _CFL_SAFETY * grid.dx * grid.dx / float(np.max(coef)))
        assert _Kernel(spec, grid).cfl_dt(u, 1.0, 0.0) == expected


def _negative_state():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    u = np.full(9, 0.5)
    u[1] = -0.1
    evolution_rhs(spec, Grid1D(8), u)


def _overflowing_step():
    spec = models.from_descriptor({"model": "heat"})
    grid = Grid1D(8)
    u = np.sin(np.pi * grid.nodes)
    kernel = _Kernel(spec, grid)
    with np.errstate(all="ignore"):
        kernel.step(0.0, u, 1e300, kernel.rhs(u))


def _nan_coefficient():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    u = np.full(9, 0.5)
    u[4] = np.nan
    _Kernel(spec, Grid1D(8)).cfl_dt(u, 1.0, 0.25)


def _step_below_floor():
    # (u^2)_xx at u = 6.25e9 diffuses at 2u = 1.25e10: the CFL step is 5e-13.
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    _Kernel(spec, Grid1D(8)).cfl_dt(np.full(9, 6.25e9), 1.0, 0.25)


def _simulated_negative_ghost():
    # u_x = 8u at x = 0 on u = 0.5 mirrors the ghost to 0.5 - 2 * 0.125 * 4 = -0.5.
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0, "bc": [_robin(8.0), "dirichlet"]})
    simulate(spec, np.full(9, 0.5), t_end=1e-3, grid=Grid1D(8))


def _nan_at_the_middle(x, u, p):
    return np.where(np.asarray(x) == 0.5, np.nan, 1.0)


def _simulated_nan_state():
    # simulate refuses a non-finite u0, so a finite start meets a nan
    # reaction at x = 0.5.  Heat's coefficient is 1 whatever the state, so the
    # CFL step passes and the first Heun step is the one that meets the nan.
    spec = dataclasses.replace(models.from_descriptor({"model": "heat"}),
                               reaction=lambda x, u, p: _nan_at_the_middle(x, u, p) - 1.0,
                               rhs=None)
    simulate(spec, np.full(9, 0.5), t_end=1e-3, grid=Grid1D(8))


def _simulated_nan_coefficient():
    spec = dataclasses.replace(models.from_descriptor({"model": "heat"}),
                               diffusion_coeff=_nan_at_the_middle, rhs=None)
    simulate(spec, np.full(9, 0.5), t_end=1e-3, grid=Grid1D(8))


def _simulated_step_below_floor():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0, "bc": ["neumann", "neumann"]})
    simulate(spec, np.full(9, 6.25e9), t_end=1.0, grid=Grid1D(8))


@pytest.mark.parametrize("trigger, message", [
    (_negative_state, "negative state -0.1 fed to the degenerate power u^2.0"),
    (_overflowing_step, "non-finite state after step to t=1e+300"),
    (_nan_coefficient, "diffusion coefficient not finite at t=0.25"),
    (_step_below_floor, "CFL time step 5e-13 fell below the floor at t=0.25"),
    (_simulated_negative_ghost, "negative state -0.5 fed to the degenerate power u^2.0"),
    (_simulated_nan_state, "non-finite state after step to t=1.5625e-05"),
    (_simulated_nan_coefficient, "diffusion coefficient not finite at t=0.0"),
    (_simulated_step_below_floor, "CFL time step 5e-13 fell below the floor at t=0.0"),
], ids=["negative", "non-finite-state", "non-finite-coefficient", "below-floor",
        "simulate-negative", "simulate-non-finite-state", "simulate-non-finite-coefficient",
        "simulate-below-floor"])
def test_solver_checks_keep_their_messages(trigger, message):
    with pytest.raises(SolverError) as info:
        trigger()
    assert str(info.value) == message
