"""Curve integration and the three g representations.

The oracle curves are solvable by hand: linear diffusion gives straight
lines, the inverse curvature model gives p = -tan(tau), and polynomial
reactions give exact logarithms for g.  Normalized on the plane x = 0, the
same curves give g in closed form at every (x, u, p).
"""

import math

import numpy as np
import pytest

from paralyap import models
from paralyap.characteristics import (
    CharacteristicsError,
    CharControls,
    GProvider,
    ReducedGError,
    Termination,
    analytic_g,
    integrate_characteristics,
    reduced_g,
    reduced_ode_g,
    tabulate_g,
    _A,
    _B4,
    _B5,
    _DT0,
    _LAND_TOL,
    _MAX_STEPS,
    _STALL_EPS,
    _integrate_curves,
)
from paralyap.models import BoundaryCondition, ProblemSpec


def _custom_spec(diffusion, reaction, reaction_dp):
    # The x and u hooks default to zero, rhs to diffusion * q - reaction.
    return ProblemSpec(
        name="custom", diffusion_coeff=diffusion, reaction=reaction, reaction_dp=reaction_dp,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )


def test_linear_diffusion_curves_are_straight_lines():
    spec = models.from_descriptor({"model": "heat"})
    traj = integrate_characteristics(spec, {"u0": 0.25, "p0": -0.5})
    assert traj.termination is Termination.REACHED_X_END
    last = traj.states[-1]
    assert last.x == pytest.approx(1.0, abs=2e-9)
    assert last.u == pytest.approx(0.25 - 0.5 * last.x, abs=1e-10)
    assert last.p == pytest.approx(-0.5, abs=1e-12)
    assert last.g == pytest.approx(0.0, abs=1e-12)


def test_inverse_curvature_curve_matches_tangent_solution():
    # Field: x' = 1, u' = p, p' = -(1+p^2), g' = 2p.  From p(0) = 0 the
    # exact solution is p = -tan(tau) and g = 2 log cos(tau).
    spec = models.from_descriptor({"model": "inverse_mcf"})
    controls = CharControls(tol=1e-12, tau_max=0.5, x_end=None)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 0.0}, controls)
    last = traj.states[-1]
    assert last.tau == pytest.approx(0.5, abs=1e-12)
    assert last.p == pytest.approx(-math.tan(0.5), abs=1e-9)
    assert last.g == pytest.approx(2.0 * math.log(math.cos(0.5)), abs=1e-9)
    assert last.u == pytest.approx(math.log(math.cos(0.5)), abs=1e-9)


def test_tau_budget_termination():
    spec = models.from_descriptor({"model": "heat"})
    controls = CharControls(tau_max=0.7, x_end=None)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0}, controls)
    assert traj.termination is Termination.MAX_STEPS
    assert traj.states[-1].tau == pytest.approx(0.7, abs=1e-9)


def test_blowup_termination():
    spec = models.from_descriptor({"model": "inverse_mcf"})
    controls = CharControls(tau_max=3.0, x_end=None, blowup_cap=1e3)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 0.0}, controls)
    assert traj.termination is Termination.BLOWUP
    assert abs(traj.states[-1].p) > 1e3


def test_stall_termination():
    spec = _custom_spec(lambda x, u, p: 0.0, lambda x, u, p: -1.0, lambda x, u, p: 0.0)
    # dt_max keeps the controller from eating the tau budget before the
    # stall window fills.
    controls = CharControls(tau_max=1e6, stall_window=20, dt_max=0.5)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0}, controls)
    assert traj.termination is Termination.STALLED
    assert traj.states[-1].x == pytest.approx(0.0, abs=1e-12)


def test_bad_field_value_raises():
    spec = _custom_spec(
        lambda x, u, p: math.nan, lambda x, u, p: 0.0, lambda x, u, p: 0.0
    )
    with pytest.raises(CharacteristicsError):
        integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0})


def test_dt_cap_limits_accepted_steps():
    spec = models.from_descriptor({"model": "heat"})
    controls = CharControls(x_end=None, tau_max=0.5, dt_max=0.01)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0}, controls)
    taus = [s.tau for s in traj.states]
    steps = np.diff(taus)
    assert float(np.max(steps)) <= 0.01 + 1e-12
    assert len(taus) >= 50


def _lone_rows(spec, start, controls):
    traj = integrate_characteristics(spec, dict(zip(("x0", "u0", "p0", "g0"), start)), controls)
    return [[s.tau, s.x, s.u, s.p, s.g] for s in traj.states], traj.termination


@pytest.mark.parametrize("descriptor", [
    {"model": "heat"},
    {"model": "inverse_mcf"},
    {"model": "mcf_poly", "n": 2.0},
    # porous_medium integrates its rescaled char_system, valid for u > 0.
    {"model": "porous_medium", "m": 2.0},
], ids=["heat", "inverse_mcf", "mcf_poly-2", "porous_medium-2"])
def test_batch_curves_equal_their_lone_runs(descriptor):
    spec = models.from_descriptor(descriptor)
    seeds = [(0.0, u0, p0, 0.0) for u0 in (0.25, 0.5, 1.0) for p0 in (-1.0, 0.3, 1.5)]
    controls = CharControls(dt_max=0.05)
    states, curve, ends = _integrate_curves(spec, seeds, controls)
    assert len(ends) == len(seeds)
    assert np.array_equal(curve, np.sort(curve))
    for i, seed in enumerate(seeds):
        rows, termination = _lone_rows(spec, seed, controls)
        assert states[curve == i].tolist() == rows
        assert ends[i] is termination


def _scalar_curve(spec, seed, controls):
    """One curve in Python floats: the per-curve loop the batch replaces.

    The curve runs toward the plane x = ``x_end``, forward or backward: the
    field is directed by the sign of ``x_end - x0``, and the landing clamp
    divides the gap by the speed toward the plane.
    """
    sign = -1.0 if seed[0] > controls.x_end else 1.0

    def field(x, u, p):
        if spec.char_system is not None:
            return tuple(sign * float(v) for v in spec.char_system(x, u, p))
        fq = float(spec.diffusion_coeff(x, u, p))
        rate = -(float(spec.reaction_dp(x, u, p)) + float(spec.diffusion_coeff_dx(x, u, p))
                 + p * float(spec.diffusion_coeff_du(x, u, p)))
        return sign * fq, sign * (fq * p), sign * float(spec.reaction(x, u, p)), sign * rate

    tau, y, dt, stall = 0.0, seed, _DT0, 0
    rows, k0 = [[tau, *y]], field(*y[:3])
    for _ in range(_MAX_STEPS):
        dt = min(dt, controls.dt_max, controls.tau_max - tau)
        gap = sign * (controls.x_end - y[0])
        if sign * k0[0] > 0.0:
            dt = min(dt, gap / (sign * k0[0]))
        ks = [k0]
        for a in _A[1:]:
            ks.append(field(*(y[c] + dt * sum(w * k[c] for w, k in zip(a, ks)) for c in range(3))))
        y5, y4 = (tuple(y[c] + dt * sum(w * k[c] for w, k in zip(b, ks)) for c in range(4))
                  for b in (_B5, _B4))
        err = max(abs(y5[c] - y4[c]) / (controls.tol * (1.0 + abs(y5[c]))) for c in range(4))
        if not err <= 1.0:
            dt *= max(0.2, 0.9 * err ** -0.25) if math.isfinite(err) else 0.2
            continue
        gap5 = sign * (controls.x_end - y5[0])
        if gap5 < -_LAND_TOL:
            # Past the plane: redo with the secant step that lands on it.
            dt = dt * gap / (gap - gap5)
            continue
        tau, y = tau + dt, y5
        rows.append([tau, *y])
        dt *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
        if max(abs(y[2]), abs(y[3])) > controls.blowup_cap:
            return rows, Termination.BLOWUP
        if sign * (controls.x_end - y[0]) <= _LAND_TOL:
            return rows, Termination.REACHED_X_END
        if tau >= controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max)):
            return rows, Termination.MAX_STEPS
        k0 = field(*y[:3])
        stall = stall + 1 if abs(k0[0]) < _STALL_EPS else 0
        if stall >= controls.stall_window:
            return rows, Termination.STALLED
    return rows, Termination.MAX_STEPS


@pytest.mark.parametrize("descriptor", [
    {"model": "heat"},
    {"model": "inverse_mcf"},
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0},
    {"model": "porous_medium", "m": 2.0},
], ids=["heat", "inverse_mcf", "rho_laplacian_poly-3-2", "porous_medium-2"])
def test_batch_equals_the_scalar_loop(descriptor):
    # These fields need no pow of a non-integer exponent, so the scalar loop
    # and the batch do the same float operations and agree bit for bit.
    spec = models.from_descriptor(descriptor)
    seeds = [(0.0, u0, p0, 0.0) for u0 in (0.25, 1.0) for p0 in (-2.0, -0.5, 0.5, 2.0)]
    controls = CharControls(dt_max=0.05)
    states, curve, ends = _integrate_curves(spec, seeds, controls)
    for i, seed in enumerate(seeds):
        rows, termination = _scalar_curve(spec, seed, controls)
        assert states[curve == i].tolist() == rows
        assert ends[i] is termination
    # Backward curves, from x0 = 0.9 to the plane x = 0: the landing clamp
    # uses the speed toward the plane, so a last step lands without a redo.
    seeds = [(0.9, u0, p0, 0.0) for u0 in (0.25, 1.0) for p0 in (-2.0, -0.5, 0.5, 2.0)]
    controls = CharControls(dt_max=0.05, x_end=0.0)
    states, curve, ends = _integrate_curves(spec, seeds, controls)
    for i, seed in enumerate(seeds):
        rows, termination = _scalar_curve(spec, seed, controls)
        assert states[curve == i].tolist() == rows
        assert ends[i] is termination


def test_a_backward_curve_costs_what_its_mirror_costs():
    # D = 1: a straight curve whose first attempt, clamped to the gap at the
    # starting speed, lands on the plane.  That is one evaluation at the
    # start and five more stages, in either direction.
    calls = []

    def diffusion(x, u, p):
        calls.append(1)
        return 1.0

    spec = _custom_spec(diffusion, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    for x0, x_end in ((0.1, 1.0), (0.9, 0.0)):
        calls.clear()
        traj = integrate_characteristics(spec, {"x0": x0, "u0": 0.5, "p0": 1.0},
                                         CharControls(x_end=x_end))
        assert traj.termination is Termination.REACHED_X_END
        assert len(traj) == 2
        assert len(calls) == 6


def test_batch_terminations_match_lone_runs():
    # inverse_mcf has p = tan(atan(p0) - tau): from p0 = -5 it passes the
    # cap near tau = 0.2, from p0 = 0 it lives out the tau budget.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    controls = CharControls(tau_max=1.0, x_end=None, blowup_cap=1e3)
    seeds = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -5.0, 0.0), (0.0, 1.0, 0.5, 0.0)]
    _, _, ends = _integrate_curves(spec, seeds, controls)
    ends = tuple(ends)
    assert ends == (Termination.MAX_STEPS, Termination.BLOWUP, Termination.MAX_STEPS)
    for seed, end in zip(seeds, ends):
        assert _lone_rows(spec, seed, controls)[1] is end

    # Diffusion u: a curve from u0 = 0 never moves in x, one from u0 = 1
    # reaches x_end.  The scalar reaction callbacks are broadcast.
    spec = _custom_spec(lambda x, u, p: u, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    controls = CharControls(tau_max=1e6, stall_window=20, dt_max=0.5)
    seeds = [(0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
    states, curve, ends = _integrate_curves(spec, seeds, controls)
    ends = tuple(ends)
    assert ends == (Termination.STALLED, Termination.REACHED_X_END)
    for i, seed in enumerate(seeds):
        rows, termination = _lone_rows(spec, seed, controls)
        assert states[curve == i].tolist() == rows
        assert ends[i] is termination


def test_a_non_finite_trial_stage_rejects_the_step():
    # D = exp(1/4 - x/2 - u)(1 + p^2), R = 0.6 p^2 + 0.8 x + 0.2 u: the first
    # attempt back from (0.9, 0.2, 1.95) probes a stage where D overflows.
    # That stage rejects the step, and the shorter steps reach x = 0.
    def diffusion(x, u, p):
        return np.exp(0.25 - 0.5 * x - u) * (1.0 + p * p)

    spec = ProblemSpec(
        name="custom", diffusion_coeff=diffusion,
        diffusion_coeff_dx=lambda x, u, p: -0.5 * diffusion(x, u, p),
        diffusion_coeff_du=lambda x, u, p: -diffusion(x, u, p),
        reaction=lambda x, u, p: 0.6 * p * p + 0.8 * x + 0.2 * u,
        reaction_dp=lambda x, u, p: 1.2 * p,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )
    queries = [(0.9, 0.2, 1.95), (0.9, 0.2, 2.0), (0.8, -0.6, 1.8)]
    provider = tabulate_g(spec)
    got = provider(*np.transpose(queries))
    assert provider.extrapolations == 0
    assert np.array_equal(got, [provider(*q) for q in queries])
    for value, q in zip(got, queries):
        states, _, ends = _integrate_curves(spec, [(*q, 0.0)], CharControls(tol=1e-12, x_end=0.0))
        assert ends[0] is Termination.REACHED_X_END
        assert value == pytest.approx(-states[-1, 4], rel=1e-7)


def test_batch_failures_name_the_state_and_tau():
    spec = _custom_spec(
        lambda x, u, p: np.where(u > 0.5, math.nan, 1.0),
        lambda x, u, p: 0.0, lambda x, u, p: 0.0,
    )
    with pytest.raises(CharacteristicsError, match=r"at state \(0\.0, 1\.0, 2\.0, 0\.0\)"):
        _integrate_curves(spec, [(0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 2.0, 0.0)], CharControls())
    # A zero tolerance rejects every step until the step size underflows.
    with pytest.raises(CharacteristicsError, match=r"step size underflow at tau=0\.0"):
        integrate_characteristics(models.from_descriptor({"model": "heat"}),
                                  {"u0": 0.0, "p0": 1.0}, CharControls(tol=0.0))


def test_a_landing_step_below_the_smallest_step_lands():
    # At speed 1e3 a gap of 2e-12 is crossed in tau = 2e-15, below _DT_MIN:
    # the landing clamp, not the step controller, made that step short.
    spec = _custom_spec(lambda x, u, p: 1e3, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    traj = integrate_characteristics(spec, {"x0": 2e-12, "u0": 0.5, "p0": 1.0},
                                     CharControls(x_end=0.0))
    assert traj.termination is Termination.REACHED_X_END
    assert len(traj) == 2
    assert abs(traj.final.x) <= _LAND_TOL
    assert traj.final.tau == pytest.approx(2e-15, rel=1e-12)


def test_tabulated_samples_are_the_lone_states():
    # Each answer is g0 minus the g of the last state of its query's lone
    # curve, traced back to the plane x = 0.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    provider = tabulate_g(spec, g0=0.5)
    xs, us, ps = (0.25, 0.75, 1.0), (-1.0, 0.0, 1.0), (-1.5, 0.5, 1.0)
    got = provider(*np.meshgrid(xs, us, ps, indexing="ij")).ravel()
    toward_zero = CharControls(x_end=0.0)
    for value, (x, u, p) in zip(got, ((x, u, p) for x in xs for u in us for p in ps)):
        rows, termination = _lone_rows(spec, (x, u, p, 0.0), toward_zero)
        assert termination is Termination.REACHED_X_END
        assert abs(rows[-1][1]) <= _LAND_TOL
        assert value == 0.5 - rows[-1][4]


@pytest.mark.parametrize("x0, x_end", [(0.0, 1.0), (0.3, 1.0), (0.9, 0.0), (0.4, 0.25)],
                         ids=["forward", "forward-mid", "backward", "backward-mid"])
def test_curves_land_on_the_plane(x0, x_end):
    # x runs faster as p grows, so a clamp at the starting speed overshoots;
    # the secant redo lands within the landing tolerance either way.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    traj = integrate_characteristics(spec, {"x0": x0, "u0": 0.3, "p0": 0.7},
                                     CharControls(x_end=x_end))
    assert traj.termination is Termination.REACHED_X_END
    assert abs(traj.final.x - x_end) <= _LAND_TOL
    xs = [s.x for s in traj.states]
    assert xs == (sorted(xs) if x_end > x0 else sorted(xs, reverse=True))


# ---------------------------------------------------------------------------
# reduced g(p)


def test_reduced_matches_exact_logarithm():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    # g = -2 log(p / p0): at p = 0.5 that is 2 log 2.
    assert reduced_g(spec, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
    assert reduced_g(spec, 0.5, method="quadrature") == pytest.approx(
        2.0 * math.log(2.0), abs=1e-8
    )


def test_reduced_inverse_curvature_normalized_at_zero():
    spec = models.from_descriptor({"model": "inverse_mcf"})
    # g = log((1+p0^2)/(1+p^2)): from p0 = 0 to p = 1 that is log(1/2).
    assert reduced_g(spec, 1.0, p0=0.0) == pytest.approx(math.log(0.5), abs=1e-10)
    assert reduced_g(spec, 1.0, p0=0.0, method="quadrature") == pytest.approx(
        math.log(0.5), abs=1e-8
    )


def test_reduced_constant_when_rate_vanishes():
    spec = models.from_descriptor({"model": "heat"})
    out = reduced_g(spec, np.array([-1.0, 0.0, 2.0]), p0=1.0, g0=0.25)
    assert np.allclose(out, 0.25)


def test_reduced_rest_point_query_yields_nan():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    out = reduced_g(spec, np.array([0.0, 0.5, 1.0]), p0=1.0)
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(math.log(2.0), abs=1e-10)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_reduced_near_rest_point_query_does_not_depend_on_its_batch():
    # A large reaction elsewhere in the batch must not turn a query near the
    # rest point p = 0 into a rest point.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    alone = reduced_g(spec, np.array([1e-12]))
    batch = reduced_g(spec, np.array([1e-12, 100.0]))
    assert alone[0] == batch[0] == pytest.approx(math.log(1e12))


def test_reduced_seed_at_rest_point_raises():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    with pytest.raises(ReducedGError):
        reduced_g(spec, 0.5, p0=0.0)


def test_reduced_crossing_a_rest_point_raises():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    with pytest.raises(ReducedGError):
        reduced_g(spec, -0.5, p0=1.0)


def test_reduced_requires_the_structure_flag():
    # D = 1 + x: the ratio dg/dp depends on the frozen point, so the spec
    # leaves the flag at its default.
    spec = ProblemSpec(
        name="custom", diffusion_coeff=lambda x, u, p: 1.0 + x,
        diffusion_coeff_dx=lambda x, u, p: 1.0, reaction=lambda x, u, p: -p,
        reaction_dp=lambda x, u, p: -1.0,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )
    assert not spec.shared_factor_reducible
    with pytest.raises(ReducedGError):
        reduced_g(spec, 0.5)


@pytest.mark.parametrize("descriptor", [
    {"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.0},
    {"model": "mcf_poly", "n": 0.0},
    {"model": "porous_medium", "m": 1.0},
], ids=["rho_laplacian_poly-0", "mcf_poly-0", "porous_medium-1"])
def test_reduced_equals_analytic_where_the_rate_vanishes(descriptor):
    # dg/dp is zero, so the reduced g is the flat g0 of the shipped form.
    spec = models.from_descriptor(descriptor)
    p = np.array([-2.0, -0.5, 0.0, 1e-6, 0.5, 3.0])
    assert np.array_equal(reduced_ode_g(spec, 1.0, 0.25)(0.5, 0.75, p),
                          analytic_g(spec, 1.0, 0.25)(0.5, 0.75, p))


def _reduced_answer(spec, p, method, **norm):
    """reduced_g at each p of a batch, or the error that the batch raises."""
    try:
        return reduced_g(spec, np.array(p), method=method, **norm).tolist()
    except ReducedGError as exc:
        return str(exc)


@pytest.mark.parametrize("descriptor, p0, queries, valid", [
    # The reaction -p**2 rests at p = 0, which a batch from -1 to 1 samples.
    ({"model": "mcf_poly", "n": 2.0}, 1.0, [-1.0, 1.0, 1.5, 0.25], [1.0, 1.5, 0.25, 3.0]),
    ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, 1.0,
     [-0.5, 0.0, 1e-12, 2.0], [0.5, 100.0, 1e-3]),
    ({"model": "porous_medium", "m": 2.0}, 1.0, [0.7, 0.0, -1.0, 3.0], [0.05, 0.7, 2.5]),
    ({"model": "inverse_mcf"}, 0.0, [0.0, 1.0, -3.0], [0.5, -0.5, 2.0]),
], ids=["mcf_poly-2", "rho_laplacian_poly-1", "porous_medium-2", "inverse_mcf"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_reduced_query_answers_alone_as_in_any_batch(descriptor, p0, queries, valid, method):
    # Each query gives the same bits, or the same error, alone and beside
    # any valid queries, before or after them.
    spec = models.from_descriptor(descriptor)
    for q in queries:
        alone = _reduced_answer(spec, [q], method, p0=p0)
        for k in range(len(valid) + 1):
            others = valid[:k]
            for batch, at in (([q, *others], 0), ([*others, q], k)):
                got = _reduced_answer(spec, batch, method, p0=p0)
                if isinstance(alone, str):
                    assert got == alone, (q, batch)
                else:
                    assert np.array_equal(got[at], alone[0], equal_nan=True), (q, batch)


# ---------------------------------------------------------------------------
# providers


def test_analytic_provider_values():
    pme = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    provider = analytic_g(pme)
    assert provider.variant == "analytic"
    assert provider(0.3, 0.7, 0.25) == pytest.approx(math.log(4.0))
    # degenerate gradient: off-branch value reported quietly as +inf
    assert math.isinf(float(provider(0.0, 0.5, 0.0)))


def test_analytic_provider_requires_a_shipped_form():
    spec = _custom_spec(lambda x, u, p: 1.0, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    with pytest.raises(ValueError):
        analytic_g(spec)


def test_reduced_provider_memoizes_and_matches_analytic():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    provider = reduced_ode_g(spec)
    ps = np.array([0.25, 0.5, 2.0])
    first = provider(0.0, 0.0, ps)
    second = provider(0.9, -0.3, ps)  # x and u are ignored
    assert np.array_equal(first, second)
    exact = spec.closed_forms.g_of_p(ps, 1.0, 0.0)
    assert np.max(np.abs(first - exact)) < 1e-8
    assert provider(0.0, 0.0, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-8)


def test_tabulated_provider_covers_and_interpolates():
    # Heat carries g unchanged along every curve, so every reachable query
    # is answered with exactly the value on the plane.
    spec = models.from_descriptor({"model": "heat"})
    provider = tabulate_g(spec, g0=0.25)
    assert provider.variant == "tabulated"
    assert provider.p0 is None and provider.g0 == 0.25
    rng = np.random.default_rng(0)
    x, u, p = rng.uniform(0.0, 1.0, 100), rng.uniform(-2.0, 2.0, 100), rng.uniform(-3.0, 3.0, 100)
    assert np.all(provider(x, u, p) == 0.25)
    assert provider(0.0, 1.0, 1.0) == 0.25
    assert provider.extrapolations == 0


def test_tabulated_far_query_counts_as_extrapolation():
    # porous_medium m = 2 at u = 0: the curve does not move in x, so the
    # plane is never reached and the answer is nan.
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    provider = tabulate_g(spec)
    assert math.isnan(provider(0.5, 0.0, -0.5))
    assert provider.extrapolations == 1
    # Reachable queries in the same batch are answered and not counted.
    got = provider(0.5, np.array([0.0, 1.0]), np.array([-0.5, 0.5]))
    assert math.isnan(got[0]) and math.isfinite(got[1])
    assert provider.extrapolations == 2
    # The public counter is the only count: a reset sticks.
    provider.extrapolations = 0
    provider(0.5, 0.0, np.array([-0.5, -0.25]))
    assert provider.extrapolations == 2


def test_tabulated_tracks_a_varying_weight():
    # rho_laplacian_poly (3, 2): x' = 2|p|, g' = 2 sign(p), so g = g0 + sign(p) x.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    provider = tabulate_g(spec, g0=0.1)
    assert float(provider(0.5, 0.0, 0.8)) == pytest.approx(0.6, abs=1e-10)
    rng = np.random.default_rng(1)
    p = rng.uniform(-2.0, 2.0, 200)
    p = p[np.abs(p) > 0.05]
    x, u = rng.uniform(0.0, 1.0, p.size), rng.uniform(-1.0, 1.0, p.size)
    assert np.max(np.abs(provider(x, u, p) - (0.1 + np.sign(p) * x))) <= 1e-10
    assert provider.extrapolations == 0


def test_tabulated_inverse_curvature_matches_the_plane_solution():
    # p = tan(atan(p0) - tau) on a curve with x = tau, and g0 = 0 at x = 0
    # gives g = 2 log|cos(atan p) / cos(atan p + x)|; the curve through a
    # query with |atan p + x| >= pi/2 blows up before it reaches x = 0.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    provider = tabulate_g(spec)
    rng = np.random.default_rng(2)
    x, u, p = rng.uniform(0.0, 1.0, 200), rng.uniform(-1.0, 1.0, 200), rng.uniform(-5.0, 5.0, 200)
    got = provider(x, u, p)
    angle = np.arctan(p) + x
    reachable = np.abs(angle) < 0.5 * math.pi
    exact = 2.0 * np.log(np.abs(np.cos(np.arctan(p[reachable])) / np.cos(angle[reachable])))
    assert np.array_equal(np.isnan(got), ~reachable)
    assert np.all(np.abs(got[reachable] - exact) <= 1e-6 * (1.0 + np.abs(exact)))
    assert provider.extrapolations == np.count_nonzero(~reachable)
    # A batch answer equals the lone call of the same query, bit for bit.
    lone = [provider(*q) for q in zip(x[:20], u[:20], p[:20])]
    assert np.array_equal(got[:20], lone, equal_nan=True)
    assert np.isnan(lone).any() and not np.isnan(lone).all()


def test_provider_call_shapes():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    provider = analytic_g(spec)
    arr = provider(0.0, 0.0, np.array([0.5, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert isinstance(GProvider.__call__(provider, 0.0, 0.0, 0.5), float)


def test_reduced_provider_keeps_the_query_shape():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    ps = np.array([[0.25, 0.5, 1.0], [2.0, 0.5, 4.0]])
    got = reduced_ode_g(spec)(0.0, 0.5, ps)
    assert got.shape == (2, 3)
    assert np.max(np.abs(got - analytic_g(spec)(0.0, 0.5, ps))) < 1e-12


def test_reduced_quadrature_does_not_depend_on_the_batch():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    lone = reduced_g(spec, 0.7, method="quadrature")
    grid = reduced_g(spec, np.append(np.linspace(0.05, 3.0, 100), 0.7), method="quadrature")
    assert lone == grid[-1]
