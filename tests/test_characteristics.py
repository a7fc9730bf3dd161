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
    _BLOWUP_CAP,
    _DT0,
    _LAND_TOL,
    _MAX_STEPS,
    _STALL_EPS,
    _STALL_WINDOW,
    _DT_MIN,
    _g_rate,
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
    last = traj.final
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
    last = traj.final
    assert last.tau == pytest.approx(0.5, abs=1e-12)
    assert last.p == pytest.approx(-math.tan(0.5), abs=1e-9)
    assert last.g == pytest.approx(2.0 * math.log(math.cos(0.5)), abs=1e-9)
    assert last.u == pytest.approx(math.log(math.cos(0.5)), abs=1e-9)


def test_tau_budget_termination():
    spec = models.from_descriptor({"model": "heat"})
    controls = CharControls(tau_max=0.7, x_end=None)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0}, controls)
    assert traj.termination is Termination.MAX_STEPS
    assert traj.final.tau == pytest.approx(0.7, abs=1e-9)


def test_blowup_termination():
    # p = -tan(tau) passes the cap just before tau = pi/2.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    controls = CharControls(tau_max=3.0, x_end=None)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 0.0}, controls)
    assert traj.termination is Termination.BLOWUP
    assert abs(traj.final.p) > _BLOWUP_CAP
    assert traj.final.tau == pytest.approx(0.5 * math.pi, abs=1e-7)


def test_stall_termination():
    # Backward mcf_poly n = 1 from p0 = -1.6: p = p0 e^tau grows, and the
    # speed (1 + p^2)^-1.5 stays below _STALL_EPS for _STALL_WINDOW accepted
    # steps while p is still under the blow-up cap, short of the plane.
    spec = models.from_descriptor({"model": "mcf_poly", "n": 1.0})
    start = {"x0": 0.2697867137638703, "u0": 0.23936944299295215, "p0": -1.605762482164177}
    traj = integrate_characteristics(spec, start, CharControls(x_end=0.0))
    assert traj.termination is Termination.STALLED
    end = traj.final
    assert float(spec.diffusion_coeff(end.x, end.u, end.p)) < _STALL_EPS
    assert len(traj) > _STALL_WINDOW
    assert abs(end.p) < _BLOWUP_CAP and end.x > _LAND_TOL


def test_bad_field_value_raises():
    spec = _custom_spec(
        lambda x, u, p: math.nan, lambda x, u, p: 0.0, lambda x, u, p: 0.0
    )
    with pytest.raises(CharacteristicsError):
        integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0})


def _lone_run(spec, start, controls):
    """The end row, accepted steps and termination of one curve, run alone."""
    traj = integrate_characteristics(spec, dict(zip(("x0", "u0", "p0", "g0"), start)), controls)
    f = traj.final
    return [f.tau, f.x, f.u, f.p, f.g], len(traj) - 1, traj.termination


def _assert_batch_is_lone(spec, seeds, controls):
    """Each curve of one batch ends as its lone run does, bit for bit."""
    last, n_steps, ends = _integrate_curves(spec, seeds, controls)
    assert last.shape == (len(seeds), 5) and len(n_steps) == len(ends) == len(seeds)
    for i, seed in enumerate(seeds):
        assert (last[i].tolist(), n_steps[i], ends[i]) == _lone_run(spec, seed, controls)
    return last, n_steps, ends


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
    _assert_batch_is_lone(spec, seeds, CharControls())


def _scalar_curve(spec, seed, controls):
    """One curve in Python floats: the per-curve loop the batch replaces.

    The curve runs toward the plane x = ``x_end``, forward or backward: the
    field is directed by the sign of ``x_end - x0``, and the landing clamp
    divides the gap by the speed toward the plane.  Returns every row, the
    start and each accepted state, and the termination.
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
        dt = min(dt, controls.tau_max - tau)
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
        if max(abs(y[2]), abs(y[3])) > _BLOWUP_CAP:
            return rows, Termination.BLOWUP
        if sign * (controls.x_end - y[0]) <= _LAND_TOL:
            return rows, Termination.REACHED_X_END
        if tau >= controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max)):
            return rows, Termination.MAX_STEPS
        k0 = field(*y[:3])
        stall = stall + 1 if abs(k0[0]) < _STALL_EPS else 0
        if stall >= _STALL_WINDOW:
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
    # and the batch do the same float operations and agree bit for bit: each
    # batch end row is the loop's last row, after as many accepted steps.
    spec = models.from_descriptor(descriptor)
    # Forward curves to the plane x = 1, then backward ones from x0 = 0.9 to
    # the plane x = 0: the landing clamp uses the speed toward the plane, so
    # a last step lands without a redo.
    for x0, controls in ((0.0, CharControls()), (0.9, CharControls(x_end=0.0))):
        seeds = [(x0, u0, p0, 0.0) for u0 in (0.25, 1.0) for p0 in (-2.0, -0.5, 0.5, 2.0)]
        last, n_steps, ends = _integrate_curves(spec, seeds, controls)
        for i, seed in enumerate(seeds):
            rows, termination = _scalar_curve(spec, seed, controls)
            assert last[i].tolist() == rows[-1]
            assert n_steps[i] == len(rows) - 1
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
    # One batch of mcf_poly n = 1 curves traced back to x = 0 under the
    # default constants.  Backward, p = p0 e^tau and dx/dtau = -(1 + p^2)^-1.5:
    # * p0 = 0 keeps the unit speed and reaches the plane;
    # * p0 = -1.6 slows below _STALL_EPS for _STALL_WINDOW steps and stalls;
    # * p0 = 1e7 passes the blow-up cap within a few tau;
    # * from x0 = 100 at unit speed the plane lies beyond the tau budget: on
    #   a constant field the step grows 1, 5, 25, then lands on tau_max = 50;
    # * a curve that starts on the plane has reached it after no step.
    spec = models.from_descriptor({"model": "mcf_poly", "n": 1.0})
    x0, u0 = 0.2697867137638703, 0.23936944299295215
    seeds = [(x0, u0, 0.0, 0.0), (x0, u0, -1.605762482164177, 0.0), (x0, u0, 1e7, 0.0),
             (100.0, 0.0, 0.0, 0.0), (0.0, 0.5, 1.0, 0.0)]
    last, n_steps, ends = _assert_batch_is_lone(spec, seeds, CharControls(x_end=0.0))
    assert tuple(ends) == (Termination.REACHED_X_END, Termination.STALLED, Termination.BLOWUP,
                           Termination.MAX_STEPS, Termination.REACHED_X_END)
    assert n_steps[3] == 4 and last[3].tolist() == pytest.approx([50.0, 50.0, 0.0, 0.0, -50.0])
    assert n_steps[4] == 0 and last[4].tolist() == [0.0, *seeds[4]]

    # inverse_mcf has p = tan(atan(p0) - tau): from p0 = -5 it passes the
    # cap near tau = 0.2, from p0 = 0 it lives out the tau budget.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    seeds = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -5.0, 0.0), (0.0, 1.0, 0.5, 0.0)]
    _, _, ends = _assert_batch_is_lone(spec, seeds, CharControls(tau_max=1.0, x_end=None))
    assert tuple(ends) == (Termination.MAX_STEPS, Termination.BLOWUP, Termination.MAX_STEPS)

    # Diffusion u: a curve from u0 = 0 never moves in x and runs out of tau,
    # one from u0 = 1 reaches x_end.  The scalar reaction callbacks are broadcast.
    spec = _custom_spec(lambda x, u, p: u, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    seeds = [(0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
    _, _, ends = _assert_batch_is_lone(spec, seeds, CharControls())
    assert tuple(ends) == (Termination.MAX_STEPS, Termination.REACHED_X_END)


def _overflowing_stage_spec():
    # D = exp(1/4 - x/2 - u)(1 + p^2), R = 0.6 p^2 + 0.8 x + 0.2 u: the first
    # attempt back from (0.9, 0.2, 1.95) probes a stage where D overflows.
    def diffusion(x, u, p):
        return np.exp(0.25 - 0.5 * x - u) * (1.0 + p * p)

    return ProblemSpec(
        name="custom", diffusion_coeff=diffusion,
        diffusion_coeff_dx=lambda x, u, p: -0.5 * diffusion(x, u, p),
        diffusion_coeff_du=lambda x, u, p: -diffusion(x, u, p),
        reaction=lambda x, u, p: 0.6 * p * p + 0.8 * x + 0.2 * u,
        reaction_dp=lambda x, u, p: 1.2 * p,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )


_OVERFLOW_QUERIES = [(0.9, 0.2, 1.95), (0.9, 0.2, 2.0), (0.8, -0.6, 1.8)]


def test_a_non_finite_trial_stage_rejects_the_step():
    # The stage where D overflows rejects the step, and the shorter steps
    # reach x = 0.
    spec = _overflowing_stage_spec()
    queries = _OVERFLOW_QUERIES
    provider = tabulate_g(spec)
    got = provider(*np.transpose(queries))
    assert provider.extrapolations == 0
    assert np.array_equal(got, [provider(*q) for q in queries])
    for value, q in zip(got, queries):
        last, _, ends = _integrate_curves(spec, [(*q, 0.0)], CharControls(tol=1e-12, x_end=0.0))
        assert ends[0] is Termination.REACHED_X_END
        assert value == pytest.approx(-last[0, 4], rel=1e-7)


def _reference_curves(spec, starts, controls):
    """The batch pass as it was before the field wrote its values into owned rows.

    Every pass filters the live curves, broadcasts the evaluators' values,
    scans every stage for finiteness, sums the stages with Python's ``sum``,
    computes both controller branches and writes each accepted row.
    ``_integrate_curves`` must give its end rows, step counts and
    terminations bit for bit.
    """

    def field(y, stage=False):
        x, u, p = y[0], y[1], y[2]
        if spec.char_system is not None:
            out = spec.char_system(x, u, p)
        else:
            fq = spec.diffusion_coeff(x, u, p)
            out = (fq, fq * p, spec.reaction(x, u, p), _g_rate(spec, x, u, p))
        k = np.array(np.broadcast_arrays(x, *out)[1:], dtype=float)
        bad = ~np.all(np.isfinite(k), axis=0)
        if not stage and bad.any():
            raise CharacteristicsError("curve field returned a bad value")
        return k

    starts = np.asarray(starts, dtype=float).reshape(-1, 4)
    n = len(starts)
    x_end = math.inf if controls.x_end is None else controls.x_end
    tau_end = controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max))
    last = np.vstack([np.zeros(n), starts.T])
    n_steps = np.zeros(n, dtype=int)
    sign = np.where(starts[:, 0] > x_end, -1.0, 1.0)
    live = sign * (x_end - starts[:, 0]) > _LAND_TOL
    ends = np.full(n, Termination.REACHED_X_END, dtype=object)
    ends[live] = Termination.MAX_STEPS
    idx, y, sign = np.flatnonzero(live), np.compress(live, starts.T, axis=1), sign[live]
    m = len(idx)
    tau, dt, stall = np.zeros(m), np.full(m, _DT0), np.zeros(m, dtype=int)
    k0 = field(y)
    live, step = np.ones(m, dtype=bool), 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while step < _MAX_STEPS and live.any():
            step += 1
            idx, sign, tau, dt, stall = (a[live] for a in (idx, sign, tau, dt, stall))
            y, k0 = (np.compress(live, a, axis=1) for a in (y, k0))
            gap = sign * (x_end - y[0])
            to_end = np.where(k0[0] > 0.0, gap / k0[0], math.inf)
            dt = np.minimum(np.minimum(dt, controls.tau_max - tau), to_end)
            if ((dt < _DT_MIN) & (dt != to_end)).any():
                raise CharacteristicsError("step size underflow")
            h = dt * sign
            ks = [k0]
            for a in _A[1:]:
                ks.append(field(y[:3] + h * sum(w * k[:3] for w, k in zip(a, ks)), stage=True))
            y5, y4 = (y + h * sum(w * k for w, k in zip(b, ks)) for b in (_B5, _B4))
            err = np.max(np.abs(y5 - y4) / (controls.tol * (1.0 + np.abs(y5))), axis=0)
            gap5 = sign * (x_end - y5[0])
            over = (err <= 1.0) & (gap5 < -_LAND_TOL)
            ok = (err <= 1.0) & ~over
            tau = np.where(ok, tau + dt, tau)
            y = np.where(ok, y5, y)
            dt = np.where(over, dt * gap / (gap - gap5), dt * np.where(
                ok, np.minimum(5.0, np.maximum(0.2, 0.9 * np.float_power(err + 1e-300, -0.2))),
                np.where(np.isfinite(err), np.maximum(0.2, 0.9 * np.float_power(err, -0.25)), 0.2),
            ))
            if ok.any():
                last[:, idx[ok]] = np.vstack([tau[ok], np.compress(ok, y, axis=1)])
                n_steps[idx[ok]] += 1
            blowup = ok & (np.max(np.abs(y[2:]), axis=0) > _BLOWUP_CAP)
            reached = ok & ~blowup & (sign * (x_end - y[0]) <= _LAND_TOL)
            moving = ok & ~(blowup | reached | (tau >= tau_end))
            if moving.any():
                k0[:, moving] = field(np.compress(moving, y, axis=1))
            slow = np.abs(k0[0]) < _STALL_EPS
            stall = np.where(moving, np.where(slow, stall + 1, 0), stall)
            stalled = moving & (stall >= _STALL_WINDOW)
            ends[idx[blowup]] = Termination.BLOWUP
            ends[idx[reached]] = Termination.REACHED_X_END
            ends[idx[stalled]] = Termination.STALLED
            live = ~ok | (moving & ~stalled)
    return last.T, n_steps, ends


def _float_spec():
    # Every callback returns a Python float whatever its arguments, so the
    # field broadcasts each constant into its row.
    return ProblemSpec(
        name="floats", diffusion_coeff=lambda x, u, p: 0.75,
        diffusion_coeff_dx=lambda x, u, p: -0.25, diffusion_coeff_du=lambda x, u, p: 0.5,
        reaction=lambda x, u, p: -0.0, reaction_dp=lambda x, u, p: 0.0,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )


def _first_stage_overflow_spec():
    # A char_system whose reaction is infinite only near x = 0.72, where the
    # first trial stage back from x0 = 0.9 lands: the landing step moves x by
    # 0.9, and that stage by a fifth of it.  Both updates weight that stage
    # by zero, so only its nan product rejects the step; the shorter step
    # then accepts x = 0.728 and lands in six steps under a tolerance of 1e-3.
    def char_system(x, u, p):
        return 1.0 + x, 0.5, np.where(np.abs(x - 0.72) < 0.005, np.inf, 0.0), 0.25

    return ProblemSpec(
        name="first-stage", diffusion_coeff=lambda x, u, p: 1.0, reaction=lambda x, u, p: 0.0,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
        char_system=char_system,
    )


def _random_starts(rng, n, x=(0.0, 1.0), u=(0.05, 1.5), p=(-2.0, 2.0)):
    return np.column_stack([rng.uniform(*x, n), rng.uniform(*u, n), rng.uniform(*p, n),
                            np.zeros(n)])


_RHO = {"model": "rho_laplacian_poly", "rho": 3.0}
_ROBIN_HEAT = {"model": "heat", "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 1.0}},
                                       "dirichlet"]}
# (spec builder, start builder, controls).  Each start set gains a curve
# from -0.0 in u, p and g, and one on its plane where there is a plane.
# The cases cover one-step landings, multi-step backward curves, a spent tau
# budget, a char_system, non-finite trial stages, blow-ups, a forward curve
# with no plane, and Python-float callbacks.
_REFERENCE_CASES = {
    "robin-heat": (lambda: models.from_descriptor(_ROBIN_HEAT),
                   lambda rng: _random_starts(rng, 200), CharControls(x_end=0.0)),
    "rho-3-1-backward": (lambda: models.from_descriptor(_RHO | {"n": 1.0}),
                         lambda rng: _random_starts(rng, 200), CharControls(x_end=0.0)),
    "rho-3-2-out-of-tau": (lambda: models.from_descriptor(_RHO | {"n": 2.0}),
                           lambda rng: _random_starts(rng, 40, p=(-1e-3, 1e-3)),
                           CharControls(x_end=0.0)),
    "pme-3-char-system": (lambda: models.from_descriptor({"model": "porous_medium", "m": 3.0}),
                          lambda rng: _random_starts(rng, 200), CharControls(x_end=0.0)),
    "non-finite-stage": (_overflowing_stage_spec,
                         lambda rng: np.array([(*q, 0.0) for q in _OVERFLOW_QUERIES]),
                         CharControls(tol=1e-12, x_end=0.0)),
    "forward-no-plane": (lambda: models.from_descriptor({"model": "inverse_mcf"}),
                         lambda rng: _random_starts(rng, 200, p=(-8.0, 8.0)),
                         CharControls(tau_max=1.0, x_end=None)),
    "python-floats": (_float_spec, lambda rng: _random_starts(rng, 200), CharControls(x_end=0.5)),
    "non-finite-first-stage": (_first_stage_overflow_spec,
                               lambda rng: np.array([(0.9, 0.5, 1.0, 0.0)]),
                               CharControls(tol=1e-3, x_end=0.0)),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_the_curve_engine_matches_the_reference_pass_bit_for_bit(case):
    build, draw, controls = _REFERENCE_CASES[case]
    spec = build()
    starts = draw(np.random.default_rng(7))
    starts = np.vstack([starts, [0.25, -0.0, -0.0, -0.0]])
    if controls.x_end is not None:
        starts = np.vstack([starts, [controls.x_end, 0.5, 1.0, 0.0]])
    last, n_steps, ends = _integrate_curves(spec, starts, controls)
    want_last, want_steps, want_ends = _reference_curves(spec, starts, controls)
    assert np.array_equal(last, want_last, equal_nan=True)
    assert np.array_equal(np.signbit(last), np.signbit(want_last))
    assert n_steps.tolist() == want_steps.tolist()
    assert ends.tolist() == want_ends.tolist()
    assert max(want_steps) > 0


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


def test_an_underflow_names_its_curve_and_a_field_that_moves_it_away():
    # With D = -1 the curve from x = 0.5 moves away from the plane x = 0,
    # and dp/dtau = p**3 blows up at tau = 1/2, where the step underflows.
    spec = _custom_spec(lambda x, u, p: -1.0, lambda x, u, p: -p ** 3,
                        lambda x, u, p: -3.0 * p ** 2)
    with pytest.raises(CharacteristicsError, match=(
            r"^step size underflow at tau=0\.5\d* on the curve from \(0\.5, 0\.25, 1\.0, 0\.0\), "
            r"now at \(1\.0\d*, .*\): the field moves it away from the plane x = 0\.0$")):
        tabulate_g(spec)(np.array([0.25, 0.5]), np.array([0.0, 0.25]), np.array([0.5, 1.0]))


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
    # Each answer is g0 minus the g of the end state of its query's lone
    # curve, traced back to the plane x = 0.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    provider = tabulate_g(spec, g0=0.5)
    xs, us, ps = (0.25, 0.75, 1.0), (-1.0, 0.0, 1.0), (-1.5, 0.5, 1.0)
    got = provider(*np.meshgrid(xs, us, ps, indexing="ij")).ravel()
    toward_zero = CharControls(x_end=0.0)
    for value, (x, u, p) in zip(got, ((x, u, p) for x in xs for u in us for p in ps)):
        end, _, termination = _lone_run(spec, (x, u, p, 0.0), toward_zero)
        assert termination is Termination.REACHED_X_END
        assert abs(end[1]) <= _LAND_TOL
        assert value == 0.5 - end[4]


@pytest.mark.parametrize("x0, x_end", [(0.0, 1.0), (0.3, 1.0), (0.9, 0.0), (0.4, 0.25)],
                         ids=["forward", "forward-mid", "backward", "backward-mid"])
def test_curves_land_on_the_plane(x0, x_end):
    # x runs faster as p grows, so a clamp at the starting speed overshoots;
    # the secant redo lands within the landing tolerance either way.  The
    # scalar loop, which keeps every state, shows x moving monotonically.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    start, controls = (x0, 0.3, 0.7, 0.0), CharControls(x_end=x_end)
    end, n_steps, termination = _lone_run(spec, start, controls)
    assert termination is Termination.REACHED_X_END
    assert abs(end[1] - x_end) <= _LAND_TOL
    rows, _ = _scalar_curve(spec, start, controls)
    assert (rows[-1], len(rows) - 1) == (end, n_steps)
    xs = [row[1] for row in rows]
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
