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
    _BLOWUP_CAP,
    _LAND_TOL,
    _STALL_EPS,
    _STALL_WINDOW,
)
from paralyap import characteristics
from paralyap.lagrangian import build_lagrangian, eval_L
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


def test_lone_curve_terminations():
    # mcf_poly n = 1 curves traced back to x = 0 under the default constants.
    # Backward, p = p0 e^tau and dx/dtau = -(1 + p^2)^-1.5:
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
    runs = [_lone_run(spec, seed, CharControls(x_end=0.0)) for seed in seeds]
    assert [end for _, _, end in runs] == [
        Termination.REACHED_X_END, Termination.STALLED, Termination.BLOWUP,
        Termination.MAX_STEPS, Termination.REACHED_X_END]
    assert runs[3][1] == 4 and runs[3][0] == pytest.approx([50.0, 50.0, 0.0, 0.0, -50.0])
    assert runs[4][1] == 0 and runs[4][0] == [0.0, *seeds[4]]

    # inverse_mcf has p = tan(atan(p0) - tau): from p0 = -5 it passes the
    # cap near tau = 0.2, from p0 = 0 it lives out the tau budget.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    controls = CharControls(tau_max=1.0, x_end=None)
    assert [_lone_run(spec, seed, controls)[2] for seed in [
        (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -5.0, 0.0), (0.0, 1.0, 0.5, 0.0)]] == [
        Termination.MAX_STEPS, Termination.BLOWUP, Termination.MAX_STEPS]

    # Diffusion u: a curve from u0 = 0 never moves in x and runs out of tau,
    # one from u0 = 1 reaches x_end.  The scalar reaction callbacks are broadcast.
    spec = _custom_spec(lambda x, u, p: u, lambda x, u, p: 0.0, lambda x, u, p: 0.0)
    assert [_lone_run(spec, seed, CharControls())[2] for seed in [
        (0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0)]] == [
        Termination.MAX_STEPS, Termination.REACHED_X_END]


def test_tau_failures_name_the_state_and_tau():
    spec = _custom_spec(
        lambda x, u, p: np.where(u > 0.5, math.nan, 1.0),
        lambda x, u, p: 0.0, lambda x, u, p: 0.0,
    )
    with pytest.raises(CharacteristicsError, match=r"at state \(0\.0, 1\.0, 2\.0, 0\.0\)"):
        integrate_characteristics(spec, {"u0": 1.0, "p0": 2.0})
    # A zero tolerance rejects every step until the step size underflows.
    with pytest.raises(CharacteristicsError, match=r"step size underflow at tau=0\.0"):
        integrate_characteristics(models.from_descriptor({"model": "heat"}),
                                  {"u0": 0.0, "p0": 1.0}, CharControls(tol=0.0))


def test_a_negative_diffusion_runs_away_in_tau_and_reaches_the_plane_in_x():
    # With D = -1 the tau curve from x = 0.5 moves away from the plane x = 0,
    # and dp/dtau = p**3 blows up at tau = 1/2, where the step underflows.
    spec = _custom_spec(lambda x, u, p: -1.0, lambda x, u, p: -p ** 3,
                        lambda x, u, p: -3.0 * p ** 2)
    with pytest.raises(CharacteristicsError, match=(
            r"^step size underflow at tau=0\.5\d* on the curve from \(0\.5, 0\.25, 1\.0, 0\.0\), "
            r"now at \(1\.0\d*, .*\): the field moves it away from the plane x = 0\.0$")):
        integrate_characteristics(spec, {"x0": 0.5, "u0": 0.25, "p0": 1.0},
                                  CharControls(x_end=0.0))
    # In x the interval is fixed: dp/dx = p**3 and dg/dx = -3 p**2 give
    # g = g0 - 1.5 log1p(2 x p**2).
    x, p = np.array([0.25, 0.5]), np.array([0.5, 1.0])
    provider = tabulate_g(spec)
    got = provider(x, np.array([0.0, 0.25]), p)
    assert np.allclose(got, -1.5 * np.log1p(2.0 * x * p * p), rtol=0.0, atol=1e-7)
    assert provider.extrapolations == 0


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


@pytest.mark.parametrize("x0, x_end", [(0.0, 1.0), (0.3, 1.0), (0.9, 0.0), (0.4, 0.25)],
                         ids=["forward", "forward-mid", "backward", "backward-mid"])
def test_curves_land_on_the_plane(x0, x_end):
    # x runs faster as p grows, so a clamp at the starting speed overshoots;
    # the secant redo lands within the landing tolerance either way.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    end, n_steps, termination = _lone_run(spec, (x0, 0.3, 0.7, 0.0), CharControls(x_end=x_end))
    assert termination is Termination.REACHED_X_END
    assert abs(end[1] - x_end) <= _LAND_TOL
    assert n_steps > 1


# ---------------------------------------------------------------------------
# the traced g, integrated in x

_RHO_3_1 = {"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}


def _oracle_queries(n=2000, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.5, n), rng.uniform(-2.0, 2.0, n)


def _exact_rho_3_1_g(x, u, p):
    # D = 2|p| and R = -p: p moves at dp/dx = -sign(p)/2 and g at 1/(2|p|).
    with np.errstate(divide="ignore"):
        return np.log1p(np.asarray(x) / (2.0 * np.abs(p)))


def test_traced_g_matches_the_exact_g_within_multiples_of_the_curve_tolerance():
    # The oracle: g0 + log1p(x/(2|p|)).  Near p = 0, g varies on the scale
    # 2|p|, and the (1 + |y|) error norm still holds each curve to a few tol.
    # Measured errors (seed 1): 1.7e-8 for |p| > 0.1, 3.0e-7 for |p| < 0.01.
    tol = CharControls.tol
    x, u, p = _oracle_queries()
    provider = tabulate_g(models.from_descriptor(_RHO_3_1))
    err = np.abs(provider(x, u, p) - _exact_rho_3_1_g(x, u, p))
    assert provider.extrapolations == 0
    assert np.count_nonzero(np.abs(p) < 0.01) >= 5
    assert err[np.abs(p) > 0.1].max() <= 3.0 * tol
    assert err[np.abs(p) < 0.01].max() <= 50.0 * tol


def test_traced_density_matches_the_exact_g_density():
    # L at x = 0.5 on the default 9 x 9 dump grid, built once from the traced
    # g and once from its closed form.  L integrates g over p from p_base = 0,
    # so it carries the traced g's error near p = 0.
    spec = models.from_descriptor(_RHO_3_1)
    exact = GProvider("exact", None, 0.0, _exact_rho_3_1_g)
    u, p = (a.ravel() for a in np.meshgrid(np.linspace(0.25, 1.0, 9), np.linspace(0.25, 2.0, 9)))
    traced_L, exact_L = (eval_L(build_lagrangian(spec, g), 0.5, u, p)
                         for g in (tabulate_g(spec), exact))
    assert np.max(np.abs(traced_L - exact_L) / (1.0 + np.abs(exact_L))) <= 30.0 * CharControls.tol


def test_one_bad_start_leaves_the_rest_of_the_batch_answered():
    # rho_laplacian_poly (3, 0.5) has R_p = -p**-0.5 / 2, infinite at p = 0:
    # that query is unreached, the other is answered as it is alone.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.5})
    provider = tabulate_g(spec)
    got = provider(np.array([0.5, 0.5]), np.array([0.00107, 0.5]), np.array([0.0, 1.0]))
    assert math.isnan(got[0]) and math.isfinite(got[1])
    assert provider.extrapolations == 1
    assert got[1] == provider(0.5, 0.5, 1.0)


@pytest.mark.parametrize("descriptor", [
    {"model": "rho_laplacian_pure", "rho": 3.0},
    {"model": "quasilinear_gradient", "a": {"kind": "power_abs", "exponent": 1.0}},
], ids=["rho_laplacian_pure-3", "power_abs-1"])
def test_near_crest_queries_are_answered(descriptor):
    # D = 0 at p = 0 stalls a tau curve there.  In x, R = 0 keeps p fixed and
    # the g rate vanishes, so each curve lands with g exactly g0.
    rng = np.random.default_rng(3)
    x, u, p = rng.uniform(0.1, 1.0, 200), rng.uniform(0.0, 1.0, 200), rng.uniform(-1e-3, 1e-3, 200)
    assert np.all(p != 0.0)
    provider = tabulate_g(models.from_descriptor(descriptor), g0=0.25)
    assert np.all(provider(x, u, p) == 0.25)
    assert provider.extrapolations == 0


def _banded_spec(band, diffusion=lambda x: 1.0):
    # D = 1 and R = 0 outside the band of x, where R is infinite.
    return _custom_spec(
        lambda x, u, p: diffusion(x),
        lambda x, u, p: np.where(np.abs(x - band[0]) < band[1], np.inf, 0.0),
        lambda x, u, p: 0.0)


_NON_FINITE_STARTS = [(0.0, math.nan, 1.0), (0.0, 0.5, math.nan), (0.0, 0.5, math.inf),
                      (0.5, math.inf, 1.0), (0.5, -math.inf, 1.0)]


@pytest.mark.parametrize("spec, queries, patch", [
    # Not finite at the start: x itself, or the field at (u, p).
    (models.from_descriptor({"model": "heat"}), [(math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0)],
     {}),
    # A non-finite u or p, on the plane too, where no curve is needed; heat's
    # field is finite at an infinite u.
    (models.from_descriptor({"model": "heat"}), _NON_FINITE_STARTS, {}),
    (models.from_descriptor(_RHO_3_1), _NON_FINITE_STARTS, {}),
    (models.from_descriptor({"model": "porous_medium", "m": 2.0}), [(0.5, 0.0, -0.5)], {}),
    # p = tan(atan p0 + x) passes the blow-up cap before x reaches 0.
    (models.from_descriptor({"model": "inverse_mcf"}), [(1.0, 0.0, 1.0)], {}),
    # R is infinite on 0.2 < x < 0.8: a step across it has a stage inside it,
    # so the step shrinks below _DT_MIN.
    (_banded_spec((0.5, 0.3)), [(0.9, 0.5, 1.0)], {}),
    # A curve that needs more attempts than the budget allows.
    (models.from_descriptor(_RHO_3_1), [(0.9, 0.5, 1e-3)], {"_MAX_STEPS": 5}),
], ids=["non-finite-x", "non-finite-start-heat", "non-finite-start-rho_laplacian_poly-3-1",
      "bad-start-field", "blowup", "step-underflow", "attempt-budget"])
def test_an_unreached_query_is_nan_for_itself_alone(monkeypatch, spec, queries, patch):
    for name, value in patch.items():
        monkeypatch.setattr(characteristics, name, value)
    reachable = (0.1, 0.5, 0.5)
    provider = tabulate_g(spec)
    want = provider(*reachable)
    assert math.isfinite(want) and provider.extrapolations == 0
    got = provider(*np.transpose([reachable, *queries, reachable]))
    assert np.isnan(got[1:-1]).all()
    assert got[0] == got[-1] == want
    assert provider.extrapolations == len(queries)


def test_a_non_finite_trial_stage_rejects_the_step():
    # From x = 0.9 the first attempt spans the whole interval, and its second
    # stage lands at x = 0.72, inside a band where R is infinite.  Both
    # updates weight that stage by zero, so only its nan product rejects the
    # step; shorter steps miss the band, and the curve lands with g = g0.
    stage_xs = []

    def diffusion(x):
        stage_xs.append(np.asarray(x).copy())
        return 1.0

    provider = tabulate_g(_banded_spec((0.72, 0.005), diffusion), g0=0.5)
    assert provider(0.9, 0.5, 1.0) == 0.5
    assert provider.extrapolations == 0
    assert any(np.any(np.abs(x - 0.72) < 0.005) for x in stage_xs)


def test_traced_g_agrees_with_a_tight_tau_curve_on_an_x_dependent_spec():
    # D = exp(1/4 - x/2 - u)(1 + p^2), R = 0.6 p^2 + 0.8 x + 0.2 u: each
    # answer is g0 minus the g gained on the tau curve to x = 0 at tol 1e-12.
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
    for value, q in zip(got, queries):
        end, _, termination = _lone_run(spec, (*q, 0.0), CharControls(tol=1e-12, x_end=0.0))
        assert termination is Termination.REACHED_X_END
        assert value == pytest.approx(-end[4], rel=1e-7)


def test_python_float_callbacks_are_broadcast():
    # Every callback returns a Python float, so the field broadcasts each
    # constant into its row: p stays fixed and dg/dx = (0.25 - 0.5 p)/0.75.
    spec = ProblemSpec(
        name="floats", diffusion_coeff=lambda x, u, p: 0.75,
        diffusion_coeff_dx=lambda x, u, p: -0.25, diffusion_coeff_du=lambda x, u, p: 0.5,
        reaction=lambda x, u, p: -0.0, reaction_dp=lambda x, u, p: 0.0,
        bc_left=BoundaryCondition.dirichlet(), bc_right=BoundaryCondition.dirichlet(),
    )
    x, u, p = _oracle_queries(200)
    got = tabulate_g(spec)(x, u, p)
    assert np.allclose(got, x * (0.25 - 0.5 * p) / 0.75, rtol=0.0, atol=1e-14)


def test_tabulated_answers_are_their_lone_answers():
    # Each answer of a batch equals the lone call of its query, bit for bit,
    # and rho_laplacian_poly (3, 2) has g = g0 + sign(p) x.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    provider = tabulate_g(spec, g0=0.5)
    grid = np.meshgrid((0.0, 0.25, 0.75, 1.0), (-1.0, 0.0, 1.0), (-1.5, 0.5, 1.0), indexing="ij")
    got = provider(*grid)
    assert got.shape == grid[0].shape
    assert got.ravel().tolist() == [provider(*q) for q in zip(*(a.ravel() for a in grid))]
    assert np.allclose(got, 0.5 + np.sign(grid[2]) * grid[0], rtol=0.0, atol=1e-10)


def test_a_batch_whose_curves_take_different_numbers_of_passes_answers_as_its_lone_queries(
        monkeypatch):
    # rho_laplacian_poly (3, 1): a curve near p = 0 takes many more controlled
    # steps than the rest, so the batch is compacted between passes.
    x, u, p = _oracle_queries(200, seed=5)
    p[::20] = np.random.default_rng(6).uniform(-1e-3, 1e-3, 10)
    provider = tabulate_g(models.from_descriptor(_RHO_3_1), g0=0.25)
    passes = []
    real = characteristics._cash_karp

    def counted(field, t, y, k0, h, tol):
        passes.append(y.shape[1])
        return real(field, t, y, k0, h, tol)

    monkeypatch.setattr(characteristics, "_cash_karp", counted)
    got = provider(x, u, p)
    assert passes[0] == 200 and len(set(passes)) > 2
    lone = np.array([provider(*q) for q in zip(x, u, p)])
    assert got.tobytes() == lone.tobytes()
    assert provider.extrapolations == 0


# ---------------------------------------------------------------------------
# the Cash-Karp pass, against a broadcast-and-reduce reference

_REF_STAGE_WEIGHTS = [np.array(a).reshape(-1, 1, 1) for a in characteristics._A]
_REF_B5_E = np.array([characteristics._B5, np.subtract(characteristics._B5, characteristics._B4)]
                     ).reshape(2, -1, 1, 1)


def _reference_cash_karp(field, t, y, k0, h, tol):
    """The pass as a reduction over a (stages, rows, curves) stack of products."""
    ks = np.empty((6, *y.shape))
    ks[0] = k0
    ts = t + np.multiply.outer(characteristics._C, h)
    for i in range(1, 6):
        field(ts[i], y + h * np.add.reduce(_REF_STAGE_WEIGHTS[i] * ks[:i]), ks[i])
    step, diff = h * np.add.reduce(_REF_B5_E * ks, axis=1)
    y5 = y + step
    err = np.max(np.abs(diff) / (tol * (1.0 + np.abs(y5))), axis=0)
    scale = np.minimum(5.0, np.fmax(0.2, 0.9 * np.float_power(err + 1e-300, -0.2)))
    return y5, scale, err <= 1.0


def _x_field(spec):
    """The traced g's field in x on a (u, p, g) state."""
    def field(x, y, k=None):
        u, p = y[0], y[1]
        k = np.empty(y.shape) if k is None else k
        d = spec.diffusion_coeff(x, u, p)
        k[0] = p
        np.divide(spec.reaction(x, u, p), d, out=k[1])
        np.divide(characteristics._g_rate(spec, x, u, p), d, out=k[2])
        return k
    return field


def _tau_field(spec):
    """The tau engine's field on an (x, u, p, g) state."""
    def field(tau, y, k=None):
        x, u, p = y[0], y[1], y[2]
        k = np.empty(y.shape) if k is None else k
        k[0] = spec.diffusion_coeff(x, u, p)
        np.multiply(k[0], p, out=k[1])
        k[2] = spec.reaction(x, u, p)
        k[3] = characteristics._g_rate(spec, x, u, p)
        return k
    return field


def _assert_same_pass(field, t, y, h, tol=CharControls.tol):
    with np.errstate(all="ignore"):
        k0 = field(t, y)
        want = _reference_cash_karp(field, t, y, k0.copy(), h, tol)
        got = characteristics._cash_karp(field, t, y, k0.copy(), h, tol)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    return got


@pytest.mark.parametrize("descriptor", [
    {"model": "heat"}, _RHO_3_1, {"model": "porous_medium", "m": 2.0}, {"model": "inverse_mcf"},
], ids=["heat", "rho_laplacian_poly-3-1", "porous_medium-2", "inverse_mcf"])
@pytest.mark.parametrize("n", [1, 7, 7680])
def test_the_pass_has_the_bits_of_the_reference_pass(descriptor, n):
    # Seeded (u, p, g) states stepped toward x = 0 by a random part of the
    # way: some attempts are accepted and some rejected.  On heat every R
    # and g rate is a signed zero, and a g of -0.0 keeps the sign of what is
    # added to it, so a sum that starts from its first product, not from
    # +0.0, changes the bits.
    rng = np.random.default_rng(n)
    t = rng.uniform(0.0, 1.0, n)
    y = np.stack([rng.uniform(0.0, 1.5, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)])
    y[2, ::3], y[2, 1::3] = -0.0, 0.0
    _, _, ok = _assert_same_pass(_x_field(models.from_descriptor(descriptor)), t, y,
                                 -t * rng.uniform(0.0, 1.0, n))
    if n == 7680 and descriptor != {"model": "heat"}:
        assert ok.any() and not ok.all()


def test_the_pass_has_the_bits_of_the_reference_pass_on_a_tau_column():
    # The tau engine's (4, 1) column, stepped with a Python float.
    spec = models.from_descriptor(_RHO_3_1)
    for h in (0.05, -0.3, 2.0):
        _assert_same_pass(_tau_field(spec), 0.25, np.array([[0.4], [0.7], [-0.8], [0.1]]), h)


@pytest.mark.parametrize("stage", [1, 4])
def test_an_infinite_zero_weight_stage_rejects_the_step_as_in_the_reference(stage):
    # _B5 weights stages 1 and 4 by zero.  An infinite k at that stage, on
    # every other curve, still makes their error nan and rejects their step.
    base = _x_field(models.from_descriptor({"model": "heat"}))
    rng = np.random.default_rng(7)
    t = rng.uniform(0.1, 1.0, 8)
    y = np.stack([rng.uniform(0.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8), np.zeros(8)])
    # The stage's x is t + c h, a value no other stage of a curve takes.
    stage_x = t + characteristics._C[stage] * -t
    even = np.arange(8) % 2 == 0

    def field(x, y, k=None):
        k = base(x, y, k)
        k[:, (x == stage_x) & even] = np.inf
        return k

    _, _, ok = _assert_same_pass(field, t, y, -t)
    assert ok.tolist() == [False, True] * 4


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


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_tabulated_porous_medium_matches_the_plane_solution(m):
    # D = m u^(m-1) and R = -m(m-1) u^(m-2) p^2: in x, u^(m-1) p is conserved
    # and dg/dx = (m-1) p/u, so u^m falls to u^m (1 - s) on the plane, with
    # s = m p x/u, and g = g0 - ((m-1)/m) log1p(-s).  For s >= 1 the curve
    # meets u = 0 first, so exactly the queries with s < 1 are answered.
    provider = tabulate_g(models.from_descriptor({"model": "porous_medium", "m": m}), g0=0.25)
    rng = np.random.default_rng(4)
    x, u, p = rng.uniform(0.0, 1.0, 400), rng.uniform(0.5, 1.5, 400), rng.uniform(-1.0, 1.0, 400)
    s = m * p * x / u
    got = provider(x, u, p)
    assert np.array_equal(np.isnan(got), s >= 1.0)
    assert provider.extrapolations == np.count_nonzero(s >= 1.0) > 0
    near = s < 0.9
    exact = 0.25 - (m - 1.0) / m * np.log1p(-s[near])
    assert np.all(np.abs(got[near] - exact) <= 3.0 * CharControls.tol * (1.0 + np.abs(exact)))


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
