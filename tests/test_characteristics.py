"""Curve integration and the three g representations.

The oracle curves are solvable by hand: linear diffusion gives straight
lines, the inverse curvature model gives p = -tan(tau), and polynomial
reactions give exact logarithms for g.
"""

import json
import math

import numpy as np
import pytest

from paralyap import models
from paralyap.characteristics import (
    CharacteristicsError,
    CharControls,
    GProvider,
    ReducedGError,
    SeedGrid,
    Termination,
    analytic_g,
    integrate_characteristics,
    provider_snapshot_json,
    reduced_g,
    reduced_ode_g,
    tabulate_g,
    trajectory_csv,
)
from paralyap.models import BoundaryCondition, ProblemSpec


def _custom_spec(diffusion, reaction, reaction_dp):
    zero3 = lambda x, u, p: 0.0
    return ProblemSpec(
        name="custom",
        diffusion_coeff=diffusion,
        diffusion_coeff_dx=zero3,
        diffusion_coeff_du=zero3,
        reaction=reaction,
        reaction_dp=reaction_dp,
        rhs=lambda x, u, p, q: diffusion(x, u, p) * q - reaction(x, u, p),
        f1_weight=lambda x, u, p, q, ut: ut,
        bc_left=BoundaryCondition.dirichlet(),
        bc_right=BoundaryCondition.dirichlet(),
    )


def test_linear_diffusion_curves_are_straight_lines():
    spec = models.heat_equation()
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
    spec = models.heat_equation()
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
    spec = models.heat_equation()
    controls = CharControls(x_end=None, tau_max=0.5, dt_max=0.01)
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0}, controls)
    taus = [s.tau for s in traj.states]
    steps = np.diff(taus)
    assert float(np.max(steps)) <= 0.01 + 1e-12
    assert len(taus) >= 50


def test_trajectory_csv_shape():
    spec = models.heat_equation()
    traj = integrate_characteristics(spec, {"u0": 0.0, "p0": 1.0})
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "tau,x,u,p,g"
    assert len(lines) == len(traj.states) + 1


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
    spec = models.heat_equation()
    out = reduced_g(spec, np.array([-1.0, 0.0, 2.0]), p0=1.0, g0=0.25)
    assert np.allclose(out, 0.25)


def test_reduced_rest_point_query_yields_nan():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    out = reduced_g(spec, np.array([0.0, 0.5, 1.0]), p0=1.0)
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(math.log(2.0), abs=1e-10)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_reduced_seed_at_rest_point_raises():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    with pytest.raises(ReducedGError):
        reduced_g(spec, 0.5, p0=0.0)


def test_reduced_crossing_a_rest_point_raises():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    with pytest.raises(ReducedGError):
        reduced_g(spec, -0.5, p0=1.0)


def test_reduced_requires_the_structure_flag():
    spec = models.from_descriptor({"model": "porous_medium", "m": 1.0})
    assert not spec.structure_flags.shared_factor_reducible
    with pytest.raises(ReducedGError):
        reduced_g(spec, 0.5)


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
    spec = models.heat_equation()
    grid = SeedGrid(tuple(np.linspace(-1.0, 1.0, 5)), tuple(np.linspace(-1.0, 1.0, 5)))
    provider = tabulate_g(spec, grid, query_box=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    assert provider.variant == "tabulated"
    assert provider.coverage is not None and provider.coverage > 0.9
    assert not provider.low_coverage
    # g vanishes identically on every curve of this model
    assert abs(float(provider(0.5, 0.2, -0.4))) < 1e-9
    # an exact sample point reproduces its stored value
    samples = provider.snapshot["samples"]
    x0, u0, p0, g0 = (samples[k][10] for k in ("x", "u", "p", "g"))
    assert float(provider(x0, u0, p0)) == pytest.approx(g0, abs=1e-12)


def test_tabulated_far_query_counts_as_extrapolation():
    spec = models.heat_equation()
    grid = SeedGrid((0.0,), (0.5,))
    provider = tabulate_g(spec, grid, query_box=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    assert provider.low_coverage
    before = provider.extrapolations
    provider(0.5, 0.9, 5.0)
    assert provider.extrapolations == before + 1


def test_tabulated_tracks_a_varying_weight():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    grid = SeedGrid(tuple(np.linspace(-1.0, 1.0, 9)), tuple(np.linspace(0.4, 1.6, 13)))
    provider = tabulate_g(
        spec, grid, query_box=((0.0, 1.0), (-1.0, 1.0), (0.5, 1.5))
    )
    exact = float(spec.closed_forms.g_of_p(0.8, 1.0, 0.0))
    assert float(provider(0.5, 0.0, 0.8)) == pytest.approx(exact, abs=0.05)


def test_snapshot_json_round_trip():
    spec = models.heat_equation()
    grid = SeedGrid((0.0, 1.0), (0.5, 1.0))
    provider = tabulate_g(spec, grid)
    payload = json.loads(provider_snapshot_json(provider))
    assert payload["variant"] == "tabulated"
    assert payload["n_samples"] == len(payload["samples"]["g"])
    assert set(payload["samples"]) == {"x", "u", "p", "g"}


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
