"""Energy density assembly: repeated integral, base point, boundary terms.

Hand oracles: with weight w(s) = (1+s^2)^(-3/2) the double integral from 0
to 1 is sqrt(2)-1; with w = 2|s| it is 1/3; linear diffusion gives p^2/2.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralyap import models
from paralyap.characteristics import (
    CharacteristicsError,
    GProvider,
    ReducedGError,
    analytic_g,
    reduced_ode_g,
)
from paralyap.energy import energy_trace, verify_decay
from paralyap.lagrangian import (
    LagrangianError,
    build_lagrangian,
    compare_closed_form,
    eval_L,
    eval_Lp,
    eval_Lpp,
    second_difference_lpp,
)
from paralyap.quadrature import integrate_batch
from paralyap.solver import Grid1D, SolverControls, simulate

# The Robin end u_x = b(u) = u.
_ROBIN = {"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}


def _lag(spec, p0=None, **opts):
    return build_lagrangian(spec, analytic_g(spec, p0=p0), **opts)


def test_curvature_weight_double_integral():
    lag = _lag(models.from_descriptor({"model": "mcf_pure"}))
    assert lag.p_base == 0.0
    assert eval_L(lag, 0.0, 0.0, 1.0) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    # d/dp of sqrt(1+p^2) - 1 is p / sqrt(1+p^2)
    assert eval_Lp(lag, 0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert eval_Lpp(lag, 0.0, 0.0, 1.0) == pytest.approx(2.0 ** -1.5, abs=1e-12)


def test_degenerate_weight_double_integral():
    lag = _lag(models.from_descriptor({"model": "rho_laplacian_pure", "rho": 3.0}))
    assert lag.p_base == 0.0
    assert eval_L(lag, 0.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert eval_L(lag, 0.0, 0.0, -1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_linear_diffusion_density_is_quadratic():
    lag = _lag(models.from_descriptor({"model": "heat"}))
    ps = np.array([-2.0, -0.5, 0.0, 1.5])
    vals = eval_L(lag, 0.0, 0.3, ps)
    assert np.max(np.abs(vals - 0.5 * ps * ps)) < 1e-9
    assert lag.weight(0.0, 0.0, 0.7) == pytest.approx(1.0)


def test_singular_weight_picks_a_nonzero_base_point():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    lag = _lag(spec)
    # weight ~ 1/|p| near 0, so integration from 0 would diverge
    assert lag.p_base == 1.0
    assert lag.metadata["p_base_probe"] == "power-law"
    assert lag.base_eff(2.0) == 1.0
    assert lag.base_eff(-2.0) == -1.0
    # L(u, p) = 2u (p log p - p + 1) + terms affine in p
    got = eval_L(lag, 0.0, 0.5, 2.0) - eval_L(lag, 0.0, 0.5, 1.0)
    exact = 2.0 * 0.5 * (2.0 * math.log(2.0) - 2.0 + 1.0) - 2.0 * 0.5 * (0.0 - 1.0 + 1.0)
    # difference of the affine-free parts, plus the affine slack times (2-1)
    slack = eval_Lp(lag, 0.0, 0.5, 1.0) - 2.0 * 0.5 * math.log(1.0)
    assert got == pytest.approx(exact + slack, abs=1e-7)


def test_tiny_gradient_query_on_singular_weight():
    # Exercises the multi-decade quadrature range [1e-12, 1].
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    lag = _lag(spec)
    val = eval_L(lag, 0.0, 0.5, 1e-12)
    # 2u (p log p - p + 1) -> 2u as p -> 0+, and the affine slack vanishes
    # at p = 0 except for its constant part, which is -L at the base point.
    assert math.isfinite(val)


def test_base_point_override_is_recorded():
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    lag = _lag(spec, p_base=2.0)
    assert lag.p_base == 2.0
    assert lag.metadata["p_base_probe"] == "overridden"
    # The probe still runs, and still decides the mask.
    assert lag.singular_weight
    assert lag.metadata["probe_g_slopes"] == pytest.approx([-1.0, -1.0])


def test_a_slowly_varying_weight_is_regular_at_zero():
    # inverse_mcf: g = log((1 + p0^2)/(1 + p^2)) is flat at p = 0, though it falls.
    lag = _lag(models.from_descriptor({"model": "inverse_mcf"}), p0=0.0)
    assert not lag.singular_weight
    assert lag.metadata["probe_g_slopes"] == pytest.approx([-4.3e-7, -4.3e-5], rel=1e-2)
    assert lag.p_base == 0.0


def test_an_off_branch_probe_is_singular():
    # With p0 = -1 the odd exponent's g, log(p0 / p), is nan at every probe point.
    lag = _lag(models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}),
               p0=-1.0)
    assert lag.p_base == 1.0
    assert lag.singular_weight
    assert lag.metadata["p_base_probe"] == "non-finite weight near 0"
    assert all(math.isnan(v) for v in lag.metadata["probe_values"])
    assert "probe_slopes" not in lag.metadata and "probe_g_slopes" not in lag.metadata


def _unit_spec():
    """D = 1 and R = -1: a weight e^g, whatever the provider says."""
    return models.ProblemSpec(
        name="custom", diffusion_coeff=lambda x, u, p: 1.0, reaction=lambda x, u, p: -1.0,
        bc_left=models.BoundaryCondition.dirichlet(), bc_right=models.BoundaryCondition.dirichlet(),
    )


def test_the_probe_counts_a_refused_g_as_not_finite_and_passes_other_errors():
    spec = _unit_spec()

    def refusing(error):
        def g(x, u, p):
            raise error("no g here")
        return GProvider("analytic", 1.0, 0.0, g)

    lag = build_lagrangian(spec, refusing(ReducedGError))
    assert lag.singular_weight and lag.p_base == 1.0
    # The traced g answers an unreached query with nan and raises nothing, so
    # a CharacteristicsError is no refusal: it propagates like any other error.
    for error in (CharacteristicsError, ValueError):
        with pytest.raises(error, match="no g here"):
            build_lagrangian(spec, refusing(error))


@pytest.mark.parametrize("g, what", [
    # nan at every p: the compatibility product has no limit at p_base.
    (lambda x, u, p: np.where(np.asarray(u) > 0.5, np.nan, 0.0), "undefined near"),
    # e^g = 1/|p - 1/2| grows without bound as p approaches p_base = 1/2.
    (lambda x, u, p: -np.log(np.abs(np.asarray(p) - 0.5)), "diverges at"),
], ids=["undefined", "diverges"])
def test_the_compatibility_integrand_names_a_bad_base_point(g, what):
    # At p = p_base the repeated integral is empty, so only l0 integrates.
    spec = _unit_spec()
    with np.errstate(divide="ignore"):
        lag = build_lagrangian(spec, GProvider("analytic", 1.0, 0.0, g), p_base=0.5)
        with pytest.raises(LagrangianError, match=f"compatibility integrand {what} "
                                                  r"p_base=0\.5 at \(x=0\.5, u="):
            eval_L(lag, 0.5, 0.75, 0.5)


def test_robin_end_cancels_the_gradient_slope():
    spec = models.from_descriptor({"model": "heat", "bc": [_ROBIN, "dirichlet"]})
    lag = _lag(spec)
    assert lag.metadata["l1_kind"] == "left"
    # l1(u) = -int_0^u w = -u for the unit weight
    assert lag.l1(0.0, 0.7) == pytest.approx(-0.7, abs=1e-10)
    for u in (-0.8, -0.1, 0.4, 1.0):
        assert abs(eval_Lp(lag, 0.0, u, u)) < 1e-9


def test_two_robin_ends_interpolate_the_boundary_term():
    spec = models.from_descriptor({"model": "heat", "bc": [_ROBIN, _ROBIN]})
    lag = _lag(spec)
    assert lag.metadata["l1_kind"] == "interp"
    assert lag.l1(0.0, 0.5) == pytest.approx(lag.l1(1.0, 0.5), abs=1e-10)
    assert lag.l1(0.25, 0.5) == pytest.approx(-0.5, abs=1e-10)


@pytest.mark.parametrize("both_ends", [False, True])
def test_density_does_not_depend_on_query_history(both_ends):
    spec = models.from_descriptor(
        {"model": "mcf_pure", "bc": [_ROBIN, _ROBIN if both_ends else "dirichlet"]}
    )
    fresh = eval_L(_lag(spec), 0.5, 0.8, 0.7)
    lag = _lag(spec)
    for u in np.random.default_rng(0).uniform(-1.0, 1.0, 200):
        eval_L(lag, 0.5, u, 0.7)
    assert eval_L(lag, 0.5, 0.8, 0.7) == fresh


def test_star_point_term_with_a_robin_end():
    # Unit weight and no reaction: l1 = -u and l1_x = 0, so l0 = 0 and
    # L = p^2/2 - u p, whose Euler-Lagrange residual L_u - L_px - p L_pu
    # is -p + p = 0, as heat needs.
    spec = models.from_descriptor({"model": "heat", "bc": [_ROBIN, "dirichlet"]})
    lag = _lag(spec)
    for u, p in ((0.7, 1.3), (-0.4, 0.2), (0.0, -1.1)):
        exact = 0.5 * p * p - u * p
        assert eval_L(lag, 0.3, u, p) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("p", [-4.2e-319, 5e-324, -0.0])
def test_subnormal_gradient_is_the_zero_gradient(p):
    # The weight ~ 1/|p| overflows below the smallest normal float; such a
    # gradient must give the finite value at p = 0, not a quadrature failure.
    spec = models.from_descriptor({"model": "porous_medium", "m": 2.0})
    lag = _lag(spec)
    for u in (0.0, 0.5):
        assert eval_L(lag, 0.4, u, p) == eval_L(lag, 0.4, u, 0.0)


def test_porous_medium_energy_on_an_exact_free_boundary_wave():
    # For m = 2, u = (c/2)(ct - x)_+ solves u_t = (u^2)_xx: a ramp of slope
    # -c/2 whose front moves at speed c.  A left Robin end b = -c/2 holds it
    # exactly, and the energy must fall at the predicted rate
    # dE/dt = -int exp(g) (D u_xx - R) u_t dx = -(c^4 / 2) t.
    c = 1.0
    robin = {"kind": "robin", "b": {"kind": "constant", "value": -0.5 * c}}
    spec = models.from_descriptor(
        {"model": "porous_medium", "m": 2.0, "bc": [robin, "dirichlet"]}
    )
    lag = _lag(spec)

    def energy(t):
        return integrate_batch(
            lambda i, x: eval_L(lag, x, 0.5 * c * (c * t[i] - x), -0.5 * c),
            0.0, c * t, 1e-9,
        )

    t = np.array([0.3, 0.5, 0.8])
    h = 1e-3
    dEdt = (energy(t + h) - energy(t - h)) / (2.0 * h)
    assert np.max(np.abs(dEdt / (-0.5 * c**4 * t) - 1.0)) < 1e-10


def test_verify_checks_the_exact_free_boundary_wave():
    # The same wave simulated from t = 0.3 to 0.8.  Every node ahead of the
    # front is masked (p = 0 there), but it is at rest, so the masked share
    # of |u_t| stays near 0 and the frames are checked, not skipped.
    c = 1.0
    robin = {"kind": "robin", "b": {"kind": "constant", "value": -0.5 * c}}
    spec = models.from_descriptor(
        {"model": "porous_medium", "m": 2.0, "bc": [robin, "dirichlet"]}
    )
    grid = Grid1D(64)
    u0 = 0.5 * c * np.maximum(c * 0.3 - grid.nodes, 0.0)
    result = simulate(spec, u0, 0.5, grid, SolverControls(output_stride=512))
    trace = energy_trace(_lag(spec), result, grid)
    report = verify_decay(trace)
    assert len(result) == 7
    assert np.max(trace.mask_fraction) < 1e-10
    assert report.checked_frames == 5
    assert report.passed_monotonicity and report.passed_consistency
    assert report.max_consistency_error < 0.005


def test_second_difference_agrees_with_direct_weight():
    spec = models.from_descriptor({"model": "inverse_mcf"})
    lag = build_lagrangian(
        spec, analytic_g(spec, p0=0.0), quad_tol=1e-12
    )
    ps = np.linspace(0.3, 2.0, 5)
    second = second_difference_lpp(lag, 0.0, 0.5, ps)
    direct = eval_Lpp(lag, 0.0, 0.5, ps)
    assert np.max(np.abs(second - direct)) < 1e-6
    # with the canonical seed the weight is exactly (1+p^2)^(-1)
    assert np.max(np.abs(direct - 1.0 / (1.0 + ps * ps))) < 1e-12


def test_comparison_passes_for_shipped_oracle():
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    lag = build_lagrangian(spec, reduced_ode_g(spec), quad_tol=1e-10)
    out = compare_closed_form(lag, np.linspace(0.25, 1.0, 4), np.linspace(0.2, 2.0, 6))
    assert out["oracle"] == "closed_form"
    assert out["max_residual"] < 1e-6


def test_comparison_reports_a_disabled_oracle():
    spec = models.from_descriptor({"model": "mcf_poly", "n": 1.0})
    lag = _lag(spec)
    out = compare_closed_form(lag, [0.5], [1.0])
    assert out["oracle"] is None
    assert "oracle disabled" in out["note"]


def test_comparison_surfaces_the_documented_variant():
    spec = models.from_descriptor({"model": "inverse_mcf"})
    lag = build_lagrangian(spec, analytic_g(spec, p0=0.0))
    out = compare_closed_form(
        lag, np.linspace(0.25, 1.0, 3), np.linspace(0.25, 2.0, 8)
    )
    assert out["max_residual"] < 1e-6
    doc = out["documented"]
    assert doc["discrepancy_detected"]
    assert doc["max_residual"] > 1e-3
    assert "coefficient" in doc["note"]


def test_providers_default_to_the_canonical_p0():
    # inverse_mcf's weight (1 + p0^2) / (1 + p^2) carries unit constant at
    # p0 = 0, so a provider built without p0 lines up with the closed form.
    spec = models.from_descriptor({"model": "inverse_mcf"})
    assert analytic_g(spec).p0 == reduced_ode_g(spec).p0 == 0.0
    lag = build_lagrangian(spec, analytic_g(spec))
    out = compare_closed_form(lag, np.linspace(0.25, 1.0, 12), np.linspace(0.25, 2.0, 24))
    assert out["max_residual"] <= 1e-12
    # A spec that ships no closed forms is normalized at p0 = 1.
    bare = dataclasses.replace(spec, closed_forms=None)
    assert reduced_ode_g(bare).p0 == 1.0


def test_eval_broadcasting():
    lag = _lag(models.from_descriptor({"model": "heat"}))
    grid = eval_L(lag, 0.0, np.zeros((2, 3)), np.ones((2, 3)))
    assert grid.shape == (2, 3)
    assert np.allclose(grid, 0.5)
    assert isinstance(eval_L(lag, 0.0, 0.0, 1.0), float)


@pytest.mark.parametrize("evaluator, stage", [(eval_L, "L"), (eval_Lp, "L_p")])
def test_quadrature_failure_names_the_stage_and_the_point(evaluator, stage):
    # The odd reaction exponent puts p < 0 off the branch: g, and so the
    # weight, is nan there.  The first point is fine and must not be named.
    spec = models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    lag = _lag(spec)
    with pytest.raises(LagrangianError) as info:
        evaluator(lag, [0.1, 0.5], 0.5, [0.7, -0.5])
    assert str(info.value).startswith(
        f"quadrature failed at {stage}(x=0.5, u=0.5, p=-0.5): "
    )


# (spec, options, u range, p range); each p range stays on the model's branch.
_PROPERTY_CASES = {
    "rho_poly": (
        models.from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}),
        {}, (0.25, 1.0), (0.05, 2.0),
    ),
    "porous_medium": (
        models.from_descriptor({"model": "porous_medium", "m": 2.0}),
        {}, (0.25, 1.0), (0.05, 2.0),
    ),
    "heat_robin_left": (
        models.from_descriptor({"model": "heat", "bc": [_ROBIN, "dirichlet"]}),
        {}, (-1.0, 1.0), (-2.0, 2.0),
    ),
    "heat_robin_right": (
        models.from_descriptor({"model": "heat", "bc": ["dirichlet", _ROBIN]}),
        {}, (-1.0, 1.0), (-2.0, 2.0),
    ),
    "mcf_robin_both": (
        models.from_descriptor({"model": "mcf_pure", "bc": [_ROBIN, _ROBIN]}),
        {}, (-1.0, 1.0), (-2.0, 2.0),
    ),
}


def _queries(case, size):
    _, _, (u_lo, u_hi), (p_lo, p_hi) = _PROPERTY_CASES[case]
    point = st.tuples(
        st.floats(0.0, 1.0), st.floats(u_lo, u_hi), st.floats(p_lo, p_hi)
    )
    return st.lists(point, min_size=1, max_size=size)


@pytest.mark.parametrize("case", sorted(_PROPERTY_CASES))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_batched_density_equals_pointwise(case, data):
    spec, opts, _, _ = _PROPERTY_CASES[case]
    lag = _lag(spec, **opts)
    x, u, p = (np.array(v) for v in zip(*data.draw(_queries(case, 6))))
    batch_L = eval_L(lag, x, u, p)
    batch_Lp = eval_Lp(lag, x, u, p)
    for i in range(len(x)):
        assert batch_L[i] == eval_L(lag, x[i], u[i], p[i])
        assert batch_Lp[i] == eval_Lp(lag, x[i], u[i], p[i])


@pytest.mark.parametrize("desc, p_range", [
    ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, (0.05, 2.0)),
    ({"model": "porous_medium", "m": 2.0}, (0.3, 2.0)),
    ({"model": "mcf_pure"}, (-2.0, 2.0)),
    ({"model": "inverse_mcf"}, (-2.0, 2.0)),
])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_second_difference_matches_the_weight(desc, p_range, data):
    spec = models.from_descriptor(desc)
    lag = build_lagrangian(spec, analytic_g(spec), quad_tol=1e-12)
    x = data.draw(st.floats(0.0, 1.0))
    u = data.draw(st.floats(0.25, 1.0))
    p = data.draw(st.floats(*p_range))
    direct = eval_Lpp(lag, x, u, p)
    assert second_difference_lpp(lag, x, u, p) == pytest.approx(direct, abs=1e-6 * (1.0 + direct))


@pytest.mark.parametrize("case", ["heat_robin_left", "heat_robin_right", "mcf_robin_both"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(u=st.floats(-1.0, 1.0))
def test_flux_vanishes_on_the_robin_manifold(case, u):
    spec, opts, _, _ = _PROPERTY_CASES[case]
    lag = _lag(spec, **opts)
    ends = [x for x, bc in ((0.0, spec.bc_left), (1.0, spec.bc_right)) if bc.kind == "robin"]
    for x_end in ends:
        assert abs(eval_Lp(lag, x_end, u, u)) < 1e-12


_POSITIVE = ((0.25, 1.0), (0.05, 2.0))
# Every builtin family with (u range, p range) on its valid gradient branch:
# the singular weights and the odd reaction exponent need p > 0.
_FAMILIES = {
    "heat": ({"model": "heat"}, ((-1.0, 1.0), (-2.0, 2.0))),
    "rho_poly": ({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}, _POSITIVE),
    "mcf_poly": ({"model": "mcf_poly", "n": 1.0}, _POSITIVE),
    "inverse_mcf": ({"model": "inverse_mcf"}, ((-1.0, 1.0), (-1.5, 1.5))),
    "porous_medium": ({"model": "porous_medium", "m": 2.0}, _POSITIVE),
    "rho_pure": ({"model": "rho_laplacian_pure", "rho": 3.0}, ((-1.0, 1.0), (-2.0, 2.0))),
    "mcf_pure": ({"model": "mcf_pure"}, ((-1.0, 1.0), (-2.0, 2.0))),
    "quasilinear": (
        {"model": "quasilinear_gradient", "a": {"kind": "mcf"},
         "h": {"kind": "linear", "slope": 1.0}},
        ((-1.0, 1.0), (-2.0, 2.0)),
    ),
    "filtration": ({"model": "filtration", "a": {"kind": "power", "exponent": 2.0}}, _POSITIVE),
}
_SLOPES = {
    "constant": {"kind": "constant", "value": 0.5},
    "linear": {"kind": "linear", "slope": 1.0},
}


@pytest.mark.parametrize("slope", sorted(_SLOPES))
@pytest.mark.parametrize("ends", ["left", "right", "both"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_euler_lagrange_identity_with_robin_ends(family, ends, slope):
    # L_u - L_px - p L_pu = exp(g) * reaction is what makes E decay along
    # solutions; the Robin term l1 and the compatibility part l0 must keep
    # it.  Central differences on 50 random points, all in one batch.
    desc, (u_box, p_box) = _FAMILIES[family]
    robin = {"kind": "robin", "b": _SLOPES[slope]}
    bc = [robin if ends in (side, "both") else "dirichlet" for side in ("left", "right")]
    spec = models.from_descriptor({**desc, "bc": bc})
    lag = _lag(spec)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, 50)
    u = rng.uniform(*u_box, 50)
    p = rng.uniform(*p_box, 50)
    h = 1e-5
    hu = h * (1.0 + np.abs(u))
    sign = np.array([[1.0], [-1.0]])
    zero = np.zeros((2, 1))
    L = eval_L(lag, x, u + sign * hu, p)
    Lp = eval_Lp(lag, x + np.vstack([sign, zero]) * h, u + np.vstack([zero, sign]) * hu, p)
    L_u = (L[0] - L[1]) / (2.0 * hu)
    L_px = (Lp[0] - Lp[1]) / (2.0 * h)
    L_pu = (Lp[2] - Lp[3]) / (2.0 * hu)
    weighted = np.exp(lag.g_provider(x, u, p)) * spec.reaction(x, u, p)
    assert np.max(np.abs(L_u - L_px - p * L_pu - weighted)) < 1e-9
