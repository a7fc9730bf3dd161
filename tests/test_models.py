"""Model catalogue: evaluator algebra, contracts, descriptor round trips.

Expected values are computed by hand from each model's defining formula, so
the catalogue code cannot agree with this file by accident.
"""

import dataclasses
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from paralyap import models
from paralyap.models import BoundaryCondition, ProblemSpec, from_descriptor

# A sampling box: the range of each of x, u, p and q.
_Box = namedtuple("_Box", "x u p q", defaults=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)))


def _roster():
    """Every builtin, and one hand-built spec, with a box where its evaluators are regular."""
    return [
        (from_descriptor({"model": "heat"}), _Box()),
        (from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0}), _Box()),
        (from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0}), _Box()),
        (from_descriptor({"model": "mcf_poly", "n": 1.0}), _Box()),
        (from_descriptor({"model": "mcf_poly", "n": 2.0}), _Box()),
        (from_descriptor({"model": "inverse_mcf"}), _Box()),
        (from_descriptor({"model": "porous_medium", "m": 2.0}), _Box(u=(0.2, 1.0))),
        (from_descriptor({"model": "rho_laplacian_pure", "rho": 3.0}), _Box()),
        (from_descriptor({"model": "mcf_pure"}), _Box()),
        (
            from_descriptor({"model": "quasilinear_gradient",
                             "a": {"kind": "mcf"}, "h": {"kind": "linear", "slope": -1.0}}),
            _Box(),
        ),
        (
            from_descriptor({"model": "filtration", "a": {"kind": "power", "exponent": 3.0}}),
            _Box(u=(0.2, 1.0)),
        ),
        # Branches whose callbacks return constants or depend on fewer
        # arguments than the evaluator takes.
        (from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 0.0}), _Box()),
        (from_descriptor({"model": "mcf_poly", "n": 0.0}), _Box()),
        (from_descriptor({"model": "porous_medium", "m": 1.0}), _Box(u=(0.2, 1.0))),
        (
            from_descriptor({"model": "filtration", "a": {"kind": "power", "exponent": 1.0}}),
            _Box(),
        ),
        (
            from_descriptor({"model": "quasilinear_gradient", "a": {"kind": "constant", "value": 2.0},
                             "h": {"kind": "constant", "value": 0.5}}),
            _Box(),
        ),
        (
            from_descriptor({"model": "heat", "bc": [
                {"kind": "robin", "b": {"kind": "constant", "value": 0.5}}, "dirichlet"]}),
            _Box(),
        ),
        # Built by hand from the required fields alone: the derivative hooks
        # and rhs are the spec's defaults, and D and R are constants.
        (
            ProblemSpec(name="hand_built", diffusion_coeff=lambda x, u, p: 1.0,
                        reaction=lambda x, u, p: -0.5, bc_left=BoundaryCondition.dirichlet(),
                        bc_right=BoundaryCondition.dirichlet()),
            _Box(),
        ),
    ]


def _contract_failures(spec, box, n=500, seed=3):
    """The pointwise contracts that fail at n uniform samples of ``box``, by name.

    f1 = D q - R is the weight that the decay formula multiplies by u_t, so
    ``rhs`` must have its sign, and vanish only where it does.
    """
    rng = np.random.default_rng(seed)
    x, u, p, q = (rng.uniform(*r, n) for r in box)
    with np.errstate(all="ignore"):
        D, R = spec.diffusion_coeff(x, u, p), spec.reaction(x, u, p)
        ut = spec.rhs(x, u, p, q)
    f1 = D * q - R
    checks = {
        "finite": np.all(np.isfinite([D, R, ut])),
        "diffusion_nonnegative": np.all(D >= -1e-12) and np.max(np.abs(D)) > 1e-14,
        "f1_sign": np.all(f1 * ut >= -1e-10 * (1.0 + ut * ut)),
        "f1_strict": not np.any((np.abs(f1) <= 1e-12 * (1.0 + np.abs(ut)))
                                       & (np.abs(ut) > 1e-6)),
    }
    return [name for name, ok in checks.items() if not ok]


def test_every_builtin_satisfies_the_pointwise_contracts():
    for spec, box in _roster():
        assert _contract_failures(spec, box) == [], spec.name


def test_rho_poly_evaluators():
    spec = from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    # diffusion (rho-1)|p|^(rho-2) = 2|p|; reaction carries -u_x^n moved left.
    assert spec.diffusion_coeff(0.3, 0.5, -2.0) == pytest.approx(4.0)
    assert spec.reaction(0.0, 0.0, 0.7) == pytest.approx(-0.7)
    # resolved evolution: ut = 2|p| q + p^n
    assert spec.rhs(0.0, 0.0, -2.0, 1.5) == pytest.approx(4.0 * 1.5 - 2.0)


def test_inverse_curvature_evaluators():
    spec = from_descriptor({"model": "inverse_mcf"})
    # ut = (1+p^2)^2 / (1+p^2-q): at p=1, q=0.5 that is 4 / 1.5.
    assert spec.rhs(0.0, 0.0, 1.0, 0.5) == pytest.approx(4.0 / 1.5)
    assert spec.diffusion_coeff(0.0, 0.0, 1.0) == pytest.approx(1.0)
    assert spec.reaction(0.0, 0.0, 1.0) == pytest.approx(-2.0)
    # the decay weight is D q - R = q + (1 + p^2) = 2.5, and ut exceeds it by
    # q^2 / (1 + p^2 - q): the two share their sign, not their value
    D, R = spec.diffusion_coeff(0.0, 0.0, 1.0), spec.reaction(0.0, 0.0, 1.0)
    assert D * 0.5 - R == pytest.approx(2.5)
    assert spec.rhs(0.0, 0.0, 1.0, 0.5) - (D * 0.5 - R) == pytest.approx(0.25 / 1.5)


def test_porous_medium_evaluators():
    spec = from_descriptor({"model": "porous_medium", "m": 2.0})
    # (u^2)_xx = 2u u_xx + 2 u_x^2
    assert spec.diffusion_coeff(0.0, 0.5, 0.0) == pytest.approx(1.0)
    assert spec.reaction(0.0, 0.5, 3.0) == pytest.approx(-2.0 * 9.0)
    assert spec.rhs(0.0, 0.5, 3.0, 0.25) == pytest.approx(1.0 * 0.25 + 18.0)
    assert spec.divergence_form_m == 2.0


@pytest.mark.parametrize("descriptor, m", [
    ({"model": "porous_medium", "m": 1.0}, 1.0),
    ({"model": "porous_medium", "m": 2.0}, 2.0),
    ({"model": "filtration"}, None),
    ({"model": "heat"}, None),
], ids=["porous_medium-m1", "porous_medium-m2", "filtration", "heat"])
def test_only_the_porous_medium_is_advanced_in_divergence_form(descriptor, m):
    spec = from_descriptor(descriptor)
    assert spec.name == descriptor["model"]
    assert spec.divergence_form_m == m


def test_shipped_gradient_weights():
    rho = from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    # g = -n log(p/p0): at p = 0.5, p0 = 1 that is 2 log 2.
    assert rho.closed_forms.g_of_p(0.5, 1.0, 0.0) == pytest.approx(2.0 * math.log(2.0))

    pme = from_descriptor({"model": "porous_medium", "m": 2.0})
    assert pme.closed_forms.g_of_p(0.25, 1.0, 0.0) == pytest.approx(math.log(4.0))

    imcf = from_descriptor({"model": "inverse_mcf"})
    assert imcf.closed_forms.g_of_p(1.0, 0.0, 0.0) == pytest.approx(math.log(0.5))
    # this is the one builtin whose unit-constant normalization sits at 0
    assert imcf.closed_forms.canonical_p0 == 0.0
    assert rho.closed_forms.canonical_p0 == 1.0


def test_closed_form_density_values():
    rho = from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0})
    # (rho-1)/((rho-n)(rho-n-1)) |p|^(rho-n) - u = |p|^2 - u
    assert rho.closed_forms.lagrangian(0.25, -2.0) == pytest.approx(4.0 - 0.25)

    pure = models.from_descriptor({"model": "rho_laplacian_pure", "rho": 3.0})
    assert pure.closed_forms.lagrangian(0.7, 1.0) == pytest.approx(1.0 / 3.0)

    mcf = models.from_descriptor({"model": "mcf_pure"})
    assert mcf.closed_forms.lagrangian(0.0, 1.0) == pytest.approx(math.sqrt(2.0))


def test_degenerate_reaction_exponent_disables_the_oracle():
    # n = rho - 1 makes the closed-form coefficient singular.
    spec = from_descriptor({"model": "rho_laplacian_poly", "rho": 3.0, "n": 2.0})
    assert spec.closed_forms.lagrangian is None
    assert "singular" in spec.closed_forms.lagrangian_note

    mcf1 = from_descriptor({"model": "mcf_poly", "n": 1.0})
    assert mcf1.closed_forms.lagrangian is None


def test_constructor_guards():
    # Every descriptor number is finite and in its family's range, or the
    # build stops with a message that names it.
    cases = [
        # Out of the family's range.
        ({"model": "rho_laplacian_poly", "rho": 1.5, "n": 1.0}, "rho must be >= 2"),
        ({"model": "rho_laplacian_poly", "rho": 3.0, "n": -1.0}, "n must be >= 0"),
        ({"model": "mcf_poly", "n": -1.0}, "n must be >= 0"),
        ({"model": "porous_medium", "m": 0.5}, "m must be >= 1"),
        ({"model": "rho_laplacian_pure", "rho": 1.0}, "rho must be >= 2"),
        ({"model": "filtration", "a": {"kind": "power", "exponent": -1.0}}, "exponent must be > 0"),
        ({"model": "filtration", "a": {"kind": "power", "exponent": 0.0}}, "exponent must be > 0"),
        # Not finite, missing, or not a number at all.
        ({"model": "rho_laplacian_poly", "rho": "nan", "n": 1.0}, "rho must be a finite number"),
        ({"model": "rho_laplacian_poly", "rho": 3.0, "n": math.nan}, "n must be a finite number"),
        ({"model": "mcf_poly", "n": "inf"}, "n must be a finite number"),
        ({"model": "porous_medium", "m": "nan"}, "m must be a finite number"),
        ({"model": "porous_medium", "m": math.inf}, "m must be a finite number"),
        ({"model": "porous_medium"}, "m must be a finite number"),
        ({"model": "porous_medium", "m": 10**400}, "m must be a finite number"),
        ({"model": "quasilinear_gradient", "a": {"kind": "power_abs", "exponent": "nan"}},
         "exponent must be a finite number"),
        ({"model": "quasilinear_gradient", "h": {"kind": "linear", "slope": [1.0]}},
         "slope must be a finite number"),
        ({"model": "heat", "bc": [{"kind": "robin", "b": {"kind": "constant", "value": "inf"}},
                                  "dirichlet"]}, "value must be a finite number"),
    ]
    for descriptor, message in cases:
        with pytest.raises(ValueError, match=message):
            from_descriptor(descriptor)


def test_boundary_condition_builders():
    d = BoundaryCondition.dirichlet()
    assert d.kind == "dirichlet"
    n = BoundaryCondition.neumann()
    assert n.kind == "robin" and n.robin_b(0.7) == 0.0
    r = BoundaryCondition.robin(lambda u: 2.0 * u)
    assert r.kind == "robin" and r.robin_b(0.5) == 1.0


def test_descriptor_boundary_conditions():
    spec = from_descriptor({
        "model": "heat",
        "bc": [{"kind": "robin", "b": {"kind": "linear", "slope": 2.0}}, "dirichlet"],
    })
    assert spec.bc_left.kind == "robin"
    assert spec.bc_left.robin_b(0.5) == pytest.approx(1.0)
    assert spec.bc_right.kind == "dirichlet"


def test_descriptor_errors():
    with pytest.raises(ValueError):
        from_descriptor({"model": "no_such_model"})
    with pytest.raises(ValueError):
        from_descriptor({"rho": 3.0})
    with pytest.raises(ValueError):
        from_descriptor({"model": "heat", "bc": ["dirichlet"]})
    with pytest.raises(ValueError):
        from_descriptor({"model": "heat", "bc": ["dirichlet", "free"]})
    with pytest.raises(ValueError):
        from_descriptor({"model": "quasilinear_gradient", "a": {"kind": "no_such"}})
    # Names that are not strings, and Robin slopes that are not objects.
    with pytest.raises(ValueError, match="unknown model"):
        from_descriptor({"model": ["heat"]})
    for b in (1.0, "zero", {"value": 1.0}, {"kind": ["zero"]}):
        with pytest.raises(ValueError, match="robin slope"):
            from_descriptor({"model": "heat", "bc": [{"kind": "robin", "b": b}, "dirichlet"]})
    # A JSON boolean is not the number 1.
    with pytest.raises(ValueError, match="m must be a finite number, got True"):
        from_descriptor({"model": "porous_medium", "m": True})
    with pytest.raises(ValueError, match="slope must be a finite number, got True"):
        from_descriptor({"model": "heat", "bc": [
            {"kind": "robin", "b": {"kind": "linear", "slope": True}}, "dirichlet"]})


@pytest.mark.parametrize("descriptor, message", [
    ({"model": "quasilinear_gradient", "a": {"kind": "constant", "vlaue": 2.0}},
     "unknown settings ['vlaue'] in the diffusion descriptor"),
    ({"model": "heat", "bc": [{"kind": "robin", "b": {"kind": "linear", "slop": 3.0}},
                              "dirichlet"]},
     "unknown settings ['slop'] in the robin slope descriptor"),
    ({"model": "heat", "bc": [{"kind": "robin", "slope": 3.0}, "dirichlet"]},
     "unknown settings ['slope'] in the boundary condition descriptor"),
    ({"model": "rho_laplacian_poly", "rho": 3, "n": 1, "m": 2},
     "unknown settings ['m'] in the model descriptor"),
    ({"model": "filtration", "a": {"kind": "superslow", "exponent": 2.0}},
     "unknown settings ['exponent'] in the filtration descriptor"),
])
def test_descriptor_keys_that_nothing_reads_are_refused(descriptor, message):
    with pytest.raises(ValueError) as info:
        from_descriptor(descriptor)
    assert str(info.value) == message


def test_the_contract_checks_reject_a_broken_model():
    good = from_descriptor({"model": "heat"})
    # Reverse the evolution so that it runs against the decay weight.
    import dataclasses
    bad = dataclasses.replace(good, rhs=lambda x, u, p, q: -(good.diffusion_coeff(x, u, p) * q
                                                             - good.reaction(x, u, p)))
    assert _contract_failures(bad, _Box()) == ["f1_sign"]


def test_filtration_derivative_fallback():
    # Only a itself supplied: derivatives come from central differences.
    filt = models.Filtration(a=lambda u: np.asarray(u, dtype=float) ** 3)
    spec = from_descriptor({"model": "filtration", "a": filt})
    assert spec.diffusion_coeff(0.0, 0.5, 0.0) == pytest.approx(3.0 * 0.25, rel=1e-5)
    assert spec.diffusion_coeff_du(0.0, 0.5, 0.0) == pytest.approx(3.0, rel=1e-3)


def test_superslow_filtration_ships_closed_form_derivatives():
    # a = exp(-1/u): a' = exp(-1/u)/u**2 and a'' = exp(-1/u)(1 - 2u)/u**4,
    # which at u = 1/4 are 16 e**-4 and 128 e**-4.
    spec = from_descriptor({"model": "filtration", "a": {"kind": "superslow"}})
    e4 = math.exp(-4.0)
    assert spec.diffusion_coeff(0.0, 0.25, 0.0) == pytest.approx(16.0 * e4, rel=1e-12)
    assert spec.diffusion_coeff_du(0.0, 0.25, 0.0) == pytest.approx(128.0 * e4, rel=1e-12)
    assert spec.diffusion_coeff(0.0, -0.5, 0.0) == 0.0
    assert spec.diffusion_coeff_du(0.0, 1e-100, 0.0) == 0.0  # not 0 * inf


@pytest.mark.parametrize("u", [0.1, 0.5, 1.3])
def test_filtration_second_derivative_fallback(u):
    # Only a = exp supplied: a'' = e**u comes from one second difference.
    spec = from_descriptor({"model": "filtration", "a": models.Filtration(a=np.exp)})
    assert spec.diffusion_coeff_du(0.0, u, 0.0) == pytest.approx(math.exp(u), rel=1e-7)


def _central(f, args, k, h=1e-5):
    step = h * (1.0 + np.abs(args[k]))
    hi, lo = list(args), list(args)
    hi[k] = args[k] + step
    lo[k] = args[k] - step
    return (f(*hi) - f(*lo)) / (2.0 * step)


@pytest.mark.parametrize("index", range(len(_roster())))
def test_derivative_hooks_match_central_differences(index):
    spec, box = _roster()[index]
    rng = np.random.default_rng(index)
    xs = rng.uniform(*box.x, 200)
    us = rng.uniform(*box.u, 200)
    ps = rng.uniform(*box.p, 200)
    # Away from p = 0, where |p|**e and p**n need not be differentiable.
    ps = np.where(np.abs(ps) < 0.05, np.copysign(0.05, ps), ps)
    args = (xs, us, ps)
    for hook, f, k in (
        (spec.diffusion_coeff_dx, spec.diffusion_coeff, 0),
        (spec.diffusion_coeff_du, spec.diffusion_coeff, 1),
        (spec.reaction_dp, spec.reaction, 2),
    ):
        np.testing.assert_allclose(
            hook(*args), _central(f, args, k), rtol=1e-6, atol=1e-6,
            err_msg=f"{spec.name}: {hook.__qualname__}",
        )


@pytest.mark.parametrize("index", range(len(_roster())))
def test_evaluators_return_the_broadcast_shape(index):
    spec, box = _roster()[index]
    mid = [0.5 * (lo + hi) for lo, hi in box]
    column = lambda k: np.linspace(*box[k], 3)
    cases = [((), {})]  # all scalars
    cases += [((3,), {k: column(k)}) for k in range(4)]  # one array
    cases.append(((3, 4), {0: column(0)[:, None], 2: np.linspace(*box.p, 4)}))  # mixed
    for shape, arrays in cases:
        args = [arrays.get(k, mid[k]) for k in range(4)]
        for name, n_args in (
            ("diffusion_coeff", 3), ("diffusion_coeff_dx", 3), ("diffusion_coeff_du", 3),
            ("reaction", 3), ("reaction_dp", 3), ("rhs", 4),
        ):
            if max(arrays, default=-1) >= n_args:
                continue
            out = getattr(spec, name)(*args[:n_args])
            assert np.shape(out) == shape, f"{spec.name}.{name} on {sorted(arrays)}"


@pytest.mark.parametrize("index", range(len(_roster())))
def test_evaluators_return_fresh_arrays(index):
    spec, box = _roster()[index]
    rng = np.random.default_rng(index)
    args = [rng.uniform(*r, 4) for r in box]
    kept = [a.copy() for a in args]
    for name, n_args in (
        ("diffusion_coeff", 3), ("diffusion_coeff_dx", 3), ("diffusion_coeff_du", 3),
        ("reaction", 3), ("reaction_dp", 3), ("rhs", 4),
    ):
        out = getattr(spec, name)(*args[:n_args])
        assert not any(np.shares_memory(out, a) for a in args), f"{spec.name}.{name}"
        out[...] = 7.0
        for a, k in zip(args, kept):
            np.testing.assert_array_equal(a, k, err_msg=f"{spec.name}.{name}")


def test_an_array_of_the_arguments_shape_comes_back_as_the_same_object(monkeypatch):
    # Array arguments of the value's shape: the value is already the
    # broadcast shape, so the layer returns it without a copy.
    value = np.full(5, 2.0)
    spec = ProblemSpec(name="hand_built", diffusion_coeff=lambda x, u, p: value,
                       reaction=lambda x, u, p: 0.0, bc_left=BoundaryCondition.dirichlet(),
                       bc_right=BoundaryCondition.dirichlet())
    x, u, p = (np.linspace(0.0, 1.0, 5) for _ in range(3))
    # A scalar argument takes the broadcast path, which also keeps a value of the right shape.
    assert spec.diffusion_coeff(x, 0.5, p) is value

    # All arguments arrays of the value's shape, as the energy monitor passes
    # them: the value returns before the broadcast shape is computed.
    def no_broadcast(*args):
        raise AssertionError("computed the broadcast shape")

    monkeypatch.setattr(np, "broadcast", no_broadcast)
    assert spec.diffusion_coeff(x, u, p) is value


@pytest.mark.parametrize("index", range(len(_roster())))
def test_each_evaluator_is_one_broadcasting_layer_over_its_callback(index):
    # An untraced spec keeps exactly one wrapper between a caller and the
    # callback, so the solver's kernel and the curve field, which call each
    # ``__wrapped__``, reach the callback itself.  A dataclasses.replace
    # copy reruns __post_init__, which keeps each layer as it is.
    spec, _ = _roster()[index]
    copy = dataclasses.replace(spec, name="copy")
    layer = models._broadcasting(models._zero).__code__
    for name in ("diffusion_coeff", "diffusion_coeff_dx", "diffusion_coeff_du",
                 "reaction", "reaction_dp", "rhs"):
        evaluator = getattr(spec, name)
        assert evaluator.__code__ is layer, f"{spec.name}.{name}"
        assert evaluator.__wrapped__.__code__ is not layer, f"{spec.name}.{name}"
        assert getattr(copy, name) is evaluator, f"{spec.name}.{name}"


@pytest.mark.parametrize("expo", [0, 1, 2, 3.0, 4, 7.0])
def test_real_pow_of_a_nonnegative_integer_is_the_plain_power(expo):
    # No np.errstate is entered here, so the result must also raise no warning.
    base = np.random.default_rng(int(expo)).uniform(-3.0, 3.0, 64)
    base[:4] = [0.0, -0.0, np.inf, np.nan]
    with warnings.catch_warnings(), np.errstate(divide="warn", invalid="warn"):
        warnings.simplefilter("error")
        got = models._real_pow(base, expo)
        assert models._real_pow(-2.0, expo) == (-2.0) ** int(expo)
    assert got.tobytes() == (base ** int(expo)).tobytes()


def test_real_pow_keeps_inf_and_nan_without_a_warning():
    with warnings.catch_warnings(), np.errstate(divide="warn", invalid="warn"):
        warnings.simplefilter("error")
        assert models._real_pow(0.0, -1) == np.inf
        assert models._real_pow(0.0, -1.0) == np.inf
        assert np.isnan(models._real_pow(-1.0, 0.5))
        assert np.isnan(models._real_pow(np.array([-1.0, 4.0]), 0.5)[0])
