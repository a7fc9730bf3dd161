"""Problem contracts and the built-in family of 1-D degenerate parabolic models.

Every equation handled by this package is carried around as a
:class:`ProblemSpec`, a bundle of pure pointwise evaluators:

* ``diffusion_coeff(x, u, p)``: coefficient of the second space derivative,
  measured at zero curvature and zero time derivative.  It must be
  nonnegative and may vanish (that is the degenerate case).
* ``reaction(x, u, p)``: the forcing measured at zero curvature, with the sign
  convention that along solutions
  ``f1_weight(x, u, p, q, ut) == diffusion_coeff * q - reaction``.
* ``rhs(x, u, p, q)``: the resolved time evolution ``ut = G(x, u, p, q)``.
* ``f1_weight(x, u, p, q, ut)``: the part of the equation that carries the
  time derivative.  For quasilinear models it is ``ut`` itself; fully
  nonlinear models contribute extra curvature terms.

Evaluators are pure, broadcast over numpy arrays, and can be shared freely
across threads.  Builtins also ship optional closed-form references
(:class:`ClosedForms`) used by tests and comparison commands; those formulas
drop the free multiplicative normalization constant, which is the same as
fixing the seed values ``p0 = 1`` and ``g0 = 0``.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoundaryCondition",
    "StructureFlags",
    "ClosedForms",
    "ProblemSpec",
    "QuasilinearGradient",
    "RhoLaplacianPoly",
    "McfPoly",
    "InverseMcf",
    "PorousMedium",
    "Filtration",
    "pure_rho_laplacian",
    "pure_mean_curvature",
    "heat_equation",
    "instantiate",
    "from_descriptor",
    "SampleBox",
    "Violation",
    "ValidationReport",
    "validate_spec",
]

_FD_STEP = 1e-6  # relative central-difference step for derivative fallbacks


def _real_pow(base, expo):
    """base**expo that applies integer exponents exactly.

    Integer exponents keep the sign of a negative base; fractional exponents
    of a negative base come out as nan, which downstream samplers report
    instead of crashing.
    """
    e = float(expo)
    with np.errstate(divide="ignore", invalid="ignore"):
        if e.is_integer():
            return np.asarray(base, dtype=float) ** int(e)
        return np.asarray(base, dtype=float) ** e


def _zeros_like(*args):
    out = 0.0
    for a in args:
        out = out + 0.0 * np.asarray(a, dtype=float)
    return out


def _numeric_du(f):
    def df(u):
        h = _FD_STEP * (1.0 + np.abs(u))
        return (f(u + h) - f(u - h)) / (2.0 * h)

    return df


@dataclass(frozen=True)
class BoundaryCondition:
    """One end of the unit interval.

    ``dirichlet`` pins the solution to zero.  ``robin`` prescribes the slope
    through ``u_x = b(u)``; a zero-slope ``b`` is the Neumann condition.
    """

    kind: str
    robin_b: Optional[Callable] = None
    robin_b_du: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and self.robin_b is None:
            raise ValueError("robin boundary needs a slope function b(u)")

    @staticmethod
    def dirichlet():
        return BoundaryCondition("dirichlet")

    @staticmethod
    def robin(b, b_du=None):
        return BoundaryCondition("robin", b, b_du if b_du is not None else _numeric_du(b))

    @staticmethod
    def neumann():
        zero = lambda u: _zeros_like(u)
        return BoundaryCondition("robin", zero, zero)


@dataclass(frozen=True)
class StructureFlags:
    """Structural facts the downstream stages may exploit."""

    shared_factor_reducible: bool = False


@dataclass(frozen=True)
class ClosedForms:
    """Reference formulas shipped with a builtin, normalization dropped.

    ``lagrangian`` is defined up to terms affine in the gradient, which is the
    slack the construction itself leaves free.  ``documented_lagrangian``
    keeps a published variant that disagrees with the direct construction, so
    comparison commands can surface the difference instead of hiding it.
    ``decay_weight`` is w(p) in the model-specific decay -integral of
    w(u_x) * ut**2; it is reported, never asserted.

    ``canonical_p0`` is the seed gradient at which the convexity weight
    carries unit multiplicative constant, so the numeric construction lines
    up with ``lagrangian`` without rescaling.  Most builtins normalize at
    p0 = 1; the inverse curvature model needs p0 = 0, where its weight
    (1+p0^2)/(1+p^2) loses the factor 2.
    """

    g_of_p: Optional[Callable] = None
    lagrangian: Optional[Callable] = None
    lagrangian_note: str = ""
    documented_lagrangian: Optional[Callable] = None
    documented_note: str = ""
    decay_weight: Optional[Callable] = None
    canonical_p0: float = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """A fully resolved model: evaluators, boundary conditions, metadata."""

    name: str
    diffusion_coeff: Callable
    diffusion_coeff_dx: Callable
    diffusion_coeff_du: Callable
    reaction: Callable
    reaction_dp: Callable
    rhs: Callable
    f1_weight: Callable
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    structure_flags: StructureFlags = StructureFlags()
    closed_forms: Optional[ClosedForms] = None
    char_system: Optional[Callable] = None
    singular_gradient_weight: bool = False
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Builtin model family


@dataclass(frozen=True)
class QuasilinearGradient:
    """ut = a(u_x) u_xx + h(u) with a >= 0."""

    a: Callable
    h: Callable
    label: str = "quasilinear_gradient"
    closed_form_lagrangian: Optional[Callable] = None


@dataclass(frozen=True)
class RhoLaplacianPoly:
    """ut = (rho - 1)|u_x|**(rho-2) u_xx + u_x**n, rho >= 2, n >= 0."""

    rho: float
    n: float

    def __post_init__(self):
        if self.rho < 2.0:
            raise ValueError(f"rho must be >= 2, got {self.rho}")
        if self.n < 0.0:
            raise ValueError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class McfPoly:
    """ut = u_xx / (1 + u_x**2)**(3/2) + u_x**n, n >= 0."""

    n: float

    def __post_init__(self):
        if self.n < 0.0:
            raise ValueError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class InverseMcf:
    """ut = (1 + u_x**2)**2 / ((1 + u_x**2) - u_xx).

    Fully nonlinear; the resolved evolution is singular where the curvature
    reaches 1 + u_x**2, so sampling boxes must stay below that threshold.
    """


@dataclass(frozen=True)
class PorousMedium:
    """ut = (u**m)_xx for u >= 0, m >= 1."""

    m: float

    def __post_init__(self):
        if self.m < 1.0:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Filtration:
    """ut = (a(u))_xx with nondecreasing a.

    Derivatives of ``a`` may be supplied; otherwise central differences with a
    relative step of 1e-6 fill them in.  The shipped analytic gradient weight
    assumes ``a`` is not affine; for affine ``a`` use the quasilinear family.
    """

    a: Callable
    a_du: Optional[Callable] = None
    a_du2: Optional[Callable] = None


def _passthrough_ut(x, u, p, q, ut):
    return np.asarray(ut, dtype=float) + _zeros_like(p, q)


def _poly_reaction(n):
    n = float(n)
    if n == 0.0:
        react = lambda x, u, p: -1.0 + _zeros_like(x, u, p)
        react_dp = lambda x, u, p: _zeros_like(x, u, p)
    else:
        react = lambda x, u, p: -_real_pow(p, n) + _zeros_like(x, u)
        react_dp = lambda x, u, p: -n * _real_pow(p, n - 1.0) + _zeros_like(x, u)
    return react, react_dp


def _poly_g_of_p(n):
    n = float(n)
    if n == 0.0:
        return lambda p, p0=1.0, g0=0.0: g0 + _zeros_like(p)
    if n.is_integer() and int(n) % 2 == 0:
        # Even reaction exponent: the weight is even in p, valid on both
        # signs of the gradient.
        return lambda p, p0=1.0, g0=0.0: g0 + n * np.log(np.abs(p0 / np.asarray(p, dtype=float)))

    def g(p, p0=1.0, g0=0.0):
        # Odd or fractional exponent: only gradients with the sign of p0 are
        # reachable; off-branch queries come out nan rather than silently
        # even-extended.
        with np.errstate(divide="ignore", invalid="ignore"):
            return g0 + n * np.log(p0 / np.asarray(p, dtype=float))

    return g


def _quasilinear_spec(name, a, h, bc_left, bc_right, closed, params, reducible):
    def diffusion(x, u, p):
        return a(p) + _zeros_like(x, u)

    def reaction(x, u, p):
        return -h(u) + _zeros_like(x, p)

    def rhs(x, u, p, q):
        return diffusion(x, u, p) * q - reaction(x, u, p)

    zero3 = lambda x, u, p: _zeros_like(x, u, p)
    return ProblemSpec(
        name=name,
        diffusion_coeff=diffusion,
        diffusion_coeff_dx=zero3,
        diffusion_coeff_du=zero3,
        reaction=reaction,
        reaction_dp=zero3,
        rhs=rhs,
        f1_weight=_passthrough_ut,
        bc_left=bc_left,
        bc_right=bc_right,
        structure_flags=StructureFlags(shared_factor_reducible=reducible),
        closed_forms=closed,
        params=params,
    )


def instantiate(model, bc_left=None, bc_right=None) -> ProblemSpec:
    """Resolve a builtin model description into a :class:`ProblemSpec`.

    Boundary conditions default to homogeneous Dirichlet at both ends.
    Out-of-range parameters raise ``ValueError``.
    """
    bc_left = bc_left if bc_left is not None else BoundaryCondition.dirichlet()
    bc_right = bc_right if bc_right is not None else BoundaryCondition.dirichlet()

    if isinstance(model, QuasilinearGradient):
        closed = ClosedForms(
            g_of_p=lambda p, p0=1.0, g0=0.0: g0 + _zeros_like(p),
            lagrangian=model.closed_form_lagrangian,
            decay_weight=lambda p: 1.0 + _zeros_like(p),
        )
        return _quasilinear_spec(
            model.label, model.a, model.h, bc_left, bc_right, closed,
            {"model": model.label}, reducible=True,
        )

    if isinstance(model, RhoLaplacianPoly):
        rho, n = float(model.rho), float(model.n)
        coef = rho - 1.0

        def diffusion(x, u, p):
            return coef * np.abs(p) ** (rho - 2.0) + _zeros_like(x, u)

        react, react_dp = _poly_reaction(n)
        zero3 = lambda x, u, p: _zeros_like(x, u, p)

        def rhs(x, u, p, q):
            return diffusion(x, u, p) * q - react(x, u, p)

        # The closed energy density has an antiderivative singularity when the
        # reaction exponent hits rho - 1 or rho; the oracle is disabled there.
        if min(abs(n - rho), abs(n - (rho - 1.0))) > 1e-9:
            c = coef / ((rho - n) * (rho - n - 1.0))
            lag_cf = lambda u, p, c=c, e=rho - n: c * np.abs(p) ** e - u
            lag_note = ""
        else:
            lag_cf = None
            lag_note = (
                "closed-form coefficient (rho-1)/((rho-n)(rho-n-1)) is singular "
                "for n in {rho-1, rho}; numeric construction only"
            )
        closed = ClosedForms(
            g_of_p=_poly_g_of_p(n),
            lagrangian=lag_cf,
            lagrangian_note=lag_note,
            decay_weight=lambda p: _real_pow(np.abs(p), -n) if n else 1.0 + _zeros_like(p),
        )
        return ProblemSpec(
            name="rho_laplacian_poly",
            diffusion_coeff=diffusion,
            diffusion_coeff_dx=zero3,
            diffusion_coeff_du=zero3,
            reaction=react,
            reaction_dp=react_dp,
            rhs=rhs,
            f1_weight=_passthrough_ut,
            bc_left=bc_left,
            bc_right=bc_right,
            structure_flags=StructureFlags(shared_factor_reducible=n > 0),
            closed_forms=closed,
            singular_gradient_weight=n > 0,
            params={"model": "rho_laplacian_poly", "rho": rho, "n": n},
        )

    if isinstance(model, McfPoly):
        n = float(model.n)

        def diffusion(x, u, p):
            return (1.0 + p * p) ** -1.5 + _zeros_like(x, u)

        react, react_dp = _poly_reaction(n)
        zero3 = lambda x, u, p: _zeros_like(x, u, p)

        def rhs(x, u, p, q):
            return diffusion(x, u, p) * q - react(x, u, p)

        if abs(n - 2.0) <= 1e-12:
            lag_cf = lambda u, p: np.arctanh(1.0 / np.sqrt(1.0 + p * p)) - 2.0 * np.sqrt(1.0 + p * p) - u
        else:
            lag_cf = None
        closed = ClosedForms(
            g_of_p=_poly_g_of_p(n),
            lagrangian=lag_cf,
            lagrangian_note="" if lag_cf else "closed form recorded for n = 2 only",
            decay_weight=lambda p: _real_pow(np.abs(p), -n) if n else 1.0 + _zeros_like(p),
        )
        return ProblemSpec(
            name="mcf_poly",
            diffusion_coeff=diffusion,
            diffusion_coeff_dx=zero3,
            diffusion_coeff_du=zero3,
            reaction=react,
            reaction_dp=react_dp,
            rhs=rhs,
            f1_weight=_passthrough_ut,
            bc_left=bc_left,
            bc_right=bc_right,
            structure_flags=StructureFlags(shared_factor_reducible=n > 0),
            closed_forms=closed,
            singular_gradient_weight=n > 0,
            params={"model": "mcf_poly", "n": n},
        )

    if isinstance(model, InverseMcf):

        def diffusion(x, u, p):
            return 1.0 + _zeros_like(x, u, p)

        def reaction(x, u, p):
            return -(1.0 + p * p) + _zeros_like(x, u)

        def reaction_dp(x, u, p):
            return -2.0 * p + _zeros_like(x, u)

        def rhs(x, u, p, q):
            a = 1.0 + p * p
            return a * a / (a - q) + _zeros_like(x, u)

        def f1_weight(x, u, p, q, ut):
            # Exact curvature-carrying part: ut plus the defect of the
            # evolution against its own linearization at zero curvature.
            a = 1.0 + p * p
            return ut + q * q / (q - a) + _zeros_like(x, u)

        zero3 = lambda x, u, p: _zeros_like(x, u, p)
        closed = ClosedForms(
            g_of_p=lambda p, p0=1.0, g0=0.0: g0 + np.log((1.0 + p0 * p0) / (1.0 + np.asarray(p, dtype=float) ** 2)),
            lagrangian=lambda u, p: p * np.arctan(p) - 0.5 * np.log1p(p * p) - u,
            lagrangian_note="direct double integration of the weight (1+p^2)^-1",
            documented_lagrangian=lambda u, p: p * np.arctan(p) - np.log1p(p * p) - u,
            documented_note=(
                "published energy density carries log(1+p^2) with coefficient 1; "
                "the constructed density carries coefficient 1/2"
            ),
            decay_weight=lambda p: (2.0 + p * p) * p * p / (1.0 + p * p) ** 3,
            canonical_p0=0.0,
        )
        return ProblemSpec(
            name="inverse_mcf",
            diffusion_coeff=diffusion,
            diffusion_coeff_dx=zero3,
            diffusion_coeff_du=zero3,
            reaction=reaction,
            reaction_dp=reaction_dp,
            rhs=rhs,
            f1_weight=f1_weight,
            bc_left=bc_left,
            bc_right=bc_right,
            structure_flags=StructureFlags(shared_factor_reducible=True),
            closed_forms=closed,
            params={"model": "inverse_mcf"},
        )

    if isinstance(model, PorousMedium):
        m = float(model.m)

        def diffusion(x, u, p):
            return m * _real_pow(u, m - 1.0) + _zeros_like(x, p)

        if m == 1.0:
            zero3 = lambda x, u, p: _zeros_like(x, u, p)
            diffusion_du = zero3
            reaction = zero3
            reaction_dp = zero3
        else:

            def diffusion_du(x, u, p):
                return m * (m - 1.0) * _real_pow(u, m - 2.0) + _zeros_like(x, p)

            def reaction(x, u, p):
                return -m * (m - 1.0) * _real_pow(u, m - 2.0) * p * p + _zeros_like(x)

            def reaction_dp(x, u, p):
                return -2.0 * m * (m - 1.0) * _real_pow(u, m - 2.0) * p + _zeros_like(x)

            zero3 = lambda x, u, p: _zeros_like(x, u, p)

        def rhs(x, u, p, q):
            return diffusion(x, u, p) * q - reaction(x, u, p)

        # Characteristics in the original time stall where u**(m-1) vanishes;
        # dividing the flow speed by m*u**(m-2) removes the shared factor and
        # leaves this polynomial field (valid for u > 0).
        char_system = None
        if m > 1.0:

            def char_system(x, u, p):
                return (u, u * p, -(m - 1.0) * p * p, (m - 1.0) * p)

        if m > 1.0:
            g_of_p = lambda p, p0=1.0, g0=0.0: g0 + np.log(np.abs(p0 / np.asarray(p, dtype=float)))
            lag_cf = lambda u, p: m * _real_pow(u, m - 1.0) * np.abs(p) * (np.log(np.abs(p)) - 1.0)
            weight = lambda p: 1.0 / np.abs(p)
        else:
            g_of_p = lambda p, p0=1.0, g0=0.0: g0 + _zeros_like(p)
            lag_cf = lambda u, p: 0.5 * p * p + 0.0 * u
            weight = lambda p: 1.0 + _zeros_like(p)
        closed = ClosedForms(g_of_p=g_of_p, lagrangian=lag_cf, decay_weight=weight)
        return ProblemSpec(
            name="porous_medium",
            diffusion_coeff=diffusion,
            diffusion_coeff_dx=zero3,
            diffusion_coeff_du=diffusion_du,
            reaction=reaction,
            reaction_dp=reaction_dp,
            rhs=rhs,
            f1_weight=_passthrough_ut,
            bc_left=bc_left,
            bc_right=bc_right,
            structure_flags=StructureFlags(shared_factor_reducible=m > 1.0),
            closed_forms=closed,
            char_system=char_system,
            singular_gradient_weight=m > 1.0,
            params={"model": "porous_medium", "m": m, "divergence_form_m": m},
        )

    if isinstance(model, Filtration):
        a = model.a
        a_du = model.a_du if model.a_du is not None else _numeric_du(a)
        a_du2 = model.a_du2 if model.a_du2 is not None else _numeric_du(a_du)

        def diffusion(x, u, p):
            return a_du(u) + _zeros_like(x, p)

        def diffusion_du(x, u, p):
            return a_du2(u) + _zeros_like(x, p)

        def reaction(x, u, p):
            return -a_du2(u) * p * p + _zeros_like(x)

        def reaction_dp(x, u, p):
            return -2.0 * a_du2(u) * p + _zeros_like(x)

        def rhs(x, u, p, q):
            return diffusion(x, u, p) * q - reaction(x, u, p)

        zero3 = lambda x, u, p: _zeros_like(x, u, p)
        closed = ClosedForms(
            g_of_p=lambda p, p0=1.0, g0=0.0: g0 + np.log(np.abs(p0 / np.asarray(p, dtype=float))),
            decay_weight=lambda p: 1.0 / np.abs(p),
        )
        return ProblemSpec(
            name="filtration",
            diffusion_coeff=diffusion,
            diffusion_coeff_dx=zero3,
            diffusion_coeff_du=diffusion_du,
            reaction=reaction,
            reaction_dp=reaction_dp,
            rhs=rhs,
            f1_weight=_passthrough_ut,
            bc_left=bc_left,
            bc_right=bc_right,
            structure_flags=StructureFlags(shared_factor_reducible=True),
            closed_forms=closed,
            singular_gradient_weight=True,
            params={"model": "filtration"},
        )

    raise ValueError(f"unknown builtin model {model!r}")


def _pure_rho_model(rho):
    rho = float(rho)
    if rho < 2.0:
        raise ValueError(f"rho must be >= 2, got {rho}")
    return QuasilinearGradient(
        a=lambda p: (rho - 1.0) * np.abs(p) ** (rho - 2.0),
        h=lambda u: _zeros_like(u),
        label="rho_laplacian_pure",
        closed_form_lagrangian=lambda u, p: np.abs(p) ** rho / rho + 0.0 * u,
    )


def _pure_mcf_model():
    return QuasilinearGradient(
        a=lambda p: (1.0 + p * p) ** -1.5,
        h=lambda u: _zeros_like(u),
        label="mcf_pure",
        closed_form_lagrangian=lambda u, p: np.sqrt(1.0 + p * p) + 0.0 * u,
    )


def _heat_model():
    return QuasilinearGradient(
        a=lambda p: 1.0 + _zeros_like(p),
        h=lambda u: _zeros_like(u),
        label="heat",
        closed_form_lagrangian=lambda u, p: 0.5 * p * p + 0.0 * u,
    )


def pure_rho_laplacian(rho, bc_left=None, bc_right=None):
    """Gradient diffusion ut = (rho-1)|u_x|**(rho-2) u_xx with no forcing."""
    return instantiate(_pure_rho_model(rho), bc_left=bc_left, bc_right=bc_right)


def pure_mean_curvature(bc_left=None, bc_right=None):
    """Graphical curvature shortening ut = u_xx / (1 + u_x**2)**(3/2)."""
    return instantiate(_pure_mcf_model(), bc_left=bc_left, bc_right=bc_right)


def heat_equation(bc_left=None, bc_right=None):
    """Linear diffusion ut = u_xx; the density reduces to u_x**2 / 2."""
    return instantiate(_heat_model(), bc_left=bc_left, bc_right=bc_right)


# ---------------------------------------------------------------------------
# JSON descriptors

_A_PRESETS = {
    "constant": lambda d: (lambda p, v=float(d.get("value", 1.0)): v + _zeros_like(p)),
    "power_abs": lambda d: (
        lambda p, c=float(d.get("coef", 1.0)), e=float(d.get("exponent", 0.0)): c * np.abs(p) ** e
    ),
    "mcf": lambda d: (lambda p: (1.0 + p * p) ** -1.5),
}

_H_PRESETS = {
    "zero": lambda d: (lambda u: _zeros_like(u)),
    "constant": lambda d: (lambda u, v=float(d.get("value", 1.0)): v + _zeros_like(u)),
    "linear": lambda d: (lambda u, s=float(d.get("slope", 1.0)): s * u),
}

_FILTRATION_PRESETS = {
    "power": lambda d: _filtration_power(float(d.get("exponent", 2.0))),
    "superslow": lambda d: _filtration_superslow(),
}


def _filtration_power(m):
    if m == 1.0:
        return Filtration(
            lambda u: np.asarray(u, dtype=float),
            lambda u: 1.0 + _zeros_like(u),
            lambda u: _zeros_like(u),
        )
    # For u >= 0 this is u**m; the odd extension keeps a nondecreasing.
    a = lambda u: _real_pow(np.abs(u), m) * np.sign(u)
    a_du = lambda u: m * _real_pow(np.abs(u), m - 1.0)
    a_du2 = lambda u: m * (m - 1.0) * _real_pow(np.abs(u), m - 2.0) * np.sign(u)
    return Filtration(a, a_du, a_du2)


def _filtration_superslow():
    # a = exp(-1/u) for u > 0 and 0 elsewhere, with a' = exp(-1/u) / u**2
    # and a'' = exp(-1/u) * (1 - 2u) / u**4.  The power of u goes into the
    # exponent, so a tiny u gives 0 rather than 0 * inf.
    def exp_over_power(u, k):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u, 1e-300)
        return np.where(u > 0.0, np.exp(-1.0 / v - k * np.log(v)), 0.0)

    return Filtration(
        lambda u: exp_over_power(u, 0.0),
        lambda u: exp_over_power(u, 2.0),
        lambda u: exp_over_power(u, 4.0) * (1.0 - 2.0 * np.asarray(u, dtype=float)),
    )


def _coefficient(presets, d, what):
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"{what} descriptor must be an object with a 'kind' field")
    kind = d["kind"]
    if kind not in presets:
        raise ValueError(f"unknown {what} kind {kind!r}; choose from {sorted(presets)}")
    return presets[kind](d)


def _bc_from_descriptor(d):
    if isinstance(d, str):
        key = d.lower()
        if key == "dirichlet":
            return BoundaryCondition.dirichlet()
        if key == "neumann":
            return BoundaryCondition.neumann()
        raise ValueError(f"unknown boundary condition {d!r}")
    if isinstance(d, dict) and d.get("kind") == "robin":
        b = d.get("b", {"kind": "zero"})
        kind = b.get("kind")
        if kind == "zero":
            return BoundaryCondition.neumann()
        if kind == "constant":
            v = float(b.get("value", 0.0))
            return BoundaryCondition.robin(lambda u: v + _zeros_like(u), lambda u: _zeros_like(u))
        if kind == "linear":
            s = float(b.get("slope", 1.0))
            return BoundaryCondition.robin(lambda u: s * u, lambda u: s + _zeros_like(u))
        raise ValueError(f"unknown robin slope kind {kind!r}")
    raise ValueError(f"unknown boundary condition descriptor {d!r}")


def from_descriptor(descriptor: dict) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a plain JSON-compatible dictionary.

    Example: ``{"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0,
    "bc": ["dirichlet", "dirichlet"]}``.
    """
    if not isinstance(descriptor, dict) or "model" not in descriptor:
        raise ValueError("model descriptor must be an object with a 'model' field")
    name = descriptor["model"]
    bc = descriptor.get("bc", ["dirichlet", "dirichlet"])
    if not isinstance(bc, (list, tuple)) or len(bc) != 2:
        raise ValueError("'bc' must list exactly two boundary conditions")
    bc_left, bc_right = (_bc_from_descriptor(b) for b in bc)

    if name == "rho_laplacian_poly":
        model = RhoLaplacianPoly(float(descriptor["rho"]), float(descriptor["n"]))
    elif name == "mcf_poly":
        model = McfPoly(float(descriptor["n"]))
    elif name == "inverse_mcf":
        model = InverseMcf()
    elif name == "porous_medium":
        model = PorousMedium(float(descriptor["m"]))
    elif name == "heat":
        model = _heat_model()
    elif name == "rho_laplacian_pure":
        model = _pure_rho_model(float(descriptor["rho"]))
    elif name == "mcf_pure":
        model = _pure_mcf_model()
    elif name == "quasilinear_gradient":
        model = QuasilinearGradient(
            a=_coefficient(_A_PRESETS, descriptor.get("a", {"kind": "constant"}), "diffusion"),
            h=_coefficient(_H_PRESETS, descriptor.get("h", {"kind": "zero"}), "forcing"),
        )
    elif name == "filtration":
        model = _coefficient(_FILTRATION_PRESETS, descriptor.get("a", {"kind": "power"}), "filtration")
    else:
        raise ValueError(f"unknown model {name!r}")

    spec = instantiate(model, bc_left, bc_right)
    resolved = dict(spec.params)
    resolved["descriptor"] = descriptor
    return dataclasses.replace(spec, params=resolved)


# ---------------------------------------------------------------------------
# Sampled validation


@dataclass(frozen=True)
class SampleBox:
    """Bounded sampling region for the pointwise validator."""

    x: tuple = (0.0, 1.0)
    u: tuple = (-1.0, 1.0)
    p: tuple = (-1.0, 1.0)
    q: tuple = (-0.5, 0.5)


@dataclass(frozen=True)
class Violation:
    invariant: str
    point: dict
    detail: str


@dataclass
class ValidationReport:
    n_samples: int
    violations: list
    counts: dict
    max_consistency_residual: float

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "n_samples": self.n_samples,
            "passed": self.passed,
            "counts": self.counts,
            "max_consistency_residual": self.max_consistency_residual,
            "violations": [
                {"invariant": v.invariant, "point": v.point, "detail": v.detail}
                for v in self.violations[:25]
            ],
        }


_MAX_REPORTED = 100


def validate_spec(spec: ProblemSpec, box: SampleBox = SampleBox(), n_samples: int = 1000,
                  seed: int = 0) -> ValidationReport:
    """Monte-Carlo check of the sign and consistency contracts.

    Samples (x, u, p, q) uniformly from ``box`` and takes the time derivative
    from the resolved evolution, so the sign check runs on states the
    equation can actually produce.  The report lists violating points and
    never raises, including when an evaluator returns non-finite values.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(*box.x, n_samples)
    us = rng.uniform(*box.u, n_samples)
    ps = rng.uniform(*box.p, n_samples)
    qs = rng.uniform(*box.q, n_samples)

    violations = []
    counts = {}

    def record(name, i, detail):
        counts[name] = counts.get(name, 0) + 1
        if len(violations) < _MAX_REPORTED:
            violations.append(
                Violation(
                    name,
                    {"x": float(xs[i]), "u": float(us[i]), "p": float(ps[i]), "q": float(qs[i])},
                    detail,
                )
            )

    with np.errstate(all="ignore"):
        try:
            diff = np.asarray(spec.diffusion_coeff(xs, us, ps), dtype=float)
            react = np.asarray(spec.reaction(xs, us, ps), dtype=float)
            ut = np.asarray(spec.rhs(xs, us, ps, qs), dtype=float)
            weight = np.asarray(spec.f1_weight(xs, us, ps, qs, ut), dtype=float)
        except Exception as exc:  # noqa: BLE001 - reported, never raised
            return ValidationReport(
                n_samples,
                [Violation("evaluation_error", {}, repr(exc))],
                {"evaluation_error": 1},
                math.inf,
            )

    finite = np.isfinite(diff) & np.isfinite(react) & np.isfinite(ut) & np.isfinite(weight)
    for i in np.flatnonzero(~finite):
        record("non_finite_evaluation", i, "an evaluator returned nan or inf")

    neg = finite & (diff < -1e-12)
    for i in np.flatnonzero(neg):
        record("diffusion_nonnegative", i, f"diffusion_coeff = {diff[i]!r}")
    if finite.any() and np.max(np.abs(diff[finite])) <= 1e-14:
        record("diffusion_not_identically_zero", int(np.flatnonzero(finite)[0]),
               "diffusion_coeff vanished at every sample of the box")

    product = weight * ut
    bad_sign = finite & (product < -1e-10 * (1.0 + ut * ut))
    for i in np.flatnonzero(bad_sign):
        record("f1_weight_sign", i, f"f1_weight * ut = {product[i]!r}")
    zero_off_eq = finite & (np.abs(weight) <= 1e-12 * (1.0 + np.abs(ut))) & (np.abs(ut) > 1e-6)
    for i in np.flatnonzero(zero_off_eq):
        record("f1_weight_strict", i, f"f1_weight vanished while ut = {ut[i]!r}")

    target = diff * qs - react
    residual = np.abs(weight - target)
    tolerance = 1e-10 * (1.0 + np.abs(target))
    bad_consistency = finite & (residual > tolerance)
    for i in np.flatnonzero(bad_consistency):
        record("evolution_consistency", i, f"residual = {residual[i]!r}")
    max_res = float(np.max(residual[finite])) if finite.any() else math.inf

    return ValidationReport(n_samples, violations, counts, max_res)
