"""Problem contracts and the built-in family of 1-D degenerate parabolic models.

Every equation handled by this package is carried around as a
:class:`ProblemSpec`, a bundle of pure pointwise evaluators:

* ``diffusion_coeff(x, u, p)``: coefficient of the second space derivative,
  measured at zero curvature and zero time derivative.  It must be
  nonnegative and may vanish (that is the degenerate case).
* ``reaction(x, u, p)``: the forcing measured at zero curvature.
* ``rhs(x, u, p, q)``: the resolved time evolution ``ut = G(x, u, p, q)``.
  It must have the sign of ``diffusion_coeff * q - reaction``, the weight
  that the decay formula multiplies by ``ut``; the quasilinear ``rhs`` is
  that weight itself, and a fully nonlinear one such as ``inverse_mcf``'s
  only shares its sign.

Evaluators are pure, broadcast over numpy arrays, and can be shared freely
across threads.  A spec stores each evaluator exactly as given, and an
evaluator may return any value that broadcasts against its arguments: an
array of their broadcast shape, a smaller array, or a Python float.  A
caller that needs the full shape broadcasts the value itself, and no caller
writes into a value.  Left out, a derivative hook is identically zero and
``rhs`` is ``diffusion_coeff * q - reaction``.

Builtins are built only by :func:`from_descriptor`, from a JSON-compatible
descriptor such as ``{"model": "porous_medium", "m": 2.0}``.  One table,
``_FAMILIES``, maps each descriptor name to the builder of its family; a
builder reads and checks its own numbers and presets and builds the spec
(directly, or through the ``_quasilinear``, ``_poly_forced`` and
``_filtration_spec`` templates).  A new family is one builder and one row.
The builder gets its descriptor as a ``_Reads``, which records each key
read; a key that neither the builder nor its presets read is refused, so a
typo is an error and never a silent default.

Builtins also ship optional closed-form references (:class:`ClosedForms`)
used by tests and comparison commands; those formulas drop the free
multiplicative normalization constant, which is the same as fixing ``g0 = 0``
and the seed gradient at ``ClosedForms.canonical_p0`` (1 for most builtins).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoundaryCondition",
    "ClosedForms",
    "ProblemSpec",
    "Filtration",
    "from_descriptor",
]

_FD_STEP = 1e-6  # relative central-difference step for derivative fallbacks
_FD_STEP2 = np.finfo(float).eps ** 0.25  # relative step of the second difference


def _real_pow(base, expo):
    """base**expo that applies integer exponents exactly.

    Integer exponents keep the sign of a negative base; fractional exponents
    of a negative base come out as nan, and a negative exponent of a zero
    base as inf, which downstream samplers report instead of crashing.  Only
    those two exponents can raise the divide or invalid warning, so only
    they enter ``np.errstate``: a nonnegative integer exponent is
    ``base ** int(expo)`` as it stands.
    """
    e = float(expo)
    base = np.asarray(base, dtype=float)
    if e.is_integer() and e >= 0.0:
        return base ** int(e)
    with np.errstate(divide="ignore", invalid="ignore"):
        return base ** (int(e) if e.is_integer() else e)


def _zero(*args):
    return 0.0


def _numeric_du(f):
    def df(u):
        h = _FD_STEP * (1.0 + np.abs(u))
        return (f(u + h) - f(u - h)) / (2.0 * h)

    return df


def _numeric_d2u(f):
    # One second difference; a step near eps**(1/4) balances the O(h**2)
    # truncation against the O(eps / h**2) cancellation.
    def d2f(u):
        h = _FD_STEP2 * (1.0 + np.abs(u))
        return (f(u + h) - 2.0 * f(u) + f(u - h)) / (h * h)

    return d2f


@dataclass(frozen=True)
class BoundaryCondition:
    """One end of the unit interval.

    ``dirichlet`` holds the solution at the initial profile's end value.
    ``robin`` prescribes the slope through ``u_x = b(u)``; a zero-slope ``b``
    is the Neumann condition.
    """

    kind: str
    robin_b: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and self.robin_b is None:
            raise ValueError("robin boundary needs a slope function b(u)")

    @staticmethod
    def dirichlet():
        return BoundaryCondition("dirichlet")

    @staticmethod
    def robin(b):
        return BoundaryCondition("robin", b)

    @staticmethod
    def neumann():
        return BoundaryCondition("robin", _zero)


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


@dataclass(frozen=True, kw_only=True)
class ProblemSpec:
    """A fully resolved model: evaluators, boundary conditions, metadata."""

    name: str
    diffusion_coeff: Callable
    diffusion_coeff_dx: Callable = _zero
    diffusion_coeff_du: Callable = _zero
    reaction: Callable
    reaction_dp: Callable = _zero
    rhs: Optional[Callable] = None  # None: the quasilinear diffusion_coeff * q - reaction
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    closed_forms: Optional[ClosedForms] = None
    shared_factor_reducible: bool = False
    # The m of a model written as (u**m)_xx: the solver advances that form and
    # verify adds the conventional porous-medium energy.  None for the others.
    divergence_form_m: Optional[float] = None

    def __post_init__(self):
        if self.rhs is None:
            D, R = self.diffusion_coeff, self.reaction
            object.__setattr__(self, "rhs", lambda x, u, p, q: D(x, u, p) * q - R(x, u, p))


# ---------------------------------------------------------------------------
# Builtin model family


@dataclass(frozen=True)
class Filtration:
    """ut = (a(u))_xx with nondecreasing a, passed as a filtration descriptor's ``a``.

    Derivatives of ``a`` may be supplied; otherwise central differences fill
    them in: ``a'`` with a relative step of 1e-6, and ``a''`` as the
    difference of ``a'`` when that is supplied, else as one second difference
    of ``a`` with a relative step of eps**(1/4).  The shipped analytic
    gradient weight assumes ``a`` is not affine; for affine ``a`` use the
    quasilinear family.
    """

    a: Callable
    a_du: Optional[Callable] = None
    a_du2: Optional[Callable] = None


def _flat_g(p, p0=1.0, g0=0.0):
    return np.full(np.shape(p), g0, dtype=float)[()]


def _unit_weight(p):
    return np.ones(np.shape(p))[()]


def _log_ratio_g(k):
    """g = g0 + k log|p0/p|, the weight |p0/p|**k, valid on both signs of p."""
    return lambda p, p0=1.0, g0=0.0: g0 + k * np.log(np.abs(p0 / np.asarray(p, dtype=float)))


def _poly_g_of_p(n):
    if n == 0.0:
        return _flat_g
    if n.is_integer() and int(n) % 2 == 0:
        # Even reaction exponent: the weight is even in p, valid on both
        # signs of the gradient.
        return _log_ratio_g(n)

    def g(p, p0=1.0, g0=0.0):
        # Odd or fractional exponent: only gradients with the sign of p0 are
        # reachable; off-branch queries come out nan rather than silently
        # even-extended.
        with np.errstate(divide="ignore", invalid="ignore"):
            return g0 + n * np.log(p0 / np.asarray(p, dtype=float))

    return g


def _quasilinear(name, bcs, a, h, lagrangian):
    """ut = a(u_x) u_xx + h(u) with a >= 0: its weight is flat, g = g0."""
    closed = ClosedForms(g_of_p=_flat_g, lagrangian=lagrangian, decay_weight=_unit_weight)
    return ProblemSpec(name=name, diffusion_coeff=lambda x, u, p: a(p),
                       reaction=lambda x, u, p: -h(u), **bcs, closed_forms=closed,
                       shared_factor_reducible=True)


def _poly_forced(name, bcs, a, n, lagrangian, lagrangian_note):
    """ut = a(u_x) u_xx + u_x**n: its reaction is -p**n and its weight |p0/p|**n."""
    if n == 0.0:
        reaction = lambda x, u, p: -1.0
        reaction_dp = _zero
    else:
        reaction = lambda x, u, p: -_real_pow(p, n)
        reaction_dp = lambda x, u, p: -n * _real_pow(p, n - 1.0)
    closed = ClosedForms(
        g_of_p=_poly_g_of_p(n),
        lagrangian=lagrangian,
        lagrangian_note=lagrangian_note,
        decay_weight=(lambda p: _real_pow(np.abs(p), -n)) if n else _unit_weight,
    )
    return ProblemSpec(
        name=name, diffusion_coeff=lambda x, u, p: a(p), reaction=reaction,
        reaction_dp=reaction_dp, **bcs, closed_forms=closed, shared_factor_reducible=True,
    )


def _filtration_spec(name, bcs, a_du, a_du2, lagrangian=None, divergence_form_m=None):
    """ut = (a(u))_xx = a'(u) u_xx + a''(u) u_x**2, with the weight |p0/p|."""
    closed = ClosedForms(
        g_of_p=_log_ratio_g(1.0), lagrangian=lagrangian, decay_weight=lambda p: 1.0 / np.abs(p)
    )
    return ProblemSpec(
        name=name, diffusion_coeff=lambda x, u, p: a_du(u),
        diffusion_coeff_du=lambda x, u, p: a_du2(u), reaction=lambda x, u, p: -a_du2(u) * p * p,
        reaction_dp=lambda x, u, p: -2.0 * a_du2(u) * p, **bcs, closed_forms=closed,
        shared_factor_reducible=True, divergence_form_m=divergence_form_m,
    )


# One builder per family: it reads and checks the descriptor ``d`` and
# builds the spec with ``bcs``, the ``bc_left`` and ``bc_right`` keywords.


def _heat(d, bcs):
    """ut = u_xx; the density reduces to u_x**2 / 2."""
    return _quasilinear("heat", bcs, lambda p: 1.0, _zero, lambda u, p: 0.5 * p * p + 0.0 * u)


def _quasilinear_gradient(d, bcs):
    """ut = a(u_x) u_xx + h(u) with preset coefficients; no closed-form density."""
    a = _coefficient(_A_PRESETS, d.get("a", {"kind": "constant"}), "diffusion")
    h = _coefficient(_H_PRESETS, d.get("h", {"kind": "zero"}), "forcing")
    return _quasilinear("quasilinear_gradient", bcs, a, h, None)


def _rho_laplacian_poly(d, bcs):
    """ut = (rho - 1)|u_x|**(rho-2) u_xx + u_x**n, rho >= 2, n >= 0."""
    rho, n = _number(d, "rho", at_least=2.0), _number(d, "n", at_least=0.0)
    coef = rho - 1.0
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
    return _poly_forced(
        "rho_laplacian_poly", bcs, lambda p: coef * np.abs(p) ** (rho - 2.0), n,
        lag_cf, lag_note,
    )


def _rho_laplacian_pure(d, bcs):
    """Gradient diffusion ut = (rho-1)|u_x|**(rho-2) u_xx with no forcing, rho >= 2."""
    rho = _number(d, "rho", at_least=2.0)
    return _quasilinear(
        "rho_laplacian_pure", bcs, lambda p: (rho - 1.0) * np.abs(p) ** (rho - 2.0), _zero,
        lambda u, p: np.abs(p) ** rho / rho + 0.0 * u,
    )


def _mcf_poly(d, bcs):
    """ut = u_xx / (1 + u_x**2)**(3/2) + u_x**n, n >= 0."""
    n = _number(d, "n", at_least=0.0)
    if abs(n - 2.0) <= 1e-12:
        lag_cf = lambda u, p: np.arctanh(1.0 / np.sqrt(1.0 + p * p)) - 2.0 * np.sqrt(1.0 + p * p) - u
    else:
        lag_cf = None
    return _poly_forced(
        "mcf_poly", bcs, lambda p: (1.0 + p * p) ** -1.5, n,
        lag_cf, "" if lag_cf else "closed form recorded for n = 2 only",
    )


def _mcf_pure(d, bcs):
    """Graphical curvature shortening ut = u_xx / (1 + u_x**2)**(3/2)."""
    return _quasilinear(
        "mcf_pure", bcs, lambda p: (1.0 + p * p) ** -1.5, _zero,
        lambda u, p: np.sqrt(1.0 + p * p) + 0.0 * u,
    )


def _inverse_mcf(d, bcs):
    """ut = (1 + u_x**2)**2 / ((1 + u_x**2) - u_xx).

    Fully nonlinear; the resolved evolution is singular where the curvature
    reaches 1 + u_x**2, so sampling boxes must stay below that threshold.
    """

    def rhs(x, u, p, q):
        a = 1.0 + p * p
        return a * a / (a - q)

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
        name="inverse_mcf", diffusion_coeff=lambda x, u, p: 1.0,
        reaction=lambda x, u, p: -(1.0 + p * p), reaction_dp=lambda x, u, p: -2.0 * p,
        rhs=rhs, **bcs, closed_forms=closed, shared_factor_reducible=True,
    )


def _porous_medium(d, bcs):
    """ut = (u**m)_xx for u >= 0, m >= 1."""
    m = _number(d, "m", at_least=1.0)
    a_du = lambda u: m * _real_pow(u, m - 1.0)
    if m == 1.0:
        closed = ClosedForms(
            g_of_p=_flat_g, lagrangian=lambda u, p: 0.5 * p * p + 0.0 * u,
            decay_weight=_unit_weight,
        )
        return ProblemSpec(
            name="porous_medium", diffusion_coeff=lambda x, u, p: a_du(u), reaction=_zero,
            **bcs, closed_forms=closed, shared_factor_reducible=True, divergence_form_m=m,
        )

    return _filtration_spec(
        "porous_medium", bcs, a_du, lambda u: m * (m - 1.0) * _real_pow(u, m - 2.0),
        lagrangian=lambda u, p: a_du(u) * np.abs(p) * (np.log(np.abs(p)) - 1.0),
        divergence_form_m=m,
    )


def _filtration(d, bcs):
    """ut = (a(u))_xx for a preset ``a`` or a :class:`Filtration` object."""
    filt = d.get("a", {"kind": "power"})
    if not isinstance(filt, Filtration):
        filt = _coefficient(_FILTRATION_PRESETS, filt, "filtration")
    a_du = filt.a_du if filt.a_du is not None else _numeric_du(filt.a)
    a_du2 = filt.a_du2
    if a_du2 is None:
        a_du2 = _numeric_du(filt.a_du) if filt.a_du is not None else _numeric_d2u(filt.a)
    return _filtration_spec("filtration", bcs, a_du, a_du2)


_FAMILIES = {
    "heat": _heat,
    "quasilinear_gradient": _quasilinear_gradient,
    "rho_laplacian_poly": _rho_laplacian_poly,
    "rho_laplacian_pure": _rho_laplacian_pure,
    "mcf_poly": _mcf_poly,
    "mcf_pure": _mcf_pure,
    "inverse_mcf": _inverse_mcf,
    "porous_medium": _porous_medium,
    "filtration": _filtration,
}


# ---------------------------------------------------------------------------
# JSON descriptors


def _number(d, key, default=None, *, at_least=-math.inf, above=-math.inf):
    """``d[key]``, or ``default`` when absent, as a finite float in range.

    The value must be ``>= at_least`` and ``> above``; anything else raises
    ``ValueError`` before a model is built.
    """
    value = d.get(key, default)
    try:
        v = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    if v < at_least:
        raise ValueError(f"{key} must be >= {at_least:g}, got {v!r}")
    if v <= above:
        raise ValueError(f"{key} must be > {above:g}, got {v!r}")
    return v


# A positive coefficient and a nonnegative exponent keep the diffusion
# forward and finite.
_A_PRESETS = {
    "constant": lambda d: (lambda p, v=_number(d, "value", 1.0, above=0.0): v),
    "power_abs": lambda d: (
        lambda p, c=_number(d, "coef", 1.0, above=0.0),
        e=_number(d, "exponent", 0.0, at_least=0.0): c * np.abs(p) ** e
    ),
    "mcf": lambda d: (lambda p: (1.0 + p * p) ** -1.5),
}

_H_PRESETS = {
    "zero": lambda d: _zero,
    "constant": lambda d: (lambda u, v=_number(d, "value", 1.0): v),
    "linear": lambda d: (lambda u, s=_number(d, "slope", 1.0): s * u),
}

_B_PRESETS = {
    "zero": lambda d: _zero,
    "constant": lambda d: (lambda u, v=_number(d, "value", 0.0): v),
    "linear": lambda d: (lambda u, s=_number(d, "slope", 1.0): s * u),
}

_FILTRATION_PRESETS = {
    # A positive exponent keeps a nondecreasing.
    "power": lambda d: _filtration_power(_number(d, "exponent", 2.0, above=0.0)),
    "superslow": lambda d: _filtration_superslow(),
}


def _filtration_power(m):
    if m == 1.0:
        return Filtration(
            lambda u: np.asarray(u, dtype=float),
            lambda u: 1.0,
            _zero,
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


class _Reads(dict):
    """A descriptor that records which of its keys were read."""

    def __init__(self, d):
        super().__init__(d)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def refuse_unread(self, what):
        """A key that nothing read is an error, not a silent default."""
        extra = sorted(set(self) - self.read)
        if extra:
            raise ValueError(f"unknown settings {extra} in the {what} descriptor")


def _lookup(table, key, what):
    if not isinstance(key, str) or key not in table:
        raise ValueError(f"unknown {what} {key!r}; choose from {sorted(table)}")
    return table[key]


def _coefficient(presets, d, what):
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"{what} descriptor must be an object with a 'kind' field")
    d = _Reads(d)
    coefficient = _lookup(presets, d["kind"], f"{what} kind")(d)
    d.refuse_unread(what)
    return coefficient


def _bc_from_descriptor(d):
    if isinstance(d, str):
        key = d.lower()
        if key == "dirichlet":
            return BoundaryCondition.dirichlet()
        if key == "neumann":
            return BoundaryCondition.neumann()
        raise ValueError(f"unknown boundary condition {d!r}")
    d = _Reads(d) if isinstance(d, dict) else d
    if isinstance(d, dict) and d.get("kind") == "robin":
        b = _coefficient(_B_PRESETS, d.get("b", {"kind": "zero"}), "robin slope")
        d.refuse_unread("boundary condition")
        return BoundaryCondition.robin(b)
    raise ValueError(f"unknown boundary condition descriptor {d!r}")


def from_descriptor(descriptor: dict) -> ProblemSpec:
    """Build a builtin :class:`ProblemSpec` from a JSON-compatible dictionary.

    This is the one constructor of a builtin.  ``descriptor["model"]`` names
    a family of ``_FAMILIES``; the other entries are that family's numbers
    and presets, and ``bc`` lists the two ends (default: Dirichlet at both).
    Every number must be finite and in its family's range, and every key
    must be one that the family or its preset reads, or ``ValueError`` is
    raised.  The one non-JSON entry accepted is
    a :class:`Filtration` as the ``a`` of a ``filtration`` descriptor.

    Example: ``{"model": "rho_laplacian_poly", "rho": 3.0, "n": 1.0,
    "bc": ["dirichlet", {"kind": "robin", "b": {"kind": "linear", "slope": 1.0}}]}``.
    """
    if not isinstance(descriptor, dict) or "model" not in descriptor:
        raise ValueError("model descriptor must be an object with a 'model' field")
    d = _Reads(descriptor)
    build = _lookup(_FAMILIES, d["model"], "model")
    bc = d.get("bc", ["dirichlet", "dirichlet"])
    if not isinstance(bc, (list, tuple)) or len(bc) != 2:
        raise ValueError("'bc' must list exactly two boundary conditions")
    left, right = (_bc_from_descriptor(b) for b in bc)
    spec = build(d, {"bc_left": left, "bc_right": right})
    d.refuse_unread("model")
    return spec
