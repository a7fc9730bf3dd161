"""Assembly of the energy integrand L(x, u, p) and its p-derivatives.

The construction fixes the curvature of L in the gradient variable,

    L_pp(x, u, p) = diffusion_coeff(x, u, p) * exp(g(x, u, p)),

and recovers L by integrating that weight twice in p from a base point.  The
two integration constants per (x, u) are an affine-in-p slack; they are spent
on two jobs:

* ``l1`` (the coefficient of p) enforces zero energy flux at Robin ends,
  l1(end, u) = -integral of the weight from the base point to b(u), so that
  L_p vanishes where u_x = b(u).  Dirichlet ends need no flux condition and
  take l1 = 0; with Robin at both ends l1 interpolates linearly in x.
* ``l0`` (the p-free part) is pinned by the compatibility condition
  dl0/du = l1_x + exp(g(x, u, p_base)) * reaction(x, u, p_base), so
  l0(x, u) = integral(0..u) of [l1_x + exp(g) * reaction](x, s, p_base) ds,
  one quadrature per query with no stored state; l1_x = l1(1, s) - l1(0, s)
  with Robin at both ends and 0 otherwise.  The point must be p_base: along
  the transport equation of g the core below has Euler-Lagrange residual
  exp(g) * reaction at p minus its value at p_base, so the affine part has
  to supply exactly the value at p_base.

The repeated p-integral is evaluated as the single integral
integral(base..p) of (p - s) * weight(s) ds, which equals the nested form
exactly.

Every evaluator works on whole arrays of query points: each quadrature
above is one ``integrate_batch`` call over all points, so the model
callbacks and the g provider are called once per panel sweep with every
open abscissa, not once per sample.  With Robin at both ends the l1_x term
inside the l0 integrand is itself one inner batch per outer sweep.  A
point's value depends only on that point, never on the others that share
its batch.

One probe decides both things that depend on how the weight behaves at
p = 0.  ``build_lagrangian`` reads g from the provider and D from the spec at
p = 1e-4, 1e-3, 1e-2 with (x, u) = (0.5, 0.75):

* Base point: integrating from 0 is the default, but a weight that is not
  finite there or falls like 1/|p| (log-log slope <= -0.999) gets base 1
  instead.  For those weights the two half-lines p > 0 and p < 0 are
  separate construction branches, so the base point follows the sign of the
  query: base_eff(p) = sign(p) * p_base.
* ``singular_weight``: e^g blows up at p = 0 when a probed g is not finite
  or both log-log slopes of e^g (the slopes of g against log p) are at most
  -1e-3.  The energy monitor then masks the nodes where u_x nearly vanishes.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .characteristics import GProvider, ReducedGError
from .models import ProblemSpec
from .quadrature import QuadratureError, integrate_batch

__all__ = [
    "LagrangianError",
    "Lagrangian",
    "build_lagrangian",
    "eval_L",
    "eval_Lp",
    "eval_Lpp",
    "second_difference_lpp",
    "compare_closed_form",
]

_PROBE_POINTS = (1e-4, 1e-3, 1e-2)
_PROBE_ANCHOR = (0.5, 0.75)
# Log-log slopes of e^g at or below this, on both probe intervals, make the
# weight singular at p = 0.
_SINGULAR_G_SLOPE = -1e-3


class LagrangianError(RuntimeError):
    pass


@dataclass(frozen=True)
class Lagrangian:
    spec: ProblemSpec
    g_provider: GProvider
    p_base: float
    quad_tol: float
    # e^g blows up at p = 0, so a gradient that nearly vanishes is masked.
    singular_weight: bool
    metadata: dict = field(default_factory=dict)

    def weight(self, x, u, p):
        return _weight(self.spec, x, u, p, self.g_provider(x, u, p))

    def base_eff(self, p):
        return np.where(np.asarray(p) >= 0.0, self.p_base, -self.p_base)[()]

    def l1(self, x, u):
        """Coefficient of p: minus the weight integral to b(u) at Robin ends."""
        ends = _robin_ends(self.spec)
        if not ends:
            return np.zeros(np.broadcast(x, u).shape)[()]
        end = self._end_l1(ends, u)
        return end[0] if len(ends) == 1 else (1.0 - x) * end[0] + x * end[1]

    def _end_l1(self, ends, u):
        """l1 at each Robin end in ``ends`` for every u, as one quadrature batch."""
        u = np.asarray(u, dtype=float)
        x_end = np.repeat(np.asarray(ends, dtype=float), u.size)
        uu = np.tile(u.ravel(), len(ends))
        bcs = {0.0: self.spec.bc_left, 1.0: self.spec.bc_right}
        bu = np.concatenate([
            np.broadcast_to(np.asarray(bcs[e].robin_b(u), dtype=float), u.shape).ravel()
            for e in ends
        ])
        val = -_weight_integral(self, x_end, uu, bu, "l1")
        return val.reshape((len(ends),) + u.shape)


def _robin_ends(spec: ProblemSpec):
    """The x of each Robin end, left before right."""
    return tuple(x for x, bc in ((0.0, spec.bc_left), (1.0, spec.bc_right)) if bc.kind == "robin")


def _weight(spec: ProblemSpec, x, u, p, g):
    """L_pp = diffusion_coeff * exp(g), elementwise over broadcast inputs."""
    with np.errstate(over="ignore", invalid="ignore"):
        return spec.diffusion_coeff(x, u, p) * np.exp(g)


def _slopes(ys):
    """Slopes of ``ys`` against log p between successive probe points."""
    return [
        (ys[i + 1] - ys[i]) / (math.log(_PROBE_POINTS[i + 1]) - math.log(_PROBE_POINTS[i]))
        for i in range(len(ys) - 1)
    ]


def _probe(spec: ProblemSpec, g_provider: GProvider, override):
    """p_base and the probe's record, which says whether e^g is singular at p = 0.

    A provider that refuses a probe point (``ReducedGError``) counts as a
    non-finite g.
    """
    x_a, u_a = _PROBE_ANCHOR
    gs, weights = [], []
    for s in _PROBE_POINTS:
        try:
            g = g_provider(x_a, u_a, s)
        except ReducedGError:
            g = math.nan
        gs.append(float(g))
        weights.append(float(_weight(spec, x_a, u_a, s, g)))
    info = {"probe_values": weights}
    if all(math.isfinite(v) and v > 0.0 for v in weights):
        info.update(p_base_probe="power-law", probe_slopes=_slopes(list(map(math.log, weights))))
        p_base = 1.0 if max(info["probe_slopes"]) <= -0.999 else 0.0
    else:
        info["p_base_probe"] = "non-finite weight near 0"
        p_base = 1.0
    if all(map(math.isfinite, gs)):
        # The log-log slope of e^g is the slope of g against log p.
        info["probe_g_slopes"] = _slopes(gs)
        info["singular_weight"] = max(info["probe_g_slopes"]) <= _SINGULAR_G_SLOPE
    else:
        info["singular_weight"] = True
    if override is not None:
        info["p_base_probe"] = "overridden"
        p_base = float(override)
    return p_base, info


def _integrate(f, a, b, tol, stage, **point):
    """integrate_batch over flat point arrays; a failure names the stage and the point."""
    try:
        return integrate_batch(f, a, b, tol)
    except QuadratureError as exc:
        where = ", ".join(f"{name}={float(v[exc.index])!r}" for name, v in point.items())
        raise LagrangianError(f"quadrature failed at {stage}({where}): {exc}") from exc


def _weight_integral(lag: Lagrangian, x, u, top, stage, **point):
    """integral(base_eff(top)..top) of the weight at flat (x, u): L_p without l1."""
    return _integrate(
        lambda i, s: lag.weight(x[i], u[i], s), lag.base_eff(top), top,
        lag.quad_tol, stage, x=x, u=u, **point,
    )


def build_lagrangian(spec: ProblemSpec, g_provider: GProvider, *,
                     p_base: Optional[float] = None, quad_tol: float = 1e-9) -> Lagrangian:
    """Assemble the energy integrand for one model and one g representation.

    ``p_base`` overrides the probed base point; ``quad_tol`` is the
    tolerance of every quadrature of the density.
    """
    p_base, probe_info = _probe(spec, g_provider, p_base)
    return Lagrangian(
        spec=spec,
        g_provider=g_provider,
        p_base=p_base,
        quad_tol=quad_tol,
        singular_weight=probe_info["singular_weight"],
        metadata={
            **probe_info,
            "p_base": p_base,
            "quad_tol": quad_tol,
            "l1_kind": {(): "zero", (0.0,): "left", (1.0,): "right"}.get(
                _robin_ends(spec), "interp"),
            "g_variant": g_provider.variant,
            "normalization": {"p0": g_provider.p0, "g0": g_provider.g0},
        },
    )


def _exp_g_reaction(lag: Lagrangian, x, u):
    """exp(g) * reaction at (x, u, p_base), resolving 0*inf limits by probing.

    The direct value wins where finite and D(p_base) != 0; where D vanishes,
    R/D is 0/0 and g only a limit.  Elsewhere the product is probed at
    p_base + 1e-6 and 1e-7: agreement means a finite limit, decay means limit
    0, growth means the integrand diverges and another p_base is needed.
    """
    spec = lag.spec
    p_base = lag.p_base
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))

    def at(xs, us, p):
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = np.broadcast_to(spec.reaction(xs, us, p), xs.shape)
            gv = np.asarray(lag.g_provider(xs, us, p), dtype=float)
            # A non-finite g covers the genuine 0*inf form: defer to the probe.
            return np.where(np.isfinite(gv), np.exp(gv) * f0, np.nan)

    out = np.full(x.shape, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        live = np.broadcast_to(spec.diffusion_coeff(x, u, p_base), x.shape) != 0.0
    out[live] = at(x[live], u[live], p_base)
    bad = ~np.isfinite(out)
    if not bad.any():
        return out
    xb, ub = x[bad], u[bad]
    t6 = at(xb, ub, p_base + 1e-6)
    t7 = at(xb, ub, p_base + 1e-7)
    undefined = ~(np.isfinite(t6) & np.isfinite(t7))
    agree = np.abs(t7 - t6) <= 1e-3 * (1.0 + np.abs(t7))
    decays = ~agree & (np.abs(t7) < 0.5 * np.abs(t6))
    grows = ~agree & ~decays & (np.abs(t7) > 2.0 * np.abs(t6))
    for mask, what in ((undefined, "undefined near"), (grows, "diverges at")):
        if mask.any():
            i = int(np.flatnonzero(mask)[0])
            raise LagrangianError(
                f"compatibility integrand {what} p_base={p_base!r} at "
                f"(x={float(xb[i])!r}, u={float(ub[i])!r}); choose a different p_base"
            )
    out[bad] = np.where(decays, 0.0, t7)
    return out


def _l0(lag: Lagrangian, x, u):
    """The p-free part, integrated from l0(x, 0) = 0 (see the module docstring)."""
    both = len(_robin_ends(lag.spec)) == 2

    def integrand(i, s):
        l1_x = 0.0
        if both:
            left, right = lag._end_l1((0.0, 1.0), s)
            l1_x = right - left
        return l1_x + _exp_g_reaction(lag, x[i], s)

    return _integrate(integrand, 0.0, u, lag.quad_tol, "l0", x=x, u=u)


def _points(x, u, p):
    """The broadcast query arrays, flattened, and their common shape.

    A subnormal gradient is flushed to 0: a weight like 1/|p| overflows
    there, while at p = 0 the density is finite.
    """
    bx, bu, bp = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(u, dtype=float), np.asarray(p, dtype=float)
    )
    bp = np.where(np.abs(bp) < np.finfo(float).tiny, 0.0, bp)
    return bx.ravel(), bu.ravel(), bp.ravel(), bx.shape


def _shaped(values, shape):
    return values.reshape(shape) if shape else float(values[0])


def eval_L(lag: Lagrangian, x, u, p):
    """L(x, u, p): repeated weight integral plus l0 plus l1 * p."""
    x, u, p, shape = _points(x, u, p)
    core = _integrate(
        lambda i, s: (p[i] - s) * lag.weight(x[i], u[i], s), lag.base_eff(p), p,
        lag.quad_tol, "L", x=x, u=u, p=p,
    )
    return _shaped(core + _l0(lag, x, u) + lag.l1(x, u) * p, shape)


def eval_Lp(lag: Lagrangian, x, u, p):
    """dL/dp: one weight integral plus l1."""
    x, u, p, shape = _points(x, u, p)
    return _shaped(_weight_integral(lag, x, u, p, "L_p", p=p) + lag.l1(x, u), shape)


def eval_Lpp(lag: Lagrangian, x, u, p):
    """d2L/dp2: the weight itself, no quadrature."""
    x, u, p, shape = _points(x, u, p)
    return _shaped(lag.weight(x, u, p), shape)


def second_difference_lpp(lag: Lagrangian, x, u, p, h: float = 5e-3):
    """Five-point second difference of eval_L in p.

    Fourth-order accurate, so the step can stay large enough that quadrature
    noise (about quad_tol / h^2) does not dominate.
    """
    x, u, p, shape = _points(x, u, p)
    k = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    v = eval_L(lag, x[:, None], u[:, None], p[:, None] + k * h)
    second = (
        -v[:, 0] + 16.0 * v[:, 1] - 30.0 * v[:, 2] + 16.0 * v[:, 3] - v[:, 4]
    ) / (12.0 * h * h)
    return _shaped(second, shape)


def _affine_residuals(u_values, p_values, numeric, reference):
    """Max abs residual after removing, per u-row, the best affine-in-p fit.

    The construction determines L only up to c0(x,u) + c1(x,u)*p, so the
    comparison quotient out exactly that slack and nothing more.
    """
    resid = np.empty_like(numeric)
    design = np.column_stack([np.ones_like(p_values), p_values])
    for i in range(len(u_values)):
        diff = numeric[i] - reference[i]
        coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
        resid[i] = diff - design @ coef
    return resid


def compare_closed_form(lag: Lagrangian, u_values, p_values, x: float = 0.0) -> dict:
    """Numeric L against the builtin's closed form on a (u, p) grid.

    Residuals are reported after the per-u affine-in-p fit.  When the model
    also ships a separately documented variant that disagrees with the direct
    construction, its residual table and the explanatory note are included
    instead of silently preferring either formula.
    """
    forms = lag.spec.closed_forms
    if forms is None or forms.lagrangian is None:
        return {
            "model": lag.spec.name,
            "oracle": None,
            "note": "oracle disabled"
            + (f": {forms.lagrangian_note}" if forms and forms.lagrangian_note else ""),
        }
    u_values = np.asarray(u_values, dtype=float)
    p_values = np.asarray(p_values, dtype=float)
    uu, pp = np.meshgrid(u_values, p_values, indexing="ij")
    numeric = eval_L(lag, x, uu, pp)
    closed = np.asarray(forms.lagrangian(uu, pp), dtype=float)
    resid = _affine_residuals(u_values, p_values, numeric, closed)
    out = {
        "model": lag.spec.name,
        "oracle": "closed_form",
        "x": x,
        "u": u_values,
        "p": p_values,
        "L_numeric": numeric,
        "L_closed": closed,
        "residual": resid,
        "max_residual": float(np.max(np.abs(resid))),
        "note": forms.lagrangian_note,
    }
    if forms.documented_lagrangian is not None:
        documented = np.asarray(forms.documented_lagrangian(uu, pp), dtype=float)
        resid_doc = _affine_residuals(u_values, p_values, numeric, documented)
        out["documented"] = {
            "L_documented": documented,
            "residual": resid_doc,
            "max_residual": float(np.max(np.abs(resid_doc))),
            "note": forms.documented_note,
            "discrepancy_detected": bool(
                np.max(np.abs(resid_doc)) > 10.0 * max(np.max(np.abs(resid)), 1e-12)
            ),
        }
    return out
