"""Characteristic curves of the gradient-weight transport problem.

The energy construction needs a scalar field g(x, u, p) whose exponential
weights the diffusion coefficient.  Along the auxiliary curves

    dx/dtau = diffusion_coeff,      du/dtau = diffusion_coeff * p,
    dp/dtau = reaction,             dg/dtau = -reaction_dp
                                              - diffusion_coeff_dx
                                              - p * diffusion_coeff_du,

g satisfies an ODE.  Divided by dx/dtau, the same curves have x as their
parameter: du/dx = p, dp/dx = reaction / diffusion_coeff, and dg/dx is the
g rate over diffusion_coeff.

Three queryable representations are provided: closed-form (``analytic_g``),
integration of dg/dp at a frozen base point (``reduced_ode_g``), and the
exact solution normalized on the plane x = 0, found by tracing each query's
curve in x back to that plane (``tabulate_g``).  ``integrate_characteristics``
follows one curve in tau instead.  Both engines take the same Cash-Karp 5(4)
step under the same error target.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import QuadratureError, integrate_batch
from .models import ProblemSpec

__all__ = [
    "Termination",
    "CharState",
    "CharTrajectory",
    "CharControls",
    "CharacteristicsError",
    "ReducedGError",
    "integrate_characteristics",
    "reduced_g",
    "GProvider",
    "canonical_p0",
    "analytic_g",
    "reduced_ode_g",
    "tabulate_g",
]

# A curve whose |p| or |g| passes this ends as BLOWUP, or is unreached.
_BLOWUP_CAP = 1e8
# Attempts, accepted or not, before a curve ends as MAX_STEPS, or is unreached.
_MAX_STEPS = 200000
# A controlled step below this raises in tau and leaves a query unreached in x.
_DT_MIN = 1e-14
# The tau engine only.  A step that crosses the plane x = x_end by more than
# this is redone with the secant step that lands on it; a curve this close to
# the plane has reached it.
_LAND_TOL = 1e-12
# The first attempted tau step.
_DT0 = 1.0
# dx/dtau below this counts toward a stall, and this many accepted steps in a
# row below it end a curve as STALLED.
_STALL_EPS = 1e-12
_STALL_WINDOW = 50


class CharacteristicsError(RuntimeError):
    pass


class ReducedGError(RuntimeError):
    pass


class Termination(enum.Enum):
    REACHED_X_END = "reached_x_end"
    STALLED = "stalled"
    BLOWUP = "blowup"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class CharState:
    tau: float
    x: float
    u: float
    p: float
    g: float


@dataclass(frozen=True)
class CharTrajectory:
    """Where a curve ended, after how many accepted steps, and why it stopped."""

    final: CharState
    n_steps: int
    termination: Termination

    def __len__(self):
        """The states the curve passed through: its start and each accepted step."""
        return self.n_steps + 1


@dataclass(frozen=True)
class CharControls:
    """Tolerance, tau budget and plane of ``integrate_characteristics``.

    ``tabulate_g`` reads the default ``tol`` alone.  The other limits are the
    module constants ``_BLOWUP_CAP``, ``_MAX_STEPS`` and ``_DT_MIN``, and, in
    tau only, ``_LAND_TOL``, ``_DT0``, ``_STALL_EPS`` and ``_STALL_WINDOW``.
    """

    tol: float = 1e-8
    tau_max: float = 50.0
    x_end: Optional[float] = 1.0


# Cash-Karp 5(4) tableau: nodes, stage weights and the two updates.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0, 277.0 / 14336.0, 1.0 / 4.0)


def _g_rate(spec: ProblemSpec, x, u, p):
    """dg/dtau on a curve; ``reduced_g`` divides it by the reaction, the x engine by D."""
    return -(spec.reaction_dp(x, u, p) + spec.diffusion_coeff_dx(x, u, p)
             + p * spec.diffusion_coeff_du(x, u, p))


# The stage weights and the two updates as arrays over the stage axis of a
# (stages, rows, curves) stack: the fifth-order update and the error, the
# fifth- minus the fourth-order update.
_STAGE_WEIGHTS = [np.array(a).reshape(-1, 1, 1) for a in _A]
_B5_E = np.array([_B5, np.subtract(_B5, _B4)]).reshape(2, -1, 1, 1)


def _cash_karp(field, t, y, k0, h, tol):
    """One Cash-Karp attempt of step ``h`` from ``(t, y)``, where the field is ``k0``.

    ``y`` has one row per component and one column per curve.  Returns the
    fifth-order state, the factor to scale ``h`` by for the next attempt, and
    whether the step is accepted: its error, the largest over the rows of
    |y5 - y4| / (tol * (1 + |y5|)), is at most 1.  Each weighted sum adds its
    stages in stage order, whatever the number of curves, and a zero weight
    still turns an infinite stage value into nan: a non-finite stage makes the
    error nan and rejects the step.
    """
    ks = np.empty((6, *y.shape))
    ks[0] = k0
    ts = t + np.multiply.outer(_C, h)
    for i in range(1, 6):
        field(ts[i], y + h * np.add.reduce(_STAGE_WEIGHTS[i] * ks[:i]), ks[i])
    step, diff = h * np.add.reduce(_B5_E * ks, axis=1)
    y5 = y + step
    err = np.max(np.abs(diff) / (tol * (1.0 + np.abs(y5))), axis=0)
    # A nan error (fmax ignores it) or an infinite one shrinks by the floor.
    # float_power rounds as libm's pow; an array ``**`` may take a SIMD path.
    scale = np.minimum(5.0, np.fmax(0.2, 0.9 * np.float_power(err + 1e-300, -0.2)))
    return y5, scale, err <= 1.0


def _trace_to_plane(spec: ProblemSpec, x, u, p, tol):
    """The g gained along each query's curve from its x to the plane x = 0.

    The state is (u, p, g) from g = 0, and x runs from the query's x to 0,
    the last step clamped to what is left.  A curve that cannot finish gives
    nan: a non-finite x, or a non-finite field at its start or at an
    accepted state; a controlled step below ``_DT_MIN``; |p| or |g| past
    ``_BLOWUP_CAP``; or ``_MAX_STEPS`` attempts.  The live curves advance as
    one batch, but every operation is elementwise, so a curve does not
    depend on its batch.
    """

    def field(x, y, k=None):
        u, p = y[0], y[1]
        k = np.empty(y.shape) if k is None else k
        d = spec.diffusion_coeff(x, u, p)
        k[0] = p
        np.divide(spec.reaction(x, u, p), d, out=k[1])
        np.divide(_g_rate(spec, x, u, p), d, out=k[2])
        return k

    gained = np.where(x == 0.0, 0.0, np.nan)
    idx = np.flatnonzero(x != 0.0)
    # The live curves: query index, x, state, field there and next step.
    t, y = x[idx], np.stack([u[idx], p[idx], np.zeros(idx.size)])
    with np.errstate(all="ignore"):
        k0 = field(t, y)
        live = np.isfinite(t) & np.isfinite(k0).all(axis=0)
        idx, t, y, k0 = idx[live], t[live], y[:, live], k0[:, live]
        # The first attempt is the whole interval.
        dt = np.abs(t)
        for _ in range(_MAX_STEPS):
            if not idx.size:
                break
            # Clamped to what is left, the last step lands on x = 0 exactly.
            h = np.copysign(np.minimum(dt, np.abs(t)), -t)
            y5, scale, ok = _cash_karp(field, t, y, k0, h, tol)
            dt = np.abs(h) * scale
            if ok.all():
                t, y = t + h, y5
            else:
                t, y = np.where(ok, t + h, t), np.where(ok, y5, y)
            blown = np.abs(y[1:]).max(axis=0) > _BLOWUP_CAP
            moving = ok & (t != 0.0) & ~blown
            if moving.all():
                field(t, y, k0)
            elif moving.any():
                k0[:, moving] = field(t[moving], y[:, moving])
            live = (moving | ~ok) & np.isfinite(k0).all(axis=0)
            live &= dt >= np.minimum(_DT_MIN, np.abs(t))
            if not live.all():
                landed = (t == 0.0) & ~blown
                gained[idx[landed]] = y[2, landed]
                idx, t, y, k0, dt = idx[live], t[live], y[:, live], k0[:, live], dt[live]
    return gained


def integrate_characteristics(spec: ProblemSpec, init: dict,
                              controls: CharControls = CharControls()) -> CharTrajectory:
    """Integrate one characteristic curve in tau toward the plane x = ``controls.x_end``.

    ``init`` supplies u0, p0 and optionally x0 and g0 (default 0 both).  The
    curve runs forward in x when the plane lies ahead of x0 (or there is
    none) and backward when it lies behind.  It is advanced with the
    Cash-Karp 5(4) pair under a mixed absolute/relative error target
    ``controls.tol``.  Each step is clamped to the tau budget and to the gap
    to the plane at the current speed, and a step that would pass the plane
    is redone with the secant step that lands on it.  Termination is an
    observation, not a failure: reaching ``x_end``, stalling (dx/dtau below
    ``_STALL_EPS`` for ``_STALL_WINDOW`` accepted steps), p or g passing
    ``_BLOWUP_CAP``, or exhausting ``_MAX_STEPS`` attempts or ``tau_max``.
    The first attempt is ``_DT0``.  The trajectory holds the curve's last
    state, its accepted-step count and its termination; ``len`` counts the
    start and each accepted step.  Only a controlled step below ``_DT_MIN``
    (a landing step may be shorter) or a non-finite field value at the start
    or at an accepted state raises; a non-finite value at a trial stage
    rejects that step.
    """
    start = np.array([init.get("x0", 0.0), init["u0"], init["p0"], init.get("g0", 0.0)],
                     dtype=float)
    x_end = math.inf if controls.x_end is None else controls.x_end
    tau_end = controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max))
    sign = -1.0 if start[0] > x_end else 1.0

    def field(tau, y, k=None):
        x, u, p = y[0], y[1], y[2]
        k = np.empty(y.shape) if k is None else k
        k[0] = spec.diffusion_coeff(x, u, p)
        np.multiply(k[0], p, out=k[1])
        k[2] = spec.reaction(x, u, p)
        k[3] = _g_rate(spec, x, u, p)
        return k

    def checked(y):
        k = field(tau, y)
        if not np.isfinite(k).all():
            raise CharacteristicsError(
                f"curve field returned a bad value at state {tuple(y[:, 0].tolist())}")
        return k

    # The curve is a batch of one: a column of (x, u, p, g).
    tau, y, dt, stall, n_steps = 0.0, start.reshape(4, 1), _DT0, 0, 0
    if sign * (x_end - start[0]) <= _LAND_TOL:
        return CharTrajectory(CharState(tau, *start.tolist()), 0, Termination.REACHED_X_END)
    k0 = checked(y)
    termination = Termination.MAX_STEPS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            # The field is not directed, so k0[0] is the speed toward the plane.
            speed, gap = float(k0[0, 0]), sign * (x_end - float(y[0, 0]))
            to_end = gap / speed if speed > 0.0 else math.inf
            dt = min(dt, controls.tau_max - tau, to_end)
            if dt < _DT_MIN and dt != to_end:
                message = (f"step size underflow at tau={tau!r} on the curve from "
                           f"{tuple(start.tolist())}, now at {tuple(y[:, 0].tolist())}")
                if speed < 0.0 and controls.x_end is not None:
                    message += f": the field moves it away from the plane x = {controls.x_end!r}"
                raise CharacteristicsError(message)
            y5, scale, ok = _cash_karp(field, tau, y, k0, sign * dt, controls.tol)
            gap5 = sign * (x_end - float(y5[0, 0]))
            if not ok[0]:
                dt *= float(scale[0])
                continue
            if gap5 < -_LAND_TOL:
                # Past the plane: redo with the secant step that lands on it.
                dt *= gap / (gap - gap5)
                continue
            tau, y, n_steps = tau + dt, y5, n_steps + 1
            dt *= float(scale[0])
            if max(abs(y[2, 0]), abs(y[3, 0])) > _BLOWUP_CAP:
                termination = Termination.BLOWUP
            elif gap5 <= _LAND_TOL:
                termination = Termination.REACHED_X_END
            elif tau >= tau_end:
                termination = Termination.MAX_STEPS
            else:
                k0 = checked(y)
                stall = stall + 1 if abs(k0[0, 0]) < _STALL_EPS else 0
                if stall < _STALL_WINDOW:
                    continue
                termination = Termination.STALLED
            break
    return CharTrajectory(CharState(tau, *y[:, 0].tolist()), n_steps, termination)


# ---------------------------------------------------------------------------
# Reduced computation of g as a function of p alone

# The frozen point (x, u) at which the reduced rate is integrated, and the
# quadrature tolerance of that integral.
_X_REF, _U_REF = 0.0, 1.0
_REDUCED_TOL = 1e-12


def reduced_g(spec: ProblemSpec, p, p0: float = 1.0, g0: float = 0.0, method: str = "auto"):
    """g as a function of p alone, normalized to g(p0) = g0.

    Dividing the g rate by dp/dtau turns the curve system into
    dg/dp = (-reaction_dp - diffusion_coeff_dx - p*diffusion_coeff_du) /
    reaction, which is integrated at the frozen point (x, u) = (0, 1) to a
    tolerance of 1e-12.  The result is meaningful when that ratio does not
    depend on the frozen point, which the spec's
    ``shared_factor_reducible`` flag asserts.

    Each query is decided from the two ends of its own path, p0 and its p,
    never from the other queries of its batch:

    * a rate that vanishes at both ends is taken to vanish on the path, and
      g is the constant g0 (rest points of the reaction are immaterial then);
    * a query at a rest point of the reaction is answered with nan (the
      limit is a logarithmic divergence), matching how analytic providers
      report values outside the reachable branch; a reaction whose sign at
      p differs from its sign at p0 raises ``ReducedGError``, because p
      cannot flow across a rest point, and so does a seed p0 at rest;
    * ``method="auto"`` uses the exact logarithm of the reaction ratio when
      the diffusion coefficient has no x or u derivative at either end;
      ``"quadrature"`` always integrates numerically, and an integral that
      does not converge (a rest point touched without a sign change)
      raises ``ReducedGError``.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if not spec.shared_factor_reducible:
        raise ReducedGError(f"model {spec.name!r} is not flagged reducible to g(p)")

    shape = np.shape(p)
    q = np.asarray(p, dtype=float).ravel()
    out = np.full(q.shape, np.nan)

    def result():
        return out.reshape(shape) if shape else float(out[0])

    # Each query's own p, then the seed: the two ends of every path.
    ends = np.append(q, p0)
    with np.errstate(all="ignore"):
        coef_dx, coef_du, rate = (np.broadcast_to(value, ends.shape) for value in (
            spec.diffusion_coeff_dx(_X_REF, _U_REF, ends),
            spec.diffusion_coeff_du(_X_REF, _U_REF, ends), _g_rate(spec, _X_REF, _U_REF, ends)))
    still = (rate[:-1] == 0.0) & (rate[-1] == 0.0)
    out[still] = g0
    if still.all():
        return result()

    f0_seed = float(spec.reaction(_X_REF, _U_REF, p0))
    # Scaled by the seed alone, so that no verdict on a query depends on its batch.
    rest_tol = 1e-13 * (1.0 + abs(f0_seed))
    if abs(f0_seed) <= rest_tol:
        raise ReducedGError(f"the seed gradient p0={p0!r} is a rest point of the reaction")
    f0 = np.broadcast_to(spec.reaction(_X_REF, _U_REF, q), q.shape)
    active = ~still & ~(np.abs(f0) <= rest_tol)
    finite = np.isfinite(f0) & np.isfinite(rate[:-1]) & np.isfinite(rate[-1])
    crossing = np.sign(f0) != np.sign(f0_seed)
    for bad, why in ((~finite, "reaction or its derivatives are not finite"),
                     (crossing, "p cannot flow across a rest point: the reaction changes sign")):
        if (active & bad).any():
            raise ReducedGError(f"{why} between p0={p0!r} and p={float(q[active & bad][0])!r}")

    pure_p = (coef_dx == 0.0) & (coef_du == 0.0)
    log = active & pure_p[:-1] & pure_p[-1] & (method == "auto")
    out[log] = g0 + np.log(np.abs(f0_seed / f0[log]))
    quad = active & ~log
    if quad.any():
        def ratio(idx, s):
            return _g_rate(spec, _X_REF, _U_REF, s) / spec.reaction(_X_REF, _U_REF, s)

        try:
            out[quad] = g0 + integrate_batch(ratio, p0, q[quad], _REDUCED_TOL)
        except QuadratureError as exc:
            # Where the reaction touches zero without changing sign.
            raise ReducedGError(f"dg/dp is not integrable between p0={p0!r} and "
                                f"p={float(q[quad][exc.index])!r}: {exc}") from None
    return result()


# ---------------------------------------------------------------------------
# Queryable g representations


@dataclass
class GProvider:
    """A queryable g(x, u, p) with its normalization and provenance.

    ``variant`` is one of "analytic", "reduced_ode", "tabulated".  Analytic
    and reduced variants are functions of p alone, normalized at the
    gradient ``p0``, and are x-independent; the tabulated variant is
    normalized on the plane x = 0 instead, so its ``p0`` is None.
    ``extrapolations`` counts the queries answered with nan because their
    curve did not reach that plane.
    """

    variant: str
    p0: Optional[float]
    g0: float
    _eval: Callable = field(repr=False)
    extrapolations: int = 0

    def __call__(self, x, u, p):
        return self._eval(x, u, p)


def canonical_p0(spec: ProblemSpec) -> float:
    """The seed gradient of the spec's closed forms, or 1.0 when it ships none.

    A provider built with ``p0=None`` is normalized here, so its g lines up
    with the shipped closed forms without rescaling.
    """
    return spec.closed_forms.canonical_p0 if spec.closed_forms is not None else 1.0


def analytic_g(spec: ProblemSpec, p0: Optional[float] = None, g0: float = 0.0) -> GProvider:
    """Closed-form provider from the builtin's shipped g(p); ``p0=None`` is the canonical p0."""
    if spec.closed_forms is None or spec.closed_forms.g_of_p is None:
        raise ValueError(f"model {spec.name!r} ships no closed-form g")
    g_of_p = spec.closed_forms.g_of_p
    p0 = canonical_p0(spec) if p0 is None else p0

    def evaluate(x, u, p):
        # Degenerate gradients may map to +-inf or nan; downstream consumers
        # treat those as off-branch values, so evaluate quietly.
        with np.errstate(divide="ignore", invalid="ignore"):
            return g_of_p(np.asarray(p, dtype=float), p0, g0)

    return GProvider("analytic", p0, g0, evaluate)


def reduced_ode_g(spec: ProblemSpec, p0: Optional[float] = None, g0: float = 0.0) -> GProvider:
    """Provider that integrates dg/dp on demand; ``p0=None`` is the canonical p0.

    Each query integrates from p0 afresh, so a value depends only on its own
    p, never on the batch it arrives in or on earlier queries.
    """
    p0 = canonical_p0(spec) if p0 is None else p0

    def evaluate(x, u, p):
        return reduced_g(spec, p, p0, g0)

    return GProvider("reduced_ode", p0, g0, evaluate)


def tabulate_g(spec: ProblemSpec, g0: float = 0.0) -> GProvider:
    """g with g = g0 on the plane x = 0, by tracing each query's curve back to it.

    For each query (x, u, p) the characteristic curve through that point is
    followed in x, with state (u, p, g) and field (p, R/D, rate/D), from the
    query's x to the plane; the answer is g0 minus the g gained along the
    way, so it solves the transport equation exactly up to the Cash-Karp
    step's tolerance ``CharControls.tol``.  There is no tau budget.  All
    queries of a call advance as one batch, and each answer depends only on
    its own query.  A query whose curve cannot finish is answered with nan
    and counted in ``extrapolations``: a non-finite field at its start or at
    an accepted state, a controlled step below ``_DT_MIN``, |p| or |g| past
    ``_BLOWUP_CAP``, or ``_MAX_STEPS`` attempts.  Nothing is raised for a
    query.

    The function name, the "tabulated" variant and the ``extrapolations``
    field are kept from an earlier interpolation table, because the
    benchmark's tracer binds them by name and its configs name the mode.
    """
    tol = CharControls.tol

    def evaluate(x, u, p):
        x, u, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, u, p)))
        out = g0 - _trace_to_plane(spec, x.ravel(), u.ravel(), p.ravel(), tol)
        provider.extrapolations += int(np.count_nonzero(np.isnan(out)))
        return out.reshape(x.shape) if x.ndim else float(out[0])

    provider = GProvider("tabulated", None, g0, evaluate)
    return provider
