"""Characteristic curves of the gradient-weight transport problem.

The energy construction needs a scalar field g(x, u, p) whose exponential
weights the diffusion coefficient.  Along the auxiliary curves

    dx/dtau = diffusion_coeff,      du/dtau = diffusion_coeff * p,
    dp/dtau = reaction,             dg/dtau = -reaction_dp
                                              - diffusion_coeff_dx
                                              - p * diffusion_coeff_du,

g satisfies an ODE.  One integrator advances a batch of curves as one
component-major (4, n) array, one contiguous row per component, each curve
toward the plane x = ``x_end``, forward or backward in x; a lone curve is a
batch of one.  It returns where each curve ended, how many steps it
accepted and why it stopped, and keeps no other state.  The landing clamp
divides the gap to the plane by the speed toward it, so in either direction
the first attempt lands at the starting speed.  The field writes the
values of the spec's evaluators into the rows of an array it owns, which
broadcasts a constant; a pass sums the stages into reused buffers in
the order Python's ``sum`` adds them, and filters its batch only after a
curve stops, so every bit is what the plain expressions give.

Three queryable representations are provided: closed-form (``analytic_g``),
integration of dg/dp at a frozen base point (``reduced_ode_g``), and the
exact solution normalized on the plane x = 0, found by tracing each query's
curve back to that plane (``tabulate_g``).

Since diffusion_coeff >= 0, x moves monotonically toward the plane along a
curve, and the fifth-order update used here keeps that guarantee exactly:
its weights are all nonnegative, so the x increment is a nonnegative
combination of stage values of the directed speed.
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

# A step that crosses the plane x = x_end by more than this is redone with
# the secant step that lands on it; a curve this close to the plane has
# reached it.
_LAND_TOL = 1e-12
# A curve's first attempted step: the length of the unit interval, so with
# the landing clamp it is the step that reaches the plane at the starting
# speed.
_DT0 = 1.0
# dx/dtau below this counts toward a stall, and this many accepted steps
# in a row below it end a curve as STALLED.
_STALL_EPS = 1e-12
_STALL_WINDOW = 50
# A curve whose |p| or |g| passes this ends as BLOWUP.
_BLOWUP_CAP = 1e8
# Attempts, accepted or not, before a curve ends as MAX_STEPS.
_MAX_STEPS = 200000
# A step below this raises.
_DT_MIN = 1e-14


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
    """Tolerance, tau budget and plane of the curve integrator.

    The first step, the stall threshold and window, the blow-up cap, the
    attempt budget and the smallest step are the module constants ``_DT0``,
    ``_STALL_EPS``, ``_STALL_WINDOW``, ``_BLOWUP_CAP``, ``_MAX_STEPS`` and
    ``_DT_MIN``.
    """

    tol: float = 1e-8
    tau_max: float = 50.0
    x_end: Optional[float] = 1.0


# Cash-Karp 5(4) tableau.  The fifth-order weights _B5 are all nonnegative,
# which is what makes the x component provably non-decreasing per step.
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
    """dg/dtau on a curve, the curve field's g row; ``reduced_g`` divides it by the reaction."""
    return -(spec.reaction_dp(x, u, p) + spec.diffusion_coeff_dx(x, u, p)
             + p * spec.diffusion_coeff_du(x, u, p))


def _weighted_step(y, h, weights, ks, out, term):
    """``y + h * sum(w * k for w, k in zip(weights, ks))`` into ``out``, bit for bit.

    ``out`` and ``term`` have the rows of ``y``, and each ``k`` gives its first
    rows.  The sum adds the terms in stage order to +0.0, as Python's ``sum``
    does, so a -0.0 first term still becomes +0.0, and a zero weight still
    turns an infinite stage value into nan.
    """
    rows = len(out)
    np.multiply(ks[0][:rows], weights[0], out=out)
    out += 0.0
    for w, k in zip(weights[1:], ks[1:]):
        out += np.multiply(k[:rows], w, out=term)
    out *= h
    out += y
    return out


# The curve engine's termination codes index this array.
_TERMINATIONS = np.array([Termination.REACHED_X_END, Termination.STALLED,
                          Termination.BLOWUP, Termination.MAX_STEPS], dtype=object)
_REACHED, _STALLED, _BLOWUP, _OUT_OF_STEPS = range(4)


def _integrate_curves(spec: ProblemSpec, starts, controls: CharControls):
    """Advance one curve per start row (x0, u0, p0, g0), all as one batch.

    The batch is stored component-major, as a (4, n) array with one
    contiguous row per component, so every field callback and stage sum runs
    on contiguous rows.  Each curve moves toward the plane x =
    ``controls.x_end``: its step is multiplied by the sign of ``x_end - x0``
    (+1.0 when there is no plane, or it lies ahead), so tau grows either way,
    and the landing clamp divides the gap to the plane by the speed toward
    it, so the first attempt lands at the starting speed in both directions.
    A curve that starts on the plane has reached it.  Each curve has its own
    step size, attempts, stall count and termination; every operation is
    elementwise, so a curve does not depend on its batch.  Returns, in start
    order, each curve's last accepted (tau, x, u, p, g) row as an (n, 5)
    array, its number of accepted steps, and its termination as an object
    array.

    The field writes the values of the spec's evaluators into the rows of a
    (4, n) array of its own, as the solver's kernel does; that assignment
    broadcasts a constant.  A live curve's state is its last accepted row,
    so a row is written out only when its curve stops.  Until a curve stops
    nothing is filtered, and in a pass that accepts every step the
    controller takes only its accept branch.
    """
    system = spec.char_system

    def field(y, stage=False):
        """The field at the columns of ``y``; a start or accepted state must give finite values.

        A trial ``stage`` is not checked: a non-finite value there makes the
        step's error estimate nan, so the step is rejected and shrunk.
        """
        x, u, p = y[0], y[1], y[2]
        k = np.empty((4, len(x)))
        if system is not None:
            out = system(x, u, p)
            if len(out) != 4:
                raise CharacteristicsError(f"curve field returned {len(out)} components, not 4")
            for row, value in zip(k, out):
                row[...] = value
        else:
            k[0] = spec.diffusion_coeff(x, u, p)
            np.multiply(k[0], p, out=k[1])
            k[2] = spec.reaction(x, u, p)
            k[3] = _g_rate(spec, x, u, p)
        if not stage and not np.isfinite(k).all():
            bad = ~np.all(np.isfinite(k), axis=0)
            raise CharacteristicsError(
                f"curve field returned a bad value at state {tuple(y[:, bad.argmax()].tolist())}"
            )
        return k

    starts = np.asarray(starts, dtype=float).reshape(-1, 4)
    n = len(starts)
    x_end = math.inf if controls.x_end is None else controls.x_end
    tau_end = controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max))
    # Each curve's last accepted row, accepted-step count and termination code.
    last = np.empty((5, n))
    last[0], last[1:] = 0.0, starts.T
    n_steps = np.zeros(n, dtype=int)
    sign = np.where(starts[:, 0] > x_end, -1.0, 1.0)
    gap = sign * (x_end - starts[:, 0])
    live = gap > _LAND_TOL
    codes = np.where(live, _OUT_OF_STEPS, _REACHED)
    # The live curves: start index, state, directed gap to the plane, tau,
    # next step, stall run, accepted steps and field.
    idx, y = np.flatnonzero(live), np.compress(live, last[1:], axis=1)
    sign, gap = sign[live], gap[live]
    m = len(idx)
    tau, dt = np.zeros(m), np.full(m, _DT0)
    stall, count = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    k0 = field(y)
    step = 0

    def stop(gone):
        """Write out the last rows and step counts of the live curves ``gone`` selects."""
        j = idx[gone]
        last[0, j] = tau[gone]
        last[1:, j] = y[:, gone]
        n_steps[j] = count[gone]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Each live curve makes one attempt per pass: ``step`` counts them all.
        while step < _MAX_STEPS and m:
            step += 1
            # Hard clamps: land exactly on tau_max, and stop where the plane
            # lies at the current speed toward it.  The field is not directed,
            # so k0[0] is that speed in either direction.
            to_end = np.where(k0[0] > 0.0, gap / k0[0], math.inf)
            dt = np.minimum(np.minimum(dt, controls.tau_max - tau), to_end)
            # A landing step may be as short as the gap makes it; only the
            # controller's step underflows.
            under = (dt < _DT_MIN) & (dt != to_end)
            if under.any():
                # Name the first such curve by its start row and state (x, u, p, g).
                j = under.argmax()
                message = (f"step size underflow at tau={float(tau[j])!r} on the curve from "
                           f"{tuple(starts[idx[j]].tolist())}, now at {tuple(y[:, j].tolist())}")
                if k0[0, j] < 0.0 and controls.x_end is not None:
                    message += f": the field moves it away from the plane x = {controls.x_end!r}"
                raise CharacteristicsError(message)
            # The directed step: multiplying by the sign is exact, so this is
            # the same as directing every field value.  A stage reads x, u and
            # p only, so its input leaves out the g row.
            h = dt * sign
            stage_in, term, y4, y5 = (np.empty((rows, m)) for rows in (3, 4, 4, 4))
            ks = [k0]
            for a in _A[1:]:
                ks.append(field(_weighted_step(y[:3], h, a, ks, stage_in, term[:3]), stage=True))
            _weighted_step(y, h, _B5, ks, y5, term)
            _weighted_step(y, h, _B4, ks, y4, term)
            # err = max over the rows of |y5 - y4| / (tol * (1 + |y5|)).
            np.subtract(y5, y4, out=y4)
            np.abs(y4, out=y4)
            np.abs(y5, out=term)
            term += 1.0
            term *= controls.tol
            y4 /= term
            err = y4.max(axis=0)
            # A step that passes the plane is redone with the secant step to it.
            gap5 = sign * (x_end - y5[0])
            over = (err <= 1.0) & (gap5 < -_LAND_TOL)
            ok = (err <= 1.0) & ~over
            # float_power rounds as libm's pow; an array ``**`` may take a SIMD path.
            grow = np.float_power(err + 1e-300, -0.2)
            grow *= 0.9
            np.minimum(5.0, np.maximum(0.2, grow, out=grow), out=grow)
            if ok.all():
                tau += dt
                y, gap = y5, gap5
                dt *= grow
                count += 1
            else:
                tau = np.where(ok, tau + dt, tau)
                y = np.where(ok, y5, y)
                dt = np.where(over, dt * gap / (gap - gap5), dt * np.where(
                    ok, grow,
                    np.where(np.isfinite(err),
                             np.maximum(0.2, 0.9 * np.float_power(err, -0.25)), 0.2),
                ))
                gap = np.where(ok, gap5, gap)
                count += ok
            # Accepted states are finite: a non-finite y5 makes err nan.
            blowup = ok & (np.max(np.abs(y[2:]), axis=0) > _BLOWUP_CAP)
            reached = ok & ~blowup & (gap <= _LAND_TOL)
            moving = ok & ~(blowup | reached | (tau >= tau_end))
            if moving.all():
                k0 = field(y)
            elif moving.any():
                k0[:, moving] = field(np.compress(moving, y, axis=1))
            slow = np.abs(k0[0]) < _STALL_EPS
            stall = np.where(moving, np.where(slow, stall + 1, 0), stall)
            stalled = moving & (stall >= _STALL_WINDOW)
            keep = ~ok | (moving & ~stalled)
            if keep.all():
                continue
            for stopped, code in ((blowup, _BLOWUP), (reached, _REACHED), (stalled, _STALLED)):
                codes[idx[stopped]] = code
            if not keep.any():
                # Every curve stopped, as a batch that lands in one pass does.
                stop(slice(None))
                break
            stop(~keep)
            idx, sign, gap, tau, dt, stall, count = (
                a[keep] for a in (idx, sign, gap, tau, dt, stall, count))
            y, k0 = (np.compress(keep, a, axis=1) for a in (y, k0))
            m = len(idx)
        else:
            # The attempt budget ran out: the live curves end as MAX_STEPS.
            stop(slice(None))

    return last.T, n_steps, _TERMINATIONS[codes]


def integrate_characteristics(spec: ProblemSpec, init: dict,
                              controls: CharControls = CharControls()) -> CharTrajectory:
    """Integrate one characteristic curve toward the plane x = ``controls.x_end``.

    ``init`` supplies u0, p0 and optionally x0 and g0 (default 0 both).  The
    curve runs forward in x when the plane lies ahead of x0 (or there is
    none) and backward when it lies behind.  It is advanced with an embedded
    5(4) pair under a mixed absolute/relative error target ``controls.tol``;
    a step that would pass the plane is redone with the secant step that
    lands on it.  Termination is an observation, not a failure: reaching
    ``x_end``, stalling (dx/dtau below ``_STALL_EPS`` for ``_STALL_WINDOW``
    accepted steps), p or g passing ``_BLOWUP_CAP``, or exhausting
    ``_MAX_STEPS`` attempts or ``tau_max``.  The first attempt is ``_DT0``.
    The trajectory holds the curve's last state, its accepted-step count
    and its termination; ``len`` counts the start and each accepted step.
    Only a controlled step below ``_DT_MIN`` (a landing step may be shorter)
    or a non-finite field value at the start or at an accepted state raises;
    a non-finite value at a trial stage rejects that step.

    Models may supply ``char_system`` to integrate a rescaled field with the
    same curve geometry; the porous-medium builtin does this to remove the
    shared degenerate factor from the flow speed.  The curve is a batch of
    one for the integrator that ``tabulate_g`` uses.
    """
    start = (init.get("x0", 0.0), init["u0"], init["p0"], init.get("g0", 0.0))
    last, n_steps, ends = _integrate_curves(spec, [start], controls)
    return CharTrajectory(CharState(*last[0].tolist()), int(n_steps[0]), ends[0])


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
    followed backward in tau until it reaches x = 0; the answer is g0 minus
    the g gained along the way, so it solves the transport equation exactly
    up to the integrator's tolerance.  All queries of a call advance as one
    batch, and each answer depends only on its own query.  The plane is
    reachable wherever the diffusion coefficient is positive.  A curve that
    stalls, blows up or runs out of tau is answered with nan, and counted in
    ``extrapolations``.

    The function name, the "tabulated" variant and the ``extrapolations``
    field are kept from an earlier interpolation table, because the
    benchmark's tracer binds them by name and its configs name the mode.
    """
    controls = CharControls(x_end=0.0)

    def evaluate(x, u, p):
        x, u, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, u, p)))
        starts = np.column_stack([x.ravel(), u.ravel(), p.ravel(), np.zeros(x.size)])
        last, _, ends = _integrate_curves(spec, starts, controls)
        reached = ends == Termination.REACHED_X_END
        provider.extrapolations += int(np.count_nonzero(~reached))
        out = np.where(reached, g0 - last[:, 4], np.nan)
        return out.reshape(x.shape) if x.ndim else float(out[0])

    provider = GProvider("tabulated", None, g0, evaluate)
    return provider
