"""Characteristic curves of the gradient-weight transport problem.

The energy construction needs a scalar field g(x, u, p) whose exponential
weights the diffusion coefficient.  Along the auxiliary curves

    dx/dtau = diffusion_coeff,      du/dtau = diffusion_coeff * p,
    dp/dtau = reaction,             dg/dtau = -reaction_dp
                                              - diffusion_coeff_dx
                                              - p * diffusion_coeff_du,

g satisfies an ODE, so integrating the curves from the seed plane x = 0
(where g is fixed to 0) samples the field.  Three queryable representations
are provided: closed-form (``analytic_g``), integration of dg/dp at a frozen
base point (``reduced_ode_g``, valid when that ratio does not depend on the
frozen point), and scattered-sample interpolation over many integrated
curves (``tabulate_g``).

Since diffusion_coeff >= 0, x never decreases along a curve, and the
fifth-order update used here keeps that guarantee exactly: its weights are
all nonnegative, so the x increment is a nonnegative combination of stage
values of the diffusion coefficient.
"""

import dataclasses
import enum
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from .quadrature import integrate_batch
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
    "analytic_g",
    "reduced_ode_g",
    "tabulate_g",
    "trajectory_csv",
]


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
    states: tuple
    termination: Termination

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    @property
    def final(self) -> CharState:
        return self.states[-1]


@dataclass(frozen=True)
class CharControls:
    """Step-size and termination controls for the curve integrator."""

    dt0: float = 1e-3
    tol: float = 1e-8
    tau_max: float = 50.0
    x_end: Optional[float] = 1.0
    stall_eps: float = 1e-12
    stall_window: int = 50
    blowup_cap: float = 1e8
    max_steps: int = 200000
    dt_min: float = 1e-14
    # Upper bound on the accepted step; the tabulation path sets this to keep
    # sample spacing along each curve roughly uniform.
    dt_max: Optional[float] = None


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


def _default_field(spec: ProblemSpec):
    def rhs(x, u, p):
        fq = float(spec.diffusion_coeff(x, u, p))
        dg = (
            -float(spec.reaction_dp(x, u, p))
            - float(spec.diffusion_coeff_dx(x, u, p))
            - p * float(spec.diffusion_coeff_du(x, u, p))
        )
        return (fq, fq * p, float(spec.reaction(x, u, p)), dg)

    return rhs


def integrate_characteristics(spec: ProblemSpec, init: dict,
                              controls: CharControls = CharControls()) -> CharTrajectory:
    """Integrate one characteristic curve from the seed plane x = 0.

    ``init`` supplies u0, p0 and optionally g0 (default 0).  The curve starts
    at x = 0 and is advanced with an embedded 5(4) pair under a mixed
    absolute/relative error target ``controls.tol``.  Termination is an
    observation, not a failure: reaching ``x_end``, stalling (dx/dtau below
    ``stall_eps`` for ``stall_window`` accepted steps), a component passing
    ``blowup_cap``, or exhausting ``max_steps``.  Only a step-size underflow
    raises.

    Models may supply ``char_system`` to integrate a rescaled field with the
    same curve geometry; the porous-medium builtin does this to remove the
    shared degenerate factor from the flow speed.
    """
    field_fn = spec.char_system if spec.char_system is not None else _default_field(spec)
    tau = 0.0
    y = (0.0, float(init["u0"]), float(init["p0"]), float(init.get("g0", 0.0)))
    states = [CharState(tau, *y)]
    dt = float(controls.dt0)
    stall_run = 0
    termination = Termination.MAX_STEPS

    def eval_field(yv):
        out = field_fn(yv[0], yv[1], yv[2])
        if len(out) != 4 or not all(math.isfinite(v) for v in out):
            raise CharacteristicsError(f"curve field returned a bad value at state {yv}")
        return out

    k0 = eval_field(y)
    step = 0
    while step < controls.max_steps:
        step += 1
        # Hard clamps: land exactly on tau_max, and cap so x barely crosses
        # x_end instead of overshooting it.
        if controls.dt_max is not None:
            dt = min(dt, controls.dt_max)
        dt = min(dt, controls.tau_max - tau)
        if controls.x_end is not None and k0[0] > 0.0:
            dt = min(dt, (controls.x_end + 1e-9 - y[0]) / k0[0])
        if dt < controls.dt_min:
            raise CharacteristicsError(f"step size underflow at tau={tau!r}")

        ks = [k0]
        for i in range(1, 6):
            yi = tuple(
                y[c] + dt * sum(_A[i][j] * ks[j][c] for j in range(i)) for c in range(4)
            )
            ks.append(eval_field(yi))
        y5 = tuple(y[c] + dt * sum(_B5[j] * ks[j][c] for j in range(6)) for c in range(4))
        y4 = tuple(y[c] + dt * sum(_B4[j] * ks[j][c] for j in range(6)) for c in range(4))

        err = max(
            abs(y5[c] - y4[c]) / (controls.tol * (1.0 + abs(y5[c]))) for c in range(4)
        )
        if not math.isfinite(err):
            dt *= 0.2
            continue
        if err > 1.0:
            dt *= max(0.2, 0.9 * err ** -0.25)
            continue

        tau += dt
        y = y5
        states.append(CharState(tau, *y))
        k0 = eval_field(y)
        dt *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))

        if abs(y[2]) > controls.blowup_cap or abs(y[3]) > controls.blowup_cap:
            termination = Termination.BLOWUP
            break
        if controls.x_end is not None and y[0] >= controls.x_end:
            termination = Termination.REACHED_X_END
            break
        if tau >= controls.tau_max - 1e-12 * (1.0 + abs(controls.tau_max)):
            termination = Termination.MAX_STEPS
            break
        stall_run = stall_run + 1 if abs(k0[0]) < controls.stall_eps else 0
        if stall_run >= controls.stall_window:
            termination = Termination.STALLED
            break

    return CharTrajectory(tuple(states), termination)


def trajectory_csv(traj: CharTrajectory) -> str:
    lines = ["tau,x,u,p,g"]
    for s in traj.states:
        lines.append(",".join(repr(float(v)) for v in (s.tau, s.x, s.u, s.p, s.g)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reduced computation of g as a function of p alone

_PROBE_N = 65


def reduced_g(spec: ProblemSpec, p, p0: float = 1.0, g0: float = 0.0,
              x_ref: float = 0.0, u_ref: float = 1.0, quad_tol: float = 1e-12,
              method: str = "auto"):
    """g as a function of p alone, normalized to g(p0) = g0.

    Dividing the g rate by dp/dtau turns the curve system into
    dg/dp = (-reaction_dp - diffusion_coeff_dx - p*diffusion_coeff_du) /
    reaction, which is integrated at the frozen point (x_ref, u_ref).  The
    result is meaningful when that ratio does not depend on the frozen point,
    which the ``shared_factor_reducible`` structure flag asserts.

    ``method="auto"`` uses the exact logarithm of the reaction ratio whenever
    the diffusion coefficient has no x or u dependence on the probed range;
    ``"quadrature"`` always integrates numerically.  The reaction must keep
    one sign strictly between p0 and every requested p; a zero crossing
    raises ``ReducedGError`` because p cannot flow across a rest point.  A
    query sitting exactly at a rest point is answered with nan (the limit is
    a logarithmic divergence), matching how analytic providers report values
    outside the reachable branch.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if not spec.structure_flags.shared_factor_reducible:
        raise ReducedGError(f"model {spec.name!r} is not flagged reducible to g(p)")

    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    scalar = np.isscalar(p) or np.asarray(p).ndim == 0

    def rate_at(s):
        return -(
            np.asarray(spec.reaction_dp(x_ref, u_ref, s), dtype=float)
            + np.asarray(spec.diffusion_coeff_dx(x_ref, u_ref, s), dtype=float)
            + s * np.asarray(spec.diffusion_coeff_du(x_ref, u_ref, s), dtype=float)
        )

    # A rate that vanishes on the whole span means g is the constant g0;
    # rest points of the reaction are immaterial in that case.
    span = np.linspace(min(float(np.min(p_arr)), p0), max(float(np.max(p_arr)), p0), _PROBE_N)
    with np.errstate(all="ignore"):
        rate_span = rate_at(span)
    if np.all(np.isfinite(rate_span)) and float(np.max(np.abs(rate_span))) == 0.0:
        out = np.full(p_arr.shape, g0)
        return float(out[0]) if scalar else out

    f0_seed = float(spec.reaction(x_ref, u_ref, p0))
    f0_query = np.asarray(spec.reaction(x_ref, u_ref, p_arr), dtype=float)
    rest_tol = 1e-13 * (1.0 + abs(f0_seed) + float(np.max(np.abs(f0_query), initial=0.0)))
    if abs(f0_seed) <= rest_tol:
        raise ReducedGError(f"the seed gradient p0={p0!r} is a rest point of the reaction")
    rest = np.abs(f0_query) <= rest_tol
    active = p_arr[~rest]

    out = np.full(p_arr.shape, np.nan)
    if active.size == 0:
        return float(out[0]) if scalar else out

    lo = min(float(np.min(active)), p0)
    hi = max(float(np.max(active)), p0)
    probes = np.linspace(lo, hi, _PROBE_N)
    f0 = np.asarray(spec.reaction(x_ref, u_ref, probes), dtype=float)
    rate = rate_at(probes)
    if not (np.all(np.isfinite(f0)) and np.all(np.isfinite(rate))):
        raise ReducedGError("reaction or its derivatives are not finite on the p range")

    fmax = float(np.max(np.abs(f0)))
    if float(np.min(np.abs(f0))) <= 1e-13 * (1.0 + fmax) or np.min(f0) * np.max(f0) < 0.0:
        raise ReducedGError(
            f"reaction changes sign or vanishes on [{lo!r}, {hi!r}]; "
            "p cannot flow across a rest point"
        )

    coef_dx = np.asarray(spec.diffusion_coeff_dx(x_ref, u_ref, probes), dtype=float)
    coef_du = np.asarray(spec.diffusion_coeff_du(x_ref, u_ref, probes), dtype=float)
    pure_p = float(np.max(np.abs(coef_dx))) == 0.0 and float(np.max(np.abs(coef_du))) == 0.0
    if method == "auto" and pure_p:
        with np.errstate(divide="ignore"):
            out[~rest] = g0 + np.log(np.abs(f0_seed / f0_query[~rest]))
        return float(out[0]) if scalar else out

    def ratio(idx, s):
        return rate_at(s) / np.asarray(spec.reaction(x_ref, u_ref, s), dtype=float)

    out[~rest] = g0 + integrate_batch(ratio, p0, active, quad_tol)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Queryable g representations


@dataclass
class GProvider:
    """A queryable g(x, u, p) with its normalization and provenance.

    ``variant`` is one of "analytic", "reduced_ode", "tabulated".  Analytic
    and reduced variants are functions of p alone and are x-independent;
    the tabulated variant interpolates scattered curve samples in (x, u, p).
    """

    variant: str
    p0: float
    g0: float
    _eval: Callable = field(repr=False)
    coverage: Optional[float] = None
    low_coverage: bool = False
    extrapolations: int = 0
    snapshot: Optional[dict] = field(default=None, repr=False)

    def __call__(self, x, u, p):
        return self._eval(x, u, p)


def analytic_g(spec: ProblemSpec, p0: float = 1.0, g0: float = 0.0) -> GProvider:
    """Closed-form provider from the builtin's shipped g(p)."""
    if spec.closed_forms is None or spec.closed_forms.g_of_p is None:
        raise ValueError(f"model {spec.name!r} ships no closed-form g")
    g_of_p = spec.closed_forms.g_of_p

    def evaluate(x, u, p):
        # Degenerate gradients may map to +-inf or nan; downstream consumers
        # treat those as off-branch values, so evaluate quietly.
        with np.errstate(divide="ignore", invalid="ignore"):
            return g_of_p(np.asarray(p, dtype=float), p0, g0)

    return GProvider("analytic", p0, g0, evaluate)


def reduced_ode_g(spec: ProblemSpec, p0: float = 1.0, g0: float = 0.0,
                  x_ref: float = 0.0, u_ref: float = 1.0,
                  quad_tol: float = 1e-12) -> GProvider:
    """Provider that integrates dg/dp on demand.

    Each query integrates from p0 afresh, so a value depends only on its own
    p, never on the batch it arrives in or on earlier queries.
    """

    def evaluate(x, u, p):
        return reduced_g(spec, p, p0, g0, x_ref, u_ref, quad_tol)

    return GProvider("reduced_ode", p0, g0, evaluate)


@dataclass(frozen=True)
class SeedGrid:
    u0_values: tuple
    p0_values: tuple


def tabulate_g(spec: ProblemSpec, seed_grid: SeedGrid,
               controls: CharControls = CharControls(),
               query_box: tuple = ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
               coverage_min: float = 0.9, workers: int = 1) -> GProvider:
    """Integrate a curve per seed and interpolate the collected g samples.

    Every accepted state with x inside [0, 1] becomes a sample.  Queries use
    inverse-distance weighting (power 2, 8 nearest neighbors) in per-axis
    scaled coordinates, which reproduces sample values exactly at the nodes.
    Coverage of ``query_box`` is probed on a 9x9x9 grid: a point counts as
    covered when its nearest sample lies within three median nearest-neighbor
    spacings.  Low coverage flags the provider; queries beyond the covered
    radius fall back to the nearest sample and bump ``extrapolations``.

    Unless the caller caps the step size, a default ``dt_max`` keeps samples
    roughly evenly spaced along each curve; the adaptive controller would
    otherwise stride across easy models in a handful of accepted steps and
    starve the table.
    """
    if controls.dt_max is None:
        controls = dataclasses.replace(controls, dt_max=0.05)
    seeds = [
        {"u0": float(u0), "p0": float(q0), "g0": 0.0}
        for u0 in seed_grid.u0_values
        for q0 in seed_grid.p0_values
    ]

    def run(seed):
        return integrate_characteristics(spec, seed, controls)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(pool.map(run, seeds))
    else:
        trajectories = [run(seed) for seed in seeds]

    pts, vals = [], []
    for traj in trajectories:
        for s in traj.states:
            if 0.0 <= s.x <= 1.0 + 1e-9:
                pts.append((s.x, s.u, s.p))
                vals.append(s.g)
    if len(pts) < 2:
        raise CharacteristicsError("tabulation produced fewer than 2 samples")
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=float)

    scale = np.std(pts, axis=0)
    scale[scale < 1e-12] = 1.0
    scaled = pts / scale
    tree = cKDTree(scaled)

    self_nn = tree.query(scaled, k=2)[0][:, 1]
    radius = 3.0 * float(np.median(self_nn))

    grids = [np.linspace(lo, hi, 9) for lo, hi in query_box]
    probe = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 3)
    probe_d = tree.query(probe / scale, k=1)[0]
    coverage = float(np.mean(probe_d <= radius))

    k = min(8, len(pts))
    state = {"extrapolations": 0}
    lock = threading.Lock()

    def evaluate(x, u, p):
        q = np.column_stack([
            np.broadcast_arrays(
                np.asarray(x, dtype=float), np.asarray(u, dtype=float),
                np.asarray(p, dtype=float)
            )[i].ravel()
            for i in range(3)
        ])
        d, idx = tree.query(q / scale, k=k)
        d = np.atleast_2d(d)
        idx = np.atleast_2d(idx)
        out = np.empty(len(q))
        far = d[:, 0] > radius
        n_far = int(np.count_nonzero(far))
        if n_far:
            with lock:
                state["extrapolations"] += n_far
            provider.extrapolations = state["extrapolations"]
            out[far] = vals[idx[far, 0]]
        near = ~far
        if near.any():
            dn = d[near]
            exact = dn[:, 0] < 1e-12
            # Exact hits are overwritten below, so their 1/0 weights may be
            # computed as inf/nan without consequence.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w = 1.0 / dn**2
                iw = np.sum(w * vals[idx[near]], axis=1) / np.sum(w, axis=1)
            iw[exact] = vals[idx[near][exact, 0]]
            out[near] = iw
        shape = np.broadcast_shapes(
            np.asarray(x).shape, np.asarray(u).shape, np.asarray(p).shape
        )
        return out.reshape(shape) if shape else float(out[0])

    snapshot = {
        "variant": "tabulated",
        "n_samples": int(len(pts)),
        "scale": [float(v) for v in scale],
        "radius_scaled": radius,
        "coverage": coverage,
        "coverage_min": coverage_min,
        "query_box": [[float(a), float(b)] for a, b in query_box],
        "terminations": sorted(
            {t.termination.value for t in trajectories}
        ),
        "samples": {
            "x": [float(v) for v in pts[:, 0]],
            "u": [float(v) for v in pts[:, 1]],
            "p": [float(v) for v in pts[:, 2]],
            "g": [float(v) for v in vals],
        },
    }
    provider = GProvider(
        "tabulated", float("nan"), 0.0, evaluate,
        coverage=coverage, low_coverage=coverage < coverage_min, snapshot=snapshot,
    )
    return provider


def provider_snapshot_json(provider: GProvider) -> str:
    if provider.snapshot is None:
        data = {
            "variant": provider.variant,
            "p0": provider.p0,
            "g0": provider.g0,
        }
    else:
        data = dict(provider.snapshot)
        data["extrapolations"] = provider.extrapolations
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
