"""Method-of-lines evolution of u(t, x) on the unit interval.

Space is a uniform node grid with second-order central differences; time is
explicit Heun (two-stage, second order) under a diffusion CFL bound
dt = 0.4 * dx^2 / max|diffusion_coeff|, capped at t_end / 64 and re-evaluated
every step since degenerate coefficients move with the state.  Implicit
stepping is deliberately avoided: where the diffusion coefficient vanishes
the Jacobian is singular, and desk-scale grids make the explicit penalty
affordable.

The CFL bound reads u_x from the stencil of np.gradient (central inside,
first order at the ends), written out by hand because the call costs three
times as much.  The hand-written form must stay bitwise equal to
np.gradient, or every step size and stored frame would move.

Dirichlet ends hold the initial profile's end values: ``evolution_rhs``
returns 0 at a Dirichlet node, so no stage moves it (a -0.0 end value
becomes +0.0 after the first step).  One node stencil gives u_x and u_xx
to the solver and to the energy monitor.  It pads the state with a ghost
node per end; a Robin end u_x = b(u) gets the mirror node
u_{-1} = u_1 - 2 dx b(u_0) (on the right, u_{n+1} = u_{n-1} + 2 dx b(u_n)),
which makes the central gradient at the end equal b(u) exactly.

The porous-medium family advances the divergence form (u^m)_xx with a
conservative stencil on u^m instead of the expanded product rule; the stencil
keeps nonnegative states nonnegative at desk scale, which the expanded form
does not.  Models opt in through ``ProblemSpec.divergence_form_m``.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import ProblemSpec

__all__ = [
    "SolverError",
    "Grid1D",
    "StateFrame",
    "SolverControls",
    "SimulationResult",
    "evolution_rhs",
    "step",
    "simulate",
]


# The fraction of the explicit diffusion limit dx^2 / max|diffusion_coeff|
# that one step takes, and the step below which a run stops.
_CFL_SAFETY = 0.4
_DT_FLOOR = 1e-12


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid1D:
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError(f"n_cells must be >= 8, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        # Built once per grid and shared by every caller, hence read-only.
        x = np.linspace(0.0, 1.0, self.n_cells + 1)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class StateFrame:
    t: float
    u: np.ndarray
    ut: np.ndarray


@dataclass(frozen=True)
class SolverControls:
    output_stride: int = 1

    def __post_init__(self):
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")


@dataclass(frozen=True)
class SimulationResult:
    frames: tuple
    n_steps: int
    dt_smallest: float
    dt_largest: float

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, i):
        return self.frames[i]

    def __iter__(self):
        return iter(self.frames)


def _degenerate_power(u: np.ndarray, m: float) -> np.ndarray:
    u_min = float(u.min())
    if u_min < -1e-12:
        raise SolverError(f"negative state {u_min!r} fed to the degenerate power u^{m}")
    # Roundoff-level negatives are clipped so fractional powers stay real.
    return np.maximum(u, 0.0) ** m


def _padded(spec: ProblemSpec, dx: float, u: np.ndarray):
    """``u`` with one ghost node per end, and (node, inward step, b(u) or None) per end.

    A Robin end's ghost is the mirror node u_{i+d} - 2 d dx b(u_i), so the
    central difference there is b(u_i).  A Dirichlet end is padded with its
    own value; every stencil result at that node is replaced or zeroed.
    """
    up = np.empty(len(u) + 2)
    up[1:-1] = u
    ends = []
    for bc, i, d in ((spec.bc_left, 0, 1), (spec.bc_right, -1, -1)):
        b = float(bc.robin_b(u[i])) if bc.kind == "robin" else None
        up[i] = u[i] if b is None else u[i + d] - d * (2.0 * dx * b)
        ends.append((i, d, b))
    return up, ends


def _node_derivatives(spec: ProblemSpec, grid: Grid1D, u: np.ndarray):
    """u_x and u_xx at every node: the one stencil of the solver and the energy monitor.

    Central differences over the padded state, with u_x = b(u) exactly at a
    Robin end.  A Dirichlet end is pinned, so only the energy monitor reads it:
    the second-order one-sided u_x and the four-point one-sided u_xx.
    """
    dx = grid.dx
    up, ends = _padded(spec, dx, u)
    p = (up[2:] - up[:-2]) / (2.0 * dx)
    q = (up[2:] - 2.0 * up[1:-1] + up[:-2]) / (dx * dx)
    for i, d, b in ends:
        if b is not None:
            p[i] = b
        else:
            p[i] = d * (-3.0 * u[i] + 4.0 * u[i + d] - u[i + 2 * d]) / (2.0 * dx)
            q[i] = (2.0 * u[i] - 5.0 * u[i + d] + 4.0 * u[i + 2 * d] - u[i + 3 * d]) / (dx * dx)
    return p, q


def evolution_rhs(spec: ProblemSpec, grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """du/dt at every node; 0 at a Dirichlet node, which holds its end value."""
    dx = grid.dx
    lo = int(spec.bc_left.kind == "dirichlet")
    hi = len(u) - int(spec.bc_right.kind == "dirichlet")
    m = spec.divergence_form_m
    if m is None:
        p, q = _node_derivatives(spec, grid, u)
        ut = np.zeros_like(u)
        ut[lo:hi] = spec.rhs(grid.nodes[lo:hi], u[lo:hi], p[lo:hi], q[lo:hi])
        return ut
    v = _degenerate_power(_padded(spec, dx, u)[0], float(m))
    ut = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
    ut[:lo] = 0.0
    ut[hi:] = 0.0
    return ut


def step(spec: ProblemSpec, grid: Grid1D, frame: StateFrame, dt: float,
         k1: Optional[np.ndarray] = None) -> StateFrame:
    """One Heun update.  ``k1`` may reuse the rhs already stored in the frame.

    The rhs is 0 at a Dirichlet node, so each stage leaves that end value as it is.
    """
    if k1 is None:
        k1 = evolution_rhs(spec, grid, frame.u)
    mid = frame.u + dt * k1
    k2 = evolution_rhs(spec, grid, mid)
    u_new = frame.u + 0.5 * dt * (k1 + k2)
    if not np.isfinite(u_new).all():
        raise SolverError(f"non-finite state after step to t={frame.t + dt!r}")
    return StateFrame(frame.t + dt, u_new, evolution_rhs(spec, grid, u_new))


def _cfl_dt(spec: ProblemSpec, grid: Grid1D, u: np.ndarray, dt_cap: float, t: float) -> float:
    # np.gradient(u, dx) written out at a third of its cost.  It must stay
    # bitwise equal to np.gradient, or every step size and frame moves.
    dx = grid.dx
    p = np.empty_like(u)
    p[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    p[0] = (u[1] - u[0]) / dx
    p[-1] = (u[-1] - u[-2]) / dx
    with np.errstate(all="ignore"):
        coef = np.abs(spec.diffusion_coeff(grid.nodes, u, p))
    coef_max = float(coef.max()) if coef.size else 0.0
    if not math.isfinite(coef_max):
        raise SolverError(f"diffusion coefficient not finite at t={t!r}")
    dt = dt_cap
    if coef_max > 1e-30:
        dt = min(dt, _CFL_SAFETY * dx * dx / coef_max)
    if dt < _DT_FLOOR:
        raise SolverError(f"CFL time step {dt!r} fell below the floor at t={t!r}")
    return dt


def simulate(spec: ProblemSpec, u0, t_end: float, grid: Grid1D,
             controls: SolverControls = SolverControls()) -> SimulationResult:
    """Advance u0 to t_end, storing every ``output_stride``-th frame.

    The returned frames always include the initial state and the final time.
    Each stored frame carries the rhs at its own state, so downstream energy
    monitors never re-derive u_t.
    """
    u = np.array(u0, dtype=float)
    if len(u) != grid.n_cells + 1:
        raise ValueError(f"u0 has {len(u)} nodes, grid wants {grid.n_cells + 1}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if spec.divergence_form_m is not None and float(np.min(u)) < 0.0:
        raise SolverError("degenerate power models need u0 >= 0")

    dt_cap = t_end / 64.0
    frame = StateFrame(0.0, u, evolution_rhs(spec, grid, u))
    frames = [frame]
    n_steps = 0
    dt_smallest = math.inf
    dt_largest = 0.0

    while frame.t < t_end - 1e-14 * t_end:
        dt = _cfl_dt(spec, grid, frame.u, dt_cap, frame.t)
        dt = min(dt, t_end - frame.t)
        frame = step(spec, grid, frame, dt, k1=frame.ut)
        n_steps += 1
        dt_smallest = min(dt_smallest, dt)
        dt_largest = max(dt_largest, dt)
        if n_steps % controls.output_stride == 0:
            frames.append(frame)

    if frames[-1] is not frame:
        frames.append(frame)
    return SimulationResult(tuple(frames), n_steps, dt_smallest, dt_largest)
