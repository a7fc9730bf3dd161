"""Method-of-lines evolution of u(t, x) on the unit interval.

Space is a uniform node grid with second-order central differences; time is
explicit Heun (two-stage, second order) under a diffusion CFL bound
dt = 0.4 * dx^2 / max|diffusion_coeff|, capped at t_end / 64 and re-evaluated
every step since degenerate coefficients move with the state.  Implicit
stepping is deliberately avoided: where the diffusion coefficient vanishes
the Jacobian is singular, and desk-scale grids make the explicit penalty
affordable.

The stencils live on ``_Kernel``, which ``simulate`` builds once per run:
it resolves the ends and the free (non-Dirichlet) nodes once, and reuses
its padded-state, u_x, u_xx, u^m, Heun-stage, CFL-gradient and CFL-coefficient
buffers in every step, while every stored u and u_t is a fresh array.  The
kernel writes each evaluator's value into an array of its own, which
broadcasts a constant.
``simulate`` builds a ``StateFrame`` only for the frames it keeps.
``evolution_rhs`` builds a kernel per call and runs the same code.  The
stencils act along the last axis, so the energy monitor's
``_node_derivatives`` builds one kernel for a whole (frames, nodes) stack
and returns that kernel's own u_x and u_xx arrays.

The CFL bound reads u_x from the stencil of np.gradient (central inside,
first order at the ends), written out by hand in ``_Kernel.cfl_dt`` because
the call costs three times as much.  Its inside is the central u_x of the
rhs; the hand-written form must stay bitwise equal to np.gradient, or every
step size and stored frame would move.

Dirichlet ends hold the initial profile's end values: ``evolution_rhs``
returns 0 at a Dirichlet node, so no stage moves it (a -0.0 end value
becomes +0.0 after the first step).  One node stencil gives u_x and u_xx
to the solver and to the energy monitor.  It pads the state with a ghost
node per end; a Robin end u_x = b(u) gets the mirror node
u_{-1} = u_1 - 2 dx b(u_0) (on the right, u_{n+1} = u_{n-1} + 2 dx b(u_n)),
which makes the central gradient at the end equal b(u) exactly.  The
solver reads the stencil at the free nodes only; the energy monitor adds
one-sided stencils at the Dirichlet nodes.

The porous-medium family advances the divergence form (u^m)_xx with a
conservative stencil on u^m instead of the expanded product rule; the stencil
keeps nonnegative states nonnegative at desk scale, which the expanded form
does not.  Models opt in through ``ProblemSpec.divergence_form_m``.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import ProblemSpec

__all__ = [
    "SolverError",
    "Grid1D",
    "StateFrame",
    "SolverControls",
    "SimulationResult",
    "evolution_rhs",
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

    @property
    def u(self) -> np.ndarray:
        """Every stored state, as one (frames, nodes) array."""
        return np.array([f.u for f in self.frames], dtype=float)


def _degenerate_power(u: np.ndarray, m: float, out: np.ndarray) -> np.ndarray:
    """max(u, 0)**m into ``out``, bitwise equal to ``np.maximum(u, 0.0) ** m``."""
    u_min = float(u.min())
    if u_min < -1e-12:
        raise SolverError(f"negative state {u_min!r} fed to the degenerate power u^{m}")
    # Roundoff-level negatives are clipped so fractional powers stay real.
    np.maximum(u, 0.0, out=out)
    return np.power(out, m, out=out)


# Index keys along the last axis, the node axis: the inner nodes, and each
# one's right and left neighbours.
_INNER = (..., slice(1, -1))
_RIGHT = (..., slice(2, None))
_LEFT = (..., slice(None, -2))


class _Kernel:
    """The solver's stencils for one spec and grid, with the ends resolved once.

    The stencils act along the last axis, the node axis, and ``rows`` is
    the shape of the axes before it.  ``simulate`` builds a kernel per run
    and ``evolution_rhs`` one per call, both for one state (``rows`` ());
    ``_node_derivatives`` builds one whose ``rows`` are those of its input,
    so ``central`` takes the stencil of a whole (frames, nodes) stack at
    once.  ``rhs``, ``step`` and ``cfl_dt`` take one state.  The padded
    state, the u_x and u_xx arrays, the u^m of the divergence form, the Heun
    stage and the CFL gradient and coefficient are scratch buffers that
    every call overwrites.
    ``rhs`` returns a fresh u_t, and ``step`` a fresh state (the second
    stage's u_t, updated in place) and a fresh u_t, so nothing a caller keeps
    shares memory with the kernel or with another returned array.

    The kernel writes the value of ``spec.rhs`` and of
    ``spec.diffusion_coeff`` into its own arrays; that assignment broadcasts
    a constant value.

    The free nodes are the nodes that are not Dirichlet ends.  Only their
    stencils are evaluated: the rhs is 0 at a Dirichlet node, and the energy
    monitor gives that node its own one-sided stencil.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid1D, rows: tuple = ()):
        n = grid.n_cells + 1
        self.n = n
        self.dx = grid.dx
        self.two_dx = 2.0 * grid.dx
        self.dx2 = grid.dx * grid.dx
        self.x = grid.nodes
        ends = ((spec.bc_left, 0, 1), (spec.bc_right, -1, -1))
        # The key of node i along the last axis; a plain int indexes one state fastest.
        at = (lambda i: (..., i)) if rows else (lambda i: i)
        # Per Robin end: the end node, its inward neighbour, the x step from
        # that neighbour to the ghost node, and b.
        self.robin = tuple((at(i), at(i + d), -d * self.two_dx, bc.robin_b)
                           for bc, i, d in ends if bc.kind == "robin")
        # (node, inward step) per Dirichlet end.
        self.dirichlet = tuple((i, d) for bc, i, d in ends if bc.kind == "dirichlet")
        self.m = None if spec.divergence_form_m is None else float(spec.divergence_form_m)
        self.model_rhs = spec.rhs
        self.diffusion_coeff = spec.diffusion_coeff
        lo = int(spec.bc_left.kind == "dirichlet")
        hi = n - int(spec.bc_right.kind == "dirichlet")
        self.free = slice(lo, hi)
        self.x_free = self.x[lo:hi]
        # The state with one ghost node per end; the free nodes' stencils read
        # ``used``, which leaves out the ghost of a Dirichlet end.
        self.up = np.zeros((*rows, n + 2))
        self.inner = self.up[_INNER]
        self.used = self.up[..., lo:hi + 2]
        self.p = np.zeros((*rows, n))
        self.q = np.zeros((*rows, n))
        self.p_free = self.p[..., lo:hi]
        self.q_free = self.q[..., lo:hi]
        self.power = np.empty_like(self.used)
        self.stage = np.empty(n)
        self.grad = np.empty(n)
        self.coef = np.empty(n)

    def _pad(self, u: np.ndarray):
        """Copy ``u`` into the padded state, and set u_x = b(u) at each Robin end.

        A Robin end's ghost is the mirror node u_{i+d} - 2 d dx b(u_i), so the
        central difference there is b(u_i).
        """
        self.inner[...] = u
        for i, inward, span, robin_b in self.robin:
            b = robin_b(u[i])
            self.up[i] = u[inward] + span * b
            self.p[i] = b

    def _slope(self, u: np.ndarray, out: np.ndarray):
        """The central u_x at the interior nodes, into ``out[..., 1:-1]``."""
        inner = out[_INNER]
        np.subtract(u[_RIGHT], u[_LEFT], out=inner)
        inner /= self.two_dx

    def _second_difference(self, w: np.ndarray, out: np.ndarray):
        """(w_{i+1} - 2 w_i + w_{i-1}) / dx^2 at the free nodes, into ``out``.

        ``w`` is laid out as ``used``: one more node on each side of the free ones.
        """
        np.multiply(w[_INNER], 2.0, out=out)
        np.subtract(w[_RIGHT], out, out=out)
        out += w[_LEFT]
        out /= self.dx2

    def central(self, u: np.ndarray):
        """The p and q buffers, holding u_x and u_xx at every free node."""
        self._pad(u)
        self._slope(u, self.p)
        self._second_difference(self.used, self.q_free)
        return self.p, self.q

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """du/dt at every node in a fresh array; 0 at a Dirichlet node."""
        ut = np.zeros(self.n)
        free = self.free
        if self.m is None:
            self.central(u)
            ut[free] = self.model_rhs(self.x_free, u[free], self.p_free, self.q_free)
        else:
            self._pad(u)
            self._second_difference(_degenerate_power(self.used, self.m, self.power), ut[free])
        return ut

    def step(self, t: float, u: np.ndarray, dt: float, k1: np.ndarray) -> tuple:
        """One Heun update from (t, u): the new (t, u, u_t), a ``StateFrame``'s fields.

        ``k1`` is the rhs at u, as the previous step returned it; neither u
        nor k1 is written.  The stage u + dt k1 goes into the stage buffer,
        and the update u + dt/2 (k1 + k2) is made in place on the fresh k2, so
        the new state owns its array.  IEEE addition and multiplication commute, so
        both give the bits of the plain expressions.  The rhs is 0 at a
        Dirichlet node, so each stage leaves that end value as it is.
        """
        stage = np.multiply(k1, dt, out=self.stage)
        stage += u
        u_new = self.rhs(stage)
        u_new += k1
        u_new *= 0.5 * dt
        u_new += u
        t_new = t + dt
        if not np.isfinite(u_new).all():
            raise SolverError(f"non-finite state after step to t={t_new!r}")
        return t_new, u_new, self.rhs(u_new)

    def cfl_dt(self, u: np.ndarray, dt_cap: float, t: float) -> float:
        # u_x as np.gradient(u, dx) gives it, at a third of its cost: central
        # inside, first order at the ends.  It must stay bitwise equal to
        # np.gradient, or every step size and frame moves.
        g = self.grad
        self._slope(u, g)
        g[0] = (u[1] - u[0]) / self.dx
        g[-1] = (u[-1] - u[-2]) / self.dx
        coef = self.coef
        with np.errstate(all="ignore"):
            coef[...] = self.diffusion_coeff(self.x, u, g)
        np.abs(coef, out=coef)
        coef_max = float(coef.max())
        if not math.isfinite(coef_max):
            raise SolverError(f"diffusion coefficient not finite at t={t!r}")
        dt = dt_cap
        if coef_max > 1e-30:
            dt = min(dt, _CFL_SAFETY * self.dx * self.dx / coef_max)
        if dt < _DT_FLOOR:
            raise SolverError(f"CFL time step {dt!r} fell below the floor at t={t!r}")
        return dt


def _node_derivatives(spec: ProblemSpec, grid: Grid1D, u: np.ndarray):
    """u_x and u_xx at every node of a state or a (frames, nodes) stack.

    The solver's stencil, for the energy monitor: one kernel takes every
    row, and its own p and q arrays are returned.  A Dirichlet end is
    pinned, so only the energy monitor reads it: the second-order one-sided
    u_x and the four-point one-sided u_xx.
    """
    kernel = _Kernel(spec, grid, np.shape(u)[:-1])
    p, q = kernel.central(u)
    dx = grid.dx
    for i, d in kernel.dirichlet:
        u0, u1, u2, u3 = (u[..., i + k * d] for k in range(4))
        p[..., i] = d * (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * dx)
        q[..., i] = (2.0 * u0 - 5.0 * u1 + 4.0 * u2 - u3) / (dx * dx)
    return p, q


def evolution_rhs(spec: ProblemSpec, grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """du/dt at every node; 0 at a Dirichlet node, which holds its end value.

    The ``perfbench`` tracer wraps it by name; no module of the package calls it.
    """
    return _Kernel(spec, grid).rhs(u)


def simulate(spec: ProblemSpec, u0, t_end: float, grid: Grid1D,
             controls: SolverControls = SolverControls(),
             sink: Optional[Callable[[StateFrame], None]] = None) -> SimulationResult:
    """Advance u0 to t_end, storing every ``output_stride``-th frame.

    The returned frames always include the initial state and the final time.
    Each stored frame carries the rhs at its own state, so downstream energy
    monitors never re-derive u_t.  ``sink``, if given, is called with each
    stored frame, in order, as soon as it is stored: the initial frame and
    an off-stride final frame included, so it sees exactly the returned
    frames.  What it raises stops the run.
    """
    u = np.array(u0, dtype=float)
    if len(u) != grid.n_cells + 1:
        raise ValueError(f"u0 has {len(u)} nodes, grid wants {grid.n_cells + 1}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not np.isfinite(u).all():
        node = int(np.argmin(np.isfinite(u)))
        raise ValueError(f"u0 is not finite at node {node} (x={float(grid.nodes[node])!r}): "
                         f"{float(u[node])!r}")
    if spec.divergence_form_m is not None and float(np.min(u)) < 0.0:
        raise SolverError("degenerate power models need u0 >= 0")

    kernel = _Kernel(spec, grid)
    dt_cap = t_end / 64.0
    stride = controls.output_stride
    frames = []

    def keep(t, u, ut):
        frames.append(StateFrame(t, u, ut))
        if sink is not None:
            sink(frames[-1])

    t, ut = 0.0, kernel.rhs(u)
    keep(t, u, ut)
    n_steps = 0
    dt_smallest = math.inf
    dt_largest = 0.0

    while t < t_end - 1e-14 * t_end:
        dt = kernel.cfl_dt(u, dt_cap, t)
        dt = min(dt, t_end - t)
        t, u, ut = kernel.step(t, u, dt, ut)
        n_steps += 1
        dt_smallest = min(dt_smallest, dt)
        dt_largest = max(dt_largest, dt)
        if n_steps % stride == 0:
            keep(t, u, ut)

    if n_steps % stride:
        keep(t, u, ut)
    return SimulationResult(tuple(frames), n_steps, dt_smallest, dt_largest)
