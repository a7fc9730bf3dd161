"""Energy time series and decay verification.

For a simulated trajectory this module evaluates the energy
E(t) = integral of L(x, u, u_x) over the interval, its measured time
derivative (centered differences of the E series), and the predicted decay

    dE/dt = -integral of exp(g(x, u, u_x)) * (D u_xx - R) * u_t,

with D = diffusion_coeff and R = reaction.  The construction alone gives
this weight, for any evolution: with L_pp = D e^g, the Euler-Lagrange
expression L_u - (L_p)_x of L is -e^g (D u_xx - R), so no model states it.
A model's ``rhs`` has the sign of D u_xx - R, so the integrand is
nonnegative and E must fall except at equilibria.

All x-integrals use one composite Simpson rule on the solver's
own node grid, with no re-interpolation; an even node count (odd n_cells)
closes the last interval with the end correction scipy's ``simpson`` applies
for equal spacing.  u_x and u_xx come from the solver's own padded
node stencil, so at every free node (Robin ends included) the energy monitor
sees exactly the discrete derivatives that produced u_t.  Only at a pinned
Dirichlet end, which the solver never evaluates, one-sided stencils stand in.

A trace is one pass over its frames stacked as (frames, nodes) arrays: each
frame's stencil is taken once, and ``eval_L`` and the g provider are called
once per block of at most ``_BLOCK_POINTS`` points.  A block may split a
frame, since a point's value depends only on that point (``eval_L`` refines
each point's quadrature alone, a provider answers each query alone, and the
model callbacks act elementwise); masks and Simpson sums then run per frame.
So each column equals, bit for bit, the one-frame ``energy_of_frame`` and
``decay_formula``, the same kernel on one frame.  The cap bounds peak memory;
a whole-trace batch is no faster.

Nodes whose decay integrand is not finite are masked to zero.  Where e^g
blows up as u_x vanishes, the integrand formally diverges near flat spots,
so nodes whose |u_x| is below 1e-6 of the frame's largest are masked too.
The Lagrangian's probe of g near p = 0 makes that call (its
``singular_weight``); the spec declares nothing.  The masked fraction is
the share of sum |u_t| that falls on masked nodes (a node at rest, such as
one ahead of a free boundary, weighs nothing); ``verify_decay`` checks
consistency only at frames whose masked fraction is at most
``mask_reliable``.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lagrangian import Lagrangian, eval_L
from .models import ProblemSpec
from .solver import Grid1D, SimulationResult, StateFrame, _node_derivatives

__all__ = [
    "EnergyTrace",
    "DecayValue",
    "energy_of_frame",
    "decay_formula",
    "energy_trace",
    "standard_pme_energy",
    "verify_decay",
    "VerifyReport",
]

_GRAD_EPS_REL = 1e-6
# How far, relative to 1 + |E|, one step of an energy series may rise.
_TOL_MONO = 1e-8
# The most points that one eval_L call or one g-provider call of a trace takes.
_BLOCK_POINTS = 2048


def _simpson(y: np.ndarray, dx: float):
    """Composite Simpson rule over the last axis of ``y``, nodes ``dx`` apart.

    With an even node count, Simpson covers the first n-1 nodes and the last
    interval gets the equal-spacing correction of scipy >= 1.11 (Cartwright):
    +5dx/12 y[-1] + 2dx/3 y[-2] - dx/12 y[-3].  A 1-D ``y`` gives a float, a
    stack of rows an array with one value per row.  Each row is summed alone
    by ``np.sum``, not by a BLAS dot, so its value depends neither on the
    other rows nor on the thread count.
    """
    n = np.shape(y)[-1]
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[1:m - 1:2] = 4.0
    w[2:m - 1:2] = 2.0
    w[0] = w[m - 1] = 1.0
    w *= dx / 3.0
    if m < n:
        w[-3:] += dx / 12.0 * np.array([-1.0, 8.0, 5.0])
    terms = w * y
    if terms.ndim == 1:
        return float(np.sum(terms))
    return np.array([np.sum(row) for row in terms])


# Frames as (frames, nodes) arrays, with the solver's u_x (p) and u_xx (q).
_Stack = namedtuple("_Stack", "t x u ut p q")


def _stack(spec: ProblemSpec, frames, grid: Grid1D) -> _Stack:
    u = np.array([f.u for f in frames], dtype=float)
    p, q = (np.array(d) for d in zip(*(_node_derivatives(spec, grid, row) for row in u)))
    return _Stack(np.array([f.t for f in frames], dtype=float),
                  np.broadcast_to(grid.nodes, u.shape), u,
                  np.array([f.ut for f in frames], dtype=float), p, q)


def _blockwise(fn: Callable, s: _Stack) -> np.ndarray:
    """fn(x, u, p) at every point of the stack, one call per block of points."""
    x, u, p = (a.ravel() for a in (s.x, s.u, s.p))
    out = np.empty(u.size)
    for start in range(0, u.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        out[block] = fn(x[block], u[block], p[block])
    return out.reshape(s.u.shape)


def _energies(lag: Lagrangian, s: _Stack, dx: float) -> np.ndarray:
    values = _blockwise(lambda x, u, p: eval_L(lag, x, u, p), s)
    bad = ~np.isfinite(values)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise ValueError(f"energy integrand not finite at t={float(s.t[k])!r}, "
                         f"node {int(i)} (x={float(s.x[k, i])!r})")
    return _simpson(values, dx)


def _masked_decays(lag: Lagrangian, s: _Stack, integrand: np.ndarray, dx: float):
    """-Simpson of each row's integrand with its masked nodes zeroed, and each masked fraction."""
    mask = ~np.isfinite(integrand)
    if lag.singular_weight:
        mask |= np.abs(s.p) < _GRAD_EPS_REL * np.max(np.abs(s.p), axis=1, keepdims=True)
    # The share of |u_t| on masked nodes: a node at rest adds nothing to the
    # decay integral, so masking it costs nothing either.
    shares = []
    for speed, masked in zip(np.abs(s.ut), mask):
        total = float(np.sum(speed))
        shares.append(float(np.sum(speed[masked])) / total if total > 0.0 else 0.0)
    return -_simpson(np.where(mask, 0.0, integrand), dx), np.array(shares)


def _formula_decays(lag: Lagrangian, s: _Stack, dx: float):
    with np.errstate(all="ignore"):
        spec = lag.spec
        weight = spec.diffusion_coeff(s.x, s.u, s.p) * s.q - spec.reaction(s.x, s.u, s.p)
        integrand = np.exp(_blockwise(lag.g_provider, s)) * weight * s.ut
    return _masked_decays(lag, s, integrand, dx)


def energy_of_frame(lag: Lagrangian, frame: StateFrame, grid: Grid1D) -> float:
    return float(_energies(lag, _stack(lag.spec, [frame], grid), grid.dx)[0])


@dataclass(frozen=True)
class DecayValue:
    value: float
    mask_fraction: float


def decay_formula(lag: Lagrangian, frame: StateFrame, grid: Grid1D) -> DecayValue:
    """The predicted dE/dt for one frame, with its masked fraction."""
    values, shares = _formula_decays(lag, _stack(lag.spec, [frame], grid), grid.dx)
    return DecayValue(float(values[0]), float(shares[0]))


@dataclass
class EnergyTrace:
    times: np.ndarray
    E: np.ndarray
    dEdt_measured: np.ndarray
    dEdt_formula: np.ndarray
    dEdt_model: Optional[np.ndarray]
    mask_fraction: np.ndarray

    def __len__(self):
        return len(self.times)


def energy_trace(lag: Lagrangian, result: SimulationResult, grid: Grid1D) -> EnergyTrace:
    """E, measured dE/dt, predicted dE/dt, and the model oracle per frame, in one pass."""
    spec, dx = lag.spec, grid.dx
    s = _stack(spec, result, grid)
    E = _energies(lag, s, dx)
    formula, shares = _formula_decays(lag, s, dx)
    model = None
    forms = spec.closed_forms
    if forms is not None and forms.decay_weight is not None:
        with np.errstate(all="ignore"):
            integrand = np.asarray(forms.decay_weight(s.p), dtype=float) * s.ut * s.ut
        model = _masked_decays(lag, s, integrand, dx)[0]
    measured = np.gradient(E, s.t) if len(s.t) > 2 else np.zeros_like(E)
    return EnergyTrace(s.t, E, measured, formula, model, shares)


def standard_pme_energy(frame: StateFrame, m: float, grid: Grid1D) -> dict:
    """The conventional porous-medium pair: E = int |u|^(m+1)/(m+1), its decay."""
    u_abs = np.abs(frame.u)
    E = _simpson(u_abs ** (m + 1.0) / (m + 1.0), grid.dx)
    w = u_abs ** m
    wx = np.gradient(w, grid.dx, edge_order=2)
    return {"E": E, "dEdt": -_simpson(wx * wx, grid.dx)}


def _rises(E, tol_mono: float = _TOL_MONO) -> np.ndarray:
    """The steps k at which E[k + 1] exceeds E[k] by more than tol_mono * (1 + |E[k]|)."""
    E = np.asarray(E, dtype=float)
    return np.flatnonzero(E[1:] > E[:-1] + tol_mono * (1.0 + np.abs(E[:-1])))


@dataclass
class VerifyReport:
    n_times: int
    monotonicity_violations: list
    consistency_violations: list
    max_consistency_error: float
    unreliable_fraction: float
    checked_frames: int

    @property
    def passed_monotonicity(self) -> bool:
        return not self.monotonicity_violations

    @property
    def passed_consistency(self) -> bool:
        """No violation, and at least one frame was checked."""
        return self.checked_frames >= 1 and not self.consistency_violations

    def to_dict(self) -> dict:
        return {
            "n_times": self.n_times,
            "checked_frames": self.checked_frames,
            "passed_monotonicity": self.passed_monotonicity,
            "passed_consistency": self.passed_consistency,
            "max_consistency_error": self.max_consistency_error,
            "unreliable_fraction": self.unreliable_fraction,
            "monotonicity_violations": self.monotonicity_violations,
            "consistency_violations": self.consistency_violations,
        }


def verify_decay(trace: EnergyTrace, tol_mono: float = _TOL_MONO,
                 tol_consistency: float = 0.05,
                 mask_reliable: float = 0.1) -> VerifyReport:
    """Check the decay contract on a trace.

    Monotonicity: each E step may rise at most tol_mono * (1 + |E|) (``_rises``).
    Consistency: at interior times whose masked fraction is below
    ``mask_reliable``, measured and predicted dE/dt must agree to
    tol_consistency * (1 + |predicted|).  A trace in which no interior time
    is reliable does not pass consistency.
    """
    if len(trace) < 3:
        raise ValueError("a trace needs at least 3 times to verify")
    E, t, measured, formula = trace.E, trace.times, trace.dEdt_measured, trace.dEdt_formula
    mono = [{"index": int(k), "t": float(t[k + 1]), "E_before": float(E[k]),
             "E_after": float(E[k + 1])} for k in _rises(E, tol_mono)]
    interior = np.arange(1, len(trace) - 1)
    checked = interior[~(trace.mask_fraction[interior] > mask_reliable)]
    rel = np.abs(measured[checked] - formula[checked]) / (1.0 + np.abs(formula[checked]))
    cons = [{"index": int(k), "t": float(t[k]), "measured": float(measured[k]),
             "formula": float(formula[k]), "relative_error": float(r)}
            for k, r in zip(checked, rel) if r > tol_consistency]
    return VerifyReport(
        n_times=len(trace),
        monotonicity_violations=mono,
        consistency_violations=cons,
        # fmax passes over a nan error, which is no violation either.
        max_consistency_error=float(np.fmax.reduce(rel, initial=0.0)),
        unreliable_fraction=float(np.mean(trace.mask_fraction > mask_reliable)),
        checked_frames=len(checked),
    )
