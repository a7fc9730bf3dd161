"""Energy time series and decay verification.

For a simulated trajectory this module evaluates the energy
E(t) = integral of L(x, u, u_x) over the interval, its measured time
derivative (centered differences of the E series), and the predicted decay

    dE/dt = -integral of exp(g(x, u, u_x)) * f1_weight(...) * u_t,

whose integrand is nonnegative up to the sign, so E must fall except at
equilibria.  All x-integrals use one composite Simpson rule on the solver's
own node grid, with no re-interpolation; an even node count (odd n_cells)
closes the last interval with the end correction scipy's ``simpson`` applies
for equal spacing.  u_x and u_xx come from the solver's own padded
node stencil, so at every free node (Robin ends included) the energy monitor
sees exactly the discrete derivatives that produced u_t.  Only at a pinned
Dirichlet end, which the solver never evaluates, one-sided stencils stand in.

Models whose weight carries a negative power of the gradient (porous medium,
gradient-forced flows) have a formally divergent integrand where u_x
vanishes.  Those nodes are masked to zero and the masked fraction is
reported; ``verify_decay`` checks consistency only at frames whose masked
fraction is at most ``mask_reliable``.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lagrangian import Lagrangian, eval_L
from .models import ProblemSpec, _numeric_du
from .quadrature import integrate_batch
from .solver import Grid1D, SimulationResult, StateFrame, _node_derivatives

__all__ = [
    "EnergyTrace",
    "DecayValue",
    "node_gradient",
    "energy_of_frame",
    "decay_formula",
    "energy_trace",
    "standard_pme_energy",
    "filtration_energy",
    "verify_decay",
    "VerifyReport",
]

_GRAD_EPS_REL = 1e-6


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule for node values ``y`` spaced ``dx`` apart.

    With an even node count, Simpson covers the first n-1 nodes and the last
    interval gets the equal-spacing correction of scipy >= 1.11 (Cartwright):
    +5dx/12 y[-1] + 2dx/3 y[-2] - dx/12 y[-3].  The weighted sum goes through
    ``np.sum``, not a BLAS dot, so it does not depend on the thread count.
    """
    n = len(y)
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[1:m - 1:2] = 4.0
    w[2:m - 1:2] = 2.0
    w[0] = w[m - 1] = 1.0
    w *= dx / 3.0
    if m < n:
        w[-3:] += dx / 12.0 * np.array([-1.0, 8.0, 5.0])
    return float(np.sum(w * y))


def node_gradient(spec: ProblemSpec, frame: StateFrame, grid: Grid1D):
    """u_x at every node from the solver's stencil: b(u) exactly at a Robin end."""
    return _node_derivatives(spec, grid, frame.u)[0]


def energy_of_frame(lag: Lagrangian, frame: StateFrame, grid: Grid1D) -> float:
    x = grid.nodes
    p = node_gradient(lag.spec, frame, grid)
    values = eval_L(lag, x, frame.u, p)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"energy integrand not finite at node {bad} (x={x[bad]!r})")
    return _simpson(values, grid.dx)


@dataclass(frozen=True)
class DecayValue:
    value: float
    mask_fraction: float


def _masked_decay(spec: ProblemSpec, frame: StateFrame, grid: Grid1D,
                  integrand: np.ndarray, p: np.ndarray) -> DecayValue:
    mask = ~np.isfinite(integrand)
    if spec.singular_gradient_weight:
        p_scale = float(np.max(np.abs(p)))
        mask |= np.abs(p) < _GRAD_EPS_REL * p_scale
    vals = np.where(mask, 0.0, integrand)
    value = -_simpson(vals, grid.dx)
    return DecayValue(value, float(np.mean(mask)))


def decay_formula(spec: ProblemSpec, g_provider: Callable, frame: StateFrame,
                  grid: Grid1D) -> DecayValue:
    """The predicted dE/dt for one frame, with its masked fraction."""
    p, q = _node_derivatives(spec, grid, frame.u)
    with np.errstate(all="ignore"):
        weight = np.exp(np.asarray(g_provider(grid.nodes, frame.u, p), dtype=float))
        f1 = np.asarray(spec.f1_weight(grid.nodes, frame.u, p, q, frame.ut), dtype=float)
        integrand = weight * f1 * frame.ut
    return _masked_decay(spec, frame, grid, integrand, p)


def _model_decay(spec: ProblemSpec, frame: StateFrame, grid: Grid1D,
                 p: np.ndarray) -> Optional[DecayValue]:
    forms = spec.closed_forms
    if forms is None or forms.decay_weight is None:
        return None
    with np.errstate(all="ignore"):
        integrand = np.asarray(forms.decay_weight(p), dtype=float) * frame.ut * frame.ut
    return _masked_decay(spec, frame, grid, integrand, p)


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
    """E, measured dE/dt, predicted dE/dt, and the model oracle per frame."""
    spec = lag.spec
    times = np.array([f.t for f in result], dtype=float)
    E = np.array([energy_of_frame(lag, f, grid) for f in result])
    formula = []
    masks = []
    model_vals = []
    have_model = spec.closed_forms is not None and spec.closed_forms.decay_weight is not None
    for f in result:
        d = decay_formula(spec, lag.g_provider, f, grid)
        formula.append(d.value)
        masks.append(d.mask_fraction)
        if have_model:
            p = node_gradient(spec, f, grid)
            model_vals.append(_model_decay(spec, f, grid, p).value)
    measured = np.gradient(E, times) if len(times) > 2 else np.zeros_like(E)
    return EnergyTrace(
        times=times,
        E=E,
        dEdt_measured=measured,
        dEdt_formula=np.array(formula),
        dEdt_model=np.array(model_vals) if have_model else None,
        mask_fraction=np.array(masks),
    )


def standard_pme_energy(frame: StateFrame, m: float, grid: Grid1D) -> dict:
    """The conventional porous-medium pair: E = int |u|^(m+1)/(m+1), its decay."""
    u_abs = np.abs(frame.u)
    E = _simpson(u_abs ** (m + 1.0) / (m + 1.0), grid.dx)
    w = u_abs ** m
    wx = np.gradient(w, grid.dx, edge_order=2)
    return {"E": E, "dEdt": -_simpson(wx * wx, grid.dx)}


def filtration_energy(frame: StateFrame, a: Callable, grid: Grid1D,
                      a_du: Optional[Callable] = None, quad_tol: float = 1e-9) -> dict:
    """Standard energy for u_t = (a(u))_xx: E = int of (int_0^u a), decay -int (a_u u_x)^2.

    ``a`` and ``a_du`` are called on arrays of u values; without ``a_du`` a
    central difference of ``a`` stands in for it.
    """
    if a_du is None:
        a_du = _numeric_du(a)
    E = _simpson(integrate_batch(lambda idx, s: a(s), 0.0, frame.u, quad_tol), grid.dx)
    p = np.gradient(frame.u, grid.dx, edge_order=2)
    flux = np.asarray(a_du(frame.u), dtype=float) * p
    return {"E": E, "dEdt": -_simpson(flux * flux, grid.dx)}


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


def verify_decay(trace: EnergyTrace, tol_mono: float = 1e-8,
                 tol_consistency: float = 0.05,
                 mask_reliable: float = 0.1) -> VerifyReport:
    """Check the decay contract on a trace.

    Monotonicity: each E step may rise at most tol_mono * (1 + |E|).
    Consistency: at interior times whose masked fraction is below
    ``mask_reliable``, measured and predicted dE/dt must agree to
    tol_consistency * (1 + |predicted|).  A trace in which no interior time
    is reliable does not pass consistency.
    """
    if len(trace) < 3:
        raise ValueError("a trace needs at least 3 times to verify")
    mono = []
    for k in range(len(trace) - 1):
        allowed = trace.E[k] + tol_mono * (1.0 + abs(trace.E[k]))
        if trace.E[k + 1] > allowed:
            mono.append(
                {"index": k, "t": float(trace.times[k + 1]),
                 "E_before": float(trace.E[k]), "E_after": float(trace.E[k + 1])}
            )
    cons = []
    max_err = 0.0
    checked = 0
    for k in range(1, len(trace) - 1):
        if trace.mask_fraction[k] > mask_reliable:
            continue
        checked += 1
        err = abs(trace.dEdt_measured[k] - trace.dEdt_formula[k])
        rel = err / (1.0 + abs(trace.dEdt_formula[k]))
        max_err = max(max_err, rel)
        if rel > tol_consistency:
            cons.append(
                {"index": k, "t": float(trace.times[k]),
                 "measured": float(trace.dEdt_measured[k]),
                 "formula": float(trace.dEdt_formula[k]), "relative_error": rel}
            )
    unreliable = float(np.mean(trace.mask_fraction > mask_reliable))
    return VerifyReport(
        n_times=len(trace),
        monotonicity_violations=mono,
        consistency_violations=cons,
        max_consistency_error=max_err if checked else 0.0,
        unreliable_fraction=unreliable,
        checked_frames=checked,
    )
