"""Energy time series and decay verification.

For a simulated trajectory this module evaluates the energy
E(t) = integral of L(x, u, u_x) over the interval, its measured time
derivative (centered differences of the E series), and the predicted decay

    dE/dt = -integral of exp(g(x, u, u_x)) * f1_weight(...) * u_t,

whose integrand is nonnegative up to the sign, so E must fall except at
equilibria.  All x-integrals are composite Simpson on the solver's own node
grid; no re-interpolation, so the energy monitor and the solver see exactly
the same discrete state.

Models whose weight carries a negative power of the gradient (porous medium,
gradient-forced flows) have a formally divergent integrand where u_x
vanishes.  Those nodes are masked to zero and the masked fraction is
reported; past 20 percent the formula value is flagged unreliable rather
than silently trusted.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson

from .lagrangian import Lagrangian, eval_L
from .models import ProblemSpec, _numeric_du
from .quadrature import integrate_batch
from .solver import Grid1D, SimulationResult, StateFrame

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

_MASK_UNRELIABLE = 0.2
_GRAD_EPS_REL = 1e-6


def _grid_for(frame: StateFrame, grid: Optional[Grid1D]) -> Grid1D:
    return grid if grid is not None else Grid1D(len(frame.u) - 1)


def node_gradient(spec: ProblemSpec, frame: StateFrame, grid: Optional[Grid1D] = None):
    """u_x at every node: central interior, boundary-aware at the ends.

    Robin ends report b(u) exactly (the same value the solver's ghost node
    enforces); Dirichlet ends use the second-order one-sided stencil.
    """
    g = _grid_for(frame, grid)
    u = frame.u
    dx = g.dx
    p = np.empty_like(u)
    p[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    if spec.bc_left.kind == "robin":
        p[0] = float(spec.bc_left.robin_b(u[0]))
    else:
        p[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    if spec.bc_right.kind == "robin":
        p[-1] = float(spec.bc_right.robin_b(u[-1]))
    else:
        p[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
    return p


def _node_curvature(frame: StateFrame, grid: Grid1D):
    u = frame.u
    dx2 = grid.dx * grid.dx
    q = np.empty_like(u)
    q[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2
    q[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dx2
    q[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dx2
    return q


def energy_of_frame(lag: Lagrangian, frame: StateFrame, grid: Optional[Grid1D] = None) -> float:
    g = _grid_for(frame, grid)
    x = g.nodes
    p = node_gradient(lag.spec, frame, g)
    values = eval_L(lag, x, frame.u, p)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"energy integrand not finite at node {bad} (x={x[bad]!r})")
    return float(simpson(values, x=x))


@dataclass(frozen=True)
class DecayValue:
    value: float
    mask_fraction: float

    @property
    def reliable(self) -> bool:
        return self.mask_fraction <= _MASK_UNRELIABLE


def _masked_decay(spec: ProblemSpec, frame: StateFrame, grid: Grid1D,
                  integrand: np.ndarray, p: np.ndarray) -> DecayValue:
    mask = ~np.isfinite(integrand)
    if spec.singular_gradient_weight:
        p_scale = float(np.max(np.abs(p)))
        mask |= np.abs(p) < _GRAD_EPS_REL * p_scale
    vals = np.where(mask, 0.0, integrand)
    value = -float(simpson(vals, x=grid.nodes))
    return DecayValue(value, float(np.mean(mask)))


def decay_formula(spec: ProblemSpec, g_provider: Callable, frame: StateFrame,
                  grid: Optional[Grid1D] = None) -> DecayValue:
    """The predicted dE/dt for one frame, with its masked fraction."""
    g = _grid_for(frame, grid)
    p = node_gradient(spec, frame, g)
    q = _node_curvature(frame, g)
    with np.errstate(all="ignore"):
        weight = np.exp(np.asarray(g_provider(g.nodes, frame.u, p), dtype=float))
        f1 = np.asarray(spec.f1_weight(g.nodes, frame.u, p, q, frame.ut), dtype=float)
        integrand = weight * f1 * frame.ut
    return _masked_decay(spec, frame, grid if grid is not None else g, integrand, p)


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

    def to_csv(self) -> str:
        lines = ["t,E,dEdt_measured,dEdt_formula,dEdt_model,mask_fraction"]
        for i in range(len(self.times)):
            model = "" if self.dEdt_model is None else repr(float(self.dEdt_model[i]))
            lines.append(
                ",".join(
                    [
                        repr(float(self.times[i])),
                        repr(float(self.E[i])),
                        repr(float(self.dEdt_measured[i])),
                        repr(float(self.dEdt_formula[i])),
                        model,
                        repr(float(self.mask_fraction[i])),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def energy_trace(lag: Lagrangian, result: SimulationResult,
                 grid: Optional[Grid1D] = None) -> EnergyTrace:
    """E, measured dE/dt, predicted dE/dt, and the model oracle per frame."""
    g = _grid_for(result[0], grid)
    spec = lag.spec
    times = np.array([f.t for f in result], dtype=float)
    E = np.array([energy_of_frame(lag, f, g) for f in result])
    formula = []
    masks = []
    model_vals = []
    have_model = spec.closed_forms is not None and spec.closed_forms.decay_weight is not None
    for f in result:
        d = decay_formula(spec, lag.g_provider, f, g)
        formula.append(d.value)
        masks.append(d.mask_fraction)
        if have_model:
            p = node_gradient(spec, f, g)
            model_vals.append(_model_decay(spec, f, g, p).value)
    measured = np.gradient(E, times) if len(times) > 2 else np.zeros_like(E)
    return EnergyTrace(
        times=times,
        E=E,
        dEdt_measured=measured,
        dEdt_formula=np.array(formula),
        dEdt_model=np.array(model_vals) if have_model else None,
        mask_fraction=np.array(masks),
    )


def standard_pme_energy(frame: StateFrame, m: float, grid: Optional[Grid1D] = None) -> dict:
    """The conventional porous-medium pair: E = int |u|^(m+1)/(m+1), its decay."""
    g = _grid_for(frame, grid)
    x = g.nodes
    u_abs = np.abs(frame.u)
    E = float(simpson(u_abs ** (m + 1.0) / (m + 1.0), x=x))
    w = u_abs ** m
    wx = np.gradient(w, g.dx, edge_order=2)
    return {"E": E, "dEdt": -float(simpson(wx * wx, x=x))}


def filtration_energy(frame: StateFrame, a: Callable, a_du: Optional[Callable] = None,
                      grid: Optional[Grid1D] = None, quad_tol: float = 1e-9) -> dict:
    """Standard energy for u_t = (a(u))_xx: E = int of (int_0^u a), decay -int (a_u u_x)^2.

    ``a`` and ``a_du`` are called on arrays of u values; without ``a_du`` a
    central difference of ``a`` stands in for it.
    """
    g = _grid_for(frame, grid)
    x = g.nodes
    if a_du is None:
        a_du = _numeric_du(a)
    E = float(simpson(integrate_batch(lambda idx, s: a(s), 0.0, frame.u, quad_tol), x=x))
    p = np.gradient(frame.u, g.dx, edge_order=2)
    flux = np.asarray(a_du(frame.u), dtype=float) * p
    return {"E": E, "dEdt": -float(simpson(flux * flux, x=x))}


@dataclass
class VerifyReport:
    n_times: int
    monotonicity_violations: list
    consistency_violations: list
    max_consistency_error: float
    unreliable_fraction: float

    @property
    def passed_monotonicity(self) -> bool:
        return not self.monotonicity_violations

    @property
    def passed_consistency(self) -> bool:
        return not self.consistency_violations

    def to_dict(self) -> dict:
        return {
            "n_times": self.n_times,
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
    tol_consistency * (1 + |predicted|).
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
    )
