"""Spans and counters around the public functions of each paralyap module.

The tracer wraps functions from outside: it replaces every binding of a
target function in the paralyap modules (``from .x import y`` copies
included) with a wrapper that records a span.  Nothing inside the package
changes.  Spans are kept in memory as flat arrays (name, parent, start, end,
and whether no other span of the same name was open) and written out
once, when the command returns; the benchmark then derives self times and
per-layer totals from them (see ``layers.py``).

The hottest boundaries, the model callbacks and the quadrature integrands,
are counted but get no span: they run millions of times per command and a
span each would dominate what is measured.

All spans come from one thread: the benchmark runs the CLI with
``--workers 1``, so ``tabulate_g`` integrates its curves inline.
"""

import dataclasses
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function).  adaptive_simpson is wrapped only where the modules
# that use it reference it, not inside quadrature's own recursion.
_FUNCTIONS = (
    ("models", "from_descriptor"),
    ("characteristics", "analytic_g"),
    ("characteristics", "reduced_ode_g"),
    ("characteristics", "tabulate_g"),
    ("characteristics", "integrate_characteristics"),
    ("characteristics", "reduced_g"),
    ("lagrangian", "build_lagrangian"),
    ("lagrangian", "eval_L"),
    ("lagrangian", "eval_Lp"),
    ("lagrangian", "eval_Lpp"),
    ("lagrangian", "compare_closed_form"),
    ("solver", "simulate"),
    ("solver", "evolution_rhs"),
    ("energy", "energy_trace"),
    ("energy", "energy_of_frame"),
    ("energy", "decay_formula"),
    ("energy", "verify_decay"),
    ("cli", "cmd_construct_energy"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_compare_closed_form"),
)
_QUADRATURE_USERS = ("lagrangian", "characteristics", "energy")
_CALLBACKS = ("rhs", "diffusion_coeff", "reaction")


def _points(args):
    n = 1
    for a in args:
        if type(a) is not float:
            n = max(n, np.size(a))
    return n


def _rebind(modules, original, wrapped):
    """Point every module-level binding of ``original`` at ``wrapped``.

    Module-level dicts count too: the CLI dispatches through one.
    """
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = wrapped


class Tracer:
    def __init__(self, import_s):
        self.import_s = import_s
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()
        self.counters = Counter()
        self.providers = []
        self._stack = []
        self._open = Counter()

    def _span(self, fn, name, before=None, after=None):
        """Wrap ``fn`` so that each call records one span.

        ``before(args)`` may return replacement positional arguments;
        ``after(result)`` may return a replacement result.
        """
        nid = len(self.names)
        self.names.append(name)
        stack, opened, now = self._stack, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(opened[nid] == 0)
            self.end.append(0.0)
            opened[nid] += 1
            stack.append(idx)
            if before is not None:
                args = before(args)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                self.end[idx] = now()
                stack.pop()
                opened[nid] -= 1
            return result if after is None else after(result)

        return wrapper

    # -- per-function hooks -------------------------------------------------

    def _count_callback(self, fn):
        counters = self.counters

        def wrapper(*args):
            counters["models.callback_calls"] += 1
            counters["models.callback_points"] += _points(args)
            return fn(*args)

        return wrapper

    def _wrap_spec(self, spec):
        return dataclasses.replace(
            spec, **{f: self._count_callback(getattr(spec, f)) for f in _CALLBACKS}
        )

    def _count_integrand(self, args):
        counters = self.counters
        f = args[0]

        def integrand(s):
            counters["quadrature.integrand_evals"] += 1
            return f(s)

        return (integrand,) + tuple(args[1:])

    def _count_points(self, key):
        counters = self.counters

        def before(args):
            counters[key] += _points(args[1:4])
            return args

        return before

    def _keep_provider(self, provider):
        self.providers.append(provider)
        return provider

    def _count_states(self, traj):
        self.counters["characteristics.curve_states"] += len(traj)
        return traj

    def _keep_simulation(self, result):
        self.counters["solver.steps"] += result.n_steps
        dt = self.counters.get("solver.dt_min")
        self.counters["solver.dt_min"] = result.dt_smallest if dt is None else min(dt, result.dt_smallest)
        return result

    def _keep_trace(self, trace):
        peak = float(np.max(trace.mask_fraction)) if len(trace) else 0.0
        self.counters["energy.mask_fraction_max"] = max(
            self.counters.get("energy.mask_fraction_max", 0.0), peak
        )
        return trace

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "paralyap" or name.startswith("paralyap.")}
        hooks = {
            "from_descriptor": {"after": self._wrap_spec},
            "analytic_g": {"after": self._keep_provider},
            "reduced_ode_g": {"after": self._keep_provider},
            "tabulate_g": {"after": self._keep_provider},
            "integrate_characteristics": {"after": self._count_states},
            "eval_L": {"before": self._count_points("lagrangian.eval_points")},
            "eval_Lp": {"before": self._count_points("lagrangian.eval_points")},
            "eval_Lpp": {"before": self._count_points("lagrangian.eval_points")},
            "simulate": {"after": self._keep_simulation},
            "energy_trace": {"after": self._keep_trace},
        }
        for module, name in _FUNCTIONS:
            original = getattr(pkg[f"paralyap.{module}"], name)
            wrapped = self._span(original, f"{module}.{name}", **hooks.get(name, {}))
            _rebind(pkg.values(), original, wrapped)

        quadrature = pkg["paralyap.quadrature"].adaptive_simpson
        wrapped = self._span(quadrature, "quadrature.adaptive_simpson",
                             before=self._count_integrand)
        for module in _QUADRATURE_USERS:
            mod = pkg[f"paralyap.{module}"]
            if getattr(mod, "adaptive_simpson", None) is quadrature:
                mod.adaptive_simpson = wrapped

        gp = pkg["paralyap.characteristics"].GProvider
        gp.__call__ = self._span(gp.__call__, "characteristics.g",
                                 before=self._count_points("characteristics.g_points"))

    def dump(self, path):
        """Write spans and counters to ``path``; its stem is the run id."""
        counters = dict(self.counters)
        counters["characteristics.extrapolations"] = sum(p.extrapolations for p in self.providers)
        np.savez(
            path,
            run_id=np.array(Path(path).stem),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            outer=np.frombuffer(bytes(self.outer), dtype=np.uint8).astype(bool),
            counters=np.array(json.dumps({"import_s": self.import_s, **counters})),
        )
