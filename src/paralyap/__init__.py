"""Energy construction and decay verification for 1-D degenerate parabolic models.

The package builds an integral quantity E[u] = int L(x, u, u_x) dx whose
convexity profile in the gradient slot is manufactured, via an auxiliary
curve system, to make E decay along solutions of a given quasilinear or
fully nonlinear evolution.  The pieces:

- :mod:`paralyap.models` declares the evolution (coefficient callbacks,
  boundary conditions, optional closed-form references).
- :mod:`paralyap.characteristics` integrates the auxiliary curve system
  and exposes the log-weight g through interchangeable providers
  (analytic, reduced 1-D quadrature, curves traced back to x = 0).
- :mod:`paralyap.lagrangian` assembles the density L from the weight
  exp(g) times the second-order coefficient and evaluates L, L_p, L_pp.
- :mod:`paralyap.solver` evolves the PDE on a uniform grid.
- :mod:`paralyap.energy` traces E along a simulation and checks the
  decay identities.
- :mod:`paralyap.cli` wraps the pipeline in a batch command and writes
  every artifact.

The package itself holds only ``__version__``; import from the submodules.
"""

__version__ = "0.1.0"
