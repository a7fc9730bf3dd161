"""Quadrature for the integrands this package builds.

``integrate_batch`` is the one integrator.  It integrates one integrand over
the ranges of many query points at once with Gauss-Kronrod 7/15 panels,
calling the integrand once per sweep over all panels that are still open.
The energy density in :mod:`paralyap.lagrangian` and the reduced ``dg/dp``
quadrature in :mod:`paralyap.characteristics` run on it.

``adaptive_simpson`` is kept as a front for scalar callbacks, because the
``perfbench`` tracer wraps it by name; no module of the package calls it.
It calls the callback once per abscissa and hands the values to
``integrate_batch``; despite its name it applies no Simpson rule.

The gradient integrands assembled by the action-density construction are
smooth except possibly at p = 0, where degenerate weights like |p|**k with
k <= -1 blow up.  Any range that straddles zero is therefore split there,
and the Gauss-Kronrod nodes are interior, so no endpoint is ever sampled.

A range with one edge many decades closer to zero than the other (as happens
when a gradient sampled at a critical point of u lands at p ~ 1e-15 and the
convexity weight is integrated from there up to an O(1) base point) cannot
be resolved by bisection of a linear grid within any reasonable depth.  Such
ranges are integrated under the substitution s = exp(t) (s = -exp(t) on the
negative side), which maps the scale separation to an O(log) interval where
the integrand varies tamely.
"""

import numpy as np

__all__ = ["QuadratureError", "adaptive_simpson", "integrate_batch"]

# One-sided ranges whose near-zero edge is this much smaller than the far
# edge switch to log-space integration.
_LOG_EDGE_RATIO = 1e-4


class QuadratureError(RuntimeError):
    """Adaptive refinement failed; the message names the offending abscissa.

    ``index`` is the query point whose integral failed.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def adaptive_simpson(f, a, b, tol=1e-9):
    """Integrate the scalar callback ``f`` over ``[a, b]``.

    ``tol`` acts as a combined absolute and relative tolerance, as in
    ``integrate_batch``, which does the work.
    """
    return float(integrate_batch(lambda idx, s: np.array([f(float(v)) for v in s]), a, b, tol))


# Gauss-Kronrod 7/15 on [-1, 1]: the 15 Kronrod nodes in ascending order,
# their weights, and the weights of the 7-point Gauss rule, whose nodes are
# the odd-indexed Kronrod nodes.
_XK_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK_POS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WG_POS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_XK = np.array([-v for v in _XK_POS] + [0.0] + list(reversed(_XK_POS)))
_WK = np.array(list(_WK_POS) + [0.209482141084727828012999174891714] + list(reversed(_WK_POS)))
_WG = np.array(list(_WG_POS) + [0.417959183673469387755102040816327] + list(reversed(_WG_POS)))
# Bisection levels per range.  An integrable power singularity at an exact-
# zero edge, such as s**-0.5 on [0, 1], takes about 50 levels at tol = 1e-9.
_BATCH_MAX_DEPTH = 80
# Open panels per range.  A convergent integrand keeps only the few panels
# next to its trouble spots open, but one that never meets its tolerance,
# such as a noisy one, may double its open panels with each sweep, and the
# depth cap alone would let one point reach tens of millions of abscissae
# (gigabytes) before it fires.
_BATCH_MAX_PANELS = 2**10
# A panel error within this factor of the panel's integral of |f| is
# roundoff, which bisection cannot shrink, so such a panel is kept.  Without
# this, panels near a singular edge at 0 fail their width-pro-rata budget on
# roundoff alone and double with each sweep.
_ROUNDOFF = 50.0 * np.finfo(float).eps
_LINEAR, _LOG_POS, _LOG_NEG = 0, 1, 2


def _rule(rows, weights):
    # Fixed-order sum over the node rows.  A BLAS product or numpy's
    # pairwise reduction may group terms differently for different batch
    # sizes, which would make a point's result depend on its batch.
    acc = rows[0] * weights[0]
    for row, w in zip(rows[1:], weights[1:]):
        acc = acc + row * w
    return acc


def _segments(lo, hi):
    """Cut each nonempty range [lo, hi] into panels: (owner, kind, t_lo, t_hi).

    A range straddling 0 becomes two linear pieces that meet at 0.  A range
    whose near-zero edge is more than ``1 / _LOG_EDGE_RATIO`` times smaller
    than its far edge is integrated in t = log|s|.
    """
    live = lo != hi
    straddle = live & (lo < 0.0) & (hi > 0.0)
    log_pos = live & (lo > 0.0) & (lo < _LOG_EDGE_RATIO * hi)
    log_neg = live & (hi < 0.0) & (-hi < _LOG_EDGE_RATIO * -lo)
    plain = live & ~straddle & ~log_pos & ~log_neg
    zero = np.zeros_like(lo)
    with np.errstate(divide="ignore"):
        log_lo, log_hi = np.log(np.abs(lo)), np.log(np.abs(hi))
    pieces = (
        (plain, _LINEAR, lo, hi),
        (straddle, _LINEAR, lo, zero),
        (straddle, _LINEAR, zero, hi),
        (log_pos, _LOG_POS, log_lo, log_hi),
        (log_neg, _LOG_NEG, log_hi, log_lo),
    )
    columns = zip(*[
        (np.flatnonzero(sel), np.full(np.count_nonzero(sel), k), t0[sel], t1[sel])
        for sel, k, t0, t1 in pieces
    ])
    return tuple(np.concatenate(c) for c in columns)


def _abscissae(kind, t):
    # Map panel nodes t back to s; returns s and the Jacobian ds/dt.
    if not kind.any():
        return t, None
    e = np.exp(np.where(kind == _LINEAR, 0.0, t))
    s = np.where(kind == _LINEAR, t, np.where(kind == _LOG_POS, e, -e))
    return s, np.where(kind == _LINEAR, 1.0, e)


def integrate_batch(f, a, b, tol=1e-9):
    """Integrate one integrand over the ranges [a[i], b[i]] of many points.

    ``f(idx, s)`` receives two flat arrays of equal length, the abscissae
    ``s`` and for each the index ``idx`` of the query point it belongs to,
    and returns the integrand values there.  ``a`` and ``b`` broadcast
    against each other; the result has their broadcast shape.

    Every range is covered by Gauss-Kronrod 7/15 panels.  A point is done
    when the summed |K15 - G7| of its panels is within ``tol * (1 + |I|)``,
    I being its current estimate.  Until then, each of its panels whose
    estimate is within half that budget, pro rata to width, or at the
    roundoff level of the panel is kept, and every other panel is bisected.  A point's result depends only on its
    own integrand values: panels are summed in a fixed order, so the same
    range and integrand give the same bits in any batch.

    Raises ``QuadratureError`` with ``index`` set to the failing point on a
    non-finite limit, a non-finite integrand value, or when the panels of
    a point still fail after ``_BATCH_MAX_DEPTH`` bisections or a point holds
    more than ``_BATCH_MAX_PANELS`` open panels, which is how a divergent
    integral such as that of 1/s over [0, 1] ends.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a = a.ravel()
    b = b.ravel()
    n = a.size
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise QuadratureError(f"non-finite limit in [{float(a[i])!r}, {float(b[i])!r}]", index=i)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    owner, kind, t_lo, t_hi = _segments(lo, hi)
    budget_width = np.bincount(owner, t_hi - t_lo, minlength=n)
    total = np.zeros(n)
    err_kept = np.zeros(n)
    for _ in range(_BATCH_MAX_DEPTH + 1):
        if owner.size == 0:
            return np.where(b < a, -total, total).reshape(shape)
        mid = 0.5 * (t_lo + t_hi)
        half = 0.5 * (t_hi - t_lo)
        s, jac = _abscissae(kind, mid + half * _XK[:, None])
        y = np.broadcast_to(
            np.asarray(f(np.tile(owner, len(_XK)), s.ravel()), dtype=float), (s.size,)
        ).reshape(s.shape)
        if jac is not None:
            y = y * jac
        bad = ~np.isfinite(y)
        if bad.any():
            col = bad.any(axis=0)
            i = int(owner[col].min())
            at = s[:, col & (owner == i)][bad[:, col & (owner == i)]][0]
            raise QuadratureError(f"integrand is non-finite at s = {float(at)!r}", index=i)
        kron = half * _rule(y, _WK)
        err = np.abs(kron - half * _rule(y[1::2], _WG))
        noise = _ROUNDOFF * half * _rule(np.abs(y), _WK)
        estimate = total + np.bincount(owner, kron, minlength=n)
        tol_abs = tol * (1.0 + np.abs(estimate))
        done = err_kept + np.bincount(owner, err, minlength=n) <= tol_abs
        keep = done[owner] | (err <= tol_abs[owner] * half / budget_width[owner]) | (err <= noise)
        total += np.bincount(owner[keep], kron[keep], minlength=n)
        err_kept += np.bincount(owner[keep], err[keep], minlength=n)
        split = ~keep
        open_err = err[split]
        owner = np.repeat(owner[split], 2)
        kind = np.repeat(kind[split], 2)
        t_lo, t_hi = (
            np.column_stack([t_lo[split], mid[split]]).ravel(),
            np.column_stack([mid[split], t_hi[split]]).ravel(),
        )
        crowded = np.flatnonzero(np.bincount(owner, minlength=n) > _BATCH_MAX_PANELS)
        if crowded.size:
            raise _worst_panel_error(
                owner, kind, t_hi, open_err, int(crowded[0]),
                f"no convergence within {_BATCH_MAX_PANELS} open panels",
            )
    raise _worst_panel_error(
        owner, kind, t_hi, open_err, int(owner.min()),
        f"no convergence after {_BATCH_MAX_DEPTH} subdivision levels",
    )


def _worst_panel_error(owner, kind, t_hi, open_err, i, reason):
    # Name the split point of the worst panel of point i.  The open panels
    # are the halves of the panels that failed, so the left half of the j-th
    # failed panel sits at 2 * j and its upper edge is the split point.
    j = 2 * int(np.argmax(np.where(owner[::2] == i, open_err, -1.0)))
    at, _ = _abscissae(kind[j:j + 1], t_hi[j:j + 1])
    return QuadratureError(f"{reason} near s = {float(at[0])!r}", index=i)
