"""Quadrature for the integrands this package builds.

Two integrators share the same range handling:

* ``integrate_batch`` is the vectorised core.  It integrates one integrand
  over the ranges of many query points at once with Gauss-Kronrod 7/15
  panels, calling the integrand once per sweep over all panels that are
  still open.  The energy density in :mod:`paralyap.lagrangian` runs on it.
* ``adaptive_simpson`` is the scalar recursive Simpson rule with one Python
  callback per abscissa.  It serves scalar callers such as the reduced
  ``dg/dp`` quadrature and the filtration reference energy.

The gradient integrands assembled by the action-density construction are
smooth except possibly at p = 0, where degenerate weights like |p|**k with
k <= -1 blow up.  Both integrators therefore split any range that straddles
zero.  The Gauss-Kronrod nodes are interior, so the batched core never
samples an endpoint; the Simpson rule, which does, steps a tiny distance
inside the range when the endpoint value is non-finite, which drops a
sliver of negligible measure whenever the integrand has a finite one-sided
limit and escalates to an error when the integral genuinely diverges.

A range with one edge many decades closer to zero than the other (as happens
when a gradient sampled at a critical point of u lands at p ~ 1e-15 and the
convexity weight is integrated from there up to an O(1) base point) cannot
be resolved by bisection of a linear grid within any reasonable depth.  Such
ranges are integrated under the substitution s = exp(t) (s = -exp(t) on the
negative side), which maps the scale separation to an O(log) interval where
the integrand varies tamely.
"""

import math

import numpy as np

__all__ = ["QuadratureError", "adaptive_simpson", "integrate_batch"]

# 2**_MAX_DEPTH panels is the subdivision budget.
_MAX_DEPTH = 20
_ENDPOINT_NUDGES = (1e-12, 1e-9, 1e-7)
# One-sided ranges whose near-zero edge is this much smaller than the far
# edge switch to log-space integration.
_LOG_EDGE_RATIO = 1e-4


class QuadratureError(RuntimeError):
    """Adaptive refinement failed; the message names the offending abscissa.

    ``index`` is the query point whose integral failed when the error comes
    from ``integrate_batch``, and None otherwise.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _probe_endpoint(f, x, toward, span):
    # Retreat toward the interior if the endpoint value is non-finite.
    y = f(x)
    if math.isfinite(y):
        return x, y
    direction = 1.0 if toward > x else -1.0
    for rel in _ENDPOINT_NUDGES:
        xn = x + direction * rel * span
        y = f(xn)
        if math.isfinite(y):
            return xn, y
    raise QuadratureError(f"integrand is non-finite near x = {x!r}")


def _interior(f, x):
    y = f(x)
    if not math.isfinite(y):
        raise QuadratureError(f"integrand is non-finite at interior point x = {x!r}")
    return y


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _log_space(f, a, b, tol):
    # s = exp(t) carries ds = s dt, so the transformed integrand is f(s) * s.
    def transformed(t):
        s = math.exp(t)
        return f(s) * s

    return adaptive_simpson(transformed, math.log(a), math.log(b), tol, False)


def _tail_slope(f, x1):
    # Local power-law exponent d log|f| / d log s just inside a nudged
    # endpoint; None when the probe pair cannot support an estimate.
    y1 = abs(f(x1))
    y2 = abs(f(10.0 * x1))
    if not (math.isfinite(y1) and math.isfinite(y2)) or y1 == 0.0 or y2 == 0.0:
        return None
    return (math.log(y2) - math.log(y1)) / math.log(10.0)


def _refine(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _interior(f, lm)
    frm = _interior(f, rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth >= _MAX_DEPTH:
        raise QuadratureError(
            f"no convergence after {_MAX_DEPTH} subdivision levels near x = {m!r}"
        )
    return _refine(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + _refine(
        f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
    )


def adaptive_simpson(f, a, b, tol=1e-9, split_at_zero=True):
    """Integrate ``f`` over ``[a, b]``.

    ``tol`` acts as a combined absolute and relative tolerance: the accepted
    error is ``tol * (1 + |first estimate|)``.  With ``split_at_zero`` the
    range is cut at 0 whenever 0 lies strictly inside, so one-sided endpoint
    handling applies on each half.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, split_at_zero)
    if split_at_zero and a < 0.0 < b:
        return adaptive_simpson(f, a, 0.0, 0.5 * tol, False) + adaptive_simpson(
            f, 0.0, b, 0.5 * tol, False
        )
    if 0.0 < a < _LOG_EDGE_RATIO * b:
        return _log_space(f, a, b, tol)
    if b <= 0.0 and 0.0 < -b < _LOG_EDGE_RATIO * -a:
        return _log_space(lambda s: f(-s), -b, -a, tol)
    span = b - a
    xa, fa = _probe_endpoint(f, a, b, span)
    xb, fb = _probe_endpoint(f, b, a, span)
    # A nudge off a singular endpoint at 0 can expose the same scale
    # separation the pre-dispatch looks for; re-check on the nudged range.
    # Tails at or steeper than 1/s make the dropped sliver divergent, so
    # those still escalate instead of being integrated from the nudge on.
    if xa != a and 0.0 < xa < _LOG_EDGE_RATIO * xb:
        slope = _tail_slope(f, xa)
        if slope is not None and slope <= -0.999:
            raise QuadratureError(f"integral diverges at the endpoint x = {a!r}")
        return _log_space(f, xa, xb, tol)
    if xb != b and xb < 0.0 and 0.0 < -xb < _LOG_EDGE_RATIO * -xa:
        slope = _tail_slope(lambda s: f(-s), -xb)
        if slope is not None and slope <= -0.999:
            raise QuadratureError(f"integral diverges at the endpoint x = {b!r}")
        return _log_space(lambda s: f(-s), -xb, -xa, tol)
    m = 0.5 * (xa + xb)
    fm = _interior(f, m)
    whole = _simpson(fa, fm, fb, xb - xa)
    tol_abs = tol * (1.0 + abs(whole))
    return _refine(f, xa, fa, m, fm, xb, fb, whole, tol_abs, 0)


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
    estimate is within half that budget, pro rata to width, is kept and
    every other panel is bisected.  A point's result depends only on its
    own integrand values: panels are summed in a fixed order, so the same
    range and integrand give the same bits in any batch.

    Raises ``QuadratureError`` with ``index`` set to the failing point on a
    non-finite limit, a non-finite integrand value, or when the panels of
    a point still fail after ``_BATCH_MAX_DEPTH`` bisections, which is how
    a divergent integral such as that of 1/s over [0, 1] ends.
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
        estimate = total + np.bincount(owner, kron, minlength=n)
        tol_abs = tol * (1.0 + np.abs(estimate))
        done = err_kept + np.bincount(owner, err, minlength=n) <= tol_abs
        keep = done[owner] | (err <= tol_abs[owner] * half / budget_width[owner])
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
    # Name the worst panel of the first point that failed.
    i = int(owner.min())
    j = 2 * int(np.argmax(np.where(owner[::2] == i, open_err, -1.0)))
    at, _ = _abscissae(kind[j:j + 1], t_hi[j:j + 1])
    raise QuadratureError(
        f"no convergence after {_BATCH_MAX_DEPTH} subdivision levels near s = {float(at[0])!r}",
        index=i,
    )
