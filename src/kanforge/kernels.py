"""Batch evaluation kernels: the per-layer network forward plan and de Boor.

Network forward
---------------
`build_plan` turns a layered network into one `LayerPlan` per transformation
layer, splitting the layer's edges by class:

- affine edges (order-1 splines on 2 knots) fold into a dense weight matrix
  and a bias, evaluated as one matmul. The slope is `(c1 - c0)/(b - a)`, the
  spline's derivative bit for bit, so identity and negation wires get weight
  +-1 and bias 0 and stay exact;
- every other edge becomes rows of one padded piecewise-polynomial (pp)
  table: one row per segment holding the Taylor coefficients at the
  segment's left knot (de Boor, A Practical Guide to Splines, ch. VII),
  framed by one row per side holding the boundary value and slope of the
  linear continuation outside the domain. Rows are evaluated by Horner's
  rule and added into their targets.

The segment of a point comes from index arithmetic on uniform grids and from
`searchsorted` over the distinct knots on any other grid. `forward_batch`
runs the plan over fixed chunks of CHUNK rows, so its temporaries stay
bounded for any batch size. Out-of-domain evaluations of every edge class
are counted and returned, never raised.

Single splines
--------------
`eval_spline_batch` is vectorized de Boor over an array of points, with the
same linear continuation and out-of-domain count; it is the reference the
plan is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK",
    "KMAX",
    "LayerPlan",
    "NetPlan",
    "build_plan",
    "forward_batch",
    "eval_spline_batch",
]

# only the benchmark's environment record reads these: there is no JIT backend
HAS_NUMBA = USE_NUMBA = False

# splines of order >= KMAX are rejected: a net file cannot ask for an
# arbitrarily deep de Boor recursion or pp table
KMAX = 16

# rows per forward chunk: bounds the forward's temporaries at a few MB
CHUNK = 8192


# ---------------------------------------------------------------------------
# single-spline de Boor

def _deboor(T, c, k, j, t):
    """de Boor's recursion at points `t` on knot intervals `j` (T[j] <= t < T[j+1])."""
    if k == 0:
        return c[j]
    d = c[j[:, None] - k + np.arange(k + 1)[None, :]].copy()
    for r in range(1, k + 1):
        for i in range(k, r - 1, -1):
            lo = T[i + j - k]
            den = T[i + 1 + j - r] - lo
            safe = np.where(den == 0.0, 1.0, den)
            alpha = np.where(den == 0.0, 0.0, (t - lo) / safe)
            d[:, i] = (1.0 - alpha) * d[:, i - 1] + alpha * d[:, i]
    return d[:, k]


def eval_spline_batch(s, ts) -> tuple[np.ndarray, int]:
    """de Boor for the spline `s` over an array of points, continued linearly
    outside its domain. Returns (values, oob_count)."""
    T, c, k = s._T, s.coefs, s.order
    a, b = s.domain
    fa, sa, fb, sb = s._boundary
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    below = ts < a
    above = ts > b
    if below.any():
        out[below] = fa + sa * (ts[below] - a)
    if above.any():
        out[above] = fb + sb * (ts[above] - b)
    inside = ~(below | above)
    t = ts[inside]
    if t.size:
        j = np.searchsorted(T, t, side="right") - 1
        np.clip(j, k, c.shape[0] - 1, out=j)
        out[inside] = _deboor(T, c, k, j, t)
    return out, int(below.sum() + above.sum())


# ---------------------------------------------------------------------------
# network forward plan

@dataclass(frozen=True, eq=False)
class LayerPlan:
    """One transformation layer, split into its affine part and its pp part.

    Activations are feature-major, (width, rows), so that per-neuron and
    per-edge parameters broadcast as (n, 1) columns along contiguous rows.
    """

    width_out: int
    # affine edges: weight @ x + bias; weight is None without affine edges
    weight: np.ndarray | None  # (w_out, w_in)
    bias: np.ndarray           # (w_out, 1)
    aff_src: np.ndarray        # (E_a,) source neuron of each affine edge
    aff_lo: np.ndarray         # (E_a, 1) domain ends, for out-of-domain counting
    aff_hi: np.ndarray
    # pp edges, one row of activations per edge
    pp_src: np.ndarray         # (E_p,) source neuron
    pp_lo: np.ndarray          # (E_p, 1) domain ends
    pp_hi: np.ndarray
    pp_scale: np.ndarray       # (E_p, 1) (G-1)/(b-a) on uniform grids, 0 on others
    pp_shift: np.ndarray       # (E_p, 1) first - a*scale: t*scale + shift is the table row
    pp_first: np.ndarray       # (E_p, 1) table row of the first segment, as float
    pp_last: np.ndarray        # (E_p, 1) table row of the last segment, as float
    pp_below: np.ndarray       # (E_p, 1) table row continuing below the domain
    pp_above: np.ndarray       # (E_p, 1) table row continuing above the domain
    pp_searched: tuple         # (edge, distinct knots, first row) per non-uniform grid
    pp_left: np.ndarray        # (R,) left end of each table row
    pp_coef: np.ndarray        # (K+1, R) Taylor coefficients, highest power first
    pp_dst: tuple[int, ...]    # target neuron of each edge
    # per source neuron: the tightest domain over its outgoing edges; a chunk
    # whose values all lie inside it has no out-of-domain hit in this layer
    src_lo: np.ndarray         # (w_in, 1) max lower end (-inf without edges)
    src_hi: np.ndarray         # (w_in, 1) min upper end (+inf without edges)


@dataclass(frozen=True, eq=False)
class NetPlan:
    widths: tuple[int, ...]
    layers: tuple[LayerPlan, ...]


def _is_affine(s) -> bool:
    return s.order == 1 and s.knots.size == 2


def _taylor_rows(s, K: int) -> np.ndarray:
    """pp table rows of one spline: (K+1, G+1) Taylor coefficients, highest
    power first. Column 0 continues below the domain, columns 1..G-1 are the
    segments at their left knots, column G continues above the domain."""
    k, T, c, knots = s.order, s._T, s.coefs, s.knots
    nseg = knots.size - 1
    fa, sa, fb, sb = s._boundary
    coef = np.zeros((K + 1, nseg + 2))
    r = np.arange(nseg)
    fact = 1.0
    for m in range(k + 1):
        q = k - m
        if m:
            # derivative of the order-(q+1) spline: order q on the inner knot vector
            p = q + 1
            c = p * (c[1:] - c[:-1]) / (T[p + 1 : p + c.size] - T[1 : c.size])
            T = T[1:-1]
            fact *= m
        coef[K - m, 1:-1] = _deboor(T, c, q, r + q, knots[:-1]) / fact
    coef[K, 0], coef[K, -1] = fa, fb
    if K >= 1:
        coef[K - 1, 0], coef[K - 1, -1] = sa, sb
    return coef


def _col(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def _layer_plan(w_in: int, w_out: int, edges) -> LayerPlan:
    affine = [e for e in edges if _is_affine(e.spline)]
    curved = [e for e in edges if not _is_affine(e.spline)]
    src_lo = np.full((w_in, 1), -np.inf)
    src_hi = np.full((w_in, 1), np.inf)
    for e in edges:
        a, b = e.spline.domain
        src_lo[e.src] = max(src_lo[e.src, 0], a)
        src_hi[e.src] = min(src_hi[e.src, 0], b)

    weight = None
    bias = np.zeros((w_out, 1))
    if affine:
        weight = np.zeros((w_out, w_in))
        for e in affine:
            a, _ = e.spline.domain
            fa, sa, _, _ = e.spline._boundary
            weight[e.dst, e.src] = sa
            bias[e.dst] += fa - sa * a

    K = max((e.spline.order for e in curved), default=0)
    tables, left, searched = [], [], []
    first, nseg, scale = [], [], []
    rows = 0
    for i, e in enumerate(curved):
        s = e.spline
        a, b = s.domain
        G = s.knots.size
        tables.append(_taylor_rows(s, K))
        left.append(np.concatenate([s.knots[:1], s.knots[:-1], s.knots[-1:]]))
        first.append(rows + 1)
        nseg.append(G - 1)
        # order 0 is discontinuous at its knots, so it always takes the exact lookup
        if s.order >= 1 and np.array_equal(s.knots, np.linspace(a, b, G)):
            scale.append((G - 1) / (b - a))
        else:
            scale.append(0.0)
            searched.append((i, s.knots, rows + 1))
        rows += G + 1
    lo = _col([e.spline.domain[0] for e in curved])
    first_row = _col(first)
    last_row = first_row + _col(nseg) - 1
    return LayerPlan(
        width_out=w_out,
        weight=weight,
        bias=bias,
        aff_src=np.array([e.src for e in affine], dtype=np.intp),
        aff_lo=_col([e.spline.domain[0] for e in affine]),
        aff_hi=_col([e.spline.domain[1] for e in affine]),
        pp_src=np.array([e.src for e in curved], dtype=np.intp),
        pp_lo=lo,
        pp_hi=_col([e.spline.domain[1] for e in curved]),
        pp_scale=_col(scale),
        pp_shift=first_row - lo * _col(scale),
        pp_first=first_row,
        pp_last=last_row,
        pp_below=(first_row - 1).astype(np.intp),
        pp_above=(last_row + 1).astype(np.intp),
        pp_searched=tuple(searched),
        pp_left=np.concatenate(left) if left else np.zeros(0),
        pp_coef=np.concatenate(tables, axis=1) if tables else np.zeros((1, 0)),
        pp_dst=tuple(e.dst for e in curved),
        src_lo=src_lo,
        src_hi=src_hi,
    )


def build_plan(widths, layers) -> NetPlan:
    """Forward plan of a network: `layers[l]` holds the edges (objects with
    `src`, `dst`, `spline`) from boundary l to boundary l + 1."""
    widths = tuple(int(w) for w in widths)
    return NetPlan(
        widths=widths,
        layers=tuple(
            _layer_plan(widths[l], widths[l + 1], edges) for l, edges in enumerate(layers)
        ),
    )


def _layer_forward(lp: LayerPlan, cur: np.ndarray) -> tuple[np.ndarray, int]:
    """One layer on feature-major activations; returns (next activations, oob)."""
    oob = 0
    hits = bool((cur < lp.src_lo).any() or (cur > lp.src_hi).any())
    if lp.weight is None:
        out = np.zeros((lp.width_out, cur.shape[1]))
    else:
        out = lp.weight @ cur
        out += lp.bias
        if hits:
            t = cur[lp.aff_src]
            oob += int(np.count_nonzero(t < lp.aff_lo) + np.count_nonzero(t > lp.aff_hi))
    if not lp.pp_dst:
        return out, oob
    t = cur[lp.pp_src]
    # table row by index arithmetic, first + floor((t - a)(G-1)/(b-a)) clipped
    # to the edge's segments; truncation is floor once u >= first
    u = t * lp.pp_scale
    u += lp.pp_shift
    # fmax/fmin, unlike clip, send NaN to a valid row
    np.fmax(u, lp.pp_first, out=u)
    np.fmin(u, lp.pp_last, out=u)
    row = u.astype(np.intp)
    for i, knots, first in lp.pp_searched:
        seg = np.searchsorted(knots, t[i], side="right") - 1
        row[i] = np.clip(seg, 0, knots.size - 2) + first
    if hits:
        below = t < lp.pp_lo
        above = t > lp.pp_hi
        oob += int(np.count_nonzero(below) + np.count_nonzero(above))
        row = np.where(below, lp.pp_below, np.where(above, lp.pp_above, row))
    val = lp.pp_coef[0][row]
    if len(lp.pp_coef) > 1:
        dt = t - lp.pp_left[row]
        for coef in lp.pp_coef[1:]:
            val *= dt
            val += coef[row]
    # one in-place row add per edge: at these widths a 0/1 scatter matmul costs
    # several times more, and row adds sum in edge order for any batch size
    for i, d in enumerate(lp.pp_dst):
        out[d] += val[i]
    return out, oob


def forward_batch(plan: NetPlan, X) -> tuple[np.ndarray, int]:
    """Network forward over an (npoints, n_0) matrix, CHUNK rows at a time.

    Returns (outputs, out_of_domain_count).
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((X.shape[0], plan.widths[-1]))
    oob = 0
    for start in range(0, X.shape[0], CHUNK):
        cur = np.ascontiguousarray(X[start : start + CHUNK].T)
        for lp in plan.layers:
            cur, hits = _layer_forward(lp, cur)
            oob += hits
        out[start : start + CHUNK] = cur.T
    return out, oob
