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

The plan is built from whole-network arrays: one pass over every edge, in
layer order, gathers its layer, source, target, domain ends, boundary value
and slope, and whether it is affine. The weights of all layers are filled by
one index assignment into a shared buffer; the biases and the per-source
domain bounds by one `np.add.at` / `np.maximum.at` / `np.minimum.at` each,
with per-layer offsets (`add.at` applies its updates in edge order, so every
bias sums its edges in that order). Each `LayerPlan` holds views of these
arrays. The pp rows of all curved edges come from one stacked de Boor pass
per (order, grid size); only layers with curved edges then lay their rows
out in a table, and the others share one set of empty, read-only pp arrays.

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
    """de Boor's recursion at points `t` on knot intervals `j` (T[j] <= t < T[j+1]).

    `T`, `c` and `t` may carry a leading axis of splines sharing `k` and `j`;
    every value is computed by the same elementwise steps either way.
    """
    if k == 0:
        return c[..., j]
    d = c[..., j[:, None] - k + np.arange(k + 1)[None, :]].copy()
    for r in range(1, k + 1):
        for i in range(k, r - 1, -1):
            lo = T[..., i + j - k]
            den = T[..., i + 1 + j - r] - lo
            safe = np.where(den == 0.0, 1.0, den)
            alpha = np.where(den == 0.0, 0.0, (t - lo) / safe)
            d[..., i] = (1.0 - alpha) * d[..., i - 1] + alpha * d[..., i]
    return d[..., k]


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


def _taylor_rows(splines) -> list[np.ndarray]:
    """pp table rows of each spline at its own order k: (k+1, G+1) Taylor
    coefficients, highest power first. Column 0 continues below the domain,
    columns 1..G-1 are the segments at their left knots, column G continues
    above the domain. Splines of one order and grid size go through de Boor
    together, as one stack."""
    groups: dict[tuple[int, int], list[int]] = {}
    for n, s in enumerate(splines):
        groups.setdefault((s.order, s.knots.size), []).append(n)
    tables = [None] * len(splines)
    for (k, G), members in groups.items():
        stack = [splines[n] for n in members]
        T = np.array([s._T for s in stack])
        c = np.array([s.coefs for s in stack])
        knots = np.array([s.knots for s in stack])
        fa, sa, fb, sb = np.array([s._boundary for s in stack]).T
        coef = np.zeros((len(stack), k + 1, G + 1))
        r = np.arange(G - 1)
        fact = 1.0
        for m in range(k + 1):
            q = k - m
            if m:
                # derivative of the order-(q+1) spline: order q on the inner knot vector
                p, size = q + 1, c.shape[1]
                c = p * (c[:, 1:] - c[:, :-1]) / (T[:, p + 1 : p + size] - T[:, 1:size])
                T = T[:, 1:-1]
                fact *= m
            coef[:, k - m, 1:-1] = _deboor(T, c, q, r + q, knots[:, :-1]) / fact
        coef[:, k, 0], coef[:, k, -1] = fa, fb
        if k >= 1:
            coef[:, k - 1, 0], coef[:, k - 1, -1] = sa, sb
        for n, table in zip(members, coef):
            tables[n] = table
    return tables


def _col(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def _empty(shape, dtype=np.float64) -> np.ndarray:
    a = np.zeros(shape, dtype=dtype)
    a.flags.writeable = False
    return a


# the pp-table fields of every layer without curved edges, shared read-only
_NO_PP = dict(
    pp_scale=_empty((0, 1)), pp_shift=_empty((0, 1)), pp_first=_empty((0, 1)), pp_last=_empty((0, 1)),
    pp_below=_empty((0, 1), np.intp), pp_above=_empty((0, 1), np.intp), pp_searched=(),
    pp_left=_empty(0), pp_coef=_empty((1, 0)),
)


def _pp_part(splines, tables, lo: np.ndarray) -> dict:
    """pp-table fields of one layer's curved edges, given their `_taylor_rows`;
    `lo` holds their lower domain ends as an (E_p, 1) column."""
    if not splines:
        return _NO_PP
    K = max(s.order for s in splines)
    # a table of order k < K fills the K+1-row table's last k+1 rows: the rest
    # are the zero coefficients of the powers above k
    coef = np.zeros((K + 1, sum(s.knots.size + 1 for s in splines)))
    left, searched = [], []
    first, nseg, scale = [], [], []
    rows = 0
    for i, (s, table) in enumerate(zip(splines, tables)):
        a, b = s.domain
        G = s.knots.size
        coef[K - s.order :, rows : rows + G + 1] = table
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
    first_row = _col(first)
    last_row = first_row + _col(nseg) - 1
    return dict(
        pp_scale=_col(scale),
        pp_shift=first_row - lo * _col(scale),
        pp_first=first_row,
        pp_last=last_row,
        pp_below=(first_row - 1).astype(np.intp),
        pp_above=(last_row + 1).astype(np.intp),
        pp_searched=tuple(searched),
        pp_left=np.concatenate(left),
        pp_coef=coef,
    )


def build_plan(widths, layers) -> NetPlan:
    """Forward plan of a network: `layers[l]` holds the edges (objects with
    `src`, `dst`, `spline`) from boundary l to boundary l + 1."""
    widths = tuple(int(w) for w in widths)
    w_in, w_out = np.array(widths[:-1]), np.array(widths[1:])
    # one pass over every edge, in layer order, into flat per-edge arrays
    splines = [e.spline for edges in layers for e in edges]
    dst_list = [e.dst for edges in layers for e in edges]
    src = np.array([e.src for edges in layers for e in edges], dtype=np.intp)
    dst = np.array(dst_list, dtype=np.intp)
    lo, hi, fa, sa = np.array([s.domain + s._boundary[:2] for s in splines]).reshape(-1, 4).T
    affine = np.array([_is_affine(s) for s in splines], dtype=bool)
    layer = np.repeat(np.arange(len(layers)), [len(edges) for edges in layers])
    in_off = np.concatenate([[0], np.cumsum(w_in)])
    out_off = np.concatenate([[0], np.cumsum(w_out)])

    # per-source domain bounds of all layers; the updates run in reverse edge
    # order so that of equal ends (0.0 and -0.0) the first edge's is kept, as
    # a running max/min over the edges keeps it
    at = (in_off[layer] + src)[::-1]
    src_lo = np.full(in_off[-1], -np.inf)
    src_hi = np.full(in_off[-1], np.inf)
    np.maximum.at(src_lo, at, lo[::-1])
    np.minimum.at(src_hi, at, hi[::-1])

    # affine edges: biases summed in edge order; weights by index assignment
    # into one buffer that holds the matrices of the layers having any
    aff = np.flatnonzero(affine)
    aff_layer = layer[aff]
    aff_off = np.concatenate([[0], np.cumsum(np.bincount(aff_layer, minlength=len(layers)))])
    bias = np.zeros(out_off[-1])
    # edges near the float limit may sum to inf (here and in the forward);
    # the check rows report the non-finite output, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(bias, out_off[aff_layer] + dst[aff], fa[aff] - sa[aff] * lo[aff])
    w_off = np.concatenate([[0], np.cumsum(np.where(np.diff(aff_off) > 0, w_out * w_in, 0))])
    weights = np.zeros(w_off[-1])
    weights[w_off[aff_layer] + dst[aff] * w_in[aff_layer] + src[aff]] = sa[aff]
    aff_src, aff_lo, aff_hi = src[aff], lo[aff, None], hi[aff, None]

    # curved edges: the Taylor rows of all of them at once, then a pp table
    # in each layer that has any
    curved = np.flatnonzero(~affine)
    pp_off = np.concatenate([[0], np.cumsum(np.bincount(layer[curved], minlength=len(layers)))])
    pp_src, pp_lo, pp_hi = src[curved], lo[curved, None], hi[curved, None]
    pp_splines = [splines[i] for i in curved]
    tables = _taylor_rows(pp_splines)

    plans = []
    for l in range(len(layers)):
        a0, a1, p0, p1 = aff_off[l], aff_off[l + 1], pp_off[l], pp_off[l + 1]
        plans.append(LayerPlan(
            width_out=widths[l + 1],
            weight=weights[w_off[l] : w_off[l + 1]].reshape(w_out[l], w_in[l]) if a1 > a0 else None,
            bias=bias[out_off[l] : out_off[l + 1], None],
            aff_src=aff_src[a0:a1],
            aff_lo=aff_lo[a0:a1],
            aff_hi=aff_hi[a0:a1],
            pp_src=pp_src[p0:p1],
            pp_lo=pp_lo[p0:p1],
            pp_hi=pp_hi[p0:p1],
            pp_dst=tuple(dst_list[i] for i in curved[p0:p1]),
            src_lo=src_lo[in_off[l] : in_off[l + 1], None],
            src_hi=src_hi[in_off[l] : in_off[l + 1], None],
            **_pp_part(pp_splines[p0:p1], tables[p0:p1], pp_lo[p0:p1]),
        ))
    return NetPlan(widths=widths, layers=tuple(plans))


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
    with np.errstate(over="ignore", invalid="ignore"):  # see the bias sum in build_plan
        for start in range(0, X.shape[0], CHUNK):
            cur = np.ascontiguousarray(X[start : start + CHUNK].T)
            for lp in plan.layers:
                cur, hits = _layer_forward(lp, cur)
                oob += hits
            out[start : start + CHUNK] = cur.T
    return out, oob
