"""Batch evaluation kernels: the network forward as a slot program, and de Boor.

Network forward
---------------
`build_plan` compiles a layered network into a slot program over one value
table. Every neuron resolves to a value:

- a neuron whose only incoming edge is an exact identity wire (an order-1,
  2-knot spline with slope exactly 1.0 and value `a` at `a`, as
  `line_spline(a, b, a, b)`) is an alias of its source's value. Identity
  wires are most of a compiled network's edges (every input and intermediate
  is forwarded by them), and an alias costs nothing in the forward;
- every other neuron is a new value, computed by its layer's step.

Each transformation layer becomes one `Step`, which evaluates only the
layer's non-identity edges:

- affine edges (order-1 splines on 2 knots) fold into a weight matrix with
  one column per source neuron, not per value: two neurons aliasing one value
  (the fan-out copies of `x1*x1`) keep their own weights. The step reads
  one table row per column (in place when they are one run of rows, else
  gathered) and runs one matmul, then adds the bias, whose intercepts are
  summed in edge order. The slope is `(c1 - c0)/(b - a)`, the
  spline's derivative bit for bit, so negation wires stay exact;
- every other edge reads its spline's rows of the network's padded
  piecewise-polynomial (pp) table: one row per segment holding the Taylor
  coefficients at the segment's left knot (de Boor, A Practical Guide to
  Splines, ch. VII), framed by one row per side holding the boundary value
  and slope of the linear continuation outside the domain. Rows are
  evaluated by Horner's rule and added into their targets in edge order.

The segment of a point comes from index arithmetic on uniform grids and, on
any other grid, from counting the inner knots at or below it, one in-place
comparison per inner knot (the compiler's only such grids have one inner
knot: the hinge and the quarter-square midpoint).

A step's new values take consecutive rows of the table, allocated before
the rows of the values it reads last are released, so no step writes a row
it reads. A row is reused once its value's last reader has run, so the table
follows the network's width, not its depth. Output neurons keep their rows;
a forwarded input stays an alias of its input row.

The plan is built per spline table entry, from the network's own arrays:
the `[src, dst, spline_index]` triples of every edge in layer order, as the
net file holds them. A compiled network has far fewer table entries than
edges (most edges are identity wires sharing a few entries). Domain ends,
boundary value and slope, and whether a spline is affine are read once per
entry and gathered to the edges by their index.
Aliases resolve by pointer jumping over all neurons at once; weights,
biases and per-value domains are filled by one index assignment,
`np.add.at`, `np.maximum.at` and `np.minimum.at` each. The network has one
pp table, over its curved table entries, whose Taylor rows come from one
stacked de Boor pass per (order, grid size); the uniform-grid test also runs
once per spline. Each step reads a view of the table's coefficients for the
powers up to K, K the largest order among its edges, and its edges index
their spline's rows.
Python walks the layers only to allocate rows and to cut each step's views
out of these arrays.

`forward_batch` runs the program over fixed chunks of CHUNK points. The
table and every per-chunk scratch array are views of one workspace: one
float buffer, one index buffer and one mask per thread, shared by every call
and grown, never shrunk, to the largest size a call has needed. Memory stays
bounded for any batch size, nothing CHUNK-sized is allocated inside the
chunk loop outside the rare out-of-domain path named below, and consecutive
forwards (the sample blocks of one sup-error pass, or nets of different
sizes) reuse pages already touched instead of mapping fresh ones. The price
is that the largest workspace a thread has used stays allocated.

Out-of-domain evaluations are counted and returned, never raised: one count
per edge evaluated at a point outside its domain, identity wires included,
as the de Boor reference counts them. Each value is checked once, when it is
written, against the tightest domain of all the edges that read it; only on
a hit are its readers counted one by one, and only after a hit in a chunk do
its pp edges look for points to send to their continuation rows.

Single splines
--------------
`eval_spline_batch` is vectorized de Boor over an array of points, with the
same linear continuation and out-of-domain count; it is the reference the
plan is tested against.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK",
    "KMAX",
    "NetPlan",
    "Step",
    "build_plan",
    "forward_batch",
    "eval_spline_batch",
]

# only the benchmark's environment record reads these: there is no JIT backend
HAS_NUMBA = USE_NUMBA = False

# splines of order >= KMAX are rejected: a net file cannot ask for an
# arbitrarily deep de Boor recursion or pp table
KMAX = 16

# points per forward chunk: the columns of the forward's value table
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
# network forward: the slot program

@dataclass(frozen=True, eq=False)
class Step:
    """One transformation layer: its non-identity edges, summed into the
    consecutive table rows `rows`, one per new value of the layer.

    The table is feature-major, (rows, points), so per-value and per-edge
    parameters broadcast as (n, 1) columns along contiguous rows.
    """

    rows: slice                # table rows of the new values
    v0: int                    # value id of the first new value
    # affine edges: weight @ table[gather] + bias; weight is None without any
    weight: np.ndarray | None  # (n, k), one column per source neuron
    bias: np.ndarray           # (n, 1) intercepts, summed in edge order
    gather: slice | np.ndarray # (k,) table row of each column's source (see `_run`)
    # per new value: the tightest domain over every edge reading it
    lo: np.ndarray             # (n,) max lower end (-inf without readers)
    hi: np.ndarray             # (n,) min upper end (+inf without readers)
    checked: bool              # whether any new value has a reader
    # pp edges, one row of the scratch per edge
    pp_rows: slice | np.ndarray  # (E_p,) table row of each edge's source
    pp_lo: np.ndarray          # (E_p, 1) domain ends
    pp_hi: np.ndarray
    pp_scale: np.ndarray       # (E_p, 1) (G-1)/(b-a) on uniform grids, 0 on others
    pp_shift: np.ndarray       # (E_p, 1) first - a*scale: t*scale + shift is the pp table row
    pp_first: np.ndarray       # (E_p, 1) pp table row of the first segment, as float
    pp_last: np.ndarray        # (E_p, 1) pp table row of the last segment, as float
    pp_below: np.ndarray       # (E_p, 1) pp table row continuing below the domain
    pp_above: np.ndarray       # (E_p, 1) pp table row continuing above the domain
    pp_counted: tuple          # (edge, distinct knots, first row) per non-uniform grid
    pp_left: np.ndarray        # (R,) left end of each row of the network's pp table
    pp_coef: np.ndarray        # (K+1, R) its last K+1 coefficient rows, K the step's largest order
    pp_dst: tuple[int, ...]    # offset in `rows` of each edge's target


@dataclass(frozen=True, eq=False)
class NetPlan:
    widths: tuple[int, ...]
    n_rows: int                  # rows of the value table
    steps: tuple[Step, ...]
    in_lo: np.ndarray            # (n_0,) tightest domain over each input's readers
    in_hi: np.ndarray
    out_rows: tuple[int, ...]    # table row of each output neuron
    # every edge's domain, grouped by the value it reads: value v's readers
    # are rd_lo/rd_hi[rd_off[v] : rd_off[v + 1]]
    rd_off: np.ndarray
    rd_lo: np.ndarray
    rd_hi: np.ndarray
    max_gather: int              # largest weight column count of a step
    max_pp: int                  # largest pp edge count of a step


def _pp_table(splines):
    """The network's pp table over its distinct curved splines.

    Returns (coef, left, start, uniform). `coef` is (K+1, R), K the largest
    order: column r holds the Taylor coefficients of pp table row r, highest
    power first, and `left[r]` is the point they are taken at. Spline n
    takes the G+1 rows from `start[n]`: the first continues below the
    domain, the next G-1 are the segments at their left knots, the last
    continues above the domain. An order-k spline fills the last k+1
    coefficient rows; the rest are the zero coefficients of the powers above
    k. `uniform[n]` is whether spline n's segment comes from index
    arithmetic: an order >= 1 spline on a uniform grid (order 0 is
    discontinuous at its knots, so it always counts knots). Splines of one
    order and grid size go through de Boor together, as one stack.
    """
    start = [0, *itertools.accumulate(s.knots.size + 1 for s in splines)]
    K = max(s.order for s in splines)
    coef = np.zeros((K + 1, start[-1]))
    left = np.empty(start[-1])
    groups: dict[tuple[int, int], list[int]] = {}
    for n, s in enumerate(splines):
        groups.setdefault((s.order, s.knots.size), []).append(n)
    for (k, G), members in groups.items():
        stack = [splines[n] for n in members]
        T = np.array([s._T for s in stack])
        c = np.array([s.coefs for s in stack])
        knots = np.array([s.knots for s in stack])
        fa, sa, fb, sb = np.array([s._boundary for s in stack]).T
        table = np.zeros((k + 1, len(stack), G + 1))
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
            table[k - m, :, 1:-1] = _deboor(T, c, q, r + q, knots[:, :-1]) / fact
        table[k, :, 0], table[k, :, -1] = fa, fb
        if k >= 1:
            table[k - 1, :, 0], table[k - 1, :, -1] = sa, sb
        rows = np.array([start[n] for n in members])[:, None] + np.arange(G + 1)
        coef[K - k :, rows] = table
        left[rows] = np.concatenate([knots[:, :1], knots[:, :-1], knots[:, -1:]], axis=1)
    uniform = [s.order >= 1 and np.array_equal(s.knots, np.linspace(*s.domain, s.knots.size)) for s in splines]
    return coef, left, start[:-1], uniform


def _col(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def _empty(shape, dtype=np.float64) -> np.ndarray:
    a = np.zeros(shape, dtype=dtype)
    a.flags.writeable = False
    return a


# the pp-table fields of every step without curved edges, shared read-only
_NO_PP = dict(
    pp_rows=_empty(0, np.intp), pp_lo=_empty((0, 1)), pp_hi=_empty((0, 1)),
    pp_scale=_empty((0, 1)), pp_shift=_empty((0, 1)), pp_first=_empty((0, 1)), pp_last=_empty((0, 1)),
    pp_below=_empty((0, 1), np.intp), pp_above=_empty((0, 1), np.intp), pp_counted=(),
    pp_left=_empty(0), pp_coef=_empty((1, 0)), pp_dst=(),
)


def _allocate_rows(n_inputs: int, n_new: list[int], free_at: list[int]) -> tuple[np.ndarray, int]:
    """Table row of every value, and the table's row count. Inputs take rows
    0..n_0-1; step l's `n_new[l]` values take the first run of free
    consecutive rows (or extend the table), and only then are the rows of
    the values with `free_at == l` released (inputs nothing reads: -1)."""
    row = list(range(n_inputs)) + [0] * (len(free_at) - n_inputs)
    dying = [[] for _ in range(len(n_new) + 2)]
    for v, l in enumerate(free_at):
        dying[l + 1].append(v)
    occupied = bytearray(b"\x01" * n_inputs)
    for v in dying[0]:
        occupied[row[v]] = 0
    v = n_inputs
    for l, n in enumerate(n_new):
        if n:
            r0 = occupied.find(bytes(n))
            if r0 < 0:
                # past the last taken row, extending the table as needed
                r0 = len(occupied.rstrip(b"\x00"))
                occupied.extend(bytes(max(0, r0 + n - len(occupied))))
            occupied[r0 : r0 + n] = b"\x01" * n
            row[v : v + n] = range(r0, r0 + n)
            v += n
        for d in dying[l + 1]:
            occupied[row[d]] = 0
    return np.array(row, dtype=np.intp), len(occupied)


def _run(rows: np.ndarray) -> slice | np.ndarray:
    """Table rows to read: a slice when they are one ascending run, so the
    forward reads them in place, else the rows for `_read` to gather."""
    r = rows.tolist()
    if r and r == list(range(r[0], r[0] + len(r))):
        return slice(r[0], r[0] + len(r))
    return rows


def build_plan(net) -> NetPlan:
    """Slot program of `net`, a `kannet.KanNetwork`: its boundary widths,
    spline table, edge triples and edges per layer."""
    widths, splines, counts = net.widths, net.splines, net.counts
    L = len(counts)
    # spline fields are read once per table entry and gathered by its index
    src, dst, sid = net.edges.T
    per_spline = np.array([s.domain + s._boundary[:2] for s in splines]).reshape(-1, 4)
    lo, hi, fa, sa = per_spline[sid].T
    curved_spline = np.array([s.order != 1 or s.knots.size != 2 for s in splines], dtype=bool)
    affine = ~curved_spline[sid]
    layer = np.repeat(np.arange(L), counts)

    # neurons numbered across all boundaries; an exact identity that is its
    # target's only edge makes the target an alias of its source
    off = np.concatenate([[0], np.cumsum(widths)])
    gsrc, gdst = off[layer] + src, off[layer + 1] + dst
    alias = affine & (sa == 1.0) & (fa == lo)
    alias &= np.bincount(gdst, minlength=off[-1])[gdst] == 1
    root = np.arange(off[-1])
    root[gdst[alias]] = gsrc[alias]
    for _ in range(L.bit_length()):  # pointer jumping: chains span at most L layers
        root = root[root]
    is_new = root == np.arange(off[-1])
    # values are numbered in neuron order: the inputs, then each step's new ones
    val = (np.cumsum(is_new) - 1)[root]
    v_off = np.concatenate([[0], np.cumsum(is_new)])[off]
    n_val = int(v_off[-1])
    n_new = np.diff(v_off)[1:]
    vsrc = val[gsrc]
    ev = ~alias
    tloc = val[gdst] - v_off[layer + 1]

    # every edge's domain, grouped by the value it reads, and per value the
    # tightest of them
    by_val = np.argsort(vsrc, kind="stable")
    rd_off = np.concatenate([[0], np.cumsum(np.bincount(vsrc, minlength=n_val))])
    vlo = np.full(n_val, -np.inf)
    vhi = np.full(n_val, np.inf)
    np.maximum.at(vlo, vsrc, lo)
    np.minimum.at(vhi, vsrc, hi)

    # a value's row is released after its last evaluated reader; outputs never
    last = np.full(n_val, -1)
    np.maximum.at(last, vsrc[ev], layer[ev])
    out_vals = val[off[-2] :]
    last[out_vals] = L
    born = np.repeat(np.arange(-1, L), np.diff(v_off))
    row, n_rows = _allocate_rows(widths[0], n_new.tolist(), np.maximum(last, born).tolist())

    # affine edges: one weight column per distinct source neuron, filled by
    # index assignment; intercepts summed into the biases in edge order
    aff = np.flatnonzero(ev & affine)
    cols, col_of = np.unique(gsrc[aff], return_inverse=True)
    k_off = np.concatenate([[0], np.cumsum(np.bincount(np.searchsorted(off, cols, "right") - 1, minlength=L))])
    k = np.diff(k_off)
    w_off = np.concatenate([[0], np.cumsum(n_new * k)])
    weights = np.zeros(w_off[-1])
    aff_layer = layer[aff]
    weights[w_off[aff_layer] + tloc[aff] * k[aff_layer] + col_of - k_off[aff_layer]] = sa[aff]
    bias = np.zeros(n_val - widths[0])
    # edges near the float limit may sum to inf (here and in the forward);
    # the check rows report the non-finite output, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(bias, val[gdst[aff]] - widths[0], fa[aff] - sa[aff] * lo[aff])
    gather = row[val[cols]]

    # curved edges: the network's one pp table over its distinct curved
    # splines, and per edge the rows of its spline; each step reads the
    # table's last K + 1 coefficient rows, K the largest order among its edges
    curved = np.flatnonzero(~affine)
    n_pp = np.bincount(layer[curved], minlength=L)
    pp_off = np.concatenate([[0], np.cumsum(n_pp)])
    if curved.size:
        pp_splines = [splines[i] for i in np.flatnonzero(curved_spline).tolist()]
        coef, left, start, uniform = _pp_table(pp_splines)
        # per pp spline, gathered to each curved edge by its index `which`
        which = (np.cumsum(curved_spline) - 1)[sid[curved]]
        order = np.array([s.order for s in pp_splines])[which].tolist()
        pp_first = _col(start)[which] + 1.0
        pp_last = pp_first + _col([s.knots.size - 2 for s in pp_splines])[which]
        pp_scale = _col([(s.knots.size - 1) / (s.domain[1] - s.domain[0]) if u else 0.0
                         for s, u in zip(pp_splines, uniform)])[which]
        pp_lo, pp_hi = lo[curved, None], hi[curved, None]
        pp_shift = pp_first - pp_lo * pp_scale
        pp_below, pp_above = (pp_first - 1.0).astype(np.intp), (pp_last + 1.0).astype(np.intp)
        pp_rows, pp_dst = row[vsrc[curved]], tloc[curved].tolist()
        # per step, its edges on grids that are not uniform
        counted = [[] for _ in range(L)]
        pp_layer = layer[curved].tolist()
        for j in np.flatnonzero(~np.array(uniform)[which]).tolist():
            l = pp_layer[j]
            counted[l].append((j - int(pp_off[l]), pp_splines[which[j]].knots, int(pp_first[j, 0])))

    steps = []
    v_off, pp_off, k_off, w_off, k = (a.tolist() for a in (v_off, pp_off, k_off, w_off, k))
    for l in range(L):
        v0, v1 = v_off[l + 1], v_off[l + 2]
        if v1 == v0:
            continue  # every neuron of the boundary is an alias
        p0, p1 = pp_off[l], pp_off[l + 1]
        pp = _NO_PP if p1 == p0 else dict(
            pp_rows=_run(pp_rows[p0:p1]),
            pp_lo=pp_lo[p0:p1],
            pp_hi=pp_hi[p0:p1],
            pp_scale=pp_scale[p0:p1],
            pp_shift=pp_shift[p0:p1],
            pp_first=pp_first[p0:p1],
            pp_last=pp_last[p0:p1],
            pp_below=pp_below[p0:p1],
            pp_above=pp_above[p0:p1],
            pp_counted=tuple(counted[l]),
            pp_left=left,
            pp_coef=coef[len(coef) - 1 - max(order[p0:p1]) :],
            pp_dst=tuple(pp_dst[p0:p1]),
        )
        r0 = int(row[v0])
        steps.append(Step(
            rows=slice(r0, r0 + v1 - v0),
            v0=v0,
            weight=weights[w_off[l] : w_off[l + 1]].reshape(v1 - v0, k[l]) if k[l] else None,
            bias=bias[v0 - widths[0] : v1 - widths[0], None],
            gather=_run(gather[k_off[l] : k_off[l + 1]]),
            lo=vlo[v0:v1],
            hi=vhi[v0:v1],
            checked=bool(rd_off[v1] > rd_off[v0]),
            **pp,
        ))
    return NetPlan(
        widths=widths,
        n_rows=n_rows,
        steps=tuple(steps),
        in_lo=vlo[: widths[0]],
        in_hi=vhi[: widths[0]],
        out_rows=tuple(row[out_vals].tolist()),
        rd_off=rd_off,
        rd_lo=lo[by_val],
        rd_hi=hi[by_val],
        max_gather=max(k, default=0),
        max_pp=int(n_pp.max(initial=0)),
    )


# the forward's workspace buffers, one per dtype and thread (see `_buffer`)
_workspace = threading.local()


def _buffer(dtype, size: int) -> np.ndarray:
    """The first `size` elements of this thread's workspace buffer of
    `dtype`, replaced by a larger one when it is too small."""
    bufs = _workspace.__dict__
    buf = bufs.get(dtype)
    if buf is None or buf.size < size:
        buf = bufs[dtype] = np.empty(size, dtype)
    return buf[:size]


def _views(plan: NetPlan, m: int):
    """(table, gather, t, u, val, dt, row, mask) for a chunk of m points, as
    views of the workspace."""
    sizes = np.cumsum([0, plan.n_rows, plan.max_gather] + [plan.max_pp] * 4) * m
    f = _buffer(np.float64, int(sizes[-1]))
    floats = [f[a:b].reshape(-1, m) for a, b in zip(sizes[:-1], sizes[1:])]
    return (*floats, _buffer(np.intp, plan.max_pp * m).reshape(-1, m), _buffer(np.bool_, m))


def _read(tab, rows, buf):
    """Table rows `rows` (see `_run`): a view of a run, else gathered into `buf`."""
    if isinstance(rows, slice):
        return tab[rows]
    return tab.take(rows, axis=0, out=buf[: rows.size], mode="clip")


def _check(plan: NetPlan, rows, lo, hi, v0: int) -> int:
    """Out-of-domain count of the values just written to `rows` (ids v0...).
    Values inside the tightest domain of their readers have none; any other
    value counts each reader's points outside its domain."""
    # a NaN row has a NaN min, which fails `>=` and so takes the slow path
    inside = (rows.min(axis=1) >= lo) & (rows.max(axis=1) <= hi)
    if inside.all():
        return 0
    oob = 0
    for i in np.flatnonzero(~inside).tolist():
        a, b = plan.rd_off[v0 + i], plan.rd_off[v0 + i + 1]
        x = rows[i]
        oob += int(np.count_nonzero(x < plan.rd_lo[a:b, None]) + np.count_nonzero(x > plan.rd_hi[a:b, None]))
    return oob


def _pp_forward(st: Step, tab, rows, t, u, val, dt, row, mask, hits: bool) -> None:
    """Add the step's pp edges into `rows`; t, u, val, dt, row hold at least
    E_p rows of scratch, `mask` one. `hits` is whether any value of the chunk
    lies outside a reader's domain; only then can these edges have points
    outside their domains, which take the continuation rows."""
    E = len(st.pp_dst)
    u, val, dt, row = u[:E], val[:E], dt[:E], row[:E]
    t = _read(tab, st.pp_rows, t)
    # table row by index arithmetic, first + floor((t - a)(G-1)/(b-a)) clipped
    # to the edge's segments; truncation is floor once u >= first
    np.multiply(t, st.pp_scale, out=u)
    u += st.pp_shift
    # fmax/fmin, unlike clip, send NaN to a valid row
    np.fmax(u, st.pp_first, out=u)
    np.fmin(u, st.pp_last, out=u)
    np.copyto(row, u, casting="unsafe")
    for i, knots, first in st.pp_counted:
        # the last segment, less one per inner knot above t; NaN compares
        # above none, so it lands in the last segment as in `eval_spline_batch`
        row[i].fill(first + knots.size - 2)
        for knot in knots[1:-1].tolist():
            np.less(t[i], knot, out=mask)
            np.subtract(row[i], mask, out=row[i])
    if hits:
        np.copyto(row, st.pp_below, where=t < st.pp_lo)
        np.copyto(row, st.pp_above, where=t > st.pp_hi)
    st.pp_coef[0].take(row, out=val, mode="clip")
    if len(st.pp_coef) > 1:
        st.pp_left.take(row, out=dt, mode="clip")
        np.subtract(t, dt, out=dt)
        for coef in st.pp_coef[1:]:
            val *= dt
            val += coef.take(row, out=u, mode="clip")
    # one in-place row add per edge: at these widths a 0/1 scatter matmul costs
    # several times more, and row adds sum in edge order for any batch size
    for i, d in enumerate(st.pp_dst):
        rows[d] += val[i]


def forward_batch(plan: NetPlan, X) -> tuple[np.ndarray, int]:
    """Network forward over an (npoints, n_0) matrix, CHUNK points at a time.

    Returns (outputs, out_of_domain_count).
    """
    X = np.asarray(X, dtype=np.float64)
    n0 = plan.widths[0]
    out = np.empty((X.shape[0], plan.widths[-1]))
    oob = 0
    with np.errstate(over="ignore", invalid="ignore"):  # see the bias sum in build_plan
        for start in range(0, X.shape[0], CHUNK):
            stop = min(start + CHUNK, X.shape[0])
            if start == 0 or stop - start < CHUNK:  # the first chunk and a short last one
                tab, gat, t, u, val, dt, row, mask = _views(plan, stop - start)
            oob0 = oob
            tab[:n0] = X[start:stop].T
            oob += _check(plan, tab[:n0], plan.in_lo, plan.in_hi, 0)
            for st in plan.steps:
                rows = tab[st.rows]
                if st.weight is None:
                    rows.fill(0.0)
                else:
                    np.matmul(st.weight, _read(tab, st.gather, gat), out=rows)
                    rows += st.bias
                if st.pp_dst:
                    _pp_forward(st, tab, rows, t, u, val, dt, row, mask, oob > oob0)
                if st.checked:
                    oob += _check(plan, rows, st.lo, st.hi, st.v0)
            for j, r in enumerate(plan.out_rows):
                out[start:stop, j] = tab[r]
    return out, oob
