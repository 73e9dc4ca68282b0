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
- curved edges take one of two paths, chosen once per spline table entry:
  - one-knot edges, of order >= 1 with at most one inner knot m: the
    compiler's quarter-squares (order 2 on 3 knots, `t^2/4` on both sides
    of the midpoint) and relu/abs hinges, 55-83% of the curved edges of
    the benchmark's compiled pools. An order-k spline with one simple knot
    is one polynomial piece plus `jump * (t - m)_+^k`, the jump that of the top
    Taylor coefficient at m (de Boor, A Practical Guide to Splines, ch.
    VIII), so the edge is Horner's rule in `t - m` plus, where the jump is
    not exactly 0.0, one truncated power: no segment index and no gather.
    The polynomial is the longer piece's and the truncated power spans the
    shorter one, which keeps the cancellation between the two at the scale
    of the spline's values;
  - every other curved edge reads its spline's rows of the network's padded
    piecewise-polynomial (pp) table: one row per segment holding the Taylor
    coefficients at the segment's left knot (de Boor, ch. VII). Its segment
    comes from index arithmetic on uniform grids and, on any other grid,
    from counting the inner knots at or below the point, one in-place
    comparison per inner knot. Its rows are gathered per point and
    evaluated by Horner's rule.

  The pp edges add into their targets in edge order, then the one-knot
  edges in the order their step holds them, those with a jump first. Steps whose
  affine intercepts are all exactly 0.0 (every step of identity and
  negation wires) skip the bias add.

A step's new values take consecutive rows of the table, allocated before
the rows of the values it reads last are released, so no step writes a row
it reads. A row is reused once its value's last reader has run, so the table
follows the network's width, not its depth. Output neurons keep their rows;
a forwarded input stays an alias of its input row.

The plan is built per spline table entry, from the network's own arrays:
the `[src, dst, spline_index]` triples of every edge in layer order, as the
net file holds them. A compiled network has far fewer table entries than
edges (most edges are identity wires sharing a few entries). Domain ends,
boundary value and slope, whether a spline is affine and its curved class
are read once per entry and gathered to the edges by their index.
Aliases resolve by pointer jumping over all neurons at once; weights,
biases and per-value domains are filled by one index assignment,
`np.add.at`, `np.maximum.at` and `np.minimum.at` each. The network has one
pp table, over its curved table entries, whose Taylor rows come from one
stacked de Boor pass per (order, grid size); the one-knot coefficients and
jumps are read from it, and the uniform-grid test runs once per pp-path
spline. Each pp step reads a view of the table's coefficients for the
powers up to K, K the largest order among its edges, and its edges index
their spline's rows. Python walks the layers only to allocate rows and to
cut each step's views out of these arrays.

`forward_batch` runs the program over fixed chunks of CHUNK points. CHUNK
is 16384: every step costs a few dozen numpy calls per chunk whatever its
size, so longer chunks spend less per point on call overhead (the sampled
checks stream their points in blocks of the same size, 7 per 10^5 samples),
while a compiled network's workspace stays a few MB. On the corpus-certify
networks 16384 was about 5% faster than 8192 and 32768 no faster again. A
chunk's float workspace is its points times the plan's rows (value table,
gather and curved scratch rows). The compiler runs independent blocks side
by side, which makes the steps tall: on the seed-41 benchmark pools the
largest plan has 22 / 148 / 61 rows (corpus-certify / wide-compile /
verify-roundtrip; 26 / 148 / 61 under `faithful_widths`), and a net file
with a 20000-neuron boundary has 20000. A plan of more than 32 rows runs
WORKSPACE_FLOATS // rows points per chunk instead, so no chunk takes more
than 4 MiB: the 61-row verify-roundtrip plan runs chunks of 8594 points,
and the per-step numpy overhead stays small against them. The table and
every per-chunk scratch array are views of one workspace: one float buffer,
one index buffer and one mask per thread, shared by every call and grown,
never shrunk, to the largest size a call has needed. Memory stays bounded
for any batch size and any network, nothing CHUNK-sized is allocated inside
the chunk loop outside the rare out-of-domain path named below, and
consecutive forwards (the sample blocks of one sup-error pass, or nets of
different sizes) reuse pages already touched instead of mapping fresh ones.
The price is that the largest workspace a thread has used stays allocated.

Out-of-domain evaluations are counted and returned, never raised: one count
per edge evaluated at a point outside its domain, identity wires included,
as the de Boor reference counts them. Each value is checked once, when it is
written, against the tightest domain of all the edges that read it; only on
a hit are its readers counted one by one, and only after a hit in a chunk do
its curved edges of either class overwrite their points outside the domain
with the linear continuation (`_continue`). A point's value therefore never
depends on the other points in its chunk.

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
    "WORKSPACE_FLOATS",
    "block_rows",
    "NetPlan",
    "OneKnotEdges",
    "PpEdges",
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
CHUNK = 16384

# floats of one chunk's workspace (4 MiB): a plan of more than 32 rows runs
# fewer points per chunk
WORKSPACE_FLOATS = 32 * CHUNK


def block_rows(n: int) -> int:
    """Rows of `n` floats in one block of sampled or stepped points: CHUNK up
    to 16 floats a row, fewer above, so a block holds at most 16 * CHUNK
    floats (2 MiB) whatever the input width."""
    return 16 * CHUNK // max(n, 16)


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
    # a flat end skips the slope term, which is 0*inf = NaN at t = +-inf
    if below.any():
        out[below] = fa + sa * (ts[below] - a) if sa else fa
    if above.any():
        out[above] = fb + sb * (ts[above] - b) if sb else fb
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
class PpEdges:
    """A step's curved edges that find their segment in the network's pp
    table, one row of the scratch per edge (see `_pp_forward`)."""

    rows: slice | np.ndarray   # (E,) table row of each edge's source
    lo: np.ndarray             # (E, 1) domain ends
    hi: np.ndarray
    scale: np.ndarray          # (E, 1) (G-1)/(b-a) on uniform grids, 0 on others
    shift: np.ndarray          # (E, 1) first - a*scale: t*scale + shift is the pp table row
    first: np.ndarray          # (E, 1) pp table row of the first segment, as float
    last: np.ndarray           # (E, 1) pp table row of the last segment, as float
    counted: tuple             # (edge, distinct knots, first row) per non-uniform grid
    ends: np.ndarray           # (4, E, 1) fa, sa, fb, sb: value and slope continuing below and above
    left: np.ndarray           # (R,) left end of each row of the network's pp table
    coef: np.ndarray           # (K+1, R) its last K+1 coefficient rows, K the step's largest order
    dst: tuple[int, ...]       # offset in the step's rows of each edge's target


@dataclass(frozen=True, eq=False)
class OneKnotEdges:
    """A step's curved edges of order >= 1 with at most one inner knot, one
    row of the scratch per edge (see `_one_knot_forward`): the J edges that
    jump at their knot first, higher orders first among them."""

    rows: slice | np.ndarray   # (E,) table row of each edge's source
    lo: np.ndarray             # (E, 1) domain ends
    hi: np.ndarray
    knot: np.ndarray           # (E, 1) the inner knot, or lo without one
    coef: np.ndarray           # (K+1, E, 1) longer piece's Taylor coefficients at the knot, highest power first
    jump: np.ndarray           # (J, 1) jump of the top coefficient onto the shorter piece
    side: np.ndarray           # (2, J, 1) bounds of t - knot on the shorter piece: (0, inf) or (-inf, 0)
    powers: tuple[int, ...]    # per power p = 2, 3, ...: how many of the J edges have order >= p
    ends: np.ndarray           # (4, E, 1) fa, sa, fb, sb: value and slope continuing below and above
    dst: tuple[int, ...]       # offset in the step's rows of each edge's target


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
    bias: np.ndarray | None    # (n, 1) intercepts, summed in edge order; None when all are 0.0
    gather: slice | np.ndarray # (k,) table row of each column's source (see `_run`)
    # per new value: the tightest domain over every edge reading it
    lo: np.ndarray             # (n,) max lower end (-inf without readers)
    hi: np.ndarray             # (n,) min upper end (+inf without readers)
    checked: bool              # whether any new value has a reader
    # the curved edges of either class; None without any
    pp: PpEdges | None
    one_knot: OneKnotEdges | None


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
    max_pp: int                  # largest curved edge count of one class in a step


def _pp_table(splines):
    """The network's pp table over its distinct curved splines.

    Returns (coef, left, start). `coef` is (K+1, R), K the largest
    order: column r holds the Taylor coefficients of pp table row r, highest
    power first, and `left[r]` is the point they are taken at. Spline n
    takes the G-1 rows from `start[n]`, its segments at their left knots;
    outside the domain the forward continues it by `_continue`. An order-k
    spline fills the last k+1 coefficient rows; the rest are the zero
    coefficients of the powers above k. Splines of one order and grid size
    go through de Boor together, as one stack.
    """
    start = [0, *itertools.accumulate(s.knots.size - 1 for s in splines)]
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
        table = np.empty((k + 1, len(stack), G - 1))
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
            table[k - m] = _deboor(T, c, q, r + q, knots[:, :-1]) / fact
        rows = np.array([start[n] for n in members])[:, None] + r
        coef[K - k :, rows] = table
        left[rows] = knots[:, :-1]
    return coef, left, start[:-1]


def _is_linspace(knots: list[float]) -> bool:
    """Whether strictly increasing `knots` equal `np.linspace(knots[0],
    knots[-1], len(knots))`, by its float operations (start + i * step, the
    end set exactly) without its fixed cost per call. Their step is never
    0.0, so linspace's branch for a subnormal step does not arise."""
    a, n = knots[0], len(knots) - 1
    step = (knots[-1] - a) / n
    return all(x == i * step + a for i, x in enumerate(knots[:-1]))


def _col(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(-1, 1)


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
    per_spline = np.array([s.domain + s._boundary for s in splines]).reshape(-1, 6)
    lo, hi, fa, sa = per_spline[sid, :4].T
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
        intercepts = fa[aff] - sa[aff] * lo[aff]
        np.add.at(bias, val[gdst[aff]] - widths[0], intercepts)
    gather = row[val[cols]]

    # curved edges: the network's one pp table over its distinct curved
    # splines. An entry of order >= 1 with at most one inner knot is
    # one-knot: its edges need no segment search. Every other curved edge
    # reads its spline's rows of the table, each step the table's last K + 1
    # coefficient rows, K the largest order among its edges
    curved = np.flatnonzero(~affine)
    ppe = tpe = curved
    if curved.size:
        pp_splines = [splines[i] for i in np.flatnonzero(curved_spline).tolist()]
        order = np.array([s.order for s in pp_splines])
        size = np.array([s.knots.size for s in pp_splines])
        is_one_knot = (order >= 1) & (size <= 3)
        coef, left, start = _pp_table(pp_splines)
        C, first = len(coef), np.array(start)
        # per pp spline, gathered to each curved edge by its index `which`
        which = (np.cumsum(curved_spline) - 1)[sid[curved]]
        split = is_one_knot[which]
        ppe, which_pp = curved[~split], which[~split]
        tpe, which_tp = curved[split], which[split]
    if ppe.size:
        # the segment comes from index arithmetic on a uniform grid of order >= 1
        # (order 0 is discontinuous at its knots, so it always counts knots)
        uniform = [not ok and s.order >= 1 and _is_linspace(s.knots.tolist())
                   for s, ok in zip(pp_splines, is_one_knot.tolist())]
        pp_first = _col(first)[which_pp]
        pp_last = pp_first + _col(size - 2)[which_pp]
        pp_scale = _col([(s.knots.size - 1) / (s.domain[1] - s.domain[0]) if u else 0.0
                         for s, u in zip(pp_splines, uniform)])[which_pp]
        ends = per_spline[sid[ppe]].T[..., None]
        pp_lo, pp_hi, pp_ends = ends[0], ends[1], ends[2:]
        pp_shift = pp_first - pp_lo * pp_scale
        pp_rows, pp_dst = row[vsrc[ppe]], tloc[ppe].tolist()
        pp_order = order[which_pp].tolist()
        pp_off = np.searchsorted(layer[ppe], np.arange(L + 1)).tolist()
        # per step, its edges on grids that are not uniform
        counted = [[] for _ in range(L)]
        pp_layer = layer[ppe].tolist()
        for j in np.flatnonzero(~np.array(uniform)[which_pp]).tolist():
            l = pp_layer[j]
            counted[l].append((j - pp_off[l], pp_splines[which_pp[j]].knots, int(pp_first[j, 0])))
    if tpe.size:
        # an order-k spline with one simple inner knot m is its first piece
        # plus jump * (t - m)_+^k, the jump that of the top Taylor coefficient
        # (de Boor, A Practical Guide to Splines, ch. VIII), and equally its
        # second piece minus jump * (t - m)_-^k. Both pieces are expanded at
        # m, where their coefficients below the top agree (the spline is
        # C^(k-1) there): the second piece's row, with the first piece's top
        # coefficient when the first is the longer. The truncated power then
        # spans the shorter piece only, which keeps its cancellation at the
        # scale of the spline's values. Without an inner knot: the one
        # piece's row at lo, and no jump
        knot, below = [], []
        for s in pp_splines:
            a, b = s.domain
            m = s.knots[1].item() if s.knots.size == 3 else a
            knot.append(m)
            below.append(b - m > m - a)
        top = C - 1 - order
        at_m = first + (size == 3)
        c_first, c_m = coef[top, first], coef[top, at_m]
        jump = np.where(below, c_first - c_m, c_m - c_first)
        tp_coef = coef[:, at_m]
        tp_coef[top, np.arange(top.size)] = np.where(below, c_m, c_first)
        side = np.array([(-np.inf, 0.0) if x else (0.0, np.inf) for x in below]).T
        # within a step: the edges that jump first, higher orders first among
        # them. By this key, layer l's edges start above 2lC - C and those
        # without a jump above 2lC (orders lie in 1..C-1)
        key = (layer[tpe] * 2 + (jump[which_tp] == 0.0)) * C - order[which_tp]
        perm = np.argsort(key, kind="stable")
        tpe, which_tp, key = tpe[perm], which_tp[perm], key[perm]
        tp_off, jump_end = np.searchsorted(key, 2 * C * np.arange(L + 1)[:, None] + [0.5 - C, 0.5]).T.tolist()
        ends = per_spline[sid[tpe]].T[..., None]
        tp_lo, tp_hi, tp_ends = ends[0], ends[1], ends[2:]
        tp_knot, tp_coef = _col(knot)[which_tp], tp_coef[:, which_tp, None]
        tp_jump, tp_side = jump[which_tp, None], side[:, which_tp, None]
        tp_rows, tp_dst = row[vsrc[tpe]], tloc[tpe].tolist()
        tp_order = order[which_tp].tolist()

    # a step adds its biases only when some intercept is not exactly 0.0
    has_bias = np.bincount(layer[aff], intercepts != 0.0, minlength=L).tolist()

    steps = []
    max_pp = 0
    v_off, k_off, w_off, k = (a.tolist() for a in (v_off, k_off, w_off, k))
    for l in range(L):
        v0, v1 = v_off[l + 1], v_off[l + 2]
        if v1 == v0:
            continue  # every neuron of the boundary is an alias
        pp = one_knot = None
        if ppe.size and pp_off[l + 1] > pp_off[l]:
            p0, p1 = pp_off[l], pp_off[l + 1]
            max_pp = max(max_pp, p1 - p0)
            pp = PpEdges(
                rows=_run(pp_rows[p0:p1]),
                lo=pp_lo[p0:p1],
                hi=pp_hi[p0:p1],
                scale=pp_scale[p0:p1],
                shift=pp_shift[p0:p1],
                first=pp_first[p0:p1],
                last=pp_last[p0:p1],
                counted=tuple(counted[l]),
                ends=pp_ends[:, p0:p1],
                left=left,
                coef=coef[C - 1 - max(pp_order[p0:p1]) :],
                dst=tuple(pp_dst[p0:p1]),
            )
        if tpe.size and tp_off[l + 1] > tp_off[l]:
            e0, j1, e1 = tp_off[l], jump_end[l], tp_off[l + 1]
            max_pp = max(max_pp, e1 - e0)
            jumps = tp_order[e0:j1]
            one_knot = OneKnotEdges(
                rows=_run(tp_rows[e0:e1]),
                lo=tp_lo[e0:e1],
                hi=tp_hi[e0:e1],
                knot=tp_knot[e0:e1],
                coef=tp_coef[C - 1 - max(tp_order[e0:e1]) :, e0:e1],
                jump=tp_jump[e0:j1],
                side=tp_side[:, e0:j1],
                powers=tuple(sum(o >= p for o in jumps) for p in range(2, max(jumps, default=1) + 1)),
                ends=tp_ends[:, e0:e1],
                dst=tuple(tp_dst[e0:e1]),
            )
        r0 = int(row[v0])
        steps.append(Step(
            rows=slice(r0, r0 + v1 - v0),
            v0=v0,
            weight=weights[w_off[l] : w_off[l + 1]].reshape(v1 - v0, k[l]) if k[l] else None,
            bias=bias[v0 - widths[0] : v1 - widths[0], None] if has_bias[l] else None,
            gather=_run(gather[k_off[l] : k_off[l + 1]]),
            lo=vlo[v0:v1],
            hi=vhi[v0:v1],
            checked=bool(rd_off[v1] > rd_off[v0]),
            pp=pp,
            one_knot=one_knot,
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
        max_pp=max_pp,
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


def _affine_forward(st: Step, tab, rows, gat) -> None:
    """Write the step's affine edges into `rows`: one matmul over the source
    rows (gathered into `gat` unless they are one run), then the bias."""
    if st.weight is None:
        rows.fill(0.0)
        return
    np.matmul(st.weight, _read(tab, st.gather, gat), out=rows)
    if st.bias is not None:
        rows += st.bias


def _continue(e: PpEdges | OneKnotEdges, t, val, dt) -> None:
    """Overwrite the curved edges' values `val` at the points `t` outside
    their domains with the linear continuation, fa + sa*(t - lo) below and
    fb + sb*(t - hi) above, computed in the scratch `dt` by the float
    operations of `eval_spline_batch`: an edge whose end slope is 0.0 takes
    the end value, where 0*inf would give NaN at t = +-inf. A point's value
    therefore never depends on the rest of its chunk."""
    fa, sa, fb, sb = e.ends
    np.subtract(t, e.lo, out=dt)
    dt *= sa
    dt += fa
    np.copyto(dt, fa, where=sa == 0.0)
    np.copyto(val, dt, where=t < e.lo)
    np.subtract(t, e.hi, out=dt)
    dt *= sb
    dt += fb
    np.copyto(dt, fb, where=sb == 0.0)
    np.copyto(val, dt, where=t > e.hi)


def _pp_forward(e: PpEdges, tab, rows, t, u, val, dt, row, mask, hits: bool) -> None:
    """Add the pp edges `e` into `rows`; t, u, val, dt, row hold at least
    E rows of scratch, `mask` one. `hits` is whether any value of the chunk
    lies outside a reader's domain; only then can these edges have points
    outside their domains, which `_continue` overwrites."""
    E = len(e.dst)
    u, val, dt, row = u[:E], val[:E], dt[:E], row[:E]
    t = _read(tab, e.rows, t)
    # table row by index arithmetic, first + floor((t - a)(G-1)/(b-a)) clipped
    # to the edge's segments; truncation is floor once u >= first
    np.multiply(t, e.scale, out=u)
    u += e.shift
    # fmax/fmin, unlike clip, send NaN to a valid row
    np.fmax(u, e.first, out=u)
    np.fmin(u, e.last, out=u)
    np.copyto(row, u, casting="unsafe")
    for i, knots, first in e.counted:
        # the last segment, less one per inner knot above t; NaN compares
        # above none, so it lands in the last segment as in `eval_spline_batch`
        row[i].fill(first + knots.size - 2)
        for knot in knots[1:-1].tolist():
            np.less(t[i], knot, out=mask)
            np.subtract(row[i], mask, out=row[i])
    e.coef[0].take(row, out=val, mode="clip")
    if len(e.coef) > 1:
        e.left.take(row, out=dt, mode="clip")
        np.subtract(t, dt, out=dt)
        for coef in e.coef[1:]:
            val *= dt
            val += coef.take(row, out=u, mode="clip")
    if hits:
        _continue(e, t, val, dt)
    # one in-place row add per edge: at these widths a 0/1 scatter matmul costs
    # several times more, and row adds sum in edge order for any batch size
    for i, d in enumerate(e.dst):
        rows[d] += val[i]


def _one_knot_forward(e: OneKnotEdges, tab, rows, t, w, val, dt, hits: bool) -> None:
    """Add the one-knot edges `e` into `rows`: Horner in t - knot on the
    longer piece, plus jump * (t - knot)^k on the shorter one for the edges
    that jump. No segment index and no gather. t, w, val, dt hold at least E
    rows of scratch. `hits` is as in `_pp_forward`."""
    E, J = len(e.dst), len(e.jump)
    val, dt = val[:E], dt[:E]
    t = _read(tab, e.rows, t)
    np.subtract(t, e.knot, out=dt)
    np.multiply(dt, e.coef[0], out=val)
    val += e.coef[1]
    for coef in e.coef[2:]:
        val *= dt
        val += coef
    if J:
        # the truncated power of the first J edges, summed in the scratch of dt
        w = w[:J]
        np.clip(dt[:J], *e.side, out=w)
        acc = np.multiply(w, e.jump, out=dt[:J])
        for n in e.powers:
            acc[:n] *= w[:n]
        val[:J] += acc
    if hits:
        _continue(e, t, val, dt)
    for i, d in enumerate(e.dst):
        rows[d] += val[i]


def forward_batch(plan: NetPlan, X) -> tuple[np.ndarray, int]:
    """Network forward over an (npoints, n_0) matrix, CHUNK points at a time,
    or fewer when the plan's rows would take more than WORKSPACE_FLOATS.

    Returns (outputs, out_of_domain_count).
    """
    X = np.asarray(X, dtype=np.float64)
    n0 = plan.widths[0]
    out = np.empty((X.shape[0], plan.widths[-1]))
    oob = 0
    chunk = min(CHUNK, max(1, WORKSPACE_FLOATS // (plan.n_rows + plan.max_gather + 4 * plan.max_pp)))
    with np.errstate(over="ignore", invalid="ignore"):  # see the bias sum in build_plan
        for start in range(0, X.shape[0], chunk):
            stop = min(start + chunk, X.shape[0])
            if start == 0 or stop - start < chunk:  # the first chunk and a short last one
                tab, gat, t, u, val, dt, row, mask = _views(plan, stop - start)
            oob0 = oob
            tab[:n0] = X[start:stop].T
            oob += _check(plan, tab[:n0], plan.in_lo, plan.in_hi, 0)
            for st in plan.steps:
                rows = tab[st.rows]
                _affine_forward(st, tab, rows, gat)
                if st.pp is not None:
                    _pp_forward(st.pp, tab, rows, t, u, val, dt, row, mask, oob > oob0)
                if st.one_knot is not None:
                    _one_knot_forward(st.one_knot, tab, rows, t, u, val, dt, oob > oob0)
                if st.checked:
                    oob += _check(plan, rows, st.lo, st.hi, st.v0)
            for j, r in enumerate(plan.out_rows):
                out[start:stop, j] = tab[r]
    return out, oob
