"""Block compiler: one primitive block per internal node, each started as
soon as its arguments are ready.

`build_schedule` starts a block at the layer its last argument is done (an
input at layer 0), plus its fan-out layer (ASAP list scheduling), so
independent subtrees run side by side and the network's depth is the tree's
heaviest root-to-leaf path, weighing each node by its block depth plus
fan-out. The network is built live, layer by layer: identity wires forward
each input coordinate and each completed intermediate up to the last layer
that reads it, then come the fan-out copies and block layers active in the
layer, in post-order (left subtree, right subtree, root); the root's output
leads the last boundary. No forwarded value lacks a downstream consumer.
`faithful_widths=True` runs the same schedule and builder but forwards every
input to the end, which is the proof's construction with its width
accounting. One `EdgeSplines` per compile gives every distinct edge one
`Spline`, and each layer appends its edges to the network as the net file
holds them: `[src, dst, spline_index]` triples into one spline table.

The paper's bounds hold for this layout as for a sequential one, because
each layer carries only the blocks active in it:

- widths: a boundary holds at most the n inputs and, per node, either its
  completed value waiting for its consumer or at most two neurons of its
  running block (the multiplication block's hidden pair, or fan-out
  copies), so n_l <= n + 2N <= n + 2 w_max N;
- product: a layer's largest edge constant is at most the product of
  max(lambda, 1) over the block layers active in it (identity wires are 1),
  and a block has at most one layer of edges other than identity and
  negation wires (the multiplication block's squaring layer, whose t^2/4
  and -t^2/4 edges the output neuron sums), so
  P <= prod_v max(lambda_v, 1) <= prod_v max(C_v, 1)^c_v, the block bound
  applied per node;
- depth: the deepest block, multiplication, is two layers, so
  L_f = sum_v c_v <= 2N, the row `check_certificate` states.

When a binary node reads the same source wire twice (e.g. x1*x1), an
identity fan-out layer duplicates the wire first: the forward form admits a
single edge per (source, target) pair, so the two arguments must arrive on
distinct neurons. Fan-out edges are exact identities, so bounds are
unaffected and only the node's path grows by one layer.

A `CompileConfig.box` puts one affine layer ahead of the network: edge p
maps coordinate p of the box onto [0,1]. The network's value at a box point
is the tree's at the rescaled point. The pre-layer's Lipschitz constant is
mu = max_p 1/(hi_p - lo_p), so the certified product bounds are multiplied by
max(mu, 1), and the sampled checks map their points into the box.

Certified error bounds survive boundary roundoff because edges continue
linearly outside their domain with the boundary slope, which never exceeds
the certified on-domain Lipschitz constant of the edge.

Every function here that reads the tree's ranges calls
`rangecert.annotate_ranges(tree)`, which the tree caches, and
`check_certificate` takes the network's `lipschitz_product` itself: a
network is compiled and checked under its own tree's annotation only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .exprtree import (
    CompTree,
    Leaf,
    Node,
    NodeMaxima,
    OpKind,
    eval_tree_batch,
    fold,
    render,
)
from .kannet import KanNetwork, forward_batch, lipschitz_product, loads, read, serialize
from .primblocks import Block, EdgeSplines, build_block
from .rangecert import (
    BLOCK_DEPTH,
    _SOUNDNESS_SLACK,
    UNIT,
    AnnotatedTree,
    Interval,
    RangeReport,
    annotate_ranges,
    lip_budget,
    sample_blocks,
)
from .spline import Spline, line_spline

__all__ = [
    "MAX_GRID",
    "CompileConfig",
    "Certificate",
    "ScheduleEntry",
    "CompileError",
    "CertificationError",
    "CheckRow",
    "CheckReport",
    "build_schedule",
    "compile_tree",
    "dead_wire_elimination",
    "recompute_certificate",
    "check_certificate",
    "range_row",
    "jacobian_row",
    "certify",
]

# bumped whenever the certificate's bytes change, so also with kannet.FORMAT:
# the certificate hashes the net file
VERSION = "0.7.0"

# the deepest block, so L_f = sum_v c_v <= c_max * N
_C_MAX = max(BLOCK_DEPTH.values())

# width bound constant from the widest primitive block (the multiplication
# block spans 4 neurons counting its forwarded operands)
W_MAX_BLOCK = 4

# roundoff slack: exact-op networks have error_bound == 0 but float forward
# noise ~1e-15; comparisons of float bound products can differ by ulps;
# central differences of the network carry step-size noise
_ERROR_SLACK = 1e-10
_REL_SLACK = 1e-12
_JACOBIAN_SLACK = 1e-6


class CompileError(ValueError):
    pass


class CertificationError(ValueError):
    """A certified inequality failed; the message names it (see `CheckRow`)."""


# largest grid: trig edges hold `grid` knots each, so compile time, memory
# and the net file grow linearly with it (grid 10^6 took 5.9 s and 402 MB);
# `sin(x1)` at grid 10^4 compiles in 0.04 s
MAX_GRID = 10_000


@dataclass(frozen=True)
class CompileConfig:
    """Every setting the compiler reads; a certificate stores it as its `config`.

    `box` is one `(lo, hi)` pair per input coordinate, or None for the unit
    cube. A box network reads points of the box through an affine pre-layer
    onto [0,1]^n (see `compile_tree`).
    """

    grid: int = 35
    faithful_widths: bool = False
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        # checked here, before anything is built, so a certificate file asking
        # for more grid, or holding a bad box, is bad input like a --grid flag.
        # The types are the certificate reader's (a bool is not an int), so
        # every config compiles to a certificate that reads back
        if type(self.grid) is not int or not 2 <= self.grid <= MAX_GRID:
            raise ValueError(f"grid must be an integer in [2, {MAX_GRID}]")
        if type(self.faithful_widths) is not bool:
            raise ValueError("faithful_widths must be a bool")
        if self.box is not None:
            # float pairs, so a box given as lists of ints equals the one its
            # certificate reads back as
            try:
                box = tuple((float(lo), float(hi)) for lo, hi in self.box)
            except (TypeError, ValueError):
                raise ValueError("box must be a sequence of (lo, hi) number pairs") from None
            for lo, hi in box:
                if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(f"degenerate box interval [{lo}, {hi}]")
            object.__setattr__(self, "box", box)


WireKey = tuple[str, int]  # ("input", coord) or ("node", node_id)


@dataclass(frozen=True)
class ScheduleEntry:
    node_id: int
    op: OpKind
    start_layer: int      # first transformation layer of the block proper
    c_op: int
    fanout_layers: int    # identity fan-out layers inserted just before
    consumed: tuple[WireKey, ...]
    produced: WireKey


def build_schedule(tree: CompTree) -> tuple[ScheduleEntry, ...]:
    """As-soon-as-possible block schedule, entries in post-order; a pure
    function of the tree.

    An input is ready at layer 0 and a block's value at its last layer's
    end, so a block starts at the latest ready layer of its arguments plus
    its fan-out layer (ASAP list scheduling; De Micheli, Synthesis and
    Optimization of Digital Circuits, 1994, ch. 5). The network's depth is
    the heaviest root-to-leaf path, weighing each node by its block depth
    plus fan-out, at most L_f plus the fan-outs.
    """
    entries: list[ScheduleEntry] = []

    def node(nid: int, t: Node, args: list[tuple[WireKey, int]]) -> tuple[WireKey, int]:
        keys = [key for key, _ in args]
        fan = 1 if len(keys) == 2 and keys[0] == keys[1] else 0
        entry = ScheduleEntry(
            node_id=nid,
            op=t.op,
            start_layer=max(ready for _, ready in args) + fan,
            c_op=BLOCK_DEPTH[t.op],
            fanout_layers=fan,
            consumed=tuple(keys),
            produced=("node", nid),
        )
        entries.append(entry)
        return entry.produced, entry.start_layer + entry.c_op

    fold(tree, lambda t: (("input", t.coord), 0), node)
    return tuple(entries)


@dataclass(frozen=True)
class NodeCert:
    node_id: int
    op: str
    c_op: int
    lambda_op: float
    eps_op: float
    a5_ok: bool


@dataclass(frozen=True)
class Certificate:
    n: int
    internal: int
    depth: int
    l_f: int
    widths: tuple[int, ...]
    p_bound: float
    p_simplified: float
    c_star: float
    width_bound: int
    error_bound: float
    eps_op: float
    rate_exponent: int | None
    per_node: tuple[NodeCert, ...]
    expr: str
    net_sha256: str
    config: CompileConfig
    version: str = VERSION

    def to_json(self) -> str:
        """The certificate's JSON text: every field under its own name."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["config"] = vars(self.config)
        doc["per_node"] = [vars(c) for c in self.per_node]
        return json.dumps(doc, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Certificate":
        """The certificate a file holds, read by `kannet.read`: every level holds
        exactly its dataclass's fields, each of its annotated type."""
        return read(Certificate, loads(text))


def _net_hash(net: KanNetwork) -> str:
    return hashlib.sha256(serialize(net).encode()).hexdigest()


def _build_blocks(ann: AnnotatedTree, G: int, splines: EdgeSplines) -> dict[int, Block]:
    blocks = {}
    for nid, a in ann.annotations.items():
        try:
            blocks[nid] = build_block(a, G, splines)
        except ValueError as exc:
            raise CompileError(f"cannot build {a.op.value} block at node {nid}: {exc}") from exc
    return blocks


def _leaf_network(tree: Leaf, n: int) -> KanNetwork:
    # base case: single identity layer reading the one live coordinate
    return KanNetwork(
        widths=(n, 1),
        splines=(line_spline(0.0, 1.0, 0.0, 1.0),),
        edges=np.array([(tree.coord - 1, 0, 0)], dtype=np.intp),
        counts=(1,),
        wire_tags=(tuple(f"x{p}" for p in range(1, n + 1)), ("node0",)),
    )


# a neuron: (wire key or None for block-internal neurons and fan-out copies,
# enclosure, tag, identity spline of a forwardable wire)
_Wire = tuple[WireKey | None, Interval, str, Spline | None]


def _build_network(
    ann: AnnotatedTree,
    schedule: tuple[ScheduleEntry, ...],
    blocks: dict[int, Block],
    splines: EdgeSplines,
    faithful: bool,
) -> KanNetwork:
    """Lay the scheduled blocks out layer by layer, forwarding each input and
    each completed intermediate by identity wires up to the last layer that
    reads it: its consumer's first layer, or the fan-out layer before it.
    Each layer holds the forwarded wires, then the fan-out copies and block
    layers active in it, in post-order; the root's output leads the last
    boundary. `faithful` forwards the inputs to the end instead, which gives
    the proof's construction and its width accounting.
    """
    n_layers = schedule[-1].start_layer + schedule[-1].c_op
    last: dict[WireKey, int] = {}  # a wire crosses every layer before this one
    active: list[list[ScheduleEntry]] = [[] for _ in range(n_layers)]  # in post-order
    for entry in schedule:
        for key in entry.consumed:
            last[key] = max(last.get(key, 0), entry.start_layer - entry.fanout_layers)
        for layer in range(entry.start_layer - entry.fanout_layers, entry.start_layer + entry.c_op):
            active[layer].append(entry)
    fwd: list[_Wire] = []  # inputs, then completed intermediates as they finish
    for p in range(1, ann.n + 1):
        fwd.append((("input", p), UNIT, f"x{p}", splines.ident(UNIT)))
        if faithful:
            last[("input", p)] = n_layers
    cur = list(fwd)
    pos = {w[0]: i for i, w in enumerate(cur)}
    widths = [ann.n]
    wire_tags = [tuple(w[2] for w in cur)]
    # the spline table: each spline's index, in order of first use (a
    # `Spline` hashes by identity)
    table: dict[Spline, int] = {}
    triples: list[int] = []        # [src, dst, spline index] of every edge, flat
    counts: list[int] = []         # edges per layer
    src_of: dict[int, list[int]] = {}  # positions of an active block's neurons

    for layer, entries in enumerate(active):
        # the layer's new neurons, with their (src position, dst in outs, spline) edges
        outs: list[_Wire] = []
        out_edges: list[tuple[int, int, Spline]] = []
        placed: list[tuple[int, int, int]] = []  # (node id, its first neuron in outs, count)
        for entry in entries:
            nid, block = entry.node_id, blocks[entry.node_id]
            t = layer - entry.start_layer
            if t < 0:
                # the fan-out layer: duplicate the shared source wire onto two fresh neurons
                src = pos[entry.consumed[0]]
                _, iv, _, ident = cur[src]
                new = [(None, iv, f"copy{nid}.{j}", None) for j in range(2)]
                edges = [(src, j, ident) for j in range(2)]
            else:
                if t == 0 and not entry.fanout_layers:
                    src_of[nid] = [pos[k] for k in entry.consumed]
                if t == block.c_op - 1:
                    new = [(entry.produced, ann.annotations[nid].range, f"node{nid}", None)]
                else:
                    new = [(None, iv, f"blk{nid}.{t}.{j}", None) for j, iv in enumerate(block.neuron_ranges[t])]
                edges = [(src_of[nid][src], dst, spl) for src, dst, spl in block.layers[t]]
            out_edges.extend((src, len(outs) + dst, spl) for src, dst, spl in edges)
            placed.append((nid, len(outs), len(new)))
            outs.extend(new)

        # identity edges for the wires still read later, then the block edges;
        # `outs` follow the forwarded wires, or lead them on the output layer
        lead = layer == n_layers - 1
        fwd = [w for w in fwd if last.get(w[0], 0) > layer]
        base, offset = (0, len(outs)) if lead else (len(fwd), 0)
        for i, w in enumerate(fwd):
            triples.extend((pos[w[0]], offset + i, table.setdefault(w[3], len(table))))
        for src, dst, spl in out_edges:
            triples.extend((src, base + dst, table.setdefault(spl, len(table))))
        counts.append(len(fwd) + len(out_edges))
        cur = outs + fwd if lead else fwd + outs
        pos = {w[0]: i for i, w in enumerate(cur) if w[0] is not None}
        widths.append(len(cur))
        wire_tags.append(tuple([w[2] for w in cur]))

        for nid, first, k in placed:
            src_of[nid] = list(range(base + first, base + first + k))
        if not lead:
            # the values completed here are forwarded from the next layer on
            fwd.extend((key, iv, tag, splines.ident(iv)) for key, iv, tag, _ in outs if key is not None)

    return KanNetwork(widths=tuple(widths), splines=tuple(table), edges=np.array(triples, dtype=np.intp),
                      counts=tuple(counts), wire_tags=tuple(wire_tags))


def dead_wire_elimination(net: KanNetwork, outputs: set[int] | None = None) -> KanNetwork:
    """Drop forwarded wires with no downstream consumer; outputs unchanged.

    `outputs` names the final-boundary neurons to preserve (default: all of
    them). The input boundary keeps all coordinates (n_0 = n is part of the
    network contract); interior neurons survive only if some kept neuron
    downstream reads them.

    The compiler builds the live network directly and does not call this.
    It is the independent oracle of that builder (applied to a
    `faithful_widths` net it must give the default net's exact bytes, see
    `tests/test_compiler.py`), and `perfbench/spans.py` traces it by name;
    it goes together with those perfbench lines in a later benchmark change.
    """
    L = net.n_layers
    keep = [np.zeros(w, dtype=bool) for w in net.widths]
    keep[L][sorted(outputs) if outputs is not None else slice(None)] = True
    if not keep[L].any():
        raise ValueError("at least one output neuron must be kept")
    keep[0][:] = True
    layers = np.split(net.edges, np.cumsum(net.counts[:-1]))
    for l in range(L - 1, 0, -1):
        src, dst = layers[l][:, 0], layers[l][:, 1]
        keep[l][src[keep[l + 1][dst]]] = True
    # the kept edges, renumbered to the kept neurons; the constructor drops
    # the table entries no kept edge names
    index = [np.cumsum(k) - 1 for k in keep]
    kept = [e[keep[l][e[:, 0]] & keep[l + 1][e[:, 1]]] for l, e in enumerate(layers)]
    edges = [np.column_stack([index[l][e[:, 0]], index[l + 1][e[:, 1]], e[:, 2]]) for l, e in enumerate(kept)]
    return KanNetwork(
        widths=tuple(int(k.sum()) for k in keep),
        splines=net.splines,
        edges=np.concatenate(edges),
        counts=tuple(len(e) for e in kept),
        wire_tags=tuple(tuple(itertools.compress(tags, k.tolist())) for tags, k in zip(net.wire_tags, keep)),
    )


def _certificate(
    tree: CompTree,
    net: KanNetwork,
    config: CompileConfig,
    ann: AnnotatedTree,
    blocks: dict[int, Block],
) -> Certificate:
    budget = lip_budget(ann)
    per_node = []
    eps_op = 0.0
    has_trig = False
    for nid in sorted(blocks):
        b, a = blocks[nid], ann.annotations[nid]
        per_node.append(NodeCert(nid, a.op.value, b.c_op, b.lambda_op, b.eps_op, b.lambda_op <= a.block_bound))
        eps_op = max(eps_op, b.eps_op)
        has_trig = has_trig or a.op in (OpKind.SIN, OpKind.COS)
    error_bound = ann.internal * max(budget.c_star, 1.0) ** ann.depth * eps_op
    p_bound, p_simplified = budget.product_bound, budget.simplified_bound
    if config.box is not None:
        # the pre-layer's factor max(mu, 1), mu = 1 / the narrowest side
        factor = max(1.0 / min(hi - lo for lo, hi in config.box), 1.0)
        p_bound, p_simplified = p_bound * factor, p_simplified * factor
    return Certificate(
        n=ann.n,
        internal=ann.internal,
        depth=ann.depth,
        l_f=budget.l_f,
        widths=net.widths,
        p_bound=p_bound,
        p_simplified=p_simplified,
        c_star=budget.c_star,
        width_bound=ann.n + 2 * W_MAX_BLOCK * ann.internal,
        error_bound=error_bound,
        eps_op=eps_op,
        rate_exponent=2 if has_trig else None,
        per_node=tuple(per_node),
        expr=render(tree),
        net_sha256=_net_hash(net),
        config=config,
    )


def compile_tree(tree: CompTree, config: CompileConfig = CompileConfig()) -> tuple[KanNetwork, Certificate]:
    """Compile a computation tree into (network, certificate).

    The blocks are built from the tree's own `annotate_ranges`, which the
    tree caches. One `EdgeSplines` serves the whole compile, so every
    distinct edge is one `Spline`. With `config.box` the network reads
    points of the box through its affine pre-layer.
    """
    ann = annotate_ranges(tree)
    _check_tree_box(config, ann.n)
    splines = EdgeSplines()
    blocks = _build_blocks(ann, config.grid, splines)
    if isinstance(tree, Leaf):
        net = _leaf_network(tree, ann.n)
    else:
        net = _build_network(ann, build_schedule(tree), blocks, splines, config.faithful_widths)
    if config.box is not None:
        net = _behind_box(net, config.box)
    return net, _certificate(tree, net, config, ann, blocks)


def _check_tree_box(config: CompileConfig, n: int) -> None:
    """A box must give one interval per coordinate the tree reads."""
    if config.box is not None and len(config.box) != n:
        raise CompileError(f"box has {len(config.box)} intervals, tree reads {n} coordinates")


def _check_net_box(box: tuple[tuple[float, float], ...] | None, net: KanNetwork) -> None:
    """A box must give one interval per input the network reads."""
    if box is not None and len(box) != net.n_inputs:
        raise ValueError(f"box has {len(box)} intervals, network reads {net.n_inputs}")


def _behind_box(net: KanNetwork, box: tuple[tuple[float, float], ...]) -> KanNetwork:
    # the pre-layer's edge p reads coordinate p through table entry p, ahead of net's table
    n = net.n_inputs
    return KanNetwork(
        widths=(n,) + net.widths,
        splines=tuple(line_spline(lo, hi, 0.0, 1.0) for lo, hi in box) + net.splines,
        edges=np.concatenate([np.repeat(np.arange(n), 3).reshape(n, 3), net.edges + (0, 0, n)]),
        counts=(n,) + net.counts,
        wire_tags=(tuple(f"box:x{p}" for p in range(1, n + 1)),) + net.wire_tags,
    )


def _box_points(box: tuple[tuple[float, float], ...], t: np.ndarray) -> np.ndarray:
    """Points t of [0,1]^n mapped into the box: lo_p + t_p * (hi_p - lo_p)."""
    lo, hi = np.array(box, dtype=np.float64).T
    return lo + t * (hi - lo)


def measured_sup_error(
    tree: CompTree,
    net: KanNetwork,
    samples: int,
    seed: int,
    box: tuple[tuple[float, float], ...] | None = None,
    node_max: NodeMaxima | None = None,
) -> float:
    """Max |tree - network| over uniform samples (mapped into `box`, a
    `CompileConfig.box`, if any).

    The seeded samples are drawn, evaluated and reduced one block of at most
    16 * `kernels.CHUNK` floats at a time (`rangecert.sample_blocks`), so
    memory stays bounded for any sample count and input width. `node_max`
    collects the tree's per-node maxima over the same rows (see
    `exprtree.eval_tree_batch`).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_net_box(box, net)
    err = 0.0
    for xs in sample_blocks(seed, samples, max(annotate_ranges(tree).n, net.n_inputs)):
        truth = eval_tree_batch(tree, xs, node_max)
        pts = xs[:, : net.n_inputs]
        if box is not None:
            pts = _box_points(box, pts)
        got = forward_batch(net, pts)[:, 0]
        err = np.maximum(err, np.max(np.abs(truth - got)))
    return float(err)


def recompute_certificate(tree: CompTree, net: KanNetwork,
                          config: CompileConfig = CompileConfig()) -> Certificate:
    """The certificate of `net` rederived from the tree: ranges, blocks, budget.

    Uses the same deterministic steps as `compile_tree`, box factor included,
    so for a network compiled with `config` it equals the certificate the
    compiler issued.
    """
    ann = annotate_ranges(tree)
    _check_tree_box(config, ann.n)
    blocks = _build_blocks(ann, config.grid, EdgeSplines())
    return _certificate(tree, net, config, ann, blocks)


@dataclass(frozen=True)
class CheckRow:
    """One certified inequality `lhs <= rhs` within `slack`; a NaN side fails it.

    A family row stands for one inequality per tree node and shows the first
    failing node, else the tightest one (largest lhs - rhs), named in `where`.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    ok: bool
    where: str = ""

    def message(self) -> str:
        at = f" at {self.where}" if self.where else ""
        return f"{self.name} violated{at}: lhs {self.lhs!r}, rhs {self.rhs!r}, slack {self.slack!r}"


@dataclass(frozen=True)
class CheckReport:
    """Every checked inequality as a row, plus the measured sampled sup error."""

    rows: tuple[CheckRow, ...]
    sup_error: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failure(self) -> CheckRow | None:
        return next((r for r in self.rows if not r.ok), None)


def _at_most(name: str, lhs, rhs, slack: float = 0.0, relative: bool = False) -> CheckRow:
    limit = rhs * (1.0 + slack) if relative else rhs + slack
    return CheckRow(name, lhs, rhs, slack, bool(lhs <= limit))


def _family_row(name: str, nodes: list[tuple[str, float, float, bool]], slack: float) -> CheckRow:
    # nodes: (where, lhs, rhs, ok) per tree node
    if not nodes:
        return CheckRow(name, 0.0, 0.0, slack, True, "no internal nodes")
    bad = next((nd for nd in nodes if not nd[3]), None)
    where, lhs, rhs, _ = bad or max(nodes, key=lambda nd: nd[1] - nd[2])
    return CheckRow(name, lhs, rhs, slack, bad is None, where)


def range_row(ranges: RangeReport) -> CheckRow:
    """The per-node range inequalities |f_v| <= B_v as one family row."""
    nodes = [(f"node {e.node_id} ({e.op})", e.measured, e.certified, e.ok) for e in ranges.entries]
    return _family_row("ranges: |f_v| <= B_v + slack", nodes, _SOUNDNESS_SLACK)


def jacobian_row(jacobian_max: float, product: float) -> CheckRow:
    """The sampled Jacobian sandwich max ||J_fd||/W^L <= P."""
    return _at_most("max ||J_fd||/W^L <= P + slack", jacobian_max, product, _JACOBIAN_SLACK)


def check_certificate(
    tree: CompTree,
    net: KanNetwork,
    cert: Certificate,
    samples: int,
    seed: int,
    node_max: NodeMaxima | None = None,
) -> CheckReport:
    """One `CheckRow` per inequality `cert` states, each evaluated against `net`.

    The sampled error reads `net` behind `cert.config.box`, if any.
    `node_max` goes to `measured_sup_error`, which runs even when an earlier
    row fails.
    """
    ann = annotate_ranges(tree)
    n, internal = ann.n, len(ann.annotations)
    blocks = []
    for nc in cert.per_node:
        a = ann.annotations.get(nc.node_id)
        bound = a.block_bound if a is not None else math.nan
        blocks.append((f"node {nc.node_id} ({nc.op})", nc.lambda_op, bound, nc.lambda_op <= bound))
    report = lipschitz_product(net)
    err = measured_sup_error(tree, net, samples, seed, box=cert.config.box, node_max=node_max)
    rows = (
        CheckRow("n_0 = n", net.n_inputs, n, 0.0, net.n_inputs == n),
        _at_most("max width <= width bound n + 2*w_max*N", max(net.widths), cert.width_bound),
        _at_most(f"L_f <= {_C_MAX}N", cert.l_f, _C_MAX * internal),
        _family_row("lambda_v <= max(C_v,1)^c_v", blocks, 0.0),
        _at_most("P <= p_bound*(1+slack)", report.product, cert.p_bound, _REL_SLACK, relative=True),
        _at_most("p_bound <= p_simplified*(1+slack)", cert.p_bound, cert.p_simplified, _REL_SLACK,
                 relative=True),
        _at_most("sup error <= error_bound + slack", err, cert.error_bound, _ERROR_SLACK),
    )
    return CheckReport(rows, err)


def certify(
    tree: CompTree,
    net: KanNetwork,
    config: CompileConfig = CompileConfig(),
    samples: int = 100_000,
    seed: int = 42,
) -> Certificate:
    """Recompute every bound from the tree and return the certificate, or raise
    CertificationError from the first failing row of `check_certificate`."""
    cert = recompute_certificate(tree, net, config)
    failure = check_certificate(tree, net, cert, samples, seed).failure
    if failure is not None:
        raise CertificationError(failure.message())
    return cert
