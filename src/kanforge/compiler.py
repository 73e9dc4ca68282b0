"""Sequential block compiler: one primitive block per internal node.

Internal nodes are scheduled in post-order (left subtree, right subtree,
root). While a block executes, identity wires forward every input coordinate
and every completed intermediate still awaiting its consumer. The resulting
network is the proof-faithful construction; by default a dead-wire
elimination pass then drops forwarded values without a downstream consumer
(`faithful_widths=True` keeps the full construction).

When a binary node reads the same source wire twice (e.g. x1*x1), an
identity fan-out layer duplicates the wire first: the forward form admits a
single edge per (source, target) pair, so the two arguments must arrive on
distinct neurons. Fan-out edges are exact identities, so bounds are
unaffected and only the layer count grows past the block-depth sum.

Certified error bounds survive boundary roundoff because edges continue
linearly outside their domain with the boundary slope, which never exceeds
the certified on-domain Lipschitz constant of the edge.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .exprtree import CompTree, Leaf, OpKind, eval_tree_batch, render, tree_stats
from .kannet import Edge, KanNetwork, forward_batch, lipschitz_product, serialize
from .primblocks import Block, block_certificate, build_block
from .rangecert import (
    BLOCK_DEPTH,
    AffineBox,
    AnnotatedTree,
    Interval,
    annotate_ranges,
    apply_affine,
    lip_budget,
)
from .spline import Spline, line_spline

__all__ = [
    "CompileConfig",
    "Certificate",
    "ScheduleEntry",
    "CompileError",
    "CertificationError",
    "build_schedule",
    "compile_tree",
    "compile_on_box",
    "dead_wire_elimination",
    "recompute_certificate",
    "check_certificate",
    "certify",
]

VERSION = "0.1.0"

# width bound constant from the widest primitive block (the multiplication
# block spans 4 neurons counting its forwarded operands)
W_MAX_BLOCK = 4

# roundoff slack: exact-op networks have error_bound == 0 but float forward
# noise ~1e-15; comparisons of float bound products can differ by ulps
_ERROR_SLACK = 1e-10
_REL_SLACK = 1e-12


class CompileError(ValueError):
    pass


class CertificationError(ValueError):
    """A certified inequality failed; the message names it.

    `sup_error` is the measured sampled error when the failing check came
    after its measurement, else None.
    """

    def __init__(self, message: str, sup_error: float | None = None):
        super().__init__(message)
        self.sup_error = sup_error


@dataclass(frozen=True)
class CompileConfig:
    grid: int = 35
    order: int = 3
    faithful_widths: bool = False

    def __post_init__(self):
        if self.grid < 2:
            raise ValueError("grid must be >= 2")
        if self.order < 2:
            raise ValueError("order must be >= 2 (exact squaring edges need it)")


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
    """Post-order block schedule with layer offsets; pure function of the tree."""
    entries: list[ScheduleEntry] = []
    counter = itertools.count()
    layer = 0

    def walk(t: CompTree) -> WireKey:
        nonlocal layer
        nid = next(counter)
        if isinstance(t, Leaf):
            return ("input", t.coord)
        keys = tuple(walk(c) for c in t.children)
        fan = 1 if len(keys) == 2 and keys[0] == keys[1] else 0
        start = layer + fan
        c_op = BLOCK_DEPTH[t.op]
        layer = start + c_op
        entry = ScheduleEntry(
            node_id=nid,
            op=t.op,
            start_layer=start,
            c_op=c_op,
            fanout_layers=fan,
            consumed=keys,
            produced=("node", nid),
        )
        entries.append(entry)
        return entry.produced

    walk(tree)
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
    grid: int
    order: int
    faithful: bool
    box: tuple[tuple[float, float], ...] | None = None
    box_factor: float | None = None
    version: str = VERSION

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "config": {"grid": self.grid, "order": self.order, "faithful_widths": self.faithful},
            "expr": self.expr,
            "net_sha256": self.net_sha256,
            "n": self.n,
            "internal_nodes": self.internal,
            "depth": self.depth,
            "l_f": self.l_f,
            "widths": list(self.widths),
            "p_bound": self.p_bound,
            "p_simplified": self.p_simplified,
            "c_star": self.c_star,
            "width_bound": self.width_bound,
            "error_bound": self.error_bound,
            "eps_op": self.eps_op,
            "rate_exponent": self.rate_exponent,
            "box": [list(iv) for iv in self.box] if self.box is not None else None,
            "box_factor": self.box_factor,
            "per_node": [
                {
                    "id": c.node_id,
                    "op": c.op,
                    "c_op": c.c_op,
                    "lambda_op": c.lambda_op,
                    "eps_op": c.eps_op,
                    "a5_ok": c.a5_ok,
                }
                for c in self.per_node
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "Certificate":
        doc = json.loads(text)
        return Certificate(
            n=doc["n"],
            internal=doc["internal_nodes"],
            depth=doc["depth"],
            l_f=doc["l_f"],
            widths=tuple(doc["widths"]),
            p_bound=doc["p_bound"],
            p_simplified=doc["p_simplified"],
            c_star=doc["c_star"],
            width_bound=doc["width_bound"],
            error_bound=doc["error_bound"],
            eps_op=doc["eps_op"],
            rate_exponent=doc["rate_exponent"],
            per_node=tuple(
                NodeCert(c["id"], c["op"], c["c_op"], c["lambda_op"], c["eps_op"], c["a5_ok"])
                for c in doc["per_node"]
            ),
            expr=doc["expr"],
            net_sha256=doc["net_sha256"],
            grid=doc["config"]["grid"],
            order=doc["config"]["order"],
            faithful=doc["config"]["faithful_widths"],
            box=tuple(tuple(iv) for iv in doc["box"]) if doc.get("box") is not None else None,
            box_factor=doc.get("box_factor"),
            version=doc["version"],
        )


def _net_hash(net: KanNetwork) -> str:
    return hashlib.sha256(serialize(net).encode()).hexdigest()


def _build_blocks(ann: AnnotatedTree, G: int) -> dict[int, Block]:
    blocks = {}
    for nid, a in ann.annotations.items():
        try:
            blocks[nid] = build_block(a.op, a.input_domain, G)
        except ValueError as exc:
            raise CompileError(f"cannot build {a.op.value} block at node {nid}: {exc}") from exc
    return blocks


def _identity_wires():
    """Identity-wire factory sharing one spline per distinct interval.

    The key is the exact bit pattern of both endpoints, so [-0.0, b] and
    [0.0, b] (equal as floats, different in the JSON) get separate splines.
    """
    cache: dict[tuple[str, str], Spline] = {}

    def wire(iv: Interval) -> Spline:
        key = (iv.lo.hex(), iv.hi.hex())
        spl = cache.get(key)
        if spl is None:
            spl = cache[key] = line_spline(iv.lo, iv.hi, iv.lo, iv.hi)
        return spl

    return wire


def _leaf_network(tree: Leaf, n: int) -> KanNetwork:
    # base case: single identity layer reading the one live coordinate
    edge = Edge(tree.coord - 1, 0, line_spline(0.0, 1.0, 0.0, 1.0))
    return KanNetwork(
        widths=(n, 1),
        layers=((edge,),),
        wire_tags=(tuple(f"x{p}" for p in range(1, n + 1)), ("node0",)),
    )


def _build_faithful(
    tree: CompTree, ann: AnnotatedTree, schedule: tuple[ScheduleEntry, ...], blocks: dict[int, Block]
) -> KanNetwork:
    stats = tree_stats(tree)
    n = stats.n
    if isinstance(tree, Leaf):
        return _leaf_network(tree, n)

    unit = Interval(0.0, 1.0)
    identity = _identity_wires()
    input_wires: list[tuple[WireKey, Interval, str]] = [
        (("input", p), ann.leaf_ranges.get(p, unit), f"x{p}") for p in range(1, n + 1)
    ]
    live: list[tuple[WireKey, Interval, str]] = []  # completed, unconsumed intermediates
    cur: list[tuple[WireKey, Interval, str]] = list(input_wires)
    pos = {w[0]: i for i, w in enumerate(cur)}
    widths = [n]
    wire_tags = [tuple(w[2] for w in cur)]
    layers: list[tuple[Edge, ...]] = []

    def emit(new_wires: list[tuple[WireKey, Interval, str]], edges: list[Edge]):
        nonlocal cur, pos
        layers.append(tuple(edges))
        cur = new_wires
        pos = {w[0]: i for i, w in enumerate(cur) if w[0] is not None}
        widths.append(len(cur))
        wire_tags.append(tuple(w[2] for w in cur))

    last_entry = schedule[-1]
    for entry in schedule:
        block = blocks[entry.node_id]
        if entry.fanout_layers:
            # duplicate the shared source wire onto two fresh neurons
            src_key = entry.consumed[0]
            src_pos = pos[src_key]
            src_iv = cur[src_pos][1]
            new_wires = list(input_wires) + list(live)
            edges = [Edge(pos[w[0]], i, identity(w[1])) for i, w in enumerate(new_wires)]
            copies = []
            for j in range(2):
                cp = (None, src_iv, f"copy{entry.node_id}.{j}")
                edges.append(Edge(src_pos, len(new_wires) + j, identity(src_iv)))
                copies.append(cp)
            arg_pos = [len(new_wires), len(new_wires) + 1]
            emit(new_wires + copies, edges)
        else:
            arg_pos = None  # block arguments resolved from pos at layer 0

        internal_pos: list[int] = []
        for t, blayer in enumerate(block.layers):
            is_net_last = entry is last_entry and t == block.c_op - 1
            if t == 0:
                src_of = arg_pos if arg_pos is not None else [pos[k] for k in entry.consumed]
                # consumed intermediates die here; consumed inputs stay forwarded
                live[:] = [w for w in live if w[0] not in entry.consumed]
            else:
                src_of = internal_pos
            out_wire = (entry.produced, block.output_range, f"node{entry.node_id}")
            if is_net_last:
                # the output neuron leads the final boundary; inputs stay forwarded
                forwarded = list(input_wires)
                new_wires = [out_wire] + forwarded
                base = 0
                fwd_offset = 1
            else:
                forwarded = list(input_wires) + list(live)
                if t == block.c_op - 1:
                    outs = [out_wire]
                else:
                    outs = [
                        (None, iv, f"blk{entry.node_id}.{t}.{j}")
                        for j, iv in enumerate(block.neuron_ranges[t])
                    ]
                new_wires = forwarded + outs
                base = len(forwarded)
                fwd_offset = 0
            edges = [Edge(pos[w[0]], fwd_offset + i, identity(w[1])) for i, w in enumerate(forwarded)]
            for src_local, dst_local, spl in blayer.edges:
                edges.append(Edge(src_of[src_local], base + dst_local, spl))
            emit(new_wires, edges)
            internal_pos = [base + j for j in range(len(new_wires) - len(forwarded))]
        live.append((entry.produced, block.output_range, f"node{entry.node_id}"))

    return KanNetwork(widths=tuple(widths), layers=tuple(layers), wire_tags=tuple(wire_tags))


def dead_wire_elimination(net: KanNetwork, outputs: set[int] | None = None) -> KanNetwork:
    """Drop forwarded wires with no downstream consumer; outputs unchanged.

    `outputs` names the final-boundary neurons to preserve (default: all of
    them). The input boundary keeps all coordinates (n_0 = n is part of the
    network contract); interior neurons survive only if some kept neuron
    downstream reads them.
    """
    L = net.n_layers
    keep: list[set[int]] = [set() for _ in range(L + 1)]
    keep[L] = set(range(net.widths[L])) if outputs is None else set(outputs)
    if not keep[L]:
        raise ValueError("at least one output neuron must be kept")
    for l in range(L - 1, -1, -1):
        keep[l] = {e.src for e in net.layers[l] if e.dst in keep[l + 1]}
    keep[0] = set(range(net.widths[0]))
    index = [
        {old: new for new, old in enumerate(sorted(k))}
        for k in keep
    ]
    layers = []
    for l in range(L):
        layers.append(
            tuple(
                Edge(index[l][e.src], index[l + 1][e.dst], e.spline)
                for e in net.layers[l]
                if e.src in keep[l] and e.dst in keep[l + 1]
            )
        )
    widths = tuple(len(k) for k in keep)
    tags = tuple(
        tuple(net.wire_tags[m][old] for old in sorted(keep[m])) for m in range(L + 1)
    )
    return KanNetwork(widths=widths, layers=layers, wire_tags=tags)


def _certificate(
    tree: CompTree,
    net: KanNetwork,
    config: CompileConfig,
    ann: AnnotatedTree,
    blocks: dict[int, Block],
) -> Certificate:
    stats = tree_stats(tree)
    budget = lip_budget(ann)
    per_node = []
    eps_op = 0.0
    has_trig = False
    for nid in sorted(blocks):
        b = blocks[nid]
        cert = block_certificate(b)
        per_node.append(
            NodeCert(nid, b.op.value, b.c_op, cert.lambda_op, cert.eps_op, cert.a5_ok)
        )
        eps_op = max(eps_op, b.eps_op)
        has_trig = has_trig or b.op in (OpKind.SIN, OpKind.COS)
    error_bound = stats.internal * max(budget.c_star, 1.0) ** stats.depth * eps_op
    return Certificate(
        n=stats.n,
        internal=stats.internal,
        depth=stats.depth,
        l_f=budget.l_f,
        widths=net.widths,
        p_bound=budget.product_bound,
        p_simplified=budget.simplified_bound,
        c_star=budget.c_star,
        width_bound=stats.n + 2 * W_MAX_BLOCK * stats.internal,
        error_bound=error_bound,
        eps_op=eps_op,
        rate_exponent=2 if has_trig else None,
        per_node=tuple(per_node),
        expr=render(tree),
        net_sha256=_net_hash(net),
        grid=config.grid,
        order=config.order,
        faithful=config.faithful_widths,
    )


def compile_tree(tree: CompTree, config: CompileConfig = CompileConfig()) -> tuple[KanNetwork, Certificate]:
    """Compile a computation tree into (network, certificate)."""
    bad = [(nid, op) for nid, op in _unsupported(tree)]
    if bad:
        raise CompileError(f"unsupported operations: {bad}")
    ann = annotate_ranges(tree)
    schedule = build_schedule(tree)
    blocks = _build_blocks(ann, config.grid)
    net = _build_faithful(tree, ann, schedule, blocks)
    if not config.faithful_widths and not isinstance(tree, Leaf):
        net = dead_wire_elimination(net, outputs={0})
    return net, _certificate(tree, net, config, ann, blocks)


def _unsupported(tree: CompTree):
    from .exprtree import validate_opset

    return validate_opset(tree, set(BLOCK_DEPTH))


def _on_box(cert: Certificate, box: AffineBox) -> Certificate:
    # bounds for a network behind the box pre-layer (see compile_on_box)
    mu = box.lip_h_inv
    factor = max(mu, 1.0)
    return replace(
        cert,
        p_bound=cert.p_bound * factor,
        p_simplified=cert.p_simplified * factor,
        box=tuple((iv.lo, iv.hi) for iv in box.intervals),
        box_factor=mu,
    )


def compile_on_box(
    tree: CompTree, box: AffineBox, config: CompileConfig = CompileConfig()
) -> tuple[KanNetwork, Certificate]:
    """Compile with an affine pre-layer so the network reads inputs in the box.

    The pre-layer rescales each coordinate onto [0,1]; the network value at a
    box point x equals the tree evaluated at the rescaled point. The measured
    product picks up exactly the pre-layer factor mu = max_p 1/(b_p - a_p);
    the certified bounds are multiplied by max(mu, 1).
    """
    net0, cert0 = compile_tree(tree, config)
    n = net0.n_inputs
    if len(box.intervals) != n:
        raise CompileError(f"box has {len(box.intervals)} intervals, tree reads {n} coordinates")
    pre = tuple(
        Edge(p, p, line_spline(iv.lo, iv.hi, 0.0, 1.0)) for p, iv in enumerate(box.intervals)
    )
    net = KanNetwork(
        widths=(n,) + net0.widths,
        layers=(pre,) + net0.layers,
        wire_tags=(tuple(f"box:x{p}" for p in range(1, n + 1)),) + net0.wire_tags,
    )
    cert = _on_box(replace(cert0, widths=net.widths, net_sha256=_net_hash(net)), box)
    return net, cert


def measured_sup_error(
    tree: CompTree,
    net: KanNetwork,
    samples: int,
    seed: int,
    box: AffineBox | None = None,
) -> float:
    """Max |tree - network| over uniform samples (mapped through the box if any)."""
    stats = tree_stats(tree)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(samples, max(stats.n, net.n_inputs)))
    truth = eval_tree_batch(tree, xs)
    pts = xs[:, : net.n_inputs]
    if box is not None:
        pts = apply_affine(box, pts)
    got = forward_batch(net, pts)[:, 0]
    return float(np.max(np.abs(truth - got)))


def recompute_certificate(
    tree: CompTree,
    net: KanNetwork,
    config: CompileConfig = CompileConfig(),
    box: AffineBox | None = None,
) -> Certificate:
    """The certificate of `net` rederived from the tree: ranges, blocks, budget.

    Uses the same deterministic steps as `compile_tree` (and `compile_on_box`
    when `box` is given), so for a compiled network it equals the certificate
    the compiler issued.
    """
    ann = annotate_ranges(tree)
    cert = _certificate(tree, net, config, ann, _build_blocks(ann, config.grid))
    return _on_box(cert, box) if box is not None else cert


def check_certificate(
    tree: CompTree,
    net: KanNetwork,
    cert: Certificate,
    samples: int,
    seed: int,
    box: AffineBox | None = None,
) -> float:
    """Cross-check `net` against every inequality `cert` states.

    Raises CertificationError naming the first violated inequality; on
    success returns the measured sampled sup error.
    """
    stats = tree_stats(tree)
    if net.n_inputs != stats.n:
        raise CertificationError(f"n_0 = n violated: n_0={net.n_inputs}, n={stats.n}")
    if max(net.widths) > cert.width_bound:
        raise CertificationError(
            f"width bound violated: max width {max(net.widths)} > n + 2*w_max*N = {cert.width_bound}"
        )
    if cert.l_f > 3 * stats.internal:
        raise CertificationError(f"L_f <= 3N violated: L_f={cert.l_f}, N={stats.internal}")
    for nc in cert.per_node:
        if not nc.a5_ok:
            raise CertificationError(
                f"block inequality lambda <= max(C,1)^c violated at node {nc.node_id} ({nc.op})"
            )
    report = lipschitz_product(net)
    if report.product > cert.p_bound * (1.0 + _REL_SLACK):
        raise CertificationError(
            f"P <= p_bound violated: P={report.product!r}, p_bound={cert.p_bound!r}"
        )
    if cert.p_bound > cert.p_simplified * (1.0 + _REL_SLACK):
        raise CertificationError(
            f"p_bound <= p_simplified violated: {cert.p_bound!r} > {cert.p_simplified!r}"
        )
    err = measured_sup_error(tree, net, samples, seed, box=box)
    if err > cert.error_bound + _ERROR_SLACK:
        raise CertificationError(
            f"sup error <= error_bound violated: measured {err!r} > bound {cert.error_bound!r}",
            sup_error=err,
        )
    return err


def certify(
    tree: CompTree,
    net: KanNetwork,
    config: CompileConfig = CompileConfig(),
    samples: int = 100_000,
    seed: int = 42,
    box: AffineBox | None = None,
) -> Certificate:
    """Recompute every bound from first principles and cross-check the network.

    Raises CertificationError naming the violated inequality. On success the
    recomputed certificate is returned.
    """
    cert = recompute_certificate(tree, net, config, box)
    check_certificate(tree, net, cert, samples, seed, box)
    return cert
