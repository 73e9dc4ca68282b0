"""Interval range recursion over computation trees and Lipschitz budgets.

Every internal node gets an output enclosure (full signed interval, from
which the symmetric bound B = max(|lo|, |hi|) derives), the tuple of child
enclosures it consumes (its input domain), and exact partial Lipschitz
constants of its operation restricted to that domain. The per-node data
aggregates into the domain-sensitive Lipschitz-product budget

    product_bound = prod_v max(C_v, 1)^(c_v),   C_v = max_i Lip_i(op_v | D_v),

with block depths c_v fixed per operation (multiplication 3, all others 1).

Leaves range over [0,1], so a tree's annotation depends on the tree alone.
`annotate_ranges` computes it on the first call and caches it on the tree,
as `KanNetwork.packed()` caches a network's forward plan: the compile, the
certificate recomputation and every check of one tree call it and share one
annotation, and none takes an annotation from its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprtree import CompTree, Leaf, Node, NodeMaxima, OpKind, eval_tree_batch, fold
from .kernels import block_rows

__all__ = [
    "Interval",
    "NodeAnnotation",
    "AnnotatedTree",
    "LipBudget",
    "BLOCK_DEPTH",
    "range_rule",
    "partial_lip",
    "annotate_ranges",
    "lip_budget",
    "verify_ranges_numerically",
    "sample_blocks",
    "RangeReport",
]

# block depth c_op of each operation's primitive block
BLOCK_DEPTH = {
    OpKind.ADD: 1,
    OpKind.SUB: 1,
    OpKind.MUL: 3,
    OpKind.SIN: 1,
    OpKind.COS: 1,
    OpKind.RELU: 1,
    OpKind.ABS: 1,
}


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def bound(self) -> float:
        """Symmetric range bound B = sup of |t| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def length(self) -> float:
        return self.hi - self.lo


UNIT = Interval(0.0, 1.0)

_TWO_PI = 2.0 * math.pi


def _trig_image(op: OpKind, iv: Interval) -> Interval:
    """Exact image of sin/cos over an interval (clips to [-1, 1] when wide)."""
    f = math.sin if op is OpKind.SIN else math.cos
    vals = [f(iv.lo), f(iv.hi)]
    # interior critical points: peak at pi/2 + 2*pi*m (sin) / 2*pi*m (cos),
    # trough shifted by pi
    peak0 = math.pi / 2.0 if op is OpKind.SIN else 0.0
    for base, extreme in ((peak0, 1.0), (peak0 + math.pi, -1.0)):
        m = math.ceil((iv.lo - base) / _TWO_PI)
        if base + _TWO_PI * m <= iv.hi:
            vals.append(extreme)
    return Interval(min(vals), max(vals))


def range_rule(op: OpKind, child_ranges: list[Interval]) -> Interval:
    """Exact interval-arithmetic enclosure of op over the child enclosures."""
    if len(child_ranges) != op.arity:
        raise ValueError(f"{op.value} expects {op.arity} child ranges, got {len(child_ranges)}")
    if op is OpKind.ADD:
        g, h = child_ranges
        return Interval(g.lo + h.lo, g.hi + h.hi)
    if op is OpKind.SUB:
        g, h = child_ranges
        return Interval(g.lo - h.hi, g.hi - h.lo)
    if op is OpKind.MUL:
        g, h = child_ranges
        prods = [g.lo * h.lo, g.lo * h.hi, g.hi * h.lo, g.hi * h.hi]
        return Interval(min(prods), max(prods))
    (g,) = child_ranges
    if op in (OpKind.SIN, OpKind.COS):
        return _trig_image(op, g)
    if op is OpKind.RELU:
        return Interval(max(g.lo, 0.0), max(g.hi, 0.0))
    # ABS
    if g.lo <= 0.0 <= g.hi:
        return Interval(0.0, g.bound)
    return Interval(min(abs(g.lo), abs(g.hi)), g.bound)


def partial_lip(op: OpKind, input_domain: list[Interval]) -> list[float]:
    """Exact partial Lipschitz constants of op restricted to the given domain.

    Only multiplication is domain-sensitive: its constant in each argument is
    the sup of the other argument's magnitude. Everything else is globally 1.
    """
    if len(input_domain) != op.arity:
        raise ValueError(f"{op.value} expects {op.arity} input intervals, got {len(input_domain)}")
    if op is OpKind.MUL:
        g, h = input_domain
        return [h.bound, g.bound]
    return [1.0] * op.arity


@dataclass(frozen=True)
class NodeAnnotation:
    node_id: int
    op: OpKind
    range: Interval
    input_domain: tuple[Interval, ...]
    partial_lips: tuple[float, ...]
    c_op: int

    @property
    def block_bound(self) -> float:
        """max(C_v, 1)^c_v with C_v = max_i Lip_i(op_v | D_v): the bound the
        node's block must meet (lambda_op <= block_bound) and the node's
        factor of the Lipschitz-product budget."""
        return max(max(self.partial_lips), 1.0) ** self.c_op


@dataclass(frozen=True)
class AnnotatedTree:
    annotations: dict[int, NodeAnnotation]  # keyed by pre-order node id
    n: int                                  # input dimension = max leaf coordinate
    depth: int                              # longest root-to-leaf path; 0 for a bare leaf

    @property
    def internal(self) -> int:
        """The internal node count N (leaves excluded)."""
        return len(self.annotations)

    @property
    def root_range(self) -> Interval:
        # a bare leaf has no annotation and ranges over [0,1]
        return self.annotations[0].range if self.annotations else UNIT


def annotate_ranges(tree: CompTree) -> AnnotatedTree:
    """Annotate every internal node with range, input domain, and partial Lips,
    in the one fold that also counts the tree's input dimension and depth.

    Computed on the first call for a tree object and cached on it; every
    later call returns the same `AnnotatedTree`.
    """
    if tree._ann is not None:
        return tree._ann
    n = 0
    annotations: dict[int, NodeAnnotation] = {}

    # a subtree folds to (its range, its depth)
    def leaf(t: Leaf) -> tuple[Interval, int]:
        nonlocal n
        n = max(n, t.coord)
        return UNIT, 0

    def node(nid: int, t: Node, args: list[tuple[Interval, int]]) -> tuple[Interval, int]:
        child_ranges = [r for r, _ in args]
        rng = range_rule(t.op, child_ranges)
        annotations[nid] = NodeAnnotation(
            node_id=nid,
            op=t.op,
            range=rng,
            input_domain=tuple(child_ranges),
            partial_lips=tuple(partial_lip(t.op, child_ranges)),
            c_op=BLOCK_DEPTH[t.op],
        )
        return rng, 1 + max(d for _, d in args)

    _, depth = fold(tree, leaf, node)
    object.__setattr__(tree, "_ann", AnnotatedTree(annotations=annotations, n=n, depth=depth))
    return tree._ann


@dataclass(frozen=True)
class LipBudget:
    product_bound: float   # prod_v max(C_v, 1)^(c_v)
    c_star: float          # max_v C_v (0 for a bare leaf)
    l_f: int               # sum_v c_v

    @property
    def simplified_bound(self) -> float:
        """max(C*, 1)^L_f, the coarser tree-uniform form of the bound."""
        return max(self.c_star, 1.0) ** self.l_f


def lip_budget(annotated: AnnotatedTree) -> LipBudget:
    product = 1.0
    c_star = 0.0
    l_f = 0
    for ann in sorted(annotated.annotations.values(), key=lambda a: a.node_id):
        product *= ann.block_bound
        c_star = max(c_star, max(ann.partial_lips))
        l_f += ann.c_op
    return LipBudget(product_bound=product, c_star=c_star, l_f=l_f)


@dataclass(frozen=True)
class RangeCheck:
    node_id: int
    op: str
    certified: float
    measured: float
    ok: bool


@dataclass(frozen=True)
class RangeReport:
    entries: tuple[RangeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


_SOUNDNESS_SLACK = 1e-12


def sample_blocks(seed: int, samples: int, n: int):
    """The seeded uniform samples over [0,1]^n, `kernels.block_rows(n)` rows
    at a time: `kernels.CHUNK` rows up to 16 inputs, fewer above.

    The blocks continue one generator stream, so stacked they equal
    `default_rng(seed).uniform(0.0, 1.0, size=(samples, n))` bit for bit
    whatever the block size, and up to 16 inputs a block is one forward
    chunk of a network plan of at most 32 rows.
    """
    rng = np.random.default_rng(seed)
    rows = block_rows(n)
    for start in range(0, samples, rows):
        block = np.empty((min(rows, samples - start), n))
        rng.random(out=block)
        yield block


def verify_ranges_numerically(
    tree: CompTree,
    samples: int,
    seed: int,
    node_max: NodeMaxima | None = None,
) -> RangeReport:
    """Check every certified per-node bound B_v against sampled magnitudes.

    Samples uniformly over [0,1]^n and always includes the all-ones corner,
    where the additive worst case is attained. The per-node measured maximum
    of |subfunction| must stay within B_v (+ roundoff slack).

    `node_max` holds maxima already collected over the `samples` rows (by a
    pass that evaluated them for another check, see
    `compiler.measured_sup_error`); without it the rows are drawn here.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ann = annotate_ranges(tree)
    n = ann.n
    if node_max is None:
        node_max = NodeMaxima()
        for xs in sample_blocks(seed, samples, n):
            eval_tree_batch(tree, xs, node_max)
    corner = NodeMaxima()
    eval_tree_batch(tree, np.ones((1, n)), corner)
    entries = []
    for nid in sorted(ann.annotations):
        a = ann.annotations[nid]
        m = float(np.maximum(node_max.values[nid], corner.values[nid]))
        entries.append(
            RangeCheck(
                node_id=nid,
                op=a.op.value,
                certified=a.range.bound,
                measured=m,
                ok=m <= a.range.bound + _SOUNDNESS_SLACK,
            )
        )
    return RangeReport(entries=tuple(entries))
