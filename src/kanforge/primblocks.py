"""Primitive KAN blocks: small fixed edge-spline networks realizing one op.

Each block is built on the exact node domain supplied by the range recursion
and carries its certified data: block depth c_op, block Lipschitz product
lambda_op (product over its layers of the max edge Lipschitz constant), and
single-node sup error eps_op.

Constructions on a domain I x J (or I):

    add/sub   one layer, identity + (sign) identity summed into one target
    sin/cos   one layer, the piecewise-linear interpolant on I (G knots)
    mul       three layers via u*v = (u+v)^2/4 - (u-v)^2/4; the squaring
              edges represent t^2/4 exactly (order-2 spline), so the only
              approximation in any block lives in the trig interpolants
    relu/abs  one layer, order-1 spline with a breakpoint at 0 when 0 is
              interior to I, reproducing the op exactly

Blocks emit only their internal neurons; forwarding of live values through a
block's layers is the compiler's concern. Every block edge comes from an
`EdgeSplines` factory, which the compiler makes once per compile and also
uses for its forwarding wires, so equal edges share one `Spline`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprtree import OpKind
from .rangecert import BLOCK_DEPTH, Interval, partial_lip, range_rule
from .spline import Spline, exact_poly_spline, line_spline, pl_interpolant, spline_lipschitz

__all__ = [
    "Block",
    "BlockLayer",
    "EdgeSplines",
    "BlockCertificate",
    "block_add",
    "block_sub",
    "block_trig",
    "block_mul",
    "block_pwl",
    "build_block",
    "block_certificate",
]


@dataclass(frozen=True)
class BlockLayer:
    width_in: int
    width_out: int
    edges: tuple[tuple[int, int, Spline], ...]  # (src_local, dst_local, spline)


@dataclass(frozen=True)
class Block:
    op: OpKind
    layers: tuple[BlockLayer, ...]
    input_domain: tuple[Interval, ...]
    output_range: Interval
    neuron_ranges: tuple[tuple[Interval, ...], ...]  # enclosures after each layer
    lambda_op: float
    eps_op: float

    @property
    def c_op(self) -> int:
        return len(self.layers)

    def forward(self, *args: float) -> float:
        """Standalone evaluation of the block (scalar, for verification)."""
        if len(args) != len(self.input_domain):
            raise ValueError(f"block expects {len(self.input_domain)} inputs")
        vals = [float(a) for a in args]
        for layer in self.layers:
            out = [0.0] * layer.width_out
            for src, dst, s in layer.edges:
                out[dst] += s(vals[src])
            vals = out
        return vals[0]

    def measured_lambda(self) -> float:
        """Product over layers of the measured max edge Lipschitz constant."""
        prod = 1.0
        for layer in self.layers:
            prod *= max(spline_lipschitz(s).value for _, _, s in layer.edges)
        return prod


_PAIR = struct.Struct("=2d")  # the native bytes of a 2-element float64 array


class EdgeSplines:
    """Spline factory sharing one `Spline` per distinct edge document.

    The key is the document itself: the order and the exact bits of the knots
    and coefficients. So [-0.0, b] and [0.0, b], equal as floats but
    different in the JSON, get separate splines. Each edge is looked up
    before it is built: a line by its end points and values, any other edge
    by the recipe it is `built` from. The Lipschitz constant and the JSON
    body are cached per `Spline` object, so each distinct edge is extracted
    and dumped once. Make one per compile: the compiler never keeps one
    across compiles.
    """

    def __init__(self):
        self._docs: dict[tuple[int, bytes, bytes], Spline] = {}
        self._recipes: dict[tuple, Spline] = {}

    def line(self, a: float, b: float, va: float, vb: float) -> Spline:
        """`line_spline(a, b, va, vb)`, built on first request."""
        key = (1, _PAIR.pack(a, b), _PAIR.pack(va, vb))
        s = self._docs.get(key)
        if s is None:
            s = self._docs[key] = line_spline(a, b, va, vb)
        return s

    def ident(self, iv: Interval) -> Spline:
        return self.line(iv.lo, iv.hi, iv.lo, iv.hi)

    def neg(self, iv: Interval) -> Spline:
        return self.line(iv.lo, iv.hi, -iv.lo, -iv.hi)

    def built(self, recipe: tuple, build: Callable[[], Spline]) -> Spline:
        """The spline `build()` makes, built once per `recipe`: a key that
        fixes the spline exactly (floats given as bits). A new document
        joins the lines, so a built edge that is a line is shared with them."""
        s = self._recipes.get(recipe)
        if s is None:
            s = build()
            doc = (s.order, s.knots.tobytes(), s.coefs.tobytes())
            s = self._recipes[recipe] = self._docs.setdefault(doc, s)
        return s


def block_add(domain: tuple[Interval, Interval], splines: EdgeSplines | None = None) -> Block:
    sp = splines or EdgeSplines()
    g, h = domain
    out = range_rule(OpKind.ADD, [g, h])
    layer = BlockLayer(2, 1, ((0, 0, sp.ident(g)), (1, 0, sp.ident(h))))
    return Block(
        op=OpKind.ADD,
        layers=(layer,),
        input_domain=(g, h),
        output_range=out,
        neuron_ranges=((out,),),
        lambda_op=1.0,
        eps_op=0.0,
    )


def block_sub(domain: tuple[Interval, Interval], splines: EdgeSplines | None = None) -> Block:
    sp = splines or EdgeSplines()
    g, h = domain
    out = range_rule(OpKind.SUB, [g, h])
    layer = BlockLayer(2, 1, ((0, 0, sp.ident(g)), (1, 0, sp.neg(h))))
    return Block(
        op=OpKind.SUB,
        layers=(layer,),
        input_domain=(g, h),
        output_range=out,
        neuron_ranges=((out,),),
        lambda_op=1.0,
        eps_op=0.0,
    )


def block_trig(op: OpKind, domain: Interval, G: int, splines: EdgeSplines | None = None) -> Block:
    if op not in (OpKind.SIN, OpKind.COS):
        raise ValueError(f"block_trig handles sin/cos, got {op.value}")
    f = math.sin if op is OpKind.SIN else math.cos
    edge = (splines or EdgeSplines()).built(
        (op, _PAIR.pack(domain.lo, domain.hi), G), lambda: pl_interpolant(f, domain.lo, domain.hi, G)
    )
    out = range_rule(op, [domain])
    h = domain.length / (G - 1)
    # |sin''| = |sin| and |cos''| = |cos|, so the curvature sup is the image bound
    curvature = range_rule(op, [domain]).bound
    eps = h * h / 8.0 * curvature
    return Block(
        op=op,
        layers=(BlockLayer(1, 1, ((0, 0, edge),)),),
        input_domain=(domain,),
        output_range=out,
        neuron_ranges=((out,),),
        lambda_op=spline_lipschitz(edge).value,
        eps_op=eps,
    )


def _quarter_square_range(iv: Interval) -> Interval:
    hi = iv.bound ** 2 / 4.0
    if iv.lo <= 0.0 <= iv.hi:
        return Interval(0.0, hi)
    lo = min(abs(iv.lo), abs(iv.hi)) ** 2 / 4.0
    return Interval(lo, hi)


def block_mul(domain: tuple[Interval, Interval], splines: EdgeSplines | None = None) -> Block:
    """Three-layer exact multiplication block on I x J (signed intervals ok).

    The quarter-square identity holds on all of R^2, so the block accepts any
    bounded domain. The squaring edges are built at order 2 on a midpoint
    grid: order 2 reproduces t^2/4 exactly, and the small dyadic grid keeps
    the extracted edge Lipschitz constants exact in floats.
    """
    sp = splines or EdgeSplines()
    g, h = domain
    r_a = range_rule(OpKind.ADD, [g, h])   # u + v
    r_b = range_rule(OpKind.SUB, [g, h])   # u - v

    def quarter_square(r: Interval) -> Spline:  # t^2/4 on r
        return sp.built(
            (OpKind.MUL, _PAIR.pack(r.lo, r.hi)), lambda: exact_poly_spline([0.0, 0.0, 0.25], r.lo, r.hi, 2, 3)
        )

    quad_a, quad_b = quarter_square(r_a), quarter_square(r_b)
    r_p = _quarter_square_range(r_a)
    r_q = _quarter_square_range(r_b)
    out = range_rule(OpKind.MUL, [g, h])
    layers = (
        BlockLayer(2, 2, ((0, 0, sp.ident(g)), (1, 0, sp.ident(h)), (0, 1, sp.ident(g)), (1, 1, sp.neg(h)))),
        BlockLayer(2, 2, ((0, 0, quad_a), (1, 1, quad_b))),
        BlockLayer(2, 1, ((0, 0, sp.ident(r_p)), (1, 0, sp.neg(r_q)))),
    )
    # sup of |t|/2 over range(u+v) union range(u-v); layers 0 and 2 contribute 1
    lam = max(r_a.bound, r_b.bound) / 2.0
    return Block(
        op=OpKind.MUL,
        layers=layers,
        input_domain=(g, h),
        output_range=out,
        neuron_ranges=((r_a, r_b), (r_p, r_q), (out,)),
        lambda_op=lam,
        eps_op=0.0,
    )


def block_pwl(op: OpKind, domain: Interval, splines: EdgeSplines | None = None) -> Block:
    if op not in (OpKind.RELU, OpKind.ABS):
        raise ValueError(f"block_pwl handles relu/abs, got {op.value}")
    sp = splines or EdgeSplines()
    f = (lambda t: max(t, 0.0)) if op is OpKind.RELU else abs
    lo, hi = domain.lo, domain.hi
    if lo < 0.0 < hi:
        knots = [lo, 0.0, hi]
        edge = sp.built(
            (op, _PAIR.pack(lo, hi)), lambda: Spline(1, np.array(knots), np.array([f(t) for t in knots]))
        )
    else:
        edge = sp.line(lo, hi, f(lo), f(hi))
    out = range_rule(op, [domain])
    return Block(
        op=op,
        layers=(BlockLayer(1, 1, ((0, 0, edge),)),),
        input_domain=(domain,),
        output_range=out,
        neuron_ranges=((out,),),
        lambda_op=spline_lipschitz(edge).value,
        eps_op=0.0,
    )


def build_block(
    op: OpKind, input_domain: tuple[Interval, ...], G: int, splines: EdgeSplines | None = None
) -> Block:
    """Construct the primitive block for `op` on the given node domain, its
    edges drawn from `splines` (a fresh factory when None)."""
    if op is OpKind.ADD:
        return block_add(input_domain, splines)
    if op is OpKind.SUB:
        return block_sub(input_domain, splines)
    if op is OpKind.MUL:
        return block_mul(input_domain, splines)
    if op in (OpKind.SIN, OpKind.COS):
        return block_trig(op, input_domain[0], G, splines)
    return block_pwl(op, input_domain[0], splines)


@dataclass(frozen=True)
class BlockCertificate:
    lambda_op: float
    eps_op: float
    a5_ok: bool


def block_certificate(b: Block) -> BlockCertificate:
    """Check the block-existence inequality lambda <= max(C, 1)^c_op on its domain."""
    c_dom = max(partial_lip(b.op, list(b.input_domain)))
    bound = max(c_dom, 1.0) ** BLOCK_DEPTH[b.op]
    return BlockCertificate(lambda_op=b.lambda_op, eps_op=b.eps_op, a5_ok=b.lambda_op <= bound)
