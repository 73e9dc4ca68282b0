"""Primitive KAN blocks: small fixed edge-spline networks realizing one op.

`build_block` realizes an annotated node (`rangecert.NodeAnnotation`) on the
input domain the range recursion fixed for it: the op, the domain and the
output range are read from the annotation. Each block carries its certified
data: block depth c_op, block Lipschitz product lambda_op (product over its
layers of the max edge Lipschitz constant), and single-node sup error eps_op.
The inequality it must satisfy, lambda_op <= max(C_op, 1)^c_op, is the
annotation's `block_bound`.

Constructions on a domain I x J (or I):

    add/sub   one layer, identity + (sign) identity summed into one target
    sin/cos   one layer, the piecewise-linear interpolant on I (G knots)
    mul       three layers via u*v = (u+v)^2/4 - (u-v)^2/4; the squaring
              edges are `spline.quarter_square`, t^2/4 exactly as an
              order-2 spline, so the only approximation in any block lives
              in the trig interpolants
    relu/abs  one layer, order-1 spline with a breakpoint at 0 when 0 is
              interior to I, reproducing the op exactly

A point interval [c, c], a constant subterm's range, spans no knot vector:
its edges live on [c, c + 1] (`_span`). Identity and negation wires stay
exact lines there, and an operation's edge is the constant line through
op(c), of Lipschitz constant 0 and error 0.

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
from .rangecert import Interval, NodeAnnotation, range_rule
from .spline import Spline, line_spline, pl_interpolant, quarter_square, spline_lipschitz

__all__ = [
    "Block",
    "EdgeSplines",
    "build_block",
]

# one block layer: its (src_local, dst_local, spline) edges
BlockEdges = tuple[tuple[int, int, Spline], ...]


@dataclass(frozen=True)
class Block:
    layers: tuple[BlockEdges, ...]
    neuron_ranges: tuple[tuple[Interval, ...], ...]  # enclosures after each layer
    lambda_op: float
    eps_op: float

    @property
    def c_op(self) -> int:
        return len(self.layers)


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
        lo, hi = _span(iv)
        return self.line(lo, hi, lo, hi)

    def neg(self, iv: Interval) -> Spline:
        lo, hi = _span(iv)
        return self.line(lo, hi, -lo, -hi)

    def const(self, iv: Interval, v: float) -> Spline:
        """The constant `v` on `iv`: an operation's edge on a point interval."""
        return self.line(*_span(iv), v, v)

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


def _span(iv: Interval) -> tuple[float, float]:
    """The domain of an edge reading `iv`: `iv` itself, or [c, c + 1] for a
    point interval [c, c] (a constant subterm), which no knot vector spans."""
    return (iv.lo, iv.hi) if iv.lo < iv.hi else (iv.lo, iv.lo + 1.0)


def _quarter_square_range(iv: Interval) -> Interval:
    hi = iv.bound ** 2 / 4.0
    if iv.lo <= 0.0 <= iv.hi:
        return Interval(0.0, hi)
    lo = min(abs(iv.lo), abs(iv.hi)) ** 2 / 4.0
    return Interval(lo, hi)


def _mul(g: Interval, h: Interval, out: Interval, sp: EdgeSplines) -> Block:
    """Three-layer exact multiplication block on g x h (signed intervals ok).

    The quarter-square identity holds on all of R^2, so the block accepts any
    bounded domain. The squaring edges are built at order 2 on a midpoint
    grid: order 2 reproduces t^2/4 exactly, and the small dyadic grid keeps
    the extracted edge Lipschitz constants exact in floats.
    """
    r_a = range_rule(OpKind.ADD, [g, h])   # u + v
    r_b = range_rule(OpKind.SUB, [g, h])   # u - v

    def square(r: Interval) -> Spline:  # t^2/4 on r
        if not r.lo < r.hi:
            return sp.const(r, r.lo * r.lo / 4.0)
        return sp.built((OpKind.MUL, _PAIR.pack(r.lo, r.hi)), lambda: quarter_square(r.lo, r.hi))

    r_p = _quarter_square_range(r_a)
    r_q = _quarter_square_range(r_b)
    layers = (
        ((0, 0, sp.ident(g)), (1, 0, sp.ident(h)), (0, 1, sp.ident(g)), (1, 1, sp.neg(h))),
        ((0, 0, square(r_a)), (1, 1, square(r_b))),
        ((0, 0, sp.ident(r_p)), (1, 0, sp.neg(r_q))),
    )
    # sup of |t|/2 over range(u+v) union range(u-v), 0 on a point interval;
    # layers 0 and 2 contribute 1
    lam = max(r.bound if r.lo < r.hi else 0.0 for r in (r_a, r_b)) / 2.0
    return Block(layers=layers, neuron_ranges=((r_a, r_b), (r_p, r_q), (out,)), lambda_op=lam, eps_op=0.0)


def _add_sub(op: OpKind, g: Interval, h: Interval, out: Interval, sp: EdgeSplines) -> Block:
    second = sp.ident(h) if op is OpKind.ADD else sp.neg(h)
    return Block(layers=(((0, 0, sp.ident(g)), (1, 0, second)),), neuron_ranges=((out,),), lambda_op=1.0, eps_op=0.0)


_UNARY = {OpKind.SIN: math.sin, OpKind.COS: math.cos, OpKind.RELU: lambda t: max(t, 0.0), OpKind.ABS: abs}


def build_block(a: NodeAnnotation, G: int, splines: EdgeSplines) -> Block:
    """The primitive block of node `a` on its input domain, with `G` knots per
    trig interpolant and every edge drawn from `splines`."""
    op, out = a.op, a.range
    if op is OpKind.MUL:
        return _mul(*a.input_domain, out, splines)
    if op in (OpKind.ADD, OpKind.SUB):
        return _add_sub(op, *a.input_domain, out, splines)
    (iv,) = a.input_domain
    lo, hi = iv.lo, iv.hi
    eps = 0.0
    f = _UNARY[op]
    if not lo < hi:
        # a constant subterm: the constant line through op(c), exact
        edge = splines.const(iv, f(lo))
    elif op in (OpKind.SIN, OpKind.COS):
        edge = splines.built((op, _PAIR.pack(lo, hi), G), lambda: pl_interpolant(f, lo, hi, G))
        step = iv.length / (G - 1)
        # |sin''| = |sin| and |cos''| = |cos|, so the curvature sup is the image bound
        eps = step * step / 8.0 * out.bound
    elif lo < 0.0 < hi:
        knots = [lo, 0.0, hi]
        edge = splines.built(
            (op, _PAIR.pack(lo, hi)), lambda: Spline(1, np.array(knots), np.array([f(t) for t in knots]))
        )
    else:
        edge = splines.line(lo, hi, f(lo), f(hi))
    return Block(layers=(((0, 0, edge),),), neuron_ranges=((out,),), lambda_op=spline_lipschitz(edge), eps_op=eps)
