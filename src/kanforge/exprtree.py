"""Computation trees over a fixed operation set, with parser and evaluators.

Grammar (whitespace insignificant, no numeric literals):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := var | func '(' expr ')' | '(' expr ')'
    var    := 'x' digit+
    func   := 'sin' | 'cos' | 'relu' | 'abs'

'+', '-' and '*' are left-associative, '*' binds tighter. Variables are
1-based coordinate projections; the input dimension n is the maximum index
that appears. Leaves of the tree are coordinate projections only. An index
is at most MAX_COORD: a network carries one input neuron (and one sampled
column) per coordinate up to the largest, so a short expression naming
`x100000000` would otherwise ask for gigabytes. The parser rejects a larger
index before anything is built.

Nothing here recurses per tree level. The parser keeps explicit operator
and operand stacks, and every tree pass (here, in `rangecert` and in
`compiler`) is a `fold` over the one walk `postorder`, which also assigns
the pre-order node ids. Nesting depth is bounded by memory only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np

__all__ = [
    "OpKind",
    "Leaf",
    "Node",
    "CompTree",
    "TreeStats",
    "MAX_COORD",
    "ParseError",
    "parse_expression",
    "render",
    "tree_stats",
    "eval_tree",
    "eval_tree_batch",
    "NodeMaxima",
    "postorder",
    "fold",
]


class OpKind(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    SIN = "sin"
    COS = "cos"
    RELU = "relu"
    ABS = "abs"

    @property
    def arity(self) -> int:
        return 2 if self in (OpKind.ADD, OpKind.SUB, OpKind.MUL) else 1


_FUNCS = {"sin": OpKind.SIN, "cos": OpKind.COS, "relu": OpKind.RELU, "abs": OpKind.ABS}

_SCALAR_FN: dict[OpKind, Callable[..., float]] = {
    OpKind.ADD: lambda a, b: a + b,
    OpKind.SUB: lambda a, b: a - b,
    OpKind.MUL: lambda a, b: a * b,
    OpKind.SIN: math.sin,
    OpKind.COS: math.cos,
    OpKind.RELU: lambda a: a if a > 0.0 else 0.0,
    OpKind.ABS: abs,
}


# largest coordinate index of a leaf: compiling `x1000` takes about 2 s and
# 170 MB, and cost grows linearly with the index
MAX_COORD = 1024


@dataclass(frozen=True)
class Leaf:
    """Coordinate projection x_p, 1-based, p <= MAX_COORD."""

    coord: int
    # the tree's `rangecert.annotate_ranges`, computed on first use
    _ann: object = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if not 1 <= self.coord <= MAX_COORD:
            raise ValueError(f"leaf coordinate must be in [1, {MAX_COORD}], got {self.coord}")


@dataclass(frozen=True, eq=False, repr=False)
class Node:
    """Internal node. Equality, hash and repr are structural, as a dataclass's
    would be, but walk the tree iteratively, so any depth compares."""

    op: OpKind
    children: tuple["CompTree", ...]
    # the tree's `rangecert.annotate_ranges`, computed on first use
    _ann: object = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if len(self.children) != self.op.arity:
            raise ValueError(
                f"{self.op.value} expects {self.op.arity} children, got {len(self.children)}"
            )

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        # with every arity fixed by the op, the post-order labels fix the tree
        return self is other or _labels(self) == _labels(other)

    def __hash__(self):
        return hash(tuple(_labels(self)))

    def __repr__(self):
        # the dataclass repr, emitted in pre-order from an explicit stack
        parts: list[str] = []
        stack: list[CompTree | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
            elif isinstance(t, Leaf):
                parts.append(repr(t))
            else:
                parts.append(f"Node(op={t.op!r}, children=(")
                stack.append(",))" if len(t.children) == 1 else "))")
                for i in range(len(t.children) - 1, -1, -1):
                    stack.append(t.children[i])
                    if i:
                        stack.append(", ")
        return "".join(parts)


CompTree = Union[Leaf, Node]


def _labels(tree: CompTree) -> list[int | OpKind]:
    # a leaf's coordinate or a node's op, in post-order
    return [t.coord if isinstance(t, Leaf) else t.op for _, t in postorder(tree)]


@dataclass(frozen=True)
class TreeStats:
    n: int          # input dimension = max leaf coordinate
    internal: int   # internal node count N (leaves excluded)
    depth: int      # longest root-to-leaf path; 0 for a bare leaf


class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _skip_ws(text: str, pos: int) -> int:
    while text[pos : pos + 1].isspace():
        pos += 1
    return pos


def _read_operand(text: str, pos: int) -> tuple[CompTree | OpKind | None, int]:
    """Read the operand token at `pos`, after whitespace: a variable leaf, a
    function name with its '(' (returned as the OpKind), or a plain '('
    (None). Returns the token and the offset just past it."""
    pos = _skip_ws(text, pos)
    if text.startswith("(", pos):
        return None, pos + 1
    if not text[pos : pos + 1].isalpha():
        raise ParseError("expected a variable, function call, or '('", pos)
    end = pos
    while text[end : end + 1].isalnum():
        end += 1
    word = text[pos:end]
    if word[0] == "x" and word[1:].isdecimal():
        digits = word[1:].lstrip("0")
        if not digits:
            raise ParseError("variable index 0 is not allowed (variables start at x1)", pos)
        # the length test first: int() of a very long digit string is itself an error
        if len(digits) > len(str(MAX_COORD)) or int(digits) > MAX_COORD:
            raise ParseError(f"variable index above the limit x{MAX_COORD}", pos)
        return Leaf(int(digits)), end
    if word not in _FUNCS:
        raise ParseError(f"unknown function or variable {word!r}", pos)
    end = _skip_ws(text, end)
    if not text.startswith("(", end):
        raise ParseError("expected '('", end)
    return _FUNCS[word], end + 1


_BINARY = {"+": OpKind.ADD, "-": OpKind.SUB, "*": OpKind.MUL}
_PREC = {OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 2}


def parse_expression(text: str) -> CompTree:
    """Parse an expression string into a computation tree.

    Raises ParseError (with byte offset) on malformed input, unknown
    function names, or the forbidden variable index 0.
    """
    operands: list[CompTree] = []
    # binary operators not yet applied, and open groups: a function's OpKind
    # for 'func(', None for a plain '('
    pending: list[OpKind | None] = []

    def reduce(prec: int):
        # apply pending binary operators of at least `prec`, left-associative;
        # an open group has no precedence and stops it
        while pending and _PREC.get(pending[-1], 0) >= prec:
            rhs = operands.pop()
            operands[-1] = Node(pending.pop(), (operands[-1], rhs))

    groups = pos = 0
    while True:
        token, pos = _read_operand(text, pos)
        if not isinstance(token, Leaf):
            pending.append(token)
            groups += 1
            continue
        operands.append(token)
        # closing parentheses, then a binary operator or the end
        pos = _skip_ws(text, pos)
        while text.startswith(")", pos) and groups:
            reduce(1)
            func = pending.pop()
            if func is not None:
                operands[-1] = Node(func, (operands[-1],))
            groups -= 1
            pos = _skip_ws(text, pos + 1)
        ch = text[pos : pos + 1]
        if ch in _BINARY:
            reduce(_PREC[_BINARY[ch]])
            pending.append(_BINARY[ch])
            pos += 1
        elif groups:
            raise ParseError("expected ')'", pos)
        elif ch:
            raise ParseError(f"unexpected {ch!r}", pos)
        else:
            reduce(1)
            return operands[0]


def postorder(tree: CompTree) -> list[tuple[int, CompTree]]:
    """List (node_id, node) children first, left to right; node ids are the
    nodes' pre-order indices (the root is 0). Every tree pass walks this list."""
    out: list[tuple[int, CompTree]] = []
    stack: list[tuple[CompTree, int]] = [(tree, -1)]  # id -1: not yet entered
    next_id = 0
    while stack:
        t, nid = stack.pop()
        if nid >= 0:  # an internal node whose children are all listed
            out.append((nid, t))
        elif isinstance(t, Leaf):
            out.append((next_id, t))
            next_id += 1
        else:
            stack.append((t, next_id))
            next_id += 1
            stack.extend((c, -1) for c in reversed(t.children))
    return out


def fold(tree: CompTree, leaf: Callable, node: Callable):
    """Fold the tree children first: `leaf(t)` gives a leaf's value and
    `node(node_id, t, child_values)` an internal node's. Each child value is
    dropped as soon as its parent has consumed it."""
    stack: list = []
    for nid, t in postorder(tree):
        if isinstance(t, Leaf):
            stack.append(leaf(t))
        else:
            k = -len(t.children)
            stack[k:] = [node(nid, t, stack[k:])]
    return stack[0]


def _render_node(nid: int, t: Node, args: list[str]) -> str:
    if t.op.arity == 1:
        return f"{t.op.value}({args[0]})"
    (lhs, rhs), (left, right) = t.children, args
    prec = _PREC[t.op]
    if isinstance(lhs, Node) and lhs.op.arity == 2 and _PREC[lhs.op] < prec:
        left = f"({left})"
    # left-associative grammar: parenthesize any binary right child at <= precedence
    if isinstance(rhs, Node) and rhs.op.arity == 2 and _PREC[rhs.op] <= prec:
        right = f"({right})"
    return f"{left}{t.op.value}{right}"


def render(tree: CompTree) -> str:
    """Render a tree to grammar-valid text; parse(render(t)) == t."""
    return fold(tree, lambda t: f"x{t.coord}", _render_node)


def _stats_node(nid: int, t: Node, args: list[tuple[int, int, int]]):
    # (n, internal, depth)
    n, internal, depth = zip(*args)
    return max(n), sum(internal) + 1, max(depth) + 1


def tree_stats(tree: CompTree) -> TreeStats:
    n, internal, depth = fold(tree, lambda t: (t.coord, 0, 0), _stats_node)
    return TreeStats(n=n, internal=internal, depth=depth)


def eval_tree(tree: CompTree, x) -> float:
    """Evaluate the tree at a point (any indexable of length >= n)."""
    return fold(tree, lambda t: float(x[t.coord - 1]), lambda nid, t, args: _SCALAR_FN[t.op](*args))


class NodeMaxima:
    """Running max |value| of each internal node, keyed by pre-order node id.

    `eval_tree_batch` folds into it the first `limit` rows it is handed over
    successive calls (every row when `limit` is None), so a caller streaming
    sample blocks collects the maxima over a prefix of its rows.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.rows = 0  # rows handed to eval_tree_batch so far
        self.values: dict[int, float] = {}

    def _take(self, rows: int) -> int:
        # how many of the next `rows` rows count; advances the row count
        take = rows if self.limit is None else max(0, min(rows, self.limit - self.rows))
        self.rows += rows
        return take


def eval_tree_batch(tree: CompTree, xs, node_max: NodeMaxima | None = None):
    """Evaluate the tree over a (npoints, >=n) sample matrix, vectorized.

    Returns an array of length npoints. Used as the exact reference when
    verifying compiled networks over large sample sets. With `node_max`, each
    internal node's max |value| over the rows it takes is folded in (NaN
    propagates). Child arrays are freed as their parent is computed.
    """
    xs = np.asarray(xs, dtype=np.float64)
    take = node_max._take(len(xs)) if node_max is not None else 0

    # neither callback refers to itself, so no reference cycle keeps `xs`
    # alive past the return (callers stream many sample blocks)
    def node(nid: int, t: Node, args: list):
        out = _BATCH_FN[t.op](*args)
        if take:
            m = np.max(np.abs(out[:take]))
            prev = node_max.values.get(nid)
            node_max.values[nid] = float(m if prev is None else np.maximum(prev, m))
        return out

    return fold(tree, lambda t: xs[:, t.coord - 1], node)


_BATCH_FN: dict[OpKind, Callable] = {
    OpKind.ADD: np.add,
    OpKind.SUB: np.subtract,
    OpKind.MUL: np.multiply,
    OpKind.SIN: np.sin,
    OpKind.COS: np.cos,
    OpKind.RELU: lambda a: np.maximum(a, 0.0),
    OpKind.ABS: np.abs,
}
