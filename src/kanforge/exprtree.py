"""Computation trees over a fixed operation set, with parser and evaluator.

Grammar (whitespace insignificant, no numeric literals):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := var | func '(' expr ')' | '(' expr ')'
    var    := 'x' digit+
    func   := 'sin' | 'cos' | 'relu' | 'abs'

'+', '-' and '*' are left-associative, '*' binds tighter. Variables are
1-based coordinate projections; the input dimension n is the maximum index
that appears. Leaves of the tree are coordinate projections only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

__all__ = [
    "OpKind",
    "Leaf",
    "Node",
    "CompTree",
    "TreeStats",
    "ParseError",
    "parse_expression",
    "render",
    "tree_stats",
    "eval_tree",
    "eval_tree_batch",
    "NodeMaxima",
    "validate_opset",
    "iter_nodes",
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


@dataclass(frozen=True)
class Leaf:
    """Coordinate projection x_p, 1-based."""

    coord: int

    def __post_init__(self):
        if self.coord < 1:
            raise ValueError(f"leaf coordinate must be >= 1, got {self.coord}")


@dataclass(frozen=True)
class Node:
    op: OpKind
    children: tuple["CompTree", ...]

    def __post_init__(self):
        if len(self.children) != self.op.arity:
            raise ValueError(
                f"{self.op.value} expects {self.op.arity} children, got {len(self.children)}"
            )


CompTree = Union[Leaf, Node]


@dataclass(frozen=True)
class TreeStats:
    n: int          # input dimension = max leaf coordinate
    internal: int   # internal node count N (leaves excluded)
    depth: int      # longest root-to-leaf path; 0 for a bare leaf
    sparsity: int   # max over nodes of distinct leaf coordinates reachable below


class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> CompTree:
        tree = self.expr()
        if self._peek():
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return tree

    def expr(self) -> CompTree:
        tree = self.term()
        while self._peek() in ("+", "-"):
            op = OpKind.ADD if self._peek() == "+" else OpKind.SUB
            self.pos += 1
            tree = Node(op, (tree, self.term()))
        return tree

    def term(self) -> CompTree:
        tree = self.factor()
        while self._peek() == "*":
            self.pos += 1
            tree = Node(OpKind.MUL, (tree, self.factor()))
        return tree

    def factor(self) -> CompTree:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            tree = self.expr()
            self._expect(")")
            return tree
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            word = self.text[start : self.pos]
            if word[0] == "x" and word[1:].isdigit():
                coord = int(word[1:])
                if coord == 0:
                    raise ParseError("variable index 0 is not allowed (variables start at x1)", start)
                return Leaf(coord)
            if word in _FUNCS:
                self._expect("(")
                inner = self.expr()
                self._expect(")")
                return Node(_FUNCS[word], (inner,))
            raise ParseError(f"unknown function or variable {word!r}", start)
        raise ParseError("expected a variable, function call, or '('", self.pos)


def parse_expression(text: str) -> CompTree:
    """Parse an expression string into a computation tree.

    Raises ParseError (with byte offset) on malformed input, unknown
    function names, or the forbidden variable index 0.
    """
    return _Parser(text).parse()


_PREC = {OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 2}


def render(tree: CompTree) -> str:
    """Render a tree to grammar-valid text; parse(render(t)) == t."""
    if isinstance(tree, Leaf):
        return f"x{tree.coord}"
    if tree.op.arity == 1:
        return f"{tree.op.value}({render(tree.children[0])})"
    lhs, rhs = tree.children
    prec = _PREC[tree.op]
    left = render(lhs)
    if isinstance(lhs, Node) and lhs.op.arity == 2 and _PREC[lhs.op] < prec:
        left = f"({left})"
    right = render(rhs)
    # left-associative grammar: parenthesize any binary right child at <= precedence
    if isinstance(rhs, Node) and rhs.op.arity == 2 and _PREC[rhs.op] <= prec:
        right = f"({right})"
    return f"{left}{tree.op.value}{right}"


def iter_nodes(tree: CompTree):
    """Yield (node_id, node) in pre-order; ids are stable pre-order indices."""
    counter = 0

    def walk(t: CompTree):
        nonlocal counter
        nid = counter
        counter += 1
        yield nid, t
        if isinstance(t, Node):
            for child in t.children:
                yield from walk(child)

    yield from walk(tree)


def tree_stats(tree: CompTree) -> TreeStats:
    def walk(t: CompTree) -> tuple[int, int, int, frozenset[int], int]:
        # returns (n, internal, depth, coords, max_sparsity)
        if isinstance(t, Leaf):
            return t.coord, 0, 0, frozenset((t.coord,)), 1
        parts = [walk(c) for c in t.children]
        coords = frozenset().union(*(p[3] for p in parts))
        return (
            max(p[0] for p in parts),
            sum(p[1] for p in parts) + 1,
            max(p[2] for p in parts) + 1,
            coords,
            max(len(coords), *(p[4] for p in parts)),
        )

    n, internal, depth, _, sparsity = walk(tree)
    return TreeStats(n=n, internal=internal, depth=depth, sparsity=sparsity)


def eval_tree(tree: CompTree, x) -> float:
    """Evaluate the tree at a point (any indexable of length >= n)."""
    if isinstance(tree, Leaf):
        return float(x[tree.coord - 1])
    args = [eval_tree(c, x) for c in tree.children]
    return _SCALAR_FN[tree.op](*args)


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
    propagates).
    """
    xs = np.asarray(xs, dtype=np.float64)
    take = node_max._take(len(xs)) if node_max is not None else 0
    return _eval_batch(tree, xs, itertools.count(), take, node_max)


_BATCH_FN: dict[OpKind, Callable] = {
    OpKind.ADD: np.add,
    OpKind.SUB: np.subtract,
    OpKind.MUL: np.multiply,
    OpKind.SIN: np.sin,
    OpKind.COS: np.cos,
    OpKind.RELU: lambda a: np.maximum(a, 0.0),
    OpKind.ABS: np.abs,
}


def _eval_batch(t: CompTree, xs, ids, take: int, node_max: NodeMaxima | None):
    # module level, not a closure: a self-referencing closure would keep `xs`
    # alive until the cyclic collector runs, and callers stream many blocks
    nid = next(ids)  # pre-order id
    if isinstance(t, Leaf):
        return xs[:, t.coord - 1]
    out = _BATCH_FN[t.op](*[_eval_batch(c, xs, ids, take, node_max) for c in t.children])
    if take:
        m = np.max(np.abs(out[:take]))
        prev = node_max.values.get(nid)
        node_max.values[nid] = float(m if prev is None else np.maximum(prev, m))
    return out


def validate_opset(tree: CompTree, allowed: set[OpKind]) -> list[tuple[int, OpKind]]:
    """List (node_id, op) for every internal node whose op is outside `allowed`.

    An empty list means the tree is valid for the given operation set.
    """
    return [
        (nid, t.op)
        for nid, t in iter_nodes(tree)
        if isinstance(t, Node) and t.op not in allowed
    ]
