import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanforge.compiler import build_schedule
from kanforge.exprtree import (
    MAX_COORD,
    Leaf,
    Node,
    OpKind,
    ParseError,
    eval_tree,
    eval_tree_batch,
    parse_expression,
    postorder,
    render,
)
from kanforge.rangecert import BLOCK_DEPTH, annotate_ranges

from conftest import tree_strategy


class TestParse:
    def test_product(self):
        t = parse_expression("x1*x2")
        assert t == Node(OpKind.MUL, (Leaf(1), Leaf(2)))
        s = annotate_ranges(t)
        assert (s.internal, s.depth) == (1, 1)

    def test_bare_leaf(self):
        assert parse_expression("x1") == Leaf(1)
        assert annotate_ranges(Leaf(1)).internal == 0

    def test_sin_of_product(self):
        t = parse_expression("sin(x1*x2)")
        assert t == Node(OpKind.SIN, (Node(OpKind.MUL, (Leaf(1), Leaf(2))),))
        s = annotate_ranges(t)
        assert (s.internal, s.depth) == (2, 2)

    def test_precedence_and_associativity(self):
        # * binds tighter; +,- left-associative
        assert parse_expression("x1+x2*x3") == Node(
            OpKind.ADD, (Leaf(1), Node(OpKind.MUL, (Leaf(2), Leaf(3))))
        )
        assert parse_expression("x1-x2-x3") == Node(
            OpKind.SUB, (Node(OpKind.SUB, (Leaf(1), Leaf(2))), Leaf(3))
        )

    def test_whitespace_insignificant(self):
        assert parse_expression(" x1 * ( x2 + x3 ) ") == parse_expression("x1*(x2+x3)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x1*")
        assert exc.value.offset == 3

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="tan"):
            parse_expression("tan(x1)")

    def test_variable_index_zero(self):
        with pytest.raises(ParseError, match="x1"):
            parse_expression("x0*x1")

    def test_variable_index_limit(self):
        assert parse_expression(f"x{MAX_COORD}") == Leaf(MAX_COORD)
        assert parse_expression(f"x000{MAX_COORD}") == Leaf(MAX_COORD)
        for text in (f"x{MAX_COORD + 1}", f"x1+x{MAX_COORD + 1}0", "x" + "9" * 5000):
            with pytest.raises(ParseError, match=f"limit x{MAX_COORD}"):
                parse_expression(text)
        with pytest.raises(ValueError):
            Leaf(MAX_COORD + 1)
        # a non-ASCII digit is no index: an unknown name, not an int() crash
        with pytest.raises(ParseError, match="unknown"):
            parse_expression("x\u00b2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x1)x2")

    def test_function_requires_parentheses(self):
        with pytest.raises(ParseError):
            parse_expression("sin x1")


class TestStats:
    def test_left_product_chain(self):
        t = parse_expression("*".join(f"x{i}" for i in range(1, 11)))
        s = annotate_ranges(t)
        assert (s.n, s.internal, s.depth) == (10, 9, 9)

    def test_single_leaf(self):
        s = annotate_ranges(Leaf(3))
        assert (s.n, s.internal, s.depth) == (3, 0, 0)

    def test_balanced_add_tree_four_leaves(self):
        # hand-enumerated: 3 internal nodes, two levels
        t = Node(
            OpKind.ADD,
            (Node(OpKind.ADD, (Leaf(1), Leaf(2))), Node(OpKind.ADD, (Leaf(3), Leaf(4)))),
        )
        s = annotate_ranges(t)
        assert (s.internal, s.depth, s.n) == (3, 2, 4)

    def test_n_is_max_leaf_index(self):
        assert annotate_ranges(parse_expression("x2*x2")).n == 2


class TestEval:
    def test_product(self):
        assert eval_tree(parse_expression("x1*x2"), [0.5, 0.5]) == 0.25

    def test_sin_product(self):
        got = eval_tree(parse_expression("sin(x1*x2)"), [1.0, 1.0])
        assert got == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_sum(self):
        assert eval_tree(parse_expression("x1+x2"), [1.0, 1.0]) == 2.0

    def test_relu_abs(self):
        t = parse_expression("relu(x1-x2)+abs(x2-x1)")
        assert eval_tree(t, [0.2, 0.7]) == pytest.approx(0.5)

    def test_extra_coordinates_allowed(self):
        assert eval_tree(parse_expression("x1"), [0.3, 0.9, 0.1]) == 0.3


class TestProperties:
    @given(tree_strategy())
    @settings(max_examples=200)
    def test_render_parse_round_trip(self, tree):
        assert parse_expression(render(tree)) == tree

    @given(tree_strategy(max_leaves=6), tree_strategy(max_leaves=6))
    @settings(max_examples=100)
    def test_composition_counts(self, g, h):
        sg, sh = annotate_ranges(g), annotate_ranges(h)
        for op in (OpKind.ADD, OpKind.MUL):
            s = annotate_ranges(Node(op, (g, h)))
            assert s.internal == sg.internal + sh.internal + 1
            assert s.depth == max(sg.depth, sh.depth) + 1


def _stack_machine(tree):
    """Independent oracle: postfix instruction list run on an explicit stack."""
    program = []

    def emit(t):
        if isinstance(t, Leaf):
            program.append(("load", t.coord - 1))
            return
        for c in t.children:
            emit(c)
        program.append(("op", t.op))

    emit(tree)

    def run(xs):
        stack = []
        for kind, payload in program:
            if kind == "load":
                stack.append(xs[:, payload])
            elif payload is OpKind.ADD:
                b, a = stack.pop(), stack.pop()
                stack.append(a + b)
            elif payload is OpKind.SUB:
                b, a = stack.pop(), stack.pop()
                stack.append(a - b)
            elif payload is OpKind.MUL:
                b, a = stack.pop(), stack.pop()
                stack.append(a * b)
            elif payload is OpKind.SIN:
                stack.append(np.sin(stack.pop()))
            elif payload is OpKind.COS:
                stack.append(np.cos(stack.pop()))
            elif payload is OpKind.RELU:
                stack.append(np.maximum(stack.pop(), 0.0))
            else:
                stack.append(np.abs(stack.pop()))
        assert len(stack) == 1
        return stack[0]

    return run


def test_eval_matches_stack_machine_oracle(rng):
    from kanforge.cli import random_tree

    for _ in range(100):
        tree = random_tree(rng, 5)
        xs = rng.uniform(0.0, 1.0, size=(10_000, annotate_ranges(tree).n))
        expected = _stack_machine(tree)(xs)
        got = eval_tree_batch(tree, xs)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # spot-check the scalar evaluator against the same oracle
        assert eval_tree(tree, xs[0]) == pytest.approx(expected[0], abs=1e-12)


# ---------------------------------------------------------------------------
# the one tree walk, on random trees and on deep shapes

_BINARY = (OpKind.ADD, OpKind.SUB, OpKind.MUL)
_UNARY = (OpKind.SIN, OpKind.COS, OpKind.RELU, OpKind.ABS)


def _deep_tree(shape: str, depth: int, seed: int = 0):
    """A tree with `depth` internal nodes on one root-to-leaf path, built
    without recursion. Returns the tree and its leaf coordinates."""
    rng = np.random.default_rng(seed)
    coords = [1]
    tree = Leaf(1)
    for i in range(depth):
        c = i % 7 + 1
        if shape == "left":        # x1+x2-x3+...
            op, side = _BINARY[i % 2], 0
        elif shape == "right":     # x1-(x2-(x3-...)): the deep child on the right
            op, side = OpKind.SUB, 1
        elif shape == "unary":     # sin(cos(relu(abs(...))))
            op, side = _UNARY[i % 4], 0
        else:                      # mixed: any op, the deep child on either side
            op = (_BINARY + _UNARY)[int(rng.integers(7))]
            side = int(rng.integers(2))
        if op.arity == 1:
            tree = Node(op, (tree,))
        else:
            coords.append(c)
            tree = Node(op, (tree, Leaf(c)) if side == 0 else (Leaf(c), tree))
    return tree, coords


def _preorder(tree):
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Node):
            stack.extend(reversed(t.children))
    return out


def _mirrored_preorder(tree):
    # root, then right before left; reversed it is the left-to-right post-order
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Node):
            stack.extend(t.children)
    return out


def _check_walk(tree, coords=None):
    walk = postorder(tree)
    # children first, left to right, and each id is the node's pre-order index
    assert all(a is b for (_, a), b in zip(walk, reversed(_mirrored_preorder(tree)), strict=True))
    pre = _preorder(tree)
    assert sorted(nid for nid, _ in walk) == list(range(len(pre)))
    assert all(pre[nid] is t for nid, t in walk)

    # round trip through text; strings compare without recursing on the tree
    text = render(tree)
    assert render(parse_expression(text)) == text

    # stats in closed form from the walk's node list
    nodes = [t for _, t in walk if isinstance(t, Node)]
    leaves = [t.coord for _, t in walk if isinstance(t, Leaf)]
    s = annotate_ranges(tree)
    assert (s.n, s.internal) == (max(leaves), len(nodes))
    if coords is not None:  # a deep shape: one path carries every internal node
        assert sorted(leaves) == sorted(coords)
        assert s.depth == len(nodes)

    # the scalar and vectorized evaluators agree at one row
    x = np.random.default_rng(len(pre)).uniform(0.0, 1.0, size=s.n)
    assert eval_tree(tree, x) == pytest.approx(eval_tree_batch(tree, x[None, :])[0], rel=1e-12, abs=1e-12)

    # the schedule ends at the heaviest root-to-leaf path, each node weighing
    # its block depth plus one fan-out layer if it is an x_p op x_p node
    schedule = build_schedule(tree)
    if nodes:
        path = {}  # id(subtree) -> heaviest path below it, children first
        for _, t in walk:
            if isinstance(t, Leaf):
                path[id(t)] = 0
            else:
                fan = len(t.children) == 2 and all(isinstance(c, Leaf) for c in t.children) \
                    and t.children[0].coord == t.children[1].coord
                path[id(t)] = BLOCK_DEPTH[t.op] + fan + max(path[id(c)] for c in t.children)
        last = schedule[-1]
        assert (last.node_id, last.start_layer + last.c_op) == (0, path[id(tree)])
    else:
        assert schedule == ()


class TestOneWalk:
    @given(tree_strategy())
    @settings(max_examples=200)
    def test_random_trees(self, tree):
        _check_walk(tree)

    @pytest.mark.parametrize("depth", [1, 2, 57, 3000])
    @pytest.mark.parametrize("shape", ["left", "right", "unary", "mixed"])
    def test_deep_shapes(self, shape, depth):
        _check_walk(*_deep_tree(shape, depth))

    @given(st.sampled_from(["left", "right", "unary", "mixed"]), st.integers(1, 3000), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_generated_deep_shapes(self, shape, depth, seed):
        _check_walk(*_deep_tree(shape, depth, seed))

    def test_deep_text_parses(self):
        assert annotate_ranges(parse_expression("(" * 20000 + "x1" + ")" * 20000)) == annotate_ranges(Leaf(1))
        terms = [f"x{i % 7 + 1}" for i in range(3001)]
        right = "-(".join(terms[:-1]) + "-" + terms[-1] + ")" * 2999
        assert render(parse_expression(right)) == right
        assert annotate_ranges(parse_expression(right)).depth == 3000


class TestStructuralDunders:
    def test_deep_sum_compares_hashes_and_prints(self):
        text = "+".join(f"x{i % 5 + 1}" for i in range(3000))
        t, u = parse_expression(text), parse_expression(text)
        assert t is not u and t == u and hash(t) == hash(u)
        assert t != parse_expression(text[:-3] + "*x1")
        assert repr(t).startswith("Node(op=<OpKind.ADD: '+'>, children=(Node(")
        assert repr(t).count("Leaf(coord=") == 3000
        ann = annotate_ranges(t)
        assert ann == annotate_ranges(u) and repr(ann)

    def test_repr_matches_dataclass_form(self):
        t = parse_expression("x1*sin(x2)-x3")
        assert repr(t) == (
            "Node(op=<OpKind.SUB: '-'>, children=(Node(op=<OpKind.MUL: '*'>, children=(Leaf(coord=1), "
            "Node(op=<OpKind.SIN: 'sin'>, children=(Leaf(coord=2),)))), Leaf(coord=3)))"
        )

    @given(tree_strategy(), tree_strategy())
    @settings(max_examples=200)
    def test_equality_is_structural(self, g, h):
        same = render(g) == render(h)  # render is injective on trees
        assert (g == h) is same and (h == g) is same
        assert not same or hash(g) == hash(h)
        assert parse_expression(render(g)) == g and Leaf(1) != Node(OpKind.SIN, (Leaf(1),))
