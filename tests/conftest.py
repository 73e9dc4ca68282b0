import numpy as np
import pytest
from hypothesis import strategies as st

from kanforge.exprtree import Leaf, Node, OpKind

BINARY_OPS = [OpKind.ADD, OpKind.SUB, OpKind.MUL]
UNARY_OPS = [OpKind.SIN, OpKind.COS, OpKind.RELU, OpKind.ABS]


def tree_strategy(max_leaves: int = 12, max_coord: int = 6):
    """Random computation trees for property tests."""
    leaves = st.builds(Leaf, st.integers(1, max_coord))

    def extend(children):
        unary = st.builds(lambda op, c: Node(op, (c,)), st.sampled_from(UNARY_OPS), children)
        binary = st.builds(
            lambda op, a, b: Node(op, (a, b)),
            st.sampled_from(BINARY_OPS),
            children,
            children,
        )
        return unary | binary

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def predicted_faithful_widths(tree):
    """Width profile re-derived from the schedule alone: inputs + live
    intermediates + executing block internals (+ fan-out copies)."""
    from kanforge.compiler import build_schedule
    from kanforge.exprtree import tree_stats

    sched = build_schedule(tree)
    n = tree_stats(tree).n
    if not sched:
        return (n, 1)
    L = sched[-1].start_layer + sched[-1].c_op
    consumer_start = {}
    for e in sched:
        for k in e.consumed:
            if k[0] == "node":
                consumer_start[k] = e.start_layer
    widths = [n]
    for m in range(1, L + 1):
        live = sum(
            1
            for e in sched
            if e.start_layer + e.c_op <= m <= consumer_start.get(e.produced, L)
        )
        internals = sum(2 for e in sched if e.start_layer < m < e.start_layer + e.c_op)
        copies = sum(2 for e in sched if e.fanout_layers and m == e.start_layer)
        widths.append(n + live + internals + copies)
    return tuple(widths)


def nan_network():
    """A network for x1+x2 whose edges are constants +-1e308: Lipschitz 0,
    but the hidden sums overflow to +-inf and the output is NaN."""
    from kanforge.kannet import Edge, KanNetwork
    from kanforge.spline import line_spline

    def const(v):
        return line_spline(0.0, 1.0, v, v)

    return KanNetwork(
        widths=(2, 2, 1),
        layers=(
            (Edge(0, 0, const(1e308)), Edge(1, 0, const(1e308)),
             Edge(0, 1, const(-1e308)), Edge(1, 1, const(-1e308))),
            (Edge(0, 0, const(1e308)), Edge(1, 0, const(-1e308))),
        ),
        wire_tags=(("x1", "x2"), ("a", "b"), ("out",)),
    )
