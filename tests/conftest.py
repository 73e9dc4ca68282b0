import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from kanforge.exprtree import Leaf, Node, OpKind
from kanforge.rangecert import BLOCK_DEPTH, Interval, NodeAnnotation, partial_lip, range_rule

BINARY_OPS = [OpKind.ADD, OpKind.SUB, OpKind.MUL]
UNARY_OPS = [OpKind.SIN, OpKind.COS, OpKind.RELU, OpKind.ABS]


def node_annotation(op: OpKind, *domains: Interval) -> NodeAnnotation:
    """The annotation of an `op` node whose i-th argument ranges over
    domains[i], as `annotate_ranges` builds it: leaves of a tree range over
    [0,1] only, so a block on other domains starts here."""
    return NodeAnnotation(0, op, range_rule(op, domains), domains, tuple(partial_lip(op, domains)), BLOCK_DEPTH[op])


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
    from kanforge.rangecert import annotate_ranges

    sched = build_schedule(tree)
    n = annotate_ranges(tree).n
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


def network(widths, splines, layers, wire_tags=None):
    """A `KanNetwork` written as a net file writes it: the spline table, then
    each layer's `(src, dst, spline_index)` triples. `wire_tags` defaults to
    `n<boundary>.<neuron>`."""
    from kanforge.kannet import KanNetwork

    if wire_tags is None:
        wire_tags = tuple(tuple(f"n{m}.{i}" for i in range(w)) for m, w in enumerate(widths))
    return KanNetwork(
        widths=tuple(widths),
        splines=tuple(splines),
        edges=[t for layer in layers for t in layer],
        counts=tuple(len(layer) for layer in layers),
        wire_tags=wire_tags,
    )


def edges_by_layer(net):
    """Each layer's `(src, dst, spline)` edges of `net`, read from its
    spline table and triples."""
    triples = iter(net.edges.tolist())
    return [[(s, d, net.splines[k]) for s, d, k in itertools.islice(triples, n)] for n in net.counts]


def nan_network():
    """A network for x1+x2 whose edges are constants +-1e308: Lipschitz 0,
    but the hidden sums overflow to +-inf and the output is NaN."""
    from kanforge.spline import line_spline

    big, neg = line_spline(0.0, 1.0, 1e308, 1e308), line_spline(0.0, 1.0, -1e308, -1e308)
    return network(
        (2, 2, 1),
        (big, neg),
        [[(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)], [(0, 0, 0), (1, 0, 1)]],
        (("x1", "x2"), ("a", "b"), ("out",)),
    )
