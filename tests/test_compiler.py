import itertools
import json
import math
import tracemalloc
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kanforge import compiler
from kanforge.cli import random_tree
from kanforge.compiler import (
    W_MAX_BLOCK,
    Certificate,
    CertificationError,
    CompileConfig,
    CompileError,
    build_schedule,
    certify,
    check_certificate,
    compile_tree,
    dead_wire_elimination,
    measured_sup_error,
)
from kanforge.exprtree import Leaf, Node, NodeMaxima, OpKind, eval_tree_batch, parse_expression, postorder, render
from kanforge.kannet import KanNetwork, deserialize, forward, forward_batch, lipschitz_product, read, serialize
from kanforge.kernels import CHUNK
from kanforge.primblocks import EdgeSplines, build_block
from kanforge.rangecert import BLOCK_DEPTH, Interval, annotate_ranges, lip_budget, verify_ranges_numerically
from kanforge.spline import Spline, line_spline

from conftest import nan_network, node_annotation, tree_strategy
from conftest import predicted_faithful_widths as _predicted_faithful_widths
from test_bytes_guard import GROUPS, _chain

CFG = CompileConfig(grid=35)
CFG_FAITHFUL = CompileConfig(grid=35, faithful_widths=True)


def _with_spline(net, i, spl):
    """`net` with edge i (in layer order) reading `spl`, a new table entry."""
    edges = net.edges.copy()
    edges[i, 2] = len(net.splines)
    return KanNetwork(net.widths, net.splines + (spl,), edges, net.counts, net.wire_tags)


class TestCompileExamples:
    def test_product_shape(self):
        net, cert = compile_tree(parse_expression("x1*x2"), CFG)
        assert net.widths == (2, 2, 2, 1)
        assert net.n_layers == 3
        assert lipschitz_product(net).product == 1.0
        assert cert.p_bound == 1.0
        assert cert.error_bound == 0.0

    def test_triple_product(self):
        net, cert = compile_tree(parse_expression("x1*x2*x3"), CFG)
        assert cert.internal == 2
        assert cert.l_f == 6
        assert lipschitz_product(net).product == 1.0

    def test_scaled_multiplication_bound(self):
        _, cert = compile_tree(parse_expression("(x1+x2)*x3"), CFG)
        assert cert.p_bound == 8.0

    def test_leaf(self):
        net, cert = compile_tree(Leaf(1), CFG)
        assert net.widths == (1, 1)
        assert (cert.l_f, cert.error_bound) == (0, 0.0)
        assert lipschitz_product(net).product == 1.0

    def test_leaf_with_higher_coordinate_keeps_n(self):
        net, cert = compile_tree(Leaf(3), CFG)
        assert net.widths == (3, 1)
        assert cert.n == 3
        assert forward(net, [0.1, 0.2, 0.9])[0] == 0.9

    def test_duplicate_source_gets_fanout_layer(self):
        net, cert = compile_tree(parse_expression("x1*x1"), CFG)
        assert net.n_layers == cert.l_f + 1  # one fan-out layer
        assert forward(net, [0.7])[0] == pytest.approx(0.49, abs=1e-12)
        assert lipschitz_product(net).product == 1.0

    def test_forward_matches_oracle_everywhere(self, rng):
        for expr in ("sin((x1+x2)*x3)", "abs(x1-x2)*relu(x3-x1)", "cos(x1*x2)-x3"):
            tree = parse_expression(expr)
            net, cert = compile_tree(tree, CFG)
            err = measured_sup_error(tree, net, 5000, seed=9)
            assert err <= cert.error_bound + 1e-10


class TestSchedule:
    def test_postorder_left_first(self):
        sched = build_schedule(parse_expression("(x1+x2)*(x3+x4)"))
        assert [e.op for e in sched] == [OpKind.ADD, OpKind.ADD, OpKind.MUL]
        # both adds start at layer 0, the product as soon as they are done
        assert [e.start_layer for e in sched] == [0, 0, 1]
        # pre-order ids: mul=0, left add=1, right add=4
        assert [e.node_id for e in sched] == [1, 4, 0]

    def test_consumed_wires(self):
        sched = build_schedule(parse_expression("(x1+x2)*x3"))
        add, mul = sched
        assert add.consumed == (("input", 1), ("input", 2))
        assert mul.consumed == (("node", 1), ("input", 3))
        assert mul.produced == ("node", 0)

    def test_fanout_flag(self):
        sched = build_schedule(parse_expression("x2*x2"))
        assert sched[0].fanout_layers == 1
        assert sched[0].start_layer == 1

    def test_leaf_schedule_empty(self):
        assert build_schedule(Leaf(2)) == ()


def _critical_path(tree):
    """The heaviest root-to-leaf path, each node weighing its block depth plus
    one fan-out layer if it reads one input twice; with the fan-out count."""
    path, fanouts = {}, 0
    for _, t in postorder(tree):
        if isinstance(t, Leaf):
            path[id(t)] = 0
            continue
        fan = len(t.children) == 2 and all(isinstance(c, Leaf) for c in t.children) \
            and t.children[0].coord == t.children[1].coord
        fanouts += fan
        path[id(t)] = BLOCK_DEPTH[t.op] + fan + max(path[id(c)] for c in t.children)
    return path[id(tree)], fanouts


class TestAsapSchedule:
    """Each block starts as soon as its arguments are ready, so blocks share
    layers; the paper's width and product bounds hold for any such layout."""

    @given(tree_strategy(), st.sampled_from(["default", "faithful", "box"]))
    @settings(max_examples=300, deadline=None)
    def test_depth_is_the_critical_path_and_bounds_hold(self, tree, mode):
        assume(isinstance(tree, Node))
        ann = annotate_ranges(tree)
        config = {
            "default": CFG,
            "faithful": CFG_FAITHFUL,
            # sides 0.5, 1, 1.5, ...: the pre-layer's factor is 2
            "box": CompileConfig(box=tuple((p - 1.0, 0.5 * p + p - 1.0) for p in range(1, ann.n + 1))),
        }[mode]
        net, cert = compile_tree(tree, config)
        pre = config.box is not None
        critical, fanouts = _critical_path(tree)
        assert net.n_layers - pre == critical <= lip_budget(ann).l_f + fanouts
        assert max(net.widths) <= ann.n + 2 * W_MAX_BLOCK * ann.internal == cert.width_bound
        assert lipschitz_product(net).product <= cert.p_bound

    def test_independent_blocks_share_layers(self):
        # four adds side by side, then two products, then their sum
        net, _ = compile_tree(parse_expression("(x1+x2)*(x3+x4)+(x5+x6)*(x7+x8)"), CFG)
        assert net.n_layers == 1 + 3 + 1
        assert net.widths == (8, 4, 4, 4, 2, 1)


class TestDeadWireElimination:
    def test_minimal_net_unchanged(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        out = dead_wire_elimination(net)
        assert out.widths == net.widths
        assert out.wire_tags == net.wire_tags

    def test_faithful_reduces_to_default(self, rng):
        for expr in ("sin(x1*x2)", "(x1+x2)*(x3+x4)", "x1*x1"):
            tree = parse_expression(expr)
            faithful, _ = compile_tree(tree, CFG_FAITHFUL)
            default, _ = compile_tree(tree, CFG)
            reduced = dead_wire_elimination(faithful, outputs={0})
            assert reduced.widths == default.widths
            X = rng.uniform(0, 1, size=(1000, default.n_inputs))
            np.testing.assert_array_equal(
                forward_batch(reduced, X)[:, 0], forward_batch(default, X)[:, 0]
            )

    def test_outputs_preserved(self, rng):
        tree = parse_expression("sin((x1+x2)*x3)")
        net, _ = compile_tree(tree, CFG_FAITHFUL)
        reduced = dead_wire_elimination(net, outputs={0})
        X = rng.uniform(0, 1, size=(1000, 3))
        np.testing.assert_array_equal(forward_batch(net, X)[:, 0], forward_batch(reduced, X)[:, 0])
        assert all(w2 <= w1 for w1, w2 in zip(net.widths, reduced.widths))

    def test_unused_input_dropped_after_entry(self):
        # x2*x2 reads only x2; x1 must stay at the input boundary but vanish after
        net, _ = compile_tree(parse_expression("x2*x2"), CFG)
        assert net.widths[0] == 2
        assert "x1" not in [tag for tags in net.wire_tags[1:] for tag in tags]

    def test_chain_keeps_single_live_intermediate(self):
        net, _ = compile_tree(parse_expression("*".join(f"x{i}" for i in range(1, 11))), CFG)
        # forwarded wires per boundary: remaining inputs + at most one product
        for m, tags in enumerate(net.wire_tags):
            assert sum(tag.startswith("node") for tag in tags) <= 1

    def test_idempotent(self):
        net, _ = compile_tree(parse_expression("sin(x1*x2)"), CFG)
        once = dead_wire_elimination(net)
        twice = dead_wire_elimination(once)
        assert once.widths == twice.widths


class TestFaithfulWidths:
    def test_accounting_on_examples(self):
        for expr in ("x1*x2", "sin(x1*x2)", "(x1+x2)*(x3+x4)", "x1*x1", "sin(cos(x1))"):
            tree = parse_expression(expr)
            net, _ = compile_tree(tree, CFG_FAITHFUL)
            assert net.widths == _predicted_faithful_widths(tree)

    def test_accounting_on_random_corpus(self, rng):
        from kanforge.cli import random_tree

        for _ in range(150):
            tree = random_tree(rng, 5)
            net, _ = compile_tree(tree, CFG_FAITHFUL)
            assert net.widths == _predicted_faithful_widths(tree)

    def test_width_bound_holds_in_both_modes(self, rng):
        from kanforge.cli import random_tree

        for _ in range(100):
            tree = random_tree(rng, 5)
            ann = annotate_ranges(tree)
            for cfg in (CFG, CFG_FAITHFUL):
                net, _ = compile_tree(tree, cfg)
                assert net.widths[0] == ann.n
                assert max(net.widths) <= ann.n + 8 * ann.internal


class TestCertify:
    def test_sin_product_error_budget(self):
        tree = parse_expression("sin(x1*x2)")
        net, _ = compile_tree(tree, CFG)
        cert = certify(tree, net, CFG, samples=20_000, seed=3)
        # two nodes, tree-uniform constant 1, only the sin block is inexact
        assert cert.error_bound == pytest.approx(2 * cert.eps_op)
        assert cert.eps_op <= (1 / 34) ** 2 / 8

    def test_additive_width_bound(self):
        tree = parse_expression("(x1+x2)+(x3+x4)")
        net, _ = compile_tree(tree, CFG)
        cert = certify(tree, net, CFG, samples=5000, seed=4)
        assert cert.width_bound == 4 + 8 * 3
        assert max(net.widths) <= cert.width_bound

    def test_leaf_trivial(self):
        cert = certify(Leaf(1), compile_tree(Leaf(1), CFG)[0], CFG, samples=100, seed=5)
        assert (cert.p_bound, cert.error_bound, cert.l_f) == (1.0, 0.0, 0)

    def test_tampered_network_fails_naming_inequality(self):
        tree = parse_expression("x1*x2")
        net, _ = compile_tree(tree, CFG)
        assert net.edges[0, :2].tolist() == [0, 0]
        doubled = _with_spline(net, 0, line_spline(0, 1, 0, 2))
        with pytest.raises(CertificationError, match="P <= p_bound"):
            certify(tree, doubled, CFG, samples=100, seed=6)

    def test_wrong_input_width_fails(self):
        tree = parse_expression("x1*x2")
        net, _ = compile_tree(parse_expression("x1*x2*x3"), CFG)
        with pytest.raises(CertificationError, match="n_0"):
            certify(tree, net, CFG, samples=100, seed=7)

    def test_unsound_forward_fails_error_check(self):
        tree = parse_expression("x1+x2")
        other, _ = compile_tree(parse_expression("x1-x2"), CFG)
        with pytest.raises(CertificationError, match="sup error"):
            certify(tree, other, CFG, samples=100, seed=8)

    def test_rate_exponent_reflects_block_order(self):
        assert compile_tree(parse_expression("sin(x1)"), CFG)[1].rate_exponent == 2
        assert compile_tree(parse_expression("x1*x2"), CFG)[1].rate_exponent is None


class TestCertifyRecomputeAndCheck:
    """The compile path checks its own certificate; `certify` recomputes it
    first. Both must agree exactly, or the compile path checks less."""

    def test_recomputed_certificate_equals_compiled(self, rng):
        for _ in range(100):
            tree = random_tree(rng, 5)
            for cfg in (CFG, CFG_FAITHFUL):
                net, cert = compile_tree(tree, cfg)
                got = certify(tree, net, cfg, samples=200, seed=1)
                assert got == cert
                assert got.to_json() == cert.to_json()

    def test_recomputed_box_certificate_equals_compiled(self):
        tree = parse_expression("sin(x1*x2)-x3")
        cfg = CompileConfig(grid=35, box=((0, 2), (1, 4), (-1, 0.5)))
        net, cert = compile_tree(tree, cfg)
        got = certify(tree, net, cfg, samples=500, seed=2)
        assert got == cert
        assert got.to_json() == cert.to_json()

    def test_check_reads_the_certificates_box(self):
        # the sampled error maps its points into cert.config.box: no box
        # argument, and unmapped points would miss the tree by far more
        tree = parse_expression("sin(x1*x2)+x1")
        net, cert = compile_tree(tree, CompileConfig(box=((-2.0, 1.0), (0.5, 3.0))))
        report = check_certificate(tree, net, cert, 2000, 5)
        assert report.ok, report.failure
        assert report.sup_error <= cert.error_bound + 1e-10

    def test_check_returns_measured_error(self):
        tree = parse_expression("sin((x1+x2)*x3)")
        net, cert = compile_tree(tree, CFG)
        report = check_certificate(tree, net, cert, 3000, 21)
        assert report.ok and report.failure is None
        assert report.sup_error == measured_sup_error(tree, net, 3000, 21)
        assert report.sup_error <= cert.error_bound
        assert len(report.rows) == 7

    def test_failed_error_check_carries_measurement(self):
        tree = parse_expression("x1+x2")
        net, cert = compile_tree(tree, CFG)
        i = sum(net.counts[:-1])  # the last layer's first edge
        spl = net.splines[net.edges[i, 2]]
        (a, b), (va, vb) = spl.domain, spl.coefs
        other = _with_spline(net, i, line_spline(a, b, va + 1.0, vb + 1.0))
        report = check_certificate(tree, other, cert, 500, 3)
        row = report.failure
        assert row is report.rows[-1] and row.name.startswith("sup error")
        assert row.lhs == report.sup_error == measured_sup_error(tree, other, 500, 3)
        assert (row.rhs, row.slack) == (cert.error_bound, 1e-10)

    def test_earlier_failure_still_measures(self):
        tree = parse_expression("x1+x2")
        net, cert = compile_tree(tree, CFG)
        report = check_certificate(tree, net, replace(cert, width_bound=1), 500, 3)
        assert "width bound" in report.failure.name
        assert [r.ok for r in report.rows].count(False) == 1
        row = report.rows[-1]
        assert row.name.startswith("sup error") and row.ok
        assert row.lhs == report.sup_error == measured_sup_error(tree, net, 500, 3)

    def test_block_row_names_failing_else_tightest_node(self):
        # pre-order: node 0 is * with C = 2 on [0,1]x[0,2], node 2 is + with C = 1
        tree = parse_expression("x1*(x2+x3)")
        net, cert = compile_tree(tree, CFG)
        assert cert.per_node[0].lambda_op < 8.0
        row = check_certificate(tree, net, cert, 200, 4).rows[3]
        assert row.name.startswith("lambda_v") and row.ok
        assert (row.where, row.lhs, row.rhs) == ("node 2 (+)", 1.0, 1.0)
        lied = replace(cert, per_node=tuple(replace(nc, lambda_op=9.0) for nc in cert.per_node))
        row = check_certificate(tree, net, lied, 200, 4).failure
        assert row.name.startswith("lambda_v")
        assert (row.where, row.lhs, row.rhs) == ("node 0 (*)", 9.0, 8.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_nan_forward_fails_sup_error_row(self):
        # constant edges (Lipschitz 0) whose sums overflow: the forward is NaN
        tree = parse_expression("x1+x2")
        net = nan_network()
        assert np.isnan(forward_batch(net, np.array([[0.3, 0.4]]))[0, 0])
        with pytest.raises(CertificationError, match="sup error"):
            certify(tree, net, CFG, samples=100, seed=3)
        cert = compiler.recompute_certificate(tree, net, CFG)
        report = check_certificate(tree, net, cert, 100, 3)
        assert math.isnan(report.sup_error)
        assert [r.ok for r in report.rows] == [True] * 6 + [False]


class TestIdentityWires:
    def test_one_spline_per_interval(self):
        splines = EdgeSplines()
        iv = Interval(-1.0, 2.0)
        a = splines.ident(iv)
        assert splines.ident(iv) is a
        assert splines.ident(Interval(-1.0, 2.0)) is a
        assert splines.line(-1.0, 2.0, -1.0, 2.0) is a
        assert a.knots.tolist() == a.coefs.tolist() == [-1.0, 2.0]
        assert splines.ident(Interval(-1.0, 3.0)) is not a
        assert splines.neg(iv) is not a

    def test_signed_zero_intervals_kept_apart(self):
        splines = EdgeSplines()
        neg = splines.ident(Interval(-0.0, 1.0))
        pos = splines.ident(Interval(0.0, 1.0))
        assert neg is not pos
        assert splines.ident(Interval(-0.0, 1.0)) is neg
        assert math.copysign(1.0, neg.knots[0]) == -1.0
        assert math.copysign(1.0, pos.knots[0]) == 1.0
        assert str(neg.to_dict()["knots"][0]) == "-0.0"
        assert str(pos.to_dict()["knots"][0]) == "0.0"

    def test_wires_are_shared_across_layers(self):
        net, _ = compile_tree(parse_expression("x1*x2*x3*x4"), CFG_FAITHFUL)
        assert len({id(s) for s in net.splines}) == len(net.splines) < len(net.edges)

    def test_built_edges_share_with_lines(self):
        # relu on [0, 1] is the identity line's document, a 3-knot hinge is not
        splines = EdgeSplines()

        def edge(expr, iv):
            a = node_annotation(parse_expression(expr).op, iv)
            return build_block(a, 35, splines).layers[0][0][2]

        assert edge("relu(x1)", Interval(0.0, 1.0)) is splines.ident(Interval(0.0, 1.0))
        hinge = edge("relu(x1)", Interval(-1.0, 1.0))
        again = edge("abs(x1)", Interval(-1.0, 1.0))
        assert hinge.knots.size == 3 and hinge is not again
        assert edge("relu(x1)", Interval(-1.0, 1.0)) is hinge

    def test_no_spline_outlives_its_compile(self):
        tree = parse_expression("sin(x1*x2)+x1*x2")
        first, second = (compile_tree(tree, CFG)[0] for _ in range(2))
        assert not set(map(id, first.splines)) & set(map(id, second.splines))
        assert serialize(first) == serialize(second)


def _doc_key(s):
    return s.order, s.knots.tobytes(), s.coefs.tobytes()


class TestSplineSharing:
    def test_one_spline_per_distinct_edge(self, rng):
        trees = [parse_expression(_chain(24))] + [random_tree(rng, 5) for _ in range(20)]
        for tree in trees:
            for cfg in (CFG, CFG_FAITHFUL):
                net, _ = compile_tree(tree, cfg)
                assert len(net.splines) == len({_doc_key(s) for s in net.splines}), render(tree)


def _pruned_faithful(tree):
    # the oracle: the proof's construction with its dead wires eliminated
    return dead_wire_elimination(compile_tree(tree, CFG_FAITHFUL)[0], outputs={0})


class TestLiveBuild:
    @pytest.mark.parametrize("expr", ["x1*x1", "x1*x1+x1", "x2*x2", "x3", _chain(24)])
    def test_matches_pruned_faithful_build(self, expr):
        tree = parse_expression(expr)
        assert serialize(compile_tree(tree, CFG)[0]) == serialize(_pruned_faithful(tree))

    def test_matches_pruned_faithful_build_on_random_trees(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            tree = random_tree(rng, 5)
            assert serialize(compile_tree(tree, CFG)[0]) == serialize(_pruned_faithful(tree)), render(tree)

    def test_one_network_per_compile(self, monkeypatch):
        built = []
        init = KanNetwork.__post_init__
        monkeypatch.setattr(KanNetwork, "__post_init__", lambda net: built.append(net) or init(net))
        monkeypatch.setattr(compiler, "dead_wire_elimination", None)
        for cfg in (CFG, CFG_FAITHFUL):
            built.clear()
            net, _ = compile_tree(parse_expression(_chain(24)), cfg)
            assert built == [net]


class TestCompileOnBox:
    """`compile_tree` with a `CompileConfig.box`: the affine pre-layer."""

    def test_unit_box_is_identity_factor(self, rng):
        tree = parse_expression("x1*x2")
        net, cert = compile_tree(tree, CompileConfig(box=((0, 1), (0, 1))))
        assert lipschitz_product(net).per_layer[0] == 1.0
        assert cert.p_bound == 1.0
        X = rng.uniform(0, 1, size=(64, 2))
        base, _ = compile_tree(tree, CFG)
        np.testing.assert_allclose(
            forward_batch(net, X)[:, 0], forward_batch(base, X)[:, 0], atol=1e-12
        )

    def test_expanding_box_halves_product(self):
        tree = parse_expression("x1*x2")
        net, cert = compile_tree(tree, CompileConfig(box=((0, 2), (0, 2))))
        assert lipschitz_product(net).per_layer[0] == 0.5
        assert lipschitz_product(net).product == 0.5
        assert cert.p_bound == 1.0  # bound scaled by max(mu, 1) = 1
        # network value at a box point equals the tree at the rescaled point
        assert forward(net, [1.0, 1.0])[0] == pytest.approx(0.25, abs=1e-12)

    def test_shrinking_box_doubles_bound(self):
        tree = parse_expression("x1*x2")
        cfg = CompileConfig(box=((0, 0.5), (0, 0.5)))
        net, cert = compile_tree(tree, cfg)
        assert lipschitz_product(net).per_layer[0] == 2.0
        assert cert.p_bound == 2.0
        assert cert.p_bound == compile_tree(tree, CFG)[1].p_bound * 2.0
        assert lipschitz_product(net).product <= 2.0
        certify(tree, net, cfg, samples=2000, seed=11)

    def test_box_arity_checked(self):
        with pytest.raises(CompileError, match="box has 1 intervals, tree reads 2 coordinates"):
            compile_tree(parse_expression("x1*x2"), CompileConfig(box=((0, 1),)))
        with pytest.raises(CompileError, match="box has 3 intervals, tree reads 2 coordinates"):
            compile_tree(parse_expression("x1*x2"), CompileConfig(box=((0, 1),) * 3))

    def test_box_arity_checked_in_library_calls(self, monkeypatch):
        tree = parse_expression("x1*x2")
        net, cert = compile_tree(tree, CompileConfig(box=((0, 1), (0, 2))))
        wide = CompileConfig(box=((0, 1),) * 3)
        with pytest.raises(CompileError, match="box has 3 intervals, tree reads 2 coordinates"):
            compiler.recompute_certificate(tree, net, wide)
        # the sampled check fails before it draws a sample
        monkeypatch.setattr(compiler, "sample_blocks", None)
        with pytest.raises(ValueError, match="box has 3 intervals, network reads 2"):
            check_certificate(tree, net, replace(cert, config=wide), 100, 0)

    def test_box_certify(self):
        tree = parse_expression("sin(x1*x2)")
        cfg = CompileConfig(box=((0, 2), (1, 4)))
        net, cert = compile_tree(tree, cfg)
        got = certify(tree, net, cfg, samples=5000, seed=12)
        assert got.p_bound == cert.p_bound

    def test_box_config_normalized_and_checked(self):
        # a box of lists and ints is the tuple of float pairs a certificate
        # reads back, so it compares equal to its own certificate's config
        cfg = CompileConfig(box=[[0, 2], [1, 4.5]])
        assert cfg.box == ((0.0, 2.0), (1.0, 4.5))
        assert all(type(v) is float for pair in cfg.box for v in pair)
        assert cfg == CompileConfig(box=((0.0, 2.0), (1.0, 4.5)))
        for side in ((1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match=r"degenerate box interval \["):
                CompileConfig(box=((0.0, 1.0), side))

    def test_box_net_is_the_pre_layer_ahead_of_the_unit_net(self):
        # the box net's bytes are the unit net's behind one affine layer that
        # reads coordinate p through table entry p, for both builders
        tree = parse_expression("sin(x1*x2)-x3")
        box = ((0.0, 2.0), (1.0, 4.0), (-1.0, 0.5))
        for cfg in (CFG, CFG_FAITHFUL):
            unit, _ = compile_tree(tree, cfg)
            net, cert = compile_tree(tree, replace(cfg, box=box))
            assert net.widths == (3,) + unit.widths and cert.widths == net.widths
            assert net.wire_tags == (("box:x1", "box:x2", "box:x3"),) + unit.wire_tags
            assert [s.to_dict() for s in net.splines] == [
                {"order": 1, "knots": [lo, hi], "coefs": [0.0, 1.0]} for lo, hi in box
            ] + [s.to_dict() for s in unit.splines]
            assert net.edges[:3].tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
            assert np.array_equal(net.edges[3:], unit.edges + (0, 0, 3))
            assert cert.net_sha256 == compiler._net_hash(net)


class TestCorpusProperties:
    def test_structural_induction_and_error(self, rng):
        from kanforge.cli import random_tree

        for i in range(100):
            tree = random_tree(rng, 5)
            ann = annotate_ranges(tree)
            net, cert = compile_tree(tree, CFG)
            rep = lipschitz_product(net)
            assert rep.product <= cert.p_bound * (1 + 1e-12)
            assert cert.p_bound <= cert.p_simplified * (1 + 1e-12)
            assert max(net.widths) <= ann.n + 8 * ann.internal
            assert all(nc.a5_ok for nc in cert.per_node)
            err = measured_sup_error(tree, net, 2000, seed=100 + i)
            assert err <= cert.error_bound + 1e-10

    def test_unit_multiplication_family_product_one(self):
        # every multiplication sees [0,1] inputs: bound and product collapse to 1
        for expr in ("x1*x2", "x1*x2*x3*x4", "sin(x1)*cos(x2)", "relu(x1)*abs(x2)*x3"):
            tree = parse_expression(expr)
            net, cert = compile_tree(tree, CFG_FAITHFUL)
            assert cert.p_bound == 1.0
            assert lipschitz_product(net).product == 1.0

    def test_compiled_trig_error_scales_quadratically(self):
        # piecewise-linear trig blocks decay at grid^-2
        tree = parse_expression("sin(x1)")
        ratios = []
        for G in (5, 12, 35):
            cfg = CompileConfig(grid=G)
            net, _ = compile_tree(tree, cfg)
            err = measured_sup_error(tree, net, 40_000, seed=13)
            ratios.append(err * (G - 1) ** 2)
        assert max(ratios) / min(ratios) < 2.0


def _monolithic_sup_error(tree, net, samples, seed, box=None):
    # one draw of every row, one tree evaluation, one forward over all rows
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, size=(samples, max(annotate_ranges(tree).n, net.n_inputs)))
    truth = eval_tree_batch(tree, xs)
    pts = xs[:, : net.n_inputs]
    if box is not None:
        lo, hi = np.array([p[0] for p in box]), np.array([p[1] for p in box])
        pts = lo + pts * (hi - lo)
    return float(np.max(np.abs(truth - forward_batch(net, pts)[:, 0])))


_OPS = {
    OpKind.ADD: np.add,
    OpKind.SUB: np.subtract,
    OpKind.MUL: np.multiply,
    OpKind.SIN: np.sin,
    OpKind.COS: np.cos,
    OpKind.RELU: lambda a: np.maximum(a, 0.0),
    OpKind.ABS: np.abs,
}


def _reference_node_max(tree, xs) -> dict:
    # max |value| of every internal node over all rows, keyed by pre-order id
    found = {}
    ids = itertools.count()

    def walk(t):
        nid = next(ids)
        if isinstance(t, Leaf):
            return xs[:, t.coord - 1]
        out = _OPS[t.op](*(walk(c) for c in t.children))
        found[nid] = float(np.max(np.abs(out)))
        return out

    walk(tree)
    return found


class TestStreamedSamples:
    EXPR = "sin((x1+x2)*x3)-relu(x4)*x4"

    # sample counts at the ends of a block and inside one
    @pytest.mark.parametrize("samples", [1, CHUNK // 2 - 1, CHUNK // 2, CHUNK // 2 + 1, 3 * CHUNK // 2 + 7,
                                         CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_sup_error_bit_equal_to_monolithic(self, samples, boxed):
        tree = parse_expression(self.EXPR)
        box = ((0.0, 2.0), (1.0, 4.0), (-1.0, 0.5), (0.25, 0.75)) if boxed else None
        net, _ = compile_tree(tree, replace(CFG, box=box))
        got = measured_sup_error(tree, net, samples, 17, box=box)
        assert got == _monolithic_sup_error(tree, net, samples, 17, box=box)
        assert got > 0.0

    @pytest.mark.parametrize("limit", [1, CHUNK // 2 - 1, CHUNK // 2, CHUNK // 2 + 5, CHUNK + 3, 3 * CHUNK // 2 + 7,
                                       CHUNK - 1, CHUNK, CHUNK + 5, 2 * CHUNK + 3, 3 * CHUNK + 7, None])
    def test_node_maxima_over_row_prefix(self, limit):
        # the range cap may fall inside a block, between blocks, or past the stream
        tree = parse_expression(self.EXPR)
        net, _ = compile_tree(tree, CFG)
        samples = 3 * CHUNK + 7
        node_max = NodeMaxima(limit)
        err = measured_sup_error(tree, net, samples, 5, node_max=node_max)
        assert err == measured_sup_error(tree, net, samples, 5)
        xs = np.random.default_rng(5).uniform(0.0, 1.0, size=(samples, 4))
        assert node_max.values == _reference_node_max(tree, xs[:limit])
        rows = min(samples, limit or samples)
        shared = verify_ranges_numerically(tree, rows, 5, node_max=node_max)
        assert shared == verify_ranges_numerically(tree, rows, 5)

    def test_memory_bounded_in_samples(self):
        tree = parse_expression(self.EXPR)
        net, _ = compile_tree(tree, CFG)
        measured_sup_error(tree, net, 10, 0)  # builds the forward plan outside the traces

        def peak(samples):
            tracemalloc.start()
            try:
                measured_sup_error(tree, net, samples, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40 * CHUNK) <= 1.5 * peak(4 * CHUNK)

    def test_rejects_empty_sample(self):
        tree = parse_expression("x1*x2")
        net, _ = compile_tree(tree, CFG)
        with pytest.raises(ValueError):
            measured_sup_error(tree, net, 0, 1)


def _keys(cls) -> set[str]:
    return {f.name for f in fields(cls) if f.init}


def test_certificate_json_round_trip():
    from kanforge.compiler import Certificate, NodeCert

    _, cert = compile_tree(parse_expression("sin((x1+x2)*x3)"), CFG)
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert again.to_json() == cert.to_json()
    _, box_cert = compile_tree(parse_expression("sin(x1*x2)+x1"), CompileConfig(box=((-2.0, 1.0), (0.5, 3.0))))
    assert box_cert.config.box is not None
    assert Certificate.from_json(box_cert.to_json()) == box_cert
    # over every bytes-guard input both files load back equal, and each key
    # at every level is a field of its dataclass under its own name (a net's
    # `format` aside, and its `layers`: the `edges` triples cut by `counts`),
    # so the names cannot drift apart
    for name, make in GROUPS.items():
        for net, cert in make():
            text = cert.to_json()
            assert Certificate.from_json(text) == cert, name
            doc = json.loads(text)
            assert doc.keys() == _keys(Certificate)
            assert doc["config"].keys() == _keys(CompileConfig)
            assert all(c.keys() == _keys(NodeCert) for c in doc["per_node"])
            net_text = serialize(net)
            assert serialize(deserialize(net_text)) == net_text, name
            doc = json.loads(net_text)
            assert doc.keys() == _keys(KanNetwork) - {"edges", "counts"} | {"format", "layers"}
            assert all(sp.keys() == _keys(Spline) for sp in doc["splines"])


def _assert_annotated_types(tp, value, where: str = "$"):
    """Every leaf of `value` has exactly the type its annotation names: a
    float field holds a float, never an int that equals it."""
    args = typing.get_args(tp)
    if is_dataclass(tp):
        assert type(value) is tp, where
        hints = typing.get_type_hints(tp)
        for f in fields(tp):
            if f.init:
                _assert_annotated_types(hints[f.name], getattr(value, f.name), f"{where}.{f.name}")
    elif type(None) in args:
        if value is not None:
            _assert_annotated_types(args[0], value, where)
    elif typing.get_origin(tp) is tuple:
        assert type(value) is tuple, where
        items = [args[0]] * len(value) if args[-1] is Ellipsis else args
        assert len(items) == len(value), where
        for i, (item, v) in enumerate(zip(items, value)):
            _assert_annotated_types(item, v, f"{where}[{i}]")
    else:
        assert type(value) is tp, f"{where} is a {type(value).__name__}, annotated {tp.__name__}"


@given(st.integers(0, 2**32 - 1), st.sampled_from(["default", "faithful", "box"]))
@settings(max_examples=40, deadline=None)
def test_reader_accepts_every_compiled_certificate(seed, mode):
    # the compiler's certificates read back equal, with every value of its
    # annotated type, in each mode that writes one
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 5)
    if mode == "box":
        lo = rng.uniform(-3.0, 3.0, annotate_ranges(tree).n)
        _, cert = compile_tree(tree, CompileConfig(box=list(zip(lo, lo + rng.uniform(0.1, 4.0, lo.size)))))
        assert cert.config.box is not None
    else:
        _, cert = compile_tree(tree, CFG_FAITHFUL if mode == "faithful" else CFG)
    again = read(Certificate, json.loads(cert.to_json()))
    assert again == cert
    _assert_annotated_types(Certificate, cert)
    _assert_annotated_types(Certificate, again)
