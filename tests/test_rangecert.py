import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanforge.compiler import CompileConfig, _box_points, compile_tree
from kanforge.exprtree import Leaf, NodeMaxima, OpKind, eval_tree_batch, parse_expression
from kanforge.kannet import lipschitz_product
from kanforge.kernels import CHUNK
from kanforge.rangecert import (
    Interval,
    annotate_ranges,
    lip_budget,
    partial_lip,
    range_rule,
    sample_blocks,
    verify_ranges_numerically,
)

from conftest import tree_strategy

U = Interval(0.0, 1.0)


class TestRangeRule:
    def test_mul_unit(self):
        assert range_rule(OpKind.MUL, [U, U]) == Interval(0, 1)

    def test_add_unit(self):
        assert range_rule(OpKind.ADD, [U, U]) == Interval(0, 2)

    def test_sub_gives_signed_interval(self):
        assert range_rule(OpKind.SUB, [U, U]) == Interval(-1, 1)

    def test_sin_monotone_piece(self):
        got = range_rule(OpKind.SIN, [U])
        assert got.lo == pytest.approx(0.0)
        assert got.hi == pytest.approx(math.sin(1.0))

    def test_sin_catches_interior_peak(self):
        got = range_rule(OpKind.SIN, [Interval(0, 4)])
        assert got.hi == 1.0
        assert got.lo == pytest.approx(math.sin(4.0))

    def test_wide_interval_clips_to_unit(self):
        assert range_rule(OpKind.COS, [Interval(0, 7)]) == Interval(-1, 1)

    def test_relu(self):
        assert range_rule(OpKind.RELU, [Interval(-1, 1)]) == Interval(0, 1)
        assert range_rule(OpKind.RELU, [Interval(-2, -1)]) == Interval(0, 0)

    def test_abs(self):
        assert range_rule(OpKind.ABS, [Interval(-2, 1)]) == Interval(0, 2)
        assert range_rule(OpKind.ABS, [Interval(0.5, 1)]) == Interval(0.5, 1)

    def test_mul_signed_endpoints(self):
        assert range_rule(OpKind.MUL, [Interval(-1, 2), Interval(-3, 1)]) == Interval(-6, 3)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            range_rule(OpKind.MUL, [U])

    def test_inclusion_isotone(self, rng):
        # wider child intervals give an enclosing range, for every op, so the
        # ranges of a tree only grow with its leaves' ranges
        for op in OpKind:
            for _ in range(500):
                narrow, wide = [], []
                for _ in range(op.arity):
                    lo, hi = np.sort(rng.uniform(-8.0, 8.0, 2))
                    below, above = rng.uniform(0.0, 4.0, 2) * (rng.random(2) < 0.8)
                    narrow.append(Interval(lo, hi))
                    wide.append(Interval(lo - below, hi + above))
                inner, outer = range_rule(op, narrow), range_rule(op, wide)
                assert outer.lo <= inner.lo and inner.hi <= outer.hi, (op, narrow, wide)


class TestPartialLip:
    def test_mul_unit(self):
        assert partial_lip(OpKind.MUL, [U, U]) == [1.0, 1.0]

    def test_mul_scaled(self):
        assert partial_lip(OpKind.MUL, [Interval(0, 2), Interval(0, 2)]) == [2.0, 2.0]

    def test_mul_asymmetric_swaps_bounds(self):
        assert partial_lip(OpKind.MUL, [Interval(0, 3), Interval(-2, 1)]) == [2.0, 3.0]

    def test_sin_globally_one(self):
        assert partial_lip(OpKind.SIN, [Interval(0, 4)]) == [1.0]

    def test_add(self):
        assert partial_lip(OpKind.ADD, [U, U]) == [1.0, 1.0]


class TestAnnotate:
    def test_all_additive_n3(self):
        t = parse_expression("(x1+x2)+(x3+x4)")
        ann = annotate_ranges(t)
        assert ann.root_range == Interval(0, 4)  # B = N + 1 = 4

    def test_mixed_counterexample_exceeds_additive_bound(self):
        t = parse_expression("((x1+x2)*(x3+x4))*(x5+x6)")
        ann = annotate_ranges(t)
        assert ann.root_range.bound == 8.0
        assert 8.0 > annotate_ranges(t).internal + 1  # naive N+1 = 6 fails here

    def test_multiplicative_chain_stays_unit(self):
        t = parse_expression("*".join(f"x{i}" for i in range(1, 11)))
        ann = annotate_ranges(t)
        assert all(a.range.bound == 1.0 for a in ann.annotations.values())

    def test_input_domain_matches_child_ranges(self):
        t = parse_expression("(x1+x2)*x3")
        ann = annotate_ranges(t)
        root = ann.annotations[0]
        assert root.input_domain == (Interval(0, 2), Interval(0, 1))
        assert root.partial_lips == (1.0, 2.0)

    @pytest.mark.parametrize("text", ["x3", "sin(x1*x2)-x4"])
    def test_cached_on_the_tree(self, text):
        t, u = parse_expression(text), parse_expression(text)
        ann = annotate_ranges(t)
        assert annotate_ranges(t) is ann and ann.n == annotate_ranges(t).n
        # the cache is no part of the tree's value
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
        assert annotate_ranges(u) is not ann and annotate_ranges(u) == ann

    def test_bare_leaf_ranges_over_unit(self):
        ann = annotate_ranges(Leaf(3))
        assert (ann.annotations, ann.n, ann.root_range) == ({}, 3, U)

    def test_annotations_keyed_in_preorder(self):
        ann = annotate_ranges(parse_expression("sin(x1*x2)")).annotations
        assert [(nid, a.node_id) for nid, a in sorted(ann.items())] == [(0, 0), (1, 1)]
        assert ann[0].op is OpKind.SIN
        assert ann[1].c_op == 3


class TestLipBudget:
    def test_xy(self):
        b = lip_budget(annotate_ranges(parse_expression("x1*x2")))
        assert (b.product_bound, b.l_f, b.c_star) == (1.0, 3, 1.0)

    def test_leaf_empty_product(self):
        b = lip_budget(annotate_ranges(Leaf(1)))
        assert (b.product_bound, b.l_f) == (1.0, 0)
        assert b.simplified_bound == 1.0

    def test_add_into_mul(self):
        b = lip_budget(annotate_ranges(parse_expression("(x1+x2)*x3")))
        assert b.product_bound == 8.0  # max(2,1)^3 for the scaled multiplication
        assert b.c_star == 2.0
        assert b.simplified_bound == 2.0**4

    @given(tree_strategy())
    @settings(max_examples=150)
    def test_budget_consistency(self, tree):
        ann = annotate_ranges(tree)
        b = lip_budget(ann)
        assert b.product_bound <= b.simplified_bound * (1 + 1e-12)
        assert b.l_f <= 3 * annotate_ranges(tree).internal


class TestVerifyRanges:
    def test_additive_attains_bound_at_ones(self):
        t = parse_expression("(x1+x2)+(x3+x4)")
        rep = verify_ranges_numerically(t, 500, seed=0)
        assert rep.ok
        root = rep.entries[0]
        assert root.measured == 4.0  # the all-ones corner is always sampled

    def test_product_stays_unit(self):
        rep = verify_ranges_numerically(parse_expression("x1*x2"), 10_000, seed=1)
        assert rep.ok
        assert rep.entries[0].measured <= 1.0

    def test_mixed_tree_measures_eight(self):
        t = parse_expression("((x1+x2)*(x3+x4))*(x5+x6)")
        rep = verify_ranges_numerically(t, 2000, seed=2)
        assert rep.ok
        assert rep.entries[0].measured == 8.0
        assert rep.entries[0].certified == 8.0

    @pytest.mark.parametrize("samples", [1, CHUNK // 2, CHUNK, CHUNK + 9, 2 * CHUNK + 9])
    def test_streamed_equals_one_draw_reference(self, samples):
        # reference: one draw of every row plus the corner, max |value| per node
        t = parse_expression("sin((x1+x2)*x3)-abs(x4-x1)*cos(x2)")
        xs = np.random.default_rng(11).uniform(0.0, 1.0, size=(samples, 4))
        xs = np.vstack([xs, np.ones((1, 4))])
        rep = verify_ranges_numerically(t, samples, seed=11)
        corner = NodeMaxima()
        eval_tree_batch(t, xs, corner)
        assert [e.node_id for e in rep.entries] == sorted(corner.values)
        assert [e.measured for e in rep.entries] == [corner.values[e.node_id] for e in rep.entries]

    @pytest.mark.parametrize("n", [1, 16, 40, 1024])
    def test_blocks_hold_bounded_floats(self, n):
        # CHUNK rows up to 16 inputs, CHUNK * 16 // n above, and one stream
        samples = 2 * CHUNK * 16 // max(n, 16) + 5
        blocks = list(sample_blocks(7, samples, n))
        assert max(len(b) for b in blocks) == CHUNK * 16 // max(n, 16)
        assert np.array_equal(np.vstack(blocks), np.random.default_rng(7).uniform(0.0, 1.0, size=(samples, n)))

    @given(tree_strategy(max_leaves=8))
    @settings(max_examples=30, deadline=None)
    def test_soundness_on_random_trees(self, tree):
        assert verify_ranges_numerically(tree, 2000, seed=3).ok


class TestAffine:
    """The input box of `CompileConfig`: its point map into the box, and the
    pre-layer's Lipschitz constant 1 / the narrowest side."""

    def test_unit_box_identity(self):
        box = CompileConfig(box=[(0, 1), (0, 1)]).box
        net, _ = compile_tree(parse_expression("x1*x2"), CompileConfig(box=box))
        assert lipschitz_product(net).per_layer[0] == 1.0
        np.testing.assert_array_equal(_box_points(box, np.array([0.3, 0.9])), [0.3, 0.9])

    def test_rectangular_box(self):
        box = CompileConfig(box=[(0, 2), (1, 4)]).box
        net, _ = compile_tree(parse_expression("x1*x2"), CompileConfig(box=box))
        assert lipschitz_product(net).per_layer[0] == 0.5
        np.testing.assert_allclose(_box_points(box, np.array([0.5, 0.5])), [1.0, 2.5])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            CompileConfig(box=((1.0, 1.0),))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 8)), min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_axis_finite_differences_match_lip(self, spans):
        box = CompileConfig(box=[(a, a + w) for a, w in spans]).box
        t = np.full(len(spans), 0.25)
        delta = 0.5  # the map is affine, so any secant width measures the slope
        slopes = []
        for p in range(len(spans)):
            tp = t.copy()
            tp[p] += delta
            slopes.append(abs(_box_points(box, tp)[p] - _box_points(box, t)[p]) / delta)
        # the map's Lipschitz constant is the widest interval length
        assert max(slopes) == pytest.approx(max(hi - lo for lo, hi in box), rel=1e-9)


def test_range_report_fields():
    rep = verify_ranges_numerically(parse_expression("(x1+x2)*x3"), 200, seed=4)
    assert rep.ok is True
    assert [(e.node_id, e.op) for e in rep.entries] == [(0, "*"), (1, "+")]
    assert all(e.ok and e.measured <= e.certified for e in rep.entries)
