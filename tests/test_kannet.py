import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanforge import kannet, kernels, spline
from kanforge.cli import random_tree
from kanforge.compiler import CompileConfig, compile_tree, jacobian_row
from kanforge.exprtree import MAX_COORD, parse_expression
from kanforge.kannet import (
    KanNetwork,
    SchemaError,
    deserialize,
    forward,
    forward_batch,
    jacobian_fd,
    jacobian_lower_bound,
    lipschitz_product,
    serialize,
)
from kanforge.rangecert import annotate_ranges
from kanforge.spline import Spline, line_spline, pl_interpolant, quarter_square, spline_lipschitz

from conftest import edges_by_layer, network

CFG = CompileConfig(grid=35)
CFG_FAITHFUL = CompileConfig(grid=35, faithful_widths=True)


def _single_edge_net(spl, n=1):
    return network((n, 1), (spl,), [[(0, 0, 0)]], (tuple(f"x{p}" for p in range(1, n + 1)), ("node0",)))


class TestForward:
    def test_compiled_product(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        assert forward(net, [0.5, 0.5])[0] == pytest.approx(0.25, abs=1e-12)

    def test_compiled_sum_exact(self):
        net, _ = compile_tree(parse_expression("x1+x2"), CFG)
        assert forward(net, [1.0, 1.0])[0] == 2.0

    def test_compiled_sin_product(self):
        net, _ = compile_tree(parse_expression("sin(x1*x2)"), CFG)
        assert forward(net, [1.0, 1.0])[0] == pytest.approx(math.sin(1.0), abs=1.1e-4)

    def test_dimension_mismatch(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((4, 3)))

    def test_batch_matches_scalar(self, rng):
        net, _ = compile_tree(parse_expression("sin((x1+x2)*x3)"), CFG)
        X = rng.uniform(0, 1, size=(64, 3))
        batch = forward_batch(net, X)[:, 0]
        single = [forward(net, x)[0] for x in X]
        np.testing.assert_array_equal(batch, single)


def _deboor_forward(net, X):
    """Reference forward: every edge through its own de Boor evaluation."""
    cur = np.asarray(X, dtype=np.float64)
    for l, edges in enumerate(edges_by_layer(net)):
        nxt = np.zeros((cur.shape[0], net.widths[l + 1]))
        for src, dst, spl in edges:
            nxt[:, dst] += spl.eval_batch(cur[:, src])
        cur = nxt
    return cur


def _edges(group):
    """Edge count of a step's `pp` or `one_knot` group."""
    return 0 if group is None else len(group.dst)


def _oob_of(fn, *args):
    before = spline.oob_hits()
    out = fn(*args)
    return out, spline.oob_hits() - before


class TestPlanForward:
    """The plan forward against the per-edge de Boor reference and scipy."""

    def _check(self, net, rng, rows=400):
        X = rng.uniform(-0.05, 1.05, size=(rows, net.n_inputs))
        got, got_oob = _oob_of(forward_batch, net, X)
        ref, ref_oob = _oob_of(_deboor_forward, net, X)
        assert got.shape == ref.shape == (rows, net.widths[-1])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        # one count per edge evaluated outside its domain, identity wires included
        assert got_oob == ref_oob

    def test_random_trees_both_modes(self, rng):
        for _ in range(40):
            tree = random_tree(rng, 5)
            for cfg in (CFG, CFG_FAITHFUL):
                net, _ = compile_tree(tree, cfg)
                self._check(net, rng)

    def test_fanout(self, rng):
        # two neurons aliasing one value: the fan-out copies of a squared
        # operand, and an operand read twice through an exact wire
        for expr in ("x1*x1", "sin(x1*x1)+x1", "relu(x2-x1)*relu(x2-x1)", "x4*x4+x4-x4", "x1*relu(x1)",
                     "cos(x4*x4+x4-x4)*(cos(x4)*(x6-cos(x1)))"):
            for cfg in (CFG, CFG_FAITHFUL):
                net, _ = compile_tree(parse_expression(expr), cfg)
                self._check(net, rng)

    @pytest.mark.parametrize("rows", [0, 1, kernels.CHUNK // 2 + 1, kernels.CHUNK + 1])
    def test_row_counts(self, rng, rows):
        net, _ = compile_tree(parse_expression("cos(x4*x4+x4-x4)*(cos(x4)*(x6-cos(x1)))"), CFG_FAITHFUL)
        self._check(net, rng, rows)

    def test_workspace_shared_across_calls(self, rng):
        # a smaller net after a larger one runs in the larger one's buffer,
        # and calls that fit it allocate no new one
        big, _ = compile_tree(parse_expression("cos(x4*x4+x4-x4)*(cos(x4)*(x6-cos(x1)))"), CFG_FAITHFUL)
        small, _ = compile_tree(parse_expression("x1*x2"), CFG)
        self._check(big, rng, kernels.CHUNK + 1)
        buf = kernels._buffer(np.float64, 0).base
        self._check(small, rng, kernels.CHUNK + 1)
        self._check(big, rng, 3)
        self._check(big, rng, kernels.CHUNK + 1)
        assert kernels._buffer(np.float64, 0).base is buf

    def test_tall_plan_runs_in_bounded_chunks(self, rng):
        # a 4096-neuron boundary takes 13653 workspace rows (table, gather and
        # curved scratch): CHUNK points would take 1.8 GB, chunks of
        # WORKSPACE_FLOATS // rows points take 4 MiB
        hidden = 4096
        table = (line_spline(0.0, 1.0, 0.5, 2.0), quarter_square(0.0, 1.0), pl_interpolant(math.sin, 0.0, 1.0, 9),
                 line_spline(-1.0, 2.0, 0.0, 0.25))
        net = network((1, hidden, 1), table, [[(0, j, j % 3) for j in range(hidden)],
                                              [(j, 0, 3) for j in range(hidden)]])
        plan = net.packed()
        rows = plan.n_rows + plan.max_gather + 4 * plan.max_pp
        assert rows * kernels.CHUNK > kernels.WORKSPACE_FLOATS
        X = rng.uniform(-0.05, 1.05, size=(3000, 1))
        tracemalloc.start()
        try:
            got, got_oob = _oob_of(forward_batch, net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * kernels.WORKSPACE_FLOATS
        ref, ref_oob = _oob_of(_deboor_forward, net, X)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        assert got_oob == ref_oob > 0

    def test_plan_taller_than_32_rows_runs_in_4_mib(self, rng):
        # the compiler's concurrent blocks make tall steps (up to 148 rows on
        # the wide-compile pool); such a plan runs shorter chunks in the same
        # 4 MiB workspace. A fresh thread starts with no workspace of its own
        hidden = 48
        table = (line_spline(0.0, 1.0, 0.5, 2.0), quarter_square(0.0, 1.0), pl_interpolant(math.sin, 0.0, 1.0, 9),
                 line_spline(-1.0, 2.0, 0.0, 0.25))
        net = network((1, hidden, 1), table, [[(0, j, j % 3) for j in range(hidden)],
                                              [(j, 0, 3) for j in range(hidden)]])
        plan = net.packed()
        rows = plan.n_rows + plan.max_gather + 4 * plan.max_pp
        assert rows > 32 and kernels.WORKSPACE_FLOATS == 32 * kernels.CHUNK
        X = rng.uniform(-0.05, 1.05, size=(kernels.CHUNK, 1))
        result = {}

        def run():
            result["got"] = _oob_of(forward_batch, net, X)
            result["floats"] = kernels._buffer(np.float64, 0).base.size

        tracemalloc.start()
        try:
            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["floats"] <= kernels.WORKSPACE_FLOATS
        assert peak <= 1.5 * 8 * kernels.WORKSPACE_FLOATS
        got, got_oob = result["got"]
        ref, ref_oob = _oob_of(_deboor_forward, net, X)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert got_oob == ref_oob > 0

    def test_compile_on_box(self, rng):
        for _ in range(10):
            tree = random_tree(rng, 4)
            n = annotate_ranges(tree).n
            box = [(-1.0 + 0.5 * p, 1.0 + p) for p in range(n)]
            net, _ = compile_tree(tree, CompileConfig(box=box))
            self._check(net, rng)

    def test_every_order_against_scipy(self, rng):
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        hinge = np.array([-0.3, 0.0, 0.9])
        splines = [
            Spline(0, np.array([-1.0, -0.2, 0.5, 2.0]), rng.normal(size=3)),
            Spline(1, hinge, np.array([0.0, 0.0, 0.9])),
            Spline(2, np.linspace(0.0, 1.0, 5), rng.normal(size=6)),
            Spline(3, np.array([-0.5, 0.1, 0.2, 0.7, 1.5]), rng.normal(size=7)),
            line_spline(0.25, 0.75, 1.0, -2.0),
            Spline(3, np.linspace(-0.2, 1.2, 9), rng.normal(size=11)),
            # a fine non-uniform grid: ten inner knots, each counted in place
            Spline(2, np.sort(rng.uniform(-0.8, 2.2, size=12)), rng.normal(size=13)),
        ]
        triples = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 2, 3), (1, 3, 4), (1, 0, 5), (0, 3, 6)]
        net = network((2, 4), splines, [triples], (("x1", "x2"), tuple(f"node{j}" for j in range(4))))
        X = rng.uniform(-1.5, 2.5, size=(3000, 2))
        # every knot of every edge, hit exactly
        knots = np.concatenate([s.knots for s in splines])
        X = np.vstack([X, np.column_stack([knots, knots])])
        got, got_oob = _oob_of(forward_batch, net, X)
        ref, ref_oob = _oob_of(_deboor_forward, net, X)
        assert got_oob == ref_oob > 0
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for (src, _, _), s in zip(triples, splines):
            a, b = s.domain
            t = X[:, src]
            inside = (t >= a) & (t <= b)
            mine = forward_batch(_single_edge_net(s), t[inside, None])[:, 0]
            want = BSpline(s._T, s.coefs, s.order)(t[inside])
            # the order-0 edge jumps at its knots; both sides take the right-hand piece
            np.testing.assert_allclose(mine, want, rtol=0, atol=1e-12)

    @staticmethod
    def _hand_built_table(rng):
        """The spline table and each layer's triples of a hand-built network."""
        wire, neg, quad, cubic, trig = range(5)
        table = [
            line_spline(-1.0, 2.0, -1.0, 2.0),
            line_spline(-1.0, 2.0, 1.0, -2.0),
            Spline(2, np.linspace(-1.0, 2.0, 4), rng.normal(size=5)),
            Spline(3, np.array([-0.5, 0.1, 0.2, 0.7, 1.5]), rng.normal(size=7)),
            spline.pl_interpolant(math.sin, 0.25, 1.5, 9),
            line_spline(0.0, 1.0, 0.5, 3.0),
            line_spline(-0.5, 0.5, 1.0, 0.0),
            line_spline(-3.0, 3.0, 0.0, 1.5),
        ]
        return table, [
            # mixed; three affine edges into target 0; source 0 feeds the
            # domains [-1, 2] (twice) and [-0.5, 0.5]
            [(0, 0, wire), (1, 0, neg), (2, 0, 5), (0, 1, quad), (0, 2, 6), (1, 3, cubic), (2, 3, wire)],
            # affine only, sharing `wire` across edges and with layer 0
            [(0, 0, wire), (1, 0, wire), (2, 1, neg), (3, 2, 7), (3, 0, neg)],
            # curved only, sharing `quad` and `cubic` with layer 0
            [(0, 0, quad), (1, 0, trig), (2, 1, cubic), (0, 1, trig)],
            # mixed
            [(0, 0, wire), (1, 0, quad)],
        ]

    def test_hand_built_network(self, rng):
        table, layers = self._hand_built_table(rng)
        nets = [
            network((3, 4, 3, 2, 1), table, layers),
            # an edgeless layer: everything after it sees zeros, where `trig`
            # is below its domain
            network((3, 4, 3, 3, 2, 1), table, layers[:2] + [[]] + layers[2:]),
        ]
        X = np.vstack([rng.uniform(-1.5, 2.5, size=(3000, 3)), rng.uniform(0.0, 0.5, size=(500, 3))])
        for net in nets:
            got, got_oob = _oob_of(forward_batch, net, X)
            ref, ref_oob = _oob_of(_deboor_forward, net, X)
            assert got_oob == ref_oob > 0
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            rep = lipschitz_product(net)
            per_edge = [max((spline_lipschitz(spl) for _, _, spl in edges), default=0.0)
                        for edges in edges_by_layer(net)]
            assert rep.per_layer == tuple(per_edge)
            assert rep.product == math.prod(per_edge)

        plan = nets[1].packed()
        mixed, affine_only, empty, curved_only, _ = plan.steps
        assert mixed.weight is not None and mixed.pp.dst == (1, 3)
        assert affine_only.weight is not None and affine_only.pp is None
        # a step whose intercepts are all 0.0 adds no bias
        assert empty.weight is None and empty.pp is None and empty.bias is None
        assert curved_only.weight is None and curved_only.pp.dst == (0, 0, 1, 1)
        assert all(st.one_knot is None for st in plan.steps)
        # the affine edges into target 0 add their intercepts in edge order
        intercepts = [table[k]._boundary[0] - table[k]._boundary[1] * table[k].domain[0] for _, _, k in layers[0][:3]]
        assert mixed.bias[0, 0] == (intercepts[0] + intercepts[1]) + intercepts[2]
        assert mixed.weight[0].tolist() == [1.0, -1.0, 2.5]
        # each value is checked against the tightest domain of its readers:
        # input 0 feeds [-1, 2] (twice) and [-0.5, 0.5]; the edgeless
        # layer's zeros feed the curved-only layer
        assert (plan.in_lo[0], plan.in_hi[0]) == (-0.5, 0.5)
        assert empty.lo.tolist() == [0.25, 0.25, -0.5] and empty.hi.tolist() == [1.5, 1.5, 1.5]
        # no neuron here has an identity as its only edge: every one is a new value
        assert sum(st.rows.stop - st.rows.start for st in plan.steps) == sum(nets[1].widths[1:])

    def test_mixed_order_pp_step_continues_to_infinity(self):
        # every pp edge of one step continues linearly as the reference does,
        # edge by edge, at +-inf too: an order-1 edge beside an order-2 one
        # must not turn into 0*inf = NaN
        rng = np.random.default_rng(5)
        table = [Spline(k, np.linspace(-1.0, 2.0, 5), rng.normal(size=4 + k)) for k in (0, 1, 2, 3)]
        table.append(Spline(2, np.array([-1.0, -0.2, 0.1, 2.0]), rng.normal(size=5)))
        net = network((1, len(table)), table, [[(0, j, j) for j in range(len(table))]])
        (step,) = net.packed().steps
        assert _edges(step.pp) == len(table) and step.one_knot is None
        t = np.array([-np.inf, -5.0, -1.0 - 1e-9, 0.3, 2.0, 7.0, np.inf])
        got, got_oob = _oob_of(forward_batch, net, t[:, None])
        outside = (t < -1.0) | (t > 2.0)
        for j, s in enumerate(table):
            want, want_oob = kernels.eval_spline_batch(s, t)
            assert want_oob == 5
            np.testing.assert_array_equal(got[outside, j], want[outside])
            np.testing.assert_allclose(got[~outside, j], want[~outside], rtol=0, atol=1e-12)
        assert got_oob == 5 * len(table)
        assert np.isinf(got[[0, -1], 1]).all()

    def test_flat_end_continues_to_infinity_as_the_tree(self):
        # a relu hinge's flat end is its end value at t = -inf, where the
        # slope term would be 0*inf = NaN; abs continues to inf
        X = np.array([[-np.inf, 0.0], [0.0, np.inf]])
        for cfg in (CFG, CFG_FAITHFUL):
            for expr, want in (("relu(x1-x2)", [0.0, 0.0]), ("abs(x1-x2)", [np.inf, np.inf])):
                net, _ = compile_tree(parse_expression(expr), cfg)
                assert forward_batch(net, X)[:, 0].tolist() == want

    def test_forwarded_outputs_alias_inputs(self):
        # a faithful net forwards every input to the end by identity wires
        net, _ = compile_tree(parse_expression("sin(x1*x2)+x3"), CFG_FAITHFUL)
        plan = net.packed()
        assert net.widths[-1] == 4
        assert plan.out_rows[1:] == (0, 1, 2)
        assert plan.out_rows[0] not in (0, 1, 2)

    @staticmethod
    def _chain(width):
        """The wide-compile chains: +, *, - cycling, every fourth term wrapped."""
        terms = [f"{('sin', 'relu', 'cos', 'abs')[j // 4 % 4]}(x{j + 1})" if j % 4 == 3 else f"x{j + 1}"
                 for j in range(width)]
        return terms[0] + "".join("+*-"[(j - 1) % 3] + terms[j] for j in range(1, width))

    def test_table_rows_follow_width(self):
        # rows are reused once their value's last reader has run, so the table
        # grows with the network's width, not its depth
        rng = np.random.default_rng(11)
        trees = [random_tree(rng, 6) for _ in range(400)]
        nets = [compile_tree(tree, cfg)[0] for tree in trees for cfg in (CFG, CFG_FAITHFUL)]
        nets += [compile_tree(parse_expression(self._chain(w)), CFG)[0] for w in range(16, 41)]
        for net in nets:
            assert net.packed().n_rows <= 3 * max(net.widths)

    def test_one_pp_table_over_distinct_curved_splines(self):
        # the plan's pp table holds G-1 rows, its segments, per distinct curved
        # spline, not per curved edge (of either class), and every pp step
        # reads a view of it
        net, _ = compile_tree(parse_expression(self._chain(28)), CFG)
        curved = [s for s in net.splines if not (s.order == 1 and s.knots.size == 2)]
        steps = net.packed().steps
        assert sum(_edges(st.pp) + _edges(st.one_knot) for st in steps) > len(curved) > 1
        pp = [st.pp for st in steps if st.pp is not None]
        base = pp[0].coef.base
        assert base.shape == (1 + max(s.order for s in curved), sum(s.knots.size - 1 for s in curved))
        for e in pp:
            assert e.coef.base is base and e.left is pp[0].left
            assert e.coef.shape[1] == base.shape[1]

    def test_chunked_rows_match_row_slices(self, rng):
        n = 3 * kernels.CHUNK + 7
        cuts = [0, 5, kernels.CHUNK + 1, 2 * kernels.CHUNK, 3 * kernels.CHUNK + 3, n]
        net, _ = compile_tree(parse_expression("sin((x1+x2)*x3)*relu(x1-x2)"), CFG)
        cases = [(net, rng.uniform(-0.05, 1.05, size=(n, net.n_inputs)))]
        # mostly inside [0, 1]: rows 5 .. CHUNK-1 lie in a chunk with a domain
        # hit in the whole batch and in a clean one in the slice [5, CHUNK+1)
        for expr in ("relu(x1-x2)", "x1*x2"):
            net, _ = compile_tree(parse_expression(expr), CFG)
            X = rng.uniform(0.0, 1.0, size=(n, 2))
            X[[2, 2 * kernels.CHUNK + 100]] = [1.0 + 1e-3, -1e-3]
            assert _oob_of(forward_batch, net, X[:5])[1] > 0 == _oob_of(forward_batch, net, X[5 : kernels.CHUNK + 1])[1]
            cases.append((net, X))
        for net, X in cases:
            parts = [forward_batch(net, X[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(forward_batch(net, X), np.vstack(parts))

    @pytest.mark.parametrize("expr, n", [("x1*x2", 2), ("relu(x1-x2)", 1), ("sin(x1)", 0)])
    def test_one_knot_routing(self, expr, n):
        # the quarter-square and hinge edges take the one-knot kernel, trig
        # interpolants the pp path
        net, _ = compile_tree(parse_expression(expr), CFG)
        steps = net.packed().steps
        curved = sum(not (s.order == 1 and s.knots.size == 2) for s in net.splines)
        assert sum(_edges(st.one_knot) for st in steps) == n
        assert sum(_edges(st.pp) for st in steps) == curved - n


@st.composite
def _one_knot_splines(draw):
    """Splines with at most one inner knot on O(1) domains: random ones of
    orders 1-4 (a jump at the inner knot), quarter-squares and hinges."""
    kind = draw(st.sampled_from(["random", "quarter", "relu", "abs"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 0.5)
    b = a + rng.uniform(0.25, 2.0)
    if kind == "quarter":
        return kind, spline.quarter_square(a, b)
    if kind != "random":
        f = (lambda t: max(t, 0.0)) if kind == "relu" else abs
        knots = [min(a, -0.25), 0.0, max(b, 0.25)]
        return kind, Spline(1, np.array(knots), np.array([f(t) for t in knots]))
    k = draw(st.integers(1, 4))
    n_knots = draw(st.sampled_from([2, 3])) if k >= 2 else 3
    knots = [a, a + (b - a) * rng.uniform(0.02, 0.98), b] if n_knots == 3 else [a, b]
    return kind, Spline(k, np.array(knots), rng.normal(size=n_knots + k - 1))


class TestOneKnotEdges:
    """The one-knot kernel on one-edge nets, against de Boor and scipy."""

    @given(_one_knot_splines(), st.integers(0, 2**32 - 1))
    # an inner knot near either end: the truncated power must span the
    # shorter piece, or the longer one's polynomial loses about 1e-8 here
    @example(("random", Spline(4, np.array([-1.0, -0.96, 1.0]), np.array([0.3, -1.2, 0.8, 1.5, -0.4, 0.9]))), 0)
    @example(("random", Spline(4, np.array([-1.0, 0.96, 1.0]), np.array([0.3, -1.2, 0.8, 1.5, -0.4, 0.9]))), 0)
    @settings(max_examples=300, deadline=None)
    def test_against_deboor_and_scipy(self, kind_spline, seed):
        kind, s = kind_spline
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        rng = np.random.default_rng(seed)
        a, b = s.domain
        inside = np.concatenate([rng.uniform(a, b, 200), s.knots])
        outside = np.concatenate([a - rng.uniform(1e-9, 1.0, 20), b + rng.uniform(1e-9, 1.0, 20)])
        t = np.concatenate([inside, outside, [np.nan]])
        net = _single_edge_net(s)
        (step,) = net.packed().steps
        assert _edges(step.one_knot) == 1 and step.pp is None
        if kind != "quarter" and s.knots.size == 3:
            assert len(step.one_knot.jump) == 1  # random coefficients and hinges jump at the knot

        got, got_oob = _oob_of(forward_batch, net, t[:, None])
        want, want_oob = kernels.eval_spline_batch(s, t)
        assert got_oob == want_oob == outside.size
        np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12)
        # the linear continuation takes the reference's arithmetic, bit for bit
        np.testing.assert_array_equal(got[inside.size : -1, 0], want[inside.size : -1])
        assert np.isnan(got[-1, 0])
        np.testing.assert_allclose(got[: inside.size, 0], BSpline(s._T, s.coefs, s.order)(inside), rtol=0, atol=1e-12)
        # a point's value does not depend on the chunk's other points
        np.testing.assert_array_equal(forward_batch(net, inside[:, None]), got[: inside.size])


class TestLipschitzProduct:
    def test_compiled_product_exactly_one(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        assert lipschitz_product(net).product == 1.0

    def test_long_chain_exactly_one(self):
        net, _ = compile_tree(parse_expression("*".join(f"x{i}" for i in range(1, 11))), CFG)
        assert lipschitz_product(net).product == 1.0

    def test_single_doubling_edge(self):
        net = _single_edge_net(line_spline(0, 1, 0, 2))
        assert lipschitz_product(net).product == 2.0

    def test_report_fields(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        rep = lipschitz_product(net)
        assert (max(net.widths), net.n_layers) == (2, 2)
        assert len(rep.per_layer) == 2
        assert rep.product == math.prod(rep.per_layer)

    def test_identity_wire_floor_in_faithful_nets(self):
        for expr in ("x1*x2", "sin(x1*x2)", "sin(x1)", "relu(x1-x2)*cos(x3)"):
            net, _ = compile_tree(parse_expression(expr), CFG_FAITHFUL)
            for edges in edges_by_layer(net):
                assert any(spline_lipschitz(spl) == 1.0 for _, _, spl in edges)
            assert lipschitz_product(net).product == 1.0


class TestJacobian:
    def test_product_gradient(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        grad = jacobian_fd(net, [0.5, 0.5])
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-6)
        assert np.linalg.norm(grad) == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_faithful_net_differentiates_output_zero(self):
        # the faithful output layer carries x1, x2 after the product
        net, _ = compile_tree(parse_expression("x1*x2"), CFG_FAITHFUL)
        assert net.widths[-1] == 3
        np.testing.assert_allclose(jacobian_fd(net, [0.3, 0.6]), [0.6, 0.3], atol=1e-6)

    def test_sum_gradient_everywhere(self, rng):
        net, _ = compile_tree(parse_expression("x1+x2"), CFG)
        for _ in range(5):
            grad = jacobian_fd(net, rng.uniform(0.05, 0.95, 2))
            np.testing.assert_allclose(grad, [1.0, 1.0], atol=1e-9)

    def test_product_gradient_near_corner_reaches_sqrt2(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        grad = jacobian_fd(net, [1 - 1e-4, 1 - 1e-4])
        assert np.linalg.norm(grad) == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_lower_bound_below_product(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        # W = 2 from the compiled widths (2,2,1), L = 2
        bound = jacobian_lower_bound(net, [1 - 1e-4, 1 - 1e-4])
        assert bound == pytest.approx(math.sqrt(2.0) / 2**2, abs=1e-3)
        assert bound <= lipschitz_product(net).product

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("probes", [[[0.1, 0.1], [0.9, 0.9]], [[0.9, 0.9], [0.1, 0.1]]],
                             ids=["nan-last", "nan-first"])
    def test_nan_gradient_fails_the_row_in_any_probe_order(self, probes):
        # two edges of slope 1.7e308 into one neuron: the sum overflows near
        # x = (0.9, 0.9), where the differences are inf - inf
        steep = line_spline(0.0, 1.0, 0.0, 1.7e308)
        net = network((2, 1), (steep,), [[(0, 0, 0), (1, 0, 0)]], (("x1", "x2"), ("node0",)))
        bound = jacobian_lower_bound(net, np.array(probes))
        assert math.isnan(bound)
        assert not jacobian_row(bound, lipschitz_product(net).product).ok

    def test_identity_net_equality(self):
        net = _single_edge_net(line_spline(0, 1, 0, 1))
        assert jacobian_lower_bound(net, [0.5]) == pytest.approx(1.0, abs=1e-9)
        assert lipschitz_product(net).product == 1.0

    def test_sum_lower_bound(self):
        net, _ = compile_tree(parse_expression("x1+x2"), CFG)
        bound = jacobian_lower_bound(net, [0.5, 0.5])
        assert bound == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)
        assert bound <= 1.0

    def test_batched_points_bit_equal_per_row(self):
        rng = np.random.default_rng(7)
        nets = [compile_tree(random_tree(rng, 5), CFG)[0] for _ in range(30)]
        nets.append(compile_tree(parse_expression("sin(x1*x2)-x3"), CompileConfig(box=((0, 2), (1, 4), (-1, 0.5))))[0])
        for net in nets:
            X = rng.uniform(0.001, 0.999, size=(20, net.n_inputs))
            got = jacobian_fd(net, X)
            assert got.shape == X.shape
            assert np.array_equal(got, np.array([jacobian_fd(net, x) for x in X]))
            assert jacobian_lower_bound(net, X) == max(jacobian_lower_bound(net, x) for x in X)

    def test_points_stepped_in_blocks_of_chunk_rows(self, monkeypatch):
        # a point takes 2*n_0 stepped rows of n_0 floats: 200 points of a
        # 100-input net take 16 forwards of at most CHUNK * 16 floats (13
        # points each), bit equal to one per point
        net, _ = compile_tree(parse_expression("sin(x1*x100)-x50"), CFG)
        X = np.random.default_rng(3).uniform(0.001, 0.999, size=(200, 100))
        want = np.array([jacobian_fd(net, x) for x in X])
        rows = []
        real = kannet.forward_batch
        monkeypatch.setattr(kannet, "forward_batch", lambda net, X: rows.append(len(X)) or real(net, X))
        assert np.array_equal(jacobian_fd(net, X), want)
        assert max(rows) * 100 <= kernels.CHUNK * 16 and sum(rows) == 200 * 200 and len(rows) == 16

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]], [[[0.5, 0.5]]]])
    def test_point_shape_validated(self, x):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        with pytest.raises(ValueError):
            jacobian_fd(net, x)

    def test_chain_rule_sandwich(self, rng):
        for expr in ("x1*x2", "sin((x1+x2)*x3)", "(x1+x2)*(x3+x4)"):
            net, _ = compile_tree(parse_expression(expr), CFG)
            rep = lipschitz_product(net)
            upper = max(net.widths) ** net.n_layers * rep.product
            for _ in range(100):
                x = rng.uniform(0.001, 0.999, net.n_inputs)
                assert np.linalg.norm(jacobian_fd(net, x)) <= upper + 1e-6


def _entry(doc, l, i):
    """The spline table entry of edge i of layer l in a net document."""
    return doc["splines"][doc["layers"][l][i][2]]


class TestSerialization:
    def test_round_trip_preserves_product_bitwise(self):
        net, _ = compile_tree(parse_expression("sin(x1*x2)"), CFG)
        net2 = deserialize(serialize(net))
        assert lipschitz_product(net2).product == lipschitz_product(net).product
        assert net2.widths == net.widths
        assert net2.wire_tags == net.wire_tags

    def test_round_trip_forward_identical(self, rng):
        net, _ = compile_tree(parse_expression("(x1+x2)*x3"), CFG)
        net2 = deserialize(serialize(net))
        X = rng.uniform(0, 1, size=(32, 3))
        np.testing.assert_array_equal(forward_batch(net, X), forward_batch(net2, X))

    def test_cached_text_equals_fresh_build(self, rng):
        for faithful in (False, True):
            cfg = CFG_FAITHFUL if faithful else CFG
            for _ in range(10):
                net, _ = compile_tree(random_tree(rng, 5), cfg)
                text = serialize(net)
                assert serialize(net) is text
                assert serialize(deserialize(text)) == text

    def test_text_round_trips_on_random_trees(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            tree = random_tree(rng, 5)
            n = annotate_ranges(tree).n
            nets = [compile_tree(tree, cfg)[0] for cfg in (CFG, CFG_FAITHFUL)]
            nets.append(compile_tree(tree, CompileConfig(box=[(-1.0 - p, 0.5 + p) for p in range(n)]))[0])
            for net in nets:
                text = serialize(net)
                assert serialize(deserialize(text)) == text

    @staticmethod
    def _reference_text(net):
        # the table in order of first use over the edges in layer order
        index = {}
        for layer in edges_by_layer(net):
            for _, _, spl in layer:
                index.setdefault(id(spl), (len(index), spl))
        doc = {
            "format": "kanforge/3",
            "widths": list(net.widths),
            "splines": [s.to_dict() for _, s in index.values()],
            "layers": [[[src, dst, index[id(spl)][0]] for src, dst, spl in layer] for layer in edges_by_layer(net)],
            "wire_tags": [list(tags) for tags in net.wire_tags],
        }
        return json.dumps(doc, separators=(",", ":"))

    def test_text_equals_compact_json_dump(self, rng):
        nets = [compile_tree(random_tree(rng, 5), cfg)[0] for cfg in (CFG, CFG_FAITHFUL) for _ in range(10)]
        nets.append(compile_tree(parse_expression("x1*x2"), CompileConfig(box=((-1, 0), (0, 2))))[0])
        # an edgeless layer, a shared spline, an equal but distinct one, and
        # tags that need escaping
        wire, equal = line_spline(-0.0, 1.0, -0.0, 1.0), line_spline(-0.0, 1.0, -0.0, 1.0)
        nets.append(network(
            (3, 3, 1), (wire, equal), [[(0, 0, 0), (1, 1, 0), (2, 2, 1)], []],
            (("x\u00e9", 'q"\\', "x3"), ("a\nb", "\u2603", "c"), ("out",)),
        ))
        for net in nets:
            assert serialize(net) == self._reference_text(net)
        assert json.loads(serialize(nets[-1]))["layers"] == [[[0, 0, 0], [1, 1, 0], [2, 2, 1]], []]

    def test_float_layout_matches_compact_dump(self):
        # signed zeros, subnormals and extreme exponents keep their repr
        spl = Spline(2, np.array([-0.0, 5e-324, 1e-300, 0.1, 1e300]),
                     np.array([0.0, -0.0, 2.5e-8, 1 / 3, -1e22, 123456789.125]))
        net = _single_edge_net(spl)
        assert serialize(net) == self._reference_text(net)
        (back,) = deserialize(serialize(net)).splines
        assert back.knots.tobytes() == spl.knots.tobytes() and back.coefs.tobytes() == spl.coefs.tobytes()

    def test_shared_splines_come_back_shared(self, rng):
        nets = [compile_tree(parse_expression("x1*x2*x3*x4"), CFG_FAITHFUL)[0]]
        nets += [compile_tree(random_tree(rng, 5), CFG)[0] for _ in range(10)]
        for net in nets:
            text = serialize(net)
            doc = json.loads(text)
            net2 = deserialize(text)
            edges = [e for layer in edges_by_layer(net) for e in layer]
            edges2 = [e for layer in edges_by_layer(net2) for e in layer]
            # one Spline per table entry: edges naming one entry share it
            by_entry = {}
            for (_, _, k), (_, _, spl2) in zip((t for layer in doc["layers"] for t in layer), edges2):
                assert by_entry.setdefault(k, spl2) is spl2
            assert len({id(spl2) for _, _, spl2 in edges2}) == len(by_entry) == len(doc["splines"])
            # a spline shared by edges of the compiled net is one table entry
            first = {}
            for (_, _, spl), (_, _, spl2) in zip(edges, edges2):
                assert first.setdefault(id(spl), spl2) is spl2
            assert serialize(KanNetwork(net2.widths, net2.splines, net2.edges, net2.counts, net2.wire_tags)) == text
        # the faithful chain forwards its inputs through shared identity wires
        doc = json.loads(serialize(nets[0]))
        assert len(doc["splines"]) < sum(len(layer) for layer in doc["layers"])

    def test_signed_zero_wires_stay_apart_after_loading(self):
        neg, pos = line_spline(-0.0, 1.0, -0.0, 1.0), line_spline(0.0, 1.0, 0.0, 1.0)
        net = network((2, 2), (neg, pos), [[(0, 0, 0), (1, 1, 1)]], (("x1", "x2"), ("a", "b")))
        net2 = deserialize(serialize(net))
        a, b = net2.splines
        assert a is not b
        assert serialize(KanNetwork(net2.widths, net2.splines, net2.edges, net2.counts, net2.wire_tags)) == serialize(net)

    def test_format_version_pinned(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        assert json.loads(serialize(net))["format"] == "kanforge/3"

    def test_bad_format_rejected(self):
        with pytest.raises(SchemaError):
            deserialize(json.dumps({"format": "other/9", "widths": [1, 1], "layers": [], "wire_tags": []}))

    def test_format_1_rejected_at_format(self):
        # the per-edge layout of format 1 has no reader
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        old = {
            "format": "kanforge/1",
            "widths": doc["widths"],
            "layers": [{"edges": [{"from": s, "to": d, "spline": doc["splines"][k]} for s, d, k in layer]}
                       for layer in doc["layers"]],
            "wire_tags": doc["wire_tags"],
        }
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(old, indent=2))
        assert exc.value.path == "$.format"

    def test_format_2_rejected_at_format(self):
        # format 2 entries restated `domain` and `grid_points` and named the
        # coefficients `coefficients`; it has no reader either
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        doc["format"] = "kanforge/2"
        for sp in doc["splines"]:
            sp.update(domain=[sp["knots"][0], sp["knots"][-1]], grid_points=len(sp["knots"]),
                      coefficients=sp.pop("coefs"))
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.format"

    def test_negative_width_rejected_with_path(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        doc["widths"][1] = -2
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.widths[1]"

    def test_edge_out_of_range_rejected_with_path(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        doc["layers"][0][0][0] = 7
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.layers[0][0]"
        assert "source" in str(exc.value)

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["layers"][1][1].append(0), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].pop(), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1].__setitem__(0, {"from": 0, "to": 0, "spline": 0}), "$.layers[1][0]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, len(doc["splines"])), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, -1), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(1, 1.0), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, 0.0), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(0, True), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, False), "$.layers[1][1]"),
        (lambda doc: doc["layers"].__setitem__(1, {}), "$.layers[1]"),
        (lambda doc: doc.pop("splines"), "$.splines"),
        (lambda doc: doc.__setitem__("splines", {}), "$.splines"),
        (lambda doc: doc["splines"].__setitem__(0, [1, 2]), "$.splines[0]"),
        (lambda doc: doc["widths"].__setitem__(0, True), "$.widths[0]"),
        (lambda doc: doc.update(domain=[0.0, 1.0]), "$"),
        (lambda doc: doc["splines"][0].pop("knots"), "$.splines[0]"),
        (lambda doc: doc["splines"][0].update(domain=[0.0, 1.0]), "$.splines[0]"),
    ], ids=["long-triple", "short-triple", "edge-object", "index-past-table", "negative-index", "float-target",
            "float-index", "bool-source", "bool-index", "layer-object", "no-splines", "splines-object",
            "entry-list", "bool-width", "unknown-key", "entry-missing-key", "entry-unknown-key"])
    def test_malformed_document_rejected_with_path(self, edit, path):
        # a document and each spline table entry hold exactly their keys
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        edit(doc)
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == path

    def test_duplicate_edge_rejected(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        doc["layers"][1].append(list(doc["layers"][1][0]))
        with pytest.raises(SchemaError, match="duplicate edge") as exc:
            deserialize(json.dumps(doc))
        # at the second occurrence
        assert exc.value.path == "$.layers[1][2]"

    # x1*x2 has widths [2, 2, 1], a 4-entry table, and two edges in layer 1
    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc.update(widths=[2], layers=[], wire_tags=[["x1", "x2"]]), "$.widths"),
        (lambda doc: doc["widths"].__setitem__(1, 0), "$.widths[1]"),
        (lambda doc: doc["widths"].__setitem__(2, -2), "$.widths[2]"),
        (lambda doc: doc["layers"].pop(), "$.layers"),
        (lambda doc: doc["layers"].append([]), "$.layers"),
        (lambda doc: doc["wire_tags"].pop(), "$.wire_tags"),
        (lambda doc: doc["wire_tags"][1].append("extra"), "$.wire_tags[1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(0, 2), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(0, -1), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(1, 1), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, 4), "$.layers[1][1]"),
        (lambda doc: doc["layers"][1][1].__setitem__(2, -1), "$.layers[1][1]"),
        (lambda doc: doc["layers"][0].append([1, 0, 4]), "$.layers[0][4]"),
        (lambda doc: doc.update(widths=[MAX_COORD + 1] + doc["widths"][1:],
                                wire_tags=[["x"] * (MAX_COORD + 1)] + doc["wire_tags"][1:]), "$.widths[0]"),
    ], ids=["one-boundary", "zero-width", "negative-width", "layer-missing", "layer-extra", "tags-missing",
            "tags-long", "source", "negative-source", "target", "spline-index", "negative-spline-index",
            "duplicate", "inputs-past-max-coord"])
    def test_deserialize_raises_the_constructors_error(self, edit, path):
        # one validator: a structural fault in a file is the SchemaError the
        # constructor raises on the same fields, message and path alike
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        edit(doc)
        with pytest.raises(SchemaError) as want:
            KanNetwork(widths=tuple(doc["widths"]), splines=tuple(Spline(**e) for e in doc["splines"]),
                       edges=[t for layer in doc["layers"] for t in layer], counts=tuple(map(len, doc["layers"])),
                       wire_tags=doc["wire_tags"])
        with pytest.raises(SchemaError) as got:
            deserialize(json.dumps(doc))
        assert (str(got.value), got.value.path) == (str(want.value), want.value.path)
        assert got.value.path == path

    @pytest.mark.parametrize("value", [10**30, -(10**30), 2**63], ids=["1e30", "-1e30", "2^63"])
    @pytest.mark.parametrize("column", [0, 1, 2], ids=["source", "target", "spline-index"])
    def test_integer_past_intp_rejected_at_its_triple(self, column, value):
        # no array holds it, so the type pass, not the constructor, names it
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        doc = json.loads(serialize(net))
        doc["layers"][0][0][column] = value
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.layers[0][0]" and f" {value} out of range" in str(exc.value)

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["long-integer", "deep-nesting"])
    def test_json_the_decoder_refuses_rejected(self, text):
        with pytest.raises(SchemaError) as exc:
            deserialize(text)
        assert exc.value.path == "$"

    def test_order_beyond_kernel_bound_rejected(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        doc = json.loads(serialize(net))
        sp = _entry(doc, 0, 0)
        sp["order"] = kernels.KMAX
        sp["coefs"] = [0.0] * (len(sp["knots"]) + kernels.KMAX - 1)
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.splines[0]"

    def test_bad_spline_rejected_with_path(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        doc = json.loads(serialize(net))
        _entry(doc, 0, 0)["coefs"] = [0.0]
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.splines[0]"


def _first_edge_error(widths, layers):
    """The message of the first invalid edge, walking layer by layer, with its
    path within the layer, or None."""
    for l, edges in enumerate(layers):
        seen = set()
        for i, (src, dst, _) in enumerate(edges):
            at = f" (at $.layers[{l}][{i}])"
            if not 0 <= src < widths[l]:
                return f"layers[{l}] edge source {src} out of range" + at
            if not 0 <= dst < widths[l + 1]:
                return f"layers[{l}] edge target {dst} out of range" + at
            if (src, dst) in seen:
                return f"layers[{l}] duplicate edge ({src}, {dst})" + at
            seen.add((src, dst))
    return None


class TestNetworkInvariants:
    def test_edge_indices_validated(self):
        with pytest.raises(ValueError):
            network((1, 1), (line_spline(0, 1, 0, 1),), [[(1, 0, 0)]])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            network((1, 1), (line_spline(0, 1, 0, 1),), [[(0, 0, 0), (0, 0, 0)]])

    def test_edge_checks_match_per_edge_oracle(self, rng):
        # the constructor checks all edges at once as arrays; it must accept
        # and reject exactly what a walk over each layer's edges does, with
        # that walk's message and path (a pair may recur in another layer; a
        # duplicate is reported at its second occurrence)
        s = line_spline(0, 1, 0, 1)
        rejected = 0
        for _ in range(300):
            widths = tuple(int(w) for w in rng.integers(1, 4, size=int(rng.integers(2, 5))))
            layers = tuple(
                tuple((int(rng.integers(-1, widths[l] + 1)), int(rng.integers(-1, widths[l + 1] + 1)), 0)
                      for _ in range(int(rng.integers(0, 4))))
                for l in range(len(widths) - 1)
            )
            tags = tuple(("t",) * w for w in widths)
            want = _first_edge_error(widths, layers)
            if want is None:
                network(widths, (s,), layers, tags)
            else:
                rejected += 1
                with pytest.raises(SchemaError) as exc:
                    network(widths, (s,), layers, tags)
                assert str(exc.value) == want
        assert 0 < rejected < 300

    def test_spline_index_validated(self):
        s = line_spline(0, 1, 0, 1)
        for k in (-1, 1):
            with pytest.raises(SchemaError, match=rf"^layers\[1\] edge spline index {k} out of range "
                                                  rf"\(at \$\.layers\[1\]\[1\]\)$"):
                network((1, 2, 1), (s,), [[(0, 0, 0), (0, 1, 0)], [(0, 0, 0), (1, 0, k)]])

    @pytest.mark.parametrize("value, message", [
        (0.5, "expected int, got 0.5"),
        (1.0, "expected int, got 1.0"),
        (True, "expected int, got True"),
        (10**30, f"layers[1] edge spline index {10**30} out of range"),
        (2**63, f"layers[1] edge spline index {2**63} out of range"),
    ], ids=["half", "integral-float", "bool", "1e30", "2^63"])
    def test_non_integer_triple_rejected_at_its_path(self, value, message):
        # a library caller's triples are read as a file's: never truncated
        # or coerced, and never an OverflowError
        with pytest.raises(SchemaError) as exc:
            self._two_layers([(0, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, value)])
        assert (str(exc.value), exc.value.path) == (f"{message} (at $.layers[1][1])", "$.layers[1][1]")

    def test_float_array_rejected_at_its_first_triple(self):
        # numpy holds every triple of such an array as floats
        with pytest.raises(SchemaError, match=r"^expected int, got 0\.0 \(at \$\.layers\[0\]\[0\]\)$"):
            self._two_layers(np.array([(0, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0.5)]))

    @staticmethod
    def _two_layers(edges) -> KanNetwork:
        return KanNetwork(widths=(1, 2, 1), splines=(line_spline(0, 1, 0, 1),), edges=edges, counts=(2, 2),
                          wire_tags=(("x1",), ("a", "b"), ("y",)))

    def test_triples_of_any_integer_array_accepted(self):
        want = [[0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]]
        for edges in (want, np.array(want, dtype=np.int32), np.array(want, dtype=np.uint64),
                      np.array(want, dtype=object), np.array(want).ravel()):
            net = self._two_layers(edges)
            assert net.edges.dtype == np.intp and net.edges.tolist() == want
        s = line_spline(0, 1, 0, 1)
        for edges in ([], np.zeros((0, 3)), np.zeros(0, dtype=np.int32)):
            net = KanNetwork(widths=(1, 1), splines=(s,), edges=edges, counts=(0,), wire_tags=(("x1",), ("y",)))
            assert net.edges.dtype == np.intp and net.edges.shape == (0, 3) and net.splines == ()

    def test_compiled_triples_take_no_conversion(self, monkeypatch):
        # the compiler and the loader hand over intp triples, so the
        # constructor never walks them
        monkeypatch.setattr(kannet, "_intp_triples", None)
        for expr in ("x1", "x1*x1", "sin(x1*x2)-relu(x3)"):
            for cfg in (CFG, CFG_FAITHFUL, CompileConfig(box=((-1, 1),) * annotate_ranges(parse_expression(expr)).n)):
                net, _ = compile_tree(parse_expression(expr), cfg)
                deserialize(serialize(net))

    def test_counts_split_the_edges(self):
        s = line_spline(0, 1, 0, 1)
        for counts in ((2,), (0,), (2, -1)):
            with pytest.raises(ValueError):
                KanNetwork(widths=(1,) * (len(counts) + 1), splines=(s,), edges=[(0, 0, 0)], counts=counts,
                           wire_tags=(("x1",),) * (len(counts) + 1))

    def test_table_renumbered_to_first_use(self):
        # a permuted table with an unused entry is the table in order of first
        # use; equal but distinct splines stay apart, and the triples are read-only
        a, b, unused = line_spline(0, 1, 0, 1), line_spline(0, 1, 0, 1), line_spline(0, 1, 0, 2)
        net = network((2, 2, 1), (unused, b, a), [[(0, 0, 2), (1, 1, 1), (0, 1, 2)], [(1, 0, 1)]])
        assert net.splines[0] is a and net.splines[1] is b and len(net.splines) == 2
        assert net.edges.tolist() == [[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1]]
        assert serialize(net) == serialize(network((2, 2, 1), (a, b), [[(0, 0, 0), (1, 1, 1), (0, 1, 0)], [(1, 0, 1)]]))
        with pytest.raises(ValueError):
            net.edges[0, 0] = 1
        assert network((1, 1), (a,), [[]]).splines == ()

    def test_wire_tag_arity_checked(self):
        with pytest.raises(ValueError):
            network((1, 1), (line_spline(0, 1, 0, 1),), [[(0, 0, 0)]], (("x1", "x2"), ("node0",)))
