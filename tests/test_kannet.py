import json
import math

import numpy as np
import pytest

from kanforge import kernels, spline
from kanforge.cli import random_tree
from kanforge.compiler import CompileConfig, compile_on_box, compile_tree
from kanforge.exprtree import parse_expression, tree_stats
from kanforge.kannet import (
    Edge,
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
from kanforge.rangecert import affine_box
from kanforge.spline import Spline, line_spline, spline_lipschitz

CFG = CompileConfig(grid=35)
CFG_FAITHFUL = CompileConfig(grid=35, faithful_widths=True)


def _single_edge_net(spl, n=1):
    return KanNetwork(
        widths=(n, 1),
        layers=((Edge(0, 0, spl),),),
        wire_tags=(tuple(f"x{p}" for p in range(1, n + 1)), ("node0",)),
    )


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
    for l, edges in enumerate(net.layers):
        nxt = np.zeros((cur.shape[0], net.widths[l + 1]))
        for e in edges:
            nxt[:, e.dst] += e.spline.eval_batch(cur[:, e.src])
        cur = nxt
    return cur


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

    @pytest.mark.parametrize("rows", [0, 1, kernels.CHUNK + 1])
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

    def test_compile_on_box(self, rng):
        for _ in range(10):
            tree = random_tree(rng, 4)
            n = tree_stats(tree).n
            box = affine_box([(-1.0 + 0.5 * p, 1.0 + p) for p in range(n)])
            net, _ = compile_on_box(tree, box, CFG)
            self._check(net, rng)

    def test_every_order_against_scipy(self, rng):
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        hinge = np.array([-0.3, 0.0, 0.9])
        edges = [
            Edge(0, 0, Spline(0, np.array([-1.0, -0.2, 0.5, 2.0]), rng.normal(size=3))),
            Edge(0, 1, Spline(1, hinge, np.array([0.0, 0.0, 0.9]))),
            Edge(0, 2, Spline(2, np.linspace(0.0, 1.0, 5), rng.normal(size=6))),
            Edge(1, 2, Spline(3, np.array([-0.5, 0.1, 0.2, 0.7, 1.5]), rng.normal(size=7))),
            Edge(1, 3, line_spline(0.25, 0.75, 1.0, -2.0)),
            Edge(1, 0, Spline(3, np.linspace(-0.2, 1.2, 9), rng.normal(size=11))),
            # a fine non-uniform grid: ten inner knots, each counted in place
            Edge(0, 3, Spline(2, np.sort(rng.uniform(-0.8, 2.2, size=12)), rng.normal(size=13))),
        ]
        net = KanNetwork(widths=(2, 4), layers=(tuple(edges),),
                         wire_tags=(("x1", "x2"), tuple(f"node{j}" for j in range(4))))
        X = rng.uniform(-1.5, 2.5, size=(3000, 2))
        # every knot of every edge, hit exactly
        knots = np.concatenate([e.spline.knots for e in edges])
        X = np.vstack([X, np.column_stack([knots, knots])])
        got, got_oob = _oob_of(forward_batch, net, X)
        ref, ref_oob = _oob_of(_deboor_forward, net, X)
        assert got_oob == ref_oob > 0
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for e in edges:
            s = e.spline
            a, b = s.domain
            t = X[:, e.src]
            inside = (t >= a) & (t <= b)
            mine = forward_batch(_single_edge_net(s), t[inside, None])[:, 0]
            want = BSpline(s._T, s.coefs, s.order)(t[inside])
            # the order-0 edge jumps at its knots; both sides take the right-hand piece
            np.testing.assert_allclose(mine, want, rtol=0, atol=1e-12)

    @staticmethod
    def _hand_built_layers(rng):
        wire = line_spline(-1.0, 2.0, -1.0, 2.0)
        neg = line_spline(-1.0, 2.0, 1.0, -2.0)
        quad = Spline(2, np.linspace(-1.0, 2.0, 4), rng.normal(size=5))
        cubic = Spline(3, np.array([-0.5, 0.1, 0.2, 0.7, 1.5]), rng.normal(size=7))
        trig = spline.pl_interpolant(math.sin, 0.25, 1.5, 9)
        return [
            # mixed; three affine edges into target 0; source 0 feeds the
            # domains [-1, 2] (twice) and [-0.5, 0.5]
            (Edge(0, 0, wire), Edge(1, 0, neg), Edge(2, 0, line_spline(0.0, 1.0, 0.5, 3.0)),
             Edge(0, 1, quad), Edge(0, 2, line_spline(-0.5, 0.5, 1.0, 0.0)),
             Edge(1, 3, cubic), Edge(2, 3, wire)),
            # affine only, sharing `wire` across edges and with layer 0
            (Edge(0, 0, wire), Edge(1, 0, wire), Edge(2, 1, neg),
             Edge(3, 2, line_spline(-3.0, 3.0, 0.0, 1.5)), Edge(3, 0, neg)),
            # curved only, sharing `quad` and `cubic` with layer 0
            (Edge(0, 0, quad), Edge(1, 0, trig), Edge(2, 1, cubic), Edge(0, 1, trig)),
            # mixed
            (Edge(0, 0, wire), Edge(1, 0, quad)),
        ]

    @staticmethod
    def _network(layers, widths):
        return KanNetwork(widths=widths, layers=layers,
                          wire_tags=tuple(tuple(f"n{m}.{i}" for i in range(w)) for m, w in enumerate(widths)))

    def test_hand_built_network(self, rng):
        layers = self._hand_built_layers(rng)
        nets = [
            self._network(layers, (3, 4, 3, 2, 1)),
            # an edgeless layer: everything after it sees zeros, where `trig`
            # is below its domain
            self._network(layers[:2] + [()] + layers[2:], (3, 4, 3, 3, 2, 1)),
        ]
        X = np.vstack([rng.uniform(-1.5, 2.5, size=(3000, 3)), rng.uniform(0.0, 0.5, size=(500, 3))])
        for net in nets:
            got, got_oob = _oob_of(forward_batch, net, X)
            ref, ref_oob = _oob_of(_deboor_forward, net, X)
            assert got_oob == ref_oob > 0
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            rep = lipschitz_product(net)
            per_edge = [max((spline_lipschitz(e.spline) for e in edges), default=0.0) for edges in net.layers]
            assert rep.per_layer == tuple(per_edge)
            assert rep.product == math.prod(per_edge)

        plan = nets[1].packed()
        mixed, affine_only, empty, curved_only, _ = plan.steps
        assert mixed.weight is not None and mixed.pp_dst == (1, 3)
        assert affine_only.weight is not None and affine_only.pp_dst == ()
        assert empty.weight is None and empty.pp_dst == () and not empty.bias.any()
        assert curved_only.weight is None and curved_only.pp_dst == (0, 0, 1, 1)
        # the affine edges into target 0 add their intercepts in edge order
        intercepts = [e.spline._boundary[0] - e.spline._boundary[1] * e.spline.domain[0] for e in layers[0][:3]]
        assert mixed.bias[0, 0] == (intercepts[0] + intercepts[1]) + intercepts[2]
        assert mixed.weight[0].tolist() == [1.0, -1.0, 2.5]
        # each value is checked against the tightest domain of its readers:
        # input 0 feeds [-1, 2] (twice) and [-0.5, 0.5]; the edgeless
        # layer's zeros feed the curved-only layer
        assert (plan.in_lo[0], plan.in_hi[0]) == (-0.5, 0.5)
        assert empty.lo.tolist() == [0.25, 0.25, -0.5] and empty.hi.tolist() == [1.5, 1.5, 1.5]
        # no neuron here has an identity as its only edge: every one is a new value
        assert sum(st.rows.stop - st.rows.start for st in plan.steps) == sum(nets[1].widths[1:])

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
        # the plan's pp table holds G+1 rows per distinct curved spline, not
        # per curved edge, and every step reads a view of it
        net, _ = compile_tree(parse_expression(self._chain(28)), CFG)
        edges = [e for layer in net.layers for e in layer]
        curved = {id(e.spline): e.spline for e in edges if not (e.spline.order == 1 and e.spline.knots.size == 2)}
        pp_steps = [st for st in net.packed().steps if st.pp_dst]
        assert sum(len(st.pp_dst) for st in pp_steps) > len(curved) > 1
        base = pp_steps[0].pp_coef.base
        assert base.shape == (1 + max(s.order for s in curved.values()), sum(s.knots.size + 1 for s in curved.values()))
        for st in pp_steps:
            assert st.pp_coef.base is base and st.pp_left is pp_steps[0].pp_left
            assert st.pp_coef.shape[1] == base.shape[1]

    def test_chunked_rows_match_row_slices(self, rng):
        net, _ = compile_tree(parse_expression("sin((x1+x2)*x3)*relu(x1-x2)"), CFG)
        X = rng.uniform(-0.05, 1.05, size=(3 * kernels.CHUNK + 7, net.n_inputs))
        cuts = [0, 5, kernels.CHUNK + 1, 2 * kernels.CHUNK, 3 * kernels.CHUNK + 3, len(X)]
        parts = [forward_batch(net, X[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(forward_batch(net, X), np.vstack(parts))


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
        assert rep.max_width == 2
        assert rep.n_layers == 3
        assert rep.product == math.prod(rep.per_layer)

    def test_identity_wire_floor_in_faithful_nets(self):
        for expr in ("x1*x2", "sin(x1*x2)", "sin(x1)", "relu(x1-x2)*cos(x3)"):
            net, _ = compile_tree(parse_expression(expr), CFG_FAITHFUL)
            for edges in net.layers:
                assert any(spline_lipschitz(e.spline) == 1.0 for e in edges)
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
        # W = 2 from the compiled widths (2,2,2,1), L = 3
        bound = jacobian_lower_bound(net, [1 - 1e-4, 1 - 1e-4])
        assert bound == pytest.approx(math.sqrt(2.0) / 2**3, abs=1e-3)
        assert bound <= lipschitz_product(net).product

    def test_identity_net_equality(self):
        net = _single_edge_net(line_spline(0, 1, 0, 1))
        assert jacobian_lower_bound(net, [0.5]) == pytest.approx(1.0, abs=1e-9)
        assert lipschitz_product(net).product == 1.0

    def test_sum_lower_bound(self):
        net, _ = compile_tree(parse_expression("x1+x2"), CFG)
        bound = jacobian_lower_bound(net, [0.5, 0.5])
        assert bound == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)
        assert bound <= 1.0

    def test_step_validated(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        with pytest.raises(ValueError):
            jacobian_fd(net, [0.5, 0.5], step=0.0)

    def test_batched_points_bit_equal_per_row(self):
        rng = np.random.default_rng(7)
        nets = [compile_tree(random_tree(rng, 5), CFG)[0] for _ in range(30)]
        nets.append(compile_on_box(parse_expression("sin(x1*x2)-x3"), affine_box([(0, 2), (1, 4), (-1, 0.5)]), CFG)[0])
        for net in nets:
            X = rng.uniform(0.001, 0.999, size=(20, net.n_inputs))
            got = jacobian_fd(net, X)
            assert got.shape == X.shape
            assert np.array_equal(got, np.array([jacobian_fd(net, x) for x in X]))
            assert jacobian_lower_bound(net, X) == max(jacobian_lower_bound(net, x) for x in X)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]], [[[0.5, 0.5]]]])
    def test_point_shape_validated(self, x):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        with pytest.raises(ValueError):
            jacobian_fd(net, x)

    def test_chain_rule_sandwich(self, rng):
        for expr in ("x1*x2", "sin((x1+x2)*x3)", "(x1+x2)*(x3+x4)"):
            net, _ = compile_tree(parse_expression(expr), CFG)
            rep = lipschitz_product(net)
            upper = rep.max_width**rep.n_layers * rep.product
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
            n = tree_stats(tree).n
            nets = [compile_tree(tree, cfg)[0] for cfg in (CFG, CFG_FAITHFUL)]
            nets.append(compile_on_box(tree, affine_box([(-1.0 - p, 0.5 + p) for p in range(n)]), CFG)[0])
            for net in nets:
                text = serialize(net)
                assert serialize(deserialize(text)) == text

    @staticmethod
    def _reference_text(net):
        # the table in order of first use over the edges in layer order
        index = {}
        for layer in net.layers:
            for e in layer:
                index.setdefault(id(e.spline), (len(index), e.spline))
        doc = {
            "format": "kanforge/3",
            "widths": list(net.widths),
            "splines": [s.to_dict() for _, s in index.values()],
            "layers": [[[e.src, e.dst, index[id(e.spline)][0]] for e in layer] for layer in net.layers],
            "wire_tags": [list(tags) for tags in net.wire_tags],
        }
        return json.dumps(doc, separators=(",", ":"))

    def test_text_equals_compact_json_dump(self, rng):
        nets = [compile_tree(random_tree(rng, 5), cfg)[0] for cfg in (CFG, CFG_FAITHFUL) for _ in range(10)]
        nets.append(compile_on_box(parse_expression("x1*x2"), affine_box([(-1, 0), (0, 2)]), CFG)[0])
        # an edgeless layer, a shared spline, an equal but distinct one, and
        # tags that need escaping
        wire = line_spline(-0.0, 1.0, -0.0, 1.0)
        nets.append(KanNetwork(
            widths=(3, 3, 1),
            layers=((Edge(0, 0, wire), Edge(1, 1, wire), Edge(2, 2, line_spline(-0.0, 1.0, -0.0, 1.0))), ()),
            wire_tags=(("x\u00e9", 'q"\\', "x3"), ("a\nb", "\u2603", "c"), ("out",)),
        ))
        for net in nets:
            assert serialize(net) == self._reference_text(net)
        assert json.loads(serialize(nets[-1]))["layers"] == [[[0, 0, 0], [1, 1, 0], [2, 2, 1]], []]

    def test_float_layout_matches_compact_dump(self):
        # signed zeros, subnormals and extreme exponents keep their repr
        spl = Spline(2, np.array([-0.0, 5e-324, 1e-300, 0.1, 1e300]),
                     np.array([0.0, -0.0, 2.5e-8, 1 / 3, -1e22, 123456789.125]))
        net = KanNetwork(widths=(1, 1), layers=((Edge(0, 0, spl),),), wire_tags=(("x1",), ("node0",)))
        assert serialize(net) == self._reference_text(net)
        back = deserialize(serialize(net)).layers[0][0].spline
        assert back.knots.tobytes() == spl.knots.tobytes() and back.coefs.tobytes() == spl.coefs.tobytes()

    def test_shared_splines_come_back_shared(self, rng):
        nets = [compile_tree(parse_expression("x1*x2*x3*x4"), CFG_FAITHFUL)[0]]
        nets += [compile_tree(random_tree(rng, 5), CFG)[0] for _ in range(10)]
        for net in nets:
            text = serialize(net)
            doc = json.loads(text)
            net2 = deserialize(text)
            edges = [e for layer in net.layers for e in layer]
            edges2 = [e for layer in net2.layers for e in layer]
            # one Spline per table entry: edges naming one entry share it
            by_entry = {}
            for (_, _, k), e2 in zip((t for layer in doc["layers"] for t in layer), edges2):
                assert by_entry.setdefault(k, e2.spline) is e2.spline
            assert len({id(e.spline) for e in edges2}) == len(by_entry) == len(doc["splines"])
            # a spline shared by edges of the compiled net is one table entry
            first = {}
            for e, e2 in zip(edges, edges2):
                assert first.setdefault(id(e.spline), e2.spline) is e2.spline
            assert serialize(KanNetwork(net2.widths, net2.layers, net2.wire_tags)) == text
        # the faithful chain forwards its inputs through shared identity wires
        doc = json.loads(serialize(nets[0]))
        assert len(doc["splines"]) < sum(len(layer) for layer in doc["layers"])

    def test_signed_zero_wires_stay_apart_after_loading(self):
        neg, pos = line_spline(-0.0, 1.0, -0.0, 1.0), line_spline(0.0, 1.0, 0.0, 1.0)
        net = KanNetwork(widths=(2, 2), layers=((Edge(0, 0, neg), Edge(1, 1, pos)),),
                         wire_tags=(("x1", "x2"), ("a", "b")))
        net2 = deserialize(serialize(net))
        a, b = (e.spline for e in net2.layers[0])
        assert a is not b
        assert serialize(KanNetwork(net2.widths, net2.layers, net2.wire_tags)) == serialize(net)

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
        (lambda doc: doc["layers"].__setitem__(2, {}), "$.layers[2]"),
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
        with pytest.raises(SchemaError, match="duplicate edge"):
            deserialize(json.dumps(doc))

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
    """The message of the first invalid edge, walking layer by layer, or None."""
    for l, edges in enumerate(layers):
        seen = set()
        for src, dst, _ in edges:
            if not 0 <= src < widths[l]:
                return f"layers[{l}] edge source {src} out of range"
            if not 0 <= dst < widths[l + 1]:
                return f"layers[{l}] edge target {dst} out of range"
            if (src, dst) in seen:
                return f"layers[{l}] duplicate edge ({src}, {dst})"
            seen.add((src, dst))
    return None


class TestNetworkInvariants:
    def test_edge_indices_validated(self):
        with pytest.raises(ValueError):
            KanNetwork(
                widths=(1, 1),
                layers=((Edge(1, 0, line_spline(0, 1, 0, 1)),),),
                wire_tags=(("x1",), ("node0",)),
            )

    def test_duplicate_edges_rejected(self):
        e = Edge(0, 0, line_spline(0, 1, 0, 1))
        with pytest.raises(ValueError):
            KanNetwork(widths=(1, 1), layers=((e, e),), wire_tags=(("x1",), ("node0",)))

    def test_edge_checks_match_per_edge_oracle(self, rng):
        # the constructor checks all edges at once as arrays; it must accept
        # and reject exactly what a walk over each layer's edges does, with
        # that walk's message (a pair may recur in another layer)
        s = line_spline(0, 1, 0, 1)
        rejected = 0
        for _ in range(300):
            widths = tuple(int(w) for w in rng.integers(1, 4, size=int(rng.integers(2, 5))))
            layers = tuple(
                tuple(Edge(int(rng.integers(-1, widths[l] + 1)), int(rng.integers(-1, widths[l + 1] + 1)), s)
                      for _ in range(int(rng.integers(0, 4))))
                for l in range(len(widths) - 1)
            )
            tags = tuple(("t",) * w for w in widths)
            want = _first_edge_error(widths, layers)
            if want is None:
                KanNetwork(widths=widths, layers=layers, wire_tags=tags)
            else:
                rejected += 1
                with pytest.raises(ValueError) as exc:
                    KanNetwork(widths=widths, layers=layers, wire_tags=tags)
                assert str(exc.value) == want
        assert 0 < rejected < 300

    def test_wire_tag_arity_checked(self):
        with pytest.raises(ValueError):
            KanNetwork(
                widths=(1, 1),
                layers=((Edge(0, 0, line_spline(0, 1, 0, 1)),),),
                wire_tags=(("x1", "x2"), ("node0",)),
            )
