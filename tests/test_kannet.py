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

CFG = CompileConfig(grid=35, order=3)
CFG_FAITHFUL = CompileConfig(grid=35, order=3, faithful_widths=True)


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
    spline.reset_oob_hits()
    out = fn(*args)
    return out, spline.oob_hits()


class TestPlanForward:
    """The plan forward against the per-edge de Boor reference and scipy."""

    def _check(self, net, rng):
        X = rng.uniform(-0.05, 1.05, size=(400, net.n_inputs))
        np.testing.assert_allclose(forward_batch(net, X), _deboor_forward(net, X), rtol=0, atol=1e-12)

    def test_random_trees_both_modes(self, rng):
        for _ in range(40):
            tree = random_tree(rng, 5)
            for cfg in (CFG, CFG_FAITHFUL):
                net, _ = compile_tree(tree, cfg)
                self._check(net, rng)

    def test_fanout(self, rng):
        for expr in ("x1*x1", "sin(x1*x1)+x1", "relu(x2-x1)*relu(x2-x1)"):
            net, _ = compile_tree(parse_expression(expr), CFG)
            self._check(net, rng)

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
        assert rep.ambient_upper == rep.max_width**rep.n_layers * rep.product

    def test_identity_wire_floor_in_faithful_nets(self):
        for expr in ("x1*x2", "sin(x1*x2)", "sin(x1)", "relu(x1-x2)*cos(x3)"):
            net, _ = compile_tree(parse_expression(expr), CFG_FAITHFUL)
            for edges in net.layers:
                assert any(spline_lipschitz(e.spline).value == 1.0 for e in edges)
            assert lipschitz_product(net).product == 1.0


class TestJacobian:
    def test_product_gradient(self):
        net, _ = compile_tree(parse_expression("x1*x2"), CFG)
        grad = jacobian_fd(net, [0.5, 0.5])
        np.testing.assert_allclose(grad, [0.5, 0.5], atol=1e-6)
        assert np.linalg.norm(grad) == pytest.approx(math.sqrt(0.5), abs=1e-6)

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

    def test_chain_rule_sandwich(self, rng):
        for expr in ("x1*x2", "sin((x1+x2)*x3)", "(x1+x2)*(x3+x4)"):
            net, _ = compile_tree(parse_expression(expr), CFG)
            rep = lipschitz_product(net)
            upper = rep.max_width**rep.n_layers * rep.product
            for _ in range(100):
                x = rng.uniform(0.001, 0.999, net.n_inputs)
                assert np.linalg.norm(jacobian_fd(net, x)) <= upper + 1e-6


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

    @staticmethod
    def _reference_text(net):
        doc = {
            "format": "kanforge/1",
            "widths": list(net.widths),
            "layers": [
                {"edges": [{"from": e.src, "to": e.dst, "spline": e.spline.to_dict()} for e in edges]}
                for edges in net.layers
            ],
            "wire_tags": [list(tags) for tags in net.wire_tags],
        }
        return json.dumps(doc, indent=2)

    def test_text_equals_indented_json_dump(self, rng):
        nets = [compile_tree(random_tree(rng, 5), cfg)[0] for cfg in (CFG, CFG_FAITHFUL) for _ in range(10)]
        nets.append(compile_on_box(parse_expression("x1*x2"), affine_box([(-1, 0), (0, 2)]), CFG)[0])
        # an edgeless layer, a shared spline and tags that need escaping
        wire = line_spline(-0.0, 1.0, -0.0, 1.0)
        nets.append(KanNetwork(
            widths=(2, 2, 1),
            layers=((Edge(0, 0, wire), Edge(1, 1, wire)), ()),
            wire_tags=(("x\u00e9", 'q"\\'), ("a\nb", "\u2603"), ("out",)),
        ))
        for net in nets:
            assert serialize(net) == self._reference_text(net)

    def test_format_version_pinned(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        assert json.loads(serialize(net))["format"] == "kanforge/1"

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
        doc["layers"][0]["edges"][0]["from"] = 7
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert exc.value.path == "$.layers[0].edges[0].from"

    def test_bad_format_rejected(self):
        with pytest.raises(SchemaError):
            deserialize(json.dumps({"format": "other/9", "widths": [1, 1], "layers": [], "wire_tags": []}))

    def test_order_beyond_kernel_bound_rejected(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        doc = json.loads(serialize(net))
        sp = doc["layers"][0]["edges"][0]["spline"]
        sp["order"] = kernels.KMAX
        sp["coefficients"] = [0.0] * (len(sp["knots"]) + kernels.KMAX - 1)
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert "spline" in exc.value.path

    def test_bad_spline_rejected_with_path(self):
        net, _ = compile_tree(parse_expression("x1"), CFG)
        doc = json.loads(serialize(net))
        doc["layers"][0]["edges"][0]["spline"]["coefficients"] = [0.0]
        with pytest.raises(SchemaError) as exc:
            deserialize(json.dumps(doc))
        assert "spline" in exc.value.path


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

    def test_wire_tag_arity_checked(self):
        with pytest.raises(ValueError):
            KanNetwork(
                widths=(1, 1),
                layers=((Edge(0, 0, line_spline(0, 1, 0, 1)),),),
                wire_tags=(("x1", "x2"), ("node0",)),
            )
