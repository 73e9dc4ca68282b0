import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanforge.cli import random_tree
from kanforge.compiler import _build_blocks
from kanforge.exprtree import OpKind, parse_expression
from kanforge.kernels import eval_spline_batch
from kanforge.primblocks import EdgeSplines, build_block
from kanforge.rangecert import Interval, annotate_ranges
from kanforge.spline import line_spline, quarter_square, spline_lipschitz, sup_error

from conftest import node_annotation

U = Interval(0.0, 1.0)

# a point interval is a constant subterm's range
intervals = st.tuples(st.floats(-4, 4), st.floats(0.05, 6) | st.just(0.0)).map(
    lambda ab: Interval(ab[0], ab[0] + ab[1])
)


def _forward(b, *args: float) -> float:
    """Scalar evaluation of block b alone, edge by edge."""
    vals = [float(a) for a in args]
    for edges, ranges in zip(b.layers, b.neuron_ranges):
        out = [0.0] * len(ranges)
        for src, dst, s in edges:
            out[dst] += s(vals[src])
        vals = out
    return vals[0]


def _measured_lambda(b) -> float:
    """Product over block b's layers of the largest extracted edge Lipschitz constant."""
    prod = 1.0
    for edges in b.layers:
        prod *= max(spline_lipschitz(s) for _, _, s in edges)
    return prod


def _quarter_square(r: Interval):
    """t^2/4 on r as its own edge: the constant line on [c, c + 1] for a
    point interval [c, c]."""
    if r.lo < r.hi:
        return quarter_square(r.lo, r.hi)
    v = r.lo * r.lo / 4.0
    return line_spline(r.lo, r.lo + 1.0, v, v)


def _block(expr: str, *domains: Interval, G: int = 35):
    """The annotation of the one operation of `expr`, on x1 (and x2) ranging
    over `domains`, and the block built from it."""
    a = node_annotation(parse_expression(expr).op, *domains)
    return a, build_block(a, G, EdgeSplines())


class TestAddSub:
    def test_add_exact(self):
        _, b = _block("x1+x2", U, U)
        assert _forward(b, 0.3, 0.4) == pytest.approx(0.7, abs=1e-15)
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0
        assert b.c_op == 1

    def test_sub_exact_and_signed_range(self):
        a, b = _block("x1-x2", U, U)
        assert _forward(b, 0.3, 0.4) == pytest.approx(-0.1, abs=1e-15)
        assert a.range == Interval(-1, 1)
        assert b.neuron_ranges == ((a.range,),)
        assert b.lambda_op == 1.0


class TestTrig:
    def test_sin_eps_within_h2_over_8(self):
        _, b = _block("sin(x1)", U, G=35)
        assert b.eps_op <= (1 / 34) ** 2 / 8
        assert b.lambda_op <= 1.0

    def test_cos_lambda_bounded(self):
        for G in (2, 5, 12, 35):
            _, b = _block("cos(x1)", U, G=G)
            assert b.lambda_op <= 1.0

    def test_signed_domain_from_upstream_sub(self):
        _, b = _block("sin(x1)", Interval(-1, 1), G=35)
        assert b.lambda_op <= 1.0
        assert _forward(b, -0.25) == pytest.approx(math.sin(-0.25), abs=b.eps_op)

    def test_measured_error_within_certificate(self):
        for G in (2, 5, 12, 35):
            for name, f in (("sin", math.sin), ("cos", math.cos)):
                _, b = _block(f"{name}(x1)", U, G=G)
                edge = b.layers[0][0][2]
                assert sup_error(f, edge, 4001) <= b.eps_op + 1e-12
                assert b.eps_op <= (1 / (G - 1)) ** 2 / 8 + 1e-12


class TestMul:
    def test_unit_domain(self):
        _, b = _block("x1*x2", U, U)
        assert _forward(b, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0
        assert b.c_op == 2

    def test_zero_to_b_domain_lambda_is_b(self):
        for B in (2.0, 3.0, 5.0):
            _, b = _block("x1*x2", Interval(0, B), Interval(0, B))
            assert b.lambda_op == B

    def test_scaled_forward_exact(self):
        _, b = _block("x1*x2", Interval(0, 2), Interval(0, 2))
        assert _forward(b, 2.0, 2.0) == pytest.approx(4.0, abs=1e-12)
        assert b.lambda_op == 2.0

    def test_internal_ranges(self):
        _, b = _block("x1*x2", U, U)
        (r_a, r_b), (out,) = b.neuron_ranges
        assert r_a == Interval(0, 2)
        assert r_b == Interval(-1, 1)
        assert out == Interval(0, 1)

    @given(intervals, intervals)
    @settings(max_examples=120, deadline=None)
    def test_layer_two_squares_and_negates(self, g, h):
        # neuron 0 carries t^2/4 on range(u+v) and neuron 1 its exact
        # negation on range(u-v), both into the output neuron
        _, b = _block("x1*x2", g, h)
        (r_a, r_b), _ = b.neuron_ranges
        (s0, t0, sq), (s1, t1, neg) = b.layers[1]
        assert (s0, t0, s1, t1) == (0, 0, 1, 0)
        square, ref = _quarter_square(r_a), _quarter_square(r_b)
        for got, want in ((sq, square), (neg, ref)):
            assert got.order == want.order
            np.testing.assert_array_equal(got.knots, want.knots)
        np.testing.assert_array_equal(sq.coefs, square.coefs)
        np.testing.assert_array_equal(neg.coefs, -ref.coefs)
        # on the domain and 5% past either end; array_equal compares floats
        # exactly, with 0.0 equal to -0.0
        lo, hi = ref.domain
        ts = np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 401)
        (got, got_oob), (want, want_oob) = eval_spline_batch(neg, ts), eval_spline_batch(ref, ts)
        np.testing.assert_array_equal(got, -want)
        assert got_oob == want_oob > 0

    @given(intervals, intervals)
    @settings(max_examples=120, deadline=None)
    def test_exact_on_random_signed_domains(self, g, h):
        _, b = _block("x1*x2", g, h)
        rng = np.random.default_rng(0)
        us = rng.uniform(g.lo, g.hi, 64)
        vs = rng.uniform(h.lo, h.hi, 64)
        scale = max(1.0, g.bound * h.bound)
        for u, v in zip(us, vs):
            assert _forward(b, u, v) == pytest.approx(u * v, abs=1e-12 * scale)


class TestPwl:
    def test_relu_mixed_domain(self):
        _, b = _block("relu(x1)", Interval(-1, 1))
        assert _forward(b, -0.5) == 0.0
        assert _forward(b, 0.5) == 0.5
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0

    def test_abs(self):
        _, b = _block("abs(x1)", Interval(-1, 1))
        assert b.lambda_op == 1.0
        assert _forward(b, -0.3) == pytest.approx(0.3, abs=1e-15)

    def test_relu_nonnegative_domain_is_identity(self):
        _, b = _block("relu(x1)", U)
        for t in (0.0, 0.25, 1.0):
            assert _forward(b, t) == t

    def test_relu_nonpositive_domain_is_zero(self):
        _, b = _block("relu(x1)", Interval(-2, -1))
        assert _forward(b, -1.5) == 0.0
        assert b.lambda_op == 0.0


class TestPointInterval:
    """A constant subterm's point range [c, c]: its edges live on [c, c + 1]."""

    @pytest.mark.parametrize("op, f", [("sin", math.sin), ("cos", math.cos), ("relu", lambda t: max(t, 0.0)),
                                       ("abs", abs)])
    def test_unary_is_the_constant_line(self, op, f):
        for c in (-0.5, 0.0, 1.0):
            a, b = _block(f"{op}(x1)", Interval(c, c))
            (_, _, edge), = b.layers[0]
            assert edge.domain == (c, c + 1.0) and edge.coefs.tolist() == [f(c)] * 2
            assert (b.lambda_op, b.eps_op) == (0.0, 0.0)
            assert b.neuron_ranges == ((a.range,),)

    def test_identity_and_negation_stay_exact_lines(self):
        sp = EdgeSplines()
        assert sp.ident(Interval(2.0, 2.0)).coefs.tolist() == [2.0, 3.0]
        assert sp.neg(Interval(2.0, 2.0)).coefs.tolist() == [-2.0, -3.0]
        assert spline_lipschitz(sp.ident(Interval(2.0, 2.0))) == 1.0

    def test_mul_of_two_points_is_constant(self):
        a, b = _block("x1*x2", Interval(3.0, 3.0), Interval(-2.0, -2.0))
        assert _forward(b, 3.0, -2.0) == -6.0
        assert b.lambda_op == _measured_lambda(b) == 0.0
        assert b.neuron_ranges[-1] == (a.range,) == (Interval(-6.0, -6.0),)


class TestCertificate:
    """The block-existence inequality lambda_op <= max(C_op, 1)^c_op, with the
    bound read from the node's annotation."""

    def test_unit_mul(self):
        a, b = _block("x1*x2", U, U)
        assert (b.lambda_op, b.eps_op, b.lambda_op <= a.block_bound) == (1.0, 0.0, True)

    def test_scaled_mul_has_squared_headroom(self):
        a, b = _block("x1*x2", Interval(0, 2), Interval(0, 2))
        assert b.lambda_op == 2.0
        assert a.block_bound == 4.0  # max(2,1)^2
        assert b.lambda_op <= a.block_bound

    def test_coarse_trig_grid(self):
        a, b = _block("sin(x1)", U, G=5)
        assert b.lambda_op <= 1.0
        assert b.eps_op <= 0.25**2 / 8
        assert b.lambda_op <= a.block_bound

    @given(intervals, intervals)
    @settings(max_examples=200, deadline=None)
    def test_a5_holds_on_random_binary_domains(self, g, h):
        for expr in ("x1+x2", "x1-x2", "x1*x2"):
            a, b = _block(expr, g, h)
            assert b.lambda_op <= a.block_bound

    @given(intervals, st.sampled_from([OpKind.SIN, OpKind.COS, OpKind.RELU, OpKind.ABS]))
    @settings(max_examples=200, deadline=None)
    def test_a5_holds_on_random_unary_domains(self, iv, op):
        a, b = _block(f"{op.value}(x1)", iv, G=12)
        assert b.lambda_op <= a.block_bound


class TestInternalConsistency:
    @given(intervals, intervals)
    @settings(max_examples=80, deadline=None)
    def test_lambda_matches_measured_layer_product(self, g, h):
        _, b = _block("x1*x2", g, h)
        assert _measured_lambda(b) == pytest.approx(b.lambda_op, rel=1e-12)

    def test_lambda_measured_exactly_on_integer_domains(self):
        for dom in ((U, U), (Interval(0, 2), Interval(0, 2)), (Interval(-1, 1), Interval(-1, 1))):
            _, b = _block("x1*x2", *dom)
            assert _measured_lambda(b) == b.lambda_op

    def test_block_realizes_its_annotation(self, rng):
        nodes = 0
        for _ in range(200):
            ann = annotate_ranges(random_tree(rng, 6))
            for nid, b in _build_blocks(ann, 12, EdgeSplines()).items():
                a = ann.annotations[nid]
                assert b.c_op == a.c_op
                assert b.neuron_ranges[-1] == (a.range,)
                assert b.lambda_op <= a.block_bound
                nodes += 1
        assert nodes > 500
