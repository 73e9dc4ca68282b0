import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanforge.exprtree import OpKind
from kanforge.primblocks import (
    block_add,
    block_certificate,
    block_mul,
    block_pwl,
    block_sub,
    block_trig,
    build_block,
)
from kanforge.rangecert import Interval
from kanforge.spline import sup_error

U = Interval(0.0, 1.0)

intervals = st.tuples(st.floats(-4, 4), st.floats(0.05, 6)).map(
    lambda ab: Interval(ab[0], ab[0] + ab[1])
)


class TestAddSub:
    def test_add_exact(self):
        b = block_add((U, U))
        assert b.forward(0.3, 0.4) == pytest.approx(0.7, abs=1e-15)
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0
        assert b.c_op == 1

    def test_sub_exact_and_signed_range(self):
        b = block_sub((U, U))
        assert b.forward(0.3, 0.4) == pytest.approx(-0.1, abs=1e-15)
        assert b.output_range == Interval(-1, 1)
        assert b.lambda_op == 1.0


class TestTrig:
    def test_sin_eps_within_h2_over_8(self):
        b = block_trig(OpKind.SIN, U, 35)
        assert b.eps_op <= (1 / 34) ** 2 / 8
        assert b.lambda_op <= 1.0

    def test_cos_lambda_bounded(self):
        for G in (2, 5, 12, 35):
            b = block_trig(OpKind.COS, U, G)
            assert b.lambda_op <= 1.0

    def test_signed_domain_from_upstream_sub(self):
        b = block_trig(OpKind.SIN, Interval(-1, 1), 35)
        assert b.lambda_op <= 1.0
        assert b.forward(-0.25) == pytest.approx(math.sin(-0.25), abs=b.eps_op)

    def test_measured_error_within_certificate(self):
        for G in (2, 5, 12, 35):
            for op, f in ((OpKind.SIN, math.sin), (OpKind.COS, math.cos)):
                b = block_trig(op, U, G)
                edge = b.layers[0].edges[0][2]
                assert sup_error(f, edge, 4001) <= b.eps_op + 1e-12
                assert b.eps_op <= (1 / (G - 1)) ** 2 / 8 + 1e-12


class TestMul:
    def test_unit_domain(self):
        b = block_mul((U, U))
        assert b.forward(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0
        assert b.c_op == 3

    def test_zero_to_b_domain_lambda_is_b(self):
        for B in (2.0, 3.0, 5.0):
            b = block_mul((Interval(0, B), Interval(0, B)))
            assert b.lambda_op == B

    def test_scaled_forward_exact(self):
        b = block_mul((Interval(0, 2), Interval(0, 2)))
        assert b.forward(2.0, 2.0) == pytest.approx(4.0, abs=1e-12)
        assert b.lambda_op == 2.0

    def test_internal_ranges(self):
        b = block_mul((U, U))
        (r_a, r_b), (r_p, r_q), (out,) = b.neuron_ranges
        assert r_a == Interval(0, 2)
        assert r_b == Interval(-1, 1)
        assert r_p == Interval(0, 1)
        assert r_q == Interval(0, 0.25)
        assert out == Interval(0, 1)

    @given(intervals, intervals)
    @settings(max_examples=120, deadline=None)
    def test_exact_on_random_signed_domains(self, g, h):
        b = block_mul((g, h))
        rng = np.random.default_rng(0)
        us = rng.uniform(g.lo, g.hi, 64)
        vs = rng.uniform(h.lo, h.hi, 64)
        scale = max(1.0, g.bound * h.bound)
        for u, v in zip(us, vs):
            assert b.forward(u, v) == pytest.approx(u * v, abs=1e-12 * scale)


class TestPwl:
    def test_relu_mixed_domain(self):
        b = block_pwl(OpKind.RELU, Interval(-1, 1))
        assert b.forward(-0.5) == 0.0
        assert b.forward(0.5) == 0.5
        assert b.lambda_op == 1.0
        assert b.eps_op == 0.0

    def test_abs(self):
        b = block_pwl(OpKind.ABS, Interval(-1, 1))
        assert b.lambda_op == 1.0
        assert b.forward(-0.3) == pytest.approx(0.3, abs=1e-15)

    def test_relu_nonnegative_domain_is_identity(self):
        b = block_pwl(OpKind.RELU, U)
        for t in (0.0, 0.25, 1.0):
            assert b.forward(t) == t

    def test_relu_nonpositive_domain_is_zero(self):
        b = block_pwl(OpKind.RELU, Interval(-2, -1))
        assert b.forward(-1.5) == 0.0
        assert b.lambda_op == 0.0


class TestCertificate:
    def test_unit_mul(self):
        cert = block_certificate(block_mul((U, U)))
        assert (cert.lambda_op, cert.eps_op, cert.a5_ok) == (1.0, 0.0, True)

    def test_scaled_mul_has_cubed_headroom(self):
        cert = block_certificate(block_mul((Interval(0, 2), Interval(0, 2))))
        assert cert.lambda_op == 2.0
        assert cert.a5_ok  # 2 <= max(2,1)^3 = 8

    def test_coarse_trig_grid(self):
        cert = block_certificate(block_trig(OpKind.SIN, U, 5))
        assert cert.lambda_op <= 1.0
        assert cert.eps_op <= 0.25**2 / 8
        assert cert.a5_ok

    @given(intervals, intervals)
    @settings(max_examples=200, deadline=None)
    def test_a5_holds_on_random_binary_domains(self, g, h):
        for builder in (block_add, block_sub, block_mul):
            assert block_certificate(builder((g, h))).a5_ok

    @given(intervals, st.sampled_from([OpKind.SIN, OpKind.COS, OpKind.RELU, OpKind.ABS]))
    @settings(max_examples=200, deadline=None)
    def test_a5_holds_on_random_unary_domains(self, iv, op):
        assert block_certificate(build_block(op, (iv,), G=12)).a5_ok


class TestInternalConsistency:
    @given(intervals, intervals)
    @settings(max_examples=80, deadline=None)
    def test_lambda_matches_measured_layer_product(self, g, h):
        b = block_mul((g, h))
        assert b.measured_lambda() == pytest.approx(b.lambda_op, rel=1e-12)

    def test_lambda_measured_exactly_on_integer_domains(self):
        for dom in ((U, U), (Interval(0, 2), Interval(0, 2)), (Interval(-1, 1), Interval(-1, 1))):
            b = block_mul(dom)
            assert b.measured_lambda() == b.lambda_op
