import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import network
from kanforge import spline as sp
from kanforge.kannet import SchemaError, deserialize, lipschitz_product, read, serialize


class TestUniformKnots:
    def test_five_points(self):
        np.testing.assert_array_equal(sp.uniform_knots(0, 1, 5), [0, 0.25, 0.5, 0.75, 1])

    def test_two_points(self):
        np.testing.assert_array_equal(sp.uniform_knots(0, 1, 2), [0, 1])

    def test_spacing(self):
        knots = sp.uniform_knots(0, 1, 12)
        np.testing.assert_allclose(np.diff(knots), 1 / 11)

    def test_errors(self):
        with pytest.raises(ValueError):
            sp.uniform_knots(0, 1, 1)
        with pytest.raises(ValueError):
            sp.uniform_knots(1, 1, 5)


class TestPLInterpolant:
    def test_identity_any_grid(self):
        s = sp.pl_interpolant(lambda t: t, 0, 1, 7)
        ts = np.linspace(0, 1, 100)
        np.testing.assert_allclose(s.eval_batch(ts), ts, atol=1e-15)
        assert sp.spline_lipschitz(s) == 1.0

    def test_sin_error_within_classical_bound(self):
        for G in (5, 12, 35):
            s = sp.pl_interpolant(math.sin, 0, 1, G)
            h = 1 / (G - 1)
            assert sp.sup_error(math.sin, s, 3001) <= h * h / 8

    def test_sin_two_knot_secant(self):
        s = sp.pl_interpolant(math.sin, 0, 1, 2)
        # line through (0,0) and (1, sin 1)
        assert sp.spline_lipschitz(s) == pytest.approx(math.sin(1.0), abs=1e-15)
        assert s(0.5) == pytest.approx(math.sin(1.0) / 2)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError):
            sp.pl_interpolant(lambda t: float("nan"), 0, 1, 5)


# (a, b) -> the bit patterns (float.hex) of the four control values of t^2/4
# on [a, b], as the general polar-form recipe this closed form replaced wrote
# them: dyadic, signed, -0.0, 1e-300 and +-1e150 ends
QUARTER_SQUARE_BITS = [
    (0.0, 2.0, ['0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-1', '0x1.0000000000000p+0']),
    (-1.0, 1.0, ['0x1.0000000000000p-2', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-2']),
    (0.0, 1.0, ['0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-3', '0x1.0000000000000p-2']),
    (-2.0, 0.0, ['0x1.0000000000000p+0', '0x1.0000000000000p-1', '0x0.0p+0', '0x0.0p+0']),
    (-0.0, 1.0, ['0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-3', '0x1.0000000000000p-2']),
    (-1.0, -0.0, ['0x1.0000000000000p-2', '0x1.0000000000000p-3', '0x0.0p+0', '0x0.0p+0']),
    (-0.0, 0.5, ['0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-5', '0x1.0000000000000p-4']),
    (-3.0, 5.0, ['0x1.2000000000000p+1', '-0x1.8000000000000p-1', '0x1.4000000000000p+0', '0x1.9000000000000p+2']),
    (0.25, 0.75, ['0x1.0000000000000p-6', '0x1.0000000000000p-5', '0x1.8000000000000p-4', '0x1.2000000000000p-3']),
    (-0.75, -0.25, ['0x1.2000000000000p-3', '0x1.8000000000000p-4', '0x1.0000000000000p-5', '0x1.0000000000000p-6']),
    (-6.0, 2.0, ['0x1.2000000000000p+3', '0x1.8000000000000p+1', '-0x1.0000000000000p+0', '0x1.0000000000000p+0']),
    (1.0, 3.0, ['0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x1.8000000000000p+0', '0x1.2000000000000p+1']),
    (-4.0, -1.0, ['0x1.0000000000000p+2', '0x1.4000000000000p+1', '0x1.4000000000000p-1', '0x1.0000000000000p-2']),
    (0.1, 0.7, ['0x1.47ae147ae147cp-9', '0x1.47ae147ae147cp-7', '0x1.1eb851eb851ebp-4', '0x1.f5c28f5c28f5bp-4']),
    (-0.3, 0.9, ['0x1.70a3d70a3d70ap-6', '-0x1.70a3d70a3d70ap-6', '0x1.147ae147ae148p-4', '0x1.9eb851eb851ecp-3']),
    (-1.7, 2.3, ['0x1.71eb851eb851ep-1', '-0x1.051eb851eb852p-3', '0x1.6147ae147ae15p-3', '0x1.528f5c28f5c28p+0']),
    (0.3, 1.1, ['0x1.70a3d70a3d70ap-6', '0x1.ae147ae147ae1p-5', '0x1.8a3d70a3d70a4p-3', '0x1.35c28f5c28f5dp-2']),
    (-5.5, -2.25, ['0x1.e400000000000p+2', '0x1.5500000000000p+2', '0x1.1700000000000p+1', '0x1.4400000000000p+0']),
    (1e-05, 3e-05, ['0x1.b7cdfd9d7bdbcp-36', '0x1.b7cdfd9d7bdbbp-35', '0x1.49da7e361ce4cp-33', '0x1.eec7bd512b572p-33']),
    (-70000.0, 30000.0, ['0x1.2410110000000p+30', '0x1.4dc9380000000p+28', '-0x1.1e1a300000000p+27', '0x1.ad27480000000p+27']),
    (-0.0025, 0.00125, ['0x1.a36e2eb1c432dp-20', '0x1.a36e2eb1c432ep-22', '-0x1.a36e2eb1c432ep-23', '0x1.a36e2eb1c432dp-22']),
    (123.456, 789.012, ['0x1.dc4b124d099e1p+11', '0x1.b809a63f9a49cp+13', '0x1.5f898673a365cp+16', '0x1.2ff97df4e4430p+17']),
    (-1e-300, 1e-300, ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (0.0, 1e-300, ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (1e-300, 3e-300, ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    (-1e+150, 1e+150, ['0x1.7e43c8800759bp+994', '0x0.0p+0', '0x0.0p+0', '0x1.7e43c8800759bp+994']),
    (1e+150, 3e+150, ['0x1.7e43c8800759bp+994', '0x1.7e43c8800759dp+995', '0x1.1eb2d66005836p+997', '0x1.ae0c419008450p+997']),
    (-2e+150, -1e+150, ['0x1.7e43c8800759bp+996', '0x1.1eb2d66005834p+996', '0x1.1eb2d66005834p+995', '0x1.7e43c8800759bp+994']),
    (-1e+150, 0.0, ['0x1.7e43c8800759bp+994', '0x1.7e43c8800759bp+993', '0x0.0p+0', '0x0.0p+0']),
    (0.0, 1e+150, ['0x0.0p+0', '0x0.0p+0', '0x1.7e43c8800759bp+993', '0x1.7e43c8800759bp+994']),
    (-1e+150, 1.0, ['0x1.7e43c8800759bp+994', '0x1.7e43c8800759bp+993', '-0x1.38d352e5096afp+495', '0x1.0000000000000p-2']),
    (-1.0, 1e+150, ['0x1.0000000000000p-2', '-0x1.38d352e5096afp+495', '0x1.7e43c8800759bp+993', '0x1.7e43c8800759bp+994']),
    (9.313225746154785e-10, 9.5367431640625e-07, ['0x1.0000000000000p-62', '0x1.0040000000000p-53', '0x1.0040000000000p-43', '0x1.0000000000000p-42']),
    (-1099511627776.0, 2199023255552.0, ['0x1.0000000000000p+78', '-0x1.0000000000000p+77', '0x1.0000000000000p+78', '0x1.0000000000000p+80']),
    (-1e-300, 1e+150, ['0x0.0p+0', '-0x1.a2fe76a3f9475p-502', '0x1.7e43c8800759bp+993', '0x1.7e43c8800759bp+994']),
    (-1e+150, -1e-300, ['0x1.7e43c8800759bp+994', '0x1.7e43c8800759bp+993', '0x1.a2fe76a3f9475p-502', '0x0.0p+0']),
    (1.0, 1.0000000000000009, ['0x1.0000000000000p-2', '0x1.0000000000002p-2', '0x1.0000000000006p-2', '0x1.0000000000008p-2']),
    (-3.75, -0.0, ['0x1.c200000000000p+1', '0x1.c200000000000p+0', '0x0.0p+0', '0x0.0p+0']),
]


class TestExactPoly:
    """t^2/4 as the order-2 spline `quarter_square`, exactly."""

    def test_quarter_square_value(self):
        s = sp.quarter_square(0, 2)
        assert s(1.0) == 0.25
        assert s(2.0) == 1.0

    def test_lipschitz_on_symmetric_domain(self):
        assert sp.spline_lipschitz(sp.quarter_square(-1, 1)) == 0.5

    def test_lipschitz_attained_at_right_end(self):
        assert sp.spline_lipschitz(sp.quarter_square(0, 2)) == 1.0

    @pytest.mark.parametrize("a, b, bits", QUARTER_SQUARE_BITS)
    def test_coefficient_bits_pinned(self, a, b, bits):
        s = sp.quarter_square(a, b)
        assert (s.order, s.knots.tolist()) == (2, sp.uniform_knots(a, b, 3).tolist())
        assert [c.hex() for c in s.coefs.tolist()] == bits

    def test_product_overflow_rejected(self):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            sp.quarter_square(-1e200, 1e200)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_values_match_scipy_within_ulps(self, a, width):
        # the scipy B-spline of the same knots and control values is t^2/4 up
        # to a few roundings of the largest value on the domain
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        b = a + width
        if not a < (a + b) / 2 < b:
            return
        s = sp.quarter_square(a, b)
        ts = np.linspace(a, b, 65)
        ulp = math.ulp(max(a * a, b * b) / 4.0)
        assert np.max(np.abs(BSpline(s._T, s.coefs, 2)(ts) - ts * ts / 4.0)) <= 8 * ulp


class TestEval:
    def test_identity(self):
        assert sp.line_spline(0, 1, 0, 1)(0.7) == 0.7

    def test_pl_sin_near_half(self):
        s = sp.pl_interpolant(math.sin, 0, 1, 35)
        assert abs(s(0.51) - math.sin(0.51)) < 2e-4

    # the last case has finite ends but a width that overflows
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("knots", [[0.0, math.inf], [-math.inf, 0.0, 1.0], [0.0, math.nan], [-1e308, 1e308]])
    def test_rejects_non_finite_knots(self, knots):
        with pytest.raises(ValueError):
            sp.Spline(1, np.array(knots), np.zeros(len(knots)))

    def test_out_of_domain_linear_continuation_and_counter(self):
        s = sp.quarter_square(0, 2)
        before = sp.oob_hits()
        # boundary slope at b=2 is 1, so s(3) continues as 1 + 1*(3-2)
        assert s(3.0) == pytest.approx(2.0)
        assert s(-1.0) == pytest.approx(0.0)  # slope 0 at a=0
        assert sp.oob_hits() - before == 2

    def test_flat_end_at_infinity_is_the_end_value(self):
        # slope 0 at a = 0: the continuation skips 0*inf, without a warning
        s = sp.quarter_square(0.0, 2.0)
        hinge = sp.Spline(1, np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        with np.errstate(all="raise"):
            assert s.eval_batch(np.array([-math.inf, math.inf])).tolist() == [0.0, math.inf]
            assert hinge.eval_batch(np.array([-math.inf, math.inf])).tolist() == [0.0, math.inf]
            flat = sp.line_spline(0.0, 1.0, 3.0, 3.0)
            assert flat.eval_batch(np.array([-math.inf, math.inf])).tolist() == [3.0, 3.0]

    def test_derived_fields_bit_equal_to_array_forms(self, rng):
        # domain, clamped knots and boundary value/slope, derived on Python
        # floats, equal their numpy forms bit for bit: the slopes are the
        # first and last coefficients of derivative()
        for _ in range(300):
            k = int(rng.integers(0, 6))
            G = int(rng.integers(2, 9))
            knots = np.sort(rng.normal(0, 3, G)) * 10.0 ** rng.integers(-8, 9)
            if rng.random() < 0.2:
                knots[0] = -0.0 if knots[1] > 0 else knots[0]
            if not np.all(np.diff(knots) > 0):
                continue
            coefs = rng.normal(0, 2, G + k - 1) * 10.0 ** rng.integers(-8, 9)
            s = sp.Spline(k, knots, coefs)
            T = np.concatenate([np.repeat(knots[0], k), knots, np.repeat(knots[-1], k)])
            assert s._T.tobytes() == T.tobytes()
            assert np.array(s.domain).tobytes() == knots[[0, -1]].tobytes()
            fa, sa, fb, sb = s._boundary
            assert np.array([fa, fb]).tobytes() == coefs[[0, -1]].tobytes()
            if k:
                d = s._derivative_coefs()
                assert np.array([sa, sb]).tobytes() == d[[0, -1]].tobytes()
            else:
                assert sa == sb == 0.0

    def test_scipy_oracle_random_splines(self, rng):
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        for _ in range(100):
            k = int(rng.integers(0, 5))
            G = int(rng.integers(2, 9))
            a, b = sorted(rng.normal(0, 3, 2))
            if b - a < 1e-3:
                continue
            grid = np.linspace(a, b, G)
            coefs = rng.normal(0, 2, G + k - 1)
            mine = sp.Spline(k, grid, coefs)
            ref = BSpline(mine._T, coefs, k)
            ts = np.append(rng.uniform(a, b, 64), [a, b])
            np.testing.assert_allclose(mine.eval_batch(ts), ref(ts), atol=1e-11)
            # up to one domain length outside: the nearer end's value and
            # slope, continued linearly (slope 0 at order 0)
            below = rng.uniform(a - (b - a), a, 32)
            above = b + rng.uniform(0, b - a, 32)
            end = np.repeat([a, b], 32)
            slope = ref.derivative()(end) if k else np.zeros(end.size)
            ts = np.append(below, above)
            before = sp.oob_hits()
            np.testing.assert_allclose(
                mine.eval_batch(ts), ref(end) + slope * (ts - end), atol=1e-11
            )
            assert sp.oob_hits() - before == ts.size


class TestLipschitz:
    def test_pl_sin_is_max_secant(self):
        for G in (2, 5, 12, 35):
            s = sp.pl_interpolant(math.sin, 0, 1, G)
            secants = np.abs(np.diff(np.sin(s.knots)) / np.diff(s.knots))
            lip = sp.spline_lipschitz(s)
            assert lip == pytest.approx(secants.max(), abs=1e-15)
            assert lip <= 1.0

    def test_mvt_bound_for_trig(self, rng):
        for _ in range(40):
            a = rng.uniform(-6, 6)
            b = a + rng.uniform(0.05, 5)
            for f in (math.sin, math.cos):
                s = sp.pl_interpolant(f, a, b, int(rng.integers(2, 40)))
                assert sp.spline_lipschitz(s) <= 1.0 + 1e-15

    def test_zero_spline(self):
        s = sp.Spline(1, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert sp.spline_lipschitz(s) == 0.0

    def test_order_zero_rejected(self):
        s = sp.Spline(0, np.array([0.0, 1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            sp.spline_lipschitz(s)

    def test_matches_dense_slope_scan(self, rng):
        # derivative-structure extraction vs brute-force finite differences
        for _ in range(20):
            k = int(rng.integers(1, 5))
            G = int(rng.integers(3, 9))
            grid = np.linspace(0, 1, G)
            s = sp.Spline(k, grid, rng.normal(0, 2, G + k - 1))
            ts = np.linspace(0, 1, 100_001)
            vals = s.eval_batch(ts)
            fd = np.max(np.abs(np.diff(vals))) / (ts[1] - ts[0])
            lip = sp.spline_lipschitz(s)
            assert fd <= lip * (1 + 1e-6) + 1e-9
            assert lip <= fd * (1 + 1e-3) + 1e-6


def _sampled_lipschitz(s, n=2001):
    """max |s'| over n points per segment, by scipy's BSpline, sampled again
    at n points around every local maximum of that sample."""
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    ds = BSpline(s._T, s.coefs, s.order).derivative()
    g = s.knots.tolist()
    best = 0.0
    for x0, x1 in zip(g, g[1:]):
        xs = np.linspace(x0, x1, n)
        v = np.abs(ds(xs))
        padded = np.concatenate(([-1.0], v, [-1.0]))
        for i in np.flatnonzero((v >= padded[:-2]) & (v >= padded[2:])).tolist():
            fine = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, n - 1)], n)
            best = max(best, float(np.max(np.abs(ds(fine)))))
    return best


class TestHighOrderLipschitz:
    """Orders >= 3 locate the critical points of |s'| on each segment in the
    segment's own variable, so no coefficient scales as a power of 1/h: a
    second-derivative spline's coefficients scale as h^-2 and under- or
    overflow at extreme knot spacings."""

    # 4 ulps: scipy and de Boor round the derivative's values differently
    ROUNDING = 4 * np.finfo(float).eps

    @pytest.mark.parametrize("grid, scale, coefs, expected", [
        ([1.0, 2.0, 3.0, 4.0], 1e200, [0.0, 0.0, 2.0, -1.0, 1.0, 1.0], 1.5e-200),
        ([1.0, 2.0, 3.5, 4.0], 1e-160, [0.3, -1.0, 0.5, 2.0, -0.7, 0.1], 4.8e160),
    ], ids=["spacing-1e200", "spacing-1e-160"])
    def test_extreme_spacing(self, grid, scale, coefs, expected):
        s = sp.Spline(3, np.array(grid) * scale, np.array(coefs))
        lip = sp.spline_lipschitz(s)
        assert lip == pytest.approx(expected, rel=1e-12)
        sampled = _sampled_lipschitz(s)
        assert sampled * (1 - self.ROUNDING) <= lip <= sampled * (1 + 1e-6)

    def test_extreme_spacing_net_file_loads(self):
        # loading a net file extracts each table entry's constant
        knots = np.array([1.0, 2.0, 3.5, 4.0]) * 1e-160
        s = sp.Spline(3, knots, np.array([0.3, -1.0, 0.5, 2.0, -0.7, 0.1]))
        net = deserialize(serialize(network((1, 1), (s,), [[(0, 0, 0)]])))
        assert lipschitz_product(net).product == pytest.approx(4.8e160, rel=1e-12)

    @given(
        st.integers(3, 5),
        st.lists(st.floats(0.2, 2.0), min_size=2, max_size=6),
        st.floats(-150, 250),
        st.lists(st.floats(-3, 3), min_size=11, max_size=11),
    )
    @example(3, [1.0, 1.0, 1.0], 200.0, [0.0, 0.0, 2.0, -1.0, 1.0, 1.0] + [0.0] * 5)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sample_at_any_scale(self, k, gaps, exponent, coefs):
        knots = np.cumsum([1.0] + gaps) * 10.0 ** exponent
        if not np.all(np.diff(knots) > 0):
            return
        s = sp.Spline(k, knots, np.array(coefs[: knots.size + k - 1]))
        lip = sp.spline_lipschitz(s)
        sampled = _sampled_lipschitz(s)
        assert sampled * (1 - self.ROUNDING) <= lip <= sampled * (1 + 1e-6)

class TestClosedFormLipschitz:
    """Orders 1 and 2 read the constant off the derivative coefficients
    without building the derivative spline; it must match bit for bit."""

    @staticmethod
    def _reference(s):
        # the derivative coefficients one at a time, as de Boor writes them
        k, T, c = s.order, s._T, s.coefs
        dc = [k * (c[j + 1] - c[j]) / (T[j + k + 1] - T[j + 1]) for j in range(c.size - 1)]
        return float(np.max(np.abs(dc)))

    def _splines(self, rng):
        for _ in range(400):
            k = int(rng.integers(1, 3))
            G = int(rng.integers(2, 12))
            a = float(rng.uniform(-5, 5))
            b = a + float(rng.uniform(1e-3, 10))
            if rng.random() < 0.5:
                grid = np.linspace(a, b, G)
            else:
                grid = np.sort(rng.uniform(a, b, G))
                grid[0], grid[-1] = a, b
                if not np.all(np.diff(grid) > 0):
                    continue
            yield sp.Spline(k, grid, rng.normal(0, 3, G + k - 1))
        # two-knot wires (identity, negation, scaled) and relu/abs hinges
        for lo, hi in ((0.0, 1.0), (-0.0, 2.5), (-3.0, -0.0), (-1.7, 0.3)):
            yield sp.line_spline(lo, hi, lo, hi)
            yield sp.line_spline(lo, hi, -lo, -hi)
            yield sp.line_spline(lo, hi, 0.0, 1.0)
        for lo, hi in ((-1.0, 2.0), (-0.5, 0.25)):
            yield sp.Spline(1, np.array([lo, 0.0, hi]), np.array([0.0, 0.0, hi]))
            yield sp.Spline(1, np.array([lo, 0.0, hi]), np.array([-lo, 0.0, hi]))

    def test_bitwise_equal_to_derivative_coefficients(self, rng):
        count = 0
        for s in self._splines(rng):
            lip = sp.spline_lipschitz(s)
            assert type(lip) is float and lip == self._reference(s)
            assert lip == float(np.max(np.abs(s.derivative().coefs)))
            assert sp.spline_lipschitz(s) is sp.spline_lipschitz(s)
            count += 1
        assert count > 300

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_derivative_rejected(self):
        s = sp.Spline(1, np.array([0.0, 1e-300]), np.array([-1e300, 1e300]))
        with pytest.raises(ValueError):
            sp.spline_lipschitz(s)


class TestSupError:
    def test_identity_zero(self):
        s = sp.line_spline(0, 1, 0, 1)
        assert sp.sup_error(lambda t: t, s, 1001) <= 1e-15

    def test_cubic_fit_matches_reported_errors(self):
        # reference: 7.25e-5 / 1.52e-6 / 1.74e-8 at G = 5 / 12 / 35
        for G, expected in ((5, 7.25e-5), (12, 1.52e-6), (35, 1.74e-8)):
            s = sp.cubic_interpolant(math.sin, 0, 1, G)
            err = sp.sup_error(math.sin, s, 4001)
            assert expected / 10 < err < expected * 10

    def test_rate_ratio_constant(self):
        ratios = []
        for G in (5, 12, 35):
            s = sp.cubic_interpolant(math.sin, 0, 1, G)
            ratios.append(sp.sup_error(math.sin, s, 4001) * (G - 1) ** 4)
        assert max(ratios) / min(ratios) < 2.0

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            sp.sup_error(math.sin, sp.line_spline(0, 1, 0, 1), 1)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        s = sp.pl_interpolant(math.sin, 0.1, 2.3, 17)
        import json

        d = json.loads(json.dumps(s.to_dict()))
        s2 = read(sp.Spline, d)
        assert np.array_equal(s.knots, s2.knots)
        assert np.array_equal(s.coefs, s2.coefs)
        ts = rng.uniform(0.1, 2.3, 50)
        assert np.array_equal(s.eval_batch(ts), s2.eval_batch(ts))

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("coefs"), "coefs"),
        (lambda d: d.update(grid_points=17), "grid_points"),
    ], ids=["missing", "unknown"])
    def test_inexact_keys_rejected(self, edit, key):
        # a document holds exactly the constructor fields
        d = sp.pl_interpolant(math.sin, 0.1, 2.3, 17).to_dict()
        assert d.keys() == {"order", "knots", "coefs"}
        edit(d)
        with pytest.raises(ValueError, match=key):
            read(sp.Spline, d)

    @pytest.mark.parametrize("field, value", [
        ("order", 1.9),
        ("order", 1.0),
        ("order", True),
        ("order", "1"),
        ("knots", ["0", "1"]),
        ("knots", [False, True]),
        ("knots", "01"),
        ("coefs", [True, False]),
        ("coefs", [None, 1.0]),
    ])
    def test_coerced_json_values_rejected(self, field, value):
        # only the JSON types to_dict writes load: no bool or float for an int,
        # no string or bool for a float
        d = sp.line_spline(0.0, 1.0, 0.0, 1.0).to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=field):
            read(sp.Spline, d)

    def test_integer_knots_and_coefficients_load_as_floats(self):
        d = sp.line_spline(0.0, 1.0, 0.0, 1.0).to_dict()
        d.update(knots=[0, 1], coefs=[0, 1])
        s = read(sp.Spline, d)
        assert s.to_dict() == sp.line_spline(0.0, 1.0, 0.0, 1.0).to_dict()
        assert s.knots.dtype == s.coefs.dtype == np.float64

    def test_integer_past_float_range_rejected(self):
        d = sp.line_spline(0.0, 1.0, 0.0, 1.0).to_dict()
        d["coefs"] = [0, 10**400]
        with pytest.raises(SchemaError) as exc:
            read(sp.Spline, d)
        assert exc.value.path == "$.coefs"
