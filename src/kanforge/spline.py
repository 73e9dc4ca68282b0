"""Univariate B-spline edge functions with exact Lipschitz extraction.

Conventions
-----------
- `order` is the polynomial degree k (cubic = 3); a spline of order k
  reproduces polynomials of degree <= k exactly.
- `knots` is the strictly increasing list of G distinct grid points spanning
  the domain [a, b]; internally the boundary knots are repeated to
  multiplicity k+1 (clamped basis), giving G + k - 1 basis functions.
- Evaluation inside [a, b] is de Boor; outside, the boundary polynomial piece
  is continued linearly and the hit is recorded in a module-level diagnostic
  counter (compiled networks are certified to stay in-domain up to float
  roundoff, so hits indicate roundoff-scale escapes, not errors).

Edges are built by `line_spline` (affine wires), `pl_interpolant` (trig
interpolants) and `quarter_square`, the multiplication block's t^2/4 in
closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "Spline",
    "uniform_knots",
    "pl_interpolant",
    "line_spline",
    "quarter_square",
    "cubic_interpolant",
    "spline_lipschitz",
    "sup_error",
    "oob_hits",
]

_OOB_HITS = 0


def oob_hits() -> int:
    """Running count of out-of-domain evaluations (diagnostic); callers read
    the difference across the work they measure."""
    return _OOB_HITS


def _record_oob(n: int) -> None:
    global _OOB_HITS
    _OOB_HITS += n


def uniform_knots(a: float, b: float, G: int) -> np.ndarray:
    """G equally spaced grid points on [a, b], spacing h = (b - a)/(G - 1)."""
    if G < 2:
        raise ValueError(f"need at least 2 grid points, got {G}")
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    return np.linspace(a, b, G)


@dataclass(frozen=True, eq=False)
class Spline:
    """Clamped B-spline on distinct grid `knots` with `coefs` control values."""

    order: int
    knots: np.ndarray
    coefs: np.ndarray
    _T: np.ndarray = field(init=False, repr=False)
    # (a, b) = (knots[0], knots[-1]) as Python floats
    domain: tuple[float, float] = field(init=False, repr=False)
    # boundary value/slope (fa, sa, fb, sb) for linear continuation outside the domain
    _boundary: tuple[float, float, float, float] = field(init=False, repr=False)
    # spline_lipschitz(self), computed on first use
    _lip: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        k = operator.index(self.order)
        object.__setattr__(self, "order", k)
        knots = np.asarray(self.knots, dtype=np.float64)
        coefs = np.asarray(self.coefs, dtype=np.float64)
        if not 0 <= k < kernels.KMAX:
            raise ValueError(f"order must be in [0, {kernels.KMAX - 1}]")
        # validated and derived on Python floats: the same IEEE arithmetic as
        # on numpy scalars, without a numpy call per field. `<` fails on NaN
        ks = knots.tolist() if knots.ndim == 1 else []
        if len(ks) < 2 or not all(map(operator.lt, ks, ks[1:])) or not math.isfinite(ks[-1] - ks[0]):
            raise ValueError("knots must be >= 2 strictly increasing grid points spanning a finite width")
        expected = len(ks) + k - 1
        if coefs.ndim != 1 or coefs.size != expected:
            raise ValueError(f"expected {expected} coefficients, got {coefs.size}")
        cs = coefs.tolist()
        if not all(map(math.isfinite, cs)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coefs", coefs)
        a, b = ks[0], ks[-1]
        object.__setattr__(self, "_T", np.array([a] * k + ks + [b] * k))
        object.__setattr__(self, "domain", (a, b))
        if k == 0:
            sa = sb = 0.0
        else:
            # the first and last coefficients of derivative(): the clamped
            # knots T[k + 1] - T[1] and T[nb - 1 + k] - T[nb - 1] are the end
            # segments
            sa = k * (cs[1] - cs[0]) / (ks[1] - a)
            sb = k * (cs[-1] - cs[-2]) / (b - ks[-2])
        object.__setattr__(self, "_boundary", (cs[0], sa, cs[-1], sb))

    def derivative(self) -> "Spline":
        """Derivative spline (order k-1 on the same grid). Requires k >= 1."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 spline")
        return Spline(self.order - 1, self.knots, self._derivative_coefs())

    def _derivative_coefs(self) -> np.ndarray:
        # dc[j] = k (c[j+1] - c[j]) / (T[j+k+1] - T[j+1]), elementwise
        k, T, c = self.order, self._T, self.coefs
        nb = c.size
        return k * (c[1:] - c[:-1]) / (T[k + 1 : k + nb] - T[1:nb])

    def __call__(self, t: float) -> float:
        return float(self.eval_batch(np.array([float(t)]))[0])

    def eval_batch(self, ts) -> np.ndarray:
        vals, oob = kernels.eval_spline_batch(self, ts)
        _record_oob(oob)
        return vals

    def to_dict(self) -> dict:
        """The spline's JSON document: its constructor fields by name."""
        return {"order": self.order, "knots": self.knots.tolist(), "coefs": self.coefs.tolist()}


def pl_interpolant(f, a: float, b: float, G: int) -> Spline:
    """Order-1 spline interpolating f at G uniform knots (linear between)."""
    grid = uniform_knots(a, b, G)
    return Spline(1, grid, np.array([float(f(x)) for x in grid]))


def line_spline(a: float, b: float, va: float, vb: float) -> Spline:
    """The affine function through (a, va) and (b, vb) as a 2-knot order-1 spline.

    line_spline(a, b, a, b) is the exact identity wire (Lipschitz exactly 1);
    line_spline(a, b, -a, -b) the exact negation.
    """
    return Spline(1, np.array([a, b]), np.array([va, vb]))


def quarter_square(a: float, b: float) -> Spline:
    """t^2/4 on [a, b], exactly: the order-2 spline on the knots a, (a+b)/2, b.

    Each control value is the polar form (blossom) of t^2/4 at the basis
    function's two inner clamped knots, T[j+1] * T[j+2] / 4, which
    reproduces the polynomial identically (de Boor, A Practical Guide to
    Splines, ch. IX). `+ 0.0` turns a -0.0 product into 0.0.
    """
    grid = uniform_knots(a, b, 3)
    lo, mid, hi = grid.tolist()
    T = (lo, lo, lo, mid, hi, hi, hi)
    return Spline(2, grid, np.array([0.25 * (T[j + 1] * T[j + 2]) + 0.0 for j in range(4)]))


def _basis_matrix(grid: np.ndarray, k: int, ts: np.ndarray) -> np.ndarray:
    nb = grid.size + k - 1
    cols = []
    for j in range(nb):
        c = np.zeros(nb)
        c[j] = 1.0
        cols.append(Spline(k, grid, c).eval_batch(ts))
    return np.column_stack(cols)


def cubic_interpolant(f, a: float, b: float, G: int) -> Spline:
    """Cubic spline interpolating f at G uniform grid points, not-a-knot ends.

    The two extra degrees of freedom of the cubic space are fixed by third-
    derivative continuity across the first and last interior knots. Needs
    G >= 4 (fewer grid points leave no interior knot to absorb the condition).
    """
    if G < 4:
        raise ValueError("not-a-knot cubic interpolation needs G >= 4")
    grid = uniform_knots(a, b, G)
    k = 3
    nb = G + 2
    A = np.zeros((nb, nb))
    rhs = np.zeros(nb)
    A[:G, :] = _basis_matrix(grid, k, grid)
    rhs[:G] = [float(f(x)) for x in grid]
    # third derivative of each basis spline is piecewise constant over segments
    seg3 = np.zeros((G - 1, nb))
    for j in range(nb):
        c = np.zeros(nb)
        c[j] = 1.0
        d3 = Spline(k, grid, c).derivative().derivative().derivative()
        seg3[:, j] = d3.coefs
    A[G, :] = seg3[0] - seg3[1]
    A[G + 1, :] = seg3[G - 3] - seg3[G - 2]
    coefs = np.linalg.solve(A, rhs)
    return Spline(k, grid, coefs)


def _segment_max_abs(s: Spline) -> float:
    # exact sup of |s| on [a, b] for order >= 2: its values at the knots and
    # at the critical points inside each segment. Those come from the piece
    # fitted in its segment's own variable u in [-1, 1], whose coefficients
    # scale as the values of s at any knot spacing; the derivative spline's
    # scale as 1/h and over- or underflow at extreme spacings
    k = s.order
    us = np.polynomial.chebyshev.chebpts1(k + 1)
    grid = s.knots.tolist()
    candidates = np.abs(s.eval_batch(s.knots)).tolist()
    for x0, x1 in zip(grid, grid[1:]):
        half = (x1 - x0) / 2.0
        piece = np.polynomial.Chebyshev.fit(us, s.eval_batch(x0 + half * (us + 1.0)), k, domain=[-1.0, 1.0])
        for root in piece.deriv().roots():
            x = x0 + half * (root.real + 1.0)
            if abs(root.imag) < 1e-9 and x0 < x < x1:
                candidates.append(abs(s(x)))
    return max(candidates)


def spline_lipschitz(s: Spline) -> float:
    """Exact Lipschitz constant: sup of |s'| over the domain.

    The derivative of an order-k spline is an order-(k-1) spline; for k <= 2
    the supremum sits at knots (piecewise constant or linear derivative), for
    higher orders it is located per segment through the derivative's critical
    points, found in the segment's own variable. Computed once per spline and
    cached on it.
    """
    if s._lip is None:
        object.__setattr__(s, "_lip", _sup_abs_derivative(s))
    return s._lip


def _sup_abs_derivative(s: Spline) -> float:
    if s.order == 0:
        raise ValueError("order-0 splines are not Lipschitz edge functions")
    if s.order > 2:
        return _segment_max_abs(s.derivative())
    # the derivative is piecewise constant (k = 1) or a clamped order-1 spline
    # whose control values are its nodal values (k = 2): either way the sup is
    # the largest derivative coefficient in magnitude, read off without
    # building the derivative spline
    val = float(abs(s._derivative_coefs()).max())
    if not math.isfinite(val):
        raise ValueError("non-finite coefficient")
    return val


def sup_error(f, s: Spline, samples: int) -> float:
    """Max |f - s| over `samples` uniform points on the spline's domain."""
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    a, b = s.domain
    ts = np.linspace(a, b, samples)
    fv = np.array([float(f(t)) for t in ts])
    return float(np.max(np.abs(fv - s.eval_batch(ts))))
