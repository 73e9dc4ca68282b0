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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels

__all__ = [
    "Spline",
    "uniform_knots",
    "pl_interpolant",
    "line_spline",
    "exact_poly_spline",
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


def _clamped(knots: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate([np.repeat(knots[0], k), knots, np.repeat(knots[-1], k)])


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

    @staticmethod
    def from_dict(d) -> "Spline":
        """The spline of a `to_dict` document. It must hold exactly the
        constructor fields, each with the JSON type `to_dict` writes (an int
        that is not a bool for `order`, numbers for the floats), so no other
        document is coerced into a spline."""
        exact_keys(d, _FIELDS, "spline")
        order, knots, coefs = d["order"], d["knots"], d["coefs"]
        if type(order) is not int:
            raise ValueError(f"order {order!r} is not an integer")
        for name, vals in (("knots", knots), ("coefs", coefs)):
            if type(vals) is not list or not _NUMBERS.issuperset(map(type, vals)):
                raise ValueError(f"{name} must be a list of numbers")
        try:
            return Spline(order, np.array(knots, dtype=np.float64), np.array(coefs, dtype=np.float64))
        except OverflowError as exc:  # an int past the float range
            raise ValueError(str(exc)) from exc


def init_fields(cls) -> frozenset[str]:
    """The constructor field names of dataclass `cls`: the keys of its JSON
    document."""
    return frozenset(f.name for f in fields(cls) if f.init)


def exact_keys(doc, names: frozenset[str], what: str) -> dict:
    """`doc` when it is a JSON object holding exactly the keys `names`, else a
    ValueError naming `what`. A spline table entry and every level of a
    certificate are their objects' fields under their own names, read back
    under this rule: an unknown key is not ignored and a missing one takes
    no default."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be an object")
    if doc.keys() != names:
        raise ValueError(f"{what} must hold exactly the keys {sorted(names)}: "
                         f"missing {sorted(names - doc.keys())}, unknown {sorted(doc.keys() - names)}")
    return doc


_FIELDS = init_fields(Spline)

# the JSON number types `from_dict` accepts for a float (bool is not one)
_NUMBERS = frozenset((int, float))


def pl_interpolant(f, a: float, b: float, G: int) -> Spline:
    """Order-1 spline interpolating f at G uniform knots (linear between)."""
    grid = uniform_knots(a, b, G)
    vals = np.array([float(f(x)) for x in grid])
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite sample value from interpolated function")
    return Spline(1, grid, vals)


def line_spline(a: float, b: float, va: float, vb: float) -> Spline:
    """The affine function through (a, va) and (b, vb) as a 2-knot order-1 spline.

    line_spline(a, b, a, b) is the exact identity wire (Lipschitz exactly 1);
    line_spline(a, b, -a, -b) the exact negation.
    """
    return Spline(1, np.array([a, b]), np.array([va, vb]))


def _elem_sym(vals: np.ndarray, m: int) -> float:
    # elementary symmetric polynomial e_m(vals)
    e = np.zeros(m + 1)
    e[0] = 1.0
    for v in vals:
        for i in range(min(m, len(vals)), 0, -1):
            e[i] += v * e[i - 1]
    return float(e[m])


def exact_poly_spline(poly_coefs, a: float, b: float, k: int, G: int = 3) -> Spline:
    """Represent a polynomial (coefficients low order first) exactly, k >= degree.

    Control values come from the polar form: the coefficient of basis function
    j is sum_m c_m * e_m(T_{j+1..j+k}) / C(k, m), which reproduces the
    polynomial identically (no approximation step).
    """
    poly_coefs = list(poly_coefs)
    deg = len(poly_coefs) - 1
    while deg > 0 and poly_coefs[deg] == 0:
        deg -= 1
    if k < deg:
        raise ValueError(f"order {k} cannot represent a degree-{deg} polynomial")
    grid = uniform_knots(a, b, G)
    T = _clamped(grid, k)
    nb = grid.size + k - 1
    c = np.zeros(nb)
    for j in range(nb):
        window = T[j + 1 : j + 1 + k]
        acc = 0.0
        for m in range(deg + 1):
            if poly_coefs[m] != 0.0:
                acc += poly_coefs[m] * _elem_sym(window, m) / math.comb(k, m)
        c[j] = acc
    return Spline(k, grid, c)


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


def _segment_poly_max_abs(s: Spline) -> float:
    # exact sup of |s| on [a, b] for order >= 2: per-segment polynomial extrema
    k = s.order
    grid = s.knots
    candidates = [abs(float(v)) for v in s.eval_batch(grid)]
    d = s.derivative()
    for r in range(grid.size - 1):
        x0, x1 = float(grid[r]), float(grid[r + 1])
        # fit the segment of s' exactly (degree k-1) and take its real roots
        xs = np.linspace(x0, x1, k + 1)
        dv = d.eval_batch(xs)
        poly = np.polynomial.Polynomial.fit(xs, dv, k - 1)
        for root in poly.roots():
            if abs(root.imag) < 1e-9 and x0 < root.real < x1:
                candidates.append(abs(float(s(float(root.real)))))
    return max(candidates)


def spline_lipschitz(s: Spline) -> float:
    """Exact Lipschitz constant: sup of |s'| over the domain.

    The derivative of an order-k spline is an order-(k-1) spline; for k <= 2
    the supremum sits at knots (piecewise constant or linear derivative), for
    higher orders it is located per segment through the derivative's critical
    points. Computed once per spline and cached on it.
    """
    if s._lip is None:
        object.__setattr__(s, "_lip", _sup_abs_derivative(s))
    return s._lip


def _sup_abs_derivative(s: Spline) -> float:
    if s.order == 0:
        raise ValueError("order-0 splines are not Lipschitz edge functions")
    if s.order > 2:
        return _segment_poly_max_abs(s.derivative())
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
