"""Layered edge-spline networks: forward pass, Lipschitz product, Jacobians.

A network is a sequence of sparse transformation layers; layer l maps the
n_l neurons of boundary l to the n_{l+1} neurons of boundary l+1 by summing
one spline per present edge (absent edges contribute zero). Every neuron
carries a provenance tag (input coordinate, forwarded intermediate, or
block-internal wire).

The layer-wise Lipschitz product multiplies, over transformation layers, the
maximum outgoing edge Lipschitz constant of any source neuron; it is exact
because every edge constant is extracted from the spline's derivative
structure rather than sampled. Each distinct spline's constant is extracted
once, however many edges share it.

Net files (format `kanforge/3`) are one compact JSON object:

    {"format":"kanforge/3","widths":[...],"splines":[...],
     "layers":[[[src,dst,spline],...],...],"wire_tags":[[...],...]}

`splines` holds one `Spline.to_dict()` per distinct `Spline` object, in order
of first use over the edges in layer order: its constructor fields
`{"order":k,"knots":[...],"coefs":[...]}`. Each layer lists its edges as
`[src, dst, spline_index]` triples. A compiled network forwards every live
value on shared identity wires, so it has far fewer distinct splines than
edges. Loading builds one `Spline` per table entry, so shared splines come
back shared, and `serialize(deserialize(text)) == text` for every text
`serialize` wrote. The document and each table entry hold exactly their
keys; files of earlier formats, whose entries restated `domain` and
`grid_points`, are rejected at `$.format`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .spline import Spline, spline_lipschitz

__all__ = [
    "Edge",
    "KanNetwork",
    "ProductReport",
    "SchemaError",
    "forward",
    "forward_batch",
    "lipschitz_product",
    "jacobian_fd",
    "jacobian_lower_bound",
    "serialize",
    "deserialize",
]

FORMAT = "kanforge/3"
# the keys of a net document
_KEYS = frozenset(("format", "widths", "splines", "layers", "wire_tags"))


class Edge(NamedTuple):
    """One spline from neuron `src` of a boundary to neuron `dst` of the next.
    A named tuple: a wide network has hundreds of edges, built by every
    compile and every load, and a tuple is the cheapest object to build."""

    src: int
    dst: int
    spline: Spline


@dataclass(frozen=True, eq=False)
class KanNetwork:
    widths: tuple[int, ...]
    layers: tuple[tuple[Edge, ...], ...]
    wire_tags: tuple[tuple[str, ...], ...]
    _edges: kernels.EdgeTable = field(init=False, repr=False, default=None)
    _packed: kernels.NetPlan = field(init=False, repr=False, default=None)
    _json: str = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "layers", tuple(tuple(edges) for edges in self.layers))
        object.__setattr__(self, "wire_tags", tuple(tuple(tags) for tags in self.wire_tags))
        if len(self.widths) < 2:
            raise ValueError("a network needs at least one transformation layer")
        if len(self.layers) != len(self.widths) - 1:
            raise ValueError("layer count must be len(widths) - 1")
        if len(self.wire_tags) != len(self.widths):
            raise ValueError("wire_tags must cover every boundary")
        for m, (w, tags) in enumerate(zip(self.widths, self.wire_tags)):
            if w < 1:
                raise ValueError(f"widths[{m}] must be >= 1")
            if len(tags) != w:
                raise ValueError(f"wire_tags[{m}] must have {w} entries")
        # one pass builds the edge table, whose arrays are checked at once;
        # only a failing check walks the layers for the message
        t = kernels.edge_table(self.layers)
        object.__setattr__(self, "_edges", t)
        if t.src.size:
            layer = np.repeat(np.arange(self.n_layers), t.counts)
            w = np.array(self.widths)
            # each (layer, src, dst) as one number: neurons counted over all
            # boundaries. The stable sort is the one the plan's argsort runs;
            # numpy's default sort loads more code (0.3 MB of peak RSS)
            off = np.cumsum(w) - w
            pair = np.sort((off[layer] + t.src) * w.sum() + off[layer + 1] + t.dst, kind="stable")
            if ((t.src < 0) | (t.src >= w[layer]) | (t.dst < 0) | (t.dst >= w[layer + 1])).any() or \
                    (pair[1:] == pair[:-1]).any():
                for l in range(self.n_layers):
                    self._edge_error(l)

    def _edge_error(self, l: int):
        """Raise the ValueError of layer l's first invalid edge."""
        seen = set()
        for e in self.layers[l]:
            if not (0 <= e.src < self.widths[l]):
                raise ValueError(f"layers[{l}] edge source {e.src} out of range")
            if not (0 <= e.dst < self.widths[l + 1]):
                raise ValueError(f"layers[{l}] edge target {e.dst} out of range")
            if (e.src, e.dst) in seen:
                raise ValueError(f"layers[{l}] duplicate edge ({e.src}, {e.dst})")
            seen.add((e.src, e.dst))

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def edge_table(self) -> kernels.EdgeTable:
        """The edges as flat arrays over the distinct splines, built with the
        network: the net file, the plan and the product read it."""
        return self._edges

    def packed(self) -> kernels.NetPlan:
        """The network's forward plan, built on first use and cached."""
        if self._packed is None:
            object.__setattr__(self, "_packed", kernels.build_plan(self.widths, self.edge_table()))
        return self._packed


def forward(net: KanNetwork, x) -> np.ndarray:
    """Evaluate the network at one point; returns the output boundary vector."""
    out = forward_batch(net, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return out[0]


def forward_batch(net: KanNetwork, X) -> np.ndarray:
    """Evaluate over an (npoints, n_0) sample matrix through the network's plan."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ValueError(f"expected (npoints, {net.n_inputs}) inputs, got {X.shape}")
    out, oob = kernels.forward_batch(net.packed(), X)
    if oob:
        from . import spline as _spline

        _spline._record_oob(oob)
    return out


@dataclass(frozen=True)
class ProductReport:
    per_layer: tuple[float, ...]  # mu_l = max_i max_j Lip(phi_{l,i,j})
    product: float                # P = prod_l mu_l
    max_width: int                # W over all boundaries including the input
    n_layers: int


def lipschitz_product(net: KanNetwork) -> ProductReport:
    # m[start[l] + i]: the largest Lipschitz constant on an edge out of neuron
    # i of boundary l; fmax, like a `>` compare, passes over a NaN constant.
    # Each distinct spline's constant is taken once and scattered to its edges
    start = list(itertools.accumulate(net.widths[:-1], initial=0))
    t = net.edge_table()
    lips = np.array([spline_lipschitz(s) for s in t.splines])
    m = np.zeros(start[-1])
    np.fmax.at(m, t.src + np.repeat(start[:-1], t.counts), lips[t.sid])
    per_layer = np.maximum.reduceat(m, start[:-1]).tolist()
    product = 1.0
    for mu in per_layer:
        product *= mu
    return ProductReport(
        per_layer=tuple(per_layer),
        product=product,
        max_width=max(net.widths),
        n_layers=net.n_layers,
    )


def jacobian_fd(net: KanNetwork, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of output neuron 0 at x: the network's value,
    which a `faithful_widths` net carries ahead of its forwarded inputs.

    `x` may also be an (m, n_0) array of points; their (m, n_0) gradients
    come from one forward pass.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    n = net.n_inputs
    if not (x.ndim <= 1 and x.size == n or x.ndim == 2 and x.shape[1] == n):
        raise ValueError(f"expected a point or (npoints, {n}) points, got shape {x.shape}")
    # rows 2i and 2i+1 of each point's block of 2n rows step coordinate i up and down
    pts = np.repeat(x.reshape(-1, n), 2 * n, axis=0).reshape(-1, 2 * n, n)
    coord = np.arange(n)
    pts[:, 2 * coord, coord] += step
    pts[:, 2 * coord + 1, coord] -= step
    vals = forward_batch(net, pts.reshape(-1, n))[:, 0]
    grad = (vals[0::2] - vals[1::2]) / (2.0 * step)
    return grad.reshape(-1, n) if x.ndim == 2 else grad


def jacobian_lower_bound(net: KanNetwork, x, step: float = 1e-5) -> float:
    """max ||J_fd(x)||_2 / W^L over the point x or the (m, n_0) points x: a
    sampled lower bound for the Lipschitz product. When W^L is past the float
    range it returns 0.0, which is still a lower bound."""
    grads = jacobian_fd(net, x, step).reshape(-1, net.n_inputs)
    try:
        denom = float(max(net.widths)) ** net.n_layers
    except OverflowError:
        return 0.0
    return max(float(np.linalg.norm(g)) / denom for g in grads)


class SchemaError(ValueError):
    """Malformed network JSON; `path` points at the offending element."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


def serialize(net: KanNetwork) -> str:
    """The network's JSON text, built on first use and cached on the network."""
    if net._json is None:
        object.__setattr__(net, "_json", _to_json(net))
    return net._json


def _to_json(net: KanNetwork) -> str:
    """One compact `json.dumps` of the network document: the spline table,
    then each layer's `[src, dst, spline_index]` triples."""
    t = net.edge_table()
    triples = iter(np.stack([t.src, t.dst, t.sid], axis=1).tolist())
    layers = [list(itertools.islice(triples, n)) for n in t.counts]
    doc = {
        "format": FORMAT,
        "widths": list(net.widths),
        "splines": [s.to_dict() for s in t.splines],
        "layers": layers,
        "wire_tags": [list(tags) for tags in net.wire_tags],
    }
    # the document is built here, so it holds no cycle to look for
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def _is_index(v) -> bool:
    return type(v) is int  # a JSON integer; bool, an int subclass, is not one


def deserialize(text: str) -> KanNetwork:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit, deep nesting
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    _require(isinstance(doc, dict), "document must be an object", "$")
    _require(doc.get("format") == FORMAT, f"format must be {FORMAT!r}", "$.format")
    # a missing key fails its own check below, at its own path
    _require(doc.keys() <= _KEYS, f"unknown keys {sorted(doc.keys() - _KEYS)}", "$")
    widths = doc.get("widths")
    _require(isinstance(widths, list) and len(widths) >= 2, "widths must be a list of >= 2 ints", "$.widths")
    for m, w in enumerate(widths):
        _require(_is_index(w) and w >= 1, "width must be a positive integer", f"$.widths[{m}]")
    table = doc.get("splines")
    _require(isinstance(table, list), "splines must be a list of spline objects", "$.splines")
    # one Spline per table entry: edges sharing an entry share the spline.
    # Its Lipschitz constant, cached on it, is taken here: an edge without a
    # finite one (order 0, or a derivative past the float range) is bad input
    splines = []
    for i, sp in enumerate(table):
        try:
            s = Spline.from_dict(sp)
            spline_lipschitz(s)
        except ValueError as exc:
            raise SchemaError(f"bad spline: {exc}", f"$.splines[{i}]") from exc
        splines.append(s)
    raw_layers = doc.get("layers")
    _require(
        isinstance(raw_layers, list) and len(raw_layers) == len(widths) - 1,
        "layers must be a list of length len(widths) - 1",
        "$.layers",
    )
    layers = []
    for l, triples in enumerate(raw_layers):
        _require(isinstance(triples, list), "layer must be a list of [src, dst, spline] triples", f"$.layers[{l}]")
        if not triples:
            layers.append(())
            continue
        # the whole layer is checked at once; only a failing check walks it
        # triple by triple for the path
        ok = set(map(type, triples)) == {list} and set(map(len, triples)) == {3}
        if ok:
            src, dst, idx = zip(*triples)
            ok = all(
                set(map(type, col)) == {int} and min(col) >= 0 and max(col) < bound
                for col, bound in ((src, widths[l]), (dst, widths[l + 1]), (idx, len(splines)))
            )
        if not ok:
            _layer_error(triples, l, widths, len(splines))
        layers.append(tuple(map(Edge._make, zip(src, dst, map(splines.__getitem__, idx)))))
    tags = doc.get("wire_tags")
    _require(isinstance(tags, list) and len(tags) == len(widths), "wire_tags must cover every boundary", "$.wire_tags")
    for m, entry in enumerate(tags):
        _require(
            isinstance(entry, list) and len(entry) == widths[m] and all(isinstance(t, str) for t in entry),
            f"wire_tags[{m}] must be {widths[m]} strings",
            f"$.wire_tags[{m}]",
        )
    try:
        return KanNetwork(
            widths=tuple(widths),
            layers=tuple(layers),
            wire_tags=tuple(tuple(entry) for entry in tags),
        )
    except ValueError as exc:
        raise SchemaError(str(exc), "$") from exc


def _layer_error(triples: list, l: int, widths: list, n_splines: int):
    """Raise the SchemaError of layer l's first malformed triple."""
    for i, t in enumerate(triples):
        path = f"$.layers[{l}][{i}]"
        _require(isinstance(t, list) and len(t) == 3, "edge must be a [src, dst, spline] triple", path)
        for value, name, bound in zip(t, ("source", "target", "spline index"), (widths[l], widths[l + 1], n_splines)):
            _require(_is_index(value) and 0 <= value < bound, f"edge {name} must be an integer in [0, {bound})", path)
    raise SchemaError("malformed edge triples", f"$.layers[{l}]")
