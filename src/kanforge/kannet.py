"""Layered edge-spline networks: forward pass, Lipschitz product, Jacobians.

A network is a sequence of sparse transformation layers; layer l maps the
n_l neurons of boundary l to the n_{l+1} neurons of boundary l+1 by summing
one spline per present edge (absent edges contribute zero). Every neuron
carries a provenance tag (input coordinate, forwarded intermediate, or
block-internal wire).

The layer-wise Lipschitz product multiplies, over transformation layers, the
maximum outgoing edge Lipschitz constant of any source neuron; it is exact
because every edge constant is extracted from the spline's derivative
structure rather than sampled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

FORMAT = "kanforge/1"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    spline: Spline


@dataclass(frozen=True, eq=False)
class KanNetwork:
    widths: tuple[int, ...]
    layers: tuple[tuple[Edge, ...], ...]
    wire_tags: tuple[tuple[str, ...], ...]
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
        for l, edges in enumerate(self.layers):
            seen = set()
            for e in edges:
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

    def packed(self) -> kernels.NetPlan:
        """The network's forward plan, built on first use and cached."""
        if self._packed is None:
            object.__setattr__(self, "_packed", kernels.build_plan(self.widths, self.layers))
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

    @property
    def ambient_upper(self) -> float:
        """W^L * P, an upper bound for the network's ambient Lipschitz constant."""
        try:
            return float(self.max_width) ** self.n_layers * self.product
        except OverflowError:
            return float("inf")


def lipschitz_product(net: KanNetwork) -> ProductReport:
    per_layer = []
    for l, edges in enumerate(net.layers):
        m = np.zeros(net.widths[l])
        for e in edges:
            lip = spline_lipschitz(e.spline).value
            if lip > m[e.src]:
                m[e.src] = lip
        per_layer.append(float(m.max()) if m.size else 0.0)
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
    """Central-difference gradient of the scalar network output at x."""
    if step <= 0:
        raise ValueError("step must be positive")
    if net.widths[-1] != 1:
        raise ValueError("jacobian_fd expects a scalar-output network")
    x = np.asarray(x, dtype=np.float64)
    n = net.n_inputs
    pts = np.repeat(x.reshape(1, -1), 2 * n, axis=0)
    for i in range(n):
        pts[2 * i, i] += step
        pts[2 * i + 1, i] -= step
    vals = forward_batch(net, pts)[:, 0]
    return (vals[0::2] - vals[1::2]) / (2.0 * step)


def jacobian_lower_bound(net: KanNetwork, x, step: float = 1e-5) -> float:
    """||J_fd(x)||_2 / W^L: a sampled lower bound for the Lipschitz product."""
    grad = jacobian_fd(net, x, step)
    report = lipschitz_product(net)
    denom = float(report.max_width) ** report.n_layers
    return float(np.linalg.norm(grad)) / denom


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
    """`json.dumps(doc, indent=2)` of the network document, assembled by hand.

    A value nested d levels deep prints as its own indent=2 dump with 2*d more
    spaces after each newline. So every distinct spline is dumped once (the
    compiler shares identity-wire splines across edges) and the fixed edge,
    layer and document skeleton around them is spelled out.
    """
    bodies: dict[int, str] = {}
    layers = []
    for edges in net.layers:
        items = []
        for e in edges:
            body = bodies.get(id(e.spline))
            if body is None:
                body = bodies[id(e.spline)] = _nested(e.spline.to_dict(), 5)
            items.append(
                f'{{\n          "from": {e.src},\n          "to": {e.dst},\n          "spline": {body}\n        }}'
            )
        layers.append('{\n      "edges": ' + _nested_list(items, 3) + "\n    }")
    return (
        '{\n  "format": ' + _nested(FORMAT, 1)
        + ',\n  "widths": ' + _nested(list(net.widths), 1)
        + ',\n  "layers": ' + _nested_list(layers, 1)
        + ',\n  "wire_tags": ' + _nested([list(tags) for tags in net.wire_tags], 1)
        + "\n}"
    )


def _nested(value, depth: int) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _nested_list(items: list[str], depth: int) -> str:
    # a list at `depth` whose items are already printed for depth + 1
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def deserialize(text: str) -> KanNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", "$") from exc
    _require(isinstance(doc, dict), "document must be an object", "$")
    _require(doc.get("format") == FORMAT, f"format must be {FORMAT!r}", "$.format")
    widths = doc.get("widths")
    _require(isinstance(widths, list) and len(widths) >= 2, "widths must be a list of >= 2 ints", "$.widths")
    for m, w in enumerate(widths):
        _require(isinstance(w, int) and w >= 1, "width must be a positive integer", f"$.widths[{m}]")
    raw_layers = doc.get("layers")
    _require(
        isinstance(raw_layers, list) and len(raw_layers) == len(widths) - 1,
        "layers must be a list of length len(widths) - 1",
        "$.layers",
    )
    layers = []
    for l, entry in enumerate(raw_layers):
        path = f"$.layers[{l}]"
        _require(isinstance(entry, dict) and isinstance(entry.get("edges"), list), "layer must carry an edge list", path)
        edges = []
        for i, raw in enumerate(entry["edges"]):
            epath = f"{path}.edges[{i}]"
            _require(isinstance(raw, dict), "edge must be an object", epath)
            src, dst = raw.get("from"), raw.get("to")
            _require(isinstance(src, int) and 0 <= src < widths[l], f"edge source must be in [0, {widths[l]})", f"{epath}.from")
            _require(isinstance(dst, int) and 0 <= dst < widths[l + 1], f"edge target must be in [0, {widths[l + 1]})", f"{epath}.to")
            sp = raw.get("spline")
            _require(isinstance(sp, dict), "edge must carry a spline object", f"{epath}.spline")
            try:
                spline = Spline.from_dict(sp)
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad spline: {exc}", f"{epath}.spline") from exc
            edges.append(Edge(src, dst, spline))
        layers.append(tuple(edges))
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
