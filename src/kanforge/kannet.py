"""Layered edge-spline networks: forward pass, Lipschitz product, Jacobians.

A network is a sequence of sparse transformation layers; layer l maps the
n_l neurons of boundary l to the n_{l+1} neurons of boundary l+1 by summing
one spline per present edge (absent edges contribute zero). Every neuron
carries a provenance tag (input coordinate, forwarded intermediate, or
block-internal wire).

The layer-wise Lipschitz product multiplies, over transformation layers, the
maximum outgoing edge Lipschitz constant of any source neuron; it is exact
because every edge constant is extracted from the spline's derivative
structure rather than sampled. Each table entry's constant is extracted
once, however many edges share it.

`KanNetwork` holds a network in its net file's form, which the compiler and
the loader build and the plan, the product and `serialize` read. Net files
(format `kanforge/3`) are one compact JSON object:

    {"format":"kanforge/3","widths":[...],"splines":[...],
     "layers":[[[src,dst,spline],...],...],"wire_tags":[[...],...]}

`splines` is the spline table, one `Spline.to_dict()` per entry: its
constructor fields `{"order":k,"knots":[...],"coefs":[...]}`. Each layer
lists its edges as `[src, dst, spline_index]` triples. A compiled network
forwards every live value on shared identity wires, so its table has far
fewer entries than it has edges. The table is kept in order of first use
over the edges in layer order, without unused entries, so
`serialize(deserialize(text)) == text` for every text `serialize` wrote and
a permuted or padded table re-serializes to that text. Loading builds one
`Spline` per table entry, so shared splines come back shared. The document
and each table entry hold exactly their keys; files of earlier formats,
whose entries restated `domain` and `grid_points`, are rejected at `$.format`.

`deserialize` checks a file's JSON types, each layer as `[int, int, int]`
triples; the `KanNetwork` constructor checks its structure: widths, with at
most `exprtree.MAX_COORD` inputs, layer and tag counts, and every edge
against them. A library caller's triples
that are not integers within intp fail there as a file's do. Each check is made once, and
each fault is a SchemaError at its element's path in the file.
"""

from __future__ import annotations

import functools
import itertools
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import kernels
from .exprtree import MAX_COORD
from .spline import Spline, _record_oob, spline_lipschitz

__all__ = [
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
    "loads",
    "read",
]

FORMAT = "kanforge/3"
# the keys of a net document
_KEYS = frozenset(("format", "widths", "splines", "layers", "wire_tags"))


class Edge(typing.NamedTuple):
    """One edge of the `KanNetwork.layers` view: the spline from neuron `src`
    of a boundary to neuron `dst` of the next."""

    src: int
    dst: int
    spline: Spline


class SchemaError(ValueError):
    """Malformed JSON input; `path` points at the offending element."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


@dataclass(frozen=True, eq=False)
class KanNetwork:
    """The net file's form. The constructor checks the structure (a fault is a
    SchemaError at its net file path), renumbers the table to first use, drops
    unused entries and keeps equal but distinct splines apart. The triples are
    read-only."""

    widths: tuple[int, ...]
    splines: tuple[Spline, ...]  # the spline table
    edges: np.ndarray            # (E, 3) [src, dst, spline index] per edge, in layer order
    counts: tuple[int, ...]      # edges per layer
    wire_tags: tuple[tuple[str, ...], ...]
    _packed: kernels.NetPlan = field(init=False, repr=False, default=None)
    _json: str = field(init=False, repr=False, default=None)

    def __post_init__(self):
        widths, splines, counts = tuple(self.widths), tuple(self.splines), tuple(self.counts)
        # a copy, since the table renumbering writes to it. Only an array's
        # dtype is trusted: numpy infers int64 for a list holding True, so a
        # list or tuple is read as objects, as a net file's layers are
        edges = np.array(self.edges, dtype=None if isinstance(self.edges, np.ndarray) else object).reshape(-1, 3)
        object.__setattr__(self, "wire_tags", tuple(tuple(tags) for tags in self.wire_tags))
        if len(widths) < 2:
            raise SchemaError("a network needs at least one transformation layer", "$.widths")
        if len(counts) != len(widths) - 1:
            raise SchemaError("layer count must be len(widths) - 1", "$.layers")
        # no file splits its edges wrongly: each layer's count is its length
        if min(counts) < 0 or sum(counts) != len(edges):
            raise ValueError("counts must split the edges into layers")
        if len(self.wire_tags) != len(widths):
            raise SchemaError("wire_tags must cover every boundary", "$.wire_tags")
        for m, (w, tags) in enumerate(zip(widths, self.wire_tags)):
            if w < 1:
                raise SchemaError(f"widths[{m}] must be >= 1", f"$.widths[{m}]")
            if len(tags) != w:
                raise SchemaError(f"wire_tags[{m}] must have {w} entries", f"$.wire_tags[{m}]")
        # n_0 = n: no expression reads more coordinates, and the sampled
        # checks draw a column per input
        if widths[0] > MAX_COORD:
            raise SchemaError(f"widths[0] must be at most {MAX_COORD}", "$.widths[0]")
        if edges.dtype != np.intp:
            edges = _intp_triples(edges, counts)
        _check_edges(widths, len(splines), edges, counts)
        # the table in order of first use; unused entries are dropped
        first = list(dict.fromkeys(edges[:, 2].tolist()))
        if first != list(range(len(splines))):
            renumber = np.zeros(len(splines), dtype=np.intp)
            renumber[first] = np.arange(len(first))
            edges[:, 2] = renumber[edges[:, 2]]
            splines = tuple(splines[k] for k in first)
        edges.flags.writeable = False
        for name, value in (("widths", widths), ("splines", splines), ("edges", edges), ("counts", counts)):
            object.__setattr__(self, name, value)

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_layers(self) -> int:
        return len(self.counts)

    @property
    def layers(self) -> tuple[tuple[Edge, ...], ...]:
        """Each layer's edges as `Edge` records, built on every access: only
        the benchmark's trace counters read them, the program reads the
        arrays."""
        edges = iter([Edge(s, d, self.splines[k]) for s, d, k in self.edges.tolist()])
        return tuple(tuple(itertools.islice(edges, n)) for n in self.counts)

    def packed(self) -> kernels.NetPlan:
        """The network's forward plan, built on first use and cached."""
        if self._packed is None:
            object.__setattr__(self, "_packed", kernels.build_plan(self))
        return self._packed


def _intp_triples(edges: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """`edges`, triples of another dtype than intp, as intp. A triple that is
    not three integers within intp fails as in a net file: a SchemaError at
    `$.layers[l][i]`, found on the values as given."""
    if edges.size == 0 or edges.dtype.kind in "iu" and edges.max() <= np.iinfo(np.intp).max:
        return edges.astype(np.intp)
    values = edges.tolist()
    triples = iter(values)
    _layer_error([list(itertools.islice(triples, n)) for n in counts])
    return np.array(values, dtype=np.intp)


def _check_edges(widths: tuple[int, ...], n_splines: int, edges: np.ndarray, counts: tuple[int, ...]):
    """Raise the SchemaError of the first invalid edge, in layer order, at
    `$.layers[l][i]`: a source, target or spline index out of range, or a
    (source, target) pair already taken in its layer."""
    layer = np.repeat(np.arange(len(counts)), counts)
    w = np.array(widths)
    src, dst, sid = edges.T
    bad = (src < 0) | (src >= w[layer]) | (dst < 0) | (dst >= w[layer + 1]) | (sid < 0) | (sid >= n_splines)
    # each (layer, src, dst) as one number: neurons counted over all
    # boundaries. The stable sort marks every repeat after the pair's first
    # edge; numpy's default sort loads more code (0.3 MB of peak RSS)
    off = np.cumsum(w) - w
    pair = (off[layer] + src) * w.sum() + off[layer + 1] + dst
    order = np.argsort(pair, kind="stable")
    bad[order[1:][pair[order[1:]] == pair[order[:-1]]]] = True
    if not bad.any():
        return
    i = int(np.flatnonzero(bad)[0])
    l = int(layer[i])
    s, d, k = edges[i].tolist()
    path = f"$.layers[{l}][{i - sum(counts[:l])}]"
    if not 0 <= s < widths[l]:
        raise SchemaError(f"layers[{l}] edge source {s} out of range", path)
    if not 0 <= d < widths[l + 1]:
        raise SchemaError(f"layers[{l}] edge target {d} out of range", path)
    if not 0 <= k < n_splines:
        raise SchemaError(f"layers[{l}] edge spline index {k} out of range", path)
    raise SchemaError(f"layers[{l}] duplicate edge ({s}, {d})", path)


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
        _record_oob(oob)
    return out


@dataclass(frozen=True)
class ProductReport:
    per_layer: tuple[float, ...]  # mu_l = max_i max_j Lip(phi_{l,i,j})
    product: float                # P = prod_l mu_l


def lipschitz_product(net: KanNetwork) -> ProductReport:
    # m[start[l] + i]: the largest Lipschitz constant on an edge out of neuron
    # i of boundary l; fmax, like a `>` compare, passes over a NaN constant.
    # Each table entry's constant is taken once and scattered to its edges
    start = list(itertools.accumulate(net.widths[:-1], initial=0))
    lips = np.array([spline_lipschitz(s) for s in net.splines])
    m = np.zeros(start[-1])
    np.fmax.at(m, net.edges[:, 0] + np.repeat(start[:-1], net.counts), lips[net.edges[:, 2]])
    per_layer = np.maximum.reduceat(m, start[:-1]).tolist()
    product = 1.0
    for mu in per_layer:
        product *= mu
    return ProductReport(per_layer=tuple(per_layer), product=product)


# the central-difference step of `jacobian_fd`
FD_STEP = 1e-5


def jacobian_fd(net: KanNetwork, x) -> np.ndarray:
    """Central-difference gradient of output neuron 0 at x, with step
    `FD_STEP`: the network's value, which a `faithful_widths` net carries
    ahead of its forwarded inputs.

    `x` may also be an (m, n_0) array of points; their (m, n_0) gradients
    come from one forward pass per `kernels.block_rows(n_0)` stepped rows
    (`kernels.CHUNK` up to 16 inputs, fewer above), so memory stays bounded
    for any m and any n_0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = net.n_inputs
    if not (x.ndim <= 1 and x.size == n or x.ndim == 2 and x.shape[1] == n):
        raise ValueError(f"expected a point or (npoints, {n}) points, got shape {x.shape}")
    points = x.reshape(-1, n)
    grad = np.empty(points.shape)
    per_block = max(1, kernels.block_rows(n) // (2 * n))
    coord = np.arange(n)
    # rows 2i and 2i+1 of each point's block of 2n rows step coordinate i up
    # and down; every block of points is stepped in this one buffer
    buf = np.empty((min(per_block, len(points)), 2 * n, n))
    for start in range(0, len(points), per_block):
        block = points[start : start + per_block]
        pts = buf[: len(block)]
        pts[:] = block[:, None, :]
        pts[:, 2 * coord, coord] += FD_STEP
        pts[:, 2 * coord + 1, coord] -= FD_STEP
        vals = forward_batch(net, pts.reshape(-1, n))[:, 0]
        # overflowed values difference to inf or NaN, as in the forward
        with np.errstate(over="ignore", invalid="ignore"):
            grad[start : start + len(block)] = ((vals[0::2] - vals[1::2]) / (2.0 * FD_STEP)).reshape(-1, n)
    return grad if x.ndim == 2 else grad[0]


def jacobian_lower_bound(net: KanNetwork, x) -> float:
    """max ||J_fd(x)||_2 / W^L over the point x or the (m, n_0) points x: a
    sampled lower bound for the Lipschitz product. When W^L is past the float
    range it returns 0.0, which is still a lower bound. A NaN gradient at any
    point makes the result NaN."""
    grads = jacobian_fd(net, x).reshape(-1, net.n_inputs)
    try:
        denom = float(max(net.widths)) ** net.n_layers
    except OverflowError:
        return 0.0
    # np.max, unlike Python's max, keeps a NaN wherever it stands
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(g) for g in grads])
    return float(np.max(norms / denom))


def serialize(net: KanNetwork) -> str:
    """The network's JSON text, built on first use and cached on the network."""
    if net._json is None:
        object.__setattr__(net, "_json", _to_json(net))
    return net._json


def _to_json(net: KanNetwork) -> str:
    """One compact `json.dumps` of the network document: the spline table,
    then each layer's `[src, dst, spline_index]` triples."""
    triples = iter(net.edges.tolist())
    layers = [list(itertools.islice(triples, n)) for n in net.counts]
    doc = {
        "format": FORMAT,
        "widths": list(net.widths),
        "splines": [s.to_dict() for s in net.splines],
        "layers": layers,
        "wire_tags": [list(tags) for tags in net.wire_tags],
    }
    # the document is built here, so it holds no cycle to look for
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


def _unique(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def loads(text: str):
    """The JSON value of `text`; invalid JSON, nesting too deep to decode and a
    repeated key (RFC 8259 section 4 leaves repeats open) are a SchemaError at `$`."""
    try:
        return json.loads(text, object_pairs_hook=_unique)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc


class _Bad(Exception):
    """args: the message, then the bad value's path parts, innermost first."""


def read(tp, value, path: str = "$"):
    """`value`, decoded JSON, as the annotated type `tp`: a dataclass is an
    object of exactly its init fields, each read as its annotation; `int` is
    an integer, not a bool; `float` a number within the float range; `bool`
    and `str` are exact; a tuple is a list (`tuple[X, Y]` of two); `X | None`
    is null or an X; `np.ndarray` a list of numbers. Any other value is a
    SchemaError at its JSON path below `path`; constructors' ValueErrors pass through."""
    try:
        return _read(tp, value)
    except _Bad as bad:
        raise SchemaError(bad.args[0], path + "".join(reversed(bad.args[1:]))) from None


@functools.cache
def _shape(tp) -> tuple:
    """`(origin, args)` of an annotation; of a dataclass, `dict` and its init fields' types."""
    if not is_dataclass(tp):
        return typing.get_origin(tp), typing.get_args(tp)
    hints = typing.get_type_hints(tp)
    return dict, {f.name: hints[f.name] for f in fields(tp) if f.init}


def _read(tp, value):
    kind = type(value)
    if kind is tp:  # int, bool, str and float are exact
        return value
    try:
        if tp is float and kind is int:
            return float(value)
        # one pass over the element types, not one call per element
        if tp is np.ndarray and kind is list and {int, float}.issuperset(map(type, value)):
            return np.array(value, dtype=np.float64)
    except OverflowError:  # an integer past the float range
        pass
    origin, args = _shape(tp)
    if type(None) in args:  # X | None, the one union the read classes hold
        return None if value is None else _read(args[0], value)
    if origin is kind is dict and value.keys() != args.keys():
        raise _Bad(f"must hold exactly the keys {sorted(args)}: "
                   f"missing {sorted(args.keys() - value.keys())}, unknown {sorted(value.keys() - args.keys())}")
    if origin is kind is dict or origin is tuple and kind is list and (args[-1] is ... or len(value) == len(args)):
        # a dataclass's fields by name, a tuple's items by index
        items = args.items() if kind is dict else enumerate([args[0]] * len(value) if args[-1] is ... else args)
        out = {}
        try:
            for key, item in items:
                out[key] = value[key] if type(value[key]) is item else _read(item, value[key])
        except _Bad as bad:
            bad.args += (f".{key}" if kind is dict else f"[{key}]",)
            raise
        return tp(**out) if kind is dict else tuple(out.values())
    name = "a list of numbers" if tp is np.ndarray else tp.__name__ if isinstance(tp, type) else tp
    raise _Bad(f"expected {name}, got {value!r:.60}")


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def deserialize(text: str) -> KanNetwork:
    """The network of a net file's text. This checks the JSON types only; the
    `KanNetwork` constructor checks the structure. A fault of either kind is a
    SchemaError at its path in the file."""
    doc = loads(text)
    _require(isinstance(doc, dict), "document must be an object", "$")
    _require(doc.get("format") == FORMAT, f"format must be {FORMAT!r}", "$.format")
    # a missing key fails its own check below, at its own path
    _require(doc.keys() <= _KEYS, f"unknown keys {sorted(doc.keys() - _KEYS)}", "$")
    widths = read(tuple[int, ...], doc.get("widths"), "$.widths")
    table = doc.get("splines")
    _require(isinstance(table, list), "splines must be a list of spline objects", "$.splines")
    # one Spline per table entry: edges sharing an entry share the spline.
    # Its Lipschitz constant, cached on it, is taken here: an edge without a
    # finite one (order 0, or a derivative past the float range) is bad input
    splines = []
    for i, entry in enumerate(table):
        try:
            splines.append(read(Spline, entry, f"$.splines[{i}]"))
            spline_lipschitz(splines[-1])
        except SchemaError:  # the reader's, at its own path
            raise
        except ValueError as exc:
            raise SchemaError(f"bad spline: {exc}", f"$.splines[{i}]") from exc
    layers = doc.get("layers")
    _require(isinstance(layers, list), "layers must be a list of layers", "$.layers")
    try:
        # each layer's types at once, then every layer's triples as one array
        # in one pass; only a failure walks the triples, for its path
        if not all(map(_typed_layer, layers)):
            _layer_error(layers)
        edges = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(layers)), np.intp)
    except OverflowError:  # an integer past intp
        _layer_error(layers)
        raise
    tags = read(tuple[tuple[str, ...], ...], doc.get("wire_tags"), "$.wire_tags")
    return KanNetwork(widths, tuple(splines), edges, tuple(map(len, layers)), tags)


def _typed_layer(triples) -> bool:
    """Whether a layer is a list of [int, int, int] lists; bools are not ints."""
    return type(triples) is list and (not triples or set(map(type, triples)) == {list}
                                      and set(map(len, triples)) == {3}
                                      and set(map(type, itertools.chain.from_iterable(triples))) == {int})


def _layer_error(layers: list):
    """Raise the SchemaError of the first layer or triple, in file order, that
    is not a list of three integers within intp, if there is one."""
    intp = np.iinfo(np.intp)
    for l, triples in enumerate(layers):
        _require(isinstance(triples, list), "layer must be a list of [src, dst, spline] triples", f"$.layers[{l}]")
        for i, t in enumerate(triples):
            path = f"$.layers[{l}][{i}]"
            _require(isinstance(t, list) and len(t) == 3, "edge must be a [src, dst, spline] triple", path)
            for value, name in zip(t, ("source", "target", "spline index")):
                v = read(int, value, path)
                _require(intp.min <= v <= intp.max, f"layers[{l}] edge {name} {v} out of range", path)
