"""Span tracing of kanforge's layers from outside the package.

Each traced function is a public kanforge function (or method) wrapped in
place. Several modules import these names directly (`compiler.annotate_ranges`,
`cli.certify`, ...), so every module attribute bound to the original object is
rebound to the wrapper, and `uninstall` restores them all.

Spans are aggregated as they close rather than stored: the wide workload opens
tens of thousands of `spline_lipschitz` spans per operation. For each span
name the tracer keeps the call count, the total span time and the time covered
by child spans; self time is the difference. Counter hooks run after a span
closes and their cost is charged to no span's self time, so tracing cost shows
up as overhead, not as layer time.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, span name); "KanNetwork.packed" is a method on the class
TARGETS = (
    ("exprtree", "parse_expression", "exprtree.parse_expression"),
    ("exprtree", "eval_tree_batch", "exprtree.eval_tree_batch"),
    ("rangecert", "annotate_ranges", "rangecert.annotate_ranges"),
    ("rangecert", "verify_ranges_numerically", "rangecert.verify_ranges_numerically"),
    ("primblocks", "build_block", "primblocks.build_block"),
    ("spline", "spline_lipschitz", "spline.spline_lipschitz"),
    ("compiler", "compile_tree", "compiler.compile_tree"),
    ("compiler", "dead_wire_elimination", "compiler.dead_wire_elimination"),
    ("compiler", "certify", "compiler.certify"),
    ("compiler", "measured_sup_error", "compiler.measured_sup_error"),
    ("kannet", "serialize", "kannet.serialize"),
    ("kannet", "deserialize", "kannet.deserialize"),
    ("kannet", "lipschitz_product", "kannet.lipschitz_product"),
    ("kannet", "KanNetwork.packed", "kannet.KanNetwork.packed"),
    ("kannet", "forward_batch", "kannet.forward_batch"),
    ("kannet", "jacobian_fd", "kannet.jacobian_fd"),
    ("kernels", "forward_batch", "kernels.forward_batch"),
    ("cli", "main", "cli.main"),
)

EDGE_CLASSES = ("affine2", "quad", "trig_pl", "pwl")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def edge_class(spline) -> str:
    """Edge class by spline form: order-1 with 2 knots is an affine wire, with
    3 knots a relu/abs hinge, with more a trig interpolant; order >= 2 is a
    quarter-square edge."""
    if spline.order >= 2:
        return "quad"
    n = spline.knots.size
    return "affine2" if n == 2 else "pwl" if n == 3 else "trig_pl"


class Tracer:
    """Aggregating span recorder; records while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._mix = weakref.WeakKeyDictionary()  # network -> edge-class counts

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                tracer.calls[name] += 1
                tracer.total[name] += span
                tracer.child[name] += stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            if stack:  # the parent covers the span and its counter hook
                stack[-1] += time.perf_counter() - t0
            return result

        return wrapper

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    # -- counter hooks -----------------------------------------------------

    def _count_eval_tree_batch(self, args, kwargs, result):
        self.counters["exprtree.eval_tree_batch.points"] += len(result)

    def _count_verify_ranges(self, args, kwargs, result):
        # the sampled rows plus the all-ones corner
        self.counters["rangecert.verify_ranges_numerically.points"] += (
            _arg(args, kwargs, 1, "samples") + 1
        )

    def _count_dwe(self, args, kwargs, result):
        self.counters["compiler.dead_wire_elimination.edges_in"] += sum(
            len(edges) for edges in _arg(args, kwargs, 0, "net").layers
        )
        self.counters["compiler.dead_wire_elimination.edges_out"] += sum(
            len(edges) for edges in result.layers
        )

    def _count_serialize(self, args, kwargs, result):
        self.counters["kannet.serialize.bytes"] += len(result.encode())

    def _count_forward_batch(self, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        points = len(result)
        mix = self._mix.get(net)
        if mix is None:
            mix = dict.fromkeys(EDGE_CLASSES, 0)
            for edges in net.layers:
                for e in edges:
                    mix[edge_class(e.spline)] += 1
            self._mix[net] = mix
        c = self.counters
        c["kannet.forward_batch.points"] += points
        for cls, n in mix.items():
            c[f"kernels.edges.{cls}"] += n * points
            c["kernels.edge_evals"] += n * points

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every kanforge binding of each target to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "exprtree.eval_tree_batch": self._count_eval_tree_batch,
            "rangecert.verify_ranges_numerically": self._count_verify_ranges,
            "compiler.dead_wire_elimination": self._count_dwe,
            "kannet.serialize": self._count_serialize,
            "kannet.forward_batch": self._count_forward_batch,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kanforge" or n.startswith("kanforge.")]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[f"kanforge.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
