"""Every kanforge name the benchmark harness looks up must exist.

`perfbench/spans.py` wraps each `TARGETS` entry with `getattr`,
`perfbench/run.py` reads a few more attributes, and `perfbench/check.py` and
`perfbench/workloads.py` import names from the package; a rename or deletion
in the package would otherwise surface only as a crash of `perfbench/run.py`.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kanforge import cli, compiler, kannet  # noqa: F401  (cli holds a span target)
from kanforge.compiler import CompileConfig, compile_tree
from kanforge.exprtree import parse_expression
from kanforge.kannet import serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    mod_name, _, attr = dotted.partition(".")
    obj = importlib.import_module(f"kanforge.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", _load("spans").TARGETS, ids=lambda t: t[2])
def test_span_target_resolves(target):
    mod_name, attr, _ = target
    assert callable(_resolve(f"{mod_name}.{attr}"))


@pytest.mark.parametrize("name", ["kernels.HAS_NUMBA", "kernels.USE_NUMBA", "spline.oob_hits"])
def test_run_reads_name(name):
    _resolve(name)


@pytest.mark.parametrize("name", ["check", "workloads"])
def test_module_imports_resolve(name):
    _load(name)


def test_trace_counters_read_every_edge():
    # under --trace 1 the counter hooks walk `net.layers`: the forward's edge
    # evaluations and dead-wire elimination's edge counts must cover every
    # [src, dst, spline] triple of the net files. The tracer wraps module
    # attributes, so the calls go through the modules
    def triples(net):
        return sum(map(len, json.loads(serialize(net))["layers"]))

    tree = parse_expression("sin((x1+x2)*x3)")
    net, _ = compile_tree(tree, CompileConfig())
    faithful, _ = compile_tree(tree, CompileConfig(faithful_widths=True))
    X = np.random.default_rng(0).uniform(0.0, 1.0, size=(7, 3))
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        kannet.forward_batch(net, X)
        compiler.dead_wire_elimination(faithful, outputs={0})
    finally:
        tracer.uninstall()
    c = tracer.counters
    assert c["kernels.edge_evals"] == 7 * triples(net)
    assert sum(c[f"kernels.edges.{cls}"] for cls in ("affine2", "quad", "trig_pl", "pwl")) == 7 * triples(net)
    assert c["compiler.dead_wire_elimination.edges_in"] == triples(faithful)
    assert c["compiler.dead_wire_elimination.edges_out"] == triples(net) < triples(faithful)
