"""Smoke runs of the scripts under `benchmarks/`, which nothing else runs."""

import importlib.util
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_runs(capsys):
    bench = _load("bench_kernels")
    bench.main(64)
    lines = capsys.readouterr().out.splitlines()
    assert sum("speedup" in line for line in lines) == len(bench.CASES)
    # one row per network splitting the forward by edge class
    rows = [line.split("by class:")[1].split() for line in lines if "by class:" in line]
    assert len(rows) == len(bench.CASES)
    for row in rows:
        assert row[0::5] == list(bench.KERNELS)
        assert all(float(ms) >= 0.0 for ms in row[3::5])


def test_bench_kernels_class_mix():
    # every edge falls in one class; the mixed case's four products and its
    # hinge take the one-knot kernel, its sin and cos the pp path
    from kanforge import CompileConfig, compile_tree, parse_expression

    bench = _load("bench_kernels")
    for name, expr in bench.CASES:
        net, _ = compile_tree(parse_expression(expr), CompileConfig())
        mix = bench.class_mix(net)
        assert sum(mix.values()) == len(net.edges)
        if name == "mixed depth 5":
            assert (mix["one-knot"], mix["pp"]) == (9, 2)


def test_bench_kernels_reference_matches_plan():
    # the per-edge de Boor reference the script times against the plan
    from kanforge import CompileConfig, compile_tree, forward_batch, parse_expression

    bench = _load("bench_kernels")
    X = np.random.default_rng(1).uniform(-0.05, 1.05, size=(200, 8))
    for _, expr in bench.CASES[:4]:
        net, _ = compile_tree(parse_expression(expr), CompileConfig())
        x = X[:, : net.n_inputs]
        np.testing.assert_allclose(forward_batch(net, x), bench.deboor_forward(net, x), rtol=0, atol=1e-12)
