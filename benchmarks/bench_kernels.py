"""Benchmark the network forward plan against per-edge de Boor evaluation.

Times packed-network forward passes on compiled networks of increasing size:
the slot program (`kernels.forward_batch`: identity wires are aliases, each
layer evaluates only its other edges, affine ones as one small matmul,
one-knot ones by Horner plus a truncated power, and the other curved ones
in pp form) against a reference that evaluates every edge with its own de
Boor call. Building the program (`kernels.build_plan`, which a network runs
once and caches) is timed on its own and reported next to the forward it
serves, with the network's edge and spline table counts. A second row per
network splits the forward by edge class: each class's edge count and the
time spent in its kernel (`_affine_forward`, `_one_knot_forward`,
`_pp_forward`), best of the repeats; the rest of the forward is the
out-of-domain checks and the chunk loop. Affine edges include the identity
wires, which cost nothing when they are their target's only edge. Also
times de Boor batch evaluation of a single spline (`Spline.eval_batch`).
Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [npoints]
"""

import itertools
import sys
import time

import numpy as np

from kanforge import CompileConfig, compile_tree, parse_expression
from kanforge import kernels
from kanforge.spline import pl_interpolant

CASES = [
    ("xy", "x1*x2"),
    ("sin((x1+x2)*x3)", "sin((x1+x2)*x3)"),
    ("product chain n=8", "*".join(f"x{i}" for i in range(1, 9))),
    ("mixed depth 5", "sin((x1+x2)*(x3+x4))*relu(x5-x6*x1)+cos(x2*x3)"),
    # a wide chain: identity wires forward every live input through each layer
    ("chain n=16", "".join(f"{'+*-'[i % 3]}x{i + 1}" for i in range(16))[1:]),
]


# each edge class and the kernel that evaluates it in `forward_batch`
KERNELS = {"affine": "_affine_forward", "one-knot": "_one_knot_forward", "pp": "_pp_forward"}


def _time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def deboor_forward(net, X):
    """Reference forward: one de Boor evaluation per edge over all points."""
    cur = X
    triples = iter(net.edges.tolist())
    for l, n in enumerate(net.counts):
        nxt = np.zeros((X.shape[0], net.widths[l + 1]))
        for src, dst, k in itertools.islice(triples, n):
            nxt[:, dst] += net.splines[k].eval_batch(cur[:, src])
        cur = nxt
    return cur


def class_mix(net) -> dict[str, int]:
    """Edges per class: the one-knot and pp edges of the plan's steps, and
    the rest affine."""
    steps = net.packed().steps
    mix = {
        "one-knot": sum(len(st.one_knot.dst) for st in steps if st.one_knot is not None),
        "pp": sum(len(st.pp.dst) for st in steps if st.pp is not None),
    }
    return {"affine": len(net.edges) - sum(mix.values()), **mix}


def time_by_class(plan, X, repeats=5) -> dict[str, float]:
    """Seconds spent in each class's kernel during `forward_batch(plan, X)`,
    the best of `repeats` forwards per class."""
    spent = dict.fromkeys(KERNELS, 0.0)
    best = dict.fromkeys(KERNELS, float("inf"))
    originals = {cls: getattr(kernels, name) for cls, name in KERNELS.items()}

    def timed(cls, kernel):
        def run(*args):
            t0 = time.perf_counter()
            kernel(*args)
            spent[cls] += time.perf_counter() - t0
        return run

    try:
        for cls, name in KERNELS.items():
            setattr(kernels, name, timed(cls, originals[cls]))
        for _ in range(repeats):
            spent.update(dict.fromkeys(KERNELS, 0.0))
            kernels.forward_batch(plan, X)
            for cls in best:
                best[cls] = min(best[cls], spent[cls])
    finally:
        for cls, name in KERNELS.items():
            setattr(kernels, name, originals[cls])
    return best


def main(npoints: int) -> None:
    rng = np.random.default_rng(0)

    print(f"batch spline evaluation, {npoints} points")
    spline = pl_interpolant(np.sin, 0.0, 1.0, 35)
    ts = rng.uniform(0.0, 1.0, npoints)
    t_eval = _time(lambda: spline.eval_batch(ts))
    print(f"  {'pl sin G=35':24s} de Boor: {t_eval * 1e3:8.2f} ms")

    print(f"\nnetwork forward, {npoints} points")
    for name, expr in CASES:
        net, _ = compile_tree(parse_expression(expr), CompileConfig())
        X = rng.uniform(0.0, 1.0, size=(npoints, net.n_inputs))
        t_build = _time(lambda: kernels.build_plan(net))
        plan = net.packed()
        t_plan = _time(lambda: kernels.forward_batch(plan, X))
        t_ref = _time(lambda: deboor_forward(net, X))
        print(
            f"  {name:24s} {len(net.edges):4d} edges {len(net.splines):3d} splines"
            f"  build: {t_build * 1e3:7.2f} ms  plan: {t_plan * 1e3:8.2f} ms"
            f"  de Boor per edge: {t_ref * 1e3:8.2f} ms  speedup: {t_ref / t_plan:5.1f}x"
        )
        mix, by_class = class_mix(net), time_by_class(plan, X)
        print(f"  {'':24s} by class:" + "".join(
            f"  {cls} {mix[cls]:4d} edges {by_class[cls] * 1e3:8.2f} ms" for cls in KERNELS))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100_000)
