"""Acceptance suite: one test per acceptance criterion, one PASS line each.

The shared corpus (1000 seeded random trees of depth <= 5 over the full
operation set) is compiled once in both scheduling modes and measured once;
the per-criterion tests then assert against the collected results at the
stated tolerances. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from kanforge.cli import balanced_additive_tree, cmd_sweep_rate, cmd_table_products, random_tree
from kanforge.compiler import CompileConfig, compile_tree, measured_sup_error
from kanforge.exprtree import OpKind, eval_tree, parse_expression, tree_stats
from kanforge.kannet import forward_batch, lipschitz_product
from kanforge.rangecert import annotate_ranges

from conftest import predicted_faithful_widths

CFG = CompileConfig(grid=35)
CFG_FAITHFUL = CompileConfig(grid=35, faithful_widths=True)

CORPUS_SIZE = 1000
ERROR_SAMPLES = 100_000
JACOBIAN_POINTS = 100


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _batch_jacobian_norms(net, pts, step=1e-5):
    m, n = pts.shape
    offsets = np.zeros((2 * n, n))
    for i in range(n):
        offsets[2 * i, i] = step
        offsets[2 * i + 1, i] = -step
    allpts = (pts[:, None, :] + offsets[None, :, :]).reshape(m * 2 * n, n)
    vals = forward_batch(net, allpts)[:, 0].reshape(m, 2 * n)
    grads = (vals[:, 0::2] - vals[:, 1::2]) / (2 * step)
    return np.linalg.norm(grads, axis=1)


@dataclass
class TreeResult:
    n: int
    internal: int
    depth: int
    widths: tuple
    widths_faithful: tuple
    widths_predicted: tuple
    p_default: float
    p_faithful: float
    p_bound: float
    p_simplified: float
    error_bound: float
    sup_error: float
    has_trig: bool
    cor_smooth: bool
    a5_all: bool
    jac_ok: bool


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(42)
    results = []
    for i in range(CORPUS_SIZE):
        tree = random_tree(rng, 5)
        stats = tree_stats(tree)
        ann = annotate_ranges(tree)
        net, cert = compile_tree(tree, CFG)
        netf, _ = compile_tree(tree, CFG_FAITHFUL)
        rep = lipschitz_product(net)
        repf = lipschitz_product(netf)
        err = measured_sup_error(tree, net, ERROR_SAMPLES, seed=10_000 + i)
        jrng = np.random.default_rng(50_000 + i)
        pts = jrng.uniform(1e-3, 1.0 - 1e-3, size=(JACOBIAN_POINTS, stats.n))
        norms = _batch_jacobian_norms(net, pts)
        denom = float(max(net.widths)) ** net.n_layers
        jac_ok = bool(np.all(norms / denom <= rep.product + 1e-6))
        has_trig = any(a.op in (OpKind.SIN, OpKind.COS) for a in ann.annotations.values())
        cor_smooth = all(
            all(iv.lo >= 0.0 and iv.hi <= 1.0 for iv in a.input_domain)
            for a in ann.annotations.values()
            if a.op is OpKind.MUL
        )
        results.append(
            TreeResult(
                n=stats.n,
                internal=stats.internal,
                depth=stats.depth,
                widths=net.widths,
                widths_faithful=netf.widths,
                widths_predicted=predicted_faithful_widths(tree),
                p_default=rep.product,
                p_faithful=repf.product,
                p_bound=cert.p_bound,
                p_simplified=cert.p_simplified,
                error_bound=cert.error_bound,
                sup_error=err,
                has_trig=has_trig,
                cor_smooth=cor_smooth,
                a5_all=all(nc.a5_ok for nc in cert.per_node),
                jac_ok=jac_ok,
            )
        )
    return results


def test_criterion_1_product_table(tmp_path):
    start = time.perf_counter()
    rc = cmd_table_products(out=str(tmp_path / "t.csv"), fmt="csv")
    elapsed = time.perf_counter() - start
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
    exact = all(r[3] == "1.0" for r in rows.values())
    shapes = (
        rows["xy"][1:3] == ["2", "1"]
        and rows["xyz"][1:3] == ["3", "2"]
        and rows["sin(xy)"][1:3] == ["2", "2"]
        and all(rows[f"x1..x{n}"][1:3] == [str(n), str(n - 1)] for n in range(2, 11))
    )
    _report(
        1,
        "P-product table",
        rc == 0 and exact and shapes and elapsed < 5.0,
        f"all P bitwise 1.0, {elapsed:.2f}s",
    )


def test_criterion_2_rate_table(tmp_path):
    start = time.perf_counter()
    rc = cmd_sweep_rate(out=str(tmp_path / "s.csv"), fmt="csv")
    elapsed = time.perf_counter() - start
    rows = [r.split(",") for r in (tmp_path / "s.csv").read_text().strip().splitlines()[1:]]
    errors = {int(g): float(e) for g, e, _, _ in rows}
    ratios = [float(r) for _, _, _, r in rows]
    paper = {5: 7.25e-5, 12: 1.52e-6, 35: 1.74e-8}
    within_oom = all(paper[G] / 10 < errors[G] < paper[G] * 10 for G in paper)
    constant = max(ratios) / min(ratios) < 2.0
    _report(
        2,
        "rate table",
        rc == 0 and within_oom and constant and elapsed < 10.0,
        f"errors {errors[5]:.2e}/{errors[12]:.2e}/{errors[35]:.2e}, ratios {min(ratios):.3f}-{max(ratios):.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_additive_tightness():
    ok = True
    for depth in range(1, 6):
        tree = balanced_additive_tree(depth)
        stats = tree_stats(tree)
        expected = stats.internal + 1
        ann = annotate_ranges(tree)
        measured = eval_tree(tree, [1.0] * stats.n)
        ok = ok and ann.root_range.bound == expected and abs(measured - expected) <= 1e-12
    _report(3, "additive range tightness", ok, "B = N+1 attained at depths 1..5")


def test_criterion_4_mixed_tree_counterexample():
    tree = parse_expression("((x1+x2)*(x3+x4))*(x5+x6)")
    stats = tree_stats(tree)
    ann = annotate_ranges(tree)
    measured = eval_tree(tree, [1.0] * 6)
    ok = (
        ann.root_range.bound == 8.0
        and abs(measured - 8.0) <= 1e-12
        and 8.0 > stats.internal + 1
    )
    _report(4, "mixed-tree counterexample", ok, f"B = 8 > N+1 = {stats.internal + 1}")


def test_criterion_5_width_bounds(corpus):
    default_ok = all(
        r.widths[0] == r.n and max(r.widths) <= r.n + 8 * r.internal for r in corpus
    )
    faithful_ok = all(r.widths_faithful == r.widths_predicted for r in corpus)
    _report(
        5,
        "width bounds",
        default_ok and faithful_ok,
        f"{len(corpus)} trees, default <= n+8N, faithful widths match accounting",
    )


def test_criterion_6_error_bounds(corpus):
    bound_ok = all(r.sup_error <= r.error_bound + 1e-10 for r in corpus)
    exact_trees = [r for r in corpus if not r.has_trig]
    exact_ok = all(r.sup_error <= 1e-10 for r in exact_trees)
    _report(
        6,
        "error bounds",
        bound_ok and exact_ok,
        f"{ERROR_SAMPLES} samples/tree, {len(exact_trees)} exact-op trees <= 1e-10",
    )


def test_criterion_7_jacobian_sandwich(corpus):
    corpus_ok = all(r.jac_ok for r in corpus)
    net, _ = compile_tree(parse_expression("x1*x2"), CFG)
    rep = lipschitz_product(net)
    norm = _batch_jacobian_norms(net, np.array([[1.0 - 1e-4, 1.0 - 1e-4]]))[0]
    xy_ok = abs(norm - math.sqrt(2.0)) <= 1e-3 and rep.product == 1.0
    _report(
        7,
        "Jacobian sandwich",
        corpus_ok and xy_ok,
        f"{JACOBIAN_POINTS} pts/net; xy |J| = {norm:.6f} ~ sqrt(2) while P = 1.0",
    )


def test_criterion_8_block_inequality(corpus):
    corpus_ok = all(r.a5_all for r in corpus)
    constructed_ok = True
    # scaled multiplications: additive chains push the domain to [0, B]
    for B in range(2, 7):
        chain = "+".join(f"x{i}" for i in range(1, B + 1))
        tree = parse_expression(f"({chain})*({chain})")
        ann = annotate_ranges(tree)
        root = ann.annotations[0]
        _, cert = compile_tree(tree, CFG)
        constructed_ok = (
            constructed_ok
            and root.input_domain[0].hi == float(B)
            and all(nc.a5_ok for nc in cert.per_node)
        )
    # signed domains from subtraction feeding multiplication
    tree = parse_expression("(x1-x2)*(x3-x4)")
    ann = annotate_ranges(tree)
    _, cert = compile_tree(tree, CFG)
    signed_ok = ann.annotations[0].input_domain[0].lo == -1.0 and all(
        nc.a5_ok for nc in cert.per_node
    )
    _report(
        8,
        "block inequality",
        corpus_ok and constructed_ok and signed_ok,
        "corpus + signed + [0,B] domains up to B = 6",
    )


def test_criterion_9_product_bounds(corpus):
    chain_ok = all(
        r.p_default <= r.p_bound * (1 + 1e-12)
        and r.p_faithful <= r.p_bound * (1 + 1e-12)
        and r.p_bound <= r.p_simplified * (1 + 1e-12)
        for r in corpus
    )
    smooth = [r for r in corpus if r.cor_smooth]
    equality_ok = bool(smooth) and all(
        r.p_faithful == 1.0 and r.p_bound == 1.0 for r in smooth
    )
    _report(
        9,
        "product bound chain",
        chain_ok and equality_ok,
        f"P <= p_bound <= p_simplified on {len(corpus)} trees; P = p_bound = 1.0 on {len(smooth)} unit-multiplication trees",
    )
