"""Command-line surface: compile, verify, reproduce tables, fuzz.

Exit codes: 0 all certified inequalities hold on measured data; 2 bad input
(parse/schema/config); 3 certification or verification failure; 4 hash or
expression mismatch between a certificate and its inputs. Deeply nested
expressions are not bad input: no tree pass recurses, so they compile.

KANFORGE_SEED, when set, takes precedence over --seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .compiler import (
    Certificate,
    CertificationError,
    CheckReport,
    CompileConfig,
    CompileError,
    check_certificate,
    compile_tree,
    jacobian_row,
    range_row,
    recompute_certificate,
)
from .exprtree import (
    CompTree,
    Leaf,
    Node,
    NodeMaxima,
    OpKind,
    ParseError,
    parse_expression,
    render,
    tree_stats,
)
from .kannet import (
    KanNetwork,
    SchemaError,
    deserialize,
    jacobian_lower_bound,
    lipschitz_product,
    serialize,
)
from .rangecert import AffineBox, affine_box, annotate_ranges, apply_affine, verify_ranges_numerically
from .spline import cubic_interpolant, sup_error

__all__ = [
    "RunConfig",
    "random_tree",
    "balanced_additive_tree",
    "cmd_compile",
    "cmd_verify",
    "cmd_table_products",
    "cmd_sweep_rate",
    "cmd_fuzz",
    "main",
]


@dataclass(frozen=True)
class RunConfig:
    grid: int = 35
    order: int = 3
    samples: int = 100_000
    seed: int = 42
    faithful_widths: bool = False

    def __post_init__(self):
        self.compile_config()  # validates grid and order
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    def compile_config(self, faithful: bool | None = None) -> CompileConfig:
        return CompileConfig(
            grid=self.grid,
            order=self.order,
            faithful_widths=self.faithful_widths if faithful is None else faithful,
        )


# ---------------------------------------------------------------------------
# random tree corpus

_OPS = list(OpKind)


def random_tree(rng: np.random.Generator, max_depth: int, depth: int = 0) -> CompTree:
    """Seeded random tree: uniform op kinds, leaf probability growing with depth,
    leaf coordinates uniform over {1..6}."""
    if depth >= max_depth or rng.random() < depth / max_depth:
        return Leaf(int(rng.integers(1, 7)))
    op = _OPS[int(rng.integers(len(_OPS)))]
    return Node(op, tuple(random_tree(rng, max_depth, depth + 1) for _ in range(op.arity)))


def balanced_additive_tree(depth: int) -> CompTree:
    """Complete all-addition binary tree of the given depth on distinct leaves."""
    counter = [0]

    def build(d: int) -> CompTree:
        if d == 0:
            counter[0] += 1
            return Leaf(counter[0])
        return Node(OpKind.ADD, (build(d - 1), build(d - 1)))

    return build(depth)


# ---------------------------------------------------------------------------
# report helpers

def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2), file=stream)
    elif fmt == "csv":
        print(_csv(rows), end="", file=stream)
    else:
        _print_table(rows, stream)


def _csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _print_table(rows: list[dict], stream) -> None:
    if not rows:
        return
    cols = list(rows[0])
    data = [[_cell(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(d[i]) for d in data)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)), file=stream)
    for d in data:
        print("  ".join(x.ljust(w) for x, w in zip(d, widths)), file=stream)


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands

def cmd_compile(expr: str, config: RunConfig, out: str | None = None, fmt: str = "table",
                stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    try:
        tree = parse_expression(expr)
        ann = annotate_ranges(tree)
        net, cert = compile_tree(tree, config.compile_config(), annotated=ann)
    except (ParseError, CompileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = out or "kan"
    _write(f"{prefix}.net.json", serialize(net))
    _write(f"{prefix}.cert.json", cert.to_json())
    report = lipschitz_product(net)
    rows = [
        {
            "expr": cert.expr,
            "n": cert.n,
            "N": cert.internal,
            "depth": cert.depth,
            "L_f": cert.l_f,
            "L": net.n_layers,
            "max_width": max(net.widths),
            "width_bound": cert.width_bound,
            "P_measured": report.product,
            "p_bound": cert.p_bound,
            "p_simplified": cert.p_simplified,
            "c_star": cert.c_star,
            "error_bound": cert.error_bound,
            "eps_op": cert.eps_op,
        }
    ]
    _emit(rows, fmt, stream)
    failure = check_certificate(tree, net, cert, config.samples, config.seed, product=report,
                                annotated=ann).failure
    if failure is not None:
        print(f"certification failed: {failure.message()}", file=sys.stderr)
        return 3
    return 0


# the per-node range check reads the first rows of the sampled-error stream
_RANGE_SAMPLES = 200_000


def verify_report(tree: CompTree, net: KanNetwork, config: RunConfig,
                  box: AffineBox | None = None) -> CheckReport:
    """`check_certificate`'s report against the certificate recomputed from the
    tree (behind `box` when given), plus the range and Jacobian rows. One seeded
    sample pass feeds both the sup error and the per-node range maxima; the 20
    Jacobian probes, mapped into the box, share one forward."""
    ann = annotate_ranges(tree)
    cert = recompute_certificate(tree, net, config.compile_config(), box=box, annotated=ann)
    product = lipschitz_product(net)
    range_samples = min(config.samples, _RANGE_SAMPLES)
    # the error pass draws max(n, n_0) columns per row, so its rows are the
    # range check's rows only when n_0 <= n; otherwise the check draws its own
    node_max = NodeMaxima(range_samples) if net.n_inputs <= len(ann.leaf_ranges) else None
    report = check_certificate(tree, net, cert, config.samples, config.seed, box=box,
                               product=product, node_max=node_max, annotated=ann)
    ranges = verify_ranges_numerically(tree, range_samples, config.seed, annotated=ann, node_max=node_max)
    probes = np.random.default_rng(config.seed).uniform(0.001, 0.999, size=(20, net.n_inputs))
    if box is not None:
        probes = apply_affine(box, probes)
    jac_max = jacobian_lower_bound(net, probes)
    return replace(report, rows=report.rows + (range_row(ranges), jacobian_row(jac_max, product.product)))


def cmd_verify(net_path: str, expr: str, config: RunConfig, cert_path: str | None = None,
               fmt: str = "table", stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    try:
        with open(net_path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
        net = deserialize(text)
        tree = parse_expression(expr)
        rendered = render(tree)
    except (OSError, UnicodeDecodeError, SchemaError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    box = None
    if cert_path:
        try:
            with open(cert_path, encoding="utf-8") as fh:
                cert = Certificate.from_json(fh.read())
            if cert.box is not None:
                box = affine_box(cert.box)
                if len(box.intervals) != net.n_inputs:
                    raise ValueError(f"box has {len(box.intervals)} intervals, network reads {net.n_inputs}")
        # ValueError covers invalid JSON and boxes; KeyError and TypeError missing or mistyped fields
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"error: bad certificate: {exc}", file=sys.stderr)
            return 2
        # the certificate hashes serialize(net), the text `compile` writes: such a
        # file matches as read and is the network's JSON, since
        # serialize(deserialize(text)) == text, so it seeds the cache the
        # recomputed certificate's hash reads; any other layout is re-serialized
        if hashlib.sha256(data).hexdigest() == cert.net_sha256:
            object.__setattr__(net, "_json", text)
        elif hashlib.sha256(serialize(net).encode()).hexdigest() != cert.net_sha256:
            print("error: network hash does not match certificate", file=sys.stderr)
            return 4
        if rendered != cert.expr:
            print(f"error: expression mismatch: certificate was issued for {cert.expr!r}", file=sys.stderr)
            return 4
    report = verify_report(tree, net, config, box)
    _emit([vars(row) for row in report.rows], fmt, stream)
    if not report.ok:
        print(f"verification failed: {report.failure.message()}", file=sys.stderr)
        return 3
    return 0


_PRODUCT_FAMILIES = [("xy", "x1*x2"), ("xyz", "x1*x2*x3"), ("sin(xy)", "sin(x1*x2)")] + [
    (f"x1..x{n}", "*".join(f"x{i}" for i in range(1, n + 1))) for n in range(2, 11)
]


def cmd_table_products(config: RunConfig, out: str | None = None, fmt: str = "csv",
                       stream=None) -> int:
    """Lipschitz products of the multiplicative/trigonometric families.

    Uses the proof-faithful schedule (identity wires at every layer), whose
    product is exactly 1.0 for these families.
    """
    stream = stream if stream is not None else sys.stdout
    rows = []
    ok = True
    for name, expr in _PRODUCT_FAMILIES:
        tree = parse_expression(expr)
        net, cert = compile_tree(tree, config.compile_config(faithful=True))
        p = lipschitz_product(net).product
        stats = tree_stats(tree)
        rows.append({"f": name, "n": stats.n, "N": stats.internal, "P_measured": p, "P_bound": cert.p_bound})
        ok = ok and p == 1.0 and p <= cert.p_bound
    text = _csv(rows)
    _write(out, text)
    _emit(rows, fmt, stream)
    return 0 if ok else 3


_SWEEP_GRIDS = (5, 12, 35)


def cmd_sweep_rate(config: RunConfig, out: str | None = None, fmt: str = "csv",
                   stream=None) -> int:
    """Cubic-spline error scaling for sin on [0,1] over G in {5, 12, 35}.

    Emits error, h^4 and their ratio; the ratio must be constant within a
    factor of 2 across the sweep (fourth-order decay), else exit nonzero.
    """
    stream = stream if stream is not None else sys.stdout
    rows = []
    ratios = []
    for G in _SWEEP_GRIDS:
        s = cubic_interpolant(math.sin, 0.0, 1.0, G)
        err = sup_error(math.sin, s, 4001)
        h4 = (1.0 / (G - 1)) ** 4
        rows.append({"G": G, "error": err, "h4": h4, "ratio": err / h4})
        ratios.append(err / h4)
    text = _csv(rows)
    _write(out, text)
    _emit(rows, fmt, stream)
    if max(ratios) / min(ratios) > 2.0:
        print("error: ratio error/h^4 drifts by more than a factor of 2", file=sys.stderr)
        return 3
    return 0


def cmd_fuzz(config: RunConfig, trees: int = 1000, max_depth: int = 5, out: str | None = None,
             stream=None) -> int:
    """Random-tree property run: compile, certify, verify ranges per tree.

    Each tree is checked by `verify_report` on its own sample seed, so its
    error and range checks share one sample pass.

    The all-additive subfamily additionally asserts that the certified bound
    N+1 is attained at the all-ones corner. Any failure serializes the
    offending tree for reproduction and exits nonzero.
    """
    stream = stream if stream is not None else sys.stdout
    if trees < 1 or max_depth < 1:
        print("error: tree count and depth must be >= 1", file=sys.stderr)
        return 2
    rng = np.random.default_rng(config.seed)
    failures = []
    for i in range(trees):
        tree = random_tree(rng, max_depth)
        sample_seed = int(rng.integers(2**31))
        try:
            net, _ = compile_tree(tree, config.compile_config())
            report = verify_report(tree, net, replace(config, seed=sample_seed))
            if not report.ok:
                raise CertificationError(report.failure.message())
        except (CompileError, CertificationError, ValueError) as exc:
            failures.append({"index": i, "expr": render(tree), "seed": config.seed, "error": str(exc)})
    for depth in range(1, 6):
        tree = balanced_additive_tree(depth)
        stats = tree_stats(tree)
        ann = annotate_ranges(tree)
        report = verify_ranges_numerically(tree, 1000, config.seed, annotated=ann)
        # root is node 0 (pre-order); the all-ones corner sums N+1 ones exactly
        attained = report.entries[0].measured
        expected = stats.internal + 1
        if not (attained == expected and ann.root_range.bound == expected):
            failures.append(
                {"index": -depth, "expr": render(tree), "seed": config.seed,
                 "error": f"additive bound {expected} not attained (measured {attained})"}
            )
    print(f"fuzz: {trees} random trees + additive family, {len(failures)} failure(s)", file=stream)
    if failures:
        path = out or "fuzz_failures.json"
        _write(path, json.dumps(failures, indent=2))
        print(f"failing trees written to {path}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=35, help="spline grid points per trig block (default 35)")
    p.add_argument("--order", type=int, default=3,
                   help="spline order, checked (>= 2) and recorded in the certificate (default 3)")
    p.add_argument("--samples", type=int, default=100_000, help="verification sample count (default 1e5)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (KANFORGE_SEED overrides)")
    p.add_argument("--faithful-widths", action="store_true",
                   help="build the proof-faithful construction (inputs forwarded to the last layer)")
    p.add_argument("-o", "--out", default=None, help="output path (prefix for compile)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")


def _config_from(args) -> RunConfig:
    seed = args.seed
    env = os.environ.get("KANFORGE_SEED")
    if env is not None:
        seed = int(env)
    return RunConfig(
        grid=args.grid,
        order=args.order,
        samples=args.samples,
        seed=seed,
        faithful_widths=args.faithful_widths,
    )


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="kanforge",
                                     description="Compile expressions into certified KAN networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an expression, write net + certificate JSON")
    p.add_argument("-e", "--expr", required=True)
    _add_config_flags(p)

    p = sub.add_parser("verify", help="re-verify a network JSON against its expression")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--cert", default=None, help="certificate JSON path (hash checked)")
    p.add_argument("-e", "--expr", required=True)
    _add_config_flags(p)

    p = sub.add_parser("table-products", help="Lipschitz-product table for the standard families")
    _add_config_flags(p)
    p.set_defaults(format="csv")

    p = sub.add_parser("sweep-rate", help="cubic error-scaling sweep for sin on [0,1]")
    _add_config_flags(p)
    p.set_defaults(format="csv")

    p = sub.add_parser("fuzz", help="random-tree compile/certify/verify property run")
    p.add_argument("--trees", type=int, default=1000)
    p.add_argument("--max-depth", type=int, default=5)
    _add_config_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "compile":
        return cmd_compile(args.expr, config, out=args.out, fmt=args.format)
    if args.command == "verify":
        return cmd_verify(args.net, args.expr, config, cert_path=args.cert, fmt=args.format)
    if args.command == "table-products":
        return cmd_table_products(config, out=args.out, fmt=args.format)
    if args.command == "sweep-rate":
        return cmd_sweep_rate(config, out=args.out, fmt=args.format)
    return cmd_fuzz(config, trees=args.trees, max_depth=args.max_depth, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
