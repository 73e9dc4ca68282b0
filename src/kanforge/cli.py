"""Command-line surface: compile, verify, reproduce tables, fuzz.

Exit codes: 0 all certified inequalities hold on measured data; 2 bad input
(parse/schema/config); 3 certification or verification failure; 4 hash,
expression or certificate mismatch between a certificate and its inputs.
Deeply nested expressions are not bad input: no tree pass recurses, so they
compile.

Each command takes only the flags it reads and writes its rows to
`sys.stdout`. A tree's annotation is cached on the tree, so the compile and
the checks of one command compute it once. KANFORGE_SEED, when set, takes
precedence over --seed for the commands that have one (compile, verify,
fuzz); either must be a non-negative integer, the variable written in ASCII
digits.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .compiler import (
    Certificate,
    CertificationError,
    CheckReport,
    CompileConfig,
    CompileError,
    _box_points,
    _check_net_box,
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
)
from .kannet import (
    KanNetwork,
    SchemaError,
    deserialize,
    jacobian_lower_bound,
    lipschitz_product,
    serialize,
)
from .rangecert import annotate_ranges, verify_ranges_numerically
from .spline import cubic_interpolant, sup_error

__all__ = [
    "MAX_SAMPLES",
    "MAX_FUZZ_DEPTH",
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


# largest --samples: the sampled checks stream their points in fixed blocks,
# so memory stays bounded, but time grows linearly with the count. On a
# 2-core x86_64 VM the median acceptance-corpus compile takes about 10 ms at
# 10^5 samples and 6.3 s at the limit; the slowest, 1.6 s at 10^7 samples,
# would take about 16 s
MAX_SAMPLES = 10**8

# largest fuzz --max-depth: a random tree's nodes have 10/7 children on
# average until leaves take over at about 0.3 * max_depth, so its size grows
# exponentially with the depth (median 6 nodes at 5, 700 at 64, 7400 at 100)
MAX_FUZZ_DEPTH = 64


@dataclass(frozen=True)
class RunConfig:
    """A command's settings: what to compile with, and the sample count and
    seed of the sampled checks. Checked here, before any command starts work."""

    compile: CompileConfig = CompileConfig()
    samples: int = 100_000
    seed: int = 42

    def __post_init__(self):
        if type(self.samples) is not int or not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be an integer in [1, {MAX_SAMPLES}]")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


# ---------------------------------------------------------------------------
# random tree corpus

_OPS = list(OpKind)


def random_tree(rng: np.random.Generator, max_depth: int) -> CompTree:
    """Seeded random tree: uniform op kinds, leaf probability growing with depth,
    leaf coordinates uniform over {1..6}.

    The draws are made in pre-order, a node's before its children's. An
    explicit stack holds the open ancestors of the next draw, so no depth is
    too deep to build.
    """
    open_nodes: list[tuple[OpKind, list[CompTree]]] = []
    while True:
        depth = len(open_nodes)
        if depth < max_depth and rng.random() >= depth / max_depth:
            open_nodes.append((_OPS[int(rng.integers(len(_OPS)))], []))
            continue
        tree = Leaf(int(rng.integers(1, 7)))
        # hand the finished subtree up until an ancestor still lacks a child
        while open_nodes:
            op, args = open_nodes[-1]
            args.append(tree)
            if len(args) < op.arity:
                break
            open_nodes.pop()
            tree = Node(op, tuple(args))
        else:
            return tree


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

def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        print(_csv(rows), end="")
    else:
        _print_table(rows)


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


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0])
    data = [[_cell(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(d[i]) for d in data)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for d in data:
        print("  ".join(x.ljust(w) for x, w in zip(d, widths)))


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands

def cmd_compile(expr: str, config: RunConfig, out: str | None = None, fmt: str = "table") -> int:
    try:
        tree = parse_expression(expr)
        net, cert = compile_tree(tree, config.compile)
    except (ParseError, CompileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = out or "kan"
    _write(f"{prefix}.net.json", serialize(net))
    _write(f"{prefix}.cert.json", cert.to_json())
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
            "P_measured": lipschitz_product(net).product,
            "p_bound": cert.p_bound,
            "p_simplified": cert.p_simplified,
            "c_star": cert.c_star,
            "error_bound": cert.error_bound,
            "eps_op": cert.eps_op,
        }
    ]
    _emit(rows, fmt)
    failure = check_certificate(tree, net, cert, config.samples, config.seed).failure
    if failure is not None:
        print(f"certification failed: {failure.message()}", file=sys.stderr)
        return 3
    return 0


# the per-node range check reads the first rows of the sampled-error stream
_RANGE_SAMPLES = 200_000


def verify_report(tree: CompTree, net: KanNetwork, cert: Certificate, samples: int, seed: int) -> CheckReport:
    """`check_certificate`'s report of `cert` against `net` (behind
    `cert.config.box`, if any), plus the range and Jacobian rows. One seeded
    sample pass feeds both the sup error and the per-node range maxima; the
    20 Jacobian probes are mapped into the box."""
    range_samples = min(samples, _RANGE_SAMPLES)
    # the error pass draws max(n, n_0) columns per row, so its rows are the
    # range check's rows only when n_0 <= n; otherwise the check draws its own
    node_max = NodeMaxima(range_samples) if net.n_inputs <= annotate_ranges(tree).n else None
    report = check_certificate(tree, net, cert, samples, seed, node_max=node_max)
    ranges = verify_ranges_numerically(tree, range_samples, seed, node_max=node_max)
    probes = np.random.default_rng(seed).uniform(0.001, 0.999, size=(20, net.n_inputs))
    if cert.config.box is not None:
        probes = _box_points(cert.config.box, probes)
    jac_max = jacobian_lower_bound(net, probes)
    product = lipschitz_product(net).product
    return replace(report, rows=report.rows + (range_row(ranges), jacobian_row(jac_max, product)))


def cmd_verify(net_path: str, expr: str, config: RunConfig, cert_path: str | None = None,
               fmt: str = "table") -> int:
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
    cert = None
    if cert_path:
        try:
            with open(cert_path, encoding="utf-8") as fh:
                cert = Certificate.from_json(fh.read())
            _check_net_box(cert.config.box, net)
        except (OSError, ValueError) as exc:
            print(f"error: bad certificate: {exc}", file=sys.stderr)
            return 2
        # the certificate hashes serialize(net), the compact kanforge/3 text
        # `compile` writes: such a file matches as read and is the network's
        # JSON, since serialize(deserialize(text)) == text, so it seeds the
        # cache the recomputed certificate's hash reads. Any other text of the
        # same network (re-indented, or its spline table reordered) is
        # re-serialized and hashed again
        if hashlib.sha256(data).hexdigest() == cert.net_sha256:
            object.__setattr__(net, "_json", text)
        elif hashlib.sha256(serialize(net).encode()).hexdigest() != cert.net_sha256:
            print("error: network hash does not match certificate", file=sys.stderr)
            return 4
        if rendered != cert.expr:
            print(f"error: expression mismatch: certificate was issued for {cert.expr!r}", file=sys.stderr)
            return 4
    # a certificate is recomputed as it was issued: with its own config, box included
    compile_config = cert.config if cert is not None else config.compile
    recomputed = recompute_certificate(tree, net, compile_config)
    if cert is not None and cert != recomputed:
        # a certificate of another version differs in other fields too: name the version first
        names = ["version"] + [f.name for f in fields(Certificate)]
        name = next(f for f in names if getattr(cert, f) != getattr(recomputed, f))
        print(f"error: certificate mismatch: {name} is {reprlib.repr(getattr(cert, name))} in the file, "
              f"{reprlib.repr(getattr(recomputed, name))} recomputed", file=sys.stderr)
        return 4
    report = verify_report(tree, net, recomputed, config.samples, config.seed)
    _emit([vars(row) for row in report.rows], fmt)
    if not report.ok:
        print(f"verification failed: {report.failure.message()}", file=sys.stderr)
        return 3
    return 0


_PRODUCT_FAMILIES = [("xy", "x1*x2"), ("xyz", "x1*x2*x3"), ("sin(xy)", "sin(x1*x2)")] + [
    (f"x1..x{n}", "*".join(f"x{i}" for i in range(1, n + 1))) for n in range(2, 11)
]


def cmd_table_products(grid: int = 35, out: str | None = None, fmt: str = "csv") -> int:
    """Lipschitz products of the multiplicative/trigonometric families.

    Compiles with `faithful_widths`: the default mode's as-soon-as-possible
    schedule, with every input forwarded to the last layer, so each layer
    holds an identity wire and the proof's widths. For these families every
    block layer's largest edge constant is at most 1, so the product is
    exactly 1.0; `n` and `N` are read from the tree's annotation.
    """
    try:
        config = CompileConfig(grid, faithful_widths=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    ok = True
    for name, expr in _PRODUCT_FAMILIES:
        tree = parse_expression(expr)
        net, cert = compile_tree(tree, config)
        p = lipschitz_product(net).product
        ann = annotate_ranges(tree)
        rows.append({"f": name, "n": ann.n, "N": ann.internal, "P_measured": p, "P_bound": cert.p_bound})
        ok = ok and p == 1.0 and p <= cert.p_bound
    _write(out, _csv(rows))
    _emit(rows, fmt)
    return 0 if ok else 3


_SWEEP_GRIDS = (5, 12, 35)


def cmd_sweep_rate(out: str | None = None, fmt: str = "csv") -> int:
    """Cubic-spline error scaling for sin on [0,1] over G in {5, 12, 35}.

    Emits error, h^4 and their ratio; the ratio must be constant within a
    factor of 2 across the sweep (fourth-order decay), else exit nonzero.
    """
    rows = []
    ratios = []
    for G in _SWEEP_GRIDS:
        s = cubic_interpolant(math.sin, 0.0, 1.0, G)
        err = sup_error(math.sin, s, 4001)
        h4 = (1.0 / (G - 1)) ** 4
        rows.append({"G": G, "error": err, "h4": h4, "ratio": err / h4})
        ratios.append(err / h4)
    _write(out, _csv(rows))
    _emit(rows, fmt)
    if max(ratios) / min(ratios) > 2.0:
        print("error: ratio error/h^4 drifts by more than a factor of 2", file=sys.stderr)
        return 3
    return 0


def cmd_fuzz(config: RunConfig, trees: int = 1000, max_depth: int = 5, out: str | None = None) -> int:
    """Random-tree property run: compile, certify, verify ranges per tree.

    Each tree's compile and `verify_report` read the annotation the tree
    caches. `verify_report` checks the compiled certificate on the tree's own
    sample seed, so its error and range checks share one sample pass.

    The all-additive subfamily additionally asserts that the certified bound
    N+1 is attained at the all-ones corner. Any failure serializes the
    offending tree for reproduction and exits nonzero.
    """
    if trees < 1 or not 1 <= max_depth <= MAX_FUZZ_DEPTH:
        print(f"error: tree count must be >= 1 and depth in [1, {MAX_FUZZ_DEPTH}]", file=sys.stderr)
        return 2
    rng = np.random.default_rng(config.seed)
    failures = []
    for i in range(trees):
        tree = random_tree(rng, max_depth)
        sample_seed = int(rng.integers(2**31))
        try:
            net, cert = compile_tree(tree, config.compile)
            report = verify_report(tree, net, cert, config.samples, sample_seed)
            if not report.ok:
                raise CertificationError(report.failure.message())
        except (CompileError, CertificationError, ValueError) as exc:
            failures.append({"index": i, "expr": render(tree), "seed": config.seed, "error": str(exc)})
    for depth in range(1, 6):
        tree = balanced_additive_tree(depth)
        ann = annotate_ranges(tree)
        report = verify_ranges_numerically(tree, 1000, config.seed)
        # root is node 0 (pre-order); the all-ones corner sums N+1 ones exactly
        attained = report.entries[0].measured
        expected = ann.internal + 1
        if not (attained == expected and ann.root_range.bound == expected):
            failures.append(
                {"index": -depth, "expr": render(tree), "seed": config.seed,
                 "error": f"additive bound {expected} not attained (measured {attained})"}
            )
    print(f"fuzz: {trees} random trees + additive family, {len(failures)} failure(s)")
    if failures:
        path = out or "fuzz_failures.json"
        _write(path, json.dumps(failures, indent=2))
        print(f"failing trees written to {path}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that compile and check: compile, verify, fuzz."""
    p.add_argument("--grid", type=int, default=35,
                   help="spline grid points per trig block (default 35; verify --cert takes the certificate's)")
    p.add_argument("--samples", type=int, default=100_000,
                   help=f"verification sample count (default 1e5, at most {MAX_SAMPLES:,})")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (KANFORGE_SEED overrides)")
    p.add_argument("--faithful-widths", action="store_true",
                   help="build the proof-faithful construction (inputs forwarded to the last layer; "
                        "verify --cert takes the certificate's)")


def _config_from(args) -> RunConfig:
    env = os.environ.get("KANFORGE_SEED")
    # ASCII digits only: int() would also take " 7", "+7", "7_0" and "７"
    if env is not None and not (env.isascii() and env.isdigit()):
        raise ValueError(f"KANFORGE_SEED={env!r}: seed must be a non-negative integer")
    return RunConfig(compile=CompileConfig(args.grid, args.faithful_widths), samples=args.samples,
                     seed=args.seed if env is None else int(env))


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="kanforge",
                                     description="Compile expressions into certified KAN networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an expression, write net + certificate JSON")
    p.add_argument("-e", "--expr", required=True)
    _add_run_flags(p)
    p.add_argument("-o", "--out", default=None, help="output prefix (default kan)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")

    p = sub.add_parser("verify", help="re-verify a network JSON against its expression")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--cert", default=None, help="certificate JSON path (hash checked)")
    p.add_argument("-e", "--expr", required=True)
    _add_run_flags(p)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")

    p = sub.add_parser("table-products", help="Lipschitz-product table for the standard families")
    p.add_argument("--grid", type=int, default=35, help="spline grid points per trig block (default 35)")
    p.add_argument("-o", "--out", default=None, help="CSV output path")
    p.add_argument("--format", choices=("json", "csv", "table"), default="csv")

    p = sub.add_parser("sweep-rate", help="cubic error-scaling sweep for sin on [0,1]")
    p.add_argument("-o", "--out", default=None, help="CSV output path")
    p.add_argument("--format", choices=("json", "csv", "table"), default="csv")

    p = sub.add_parser("fuzz", help="random-tree compile/certify/verify property run")
    p.add_argument("--trees", type=int, default=1000)
    p.add_argument("--max-depth", type=int, default=5,
                   help=f"random tree depth (default 5, at most {MAX_FUZZ_DEPTH})")
    _add_run_flags(p)
    p.add_argument("-o", "--out", default=None, help="failing-trees JSON path (default fuzz_failures.json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the commands with a seed run on a checked RunConfig
        config = _config_from(args) if "seed" in args else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "compile":
            return cmd_compile(args.expr, config, out=args.out, fmt=args.format)
        if args.command == "verify":
            return cmd_verify(args.net, args.expr, config, cert_path=args.cert, fmt=args.format)
        if args.command == "table-products":
            return cmd_table_products(args.grid, out=args.out, fmt=args.format)
        if args.command == "sweep-rate":
            return cmd_sweep_rate(out=args.out, fmt=args.format)
        return cmd_fuzz(config, trees=args.trees, max_depth=args.max_depth, out=args.out)
    except OSError as exc:  # an output path `_write` cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
