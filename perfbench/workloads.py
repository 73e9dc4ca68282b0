"""Seeded inputs and CLI operations of the three workloads.

Every workload is a pool of inputs. The timed loop cycles through the pool,
so a run covers each input at least once and the repeats must reproduce the
first output byte for byte.

Operation cost follows the shape of the expression tree, and random trees
have a heavy size tail: pools of random shapes drawn per seed moved
throughput and median latency by 10 to 25% from seed to seed, more than the
bounds a regression check can use. So the shapes are fixed and the seed
draws the labels:

- random trees are `cli.random_tree(rng, 5)` draws from `SHAPE_SEED`,
  stratified: they are taken at evenly spaced quantiles of
  (network layers, inputs) among 64 candidates per tree. Chains have a
  ladder of widths and a fixed operator and wrapper pattern;
- the run's seed relabels every shape: it permutes the input coordinates
  and flips each + / -, sin / cos and relu / abs pair. Each seed gives new
  expressions whose networks have the same structure.

Inputs depend only on the seed, never on the program's output, so every
commit runs the same inputs for a seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from kanforge import cli
from kanforge.exprtree import Leaf, Node, OpKind, parse_expression, render


@dataclass(frozen=True)
class Item:
    """One pool input: the expression and, for verify, its compiled files."""

    expr: str
    prefix: str = ""   # output prefix of compile ops; file prefix for verify


@dataclass(frozen=True)
class Sizes:
    pool: int          # random trees in the pool
    chains: tuple[int, ...]  # widths of the chain inputs
    samples: int       # --samples of the timed operation
    tail_pct: int      # fixed tail percentile reported as op_tail_ms


SHAPE_SEED = 20240817
CANDIDATES_PER_TREE = 64


def layers(tree) -> int:
    """Transformation layers the tree compiles to: the quarter-square
    multiplication block is three layers deep, every other block one."""
    if isinstance(tree, Leaf):
        return 0
    own = 3 if tree.op is OpKind.MUL else 1
    return own + sum(layers(c) for c in tree.children)


def stratified_trees(rng: np.random.Generator, pool: int) -> list:
    """`pool` depth-5 random trees at evenly spaced quantiles of
    (layers, input dimension), in ascending order."""
    candidates = pool * CANDIDATES_PER_TREE
    trees = [cli.random_tree(rng, 5) for _ in range(candidates)]
    keys = [(layers(t), max(_coords(t)), i) for i, t in enumerate(trees)]
    keys.sort()
    return [trees[keys[int((j + 0.5) * CANDIDATES_PER_TREE)][2]] for j in range(pool)]


def _coords(tree):
    if isinstance(tree, Leaf):
        return (tree.coord,)
    return tuple(c for child in tree.children for c in _coords(child))


_WRAPPERS = ("sin", "relu", "cos", "abs")


def chain(width: int):
    """Chain over x1..x<width> with the operators cycling +, *, - and every
    fourth term wrapped, cycling sin, relu, cos, abs. The fixed pattern makes
    cost grow smoothly with width."""
    parts = []
    for j in range(width):
        if j:
            parts.append("+*-"[(j - 1) % 3])
        term = f"x{j + 1}"
        parts.append(f"{_WRAPPERS[j // 4 % 4]}({term})" if j % 4 == 3 else term)
    return parse_expression("".join(parts))


_FLIP ={OpKind.ADD: OpKind.SUB, OpKind.SIN: OpKind.COS, OpKind.RELU: OpKind.ABS}
_FLIP.update({v: k for k, v in _FLIP.items()})


def relabel(tree, rng: np.random.Generator):
    """Permute the input coordinates and flip each +/-, sin/cos, relu/abs
    node with probability 1/2; the network structure is unchanged."""
    perm = rng.permutation(max(_coords(tree))) + 1

    def walk(t):
        if isinstance(t, Leaf):
            return Leaf(int(perm[t.coord - 1]))
        op = _FLIP[t.op] if t.op in _FLIP and rng.random() < 0.5 else t.op
        return Node(op, tuple(walk(c) for c in t.children))

    return walk(tree)


def ladder(lo: int, hi: int, n: int) -> tuple[int, ...]:
    return tuple(lo + (hi - lo) * j // max(n - 1, 1) for j in range(n))


class Workload:
    """A pool generator plus the CLI argv of one operation; why each workload
    exists is recorded in BENCHMARK.json."""

    name = ""

    def __init__(self, workdir: str, smoke: bool):
        self.workdir = workdir
        self.sizes = self.SMOKE if smoke else self.FULL

    def exprs(self, rng: np.random.Generator) -> list[str]:
        """The pool: fixed shapes, labels drawn from `rng`."""
        s = self.sizes
        shapes = np.random.default_rng(SHAPE_SEED)
        trees = stratified_trees(shapes, s.pool) + [chain(w) for w in s.chains]
        return [render(relabel(t, rng)) for t in trees]

    def prepare(self, exprs: list[str]) -> list[Item]:
        """Files the timed operations read; compile workloads need none."""
        return [Item(e, os.path.join(self.workdir, "op")) for e in exprs]

    def argv(self, item: Item) -> list[str]:
        return ["compile", "-e", item.expr, "--samples", str(self.sizes.samples), "-o", item.prefix]


class CorpusCertify(Workload):
    name = "corpus-certify"
    FULL = Sizes(pool=63, chains=(), samples=100_000, tail_pct=90)
    SMOKE = Sizes(pool=3, chains=(), samples=2_000, tail_pct=50)


class WideCompile(Workload):
    name = "wide-compile"
    FULL = Sizes(pool=0, chains=tuple(range(16, 41)), samples=1_000, tail_pct=75)
    SMOKE = Sizes(pool=0, chains=(6, 8), samples=200, tail_pct=50)


class VerifyRoundtrip(Workload):
    name = "verify-roundtrip"
    FULL = Sizes(pool=47, chains=ladder(6, 16, 8), samples=20_000, tail_pct=90)
    SMOKE = Sizes(pool=2, chains=(5,), samples=1_000, tail_pct=50)
    SETUP_SAMPLES = 1_000

    def prepare(self, exprs: list[str]) -> list[Item]:
        items = []
        for j, e in enumerate(exprs):
            item = Item(e, os.path.join(self.workdir, f"v{j}"))
            rc = cli.main(["compile", "-e", e, "--samples", str(self.SETUP_SAMPLES), "-o", item.prefix])
            if rc != 0:
                raise RuntimeError(f"set-up compile of {e!r} exited {rc}")
            items.append(item)
        return items

    def argv(self, item: Item) -> list[str]:
        return ["verify", "--net", f"{item.prefix}.net.json", "--cert", f"{item.prefix}.cert.json",
                "-e", item.expr, "--samples", str(self.sizes.samples)]


WORKLOADS = {w.name: w for w in (CorpusCertify, WideCompile, VerifyRoundtrip)}
