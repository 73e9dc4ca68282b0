"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/3` and certificate version 0.7.0: compact JSON, each document its
objects' fields under their own names (a spline table entry `order`, `knots`,
`coefs`; a certificate `internal` and per-node `node_id`). Against 0.6.0 the
multiplication block is two layers deep: its output neuron sums t^2/4 on
u+v and -t^2/4 on u-v, where a third layer used to subtract them. Every
group holds a product, so every net has fewer layers and edges and another
spline table, and every digest changed; the forward values are
bit-identical. `FORMAT` stays `kanforge/3`: the net
schema is unchanged and every kanforge/3 file still reads; the certificate
version marks the new block. Each group below hashes the
serialized network and the certificate of every compile in it; a changed
digest means some compile now writes different bytes.
"""

import hashlib

import numpy as np
import pytest

from kanforge.cli import random_tree
from kanforge.compiler import CompileConfig, compile_tree
from kanforge.exprtree import parse_expression
from kanforge.kannet import serialize

CFG = CompileConfig(grid=35)
CFG_FAITHFUL = CompileConfig(grid=35, faithful_widths=True)

_WRAPPERS = ("sin", "relu", "cos", "abs")


def _chain(width: int) -> str:
    # x1..x<width> joined by +, *, - in turn, every fourth term wrapped
    parts = []
    for j in range(width):
        if j:
            parts.append("+*-"[(j - 1) % 3])
        term = f"x{j + 1}"
        parts.append(f"{_WRAPPERS[j // 4 % 4]}({term})" if j % 4 == 3 else term)
    return "".join(parts)


def _random_trees():
    rng = np.random.default_rng(314159)
    return [random_tree(rng, 5) for _ in range(24)]


def _digest(compiles) -> str:
    h = hashlib.sha256()
    for net, cert in compiles:
        h.update(serialize(net).encode())
        h.update(b"\0")
        h.update(cert.to_json().encode())
        h.update(b"\0")
    return h.hexdigest()


GROUPS = {
    "random-default": lambda: [compile_tree(t, CFG) for t in _random_trees()],
    "random-faithful": lambda: [compile_tree(t, CFG_FAITHFUL) for t in _random_trees()],
    "chain-8": lambda: [compile_tree(parse_expression(_chain(8)), c) for c in (CFG, CFG_FAITHFUL)],
    "chain-24": lambda: [compile_tree(parse_expression(_chain(24)), c) for c in (CFG, CFG_FAITHFUL)],
    "fanout": lambda: [compile_tree(parse_expression("x1*x1"), c) for c in (CFG, CFG_FAITHFUL)],
    "box": lambda: [compile_tree(parse_expression("sin(x1*x2)-x3"), CompileConfig(box=((0, 2), (1, 4), (-1, 0.5))))],
}

EXPECTED = {
    "random-default": "ae11f290f4097852abdabd6b038d7cc2fa48b04fc1c8e79fa775a5b44c4b9260",
    "random-faithful": "28af3383c326f8c8d48b324a7dbb8da0a7245ad1aa25974638966b9e32236d34",
    "chain-8": "184e474307448fe4d2a56ad290750af261d92f2c2248f2ccaa199d5f6a3a8e02",
    "chain-24": "475f059c765a7075418bd834e8ad6ca8cd78bed3187aa41f4b28d71074a495ff",
    "fanout": "cc2a481ae952f8e4fbd1ce7515d9f8faccc63f961ea358277a030d669715686d",
    "box": "3f0fb42f01c0a15f3d9389c75b077ad2518262c0042b935cd1603c7ea38e4813",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
