"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/3` and certificate version 0.6.0: compact JSON, each document its
objects' fields under their own names (a spline table entry `order`, `knots`,
`coefs`; a certificate `internal` and per-node `node_id`). Against 0.5.0 the
blocks are scheduled as soon as their arguments are ready, so the nets of
`random-default`, `random-faithful`, `chain-8` and `chain-24` hold fewer
layers and forwarding wires; the `box` and `fanout` nets (one block path
each) are byte-identical, and their certificates differ only in `version`.
`FORMAT` stays `kanforge/3`: the net schema is unchanged and every
kanforge/3 file still reads; the certificate version marks the new layout.
Each group below hashes the
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
    "random-default": "7668305195bc27123334098e85af43da3a9c61f45ae67aae708188f400e592a9",
    "random-faithful": "a6163ee65a29c55c6ac06122205435fb1bf5b23457ad78514afc65a224befe95",
    "chain-8": "a4af6d1c383e6e45152a40bbd2bc195c7e51d1fb0df8dbca8e165e5bfc91245c",
    "chain-24": "31a9b5addc5c06b27898ae38936ff44318ebe15a9acace3a3c22ec411d008572",
    "fanout": "2b411360d852d536cabf34140616cf6d2493897e0c99cb3a206b8fe8ae926fe9",
    "box": "ab421a299a2d2705201dc01c8f38476396f65e80edd3f177cf24863482b90499",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
