"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/3` and certificate version 0.5.0: compact JSON, each document its
objects' fields under their own names (a spline table entry `order`, `knots`,
`coefs`; a certificate `internal` and per-node `node_id`). Against 0.4.0 the
net files are byte-identical and only certificate keys moved: the box, a
top-level field there, is `config.box`, and the derived `box_factor` is gone;
the parsed certificates are equal once those keys are mapped, apart from
`version`. Each group below hashes the serialized network and the
certificate of every compile in it; a changed digest means some compile now
writes different bytes.
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
    "random-default": "096a048870b800ac87eeb3b31a7960ae37a6b7a06e5ffeda47fd9f74eadb5df5",
    "random-faithful": "0cfda522eccf9b25e9b5ec9fc3099d8646073e01be2d5dbf6ac6b48b18b8657a",
    "chain-8": "61de83a351f65729f9306e6d8cb4afa4e63584b22136c6c79bbf415fe01c2774",
    "chain-24": "630f3c1b904985cd205c856f818501e52ae8c2f69ff831671f9ea153360350bc",
    "fanout": "23f0c0ed3ce05afe09dcc9f4a831b67f913b9f5b56ffb0cfdf070011a69e1cf2",
    "box": "00487158a262570362dc582f1ef39b128776c05db4343a427ac71d3652ce0ef6",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
