"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. Each group below hashes the serialized network and
the certificate of every compile in it; a changed digest means some compile
now writes different bytes.
"""

import hashlib

import numpy as np
import pytest

from kanforge.cli import random_tree
from kanforge.compiler import CompileConfig, compile_on_box, compile_tree
from kanforge.exprtree import parse_expression
from kanforge.kannet import serialize
from kanforge.rangecert import affine_box

CFG = CompileConfig(grid=35, order=3)
CFG_FAITHFUL = CompileConfig(grid=35, order=3, faithful_widths=True)

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
    "box": lambda: [
        compile_on_box(parse_expression("sin(x1*x2)-x3"), affine_box([(0, 2), (1, 4), (-1, 0.5)]), CFG)
    ],
}

EXPECTED = {
    "random-default": "51a2f38da1e190037d93fb09326bbdc2d997729f0db0165a9eb913eaaf48e7d5",
    "random-faithful": "6eec1c6f4518384b84ff2520793013c39e7538221035abd3a10d770df6c3a58e",
    "chain-8": "e66eea6e96e2341b219805a4bce6e3d6bb936127812e15c6814b911aaf7080b4",
    "chain-24": "0c6f8a00d546047bacd862253e37ba1f05b19df31d15296e231aab32bc40ebb3",
    "fanout": "4c90e455801734d244d346b5db0ea8d35112d82d9e230750ff76956099548f89",
    "box": "f2b55248a0c90724d0a77458b41be55ea2566190588b40f9738a8d2e152146a0",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
