"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/2` and certificate version 0.2.0. Each group below hashes the serialized network and
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
    "random-default": "aa5897a210db35f980384408b0a337ed8cb2b13131da8509346ec979446cb4b8",
    "random-faithful": "e1ccaf64f69e6b4d4c90d6d55c701f09a8c7ff20919e3d1158a9f449063a95b6",
    "chain-8": "7bb76ed58d9427f62653f8a1920c237d8393d9adac4be01d4fac3fc3a4937ea3",
    "chain-24": "c747be24f2530b9b73d6db397abc37d900011948993e8c488593958cc8efefd9",
    "fanout": "4423527cb4f922fb7dd9b68bf96a187e583d1a17e09a1b43ea26ce73120b46aa",
    "box": "1c072d30c3d066300e355dcd6bfb5063ae04968d4fe058756bdcde0744b165f3",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
