"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/2` and certificate version 0.3.0 (compact JSON, `config` holding
`grid` and `faithful_widths`); the nets are the same bytes as under
certificate version 0.2.0. Each group below hashes the serialized network and
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
    "box": lambda: [
        compile_on_box(parse_expression("sin(x1*x2)-x3"), affine_box([(0, 2), (1, 4), (-1, 0.5)]), CFG)
    ],
}

EXPECTED = {
    "random-default": "23b4de4b7e05b09d613211ec57c054ddfd9b884e2ab34ab51e0d51cbbf751329",
    "random-faithful": "d24cbf5552f3eb5bfa9ed69475a3715a7c774b79a2b70960cc496bf15e450f64",
    "chain-8": "36dbff0745fc4d25bf05e9088e253af920ccb9b9234899ddf49e47aad5cab212",
    "chain-24": "98bc66d82e19ea49106b77f5a0a3b54075178335246efcabe8856658cbdc8afb",
    "fanout": "e9600eb49107eccc8413b9dc4c5bce8d0d424a655632bc8752d3b068f311c362",
    "box": "a175fb029817565e1f1364924c7b4665a6ec9a6b4b664c9273a1a124bbdf56fa",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
