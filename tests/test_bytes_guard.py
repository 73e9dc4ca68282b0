"""Net and certificate bytes of a fixed expression set, pinned by SHA-256.

The JSON formats promise byte-identical output for identical input unless the
format version changes. The digests below are those of net format
`kanforge/3` and certificate version 0.4.0: compact JSON, each document its
objects' fields under their own names (a spline table entry `order`, `knots`,
`coefs`; a certificate `internal` and per-node `node_id`). Against
`kanforge/2` and 0.3.0 only keys moved: the parsed documents are equal once
the entries' `domain`/`grid_points` are dropped and the renamed keys mapped,
apart from `format`, `version` and `net_sha256`. Each group below hashes the
serialized network and the certificate of every compile in it; a changed
digest means some compile now writes different bytes.
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
    "random-default": "8f673f84f1a2148dddda22a425967dc4cfbce469987bc5349c7c090650e07a40",
    "random-faithful": "a68f7a4dd27c879788f93897a52c761aa6c8e1ee8b41fc1d49b704bea75320dc",
    "chain-8": "d78ce991b4538dab2e3ee79475e058f08f4e00f593b2cdbd4e367c467b1b1a87",
    "chain-24": "9833f8b46b3be8b6dc16548115b33b7c7d95b909c70f3cc9d571d9124e8a8220",
    "fanout": "1519dda239ce5ed7268aa122793fbcca638bb589408ae0c3a8010ae0b0e936b6",
    "box": "311d615179e4e8999eeacfbd8cd21604373f78513b5c6dcfcf3d4e62b7a81241",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_net_and_cert_bytes_unchanged(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]
