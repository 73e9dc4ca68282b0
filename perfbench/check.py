"""Outside correctness check of the files an operation leaves behind.

The network JSON is re-read and evaluated at seeded points against the scalar
oracle `exprtree.eval_tree`; every point must lie within the certificate's
`error_bound` plus the compiler's documented roundoff slack. The certificate
must carry the SHA-256 of the network file and the operation's expression.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from kanforge.exprtree import eval_tree, parse_expression, render
from kanforge.kannet import deserialize, forward_batch

# the compiler's documented absolute slack for `error <= error_bound`
# (kanforge.compiler._ERROR_SLACK); fixed here so the check cannot loosen
ERROR_SLACK = 1e-10
POINTS = 64


def read_outputs(prefix: str) -> tuple[bytes, bytes]:
    with open(f"{prefix}.net.json", "rb") as fh:
        net = fh.read()
    with open(f"{prefix}.cert.json", "rb") as fh:
        cert = fh.read()
    return net, cert


def check_outputs(expr: str, net_bytes: bytes, cert_bytes: bytes, seed: int) -> str | None:
    """Return None when the files pass, else a one-line reason."""
    cert = json.loads(cert_bytes)
    if hashlib.sha256(net_bytes).hexdigest() != cert["net_sha256"]:
        return "cert net_sha256 does not match the network file"
    tree = parse_expression(expr)
    if cert["expr"] != render(tree):
        return f"cert expr {cert['expr']!r} is not the compiled expression"
    net = deserialize(net_bytes.decode())
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(POINTS, net.n_inputs))
    got = forward_batch(net, xs)[:, 0]
    want = np.array([eval_tree(tree, x) for x in xs])
    err = float(np.max(np.abs(got - want)))
    if not err <= cert["error_bound"] + ERROR_SLACK:
        return f"network error {err!r} exceeds error_bound {cert['error_bound']!r} + slack"
    return None
