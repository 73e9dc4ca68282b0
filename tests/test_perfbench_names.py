"""Every kanforge name the benchmark harness looks up must exist.

`perfbench/spans.py` wraps each `TARGETS` entry with `getattr`, and
`perfbench/run.py` reads a few more attributes; a rename or deletion in the
package would otherwise surface only as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    mod_name, _, attr = dotted.partition(".")
    obj = importlib.import_module(f"kanforge.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", _load_spans().TARGETS, ids=lambda t: t[2])
def test_span_target_resolves(target):
    mod_name, attr, _ = target
    assert callable(_resolve(f"{mod_name}.{attr}"))


@pytest.mark.parametrize("name", ["kernels.HAS_NUMBA", "kernels.USE_NUMBA", "spline.oob_hits"])
def test_run_reads_name(name):
    _resolve(name)
