"""Every kanforge name the benchmark harness looks up must exist.

`perfbench/spans.py` wraps each `TARGETS` entry with `getattr`,
`perfbench/run.py` reads a few more attributes, and `perfbench/check.py` and
`perfbench/workloads.py` import names from the package; a rename or deletion
in the package would otherwise surface only as a crash of `perfbench/run.py`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    mod_name, _, attr = dotted.partition(".")
    obj = importlib.import_module(f"kanforge.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", _load("spans").TARGETS, ids=lambda t: t[2])
def test_span_target_resolves(target):
    mod_name, attr, _ = target
    assert callable(_resolve(f"{mod_name}.{attr}"))


@pytest.mark.parametrize("name", ["kernels.HAS_NUMBA", "kernels.USE_NUMBA", "spline.oob_hits"])
def test_run_reads_name(name):
    _resolve(name)


@pytest.mark.parametrize("name", ["check", "workloads"])
def test_module_imports_resolve(name):
    _load(name)
