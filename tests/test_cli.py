import copy
import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanforge import cli, compiler
from kanforge.cli import (
    MAX_FUZZ_DEPTH,
    MAX_SAMPLES,
    RunConfig,
    balanced_additive_tree,
    cmd_compile,
    cmd_fuzz,
    cmd_sweep_rate,
    cmd_table_products,
    cmd_verify,
    main,
    random_tree,
)
from kanforge.compiler import MAX_GRID, Certificate, CompileConfig, NodeCert, compile_tree
from kanforge.exprtree import MAX_COORD, Leaf, Node, OpKind, parse_expression, render
from kanforge.kannet import SchemaError, deserialize, serialize
from kanforge.rangecert import annotate_ranges
from kanforge.spline import Spline

from conftest import nan_network

FAST = RunConfig(samples=2000)


def _scale_edge(doc: dict, l: int, i: int, factor: float) -> None:
    """Scale edge i of layer l in a net document through a new spline table
    entry of its own: the entry it names may be shared by other edges."""
    entry = dict(doc["splines"][doc["layers"][l][i][2]])
    entry["coefs"] = [factor * c for c in entry["coefs"]]
    doc["splines"].append(entry)
    doc["layers"][l][i][2] = len(doc["splines"]) - 1


def _compile_and_verify(tmp_path, capsys, expr: str) -> tuple[int, list[dict]]:
    """Compile `expr`, then verify the written net and certificate; returns
    verify's exit code and rows."""
    prefix = str(tmp_path / "kan")
    assert cmd_compile(expr, FAST, out=prefix, fmt="json") == 0
    capsys.readouterr()
    rc = cmd_verify(prefix + ".net.json", expr, FAST, cert_path=prefix + ".cert.json", fmt="json")
    return rc, json.loads(capsys.readouterr().out)


class TestCompileCommand:
    def test_writes_net_and_cert(self, tmp_path, capsys):
        out = tmp_path / "kan"
        rc = main(["compile", "-e", "x1*x2", "--samples", "2000", "-o", str(out)])
        assert rc == 0
        assert (tmp_path / "kan.net.json").exists()
        cert = json.loads((tmp_path / "kan.cert.json").read_text())
        assert cert["p_bound"] == 1.0
        assert "N" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        rc = main(["compile", "-e", "x1*", "-o", str(tmp_path / "k")])
        assert rc == 2
        assert "offset" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        rc = cmd_compile("sin(x1*x2)", FAST, out=str(tmp_path / "k"), fmt="json")
        assert rc == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["N"] == 2
        assert row["L"] == 4

    def test_grid_must_be_sane(self, tmp_path, capsys):
        rc = main(["compile", "-e", "x1", "--grid", "1", "-o", str(tmp_path / "k")])
        assert rc == 2

    def test_grid_limit(self, tmp_path, capsys):
        prefix = str(tmp_path / "k")
        assert main(["compile", "-e", "sin(x1)", "--grid", str(MAX_GRID), "--samples", "100", "-o", prefix]) == 0
        assert main(["compile", "-e", "sin(x1)", "--grid", str(MAX_GRID + 1), "-o", prefix]) == 2
        assert "grid must be an integer in [2, 10000]" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [f"x1*x{MAX_COORD + 1}", "sin(x1*x100000000)", "x" + "9" * 5000])
    def test_coordinate_past_limit_exit_2(self, tmp_path, capsys, expr):
        prefix = str(tmp_path / "k")
        assert main(["compile", "-e", expr, "-o", prefix]) == 2
        assert "variable index above the limit" in capsys.readouterr().err
        assert main(["compile", "-e", "x1", "--samples", "10", "-o", prefix]) == 0
        assert main(["verify", "--net", prefix + ".net.json", "-e", expr, "--samples", "10"]) == 2

    # deep input once exited 2 (recursion limit); the test ids are kept
    @pytest.mark.parametrize("expr", [
        "+".join(["x1"] * 1500),
        "(" * 1200 + "x1" + ")" * 1200,
        "sin(" * 400 + "x1" + ")" * 400,
    ], ids=["sum-1500", "parens-1200", "sin-400"])
    def test_deep_expression_exit_2(self, tmp_path, capsys, expr):
        rc, rows = _compile_and_verify(tmp_path, capsys, expr)
        assert rc == 0
        assert len(rows) == 9 and all(r["ok"] for r in rows)

    # relu(c) is the point range [0, 0] on the unit cube, and cos of it [1, 1]
    @pytest.mark.parametrize("expr", [
        "relu(cos(x1)-cos(x2)-cos(x3))+x4",
        "x4*relu(cos(x1)-cos(x2)-cos(x3))",
        "sin(relu(cos(x1)-cos(x2)-cos(x3)))",
        "relu(cos(x1)-cos(x2)-cos(x3))*relu(cos(x1)-cos(x2)-cos(x3))",
        "x4*cos(relu(cos(x1)-cos(x2)-cos(x3)))",
    ])
    def test_constant_subterm_compiles(self, tmp_path, capsys, expr):
        rc, rows = _compile_and_verify(tmp_path, capsys, expr)
        assert rc == 0
        assert len(rows) == 9 and all(r["ok"] for r in rows)


class TestVerifyCommand:
    def test_wide_input_verify_memory_bounded(self, tmp_path, capsys):
        # the Jacobian steps and the sample blocks hold at most CHUNK * 16
        # floats whatever the input width: CHUNK rows of 1024 inputs took
        # 128 MiB, and this verify peaked at 168 MB
        prefix = str(tmp_path / "k")
        assert main(["compile", "-e", "x1024", "--samples", "1000", "-o", prefix]) == 0
        tracemalloc.start()
        try:
            rc = main(["verify", "--net", prefix + ".net.json", "--cert", prefix + ".cert.json",
                       "-e", "x1024", "--samples", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 40e6

    def test_verify_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "kan"
        assert cmd_compile("sin(x1*x2)", FAST, out=str(prefix), fmt="json") == 0
        capsys.readouterr()
        rc = cmd_verify(str(prefix) + ".net.json", "sin(x1*x2)", FAST,
                        cert_path=str(prefix) + ".cert.json", fmt="json")
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9 and all(r["ok"] for r in rows)
        assert {"name", "lhs", "rhs", "slack", "ok", "where"} == set(rows[0])
        assert [r["name"].split(" ")[0] for r in rows[-3:]] == ["sup", "ranges:", "max"]

    def test_tampered_net_fails(self, tmp_path):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        # double an edge: the measured product must now exceed the certificate
        _scale_edge(doc, 0, 0, 2.0)
        (tmp_path / "tampered.net.json").write_text(json.dumps(doc))
        rc = cmd_verify(str(tmp_path / "tampered.net.json"), "x1*x2", FAST,
                        fmt="json")
        assert rc == 3

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_sup_error_measured_once(self, tmp_path, monkeypatch, capsys, factor):
        # factor 2 fails P <= p_bound before the error check runs
        calls = []
        real = compiler.measured_sup_error

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(compiler, "measured_sup_error", counting)
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        _scale_edge(doc, 0, 0, factor)
        (tmp_path / "v.net.json").write_text(json.dumps(doc))
        calls.clear()
        capsys.readouterr()
        rc = cmd_verify(str(tmp_path / "v.net.json"), "x1*x2", FAST, fmt="json")
        assert rc == (0 if factor == 1.0 else 3)
        assert len(calls) == 1
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["P <= p_bound*(1+slack)"]["ok"] == (factor == 1.0)

    @pytest.mark.parametrize("indent, builds", [("as-written", 0), (None, 1), (4, 1)])
    def test_hash_checks_bytes_then_canonical_text(self, tmp_path, monkeypatch, indent, builds):
        # the file as `compile` wrote it matches on its bytes and its text is the
        # network's JSON, never rebuilt; an equivalent re-indented file matches
        # once re-serialized
        from kanforge import kannet

        prefix = tmp_path / "kan"
        cmd_compile("sin(x1*x2)", FAST, out=str(prefix), fmt="json")
        net_path = tmp_path / "kan.net.json"
        if indent != "as-written":
            net_path = tmp_path / "re.net.json"
            net_path.write_text(json.dumps(json.loads((tmp_path / "kan.net.json").read_text()), indent=indent))
        calls = []
        real = kannet._to_json
        monkeypatch.setattr(kannet, "_to_json", lambda net: calls.append(net) or real(net))
        rc = cmd_verify(str(net_path), "sin(x1*x2)", FAST, cert_path=str(prefix) + ".cert.json",
                        fmt="json")
        assert rc == 0
        assert len(calls) == builds

    def test_permuted_table_loads_as_compiled_network(self, tmp_path, monkeypatch):
        # a file whose spline table is reversed and padded with an unused entry
        # is the compiled network: loading renumbers the table to first use and
        # drops the unused entry, so it re-serializes to the compiled text and
        # verifies against the certificate after one re-serialization
        from kanforge import kannet

        prefix = tmp_path / "kan"
        cmd_compile("sin(x1*x2)", FAST, out=str(prefix), fmt="json")
        text = (tmp_path / "kan.net.json").read_text()
        doc = json.loads(text)
        n = len(doc["splines"])
        doc["splines"] = doc["splines"][::-1] + [{"order": 1, "knots": [0.0, 1.0], "coefs": [0.0, 2.0]}]
        for layer in doc["layers"]:
            for triple in layer:
                triple[2] = n - 1 - triple[2]
        net_path = tmp_path / "permuted.net.json"
        net_path.write_text(json.dumps(doc, separators=(",", ":")))
        assert net_path.read_text() != text
        assert serialize(kannet.deserialize(net_path.read_text())) == text
        calls = []
        real = kannet._to_json
        monkeypatch.setattr(kannet, "_to_json", lambda net: calls.append(net) or real(net))
        rc = cmd_verify(str(net_path), "sin(x1*x2)", FAST, cert_path=str(prefix) + ".cert.json",
                        fmt="json")
        assert rc == 0
        assert len(calls) == 1

    def test_tampered_net_with_cert_is_hash_mismatch(self, tmp_path):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        _scale_edge(doc, 0, 0, 2.0)
        (tmp_path / "kan.net.json").write_text(json.dumps(doc, indent=2))
        rc = cmd_verify(str(prefix) + ".net.json", "x1*x2", FAST,
                        cert_path=str(prefix) + ".cert.json", fmt="json")
        assert rc == 4

    def test_non_utf8_net_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.net.json"
        path.write_bytes(b'{"format": "\xff"}')
        assert cmd_verify(str(path), "x1", FAST) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_hash_mismatch_detected(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_compile("x1*x2", FAST, out=str(a), fmt="json")
        cmd_compile("x1+x2", FAST, out=str(b), fmt="json")
        rc = cmd_verify(str(a) + ".net.json", "x1+x2", FAST,
                        cert_path=str(b) + ".cert.json", fmt="json")
        assert rc == 4

    def test_expression_mismatch_detected(self, tmp_path):
        a = tmp_path / "a"
        cmd_compile("x1*x2", FAST, out=str(a), fmt="json")
        rc = cmd_verify(str(a) + ".net.json", "x1+x2", FAST,
                        cert_path=str(a) + ".cert.json", fmt="json")
        assert rc == 4

    def test_certificate_config_used(self, tmp_path):
        # recomputed at the certificate's grid 5, not at the --grid default 35
        prefix = str(tmp_path / "kan")
        assert main(["compile", "-e", "sin(x1)", "--grid", "5", "--samples", "2000", "-o", prefix]) == 0
        argv = ["verify", "--net", prefix + ".net.json", "--cert", prefix + ".cert.json", "-e", "sin(x1)",
                "--samples", "2000"]
        assert main(argv) == 0
        assert main(argv + ["--grid", "12", "--faithful-widths"]) == 0

    # the config must hold exactly CompileConfig's fields: a missing one takes
    # no default, and a 0.2.0 certificate's `order` is an unknown key
    @pytest.mark.parametrize("key, value", [
        ("grid", 1), ("grid", "5"), ("grid", 5.0), ("grid", MAX_GRID + 1), ("order", 3), ("faithful_widths", "yes"),
        pytest.param("faithful_widths", None, id="missing-faithful_widths"), ("samples", 2000),
        pytest.param("box", None, id="missing-box"),
    ])
    def test_rejected_certificate_config_exit_2(self, tmp_path, capsys, key, value):
        prefix = str(tmp_path / "kan")
        cmd_compile("sin(x1)", FAST, out=prefix, fmt="json")
        path = tmp_path / "kan.cert.json"
        doc = json.loads(path.read_text())
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        path.write_text(json.dumps(doc, indent=2))
        capsys.readouterr()
        rc = cmd_verify(prefix + ".net.json", "sin(x1)", FAST, cert_path=str(path), fmt="json")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    @pytest.mark.parametrize("edits, field", [
        ({"error_bound": 0}, "error_bound"),
        ({"p_bound": 1e-9}, "p_bound"),
        ({"per_node": []}, "per_node"),
        ({"widths": [1]}, "widths"),
        ({"internal": 7}, "internal"),
        ({"error_bound": 0, "p_bound": 1e-9, "per_node": [], "widths": [1], "l_f": 999}, "l_f"),
    ], ids=["error_bound", "p_bound", "per_node", "widths", "internal", "five-fields"])
    def test_edited_certificate_exit_4(self, tmp_path, capsys, edits, field):
        prefix = str(tmp_path / "kan")
        expr = "sin(x1*x2)+x1"
        cmd_compile(expr, FAST, out=prefix, fmt="json")
        path = tmp_path / "kan.cert.json"
        doc = json.loads(path.read_text())
        doc.update(edits)
        path.write_text(json.dumps(doc, indent=2))
        capsys.readouterr()
        rc = cmd_verify(prefix + ".net.json", expr, FAST, cert_path=str(path), fmt="json")
        assert rc == 4
        assert capsys.readouterr().err.startswith(f"error: certificate mismatch: {field} is ")

    @pytest.mark.parametrize("expr", ["x1*x2", "sin(x1*x2)+x3*x1", "relu(x1-x2)*cos(x3)"])
    def test_faithful_net_verifies(self, tmp_path, capsys, expr):
        # the faithful output layer also carries the forwarded inputs
        prefix = str(tmp_path / "kan")
        assert main(["compile", "-e", expr, "--faithful-widths", "--samples", "2000", "-o", prefix]) == 0
        argv = ["verify", "--net", prefix + ".net.json", "-e", expr, "--samples", "2000", "--format", "json"]
        capsys.readouterr()
        assert main(argv + ["--cert", prefix + ".cert.json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9 and all(r["ok"] for r in rows)
        assert rows[-1]["lhs"] > 0.0
        assert main(argv + ["--faithful-widths"]) == 0

    def test_missing_net_file(self, capsys):
        assert cmd_verify("/nonexistent.json", "x1", FAST) == 2

    def test_net_wider_than_any_expression_exit_2(self, tmp_path, capsys):
        # a net file's input width once sized the Jacobian probes: 400
        # inputs took 98 MB, and nothing bounded it
        n = MAX_COORD + 1
        doc = {"format": "kanforge/3", "widths": [n, 1], "splines": [{"order": 1, "knots": [0.0, 1.0], "coefs": [0.0, 1.0]}],
               "layers": [[[0, 0, 0]]], "wire_tags": [[f"x{p}" for p in range(1, n + 1)], ["node0"]]}
        (tmp_path / "wide.net.json").write_text(json.dumps(doc))
        assert cmd_verify(str(tmp_path / "wide.net.json"), "x1", FAST) == 2
        assert "(at $.widths[0])" in capsys.readouterr().err

    # every level of both files holds exactly its keys: a missing key takes no
    # default and an unknown one, such as a kanforge/2 or 0.3.0 name, is not
    # ignored
    @pytest.mark.parametrize("suffix, level, edit, where", [
        ("net", lambda doc: doc, lambda d: d.pop("wire_tags"), "(at $.wire_tags)"),
        ("net", lambda doc: doc, lambda d: d.update(comment="hi"), "(at $)"),
        ("net", lambda doc: doc["splines"][0], lambda d: d.pop("coefs"), "(at $.splines[0])"),
        ("net", lambda doc: doc["splines"][0], lambda d: d.update(grid_points=2), "(at $.splines[0])"),
        ("cert", lambda doc: doc["config"], lambda d: d.pop("box"), "bad certificate"),
        ("cert", lambda doc: doc, lambda d: d.update(internal_nodes=d["internal"]), "bad certificate"),
        ("cert", lambda doc: doc["per_node"][0], lambda d: d.pop("a5_ok"), "bad certificate"),
        ("cert", lambda doc: doc["per_node"][0], lambda d: d.update(id=d["node_id"]), "bad certificate"),
    ], ids=["net-missing", "net-unknown", "spline-missing", "spline-unknown", "cert-missing", "cert-unknown",
            "per_node-missing", "per_node-unknown"])
    def test_inexact_keys_exit_2(self, tmp_path, capsys, suffix, level, edit, where):
        prefix = str(tmp_path / "kan")
        cmd_compile("x1*x2", FAST, out=prefix, fmt="json")
        path = tmp_path / f"kan.{suffix}.json"
        doc = json.loads(path.read_text())
        edit(level(doc))
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["verify", "--net", prefix + ".net.json", "-e", "x1*x2", "--samples", "2000"]
        assert main(argv + (["--cert", str(path)] if suffix == "cert" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc["splines"][0].update(order=1.9), "$.splines[0].order"),
        (lambda doc: doc["splines"][0].update(order=True), "$.splines[0].order"),
        (lambda doc: doc["splines"][0].update(knots=[str(t) for t in doc["splines"][0]["knots"]]),
         "$.splines[0].knots"),
        (lambda doc: doc["splines"][0].update(coefs=[True, False]), "$.splines[0].coefs"),
        (lambda doc: doc["widths"].__setitem__(1, True), "$.widths[1]"),
        (lambda doc: doc["layers"][0][0].__setitem__(0, True), "$.layers[0][0]"),
        (lambda doc: doc["layers"][0][0].__setitem__(2, 0.0), "$.layers[0][0]"),
        (lambda doc: doc["splines"][0].update(order=0, knots=[0.0, 1.0], coefs=[1.0]), "$.splines[0]"),
        (lambda doc: doc["splines"][0].update(order=1, knots=[0.0, 1e-300], coefs=[0.0, 1e300]), "$.splines[0]"),
        (lambda doc: doc["splines"][0].update(order=3, knots=[0.0, 5e-324], coefs=[0.0, 0.0, 0.0, 1.0]),
         "$.splines[0]"),
    ], ids=["float-order", "bool-order", "string-knots", "bool-coefficients", "bool-width", "bool-source",
            "float-spline-index", "order-0", "overflowing-slope", "overflowing-cubic-slope"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_coerced_json_value_exit_2(self, tmp_path, capsys, edit, path):
        # values serialize never writes are bad input, not a coerced network;
        # so are edges without a finite Lipschitz constant, which the product
        # and the certificate could not hold
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        net_path = tmp_path / "kan.net.json"
        doc = json.loads(net_path.read_text())
        edit(doc)
        net_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "-e", "x1*x2", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("(at ") == 1 and f"(at {path})" in err

    @pytest.mark.parametrize("field, value", [("per_node", 5), ("config", None), ("config.box", [[0, 10**400]])])
    def test_malformed_cert_field_exit_2(self, tmp_path, capsys, field, value):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        doc = json.loads((tmp_path / "kan.cert.json").read_text())
        level, _, field = field.rpartition(".")
        if value is None:
            del doc[field]
        else:
            (doc[level] if level else doc)[field] = value
        (tmp_path / "bad.cert.json").write_text(json.dumps(doc))
        rc = cmd_verify(str(prefix) + ".net.json", "x1*x2", FAST,
                        cert_path=str(tmp_path / "bad.cert.json"), fmt="json")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"version": ' + "1" * 5000 + "}"],
                             ids=["deep-nesting", "long-integer"])
    def test_cert_json_the_decoder_refuses_exit_2(self, tmp_path, capsys, text):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json")
        (tmp_path / "bad.cert.json").write_text(text)
        capsys.readouterr()
        rc = cmd_verify(str(prefix) + ".net.json", "x1*x2", FAST,
                        cert_path=str(tmp_path / "bad.cert.json"), fmt="json")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    # deep input once exited 2 (recursion limit); the test ids are kept
    @pytest.mark.parametrize("terms", [500, 1500])
    def test_deep_expression_exit_2(self, tmp_path, capsys, terms):
        expr = "+".join(["x1"] * terms)
        rc, rows = _compile_and_verify(tmp_path, capsys, expr)
        assert rc == 0
        assert len(rows) == 9 and all(r["ok"] for r in rows)
        # an x1 network does not compute the sum: a failed check, not bad input
        cmd_compile("x1", FAST, out=str(tmp_path / "one"), fmt="json")
        capsys.readouterr()
        assert cmd_verify(str(tmp_path / "one.net.json"), expr, FAST, fmt="json") == 3
        assert capsys.readouterr().err.startswith("verification failed: ")

    def test_deep_product_verifies(self, tmp_path, capsys):
        # 230 multiplication blocks: W^L overflows a float in the Jacobian row
        rc, rows = _compile_and_verify(tmp_path, capsys, "*".join(["x1"] * 230))
        assert rc == 0
        assert all(r["ok"] for r in rows)
        assert rows[-1]["lhs"] == 0.0

    def _box_files(self, tmp_path):
        tree = parse_expression("sin(x1*x2)+x1")
        net, cert = compile_tree(tree, CompileConfig(box=((-2.0, 1.0), (0.5, 3.0))))
        (tmp_path / "box.net.json").write_text(serialize(net))
        (tmp_path / "box.cert.json").write_text(cert.to_json())
        return str(tmp_path / "box.net.json"), str(tmp_path / "box.cert.json")

    def test_box_certificate_verifies(self, tmp_path, capsys):
        net_path, cert_path = self._box_files(tmp_path)
        rc = cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json")
        assert rc == 0
        assert all(r["ok"] for r in json.loads(capsys.readouterr().out))
        # without the certificate the box is unknown and the error check fails
        assert cmd_verify(net_path, "sin(x1*x2)+x1", FAST, fmt="json") == 3
        # a certificate whose box is moved is another certificate: the
        # recomputed bounds agree, the sampled error does not
        doc = json.loads((tmp_path / "box.cert.json").read_text())
        doc["config"]["box"] = [[-1.0, 2.0], [1.5, 4.0]]
        (tmp_path / "box.cert.json").write_text(json.dumps(doc))
        assert cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json") == 3

    def test_version_0_4_0_certificate_exit_2(self, tmp_path, capsys):
        # a 0.4.0 file held the box at the top level, with its factor, and a
        # config without one: under the exact-key rule it is bad input
        net_path, cert_path = self._box_files(tmp_path)
        doc = json.loads((tmp_path / "box.cert.json").read_text())
        box = doc["config"].pop("box")
        doc.update(box=box, box_factor=1 / 2.5, version="0.4.0")
        (tmp_path / "box.cert.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad certificate") and "unknown ['box', 'box_factor']" in err

    @pytest.mark.parametrize("box", [[[1.0, 1.0], [0.5, 3.0]], [[-2.0, 1.0]], [[0.0, "inf"], [0.5, 3.0]]],
                             ids=["degenerate", "arity", "infinite"])
    def test_bad_box_in_certificate_exit_2(self, tmp_path, capsys, box):
        net_path, cert_path = self._box_files(tmp_path)
        doc = json.loads((tmp_path / "box.cert.json").read_text())
        doc["config"]["box"] = [[float(t) for t in iv] for iv in box]
        (tmp_path / "box.cert.json").write_text(json.dumps(doc))
        rc = cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    def test_non_finite_knots_exit_2(self, tmp_path, capsys):
        prefix = tmp_path / "kan"
        cmd_compile("x1", FAST, out=str(prefix), fmt="json")
        path = tmp_path / "kan.net.json"
        doc = json.loads(path.read_text())
        k = doc["layers"][0][0][2]
        spline = doc["splines"][k]
        spline["knots"] = [0.0, float("inf")]
        path.write_text(json.dumps(doc, indent=2))
        assert main(["verify", "--net", str(path), "-e", "x1", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"$.splines[{k}]" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_nan_network_fails_sup_error_row(self, tmp_path, capsys):
        path = tmp_path / "nan.net.json"
        path.write_text(serialize(nan_network()))
        assert cmd_verify(str(path), "x1+x2", FAST, fmt="json") == 3
        out, err = capsys.readouterr()
        rows = {r["name"]: r for r in json.loads(out)}
        row = rows["sup error <= error_bound + slack"]
        assert not row["ok"] and math.isnan(row["lhs"])
        assert "sup error" in err

    def test_overflowing_forward_prints_only_the_failure(self, tmp_path, capsys):
        path = tmp_path / "nan.net.json"
        path.write_text(serialize(nan_network()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cmd_verify(str(path), "x1+x2", FAST, fmt="json") == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and err.count("\n") == 1


def _wrong_json(tp):
    """One JSON value of the wrong type for annotation `tp`: a bool for an
    int, a string for a float, an int for a bool and so on."""
    args = typing.get_args(tp)
    if type(None) in args:
        return _wrong_json(args[0])
    if typing.get_origin(tp) is tuple:
        return 5
    if dataclasses.is_dataclass(tp):
        return []
    return {int: True, float: "1.0", bool: 1, str: 5, np.ndarray: [True, False]}[tp]


def _wrong_type_cases():
    """One case per init field of every level of both files, generated from
    the dataclasses, so a new field is covered without a new case."""
    cases = []
    for level, cls in (("cert", Certificate), ("config", CompileConfig), ("per_node", NodeCert), ("spline", Spline)):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.init:
                cases.append(pytest.param(level, f.name, _wrong_json(hints[f.name]), id=f"{level}.{f.name}"))
    return cases


_LEVELS = {
    "cert": lambda cert, net: cert,
    "config": lambda cert, net: cert["config"],
    "per_node": lambda cert, net: cert["per_node"][0],
    "spline": lambda cert, net: net["splines"][0],
}


class TestTypedReader:
    """Both files are read by one typed rule: a value of the wrong JSON type
    or a repeated key is bad input, exit 2, never coerced, ignored or taken
    for a mismatch."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        prefix = tmp_path_factory.mktemp("typed") / "kan"
        assert cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json") == 0
        return prefix.with_suffix(".net.json").read_text(), prefix.with_suffix(".cert.json").read_text()

    def _verify(self, tmp_path, capsys, files, net_text=None, cert_text=None) -> tuple[int, str]:
        net, cert = files
        (tmp_path / "kan.net.json").write_text(net if net_text is None else net_text)
        (tmp_path / "kan.cert.json").write_text(cert if cert_text is None else cert_text)
        capsys.readouterr()
        rc = main(["verify", "--net", str(tmp_path / "kan.net.json"), "--cert", str(tmp_path / "kan.cert.json"),
                   "-e", "x1*x2", "--samples", "2000"])
        return rc, capsys.readouterr().err

    def test_files_verify(self, tmp_path, capsys, files):
        assert self._verify(tmp_path, capsys, files) == (0, "")

    @pytest.mark.parametrize("level, name, value", _wrong_type_cases())
    def test_wrong_type_exit_2(self, tmp_path, capsys, files, level, name, value):
        net, cert = map(json.loads, files)
        _LEVELS[level](cert, net)[name] = value
        rc, err = self._verify(tmp_path, capsys, files, json.dumps(net), json.dumps(cert))
        assert rc == 2
        if level == "spline":
            # the reader's error names its path once
            assert err.startswith("error: ") and err.count("(at ") == 1 and f"(at $.splines[0].{name})" in err
        else:
            path = {"cert": "$", "config": "$.config", "per_node": "$.per_node[0]"}[level]
            assert err.startswith("error: bad certificate: ") and f"(at {path}.{name})" in err

    @pytest.mark.parametrize("edits", [
        {"internal": True, "p_bound": 1, "per_node.a5_ok": 1},
        {"per_node.c_op": 3.0},
        {"expr": 5},
        {"version": ["0.4.0"]},
    ], ids=["bool-internal-int-p_bound-int-a5_ok", "float-c_op", "int-expr", "list-version"])
    def test_mistyped_certificate_exit_2(self, tmp_path, capsys, files, edits):
        # these once verified (exit 0) or read as a mismatch (exit 4)
        cert = json.loads(files[1])
        for key, value in edits.items():
            level, _, name = key.rpartition(".")
            (cert["per_node"][0] if level else cert)[name] = value
        rc, err = self._verify(tmp_path, capsys, files, cert_text=json.dumps(cert))
        assert rc == 2
        assert err.startswith("error: bad certificate: ")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CompileConfig)])
    def test_config_takes_only_what_its_file_holds(self, name):
        # CompileConfig(grid=3.5) once compiled x1*x2 to a certificate its own
        # reader rejects, and faithful_widths="no" built the faithful net
        value = _wrong_json(typing.get_type_hints(CompileConfig)[name])
        for wrong in {"grid": (value, 3.5), "faithful_widths": (value, "no")}.get(name, (value,)):
            with pytest.raises(ValueError, match=name):
                CompileConfig(**{name: wrong})

    def test_int_for_float_reads_as_float(self, tmp_path, capsys, files):
        # a float may be written as a JSON integer: p_bound 1 is p_bound 1.0
        cert = json.loads(files[1])
        assert cert["p_bound"] == 1.0
        cert["p_bound"] = 1
        assert type(Certificate.from_json(json.dumps(cert)).p_bound) is float
        assert self._verify(tmp_path, capsys, files, cert_text=json.dumps(cert)) == (0, "")

    @pytest.mark.parametrize("suffix, first, repeat", [
        ("cert", '"p_bound":', '"p_bound":"junk",'),
        ("cert", '{"node_id":', '"node_id":"junk",'),
        ("net", '"format":', '"format":"kanforge/2",'),
        ("net", '{"order":', '"order":"junk",'),
    ], ids=["cert-top", "per_node-entry", "net-top", "spline-entry"])
    def test_repeated_key_exit_2(self, tmp_path, capsys, files, suffix, first, repeat):
        # the last value of each repeated key is the valid one, which a
        # last-wins decoder would have read
        text = files[0] if suffix == "net" else files[1]
        at = text.index(first) + (first[0] == "{")
        edited = text[:at] + repeat + text[at:]
        assert json.loads(edited) == json.loads(text)
        rc, err = self._verify(tmp_path, capsys, files, **{f"{suffix}_text": edited})
        assert rc == 2
        key = repeat.split(":")[0]
        if suffix == "net":
            assert err.startswith(f"error: invalid JSON: repeated key '{key[1:-1]}' (at $)")
        else:
            assert err.startswith(f"error: bad certificate: invalid JSON: repeated key '{key[1:-1]}'")


@functools.cache
def _net_docs() -> tuple:
    """(expression, net document) of two compiled networks."""
    return tuple((e, json.loads(serialize(compile_tree(parse_expression(e), CompileConfig())[0])))
                 for e in ("x1*x2", "sin(x1*x2)"))


def _json_paths(value, path=()):
    """The path of every value in a JSON document: itself, each list and object, each leaf."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


@st.composite
def _edited_net(draw):
    """(expression, edited net document): one value replaced by a value of
    any JSON type or an edge-breaking integer, or one triple repeated."""
    expr, doc = draw(st.sampled_from(_net_docs()))
    doc = copy.deepcopy(doc)
    if draw(st.booleans()):
        triples = [(l, i) for l, layer in enumerate(doc["layers"]) for i in range(len(layer))]
        l, i = draw(st.sampled_from(triples))
        doc["layers"][l].insert(draw(st.integers(0, len(doc["layers"][l]))), list(doc["layers"][l][i]))
        return expr, doc
    path = draw(st.sampled_from(list(_json_paths(doc))))
    ints = [-1, 2**63, 10**30, -(10**30), *doc["widths"]]
    value = draw(st.sampled_from([None, True, 0.5, "x", [], {}, [0, 0, 0], {"order": 1}, *ints]))
    if not path:
        return expr, value
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return expr, doc


class TestEditedNetFile:
    """An edited net file loads or is bad input: never a traceback."""

    @pytest.fixture(scope="class")
    def net_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("edited") / "kan.net.json"

    @settings(max_examples=300, deadline=None)
    @given(edit=_edited_net())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_loads_or_exit_2(self, net_path, edit):
        expr, doc = edit
        text = json.dumps(doc)
        try:
            deserialize(text)
            loaded = True
        except SchemaError:
            loaded = False
        net_path.write_text(text)
        rc = main(["verify", "--net", str(net_path), "-e", expr, "--samples", "200"])
        assert rc in ((0, 3) if loaded else (2,))

    @pytest.mark.parametrize("value", [10**30, -(10**30), 2**63], ids=["1e30", "-1e30", "2^63"])
    def test_integer_past_intp_exit_2(self, tmp_path, capsys, value):
        expr, doc = _net_docs()[0]
        doc = copy.deepcopy(doc)
        doc["layers"][0][0][2] = value
        (tmp_path / "kan.net.json").write_text(json.dumps(doc))
        assert main(["verify", "--net", str(tmp_path / "kan.net.json"), "-e", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("(at $.layers[0][0])\n") and "Traceback" not in err


class TestOutputPath:
    @pytest.mark.parametrize("argv", [["compile", "-e", "x1", "--samples", "2000"], ["table-products"],
                                      ["sweep-rate"]], ids=["compile", "table-products", "sweep-rate"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out"
        assert main(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "missing").exists()


class TestSignatures:
    def test_no_parameter_hands_in_a_derived_value(self):
        # each function annotates the tree (a cache hit after the first
        # call), takes the Lipschitz product and writes to sys.stdout itself
        from kanforge import rangecert

        params = {
            rangecert.annotate_ranges: "tree",
            rangecert.verify_ranges_numerically: "tree samples seed node_max",
            compiler.compile_tree: "tree config",
            compiler.recompute_certificate: "tree net config",
            compiler.check_certificate: "tree net cert samples seed node_max",
            cli.verify_report: "tree net cert samples seed",
            cmd_compile: "expr config out fmt",
            cmd_verify: "net_path expr config cert_path fmt",
            cmd_table_products: "grid out fmt",
            cmd_sweep_rate: "out fmt",
            cmd_fuzz: "config trees max_depth out",
        }
        for fn, names in params.items():
            assert list(inspect.signature(fn).parameters) == names.split(), fn.__name__

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_one_annotation_per_operation(self, tmp_path, monkeypatch, capsys, command):
        from kanforge import rangecert

        prefix = str(tmp_path / "k")
        assert main(["compile", "-e", "sin(x1*x2)+x3", "--samples", "500", "-o", prefix]) == 0
        computed = []
        real_annotate = rangecert.annotate_ranges

        def annotate(tree):
            if tree._ann is None:
                computed.append(tree)
            return real_annotate(tree)

        for module in (cli, compiler, rangecert):
            monkeypatch.setattr(module, "annotate_ranges", annotate)
        argv = {"compile": ["compile", "-o", prefix],
                "verify": ["verify", "--net", prefix + ".net.json", "--cert", prefix + ".cert.json"]}[command]
        assert main(argv + ["-e", "sin(x1*x2)+x3", "--samples", "500"]) == 0
        assert len(computed) == 1

    @pytest.mark.parametrize("command, walks", [("compile", 4), ("verify", 5)])
    def test_tree_walks_per_operation(self, tmp_path, monkeypatch, capsys, command, walks):
        # compile: the annotation fold, the schedule, the rendered expression
        # and the one sample block's evaluation; verify renders the argument
        # and evaluates the range check's corner too, and builds no schedule
        from kanforge import exprtree

        prefix = str(tmp_path / "k")
        assert main(["compile", "-e", "sin(x1*x2)+x3", "--samples", "500", "-o", prefix]) == 0
        counted = []
        real = exprtree.postorder
        monkeypatch.setattr(exprtree, "postorder", lambda tree: counted.append(tree) or real(tree))
        argv = {"compile": ["compile", "-o", prefix],
                "verify": ["verify", "--net", prefix + ".net.json", "--cert", prefix + ".cert.json"]}[command]
        assert main(argv + ["-e", "sin(x1*x2)+x3", "--samples", "500"]) == 0
        assert len(counted) == walks


class TestTableProducts:
    def test_all_rows_exactly_one(self, tmp_path):
        rc = cmd_table_products(out=str(tmp_path / "t.csv"), fmt="csv")
        assert rc == 0
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "f,n,N,P_measured,P_bound"
        assert len(lines) == 13
        for line in lines[1:]:
            f, n, N, p, bound = line.split(",")
            assert p == "1.0"
            assert bound == "1.0"
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert by_name["xy"][1:3] == ["2", "1"]
        assert by_name["sin(xy)"][1:3] == ["2", "2"]
        assert by_name["x1..x10"][1:3] == ["10", "9"]


    def test_bad_grid_exit_2(self, capsys):
        assert main(["table-products", "--grid", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: grid must be an integer")


class TestSweepRate:
    def test_values_and_ratio(self, tmp_path):
        rc = cmd_sweep_rate(out=str(tmp_path / "s.csv"), fmt="csv")
        assert rc == 0
        rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().strip().splitlines()[1:]]
        errors = {int(g): float(e) for g, e, _, _ in rows}
        for G, expected in ((5, 7.25e-5), (12, 1.52e-6), (35, 1.74e-8)):
            assert expected / 10 < errors[G] < expected * 10
        ratios = [float(r) for _, _, _, r in rows]
        assert max(ratios) / min(ratios) < 2.0


def _random_tree_recursive(rng, max_depth: int, depth: int = 0):
    """The recursive builder `random_tree` replaced, kept as its oracle."""
    if depth >= max_depth or rng.random() < depth / max_depth:
        return Leaf(int(rng.integers(1, 7)))
    op = list(OpKind)[int(rng.integers(len(OpKind)))]
    return Node(op, tuple(_random_tree_recursive(rng, max_depth, depth + 1) for _ in range(op.arity)))


class _SinChainRng:
    """Draws that never stop a branch early and always pick sin, then x1."""

    def random(self):
        return 1.0

    def integers(self, low, high=None):
        return list(OpKind).index(OpKind.SIN) if high is None else low


class TestFuzz:
    def test_small_run_passes(self, capsys):
        rc = cmd_fuzz(RunConfig(samples=1500, seed=5), trees=40, max_depth=4)
        assert rc == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_one_sample_pass_per_tree(self, monkeypatch, capsys):
        # each random tree's error and range checks share one seeded stream;
        # the additive family draws 1000 samples for its range check alone
        from kanforge import rangecert

        draws = []
        real = rangecert.sample_blocks

        def counting(seed, samples, n):
            draws.append((seed, samples))
            return real(seed, samples, n)

        monkeypatch.setattr(compiler, "sample_blocks", counting)
        monkeypatch.setattr(rangecert, "sample_blocks", counting)
        # and each tree's annotation is computed once (a cache miss), for
        # its compile and its checks
        computed = []
        real_annotate = rangecert.annotate_ranges

        def annotate(tree):
            if tree._ann is None:
                computed.append(tree)
            return real_annotate(tree)

        for module in (cli, compiler, rangecert):
            monkeypatch.setattr(module, "annotate_ranges", annotate)
        assert cmd_fuzz(RunConfig(samples=1500, seed=5), trees=6, max_depth=4) == 0
        per_tree = [seed for seed, samples in draws if samples == 1500]
        assert len(per_tree) == len(set(per_tree)) == 6
        assert [samples for _, samples in draws if samples != 1500] == [1000] * 5
        assert len(computed) == len(set(map(id, computed))) == 6 + 5

    def test_rejects_bad_counts(self, capsys):
        assert cmd_fuzz(RunConfig(), trees=0) == 2
        assert cmd_fuzz(RunConfig(), max_depth=0) == 2
        # random trees grow exponentially with the depth, so a deep one is
        # refused before any is drawn
        assert cmd_fuzz(RunConfig(), max_depth=MAX_FUZZ_DEPTH + 1) == 2
        assert main(["fuzz", "--trees", "3", "--max-depth", "3000"]) == 2
        assert f"depth in [1, {MAX_FUZZ_DEPTH}]" in capsys.readouterr().err

    @pytest.mark.parametrize("max_depth", [1, 2, 5, 9, 16])
    def test_random_tree_matches_recursive_oracle(self, max_depth):
        # the same trees from the same draws, and the stream left at the same place
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(40):
                got, want = random_tree(a, max_depth), _random_tree_recursive(b, max_depth)
                assert render(got) == render(want)
            assert a.random() == b.random()

    def test_random_tree_builds_past_the_recursion_limit(self):
        depth = 4 * sys.getrecursionlimit()
        tree = random_tree(_SinChainRng(), depth)
        assert annotate_ranges(tree).depth == depth
        assert render(tree) == "sin(" * depth + "x1" + ")" * depth

    def test_random_tree_distribution_bounds(self, rng):
        for _ in range(200):
            ann = annotate_ranges(random_tree(rng, 5))
            assert ann.depth <= 5
            assert 1 <= ann.n <= 6

    def test_additive_tree_builder(self):
        for depth in range(1, 6):
            ann = annotate_ranges(balanced_additive_tree(depth))
            assert ann.internal == 2**depth - 1
            assert ann.depth == depth


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_order_flag_gone(self, capsys):
        # the compiler never read a spline order, so there is no flag for one
        with pytest.raises(SystemExit) as exc:
            main(["compile", "-e", "x1", "--order", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 3" in capsys.readouterr().err

    # each command takes only the flags it reads: none of these did anything
    @pytest.mark.parametrize("argv", [
        ["sweep-rate", "--grid", "5"],
        ["sweep-rate", "--samples", "10"],
        ["sweep-rate", "--seed", "3"],
        ["sweep-rate", "--faithful-widths"],
        ["table-products", "--samples", "10"],
        ["table-products", "--seed", "3"],
        ["table-products", "--faithful-widths"],
        ["verify", "--net", "n.json", "-e", "x1", "-o", "out"],
        ["fuzz", "--format", "json"],
    ], ids=["sweep-rate-grid", "sweep-rate-samples", "sweep-rate-seed", "sweep-rate-faithful-widths",
            "table-products-samples", "table-products-seed", "table-products-faithful-widths", "verify-out",
            "fuzz-format"])
    def test_unread_flag_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        assert main(["sweep-rate", "--format", "json", "-o", str(tmp_path / "a.csv")]) == 0
        assert json.loads(capsys.readouterr().out)[0]["G"] == 5
        assert main(["sweep-rate", "-o", str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out.startswith("G,error,h4,ratio\n")


# the commands with a sample count and a seed
_COMMANDS = [
    ["compile", "-e", "x1"],
    ["verify", "--net", "missing.net.json", "-e", "x1"],
    ["fuzz", "--trees", "1"],
]
_COMMAND_IDS = [argv[0] for argv in _COMMANDS]


def _stub_commands(monkeypatch) -> list:
    """Replace every command by a stub; returns the list of their argument tuples."""
    seen = []
    for name in ("cmd_compile", "cmd_verify", "cmd_table_products", "cmd_sweep_rate", "cmd_fuzz"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: seen.append(args) or 0)
    return seen


class TestSampleLimit:
    """--samples is bounded by MAX_SAMPLES, checked in RunConfig before any
    command starts; these tests never run a sampled pass."""

    def test_run_config_limit(self):
        assert RunConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES
        for bad in (MAX_SAMPLES + 1, 0, 2000.0, True):
            with pytest.raises(ValueError, match="samples must be an integer"):
                RunConfig(samples=bad)

    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_main_limit(self, monkeypatch, capsys, argv):
        # every command is stubbed: at the limit it is reached with the
        # count, one past it main exits 2 before reaching it
        seen = _stub_commands(monkeypatch)
        assert main(argv + ["--samples", str(MAX_SAMPLES)]) == 0
        assert [a for a in seen[0] if isinstance(a, RunConfig)][0].samples == MAX_SAMPLES
        capsys.readouterr()
        assert main(argv + ["--samples", str(MAX_SAMPLES + 1)]) == 2
        assert len(seen) == 1
        assert f"samples must be an integer in [1, {MAX_SAMPLES}]" in capsys.readouterr().err


class TestSeed:
    """--seed and KANFORGE_SEED must be non-negative integers, checked in
    RunConfig before any command with a seed starts; the others ignore the
    variable."""

    def test_run_config_seed(self):
        assert RunConfig(seed=0).seed == 0
        for bad in (-1, 1.0, True, "3"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                RunConfig(seed=bad)

    @pytest.mark.parametrize("env", [None, "-3"], ids=["flag", "env"])
    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_negative_seed_exit_2(self, monkeypatch, capsys, argv, env):
        seen = _stub_commands(monkeypatch)
        if env is None:
            monkeypatch.delenv("KANFORGE_SEED", raising=False)
            argv = argv + ["--seed", "-1"]
        else:
            monkeypatch.setenv("KANFORGE_SEED", env)
        assert main(argv) == 2
        assert seen == []
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    # only ASCII digits: int() would take the space, and reject the others
    # with a message that does not name the variable
    @pytest.mark.parametrize("env", ["abc", " 7", "7.0", "\uff17", ""], ids=["letters", "space", "float",
                                                                         "full-width-digit", "empty"])
    @pytest.mark.parametrize("argv", _COMMANDS, ids=_COMMAND_IDS)
    def test_env_seed_not_digits_exit_2(self, monkeypatch, capsys, argv, env):
        seen = _stub_commands(monkeypatch)
        monkeypatch.setenv("KANFORGE_SEED", env)
        assert main(argv) == 2
        assert seen == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: KANFORGE_SEED={env!r}: seed must be a non-negative integer")

    @pytest.mark.parametrize("argv", [["table-products"], ["sweep-rate"]], ids=["table-products", "sweep-rate"])
    def test_commands_without_a_seed_ignore_the_variable(self, monkeypatch, argv):
        seen = _stub_commands(monkeypatch)
        monkeypatch.setenv("KANFORGE_SEED", "-3")
        assert main(argv) == 0
        assert len(seen) == 1

    def test_compile_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.delenv("KANFORGE_SEED", raising=False)
        assert main(["compile", "-e", "x1", "--seed", "-1", "-o", str(tmp_path / "k")]) == 2
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        cfg = RunConfig(samples=1000, seed=123)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_table_products(out=str(a), fmt="csv")
        cmd_table_products(out=str(b), fmt="csv")
        assert a.read_bytes() == b.read_bytes()
        ja, jb = tmp_path / "ja", tmp_path / "jb"
        cmd_compile("sin((x1+x2)*x3)", cfg, out=str(ja), fmt="json")
        cmd_compile("sin((x1+x2)*x3)", cfg, out=str(jb), fmt="json")
        assert (tmp_path / "ja.net.json").read_bytes() == (tmp_path / "jb.net.json").read_bytes()
        assert (tmp_path / "ja.cert.json").read_bytes() == (tmp_path / "jb.cert.json").read_bytes()

    def test_env_seed_overrides_flag(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KANFORGE_SEED", "777")
        rc = main(["compile", "-e", "x1", "--seed", "1", "--samples", "100",
                   "-o", str(tmp_path / "k"), "--format", "json"])
        assert rc == 0


def test_import_loads_only_numpy_and_stdlib():
    # the command's start-up is mostly its import: a package the tests use
    # (scipy, hypothesis) must not ride along, `import scipy.sparse` alone
    # takes longer than a wide compile's set-up. Modules the interpreter
    # loaded before the import (site hooks) are not the program's
    import kanforge

    src = str(pathlib.Path(kanforge.__file__).parent.parent)
    code = ("import sys; before = set(sys.modules); import kanforge.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "kanforge" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "kanforge"} == set()
