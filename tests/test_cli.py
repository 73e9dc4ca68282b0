import io
import json
import math

import pytest

from kanforge import cli, compiler
from kanforge.cli import (
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
from kanforge.compiler import compile_on_box
from kanforge.exprtree import parse_expression, tree_stats
from kanforge.kannet import serialize
from kanforge.rangecert import affine_box

from conftest import nan_network

FAST = RunConfig(samples=2000)


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

    def test_json_format(self, tmp_path):
        buf = io.StringIO()
        rc = cmd_compile("sin(x1*x2)", FAST, out=str(tmp_path / "k"), fmt="json", stream=buf)
        assert rc == 0
        row = json.loads(buf.getvalue())[0]
        assert row["N"] == 2
        assert row["L"] == 4

    def test_grid_must_be_sane(self, tmp_path, capsys):
        rc = main(["compile", "-e", "x1", "--grid", "1", "-o", str(tmp_path / "k")])
        assert rc == 2

    @pytest.mark.parametrize("expr", [
        "+".join(["x1"] * 1500),
        "(" * 1200 + "x1" + ")" * 1200,
        "sin(" * 400 + "x1" + ")" * 400,
    ], ids=["sum-1500", "parens-1200", "sin-400"])
    def test_deep_expression_exit_2(self, tmp_path, capsys, expr):
        rc = main(["compile", "-e", expr, "--samples", "100", "-o", str(tmp_path / "k")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_verify_round_trip(self, tmp_path):
        prefix = tmp_path / "kan"
        assert cmd_compile("sin(x1*x2)", FAST, out=str(prefix), fmt="json", stream=io.StringIO()) == 0
        buf = io.StringIO()
        rc = cmd_verify(str(prefix) + ".net.json", "sin(x1*x2)", FAST,
                        cert_path=str(prefix) + ".cert.json", fmt="json", stream=buf)
        assert rc == 0
        rows = json.loads(buf.getvalue())
        assert len(rows) == 9 and all(r["ok"] for r in rows)
        assert {"name", "lhs", "rhs", "slack", "ok", "where"} == set(rows[0])
        assert [r["name"].split(" ")[0] for r in rows[-3:]] == ["sup", "ranges:", "max"]

    def test_tampered_net_fails(self, tmp_path):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        # double an edge: the measured product must now exceed the certificate
        edge = doc["layers"][0]["edges"][0]
        edge["spline"]["coefficients"] = [2 * c for c in edge["spline"]["coefficients"]]
        (tmp_path / "tampered.net.json").write_text(json.dumps(doc))
        rc = cmd_verify(str(tmp_path / "tampered.net.json"), "x1*x2", FAST,
                        fmt="json", stream=io.StringIO())
        assert rc == 3

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_sup_error_measured_once(self, tmp_path, monkeypatch, factor):
        # factor 2 fails P <= p_bound before the error check runs
        calls = []
        real = compiler.measured_sup_error

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(compiler, "measured_sup_error", counting)
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        edge = doc["layers"][0]["edges"][0]
        edge["spline"]["coefficients"] = [factor * c for c in edge["spline"]["coefficients"]]
        (tmp_path / "v.net.json").write_text(json.dumps(doc))
        calls.clear()
        buf = io.StringIO()
        rc = cmd_verify(str(tmp_path / "v.net.json"), "x1*x2", FAST, fmt="json", stream=buf)
        assert rc == (0 if factor == 1.0 else 3)
        assert len(calls) == 1
        rows = {r["name"]: r for r in json.loads(buf.getvalue())}
        assert rows["P <= p_bound*(1+slack)"]["ok"] == (factor == 1.0)

    @pytest.mark.parametrize("indent, builds", [("as-written", 0), (None, 1), (4, 1)])
    def test_hash_checks_bytes_then_canonical_text(self, tmp_path, monkeypatch, indent, builds):
        # the file as `compile` wrote it matches on its bytes and its text is the
        # network's JSON, never rebuilt; an equivalent re-indented file matches
        # once re-serialized
        from kanforge import kannet

        prefix = tmp_path / "kan"
        cmd_compile("sin(x1*x2)", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        net_path = tmp_path / "kan.net.json"
        if indent != "as-written":
            net_path = tmp_path / "re.net.json"
            net_path.write_text(json.dumps(json.loads((tmp_path / "kan.net.json").read_text()), indent=indent))
        calls = []
        real = kannet._to_json
        monkeypatch.setattr(kannet, "_to_json", lambda net: calls.append(net) or real(net))
        rc = cmd_verify(str(net_path), "sin(x1*x2)", FAST, cert_path=str(prefix) + ".cert.json",
                        fmt="json", stream=io.StringIO())
        assert rc == 0
        assert len(calls) == builds

    def test_tampered_net_with_cert_is_hash_mismatch(self, tmp_path):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        doc = json.loads((tmp_path / "kan.net.json").read_text())
        edge = doc["layers"][0]["edges"][0]
        edge["spline"]["coefficients"] = [2 * c for c in edge["spline"]["coefficients"]]
        (tmp_path / "kan.net.json").write_text(json.dumps(doc, indent=2))
        rc = cmd_verify(str(prefix) + ".net.json", "x1*x2", FAST,
                        cert_path=str(prefix) + ".cert.json", fmt="json", stream=io.StringIO())
        assert rc == 4

    def test_non_utf8_net_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.net.json"
        path.write_bytes(b'{"format": "\xff"}')
        assert cmd_verify(str(path), "x1", FAST) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_hash_mismatch_detected(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_compile("x1*x2", FAST, out=str(a), fmt="json", stream=io.StringIO())
        cmd_compile("x1+x2", FAST, out=str(b), fmt="json", stream=io.StringIO())
        rc = cmd_verify(str(a) + ".net.json", "x1+x2", FAST,
                        cert_path=str(b) + ".cert.json", fmt="json", stream=io.StringIO())
        assert rc == 4

    def test_expression_mismatch_detected(self, tmp_path):
        a = tmp_path / "a"
        cmd_compile("x1*x2", FAST, out=str(a), fmt="json", stream=io.StringIO())
        rc = cmd_verify(str(a) + ".net.json", "x1+x2", FAST,
                        cert_path=str(a) + ".cert.json", fmt="json", stream=io.StringIO())
        assert rc == 4

    def test_missing_net_file(self, capsys):
        assert cmd_verify("/nonexistent.json", "x1", FAST) == 2

    @pytest.mark.parametrize("field, value", [("domain", [0.0, 7.5]), ("grid_points", 3)])
    def test_spline_metadata_disagreeing_with_knots_exit_2(self, tmp_path, capsys, field, value):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        path = tmp_path / "kan.net.json"
        doc = json.loads(path.read_text())
        doc["layers"][0]["edges"][0]["spline"][field] = value
        path.write_text(json.dumps(doc, indent=2))
        assert main(["verify", "--net", str(path), "-e", "x1*x2", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "$.layers[0].edges[0].spline" in err

    @pytest.mark.parametrize("field, value", [("per_node", 5), ("config", None)])
    def test_malformed_cert_field_exit_2(self, tmp_path, capsys, field, value):
        prefix = tmp_path / "kan"
        cmd_compile("x1*x2", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        doc = json.loads((tmp_path / "kan.cert.json").read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        (tmp_path / "bad.cert.json").write_text(json.dumps(doc))
        rc = cmd_verify(str(prefix) + ".net.json", "x1*x2", FAST,
                        cert_path=str(tmp_path / "bad.cert.json"), fmt="json", stream=io.StringIO())
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    @pytest.mark.parametrize("terms", [500, 1500])
    def test_deep_expression_exit_2(self, tmp_path, capsys, terms):
        # 1500 terms exhaust the recursion limit while rendering, 500 while certifying
        prefix = tmp_path / "kan"
        cmd_compile("x1", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        capsys.readouterr()
        rc = cmd_verify(str(prefix) + ".net.json", "+".join(["x1"] * terms), FAST,
                        fmt="json", stream=io.StringIO())
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def _box_files(self, tmp_path):
        tree = parse_expression("sin(x1*x2)+x1")
        net, cert = compile_on_box(tree, affine_box([(-2.0, 1.0), (0.5, 3.0)]))
        (tmp_path / "box.net.json").write_text(serialize(net))
        (tmp_path / "box.cert.json").write_text(cert.to_json())
        return str(tmp_path / "box.net.json"), str(tmp_path / "box.cert.json")

    def test_box_certificate_verifies(self, tmp_path):
        net_path, cert_path = self._box_files(tmp_path)
        buf = io.StringIO()
        rc = cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json", stream=buf)
        assert rc == 0
        assert all(r["ok"] for r in json.loads(buf.getvalue()))
        # without the certificate the box is unknown and the error check fails
        assert cmd_verify(net_path, "sin(x1*x2)+x1", FAST, fmt="json", stream=io.StringIO()) == 3

    @pytest.mark.parametrize("box", [[[1.0, 1.0], [0.5, 3.0]], [[-2.0, 1.0]], [[0.0, "inf"], [0.5, 3.0]]],
                             ids=["degenerate", "arity", "infinite"])
    def test_bad_box_in_certificate_exit_2(self, tmp_path, capsys, box):
        net_path, cert_path = self._box_files(tmp_path)
        doc = json.loads((tmp_path / "box.cert.json").read_text())
        doc["box"] = [[float(t) for t in iv] for iv in box]
        (tmp_path / "box.cert.json").write_text(json.dumps(doc))
        rc = cmd_verify(net_path, "sin(x1*x2)+x1", FAST, cert_path=cert_path, fmt="json", stream=io.StringIO())
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad certificate")

    def test_non_finite_knots_exit_2(self, tmp_path, capsys):
        prefix = tmp_path / "kan"
        cmd_compile("x1", FAST, out=str(prefix), fmt="json", stream=io.StringIO())
        path = tmp_path / "kan.net.json"
        doc = json.loads(path.read_text())
        spline = doc["layers"][0]["edges"][0]["spline"]
        spline["knots"] = spline["domain"] = [0.0, float("inf")]
        path.write_text(json.dumps(doc, indent=2))
        assert main(["verify", "--net", str(path), "-e", "x1", "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "$.layers[0].edges[0].spline" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_nan_network_fails_sup_error_row(self, tmp_path, capsys):
        path = tmp_path / "nan.net.json"
        path.write_text(serialize(nan_network()))
        buf = io.StringIO()
        assert cmd_verify(str(path), "x1+x2", FAST, fmt="json", stream=buf) == 3
        rows = {r["name"]: r for r in json.loads(buf.getvalue())}
        row = rows["sup error <= error_bound + slack"]
        assert not row["ok"] and math.isnan(row["lhs"])
        assert "sup error" in capsys.readouterr().err


class TestTableProducts:
    def test_all_rows_exactly_one(self, tmp_path):
        buf = io.StringIO()
        rc = cmd_table_products(RunConfig(), out=str(tmp_path / "t.csv"), fmt="csv", stream=buf)
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


class TestSweepRate:
    def test_values_and_ratio(self, tmp_path):
        buf = io.StringIO()
        rc = cmd_sweep_rate(RunConfig(), out=str(tmp_path / "s.csv"), fmt="csv", stream=buf)
        assert rc == 0
        rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().strip().splitlines()[1:]]
        errors = {int(g): float(e) for g, e, _, _ in rows}
        for G, expected in ((5, 7.25e-5), (12, 1.52e-6), (35, 1.74e-8)):
            assert expected / 10 < errors[G] < expected * 10
        ratios = [float(r) for _, _, _, r in rows]
        assert max(ratios) / min(ratios) < 2.0


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
        assert cmd_fuzz(RunConfig(samples=1500, seed=5), trees=6, max_depth=4) == 0
        per_tree = [seed for seed, samples in draws if samples == 1500]
        assert len(per_tree) == len(set(per_tree)) == 6
        assert [samples for _, samples in draws if samples != 1500] == [1000] * 5

    def test_rejects_bad_counts(self, capsys):
        assert cmd_fuzz(RunConfig(), trees=0) == 2

    def test_random_tree_distribution_bounds(self, rng):
        for _ in range(200):
            stats = tree_stats(random_tree(rng, 5))
            assert stats.depth <= 5
            assert 1 <= stats.n <= 6

    def test_additive_tree_builder(self):
        for depth in range(1, 6):
            stats = tree_stats(balanced_additive_tree(depth))
            assert stats.internal == 2**depth - 1
            assert stats.depth == depth


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        assert main(["sweep-rate", "--format", "json", "-o", str(tmp_path / "a.csv")]) == 0
        assert json.loads(capsys.readouterr().out)[0]["G"] == 5
        assert main(["sweep-rate", "-o", str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out.startswith("G,error,h4,ratio\n")


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        cfg = RunConfig(samples=1000, seed=123)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_table_products(cfg, out=str(a), fmt="csv", stream=io.StringIO())
        cmd_table_products(cfg, out=str(b), fmt="csv", stream=io.StringIO())
        assert a.read_bytes() == b.read_bytes()
        ja, jb = tmp_path / "ja", tmp_path / "jb"
        cmd_compile("sin((x1+x2)*x3)", cfg, out=str(ja), fmt="json", stream=io.StringIO())
        cmd_compile("sin((x1+x2)*x3)", cfg, out=str(jb), fmt="json", stream=io.StringIO())
        assert (tmp_path / "ja.net.json").read_bytes() == (tmp_path / "jb.net.json").read_bytes()
        assert (tmp_path / "ja.cert.json").read_bytes() == (tmp_path / "jb.cert.json").read_bytes()

    def test_env_seed_overrides_flag(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KANFORGE_SEED", "777")
        out = io.StringIO()
        rc = main(["compile", "-e", "x1", "--seed", "1", "--samples", "100",
                   "-o", str(tmp_path / "k"), "--format", "json"])
        assert rc == 0
