import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbwalks import EdgeSpace, Matrix, Polynomial, build_graph, parse_graph
from nbwalks.errors import (
    DuplicateEdgeError,
    GraphParseError,
    NonPositiveWeightError,
)
from nbwalks import cli as cli_mod
from nbwalks import edgespace as edgespace_mod
from nbwalks.cli import main, run_command
from nbwalks.exact import _batched_dets
from nbwalks.fileio import (
    matrix_json,
    parse_weight,
    poly_json,
    rational_str,
    to_json,
    walk_table_json,
)
from nbwalks.ihara import IdentityCertificate
from nbwalks.walks import nbt_katz_centrality, walk_table

from helpers import example1


EXAMPLE1 = "1\t2\n2\t1\n2\t3\n3\t4\n4\t2\n"


class TestParse:
    @pytest.mark.parametrize("token", ["1e10000000", "1E+4301", "1e-4301",
                                       "1e0_4301", "1" * 4301, "1/" + "3" * 4300])
    def test_weight_too_long_is_refused(self, token):
        # Fraction("1e10000000") alone takes seconds; the refusal is immediate
        with pytest.raises(GraphParseError, match="more than 4300 digits"):
            parse_weight(token)

    def test_weight_at_digit_limit_parses(self):
        assert parse_weight("1e4300") == 10**4300
        assert parse_weight("1e-4300") == F(1, 10**4300)
        assert parse_weight("7" * 4300) == int("7" * 4300)

    def test_example1(self):
        g = parse_graph(EXAMPLE1)
        assert g.edge_set() == example1().edge_set()
        assert g.labels == ("1", "2", "3", "4")

    def test_undirected_directive(self):
        g = parse_graph("%undirected\n1\t2\n")
        assert g.m == 2 and g.reciprocated_arc_count() == 2

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\n1\t2  # trailing\n")
        assert g.m == 1

    def test_isolated_vertex_line(self):
        g = parse_graph("5\n1\t2\n")
        assert g.n == 3 and g.labels[0] == "5"

    def test_decimal_weight_exact(self):
        g = parse_graph("1\t2\t0.25\n")
        assert g.edges[0][2] == F(1, 4)

    def test_fraction_weight(self):
        g = parse_graph("1\t2\t3/7\n")
        assert g.edges[0][2] == F(3, 7)

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            parse_graph("1\t2\t0\n")

    def test_bad_token_count(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("1\t2\t3\t4\n")
        assert "line 1" in str(err.value)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph("1\t2\n1\t2\n")

    def test_repeated_bad_weight_reported_at_first_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("1\t2\t1/2\n2\t3\tabc\n3\t4\n4\t1\tabc\n")
        assert str(err.value) == "line 2: cannot parse weight 'abc'"

    def test_equal_weights_from_different_tokens(self):
        g = parse_graph("1\t2\t1/2\n2\t3\t0.5\n3\t1\t2/4\n1\t3\t1/2\n")
        assert [w for _, _, w in g.edges] == [F(1, 2)] * 4

    def test_every_weight_is_a_fraction(self):
        g = parse_graph("%undirected\n1\t2\n2\t3\t3\n3\t4\t0.25\n4\t1\t3\n1\t3\n")
        assert {w for _, _, w in g.edges} == {1, 3, F(1, 4)}
        assert all(type(w) is F for _, _, w in g.edges)

    def test_build_graph_weight_types(self):
        arcs = [("b", "a"), ("a", "c"), ("a", "b"), ("c", "b"), ("b", "c")]
        weights = [2, 1, 7, 3, 1]
        graphs = [build_graph([(*arc, convert(w)) for arc, w in zip(arcs, weights)])
                  for convert in (int, F, str)]
        graphs.append(build_graph([(*arc, str(F(w, 6))) for arc, w in zip(arcs, weights)]))
        graphs.append(build_graph([(*arc, F(w, 6)) for arc, w in zip(arcs, weights)]))
        assert graphs[0] == graphs[1] == graphs[2] and graphs[3] == graphs[4]
        for g in graphs:
            assert g.labels == ("b", "a", "c")
            assert [(u, v) for u, v, _ in g.edges] == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]
            assert all(type(w) is F for _, _, w in g.edges)
        assert [w for _, _, w in graphs[0].edges] == [2, 1, 7, 1, 3]
        assert [w for _, _, w in graphs[3].edges] == [F(1, 3), F(1, 6), F(7, 6), F(1, 6), F(1, 2)]


@pytest.fixture()
def example1_file(tmp_path):
    path = tmp_path / "example1.tsv"
    path.write_text(EXAMPLE1)
    return str(path)


class TestCommands:
    def test_radius_payload(self, example1_file):
        code, doc = run_command(["radius", example1_file])
        assert code == 0
        payload = doc["payload"]
        assert payload["case"] == "SomeOneCycleNoneMore"
        assert payload["r"] == {"kind": "exact", "value": "1/1", "decimal": "1"}

    def test_analyze(self, example1_file):
        code, doc = run_command(["analyze", example1_file])
        assert code == 0
        p = doc["payload"]
        assert (p["n"], p["m"]) == (4, 5)
        assert p["reciprocal_pairs"] == 1
        assert p["components"][0]["cycle_class"] == "one_cycle"

    def test_verify_ok(self, example1_file):
        code, doc = run_command(["verify", "--identity", "ihara", example1_file])
        assert code == 0
        assert doc["payload"]["all_equal"] is True

    def test_verify_all(self, example1_file):
        code, doc = run_command(["verify", example1_file])
        assert code == 0
        assert len(doc["payload"]["certificates"]) == 8

    def test_walk_methods_identical_tables(self, example1_file):
        _, via_oracle = run_command(
            ["walks", "--k", "5", "--method", "oracle", example1_file]
        )
        _, via_rec = run_command(
            ["walks", "--k", "5", "--method", "recurrence", example1_file]
        )
        _, via_edge = run_command(
            ["walks", "--k", "5", "--method", "edgepower", example1_file]
        )
        t1 = json.dumps(via_oracle["payload"]["tables"])
        t2 = json.dumps(via_rec["payload"]["tables"])
        t3 = json.dumps(via_edge["payload"]["tables"])
        assert t1 == t2 == t3

    def test_smith_golden(self, example1_file):
        code, doc = run_command(["smith", "--tau", "1/2", example1_file])
        assert code == 0
        inv = doc["payload"]["invariants"]
        assert inv[1] == ["-4/1", "0/1", "1/1"]
        assert inv[3] == [
            "16/1", "0/1", "-8/1", "-16/1", "1/1", "0/1", "0/1", "1/1",
        ]

    def test_centrality(self, example1_file):
        code, doc = run_command(["centrality", "--t", "1/4", example1_file])
        assert code == 0
        assert doc["payload"]["row_sums"][0] == "1345/1008"

    def test_determinism(self, example1_file, capsys):
        assert main(["radius", example1_file]) == 0
        first = capsys.readouterr().out
        assert main(["radius", example1_file]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_package_runs_as_module(self, example1_file, capsys):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli_mod.__file__)))
        done = subprocess.run([sys.executable, "-m", "nbwalks", "analyze", example1_file],
                              capture_output=True, text=True, env=env, timeout=120)
        assert main(["analyze", example1_file]) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
        done = subprocess.run([sys.executable, "-m", "nbwalks", "verify", "--tau", "oops",
                               example1_file], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 1 and done.stderr.startswith("nbwalks: ")

    def test_shared_parser_matches_fresh_processes(self, example1_file, capsys):
        # one parser serves every call in a process; each call must still
        # read only its own argv, as a fresh process does
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli_mod.__file__)))

        def fresh(argv):
            done = subprocess.run([sys.executable, "-m", "nbwalks.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            return done.returncode, done.stdout, done.stderr

        runs = (["smith", "--tau", "1/2", example1_file], ["smith", example1_file],
                ["smith", "--tau", "oops", example1_file], ["radius", example1_file])
        for argv in runs:
            code, out, err = fresh(argv)
            if code == 1:
                with pytest.raises(cli_mod._UsageError) as usage:
                    run_command(argv)
                assert err == f"nbwalks: {usage.value}\n"
                continue
            got_code, doc = run_command(argv)
            assert (got_code, to_json(doc)) == (code, out.rstrip("\n"))
        assert doc["command"] == "radius --mode=nbtw"

        assert main(["--quiet", "smith", "--tau", "1/2", example1_file]) == 0
        assert capsys.readouterr().out == ""
        assert main(["smith", example1_file]) == 0
        assert capsys.readouterr().out == fresh(["smith", example1_file])[1]

    def test_flags_before_subcommand(self, example1_file, capsys):
        for flags in (["--format", "tsv"], ["--quiet"]):
            assert main(["smith", *flags, example1_file]) == 0
            after = capsys.readouterr().out
            assert main([*flags, "smith", example1_file]) == 0
            assert capsys.readouterr().out == after
        assert after == ""

    def test_float_walks(self, example1_file):
        code, doc = run_command(["walks", "--k", "3", "--float", example1_file])
        assert code == 0
        assert doc["payload"]["float"] is True


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["radius", "/nonexistent/file.tsv"]) == 1

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nbwalks: ") and "Traceback" not in err

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"1\t2\n\xff\t3\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nbwalks: ") and "UTF-8" in err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t0\n")
        assert main(["radius", str(path)]) == 1
        assert "nbwalks" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["Infinity", "inf", "-inf", "-Infinity"])
    def test_infinite_weight_is_parse_error(self, tmp_path, capsys, token):
        path = tmp_path / "inf.tsv"
        path.write_text(f"1\t2\t1/2\n2\t1\t{token}\n")
        assert main(["radius", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nbwalks: parse error: line 2: cannot parse weight {token!r}\n"

    def test_huge_exponent_weight_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge.tsv"
        path.write_text("a\tb\t1e10000000\nb\ta\n")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("nbwalks: parse error: line 1: weight '1e10000000' needs "
                                "an integer of more than 4300 digits\n")

    @pytest.mark.parametrize("omega", ["2", "-1", "3/2"])
    def test_centrality_btdw_omega_out_of_range(self, example1_file, capsys, omega):
        argv = ["centrality", "--mode", "btdw", f"--omega={omega}", "--t", "1/4"]
        assert main([*argv, example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"nbwalks: OmegaOutOfRangeError: omega={omega} outside [0, 1]\n")

    def test_unknown_flag(self, example1_file, capsys):
        assert main(["radius", "--bogus", example1_file]) == 1

    def test_unknown_command(self, example1_file, capsys):
        assert main(["frobnicate", example1_file]) == 1

    def test_failed_certificate_exits_two(self, example1_file, monkeypatch, capsys):
        fake = IdentityCertificate(
            identity="ihara_digraph",
            equal=False,
            residual=Polynomial([1]),
            lhs=Polynomial([1]),
            rhs=Polynomial([0]),
        )
        monkeypatch.setattr(cli_mod, "verify_ihara_digraph", lambda g: fake)
        assert main(["verify", "--identity", "ihara", example1_file]) == 2

    def test_quiet_suppresses_stdout(self, example1_file, capsys):
        assert main(["radius", example1_file, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_budget_flag(self, tmp_path, capsys):
        path = tmp_path / "k5.tsv"
        edges = [
            f"{i}\t{j}" for i in range(1, 6) for j in range(1, 6) if i != j
        ]
        path.write_text("\n".join(edges) + "\n")
        assert main(
            ["walks", "--k", "8", "--method", "oracle", "--budget", "10", str(path)]
        ) == 1
        assert "budget" in capsys.readouterr().err

    def test_budget_env(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "k5.tsv"
        edges = [
            f"{i}\t{j}" for i in range(1, 6) for j in range(1, 6) if i != j
        ]
        path.write_text("\n".join(edges) + "\n")
        monkeypatch.setenv("NBTW_BUDGET", "10")
        assert main(["walks", "--k", "8", "--method", "oracle", str(path)]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--method", "oracle"],
            ["--method", "edgepower"],
            ["--float"],
            ["--omega", "1/2"],
            ["--omega", "1/2", "--method", "oracle"],
        ],
    )
    def test_negative_k_is_usage_error(self, example1_file, capsys, extra):
        assert main(["walks", "--k", "-1", *extra, example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k must be nonnegative" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--t", "1/10", "--mode", "btdw"], "--mode btdw needs --omega"),
            (["--t", "-1"], "--t must be nonnegative"),
            (["--t=-1/3", "--mode", "btdw", "--omega", "1/2"], "--t must be nonnegative"),
            (["--t", "1/10", "--omega", "1/2"], "--omega applies to --mode btdw only"),
            (["--t", "1/10", "--mode", "weighted", "--omega", "0"],
             "--omega applies to --mode btdw only"),
        ],
    )
    def test_centrality_usage_errors(self, example1_file, capsys, argv, message):
        assert main(["centrality", *argv, example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nbwalks: ") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("mode", [[], ["--mode", "nbtw"], ["--mode", "weighted"]])
    def test_radius_tau_outside_btdw_is_usage_error(self, example1_file, capsys, mode):
        assert main(["radius", *mode, "--tau", "1/3", example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nbwalks: --tau applies to --mode btdw only\n"

    @pytest.mark.parametrize("text, argv, message", [
        ("a\tb\t2\nb\tc\nc\ta\n", ["--t", "1/200"],
         "WeightedUnsupportedError: radius_unweighted needs an unweighted graph"),
        ("a\tb\t2\nb\tc\nc\ta\n", ["--mode", "btdw", "--omega", "1/2", "--t", "1/200"],
         "WeightedUnsupportedError: radius_btdw needs an unweighted graph"),
        ("%undirected\na\tb\nb\tc\nc\ta\n", ["--t", "3/2"],
         "AboveRadiusError: t=3/2 is not certifiably below the radius of convergence"),
    ], ids=["nbtw-weighted", "btdw-weighted", "above-radius"])
    def test_centrality_refusals(self, tmp_path, capsys, text, argv, message):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        assert main(["centrality", *argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nbwalks: {message}\n"

    # Paths have infinite radius and finitely many walks, so every t is
    # certified and each row sum is the finite sum of the walk tables at t,
    # here at t = 1/tau, where the deformed Laplacian is singular.
    @pytest.mark.parametrize("text, argv, sums", [
        ("%undirected\na\tb\nb\tc\n", ["--t", "1"], ["3/1", "3/1", "3/1"]),
        ("a\tb\nb\tc\n", ["--t", "1"], ["3/1", "2/1", "1/1"]),
        ("a\tb\nb\tc\n", ["--mode", "btdw", "--omega", "1/2", "--t", "2"],
         ["7/1", "3/1", "1/1"]),
    ], ids=["path", "directed-path", "directed-path-btdw"])
    def test_centrality_at_one_over_tau(self, tmp_path, text, argv, sums):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        code, doc = run_command(["centrality", *argv, str(path)])
        assert code == 0 and doc["payload"]["row_sums"] == sums

    def test_centrality_library_keeps_value_error(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            nbt_katz_centrality(example1(), -1)
        with pytest.raises(ValueError, match="btdw mode needs omega"):
            nbt_katz_centrality(example1(), F(1, 10), mode="btdw")

    @pytest.mark.parametrize(
        "text, k",
        [
            # weighted branch: three arcs of weight 1e300 overflow at length 2
            ("a\tb\t1e300\nb\tc\t1e300\nc\ta\t1e300\n", 3),
            # recurrence branch: K5 has about 3^k walks of length k
            ("%undirected\n" + "".join(
                f"{i}\t{j}\n" for i in range(1, 6) for j in range(i + 1, 6)), 700),
        ],
        ids=["weighted", "recurrence"],
    )
    def test_float_overflow_exits_one(self, tmp_path, capsys, text, k):
        path = tmp_path / "big.tsv"
        path.write_text(text)
        assert main(["walks", "--k", str(k), "--float", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nbwalks: FloatRangeError:")
        assert "Traceback" not in captured.err
        assert main(["walks", "--k", str(k // 2), "--float", str(path)]) == 0
        json.loads(capsys.readouterr().out, parse_constant=pytest.fail)

    def test_zero_k_is_accepted(self, example1_file):
        code, doc = run_command(["walks", "--k", "0", example1_file])
        assert code == 0 and doc["payload"]["kmax"] == 0

    def test_input_sha256_matches_file_bytes(self, example1_file):
        _, doc = run_command(["analyze", example1_file])
        expected = hashlib.sha256(EXAMPLE1.encode("utf-8")).hexdigest()
        assert doc["input"]["sha256"] == expected
        assert doc["input"]["path"] == example1_file

    def test_tsv_format(self, example1_file, capsys):
        assert main(["radius", example1_file, "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        assert "payload.case\tSomeOneCycleNoneMore" in out


class TestCertificatesReadTheTransferRows:
    """The edge sides of the Ihara-type certificates are read off
    `EdgeSpace.transfer_rows`, the rows the radius reports and the walk
    tables read, so one wrong entry there makes each certificate unequal."""

    @pytest.mark.parametrize("identity", ["ihara", "tau-ihara", "weighted-ihara"])
    def test_doubled_entry_exits_two(self, tmp_path, monkeypatch, capsys, identity):
        path = tmp_path / "two_cycles.tsv"
        path.write_text("%undirected\n1\t2\n2\t3\n3\t1\n3\t4\n4\t1\n")
        argv = ["verify", "--identity", identity, str(path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["all_equal"] is True
        transfer_rows = EdgeSpace.transfer_rows

        def doubled(es, tau=1):
            rows, den = transfer_rows(es, tau)
            cols, xs = rows[0]
            rows[0] = (cols, [2 * xs[0], *xs[1:]])
            return rows, den

        monkeypatch.setattr(EdgeSpace, "transfer_rows", doubled)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["payload"]["all_equal"] is False


class TestPlannedDeterminantFailure:
    def test_off_by_one_at_one_point_exits_two(self, example1_file, monkeypatch, capsys):
        # example1 is one strongly connected block with 2 (4 + 5) + 1 = 19
        # sample points, all in one batched elimination
        argv = ["verify", "--identity", "weighted-ihara", example1_file]
        assert main(argv) == 0
        assert _weighted_ihara_details(capsys)["sample_points"] == 19
        calls = []

        def off_by_one(rows, count):
            values = _batched_dets(rows, count)
            calls.append(count)
            return [x + (k == 4) for k, x in enumerate(values)]

        monkeypatch.setattr(edgespace_mod, "_batched_dets", off_by_one)
        assert main(argv) == 2
        assert calls == [19]
        details = _weighted_ihara_details(capsys)
        # the check names the point that failed
        assert details == {"sample_points": 4, "samples_consistent": False}


def _weighted_ihara_details(capsys):
    payload = json.loads(capsys.readouterr().out)["payload"]
    (cert,) = payload["certificates"]
    assert cert["identity"] == "weighted_ihara" and payload["all_equal"] is cert["equal"]
    return cert["details"]


class TestWeightedInput:
    @pytest.fixture()
    def weighted_file(self, tmp_path):
        path = tmp_path / "w3.tsv"
        path.write_text("1\t2\t2\n2\t3\t3\n3\t1\t5\n")
        return str(path)

    def test_verify_all_skips_unit_only_identities(self, weighted_file):
        code, doc = run_command(["verify", weighted_file])
        assert code == 0
        payload = doc["payload"]
        assert [c["identity"] for c in payload["certificates"]] == ["weighted_ihara"]
        assert "ihara_digraph" in payload["skipped_for_weights"]

    def test_explicit_unit_only_identity_errors(self, weighted_file, capsys):
        assert main(["verify", "--identity", "ihara", weighted_file]) == 1

    def test_float_walks_weighted(self, weighted_file):
        code, doc = run_command(["walks", "--k", "3", "--float", weighted_file])
        assert code == 0
        assert doc["payload"]["tables"][3][0][0] == 30.0

    def test_weighted_radius_command(self, weighted_file):
        code, doc = run_command(["radius", "--mode", "weighted", weighted_file])
        assert code == 0
        assert doc["payload"]["sigma_squared"] == "6/1"


class TestExtremeWeights:
    """Weights beyond the float range: a 3-cycle a -> b -> c -> a of weight
    product w, plus the back arc b -> a."""

    @pytest.fixture(params=[("1e400", 10**400), ("1e-400", F(1, 10**400))],
                    ids=["huge", "tiny"])
    def extreme(self, tmp_path, request):
        text, weight = request.param
        path = tmp_path / "extreme.tsv"
        path.write_text(f"a\tb\t{text}\nb\tc\t1\nc\ta\t1\nb\ta\t2\n")
        return str(path), F(weight)

    def test_weighted_radius(self, extreme):
        path, weight = extreme
        code, doc = run_command(["radius", "--mode", "weighted", path])
        assert code == 0
        rho = doc["payload"]["rho"]
        assert F(rho["lower"]) ** 3 <= weight <= F(rho["upper"]) ** 3

    @pytest.mark.parametrize("exponent, iterations", [(8, 0), (14, 0), (300, 0), (2000, 44)])
    def test_weighted_radius_far_from_one(self, tmp_path, exponent, iterations):
        # the Perron root 10**(exponent/3) is far from 1, in and past the
        # float range; the bracket still closes in a few exact steps
        path = tmp_path / "far.tsv"
        path.write_text(f"a\tb\t1e{exponent}\nb\tc\t1\nc\ta\t1\nb\ta\t1\n")
        code, doc = run_command(["radius", "--mode", "weighted", str(path)])
        assert code == 0
        rho = doc["payload"]["rho"]
        lower, upper = F(rho["lower"]), F(rho["upper"])
        assert lower**3 <= 10**exponent <= upper**3
        assert upper - lower <= F(1, 10**12) * max(1, upper)
        assert rho["iterations"] == iterations

    def test_weighted_centrality(self, extreme):
        path, weight = extreme
        t = "1/10" if weight < 1 else f"1/{10**134}"
        code, doc = run_command(["centrality", "--mode", "weighted", "--t", t, path])
        assert code == 0
        assert len(doc["payload"]["row_sums"]) == 3

    def test_float_walks_exit_one(self, extreme, capsys):
        path, _ = extreme
        assert main(["walks", "--k", "3", "--float", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nbwalks: FloatRangeError:") and "Traceback" not in err


def _graph_texts(weights):
    """Graph files on up to 5 vertices, isolated vertices and arcless graphs
    included, with arc weights drawn from ``weights``."""
    def text(case):
        n, arcs = case
        seen, lines = set(), [f"{v}\n" for v in range(n)]
        for u, v, w in arcs:
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                lines.append(f"{u}\t{v}\t{w}\n")
        return "".join(lines)

    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.sampled_from(weights)), max_size=n * (n - 1)))).map(text)


def _outcome(argv):
    """The payload of a run, or the type of the error it raised."""
    try:
        return run_command(argv)[1]["payload"]
    except Exception as exc:  # the same error is expected from both runs
        return type(exc)


class TestFloatTables:
    """``walks --float`` prints the exact table the other flags select, each
    entry rounded once to the nearest float."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(_graph_texts(["1"]), _graph_texts(["1", "2", "1/3", "0.25", "5/7"])),
           k=st.integers(0, 5),
           method=st.sampled_from(["recurrence", "edgepower", "oracle"]),
           omega=st.sampled_from([None, "0", "1/3", "1/2", "1", "7/10"]))
    def test_entries_are_the_rounded_exact_entries(self, tmp_path, text, k, method, omega):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        argv = ["walks", "--k", str(k), "--method", method, str(path)]
        if omega is not None:
            argv[1:1] = ["--omega", omega]
        exact = _outcome(argv)
        rounded = _outcome(argv + ["--float"])
        if isinstance(exact, type):
            assert rounded is exact
            return
        assert rounded["float"] is True and exact["float"] is False
        assert (rounded["walk_kind"], rounded["kmax"]) == (exact["walk_kind"], k)
        assert len(rounded["tables"]) == len(exact["tables"]) == k + 1
        for got, want in zip(rounded["tables"], exact["tables"]):
            assert got == [[float(F(x)) for x in row] for row in want]
            assert all(type(x) is float for row in got for x in row)

    def test_oracle_budget_applies(self, example1_file, capsys):
        argv = ["walks", "--k", "6", "--float", "--method", "oracle", "--budget", "1"]
        assert main([*argv, example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nbwalks: EnumerationBudgetExceededError:")

    def test_edgepower_with_omega_is_usage_error(self, example1_file, capsys):
        argv = ["walks", "--k", "3", "--float", "--method", "edgepower", "--omega", "1/2"]
        assert main([*argv, example1_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nbwalks: edgepower method applies to plain walks only\n"

    def test_entries_past_2_to_53_round_once(self, tmp_path):
        # K5's non-backtracking counts pass 2**53 at k = 35; from there on
        # they are not floats, and only one rounding of each gives float()
        path = tmp_path / "k5.tsv"
        path.write_text("%undirected\n" + "".join(
            f"{i}\t{j}\n" for i in range(1, 6) for j in range(i + 1, 6)))
        k = 60
        _, exact = run_command(["walks", "--k", str(k), str(path)])
        _, rounded = run_command(["walks", "--k", str(k), "--float", str(path)])
        want = [[float(F(x)) for x in row] for row in exact["payload"]["tables"][k]]
        assert rounded["payload"]["tables"][k] == want


class TestCentralityFuzz:
    """Every centrality run on a small graph file ends in a value (exit 0)
    or a clean error (exit 1, nothing on stdout), and on unit graphs the
    three routes to plain non-backtracking walks agree."""

    FAMILIES = (("nbtw", None), ("btdw", "0"), ("btdw", "1/2"), ("btdw", "1"),
                ("weighted", None))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(_graph_texts(["1"]), _graph_texts(["1", "2", "1/2", "3/7"])),
           t=st.sampled_from(["0", "1/(2n)", "1/2", "1", "2"]))
    def test_exit_zero_or_clean_error(self, tmp_path, capsys, text, t):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        n = sum("\t" not in line for line in text.splitlines())
        t = f"1/{2 * n}" if t == "1/(2n)" else t
        sums = {}
        for mode, omega in self.FAMILIES:
            argv = ["centrality", "--mode", mode, "--t", t, str(path)]
            if omega is not None:
                argv[1:1] = ["--omega", omega]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1) and "Traceback" not in captured.err, (argv, text)
            if code == 1:
                assert captured.out == "" and captured.err.startswith("nbwalks: ")
            else:
                sums[mode, omega] = json.loads(captured.out)["payload"]["row_sums"]
        unit = all(line.split("\t")[2] == "1" for line in text.splitlines() if "\t" in line)
        plain = [sums.get(key) for key in (("nbtw", None), ("btdw", "0"), ("weighted", None))]
        if unit and None not in plain:
            assert plain[0] == plain[1] == plain[2], (text, t)


class TestCommandFuzz:
    """Every command but centrality (`TestCentralityFuzz`) on a small graph
    file ends in a report (exit 0) or a clean error (exit 1, nothing on
    stdout): never an unequal certificate (exit 2) or a traceback.  The
    graphs have at most 5 vertices, so that no case can run long."""

    COMMANDS = (
        ["analyze"],
        ["radius", "--mode", "nbtw"],
        ["radius", "--mode", "btdw"],
        ["radius", "--mode", "weighted"],
        ["walks", "--k", "5", "--method", "recurrence"],
        ["walks", "--k", "5", "--method", "edgepower"],
        ["walks", "--k", "5", "--method", "oracle"],
        ["walks", "--k", "5", "--omega", "1/2"],
        ["walks", "--k", "5", "--float"],
        ["verify", "--tau", "1/2"],
        ["verify", "--tau", "0"],
        ["verify", "--tau", "1"],
        ["smith"],
        ["smith", "--tau", "1/2"],
    )

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(_graph_texts(["1"]), _graph_texts(["1", "2", "1/2", "3/7"])))
    def test_exit_zero_or_clean_error(self, tmp_path, capsys, text):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        for command in self.COMMANDS:
            argv = [*command, str(path)]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1) and "Traceback" not in captured.err, (argv, text)
            if code == 1:
                assert captured.out == "" and captured.err.startswith("nbwalks: "), (argv, text)


class TestMoreInputs:
    def test_k4_verify(self, tmp_path):
        lines = [f"{i}\t{j}" for i in range(1, 5) for j in range(1, 5) if i != j]
        path = tmp_path / "k4.tsv"
        path.write_text("\n".join(lines) + "\n")
        code, doc = run_command(["verify", "--identity", "ihara", str(path)])
        assert code == 0
        assert doc["payload"]["certificates"][0]["equal"] is True

    def test_empty_file_analyzes(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing\n")
        code, doc = run_command(["analyze", str(path)])
        assert code == 0
        assert doc["payload"]["n"] == 0

    def test_btdw_radius_command(self, tmp_path):
        path = tmp_path / "tree.tsv"
        path.write_text("%undirected\n1\t2\n2\t3\n")
        code, doc = run_command(["radius", "--mode", "btdw", "--tau", "1/2", str(path)])
        assert code == 0
        assert doc["payload"]["case"] == "NotCharacterized"
        assert doc["payload"]["bounds"] is not None


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.text(), st.sampled_from(["1/2", "-3/4", "0/1"]))
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_DOCS = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_JSON_KEYS, inner, max_size=5),
    st.lists(st.text(), max_size=6),
    st.lists(st.lists(st.floats(), max_size=4), max_size=4),
), max_leaves=40)


class _Str(str):
    pass


class TestToJson:
    """`to_json` is `json.dumps(doc, indent=2, ensure_ascii=True)`, byte
    for byte."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS)
    def test_bytes_of_json_dumps(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2, ensure_ascii=True)

    @pytest.mark.parametrize("argv", [["walks", "--k", "6", "--float"], ["walks", "--k", "6"],
                                      ["verify"], ["radius"], ["analyze"]])
    def test_reports(self, example1_file, argv):
        _, doc = run_command([*argv, example1_file])
        assert to_json(doc) == json.dumps(doc, indent=2, ensure_ascii=True)

    @pytest.mark.parametrize("doc", [
        ["a", 1], [1, "a"], ["a", None], [None, "a"], ["a", 0.5], [0.5, "a"],
        ["a", True], ["a", ["b"]], [["b"], "a"], ["a", {"k": "v"}], [{"k": "v"}, "a"],
        ["a", _Str("b")], [_Str("a")], ("a", "b"), {"t": ("a", ["b", 2])},
        ['q"uote', "back\\slash", "\x00\x1f\n\t\x7f", "\u00e9 \u2603 \U0001f600"],
        [1, 'q"', "\u00e9", None],
    ])
    def test_flat_and_mixed_lists(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2, ensure_ascii=True)

    @pytest.mark.parametrize("bad", [{"a": object()}, {(1, 2): 3}, [{1, 2}],
                                     ["a", object()], ["a", {1, 2}]])
    def test_refuses_what_json_refuses(self, bad):
        with pytest.raises(TypeError) as ours:
            to_json(bad)
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, indent=2, ensure_ascii=True)
        assert str(ours.value) == str(theirs.value)


class TestRationalJson:
    def test_integer_rows_format_as_reduced_fractions(self):
        # entries sharing factors with the common denominator 12, zero,
        # negative, and a denominator-1 matrix
        for m in (Matrix([[F(1, 2), F(-2, 3), 0], [F(5, 12), 3, F(-1, 4)]]),
                  Matrix([[4, -7], [0, 1]])):
            assert matrix_json(m) == [[rational_str(x) for x in row] for row in m.data]
        assert matrix_json(Matrix([[F(1, 2), F(-2, 3)]])) == [["1/2", "-2/3"]]
        p = Polynomial([F(1, 2), 0, F(-3, 4), 6])
        assert poly_json(p) == [rational_str(c) for c in p.coeffs] == ["1/2", "0/1", "-3/4", "6/1"]
        assert poly_json(Polynomial()) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matrix_json_is_per_entry(self, data):
        # few distinct values, many repeats, negatives and big integers,
        # over denominators that share factors with the entries
        pool = data.draw(st.lists(st.integers(-40, 40) | st.integers(-10**30, 10**30),
                                  min_size=1, max_size=4))
        ncols = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=ncols,
                                           max_size=ncols), max_size=6))
        den = data.draw(st.sampled_from([1, 1, 2, 12, 36, 360, 2**40 * 3**5]))
        m = Matrix(rows, den, ncols)
        assert matrix_json(m) == [[rational_str(x) for x in row] for row in m.data]

    def test_weighted_walk_tables_are_per_entry(self):
        g = build_graph([(1, 2, F(1, 2)), (2, 1, F(2, 3)), (2, 3, 3), (3, 2, F(5, 6)),
                         (3, 1, 1), (1, 3, F(1, 6))])
        table = walk_table(g, 6)
        # p_k is over 6**k, in lowest terms
        assert all(m.den > 1 and 6**k % m.den == 0 for k, m in enumerate(table.tables[1:], 1))
        doc = walk_table_json(table)
        assert doc["tables"] == [[[rational_str(x) for x in row] for row in m.data]
                                 for m in table.tables]
