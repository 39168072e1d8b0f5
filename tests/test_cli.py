"""Command line golden tests.

Every documented flag combination gets at least one invocation here;
outputs are compared byte for byte where the backend is exact, and
re-run to confirm byte stability where floats are involved.
"""

import csv
import hashlib
import io
import json

import pytest

from twodist import cli, search
from twodist.certificates import VerifyReport
from twodist.cli import main
from twodist.errors import InvariantViolation
from twodist.graphs import (Graph, canonical_form, complete_graph,
                            cycle_graph, disjoint_union, emit_graph6)


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_certify_square_exact(capsys):
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--exact", "--graph", "Cl")
    assert rc == 0
    assert out == "valid rank=2 quadform=1 equality\n"


def test_certify_square_float(capsys):
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--graph", "Cl")
    assert rc == 0
    assert out.startswith("valid rank=2 quadform=")
    q = float(out.split()[2].split("=")[1])
    assert abs(q - 1.0) <= 1e-12
    assert out.rstrip().endswith("equality")


def test_certify_fraction_switches_exact(capsys):
    # one fractional flag promotes the other scalar too
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta=-1/2",
                  "--graph", "Bw")
    assert rc == 0
    assert out == "valid rank=3 quadform=3/5\n"


def test_negative_fraction_after_a_flag_parses_like_the_equals_form(capsys):
    # argparse takes "-1/2" for an option unless it is glued to its flag
    cases = [
        (("certify", "--alpha", "1/4"), ("--beta", "-1/2"),
         ("--graph", "Dhc")),
        (("bounds",), ("--alpha", "-1/4"), ("--beta", "-1", "--d", "3")),
        (("search", "--r", "3", "--p", "1"), ("--mu", "-3/2"),
         ("--max-n", "3")),
    ]
    outs = []
    for head, (flag, value), tail in cases:
        split = run(capsys, *head, flag, value, *tail)
        assert split == run(capsys, *head, "%s=%s" % (flag, value), *tail)
        outs.append(split)
    assert outs[0] == (0, "valid rank=5 quadform=5/4\n")
    assert outs[1][0] == 0 and outs[1][1].startswith("name,")
    assert outs[2] == (2, "error: capacity needs mu > 1\n")


def test_certify_invalid_exits_one(capsys):
    star = emit_graph6(disjoint_union([complete_graph(2),
                                       complete_graph(2)]))
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--graph", star)
    assert rc == 1
    assert out == "invalid reason=quadform_exceeds\n"


def test_certify_beta_route(capsys):
    # alpha graph P3 means the zero products form an edge plus a point
    p3 = Graph(3, [(0, 2), (1, 2)])
    rc, out = run(capsys, "certify", "--alpha", "0.7071067811865476",
                  "--beta", "0", "--graph", emit_graph6(p3))
    assert rc == 0
    assert "valid rank=2 case=three" in out
    assert out.rstrip().endswith("equality")


def test_certify_batch(tmp_path, capsys):
    pair = emit_graph6(disjoint_union([complete_graph(2),
                                       complete_graph(2)]))
    batch = tmp_path / "graphs.txt"
    batch.write_text("Cl\n%s\n" % pair)
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--exact", "--in", str(batch))
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["graph", "valid", "rank", "quadform", "detail"]
    assert rows[1] == ["Cl", "yes", "2", "1", "equality"]
    assert rows[2] == [pair, "no", "", "4/3", "quadform_exceeds"]


def test_realize_extract_round_trip(tmp_path, capsys):
    path = tmp_path / "square.json"
    rc, _ = run(capsys, "realize", "--alpha", "0", "--beta", "-1",
                "--graph", "Cl", "--out", str(path))
    assert rc == 0
    rc, out = run(capsys, "extract", "--in", str(path))
    assert rc == 0
    assert out == "Cl\n"


def test_realize_padding_and_verify(tmp_path, capsys):
    path = tmp_path / "square4.json"
    rc, _ = run(capsys, "realize", "--alpha", "0", "--beta", "-1",
                "--graph", "Cl", "--d", "4", "--out", str(path))
    assert rc == 0
    assert json.loads(path.read_text())["dim"] == 4
    rc, out = run(capsys, "verify", "--in", str(path))
    assert rc == 0
    assert out == "valid values=alpha,beta\n"


def test_realize_invalid_graph(capsys):
    star = emit_graph6(disjoint_union([complete_graph(2),
                                       complete_graph(2)]))
    rc, out = run(capsys, "realize", "--alpha", "0", "--beta", "-1",
                  "--graph", star)
    assert rc == 1
    assert "quadform_exceeds" in out


def test_verify_detects_corruption(tmp_path, capsys):
    path = tmp_path / "square.json"
    run(capsys, "realize", "--alpha", "0", "--beta", "-1",
        "--graph", "Cl", "--out", str(path))
    data = json.loads(path.read_text())
    data["vectors"][0][0] += 0.05
    path.write_text(json.dumps(data))
    rc, out = run(capsys, "verify", "--in", str(path))
    assert rc == 1
    assert out.startswith("invalid norm_violations=")


def test_bounds_parameter_table(capsys):
    rc, out = run(capsys, "bounds", "--alpha", "0.05", "--beta", "-1",
                  "--d", "3")
    assert rc == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
    assert rows["dgs"][3:5] == ["9", "9"]
    assert rows["turan"][1] == "yes" and rows["turan"][4] == "6"
    assert rows["power"][4] == "11" and rows["power"][5] == "2"


def test_bounds_recursion_row(capsys):
    rc, out = run(capsys, "bounds", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "6")
    assert rc == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
    assert rows["recursion"][4] == "4"
    assert rows["recursion"][6] == "f=2 from search"


def test_bounds_graph_checks(capsys):
    rc, out = run(capsys, "bounds", "--alpha", "0", "--beta", "-1",
                  "--graph", "Cl")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    names = [r[0] for r in rows[1:]]
    assert names == ["Cl:subgraph", "Cl:independence", "Cl:clique_free",
                     "Cl:neighborhood"]
    assert all(r[2] == "yes" for r in rows[1:])


def test_bounds_graph_checks_invalid_cert(capsys):
    star = emit_graph6(disjoint_union([complete_graph(2),
                                       complete_graph(2)]))
    rc, out = run(capsys, "bounds", "--alpha", "0", "--beta", "-1",
                  "--graph", star)
    assert rc == 1
    assert "quadform_exceeds" in out


def test_search_golden_csv(capsys):
    rc, out = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "6")
    assert rc == 0
    want = ('query,value,exhaustive,witnesses\n'
            '"N[alpha=0, beta=-1](d=2), n_max=6",4,yes,%s\n'
            % canonical_form(cycle_graph(4)))
    assert out == want


def test_search_capacity_rows(capsys):
    rc, out = run(capsys, "search", "--r", "3", "--p", "1", "--mu", "2",
                  "--max-n", "5")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["N(r=3, p=1, mu=2), n_max=5", "3", "no",
                       canonical_form(complete_graph(3))]
    assert rows[2] == ["N*(r=3, p=1, mu=2), n_max=5", "4", "no",
                       canonical_form(cycle_graph(4))]


def test_search_workers_value_identical(capsys):
    _, serial = run(capsys, "search", "--r", "3", "--p", "1", "--mu", "2",
                    "--max-n", "5", "--workers", "1")
    _, parallel = run(capsys, "search", "--r", "3", "--p", "1", "--mu", "2",
                      "--max-n", "5", "--workers", "2")
    assert serial == parallel


def test_search_json(capsys):
    rc, out = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "6", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["value"] == 4 and rows[0]["exhaustive"] is True


def test_byte_stability(capsys):
    outs = set()
    for _ in range(2):
        _, out = run(capsys, "bounds", "--alpha", "0.05", "--beta", "-1",
                     "--d", "3")
        outs.add(out)
    assert len(outs) == 1


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    rc, out = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "5")
    assert rc == 0
    rc, silent = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                     "--d", "2", "--max-n", "5", "--out", str(path))
    assert rc == 0 and silent == ""
    assert path.read_text() == out


def test_enumerate_counts(capsys):
    rc, out = run(capsys, "enumerate", "--max-n", "5")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 2 + 4 + 11 + 34
    assert lines[0] == "@"


def test_enumerate_golden_digest(capsys):
    rc, out = run(capsys, "enumerate", "--max-n", "7")
    assert rc == 0
    assert len(out.splitlines()) == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9701eab755be7693d0f64a5dbf0fe67ab3917e7e402028802f12a41bf542510a")


def test_enumerate_guard_comes_first(capsys, monkeypatch):
    # above the guard nothing is enumerated, not even the orders below it
    calls = []
    monkeypatch.setattr(cli, "enumerate_graphs",
                        lambda n: calls.append(n) or ())
    rc, out = run(capsys, "enumerate", "--max-n", "9")
    assert rc == 2
    assert out.startswith("error:") and len(out.splitlines()) == 1
    assert calls == []


def test_crosscheck(capsys):
    rc, out = run(capsys, "crosscheck", "--max-n", "3")
    assert rc == 0
    assert out == "checked=105 mismatches=0\n"
    rc, out = run(capsys, "crosscheck", "--max-n", "3",
                  "--alpha", "1/4", "--beta=-1/2")
    assert rc == 0
    assert out == "checked=7 mismatches=0\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_crosscheck_needs_a_graph(capsys, max_n):
    # checking no graph is not a pass
    rc, out = run(capsys, "crosscheck", "--max-n", max_n)
    assert rc == 2
    assert out.startswith("error:") and "checked=" not in out


def test_usage_errors(capsys):
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1")
    assert rc == 2 and "required" in out
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--graph", "!!bad!!")
    assert rc == 2
    rc, out = run(capsys, "certify", "--alpha", "-1", "--beta", "0",
                  "--graph", "Cl")
    assert rc == 2
    rc, out = run(capsys, "search", "--alpha", "0", "--max-n", "4")
    assert rc == 2
    rc, out = run(capsys, "search", "--r", "2", "--p", "1", "--mu", "2",
                  "--max-n", "9")
    assert rc == 2
    rc, out = run(capsys, "bounds", "--alpha", "0.5", "--beta", "0.1",
                  "--graph", "Cl")
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (("bounds", "--alpha", "1/2", "--beta", "1/10", "--graph", "Cl"),
     "graph checks need beta < 0"),
    (("bounds", "--alpha", "0", "--beta", "-1"),
     "parameter bounds need --d"),
    (("search", "--max-n", "4"),
     "give either --alpha/--beta/--d or --r/--p/--mu"),
    (("search", "--alpha", "0", "--beta", "-1", "--max-n", "4"),
     "--d is required with --alpha/--beta"),
    (("crosscheck", "--alpha", "0", "--max-n", "3"),
     "--alpha and --beta go together"),
])
def test_usage_error_lines(capsys, argv, message):
    rc, out = run(capsys, *argv)
    assert rc == 2
    assert out == "error: %s\n" % message


def test_non_ascii_graph6_exits_two(capsys, tmp_path):
    # "C\u00e9" once read as "C?", the empty graph on 4 vertices
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--graph", "C\u00e9")
    assert rc == 2
    assert out.startswith("error:") and len(out.splitlines()) == 1
    batch = tmp_path / "batch.g6"
    batch.write_text("Cl\nC\u00e9\n", encoding="utf-8")
    rc, out = run(capsys, "certify", "--alpha", "0", "--beta", "-1",
                  "--in", str(batch))
    assert rc == 2 and out.startswith("error:")


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(capsys, tol):
    with pytest.raises(SystemExit) as err:
        main(["certify", "--alpha", "0", "--beta=-1", "--graph", "Cl",
              "--tol=" + tol])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_must_be_positive(capsys, workers):
    with pytest.raises(SystemExit) as err:
        main(["search", "--r", "3", "--p", "1", "--mu", "2", "--max-n", "3",
              "--workers", workers])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


def test_invariant_violation_raises_and_exits_one(capsys, monkeypatch):
    def invalid(vectors, alpha, beta, tol):
        return VerifyReport(valid=False, norm_violations=[(0, 2.0)],
                            pair_violations=[], values_present=set())

    monkeypatch.setattr(search, "verify_code", invalid)
    with pytest.raises(InvariantViolation):
        search.max_code_size(0, -1, d=2, n_max=5)
    rc, out = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "5")
    assert rc == 1
    assert out.startswith("error: extremal graph")


def test_bounds_subset_sweep_guard_exits_two(capsys):
    rc, out = run(capsys, "bounds", "--alpha", "1/2", "--beta=-1/2",
                  "--graph", emit_graph6(complete_graph(21)))
    assert rc == 2
    assert out.startswith("error: the subset sweep is guarded")
