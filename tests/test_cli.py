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

from twodist import cli
from twodist.cli import main
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


def test_bounds_floors_a_large_float_cap_to_itself(capsys):
    # the turan value d + 1 is an integral float at d = 10^11; a slack
    # relative to it would floor it 100 higher
    rc, out = run(capsys, "bounds", "--alpha", "-0.25", "--beta=-1",
                  "--d", "100000000000")
    assert rc == 0
    assert "turan,yes,,100000000001,100000000001,,\n" in out


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


@pytest.mark.parametrize("argv, digest", [
    # beta >= 0 takes the beta route: the complement is the beta-graph
    (("--graph", "DK{", "--alpha", "0.5", "--beta", "0.25"),
     "04458d85c0b1de5e0491e7151dd523990dc63055230191c0826e42094305dbf9"),
    (("--graph", "Bw", "--alpha", "1/2", "--beta", "1/4"),
     "f90df420d285c467b24c72b7a16f417d8181b562a2b264c2b83c4bc7dd28afbe"),
], ids=["float", "exact"])
def test_realize_beta_route_golden_digest(capsys, argv, digest):
    rc, out = run(capsys, "realize", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("command", ["extract", "verify"])
@pytest.mark.parametrize("text", [
    '{"alpha": null, "beta": -1, "dim": 2, "vectors": [[1, 0]]}',
    '5',
    '{"alpha": 0, "beta": -1, "dim": 2, "vectors": {"x": 1}}',
    '{"alpha": 0, "beta": -1, "dim": [2], "vectors": [[1, 0]]}',
    '{"alpha": 0, "beta": -1, "dim": 2.7, "vectors": [[1, 0]]}',
    '{"alpha": 0, "beta": -1, "dim": -3, "vectors": []}',
    '{"alpha": 0, "beta": -1, "dim": true, "vectors": [[1]]}',
    '{"alpha": false, "beta": -1, "dim": 2, "vectors": [[1, 0]]}',
    '{"alpha": 0, "beta": true, "dim": 2, "vectors": [[1, 0]]}',
    '{"alpha": NaN, "beta": -1, "dim": 2, "vectors": [[1, 0], [0, 1]]}',
    '{"alpha": 0, "beta": -1, "dim": 2, "vectors": [[NaN, 0], [0, 1]]}',
    '{"alpha": 0, "beta": -Infinity, "dim": 2, "vectors": [[1, 0], [0, 1]]}',
], ids=["null_alpha", "number", "vectors_object", "dim_list", "dim_fraction",
        "dim_negative", "dim_bool", "alpha_bool", "beta_bool", "nan_alpha",
        "nan_vector", "infinite_beta"])
def test_malformed_code_file_exits_two(tmp_path, capsys, command, text):
    # a usage error, reported on one line without a traceback
    path = tmp_path / "code.json"
    path.write_text(text)
    rc, out = run(capsys, command, "--in", str(path))
    assert rc == 2
    assert out.startswith("error:")
    assert "reshape" not in out


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


# The full stdout of `bounds --graph` at a float and an exact point: the
# neighborhood witness prints every subgraph's quadratic form with repr,
# so the float rows pin the spectral kernel's last bits on this LAPACK
# build, and the exact rows the rational values.
BOUNDS_GRAPH_GOLDEN = [
    (('--alpha', '0.30901699437494745', '--beta=-0.8090169943749475',
      '--graph', 'Dhc'),
     'check,applicable,holds,value,floored,witness,note\n'
     'Dhc:subgraph,yes,yes,1.3819660112501049,,,\n'
     'Dhc:independence,yes,yes,2.2360679774997894,2,2,\n'
     'Dhc:clique_free,yes,yes,3,,,\n'
     'Dhc:neighborhood,yes,yes,,,"'
     "(0, 'neighbors', 1.2360679774997896, 2, True);"
     "(0, 'deleted', 0.7639320225002102, 2, True);"
     "(1, 'neighbors', 1.2360679774997896, 2, True);"
     "(1, 'deleted', 0.7639320225002102, 2, True);"
     "(2, 'neighbors', 1.2360679774997896, 2, True);"
     "(2, 'deleted', 0.7639320225002102, 2, True);"
     "(3, 'neighbors', 1.2360679774997896, 2, True);"
     "(3, 'deleted', 0.7639320225002102, 2, True);"
     "(4, 'neighbors', 1.2360679774997896, 2, True);"
     '(4, \'deleted\', 0.7639320225002102, 2, True)"'
     ',\n'),
    (('--alpha', '0', '--beta=-1', '--exact', '--graph', 'Cl'),
     'check,applicable,holds,value,floored,witness,note\n'
     'Cl:subgraph,yes,yes,1,,,\n'
     'Cl:independence,yes,yes,2,2,2,\n'
     'Cl:clique_free,yes,yes,3,,,\n'
     'Cl:neighborhood,yes,yes,,,"'
     "(0, 'neighbors', 1.0, 2, True);"
     "(0, 'deleted', 0.5, 1, True);"
     "(1, 'neighbors', 1.0, 2, True);"
     "(1, 'deleted', 0.5, 1, True);"
     "(2, 'neighbors', 1.0, 2, True);"
     "(2, 'deleted', 0.5, 1, True);"
     "(3, 'neighbors', 1.0, 2, True);"
     '(3, \'deleted\', 0.5, 1, True)"'
     ',\n'),
    (('--alpha', '0', '--beta=-1/4', '--graph', 'H~^m~Fw'),
     'check,applicable,holds,value,floored,witness,note\n'
     'H~^m~Fw:subgraph,yes,yes,0.852560939504589,,,\n'
     'H~^m~Fw:independence,yes,yes,4.2628046975229452,4,3,\n'
     'H~^m~Fw:clique_free,yes,yes,10,,,\n'
     'H~^m~Fw:neighborhood,yes,yes,,,"'
     "(0, 'neighbors', 0.8103448275862069, 7, True);"
     "(0, 'deleted', 0.2, 1, True);"
     "(1, 'neighbors', 0.8469183872124596, 8, True);"
     "(1, 'deleted', 'skipped empty');"
     "(2, 'neighbors', 0.8157181571815718, 7, True);"
     "(2, 'deleted', 0.2, 1, True);"
     "(3, 'neighbors', 0.6731517509727627, 6, True);"
     "(3, 'deleted', 0.4, 2, True);"
     "(4, 'neighbors', 0.7045454545454546, 6, True);"
     "(4, 'deleted', 0.3333333333333333, 2, True);"
     "(5, 'neighbors', 0.6129032258064516, 5, True);"
     "(5, 'deleted', 0.5333333333333333, 3, True);"
     "(6, 'neighbors', 0.7427772600186393, 6, True);"
     "(6, 'deleted', 0.3333333333333333, 2, True);"
     "(7, 'neighbors', 0.5384615384615384, 4, True);"
     "(7, 'deleted', 0.582089552238806, 4, True);"
     "(8, 'neighbors', 0.5862068965517241, 5, True);"
     '(8, \'deleted\', 0.4782608695652174, 3, True)"'
     ',1 empty subgraphs skipped\n'),
    (('--alpha', '0', '--beta=-0.25', '--graph', 'H~^m~Fw'),
     'check,applicable,holds,value,floored,witness,note\n'
     'H~^m~Fw:subgraph,yes,yes,0.85256093950459022,,,\n'
     'H~^m~Fw:independence,yes,yes,4.2628046975229514,4,3,\n'
     'H~^m~Fw:clique_free,yes,yes,10,,,\n'
     'H~^m~Fw:neighborhood,yes,yes,,,"'
     "(0, 'neighbors', 0.8103448275862069, 7, True);"
     "(0, 'deleted', 0.2, 1, True);"
     "(1, 'neighbors', 0.8469183872124602, 8, True);"
     "(1, 'deleted', 'skipped empty');"
     "(2, 'neighbors', 0.8157181571815723, 7, True);"
     "(2, 'deleted', 0.2, 1, True);"
     "(3, 'neighbors', 0.673151750972763, 6, True);"
     "(3, 'deleted', 0.4, 2, True);"
     "(4, 'neighbors', 0.7045454545454546, 6, True);"
     "(4, 'deleted', 0.33333333333333326, 2, True);"
     "(5, 'neighbors', 0.6129032258064513, 5, True);"
     "(5, 'deleted', 0.5333333333333332, 3, True);"
     "(6, 'neighbors', 0.7427772600186393, 6, True);"
     "(6, 'deleted', 0.33333333333333326, 2, True);"
     "(7, 'neighbors', 0.5384615384615387, 4, True);"
     "(7, 'deleted', 0.582089552238806, 4, True);"
     "(8, 'neighbors', 0.5862068965517244, 5, True);"
     '(8, \'deleted\', 0.4782608695652174, 3, True)"'
     ',1 empty subgraphs skipped\n'),
]


@pytest.mark.parametrize("argv, expected", BOUNDS_GRAPH_GOLDEN)
def test_bounds_graph_golden_stdout(capsys, argv, expected):
    rc, out = run(capsys, "bounds", *argv)
    assert rc == 0
    assert out == expected


def test_search_golden_csv(capsys):
    rc, out = run(capsys, "search", "--alpha", "0", "--beta", "-1",
                  "--d", "2", "--max-n", "6")
    assert rc == 0
    want = ('query,value,exhaustive,witnesses\n'
            '"N[alpha=0, beta=-1](d=2), n_max=6",4,yes,%s\n'
            % canonical_form(cycle_graph(4)))
    assert out == want


@pytest.mark.parametrize("argv", [
    ("bounds", "--alpha", "0", "--beta=-1", "--d", "1100"),
    ("search", "--alpha", "0", "--beta=-1", "--d", "1100", "--max-n", "4"),
])
def test_power_bound_past_the_float_range_is_a_no_row(capsys, argv):
    # mu = 2 at d = 1100 first applies at k = 1099, where 3 * 2^1099 - 1
    # is no float: bounds prints it as not applicable, and search leaves
    # it out of the exhaustive flag
    rc, out = run(capsys, *argv)
    assert rc == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
    if argv[0] == "bounds":
        assert rows["power"][1] == "no"
        assert rows["power"][6] == (
            "2^k (d+2-k) - 1 exceeds the float range at k=1099")
    else:
        assert rows["N[alpha=0, beta=-1](d=1100), n_max=4"][1:3] == [
            "4", "no"]


@pytest.mark.parametrize("flag, value", [
    ("--mu", "inf"), ("--mu", "-inf"), ("--mu", "nan"), ("--p", "inf"),
    ("--p", "nan")])
def test_search_capacity_needs_finite_p_and_mu(capsys, flag, value):
    scalars = {"--p": "1", "--mu": "2", flag: value}
    rc, out = run(capsys, "search", "--r", "2", "--p=" + scalars["--p"],
                  "--mu=" + scalars["--mu"], "--max-n", "4")
    assert rc == 2
    name = flag[2:]
    assert out == "error: capacity needs a finite %s, got %r\n" % (
        name, float(value))


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


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_enumerate_needs_a_graph(capsys, monkeypatch, max_n):
    # an empty listing is refused, as search and crosscheck refuse
    # n_max < 1, before any order is enumerated
    calls = []
    monkeypatch.setattr(cli, "enumerate_graphs",
                        lambda n: calls.append(n) or ())
    rc, out = run(capsys, "enumerate", "--max-n", max_n)
    assert rc == 2
    assert out == "error: enumeration needs --max-n >= 1\n"
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


@pytest.mark.parametrize("argv, value", [
    (("certify", "--graph", "Bw", "--alpha", "1/0", "--beta", "-1"), "1/0"),
    (("realize", "--graph", "Bw", "--alpha", "1/0", "--beta", "-1"), "1/0"),
    (("search", "--alpha", "1/0", "--beta", "-1", "--d", "3",
      "--max-n", "4"), "1/0"),
    (("crosscheck", "--alpha", "1/0", "--beta", "-1", "--max-n", "3"),
     "1/0"),
    (("bounds", "--alpha", "1/2", "--beta=-1/0", "--d", "3"), "-1/0"),
    (("search", "--r", "3", "--p", "1/0", "--mu", "1", "--max-n", "4"),
     "1/0"),
    (("search", "--r", "3", "--p", "1", "--mu", "0/0", "--max-n", "4"),
     "0/0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv, value):
    rc, out = run(capsys, *argv)
    assert rc == 2
    assert out == "error: zero denominator in %r\n" % value


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


def test_bounds_subset_sweep_guard_exits_two(capsys):
    # K_21 lies above the 20-vertex guard of the brute-force subset
    # sweep; the subgraph check holds by proof at any order
    g = emit_graph6(complete_graph(21))
    rc, out = run(capsys, "bounds", "--alpha", "1/2", "--beta=-1/2",
                  "--graph", g)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == [g + ":" + name for name in (
        "subgraph", "independence", "clique_free", "neighborhood")]
    assert all(r[1:3] == ["yes", "yes"] for r in rows)


# Extremal graphs at a float equality edge: CK at (0.5 - 2e-9, -0.75) and
# DK{ at (0.25 + 4e-9, -0.5) certify valid in the equality case, and the
# search realizes each of them once in dimension d, so it exits 0 and
# lists them.  The beta certificate of the complement is read at its own
# cut and is not consulted.
SEARCH_AT_THE_EDGE = [
    (('--alpha', '0.499999998', '--beta=-0.75'), '3', 'CK',
     '"N[alpha=0.499999998, beta=-0.75](d=3), n_max=7",4,no,CK\n',
     'valid rank=3 quadform=1.6666666651111111 equality\n'),
    (('--alpha', '0.250000004', '--beta=-0.5'), '4', 'DK{',
     '"N[alpha=0.250000004, beta=-0.5](d=4), n_max=7",5,no,'
     'DB[;DBg;DBk;DK{\n',
     'valid rank=4 quadform=1.500000013333334 equality\n'),
]


@pytest.mark.parametrize("point, d, graph, searched, certified",
                         SEARCH_AT_THE_EDGE, ids=("CK", "DK{"))
def test_search_at_the_equality_edge_agrees_with_certify(
        capsys, point, d, graph, searched, certified):
    rc, out = run(capsys, "search", *point, "--d", d, "--max-n", "7")
    assert rc == 0
    assert out == "query,value,exhaustive,witnesses\n" + searched
    rc, out = run(capsys, "certify", "--graph", graph, *point)
    assert rc == 0 and out == certified


def test_bounds_at_the_budget_edge_agree_with_the_certificate(capsys):
    # C4 at (-4e-9, -1): q - p is about 2e-9, inside the certificate's
    # band tol * ||A + mu I||_inf of about 4e-9, so the certificate is
    # valid in the equality case, and so is every check
    argv = ("--alpha", "-4e-9", "--beta=-1", "--graph", "Cl")
    rc, out = run(capsys, "certify", *argv)
    assert rc == 0
    assert out == "valid rank=3 quadform=0.99999999799999983 equality\n"
    rc, out = run(capsys, "bounds", *argv)
    assert rc == 0
    assert out == (
        'check,applicable,holds,value,floored,witness,note\n'
        'Cl:subgraph,yes,yes,0.99999999799999983,,,\n'
        'Cl:independence,yes,yes,2.0000000039999999,2,2,\n'
        'Cl:clique_free,yes,yes,4,,,\n'
        'Cl:neighborhood,yes,yes,,,"'
        + ";".join("(%d, 'neighbors', 0.9999999959999999, 2, True);"
                   "(%d, 'deleted', 0.49999999799999995, 1, True)" % (v, v)
                   for v in range(4))
        + '",\n')


# Graphs at a float budget edge whose certificate is valid: DBW at
# (0.25 - 4e-9, -0.5), where the part off the closed neighborhood of
# vertex 0 reads a q 2.7e-9 above its budget, and D]{ at (2e-9, -1),
# where the neighbors of vertex 4 read rank 4 against
# rank(A + mu I) = 4.  The neighborhood check holds by
# proof on a valid certificate, so both exit 0 and print each read.
BOUNDS_AT_THE_EDGE = [
    (('--alpha', '0.249999996', '--beta=-0.5', '--graph', 'DBW'),
     'valid rank=4 quadform=1.4999999946666656 equality\n',
     'check,applicable,holds,value,floored,witness,note\n'
     'DBW:subgraph,yes,yes,1.4999999946666656,,,\n'
     'DBW:independence,yes,yes,3.0000000053333311,3,3,\n'
     'DBW:clique_free,yes,yes,5,,,\n'
     'DBW:neighborhood,yes,yes,,,"'
     "(0, 'neighbors', 'skipped empty');"
     "(0, 'deleted', 0.9999999973333322, 4, True);"
     + "".join("(%d, 'neighbors', 0.9999999946666667, 2, True);"
               "(%d, 'deleted', 0.9999999946666667, 2, True)%s"
               % (v, v, ";" if v < 4 else "") for v in range(1, 5))
     + '",1 empty subgraphs skipped\n'),
    (('--alpha', '2e-9', '--beta=-1', '--graph', 'D]{'),
     'valid rank=3 quadform=1.0000000009999999 equality\n',
     'check,applicable,holds,value,floored,witness,note\n'
     'D]{:subgraph,yes,yes,1.0000000009999999,,,\n'
     'D]{:independence,yes,yes,1.9999999979999998,1,2,\n'
     'D]{:clique_free,yes,yes,4,,,\n'
     'D]{:neighborhood,yes,yes,,,"'
     + "".join("(%d, 'neighbors', 1.0000000019999997, 3, True);"
               "(%d, 'deleted', 0.500000001, 1, True);" % (v, v)
               for v in range(4))
     + "(4, 'neighbors', 1.000000001, 4, True);"
     "(4, 'deleted', 'skipped empty')"
     '",1 empty subgraphs skipped\n'),
]


@pytest.mark.parametrize("argv, certified, expected", BOUNDS_AT_THE_EDGE,
                         ids=("budget", "rank"))
def test_bounds_at_the_neighborhood_edge_agree_with_the_certificate(
        capsys, argv, certified, expected):
    rc, out = run(capsys, "certify", *argv)
    assert rc == 0 and out == certified
    rc, out = run(capsys, "bounds", *argv)
    assert rc == 0
    assert out == expected


def test_bounds_on_the_line_graph_of_k8(capsys):
    # L(K_8), 28 vertices, at (2/5, -1/5): valid with rank 8 and q = 2,
    # independence number 4 = mu q, and no K_9
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    G = Graph(len(pairs), [(x, y) for x in range(len(pairs))
                           for y in range(x + 1, len(pairs))
                           if set(pairs[x]) & set(pairs[y])])
    g = emit_graph6(G)
    rc, out = run(capsys, "certify", "--alpha", "2/5", "--beta=-1/5",
                  "--graph", g)
    assert rc == 0 and out == "valid rank=8 quadform=2\n"
    rc, out = run(capsys, "bounds", "--alpha", "2/5", "--beta=-1/5",
                  "--graph", g)
    assert rc == 0
    rows = {r[0][len(g) + 1:]: r[1:] for r in
            list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["subgraph"] == ["yes", "yes", "2", "", "", ""]
    assert rows["independence"] == ["yes", "yes", "4", "4", "4", ""]
    assert rows["clique_free"] == ["yes", "yes", "9", "", "", ""]
    assert rows["neighborhood"][:2] == ["yes", "yes"]
    assert rows["neighborhood"][4].count("True") == 2 * G.n
