"""Search and cross-check tests.

Capacity values below were verified by hand: the candidate graphs are
small enough to list, and their quadratic forms follow from solving
(A + mu I) x = j directly.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from twodist import bounds, cli, graphs, linalg, search
from twodist.certificates import (CodeParameters, beta_graph, certify_alpha,
                                  certify_beta, code_rank, realize_from_alpha,
                                  realize_from_beta, shifted_graph,
                                  verify_code)
from twodist.errors import (ParameterDomain, ReconstructionResidual,
                            SizeGuardError)
from twodist.graphs import (canonical_form, complete_graph, cycle_graph,
                            disjoint_union, emit_graph6, empty_graph,
                            enumerate_graphs, parse_graph6)

from reference import Hereditary, _rejection, rational_shift


def pentagon_parameters():
    a = (math.sqrt(5.0) - 1.0) / 4.0
    b = -(math.sqrt(5.0) + 1.0) / 4.0
    return a, b


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    assert search._pool_size(64, 1000) == 4
    assert search._pool_size(3, 1000) == 3
    assert search._pool_size(64, 2) == 2
    assert search._pool_size(1, 1000) == 1
    assert search._pool_size(0, 1000) == 1
    assert search._pool_size(4, 0) == 1
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert search._pool_size(8, 100) == 1


def test_grid_shapes():
    assert len(search.RATIONAL_GRID) == 15
    assert len(search.BETA_GRID) == 12
    assert all(P.exact is not None for P in search.RATIONAL_GRID)
    assert all(P.beta < 0 < P.alpha for P in search.BETA_GRID)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_only_one_vertex():
    res = search.capacity(1, 2, 2, n_max=2, mode="strict")
    assert res.value == 1
    assert res.extremal_graphs == [canonical_form(empty_graph(1))]
    assert res.exhaustive  # dimension bound at rank 1 is 2 <= n_max


def test_capacity_square_at_equality():
    res = search.capacity(3, 1, 2, n_max=5, mode="equal")
    assert res.value == 4
    assert res.extremal_graphs == [canonical_form(cycle_graph(4))]
    assert not res.exhaustive  # dimension bound at rank 3 is 9 > 5


def test_capacity_empty_result():
    # K1 has quadform exactly 1/2, which strict mode excludes
    res = search.capacity(2, Fraction(1, 2), 2, n_max=3, mode="strict")
    assert res.value == 0
    assert res.extremal_graphs == []
    assert not res.exhaustive
    res = search.capacity(2, Fraction(1, 2), 2, n_max=5, mode="strict")
    assert res.value == 0 and res.exhaustive


def test_capacity_equal_orthogonal_pair():
    res = search.capacity(2, 1, 2, n_max=2, mode="equal")
    assert res.value == 2
    assert res.extremal_graphs == [canonical_form(empty_graph(2))]


def test_capacity_guards():
    with pytest.raises(ValueError):
        search.capacity(2, 1, 2, n_max=3, mode="loose")
    with pytest.raises(SizeGuardError):
        search.capacity(2, 1, 2, n_max=9)
    with pytest.raises(ParameterDomain):
        search.capacity(2, 1, 1, n_max=3)
    with pytest.raises(ParameterDomain):
        search.capacity(2, 0, 2, n_max=3)


def test_capacity_monotone_in_rank_and_budget():
    vals = [search.capacity(r, 1, 2, n_max=4, mode="strict").value
            for r in (1, 2, 3, 4)]
    assert vals == sorted(vals)
    vals = [search.capacity(2, p, 2, n_max=4, mode="strict").value
            for p in (Fraction(1, 2), Fraction(1), Fraction(3, 2))]
    assert vals == sorted(vals)


def test_capacity_parallel_matches_serial():
    serial = search.capacity(3, 1, 2, n_max=5, mode="equal", workers=1)
    parallel = search.capacity(3, 1, 2, n_max=5, mode="equal", workers=2)
    assert serial == parallel


# ---------------------------------------------------------------------------
# hereditary search against the full scan
# ---------------------------------------------------------------------------

def full_scan(r, p, mu, n_max, mode):
    """Reference capacity: every canonical graph through the leaf tests."""
    hits = [(n, emit_graph6(G)) for n in range(1, n_max + 1)
            for G in enumerate_graphs(n)
            if _rejection(G, r, p, mu, mode, linalg.DEFAULT_TOL) is None]
    value = max((n for n, _ in hits), default=0)
    return value, sorted(g6 for n, g6 in hits if n == value)


def capacity_points():
    """(p, mu) on the rational grid, exactly and as floats, and at the
    pentagon point."""
    points = [(P.exact.p, P.exact.mu) for P in search.RATIONAL_GRID]
    points += [(float(p), float(mu)) for p, mu in points]
    P = CodeParameters.make(*pentagon_parameters())
    points.append((P.p, P.mu))
    return points


def capacity_rows(n_max):
    """(row, capacity's (value, extremal graphs), the full scan's) for
    every point, r in {2, 3, 4} and both modes."""
    rows = []
    for p, mu in capacity_points():
        for r in (2, 3, 4):
            for mode in ("strict", "equal"):
                res = search.capacity(r, p, mu, n_max, mode)
                rows.append(((r, p, mu, mode),
                             (res.value, res.extremal_graphs),
                             full_scan(r, p, mu, n_max, mode)))
    return rows


def test_hereditary_search_matches_full_scan():
    rows = capacity_rows(6)
    assert len(rows) == 186
    assert [row for row, got, want in rows if got != want] == []
    # the rows are not all alike
    assert len({got[0] for _, got, _ in rows}) > 2


def test_octahedron_at_dimension_three():
    res = search.max_code_size(0, -1, d=3, n_max=7)
    assert res.value == 6 and res.exhaustive
    octahedron = disjoint_union([complete_graph(2)] * 3).complement()
    assert res.extremal_graphs == [canonical_form(octahedron)]


def test_float_prune_cut_is_the_loosest_leaf_cut():
    mus = [float(P.mu) for P in search.RATIONAL_GRID]
    mus.append(CodeParameters.make(*pentagon_parameters()).mu)
    for mu in mus:
        loosest = 0.0
        for n_max in range(1, 7):
            for G in enumerate_graphs(n_max):
                loosest = max(loosest, linalg.scaled_tol(
                    G.adjacency() + mu * np.eye(n_max)))
            cut = search._cut_max(mu, n_max, linalg.DEFAULT_TOL)
            assert cut >= loosest
            K = complete_graph(n_max)
            assert cut == linalg.scaled_tol(K.adjacency()
                                            + mu * np.eye(n_max))


def test_cut_max_is_the_complete_leaf_cut():
    # bit for bit the cut shifted_graph gives K_n_max at the same mu
    mus = [float(P.mu) for P in search.RATIONAL_GRID]
    mus.append(CodeParameters.make(*pentagon_parameters()).mu)
    for mu in mus:
        for n_max in range(1, 13):
            for tol in (linalg.DEFAULT_TOL, 1e-6):
                leaf = shifted_graph(complete_graph(n_max), mu, +1, tol)
                assert search._cut_max(mu, n_max, tol) == leaf.cut


def test_float_pruning_keeps_what_a_larger_leaf_accepts():
    # at mu = 1 + e, K_n has eigenvalues n - 1 + mu and e (n - 1 times);
    # e = 2.5e-9 lies above K2's own cut (about 2e-9) but below the cuts
    # of K3 and K4, so K4 has rank 1 while its subgraph K2 has rank 2 at
    # its own cut: pruning K2 at that cut would lose K4
    mu = 1 + 2.5e-9
    res = search.capacity(1, 2.0, mu, n_max=4, mode="strict")
    assert (res.value, res.extremal_graphs) == full_scan(1, 2.0, mu, 4,
                                                         "strict")
    assert res.extremal_graphs == [canonical_form(complete_graph(4))]


def test_float_filter_matches_its_former_body():
    # the float hereditary filter counts with linalg._count_inertia; its
    # verdicts and rejection counts must be those of the body that read
    # the least eigenvalue and summed the rank by numpy.  Every graph is
    # filtered at every r at the pruning cut, and at one r (by its index)
    # at a cut equal to the absolute value of one of its eigenvalues,
    # where the comparisons meet a value at exactly +cut or -cut
    mus = [P.mu for P in search.RATIONAL_GRID]
    mus.append(CodeParameters.make(*pentagon_parameters()).mu)
    tol = linalg.DEFAULT_TOL
    family = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    ties, pruned = set(), {"psd": 0, "rank": 0}
    for mu in mus:
        values = [np.linalg.eigvalsh(search._shift_matrix(G, mu, +1))
                  for G in family]
        for r in range(1, 7):
            for at_value in (False, True):
                new = search._Hereditary(r, mu, search._cut_max(mu, 6, tol))
                old = Hereditary(r, mu, new.cut)
                for i, (G, vals) in enumerate(zip(family, values)):
                    if at_value:
                        if i % 6 != r - 1:
                            continue
                        x = float(vals[i // 6 % G.n])
                        new.cut = old.cut = abs(x)
                        ties.add(x > 0)
                    assert new(G) == old(G)
                assert new.rejected == old.rejected
                for test, count in new.rejected.items():
                    pruned[test] += count
    assert ties == {False, True}
    assert pruned["psd"] and pruned["rank"]


def test_search_stats_at_mu_two_rank_three():
    res = search.capacity(3, 1, 2, n_max=7, mode="equal")
    assert res.value == 4
    assert res.stats == {
        "backend": "exact",
        "tested": {1: 1, 2: 2, 3: 8, 4: 32, 5: 16},
        "kept": {1: 1, 2: 2, 3: 4, 4: 1, 5: 0},
        "rejected": {"psd": 10, "rank": 37, "range": 0, "budget": 5}}
    # kept: the canonical graphs whose A + 2I is PSD with rank <= 3;
    # tested: every neighbour mask of every survivor one order down
    for n in range(1, 6):
        passing = 0
        for G in enumerate_graphs(n):
            k = linalg.shifted_exact(rational_shift(G, Fraction(2), +1))
            passing += not k.inertia.neg and k.rank <= 3
        assert res.stats["kept"][n] == passing
        below = res.stats["kept"].get(n - 1, 1)
        assert res.stats["tested"][n] == below << (n - 1)
    qualifying = sum(
        _rejection(G, 3, Fraction(1), Fraction(2), "equal",
                   linalg.DEFAULT_TOL) is None
        for n in range(1, 6) for G in enumerate_graphs(n))
    leaf = res.stats["rejected"]["range"] + res.stats["rejected"]["budget"]
    assert leaf == sum(res.stats["kept"].values()) - qualifying
    # the float backend prunes the same children
    res_f = search.capacity(3, 1.0, 2.0, n_max=7, mode="equal")
    assert res_f.stats == dict(res.stats, backend="float")
    both = search.max_code_size(0, -1, d=2, n_max=4)
    assert (set(both.stats), set(both.stats["leaf"])) == (
        {"backend", "r_max", "tested", "kept", "pruned", "leaf"},
        {"strict", "equal"})


def count_trees(monkeypatch):
    """Record (mu, r_max) of every tree the search grows."""
    grown = []
    grow = search._grow

    def counted(mu, r_max, n_max, tol, workers):
        grown.append((mu, r_max))
        return grow(mu, r_max, n_max, tol, workers)

    monkeypatch.setattr(search, "_grow", counted)
    return grown


def test_max_code_size_grows_one_tree(monkeypatch):
    # the strict query at rank 3 is the rank <= 3 part of the rank 4 tree,
    # so the search tests exactly the children of capacity at rank 4
    cap = search.capacity(4, 1, 2, 7)
    grown = count_trees(monkeypatch)
    res = search.max_code_size(0, -1, d=3, n_max=7)
    assert grown == [(2, 4)]
    assert res.stats["r_max"] == 4
    assert res.stats["tested"] == cap.stats["tested"]
    assert res.stats["kept"] == cap.stats["kept"]
    assert res.stats["pruned"] == {"psd": cap.stats["rejected"]["psd"],
                                   "rank": cap.stats["rejected"]["rank"]}


def test_neighborhood_capacity_grows_one_tree_at_its_own_mu(monkeypatch):
    # its own tree at rank 2 and nothing else, whether or not the
    # recursion map is admissible at the point
    P = CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    assert bounds.recursion_map(P).exact is not None
    grown = count_trees(monkeypatch)
    res = search.neighborhood_capacity_f(P.exact.alpha, P.exact.beta, d=2,
                                         n_max=5)
    assert grown == [(P.exact.mu, 2)]
    assert res.stats["r_max"] == 2 and set(res.stats["leaf"]) == {
        "strict", "equal"}
    del grown[:]
    P = CodeParameters.make(Fraction(1, 4), Fraction(-1))
    with pytest.raises(ParameterDomain):
        bounds.recursion_map(P)
    search.neighborhood_capacity_f(P.exact.alpha, P.exact.beta, d=2,
                                   n_max=5)
    assert grown == [(P.exact.mu, 2)]


def test_cli_capacity_rows_grow_one_tree(monkeypatch, capsys):
    grown = count_trees(monkeypatch)
    assert cli.main(["search", "--r", "3", "--p", "1", "--mu", "2",
                     "--max-n", "5"]) == 0
    assert grown == [(2, 3)]
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_enumeration_and_capacity_never_canonicalize(monkeypatch):
    # orderly generation emits each child in its own labeling; a
    # canonical_form call per child is the cost it removed
    def forbidden(G):
        raise AssertionError("canonical_form called on %s" % emit_graph6(G))

    monkeypatch.setattr(graphs, "canonical_form", forbidden)
    graphs._canonical_g6.cache_clear()
    assert len(enumerate_graphs(6)) == 156
    assert search.capacity(3, 1, 2, n_max=7, mode="equal").value == 4
    assert search.capacity(4, 1.0, 2.0, n_max=7).value > 0


def test_exact_tree_eliminates_each_tested_child_once(monkeypatch):
    # a survivor keeps the kernel facts of its hereditary test and its own
    # Graph: no second elimination, no graph6 round trip
    real = linalg.bareiss_bordered
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    def forbidden(text):
        raise AssertionError("parse_graph6 called on %s" % text)

    monkeypatch.setattr(linalg, "bareiss_bordered", counted)
    monkeypatch.setattr(search, "parse_graph6", forbidden)
    res = search.capacity(6, 1, Fraction(2), n_max=7)
    assert len(calls) == sum(res.stats["tested"].values())
    assert sum(res.stats["kept"].values()) > 0
    del calls[:]
    res_f = search.capacity(6, 1.0, 2.0, n_max=7)
    assert not calls
    assert res_f.stats == dict(res.stats, backend="float")


# ---------------------------------------------------------------------------
# maximum code size
# ---------------------------------------------------------------------------

def test_max_code_size_square():
    res = search.max_code_size(0, -1, d=2, n_max=6)
    assert res.value == 4
    assert res.extremal_graphs == [canonical_form(cycle_graph(4))]
    assert res.exhaustive


def test_max_code_size_antipodal():
    res = search.max_code_size(Fraction(0), Fraction(-1), d=1, n_max=4)
    assert res.value == 2
    assert res.extremal_graphs == [canonical_form(empty_graph(2))]
    assert res.exhaustive


def test_max_code_size_pentagon():
    a, b = pentagon_parameters()
    res = search.max_code_size(a, b, d=2, n_max=6)
    assert res.value == 5
    assert res.extremal_graphs == [canonical_form(cycle_graph(5))]
    assert res.exhaustive


def test_max_code_size_complement_consistency():
    # at (1/3,-1/3) both two-vertex graphs win; the complement of each is
    # the beta-graph of the same code, certified with the same rank in
    # beta-certificate case two (K2, lam I - A singular) and case one
    # (2K1, lam I - A = I)
    P = CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    res = search.max_code_size(P.exact.alpha, P.exact.beta, d=2, n_max=4)
    assert res.value == 2
    assert res.extremal_graphs == [canonical_form(empty_graph(2)),
                                   canonical_form(complete_graph(2))]
    cases = []
    for g6 in res.extremal_graphs:
        G = parse_graph6(g6)
        a, b = certify_alpha(G, P), certify_beta(G.complement(), P)
        assert a.valid and b.valid and b.rank_r == a.rank_r == 2
        cases.append(b.case)
    assert cases == ["two", "one"]


def test_max_code_size_domain():
    with pytest.raises(ParameterDomain):
        search.max_code_size(0.5, 0.0, d=2, n_max=4)


def test_extremal_graphs_recertify():
    res = search.max_code_size(0, -1, d=2, n_max=6)
    P = CodeParameters.make(0, -1)
    for g6 in res.extremal_graphs:
        c = certify_alpha(parse_graph6(g6), P)
        assert c.valid and c.rank_r <= 2


def test_search_golden_digest():
    # max_code_size and neighborhood_capacity_f on the rational grid,
    # exactly and as floats, and at the pentagon point: value, extremal
    # graphs and the exhaustive flag of every query, pinned by digest
    points = [(P.exact.alpha, P.exact.beta) for P in search.RATIONAL_GRID]
    points += [(float(a), float(b)) for a, b in points]
    points.append(pentagon_parameters())
    lines = []
    for a, b in points:
        for d in (2, 3):
            for fn in (search.max_code_size, search.neighborhood_capacity_f):
                res = fn(a, b, d, 6)
                lines.append("%s %d %s %s\n" % (
                    res.query, res.value, ";".join(res.extremal_graphs),
                    res.exhaustive))
    assert len(lines) == 124
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == (
        "361d2af346bc4aea56e71a8aac6b59ac"
        "d2084ac01721a3b2daa00852a721e30d")


def test_search_golden_extremal_graphs_realize_verified_codes():
    # every extremal graph of test_search_golden_digest's max_code_size
    # rows, realized in dimension d, passes verify_code at
    # max(tol, 1e-8): its round trip already put every pair within tol
    # of alpha or beta
    points = [(P.exact.alpha, P.exact.beta) for P in search.RATIONAL_GRID]
    points += [(float(a), float(b)) for a, b in points]
    points.append(pentagon_parameters())
    realized = 0
    for a, b in points:
        P = CodeParameters.make(a, b)
        for d in (2, 3):
            for g6 in search.max_code_size(a, b, d, 6).extremal_graphs:
                code = realize_from_alpha(parse_graph6(g6), P, dim=d)
                assert code.vectors.shape[1] == d
                rep = verify_code(code.vectors, P.alpha, P.beta,
                                  max(linalg.DEFAULT_TOL, 1e-8))
                assert rep.valid, (a, b, d, g6)
                realized += 1
    assert realized == 118


# ---------------------------------------------------------------------------
# derived-code capacity
# ---------------------------------------------------------------------------

def test_neighborhood_capacity_square_parameters():
    res = search.neighborhood_capacity_f(0, -1, d=2, n_max=6)
    assert res.value == 2
    assert canonical_form(empty_graph(2)) in res.extremal_graphs


def test_neighborhood_capacity_pentagon():
    a, b = pentagon_parameters()
    res = search.neighborhood_capacity_f(a, b, d=2, n_max=5)
    assert res.value == 2
    assert canonical_form(empty_graph(2)) in res.extremal_graphs


def test_neighborhood_capacity_exact_with_roof():
    # p' = 3/2 at mu = 2; the searched maximum at the mapped parameters
    # (1/4, -1/2) is 3 (test_mapped_maximum_is_triangle), and f is below
    P = CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    Q = bounds.recursion_map(P).exact
    assert (Q.alpha, Q.beta) == (Fraction(1, 4), Fraction(-1, 2))
    res = search.neighborhood_capacity_f(P.exact.alpha, P.exact.beta,
                                         d=2, n_max=5)
    roof = search.max_code_size(Q.alpha, Q.beta, d=2, n_max=5)
    assert res.value == 2 and roof.value == 3


def test_neighborhood_capacity_stays_below_the_mapped_maximum():
    # f never exceeds max_code_size at the recursion map's parameters, at
    # every admissible point of test_search_golden_digest's set: exactly
    # by the proof in its docstring, and on floats, where the two trees'
    # mu may differ in the last bits, as measured
    points = [(P.exact.alpha, P.exact.beta) for P in search.RATIONAL_GRID]
    points += [(float(a), float(b)) for a, b in points]
    points.append(pentagon_parameters())
    rows = {"equal": 0, "below": 0}
    for a, b in points:
        try:
            mapped = bounds.recursion_map(CodeParameters.make(a, b))
        except ParameterDomain:
            continue
        Q = mapped.exact or mapped
        for d in (2, 3):
            f = search.neighborhood_capacity_f(a, b, d, 6)
            roof = search.max_code_size(Q.alpha, Q.beta, d, 6)
            assert f.value <= roof.value, (a, b, d, f.value, roof.value)
            rows["equal" if f.value == roof.value else "below"] += 1
    assert sum(rows.values()) == 46 and rows["below"] > 0, rows


def test_mapped_maximum_is_triangle():
    res = search.max_code_size(Fraction(1, 4), Fraction(-1, 2), d=2, n_max=5)
    assert res.value == 3
    assert res.extremal_graphs == [canonical_form(empty_graph(3))]
    assert res.exhaustive


# ---------------------------------------------------------------------------
# recursion identities on the grid
# ---------------------------------------------------------------------------

def test_recursion_identities_hold_on_whole_grid():
    # mu is preserved and the mapped budget equals the neighbor budget;
    # the algebra holds even where the mapped pair leaves the admissible
    # domain, so it is checked on raw fractions
    for P in search.RATIONAL_GRID:
        a, b = P.exact.alpha, P.exact.beta
        a0 = a / (1 + a)
        b0 = (b - a * a) / (1 - a * a)
        assert (1 - b0) / (a0 - b0) == P.exact.mu
        assert (a0 - b0) / (-b0) == (a - b) / (a * a - b)


# ---------------------------------------------------------------------------
# beta-route round trips on the beta grid
# ---------------------------------------------------------------------------

def test_beta_route_round_trips_small():
    seen = 0
    for n in range(1, 5):
        for G in enumerate_graphs(n):
            for P in search.BETA_GRID:
                c = certify_beta(G, P)
                if not c.valid:
                    continue
                seen += 1
                code = realize_from_beta(G, P)
                assert beta_graph(code) == G
                assert code_rank(code) == c.rank_r
    assert seen > 50


# ---------------------------------------------------------------------------
# oracle cross-check
# ---------------------------------------------------------------------------

def test_oracle_full_grid_small():
    rep = search.oracle_cross_check(4)
    assert rep.ok
    assert rep.checked == 18 * 15


def test_oracle_single_points():
    P = CodeParameters.make(Fraction(0), Fraction(-1))
    rep = search.oracle_cross_check(4, parameter_grid=[P])
    assert rep.ok and rep.checked == 18

    # the rank-accounting pitfall: K3 at (0,-1/2) is valid with rank 3
    Q = CodeParameters.make(Fraction(0), Fraction(-1, 2))
    c = certify_alpha(complete_graph(3), Q)
    assert c.valid and c.rank_r == 3
    rep = search.oracle_cross_check(3, parameter_grid=[Q])
    assert rep.ok


def test_consumers_reuse_their_certificates(monkeypatch):
    # realize_from_alpha certifies through certificates.certify_alpha only
    # when it is given no certificate; the oracle and max_code_size give it
    # theirs, and max_code_size certifies each extremal graph once
    from twodist import certificates

    def no_recertification(*args, **kwargs):
        raise AssertionError("a held certificate was recomputed")

    monkeypatch.setattr(certificates, "certify_alpha", no_recertification)
    certify, certified = search.certify_alpha, []

    def counted(G, P, tol):
        certified.append(emit_graph6(G))
        return certify(G, P, tol)

    monkeypatch.setattr(search, "certify_alpha", counted)
    rep = search.oracle_cross_check(4)
    assert rep.ok and len(certified) == rep.checked == 18 * 15
    certified.clear()
    res = search.max_code_size(Fraction(1, 3), Fraction(-1, 3), d=2, n_max=4)
    assert len(res.extremal_graphs) == 2
    assert certified == res.extremal_graphs


def test_oracle_guards():
    with pytest.raises(SizeGuardError):
        search.oracle_cross_check(8)
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            search.oracle_cross_check(n_max)
    with pytest.raises(ValueError):
        search.oracle_cross_check(3,
                                  parameter_grid=[CodeParameters.make(0.0,
                                                                      -1.0)])


@pytest.mark.parametrize("kind", ["validity", "rank", "round_trip"])
def test_oracle_flags_each_kind_of_mismatch(monkeypatch, kind):
    # an oracle that cannot fail shows nothing: force one kind of
    # disagreement and check that exactly the affected graphs are flagged
    P = CodeParameters.make(Fraction(0), Fraction(-1))
    small = [G for n in range(1, 5) for G in enumerate_graphs(n)]
    valid = [emit_graph6(G) for G in small if certify_alpha(G, P).valid]
    assert 0 < len(valid) < len(small)
    certify = search.certify_alpha

    def flip_validity(G, P, tol):
        c = certify(G, P, tol)
        return dataclasses.replace(c, valid=not c.valid)

    def raise_rank(G, P, tol):
        c = certify(G, P, tol)
        return dataclasses.replace(c, rank_r=c.rank_r + 1) if c.valid else c

    def fail_round_trip(items, route, tol):
        return [ReconstructionResidual("alpha-graph round trip failed")
                for _ in items]

    if kind == "validity":
        monkeypatch.setattr(search, "certify_alpha", flip_validity)
        flagged = [emit_graph6(G) for G in small]
    elif kind == "rank":
        monkeypatch.setattr(search, "certify_alpha", raise_rank)
        flagged = valid
    else:
        monkeypatch.setattr(search, "realize_stack", fail_round_trip)
        flagged = valid
    rep = search.oracle_cross_check(4, parameter_grid=[P])
    assert rep.checked == 18
    assert rep.mismatches == [(g6, 0.0, -1.0, kind) for g6 in flagged]


def test_oracle_lets_program_errors_through(monkeypatch):
    # only a graph that does not realize back to itself is a round-trip
    # mismatch; any other error inside the realization propagates
    from twodist import certificates

    def broken(code, tol):
        raise TypeError("a programming error")

    monkeypatch.setattr(certificates, "alpha_graph", broken)
    with pytest.raises(TypeError, match="a programming error"):
        search.oracle_cross_check(3)
    monkeypatch.undo()

    def domain_errors(items, route, tol):
        return [ParameterDomain("not a round-trip failure") for _ in items]

    monkeypatch.setattr(search, "realize_stack", domain_errors)
    with pytest.raises(ParameterDomain, match="not a round-trip failure"):
        search.oracle_cross_check(3)


def test_oracle_mismatches_come_by_graph_then_point(monkeypatch):
    # forced validity mismatches and round-trip failures, realized three
    # pairs to a stacked call, still come out in the order of graph, then
    # grid point
    P = CodeParameters.make(Fraction(0), Fraction(-1))
    Q = CodeParameters.make(Fraction(1, 4), Fraction(-1, 2))
    graphs = [G for n in range(1, 6) for G in enumerate_graphs(n)]
    flipped = {emit_graph6(G) for G in graphs[::4]}
    certify, realize, calls = search.certify_alpha, search.realize_stack, []

    def flip_some(G, P, tol):
        c = certify(G, P, tol)
        if emit_graph6(G) in flipped:
            return dataclasses.replace(c, valid=not c.valid)
        return c

    def fail_odd(items, route, tol):
        calls.append(len(items))
        return [ReconstructionResidual("alpha-graph round trip failed")
                if len(G.edges()) % 2 else code
                for (G, _, _), code in zip(items, realize(items, route, tol))]

    monkeypatch.setattr(search, "certify_alpha", flip_some)
    monkeypatch.setattr(search, "realize_stack", fail_odd)
    monkeypatch.setattr(search, "_REALIZE_BLOCK", 3)
    rep = search.oracle_cross_check(5, parameter_grid=[P, Q])
    expected = []
    for G in graphs:
        for R in (P, Q):
            where = (emit_graph6(G), R.alpha, R.beta)
            if emit_graph6(G) in flipped:
                expected.append(where + ("validity",))
            elif certify(G, R, linalg.DEFAULT_TOL).valid and len(G.edges()) % 2:
                expected.append(where + ("round_trip",))
    kinds = {m[3] for m in expected}
    assert kinds == {"validity", "round_trip"}
    assert rep.checked == 2 * len(graphs)
    assert rep.mismatches == expected
    assert max(calls) == 3 and len(calls) > 10
