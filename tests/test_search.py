"""Search and cross-check tests.

Capacity values below were verified by hand: the candidate graphs are
small enough to list, and their quadratic forms follow from solving
(A + mu I) x = j directly.
"""

import dataclasses
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from twodist import bounds, cli, graphs, linalg, search
from twodist.certificates import (AlphaCertificate, CodeParameters,
                                  beta_graph, certify_alpha, certify_beta,
                                  code_rank, realize_from_alpha,
                                  realize_from_beta, shifted_graph,
                                  verify_code, _bordered)
from twodist.errors import (ParameterDomain, ReconstructionResidual,
                            SizeGuardError)
from twodist.graphs import (canonical_form, complete_graph, cycle_graph,
                            disjoint_union, emit_graph6, empty_graph,
                            enumerate_graphs, parse_graph6)

from reference import Hereditary, _rejection, grow, rational_shift


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
    # the float hereditary test counts with linalg._count_inertia; its
    # verdicts and rejection counts must be those of the body that read
    # the least eigenvalue and summed the rank by numpy.  Every graph is
    # tested from its parent's matrix (G less its last vertex) and its
    # last row at every r at the pruning cut, and at one r (by its index)
    # at a cut equal to the absolute value of one of its eigenvalues,
    # where the comparisons meet a value at exactly +cut or -cut
    mus = [P.mu for P in search.RATIONAL_GRID]
    mus.append(CodeParameters.make(*pentagon_parameters()).mu)
    tol = linalg.DEFAULT_TOL
    family = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    parents = [graphs.Graph._trusted([row & (1 << G.n - 1) - 1
                                      for row in G.rows[:-1]])
               for G in family]
    ties, pruned = set(), {"psd": 0, "rank": 0}
    for mu in mus:
        values = [np.linalg.eigvalsh(search._shift_matrix(G, mu, +1))
                  for G in family]
        above = [search._shift_matrix(H, mu, +1) for H in parents]
        for r in range(1, 7):
            for at_value in (False, True):
                cut = search._cut_max(mu, 6, tol)
                rejected = {"psd": 0, "rank": 0}
                old = Hereditary(r, mu, cut)
                for i, (G, S, vals) in enumerate(zip(family, above, values)):
                    if at_value:
                        if i % 6 != r - 1:
                            continue
                        x = float(vals[i // 6 % G.n])
                        cut = old.cut = abs(x)
                        ties.add(x > 0)
                    new = search._hereditary(S, G.rows[-1], r, mu, cut, None,
                                             rejected)
                    assert (new is None) == (old(G) is None)
                    if new is not None:
                        assert new.tobytes() == search._shift_matrix(
                            G, mu, +1).tobytes()
                assert rejected == old.rejected
                for test, count in rejected.items():
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


@functools.lru_cache(maxsize=None)
def facts_at_mu_two(n):
    """(graph6, kernel facts of A + 2I) for every graph on n vertices."""
    return [(emit_graph6(G),
             linalg.shifted_exact(rational_shift(G, Fraction(2), +1)))
            for G in enumerate_graphs(n)]


@pytest.mark.parametrize("r_max, n_max, kept, pruned, digest", [
    pytest.param(
        5, 11, (1, 2, 4, 11, 31, 25, 15, 6, 2, 1, 0), (6494, 1385),
        "7dfd2c0dbe0927f42fde0d0a69d31c3412335ea04f5037ba0cad38dd0ce314cf",
        id="r5-n11"),
    pytest.param(
        6, 10, (1, 2, 4, 11, 31, 108, 146, 159, 120, 78), (112409, 11698),
        "53767237b8a8b09dfec33d1ac4ca49b642d61ef20a302482127573daf22bab06",
        id="r6-n10"),
])
def test_deep_exact_trees_at_mu_two(r_max, n_max, kept, pruned, digest):
    # _grow itself, past capacity's n_max <= 8 guard: the tree at r_max = 5
    # dies at order 11, the one at r_max = 6 is cut at order 10.  Up to
    # order 7 the survivors are derived below from enumerate_graphs and
    # shifted_exact; above it the kept counts, the prune counts and the
    # digest are regression pins of the grower as it is written, not
    # derived values, which guard the tree through changes to its
    # hereditary test and to how it generates children
    leaves, stats = search._grow(Fraction(2), r_max, n_max,
                                 linalg.DEFAULT_TOL, 1)
    assert stats["kept"] == dict(enumerate(kept, 1))
    assert stats["tested"] == {n: stats["kept"].get(n - 1, 1) << (n - 1)
                               for n in stats["kept"]}
    assert stats["pruned"] == dict(zip(("psd", "rank"), pruned))
    assert len(leaves) == sum(kept)
    rows = [(n, g6, k.rank, k.quadform) for n, g6, k in leaves]
    text = "".join("%d %s %d %s\n" % row for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for n in range(1, 8):
        passing = [(n, g6, k.rank, k.quadform)
                   for g6, k in facts_at_mu_two(n)
                   if not k.inertia.neg and k.rank <= r_max]
        assert [row for row in rows if row[0] == n] == passing


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
    # canonical_form call per child is the cost it removed, and the cache
    # holds each level's Graphs, so no level is parsed from graph6 again
    def forbidden(G):
        raise AssertionError("canonical_form called on %s" % emit_graph6(G))

    def unparsed(text):
        raise AssertionError("parse_graph6 called on %s" % text)

    monkeypatch.setattr(graphs, "canonical_form", forbidden)
    monkeypatch.setattr(graphs, "parse_graph6", unparsed)
    graphs._canonical_level.cache_clear()
    assert len(enumerate_graphs(6)) == 156
    assert search.capacity(3, 1, 2, n_max=7, mode="equal").value == 4
    assert search.capacity(4, 1.0, 2.0, n_max=7).value > 0


def test_exact_tree_eliminates_each_tested_child_once(monkeypatch):
    # each tested child extends its parent's elimination by its one new
    # row, once; no whole matrix of the tree goes to bareiss_bordered, and
    # a survivor keeps its elimination and its own Graph: no graph6 round
    # trip
    real = linalg.extend_psd
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    def whole(*args, **kwargs):
        raise AssertionError("bareiss_bordered called in the exact tree")

    def forbidden(text):
        raise AssertionError("parse_graph6 called on %s" % text)

    monkeypatch.setattr(linalg, "extend_psd", counted)
    monkeypatch.setattr(linalg, "bareiss_bordered", whole)
    monkeypatch.setattr(search, "parse_graph6", forbidden)
    res = search.capacity(6, 1, Fraction(2), n_max=7)
    assert len(calls) == sum(res.stats["tested"].values())
    assert sum(res.stats["kept"].values()) > 0
    del calls[:]
    res_f = search.capacity(6, 1.0, 2.0, n_max=7)
    assert not calls
    assert res_f.stats == dict(res.stats, backend="float")


@pytest.mark.parametrize("mu", [Fraction(3, 2), Fraction(4, 3),
                                Fraction(8, 5), Fraction(7, 3),
                                Fraction(5, 2), Fraction(3)])
@pytest.mark.parametrize("r_max", [2, 3, 4, 5])
def test_one_row_grower_matches_the_whole_elimination_grower(mu, r_max):
    # the same kept graph6 strings per level, the same stats, and each
    # leaf's inertia, rank and quadform, as when every tested child was
    # eliminated whole (reference.grow)
    leaves, stats = search._grow(mu, r_max, 8, linalg.DEFAULT_TOL, 1)
    assert (leaves, stats) == grow(mu, r_max, 8, linalg.DEFAULT_TOL)
    assert sum(stats["tested"].values()) > sum(stats["kept"].values()) > 0


@pytest.mark.parametrize("r_max, n_max, workers", [(5, 11, 2), (6, 10, 1)],
                         ids=["r5-n11-workers2", "r6-n10"])
def test_deep_trees_match_the_whole_elimination_grower(r_max, n_max,
                                                       workers):
    # the trees of test_deep_exact_trees_at_mu_two, one through the pool:
    # parents travel with their eliminations, survivors come back with
    # theirs
    got = search._grow(Fraction(2), r_max, n_max, linalg.DEFAULT_TOL,
                       workers)
    assert got == grow(Fraction(2), r_max, n_max, linalg.DEFAULT_TOL)


@pytest.mark.parametrize("mu", [Fraction(2), 2.0], ids=["exact", "float"])
def test_only_kept_children_become_graphs(monkeypatch, mu):
    # each neighbour mask is tested from its parent's state before its
    # child is written, so a Graph is built once per kept canonical child
    # and never for a child that fails the hereditary test
    real = graphs.Graph._trusted.__func__
    built = []

    def counted(cls, rows):
        built.append(len(rows))
        return real(cls, rows)

    monkeypatch.setattr(graphs.Graph, "_trusted", classmethod(counted))
    leaves, stats = search._grow(mu, 6, 8, linalg.DEFAULT_TOL, 1)
    assert len(built) == sum(stats["kept"].values()) == len(leaves)
    assert sum(stats["tested"].values()) > 10 * len(built)


def test_float_tree_through_the_pool_matches_serial():
    # parents travel to the workers with their A + mu I, and survivors
    # come back with theirs
    def rows(leaves, stats):
        return stats, [(n, g6, k._replace(values=None), k.values.tobytes())
                       for n, g6, k in leaves]

    tol = linalg.DEFAULT_TOL
    assert rows(*search._grow(2.0, 6, 8, tol, 2)) == rows(
        *search._grow(2.0, 6, 8, tol, 1))


def test_float_tree_states_are_the_child_matrices(monkeypatch):
    # a float state is its parent's A + mu I bordered by the child's row:
    # byte for byte the matrix _shift_matrix writes for the child.  A
    # float leaf is shifted_graph of the child, field for field, and no
    # Graph of the tree writes its own float table
    real = search._canonical_children
    kept = {}

    def recorded(parent, test):
        for g6, child, state in real(parent, test):
            kept[g6] = child, state
            yield g6, child, state

    monkeypatch.setattr(search, "_canonical_children", recorded)
    tol = linalg.DEFAULT_TOL
    mus = [float(P.mu) for P in search.RATIONAL_GRID]
    mus.append(CodeParameters.make(*pentagon_parameters()).mu)
    for mu in mus:
        kept.clear()
        leaves, stats = search._grow(mu, 5, 7, tol, 1)
        assert len(kept) == len(leaves) == sum(stats["kept"].values()) > 0
        assert all(child._table is None for child, _ in kept.values())
        for _, g6, k in leaves:
            child, state = kept[g6]
            M = search._shift_matrix(child, mu, +1)
            assert (state.dtype, state.shape, state.tobytes()) == (
                M.dtype, M.shape, M.tobytes())
            ref = shifted_graph(child, mu, +1, tol)
            assert k.values.tobytes() == ref.values.tobytes()
            assert k._replace(values=None) == ref._replace(values=None)


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


def test_max_code_size_memory_does_not_grow_with_the_dimension():
    # each extremal graph is realized at its certified rank, at most d,
    # not padded to d columns: at d = 10^5 a padded code of n vectors
    # would hold n * 10^5 floats
    import tracemalloc

    search.max_code_size(Fraction(0), Fraction(-1), 10, 5)
    tracemalloc.start()
    try:
        res = search.max_code_size(Fraction(0), Fraction(-1), 10 ** 5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 5 and len(res.extremal_graphs) == 3
    assert peak < 2 * 2 ** 20, peak


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


def test_oracle_verdicts_match_a_full_elimination(monkeypatch):
    # the oracle extends each Gram candidate from its canonical parent's
    # elimination, and a child of a capped parent inherits the capped
    # verdict; a certificate that reports the whole elimination of the
    # same Gram candidate must then agree with it on every pair up to n = 6
    seen, extended = [], []
    extend = linalg.extend_psd

    def counted(*args):
        extended.append(1)
        return extend(*args)

    def whole(G, P, tol):
        a, b = P.exact.alpha, P.exact.beta
        D = math.lcm(a.denominator, b.denominator)
        fact = linalg.bareiss_bordered(
            *_bordered(G, D, int(a * D), int(b * D)), D, 1, cap=0)
        valid = not fact.inertia.neg
        seen.append((valid, fact.rank if valid else None))
        return AlphaCertificate(valid=valid, rank_r=seen[-1][1])

    monkeypatch.setattr(linalg, "extend_psd", counted)
    monkeypatch.setattr(search, "certify_alpha", whole)
    monkeypatch.setattr(search, "realize_stack",
                        lambda items, route, tol: [None] * len(items))
    rep = search.oracle_cross_check(6)
    assert (rep.checked, rep.mismatches) == (3120, [])
    assert len(seen) == 3120
    assert {valid for valid, _ in seen} == {True, False}
    assert {rank for _, rank in seen} == {None, 1, 2, 3, 4, 5, 6}
    # the children of an indefinite Gram candidate are not extended
    assert len(extended) == 3120 - 2211


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
