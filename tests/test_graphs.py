"""Tests for graph structure, graph6, enumeration and canonical forms.

The canonical-form machinery is cross-checked against a brute-force
all-permutations minimizer, and the search routines against exhaustive
subset scans.
"""

import itertools
import math
import random

import networkx as nx
import pytest

from twodist import graphs
from twodist.errors import Graph6Error, NotConnectedError, SizeGuardError
from twodist.graphs import (Graph, canonical_form, complete_bipartite,
                            complete_graph, components, cycle_graph,
                            disjoint_union, emit_graph6, empty_graph,
                            enumerate_graphs, independence_number,
                            is_connected, parse_graph6, path_graph)

from reference import (contains_clique, delete_closed_neighborhood,
                       extend_canonical, induced_subgraph,
                       subgraph_on_neighbors)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def permuted(G, perm):
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def brute_force_canonical(G):
    # minimum graph6 string over every relabeling
    return min(emit_graph6(permuted(G, perm))
               for perm in itertools.permutations(range(G.n)))


def labeled_graphs(n):
    # every labeled graph on n vertices, one per subset of the pairs
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pair for b, pair in enumerate(pairs)
                        if mask >> b & 1])


def extend_and_deduplicate(parents, keep=None):
    # the step before orderly generation: canonicalize every kept child of
    # every parent and deduplicate the canonical strings
    seen = set()
    for parent in parents:
        m = parent.n
        for mask in range(1 << m):
            rows = [row | (mask >> v & 1) << m
                    for v, row in enumerate(parent.rows)]
            child = Graph.from_rows(rows + [mask])
            if keep is None or keep(child):
                seen.add(canonical_form(child))
    return sorted(seen)


def brute_force_independence(G):
    best = 0
    for r in range(G.n, 0, -1):
        for sub in itertools.combinations(range(G.n), r):
            if all(not G.has_edge(u, v)
                   for u, v in itertools.combinations(sub, 2)):
                return r
    return best


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_strings():
    G = parse_graph6("Cl")
    assert G.n == 4
    assert sorted(G.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert emit_graph6(G) == "Cl"
    assert emit_graph6(empty_graph(1)) == "@"
    assert parse_graph6("@").n == 1


def test_graph6_round_trip_exhaustive():
    for n in range(0, 5):
        for G in labeled_graphs(n):
            assert parse_graph6(emit_graph6(G)) == G


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<Cl").n == 4
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C")           # truncated bit field
    with pytest.raises(Graph6Error):
        parse_graph6("C\x19")       # non-printable byte
    with pytest.raises(Graph6Error):
        parse_graph6("~??")         # long form


def test_graph6_rejects_non_ascii():
    # no character outside ASCII may stand in for a graph6 byte; "?" is
    # the empty bit field and must not come from a replaced character
    assert parse_graph6("C?") == empty_graph(4)
    for text in ("C\u00e9", "\u00e9", "Cl\u2003", "B\u0080"):
        with pytest.raises(Graph6Error):
            parse_graph6(text)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_basic_structure():
    G = cycle_graph(5)
    assert G.num_edges == 5
    assert G.degree(0) == 2
    assert G.complement().num_edges == 5
    assert is_connected(G)
    H = disjoint_union([complete_graph(2), empty_graph(1)])
    assert H.n == 3 and H.num_edges == 1
    assert components(H) == [[0, 1], [2]]
    assert not is_connected(H)


def test_graph_rejects_a_negative_order():
    with pytest.raises(ValueError, match="n >= 0"):
        Graph(-2)


def test_complete_bipartite_rejects_a_negative_part():
    for a, b in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="sizes >= 0"):
            complete_bipartite(a, b)
    assert complete_bipartite(0, 2).n == 2


def test_induced_and_neighborhoods():
    G = cycle_graph(4)
    assert induced_subgraph(G, [0, 2]).num_edges == 0
    assert subgraph_on_neighbors(G, 0) == empty_graph(2)
    assert delete_closed_neighborhood(G, 0) == empty_graph(1)
    G = complete_graph(3)
    assert subgraph_on_neighbors(G, 0) == complete_graph(2)
    assert delete_closed_neighborhood(G, 0).n == 0


@pytest.mark.parametrize("u", [-1, 4, 9])
def test_neighborhoods_reject_a_vertex_outside_the_graph(u):
    for part in (subgraph_on_neighbors, delete_closed_neighborhood):
        with pytest.raises(ValueError, match="not in range"):
            part(cycle_graph(4), u)


def test_adjacency_matrix():
    A = cycle_graph(4).adjacency()
    assert A.sum() == 8
    assert (A == A.T).all()


def test_matrix_written_from_bitmasks():
    # diag, edge and other land where a loop over the edges puts them,
    # and the two triangles agree bit for bit, for any order
    rng = random.Random(8)
    for n in list(range(0, 13)) + [63, 64, 70]:
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        ref = [[0.25] * n for _ in range(n)]
        for u, v in G.edges():
            ref[u][v] = ref[v][u] = -1.5
        for v in range(n):
            ref[v][v] = 3.0
        M = G.matrix(3.0, -1.5, 0.25)
        assert M.shape == (n, n) and M.dtype == float
        assert M.tolist() == ref
        assert M.tobytes() == M.T.copy().tobytes()


def test_induced_subgraph_matches_validated_rows():
    # built without from_rows' checks, it must equal the validated graph
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randint(0, 12)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.random()])
        verts = rng.sample(range(n), rng.randint(0, n))
        order = sorted(verts)
        ref = Graph.from_rows([
            sum(1 << j for j, u in enumerate(order) if G.has_edge(v, u))
            for v in order])
        H = induced_subgraph(G, verts + verts[:1])
        assert H == ref and H.n == len(order)
        assert isinstance(H.rows, tuple)
    for bad in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(4), bad)


def test_independence_number_examples():
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(complete_graph(4)) == 1
    assert independence_number(empty_graph(6)) == 6
    assert independence_number(complete_bipartite(2, 3)) == 3


def test_independence_number_against_brute_force():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        G = Graph(n, edges)
        assert independence_number(G) == brute_force_independence(G)


def test_independence_guard():
    with pytest.raises(SizeGuardError):
        independence_number(empty_graph(33))


def test_contains_clique():
    assert contains_clique(complete_graph(5), 5)
    assert not contains_clique(complete_graph(5), 6)
    assert contains_clique(cycle_graph(5), 2)
    assert not contains_clique(cycle_graph(5), 3)
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        G = Graph(n, edges)
        omega = brute_force_independence(G.complement())
        for t in range(1, n + 2):
            assert contains_clique(G, t) == (t <= omega)


# ---------------------------------------------------------------------------
# smallest-eigenvalue floor
# ---------------------------------------------------------------------------

def test_eigen_floor_requires_connected():
    with pytest.raises(NotConnectedError):
        graphs.check_eigenvalue_floor(empty_graph(2))


def test_eigen_floor_needs_a_vertex():
    # as certify_alpha does; the empty spectrum has no smallest value
    with pytest.raises(ValueError, match="at least one vertex"):
        graphs.check_eigenvalue_floor(empty_graph(0))


def test_eigen_floor_c5():
    rep = graphs.check_eigenvalue_floor(cycle_graph(5))
    assert rep.holds
    assert abs(rep.floor - math.sqrt(6)) < 1e-12
    golden = (1 + math.sqrt(5)) / 2
    assert abs(rep.smallest + golden) < 1e-9


def test_eigen_floor_balanced_bipartite_equality():
    for n in range(4, 8):
        G = complete_bipartite(n // 2, (n + 1) // 2)
        rep = graphs.check_eigenvalue_floor(G)
        assert rep.holds
        assert abs(rep.gap) < 1e-9


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def test_canonical_form_matches_brute_force():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(1, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        G = Graph(n, edges)
        assert canonical_form(G) == brute_force_canonical(G)
    # twin classes (empty and complete graphs, complete multipartite,
    # stars) are where the search tries one twin only
    for G in (empty_graph(0), empty_graph(5), complete_graph(6),
              complete_bipartite(2, 3), complete_bipartite(1, 4),
              disjoint_union([complete_graph(2), complete_graph(2),
                              empty_graph(2)]),
              disjoint_union([complete_graph(3), complete_graph(3)]),
              cycle_graph(6)):
        assert canonical_form(G) == brute_force_canonical(G)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        G = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(G) == canonical_form(permuted(G, perm))


def test_enumeration_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        assert len(enumerate_graphs(n)) == count


def test_enumeration_matches_labeled_dedup():
    # independent check: dedup the labeled stream by brute-force canonical form
    for n in range(1, 5):
        brute = {brute_force_canonical(G) for G in labeled_graphs(n)}
        canon = {emit_graph6(G) for G in enumerate_graphs(n)}
        assert brute == canon


def test_enumeration_connected_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, count in expected.items():
        assert len(enumerate_graphs(n, connected_only=True)) == count


def test_enumeration_at_seven():
    assert len(enumerate_graphs(7)) == 1044
    assert len(enumerate_graphs(7, connected_only=True)) == 853


def test_orderly_extension_matches_canonicalize_and_deduplicate():
    def triangle_free(G):
        return not contains_clique(G, 3)

    for keep in (None, triangle_free):
        level = [empty_graph(0)]
        for n in range(1, 7):
            grown = extend_canonical(level, keep)
            assert len(grown) == len(set(grown))    # each class once
            assert sorted(grown) == extend_and_deduplicate(level, keep)
            level = [parse_graph6(g6) for g6 in sorted(grown)]


def test_extend_canonical_builds_children_without_revalidation(monkeypatch):
    # every child is symmetric and loop-free by construction, so none goes
    # through from_rows; each is still a well-formed graph
    parents = list(enumerate_graphs(4))
    expected = sorted(emit_graph6(G) for G in enumerate_graphs(5))
    children = []

    def no_revalidation(rows):
        raise AssertionError("a child went through from_rows")

    monkeypatch.setattr(Graph, "from_rows", staticmethod(no_revalidation))
    grown = extend_canonical(parents, lambda G: children.append(G) or True)
    monkeypatch.undo()
    assert sorted(grown) == expected
    assert len(children) == len(parents) << 4
    for G in children:
        assert Graph.from_rows(G.rows) == G


def test_non_canonical_parent_yields_no_child():
    # a smaller relabeling of the parent, with the new vertex kept last,
    # is a smaller labeling of every child
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            for perm in itertools.permutations(range(n)):
                H = permuted(G, perm)
                if emit_graph6(H) != emit_graph6(G):
                    assert extend_canonical([H]) == []
    assert extend_canonical([path_graph(4)]) == []


def as_networkx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def test_enumeration_matches_the_networkx_atlas():
    # an oracle outside the package: the atlas lists the 1,253 graphs on
    # at most 7 vertices, one per isomorphism class, so their canonical
    # forms must be the enumeration, each class once
    forms = {}
    atlas = nx.graph_atlas_g()
    for H in atlas:
        G = Graph(H.number_of_nodes(), H.edges())
        forms.setdefault(G.n, set()).add(canonical_form(G))
    assert [len(forms[n]) for n in range(8)] == [
        1, 1, 2, 4, 11, 34, 156, 1044]
    assert sum(map(len, forms.values())) == len(atlas) == 1253
    for n, found in forms.items():
        assert found == {emit_graph6(G) for G in enumerate_graphs(n)}


def test_canonical_form_is_a_class_invariant_past_the_atlas():
    # above the enumeration's reach: a random relabeling keeps the form,
    # and the form is a graph that networkx finds isomorphic to the input
    rng = random.Random(26)
    for n in range(8, 13):
        for _ in range(20):
            density = rng.random()
            G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])
            form = canonical_form(G)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(permuted(G, perm)) == form
            assert nx.is_isomorphic(as_networkx(parse_graph6(form)),
                                    as_networkx(G))


def test_enumeration_guards():
    with pytest.raises(SizeGuardError):
        enumerate_graphs(9)


def test_enumeration_rejects_a_negative_order():
    # refused before the per-order cache is read or filled
    before = graphs._canonical_level.cache_info()
    with pytest.raises(ValueError, match="n >= 0"):
        enumerate_graphs(-1)
    assert graphs._canonical_level.cache_info() == before


def test_extend_canonical_with_hereditary_filter():
    # triangle-freeness passes to induced subgraphs, so growing only the
    # triangle-free children reaches every triangle-free graph
    def keep(G):
        calls.append(G.n)
        return not contains_clique(G, 3)

    calls = []
    level = [empty_graph(0)]
    for n in range(1, 7):
        grown = sorted(extend_canonical(level, keep))
        assert grown == sorted(emit_graph6(G) for G in enumerate_graphs(n)
                               if not contains_clique(G, 3))
        assert calls.count(n) == len(level) << (n - 1)
        level = [parse_graph6(g6) for g6 in grown]
    # keep=None keeps every canonical child: K2 yields K3 only, since
    # K2+K1 and P3 are emitted by their own canonical parent 2K1
    assert extend_canonical([path_graph(2)]) == [
        emit_graph6(complete_graph(3))]
    assert sorted(extend_canonical([empty_graph(2)])) == sorted(
        canonical_form(G) for G in (empty_graph(3),
                                    disjoint_union([path_graph(2),
                                                    empty_graph(1)]),
                                    path_graph(3)))


def test_labeled_count():
    assert sum(1 for _ in labeled_graphs(4)) == 64
