"""Bound and consistency-check tests.

Budgets and bound values asserted below were computed by hand from the
defining formulas on small graphs; equality cases (squares, pentagons)
are pinned to 1e-9.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from twodist import bounds
from twodist.certificates import CodeParameters, certify_alpha
from twodist.errors import EmptyFamilyError, ParameterDomain, SizeGuardError
from twodist.graphs import (Graph, complete_bipartite, complete_graph,
                            cycle_graph, disjoint_union, empty_graph,
                            enumerate_graphs)


def pentagon_parameters():
    a = (math.sqrt(5.0) - 1.0) / 4.0
    b = -(math.sqrt(5.0) + 1.0) / 4.0
    return CodeParameters.make(a, b)


P01 = CodeParameters.make(0.0, -1.0)
P01X = CodeParameters.make(Fraction(0), Fraction(-1))


def test_dgs_bound_values():
    assert bounds.dgs_bound(2) == 5
    assert bounds.dgs_bound(3) == 9
    assert bounds.dgs_bound(7) == 35
    with pytest.raises(ValueError):
        bounds.dgs_bound(-1)


# ---------------------------------------------------------------------------
# subgraph inequality
# ---------------------------------------------------------------------------

def test_subgraph_single_subset():
    # path on {0,1,2} inside C4: 9 <= (4 + 3*2) * 1 = 10
    rep = bounds.check_subgraph_inequality(cycle_graph(4), P01,
                                           subset=[0, 1, 2])
    assert rep.applicable and rep.holds
    assert rep.witness == [0, 1, 2]
    assert abs(rep.value - 1.0) <= 1e-9
    # the witness is the sorted vertex set, without repeats
    rep = bounds.check_subgraph_inequality(cycle_graph(4), P01X,
                                           subset=[1, 0, 0])
    assert rep.applicable and rep.holds and rep.witness == [0, 1]


def test_subgraph_sweep_holds_for_valid_graphs():
    for G, P in [(cycle_graph(4), P01), (cycle_graph(5),
                                         pentagon_parameters()),
                 (complete_graph(3), P01)]:
        rep = bounds.check_subgraph_inequality(G, P)
        assert rep.applicable and rep.holds


def test_subgraph_exact_sweep():
    rep = bounds.check_subgraph_inequality(cycle_graph(4), P01X)
    assert rep.applicable and rep.holds


def test_subgraph_not_applicable_on_invalid_graph():
    G = disjoint_union([complete_graph(2), complete_graph(2)])
    rep = bounds.check_subgraph_inequality(G, P01)
    assert not rep.applicable
    assert "quadform_exceeds" in rep.note


def test_subgraph_reuses_supplied_certificate():
    G = cycle_graph(4)
    c = certify_alpha(G, P01)
    rep = bounds.check_subgraph_inequality(G, P01, cert=c)
    assert rep.holds


@pytest.mark.parametrize("subset, match", [
    ([7], "7"), ([-1], "-1"), ([], "at least one vertex")],
    ids=("outside", "negative", "empty"))
def test_subgraph_rejects_bad_subsets(subset, match):
    with pytest.raises(ValueError, match=match):
        bounds.check_subgraph_inequality(cycle_graph(4), P01X, subset=subset)


def naive_sweep(G, P, c, tol=bounds.DEFAULT_TOL):
    """(holds, witness) of the sweep, recounting every subset from scratch."""
    Q = P.exact or P
    q = c.quadform
    for mask in range(1, 1 << G.n):
        verts = [v for v in range(G.n) if mask >> v & 1]
        t = len(verts)
        e = sum(G.has_edge(u, v) for i, u in enumerate(verts)
                for v in verts[i + 1:])
        if not bounds._le(t * t, (2 * e + t * Q.mu) * q, tol):
            return False, verts
    return bounds._le(q, Q.p, tol), None


def test_subgraph_sweep_matches_naive_loop():
    # valid certificates, and the same ones with the quadform shrunk until
    # some subset fails, so the violation branch and its witness are hit
    from twodist.search import RATIONAL_GRID

    rng = random.Random(20261018)
    seen = {"holds": 0, "fails": 0, "mixed": 0}
    orders = set()
    for n in range(5, 11):
        for _ in range(3):
            G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.5])
            for X in RATIONAL_GRID:
                for P in (X, CodeParameters.make(X.alpha, X.beta)):
                    c = certify_alpha(G, P)
                    if not c.valid:
                        continue
                    orders.add(n)
                    shrink = Fraction(3, 4) if P.exact else 0.75
                    while True:
                        rep = bounds.check_subgraph_inequality(G, P, cert=c)
                        holds, witness = naive_sweep(G, P, c)
                        assert (rep.holds, rep.witness) == (holds, witness)
                        if not holds:
                            seen["fails"] += 1
                            seen["mixed"] += len(witness) > 1
                            break
                        seen["holds"] += 1
                        c = dataclasses.replace(c,
                                                quadform=c.quadform * shrink)
    assert seen["holds"] >= 20 and seen["fails"] >= 20
    assert seen["mixed"] >= 1 and orders == set(range(5, 11))


# ---------------------------------------------------------------------------
# independence and cliques
# ---------------------------------------------------------------------------

def test_independence_square_equality():
    # alpha(C4) = 2 and mu q = 2 = (1-beta)/(-beta): everything is tight
    rep = bounds.check_independence(cycle_graph(4), P01)
    assert rep.applicable and rep.holds
    assert rep.witness == 2
    assert abs(rep.value - 2.0) <= 1e-9
    assert rep.floored == 2


def test_independence_pentagon_equality():
    # mu q = sqrt 5 equals the roof, alpha(C5) = 2 sits below
    rep = bounds.check_independence(cycle_graph(5), pentagon_parameters())
    assert rep.applicable and rep.holds
    assert rep.witness == 2
    assert abs(rep.value - math.sqrt(5.0)) <= 1e-9


def test_clique_free_small_graphs():
    # rank-2 pentagon must avoid triangles
    rep = bounds.check_clique_free(cycle_graph(5), pentagon_parameters())
    assert rep.applicable and rep.holds and rep.value == 3.0

    rep = bounds.check_clique_free(cycle_graph(4), P01)
    assert rep.holds and rep.value == 3.0

    rep = bounds.check_clique_free(complete_graph(3), P01)
    assert rep.holds and rep.value == 4.0


def test_clique_free_exceptional_complete_graph():
    # K3 at (-1/2, -1): q = 1/2 = p, rank drops to 2, and K3 = K_{r+1}
    # is the allowed exception
    P = CodeParameters.make(Fraction(-1, 2), Fraction(-1))
    c = certify_alpha(complete_graph(3), P)
    assert c.valid and c.equality_case and c.rank_r == 2
    rep = bounds.check_clique_free(complete_graph(3), P)
    assert rep.applicable and rep.holds
    assert rep.note == "exceptional complete graph"


# ---------------------------------------------------------------------------
# neighborhood conditions
# ---------------------------------------------------------------------------

def test_neighborhood_pentagon_equalities():
    # neighbors of any pentagon vertex form 2K1 with q = 2/phi hitting
    # the budget exactly; deleting the closed neighborhood leaves K2
    # with q = 2/(1+phi), again tight
    P = pentagon_parameters()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rep = bounds.check_neighborhood(cycle_graph(5), P, u=0)
    assert rep.applicable and rep.holds
    vals = {tag: q for (_, tag, q, _, _) in rep.witness}
    assert abs(vals["neighbors"] - 2.0 / phi) <= 1e-9
    assert abs(vals["deleted"] - 2.0 / (1.0 + phi)) <= 1e-9

    rep = bounds.check_neighborhood(cycle_graph(5), P)
    assert rep.holds and len(rep.witness) == 10


def test_neighborhood_square():
    rep = bounds.check_neighborhood(cycle_graph(4), P01, u=0)
    assert rep.applicable and rep.holds
    vals = {tag: q for (_, tag, q, _, _) in rep.witness}
    assert abs(vals["neighbors"] - 1.0) <= 1e-9
    assert abs(vals["deleted"] - 0.5) <= 1e-9


def test_neighborhood_skips_empty_parts():
    rep = bounds.check_neighborhood(complete_graph(3), P01, u=0)
    assert rep.applicable and rep.holds
    assert rep.note == "1 empty subgraphs skipped"
    tags = [entry[1] for entry in rep.witness if entry[2] == "skipped empty"]
    assert tags == ["deleted"]


def test_neighborhood_exact_path():
    rep = bounds.check_neighborhood(cycle_graph(4), P01X, u=0)
    assert rep.applicable and rep.holds


@pytest.mark.parametrize("u", [-1, 4, 9])
def test_neighborhood_rejects_a_vertex_outside_the_graph(u):
    # -1 once read G.rows[-1], vertex 3, and kept it in the "deleted"
    # part; 4 and 9 raised IndexError
    with pytest.raises(ValueError, match="not in range"):
        bounds.check_neighborhood(cycle_graph(4), P01X, u=u)


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def test_sandwich_single_edge():
    rep = bounds.sandwich_bounds([complete_graph(2)], mu=2.0, d=3)
    assert rep.lower == 4 and abs(rep.upper - 4.0) <= 1e-12
    assert rep.lower_witness == complete_graph(2)
    assert rep.family_size == 1


def test_sandwich_square():
    rep = bounds.sandwich_bounds([cycle_graph(4)], mu=2.0, d=3)
    assert rep.lower == 5
    assert abs(rep.upper - 16.0 / 3.0) <= 1e-9


def test_sandwich_mixed_family_and_filters():
    graphs = [complete_graph(2), cycle_graph(4),
              disjoint_union([complete_graph(2), complete_graph(2)]),
              complete_bipartite(1, 5)]
    rep = bounds.sandwich_bounds(graphs, mu=2.0, d=3)
    # the disconnected graph and the 5-star (eigenvalue below -2) are
    # filtered out
    assert rep.family_size == 2
    assert rep.lower == 5 and abs(rep.upper - 16.0 / 3.0) <= 1e-9


def test_sandwich_excludes_complete_simplex_from_lower():
    rep = bounds.sandwich_bounds([complete_graph(4)], mu=2.0, d=3)
    assert rep.lower == 4 and rep.lower_witness is None
    assert abs(rep.upper - 4.0) <= 1e-12


def test_sandwich_empty_family():
    bad = [disjoint_union([complete_graph(2), complete_graph(2)]),
           complete_bipartite(1, 5)]
    with pytest.raises(EmptyFamilyError):
        bounds.sandwich_bounds(bad, mu=2.0, d=3)


def test_subset_sweep_guard():
    P = CodeParameters.make(Fraction(1, 2), Fraction(-1, 2))
    G = complete_graph(bounds.MAX_SUBSET_SWEEP_N + 1)
    cert = certify_alpha(G, P)
    assert cert.valid
    with pytest.raises(SizeGuardError):
        bounds.check_subgraph_inequality(G, P, cert=cert)
    rep = bounds.check_subgraph_inequality(G, P, subset=[0, 1, 2], cert=cert)
    assert rep.applicable and rep.holds


# ---------------------------------------------------------------------------
# parameter recursion
# ---------------------------------------------------------------------------

def test_recursion_map_exact_values():
    P = CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    Q = bounds.recursion_map(P)
    assert Q.exact.alpha == Fraction(1, 4)
    assert Q.exact.beta == Fraction(-1, 2)
    assert Q.exact.mu == P.exact.mu

    P = CodeParameters.make(Fraction(1, 2), Fraction(-1, 2))
    Q = bounds.recursion_map(P)
    assert Q.exact.alpha == Fraction(1, 3)
    assert Q.exact.beta == Fraction(-1)


def test_recursion_map_float_identities():
    P = pentagon_parameters()
    Q = bounds.recursion_map(P)  # identity checks run inside
    assert abs(Q.mu - P.mu) <= 1e-9
    target = (P.alpha - P.beta) / (P.alpha ** 2 - P.beta)
    assert abs(Q.p - target) <= 1e-9


def test_recursion_map_leaving_domain():
    with pytest.raises(ParameterDomain):
        bounds.recursion_map(CodeParameters.make(0.9, -0.9))


def test_recursion_bound_values():
    rep = bounds.recursion_bound(P01X, 2)
    assert rep.applicable and rep.value == 4.0 and rep.floored == 4

    rep = bounds.recursion_bound(CodeParameters.make(0.5, 0.0), 3)
    assert not rep.applicable


# ---------------------------------------------------------------------------
# turan and power bounds
# ---------------------------------------------------------------------------

def test_turan_bound_values():
    rep = bounds.turan_bound(CodeParameters.make(0.05, -1.0), 3)
    assert rep.applicable
    assert abs(rep.value - 6.6666666666666667) <= 1e-9
    assert rep.floored == 6

    rep = bounds.turan_bound(P01X, 3)
    assert rep.applicable and rep.value == 6.0 and rep.floored == 6

    rep = bounds.turan_bound(P01X, 7)
    assert rep.value == 14.0 and rep.floored == 14


def test_turan_gate():
    # p = 2 misses the gate 1 + 1/2 at d = 3
    rep = bounds.turan_bound(CodeParameters.make(0.5, -0.5), 3)
    assert not rep.applicable

    # exact boundary p = 3/2 is excluded by strictness
    rep = bounds.turan_bound(CodeParameters.make(Fraction(1, 2),
                                                 Fraction(-1)), 3)
    assert not rep.applicable

    rep = bounds.turan_bound(CodeParameters.make(0.5, 0.25), 3)
    assert not rep.applicable and rep.note == "needs beta < 0"


def test_power_bound_values():
    # mu = 5/2 at d = 3 already passes the k = 0 gate
    P = CodeParameters.make(Fraction(-1, 5), Fraction(-1))
    assert P.exact.mu == Fraction(5, 2)
    rep = bounds.power_bound(P, 3)
    assert rep.applicable and rep.floored == 4 and rep.witness == 0

    # mu = 31/10 at d = 5 needs one doubling
    P = CodeParameters.make(Fraction(-11, 31), Fraction(-1))
    assert P.exact.mu == Fraction(31, 10)
    rep = bounds.power_bound(P, 5)
    assert rep.applicable and rep.floored == 11 and rep.witness == 1


def test_power_bound_high_levels_and_fixed_k():
    # small mu climbs to k = 3 where the gate is mu^2 > 1
    P = CodeParameters.make(0.99, -0.99)
    assert abs(P.mu - 1.99 / 1.98) <= 1e-9
    rep = bounds.power_bound(P, 3, k=0)
    assert not rep.applicable
    rep = bounds.power_bound(P, 3)
    assert rep.applicable and rep.floored == 15 and rep.witness == 3
    with pytest.raises(ValueError):
        bounds.power_bound(P, 3, k=7)


# ---------------------------------------------------------------------------
# exhaustive mini sweep
# ---------------------------------------------------------------------------

def test_all_checks_hold_on_small_exact_grid():
    # every valid certificate on connected graphs up to 5 vertices at
    # (0,-1) and (1/4,-1/2) passes every consistency check
    points = [P01X, CodeParameters.make(Fraction(1, 4), Fraction(-1, 2))]
    seen = 0
    for n in range(1, 6):
        for G in enumerate_graphs(n, connected_only=True):
            for P in points:
                c = certify_alpha(G, P)
                if not c.valid:
                    continue
                seen += 1
                for rep in (
                        bounds.check_subgraph_inequality(G, P, cert=c),
                        bounds.check_independence(G, P, cert=c),
                        bounds.check_clique_free(G, P, cert=c),
                        bounds.check_neighborhood(G, P, cert=c)):
                    assert rep.holds, (G, P.alpha, P.beta, rep)
    assert seen > 10
