"""Bound and consistency-check tests.

Budgets and bound values asserted below were computed by hand from the
defining formulas on small graphs; equality cases (squares, pentagons)
are pinned to 1e-9.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from twodist import bounds
from twodist.certificates import (AlphaCertificate, CodeParameters,
                                  SphericalCode, alpha_graph, certify_alpha,
                                  realize_from_alpha, verify_code)
from twodist.errors import EmptyFamilyError, ParameterDomain, SizeGuardError
from twodist.graphs import (MAX_INDEPENDENCE_N, Graph, canonical_form,
                            complete_bipartite, complete_graph, cycle_graph,
                            disjoint_union, empty_graph, enumerate_graphs)
from twodist.search import RATIONAL_GRID

from reference import check_neighborhood_by_subgraphs


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
        if not reference._le(t * t, (2 * e + t * Q.mu) * q, tol):
            return False, verts
    return reference._le(q, Q.p, tol), None


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
                        rep = reference.check_subgraph_inequality_by_sweep(
                            G, P, cert=c)
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


def test_independence_floors_an_exact_cap_exactly():
    # cap = mu q = 3 - 10^-12 at (0, -1): the float floor with its slack
    # reads 3 there, while the exact floor is 2
    q = (3 - Fraction(1, 10 ** 12)) / 2
    cert = AlphaCertificate(valid=True, rank_r=2, quadform=q,
                            equality_case=False, exact=True)
    rep = bounds.check_independence(cycle_graph(4), P01X, cert=cert)
    assert rep.value == float(2 * q) and rep.floored == 2
    cert = AlphaCertificate(valid=True, rank_r=2, quadform=float(q),
                            equality_case=False)
    rep = bounds.check_independence(cycle_graph(4), P01, cert=cert)
    assert rep.floored == 3


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


def test_clique_free_is_guarded():
    # the line graph of K_9 (36 vertices) at (2/5, -1/5) is valid with
    # rank 9: a K_10 would be a centred simplex, so the check holds by
    # proof, while the clique search of its brute-force body is above
    # the guard
    P = CodeParameters.make(Fraction(2, 5), Fraction(-1, 5))
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    G = Graph(len(pairs), [(x, y) for x in range(len(pairs))
                           for y in range(x + 1, len(pairs))
                           if set(pairs[x]) & set(pairs[y])])
    cert = certify_alpha(G, P)
    assert cert.valid and cert.rank_r == 9
    rep = bounds.check_clique_free(G, P, cert=cert)
    assert rep.applicable and rep.holds and rep.value == 10.0
    assert rep.note is None
    with pytest.raises(SizeGuardError):
        reference.check_clique_free_by_search(G, P, cert=cert)
    # K_33 at (1/2, -1/2) has rank 33: a K_34 on 33 vertices needs no
    # search, so the check answers above the guard
    P = CodeParameters.make(Fraction(1, 2), Fraction(-1, 2))
    G = complete_graph(MAX_INDEPENDENCE_N + 1)
    cert = certify_alpha(G, P)
    assert cert.valid and cert.rank_r == G.n
    assert bounds.check_clique_free(G, P, cert=cert).holds
    n = MAX_INDEPENDENCE_N
    assert reference.contains_clique(complete_graph(n), n)
    big = complete_graph(n + 1)
    assert reference.contains_clique(big, 0)
    assert reference.contains_clique(big, 1)
    assert not reference.contains_clique(big, n + 2)
    with pytest.raises(SizeGuardError):
        reference.contains_clique(big, 2)


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


def test_neighborhood_holds_at_the_float_budget_edge():
    # every graph with n <= 6 at the grid points as floats, alpha moved by
    # -4e-9, -2e-9, 2e-9 or 4e-9: where the certificate is valid within
    # its band, the check holds, although on 37 of them some part reads a
    # q above its budget or no rank drop, which the former body, comparing
    # each part with its budget, reported as a failure
    valid = missed = 0
    for n in range(1, 7):
        for G in enumerate_graphs(n):
            for X in RATIONAL_GRID:
                for shift in (-4e-9, -2e-9, 2e-9, 4e-9):
                    P = CodeParameters.make(X.alpha + shift, X.beta)
                    c = certify_alpha(G, P)
                    if not c.valid:
                        continue
                    valid += 1
                    rep = bounds.check_neighborhood(G, P, cert=c)
                    assert rep.applicable and rep.holds is True, (
                        G, P.alpha, P.beta, rep)
                    missed += not reference.check_neighborhood_in_fractions(
                        G, P, cert=c).holds
    assert (valid, missed) == (2671, 37)


PENTAGON = pentagon_parameters()


def neighborhood_points():
    """The 15 exact grid points, their floats and the pentagon point."""
    return (list(RATIONAL_GRID)
            + [CodeParameters.make(P.alpha, P.beta) for P in RATIONAL_GRID]
            + [PENTAGON])


def assert_neighborhood_matches_reference(graphs, each_u_to: int):
    """check_neighborhood equals the per-subgraph reference, report for
    report, on every valid certificate: with u=None, and with each u on
    graphs of order at most each_u_to.  The reports compare with ==, so
    every witness float is the reference's bit for bit.  Returns the
    (graph, parameters) pairs compared."""
    seen = []
    for G in graphs:
        for P in neighborhood_points():
            c = certify_alpha(G, P)
            if not c.valid:
                continue
            seen.append((G, P))
            us = [None] + (list(range(G.n)) if G.n <= each_u_to else [])
            for u in us:
                rep = bounds.check_neighborhood(G, P, u=u, cert=c)
                ref = check_neighborhood_by_subgraphs(G, P, u=u, cert=c)
                assert rep == ref, (G, P.alpha, P.beta, u)
    return seen


def test_neighborhood_matches_the_subgraph_reference_up_to_order_6():
    seen = assert_neighborhood_matches_reference(
        (G for n in range(1, 7) for G in enumerate_graphs(n)), each_u_to=5)
    c5 = canonical_form(cycle_graph(5))
    assert any(canonical_form(G) == c5 and P is PENTAGON for G, P in seen)
    assert any(P.exact for _, P in seen) and any(G.n == 6 for G, _ in seen)


def test_neighborhood_matches_the_subgraph_reference_on_random_graphs():
    rng = random.Random(31)
    graphs = []
    for n in range(7, 13):
        for _ in range(4):
            d = rng.choice((0.3, 0.5, 0.7, 0.85))
            graphs.append(Graph(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n)
                                    if rng.random() < d]))
    seen = assert_neighborhood_matches_reference(graphs, each_u_to=12)
    assert any(G.n >= 11 for G, _ in seen)


# ---------------------------------------------------------------------------
# the derived checks against their brute-force and Fraction bodies
# ---------------------------------------------------------------------------

def assert_checks_equal_brute_force(G, P, c, subsets):
    """On c = certify_alpha(G, P), the three checks decided by theorem
    give the reports of their brute-force bodies in tests/reference.py,
    every field equal and value bit for bit: over all subsets, on each
    given subset, the independence cap and the clique search."""
    pairs = [(bounds.check_subgraph_inequality(G, P, cert=c),
              reference.check_subgraph_inequality_by_sweep(G, P, cert=c))]
    pairs += [(bounds.check_subgraph_inequality(G, P, subset=S, cert=c),
               reference.check_subgraph_inequality_by_sweep(
                   G, P, subset=S, cert=c)) for S in subsets]
    pairs += [(bounds.check_independence(G, P, cert=c),
               reference.check_independence_by_roof(G, P, cert=c)),
              (bounds.check_clique_free(G, P, cert=c),
               reference.check_clique_free_by_search(G, P, cert=c))]
    for rep, ref in pairs:
        assert rep == ref, (G, P.alpha, P.beta, rep, ref)
        assert rep.holds is True
        assert rep.value.hex() == ref.value.hex()


def test_derived_checks_equal_their_brute_force_bodies_up_to_order_7():
    # every valid certificate of every graph with n <= 7 at the 15 exact
    # grid points, their floats and the pentagon point
    rng = random.Random(16)
    valid = {True: 0, False: 0}
    for n in range(1, 8):
        for G in enumerate_graphs(n):
            for P in neighborhood_points():
                c = certify_alpha(G, P)
                if not c.valid:
                    continue
                valid[c.exact] += 1
                some = [v for v in range(n) if rng.random() < 0.5] or [0]
                assert_checks_equal_brute_force(G, P, c, [range(n), some])
    # 2,411 exact, the same 2,411 on floats and 12 at the pentagon point
    assert valid == {True: 2411, False: 2423}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=n))))
def test_derived_checks_equal_their_brute_force_bodies_on_random_graphs(
        case):
    n, bits, subset = case
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    G = Graph(n, [e for e, on in zip(pairs, bits) if on])
    for P in neighborhood_points():
        c = certify_alpha(G, P)
        if c.valid:
            assert_checks_equal_brute_force(G, P, c, [subset])


def scaled(c: AlphaCertificate, factor) -> AlphaCertificate:
    """c with its quadratic form scaled by factor, in its own arithmetic."""
    return dataclasses.replace(
        c, quadform=c.quadform * (factor if c.exact else float(factor)))


def assert_derived_checks_match_fractions(G, P, c, subsets, u=None):
    """The integer subset sweep in tests/reference.py gives the reports
    of its Fraction body, every field equal and value bit for bit, over
    all subsets and on each given subset; check_independence gives the
    report of its brute-force body in every field but holds, which it
    takes from the theorem; check_neighborhood gives the report of its
    Fraction body at u.  c may be forged, so the brute-force bodies meet
    failing verdicts.  Returns the brute-force subgraph reports."""
    sub = [(reference.check_subgraph_inequality_by_sweep(G, P, cert=c),
            reference.check_subgraph_inequality_in_fractions(G, P, cert=c))]
    sub += [(reference.check_subgraph_inequality_by_sweep(
                G, P, subset=S, cert=c),
             reference.check_subgraph_inequality_in_fractions(
                 G, P, subset=S, cert=c)) for S in subsets]
    roof = reference.check_independence_by_roof(G, P, cert=c)
    pairs = sub + [
        (dataclasses.replace(bounds.check_independence(G, P, cert=c),
                             holds=roof.holds), roof),
        (bounds.check_neighborhood(G, P, u=u, cert=c),
         reference.check_neighborhood_in_fractions(G, P, u=u, cert=c))]
    for rep, ref in pairs:
        assert rep == ref, (G, P.alpha, P.beta, rep, ref)
        if ref.value is not None:
            assert rep.value.hex() == ref.value.hex()
    return [rep for rep, _ in sub]


def test_derived_checks_match_their_fraction_bodies_up_to_order_6():
    # every graph with n <= 6 at the 15 exact grid points, their floats
    # and the pentagon point; each valid certificate also with q lowered
    # by a quarter, so the sweep finds violations and reports witnesses,
    # and raised by a quarter, so q <= p and the roof can fail
    rng = random.Random(13)
    verdicts = set()
    graphs = exact = 0
    for n in range(1, 7):
        for G in enumerate_graphs(n):
            graphs += 1
            for P in neighborhood_points():
                c = certify_alpha(G, P)
                if not c.valid:
                    continue
                exact += c.exact
                some = [v for v in range(n) if rng.random() < 0.5] or [0]
                for f in (1, Fraction(3, 4), Fraction(5, 4)):
                    reps = assert_derived_checks_match_fractions(
                        G, P, scaled(c, f), [range(n), some],
                        u=rng.randrange(n))
                    verdicts.update((r.holds, r.witness is None)
                                    for r in reps)
    assert graphs == 208 and exact > 300
    assert verdicts == {(True, True), (False, False), (True, False),
                        (False, True)}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
    st.integers(0, n - 1))))
def test_derived_checks_match_their_fraction_bodies_on_random_graphs(case):
    n, bits, subset, u = case
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    G = Graph(n, [e for e, on in zip(pairs, bits) if on])
    for P in neighborhood_points():
        c = certify_alpha(G, P)
        if c.valid:
            for cc in (c, scaled(c, Fraction(7, 8))):
                assert_derived_checks_match_fractions(G, P, cc, [subset],
                                                      u=u)


def test_subgraph_inequality_at_its_equality_edge():
    # on a regular graph of degree k, q = n / (k + mu), so the whole
    # vertex set meets t^2 = (2e + t mu) q exactly: it holds, and fails
    # once q is lowered by one part in 10^12
    seen = 0
    for n in range(1, 7):
        for G in enumerate_graphs(n):
            k = G.rows[0].bit_count()
            if any(row.bit_count() != k for row in G.rows):
                continue
            for P in neighborhood_points():
                c = certify_alpha(G, P)
                if not c.valid:
                    continue
                t, e = n, n * k // 2
                if c.exact:
                    seen += 1
                    assert t * t == (2 * e + t * P.exact.mu) * c.quadform
                whole = list(range(n))
                reps = assert_derived_checks_match_fractions(
                    G, P, c, [whole])
                assert all(r.holds for r in reps)
                if not c.exact:
                    continue
                low = scaled(c, 1 - Fraction(1, 10 ** 12))
                reps = assert_derived_checks_match_fractions(
                    G, P, low, [whole])
                assert [r.holds for r in reps] == [False, False]
    assert seen > 20


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


def test_sandwich_rejects_a_graph_on_no_vertices():
    # as certify_alpha does; the rank ratio would divide by rank 0
    with pytest.raises(ValueError, match="at least one vertex"):
        bounds.sandwich_bounds([empty_graph(0)], mu=2, d=2)


def test_sandwich_empty_family():
    bad = [disjoint_union([complete_graph(2), complete_graph(2)]),
           complete_bipartite(1, 5)]
    with pytest.raises(EmptyFamilyError):
        bounds.sandwich_bounds(bad, mu=2.0, d=3)


def test_subset_sweep_guard():
    # K_21 lies above the sweep of the brute-force body; the check holds
    # by proof at any order, with or without a subset
    P = CodeParameters.make(Fraction(1, 2), Fraction(-1, 2))
    G = complete_graph(reference.MAX_SUBSET_SWEEP_N + 1)
    cert = certify_alpha(G, P)
    assert cert.valid
    rep = bounds.check_subgraph_inequality(G, P, cert=cert)
    assert rep.applicable and rep.holds and rep.witness is None
    assert rep.value == float(cert.quadform)
    rep = bounds.check_subgraph_inequality(G, P, subset=[0, 1, 2], cert=cert)
    assert rep.applicable and rep.holds and rep.witness == [0, 1, 2]
    with pytest.raises(SizeGuardError):
        reference.check_subgraph_inequality_by_sweep(G, P, cert=cert)


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
    # the two identities of the docstring, up to rounding
    P = pentagon_parameters()
    Q = bounds.recursion_map(P)
    assert abs(Q.mu - P.mu) <= 1e-9
    target = (P.alpha - P.beta) / (P.alpha ** 2 - P.beta)
    assert abs(Q.p - target) <= 1e-9


@pytest.mark.parametrize("a, b, alpha, beta", [
    (Fraction(1, 2), Fraction(1, 8), Fraction(1, 3), Fraction(-1, 6)),
    (Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(-1, 3)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(0))])
def test_recursion_map_from_nonnegative_beta(a, b, alpha, beta):
    # 0 <= beta <= alpha^2 maps to a nonpositive beta; while it is negative
    # the new p is (alpha-beta)/(alpha^2-beta), on both paths
    Q = bounds.recursion_map(CodeParameters.make(a, b))
    assert (Q.exact.alpha, Q.exact.beta) == (alpha, beta)
    F = bounds.recursion_map(CodeParameters.make(float(a), float(b)))
    assert abs(F.alpha - alpha) <= 1e-12 and abs(F.beta - beta) <= 1e-12
    if beta < 0:
        budget = (a - b) / (a * a - b)
        assert Q.exact.p == budget
        assert abs(F.p - float(budget)) <= 1e-12
    else:
        assert Q.p is None and F.p is None


def test_recursion_map_leaving_domain():
    with pytest.raises(ParameterDomain):
        bounds.recursion_map(CodeParameters.make(0.9, -0.9))


# grid points whose mapped beta, (beta-alpha^2)/(1-alpha^2), is below -1
MAPPED_OFF_DOMAIN = {(Fraction(-1, 4), Fraction(-1)),
                     (Fraction(1, 4), Fraction(-1)),
                     (Fraction(1, 2), Fraction(-1)),
                     (Fraction(1, 2), Fraction(-3, 4))}


def test_recursion_map_identities_on_the_grid():
    # the map keeps mu and sends p to budget_nbr: exactly on rationals,
    # within 1e-9 relative on floats; every mapped beta on the grid is
    # negative, so every mapped point has a budget
    def close(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(y))

    mapped = 0
    for X in RATIONAL_GRID:
        point = (X.exact.alpha, X.exact.beta)
        F = CodeParameters.make(float(X.alpha), float(X.beta))
        if point in MAPPED_OFF_DOMAIN:
            for P in (X, F):
                with pytest.raises(ParameterDomain):
                    bounds.recursion_map(P)
            continue
        Q = bounds.recursion_map(X).exact
        assert Q.mu == X.exact.mu
        assert Q.beta < 0 and Q.p == X.exact.budget_nbr
        Q = bounds.recursion_map(F)
        assert Q.exact is None
        assert close(Q.mu, F.mu)
        assert Q.beta < 0 and close(Q.p, F.budget_nbr)
        mapped += 1
    assert mapped == 11


_unit_fractions = st.fractions(min_value=-1, max_value=1, max_denominator=60)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(_unit_fractions, _unit_fractions).filter(
    lambda t: t[0] != t[1] and max(t) < 1))
def test_recursion_map_identities_on_random_rationals(pair):
    # beta <- min, alpha <- max: -1 <= beta < alpha < 1.  The map raises
    # exactly where its raw image leaves the domain; elsewhere it keeps mu,
    # and while the mapped beta is negative its p is budget_nbr
    b, a = sorted(pair)
    P = CodeParameters.make(a, b)
    a0, b0 = a / (1 + a), (b - a * a) / (1 - a * a)
    if not (-1 < a0 < 1 and -1 <= b0 < a0):
        with pytest.raises(ParameterDomain):
            bounds.recursion_map(P)
        return
    Q = bounds.recursion_map(P).exact
    assert (Q.alpha, Q.beta) == (a0, b0)
    assert Q.mu == P.exact.mu
    if Q.beta < 0:
        assert Q.p == P.exact.budget_nbr
    else:
        assert Q.p is None


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


def test_power_bound_matches_the_level_loop():
    # the bisection gives the loop's report, best level and fixed k alike,
    # on the rational grid and its floats, the pentagon point and random
    # rational points with their floats
    rng = random.Random(7)
    points = [pentagon_parameters()]
    for P in RATIONAL_GRID:
        points += [P, CodeParameters.make(float(P.alpha), float(P.beta))]
    for _ in range(30):
        b = Fraction(-rng.randint(1, 40), 40)
        a = b + Fraction(rng.randint(1, 79), 80) * (1 - b)
        points += [CodeParameters.make(a, b),
                   CodeParameters.make(float(a), float(b))]
    for P in points:
        for d in range(1, 61):
            assert (bounds.power_bound(P, d)
                    == reference.power_bound_by_levels(P, d)), (P, d)
        for d in range(1, 13):
            for k in range(d + 2):
                assert (bounds.power_bound(P, d, k=k)
                        == reference.power_bound_by_levels(P, d, k=k))


def test_power_bound_at_large_dimensions():
    # mu = 2 first applies at m = 3, so k = d - 1 and the value is
    # 3 * 2^(d-1) - 1: from d = 1024 on it is past every float, and from
    # d = 1025 on it is reported without building 2^k
    for d in (1023, 1024, 1025, 1100, 10 ** 12):
        rep = bounds.power_bound(P01X, d)
        assert rep.applicable == (d == 1023), d
    assert bounds.power_bound(P01X, 1023).value == float(3 * 2 ** 1022 - 1)
    rep = bounds.power_bound(P01X, 10 ** 12)
    assert rep.value is None and rep.note == (
        "2^k (d+2-k) - 1 exceeds the float range at k=%d" % (10 ** 12 - 1))
    # a fixed level past the float range, and one below its gate
    assert not bounds.power_bound(P01X, 10 ** 12, k=2000).applicable
    assert (bounds.power_bound(P01X, 10 ** 12, k=0).note
            == "mu below every gate")
    # mu = 3/(2 * 10^-13) passes the gate at k = 0: the value is d + 1
    P = CodeParameters.make(Fraction(-1, 2) + Fraction(1, 10 ** 13),
                            Fraction(-1, 2))
    rep = bounds.power_bound(P, 10 ** 12)
    assert rep.applicable and rep.witness == 0
    assert rep.floored == 10 ** 12 + 1


def test_float_floors_stay_within_rounding_of_their_values():
    # a float cap floors to floor(value), or to the next integer when the
    # value lies within 4 ulps below it, and never lower than the cap of
    # the exact rational point: at every d up to 10^15, where a slack
    # relative to the value would pass 1 from d = 10^9 on
    ds = sorted({*range(1, 100), *(int(10 ** (k / 4)) for k in range(61))})
    checked = 0
    for P in RATIONAL_GRID:
        F = CodeParameters.make(float(P.alpha), float(P.beta))
        for d in ds:
            for bound in (bounds.turan_bound, bounds.recursion_bound):
                rep, exact = bound(F, d), bound(P, d)
                assert rep.applicable == exact.applicable, (P, d)
                if not rep.applicable:
                    continue
                low = math.floor(rep.value)
                up = (not rep.value.is_integer()
                      and low + 1 - rep.value <= 4 * math.ulp(rep.value))
                assert rep.floored == (low + 1 if up else low), (P, d)
                assert rep.floored >= exact.floored, (P, d)
                if rep.value < 2 ** 40:
                    assert rep.floored == exact.floored, (P, d)
                checked += 1
    assert checked > 2000
    # an integral float is its own floor, whatever its size
    rep = bounds.turan_bound(CodeParameters.make(-0.25, -1.0), 10 ** 11)
    assert rep.value == 10 ** 11 + 1 and rep.floored == 10 ** 11 + 1


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


# ---------------------------------------------------------------------------
# known constructions
# ---------------------------------------------------------------------------

def rectified_simplex(d):
    # the C(d+1, 2) midpoints e_i + e_j - (2/(d+1)) 1 of a regular simplex
    # in the hyperplane of R^(d+1) with coordinate sum 0, normalized; two
    # are at alpha when they share an index, so the alpha-graph is the
    # triangular graph, and at beta when they are disjoint
    pairs = list(itertools.combinations(range(d + 1), 2))
    V = np.full((len(pairs), d + 1), -2.0 / (d + 1))
    for row, (i, j) in enumerate(pairs):
        V[row, [i, j]] += 1.0
    V /= np.linalg.norm(V, axis=1)[:, None]
    G = Graph(len(pairs), [(u, v) for u, v in itertools.combinations(
        range(len(pairs)), 2) if set(pairs[u]) & set(pairs[v])])
    return G, (Fraction(d - 3, 2 * (d - 1)), Fraction(-2, d - 1)), d, V


def halved_cube():
    # the points of {1, -1}^5 with an even number of -1 entries over
    # sqrt(5): products (5 - 2h)/5 at Hamming distance h = 2 or 4
    V = np.array([x for x in itertools.product((1.0, -1.0), repeat=5)
                  if x.count(-1.0) % 2 == 0]) / math.sqrt(5.0)
    n = len(V)
    G = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                  if np.count_nonzero(V[u] != V[v]) == 2])
    return G, (Fraction(1, 5), Fraction(-3, 5)), 5, V


def schlafli():
    # the 27 lines a_i, b_i, c_ij of a double-six, adjacent when skew:
    # a_i and a_j, b_i and b_j, a_i and b_i, a_i or b_i and c_jk with i
    # outside {j, k}, and two c's that share exactly one index
    lines = ([("a", {i}) for i in range(6)] + [("b", {i}) for i in range(6)]
             + [("c", set(ij)) for ij in itertools.combinations(range(6), 2)])

    def skew(x, y):
        (kx, sx), (ky, sy) = x, y
        if kx == ky:
            return kx != "c" or len(sx & sy) == 1
        if "c" in (kx, ky):
            return not sx & sy
        return sx == sy

    n = len(lines)
    G = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                  if skew(lines[u], lines[v])])
    assert all(G.degree(v) == 16 for v in range(n))
    return G, (Fraction(1, 4), Fraction(-1, 2)), 6, None


def test_known_constructions_meet_every_bound():
    # classical two-distance sets, independent of the package, as an
    # oracle for the certificates, the realizations and the size bounds:
    # each certifies exactly and in floats at rank d, realizes in R^d,
    # and its size is at most every applicable bound in dimension d
    constructions = ([rectified_simplex(d) for d in range(3, 13)]
                     + [halved_cube(), schlafli()])
    tight = set()
    for G, (a, b), d, V in constructions:
        what = (G.n, a, b, d)
        floats = CodeParameters.make(float(a), float(b))
        if V is not None:
            assert verify_code(V, floats.alpha, floats.beta).valid, what
            code = SphericalCode(floats.alpha, floats.beta, V.shape[1], V)
            assert alpha_graph(code) == G, what
        P = CodeParameters.make(a, b)
        c = certify_alpha(G, P)
        assert c.valid and c.exact and c.rank_r == d, what
        f = certify_alpha(G, floats)
        assert f.valid and not f.exact and f.rank_r == d, what
        code = realize_from_alpha(G, P, cert=c)
        assert code.dim == d, what
        assert verify_code(code.vectors, floats.alpha, floats.beta).valid
        caps = {"dgs": bounds.dgs_bound(d)}
        for rep in (bounds.turan_bound(P, d), bounds.power_bound(P, d)):
            if rep.applicable:
                caps[rep.name] = rep.floored
        for name, cap in caps.items():
            assert cap >= G.n, (what, name, cap)
            if cap == G.n:
                tight.add((name, d))
    assert tight == {("dgs", 6), ("turan", 3)}
