"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line with the
counts behind the verdict.  The sweeps are exhaustive over canonical
graphs at small orders, with the exact backend wherever parameters are
rational, so a pass is a finite-case proof rather than a sample.
"""

import math
import time
from fractions import Fraction

import numpy as np

import reference
from twodist import bounds, linalg, search
from twodist.certificates import (CodeParameters, alpha_graph, certify_alpha,
                                  certify_beta, code_rank, realize_from_alpha)
from twodist.graphs import (Graph, check_eigenvalue_floor,
                            complete_bipartite, cycle_graph, disjoint_union,
                            complete_graph, enumerate_graphs)

PENTAGON = ((math.sqrt(5.0) - 1.0) / 4.0, -(math.sqrt(5.0) + 1.0) / 4.0)


def test_criterion_1_rank_one_update_inertia():
    rng = np.random.default_rng(20240801)
    start = time.time()
    compared = skipped = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        M = rng.integers(-3, 4, size=(n, n)).astype(float)
        M = (M + M.T) / 2.0
        u = rng.integers(-2, 3, size=n).astype(float)
        while not u.any():
            u = rng.integers(-2, 3, size=n).astype(float)
        c = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        try:
            predicted, case = linalg.rank_one_update_inertia(M, u, c)
        except linalg.AmbiguousCase:
            skipped += 1
            continue
        direct = linalg.inertia(M + c * np.outer(u, u))
        assert predicted == direct, (M, u, c, case)
        compared += 1
    elapsed = time.time() - start
    assert compared + skipped == 500 and compared >= 450
    assert elapsed < 10.0
    print("criterion 1: PASS (%d/500 compared, %d ambiguous skipped, %.1fs)"
          % (compared, skipped, elapsed))


def _grid_sweep():
    """Certify every canonical graph with n <= 7 at every grid point and
    run the derived checks, their brute-force bodies (tests/reference.py:
    the subset sweep, the independence number against the roof, the
    clique search and the per-subgraph neighborhood budgets and ranks)
    and realization round trips on the valid ones.

    Cached because two criteria read the same sweep.
    """
    if _grid_sweep.cache is not None:
        return _grid_sweep.cache
    start = time.time()
    stats = {"graphs": 0, "pairs": 0, "valid": 0, "violations": [],
             "roundtrip_failures": []}
    for n in range(1, 8):
        for G in enumerate_graphs(n):
            stats["graphs"] += 1
            for P in search.RATIONAL_GRID:
                stats["pairs"] += 1
                cert = certify_alpha(G, P)
                if not cert.valid:
                    continue
                stats["valid"] += 1
                checks = [
                    bounds.check_subgraph_inequality(G, P, cert=cert),
                    bounds.check_independence(G, P, cert=cert),
                    bounds.check_clique_free(G, P, cert=cert),
                    bounds.check_neighborhood(G, P, cert=cert),
                    reference.check_subgraph_inequality_by_sweep(
                        G, P, cert=cert),
                    reference.check_independence_by_roof(G, P, cert=cert),
                    reference.check_clique_free_by_search(G, P, cert=cert),
                    reference.check_neighborhood_by_subgraphs(
                        G, P, cert=cert),
                ]
                for rep in checks:
                    if not rep.applicable or rep.holds is not True:
                        stats["violations"].append((n, G, P, rep.name))
                a, b = P.alpha, P.beta
                code = realize_from_alpha(G, P)
                target = ((a - b) * (G.adjacency() + P.mu * np.eye(n))
                          + b * np.ones((n, n)))
                residual = float(np.max(np.abs(code.gram() - target)))
                if (alpha_graph(code) != G or residual > 1e-8
                        or code_rank(code) != cert.rank_r):
                    stats["roundtrip_failures"].append((n, G, P, residual))
    stats["elapsed"] = time.time() - start
    _grid_sweep.cache = stats
    return stats


_grid_sweep.cache = None


def test_criterion_2_derived_checks_exhaustive():
    stats = _grid_sweep()
    assert stats["graphs"] == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert stats["violations"] == []
    assert stats["elapsed"] < 300.0
    print("criterion 2: PASS (%d graphs x %d points, %d valid certificates, "
          "0 violations, %.1fs)"
          % (stats["graphs"], len(search.RATIONAL_GRID), stats["valid"],
             stats["elapsed"]))


def test_criterion_3_realization_round_trips():
    stats = _grid_sweep()
    assert stats["valid"] > 0
    assert stats["roundtrip_failures"] == []
    print("criterion 3: PASS (%d realizations, residuals <= 1e-8, "
          "ranks match)" % stats["valid"])


def test_criterion_4_worked_tight_examples():
    # square at (0, -1): quadform hits the budget exactly, rank drops to 2
    P = CodeParameters.make(Fraction(0), Fraction(-1))
    cert = certify_alpha(cycle_graph(4), P)
    assert cert.valid and cert.equality_case
    assert cert.quadform == 1 == P.exact.p
    assert cert.rank_r == 2

    # pentagon: quadform equals the budget and both neighborhood
    # inequalities are tight at every vertex
    a, b = PENTAGON
    Q = CodeParameters.make(a, b)
    cert = certify_alpha(cycle_graph(5), Q)
    assert cert.valid and cert.equality_case and cert.rank_r == 2
    assert abs(cert.quadform - Q.p) <= 1e-9
    rep = bounds.check_neighborhood(cycle_graph(5), Q, cert=cert)
    assert rep.holds
    near = (a - b) / (a * a - b)
    far = (a - b) / (-b * (1.0 - b))
    for v, tag, q, rank, good in rep.witness:
        assert good
        assert abs(q - (near if tag == "neighbors" else far)) <= 1e-9

    # an edge plus an isolated vertex as beta-graph at (1/sqrt 2, 0)
    R = CodeParameters.make(1.0 / math.sqrt(2.0), 0.0)
    cert = certify_beta(disjoint_union([complete_graph(2),
                                        complete_graph(1)]), R)
    assert cert.valid and cert.case == "three"
    assert abs(cert.quadform - (-1.0)) <= 1e-9
    assert cert.rank_r == 2
    print("criterion 4: PASS (square, pentagon, paired-edge examples exact)")


def test_criterion_5_search_ground_truth():
    start = time.time()
    a, b = PENTAGON
    res = search.max_code_size(a, b, d=2, n_max=6, workers=4)
    assert res.value == 5 and res.exhaustive
    res = search.max_code_size(0, -1, d=2, n_max=6, workers=4)
    assert res.value == 4 and res.exhaustive
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("criterion 5: PASS (pentagon 5, square 4, %.1fs with 4 workers)"
          % elapsed)


def test_criterion_6_bound_soundness():
    points = [(P.exact.alpha, P.exact.beta) for P in search.RATIONAL_GRID]
    points.append(PENTAGON)
    violations = []
    for a, b in points:
        P = CodeParameters.make(a, b)
        res = search.max_code_size(a, b, d=2, n_max=6)
        caps = [("dgs", bounds.dgs_bound(2))]
        rep = bounds.turan_bound(P, 2)
        if rep.applicable:
            caps.append(("turan", rep.floored))
        rep = bounds.power_bound(P, 2)
        if rep.applicable:
            caps.append(("power", rep.floored))
        f = search.neighborhood_capacity_f(a, b, d=2, n_max=6)
        assert f.exhaustive
        rep = bounds.recursion_bound(P, f.value)
        if rep.applicable:
            caps.append(("recursion", rep.floored))
        for name, cap in caps:
            if cap < res.value:
                violations.append((a, b, name, cap, res.value))
    assert violations == []
    print("criterion 6: PASS (%d parameter points, no bound below the "
          "searched maximum)" % len(points))


def test_criterion_7_eigenvalue_floor_exhaustive():
    checked = 0
    for n in range(1, 8):
        for G in enumerate_graphs(n, connected_only=True):
            assert check_eigenvalue_floor(G).holds
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112 + 853
    for n in range(4, 8):
        G = complete_bipartite(n // 2, (n + 1) // 2)
        rep = check_eigenvalue_floor(G)
        assert abs(rep.smallest + rep.floor) <= 1e-9
    print("criterion 7: PASS (%d connected graphs, bipartite equality "
          "n=4..7)" % checked)


def test_criterion_8_exact_float_agreement():
    mismatches = []
    pairs = 0
    for n in range(1, 8):
        for G in enumerate_graphs(n):
            for P in search.RATIONAL_GRID:
                F = CodeParameters.make(float(P.exact.alpha),
                                        float(P.exact.beta))
                ce = certify_alpha(G, P)
                cf = certify_alpha(G, F)
                pairs += 1
                if (ce.valid, ce.equality_case, ce.rank_r) != \
                        (cf.valid, cf.equality_case, cf.rank_r):
                    mismatches.append((G, P, "alpha"))
                if P.exact.alpha <= 0:
                    continue
                be = certify_beta(G, P)
                bf = certify_beta(G, F)
                pairs += 1
                if (be.valid, be.case, be.rank_r) != \
                        (bf.valid, bf.case, bf.rank_r):
                    mismatches.append((G, P, "beta"))
    assert mismatches == []
    print("criterion 8: PASS (%d backend comparisons agree)" % pairs)
