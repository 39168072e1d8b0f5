"""Certificate and realization tests.

Expected quadratic-form values, ranks and case labels below were worked
out by hand from the defining matrices (small enough to solve directly)
and are asserted as frozen constants.
"""

import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from twodist import certificates as cert
from twodist import linalg
from twodist.errors import (AmbiguousPair, CertificateInvalid,
                            ParameterDomain, ReconstructionResidual)
from twodist.graphs import (Graph, complete_bipartite, complete_graph,
                            cycle_graph, disjoint_union, empty_graph,
                            path_graph)

import reference
from reference import induced_subgraph, rational_shift


def pentagon_parameters():
    # inner products of the regular pentagon: cos 72 and cos 144 degrees
    a = (math.sqrt(5.0) - 1.0) / 4.0
    b = -(math.sqrt(5.0) + 1.0) / 4.0
    return cert.CodeParameters.make(a, b)


def rand_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_parameters_derived_quantities():
    P = cert.CodeParameters.make(0, -1)
    assert P.mu == 2.0 and P.lam == 1.0 and P.p == 1.0
    assert P.exact is not None
    assert P.exact.mu == Fraction(2) and P.exact.p == Fraction(1)

    Q = cert.CodeParameters.make(0.5, -0.5)
    assert Q.mu == 1.5 and Q.lam == 0.5 and Q.p == 2.0

    R = cert.CodeParameters.make(math.sqrt(0.5), 0.0)
    assert R.p is None and R.exact is None
    assert abs(R.lam - (math.sqrt(2.0) - 1.0)) < 1e-15


def test_parameters_domain_errors():
    with pytest.raises(ParameterDomain):
        cert.CodeParameters.make(1, 0)
    with pytest.raises(ParameterDomain):
        cert.CodeParameters.make(0.5, 0.7)
    with pytest.raises(ParameterDomain):
        cert.CodeParameters.make(0.3, -1.2)
    with pytest.raises(ParameterDomain):
        cert.CodeParameters.make(-0.5, -0.5)


def test_exact_only_when_both_rational():
    assert cert.CodeParameters.make(Fraction(1, 3), -1).exact is not None
    assert cert.CodeParameters.make(Fraction(1, 3), -1.0).exact is None


def test_exact_parameters_are_code_parameters_in_fractions():
    P = cert.CodeParameters.make(Fraction(1, 4), Fraction(-1, 2))
    X = P.exact
    assert type(X) is cert.CodeParameters and X.exact is None
    scalars = (X.alpha, X.beta, X.mu, X.lam, X.p, X.budget_nbr, X.beta_budget)
    assert all(type(x) is Fraction for x in scalars)
    assert scalars == (Fraction(1, 4), Fraction(-1, 2), Fraction(2),
                       Fraction(1), Fraction(3, 2), Fraction(4, 3),
                       Fraction(-3))


# ---------------------------------------------------------------------------
# verify / extract
# ---------------------------------------------------------------------------

def test_verify_square_code():
    s = math.sqrt(0.5)
    V = np.array([[s, s], [s, -s], [-s, -s], [-s, s]])
    rep = cert.verify_code(V, 0.0, -1.0)
    assert rep.valid
    assert rep.values_present == {"alpha", "beta"}

    bad = V.copy()
    bad[0] *= 1.5
    rep = cert.verify_code(bad, 0.0, -1.0)
    assert not rep.valid
    assert rep.norm_violations and rep.norm_violations[0][0] == 0


def test_verify_flags_stray_inner_product():
    # antipodal pair is not admissible once beta moves above -1
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rep = cert.verify_code(V, 0.0, -0.5)
    assert not rep.valid
    assert rep.pair_violations == [(0, 1, -1.0)]


def test_verify_one_distance_code():
    rep = cert.verify_code(np.eye(2), 0.5, 0.0)
    assert rep.valid
    assert rep.values_present == {"beta"}


def test_graph_extraction_complementary():
    code = cert.realize_from_alpha(cycle_graph(5), pentagon_parameters())
    G = cert.alpha_graph(code)
    H = cert.beta_graph(code)
    assert G == cycle_graph(5)
    assert H == G.complement()


def test_graph_extraction_ambiguous_pair():
    code = cert.SphericalCode(alpha=1e-12, beta=-1e-12, dim=2,
                              vectors=np.eye(2))
    with pytest.raises(AmbiguousPair):
        cert.alpha_graph(code)


def outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def reference_codes(rng):
    """Realized codes, the same codes perturbed, and random unit rows."""
    from twodist.search import RATIONAL_GRID

    points = [cert.CodeParameters.make(float(P.alpha), float(P.beta))
              for P in RATIONAL_GRID] + [pentagon_parameters()]
    codes = []
    while len(codes) < 60:
        P = rng.choice(points)
        G = rand_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.5, 0.8)))
        if cert.certify_alpha(G, P).valid:
            codes.append(cert.realize_from_alpha(G, P))
    for code in codes[:40]:
        V = code.vectors.copy()
        for _ in range(rng.randint(1, 3)):
            # below tol, at it, or far above it; or a whole row replaced
            i, k = rng.randrange(V.shape[0]), rng.randrange(V.shape[1])
            V[i, k] += rng.choice((1e-11, 1e-9, 1e-6, 0.3)) * rng.choice(
                (-1, 1))
        if rng.random() < 0.3:
            row = np.array([rng.gauss(0, 1) for _ in range(V.shape[1])])
            V[rng.randrange(V.shape[0])] = row / np.linalg.norm(row)
        codes.append(cert.SphericalCode(code.alpha, code.beta, code.dim, V))
    for _ in range(10):
        n, d = rng.randint(1, 9), rng.randint(1, 6)
        V = np.array([[rng.gauss(0, 1) for _ in range(d)] for _ in range(n)])
        codes.append(cert.SphericalCode(0.0, -0.5, d, V / np.linalg.norm(
            V, axis=1)[:, None]))
    # rows that are not contiguous in memory, or run backwards
    codes += [cert.SphericalCode(code.alpha, code.beta, code.dim, V)
              for code in codes[::10]
              for V in (np.asfortranarray(code.vectors),
                        code.vectors[:, ::-1], code.vectors[::-1, ::-1])]
    return codes


def assert_code_matches_reference(code, tol=1e-9):
    assert cert.verify_code(code.vectors, code.alpha, code.beta, tol) == (
        reference.verify_code(code.vectors, code.alpha, code.beta, tol))
    for which, graph_of in (("alpha", cert.alpha_graph),
                            ("beta", cert.beta_graph)):
        got = outcome(lambda: graph_of(code, tol))
        assert got == outcome(lambda: reference.split_graph(code, tol, which))
        yield got


def test_verify_and_extraction_match_the_per_pair_reference(monkeypatch):
    # the pair products are taken a block of rows at a time: the reports,
    # the graphs and the first bad pair's message are those of one
    # V[i] @ V[j] per pair, with the blocks of every size down to one row
    rng = random.Random(53)
    codes = reference_codes(rng)
    seen = set()
    for block in (cert._PAIR_BLOCK, 7, 1):
        monkeypatch.setattr(cert, "_PAIR_BLOCK", block)
        for code in codes:
            rep = cert.verify_code(code.vectors, code.alpha, code.beta)
            for got in assert_code_matches_reference(code):
                seen.add((isinstance(got, Graph), rep.valid,
                          len(rep.pair_violations) > 1,
                          bool(rep.norm_violations)))
    # valid codes, codes with several bad pairs and with bad norms, and
    # codes whose extraction raises all occur
    assert (True, True, False, False) in seen
    assert any(not graph and several for graph, _, several, _ in seen)
    assert any(norm for _, _, _, norm in seen)


def test_verify_and_extraction_match_the_reference_on_large_codes():
    # the cross-polytope on 400 vectors fills three blocks of rows at
    # the default block size: beta = -1 on the antipodal pairs only
    n = 400
    V = np.vstack([np.eye(n // 2), -np.eye(n // 2)])
    assert n * n > 2 * cert._PAIR_BLOCK
    assert [(i, len(row)) for i, row in cert._pair_rows(V)] == [
        (i, n - 1 - i) for i in range(n)]
    code = cert.SphericalCode(0.0, -1.0, n // 2, V)
    matching = Graph(n, [(i, i + n // 2) for i in range(n // 2)])
    assert list(assert_code_matches_reference(code)) == [
        matching.complement(), matching]
    bad = V.copy()
    bad[250, 3] = 0.5  # pairs (3, 250) and (203, 250) are near neither
    code = cert.SphericalCode(0.0, -1.0, n // 2, bad)
    rep = cert.verify_code(bad, 0.0, -1.0)
    assert rep.pair_violations == [(3, 250, 0.5), (203, 250, -0.5)]
    assert rep.norm_violations == [(250, math.sqrt(1.25))]
    for got in assert_code_matches_reference(code):
        assert got[0] is CertificateInvalid and "(3, 250)" in got[1]


def test_verify_accepts_empty_and_one_dimensional_input():
    # every input the per-pair loop accepts gives its report; a 1-d array
    # is a list of vectors of dimension 1
    for vectors in ([], [0.5], [1.0], [[]], np.zeros((0, 3)),
                    np.zeros((3, 0)), np.ones((1, 2, 2)),
                    np.zeros((0, 2, 2))):
        assert cert.verify_code(vectors, 0.0, -1.0) == (
            reference.verify_code(vectors, 0.0, -1.0))
    assert cert.verify_code([1.0, -1.0, 1.0], 1 - 1e-12, -1.0) == (
        cert.verify_code([[1.0], [-1.0], [1.0]], 1 - 1e-12, -1.0))
    assert cert.verify_code([1.0, -1.0], 0.0, -1.0).values_present == {
        "beta"}
    # a pair within tol of both values counts as alpha only
    for alpha, beta in ((1e-12, -1e-12), (0.0, -1e-10)):
        assert cert.verify_code(np.eye(2), alpha, beta) == (
            reference.verify_code(np.eye(2), alpha, beta))
        assert cert.verify_code(np.eye(2), alpha, beta).values_present == {
            "alpha"}


# ---------------------------------------------------------------------------
# alpha certificates, float path
# ---------------------------------------------------------------------------

def test_alpha_square_equality():
    # C4 at (0,-1): quadratic form hits p = 1 exactly, rank drops to 2
    P = cert.CodeParameters.make(0.0, -1.0)
    c = cert.certify_alpha(cycle_graph(4), P)
    assert c.valid
    assert abs(c.quadform - 1.0) <= 1e-9
    assert c.equality_case
    assert c.rank_r == 2
    assert abs(c.smallest_eigenvalue - (-2.0)) <= 1e-9


def test_alpha_pentagon_equality():
    # q = (5 - sqrt 5)/2 equals p, smallest eigenvalue is the golden ratio
    P = pentagon_parameters()
    c = cert.certify_alpha(cycle_graph(5), P)
    assert c.valid
    assert abs(c.quadform - (5.0 - math.sqrt(5.0)) / 2.0) <= 1e-9
    assert c.equality_case
    assert c.rank_r == 2
    assert abs(c.smallest_eigenvalue + (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-9


def test_alpha_strict_examples():
    P = cert.CodeParameters.make(0.0, -1.0)
    c = cert.certify_alpha(complete_graph(3), P)
    assert c.valid and not c.equality_case
    assert abs(c.quadform - 0.75) <= 1e-9
    assert c.rank_r == 3

    c = cert.certify_alpha(complete_graph(2), P)
    assert c.valid and not c.equality_case
    assert abs(c.quadform - 2.0 / 3.0) <= 1e-9
    assert c.rank_r == 2


def test_alpha_triangle_with_smaller_gap():
    # K3 at (0,-1/2): mu = 3, shifted matrix J + 2I, q = 3/5 < p = 1
    P = cert.CodeParameters.make(0.0, -0.5)
    c = cert.certify_alpha(complete_graph(3), P)
    assert c.valid and not c.equality_case
    assert abs(c.quadform - 0.6) <= 1e-9
    assert c.rank_r == 3


def test_alpha_eigenvalue_failure():
    # the 5-star has smallest eigenvalue -sqrt 5 < -2
    P = cert.CodeParameters.make(0.0, -1.0)
    c = cert.certify_alpha(complete_bipartite(1, 5), P)
    assert not c.valid
    assert c.failure_reason == "eigenvalue_below"
    assert abs(c.smallest_eigenvalue + math.sqrt(5.0)) <= 1e-9


def test_alpha_quadform_failure():
    # two disjoint edges at (0,-1): q = 4/3 > p = 1
    P = cert.CodeParameters.make(0.0, -1.0)
    G = disjoint_union([complete_graph(2), complete_graph(2)])
    c = cert.certify_alpha(G, P)
    assert not c.valid
    assert c.failure_reason == "quadform_exceeds"
    assert abs(c.quadform - 4.0 / 3.0) <= 1e-9


def test_alpha_range_failure():
    # K_{1,2} at mu = sqrt 2: the kernel eigenvector is not orthogonal
    # to the all-ones vector, so j leaves the column space
    beta = -1.0
    alpha = math.sqrt(2.0) - 1.0
    P = cert.CodeParameters.make(alpha, beta)
    assert abs(P.mu - math.sqrt(2.0)) <= 1e-12
    c = cert.certify_alpha(complete_bipartite(1, 2), P)
    assert not c.valid
    assert c.failure_reason == "j_not_in_range"


def test_alpha_domain_guard():
    P = cert.CodeParameters.make(0.5, 0.25)
    with pytest.raises(ParameterDomain):
        cert.certify_alpha(complete_graph(2), P)


# ---------------------------------------------------------------------------
# alpha certificates, exact path
# ---------------------------------------------------------------------------

def test_alpha_exact_square():
    P = cert.CodeParameters.make(Fraction(0), Fraction(-1))
    c = cert.certify_alpha(cycle_graph(4), P)
    assert c.exact
    assert c.valid and c.equality_case
    assert c.quadform == Fraction(1)
    assert c.rank_r == 2


def test_alpha_exact_matches_float_on_random_graphs():
    Pf = cert.CodeParameters.make(0.0, -1.0)
    Pe = cert.CodeParameters.make(Fraction(0), Fraction(-1))
    rng = random.Random(7)
    for _ in range(40):
        G = rand_graph(rng, rng.randint(1, 6))
        cf = cert.certify_alpha(G, Pf)
        ce = cert.certify_alpha(G, Pe)
        assert cf.valid == ce.valid, G
        if cf.valid:
            assert cf.rank_r == ce.rank_r, G
            assert cf.equality_case == ce.equality_case, G


def test_alpha_kernel_orthogonal_to_ones_when_valid():
    # whenever the certificate accepts a graph whose shift is singular,
    # the all-ones vector lies in the column space, so kernel eigenvectors
    # of A + mu I must be orthogonal to it
    cases = [(cycle_graph(4), cert.CodeParameters.make(0.0, -1.0)),
             (cycle_graph(5), pentagon_parameters())]
    hit = 0
    for G, P in cases:
        assert cert.certify_alpha(G, P).valid
        M = G.adjacency() + P.mu * np.eye(G.n)
        spec = reference.eigen_decompose(M)
        cut = linalg.scaled_tol(M, 1e-9)
        for i, v in enumerate(spec.values):
            if abs(v) <= cut:
                hit += 1
                assert abs(float(spec.vectors[:, i] @ np.ones(G.n))) <= 1e-7
    assert hit == 3  # one kernel direction for C4, two for C5


def group_inverse(M, tol=1e-9):
    # independent {1}-inverse reference: the group inverse of symmetric M,
    # rebuilt from numpy's spectrum
    values, vectors = np.linalg.eigh(M)
    inv = np.zeros_like(values)
    keep = np.abs(values) > linalg.scaled_tol(M, tol)
    inv[keep] = 1.0 / values[keep]
    return (vectors * inv) @ vectors.T


def is_one_inverse(M, N, tol=1e-9):
    # the {1}-inverse identity M N M = M, within the scaled tolerance
    resid = M @ N @ M - M
    return float(np.max(np.abs(resid))) <= linalg.scaled_tol(M, tol)


def test_group_inverse_identities():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        B = np.array([[rng.uniform(-1, 1) for _ in range(max(r, 1))]
                      for _ in range(n)])
        M = B @ B.T if r else np.zeros((n, n))
        M = M - 0.5 * np.trace(M) / n * np.eye(n)  # make it indefinite
        M = (M + M.T) / 2
        X = group_inverse(M)
        assert np.allclose(M @ X @ M, M, atol=1e-8)
        assert np.allclose(X @ M @ X, X, atol=1e-8)
        assert np.allclose(M @ X, X @ M, atol=1e-8)
        assert is_one_inverse(M, X)


def test_group_inverse_diagonal():
    X = group_inverse(np.diag([2.0, 0.0]))
    assert np.allclose(X, np.diag([0.5, 0.0]), atol=1e-12)


def test_is_one_inverse_rejects():
    M = np.diag([1.0, 0.0])
    assert not is_one_inverse(M, np.diag([2.0, 0.0]))


def test_quadform_agrees_with_any_reflexive_inverse():
    # j^T X j is the same for every X with M X M = M once j is in the
    # column space; perturbing the group inverse along the kernel keeps
    # both properties
    G = cycle_graph(4)
    M = G.adjacency() + 2.0 * np.eye(4)
    X = group_inverse(M)
    k = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    Y = X + np.outer(k, k)
    assert is_one_inverse(M, Y)
    j = np.ones(4)
    assert abs(float(j @ Y @ j) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# {0, beta} certificates
# ---------------------------------------------------------------------------

def test_beta_zero_strict_case():
    # 2K2 at beta = -1/2: largest adjacency eigenvalue 1 < lam = 2
    G = disjoint_union([complete_graph(2), complete_graph(2)])
    c = cert.certify_beta_zero(G, -0.5)
    assert c.valid and c.case == "p1"
    assert c.rank_r == 4

    c = cert.certify_beta_zero(empty_graph(3), -0.5)
    assert c.valid and c.case == "p1" and c.rank_r == 3


def test_beta_zero_threshold_case():
    # K2 at beta = -1 is the antipodal pair: lam = 1 is hit, rank drops to 1
    c = cert.certify_beta_zero(complete_graph(2), -1.0)
    assert c.valid and c.case == "p2"
    assert c.rank_r == 1


def test_beta_zero_failure_and_domain():
    c = cert.certify_beta_zero(complete_graph(3), -1.0)
    assert not c.valid
    assert c.failure_reason == "eigenvalue_above"
    with pytest.raises(ParameterDomain):
        cert.certify_beta_zero(complete_graph(2), 0.0)
    with pytest.raises(ParameterDomain):
        cert.certify_beta_zero(complete_graph(2), -1.5)


def test_beta_zero_exact_matches_float():
    rng = random.Random(13)
    for _ in range(30):
        G = rand_graph(rng, rng.randint(1, 6))
        cf = cert.certify_beta_zero(G, -0.5)
        ce = cert.certify_beta_zero(G, Fraction(-1, 2))
        assert ce.exact
        assert cf.valid == ce.valid, G
        if cf.valid:
            assert (cf.case, cf.rank_r) == (ce.case, ce.rank_r), G


# ---------------------------------------------------------------------------
# beta certificates, alpha > 0
# ---------------------------------------------------------------------------

def test_beta_case_one():
    P = cert.CodeParameters.make(0.5, -0.5)
    c = cert.certify_beta(empty_graph(3), P)
    assert c.valid and c.case == "one" and c.rank_r == 3


def test_beta_case_two():
    # K2 at (1/3,-1/3): lam = 1 equals the top adjacency eigenvalue;
    # lam I - A is singular psd of rank 1, realization rank 2
    P = cert.CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    c = cert.certify_beta(complete_graph(2), P)
    assert c.exact
    assert c.valid and c.case == "two" and c.rank_r == 2

    cf = cert.certify_beta(complete_graph(2),
                           cert.CodeParameters.make(1.0 / 3.0, -1.0 / 3.0))
    assert cf.valid and cf.case == "two" and cf.rank_r == 2


def test_beta_case_three_equality():
    # K2 + K1 at alpha = 1/sqrt 2, beta = 0: one negative eigenvalue,
    # q = 2/(lam-1) + 1/lam = -1 equals the bound, rank drops to 2
    P = cert.CodeParameters.make(math.sqrt(0.5), 0.0)
    G = disjoint_union([complete_graph(2), complete_graph(1)])
    c = cert.certify_beta(G, P)
    assert c.valid and c.case == "three"
    assert abs(c.quadform + 1.0) <= 1e-9
    assert c.equality_case
    assert c.rank_r == 2


def test_beta_case_three_strict():
    # K2 at (1/2,-1/2): q = -4 stays below the bound -2
    P = cert.CodeParameters.make(Fraction(1, 2), Fraction(-1, 2))
    c = cert.certify_beta(complete_graph(2), P)
    assert c.exact
    assert c.valid and c.case == "three"
    assert c.quadform == Fraction(-4)
    assert not c.equality_case
    assert c.rank_r == 2


def test_beta_case_three_boundary_complete_graphs():
    # at (1/3,-1/3) the quadratic form of K_t is -t/(t-1): K4 hits the
    # bound -2 exactly, K5 overshoots and fails
    P = cert.CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    c = cert.certify_beta(complete_graph(4), P)
    assert c.valid and c.case == "three" and c.equality_case
    assert c.quadform == Fraction(-2)
    assert c.rank_r == 3

    c = cert.certify_beta(complete_graph(5), P)
    assert not c.valid
    assert c.failure_reason == "quadform_exceeds"
    assert c.quadform == Fraction(-5, 3)


def test_beta_failures():
    P = cert.CodeParameters.make(0.5, -0.5)
    G = disjoint_union([complete_graph(2), complete_graph(2)])
    c = cert.certify_beta(G, P)
    assert not c.valid and c.failure_reason == "negative_inertia"

    # K3 + K2 at lam = 1: kernel comes from the smaller component and is
    # not orthogonal to the all-ones vector
    P = cert.CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    G = disjoint_union([complete_graph(3), complete_graph(2)])
    c = cert.certify_beta(G, P)
    assert not c.valid and c.failure_reason == "j_not_in_range"

    with pytest.raises(ParameterDomain):
        cert.certify_beta(complete_graph(2),
                          cert.CodeParameters.make(0.0, -1.0))


def test_complement_beta_certificate_agrees_with_every_alpha_certificate():
    # a graph is the alpha-graph of a code exactly when its complement is
    # the beta-graph of the same code, with the same Gram matrix and rank;
    # exactly, the two certificates agree on every graph with n <= 7 at
    # the grid points with alpha > 0
    from twodist.graphs import emit_graph6, enumerate_graphs
    from twodist.search import RATIONAL_GRID

    points = [P for P in RATIONAL_GRID if P.alpha > 0]
    assert len(points) == 8
    valid = 0
    for n in range(1, 8):
        for G in enumerate_graphs(n):
            H = G.complement()
            for P in points:
                a, b = cert.certify_alpha(G, P), cert.certify_beta(H, P)
                assert a.exact and b.exact
                assert (a.valid, a.rank_r) == (b.valid, b.rank_r), (
                    emit_graph6(G), P.exact.alpha, P.exact.beta)
                valid += a.valid
    assert valid == 1192


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def test_realize_square():
    P = cert.CodeParameters.make(0.0, -1.0)
    code = cert.realize_from_alpha(cycle_graph(4), P)
    assert code.dim == 2 and code.size == 4
    rep = cert.verify_code(code.vectors, 0.0, -1.0)
    assert rep.valid
    assert cert.code_rank(code) == 2


def test_realize_pentagon():
    P = pentagon_parameters()
    code = cert.realize_from_alpha(cycle_graph(5), P)
    assert code.dim == 2 and code.size == 5
    rep = cert.verify_code(code.vectors, P.alpha, P.beta, tol=1e-8)
    assert rep.valid
    assert cert.code_rank(code) == 2
    # consecutive vectors are 72 degrees apart
    for i in range(5):
        v, w = code.vectors[i], code.vectors[(i + 1) % 5]
        assert abs(float(v @ w) - P.alpha) <= 1e-8


def test_realize_padding_and_guard():
    P = cert.CodeParameters.make(0.0, -1.0)
    code = cert.realize_from_alpha(cycle_graph(4), P, dim=4)
    assert code.dim == 4
    assert np.allclose(code.vectors[:, 2:], 0.0)
    assert cert.verify_code(code.vectors, 0.0, -1.0).valid
    with pytest.raises(ParameterDomain):
        cert.realize_from_alpha(cycle_graph(4), P, dim=1)


def test_realize_invalid_graph_raises():
    P = cert.CodeParameters.make(0.0, -1.0)
    with pytest.raises(CertificateInvalid):
        cert.realize_from_alpha(complete_bipartite(1, 5), P)


def test_realize_reuses_supplied_certificate(monkeypatch):
    P = cert.CodeParameters.make(Fraction(0), Fraction(-1))
    G = cycle_graph(4)
    c = cert.certify_alpha(G, P)
    expected = cert.realize_from_alpha(G, P).vectors

    def no_recertification(*args, **kwargs):
        raise AssertionError("the supplied certificate was not reused")

    monkeypatch.setattr(cert, "certify_alpha", no_recertification)
    assert np.array_equal(cert.realize_from_alpha(G, P, cert=c).vectors,
                          expected)
    invalid = dataclasses.replace(c, valid=False,
                                  failure_reason="j_not_in_range")
    with pytest.raises(CertificateInvalid, match="j_not_in_range"):
        cert.realize_from_alpha(G, P, cert=invalid)


def test_realize_from_beta_routes():
    # antipodal pair through the {0, beta} route
    P = cert.CodeParameters.make(0.0, -1.0)
    code = cert.realize_from_beta(complete_graph(2), P)
    assert code.dim == 1
    assert abs(float(code.vectors[0] @ code.vectors[1]) + 1.0) <= 1e-9

    # case-three equality example lands in the plane
    Q = cert.CodeParameters.make(math.sqrt(0.5), 0.0)
    G = disjoint_union([complete_graph(2), complete_graph(1)])
    code = cert.realize_from_beta(G, Q)
    assert code.dim == 2 and code.size == 3
    assert cert.verify_code(code.vectors, Q.alpha, Q.beta, tol=1e-8).valid
    assert cert.beta_graph(code) == G

    with pytest.raises(ParameterDomain):
        cert.realize_from_beta(complete_graph(2),
                               cert.CodeParameters.make(-0.25, -0.5))


def test_realized_rank_matches_certificate():
    P = cert.CodeParameters.make(0.0, -1.0)
    rng = random.Random(23)
    seen = 0
    for _ in range(40):
        G = rand_graph(rng, rng.randint(1, 6))
        c = cert.certify_alpha(G, P)
        if not c.valid:
            continue
        seen += 1
        code = cert.realize_from_alpha(G, P)
        assert code.dim == c.rank_r
        assert cert.code_rank(code) == c.rank_r
        assert cert.alpha_graph(code) == G
    assert seen >= 5


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------

def column_signed_factor(Gram, tol):
    # the Gram factor one column at a time: each eigenvector above the cut
    # signed so that its first entry above 1e-12 in absolute value is
    # positive, scaled by the root of its eigenvalue, rows normalized
    spec = reference.eigen_decompose(Gram, tol)
    cut = linalg.scaled_tol(Gram, tol)
    cols = []
    for value, vec in zip(spec.values, spec.vectors.T):
        if value > cut:
            lead = next((x for x in vec if abs(x) > 1e-12), 1.0)
            cols.append(math.sqrt(value) * (-vec if lead < 0 else vec))
    U = np.column_stack(cols)
    return U / np.linalg.norm(U, axis=1)[:, None]


def test_realized_vectors_match_the_column_by_column_factor():
    # the Gram matrix written from the bitmasks and the vectorized sign
    # rule give the vectors of numpy's Gram and the per-column rule, bit
    # for bit, on every valid (graph, grid point) up to n = 6
    from twodist.graphs import enumerate_graphs
    from twodist.search import BETA_GRID, RATIONAL_GRID

    graphs = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    checked = 0
    for route, grid in (("alpha", RATIONAL_GRID), ("beta", BETA_GRID)):
        for P in grid:
            Q = cert.CodeParameters.make(P.alpha, P.beta)
            a, b = Q.alpha, Q.beta
            for G in graphs:
                A = np.zeros((G.n, G.n))
                for u, v in G.edges():
                    A[u, v] = A[v, u] = 1.0
                J = np.ones((G.n, G.n))
                if route == "alpha":
                    if not cert.certify_alpha(G, Q).valid:
                        continue
                    code = cert.realize_from_alpha(G, Q)
                    Gram = (a - b) * (A + Q.mu * np.eye(G.n)) + b * J
                else:
                    if not cert.certify_beta(G, Q).valid:
                        continue
                    code = cert.realize_from_beta(G, Q)
                    Gram = (a - b) * (Q.lam * np.eye(G.n) - A) + a * J
                ref = column_signed_factor(Gram, linalg.DEFAULT_TOL)
                assert code.vectors.tobytes() == ref.tobytes(), (route, G)
                checked += 1
    assert checked > 600


def reference_realization(G, P, route, rank_r):
    # the single factorization of the Gram matrix written in two passes
    return reference.factor_gram(reference.gram_matrix(G, P, route), rank_r,
                                 linalg.DEFAULT_TOL)


def assert_same_factor(U, ref, what):
    # byte for byte, and in the layout of the single factorization, so
    # every later pair product sees the same strides
    assert U.tobytes() == ref.tobytes(), what
    assert U.shape == ref.shape, what
    assert U.flags.f_contiguous == ref.flags.f_contiguous, what


def valid_items(graphs, P, route):
    if route == "alpha":
        certify = cert.certify_alpha
    elif P.alpha > 0:
        certify = cert.certify_beta
    else:
        certify = lambda G, P: cert.certify_beta_zero(G, (P.exact or P).beta)
    items = []
    for G in graphs:
        c = certify(G, P)
        if c.valid:
            items.append((G, P, c.rank_r))
    return items


def test_stacked_realization_matches_the_single_factorization():
    # one stack per (route, point, order) over every valid graph with
    # n <= 6, at the rational grids, their float values and the pentagon
    # point: the Gram matrix written in one Graph.matrix call, each slice
    # and the stack of one that realize_from_* runs give the vectors of
    # the single factorization (reference.factor_gram), bit for bit; the
    # beta route also runs at alpha = -0.0, whose off-edge Gram entry is
    # (a-b) * 0.0 + a = +0.0, not a bare -0.0
    from twodist.graphs import enumerate_graphs
    from twodist.search import BETA_GRID, RATIONAL_GRID

    by_order = [list(enumerate_graphs(n)) for n in range(1, 7)]
    floats = lambda grid: [cert.CodeParameters.make(P.alpha, P.beta)
                           for P in grid]
    extra = {"alpha": [], "beta": [cert.CodeParameters.make(-0.0, -0.5)]}
    checked = 0
    for route, grid in (("alpha", RATIONAL_GRID), ("beta", BETA_GRID)):
        single = (cert.realize_from_alpha if route == "alpha"
                  else cert.realize_from_beta)
        for P in (list(grid) + floats(grid) + [pentagon_parameters()]
                  + extra[route]):
            for graphs in by_order:
                items = valid_items(graphs, P, route)
                if not items:
                    continue
                codes = cert.realize_stack(items, route)
                for (G, _, r), code in zip(items, codes):
                    what = (route, P.alpha, P.beta, G)
                    assert (cert._gram(G, P, route).tobytes()
                            == reference.gram_matrix(G, P, route).tobytes())
                    ref = reference_realization(G, P, route, r)
                    assert_same_factor(code.vectors, ref, what)
                    assert_same_factor(single(G, P).vectors, ref, what)
                    checked += 1
    assert checked > 2000


def test_stacked_realization_matches_at_high_rank():
    # random graphs up to n = 12: from rank 8 on, the row norms of a
    # C-ordered factor would sum their squares pairwise, not one column
    # at a time, and change the last bits
    rng = random.Random(41)
    from twodist.search import RATIONAL_GRID

    points = list(RATIONAL_GRID) + [pentagon_parameters()]
    high = full = 0
    for n in range(7, 13):
        for P in points:
            graphs = [rand_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
                      for _ in range(12)]
            items = valid_items(graphs, P, "alpha")
            if not items:
                continue
            for (G, _, r), code in zip(items,
                                       cert.realize_stack(items, "alpha")):
                ref = reference_realization(G, P, "alpha", r)
                assert_same_factor(code.vectors, ref, (P.alpha, P.beta, G))
                high += r >= 8
                full += n >= 8 and r == n
    assert high >= 20 and full >= 20


def test_stacks_of_one_two_and_many_slices_agree():
    # every slice's factor is its own, whatever the stack it rides in and
    # the ranks of its neighbours
    from twodist.graphs import enumerate_graphs
    from twodist.search import RATIONAL_GRID

    graphs = list(enumerate_graphs(5))
    items = [it for P in RATIONAL_GRID for it in valid_items(graphs, P,
                                                             "alpha")]
    assert len({r for _, _, r in items}) >= 3
    refs = [reference_realization(G, P, "alpha", r) for G, P, r in items]
    grams = np.stack([cert._gram(G, P, "alpha") for G, P, _ in items])
    ranks = [r for _, _, r in items]
    for k in (1, 2, len(items)):
        for lo in range(0, len(items), k):
            hi = min(lo + k, len(items))
            factors = cert._factor_stack(grams[lo:hi], ranks[lo:hi],
                                         linalg.DEFAULT_TOL)
            codes = cert.realize_stack(items[lo:hi], "alpha")
            for U, code, ref in zip(factors, codes, refs[lo:hi]):
                assert_same_factor(U, ref, k)
                assert_same_factor(code.vectors, ref, k)


def test_failing_slices_raise_the_single_factorization_errors():
    # each slice is judged at its own cut: a matrix of norm 1e10 drifts
    # off the sphere, an indefinite one leaves a residual at its rank,
    # and a Gram matrix beside them still factors bit for bit
    P = cert.CodeParameters.make(Fraction(0), Fraction(-1))
    G = path_graph(2)
    c = cert.certify_alpha(G, P)
    grams = [1e10 * np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
             cert._gram(G, P, "alpha")]
    ranks = [2, 1, c.rank_r]
    out = cert._factor_stack(np.stack(grams), ranks, linalg.DEFAULT_TOL)
    for U, M, r in zip(out, grams, ranks):
        try:
            ref = reference.factor_gram(M, r, linalg.DEFAULT_TOL)
        except ReconstructionResidual as exc:
            assert isinstance(U, ReconstructionResidual)
            assert str(U) == str(exc)
        else:
            assert_same_factor(U, ref, r)
    assert [str(U) for U in out[:2]] == [
        "realized vectors drift off the sphere",
        "reconstruction residual 0.5"]


def test_realize_stack_raises_program_errors(monkeypatch):
    # only the errors of a failed round trip are returned per slice
    P = cert.CodeParameters.make(Fraction(0), Fraction(-1))

    def broken(code, tol):
        raise TypeError("a programming error")

    monkeypatch.setattr(cert, "alpha_graph", broken)
    with pytest.raises(TypeError, match="a programming error"):
        cert.realize_stack([(cycle_graph(4), P, 2)], "alpha")


def test_a_failing_slice_leaves_the_others_alone():
    # a slice whose certificate claims one rank too many raises the
    # single factorization's message; its neighbours keep their bits
    from twodist.graphs import enumerate_graphs

    P = cert.CodeParameters.make(Fraction(1, 4), Fraction(-1, 2))
    items = valid_items(enumerate_graphs(4), P, "alpha")
    assert len(items) >= 4 and len({r for _, _, r in items}) >= 2
    G, Q, r = items[1]
    bad = list(items)
    bad[1] = (G, Q, r + 1)
    with pytest.raises(ReconstructionResidual) as single:
        reference_realization(G, Q, "alpha", r + 1)
    out = cert.realize_stack(bad, "alpha")
    assert isinstance(out[1], ReconstructionResidual)
    assert str(out[1]) == str(single.value)
    assert "certificate says %d" % (r + 1) in str(out[1])
    for i in [0] + list(range(2, len(items))):
        H, _, s = items[i]
        assert_same_factor(out[i].vectors,
                           reference_realization(H, P, "alpha", s), i)
    wrong = dataclasses.replace(cert.certify_alpha(G, P), rank_r=r + 1)
    with pytest.raises(ReconstructionResidual, match=str(single.value)):
        cert.realize_from_alpha(G, P, cert=wrong)
    with pytest.raises(ValueError):
        cert.realize_stack(items[:1] + [(complete_graph(5), P, 5)], "alpha")


def test_code_json_round_trip_is_byte_stable():
    P = pentagon_parameters()
    code = cert.realize_from_alpha(cycle_graph(5), P)
    text = cert.dumps_code(code)
    back = cert.loads_code(text)
    assert cert.dumps_code(back) == text
    assert back.dim == code.dim
    assert np.array_equal(back.vectors, code.vectors)
    assert back.alpha == code.alpha and back.beta == code.beta


def test_code_json_files(tmp_path):
    P = cert.CodeParameters.make(0.0, -1.0)
    code = cert.realize_from_alpha(cycle_graph(4), P)
    path = tmp_path / "square.json"
    cert.save_code(code, path)
    back = cert.load_code(path)
    assert cert.alpha_graph(back) == cycle_graph(4)


def test_code_json_tolerates_extra_fields_and_checks_required():
    text = ('{"alpha": 0, "beta": -1, "dim": 1, '
            '"vectors": [[1.0], [-1.0]], "note": "ignored"}')
    code = cert.loads_code(text)
    assert code.size == 2
    with pytest.raises(ValueError):
        cert.loads_code('{"alpha": 0, "beta": -1, "dim": 1}')


def test_seventeen_digit_round_trip():
    # parameters with no short decimal form survive the text round trip
    P = pentagon_parameters()
    code = cert.realize_from_alpha(cycle_graph(5), P)
    back = cert.loads_code(cert.dumps_code(code))
    assert back.alpha == P.alpha and back.beta == P.beta


# ---------------------------------------------------------------------------
# pinned decisions
# ---------------------------------------------------------------------------

BETA_ZERO_GRID = (Fraction(-1), Fraction(-1, 2), Fraction(-1, 3))

# fields that do not depend on the last bits of a float spectrum
DECISION_FIELDS = ("valid", "case", "rank_r", "equality_case",
                   "failure_reason", "exact")


def certificate_rows(exact: bool):
    """One line per (route, parameter point, graph) for every n <= 6.

    Exact rows hold the repr of every certificate field; float rows, at
    the same points as floats, only the DECISION_FIELDS.
    """
    from twodist.graphs import emit_graph6, enumerate_graphs
    from twodist.search import BETA_GRID, RATIONAL_GRID

    def point(P):
        if exact:
            return P, "%s,%s" % (P.exact.alpha, P.exact.beta)
        return cert.CodeParameters.make(P.alpha, P.beta), "%r,%r" % (
            P.alpha, P.beta)

    def fields(c):
        if exact:
            return tuple(repr(getattr(c, f.name))
                         for f in dataclasses.fields(c))
        return tuple(repr(getattr(c, name, None)) for name in DECISION_FIELDS)

    graphs = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    for route, grid, certify in (
            ("alpha", RATIONAL_GRID, cert.certify_alpha),
            ("beta", BETA_GRID, cert.certify_beta)):
        for P in grid:
            Q, label = point(P)
            for G in graphs:
                yield "%s %s %s %s" % (route, label, emit_graph6(G),
                                       " ".join(fields(certify(G, Q))))
    for b in BETA_ZERO_GRID:
        beta = b if exact else float(b)
        for G in graphs:
            yield "beta_zero %r %s %s" % (
                beta, emit_graph6(G),
                " ".join(fields(cert.certify_beta_zero(G, beta))))


@pytest.mark.parametrize("exact, digest", [
    (True,
     "3e8438d1f9a3eaef667d2222903d20366991d9ecd925dff384f99244093b8308"),
    (False,
     "25a37e4c40891d4af4721417341e43508faa6942bc1bc4c648f693533bc9b91f"),
], ids=("exact", "float"))
def test_certificate_golden_digest(exact, digest):
    # 208 graphs x (15 alpha + 12 beta + 3 {0, beta} points)
    rows = list(certificate_rows(exact))
    assert len(rows) == 6240
    text = "".join(row + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_shifted_graph_matches_rational_reference():
    # the integer matrix written from the bitmasks gives the same facts,
    # field by field, as the rational front end on rational_shift
    from twodist.graphs import enumerate_graphs
    from twodist.search import RATIONAL_GRID

    graphs = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    compared = 0
    for P in RATIONAL_GRID:
        for shift, sign in ((P.exact.mu, +1), (P.exact.lam, -1)):
            for G in graphs:
                k = cert.shifted_graph(G, shift, sign)
                ref = linalg.shifted_exact(rational_shift(G, shift, sign))
                assert k == ref, (G, shift, sign)
                assert type(k.quadform) is type(ref.quadform)
                assert type(k.cut) is type(ref.cut)
                compared += 1
    assert compared == 208 * 15 * 2


def test_shifted_principal_is_shifted_graph_of_the_induced_subgraph():
    # each mask's facts are those of the induced subgraph's own matrix:
    # equal Shifted for Fractions, every field bit for bit for floats,
    # at both signs, in the order of the masks
    from twodist.search import RATIONAL_GRID

    rng = random.Random(47)
    exact = [x for P in RATIONAL_GRID for x in (P.exact.mu, P.exact.lam)]
    golden = (1 + math.sqrt(5)) / 2
    shifts = exact + [float(x) for x in exact[::4]] + [golden]
    cases = []
    for _ in range(30):
        n = rng.randint(1, 11)
        G = rand_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 9))]
        masks += [(1 << n) - 1, 1 << rng.randrange(n)]
        cases += [(G, masks, shift, sign) for shift in shifts
                  for sign in (+1, -1)]
    # knife edges: a wheel's rim C4 at shift 2 and C5 at the golden
    # shift is singular with j in its range, and every rim vertex has a
    # neighbor, the hub, outside the mask
    for m, shift in ((4, Fraction(2)), (5, golden)):
        wheel = Graph(m + 1, [(i, (i + 1) % m) for i in range(m)]
                      + [(i, m) for i in range(m)])
        cases.append((wheel, [(1 << m) - 1], shift, +1))
    singular = 0
    for G, masks, shift, sign in cases:
        ks = cert.shifted_principal(G, shift, sign, masks)
        assert len(ks) == len(masks)
        for k, S in zip(ks, masks):
            H = induced_subgraph(G, [v for v in range(G.n) if S >> v & 1])
            ref = cert.shifted_graph(H, shift, sign)
            singular += ref.rank < H.n and ref.quadform is not None
            if ref.values is None:
                assert k == ref
                continue
            assert k.values.tobytes() == ref.values.tobytes()
            assert (k.inertia, k.rank, k.quadform, k.cut) == (
                ref.inertia, ref.rank, ref.quadform, ref.cut)
    assert singular >= 2


def labelled_graphs_up_to_order_3():
    """Every labelled graph on 1, 2 or 3 vertices: 1 + 2 + 8 of them."""
    out = []
    for m in (1, 2, 3):
        pairs = list(itertools.combinations(range(m), 2))
        for r in range(len(pairs) + 1):
            out += [Graph(m, list(edges))
                    for edges in itertools.combinations(pairs, r)]
    return out


def test_small_parts_are_shifted_graph_of_every_labelled_graph():
    # every mask of order <= 3 reads the table of its shift: the facts of
    # each of the 11 labelled graphs, on its own vertices and as a mask
    # spread over a larger graph, are shifted_graph's of that graph, equal
    # for Fractions and bit for bit for floats, at both signs
    from twodist.search import RATIONAL_GRID

    exact = [x for P in RATIONAL_GRID for x in (P.exact.mu, P.exact.lam)]
    shifts = exact + [float(x) for x in exact] + [(1 + math.sqrt(5)) / 2]
    graphs = labelled_graphs_up_to_order_3()
    assert len(graphs) == 11
    rng = random.Random(53)
    compared = 0
    for H in graphs:
        # H on the vertices 1, 3, 4 (or the first of them) of a graph on
        # 6, with random edges elsewhere
        spots = [1, 3, 4][:H.n]
        big = rand_graph(rng, 6)
        edges = [(u, v) for u, v in itertools.combinations(range(6), 2)
                 if big.rows[u] >> v & 1 and not (u in spots and v in spots)]
        edges += [(spots[u], spots[v]) for u in range(H.n)
                  for v in range(u + 1, H.n) if H.rows[u] >> v & 1]
        G = Graph(6, edges)
        mask = sum(1 << v for v in spots)
        assert induced_subgraph(G, spots) == H
        for shift in shifts:
            for sign in (+1, -1):
                ref = cert.shifted_graph(H, shift, sign)
                for k in (cert.shifted_principal(H, shift, sign,
                                                 [(1 << H.n) - 1])[0],
                          cert.shifted_principal(G, shift, sign, [mask])[0]):
                    compared += 1
                    if ref.values is None:
                        assert k == ref
                        assert type(k.quadform) is type(ref.quadform)
                        continue
                    assert k.values.tobytes() == ref.values.tobytes()
                    assert (k.inertia, k.rank, k.quadform, k.cut) == (
                        ref.inertia, ref.rank, ref.quadform, ref.cut)
    assert compared == 11 * len(shifts) * 2 * 2


@pytest.mark.parametrize("first", [0, 1, 2])
def test_equal_shifts_of_each_arithmetic_get_their_own_table(first):
    # Fraction(2), 2 and 2.0 are equal and hash alike; each reads its own
    # table of its own arithmetic, whichever is read first, and a numpy
    # scalar shift runs the float kernel as an int does
    shifts = [Fraction(2), 2, 2.0]
    shifts = shifts[first:] + shifts[:first]
    G = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cert._small_parts.cache_clear()
    facts = {type(x): cert.shifted_principal(G, x, +1, [1, 3, 7])
             for x in shifts}
    for k in facts[Fraction]:
        assert k.values is None and k.cut == 0
    assert type(facts[Fraction][2].quadform) is Fraction
    for kind in (int, float):
        for k in facts[kind]:
            assert type(k.values) is np.ndarray and type(k.cut) is float
    assert all(a is not b for a, b in zip(facts[int], facts[float]))
    assert [k.values.tobytes() for k in facts[int]] == [
        k.values.tobytes() for k in facts[float]]
    assert cert._small_parts.cache_info().currsize == 3
    assert not cert._exact_shift(np.float64(2.0))
    assert not cert._exact_shift(np.int64(2))
    assert cert._exact_shift(Fraction(2))
    k = cert.shifted_principal(G, np.float64(2.0), +1, [3])[0]
    assert k.values.tobytes() == facts[float][1].values.tobytes()
    # the table is shared: the same pattern reads the same entry
    assert cert.shifted_principal(G, 2.0, +1, [12])[0] is facts[float][1]


def test_cached_float_values_are_read_only():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for k in cert.shifted_principal(G, 1.5, -1, [1, 3, 7, 21]):
        with pytest.raises(ValueError, match="read-only"):
            k.values[0] = 0.0


@pytest.mark.parametrize("mask", [0, 1 << 4, -1, 31])
def test_shifted_principal_rejects_an_empty_or_foreign_mask(mask):
    with pytest.raises(ValueError, match="vertex mask"):
        cert.shifted_principal(cycle_graph(4), 2.0, +1, [1, mask])



def capped_points(exact: bool) -> list:
    """The parameter points of the capped-certificate comparison: the
    RATIONAL_GRID and BETA_GRID points as Fractions, or else as floats,
    the pentagon point and the grid floats with alpha moved by +-2e-9
    and +-4e-9."""
    from twodist.search import BETA_GRID, RATIONAL_GRID

    grid = RATIONAL_GRID + BETA_GRID
    if exact:
        return list(grid)
    return ([cert.CodeParameters.make(P.alpha + eps, P.beta)
             for P in grid for eps in (0.0, -4e-9, -2e-9, 2e-9, 4e-9)]
            + [pentagon_parameters()])


@pytest.mark.parametrize("exact, n_max", [(True, 7), (False, 6)])
def test_capped_certificates_match_the_uncapped_bodies(exact, n_max):
    # each certificate stops its kernel once the negative count decides
    # the verdict; every field, types and bits included (repr), must be
    # that of the body that ran the whole kernel, valid or not, decided
    # by the cap or not.  Floats stop at n = 6 to keep the suite quick;
    # the same comparison passes on floats at n = 7 as well.
    from twodist.graphs import enumerate_graphs

    graphs = [G for n in range(1, n_max + 1) for G in enumerate_graphs(n)]
    decided = dict.fromkeys(("alpha", "beta", "beta_zero"), 0)
    for P in capped_points(exact):
        routes = []
        if P.beta < 0:
            routes.append(("alpha", cert.certify_alpha,
                           reference.certify_alpha, P))
        if P.alpha > 0:
            routes.append(("beta", cert.certify_beta, reference.certify_beta,
                           P))
        if P.alpha == 0:
            routes.append(("beta_zero", cert.certify_beta_zero,
                           reference.certify_beta_zero, (P.exact or P).beta))
        for name, new, old, arg in routes:
            for G in graphs:
                got, want = new(G, arg), old(G, arg)
                assert repr(got) == repr(want), (name, G, arg)
                decided[name] += want.failure_reason in (
                    "eigenvalue_below", "eigenvalue_above",
                    "negative_inertia")
    assert all(decided.values()), decided
