"""Unit tests for the symmetric-matrix core.

Expected spectra come from closed forms (circulant eigenvalues) and, for
random instances, from numpy's independent eigensolver, never from the
module under test.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference
from twodist import linalg
from twodist.errors import AmbiguousCase
from twodist.graphs import (check_eigenvalue_floor, enumerate_graphs,
                            is_connected)

GOLDEN = (1 + math.sqrt(5)) / 2


def cycle_adjacency(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = 1
        A[(i + 1) % n, i] = 1
    return A


def cycle_eigenvalues(n):
    # closed form for circulant adjacency: 2 cos(2 pi k / n)
    return sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)),
                  reverse=True)


def random_symmetric(rng, n, scale=2.0):
    A = np.array([[rng.uniform(-scale, scale) for _ in range(n)]
                  for _ in range(n)])
    return (A + A.T) / 2


def test_eigen_c4_matches_closed_form():
    spec = reference.eigen_decompose(cycle_adjacency(4))
    assert np.allclose(spec.values, [2.0, 0.0, 0.0, -2.0], atol=1e-12)


def test_eigen_c5_matches_closed_form():
    spec = reference.eigen_decompose(cycle_adjacency(5))
    expected = cycle_eigenvalues(5)
    assert np.allclose(spec.values, expected, atol=1e-12)
    # smallest eigenvalue is -golden ratio
    assert abs(spec.values[-1] + GOLDEN) < 1e-12


def test_eigen_residual_and_orthogonality():
    rng = random.Random(811)
    for _ in range(50):
        n = rng.randint(1, 8)
        M = random_symmetric(rng, n)
        spec = reference.eigen_decompose(M)
        scale = max(1.0, float(np.max(np.abs(M))))
        for i in range(n):
            resid = M @ spec.vectors[:, i] - spec.values[i] * spec.vectors[:, i]
            assert np.linalg.norm(resid) <= 1e-9 * scale
        assert np.allclose(spec.vectors.T @ spec.vectors, np.eye(n), atol=1e-12)
        assert np.allclose(sorted(spec.values), np.linalg.eigvalsh(M), atol=1e-9)


def test_eigen_values_descending():
    rng = random.Random(23)
    for _ in range(20):
        M = random_symmetric(rng, rng.randint(2, 7))
        vals = reference.eigen_decompose(M).values
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_inertia_diagonal():
    assert linalg.inertia(np.diag([2.0, -3.0, 0.0])) == (1, 1, 1)


def test_inertia_c4_shifted():
    # eigenvalues of A(C4) + 2I are 4, 2, 2, 0
    M = cycle_adjacency(4) + 2 * np.eye(4)
    assert linalg.inertia(M) == (3, 0, 1)
    assert reference.rank_sym(M) == 3


def test_rank_all_ones():
    assert reference.rank_sym(np.ones((3, 3))) == 1


def test_rank_c5_at_golden_shift():
    # -golden is an eigenvalue of C5 with multiplicity 2
    M = cycle_adjacency(5) + GOLDEN * np.eye(5)
    assert reference.rank_sym(M) == 3


def test_in_range_diagonal():
    # j = (1, 1) has a kernel component for diag(1, 0), none for diag(1, 2)
    assert reference.shifted(np.diag([1.0, 0.0])).quadform is None
    assert linalg.shifted_exact([[1, 0], [0, 0]]).quadform is None
    assert abs(reference.shifted(np.diag([1.0, 2.0])).quadform
               - 1.5) < 1e-12
    assert linalg.shifted_exact([[1, 0], [0, 2]]).quadform == Fraction(3, 2)


def test_in_range_c4():
    # j is an eigenvector of A(C4) for 2: in the range of A + 2I, in the
    # kernel of A - 2I
    A = cycle_adjacency(4)
    assert abs(reference.shifted(A + 2 * np.eye(4)).quadform
               - 1.0) < 1e-12
    assert reference.shifted(A - 2 * np.eye(4)).quadform is None


def test_solve_in_range_c4():
    # shifted_exact with a vector v on A(C4) + 2I (eigenvalues 4 on j, 2
    # on (1, 0, -1, 0) and (0, 1, 0, -1), 0 on (1, -1, 1, -1)): v = j
    # solves by x = j/4; v = (1, 1, 0, 0) splits into j/2 and
    # (1, 1, -1, -1)/2, so v^T M^# v = 1/4 + 1/2; v = (1, 0, 1, 0) meets
    # the kernel
    M = [[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]]
    assert linalg.shifted_exact(M, [1, 1, 1, 1]).quadform == 1
    assert linalg.shifted_exact(M, [1, 1, 0, 0]).quadform == Fraction(3, 4)
    assert linalg.shifted_exact(M, [1, -1, 1, -1]).quadform is None
    assert linalg.shifted_exact(M, [1, 0, 1, 0]).quadform is None


def test_shifted_reads_one_spectrum():
    # A(C4) + 2I: eigenvalues 4, 2, 2, 0 with kernel (1,-1,1,-1); j is
    # an eigenvector for 4, so j^T M^# j = |j|^2 / 4 = 1
    k = reference.shifted(cycle_adjacency(4) + 2 * np.eye(4))
    assert np.allclose(k.values, [4.0, 2.0, 2.0, 0.0], atol=1e-12)
    assert k.inertia == (3, 0, 1) and k.rank == 3
    assert abs(k.quadform - 1.0) < 1e-12
    # diag(1, 0): j has a kernel component, so no quadratic form
    k = reference.shifted(np.diag([1.0, 0.0]))
    assert k.inertia == (1, 0, 1) and k.rank == 1 and k.quadform is None
    # diag(2, -1): indefinite, invertible, j^T M^-1 j = 1/2 - 1
    k = reference.shifted(np.diag([2.0, -1.0]))
    assert k.inertia == (1, 1, 0) and k.rank == 2
    assert abs(k.quadform + 0.5) < 1e-12


def test_quadform_independent_of_solution():
    M = cycle_adjacency(4) + 2 * np.eye(4)
    v = np.ones(4)
    q = reference.shifted(M).quadform
    assert abs(q - 1.0) < 1e-12
    # shifting a solution of M x = v along the kernel leaves v.x unchanged
    x = np.full(4, 0.25) + 3.7 * np.array([1.0, -1.0, 1.0, -1.0])
    assert np.allclose(M @ x, v, atol=1e-12)
    assert abs(float(v @ x) - q) < 1e-9
    # and numpy's pseudoinverse, the group inverse of symmetric M, agrees
    assert abs(float(v @ np.linalg.pinv(M) @ v) - q) < 1e-9


def test_rank_one_update_worked_cases():
    # boundary case: unit update of the identity exactly cancels a direction
    res, case = linalg.rank_one_update_inertia(
        np.eye(2), np.array([1.0, 0.0]), -1.0)
    assert case == 4 and res == (1, 0, 1)
    # update outside the column space adds a negative eigenvalue
    res, case = linalg.rank_one_update_inertia(
        np.diag([1.0, 0.0]), np.array([0.0, 1.0]), -2.0)
    assert case == 1 and res == (1, 1, 0)
    # s < -1 swaps a positive eigenvalue for a negative one
    res, case = linalg.rank_one_update_inertia(
        np.diag([1.0, 0.0]), np.array([1.0, 0.0]), -2.0)
    assert case == 3 and res == (0, 1, 1)
    # positive update outside the column space adds a positive eigenvalue
    res, case = linalg.rank_one_update_inertia(
        np.diag([-1.0, 0.0]), np.array([0.0, 1.0]), 2.0)
    assert case == 1 and res == (1, 1, 0)
    # small perturbation leaves the inertia alone
    res, case = linalg.rank_one_update_inertia(
        np.eye(2), np.array([1.0, 0.0]), -0.5)
    assert case == 2 and res == (2, 0, 0)


def test_rank_one_update_random_agrees_with_direct():
    rng = random.Random(440)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            M = random_symmetric(rng, n)
        else:
            r = rng.randint(0, n)
            B = np.array([[rng.uniform(-1, 1) for _ in range(max(r, 1))]
                          for _ in range(n)])
            M = B @ B.T if r else np.zeros((n, n))
        if rng.random() < 0.5:
            u = M @ np.array([rng.uniform(-1, 1) for _ in range(n)])
        else:
            u = np.array([rng.uniform(-1, 1) for _ in range(n)])
        c = rng.choice([-1, 1]) * rng.uniform(0.1, 3.0)
        try:
            res, case = linalg.rank_one_update_inertia(M, u, c)
        except AmbiguousCase:
            continue
        expected = np.linalg.eigvalsh(M + c * np.outer(u, u))
        cut = linalg.scaled_tol(M + c * np.outer(u, u))
        oracle = (int(np.sum(expected > cut)), int(np.sum(expected < -cut)))
        assert (res.pos, res.neg) == oracle
        checked += 1
    assert checked >= 90


def test_shifted_exact_basic():
    k = linalg.shifted_exact([[Fraction(2), Fraction(1)],
                              [Fraction(1), Fraction(2)]])
    assert k.rank == 2 and k.inertia.neg == 0
    assert k.inertia == (2, 0, 0)
    # j^T M^{-1} j with M^{-1} = [[2, -1], [-1, 2]] / 3
    assert k.quadform == Fraction(2, 3)
    assert k.values is None


def test_shifted_exact_c4_shift():
    A = [[Fraction(int(x)) for x in row] for row in cycle_adjacency(4)]
    for i in range(4):
        A[i][i] = Fraction(2)
    k = linalg.shifted_exact(A)
    assert k.rank == 3 and k.inertia.neg == 0
    assert k.inertia == (3, 0, 1)
    # A x = j has the solution x = j / 4, so j^T A^# j = 1
    assert k.quadform == 1
    assert linalg.shifted_exact(A, [1, -1, 1, -1]).quadform is None


def test_shifted_exact_zero_diagonal_block():
    k = linalg.shifted_exact([[0, 1], [1, 0]])
    assert k.inertia.neg
    assert k.inertia == (1, 1, 0) and k.rank == 2
    assert k.quadform == 2


def test_shifted_exact_zero_matrix():
    k = linalg.shifted_exact([[0, 0], [0, 0]])
    assert k.rank == 0 and k.inertia.neg == 0
    assert k.inertia == (0, 0, 2)
    assert k.quadform is None
    assert linalg.shifted_exact([[0, 0], [0, 0]], [0, 0]).quadform == 0


def test_shifted_exact_indefinite():
    k = linalg.shifted_exact([[1, 0], [0, -1]])
    assert k.inertia.neg
    assert k.inertia == (1, 1, 0)
    assert k.quadform == 0


def test_shifted_exact_rejects_asymmetric_or_ragged():
    with pytest.raises(ValueError):
        linalg.shifted_exact([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        linalg.shifted_exact([[1, 0], [0]])
    with pytest.raises(ValueError):
        linalg.shifted_exact([[1, 0], [0, 1]], [1])


def test_exact_and_float_inertia_agree():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 6)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                M[j][i] = M[i][j]
        exact = linalg.shifted_exact(M).inertia
        approx = linalg.inertia(np.array([[float(x) for x in row]
                                          for row in M]))
        assert exact == approx


def _random_rational_symmetric(rng, n, kind):
    """Dense, low-rank indefinite, or zero-diagonal rational symmetric."""
    if kind == "low_rank":
        M = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(rng.randint(0, n - 1)):
            u = [rng.randint(-2, 2) for _ in range(n)]
            c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
            for i in range(n):
                for j in range(n):
                    M[i][j] += c * u[i] * u[j]
        return M
    M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        for j in range(i):
            M[j][i] = M[i][j]
        if kind == "zero_diagonal":
            M[i][i] = Fraction(0)
    return M


def test_shifted_exact_matches_float_kernel():
    # v^T M^# v, the range test and the inertia are invariant under the
    # congruence D^-1 M D^-1 with D = diag(v), which turns the border v
    # into j: the float kernel on that matrix is an independent reference
    rng = random.Random(2024)
    seen = {"in_range": 0, "out_of_range": 0, "zero_diagonal": 0}
    for trial in range(400):
        n = rng.randint(1, 7)
        kind = ("dense", "low_rank", "zero_diagonal")[trial % 3]
        M = _random_rational_symmetric(rng, n, kind)
        v = None
        if trial % 2:
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(n)]
            v = [sum(M[i][j] * y[j] for j in range(n)) for i in range(n)]
            if not all(v):
                v = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
                     for _ in range(n)]
        k = linalg.shifted_exact(M, v)
        d = [1.0] * n if v is None else [float(x) for x in v]
        S = np.array([[float(M[i][j]) / (d[i] * d[j]) for j in range(n)]
                      for i in range(n)])
        ref = reference.shifted(S)
        assert k.inertia == ref.inertia, (M, v)
        assert k.rank == ref.rank
        assert (k.quadform is None) == (ref.quadform is None), (M, v)
        if k.quadform is not None:
            assert abs(float(k.quadform) - ref.quadform) <= 1e-9 * max(
                1.0, abs(ref.quadform)), (M, v)
        seen["in_range" if k.quadform is not None else "out_of_range"] += 1
        seen["zero_diagonal"] += kind == "zero_diagonal" and k.rank > 0
    assert min(seen.values()) >= 50, seen


def test_solve_rational_inconsistent():
    assert linalg.shifted_exact([[1, 0], [0, 0]], [0, 1]).quadform is None


def test_rank_one_update_exact():
    res, case = linalg.rank_one_update_inertia(
        [[1, 0], [0, 1]], [1, 0], Fraction(-1))
    assert case == 4 and res == (1, 0, 1)
    res, case = linalg.rank_one_update_inertia(
        [[1, 0], [0, 0]], [1, 0], -2)
    assert case == 3 and res == (0, 1, 1)
    # M = 1e-12 sits inside the float cut, so floats cannot decide this
    # update; int and Fraction inputs take the exact kernel and see s < -1
    M, c = [[Fraction(1, 10**12)]], -Fraction(10**12 + 1, 10**24)
    assert linalg.rank_one_update_inertia(M, [1], c) == ((0, 1, 0), 3)
    with pytest.raises(AmbiguousCase):
        linalg.rank_one_update_inertia(
            np.array([[1e-12]]), np.array([1.0]), float(c))


def test_rank_one_update_both_arithmetics_agree():
    # criterion 1's generator, each case run as float arrays and as
    # int / Fraction lists: the rational call decides every case, and
    # wherever the float call decides too, the two agree
    rng = np.random.default_rng(20240801)
    decided = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        M = rng.integers(-3, 4, size=(n, n)).astype(float)
        M = (M + M.T) / 2.0
        u = rng.integers(-2, 3, size=n).astype(float)
        while not u.any():
            u = rng.integers(-2, 3, size=n).astype(float)
        c = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        Mq = [[Fraction(x) for x in row] for row in M.tolist()]
        uq = [int(x) for x in u]
        cq = Fraction(c)
        exact = linalg.rank_one_update_inertia(Mq, uq, cq)
        updated = [[Mq[i][j] + cq * uq[i] * uq[j] for j in range(n)]
                   for i in range(n)]
        assert exact[0] == linalg.shifted_exact(updated).inertia
        try:
            floating = linalg.rank_one_update_inertia(M, u, c)
        except AmbiguousCase:
            continue
        assert floating == exact, (M, u, c)
        decided += 1
    assert decided >= 450


# ---------------------------------------------------------------------------
# the float core: validating front ends and trusted writers
# ---------------------------------------------------------------------------

def loop_adjacency(G):
    A = np.zeros((G.n, G.n))
    for u, v in G.edges():
        A[u, v] = A[v, u] = 1.0
    return A


def grid_shifts():
    # the 15 grid mu and lam values as floats, and the pentagon's mu, lam
    from twodist.certificates import CodeParameters
    from twodist.search import RATIONAL_GRID
    root5 = math.sqrt(5.0)
    pentagon = CodeParameters.make((root5 - 1) / 4, -(root5 + 1) / 4)
    return ([float(x) for P in RATIONAL_GRID for x in (P.mu, P.lam)]
            + [pentagon.mu, pentagon.lam])


def test_float_shifted_graph_is_shifted_bit_for_bit():
    # the matrix written from the bitmasks goes to the trusted core
    # unchecked; every field must equal the validating front end's on
    # shift * I + sign * A built by numpy
    from twodist.certificates import shifted_graph
    from twodist.graphs import Graph, complete_graph, cycle_graph

    rng = random.Random(31)
    shifts = grid_shifts()
    assert len(shifts) == 32
    knife = [(cycle_graph(5), GOLDEN, 3), (cycle_graph(4), 2.0, 3)]
    knife += [(complete_graph(n), 1.0, 1) for n in range(1, 13)]
    cases = [(G, s, +1) for G, s, _ in knife]
    for n in range(1, 13):
        for _ in range(5):
            G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            cases += [(G, s, sign) for s in shifts for sign in (+1, -1)]
    for G, s, sign in cases:
        k = shifted_graph(G, s, sign)
        ref = reference.shifted(s * np.eye(G.n)
                                + sign * loop_adjacency(G))
        assert np.array_equal(k.values, ref.values), (G, s, sign)
        assert k.inertia == ref.inertia and k.rank == ref.rank
        assert k.quadform == ref.quadform and k.cut == ref.cut
    # the knife edges sit on a zero eigenvalue and still read as zero
    for G, s, rank in knife:
        k = shifted_graph(G, s, +1)
        assert k.inertia.neg == 0 and k.rank == rank, G


def test_float_writer_keeps_off_edge_zeros_positive():
    # shift*I - A written as 0.0 - A, not -A: a -0.0 off the edges is a
    # different matrix to LAPACK and changes the last bits it returns
    from twodist.certificates import _shift_matrix
    from twodist.graphs import Graph

    G = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    for s in grid_shifts():
        M = _shift_matrix(G, s, -1)
        ref = s * np.eye(6) - loop_adjacency(G)
        assert M.tobytes() == ref.tobytes()
        assert not np.signbit(M[M == 0]).any()
        trap = -loop_adjacency(G)
        np.fill_diagonal(trap, s)
        assert np.array_equal(trap, M) and trap.tobytes() != M.tobytes()


def test_front_ends_reject_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    u = np.array([1.0, 0.0])
    for call in (reference.shifted, reference.eigen_decompose,
                 linalg.inertia, reference.rank_sym,
                 lambda M: linalg.rank_one_update_inertia(M, u, 1.0)):
        with pytest.raises(ValueError):
            call(M)
        with pytest.raises(ValueError):
            call(np.ones((2, 3)))


def test_front_end_symmetrizes_then_runs_the_core():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 8)
        S = random_symmetric(rng, n)
        M = S + 1e-12 * np.triu(np.ones((n, n)), 1)
        k = reference.shifted(M)
        ref = linalg.shifted_trusted((M + M.T) / 2.0)
        assert np.array_equal(k.values, ref.values)
        assert (k.inertia, k.rank, k.quadform, k.cut) == (
            ref.inertia, ref.rank, ref.quadform, ref.cut)
        spec, cut = reference.eigh(S)
        assert np.array_equal(spec.values,
                              reference.eigen_decompose(S).values)
        assert cut == linalg.scaled_tol(S)


def test_inertia_and_the_floor_read_the_reference_spectrum_bit_for_bit():
    # inertia and check_eigenvalue_floor read the values of one
    # linalg._eigh call; each must give the counts, the smallest value and
    # the verdict that reference.eigh's descending Spectrum and cut give
    def expected_inertia(M):
        spec, cut = reference.eigh(linalg._as_symmetric(M, linalg.DEFAULT_TOL))
        return reference.count_inertia(spec.values, cut)

    mats = []
    for n in range(1, 8):
        for G in enumerate_graphs(n):
            # at mu = 2 every graph with eigenvalue -2 (line graphs among
            # them) puts values inside the band
            mats += [G.adjacency(), G.matrix(2.0, 1.0, 0.0)]
            if not is_connected(G):
                continue
            report = check_eigenvalue_floor(G)
            spec, cut = reference.eigh(G.adjacency())
            smallest = float(spec.values[-1])
            assert report.smallest.hex() == smallest.hex()
            assert report.holds == (smallest >= -report.floor - cut)
            assert report.gap.hex() == (smallest + report.floor).hex()
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(1, 9)
        S = random_symmetric(rng, n)
        r = rng.randint(1, n)
        X = np.array([[rng.uniform(-1, 1) for _ in range(r)]
                      for _ in range(n)])
        # a caller's matrix, symmetric within tol', and a singular one
        mats += [S, S + 1e-12 * np.triu(np.ones((n, n)), 1), X @ X.T]
    for M in mats:
        assert linalg.inertia(M) == expected_inertia(M)


def assert_same_float_shifted(k, ref):
    """Every Shifted field equal bit for bit, with the same types."""
    assert k.values.tobytes() == ref.values.tobytes()
    assert (k.inertia, k.rank, k.quadform, k.cut) == (
        ref.inertia, ref.rank, ref.quadform, ref.cut)
    assert type(k.quadform) is type(ref.quadform)
    assert type(k.cut) is float and type(k.rank) is int
    assert all(type(x) is int for x in k.inertia)


def stack_slices(rng, kind, m):
    """One symmetric float matrix of order m, symmetric bit for bit."""
    if kind == "random":
        return random_symmetric(rng, m)
    if kind == "semidefinite":
        # rank r < m with j in the range: a column of X is all ones
        r = rng.randint(1, max(1, m - 1))
        X = np.array([[1.0] + [rng.uniform(-1, 1) for _ in range(r - 1)]
                      for _ in range(m)])
    else:
        # j leaves the range of a rank-deficient X X^T for most X
        r = rng.randint(0, m - 1)
        X = np.array([[rng.uniform(-1, 1) for _ in range(r)]
                      for _ in range(m)]).reshape(m, r)
    S = X @ X.T
    return (S + S.T) / 2


def test_stack_is_shifted_trusted_slice_by_slice():
    # one eigh over the stack, the cuts and inertias counted at once:
    # each slice must still be shifted_trusted of that slice, every bit
    rng = random.Random(43)
    stacks = [np.array([[[2.0]]]), np.array([[[0.0]], [[-1.5]], [[3.0]]]),
              np.array([GOLDEN * np.eye(5) + cycle_adjacency(5)] * 2)]
    for _ in range(300):
        m = rng.randint(1, 9)
        kind = rng.choice(("random", "semidefinite", "off_range"))
        stacks.append(np.array([stack_slices(rng, kind, m)
                                for _ in range(rng.choice((1, 2, 3, 6)))]))
    seen = set()
    for S in stacks:
        ks = linalg.shifted_stack(S)
        assert len(ks) == len(S)
        for k, M in zip(ks, S):
            ref = linalg.shifted_trusted(M)
            assert_same_float_shifted(k, ref)
            seen.add((len(S) == 1, len(M) == 1, k.rank < len(M),
                      k.quadform is None))
    # stacks of one, order 1, rank-deficient slices with j in the range
    # and slices where j leaves it all occur
    assert any(one for one, _, _, _ in seen)
    assert any(order_1 for _, order_1, _, _ in seen)
    assert (False, False, True, False) in seen
    assert any(off for _, _, _, off in seen)


def reader_matrices(rng, orders):
    """Symmetric matrices of each order, full rank and rank deficient
    with j in the range or out of it, at both signs: (M, kind)."""
    for m in orders:
        for kind in ("random", "semidefinite", "off_range"):
            for sign in (1.0, -1.0):
                yield sign * stack_slices(rng, kind, m), kind


def test_reader_matches_the_masked_reference_bit_for_bit():
    # the full-rank read divides every coefficient at once; every field
    # must be that of the reader that masked the band on every spectrum,
    # for j and for a random v
    rng = random.Random(59)
    seen = set()
    for _ in range(3):
        for M, kind in reader_matrices(rng, range(1, 33)):
            v = np.array([rng.uniform(-1, 1) for _ in range(len(M))])
            for vec in (None, v):
                k = linalg.shifted_trusted(M, v=vec)
                assert_same_float_shifted(
                    k, reference.shifted_trusted(M, v=vec))
                seen.add((k.rank == len(M), k.quadform is None))
    assert seen == {(True, False), (False, False), (False, True)}


def test_inertia_count_matches_the_array_count():
    cut = 1e-9
    edges = np.array([2 * cut, cut, 0.0, -0.0, -cut, -2 * cut, math.nan,
                      math.inf, -math.inf, np.nextafter(cut, 1),
                      np.nextafter(-cut, -1)])
    rng = random.Random(61)
    for values in [edges, edges[:0]] + [
            np.array(sorted(rng.choice(edges) for _ in range(m)))
            for m in range(1, 12)]:
        got = linalg._count_inertia(values, cut)
        assert got == reference.count_inertia(values, cut)
        assert all(type(x) is int for x in got)


def test_stack_matches_shifted_trusted_up_to_order_32():
    # the stacked coefficients V^T j of every slice are those of the
    # slice's own product, so each slice is shifted_trusted of that slice
    rng = random.Random(67)
    seen = set()
    for size in (1, 2, 5):
        for M, kind in reader_matrices(rng, range(1, 33)):
            S = np.array([M] + [stack_slices(rng, kind, len(M))
                                for _ in range(size - 1)])
            for k, slice_ in zip(linalg.shifted_stack(S), S):
                ref = linalg.shifted_trusted(slice_)
                assert_same_float_shifted(k, ref)
                assert_same_float_shifted(
                    k, reference.shifted_trusted(slice_))
                seen.add((k.rank == len(M), k.quadform is None))
    assert seen == {(True, False), (False, False), (False, True)}


def test_mixed_stack_reads_every_slice_as_its_own():
    # full-rank slices are read together and the others one by one; in a
    # stack that holds all three kinds each slice must still be
    # shifted_trusted of that slice, and no slice with a zero eigenvalue
    # may reach a division by it
    rng = random.Random(79)
    kinds = ("random", "semidefinite", "off_range")
    for m in (1, 2, 3, 5, 8, 13, 21, 32):
        for _ in range(4):
            slices = [np.zeros((m, m)), np.eye(m)] + [
                rng.choice((1.0, -1.0)) * stack_slices(rng, kind, m)
                for kind in kinds * 3]
            rng.shuffle(slices)
            S = np.array(slices)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ks = linalg.shifted_stack(S)
            seen = set()
            for k, M in zip(ks, S):
                assert_same_float_shifted(k, linalg.shifted_trusted(M))
                seen.add((k.rank == m, k.quadform is None))
            assert seen == ({(True, False), (False, True)} if m == 1 else
                            {(True, False), (False, False), (False, True)})


def test_band_compares_exact_budgets_without_fraction_arithmetic(
        monkeypatch):
    # on floats the three reads are the expressions the decisions wrote
    # out; with the exact cut 0 they are the direct comparisons, and no
    # Fraction is added, subtracted or made absolute
    rng = random.Random(71)
    for _ in range(2000):
        p = rng.choice((1.0, 0.5, 2 / 3, GOLDEN))
        cut = rng.choice((1e-9, 0.0, 3e-9))
        q = p + rng.choice((0.0, 1.0, 2.0, 0.5, -0.5, -1.0)) * cut * (
            rng.choice((1, 1 + 2 ** -52, 1 - 2 ** -53)))
        assert linalg.band(q, p, cut) == (
            q > p + cut, abs(q - p) <= cut, q < p - cut)
    from twodist.certificates import (CodeParameters, certify_alpha,
                                      certify_beta, shifted_graph)
    from twodist.graphs import complete_graph, cycle_graph, empty_graph
    from twodist.search import _leaf_rejection

    P = CodeParameters.make(Fraction(1, 3), Fraction(-1, 3))
    graphs = (cycle_graph(5), complete_graph(4), empty_graph(3))
    facts = [shifted_graph(G, P.exact.mu, +1) for G in graphs]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__abs__"):
        monkeypatch.setattr(Fraction, name, None)
    for q, p in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), 1),
                 (Fraction(4, 3), Fraction(1)), (Fraction(-1), -1)):
        assert linalg.band(q, p, 0) == (q > p, q == p, q < p)
    for G, k in zip(graphs, facts):
        assert certify_alpha(G, P).exact and certify_beta(G, P).exact
        for mode in ("strict", "equal"):
            _leaf_rejection(k, G.n, P.exact.p, mode)


def test_capped_float_kernel_reads_what_the_uncapped_one_reads():
    # past the cap the read of range and quadform is skipped; the
    # spectrum and the negative count must be those of the uncapped call
    # bit for bit, and at or below the cap every field must be
    from twodist.certificates import shifted_graph
    from twodist.graphs import enumerate_graphs

    graphs = [G for n in range(1, 7) for G in enumerate_graphs(n)]
    shifts = grid_shifts()
    pairs = [(s, +1) for s in shifts[0:30:2]] + [(s, -1)
                                                 for s in shifts[1:30:2]]
    pairs += [(shifts[30], +1), (shifts[31], -1)]
    capped = set()
    for s, sign in pairs:
        for G in graphs:
            full = shifted_graph(G, s, sign)
            for cap in (0, 1):
                k = shifted_graph(G, s, sign, cap=cap)
                if full.inertia.neg > cap:
                    assert type(k) is linalg.Capped
                    assert k.values.tobytes() == full.values.tobytes()
                    assert k.inertia == (None, full.inertia.neg, None)
                    capped.add(cap)
                else:
                    assert_same_float_shifted(k, full)
    assert capped == {0, 1}
