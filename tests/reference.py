"""Reference implementations that the suite compares the package against.

bareiss_bordered is the list-of-lists fraction-free elimination that the
packed-row core in twodist.linalg replaced, with its body unchanged, and
shifted_exact is the rational front end written over it.  rational_shift
and _rejection are the rational matrix of a shifted adjacency and the
leaf test of a single graph, which the search and the certificates no
longer need themselves.
"""

import math
from fractions import Fraction

from twodist.certificates import shifted_graph
from twodist.linalg import Inertia, Shifted
from twodist.search import _leaf_rejection


def shifted_exact(M, v=None) -> Shifted:
    """linalg.shifted_exact over the list elimination below."""
    n = len(M)
    v = [1] * n if v is None else v
    L = math.lcm(*(x.denominator for row in M for x in row))
    W = math.lcm(*(x.denominator for x in v))
    B = [[x.numerator * (L // x.denominator) for x in row]
         + [x.numerator * (W // x.denominator)] for row, x in zip(M, v)]
    B.append([row[n] for row in B] + [0])
    return bareiss_bordered(B, L, W)


def bareiss_bordered(B, L: int, W: int) -> Shifted:
    """The exact kernel facts from a bordered integer matrix.

    B is [[L M, W v], [W v^T, 0]] as n + 1 lists of ints: a symmetric
    rational M scaled to integers by L > 0, bordered by the integer
    vector W v, W > 0.  Neither symmetry nor the border is checked, and B is
    consumed.  One fraction-free Bareiss elimination gives the inertia
    and rank of M and v^T M^# v (None when v leaves the column space of
    M) as a Fraction, with values None and cut 0; pivots come off the
    diagonal and never from the border.
    """
    prev, pos, neg = 1, 0, 0
    m = len(B) - 1  # active rows and columns; the border is the last one
    while m:
        k = next((i for i in range(m) if B[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                         if B[i][j]), None)
            if pair is None:
                break
            # congruence by I + e_j e_i^T: keeps inertia, rank and the
            # Schur complement, and makes the pivot 2 a_ij
            k, j = pair
            B[k] = [a + b for a, b in zip(B[k], B[j])]
            for row in B:
                row[k] += row[j]
        # d and prev are consecutive leading principal minors, so the
        # LDL^T pivot d / prev has the sign of d * prev
        d = B[k][k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        Bk = B.pop(k)
        del Bk[k]
        for row in B:
            f = row.pop(k)
            row[:] = [(d * a - f * b) // prev for a, b in zip(row, Bk)]
        prev = d
        m -= 1
    # with w in the range of N the corner is -prev * w^T N^# w
    q = None
    if not any(row[m] for row in B[:m]):
        q = Fraction(-B[m][m] * L, prev * W * W)
    return Shifted(None, Inertia(pos, neg, m), pos + neg, q, 0)


def rational_shift(G, shift: Fraction, sign: int):
    """A + shift*I (sign=+1) or shift*I - A (sign=-1) as a rational matrix.

    Off-diagonal entries are the ints 0 and sign, the diagonal is shift.
    shifted_graph never builds it; it is the reference that
    linalg.shifted_exact(rational_shift(...)) gives the same facts.
    """
    n = G.n
    M = [[0] * n for _ in range(n)]
    for v in range(n):
        M[v][v] = shift
        for u in G.neighbors(v):
            M[v][u] = sign
    return M


def _rejection(G, r: int, p, mu, mode: str, tol: float):
    """The first test G fails, or None when it qualifies.

    The tests in order: "psd" (A + mu I has a negative eigenvalue), "rank"
    (its rank exceeds r), "range" (j leaves its column space) and "budget"
    (j^T (A + mu I)^# j misses p for the mode).  Floats compare at G's own
    cut scaled_tol(A + mu I), rationals exactly.
    """
    return _leaf_rejection(shifted_graph(G, mu, +1, tol), r, p, mode)

