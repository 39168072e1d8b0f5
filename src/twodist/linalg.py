"""Dense symmetric-matrix routines backing the certification pipeline.

Matrices are square 2d numpy arrays of floats and vectors are 1d numpy
arrays.  Everything is sized for small instances (n <= 64).  Eigenvalues
come from one LAPACK call (numpy.linalg.eigh) per matrix.  Results repeat
bit for bit on one machine with a fixed number of BLAS threads, but not
across LAPACK builds: their last bits may differ, while every decision
compares against the tolerance below.

All tolerance decisions go through a single knob ``tol``: a comparison at
scale uses tol' = tol * max(1, ||M||_inf).

The float backend is one spectral core with two kinds of caller, the
same shape as the exact backend below.  The core, eigh_trusted, runs
one eigh on a float matrix that is symmetric by construction and
computes tol' once; it neither copies nor checks nor symmetrizes the
matrix, and shifted_trusted reads the certificate facts off it.  The
validating front ends (shifted, eigen_decompose, inertia, rank_sym and
rank_one_update_inertia) take a caller's matrix, check that it is square
and symmetric within tol', and symmetrize it before the core sees it.
The trusted writers build their matrix straight from a graph's bitmasks
(Graph.matrix): certificates.shifted_graph for A + mu I and lam I - A,
the Gram matrices of the realizations, the search's hereditary filter
and the eigenvalue floor.

The exact backend at the bottom of the module is one integer core with
two front ends.  The core, bareiss_bordered, runs one fraction-free
(Bareiss) elimination in Python integers on a bordered integer matrix,
which yields the inertia, the rank, the range test and the quadratic
form at once, every sign and rank decision exact.  shifted_exact is the
rational front end: it takes nested lists of ints and
fractions.Fraction, clears denominators, checks symmetry and adds the
border.  certificates.shifted_graph is the other: it writes the bordered
integer matrix of a shifted adjacency straight from the graph's bitmasks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousCase

DEFAULT_TOL = 1e-9


class Inertia(NamedTuple):
    pos: int
    neg: int
    zero: int


class Spectrum(NamedTuple):
    values: np.ndarray    # eigenvalues in descending order
    vectors: np.ndarray   # column i is the eigenvector for values[i]


def norm_inf(M) -> float:
    """Max absolute row sum of a matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.abs(M).sum(axis=1).max())


def scaled_tol(M, tol: float = DEFAULT_TOL) -> float:
    """The working tolerance tol' = tol * max(1, ||M||_inf)."""
    return tol * max(1.0, norm_inf(M))


def _as_symmetric(M, tol: float) -> np.ndarray:
    """Validate and return a float copy of a symmetric matrix."""
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (A.shape,))
    if A.size and float(np.max(np.abs(A - A.T))) > scaled_tol(A, tol):
        raise ValueError("matrix is not symmetric")
    return (A + A.T) / 2.0


def eigh_trusted(M: np.ndarray,
                 tol: float = DEFAULT_TOL) -> tuple[Spectrum, float]:
    """The float core: the spectrum of M and tol', from one LAPACK eigh.

    M must be a square float ndarray whose two triangles agree bit for
    bit, as every matrix written from a graph's bitmasks does; it is not
    copied, checked or symmetrized (LAPACK reads its lower triangle).
    Returns the eigenvalues in descending order with matching orthonormal
    eigenvector columns, and tol' = scaled_tol(M, tol), computed once.
    """
    values, vectors = np.linalg.eigh(M)
    return Spectrum(values[::-1], vectors[:, ::-1]), scaled_tol(M, tol)


def eigen_decompose(M, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK (numpy's eigh).

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns.  Only the symmetrized matrix reaches LAPACK, so
    both triangles count.
    """
    return eigh_trusted(_as_symmetric(M, tol), tol)[0]


def _count_inertia(values: np.ndarray, cut: float) -> Inertia:
    pos = int(np.count_nonzero(values > cut))
    neg = int(np.count_nonzero(values < -cut))
    return Inertia(pos, neg, len(values) - pos - neg)


def _range_solve(spec: Spectrum, cut: float, v) -> np.ndarray | None:
    """Minimum-norm solution of M x = v from the spectrum of M.

    None when the component of v on the eigenvectors with |value| <= cut
    has norm above cut, i.e. v leaves the column space.
    """
    coeffs = spec.vectors.T @ np.asarray(v, dtype=float)
    keep = np.abs(spec.values) > cut
    off = coeffs[~keep]
    if math.sqrt(off.dot(off)) > cut:
        return None
    return spec.vectors[:, keep] @ (coeffs[keep] / spec.values[keep])


def inertia(M, tol: float = DEFAULT_TOL) -> Inertia:
    """Counts of eigenvalues above, below and within tol' of zero."""
    spec, cut = eigh_trusted(_as_symmetric(M, tol), tol)
    return _count_inertia(spec.values, cut)


def rank_sym(M, tol: float = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix, counted from its spectrum."""
    pos, neg, _ = inertia(M, tol)
    return pos + neg


class Shifted(NamedTuple):
    values: np.ndarray | None  # descending eigenvalues; None when exact
    inertia: Inertia
    rank: int
    quadform: object        # j^T M^# j (v^T M^# v in shifted_exact); None
                            # when the vector leaves the column space
    cut: object             # the zero band: tol' for floats, the int 0 when
                            # exact, so q > p + cut and |q - p| <= cut are
                            # the exact q > p and q == p on rationals


def shifted(M, tol: float = DEFAULT_TOL) -> Shifted:
    """The certificate facts about a shifted adjacency matrix, one spectrum.

    For symmetric M (A + mu I or lam I - A) and the all-ones vector j:
    the spectrum, the inertia and rank at the cut tol', and the quadratic
    form j^T M^# j, read from the same decomposition, with tol' as the
    cut.  M is positive semidefinite iff inertia.neg == 0.  This is the
    validating front end of shifted_trusted: M must be square and
    symmetric within tol' (ValueError otherwise) and is symmetrized.
    """
    return shifted_trusted(_as_symmetric(M, tol), tol)


def shifted_trusted(M: np.ndarray, tol: float = DEFAULT_TOL) -> Shifted:
    """shifted on a float matrix symmetric by construction, unchecked.

    Reads the same fields off the core eigh_trusted, in the same order of
    operations, so for such a matrix it agrees with shifted bit for bit.
    """
    spec, cut = eigh_trusted(M, tol)
    inert = _count_inertia(spec.values, cut)
    ones = np.ones(len(spec.values))
    x = _range_solve(spec, cut, ones)
    return Shifted(spec.values, inert, inert.pos + inert.neg,
                   None if x is None else float(ones @ x), cut)


# Inertia shifts (d_pos, d_neg) for M + c*u*u^T, keyed by (c > 0, case).
# Case 1: u outside the column space.  Otherwise s = c * x^T u with
# M x = u:  case 2 for s > -1, case 3 for s < -1, case 4 for s = -1.
_UPDATE_SHIFT = {
    (False, 1): (0, 1),
    (False, 2): (0, 0),
    (False, 3): (-1, 1),
    (False, 4): (-1, 0),
    (True, 1): (1, 0),
    (True, 2): (0, 0),
    (True, 3): (1, -1),
    (True, 4): (0, -1),
}


def rank_one_update_inertia(M, u, c: float,
                            tol: float = DEFAULT_TOL) -> tuple[Inertia, int]:
    """Inertia of M + c * u u^T together with the case label that predicts it.

    The case (1..4) classifies the update: u outside the column space of M,
    or s = c * x^T u relative to -1 where M x = u.  The returned inertia is
    computed directly from the updated matrix and must agree with the shift
    the case predicts; a disagreement raises AmbiguousCase, which can only
    happen when s sits at the case boundary within tolerance.
    """
    if c == 0:
        raise ValueError("update coefficient c must be nonzero")
    M = _as_symmetric(M, tol)
    u = np.asarray(u, dtype=float)
    spec, cut = eigh_trusted(M, tol)
    base = _count_inertia(spec.values, cut)
    x = _range_solve(spec, cut, u)
    if x is None:
        case = 1
        s = None
    else:
        s = c * float(u @ x)
        if abs(s + 1.0) <= cut:
            case = 4
        elif s > -1.0:
            case = 2
        else:
            case = 3
    dpos, dneg = _UPDATE_SHIFT[(c > 0, case)]
    n = M.shape[0]
    predicted = Inertia(base.pos + dpos, base.neg + dneg,
                        n - (base.pos + dpos) - (base.neg + dneg))
    updated = M + c * np.outer(u, u)
    direct = inertia(updated, tol)
    if predicted != direct:
        raise AmbiguousCase(
            "update classification is ambiguous at this tolerance "
            "(case %d, s=%r, predicted %r, computed %r); use the exact "
            "backend if the data is rational" % (case, s, predicted, direct))
    return direct, case


# ---------------------------------------------------------------------------
# exact rational backend
# ---------------------------------------------------------------------------

def shifted_exact(M, v=None) -> Shifted:
    """The certificate facts about a symmetric rational matrix, exactly.

    The exact twin of shifted: entries of M and v are ints or Fractions,
    and v defaults to the all-ones vector.  Returns the inertia, the rank
    and v^T M^# v as a Fraction (None when v leaves the column space), with
    values None and cut 0.  This is the rational front end of
    bareiss_bordered: L and W are the denominator lcms of M and v, and the
    bordered integer matrix [[L M, W v], [W v^T, 0]] decides everything.
    """
    n = len(M)
    v = [1] * n if v is None else v
    if len(v) != n or any(len(row) != n for row in M):
        raise ValueError("expected a square matrix and a matching vector")
    L = math.lcm(*(x.denominator for row in M for x in row))
    W = math.lcm(*(x.denominator for x in v))
    B = [[x.numerator * (L // x.denominator) for x in row]
         + [x.numerator * (W // x.denominator)] for row, x in zip(M, v)]
    if any(B[i][j] != B[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
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


def rank_one_update_inertia_exact(M, u, c) -> tuple[Inertia, int]:
    """Exact twin of rank_one_update_inertia for rational data."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("update coefficient c must be nonzero")
    M = [[Fraction(x) for x in row] for row in M]
    u = [Fraction(x) for x in u]
    base = shifted_exact(M, u)
    if base.quadform is None:
        case = 1
    else:
        s = c * base.quadform
        if s == -1:
            case = 4
        elif s > -1:
            case = 2
        else:
            case = 3
    dpos, dneg = _UPDATE_SHIFT[(c > 0, case)]
    n = len(M)
    predicted = Inertia(base.inertia.pos + dpos, base.inertia.neg + dneg,
                        n - (base.inertia.pos + dpos)
                        - (base.inertia.neg + dneg))
    updated = [[M[i][j] + c * u[i] * u[j] for j in range(n)] for i in range(n)]
    direct = shifted_exact(updated).inertia
    if predicted != direct:
        raise AmbiguousCase(
            "exact case table disagrees with direct inertia; "
            "this indicates corrupted input")
    return direct, case
