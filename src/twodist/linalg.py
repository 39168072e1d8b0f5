"""Dense symmetric-matrix routines backing the certification pipeline.

Matrices are square 2d numpy arrays of floats and vectors are 1d numpy
arrays.  Everything is sized for small instances (n <= 64).  Eigenvalues
come from LAPACK (numpy.linalg.eigh): one call for a matrix, or one
numpy call for a (k, m, m) stack of matrices of one order, which runs
LAPACK slice by slice and gives each slice the bits of its own call.
Results repeat bit for bit on one machine with a fixed number of BLAS
threads, but not across LAPACK builds: their last bits may differ, while
every decision compares against the tolerance below.

All tolerance decisions go through a single knob ``tol``: a comparison at
scale uses tol' = tol * max(1, ||M||_inf).

The float backend is one spectral core with two kinds of caller, the
same shape as the exact backend below.  The core, eigh_trusted, runs
one eigh on a float matrix that is symmetric by construction and
computes tol' once; it neither copies nor checks nor symmetrizes the
matrix, and shifted_trusted reads the certificate facts off it.
shifted_stack is the same core over a stack: one eigh for every slice
and the cuts for the whole stack at once, then each slice read by the
two readers of shifted_trusted, _count_inertia (inertia and rank) and
_read_shifted (range and quadratic form), so each slice's facts are
those shifted_trusted gives it, bit for bit.  They are the only float
readers of those facts; the search's hereditary filter counts with
_count_inertia too.  _read_shifted has a full-rank read: when the
inertia puts every eigenvalue outside the band, v has no part off the
range (its norm is sqrt(0), never above the cut), so it divides every
coefficient at once, the entries the masked division gives, and
multiplies on the column-major copy of the vectors that the masked
columns are, so the bits are the same; the general read masks the band.  The validating front ends (inertia, and
rank_one_update_inertia on float input) take a caller's matrix, check
that it is square and symmetric within tol', and symmetrize it before
the core sees it.  The trusted writers build their matrix straight
from a graph's bitmasks (Graph.matrix):
certificates.shifted_graph for A + mu I and lam I - A,
certificates.shifted_principal for a stack of its principal submatrices
(the neighborhoods of bounds.check_neighborhood), certificates._gram for
the Gram matrices of the realizations, which certificates._factor_stack
factors a stack of one order at a time with one eigh call, the search's
hereditary filter and the eigenvalue floor.

The exact backend at the bottom of the module is one integer core with
two front ends.  The core, bareiss_bordered, runs one fraction-free
(Bareiss) elimination in Python integers on a bordered integer matrix,
which yields the inertia, the rank, the range test and the quadratic
form at once, every sign and rank decision exact.  Each row of that
matrix is one Python int holding the entries in signed w-bit fields, so
a Bareiss step updates a whole row with two multiplications and one
exact division.  The multipliers of a step, column k of the live rows,
are read off the pivot row k alone: every entry left is a minor of a
symmetric matrix, so the live part stays symmetric and column k is
row k.  The width w comes from Hadamard's bound on the minors
of the bordered matrix (packed_width): every entry the elimination
leaves is such a minor (Sylvester's identity), and the rare zero-pivot
congruence re-derives w two bits wider; bareiss_bordered proves both.
shifted_exact is the rational front end: it takes nested lists of ints
and fractions.Fraction, clears denominators, checks symmetry, adds the
border and packs the rows.  certificates.shifted_graph is the other: it
writes the packed rows of a shifted adjacency straight from the graph's
bitmasks, and certificates.shifted_principal writes them restricted to
a vertex set S, which the core then eliminates on the fields of S
alone, at the width of the whole matrix.

Both kernels take the vector: shifted_trusted(M, tol, v) and
shifted_exact(M, v) return the same Shifted fields, v defaulting to j,
and a Shifted carries its own zero band (cut: tol' for floats, 0 when
exact).  So the rank-one update lemma has one body:
rank_one_update_inertia picks the arithmetic from its inputs once, and
its case table reads only Shifted.quadform and Shifted.cut.  band reads
a value against a budget in that zero band for every decision that
compares one (the certificates, the search's leaf test, the update's
case): above, inside or below it, with no Fraction arithmetic when the
cut is the exact 0.
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


def scaled_tol(M: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """The working tolerance tol' = tol * max(1, ||M||_inf), the norm the
    largest absolute row sum of the float matrix M (0 with no rows)."""
    return tol * max(1.0, float(np.abs(M).sum(axis=1).max(initial=0.0)))


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


def _count_inertia(values: np.ndarray, cut: float) -> Inertia:
    # the comparisons of values > cut and values < -cut, on Python floats
    vals, low = values.tolist(), -cut
    pos = len([x for x in vals if x > cut])
    neg = len([x for x in vals if x < low])
    return Inertia(pos, neg, len(vals) - pos - neg)


def inertia(M, tol: float = DEFAULT_TOL) -> Inertia:
    """Counts of eigenvalues above, below and within tol' of zero."""
    spec, cut = eigh_trusted(_as_symmetric(M, tol), tol)
    return _count_inertia(spec.values, cut)


class Shifted(NamedTuple):
    values: np.ndarray | None  # descending eigenvalues; None when exact
    inertia: Inertia
    rank: int
    quadform: object        # v^T M^# v, v defaulting to j; None when v
                            # leaves the column space
    cut: object             # the zero band: tol' for floats, the int 0 when
                            # exact, so q > p + cut and |q - p| <= cut are
                            # the exact q > p and q == p on rationals


def band(q, p, cut) -> tuple[bool, bool, bool]:
    """Whether q lies above, inside or below the zero band cut around p.

    On floats these are q > p + cut, |q - p| <= cut and q < p - cut, the
    comparisons the float decisions read.  The exact cut is the int 0,
    and then they are q > p, q == p and q < p, compared directly, so no
    Fraction is built for p + cut, p - cut, q - p or its absolute value.
    """
    if isinstance(cut, int):
        return q > p, q == p, q < p
    return q > p + cut, abs(q - p) <= cut, q < p - cut


def shifted_trusted(M: np.ndarray, tol: float = DEFAULT_TOL,
                    v=None) -> Shifted:
    """The certificate facts about a float matrix symmetric by construction.

    For M (A + mu I or lam I - A) and v, defaulting to the all-ones
    vector j: the spectrum, the inertia and rank at the cut tol', and the
    quadratic form v^T M^# v, read off one eigh_trusted call with tol'
    as the cut.  M is not checked.  M is positive semidefinite iff
    inertia.neg == 0.  The quadratic form comes from the minimum-norm
    solution of M x = v; v leaves the column space when its component on
    the eigenvectors with |value| <= tol' has norm above tol'.
    """
    spec, cut = eigh_trusted(M, tol)
    return _read_shifted(spec, cut, _count_inertia(spec.values, cut), v)


def shifted_stack(S: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """shifted_trusted(S[i], tol) for every slice of a (k, m, m) stack.

    One eigh call runs LAPACK slice by slice over the stack, and gives
    each slice the bits of its own call; every slice must be symmetric
    by construction, as for shifted_trusted.  The cuts are taken for the
    whole stack at once, with the float operations scaled_tol runs on
    one slice.  Each slice is then read as shifted_trusted reads its
    matrix, by _count_inertia and _read_shifted, so slice i gives
    shifted_trusted(S[i], tol) bit for bit, in every field.
    """
    values, vectors = np.linalg.eigh(S)
    cuts = tol * np.maximum(1.0, np.abs(S).sum(axis=2).max(axis=1))
    return [_read_shifted(Spectrum(val, vec), cut, _count_inertia(val, cut),
                          None)
            for val, vec, cut in zip(values[:, ::-1], vectors[:, :, ::-1],
                                     cuts.tolist())]


def _read_shifted(spec: Spectrum, cut: float, inert: Inertia, v) -> Shifted:
    """The Shifted fields of one spectrum: v^T M^# v read at the cut, v
    None meaning j, from the coefficients V^T v.

    At full rank every eigenvalue lies outside the band, so the part of
    v off the range is empty and its norm sqrt(0) is never above the
    cut (tol >= 0): the read divides every coefficient at once, which
    gives the entries that the masked division gives.  The gemv runs on
    a column-major copy of the vectors, the layout that vectors[:, keep]
    takes, so both branches give the same bits.
    """
    v = np.ones(len(spec.values)) if v is None else np.asarray(v, dtype=float)
    coeffs = spec.vectors.T @ v
    rank = inert.pos + inert.neg
    if rank == len(spec.values):
        x = np.asfortranarray(spec.vectors) @ (coeffs / spec.values)
        return Shifted(spec.values, inert, rank, float(v @ x), cut)
    keep = np.abs(spec.values) > cut
    off = coeffs[~keep]
    if math.sqrt(off.dot(off)) > cut:
        q = None
    else:
        x = spec.vectors[:, keep] @ (coeffs[keep] / spec.values[keep])
        q = float(v @ x)
    return Shifted(spec.values, inert, rank, q, cut)


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


def _rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def rank_one_update_inertia(M, u, c,
                            tol: float = DEFAULT_TOL) -> tuple[Inertia, int]:
    """Inertia of M + c * u u^T together with the case label that predicts it.

    The case (1..4) classifies the update: u outside the column space of M,
    or s = c * x^T u relative to -1 where M x = u.  The returned inertia is
    computed directly from the updated matrix and must agree with the shift
    the case predicts; a disagreement raises AmbiguousCase, which can only
    happen when s sits at the case boundary within tolerance.  When c and
    every entry of M (nested lists) and u are ints or Fractions, both
    matrices go to shifted_exact and every decision is exact, so the
    update is never ambiguous; otherwise M is checked and symmetrized,
    and both go to the float core at tol'.
    """
    if c == 0:
        raise ValueError("update coefficient c must be nonzero")
    if (_rational(c) and all(map(_rational, u))
            and all(isinstance(row, (list, tuple)) and all(map(_rational, row))
                    for row in M)):
        base = shifted_exact(M, u)
        updated = [[a + c * x * y for a, y in zip(row, u)]
                   for row, x in zip(M, u)]
        direct = shifted_exact(updated).inertia
    else:
        M = _as_symmetric(M, tol)
        u = np.asarray(u, dtype=float)
        base = shifted_trusted(M, tol, u)
        direct = inertia(M + c * np.outer(u, u), tol)
    if base.quadform is None:
        case = 1
        s = None
    else:
        s = c * base.quadform
        if band(s, -1, base.cut)[1]:
            case = 4
        elif s > -1:
            case = 2
        else:
            case = 3
    dpos, dneg = _UPDATE_SHIFT[(c > 0, case)]
    pos, neg, zero = base.inertia
    predicted = Inertia(pos + dpos, neg + dneg, zero - dpos - dneg)
    if predicted != direct:
        raise AmbiguousCase(
            "update classification is ambiguous at this tolerance "
            "(case %d, s=%r, predicted %r, computed %r); use the exact "
            "backend if the data is rational" % (case, s, predicted, direct))
    return direct, case


# ---------------------------------------------------------------------------
# exact rational backend
# ---------------------------------------------------------------------------

def packed_width(hadamard_sq: int) -> int:
    """The field width w for bareiss_bordered from Hadamard's bound.

    hadamard_sq is at least the product, over the rows of the bordered
    matrix B, of max(1, squared 2-norm of the row).  Every minor of B is
    then below 2^(w-1) in absolute value: |det B[I, J]| is at most the
    product of the norms of its rows (Hadamard), a row restricted to the
    columns J is no longer than the whole row, and a row of norm below 1
    is zero; so |det B[I, J]| <= sqrt(hadamard_sq) < 2^(bits / 2)
    <= 2^(w-1), with bits the bit length of hadamard_sq.
    """
    return (max(hadamard_sq, 1).bit_length() + 1) // 2 + 1


def field_ones(count: int, w: int) -> int:
    """The packed row with a 1 in each of the fields 0 .. count-1."""
    return ((1 << w * count) - 1) // ((1 << w) - 1)


def shifted_exact(M, v=None) -> Shifted:
    """The certificate facts about a symmetric rational matrix, exactly.

    The rational kernel, with the signature of shifted_trusted less the
    tolerance: entries of M and v are ints or Fractions, and v defaults
    to the all-ones vector.  Returns the inertia, the rank and v^T M^# v
    as a Fraction (None when v leaves the column space), with values None
    and cut 0.  This is the rational front end of bareiss_bordered: L and
    W are the denominator lcms of M and v, the bordered integer matrix
    [[L M, W v], [W v^T, 0]] decides everything, and its rows are packed
    at the width packed_width takes from their norms.
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
    w = packed_width(math.prod(max(1, sum(x * x for x in row)) for row in B))
    return bareiss_bordered([_pack(row, w) for row in B], w, L, W)


def _pack(row, w: int) -> int:
    """The entries of row as one int, entry i in the signed w-bit field i."""
    return sum(x << w * i for i, x in enumerate(row))


def bareiss_bordered(R: list, w: int, L: int, W: int,
                     fields=None) -> Shifted:
    """The exact kernel facts from a bordered integer matrix, packed by rows.

    B is [[L M, W v], [W v^T, 0]] of order n + 1: a symmetric rational M
    scaled to integers by L > 0, bordered by the integer vector W v,
    W > 0.  Row r of B is passed as the single int R[r] = sum over i of
    B[r][i] << (w i), so column i is the signed w-bit field i, and w must
    put every minor of B below 2^(w-1) in absolute value (packed_width
    gives such a w).  Neither symmetry, the border nor w is checked, and R
    is consumed.  One fraction-free Bareiss elimination gives the
    inertia and rank of M and v^T M^# v (None when v leaves the column
    space of M) as a Fraction, with values None and cut 0; pivots come
    off the diagonal and never from the border.

    fields, when given, lists the vertex fields S of a principal
    submatrix, and the facts are those of M[S, S] and v[S]: only the rows
    in S and the border row n are read, and each of them must be zero in
    every vertex field outside S.  The border stays field n.  The width
    that holds for B holds here too, as every minor of the bordered
    principal submatrix is a minor of B; so does the argument below,
    with B read as that submatrix padded by zeros.

    A step with pivot row k, d = B[k][k], updates every live row i, the
    border row included, in one line: R[i] = (d R[i] - f R[k]) // prev,
    f = B[i][k], prev the pivot before.  Shifts, scaling and exact
    division are linear, so the division of the packed int is exact
    because each of its fields divides exactly (Bareiss), and field k
    becomes d f - f d = 0 on its own.  Only d, f and the corner are read
    back, by adding half = 2^(w-1) to every field and masking one out.
    Every f of a step is read from the pivot row, as f = B[k][i], off
    the same biased R[k] that gave d: half is added to the pivot row
    once per step, and the multipliers need no other row.

    Why every field read back lies in (-2^(w-1), 2^(w-1)).  After pivots
    P = p_1 .. p_s, field j of live row i is det B[P + i, P + j] by
    Sylvester's identity, and zero in a pivot column: a minor of B of
    order s + 1.  The border row and column are a row and a column of B
    like the others, so this covers the border fields, the corner and
    every pivot, since d is a diagonal field.  The products d R[i] and
    f R[k] may overflow their fields, but only rows after the division
    are ever read.

    Why column k is row k.  By the same identity, field j of live row i
    is det B[P + i, P + j], and transposing that minor of the symmetric
    B gives det B[P + j, P + i], field i of live row j: the live rows,
    the border included, stay a symmetric matrix after every step.  So
    B[i][k] = B[k][i].  The congruence below replaces B by E B E^T,
    which is symmetric again, so the read holds after it too, and on a
    principal submatrix, which is symmetric as well.

    The zero-pivot congruence.  When every live diagonal is zero and
    B[k][j] is not, the elimination adds row j to row k and column j to
    column k, a congruence by E = I + e_k e_j^T that keeps inertia, rank
    and the Schur complement of the border, and makes the pivot
    2 B[k][j].  E leaves the pivot rows P alone, so the fields are now
    the minors of E B E^T over the same P, not those of B.  Row
    k of E is e_k + e_j and every other row is a unit vector, so a
    minor of E has rows I and columns S nonzero only for S = I or
    S = I - k + j, and it is then +-1; by Cauchy-Binet a minor of
    E B E^T is a sum of at most 2 x 2 minors of B of the same order,
    below 4 * 2^(w-1) = 2^(w+1).  So the congruence re-derives the width
    as w + 2 and repacks the live rows; repeated congruences compose, 2
    bits each.
    """
    n = len(R) - 1  # the border is row and column n, never a pivot
    prev, pos, neg = 1, 0, 0
    live = list(range(n) if fields is None else fields)
    mask, half = (1 << w) - 1, 1 << w - 1
    bias = half * field_ones(n + 1, w)  # half in every field
    while live:
        for k in live:
            col = R[k] + bias
            d = (col >> w * k & mask) - half
            if d:
                break
        else:
            B = {i: [((R[i] + bias) >> w * c & mask) - half
                     for c in range(n + 1)] for i in live + [n]}
            pair = next(((i, j) for a, i in enumerate(live)
                         for j in live[a + 1:] if B[i][j]), None)
            if pair is None:
                break
            # the congruence by E = I + e_k e_j^T, repacked 2 bits wider
            k, j = pair
            B[k] = [a + b for a, b in zip(B[k], B[j])]
            for row in B.values():
                row[k] += row[j]
            w += 2
            mask, half = (1 << w) - 1, 1 << w - 1
            bias = half * field_ones(n + 1, w)
            for i, row in B.items():
                R[i] = _pack(row, w)
            continue
        # d and prev are consecutive leading principal minors, so the
        # LDL^T pivot d / prev has the sign of d * prev
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        live.remove(k)
        Rk = R[k]
        # the live part stays symmetric, so B[i][k] is field i of row k
        for i in live + [n]:
            f = (col >> w * i & mask) - half
            R[i] = (d * R[i] - f * Rk) // prev
        prev = d
    # with w in the range of N the corner is -prev * w^T N^# w; a live row
    # is zero outside its border field, so it is zero exactly when w^T
    # reaches none of the live rows
    q = None
    if not any(R[i] for i in live):
        corner = ((R[n] + bias) >> w * n) - half
        q = Fraction(-corner * L, prev * W * W)
    return Shifted(None, Inertia(pos, neg, len(live)), pos + neg, q, 0)
