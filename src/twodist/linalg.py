"""Dense symmetric-matrix routines backing the certification pipeline.

Matrices are square 2d numpy arrays of floats and vectors are 1d numpy
arrays.  Everything is sized for small instances (n <= 64).  Eigenvalues
come from LAPACK through one entry point, _eigh (and _eigvalsh for the
values alone): the gufunc that numpy.linalg.eigh runs, eigh_lo, called
directly in the wrapper's error state, so a call that does not converge
still raises LinAlgError, and the output is the wrapper's, bit for bit.
The wrapper's own checks and conversions cost more than LAPACK does on
these orders.  One call takes a matrix, or a (k, m, m) stack of matrices
of one order, which LAPACK runs slice by slice, giving each slice the
bits of its own call.  Results repeat bit for bit on one machine with a
fixed number of BLAS threads, but not across LAPACK builds: their last
bits may differ, while every decision compares against the tolerance
below.

All tolerance decisions go through a single knob ``tol``: a comparison at
scale uses tol' = tol * max(1, ||M||_inf).

The float backend is one spectral core with two kinds of caller, the
same shape as the exact backend below.  The core, shifted_trusted,
runs one _eigh on a float matrix that is symmetric by construction and
takes tol' once; it neither copies nor checks nor symmetrizes the
matrix, and reads the certificate facts off the descending values with
its two readers, _count_inertia (inertia and rank) and _read_shifted
(range and quadratic form), building nothing the verdict does not
read: no view of the vectors past the cap.  The two readers are the
only float readers of those facts; inertia, the search's hereditary
filter and the realizations' rank check (certificates._factor_stack)
count with _count_inertia too.  shifted_stack is the same core over a
stack: one eigh for every slice and the cuts for the whole stack at
once, then _count_inertia and _read_shifted on each slice, so each
slice's facts are those shifted_trusted gives it, bit for bit.  The
validating front ends (inertia, and rank_one_update_inertia on float
input) take a caller's matrix, check that it is square and symmetric
within tol', and symmetrize it before the core sees it.  The trusted
writers build their matrix straight from a graph's bitmasks
(Graph.matrix): certificates.shifted_graph for A + mu I and lam I - A,
certificates.shifted_principal for a stack of its principal submatrices
(the neighborhoods of bounds.check_neighborhood; parts of at most 3
vertices come from a table that one stack per order writes once per
shift, certificates._small_parts), certificates._gram for
the Gram matrices of the realizations, which certificates._factor_stack
factors a stack of one order at a time with one _eigh call, and the
eigenvalue floor (graphs.check_eigenvalue_floor, the least value of
one _eigh call); the search's hereditary test (_eigvalsh) borders its
parent's matrix by one row instead.

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
a vertex set S of more than 3 vertices, which the core then eliminates
on the fields of S alone, at the width of the whole matrix; a smaller S
reads its table entry, the core's facts about the induced subgraph's
own rows.

bareiss_bordered is the kernel for a whole matrix: the certificates,
the neighbourhood parts and shifted_exact.  A matrix that is its
parent's plus one row is not eliminated whole.  The search's exact
hereditary test and the oracle's Gram check grow their graphs one
vertex at a time by orderly generation, so each child's bordered
matrix is its canonical parent's plus one vertex row, and a child can
be PSD only if its parent is (interlacing).  extend_psd continues the
Elimination of a PSD parent by that row alone: it reduces the new row
through the parent's pivot rows, t packed steps for a parent of rank t
(Haynsworth's inertia additivity), and returns the child's Elimination
or the capped verdict.  Every row of such a family is packed at the
width of its largest member, with the border at a fixed field, so no
field moves as vertices are added; extend_psd proves that width.

A verdict that reads the negative count first can often stop there:
a certificate fails at its first negative eigenvalue (certify_beta at
its second), and so does bounds.sandwich_bounds' membership test; the
search's exact hereditary test and the oracle's Gram check stop there
too, through extend_psd, which gives the verdict of bareiss_bordered at
cap 0.  So each backend's one kernel takes a cap, the largest negative
count its caller's verdict can use, None for no cap.  Past the cap,
bareiss_bordered returns at that pivot, with no further row update and
no quadratic form, and shifted_trusted skips _read_shifted but keeps
the spectrum, which certify_alpha's smallest eigenvalue reads.  Both
then return a Capped, the spectrum (None when exact) and
Inertia(None, neg, None) with neg > cap, which has no rank or
quadform: quadform None already means that v leaves the range, so a
stopped kernel must not look like a complete Shifted.  Stopping keeps
the verdict because the negative count only grows, pivot by pivot
(bareiss_bordered proves it); the float count is the whole count.

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
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import AmbiguousCase

DEFAULT_TOL = 1e-9


class Inertia(NamedTuple):
    pos: int
    neg: int
    zero: int


def scaled_tol(M: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """The working tolerance tol' = tol * max(1, ||M||_inf), the norm the
    largest absolute row sum of the float matrix M (0 with no rows), the
    maximum taken on Python floats: numpy's on every matrix without NaN,
    which LAPACK refuses."""
    return tol * max(1.0, 0.0, *np.add.reduce(np.abs(M), 1).tolist())


def _stack_cuts(S: np.ndarray, tol: float) -> list:
    """scaled_tol of every slice of a (k, m, m) stack, in one pass."""
    return (tol * np.maximum(1.0, np.abs(S).sum(axis=2).max(axis=1))).tolist()


def _as_symmetric(M, tol: float) -> np.ndarray:
    """Validate and return a float copy of a symmetric matrix."""
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (A.shape,))
    if A.size and float(np.max(np.abs(A - A.T))) > scaled_tol(A, tol):
        raise ValueError("matrix is not symmetric")
    return (A + A.T) / 2.0


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# numpy.linalg.eigh's error state around its gufunc: LAPACK's failure to
# converge sets the invalid flag, which raises, and LAPACK's own
# overflow, division and underflow flags are ignored
_lapack_errors = np.errstate(call=_nonconvergence, invalid="call",
                             over="ignore", divide="ignore", under="ignore")


@_lapack_errors
def _eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(S) for a float matrix or (k, m, m) stack, bit for bit.

    The gufunc that np.linalg.eigh runs, eigh_lo, called directly in the
    error state that the wrapper sets, so a call that does not converge
    raises LinAlgError; the wrapper's checks and conversions are skipped.
    Ascending eigenvalues, eigenvector columns to match.
    """
    return _umath_linalg.eigh_lo(S, signature="d->dd")


@_lapack_errors
def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(S), bit for bit, as _eigh runs np.linalg.eigh."""
    return _umath_linalg.eigvalsh_lo(S, signature="d->d")


def _count_inertia(values: np.ndarray, cut: float) -> Inertia:
    # the comparisons of values > cut and values < -cut, on Python floats
    vals, low = values.tolist(), -cut
    pos = len([x for x in vals if x > cut])
    neg = len([x for x in vals if x < low])
    return Inertia(pos, neg, len(vals) - pos - neg)


def inertia(M, tol: float = DEFAULT_TOL) -> Inertia:
    """Counts of eigenvalues above, below and within tol' of zero."""
    S = _as_symmetric(M, tol)
    return _count_inertia(_eigh(S)[0], scaled_tol(S, tol))


class Shifted(NamedTuple):
    values: np.ndarray | None  # descending eigenvalues; None when exact
    inertia: Inertia
    rank: int
    quadform: object        # v^T M^# v, v defaulting to j; None when v
                            # leaves the column space
    cut: object             # the zero band: tol' for floats, the int 0 when
                            # exact, so q > p + cut and |q - p| <= cut are
                            # the exact q > p and q == p on rationals


class Capped(NamedTuple):
    """What a kernel returns when it stops at its cap.

    A caller that passes cap (the largest negative-eigenvalue count its
    verdict can use) gets this instead of a Shifted once the count goes
    past the cap: inertia is Inertia(None, neg, None) with neg > cap, and
    values is the spectrum on floats, None when exact.  It has no rank,
    quadform or cut, so it cannot be read as a complete Shifted.
    """

    values: np.ndarray | None
    inertia: Inertia


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
                    v=None, cap: int | None = None) -> Shifted | Capped:
    """The certificate facts about a float matrix symmetric by construction.

    For M (A + mu I or lam I - A) and v, defaulting to the all-ones
    vector j: the spectrum, the inertia and rank at the cut tol', and the
    quadratic form v^T M^# v, read off one _eigh call with tol' =
    scaled_tol(M, tol) as the cut.  M is not checked.  M is positive
    semidefinite iff inertia.neg == 0.  The quadratic form comes from the
    minimum-norm solution of M x = v; v leaves the column space when its
    component on the eigenvectors with |value| <= tol' has norm above tol'.

    cap, when given, is the largest negative count the caller's verdict
    can use: with more negative eigenvalues than cap the range and the
    quadratic form are not read (no _read_shifted, no view of the
    vectors), and the result is Capped(values, Inertia(None, neg, None)),
    the spectrum and the count bit for bit those of the uncapped call.
    """
    w, V = _eigh(M)
    values, cut = w[::-1], scaled_tol(M, tol)
    inert = _count_inertia(values, cut)
    if cap is not None and inert.neg > cap:
        return Capped(values, Inertia(None, inert.neg, None))
    return _read_shifted(values, V[:, ::-1], cut, inert, v)


def shifted_stack(S: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """shifted_trusted(S[i], tol) for every slice of a (k, m, m) stack.

    One _eigh call runs LAPACK slice by slice over the stack, and gives
    each slice the bits of its own call; every slice must be symmetric
    by construction, as for shifted_trusted.  The cuts are taken for the
    whole stack at once (_stack_cuts), the values scaled_tol gives each
    slice; each slice is then counted by _count_inertia and read by
    _read_shifted at its cut, so slice i gives shifted_trusted(S[i], tol)
    bit for bit, in every field.
    """
    values, vectors = _eigh(S)
    return [_read_shifted(val, vec, cut, _count_inertia(val, cut), None)
            for val, vec, cut in zip(values[:, ::-1], vectors[:, :, ::-1],
                                     _stack_cuts(S, tol))]


@lru_cache(maxsize=None)
def _ones(m: int) -> np.ndarray:
    """The all-ones vector of order m, one read-only array per order."""
    j = np.ones(m)
    j.flags.writeable = False
    return j


def _read_shifted(values: np.ndarray, vectors: np.ndarray, cut: float,
                  inert: Inertia, v) -> Shifted:
    """The Shifted fields of descending values and their vector columns:
    v^T M^# v read at the cut, v None meaning j, from the coefficients
    V^T v.

    At full rank every eigenvalue lies outside the band, so the part of
    v off the range is empty and its norm sqrt(0) is never above the
    cut (tol >= 0): the read divides every coefficient at once, which
    gives the entries that the masked division gives.  The gemv runs on
    a column-major copy of the vectors, the layout that vectors[:, keep]
    takes, so both branches give the same bits.
    """
    v = _ones(len(values)) if v is None else np.asarray(v, dtype=float)
    coeffs = vectors.T @ v
    rank = inert.pos + inert.neg
    if rank == len(values):
        x = np.asfortranarray(vectors) @ (coeffs / values)
        return Shifted(values, inert, rank, float(v @ x), cut)
    keep = np.abs(values) > cut
    off = coeffs[~keep]
    if math.sqrt(off.dot(off)) > cut:
        q = None
    else:
        x = vectors[:, keep] @ (coeffs[keep] / values[keep])
        q = float(v @ x)
    return Shifted(values, inert, rank, q, cut)


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


def bareiss_bordered(R: list, w: int, L: int, W: int, fields=None,
                     cap: int | None = None) -> Shifted | Capped:
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

    cap, when given, is the largest negative count the caller's verdict
    can use.  The elimination stops at the pivot that takes the negative
    count past it, with no further row update and no quadratic form, and
    returns Capped(None, Inertia(None, cap + 1, None)).  That keeps the
    verdict, because the negative count only grows, pivot by pivot: the
    pivots taken so far count the inertia of the pivot block, the
    inertia of M is that plus the inertia of its Schur complement
    (Haynsworth), and the congruence keeps every inertia.  So the whole
    elimination would count more than cap negative pivots too, and the
    sign of a pivot is final once it is taken.

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

    The zero-diagonal exit.  At a capped run's zero-diagonal block with
    neg == cap, the kernel returns Capped(None, Inertia(None, cap + 1,
    None)) at once, with no decode and no congruence, when some live row
    is nonzero off the border: R[i] & (2^(w n) - 1) != 0.  That test is
    exact, because the vertex fields of R[i], each in (-2^(w-1),
    2^(w-1)), sum to an int of absolute value below 2^(w n - 1), zero
    only when every one of them is.  Why the count passes the cap.  The
    live fields are prev times the Schur complement C of the pivot block
    (Sylvester), and the inertia of M is that of the pivots plus that of
    C (Haynsworth).  The pivot fields and, on a principal submatrix, the
    fields outside S are zero, so the nonzero field is C[i][j] with i
    and j live and distinct, and C[i][i] = C[j][j] = 0.  A positive
    semidefinite matrix has no zero diagonal entry with a nonzero row:
    the 2 x 2 principal minor -C[i][j]^2 would be negative.  Neither has
    a negative semidefinite one, so C is indefinite, whatever the sign
    of prev, and has a negative eigenvalue: the whole elimination would
    count at least cap + 1.
    """
    n = len(R) - 1  # the border is row and column n, never a pivot
    cap = n if cap is None else cap  # neg never exceeds n
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
            if neg == cap and any(R[i] & (1 << w * n) - 1 for i in live):
                return Capped(None, Inertia(None, neg + 1, None))
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
            if neg > cap:
                return Capped(None, Inertia(None, neg, None))
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


class Elimination(NamedTuple):
    """A fraction-free elimination of a bordered positive semidefinite
    matrix, kept so that extend_psd can continue it by one vertex.

    The matrix is B = [[L M, W v], [W v^T, 0]] on the vertices 0 ..
    order-1, packed in one family's layout: every row at the width w and
    the border at field N, with N at least every order the family
    reaches, so no field moves when a vertex is added.  pivots lists
    (k, d, R) in pivot order: the vertex field k, the pivot d (the
    leading principal minor of the pivot block so far, > 0 as M is PSD)
    and the packed row of k when it was pivoted, its field for every
    vertex present written.  free masks the w-bit fields of the
    unpivoted vertices, corner is the border's diagonal field after the
    pivots, and in_range says whether v lies in the column space of M.
    """

    order: int
    pivots: tuple
    free: int
    corner: int
    in_range: bool

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def shifted(self, L: int, W: int) -> Shifted:
        """The Shifted facts that bareiss_bordered gives for the same B."""
        rank, q = len(self.pivots), None
        if self.in_range:
            prev = self.pivots[-1][1] if self.pivots else 1
            q = Fraction(-self.corner * L, prev * W * W)
        return Shifted(None, Inertia(rank, 0, self.order - rank), rank, q, 0)


# the elimination of the matrix with no vertex, the root of every family
EMPTY_ELIMINATION = Elimination(0, (), 0, 0, True)

# a child that is not positive semidefinite: the verdict bareiss_bordered
# gives at cap 0
_NOT_PSD = Capped(None, Inertia(None, 1, None))


@lru_cache(maxsize=1024)
def _bias(w: int, border: int) -> int:
    """half = 2^(w-1) in each of the fields 0 .. border."""
    return (1 << w - 1) * field_ones(border + 1, w)


def extend_psd(parent: Elimination, row: int, w: int,
               border: int) -> Elimination | Capped:
    """The elimination of parent's matrix bordered by one more vertex.

    row is the new vertex m = parent.order packed in the family's
    layout (see Elimination): its entries against the vertices 0 .. m-1
    in fields 0 .. m-1, its diagonal in field m and W v_m in the border
    field, every other field zero.  Returns Capped(None, Inertia(None,
    1, None)), the verdict bareiss_bordered gives at cap 0, when the
    child matrix is not positive semidefinite, and its Elimination
    otherwise, which .shifted(L, W) reads as bareiss_bordered reads the
    whole child: the same inertia, rank and quadratic form.

    Only the new row is reduced, by one Bareiss step through each pivot
    row of the parent in its order: row = (d row - f R) // prev, f the
    row's field k.  The child's own pivot row k differs from the
    parent's in field m alone, which holds the child's entry (k, m)
    after the earlier pivots; the live part stays symmetric
    (bareiss_bordered), so that entry is f, and the step writes it into
    a copy of R, R + (f << w m), before using it.  The child keeps the
    copies; the parent's rows are not changed.

    Why these are the child's pivots, in the order bareiss_bordered
    takes them.  The kernel pivots on the first live vertex with a
    nonzero diagonal.  In a PSD matrix a zero diagonal entry has a zero
    row, in every Schur complement as well, since those are PSD too; so
    once a vertex has a zero diagonal it keeps it, the pivots come in
    increasing order, and vertex i is a pivot exactly when its diagonal
    after the pivots below i is nonzero, a fact about the leading
    vertices 0 .. i alone.  So a PSD child pivots where its parent did,
    with the same pivots d, and then on m when the reduced diagonal s,
    field m of the reduced row, is nonzero.

    The verdict.  After the parent's pivots the Schur complement of the
    child on the free vertices U and m is [[0, f_U], [f_U^T, s]] up to
    the positive factor prev, f_U the reduced row's fields on U
    (Sylvester; the parent's Schur complement on U is zero, as it is
    PSD).  It is PSD iff s >= 0 and f_U = 0: a negative s is a negative
    pivot, and a nonzero f_u with the zero diagonal at u gives the 2 x 2
    principal minor -f_u^2 < 0.  The congruence keeps the inertia
    (Haynsworth), so the child is PSD exactly when that block is, and
    then its rank is the parent's plus [s > 0].  The fields of U are
    zero iff (row + bias) ^ bias vanishes on their mask, as each biased
    field lies in (0, 2^w) with no carry.  When s > 0 the border row's
    step gives the corner (s corner - g^2) // prev, g the reduced row's
    border field, and scales each free row's border field by s / prev,
    so v stays in the range iff it was; when s = 0, m joins the free
    vertices, and v stays in the range iff it was and g = 0.

    Why every stored field fits the width.  After the pivots P_i = p_1
    .. p_i, field j of the reduced new row is det B_c[P_i + m, P_i + j],
    and field j of the copy of pivot row p_i is det B_c[P_(i-1) + p_i,
    P_(i-1) + j] (Sylvester's identity), B_c the child's bordered matrix;
    every d, s, f, g and corner is such a field.  B_c has order n + 1 <=
    N + 1, and packed_width(h) holds every minor of it when h is at
    least the product of max(1, squared norm) over its rows.  A family
    takes h at N, from bounds that hold at every order:
    certificates._layout's h = b^N N, with b >= 1 at least the squared
    norm of any vertex row on N vertices and N that of the border row at
    W = 1, is at least that product for a child on n <= N vertices,
    whose n vertex rows have squared norms at most b and whose border
    row has n.  So every minor of B_c, every stored field included, lies
    in (-2^(w-1), 2^(w-1)) at every level.  As in bareiss_bordered, the
    products d row and f R may overflow their fields, and each division
    is exact field by field, so only the divided rows are read or kept.
    """
    m = parent.order
    mask, half = (1 << w) - 1, 1 << w - 1
    bias = _bias(w, border)
    at = w * m
    prev, rows = 1, []
    for k, d, R in parent.pivots:
        f = ((row + bias) >> w * k & mask) - half
        R += f << at
        rows.append(R)
        row = (d * row - f * R) // prev
        prev = d
    col = row + bias
    s = (col >> at & mask) - half
    if s < 0 or (col ^ bias) & parent.free:
        return _NOT_PSD
    g = (col >> w * border & mask) - half
    pivots = tuple([(k, d, R) for (k, d, _), R in zip(parent.pivots, rows)])
    if s:
        return Elimination(m + 1, pivots + ((m, s, row),), parent.free,
                           (s * parent.corner - g * g) // prev,
                           parent.in_range)
    return Elimination(m + 1, pivots, parent.free | mask << at,
                       parent.corner, parent.in_range and not g)
