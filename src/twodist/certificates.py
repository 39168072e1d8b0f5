"""Code parameters, spherical codes, and the two certification routes.

A spherical code here is a set of unit vectors whose pairwise inner
products all lie in {alpha, beta} with beta < alpha.  Splitting the pairs
by which value they take yields two complementary graphs, and membership
of a graph in either family is decided by spectral conditions on small
shifted adjacency matrices.  certify_alpha handles the alpha-graph side
(needs beta < 0), certify_beta the beta-graph side (needs alpha > 0), and
certify_beta_zero the {0, beta} specialization.  Each certificate carries
the rank of the realizing code, and realize_from_* rebuilds unit vectors
from the certified Gram matrix.  Realizations have one body,
realize_stack, over a stack of graphs of one order: one Graph.matrix
call writes each Gram matrix, one eigh call factors the whole stack, the
slices are signed, checked and normalized a rank group at a time
(_factor_stack), and each code is then read back into its graph.  A
slice that fails gets its own exception, and the others are untouched;
realize_from_* is the stack of one, and the oracle cross-check realizes
a whole order at once.

Parameters given as Fractions run the entire decision path in exact
arithmetic; floats use the tolerance policy from the linalg module.  The
arithmetic is chosen once: shifted_graph picks the kernel by the type of
the shift, and each decision is written once against the kernel's zero
band cut, which is 0 on the exact path.

_Family writes every packed exact row: a whole graph's for each exact
certificate, a vertex set's for each neighbourhood part of more than 3
vertices, and one vertex's at a time for the search's exact tree and
the oracle cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from . import linalg
from .errors import (AmbiguousPair, CertificateInvalid, ParameterDomain,
                     ReconstructionResidual)
from .graphs import Graph, _bits
from .linalg import DEFAULT_TOL


@dataclass(frozen=True)
class CodeParameters:
    """An admissible inner-product pair and its derived quantities.

    mu = (1-beta)/(alpha-beta) and lam = (1-alpha)/(alpha-beta) are the
    shifts entering the two certification routes; p = (alpha-beta)/(-beta)
    is the quadratic-form budget and exists only for beta < 0.  The
    neighborhood budget budget_nbr = (alpha-beta)/(alpha^2-beta), which is
    also the budget p of the recursion map's parameters, exists whenever
    alpha^2 != beta.  beta_budget = (alpha-beta)/(-alpha) is the
    quadratic-form budget of certify_beta and exists only for alpha > 0.
    ``exact`` is populated when both inputs are rational, and switches
    every certificate decision to exact arithmetic.  It is a
    CodeParameters itself, with every scalar a Fraction and its own
    ``exact`` None, so ``P = params.exact or params`` gives every scalar
    in the arithmetic of the backend that decides.
    """

    alpha: float
    beta: float
    mu: float
    lam: float
    p: float | None
    budget_nbr: float | None
    beta_budget: float | None
    exact: CodeParameters | None

    @classmethod
    def make(cls, alpha, beta) -> "CodeParameters":
        af, bf = float(alpha), float(beta)
        if not (-1.0 < af < 1.0):
            raise ParameterDomain("alpha must lie in (-1, 1), got %r" % af)
        if not (-1.0 <= bf < 1.0):
            raise ParameterDomain("beta must lie in [-1, 1), got %r" % bf)
        if not bf < af:
            raise ParameterDomain("need beta < alpha, got alpha=%r beta=%r"
                                  % (af, bf))
        exact = None
        if linalg._rational(alpha) and linalg._rational(beta):
            a, b = Fraction(alpha), Fraction(beta)
            exact = cls(alpha=a, beta=b,
                        mu=(1 - b) / (a - b),
                        lam=(1 - a) / (a - b),
                        **_budgets(a, b), exact=None)
        return cls(alpha=af, beta=bf,
                   mu=(1.0 - bf) / (af - bf),
                   lam=(1.0 - af) / (af - bf),
                   **_budgets(af, bf),
                   exact=exact)


def _budgets(a, b) -> dict:
    """The budgets of CodeParameters, in the arithmetic of a and b, None
    where their condition fails."""
    return dict(p=(a - b) / (-b) if b < 0 else None,
                budget_nbr=(a - b) / (a * a - b) if a * a != b else None,
                beta_budget=(a - b) / (-a) if a > 0 else None)


@dataclass
class SphericalCode:
    """Unit vectors (rows) with pairwise inner products in {alpha, beta}."""

    alpha: float
    beta: float
    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError("vectors must be a (size, dim) array")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def gram(self) -> np.ndarray:
        G = self.vectors @ self.vectors.T
        return (G + G.T) / 2.0


# ---------------------------------------------------------------------------
# verification and graph extraction
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    valid: bool
    norm_violations: list      # (index, norm)
    pair_violations: list      # (i, j, inner product)
    values_present: set        # subset of {"alpha", "beta"}


# a block of pair products holds at most this many entries, so the
# memory of a check stays bounded on large codes
_PAIR_BLOCK = 1 << 16


def _pair_rows(V: np.ndarray):
    """The inner products of the rows of V, in the order of i, then j.

    Yields (i, row) with row[k] = V[i] @ V[i + 1 + k] for every j > i, as
    Python floats.  The products of a block of rows come from one stacked
    matmul of (1, d) @ (d, 1) pairs, so each has the bits of V[i] @ V[j];
    a Gram product V @ V.T would not (its BLAS kernels sum in another
    order).  A block of b rows against the n - a - 1 rows after its first
    row a holds at most _PAIR_BLOCK products, or is one row, so the whole
    pass costs under n^2 products and O(n d + _PAIR_BLOCK) memory.
    """
    n = V.shape[0]
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    for a in range(0, n, rows):
        block = (V[a:a + rows, None, None, :]
                 @ V[None, a + 1:, :, None])[:, :, 0, 0]
        for r, row in enumerate(block.tolist()):
            yield a + r, row[r:]


def verify_code(vectors, alpha: float, beta: float,
                tol: float = DEFAULT_TOL) -> VerifyReport:
    """Check unit norms and two-distance structure of a vector set.

    A pair only needs to be within tol of one of the two values; codes
    where a value never occurs still verify.  Each vector is one entry
    along the first axis, read flattened, so a 1-d array holds vectors
    of dimension 1.  The norms and the n (n - 1) / 2 pair products are
    those of np.linalg.norm(V[i]) and V[i] @ V[j], bit for bit, taken a
    block of rows at a time (_pair_rows): under n^2 products and
    O(n d + _PAIR_BLOCK) memory.
    """
    V = np.asarray(vectors, dtype=float)
    V = V.reshape(V.shape[0], V[:1].size)
    norms = []
    pairs = []
    present = set()
    # np.linalg.norm(V[i]) is the dot product of a contiguous copy
    C = np.ascontiguousarray(V)
    nv = np.sqrt((C[:, None, :] @ C[:, :, None])[:, 0, 0])
    for i, x in enumerate(nv.tolist()):
        if abs(x - 1.0) > tol:
            norms.append((i, x))
    for i, row in _pair_rows(V):
        for j, val in enumerate(row, i + 1):
            if abs(val - alpha) <= tol:
                present.add("alpha")
            elif abs(val - beta) <= tol:
                present.add("beta")
            else:
                pairs.append((i, j, val))
    return VerifyReport(valid=not norms and not pairs,
                        norm_violations=norms, pair_violations=pairs,
                        values_present=present)


def alpha_graph(code: SphericalCode, tol: float = DEFAULT_TOL) -> Graph:
    """Graph with an edge where the inner product is nearer to alpha than
    to beta, its rows written from the products of _pair_rows: under n^2
    products and O(n d + _PAIR_BLOCK) memory.  The first pair near
    neither value, in the order of i, then j, raises CertificateInvalid."""
    alpha, beta = code.alpha, code.beta
    if abs(alpha - beta) <= 2 * tol:
        raise AmbiguousPair("alpha and beta are closer than 2*tol")
    rows = [0] * code.vectors.shape[0]
    for i, row in _pair_rows(code.vectors):
        for j, val in enumerate(row, i + 1):
            da, db = abs(val - alpha), abs(val - beta)
            if min(da, db) > tol:
                raise CertificateInvalid(
                    "pair (%d, %d) has inner product %r, near neither value"
                    % (i, j, val))
            if da < db:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._trusted(rows)


def beta_graph(code: SphericalCode, tol: float = DEFAULT_TOL) -> Graph:
    """Graph with an edge where the inner product equals beta: the
    complement of alpha_graph, which raises its errors."""
    return alpha_graph(code, tol).complement()


def code_rank(code: SphericalCode, tol: float = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, the true ambient dimension of the code."""
    pos, neg, _ = linalg.inertia(code.gram(), tol)
    return pos + neg


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class AlphaCertificate:
    """Outcome of the alpha-graph membership test.

    smallest_eigenvalue is reported on the float path; the exact path
    always leaves it None.  quadform is a Fraction in exact mode.
    """

    valid: bool
    rank_r: int | None = None
    quadform: object = None
    equality_case: bool | None = None
    smallest_eigenvalue: float | None = None
    failure_reason: str | None = None
    exact: bool = False


@dataclass
class BetaCertificate:
    """Outcome of the beta-graph membership test.

    case is 'one'/'two'/'three' for the alpha > 0 route and 'p1'/'p2' for
    the {0, beta} route; quadform is only set in case three.
    """

    valid: bool
    case: str | None = None
    rank_r: int | None = None
    quadform: object = None
    equality_case: bool | None = None
    failure_reason: str | None = None
    exact: bool = False


@lru_cache(maxsize=1024)
class _Family:
    """The packed rows of the bordered integer matrices of graphs on at
    most n vertices, diag on the diagonal, edge on the edges and other
    elsewhere, bordered by the all-ones vector: the one writer of the
    layout linalg.bareiss_bordered and linalg.extend_psd read.  A row is
    one int, entry c in the signed w-bit field c, and the border is
    field n at every order, so no field moves when a vertex is added.
    Instances are cached by (n, diag, edge, other).

    row(v, mask, k) is vertex row v with neighbour bitmask mask below
    2^k: other in the fields below k, edge on the mask, diag at field v,
    1 at the border and 0 elsewhere.  k = n writes a graph on n vertices;
    k = m + 1 writes vertex m of a graph grown one vertex at a time,
    which extend(parent, mask) hands to linalg.extend_psd.  The border
    row of a vertex set S is S * mul & ones.

    Every vertex row of the bordered matrix of a graph on n vertices has
    squared norm at most s = diag^2 + (n-1) max(edge^2, other^2) + 1 and
    the border row has n, so s^n n bounds the product that
    linalg.packed_width takes.  ones has a 1 in each vertex field, and
    mask * mul & ones spreads the bitmask into them.  mask * mul is the
    sum of the copies mask << (w-1) u, u < n, and w is kept at least
    n + 1.  Bit b of copy u lies at b + (w-1) u.  Two such bits meet only
    if b - b' = (w-1)(u' - u), and one starts a field w u' only if
    b - u = w (u' - u); as |b - b'| and |b - u| are below n <= w - 1,
    both need u = u'.  So the sum carries nowhere, and the mask keeps
    exactly bit u of copy u, at field u.
    """

    def __init__(self, n: int, diag: int, edge: int, other: int):
        s = diag * diag + (n - 1) * max(edge * edge, other * other) + 1
        w = self.w = max(linalg.packed_width(s ** n * max(n, 1)), n + 1)
        self.n, self.step, self.lift = n, edge - other, diag - other
        self.mul = ((1 << (w - 1) * n) - 1) // ((1 << w - 1) - 1)
        self.ones = linalg.field_ones(n, w)
        self.base = [other * linalg.field_ones(k, w) + (1 << w * n)
                     for k in range(n + 1)]

    def row(self, v: int, mask: int, k: int) -> int:
        return (self.base[k] + self.step * (mask * self.mul & self.ones)
                + (self.lift << self.w * v))

    def extend(self, parent, mask: int):
        m = parent.order
        return linalg.extend_psd(parent, self.row(m, mask, m + 1), self.w,
                                 self.n)


def _bordered(G: Graph, diag: int, edge: int, other: int) -> tuple[list, int]:
    """The integer matrix diag on the diagonal, edge on the edges of G and
    other elsewhere, bordered by the all-ones vector: the packed rows and
    the width w that linalg.bareiss_bordered takes (_Family)."""
    n = G.n
    F = _Family(n, diag, edge, other)
    R = [F.row(v, row, n) for v, row in enumerate(G.rows)]
    R.append(F.ones)  # the border row: 1 in every vertex field, corner 0
    return R, F.w


def _shift_matrix(G: Graph, shift, sign: int) -> np.ndarray:
    """shift*I + sign*A as a float matrix written from the bitmasks, for
    a positive shift: bit for bit the matrix shift * np.eye(n) + sign * A,
    whose entries are shift, sign and +0.0 there (shift*0.0 + sign*0.0
    is never the -0.0 of -A, which would change LAPACK's last bits)."""
    return G.matrix(shift, sign, 0.0)


def shifted_graph(G: Graph, shift, sign: int, tol: float = DEFAULT_TOL,
                  cap: int | None = None) -> linalg.Shifted | linalg.Capped:
    """The kernel facts of A + shift*I (sign=+1) or shift*I - A (sign=-1).

    The arithmetic of shift picks the kernel, and either way the matrix
    is written from G.rows straight into that backend's trusted core,
    with no validation: it is symmetric by construction.  A Fraction runs
    the exact integer core linalg.bareiss_bordered (cut 0) on the packed
    rows of L (A + shift I) or L (shift I - A), L the denominator of
    shift, bordered by j (_bordered); a
    float runs the spectral core linalg.shifted_trusted at tol' (values
    set) on the float matrix, bit for bit the matrix
    shift * np.eye(n) + sign * A.  The decisions read the same fields.
    cap goes to the kernel: past cap negative eigenvalues it stops and
    returns a linalg.Capped, whose inertia.neg and values are all a
    verdict that reads the negative count first may then read.
    """
    if _exact_shift(shift):
        den = shift.denominator
        R, w = _bordered(G, shift.numerator, sign * den, 0)
        return linalg.bareiss_bordered(R, w, den, 1, None, cap)
    return linalg.shifted_trusted(_shift_matrix(G, shift, sign), tol,
                                  cap=cap)


def _exact_shift(shift) -> bool:
    """Whether shift runs the exact kernel: a Fraction does; an int, a
    float or a numpy scalar runs the float one.  A float is told apart
    by its type first, which skips Fraction's ABC instance check."""
    return type(shift) is not float and isinstance(shift, Fraction)


# the largest order shifted_principal reads off _small_parts; the pattern
# graphs of each order m <= _SMALL, pattern bit t the t-th pair of
# combinations(range(m), 2)
_SMALL = 3
_PATTERNS = tuple(
    tuple(Graph(m, [e for t, e in enumerate(combinations(range(m), 2))
                    if p >> t & 1])
          for p in range(1 << m * (m - 1) // 2))
    for m in range(1, _SMALL + 1))


@lru_cache(maxsize=1024, typed=True)
def _small_parts(shift, sign: int, tol: float) -> tuple:
    """The kernel facts of every labelled graph of order at most _SMALL
    at one shift: entry [m - 1][p] is shifted_graph's read of pattern
    graph p of order m (_PATTERNS), 1 + 2 + 8 entries, 11 kernel calls
    per (shift, sign, tol).

    typed keeps a Fraction, an int and a float of one value apart, so
    each reads its own table in its own arithmetic.  The cached float
    values are made read-only.
    """
    table = tuple(tuple(shifted_graph(H, shift, sign, tol) for H in graphs)
                  for graphs in _PATTERNS)
    for k in chain.from_iterable(table):
        if k.values is not None:
            k.values.flags.writeable = False
    return table


def shifted_principal(G: Graph, shift, sign: int, masks,
                      tol: float = DEFAULT_TOL) -> list:
    """shifted_graph of the subgraph induced on each vertex mask, in order.

    Each mask is a nonempty bitmask of vertices of G (ValueError
    otherwise), and its matrix is the principal submatrix of G's shifted
    adjacency on those vertices, in increasing order: the matrix
    shifted_graph writes for the induced subgraph, entry for entry.  No
    subgraph is built.  The arithmetic of shift picks the kernel, as in
    shifted_graph.

    A mask of order at most _SMALL = 3 is read from _small_parts, the
    shifted_graph reads of the 11 labelled graphs of those orders at
    this shift, at the pattern of its induced adjacency: no bit at order
    1, one at order 2, three at order 3, read off G.rows.  Those facts
    are shared between calls, and their float values are read-only; the
    induced subgraph is its pattern graph, so they are the subgraph's
    own shifted_graph facts, in both arithmetics.  A larger mask
    runs its kernel per call.  A float writes G's matrix once, slices
    each such mask's submatrix out of it and runs linalg.shifted_stack
    once per order.  So every float Shifted, table or stack, is bit for
    bit the subgraph's.  A Fraction writes, per mask S, G's packed
    bordered rows restricted to S in G's _Family: vertex row v of S as
    row(v, G.rows[v] & S, n) and the border row of S;
    linalg.bareiss_bordered eliminates them on the fields of S.
    """
    n = G.n
    for S in masks:
        if not 0 < S < 1 << n:
            raise ValueError("vertex mask %r is empty or not in range(%d)"
                             % (S, n))
    table = _small_parts(shift, sign, tol)
    rows = G.rows
    out = [None] * len(masks)
    by_order = {}
    for i, S in enumerate(masks):
        m = S.bit_count()
        if m > _SMALL:
            by_order.setdefault(m, []).append(i)
            continue
        p = 0
        for t, (x, y) in enumerate(combinations(_bits(S), 2)):
            p |= (rows[x] >> y & 1) << t
        out[i] = table[m - 1][p]
    if not by_order:
        return out
    if _exact_shift(shift):
        den = shift.denominator
        F = _Family(n, shift.numerator, sign * den, 0)
        for where in by_order.values():
            for i in where:
                S = masks[i]
                fields = _bits(S)
                R = [0] * n + [S * F.mul & F.ones]
                for v in fields:
                    R[v] = F.row(v, rows[v] & S, n)
                out[i] = linalg.bareiss_bordered(R, F.w, den, 1, fields)
        return out
    M = _shift_matrix(G, shift, sign)
    for where in by_order.values():
        idx = np.array([_bits(masks[i]) for i in where])
        stack = M[idx[:, :, None], idx[:, None, :]]
        for i, k in zip(where, linalg.shifted_stack(stack, tol)):
            out[i] = k
    return out


def certify_alpha(G: Graph, params: CodeParameters,
                  tol: float = DEFAULT_TOL) -> AlphaCertificate:
    """Decide whether G is the alpha-graph of a code with these parameters.

    Needs beta < 0.  The conditions: A + mu*I is positive semidefinite,
    the all-ones vector lies in its column space, and the quadratic form
    j^T (A + mu I)^# j is at most p.  Exact equality with p lowers the
    realizable rank by one.
    """
    if params.beta >= 0:
        raise ParameterDomain("alpha-graph certificates need beta < 0")
    if G.n == 0:
        raise ValueError("certificates need at least one vertex")
    P = params.exact or params
    # one negative eigenvalue decides, so the kernel stops there
    k = shifted_graph(G, P.mu, +1, tol, cap=0)
    exact = k.values is None
    # positional fields: valid, rank_r, quadform, equality_case, smallest
    smallest = None if exact else float(k.values[-1]) - P.mu
    if k.inertia.neg:
        return AlphaCertificate(False, None, None, None, smallest,
                                "eigenvalue_below", exact)
    q = k.quadform
    if q is None:
        return AlphaCertificate(False, None, None, None, smallest,
                                "j_not_in_range", exact)
    above, equality, _ = linalg.band(q, P.p, k.cut)
    if above:
        return AlphaCertificate(False, None, q, None, smallest,
                                "quadform_exceeds", exact)
    return AlphaCertificate(True, k.rank - 1 if equality else k.rank, q,
                            equality, smallest, None, exact)


def certify_beta_zero(G: Graph, beta,
                      tol: float = DEFAULT_TOL) -> BetaCertificate:
    """Decide whether G is the beta-graph of a {0, beta} code, beta in [-1, 0).

    With lam = 1/(-beta): largest adjacency eigenvalue strictly below lam
    realizes in full dimension (case p1); equal to lam realizes in the
    codimension of the eigenvalue (case p2); above lam is impossible.
    """
    if not (-1.0 <= float(beta) < 0.0):
        raise ParameterDomain("the {0, beta} route needs beta in [-1, 0)")
    if G.n == 0:
        raise ValueError("certificates need at least one vertex")
    # the pair (0, beta) has lam = 1/(-beta), in the arithmetic of beta
    params = CodeParameters.make(0, beta)
    k = shifted_graph(G, (params.exact or params).lam, -1, tol, cap=0)
    exact = k.values is None
    # positional fields: valid, case, rank_r, quadform, equality_case
    if k.inertia.neg:
        return BetaCertificate(False, None, None, None, None,
                               "eigenvalue_above", exact)
    return BetaCertificate(True, "p1" if k.rank == G.n else "p2", k.rank,
                           None, None, None, exact)


def certify_beta(G: Graph, params: CodeParameters,
                 tol: float = DEFAULT_TOL) -> BetaCertificate:
    """Decide whether G is the beta-graph of a code with these parameters.

    Needs alpha > 0.  With lam = (1-alpha)/(alpha-beta) and M = lam*I - A:
    M positive definite is case one (full rank); M singular positive
    semidefinite is case two (rank(M) + 1); M with a single negative
    eigenvalue needs j in the column space and j^T M^# j <= (alpha-beta)/
    (-alpha), with equality lowering the rank by one (case three).
    """
    if params.alpha <= 0:
        raise ParameterDomain("beta-graph certificates need alpha > 0")
    if G.n == 0:
        raise ValueError("certificates need at least one vertex")
    P = params.exact or params
    # case three reads one negative eigenvalue; a second one decides
    k = shifted_graph(G, P.lam, -1, tol, cap=1)
    exact = k.values is None
    # positional fields: valid, case, rank_r, quadform, equality_case
    if k.inertia.neg == 0:
        if k.inertia.zero == 0:
            return BetaCertificate(True, "one", G.n, None, None, None, exact)
        return BetaCertificate(True, "two", k.rank + 1, None, None, None,
                               exact)
    if k.inertia.neg > 1:
        return BetaCertificate(False, None, None, None, None,
                               "negative_inertia", exact)
    q = k.quadform
    if q is None:
        return BetaCertificate(False, "three", None, None, None,
                               "j_not_in_range", exact)
    above, equality, _ = linalg.band(q, P.beta_budget, k.cut)
    if above:
        return BetaCertificate(False, "three", None, q, None,
                               "quadform_exceeds", exact)
    return BetaCertificate(True, "three",
                           k.rank - 1 if equality else k.rank, q, equality,
                           None, exact)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def _gram(G: Graph, params: CodeParameters, route: str) -> np.ndarray:
    """The Gram matrix of G's code on the route, in one Graph.matrix call.

    alpha: (a-b) (A + mu I) + b J; beta: (a-b) (lam I - A) + a J.  Each of
    the three entries is the Python float (a-b) * e + base for an entry e
    of _shift_matrix, as numpy computes (a - b) * _shift_matrix(...) + base,
    so the bits are the same; off the edges that is base + 0.0, which is
    +0.0 for a base of -0.0.
    """
    a, b = params.alpha, params.beta
    if route == "alpha":
        shift, sign, base = params.mu, 1.0, b
    else:
        shift, sign, base = params.lam, -1.0, a
    s = a - b
    return G.matrix(s * shift + base, s * sign + base, base + 0.0)


def _factor_stack(grams: np.ndarray, ranks, tol: float) -> list:
    """Unit rows U with U U^T = grams[i] in dimension ranks[i], per slice.

    grams is a (k, n, n) stack of Gram matrices, each symmetric by
    construction (Graph.matrix), and goes straight to one linalg._eigh
    call, which gives each slice the bits of its own.  The cuts tol' are
    taken for every slice at once (linalg._stack_cuts), and each slice's
    rank is the positive count linalg._count_inertia reads at its cut.
    A slice whose rank is not ranks[i] gets its ReconstructionResidual;
    the others are grouped by rank, and in a group the sign fix, the
    scaling, the residual check, the norm check and the normalization
    are stacked numpy operations.  Each eigenvector kept is
    signed so that its first entry above 1e-12 in absolute value is
    positive.  Returns, per slice, U or the exception it raises.

    A group is laid out as (m, r, n), so each U is the transpose of a
    C-ordered slice, a column-major (n, r) array, and its row norms add
    the squares one column at a time.  A C-ordered U would add them
    pairwise from rank 8 on and change their last bits.  So every U has
    the bits and the layout of a factorization of its matrix alone.
    """
    values, vectors = linalg._eigh(grams)
    values, rows = values[:, ::-1], vectors.transpose(0, 2, 1)[:, ::-1]
    cuts = linalg._stack_cuts(grams, tol)
    found = [linalg._count_inertia(val, cut).pos
             for val, cut in zip(values, cuts)]
    out = [None] * len(found)
    groups = {}
    for i, (rank, want) in enumerate(zip(found, ranks)):
        if rank != want:
            out[i] = ReconstructionResidual(
                "Gram matrix has %d positive eigenvalues, certificate says %d"
                % (rank, want))
        else:
            groups.setdefault(rank, []).append(i)
    for r, idx in groups.items():
        pick = slice(None) if len(idx) == len(out) else idx
        W = rows[pick, :r]
        big = np.abs(W) > 1e-12
        lead = W[np.arange(len(idx))[:, None], np.arange(r),
                 big.argmax(axis=2)]
        # an eigenvector has unit norm, so it has a big entry and lead is
        # nonzero; (v * -1.0) * s and v * -s are the same float
        root = np.copysign(np.sqrt(values[pick, :r]), lead)
        U = np.multiply(W, root[:, :, None], order="C")
        resid = np.abs(U.transpose(0, 2, 1) @ U - grams[pick]).max(
            axis=(1, 2))
        norms = np.sqrt(np.add.reduce(U * U, axis=1))
        drift = np.abs(norms - 1.0).max(axis=1)
        unit = U / norms[:, None, :]
        for j, (i, res, off) in enumerate(zip(idx, resid.tolist(),
                                              drift.tolist())):
            cut = cuts[i]
            if res > 10 * cut:
                out[i] = ReconstructionResidual(
                    "reconstruction residual %g" % res)
            elif off > cut:
                out[i] = ReconstructionResidual(
                    "realized vectors drift off the sphere")
            else:
                out[i] = unit[j].T
    return out


def realize_stack(items, route: str, tol: float = DEFAULT_TOL,
                  dim: int | None = None) -> list:
    """Realize each (G, params, rank_r) of items as a code, in one stack.

    The graphs must share one order n (np.stack raises ValueError
    otherwise).  Route "alpha" writes the Gram matrix with alpha on the
    edges and beta elsewhere, "beta" the mirror image; rank_r is the rank
    the graph's certificate gives.  All Gram matrices are factored by one
    _factor_stack call; each code is then padded with zero coordinates up
    to dim (ParameterDomain below rank_r), and its alpha-graph or
    beta-graph must be G again.  Returns, per item, the SphericalCode or
    the exception that item raises (ReconstructionResidual,
    ParameterDomain, CertificateInvalid or AmbiguousPair), with the
    vectors and messages of realize_from_alpha / realize_from_beta.
    """
    grams = [_gram(G, P, route) for G, P, _ in items]
    # a stack of one is a view of its matrix, not a copy
    grams = grams[0][None] if len(grams) == 1 else np.stack(grams)
    factors = _factor_stack(grams, [r for _, _, r in items], tol)
    graph_of = alpha_graph if route == "alpha" else beta_graph
    out = []
    for (G, P, rank_r), U in zip(items, factors):
        if isinstance(U, Exception):
            out.append(U)
            continue
        d = rank_r if dim is None else dim
        if d < rank_r:
            out.append(ParameterDomain(
                "requested dimension %d below certified rank %d"
                % (d, rank_r)))
            continue
        if d > rank_r:
            U = np.hstack([U, np.zeros((U.shape[0], d - rank_r))])
        code = SphericalCode(alpha=P.alpha, beta=P.beta, dim=d, vectors=U)
        try:
            same = graph_of(code, tol) == G
        except (CertificateInvalid, AmbiguousPair) as exc:
            out.append(exc)
            continue
        out.append(code if same else ReconstructionResidual(
            "%s-graph round trip failed" % route))
    return out


def _realize_one(G: Graph, params: CodeParameters, rank_r: int, tol: float,
                 dim: int | None, route: str) -> SphericalCode:
    """realize_stack on a stack of one: the code, or its exception raised."""
    code = realize_stack([(G, params, rank_r)], route, tol, dim)[0]
    if isinstance(code, Exception):
        raise code
    return code


def realize_from_alpha(G: Graph, params: CodeParameters,
                       tol: float = DEFAULT_TOL,
                       dim: int | None = None,
                       cert: AlphaCertificate | None = None) -> SphericalCode:
    """Unit vectors realizing G as an alpha-graph, in dimension rank_r.

    Entries of the Gram matrix are alpha across edges and beta across
    non-edges; a larger ambient dimension pads with zero coordinates.
    cert, when given, is certify_alpha(G, params, tol) already computed.
    """
    if cert is None:
        cert = certify_alpha(G, params, tol)
    if not cert.valid:
        raise CertificateInvalid("graph does not certify: %s"
                                 % cert.failure_reason)
    return _realize_one(G, params, cert.rank_r, tol, dim, "alpha")


def realize_from_beta(G: Graph, params: CodeParameters,
                      tol: float = DEFAULT_TOL,
                      dim: int | None = None) -> SphericalCode:
    """Unit vectors realizing G as a beta-graph, in dimension rank_r."""
    if params.alpha > 0:
        cert = certify_beta(G, params, tol)
    elif params.alpha == 0:
        cert = certify_beta_zero(G, (params.exact or params).beta, tol)
    else:
        raise ParameterDomain("beta-graph realizations need alpha >= 0")
    if not cert.valid:
        raise CertificateInvalid("graph does not certify: %s"
                                 % cert.failure_reason)
    return _realize_one(G, params, cert.rank_r, tol, dim, "beta")


# ---------------------------------------------------------------------------
# JSON code files
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """A Fraction as a/b, any other number with 17 significant digits."""
    return str(x) if isinstance(x, Fraction) else "%.17g" % float(x)


def dumps_code(code: SphericalCode) -> str:
    """Serialize a code with 17 significant digits, byte-stable layout."""
    rows = [",\n".join("      [%s]" % ", ".join(_fmt(x) for x in row)
                       for row in code.vectors)]
    return ("{\n"
            '  "alpha": %s,\n'
            '  "beta": %s,\n'
            '  "dim": %d,\n'
            '  "vectors": [\n%s\n  ]\n'
            "}\n") % (_fmt(code.alpha), _fmt(code.beta), code.dim, rows[0])


def loads_code(text: str) -> SphericalCode:
    """Parse a code file; unknown fields are ignored.  A top level that
    is not an object, or a field missing or of the wrong type, raises
    ValueError: alpha, beta and dim must not be booleans, alpha, beta
    and every vector entry must be finite (JSON's NaN and Infinity are
    refused), and dim must be a nonnegative integer (an integral float
    such as 2.0 is read as one)."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("code file is not a JSON object")
    for key in ("alpha", "beta", "dim", "vectors"):
        if key not in obj:
            raise ValueError("code file is missing %r" % key)
    for key in ("alpha", "beta", "dim"):
        if isinstance(obj[key], bool):
            raise ValueError("code file field %r is a boolean, not a number"
                             % key)
    dim = obj["dim"]
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if not isinstance(dim, int) or dim < 0:
        raise ValueError("code file field 'dim' must be a nonnegative "
                         "integer, got %r" % (obj["dim"],))
    try:
        alpha, beta = float(obj["alpha"]), float(obj["beta"])
        vectors = np.array(obj["vectors"], dtype=float)
    except TypeError as exc:
        raise ValueError("code file has a field of the wrong type: %s"
                         % exc) from None
    for key, value in (("alpha", alpha), ("beta", beta),
                       ("vectors", vectors)):
        if not np.isfinite(value).all():
            raise ValueError("code file field %r has a non-finite value" % key)
    if vectors.ndim == 1 and vectors.size == 0:
        vectors = vectors.reshape(0, dim)
    return SphericalCode(alpha=alpha, beta=beta, dim=dim, vectors=vectors)


def save_code(code: SphericalCode, path):
    with open(path, "w") as fh:
        fh.write(dumps_code(code))


def load_code(path) -> SphericalCode:
    with open(path) as fh:
        return loads_code(fh.read())
