"""Code parameters, spherical codes, and the two certification routes.

A spherical code here is a set of unit vectors whose pairwise inner
products all lie in {alpha, beta} with beta < alpha.  Splitting the pairs
by which value they take yields two complementary graphs, and membership
of a graph in either family is decided by spectral conditions on small
shifted adjacency matrices.  certify_alpha handles the alpha-graph side
(needs beta < 0), certify_beta the beta-graph side (needs alpha > 0), and
certify_beta_zero the {0, beta} specialization.  Each certificate carries
the rank of the realizing code, and realize_from_* rebuilds unit vectors
from the certified Gram matrix.

Parameters given as Fractions run the entire decision path in exact
arithmetic; floats use the tolerance policy from the linalg module.  The
arithmetic is chosen once: shifted_graph picks the kernel by the type of
the shift, and each decision is written once against the kernel's zero
band cut, which is 0 on the exact path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (AmbiguousPair, CertificateInvalid, ParameterDomain,
                     ReconstructionResidual)
from .graphs import Graph
from .linalg import DEFAULT_TOL


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ExactParameters:
    """The scalars of CodeParameters as Fractions, under the same names."""

    alpha: Fraction
    beta: Fraction
    mu: Fraction
    lam: Fraction
    p: Fraction | None


@dataclass(frozen=True)
class CodeParameters:
    """An admissible inner-product pair and its derived quantities.

    mu = (1-beta)/(alpha-beta) and lam = (1-alpha)/(alpha-beta) are the
    shifts entering the two certification routes; p = (alpha-beta)/(-beta)
    is the quadratic-form budget and exists only for beta < 0.  ``exact``
    is populated when both inputs are rational, and switches every
    certificate decision to exact arithmetic.  It has the same field
    names, so ``P = params.exact or params`` gives alpha, beta, mu, lam
    and p in the arithmetic of the backend that decides.
    """

    alpha: float
    beta: float
    mu: float
    lam: float
    p: float | None
    exact: ExactParameters | None

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
        if _is_exact(alpha) and _is_exact(beta):
            a, b = Fraction(alpha), Fraction(beta)
            exact = ExactParameters(
                alpha=a, beta=b,
                mu=(1 - b) / (a - b),
                lam=(1 - a) / (a - b),
                p=(a - b) / (-b) if b < 0 else None)
        return cls(alpha=af, beta=bf,
                   mu=(1.0 - bf) / (af - bf),
                   lam=(1.0 - af) / (af - bf),
                   p=(af - bf) / (-bf) if bf < 0 else None,
                   exact=exact)


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


def verify_code(vectors, alpha: float, beta: float,
                tol: float = DEFAULT_TOL) -> VerifyReport:
    """Check unit norms and two-distance structure of a vector set.

    A pair only needs to be within tol of one of the two values; codes
    where a value never occurs still verify.
    """
    V = np.asarray(vectors, dtype=float)
    norms = []
    pairs = []
    present = set()
    for i in range(V.shape[0]):
        nv = float(np.linalg.norm(V[i]))
        if abs(nv - 1.0) > tol:
            norms.append((i, nv))
    for i in range(V.shape[0]):
        for j in range(i + 1, V.shape[0]):
            val = float(V[i] @ V[j])
            if abs(val - alpha) <= tol:
                present.add("alpha")
            elif abs(val - beta) <= tol:
                present.add("beta")
            else:
                pairs.append((i, j, val))
    return VerifyReport(valid=not norms and not pairs,
                        norm_violations=norms, pair_violations=pairs,
                        values_present=present)


def _split_graph(code: SphericalCode, tol: float, which: str) -> Graph:
    alpha, beta = code.alpha, code.beta
    if abs(alpha - beta) <= 2 * tol:
        raise AmbiguousPair("alpha and beta are closer than 2*tol")
    V = code.vectors
    n = V.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            val = float(V[i] @ V[j])
            da, db = abs(val - alpha), abs(val - beta)
            if min(da, db) > tol:
                raise CertificateInvalid(
                    "pair (%d, %d) has inner product %r, near neither value"
                    % (i, j, val))
            if (da < db) == (which == "alpha"):
                edges.append((i, j))
    return Graph(n, edges)


def alpha_graph(code: SphericalCode, tol: float = DEFAULT_TOL) -> Graph:
    """Graph with an edge where the inner product equals alpha."""
    return _split_graph(code, tol, "alpha")


def beta_graph(code: SphericalCode, tol: float = DEFAULT_TOL) -> Graph:
    """Graph with an edge where the inner product equals beta."""
    return _split_graph(code, tol, "beta")


def code_rank(code: SphericalCode, tol: float = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, the true ambient dimension of the code."""
    return linalg.rank_sym(code.gram(), tol)


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


def rational_shift(G: Graph, shift: Fraction, sign: int):
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


def _bordered(G: Graph, diag: int, edge: int, other: int) -> list:
    """The integer matrix diag on the diagonal, edge on the edges of G and
    other elsewhere, bordered by the all-ones vector: the input B of
    linalg.bareiss_bordered, written from the adjacency bitmasks."""
    n = G.n
    B = []
    for v, row in enumerate(G.rows):
        Bv = [edge if row >> u & 1 else other for u in range(n)]
        Bv[v] = diag
        Bv.append(1)
        B.append(Bv)
    B.append([1] * n + [0])
    return B


def _shift_matrix(G: Graph, shift, sign: int) -> np.ndarray:
    """shift*I + sign*A as a float matrix written from the bitmasks.

    Each entry is computed as numpy computes shift * np.eye(n) + sign * A,
    so a non-edge is shift*0.0 + sign*0.0: +0.0 for a positive shift
    whatever the sign, never the -0.0 of -A, which would change LAPACK's
    last bits.
    """
    off = shift * 0.0
    return G.matrix(shift + sign * 0.0, off + sign, off + sign * 0.0)


def shifted_graph(G: Graph, shift, sign: int,
                  tol: float = DEFAULT_TOL) -> linalg.Shifted:
    """The kernel facts of A + shift*I (sign=+1) or shift*I - A (sign=-1).

    The arithmetic of shift picks the kernel, and either way the matrix
    is written from G.rows straight into that backend's trusted core,
    with no validation: it is symmetric by construction.  A Fraction runs
    the exact integer core linalg.bareiss_bordered (cut 0) on
    L (A + shift I) or L (shift I - A), L the denominator of shift; a
    float runs the spectral core linalg.shifted_trusted at tol' (values
    set) on the float matrix, bit for bit the matrix and the facts of
    linalg.shifted(shift * np.eye(n) + sign * A).  The decisions read the
    same fields.
    """
    if isinstance(shift, Fraction):
        den = shift.denominator
        return linalg.bareiss_bordered(
            _bordered(G, shift.numerator, sign * den, 0), den, 1)
    return linalg.shifted_trusted(_shift_matrix(G, shift, sign), tol)


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
    k = shifted_graph(G, P.mu, +1, tol)
    exact = k.values is None
    smallest = None if exact else float(k.values[-1] - P.mu)

    def verdict(**fields) -> AlphaCertificate:
        return AlphaCertificate(smallest_eigenvalue=smallest, exact=exact,
                                **fields)

    if k.inertia.neg:
        return verdict(valid=False, failure_reason="eigenvalue_below")
    q = k.quadform
    if q is None:
        return verdict(valid=False, failure_reason="j_not_in_range")
    if q > P.p + k.cut:
        return verdict(valid=False, failure_reason="quadform_exceeds",
                       quadform=q)
    equality = abs(q - P.p) <= k.cut
    return verdict(valid=True, rank_r=k.rank - 1 if equality else k.rank,
                   quadform=q, equality_case=equality)


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
    k = shifted_graph(G, (params.exact or params).lam, -1, tol)
    exact = k.values is None
    if k.inertia.neg:
        return BetaCertificate(valid=False, failure_reason="eigenvalue_above",
                               exact=exact)
    return BetaCertificate(valid=True, case="p1" if k.rank == G.n else "p2",
                           rank_r=k.rank, exact=exact)


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
    k = shifted_graph(G, P.lam, -1, tol)
    exact = k.values is None
    if k.inertia.neg == 0:
        if k.inertia.zero == 0:
            return BetaCertificate(valid=True, case="one", rank_r=G.n,
                                   exact=exact)
        return BetaCertificate(valid=True, case="two", rank_r=k.rank + 1,
                               exact=exact)
    if k.inertia.neg > 1:
        return BetaCertificate(valid=False, failure_reason="negative_inertia",
                               exact=exact)
    bound = (P.alpha - P.beta) / (-P.alpha)
    q = k.quadform
    if q is None:
        return BetaCertificate(valid=False, case="three",
                               failure_reason="j_not_in_range", exact=exact)
    if q > bound + k.cut:
        return BetaCertificate(valid=False, case="three", quadform=q,
                               failure_reason="quadform_exceeds", exact=exact)
    equality = abs(q - bound) <= k.cut
    return BetaCertificate(valid=True, case="three",
                           rank_r=k.rank - 1 if equality else k.rank,
                           quadform=q, equality_case=equality, exact=exact)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def _factor_gram(Gram: np.ndarray, rank_r: int, tol: float) -> np.ndarray:
    """Unit rows U with U U^T = Gram, dimension rank_r, deterministic signs.

    Gram is symmetric by construction and goes straight to the float
    core.  Each eigenvector column is signed so that its first entry
    above 1e-12 in absolute value is positive.
    """
    spec, cut = linalg.eigh_trusted(Gram, tol)
    keep = spec.values > cut
    rank = int(np.count_nonzero(keep))
    if rank != rank_r:
        raise ReconstructionResidual(
            "Gram matrix has %d positive eigenvalues, certificate says %d"
            % (rank, rank_r))
    V = spec.vectors[:, keep]
    big = np.abs(V) > 1e-12
    lead = V[big.argmax(axis=0), np.arange(V.shape[1])]
    flip = big.any(axis=0) & (lead < 0)
    U = V * np.where(flip, -1.0, 1.0) * np.sqrt(spec.values[keep])
    resid = float(np.max(np.abs(U @ U.T - Gram))) if U.size else float(
        np.max(np.abs(Gram)))
    if resid > 10 * cut:
        raise ReconstructionResidual("reconstruction residual %g" % resid)
    norms = np.linalg.norm(U, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > cut:
        raise ReconstructionResidual("realized vectors drift off the sphere")
    return U / norms[:, None]


def _realize(G: Graph, params: CodeParameters, Gram: np.ndarray,
             rank_r: int, tol: float, dim: int | None,
             route: str) -> SphericalCode:
    """The tail shared by realize_from_alpha and realize_from_beta.

    Factors the Gram matrix, pads the vectors with zero coordinates up to
    dim (ParameterDomain below rank_r), and checks that the code's
    alpha-graph or beta-graph (route) is G again.
    """
    U = _factor_gram(Gram, rank_r, tol)
    d = rank_r if dim is None else dim
    if d < rank_r:
        raise ParameterDomain("requested dimension %d below certified rank %d"
                              % (d, rank_r))
    if d > rank_r:
        U = np.hstack([U, np.zeros((U.shape[0], d - rank_r))])
    code = SphericalCode(alpha=params.alpha, beta=params.beta, dim=d,
                         vectors=U)
    graph_of = alpha_graph if route == "alpha" else beta_graph
    if graph_of(code, tol) != G:
        raise ReconstructionResidual("%s-graph round trip failed" % route)
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
    a, b = params.alpha, params.beta
    Gram = (a - b) * _shift_matrix(G, params.mu, +1) + b
    return _realize(G, params, Gram, cert.rank_r, tol, dim, "alpha")


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
    a, b = params.alpha, params.beta
    Gram = (a - b) * _shift_matrix(G, params.lam, -1) + a
    return _realize(G, params, Gram, cert.rank_r, tol, dim, "beta")


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
    """Parse a code file; unknown fields are ignored."""
    obj = json.loads(text)
    for key in ("alpha", "beta", "dim", "vectors"):
        if key not in obj:
            raise ValueError("code file is missing %r" % key)
    vectors = np.array(obj["vectors"], dtype=float)
    if vectors.ndim == 1 and vectors.size == 0:
        vectors = vectors.reshape(0, int(obj["dim"]))
    return SphericalCode(alpha=float(obj["alpha"]), beta=float(obj["beta"]),
                         dim=int(obj["dim"]), vectors=vectors)


def save_code(code: SphericalCode, path):
    with open(path, "w") as fh:
        fh.write(dumps_code(code))


def load_code(path) -> SphericalCode:
    with open(path) as fh:
        return loads_code(fh.read())
