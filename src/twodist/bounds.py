"""Necessary conditions and size bounds derived from the certificates.

The check_* functions test consequences that every valid alpha-graph must
satisfy: a quadratic-form inequality for each vertex subset, an
independence-number cap, forbidden cliques above the realization rank,
and budget/rank conditions for neighborhood subgraphs.  A check's cert,
when given, must be certify_alpha(G, params, tol) already computed, as
for certificates.realize_from_alpha; an invalid one makes the report
not applicable.

All four checks are theorems about a valid certificate, so they hold
by proof and enumerate nothing.  q = j^T (A + mu I)^# j is the
supremum of 2 j.x - x^T (A + mu I) x over x, and x = c 1_S gives
t^2 <= (2e + t mu) q for every vertex set S of t vertices and e edges
(check_subgraph_inequality); at e = 0 that is alpha(G) <= mu q
(check_independence).  Their right-hand sides, p (2e + t mu) and
mu p = (1-beta)/(-beta), follow from q <= p, the certificate's budget
test.  An (r+1)-clique in a code of rank r is a regular
simplex centred at the origin, which no further unit vector joins
(check_clique_free).  Projecting the neighbors of a vertex u, or the
vertices off its closed neighborhood, orthogonally to x_u leaves a
Gram matrix (alpha-beta)(M_S - J / budget) >= 0 on that part, which
bounds its q by the budget and, through the Schur complement of u,
drops its rank below rank(A + mu I) (check_neighborhood).  Their
reports still carry q, the cap and its floor, the independence number,
r + 1 and each neighborhood's own q and rank.

The *_bound functions produce upper bounds on code sizes: the classical
two-distance dimension bound, a Turan-type count, a tensor-power count,
and a recursion step that trades the dimension against new parameters.
sandwich_bounds squeezes the extremal size between a stacking
construction and a rank-ratio cap over a family of candidate graphs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .certificates import (AlphaCertificate, CodeParameters, certify_alpha,
                           shifted_graph, shifted_principal)
from .errors import EmptyFamilyError
from .graphs import (Graph, independence_number, is_complete, is_connected,
                     _check_vertex)
from .linalg import DEFAULT_TOL


@dataclass
class BoundReport:
    """Uniform result record for checks and bounds.

    Checks fill holds; bounds fill value and its floor.  applicable is
    False when the premise fails (invalid certificate, parameter gate),
    in which case holds and value say nothing.
    """

    name: str
    applicable: bool
    holds: bool | None = None
    value: float | None = None
    floored: int | None = None
    witness: object = None
    note: str | None = None


def dgs_bound(d: int) -> int:
    """Any spherical two-distance set in dimension d has at most this size."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return d * (d + 3) // 2


def _resolve_cert(G: Graph, params: CodeParameters, tol: float,
                  cert: AlphaCertificate | None) -> AlphaCertificate:
    return cert if cert is not None else certify_alpha(G, params, tol)


def _not_applicable(name: str, cert: AlphaCertificate) -> BoundReport:
    return BoundReport(name=name, applicable=False,
                       note="certificate invalid: %s" % cert.failure_reason)


def check_subgraph_inequality(G: Graph, params: CodeParameters,
                              subset=None, tol: float = DEFAULT_TOL,
                              cert: AlphaCertificate | None = None
                              ) -> BoundReport:
    """t^2 <= (2 e(H) + t mu) q(G) <= p (2 e(H) + t mu) for induced H.

    Holds on every valid certificate, for every vertex set S of t
    vertices spanning e edges.  q is the supremum of 2 j.x - x^T M x
    over x, M = A + mu I, and x = c 1_S gives 2 c t - c^2 (2e + t mu);
    at c = t / (2e + t mu) that is t^2 / (2e + t mu) <= q.  The right
    inequality is q <= p, the certificate's own budget test.  So no
    subset is enumerated: value is q, and with subset given (its
    vertices must lie in range(G.n), and there must be at least one)
    the witness is sorted(set(subset)).
    """
    if subset is not None:
        for v in subset:
            if v not in range(G.n):
                raise ValueError("subset vertex %r is not in range(%d)"
                                 % (v, G.n))
        subset = sorted(set(subset))
        if not subset:
            raise ValueError("the subset must name at least one vertex")
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("subgraph", cert)
    return BoundReport(name="subgraph", applicable=True, holds=True,
                       value=float(cert.quadform), witness=subset)


def check_independence(G: Graph, params: CodeParameters,
                       tol: float = DEFAULT_TOL,
                       cert: AlphaCertificate | None = None) -> BoundReport:
    """Independent sets have at most mu q(G) <= (1-beta)/(-beta) vertices.

    Holds on every valid certificate: an independent set of t vertices is
    the case e = 0 of the subgraph inequality, t^2 <= t mu q, and
    mu q <= mu p = (1-beta)/(-beta) is the budget test q <= p.  value is
    the cap mu q(G), floored its floor (exact for a rational cap,
    math.floor(cap + tol) for a float one), and witness the independence
    number, computed for the report (SizeGuardError above
    graphs.MAX_INDEPENDENCE_N vertices).
    """
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("independence", cert)
    P = params.exact or params
    cap = P.mu * cert.quadform
    floored = (math.floor(cap) if isinstance(cap, Fraction)
               else math.floor(float(cap) + tol))
    return BoundReport(name="independence", applicable=True, holds=True,
                       value=float(cap), floored=floored,
                       witness=independence_number(G))


def check_clique_free(G: Graph, params: CodeParameters,
                      tol: float = DEFAULT_TOL,
                      cert: AlphaCertificate | None = None) -> BoundReport:
    """A graph realizable in rank r, other than K_{r+1} itself, has no K_{r+1}.

    Holds on every valid certificate.  r + 1 unit vectors with pairwise
    inner product alpha span at most r dimensions only when their Gram
    matrix (1 - alpha) I + alpha J is singular, that is alpha = -1/r:
    a regular simplex centred at the origin.  Its vectors sum to 0, so a
    further unit vector x would have inner products with them summing to
    0, while each is alpha or beta, both negative.  So the clique is the
    whole code, the exceptional complete graph, noted as such.  value
    is r + 1.
    """
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("clique_free", cert)
    r = cert.rank_r
    note = ("exceptional complete graph" if is_complete(G) and G.n == r + 1
            else None)
    return BoundReport(name="clique_free", applicable=True, holds=True,
                       value=float(r + 1), note=note)


def check_neighborhood(G: Graph, params: CodeParameters, u: int | None = None,
                       tol: float = DEFAULT_TOL,
                       cert: AlphaCertificate | None = None) -> BoundReport:
    """Budget and rank conditions on neighborhood subgraphs.

    For each vertex u of a valid alpha-graph, the subgraph on the
    neighbors N of u obeys q <= budget_nbr = (alpha-beta)/(alpha^2-beta)
    and loses at least one rank against M = A + mu I; the subgraph on
    D, the vertices off the closed neighborhood, obeys
    q <= budget_del = (alpha-beta)/(-beta (1-beta)) with the same rank
    drop.

    Holds on every valid certificate.  Let x_v be the realized unit
    vectors.  z_v = x_v - alpha x_u (v in N) have the Gram matrix
    (alpha-beta)(M_N - J / budget_nbr), and z_v = x_v - beta x_u (v in D)
    have (alpha-beta)(M_D - J / budget_del).  Each is PSD, so
    x^T M_S x >= (j.x)^2 / budget: j is in range(M_S), and q_S, the
    supremum of 2 j.x - x^T M_S x, is at most the budget.  M on N + u
    is [[mu, j^T], [j, M_N]], whose Schur complement mu - q_N >=
    mu - budget_nbr = -beta (1-alpha)^2 / ((alpha-beta)(alpha^2-beta))
    is positive; M on D + u is diag(mu, M_D).  Both are principal
    submatrices of the PSD M, so rank(M_S) + 1 <= rank(M).

    witness lists each part's q and rank as read, with the flag True
    (or "j not in range" where a read says so), and empty parts are
    skipped with a note.  u, when given, must be a vertex of G
    (ValueError otherwise).  No subgraph is built: each neighborhood is
    a vertex mask, its matrix is a principal submatrix of A + mu I, and
    one shifted_principal call reads all of them.  A part of at most 3
    vertices is read from that call's table of the labelled graphs of
    those orders at mu, built once per shift; larger parts run their
    kernel on every call, with the same facts either way.
    """
    if u is not None:
        _check_vertex(G, u)
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("neighborhood", cert)
    P = params.exact or params
    vertices = range(G.n) if u is None else [u]
    full = (1 << G.n) - 1
    parts = [(v, tag, S) for v in vertices for tag, S in (
        ("neighbors", G.rows[v]), ("deleted", full & ~(G.rows[v] | 1 << v)))]
    facts = iter(shifted_principal(G, P.mu, +1,
                                   [S for _, _, S in parts if S], tol))
    details = []
    skipped = 0
    for v, tag, S in parts:
        if not S:
            skipped += 1
            details.append((v, tag, "skipped empty"))
            continue
        k = next(facts)
        details.append((v, tag, "j not in range") if k.quadform is None
                       else (v, tag, float(k.quadform), k.rank, True))
    note = "%d empty subgraphs skipped" % skipped if skipped else None
    return BoundReport(name="neighborhood", applicable=True, holds=True,
                       witness=details, note=note)


@dataclass
class SandwichReport:
    lower: int
    upper: float
    lower_witness: Graph | None
    upper_witness: Graph | None
    family_size: int


def sandwich_bounds(graphs, mu, d: int,
                    tol: float = DEFAULT_TOL) -> SandwichReport:
    """Two-sided estimate of the extremal size over a candidate family.

    A family member is connected, has smallest adjacency eigenvalue at
    least -mu, keeps the all-ones vector in the column space of A + mu I,
    and that matrix has rank at most d+1.  Stacking floor((d+1)/rank)
    orthogonal copies and padding with simplex directions gives the lower
    bound; the rank ratio caps the upper bound.  K_{d+1} is excluded from
    the lower maximum, where the bare simplex already gives d+1 points.
    A Fraction mu decides membership exactly, and a graph on no vertices
    raises ValueError.
    """
    lower, lower_wit = d + 1, None
    upper, upper_wit = None, None
    members = 0
    for G in graphs:
        if G.n == 0:
            raise ValueError("sandwich bounds need graphs with at least "
                             "one vertex")
        if not is_connected(G):
            continue
        k = shifted_graph(G, mu, +1, tol, cap=0)
        if k.inertia.neg or k.quadform is None:
            continue
        rank = k.rank
        if rank > d + 1:
            continue
        members += 1
        ratio = (d + 1) * G.n / rank
        if upper is None or ratio > upper:
            upper, upper_wit = ratio, G
        if is_complete(G) and G.n == d + 1:
            continue
        k = (d + 1) // rank
        stacked = k * G.n + (d + 1 - rank * k)
        if stacked > lower or (stacked == lower and lower_wit is None):
            lower, lower_wit = stacked, G
    if members == 0:
        raise EmptyFamilyError("no graph qualifies for the family")
    return SandwichReport(lower=lower, upper=float(upper),
                          lower_witness=lower_wit, upper_witness=upper_wit,
                          family_size=members)


def _floor(val) -> int:
    """floor(val): exact for rationals, with slack for float rounding.

    A float bound may come out a few units in its last place short of
    the integer its exact value is, so a float that is not an integer
    and lies within 4 ulp(val) below the next integer floors to it.  The
    slack is counted in the value's own float spacing and an integral
    float is its own floor, so no float floors past the next integer.
    """
    if isinstance(val, float) and not val.is_integer():
        low = math.floor(val)
        return low + (low + 1 - val <= 4 * math.ulp(val))
    return math.floor(val)


def recursion_map(params: CodeParameters) -> CodeParameters:
    """Parameters seen by a derived code on the neighbors of a vertex.

    alpha maps to alpha' = alpha/(1+alpha) and beta to
    beta' = (beta-alpha^2)/(1-alpha^2).  The map keeps mu and sends the
    budget p to (alpha-beta)/(alpha^2-beta), by two lines of algebra:
    alpha' - beta' = (alpha-beta)/(1-alpha^2) and
    1 - beta' = (1-beta)/(1-alpha^2), so mu' = mu; and
    -beta' = (alpha^2-beta)/(1-alpha^2), so p' = (alpha'-beta')/(-beta')
    = (alpha-beta)/(alpha^2-beta) whenever beta' < 0.  Rationals meet
    both exactly, floats up to rounding.  Mapped parameters outside the
    domain raise ParameterDomain (CodeParameters.make).
    """
    P = params.exact or params
    a, b = P.alpha, P.beta
    return CodeParameters.make(a / (1 + a), (b - a * a) / (1 - a * a))


def recursion_bound(params: CodeParameters, f: int) -> BoundReport:
    """Size cap p (f + mu) given a cap f on derived neighbor codes."""
    if params.beta >= 0:
        return BoundReport(name="recursion", applicable=False,
                           note="needs beta < 0")
    P = params.exact or params
    val = P.p * (f + P.mu)
    return BoundReport(name="recursion", applicable=True, value=float(val),
                       floored=_floor(val))


def turan_bound(params: CodeParameters, d: int) -> BoundReport:
    """Clique-count cap, applicable while p < 1 + 1/(d-1).

    Inside the gate the value is max(d+1, mu / ((-alpha)/(alpha-beta) +
    1/d)); the gate is equivalent to positivity of that denominator.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if params.beta >= 0:
        return BoundReport(name="turan", applicable=False,
                           note="needs beta < 0")
    P = params.exact or params
    # rationals gate at the exact 1 + 1/(d-1), floats at its rounded sum
    one = Fraction(1) if params.exact else 1.0
    if d > 1 and not P.p < one + one / (d - 1):
        return BoundReport(name="turan", applicable=False,
                           note="p above the gate")
    denom = (-P.alpha) / (P.alpha - P.beta) + one / d
    val = max(one * (d + 1), P.mu / denom)
    return BoundReport(name="turan", applicable=True, value=float(val),
                       floored=_floor(val))


def power_bound(params: CodeParameters, d: int,
                k: int | None = None) -> BoundReport:
    """Tensor-power cap 2^k (d+2-k) - 1, gated by mu.

    A level k in [0, d+1] applies when mu^2 exceeds
    floor((d+2-k)/2) ceil((d+2-k)/2); with k None the best (smallest)
    applicable value is returned and the chosen k is the witness.

    With m = d+2-k, a step from k to k+1 adds 2^k (m-2) >= 0 to the
    value, so the value never falls as k grows, and the gate only gets
    easier as m falls: the applicable levels are k0 .. d+1 for one k0,
    whose value is the best.  So k0 is found by bisection on m, with the
    gate's own comparison, in O(log d) steps.  A best value that rounds
    past the largest float is reported not applicable, with a note:
    every other applicable value is at least as large.  From k = 1024 on
    2^k m - 1 is at least 2^1024 - 1, so 2^k is never built there.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if k is not None and not 0 <= k <= d + 1:
        raise ValueError("k must lie in [0, d+1]")
    mu = (params.exact or params).mu
    sq = mu * mu

    def gated(m: int) -> bool:
        return not sq <= (m // 2) * ((m + 1) // 2)

    if k is None:
        # the largest gated m in [1, d+2]; 0 and d+3 bracket it
        lo, hi = 0, d + 3
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if gated(mid):
                lo = mid
            else:
                hi = mid
        m = lo
    else:
        m = d + 2 - k if gated(d + 2 - k) else 0
    if not m:
        return BoundReport(name="power", applicable=False,
                           note="mu below every gate")
    k = d + 2 - m
    value = None
    if k < 1024:
        val = (1 << k) * m - 1
        with contextlib.suppress(OverflowError):
            value = float(val)
    if value is None:
        return BoundReport(name="power", applicable=False,
                           note="2^k (d+2-k) - 1 exceeds the float range at "
                                "k=%d" % k)
    return BoundReport(name="power", applicable=True, value=value,
                       floored=val, witness=k)
