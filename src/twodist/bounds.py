"""Necessary conditions and size bounds derived from the certificates.

The check_* functions test consequences that every valid alpha-graph must
satisfy: a quadratic-form inequality for each vertex subset, an
independence-number cap, forbidden cliques above the realization rank,
and budget/rank conditions for neighborhood subgraphs.  Violations would
falsify a certificate, so exhaustive runs double as consistency tests.

The *_bound functions produce upper bounds on code sizes: the classical
two-distance dimension bound, a Turan-type count, a tensor-power count,
and a recursion step that trades the dimension against new parameters.
sandwich_bounds squeezes the extremal size between a stacking
construction and a rank-ratio cap over a family of candidate graphs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .certificates import (AlphaCertificate, CodeParameters, certify_alpha,
                           shifted_graph)
from .errors import EmptyFamilyError, InvariantViolation, SizeGuardError
from .graphs import (Graph, contains_clique, delete_closed_neighborhood,
                     independence_number, is_complete, is_connected,
                     subgraph_on_neighbors, _check_vertex)
from .linalg import DEFAULT_TOL

# check_subgraph_inequality sweeps all 2^n subsets when none is given
MAX_SUBSET_SWEEP_N = 20


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


def _le(a, b, tol: float) -> bool:
    """a <= b, exactly for rationals, with relative slack for floats."""
    if not (isinstance(a, float) or isinstance(b, float)):
        return a <= b
    a, b = float(a), float(b)
    return a <= b + tol * max(1.0, abs(a), abs(b))


def _shift_rank(cert: AlphaCertificate) -> int:
    # rank of A + mu I; the certificate lowered rank_r by one in the
    # equality case
    return cert.rank_r + (1 if cert.equality_case else 0)


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

    With subset given, checks that one subgraph (its vertices must lie in
    range(G.n), and there must be at least one; the witness is
    sorted(set(subset))); with subset None, sweeps every nonempty vertex
    subset and reports the first violation, in the order of the subset
    bitmasks, as witness.  The right inequality reduces to q <= p, which
    holds for any valid certificate, so the sweep only multiplies out the
    left one.  The sweep costs 2^n integer steps, each mask's e(H) taken
    from the mask without its top vertex, plus one comparison per
    distinct (t, e) pair: the verdict depends on nothing else.
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
    q = cert.quadform
    P = params.exact or params

    def left_ok(t: int, e: int) -> bool:
        return _le(t * t, (2 * e + t * P.mu) * q, tol)

    right_ok = _le(q, P.p, tol)
    if subset is not None:
        mask = sum(1 << v for v in subset)
        e = sum((G.rows[v] & mask).bit_count() for v in subset) // 2
        holds = left_ok(len(subset), e) and right_ok
        return BoundReport(name="subgraph", applicable=True, holds=holds,
                           value=float(q), witness=subset)
    if G.n > MAX_SUBSET_SWEEP_N:
        raise SizeGuardError("the subset sweep is guarded to n <= %d; "
                             "pass a subset" % MAX_SUBSET_SWEEP_N)
    # edges[mask] is e(H) on mask, at most 190 under the guard; verdict
    # is 0 (undecided), 1 (holds) or 2 (fails) per (t, e), at t << 8 | e
    edges = bytearray(1 << G.n)
    verdict = bytearray((G.n + 1) << 8)
    for v, row in enumerate(G.rows):
        top = 1 << v
        for rest in range(top):
            e = edges[rest] + (row & rest).bit_count()
            mask = top | rest
            edges[mask] = e
            t = mask.bit_count()
            ok = verdict[t << 8 | e]
            if not ok:
                ok = verdict[t << 8 | e] = 1 if left_ok(t, e) else 2
            if ok == 2:
                bad = [u for u in range(v + 1) if mask >> u & 1]
                return BoundReport(name="subgraph", applicable=True,
                                   holds=False, value=float(q), witness=bad)
    return BoundReport(name="subgraph", applicable=True, holds=right_ok,
                       value=float(q))


def check_independence(G: Graph, params: CodeParameters,
                       tol: float = DEFAULT_TOL,
                       cert: AlphaCertificate | None = None) -> BoundReport:
    """Independent sets have at most mu q(G) <= (1-beta)/(-beta) vertices."""
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("independence", cert)
    t = independence_number(G)
    P = params.exact or params
    cap, roof = P.mu * cert.quadform, (1 - P.beta) / (-P.beta)
    holds = _le(t, cap, tol) and _le(cap, roof, tol)
    return BoundReport(name="independence", applicable=True, holds=holds,
                       value=float(cap), floored=math.floor(float(cap) + tol),
                       witness=t)


def check_clique_free(G: Graph, params: CodeParameters,
                      tol: float = DEFAULT_TOL,
                      cert: AlphaCertificate | None = None) -> BoundReport:
    """A graph realizable in rank r, other than K_{r+1} itself, has no K_{r+1}."""
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("clique_free", cert)
    r = cert.rank_r
    if is_complete(G) and G.n == r + 1:
        return BoundReport(name="clique_free", applicable=True, holds=True,
                           value=float(r + 1), note="exceptional complete graph")
    holds = not contains_clique(G, r + 1)
    return BoundReport(name="clique_free", applicable=True, holds=holds,
                       value=float(r + 1))


def check_neighborhood(G: Graph, params: CodeParameters, u: int | None = None,
                       tol: float = DEFAULT_TOL,
                       cert: AlphaCertificate | None = None) -> BoundReport:
    """Budget and rank conditions on neighborhood subgraphs.

    For each vertex u of a valid alpha-graph, the subgraph on the
    neighbors of u obeys q <= (alpha-beta)/(alpha^2-beta) and loses at
    least one rank against A + mu I; deleting the closed neighborhood
    obeys q <= (alpha-beta)/(-beta (1-beta)) with the same rank drop.
    Empty subgraphs are skipped with a note.  u, when given, must be a
    vertex of G (ValueError otherwise).
    """
    if u is not None:
        _check_vertex(G, u)
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("neighborhood", cert)
    P = params.exact or params
    a, b = P.alpha, P.beta
    budget_nbr = (a - b) / (a * a - b)
    budget_del = (a - b) / (-b * (1 - b))
    rank_all = _shift_rank(cert)
    vertices = range(G.n) if u is None else [u]
    details = []
    holds = True
    skipped = 0
    for v in vertices:
        for tag, H, budget in (
                ("neighbors", subgraph_on_neighbors(G, v), budget_nbr),
                ("deleted", delete_closed_neighborhood(G, v), budget_del)):
            if H.n == 0:
                skipped += 1
                details.append((v, tag, "skipped empty"))
                continue
            k = shifted_graph(H, P.mu, +1, tol)
            if k.quadform is None:
                holds = False
                details.append((v, tag, "j not in range"))
                continue
            good = _le(k.quadform, budget, tol) and k.rank <= rank_all - 1
            holds = holds and good
            details.append((v, tag, float(k.quadform), k.rank, good))
    note = "%d empty subgraphs skipped" % skipped if skipped else None
    return BoundReport(name="neighborhood", applicable=True, holds=holds,
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
    A Fraction mu decides membership exactly.
    """
    lower, lower_wit = d + 1, None
    upper, upper_wit = None, None
    members = 0
    for G in graphs:
        if not is_connected(G):
            continue
        k = shifted_graph(G, mu, +1, tol)
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
    """floor(val): exact for rationals, with slack for float rounding."""
    if isinstance(val, float):
        return math.floor(val + DEFAULT_TOL * max(1.0, val))
    return math.floor(val)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(y))


def recursion_map(params: CodeParameters) -> CodeParameters:
    """Parameters seen by a derived code on the neighbors of a vertex.

    alpha maps to alpha/(1+alpha) and beta to (beta-alpha^2)/(1-alpha^2).
    Two identities pin the map down: mu is preserved, and the new budget p
    equals (alpha-beta)/(alpha^2-beta) of the original parameters while
    the new beta is negative.  Every call checks both, exactly on the
    rational path and to within 1e-9 * max(1, |value|) on the float path;
    a failure raises InvariantViolation.
    """
    P = params.exact or params
    a, b = P.alpha, P.beta
    mapped = CodeParameters.make(a / (1 + a), (b - a * a) / (1 - a * a))
    # rationals meet the identities exactly, floats up to rounding
    same = operator.eq if params.exact else _close
    Q = mapped.exact or mapped
    if not same(Q.mu, P.mu):
        raise InvariantViolation("the recursion map did not preserve mu")
    if not (Q.beta >= 0 or same(Q.p, (a - b) / (a * a - b))):
        raise InvariantViolation("the recursion map broke the budget identity")
    return mapped


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
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    mu = (params.exact or params).mu
    levels = range(0, d + 2) if k is None else [k]
    best = None
    for kk in levels:
        if not 0 <= kk <= d + 1:
            raise ValueError("k must lie in [0, d+1]")
        m = d + 2 - kk
        if mu * mu <= (m // 2) * ((m + 1) // 2):
            continue
        val = (1 << kk) * m - 1
        if best is None or val < best[0]:
            best = (val, kk)
    if best is None:
        return BoundReport(name="power", applicable=False,
                           note="mu below every gate")
    return BoundReport(name="power", applicable=True, value=float(best[0]),
                       floored=best[0], witness=best[1])
