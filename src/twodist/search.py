"""Exhaustive small-scale searches over canonical graphs.

capacity(r, p, mu, ...) computes the largest order of a graph whose
shifted adjacency A + mu I is positive semidefinite with rank at most r,
keeps the all-ones vector in its column space, and whose quadratic form
is below (strict mode) or exactly at (equal mode) the budget p.  The two
modes combine into the maximum size of a spherical two-distance code in
a given dimension, and into the capacity of derived neighbor codes.

Searches are capped at n_max vertices and report honestly whether the
cap binds: any qualifying graph rescales to a two-distance set in
dimension rank(A + mu I), so orders never exceed the dimension bound at
the rank cap, and a cap at or above that bound makes the scan
exhaustive.

oracle_cross_check validates certificates against an independent ground
truth: the Gram candidate with unit diagonal, alpha on edges and beta on
non-edges, tested for positive semidefiniteness and rank by the exact
rational backend, then realized and re-extracted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .bounds import dgs_bound, power_bound, recursion_map, turan_bound
from .certificates import (CodeParameters, alpha_graph, certify_alpha,
                           certify_beta, rational_shift, realize_from_alpha,
                           verify_code, _is_exact)
from .errors import InvariantViolation, ParameterDomain, SizeGuardError
from .graphs import emit_graph6, enumerate_graphs, parse_graph6
from .linalg import DEFAULT_TOL

RATIONAL_GRID = tuple(
    CodeParameters.make(a, b)
    for b in (Fraction(-1), Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4))
    for a in (Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(1, 2))
    if b < a)

BETA_GRID = tuple(
    CodeParameters.make(a, b)
    for b in (Fraction(-1), Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4))
    for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))


@dataclass
class SearchResult:
    """Outcome of one capped search.

    value is the largest qualifying order (0 when nothing qualifies),
    extremal_graphs the graph6 strings of all canonical graphs attaining
    it, and exhaustive records whether the cap provably did not bind.
    """

    query: str
    value: int
    extremal_graphs: list
    exhaustive: bool


def _fmt_param(x) -> str:
    return str(x) if isinstance(x, Fraction) else "%.17g" % x


def _qualifies(G, r: int, p, mu, mode: str, tol: float) -> bool:
    if isinstance(p, Fraction):
        k = linalg.shifted_exact(rational_shift(G, mu, +1))
        if k.inertia.neg or k.rank > r or k.quadform is None:
            return False
        q = k.quadform
        return q < p if mode == "strict" else q == p
    M = G.adjacency() + mu * np.eye(G.n)
    k = linalg.shifted(M, tol)
    if k.inertia.neg or k.rank > r or k.quadform is None:
        return False
    q = k.quadform
    cut = linalg.scaled_tol(M, tol)
    if mode == "strict":
        return q < p - cut
    return abs(q - p) <= cut


def _scan_chunk(task):
    g6s, r, p, mu, mode, tol = task
    hits = []
    for g6 in g6s:
        G = parse_graph6(g6)
        if _qualifies(G, r, p, mu, mode, tol):
            hits.append((G.n, g6))
    return hits


def _pool_size(workers: int, items: int) -> int:
    """Worker processes for a scan: at most the cores and the items, >= 1."""
    return max(1, min(workers, os.cpu_count() or 1, items))


def capacity(r: int, p, mu, n_max: int, mode: str = "strict",
             tol: float = DEFAULT_TOL, workers: int = 1) -> SearchResult:
    """Largest order of a graph meeting the rank, range and budget tests.

    Scans every canonical graph up to n_max vertices, disconnected ones
    included.  Rational p and mu run the scan exactly; floats compare
    with tolerance.  Exhaustive once n_max reaches the two-distance
    dimension bound at rank r.
    """
    if mode not in ("strict", "equal"):
        raise ValueError("mode must be strict or equal")
    if n_max > 8:
        raise SizeGuardError("capacity scans are guarded to n_max <= 8")
    if r < 1 or n_max < 1:
        raise ValueError("need r >= 1 and n_max >= 1")
    if _is_exact(p) and _is_exact(mu):
        p, mu = Fraction(p), Fraction(mu)
    else:
        p, mu = float(p), float(mu)
    if not mu > 1:
        raise ParameterDomain("capacity needs mu > 1")
    if not p > 0:
        raise ParameterDomain("capacity needs p > 0")
    g6s = [emit_graph6(G) for n in range(1, n_max + 1)
           for G in enumerate_graphs(n)]
    size = _pool_size(workers, len(g6s))
    if size > 1:
        # imported here: the pool machinery costs every serial caller about
        # 2 MB of memory and 20 ms of import time
        from concurrent.futures import ProcessPoolExecutor
        tasks = [(g6s[i::size], r, p, mu, mode, tol) for i in range(size)]
        with ProcessPoolExecutor(max_workers=size) as pool:
            hits = [h for part in pool.map(_scan_chunk, tasks) for h in part]
    else:
        hits = _scan_chunk((g6s, r, p, mu, mode, tol))
    value = max((n for n, _ in hits), default=0)
    extremal = sorted(g6 for n, g6 in hits if n == value)
    star = "*" if mode == "equal" else ""
    query = "N%s(r=%d, p=%s, mu=%s), n_max=%d" % (
        star, r, _fmt_param(p), _fmt_param(mu), n_max)
    return SearchResult(query=query, value=value, extremal_graphs=extremal,
                        exhaustive=n_max >= dgs_bound(r))


def max_code_size(alpha, beta, d: int, n_max: int, tol: float = DEFAULT_TOL,
                  workers: int = 1) -> SearchResult:
    """Maximum size of a code with the given inner products in dimension d.

    The strict capacity at rank d and the equality capacity at rank d+1
    cover the two ways a code of rank at most d arises; their maximum is
    the answer.  Every extremal graph is cross-validated: realized into
    dimension d, verified, and (for alpha > 0) its complement must pass
    the beta-graph certificate with the same rank.
    """
    params = CodeParameters.make(alpha, beta)
    if params.beta >= 0:
        raise ParameterDomain("code-size search needs beta < 0")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if params.exact is not None:
        p, mu = params.exact.p, params.exact.mu
    else:
        p, mu = params.p, params.mu
    strict = capacity(d, p, mu, n_max, "strict", tol, workers)
    equal = capacity(d + 1, p, mu, n_max, "equal", tol, workers)
    value = max(strict.value, equal.value)
    extremal = sorted(set(
        (strict.extremal_graphs if strict.value == value else []) +
        (equal.extremal_graphs if equal.value == value else [])))
    verify_tol = max(tol, 1e-8)
    for g6 in extremal:
        G = parse_graph6(g6)
        code = realize_from_alpha(G, params, tol, dim=d)
        if not verify_code(code.vectors, params.alpha, params.beta,
                           verify_tol).valid:
            raise InvariantViolation(
                "extremal graph %s realizes an invalid code" % g6)
        if params.alpha > 0:
            ac = certify_alpha(G, params, tol)
            bc = certify_beta(G.complement(), params, tol)
            if not (bc.valid and bc.rank_r == ac.rank_r):
                raise InvariantViolation(
                    "extremal graph %s: the beta certificate of its "
                    "complement disagrees" % g6)
    caps = [dgs_bound(d)]
    for rep in (turan_bound(params, d), power_bound(params, d)):
        if rep.applicable:
            caps.append(rep.floored)
    query = "N[alpha=%s, beta=%s](d=%d), n_max=%d" % (
        _fmt_param(alpha if params.exact else params.alpha),
        _fmt_param(beta if params.exact else params.beta), d, n_max)
    return SearchResult(query=query, value=value, extremal_graphs=extremal,
                        exhaustive=n_max >= min(caps))


def neighborhood_capacity_f(alpha, beta, d: int, n_max: int,
                            tol: float = DEFAULT_TOL,
                            workers: int = 1) -> SearchResult:
    """Capacity of codes derived on the neighbors of a vertex.

    Both the strict and the equality scan run with budget
    (alpha-beta)/(alpha^2-beta) at rank cap d.  When the parameter
    recursion stays in the admissible domain, the result is checked
    against the searched maximum at the mapped parameters, which it can
    never exceed.
    """
    params = CodeParameters.make(alpha, beta)
    if params.beta >= 0:
        raise ParameterDomain("the derived-code capacity needs beta < 0")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if params.exact is not None:
        ex = params.exact
        p2, mu = (ex.alpha - ex.beta) / (ex.alpha ** 2 - ex.beta), ex.mu
    else:
        a, b = params.alpha, params.beta
        p2, mu = (a - b) / (a * a - b), params.mu
    strict = capacity(d, p2, mu, n_max, "strict", tol, workers)
    equal = capacity(d, p2, mu, n_max, "equal", tol, workers)
    value = max(strict.value, equal.value)
    extremal = sorted(set(
        (strict.extremal_graphs if strict.value == value else []) +
        (equal.extremal_graphs if equal.value == value else [])))
    try:
        mapped = recursion_map(params)
    except ParameterDomain:
        mapped = None
    if mapped is not None:
        if mapped.exact is not None:
            a0, b0 = mapped.exact.alpha, mapped.exact.beta
        else:
            a0, b0 = mapped.alpha, mapped.beta
        roof = max_code_size(a0, b0, d, n_max, tol, workers)
        if value > roof.value:
            raise InvariantViolation(
                "derived capacity %d exceeds the searched maximum %d at the "
                "mapped parameters" % (value, roof.value))
    query = "f(alpha=%s, beta=%s, d=%d), n_max=%d" % (
        _fmt_param(alpha if params.exact else params.alpha),
        _fmt_param(beta if params.exact else params.beta), d, n_max)
    return SearchResult(query=query, value=value, extremal_graphs=extremal,
                        exhaustive=n_max >= dgs_bound(d))


@dataclass
class OracleCrossCheck:
    checked: int
    mismatches: list  # (graph6, alpha, beta, kind)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def oracle_cross_check(n_max: int, parameter_grid=None,
                       tol: float = DEFAULT_TOL) -> OracleCrossCheck:
    """Compare certificates against the direct Gram construction.

    For every canonical graph up to n_max and every grid point, the
    certificate verdict must match positive semidefiniteness of the Gram
    candidate (unit diagonal, alpha on edges, beta elsewhere), the
    certified rank must match its exact rank, and valid graphs must
    survive a realize/extract round trip.
    """
    if n_max > 7:
        raise SizeGuardError("oracle cross-check is guarded to n_max <= 7")
    grid = RATIONAL_GRID if parameter_grid is None else tuple(parameter_grid)
    for P in grid:
        if P.exact is None:
            raise ValueError("the oracle needs exact rational parameters")
    checked = 0
    mismatches = []
    for n in range(1, n_max + 1):
        for G in enumerate_graphs(n):
            g6 = emit_graph6(G)
            for P in grid:
                ex = P.exact
                checked += 1
                c = certify_alpha(G, P, tol)
                Gram = [[1 if i == j else
                         (ex.alpha if G.has_edge(i, j) else ex.beta)
                         for j in range(n)] for i in range(n)]
                fact = linalg.shifted_exact(Gram)
                if c.valid != (fact.inertia.neg == 0):
                    mismatches.append((g6, float(ex.alpha), float(ex.beta),
                                       "validity"))
                    continue
                if not c.valid:
                    continue
                if fact.rank != c.rank_r:
                    mismatches.append((g6, float(ex.alpha), float(ex.beta),
                                       "rank"))
                    continue
                try:
                    code = realize_from_alpha(G, P, tol)
                    if alpha_graph(code, tol) != G:
                        raise ValueError("extracted graph differs")
                except Exception:
                    mismatches.append((g6, float(ex.alpha), float(ex.beta),
                                       "round_trip"))
    return OracleCrossCheck(checked=checked, mismatches=mismatches)
