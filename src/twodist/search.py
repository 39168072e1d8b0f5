"""Exhaustive small-scale searches over canonical graphs.

capacity(r, p, mu, ...) computes the largest order of a graph whose
shifted adjacency A + mu I is positive semidefinite with rank at most r,
keeps the all-ones vector in its column space, and whose quadratic form
is below (strict mode) or exactly at (equal mode) the budget p.  The two
modes combine into the maximum size of a spherical two-distance code in
a given dimension, and into the capacity of derived neighbor codes.

capacity does not scan every graph.  Positive semidefiniteness of
A + mu I and rank at most r pass to every induced subgraph (Cauchy
interlacing; a principal submatrix never has larger rank), so every
qualifying graph is a one-vertex extension of a graph that passes both.
_grow grows that tree of canonical survivors once per (mu, r_max) by
orderly generation (graphs._canonical_children), and keeps each
survivor's kernel facts at its own cut.  A child's matrix is its
parent's plus one row, so the test (_hereditary) takes the parent's
state and the neighbour mask, before any child is written: exactly
certificates._Family writes that row and extends the parent's
elimination by it (linalg.extend_psd, t packed steps for rank t), on
floats it borders the parent's A + mu I and reads one spectrum.  A
survivor keeps its state for its own children and reads its leaf
facts off it.
_ask answers any (r <= r_max, p, mode) query by filtering those facts,
which is where the range and budget tests, not inherited, run.  The
float backend prunes at the loosest cut any leaf on n_max vertices uses,
whatever r: a survivor's own cut is smaller, so its own rank is at least
its prune rank, pruning never drops a graph a leaf test accepts, and the
rank <= r part of the tree at r_max is the tree at r.  So every search
grows one tree and asks all its queries of it.

Searches are capped at n_max vertices and report honestly whether the
cap binds: any qualifying graph rescales to a two-distance set in
dimension rank(A + mu I), so orders never exceed the dimension bound at
the rank cap, and a cap at or above that bound makes the search
exhaustive.

oracle_cross_check validates certificates against an independent ground
truth: the Gram candidate with unit diagonal, alpha on edges and beta on
non-edges, tested for positive semidefiniteness and rank in exact
integers, then realized and re-extracted.  The enumeration is orderly
too, so each Gram candidate extends its canonical parent's elimination
at the same grid point by one row (_Family.extend), and a child of
an indefinite candidate is indefinite (interlacing).  The certified
pairs of one order are realized together, up to _REALIZE_BLOCK of them
per stacked call (certificates.realize_stack).  linalg.bareiss_bordered,
the kernel for a whole matrix, runs only inside the certificates here.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

import numpy as np

from . import linalg
from .bounds import dgs_bound, power_bound, turan_bound
from .certificates import (CodeParameters, certify_alpha, realize_from_alpha,
                           realize_stack, _fmt, _Family, _shift_matrix)
from .errors import (AmbiguousPair, CertificateInvalid, ParameterDomain,
                     ReconstructionResidual, SizeGuardError)
from .graphs import (complete_graph, emit_graph6, empty_graph,
                     enumerate_graphs, parse_graph6, _canonical_children)
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
    stats says what the search did: for capacity the backend ("exact" or
    "float"), "tested" and "kept" (children given the hereditary test and
    canonical survivors, per order) and "rejected" (counts per test:
    psd, rank, range, budget).  A search that merges a strict and an
    equal query holds the one tree they read (backend, "r_max", "tested",
    "kept", and the tree's psd and rank prunes under "pruned") and each
    query's leaf rejections under "leaf", keyed by mode.
    """

    query: str
    value: int
    extremal_graphs: list
    exhaustive: bool
    stats: dict = field(default_factory=dict)


def _leaf_rejection(k, r: int, p, mode: str):
    """The first leaf test that the kernel facts k of A + mu I fail, or
    None when the graph qualifies.

    The tests in order: "psd" (A + mu I has a negative eigenvalue), "rank"
    (its rank exceeds r), "range" (j leaves its column space) and "budget"
    (j^T (A + mu I)^# j misses p for the mode).  k compares at its own
    cut, which is 0 on rationals.
    """
    if k.inertia.neg:
        return "psd"
    if k.rank > r:
        return "rank"
    if k.quadform is None:
        return "range"
    _, equal, below = linalg.band(k.quadform, p, k.cut)
    return None if (below if mode == "strict" else equal) else "budget"


def _cut_max(mu: float, n_max: int, tol: float) -> float:
    """The loosest cut a leaf test on at most n_max vertices uses.

    ||A + mu I||_inf <= mu + n - 1, with equality at K_n, so this is
    tol * max(1, mu + n_max - 1); it is computed as the cut of K_n_max
    itself, from the matrix shifted_graph writes, so that it matches that
    leaf's cut to the last bit.
    """
    return linalg.scaled_tol(_shift_matrix(complete_graph(n_max), mu, +1),
                             tol)


def _hereditary(state, mask: int, r: int, mu, cut, family, rejected: dict):
    """The state of the child of a parent with state state by neighbour
    mask mask, or None if it fails: A + mu I is PSD with rank <= r.

    Both tests pass to every induced subgraph (Cauchy interlacing, and a
    principal submatrix never has larger rank), so a child failing them
    has no qualifying descendant.  Exact when cut is None: a state is a
    linalg.Elimination in family, the _Family of L (A + mu I), L the
    denominator of mu, extended by the child's row (family.extend); its
    .shifted(L, 1) are the leaf facts shifted_graph gives.  A child that
    is not PSD gives the verdict of the whole kernel at cap 0.  On
    floats a state is A + mu I, the child's the parent's bordered by the
    mask's 0/1 row and mu, bit for bit what _shift_matrix writes for the
    child.  Floats compare at one fixed cut, which must be _cut_max: at
    that cut both interlacing inequalities still hold, while a child's
    own smaller cut could drop a graph that a descendant's leaf test
    accepts; the eigenvalues are counted there by linalg._count_inertia,
    the certificates' own count.  A failing child is counted in rejected
    by test.
    """
    if cut is None:
        child = family.extend(state, mask)
        neg = isinstance(child, linalg.Capped)
        rank = None if neg else child.rank
    else:
        m = len(state)
        child = np.empty((m + 1, m + 1))
        child[:m, :m] = state
        child[m, :m] = child[:m, m] = [mask >> v & 1 for v in range(m)]
        child[m, m] = mu
        rank, neg, _ = linalg._count_inertia(linalg._eigvalsh(child), cut)
    failed = "psd" if neg else "rank" if rank > r else None
    if failed:
        rejected[failed] += 1
        return None
    return child


def _extend_shard(task):
    """The kept children of (parent, state) pairs, each with its state,
    and the rejections per test (_hereditary)."""
    parents, r, mu, cut, n_max = task
    family = (None if cut is not None
              else _Family(n_max, mu.numerator, mu.denominator, 0))
    rejected = {"psd": 0, "rank": 0}
    grown = []
    for parent, state in parents:
        # the generator runs out within this pass, so state is this parent's
        grown += _canonical_children(parent, lambda mask: _hereditary(
            state, mask, r, mu, cut, family, rejected))
    return grown, rejected


def _pool_size(workers: int, items: int) -> int:
    """Worker processes for a search: at most the cores and the items, >= 1."""
    return max(1, min(workers, os.cpu_count() or 1, items))


def _arguments(r: int, p, mu, n_max: int):
    """capacity's guards; returns p and mu in one arithmetic, both finite."""
    if n_max > 8:
        raise SizeGuardError("capacity scans are guarded to n_max <= 8")
    if r < 1 or n_max < 1:
        raise ValueError("need r >= 1 and n_max >= 1")
    if linalg._rational(p) and linalg._rational(mu):
        p, mu = Fraction(p), Fraction(mu)
    else:
        p, mu = float(p), float(mu)
        for name, x in (("p", p), ("mu", mu)):
            if not math.isfinite(x):
                raise ParameterDomain("capacity needs a finite %s, got %r"
                                      % (name, x))
    if not mu > 1:
        raise ParameterDomain("capacity needs mu > 1")
    if not p > 0:
        raise ParameterDomain("capacity needs p > 0")
    return p, mu


def _grow(mu, r_max: int, n_max: int, tol: float, workers: int):
    """Grow the tree at (mu, r_max) once; return (leaves, stats).

    Level n extends every canonical survivor of level n-1 (level 0 is the
    empty graph) by all neighbour masks; each mask is tested from its
    parent's state (_hereditary) before its child is written, and only a
    child that passes is tested for canonicity.  leaves holds (order,
    graph6, kernel facts at its own cut) per survivor; stats is the tree
    record.  A survivor's Graph parents the next level with its state:
    exactly its linalg.Elimination in the _Family layout at n_max, which
    reads its leaf facts, those of shifted_graph, with no matrix of the
    tree eliminated whole; on floats its A + mu I, whose
    linalg.shifted_trusted are those facts, so no tree Graph writes a
    float matrix.  Parents are dealt, each with its state, into one task
    per worker process, and survivors come back with theirs.
    """
    # floats prune at one fixed cut, not at each child's own
    cut = None if isinstance(mu, Fraction) else _cut_max(mu, n_max, tol)
    stats = {"backend": "exact" if cut is None else "float", "r_max": r_max,
             "tested": {}, "kept": {}, "pruned": {"psd": 0, "rank": 0}}
    # a level never holds more parents than there are graphs on n_max - 1
    # vertices, which is 2^(n_max-2) up to n_max = 4 and more beyond
    shards = _pool_size(workers, 1 << max(0, n_max - 2))
    pool = contextlib.nullcontext()
    if shards > 1:
        # imported here: the pool machinery costs every serial caller about
        # 2 MB of memory and 20 ms of import time
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=shards)
    empty = linalg.EMPTY_ELIMINATION if cut is None else np.zeros((0, 0))
    leaves, parents = [], [(empty_graph(0), empty)]
    with pool:
        mapper = pool.map if shards > 1 else map
        for n in range(1, n_max + 1):
            stats["tested"][n] = len(parents) << (n - 1)
            tasks = [(parents[i::shards], r_max, mu, cut, n_max)
                     for i in range(min(shards, len(parents)))]
            level = []
            for grown, pruned in mapper(_extend_shard, tasks):
                level += grown
                for test, count in pruned.items():
                    stats["pruned"][test] += count
            level.sort(key=itemgetter(0))  # graph6 strings are distinct
            stats["kept"][n] = len(level)
            if not level:
                break
            parents = [(child, k) for _, child, k in level]
            # a float leaf compares at its own cut, not at the pruning cut
            leaves += [(n, g6, k.shifted(mu.denominator, 1) if cut is None
                        else linalg.shifted_trusted(k, tol))
                       for g6, _, k in level]
    return leaves, stats


def _ask(leaves, queries):
    """Answer (r, p, mode) queries, r <= r_max, from one tree's leaves:
    the largest order qualifying in any, the sorted graph6 strings that
    reach it in some query, and the leaf rejections per test by mode."""
    hits, rejected = set(), {}
    for r, p, mode in queries:
        counts = rejected[mode] = dict.fromkeys(
            ("psd", "rank", "range", "budget"), 0)
        for n, g6, k in leaves:
            failed = _leaf_rejection(k, r, p, mode)
            if failed:
                counts[failed] += 1
            else:
                hits.add((n, g6))
    value = max((n for n, _ in hits), default=0)
    return value, sorted(g6 for n, g6 in hits if n == value), rejected


def _capacities(r: int, p, mu, n_max: int, modes, tol: float,
                workers: int) -> list:
    """capacity in each of modes, all read from one tree at (mu, r)."""
    p, mu = _arguments(r, p, mu, n_max)
    leaves, tree = _grow(mu, r, n_max, tol, workers)
    results = []
    for mode in modes:
        value, extremal, leaf = _ask(leaves, [(r, p, mode)])
        query = "N%s(r=%d, p=%s, mu=%s), n_max=%d" % (
            "*" if mode == "equal" else "", r, _fmt(p), _fmt(mu), n_max)
        stats = {"backend": tree["backend"], "tested": dict(tree["tested"]),
                 "kept": dict(tree["kept"]), "rejected": {
                     test: tree["pruned"].get(test, 0) + count
                     for test, count in leaf[mode].items()}}
        results.append(SearchResult(
            query=query, value=value, extremal_graphs=extremal,
            exhaustive=n_max >= dgs_bound(r), stats=stats))
    return results


def capacity(r: int, p, mu, n_max: int, mode: str = "strict",
             tol: float = DEFAULT_TOL, workers: int = 1) -> SearchResult:
    """Largest order of a graph meeting the rank, range and budget tests.

    Grows the tree at (mu, r) up to n_max vertices, disconnected graphs
    included, keeping only those whose A + mu I is PSD with rank at most
    r: every induced subgraph of a qualifying graph passes both, so
    nothing qualifying is lost.  One query then runs the leaf tests on
    every survivor.  Rational p and mu search exactly; floats compare
    with tolerance.  Exhaustive once n_max reaches the two-distance
    dimension bound at rank r.  stats records the backend, the children
    tested and the survivors kept per order, and the rejections per test.
    """
    if mode not in ("strict", "equal"):
        raise ValueError("mode must be strict or equal")
    return _capacities(r, p, mu, n_max, (mode,), tol, workers)[0]


def max_code_size(alpha, beta, d: int, n_max: int, tol: float = DEFAULT_TOL,
                  workers: int = 1) -> SearchResult:
    """Maximum size of a code with the given inner products in dimension d.

    The strict capacity at rank d and the equality capacity at rank d+1
    cover the two ways a code of rank at most d arises; their maximum is
    the answer.  Both are queries of one tree at (mu, d + 1), whose rank
    <= d part is the tree at rank d.  Every extremal graph is certified
    once and realized at its certified rank, which both queries cap at
    d (zero coordinates up to d would add nothing to a norm or a product,
    only n x d floats), and the realization's round trip is its
    verification: alpha_graph reads the pair products of _pair_rows, the
    products verify_code reads, and puts each within tol of alpha or
    beta; the rows are unit vectors (_factor_stack normalizes them), so
    verify_code at any tolerance of at least tol accepts the code.  Its
    complement is the beta-graph of the same vectors, with the same Gram
    matrix and rank, so for alpha > 0 certify_beta of the complement
    would only repeat the certificate (exactly it agrees; a float one is
    read at its own cut) and is not asked.
    """
    params = CodeParameters.make(alpha, beta)
    if params.beta >= 0:
        raise ParameterDomain("code-size search needs beta < 0")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    P = params.exact or params
    p, mu = _arguments(d + 1, P.p, P.mu, n_max)
    leaves, tree = _grow(mu, d + 1, n_max, tol, workers)
    value, extremal, leaf = _ask(leaves,
                                 [(d, p, "strict"), (d + 1, p, "equal")])
    for g6 in extremal:
        G = parse_graph6(g6)
        realize_from_alpha(G, params, tol, cert=certify_alpha(G, params, tol))
    caps = [dgs_bound(d)]
    for rep in (turan_bound(params, d), power_bound(params, d)):
        if rep.applicable:
            caps.append(rep.floored)
    query = "N[alpha=%s, beta=%s](d=%d), n_max=%d" % (
        _fmt(P.alpha), _fmt(P.beta), d, n_max)
    return SearchResult(query=query, value=value, extremal_graphs=extremal,
                        exhaustive=n_max >= min(caps),
                        stats=dict(tree, leaf=leaf))


def neighborhood_capacity_f(alpha, beta, d: int, n_max: int,
                            tol: float = DEFAULT_TOL,
                            workers: int = 1) -> SearchResult:
    """Capacity of codes derived on the neighbors of a vertex.

    The strict and the equality query, both with budget
    p' = (alpha-beta)/(alpha^2-beta) at rank cap d, read one tree at
    (mu, d), and nothing else is grown.  On rationals, where the
    recursion map is admissible, the result never exceeds max_code_size
    at the mapped parameters in dimension d: those keep mu, have the
    budget p' and a negative beta, (beta-alpha^2)/(1-alpha^2), so
    max_code_size asks (d, p', strict) and (d + 1, p', equal) of the
    tree at (mu, d + 1), whose rank <= d part is this tree.  Every
    strict hit here is one of its strict hits, and every equal hit one
    of its equal hits.
    """
    params = CodeParameters.make(alpha, beta)
    if params.beta >= 0:
        raise ParameterDomain("the derived-code capacity needs beta < 0")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    P = params.exact or params
    p2, mu = _arguments(d, P.budget_nbr, P.mu, n_max)
    leaves, tree = _grow(mu, d, n_max, tol, workers)
    value, extremal, leaf = _ask(leaves,
                                 [(d, p2, "strict"), (d, p2, "equal")])
    query = "f(alpha=%s, beta=%s, d=%d), n_max=%d" % (
        _fmt(P.alpha), _fmt(P.beta), d, n_max)
    return SearchResult(query=query, value=value, extremal_graphs=extremal,
                        exhaustive=n_max >= dgs_bound(d),
                        stats=dict(tree, leaf=leaf))


# the most (graph, point) pairs the oracle realizes in one stacked call,
# which keeps its memory bounded on the largest orders it is guarded for;
# larger blocks bought no speed at --max-n 6 and held more memory
_REALIZE_BLOCK = 1 << 7

# the errors that mean a certified graph does not realize back to itself
_ROUND_TRIP_FAILURES = (ReconstructionResidual, CertificateInvalid,
                        AmbiguousPair)


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
    survive a realize/extract round trip.  The Gram candidate, scaled to
    integers, is decided by extending its canonical parent's (G less
    its last vertex) linalg.Elimination at the same point by its last
    row; a child of a parent that is not PSD inherits the capped
    verdict, the one a whole elimination in the same pivot order
    reaches.  No quadratic form is built: only the verdict and the rank
    are read.  The valid pairs of an order are realized in stacked
    calls of at most _REALIZE_BLOCK pairs; a
    pair whose realization raises ReconstructionResidual,
    CertificateInvalid or AmbiguousPair is a round-trip mismatch, and any
    other error propagates.  Mismatches come in the order of graph, then
    grid point.
    """
    if n_max > 7:
        raise SizeGuardError("oracle cross-check is guarded to n_max <= 7")
    if n_max < 1:
        raise ValueError("the oracle cross-check needs n_max >= 1")
    grid = RATIONAL_GRID if parameter_grid is None else tuple(parameter_grid)
    # the Gram candidate scaled to integers: D on the diagonal, D alpha on
    # edges and D beta elsewhere, D = lcm of the two denominators, as one
    # family of rows per grid point
    scaled = []
    for P in grid:
        ex = P.exact
        if ex is None:
            raise ValueError("the oracle needs exact rational parameters")
        D = math.lcm(ex.alpha.denominator, ex.beta.denominator)
        scaled.append((P, _Family(n_max, D, (ex.alpha * D).numerator,
                                  (ex.beta * D).numerator),
                       float(ex.alpha), float(ex.beta)))
    checked, mismatches = 0, []
    # the eliminations of the previous order's Gram candidates, per grid
    # point, keyed by the graph's rows: a linalg.Elimination when PSD, the
    # capped verdict otherwise
    states = {(): [linalg.EMPTY_ELIMINATION] * len(scaled)}
    for n in range(1, n_max + 1):
        # one [where, kind] per check of the order, by graph, then grid
        # point, and each valid pair with the index of its check
        checks, valid, level = [], [], {}
        low = (1 << n - 1) - 1
        for G in enumerate_graphs(n):
            g6 = emit_graph6(G)
            # the canonical parent is G less its last vertex, and its Gram
            # candidate is the child's less its last row and column
            above = states[tuple(row & low for row in G.rows[:-1])]
            mask, facts = G.rows[-1], []
            for (P, family, fa, fb), parent in zip(scaled, above):
                c = certify_alpha(G, P, tol)
                # interlacing: a child of a matrix that is not PSD is not
                fact = (parent if isinstance(parent, linalg.Capped)
                        else family.extend(parent, mask))
                facts.append(fact)
                kind = None
                if c.valid == isinstance(fact, linalg.Capped):
                    kind = "validity"
                elif c.valid and fact.rank != c.rank_r:
                    kind = "rank"
                elif c.valid:
                    valid.append((len(checks), (G, P, c.rank_r)))
                checks.append([(g6, fa, fb), kind])
            level[G.rows] = facts
        states = level
        # stacked realizations; a graph that does not come back is a
        # round-trip mismatch, any other error is the program's own
        for lo in range(0, len(valid), _REALIZE_BLOCK):
            block = valid[lo:lo + _REALIZE_BLOCK]
            outs = realize_stack([item for _, item in block], "alpha", tol)
            for (at, _), out in zip(block, outs):
                if isinstance(out, _ROUND_TRIP_FAILURES):
                    checks[at][1] = "round_trip"
                elif isinstance(out, Exception):
                    raise out
        checked += len(checks)
        mismatches += [where + (kind,) for where, kind in checks if kind]
    return OracleCrossCheck(checked=checked, mismatches=mismatches)
