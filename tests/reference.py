"""Reference implementations that the suite compares the package against.

bareiss_bordered is the list-of-lists fraction-free elimination that the
packed-row core in twodist.linalg replaced, with its body unchanged, and
shifted_exact is the rational front end written over it.  rational_shift
and _rejection are the rational matrix of a shifted adjacency and the
leaf test of a single graph, which the search and the certificates no
longer need themselves.  induced_subgraph, subgraph_on_neighbors and
delete_closed_neighborhood are the subgraph builders that the
neighborhood check used before it read every neighborhood off the
parent's matrix, and check_neighborhood_by_subgraphs is that check's
per-subgraph body, one subgraph and one kernel call per neighborhood.

check_subgraph_inequality_by_sweep, check_independence_by_roof,
check_clique_free_by_search and check_neighborhood_by_subgraphs are the
brute-force bodies of the four derived checks, which the package now
decides by their theorems (see the bounds module): the sweep of every
vertex subset that compares t^2 <= (2e + t mu) q in integers and q <= p
with _le, the independence number and the cap mu q against the roof
(1-beta)/(-beta), which CodeParameters once carried as a field, the
search for a K_{r+1} by contains_clique, which graphs no longer has,
and each neighborhood's q against its budget with _le and its rank
against rank(A + mu I) - 1 (_shift_rank).  Each is the body the package
ran, with the same guards.  Their helpers _le (a <= b, with relative
slack tol on floats) and _shift_rank (the rank of A + mu I read off a
certificate) moved here from bounds.  The suite runs them on forged
certificates, where the theorems do not apply, and on every valid one,
where the package's reports must equal theirs.
check_subgraph_inequality_in_fractions and
check_neighborhood_in_fractions are the sweep and the neighborhood
check before they compared in integers and read their budgets from
CodeParameters: every exact comparison is one of Fractions built per
call, through _le, and every budget is recomputed per call.  On floats
they run the same float operations as the package ran.

read_shifted is the float reader before it took precomputed
coefficients and read a full-rank spectrum without the off-range mask,
count_inertia the inertia count before it compared on Python floats,
and shifted_trusted the float kernel over both.  verify_code and
split_graph are the per-pair loops that checked a code and extracted its
alpha- or beta-graph before the pair products were taken a block of
rows at a time.

factor_gram is the single-matrix Gram factorization that the stacked
certificates._factor_stack replaced, with its body unchanged, and
gram_matrix writes its Gram matrix as the realizations did, from the
float shifted adjacency in two whole-matrix passes.

Hereditary is search._Hereditary with the call it had before its float
branch counted the eigenvalues with linalg._count_inertia: psd read off
the least eigenvalue and the rank summed by numpy, the body unchanged.

shifted and eigen_decompose are the validating float front ends that
linalg had without a caller in the package: each checks and
symmetrizes a caller's matrix and runs the float core on it.  rank_sym
is the one whose only caller, certificates.code_rank, now adds up
linalg.inertia itself.
"""

import math
from fractions import Fraction

import numpy as np

from twodist import linalg
from twodist.bounds import BoundReport, _not_applicable, _resolve_cert
from twodist.certificates import (AlphaCertificate, CodeParameters,
                                  SphericalCode, VerifyReport, shifted_graph,
                                  shifted_principal, _shift_matrix)
from twodist.errors import (AmbiguousPair, CertificateInvalid,
                            ReconstructionResidual, SizeGuardError)
from twodist.graphs import (MAX_INDEPENDENCE_N, Graph, _bits, _check_vertex,
                            independence_number, is_complete)
from twodist.linalg import (DEFAULT_TOL, Inertia, Shifted, Spectrum,
                            _as_symmetric, eigh_trusted, inertia)
from twodist.search import _Hereditary, _leaf_rejection

# check_subgraph_inequality_by_sweep sweeps all 2^n subsets when none is
# given
MAX_SUBSET_SWEEP_N = 20


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


def induced_subgraph(G: Graph, vertices) -> Graph:
    """Induced subgraph on the given vertices, keeping their relative order."""
    verts = sorted(set(vertices))
    if verts and not (0 <= verts[0] and verts[-1] < G.n):
        raise ValueError("vertices out of range for n=%d" % G.n)
    index = {v: i for i, v in enumerate(verts)}
    keep = sum(1 << v for v in verts)
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in _bits(G.rows[v] & keep):
            rows[i] |= 1 << index[u]
    # the restriction of symmetric, loop-free rows: no from_rows checks
    return Graph._trusted(rows)


def subgraph_on_neighbors(G: Graph, u: int) -> Graph:
    """The subgraph induced on the open neighborhood of u."""
    _check_vertex(G, u)
    return induced_subgraph(G, _bits(G.rows[u]))


def delete_closed_neighborhood(G: Graph, u: int) -> Graph:
    """The subgraph induced on everything outside N[u]."""
    _check_vertex(G, u)
    keep = [v for v in range(G.n) if v != u and not G.has_edge(u, v)]
    return induced_subgraph(G, keep)


def check_neighborhood_by_subgraphs(G: Graph, params: CodeParameters,
                                    u: int | None = None,
                                    tol: float = DEFAULT_TOL,
                                    cert: AlphaCertificate | None = None
                                    ) -> BoundReport:
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


def check_subgraph_inequality_in_fractions(
        G: Graph, params: CodeParameters, subset=None,
        tol: float = DEFAULT_TOL,
        cert: AlphaCertificate | None = None) -> BoundReport:
    """check_subgraph_inequality_by_sweep, each (t, e) pair compared by
    _le on t^2 and the Fraction (2 e + t mu) q."""
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


def check_subgraph_inequality_by_sweep(
        G: Graph, params: CodeParameters, subset=None,
        tol: float = DEFAULT_TOL,
        cert: AlphaCertificate | None = None) -> BoundReport:
    """t^2 <= (2 e(H) + t mu) q(G) <= p (2 e(H) + t mu) for induced H.

    With subset given, checks that one subgraph (its vertices must lie in
    range(G.n), and there must be at least one; the witness is
    sorted(set(subset))); with subset None, sweeps every nonempty vertex
    subset and reports the first violation, in the order of the subset
    bitmasks, as witness.  The right inequality reduces to q <= p, which
    holds for any valid certificate, so the sweep only multiplies out the
    left one.  The sweep costs 2^n integer steps, each mask's e(H) taken
    from the mask without its top vertex, plus one comparison per
    distinct (t, e) pair: the verdict depends on nothing else.  A
    rational q and mu compare in integers, multiplied out by their
    denominators; a float one compares with relative slack tol.
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
    mu = P.mu
    if isinstance(q, float) or isinstance(mu, float):
        def left_ok(t: int, e: int) -> bool:
            return _le(t * t, (2 * e + t * mu) * q, tol)
    else:
        # times the positive denominators of mu and q: t^2 qd md <=
        # (2 e md + t mn) qn, in integers
        scale = q.denominator * mu.denominator
        per_edge = 2 * mu.denominator * q.numerator
        per_vertex = mu.numerator * q.numerator

        def left_ok(t: int, e: int) -> bool:
            return t * t * scale <= e * per_edge + t * per_vertex

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


def check_independence_by_roof(
        G: Graph, params: CodeParameters, tol: float = DEFAULT_TOL,
        cert: AlphaCertificate | None = None) -> BoundReport:
    """Independent sets have at most mu q(G) <= (1-beta)/(-beta) vertices.

    floored is the floor of the cap mu q(G): exact for a rational cap, and
    math.floor(cap + tol) for a float one.
    """
    cert = _resolve_cert(G, params, tol, cert)
    if not cert.valid:
        return _not_applicable("independence", cert)
    t = independence_number(G)
    P = params.exact or params
    cap, roof = P.mu * cert.quadform, (1 - P.beta) / (-P.beta)
    holds = _le(t, cap, tol) and _le(cap, roof, tol)
    floored = (math.floor(cap) if isinstance(cap, Fraction)
               else math.floor(float(cap) + tol))
    return BoundReport(name="independence", applicable=True, holds=holds,
                       value=float(cap), floored=floored, witness=t)


def check_clique_free_by_search(
        G: Graph, params: CodeParameters, tol: float = DEFAULT_TOL,
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


def check_neighborhood_in_fractions(
        G: Graph, params: CodeParameters, u: int | None = None,
        tol: float = DEFAULT_TOL,
        cert: AlphaCertificate | None = None) -> BoundReport:
    """check_neighborhood_by_subgraphs over shifted_principal's masks,
    with both budgets recomputed per call."""
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
    full = (1 << G.n) - 1
    parts = [(v, tag, S, budget) for v in vertices for tag, S, budget in (
        ("neighbors", G.rows[v], budget_nbr),
        ("deleted", full & ~(G.rows[v] | 1 << v), budget_del))]
    facts = iter(shifted_principal(G, P.mu, +1,
                                   [S for _, _, S, _ in parts if S], tol))
    details = []
    holds = True
    skipped = 0
    for v, tag, S, budget in parts:
        if not S:
            skipped += 1
            details.append((v, tag, "skipped empty"))
            continue
        k = next(facts)
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


def count_inertia(values: np.ndarray, cut: float) -> Inertia:
    """linalg._count_inertia, counted by numpy on the array."""
    pos = int(np.count_nonzero(values > cut))
    neg = int(np.count_nonzero(values < -cut))
    return Inertia(pos, neg, len(values) - pos - neg)


def read_shifted(spec: Spectrum, cut: float, inert: Inertia,
                 v) -> Shifted:
    """linalg._read_shifted with the off-range mask on every spectrum."""
    v = np.ones(len(spec.values)) if v is None else np.asarray(v, dtype=float)
    coeffs = spec.vectors.T @ v
    keep = np.abs(spec.values) > cut
    off = coeffs[~keep]
    if math.sqrt(off.dot(off)) > cut:
        q = None
    else:
        x = spec.vectors[:, keep] @ (coeffs[keep] / spec.values[keep])
        q = float(v @ x)
    return Shifted(spec.values, inert, inert.pos + inert.neg, q, cut)


def shifted_trusted(M: np.ndarray, tol: float = DEFAULT_TOL,
                    v=None) -> Shifted:
    """linalg.shifted_trusted over count_inertia and read_shifted."""
    spec, cut = eigh_trusted(M, tol)
    return read_shifted(spec, cut, count_inertia(spec.values, cut), v)


def verify_code(vectors, alpha: float, beta: float,
                tol: float = DEFAULT_TOL) -> VerifyReport:
    """certificates.verify_code, one norm and one product per call."""
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


def split_graph(code: SphericalCode, tol: float, which: str) -> Graph:
    """certificates._split_graph, one product per pair and an edge list."""
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


def factor_gram(Gram: np.ndarray, rank_r: int, tol: float) -> np.ndarray:
    """Unit rows U with U U^T = Gram, dimension rank_r, deterministic signs.

    Gram is symmetric by construction and goes straight to the float
    core.  Each eigenvector column is signed so that its first entry
    above 1e-12 in absolute value is positive.
    """
    spec, cut = eigh_trusted(Gram, tol)
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


def gram_matrix(G: Graph, params: CodeParameters, route: str) -> np.ndarray:
    """The Gram matrix of G's code on the route (alpha or beta), written
    as (a-b) (A + mu I) + b J or (a-b) (lam I - A) + a J over the float
    shifted adjacency."""
    a, b = params.alpha, params.beta
    if route == "alpha":
        return (a - b) * _shift_matrix(G, params.mu, +1) + b
    return (a - b) * _shift_matrix(G, params.lam, -1) + a


def contains_clique(G: Graph, t: int) -> bool:
    """Whether G contains a clique on t vertices, by branch and bound.

    The search is guarded like independence_number: SizeGuardError above
    MAX_INDEPENDENCE_N vertices.  The trivial cases t <= 1 and t > n are
    answered at any size.
    """
    if t <= 0:
        return True
    if t == 1:
        return G.n >= 1
    if t > G.n:
        return False
    if G.n > MAX_INDEPENDENCE_N:
        raise SizeGuardError("clique search guarded to n <= %d"
                             % MAX_INDEPENDENCE_N)
    rows = G.rows

    def ext(allowed: int, need: int) -> bool:
        if need == 0:
            return True
        while allowed:
            if allowed.bit_count() < need:
                return False
            low = allowed & -allowed
            v = low.bit_length() - 1
            allowed ^= low
            if ext(allowed & rows[v], need - 1):
                return True
        return False

    return ext((1 << G.n) - 1, t)


def eigen_decompose(M, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK (numpy's eigh).

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns.  Only the symmetrized matrix reaches LAPACK, so
    both triangles count.
    """
    return eigh_trusted(_as_symmetric(M, tol), tol)[0]


def rank_sym(M, tol: float = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix, counted from its spectrum."""
    pos, neg, _ = inertia(M, tol)
    return pos + neg


def shifted(M, tol: float = DEFAULT_TOL) -> Shifted:
    """The certificate facts about a shifted adjacency matrix, one spectrum.

    For symmetric M (A + mu I or lam I - A) and the all-ones vector j:
    the spectrum, the inertia and rank at the cut tol', and the quadratic
    form j^T M^# j, read from the same decomposition, with tol' as the
    cut.  M is positive semidefinite iff inertia.neg == 0.  This is the
    validating front end of shifted_trusted: M must be square and
    symmetric within tol' (ValueError otherwise) and is symmetrized.
    """
    return linalg.shifted_trusted(_as_symmetric(M, tol), tol)


class Hereditary(_Hereditary):
    """search._Hereditary before its float branch used _count_inertia."""

    def __call__(self, G):
        if self.cut is None:
            k = shifted_graph(G, self.mu, +1)
            psd, rank = not k.inertia.neg, k.rank
        else:
            values = np.linalg.eigvalsh(_shift_matrix(G, self.mu, +1))
            psd = values[0] >= -self.cut
            rank = int(np.sum(values > self.cut))
            k = True
        failed = "psd" if not psd else "rank" if rank > self.r else None
        if failed:
            self.rejected[failed] += 1
            return None
        return k
