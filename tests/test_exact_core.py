"""The packed-row exact core against two independent references.

The list-of-lists Bareiss elimination it replaced (tests/reference.py)
must give the same Shifted, field for field, and sympy's exact Matrix
must give the same rank, inertia and quadratic form: the rank from
rank(), the inertia from Descartes' rule of signs on the characteristic
polynomial, which is exact because a symmetric matrix has only real
eigenvalues, and the quadratic form from an exact solve.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from twodist import certificates as cert
from twodist import linalg
from twodist.graphs import Graph, enumerate_graphs
from twodist.linalg import Inertia
from twodist.search import RATIONAL_GRID, _Family

SETTINGS = dict(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bordered_inputs(draw, min_n=0):
    """A symmetric integer matrix of order at most 10 and a vector v.

    The matrices are dense, with a zero diagonal (every pivot of the
    first step comes from the congruence), or of low rank X D X^T with
    D = diag(+-1); entries run up to 2^40.  v is j, zero, random (most
    often outside the column space) or M y (inside it).
    """
    n = draw(st.integers(min_n, 10))
    kind = draw(st.sampled_from(("dense", "zero_diagonal", "low_rank")))
    big = draw(st.sampled_from((1, 2, 8, 1000, 1 << 40)))
    if kind == "low_rank":
        r = draw(st.integers(0, n))
        X = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(n)]
        signs = [draw(st.sampled_from((-1, 1))) for _ in range(r)]
        M = [[sum(s * X[i][t] * X[j][t] for t, s in enumerate(signs))
              for j in range(n)] for i in range(n)]
    else:
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = draw(st.integers(-big, big))
        if kind == "zero_diagonal":
            for i in range(n):
                M[i][i] = 0
    vkind = draw(st.sampled_from(("ones", "zero", "random", "range")))
    if vkind == "ones":
        v = [1] * n
    elif vkind == "zero":
        v = [0] * n
    elif vkind == "random":
        v = [draw(st.integers(-big, big)) for _ in range(n)]
    else:
        y = [draw(st.integers(-2, 2)) for _ in range(n)]
        v = [sum(a * b for a, b in zip(row, y)) for row in M]
    return M, v


def sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sympy_facts(M, v):
    """(inertia, rank, quadform) of M and v from sympy, exactly."""
    A, b = sympy.Matrix(M), sympy.Matrix(v)
    rank = A.rank()
    x = sympy.Symbol("x")
    coeffs = [int(c) for c in A.charpoly(x).all_coeffs()]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    d = len(coeffs) - 1
    inertia = Inertia(sign_changes(coeffs),
                      sign_changes([c * (-1) ** (d - i)
                                    for i, c in enumerate(coeffs)]), zero)
    q = None
    if A.row_join(b).rank() == rank:
        sol, params = A.gauss_jordan_solve(b)
        value = (b.T * sol.subs({p: 0 for p in params}))[0]
        q = Fraction(int(value.p), int(value.q))
    return inertia, rank, q


@settings(max_examples=400, **SETTINGS)
@given(bordered_inputs())
def test_packed_core_matches_list_reference(case):
    M, v = case
    k = linalg.shifted_exact(M, v)
    ref = reference.shifted_exact(M, v)
    assert k == ref
    assert type(k.quadform) is type(ref.quadform)
    assert type(k.cut) is type(ref.cut)


@settings(max_examples=60, **SETTINGS)
@given(bordered_inputs(min_n=1))
def test_packed_core_matches_sympy(case):
    M, v = case
    k = linalg.shifted_exact(M, v)
    inertia, rank, q = sympy_facts(M, v)
    assert (k.inertia, k.rank, k.quadform) == (inertia, rank, q)
    assert k.values is None and k.cut == 0


def paley_conference(q: int):
    """The symmetric conference matrix of order q + 1, q = 1 (mod 4) prime:
    zero diagonal, +-1 elsewhere, C^2 = q I."""
    squares = {i * i % q for i in range(1, q)}
    chi = [0] + [1 if i in squares else -1 for i in range(1, q)]
    return [[0] + [1] * q] + [[1] + [chi[(j - i) % q] for j in range(q)]
                              for i in range(q)]


@pytest.mark.parametrize("q", (5, 13))
@pytest.mark.parametrize("c", (1, 3, 1 << 40))
def test_congruence_at_the_width_bound(q, c):
    # C^2 = q I makes every row of c C have squared norm q c^2 and
    # |det cC| = (q c^2)^(n/2): the matrix meets Hadamard's bound, so at
    # v = 0 its determinant, the last pivot, lies within one bit of the
    # width.  Its diagonal is zero, so the first pivot comes from the
    # congruence, which widens the fields.
    C = paley_conference(q)
    n = q + 1
    M = [[c * x for x in row] for row in C]
    w = linalg.packed_width((q * c * c) ** n)
    det = (q * c * c) ** (n // 2)
    assert 1 << w - 2 <= det < 1 << w - 1
    assert abs(int(sympy.Matrix(M).det())) == det
    half = Inertia(n // 2, n // 2, 0)
    for v, quadform in (([0] * n, 0),
                        ([1] * n, Fraction(sum(map(sum, C)), q * c))):
        k = linalg.shifted_exact(M, v)
        assert k == reference.shifted_exact(M, v)
        assert (k.inertia, k.rank, k.quadform) == (half, n, quadform)


@pytest.mark.parametrize("M, v, inertia, quadform", [
    # w = 2 holds every minor of B, but the congruence's pivot 2 needs 3
    ([[0, 1], [1, 0]], [0, 1], Inertia(1, 1, 0), 0),
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [0, 0, 0], Inertia(1, 1, 1), 0),
    ([[0, 0, 1], [0, 0, -1], [1, -1, 0]], [0, 0, 0], Inertia(1, 1, 1), 0),
    ([[0, 1], [1, 0]], [1, 1], Inertia(1, 1, 0), 2),
    ([[0, (1 << 20) - 1, (1 << 20) - 1], [(1 << 20) - 1, 0, (1 << 20) - 1],
      [(1 << 20) - 1, (1 << 20) - 1, 0]], [1, 1, 1], Inertia(1, 2, 0),
     Fraction(3, 2 * ((1 << 20) - 1))),
])
def test_congruence_widens_the_fields(M, v, inertia, quadform):
    # rows packed at exactly the width packed_width gives; the zero
    # diagonal forces the congruence at once, and its pivot 2 B[k][j] can
    # leave the fields that hold every minor of B
    B = [row + [x] for row, x in zip(M, v)] + [v + [0]]
    w = linalg.packed_width(
        math.prod(max(1, sum(x * x for x in row)) for row in B))
    R = [sum(x << w * i for i, x in enumerate(row)) for row in B]
    k = linalg.bareiss_bordered(R, w, 1, 1)
    assert k == reference.bareiss_bordered(B, 1, 1)
    assert (k.inertia, k.quadform) == (inertia, quadform)


@pytest.mark.parametrize("q", (5, 13))
@pytest.mark.parametrize("p", (1, -2, 1 << 40))
def test_congruence_after_a_regular_pivot(q, p, monkeypatch):
    # M = [[p, p u^T], [p u, p u u^T + Z]] with Z the zero-diagonal Paley
    # matrix: pivot 0 is regular, and it leaves p Z, whose zero diagonal
    # forces the congruence on the repacked rows, after which the
    # remaining pivots read their columns from the wider fields
    rng = random.Random(q * 7 + p % 97)
    Z = paley_conference(q)
    n = q + 2
    u = [rng.randint(-3, 3) for _ in range(n - 1)]
    M = [[p] + [p * x for x in u]] + [
        [p * x] + [p * x * y + z for y, z in zip(u, row)]
        for x, row in zip(u, Z)]
    y = [rng.randint(-2, 2) for _ in range(n)]
    for v in ([1] * n, [0] * n, [rng.randint(-9, 9) for _ in range(n)],
              [sum(a * b for a, b in zip(row, y)) for row in M]):
        packs = []

        def pack(row, w, _pack=linalg._pack):
            packs.append(w)
            return _pack(row, w)

        monkeypatch.setattr(linalg, "_pack", pack)
        k = linalg.shifted_exact(M, v)
        monkeypatch.undo()
        # n + 1 rows packed at first, then the live rows and the border
        # again, two bits wider, at each congruence
        assert len(packs) > n + 1 and max(packs) >= packs[0] + 2
        assert k.rank == n
        assert k == reference.shifted_exact(M, v)


def test_bordered_writes_the_packed_matrix():
    # the bitmask writer (spread by one multiplication and a mask) packs
    # exactly the list matrix, at every width its layout picks, for a
    # whole graph and, one vertex at a time, for each of its prefixes:
    # vertex m's row of the prefix on m + 1 vertices, its fields above m
    # zero and the border at field n
    entries = ((5, 3, 0), (0, 1, 0), (1, -1, 0), (3, 1, -1), (4, -3, 2),
               (1 << 30, -7, 1 << 20))
    for n in range(0, 7):
        for G in enumerate_graphs(n):
            for diag, edge, other in entries:
                R, w = cert._bordered(G, diag, edge, other)
                assert w >= n + 1
                B = [[diag if u == v else edge if G.has_edge(u, v)
                      else other for u in range(n)] + [1]
                     for v in range(n)] + [[1] * n + [0]]
                assert R == [sum(x << w * i for i, x in enumerate(row))
                             for row in B]
                family = cert._Family(n, diag, edge, other)
                assert family.w == w
                for m in range(n):
                    row = B[m][:m + 1] + [0] * (n - m - 1) + [1]
                    assert family.row(m, G.rows[m] & (1 << m) - 1,
                                      m + 1) == sum(
                        x << w * i for i, x in enumerate(row))


def masked_rows(B, fields, w):
    """The packed rows of B restricted to the vertex fields and the
    border: rows outside them are 0, and fields outside them are 0."""
    n = len(B) - 1
    keep = set(fields) | {n}
    R = [0] * (n + 1)
    for i in keep:
        R[i] = sum(x << w * c for c, x in enumerate(B[i]) if c in keep)
    return R


def principal(B, fields):
    """The principal submatrix of B on the fields and the border."""
    rows = list(fields) + [len(B) - 1]
    return [[B[i][c] for c in rows] for i in rows]


@st.composite
def masked_inputs(draw):
    """A bordered_inputs matrix and a sorted random set of its vertices."""
    M, v = draw(bordered_inputs(min_n=1))
    fields = sorted(draw(st.sets(st.integers(0, len(M) - 1))))
    return M, v, fields


@settings(max_examples=200, **SETTINGS)
@given(masked_inputs())
def test_masked_elimination_matches_the_principal_submatrix(case):
    # rows packed at the width of the whole bordered matrix, eliminated
    # on the fields of S only: the facts of the list reference on the
    # principal submatrix, congruence and indefinite inputs included
    M, v, fields = case
    B = [row + [x] for row, x in zip(M, v)] + [v + [0]]
    w = linalg.packed_width(
        math.prod(max(1, sum(x * x for x in row)) for row in B))
    k = linalg.bareiss_bordered(masked_rows(B, fields, w), w, 1, 1, fields)
    assert k == reference.bareiss_bordered(principal(B, fields), 1, 1)


@pytest.mark.parametrize("fields", ([0, 2, 4, 6, 8, 10, 12], list(range(7)),
                                    [1, 2, 3, 5, 8, 13], list(range(14))))
def test_masked_congruence_at_the_width_bound(fields):
    # the Paley matrix of order 14 scaled by 2^40 meets Hadamard's bound,
    # and its principal submatrices start with the congruence too
    M = [[(1 << 40) * x for x in row] for row in paley_conference(13)]
    for v in ([0] * 14, [1] * 14):
        B = [row + [x] for row, x in zip(M, v)] + [v + [0]]
        w = linalg.packed_width(
            math.prod(max(1, sum(x * x for x in row)) for row in B))
        k = linalg.bareiss_bordered(masked_rows(B, fields, w), w, 1, 1,
                                    fields)
        assert k == reference.bareiss_bordered(principal(B, fields), 1, 1)


@st.composite
def capped_inputs(draw):
    """A symmetric rational matrix with a zero-diagonal block, a vector,
    a vertex subset (or None) and a cap.

    The block sits anywhere on the diagonal, so the elimination meets
    the congruence before its first negative pivot or after it.
    """
    n = draw(st.integers(1, 9))
    den = draw(st.sampled_from((1, 2, 3, 12)))
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = Fraction(draw(st.integers(-9, 9)), den)
    size = draw(st.integers(0, n))
    start = draw(st.integers(0, n - size))
    for i in range(start, start + size):
        M[i][i] = Fraction(0)
    vkind = draw(st.sampled_from(("ones", "zero", "random")))
    v = ([Fraction(1)] * n if vkind == "ones" else [Fraction(0)] * n
         if vkind == "zero" else [Fraction(draw(st.integers(-4, 4)), 3)
                                  for _ in range(n)])
    fields = draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1))))
    return M, v, None if fields is None else sorted(fields), draw(
        st.integers(0, 3))


def bordered_rows(M, v, fields):
    """The packed rows, width, L and W that shifted_exact would pass to
    bareiss_bordered for M and v, masked to fields when given."""
    n = len(M)
    L = math.lcm(*(x.denominator for row in M for x in row))
    W = math.lcm(*(x.denominator for x in v))
    B = [[int(x * L) for x in row] + [int(x * W)] for row, x in zip(M, v)]
    B.append([row[n] for row in B] + [0])
    w = linalg.packed_width(
        math.prod(max(1, sum(x * x for x in row)) for row in B))
    if fields is None:
        return [linalg._pack(row, w) for row in B], w, L, W
    return masked_rows(B, fields, w), w, L, W


@settings(max_examples=400, **SETTINGS)
@given(capped_inputs())
def test_capped_kernel_stops_exactly_past_its_cap(case):
    # the capped elimination gives the full facts whenever the negative
    # count is at most the cap, and the Capped result exactly when it
    # goes past it, with the count one above the cap
    M, v, fields, cap = case
    R, w, L, W = bordered_rows(M, v, fields)
    full = linalg.bareiss_bordered(list(R), w, L, W, fields)
    k = linalg.bareiss_bordered(list(R), w, L, W, fields, cap)
    if full.inertia.neg <= cap:
        assert k == full
        assert type(k.quadform) is type(full.quadform)
    else:
        assert k == linalg.Capped(None, Inertia(None, cap + 1, None))
        assert type(k) is linalg.Capped


@pytest.mark.parametrize("M, congruences, capped", [
    # pivot 0 is negative, so cap 0 stops before the zero-diagonal block
    # that the full elimination meets with a congruence
    ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], [True, False], True),
    # a zero diagonal: both runs take the congruence, then the negative
    # pivot, where cap 0 stops
    ([[0, 1], [1, 0]], [True, True], True),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 3]], [True, True], True),
    # positive semidefinite: cap 0 never trips, and every step runs
    ([[0, 0], [0, 2]], [False, False], False),
])
def test_cap_trips_before_or_after_the_congruence(M, congruences, capped,
                                                 monkeypatch):
    # _pack repacks the live rows at each congruence, and nowhere else in
    # the kernel, so its calls count the congruences of each run
    v = [Fraction(1)] * len(M)
    M = [[Fraction(x) for x in row] for row in M]
    R, w, L, W = bordered_rows(M, v, None)
    packs = []

    def pack(row, w, _pack=linalg._pack):
        packs.append(w)
        return _pack(row, w)

    monkeypatch.setattr(linalg, "_pack", pack)
    runs, repacked = [], []
    for cap in (None, 0):
        del packs[:]
        runs.append(linalg.bareiss_bordered(list(R), w, L, W, None, cap))
        repacked.append(bool(packs))
    assert repacked == congruences
    full, k = runs
    assert (type(k) is linalg.Capped) == capped
    assert k == (linalg.Capped(None, Inertia(None, 1, None)) if capped
                 else full)


# ---------------------------------------------------------------------------
# one vertex at a time: linalg.extend_psd
# ---------------------------------------------------------------------------

def prefix(B, m):
    """The bordered list matrix of the first m vertices of B, whose border
    is its last row and column."""
    keep = list(range(m)) + [len(B) - 1]
    return [[B[i][j] for j in keep] for i in keep]


def grown_row(B, m, w):
    """Row m of B in the family layout: fields 0 .. m, the border at the
    field of B's last column."""
    border = len(B) - 1
    return (sum(B[m][i] << w * i for i in range(m + 1))
            + (B[m][border] << w * border))


def extend_each_prefix(B, w, L, W):
    """(extension, the list elimination of the same prefix) for each
    order, up to the first that is not PSD."""
    out, state = [], linalg.EMPTY_ELIMINATION
    for m in range(len(B) - 1):
        state = linalg.extend_psd(state, grown_row(B, m, w), w, len(B) - 1)
        out.append((state, reference.bareiss_bordered(prefix(B, m + 1), L,
                                                      W)))
        if isinstance(state, linalg.Capped):
            break
    return out


@st.composite
def grown_inputs(draw):
    """A bordered integer matrix of order at most 10 whose prefixes are
    mostly PSD: X X^T of low rank with entries up to 3, so free vertices
    and zero diagonals come often, sometimes plus a symmetric
    perturbation that makes some prefix indefinite; v is j, zero,
    random or X y, in the range."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(0, n))
    X = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(n)]
    M = [[sum(a * b for a, b in zip(X[i], X[j])) for j in range(n)]
         for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        e = draw(st.integers(-2, 2))
        M[i][j] += e
        if i != j:
            M[j][i] += e
    vkind = draw(st.sampled_from(("ones", "zero", "random", "range")))
    if vkind == "range":
        y = [draw(st.integers(-2, 2)) for _ in range(r)]
        v = [sum(a * b for a, b in zip(row, y)) for row in X]
    elif vkind == "random":
        v = [draw(st.integers(-3, 3)) for _ in range(n)]
    else:
        v = [1 if vkind == "ones" else 0] * n
    return [row + [x] for row, x in zip(M, v)] + [v + [0]]


@settings(max_examples=400, **SETTINGS)
@given(grown_inputs())
def test_extension_gives_the_whole_elimination_on_every_prefix(B):
    # a PSD prefix's extension reads the facts the list elimination of
    # the whole prefix gives, and the first prefix that is not PSD gives
    # the capped verdict, as the kernel at cap 0 does
    w = linalg.packed_width(
        math.prod(max(1, sum(x * x for x in row)) for row in B))
    for state, want in extend_each_prefix(B, w, 1, 1):
        if want.inertia.neg:
            assert state == linalg.Capped(None, Inertia(None, 1, None))
        else:
            assert state.shifted(1, 1) == want
            assert state.rank == want.rank


def pivot_rows(B, pivots):
    """The rows of the list matrix B at the fraction-free steps that pivot
    on pivots in turn, each as it stood when pivoted, and the border's
    diagonal after them."""
    B = [row[:] for row in B]
    prev, live, rows = 1, set(range(len(B))), []
    for k in pivots:
        Bk = B[k][:]
        rows.append(Bk)
        live.discard(k)
        for i in live:
            f = B[i][k]
            B[i] = [(Bk[k] * a - f * b) // prev for a, b in zip(B[i], Bk)]
        prev = Bk[k]
    return rows, B[-1][-1]


def family_matrix(G, diag, edge, other):
    n = G.n
    B = [[diag if i == j else edge if G.has_edge(i, j) else other
          for j in range(n)] + [1] for i in range(n)]
    return B + [[1] * n + [0]]


def widest_families():
    """(diag, edge, other, L) of the search at mu = 6 and mu = 7/2, and of
    the oracle's Gram candidates at every grid point with D = 4."""
    families = [(6, 1, 0, 1), (7, 2, 0, 2)]
    for P in RATIONAL_GRID:
        a, b = P.exact.alpha, P.exact.beta
        D = math.lcm(a.denominator, b.denominator)
        if D == 4:
            families.append((D, int(a * D), int(b * D), D))
    return families


def test_family_width_holds_every_field_at_n_max_eight():
    # each row of a family is packed at the width of its order n_max = 8
    # bordered matrix, whatever the order of the child: every stored
    # field must decode to the entry the list elimination of the child
    # gives, and the facts must be reference.bareiss_bordered's on the
    # unpacked lists of every prefix
    rng = random.Random(8)
    graphs = [Graph(8, [(i, j) for i in range(8)
                        for j in range(i) if rng.random() < density])
              for density in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0) * 6]
    families = widest_families()
    assert len(families) > 8
    deep = 0
    for diag, edge, other, L in families:
        family = _Family(8, diag, edge, other)
        w, mask, half = family.w, (1 << family.w) - 1, 1 << family.w - 1
        bias = linalg._bias(w, 8)
        for G in graphs:
            state = linalg.EMPTY_ELIMINATION
            for m in range(8):
                state = family.extend(state, G.rows[m] & (1 << m) - 1)
                B = prefix(family_matrix(G, diag, edge, other), m + 1)
                want = reference.bareiss_bordered([row[:] for row in B], L,
                                                  1)
                if isinstance(state, linalg.Capped):
                    assert want.inertia.neg
                    break
                assert state.shifted(L, 1) == want
                fields = list(range(m + 1)) + [8]
                rows, corner = pivot_rows(B, [k for k, _, _ in state.pivots])
                for (k, d, R), row in zip(state.pivots, rows):
                    assert d == row[k]
                    assert [((R + bias) >> w * i & mask) - half
                            for i in fields] == row
                assert state.corner == corner
                deep += m == 7
    assert deep > 100
