"""Graph.matrix, written from each graph's cached 0/1 table, against the
writer that unpacked the rows on every call (reference.unpack_matrix).

Both writers must give the same bytes, dtype, shape and layout for every
graph and every entry triple the package writes: the shift entries
(mu, +-1.0, 0.0) of the certificates and the Gram entries of the
realizations, a base of -0.0 included.  A Graph is immutable, so the
table is part of no identity: equality, hashing and pickles read the
rows only.
"""

import math
import pickle
import random

import numpy as np
import pytest

from reference import unpack_matrix
from twodist.certificates import (CodeParameters, alpha_graph, certify_alpha,
                                  realize_from_alpha)
from twodist.graphs import (Graph, _canonical_children, cycle_graph,
                            emit_graph6, enumerate_graphs, parse_graph6)
from twodist.search import RATIONAL_GRID


def pentagon():
    c = math.cos(2 * math.pi / 5)
    return CodeParameters.make(c, math.cos(4 * math.pi / 5))


POINTS = [CodeParameters.make(float(P.alpha), float(P.beta))
          for P in RATIONAL_GRID] + [pentagon()]


def gram_entries(P, route):
    """The entries certificates._gram writes for P on the route."""
    a, b = P.alpha, P.beta
    shift, sign, base = (P.mu, 1.0, b) if route == "alpha" else (
        P.lam, -1.0, a)
    s = a - b
    return (s * shift + base, s * sign + base, base + 0.0)


# the points again with a base of -0.0 on each route
SIGNED_ZERO = [(CodeParameters.make(0.5, -0.0), "alpha"),
               (CodeParameters.make(-0.0, -0.5), "beta")]

ENTRIES = (
    [(P.mu, 1.0, 0.0) for P in POINTS]
    + [(P.lam, -1.0, 0.0) for P in POINTS]
    + [gram_entries(P, route)
       for P in POINTS for route in ("alpha", "beta")]
    + [gram_entries(P, route) for P, route in SIGNED_ZERO]
    + [(0.0, 1.0, 0.0), (3.0, -1.5, 0.25), (-0.0, -0.0, -0.0),
       (1.0, -0.0, -0.0), (math.inf, math.nan, -math.inf)]
)


def assert_same_bits(M, R):
    assert M.dtype == R.dtype == np.float64
    assert M.shape == R.shape
    assert M.flags.c_contiguous and R.flags.c_contiguous
    assert M.tobytes() == R.tobytes()


def assert_writers_agree(G, entries=ENTRIES):
    # the first write fills the table and every later one reads it
    for diag, edge, other in entries:
        assert_same_bits(G.matrix(diag, edge, other),
                         unpack_matrix(G, diag, edge, other))


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


@pytest.mark.parametrize("n", range(8))
def test_table_writer_is_the_unpack_writer_on_every_graph(n):
    for G in enumerate_graphs(n):
        assert_writers_agree(G)
        assert_writers_agree(Graph.from_rows(G.rows), ENTRIES[:3])


def test_table_writer_is_the_unpack_writer_on_random_graphs():
    rng = random.Random(23)
    for n in list(range(0, 13)) + [31, 32, 33, 63, 64, 70]:
        for _ in range(3):
            G = rand_graph(rng, n, rng.random())
            assert_writers_agree(G, rng.sample(ENTRIES, 6))


def test_table_writer_on_every_constructor_path():
    rng = random.Random(29)
    graphs = []
    for _ in range(20):
        G = rand_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        graphs += [G, Graph.from_rows(G.rows), G.complement(),
                   parse_graph6(emit_graph6(G))]
    graphs += [child for parent in enumerate_graphs(5)
               for _, child, _ in _canonical_children(parent)]
    realized = 0
    for P in POINTS:
        for G in (cycle_graph(5), rand_graph(rng, 8, 0.5)):
            if certify_alpha(G, P).valid:
                H = alpha_graph(realize_from_alpha(G, P))
                assert H == G
                graphs.append(H)
                realized += 1
    assert realized and len(graphs) > 200
    for G in graphs:
        assert G._table is None
        assert_writers_agree(G)


def test_writes_on_one_graph_are_independent():
    G = rand_graph(random.Random(31), 9, 0.5)
    first = [G.matrix(*e) for e in ENTRIES]
    for M, e in zip(first, ENTRIES):
        assert_same_bits(M, unpack_matrix(G, *e))
        # overwriting a returned matrix leaves the next write unchanged
        M[:] = np.nan
        assert_same_bits(G.matrix(*e), unpack_matrix(G, *e))
        assert not np.shares_memory(M, G._table)
    A = G.adjacency()
    A[0, 1] = 7.0
    assert G.adjacency()[0, 1] == unpack_matrix(G, 0.0, 1.0, 0.0)[0, 1]


def test_the_table_is_part_of_no_identity():
    rng = random.Random(37)
    for _ in range(50):
        G = rand_graph(rng, rng.randint(0, 10), rng.random())
        fresh = Graph.from_rows(G.rows)
        G.adjacency()
        assert G._table is not None and fresh._table is None
        assert G == fresh and fresh == G and hash(G) == hash(fresh)
        assert len({G, fresh}) == 1


def test_a_pickled_graph_writes_the_same_bits():
    rng = random.Random(41)
    for _ in range(50):
        G = rand_graph(rng, rng.randint(0, 12), rng.random())
        for written in (False, True):
            if written:
                G.matrix(2.0, -1.0, 0.0)
            H = pickle.loads(pickle.dumps(G))
            assert H == G and hash(H) == hash(G)
            assert_writers_agree(H, ENTRIES[::4])
            for e in ENTRIES[::4]:
                assert_same_bits(H.matrix(*e), G.matrix(*e))
