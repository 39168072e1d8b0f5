"""Small labeled graphs on adjacency bitsets.

Vertices are 0..n-1 and each row of a Graph is an int bitmask of neighbors.
Everything here targets exhaustive work at small order: graph6 round trips,
isomorphism-free enumeration, and the independence number by branch and
bound.  The bound checks build no subgraphs: a neighborhood is a vertex
mask, read off the parent's rows (certificates.shifted_principal).
Every float matrix of a graph but the search tree's comes from
Graph.matrix, and each graph writes its 0/1 table once, on its first
float write, then reads every matrix off it with one take.

Canonical forms are exact: the lexicographically smallest graph6 bit string
over all relabelings, found by a depth-first search over vertex orderings
with prefix pruning that tries only one of two twin vertices.  No external
isomorphism engine is involved.  That string is hereditary: deleting the
last vertex of a canonical string leaves the canonical string of the
parent.  So enumeration is orderly generation: _canonical_children joins a
new vertex to each canonical parent by every neighbour mask and keeps the
children whose own labeling is canonical, which the same search decides by
stopping at the first smaller prefix.  Every class is emitted once, by its
canonical parent, with no canonicalization or deduplication of children.
The per-order cache holds the Graph levels themselves, so no level goes
through graph6 again.  An optional test of each neighbour mask runs
before its child is written (search.py grows through the same step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import Graph6Error, NotConnectedError, SizeGuardError

MAX_CANONICAL_N = 8
MAX_INDEPENDENCE_N = 32


class Graph:
    """An undirected simple graph held as a tuple of adjacency bitmasks."""

    __slots__ = ("n", "rows", "_table")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("a graph needs n >= 0, got %r" % (n,))
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError("bad edge (%r, %r) for n=%d" % (u, v, n))
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._table = None

    @classmethod
    def from_rows(cls, rows) -> "Graph":
        G = cls._trusted(rows)
        for v, row in enumerate(G.rows):
            if row >> G.n or row >> v & 1:
                raise ValueError("adjacency row out of range or loop at %d" % v)
            for u in _bits(row):
                if not G.rows[u] >> v & 1:
                    raise ValueError("adjacency is not symmetric")
        return G

    @classmethod
    def _trusted(cls, rows: list) -> "Graph":
        """from_rows without its checks, for rows valid by construction."""
        G = cls.__new__(cls)
        G.n = len(rows)
        G.rows = tuple(rows)
        G._table = None
        return G

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u])
                if u < v]

    @property
    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        # symmetric and loop-free by construction: no from_rows checks
        return Graph._trusted([full & ~row & ~(1 << v)
                               for v, row in enumerate(self.rows)])

    def matrix(self, diag: float, edge: float, other: float) -> np.ndarray:
        """The float matrix with diag on the diagonal, edge on the edges and
        other elsewhere, written from the bitmasks.

        Symmetric by construction, bit for bit, so it may go straight to
        linalg._eigh, which reads one triangle: this is the writer of
        every float matrix built from a graph.  The graph unpacks its rows
        into a uint8 0/1 table on its first write and keeps it; every
        write is one take of (other, edge) over that table, a new array,
        then the diagonal.  The table itself is never handed out.
        """
        n = self.n
        table = self._table
        if table is None:
            width = (n + 7) // 8
            packed = b"".join(row.to_bytes(width, "little")
                              for row in self.rows)
            table = self._table = np.unpackbits(
                np.frombuffer(packed, np.uint8).reshape(n, width),
                axis=1, count=n, bitorder="little")
        M = np.array((other, edge), dtype=float).take(table)
        M.flat[::n + 1] = diag
        return M

    def adjacency(self) -> np.ndarray:
        return self.matrix(0.0, 1.0, 0.0)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __reduce__(self):
        # a pickle carries the rows only; the copy writes its own table
        return Graph._trusted, (self.rows,)

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, self.edges())


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n)

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])

def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("parts need sizes >= 0, got %r and %r" % (a, b))
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

def disjoint_union(graphs) -> Graph:
    rows = []
    offset = 0
    for G in graphs:
        rows.extend(row << offset for row in G.rows)
        offset += G.n
    return Graph.from_rows(rows)


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string."""
    if not text.isascii():
        raise Graph6Error("graph6 strings are ASCII")
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    data = s.encode("ascii")
    if any(b < 63 or b > 126 for b in data):
        raise Graph6Error("graph6 byte out of printable range")
    if data[0] == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    n = data[0] - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        raise Graph6Error(
            "graph6 bit field has %d bytes, expected %d" % (len(data) - 1, need))
    bits = []
    for b in data[1:]:
        x = b - 63
        bits.extend((x >> shift) & 1 for shift in range(5, -1, -1))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph.from_rows(rows)


def emit_graph6(G: Graph) -> str:
    """Encode a graph as a short-form graph6 string."""
    return _graph6(G.n, _segments(G.rows, G.n))


def _segments(rows, n: int) -> list[int]:
    """graph6 bit segments of the labeling as given.

    segments[k] packs the adjacency of vertex k to vertices 0..k-1,
    vertex 0 in the highest bit, which is exactly the graph6 bit order, so
    comparing segment lists compares graph6 strings.
    """
    segs = []
    for k in range(n):
        seg = 0
        for i in range(k):
            seg = seg << 1 | (rows[k] >> i & 1)
        segs.append(seg)
    return segs


def _graph6(n: int, segs) -> str:
    if n > 62:
        raise Graph6Error("short-form graph6 handles n <= 62 only")
    bits = "".join(format(seg, "0%db" % k) for k, seg in enumerate(segs) if k)
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(int(bits[i:i + 6], 2) + 63)
                                 for i in range(0, len(bits), 6))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def _check_vertex(G: Graph, u) -> None:
    """ValueError unless u is an integer vertex of G: a float such as 1.0
    equals a vertex but cannot index G.rows."""
    if not isinstance(u, (int, np.integer)) or u not in range(G.n):
        raise ValueError("vertex %r is not in range(%d)" % (u, G.n))


def components(G: Graph) -> list[list[int]]:
    """Vertex sets of connected components, each sorted, in first-seen order."""
    unseen = (1 << G.n) - 1
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = 0
        frontier = start
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= G.rows[v]
            frontier = nxt & ~comp
        comps.append(_bits(comp))
        unseen &= ~comp
    return comps


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(components(G)) == 1


def independence_number(G: Graph) -> int:
    """Maximum independent set size by branch and bound."""
    if G.n > MAX_INDEPENDENCE_N:
        raise SizeGuardError("independence search guarded to n <= %d"
                             % MAX_INDEPENDENCE_N)
    rows = G.rows
    best = 0

    def bb(avail: int, size: int):
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = size
            return
        v = max(_bits(avail), key=lambda w: (rows[w] & avail).bit_count())
        bb(avail & ~(rows[v] | 1 << v), size + 1)
        bb(avail & ~(1 << v), size)

    bb((1 << G.n) - 1, 0)
    return best


def is_complete(G: Graph) -> bool:
    return G.num_edges == G.n * (G.n - 1) // 2


# ---------------------------------------------------------------------------
# smallest-eigenvalue floor for connected graphs
# ---------------------------------------------------------------------------

@dataclass
class EigenFloorReport:
    n: int
    smallest: float
    floor: float
    holds: bool
    gap: float  # smallest - (-floor), zero at the balanced complete bipartite


def check_eigenvalue_floor(G: Graph,
                                    tol: float = linalg.DEFAULT_TOL
                                    ) -> EigenFloorReport:
    """Check that a connected graph's smallest adjacency eigenvalue is at
    least -sqrt(floor(n/2) * ceil(n/2))."""
    if G.n == 0:
        raise ValueError("the eigenvalue floor needs at least one vertex")
    if not is_connected(G):
        raise NotConnectedError("the eigenvalue floor applies to connected graphs")
    A = G.adjacency()
    smallest, cut = float(linalg._eigh(A)[0][0]), linalg.scaled_tol(A, tol)
    floor = math.sqrt((G.n // 2) * ((G.n + 1) // 2))
    return EigenFloorReport(n=G.n, smallest=smallest, floor=floor,
                            holds=smallest >= -floor - cut,
                            gap=smallest + floor)


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def _lower_segments(rows: tuple, n: int, best: list[int],
                    first: bool = False) -> bool:
    """Lower best, the segments of some ordering, to the minimum over all.

    A depth-first search over vertex orderings with prefix pruning against
    best; the adjacency-to-prefix value of each unplaced vertex is
    maintained incrementally.  Of two candidate vertices that are twins
    (N(u) minus w equals N(w) minus u) only the first is tried: swapping
    them is an automorphism that fixes the prefix, so their subtrees give
    the same segments.  With first=True the search returns True at the
    first prefix smaller than best, leaving best as it was, and False if
    there is none, i.e. if best is already minimal.
    """
    segval = [0] * n
    placed: list[int] = []
    unplaced = set(range(n))

    def place(v: int):
        placed.append(v)
        unplaced.discard(v)
        row = rows[v]
        for w in unplaced:
            segval[w] = segval[w] << 1 | (row >> w & 1)

    def unplace():
        v = placed.pop()
        for w in unplaced:
            segval[w] >>= 1
        unplaced.add(v)

    def dfs() -> bool:
        k = len(placed)
        if k == n:
            return False
        cands = sorted((segval[v], v) for v in unplaced)
        if first and cands[0][0] < best[k]:
            return True
        tried: list[int] = []
        for seg, v in cands:
            if seg > best[k]:
                break
            for u in tried:
                if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                    break
            else:
                tried.append(v)
                place(v)
                if seg < best[k]:
                    # a smaller prefix; the search below completes it
                    best[k:] = [seg] + [math.inf] * (n - k - 1)
                if dfs():
                    return True
                unplace()
        return False

    return dfs()


def canonical_form(G: Graph) -> str:
    """graph6 string of the canonical relabeling of G."""
    segs = _segments(G.rows, G.n)
    _lower_segments(G.rows, G.n, segs)
    return _graph6(G.n, segs)


def _canonical_children(parent: Graph, test=None):
    """The canonical one-vertex extensions of parent, as a generator of
    (graph6, child, state) triples.

    parent, a Graph on m vertices in canonical labeling, gains a vertex m
    joined to its vertices by every one of the 2^m neighbour masks.  A
    child is kept when test(mask) is not None (test=None keeps every
    child) and its own labeling is canonical.  test runs before the
    child is written, so a test that every induced subgraph inherits
    prunes whole subtrees, and a rejected child costs only that call.
    This is orderly generation (Read, 1978): deleting the last vertex of
    a canonical string leaves the canonical string of the parent, so
    every class on m + 1 vertices is emitted exactly once, by its own
    canonical parent, and no deduplication is needed.  A parent that is
    not in canonical labeling yields no child.

    child is the kept Graph, in its canonical labeling, and state is
    test(mask) (True when test is None): what the test computed.
    """
    m = parent.n
    for mask in range(1 << m):
        state = True if test is None else test(mask)
        if state is None:
            continue
        rows = [row | (mask >> v & 1) << m
                for v, row in enumerate(parent.rows)]
        rows.append(mask)
        segs = _segments(rows, m + 1)
        if not _lower_segments(rows, m + 1, segs, first=True):
            # symmetric and loop-free by construction: no from_rows checks
            yield _graph6(m + 1, segs), Graph._trusted(rows), state


@lru_cache(maxsize=None)
def _canonical_level(n: int) -> tuple[Graph, ...]:
    """The canonical Graphs on n vertices that _canonical_children builds
    from the level below, sorted by graph6 string."""
    if n == 0:
        return (empty_graph(0),)
    children = sorted((t for G in _canonical_level(n - 1)
                       for t in _canonical_children(G)), key=lambda t: t[0])
    return tuple(child for _, child, _ in children)


def enumerate_graphs(n: int, connected_only: bool = False):
    """All graphs on n vertices, one per isomorphism class.

    Returns a deterministic tuple of canonical representatives in graph6
    order (guarded to n <= 8), grown level by level from the empty graph
    by _canonical_children, each class emitted once by its canonical
    parent, and cached per order as the Graphs themselves.
    """
    if n < 0:
        raise ValueError("enumeration needs n >= 0, got %r" % (n,))
    if n > MAX_CANONICAL_N:
        raise SizeGuardError("canonical enumeration guarded to n <= %d"
                             % MAX_CANONICAL_N)
    graphs = _canonical_level(n)
    if connected_only:
        graphs = tuple(G for G in graphs if is_connected(G))
    return graphs
