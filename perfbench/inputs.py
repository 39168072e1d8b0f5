"""Seeded inputs for every workload, and a digest that identifies them.

The benchmark owns its inputs: the package only ever receives the graphs,
parameter points and command lines built here.  The same seed gives the
same inputs on every commit, and the digest printed with each run shows it.
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np

import oracle

# Orders and edge densities of the random labelled graphs.  Every
# (order, density) stratum gets the same number of graphs.
ORDERS = (5, 6, 7, 8, 9)
DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)
GRAPHS_PER_STRATUM = {"certify-exact": 8, "certify-float": 4}
POOL_FACTOR = 4

# The 15 points of twodist.search.RATIONAL_GRID, as (alpha, beta).
GRID = tuple(
    (a, b)
    for b in (Fraction(-1), Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4))
    for a in (Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(1, 2))
    if b < a)

_GRID_BETA = np.array([float(b) for _, b in GRID])[:, None, None]
_GRID_GAP = np.array([float(a - b) for a, b in GRID])[:, None, None]

# The pentagon point, where the float backend meets irrational parameters.
PENTAGON = ((math.sqrt(5) - 1) / 4, -(math.sqrt(5) + 1) / 4)

# search-cli: (name, argv after "python -m twodist.cli", expected stdout
# check).  A search row must give the value and "yes" under exhaustive; the
# crosscheck must print exactly the given line.
SEARCH_CLI = (
    ("search_exact",
     ("search", "--exact", "--alpha", "0", "--beta=-1", "--d", "3",
      "--max-n", "7"),
     ("search", "6")),
    ("search_float",
     ("search", "--alpha", repr(PENTAGON[0]), "--beta=%r" % PENTAGON[1],
      "--d", "2", "--max-n", "6"),
     ("search", "5")),
    ("crosscheck",
     ("crosscheck", "--max-n", "6"),
     ("crosscheck", "checked=3120 mismatches=0")),
)
# The self-test's tiny load: the same kinds of command at small orders.
TINY_SEARCH_CLI = (
    ("search_exact",
     ("search", "--exact", "--alpha", "0", "--beta=-1", "--d", "2",
      "--max-n", "5"),
     ("search", "4")),
    ("search_float",
     ("search", "--alpha", repr(PENTAGON[0]), "--beta=%r" % PENTAGON[1],
      "--d", "2", "--max-n", "5"),
     ("search", "5")),
    ("crosscheck",
     ("crosscheck", "--max-n", "3"),
     ("crosscheck", "checked=105 mismatches=0")),
)
# Rounds scheduled up front; a run that needs more starts over.
SCHEDULE_ROUNDS = 64


def graph_stream(seed: int, per_stratum: int):
    """(n, edges) pairs, per_stratum graphs for each order and density.

    A graph's cost depends mostly on how many grid points certify it, so
    each stratum draws a pool of POOL_FACTOR times the largest per_stratum
    graphs, sorts it by that count and takes per_stratum graphs at evenly
    spaced ranks (systematic sampling).  A pass then costs nearly the same
    on every seed, and the certify-float graphs are every other graph of
    the certify-exact ones.
    """
    pool_size = POOL_FACTOR * max(GRAPHS_PER_STRATUM.values())
    step = pool_size // per_stratum
    out = []
    for n in ORDERS:
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for dens in DENSITIES:
            rng = random.Random("%d:%d:%s" % (seed, n, dens))
            m = round(dens * len(pairs))
            pool = [tuple(sorted(rng.sample(pairs, m)))
                    for _ in range(pool_size)]
            pool.sort(key=lambda edges: _certified_points(n, edges))
            out.extend((n, pool[r])
                       for r in range(POOL_FACTOR // 2, pool_size, step))
    return out


def _certified_points(n, edges) -> int:
    """Grid points at which the graph's Gram candidate is PSD."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    grams = _GRID_BETA + _GRID_GAP * A
    grams[:, range(n), range(n)] = 1.0
    return int(np.sum(np.linalg.eigvalsh(grams)[:, 0] >= -oracle.EIG_TOL))


def points(workload: str):
    """(alpha, beta) pairs: Fractions for the exact backend, floats else."""
    if workload == "certify-exact":
        return list(GRID)
    return [(float(a), float(b)) for a, b in GRID] + [PENTAGON]


def cli_schedule(seed: int, table=SEARCH_CLI):
    """Command order for each round; the seed only permutes the commands."""
    rng = random.Random("%d:search-cli" % seed)
    return [rng.sample(range(len(table)), len(table))
            for _ in range(SCHEDULE_ROUNDS)]


def digest(*parts) -> str:
    """Short sha256 over the repr of the generated inputs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def build(workload: str, seed: int, tiny: bool = False):
    """The workload's inputs as plain data, with their digest.  tiny is the
    self-test's load: one graph per stratum, or the small commands."""
    if workload == "search-cli":
        table = TINY_SEARCH_CLI if tiny else SEARCH_CLI
        sched = cli_schedule(seed, table)
        return {"table": table, "schedule": sched,
                "digest": digest(table, sched)}
    graphs = graph_stream(seed, 1 if tiny else GRAPHS_PER_STRATUM[workload])
    pts = points(workload)
    return {"graphs": graphs, "points": pts, "digest": digest(graphs, pts)}


def prepare(workload: str, seed: int, tiny: bool = False):
    """Import the package and build the run's inputs: the set-up a run pays.

    Certify workloads get an "items" list of (Graph, CodeParameters) pairs,
    graph-major, every graph at every point.
    """
    import twodist.cli  # noqa: F401  (the whole package, as the CLI)
    from twodist.certificates import CodeParameters
    from twodist.graphs import Graph

    data = build(workload, seed, tiny)
    if workload != "search-cli":
        params = [CodeParameters.make(a, b) for a, b in data["points"]]
        data["items"] = [(Graph(n, edges), P)
                         for n, edges in data["graphs"] for P in params]
    return data
