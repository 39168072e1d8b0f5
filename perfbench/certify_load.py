"""certify-exact and certify-float: the certificate pipeline, item by item.

One sequential closed-loop client: an item is one (graph, point) pair and
the next item starts only when the previous one is done.  A pass runs the
whole input set once; passes repeat until the run's time is up, so every
pass has the same mix of items.
"""

import math
import resource
import statistics
import time

from twodist import bounds, certificates

import oracle
import spans
import speed

# verify_code tolerance; max_code_size verifies its codes at the same value.
VERIFY_TOL = 1e-8
CHECKS = ("check_subgraph_inequality", "check_independence",
          "check_clique_free", "check_neighborhood")


def run_item(G, P) -> dict:
    """certify_alpha, certify_beta where alpha > 0, and on a valid alpha
    certificate the four derived checks, realize_from_alpha and verify_code.

    Functions are looked up on their modules at every call, so wrappers
    installed by spans.install() see them.  Exceptions are recorded, never
    raised.
    """
    out = {"alpha": None, "beta": None, "checks": None, "code": None,
           "verify": None, "error": None}
    stage = "certify_alpha"
    try:
        a = certificates.certify_alpha(G, P)
        out["alpha"] = (a.valid, a.rank_r, str(a.quadform), a.failure_reason)
        if P.alpha > 0:
            stage = "certify_beta"
            b = certificates.certify_beta(G, P)
            out["beta"] = (b.valid, b.rank_r, b.case, b.failure_reason)
        if a.valid:
            reports = []
            for stage in CHECKS:
                r = getattr(bounds, stage)(G, P, cert=a)
                reports.append((r.name, r.applicable, r.holds))
            out["checks"] = reports
            stage = "realize_from_alpha"
            code = certificates.realize_from_alpha(G, P)
            out["code"] = code.vectors
            stage = "verify_code"
            out["verify"] = certificates.verify_code(
                code.vectors, P.alpha, P.beta, VERIFY_TOL).valid
    except Exception as exc:  # an item failure is counted, not fatal
        out["error"] = (stage, type(exc).__name__)
    return out


def _key(out) -> tuple:
    code = None if out["code"] is None else out["code"].tobytes()
    return (out["alpha"], out["beta"], out["checks"], code, out["verify"],
            out["error"])


def run_pass(items, per_graph) -> dict:
    """One pass: outcomes, and item latencies raw and normalized.

    After the items of each graph, speed.time_block() times the reference
    block; it normalizes the latencies of that graph's items.
    """
    clock = time.perf_counter
    raw = []
    lat = []
    outs = []
    for g0 in range(0, len(items), per_graph):
        first = len(raw)
        for G, P in items[g0:g0 + per_graph]:
            t0 = clock()
            out = run_item(G, P)
            raw.append(clock() - t0)
            outs.append(out)
        ref = speed.time_block()
        lat.extend(speed.normalize(x, ref) for x in raw[first:])
    return {"raw": sum(raw), "wall": sum(lat), "lat": lat, "outs": outs}


class Checker:
    """Judges each pass as it ends, so no pass's outcomes are kept.

    The first pass is checked by the oracle; later passes must repeat its
    outcomes exactly.  kinds counts each failure by kind.
    """

    def __init__(self, data):
        self.data = data
        self.bad = None
        self.keys = None
        self.failed = 0
        self.kinds = {}

    def _count(self, kind):
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def __call__(self, outs):
        if self.bad is None:
            self.bad = []
            graphs = (g for g in self.data["graphs"]
                      for _ in self.data["points"])
            for (n, edges), (_, P), out in zip(graphs, self.data["items"],
                                               outs):
                found = oracle.check_item(n, edges, P.alpha, P.beta, out)
                for kind in found:
                    self._count(kind)
                self.bad.append(bool(found))
            self.keys = [_key(o) for o in outs]
            self.failed += sum(self.bad)
            return
        for i, out in enumerate(outs):
            repeat = _key(out) == self.keys[i]
            if not repeat:
                self._count("unstable")
            self.failed += self.bad[i] or not repeat


def _passes(data, until, check):
    """Whole passes, at least one, while another fits before until; each
    pass's outcomes go to check and are dropped."""
    args = data["items"], len(data["points"])
    done = []
    took = 0.0
    while not done or time.perf_counter() + took <= until:
        t0 = time.perf_counter()
        p = run_pass(*args)
        check(p.pop("outs"))
        done.append(p)
        took = time.perf_counter() - t0
    return done


def quantile(sorted_vals, q):
    """Nearest-rank quantile and the number of samples above it."""
    rank = max(1, math.ceil(len(sorted_vals) * q))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def run(data, seconds, trace, trace_path):
    """Measure; returns (metrics, report, attempted, failed, kinds)."""
    items = data["items"]
    check = Checker(data)
    start = time.perf_counter()
    if not trace:
        passes = _passes(data, start + seconds, check)
        lat = sorted(x for p in passes for x in p["lat"])
        wall = statistics.median(p["wall"] for p in passes)
        p99, beyond = quantile(lat, 0.99)
        metrics = {"wall_s": wall, "items_per_s": len(items) / wall,
                   "item_ms_p50": 1e3 * statistics.median(lat),
                   "item_ms_p99": 1e3 * p99,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        report = {"latency_samples": len(lat),
                  "samples_beyond_p99": beyond, "passes": len(passes),
                  "items_per_pass": len(items),
                  "raw_wall_s": statistics.median(p["raw"] for p in passes)}
    else:
        plain = _passes(data, start + seconds / 3, check)
        rec = spans.Recorder()
        bindings = spans.install(rec)
        traced = _passes(data, start + seconds, check)
        dump = rec.dump()
        spans.write(trace_path, [dump])
        totals = spans.Totals()
        totals.add(dump)
        metrics = totals.metrics(len(traced))
        metrics["cli.startup_s"] = 0.0  # no CLI process is started
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in plain) - 1)
        passes = plain + traced
        report = {"passes_untraced": len(plain), "passes_traced": len(traced),
                  "bindings_wrapped": bindings, "spans": len(dump["spans"])}
    return (metrics, report, len(items) * len(passes), check.failed,
            check.kinds)
