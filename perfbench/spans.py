"""Spans around the package's public functions, installed from outside.

install() wraps every public function of the layer modules and rebinds
the wrapper at every module attribute that holds the original, so callers
reach it whichever module they look the name up through (for example
search.parse_graph6 as well as graphs.parse_graph6).  The source is not
edited.  Spans are kept in memory, one row each (name, parent, start, end,
verdict), and Totals turns them into the per-layer metrics.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("graphs", "linalg", "certificates", "bounds", "search", "cli")
CERTIFY = ("certificates.certify_alpha", "certificates.certify_beta",
           "certificates.certify_beta_zero")
FACTORIZATIONS = ("linalg.ldl_rational", "linalg.solve_rational",
                  "linalg.eigen_decompose")

# Per-layer metrics read from the spans: (function, statistic).
REPORTED = (
    ("graphs.canonical_form", "calls"), ("graphs.canonical_form", "self_s"),
    ("graphs.enumerate_graphs", "total_s"), ("graphs.parse_graph6", "calls"),
    ("graphs.independence_number", "self_s"),
    ("graphs.contains_clique", "self_s"),
    ("linalg.ldl_rational", "calls"), ("linalg.ldl_rational", "self_s"),
    ("linalg.solve_rational", "calls"), ("linalg.solve_rational", "self_s"),
    ("linalg.eigen_decompose", "calls"), ("linalg.eigen_decompose", "self_s"),
    ("certificates.certify_alpha", "calls"),
    ("certificates.certify_alpha", "total_s"),
    ("certificates.certify_alpha", "self_s"),
    ("certificates.certify_beta", "total_s"),
    ("certificates.realize_from_alpha", "total_s"),
    ("certificates.verify_code", "total_s"),
    ("bounds.check_subgraph_inequality", "total_s"),
    ("bounds.check_neighborhood", "total_s"),
    ("bounds.check_independence", "total_s"),
    ("bounds.check_clique_free", "total_s"),
    ("search.capacity", "total_s"), ("search.capacity", "self_s"),
    ("search.max_code_size", "total_s"),
    ("search.oracle_cross_check", "total_s"),
    ("cli.main", "total_s"),
)


class Recorder:
    """Span table filled by the wrappers; one thread, strictly nested."""

    def __init__(self):
        self.names = []
        self.kind = []
        self.parent = []
        self.start = []
        self.end = []
        self.valid = []      # 1/0 for certify_* spans, -1 for the rest
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end, valid = (self.kind, self.parent, self.start,
                                           self.end, self.valid)
        stack = self._stack
        clock = time.perf_counter
        is_cert = name in CERTIFY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            valid.append(-1)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if is_cert:
                valid[sid] = 1 if result.valid else 0
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names,
                "spans": list(zip(self.kind, self.parent, self.start,
                                  self.end, self.valid))}


def install(rec: Recorder) -> int:
    """Wrap the public functions of every layer; returns bindings replaced."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("twodist." + layer)
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, rec.wrap("%s.%s" % (layer, name), obj))
    bindings = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "twodist" and not modname.startswith("twodist."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                bindings += 1
    return bindings


def write(path, dumps) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(dumps, fh)


def read(path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def first_start(dump: dict, name: str) -> float:
    """Start time of the first span of the named function."""
    k = dump["names"].index(name)
    return min(t0 for kind, _, t0, _, _ in dump["spans"] if kind == k)


class Totals:
    """Per-function calls, total and self time, plus certificate counts,
    summed over any number of span dumps."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.certs = 0            # certify_* spans under no certify_* span
        self.factorizations = 0   # kernel calls under a certify_* span
        self.top_certs = 0        # certify_* spans under no certificates span
        self.top_valid = 0

    def add(self, dump: dict) -> None:
        names = dump["names"]
        spans = dump["spans"]
        n = len(spans)
        child = [0.0] * n
        under_cert = [False] * n
        under_certmod = [False] * n
        cert_ids = {i for i, nm in enumerate(names) if nm in CERTIFY}
        fact_ids = {i for i, nm in enumerate(names) if nm in FACTORIZATIONS}
        certmod_ids = {i for i, nm in enumerate(names)
                       if nm.startswith("certificates.")}
        # a parent always has a smaller index than its children
        for i, (k, p, t0, t1, _) in enumerate(spans):
            if p >= 0:
                child[p] += t1 - t0
                pk = spans[p][0]
                under_cert[i] = under_cert[p] or pk in cert_ids
                under_certmod[i] = under_certmod[p] or pk in certmod_ids
        for i, (k, p, t0, t1, v) in enumerate(spans):
            name = names[k]
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            if not self._nested(spans, i, k):
                self.total[name] = self.total.get(name, 0.0) + dur
            if k in cert_ids:
                if not under_cert[i]:
                    self.certs += 1
                if not under_certmod[i]:
                    self.top_certs += 1
                    self.top_valid += v == 1
            elif k in fact_ids and under_cert[i]:
                self.factorizations += 1

    @staticmethod
    def _nested(spans, i, k) -> bool:
        """Whether span i runs inside another span of the same function."""
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == k:
                return True
            p = spans[p][1]
        return False

    def metrics(self, per: int) -> dict:
        """The reported per-layer values, each divided by per (passes)."""
        out = {}
        for name, stat in REPORTED:
            if stat == "calls":
                out["%s.calls" % name] = self.calls.get(name, 0) / per
            elif stat == "total_s":
                out["%s.total_s" % name] = self.total.get(name, 0.0) / per
            else:
                out["%s.self_s" % name] = self.self_s.get(name, 0.0) / per
        out["linalg.factorizations_per_cert"] = (
            self.factorizations / self.certs if self.certs else 0.0)
        out["certificates.valid_ratio"] = (
            self.top_valid / self.top_certs if self.top_certs else 0.0)
        return out
