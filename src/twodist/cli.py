"""Command line front end.

Subcommands cover the whole pipeline: certify a graph at given inner
products, realize it as unit vectors, verify or extract a stored code,
evaluate size bounds, search for maximum code sizes, enumerate small
graphs, and cross-check the certifier against the direct Gram oracle.

Scalars are accepted as decimals or as exact fractions "a/b"; fractions
switch the whole pipeline to exact rational arithmetic, and --exact
promotes decimal inputs to the rationals they spell.  Exit codes: 0 the
computation succeeded and every checked condition holds, 1 a certificate
is invalid or a realization fails (a reason is printed), 2 usage error
or an instance above a size guard.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from .bounds import (check_clique_free, check_independence,
                     check_neighborhood, check_subgraph_inequality,
                     dgs_bound, power_bound, recursion_bound, turan_bound)
from .certificates import (CodeParameters, alpha_graph, certify_alpha,
                           certify_beta, dumps_code, load_code,
                           realize_from_alpha, realize_from_beta, verify_code,
                           _fmt)
from .errors import (AmbiguousPair, CertificateInvalid, EmptyFamilyError,
                     Graph6Error, ParameterDomain, ReconstructionResidual,
                     SizeGuardError)
from .graphs import (MAX_CANONICAL_N, emit_graph6, enumerate_graphs,
                     parse_graph6)
from .linalg import DEFAULT_TOL
from .search import (max_code_size, neighborhood_capacity_f,
                     oracle_cross_check, _capacities)


def _tolerance(text: str) -> float:
    """--tol values: every cut scales tol, so it must be finite and > 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            "expected a finite number > 0, got %r" % text)
    return tol


def _workers(text: str) -> int:
    """--workers values: a process count, at least 1."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer >= 1, got %r" % text)
    return workers


def _scalar(text: str, exact: bool):
    if "/" in text or exact:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % text) from None
    return float(text)


def _scalar_pair(text_a: str, text_b: str, exact: bool):
    """One fraction switches both scalars to the exact backend."""
    exact = exact or "/" in text_a or "/" in text_b
    return _scalar(text_a, exact), _scalar(text_b, exact)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return _fmt(x)
    if isinstance(x, (list, tuple)):
        return ";".join(str(v) for v in x)
    return str(x)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return list(x)
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    return x


def _write(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows, header, fmt: str, path) -> None:
    if fmt == "json":
        records = [{k: _jsonable(v) for k, v in zip(header, row)}
                   for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    _write(text, path)


def _params(args) -> CodeParameters:
    if args.alpha is None or args.beta is None:
        raise ValueError("--alpha and --beta are required")
    a, b = _scalar_pair(args.alpha, args.beta, args.exact)
    return CodeParameters.make(a, b)


def _graph_inputs(args):
    """(label, Graph) pairs from --graph or a batch file, one per line."""
    if args.graph is not None:
        return [(args.graph, parse_graph6(args.graph))]
    if args.infile is not None:
        pairs = []
        with open(args.infile) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    pairs.append((line, parse_graph6(line)))
        return pairs
    raise ValueError("either --graph or --in is required")


def _certify(G, params: CodeParameters, tol: float):
    """Route by parameters: the given graph always carries alpha edges."""
    if params.beta < 0:
        return certify_alpha(G, params, tol)
    return certify_beta(G.complement(), params, tol)


def _cert_line(cert) -> str:
    if not cert.valid:
        return "invalid reason=%s" % cert.failure_reason
    parts = ["valid", "rank=%d" % cert.rank_r]
    case = getattr(cert, "case", None)
    if case is not None:
        parts.append("case=%s" % case)
    if cert.quadform is not None:
        parts.append("quadform=%s" % _fmt(cert.quadform))
    if cert.equality_case:
        parts.append("equality")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    params = _params(args)
    pairs = _graph_inputs(args)
    if args.graph is not None:
        cert = _certify(pairs[0][1], params, args.tol)
        _write(_cert_line(cert) + "\n", args.out)
        return 0 if cert.valid else 1
    rows = []
    for label, G in pairs:
        cert = _certify(G, params, args.tol)
        detail = cert.failure_reason if not cert.valid else (
            "equality" if cert.equality_case else "")
        rows.append((label, cert.valid, cert.rank_r,
                     None if cert.quadform is None else _fmt(cert.quadform),
                     detail))
    _emit_rows(rows, ("graph", "valid", "rank", "quadform", "detail"),
               args.format, args.out)
    return 0


def cmd_realize(args) -> int:
    params = _params(args)
    G = parse_graph6(args.graph)
    if params.beta < 0:
        code = realize_from_alpha(G, params, args.tol, dim=args.d)
    else:
        code = realize_from_beta(G.complement(), params, args.tol, dim=args.d)
    _write(dumps_code(code), args.out)
    return 0


def cmd_extract(args) -> int:
    code = load_code(args.infile)
    G = alpha_graph(code, args.tol)
    _write(emit_graph6(G) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    code = load_code(args.infile)
    a = code.alpha if args.alpha is None else _scalar(args.alpha, args.exact)
    b = code.beta if args.beta is None else _scalar(args.beta, args.exact)
    report = verify_code(code.vectors, float(a), float(b), args.tol)
    if report.valid:
        _write("valid values=%s\n" % ",".join(sorted(report.values_present)),
               args.out)
        return 0
    _write("invalid norm_violations=%d pair_violations=%d\n"
           % (len(report.norm_violations), len(report.pair_violations)),
           args.out)
    return 1


def cmd_bounds(args) -> int:
    params = _params(args)
    header = ("name", "applicable", "holds", "value", "floored", "witness",
              "note")
    if args.graph is not None or args.infile is not None:
        if params.beta >= 0:
            raise ValueError("graph checks need beta < 0")
        failed = False
        rows = []
        for label, G in _graph_inputs(args):
            cert = certify_alpha(G, params, args.tol)
            reports = [check_subgraph_inequality(G, params, tol=args.tol,
                                                 cert=cert),
                       check_independence(G, params, tol=args.tol, cert=cert),
                       check_clique_free(G, params, tol=args.tol, cert=cert),
                       check_neighborhood(G, params, tol=args.tol, cert=cert)]
            # each check holds by proof on a valid certificate, so only an
            # invalid one fails
            failed = failed or not cert.valid
            for r in reports:
                rows.append((label + ":" + r.name, r.applicable, r.holds,
                             r.value, r.floored, r.witness, r.note))
        _emit_rows(rows, ("check",) + header[1:], args.format, args.out)
        return 1 if failed else 0
    if args.d is None:
        raise ValueError("parameter bounds need --d")
    reports = [turan_bound(params, args.d),
               power_bound(params, args.d, k=args.k)]
    if args.max_n is not None:
        P = params.exact or params
        f = neighborhood_capacity_f(P.alpha, P.beta, args.d, args.max_n,
                                    tol=args.tol)
        rep = recursion_bound(params, f.value)
        rep.note = "f=%d from search" % f.value
        reports.append(rep)
    rows = [("dgs", True, None, float(dgs_bound(args.d)),
             dgs_bound(args.d), None, None)]
    rows += [(r.name, r.applicable, r.holds, r.value, r.floored, r.witness,
              r.note) for r in reports]
    _emit_rows(rows, header, args.format, args.out)
    return 0


def cmd_search(args) -> int:
    have_ab = args.alpha is not None and args.beta is not None
    have_cap = args.r is not None and args.p is not None and args.mu is not None
    if have_ab == have_cap:
        raise ValueError("give either --alpha/--beta/--d or --r/--p/--mu")
    results = []
    if have_ab:
        if args.d is None:
            raise ValueError("--d is required with --alpha/--beta")
        a, b = _scalar_pair(args.alpha, args.beta, args.exact)
        results.append(max_code_size(a, b, args.d, args.max_n, tol=args.tol,
                                     workers=args.workers))
    else:
        p, mu = _scalar_pair(args.p, args.mu, args.exact)
        results += _capacities(args.r, p, mu, args.max_n,
                               ("strict", "equal"), args.tol, args.workers)
    rows = [(res.query, res.value, res.exhaustive,
             ";".join(res.extremal_graphs)) for res in results]
    _emit_rows(rows, ("query", "value", "exhaustive", "witnesses"),
               args.format, args.out)
    return 0


def cmd_enumerate(args) -> int:
    if args.max_n > MAX_CANONICAL_N:
        raise SizeGuardError("canonical enumeration guarded to n <= %d"
                             % MAX_CANONICAL_N)
    if args.max_n < 1:
        raise ValueError("enumeration needs --max-n >= 1")
    lines = []
    for n in range(1, args.max_n + 1):
        lines.extend(emit_graph6(G) for G in enumerate_graphs(n))
    _write("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_crosscheck(args) -> int:
    grid = None
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta go together")
        grid = [CodeParameters.make(_scalar(args.alpha, True),
                                    _scalar(args.beta, True))]
    report = oracle_cross_check(args.max_n, parameter_grid=grid,
                                tol=args.tol)
    lines = ["checked=%d mismatches=%d" % (report.checked,
                                           len(report.mismatches))]
    for g6, a, b, kind in report.mismatches:
        lines.append("mismatch graph=%s alpha=%s beta=%s kind=%s"
                     % (g6, a, b, kind))
    _write("".join(line + "\n" for line in lines), args.out)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, *, params=False, graph=False, infile=False, out=True,
                fmt=False):
    if params:
        sub.add_argument("--alpha", help="inner product on edges")
        sub.add_argument("--beta", help="inner product on non-edges")
        sub.add_argument("--exact", action="store_true",
                         help="treat decimal inputs as exact rationals")
    if graph:
        sub.add_argument("--graph", help="graph6 string")
    if infile:
        sub.add_argument("--in", dest="infile", help="input file")
    if out:
        sub.add_argument("--out", help="write output here instead of stdout")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                     help="numerical tolerance (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodist",
        description="certificates, realizations and size bounds for "
                    "spherical two-distance codes")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("certify", help="certify a graph at (alpha, beta)")
    _add_common(sub, params=True, graph=True, infile=True, fmt=True)
    sub.set_defaults(func=cmd_certify)

    sub = subs.add_parser("realize", help="write unit vectors for a graph")
    _add_common(sub, params=True, graph=True)
    sub.add_argument("--d", type=int, help="ambient dimension (pads zeros)")
    sub.set_defaults(func=cmd_realize)

    sub = subs.add_parser("extract", help="alpha-graph of a stored code")
    _add_common(sub, infile=True)
    sub.set_defaults(func=cmd_extract)

    sub = subs.add_parser("verify", help="check a stored code's products")
    _add_common(sub, params=True, infile=True)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("bounds", help="size bounds and per-graph checks")
    _add_common(sub, params=True, graph=True, infile=True, fmt=True)
    sub.add_argument("--d", type=int, help="target dimension")
    sub.add_argument("--k", type=int, help="tensor-power level")
    sub.add_argument("--max-n", type=int,
                     help="search depth for the recursion row")
    sub.set_defaults(func=cmd_bounds)

    sub = subs.add_parser("search", help="maximum code sizes by enumeration")
    _add_common(sub, params=True, fmt=True)
    sub.add_argument("--d", type=int, help="target dimension")
    sub.add_argument("--r", type=int, help="rank cap for raw capacities")
    sub.add_argument("--p", help="quadratic form budget")
    sub.add_argument("--mu", help="diagonal shift")
    sub.add_argument("--max-n", type=int, required=True)
    sub.add_argument("--workers", type=_workers, default=1)
    sub.set_defaults(func=cmd_search)

    sub = subs.add_parser("enumerate", help="canonical graphs, one per line")
    _add_common(sub)
    sub.add_argument("--max-n", type=int, required=True)
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("crosscheck",
                          help="certifier versus direct Gram factorization")
    _add_common(sub, params=True)
    sub.add_argument("--max-n", type=int, required=True)
    sub.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    # argparse takes a value such as -1/2 for an option, so --beta -1/2
    # would lack its value: glue it to its flag as --beta=-1/2
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in ("--alpha", "--beta", "--p", "--mu")
                and re.match(r"-[\d.]", argv[i])):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CertificateInvalid, ReconstructionResidual, AmbiguousPair,
            EmptyFamilyError) as exc:
        print("error: %s" % exc)
        return 1
    except (ParameterDomain, SizeGuardError, Graph6Error, ValueError,
            OSError) as exc:
        print("error: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
