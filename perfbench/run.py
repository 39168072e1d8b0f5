"""twodist benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload certify-exact --seed 1 \
        --seconds 30 --trace 0

Workloads (see README.md for why each exists):
  certify-exact  random graphs x the rational grid, exact backend
  certify-float  the same graphs x the grid as floats + the pentagon point
  search-cli     search and crosscheck commands, each a fresh process

--trace 0 measures the end-to-end metrics; --trace 1 wraps the package's
public functions in spans and reports the per-layer metrics instead.  The
last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it is a report with every metric, the environment, the input
digest and the failures by kind.  Traces are written under perfbench/out/.
"""

import os

# Cap BLAS and OpenMP threads before numpy is imported, here and in every
# child process, which inherits the environment.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")
WORKLOADS = ("certify-exact", "certify-float", "search-cli")
SETUP_PROBES = 5

# Gated metrics, as listed in BENCHMARK.json; every workload emits each.
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "item_ms_p50": "ms", "peak_rss_mb": "MB"}
# Printed in the report line only: not defined on every workload, or 0.
REPORT_ONLY = {"item_ms_p99": "ms", "search_exact_s": "s",
               "search_float_s": "s", "crosscheck_s": "s",
               "failed_frac": "ratio"}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in REPORT_ONLY:
        return REPORT_ONLY[name]
    if name.endswith(".calls") or name == "linalg.factorizations_per_cert":
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def git_commit(root):
    """HEAD of the git checkout at root; None outside one."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(workload, seed, tiny, digest, env):
    """Median normalized launch-to-ready time of fresh set-up probes, and
    the raw samples."""
    raw = []
    norm = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, workload, str(seed),
                               str(int(tiny))],
                              stdout=subprocess.PIPE, text=True,
                              env=env) as proc:
            line = proc.stdout.readline()
            t = time.perf_counter() - t0
        probe = json.loads(line)
        if proc.returncode != 0 or probe["digest"] != digest:
            raise RuntimeError("set-up probe failed or built other inputs")
        raw.append(t)
        norm.append(speed.normalize(t - probe["ref_sum_s"],
                                    probe["ref_mean_s"]))
    return statistics.median(norm), raw


def environment(seed) -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(ROOT),
            "seed": seed,
            "blas_threads": BLAS_THREADS,
            "concurrent_workers": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="the self-test's small inputs (selftest.py)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twodist", "__init__.py")):
        print("error: no twodist sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import twodist
    if not os.path.abspath(twodist.__file__).startswith(SRC + os.sep):
        print("error: twodist imported from outside %s" % SRC,
              file=sys.stderr)
        return 2
    import certify_load
    import cli_load
    import inputs

    data = inputs.prepare(args.workload, args.seed, args.tiny)
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "trace-%s.json.gz" % args.workload)
    report = {}
    if not args.trace:
        setup_s, samples = measure_setup(args.workload, args.seed,
                                         args.tiny, data["digest"], env)
        report["setup_raw_samples_s"] = samples
    if args.workload == "search-cli":
        metrics, extra, attempted, failed, kinds = cli_load.run(
            data, args.seconds, args.trace, trace_path, env)
    else:
        metrics, extra, attempted, failed, kinds = certify_load.run(
            data, args.seconds, args.trace, trace_path)
    report.update(extra)
    if not args.trace:
        metrics["setup_s"] = setup_s
    metrics["failed_frac"] = failed / attempted
    gated = (list(END_TO_END) if not args.trace else
             [k for k in metrics if k not in REPORT_ONLY])
    report.update({
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "inputs_digest": data["digest"],
        "environment": environment(args.seed),
        "failures_by_kind": kinds,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    })
    if args.trace:
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit(k)}
                    for k in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
