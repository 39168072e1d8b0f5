"""Self-test of the benchmark harness, at a tiny load (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, traced and untraced; that inputs follow the seed and a held-out
seed runs the same way; that the oracle flags deliberately corrupted
verdicts and CLI outputs; and that without the package sources the
benchmark fails without printing a result.  Exits 1 on the first failure.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import certify_load  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SEED = 3
HELD_OUT_SEED = 4


def check(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metrics_emitted(spec):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for seed, trace in ((SEED, 0), (SEED, 1), (HELD_OUT_SEED, 0)):
            proc = run_bench(w["name"], seed, trace)
            what = "%s seed %d trace %d" % (w["name"], seed, trace)
            check(proc.returncode == 0, what + " exits 0: " + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, what + " result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, what + " correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], what + " metric names and units")
            check(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                  what + " finite values")
            extra = {"failed_frac"}
            if trace == 0:
                extra |= ({"search_exact_s", "search_float_s",
                           "crosscheck_s"} if w["name"] == "search-cli"
                          else {"item_ms_p99"})
            check(extra <= set(report["metrics"]), what + " report metrics")
            env = report["environment"]
            check(env["seed"] == seed and env["blas_threads"] <= env["nproc"]
                  and {"python", "numpy", "git_commit"} <= set(env),
                  what + " environment record")
            check(report["inputs_digest"] == inputs.build(
                w["name"], seed, tiny=True)["digest"], what + " digest")


def check_inputs_follow_seed():
    for w in run.WORKLOADS:
        a = inputs.build(w, SEED)
        check(a["digest"] == inputs.build(w, SEED)["digest"],
              w + " same seed, same inputs")
        check(a["digest"] != inputs.build(w, HELD_OUT_SEED)["digest"],
              w + " other seed, other inputs")
    from twodist.search import RATIONAL_GRID
    check([(P.exact.alpha, P.exact.beta) for P in RATIONAL_GRID]
          == list(inputs.GRID), "GRID is RATIONAL_GRID")
    exact = set(inputs.build("certify-exact", SEED)["graphs"])
    check(set(inputs.build("certify-float", SEED)["graphs"]) <= exact,
          "certify-float graphs are certify-exact graphs")


def check_oracle_flags_corruption():
    data = inputs.prepare("certify-exact", SEED, tiny=True)
    per = len(data["points"])
    outs = certify_load.run_pass(data["items"], per)["outs"]
    where = [(g, P) for g in data["graphs"] for P in data["points"]]
    ok = [oracle.check_item(*where[i][0], *where[i][1], o)
          for i, o in enumerate(outs)]
    check(not any(ok), "uncorrupted outcomes pass the oracle")
    valid = next(i for i, o in enumerate(outs)
                 if o["alpha"][0] and o["beta"] is not None)
    invalid = next(i for i, o in enumerate(outs) if not o["alpha"][0])

    def flagged(i, corrupt, kind):
        bad = copy.deepcopy(outs[i])
        corrupt(bad)
        check(kind in oracle.check_item(*where[i][0], *where[i][1], bad),
              "oracle flags " + kind)

    flagged(valid, lambda o: o.update(alpha=(False,) + o["alpha"][1:]),
            "alpha_validity")
    flagged(invalid, lambda o: o.update(alpha=(True,) + o["alpha"][1:]),
            "alpha_validity")
    flagged(valid, lambda o: o.update(
        alpha=(True, o["alpha"][1] + 1) + o["alpha"][2:]), "alpha_rank")
    flagged(valid, lambda o: o.update(beta=(not o["beta"][0],)
                                      + o["beta"][1:]), "beta_validity")
    flagged(valid, lambda o: o["checks"].__setitem__(
        0, o["checks"][0][:2] + (False,)), "check_subgraph")
    flagged(valid, lambda o: o.update(code=o["code"] * 1.01),
            "realize_gram")
    flagged(valid, lambda o: o.update(verify=False), "verify")
    flagged(valid, lambda o: o.update(error=("certify_alpha", "ValueError")),
            "exception:certify_alpha:ValueError")
    # a pass that disagrees with the first is counted as failed
    checker = certify_load.Checker(data)
    checker(outs)
    later = copy.deepcopy(outs)
    later[valid]["alpha"] = (False,) + later[valid]["alpha"][1:]
    checker(later)
    check(checker.failed == 1 and checker.kinds == {"unstable": 1},
          "checker counts an unstable verdict")
    search_out = ("query,value,exhaustive,witnesses\n"
                  "\"N[...]\",6,yes,E]~o\n")
    check(oracle.check_command(("search", "6"), 0, search_out) == [],
          "search output accepted")
    check(oracle.check_command(("search", "5"), 0, search_out) == ["output"],
          "wrong search value flagged")
    check(oracle.check_command(("search", "6"), 0,
                               search_out.replace("yes", "no"))
          == ["output"], "non-exhaustive search flagged")
    check(oracle.check_command(("search", "6"), 1, search_out)
          == ["exit_code"], "exit code flagged")
    check(oracle.check_command(("crosscheck", "checked=3 mismatches=0"), 0,
                               "checked=3 mismatches=1\n") == ["output"],
          "crosscheck mismatch flagged")
    check(oracle.psd_rank(np.array([[1.0, 2.0], [2.0, 1.0]]))[0] is False,
          "indefinite Gram is not PSD")


def check_fails_without_sources():
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench("certify-exact", SEED, 0, cwd=bare)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "no sources: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]},
          "workloads match BENCHMARK.json")
    check(run.END_TO_END == {m["name"]: m["unit"]
                             for m in spec["end_to_end"]},
          "end-to-end metrics match BENCHMARK.json")
    check_inputs_follow_seed()
    check_oracle_flags_corruption()
    check_fails_without_sources()
    check_metrics_emitted(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
