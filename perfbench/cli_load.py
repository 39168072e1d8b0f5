"""search-cli: the CLI commands, each in a fresh interpreter.

CLI users pay interpreter start, imports and enumeration on every run, so
every command is its own process, started as child_cli.py, which runs it
as `python -m twodist.cli` would while sampling machine speed.  One round
runs each command once, in the order the seed gives; rounds repeat until
the run's time is up.  One child runs at a time.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import oracle
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child_cli.py")
# A command that outlives this is killed and counted as failed.
COMMAND_TIMEOUT_S = 170


def run_command(argv, env, spans_path=None) -> dict:
    """One command: launch time, raw and normalized wall, exit code and
    stdout.  Traced when spans_path is given.

    Times are time.perf_counter(), the system-wide monotonic clock on
    Linux, so they compare with the span times the child records.
    """
    cmd = [sys.executable, CHILD, spans_path or "-", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    wall = time.perf_counter() - t0
    stdout = "" if proc is None else proc.stdout
    ref = None if proc is None else _speed_line(proc.stderr)
    if ref is None:  # killed, or died before its summary: a failed command
        return {"launch": t0, "raw": wall, "wall": wall, "rc": None,
                "stdout": stdout, "peak_rss_mb": 0.0}
    return {"launch": t0, "raw": wall, "rc": proc.returncode,
            "stdout": stdout,
            "peak_rss_mb": ref["peak_rss_mb"],
            "wall": speed.normalize(wall - ref["ref_sum_s"],
                                    ref["ref_mean_s"])}


def _speed_line(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith('{"ref_mean_s"'):
            return json.loads(line)
    return None


def _rounds(data, env, until, first_round, out_dir=None):
    """Whole rounds, at least one, while another fits before until.

    Each round is a list of (name, run_command result, spans path).
    """
    table, schedule = data["table"], data["schedule"]
    done = []
    took = 0.0
    r = first_round
    while not done or time.perf_counter() + took <= until:
        t0 = time.perf_counter()
        cmds = []
        for k in schedule[r % len(schedule)]:
            name, argv, _ = table[k]
            path = None
            if out_dir is not None:
                path = os.path.join(out_dir, "cli-%d-%s.json.gz" % (r, name))
            cmds.append((name, run_command(argv, env, path), path))
        done.append(cmds)
        r += 1
        took = time.perf_counter() - t0
    return done


def _round_wall(cmds) -> float:
    return sum(res["wall"] for _, res, _ in cmds)


def run(data, seconds, trace, trace_path, env):
    """Measure; returns (metrics, report, attempted, failed, kinds)."""
    start = time.perf_counter()
    expect = {name: exp for name, _, exp in data["table"]}
    if not trace:
        rounds = _rounds(data, env, start + seconds, 0)
        walls = [res["wall"] for cmds in rounds for _, res, _ in cmds]
        wall = statistics.median(_round_wall(cmds) for cmds in rounds)
        metrics = {"wall_s": wall, "items_per_s": len(data["table"]) / wall,
                   "item_ms_p50": 1e3 * statistics.median(walls),
                   "peak_rss_mb": max(res["peak_rss_mb"] for cmds in rounds
                                      for _, res, _ in cmds)}
        for name in expect:
            metrics[name + "_s"] = statistics.median(
                res["wall"] for cmds in rounds for n, res, _ in cmds
                if n == name)
        report = {"rounds": len(rounds), "latency_samples": len(walls),
                  "raw_wall_s": statistics.median(
                      sum(res["raw"] for _, res, _ in cmds)
                      for cmds in rounds)}
    else:
        out_dir = os.path.dirname(trace_path)
        plain = _rounds(data, env, start + seconds / 3, 0)
        traced = _rounds(data, env, start + seconds, len(plain), out_dir)
        totals = spans.Totals()
        startup = 0.0
        dumps = []
        for cmds in traced:
            for _, res, path in cmds:
                if res["rc"] is None or not os.path.exists(path):
                    continue
                dump = spans.read(path)
                os.remove(path)
                dumps.append(dump)
                totals.add(dump)
                startup += spans.first_start(dump, "cli.main") - res["launch"]
        spans.write(trace_path, dumps)
        metrics = totals.metrics(len(traced))
        metrics["cli.startup_s"] = startup / len(traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(_round_wall(c) for c in traced)
            / statistics.median(_round_wall(c) for c in plain) - 1)
        rounds = plain + traced
        report = {"rounds_untraced": len(plain), "rounds_traced": len(traced)}
    kinds = {}
    failed = 0
    for cmds in rounds:
        for name, res, _ in cmds:
            found = oracle.check_command(expect[name], res["rc"],
                                         res["stdout"])
            for kind in found:
                key = "%s:%s" % (name, kind)
                kinds[key] = kinds.get(key, 0) + 1
            failed += bool(found)
    attempted = sum(len(cmds) for cmds in rounds)
    return metrics, report, attempted, failed, kinds
