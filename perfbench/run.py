#!/usr/bin/env python3
"""Benchmark of the duhem library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for why each was chosen):

    verify_battery  the three README ``duhem verify`` commands
    single_lane     single-point storage_cw / intersect_lambda / traversing_curve,
                    and long simulate and simulate_mech marches
    bruteforce      available_storage_bruteforce at Dahl points
    all             each of the above in a fresh process, one after another

The program is imported from ``src/`` of the checkout, in a single process
with BLAS threads pinned to 1.  With ``--trace 0`` the run sets up the
workload (timed several times, in fresh processes, for ``setup_s``), then
repeats whole rounds of the workload for about ``--seconds`` seconds and
reports norm_ops_per_s.  Both are timed against a reference kernel run next
to them, so that the drift in speed of a shared host cancels (see
reference_round_cost).  With ``--trace 1`` it alternates untraced and traced rounds of the same inputs,
reports the per-layer metrics per round, and fails unless both produce the
same output digest.  Every run checks the outputs against oracles and prints
a report followed, on the last line, by one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify_battery", "single_lane", "bruteforce")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is timed in the run itself plus this many fresh processes
SETUP_PROBES = 6
# rounds per run, at least
MIN_ROUNDS = 3
# seconds per reference kernel run at which norm_ops_per_s is stated: about
# its time on an unloaded core of a 2-core Xeon VM, so that norm_ops_per_s
# is close to the ops per second such a core gives
REFERENCE_S = 0.02

# (name, unit, better, bound): the metrics the last line carries with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("norm_ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def latency_summary(latencies):
    """Nearest-rank p50 and p90 of per-op latencies in ms.

    Returns (n, p50, p90, beyond) where beyond is the number of ops ranked
    above the 90th percentile; p90 is None unless at least 10 ops lie beyond
    it, and p50 is None when there are no ops.
    """
    n = len(latencies)
    if n == 0:
        return 0, None, None, 0
    s = sorted(latencies)
    p50 = 1e3 * s[math.ceil(0.5 * n) - 1]
    rank = math.ceil(0.9 * n)
    beyond = n - rank
    return n, p50, (1e3 * s[rank - 1] if beyond >= 10 else None), beyond


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_setup(name, seed, work_dir):
    """Import the program and build the workload's seeded inputs.

    Returns the workload, the set-up time, and the median time of three
    reference kernel runs right after it, against which set-up time is
    stated like norm_ops_per_s (see reference_round_cost).
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of the set-up cost)
    import duhem  # noqa: F401
    import workloads

    wl = workloads.build(name, seed, work_dir)
    setup_s = time.perf_counter() - t0
    ref_s = statistics.median(workloads.time_reference() for _ in range(3))
    return wl, setup_s, ref_s


def probe_setup(args):
    """(set-up time, reference time) of fresh processes, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        out.append((probe["setup_s"], probe["ref_s"]))
    return out


def reference_round_cost(rounds):
    """Cost of one round in reference-kernel runs.

    Every round repeats the same units (ops, or CLI commands) on the same
    inputs.  A unit's cost is its time divided by the time of the reference
    kernel run next to it, which cancels the drift in speed of a shared host
    (the same round runs up to 1.5x slower or faster from one minute to the
    next); the median over rounds leaves out the odd repetition that a burst
    of load hit between the unit and its reference.
    """
    return sum(statistics.median(t / ref for t, ref in zip(times, refs))
               for times, refs in zip(zip(*(r.unit_seconds for r in rounds)),
                                      zip(*(r.unit_refs for r in rounds))))


def _aggregate(rounds):
    ops = sum(r.ops for r in rounds)
    failed = {}
    for r in rounds:
        failed.update(r.failed)
    checks = [c for r in rounds for c in r.checks]
    worst = max(checks, key=lambda c: c[1] / c[2], default=None)
    return ops, sum(len(r.failed) for r in rounds), failed, worst


def run_untraced(wl, seconds):
    """Whole rounds, at least MIN_ROUNDS, until the next one would end after
    `seconds`.  The first round runs up to a quarter slower (the allocator
    warms up), which the median over rounds leaves out."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.run_round())
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def run_traced(wl, seconds):
    """After a warm-up round, pairs of an untraced and a traced round until
    the next pair would end after `seconds`; per-layer figures are per traced
    round, and the overhead compares round costs in reference runs."""
    from tracing import Instrumentation, Tracer

    tracer = Tracer()
    plain, traced = [wl.run_round()], []  # the first is a warm-up round
    start = time.perf_counter()
    while True:
        plain.append(wl.run_round())
        with Instrumentation(tracer):
            traced.append(wl.run_round(tracer.instrument_model))
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            return tracer, plain, traced


def _fmt(value, unit, note=""):
    return f"{value:.6g} {unit}" + (f"  {note}" if note else "")


def report(args, env, rounds, extra_lines):
    """Print the human-readable report and return (correct, attempted, failed)."""
    ops, n_failed, failed, worst = _aggregate(rounds)
    digests = {r.digest for r in rounds}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={len(rounds)} ops={ops}")
    print(f"env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for line in extra_lines:
        print(line)
    ratio = worst[1] / worst[2] if worst else math.nan
    print(f"metric failed_frac = {_fmt(n_failed / ops, 'frac', f'({n_failed} of {ops} ops)')}")
    print(f"metric check_ratio_max = {_fmt(ratio, 'ratio', f'(worst: {worst[0]})' if worst else '')}")
    for artifact, sha in sorted(rounds[0].fingerprints.items()):
        print(f"fingerprint {artifact} sha256={sha}")
    print(f"digest results sha256={rounds[0].digest}")
    for label, reason in sorted(failed.items()):
        print(f"FAILED {label}: {reason}")
    correct = n_failed == 0 and len(digests) == 1 and not ratio > 1.0
    if len(digests) != 1:
        print("FAILED rounds of identical inputs produced different result digests")
    return correct, ops, n_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "duhem", "__init__.py")):
        print(f"error: the duhem sources are missing ({os.path.join(SRC, 'duhem')})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    work_dir = os.path.join(HERE, ".out", f"{args.workload}-{os.getpid()}")
    wl, setup_s, setup_ref_s = timed_setup(args.workload, args.seed, work_dir)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref_s}))
        return 0

    env = environment()
    try:
        if args.trace:
            tracer, plain, traced = run_traced(wl, args.seconds)
        else:
            rounds = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        from tracing import layer_metrics

        t_plain = reference_round_cost(plain[1:])
        t_traced = reference_round_cost(traced)
        overhead = t_traced / t_plain - 1.0
        metrics = layer_metrics(tracer, len(traced), overhead)
        same = plain[0].digest == traced[0].digest
        lines = [f"trace untraced round {t_plain:.2f}, traced round {t_traced:.2f} reference runs, "
                 f"digests {'identical' if same else 'DIFFER'}"]
        lines += [f"layer {k} = {_fmt(v['value'], v['unit'])}" for k, v in metrics.items()]
        correct, attempted, failed = report(args, env, plain + traced, lines)
        correct = correct and same
    else:
        setups = [(setup_s, setup_ref_s)] + probe_setup(args)
        norm_setup_s = statistics.median(t / ref for t, ref in setups) * REFERENCE_S
        cost = reference_round_cost(rounds)
        ref_s = statistics.median(x for r in rounds for x in r.unit_refs)
        median_s = statistics.median(r.op_seconds for r in rounds)
        wall = sum(r.op_seconds for r in rounds)
        n, p50, p90, beyond = latency_summary([x for r in rounds for x in r.latencies])
        metrics = {
            "setup_s": {"value": norm_setup_s, "unit": "s"},
            "norm_ops_per_s": {"value": rounds[0].ops / (cost * REFERENCE_S), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        lines = [f"metric {k} = {_fmt(v['value'], v['unit'])}" for k, v in metrics.items()]
        lines[0] += (f"  (median of {len(setups)} set-ups, each divided by the reference run "
                     f"after it, x {REFERENCE_S} s; as measured: "
                     + ", ".join(f"{t:.4f}" for t, _ in setups) + " s)")
        lines[1] += (f"  ({rounds[0].ops} ops per round / round cost {cost:.2f} reference runs "
                     f"x {REFERENCE_S} s; reference run median {ref_s:.4f} s)")
        lines.append(f"metric ops_per_s = {_fmt(rounds[0].ops / median_s, '1/s', '(median round, not normalised)')}")
        lines.append(f"metric wall_s = {_fmt(wall, 's', f'({len(rounds)} rounds)')}")
        lines.append("round s = " + ", ".join(f"{r.op_seconds:.4f}" for r in rounds))
        if n == 0:
            lines.append("metric op_p50_ms = not reported: the ops run inside the CLI")
            lines.append("metric op_p90_ms = not reported: the ops run inside the CLI")
        else:
            lines.append(f"metric op_p50_ms = {_fmt(p50, 'ms', f'({n} ops)')}")
            lines.append(f"metric op_p90_ms = " + (
                _fmt(p90, "ms", f"({n} ops, {beyond} beyond)") if p90 is not None else
                f"not reported: {beyond} of {n} ops lie beyond the 90th percentile (needs 10)"))
        for name in rounds[0].extra.get("command_s", {}):
            s = min(r.extra["command_s"][name] for r in rounds)
            lines.append(f"command verify {name} = {_fmt(s, 's', f'(fastest of {len(rounds)})')}")
        correct, attempted, failed = report(args, env, rounds, lines)

    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
