"""Benchmark entry point: run one workload of the six Parrondo games.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each game run is one operation: it fails when
`parrondo.cli.main` returns non-zero or when a check in checks.py rejects
its CSV.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced round (and the
tracing overhead against an untraced one) with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters timed from start to parrondo imported and inputs made;
# the measuring worker adds one more sample
SETUP_PROBES = 4
TIMEOUT_S = 170.0
# The six reference calls (workloads.REFERENCE, on the frozen package copy
# in ref/) take this long together at this machine's median speed; every
# game time is rescaled to that speed (README, "Noise on this machine").
REFERENCE_S = 0.37
GAME_METRIC = {game: game.replace("-", "_") + "_s" for game in workloads.GAMES}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    # One BLAS thread: the largest product here is 8 x 8 by 8 x 4001, and a
    # call split over both cores waits for the slower one, which on this
    # shared machine only adds noise.
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, extra, deadline):
    """Start worker.py and wait for READY; returns (process, set-up time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not start: {line.strip()!r}, "
                         f"exit {proc.returncode}")
    return proc, setup


def finish(proc, deadline) -> None:
    """Drain and reap the worker; kill it if it outlives the deadline."""
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def measure(args, out_dir, trace, deadline):
    # a traced run, and the untraced run it is compared with, make exactly
    # one round, so that its counts are those of one pass over the workload
    seconds = 0 if args.trace else args.seconds
    extra = ["--seconds", str(seconds), "--out-dir", str(out_dir)]
    proc, setup = start_worker(args, extra + (["--trace"] if trace else []),
                               deadline)
    finish(proc, deadline)
    name = "result-traced.json" if trace else "result-untraced.json"
    with open(out_dir / name, encoding="utf-8") as fh:
        return json.load(fh), setup


def verify(ops, rounds):
    """(attempted, failed, correct) over every round; prints each failure."""
    attempted = failed = 0
    correct = True
    for done in rounds:
        own, broken = [], {}
        for i, rec in enumerate(done):
            s = None
            if rec["rc"] != 0:
                broken[i] = f"cli.main returned {rec['rc']}"
            else:
                try:
                    s = checks.Series.read(rec["csv"])
                except (OSError, ValueError) as exc:
                    broken[i] = f"unreadable CSV: {exc}"
            own.append(s)
        peers = dict(zip(ops, own))
        for i, op in enumerate(ops):
            attempted += 1
            errors = ([broken[i]] if i in broken
                      else checks.failures(op, own[i], peers))
            if errors:
                failed += 1
                correct = correct and done[i]["rc"] != 0
                for err in errors:
                    print(f"FAIL {op.argv()}: {err}", file=sys.stderr)
    return attempted, failed, correct


def game_seconds(ops, rounds) -> dict[str, float]:
    """Median over rounds of each game's summed operation time."""
    per_round = []
    for done in rounds:
        totals = dict.fromkeys(workloads.GAMES, 0.0)
        for op, rec in zip(ops, done):
            totals[op.game] += rec["seconds"]
        per_round.append(totals)
    return {g: statistics.median(t[g] for t in per_round)
            for g in workloads.GAMES}


def reference_seconds(result) -> float:
    """The run's summed mean time of the six reference calls."""
    return sum(statistics.mean(times) for times in result["reference"])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + TIMEOUT_S
    if not (ROOT / "src" / "parrondo" / "__init__.py").is_file():
        print(f"no parrondo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = workloads.generate(args.workload, args.seed)

    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            proc, setup = start_worker(args, ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)
        plain, setup = measure(args, out_dir, False, deadline)
        setups.append(setup)
        traced = (measure(args, out_dir, True, deadline)[0]
                  if args.trace else None)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = [plain] + ([traced] if traced else [])
    attempted = failed = 0
    correct = True
    for res in runs:
        a, f, ok = verify(ops, res["rounds"])
        attempted, failed, correct = attempted + a, failed + f, correct and ok

    raw = game_seconds(ops, plain["rounds"])
    ref = reference_seconds(plain)
    setup = statistics.median(setups)
    print(f"wall seconds {json.dumps(raw)}, set-up {setup:.4f} s, "
          f"reference {ref:.4f} s", file=sys.stderr)
    if traced is None:
        scale = REFERENCE_S / ref
        metrics = {GAME_METRIC[g]: (v * scale, "s") for g, v in raw.items()}
        metrics["setup_s"] = (setup * scale, "s")
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mib"] = (peak / 1024, "MiB")
    else:
        metrics = dict(traced["layers"])
        base = sum(raw.values()) / ref
        slow = (sum(game_seconds(ops, traced["rounds"]).values())
                / reference_seconds(traced))
        metrics["trace.overhead_pct"] = (100 * (slow / base - 1), "%")
        metrics["trace.spans"] = (traced["spans"], "count")
        metrics["trace.reference_s"] = (reference_seconds(traced), "s")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
