"""One benchmark process: import parrondo, generate the workload, run it.

Started by run.py in a fresh interpreter.  It prints READY once parrondo
is imported and the workload's command lines are generated (the end of
set-up), then, unless --setup-only, runs whole rounds of the workload
through `parrondo.cli.main` until --seconds have passed, with reference
calls on the frozen package copy in ref/ in between, and writes the
per-operation and reference timings (and, traced, the spans and layer
figures) as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out-dir")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import parrondo
    from parrondo import cli
    if Path(parrondo.__file__).resolve().parent != (src / "parrondo").resolve():
        print(f"parrondo imported from {parrondo.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    ops = workloads.generate(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = Path(args.out_dir)
    tag = "traced" if tracer is not None else "untraced"
    reference = Reference(out_dir / f"{tag}-reference.csv")
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        done = []
        for i, op in enumerate(ops):
            out = out_dir / f"{tag}-r{len(rounds)}-{i:03d}-{op.game}.csv"
            t0 = time.perf_counter()
            rc = _call(cli.main, op.argv() + ["--out", str(out)])
            seconds = time.perf_counter() - t0
            done.append({"rc": rc, "seconds": seconds, "csv": str(out)})
            if tracer is not None and out.exists():
                tracer.counts["series.csv_bytes"] += out.stat().st_size
            reference.maybe_run()
        rounds.append(done)

    result = {"rounds": rounds, "reference": reference.times}
    if tracer is not None:
        tracer.write(out_dir / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


class Reference:
    """Times the reference calls on the frozen package copy in ref/.

    One call, cycling through workloads.REFERENCE, after any workload call
    that ends at least INTERVAL_S after the previous reference call.
    """

    INTERVAL_S = 0.5

    def __init__(self, out: Path):
        sys.path.insert(0, str(Path(__file__).resolve().parent / "ref"))
        from parrondo_ref import cli as ref_cli
        import workloads
        self._main = ref_cli.main
        self._calls = [op.argv() + ["--out", str(out)]
                       for op in workloads.REFERENCE]
        self._last = -self.INTERVAL_S
        self.times = [[] for _ in self._calls]  # seconds per reference call

    def maybe_run(self) -> None:
        if time.perf_counter() - self._last < self.INTERVAL_S:
            return
        k = sum(map(len, self.times)) % len(self._calls)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # kspace prints
            rc = self._main(self._calls[k])
        self._last = time.perf_counter()
        if rc != 0:
            raise RuntimeError(f"reference call {self._calls[k]} failed")
        self.times[k].append(self._last - t0)


def _call(entry, argv) -> int:
    """cli.main's return code; a usage error or a crash counts as failed."""
    try:
        return entry(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the operation fails; the round goes on
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
