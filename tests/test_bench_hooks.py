"""The benchmark's tracer wraps package functions by name; a rename that
silences one of its per-layer figures must fail here, not in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# figures that read 0 on CLI runs because the CLI no longer calls what the
# tracer wraps (cpmap's dense step, the one-seed trajectory runners), or
# that only the benchmark's worker fills in (CSV bytes)
STALE = {"measured.run_d_s", "measured.run_dc_s", "measured.sample_steps",
         "series.csv_bytes"}

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from parrondo import cli
tracer = tracing.Tracer()
tracing.install(tracer)
runs = [
    ["--game", "classical", "--steps", "4"],
    ["--game", "quantum", "--steps", "4"],
    ["--game", "kspace", "--steps", "4"],
    ["--game", "cpmap", "--steps", "4"],
    ["--game", "traj-d", "--steps", "4", "--samples", "3"],
    ["--game", "traj-dc", "--steps", "4", "--samples", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv + ["--out", f"run{{i}}.csv"])
             for i, argv in enumerate(runs)]
metrics = tracing.layer_metrics(tracer)
print(json.dumps({{"codes": codes,
                   "zero": sorted(k for k, (v, _) in metrics.items()
                                  if v == 0)}}))
"""


def test_traced_runs_of_every_game_keep_the_live_layer_figures(tmp_path):
    script = _SCRIPT.format(src=str(ROOT / "src"),
                            bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    stale = [k for k in result["zero"]
             if not (k.startswith("cpmap.") or k in STALE)]
    assert stale == []
