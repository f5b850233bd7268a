"""Show that every output check can fail.

    python3 perfbench/selfcheck.py

Runs a small set of games through `parrondo.cli.main`, requires every
check in checks.py to pass on their CSVs, then perturbs one series per
check (a flipped sign, a shifted step or a scaled column) and requires
that check to reject the perturbed copy.  Exits non-zero otherwise.
Takes about 20 s, most of it the 200-step cpmap run the headline check
needs.
"""
from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from workloads import EPSILON, PREPARATIONS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OPS = ([Op("classical", EPSILON, 1000, schedule=s)
        for s in ("A", "B", "AABB", "random")]
       + [Op("quantum", EPSILON, 200, d=d, c=c) for d, c in PREPARATIONS]
       + [Op("kspace", EPSILON, 60), Op("cpmap", EPSILON, 200),
          Op("cpmap", EPSILON, 30, c=1),
          # many samples, so that a sign flip of the early mean is far
          # outside the stderr band
          Op("traj-d", EPSILON, 20, samples=4000, seed=1),
          Op("traj-dc", EPSILON, 60, samples=2000, seed=1)])


def flip_cap(s):
    """The capital column with its sign flipped."""
    return replace(s, cap=-s.cap)


def shift_step(s):
    """Row n carries the values of row n + 1."""
    def up(col):
        return np.concatenate([col[1:], col[-1:]])
    return replace(s, cap=up(s.cap), mom=up(s.mom),
                     extra=tuple(up(col) for col in s.extra))


def scale(field, factor, index=None):
    def perturb(s):
        if index is None:
            return replace(s, **{field: getattr(s, field) * factor})
        extra = list(s.extra)
        extra[index] = extra[index] * factor
        return replace(s, extra=tuple(extra))
    perturb.__name__ = f"scaling {field}"
    return perturb


# check name -> (the op whose series is perturbed, the perturbation)
PERTURBATIONS = {
    "shape": (OPS[1], shift_step),
    "classical.master_equation": (OPS[2], scale("mom", 1.001)),
    "classical.always_a": (OPS[0], flip_cap),
    "classical.mixture_drift": (OPS[3], scale("cap", 1.01)),
    "classical.paradox_signs": (OPS[3], flip_cap),
    "quantum.one_step": (OPS[4], shift_step),
    "coin_antisymmetry": (OPS[5], flip_cap),
    "kspace.routes_agree": (OPS[8], scale("extra", 1 + 1e-6, index=1)),
    "cpmap.word_enumeration": (OPS[9], scale("mom", 1.001)),
    "paper.headline": (OPS[9], scale("cap", 1e4)),
    "traj_d.matches_cpmap": (OPS[11], flip_cap),
    "traj_dc.matches_master_equation": (OPS[12], scale("extra", 2.0, index=0)),
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from parrondo import cli

    out_dir = HERE / "out" / "selfcheck"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    series = {}
    for i, op in enumerate(OPS):
        out = out_dir / f"{i:02d}-{op.game}.csv"
        if cli.main(op.argv() + ["--out", str(out)]) != 0:
            print(f"FAIL {op.argv()} returned non-zero")
            return 1
        series[op] = checks.Series.read(out)

    bad = 0
    for op, s in series.items():
        for err in checks.failures(op, s, series):
            print(f"FAIL correct series rejected: {op.argv()}: {err}")
            bad += 1

    names = {check.name for check in checks.CHECKS}
    if names != set(PERTURBATIONS):
        print(f"FAIL checks without a perturbation: {names - set(PERTURBATIONS)}")
        bad += 1
    for check in checks.CHECKS:
        op, perturb = PERTURBATIONS[check.name]
        if not check.applies(op):
            print(f"FAIL {check.name} does not apply to {op.argv()}")
            bad += 1
            continue
        peers = dict(series)
        peers[op] = perturb(series[op])
        msg = check.fn(op, peers[op], peers)
        verdict = "rejects" if msg else "FAIL accepts"
        print(f"{verdict} {perturb.__name__} of {op.game}: {check.name}: {msg}")
        bad += msg is None
    print("selfcheck:", "ok" if bad == 0 else f"{bad} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
