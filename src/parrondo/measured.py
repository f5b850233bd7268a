"""Measurement-collapsed game variants.

Both runners measure the strategy register every step right after its
mixing rotation u, so from a basis state the strategy choice is a fair
coin toss; outcome 1 selects the capital-conditioned pair b0/b1, outcome
0 selects a.  The register keeps its collapsed value and u acts on it
again next step.

run_d_measured leaves the coin-capital state coherent inside each step,
which makes the trajectory ensemble reproduce the density-operator game
exactly.  run_dc_measured also collapses the coin after each rotation, so
a trajectory is a classical-looking walk whose coin bias depends on the
previous outcome.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .cpmap import b_step_pure, coin_step_pure, shift_pure
from .gates import CoinSet
from .series import CapitalSeries

_NORM_TOL = 1e-9


def _measure_strategy(coins: CoinSet, d: int, rng: np.random.Generator) -> int:
    # Born rule for u applied to the collapsed basis state |d>
    p0 = abs(coins.u[0, d]) ** 2
    return 0 if rng.random() < p0 else 1


def run_d_measured(coins: CoinSet, d0: int, c0: int, steps: int,
                   rng_seed: int = 0) -> np.ndarray:
    """Strategy-measured trajectory; rows (expected capital, second moment)."""
    if d0 not in (0, 1) or c0 not in (0, 1):
        raise ValueError("d0 and c0 must be bits")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(rng_seed)
    half = steps
    xs = np.arange(-half, half + 1)
    mask0 = xs % 3 == 0
    psi = np.zeros((2, 2 * half + 1), dtype=complex)
    psi[c0, half] = 1.0
    d = d0
    path = np.empty((steps + 1, 2))
    path[0] = 0.0, 0.0
    for n in range(1, steps + 1):
        d = _measure_strategy(coins, d, rng)
        if d == 1:
            psi = b_step_pure(psi, coins, mask0)
        else:
            psi = coin_step_pure(psi, coins.a)
        psi = shift_pure(psi)
        probs = np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2
        total = probs.sum()
        if not abs(total - 1.0) < _NORM_TOL:
            raise RuntimeError(f"norm {total!r} after step {n} is not 1")
        path[n] = xs @ probs, (xs * xs) @ probs
    return path


def run_dc_measured(coins: CoinSet, d0: int, c0: int, steps: int,
                    rng_seed: int = 0) -> np.ndarray:
    """Strategy- and coin-measured trajectory; the capital is an integer
    path, reported as rows (capital, capital squared)."""
    if d0 not in (0, 1) or c0 not in (0, 1):
        raise ValueError("d0 and c0 must be bits")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(rng_seed)
    coin = np.zeros(2, dtype=complex)
    coin[c0] = 1.0
    d = d0
    cap = 0
    path = np.empty((steps + 1, 2))
    path[0] = 0.0, 0.0
    for n in range(1, steps + 1):
        d = _measure_strategy(coins, d, rng)
        if d == 1:
            gate = coins.b0 if cap % 3 == 0 else coins.b1
        else:
            gate = coins.a
        coin = gate @ coin
        p0 = abs(coin[0]) ** 2
        total = p0 + abs(coin[1]) ** 2
        if not abs(total - 1.0) < _NORM_TOL:
            raise RuntimeError(f"norm {total!r} after step {n} is not 1")
        outcome = 0 if rng.random() < p0 else 1
        cap += 1 if outcome else -1
        coin = np.zeros(2, dtype=complex)
        coin[outcome] = 1.0
        path[n] = cap, cap * cap
    return path


def average_trajectories(runner: Callable[[int], np.ndarray], samples: int,
                         base_seed: int = 0) -> CapitalSeries:
    """Mean trajectory over seeds base_seed .. base_seed + samples - 1.

    The runner maps a seed to rows (capital, second moment).  The stderr
    column is the sample standard error of the capital, zero for a single
    sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    paths = np.stack([runner(base_seed + i) for i in range(samples)])
    cap = paths[:, :, 0]
    mean_cap = cap.mean(axis=0)
    mean_mom = paths[:, :, 1].mean(axis=0)
    if samples > 1:
        err = cap.std(axis=0, ddof=1) / np.sqrt(samples)
    else:
        err = np.zeros_like(mean_cap)
    return CapitalSeries(np.arange(paths.shape[1]), mean_cap, mean_mom,
                         stderr=err)
