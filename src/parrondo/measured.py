"""Measurement-collapsed game variants, evolved as whole ensembles.

Every step the strategy register is measured right after its mixing
rotation u: outcome 1 selects the capital-conditioned pair b0/b1, outcome
0 selects a, and u acts on the collapsed value again next step.  traj-d
keeps the coin-capital state coherent inside each trajectory, so its
ensemble average is the density-operator game.  traj-dc also collapses
the coin after each rotation: an integer walk whose coin bias depends on
the previous outcome.
"""
from __future__ import annotations

import numpy as np

from .cpmap import MAX_STATE_BYTES, _site_coins
from .gates import CoinSet
from .series import CapitalSeries
from .walk import LatticeOverflowError

_NORM_TOL = 1e-9
# Samples stepped together.  A traj-d chunk at 100 steps works on a few
# (CHUNK, 2, 201) complex arrays of 0.4 MiB; larger chunks run slower.
CHUNK = 128


def ensemble_paths(coins: CoinSet, d0: int, c0: int, steps: int,
                   samples: int, base_seed: int = 0,
                   collapse_coin: bool = False) -> np.ndarray:
    """Measured trajectories of seeds base_seed .. base_seed + samples - 1.

    Returns (samples, steps + 1, 2) rows (expected capital, second moment)
    of traj-d, or with collapse_coin of traj-dc, whose integer capital is
    reported as (capital, capital^2).  Sample i draws its whole stream from
    default_rng(base_seed + i) at once, the numbers per-step random() calls
    give, so its path does not depend on the chunk it is stepped in.
    """
    if d0 not in (0, 1) or c0 not in (0, 1):
        raise ValueError("d0 and c0 must be bits")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nbytes = samples * (steps + 1) * 2 * np.dtype(float).itemsize
    if nbytes > MAX_STATE_BYTES:
        raise ValueError(f"{samples} paths of {steps + 1} rows need "
                         f"{nbytes / 2 ** 30:.1f} GiB, above the "
                         f"{MAX_STATE_BYTES / 2 ** 30:g} GiB limit")
    # Born rule for u on the collapsed |d>, in scalar arithmetic as in
    # _evolve_dc: numpy's vectorised abs can differ in the last bit
    odds = np.array([abs(coins.u[0, d]) ** 2 for d in (0, 1)])
    # per step a strategy draw, then for traj-dc a coin outcome draw
    draws, evolve = (2, _evolve_dc) if collapse_coin else (1, _evolve_d)
    paths = np.zeros((samples, steps + 1, 2))
    for lo in range(0, samples, CHUNK):
        seeds = range(base_seed + lo, base_seed + min(lo + CHUNK, samples))
        r = np.array([np.random.default_rng(s).random(draws * steps)
                      for s in seeds]).reshape(len(seeds), steps, draws)
        # the strategy bit before step 1, then after each step's draw
        strat = np.full((len(seeds), steps + 1), d0, dtype=np.intp)
        for n in range(steps):
            strat[:, n + 1] = r[:, n, 0] >= odds[strat[:, n]]
        evolve(coins, c0, strat, r, paths[lo:lo + len(seeds)])
    return paths


def run_d_measured(coins: CoinSet, d0: int, c0: int, steps: int,
                   rng_seed: int = 0) -> np.ndarray:
    """The traj-d path of seed rng_seed; (steps + 1, 2) rows."""
    return ensemble_paths(coins, d0, c0, steps, 1, rng_seed)[0]


def run_dc_measured(coins: CoinSet, d0: int, c0: int, steps: int,
                    rng_seed: int = 0) -> np.ndarray:
    """The traj-dc path of seed rng_seed; (steps + 1, 2) rows."""
    return ensemble_paths(coins, d0, c0, steps, 1, rng_seed, True)[0]


def _check_norm(total: np.ndarray, n: int) -> None:
    bad = ~(np.abs(total - 1.0) < _NORM_TOL)
    if bad.any():
        raise RuntimeError(f"norm {total[bad][0]!r} after step {n} is not 1")


def _evolve_d(coins: CoinSet, c0: int, strat: np.ndarray, r: np.ndarray,
              out: np.ndarray) -> None:
    samples, half = len(strat), strat.shape[1] - 1
    xs = np.arange(-half, half + 1.0)
    # coin entries [strategy, i, k, site]: a everywhere, b(x) by capital
    coef = np.empty((2, 2, 2, len(xs)), dtype=complex)
    coef[0] = coins.a[:, :, None]
    coef[1] = _site_coins(coins, xs)
    psi = np.zeros((samples, 2, len(xs)), dtype=complex)
    psi[:, c0, half] = 1.0
    for n in range(1, half + 1):
        # light cone: before step n only |x| <= n - 1 is nonzero
        lo, hi = half - n + 1, half + n
        if lo == 0:
            raise LatticeOverflowError("amplitude at the lattice edge would "
                                       "shift off the allocated range")
        g = coef[:, :, :, lo:hi][strat[:, n]]
        down, up = psi[:, 0, lo:hi], psi[:, 1, lo:hi]
        down, up = (g[:, 0, 0] * down + g[:, 0, 1] * up,
                    g[:, 1, 0] * down + g[:, 1, 1] * up)
        # coin value 0 moves the capital down, 1 up
        psi[:, 0, lo - 1:hi - 1] = down
        psi[:, 0, hi - 1] = 0.0
        psi[:, 1, lo + 1:hi + 1] = up
        psi[:, 1, lo] = 0.0
        # per-row sums only: no BLAS product, whose order may depend on
        # the row's place in the chunk
        win = psi[:, :, lo - 1:hi + 1]
        probs = (win.real ** 2 + win.imag ** 2).sum(axis=1)
        _check_norm(probs.sum(axis=1), n)
        x = xs[lo - 1:hi + 1]
        out[:, n, 0] = (probs * x).sum(axis=1)
        out[:, n, 1] = (probs * (x * x)).sum(axis=1)


def _evolve_dc(coins: CoinSet, c0: int, strat: np.ndarray, r: np.ndarray,
               out: np.ndarray) -> None:
    # the collapsed coin is a basis state |k>, so column k of the gate (0
    # a, 1 b0, 2 b1) is the rotated coin: its odds, then its norm
    sq = np.array([[[abs(g[i, k]) ** 2 for k in (0, 1)] for i in (0, 1)]
                   for g in (coins.a, coins.b0, coins.b1)])
    p0, total = sq[:, 0], sq[:, 0] + sq[:, 1]
    coin = np.full(len(strat), c0, dtype=np.intp)
    cap = np.zeros(len(strat), dtype=np.int64)
    for n in range(1, strat.shape[1]):
        gate = strat[:, n] * np.where(cap % 3 == 0, 1, 2)
        _check_norm(total[gate, coin], n)
        coin = (r[:, n - 1, 1] >= p0[gate, coin]).astype(np.intp)
        cap += 2 * coin - 1
        out[:, n, 0] = cap
        out[:, n, 1] = cap * cap


def average_trajectories(paths: np.ndarray) -> CapitalSeries:
    """Mean over samples of ensemble_paths' (samples, steps + 1, 2) rows;
    stderr is the capital's sample standard error, zero for one sample."""
    samples = len(paths)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cap = paths[:, :, 0]
    mean_cap = cap.mean(axis=0)
    err = (cap.std(axis=0, ddof=1) / np.sqrt(samples) if samples > 1
           else np.zeros_like(mean_cap))
    return CapitalSeries(np.arange(paths.shape[1]), mean_cap,
                         paths[:, :, 1].mean(axis=0), {"stderr": err})
