"""Momentum-space propagator used to cross-check the lattice simulator.

The step operator leaves each quasi-momentum fiber invariant.  A fiber is
spanned by the three capital residue classes

    |phi_k^j> = sum_{x = j mod 3} e^{ikx} |x>

tensored with the 4-dimensional (d, c) space, so one step restricted to
momentum k is a 12x12 unitary.  The blocks are extracted numerically by
pushing truncated fiber states through the lattice step: the step couples
only nearest-neighbour sites, hence interior columns of a 9-site window
carry exact coefficients.  Position amplitudes come back through the
discrete inverse transform over a grid of K momenta, exact as long as the
walk support fits inside the aliasing-free window.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .gates import CoinSet
from .series import CapitalSeries, observe
from .walk import step_amplitudes, w_matrix

# interior representative of each residue class inside the 9-site window
_CLASS_REP = {0: 0, 1: 1, 2: -1}


@dataclass(frozen=True)
class KGrid:
    """Momenta k_m = -pi + 2 pi m / K for m = 0 .. K-1."""

    K: int
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.K < 3:
            raise ValueError("K must be >= 3")
        pts = -np.pi + 2 * np.pi * np.arange(self.K) / self.K
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def for_steps(cls, steps: int) -> "KGrid":
        # smallest odd K >= 2 steps + 3; odd avoids the k = +/-pi pair
        k = 2 * steps + 3
        return cls(k if k % 2 else k + 1)

    def max_abs_x(self) -> int:
        return (self.K - 3) // 2


@dataclass(frozen=True)
class KSpaceState:
    """Per-momentum residue-class vectors, shape (K, 3, 4).

    The trailing axis is the (d, c) pair flattened as 2 d + c.
    """

    nus: np.ndarray
    step: int

    def __post_init__(self):
        nus = np.ascontiguousarray(self.nus, dtype=complex)
        if nus.ndim != 3 or nus.shape[1:] != (3, 4):
            raise ValueError(f"nu array shape {nus.shape} must be (K, 3, 4)")
        nus.flags.writeable = False
        object.__setattr__(self, "nus", nus)


def _block_matrices(ks: np.ndarray, coins: CoinSet) -> np.ndarray:
    """One-step fiber matrices, shape (len(ks), 12, 12).

    Row/column layout: 4*j + (2 d + c) for residue class j.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    w8 = w_matrix(coins)
    xs_win = np.arange(-4, 5)
    m = np.zeros((len(ks), 12, 12), dtype=complex)
    for j in range(3):
        xsel = xs_win[(xs_win % 3 == j) & (np.abs(xs_win) <= 3)]
        phases = np.exp(1j * np.outer(ks, xsel))
        for w in range(4):
            d, c = divmod(w, 2)
            amps = np.zeros((len(ks), 2, 2, 2, 9), dtype=complex)
            amps[:, d, c, 0, xsel + 4] = phases
            out = step_amplitudes(amps, w8, xs_win)
            for jp in range(3):
                xp = _CLASS_REP[jp]
                col = out[:, :, :, 0, xp + 4] * \
                    np.exp(-1j * ks * xp)[:, None, None]
                m[:, 4 * jp:4 * jp + 4, 4 * j + w] = col.reshape(len(ks), 4)
    return m


def build_block_matrix(k: float, coins: CoinSet) -> np.ndarray:
    """The 12x12 one-step unitary on the momentum-k fiber."""
    if not (-np.pi <= k <= np.pi):
        raise ValueError(f"k={k} outside [-pi, pi]")
    return _block_matrices(np.array([k]), coins)[0]


def _initial_nus(d: int, c: int, grid: KGrid) -> np.ndarray:
    if d not in (0, 1) or c not in (0, 1):
        raise ValueError("d and c must be bits")
    nus = np.zeros((grid.K, 3, 4), dtype=complex)
    nus[:, :, 2 * d + c] = 1.0  # every class starts at |chi> = |d>|c>
    return nus


def propagate_steps(coins: CoinSet, d: int, c: int, steps: int,
                    grid: KGrid) -> Iterator[KSpaceState]:
    """Yield the fiber state at every n = 0 .. steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if grid.K < 2 * steps + 3:
        raise ValueError(f"K={grid.K} below 2*steps+3={2 * steps + 3}")
    blocks = _block_matrices(grid.points, coins)
    nus = _initial_nus(d, c, grid)
    yield KSpaceState(nus.copy(), 0)
    flat = nus.reshape(grid.K, 12, 1)
    for n in range(1, steps + 1):
        flat = blocks @ flat
        yield KSpaceState(flat.reshape(grid.K, 3, 4), n)


def propagate(coins: CoinSet, d: int, c: int, steps: int,
              grid: KGrid) -> KSpaceState:
    for state in propagate_steps(coins, d, c, steps, grid):
        pass
    return state


def _reconstruct_array(state: KSpaceState, grid: KGrid,
                       xs: np.ndarray) -> np.ndarray:
    """Amplitude 4-vectors at the given capitals, shape (len(xs), 4).

    a(x) = (1/K) sum_m e^{i k_m x} nu_{x mod 3}(k_m), evaluated through an
    inverse FFT: with k_m = -pi + 2 pi m / K the kernel splits into
    (-1)^x times the plain DFT phase.
    """
    xs = np.asarray(xs, dtype=int)
    if np.any(np.abs(xs) > grid.max_abs_x()):
        raise ValueError(f"capital outside the aliasing-free range "
                         f"[-{grid.max_abs_x()}, {grid.max_abs_x()}]")
    inv = np.fft.ifft(state.nus, axis=0)  # (K, 3, 4)
    sign = np.where(xs % 2 == 0, 1.0, -1.0)
    return sign[:, None] * inv[xs % grid.K, xs % 3, :]


def reconstruct_positions(state: KSpaceState, grid: KGrid,
                          x_range) -> dict[int, np.ndarray]:
    """Map capital -> complex (d, c) amplitude 4-vector."""
    xs = np.asarray(list(x_range), dtype=int)
    amp = _reconstruct_array(state, grid, xs)
    return {int(x): amp[i] for i, x in enumerate(xs)}


def position_distribution(state: KSpaceState, grid: KGrid,
                          half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed position probabilities on [-half_width, half_width]."""
    xs = np.arange(-half_width, half_width + 1)
    amp = _reconstruct_array(state, grid, xs)
    return xs, np.sum(np.abs(amp) ** 2, axis=1)


def capital_series(coins: CoinSet, d: int, c: int, steps: int,
                   grid: KGrid | None = None) -> CapitalSeries:
    """Capital series over n = 0 .. steps from the momentum representation."""
    if grid is None:
        grid = KGrid.for_steps(steps)
    return observe(position_distribution(state, grid, state.step)
                   for state in propagate_steps(coins, d, c, steps, grid))


def capital_via_kspace(coins: CoinSet, d: int, c: int, steps: int,
                       grid: KGrid | None = None) -> float:
    """Expected capital after `steps` from the momentum representation."""
    return float(capital_series(coins, d, c, steps, grid).expected_capital[-1])
