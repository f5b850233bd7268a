"""Density-operator evolution of the mixed game on the coin-capital space.

The strategy register is discarded: each step applies the coin a or the
capital-conditioned pair b0/b1 with probability 1/2 each, then the
conditional shift, as one completely positive trace-preserving map

    rho' = S [ (A rho A' + B rho B') / 2 ] S'

with B block-diagonal over capitals, b(x) = b0 when 3 | x else b1.  The
state is stored as 2x2 coin blocks rho_{xy} over capital pairs, so the
map acts blockwise and the shift is a pure index displacement.

The dense state costs O(steps^2) memory and a run O(steps^3) time;
`capital_moments` computes the capital's first two moments exactly from
O(steps) numbers, and the dense evolution stays as the reference for the
full blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gates import MIX_PARAMS, CoinSet, not_gate, su2
from .series import CapitalSeries
from .walk import LatticeOverflowError

# Largest dense state init_density allocates.  A step's temporaries take
# several times the state, so a state above this does not fit a desk
# machine's memory.
MAX_STATE_BYTES = 1 << 30


@dataclass(frozen=True)
class DensityState:
    """Coin blocks rho_{xy} indexed (x, y, i, j), x = index - offset."""

    blocks: np.ndarray
    offset: int
    step: int = 0

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=complex)
        n = 2 * self.offset + 1
        if blocks.shape != (n, n, 2, 2):
            raise ValueError(f"block shape {blocks.shape} does not match "
                             f"offset {self.offset}")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(-self.offset, self.offset + 1)


def init_density(c: int, initial_capital: int = 0,
                 steps_budget: int = 0) -> DensityState:
    """Pure product state |c><c| (x) |x0><x0|."""
    if c not in (0, 1):
        raise ValueError("c must be a bit")
    if steps_budget < 0:
        raise ValueError("steps_budget must be >= 0")
    half = abs(initial_capital) + steps_budget
    n = 2 * half + 1
    nbytes = n * n * 4 * np.dtype(complex).itemsize
    if nbytes > MAX_STATE_BYTES:
        raise ValueError(f"a dense state of {n}x{n} coin blocks needs "
                         f"{nbytes / 2 ** 30:.1f} GiB, above the "
                         f"{MAX_STATE_BYTES / 2 ** 30:g} GiB limit; "
                         "capital_moments gives the moments without it")
    blocks = np.zeros((n, n, 2, 2), dtype=complex)
    blocks[initial_capital + half, initial_capital + half, c, c] = 1.0
    return DensityState(blocks, half, 0)


def _site_coins(coins: CoinSet, xs: np.ndarray) -> np.ndarray:
    """Entries b(x)_ik laid out (i, k, x)."""
    mask0 = xs % 3 == 0
    return np.where(mask0, coins.b0[:, :, None], coins.b1[:, :, None])


def _sandwich(r: np.ndarray, left: np.ndarray,
              right: np.ndarray) -> list[list[np.ndarray]]:
    """Coin planes of L r R' written out componentwise.

    r[i, j] is the (x, y) plane of coin entry ij; left[i, k] = L_ik and
    right[j, l] = conj(R_jl) are scalars or arrays broadcasting over that
    plane, so a capital-conditioned coin enters as a column on the left
    (varying with x) and as a row on the right (varying with y).
    """
    lr = [[left[i, 0] * r[0, l] + left[i, 1] * r[1, l] for l in (0, 1)]
          for i in (0, 1)]
    return [[lr[i][0] * right[j, 0] + lr[i][1] * right[j, 1]
             for j in (0, 1)] for i in (0, 1)]


def step_density(rho: DensityState, coins: CoinSet) -> DensityState:
    """One application of the mixed-coin map followed by the shift."""
    r = rho.blocks.transpose(2, 3, 0, 1)
    bs = _site_coins(coins, rho.xs)
    # a rho_xy a' and b(x) rho_xy b(y)', as explicit 2x2 arithmetic on
    # whole planes: stacked 2x2 matmuls are several times slower
    a_side = _sandwich(r, coins.a, coins.a.conj())
    b_side = _sandwich(r, bs[:, :, :, None], bs.conj()[:, :, None, :])
    mixed = np.empty(r.shape, dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            np.add(a_side[i][j], b_side[i][j], out=mixed[i, j])
    mixed *= 0.5
    # coin value 0 moves the capital down, 1 up; anything at the edge in
    # the direction of motion has nowhere to go
    if (np.any(mixed[0, :, 0, :]) or np.any(mixed[1, :, -1, :]) or
            np.any(mixed[:, 0, :, 0]) or np.any(mixed[:, 1, :, -1])):
        raise LatticeOverflowError("density reached the lattice edge; "
                                   "enlarge the steps budget")
    out = np.zeros_like(rho.blocks)
    out[:-1, :-1, 0, 0] = mixed[0, 0, 1:, 1:]
    out[:-1, 1:, 0, 1] = mixed[0, 1, 1:, :-1]
    out[1:, :-1, 1, 0] = mixed[1, 0, :-1, 1:]
    out[1:, 1:, 1, 1] = mixed[1, 1, :-1, :-1]
    return DensityState(out, rho.offset, rho.step + 1)


def position_populations(rho: DensityState) -> np.ndarray:
    return np.real(np.einsum("xxii->x", rho.blocks))


def expected_capital_density(rho: DensityState) -> float:
    return float(rho.xs @ position_populations(rho))


def second_moment_density(rho: DensityState) -> float:
    xs = rho.xs
    return float((xs * xs) @ position_populations(rho))


def capital_moments(coins: CoinSet, c: int, steps: int) -> CapitalSeries:
    """Exact <x> and <x^2> of the map from |c><c| (x) |0><0|, per step.

    The map commutes with translation of the capital by 3, so the moments
    close over the O(steps) sums

        F_m[r, x mod 3, i, j] = sum_x x^m rho_{x, x-r}[i, j],  m = 0, 1, 2,

    (the moment superoperator of Brun, Carteret & Ambainis, PRA 67, 032304
    (2003)).  The coin step acts per (r, residue), because b(x) and
    b(x - r) depend only on those two.  The shift moves coin entry ij's
    residue by s_i and r by s_i - s_j (s_0 = -1, s_1 = +1) and re-expands
    x^m binomially.  Equals step_density's moments up to summation order.
    """
    if c not in (0, 1):
        raise ValueError("c must be a bit")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    # only even r = 2k with |k| <= steps occur; f[i, j] is the (m, k, res)
    # plane of coin entry ij, k = index - steps
    half = steps
    ks = np.arange(-half, half + 1)
    f = np.zeros((2, 2, 3, len(ks), 3), dtype=complex)
    f[c, c, 0, half, 0] = 1.0
    # b(x) by residue on the left; b(x - r) by (k, residue) on the right
    b_res = np.stack([coins.b0, coins.b1, coins.b1])
    left = b_res.transpose(1, 2, 0)[:, :, None, None, :]
    res_y = (np.arange(3) - 2 * ks[:, None]) % 3
    right = b_res[res_y].conj().transpose(2, 3, 0, 1)[:, :, None]
    moments = np.empty((steps + 1, 3))
    moments[0] = _trace_at_r0(f, half)
    for n in range(1, steps + 1):
        # light cone: before step n only |k| <= n - 1 is nonzero.  k moves
        # at most 1 per step and the readout's entries (i = j, k = 0) are
        # entered without moving k, so |k| > steps - n never reaches one.
        w = min(n - 1, steps - n)
        lo, hi = half - w, half + w + 1
        win = f[:, :, :, lo:hi]
        a_side = _sandwich(win, coins.a, coins.a.conj())
        b_side = _sandwich(win, left, right[:, :, :, lo:hi])
        f = np.zeros_like(f)
        for i in (0, 1):
            s = 2 * i - 1
            for j in (0, 1):
                g = a_side[i][j] + b_side[i][j]
                g *= 0.5
                # x -> x + s: the residue moves by s, k by (s_i - s_j)/2
                # = i - j, and x^m re-expands binomially
                g = np.roll(g, s, axis=-1)
                out = f[i, j, :, lo + i - j:hi + i - j]
                out[0] = g[0]
                out[1] = g[1] + s * g[0]
                out[2] = g[2] + 2 * s * g[1] + g[0]
        moments[n] = _trace_at_r0(f, half)
    return CapitalSeries(np.arange(steps + 1), moments[:, 1], moments[:, 2])


def _trace_at_r0(f: np.ndarray, half: int) -> np.ndarray:
    """(<1>, <x>, <x^2>) from the moment sums: Re sum_res Tr F_m[0, res]."""
    return np.real(f[0, 0, :, half].sum(-1) + f[1, 1, :, half].sum(-1))


def swap_conjugate(rho: DensityState) -> DensityState:
    """Conjugate the coin factor by the NOT gate: (X (x) 1) rho (X (x) 1)."""
    x = not_gate()
    blocks = np.einsum("ik,xykl,jl->xyij", x, rho.blocks, x.conj())
    return DensityState(blocks, rho.offset, rho.step)


# --- pure-state helpers: one trajectory's step, the tests' reference ---------

def b_step_pure(psi: np.ndarray, coins: CoinSet,
                mask0: np.ndarray) -> np.ndarray:
    out = np.empty_like(psi)
    out[:, mask0] = coins.b0 @ psi[:, mask0]
    out[:, ~mask0] = coins.b1 @ psi[:, ~mask0]
    return out


def shift_pure(psi: np.ndarray) -> np.ndarray:
    if psi[0, 0] != 0.0 or psi[1, -1] != 0.0:
        raise LatticeOverflowError("amplitude at the lattice edge would "
                                   "shift off the allocated range")
    out = np.zeros_like(psi)
    out[0, :-1] = psi[0, 1:]
    out[1, 1:] = psi[1, :-1]
    return out


def sample_unitary_trajectory(coins: CoinSet, c: int, steps: int,
                              rng_seed: int = 0) -> np.ndarray:
    """One random-unitary unravelling of the map, starting at capital 0.

    Each step draws A or the capital-conditioned B with probability 1/2
    and applies it unitarily.  Returns rows (expected capital, second
    moment) for n = 0 .. steps; averaging rows over seeds reproduces the
    exact density evolution.  This is measured.run_d_measured under the
    mixing rotation, whose odds miss 1/2 by one rounding: the two differ
    only on a draw of exactly 1/2.
    """
    from .measured import run_d_measured  # measured builds on this module
    return run_d_measured(replace(coins, u=su2(MIX_PARAMS)), 0, c, steps,
                          rng_seed)
