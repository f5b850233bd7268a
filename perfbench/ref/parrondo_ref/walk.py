"""State-vector simulator for the four-register walk game.

Registers: d selects the strategy, c is the chirality the shift reads,
x is the capital lattice, o is the mod-3 scratch flag.  Amplitudes are
stored as one complex array indexed (d, c, o, x) with x = column - offset.

One full step is

    E = MOD_inv . S . W . MOD

where MOD flags capitals not divisible by 3, W applies the strategy
rotation u on d together with the coin a (strategy A branch) or b0/b1
(strategy B branch, selected by the flag) on c, S shifts x down for c=0
and up for c=1, and MOD_inv consumes the flag again using the pre-shift
capital x - (2c - 1).  The flag returns to 0 after every full step.

The array-level helpers accept any number of leading batch axes, with
(d, c, o, x) always the trailing four.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import CoinSet
from .series import CapitalSeries


class LatticeOverflowError(RuntimeError):
    """Amplitude reached the lattice edge; enlarge the steps budget."""


def w_matrix(coins: CoinSet) -> np.ndarray:
    """The 8x8 strategy-and-coin unitary on (d, c, o), x-independent.

    W = |0><1|u  (x)  [b0 (x) |1><0|_o  +  b1 (x) |0><1|_o]
      + |1><0|u  (x)  a (x) X_o

    The capital dependence lives entirely in the o flag set by MOD, so a
    single dense matrix applies at every lattice site.
    """
    lower = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
    raise_ = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    x_o = np.array([[0, 1], [1, 0]], dtype=complex)
    w = (np.kron(raise_ @ coins.u, np.kron(coins.b0, lower) +
                 np.kron(coins.b1, raise_)) +
         np.kron(lower @ coins.u, np.kron(coins.a, x_o)))
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class StepOperators:
    """Coin set with the assembled dense W block."""

    coins: CoinSet
    w8: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "w8", w_matrix(self.coins))


@dataclass(frozen=True)
class PureState:
    """Normalized amplitudes on (d, c, o, x) with x in [-offset, offset]."""

    amps: np.ndarray
    offset: int
    step: int = 0

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if amps.shape != (2, 2, 2, 2 * self.offset + 1):
            raise ValueError(f"amplitude shape {amps.shape} does not match "
                             f"offset {self.offset}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(-self.offset, self.offset + 1)


def init_state(d: int, c: int, initial_capital: int = 0,
               steps_budget: int = 0) -> PureState:
    """Basis state |d>|c>|x0>|o=0> on a lattice sized for steps_budget."""
    if d not in (0, 1) or c not in (0, 1):
        raise ValueError("d and c must be bits")
    if steps_budget < 0:
        raise ValueError("steps_budget must be >= 0")
    half = abs(initial_capital) + steps_budget
    amps = np.zeros((2, 2, 2, 2 * half + 1), dtype=complex)
    amps[d, c, 0, initial_capital + half] = 1.0
    return PureState(amps, half, 0)


# --- array-level step pieces ------------------------------------------------

def mod_amplitudes(amps: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # flip o wherever 3 does not divide x
    flipped = amps[..., ::-1, :]
    return np.where(xs % 3 != 0, flipped, amps)


def w_amplitudes(amps: np.ndarray, w8: np.ndarray) -> np.ndarray:
    shape = amps.shape
    flat = amps.reshape(shape[:-4] + (8, shape[-1]))
    return np.matmul(w8, flat).reshape(shape)


def shift_amplitudes(amps: np.ndarray) -> np.ndarray:
    # c=0 moves x -> x-1, c=1 moves x -> x+1
    if np.any(amps[..., 0, :, 0]) or np.any(amps[..., 1, :, -1]):
        raise LatticeOverflowError("amplitude at the lattice edge would "
                                   "shift off the allocated range")
    out = np.zeros_like(amps)
    out[..., 0, :, :-1] = amps[..., 0, :, 1:]
    out[..., 1, :, 1:] = amps[..., 1, :, :-1]
    return out


def mod_inv_amplitudes(amps: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # flip o wherever the pre-shift capital x - (2c - 1) was divisible by 3
    cond = np.stack([(xs + 1) % 3 == 0, (xs - 1) % 3 == 0])[:, None, :]
    flipped = amps[..., ::-1, :]
    return np.where(cond, flipped, amps)


def step_amplitudes(amps: np.ndarray, w8: np.ndarray,
                    xs: np.ndarray) -> np.ndarray:
    """One full E step on a raw amplitude array (batch axes allowed)."""
    out = mod_amplitudes(amps, xs)
    out = w_amplitudes(out, w8)
    out = shift_amplitudes(out)
    return mod_inv_amplitudes(out, xs)


# --- state-level operations ---------------------------------------------------

def _with(state: PureState, amps: np.ndarray, bump: int = 0) -> PureState:
    return PureState(amps, state.offset, state.step + bump)


def apply_mod(state: PureState) -> PureState:
    return _with(state, mod_amplitudes(state.amps, state.xs))


def apply_w(state: PureState, coins: CoinSet) -> PureState:
    return _with(state, w_amplitudes(state.amps, w_matrix(coins)))


def apply_shift(state: PureState) -> PureState:
    return _with(state, shift_amplitudes(state.amps))


def apply_mod_inv(state: PureState) -> PureState:
    return _with(state, mod_inv_amplitudes(state.amps, state.xs))


def step(state: PureState, coins: CoinSet | StepOperators) -> PureState:
    ops = coins if isinstance(coins, StepOperators) else StepOperators(coins)
    return _with(state, step_amplitudes(state.amps, ops.w8, state.xs), bump=1)


def position_distribution(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Lattice coordinates and the diagonal of the reduced x state."""
    probs = np.abs(state.amps) ** 2
    return state.xs, probs.sum(axis=(0, 1, 2))


def expected_capital(state: PureState) -> float:
    xs, probs = position_distribution(state)
    return float(xs @ probs)


def second_moment(state: PureState) -> float:
    xs, probs = position_distribution(state)
    return float((xs * xs) @ probs)


def run(coins: CoinSet, d: int, c: int, steps: int) -> CapitalSeries:
    """Capital series over n = 0 .. steps from the basis state (d, c, x=0)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    ops = StepOperators(coins)
    state = init_state(d, c, 0, steps)
    cap = np.empty(steps + 1)
    mom = np.empty(steps + 1)
    cap[0], mom[0] = expected_capital(state), second_moment(state)
    for n in range(1, steps + 1):
        state = step(state, ops)
        cap[n], mom[n] = expected_capital(state), second_moment(state)
    return CapitalSeries(np.arange(steps + 1), cap, mom)
