"""SU(2) coin gates shared by every game variant.

All unitaries in this package are plain (2, 2) complex ndarrays built from
the three-angle parametrization

    G(theta, alpha, beta) = [[ e^{i alpha} cos(theta/2),  i e^{i beta} sin(theta/2)],
                             [ i e^{-i beta} sin(theta/2), e^{-i alpha} cos(theta/2)]]

with theta in [0, pi] and alpha, beta in [-pi, pi].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exact-algebra identities are held to ATOL_EXACT; agreement between two
# independent simulation routes only to ATOL_CROSS.
ATOL_EXACT = 1e-12
ATOL_CROSS = 1e-8


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=complex)
    m.flags.writeable = False
    return m


def is_unitary(m: np.ndarray, atol: float = ATOL_EXACT) -> bool:
    m = np.asarray(m)
    eye = np.eye(m.shape[0])
    return bool(np.all(np.abs(m.conj().T @ m - eye) <= atol))


@dataclass(frozen=True)
class SU2Params:
    """Angles of one SU(2) rotation; rejects values outside the domain."""

    theta: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (-np.pi <= v <= np.pi):
                raise ValueError(f"{name}={v} outside [-pi, pi]")


def su2(params: SU2Params) -> np.ndarray:
    """Unitary with unit determinant for the given angles."""
    c = np.cos(params.theta / 2)
    s = np.sin(params.theta / 2)
    ea = np.exp(1j * params.alpha)
    eb = np.exp(1j * params.beta)
    return _frozen(np.array([[ea * c, 1j * eb * s],
                             [1j * np.conj(eb) * s, np.conj(ea) * c]]))


def not_gate() -> np.ndarray:
    return _frozen(np.array([[0.0, 1.0], [1.0, 0.0]]))


@dataclass(frozen=True)
class CoinSet:
    """The three game coins plus the strategy-mixing unitary.

    a is the single biased coin, b0/b1 the capital-conditioned pair (b0
    when the capital is divisible by 3), u the rotation applied to the
    strategy register before each coin choice.
    """

    a: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("a", "b0", "b1", "u"):
            m = _frozen(getattr(self, name))
            if m.shape != (2, 2):
                raise ValueError(f"coin {name} must be 2x2")
            if not is_unitary(m):
                raise ValueError(f"coin {name} is not unitary within {ATOL_EXACT}")
            object.__setattr__(self, name, m)


# Mixing unitary (1/sqrt2)[[1, i], [i, 1]]; fixed for every game variant.
MIX_PARAMS = SU2Params(np.pi / 2)


def default_coins(epsilon: float) -> CoinSet:
    """Coin set with the standard bias angles.

    a  = G(2(pi/2  - eps), 0, 0)
    b0 = G(2(pi/10 - eps), 0, 0)
    b1 = G(2(3/4   - eps), 0, 0)     # 3/2 - 2 eps radians, no pi factor

    Raises ValueError when any resulting theta leaves [0, pi], which
    restricts epsilon to [0, pi/10].
    """
    return CoinSet(
        a=su2(SU2Params(2 * (np.pi / 2 - epsilon))),
        b0=su2(SU2Params(2 * (np.pi / 10 - epsilon))),
        b1=su2(SU2Params(2 * (3 / 4 - epsilon))),
        u=su2(MIX_PARAMS),
    )
