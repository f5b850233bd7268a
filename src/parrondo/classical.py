"""Classical capital game: two biased coins, one of them conditioned on
the capital modulo 3.

Strategy A wins with probability p.  Strategy B wins with probability p0
when the capital is divisible by 3 and p1 otherwise.  Exact evolution of
the capital distribution follows the master equation

    P_x(n+1) = p_{x-1} P_{x-1}(n) + (1 - p_{x+1}) P_{x+1}(n)

with p_x the win probability at capital x for the strategy played at
step n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .series import CapitalSeries, observe


class DegenerateChainError(ValueError):
    """The capital-mod-3 chain is reducible, no unique stationary state."""


class SingularPotentialError(ValueError):
    """A win probability of 0 or 1 makes the potential logarithm diverge."""


@dataclass(frozen=True)
class ClassicalGameParams:
    p: float
    p0: float
    p1: float

    def __post_init__(self):
        for name in ("p", "p0", "p1"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")

    def win_probs(self, xs: np.ndarray, play_a: bool) -> np.ndarray:
        if play_a:
            return np.full(len(xs), self.p)
        return np.where(xs % 3 == 0, self.p0, self.p1)


def default_params(epsilon: float) -> ClassicalGameParams:
    """Standard biases p = 1/2 - eps, p0 = 1/10 - eps, p1 = 3/4 - eps."""
    return ClassicalGameParams(0.5 - epsilon, 0.1 - epsilon, 0.75 - epsilon)


# --- strategy schedules ---------------------------------------------------

@dataclass(frozen=True)
class AlwaysA:
    def weight_a(self, n: int) -> float:
        return 1.0

    def sample_a(self, n: int, rng: np.random.Generator) -> bool:
        return True


@dataclass(frozen=True)
class AlwaysB:
    def weight_a(self, n: int) -> float:
        return 0.0

    def sample_a(self, n: int, rng: np.random.Generator) -> bool:
        return False


@dataclass(frozen=True)
class Periodic:
    """Fixed pattern over {A, B}, indexed by n mod len(pattern)."""

    pattern: str

    def __post_init__(self):
        if not self.pattern or set(self.pattern) - {"A", "B"}:
            raise ValueError(f"pattern {self.pattern!r} must be a non-empty "
                             "string over 'A'/'B'")

    def weight_a(self, n: int) -> float:
        return 1.0 if self.pattern[n % len(self.pattern)] == "A" else 0.0

    def sample_a(self, n: int, rng: np.random.Generator) -> bool:
        return self.pattern[n % len(self.pattern)] == "A"


@dataclass(frozen=True)
class RandomMixture:
    prob_a: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.prob_a <= 1.0):
            raise ValueError(f"prob_a={self.prob_a} outside [0, 1]")

    def weight_a(self, n: int) -> float:
        return self.prob_a

    def sample_a(self, n: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.prob_a)


StrategySchedule = AlwaysA | AlwaysB | Periodic | RandomMixture


# --- losing threshold and stationary analysis -------------------------------

def losing_threshold(p1: float) -> float:
    """Critical p0 below which pure-B play is losing (equal means fair)."""
    if not (0.0 <= p1 <= 1.0):
        raise ValueError(f"p1={p1} outside [0, 1]")
    return (1 - 2 * p1 + p1 ** 2) / (1 - 2 * p1 + 2 * p1 ** 2)


def _mod3_transition(p0: float, p1: float) -> np.ndarray:
    probs = (p0, p1, p1)
    t = np.zeros((3, 3))
    for i, pi in enumerate(probs):
        t[i, (i + 1) % 3] = pi
        t[i, (i - 1) % 3] = 1 - pi
    return t


def stationary_drift(params: ClassicalGameParams) -> float:
    """Per-step capital drift of pure-B play from its stationary state.

    Solves pi T = pi for the 3-state chain on capital mod 3 and returns
    sum_i pi_i (2 p_i - 1).  Negative exactly when p0 is below
    losing_threshold(p1), zero at equality.
    """
    t = _mod3_transition(params.p0, params.p1)
    adj = t > 0
    reach = adj | (adj @ adj) | (adj @ adj @ adj)
    if not np.all(reach | np.eye(3, dtype=bool)):
        raise DegenerateChainError(
            f"chain with p0={params.p0}, p1={params.p1} is reducible")
    a = np.vstack([(t.T - np.eye(3))[:2], np.ones(3)])
    pi = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
    wins = np.array([params.p0, params.p1, params.p1])
    return float(pi @ (2 * wins - 1))


# --- exact distribution propagation ----------------------------------------

@dataclass(frozen=True)
class CapitalDistribution:
    """Dense probability vector over capitals [-offset, offset] + start."""

    probs: np.ndarray
    offset: int
    step: int

    @property
    def xs(self) -> np.ndarray:
        return np.arange(len(self.probs)) - self.offset

    def as_dict(self) -> dict[int, float]:
        return {int(x): float(p)
                for x, p in zip(self.xs, self.probs) if p != 0.0}


def distribution_steps(params: ClassicalGameParams,
                       schedule: StrategySchedule,
                       steps: int,
                       initial_capital: int = 0) -> Iterator[CapitalDistribution]:
    """Yield the exact capital distribution at n = 0 .. steps.

    A RandomMixture is propagated by averaging the per-capital win
    probabilities of the two strategies, which equals the ensemble over
    per-step strategy draws.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    half = abs(initial_capital) + steps
    xs = np.arange(-half, half + 1)
    prob = np.zeros(len(xs))
    prob[initial_capital + half] = 1.0
    yield CapitalDistribution(prob.copy(), half, 0)
    pa = params.win_probs(xs, play_a=True)
    pb = params.win_probs(xs, play_a=False)
    for n in range(steps):
        w = schedule.weight_a(n)
        px = w * pa + (1 - w) * pb
        new = np.zeros_like(prob)
        new[1:] += (px * prob)[:-1]
        new[:-1] += ((1 - px) * prob)[1:]
        prob = new
        yield CapitalDistribution(prob.copy(), half, n + 1)


def propagate_distribution(params: ClassicalGameParams,
                           schedule: StrategySchedule,
                           steps: int,
                           initial_capital: int = 0) -> CapitalSeries:
    return observe((dist.xs, dist.probs) for dist in distribution_steps(
        params, schedule, steps, initial_capital))


# --- sampled trajectories ---------------------------------------------------

def play_trajectory(params: ClassicalGameParams,
                    schedule: StrategySchedule,
                    steps: int,
                    initial_capital: int = 0,
                    rng_seed: int = 0) -> np.ndarray:
    """One sampled capital path of length steps + 1."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(rng_seed)
    if isinstance(schedule, AlwaysA):
        # capital independent, so all coin tosses can be drawn at once
        moves = np.where(rng.random(steps) < params.p, 1, -1)
        path = np.empty(steps + 1, dtype=np.int64)
        path[0] = initial_capital
        np.cumsum(moves, out=path[1:])
        path[1:] += initial_capital
        return path
    path = np.empty(steps + 1, dtype=np.int64)
    cap = initial_capital
    path[0] = cap
    for n in range(steps):
        if schedule.sample_a(n, rng):
            p_win = params.p
        else:
            p_win = params.p0 if cap % 3 == 0 else params.p1
        cap += 1 if rng.random() < p_win else -1
        path[n + 1] = cap
    return path


# --- ratchet potential -------------------------------------------------------

def ratchet_potential(win_probs: Mapping[int, float],
                      x_max: int) -> dict[int, float]:
    """Potential V_x = -(1/2) sum_{y=1..x} ln(p_{y-1} / (1 - p_y)), V_0 = 0.

    win_probs must cover capitals 0 .. x_max with values strictly inside
    (0, 1); a pure-A game gives a linear V, a pure-B game a period-3
    sawtooth.
    """
    if x_max < 0:
        raise ValueError("x_max must be >= 0")
    for x in range(x_max + 1):
        p = win_probs[x]
        if not (0.0 < p < 1.0):
            raise SingularPotentialError(f"win probability at x={x} is {p}")
    out = {0: 0.0}
    v = 0.0
    for y in range(1, x_max + 1):
        v -= 0.5 * math.log(win_probs[y - 1] / (1.0 - win_probs[y]))
        out[y] = v
    return out
