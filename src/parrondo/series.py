"""Per-step capital record shared by all simulators."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def format_float(value: float) -> str:
    # 16 significant digits; deterministic, so equal runs give equal bytes
    return f"{value:.15e}"


@dataclass(frozen=True)
class CapitalSeries:
    """Rows (n, expected capital, second moment), n counting from 0.

    extra holds further named columns, written after the two moments in
    their order: the trajectory averager's stderr, the kspace route's
    moments.  Exact propagation leaves it empty.
    """

    ns: np.ndarray
    expected_capital: np.ndarray
    second_moment: np.ndarray
    extra: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        ns = np.asarray(self.ns, dtype=int)
        cap = np.asarray(self.expected_capital, dtype=float)
        mom = np.asarray(self.second_moment, dtype=float)
        extra = {name: _readonly(np.asarray(col, dtype=float))
                 for name, col in self.extra.items()}
        if any(len(col) != len(ns) for col in (cap, mom, *extra.values())):
            raise ValueError("column lengths differ")
        if len(ns) == 0 or ns[0] != 0 or np.any(np.diff(ns) <= 0):
            raise ValueError("step column must increase strictly from 0")
        # capital can move at most one unit per step
        bound = ns + np.abs(cap[0]) + 1e-9
        if np.any(np.abs(cap) > bound):
            raise ValueError("expected capital exceeds the per-step bound")
        object.__setattr__(self, "ns", _readonly(ns))
        object.__setattr__(self, "expected_capital", _readonly(cap))
        object.__setattr__(self, "second_moment", _readonly(mom))
        object.__setattr__(self, "extra", extra)

    def __len__(self) -> int:
        return len(self.ns)

    def write_csv(self, path) -> None:
        """UTF-8, LF line endings, 16 significant digits per float."""
        cols = [self.expected_capital, self.second_moment,
                *self.extra.values()]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["n", "expected_capital", "second_moment",
                               *self.extra]) + "\n")
            for i, n in enumerate(self.ns):
                fh.write(",".join([str(int(n))] +
                                  [format_float(col[i]) for col in cols])
                         + "\n")


def observe(distributions: Iterable[tuple[np.ndarray, np.ndarray]]
            ) -> CapitalSeries:
    """<x> and <x^2> of each (capitals, probabilities) pair, n = 0, 1, ..."""
    cap, mom = [], []
    for xs, probs in distributions:
        cap.append(xs @ probs)
        mom.append((xs * xs) @ probs)
        del xs, probs  # freed before the source makes the next state
    return CapitalSeries(np.arange(len(cap)), np.array(cap), np.array(mom))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a
