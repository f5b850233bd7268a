"""Per-step capital record shared by all simulators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def format_float(value: float) -> str:
    # 16 significant digits; deterministic, so equal runs give equal bytes
    return f"{value:.15e}"


@dataclass(frozen=True)
class CapitalSeries:
    """Rows (n, expected capital, second moment), n counting from 0.

    stderr is attached by the trajectory averager and is None for exact
    propagation.
    """

    ns: np.ndarray
    expected_capital: np.ndarray
    second_moment: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        ns = np.asarray(self.ns, dtype=int)
        cap = np.asarray(self.expected_capital, dtype=float)
        mom = np.asarray(self.second_moment, dtype=float)
        if not (len(ns) == len(cap) == len(mom)):
            raise ValueError("column lengths differ")
        if len(ns) == 0 or ns[0] != 0 or np.any(np.diff(ns) <= 0):
            raise ValueError("step column must increase strictly from 0")
        # capital can move at most one unit per step
        bound = ns + np.abs(cap[0]) + 1e-9
        if np.any(np.abs(cap) > bound):
            raise ValueError("expected capital exceeds the per-step bound")
        err = self.stderr
        if err is not None:
            err = np.asarray(err, dtype=float)
            if len(err) != len(ns):
                raise ValueError("column lengths differ")
            object.__setattr__(self, "stderr", _readonly(err))
        object.__setattr__(self, "ns", _readonly(ns))
        object.__setattr__(self, "expected_capital", _readonly(cap))
        object.__setattr__(self, "second_moment", _readonly(mom))

    def __len__(self) -> int:
        return len(self.ns)

    def write_csv(self, path) -> None:
        """UTF-8, LF line endings, 16 significant digits per float."""
        cols = ["n", "expected_capital", "second_moment"]
        if self.stderr is not None:
            cols.append("stderr")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for i, n in enumerate(self.ns):
                row = [str(int(n)),
                       format_float(self.expected_capital[i]),
                       format_float(self.second_moment[i])]
                if self.stderr is not None:
                    row.append(format_float(self.stderr[i]))
                fh.write(",".join(row) + "\n")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a
