"""The benchmark's workloads: each is a list of command lines for
`parrondo.cli.main`, generated from the workload seed.

Every workload runs all six games.  The seed reaches the program only as
the `--seed` of the trajectory games; everything else in a workload is
fixed, so the operation count of a round never depends on the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

GAMES = ("classical", "quantum", "kspace", "cpmap", "traj-d", "traj-dc")
SCHEDULES = ("A", "B", "AABB", "random")
PREPARATIONS = ((0, 0), (0, 1), (1, 0), (1, 1))
EPSILON = 0.01  # the CLI's default bias detuning

# The sweep's detunings: cell midpoints of [0, 0.1].  0.1 is where the
# classical game's p0 = 1/10 - eps reaches 0; the quantum games accept up
# to pi/10, but classical rejects anything above 0.1.  The games whose
# short runs take milliseconds get every point, the others every third.
SWEEP_EPSILONS = tuple(0.1 * (k + 0.5) / 24 for k in range(24))


@dataclass(frozen=True)
class Op:
    """One game run: the CLI arguments (without `--out`) and their values."""

    game: str
    epsilon: float
    steps: int
    schedule: str | None = None
    d: int = 0
    c: int = 0
    samples: int = 0
    seed: int = 0

    def argv(self) -> list[str]:
        args = ["--game", self.game, "--steps", str(self.steps),
                "--epsilon", repr(self.epsilon)]
        if self.game == "classical":
            return args + ["--schedule", self.schedule]
        if self.game in ("quantum", "kspace", "traj-d", "traj-dc"):
            args += ["--initial-d", str(self.d)]
        args += ["--initial-c", str(self.c)]
        if self.game in ("traj-d", "traj-dc"):
            args += ["--samples", str(self.samples), "--seed", str(self.seed)]
        return args


def _classical(eps, steps, repeats=1):
    return [Op("classical", eps, steps, schedule=s)
            for _ in range(repeats) for s in SCHEDULES]


def _quantum(game, eps, steps, preparations=PREPARATIONS):
    return [Op(game, eps, steps, d=d, c=c) for d, c in preparations]


def _trajectories(game, eps, steps, samples, starts, rng):
    return [Op(game, eps, steps, c=c, samples=samples,
               seed=rng.randrange(2 ** 31)) for c in starts]


# Where the work allows, a game's share of a workload is split into
# several calls (more repeats or starts, or an ensemble split into
# sub-ensembles with their own seeds), which `generate` spreads out.

def paper(rng: random.Random) -> list[Op]:
    """The README's reproduction commands, at their default detuning.

    cpmap also runs from c = 1 over half the horizon, enough for the
    mirror-symmetry check at a twelfth of the cost of a second 200 steps.
    The 5000-sample trajectory ensembles become 8 sub-ensembles, of 125
    samples for traj-d (the README's 5000 would take 25 s) and of 625
    for traj-dc.
    """
    return (_classical(EPSILON, 1000, repeats=4)
            + _quantum("quantum", EPSILON, 1000)
            + _quantum("kspace", EPSILON, 1000, ((0, 0), (0, 1)))
            + [Op("cpmap", EPSILON, 200), Op("cpmap", EPSILON, 100, c=1)]
            + _trajectories("traj-d", EPSILON, 100, 125, (0, 1) * 4, rng)
            + _trajectories("traj-dc", EPSILON, 100, 625, (0, 1) * 4, rng))


def long_horizon(rng: random.Random) -> list[Op]:
    """Each game at a horizon longer than in `paper`."""
    return (_classical(EPSILON, 4000)
            + _quantum("quantum", EPSILON, 2000, ((0, 0), (0, 1)))
            + _quantum("kspace", EPSILON, 1200, ((0, 0), (0, 1)))
            + [Op("cpmap", EPSILON, 210)]
            + _trajectories("traj-d", EPSILON, 400, 25, (0,) * 4, rng)
            + _trajectories("traj-dc", EPSILON, 1000, 125, (0, 1) * 2, rng))


def sweep(rng: random.Random) -> list[Op]:
    """Every game over the detuning grid and both coin starts, short runs."""
    ops = []
    for k, eps in enumerate(SWEEP_EPSILONS):
        ops += _classical(eps, 40)
        ops += _quantum("quantum", eps, 40)
        ops += _quantum("kspace", eps, 40, ((0, 0), (0, 1)))
        if k % 3 == 1:
            ops += [Op("cpmap", eps, 40, c=c) for c in (0, 1)]
            ops += _trajectories("traj-d", eps, 40, 200, (0, 1), rng)
            ops += _trajectories("traj-dc", eps, 40, 200, (0, 1), rng)
    return ops


WORKLOADS = {"paper": paper, "long-horizon": long_horizon, "sweep": sweep}

# The reference calls the worker makes between the workload's calls, on the
# frozen copy of the package in ref/ (see run.py): one small call of each
# game, about 0.4 s for the six.
REFERENCE = (Op("quantum", EPSILON, 300), Op("kspace", EPSILON, 150),
             Op("cpmap", EPSILON, 50), Op("classical", EPSILON, 800,
                                          schedule="random"),
             Op("traj-d", EPSILON, 40, samples=30),
             Op("traj-dc", EPSILON, 100, samples=100))


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations in the order one round runs them.

    Each game's operations are spread evenly over the round instead of
    run back to back: this machine's speed drifts by 10-20 % over seconds,
    and a game whose calls sit together would see one such phase.
    """
    ops = WORKLOADS[workload](random.Random(seed))
    total = {game: sum(op.game == game for op in ops) for game in GAMES}
    seen = dict.fromkeys(GAMES, 0)
    position = []
    for op in ops:
        position.append((seen[op.game] + 0.5) / total[op.game])
        seen[op.game] += 1
    return [op for _, op in sorted(zip(position, ops), key=lambda p: p[0])]
