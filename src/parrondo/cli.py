"""Command-line front end: one game per invocation, one CSV per run."""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import classical, cpmap, kspace, measured, walk
from .gates import CoinSet, SU2Params, default_coins, su2
# format_float is not called here; the benchmark's tracer still wraps
# cli.format_float by name, so the name has to resolve
from .series import CapitalSeries, format_float  # noqa: F401


@dataclass(frozen=True)
class RunConfig:
    game: str
    steps: int
    out: str
    epsilon: float = 0.01
    schedule: classical.StrategySchedule = classical.RandomMixture(0.5)
    initial_d: int = 0
    initial_c: int = 0
    samples: int = 5000
    seed: int = 42
    k_grid: int | None = None
    coin_a: SU2Params | None = None
    coin_b0: SU2Params | None = None
    coin_b1: SU2Params | None = None


def _coins(config: RunConfig) -> CoinSet:
    given = {"a": config.coin_a, "b0": config.coin_b0, "b1": config.coin_b1}
    return replace(default_coins(config.epsilon),
                   **{name: su2(p) for name, p in given.items() if p})


def route_discrepancy(reference: CapitalSeries, cap: np.ndarray,
                      mom: np.ndarray) -> float:
    """Largest gap of a second route from the reference series.

    The capital's gap counts absolutely; the second moment grows as n^2,
    so its gap counts relative to max(1, <x^2>).
    """
    cap_gap = np.max(np.abs(cap - reference.expected_capital))
    mom_gap = np.max(np.abs(mom - reference.second_moment) /
                     np.maximum(1.0, np.abs(reference.second_moment)))
    return float(max(cap_gap, mom_gap))


# --- one series function per game --------------------------------------------

def _classical(config: RunConfig) -> CapitalSeries:
    return classical.propagate_distribution(
        classical.default_params(config.epsilon), config.schedule,
        config.steps)


def _quantum(config: RunConfig) -> CapitalSeries:
    return walk.run(_coins(config), config.initial_d, config.initial_c,
                    config.steps)


def _kspace(config: RunConfig) -> CapitalSeries:
    """The walk's series with the momentum route's moments beside it."""
    coins = _coins(config)
    direct = walk.run(coins, config.initial_d, config.initial_c, config.steps)
    grid = kspace.KGrid(config.k_grid) if config.k_grid else None
    route = kspace.capital_series(coins, config.initial_d, config.initial_c,
                                  config.steps, grid)
    disc = route_discrepancy(direct, route.expected_capital,
                             route.second_moment)
    print("max |direct - kspace| (capital absolute, second moment relative "
          f"to max(1, <x^2>)): {disc:.3e}")
    return CapitalSeries(direct.ns, direct.expected_capital,
                         direct.second_moment,
                         {"expected_capital_kspace": route.expected_capital,
                          "second_moment_kspace": route.second_moment})


def _cpmap(config: RunConfig) -> CapitalSeries:
    return cpmap.capital_moments(_coins(config), config.initial_c,
                                 config.steps)


def _trajectories(config: RunConfig) -> CapitalSeries:
    return measured.average_trajectories(measured.ensemble_paths(
        _coins(config), config.initial_d, config.initial_c, config.steps,
        config.samples, config.seed, collapse_coin=config.game == "traj-dc"))


@dataclass(frozen=True)
class Game:
    # options that make sense for the game; anything else given explicitly
    # is a usage error
    options: set[str]
    # steps at which the game finishes well inside the desk-scale budget
    steps: int
    series: Callable[[RunConfig], CapitalSeries]


_COMMON = {"steps", "epsilon", "out"}
_CPMAP = _COMMON | {"coin_a", "coin_b0", "coin_b1", "initial_c"}
_QUANTUM = _CPMAP | {"initial_d"}
GAMES = {
    "classical": Game(_COMMON | {"schedule"}, 1000, _classical),
    "quantum": Game(_QUANTUM, 1000, _quantum),
    "cpmap": Game(_CPMAP, 200, _cpmap),
    "traj-d": Game(_QUANTUM | {"samples", "seed"}, 100, _trajectories),
    "traj-dc": Game(_QUANTUM | {"samples", "seed"}, 100, _trajectories),
    "kspace": Game(_QUANTUM | {"k_grid"}, 1000, _kspace),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="parrondo",
        description="Simulate one variant of the Parrondo capital game and "
                    "write its per-step series as CSV.")
    p.add_argument("--game", choices=GAMES)
    p.add_argument("--steps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--schedule",
                   help="classical only: A, B, a pattern such as AABB, "
                        "random, or random:P")
    p.add_argument("--initial-d", type=int, dest="initial_d")
    p.add_argument("--initial-c", type=int, dest="initial_c")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-grid", type=int, dest="k_grid")
    p.add_argument("--out")
    p.add_argument("--config", help="flat key = value file; flags override")
    return p


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    known = {"game"}.union(*(g.options for g in GAMES.values()))
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            parser.error(f"{path}:{i}: expected key = value")
        key, _, value = text.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            parser.error(f"{path}:{i}: unknown key {key!r}")
        out[key] = _convert(key, value.strip(), parser)
    return out


def _convert(key: str, raw: str, parser: argparse.ArgumentParser):
    try:
        if key in ("steps", "initial_d", "initial_c", "samples", "seed",
                   "k_grid"):
            return int(raw)
        if key == "epsilon":
            return float(raw)
        if key in ("coin_a", "coin_b0", "coin_b1"):
            parts = [float(v) for v in raw.split(",")]
            if len(parts) != 3:
                raise ValueError("need theta,alpha,beta")
            return SU2Params(*parts)
    except ValueError as exc:
        parser.error(f"bad value for {key}: {raw!r} ({exc})")
    return raw


def _parse_schedule(text: str,
                    parser: argparse.ArgumentParser) -> classical.StrategySchedule:
    named = {"A": classical.AlwaysA(), "B": classical.AlwaysB(),
             "random": classical.RandomMixture(0.5)}
    try:
        if text.startswith("random:"):
            return classical.RandomMixture(float(text.split(":", 1)[1]))
        return named[text] if text in named else classical.Periodic(text)
    except ValueError as exc:
        parser.error(f"bad schedule {text!r} ({exc})")


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    merged = _read_config_file(args.config, parser) if args.config else {}
    merged.update((key, value) for key, value in vars(args).items()
                  if value is not None and key != "config")

    game = merged.get("game")
    if game is None:
        parser.error("--game is required")
    if game not in GAMES:
        parser.error(f"unknown game {game!r}")

    stray = set(merged) - {"game"} - GAMES[game].options
    if stray:
        parser.error(f"option(s) {sorted(stray)} do not apply to "
                     f"--game {game}")
    if "out" not in merged:
        parser.error("--out is required")
    if "schedule" in merged:
        merged["schedule"] = _parse_schedule(merged["schedule"], parser)
    config = RunConfig(**{"steps": GAMES[game].steps, **merged})

    if config.steps < 0:
        parser.error("steps must be >= 0")
    # every game's biases detune downwards; the upper bound is per game
    if not config.epsilon >= 0:
        parser.error("epsilon must be >= 0")
    if config.samples < 1:
        parser.error("samples must be >= 1")
    for bit_key in ("initial_d", "initial_c"):
        if getattr(config, bit_key) not in (0, 1):
            parser.error(f"{bit_key.replace('_', '-')} must be 0 or 1")
    if config.k_grid is not None and config.k_grid < 2 * config.steps + 3:
        parser.error(f"k-grid must be at least 2*steps+3 = "
                     f"{2 * config.steps + 3}")
    return config


def run(config: RunConfig) -> int:
    """Compute the game's series and write its CSV; 0 on success."""
    try:
        GAMES[config.game].series(config).write_csv(config.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    sys.exit(main())
