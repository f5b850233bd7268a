"""Command-line front end: one game per invocation, one CSV per run."""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import classical, cpmap, kspace, measured, walk
from .gates import MIX_PARAMS, CoinSet, SU2Params, default_coins, su2
from .series import CapitalSeries, format_float

GAMES = ("classical", "quantum", "cpmap", "traj-d", "traj-dc", "kspace")

# which options make sense for which game; anything else given explicitly
# is a usage error
_COMMON = {"steps", "epsilon", "out"}
_COINS = {"coin_a", "coin_b0", "coin_b1"}
_ALLOWED = {
    "classical": _COMMON | {"schedule"},
    "quantum": _COMMON | _COINS | {"initial_d", "initial_c"},
    "kspace": _COMMON | _COINS | {"initial_d", "initial_c", "k_grid"},
    "cpmap": _COMMON | _COINS | {"initial_c"},
    "traj-d": _COMMON | _COINS | {"initial_d", "initial_c", "samples", "seed"},
    "traj-dc": _COMMON | _COINS | {"initial_d", "initial_c", "samples",
                                   "seed"},
}

# steps at which every game finishes well inside the desk-scale budget
_DEFAULT_STEPS = {"classical": 1000, "quantum": 1000, "kspace": 1000,
                  "cpmap": 200, "traj-d": 100, "traj-dc": 100}


@dataclass(frozen=True)
class RunConfig:
    game: str
    steps: int
    epsilon: float
    out: str
    schedule: classical.StrategySchedule | None = None
    initial_d: int = 0
    initial_c: int = 0
    samples: int = 5000
    seed: int = 42
    k_grid: int | None = None
    coin_a: SU2Params | None = None
    coin_b0: SU2Params | None = None
    coin_b1: SU2Params | None = None


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
    known = {"game"}.union(*_ALLOWED.values())
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
        out[key] = value.strip()
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
    if text == "A":
        return classical.AlwaysA()
    if text == "B":
        return classical.AlwaysB()
    if text == "random":
        return classical.RandomMixture(0.5)
    if text.startswith("random:"):
        try:
            return classical.RandomMixture(float(text.split(":", 1)[1]))
        except ValueError as exc:
            parser.error(f"bad schedule {text!r} ({exc})")
    try:
        return classical.Periodic(text)
    except ValueError as exc:
        parser.error(f"bad schedule {text!r} ({exc})")


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_values = (_read_config_file(args.config, parser)
                   if args.config else {})

    merged = {key: _convert(key, raw, parser)
              for key, raw in file_values.items()}
    merged.update((key, value) for key, value in vars(args).items()
                  if value is not None and key != "config")

    game = merged.get("game")
    if game is None:
        parser.error("--game is required")
    if game not in GAMES:
        parser.error(f"unknown game {game!r}")

    stray = set(merged) - {"game"} - _ALLOWED[game]
    if stray:
        parser.error(f"option(s) {sorted(stray)} do not apply to "
                     f"--game {game}")
    if "out" not in merged:
        parser.error("--out is required")

    steps = merged.get("steps", _DEFAULT_STEPS[game])
    if steps < 0:
        parser.error("steps must be >= 0")
    # every game's biases detune downwards; the upper bound is per game
    epsilon = merged.get("epsilon", 0.01)
    if not epsilon >= 0:
        parser.error("epsilon must be >= 0")
    samples = merged.get("samples", 5000)
    if samples < 1:
        parser.error("samples must be >= 1")
    for bit_key in ("initial_d", "initial_c"):
        if merged.get(bit_key, 0) not in (0, 1):
            parser.error(f"{bit_key.replace('_', '-')} must be 0 or 1")
    k_grid = merged.get("k_grid")
    if k_grid is not None and k_grid < 2 * steps + 3:
        parser.error(f"k-grid must be at least 2*steps+3 = {2 * steps + 3}")

    schedule = None
    if game == "classical":
        schedule = _parse_schedule(merged.get("schedule", "random"), parser)

    return RunConfig(
        game=game,
        steps=steps,
        epsilon=epsilon,
        out=merged["out"],
        schedule=schedule,
        initial_d=merged.get("initial_d", 0),
        initial_c=merged.get("initial_c", 0),
        samples=samples,
        seed=merged.get("seed", 42),
        k_grid=k_grid,
        coin_a=merged.get("coin_a"),
        coin_b0=merged.get("coin_b0"),
        coin_b1=merged.get("coin_b1"),
    )


def _coins(config: RunConfig) -> CoinSet:
    base = default_coins(config.epsilon)
    return CoinSet(
        a=su2(config.coin_a) if config.coin_a else base.a,
        b0=su2(config.coin_b0) if config.coin_b0 else base.b0,
        b1=su2(config.coin_b1) if config.coin_b1 else base.b1,
        u=su2(MIX_PARAMS),
    )


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


def _run_kspace(config: RunConfig) -> None:
    coins = _coins(config)
    direct = walk.run(coins, config.initial_d, config.initial_c, config.steps)
    grid = (kspace.KGrid(config.k_grid) if config.k_grid
            else kspace.KGrid.for_steps(config.steps))
    cap = np.empty(config.steps + 1)
    mom = np.empty(config.steps + 1)
    for state in kspace.propagate_steps(coins, config.initial_d,
                                        config.initial_c, config.steps, grid):
        xs, probs = kspace.position_distribution(state, grid, state.step)
        cap[state.step] = xs @ probs
        mom[state.step] = (xs * xs) @ probs
    disc = route_discrepancy(direct, cap, mom)
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,expected_capital,second_moment,"
                 "expected_capital_kspace,second_moment_kspace\n")
        for n in range(config.steps + 1):
            fh.write(",".join([
                str(n),
                format_float(direct.expected_capital[n]),
                format_float(direct.second_moment[n]),
                format_float(cap[n]),
                format_float(mom[n]),
            ]) + "\n")
    print("max |direct - kspace| (capital absolute, second moment relative "
          f"to max(1, <x^2>)): {disc:.3e}")


def run(config: RunConfig) -> int:
    """Dispatch, write the CSV, report 0 on success."""
    try:
        if config.game == "kspace":
            _run_kspace(config)
            return 0
        if config.game == "classical":
            series = classical.propagate_distribution(
                classical.default_params(config.epsilon), config.schedule,
                config.steps)
        elif config.game == "quantum":
            series = walk.run(_coins(config), config.initial_d,
                              config.initial_c, config.steps)
        elif config.game == "cpmap":
            series = cpmap.capital_moments(_coins(config), config.initial_c,
                                           config.steps)
        else:
            series = measured.average_trajectories(measured.ensemble_paths(
                _coins(config), config.initial_d, config.initial_c,
                config.steps, config.samples, config.seed,
                collapse_coin=config.game == "traj-dc"))
        series.write_csv(config.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def emit_plot_data(*series: CapitalSeries, labels: list[str] | None = None,
                   field: str = "expected_capital") -> str:
    """Aligned whitespace-separated columns `n series1 series2 ...`."""
    if labels is None:
        labels = [f"series{i + 1}" for i in range(len(series))]
    if len(labels) != len(series):
        raise ValueError("one label per series required")
    lines = ["# n " + " ".join(labels) if series else "# n"]
    if series:
        ns = series[0].ns
        for s in series[1:]:
            if len(s) != len(ns) or np.any(s.ns != ns):
                raise ValueError("series step columns differ")
        for i, n in enumerate(ns):
            cells = [f"{int(n):6d}"]
            cells += [format_float(getattr(s, field)[i]) for s in series]
            lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    sys.exit(main())
