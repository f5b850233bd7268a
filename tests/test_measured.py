import numpy as np
import pytest

from parrondo.cpmap import (
    expected_capital_density,
    init_density,
    step_density,
)
from parrondo.gates import CoinSet, SU2Params, default_coins, su2
from parrondo.measured import (
    average_trajectories,
    run_d_measured,
    run_dc_measured,
)

COINS = default_coins(0.01)


# --- trajectory mechanics ----------------------------------------------------

def test_runners_are_deterministic_per_seed():
    for runner in (run_d_measured, run_dc_measured):
        a = runner(COINS, 0, 0, 30, rng_seed=4)
        b = runner(COINS, 0, 0, 30, rng_seed=4)
        c = runner(COINS, 0, 0, 30, rng_seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def test_collapsed_game_walks_one_unit_per_step():
    path = run_dc_measured(COINS, 0, 0, 200, rng_seed=8)
    caps = path[:, 0]
    assert caps[0] == 0.0
    assert np.all(np.abs(np.diff(caps)) == 1.0)
    np.testing.assert_array_equal(path[:, 1], caps ** 2)


def test_coherent_game_reports_consistent_moments():
    path = run_d_measured(COINS, 0, 0, 80, rng_seed=2)
    assert path[0, 0] == 0.0 and path[0, 1] == 0.0
    assert np.all(path[:, 1] >= path[:, 0] ** 2 - 1e-12)
    ns = np.arange(81)
    assert np.all(np.abs(path[:, 0]) <= ns + 1e-12)


def test_runners_validate_bits_and_steps():
    for runner in (run_d_measured, run_dc_measured):
        with pytest.raises(ValueError):
            runner(COINS, 2, 0, 1)
        with pytest.raises(ValueError):
            runner(COINS, 0, 0, -1)


def test_runners_raise_when_the_norm_drifts():
    # a coin altered after validation; a raised error, unlike an assert,
    # survives python -O
    coins = default_coins(0.01)
    object.__setattr__(coins, "a", 1.5 * np.eye(2))
    for runner in (run_d_measured, run_dc_measured):
        with pytest.raises(RuntimeError, match="norm"):
            runner(coins, 0, 0, 20, rng_seed=3)


def test_initial_strategy_bit_only_relabels_the_stream():
    # the mixing rotation gives even odds from either basis state, so
    # both starts produce valid paths (not identical, still one per seed)
    a = run_dc_measured(COINS, 0, 0, 50, rng_seed=1)
    b = run_dc_measured(COINS, 1, 0, 50, rng_seed=1)
    assert np.all(np.abs(np.diff(a[:, 0])) == 1.0)
    assert np.all(np.abs(np.diff(b[:, 0])) == 1.0)


# --- measurement statistics ------------------------------------------------------

def test_strategy_draws_are_a_fair_coin():
    # with a = identity and both b coins a pure bit flip, the capital
    # path reveals every strategy draw: strategy B flips the previous
    # move direction, strategy A repeats it
    coins = CoinSet(a=su2(SU2Params(0.0)), b0=su2(SU2Params(np.pi)),
                    b1=su2(SU2Params(np.pi)), u=COINS.u)
    steps = 10_000
    path = run_dc_measured(coins, 0, 0, steps, rng_seed=13)
    outcomes = ((np.diff(path[:, 0]) + 1) // 2).astype(int)
    prev = np.concatenate([[0], outcomes[:-1]])
    flips = np.count_nonzero(outcomes != prev)
    se = np.sqrt(0.25 / steps)
    assert abs(flips / steps - 0.5) < 4 * se


def test_collapsed_coin_flips_with_the_gate_bias():
    # one shared coin: each step the outcome flips the collapsed value
    # with probability cos(eps)^2 regardless of the strategy draw
    eps = 0.3
    shared = su2(SU2Params(2 * (np.pi / 2 - eps)))
    coins = CoinSet(a=shared, b0=shared, b1=shared, u=COINS.u)
    steps = 10_000
    path = run_dc_measured(coins, 0, 0, steps, rng_seed=21)
    outcomes = ((np.diff(path[:, 0]) + 1) // 2).astype(int)
    prev = np.concatenate([[0], outcomes[:-1]])
    rate = np.count_nonzero(outcomes != prev) / steps
    expect = np.cos(eps) ** 2
    se = np.sqrt(expect * (1 - expect) / steps)
    assert abs(rate - expect) < 4 * se


def test_first_move_bias_matches_the_coin_column():
    eps = 0.4
    shared = su2(SU2Params(2 * (np.pi / 2 - eps)))
    coins = CoinSet(a=shared, b0=shared, b1=shared, u=COINS.u)
    runs = 3000
    ups = sum(run_dc_measured(coins, 0, 0, 1, rng_seed=s)[1, 0] == 1.0
              for s in range(runs))
    expect = np.cos(eps) ** 2
    se = np.sqrt(expect * (1 - expect) / runs)
    assert abs(ups / runs - expect) < 4 * se


def test_coherent_ensemble_tracks_the_density_map():
    steps, samples = 25, 600
    rho = init_density(0, 0, steps)
    for _ in range(steps):
        rho = step_density(rho, COINS)
    target = expected_capital_density(rho)
    finals = np.array([run_d_measured(COINS, 0, 0, steps, s)[-1, 0]
                       for s in range(samples)])
    se = finals.std(ddof=1) / np.sqrt(samples)
    assert abs(finals.mean() - target) < 4 * se


def test_ensemble_capital_is_antisymmetric_in_the_coin_start():
    steps, samples = 30, 400
    mean = {}
    err = {}
    for c0 in (0, 1):
        finals = np.array([run_d_measured(COINS, 0, c0, steps, s)[-1, 0]
                           for s in range(samples)])
        mean[c0] = finals.mean()
        err[c0] = finals.std(ddof=1) / np.sqrt(samples)
    combined = np.hypot(err[0], err[1])
    assert abs(mean[0] + mean[1]) < 4 * combined


# --- averaging ---------------------------------------------------------------------

def test_single_sample_average_equals_the_run():
    path = run_d_measured(COINS, 0, 0, 15, rng_seed=42)
    series = average_trajectories(
        lambda seed: run_d_measured(COINS, 0, 0, 15, seed), 1, base_seed=42)
    np.testing.assert_array_equal(series.expected_capital, path[:, 0])
    np.testing.assert_array_equal(series.second_moment, path[:, 1])
    np.testing.assert_array_equal(series.stderr, np.zeros(16))


def test_average_uses_consecutive_seeds_and_exact_error():
    def fake(seed):
        return np.array([[0.0, 0.0], [float(seed), float(seed) ** 2]])

    series = average_trajectories(fake, 3, base_seed=0)
    np.testing.assert_array_equal(series.ns, [0, 1])
    assert series.expected_capital[1] == pytest.approx(1.0)
    assert series.second_moment[1] == pytest.approx(5 / 3)
    # sample sd of (0, 1, 2) is 1, so the error is 1/sqrt(3)
    assert series.stderr[1] == pytest.approx(1 / np.sqrt(3))
    assert series.stderr[0] == 0.0


def test_average_rejects_empty_ensembles():
    with pytest.raises(ValueError):
        average_trajectories(lambda s: np.zeros((2, 2)), 0)
