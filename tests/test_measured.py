import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parrondo import measured
from parrondo.cli import main
from parrondo.cpmap import (
    b_step_pure,
    capital_moments,
    expected_capital_density,
    init_density,
    shift_pure,
    step_density,
)
from parrondo.gates import MIX_PARAMS, CoinSet, SU2Params, default_coins, su2
from parrondo.measured import (
    average_trajectories,
    ensemble_paths,
    run_d_measured,
    run_dc_measured,
)

COINS = default_coins(0.01)
# complex entries everywhere and a mixing rotation whose odds depend on
# the collapsed strategy bit
SKEW_COINS = CoinSet(a=su2(SU2Params(1.1, 0.4, -0.9)),
                     b0=su2(SU2Params(0.3, -1.2, 2.0)),
                     b1=su2(SU2Params(2.2, 0.7, 1.3)),
                     u=su2(SU2Params(1.2, 0.5, -2.1)))


# --- per-seed reference loops: one trajectory at a time, one random() per draw

def _measure_strategy(coins, d, rng):
    return 0 if rng.random() < abs(coins.u[0, d]) ** 2 else 1


def _reference_d(coins, d0, c0, steps, seed):
    rng = np.random.default_rng(seed)
    xs = np.arange(-steps, steps + 1)
    mask0 = xs % 3 == 0
    psi = np.zeros((2, len(xs)), dtype=complex)
    psi[c0, steps] = 1.0
    d = d0
    path = np.zeros((steps + 1, 2))
    for n in range(1, steps + 1):
        d = _measure_strategy(coins, d, rng)
        if d == 1:
            psi = b_step_pure(psi, coins, mask0)
        else:
            psi = coins.a @ psi
        psi = shift_pure(psi)
        probs = np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2
        path[n] = xs @ probs, (xs * xs) @ probs
    return path


def _reference_dc(coins, d0, c0, steps, seed):
    rng = np.random.default_rng(seed)
    coin = np.zeros(2, dtype=complex)
    coin[c0] = 1.0
    d = d0
    cap = 0
    path = np.zeros((steps + 1, 2))
    for n in range(1, steps + 1):
        d = _measure_strategy(coins, d, rng)
        if d == 1:
            gate = coins.b0 if cap % 3 == 0 else coins.b1
        else:
            gate = coins.a
        coin = gate @ coin
        outcome = 0 if rng.random() < abs(coin[0]) ** 2 else 1
        cap += 1 if outcome else -1
        coin = np.zeros(2, dtype=complex)
        coin[outcome] = 1.0
        path[n] = cap, cap * cap
    return path


# --- the batched engine against them, its rows and its limits ---------------

REFERENCE_CASES = [
    pytest.param(coins, d0, c0, steps, id=f"{name}-d{d0}-c{c0}-{steps}")
    for name, coins in (("default", COINS), ("skew", SKEW_COINS))
    for d0 in (0, 1) for c0 in (0, 1) for steps in (0, 1, 37)]


@pytest.mark.parametrize("coins, d0, c0, steps", REFERENCE_CASES)
def test_collapsed_ensemble_equals_the_per_seed_loop_bitwise(coins, d0, c0,
                                                            steps):
    paths = ensemble_paths(coins, d0, c0, steps, 40, 11, collapse_coin=True)
    ref = np.stack([_reference_dc(coins, d0, c0, steps, 11 + i)
                    for i in range(40)])
    np.testing.assert_array_equal(paths, ref)


@pytest.mark.parametrize("coins, d0, c0, steps", REFERENCE_CASES)
def test_coherent_ensemble_matches_the_per_seed_loop(coins, d0, c0, steps):
    paths = ensemble_paths(coins, d0, c0, steps, 12, 5)
    ref = np.stack([_reference_d(coins, d0, c0, steps, 5 + i)
                    for i in range(12)])
    assert np.all(np.abs(paths - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("collapse_coin", (False, True))
def test_a_row_does_not_depend_on_its_batch_or_chunk(monkeypatch,
                                                     collapse_coin):
    # chunks of 3 put chunk boundaries after rows 2, 5, 8 of the batch
    monkeypatch.setattr(measured, "CHUNK", 3)
    steps, base = 25, 100
    batch = ensemble_paths(SKEW_COINS, 0, 1, steps, 10, base, collapse_coin)
    for i in range(10):
        alone = ensemble_paths(SKEW_COINS, 0, 1, steps, 1, base + i,
                               collapse_coin)
        assert np.array_equal(batch[i], alone[0])
    shifted = ensemble_paths(SKEW_COINS, 0, 1, steps, 5, base + 4,
                             collapse_coin)
    assert np.array_equal(batch[4:9], shifted)
    monkeypatch.setattr(measured, "CHUNK", 128)
    assert np.array_equal(
        ensemble_paths(SKEW_COINS, 0, 1, steps, 10, base, collapse_coin),
        batch)


def test_oversized_ensembles_are_refused_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized ensemble allocated its paths")
    monkeypatch.setattr(measured.np, "zeros", refuse)
    for collapse_coin in (False, True):
        # 10^7 x 101 x 2 doubles: 15.1 GiB
        with pytest.raises(ValueError, match="15.1 GiB"):
            ensemble_paths(COINS, 0, 0, 100, 10 ** 7,
                           collapse_coin=collapse_coin)
        # one row past 1 GiB
        with pytest.raises(ValueError, match="GiB"):
            ensemble_paths(COINS, 0, 0, 0, 2 ** 26 + 1,
                           collapse_coin=collapse_coin)


@pytest.mark.parametrize("game", ("traj-d", "traj-dc"))
def test_cli_refuses_oversized_ensembles(tmp_path, capsys, game):
    out = tmp_path / "huge.csv"
    assert main(["--game", game, "--steps", "100", "--samples",
                 str(10 ** 7), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB" in err
    assert not out.exists()


SU2 = st.builds(SU2Params,
                st.floats(min_value=0.0, max_value=np.pi),
                st.floats(min_value=-np.pi, max_value=np.pi),
                st.floats(min_value=-np.pi, max_value=np.pi))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(SU2, SU2, SU2, st.integers(min_value=0, max_value=30),
       st.sampled_from((0, 1)))
def test_coherent_ensemble_mean_matches_the_moment_recursion(a, b0, b1, steps,
                                                             c):
    # the mixing rotation makes the strategy draws the map's fair mixture
    coins = CoinSet(a=su2(a), b0=su2(b0), b1=su2(b1), u=su2(MIX_PARAMS))
    finals = ensemble_paths(coins, 0, c, steps, 2000)[:, -1, 0]
    exact = capital_moments(coins, c, steps).expected_capital[-1]
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert abs(finals.mean() - exact) <= 5 * se + 1e-9


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
    with pytest.raises(ValueError, match="samples"):
        ensemble_paths(COINS, 0, 0, 5, 0)


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
    series = average_trajectories(ensemble_paths(COINS, 0, 0, 15, 1, 42))
    np.testing.assert_array_equal(series.expected_capital, path[:, 0])
    np.testing.assert_array_equal(series.second_moment, path[:, 1])
    np.testing.assert_array_equal(series.stderr, np.zeros(16))


def test_average_uses_consecutive_seeds_and_exact_error():
    paths = ensemble_paths(COINS, 0, 0, 15, 3, base_seed=7)
    for i in range(3):
        np.testing.assert_array_equal(paths[i],
                                      run_d_measured(COINS, 0, 0, 15, 7 + i))
    fake = np.array([[[0.0, 0.0], [float(s), float(s) ** 2]]
                     for s in range(3)])
    series = average_trajectories(fake)
    np.testing.assert_array_equal(series.ns, [0, 1])
    assert series.expected_capital[1] == pytest.approx(1.0)
    assert series.second_moment[1] == pytest.approx(5 / 3)
    # sample sd of (0, 1, 2) is 1, so the error is 1/sqrt(3)
    assert series.stderr[1] == pytest.approx(1 / np.sqrt(3))
    assert series.stderr[0] == 0.0


def test_average_rejects_empty_ensembles():
    with pytest.raises(ValueError):
        average_trajectories(np.zeros((0, 2, 2)))
