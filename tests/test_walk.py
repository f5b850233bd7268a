import numpy as np
import pytest

from parrondo.gates import CoinSet, SU2Params, default_coins, su2
from parrondo.walk import (
    LatticeOverflowError,
    PureState,
    StepOperators,
    apply_mod,
    apply_mod_inv,
    apply_shift,
    apply_w,
    expected_capital,
    init_state,
    position_distribution,
    run,
    second_moment,
    state_steps,
    step,
    w_matrix,
)

COINS = default_coins(0.01)
EPS = 0.01


def _basis(d, c, o, x, half):
    amps = np.zeros((2, 2, 2, 2 * half + 1), dtype=complex)
    amps[d, c, o, x + half] = 1.0
    return PureState(amps, half)


def _amp(state, d, c, o, x):
    return state.amps[d, c, o, x + state.offset]


def _norm(state):
    return float(np.sum(np.abs(state.amps) ** 2))


def _random_coins(rng):
    def g():
        return su2(SU2Params(rng.uniform(0, np.pi),
                             rng.uniform(-np.pi, np.pi),
                             rng.uniform(-np.pi, np.pi)))
    return CoinSet(a=g(), b0=g(), b1=g(), u=g())


# --- flag bookkeeping ---------------------------------------------------------

@pytest.mark.parametrize("x,flips", [(6, False), (7, True), (-3, False),
                                     (0, False), (-1, True)])
def test_mod_flips_flag_only_away_from_multiples_of_three(x, flips):
    out = apply_mod(_basis(0, 0, 0, x, 8))
    assert _amp(out, 0, 0, int(flips), x) == 1.0


def test_mod_inv_consumes_flag_using_pre_shift_capital():
    # a c=1 step into x=1 started at x=0, which is divisible by 3
    out = apply_mod_inv(_basis(0, 1, 1, 1, 4))
    assert _amp(out, 0, 1, 0, 1) == 1.0
    # a c=1 step into x=2 started at x=1, no flip
    out = apply_mod_inv(_basis(0, 1, 1, 2, 4))
    assert _amp(out, 0, 1, 1, 2) == 1.0
    # a c=0 step into x=-1 started at x=0, flip
    out = apply_mod_inv(_basis(1, 0, 1, -1, 4))
    assert _amp(out, 1, 0, 0, -1) == 1.0


def test_flag_weight_returns_to_exact_zero_after_each_step():
    state = init_state(0, 0, 0, 30)
    for _ in range(30):
        state = step(state, COINS)
        assert np.all(state.amps[:, :, 1, :] == 0.0)


# --- shift ----------------------------------------------------------------------

def test_shift_moves_chirality_branches_in_opposite_directions():
    out = apply_shift(_basis(0, 0, 0, 0, 3))
    assert _amp(out, 0, 0, 0, -1) == 1.0
    out = apply_shift(_basis(1, 1, 0, 0, 3))
    assert _amp(out, 1, 1, 0, 1) == 1.0


def test_shift_at_the_lattice_edge_raises():
    with pytest.raises(LatticeOverflowError):
        apply_shift(_basis(0, 0, 0, -3, 3))
    with pytest.raises(LatticeOverflowError):
        apply_shift(_basis(0, 1, 0, 3, 3))


def test_running_past_the_budget_raises():
    state = init_state(0, 0, 0, 2)
    state = step(step(state, COINS), COINS)
    with pytest.raises(LatticeOverflowError):
        step(state, COINS)


def test_state_steps_yields_every_step_and_run_reads_them():
    states = list(state_steps(COINS, 0, 1, 5))
    assert [s.step for s in states] == list(range(6))
    series = run(COINS, 0, 1, 5)
    for n, state in enumerate(states):
        assert series.expected_capital[n] == expected_capital(state)
        assert series.second_moment[n] == second_moment(state)
    with pytest.raises(ValueError):
        next(state_steps(COINS, 0, 0, -1))


# --- the strategy-and-coin block -------------------------------------------------

def test_w_matrix_is_unitary():
    w8 = w_matrix(COINS)
    np.testing.assert_allclose(w8.conj().T @ w8, np.eye(8), atol=1e-12)


def test_w_matrix_unitary_for_random_coin_sets():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w8 = w_matrix(_random_coins(rng))
        np.testing.assert_allclose(w8.conj().T @ w8, np.eye(8), atol=1e-12)


def test_w_hand_traced_amplitudes_from_origin():
    # |d=0,c=0,x=0,o=0>: the flag is not set, the strategy rotation sends
    # d=0 to both branches with weight 1/sqrt2; the d=1 branch plays the
    # near-fair coin and flips the flag, the d=0 branch plays b0 and
    # raises the flag from 0 to 1 as well
    state = apply_w(apply_mod(init_state(0, 0, 0, 2)), COINS)
    s2 = np.sqrt(2)
    assert abs(_amp(state, 1, 1, 1, 0) - 1j * np.cos(EPS) / s2) < 1e-12
    assert abs(_amp(state, 1, 0, 1, 0) - np.sin(EPS) / s2) < 1e-12
    assert abs(_amp(state, 0, 0, 1, 0) -
               1j * np.cos(np.pi / 10 - EPS) / s2) < 1e-12
    assert abs(_amp(state, 0, 1, 1, 0) +
               np.sin(np.pi / 10 - EPS) / s2) < 1e-12
    assert np.all(state.amps[:, :, 0, :] == 0.0)


def test_one_step_capital_matches_closed_form():
    series = run(COINS, 0, 0, 1)
    expect = 0.5 * (np.cos(2 * EPS) - np.cos(np.pi / 5 - 2 * EPS))
    assert abs(series.expected_capital[1] - expect) < 1e-12
    assert series.second_moment[1] == 1.0


def test_step_accepts_prebuilt_operators():
    ops = StepOperators(COINS)
    a = step(init_state(0, 1, 0, 5), COINS)
    b = step(init_state(0, 1, 0, 5), ops)
    np.testing.assert_array_equal(a.amps, b.amps)
    assert b.step == 1


# --- full-step properties ----------------------------------------------------------

def test_norm_is_preserved_for_random_states_and_coins():
    rng = np.random.default_rng(42)
    for _ in range(100):
        coins = _random_coins(rng)
        amps = rng.normal(size=(2, 2, 2, 21)) + \
            1j * rng.normal(size=(2, 2, 2, 21))
        amps[..., 0] = 0.0   # keep clear of both lattice edges
        amps[..., -1] = 0.0
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        state = step(PureState(amps, 10), coins)
        assert abs(_norm(state) - 1.0) < 1e-12


def test_walk_stays_inside_the_light_cone_with_matching_parity():
    state = init_state(1, 0, 0, 12)
    for n in range(1, 13):
        state = step(state, COINS)
        xs, probs = position_distribution(state)
        assert np.all(probs[np.abs(xs) > n] == 0.0)
        assert np.all(probs[(xs + n) % 2 == 1] == 0.0)


def test_capital_flips_sign_with_initial_chirality():
    for d in (0, 1):
        plus = run(COINS, d, 1, 60)
        minus = run(COINS, d, 0, 60)
        np.testing.assert_allclose(plus.expected_capital,
                                   -minus.expected_capital, atol=1e-12)
        np.testing.assert_allclose(plus.second_moment, minus.second_moment,
                                   atol=1e-12)


def test_initial_capital_offsets_the_lattice():
    state = init_state(0, 0, initial_capital=4, steps_budget=3)
    assert expected_capital(state) == 4.0
    assert second_moment(state) == 16.0
    state = step(state, COINS)
    xs, probs = position_distribution(state)
    assert np.all(probs[np.abs(xs - 4) > 1] == 0.0)


def test_init_state_validates_arguments():
    with pytest.raises(ValueError):
        init_state(2, 0)
    with pytest.raises(ValueError):
        init_state(0, 0, 0, -1)
    with pytest.raises(ValueError):
        run(COINS, 0, 0, -1)


def test_pure_state_shape_is_checked():
    with pytest.raises(ValueError):
        PureState(np.zeros((2, 2, 2, 4)), 2)


def test_batched_arrays_evolve_like_separate_states():
    from parrondo.walk import step_amplitudes
    w8 = w_matrix(COINS)
    half = 6
    xs = np.arange(-half, half + 1)
    batch = np.zeros((2, 2, 2, 2, 2 * half + 1), dtype=complex)
    batch[0, 0, 0, 0, half] = 1.0
    batch[1, 1, 1, 0, half] = 1.0
    out = step_amplitudes(batch, w8, xs)
    one = step(init_state(0, 0, 0, half), COINS)
    two = step(init_state(1, 1, 0, half), COINS)
    np.testing.assert_allclose(out[0], one.amps, atol=1e-15)
    np.testing.assert_allclose(out[1], two.amps, atol=1e-15)
