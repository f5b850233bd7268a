import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parrondo.cpmap import (
    DensityState,
    b_step_pure,
    capital_moments,
    expected_capital_density,
    init_density,
    position_populations,
    sample_unitary_trajectory,
    second_moment_density,
    shift_pure,
    step_density,
    swap_conjugate,
)
from parrondo.gates import CoinSet, default_coins, su2, SU2Params
from parrondo.measured import run_d_measured
from parrondo.walk import LatticeOverflowError, run

COINS = default_coins(0.01)


def _evolve(c, steps, coins=COINS):
    rho = init_density(c, 0, steps)
    for _ in range(steps):
        rho = step_density(rho, coins)
    return rho


def _brute_force_density(c, steps, coins=COINS):
    """Average the 2^steps pure strategy sequences by direct enumeration."""
    half = steps
    xs = np.arange(-half, half + 1)
    mask0 = xs % 3 == 0
    blocks = np.zeros((len(xs), len(xs), 2, 2), dtype=complex)
    weight = 0.5 ** steps
    for word in range(2 ** steps):
        psi = np.zeros((2, len(xs)), dtype=complex)
        psi[c, half] = 1.0
        for n in range(steps):
            if (word >> n) & 1:
                psi = b_step_pure(psi, coins, mask0)
            else:
                psi = coins.a @ psi
            psi = shift_pure(psi)
        blocks += weight * np.einsum("ix,jy->xyij", psi, psi.conj())
    return blocks


# --- state container -----------------------------------------------------------

def test_init_density_is_a_normalized_pure_product():
    rho = init_density(0, 0, 4)
    assert abs(position_populations(rho).sum() - 1.0) == 0.0
    assert expected_capital_density(rho) == 0.0
    full = rho.blocks.transpose(0, 2, 1, 3).reshape(18, 18)
    assert np.linalg.matrix_rank(full) == 1


def test_init_density_validates_arguments():
    with pytest.raises(ValueError):
        init_density(2, 0, 1)
    with pytest.raises(ValueError):
        init_density(0, 0, -1)


def test_init_density_refuses_an_oversized_state_before_allocating():
    # 200001^2 blocks of 64 B would be 2.6 TB
    with pytest.raises(ValueError, match="GiB"):
        init_density(0, 0, 100_000)


def test_density_state_shape_is_checked():
    with pytest.raises(ValueError):
        DensityState(np.zeros((3, 3, 2, 2)), 2)


# --- single steps against hand numbers -------------------------------------------

def test_one_step_populations_match_the_coin_mixture():
    rho = _evolve(0, 1)
    pops = position_populations(rho)
    xs = rho.xs
    assert abs(pops[xs == -1][0] - 0.45520252776268083) < 1e-12
    assert abs(pops[xs == 1][0] - 0.5447974722373192) < 1e-12
    assert abs(pops[xs == 0][0]) == 0.0


def test_one_step_capital_coincides_with_the_unitary_walk():
    # a single step involves no interference between strategy branches
    rho = _evolve(0, 1)
    unitary = run(COINS, 0, 0, 1)
    assert abs(expected_capital_density(rho) -
               unitary.expected_capital[1]) < 1e-12
    assert abs(second_moment_density(rho) - 1.0) < 1e-12


def test_identity_coins_shift_deterministically():
    eye = np.eye(2)
    coins = CoinSet(a=eye, b0=eye, b1=eye, u=eye)
    rho = _evolve(1, 5, coins)
    pops = position_populations(rho)
    assert abs(pops[rho.xs == 5][0] - 1.0) < 1e-14


# --- map invariants -----------------------------------------------------------------

def test_trace_and_hermiticity_survive_many_steps():
    rho = init_density(0, 0, 25)
    for _ in range(25):
        rho = step_density(rho, COINS)
        assert abs(position_populations(rho).sum() - 1.0) < 1e-12
        np.testing.assert_allclose(
            rho.blocks, rho.blocks.transpose(1, 0, 3, 2).conj(), atol=1e-12)


def test_density_stays_positive_semidefinite():
    rho = init_density(1, 0, 12)
    for _ in range(12):
        rho = step_density(rho, COINS)
    n = 2 * rho.offset + 1
    full = rho.blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    assert np.linalg.eigvalsh(full).min() >= -1e-10


def test_stepping_past_the_budget_raises():
    rho = _evolve(0, 3)
    with pytest.raises(LatticeOverflowError):
        step_density(rho, COINS)


def test_light_cone_and_parity_of_populations():
    rho = init_density(0, 0, 10)
    for n in range(1, 11):
        rho = step_density(rho, COINS)
        pops = position_populations(rho)
        assert np.all(pops[np.abs(rho.xs) > n] == 0.0)
        assert np.all(pops[(rho.xs + n) % 2 == 1] == 0.0)


# --- swap conjugation ------------------------------------------------------------------

def test_swap_exchanges_the_basis_preparations():
    np.testing.assert_array_equal(swap_conjugate(init_density(0, 0, 2)).blocks,
                                  init_density(1, 0, 2).blocks)


def test_swap_is_an_involution():
    rho = _evolve(0, 4)
    np.testing.assert_array_equal(swap_conjugate(swap_conjugate(rho)).blocks,
                                  rho.blocks)


def test_swapped_evolution_equals_reflected_swap_of_evolution():
    # conjugating the input by the coin NOT commutes with the map up to
    # a capital reflection: evolving X rho X equals the axis-reversed,
    # coin-swapped evolution of rho
    for steps in (1, 2, 5):
        lhs = init_density(0, 0, steps)
        lhs = DensityState(swap_conjugate(lhs).blocks, lhs.offset)
        for _ in range(steps):
            lhs = step_density(lhs, COINS)
        rhs = _evolve(0, steps)
        reflected = rhs.blocks[::-1, ::-1, ::-1, ::-1]
        np.testing.assert_allclose(lhs.blocks, reflected, atol=1e-12)


# --- unravellings -------------------------------------------------------------------------

# b0 != b1, nonzero phases and complex off-diagonals: no transpose,
# conjugation or row/column slip in the coin arithmetic cancels out, as
# some do for the symmetric default coins
SKEW_COINS = CoinSet(a=su2(SU2Params(1.1, 0.4, -0.9)),
                     b0=su2(SU2Params(0.3, -1.2, 2.0)),
                     b1=su2(SU2Params(2.2, 0.7, 1.3)), u=COINS.u)
WORD_CASES = [pytest.param(steps, c, coins, id=f"{prefix}{steps}-{c}")
              for prefix, coins in (("", COINS), ("skew-", SKEW_COINS))
              for steps in (1, 2, 3, 6) for c in (0, 1)]


@pytest.mark.parametrize("steps, c, coins", WORD_CASES)
def test_enumerating_strategy_words_reproduces_the_map(steps, c, coins):
    exact = _evolve(c, steps, coins)
    words = DensityState(_brute_force_density(c, steps, coins), steps)
    np.testing.assert_allclose(exact.blocks, words.blocks, atol=1e-12)
    moments = capital_moments(coins, c, steps)
    assert abs(moments.expected_capital[-1] -
               expected_capital_density(words)) < 1e-12
    assert abs(moments.second_moment[-1] -
               second_moment_density(words)) < 1e-12


# --- moment recursion ------------------------------------------------------------------

SU2 = st.builds(SU2Params,
                st.floats(min_value=0.0, max_value=np.pi),
                st.floats(min_value=-np.pi, max_value=np.pi),
                st.floats(min_value=-np.pi, max_value=np.pi))


@settings(max_examples=40, deadline=None)
@given(SU2, SU2, SU2, st.integers(min_value=0, max_value=30),
       st.sampled_from((0, 1)))
def test_moment_recursion_matches_the_dense_map(a, b0, b1, steps, c):
    coins = CoinSet(a=su2(a), b0=su2(b0), b1=su2(b1), u=COINS.u)
    moments = capital_moments(coins, c, steps)
    rho = init_density(c, 0, steps)
    for n in range(steps + 1):
        if n:
            rho = step_density(rho, coins)
        for got, ref in ((moments.expected_capital[n],
                          expected_capital_density(rho)),
                         (moments.second_moment[n],
                          second_moment_density(rho))):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_moment_recursion_validates_arguments():
    with pytest.raises(ValueError):
        capital_moments(COINS, 2, 1)
    with pytest.raises(ValueError):
        capital_moments(COINS, 0, -1)


def test_sampled_unitary_trajectories_are_deterministic_per_seed():
    a = sample_unitary_trajectory(COINS, 0, 20, rng_seed=9)
    b = sample_unitary_trajectory(COINS, 0, 20, rng_seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (21, 2)
    assert a[0, 0] == 0.0 and a[0, 1] == 0.0


def test_sampled_trajectory_moments_are_consistent():
    path = sample_unitary_trajectory(COINS, 1, 40, rng_seed=3)
    # second moment dominates squared mean pointwise
    assert np.all(path[:, 1] >= path[:, 0] ** 2 - 1e-12)
    assert np.all(path[1:, 1] > 0)


def test_trajectory_ensemble_approaches_the_exact_capital():
    steps, samples = 20, 400
    exact = _evolve(0, steps)
    target = expected_capital_density(exact)
    finals = np.array([sample_unitary_trajectory(COINS, 0, steps, s)[-1, 0]
                       for s in range(samples)])
    se = finals.std(ddof=1) / np.sqrt(samples)
    assert abs(finals.mean() - target) < 4 * se


def test_sampled_unravelling_keeps_fair_odds_under_any_mixing():
    # under u = 1 the measured game would play a forever; the unravelling
    # still mixes fairly, as the measured game does under MIX_PARAMS
    stuck = CoinSet(a=COINS.a, b0=COINS.b0, b1=COINS.b1, u=np.eye(2))
    for c in (0, 1):
        path = sample_unitary_trajectory(stuck, c, 50, rng_seed=9)
        for d0 in (0, 1):
            np.testing.assert_array_equal(
                path, run_d_measured(COINS, d0, c, 50, rng_seed=9))


def test_sample_unitary_trajectory_validates_arguments():
    with pytest.raises(ValueError):
        sample_unitary_trajectory(COINS, 2, 1)
    with pytest.raises(ValueError):
        sample_unitary_trajectory(COINS, 0, -1)


# --- pure-state helpers ----------------------------------------------------------------

def test_pure_shift_moves_components_oppositely():
    psi = np.zeros((2, 5), dtype=complex)
    psi[0, 2] = 0.6
    psi[1, 2] = 0.8j
    out = shift_pure(psi)
    assert out[0, 1] == 0.6 and out[1, 3] == 0.8j


def test_pure_shift_overflow_raises():
    psi = np.zeros((2, 3), dtype=complex)
    psi[0, 0] = 1.0
    with pytest.raises(LatticeOverflowError):
        shift_pure(psi)


def test_capital_conditioned_coin_selects_by_divisibility():
    xs = np.arange(-3, 4)
    mask0 = xs % 3 == 0
    psi = np.ones((2, 7), dtype=complex) / np.sqrt(14)
    out = b_step_pure(psi, COINS, mask0)
    for i, x in enumerate(xs):
        coin = COINS.b0 if x % 3 == 0 else COINS.b1
        np.testing.assert_allclose(out[:, i], coin @ psi[:, i], atol=1e-15)
    assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12
