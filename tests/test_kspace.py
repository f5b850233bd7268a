import numpy as np
import pytest

from parrondo.gates import default_coins
from parrondo.kspace import (
    KGrid,
    KSpaceState,
    build_block_matrix,
    capital_series,
    capital_via_kspace,
    propagate,
    propagate_steps,
    reconstruct_positions,
)
from parrondo.kspace import position_distribution as k_distribution
from parrondo.walk import init_state, position_distribution, run, step

COINS = default_coins(0.01)


# --- grid -----------------------------------------------------------------

def test_grid_points_span_the_momentum_interval():
    grid = KGrid(5)
    np.testing.assert_allclose(grid.points,
                               -np.pi + 2 * np.pi * np.arange(5) / 5)


def test_grid_for_steps_is_smallest_odd_cover():
    assert KGrid.for_steps(0).K == 3
    assert KGrid.for_steps(1).K == 5
    assert KGrid.for_steps(3).K == 9
    assert KGrid.for_steps(50).K == 103
    for steps in range(20):
        grid = KGrid.for_steps(steps)
        assert grid.K % 2 == 1 and grid.K >= 2 * steps + 3
        assert grid.max_abs_x() >= steps


def test_grid_rejects_tiny_k():
    with pytest.raises(ValueError):
        KGrid(2)


# --- fiber matrices ----------------------------------------------------------

def test_fiber_matrix_is_unitary_for_random_momenta():
    rng = np.random.default_rng(3)
    for k in rng.uniform(-np.pi, np.pi, size=100):
        m = build_block_matrix(k, COINS)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(12), atol=1e-10)


def test_fiber_matrix_rejects_momentum_outside_range():
    with pytest.raises(ValueError):
        build_block_matrix(4.0, COINS)


def test_fiber_matrix_block_sparsity():
    # residue classes couple only to their two neighbours
    m = build_block_matrix(0.9, COINS)
    for jp in range(3):
        for j in range(3):
            blk = m[4 * jp:4 * jp + 4, 4 * j:4 * j + 4]
            if jp == j:
                assert np.all(blk == 0.0)
            else:
                assert np.max(np.abs(blk)) > 0.1


def test_fiber_matrix_matches_hand_assembled_blocks():
    # independent construction: a class-j fiber state is shifted down by
    # the coin-0 projection (phase e^{+ik}, class j-1) and up by the
    # coin-1 projection (phase e^{-ik}, class j+1), after the strategy
    # rotation picks the coin (b0 on class 0, b1 elsewhere, a on the
    # other strategy branch)
    raise_ = np.array([[0, 1], [0, 0]], dtype=complex)
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    proj = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    for k in (-2.1, 0.0, 0.7, np.pi):
        m = np.zeros((12, 12), dtype=complex)
        for j in range(3):
            bj = COINS.b0 if j == 0 else COINS.b1
            for c, jp in ((0, (j - 1) % 3), (1, (j + 1) % 3)):
                blk = np.exp(1j * k * (1 - 2 * c)) * (
                    np.kron(raise_ @ COINS.u, proj[c] @ bj) +
                    np.kron(lower @ COINS.u, proj[c] @ COINS.a))
                m[4 * jp:4 * jp + 4, 4 * j:4 * j + 4] = blk
        np.testing.assert_allclose(build_block_matrix(k, COINS), m,
                                   atol=1e-12)


def test_fiber_matrix_at_zero_momentum_has_no_phases():
    m = build_block_matrix(0.0, COINS)
    plus = build_block_matrix(0.3, COINS)
    assert np.max(np.abs(m - plus)) > 0.01  # phases genuinely enter


# --- propagation and reconstruction -----------------------------------------------

def test_zero_steps_reconstructs_the_initial_delta():
    grid = KGrid.for_steps(0)
    for d in (0, 1):
        for c in (0, 1):
            state = propagate(COINS, d, c, 0, grid)
            amp = reconstruct_positions(state, grid, range(0, 1))[0]
            expect = np.zeros(4)
            expect[2 * d + c] = 1.0
            np.testing.assert_allclose(amp, expect, atol=1e-12)


def test_reconstruction_inverts_the_forward_embedding():
    # the fiber coefficient of a delta at x0 is e^{-i k x0} on the class
    # of x0; pulling it back must return the delta
    grid = KGrid(11)
    rng = np.random.default_rng(5)
    for x0 in (-4, -1, 0, 2, 4):
        chi = rng.normal(size=4) + 1j * rng.normal(size=4)
        nus = np.zeros((11, 3, 4), dtype=complex)
        nus[:, x0 % 3, :] = np.exp(-1j * grid.points * x0)[:, None] * chi
        state = KSpaceState(nus, 0)
        rec = reconstruct_positions(state, grid, range(-4, 5))
        for x, amp in rec.items():
            target = chi if x == x0 else np.zeros(4)
            np.testing.assert_allclose(amp, target, atol=1e-12)


def test_per_fiber_norm_is_conserved():
    grid = KGrid.for_steps(8)
    norms = []
    for state in propagate_steps(COINS, 0, 0, 8, grid):
        norms.append(np.sum(np.abs(state.nus) ** 2, axis=(1, 2)) / 3)
    norms = np.array(norms)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_reconstructed_distribution_is_normalized():
    grid = KGrid.for_steps(12)
    state = propagate(COINS, 1, 0, 12, grid)
    _, probs = k_distribution(state, grid, grid.max_abs_x())
    assert abs(probs.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("d,c", [(0, 0), (1, 1)])
def test_momentum_route_matches_direct_walk(steps, d, c):
    grid = KGrid.for_steps(steps)
    state = propagate(COINS, d, c, steps, grid)
    xs, probs = k_distribution(state, grid, steps)
    direct = init_state(d, c, 0, steps)
    for _ in range(steps):
        direct = step(direct, COINS)
    dxs, dprobs = position_distribution(direct)
    sel = np.isin(dxs, xs)
    np.testing.assert_allclose(probs, dprobs[sel], atol=1e-10)


def test_momentum_capital_matches_direct_value():
    assert capital_via_kspace(COINS, 0, 0, 0) == 0.0
    expect = run(COINS, 0, 0, 5).expected_capital[5]
    assert abs(capital_via_kspace(COINS, 0, 0, 5) - expect) < 1e-10


@pytest.mark.parametrize("d,c", [(0, 1), (1, 0)])
def test_momentum_series_matches_direct_series(d, c):
    direct = run(COINS, d, c, 12)
    for grid in (None, KGrid(41)):
        series = capital_series(COINS, d, c, 12, grid)
        np.testing.assert_array_equal(series.ns, direct.ns)
        np.testing.assert_allclose(series.expected_capital,
                                   direct.expected_capital, atol=1e-10)
        np.testing.assert_allclose(series.second_moment,
                                   direct.second_moment, atol=1e-10)
        assert series.extra == {}


def test_reconstruction_rejects_aliased_capitals():
    grid = KGrid.for_steps(2)
    state = propagate(COINS, 0, 0, 2, grid)
    with pytest.raises(ValueError):
        reconstruct_positions(state, grid, range(-5, 6))


def test_propagation_rejects_undersized_grid():
    with pytest.raises(ValueError):
        list(propagate_steps(COINS, 0, 0, 5, KGrid(9)))


def test_propagation_validates_bits_and_steps():
    grid = KGrid(5)
    with pytest.raises(ValueError):
        list(propagate_steps(COINS, 2, 0, 1, grid))
    with pytest.raises(ValueError):
        list(propagate_steps(COINS, 0, 0, -1, grid))
