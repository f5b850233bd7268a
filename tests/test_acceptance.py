"""Acceptance gate: one test per shipped guarantee, at its stated
tolerance and runtime budget.  Run with -v for one pass/fail line each."""
import time

import numpy as np

from parrondo import cli, cpmap, kspace, measured, walk
from parrondo.classical import (
    AlwaysA,
    AlwaysB,
    ClassicalGameParams,
    Periodic,
    RandomMixture,
    default_params,
    losing_threshold,
    propagate_distribution,
    stationary_drift,
)
from parrondo.gates import default_coins

EPS = 0.01
COINS = default_coins(EPS)


def test_threshold_and_stationary_drift_at_the_fair_point():
    t0 = time.perf_counter()
    assert abs(losing_threshold(0.75) - 0.1) < 1e-12
    assert abs(stationary_drift(ClassicalGameParams(0.5, 0.1, 0.75))) < 1e-12
    assert stationary_drift(ClassicalGameParams(0.5, 0.1 - EPS,
                                                0.75 - EPS)) < 0
    assert time.perf_counter() - t0 < 1.0


def test_classical_schedules_reproduce_the_paradox_at_1000_steps():
    t0 = time.perf_counter()
    params = default_params(EPS)
    finals = {}
    for name, schedule in (("A", AlwaysA()), ("B", AlwaysB()),
                           ("AABB", Periodic("AABB")),
                           ("random", RandomMixture(0.5))):
        series = propagate_distribution(params, schedule, 1000)
        finals[name] = series.expected_capital[1000]
    assert abs(finals["A"] - (-20.0)) < 1e-10
    assert finals["B"] < 0
    assert finals["AABB"] > 0
    assert finals["random"] > 0
    assert time.perf_counter() - t0 < 5.0


def test_walk_conserves_norm_and_resets_the_flag_over_1000_steps():
    t0 = time.perf_counter()
    ops = walk.StepOperators(COINS)
    state = walk.init_state(0, 0, 0, 1000)
    worst_norm = 0.0
    worst_flag = 0.0
    for _ in range(1000):
        state = walk.step(state, ops)
        norm = float(np.sum(np.abs(state.amps) ** 2))
        worst_norm = max(worst_norm, abs(norm - 1.0))
        flag = float(np.sum(np.abs(state.amps[:, :, 1, :]) ** 2))
        worst_flag = max(worst_flag, flag)
    assert worst_norm < 1e-9
    assert worst_flag < 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_walk_one_step_capital_matches_the_hand_trace():
    series = walk.run(COINS, 0, 0, 1)
    expect = 0.5 * (np.cos(2 * EPS) - np.cos(np.pi / 5 - 2 * EPS))
    assert abs(series.expected_capital[1] - expect) < 1e-12


def test_walk_antisymmetry_and_advantage_over_the_classical_mixture():
    t0 = time.perf_counter()
    series = {(d, c): walk.run(COINS, d, c, 1000)
              for d in (0, 1) for c in (0, 1)}
    for d in (0, 1):
        diff = series[(d, 1)].expected_capital + \
            series[(d, 0)].expected_capital
        assert np.max(np.abs(diff)) < 1e-10
        moments = series[(d, 1)].second_moment - series[(d, 0)].second_moment
        assert np.max(np.abs(moments)) < 1e-10
    best = max(abs(s.expected_capital[1000]) for s in series.values())
    classical = propagate_distribution(default_params(EPS),
                                       RandomMixture(0.5), 1000)
    assert best > classical.expected_capital[1000]
    assert time.perf_counter() - t0 < 30.0


def test_momentum_route_matches_direct_walk_distributions():
    t0 = time.perf_counter()
    checkpoints = (1, 5, 10, 25, 50)
    grid = kspace.KGrid.for_steps(50)
    blocks = kspace._block_matrices(grid.points, COINS)
    eye = np.eye(12)
    for m in blocks:
        assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-10
    for d in (0, 1):
        for c in (0, 1):
            direct = {}
            state = walk.init_state(d, c, 0, 50)
            for n in range(1, 51):
                state = walk.step(state, COINS)
                if n in checkpoints:
                    xs, probs = walk.position_distribution(state)
                    direct[n] = probs[np.abs(xs) <= n]
            for fiber in kspace.propagate_steps(COINS, d, c, 50, grid):
                if fiber.step in checkpoints:
                    _, probs = kspace.position_distribution(fiber, grid,
                                                            fiber.step)
                    assert np.max(np.abs(probs - direct[fiber.step])) < 1e-8
    assert time.perf_counter() - t0 < 30.0


def test_density_map_trace_symmetry_and_stabilization():
    t0 = time.perf_counter()
    caps = {}
    moms = {}
    for c in (0, 1):
        rho = cpmap.init_density(c, 0, 200)
        cap = [0.0]
        mom = [0.0]
        for _ in range(200):
            rho = cpmap.step_density(rho, COINS)
            assert abs(cpmap.position_populations(rho).sum() - 1.0) < 1e-10
            cap.append(cpmap.expected_capital_density(rho))
            mom.append(cpmap.second_moment_density(rho))
        caps[c] = np.array(cap)
        moms[c] = np.array(mom)
    assert np.max(np.abs(caps[0] + caps[1])) < 1e-10
    assert np.max(np.abs(moms[0] - moms[1])) < 1e-10
    settled = np.abs(np.diff(caps[0]))[149:200]
    assert np.all(settled < 1e-3)
    assert time.perf_counter() - t0 < 60.0


def test_density_map_swap_reflection_identity():
    t0 = time.perf_counter()
    steps = 20
    swapped = cpmap.swap_conjugate(cpmap.init_density(0, 0, steps))
    plain = cpmap.init_density(0, 0, steps)
    for _ in range(steps):
        swapped = cpmap.step_density(swapped, COINS)
        plain = cpmap.step_density(plain, COINS)
        reflected = plain.blocks[::-1, ::-1, ::-1, ::-1]
        assert np.max(np.abs(swapped.blocks - reflected)) < 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_strategy_word_enumeration_and_sampled_unravelling():
    steps = 12
    half = steps
    xs = np.arange(-half, half + 1)
    mask0 = xs % 3 == 0
    blocks = np.zeros((len(xs), len(xs), 2, 2), dtype=complex)
    weight = 0.5 ** steps
    for word in range(2 ** steps):
        psi = np.zeros((2, len(xs)), dtype=complex)
        psi[0, half] = 1.0
        for n in range(steps):
            if (word >> n) & 1:
                psi = cpmap.b_step_pure(psi, COINS, mask0)
            else:
                psi = COINS.a @ psi
            psi = cpmap.shift_pure(psi)
        blocks += weight * np.einsum("ix,jy->xyij", psi, psi.conj())
    rho = cpmap.init_density(0, 0, steps)
    for _ in range(steps):
        rho = cpmap.step_density(rho, COINS)
    assert np.max(np.abs(rho.blocks - blocks)) < 1e-12

    rho = cpmap.init_density(0, 0, 100)
    for _ in range(100):
        rho = cpmap.step_density(rho, COINS)
    target = cpmap.expected_capital_density(rho)
    # COINS mix the strategies with MIX_PARAMS, so these rows are
    # cpmap.sample_unitary_trajectory(COINS, 0, 100, s) for s = 0 .. 4999
    finals = measured.ensemble_paths(COINS, 0, 0, 100, 5000)[:, -1, 0]
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert abs(finals.mean() - target) < 4 * se


def test_measured_ensemble_reduces_to_the_density_map():
    t0 = time.perf_counter()
    steps, samples = 100, 5000
    for c0 in (0, 1):
        rho = cpmap.init_density(c0, 0, steps)
        exact = [0.0]
        for _ in range(steps):
            rho = cpmap.step_density(rho, COINS)
            exact.append(cpmap.expected_capital_density(rho))
        series = measured.average_trajectories(
            measured.ensemble_paths(COINS, 0, c0, steps, samples))
        gap = np.abs(series.expected_capital - np.array(exact))
        assert np.all(gap <= 4 * series.extra["stderr"])
    assert time.perf_counter() - t0 < 60.0


def test_cpmap_cli_reaches_1000_steps_without_the_dense_state(
        tmp_path, monkeypatch):
    t0 = time.perf_counter()

    def refuse(*args, **kwargs):
        raise AssertionError("the cpmap CLI route built a dense state")
    monkeypatch.setattr(cpmap, "init_density", refuse)
    cols = {}
    for c in (0, 1):
        out = tmp_path / f"cpmap{c}.csv"
        assert cli.main(["--game", "cpmap", "--steps", "1000",
                         "--initial-c", str(c), "--out", str(out)]) == 0
        cols[c] = np.loadtxt(out, delimiter=",", skiprows=1)
    assert cols[0].shape == (1001, 3)
    assert np.max(np.abs(cols[0][:, 1] + cols[1][:, 1])) < 1e-9
    assert np.max(np.abs(cols[0][:, 2] - cols[1][:, 2])) < 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_fixed_seed_cli_runs_are_byte_identical(tmp_path):
    argvs = [
        ["--game", "classical", "--steps", "100", "--schedule", "AABB"],
        ["--game", "quantum", "--steps", "50"],
        ["--game", "cpmap", "--steps", "30"],
        ["--game", "kspace", "--steps", "20"],
        ["--game", "traj-d", "--steps", "40", "--samples", "60",
         "--seed", "9"],
        ["--game", "traj-dc", "--steps", "40", "--samples", "60",
         "--seed", "9"],
    ]
    for argv in argvs:
        a = tmp_path / (argv[1] + "_a.csv")
        b = tmp_path / (argv[1] + "_b.csv")
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv[1]
