import numpy as np
import pytest

from parrondo import classical
from parrondo.cli import (
    RunConfig,
    emit_plot_data,
    main,
    parse_config,
    route_discrepancy,
    run,
)
from parrondo.gates import SU2Params
from parrondo.series import CapitalSeries


def _parse(argv):
    return parse_config(argv)


# --- parsing -------------------------------------------------------------------

def test_schedule_strings_map_to_schedule_objects():
    cfg = _parse(["--game", "classical", "--schedule", "AABB",
                  "--out", "x.csv"])
    assert cfg.schedule == classical.Periodic("AABB")
    cfg = _parse(["--game", "classical", "--schedule", "A", "--out", "x.csv"])
    assert cfg.schedule == classical.AlwaysA()
    cfg = _parse(["--game", "classical", "--schedule", "B", "--out", "x.csv"])
    assert cfg.schedule == classical.AlwaysB()
    cfg = _parse(["--game", "classical", "--schedule", "random:0.3",
                  "--out", "x.csv"])
    assert cfg.schedule == classical.RandomMixture(0.3)


def test_classical_defaults():
    cfg = _parse(["--game", "classical", "--out", "x.csv"])
    assert cfg.steps == 1000
    assert cfg.epsilon == 0.01
    assert cfg.schedule == classical.RandomMixture(0.5)


def test_per_game_step_defaults_fit_their_runtimes():
    assert _parse(["--game", "quantum", "--out", "x"]).steps == 1000
    assert _parse(["--game", "kspace", "--out", "x"]).steps == 1000
    assert _parse(["--game", "cpmap", "--out", "x"]).steps == 200
    assert _parse(["--game", "traj-d", "--out", "x"]).steps == 100
    assert _parse(["--game", "traj-dc", "--out", "x"]).steps == 100


def test_trajectory_defaults():
    cfg = _parse(["--game", "traj-d", "--out", "x.csv"])
    assert cfg.samples == 5000 and cfg.seed == 42
    assert cfg.initial_d == 0 and cfg.initial_c == 0


def test_missing_game_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        _parse(["--out", "x.csv"])
    assert exc.value.code != 0


def test_missing_out_is_a_usage_error():
    with pytest.raises(SystemExit):
        _parse(["--game", "classical"])


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit):
        _parse(["--game", "classical", "--frobnicate", "1", "--out", "x"])


@pytest.mark.parametrize("argv", [
    ["--game", "quantum", "--schedule", "AABB", "--out", "x"],
    ["--game", "classical", "--k-grid", "2003", "--out", "x"],
    ["--game", "cpmap", "--samples", "10", "--out", "x"],
    ["--game", "classical", "--initial-d", "1", "--out", "x"],
    ["--game", "cpmap", "--initial-d", "1", "--out", "x"],
])
def test_options_that_do_not_apply_are_rejected(argv):
    with pytest.raises(SystemExit):
        _parse(argv)


@pytest.mark.parametrize("argv", [
    ["--game", "classical", "--steps", "-1", "--out", "x"],
    ["--game", "traj-d", "--samples", "0", "--out", "x"],
    ["--game", "quantum", "--initial-d", "2", "--out", "x"],
    ["--game", "kspace", "--steps", "10", "--k-grid", "21", "--out", "x"],
])
def test_out_of_range_values_are_rejected(argv):
    with pytest.raises(SystemExit):
        _parse(argv)


@pytest.mark.parametrize("game", ["classical", "quantum", "kspace", "cpmap",
                                  "traj-d", "traj-dc"])
def test_negative_epsilon_is_a_usage_error_for_every_game(game, tmp_path,
                                                          capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = -0.05\n")
    for argv in (["--epsilon", "-0.05"], ["--epsilon", "nan"],
                 ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            _parse(["--game", game, "--out", "x"] + argv)
        assert exc.value.code == 2
        assert "epsilon must be >= 0" in capsys.readouterr().err
    cfg = _parse(["--game", game, "--epsilon", "0", "--out", "x"])
    assert cfg.epsilon == 0.0


def test_kspace_grid_must_cover_the_walk():
    cfg = _parse(["--game", "kspace", "--steps", "10", "--k-grid", "23",
                  "--out", "x"])
    assert cfg.k_grid == 23


# --- config files ------------------------------------------------------------------

def test_config_file_values_with_flag_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\n"
                        "game = traj-dc\n"
                        "steps = 7\n"
                        "samples = 11\n"
                        "initial-c = 1\n"
                        "coin_a = 1.0, 0.5, -0.5\n",
                        encoding="utf-8")
    cfg = parse_config(["--config", str(cfg_file), "--samples", "5",
                        "--out", "x.csv"])
    assert cfg.game == "traj-dc"
    assert cfg.steps == 7
    assert cfg.samples == 5          # flag wins
    assert cfg.initial_c == 1
    assert cfg.coin_a == SU2Params(1.0, 0.5, -0.5)


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("game = classical\nwibble = 3\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(bad), "--out", "x"])


def test_config_file_rejects_lines_without_assignment(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("game classical\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(bad), "--out", "x"])


def test_config_file_rejects_malformed_values(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("game = classical\nsteps = ten\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(bad), "--out", "x"])


def test_missing_config_file_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        parse_config(["--config", str(tmp_path / "nope.cfg"), "--out", "x"])


# --- running -----------------------------------------------------------------------

def _header(path):
    return path.read_text(encoding="utf-8").splitlines()[0]


def test_each_game_writes_its_csv(tmp_path):
    specs = [
        (["--game", "classical", "--steps", "6"],
         "n,expected_capital,second_moment"),
        (["--game", "quantum", "--steps", "6"],
         "n,expected_capital,second_moment"),
        (["--game", "cpmap", "--steps", "6"],
         "n,expected_capital,second_moment"),
        (["--game", "traj-d", "--steps", "4", "--samples", "3"],
         "n,expected_capital,second_moment,stderr"),
        (["--game", "traj-dc", "--steps", "4", "--samples", "3"],
         "n,expected_capital,second_moment,stderr"),
    ]
    for argv, header in specs:
        out = tmp_path / (argv[1] + ".csv")
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        assert len(lines) == int(argv[3]) + 2


def test_kspace_run_reports_the_discrepancy(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert main(["--game", "kspace", "--steps", "8",
                 "--out", str(out)]) == 0
    assert _header(out) == ("n,expected_capital,second_moment,"
                            "expected_capital_kspace,second_moment_kspace")
    printed = capsys.readouterr().out
    assert "max |direct - kspace|" in printed
    disc = float(printed.rsplit(":", 1)[1])
    assert disc < 1e-8


def test_route_discrepancy_scales_the_second_moment():
    # a 1e-14 relative gap on a second moment near 1e8 is 1e-6 absolute,
    # far above ATOL_CROSS, yet the routes agree
    ns = np.arange(3)
    mom = np.array([0.0, 1.0, 1e8])
    reference = CapitalSeries(ns, np.array([0.0, 0.5, 1.0]), mom)
    cap = reference.expected_capital + np.array([0.0, 2e-15, 0.0])
    disc = route_discrepancy(reference, cap, mom * (1 + 1e-14))
    assert disc == pytest.approx(1e-14, rel=1e-3)
    disc = route_discrepancy(reference, cap + np.array([0.0, 0.0, 3e-9]),
                             mom)
    assert disc == pytest.approx(3e-9, rel=1e-6)


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    argv = ["--game", "traj-dc", "--steps", "12", "--samples", "8",
            "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulator_failures_exit_nonzero(tmp_path, capsys):
    # epsilon outside the coin band surfaces as a one-line diagnostic
    cfg = RunConfig(game="quantum", steps=3, epsilon=2.0,
                    out=str(tmp_path / "x.csv"))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unwritable_output_exits_nonzero(tmp_path, capsys):
    cfg = RunConfig(game="classical", steps=2, epsilon=0.01,
                    out=str(tmp_path / "missing" / "x.csv"),
                    schedule=classical.AlwaysA())
    assert run(cfg) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_coin_overrides_change_the_run(tmp_path):
    base = tmp_path / "base.csv"
    flat = tmp_path / "flat.csv"
    assert main(["--game", "quantum", "--steps", "4",
                 "--out", str(base)]) == 0
    cfg_file = tmp_path / "coins.cfg"
    cfg_file.write_text("coin_b0 = 0.0, oops, 0.0\n", encoding="utf-8")
    # malformed float in the override must be a usage error, not a crash
    with pytest.raises(SystemExit):
        parse_config(["--game", "quantum", "--config", str(cfg_file),
                      "--out", str(flat)])
    cfg_file.write_text("coin_b0 = 0.0, 0.0, 0.0\n", encoding="utf-8")
    assert main(["--game", "quantum", "--steps", "4",
                 "--config", str(cfg_file), "--out", str(flat)]) == 0
    assert base.read_bytes() != flat.read_bytes()


# --- plot data -------------------------------------------------------------------------

def _series(values):
    values = np.asarray(values, dtype=float)
    return CapitalSeries(np.arange(len(values)), values, values ** 2)


def test_plot_data_has_one_column_per_series():
    text = emit_plot_data(_series([0.0, 0.5]), _series([0.0, -0.5]),
                          labels=["up", "down"])
    lines = text.splitlines()
    assert lines[0] == "# n up down"
    assert len(lines) == 3
    assert len(lines[1].split()) == 3
    assert float(lines[2].split()[1]) == 0.5


def test_plot_data_defaults_label_names():
    text = emit_plot_data(_series([0.0, 1.0]))
    assert text.splitlines()[0] == "# n series1"


def test_plot_data_rejects_mismatched_series():
    with pytest.raises(ValueError):
        emit_plot_data(_series([0.0, 1.0]), _series([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        emit_plot_data(_series([0.0]), labels=["a", "b"])


def test_plot_data_empty_input_is_header_only():
    assert emit_plot_data() == "# n\n"


def test_plot_data_round_trips_values():
    src = _series([0.0, 0.25, -0.75])
    text = emit_plot_data(src, labels=["c"])
    got = [float(line.split()[1]) for line in text.splitlines()[1:]]
    np.testing.assert_array_equal(got, src.expected_capital)
