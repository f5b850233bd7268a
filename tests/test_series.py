import numpy as np
import pytest

from parrondo.series import CapitalSeries, format_float, observe


def test_format_float_is_16_significant_digits():
    assert format_float(0.1) == "1.000000000000000e-01"
    assert format_float(-20.0) == "-2.000000000000000e+01"
    assert format_float(0.0) == "0.000000000000000e+00"


def test_format_float_round_trips():
    for v in (0.1, -20.00000000000002, 0.3185599551596582, 1e-300):
        assert float(format_float(v)) == v


def _series(stderr=None):
    return CapitalSeries(np.arange(4), np.array([0.0, 1.0, 0.5, -0.5]),
                         np.array([0.0, 1.0, 2.0, 3.0]),
                         {} if stderr is None else {"stderr": stderr})


def test_series_length_and_readonly():
    s = _series()
    assert len(s) == 4
    with pytest.raises(ValueError):
        s.expected_capital[0] = 9.0


def test_series_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        CapitalSeries(np.arange(3), np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError):
        CapitalSeries(np.arange(3), np.zeros(3), np.zeros(3),
                      extra={"stderr": np.zeros(2)})
    with pytest.raises(ValueError):
        CapitalSeries(np.arange(3), np.zeros(3), np.zeros(3),
                      extra={"stderr": np.zeros(3), "other": np.zeros(2)})


def test_series_rejects_bad_step_column():
    with pytest.raises(ValueError):
        CapitalSeries(np.array([1, 2]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        CapitalSeries(np.array([0, 0, 1]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        CapitalSeries(np.array([]), np.array([]), np.array([]))


def test_series_rejects_capital_moving_faster_than_one_per_step():
    with pytest.raises(ValueError):
        CapitalSeries(np.arange(2), np.array([0.0, 1.5]), np.zeros(2))


def test_write_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "out.csv"
    _series().write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").split("\n")
    assert lines[0] == "n,expected_capital,second_moment"
    assert lines[1] == "0,0.000000000000000e+00,0.000000000000000e+00"
    assert len(lines) == 6 and lines[-1] == ""


def test_write_csv_stderr_column(tmp_path):
    path = tmp_path / "out.csv"
    _series(stderr=np.array([0.0, 0.1, 0.2, 0.3])).write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,expected_capital,second_moment,stderr"
    assert lines[2].split(",")[3] == format_float(0.1)


def test_write_csv_extra_columns_in_order(tmp_path):
    path = tmp_path / "out.csv"
    s = CapitalSeries(np.arange(2), np.array([0.0, 1.0]), np.zeros(2),
                      {"z": np.array([5.0, 6.0]), "a": np.array([7.0, 8.0])})
    s.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,expected_capital,second_moment,z,a"
    assert lines[2].split(",")[3:] == [format_float(6.0), format_float(8.0)]
    with pytest.raises(ValueError):
        s.extra["z"][0] = 9.0


def test_observe_reads_both_moments_per_distribution():
    dists = [(np.array([0]), np.array([1.0])),
             (np.array([-1, 0, 1]), np.array([0.25, 0.0, 0.75])),
             (np.array([-2, 0, 2]), np.array([0.5, 0.25, 0.25]))]
    s = observe(dists)
    np.testing.assert_array_equal(s.ns, [0, 1, 2])
    np.testing.assert_array_equal(s.expected_capital, [0.0, 0.5, -0.5])
    np.testing.assert_array_equal(s.second_moment, [0.0, 1.0, 3.0])
    assert s.extra == {}


def test_observe_needs_at_least_one_distribution():
    with pytest.raises(ValueError):
        observe([])


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    s = _series()
    s.write_csv(path)
    rows = [line.split(",") for line in
            path.read_text(encoding="utf-8").splitlines()[1:]]
    got = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_array_equal(got[:, 0], s.ns)
    np.testing.assert_array_equal(got[:, 1], s.expected_capital)
    np.testing.assert_array_equal(got[:, 2], s.second_moment)
