import numpy as np
import pytest

from typlab.csvio import (
    format_number,
    read_stats_csv,
    read_trajectories_csv,
    write_stats_csv,
    write_trajectories_csv,
)
from typlab.errors import TyplabError


def test_format_number_roundtrips():
    for x in (0.1, 1 / 3, 8.33e-5, -2.25e-8, 1.0, 0.0):
        assert float(format_number(x)) == x


def test_stats_roundtrip_exact(tmp_path):
    path = tmp_path / "stats.csv"
    times = np.linspace(0.0, 7.0, 13)
    mean = np.sin(times) / 3
    variance = np.abs(np.cos(times)) * 1e-3
    bound = np.full_like(times, 2.5e-3)
    write_stats_csv(path, {"t": times, "mean": mean, "variance": variance, "bound": bound})
    data = read_stats_csv(path)
    assert np.array_equal(data["t"], times)
    assert np.array_equal(data["mean"], mean)
    assert np.array_equal(data["variance"], variance)
    assert np.all(data["bound"] == 2.5e-3)


def test_writers_take_what_the_readers_return(tmp_path):
    # Each writer, handed what its reader read from a written file, writes
    # that file's bytes again.
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.exponential(size=9))
    values = rng.standard_normal((4, 9)) * 10.0 ** rng.integers(-300, 300, size=(4, 9))
    stats = {"t": times, "mean": values[0], "variance": np.abs(values[1]), "bound": values[2]}
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_stats_csv(first, stats)
    write_stats_csv(second, read_stats_csv(first))
    assert second.read_bytes() == first.read_bytes()
    write_trajectories_csv(first, times, values)
    write_trajectories_csv(second, *read_trajectories_csv(first))
    assert second.read_bytes() == first.read_bytes()


def test_trajectories_roundtrip_exact(tmp_path):
    path = tmp_path / "traj.csv"
    times = np.linspace(0.0, 1.0, 5)
    values = np.arange(15, dtype=float).reshape(3, 5) / 7
    write_trajectories_csv(path, times, values)
    header = path.read_text().splitlines()[0]
    assert header == "t,traj_0,traj_1,traj_2"
    rt_times, rt_values = read_trajectories_csv(path)
    assert np.array_equal(rt_times, times)
    assert np.array_equal(rt_values, values)


def test_stats_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,avg,var,bnd\n0,0,0,0\n")
    with pytest.raises(TyplabError, match="expected header 't,mean,variance,bound', got 'time,"):
        read_stats_csv(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TyplabError, match="empty.csv is empty"):
        read_stats_csv(path)


def test_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("t,mean,variance,bound\n")
    with pytest.raises(TyplabError, match="has no data rows, needs at least 2"):
        read_stats_csv(path)


def test_non_numeric_cell_reports_row(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,mean,variance,bound\n0.0,0.1,0.2,0.3\n1.0,oops,0.2,0.3\n")
    with pytest.raises(TyplabError, match="non-numeric value 'oops' [(]row 3[)]"):
        read_stats_csv(path)


def test_short_row_reports_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,mean,variance,bound\n0.0,0.1,0.2\n")
    with pytest.raises(TyplabError, match="expected 4 columns, got 3 [(]row 2[)]"):
        read_stats_csv(path)


def test_trajectories_header_enforced(tmp_path):
    path = tmp_path / "bad_traj.csv"
    path.write_text("t,traj_0,traj_2\n0.0,1.0,2.0\n")
    with pytest.raises(TyplabError, match="header 't,traj_0,traj_1', got 't,traj_0,traj_2'"):
        read_trajectories_csv(path)


STATS_ROWS = "t,mean,variance,bound\n0.0,0.1,0.2,0.3\n"


@pytest.mark.parametrize(
    "extra,needle",
    [
        ("1.0,nan,0.2,0.3\n", "non-finite value 'nan' [(]row 3[)]"),
        ("1.0,0.1,inf,0.3\n", "non-finite value 'inf' [(]row 3[)]"),
        ("", "has one data row, needs at least 2 [(]row 2[)]"),
        ("0.0,0.1,0.2,0.3\n", "t = 0.0 does not increase on 0.0 [(]row 3[)]"),
    ],
    ids=["nan", "inf", "one-row", "repeated-t"],
)
def test_stats_a_plot_cannot_use_rejected(tmp_path, extra, needle):
    path = tmp_path / "stats.csv"
    path.write_text(STATS_ROWS + extra)
    with pytest.raises(TyplabError, match=needle):
        read_stats_csv(path)


@pytest.mark.parametrize(
    "rows,needle",
    [
        ("0.0,1.0\n1.0,-inf\n", "non-finite value '-inf' [(]row 3[)]"),
        ("1.0,1.0\n0.5,1.0\n", "t = 0.5 does not increase on 1.0 [(]row 3[)]"),
    ],
    ids=["inf", "decreasing-t"],
)
def test_trajectories_share_the_reader_checks(tmp_path, rows, needle):
    path = tmp_path / "trajectories.csv"
    path.write_text("t,traj_0\n" + rows)
    with pytest.raises(TyplabError, match=needle):
        read_trajectories_csv(path)
