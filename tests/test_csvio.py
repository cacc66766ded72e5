import numpy as np
import pytest

from netecon.csvio import format_value, write_csv


def _joined(header, rows, config_hash, comments):
    """The text of the writer's format: ``format_value`` value by value."""
    lines = [f"# config_hash={config_hash}"] if config_hash else []
    lines += [f"# {line}" for line in comments]
    lines.append(",".join(header))
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


REALS = [0.1, 1.0 / 3.0, np.float64(2.0 / 3.0), float("nan"), np.nan, float("inf"),
         -np.inf, np.float64(-np.inf), -0.0, np.float64(-0.0), 0.0, 1e-300, 5e-324,
         1.7976931348623157e308, -12345.678, 1e16, 123456789012345680.0]
INTS = [0, 7, -7, 2**63, np.int64(-3), np.int32(5), np.uint8(255), np.int64(2**62),
        np.uint64(2**64 - 1), True]
STRINGS = ["", "random_exp", "complex_pair", "a b", np.str_("state_space")]


@pytest.mark.parametrize("rows", [
    # one column of every kind, as a list and as tuples
    [REALS, INTS, STRINGS],
    [tuple(REALS), tuple(INTS), tuple(STRINGS)],
    # mixed rows: a column switches between int and float from row to row
    [(1, 0.5, "x", np.int64(2), np.float64(-0.0)),
     (1.0, 5, "y", np.float64(2.0), np.int64(0)),
     (np.int64(1), np.nan, "", 2, -np.inf),
     (1, 0.5, "x", np.int64(2), np.float64(-0.0))],
    # numpy columns zipped, as the trajectory writer passes them
    list(zip(np.arange(1, 5), np.array([0.1, np.nan, -0.0, 1e-300]),
             np.array([3, 4, 3, 5]), np.array([np.inf, -np.inf, 2.5, 1e300]))),
    # values of other types go through float, as in format_value
    [(np.float32(0.1), np.bool_(True), 1), (np.float16(-0.0), 2.0, np.float32(np.nan))],
    # an empty row, and no rows at all
    [()],
    [],
])
def test_text_is_format_values_joined(tmp_path, rows):
    header = ["c0", "c1", "c2"]
    path = tmp_path / "out.csv"
    write_csv(path, header, iter(rows), "abc123", ["burn_in=5", "note"])
    assert path.read_bytes() == _joined(header, rows, "abc123", ["burn_in=5", "note"]).encode()


def test_rows_may_be_any_iterable(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], (iter([np.int64(1), 0.25]) for _ in range(2)))
    assert path.read_text() == "a,b\n1,0.25\n1,0.25\n"
