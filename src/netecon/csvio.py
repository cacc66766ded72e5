"""The one writer of netecon's CSV datasets and the canonical text of a value.

Every dataset starts with ``# config_hash=...`` (when a hash is given), then
``# `` comment lines, the header and the data rows.  Reals are written with
17 significant digits, which round-trips a double exactly, so re-running an
experiment reproduces its files byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_value", "write_csv"]


def format_value(value) -> str:
    """Strings as is, integers in plain decimal, reals to 17 significant digits."""
    if isinstance(value, float):  # also numpy float64, the common case
        return format(value, ".17g")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows, config_hash: str = "", comments=()) -> None:
    """Write the hash line, the comment lines, the header and the rows."""
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
