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


def _row_template(kinds: tuple) -> str:
    """The ``%`` template that writes a row of values of these types as
    ``format_value`` writes them: ``%.17g`` converts any other type through
    ``float``, as ``format_value`` does."""
    conversions = []
    for kind in kinds:
        if issubclass(kind, str):
            conversions.append("%s")
        elif issubclass(kind, (int, np.integer)):
            conversions.append("%d")
        else:
            conversions.append("%.17g")
    return ",".join(conversions) + "\n"


def write_csv(path, header, rows, config_hash: str = "", comments=()) -> None:
    """Write the hash line, the comment lines, the header and the rows.

    Each row is written by one ``%`` template, made once per sequence of
    value types; the text is ``format_value``'s.
    """
    templates: dict[tuple, str] = {}
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = _row_template(kinds)
            fh.write(templates[kinds] % row)
