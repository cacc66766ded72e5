"""In-memory spans around netecon's public layer functions.

A :class:`Tracer` replaces a function at every module attribute that holds it
(``from .simulator import trajectory_to_csv`` copies the reference into the
importing module, so patching only the defining module would miss the CLI's
calls) and puts the originals back on :meth:`Tracer.uninstall`.  Nothing
inside the package is edited: spans are taken around calls that go through
those attributes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1 for a root.  Times are ``time.perf_counter`` seconds.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter

PACKAGE = "netecon"


class Tracer:
    """Span recorder plus counters (calls per span name and any the caller
    adds), kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.counts[name] += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs once the span closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, owner, attr: str, name: str, after=None) -> bool:
        """Wrap ``owner.attr`` wherever the package holds it.

        ``owner`` is a module (the function is replaced in every loaded
        package module that holds the same object) or a class (the method is
        replaced on that class).  Returns False when the attribute does not
        exist, so a renamed function shows up as a missing layer instead of
        a crash.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapped = self.wrap(name, original, after)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [mod for key, mod in list(sys.modules.items())
                       if mod is not None
                       and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._restore.append((holder, key, original))
        return True

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def durations(self, name: str, roots: set[str] | None = None) -> list[float]:
        return [end - start for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and (roots is None or self.root_name(i) in roots)]

    def count(self, name: str, roots: set[str] | None = None) -> int:
        return len(self.durations(name, roots))

    def self_times(self, name: str, roots: set[str] | None = None) -> list[float]:
        """Span durations minus the time covered by their direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and (roots is None or self.root_name(i) in roots)]

    def root_name(self, idx: int) -> str:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: int) -> float:
    """Percentile by ``statistics.quantiles`` (exclusive method); 0 when empty."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[pct - 1])
