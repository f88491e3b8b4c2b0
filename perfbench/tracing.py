"""Outside-in span tracing for the benchmark's traced runs.

Nothing here touches ``src/repro``: :func:`install` swaps the public entry
points of each layer for wrappers made in this file, and puts the originals
back when its ``with`` block ends.  Each wrapped call records one span --
name, start, end, parent and a row count -- in arrays held in memory;
:meth:`Tracer.write` saves them once, when the benchmark exits.

A span's self time is its duration minus the time its direct child spans
cover (calls are single-threaded and strictly nested, so the children of a
span never overlap).  The benchmark opens one root span around the traced
work; the root's own self time is the ``other`` bucket, so the self times of
all spans add up to the root's duration -- the traced wall time -- exactly.

The wrappers read only their arguments (to count rows) and the clock, never
a random stream, so a traced run produces the same ``RunSummary`` bytes as an
untraced one; the benchmark asserts that.
"""

from __future__ import annotations

import contextlib
import inspect
import time
import types
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: ``(owner, attribute, make)``: ``make(original) -> replacement``.  A class
#: owner also patches every subclass that overrides ``attribute`` itself.
Patch = Tuple[object, str, Callable[[Callable], Callable]]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._stack: List[int] = []

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int, rows: int) -> int:
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, rows: Optional[Callable[..., int]] = None
    ) -> Callable:
        """``fn`` wrapped so that every call records a span called ``name``.

        ``rows(*args, **kwargs)``, when given, is stored with the span (the
        batch width of the call).
        """
        ident = self._intern(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            index = open_span(ident, rows(*args, **kwargs) if rows is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a ``with`` block (the benchmark's own phases)."""
        index = self._open(self._intern(name), 0)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------ analysis
    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "rows": np.array(self.rows, dtype=np.int64),
        }

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``/``rows`` of outermost spans and ``self_s``.

        A span nested directly in a span of the same name (a kernel calling
        another kernel, a subclass calling ``super()``) adds self time but no
        extra call or rows, so counts are of calls entering the layer.
        """
        cols = self.columns()
        ids, parents = cols["name_id"], cols["parent"]
        duration = cols["end"] - cols["start"]
        covered = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        own = duration - covered
        outer = np.ones(len(ids), dtype=bool)
        outer[nested] = ids[parents[nested]] != ids[nested]
        n = len(self.names)
        self_s = np.bincount(ids, weights=own, minlength=n)
        calls = np.bincount(ids[outer], minlength=n)
        rows = np.bincount(ids[outer], weights=cols["rows"][outer], minlength=n)
        return {
            name: {"calls": int(calls[i]), "rows": int(rows[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span called ``name``, in call order."""
        ident = self._name_ids.get(name)
        if ident is None:
            return np.zeros(0)
        cols = self.columns()
        keep = cols["name_id"] == ident
        return cols["end"][keep] - cols["start"][keep]

    def write(self, path) -> None:
        """Save every span (name table plus columns) as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


def _owners(owner: object, attr: str) -> List[object]:
    if isinstance(owner, types.ModuleType):
        return [owner]
    found, pending = [], [owner]
    while pending:
        cls = pending.pop()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@contextlib.contextmanager
def install(patches: Sequence[Patch]) -> Iterator[None]:
    """Apply ``patches`` for the duration of the block, then restore."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, make in patches:
            for target in _owners(owner, attr):
                raw = inspect.getattr_static(target, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(make(raw.__func__))
                else:
                    replacement = make(raw)
                saved.append((target, attr, raw))
                setattr(target, attr, replacement)
        yield
    finally:
        for target, attr, raw in reversed(saved):
            setattr(target, attr, raw)


def traced_patches(
    tracer: Tracer,
    table: Sequence[Tuple[object, str, str, Optional[Callable[..., int]]]],
) -> List[Patch]:
    """Patches recording a span per call, from ``(owner, attr, span, rows)`` rows."""
    return [
        (owner, attr, lambda fn, span=span, rows=rows: tracer.wrap(span, fn, rows))
        for owner, attr, span, rows in table
    ]
