"""Outside-in spans around the calls into each hpascal layer.

Nothing in the library is edited: `instrument` swaps timing wrappers in
at the names callers actually look up (a module attribute, a name bound
by ``from ... import``, a class slot or a dict entry) and puts the
originals back on exit.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: int  # ns, perf_counter_ns clock
    end: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    info: Any = None


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter_ns(), 0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int, info: Any = None) -> None:
        span = self.spans[index]
        span.end = perf_counter_ns()
        span.info = info
        self._open.pop()

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, run id, info."""
        with open(path, "w", encoding="utf-8") as fp:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                          "parent": s.parent, "run": self.run_id, "info": s.info}
                fp.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        lo = s.start  # everything before lo is already counted
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            start, end = max(c.start, lo), min(c.end, s.end)
            if end > start:
                covered += end - start
                lo = end
        out.append(s.end - s.start - covered)
    return out


def _wrap_call(tracer: Tracer, name: str, fn: Callable,
               info: Callable[[tuple, Any], Any] | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, info(args, result) if info else None)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """One span per resumption, so the consumer's work between rows stays outside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(index)
                    return
                except BaseException:
                    tracer.close(index)
                    raise
                tracer.close(index)
                yield item
        finally:
            inner.close()

    return wrapper


def _row_info(args: tuple, row) -> list:
    return [args[1], row.n, len(row.values)]  # q, row index, cells


def _location_info(args: tuple, loc) -> str:
    return loc.verified


@contextlib.contextmanager
def instrument(lib, tracer: Tracer) -> Iterator[None]:
    """Wrap every layer entry point of `lib` for the duration of the block."""
    restore: list[Callable[[], None]] = []

    def patch(owner, attr: str, wrapped: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapped)
        restore.append(lambda: setattr(owner, attr, original))

    def call(owner, attr: str, name: str, info=None) -> None:
        patch(owner, attr, _wrap_call(tracer, name, getattr(owner, attr), info))

    tri, seq = lib.triangle, lib.sequences
    call(tri, "next_row", "triangle.next_row", _row_info)
    # generate_rows is bound by name in each module that streams rows
    for owner in (tri, lib.locator, lib.pattern, lib.verify, lib.export):
        patch(owner, "generate_rows", _wrap_generator(tracer, "triangle.generate_rows",
                                                      owner.generate_rows))
    for attr in ("row_counts", "row_sums"):
        call(lib.verify, attr, "triangle.row_stats")
    for route, attrs in (
        ("coupled", ("counts_coupled", "sums_coupled")),
        ("ternary", ("counts_ternary", "sums_ternary")),
        ("closed", ("counts_closed", "sums_closed")),
        ("alternating", ("alt_sum", "alt_triple_from_row", "alt_step")),
        ("weighted", ("weighted_sum",)),
    ):
        for attr in attrs:
            call(seq, attr, f"sequences.{route}")
    call(lib.quadfield.QuadElem, "__pow__", "quadfield.pow")
    call(lib.locator, "locate_pair", "locator.locate_pair", _location_info)
    for attr in ("pattern_int", "check_pattern_recurrence", "check_prefix",
                 "check_central_copy", "check_central_value"):
        call(lib.pattern, attr, "pattern.checks")
    for attr in ("write_csv", "write_json", "write_dot"):
        call(lib.export, attr, "export.write")
    call(lib.linrec, "eliminate", "linrec.eliminate")
    suites = lib.verify.SUITES
    for suite, fn in list(suites.items()):
        suites[suite] = _wrap_call(tracer, f"verify.{suite}", fn)
        restore.append(functools.partial(suites.__setitem__, suite, fn))
    try:
        yield
    finally:
        for undo in reversed(restore):
            undo()


SUITE_NAMES = ("euclidean-oracle", "three-way", "alternating", "parity", "pattern",
               "locator", "embeddings", "elimination", "exactness")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "triangle.next_row.calls": "count",
    "triangle.next_row.cells": "count",
    "triangle.next_row.self_s": "s",
    "triangle.rebuild_ratio": "ratio",
    "triangle.ns_per_cell": "ns",
    "triangle.row_stats.calls": "count",
    "triangle.row_stats.self_s": "s",
    **{f"sequences.{r}.{k}": u
       for r in ("coupled", "ternary", "closed", "alternating", "weighted")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "quadfield.pow.calls": "count",
    "quadfield.pow.self_s": "s",
    "locator.locate_pair.calls": "count",
    "locator.locate_pair.self_s": "s",
    "locator.rows_built_per_query": "ratio",
    "locator.unverified": "count",
    "pattern.checks.calls": "count",
    "pattern.checks.self_s": "s",
    "pattern.rows_built": "count",
    "export.write.calls": "count",
    "export.write.self_s": "s",
    "export.bytes": "bytes",
    "export.ns_per_cell": "ns",
    **{f"verify.{s}.s": "s" for s in SUITE_NAMES},
    "linrec.eliminate.calls": "count",
    "linrec.eliminate.self_s": "s",
}


def _under(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], export_bytes: int, export_cells: int) -> dict[str, float]:
    """Every LAYER_UNITS metric from one traced pass; 0 where a layer was not reached."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    for s, own_ns in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ns[s.name] = self_ns.get(s.name, 0) + own_ns
        total_ns[s.name] = total_ns.get(s.name, 0) + s.end - s.start

    rows = [i for i, s in enumerate(spans) if s.name == "triangle.next_row"]
    cells = sum(spans[i].info[2] for i in rows)
    distinct = {(spans[i].info[0], spans[i].info[1]) for i in rows}
    queries = calls.get("locator.locate_pair", 0)

    m: dict[str, float] = {}
    for layer in ("triangle.next_row", "triangle.row_stats", "sequences.coupled",
                  "sequences.ternary", "sequences.closed", "sequences.alternating",
                  "sequences.weighted", "quadfield.pow", "locator.locate_pair",
                  "pattern.checks", "export.write", "linrec.eliminate"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    m["triangle.next_row.cells"] = cells
    m["triangle.rebuild_ratio"] = len(rows) / len(distinct) if distinct else 0.0
    m["triangle.ns_per_cell"] = self_ns.get("triangle.next_row", 0) / cells if cells else 0.0
    m["locator.rows_built_per_query"] = (
        sum(_under(spans, i, "locator.locate_pair") for i in rows) / queries if queries else 0.0
    )
    m["locator.unverified"] = sum(
        1 for s in spans if s.name == "locator.locate_pair" and s.info == "unverified"
    )
    m["pattern.rows_built"] = sum(_under(spans, i, "pattern.checks") for i in rows)
    m["export.bytes"] = export_bytes
    m["export.ns_per_cell"] = self_ns.get("export.write", 0) / export_cells if export_cells else 0.0
    for suite in SUITE_NAMES:
        m[f"verify.{suite}.s"] = total_ns.get(f"verify.{suite}", 0) / 1e9
    return {name: m[name] for name in LAYER_UNITS}
