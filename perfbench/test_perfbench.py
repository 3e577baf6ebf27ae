"""Tests of the benchmark's own logic; they run no timed workload."""

import io
import json
import signal
import time

import pytest

import run
import tracing
import workloads
from hostspeed import REFERENCE_S, Region, handler_s
from tracing import Span, Tracer, instrument, layer_metrics, self_times
from workloads import Export, ExportSpec, HashSink, Locate, Sequences, percentile, tail_percentile


@pytest.fixture(scope="module")
def lib():
    return workloads.library()


TINY = ExportSpec(row_streams=((5, 4),), dot=(6, 2), digests={})


@pytest.mark.parametrize("n,expected", [
    (9, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    samples = [float(x) for x in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    with pytest.raises(ValueError):
        percentile(samples[:99], 90)


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 30, 0),
        Span("b", 40, 70, 0),
        Span("c", 45, 55, 2),
        Span("d", 50, 60, 2),  # overlaps c: the covered part counts once
        Span("e", 90, 120, 0),  # runs past its parent: clipped at the parent's end
    ]
    assert self_times(spans) == [100 - 20 - 30 - 10, 20, 30 - 15, 10, 10, 30]


def test_digest_gate_catches_one_byte_change(lib):
    out = Export(TINY).run_pass(lib, TINY)
    spec = ExportSpec(TINY.row_streams, TINY.dot, dict(out.digests))
    assert Export(spec).check(lib, spec, out) == (3, 0)

    text = io.StringIO()
    lib.export.write_csv(lib.triangle.generate_rows(5, 4), text)
    data = text.getvalue()
    flipped = data[:-2] + ("0" if data[-2] != "0" else "1") + data[-1]
    sink = HashSink()
    sink.write(data)
    assert sink.sha.hexdigest() == out.digests["q5.csv"]
    sink = HashSink()
    sink.write(flipped)
    out.digests["q5.csv"] = sink.sha.hexdigest()
    assert Export(spec).check(lib, spec, out) == (3, 1)


@pytest.mark.parametrize("workload", [Sequences(), Locate()], ids=lambda w: w.name)
def test_seeded_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = workload.make_inputs(7)
    assert workload.make_inputs(7) == first
    assert workload.make_inputs(8) != first


def test_pair_row_matches_the_locator(lib):
    for v in range(1, workloads.LOCATE_MAX + 1):
        for u in range(1, v + 1):
            assert workloads.pair_row(u, v) == lib.locator.locate_row(u, v)


def test_traced_export_builds_each_row_once_and_restores_the_library(lib):
    original = lib.triangle.next_row
    tracer = Tracer("test")
    with instrument(lib, tracer):
        out = Export(TINY).run_pass(lib, TINY)
    assert lib.triangle.next_row is original
    assert lib.export.generate_rows is lib.triangle.generate_rows
    m = layer_metrics(tracer.spans, out.bytes, out.cells)
    assert set(m) == set(tracing.LAYER_UNITS)
    assert m["triangle.rebuild_ratio"] == 1.0
    assert m["triangle.next_row.calls"] == 4 + 2  # rows 1..4 of q=5, rows 1..2 of q=6
    assert m["export.write.calls"] == 2 * 5 + 1
    assert m["export.bytes"] == out.bytes > 0


def test_benchmark_json_lists_what_the_runs_print():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_region_takes_its_sampler_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Region() as region:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
        assert handler_s() == region.spent
    assert handler_s() == 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(region.samples) >= 3  # one before, one after, a tick every INTERVAL_S
    assert 0 < region.spent < region.wall_s
    scale = REFERENCE_S * len(region.samples) / sum(region.samples)
    assert region.seconds == pytest.approx((region.wall_s - region.spent) * scale)


def test_per_suite_metrics_follow_the_library_suites(lib):
    assert tracing.SUITE_NAMES == tuple(lib.verify.SUITES)
    assert tuple(name for name, _ in workloads.VERIFY_EXPECTED) == tuple(lib.verify.SUITES)
