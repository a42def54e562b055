"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import _thread
import json
import sys
import threading

import pytest

import run
import workloads as wl
from tracing import Tracer

bb = run.import_library()
ys = run.import_yardstick()

SMALL_VERIFY = ("verify", "--max-size", "2", "--delta-min", "0", "--delta-max", "1")


def small_ops(workload: str, seed: int = 0, max_size: int = 300):
    return [op for op in wl.build_ops(bb, workload, seed) if op.size <= max_size]


@pytest.mark.parametrize("workload", ["queries", "enumerate"])
def test_inputs_are_deterministic_per_seed(workload):
    first = wl.build_ops(bb, workload, 5)
    assert wl.build_ops(bb, workload, 5) == first
    other = wl.build_ops(bb, workload, 6)
    assert other != first and len(other) == len(first)


@pytest.mark.parametrize("workload", ["queries", "enumerate"])
def test_yardstick_gives_the_reference_outputs(workload):
    ops = wl.build_ops(ys, workload, 0)
    small = [i for i, op in enumerate(ops) if op.size <= (17 if workload == "enumerate" else 300)]
    _, results, errors = run.run_pass(ys, [ops[i] for i in small])
    expected = run.load_reference()[workload]["0"]
    assert not errors
    assert run.pass_digests([ops[i] for i in small], results, {}) == [expected[i] for i in small]


def test_a_pass_starts_only_when_it_can_end_in_time():
    started = run.time.monotonic()
    assert run.more_passes(started, [], 0)
    assert run.more_passes(started, [1.0], 10)
    assert not run.more_passes(started, [11.0], 10)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 1001)) == (99.0, 990, 10)
    assert run.tail(range(1, 201)) == (95.0, 190, 10)
    assert run.tail(range(1, 101)) == (90.0, 90, 10)
    assert run.tail(range(1, 41)) == (75.0, 30, 10)
    assert run.tail(range(1, 21)) == (50.0, 10, 10)
    assert run.tail(range(1, 20)) == (100.0, 19, 0)


@pytest.mark.parametrize("parts", [(3, 2, 1), (5,), (1, 1, 1, 1), (4, 4, 2), (6, 1, 1)])
@pytest.mark.parametrize("delta", [-4, -1, 0, 2, 3, 6])
def test_built_pairs_share_a_block_or_a_bar_weight(parts, delta):
    lam = bb.Partition(parts)
    assert bb.same_block(lam, bb.Partition(wl.flip_partner(parts, delta, 2)), delta)
    if delta % 2 == 0:
        assert bb.same_bar_weight(lam, bb.Partition(wl.flip_partner(parts, delta, 1)), delta)


@pytest.mark.parametrize("workload", ["queries", "enumerate"])
def test_traced_outputs_equal_untraced(workload):
    ops = small_ops(workload, max_size=17 if workload == "enumerate" else 300)
    _, plain, plain_errors = run.run_pass(bb, ops)
    tracer = Tracer()
    tracer.install(bb)
    try:
        _, traced, traced_errors = run.run_pass(bb, ops, tracer)
    finally:
        tracer.uninstall()
    assert not plain_errors and not traced_errors
    assert run.pass_digests(ops, traced, {}) == run.pass_digests(ops, plain, {})
    layers = tracer.layer_metrics([op.size for op in ops])
    assert layers["blocks.same_block.calls"] > 0
    assert bb.same_block.__module__ == "brauerblocks.blocks"  # wrappers removed
    if workload == "enumerate":
        assert 0 < layers["blocks.enumerate.hit_ratio"] < 1
    else:
        assert layers["central.factor_merges"] > 0


def test_traced_verify_report_equals_untraced():
    _, plain = run.verify_in_process(bb, argv=SMALL_VERIFY)
    tracer = Tracer()
    _, traced = run.verify_in_process(bb, tracer, argv=SMALL_VERIFY)
    assert plain and wl.strip_elapsed(json.loads(traced)) == wl.strip_elapsed(json.loads(plain))
    layers = tracer.layer_metrics([])
    assert layers["blocks.bfs.orbit_vectors"] > 0 and layers["wedge.apply_b.calls"] > 0


_spawned: list | None = None


def _audit(event, args):
    if _spawned is not None and event in ("subprocess.Popen", "os.fork", "os.posix_spawn", "os.system"):
        _spawned.append((event, args))


sys.addaudithook(_audit)  # audit hooks stay for the life of the process


@pytest.fixture
def spawned(monkeypatch):
    """Records every process and thread started while the test runs."""
    global _spawned
    _spawned = events = []
    start_thread = threading._start_new_thread

    def counting(*args, **kwargs):
        events.append(("thread", args))
        return start_thread(*args, **kwargs)

    monkeypatch.setattr(threading, "_start_new_thread", counting)
    monkeypatch.setattr(_thread, "start_new_thread", counting)
    yield events
    _spawned = None


@pytest.mark.parametrize("workload", ["queries", "enumerate"])
def test_op_workloads_start_no_thread_or_process(workload, spawned):
    ops = small_ops(workload, max_size=16)
    run.run_pass(bb, ops)
    ys_ops = [op for op in wl.build_ops(ys, workload, 0) if op.size <= 16]
    latencies, results, errors, yardstick = run.run_paired_pass(bb, ops, ys, ys_ops)
    assert not errors and sum(yardstick) > 0 and len(latencies) == len(ops)
    assert spawned == []
    assert threading.active_count() == 1


def test_verify_starts_one_child_at_a_time_and_no_thread(spawned):
    ref = run.load_reference()
    _, checker, _ = run.verify_workload(0, ref)
    assert checker.failed == 0 and checker.attempted == 1
    assert [event for event, _ in spawned] == ["subprocess.Popen"] * 2
    assert [args[1][2:4] for _, args in spawned] == [["brauerblocks", "verify"], ["yardstick", "verify"]]
    assert threading.active_count() == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
