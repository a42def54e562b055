"""Benchmark for brauerblocks: point queries, block enumeration and the verify
matrix, each in one process with one thread and a closed loop of one client.

    python3 perfbench/run.py --workload queries --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  ``--workload all`` runs every workload in turn.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the same metrics, and
the ones no gate uses, by name and unit.  ``--trace 1`` reports per-layer
numbers from a run that alternates untraced and traced passes.

Times are CPU seconds of the process doing the work (tracing.CLOCK in this
process, rusage of a child), expressed in reference seconds: each is
divided by a host factor, the CPU time that perfbench/yardstick, a frozen
copy of brauerblocks, takes for the same work right next to it, over what
that work took it on the reference host (YARDSTICK_SECONDS).  queries and
enumerate run every op on both packages back to back; verify and setup_s
alternate a library process with a yardstick one.  On a shared virtual
machine the CPU time of a fixed loop moves by up to 70 % for a minute at a
time with the load of other tenants; the yardstick, running the same code
on the same inputs at the same time, moves with it.  Every workload runs
one thread that never waits, and the run and its children stay on one CPU.

The first pass runs every op; later passes, as many as end within
--seconds, repeat the light ops (those the yardstick ran in under
LIGHT_OP_S), so the cheap ops that set the median and the tail get several
samples while the few heavy ones run once.  A later pass takes its host
factor from the first pass's, scaled by the yardstick's time on the light
ops against its time on them in the first pass.  An op's latency is the
median of its samples; the median and the tail are then taken across ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import CLOCK, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
LIBRARY, YARDSTICK = "brauerblocks", "yardstick"

SETUP_PROBES = 5  # pairs of fresh interpreters, library and yardstick
LIGHT_OP_S = 0.5  # yardstick seconds under which an op runs in every pass
# CPU seconds the yardstick took on the reference host (2-vCPU VM, Python
# 3.11.7), median over seeds 0-4: one pass over a workload's ops, one verify
# process, and one set-up probe.  They only set the scale of every time.
YARDSTICK_SECONDS = {"queries": 8.75, "enumerate": 8.68, "verify": 5.51}
YARDSTICK_SETUP_SECONDS = {"queries": 0.172, "enumerate": 0.106, "verify": 0.157}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
VERIFY_CHECKS = (
    "witness-pair",
    "orbit-vs-dot-bfs",
    "sequence-weight-bridge",
    "weight-class-split-counts",
    "bar-weight-vs-central-character",
    "series-reflection-product",
    "parameter-admissibility",
    "wedge-box-moves",
    "block-growth",
    "rational-function-weight",
    "key-consistency",
)


# --- statistics ------------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile of
    TAIL_LADDER, by nearest rank, with at least MIN_BEYOND samples above it.
    With fewer than 2 * MIN_BEYOND samples none qualifies and the maximum is
    returned as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(n * p / 100)
        if n - rank >= MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def unit_of(name: str) -> str:
    if name.endswith("ratio"):
        return "1"
    if ".self_s" in name or name.endswith("_s"):
        return "s"
    return "count"


# --- the library under test --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def import_library():
    """brauerblocks from this checkout's src/, or exit 1 when it is missing."""
    if not (SRC / "brauerblocks" / "__init__.py").is_file():
        sys.exit(f"run.py: no brauerblocks sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import brauerblocks

    if Path(brauerblocks.__file__).resolve().parent != SRC / "brauerblocks":
        sys.exit(f"run.py: imported brauerblocks from {brauerblocks.__file__}, not from {SRC}")
    return brauerblocks


def import_yardstick():
    """The frozen copy of brauerblocks that every pass is measured against."""
    import yardstick

    return yardstick


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def setup_probe(workload: str, seed: int, package: str) -> None:
    """The set-up a workload pays before its first timed op, with the library
    or the yardstick; prints the CPU seconds this interpreter has used since
    it started."""
    bb = import_library() if package == LIBRARY else import_yardstick()
    if workload == "verify":
        __import__(f"{package}.cli")
    else:
        wl.build_ops(bb, workload, seed)
        wl.warm_up(bb, workload)
    print(f"ready {time.process_time()!r}", flush=True)


def probe_setup(workload: str, seed: int, package: str) -> float:
    """Set-up CPU seconds of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", package,
           "--workload", workload, "--seed", str(seed)]
    probe = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True, check=False)
    word, _, value = probe.stdout.strip().partition(" ")
    if probe.returncode != 0 or word != "ready":
        sys.exit(f"run.py: set-up probe for {workload} failed with exit code {probe.returncode}")
    return float(value)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROBES fresh library interpreters, each
    divided by the host factor of a yardstick probe run next to it, and the
    raw library seconds."""
    scaled, raw = [], []
    for k in range(SETUP_PROBES):
        order = (LIBRARY, YARDSTICK) if k % 2 == 0 else (YARDSTICK, LIBRARY)
        t = {package: probe_setup(workload, seed, package) for package in order}
        scaled.append(t[LIBRARY] / (t[YARDSTICK] / YARDSTICK_SETUP_SECONDS[workload]))
        raw.append(t[LIBRARY])
    return scaled, raw


def more_passes(started: float, walls: list[float], seconds: float) -> bool:
    """True before the first pass, and afterwards while a pass as long as
    the last one would still end within `seconds` of `started`."""
    return not walls or time.monotonic() - started + walls[-1] <= seconds


# --- queries and enumerate -------------------------------------------------------------


def run_pass(bb, ops, tracer=None):
    """One closed-loop pass: each call starts when the previous one returned.
    Returns per-op seconds, results, and the exceptions raised by index."""
    latencies = [0.0] * len(ops)
    results = [None] * len(ops)
    errors: dict[int, str] = {}
    for i, op in enumerate(ops):
        fn = getattr(bb, op.kind)
        if tracer is not None:
            tracer.op_id = i
            sid = tracer.open("op." + op.kind)
        started = CLOCK()
        try:
            results[i] = fn(*op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors[i] = repr(exc)
        latencies[i] = CLOCK() - started
        if tracer is not None:
            tracer.close(sid)
    return latencies, results, errors


def time_yardstick(ys, op) -> float:
    started = CLOCK()
    getattr(ys, op.kind)(*op.args)
    return CLOCK() - started


def run_paired_pass(bb, ops, ys, ys_ops):
    """run_pass with each op followed, or preceded on odd ops, by the same op
    on the yardstick.  Returns per-op library seconds, results, exceptions by
    index, and per-op yardstick seconds."""
    latencies = [0.0] * len(ops)
    results = [None] * len(ops)
    errors: dict[int, str] = {}
    yardstick = [0.0] * len(ops)
    for i, (op, ys_op) in enumerate(zip(ops, ys_ops)):
        fn = getattr(bb, op.kind)
        if i % 2:
            yardstick[i] = time_yardstick(ys, ys_op)
        started = CLOCK()
        try:
            results[i] = fn(*op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors[i] = repr(exc)
        latencies[i] = CLOCK() - started
        if not i % 2:
            yardstick[i] = time_yardstick(ys, ys_op)
    return latencies, results, errors, yardstick


def pass_digests(ops, results, errors) -> list[str | None]:
    out = []
    for i, (op, result) in enumerate(zip(ops, results)):
        try:
            out.append(None if i in errors else wl.digest(wl.canonical(op.kind, result)))
        except (TypeError, AttributeError, ValueError):
            out.append(None)
    return out


class OpChecker:
    """Counts failed executions: an exception, a digest that differs from the
    reference (or, for seeds without one, from the first pass), or an op whose
    first result fails its cross-check.  The first pass runs every op."""

    def __init__(self, bb, ops, reference: list[str] | None):
        self.bb = bb
        self.ops = ops
        self.expected = reference
        self.first_results = None
        self.runs = [0] * len(ops)
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    def add_pass(self, indices, results, errors) -> None:
        """The results of the ops at `indices`, in that order, with the
        exceptions keyed by position in the pass."""
        digests = pass_digests([self.ops[i] for i in indices], results, errors)
        if self.expected is None:
            self.expected = digests
        if self.first_results is None:
            self.first_results = results
        for k, (i, got) in enumerate(zip(indices, digests)):
            self.runs[i] += 1
            if got is None or got != self.expected[i]:
                self.failed += 1
                self._note(i, errors.get(k, f"digest {got} != {self.expected[i]}"))

    def cross_check(self) -> None:
        """A failed cross-check fails every execution of the op."""
        for i, (op, result) in enumerate(zip(self.ops, self.first_results)):
            if result is None:
                continue
            problem = wl.cross_check(self.bb, op, result)
            if problem:
                self.failed += self.runs[i]
                self._note(i, problem)

    def _note(self, i: int, problem: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(f"op {i} {self.ops[i].kind} size {self.ops[i].size}: {problem}")


def prepare(bb, workload: str, seed: int, ref: dict):
    ops = wl.build_ops(bb, workload, seed)
    wl.warm_up(bb, workload)
    return ops, OpChecker(bb, ops, ref.get(workload, {}).get(str(seed)))


def op_workload(bb, workload: str, seed: int, seconds: float, ref: dict):
    ops, checker = prepare(bb, workload, seed, ref)
    ys = import_yardstick()
    ys_ops = wl.build_ops(ys, workload, seed)
    wl.warm_up(ys, workload)
    started = time.monotonic()
    latencies, results, errors, yardstick = run_paired_pass(bb, ops, ys, ys_ops)
    first_wall = time.monotonic() - started
    # later passes also hold the first pass's results
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first_cpu = sum(latencies)
    factor = sum(yardstick) / YARDSTICK_SECONDS[workload]
    samples = [[t / factor] for t in latencies]
    checker.add_pass(range(len(ops)), results, errors)

    # a later pass takes its host factor from the first pass's, scaled by the
    # yardstick's time on the light ops against its time on them then
    light = [i for i, t in enumerate(yardstick) if t < LIGHT_OP_S]
    light_yardstick = sum(yardstick[i] for i in light)
    next_wall = first_wall * light_yardstick / sum(yardstick)
    passes = 1
    while light and time.monotonic() - started + next_wall <= seconds:
        t0 = time.monotonic()
        latencies, results, errors, light_times = run_paired_pass(
            bb, [ops[i] for i in light], ys, [ys_ops[i] for i in light])
        next_wall = time.monotonic() - t0
        pass_factor = factor * sum(light_times) / light_yardstick
        for i, t in zip(light, latencies):
            samples[i].append(t / pass_factor)
        checker.add_pass(light, results, errors)
        passes += 1
    checker.cross_check()

    medians = [statistics.median(ts) for ts in samples]
    total = sum(medians)
    p, value, beyond = tail(medians)
    metrics = {
        "wall_s": total,
        "ops_per_s": len(ops) / total,
        "op_p50_ms": statistics.median(medians) * 1000,
        "op_tail_ms": value * 1000,
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "wall_s": f"one pass over {len(ops)} ops, {len(light)} of them the median of {passes} passes; "
        f"the first took {first_cpu:.3g} CPU s at host factor {factor:.3g}, "
        f"{first_wall:.3g} s of wall clock with the yardstick",
        "op_tail_ms": f"p{p:g}, {beyond} of {len(ops)} ops beyond",
        "peak_rss_mb": "this process through its first pass; it also holds the yardstick and its inputs",
    }
    if workload == "queries":
        for label, kinds in (("block_op_p50_ms", wl.BLOCK_KINDS), ("char_op_p50_ms", wl.CHAR_KINDS)):
            metrics[label] = statistics.median(t for t, op in zip(medians, ops) if op.kind in kinds) * 1000
    return metrics, checker, notes


def traced_op_workload(bb, workload: str, seed: int, seconds: float, ref: dict):
    ops, checker = prepare(bb, workload, seed, ref)
    sizes = [op.size for op in ops]
    plain, traced, layers, walls = [], [], [], []
    started = time.monotonic()
    while more_passes(started, walls, seconds):
        t0 = time.monotonic()
        latencies, results, errors = run_pass(bb, ops)
        plain.append(sum(latencies))
        checker.add_pass(range(len(ops)), results, errors)

        tracer = Tracer()
        tracer.install(bb)
        try:
            latencies, results, errors = run_pass(bb, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        checker.add_pass(range(len(ops)), results, errors)
        layers.append(tracer.layer_metrics(sizes))
        walls.append(time.monotonic() - t0)
    checker.cross_check()
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json.gz")
    metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, checker


# --- verify --------------------------------------------------------------------------


def verify_child(package: str = LIBRARY) -> tuple[float, float, int, str, float]:
    """One `python -m <package> verify` process.  Returns its CPU seconds,
    the wall seconds from its start to the last byte of its stdout, its exit
    code, its stdout, and its peak RSS in MB."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", package, *wl.VERIFY_ARGS],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    )
    out = proc.stdout.read()
    wall = time.monotonic() - started
    proc.stdout.close()
    # wait4 gives this child's own rusage; record the status on the Popen too
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, wall, proc.returncode, out, usage.ru_maxrss / 1024


class VerifyChecker:
    """One attempted op per verify run.  A run fails when it exits non-zero,
    prints no report, or prints one that differs from the reference apart
    from elapsed_ms (which includes every check passing)."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add_run(self, code: int, out: str) -> dict | None:
        self.attempted += 1
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = None
        if code != 0 or report is None:
            self.failed += 1
            self.failures.append(f"verify exited {code} with {'a' if report else 'no'} report")
            return None
        if wl.strip_elapsed(report) != self.reference:
            self.failed += 1
            self.failures.append("verify report differs from the reference")
        return report


def check_times(report: dict) -> dict[str, float]:
    return {c["name"]: c["elapsed_ms"] / 1000 for c in report["checks"]}


def yardstick_verify_seconds() -> float:
    """CPU seconds of one yardstick verify process; exits when it fails."""
    cpu, _, code, _, _ = verify_child(YARDSTICK)
    if code != 0:
        sys.exit(f"run.py: the yardstick's verify exited {code}")
    return cpu


def verify_workload(seconds: float, ref: dict):
    """Repeated verify processes, each next to a yardstick verify process
    that gives its host factor.  An op is one check of the matrix, timed by
    the report's elapsed_ms (the only per-check clock the CLI has); each
    check's latency is its median over the processes."""
    checker = VerifyChecker(ref["verify"])
    cpus, raw, walls, pairs, rss = [], [], [], [], []
    per_check = {name: [] for name in VERIFY_CHECKS}
    started = time.monotonic()
    while more_passes(started, pairs, seconds):
        t0 = time.monotonic()
        before = len(pairs) % 2 == 1
        yardstick = yardstick_verify_seconds() if before else 0.0
        cpu, wall, code, out, peak = verify_child()
        if not before:
            yardstick = yardstick_verify_seconds()
        pairs.append(time.monotonic() - t0)
        factor = yardstick / YARDSTICK_SECONDS["verify"]
        cpus.append(cpu / factor)
        raw.append(cpu)
        walls.append(wall)
        rss.append(peak)
        report = checker.add_run(code, out)
        if report is not None:
            for name, t in check_times(report).items():
                per_check[name].append(t / factor)
    medians = [statistics.median(ts) for ts in per_check.values() if ts] or [math.nan]
    p, value, beyond = tail(medians)
    metrics = {
        "wall_s": statistics.median(cpus),
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": statistics.median(medians) * 1000,
        "op_tail_ms": value * 1000,
        "peak_rss_mb": max(rss),
    }
    notes = {
        "wall_s": f"median of {len(cpus)} verify processes, start to exit, {statistics.median(raw):.3g} "
        f"CPU s before scaling; the median took {statistics.median(walls):.3g} s of wall clock to its last byte",
        "op_tail_ms": f"p{p:g}: {len(medians)} checks are too few for 10 beyond a percentile",
    }
    return metrics, checker, notes


def verify_in_process(bb, tracer=None, argv=wl.VERIFY_ARGS) -> tuple[float, str]:
    """cli.main on the verify arguments with stdout captured; returns CPU
    seconds and the printed report, empty on a non-zero exit.  The BFS cache
    starts empty, as in a fresh process."""
    import brauerblocks.cli

    bb.blocks._orbit_closure.cache_clear()
    buf = io.StringIO()
    if tracer is not None:
        tracer.op_id = 0
        tracer.install(bb)
        sid = tracer.open("verify.run")
    try:
        started = CLOCK()
        with contextlib.redirect_stdout(buf):
            code = brauerblocks.cli.main(list(argv))
        cpu = CLOCK() - started
    finally:
        if tracer is not None:
            tracer.close(sid)
            tracer.uninstall()
    return cpu, buf.getvalue() if code == 0 else ""


def traced_verify_workload(bb, seconds: float, ref: dict):
    checker = VerifyChecker(ref["verify"])
    overhead, per_check, plain, traced, layers = [], {n: [] for n in VERIFY_CHECKS}, [], [], []
    failed_checks = 0
    walls = []
    started = time.monotonic()
    while more_passes(started, walls, seconds):
        t0 = time.monotonic()
        _, wall, code, out, _ = verify_child()
        report = checker.add_run(code, out)
        if report is not None:
            times = check_times(report)
            overhead.append(wall - sum(times.values()))
            for name, t in times.items():
                per_check[name].append(t)
            failed_checks = sum(not c["passed"] for c in report["checks"])
        cpu, out = verify_in_process(bb)
        plain.append(cpu)
        checker.add_run(0 if out else 1, out)
        tracer = Tracer()
        cpu, out = verify_in_process(bb, tracer)
        traced.append(cpu)
        checker.add_run(0 if out else 1, out)
        layers.append(tracer.layer_metrics([]))
        walls.append(time.monotonic() - t0)
    tracer.write(OUT / "spans-verify.json.gz")
    metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    for name, ts in per_check.items():
        metrics[f"verify.{name}.elapsed_s"] = statistics.median(ts) if ts else 0.0
    metrics["verify.checks_failed"] = failed_checks
    metrics["cli.overhead_s"] = statistics.median(overhead) if overhead else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, checker


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order a traced run prints them."""
    names = list(Tracer().layer_metrics([]))
    names += [f"verify.{name}.elapsed_s" for name in VERIFY_CHECKS]
    names += ["verify.checks_failed", "cli.overhead_s", "trace.overhead_ratio"]
    return names


# --- reporting -----------------------------------------------------------------------


def emit(workload: str, seed: int, metrics: dict, checker, notes: dict, gated: list[str]) -> None:
    """Print every metric with its unit, then the result line with the gated ones."""
    print(f"workload {workload}  seed {seed}  closed loop, 1 client, 1 thread")
    units = {name: END_TO_END_UNITS.get(name) or unit_of(name) for name in metrics}
    units.update(block_op_p50_ms="ms", char_op_p50_ms="ms")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")
    fail_ratio = checker.failed / checker.attempted
    print(f"  {'fail_ratio':<48} {fail_ratio:>14.6g} 1  ({checker.failed} of {checker.attempted} ops failed)")
    for line in checker.failures:
        print(f"  FAILED {line}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in gated},
    }
    print(json.dumps(result), flush=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    bb = import_library()
    ref = load_reference()
    if trace:
        if workload == "verify":
            metrics, checker = traced_verify_workload(bb, seconds, ref)
        else:
            metrics, checker = traced_op_workload(bb, workload, seed, seconds, ref)
        names = per_layer_names()
        full = {name: metrics.get(name, 0) for name in names}
        emit(workload, seed, full, checker, {}, names)
        return 0
    setup, setup_raw = measure_setup(workload, seed)
    if workload == "verify":
        metrics, checker, notes = verify_workload(seconds, ref)
    else:
        metrics, checker, notes = op_workload(bb, workload, seed, seconds, ref)
    notes["setup_s"] = (f"median of {SETUP_PROBES} fresh interpreters, "
                        f"{statistics.median(setup_raw):.3g} CPU s before scaling")
    metrics = {"setup_s": statistics.median(setup), **metrics}
    emit(workload, seed, metrics, checker, notes, list(END_TO_END_UNITS))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, in turn; the last line combines them."""
    import_library()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    # one CPU for the whole run, children included, so that a run does not
    # move between vCPUs whose host cores carry different load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=(LIBRARY, YARDSTICK), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
