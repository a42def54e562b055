"""Timing wrappers around the public functions of each brauerblocks module.

A :class:`Tracer` rebinds every name a brauerblocks module imported for a
wrapped function (``brauerblocks.blocks.same_orbit``, the package's own
``brauerblocks.same_block`` and so on), patches ``Partition.transpose``,
``Partition.contents`` and ``FactoredRational.__mul__`` on their classes,
and puts everything back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
changes.  Spans (name, start, end, parent span, op id) are kept in memory as
parallel arrays; a layer's self time is its span's duration minus the time
its child spans cover.  Per-entry helpers such as ``ChargedSequence.entry``
and ``twice`` are not wrapped: the wrapper would cost more than the work.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

CLOCK = time.process_time  # CPU seconds of this process; see run.py


def _count_parts_out(counts, args, result):
    counts["partitions.transpose.parts_out"] += len(result.parts)


def _count_items(counts, args, result):
    counts["partitions.enumerate.items"] += len(result)


def _count_window(counts, args, result):
    counts["sequences.window_entries"] += args[0].length


def _count_windows(counts, args, result):
    counts["sequences.window_entries"] += args[0].length + args[1].length


def _count_entries(counts, args, result):
    counts["sequences.window_entries"] += len(args[1])


def _count_members(counts, args, result):
    counts["blocks.enumerate.members"] += len(result)


def _count_merge(counts, args, result):
    counts["central.factor_merges"] += 1
    counts["central.factor_terms"] += len(args[0].factors) + len(args[1].factors)


# (module, attribute, span name or None for a counter without a span, counter)
WRAPPED = (
    ("partitions", "Partition.transpose", "partitions.transpose", _count_parts_out),
    ("partitions", "Partition.contents", "partitions.contents", None),
    ("partitions", "enumerate_partitions", "partitions.enumerate", None),
    ("partitions", "partitions_of_size", "partitions.enumerate", _count_items),
    ("sequences", "orbit_key", "sequences.orbit_key", _count_window),
    ("sequences", "same_orbit", "sequences.same_orbit", _count_windows),
    ("sequences", "shape_from_entries", "sequences.shape_from_entries", _count_entries),
    ("blocks", "same_block", "blocks.same_block", None),
    ("blocks", "block_key", "blocks.block_key", None),
    ("blocks", "classify_weight_class", "blocks.classify", None),
    ("blocks", "enumerate_block_members", "blocks.enumerate", _count_members),
    ("blocks", "brauer_algebra_blocks", "blocks.brauer_blocks", None),
    ("weights", "weight_alpha_part", "weights.alpha_part", None),
    ("weights", "reduce_mod_qtheta", "weights.reduce", None),
    ("central", "central_character", "central.character", None),
    ("central", "check_reflection_product", "central.series", None),
    ("central", "check_admissible", "central.series", None),
    ("central", "FactoredRational.__mul__", None, _count_merge),
    ("wedge", "apply_b", "wedge.apply_b", None),
)
BFS_SPAN = "blocks.bfs"

SIZE_BUCKETS = ((10**1.5, "s10"), (10**2.5, "s100"), (10**3.5, "s1k"), (float("inf"), "s10k"))
SIZE_SPLIT = {
    "partitions.transpose": "partitions.transpose.self_s",
    "sequences.orbit_key": "sequences.self_s",
    "sequences.same_orbit": "sequences.self_s",
    "central.character": "central.character.self_s",
}


def size_bucket(size: int) -> str:
    """Box-count decade, rounded in log scale: s10 holds sizes below 10**1.5."""
    return next(name for limit, name in SIZE_BUCKETS if size < limit)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # --- spans -------------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(CLOCK())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = CLOCK()
        self.stack.pop()

    def _wrap(self, name: str | None, fn, count):
        counts = self.counts
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result

            return counted
        nid = self._name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack,
        )
        clock = CLOCK

        def timed(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return timed

    def _wrap_bfs(self, closure):
        """The BFS oracle's closure is an lru_cache; a miss is a call that
        added to the cache's miss count, and its result size is the number of
        orbit vectors visited."""
        timed = self._wrap(BFS_SPAN, closure, None)
        counts = self.counts

        def bfs(start):
            misses = closure.cache_info().misses
            result = timed(start)
            counts["blocks.bfs.calls"] += 1
            if closure.cache_info().misses > misses:
                counts["blocks.bfs.orbit_vectors"] += len(result)
            else:
                counts["blocks.bfs.hits"] += 1
            return result

        return bfs

    # --- installation ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "brauerblocks" and not mod_name.startswith("brauerblocks."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, bb) -> None:
        """Wrap every function in WRAPPED and the BFS closure."""
        import brauerblocks.cli  # noqa: F401  (so its imported names are rebound too)
        import brauerblocks.verify  # noqa: F401

        for mod_name, attr, name, count in WRAPPED:
            module = sys.modules[f"brauerblocks.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._wrap(name, original, count))
        closure = bb.blocks._orbit_closure
        self._rebind(closure, self._wrap_bfs(closure))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # --- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.name)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - child[s] for s in range(len(self.name))]

    def layer_metrics(self, op_sizes: list[int]) -> dict[str, float]:
        """Calls and self time per span name, the ratios and counters, and
        the size split of the ops' box counts."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        split: dict[str, float] = defaultdict(float)
        in_enumerate = 0
        enumerate_id = self.names.index("blocks.enumerate") if "blocks.enumerate" in self.names else -2
        for sid, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            busy[name] += self_s[sid]
            if name in SIZE_SPLIT and self.op[sid] >= 0 and op_sizes:
                split[f"{SIZE_SPLIT[name]}.{size_bucket(op_sizes[self.op[sid]])}"] += self_s[sid]
            if name == "blocks.same_block" and self.parent[sid] >= 0:
                in_enumerate += self.name[self.parent[sid]] == enumerate_id
        c = self.counts
        out = {
            "partitions.transpose.calls": calls["partitions.transpose"],
            "partitions.transpose.self_s": busy["partitions.transpose"],
            "partitions.transpose.parts_out": c["partitions.transpose.parts_out"],
            "partitions.contents.self_s": busy["partitions.contents"],
            "partitions.enumerate.self_s": busy["partitions.enumerate"],
            "partitions.enumerate.items": c["partitions.enumerate.items"],
            "sequences.orbit_key.calls": calls["sequences.orbit_key"],
            "sequences.orbit_key.self_s": busy["sequences.orbit_key"],
            "sequences.same_orbit.calls": calls["sequences.same_orbit"],
            "sequences.same_orbit.self_s": busy["sequences.same_orbit"],
            "sequences.shape_from_entries.self_s": busy["sequences.shape_from_entries"],
            "sequences.window_entries": c["sequences.window_entries"],
            "blocks.same_block.calls": calls["blocks.same_block"],
            "blocks.same_block.self_s": busy["blocks.same_block"],
            "blocks.block_key.self_s": busy["blocks.block_key"],
            "blocks.classify.self_s": busy["blocks.classify"],
            "blocks.enumerate.self_s": busy["blocks.enumerate"],
            "blocks.enumerate.hit_ratio": c["blocks.enumerate.members"] / in_enumerate if in_enumerate else 0.0,
            "blocks.brauer_blocks.self_s": busy["blocks.brauer_blocks"],
            "blocks.bfs.calls": c["blocks.bfs.calls"],
            "blocks.bfs.self_s": busy[BFS_SPAN],
            "blocks.bfs.orbit_vectors": c["blocks.bfs.orbit_vectors"],
            "blocks.bfs.cache_hit_ratio": c["blocks.bfs.hits"] / c["blocks.bfs.calls"] if c["blocks.bfs.calls"] else 0.0,
            "weights.alpha_part.calls": calls["weights.alpha_part"],
            "weights.alpha_part.self_s": busy["weights.alpha_part"],
            "weights.reduce.calls": calls["weights.reduce"],
            "weights.reduce.self_s": busy["weights.reduce"],
            "central.character.calls": calls["central.character"],
            "central.character.self_s": busy["central.character"],
            "central.factor_merges": c["central.factor_merges"],
            "central.factor_terms": c["central.factor_terms"],
            "central.series.self_s": busy["central.series"],
            "wedge.apply_b.calls": calls["wedge.apply_b"],
            "wedge.apply_b.self_s": busy["wedge.apply_b"],
        }
        for metric in dict.fromkeys(SIZE_SPLIT.values()):
            for _, bucket in SIZE_BUCKETS:
                out[f"{metric}.{bucket}"] = split[f"{metric}.{bucket}"]
        return out

    def write(self, path) -> None:
        """All spans of this tracer as gzipped JSON, one row per span."""
        rows = [
            [self.name[s], self.start[s], self.end[s], self.parent[s], self.op[s]]
            for s in range(len(self.name))
        ]
        payload = {"names": self.names, "columns": ["name", "start", "end", "parent", "op"], "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
