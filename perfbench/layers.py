"""Per-layer numbers, taken from outside the program.

Three sources, all public: Ray's task timeline (``ray.timeline()``)
for the pull executor's actor methods; ``Dataset.stats()`` and the
``ray.data`` log for the queries; and, for a single-process
``mode='local'`` crawl, wrappers around the program's public kernels
installed where their callers import them. Spans live in memory and
are folded into metrics when the benchmark ends.
"""

from __future__ import annotations

import logging
import re
import time
from collections import defaultdict


# -- Ray task timeline (pull executor) -------------------------------------

_WORKER = "CrawlWorkerStage."
_SHARD = "FrontierShardState."
_TAKE = ("take", "take_split", "take_with_counts")


def timeline_layers(events: list[dict], t0_us: float, t1_us: float,
                    workers: int) -> dict[str, float]:
    """Group the timeline's complete spans inside [t0, t1] by actor
    method: worker busy/idle, frontier time per method, per-shard skew
    and the object-transfer phases Ray records around every task."""
    busy = chunks = 0.0
    front: dict[str, float] = defaultdict(float)
    per_shard: dict[str, float] = defaultdict(float)
    calls = 0
    deser = store = 0.0
    for ev in events:
        if ev.get("ph") != "X" or not (t0_us <= ev["ts"] <= t1_us):
            continue
        cat, dur = ev.get("cat", ""), ev["dur"] / 1e6
        if cat == "task:deserialize_arguments":
            deser += dur
        elif cat == "task:store_outputs":
            store += dur
        elif cat == "task::" + _WORKER + "process_range":
            busy += dur
            chunks += 1
        elif cat.startswith("task::" + _SHARD):
            method = cat[len("task::" + _SHARD):]
            key = "take" if method in _TAKE else method
            front[key] += dur
            per_shard[ev.get("tid", "")] += dur
            calls += 1
    wall = (t1_us - t0_us) / 1e6
    loads = list(per_shard.values())
    return {
        "fetch.busy_s": busy,
        "fetch.idle_s": max(0.0, workers * wall - busy),
        "fetch.chunks": chunks,
        "ray.deserialize_s": deser,
        "ray.store_outputs_s": store,
        "frontier.take_s": front["take"],
        "frontier.offer_s": front["offer"],
        "frontier.requeue_s": front["requeue"],
        "frontier.flush_s": front["flush_epoch"],
        "frontier.calls": calls,
        "frontier.shard_skew": (
            max(loads) / (sum(loads) / len(loads)) if loads and sum(loads) else 0.0
        ),
    }


# -- kernel spans for the single-process crawl ------------------------------


class KernelSpans:
    """Wrap the crawl kernels at their call sites; record per-kernel
    time, calls and items, plus the time covered by outermost spans."""

    def __init__(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self._depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        orig = getattr(owner, attr)
        spans = self

        def wrapped(*args, **kwargs):
            spans._depth += 1
            t = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t
                spans._depth -= 1
            spans.time[name] += dt
            spans.items[name] += count(args, out)
            if spans._depth == 0:
                spans.covered += dt
            return out

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        import pyarrow.parquet as real_pq

        from raycrawl.stages import fetch
        from raycrawl.state import frontier, seenfilter

        one = lambda a, out: 1  # noqa: E731
        self._wrap(fetch, "extract_page", "extract", one)
        self._wrap(fetch, "visit", "visitor", one)
        self._wrap(fetch, "canonicalize_batch", "urlnorm",
                   lambda a, out: len(a[0]))
        self._wrap(fetch.TableFetcher, "lookup", "lookup",
                   lambda a, out: len(a[1]))
        self._wrap(fetch.TableFetcher, "bodies", "bodies",
                   lambda a, out: len(out))
        self._wrap(frontier.FrontierShardState, "offer", "offer",
                   lambda a, out: a[1].num_rows)
        self._wrap(frontier.FrontierShardState, "take", "take",
                   lambda a, out: out.num_rows)
        for cls in (seenfilter.ExactSeenFilter, seenfilter.BloomSeenFilter):
            self._wrap(cls, "add_if_absent", "seen", lambda a, out: len(a[1]))
        for mod, name in ((fetch, "sink_write"), (frontier, "parquet_write")):
            proxy = _ParquetProxy(real_pq)
            self._wrap(proxy, "write_table", name, one)
            self._undo.append((mod, "pq", mod.pq))
            mod.pq = proxy

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def per_item_us(self, name: str) -> float:
        n = self.items[name]
        return self.time[name] / n * 1e6 if n else 0.0


class _ParquetProxy:
    """``pyarrow.parquet`` as one module sees it, with ``write_table``
    replaceable without touching the real module."""

    def __init__(self, real) -> None:
        self._real = real
        self.write_table = real.write_table

    def __getattr__(self, name: str):
        return getattr(self._real, name)


# -- Ray Data: executions started and per-operator stats --------------------


class ExecutionCounter(logging.Handler):
    """Counts the ``Starting execution of Dataset`` records Ray Data
    logs, one per streaming execution; installing it also quiets Ray
    Data's console handler to warnings."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("Starting execution of Dataset"):
            self.count += 1

    def install(self) -> None:
        log = logging.getLogger("ray.data")
        for h in log.handlers:
            if isinstance(h, logging.StreamHandler) and not isinstance(
                    h, logging.FileHandler):
                h.setLevel(logging.WARNING)
        log.addHandler(self)


_OP = re.compile(r"^Operator \d+ (.+?): (.*?)in ([0-9.]+)s\s*$")
_SHUFFLE = ("Sort", "Aggregate", "Repartition", "Shuffle", "Zip", "Join")


def stats_times(stats: str) -> tuple[float, float]:
    """(shuffle seconds, map seconds) summed over the top-level
    operators of ``Dataset.stats()``; repeated (cached) lines count
    once."""
    shuffle = mapped = 0.0
    seen: set[str] = set()
    for line in stats.splitlines():
        m = _OP.match(line)
        if m is None or line in seen:
            continue
        seen.add(line)
        secs = float(m.group(3))
        if any(k in m.group(1) for k in _SHUFFLE):
            shuffle += secs
        else:
            mapped += secs
    return shuffle, mapped
