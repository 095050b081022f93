"""The continuous pull scheduler behind ``CrawlEngine.run`` under
``mode='ray'``: no epoch barrier. The driver keeps every fetch worker
~2 chunks deep with take waves from the frontier shards; takes,
dispatches, offers (flushed per batch by the workers), retries and
lineage flushes all overlap. A barriered Ray epoch loop (take →
process → drain → flush) was measured at ~40-60% worker utilization at
32 CPUs — the barrier tail plus per-epoch serial phases are Amdahl's-law
poison for the N→4N scaling criterion.

Priority is approximate global (each shard's take is exact
(depth, discovery_ts) order; waves interleave shards), which is the
documented production ordering (SURVEY §2.9 W7) — exact traversal
parity stays with the single-threaded local mode.

Politeness runs INSIDE the shards' take()
(FrontierShardState.configure_politeness): each take wave is one
logical window (``refill`` advances the clock by epoch_us per wave) and
each shard admits its rotating share of the global per-host allowance.
Every chunk is processed — and its documents stamped — at the clock of
the wave that admitted it, so no host exceeds its allowance in any one
window of ``processed_at``, with no driver barrier. Token pools (T7/T8)
gate worker-side; compute budgets (T6) charge in ``absorb`` and bench
hosts via the shards' set_benched.

Each loop phase is one method, and one timer around them (``_timed``)
keeps the driver's time budget. It leaves as ``driver.*`` rows of the
crawl's metrics table (``driver_rows`` reads them back):

- ``driver.{seed,start,refill,dispatch,wait,absorb,stall,checkpoint,
  final}_us``: µs the driver spent in each phase. Every phase except
  ``wait`` is driver work; ``wait`` is blocked-on-completion idle (the
  ``fetch_local`` transfer overlaps worker compute). ``start`` is the
  dispatcher bring-up and pid round trip; ``stall`` is everything done
  while the pipeline is empty (offer drain, counts poll, the re-poll
  take wave and the idle clock tick); ``checkpoint`` is the in-loop
  consistent cut every CHECKPOINT_CYCLES cycles; ``final`` is the
  close-out drain and flush.
- ``driver.waves`` (take waves opened), ``driver.chunks`` (chunks
  dispatched), ``driver.leases`` (dispatcher-tier RPCs; 0 when flat)
  and ``driver.sweeps`` (completion sweeps).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque

# Dispatch constants, each tuned once on the 32-CPU host:
# per-worker dispatch depth — each worker keeps DEPTH chunks in flight
# (double buffer) so a completed chunk never leaves the actor idle for
# a driver round trip; the 1-deep dispatch was measured as a ~1.7x
# per-worker utilization gap at 24 workers (completions arrive faster
# than the driver's turnaround).
DEPTH = 2
# a take wave requests at most fetch_batch_size x WAVE_CHUNKS x pool rows
WAVE_CHUNKS = 4
# a small wave is sliced finer so every free worker gets a piece, but
# never below min(CHUNK_FLOOR, fetch_batch_size) rows
CHUNK_FLOOR = 192
# a checkpoint (consistent cut + manifest) every this many cycles
CHECKPOINT_CYCLES = 16

PHASES = (
    "seed", "start", "refill", "dispatch", "wait", "absorb", "stall",
    "checkpoint", "final",
)
COUNTS = ("waves", "chunks", "leases", "sweeps")


def wave_cap(fetch_batch_size: int, pool: int) -> int:
    """Most rows one take wave may request. The politeness sync reads
    the same cap: an allowance at or above it can never defer a row."""
    return fetch_batch_size * WAVE_CHUNKS * max(1, pool)


def driver_rows(metrics) -> dict[str, int]:
    """The ``driver.*`` rows of a crawl's metrics table, by name
    without the prefix (``refill_us``, ``chunks``, ...)."""
    return {
        r["name"][len("driver."):]: r["value"]
        for r in metrics.to_pylist()
        if r["name"].startswith("driver.")
    }


def wait_some(refs: list) -> list:
    """Block for one completion, then sweep up everything else already
    finished — one driver pass per sweep."""
    import ray

    done, rest = ray.wait(refs, num_returns=1, fetch_local=True)
    if rest:
        extra, _ = ray.wait(
            rest, num_returns=len(rest), timeout=0, fetch_local=True
        )
        done += extra
    return done


class NodeDispatcher:
    """Per-node dispatch tier for the pull executor (BASELINE.md
    "dispatch ceiling" scale path #2). The driver sends one LEASE — a
    list of (table_ref, offset, size, clock_us) chunks, each stamped
    with the clock of the take wave that admitted it — per RPC; this
    actor fans the chunks out to its node-local worker group and
    returns their BatchStats records in one list, so the driver pays
    O(leases) instead of O(chunks). At the measured ~4 ms driver CPU
    per RPC and 8-16 workers per group, the single-driver ceiling
    moves from ~74 workers to the thousands.

    Concurrency model: created with max_concurrency > 1 so consecutive
    leases OVERLAP — each lease() call immediately queues its chunks
    onto the group's worker actors (Ray actors execute queued calls
    serially), so two in-flight leases reproduce the flat executor's
    per-worker double-buffer; each chunk goes to the group's worker
    with the fewest chunks outstanding across all leases. On a real
    cluster, one dispatcher is scheduled per node (placement-group or
    node-affinity) so worker results never leave the node before
    merging; a dispatcher death is a node-sized failure domain handled
    the way node loss is — checkpoint recovery via resume_crawl.
    """

    def __init__(self, workers: list, pin_cpus: tuple = ()) -> None:
        if pin_cpus:
            # share the reserved cores with the shards/driver: an
            # unpinned dispatcher competes with the compute-bound
            # workers for timeslices and its lease hops eat scheduling
            # latency (same rationale as the workers' reserve_cores)
            try:
                os.sched_setaffinity(0, set(pin_cpus))
            except (AttributeError, OSError):  # pragma: no cover
                pass
        self.workers = workers
        # per-worker in-flight chunk counts, shared across the
        # concurrent lease() threads: min-outstanding placement keeps
        # the group balanced when leases overlap (blind round-robin
        # measured ~5% slower at 10M pages — two leases landing chunks
        # on the same worker while a sibling idles)
        import threading

        self._out = [0] * len(workers)
        self._lock = threading.Lock()

    def ping(self) -> bool:
        return True

    def lease(self, chunks: list, cycle: int) -> list:
        import ray

        remaining: dict = {}
        for tref, off, size, clock_us in chunks:
            with self._lock:
                w = min(
                    range(len(self.workers)), key=self._out.__getitem__
                )
                self._out[w] += 1
            ref = self.workers[w].process_range.remote(
                tref, off, size, cycle, clock_us
            )
            remaining[ref] = w
        results = []
        while remaining:
            done = wait_some(list(remaining))
            with self._lock:
                for r in done:
                    self._out[remaining.pop(r)] -= 1
            results.extend(ray.get(done))
        return results


class PullScheduler:
    """One pull-executor run over an engine's shards and worker pool.
    ``engine.run`` builds one per run and calls ``run``; the scheduler
    owns its dispatcher actors and kills them when ``run`` returns or
    raises."""

    def __init__(self, engine, max_urls: int | None, start_cycle: int):
        cfg = engine.cfg
        self.engine = engine
        self.cfg = cfg
        self.max_urls = max_urls
        self.pool = engine.workers  # same list: a resize grows it
        self.epoch_us = int(cfg.epoch_seconds * 1e6)
        self.chunk = cfg.fetch_batch_size
        self.cycle = start_cycle
        self.clock_us = cfg.base_ts_us
        # dispatch tier (BASELINE.md scale path #2): group the workers
        # under NodeDispatcher actors and dispatch LEASES of ~group
        # chunks — one driver RPC per lease instead of per chunk. The
        # dispatcher's max_concurrency lets consecutive leases overlap,
        # reproducing the per-worker double-buffer one level up.
        self.dispatchers: list = []
        self.group = 1
        self.lease_n = 1
        self.depth_cap = DEPTH
        if cfg.node_dispatchers > 0:
            self.group = max(
                1, math.ceil(len(self.pool) / cfg.node_dispatchers)
            )
            # half-group leases at double slot depth: same in-flight
            # chunk budget (2 x group per dispatcher) but 2x finer
            # completion granularity — a lease frees its slot when its
            # SLOWEST chunk finishes, and the measured lease-tail idle
            # at full-group leases was ~12% of wall at 10M pages
            self.lease_n = max(1, math.ceil(self.group / 2))
            self.depth_cap = 2 * DEPTH
        self.outstanding: list[int] = []  # per dispatch target
        self.inflight: dict = {}  # ref -> (target, rows, (chunks, cycle))
        self.inflight_rows = 0
        # per work-queue group key: the dispatch targets it may go to
        self.eligible: list[list[int]] = []
        # (table_ref, offset, size, wave clock, group key)
        self.work_q: deque = deque()
        # Checked-drain state (the at-least-once offer contract's ack
        # point): offers are fire-and-forget and buffered across ranges
        # for throughput, so a worker death can lose children of ranges
        # whose results already surfaced — and Ray's transparent task
        # retry never replays a DELIVERED result. The driver therefore
        # keeps every returned dispatch descriptor in `unacked` until
        # the next drain wave proves (pid unchanged since the previous
        # wave) that one incarnation both ran the window and acked its
        # offers. On a pid mismatch the window replays side-effect-only
        # (shard insert-if-absent dedups re-offers; duplicate doc parts
        # collapse in the last-wins compaction; the replayed results
        # are DISCARDED so counters are not double-absorbed). Cost off
        # the failure path: holding take-table refs alive for one flush
        # interval (<= ~16 cycles of waves in plasma) and one dict/pid
        # compare per drain — the hot loop itself stays async.
        self.last_pids: list[int] = []
        self.unacked: dict[int, list] = {}
        self.last_flushed_cycle = -1
        self.processed = 0
        self.last_counts: list[dict[str, int]] | None = None
        self.pending_take: list | None = None  # in-flight (meta, table)
        self.take_clock = self.clock_us  # the clock pending_take was issued at
        self.starved = False  # last refill saw an empty frontier
        # counters at the last checkpoint: on_epoch hooks get deltas
        self.mark = dict(self._stats(), deferred=0)
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- driver loop -------------------------------------------------------

    def run(self, seeds: list[dict] | None) -> int:
        """Crawl to completion (or max_urls); returns the final cycle
        label, after appending the driver rows to the engine's metric
        rows."""
        import ray

        try:
            self._timed("seed", self.seed, seeds)
            self._timed("start", self._start)
            while True:
                if (
                    self.pending_take is None
                    and not self._capped()
                    and not self.starved
                    and len(self.work_q) < 2 * len(self.pool)
                ):
                    # T11/X5: pull-CYCLE boundary — live-config patches
                    # land here, as the local epoch loop applies them
                    # per epoch (patch_config already validated them,
                    # so this cannot abort the crawl); a landed patch
                    # re-syncs the shard-side politeness gate so rate
                    # changes bind from the next window
                    if self.engine._apply_config_patches():
                        self.engine._sync_politeness()
                    self._timed("refill", self.refill)
                    if self.cycle - self.last_flushed_cycle >= CHECKPOINT_CYCLES:
                        self._timed("checkpoint", self.checkpoint)
                if self.pending_take is not None:
                    self._timed("refill", self.land)
                self._timed("dispatch", self.dispatch)
                if self.inflight:
                    done = self._timed("wait", self.wait)
                    self._timed("absorb", self.absorb, done)
                elif not self._timed("stall", self.stall):
                    break
            self._timed("final", self.final)
        finally:
            for d in self.dispatchers:  # per-run; workers/shards outlive them
                try:
                    ray.kill(d, no_restart=True)
                except Exception:
                    pass
        self.engine._metrics_rows.extend(
            [
                {"epoch": self.cycle, "name": f"driver.{p}_us",
                 "value": round(s * 1e6)}
                for p, s in self.spent.items()
            ]
            + [
                {"epoch": self.cycle, "name": f"driver.{k}", "value": v}
                for k, v in self.counts.items()
            ]
        )
        return self.cycle

    def _timed(self, phase: str, method, *args):
        t = time.perf_counter()
        out = method(*args)
        self.spent[phase] += time.perf_counter() - t
        return out

    def _capped(self) -> bool:
        return self.max_urls is not None and self.processed >= self.max_urls

    def _stats(self) -> dict:
        return dict(self.engine._totals, taken=self.processed)

    # -- phases ------------------------------------------------------------

    def seed(self, seeds: list[dict] | None) -> None:
        engine = self.engine
        engine._trace(
            "crawl_start", executor="pull",
            seeds=len(seeds or []), start_cycle=self.cycle,
        )
        engine._apply_config_patches()  # patches queued before run()
        engine._sync_politeness()
        if seeds:
            engine._seed_parallel(seeds)

    def _start(self) -> None:
        """Bring up the dispatchers (tier only), record the workers'
        pids for the checked drain and, under alignment, pre-warm each
        worker's corpus shards."""
        import ray

        cfg = self.cfg
        pool = self.pool
        if cfg.node_dispatchers > 0:
            disp_cls = ray.remote(
                num_cpus=0, max_concurrency=self.depth_cap + 1
            )(NodeDispatcher)
            pin = tuple(range(cfg.reserve_cores))  # () when not reserving
            self.dispatchers = [
                disp_cls.remote(pool[i : i + self.group], pin_cpus=pin)
                for i in range(0, len(pool), self.group)
            ]
            ray.get([d.ping.remote() for d in self.dispatchers])
        self.outstanding = [0] * len(self.dispatchers or pool)
        self._set_eligible()
        handle = self.engine.corpus_handle
        if cfg.align_corpus_ranges and handle is not None:
            # warm each worker's range slice NOW (fire-and-forget,
            # drained with the other async RPCs): under alignment a
            # worker's corpus shards are known before the first row is
            # taken, so restores/mmaps overlap the seed ramp instead of
            # serializing into the first waves — the spill-pressure
            # cost measured in the 20M-page aligned run (BASELINE.md
            # hard-residency table).
            S, C = len(self.engine.shards), handle.num_shards
            for s in range(S):
                rng_ = (
                    list(range(s * (C // S), (s + 1) * (C // S)))
                    if C >= S
                    else [s * C // S]
                )
                self.engine._route_refs.extend(
                    pool[w].warm_corpus_shards.remote(rng_)
                    for w in self.eligible[s]
                )
        self.last_pids = ray.get([w.pid.remote() for w in pool])

    def _set_eligible(self) -> None:
        """Corpus-range affinity (align_corpus_ranges; the tier
        combination is rejected at construction): frontier shard s's
        chunks go only to its worker group, so each worker's
        ShardedTableFetcher touches exactly the corpus shards nested in
        s's hash range — max(1, C/S) of them, zero cold re-pulls
        (asserted with fetcher_stats in tests/test_corpus_align.py).
        Otherwise every chunk has one group key, 0, and every target is
        eligible."""
        if self.cfg.align_corpus_ranges:
            S, P = len(self.engine.shards), len(self.pool)
            self.eligible = [
                [w for w in range(P) if w % S == s] if P >= S else [s % P]
                for s in range(S)
            ]
        else:
            self.eligible = [list(range(len(self.outstanding)))]

    def refill(self) -> None:
        """Issue one take wave (fire-and-forget). The take RPC round
        trip is ~tens of ms — resolving it synchronously per refill was
        a measured driver bottleneck, so the refs resolve later
        (``land``) while workers keep crunching. take_split's two-part
        return keeps the wave's row data in plasma: the driver reads
        only the tiny meta objects and dispatches the table refs
        untouched."""
        shards = self.engine.shards
        self.counts["waves"] += 1
        self.take_clock = self.clock_us
        if self.last_counts is None:
            # async counts-only poll (empty quotas): a synchronous
            # counts round per starvation stutter was measurable
            quotas = [{} for _ in shards]
        else:
            pending = sum(sum(c.values()) for c in self.last_counts)
            queued = sum(item[2] for item in self.work_q)
            want = (
                wave_cap(self.chunk, len(self.pool))
                - queued
                - self.inflight_rows
            )
            quotas = None
            if pending and want > 0:
                quotas, _ = self.engine._quotas(self.last_counts, budget=want)
                if quotas is None:
                    quotas = [{} for _ in shards]
            else:
                self.last_counts = None  # force a fresh poll next round
                self.starved = True
        if quotas is not None:
            self.pending_take = [
                s.take_split.options(num_returns=2).remote(q, self.clock_us)
                for s, q in zip(shards, quotas)
            ]
        self.cycle += 1
        self.clock_us += self.epoch_us

    def land(self) -> int:
        """Resolve the in-flight take wave's META objects only — when
        the work queue is dry, else only if they are all ready — and
        enqueue its dispatch chunks. The row data stays in plasma; the
        driver never touches it. The wave's clock travels with each
        chunk: the shard gate admitted its rows for that window.
        Returns the rows taken."""
        import ray

        refs = self.pending_take
        metas = [m for m, _ in refs]
        if self.work_q:
            ready, _ = ray.wait(metas, num_returns=len(metas), timeout=0)
            if len(ready) < len(metas):
                return 0
        self.pending_take = None
        metas = ray.get(metas)
        self.last_counts = [m["counts"] for m in metas]
        wave = sum(m["num"] for m in metas)
        # adaptive slicing: a small wave (BFS ramp, crawl tail) is
        # split so every worker with spare depth gets a piece — a fixed
        # batch_size slice left 19 of 24 workers idle on the 20k-seed
        # first wave. Under the tier, capacity is counted in CHUNKS
        # (free lease slots x lease_n chunks per lease, capped at the
        # pool) — counting each non-full dispatcher as one lease
        # undercounted an idle pool ~2x and split the ramp wave across
        # only half the workers.
        cap = self.depth_cap
        if self.dispatchers:
            free = sum(
                self.lease_n * (cap - o) for o in self.outstanding if o < cap
            )
        else:
            free = sum(1 for o in self.outstanding if o < cap)
        free = min(len(self.pool), free)
        # A slice holds at most fetch_batch_size rows and, unless the
        # wave is smaller, at least min(CHUNK_FLOOR, fetch_batch_size).
        chunk = self.chunk
        eff_chunk = max(
            min(CHUNK_FLOOR, chunk),
            min(chunk, math.ceil(wave / max(1, free))),
        )
        aligned = self.cfg.align_corpus_ranges
        for sid, ((_, table_ref), m) in enumerate(zip(refs, metas)):
            n = m["num"]
            for off in range(0, n, eff_chunk):
                self.work_q.append(
                    (table_ref, off, min(eff_chunk, n - off),
                     self.take_clock, sid if aligned else 0)
                )
        self.processed += wave
        if wave == 0:
            self.starved = True
        return wave

    def dispatch(self) -> None:
        """Hand queued chunks to targets with spare depth: one chunk
        per worker RPC, or a lease of up to lease_n chunks per
        dispatcher RPC."""
        q = self.work_q
        while q:
            pick = self._pick()
            if pick is None:
                break
            qi, t = pick
            chunks = [q[qi][:4]]
            del q[qi]
            while q and len(chunks) < self.lease_n:
                chunks.append(q.popleft()[:4])
            rows = sum(c[2] for c in chunks)
            ref = self._send(t, chunks, self.cycle)
            self.inflight[ref] = (t, rows, (chunks, self.cycle))
            self.outstanding[t] += 1
            self.inflight_rows += rows
            self.counts["chunks"] += len(chunks)
            self.counts["leases"] += bool(self.dispatchers)

    def _pick(self) -> tuple[int, int] | None:
        """(queue index, target) of the first queued chunk whose group
        has a target with spare depth — the group's lowest-index
        least-loaded one. Scanning past a full group avoids head-of-line
        blocking under alignment; the refill trigger caps the queue at
        ~2x pool chunks, so the scan is tens of items."""
        out, cap = self.outstanding, self.depth_cap
        full: set[int] = set()
        for qi, item in enumerate(self.work_q):
            key = item[4]
            if key in full:
                continue
            t = min(self.eligible[key], key=out.__getitem__)
            if out[t] < cap:
                return qi, t
            full.add(key)
            if len(full) == len(self.eligible):
                break
        return None

    def _send(self, t: int, chunks: list, cycle: int):
        """The one dispatch RPC: a lease to dispatcher ``t`` under the
        tier, else the single chunk to worker ``t``."""
        if self.dispatchers:
            return self.dispatchers[t].lease.remote(chunks, cycle)
        ((tref, off, size, clock_us),) = chunks
        return self.pool[t].process_range.remote(
            tref, off, size, cycle, clock_us
        )

    def wait(self) -> list:
        done = wait_some(list(self.inflight))
        self._complete(done)
        self.counts["sweeps"] += 1
        return done

    def _complete(self, done: list) -> None:
        for r in done:
            t, rows, desc = self.inflight.pop(r)
            self.outstanding[t] -= 1
            self.inflight_rows -= rows
            self.unacked.setdefault(t, []).append(desc)

    def absorb(self, done: list) -> None:
        """Fold completed calls: one BatchStats per process_range, a
        list of them per tier lease."""
        import ray

        results = ray.get(done)
        self.starved = False  # completions flushed fresh offers to shards
        if self.dispatchers:
            results = [b for lease in results for b in lease]
        engine = self.engine
        if engine._absorb(results, self.clock_us)[1]:
            engine._push_benched(self.clock_us)

    def stall(self) -> bool:
        """Pipeline empty: drain the workers' offer buffers, re-poll
        the shards and open a wave synchronously; when every remaining
        row is deferred, advance the clock. False when the crawl is
        done."""
        engine = self.engine
        self._settle()
        self._drain_workers()
        self.last_counts = engine._call("counts")
        pending = sum(sum(c.values()) for c in self.last_counts)
        if pending == 0 or self._capped():
            return False
        self.starved = False
        self.refill()
        # the queue is dry here (an empty pipeline dispatches every
        # queued chunk), so land() blocks on the wave
        if self.pending_take is None or self.land() == 0:
            clock = engine._idle_clock(self.clock_us)
            if clock is None:
                return False
            self.clock_us = clock
            self.starved = False
        return True

    def final(self) -> None:
        self._settle()
        self.checkpoint()  # drains inflight + workers itself
        self.engine._record_stats(self.cycle, self._stats())

    # -- checkpoint --------------------------------------------------------

    def checkpoint(self) -> None:
        """Checkpoint = a CONSISTENT cut, so resume_crawl's
        suspect-window rule ('doc dirs > manifest last_epoch may have
        unflushed children') is airtight:

        1. generation barrier — absorb every in-flight process_range
           (their doc files carry cycle labels <= the manifest we are
           about to write);
        2. drain the workers' async offer RPCs (a completed batch's
           children can otherwise still be in flight to the shards and
           land in the NEXT spool);
        3. flush the shards' admitted spools, THEN advance the manifest
           (WAL order — a manifest ahead of its spools made a SIGKILL
           in that window lose frontier rows, measured);
        4. bump the cycle label so every post-checkpoint batch writes
           doc dirs STRICTLY above the manifest.

        A pending pool resize applies between steps 2 and 3, and the
        on_epoch hooks run last.

        Cost: one pipeline drain per flush interval (16 cycles) — the
        bounded-depth pipeline (<= pool x DEPTH chunks) drains in one
        wave, unlike the per-cycle epoch barrier this executor exists
        to avoid."""
        import ray

        engine = self.engine
        if self.inflight:
            done, _ = ray.wait(
                list(self.inflight), num_returns=len(self.inflight),
                fetch_local=True,
            )
            self._complete(done)
            self.absorb(done)
        self._drain_workers()
        self._resize_pool()
        refs = [s.flush_epoch.remote(self.cycle) for s in engine.shards]
        self.last_flushed_cycle = label = self.cycle
        lineage = ray.get(refs)
        engine._ingest_lineage(lineage, label)
        engine._write_manifest(label, completed=False)
        self.cycle += 1
        # config heartbeat: a worker that RESTARTED since the last flush
        # re-ran __init__ with its constructor-time config, silently
        # reverting live-patched deltas; re-pushing the current value
        # every flush bounds that revert window to one flush interval
        # (idempotent, fire-and-forget)
        engine._route_refs.extend(
            w.set_track_host_cost.remote(engine.compute_budget is not None)
            for w in self.pool
        )
        self._report(label, lineage)

    def _report(self, label: int, lineage: list[dict]) -> None:
        now = dict(
            self._stats(),
            deferred=sum(rec["metrics"].get("defer", 0) for rec in lineage),
        )
        stats = {k: v - self.mark[k] for k, v in now.items()}
        stats["pending"] = sum(sum(rec["counts"].values()) for rec in lineage)
        self.mark.update(now)
        for cb in self.engine._epoch_callbacks:
            cb(self.engine, label, stats)

    def _settle(self) -> None:
        """Wait out the fire-and-forget routing RPCs (seed chunks,
        bench pushes, corpus warms, config heartbeats)."""
        import ray

        refs = self.engine._route_refs
        if refs:
            ray.get(refs)
            refs.clear()

    def _drain_workers(self) -> None:
        """Ack every worker's buffered offers; replay the unacked
        dispatch windows of any target whose worker restarted since the
        last drain (see ``unacked``)."""
        import ray

        engine = self.engine
        pool = self.pool
        for _ in range(self.cfg.worker_max_restarts + 2):
            infos = ray.get([w.drain_info.remote() for w in pool])
            engine._totals["admitted"] += sum(i["admits"] for i in infos)
            pids = [i["pid"] for i in infos]
            hit = {
                widx // self.group
                for widx in range(len(pool))
                if pids[widx] != self.last_pids[widx]
            }
            self.last_pids = pids
            if not hit:
                self.unacked.clear()
                return
            engine._trace("worker_restart", workers=sorted(hit),
                          executor="pull")
            replay = [
                self._send(t, chunks, cycle)
                for t in hit
                for chunks, cycle in self.unacked.pop(t, ())
            ]
            ray.get(replay)  # results discarded: absorbed once already
            # loop: ack the replay's own offers and re-verify pids
        engine._trace("abort", reason="offer-drain worker restart loop")
        engine._write_trace()
        raise RuntimeError(
            "fetch workers kept restarting during offer drain; "
            "aborting — resume from the last checkpoint"
        )

    def _resize_pool(self) -> None:
        """Apply a live /fetcher/concurrency patch (recorded by the
        engine's _on_fetcher_change). Runs inside the checkpoint, after
        _drain_workers(): nothing is in flight and every offer is acked,
        so workers join or leave outside any replay window. The tier
        rejects the patch (patch_config)."""
        import ray

        engine = self.engine
        pool = self.pool
        want, have = engine._pool_target, len(pool)
        if want == have:
            return
        if want > have:
            new = [engine._spawn_worker(wi) for wi in range(have, want)]
            self.last_pids.extend(ray.get([w.pid.remote() for w in new]))
            pool.extend(new)
            self.outstanding.extend([0] * (want - have))
        else:
            self._settle()  # before their actors die
            for w in pool[want:]:
                ray.kill(w, no_restart=True)
            del pool[want:], self.last_pids[want:], self.outstanding[want:]
        self._set_eligible()
        engine._sync_politeness()  # its cap scales with the pool
