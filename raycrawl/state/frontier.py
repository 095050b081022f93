"""Sharded frontier state: URL-seen dedup + priority queues per shard.

Each shard owns `hash(url_hash) % num_shards` of the key space and
serializes every dedup decision for its keys (the lock-free rebuild of
the reference's redlock-guarded tracker,
/root/reference/providers/queuing/redisRequestTracker.js:72-93, whose
concurrency contract — two simultaneous pushes of the same key admit
exactly one — is property-tested in
/root/reference/test/unit/requestTrackerTests.js:359-387).

A shard holds, per queue class (events/immediate/soon/normal/later —
/root/reference/lib/crawlerFactory.js:573-580):
- pending rows as **Arrow tables** with an arrival-sequence column;
  ``take`` is a vectorized eligibility filter + sort by
  ``(depth, discovery_ts, seq)`` (north-star priority order; FIFO
  within a BFS level). No per-row Python in the hot path — an earlier
  heapq-of-tuples implementation made the shard pool the serial
  bottleneck of the whole crawl.
- the insert-if-absent seen filter (see seenfilter.py),
- an admitted-rows spool flushed to Parquet per epoch (the lineage that
  makes resume reproduce the identical URL-seen set — the rebuild of
  the delta store, /root/reference/providers/storage/deltaStore.js:26-31).

Scale note (10^10 frontier): pending tables are columnar and compact
(~150 B/row); beyond memory a deployment would spill the coldest
(queue, depth) runs to Parquet and reload as the frontier drains — the
spool layout already supports it. The Bloom seen filter at 1e9 keys
per shard ≈ 1.2 GB (fpr 1e-3), so 64 shards cover 10^10 URLs.

The plain class is fully testable without Ray; ``create_shards`` wraps
it with ``ray.remote``. Tables cross the actor boundary as Arrow IPC
buffers (``raycrawl/wire.py``): ``offer``, ``requeue`` and
``mark_seen`` accept one in place of a table or column, and
``take_split`` returns one. ``__init__`` ends with ``wire.warm()``, so
a shard finishes pyarrow's lazy pandas import before the engine's
start-up barrier returns, not in its first offer.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import wire
from ..schemas import FRONTIER_SCHEMA, QUEUES
from .seenfilter import digest_matrix, make_seen_filter

_SORT_KEYS = [
    ("depth", "ascending"),
    ("discovery_ts", "ascending"),
    ("seq", "ascending"),
]


class FrontierShardState:
    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        seen_kind: str = "exact",
        seen_capacity: int = 1_000_000,
        seen_fpr: float = 1e-3,
        state_dir: str | None = None,
        snapshot_id: str = "s0",
        pending_cap: int | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.snapshot_id = snapshot_id
        self.state_dir = state_dir
        self.seen = make_seen_filter(seen_kind, seen_capacity, seen_fpr)
        self._pending: dict[str, list[pa.Table]] = {q: [] for q in QUEUES}
        self._arrival = 0
        self._epoch_admitted: list[pa.Table] = []
        self.metrics = {
            "push": 0, "bounce": 0, "repush": 0, "take": 0,
            "spilled": 0, "unspilled": 0,
        }
        # -- spill (the 10^10-frontier memory bound) -----------------------
        # When in-memory pending exceeds `pending_cap`, the COLDEST rows
        # by the global priority order (depth, discovery_ts, seq) spill
        # to Parquet under state_dir/spill/shard_<id>/ and reload
        # hottest-file-first as the frontier drains. Set semantics are
        # exact (identical seen set / documents — asserted by the spill
        # crawl test); global ordering is preserved because take()
        # unspills whenever the hottest spill file outranks any
        # in-memory row of the queue (_spill_hotter_than_memory), in
        # addition to when eligible in-memory rows can't cover the
        # quota.
        self.pending_cap = pending_cap
        self._spill_seq = 0
        # [(hotness key, path, per-queue counts, min_not_before)]
        self._spill_files: list[tuple[tuple, str, dict[str, int], int]] = []
        self._spilled_counts: dict[str, int] = {q: 0 for q in QUEUES}
        # -- politeness gate -----------------------------------------------
        # Both executors gate per-host politeness and T6 benching INSIDE
        # each shard's take (see configure_politeness / set_benched), so
        # no driver pass is needed and the window semantics stay exact.
        self._pol: dict | None = None
        self._pol_window = -1
        self._pol_used: dict[str, int] = {}
        self._benched: dict[str, int] = {}  # host -> bench_until_us (T6)
        self.metrics["defer"] = 0
        # -- conditional-fetch etag index (incremental re-crawl) -----------
        # This shard's slice of the prior run's (url_hash -> etag) map,
        # hash-sharded exactly like the seen filter, so per-shard memory
        # is docs/num_shards — the partitioning a multi-node cluster
        # would use; nothing is broadcast. offer() stamps payload_etag
        # on admitted rows found here and the fetch stage 304s bodies
        # whose etag is unchanged.
        self._etag_hashes: np.ndarray | None = None  # sorted S20
        self._etag_values: np.ndarray | None = None  # aligned etags
        wire.warm()

    # -- ingest ------------------------------------------------------------

    def _append(self, table: pa.Table) -> int:
        """Stamp arrival sequence (FIFO tiebreak) and append to the
        per-queue pending RUNS — all vectorized.

        Run invariant (the log-structured frontier): every table in
        ``self._pending[q]`` is individually sorted by
        (depth, discovery_ts, seq). Incoming batches are usually
        already in that order (one BFS wave, equal depth/ts, ascending
        seq) — detected with one vectorized pass — else sorted once at
        append (B log B on the small batch). ``take`` then pops the
        global head by merging only the run HEADS (O(q log q)), never
        re-sorting the whole pending set: the earlier sort-per-take
        design made the shard pool the crawl's bottleneck at high
        take rates."""
        n = table.num_rows
        if n == 0:
            return 0
        seq = pa.array(
            np.arange(self._arrival, self._arrival + n, dtype=np.int64)
        )
        self._arrival += n
        stamped = table.append_column("seq", seq)
        queues = stamped.column("queue")
        uniq = pc.unique(queues).to_pylist()
        subs = (
            [(uniq[0], stamped)]
            if len(uniq) == 1
            else [
                (q, stamped.filter(pc.equal(queues, q))) for q in uniq
            ]
        )
        for q, sub in subs:
            if not self._is_run_sorted(sub):
                sub = sub.take(pc.sort_indices(sub, sort_keys=_SORT_KEYS))
            runs = self._pending.setdefault(q, [])
            runs.append(sub)
            if len(runs) > 24:  # amortized compaction
                merged = pa.concat_tables(runs).combine_chunks()
                merged = merged.take(
                    pc.sort_indices(merged, sort_keys=_SORT_KEYS)
                )
                self._pending[q] = [merged]
        return n

    @staticmethod
    def _is_run_sorted(t: pa.Table) -> bool:
        if t.num_rows <= 1:
            return True
        d = t.column("depth").to_numpy(zero_copy_only=False)
        ts = t.column("discovery_ts").to_numpy(zero_copy_only=False)
        sq = t.column("seq").to_numpy(zero_copy_only=False)
        ok = (d[1:] > d[:-1]) | (
            (d[1:] == d[:-1])
            & (
                (ts[1:] > ts[:-1])
                | ((ts[1:] == ts[:-1]) & (sq[1:] >= sq[:-1]))
            )
        )
        return bool(ok.all())

    def offer(self, table: pa.Table | pa.Buffer) -> int:
        """Dedup-admit candidate rows (insert-if-absent on url_hash);
        admitted rows enter the pending set and the epoch spool.
        Returns the number admitted; the rest are 'bounced'
        (reference queueOutcome='Bounced',
        providers/queuing/redisRequestTracker.js:27). Ray callers send
        the rows as ``wire.dump(table)``."""
        if isinstance(table, pa.Buffer):
            table = wire.load(table)
        digests = table.column("url_hash")
        mask = self.seen.add_if_absent(digests)
        admitted = int(mask.sum())
        self.metrics["push"] += admitted
        self.metrics["bounce"] += len(digests) - admitted
        if admitted:
            atable = table.filter(pa.array(mask))
            if self._etag_hashes is not None:
                atable = self._stamp_etags(atable)
            self._epoch_admitted.append(atable)
            self._append(atable)
            self._maybe_spill()
        return admitted

    def load_etag_index(
        self, hashes: list[bytes], etags: list[str]
    ) -> None:
        """Install this shard's conditional-fetch slice (see the field
        comment in __init__): sorted url_hash keys + aligned etags for
        one vectorized searchsorted probe per offered batch."""
        if not hashes:
            return
        h = np.asarray(hashes, dtype="S20")
        order = np.argsort(h)
        self._etag_hashes = h[order]
        self._etag_values = np.asarray(etags, dtype=object)[order]

    def _stamp_etags(self, t: pa.Table) -> pa.Table:
        """Set payload_etag on admitted rows whose url_hash has a prior
        etag; rows already carrying an etag (event payloads) keep it."""
        h = digest_matrix(t.column("url_hash")).view("S20").ravel()
        pos = np.searchsorted(self._etag_hashes, h)
        pos = np.minimum(pos, len(self._etag_hashes) - 1)
        hit = self._etag_hashes[pos] == h
        if not hit.any():
            return t
        cur = np.asarray(t.column("payload_etag").to_pylist(), dtype=object)
        has = np.fromiter(
            (bool(c) for c in cur), dtype=bool, count=len(cur)
        )
        hit &= ~has
        if not hit.any():
            return t
        cur[hit] = self._etag_values[pos[hit]]
        i = t.schema.get_field_index("payload_etag")
        return t.set_column(
            i, "payload_etag", pa.array(cur.tolist(), pa.string())
        )

    def requeue(self, table: pa.Table | pa.Buffer) -> int:
        """Re-enqueue rows WITHOUT dedup (retries after failure, deferred
        rows): the reference's abandon→redelivery with attemptCount++
        (providers/queuing/amqpQueue.js:134-144). Ray callers send the
        rows as ``wire.dump(table)``."""
        if isinstance(table, pa.Buffer):
            table = wire.load(table)
        n = self._append(table)
        self.metrics["repush"] += n
        self._maybe_spill()
        return n

    # -- spill -------------------------------------------------------------

    def _mem_total(self) -> int:
        return sum(t.num_rows for ts in self._pending.values() for t in ts)

    def _maybe_spill(self) -> None:
        cap = self.pending_cap
        if cap is None or self.state_dir is None:
            return
        total = self._mem_total()
        if total <= cap:
            return
        merged = pa.concat_tables(
            [t for ts in self._pending.values() for t in ts]
        ).combine_chunks()
        order = pc.sort_indices(merged, sort_keys=_SORT_KEYS)
        keep_n = cap // 2  # hysteresis: spill down to half the cap
        hot = merged.take(order.slice(0, keep_n))
        cold = merged.take(order.slice(keep_n))
        self._pending = {q: [] for q in QUEUES}
        queues = hot.column("queue")
        for q in pc.unique(queues).to_pylist():
            self._pending.setdefault(q, []).append(
                hot.filter(pc.equal(queues, q))
            )
        spill_dir = os.path.join(
            self.state_dir, "spill", f"shard_{self.shard_id}"
        )
        os.makedirs(spill_dir, exist_ok=True)
        path = os.path.join(spill_dir, f"spill-{self._spill_seq:06d}.parquet")
        self._spill_seq += 1
        pq.write_table(cold, path + ".tmp")
        os.replace(path + ".tmp", path)
        ccounts: dict[str, int] = {}
        cq = cold.column("queue")
        for q in pc.unique(cq).to_pylist():
            ccounts[q] = int(pc.sum(pc.equal(cq, q)).as_py())
            self._spilled_counts[q] = (
                self._spilled_counts.get(q, 0) + ccounts[q]
            )
        hotness = (
            int(cold.column("depth")[0].as_py()),
            int(cold.column("discovery_ts")[0].as_py()),
        )
        min_nb = int(pc.min(cold.column("not_before")).as_py())
        self._spill_files.append((hotness, path, ccounts, min_nb))
        self._spill_files.sort(key=lambda f: f[0])
        self.metrics["spilled"] += cold.num_rows

    def _spill_hotter_than_memory(self, queue: str) -> bool:
        """True when the hottest spill file holding rows of `queue`
        outranks (or ties) some in-memory row of that queue by the
        global (depth, discovery_ts) priority — i.e. skipping the
        unspill could pop a colder in-memory row ahead of a hotter
        spilled one. Conservative (file hotness is its hottest row,
        memory key is the coldest run tail), so it can only over-
        unspill, never break ordering. O(runs) scalar reads."""
        spill_key = None
        for hotness, _, ccounts, _ in self._spill_files:
            if ccounts.get(queue, 0) > 0:
                spill_key = hotness
                break
        if spill_key is None:
            return False
        mem_max = None
        for t in self._pending.get(queue, []):
            if t.num_rows == 0:
                continue
            k = (
                int(t.column("depth")[t.num_rows - 1].as_py()),
                int(t.column("discovery_ts")[t.num_rows - 1].as_py()),
            )
            if mem_max is None or k > mem_max:
                mem_max = k
        return mem_max is not None and spill_key <= mem_max

    def _unspill(self, queue: str, want: int) -> None:
        """Reload hottest spill files until `queue` has `want` rows in
        memory (or the spill is empty). Also keeps reloading while a
        spill file is hotter than some in-memory row, so take() never
        pops a colder in-memory row ahead of a hotter spilled one —
        this upholds the exact global (depth, discovery_ts, seq)
        ordering, not just set semantics."""
        while self._spilled_counts.get(queue, 0) > 0:
            have = sum(t.num_rows for t in self._pending.get(queue, []))
            if have >= want and not self._spill_hotter_than_memory(queue):
                return
            # hottest file containing rows of this queue
            idx = next(
                i
                for i, f in enumerate(self._spill_files)
                if f[2].get(queue, 0) > 0
            )
            _, path, ccounts, _ = self._spill_files.pop(idx)
            table = pq.read_table(path)
            os.remove(path)
            queues = table.column("queue")
            for q in pc.unique(queues).to_pylist():
                sub = table.filter(pc.equal(queues, q))
                self._pending.setdefault(q, []).append(sub)
            for q, n in ccounts.items():
                self._spilled_counts[q] = self._spilled_counts.get(q, 0) - n
            self.metrics["unspilled"] += table.num_rows

    def drop_queue(self, queue: str) -> int:
        """D4 flush (routes/queues.js:11-17): clear one queue class's
        pending runs AND its spilled rows entirely shard-side, returning
        only the dropped-row count — no frontier row ever crosses to the
        driver (the previous take()-based flush materialized every
        pending row through one process; at a 10^10-row frontier that is
        terabytes of driver traffic to delete data)."""
        dropped = sum(t.num_rows for t in self._pending.get(queue, []))
        self._pending[queue] = []
        spilled = self._spilled_counts.get(queue, 0)
        if spilled:
            keep: list[tuple[tuple, str, dict[str, int], int]] = []
            for hotness, path, ccounts, min_nb in self._spill_files:
                n_q = ccounts.get(queue, 0)
                if not n_q:
                    keep.append((hotness, path, ccounts, min_nb))
                    continue
                if sum(ccounts.values()) == n_q:
                    os.remove(path)
                    continue
                table = pq.read_table(path)
                rest = table.filter(
                    pc.not_equal(table.column("queue"), queue)
                )
                pq.write_table(rest, path + ".tmp")
                os.replace(path + ".tmp", path)
                keep.append(
                    (
                        (
                            int(rest.column("depth")[0].as_py()),
                            int(rest.column("discovery_ts")[0].as_py()),
                        ),
                        path,
                        {q: n for q, n in ccounts.items() if q != queue},
                        int(pc.min(rest.column("not_before")).as_py()),
                    )
                )
            keep.sort(key=lambda f: f[0])
            self._spill_files = keep
            self._spilled_counts[queue] = 0
            dropped += spilled
        return dropped

    def mark_seen(self, digests: pa.ChunkedArray | pa.Buffer) -> int:
        """Resume replay: record keys as seen without enqueueing. Ray
        callers send ``wire.dump`` of a one-column ``url_hash`` table."""
        if isinstance(digests, pa.Buffer):
            digests = wire.load(digests).column("url_hash")
        mask = self.seen.add_if_absent(digests)
        return int(mask.sum())

    # -- politeness ---------------------------------------------------------

    def configure_politeness(
        self,
        *,
        epoch_us: int,
        allowance: int | None,
        overrides: dict[str, int] | None = None,
    ) -> None:
        """Enable the shard-side per-host window gate: at most
        share(allowance) rows per host per ``epoch_us`` logical window
        leave this shard; overflow rows defer in place (not_before =
        next window start). ``allowance``/``overrides`` are GLOBAL
        per-window per-host budgets (overrides: robots crawl-delay
        hosts); each shard takes its deterministic share (see _share),
        so the S shards admit AT MOST the global allowance per window.
        The engine takes once per window in both executors (one local
        epoch, one pull take wave). Frontier rows hash-shard by url_hash,
        so a host's rows spread ~uniformly over shards and each
        shard's share is actually consumable. ``allowance=None``
        disables the gate (the unbounded headline config keeps the
        gate-free take fast path)."""
        if allowance is None:
            self._pol = None
        else:
            self._pol = {
                "epoch_us": int(epoch_us),
                "allow": int(allowance),
                "over": dict(overrides or {}),
            }
        self._pol_window = -1
        self._pol_used = {}

    def set_benched(self, benched: dict[str, int]) -> None:
        """T6 compute-limiter benching, pushed by the engine: rows of a
        benched host defer until its bench_until timestamp."""
        self._benched = dict(benched)

    def _share(self, allowance: int, window: int) -> int:
        """This shard's slice of a global per-window allowance:
        floor(A/S) everywhere plus one residual unit ROTATED by window
        ((shard_id + window) % S < A % S) — aggregate over shards is
        exactly A every window, and when A < S the rotation guarantees
        every shard admits the host within S windows (a fixed residual
        assignment would starve rows stuck on zero-share shards)."""
        s = self.num_shards
        return allowance // s + (
            1 if (self.shard_id + window) % s < allowance % s else 0
        )

    def _politeness_gate(self, taken: pa.Table, now_us: int) -> pa.Table:
        """Admit at most share(allowance(host)) rows per host this
        window (and zero for benched hosts); defer the rest in place.
        Vectorized: per-host ordinals via one argsort, allowances via
        one pass over the UNIQUE hosts of the batch."""
        pol = self._pol
        if pol is not None:
            epoch_us = pol["epoch_us"]
            w = now_us // epoch_us
            if w != self._pol_window:
                self._pol_window = w
                self._pol_used = {}
        else:
            epoch_us, w = 0, 0
        hosts = np.asarray(taken.column("url_host").to_pylist(), dtype=object)
        n = len(hosts)
        uniq, inv = np.unique(hosts, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        sorted_inv = inv[order]
        run_start = np.r_[0, np.flatnonzero(np.diff(sorted_inv)) + 1]
        run_ord = np.arange(n) - np.repeat(
            run_start, np.diff(np.r_[run_start, n])
        )
        ordinal = np.empty(n, dtype=np.int64)
        ordinal[order] = run_ord
        allow = np.empty(len(uniq), dtype=np.int64)
        used = np.zeros(len(uniq), dtype=np.int64)
        until = np.zeros(len(uniq), dtype=np.int64)
        big = np.iinfo(np.int64).max // 2
        for j, h in enumerate(uniq):
            hs = str(h)
            b = self._benched.get(hs, 0)
            if b > now_us:
                allow[j], until[j] = 0, b
            elif pol is None:
                allow[j] = big
            else:
                allow[j] = self._share(pol["over"].get(hs, pol["allow"]), w)
            used[j] = self._pol_used.get(hs, 0)
        admit = (ordinal + used[inv]) < allow[inv]
        n_admit = np.bincount(inv[admit], minlength=len(uniq))
        for j in np.flatnonzero(n_admit):
            self._pol_used[str(uniq[j])] = int(used[j] + n_admit[j])
        if admit.all():
            return taken
        defer_mask = ~admit
        deferred = taken.filter(pa.array(defer_mask))
        nb_host = np.where(
            until > 0, until, (w + 1) * epoch_us if pol is not None else 0
        )
        nb = nb_host[inv][defer_mask]
        deferred = deferred.select(FRONTIER_SCHEMA.names).set_column(
            FRONTIER_SCHEMA.names.index("not_before"),
            "not_before",
            pa.array(nb, pa.int64()),
        )
        self._append(deferred)  # re-stamped seq, like any requeue
        self.metrics["defer"] += deferred.num_rows
        return taken.filter(pa.array(admit))

    # -- scheduling --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            q: sum(t.num_rows for t in ts) + self._spilled_counts.get(q, 0)
            for q, ts in self._pending.items()
        }

    def min_not_before(self) -> int | None:
        """Smallest not_before among pending rows (drives idle clock
        advance, the reference's pollingDelay analogue)."""
        best = None
        for tables in self._pending.values():
            for t in tables:
                if t.num_rows == 0:
                    continue
                m = pc.min(t.column("not_before")).as_py()
                if m is not None and (best is None or m < best):
                    best = m
        for _, _, _, min_nb in self._spill_files:
            if best is None or min_nb < best:
                best = min_nb
        return best

    def take(
        self, quotas: dict[str, int], now_us: int, gate: bool = True
    ) -> pa.Table:
        """Pop up to quotas[q] eligible rows (not_before <= now) per
        queue in priority order (depth, discovery_ts, seq); ineligible
        rows are retained. Exact top-q via the run invariant: the
        global head lies within the per-run quota-length head prefixes,
        so only O(runs x quota) key rows are merged per take — the
        whole pending set is never re-sorted. The slow exact path runs
        only when some pending row is deferred into the future.
        ``gate=False`` skips the politeness gate: operator takes
        (api.peek/pop) read the queue as stored, like the reference's
        routes/requests.js, and must not spend or defer a crawl
        window's allowance. In-process only: remote callers take
        through ``take_split``."""
        out: list[pa.Table] = []
        for queue, quota in quotas.items():
            if quota <= 0:
                continue
            if self._spilled_counts.get(queue, 0) > 0:
                # reload until the quota is coverable by ELIGIBLE rows
                # (in-memory rows can be deferred while spilled ones are
                # eligible) or the spill is empty
                want = quota
                while True:
                    self._unspill(queue, want)
                    runs = self._pending.get(queue, [])
                    total = sum(t.num_rows for t in runs)
                    if total == 0:
                        break
                    n_elig = sum(
                        int(
                            pc.sum(
                                pc.less_equal(
                                    t.column("not_before"), now_us
                                )
                            ).as_py()
                            or 0
                        )
                        for t in runs
                    )
                    if (
                        n_elig >= quota
                        or self._spilled_counts.get(queue, 0) <= 0
                    ):
                        break
                    want = total + quota
            runs = self._pending.get(queue, [])
            if not runs or sum(t.num_rows for t in runs) == 0:
                continue
            all_eligible = all(
                (pc.max(t.column("not_before")).as_py() or 0) <= now_us
                for t in runs
            )
            taken = (
                self._take_fast(queue, quota)
                if all_eligible
                else self._take_exact(queue, quota, now_us)
            )
            if taken.num_rows and gate and (
                self._pol is not None or self._benched
            ):
                taken = self._politeness_gate(taken, now_us)
            if taken.num_rows:
                out.append(taken)
        if not out:
            return FRONTIER_SCHEMA.empty_table()
        result = pa.concat_tables(out).select(FRONTIER_SCHEMA.names)
        self.metrics["take"] += result.num_rows
        return result

    def _take_fast(self, queue: str, quota: int) -> pa.Table:
        """Pop the exact global top-`quota` when every row is eligible:
        merge only the run heads (numpy lexsort over <= runs x quota
        key rows), then slice each run — O(1) per run, no full sort."""
        runs = self._pending[queue]
        if len(runs) == 1:
            t = runs[0]
            k = min(quota, t.num_rows)
            self._pending[queue] = [t.slice(k)] if k < t.num_rows else []
            return t.slice(0, k)
        ds, tss, sqs, rids = [], [], [], []
        for ri, t in enumerate(runs):
            h = min(quota, t.num_rows)
            head = t.slice(0, h)
            ds.append(head.column("depth").to_numpy(zero_copy_only=False))
            tss.append(
                head.column("discovery_ts").to_numpy(zero_copy_only=False)
            )
            sqs.append(head.column("seq").to_numpy(zero_copy_only=False))
            rids.append(np.full(h, ri, dtype=np.int64))
        rid = np.concatenate(rids)
        order = np.lexsort(
            (np.concatenate(sqs), np.concatenate(tss), np.concatenate(ds))
        )[:quota]
        cnt = np.bincount(rid[order], minlength=len(runs))
        parts: list[pa.Table] = []
        rest: list[pa.Table] = []
        for t, c in zip(runs, cnt):
            c = int(c)
            if c:
                parts.append(t.slice(0, c))
            if c < t.num_rows:
                rest.append(t.slice(c))
        self._pending[queue] = rest
        taken = parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        if len(parts) > 1:  # restore exact global order of the result
            taken = taken.take(
                pc.sort_indices(taken, sort_keys=_SORT_KEYS)
            )
        return taken

    def _take_exact(
        self, queue: str, quota: int, now_us: int
    ) -> pa.Table:
        """Eligibility-aware path (some rows deferred): merge, filter,
        full sort — and store the remainder back as ONE sorted run."""
        runs = self._pending[queue]
        tbl = runs[0] if len(runs) == 1 else pa.concat_tables(runs)
        elig_mask = pc.less_equal(tbl.column("not_before"), now_us)
        n_elig = int(pc.sum(elig_mask).as_py() or 0)
        if n_elig == 0:
            return FRONTIER_SCHEMA.empty_table()
        elig = tbl.filter(elig_mask)
        inelig = tbl.filter(pc.invert(elig_mask))
        order = pc.sort_indices(elig, sort_keys=_SORT_KEYS)
        k = min(quota, n_elig)
        taken = elig.take(order.slice(0, k))
        rest = elig.take(order.slice(k))
        keep = (
            pa.concat_tables([rest, inelig]) if inelig.num_rows else rest
        )
        if inelig.num_rows and keep.num_rows > 1:
            keep = keep.take(pc.sort_indices(keep, sort_keys=_SORT_KEYS))
        self._pending[queue] = [keep] if keep.num_rows else []
        return taken

    def take_split(
        self, quotas: dict[str, int], now_us: int, gate: bool = True
    ) -> tuple[dict[str, Any], pa.Buffer]:
        """take() plus post-take pending counts in ONE round trip, as a
        (meta, ``wire.dump(table)``) pair for
        ``.options(num_returns=2)``: the pull executor's refill path (a
        separate counts() RPC round per refill was a measured driver
        bottleneck). The driver reads ONLY the tiny meta object (row
        count + pending counts) and hands the buffer's ObjectRef
        straight to the fetch workers, which ``wire.load`` it —
        deserializing each take wave (tens of MB at full width) on the
        driver was a measured scaling bottleneck at 32 CPUs."""
        t = (
            self.take(quotas, now_us, gate)
            if quotas
            else FRONTIER_SCHEMA.empty_table()
        )
        return {"num": t.num_rows, "counts": self.counts()}, wire.dump(t)

    # -- epoch lifecycle / lineage ----------------------------------------

    def flush_epoch(self, epoch: int) -> dict[str, Any]:
        """Persist this epoch's admitted rows to the lineage spool and
        return a lineage record (+ piggybacked pending counts so the
        engine skips a counts() round-trip per epoch)."""
        admitted = 0
        if self._epoch_admitted and self.state_dir:
            table = pa.concat_tables(self._epoch_admitted)
            admitted = table.num_rows
            out_dir = os.path.join(self.state_dir, "admitted", f"epoch={epoch}")
            os.makedirs(out_dir, exist_ok=True)
            tmp = os.path.join(out_dir, f".shard_{self.shard_id}.parquet.tmp")
            pq.write_table(table, tmp)
            os.replace(
                tmp, os.path.join(out_dir, f"shard_{self.shard_id}.parquet")
            )
        elif self._epoch_admitted:
            admitted = sum(t.num_rows for t in self._epoch_admitted)
        self._epoch_admitted = []
        return {
            "frontier_epoch": epoch,
            "shard_id": self.shard_id,
            "filter_snapshot_id": self.snapshot_id,
            "admitted": admitted,
            "metrics": dict(self.metrics),
            "counts": self.counts(),
        }

    def seen_count(self) -> int:
        return len(self.seen)

    def seen_digest(self) -> str:
        return self.seen.digest()

    def pending_total(self) -> int:
        return self._mem_total() + sum(self._spilled_counts.values())


def create_shards(
    num_shards: int,
    *,
    seen_kind: str = "exact",
    seen_capacity: int = 1_000_000,
    seen_fpr: float = 1e-3,
    state_dir: str | None = None,
    snapshot_id: str = "s0",
    pending_cap: int | None = None,
):
    """Spawn the shard actor pool (num_cpus=0 — shards are bookkeeping
    actors that must coexist with the fetch/extract worker pool)."""
    import ray

    cls = ray.remote(num_cpus=0)(FrontierShardState)
    return [
        cls.remote(
            i,
            num_shards,
            seen_kind=seen_kind,
            seen_capacity=seen_capacity,
            seen_fpr=seen_fpr,
            state_dir=state_dir,
            snapshot_id=snapshot_id,
            pending_cap=pending_cap,
        )
        for i in range(num_shards)
    ]
