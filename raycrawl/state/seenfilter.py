"""URL-seen filters: insert-if-absent over 20-byte SHA-1 digests.

Reimplements the semantics of the reference's RedisRequestTracker
(/root/reference/providers/queuing/redisRequestTracker.js:17-53: SET NX
— suppress a push while the same key is present) without distributed
locks: each filter instance is owned by exactly one FrontierShard actor,
so all inserts for a given url_hash are serialized by actor ownership
(the rebuild's answer to the tracker's redlock,
redisRequestTracker.js:72-93).

Two implementations:

- ``ExactSeenFilter`` — a Python set of digests. Exact; used for tests
  and small crawls; memory ~70 B/key.
- ``BloomSeenFilter`` — a numpy bit-array Bloom filter deriving its k
  probe indexes from the SHA-1 digest itself (no extra hashing).
  ~1.2 GB per shard at 10^9 keys/shard with fpr 1e-3 ⇒ a 64-shard pool
  covers a 10^10-URL frontier within actor memory (north rule scale).
  False positives drop a URL that was never crawled (documented,
  rate-bounded); false negatives never occur, so the seen-set is a
  superset-free overapproximation compatible with resume replay.

Both take the digests as Arrow's ``binary(20)`` column itself (a
table's ``url_hash``, plain, sliced or chunked) or as a list of bytes.
``digest_matrix`` views an array's values buffer as an (n, 20) uint8
matrix without building a Python object per row; the Bloom filter
stays columnar from there (one ``np.unique`` for in-batch duplicates,
vectorized probes), and the exact filter makes one ``bytes`` per row
for its set.

Deviation from the reference, documented per SURVEY §7.4(2): the
tracker's 1 h TTL + removal-on-pop exists to allow re-crawling; this
engine is insert-only per crawl run, with re-crawls starting a new
filter snapshot (``filter_snapshot_id`` in lineage).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

# what a filter accepts: a ``binary(20)`` array (plain, sliced or
# chunked, e.g. a table's ``url_hash`` column) or a list of 20-byte
# digests
Digests = pa.Array | pa.ChunkedArray | list[bytes]


def digest_matrix(digests: Digests) -> np.ndarray:
    """(n, 20) uint8 rows of ``digests``. A ``binary(20)`` array is
    viewed in place (its values buffer from the array's offset, no
    copy); a chunked array copies once into one matrix, and a list of
    bytes is joined."""
    if isinstance(digests, pa.ChunkedArray):
        if digests.num_chunks == 1:
            return digest_matrix(digests.chunk(0))
        return np.concatenate(
            [digest_matrix(c) for c in digests.chunks]
            or [np.empty((0, 20), dtype=np.uint8)]
        )
    if isinstance(digests, pa.Array):
        n = len(digests)
        if n == 0:
            return np.empty((0, 20), dtype=np.uint8)
        raw = np.frombuffer(digests.buffers()[1], dtype=np.uint8)
        start = digests.offset * 20
        return raw[start : start + n * 20].reshape(n, 20)
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 20)


def _keys(raw: np.ndarray) -> np.ndarray:
    """One opaque 20-byte value per row: hashable, sortable and
    comparable as a whole digest."""
    return raw.view("V20").reshape(-1)


class ExactSeenFilter:
    kind = "exact"

    def __init__(self) -> None:
        self._seen: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def add_if_absent(self, digests: Digests) -> np.ndarray:
        """Insert each digest; return bool mask of newly-inserted (first
        occurrence within the batch wins, duplicates report False)."""
        seen = self._seen
        keys = _keys(digest_matrix(digests)).tolist()
        out = np.empty(len(keys), dtype=bool)
        for i, d in enumerate(keys):
            if d in seen:
                out[i] = False
            else:
                seen.add(d)
                out[i] = True
        return out

    def contains(self, digests: Digests) -> np.ndarray:
        seen = self._seen
        keys = _keys(digest_matrix(digests)).tolist()
        return np.fromiter((d in seen for d in keys), dtype=bool,
                           count=len(keys))

    def digest(self) -> str:
        """Order-insensitive SHA-1 over the member set (resume parity)."""
        h = hashlib.sha1()
        for d in sorted(self._seen):
            h.update(d)
        return h.hexdigest()


class BloomSeenFilter:
    kind = "bloom"

    def __init__(self, capacity: int = 1_000_000, fpr: float = 1e-3) -> None:
        m = max(64, int(-capacity * math.log(fpr) / (math.log(2) ** 2)))
        self.num_bits = (m + 63) // 64 * 64
        self.k = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = np.zeros(self.num_bits // 8, dtype=np.uint8)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _probes(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(byte index, bit mask) of each row's k probes, both (n, k):
        bit h1 + i*h2 mod m over the digest's own 128 leading bits
        (Kirsch–Mitzenmacher double hashing)."""
        h1 = raw[:, :8].copy().view(np.uint64).reshape(-1)
        h2 = raw[:, 8:16].copy().view(np.uint64).reshape(-1) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)
        idx = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(
            self.num_bits
        )
        byte_idx = (idx >> np.uint64(3)).astype(np.int64)
        bit_mask = np.left_shift(
            np.uint8(1), (idx & np.uint64(7)).astype(np.uint8)
        )
        return byte_idx, bit_mask

    def add_if_absent(self, digests: Digests) -> np.ndarray:
        """Insert each digest; True marks the first occurrence in the
        batch of a digest the filter did not already hold. Membership
        is tested against the bits as they were before the batch, so
        the result does not depend on the order of distinct digests."""
        raw = digest_matrix(digests)
        _, first = np.unique(_keys(raw), return_index=True)
        byte_idx, bit_mask = self._probes(raw[first])
        new = ~((self._bits[byte_idx] & bit_mask) != 0).all(axis=1)
        if new.any():
            np.bitwise_or.at(
                self._bits, byte_idx[new].reshape(-1),
                bit_mask[new].reshape(-1),
            )
            self._count += int(new.sum())
        out = np.zeros(len(raw), dtype=bool)
        out[first[new]] = True
        return out

    def contains(self, digests: Digests) -> np.ndarray:
        byte_idx, bit_mask = self._probes(digest_matrix(digests))
        return ((self._bits[byte_idx] & bit_mask) != 0).all(axis=1)

    def digest(self) -> str:
        return hashlib.sha1(self._bits.tobytes()).hexdigest()


def make_seen_filter(kind: str, capacity: int = 1_000_000, fpr: float = 1e-3):
    if kind == "exact":
        return ExactSeenFilter()
    if kind == "bloom":
        return BloomSeenFilter(capacity=capacity, fpr=fpr)
    raise ValueError(f"unknown seen-filter kind: {kind!r}")
