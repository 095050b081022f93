"""Deduplication kernels: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Per-batch vectorized kernels (numpy) designed for the mergeable-sketch
pattern: compute signatures inside ``map_batches``, then group only the
tiny signature tables — never shuffle the documents themselves.

All hashing is derived from blake2b with fixed seeds — deterministic
across processes and runs (no PYTHONHASHSEED dependence).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE = np.uint64((1 << 61) - 1)


def _stable_hash64(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


def shingles(text: str, k: int = 5) -> set[int]:
    """Word k-shingles -> stable 64-bit hashes."""
    words = text.split()
    if len(words) < k:
        return {_stable_hash64(" ".join(words))} if words else set()
    return {
        _stable_hash64(" ".join(words[i : i + k]))
        for i in range(len(words) - k + 1)
    }


# positional odd multipliers + avalanche for shingle_codes (fmix64-ish)
_SHINGLE_MULTS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD,
     0xC4CEB9FE1A85EC53, 0x94D049BB133111EB],
    dtype=np.uint64,
)


def shingle_codes(
    text: str, k: int = 5, cache: dict | None = None
) -> np.ndarray:
    """Vectorized `shingles()`: sorted unique uint64 codes of the word
    k-shingles. Each UNIQUE word is blake2b-hashed once (cached across
    batches when a ``cache`` dict is supplied — vocabulary converges,
    so a persistent actor pays blake2b only on first sight), and the k
    word hashes of a shingle combine positionally (odd-multiplier mix
    + xorshift avalanche) in one numpy pass over the document. Set
    cardinality — and therefore MinHash/Jaccard behavior — matches
    `shingles()` up to ~2^-64 collisions; the VALUES differ (different
    hash family), so signatures from the two kernels must not be
    mixed. Replaces a per-shingle join+blake2b Python loop."""
    assert k <= len(_SHINGLE_MULTS)
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    if len(words) < k:
        return np.array([_stable_hash64(" ".join(words))], dtype=np.uint64)
    if cache is None:
        h = np.fromiter(
            (_stable_hash64(w) for w in words), np.uint64, len(words)
        )
    else:
        if len(cache) > 4_000_000:  # bound actor memory on open vocab
            cache.clear()
        h = np.fromiter(
            (
                cache[w] if w in cache
                else cache.setdefault(w, _stable_hash64(w))
                for w in words
            ),
            np.uint64,
            len(words),
        )
    n = len(words) - k + 1
    with np.errstate(over="ignore"):
        acc = h[:n] * _SHINGLE_MULTS[0]
        for j in range(1, k):
            acc = acc ^ (h[j : n + j] * _SHINGLE_MULTS[j])
        acc ^= acc >> np.uint64(33)
        acc = acc * np.uint64(0xFF51AFD7ED558CCD)
        acc ^= acc >> np.uint64(29)
    return np.unique(acc)


def shingle_codes_md5(
    text: str, k: int = 3, cache: dict | None = None
) -> np.ndarray:
    """Word k-shingle codes in the md5-lower-64 hash family: each
    shingle is the space-joined k-word string, hashed as the low 8
    digest bytes little-endian — exactly `md5_number_lower(s)` in
    DuckDB, which is what makes the MinHash-LSH pipeline
    oracle-checkable end-to-end. Tokens are WORD_REGEX words (the
    explicit whitespace class, same as the SQL tokenizer). Unlike
    `shingle_codes` the result is NOT deduplicated — min-over-multiset
    equals min-over-set, so MinHash signatures are unaffected and the
    SQL needs no DISTINCT. Optional shingle-string ``cache``
    (persistent-actor pattern)."""
    from .textstats import WORD_REGEX

    words = WORD_REGEX.findall(text)
    if not words:
        return np.empty(0, dtype=np.uint64)
    if len(words) < k:
        return np.array([_md5_low64(" ".join(words))], dtype=np.uint64)
    n = len(words) - k + 1
    if cache is None:
        return np.fromiter(
            (_md5_low64(" ".join(words[i : i + k])) for i in range(n)),
            dtype=np.uint64,
            count=n,
        )
    if len(cache) > 4_000_000:  # bound actor memory on open vocab
        cache.clear()
    get, setd = cache.get, cache.setdefault

    def code(i: int) -> int:
        s = " ".join(words[i : i + k])
        v = get(s)
        return v if v is not None else setd(s, _md5_low64(s))

    return np.fromiter((code(i) for i in range(n)), dtype=np.uint64, count=n)


def char_trigram_codes(text: str) -> np.ndarray:
    """Sorted unique uint64 codes of the char 3-grams of ``text`` —
    the vectorized equivalent of ``char_ngrams(text, 3)``: each
    trigram maps BIJECTIVELY to (c0 << 42) | (c1 << 21) | c2 (Unicode
    code points < 2^21), so set cardinalities — and therefore exact
    Jaccard values — are identical, with no per-substring Python.
    UTF-32 decode + three shifted views replace the substring loop."""
    if len(text) < 3:
        if not text:
            return np.empty(0, dtype=np.uint64)
        return np.array([_stable_hash64(text)], dtype=np.uint64)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    tri = (
        (codes[:-2].astype(np.uint64) << np.uint64(42))
        | (codes[1:-1].astype(np.uint64) << np.uint64(21))
        | codes[2:].astype(np.uint64)
    )
    return np.unique(tri)


def char_ngrams(text: str, n: int = 3) -> set[int]:
    if len(text) < n:
        return {_stable_hash64(text)} if text else set()
    return {_stable_hash64(text[i : i + n]) for i in range(len(text) - n + 1)}


class MinHasher:
    """num_perms universal-hash permutations h_i(x) = (a_i x + b_i) mod p.

    Seeded; build once per actor (``__init__`` of a map_batches class),
    reuse per batch.
    """

    def __init__(self, num_perms: int = 128, seed: int = 7) -> None:
        rng = np.random.default_rng(seed)
        self.num_perms = num_perms
        self.a = rng.integers(1, int(_MERSENNE), num_perms, dtype=np.uint64)
        self.b = rng.integers(0, int(_MERSENNE), num_perms, dtype=np.uint64)

    def signature(self, hashed_shingles) -> np.ndarray:
        """Accepts a set of ints (`shingles()`) or a uint64 ndarray
        (`shingle_codes()`)."""
        if isinstance(hashed_shingles, np.ndarray):
            if hashed_shingles.size == 0:
                return np.full(self.num_perms, np.iinfo(np.uint64).max,
                               dtype=np.uint64)
            x = hashed_shingles.astype(np.uint64, copy=False)
        elif not hashed_shingles:
            return np.full(self.num_perms, np.iinfo(np.uint64).max,
                           dtype=np.uint64)
        else:
            x = np.fromiter(hashed_shingles, dtype=np.uint64,
                            count=len(hashed_shingles))
        # multiply-shift universal hashing in uint64 (wraparound mod
        # 2^64 with odd multipliers) — vectorized, no Python ints
        with np.errstate(over="ignore"):
            prod = x[None, :] * (self.a[:, None] | np.uint64(1)) + self.b[:, None]
        return prod.min(axis=1)


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


def jaccard(a: set[int], b: set[int]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _md5_low64(token: str) -> int:
    """Lower 64 bits of md5 (little-endian) — the SimHash word-hash
    family. Chosen over blake2b so the DuckDB oracle can mirror it
    exactly (`md5_number_lower`); equally deterministic/uniform."""
    return int.from_bytes(
        hashlib.md5(token.encode("utf-8")).digest()[8:16], "little"
    )


def simhash64(text: str, cache: dict | None = None) -> int:
    """64-bit SimHash over word tokens (unit weights), vectorized.
    Words are runs of non-whitespace over the EXPLICIT class
    [ \\t\\n\\r\\f\\v] (textstats.WORD_REGEX) so the SQL oracle's
    `regexp_extract_all` tokenizes identically; word hashes are
    md5-lower-64 (`md5_number_lower` in DuckDB). Optional word-hash
    ``cache`` (persistent-actor pattern): md5 runs once per word the
    caller ever sees."""
    from .textstats import WORD_REGEX

    words = WORD_REGEX.findall(text)
    if not words:
        return 0
    if cache is None:
        hashes = np.fromiter((_md5_low64(w) for w in words),
                             dtype=np.uint64, count=len(words))
    else:
        if len(cache) > 4_000_000:  # bound memory on open vocabulary
            cache.clear()
        hashes = np.fromiter(
            (
                cache[w] if w in cache
                else cache.setdefault(w, _md5_low64(w))
                for w in words
            ),
            dtype=np.uint64,
            count=len(words),
        )
    bits = (hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1
    acc = np.where(bits.astype(bool), 1, -1).sum(axis=0)
    out = int(
        np.bitwise_or.reduce(
            (acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
        )
    )
    return out & 0x7FFF_FFFF_FFFF_FFFF  # keep in int64 range
