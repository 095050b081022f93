"""Text analysis kernels for large-scale training-data pipelines.

Vectorized (numpy / compiled-regex) per-batch functions intended to run
inside ``map_batches``: token counting, language-ID heuristic, quality
scoring, document fingerprinting. All deterministic and seedless.

The token regex is deliberately ASCII-explicit so the DuckDB oracle
(`regexp_extract_all`) tokenizes byte-identically.
"""

from __future__ import annotations

import re

import numpy as np

# BPE-ish word/punct tokenizer — keep in sync with TOKEN_REGEX_SQL.
# Whitespace is the EXPLICIT class [ \t\n\r\f\v] in BOTH engines:
# Python's \s also matches \x0b + unicode spaces while DuckDB/RE2's \s
# is [ \t\n\f\r] only, so a bare \s diverges on vertical-tab/unicode-
# space inputs (ADVICE r1).
TOKEN_REGEX = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_ \t\n\r\f\v]")
TOKEN_REGEX_SQL = "[A-Za-z0-9_]+|[^A-Za-z0-9_ \\t\\n\\r\\f\\v]"

PUNCT_REGEX = re.compile(r"[^A-Za-z0-9 \t\n\r\f\v]")
PUNCT_REGEX_SQL = "[^A-Za-z0-9 \\t\\n\\r\\f\\v]"

# "word" for quality scoring: run of non-whitespace, same explicit class
# (str.split() would split on unicode whitespace; RE2 \S+ misses \v)
WORD_REGEX = re.compile(r"[^ \t\n\r\f\v]+")
WORD_REGEX_SQL = "[^ \\t\\n\\r\\f\\v]+"

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "dans"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "de", "en", "que"},
}


def token_counts_batch(texts) -> np.ndarray:
    findall = TOKEN_REGEX.findall
    return np.fromiter((len(findall(t)) for t in texts), dtype=np.int64,
                       count=len(texts))


def punct_counts_batch(texts) -> np.ndarray:
    findall = PUNCT_REGEX.findall
    return np.fromiter((len(findall(t)) for t in texts), dtype=np.int64,
                       count=len(texts))


def langid(text: str) -> str:
    """N-gram-free stopword-ratio language heuristic: highest stopword
    hit-rate wins; ties broken by fixed language order; no hits -> 'und'."""
    words = text.lower().split()
    if not words:
        return "und"
    best_lang, best_hits = "und", 0
    for lang in ("en", "de", "fr", "es"):  # fixed order = deterministic ties
        hits = sum(1 for w in words if w in _STOPWORDS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


_LANGID_ORDER = ("en", "de", "fr", "es")
# word -> per-language membership bitmask (stopword lists overlap:
# 'de'/'la'/'es'/... belong to several languages)
_STOP_MASK: dict[str, int] = {}
for _i, _lang in enumerate(_LANGID_ORDER):
    for _w in _STOPWORDS[_lang]:
        _STOP_MASK[_w] = _STOP_MASK.get(_w, 0) | (1 << _i)


def langid_batch(texts) -> list[str]:
    """Batch `langid` with identical outputs: ONE pass per document
    over a word→language-bitmask table instead of four per-language
    set-membership passes. Tie semantics match the scalar kernel (a
    later language must strictly beat the best so far)."""
    out = []
    get = _STOP_MASK.get
    for text in texts:
        words = text.lower().split()
        if not words:
            out.append("und")
            continue
        c0 = c1 = c2 = c3 = 0
        for w in words:
            m = get(w)
            if m:
                if m & 1:
                    c0 += 1
                if m & 2:
                    c1 += 1
                if m & 4:
                    c2 += 1
                if m & 8:
                    c3 += 1
        best_lang, best = "und", 0
        for hits, lang in zip((c0, c1, c2, c3), _LANGID_ORDER):
            if hits > best:
                best, best_lang = hits, lang
        out.append(best_lang)
    return out


def quality_score(text: str) -> float:
    """Heuristic quality in [0,1]: length band + word length sanity +
    punctuation ratio (the usual pretraining-filter features)."""
    n = len(text)
    if n == 0:
        return 0.0
    n_words = len(WORD_REGEX.findall(text))
    if n_words == 0:
        return 0.0
    mean_wl = (n - (n_words - 1)) / n_words
    punct = len(PUNCT_REGEX.findall(text))
    punct_ratio = punct / n
    score = 1.0
    if n < 32 or n > 100_000:
        score *= 0.5
    if mean_wl < 2 or mean_wl > 12:
        score *= 0.5
    if punct_ratio > 0.2:
        score *= 0.5
    return round(score, 4)


_FP_BASE = np.uint64(1099511628211)  # FNV prime, reused as polynomial base
_FP_OFFSET = np.uint64(14695981039346656037)
_FP_MASK = np.uint64(0x7FFF_FFFF_FFFF_FFFF)

# P^0..P^k mod 2^64, grown on demand and shared across batches
_POW_CACHE = np.array([1], dtype=np.uint64)


def _powers(n: int) -> np.ndarray:
    global _POW_CACHE
    if len(_POW_CACHE) < n:
        m = max(n, 2 * len(_POW_CACHE), 1024)
        pw = np.empty(m, dtype=np.uint64)
        pw[0] = 1
        with np.errstate(over="ignore"):
            np.multiply.accumulate(
                np.full(m - 1, _FP_BASE, dtype=np.uint64), out=pw[1:]
            )
        _POW_CACHE = pw
    return _POW_CACHE


def fingerprint_slow(text: str) -> int:
    """Scalar Horner reference for the vectorized ``fingerprint`` —
    byte-for-byte the same value; used only by tests as an oracle."""
    h = int(_FP_OFFSET)
    base = int(_FP_BASE)
    for b in text.encode("utf-8"):
        h = (h * base + b + 1) & 0xFFFF_FFFF_FFFF_FFFF
    return h & 0x7FFF_FFFF_FFFF_FFFF


def fingerprint(text: str) -> int:
    """Polynomial rolling hash over the utf-8 bytes -> int64 (doc
    fingerprint for shard-stable sampling / dedup bucketing).

    h = (OFFSET*P^n + sum_i (byte_i+1) * P^(n-1-i)) mod 2^64, masked to
    63 bits — the Horner form of FNV-style mixing, chosen because the
    power-series form is fully vectorizable (np.frombuffer + uint64 dot
    with wraparound), unlike true FNV-1a's sequential xor-multiply.
    ~GB/s instead of the round-1 per-byte Python loop (~µs/KB)."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    n = len(raw)
    pw = _powers(n + 1)
    with np.errstate(over="ignore"):
        acc = _FP_OFFSET * pw[n] + np.dot(
            raw.astype(np.uint64) + np.uint64(1), pw[:n][::-1]
        )
    return int(np.uint64(acc) & _FP_MASK)


def fingerprints_batch(texts) -> np.ndarray:
    if not len(texts):
        return np.zeros(0, dtype=np.int64)
    encoded = [t.encode("utf-8") for t in texts]
    pw = _powers(max(len(b) for b in encoded) + 1)
    out = np.empty(len(encoded), dtype=np.int64)
    with np.errstate(over="ignore"):
        for i, b in enumerate(encoded):
            raw = np.frombuffer(b, dtype=np.uint8)
            n = len(raw)
            acc = _FP_OFFSET * pw[n] + np.dot(
                raw.astype(np.uint64) + np.uint64(1), pw[:n][::-1]
            )
            out[i] = int(np.uint64(acc) & _FP_MASK)
    return out
