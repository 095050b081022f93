"""Text analysis kernels for large-scale training-data pipelines.

Vectorized (Arrow / numpy) per-batch functions intended to run inside
``map_batches``: token counting, language-ID heuristic, quality
scoring, document fingerprinting. All deterministic and seedless.

The token regex is deliberately ASCII-explicit so the DuckDB oracle
(`regexp_extract_all`) and Arrow's RE2 kernels tokenize
byte-identically to Python's ``re``.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow.compute as pc

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


def _match_counts(texts, regex: re.Pattern) -> np.ndarray:
    """len(regex.findall(t)) per text (an Arrow string column or a
    list), counted by Arrow's RE2 kernel: the patterns here use only
    syntax that RE2 and ``re`` read alike."""
    return pc.count_substring_regex(texts, regex.pattern).to_numpy().astype(
        np.int64
    )


def token_counts_batch(texts) -> np.ndarray:
    return _match_counts(texts, TOKEN_REGEX)


def punct_counts_batch(texts) -> np.ndarray:
    return _match_counts(texts, PUNCT_REGEX)


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


def quality_scores_batch(texts) -> np.ndarray:
    """Heuristic quality in [0,1] per text: length band + word length
    sanity + punctuation ratio (the usual pretraining-filter features).
    A text without words scores 0; otherwise each failed check halves
    1.0 — n code points outside [32, 100000], mean word length
    (n - (words - 1)) / words outside [2, 12], punct / n above 0.2.
    Three Arrow kernels per batch: code point length and the WORD/PUNCT
    match counts."""
    n = pc.utf8_length(texts).to_numpy().astype(np.int64)
    n_words = _match_counts(texts, WORD_REGEX)
    punct = _match_counts(texts, PUNCT_REGEX)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_wl = (n - (n_words - 1)) / n_words
        failed = (
            ((n < 32) | (n > 100_000)).astype(np.int64)
            + ((mean_wl < 2) | (mean_wl > 12))
            + (punct / n > 0.2)
        )
    return np.where(n_words == 0, 0.0, 0.5 ** failed)


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
