"""RFC-3986 URL canonicalization + SHA-1 url_hash + host extraction.

The reference dedups requests on ``toUniqueString() == type@url``
(/root/reference/providers/queuing/redisRequestTracker.js:136-138,
/root/reference/providers/queuing/attenuatedQueue.js:27) and lowercases
URL paths when mapping to storage names
(/root/reference/providers/storage/storageDocStore.js:191-215).
Per the north rule the rebuild generalizes this to
``url_hash = SHA-1(rfc3986_normalize(url))``, which is the single
identity key used by the seen-filter, the documents table and lineage.

Normalization steps (RFC 3986 §6.2.2-6.2.3, syntax-based only):
- lowercase scheme and host
- strip default port (http:80, https:443)
- remove dot-segments from the path
- uppercase hex in percent-escapes; decode escapes of unreserved chars
- empty path -> "/"
- drop the fragment; keep the query byte-for-byte (order preserved)
"""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443", "ws": "80", "wss": "443"}
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


def _normalize_percent(component: str) -> str:
    """Uppercase %XX escapes; decode escapes of unreserved characters."""
    if "%" not in component:
        return component
    out = []
    i, n = 0, len(component)
    while i < n:
        ch = component[i]
        if ch == "%" and i + 2 < n + 1 and i + 3 <= n:
            hexpart = component[i + 1 : i + 3]
            try:
                code = int(hexpart, 16)
            except ValueError:
                out.append(ch)
                i += 1
                continue
            decoded = chr(code)
            if decoded in _UNRESERVED:
                out.append(decoded)
            else:
                out.append("%" + hexpart.upper())
            i += 3
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments."""
    output: list[str] = []
    # Split keeping structure: operate on '/'-separated segments.
    segments = path.split("/")
    absolute = path.startswith("/")
    for i, seg in enumerate(segments):
        if seg == ".":
            # keep trailing slash if '.' is last
            if i == len(segments) - 1:
                output.append("")
            continue
        if seg == "..":
            if output and output[-1] != "":
                output.pop()
            if i == len(segments) - 1:
                output.append("")
            continue
        output.append(seg)
    result = "/".join(output)
    if absolute and not result.startswith("/"):
        result = "/" + result
    return result


def rfc3986_normalize(url: str) -> str:
    """Syntax-normalize an absolute URL (see module docstring)."""
    url = url.strip()
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.hostname or ""
    host = host.lower().rstrip(".")
    port = parts.port
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    userinfo = ""
    if parts.username:
        userinfo = parts.username
        if parts.password:
            userinfo += f":{parts.password}"
        netloc = f"{userinfo}@{netloc}"
    path = _normalize_percent(parts.path)
    path = _remove_dot_segments(path)
    if not path:
        path = "/"
    query = _normalize_percent(parts.query)
    return urlunsplit((scheme, netloc, path, query, ""))


def url_hash(normalized_url: str) -> bytes:
    """20-byte SHA-1 digest of the canonical URL (the identity key)."""
    return hashlib.sha1(normalized_url.encode("utf-8")).digest()


def url_host(url: str) -> str:
    """Lowercased hostname without port (politeness partition key)."""
    try:
        return (urlsplit(url).hostname or "").lower().rstrip(".")
    except ValueError:
        return ""


import re

# Fast path: URLs this regex accepts (plus the dot-segment check below)
# are exact FIXED POINTS of rfc3986_normalize — lowercase scheme+host,
# no port/userinfo/fragment/percent-escape, non-empty path, no bare
# trailing '?'. Property-tested against the slow path in
# tests/test_urlnorm.py. Full normalization costs ~10 µs/url in Python;
# at 8 links/page this dominated the visit kernel once the per-worker
# memo stopped helping (hit rate falls as 1/pool_size — an anti-scaling
# term measured at 24 workers).
_FAST_RE = re.compile(
    r"^(https?)://"
    r"([a-z0-9](?:[a-z0-9-]*[a-z0-9])?"
    r"(?:\.[a-z0-9](?:[a-z0-9-]*[a-z0-9])?)*)"
    r"(/[^?#%\s]*)"
    r"(\?[^#%\s]+)?$"
)


def _fast_canonical_host(u: str) -> str | None:
    """Return the host if `u` is already canonical, else None."""
    m = _FAST_RE.match(u)
    if m is None:
        return None
    path = m.group(3)
    if "/../" in path or "/./" in path or path.endswith(("/..", "/.")):
        return None
    return m.group(2)


def canonicalize_batch(urls) -> tuple[list[str], list[bytes], list[str]]:
    """Canonicalization for a batch of URL strings.

    Returns (normalized, sha1_digests, hosts). Uses a per-batch memo so
    duplicate links (common in web pages) are normalized once; already-
    canonical URLs take the regex fast path.
    """
    memo: dict[str, tuple[str, bytes, str]] = {}
    norm_out: list[str] = []
    hash_out: list[bytes] = []
    host_out: list[str] = []
    sha1 = hashlib.sha1
    for u in urls:
        hit = memo.get(u)
        if hit is None:
            host = _fast_canonical_host(u)
            if host is not None:
                n = u
            else:
                n = rfc3986_normalize(u)
                host = url_host(n)
            hit = (n, sha1(n.encode("utf-8")).digest(), host)
            memo[u] = hit
        norm_out.append(hit[0])
        hash_out.append(hit[1])
        host_out.append(hit[2])
    return norm_out, hash_out, host_out


def shard_of(digest: bytes, num_shards: int) -> int:
    """Stable shard assignment: first 8 bytes of SHA-1 (little-endian,
    matching numpy's uint64 view in the vectorized batch router —
    stages/fetch.py shard_split) mod num_shards. The two MUST agree:
    a url_hash has exactly one owning shard or insert-if-absent dedup
    breaks."""
    return int.from_bytes(digest[:8], "little") % num_shards
