"""Per-host politeness: token-bucket allowances + robots.txt rules.

Maps the reference's limiter stack onto per-host budgets:
- fixed-window rate counters (/root/reference/providers/limiting/
  inmemoryRateLimiter.js:17-36) -> per-window allowance = rate x window,
  enforced inside the frontier shards' take() (FrontierShardState.
  configure_politeness), which defers overflow rows to the next window
  start via `not_before` (reference lib/crawlerFactory.js:74)
- token benching with `benchUntil` (/root/reference/providers/fetcher/
  tokenFactory.js:74-86) -> ComputeBudget bench-until times, pushed to
  the shards (FrontierShardState.set_benched)
- robots.txt: RFC 9309 semantics — Allow/Disallow rules with
  longest-match precedence (most-octets rule wins, Allow wins ties),
  `*` wildcards and `$` end anchors, group selection where a matching
  specific-agent group shadows the `*` group — plus Crawl-delay (the
  reference crawls one host — api.github.com — so robots generalizes
  the token-pool "traits" idea to per-host fetch capabilities).

All state is deterministic; the engine injects the epoch clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


def _compile_rule(pattern: str):
    """A rule pattern without `*`/`$` is a plain prefix (fast path,
    None); otherwise an anchored regex (`*` -> `.*`, trailing `$` ->
    end anchor — RFC 9309 §2.2.3)."""
    if "*" not in pattern and not pattern.endswith("$"):
        return None
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    rx = ".*".join(re.escape(seg) for seg in body.split("*"))
    return re.compile(rx + ("$" if anchored else ""))


@dataclass
class RobotsRules:
    """RFC 9309 rule group: ``rules`` is ((pattern, is_allow), ...) in
    file order. Matching: longest (most-octets) matching pattern wins;
    on a tie between Allow and Disallow, Allow wins (§2.2.2); no match
    -> allowed."""

    rules: tuple[tuple[str, bool], ...] = ()
    crawl_delay: float | None = None

    def __post_init__(self) -> None:
        self._compiled = [
            (pattern, is_allow, len(pattern), _compile_rule(pattern))
            for pattern, is_allow in self.rules
        ]

    @property
    def disallow(self) -> tuple[str, ...]:
        """Plain Disallow patterns (diagnostics / has-any-rules checks)."""
        return tuple(p for p, is_allow in self.rules if not is_allow)

    def allowed(self, path: str) -> bool:
        best_prio, best_allow = -1, True
        for pattern, is_allow, prio, rx in self._compiled:
            if rx is None:
                hit = path.startswith(pattern)
            else:
                hit = rx.match(path) is not None
            if not hit:
                continue
            # Allow wins ties -> Allow updates at >=, Disallow only at >
            if prio > best_prio or (prio == best_prio and is_allow):
                best_prio, best_allow = prio, is_allow
        return best_allow

    def allowed_many(self, paths: list[str]) -> np.ndarray:
        """Vectorized `allowed` over a batch of paths: one numpy
        prefix-match per rule (regex rules fall back to a per-path
        match for that rule only), tracking per-path best (prio,
        verdict) arrays — no per-path Python in the common
        prefix-rules case."""
        n = len(paths)
        best_prio = np.full(n, -1, dtype=np.int64)
        best_allow = np.ones(n, dtype=bool)
        arr = None
        for pattern, is_allow, prio, rx in self._compiled:
            if rx is None:
                if arr is None:
                    arr = np.asarray(paths, dtype=str)
                hit = np.char.startswith(arr, pattern)
            else:
                hit = np.fromiter(
                    (rx.match(p) is not None for p in paths),
                    dtype=bool,
                    count=n,
                )
            if is_allow:
                upd = hit & (prio >= best_prio)
            else:
                upd = hit & (prio > best_prio)
            best_prio[upd] = prio
            best_allow[upd] = is_allow
        return best_allow


def parse_robots(text: str, agent: str = "*") -> RobotsRules:
    """RFC 9309 robots.txt parser: groups of consecutive User-agent
    lines followed by Allow/Disallow/Crawl-delay records. Group
    selection follows §2.2.1: if any group names `agent` exactly
    (case-insensitive), only those groups apply; otherwise the `*`
    groups. Empty Allow/Disallow values are no-ops."""
    # parse into groups: (agents, rules, delay)
    groups: list[tuple[list[str], list[tuple[str, bool]], float | None]] = []
    cur_agents: list[str] = []
    cur_rules: list[tuple[str, bool]] = []
    cur_delay: float | None = None
    in_agents = False  # consecutive User-agent lines share one group

    def close_group() -> None:
        nonlocal cur_agents, cur_rules, cur_delay
        if cur_agents:
            groups.append((cur_agents, cur_rules, cur_delay))
        cur_agents, cur_rules, cur_delay = [], [], None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            if not in_agents:
                close_group()
            cur_agents.append(value.lower())
            in_agents = True
            continue
        in_agents = False
        if key == "disallow" and value:
            cur_rules.append((value, False))
        elif key == "allow" and value:
            cur_rules.append((value, True))
        elif key == "crawl-delay":
            try:
                cur_delay = float(value)
            except ValueError:
                pass
    close_group()

    agent_l = agent.lower()
    matched = [g for g in groups if agent_l != "*" and agent_l in g[0]]
    if not matched:
        matched = [g for g in groups if "*" in g[0]]
    rules: list[tuple[str, bool]] = []
    delay: float | None = None
    for _, grules, gdelay in matched:
        rules.extend(grules)
        if gdelay is not None:
            delay = gdelay if delay is None else min(delay, gdelay)
    return RobotsRules(tuple(rules), delay)


@dataclass
class PolitenessPolicy:
    """Per-host, per-window allowances: the rate, lowered by a robots
    Crawl-delay. The engine pushes them to the frontier shards."""

    host_rate_per_sec: float = 10.0
    epoch_seconds: float = 1.0
    robots: dict[str, RobotsRules] = field(default_factory=dict)

    def allowance(self, host: str) -> int:
        rate = self.host_rate_per_sec
        rules = self.robots.get(host)
        if rules and rules.crawl_delay:
            rate = min(rate, 1.0 / rules.crawl_delay)
        return max(1, int(rate * self.epoch_seconds))


@dataclass
class ComputeBudget:
    """Adaptive per-key compute limiter (reference T6,
    /root/reference/providers/limiting/computeLimiter.js:27-77 wired at
    lib/crawlerFactory.js:306-346): each fetch charges its duration
    OVERAGE above a baseline (the fastest latency observed — the
    network floor) against a per-key budget of `limit_ms` busy
    milliseconds per `window_sec` window; an exhausted key is benched
    until ``now + window/4`` (the reference's computed reset). The
    baseline refreshes as a rolling min so a structurally-slow epoch
    re-calibrates (reference: 4-probe mean every 60 s).

    Deterministic: the caller injects the clock (``now_us``).
    """

    limit_ms: float = 15_000.0
    window_sec: float = 15.0
    baseline_ms: float = 0.0
    _used_ms: dict[str, float] = field(default_factory=dict)
    _window_start_us: dict[str, int] = field(default_factory=dict)
    _bench_until_us: dict[str, int] = field(default_factory=dict)
    _rolling_min_ms: float = float("inf")

    def observe_baseline(self, elapsed_ms: float) -> None:
        """Feed a latency sample; baseline = rolling min (the cheapest
        request approximates pure network time)."""
        if elapsed_ms < self._rolling_min_ms:
            self._rolling_min_ms = elapsed_ms
            self.baseline_ms = elapsed_ms

    def benched_until(self, key: str, now_us: int) -> int | None:
        """Epoch-clock timestamp until which `key` is benched, if any."""
        until = self._bench_until_us.get(key)
        if until is not None and until > now_us:
            return until
        return None

    def consume(self, key: str, elapsed_ms: float, now_us: int) -> int | None:
        """Charge one request's compute overage. Returns the bench-until
        timestamp if this charge exhausted the key's budget, else None
        (reference consume(): over -> exhaust(resetTime))."""
        self.observe_baseline(elapsed_ms)
        window_us = int(self.window_sec * 1e6)
        start = self._window_start_us.get(key)
        if start is None or now_us - start >= window_us:
            self._window_start_us[key] = now_us
            self._used_ms[key] = 0.0
        charge = max(0.0, elapsed_ms - self.baseline_ms)
        self._used_ms[key] = self._used_ms.get(key, 0.0) + charge
        if self._used_ms[key] > self.limit_ms:
            until = now_us + window_us // 4
            self._bench_until_us[key] = until
            return until
        return None
