"""Pure helpers of the benchmark: answer digests, percentiles, self time.

Nothing here starts a process or touches the file system, so the
self-tests in ``test_bench_self.py`` exercise every rule directly.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# answers


def answer_digest(stdout: str, fmt: str) -> str:
    """sha256 of what a query answered, independent of timing and route text.

    json answers keep only ``query`` and ``result`` of the envelope:
    ``timing_ms`` varies per run and ``provenance`` carries route strings
    that may be reworded without changing any answer.  tsv answers are
    hashed whole.
    """
    if fmt == "tsv":
        blob = stdout
    else:
        env = json.loads(stdout)
        blob = json.dumps(
            {"query": env["query"], "result": env["result"]},
            sort_keys=True,
            separators=(",", ":"),
        )
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# latency summaries


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    Below twenty samples no tail qualifies and the median stands in, so
    the reported tail is never a single extreme sample.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' rule of numpy)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# spans and self time


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_shares(spans: list[dict]) -> dict[int, float]:
    """Wall time attributed to each span, summing to the time spans cover.

    At each instant the leaves of the active span tree (active spans with
    no active child) share the instant equally.  In one thread this is the
    span's duration minus the part of it that its children cover; when
    children run concurrently in a thread pool, overlapping leaves split
    the overlap instead of each claiming it whole.
    """
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    share: dict[int, float] = defaultdict(float)
    active_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    prev = None
    for t, is_start, sid in events:
        if prev is not None and leaves and t > prev:
            part = (t - prev) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        prev = t
        parent = by_id[sid]["parent"]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return dict(share)


def attributed_self(spans: list[dict]) -> tuple[dict[int, float], dict[str, float]]:
    """Self time per span and per module; the module totals sum to the
    time the spans cover.

    A span may carry ``leaf``: seconds spent, while it was innermost, in
    timed calls into another module that record no span of their own (the
    partitions helpers schur calls hundreds of thousands of times).  That
    part of the span's share goes to the leaf's module, in proportion to
    the span's own uncovered time; the rest is the span's self time.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    per_span: dict[int, float] = {}
    per_module: dict[str, float] = defaultdict(float)
    for sid, part in self_shares(spans).items():
        s = by_id[sid]
        raw = (s["end"] - s["start"]) - union_length(children[sid])
        leaf = s.get("leaf") or {}
        leaf_total = sum(leaf.values())
        frac = min(1.0, leaf_total / raw) if raw > 0 else 0.0
        per_span[sid] = part * (1.0 - frac)
        per_module[s["module"]] += per_span[sid]
        for mod, secs in leaf.items():
            per_module[mod] += part * frac * secs / leaf_total
    return per_span, dict(per_module)


def inclusive_time(spans: list[dict], name: str) -> float:
    """Summed duration of the spans called ``name`` that have no ancestor
    of the same name, so recursion is not counted twice."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += s["end"] - s["start"]
    return total
