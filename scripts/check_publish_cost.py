#!/usr/bin/env python3
"""Publish-cost regression guard.

Reads Google Benchmark JSON (--benchmark_format=json) on stdin and checks
two things:

  - BM_Publish/1024 (publish of an unmutated master, the delta floor)
    must not exceed the baseline by more than the allowed factor: publish
    at 1,024 individuals stays in the microseconds range, never regressing
    back toward the ~3 ms deep-copy Clone() it replaced.
  - BM_PublishReclassify (create one individual into PRIM-0, whose
    extension holds ~90% of the KB, then publish) must cost at most
    MAX_RECLASSIFY_RATIO times as much at 65,536 individuals as at 1,024.
    This is the stage the guard protects: the concept-extension store and
    the epoch publish/evict path. An extension copied per epoch, or a
    layered store compacting on publish, makes the ratio grow with the
    database size.

Usage:
  ./build/bench/bench_parallel \
      --benchmark_filter='BM_Publish/1024$|BM_PublishReclassify/' \
      --benchmark_format=json --benchmark_min_time=0.05 |
    python3 scripts/check_publish_cost.py
"""

import json
import sys

# Budget for BM_Publish/1024 in nanoseconds. The COW publish measures in
# the single-digit-microsecond range on the CI container; 2x headroom over
# a 50 us ceiling still catches any accidental reintroduction of an O(n)
# copy (the deep-copy publish was ~3,000,000 ns).
BASELINE_NS = 50_000.0
MAX_FACTOR = 2.0

TARGET = "BM_Publish/1024"

# BM_PublishReclassify/65536 over BM_PublishReclassify/1024. With the
# persistent extension store the two measure within ~1.3x of each other;
# the layered std::set store it replaced copied the 64k-member extension
# on every epoch's first insert.
RECLASSIFY = "BM_PublishReclassify"
RECLASSIFY_SMALL = 1024
RECLASSIFY_LARGE = 65536
MAX_RECLASSIFY_RATIO = 4.0

SCALE = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def find_ns(benchmarks, name):
    """ns/op of the first non-aggregate run named `name` (an
    /iterations:N suffix is ignored), or None."""
    for b in benchmarks:
        if b.get("run_type") == "aggregate":
            continue
        if b.get("name", "").split("/iterations:")[0] == name:
            return b["real_time"] * SCALE.get(b["time_unit"], 1.0)
    return None


def main() -> int:
    benchmarks = json.load(sys.stdin).get("benchmarks", [])
    ok = True

    ns = find_ns(benchmarks, TARGET)
    if ns is None:
        print(f"check_publish_cost: no {TARGET} run in input", file=sys.stderr)
        return 1
    limit = BASELINE_NS * MAX_FACTOR
    verdict = "ok" if ns <= limit else "REGRESSION"
    ok &= ns <= limit
    print(
        f"check_publish_cost: {TARGET} = {ns:,.0f} ns/op "
        f"(limit {limit:,.0f} ns) -> {verdict}"
    )

    small = find_ns(benchmarks, f"{RECLASSIFY}/{RECLASSIFY_SMALL}")
    large = find_ns(benchmarks, f"{RECLASSIFY}/{RECLASSIFY_LARGE}")
    if small is None or large is None:
        print(f"check_publish_cost: no {RECLASSIFY}/{{{RECLASSIFY_SMALL},"
              f"{RECLASSIFY_LARGE}}} runs in input", file=sys.stderr)
        return 1
    ratio = large / small
    verdict = "ok" if ratio <= MAX_RECLASSIFY_RATIO else "REGRESSION"
    ok &= ratio <= MAX_RECLASSIFY_RATIO
    print(
        f"check_publish_cost: {RECLASSIFY} {RECLASSIFY_LARGE}/{RECLASSIFY_SMALL}"
        f" = {large:,.0f} / {small:,.0f} ns = {ratio:.2f}x "
        f"(limit {MAX_RECLASSIFY_RATIO:.1f}x) -> {verdict}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
