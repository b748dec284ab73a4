#include "obs/histogram.h"

#include <algorithm>
#include <bit>

namespace classic::obs {

namespace {

/// Bucket index for a duration: bit width of the nanosecond count,
/// clamped to the table (bucket b covers [2^(b-1), 2^b)).
size_t BucketOf(uint64_t nanos) {
  const size_t b = static_cast<size_t>(std::bit_width(nanos));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Geometric midpoint of a bucket — the percentile estimate reported for
/// samples that landed in it.
uint64_t BucketMid(size_t bucket) {
  if (bucket == 0) return 0;
  const uint64_t lo = uint64_t{1} << (bucket - 1);
  return lo + lo / 2;
}

/// Smallest duration d such that at least `rank` samples are <= d,
/// estimated from bucket counts and clamped to the observed [lo, hi]: a
/// bucket midpoint can lie outside the range the samples actually
/// spanned, and a quantile above the maximum is not an estimate.
uint64_t PercentileFromBuckets(
    const std::array<uint64_t, kHistogramBuckets>& buckets, uint64_t count,
    double q, uint64_t lo, uint64_t hi) {
  if (count == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  uint64_t seen = 0;
  uint64_t mid = BucketMid(kHistogramBuckets - 1);
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) {
      mid = BucketMid(b);
      break;
    }
  }
  return std::clamp(mid, lo, hi);
}

/// Relaxed compare-exchange min/max (uncontended in practice: one sample
/// per served operation).
void AtomicMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// The registry's histogram bank: constant-initialized, never destroyed.
LatencyHistogram g_histograms[kNumOps];

}  // namespace

void LatencyHistogram::Record(uint64_t nanos) {
  buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  AtomicMin(&min_, nanos);
  AtomicMax(&max_, nanos);
}

HistogramView LatencyHistogram::View(Op op) const {
  HistogramView out;
  out.op = op;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum_ns = sum_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  if (out.count > 0) {
    out.min_ns = min_.load(std::memory_order_relaxed);
    out.max_ns = max_.load(std::memory_order_relaxed);
    out.p50_ns = PercentileFromBuckets(out.buckets, out.count, 0.50,
                                       out.min_ns, out.max_ns);
    out.p90_ns = PercentileFromBuckets(out.buckets, out.count, 0.90,
                                       out.min_ns, out.max_ns);
    out.p99_ns = PercentileFromBuckets(out.buckets, out.count, 0.99,
                                       out.min_ns, out.max_ns);
  }
  return out;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

LatencyHistogram& OpHistogram(Op op) {
  return g_histograms[static_cast<size_t>(op)];
}

void RecordLatency(Op op, uint64_t nanos) { OpHistogram(op).Record(nanos); }

std::array<HistogramView, kNumOps> SnapshotHistograms() {
  std::array<HistogramView, kNumOps> out;
  for (size_t i = 0; i < kNumOps; ++i) {
    out[i] = g_histograms[i].View(static_cast<Op>(i));
  }
  return out;
}

void ResetHistograms() {
  for (auto& h : g_histograms) h.Reset();
}

}  // namespace classic::obs
