// Shared pieces of the end-to-end benchmark: arguments, latency samples,
// the result line, and the span recorder used by traced runs.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Set at static-initialization time, before main(): the reference point
/// of `setup_s` (one cold set-up per process).
extern const uint64_t kProcessStartNanos;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for logs and trace files, inside the checkout.
  std::string out_dir = ".bench_out";
};

inline uint64_t NowNanos() { return classic::obs::MonotonicNanos(); }

inline double MicrosSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e3;
}

/// Progress line on stderr, stamped with seconds since process start.
void Phase(const std::string& what);

/// Linear-interpolated quantile (0 <= q <= 1) of an unsorted sample.
double Quantile(std::vector<double> v, double q);

/// Latency samples (microseconds) per operation class.
class Samples {
 public:
  void Add(const std::string& cls, double us) { by_class_[cls].push_back(us); }
  double Median(const std::string& cls) const;
  double Mean(const std::string& cls) const;
  size_t Count(const std::string& cls) const;
  /// Adds every sample of `other`.
  void Merge(const Samples& other);
  /// Adds the median of each of `round`'s classes as one sample.
  void AddMedians(const Samples& round);
  /// The lowest sample of a class; over per-round medians, the median of
  /// the least disturbed round.
  double Lowest(const std::string& cls) const;
  /// One reference line per class: count, p50 and the highest of
  /// p90/p99/p99.9 that has at least ten samples beyond it (none below
  /// forty samples). Printed for reading, never gated.
  void PrintReference(const std::string& prefix) const;

 private:
  std::map<std::string, std::vector<double>> by_class_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: correctness, operation counts and metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Per-layer values of a traced run, by metric name.
  std::map<std::string, double> layer;
  /// Correctness failures, printed before the result line.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Process high-water resident set (VmHWM) in MiB.
double PeakRssMiB();

/// Counter deltas of the calling thread around one operation, summed per
/// operation class (obs::CounterDeltaScope windows).
class CounterTotals {
 public:
  void Add(const std::string& cls, const classic::obs::CounterArray& d);
  uint64_t Get(const std::string& cls, classic::obs::Counter c) const;
  uint64_t Ops(const std::string& cls) const;
  std::vector<std::string> Classes() const;

  /// Answer values returned by the counted concept queries.
  uint64_t answers = 0;

 private:
  std::map<std::string, classic::obs::CounterArray> sums_;
  std::map<std::string, uint64_t> ops_;
};

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans are opened and closed on
/// the calling thread in stack order; every span of one operation shares
/// the request id of its root span. Off (the untraced run) it records
/// nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;  ///< Index into spans(), -1 for a root.
    uint64_t request;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span; a root span (no open parent) starts a new request.
  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer* t, const char* name)
        : t_(t), index_(t->on_ ? t->Open(name) : -1) {}
    ~Scope() {
      if (index_ >= 0) t_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// A span name with static lifetime for a run-time string.
  static const char* Intern(const std::string& name);

  /// Mean duration (us) of every span with this name; 0 if none.
  double MeanMicros(const std::string& name) const;

  /// Per root-span name: per child name, the mean self time per root
  /// (us), and the mean summed duration of the root's direct children.
  struct ClassBreakdown {
    uint64_t roots = 0;
    double root_median_us = 0;
    double children_median_us = 0;
    std::map<std::string, double> self_us;
  };
  std::map<std::string, ClassBreakdown> Breakdown() const;

  /// Chrome trace_event JSON ("X" events, args carry parent and request).
  std::string ChromeJson() const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t next_request_ = 1;
};

}  // namespace perfbench
