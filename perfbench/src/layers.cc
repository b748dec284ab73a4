// The write stream shared by the workloads, and the per-layer figures of
// a traced run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "pipeline.h"
#include "workloads.h"

namespace perfbench {

using classic::obs::Counter;
using classic::obs::CounterDeltaScope;

classic::KbEngine::Options SingleThreadEngine() {
  classic::KbEngine::Options options;
  options.num_threads = 1;
  return options;
}

classic::Status ApplyTimed(classic::Database* db, const WriteOp& op,
                           StreamSink* sink) {
  const char* cls = op.kind == WriteOp::kAssert    ? "assert"
                    : op.kind == WriteOp::kRetract ? "retract"
                    : op.kind == WriteOp::kCreate  ? "create"
                                                   : "schema";
  std::optional<CounterDeltaScope> window;
  if (sink->counts != nullptr) window.emplace();
  const uint64_t start = NowNanos();
  classic::Status st;
  if (sink->traced_log != nullptr) {
    Tracer::Scope root(sink->tracer, cls);
    st = ApplyTraced(db, sink->traced_log, op, sink->tracer);
  } else {
    st = Apply(db, op);
  }
  const double us = MicrosSince(start);
  if (op.kind == WriteOp::kAssert || op.kind == WriteOp::kRetract) {
    sink->samples->Add(cls, us);
  }
  if (sink->counts != nullptr) sink->counts->Add(cls, window->Deltas());
  ++sink->attempted;
  if (!st.ok() && sink->failed++ < 3) {
    Phase("update failed: " + LogLine(*db, op) + ": " + st.ToString());
  }
  return st;
}

void StreamChunks(classic::Database* db, classic::Session* writer,
                  classic::Session* reader, const std::vector<WriteOp>& ops,
                  size_t chunk,
                  const std::function<std::vector<ReadOp>(size_t)>& fresh,
                  StreamSink* sink) {
  Tracer* t = sink->tracer;
  for (size_t begin = 0; begin < ops.size(); begin += chunk) {
    const size_t end = std::min(ops.size(), begin + chunk);
    for (size_t i = begin; i < end; ++i) ApplyTimed(db, ops[i], sink);
    {
      CounterDeltaScope window;
      const uint64_t start = NowNanos();
      Tracer::Scope root(t, "publish");
      Tracer::Scope s(t, "kb.publish");
      if (!writer->Publish(db->kb()).ok()) ++sink->failed;
      sink->samples->Add("publish", MicrosSince(start));
      const classic::obs::CounterArray d = window.Deltas();
      sink->chunks_copied += d[static_cast<size_t>(Counter::kPublishChunksCopied)];
      sink->bytes_shared += d[static_cast<size_t>(Counter::kPublishBytesShared)];
      ++sink->publishes;
      ++sink->attempted;
    }
    {
      const uint64_t start = NowNanos();
      Tracer::Scope root(t, "sync");
      Tracer::Scope s(t, "kb.snapshot_acquire");
      if (!reader->Sync().ok()) ++sink->failed;
      sink->samples->Add("sync", MicrosSince(start));
      ++sink->attempted;
    }
    const std::vector<ReadOp> reads = fresh(end - 1);
    classic::SnapshotPtr snap = reader->engine().SnapshotAt(reader->epoch());
    double fresh_us = 0;
    for (size_t k = 0; k < reads.size(); ++k) {
      const ReadOp& op = reads[k];
      std::optional<CounterDeltaScope> window;
      if (sink->counts != nullptr) window.emplace();
      const uint64_t start = NowNanos();
      classic::QueryAnswer a;
      if (t->on()) {
        Tracer::Scope root(t, Tracer::Intern(op.cls));
        a = ServeTraced(snap->kb(), op.request, t);
      } else {
        a = reader->Serve(op.request);
      }
      const double us = MicrosSince(start);
      if (op.cls == "fresh") {
        fresh_us += us;
      } else {
        sink->samples->Add(op.cls, us);
      }
      if (sink->counts != nullptr) {
        sink->counts->Add(op.cls, window->Deltas());
        if (op.request.kind == classic::QueryRequest::Kind::kAsk) {
          sink->counts->answers += a.values.size();
        }
      }
      ++sink->attempted;
      if (!a.status.ok() && sink->failed++ < 3) {
        Phase("read failed: " + op.request.ToWire() + ": " + a.status.ToString());
      }
    }
    if (fresh_us > 0) sink->samples->Add("fresh", fresh_us);
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"sexpr.read_us", "us"},
      {"desc.parse_us", "us"},
      {"desc.normalize_us", "us"},
      {"desc.normalizations_per_op", "count"},
      {"desc.intern_hit_ratio", "ratio"},
      {"taxonomy.classify_us", "us"},
      {"taxonomy.classifications_per_query", "count"},
      {"subsume.tests_per_op", "count"},
      {"subsume.memo_hit_ratio", "ratio"},
      {"query.plan_us", "us"},
      {"query.retrieve_us", "us"},
      {"query.index_path_share", "ratio"},
      {"query.postings_scanned_per_query", "count"},
      {"query.candidates_pruned_per_query", "count"},
      {"query.checks_per_answer", "count"},
      {"kb.serve_query_us", "us"},
      {"kb.render_us", "us"},
      {"kb.assert_us", "us"},
      {"kb.propagation_steps_per_assert", "count"},
      {"kb.wavefronts_per_assert", "count"},
      {"kb.realizations_per_assert", "count"},
      {"kb.rule_firings_per_assert", "count"},
      {"kb.instance_checks_per_assert", "count"},
      {"kb.publish_us", "us"},
      {"kb.publish_chunks_copied", "count"},
      {"kb.publish_bytes_shared", "bytes"},
      {"kb.snapshot_acquire_us", "us"},
      {"kb.retract_ms", "ms"},
      {"kb.retract_steps", "count"},
      {"storage.append_us", "us"},
      {"storage.log_bytes_per_op", "bytes"},
      {"storage.read_ops_us", "us"},
      {"storage.replay_apply_us", "us"},
      {"storage.replay_per_s", "ops/s"},
      {"serve.frame_codec_us", "us"},
      {"serve.wire_codec_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.requests_per_batch", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.max_class_gap_pct", "%"},
  };
  return kList;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool IsQueryClass(const std::string& cls) {
  static const char* kQueries[] = {"ask_selective", "ask_scan", "ask_possible",
                                   "ask_description", "path_query", "describe",
                                   "msc", "instances_of"};
  for (const char* q : kQueries) {
    if (cls == q) return true;
  }
  return false;
}

}  // namespace

void AddCounterMetrics(const CounterTotals& counts, Outcome* out) {
  const std::vector<std::string> classes = counts.Classes();
  auto sum = [&](Counter c, bool queries_only) {
    double total = 0;
    for (const std::string& cls : classes) {
      if (!queries_only || IsQueryClass(cls)) total += counts.Get(cls, c);
    }
    return total;
  };
  double query_ops = 0, all_ops = 0;
  for (const std::string& cls : classes) {
    all_ops += counts.Ops(cls);
    if (IsQueryClass(cls)) query_ops += counts.Ops(cls);
  }
  auto& L = out->layer;
  L["desc.normalizations_per_op"] = Ratio(sum(Counter::kNormalizations, false), all_ops);
  const double hits = sum(Counter::kInternHits, false);
  L["desc.intern_hit_ratio"] = Ratio(hits, hits + sum(Counter::kInternMisses, false));
  L["taxonomy.classifications_per_query"] =
      Ratio(sum(Counter::kClassifications, true), query_ops);
  const double tests = sum(Counter::kSubsumptionTests, false);
  const double memo = sum(Counter::kSubsumptionMemoHits, false);
  L["subsume.tests_per_op"] = Ratio(tests, all_ops);
  L["subsume.memo_hit_ratio"] = Ratio(memo, memo + tests);
  const double index_path = sum(Counter::kPlannerIndexPath, true);
  L["query.index_path_share"] =
      Ratio(index_path, index_path + sum(Counter::kPlannerScanPath, true));
  L["query.postings_scanned_per_query"] =
      Ratio(sum(Counter::kPlannerPostingsScanned, true), query_ops);
  L["query.candidates_pruned_per_query"] =
      Ratio(sum(Counter::kPlannerCandidatesPruned, true), query_ops);
  L["query.checks_per_answer"] =
      Ratio(sum(Counter::kInstanceChecks, true), static_cast<double>(counts.answers));
  const double asserts = counts.Ops("assert");
  L["kb.propagation_steps_per_assert"] =
      Ratio(counts.Get("assert", Counter::kPropagationSteps), asserts);
  L["kb.wavefronts_per_assert"] =
      Ratio(counts.Get("assert", Counter::kPropagationWavefronts), asserts);
  L["kb.realizations_per_assert"] =
      Ratio(counts.Get("assert", Counter::kRealizations), asserts);
  L["kb.rule_firings_per_assert"] =
      Ratio(counts.Get("assert", Counter::kRuleFirings), asserts);
  L["kb.instance_checks_per_assert"] =
      Ratio(counts.Get("assert", Counter::kInstanceChecks), asserts);
  L["kb.retract_steps"] = Ratio(counts.Get("retract", Counter::kPropagationSteps),
                                counts.Ops("retract"));
}

void AddPublishMetrics(const StreamSink& sink, Outcome* out) {
  const double n = static_cast<double>(sink.publishes);
  out->layer["kb.publish_chunks_copied"] = Ratio(static_cast<double>(sink.chunks_copied), n);
  out->layer["kb.publish_bytes_shared"] = Ratio(static_cast<double>(sink.bytes_shared), n);
}

void AddSpanMetrics(const Tracer& t, Outcome* out) {
  auto& L = out->layer;
  L["sexpr.read_us"] = t.MeanMicros("sexpr.read");
  L["desc.parse_us"] = t.MeanMicros("desc.parse");
  L["desc.normalize_us"] = t.MeanMicros("desc.normalize");
  L["taxonomy.classify_us"] = t.MeanMicros("taxonomy.classify");
  L["query.plan_us"] = t.MeanMicros("query.plan");
  L["query.retrieve_us"] = t.MeanMicros("query.retrieve(classify+plan+execute)");
  L["kb.render_us"] = t.MeanMicros("kb.render");
  L["kb.assert_us"] = t.MeanMicros("kb.assert");
  L["kb.publish_us"] = t.MeanMicros("kb.publish");
  L["kb.snapshot_acquire_us"] = t.MeanMicros("kb.snapshot_acquire");
  L["kb.retract_ms"] = t.MeanMicros("kb.retract") / 1e3;
  L["storage.append_us"] = t.MeanMicros("storage.append");
  L["storage.read_ops_us"] = t.MeanMicros("storage.read_ops");
}

void ReportTrace(const Tracer& t, const Samples& untraced,
                 const std::string& path, Outcome* out) {
  double traced_total = 0, untraced_total = 0, max_gap = 0;
  for (const auto& [cls, b] : t.Breakdown()) {
    const size_t n = untraced.Count(cls);
    const double base = untraced.Median(cls);
    std::printf("trace %-16s n=%-6llu traced_p50=%.2fus layers_p50=%.2fus",
                cls.c_str(), static_cast<unsigned long long>(b.roots),
                b.root_median_us, b.children_median_us);
    // "fresh" is timed per epoch untraced (a sum of reads) and per read
    // traced, so it has no comparable untraced figure.
    if (n > 0 && base > 0 && cls != "fresh") {
      const double gap = 100.0 * std::fabs(b.children_median_us - base) / base;
      std::printf(" untraced_p50=%.2fus layers_vs_untraced=%.1f%%", base, gap);
      // Sub-10us classes are dominated by timer and cache noise.
      if (n >= 20 && base >= 10) max_gap = std::max(max_gap, gap);
      traced_total += b.root_median_us * static_cast<double>(b.roots);
      untraced_total += base * static_cast<double>(b.roots);
    }
    std::printf("\n");
    for (const auto& [layer, us] : b.self_us) {
      std::printf("trace   %-44s self=%.3fus/op\n", layer.c_str(), us);
    }
  }
  out->layer["trace.overhead_pct"] =
      untraced_total == 0 ? 0 : 100.0 * (traced_total / untraced_total - 1);
  out->layer["trace.max_class_gap_pct"] = max_gap;
  std::ofstream f(path);
  f << t.ChromeJson();
  std::printf("trace written to %s (%zu spans)\n", path.c_str(), t.spans().size());
}

}  // namespace perfbench
