// query-100k: read-only serving through Session over a generated
// 100k-individual layered-taxonomy KB pinned to one epoch. The incremental
// tail of the stream (logged asserts, a publish per chunk, fresh-epoch
// reads) runs during set-up, so the timed phase does no propagation,
// publication, storage or socket work. After the timed phase and its
// checks, the part-of write path runs once as an untimed, checked step.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <unordered_map>

#include "checks.h"
#include "pipeline.h"
#include "query/introspect.h"
#include "workloads.h"

namespace perfbench {

using classic::Database;
using classic::KbEngine;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Session;

namespace {

constexpr size_t kReadsPerRound = 3000;
constexpr size_t kBatchEvery = 50;  // one batch per this many single reads
constexpr size_t kBatchSize = 16;
constexpr size_t kTailChunk = 50;
constexpr size_t kTailWindow = 10;  // chunks per window of the tail's metrics

// Cheap request kinds only: batches measure fan-out, not scans.
std::vector<std::vector<QueryRequest>> MakeBatches(const Layered& g,
                                                   uint64_t seed) {
  std::vector<std::vector<QueryRequest>> out(1);
  for (const ReadOp& op : LayeredReads(g, 6000, seed + 17)) {
    if (op.cls != "ask_selective" && op.cls != "describe" && op.cls != "msc" &&
        op.cls != "ask_description") {
      continue;
    }
    if (out.back().size() == kBatchSize) out.emplace_back();
    out.back().push_back(op.request);
  }
  if (out.back().size() < kBatchSize) out.pop_back();
  return out;
}

size_t IndexOfName(const std::string& name) { return std::stoul(name.substr(1)); }

void CheckQueries(const Layered& g, const std::vector<ReadOp>& reads,
                  Session* reader, Outcome* out) {
  const classic::KnowledgeBase& kb =
      reader->engine().SnapshotAt(reader->epoch())->kb();
  auto serve = [&](const QueryRequest& r) {
    QueryAnswer a = reader->Serve(r);
    if (!a.status.ok()) out->Fail("check request failed: " + r.ToWire());
    return a.values;
  };
  auto note = [&](const std::string& e) {
    if (!e.empty()) out->Fail(e);
  };
  // (r, X) -> hosts the generator asserted, base and tail alike.
  std::unordered_map<uint64_t, std::vector<uint32_t>> hosts;
  for (size_t i = 0; i < g.inds.size(); ++i) {
    for (const auto& [role, target] : g.inds[i].fills) {
      hosts[(uint64_t{static_cast<uint32_t>(role)} << 32) | target].push_back(
          static_cast<uint32_t>(i));
    }
  }
  std::map<std::string, int> naive_left = {
      {"ask_selective", 4}, {"ask_scan", 4}, {"instances_of", 3}};
  int facts_left = 300, possible_left = 3, parents_left = 20, msc_left = 60;
  for (const ReadOp& op : reads) {
    const std::string& text = op.request.text;
    auto nl = naive_left.find(op.cls);
    if (nl != naive_left.end() && nl->second > 0) {
      --nl->second;
      note(CheckAgainstNaive(kb, text, serve(op.request)));
    }
    if (op.cls == "ask_selective" && facts_left-- > 0) {
      int p = 0, r = 0;
      unsigned long x = 0;
      if (std::sscanf(text.c_str(), "(AND PRIM-%d (FILLS r%d I%lu))", &p, &r, &x) != 3) {
        out->Fail("unexpected selective query " + text);
        continue;
      }
      std::vector<std::string> expected;
      for (uint32_t h : hosts[(uint64_t{static_cast<uint32_t>(r)} << 32) | x]) {
        if (g.inds[h].prim >= 0 && g.PrimBelow(g.inds[h].prim, p)) {
          expected.push_back(Layered::IndName(h));
        }
      }
      note(CheckSubset(expected, serve(op.request), "generator facts of " + text));
    } else if (op.cls == "ask_possible" && possible_left-- > 0) {
      note(CheckDisjoint(serve(QueryRequest::Ask(text)), serve(op.request),
                         "ask and ask-possible of " + text));
    } else if (op.cls == "instances_of" && parents_left-- > 0) {
      const std::vector<std::string> inst = serve(op.request);
      auto parents = classic::ConceptParents(kb, text);
      if (!parents.ok()) {
        out->Fail("no parents for " + text);
        continue;
      }
      for (const std::string& parent : *parents) {
        if (parent == "CLASSIC-THING" || parent == "THING") continue;
        note(CheckSubset(inst, serve(QueryRequest::InstancesOf(parent)),
                         "instances-of " + text + " within parent " + parent));
      }
    } else if (op.cls == "msc" && msc_left-- > 0) {
      note(CheckMsc(kb, text, serve(op.request)));
    }
  }
}

}  // namespace

Outcome RunQuery100k(const Args& args) {
  Outcome out;
  Tracer tracer(args.trace);
  LayeredSpec spec;
  spec.seed = args.seed;
  const Layered g = MakeLayered(spec);
  Phase("query-100k: generated " + std::to_string(g.inds.size()) + " individuals");
  Database db;
  if (classic::Status st = LoadLayeredBase(&db, g); !st.ok()) {
    out.Fail("bulk load: " + st.ToString());
    return out;
  }
  Phase("bulk load done");
  KbEngine engine(SingleThreadEngine());
  Session writer(&engine);
  Session reader(&engine);
  if (!writer.Publish(db.kb()).ok() || !reader.Sync().ok()) {
    out.Fail("first publish");
    return out;
  }

  // The incremental tail, logged, with a publish and fresh reads per chunk.
  const std::string log_path =
      args.out_dir + "/query-100k-" + std::to_string(::getpid()) + ".log";
  std::filesystem::remove(log_path);
  classic::storage::OperationLog traced_log;
  Samples writes;
  CounterTotals counts;
  StreamSink sink;
  sink.tracer = &tracer;
  if (args.trace) {
    sink.counts = &counts;
    sink.traced_log = &traced_log;
    if (!traced_log.Open(log_path).ok()) out.Fail("cannot open " + log_path);
  } else if (!db.OpenLog(log_path).ok()) {
    out.Fail("cannot open " + log_path);
  }
  const std::vector<WriteOp> tail = LayeredTail(g);
  // In windows of kTailWindow chunks, about a second each: assert_us is
  // the lowest window median, as the read metrics are the lowest round
  // medians. publish_ms is the mean over the whole tail: about a third of
  // the publishes take 0.1-0.4 s and the rest about 0.2 ms, so a median
  // falls on the cheap mode at a point set by the share of slow ones, and
  // swung by a third between two processes of the same seed. The mean is
  // the cost per epoch, slow publishes included.
  Samples window_medians;
  for (size_t begin = 0; begin < tail.size(); begin += kTailWindow * kTailChunk) {
    const std::vector<WriteOp> part(
        tail.begin() + begin,
        tail.begin() + std::min(tail.size(), begin + kTailWindow * kTailChunk));
    Samples window;
    sink.samples = &window;
    StreamChunks(&db, &writer, &reader, part, kTailChunk,
                 [&](size_t i) { return LayeredFreshReads(IndexOfName(part[i].a)); },
                 &sink);
    writes.Merge(window);
    window_medians.AddMedians(window);
  }
  out.attempted += sink.attempted;
  out.failed += sink.failed;
  Phase("incremental tail done");
  const uintmax_t log_bytes = std::filesystem::file_size(log_path);

  const std::vector<ReadOp> reads = LayeredReads(g, kReadsPerRound, args.seed);
  const std::vector<std::vector<QueryRequest>> batches = MakeBatches(g, args.seed);
  // Warm-up: one untimed pass over the sequence.
  for (const ReadOp& op : reads) reader.Serve(op.request);
  const double setup_s = static_cast<double>(NowNanos() - kProcessStartNanos) / 1e9;
  Phase("warm-up done; timed phase starts");

  Samples samples;        // every timed read, for the ref lines
  Samples round_medians;  // per class, one median per round
  // One round: the whole read sequence, a batch every kBatchEvery reads.
  auto round = [&](Samples* into, bool traced, CounterTotals* counted,
                   std::vector<std::string>* canon, double* serve_ns) {
    classic::SnapshotPtr snap = engine.SnapshotAt(reader.epoch());
    for (size_t k = 0; k < reads.size(); ++k) {
      if (k % kBatchEvery == 0 && !traced) {
        const auto& batch = batches[(k / kBatchEvery) % batches.size()];
        const uint64_t start = NowNanos();
        std::vector<QueryAnswer> answers = reader.ServeBatch(batch);
        into->Add("batch", MicrosSince(start));
        out.attempted += answers.size();
        for (const QueryAnswer& a : answers) out.failed += a.status.ok() ? 0 : 1;
      }
      const ReadOp& op = reads[k];
      std::optional<classic::obs::CounterDeltaScope> window;
      if (counted != nullptr) window.emplace();
      const uint64_t start = NowNanos();
      QueryAnswer a;
      if (traced) {
        Tracer::Scope root(&tracer, Tracer::Intern(op.cls));
        a = ServeTraced(snap->kb(), op.request, &tracer);
      } else {
        a = reader.Serve(op.request);
      }
      into->Add(op.cls, MicrosSince(start));
      if (traced) ProbeClassifyAndPlan(snap->kb(), op.request, &tracer);
      ++out.attempted;
      if (!a.status.ok()) ++out.failed;
      if (counted != nullptr) {
        counted->Add(op.cls, window->Deltas());
        if (op.request.kind == QueryRequest::Kind::kAsk) {
          counted->answers += a.values.size();
        }
      }
      if (serve_ns != nullptr) *serve_ns += static_cast<double>(a.stats.wall_nanos);
      if (canon != nullptr) {
        if (canon->size() <= k) {
          canon->push_back(a.Canonical());
        } else if ((*canon)[k] != a.Canonical()) {
          out.Fail("traced pipeline answer differs for " + op.request.ToWire());
        }
      }
    }
  };

  if (!args.trace) {
    const uint64_t deadline =
        NowNanos() + static_cast<uint64_t>(args.seconds * 1e9);
    do {
      Samples r;
      round(&r, false, nullptr, nullptr, nullptr);
      samples.Merge(r);
      round_medians.AddMedians(r);
    } while (NowNanos() < deadline);
  } else {
    // Counted untraced pass, traced pass (same answers), untraced baseline.
    std::vector<std::string> canon;
    double serve_ns = 0;
    Samples counted_pass, traced_pass;
    round(&counted_pass, false, &counts, &canon, &serve_ns);
    round(&traced_pass, true, nullptr, &canon, nullptr);
    round(&samples, false, nullptr, nullptr, nullptr);
    round_medians.AddMedians(samples);
    out.layer["kb.serve_query_us"] = serve_ns / 1e3 / static_cast<double>(reads.size());
    {
      Tracer::Scope root(&tracer, "recover");
      auto ops = [&] {
        Tracer::Scope s(&tracer, "storage.read_ops");
        return classic::storage::ReadOperations(log_path);
      }();
      if (!ops.ok()) out.Fail("cannot read back " + log_path);
    }
    AddCounterMetrics(counts, &out);
    AddSpanMetrics(tracer, &out);
    AddPublishMetrics(sink, &out);
    out.layer["storage.log_bytes_per_op"] =
        static_cast<double>(log_bytes) / static_cast<double>(tail.size());
    ReportTrace(tracer, samples,
                args.out_dir + "/trace-query-100k-" + std::to_string(args.seed) + ".json",
                &out);
  }

  Phase("timed phase done; checking answers");
  CheckQueries(g, reads, &reader, &out);
  std::filesystem::remove(log_path);
  // Read before the part-of step, whose KB would add to the high-water mark.
  const double peak_rss_mb = PeakRssMiB();
  Phase("checks done; part-of step starts");
  RunPartOfStep(args, &out);
  Phase("part-of step done");

  samples.PrintReference("ref");
  writes.PrintReference("ref");
  out.Add("setup_s", setup_s, "s");
  out.Add("peak_rss_mb", peak_rss_mb, "MiB");
  for (const char* cls : {"ask_selective", "ask_scan", "ask_description",
                          "path_query", "describe", "instances_of", "batch"}) {
    out.Add(std::string(cls) + "_us", round_medians.Lowest(cls), "us");
  }
  out.Add("assert_us", window_medians.Lowest("assert"), "us");
  out.Add("publish_ms", writes.Mean("publish") / 1e3, "ms");
  Phase("reported");
  return out;
}

}  // namespace perfbench
