// The part-of write path, run once after query-100k's timed phase as an
// untimed, checked step: a deep part-of KB built from scratch through
// Database with the operation log open (a stream of incremental assert-ind
// calls with SAME-AS chains, ALL restrictions cascading down the part
// trees and rules whose consequents propagate further), a publish and a
// few reads against every chunk's fresh epoch, a fixed set of
// retractions, and recovery by replaying the log into a fresh Database.
// Its checks gate the run; its timings are printed as `ref partof` lines
// and, traced, as the retract and replay layer figures.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "checks.h"
#include "pipeline.h"
#include "workloads.h"

namespace perfbench {

using classic::Database;
using classic::KbEngine;
using classic::Session;

namespace {

constexpr size_t kChunk = 100;  // ops per publish

// Index of the newest component created at or before each stream op.
std::vector<size_t> NewestNodes(const PartOf& g) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < g.nodes.size(); ++i) index[g.nodes[i]] = i;
  std::vector<size_t> out;
  size_t newest = 0;
  for (const WriteOp& op : g.stream) {
    auto it = index.find(op.a);
    if (op.kind == WriteOp::kCreate && it != index.end()) newest = it->second;
    out.push_back(newest);
  }
  return out;
}

}  // namespace

void RunPartOfStep(const Args& args, Outcome* out) {
  PartOfSpec spec;
  spec.seed = args.seed;
  const PartOf g = MakePartOf(spec);
  const std::vector<size_t> newest = NewestNodes(g);
  const std::string log_path =
      args.out_dir + "/partof-" + std::to_string(::getpid()) + ".log";
  std::filesystem::remove(log_path);
  // Its own tracer and counts: the part-of reads must not mix into the
  // query workload's per-class figures.
  Tracer tracer(args.trace);
  CounterTotals counts;
  Samples samples;
  classic::storage::OperationLog traced_log;
  Database db;
  KbEngine engine(SingleThreadEngine());
  Session writer(&engine);
  Session reader(&engine);
  StreamSink sink;
  sink.samples = &samples;
  sink.tracer = &tracer;
  if (args.trace) {
    sink.counts = &counts;
    sink.traced_log = &traced_log;
    if (!traced_log.Open(log_path).ok()) out->Fail("cannot open " + log_path);
  } else if (!db.OpenLog(log_path).ok()) {
    out->Fail("cannot open " + log_path);
  }
  for (const WriteOp& op : g.schema) {
    if (!ApplyTimed(&db, op, &sink).ok()) out->Fail("part-of schema op " + op.a);
  }
  StreamChunks(&db, &writer, &reader, g.stream, kChunk,
               [&](size_t i) { return PartOfReads(g, newest[i], i / kChunk); },
               &sink);
  StreamChunks(&db, &writer, &reader, g.retractions, 1,
               [&](size_t i) { return PartOfReads(g, g.nodes.size() - 1, i); },
               &sink);
  traced_log.Close();
  const size_t logged_ops = g.schema.size() + g.stream.size() + g.retractions.size();
  const uintmax_t log_bytes = std::filesystem::file_size(log_path);

  // Recovery: replay the log into a fresh Database.
  Database recovered;
  const uint64_t replay_start = NowNanos();
  if (args.trace) {
    Tracer::Scope root(&tracer, "recover");
    auto n = ReplayTraced(&recovered, log_path, &tracer);
    if (!n.ok()) out->Fail("part-of replay: " + n.status().ToString());
  } else if (classic::Status st = recovered.LoadFile(log_path); !st.ok()) {
    out->Fail("part-of replay: " + st.ToString());
  }
  const double replay_s = static_cast<double>(NowNanos() - replay_start) / 1e9;
  out->attempted += sink.attempted + 1;
  out->failed += sink.failed;
  std::filesystem::remove(log_path);

  auto note = [&](const std::string& e) {
    if (!e.empty()) out->Fail("part-of: " + e);
  };
  note(CheckRecovered(db, recovered));
  for (const auto& [antecedent, consequent] : g.rules) {
    auto inst = db.InstancesOf(antecedent);
    if (!inst.ok()) {
      out->Fail("part-of: instances-of " + antecedent);
      continue;
    }
    note(CheckRuleClosure(db.kb(), *inst, consequent));
  }
  note(CheckSameAs(MakerChains(db, g.local_parts)));

  samples.PrintReference("ref partof");
  const double replay_per_s = static_cast<double>(logged_ops) / replay_s;
  std::printf("ref partof individuals=%zu ops=%zu replay_per_s=%.1f\n",
              g.individuals, logged_ops, replay_per_s);
  if (args.trace) {
    out->layer["kb.retract_ms"] = tracer.MeanMicros("kb.retract") / 1e3;
    out->layer["kb.retract_steps"] =
        static_cast<double>(counts.Get("retract", classic::obs::Counter::kPropagationSteps)) /
        static_cast<double>(counts.Ops("retract"));
    out->layer["kb.rule_firings_per_assert"] =
        static_cast<double>(counts.Get("assert", classic::obs::Counter::kRuleFirings)) /
        static_cast<double>(counts.Ops("assert"));
    out->layer["storage.replay_apply_us"] = replay_s * 1e6 / static_cast<double>(logged_ops);
    out->layer["storage.replay_per_s"] = replay_per_s;
    std::printf("ref partof log_bytes_per_op=%.2f\n",
                static_cast<double>(log_bytes) / static_cast<double>(logged_ops));
    std::ofstream f(args.out_dir + "/trace-partof-" + std::to_string(args.seed) + ".json");
    f << tracer.ChromeJson();
  }
}

}  // namespace perfbench
