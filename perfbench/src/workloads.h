// The workloads, the part-of step and the write stream they share.

#pragma once

#include <functional>
#include <vector>

#include "classic/database.h"
#include "common.h"
#include "gen.h"
#include "kb/session.h"
#include "storage/log.h"

namespace perfbench {

Outcome RunQuery100k(const Args& args);
Outcome RunServeWire(const Args& args);

/// The part-of write path as one untimed, checked step (partof_step.cc):
/// logged incremental asserts with SAME-AS, cascading ALL and rules, a
/// publish and fresh-epoch reads per chunk, retractions, and log replay
/// into a fresh Database. Adds its operations and check failures to
/// `out`; traced (args.trace), it sets the retract, rule-firing and
/// replay layer figures.
void RunPartOfStep(const Args& args, Outcome* out);

/// Engine options for every workload: one serving thread. KbEngine's
/// pooled QueryBatch can touch its completion latch after the caller has
/// returned (util/thread_pool.cc ParallelFor), which corrupted or hung
/// about one query-100k run in ten on a 4-vCPU VM; with one thread,
/// batches are served inline on the calling thread.
classic::KbEngine::Options SingleThreadEngine();

/// Where StreamChunks records what it did.
struct StreamSink {
  Samples* samples = nullptr;  ///< Classes assert, publish, sync, fresh, reads.
  CounterTotals* counts = nullptr;  ///< Per-class counter deltas (may be null).
  Tracer* tracer = nullptr;
  /// Traced runs log through this instead of the Database's own log.
  classic::storage::OperationLog* traced_log = nullptr;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// obs publish counters summed over the stream's publishes.
  uint64_t chunks_copied = 0;
  uint64_t bytes_shared = 0;
  uint64_t publishes = 0;
};

/// Feeds `ops` through `db` in chunks of `chunk` ops. After each chunk it
/// publishes an epoch (writer session), re-pins `reader` to it, and serves
/// `fresh(i)` (i = index of the last op applied) against it. Reads of
/// class "fresh" are summed into one fresh-epoch sample per epoch; the
/// others are timed in their own class. Updates are timed per assert-ind
/// or retract-ind; publishes and syncs per call.
void StreamChunks(classic::Database* db, classic::Session* writer,
                  classic::Session* reader, const std::vector<WriteOp>& ops,
                  size_t chunk,
                  const std::function<std::vector<ReadOp>(size_t)>& fresh,
                  StreamSink* sink);

/// Applies one op, untraced (through the Database, logged by it) or
/// traced (stage by stage into sink->traced_log), timing updates into
/// sink->samples. Returns the op's status.
classic::Status ApplyTimed(classic::Database* db, const WriteOp& op,
                           StreamSink* sink);

/// kb.publish_chunks_copied and kb.publish_bytes_shared per publish.
void AddPublishMetrics(const StreamSink& sink, Outcome* out);

/// Per-layer counter ratios shared by every workload's traced run.
void AddCounterMetrics(const CounterTotals& counts, Outcome* out);

/// Mean span durations of the layers a traced run recorded.
void AddSpanMetrics(const Tracer& t, Outcome* out);

/// Prints the traced run's per-class self time per layer, its comparison
/// against the untraced medians of the same process, and writes the
/// Chrome trace to `path`.
void ReportTrace(const Tracer& t, const Samples& untraced,
                 const std::string& path, Outcome* out);

/// The per-layer metric names every traced run prints, in order; a layer a
/// workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
