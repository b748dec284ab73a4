// The traced pipelines: the stages that KbEngine::ServeQuery and
// Database's logged updates run, called one public function at a time
// with a span around each. They do the same work as the untraced calls and
// repeat no stage; where one public function covers two layers, its span
// is named for what it covers.

#pragma once

#include <string>

#include "classic/database.h"
#include "common.h"
#include "gen.h"
#include "kb/kb_engine.h"
#include "storage/log.h"

namespace perfbench {

/// Serves `request` against `kb` like KbEngine::ServeQuery (explain off),
/// stage by stage. The caller opens the operation's root span.
classic::QueryAnswer ServeTraced(const classic::KnowledgeBase& kb,
                                 const classic::QueryRequest& request,
                                 Tracer* t);

/// Classifies and plans an ask query's concept outside the pipeline
/// (root span "probe"): the pipeline's planner::RetrieveConcept bundles
/// classification, planning and execution in one call, so these two
/// stages are timed on their own here instead of being split by guess.
void ProbeClassifyAndPlan(const classic::KnowledgeBase& kb,
                          const classic::QueryRequest& request, Tracer* t);

/// The log line Database writes for `op` (its rendering of the
/// expression), so that a traced run can append the same lines itself.
std::string LogLine(const classic::Database& db, const WriteOp& op);

/// Applies `op` like Apply() with an open Database log, stage by stage:
/// sexpr read, description parse, the KnowledgeBase update, then the log
/// append into `log`. Schema ops go through the Database unsplit.
classic::Status ApplyTraced(classic::Database* db,
                            classic::storage::OperationLog* log,
                            const WriteOp& op, Tracer* t);

/// Replays a log into `db` like Database::LoadFile: storage::ReadOperations
/// (span storage.read_ops), then each operation through the interpreter
/// (span storage.replay_apply). Returns the number of operations.
classic::Result<size_t> ReplayTraced(classic::Database* db,
                                     const std::string& path, Tracer* t);

}  // namespace perfbench
