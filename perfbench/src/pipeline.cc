#include "pipeline.h"

#include "classic/interpreter.h"
#include "desc/parser.h"
#include "query/describe.h"
#include "query/introspect.h"
#include "query/path_query.h"
#include "query/planner.h"
#include "query/query.h"
#include "sexpr/sexpr.h"
#include "storage/log.h"

namespace perfbench {

using classic::IndId;
using classic::KnowledgeBase;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Result;
using classic::Status;

namespace {

std::vector<std::string> Names(const KnowledgeBase& kb,
                               const std::vector<IndId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (IndId i : ids) out.push_back(kb.vocab().IndividualName(i));
  return out;
}

// The name lookup of KbEngine's individual kinds: visible in this epoch.
Result<IndId> FindVisible(const KnowledgeBase& kb, const std::string& name) {
  classic::Symbol sym = kb.vocab().symbols().Lookup(name);
  if (sym == classic::kNoSymbol) {
    return Status::NotFound("unknown individual: " + name);
  }
  Result<IndId> ind = kb.vocab().FindIndividual(sym);
  if (ind.ok() && *ind >= kb.num_visible_individuals()) {
    return Status::NotFound("unknown individual: " + name);
  }
  return ind;
}

// sexpr read + description parse of a concept query (ParseQueryString).
Result<classic::Query> ReadQuery(const KnowledgeBase& kb,
                                 const std::string& text, Tracer* t) {
  Result<std::vector<classic::sexpr::Value>> forms = [&] {
    Tracer::Scope s(t, "sexpr.read");
    return classic::sexpr::ParseAll(text);
  }();
  if (!forms.ok()) return forms.status();
  if (forms->size() != 1) {
    return Status::InvalidArgument("expected a single query expression");
  }
  Tracer::Scope s(t, "desc.parse");
  return classic::ParseQuery((*forms)[0], &kb.vocab().symbols());
}

}  // namespace

QueryAnswer ServeTraced(const KnowledgeBase& kb, const QueryRequest& request,
                        Tracer* t) {
  QueryAnswer out;
  auto fail = [&](const Status& st) {
    out.status = st;
    return out;
  };
  switch (request.kind) {
    case QueryRequest::Kind::kAsk: {
      Result<classic::Query> q = ReadQuery(kb, request.text, t);
      if (!q.ok()) return fail(q.status());
      if (q->has_marker) return fail(Status::InvalidArgument("marked query"));
      Result<classic::NormalFormPtr> nf = [&] {
        Tracer::Scope s(t, "desc.normalize");
        return kb.normalizer().NormalizeConcept(q->level_constraints[0]);
      }();
      if (!nf.ok()) return fail(nf.status());
      Result<classic::RetrievalResult> r = [&] {
        Tracer::Scope s(t, "query.retrieve(classify+plan+execute)");
        return classic::planner::RetrieveConcept(kb, **nf, nullptr);
      }();
      if (!r.ok()) return fail(r.status());
      Tracer::Scope s(t, "kb.render");
      out.values = Names(kb, r->answers);
      return out;
    }
    case QueryRequest::Kind::kAskPossible: {
      Result<classic::Query> q = ReadQuery(kb, request.text, t);
      if (!q.ok()) return fail(q.status());
      Result<std::vector<IndId>> ids = [&] {
        Tracer::Scope s(t, "query.possible(normalize+scan)");
        return classic::RetrievePossible(kb, *q);
      }();
      if (!ids.ok()) return fail(ids.status());
      Tracer::Scope s(t, "kb.render");
      out.values = Names(kb, *ids);
      return out;
    }
    case QueryRequest::Kind::kAskDescription: {
      Result<classic::Query> q = ReadQuery(kb, request.text, t);
      if (!q.ok()) return fail(q.status());
      Result<classic::DescriptionAnswer> a = [&] {
        Tracer::Scope s(t, "query.describe(normalize+classify+close)");
        return classic::AskDescription(kb, *q);
      }();
      if (!a.ok()) return fail(a.status());
      Tracer::Scope s(t, "kb.render");
      out.values.push_back(a->description->ToString(kb.vocab().symbols()));
      for (const std::string& m : a->msc_names) out.values.push_back(m);
      return out;
    }
    case QueryRequest::Kind::kPathQuery: {
      Result<classic::sexpr::Value> v = [&] {
        Tracer::Scope s(t, "sexpr.read");
        return classic::sexpr::Parse(request.text);
      }();
      if (!v.ok()) return fail(v.status());
      Result<classic::PathQuery> q = [&] {
        Tracer::Scope s(t, "desc.path_parse(parse+normalize)");
        return classic::ParsePathQuery(*v, kb);
      }();
      if (!q.ok()) return fail(q.status());
      Result<classic::PathQueryResult> r = [&] {
        Tracer::Scope s(t, "query.path_eval");
        return classic::EvaluatePathQuery(kb, *q);
      }();
      if (!r.ok()) return fail(r.status());
      Tracer::Scope s(t, "kb.render");
      for (const auto& row : classic::PathQueryRowNames(kb, *r)) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line.push_back(' ');
          line.append(row[c]);
        }
        out.values.push_back(std::move(line));
      }
      return out;
    }
    case QueryRequest::Kind::kDescribeIndividual: {
      Result<IndId> ind = [&] {
        Tracer::Scope s(t, "kb.lookup");
        return FindVisible(kb, request.text);
      }();
      if (!ind.ok()) return fail(ind.status());
      Tracer::Scope s(t, "kb.render");
      out.values.push_back(kb.state(*ind).derived->ToString(kb.vocab()));
      return out;
    }
    case QueryRequest::Kind::kMostSpecificConcepts: {
      Result<IndId> ind = [&] {
        Tracer::Scope s(t, "kb.lookup");
        return FindVisible(kb, request.text);
      }();
      if (!ind.ok()) return fail(ind.status());
      Tracer::Scope s(t, "kb.render");
      Result<std::vector<std::string>> msc =
          classic::IndMostSpecificConcepts(kb, *ind);
      if (!msc.ok()) return fail(msc.status());
      out.values = std::move(*msc);
      return out;
    }
    case QueryRequest::Kind::kInstancesOf: {
      Result<classic::NodeId> node = [&]() -> Result<classic::NodeId> {
        Tracer::Scope s(t, "kb.lookup");
        classic::Symbol sym = kb.vocab().symbols().Lookup(request.text);
        if (sym == classic::kNoSymbol) {
          return Status::NotFound("unknown concept: " + request.text);
        }
        CLASSIC_ASSIGN_OR_RETURN(classic::ConceptId cid,
                                 kb.vocab().FindConcept(sym));
        return kb.taxonomy().NodeOf(cid);
      }();
      if (!node.ok()) return fail(node.status());
      Tracer::Scope s(t, "kb.render");
      const std::set<IndId>& inst = kb.Instances(*node);
      out.values = Names(kb, std::vector<IndId>(inst.begin(), inst.end()));
      return out;
    }
  }
  return fail(Status::InvalidArgument("unknown query kind"));
}

void ProbeClassifyAndPlan(const KnowledgeBase& kb, const QueryRequest& request,
                          Tracer* t) {
  if (request.kind != QueryRequest::Kind::kAsk) return;
  auto q = classic::ParseQueryString(request.text, &kb.vocab().symbols());
  if (!q.ok() || q->has_marker) return;
  auto nf = kb.normalizer().NormalizeConcept(q->level_constraints[0]);
  if (!nf.ok()) return;
  Tracer::Scope root(t, "probe");
  {
    Tracer::Scope s(t, "taxonomy.classify");
    classic::Classification c = kb.taxonomy().Classify(**nf);
    (void)c;
  }
  Tracer::Scope s(t, "query.plan");
  classic::planner::PlanNode plan = classic::planner::PlanConcept(kb, **nf);
  (void)plan;
}

std::string LogLine(const classic::Database& db, const WriteOp& op) {
  auto render = [&](const std::string& text) {
    auto d = classic::ParseDescriptionString(text, &db.kb().vocab().symbols());
    return d.ok() ? (*d)->ToString(db.kb().vocab().symbols()) : text;
  };
  switch (op.kind) {
    case WriteOp::kDefineRole:
      return "(define-role " + op.a + ")";
    case WriteOp::kDefineAttribute:
      return "(define-attribute " + op.a + ")";
    case WriteOp::kDefineConcept:
      return "(define-concept " + op.a + " " + render(op.b) + ")";
    case WriteOp::kRule:
      return "(assert-rule " + op.a + " " + render(op.b) + ")";
    case WriteOp::kCreate:
      return "(create-ind " + op.a + ")";
    case WriteOp::kAssert:
      return "(assert-ind " + op.a + " " + render(op.b) + ")";
    case WriteOp::kRetract:
      return "(retract-ind " + op.a + " " + render(op.b) + ")";
  }
  return "";
}

Status ApplyTraced(classic::Database* db, classic::storage::OperationLog* log,
                   const WriteOp& op, Tracer* t) {
  KnowledgeBase& kb = db->kb();
  switch (op.kind) {
    case WriteOp::kCreate: {
      {
        Tracer::Scope s(t, "kb.create");
        auto r = kb.CreateIndividual(op.a);
        if (!r.ok()) return r.status();
      }
      Tracer::Scope s(t, "storage.append");
      return log->AppendLine("(create-ind " + op.a + ")");
    }
    case WriteOp::kAssert:
    case WriteOp::kRetract: {
      Result<classic::sexpr::Value> v = [&] {
        Tracer::Scope s(t, "sexpr.read");
        return classic::sexpr::Parse(op.b);
      }();
      if (!v.ok()) return v.status();
      Result<classic::DescPtr> d = [&] {
        Tracer::Scope s(t, "desc.parse");
        return classic::ParseDescription(*v, &kb.vocab().symbols());
      }();
      if (!d.ok()) return d.status();
      Result<IndId> ind = db->FindIndividual(op.a);
      if (!ind.ok()) return ind.status();
      if (op.kind == WriteOp::kAssert) {
        Tracer::Scope s(t, "kb.assert");
        CLASSIC_RETURN_NOT_OK(kb.AssertInd(*ind, *d));
      } else {
        Tracer::Scope s(t, "kb.retract");
        CLASSIC_RETURN_NOT_OK(kb.RetractInd(*ind, *d));
      }
      Tracer::Scope s(t, "storage.append");
      const std::string rendered = (*d)->ToString(kb.vocab().symbols());
      return log->AppendLine(
          (op.kind == WriteOp::kAssert ? "(assert-ind " : "(retract-ind ") +
          op.a + " " + rendered + ")");
    }
    default: {
      const std::string line = LogLine(*db, op);
      CLASSIC_RETURN_NOT_OK(Apply(db, op));
      return log->AppendLine(line);
    }
  }
}

Result<size_t> ReplayTraced(classic::Database* db, const std::string& path,
                            Tracer* t) {
  Result<std::vector<classic::sexpr::Value>> ops = [&] {
    Tracer::Scope s(t, "storage.read_ops");
    return classic::storage::ReadOperations(path);
  }();
  if (!ops.ok()) return ops.status();
  classic::Interpreter interp(db);
  Tracer::Scope s(t, "storage.replay_apply");
  for (const auto& op : *ops) {
    auto r = interp.Execute(op);
    if (!r.ok()) return r.status();
  }
  return ops->size();
}

}  // namespace perfbench
