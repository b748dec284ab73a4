// perfbench_selftest: feeds every correctness check of the benchmark one
// corrupted input and requires it to fail, after requiring the same check
// to pass on the uncorrupted input. A check that passes both is vacuous.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "checks.h"
#include "gen.h"
#include "kb/session.h"
#include "query/introspect.h"

namespace {

using namespace perfbench;
using classic::Database;
using classic::KbEngine;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Session;

int failures = 0;

// `clean` must be empty (check passes) and `corrupt` non-empty (fails).
void Expect(const std::string& name, const std::string& clean,
            const std::string& corrupt) {
  const bool ok = clean.empty() && !corrupt.empty();
  std::printf("%s %-34s clean: %s | corrupted: %s\n", ok ? "PASS" : "FAIL",
              name.c_str(), clean.empty() ? "passes" : clean.c_str(),
              corrupt.empty() ? "PASSES (vacuous check)" : corrupt.c_str());
  if (!ok) ++failures;
}

std::vector<std::string> Values(Session& s, const QueryRequest& r) {
  QueryAnswer a = s.Serve(r);
  if (!a.status.ok()) {
    std::printf("FAIL request %s: %s\n", r.ToWire().c_str(),
                a.status.ToString().c_str());
    ++failures;
  }
  return a.values;
}

void LayeredChecks() {
  LayeredSpec spec;
  spec.individuals = 3000;
  spec.tail = 0;
  spec.seed = 5;
  const Layered g = MakeLayered(spec);
  Database db;
  if (!LoadLayeredBase(&db, g).ok()) {
    std::printf("FAIL load\n");
    ++failures;
    return;
  }
  KbEngine engine;
  Session s(&engine);
  s.Publish(db.kb());
  const classic::KnowledgeBase& kb = engine.snapshot()->kb();

  // An ask answer with one individual dropped, against RetrieveNaive.
  std::string scan_text;
  std::vector<std::string> answer;
  for (const ReadOp& op : LayeredReads(g, 400, 9)) {
    if (op.cls != "ask_scan") continue;
    answer = Values(s, op.request);
    scan_text = op.request.text;
    if (answer.size() >= 2) break;
  }
  std::vector<std::string> dropped(answer.begin() + 1, answer.end());
  Expect("ask vs RetrieveNaive", CheckAgainstNaive(kb, scan_text, answer),
         CheckAgainstNaive(kb, scan_text, dropped));

  // Generator facts within an answer; the corrupted answer lacks one.
  std::vector<std::string> facts = {answer.front()};
  Expect("generator facts within ask", CheckSubset(facts, answer, "facts"),
         CheckSubset(facts, dropped, "facts"));

  // Necessary and possible answers are disjoint; corrupt by sharing one.
  std::vector<std::string> possible = Values(s, QueryRequest::AskPossible(scan_text));
  std::vector<std::string> overlapping = possible;
  overlapping.push_back(answer.front());
  Expect("ask and ask-possible disjoint", CheckDisjoint(answer, possible, "possible"),
         CheckDisjoint(answer, overlapping, "possible"));

  // instances-of C within instances-of its parent; corrupt the parent's.
  const std::string c = Layered::DefName(g.recognizable.front());
  std::vector<std::string> inst = Values(s, QueryRequest::InstancesOf(c));
  auto parents = classic::ConceptParents(kb, c);
  std::string parent = parents.ok() && !parents->empty() ? parents->front() : "";
  std::vector<std::string> parent_inst = Values(s, QueryRequest::InstancesOf(parent));
  std::vector<std::string> parent_short;
  for (const std::string& x : parent_inst) {
    if (inst.empty() || x != inst.front()) parent_short.push_back(x);
  }
  Expect("instances-of within parent", CheckSubset(inst, parent_inst, "parent"),
         CheckSubset(inst, parent_short, "parent"));

  // msc: add a member's parent (it subsumes the member).
  const std::string ind = Layered::IndName(2500);
  std::vector<std::string> msc = Values(s, QueryRequest::MostSpecificConcepts(ind));
  std::vector<std::string> msc_bad = msc;
  if (!msc.empty()) {
    auto up = classic::ConceptParents(kb, msc.front());
    if (up.ok() && !up->empty()) msc_bad.push_back(up->front());
  }
  Expect("msc pairwise non-subsuming", CheckMsc(kb, ind, msc), CheckMsc(kb, ind, msc_bad));

  // A wire answer with two values swapped.
  QueryAnswer direct = s.Serve(QueryRequest::Ask(scan_text));
  QueryAnswer swapped = direct;
  if (swapped.values.size() >= 2) std::swap(swapped.values[0], swapped.values[1]);
  Expect("wire answer byte identity",
         CheckWireAnswer(WireHash(direct.ToWire()), direct),
         CheckWireAnswer(WireHash(swapped.ToWire()), direct));

  Expect("epochs never move backwards", CheckEpochsMonotone({1, 2, 2, 5}),
         CheckEpochsMonotone({1, 3, 2}));
}

void PartOfChecks() {
  PartOfSpec spec;
  spec.trees = 4;
  spec.seed = 5;
  const PartOf g = MakePartOf(spec);
  std::filesystem::create_directories(".bench_out");
  const std::string log =
      ".bench_out/perfbench-selftest-" + std::to_string(::getpid()) + ".log";
  std::filesystem::remove(log);
  Database db;
  db.OpenLog(log);
  for (const auto* ops : {&g.schema, &g.stream, &g.retractions}) {
    for (const WriteOp& op : *ops) {
      if (!Apply(&db, op).ok()) {
        std::printf("FAIL update %s %s\n", op.a.c_str(), op.b.c_str());
        ++failures;
      }
    }
  }

  // A recovered state with one filler removed.
  Database recovered;
  recovered.LoadFile(log);
  const std::string clean = CheckRecovered(db, recovered);
  const std::string part = g.local_parts.front();
  auto whole = db.Fillers(part, "part-of");
  if (!whole.ok() || whole->empty() ||
      !recovered.RetractInd(part, "(FILLS part-of " + whole->front() + ")").ok()) {
    std::printf("FAIL could not remove a filler from the recovered state\n");
    ++failures;
  }
  Expect("recovered state equals live", clean, CheckRecovered(db, recovered));
  std::filesystem::remove(log);

  // Rule closure: add an individual that lacks the consequent.
  const auto& [antecedent, consequent] = g.rules.front();
  auto inst = db.InstancesOf(antecedent);
  std::vector<std::string> names = inst.ok() ? *inst : std::vector<std::string>{};
  std::vector<std::string> bad = names;
  bad.push_back("Plant0");
  Expect("rule antecedent implies consequent",
         names.empty() ? "no antecedent instances" : CheckRuleClosure(db.kb(), names, consequent),
         CheckRuleClosure(db.kb(), bad, consequent));

  // SAME-AS chains: one instance's second chain reaches another filler.
  std::vector<ChainFillers> chains = MakerChains(db, g.local_parts);
  std::vector<ChainFillers> broken = chains;
  for (ChainFillers& c : broken) {
    if (!c.right.empty()) {
      c.right.front() += "-other";
      break;
    }
  }
  Expect("SAME-AS chains meet", CheckSameAs(chains), CheckSameAs(broken));
}

}  // namespace

int main() {
  LayeredChecks();
  PartOfChecks();
  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
