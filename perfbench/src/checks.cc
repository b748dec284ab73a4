#include "checks.h"

#include <algorithm>
#include <set>

#include "desc/parser.h"
#include "query/query.h"
#include "subsume/subsume.h"

namespace perfbench {

using classic::KnowledgeBase;

std::string CheckSameSet(const std::vector<std::string>& got,
                         const std::vector<std::string>& want,
                         const std::string& what) {
  std::set<std::string> a(got.begin(), got.end());
  std::set<std::string> b(want.begin(), want.end());
  if (a == b) return "";
  for (const std::string& x : b) {
    if (a.count(x) == 0) return what + ": missing " + x;
  }
  for (const std::string& x : a) {
    if (b.count(x) == 0) return what + ": unexpected " + x;
  }
  return what + ": duplicate names";
}

std::string CheckSubset(const std::vector<std::string>& sub,
                        const std::vector<std::string>& super,
                        const std::string& what) {
  std::set<std::string> s(super.begin(), super.end());
  for (const std::string& x : sub) {
    if (s.count(x) == 0) return what + ": " + x + " is not in the superset";
  }
  return "";
}

std::string CheckDisjoint(const std::vector<std::string>& a,
                          const std::vector<std::string>& b,
                          const std::string& what) {
  std::set<std::string> s(a.begin(), a.end());
  for (const std::string& x : b) {
    if (s.count(x) > 0) return what + ": " + x + " is in both";
  }
  return "";
}

std::string CheckAgainstNaive(const KnowledgeBase& kb, const std::string& query,
                              const std::vector<std::string>& answer) {
  auto q = classic::ParseQueryString(query, &kb.vocab().symbols());
  if (!q.ok()) return "naive oracle cannot parse " + query;
  auto naive = classic::RetrieveNaive(kb, *q);
  if (!naive.ok()) return "naive oracle failed on " + query;
  std::vector<std::string> want;
  for (classic::IndId i : naive->answers) {
    want.push_back(kb.vocab().IndividualName(i));
  }
  return CheckSameSet(answer, want, "ask " + query + " vs RetrieveNaive");
}

namespace {

classic::Result<classic::NormalFormPtr> NormalFormOf(const KnowledgeBase& kb,
                                                     const std::string& text) {
  CLASSIC_ASSIGN_OR_RETURN(
      classic::DescPtr d,
      classic::ParseDescriptionString(text, &kb.vocab().symbols()));
  return kb.normalizer().NormalizeConcept(d);
}

}  // namespace

std::string CheckMsc(const KnowledgeBase& kb, const std::string& ind,
                     const std::vector<std::string>& msc) {
  auto id = kb.vocab().FindIndividual(kb.vocab().symbols().Lookup(ind));
  if (!id.ok()) return "msc: unknown individual " + ind;
  std::vector<classic::NormalFormPtr> forms;
  for (const std::string& c : msc) {
    auto nf = NormalFormOf(kb, c);
    if (!nf.ok()) return "msc: cannot normalize " + c;
    if (!kb.Satisfies(*id, **nf)) return "msc: " + ind + " is not a " + c;
    forms.push_back(*nf);
  }
  for (size_t a = 0; a < forms.size(); ++a) {
    for (size_t b = 0; b < forms.size(); ++b) {
      if (a != b && classic::Subsumes(*forms[a], *forms[b])) {
        return "msc of " + ind + ": " + msc[a] + " subsumes " + msc[b];
      }
    }
  }
  return "";
}

std::string CheckRuleClosure(const KnowledgeBase& kb,
                             const std::vector<std::string>& instances,
                             const std::string& consequent) {
  auto nf = NormalFormOf(kb, consequent);
  if (!nf.ok()) return "rule: cannot normalize " + consequent;
  for (const std::string& name : instances) {
    auto id = kb.vocab().FindIndividual(kb.vocab().symbols().Lookup(name));
    if (!id.ok() || !kb.Satisfies(*id, **nf)) {
      return "rule: " + name + " lacks consequent " + consequent;
    }
  }
  return "";
}

std::string CheckSameAs(const std::vector<ChainFillers>& chains) {
  for (const ChainFillers& c : chains) {
    std::string e = CheckSameSet(c.left, c.right, "SAME-AS chains of " + c.ind);
    if (!e.empty()) return e;
  }
  return "";
}

std::vector<ChainFillers> MakerChains(const classic::Database& db,
                                      const std::vector<std::string>& inds) {
  std::vector<ChainFillers> out;
  for (const std::string& ind : inds) {
    ChainFillers c{ind, {}, {}};
    if (auto m = db.Fillers(ind, "maker"); m.ok()) c.left = *m;
    if (auto w = db.Fillers(ind, "part-of"); w.ok()) {
      for (const std::string& whole : *w) {
        if (auto m = db.Fillers(whole, "maker"); m.ok()) {
          c.right.insert(c.right.end(), m->begin(), m->end());
        }
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::string CheckRecovered(const classic::Database& live,
                           const classic::Database& recovered) {
  const std::string a = live.kb().CanonicalDerivedState();
  const std::string b = recovered.kb().CanonicalDerivedState();
  if (a == b) return "";
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return "recovered derived state differs from the live one at byte " +
         std::to_string(i);
}

uint64_t WireHash(const std::string& payload) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : payload) h = (h ^ c) * 1099511628211ULL;
  return h;
}

std::string CheckWireAnswer(uint64_t payload_hash,
                            const classic::QueryAnswer& direct) {
  if (payload_hash == WireHash(direct.ToWire())) return "";
  return "wire answer differs from Session::Serve";
}

std::string CheckEpochsMonotone(const std::vector<uint64_t>& epochs) {
  for (size_t i = 1; i < epochs.size(); ++i) {
    if (epochs[i] < epochs[i - 1]) {
      return "epoch moved backwards: " + std::to_string(epochs[i - 1]) +
             " -> " + std::to_string(epochs[i]);
    }
  }
  return "";
}

}  // namespace perfbench
