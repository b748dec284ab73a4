#include "gen.h"

#include <deque>

#include "util/rng.h"

namespace perfbench {

namespace {
constexpr uint64_t kSchemaSeed = 42;
}  // namespace

using classic::Database;
using classic::QueryRequest;
using classic::Rng;
using classic::Status;

Status Apply(Database* db, const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::kDefineRole:
      return db->DefineRole(op.a);
    case WriteOp::kDefineAttribute:
      return db->DefineAttribute(op.a);
    case WriteOp::kDefineConcept:
      return db->DefineConcept(op.a, op.b);
    case WriteOp::kRule:
      return db->AssertRule(op.a, op.b);
    case WriteOp::kCreate:
      return db->CreateIndividual(op.a);
    case WriteOp::kAssert:
      return db->AssertInd(op.a, op.b);
    case WriteOp::kRetract:
      return db->RetractInd(op.a, op.b);
  }
  return Status::InvalidArgument("unknown write op");
}

// --- Layered taxonomy ----------------------------------------------------------

bool Layered::PrimBelow(int p, int ancestor) const {
  for (; p >= 0; p = prim_parent[static_cast<size_t>(p)]) {
    if (p == ancestor) return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> Layered::Assertions(
    size_t i) const {
  std::vector<std::pair<std::string, std::string>> out;
  const Ind& ind = inds[i];
  const std::string name = IndName(i);
  if (ind.prim >= 0) out.emplace_back(name, PrimName(ind.prim));
  for (const auto& [role, target] : ind.fills) {
    out.emplace_back(name, "(FILLS " + RoleName(role) + " " +
                               IndName(target) + ")");
  }
  if (ind.at_most_role >= 0) {
    out.emplace_back(name, "(AT-MOST " + std::to_string(ind.at_most) + " " +
                               RoleName(ind.at_most_role) + ")");
  }
  return out;
}

Layered MakeLayered(const LayeredSpec& spec) {
  // The schema is the same for every seed, so that seeds vary the data and
  // the request stream but not the taxonomy every query is classified in.
  Rng rng(kSchemaSeed);
  Layered g;
  g.spec = spec;
  for (size_t r = 0; r < spec.roles; ++r) {
    g.schema.push_back({WriteOp::kDefineRole, Layered::RoleName(r), ""});
  }
  // A primitive tree of branching 4: PRIM-i's parent is PRIM-((i-1)/4).
  for (size_t p = 0; p < spec.primitives; ++p) {
    const int parent = p == 0 ? -1 : static_cast<int>((p - 1) / 4);
    g.prim_parent.push_back(parent);
    g.schema.push_back(
        {WriteOp::kDefineConcept, Layered::PrimName(p),
         "(PRIMITIVE " +
             (parent < 0 ? std::string("CLASSIC-THING")
                         : Layered::PrimName(static_cast<size_t>(parent))) +
             " prim" + std::to_string(p) + ")"});
  }
  // Defined concepts: a primitive conjoined with one to three
  // restrictions, mostly AT-LEAST so that individuals are recognized.
  for (size_t d = 0; d < spec.defined; ++d) {
    std::string body = "(AND " + Layered::PrimName(rng.Below(spec.primitives));
    const size_t n = 1 + rng.Below(3);
    bool at_least_only = true;
    for (size_t k = 0; k < n; ++k) {
      const std::string role = Layered::RoleName(rng.Below(spec.roles));
      const uint64_t pick = rng.Below(4);
      if (pick <= 1) {
        body += " (AT-LEAST " + std::to_string(1 + rng.Below(2)) + " " + role + ")";
      } else if (pick == 2) {
        at_least_only = false;
        body += " (AT-MOST " + std::to_string(4 + rng.Below(8)) + " " + role + ")";
      } else {
        at_least_only = false;
        body += " (ALL " + role + " " +
                Layered::PrimName(rng.Below(spec.primitives)) + ")";
      }
    }
    g.schema.push_back({WriteOp::kDefineConcept, Layered::DefName(d), body + ")"});
    if (at_least_only) g.recognizable.push_back(d);
  }
  rng = Rng(spec.seed * 0x9E3779B97F4A7C15ULL + 11);
  const size_t total = spec.individuals + spec.tail;
  g.inds.resize(total);
  for (size_t i = 0; i < total; ++i) {
    Layered::Ind& ind = g.inds[i];
    if (rng.Chance(0.9)) ind.prim = static_cast<int>(rng.Below(spec.primitives));
    for (size_t k = 0; i > 0 && k < spec.fills; ++k) {
      ind.fills.emplace_back(static_cast<int>(rng.Below(spec.roles)),
                             static_cast<uint32_t>(rng.Below(i)));
    }
    if (rng.Chance(0.25)) {
      ind.at_most_role = static_cast<int>(rng.Below(spec.roles));
      ind.at_most = static_cast<int>(6 + rng.Below(6));
    }
  }
  return g;
}

Status LoadLayeredBase(Database* db, const Layered& g) {
  for (const WriteOp& op : g.schema) {
    CLASSIC_RETURN_NOT_OK(Apply(db, op));
  }
  std::vector<std::pair<std::string, std::string>> batch;
  for (size_t i = 0; i < g.spec.individuals; ++i) {
    CLASSIC_RETURN_NOT_OK(db->CreateIndividual(Layered::IndName(i)));
    for (auto& a : g.Assertions(i)) batch.push_back(std::move(a));
  }
  return db->BulkAssert(batch);
}

std::vector<WriteOp> LayeredTail(const Layered& g) {
  std::vector<WriteOp> out;
  for (size_t i = g.spec.individuals; i < g.inds.size(); ++i) {
    out.push_back({WriteOp::kCreate, Layered::IndName(i), ""});
    for (auto& [name, expr] : g.Assertions(i)) {
      out.push_back({WriteOp::kAssert, name, expr});
    }
  }
  return out;
}

namespace {

// A base individual with a told primitive and at least one fill, drawn
// from the upper nine tenths of the base (earlier individuals are hubs
// with long posting lists).
size_t PickFilled(const Layered& g, Rng* rng) {
  const size_t n = g.spec.individuals;
  while (true) {
    const size_t i = n / 10 + rng->Below(n - n / 10);
    if (g.inds[i].prim >= 0 && !g.inds[i].fills.empty()) return i;
  }
}

// A random ancestor-or-self of primitive p.
int PickAncestor(const Layered& g, int p, Rng* rng) {
  std::vector<int> chain;
  for (; p >= 0; p = g.prim_parent[static_cast<size_t>(p)]) chain.push_back(p);
  // Skip the root (PRIM-0 covers nine tenths of the base).
  if (chain.size() > 1) chain.pop_back();
  return chain[rng->Below(chain.size())];
}

std::string SelectiveText(const Layered& g, size_t i, Rng* rng) {
  const auto& [role, target] = g.inds[i].fills[rng->Below(g.inds[i].fills.size())];
  return "(AND " + Layered::PrimName(PickAncestor(g, g.inds[i].prim, rng)) +
         " (FILLS " + Layered::RoleName(role) + " " + Layered::IndName(target) +
         "))";
}

// Primitives of the deepest level of the tree: extensions of about
// individuals/primitives each, scanned with residual instance tests.
std::string ScanText(const Layered& g, Rng* rng) {
  const size_t first_leaf = 21;
  const size_t p = first_leaf + rng->Below(g.spec.primitives - first_leaf);
  return "(AND " + Layered::PrimName(p) + " (AT-LEAST 2 " +
         Layered::RoleName(rng->Below(g.spec.roles)) + "))";
}

}  // namespace

std::vector<ReadOp> LayeredReads(const Layered& g, size_t n, uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  // Mix proportions, per 1000 operations.
  static const std::pair<const char*, int> kMix[] = {
      {"ask_selective", 260}, {"ask_scan", 60},   {"ask_description", 150},
      {"path_query", 150},    {"describe", 150},  {"msc", 100},
      {"instances_of", 130},
  };
  // ask-possible tests every visible individual (~0.1 s at 100k): one
  // per sequence, at a seeded position.
  const size_t possible_at = rng.Below(n);
  std::vector<ReadOp> out;
  out.reserve(n);
  const size_t base = g.spec.individuals;
  for (size_t k = 0; k < n; ++k) {
    int draw = static_cast<int>(rng.Below(1000));
    std::string cls;
    for (const auto& [name, weight] : kMix) {
      if (draw < weight) {
        cls = name;
        break;
      }
      draw -= weight;
    }
    if (k == possible_at) cls = "ask_possible";
    QueryRequest req;
    if (cls == "ask_selective") {
      req = QueryRequest::Ask(SelectiveText(g, PickFilled(g, &rng), &rng));
    } else if (cls == "ask_scan") {
      req = QueryRequest::Ask(ScanText(g, &rng));
    } else if (cls == "ask_possible") {
      req = QueryRequest::AskPossible(ScanText(g, &rng));
    } else if (cls == "ask_description") {
      req = QueryRequest::AskDescription(
          "(AND " + Layered::PrimName(rng.Below(g.spec.primitives)) +
          " (AT-LEAST 1 " + Layered::RoleName(rng.Below(g.spec.roles)) +
          ") (ALL " + Layered::RoleName(rng.Below(g.spec.roles)) + " " +
          Layered::PrimName(rng.Below(g.spec.primitives)) + "))");
    } else if (cls == "path_query") {
      const size_t i = PickFilled(g, &rng);
      req = QueryRequest::PathQuery(
          "(select (?x ?y) (?x " + SelectiveText(g, i, &rng) + ") (?x " +
          Layered::RoleName(rng.Below(g.spec.roles)) + " ?y))");
    } else if (cls == "describe") {
      req = QueryRequest::DescribeIndividual(Layered::IndName(rng.Below(base)));
    } else if (cls == "msc") {
      req = QueryRequest::MostSpecificConcepts(Layered::IndName(rng.Below(base)));
    } else {
      // A recognizable defined concept or a primitive below level 1: many
      // distinct extensions, so the median does not jump between a few.
      const size_t pick = rng.Below(g.recognizable.size() + g.spec.primitives - 5);
      req = QueryRequest::InstancesOf(
          pick < g.recognizable.size()
              ? Layered::DefName(g.recognizable[pick])
              : Layered::PrimName(5 + pick - g.recognizable.size()));
    }
    out.push_back({cls, std::move(req)});
  }
  return out;
}

std::vector<ReadOp> LayeredFreshReads(size_t newest) {
  const std::string name = Layered::IndName(newest);
  return {{"fresh", QueryRequest::DescribeIndividual(name)},
          {"fresh", QueryRequest::MostSpecificConcepts(name)}};
}

// --- Deep part-of shape --------------------------------------------------------

PartOf MakePartOf(const PartOfSpec& spec) {
  Rng rng(spec.seed * 0xA24BAED4963EE407ULL + 3);
  PartOf g;
  g.spec = spec;
  auto define = [&](const std::string& name, const std::string& def) {
    g.schema.push_back({WriteOp::kDefineConcept, name, def});
  };
  g.schema.push_back({WriteOp::kDefineRole, "has-part", ""});
  g.schema.push_back({WriteOp::kDefineAttribute, "part-of", ""});
  g.schema.push_back({WriteOp::kDefineAttribute, "maker", ""});
  define("COMPONENT", "(PRIMITIVE CLASSIC-THING component)");
  define("ASSEMBLY", "(PRIMITIVE COMPONENT assembly)");
  define("PLANT", "(PRIMITIVE CLASSIC-THING plant)");
  define("INSPECTED", "(PRIMITIVE COMPONENT inspected)");
  // SAFE-k restricts every part to SAFE-(k+1): told on a root, it
  // cascades down the whole part tree.
  const std::string leaf = "SAFE-" + std::to_string(spec.depth);
  define(leaf, "(PRIMITIVE COMPONENT safe)");
  for (size_t k = spec.depth; k-- > 0;) {
    define("SAFE-" + std::to_string(k),
            "(AND COMPONENT (ALL has-part SAFE-" + std::to_string(k + 1) + "))");
  }
  // A part made where its whole is made: a SAME-AS over attribute chains.
  define("LOCAL-PART", "(AND COMPONENT (SAME-AS (maker) (part-of maker)))");
  // Rules whose consequents propagate further: down the parts, then on
  // to the makers.
  g.rules = {{"SAFE-2", "(AND INSPECTED (ALL has-part INSPECTED))"},
             {"INSPECTED", "(ALL maker PLANT)"}};
  for (const auto& [a, c] : g.rules) g.schema.push_back({WriteOp::kRule, a, c});

  auto plant = [&] { return "Plant" + std::to_string(rng.Below(spec.plants)); };
  for (size_t p = 0; p < spec.plants; ++p) {
    g.stream.push_back({WriteOp::kCreate, "Plant" + std::to_string(p), ""});
  }
  auto assert_op = [&](const std::string& name, const std::string& expr) {
    g.stream.push_back({WriteOp::kAssert, name, expr});
  };
  std::vector<std::string> safe_roots;
  size_t counter = 0;
  for (size_t t = 0; t < spec.trees; ++t) {
    const std::string root = "A" + std::to_string(t);
    g.roots.push_back(root);
    g.nodes.push_back(root);
    g.root_of.push_back(t);
    g.stream.push_back({WriteOp::kCreate, root, ""});
    assert_op(root, "ASSEMBLY");
    assert_op(root, "(FILLS maker " + plant() + ")");
    const bool safe_first = rng.Chance(0.5);
    if (safe_first) assert_op(root, "SAFE-0");
    // Breadth-first growth. A deferred child is mentioned by its whole
    // (has-part) before its own description arrives a few nodes later.
    std::vector<std::string> level = {root};
    std::deque<std::pair<size_t, std::vector<WriteOp>>> deferred;
    for (size_t d = 1; d <= spec.depth; ++d) {
      std::vector<std::string> next;
      for (const std::string& whole : level) {
        const size_t kids = spec.fanout;
        for (size_t c = 0; c < kids; ++c) {
          const std::string part = "P" + std::to_string(counter++);
          g.nodes.push_back(part);
          g.root_of.push_back(t);
          next.push_back(part);
          std::vector<WriteOp> own = {
              {WriteOp::kAssert, part, "COMPONENT"},
              {WriteOp::kAssert, part, "(FILLS part-of " + whole + ")"}};
          if (rng.Chance(0.5)) {
            own.push_back({WriteOp::kAssert, part, "LOCAL-PART"});
            g.local_parts.push_back(part);
          } else if (rng.Chance(0.5)) {
            own.push_back({WriteOp::kAssert, part, "(FILLS maker " + plant() + ")"});
          }
          g.stream.push_back({WriteOp::kCreate, part, ""});
          if (rng.Chance(0.3)) {
            assert_op(whole, "(FILLS has-part " + part + ")");
            deferred.emplace_back(g.nodes.size() + 3, std::move(own));
          } else {
            for (WriteOp& op : own) g.stream.push_back(std::move(op));
            assert_op(whole, "(FILLS has-part " + part + ")");
          }
          while (!deferred.empty() && deferred.front().first <= g.nodes.size()) {
            for (WriteOp& op : deferred.front().second) g.stream.push_back(std::move(op));
            deferred.pop_front();
          }
        }
      }
      level = std::move(next);
    }
    for (auto& [due, ops] : deferred) {
      for (WriteOp& op : ops) g.stream.push_back(std::move(op));
    }
    if (!safe_first) assert_op(root, "SAFE-0");
    safe_roots.push_back(root);
  }
  g.individuals = g.nodes.size() + spec.plants;
  // Retractions: SAFE-0 from three roots (each re-derives the base).
  for (size_t k = 0; k < 3 && k < safe_roots.size(); ++k) {
    const size_t pick = (k * safe_roots.size()) / 3 + rng.Below(safe_roots.size() / 3);
    g.retractions.push_back({WriteOp::kRetract, safe_roots[pick], "SAFE-0"});
  }
  return g;
}

std::vector<ReadOp> PartOfReads(const PartOf& g, size_t newest, size_t salt) {
  const std::string& node = g.nodes[newest];
  const std::string& root = g.roots[g.root_of[newest]];
  std::vector<ReadOp> out = {
      {"fresh", QueryRequest::DescribeIndividual(node)},
      {"fresh", QueryRequest::MostSpecificConcepts(node)},
      {"ask_selective",
       QueryRequest::Ask("(AND COMPONENT (FILLS has-part " + node + "))")},
      {"ask_scan", QueryRequest::Ask("(AND COMPONENT (AT-LEAST 2 has-part))")},
      {"ask_description",
       QueryRequest::AskDescription("(AND LOCAL-PART (ALL has-part SAFE-3))")},
      {"path_query",
       QueryRequest::PathQuery("(select (?x ?y) (?x (AND COMPONENT (FILLS part-of " +
                               root + "))) (?x maker ?y))")},
      {"describe", QueryRequest::DescribeIndividual(root)},
      {"msc", QueryRequest::MostSpecificConcepts(g.nodes[newest / 2])},
      {"instances_of",
       QueryRequest::InstancesOf(salt % 2 == 0 ? "INSPECTED" : "SAFE-2")},
  };
  if (salt % 8 == 0) {
    out.push_back({"ask_possible",
                   QueryRequest::AskPossible("(AND COMPONENT (AT-LEAST 2 has-part))")});
  }
  return out;
}

}  // namespace perfbench
