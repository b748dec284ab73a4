// Seeded input generators of the benchmark. They live here, not in
// bench/, so that nothing outside this directory can change the inputs a
// benchmark run measures. Every generator is a pure function of its spec
// (seed included); the program only ever sees the generated text.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"

namespace perfbench {

/// One operation of a workload's read sequence: a labelled request.
struct ReadOp {
  std::string cls;  ///< Operation class (metric name stem).
  classic::QueryRequest request;
};

/// One schema or data operation, in operator-language form, e.g.
/// ("assert-ind", "I12", "(FILLS r3 I7)").
struct WriteOp {
  enum Kind { kDefineRole, kDefineAttribute, kDefineConcept, kRule, kCreate,
              kAssert, kRetract };
  Kind kind;
  std::string a;  ///< Role, concept, antecedent or individual name.
  std::string b;  ///< Definition, consequent or expression (may be empty).
};

/// Applies one op through the Database facade (logged when a log is
/// open).
classic::Status Apply(classic::Database* db, const WriteOp& op);

// --- Layered taxonomy (query-100k, serve-wire) --------------------------------

struct LayeredSpec {
  size_t individuals = 100000;  ///< Bulk-loaded base.
  size_t tail = 1000;           ///< Streamed incrementally after the base.
  size_t primitives = 60;
  size_t defined = 60;
  size_t roles = 12;
  size_t fills = 3;
  uint64_t seed = 1;
};

struct Layered {
  struct Ind {
    int prim = -1;                                ///< Told primitive, or -1.
    std::vector<std::pair<int, uint32_t>> fills;  ///< (role, target ind).
    int at_most_role = -1;
    int at_most = 0;
  };
  LayeredSpec spec;
  std::vector<int> prim_parent;  ///< Parent primitive index, -1 for PRIM-0.
  std::vector<WriteOp> schema;
  /// Defined concepts restricted by AT-LEAST alone: individuals are
  /// recognized under them without closed roles.
  std::vector<size_t> recognizable;
  std::vector<Ind> inds;  ///< Base first, then the tail.

  static std::string IndName(size_t i) { return "I" + std::to_string(i); }
  static std::string PrimName(size_t p) { return "PRIM-" + std::to_string(p); }
  static std::string RoleName(size_t r) { return "r" + std::to_string(r); }
  static std::string DefName(size_t d) { return "DEF-" + std::to_string(d); }

  /// True when primitive `p` is `ancestor` or lies below it.
  bool PrimBelow(int p, int ancestor) const;
  /// The assertions of individual i, as (name, expression) pairs.
  std::vector<std::pair<std::string, std::string>> Assertions(size_t i) const;
};

Layered MakeLayered(const LayeredSpec& spec);

/// Defines the schema, creates the base individuals and bulk-loads their
/// assertions (one BulkAssert).
classic::Status LoadLayeredBase(classic::Database* db, const Layered& g);

/// The incremental tail: create-ind and assert-ind ops of the tail
/// individuals, in stream order.
std::vector<WriteOp> LayeredTail(const Layered& g);

/// A seeded read sequence over the layered KB: `n` operations covering
/// all seven request kinds (two ask classes), interleaved.
std::vector<ReadOp> LayeredReads(const Layered& g, size_t n, uint64_t seed);

/// The reads issued against each freshly published epoch: describe and
/// most-specific-concepts of the newest individual.
std::vector<ReadOp> LayeredFreshReads(size_t newest);

// --- Deep part-of shape (query-100k part-of step, self-test) ------------------

struct PartOfSpec {
  size_t trees = 64;      ///< 63 components each: 4032 plus the plants.
  size_t depth = 5;       ///< Levels below the root assembly.
  size_t fanout = 2;      ///< Parts per component above the leaves.
  size_t plants = 16;
  uint64_t seed = 1;
};

struct PartOf {
  PartOfSpec spec;
  std::vector<WriteOp> schema;
  /// The data stream: create-ind / assert-ind in arrival order. Fillers
  /// arrive both before and after the individuals that mention them.
  std::vector<WriteOp> stream;
  /// The fixed set of retractions applied after the stream.
  std::vector<WriteOp> retractions;
  /// Rules as (antecedent concept, consequent expression).
  std::vector<std::pair<std::string, std::string>> rules;
  /// Names of individuals told a SAME-AS concept (LOCAL-PART).
  std::vector<std::string> local_parts;
  std::vector<std::string> nodes;  ///< Component names, stream order.
  std::vector<size_t> root_of;     ///< Per node: index of its tree's root.
  std::vector<std::string> roots;
  size_t individuals = 0;
};

PartOf MakePartOf(const PartOfSpec& spec);

/// Reads against a freshly published part-of epoch, aimed at the newest
/// streamed component `newest` (index into nodes) and its tree.
std::vector<ReadOp> PartOfReads(const PartOf& g, size_t newest, size_t salt);

}  // namespace perfbench
