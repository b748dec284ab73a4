// Correctness checks of the benchmark. Each compares an answer the
// program gave against a computation made apart from its answer path, or
// against a property the method must have. Every check returns an empty
// string on success and a description of the first violation otherwise;
// they take their inputs as plain data so that the self-test can feed
// each one a corrupted input and see it fail.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"

namespace perfbench {

/// `got` and `want` hold the same names (order ignored).
std::string CheckSameSet(const std::vector<std::string>& got,
                         const std::vector<std::string>& want,
                         const std::string& what);

/// Every name of `sub` is in `super`.
std::string CheckSubset(const std::vector<std::string>& sub,
                        const std::vector<std::string>& super,
                        const std::string& what);

/// `a` and `b` share no name. The necessary and the possible answers of
/// one query are disjoint: RetrievePossible leaves out the individuals
/// already known to satisfy the query.
std::string CheckDisjoint(const std::vector<std::string>& a,
                          const std::vector<std::string>& b,
                          const std::string& what);

/// An `ask` answer equals query::RetrieveNaive (an instance test of every
/// visible individual) over the same snapshot.
std::string CheckAgainstNaive(const classic::KnowledgeBase& kb,
                              const std::string& query,
                              const std::vector<std::string>& answer);

/// A most-specific-concepts set is pairwise non-subsuming and the
/// individual is an instance of each member.
std::string CheckMsc(const classic::KnowledgeBase& kb, const std::string& ind,
                     const std::vector<std::string>& msc);

/// Every listed individual (the instances of a rule antecedent) is an
/// instance of the rule's consequent.
std::string CheckRuleClosure(const classic::KnowledgeBase& kb,
                             const std::vector<std::string>& instances,
                             const std::string& consequent);

/// For a SAME-AS pair of attribute chains: each entry holds the fillers
/// reached by the two chains from one instance; they must be equal.
struct ChainFillers {
  std::string ind;
  std::vector<std::string> left;
  std::vector<std::string> right;
};
std::string CheckSameAs(const std::vector<ChainFillers>& chains);

/// Fillers of (maker) and (part-of maker) for each named individual.
std::vector<ChainFillers> MakerChains(const classic::Database& db,
                                      const std::vector<std::string>& inds);

/// A database recovered from the operation log has the live database's
/// derived state, byte for byte.
std::string CheckRecovered(const classic::Database& live,
                           const classic::Database& recovered);

/// 64-bit FNV-1a digest of a wire payload: the run keeps digests, not the
/// payloads, of the answers it checks afterwards.
uint64_t WireHash(const std::string& payload);

/// A wire answer payload (by digest) is byte-identical to the in-process
/// answer at the same pinned epoch.
std::string CheckWireAnswer(uint64_t payload_hash,
                            const classic::QueryAnswer& direct);

/// The epochs one connection was pinned to, in order, never decrease.
std::string CheckEpochsMonotone(const std::vector<uint64_t>& epochs);

}  // namespace perfbench
