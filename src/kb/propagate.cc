#include "kb/propagate.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace classic {

// ---------------------------------------------------------------------------
// Mention scans
// ---------------------------------------------------------------------------

namespace {

void CollectFromForm(const NormalForm& nf, std::vector<IndId>* out) {
  for (const auto& [role, rr] : nf.roles()) {
    for (IndId f : rr.fillers) out->push_back(f);
    if (rr.value_restriction) CollectFromForm(*rr.value_restriction, out);
  }
  if (nf.enumeration()) {
    for (IndId m : *nf.enumeration()) out->push_back(m);
  }
}

}  // namespace

void CollectMentionedIndividuals(const NormalForm& nf,
                                 std::vector<IndId>* out) {
  CollectFromForm(nf, out);
}

bool MentionsIndividuals(const NormalForm& nf) {
  std::vector<IndId> mentions;
  CollectFromForm(nf, &mentions);
  return !mentions.empty();
}

// ---------------------------------------------------------------------------
// PropagationEngine
// ---------------------------------------------------------------------------

PropagationEngine::PropagationEngine(KnowledgeBase* kb,
                                     PropagationJournal* journal,
                                     const DynamicBitset* scope)
    : kb_(kb), journal_(journal), scope_(scope) {}

void PropagationEngine::Enqueue(IndId ind) {
  if (scope_ != nullptr && !scope_->Test(ind)) {
    // Defensive: the component closure should make this unreachable.
    pending_seeds_.push_back(ind);
    return;
  }
  if (queued_.Test(ind)) {
    ++dedup_hits_;
    CLASSIC_OBS_COUNT(kPropagationDedupHits);
    return;
  }
  queued_.Set(ind);
  next_.push_back(ind);
}

Status PropagationEngine::MergeInto(IndId ind, const NormalForm& nf) {
  if (scope_ != nullptr && !scope_->Test(ind)) {
    // Defensive: an out-of-scope derivation is deferred, not applied —
    // the Propagator drains these serially after the parallel join.
    pending_merges_.emplace_back(ind,
                                 kb_->normalizer_->Freeze(NormalForm(nf)));
    return Status::OK();
  }
  IndividualState& st = Touch(ind);
  NormalFormPtr merged = kb_->normalizer_->Meet(*st.derived, nf);
  if (merged->incoherent()) {
    return Status::Inconsistent(
        StrCat("update would make ", kb_->vocab_->IndividualName(ind),
               " incoherent (",
               IncoherenceKindName(merged->incoherence_kind()),
               "): ", merged->incoherence_reason()));
  }
  // Interning makes pointer identity a complete no-change test: both
  // sides come from the store, so structural equality implies the same
  // canonical object. The structural comparison remains as fallback for
  // non-interned configurations.
  const bool unchanged =
      merged == st.derived ||
      (merged->interned_id() != kNoNfId && st.derived->interned_id() != kNoNfId
           ? merged->interned_id() == st.derived->interned_id()
           : merged->Equals(*st.derived));
  if (!unchanged) {
    st.derived = merged;
    Enqueue(ind);
    // Whoever references this individual may now recognize more. A
    // scoped engine must also consult its own staged references: serial
    // runs write referenced_by_ immediately, so a host discovered
    // earlier in this same wavefront is visible here — the staging must
    // not hide it (it would skip exactly the re-derivations the serial
    // schedule performs).
    if (const std::set<IndId>* refs = kb_->referenced_by_.Find(ind)) {
      for (IndId host : *refs) Enqueue(host);
    }
    if (scope_ != nullptr) {
      auto staged = staged_refs_.find(ind);
      if (staged != staged_refs_.end()) {
        for (IndId host : staged->second) Enqueue(host);
      }
    }
  }
  return Status::OK();
}

Status PropagationEngine::Run() {
  std::vector<IndId> wave;
  while (!next_.empty()) {
    wave.clear();
    std::swap(wave, next_);
    for (IndId ind : wave) queued_.Reset(ind);
    ++waves_;
    max_wave_ = std::max(max_wave_, wave.size());
    for (IndId ind : wave) {
      CLASSIC_RETURN_NOT_OK(Step(ind));
    }
  }
  return Status::OK();
}

IndividualState& PropagationEngine::Touch(IndId ind) {
  IndividualState& st = kb_->MutableState(ind);
  journal_->undo.try_emplace(ind, st);
  return st;
}

Status PropagationEngine::Step(IndId ind) {
  ++steps_;
  CLASSIC_OBS_COUNT(kPropagationSteps);
  if (!kb_->IsClassicIndividual(ind)) {
    // Host individuals are immutable values: they are classified (they
    // can belong to enumerated / TEST / built-in concepts) but carry no
    // roles and never gain derived state, so rules do not apply.
    Realize(ind);
    return Status::OK();
  }
  CLASSIC_RETURN_NOT_OK(PropagateToFillers(ind));
  CLASSIC_RETURN_NOT_OK(PropagateCoref(ind));
  Realize(ind);
  CLASSIC_RETURN_NOT_OK(FireRules(ind));
  return Status::OK();
}

bool PropagationEngine::AddReference(IndId filler, IndId host) {
  if (scope_ == nullptr) {
    if (kb_->referenced_by_.Mutable(filler).insert(host).second) {
      journal_->refs_added.emplace_back(filler, host);
      return true;
    }
    return false;
  }
  // Scoped: the shared index must not be written from a worker (the map
  // overlay is not thread-safe); Find() is a safe concurrent read, so
  // known pairs are filtered here and the rest staged for the commit.
  const std::set<IndId>* existing = kb_->referenced_by_.Find(filler);
  if (existing != nullptr && existing->count(host) > 0) return false;
  return staged_refs_[filler].insert(host).second;
}

void PropagationEngine::AddPosting(RoleId role, IndId filler, IndId host) {
  if (scope_ == nullptr) {
    if (kb_->fills_index_.Add(role, filler, host, *kb_->vocab_)) {
      journal_->postings_added.emplace_back(FillsIndex::Key(role, filler),
                                            host);
    }
    return;
  }
  // Scoped: filter against the shared index through the concurrent-read
  // safe Find (postings never drive re-enqueues, so unlike staged_refs_
  // nothing downstream needs to consult the staging mid-run).
  const std::set<IndId>* existing = kb_->fills_index_.Postings(role, filler);
  if (existing != nullptr && existing->count(host) > 0) return;
  staged_postings_[FillsIndex::Key(role, filler)].insert(host);
}

Status PropagationEngine::PropagateToFillers(IndId ind) {
  NormalFormPtr derived = kb_->StateRef(ind).derived;  // snapshot
  for (const auto& [role, rr] : derived->roles()) {
    for (IndId filler : rr.fillers) {
      AddReference(filler, ind);
      AddPosting(role, filler, ind);
      if (!rr.value_restriction || rr.value_restriction->IsThing()) {
        continue;
      }
      const NormalForm& vr = *rr.value_restriction;
      if (kb_->IsClassicIndividual(filler)) {
        Status st = MergeInto(filler, vr);
        if (!st.ok()) {
          return st.WithContext(
              StrCat("propagating (ALL ",
                     kb_->vocab_->symbols().Name(kb_->vocab_->role(role).name),
                     " ...) from ", kb_->vocab_->IndividualName(ind)));
        }
      } else if (!kb_->Satisfies(filler, vr)) {
        return Status::Inconsistent(
            StrCat("host filler ", kb_->vocab_->IndividualName(filler),
                   " of role ",
                   kb_->vocab_->symbols().Name(kb_->vocab_->role(role).name),
                   " on ", kb_->vocab_->IndividualName(ind),
                   " violates the value restriction"));
      }
    }
  }
  return Status::OK();
}

Status PropagationEngine::PropagateCoref(IndId ind) {
  NormalFormPtr derived = kb_->StateRef(ind).derived;
  if (derived->coref().empty()) return Status::OK();
  for (const auto& cls : derived->coref().CanonicalClasses()) {
    std::optional<IndId> value;
    for (const auto& path : cls) {
      std::optional<IndId> v = kb_->ResolvePath(ind, path);
      if (!v) continue;
      if (value && *value != *v) {
        return Status::Inconsistent(
            StrCat("co-reference conflict on ", kb_->vocab_->IndividualName(ind),
                   ": paths resolve to ", kb_->vocab_->IndividualName(*value),
                   " and ", kb_->vocab_->IndividualName(*v)));
      }
      value = v;
    }
    if (!value) continue;
    // Fill the last step of every path whose prefix resolves.
    for (const auto& path : cls) {
      RolePath prefix(path.begin(), path.end() - 1);
      std::optional<IndId> holder = kb_->ResolvePath(ind, prefix);
      if (!holder) continue;
      const RoleRestriction& rr =
          kb_->StateRef(*holder).derived->role(path.back());
      if (rr.fillers.count(*value) > 0) continue;
      NormalForm fill;
      fill.MutableRole(path.back(), *kb_->vocab_)->fillers.insert(*value);
      fill.Tighten(*kb_->vocab_);
      Status st = MergeInto(*holder, fill);
      if (!st.ok()) return st.WithContext("propagating SAME-AS filler");
    }
  }
  return Status::OK();
}

void PropagationEngine::Realize(IndId ind) {
  ++realizations_;
  CLASSIC_OBS_COUNT(kRealizations);
  obs::TraceSpan span("realize");
  const Taxonomy& tax = kb_->taxonomy_;
  const std::set<NodeId>& already = kb_->StateRef(ind).subsumer_nodes;
  std::set<NodeId> subs;
  std::deque<NodeId> queue(tax.roots().begin(), tax.roots().end());
  std::set<NodeId> seen(tax.roots().begin(), tax.roots().end());
  while (!queue.empty()) {
    NodeId node = queue.front();
    queue.pop_front();
    // Recognition is monotone ("every individual can move into a class
    // at most once"), so previously recognized nodes need no re-test.
    if (already.count(node) == 0 && !kb_->Satisfies(ind, *tax.NodeForm(node))) {
      continue;
    }
    subs.insert(node);
    for (NodeId child : tax.Children(node)) {
      if (seen.insert(child).second) queue.push_back(child);
    }
  }
  const IndividualState& st = kb_->StateRef(ind);
  // Monotonicity guard: recognition never retracts (paper Section 5).
  subs.insert(st.subsumer_nodes.begin(), st.subsumer_nodes.end());
  if (subs == st.subsumer_nodes) return;
  // Touch may path-copy the record's chunk; `st`/`already` stay valid
  // (they alias the shared pre-copy chunk) but are stale from here on.
  IndividualState& stw = Touch(ind);
  for (NodeId node : subs) {
    if (stw.subsumer_nodes.count(node) == 0) {
      if (scope_ == nullptr) {
        if (kb_->AddInstance(node, ind)) {
          journal_->instance_inserts.emplace_back(node, ind);
        }
      } else {
        // The instance index is shared across components; stage the
        // insertion for the Propagator's serial commit.
        staged_instances_.insert({node, ind});
      }
    }
  }
  stw.subsumer_nodes = std::move(subs);
  stw.msc.clear();
  for (NodeId node : stw.subsumer_nodes) {
    bool most_specific = true;
    for (NodeId child : tax.Children(node)) {
      if (stw.subsumer_nodes.count(child) > 0) {
        most_specific = false;
        break;
      }
    }
    if (most_specific) stw.msc.insert(node);
  }
}

Status PropagationEngine::FireRules(IndId ind) {
  // Snapshot: rule application can change subsumer_nodes (via Enqueue /
  // later Realize), which re-runs Step anyway.
  std::vector<size_t> pending;
  {
    const IndividualState& st = kb_->StateRef(ind);
    for (NodeId node : st.subsumer_nodes) {
      const std::vector<size_t>* on_node = kb_->rules_on_node_.Find(node);
      if (on_node == nullptr) continue;
      for (size_t idx : *on_node) {
        if (st.applied_rules.count(idx) == 0) pending.push_back(idx);
      }
    }
  }
  for (size_t idx : pending) {
    Touch(ind).applied_rules.insert(idx);
    ++rule_firings_;
    CLASSIC_OBS_COUNT(kRuleFirings);
    Status st = MergeInto(ind, *kb_->rules_[idx].consequent);
    if (!st.ok()) {
      return st.WithContext(StrCat(
          "firing rule on ",
          kb_->vocab_->symbols().Name(
              kb_->vocab_->concept_info(kb_->rules_[idx].antecedent_concept)
                  .name)));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Propagator
// ---------------------------------------------------------------------------

Propagator::Propagator(KnowledgeBase* kb, ThreadPool* pool)
    : kb_(kb), pool_(pool) {}

Status Propagator::Run(
    const std::vector<IndId>& seeds,
    const std::vector<std::pair<IndId, NormalFormPtr>>& merges) {
#if CLASSIC_OBS
  const uint64_t start_ns = obs::MonotonicNanos();
#endif
  // Duplicate seed ids are a pure waste: each dupe would re-enter the
  // first wavefront (one extra re-normalization of an unchanged
  // individual). Dedupe up front, preserving first-occurrence order.
  std::vector<IndId> uniq;
  uniq.reserve(seeds.size());
  {
    DynamicBitset seen;
    for (IndId s : seeds) {
      if (seen.Test(s)) {
        CLASSIC_OBS_COUNT(kPropagationDedupHits);
        continue;
      }
      seen.Set(s);
      uniq.push_back(s);
    }
  }

  size_t waves = 0;
  size_t max_wave = 0;
  size_t num_components = 1;
  Status result;

  // A rule whose consequent mentions individuals can create role edges
  // the partition cannot predict; such databases propagate serially.
  std::vector<Component> comps;
  if (pool_ != nullptr && !kb_->rules_mention_inds_ &&
      uniq.size() + merges.size() >= 2) {
    comps = Partition(uniq, merges);
  }

  if (comps.size() < 2) {
    result = RunSerial(uniq, merges, &waves, &max_wave);
  } else {
    num_components = comps.size();
    // Pre-materialize every state record (StateRef's slow path locks and
    // appends, racing the lock-free size read on the fast path), then
    // pre-own every member's chunk so no worker path-copies a chunk
    // another worker is concurrently reading.
    const IndId total = static_cast<IndId>(kb_->vocab_->num_individuals());
    if (total > 0) kb_->StateRef(total - 1);
    for (const Component& c : comps) {
      for (IndId m : c.members) kb_->MutableState(m);
    }

    // Largest components first: the pool's dynamic scheduler then fills
    // the tail of the schedule with the small ones.
    std::vector<size_t> order(comps.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return comps[a].members.size() > comps[b].members.size();
    });

    std::vector<PropagationJournal> journals(comps.size());
    std::vector<Status> results(comps.size(), Status::OK());
    std::vector<std::unique_ptr<PropagationEngine>> engines(comps.size());
    pool_->ParallelFor(comps.size(), [&](size_t k) {
      const size_t ci = order[k];
      Component& c = comps[ci];
      auto eng =
          std::make_unique<PropagationEngine>(kb_, &journals[ci], &c.scope);
      Status st = Status::OK();
      for (const auto& [ind, nf] : c.merges) {
        st = eng->MergeInto(ind, *nf);
        if (!st.ok()) break;
      }
      if (st.ok()) {
        for (IndId s : c.seeds) eng->Enqueue(s);
        st = eng->Run();
      }
      results[ci] = std::move(st);
      engines[ci] = std::move(eng);
      obs::FlushLocalCounters();
    });

    // Everything below is back on the single writer thread, in
    // deterministic component order. Journals merge unconditionally
    // (failed runs must roll back too); first-touch wins because earlier
    // *phases* of this update may have journaled the same individual.
    for (PropagationJournal& j : journals) {
      for (auto& [ind, saved] : j.undo) {
        journal_.undo.try_emplace(ind, std::move(saved));
      }
      for (const auto& e : j.instance_inserts) {
        journal_.instance_inserts.push_back(e);
      }
      for (const auto& e : j.refs_added) journal_.refs_added.push_back(e);
      for (const auto& e : j.postings_added) journal_.postings_added.push_back(e);
    }
    for (const auto& eng : engines) {
      waves += eng->waves();
      max_wave = std::max(max_wave, eng->max_wave());
      kb_->stats_.propagation_steps += eng->steps();
      kb_->stats_.realizations += eng->realizations();
      kb_->stats_.rule_firings += eng->rule_firings();
    }
    // Every component ran to its own bounded fixed point (no early
    // abort), so the failing set is schedule-independent; report the
    // first failure in component order.
    result = Status::OK();
    for (const Status& st : results) {
      if (!st.ok()) {
        result = st;
        break;
      }
    }
    if (result.ok()) {
      // Commit the staged index updates.
      for (const auto& eng : engines) {
        for (const auto& [node, ind] : eng->staged_instances()) {
          if (kb_->AddInstance(node, ind)) {
            journal_.instance_inserts.emplace_back(node, ind);
          }
        }
        for (const auto& [filler, hosts] : eng->staged_refs()) {
          std::set<IndId>& refs = kb_->referenced_by_.Mutable(filler);
          for (IndId h : hosts) {
            if (refs.insert(h).second) {
              journal_.refs_added.emplace_back(filler, h);
            }
          }
        }
        for (const auto& [key, hosts] : eng->staged_postings()) {
          for (IndId h : hosts) {
            if (kb_->fills_index_.Add(FillsIndex::KeyRole(key),
                                      FillsIndex::KeyFiller(key), h,
                                      *kb_->vocab_)) {
              journal_.postings_added.emplace_back(key, h);
            }
          }
        }
      }
      // Drain deferred out-of-scope work serially (normally empty; the
      // closure construction makes deferrals unreachable).
      std::vector<IndId> pend_seeds;
      std::vector<std::pair<IndId, NormalFormPtr>> pend_merges;
      for (const auto& eng : engines) {
        pend_seeds.insert(pend_seeds.end(), eng->pending_seeds().begin(),
                          eng->pending_seeds().end());
        pend_merges.insert(pend_merges.end(), eng->pending_merges().begin(),
                           eng->pending_merges().end());
      }
      if (!pend_seeds.empty() || !pend_merges.empty()) {
        size_t w = 0;
        size_t mw = 0;
        result = RunSerial(pend_seeds, pend_merges, &w, &mw);
        waves += w;
        max_wave = std::max(max_wave, mw);
      }
    }
  }

#if CLASSIC_OBS
  CLASSIC_OBS_COUNT_N(kPropagationComponents, num_components);
  CLASSIC_OBS_COUNT_N(kPropagationWavefronts, waves);
  obs::CounterMaxTo(obs::Counter::kPropagationMaxWavefront, max_wave);
  obs::RecordLatency(obs::Op::kPropagate, obs::MonotonicNanos() - start_ns);
#endif
  return result;
}

Status Propagator::RunSerial(
    const std::vector<IndId>& seeds,
    const std::vector<std::pair<IndId, NormalFormPtr>>& merges, size_t* waves,
    size_t* max_wave) {
  PropagationEngine engine(kb_, &journal_);
  Status st = Status::OK();
  for (const auto& [ind, nf] : merges) {
    st = engine.MergeInto(ind, *nf);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    for (IndId s : seeds) engine.Enqueue(s);
    st = engine.Run();
  }
  *waves = engine.waves();
  *max_wave = engine.max_wave();
  kb_->stats_.propagation_steps += engine.steps();
  kb_->stats_.realizations += engine.realizations();
  kb_->stats_.rule_firings += engine.rule_firings();
  return st;
}

void Propagator::RollbackAll() {
  for (auto& [ind, saved] : journal_.undo) {
    kb_->MutableState(ind) = std::move(saved);
  }
  for (const auto& [node, ind] : journal_.instance_inserts) {
    kb_->RemoveInstance(node, ind);
  }
  for (const auto& [filler, host] : journal_.refs_added) {
    kb_->referenced_by_.Mutable(filler).erase(host);
  }
  for (const auto& [key, host] : journal_.postings_added) {
    kb_->fills_index_.Remove(FillsIndex::KeyRole(key),
                             FillsIndex::KeyFiller(key), host);
  }
  ++kb_->stats_.rejected_updates;
  journal_ = PropagationJournal{};
}

std::vector<Propagator::Component> Propagator::Partition(
    const std::vector<IndId>& seeds,
    const std::vector<std::pair<IndId, NormalFormPtr>>& merges) const {
  constexpr uint32_t kNone = 0xffffffffu;
  const size_t n = kb_->vocab_->num_individuals();
  std::vector<uint32_t> label(n, kNone);  // discovery label per individual
  std::vector<uint32_t> parent;           // union-find over labels
  std::vector<std::vector<IndId>> found;  // members per discovery label

  auto find = [&parent](uint32_t c) {
    while (parent[c] != c) {
      parent[c] = parent[parent[c]];
      c = parent[c];
    }
    return c;
  };
  auto unite = [&parent, &find](uint32_t a, uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  std::vector<IndId> stack;
  std::vector<IndId> mentions;

  // BFS closure from one root over the role graph: every individual a
  // derived form mentions (fillers at any depth, enumeration members)
  // plus the reverse-filler index. Everything a component's fixed point
  // can read or write is inside this closure — except host individuals,
  // which are immutable leaves: the first component to discover one
  // claims its (idempotent) realization, and later components read it
  // without synchronization instead of being glued to the claimant.
  auto explore = [&](IndId root) {
    if (root >= n || label[root] != kNone) return;
    const uint32_t c = static_cast<uint32_t>(parent.size());
    parent.push_back(c);
    found.emplace_back();
    label[root] = c;
    found[c].push_back(root);
    if (!kb_->IsClassicIndividual(root)) return;  // host: no edges
    stack.assign(1, root);
    while (!stack.empty()) {
      IndId ind = stack.back();
      stack.pop_back();
      mentions.clear();
      CollectMentionedIndividuals(*kb_->StateRef(ind).derived, &mentions);
      if (const std::set<IndId>* refs = kb_->referenced_by_.Find(ind)) {
        mentions.insert(mentions.end(), refs->begin(), refs->end());
      }
      for (IndId m : mentions) {
        if (m >= n) continue;
        if (!kb_->IsClassicIndividual(m)) {
          if (label[m] == kNone) {
            label[m] = c;
            found[c].push_back(m);
          }
          continue;
        }
        if (label[m] == kNone) {
          label[m] = c;
          found[c].push_back(m);
          stack.push_back(m);
        } else {
          unite(c, label[m]);
        }
      }
    }
  };

  for (IndId s : seeds) explore(s);
  for (const auto& [ind, nf] : merges) {
    explore(ind);
    // The merge payload itself creates role edges to everything it
    // mentions the moment it is applied.
    mentions.clear();
    CollectMentionedIndividuals(*nf, &mentions);
    for (IndId m : mentions) {
      if (m >= n) continue;
      explore(m);
      if (kb_->IsClassicIndividual(m)) unite(label[ind], label[m]);
    }
  }

  // Group discovery labels by union-find root, ascending — label order is
  // discovery order, so the result is deterministic for a given input.
  std::map<uint32_t, Component> grouped;
  for (uint32_t c = 0; c < parent.size(); ++c) {
    Component& comp = grouped[find(c)];
    for (IndId m : found[c]) {
      comp.members.push_back(m);
      comp.scope.Set(m);
    }
  }
  for (IndId s : seeds) grouped[find(label[s])].seeds.push_back(s);
  for (const auto& me : merges) {
    grouped[find(label[me.first])].merges.push_back(me);
  }
  std::vector<Component> out;
  out.reserve(grouped.size());
  for (auto& [root, comp] : grouped) out.push_back(std::move(comp));
  return out;
}

}  // namespace classic
