// Copy-on-write persistent containers for O(delta) epoch publication.
//
// StableVector (util/stable_vector.h) solves concurrent *growth*; these
// containers solve cheap *copying*. Publishing an epoch used to deep-copy
// the whole KnowledgeBase (BM_Publish ~3 ms at 1k individuals); with the
// stores below, a publish shares structure with the previous epoch and
// copies only bookkeeping proportional to the mutation set.
//
//  - CowVector<T>: a chunked vector (64-element chunks behind
//    shared_ptr, under a two-level directory of 64-chunk pages).
//    Copying is two shared_ptr copies; the single writer path-copies a
//    chunk (and, once per copy generation, the directory and the page
//    above it) the first time it mutates through shared structure.
//    use_count() > 1 is the COW trigger: extra counts can only come from
//    snapshot copies.
//  - CowBitset: a persistent set of dense ids on the same directory /
//    chunk path-copy idiom — 64-word (4,096-id) chunks, a null chunk
//    reading as zeros, and a maintained member count. The first Set or
//    Reset after a copy path-copies the directory and one 512-byte
//    chunk; copying, publishing and dropping a copy never touch the
//    members. Concept extensions live here.
//  - CowMap<K, V>: a persistent hash trie (16-way inner nodes over the
//    key hash, leaves of up to 8 entries, values behind shared_ptr).
//    Copying shares the root; Mutable() path-copies the few shared nodes
//    on the key's path and, on first touch per copy, the value itself.
//    There is no layering and no compaction, so a copy, and dropping
//    one, costs O(1) plus the nodes the writer replaced since.
//
// Thread-safety contract (mirrors the KB's single-writer discipline):
// a copy that is never mutated (a published snapshot) may be read from
// any number of threads; all mutating calls — and the copies themselves
// — must come from the one writer thread. Readers of old copies are
// never affected by writer mutation: the writer replaces shared chunks
// and nodes, it never writes through them.

#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace classic {

namespace cow_internal {

/// Returns a writer-owned `*p`: allocated when null, copied when a
/// snapshot shares it. use_count() > 1 is the COW trigger.
template <typename N>
N& Own(std::shared_ptr<N>& p) {
  if (!p) {
    p = std::make_shared<N>();
  } else if (p.use_count() > 1) {
    p = std::make_shared<N>(*p);
  }
  return *p;
}

/// True iff writing through `p` will copy it.
template <typename N>
bool Shared(const std::shared_ptr<N>& p) {
  return p && p.use_count() > 1;
}

}  // namespace cow_internal

template <typename T>
class CowVector {
 public:
  static constexpr size_t kChunkShift = 6;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 64
  static constexpr size_t kPageShift = 6;  // 64 chunks (4,096 slots) per page
  static constexpr size_t kPageChunks = size_t{1} << kPageShift;

  struct Chunk {
    std::array<T, kChunkSize> slot{};
  };

  CowVector() = default;

  /// O(1) structural-sharing copy (the publish path). The new copy reads
  /// the same chunks; whichever side mutates next pays the path copy.
  CowVector(const CowVector& other) : dir_(other.dir_), size_(other.size_) {}

  CowVector& operator=(const CowVector& other) {
    dir_ = other.dir_;
    size_ = other.size_;
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    assert(i < size_);
    const size_t c = i >> kChunkShift;
    return dir_->pages[c >> kPageShift]->chunks[c & (kPageChunks - 1)]
        ->slot[i & (kChunkSize - 1)];
  }

  /// Writer-only: mutable access, path-copying any shared chunk (and the
  /// directory and page above it, once per copy generation) before
  /// exposing it.
  T& Mutable(size_t i) {
    assert(i < size_);
    return OwnedChunk(i >> kChunkShift).slot[i & (kChunkSize - 1)];
  }

  /// Writer-only append.
  void push_back(T value) {
    OwnedChunk(size_ >> kChunkShift).slot[size_ & (kChunkSize - 1)] =
        std::move(value);
    ++size_;
  }

  /// Writer-only ordered erase (shift-down). O(n - i) element copies —
  /// used by the retraction path, which re-derives the database anyway.
  void EraseAt(size_t i) {
    assert(i < size_);
    for (size_t j = i; j + 1 < size_; ++j) Mutable(j) = (*this)[j + 1];
    Mutable(size_ - 1) = T{};
    --size_;
  }

  // --- Publish instrumentation --------------------------------------------

  /// Chunk copies performed by Mutable/push_back since the last call
  /// (the physical size of the write delta, in chunks).
  size_t TakeChunkCopies() { return std::exchange(chunk_copies_, 0); }

  /// Bytes of chunk storage this copy shares with its siblings (all of
  /// it, right after a copy): the publish "bytes not copied" figure.
  size_t ApproxChunkBytes() const {
    return ((size_ + kChunkSize - 1) >> kChunkShift) * sizeof(Chunk);
  }

 private:
  /// Two-level directory: a copy generation's first write path-copies
  /// the top directory (one pointer per 4,096 slots) and one page (64
  /// pointers), so the first-touch cost stays flat as the vector grows.
  struct Page {
    std::array<std::shared_ptr<Chunk>, kPageChunks> chunks;
  };
  struct Dir {
    std::vector<std::shared_ptr<Page>> pages;
  };

  Chunk& OwnedChunk(size_t c) {
    Dir& dir = cow_internal::Own(dir_);
    const size_t pg = c >> kPageShift;
    if (pg >= dir.pages.size()) dir.pages.resize(pg + 1);
    std::shared_ptr<Chunk>& p =
        cow_internal::Own(dir.pages[pg]).chunks[c & (kPageChunks - 1)];
    if (cow_internal::Shared(p)) ++chunk_copies_;
    return cow_internal::Own(p);
  }

  std::shared_ptr<Dir> dir_;
  size_t size_ = 0;
  size_t chunk_copies_ = 0;
};

class CowBitset {
 public:
  static constexpr size_t kWordsPerChunk = 64;
  static constexpr size_t kChunkShift = 12;  // 64 words x 64 bits = 4,096 ids
  static constexpr size_t kChunkBits = size_t{1} << kChunkShift;

  struct Chunk {
    std::array<uint64_t, kWordsPerChunk> w{};
  };

  CowBitset() = default;

  /// O(1) structural-sharing copy, as CowVector's. Copy counters are
  /// per-copy instrumentation and start at zero.
  CowBitset(const CowBitset& other) : dir_(other.dir_), count_(other.count_) {}

  CowBitset& operator=(const CowBitset& other) {
    dir_ = other.dir_;
    count_ = other.count_;
    return *this;
  }

  /// Number of members, O(1).
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool Test(size_t i) const {
    const Chunk* c = ChunkAt(i >> kChunkShift);
    return c != nullptr && (c->w[WordOf(i)] >> (i & 63)) & 1;
  }

  /// Writer-only. Adds `i`; true iff it was absent. Path-copies at most
  /// the directory and one chunk; a no-op insert copies nothing.
  bool Set(size_t i) {
    if (Test(i)) return false;
    OwnedChunk(i >> kChunkShift).w[WordOf(i)] |= uint64_t{1} << (i & 63);
    ++count_;
    return true;
  }

  /// Writer-only. Removes `i`; true iff it was present.
  bool Reset(size_t i) {
    if (!Test(i)) return false;
    OwnedChunk(i >> kChunkShift).w[WordOf(i)] &= ~(uint64_t{1} << (i & 63));
    --count_;
    return true;
  }

  /// Ascending iteration over the members. Valid while this copy is not
  /// mutated (a published copy never is).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = uint32_t;

    const_iterator() = default;

    uint32_t operator*() const {
      return static_cast<uint32_t>(word_index_ * 64 +
                                   static_cast<size_t>(__builtin_ctzll(word_)));
    }
    const_iterator& operator++() {
      word_ &= word_ - 1;
      if (word_ == 0) SeekFrom(word_index_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return word_index_ == o.word_index_ && word_ == o.word_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class CowBitset;
    const_iterator(const CowBitset* bits, size_t from) : bits_(bits) {
      SeekFrom(from);
    }

    /// Positions on the first non-zero word at or after `wi` (null chunks
    /// are skipped whole), or on the end sentinel.
    void SeekFrom(size_t wi) {
      const size_t end = bits_->num_words();
      while (wi < end) {
        const Chunk* c = bits_->ChunkAt(wi / kWordsPerChunk);
        const size_t chunk_end = (wi / kWordsPerChunk + 1) * kWordsPerChunk;
        for (; c != nullptr && wi < chunk_end; ++wi) {
          if (c->w[wi % kWordsPerChunk] != 0) {
            word_index_ = wi;
            word_ = c->w[wi % kWordsPerChunk];
            return;
          }
        }
        wi = chunk_end;
      }
      word_index_ = end;
      word_ = 0;
    }

    const CowBitset* bits_ = nullptr;
    size_t word_index_ = 0;
    uint64_t word_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, num_words()); }

  // --- Publish instrumentation --------------------------------------------

  /// Chunk copies performed by Set/Reset since the last call.
  size_t TakeChunkCopies() { return std::exchange(chunk_copies_, 0); }
  /// Directory copies performed by Set/Reset since the last call (at most
  /// one per copy generation).
  size_t TakeDirCopies() { return std::exchange(dir_copies_, 0); }

  /// Bytes of directory and chunk storage this copy holds (and shares
  /// with its siblings, right after a copy).
  size_t ApproxChunkBytes() const {
    if (!dir_) return 0;
    size_t n = dir_->chunks.size() * sizeof(std::shared_ptr<Chunk>);
    for (const auto& c : dir_->chunks) {
      if (c) n += sizeof(Chunk);
    }
    return n;
  }

 private:
  struct Dir {
    std::vector<std::shared_ptr<Chunk>> chunks;
  };

  static size_t WordOf(size_t i) { return (i >> 6) & (kWordsPerChunk - 1); }

  size_t num_words() const {
    return dir_ ? dir_->chunks.size() * kWordsPerChunk : 0;
  }

  const Chunk* ChunkAt(size_t c) const {
    return dir_ && c < dir_->chunks.size() ? dir_->chunks[c].get() : nullptr;
  }

  Chunk& OwnedChunk(size_t c) {
    if (cow_internal::Shared(dir_)) ++dir_copies_;
    Dir& dir = cow_internal::Own(dir_);
    if (c >= dir.chunks.size()) dir.chunks.resize(c + 1);
    std::shared_ptr<Chunk>& p = dir.chunks[c];
    if (cow_internal::Shared(p)) ++chunk_copies_;
    return cow_internal::Own(p);
  }

  std::shared_ptr<Dir> dir_;
  size_t count_ = 0;
  size_t chunk_copies_ = 0;
  size_t dir_copies_ = 0;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class CowMap {
 public:
  CowMap() = default;

  /// O(1) structural-sharing copy; the copy-down counter starts at zero.
  CowMap(const CowMap& other) : root_(other.root_), size_(other.size_) {}

  CowMap& operator=(const CowMap& other) {
    root_ = other.root_;
    size_ = other.size_;
    return *this;
  }

  /// Point lookup: one trie walk (a handful of nodes) plus a short leaf
  /// scan; nullptr when the key was never inserted.
  const V* Find(const K& key) const {
    const uint64_t h = HashOf(key);
    const Node* n = root_.get();
    for (unsigned depth = 0; n != nullptr; ++depth) {
      if (n->child.empty()) {
        for (const Entry& e : n->entries) {
          if (e.key == key) return e.value.get();
        }
        return nullptr;
      }
      n = n->child[Slot(h, depth)].get();
    }
    return nullptr;
  }

  /// Writer-only: mutable access (default-constructs absent keys). Path-
  /// copies the shared nodes on the key's trie path and, on the first
  /// touch since the last copy, the value itself (value-level
  /// copy-on-write).
  V& Mutable(const K& key) {
    const uint64_t h = HashOf(key);
    std::shared_ptr<Node>* slot = &root_;
    for (unsigned depth = 0;; ++depth) {
      Node& n = cow_internal::Own(*slot);
      if (n.child.empty()) {
        for (Entry& e : n.entries) {
          if (e.key != key) continue;
          if (cow_internal::Shared(e.value)) ++value_copies_;
          return cow_internal::Own(e.value);
        }
        if (n.entries.size() >= kLeafMax && depth < kMaxDepth) {
          Split(&n, depth);
          slot = &n.child[Slot(h, depth)];
          continue;
        }
        ++size_;
        n.entries.push_back({key, std::make_shared<V>()});
        return *n.entries.back().value;
      }
      slot = &n.child[Slot(h, depth)];
    }
  }

  /// Writer-only: drops every entry (copies are only unshared, so
  /// snapshot readers are unaffected).
  void Clear() {
    root_.reset();
    size_ = 0;
  }

  /// Number of keys.
  size_t size() const { return size_; }
  size_t TakeValueCopies() { return std::exchange(value_copies_, 0); }

 private:
  static constexpr unsigned kBits = 4;
  static constexpr size_t kFanout = size_t{1} << kBits;  // 16
  static constexpr size_t kLeafMax = 8;
  static constexpr unsigned kMaxDepth = 64 / kBits - 1;  // last level: unbounded leaf

  struct Entry {
    K key;
    std::shared_ptr<V> value;
  };
  /// A leaf (child empty) holds up to kLeafMax entries; an inner node
  /// holds kFanout children indexed by the next kBits of the key hash.
  struct Node {
    std::vector<std::shared_ptr<Node>> child;
    std::vector<Entry> entries;
  };

  /// Scrambles the hash (std::hash is the identity on integers) so
  /// keys spread over the trie whatever their pattern.
  static uint64_t HashOf(const K& key) {
    uint64_t x = static_cast<uint64_t>(Hash{}(key));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }
  static size_t Slot(uint64_t h, unsigned depth) {
    return static_cast<size_t>((h >> (depth * kBits)) & (kFanout - 1));
  }

  /// Turns a full leaf (owned by the writer) into an inner node whose
  /// fresh leaves take its entries.
  static void Split(Node* n, unsigned depth) {
    std::vector<Entry> entries = std::move(n->entries);
    n->entries.clear();
    n->child.assign(kFanout, nullptr);
    for (Entry& e : entries) {
      std::shared_ptr<Node>& c = n->child[Slot(HashOf(e.key), depth)];
      if (!c) c = std::make_shared<Node>();
      c->entries.push_back(std::move(e));
    }
  }

  std::shared_ptr<Node> root_;
  size_t size_ = 0;
  size_t value_copies_ = 0;
};

}  // namespace classic
