// Unit tests for the copy-on-write persistent containers (util/cow.h):
// CowBitset against a std::set oracle, CowMap against a std::map oracle,
// snapshot stability of older copies, and the path-copy bounds that make
// an epoch publish O(delta).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/cow.h"
#include "util/rng.h"

namespace classic {
namespace {

std::vector<uint32_t> Members(const CowBitset& b) {
  return std::vector<uint32_t>(b.begin(), b.end());
}

std::vector<uint32_t> Members(const std::set<uint32_t>& s) {
  return std::vector<uint32_t>(s.begin(), s.end());
}

TEST(CowBitsetTest, EmptyBitset) {
  CowBitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(1u << 20));
  EXPECT_TRUE(b.begin() == b.end());
  EXPECT_EQ(b.ApproxChunkBytes(), 0u);
}

TEST(CowBitsetTest, SetResetReportChanges) {
  CowBitset b;
  EXPECT_TRUE(b.Set(5));
  EXPECT_FALSE(b.Set(5));
  EXPECT_TRUE(b.Set(70000));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.Reset(5));
  EXPECT_FALSE(b.Reset(5));
  EXPECT_FALSE(b.Reset(123456));  // beyond the directory: absent
  EXPECT_EQ(Members(b), std::vector<uint32_t>{70000});
}

TEST(CowBitsetTest, ChunkBoundaries) {
  CowBitset b;
  const std::vector<uint32_t> ids = {0,    63,   64,   4095, 4096,
                                     4097, 8191, 8192, 40959};
  for (uint32_t i : ids) b.Set(i);
  EXPECT_EQ(Members(b), ids);
  EXPECT_EQ(b.size(), ids.size());
}

TEST(CowBitsetTest, SparseBitsetCostsOnlyTouchedChunks) {
  CowBitset b;
  b.Set(100000);  // chunk 24: chunks 0..23 stay null
  EXPECT_EQ(b.ApproxChunkBytes(),
            25 * sizeof(std::shared_ptr<CowBitset::Chunk>) +
                sizeof(CowBitset::Chunk));
  EXPECT_EQ(Members(b), std::vector<uint32_t>{100000});
}

TEST(CowBitsetTest, RandomOpsMatchSetOracle) {
  Rng rng(11);
  CowBitset b;
  std::set<uint32_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    // Mostly a dense prefix, sometimes far ids (null chunks in between).
    const uint32_t i = rng.Chance(0.9)
                           ? static_cast<uint32_t>(rng.Below(9000))
                           : static_cast<uint32_t>(rng.Below(200000));
    if (rng.Chance(0.6)) {
      EXPECT_EQ(b.Set(i), oracle.insert(i).second);
    } else {
      EXPECT_EQ(b.Reset(i), oracle.erase(i) == 1);
    }
    if (step % 997 == 0) {
      ASSERT_EQ(b.size(), oracle.size());
      ASSERT_EQ(Members(b), Members(oracle));
    }
  }
  EXPECT_EQ(b.size(), oracle.size());
  EXPECT_EQ(Members(b), Members(oracle));
  for (uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(b.Test(i), oracle.count(i) == 1) << i;
  }
}

TEST(CowBitsetTest, OlderCopyStaysUnchanged) {
  Rng rng(12);
  CowBitset writer;
  std::set<uint32_t> oracle;
  for (int i = 0; i < 3000; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng.Below(50000));
    writer.Set(id);
    oracle.insert(id);
  }
  std::vector<CowBitset> copies;
  std::vector<std::set<uint32_t>> expected;
  for (int gen = 0; gen < 5; ++gen) {
    copies.push_back(writer);
    expected.push_back(oracle);
    for (int i = 0; i < 500; ++i) {
      const uint32_t id = static_cast<uint32_t>(rng.Below(50000));
      if (rng.Chance(0.5)) {
        writer.Set(id);
        oracle.insert(id);
      } else {
        writer.Reset(id);
        oracle.erase(id);
      }
    }
  }
  for (size_t g = 0; g < copies.size(); ++g) {
    EXPECT_EQ(copies[g].size(), expected[g].size()) << "generation " << g;
    EXPECT_EQ(Members(copies[g]), Members(expected[g])) << "generation " << g;
  }
  EXPECT_EQ(Members(writer), Members(oracle));
}

TEST(CowBitsetTest, FirstWriteAfterCopyPathCopiesOneChunkAndDirectory) {
  CowBitset writer;
  for (uint32_t i = 0; i < 100000; i += 3) writer.Set(i);
  writer.TakeChunkCopies();
  writer.TakeDirCopies();

  const CowBitset snapshot = writer;
  EXPECT_TRUE(writer.Set(100001));
  EXPECT_EQ(writer.TakeChunkCopies(), 1u);
  EXPECT_EQ(writer.TakeDirCopies(), 1u);
  // The next write to the same chunk is in place; another chunk costs
  // one more chunk copy but no directory copy.
  EXPECT_TRUE(writer.Set(100002));
  EXPECT_TRUE(writer.Reset(3));
  EXPECT_EQ(writer.TakeChunkCopies(), 1u);
  EXPECT_EQ(writer.TakeDirCopies(), 0u);
  // A no-op write copies nothing.
  const CowBitset snapshot2 = writer;
  EXPECT_FALSE(writer.Set(0));
  EXPECT_FALSE(writer.Reset(1));
  EXPECT_EQ(writer.TakeChunkCopies(), 0u);
  EXPECT_EQ(writer.TakeDirCopies(), 0u);

  EXPECT_TRUE(snapshot.Test(3));
  EXPECT_FALSE(snapshot.Test(100001));
  EXPECT_TRUE(snapshot2.Test(100001));
  EXPECT_EQ(snapshot.size() + 1, writer.size());
}

TEST(CowMapTest, RandomOpsMatchMapOracle) {
  Rng rng(21);
  CowMap<uint64_t, std::set<uint32_t>> m;
  std::map<uint64_t, std::set<uint32_t>> oracle;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.Chance(0.5) ? rng.Below(3000) : rng.Next();
    const uint32_t v = static_cast<uint32_t>(rng.Below(50));
    m.Mutable(key).insert(v);
    oracle[key].insert(v);
  }
  EXPECT_EQ(m.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const std::set<uint32_t>* got = m.Find(k);
    ASSERT_NE(got, nullptr) << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(m.Find(uint64_t{1} << 63), nullptr);
}

TEST(CowMapTest, CopiesShareAndStayUnchanged) {
  CowMap<uint32_t, std::vector<int>> writer;
  for (uint32_t k = 0; k < 5000; ++k) writer.Mutable(k).push_back(1);
  writer.TakeValueCopies();

  const CowMap<uint32_t, std::vector<int>> snapshot = writer;
  writer.Mutable(7).push_back(2);
  writer.Mutable(7).push_back(3);      // same epoch: no second copy
  writer.Mutable(9000).push_back(4);   // new key: nothing to copy
  EXPECT_EQ(writer.TakeValueCopies(), 1u);

  EXPECT_EQ(*snapshot.Find(7), std::vector<int>{1});
  EXPECT_EQ(snapshot.Find(9000), nullptr);
  EXPECT_EQ(snapshot.size(), 5000u);
  EXPECT_EQ(*writer.Find(7), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(*writer.Find(9000), std::vector<int>{4});
  EXPECT_EQ(writer.size(), 5001u);

  writer.Clear();
  EXPECT_EQ(writer.Find(7), nullptr);
  EXPECT_EQ(writer.size(), 0u);
  EXPECT_EQ(*snapshot.Find(7), std::vector<int>{1});
}

}  // namespace
}  // namespace classic
