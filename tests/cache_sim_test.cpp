#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "artemis/common/check.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/gpumodel/cache_sim.hpp"

namespace artemis::gpumodel {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c(1024, 32, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(31));   // same line
  EXPECT_FALSE(c.access(32));  // next line
  EXPECT_EQ(c.hits(), 2);
  EXPECT_EQ(c.misses(), 2);
  EXPECT_EQ(c.miss_bytes(), 64);
}

TEST(CacheSim, LruEvictionWithinSet) {
  // 2-way, 2 sets of 32B lines: capacity 128B. Lines 0, 2, 4 map to set 0.
  CacheSim c(128, 32, 2);
  EXPECT_FALSE(c.access(0 * 32));
  EXPECT_FALSE(c.access(2 * 32));
  EXPECT_TRUE(c.access(0 * 32));   // refresh line 0: line 2 is now LRU
  EXPECT_FALSE(c.access(4 * 32));  // evicts line 2
  EXPECT_TRUE(c.access(0 * 32));   // line 0 retained
  EXPECT_FALSE(c.access(2 * 32));  // line 2 was evicted
}

TEST(CacheSim, SetIndexingIsolatesSets) {
  CacheSim c(128, 32, 2);
  // Lines 1 and 3 map to set 1; they must not disturb set 0.
  c.access(0 * 32);
  c.access(1 * 32);
  c.access(3 * 32);
  EXPECT_TRUE(c.access(0 * 32));
}

TEST(CacheSim, CapacityBoundStreaming) {
  // Stream far more data than capacity: hit rate collapses to intra-line
  // reuse only.
  CacheSim c(4096, 32, 8);
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 1 << 16; a += 8) c.access(a);
  }
  // Each line holds 4 8-byte accesses: 3/4 intra-line hits; the second
  // pass cannot hit (working set 64KB >> 4KB).
  EXPECT_NEAR(c.hit_rate(), 0.75, 0.01);
}

TEST(CacheSim, FullyResidentWorkingSet) {
  CacheSim c(1 << 16, 32, 8);
  for (std::uint64_t pass = 0; pass < 4; ++pass) {
    for (std::uint64_t a = 0; a < 1 << 12; a += 8) c.access(a);
  }
  // First pass: 1 miss per line; then everything hits.
  const std::int64_t lines = (1 << 12) / 32;
  EXPECT_EQ(c.misses(), lines);
}

TEST(CacheSim, ResetClearsEverything) {
  CacheSim c(1024, 32, 2);
  c.access(0);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.accesses(), 0);
  EXPECT_FALSE(c.access(0));  // cold again
}

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim(0, 32, 2), Error);
  EXPECT_THROW(CacheSim(1024, 24, 2), Error);  // non-power-of-two line
}

TEST(CacheSim, TinyCapacityStillWorks) {
  CacheSim c(16, 32, 4);  // fewer bytes than one line: one set is forced
  EXPECT_GT(c.capacity_bytes(), 0);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
}

TEST(CacheSim, SingleLineWorkingSet) {
  // The smallest possible working set: every address inside one line.
  // One cold miss, then hits forever, at any associativity.
  for (const int ways : {1, 2, 16}) {
    CacheSim c(1 << 20, 32, ways);
    for (std::uint64_t a = 0; a < 32; ++a) c.access(a);
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uint64_t a = 0; a < 32; a += 8) c.access(a);
    }
    EXPECT_EQ(c.misses(), 1) << "ways=" << ways;
    EXPECT_EQ(c.miss_bytes(), 32) << "ways=" << ways;
  }
}

TEST(CacheSim, ConflictSetExactlyAssociativitySized) {
  // `ways` lines all mapping to set 0 fit exactly: after one warm-up
  // pass every revisit hits, regardless of LRU order.
  const int ways = 4;
  CacheSim c(32 * 2 * ways, 32, ways);  // 2 sets
  const std::uint64_t set_stride = 2 * 32;
  for (int i = 0; i < ways; ++i) c.access(i * set_stride);
  EXPECT_EQ(c.misses(), ways);
  for (int pass = 0; pass < 4; ++pass) {
    for (int i = 0; i < ways; ++i) {
      EXPECT_TRUE(c.access(i * set_stride)) << "pass " << pass << " i " << i;
    }
  }
  EXPECT_EQ(c.misses(), ways);  // warm-up misses only
}

TEST(CacheSim, ConflictSetOneOverAssociativityThrashes) {
  // ways+1 lines cycling through one set under LRU: the incoming line
  // always evicts the one needed next, so every access misses.
  const int ways = 4;
  CacheSim c(32 * 2 * ways, 32, ways);
  const std::uint64_t set_stride = 2 * 32;
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < ways + 1; ++i) {
      EXPECT_FALSE(c.access(i * set_stride)) << "pass " << pass;
    }
  }
  EXPECT_EQ(c.hits(), 0);
}

TEST(CacheSim, ZeroAccessesReportCleanStats) {
  CacheSim c(1024, 32, 2);
  EXPECT_EQ(c.accesses(), 0);
  EXPECT_EQ(c.hit_rate(), 0.0);
  EXPECT_EQ(c.miss_bytes(), 0);
}

/// Textbook LRU with the same geometry rounding as CacheSim: one recency
/// list per set, most recently used first.
class ReferenceLru {
 public:
  ReferenceLru(std::int64_t capacity_bytes, int line_bytes, int ways)
      : line_bytes_(static_cast<std::uint64_t>(line_bytes)),
        ways_(static_cast<std::size_t>(ways)) {
    const std::int64_t sets = capacity_bytes / line_bytes / ways;
    sets_.resize(static_cast<std::size_t>(std::max<std::int64_t>(sets, 1)));
  }

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    std::list<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == ways_) {
      set.pop_back();
    }
    set.push_front(line);
    ++(hit ? hits : misses);
    return hit;
  }

  void reset() {
    for (auto& set : sets_) set.clear();
    hits = misses = 0;
  }

  std::int64_t capacity_bytes() const {
    return static_cast<std::int64_t>(sets_.size() * ways_ * line_bytes_);
  }

  std::int64_t hits = 0;
  std::int64_t misses = 0;

 private:
  std::uint64_t line_bytes_;
  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
};

/// A seeded address stream over about twice the cache's lines: half the
/// accesses revisit a line near the previous one, the rest jump anywhere,
/// so the stream mixes hits, conflict misses and capacity evictions.
std::vector<std::uint64_t> reuse_stream(Rng& rng, std::int64_t capacity_lines,
                                        int line_bytes, std::size_t n) {
  const std::int64_t span = 2 * capacity_lines + 7;
  std::vector<std::uint64_t> addrs;
  addrs.reserve(n);
  std::int64_t line = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform_int(0, 1) == 0) {
      line = std::clamp<std::int64_t>(line + rng.uniform_int(-3, 3), 0,
                                      span - 1);
    } else {
      line = rng.uniform_int(0, span - 1);
    }
    addrs.push_back(static_cast<std::uint64_t>(
        line * line_bytes + rng.uniform_int(0, line_bytes - 1)));
  }
  return addrs;
}

TEST(CacheSim, MatchesReferenceLruOnRandomStreams) {
  struct Geometry {
    std::int64_t capacity_bytes;
    int line_bytes;
    int ways;
  };
  const Geometry geometries[] = {
      {1024, 32, 1},            // 32 sets
      {96 * 32, 32, 2},         // 48 sets
      {7 * 4 * 64, 64, 4},      // 7 sets
      {4 << 20, 32, 16},        // 8192 sets: the P100 L2
      {6 << 20, 32, 16},        // 12288 sets
      {100, 32, 16},            // fewer lines than ways: one set
  };
  Rng rng(0xCAC4E);
  for (const Geometry& g : geometries) {
    CacheSim sim(g.capacity_bytes, g.line_bytes, g.ways);
    ReferenceLru ref(g.capacity_bytes, g.line_bytes, g.ways);
    ASSERT_EQ(sim.capacity_bytes(), ref.capacity_bytes())
        << "capacity " << g.capacity_bytes << " ways " << g.ways;
    const std::int64_t lines =
        std::max<std::int64_t>(ref.capacity_bytes() / g.line_bytes, 1);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::int64_t>(8 * lines, 400000));
    // Two streams with a reset between them: the second must replay from
    // a cold cache on both sides.
    for (int round = 0; round < 2; ++round) {
      if (round > 0) {
        sim.reset();
        ref.reset();
      }
      const auto addrs = reuse_stream(rng, lines, g.line_bytes, n);
      for (std::size_t i = 0; i < addrs.size(); ++i) {
        ASSERT_EQ(sim.access(addrs[i]), ref.access(addrs[i]))
            << "capacity " << g.capacity_bytes << " ways " << g.ways
            << " round " << round << " access " << i;
      }
      EXPECT_EQ(sim.hits(), ref.hits);
      EXPECT_EQ(sim.misses(), ref.misses);
      EXPECT_GT(ref.hits, 0);
      EXPECT_GT(ref.misses, 0);
    }
  }
}

}  // namespace
}  // namespace artemis::gpumodel
