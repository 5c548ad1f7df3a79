// Property test: the set-partitioned, queued, parallel MemoryHierarchy must
// report exactly the counters of a serial per-line reference hierarchy --
// the original L1 -> L2 loop over two transparent list-based LRU caches --
// on random mixed traces, across geometries (the Tegra K1 default with 32
// partitions, direct-mapped levels, a geometry where the partition count
// collapses to 1, L2 lines wider than a sector), at one thread and at the
// OpenMP maximum. Also checks the grouped-set Cache path (runs of
// consecutive lines sharing one tag stack) against the same reference LRU.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hw/cachesim.hpp"
#include "util/rng.hpp"

namespace eroof::hw {
namespace {

/// Transparent LRU level: per-set std::list, front-to-back = MRU-to-LRU.
class ReferenceLru {
 public:
  explicit ReferenceLru(CacheConfig cfg)
      : line_(cfg.line_bytes),
        sets_(cfg.size_bytes / (cfg.line_bytes * cfg.associativity)),
        ways_(cfg.associativity) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t lineno = addr / line_;
    auto& l = lru_[lineno % sets_];
    const std::uint64_t tag = lineno / sets_;
    const auto it = std::find(l.begin(), l.end(), tag);
    const bool hit = it != l.end();
    if (hit) l.erase(it);
    l.push_front(tag);
    if (l.size() > ways_) l.pop_back();
    return hit;
  }

  void reset() { lru_.clear(); }

 private:
  std::uint64_t line_;
  std::uint64_t sets_;
  std::uint64_t ways_;
  std::map<std::uint64_t, std::list<std::uint64_t>> lru_;
};

/// The serial per-line hierarchy model: one L1 lookup per touched 128 B
/// line; on an L1 miss, one L2 lookup per touched 32 B sector.
class ReferenceHierarchy {
 public:
  ReferenceHierarchy(CacheConfig l1, CacheConfig l2)
      : l1_line_(l1.line_bytes), l1_(l1), l2_(l2) {}

  void access(std::uint64_t addr, std::uint64_t bytes, bool write) {
    constexpr std::uint64_t kSector = 32;
    const std::uint64_t first_line = addr / l1_line_;
    const std::uint64_t last_line = (addr + bytes - 1) / l1_line_;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      const std::uint64_t line_addr = line * l1_line_;
      const std::uint64_t lo = std::max(addr, line_addr);
      const std::uint64_t hi = std::min(addr + bytes, line_addr + l1_line_);
      const std::uint64_t first_sector = lo / kSector;
      const std::uint64_t last_sector = (hi - 1) / kSector;
      if (l1_.access(line_addr)) {
        traffic.l1_words += 8.0 * static_cast<double>(last_sector -
                                                      first_sector + 1);
        ++l1_hit_lines;
        continue;
      }
      for (std::uint64_t s = first_sector; s <= last_sector; ++s) {
        ++(write ? l2_write_queries : l2_read_queries);
        if (l2_.access(s * kSector)) {
          traffic.l2_words += 8.0;
        } else {
          traffic.dram_words += 8.0;
          ++(write ? dram_write : dram_read);
        }
      }
    }
  }

  void reset() {
    l1_.reset();
    l2_.reset();
    traffic = {};
    l1_hit_lines = l2_read_queries = l2_write_queries = 0;
    dram_read = dram_write = 0;
  }

  LevelTraffic traffic;
  std::uint64_t l1_hit_lines = 0;
  std::uint64_t l2_read_queries = 0;
  std::uint64_t l2_write_queries = 0;
  std::uint64_t dram_read = 0;
  std::uint64_t dram_write = 0;

 private:
  std::uint64_t l1_line_;
  ReferenceLru l1_;
  ReferenceLru l2_;
};

void expect_same_counters(const MemoryHierarchy& h,
                          const ReferenceHierarchy& ref, int step) {
  EXPECT_EQ(h.traffic().l1_words, ref.traffic.l1_words) << "step " << step;
  EXPECT_EQ(h.traffic().l2_words, ref.traffic.l2_words) << "step " << step;
  EXPECT_EQ(h.traffic().dram_words, ref.traffic.dram_words) << "step " << step;
  EXPECT_EQ(h.l1_hit_lines(), ref.l1_hit_lines) << "step " << step;
  EXPECT_EQ(h.l2_read_sector_queries(), ref.l2_read_queries) << "step " << step;
  EXPECT_EQ(h.l2_write_sector_queries(), ref.l2_write_queries)
      << "step " << step;
  EXPECT_EQ(h.dram_read_sectors(), ref.dram_read) << "step " << step;
  EXPECT_EQ(h.dram_write_sectors(), ref.dram_write) << "step " << step;
}

struct Geometry {
  std::string name;
  CacheConfig l1;
  CacheConfig l2;
};

void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Replays one random mixed trace through both hierarchies with OpenMP
/// limited to `threads`, comparing every counter at random points.
void run_trace(const Geometry& g, int threads) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  MemoryHierarchy h(g.l1, g.l2);
  ReferenceHierarchy ref(g.l1, g.l2);
  util::Rng rng(0xCAC4E);
  const std::uint64_t line = g.l1.line_bytes;
  const std::uint64_t span = 4 * g.l2.size_bytes;  // L2-scale reuse
  std::uint64_t stream = std::uint64_t{1} << 28;
  for (int step = 0; step < 30000; ++step) {
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
    switch (rng.below(6)) {
      case 0:  // small unaligned access
        addr = rng.below(span);
        bytes = 1 + rng.below(48);
        break;
      case 1:  // partial line
        addr = rng.below(span / line) * line + rng.below(line);
        bytes = 1 + rng.below(line);
        break;
      case 2:  // aligned 4 KiB block, the V phase's spectra and tensors
        addr = rng.below(span / 4096) * 4096;
        bytes = 4096;
        break;
      case 3:  // unaligned multi-line stream
        addr = rng.below(span);
        bytes = 1 + rng.below(12 * line);
        break;
      case 4:  // cold streaming, far from the reuse window
        addr = stream;
        bytes = line * (1 + rng.below(4));
        stream += bytes;
        break;
      default:  // whole lines of a hot region that fits the L1
        addr = rng.below(g.l1.size_bytes / line) * line;
        bytes = line;
    }
    const bool write = rng.below(4) == 0;
    h.access(addr, bytes, write);
    ref.access(addr, bytes, write);
    // Counter reads replay the queue early. The middle third of the trace
    // has no reads and no resets, so the queue also fills and replays on
    // its own; its end is checked.
    if (step == 19999) expect_same_counters(h, ref, step);
    if (step >= 10000 && step < 20000) continue;
    if (rng.below(500) == 0) expect_same_counters(h, ref, step);
    if (rng.below(7000) == 0) {
      h.reset();
      ref.reset();
    }
  }
  expect_same_counters(h, ref, -1);
  EXPECT_GT(ref.l1_hit_lines, 0u);
  EXPECT_GT(ref.traffic.l2_words, 0.0);
  EXPECT_GT(ref.dram_write, 0u);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

class HierarchyVsReference : public ::testing::TestWithParam<Geometry> {};

TEST_P(HierarchyVsReference, OneThread) { run_trace(GetParam(), 1); }

TEST_P(HierarchyVsReference, MaxThreads) {
  run_trace(GetParam(), max_threads());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyVsReference,
    ::testing::Values(
        // Tegra K1: 32 partitions, L2 sets grouped by L1 line (4 sectors).
        Geometry{"tk1_default", {16 * 1024, 128, 4}, {128 * 1024, 32, 8}},
        // Both levels direct-mapped: 64 partitions.
        Geometry{"direct_mapped", {8 * 1024, 128, 1}, {64 * 1024, 32, 1}},
        // 4 L2 sets x 32 B = one L1 line: the partition count collapses
        // to 1, and one sector group spans the whole L2.
        Geometry{"single_partition", {4 * 1024, 128, 4}, {512, 32, 4}},
        // 64 B L2 lines: two sectors per L2 line, no sector runs.
        Geometry{"wide_l2_lines", {16 * 1024, 128, 4}, {64 * 1024, 64, 4}},
        // L2 lines wider than L1 lines: one partition.
        Geometry{"l2_line_exceeds_l1", {4 * 1024, 64, 2}, {32 * 1024, 128, 4}}),
    [](const auto& pinfo) { return pinfo.param.name; });

// A Cache built with set groups must behave exactly like a plain LRU cache
// under any mix of aligned full runs (the grouped fast path), misaligned or
// partial runs and single-line accesses.
TEST(GroupedCache, AgreesWithReferenceOnMixedRuns) {
  const CacheConfig cfg{16 * 1024, 32, 8};  // 64 sets, groups of 4
  Cache cache(cfg, 4);
  ReferenceLru ref(cfg);
  util::Rng rng(0x6120);
  std::uint64_t ref_hits = 0;
  std::uint64_t accesses = 0;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t base = rng.below(64 * cfg.size_bytes / 128) * 128;
    std::uint64_t first = 0;
    std::uint64_t n = 0;
    switch (rng.below(4)) {
      case 0:
      case 1:  // full aligned run of 4 lines
        first = base;
        n = 4;
        break;
      case 2:  // partial or misaligned run
        first = base + 32 * rng.below(4);
        n = 1 + rng.below(4);
        break;
      default:  // single line through access()
        first = base + 32 * rng.below(4);
        n = 0;
    }
    if (n == 0) {
      const bool hit = ref.access(first);
      ASSERT_EQ(cache.access(first), hit) << "access " << i;
      ref_hits += hit;
      ++accesses;
      continue;
    }
    std::uint64_t expect = 0;
    for (std::uint64_t k = 0; k < n; ++k) expect += ref.access(first + 32 * k);
    ASSERT_EQ(cache.access_lines(first, n), expect) << "run " << i;
    ref_hits += expect;
    accesses += n;
  }
  EXPECT_EQ(cache.hits(), ref_hits);
  EXPECT_EQ(cache.hits() + cache.misses(), accesses);
}

}  // namespace
}  // namespace eroof::hw
