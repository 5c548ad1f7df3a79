#include "hw/cachesim.hpp"

#include <algorithm>
#include <bit>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/require.hpp"

namespace eroof::hw {
namespace {

constexpr std::uint32_t kSectorShift = 5;  // 32 B sectors
constexpr std::uint64_t kSectorBytes = std::uint64_t{1} << kSectorShift;
constexpr double kWordsPerSector = kSectorBytes / 4.0;

/// Requests queued between replays: 4096 x 24 B = 96 KiB. Large enough to
/// amortize one replay's fork/join over many lines, small enough to stay
/// cache resident while every thread walks it.
constexpr std::size_t kQueueRequests = 4096;

/// Tag of an empty way. A tag drops at least one address bit (checked in
/// Cache::Cache), so no real tag equals it.
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

/// Validates `cfg` and returns its number of sets.
std::uint64_t num_sets(const CacheConfig& cfg) {
  EROOF_REQUIRE(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
  EROOF_REQUIRE(cfg.associativity > 0);
  EROOF_REQUIRE(cfg.size_bytes % (cfg.line_bytes * cfg.associativity) == 0);
  const std::uint64_t sets =
      cfg.size_bytes / (cfg.line_bytes * cfg.associativity);
  EROOF_REQUIRE(std::has_single_bit(sets));
  return sets;
}

std::uint32_t log2(std::uint64_t pow2) {
  return static_cast<std::uint32_t>(std::countr_zero(pow2));
}

/// Number of independent set partitions P (see cachesim.hpp).
std::uint64_t partition_count(const CacheConfig& l1, const CacheConfig& l2) {
  const std::uint64_t l1_sets = num_sets(l1);
  const std::uint64_t l2_sets = num_sets(l2);
  if (l1.line_bytes < kSectorBytes || l2.line_bytes > l1.line_bytes) return 1;
  return std::clamp<std::uint64_t>(l2_sets * l2.line_bytes / l1.line_bytes, 1,
                                   l1_sets);
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

Cache::Cache(CacheConfig cfg, std::uint32_t group) : cfg_(cfg) {
  const std::uint64_t sets = num_sets(cfg_);
  EROOF_REQUIRE(std::has_single_bit(group) && group <= sets);
  line_shift_ = log2(cfg_.line_bytes);
  set_shift_ = log2(sets);
  set_mask_ = sets - 1;
  group_shift_ = log2(group);
  EROOF_REQUIRE(line_shift_ + set_shift_ > 0);
  tags_.assign(sets * cfg_.associativity, kEmpty);
  shared_.assign(sets >> group_shift_, 1);
}

bool Cache::touch(std::uint64_t* set, std::uint64_t tag) {
  const std::uint32_t ways = cfg_.associativity;
  std::uint32_t w = 0;
  while (w + 1 < ways && set[w] != tag) ++w;
  const bool hit = set[w] == tag;
  // Hit: way w moves to the front. Miss: w is the LRU way (or an empty one;
  // empties trail the valid tags), which the shift evicts.
  for (; w > 0; --w) set[w] = set[w - 1];
  set[0] = tag;
  return hit;
}

void Cache::unshare(std::uint64_t line) {
  std::uint8_t& shared = shared_[(line & set_mask_) >> group_shift_];
  if (!shared) return;
  shared = 0;
  const std::uint32_t ways = cfg_.associativity;
  const std::uint64_t group = std::uint64_t{1} << group_shift_;
  std::uint64_t* first = set_of(line & ~(group - 1));
  for (std::uint64_t i = 1; i < group; ++i)
    std::copy_n(first, ways, first + i * ways);
}

bool Cache::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  if (group_shift_ > 0) unshare(line);
  const bool hit = touch(set_of(line), line >> set_shift_);
  ++(hit ? hits_ : misses_);
  return hit;
}

std::uint64_t Cache::access_lines(std::uint64_t addr, std::uint64_t n) {
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t group = std::uint64_t{1} << group_shift_;
  std::uint64_t hits = 0;
  if (group > 1 && n == group && (first & (group - 1)) == 0) {
    // A full, aligned run: one tag over the group's consecutive sets.
    const std::uint64_t tag = first >> set_shift_;
    std::uint8_t& shared = shared_[(first & set_mask_) >> group_shift_];
    std::uint64_t* set = set_of(first);
    if (shared) {
      hits = touch(set, tag) ? n : 0;
    } else {
      const std::uint32_t ways = cfg_.associativity;
      for (std::uint64_t i = 0; i < n; ++i) hits += touch(set + i * ways, tag);
      bool same = true;
      for (std::uint64_t i = 1; i < n && same; ++i)
        same = std::equal(set, set + ways, set + i * ways);
      shared = same;
    }
  } else {
    for (std::uint64_t i = 0; i < n; ++i)
      hits += access((first + i) << line_shift_);
    return hits;
  }
  hits_ += hits;
  misses_ += n - hits;
  return hits;
}

void Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(shared_.begin(), shared_.end(), 1);
  hits_ = misses_ = 0;
}

MemoryHierarchy::Tally& MemoryHierarchy::Tally::operator+=(const Tally& o) {
  l1_hit_lines += o.l1_hit_lines;
  l1_hit_sectors += o.l1_hit_sectors;
  l2_read_queries += o.l2_read_queries;
  l2_write_queries += o.l2_write_queries;
  dram_read += o.dram_read;
  dram_write += o.dram_write;
  return *this;
}

MemoryHierarchy::MemoryHierarchy()
    : MemoryHierarchy(CacheConfig{16 * 1024, 128, 4},
                      CacheConfig{128 * 1024, 32, 8}) {}

MemoryHierarchy::MemoryHierarchy(CacheConfig l1, CacheConfig l2)
    : line_shift_(log2(l1.line_bytes)),
      sector_lines_(l2.line_bytes == kSectorBytes) {
  const std::uint64_t parts = partition_count(l1, l2);
  partition_shift_ = log2(parts);
  l1.size_bytes /= parts;
  l2.size_bytes /= parts;
  // An L1 line's sectors are a run of L2 lines; group them when the run
  // fits the partition's L2 sets.
  const std::uint64_t run = l1.line_bytes / kSectorBytes;
  const std::uint32_t group =
      sector_lines_ && run > 1 && run <= num_sets(l2)
          ? static_cast<std::uint32_t>(run)
          : 1;
  partitions_.reserve(parts);
  for (std::uint64_t p = 0; p < parts; ++p)
    partitions_.push_back(Partition{Cache(l1), Cache(l2, group), {}});
  pending_.reserve(kQueueRequests);
}

void MemoryHierarchy::access(std::uint64_t addr, std::uint64_t bytes,
                             bool write) {
  EROOF_REQUIRE(bytes > 0);
  pending_.push_back({addr, bytes, write});
  if (pending_.size() == kQueueRequests) (void)totals();
}

const LevelTraffic& MemoryHierarchy::traffic() const {
  (void)totals();
  return traffic_;
}

const MemoryHierarchy::Tally& MemoryHierarchy::totals() const {
  if (pending_.empty()) return totals_;
  // One contiguous range of partitions per thread; which thread replays a
  // partition does not change its tally.
  const int parts = static_cast<int>(partitions_.size());
  const int chunks = std::min(parts, max_threads());
#pragma omp parallel for schedule(static) if (chunks > 1)
  for (int c = 0; c < chunks; ++c)
    replay(static_cast<std::uint64_t>(parts * c / chunks),
           static_cast<std::uint64_t>(parts * (c + 1) / chunks));
  pending_.clear();

  totals_ = {};
  for (const Partition& part : partitions_) totals_ += part.tally;
  const std::uint64_t dram = totals_.dram_read + totals_.dram_write;
  traffic_.l1_words =
      kWordsPerSector * static_cast<double>(totals_.l1_hit_sectors);
  traffic_.l2_words =
      kWordsPerSector * static_cast<double>(totals_.l2_read_queries +
                                            totals_.l2_write_queries - dram);
  traffic_.dram_words = kWordsPerSector * static_cast<double>(dram);
  return totals_;
}

void MemoryHierarchy::replay(std::uint64_t begin, std::uint64_t end) const {
  const std::uint64_t line_bytes = std::uint64_t{1} << line_shift_;
  const std::uint64_t part_mask = partitions_.size() - 1;
  // Partition-local address: the line index loses its partition bits, the
  // offset within the line stays.
  const auto local = [&](std::uint64_t a) {
    return ((a >> (line_shift_ + partition_shift_)) << line_shift_) |
           (a & (line_bytes - 1));
  };
  for (const Request& r : pending_) {
    // One lookup per touched L1 line: a coalesced warp access is a single
    // 128 B transaction, so sectors of one streaming access must not count
    // as L1 "hits" against each other. On an L1 miss, the touched sectors
    // are requested from L2 individually (the L2 is sector-granular).
    const std::uint64_t stop = r.addr + r.bytes;
    const std::uint64_t last_line = (stop - 1) >> line_shift_;
    for (std::uint64_t line = r.addr >> line_shift_; line <= last_line;
         ++line) {
      const std::uint64_t p = line & part_mask;
      if (p < begin || p >= end) continue;
      Partition& part = partitions_[p];
      const std::uint64_t line_addr = line << line_shift_;
      const std::uint64_t first_sector =
          std::max(r.addr, line_addr) >> kSectorShift;
      const std::uint64_t last_sector =
          (std::min(stop, line_addr + line_bytes) - 1) >> kSectorShift;
      const std::uint64_t sectors = last_sector - first_sector + 1;

      if (part.l1.access(local(line_addr))) {
        ++part.tally.l1_hit_lines;
        part.tally.l1_hit_sectors += sectors;
        continue;
      }
      std::uint64_t hits = 0;
      if (sector_lines_) {
        hits = part.l2.access_lines(local(first_sector << kSectorShift),
                                    sectors);
      } else {
        for (std::uint64_t s = first_sector; s <= last_sector; ++s)
          hits += part.l2.access(local(s << kSectorShift));
      }
      (r.write ? part.tally.l2_write_queries : part.tally.l2_read_queries) +=
          sectors;
      (r.write ? part.tally.dram_write : part.tally.dram_read) +=
          sectors - hits;
    }
  }
}

void MemoryHierarchy::reset() {
  pending_.clear();
  for (Partition& part : partitions_) {
    part.l1.reset();
    part.l2.reset();
    part.tally = {};
  }
  totals_ = {};
  traffic_ = {};
}

}  // namespace eroof::hw
