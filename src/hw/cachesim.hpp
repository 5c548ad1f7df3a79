// Set-associative cache-hierarchy simulator.
//
// Substitutes for the memory-system performance counters of the paper's GPU:
// the instrumented FMM feeds its global-memory access stream (virtual
// addresses) through an L1 + L2 hierarchy; the words served at each level
// become the l1/l2/fb_* counter events of Table III. Sector-granular
// (32 B) like the modeled hardware, LRU replacement, write-allocate.
//
// Set-partitioned replay. An L1 line L lives in L1 set L mod S1, and its
// sectors land in L2 sets fixed by bits of L too. Partition the lines by
// L mod P, where
//
//   P = min(S1, S2 * l2_line / l1_line)   if 32 B <= l1_line and
//                                         l2_line <= l1_line, else 1.
//
// The L1 set of a line determines its partition (P divides S1), and so does
// every L2 set its sectors map to: the bits of L mod P sit inside the L2 set
// index (P <= S2 * l2_line / l1_line), and no L2 line or sector straddles
// two L1 lines. Each partition -- L1 sets p, p+P, ... together with the L2
// sets their lines map to -- is therefore an independent LRU subsystem, and
// replaying each partition's lines in trace order reproduces the serial
// per-line simulation exactly. For the Tegra K1 geometry (32 L1 sets of
// 128 B, 512 L2 sets of 32 B) P = 32: L1 set p with 16 L2 sets. Every
// counter is an integer count, summed over partitions in a fixed order, so
// the result is bitwise the same at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace eroof::hw {

/// Geometry of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint64_t line_bytes = 0;
  std::uint32_t associativity = 0;
};

/// Allocates whole 64 B-aligned host cache lines, so that two containers
/// written by different threads never share one.
template <class T>
struct HostLineAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  HostLineAllocator() = default;
  template <class U>
  HostLineAllocator(const HostLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  friend bool operator==(const HostLineAllocator&, const HostLineAllocator&) {
    return true;
  }
};

/// One set-associative, LRU, line-granular cache level.
///
/// Each set keeps its tags in MRU-to-LRU order. A cache built with
/// `group` = G > 1 expects most traffic as aligned runs of G consecutive
/// lines (the 32 B sectors of one L1 line in an L2): such a run maps to G
/// consecutive sets with one tag. While every access to a group of sets
/// has been such a full run, the G sets hold identical tag stacks, so the
/// cache updates only the first and lets it stand for all G; any other
/// access copies it back out first. Results and statistics are those of a
/// plain per-line LRU cache.
class Cache {
 public:
  explicit Cache(CacheConfig cfg, std::uint32_t group = 1);

  /// Looks up (and on miss, fills) the line containing `addr`.
  /// Returns true on hit.
  bool access(std::uint64_t addr);

  /// Looks up (and fills) the `n` consecutive lines starting with the one
  /// containing `addr`, in address order. Returns the number of hits.
  std::uint64_t access_lines(std::uint64_t addr, std::uint64_t n);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  std::uint64_t* set_of(std::uint64_t line) {
    return tags_.data() + (line & set_mask_) * cfg_.associativity;
  }
  /// MRU update of one set; true on hit.
  bool touch(std::uint64_t* set, std::uint64_t tag);
  /// Ends the sharing of `line`'s group, copying the first set out.
  void unshare(std::uint64_t line);

  CacheConfig cfg_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;  // log2(number of sets)
  std::uint64_t set_mask_;
  std::uint32_t group_shift_;  // log2(group)
  // Per set, `associativity` tags in MRU-to-LRU order; an all-ones tag
  // marks an empty way.
  std::vector<std::uint64_t, HostLineAllocator<std::uint64_t>> tags_;
  // Per group of sets: 1 while its first set stands for all of them.
  std::vector<std::uint8_t, HostLineAllocator<std::uint8_t>> shared_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Words of traffic served by each level during simulation.
struct LevelTraffic {
  double l1_words = 0;
  double l2_words = 0;
  double dram_words = 0;

  LevelTraffic& operator+=(const LevelTraffic& o) {
    l1_words += o.l1_words;
    l2_words += o.l2_words;
    dram_words += o.dram_words;
    return *this;
  }
};

/// Two-level hierarchy (L1 -> L2 -> DRAM) over a flat virtual address space.
///
/// Defaults follow the Tegra K1 GPU: 16 KiB L1 with 128 B lines, 128 KiB L2
/// with 32 B sectors. Accesses are expanded to the 32 B sectors they touch;
/// a sector that hits in L1 counts as L1 words, else it is looked up
/// (sector-granular) in L2, counting as L2 or DRAM words.
///
/// `access` only queues the request. Queued requests are replayed, in
/// parallel over the set partitions described above, when the queue fills
/// or when a counter is read. Even the const accessors therefore update
/// internal state: one hierarchy must not be used from two threads at once.
class MemoryHierarchy {
 public:
  MemoryHierarchy();
  MemoryHierarchy(CacheConfig l1, CacheConfig l2);

  /// Simulates a read or write of `bytes` bytes at virtual address `addr`.
  void access(std::uint64_t addr, std::uint64_t bytes, bool write);

  /// Traffic tallied since construction / last reset.
  const LevelTraffic& traffic() const;

  /// Sector-level counts (for emitting Table III events).
  std::uint64_t l1_hit_lines() const { return totals().l1_hit_lines; }
  std::uint64_t l2_read_sector_queries() const {
    return totals().l2_read_queries;
  }
  std::uint64_t l2_write_sector_queries() const {
    return totals().l2_write_queries;
  }
  std::uint64_t dram_read_sectors() const { return totals().dram_read; }
  std::uint64_t dram_write_sectors() const { return totals().dram_write; }

  void reset();

 private:
  struct Request {
    std::uint64_t addr;
    std::uint64_t bytes;
    bool write;
  };

  struct Tally {
    std::uint64_t l1_hit_lines = 0;
    std::uint64_t l1_hit_sectors = 0;
    std::uint64_t l2_read_queries = 0;
    std::uint64_t l2_write_queries = 0;
    std::uint64_t dram_read = 0;
    std::uint64_t dram_write = 0;

    Tally& operator+=(const Tally& o);
  };

  /// One independent LRU subsystem: the partition's L1 and L2 sets, held as
  /// caches of 1/P the size over partition-local addresses. Aligned so that
  /// partitions replayed by different threads share no host cache line.
  struct alignas(64) Partition {
    Cache l1;
    Cache l2;
    Tally tally;
  };

  const Tally& totals() const;
  /// Replays the queued requests against partitions [begin, end).
  void replay(std::uint64_t begin, std::uint64_t end) const;

  std::uint32_t line_shift_;       // log2(L1 line bytes)
  std::uint32_t partition_shift_;  // log2(P)
  bool sector_lines_;              // L2 line == sector: runs of L2 lines
  mutable std::vector<Request> pending_;
  mutable std::vector<Partition> partitions_;
  mutable Tally totals_;
  mutable LevelTraffic traffic_;
};

}  // namespace eroof::hw
