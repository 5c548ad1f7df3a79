// Golden counters: every per-phase counter of profile_gpu_execution, pinned
// as the exact doubles (hex-float literals) the serial per-line cache
// simulation produced, for a uniform tree and an adaptive one. The
// determinism suites compare a build only against itself; this file pins
// the set-partitioned parallel replay to the serial model's numbers, at one
// thread and at the OpenMP maximum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

struct Golden {
  const char* phase;
  const char* counter;
  double value;
};

// n = 8192 uniform points, Q = 64, uniform depth, p = 4.
constexpr Golden kUniform[] = {
  {"UP", "fb_subp0_read_sectors", 0x1.cc68p+13},
  {"UP", "fb_subp0_write_sectors", 0x1.f8p+10},
  {"UP", "fb_subp1_read_sectors", 0x1.cc68p+13},
  {"UP", "fb_subp1_write_sectors", 0x1.f8p+10},
  {"UP", "flops_dp_add", 0x1.0899999999999p+19},
  {"UP", "flops_dp_fma", 0x1.34b3333333333p+21},
  {"UP", "flops_dp_mul", 0x1.0899999999999p+19},
  {"UP", "flops_sp_add", 0x1.60ccccccccccdp+20},
  {"UP", "flops_sp_fma", 0x1.9b99999999999p+22},
  {"UP", "flops_sp_mul", 0x1.60ccccccccccdp+20},
  {"UP", "gld_request", 0x1.424p+17},
  {"UP", "gst_request", 0x1.f8p+9},
  {"UP", "inst_integer", 0x1.c43p+23},
  {"UP", "l1_global_load_hit", 0x1.4ap+7},
  {"UP", "l1_shared_load_transactions", 0x1.bc8p+18},
  {"UP", "l1_shared_store_transactions", 0x1p+12},
  {"UP", "l2_subp0_read_l1_hit_sectors", 0x1.33a84p+17},
  {"UP", "l2_subp0_total_read_sector_queries", 0x1.420b8p+19},
  {"UP", "l2_subp0_total_write_sector_queries", 0x1.f8p+11},
  {"UP", "l2_subp1_read_l1_hit_sectors", 0x1.33a84p+17},
  {"UP", "l2_subp2_read_l1_hit_sectors", 0x1.33a84p+17},
  {"UP", "l2_subp3_read_l1_hit_sectors", 0x1.33a84p+17},
  {"U", "fb_subp0_read_sectors", 0x1.e18p+10},
  {"U", "fb_subp0_write_sectors", 0x1.bbp+7},
  {"U", "fb_subp1_read_sectors", 0x1.e18p+10},
  {"U", "fb_subp1_write_sectors", 0x1.bbp+7},
  {"U", "flops_dp_add", 0x0p+0},
  {"U", "flops_dp_fma", 0x0p+0},
  {"U", "flops_dp_mul", 0x0p+0},
  {"U", "flops_sp_add", 0x1.60e7a4p+22},
  {"U", "flops_sp_fma", 0x1.9bb8eap+24},
  {"U", "flops_sp_mul", 0x1.60e7a4p+22},
  {"U", "gld_request", 0x1.5dbe8p+14},
  {"U", "gst_request", 0x1p+8},
  {"U", "inst_integer", 0x1.c38f81p+25},
  {"U", "l1_global_load_hit", 0x1.3b01p+14},
  {"U", "l1_shared_load_transactions", 0x1.50199p+17},
  {"U", "l1_shared_store_transactions", 0x1.4dbe8p+16},
  {"U", "l2_subp0_read_l1_hit_sectors", 0x1.5f98p+11},
  {"U", "l2_subp0_total_read_sector_queries", 0x1.d748p+13},
  {"U", "l2_subp0_total_write_sector_queries", 0x1.d1p+8},
  {"U", "l2_subp1_read_l1_hit_sectors", 0x1.5f98p+11},
  {"U", "l2_subp2_read_l1_hit_sectors", 0x1.5f98p+11},
  {"U", "l2_subp3_read_l1_hit_sectors", 0x1.5f98p+11},
  {"V", "fb_subp0_read_sectors", 0x1.614dcp+21},
  {"V", "fb_subp0_write_sectors", 0x1.2c7p+15},
  {"V", "fb_subp1_read_sectors", 0x1.614dcp+21},
  {"V", "fb_subp1_write_sectors", 0x1.2c7p+15},
  {"V", "flops_dp_add", 0x0p+0},
  {"V", "flops_dp_fma", 0x0p+0},
  {"V", "flops_dp_mul", 0x0p+0},
  {"V", "flops_sp_add", 0x1.26f9999999999p+25},
  {"V", "flops_sp_fma", 0x1.5823333333333p+27},
  {"V", "flops_sp_mul", 0x1.26f9999999999p+25},
  {"V", "gld_request", 0x1.b91f8p+21},
  {"V", "gst_request", 0x1.2fcp+14},
  {"V", "inst_integer", 0x1.70b8p+27},
  {"V", "l1_global_load_hit", 0x1.0c8e8p+20},
  {"V", "l1_shared_load_transactions", 0x1.cbp+22},
  {"V", "l1_shared_store_transactions", 0x1.cbp+22},
  {"V", "l2_subp0_read_l1_hit_sectors", 0x1.047p+20},
  {"V", "l2_subp0_total_read_sector_queries", 0x1.32deep+23},
  {"V", "l2_subp0_total_write_sector_queries", 0x1.2c7p+16},
  {"V", "l2_subp1_read_l1_hit_sectors", 0x1.047p+20},
  {"V", "l2_subp2_read_l1_hit_sectors", 0x1.047p+20},
  {"V", "l2_subp3_read_l1_hit_sectors", 0x1.047p+20},
  {"W", "fb_subp0_read_sectors", 0x0p+0},
  {"W", "fb_subp0_write_sectors", 0x0p+0},
  {"W", "fb_subp1_read_sectors", 0x0p+0},
  {"W", "fb_subp1_write_sectors", 0x0p+0},
  {"W", "flops_dp_add", 0x0p+0},
  {"W", "flops_dp_fma", 0x0p+0},
  {"W", "flops_dp_mul", 0x0p+0},
  {"W", "flops_sp_add", 0x0p+0},
  {"W", "flops_sp_fma", 0x0p+0},
  {"W", "flops_sp_mul", 0x0p+0},
  {"W", "gld_request", 0x0p+0},
  {"W", "gst_request", 0x0p+0},
  {"W", "inst_integer", 0x0p+0},
  {"W", "l1_global_load_hit", 0x0p+0},
  {"W", "l1_shared_load_transactions", 0x0p+0},
  {"W", "l1_shared_store_transactions", 0x0p+0},
  {"W", "l2_subp0_read_l1_hit_sectors", 0x0p+0},
  {"W", "l2_subp0_total_read_sector_queries", 0x0p+0},
  {"W", "l2_subp0_total_write_sector_queries", 0x0p+0},
  {"W", "l2_subp1_read_l1_hit_sectors", 0x0p+0},
  {"W", "l2_subp2_read_l1_hit_sectors", 0x0p+0},
  {"W", "l2_subp3_read_l1_hit_sectors", 0x0p+0},
  {"X", "fb_subp0_read_sectors", 0x0p+0},
  {"X", "fb_subp0_write_sectors", 0x0p+0},
  {"X", "fb_subp1_read_sectors", 0x0p+0},
  {"X", "fb_subp1_write_sectors", 0x0p+0},
  {"X", "flops_dp_add", 0x0p+0},
  {"X", "flops_dp_fma", 0x0p+0},
  {"X", "flops_dp_mul", 0x0p+0},
  {"X", "flops_sp_add", 0x0p+0},
  {"X", "flops_sp_fma", 0x0p+0},
  {"X", "flops_sp_mul", 0x0p+0},
  {"X", "gld_request", 0x0p+0},
  {"X", "gst_request", 0x0p+0},
  {"X", "inst_integer", 0x0p+0},
  {"X", "l1_global_load_hit", 0x0p+0},
  {"X", "l1_shared_load_transactions", 0x0p+0},
  {"X", "l1_shared_store_transactions", 0x0p+0},
  {"X", "l2_subp0_read_l1_hit_sectors", 0x0p+0},
  {"X", "l2_subp0_total_read_sector_queries", 0x0p+0},
  {"X", "l2_subp0_total_write_sector_queries", 0x0p+0},
  {"X", "l2_subp1_read_l1_hit_sectors", 0x0p+0},
  {"X", "l2_subp2_read_l1_hit_sectors", 0x0p+0},
  {"X", "l2_subp3_read_l1_hit_sectors", 0x0p+0},
  {"DOWN", "fb_subp0_read_sectors", 0x1.d53ep+14},
  {"DOWN", "fb_subp0_write_sectors", 0x1.eeep+10},
  {"DOWN", "fb_subp1_read_sectors", 0x1.d53ep+14},
  {"DOWN", "fb_subp1_write_sectors", 0x1.eeep+10},
  {"DOWN", "flops_dp_add", 0x1.0899999999999p+19},
  {"DOWN", "flops_dp_fma", 0x1.34b3333333333p+21},
  {"DOWN", "flops_dp_mul", 0x1.0899999999999p+19},
  {"DOWN", "flops_sp_add", 0x1.60ccccccccccdp+20},
  {"DOWN", "flops_sp_fma", 0x1.9b99999999999p+22},
  {"DOWN", "flops_sp_mul", 0x1.60ccccccccccdp+20},
  {"DOWN", "gld_request", 0x1.4278p+17},
  {"DOWN", "gst_request", 0x1.2p+10},
  {"DOWN", "inst_integer", 0x1.c23p+23},
  {"DOWN", "l1_global_load_hit", 0x1.48p+7},
  {"DOWN", "l1_shared_load_transactions", 0x1.bc8p+18},
  {"DOWN", "l1_shared_store_transactions", 0x0p+0},
  {"DOWN", "l2_subp0_read_l1_hit_sectors", 0x1.2578p+17},
  {"DOWN", "l2_subp0_total_read_sector_queries", 0x1.42952p+19},
  {"DOWN", "l2_subp0_total_write_sector_queries", 0x1.12dp+12},
  {"DOWN", "l2_subp1_read_l1_hit_sectors", 0x1.2578p+17},
  {"DOWN", "l2_subp2_read_l1_hit_sectors", 0x1.2578p+17},
  {"DOWN", "l2_subp3_read_l1_hit_sectors", 0x1.2578p+17},
};

// 4096 points in 4 Gaussian clusters (sigma 0.05), Q = 32, adaptive: leaves
// on levels 3 to 5, nonempty W and X lists. p = 4.
constexpr Golden kAdaptive[] = {
  {"UP", "fb_subp0_read_sectors", 0x1.a86cp+14},
  {"UP", "fb_subp0_write_sectors", 0x1.57p+11},
  {"UP", "fb_subp1_read_sectors", 0x1.a86cp+14},
  {"UP", "fb_subp1_write_sectors", 0x1.57p+11},
  {"UP", "flops_dp_add", 0x1.6826666666666p+19},
  {"UP", "flops_dp_fma", 0x1.a42ccccccccccp+21},
  {"UP", "flops_dp_mul", 0x1.6826666666666p+19},
  {"UP", "flops_sp_add", 0x1.21dd999999999p+20},
  {"UP", "flops_sp_fma", 0x1.522d333333333p+22},
  {"UP", "flops_sp_mul", 0x1.21dd999999999p+20},
  {"UP", "gld_request", 0x1.bf3e4p+17},
  {"UP", "gst_request", 0x1.57p+10},
  {"UP", "inst_integer", 0x1.70368p+23},
  {"UP", "l1_global_load_hit", 0x1.a4p+7},
  {"UP", "l1_shared_load_transactions", 0x1.2c9ep+19},
  {"UP", "l1_shared_store_transactions", 0x1p+11},
  {"UP", "l2_subp0_read_l1_hit_sectors", 0x1.a4764p+17},
  {"UP", "l2_subp0_total_read_sector_queries", 0x1.befdp+19},
  {"UP", "l2_subp0_total_write_sector_queries", 0x1.57p+12},
  {"UP", "l2_subp1_read_l1_hit_sectors", 0x1.a4764p+17},
  {"UP", "l2_subp2_read_l1_hit_sectors", 0x1.a4764p+17},
  {"UP", "l2_subp3_read_l1_hit_sectors", 0x1.a4764p+17},
  {"U", "fb_subp0_read_sectors", 0x1.a5cp+9},
  {"U", "fb_subp0_write_sectors", 0x1.c4p+6},
  {"U", "fb_subp1_read_sectors", 0x1.a5cp+9},
  {"U", "fb_subp1_write_sectors", 0x1.c4p+6},
  {"U", "flops_dp_add", 0x0p+0},
  {"U", "flops_dp_fma", 0x0p+0},
  {"U", "flops_dp_mul", 0x0p+0},
  {"U", "flops_sp_add", 0x1.8ec9a99999999p+20},
  {"U", "flops_sp_fma", 0x1.d1409b3333333p+22},
  {"U", "flops_sp_mul", 0x1.8ec9a99999999p+20},
  {"U", "gld_request", 0x1.811dp+13},
  {"U", "gst_request", 0x1p+7},
  {"U", "inst_integer", 0x1.04c6f2p+24},
  {"U", "l1_global_load_hit", 0x1.9b76p+13},
  {"U", "l1_shared_load_transactions", 0x1.7bcc4p+15},
  {"U", "l1_shared_store_transactions", 0x1.711dp+15},
  {"U", "l2_subp0_read_l1_hit_sectors", 0x1.1ecp+9},
  {"U", "l2_subp0_total_read_sector_queries", 0x1.eecp+11},
  {"U", "l2_subp0_total_write_sector_queries", 0x1.f2p+7},
  {"U", "l2_subp1_read_l1_hit_sectors", 0x1.1ecp+9},
  {"U", "l2_subp2_read_l1_hit_sectors", 0x1.1ecp+9},
  {"U", "l2_subp3_read_l1_hit_sectors", 0x1.1ecp+9},
  {"V", "fb_subp0_read_sectors", 0x1.42d754p+21},
  {"V", "fb_subp0_write_sectors", 0x1.9955p+15},
  {"V", "fb_subp1_read_sectors", 0x1.42d754p+21},
  {"V", "fb_subp1_write_sectors", 0x1.9955p+15},
  {"V", "flops_dp_add", 0x0p+0},
  {"V", "flops_dp_fma", 0x0p+0},
  {"V", "flops_dp_mul", 0x0p+0},
  {"V", "flops_sp_add", 0x1.b618p+24},
  {"V", "flops_sp_fma", 0x1.ff1bfffffffffp+26},
  {"V", "flops_sp_mul", 0x1.b618p+24},
  {"V", "gld_request", 0x1.2856ep+21},
  {"V", "gst_request", 0x1.9d7p+14},
  {"V", "inst_integer", 0x1.11cfp+27},
  {"V", "l1_global_load_hit", 0x1.fb5b6p+18},
  {"V", "l1_shared_load_transactions", 0x1.40acp+22},
  {"V", "l1_shared_store_transactions", 0x1.40acp+22},
  {"V", "l2_subp0_read_l1_hit_sectors", 0x1.1e2p+19},
  {"V", "l2_subp0_total_read_sector_queries", 0x1.d1e754p+22},
  {"V", "l2_subp0_total_write_sector_queries", 0x1.9955p+16},
  {"V", "l2_subp1_read_l1_hit_sectors", 0x1.1e2p+19},
  {"V", "l2_subp2_read_l1_hit_sectors", 0x1.1e2p+19},
  {"V", "l2_subp3_read_l1_hit_sectors", 0x1.1e2p+19},
  {"W", "fb_subp0_read_sectors", 0x1.4f3p+11},
  {"W", "fb_subp0_write_sectors", 0x1.aep+6},
  {"W", "fb_subp1_read_sectors", 0x1.4f3p+11},
  {"W", "fb_subp1_write_sectors", 0x1.aep+6},
  {"W", "flops_dp_add", 0x0p+0},
  {"W", "flops_dp_fma", 0x0p+0},
  {"W", "flops_dp_mul", 0x0p+0},
  {"W", "flops_sp_add", 0x1.719f1cccccccdp+22},
  {"W", "flops_sp_fma", 0x1.af39a19999999p+24},
  {"W", "flops_sp_mul", 0x1.719f1cccccccdp+22},
  {"W", "gld_request", 0x1.2e8cp+13},
  {"W", "gst_request", 0x1.2d8p+6},
  {"W", "inst_integer", 0x1.c3b8c4p+25},
  {"W", "l1_global_load_hit", 0x1.9508p+12},
  {"W", "l1_shared_load_transactions", 0x1.582b4p+17},
  {"W", "l1_shared_store_transactions", 0x1.252p+15},
  {"W", "l2_subp0_read_l1_hit_sectors", 0x1.f01p+10},
  {"W", "l2_subp0_total_read_sector_queries", 0x1.9f1p+13},
  {"W", "l2_subp0_total_write_sector_queries", 0x1.d2p+7},
  {"W", "l2_subp1_read_l1_hit_sectors", 0x1.f01p+10},
  {"W", "l2_subp2_read_l1_hit_sectors", 0x1.f01p+10},
  {"W", "l2_subp3_read_l1_hit_sectors", 0x1.f01p+10},
  {"X", "fb_subp0_read_sectors", 0x1.048p+9},
  {"X", "fb_subp0_write_sectors", 0x1.aep+10},
  {"X", "fb_subp1_read_sectors", 0x1.048p+9},
  {"X", "fb_subp1_write_sectors", 0x1.aep+10},
  {"X", "flops_dp_add", 0x0p+0},
  {"X", "flops_dp_fma", 0x0p+0},
  {"X", "flops_dp_mul", 0x0p+0},
  {"X", "flops_sp_add", 0x1.719f1cccccccdp+22},
  {"X", "flops_sp_fma", 0x1.af39a19999999p+24},
  {"X", "flops_sp_mul", 0x1.719f1cccccccdp+22},
  {"X", "gld_request", 0x1.8956p+12},
  {"X", "gst_request", 0x1.0dfp+10},
  {"X", "inst_integer", 0x1.c6cb7p+25},
  {"X", "l1_global_load_hit", 0x1.aa2p+12},
  {"X", "l1_shared_load_transactions", 0x1.582b4p+17},
  {"X", "l1_shared_store_transactions", 0x1.8956p+14},
  {"X", "l2_subp0_read_l1_hit_sectors", 0x1.c3p+6},
  {"X", "l2_subp0_total_read_sector_queries", 0x1.754p+10},
  {"X", "l2_subp0_total_write_sector_queries", 0x1.aep+11},
  {"X", "l2_subp1_read_l1_hit_sectors", 0x1.c3p+6},
  {"X", "l2_subp2_read_l1_hit_sectors", 0x1.c3p+6},
  {"X", "l2_subp3_read_l1_hit_sectors", 0x1.c3p+6},
  {"DOWN", "fb_subp0_read_sectors", 0x1.d622p+14},
  {"DOWN", "fb_subp0_write_sectors", 0x1.38ap+11},
  {"DOWN", "fb_subp1_read_sectors", 0x1.d622p+14},
  {"DOWN", "fb_subp1_write_sectors", 0x1.38ap+11},
  {"DOWN", "flops_dp_add", 0x1.6826666666666p+19},
  {"DOWN", "flops_dp_fma", 0x1.a42ccccccccccp+21},
  {"DOWN", "flops_dp_mul", 0x1.6826666666666p+19},
  {"DOWN", "flops_sp_add", 0x1.21dd999999999p+20},
  {"DOWN", "flops_sp_fma", 0x1.522d333333333p+22},
  {"DOWN", "flops_sp_mul", 0x1.21dd999999999p+20},
  {"DOWN", "gld_request", 0x1.bf5cp+17},
  {"DOWN", "gst_request", 0x1.682p+10},
  {"DOWN", "inst_integer", 0x1.6f368p+23},
  {"DOWN", "l1_global_load_hit", 0x1.b38p+7},
  {"DOWN", "l1_shared_load_transactions", 0x1.2c9ep+19},
  {"DOWN", "l1_shared_store_transactions", 0x0p+0},
  {"DOWN", "l2_subp0_read_l1_hit_sectors", 0x1.a25b2p+17},
  {"DOWN", "l2_subp0_total_read_sector_queries", 0x1.bf828p+19},
  {"DOWN", "l2_subp0_total_write_sector_queries", 0x1.56p+12},
  {"DOWN", "l2_subp1_read_l1_hit_sectors", 0x1.a25b2p+17},
  {"DOWN", "l2_subp2_read_l1_hit_sectors", 0x1.a25b2p+17},
  {"DOWN", "l2_subp3_read_l1_hit_sectors", 0x1.a25b2p+17},
};

FmmGpuProfile profile_uniform() {
  static const LaplaceKernel kernel;
  util::Rng rng(5);
  const auto pts = uniform_cube(8192, rng);
  const FmmEvaluator ev(kernel, pts,
                        {.max_points_per_box = 64,
                         .uniform_depth = Octree::uniform_depth_for(8192, 64)},
                        FmmConfig{.p = 4});
  return profile_gpu_execution(ev);
}

FmmGpuProfile profile_adaptive() {
  static const LaplaceKernel kernel;
  util::Rng rng(9);
  const auto pts = gaussian_clusters(4096, 4, 0.05, rng);
  const FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32},
                        FmmConfig{.p = 4});
  return profile_gpu_execution(ev);
}

template <std::size_t N>
void expect_golden(const FmmGpuProfile& prof, const Golden (&golden)[N]) {
  std::size_t counters = 0;
  for (const auto& phase : prof.phases)
    counters += phase.counters.values().size();
  EXPECT_EQ(counters, N);
  for (const Golden& g : golden) {
    const auto phase = std::find_if(
        prof.phases.begin(), prof.phases.end(),
        [&](const GpuPhaseProfile& p) { return p.name == g.phase; });
    ASSERT_NE(phase, prof.phases.end()) << g.phase;
    ASSERT_TRUE(phase->counters.has(g.counter)) << g.phase << " " << g.counter;
    const double got = phase->counters.get(g.counter);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(g.value))
        << g.phase << " " << g.counter << ": " << got << " vs " << g.value;
  }
}

/// Runs `fn` with OpenMP limited to `threads`, restoring the previous limit.
template <class Fn>
void with_threads(int threads, Fn fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  fn();
  omp_set_num_threads(saved);
#else
  (void)threads;
  fn();
#endif
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

TEST(GpuProfileGolden, UniformTreeCountersMatchSerialModel) {
  const auto check = [] { expect_golden(profile_uniform(), kUniform); };
  with_threads(1, check);
  with_threads(max_threads(), check);
}

TEST(GpuProfileGolden, AdaptiveTreeCountersMatchSerialModel) {
  const auto check = [] { expect_golden(profile_adaptive(), kAdaptive); };
  with_threads(1, check);
  with_threads(max_threads(), check);
}

}  // namespace
}  // namespace eroof::fmm
