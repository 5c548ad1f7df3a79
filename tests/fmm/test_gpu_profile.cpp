#include "fmm/gpu_profile.hpp"

#include <gtest/gtest.h>

#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

FmmEvaluator make_evaluator(std::size_t n = 8192, std::uint32_t q = 64,
                            bool uniform = true) {
  static const LaplaceKernel kernel;
  util::Rng rng(5);
  const auto pts = uniform_cube(n, rng);
  Octree::Params params{.max_points_per_box = q};
  if (uniform) params.uniform_depth = Octree::uniform_depth_for(n, q);
  return FmmEvaluator(kernel, pts, params, FmmConfig{.p = 4});
}

TEST(GpuProfile, HasTheSixPaperPhases) {
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  ASSERT_EQ(prof.phases.size(), 6u);
  EXPECT_EQ(prof.phases[0].name, "UP");
  EXPECT_EQ(prof.phases[1].name, "U");
  EXPECT_EQ(prof.phases[2].name, "V");
  EXPECT_EQ(prof.phases[3].name, "W");
  EXPECT_EQ(prof.phases[4].name, "X");
  EXPECT_EQ(prof.phases[5].name, "DOWN");
}

TEST(GpuProfile, UPhaseFlopsMatchEvaluatorTallies) {
  auto ev = make_evaluator();
  util::Rng rng(6);
  const auto dens = random_densities(ev.tree().points().size(), rng);
  ev.evaluate(dens);
  const auto prof = profile_gpu_execution(ev);

  // The profiler prices each pairwise interaction at (flops_per_eval + 2)
  // SP ops; the evaluator tallies plain kernel evaluations.
  const double expected_sp = ev.stats().u.kernel_evals *
                             (ev.kernel().flops_per_eval() + 2.0);
  const double profiled_sp =
      prof.phases[1].counters.get("flops_sp_fma") +
      prof.phases[1].counters.get("flops_sp_add") +
      prof.phases[1].counters.get("flops_sp_mul");
  EXPECT_NEAR(profiled_sp, expected_sp, 1e-6 * expected_sp);
}

TEST(GpuProfile, VPhasePairCountMatchesEvaluator) {
  auto ev = make_evaluator();
  util::Rng rng(7);
  const auto dens = random_densities(ev.tree().points().size(), rng);
  ev.evaluate(dens);
  const auto prof = profile_gpu_execution(ev);
  // Hadamard flops = 8 per grid element per pair.
  const double g = static_cast<double>(ev.operators().grid_size());
  const double expected_hadamard_sp = ev.stats().v.pair_count * 8.0 * g;
  // V-phase SP also includes FFT flops; the Hadamard part must be a lower
  // bound.
  const double profiled_sp = prof.phases[2].counters.get("flops_sp_fma") +
                             prof.phases[2].counters.get("flops_sp_add") +
                             prof.phases[2].counters.get("flops_sp_mul");
  EXPECT_GE(profiled_sp, expected_hadamard_sp * 0.999);
}

TEST(GpuProfile, UniformTreeHasEmptyWAndXPhases)  {
  const auto ev = make_evaluator(8192, 64, true);
  const auto prof = profile_gpu_execution(ev);
  EXPECT_DOUBLE_EQ(prof.phases[3].workload.ops.compute_ops(), 0.0);
  EXPECT_DOUBLE_EQ(prof.phases[4].workload.ops.compute_ops(), 0.0);
}

TEST(GpuProfile, IntegerShareNearSixtyPercent) {
  // Paper Fig. 4: integer instructions ~60% of computation instructions.
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  const auto total = prof.total("t");
  const double ints = total.ops[hw::OpClass::kIntOp];
  const double all = total.ops.compute_ops();
  EXPECT_GT(ints / all, 0.45);
  EXPECT_LT(ints / all, 0.70);
}

TEST(GpuProfile, DramSmallShareOfAccesses) {
  // Paper Fig. 4: DRAM ~13% of data accesses.
  const auto ev = make_evaluator(16384, 64);
  const auto prof = profile_gpu_execution(ev);
  const auto total = prof.total("t");
  const double dram = total.ops[hw::OpClass::kDramAccess];
  const double mem = total.ops.memory_ops();
  EXPECT_GT(dram / mem, 0.02);
  EXPECT_LT(dram / mem, 0.30);
}

TEST(GpuProfile, SharedMemoryDominatesAccesses) {
  const auto ev = make_evaluator(16384, 64);
  const auto prof = profile_gpu_execution(ev);
  const auto total = prof.total("t");
  EXPECT_GT(total.ops[hw::OpClass::kSmAccess], 0.3 * total.ops.memory_ops());
}

TEST(GpuProfile, SolvePhasesCarryTheDoublePrecision) {
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  // UP and DOWN contain the DP check-to-equivalent solves; U must be pure SP.
  EXPECT_GT(prof.phases[0].workload.ops[hw::OpClass::kDpFlop], 0.0);
  EXPECT_GT(prof.phases[5].workload.ops[hw::OpClass::kDpFlop], 0.0);
  EXPECT_DOUBLE_EQ(prof.phases[1].workload.ops[hw::OpClass::kDpFlop], 0.0);
}

TEST(GpuProfile, UtilizationsAreWellBelowPeak) {
  // The paper attributes the FMM's constant-power dominance to < 1/4 of
  // peak IPC.
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  for (const auto& ph : prof.phases) {
    EXPECT_LE(ph.workload.compute_utilization, 0.35) << ph.name;
    EXPECT_GT(ph.workload.compute_utilization, 0.0) << ph.name;
  }
}

TEST(GpuProfile, TotalsSumThePhases) {
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  const auto total = prof.total("sum");
  double sp = 0;
  for (const auto& ph : prof.phases)
    sp += ph.workload.ops[hw::OpClass::kSpFlop];
  EXPECT_NEAR(total.ops[hw::OpClass::kSpFlop], sp, 1e-6 * sp);

  const auto counters = prof.total_counters();
  EXPECT_GT(counters.get("inst_integer"), 0.0);
}

TEST(GpuProfile, DerivedCountsRoundTripThroughTable3Events) {
  // The workload counts must equal derive_op_counts applied to the emitted
  // counter events -- the full nvprof-style pipeline.
  const auto ev = make_evaluator();
  const auto prof = profile_gpu_execution(ev);
  for (const auto& ph : prof.phases) {
    const auto derived = hw::derive_op_counts(ph.counters);
    for (std::size_t i = 0; i < hw::kNumOpClasses; ++i)
      EXPECT_NEAR(derived.n[i], ph.workload.ops.n[i],
                  1e-9 * (ph.workload.ops.n[i] + 1.0))
          << ph.name << " class " << i;
  }
}

TEST(GpuProfile, AdaptiveTreeProducesWAndXWork) {
  static const LaplaceKernel kernel;
  util::Rng rng(9);
  const auto pts = gaussian_clusters(8192, 4, 0.02, rng);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 4});
  const auto prof = profile_gpu_execution(ev);
  EXPECT_GT(prof.phases[3].workload.ops.compute_ops(), 0.0);  // W
  EXPECT_GT(prof.phases[4].workload.ops.compute_ops(), 0.0);  // X
}

}  // namespace
}  // namespace eroof::fmm
