// Engine-level Tuning::refresh integration: the opt-in closed loop measures
// each tuned step in service, streams the samples through the drift
// detector, refits on a thermal ramp, and rebaselines the chain DP -- all
// bitwise-reproducibly across OpenMP thread counts (the measurement noise
// is identity-keyed by (measure_seed, step), never by execution history).
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "util/require.hpp"

namespace eroof::dynamics {
namespace {

constexpr fmm::Box kDomain{{0.5, 0.5, 0.5}, 0.5};

std::shared_ptr<const fmm::Kernel> laplace() {
  static const auto k = std::make_shared<const fmm::LaplaceKernel>();
  return k;
}

DynamicsEngine::Config refresh_config() {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.context = TuneContext::tegra_default();
  cfg.tuning.refresh.enabled = true;
  // An aggressive ramp: leakage climbs 1.0 -> 2.0 over steps 2..8, far past
  // the 5% drift bound, so the detector must fire within the run.
  cfg.tuning.refresh.ramp = {1.0, 2.0, 2, 6, 0.0, 11};
  cfg.tuning.refresh.online.min_observations = 10;
  cfg.tuning.refresh.online.cooldown = 10;
  cfg.tuning.refresh.measure_seed = 77;
  return cfg;
}

TEST(RefreshLoop, ThermalDriftTriggersRefitAndRebaseline) {
  DynamicsEngine engine(laplace(), ParticleSystem::random(700, kDomain, 51),
                        refresh_config());
  LeapfrogMover mover({.dt = 1e-6});  // negligible structural drift
  for (int s = 0; s < 12; ++s) engine.step(mover);

  ASSERT_NE(engine.refresh(), nullptr);
  const auto& st = engine.stats();
  EXPECT_EQ(st.steps, 12u);
  // The model-side detector fired at least once on the 2x leakage ramp...
  EXPECT_GE(st.refreshes, 1u);
  EXPECT_EQ(engine.refresh()->stats().refreshes, st.refreshes);
  // ...and every refresh re-ran the DP on top of the step-0 search.
  EXPECT_GE(st.tunes, 1u + st.refreshes);
  // In-service measurement accumulated real energy/time at the final scale.
  EXPECT_GT(st.measured_energy_j, 0.0);
  EXPECT_GT(st.measured_time_s, 0.0);
  EXPECT_DOUBLE_EQ(st.last_leak_scale, 2.0);
  // Each step observed 6 FMM phases + 1 idle probe.
  EXPECT_EQ(engine.refresh()->stats().observations, 12u * 7u);
  // The refit moved the model toward the hot regime: its constant power at
  // the seed grid's top setting now exceeds the frozen seed model's.
  const DynamicsEngine::Config cfg = refresh_config();
  const auto& ctx = *cfg.tuning.context;
  EXPECT_GT(engine.refresh()->model().constant_power_w(ctx.grid.back()),
            ctx.model.constant_power_w(ctx.grid.back()));
}

TEST(RefreshLoop, BitwiseDeterministicAcrossThreadCounts) {
  struct Outcome {
    std::vector<double> energies;
    double measured_j = 0;
    double drift = 0;
    std::uint64_t refreshes = 0;
  };
  auto run = [](int threads) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    DynamicsEngine engine(laplace(), ParticleSystem::random(600, kDomain, 52),
                          refresh_config());
    LeapfrogMover mover({.dt = 1e-6});
    Outcome out;
    for (int s = 0; s < 10; ++s) {
      engine.step(mover);
      out.energies.push_back(engine.potential_energy());
    }
    out.measured_j = engine.stats().measured_energy_j;
    out.drift = engine.stats().drift;
    out.refreshes = engine.stats().refreshes;
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return out;
  };
  const Outcome base = run(1);
  for (const int threads : {2, 4}) {
    const Outcome other = run(threads);
    ASSERT_EQ(other.energies.size(), base.energies.size());
    for (std::size_t i = 0; i < base.energies.size(); ++i)
      EXPECT_EQ(std::memcmp(&other.energies[i], &base.energies[i],
                            sizeof(double)),
                0)
          << "potential energy diverged at step " << i << ", " << threads
          << " threads";
    EXPECT_EQ(
        std::memcmp(&other.measured_j, &base.measured_j, sizeof(double)), 0)
        << "measured energy diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(&other.drift, &base.drift, sizeof(double)), 0)
        << "drift EWMA diverged at " << threads << " threads";
    EXPECT_EQ(other.refreshes, base.refreshes);
  }
}

TEST(RefreshLoop, RefreshWithoutContextIsRejected) {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.refresh.enabled = true;  // but no TuneContext
  EXPECT_THROW(
      DynamicsEngine(laplace(), ParticleSystem::random(64, kDomain, 53), cfg),
      util::ContractError);
}

TEST(RefreshLoop, RefreshOffLeavesMeasurementStatsZero) {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.context = TuneContext::tegra_default();
  DynamicsEngine engine(laplace(), ParticleSystem::random(400, kDomain, 54),
                        cfg);
  LeapfrogMover mover({.dt = 1e-6});
  for (int s = 0; s < 3; ++s) engine.step(mover);
  EXPECT_EQ(engine.refresh(), nullptr);
  EXPECT_EQ(engine.stats().refreshes, 0u);
  EXPECT_EQ(engine.stats().measured_energy_j, 0.0);
  EXPECT_EQ(engine.stats().measured_time_s, 0.0);
  EXPECT_EQ(engine.stats().drift, 0.0);
  EXPECT_DOUBLE_EQ(engine.stats().last_leak_scale, 1.0);
}

}  // namespace
}  // namespace eroof::dynamics
