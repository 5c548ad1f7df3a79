// Deterministic-pipeline regression: the fig4-style profiling pipeline
// (point generation -> FmmEvaluator::evaluate -> profile_gpu_execution) is
// run twice at a fixed seed and its trace counter registry must match
// bit-for-bit -- including across OMP_NUM_THREADS variation -- so thread
// scheduling or future refactors cannot silently change the paper numbers.
// The traced measurement paths (campaign, measure_grid) replay the same way
// and emit exactly one power_w sample per PowerMon measurement.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/autotune.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "trace/trace.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace eroof {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const std::map<std::string, double>& a,
                          const std::map<std::string, double>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_TRUE(bit_equal(ia->second, ib->second))
        << ia->first << ": " << ia->second << " vs " << ib->second;
  }
}

struct PipelineResult {
  std::map<std::string, double> totals;
  std::vector<double> phi;
};

/// A scaled-down bench/common.hpp profile_fmm_input pipeline: same seed
/// scheme (1000 + n + q), same uniform tree, plus a real evaluation.
/// `num_threads` <= 0 leaves the OpenMP thread count untouched.
PipelineResult run_fig4_pipeline(int num_threads) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  if (num_threads > 0) omp_set_num_threads(num_threads);
#else
  (void)num_threads;
#endif
  PipelineResult out;
  {
    const std::size_t n = 8192;
    const std::uint32_t q = 64;
    static const fmm::LaplaceKernel kernel;
    util::Rng rng(1000 + n + q);
    const auto pts = fmm::uniform_cube(n, rng);
    fmm::FmmEvaluator ev(
        kernel, pts,
        {.max_points_per_box = q,
         .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
        fmm::FmmConfig{.p = 3});
    std::vector<double> dens(n);
    for (auto& d : dens) d = rng.uniform(-1.0, 1.0);

    trace::TraceSession session;
    {
      trace::SessionGuard guard(session);
      out.phi = ev.evaluate(dens);
      (void)fmm::profile_gpu_execution(ev);
    }
    out.totals = session.counter_totals();
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return out;
}

TEST(Determinism, Fig4PipelineCountersBitIdenticalAcrossRuns) {
  const auto a = run_fig4_pipeline(0);
  const auto b = run_fig4_pipeline(0);
  ASSERT_FALSE(a.totals.empty());
  expect_bitwise_equal(a.totals, b.totals);
}

TEST(Determinism, Fig4PipelineCountersBitIdenticalAcrossThreadCounts) {
  const auto serial = run_fig4_pipeline(1);
  ASSERT_FALSE(serial.totals.empty());
  // An odd count splits the cache simulator's 32 set partitions unevenly.
  // (Without OpenMP every run is serial and the loop compares equal runs.)
  for (const int threads : {2, 3, 4}) {
    SCOPED_TRACE(threads);
    const auto parallel = run_fig4_pipeline(threads);
    expect_bitwise_equal(serial.totals, parallel.totals);

    // The potentials themselves are also bit-identical: every output
    // element is accumulated in a fixed serial order inside its own loop
    // iteration, independent of how iterations are scheduled across threads.
    ASSERT_EQ(serial.phi.size(), parallel.phi.size());
    for (std::size_t i = 0; i < serial.phi.size(); ++i)
      ASSERT_TRUE(bit_equal(serial.phi[i], parallel.phi[i])) << i;
  }
}

/// Counter totals plus the number of "power_w" samples of one traced run.
struct TracedRun {
  std::map<std::string, double> totals;
  std::size_t power_samples = 0;
};

TracedRun collect(const trace::TraceSession& session) {
  TracedRun out;
  out.totals = session.counter_totals();
  for (const auto& c : session.counter_samples())
    if (c.name == "power_w") ++out.power_samples;
  return out;
}

TEST(Determinism, CampaignAndPowerMonCountersReplayFromSeed) {
  auto points = ub::intensity_sweep(ub::BenchClass::kSpFlops, 8e6);
  if (points.size() > 4) points.resize(4);
  const std::vector<hw::LabeledSetting> settings(
      hw::table1_settings().begin(), hw::table1_settings().begin() + 2);
  const auto run_once = [&] {
    const auto soc = hw::Soc::tegra_k1();
    const hw::PowerMon pm;
    util::Rng rng(7);
    trace::TraceSession session;
    {
      trace::SessionGuard guard(session);
      (void)ub::run_campaign(soc, points, settings, pm,
                             util::RngStream(rng()));
    }
    return collect(session);
  };

  const auto a = run_once();
  const auto b = run_once();
  const std::size_t cells = points.size() * settings.size();
  ASSERT_FALSE(a.totals.empty());
  // One PowerMon measurement -- one power_w sample -- per campaign cell.
  EXPECT_EQ(a.power_samples, cells);
  EXPECT_EQ(a.totals.at("ubench.samples"), static_cast<double>(cells));
  EXPECT_EQ(a.totals.at("powermon.measurements"), static_cast<double>(cells));
  // Both totals sum the same cell energies in the same order.
  EXPECT_TRUE(bit_equal(a.totals.at("powermon.energy_j"),
                        a.totals.at("ubench.energy_j")));
  expect_bitwise_equal(a.totals, b.totals);
}

TEST(Determinism, MeasureGridTracesOneSamplePerRunAcrossThreadCounts) {
  constexpr int kRepeats = 3;
  const auto full = hw::full_grid();
  const std::vector<hw::DvfsSetting> grid(full.begin(), full.begin() + 6);
  const auto run_grid = [&](int num_threads) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(num_threads);
#else
    (void)num_threads;
#endif
    const auto soc = hw::Soc::tegra_k1();
    const hw::PowerMon pm;
    const auto w = ub::intensity_sweep(ub::BenchClass::kSpFlops)[0].workload;
    trace::TraceSession session;
    {
      trace::SessionGuard guard(session);
      (void)model::measure_grid(soc, w, grid, pm, util::RngStream(17),
                                kRepeats);
    }
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return collect(session);
  };

  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  const std::size_t runs = grid.size() * kRepeats;
  EXPECT_EQ(serial.power_samples, runs);
  EXPECT_EQ(parallel.power_samples, runs);
  EXPECT_EQ(serial.totals.at("powermon.measurements"),
            static_cast<double>(runs));
  expect_bitwise_equal(serial.totals, parallel.totals);
}

}  // namespace
}  // namespace eroof
