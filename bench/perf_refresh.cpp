// Closed-loop online model refresh under thermal drift (DESIGN.md §14).
//
// A long-horizon run where the ground-truth die leakage ramps mid-run
// (hw::ThermalRamp scaling GroundTruthEnergy::leak_scale), priced three
// ways over identical per-step thermal states:
//
//   static     the frozen PR 5 schedule: chain DP over the seed model's
//              prediction grid, installed at step 0, never revisited;
//   refreshed  model::ClosedLoopScheduler: executes its installed schedule,
//              streams the in-service PowerMon samples (plus the rotating
//              pi_0 probe) into the drift detector, refits + re-runs the DP
//              when it fires;
//   oracle     omniscient per-step re-fit: chain DP over the *ground-truth*
//              prediction grid at the step's exact leakage (the lower bound
//              no measurement-driven controller can beat).
//
// All three are scored with model::true_schedule_cost on the step's hot
// SoC -- noiseless ground truth, not the controller's own noisy meter.
//
// Two sections, because which story a phase chain tells is a property of
// its utilization (see tests/core/test_refresh.cpp):
//
//   track  a high-utilization compute chain whose energy-optimal settings
//          sit mid-ladder and climb as leakage grows. The headline: the
//          refreshed loop must dissipate measurably less ground-truth
//          energy than the frozen schedule and stay within a stated bound
//          of the oracle. The full trajectory is emitted.
//   hold   the real KIFMM phase chain. Its profiled utilizations pin every
//          phase's optimum to a grid corner, so the optimum never moves and
//          the right behavior is to *hold* the schedule: the gate is that
//          closing the loop costs (almost) nothing next to the oracle --
//          i.e. drift-triggered refits do not make the controller thrash.
//
// The track section additionally replays at 1/2/4 OpenMP threads and
// memcmps the cumulative energies and the final refitted coefficients --
// the harness exits nonzero on any bitwise divergence, a missed tracking
// bound, or a thrashing hold section.
//
// --bench-json[=path] writes the machine-readable summary (default
// BENCH_refresh.json); bench/results/BENCH_refresh.json is the committed
// headline run (64 steps, leak 1.0 -> 4.0, kifmm n=16384 q=64 p=4).
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/fit.hpp"
#include "core/refresh.hpp"
#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/kernel.hpp"
#include "fmm/pointgen.hpp"
#include "hw/dvfs.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;
using bench::flag_value;

struct Params {
  std::string json_path = "BENCH_refresh.json";
  int steps = 64;
  double leak_end = 4.0;
  std::size_t kifmm_n = 16384;
  std::uint32_t kifmm_q = 64;
  /// Stated acceptance bounds, also emitted into the JSON.
  double track_vs_static_max = 0.99;   ///< refreshed/static must be below
  double track_vs_oracle_max = 1.03;   ///< refreshed/oracle must be below
  /// The hold chain's optimum never moves, so the frozen schedule is
  /// already right: closing the loop must not cost anything on top of it.
  double hold_vs_static_max = 1.001;   ///< refreshed/static must be below
};

/// The seed state every controller starts from: the paper campaign's
/// training half and the model fitted from it (the PR 5 pipeline).
struct SeedFit {
  std::vector<model::FitSample> train;
  model::EnergyModel model;
};

SeedFit seed_fit(const hw::Soc& soc) {
  const hw::PowerMon pm;
  const auto campaign = ub::paper_campaign(soc, pm, util::RngStream(42));
  SeedFit seed;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      seed.train.push_back(model::to_fit_sample(s.meas));
  seed.model = model::fit_energy_model(seed.train).model;
  return seed;
}

/// The tracking chain: high compute utilization on purpose -- those phases
/// have interior energy-optimal settings, which is what leakage drift
/// moves (low-utilization phases race to a grid corner and stay there).
std::vector<hw::Workload> track_phases() {
  hw::Workload a;
  a.name = "track_compute";
  a.ops[hw::OpClass::kSpFlop] = 8e9;
  a.ops[hw::OpClass::kDramAccess] = 1e6;
  a.compute_utilization = 0.95;
  a.memory_utilization = 0.2;

  hw::Workload b;
  b.name = "track_compute2";
  b.ops[hw::OpClass::kSpFlop] = 4e9;
  b.ops[hw::OpClass::kDramAccess] = 5e5;
  b.compute_utilization = 0.85;
  b.memory_utilization = 0.15;

  hw::Workload c;
  c.name = "track_mixed";
  c.ops[hw::OpClass::kSpFlop] = 2e9;
  c.ops[hw::OpClass::kDramAccess] = 64e6;
  c.compute_utilization = 0.7;
  c.memory_utilization = 0.7;
  return {a, b, c};
}

std::vector<hw::Workload> kifmm_phases(std::size_t n, std::uint32_t q) {
  static const fmm::LaplaceKernel kernel;
  util::Rng rng(1000 + n + q);
  const auto pts = fmm::uniform_cube(n, rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = q,
       .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
      fmm::FmmConfig{.p = 4});
  const auto prof = fmm::profile_gpu_execution(ev);
  std::vector<hw::Workload> phases;
  for (const auto& ph : prof.phases) phases.push_back(ph.workload);
  return phases;
}

struct StepRecord {
  double leak_scale = 0;
  double static_j = 0, refreshed_j = 0, oracle_j = 0;
  double drift = 0;
  bool refreshed = false;
};

struct SectionResult {
  std::vector<StepRecord> trajectory;
  double static_j = 0, refreshed_j = 0, oracle_j = 0;
  std::uint64_t refreshes = 0;
  model::EnergyModel final_model;
  double measured_j = 0;  ///< what the loop's own meter integrated
};

SectionResult run_section(const SeedFit& seed,
                          const std::vector<hw::Workload>& phases,
                          const hw::ThermalRamp& ramp, int steps) {
  const auto soc = hw::Soc::tegra_k1();
  const auto grid = hw::full_grid();
  const hw::DvfsTransitionModel tm{100e-6, 50e-6};

  model::OnlineRefreshConfig cfg;
  // First refit only after the probe rotation has covered a meaningful
  // slice of the grid: a refit from a still-underdetermined stream can
  // spuriously predict a >deadband improvement and install a worse
  // schedule (steeper ramps concentrate the drift into fewer, less
  // identified observations).
  cfg.min_observations = 32;
  cfg.cooldown = 16;
  model::ClosedLoopScheduler loop(seed.model, soc, grid, tm, phases, cfg);
  loop.seed_anchor(seed.train);
  const model::PhaseSchedule static_sched = loop.schedule();

  const util::RngStream noise(2024);
  SectionResult out;
  out.trajectory.reserve(static_cast<std::size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    StepRecord rec;
    rec.leak_scale = ramp.scale_at(static_cast<std::uint64_t>(k));
    const hw::Soc hot = soc.with_leakage_scale(rec.leak_scale);
    const auto truth = model::oracle_phase_grid(hot, phases, grid);
    rec.static_j =
        model::true_schedule_cost(hot, phases, truth, static_sched, tm)
            .energy_j;
    rec.refreshed_j =
        model::true_schedule_cost(hot, phases, truth, loop.schedule(), tm)
            .energy_j;
    rec.oracle_j = model::true_schedule_cost(
                       hot, phases, truth, model::schedule_phases(truth, tm), tm)
                       .energy_j;
    const auto rep = loop.step(rec.leak_scale, noise.fork(k));
    rec.drift = rep.drift;
    rec.refreshed = rep.refreshed;
    out.measured_j += rep.measured_energy_j;
    out.static_j += rec.static_j;
    out.refreshed_j += rec.refreshed_j;
    out.oracle_j += rec.oracle_j;
    out.trajectory.push_back(rec);
  }
  out.refreshes = loop.refresh().stats().refreshes;
  out.final_model = loop.model();
  return out;
}

bool models_bits_equal(const model::EnergyModel& a,
                       const model::EnergyModel& b) {
  return std::memcmp(a.c0.data(), b.c0.data(), sizeof(a.c0)) == 0 &&
         std::memcmp(&a.c1_proc, &b.c1_proc, sizeof(double)) == 0 &&
         std::memcmp(&a.c1_mem, &b.c1_mem, sizeof(double)) == 0 &&
         std::memcmp(&a.p_misc, &b.p_misc, sizeof(double)) == 0;
}

void write_section(std::ofstream& out, const char* name,
                   const SectionResult& r, bool with_trajectory) {
  out << "  \"" << name << "\": {\n";
  out << "    \"static_true_j\": " << r.static_j << ",\n";
  out << "    \"refreshed_true_j\": " << r.refreshed_j << ",\n";
  out << "    \"oracle_true_j\": " << r.oracle_j << ",\n";
  out << "    \"refreshed_vs_static\": " << r.refreshed_j / r.static_j
      << ",\n";
  out << "    \"refreshed_vs_oracle\": " << r.refreshed_j / r.oracle_j
      << ",\n";
  out << "    \"refreshes\": " << r.refreshes << ",\n";
  out << "    \"measured_energy_j\": " << r.measured_j;
  if (with_trajectory) {
    out << ",\n    \"trajectory\": [\n";
    for (std::size_t k = 0; k < r.trajectory.size(); ++k) {
      const StepRecord& s = r.trajectory[k];
      out << "      {\"step\": " << k << ", \"leak_scale\": " << s.leak_scale
          << ", \"static_j\": " << s.static_j
          << ", \"refreshed_j\": " << s.refreshed_j
          << ", \"oracle_j\": " << s.oracle_j << ", \"drift\": " << s.drift
          << ", \"refreshed\": " << (s.refreshed ? "true" : "false") << "}"
          << (k + 1 < r.trajectory.size() ? ",\n" : "\n");
    }
    out << "    ]\n";
  } else {
    out << "\n";
  }
  out << "  }";
}

int run_bench(const Params& prm) {
  const auto soc = hw::Soc::tegra_k1();
  const SeedFit seed = seed_fit(soc);
  const hw::ThermalRamp ramp{1.0, prm.leak_end, 4,
                             static_cast<std::uint64_t>(prm.steps) / 2, 0.0,
                             7};

  std::fprintf(stderr, "bench-json: track section, %d steps, leak 1 -> %g\n",
               prm.steps, prm.leak_end);
  const SectionResult track = run_section(seed, track_phases(), ramp,
                                          prm.steps);

  std::fprintf(stderr, "bench-json: hold section, kifmm n=%zu q=%u\n",
               prm.kifmm_n, prm.kifmm_q);
  const SectionResult hold = run_section(
      seed, kifmm_phases(prm.kifmm_n, prm.kifmm_q), ramp, prm.steps);

  // Determinism sweep: the track section must replay bit for bit at every
  // thread count (identity-keyed measurement noise, ordered reductions).
  bool bitwise = true;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    const SectionResult rerun =
        run_section(seed, track_phases(), ramp, prm.steps);
    bitwise &= std::memcmp(&rerun.refreshed_j, &track.refreshed_j,
                           sizeof(double)) == 0;
    bitwise &= std::memcmp(&rerun.measured_j, &track.measured_j,
                           sizeof(double)) == 0;
    bitwise &= models_bits_equal(rerun.final_model, track.final_model);
    std::fprintf(stderr, "bench-json: determinism at %d threads: %s\n", t,
                 bitwise ? "ok" : "DIVERGED");
  }
  omp_set_num_threads(saved);
#endif

  std::ofstream out(prm.json_path);
  if (!out) {
    std::fprintf(stderr, "bench-json: cannot open %s for writing\n",
                 prm.json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"refresh\",\n";
  out << "  \"steps\": " << prm.steps << ",\n";
  out << "  \"leak_start\": 1.0,\n  \"leak_end\": " << prm.leak_end << ",\n";
  out << "  \"kifmm_n\": " << prm.kifmm_n << ",\n";
  out << "  \"kifmm_q\": " << prm.kifmm_q << ",\n";
  out << "  \"bounds\": {\"track_vs_static_max\": " << prm.track_vs_static_max
      << ", \"track_vs_oracle_max\": " << prm.track_vs_oracle_max
      << ", \"hold_vs_static_max\": " << prm.hold_vs_static_max << "},\n";
  out << "  \"bitwise_identical\": " << (bitwise ? "true" : "false") << ",\n";
  write_section(out, "track", track, /*with_trajectory=*/true);
  out << ",\n";
  write_section(out, "hold", hold, /*with_trajectory=*/false);
  out << "\n}\n";
  std::fprintf(stderr, "bench-json: wrote %s\n", prm.json_path.c_str());

  int rc = 0;
  const double ts = track.refreshed_j / track.static_j;
  const double to = track.refreshed_j / track.oracle_j;
  const double hs = hold.refreshed_j / hold.static_j;
  std::fprintf(stderr,
               "track: refreshed/static %.4f (max %.4f), refreshed/oracle "
               "%.4f (max %.4f), %llu refreshes\n",
               ts, prm.track_vs_static_max, to, prm.track_vs_oracle_max,
               static_cast<unsigned long long>(track.refreshes));
  std::fprintf(stderr,
               "hold: refreshed/static %.4f (max %.4f), refreshed/oracle "
               "%.4f\n",
               hs, prm.hold_vs_static_max, hold.refreshed_j / hold.oracle_j);
  if (ts >= prm.track_vs_static_max) {
    std::fprintf(stderr, "FAIL: refreshed did not beat the frozen schedule\n");
    rc = 1;
  }
  if (to >= prm.track_vs_oracle_max) {
    std::fprintf(stderr, "FAIL: refreshed strayed too far from the oracle\n");
    rc = 1;
  }
  if (hs >= prm.hold_vs_static_max) {
    std::fprintf(stderr, "FAIL: the hold section thrashed\n");
    rc = 1;
  }
  if (!bitwise) {
    std::fprintf(stderr, "FAIL: thread-count divergence\n");
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Params prm;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--bench-json", &v)) {
      if (!v.empty()) prm.json_path = v;
    } else if (flag_value(argv[i], "--bench-steps", &v)) {
      prm.steps = std::stoi(v);
    } else if (flag_value(argv[i], "--bench-leak-end", &v)) {
      prm.leak_end = std::stod(v);
    } else if (flag_value(argv[i], "--bench-n", &v)) {
      prm.kifmm_n = static_cast<std::size_t>(std::stoull(v));
    } else if (flag_value(argv[i], "--bench-q", &v)) {
      prm.kifmm_q = static_cast<std::uint32_t>(std::stoul(v));
    }
    v.clear();
  }
  if (prm.steps < 24) {
    std::fprintf(stderr,
                 "perf_refresh: --bench-steps must be >= 24 -- shorter runs "
                 "end before the probe rotation identifies the refit and the "
                 "tracking bounds are meaningless\n");
    return 2;
  }
  return run_bench(prm);
}
