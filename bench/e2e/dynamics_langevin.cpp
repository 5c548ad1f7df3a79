// dynamics-langevin: a tuned dynamics::DynamicsEngine stepping overdamped
// Langevin dynamics (Laplace, n=16384, Q=64, p=4, OpenMP at nproc).
//
// One round is one trajectory: set-up (context fit, engine construction,
// step 0), then kSteps timed steps -- long enough that in-place refits,
// rebuilds and schedule re-searches all occur. Every round repeats the same
// trajectory, so rounds are whole units of identical work and the run
// repeats them until its time is up.
//
// The trajectory (initial positions, Langevin noise) is fixed; --seed draws
// the charges, the context's campaign noise and the checked targets. The
// positions decide when the tree must be rebuilt and the schedule searched
// again, and those counts swing between trajectories (11 to 20 re-searches
// in 64 steps over the first three seeds tried), while a re-search costs
// about ten ordinary steps: with seeded positions, steps/s would measure
// the draw rather than the code.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/kernel.hpp"
#include "util/rng.hpp"

namespace eroof::e2e {
namespace {

constexpr std::size_t kN = 16384;
constexpr std::uint32_t kQ = 64;
constexpr int kP = 4;
constexpr int kSteps = 64;
constexpr fmm::Box kDomain{{0.5, 0.5, 0.5}, 0.5};
/// Weak confinement and small kicks: the cloud stays near its uniform
/// start, so most steps refit in place while drift still forces rebuilds
/// and re-searches every few steps.
constexpr dynamics::LangevinMover::Params kLangevin{.gamma = 0.05,
                                                   .sigma = 0.008};
/// The fixed trajectory: initial-position and mover seeds.
constexpr std::uint64_t kPositionSeed = 7;
constexpr std::uint64_t kMoverSeed = 8;
constexpr std::size_t kCheckTargets = 128;
/// The p=4 tolerance of tests/fmm/test_accuracy.cpp for uniform clouds.
constexpr double kTol = 2e-3;
/// Timed steps after which the potentials are checked (outside the timing).
constexpr int kCheckSteps[] = {kSteps / 2, kSteps};

/// Times the benchmark's mover inside DynamicsEngine::step.
class TimedMover final : public dynamics::Mover {
 public:
  explicit TimedMover(dynamics::Mover& inner) : inner_(inner) {}
  void advance(dynamics::ParticleSystem& ps) override {
    const Clock::time_point t0 = Clock::now();
    inner_.advance(ps);
    last_ms_ = ms_since(t0);
  }
  double last_ms() const { return last_ms_; }

 private:
  dynamics::Mover& inner_;
  double last_ms_ = 0;
};

/// What one round measured.
struct Round {
  double setup_s = 0;
  std::vector<double> step_ms;
  double advance_ms = 0;  ///< summed over the timed steps
  std::vector<SpanTable::Window> step_windows;
  SpanTable::Window setup_window;
  std::uint64_t tunes = 0, refits = 0, rebuilds = 0, plan_builds = 0;
  fmm::FmmStats work;  ///< evaluator tallies summed over the timed steps

  double timed_s() const {
    double s = 0;
    for (const double ms : step_ms) s += ms;
    return s / 1e3;
  }
};

void accumulate(fmm::FmmStats::Phase& sum, const fmm::FmmStats::Phase& p) {
  sum.kernel_evals += p.kernel_evals;
  sum.ffts += p.ffts;
  sum.hadamard_cmuls += p.hadamard_cmuls;
  sum.solve_matvecs += p.solve_matvecs;
}

/// Checks the engine's current potentials against the benchmark's direct
/// sum at sampled targets and, bitwise, against a fresh evaluator built on
/// the same positions.
void check_step(const dynamics::DynamicsEngine& engine,
                const dynamics::DynamicsEngine::Config& cfg,
                std::uint64_t seed, int step, Result& r) {
  const dynamics::ParticleSystem& ps = engine.particles();
  const auto targets = sample_targets(ps.size(), kCheckTargets, seed + step);
  const auto direct = reference_potentials(ps.pos, ps.charge, targets, 0.0);
  const double err = sampled_rel_error(engine.potentials(), targets, direct);
  if (!(err <= kTol))
    r.reject("step " + std::to_string(step) + " error " +
             std::to_string(err) + " vs direct sum exceeds tolerance");
  const fmm::LaplaceKernel kernel;
  fmm::FmmEvaluator fresh(kernel, ps.pos, cfg.session.tree, cfg.session.fmm);
  if (!bitwise_equal(fresh.evaluate(ps.charge), engine.potentials()))
    r.reject("step " + std::to_string(step) +
             " differs from a fresh evaluator");
}

Round run_round(std::uint64_t seed, const trace::TraceSession& clock,
                Result& r) {
  Round out;
  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = kQ, .domain = kDomain};
  cfg.session.fmm = {.p = kP};

  const std::int64_t w0 = clock.now_us();
  const Clock::time_point t0 = Clock::now();
  cfg.tuning.context = dynamics::TuneContext::tegra_default(seed);
  dynamics::ParticleSystem ps =
      dynamics::ParticleSystem::random(kN, kDomain, kPositionSeed);
  util::Rng charges = util::RngStream(seed).fork("charges").rng();
  for (double& q : ps.charge) q = charges.uniform(-1.0, 1.0);
  dynamics::DynamicsEngine engine(std::make_shared<const fmm::LaplaceKernel>(),
                                  std::move(ps), cfg);
  dynamics::LangevinMover langevin(kMoverSeed, kLangevin);
  TimedMover mover(langevin);
  engine.step(mover);
  ++r.attempted;
  out.setup_s = seconds_since(t0);
  out.setup_window = {w0, clock.now_us()};

  const std::uint64_t tunes0 = engine.stats().tunes;
  const fmm::FmmSession::Stats session0 = engine.session().stats();
  std::size_t next_check = 0;
  for (int step = 1; step <= kSteps; ++step) {
    const std::int64_t s0 = clock.now_us();
    const Clock::time_point ts = Clock::now();
    engine.step(mover);
    out.step_ms.push_back(ms_since(ts));
    out.step_windows.emplace_back(s0, clock.now_us());
    ++r.attempted;
    out.advance_ms += mover.last_ms();
    const fmm::FmmStats& st = engine.session().evaluator().stats();
    accumulate(out.work.up, st.up);
    accumulate(out.work.u, st.u);
    accumulate(out.work.v, st.v);
    accumulate(out.work.down, st.down);
    if (next_check < std::size(kCheckSteps) &&
        step == kCheckSteps[next_check]) {
      check_step(engine, cfg, seed, step, r);
      ++next_check;
    }
  }
  out.tunes = engine.stats().tunes - tunes0;
  const fmm::FmmSession::Stats& s = engine.session().stats();
  out.refits = s.refits - session0.refits;
  out.rebuilds = s.rebuilds - session0.rebuilds;
  out.plan_builds = s.plan_builds - session0.plan_builds;
  return out;
}

}  // namespace

Result run_dynamics_langevin(const Options& opt) {
  Result r;
  trace::TraceSession session;
  std::optional<trace::SessionGuard> guard;

  // Untraced: rounds until the time is up. Traced: alternate untraced and
  // traced rounds, at least one of each; layers come from the traced ones.
  std::vector<Round> plain, traced;
  const Clock::time_point start = Clock::now();
  do {
    const bool trace_this = opt.trace && plain.size() > traced.size();
    if (trace_this) guard.emplace(session);
    Round round = run_round(opt.seed, session, r);
    guard.reset();
    (trace_this ? traced : plain).push_back(std::move(round));
  } while (seconds_since(start) < opt.seconds ||
           (opt.trace && traced.empty()));

  const auto rate = [](const std::vector<Round>& rounds) {
    std::vector<double> v;
    for (const Round& rd : rounds) v.push_back(kSteps / rd.timed_s());
    return median(v);
  };

  if (!opt.trace) {
    std::vector<double> setup_s, step_ms;
    for (const Round& rd : plain) {
      setup_s.push_back(rd.setup_s);
      step_ms.insert(step_ms.end(), rd.step_ms.begin(), rd.step_ms.end());
    }
    r.set("setup_s", median(setup_s), "s");
    r.set("ops_per_s", rate(plain), "1/s");
    r.set("op_p50_ms", median(step_ms), "ms");
    r.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return r;
  }

  std::vector<SpanTable::Window> steps, setups;
  double step_ms = 0, advance_ms = 0;
  fmm::FmmStats work;
  for (const Round& rd : traced) {
    steps.insert(steps.end(), rd.step_windows.begin(), rd.step_windows.end());
    setups.push_back(rd.setup_window);
    step_ms += rd.timed_s() * 1e3;
    advance_ms += rd.advance_ms;
    accumulate(work.up, rd.work.up);
    accumulate(work.u, rd.work.u);
    accumulate(work.v, rd.work.v);
    accumulate(work.down, rd.work.down);
  }
  const Round& last = traced.back();
  const SpanTable timed(session.spans(), steps);
  const SpanTable setup(session.spans(), setups);
  const double n_steps = static_cast<double>(steps.size());
  const auto total = [&](const SpanKey& key) {
    double s = 0;
    for (const double ms : timed.durations_ms(key)) s += ms;
    return s;
  };
  const double evaluate_ms = total({"fmm", "evaluate"});
  const double retune_ms = total({"dynamics", "dynamics.retune"});

  r.set("trace.overhead_ratio", rate(plain) / rate(traced), "ratio");
  r.set("fmm.evaluate_ms", evaluate_ms / n_steps, "ms");
  for (const char* phase : {"UP", "V", "DOWN", "U"})
    r.set(std::string("fmm.phase.") + phase + "_ms",
          mean(timed.durations_ms({"fmm.phase", phase})), "ms");
  r.set("fmm.v.ffts", work.v.ffts / n_steps, "count");
  r.set("fmm.v.hadamard_cmuls", work.v.hadamard_cmuls / n_steps, "count");
  r.set("fmm.u.kernel_evals", work.u.kernel_evals / n_steps, "count");
  r.set("fmm.up.solve_matvecs", work.up.solve_matvecs / n_steps, "count");
  r.set("fmm.down.solve_matvecs", work.down.solve_matvecs / n_steps, "count");
  // The schedule searches are the timed re-searches; the campaign is the
  // tune context's, in set-up.
  set_schedule_search_layers(timed, r);
  r.set("ubench.campaign_ms",
        median(setup.durations_ms({"ubench", "run_campaign"})), "ms");

  // Adaptive trees: the X and W lists are not empty here.
  for (const char* phase : {"X", "W"})
    r.set_own(std::string("fmm.phase.") + phase + "_ms",
              mean(timed.durations_ms({"fmm.phase", phase})), "ms");
  r.set_own("dynamics.advance_ms", advance_ms / n_steps, "ms");
  r.set_own("dynamics.move_ms",
            (step_ms - advance_ms - evaluate_ms - retune_ms) / n_steps, "ms");
  r.set_own("dynamics.retune_ms",
            mean(timed.durations_ms({"dynamics", "dynamics.retune"})), "ms");
  r.set_own("dynamics.tunes", static_cast<double>(last.tunes), "count");
  r.set_own("fmm.session.refits", static_cast<double>(last.refits), "count");
  r.set_own("fmm.session.rebuilds", static_cast<double>(last.rebuilds),
            "count");
  r.set_own("fmm.session.plan_builds", static_cast<double>(last.plan_builds),
            "count");
  export_trace(session, opt);
  return r;
}

}  // namespace eroof::e2e
