#include "dynamics/engine.hpp"

#include <utility>

#include "core/fit.hpp"
#include "fmm/gpu_profile.hpp"
#include "hw/powermon.hpp"
#include "trace/trace.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::dynamics {

DynamicsEngine::DynamicsEngine(std::shared_ptr<const fmm::Kernel> kernel,
                               ParticleSystem particles, Config cfg)
    : cfg_(std::move(cfg)),
      ps_(std::move(particles)),
      session_(std::move(kernel), ps_.pos, cfg_.session) {
  EROOF_REQUIRE_MSG(ps_.charge.size() == ps_.pos.size(),
                    "charges/positions size mismatch");
  EROOF_REQUIRE_MSG(ps_.domain.half == cfg_.session.tree.domain.half &&
                        ps_.domain.center.x == cfg_.session.tree.domain.center.x &&
                        ps_.domain.center.y == cfg_.session.tree.domain.center.y &&
                        ps_.domain.center.z == cfg_.session.tree.domain.center.z,
                    "particle domain must equal the session's tree domain");
  EROOF_REQUIRE_MSG(!cfg_.tuning.refresh.enabled || cfg_.tuning.context,
                    "Tuning::refresh requires a TuneContext");
  phi_.resize(ps_.size());
  if (cfg_.tuning.context) {
    reuse_.emplace(cfg_.tuning.retune_bound);
    if (cfg_.tuning.refresh.enabled) {
      refresh_.emplace(cfg_.tuning.context->model, cfg_.tuning.refresh.online);
      if (!cfg_.tuning.context->campaign.empty())
        refresh_->seed_anchor(cfg_.tuning.context->campaign);
    }
  }
}

void DynamicsEngine::step(Mover& mover) {
  ++stats_.steps;
  // eroof: hot-begin (steady-state step: advance, refit/move, evaluate,
  // energy reduction -- zero heap allocations after step 0)
  mover.advance(ps_);
  session_.move_to(ps_.pos);
  session_.evaluate_into(ps_.charge, phi_);
  double e = 0.0;
  for (std::size_t i = 0; i < phi_.size(); ++i) e += ps_.charge[i] * phi_[i];
  energy_ = 0.5 * e;
  // eroof: hot-end
  if (reuse_) {
    gather_phase_work();
    // eroof: hot-begin (amortized tuning: allocation-free drift check; the
    // search below it runs only on step 0 and on drift past the bound)
    const bool stale = reuse_->needs_retune(work_);
    // eroof: hot-end
    if (stale) retune();
    // The closed loop (in-service measurement + model drift) allocates
    // per-step buffers by design, so it stays outside the hot regions and
    // is strictly opt-in.
    if (refresh_) measure_and_refresh();
  }
}

void DynamicsEngine::gather_phase_work() {
  // Any per-phase scalar proportional to phase time at a fixed setting
  // works for the drift monitor; this one folds every FmmStats tally with
  // its natural size factor (solves are n_surf^2 matvecs, FFTs touch the
  // padded grid).
  const auto& s = session_.evaluator().stats();
  const auto& ops = session_.evaluator().operators();
  const auto ns = static_cast<double>(ops.n_surf());
  const auto g = static_cast<double>(ops.grid_size());
  const auto scalar = [ns, g](const fmm::FmmStats::Phase& p) {
    return p.kernel_evals + p.pair_count + g * p.ffts + p.hadamard_cmuls +
           ns * ns * p.solve_matvecs;
  };
  work_ = {scalar(s.up), scalar(s.u), scalar(s.v),
           scalar(s.w),  scalar(s.x), scalar(s.down)};
}

void DynamicsEngine::retune() {
  ++stats_.tunes;
  trace::counter_add("dynamics.tunes", 1.0);
  trace::ScopedSpan span("dynamics.retune", "dynamics");
  const auto prof = fmm::profile_gpu_execution(session_.evaluator());
  phases_.clear();
  phases_.reserve(prof.phases.size());
  for (const auto& p : prof.phases) phases_.push_back(p.workload);
  const TuneContext& ctx = *cfg_.tuning.context;
  // With refresh on, the search prices the grid with the *currently
  // trusted* (possibly refitted) model, not the frozen seed.
  const model::EnergyModel& m = refresh_ ? refresh_->model() : ctx.model;
  const auto pred = model::predict_phase_grid(m, ctx.soc, phases_, ctx.grid);
  reuse_->install(model::schedule_phases(pred, ctx.transitions), work_);
  settings_.resize(reuse_->schedule().pick.size());
  for (std::size_t p = 0; p < settings_.size(); ++p)
    settings_[p] = ctx.grid[reuse_->schedule().pick[p]];
}

void DynamicsEngine::measure_and_refresh() {
  const TuneContext& ctx = *cfg_.tuning.context;
  const Tuning::Refresh& rcfg = cfg_.tuning.refresh;
  const std::uint64_t step_idx = stats_.steps - 1;
  const double scale = rcfg.ramp.scale_at(step_idx);
  const hw::Soc hot = ctx.soc.with_leakage_scale(scale);
  // Identity-keyed noise: the step's measurements depend only on
  // (measure_seed, step), never on how many retunes or refreshes preceded
  // them -- the whole loop replays bitwise across thread counts.
  const util::RngStream noise =
      util::RngStream(rcfg.measure_seed).fork("refresh").fork(step_idx);
  const hw::SequenceMeasurement seq = hot.run_sequence(
      phases_, settings_, ctx.transitions, meter_, noise);
  // Serial, phase order: trace counter totals replay bit for bit.
  for (const hw::Measurement& m : seq.phases) {
    hw::trace_measurement(m);
    stats_.drift = refresh_->observe(model::to_fit_sample(m));
  }
  // Full-grid rotation + magnitude normalization: the pi_0 probe must cover
  // voltages the schedule never visits, at phase-row weight (see
  // model::probe_fit_sample). The grid is non-empty: retune() priced it.
  const hw::DvfsSetting probed = ctx.grid[step_idx % ctx.grid.size()];
  const hw::Measurement probe = hot.run(model::idle_probe_workload(), probed,
                                        meter_, noise.fork("idle"));
  stats_.drift = refresh_->observe(model::probe_fit_sample(probe));
  stats_.measured_energy_j += seq.energy_j;
  stats_.measured_time_s += seq.time_s;
  stats_.last_leak_scale = scale;
  if (refresh_->should_refresh()) {
    trace::ScopedSpan span("dynamics.refresh", "dynamics");
    refresh_->refresh();
    ++stats_.refreshes;
    trace::counter_add("dynamics.refreshes", 1.0);
    // Re-run the chain DP with the refreshed model and rebaseline the
    // reuse monitor at the current work vector.
    retune();
  }
}

}  // namespace eroof::dynamics
