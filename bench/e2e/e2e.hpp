// Shared plumbing of the end-to-end benchmark (bench/e2e/README.md): the
// run options, the result every workload fills, timing and order
// statistics, the benchmark's own direct-sum reference, and the reduction
// of a trace::TraceSession's spans into per-layer times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fmm/geometry.hpp"
#include "trace/trace.hpp"

namespace eroof::e2e {

using Clock = std::chrono::steady_clock;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its chrome trace (empty: not written).
  std::string trace_out;
};

/// One reported number. `unit` is what BENCHMARK.json declares for it.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back: the metrics of the requested kind (end to
/// end when untraced, per layer when traced), operation accounting, and the
/// outcome of the output checks. Every workload reports the same metric
/// names. What only one workload has (serve's queue wait, a dynamics
/// re-search, the CV folds) goes to `own_metrics`, printed on a line of its
/// own before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any check on an operation that did not fail rejected its
  /// output. `failures` lists the rejected checks and the failed operations.
  bool correct = true;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> own_metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void set_own(const std::string& name, double value,
               const std::string& unit) {
    own_metrics[name] = {value, unit};
  }
  /// Records a failed output check (the operation itself completed).
  void reject(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

/// Linear-interpolated q-quantile (q in [0, 1]) of a non-empty series.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
double mean(std::span<const double> xs);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// OpenMP threads a parallel region gets by default (nproc unless the
/// environment overrides it).
int default_threads();

/// The benchmark's own reference: potentials at `targets` (indices into
/// `points`) from the closed-form kernel, self term excluded. `lambda` = 0
/// is Laplace 1/(4 pi r); lambda > 0 is Yukawa exp(-lambda r)/(4 pi r).
std::vector<double> reference_potentials(std::span<const fmm::Vec3> points,
                                         std::span<const double> densities,
                                         std::span<const std::size_t> targets,
                                         double lambda);

/// Relative L2 error of `phi` at `targets` against the reference values.
double sampled_rel_error(std::span<const double> phi,
                         std::span<const std::size_t> targets,
                         std::span<const double> reference);

/// `count` distinct target indices below `n`, drawn from `seed`.
std::vector<std::size_t> sample_targets(std::size_t n, std::size_t count,
                                        std::uint64_t seed);

bool bitwise_equal(std::span<const double> a, std::span<const double> b);

/// Names one kind of span: the trace category and the span name (the FMM
/// phase spans and the GPU-profile phase spans share names like "V").
struct SpanKey {
  std::string category;
  std::string name;
};

/// Per-layer reduction of a trace session's spans, restricted to the
/// session-time windows (microseconds since the session epoch) the
/// benchmark measured, so set-up and checks stay out of timed-loop layers.
class SpanTable {
 public:
  using Window = std::pair<std::int64_t, std::int64_t>;
  SpanTable(std::vector<trace::SpanEvent> spans,
            const std::vector<Window>& windows);

  /// Durations (ms) of the matching spans that start in a window.
  std::vector<double> durations_ms(const SpanKey& key) const;
  /// Self times (ms) of the `parent` spans: duration minus the `child`
  /// spans that run inside it on the same thread.
  std::vector<double> self_ms(const SpanKey& parent,
                              const SpanKey& child) const;

 private:
  std::vector<trace::SpanEvent> spans_;
};

/// The layers of a schedule search: means per call of the
/// `profile_gpu_execution`, `predict_phase_grid` and `schedule_phases` spans
/// (fmm.profile_ms, core.predict_grid_ms, core.schedule_dp_ms).
void set_schedule_search_layers(const SpanTable& spans, Result& r);

/// Writes the session as a chrome trace to opt.trace_out (when set) with
/// the trace module's exporter; a failed write is reported on stderr.
void export_trace(const trace::TraceSession& session, const Options& opt);

/// The three workloads (README.md has their make-up).
Result run_serve_steady(const Options& opt);
Result run_dynamics_langevin(const Options& opt);
Result run_paper_fig5(const Options& opt);

}  // namespace eroof::e2e
