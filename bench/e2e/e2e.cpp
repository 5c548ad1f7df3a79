// Entry point of the end-to-end benchmark: parses the options, runs one
// workload, and prints the provenance line followed by the one-line JSON
// result (the last line of stdout). Exits nonzero when an operation failed
// or an output check rejected a result.
//
//   eroof_e2e --workload serve-steady|dynamics-langevin|paper-fig5
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//             [--git-sha SHA]
#include "bench/e2e/e2e.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <numbers>
#include <string>
#include <thread>

#include "trace/export.hpp"
#include "util/rng.hpp"

namespace eroof::e2e {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int default_threads() { return omp_get_max_threads(); }

std::vector<double> reference_potentials(std::span<const fmm::Vec3> points,
                                         std::span<const double> densities,
                                         std::span<const std::size_t> targets,
                                         double lambda) {
  const double inv4pi = 1.0 / (4.0 * std::numbers::pi);
  std::vector<double> phi(targets.size(), 0.0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(targets.size());
       ++t) {
    const std::size_t i = targets[static_cast<std::size_t>(t)];
    const fmm::Vec3 x = points[i];
    double acc = 0;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == i) continue;
      const double dx = x.x - points[j].x;
      const double dy = x.y - points[j].y;
      const double dz = x.z - points[j].z;
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      if (r == 0) continue;
      acc += densities[j] * std::exp(-lambda * r) * inv4pi / r;
    }
    phi[static_cast<std::size_t>(t)] = acc;
  }
  return phi;
}

double sampled_rel_error(std::span<const double> phi,
                         std::span<const std::size_t> targets,
                         std::span<const double> reference) {
  double num = 0;
  double den = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double d = phi[targets[t]] - reference[t];
    num += d * d;
    den += reference[t] * reference[t];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::vector<std::size_t> sample_targets(std::size_t n, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  util::Rng rng = util::RngStream(seed).fork("targets").rng();
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(idx[i], idx[i + rng.below(n - i)]);
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

namespace {

bool matches(const trace::SpanEvent& s, const SpanKey& key) {
  return s.name == key.name && s.category == key.category;
}

}  // namespace

SpanTable::SpanTable(std::vector<trace::SpanEvent> spans,
                     const std::vector<Window>& windows) {
  for (auto& s : spans) {
    const bool inside =
        std::any_of(windows.begin(), windows.end(), [&](const Window& w) {
          return s.start_us >= w.first && s.start_us <= w.second;
        });
    if (inside) spans_.push_back(std::move(s));
  }
}

std::vector<double> SpanTable::durations_ms(const SpanKey& key) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (matches(s, key)) out.push_back(static_cast<double>(s.dur_us) / 1e3);
  return out;
}

std::vector<double> SpanTable::self_ms(const SpanKey& parent,
                                       const SpanKey& child) const {
  std::vector<double> out;
  for (const auto& p : spans_) {
    if (!matches(p, parent)) continue;
    std::int64_t inner = 0;
    for (const auto& c : spans_)
      if (matches(c, child) && c.tid == p.tid && c.start_us >= p.start_us &&
          c.start_us + c.dur_us <= p.start_us + p.dur_us)
        inner += c.dur_us;
    out.push_back(static_cast<double>(p.dur_us - inner) / 1e3);
  }
  return out;
}

void set_schedule_search_layers(const SpanTable& spans, Result& r) {
  r.set("fmm.profile_ms",
        mean(spans.durations_ms({"fmm.profile", "profile_gpu_execution"})),
        "ms");
  r.set("core.predict_grid_ms",
        mean(spans.durations_ms({"model.schedule", "predict_phase_grid"})),
        "ms");
  r.set("core.schedule_dp_ms",
        mean(spans.durations_ms({"model.schedule", "schedule_phases"})),
        "ms");
}

void export_trace(const trace::TraceSession& session, const Options& opt) {
  if (opt.trace_out.empty()) return;
  if (!trace::write_chrome_trace(session, opt.trace_out))
    std::fprintf(stderr, "eroof_e2e: could not write %s\n",
                 opt.trace_out.c_str());
}

}  // namespace eroof::e2e

namespace {

using eroof::e2e::Metric;
using eroof::e2e::Options;
using eroof::e2e::Result;

int usage() {
  std::fprintf(stderr,
               "usage: eroof_e2e --workload serve-steady|dynamics-langevin|"
               "paper-fig5 --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA]\n");
  return 2;
}

/// JSON string literal for the provenance line (values are plain ASCII).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The members of a JSON object mapping each name to its value and unit.
std::string json_metrics(const std::map<std::string, Metric>& ms) {
  std::string out;
  for (const auto& [name, m] : ms) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!out.empty()) out += ", ";
    out += quoted(name) + ": {\"value\": " + buf +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out;
}

void print_result(const Options& opt, const Result& r,
                  const std::string& git_sha) {
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"omp_threads\": %d, \"compiler\": %s, "
      "\"flags\": %s, \"git_sha\": %s}}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      eroof::e2e::default_threads(), quoted(EROOF_E2E_COMPILER).c_str(),
      quoted(EROOF_E2E_FLAGS).c_str(), quoted(git_sha).c_str());
  if (!r.own_metrics.empty())
    std::printf("{\"own_metrics\": {%s}}\n",
                json_metrics(r.own_metrics).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      json_metrics(r.metrics).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  Result r;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = val;
      } else if (key == "--git-sha") {
        git_sha = val;
      } else {
        return usage();
      }
    }
    if (argc % 2 != 1 || !(opt.seconds > 0)) return usage();

    if (opt.workload == "serve-steady") {
      r = eroof::e2e::run_serve_steady(opt);
    } else if (opt.workload == "dynamics-langevin") {
      r = eroof::e2e::run_dynamics_langevin(opt);
    } else if (opt.workload == "paper-fig5") {
      r = eroof::e2e::run_paper_fig5(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eroof_e2e: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& f : r.failures)
    std::fprintf(stderr, "eroof_e2e: check failed: %s\n", f.c_str());
  print_result(opt, r, git_sha);
  return r.correct && r.failed == 0 ? 0 : 1;
}
