// serve-steady: warm serving through an in-process serve::FmmServer.
//
// The benchmark enumerates the request shapes itself -- kernel {Laplace;
// Yukawa lambda=1.5} x N {1024, 2048, 4096, 8192} x distribution {uniform,
// sphere, clusters} -- so no two fields lock together the way a shared
// index modulo list lengths would, and hands the server only the generated
// points and densities. A round is kRound requests: every fourth is Yukawa,
// and each kernel's requests cycle N fastest, then distribution, so the
// heavy N=8192 requests are evenly spaced. Every cycle through the 12
// geometries draws fresh point sets (variants), which averages the cost of
// a clustered draw over several draws per seed. The order is fixed, so
// only the draws vary with the seed. The timed window is a closed loop from one generator thread that keeps
// 2 x workers requests in flight and runs whole rounds.
#include <omp.h>

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "fmm/pointgen.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace eroof::e2e {
namespace {

constexpr std::size_t kSizes[] = {1024, 2048, 4096, 8192};
constexpr int kDistributions = 3;  // uniform, sphere, clusters
constexpr double kYukawaLambda = 1.5;
constexpr int kP = 4;
constexpr std::uint32_t kQ = 64;
/// Requests per round: 12 Laplace and 4 Yukawa variants per geometry.
constexpr std::size_t kRound = 192;
constexpr int kSetupRepeats = 3;
/// Requests a timed window completes at least, so that ten or more latency
/// samples lie beyond the reported p99.
constexpr std::uint64_t kMinRequests = 1000;
/// Request ids of the reference solves (apart from the timed ones).
constexpr std::uint64_t kReferenceIds = 1'000'000'000;
constexpr std::size_t kCheckTargets = 128;
/// The p=4 tolerances of tests/fmm/test_accuracy.cpp.
constexpr double kTolUniform = 2e-3;
constexpr double kTolAdaptive = 3e-3;

struct Shape {
  serve::KernelSpec kernel;
  int distribution = 0;
  std::size_t variant = 0;
  std::vector<fmm::Vec3> points;
  std::vector<double> densities;
  std::vector<double> reference;  ///< single-threaded serve_now potentials
};

/// One round of shapes, in the order they are sent. The generators
/// already fill the unit cube (the sphere has radius 1/2), which is the
/// serving protocol domain; the clamp only catches the cluster tails.
std::vector<Shape> make_round(std::uint64_t seed) {
  std::vector<Shape> shapes;
  const util::RngStream root = util::RngStream(seed).fork("serve-steady");
  const fmm::Box& d = serve::kServeDomain;
  const auto clamp = [&](double v, double c) {
    return std::clamp(v, c - d.half, c + d.half);
  };
  std::size_t laplace = 0, yukawa = 0;
  for (std::size_t j = 0; j < kRound; ++j) {
    const bool is_yukawa = j % 4 == 3;
    const std::size_t k = is_yukawa ? yukawa++ : laplace++;
    const std::size_t n = kSizes[k % std::size(kSizes)];
    Shape s;
    s.kernel = is_yukawa ? serve::KernelSpec{serve::KernelKind::kYukawa,
                                             kYukawaLambda}
                         : serve::KernelSpec{serve::KernelKind::kLaplace, 0};
    s.distribution = static_cast<int>(k / std::size(kSizes)) % kDistributions;
    s.variant = k / (std::size(kSizes) * kDistributions);
    util::Rng rng = root.fork(j).rng();
    if (s.distribution == 0)
      s.points = fmm::uniform_cube(n, rng);
    else if (s.distribution == 1)
      s.points = fmm::sphere_surface(n, rng);
    else
      s.points = fmm::gaussian_clusters(n, 8, 0.05, rng);
    for (fmm::Vec3& p : s.points)
      p = {clamp(p.x, d.center.x), clamp(p.y, d.center.y),
           clamp(p.z, d.center.z)};
    s.densities = fmm::random_densities(n, rng);
    shapes.push_back(std::move(s));
  }
  return shapes;
}

serve::FmmRequest request_for(const Shape& s, std::uint64_t id) {
  serve::FmmRequest req;
  req.id = id;
  req.kernel = s.kernel;
  req.p = kP;
  req.max_points_per_box = kQ;
  req.points = s.points;
  req.densities = s.densities;
  return req;
}

/// Context fit, server construction and pre-warm: the first variant of each
/// (kernel, N, distribution), so every plan and every (plan, N) schedule is in
/// place before timing. (More at once than the queue holds would be shed by
/// admission control.)
std::unique_ptr<serve::FmmServer> set_up_server(
    const std::vector<Shape>& shapes, std::uint64_t seed, Result& r) {
  serve::ServerConfig cfg;
  cfg.workers = default_threads();
  cfg.schedule_ctx = serve::ScheduleContext::tegra_default(seed);
  auto server = std::make_unique<serve::FmmServer>(cfg);
  std::vector<std::future<serve::FmmResponse>> warm;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    if (shapes[i].variant == 0)
      warm.push_back(server->submit(request_for(shapes[i], i)));
  for (auto& f : warm) {
    ++r.attempted;
    const serve::FmmResponse resp = f.get();
    if (resp.status != serve::ServeStatus::kOk) {
      ++r.failed;
      r.failures.push_back("pre-warm request failed: " + resp.error);
    }
  }
  return server;
}

/// Every shape's single-threaded serve_now reference, solved on `threads`
/// caller threads at once (serve_now runs on its caller, like a worker).
void compute_references(serve::FmmServer& server, std::vector<Shape>& shapes,
                        int threads, Result& r) {
  std::vector<serve::FmmResponse> out(shapes.size());
  std::vector<std::thread> pool;
  const auto stride = static_cast<std::size_t>(threads);
  for (std::size_t t = 0; t < stride; ++t)
    pool.emplace_back([&, t] {
      omp_set_num_threads(1);
      for (std::size_t i = t; i < shapes.size(); i += stride)
        out[i] = server.serve_now(request_for(shapes[i], kReferenceIds + i));
    });
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ++r.attempted;
    if (out[i].status != serve::ServeStatus::kOk) {
      ++r.failed;
      r.failures.push_back("reference failed: " + out[i].error);
      continue;
    }
    shapes[i].reference = std::move(out[i].potentials);
  }
}

/// What the timed closed loop observed.
struct LoopStats {
  double seconds = 0;
  std::vector<double> latency_ms, queue_ms, service_ms;
  serve::PlanCache::Stats cache_before, cache_after;
};

/// The closed loop: keeps 2 x workers requests in flight from this thread
/// until `seconds` have passed, at least `min_requests` were sent and the
/// current round is complete, then drains. Every response is checked
/// against its shape's reference.
LoopStats closed_loop(serve::FmmServer& server, const std::vector<Shape>& round,
                      double seconds, std::uint64_t min_requests, Result& r) {
  struct InFlight {
    std::future<serve::FmmResponse> response;
    std::size_t shape = 0;
    Clock::time_point sent;
  };
  const std::size_t depth = 2 * static_cast<std::size_t>(server.config().workers);
  LoopStats out;
  out.cache_before = server.stats().cache;
  std::deque<InFlight> flight;
  std::uint64_t sent = 0;
  const Clock::time_point t0 = Clock::now();
  const auto more = [&] {
    return sent % round.size() != 0 || sent < min_requests ||
           seconds_since(t0) < seconds;
  };
  while (true) {
    while (flight.size() < depth && more()) {
      const std::size_t s = sent % round.size();
      InFlight f;
      f.shape = s;
      f.sent = Clock::now();
      f.response = server.submit(request_for(round[s], sent));
      flight.push_back(std::move(f));
      ++sent;
    }
    if (flight.empty()) break;
    // Wait briefly on the oldest, then collect whatever has completed.
    flight.front().response.wait_for(std::chrono::milliseconds(1));
    for (auto it = flight.begin(); it != flight.end();) {
      if (it->response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const double latency = ms_since(it->sent);
      const serve::FmmResponse resp = it->response.get();
      ++r.attempted;
      if (resp.status != serve::ServeStatus::kOk) {
        ++r.failed;
        r.failures.push_back("request failed: " + resp.error);
      } else {
        out.latency_ms.push_back(latency);
        out.queue_ms.push_back(resp.queue_us / 1e3);
        out.service_ms.push_back(resp.service_us / 1e3);
        if (!bitwise_equal(resp.potentials, round[it->shape].reference))
          r.reject("response differs from the serve_now reference");
      }
      it = flight.erase(it);
    }
  }
  out.seconds = seconds_since(t0);
  out.cache_after = server.stats().cache;
  return out;
}

}  // namespace

Result run_serve_steady(const Options& opt) {
  Result r;
  const int threads = default_threads();
  trace::TraceSession session;
  std::optional<trace::SessionGuard> guard;
  if (opt.trace) guard.emplace(session);

  std::vector<Shape> shapes = make_round(opt.seed);

  std::vector<double> setup_s;
  std::vector<SpanTable::Window> setup_windows;
  std::unique_ptr<serve::FmmServer> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const std::int64_t w0 = session.now_us();
    const Clock::time_point t0 = Clock::now();
    server = set_up_server(shapes, opt.seed, r);
    setup_s.push_back(seconds_since(t0));
    setup_windows.emplace_back(w0, session.now_us());
  }

  // References: the single-threaded serve_now path, each checked against
  // the benchmark's own direct sum at sampled targets.
  trace::install(nullptr);
  compute_references(*server, shapes, threads, r);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    if (s.reference.empty()) continue;
    const auto targets = sample_targets(s.points.size(), kCheckTargets,
                                        opt.seed + i);
    const double lambda =
        s.kernel.kind == serve::KernelKind::kYukawa ? s.kernel.param : 0.0;
    const auto direct =
        reference_potentials(s.points, s.densities, targets, lambda);
    const double tol = s.distribution == 0 ? kTolUniform : kTolAdaptive;
    const double err = sampled_rel_error(s.reference, targets, direct);
    if (!(err <= tol))
      r.reject("shape " + std::to_string(i) + " error " +
               std::to_string(err) + " vs direct sum exceeds " +
               std::to_string(tol));
  }

  if (!opt.trace) {
    const LoopStats loop =
        closed_loop(*server, shapes, opt.seconds, kMinRequests, r);
    r.set("setup_s", median(setup_s), "s");
    r.set("ops_per_s",
          static_cast<double>(loop.latency_ms.size()) / loop.seconds, "1/s");
    r.set("op_p50_ms", quantile(loop.latency_ms, 0.50), "ms");
    r.set("peak_rss_mib", peak_rss_mib(), "MiB");
    r.set_own("serve.latency_p99_ms", quantile(loop.latency_ms, 0.99), "ms");
    return r;
  }

  // Traced run: an untraced half, then a traced half of the same length;
  // the per-layer numbers come from the traced half alone.
  const LoopStats plain =
      closed_loop(*server, shapes, opt.seconds / 2, 0, r);
  trace::install(&session);
  const auto totals_before = session.counter_totals();
  const std::int64_t w0 = session.now_us();
  const LoopStats traced =
      closed_loop(*server, shapes, opt.seconds / 2, 0, r);
  const std::int64_t w1 = session.now_us();
  const auto totals_after = session.counter_totals();
  trace::install(nullptr);

  const SpanTable timed(session.spans(), {{w0, w1}});
  const SpanTable setup(session.spans(), setup_windows);
  const auto per_eval = [&](const std::string& counter) {
    const double evals = static_cast<double>(
        timed.durations_ms({"fmm", "evaluate"}).size());
    const auto a = totals_after.find(counter);
    const auto b = totals_before.find(counter);
    const double delta = (a == totals_after.end() ? 0 : a->second) -
                         (b == totals_before.end() ? 0 : b->second);
    return evals > 0 ? delta / evals : 0;
  };
  const double lookups = static_cast<double>(
      traced.cache_after.hits + traced.cache_after.misses -
      traced.cache_before.hits - traced.cache_before.misses);
  const double hits = static_cast<double>(traced.cache_after.hits -
                                          traced.cache_before.hits);

  r.set("trace.overhead_ratio",
        (plain.latency_ms.size() / plain.seconds) /
            (traced.latency_ms.size() / traced.seconds),
        "ratio");
  r.set("fmm.evaluate_ms", mean(timed.durations_ms({"fmm", "evaluate"})),
        "ms");
  // Serving trees are uniform-depth, so their W and X lists are empty and
  // those phases do no work here.
  for (const char* phase : {"UP", "V", "DOWN", "U"})
    r.set(std::string("fmm.phase.") + phase + "_ms",
          mean(timed.durations_ms({"fmm.phase", phase})), "ms");
  r.set("fmm.v.ffts", per_eval("fmm.V.ffts"), "count");
  r.set("fmm.v.hadamard_cmuls", per_eval("fmm.V.hadamard_cmuls"), "count");
  r.set("fmm.u.kernel_evals", per_eval("fmm.U.kernel_evals"), "count");
  r.set("fmm.up.solve_matvecs", per_eval("fmm.UP.solve_matvecs"), "count");
  r.set("fmm.down.solve_matvecs", per_eval("fmm.DOWN.solve_matvecs"),
        "count");
  // The model side runs in set-up: the context's campaign, and the
  // pre-warm's schedule-memo misses.
  r.set("ubench.campaign_ms",
        median(setup.durations_ms({"ubench", "run_campaign"})), "ms");
  set_schedule_search_layers(setup, r);

  r.set_own("serve.queue_wait_ms", median(traced.queue_ms), "ms");
  r.set_own("serve.service_ms", median(traced.service_ms), "ms");
  r.set_own(
      "serve.request_self_ms",
      mean(timed.self_ms({"serve", "serve.request"}, {"fmm", "evaluate"})),
      "ms");
  r.set_own("serve.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
            "ratio");
  r.set_own("serve.plan_cache_lookups", lookups, "count");
  export_trace(session, opt);
  return r;
}

}  // namespace eroof::e2e
