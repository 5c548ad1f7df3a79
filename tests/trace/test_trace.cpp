// Unit tests for the tracing & metrics subsystem: span nesting, the
// named-counter registry, concurrent emission from OpenMP threads, and the
// chrome-trace JSON exporter.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace eroof::trace {
namespace {

std::size_t count_occurrences(const std::string& hay, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(pat); pos != std::string::npos;
       pos = hay.find(pat, pos + pat.size()))
    ++n;
  return n;
}

/// Structural JSON check: braces and brackets balance, ignoring string
/// bodies (the exporter escapes quotes, so a simple state machine works).
bool json_brackets_balanced(const std::string& s) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

TEST(Trace, DisabledByDefaultAndAllOpsAreNoOps) {
  ASSERT_EQ(session(), nullptr);
  {
    ScopedSpan span("orphan", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);  // must not crash
  }
  counter_add("orphan.counter", 1.0);  // must not crash
  EXPECT_EQ(session(), nullptr);
}

TEST(Trace, SessionGuardInstallsAndUninstalls) {
  TraceSession s;
  {
    SessionGuard guard(s);
    EXPECT_EQ(session(), &s);
  }
  EXPECT_EQ(session(), nullptr);
}

TEST(Trace, SpanNestingDepthsAndEmissionOrder) {
  TraceSession s;
  {
    SessionGuard guard(s);
    ScopedSpan outer("outer", "test");
    {
      ScopedSpan inner("inner", "test");
      { ScopedSpan leaf("leaf", "test"); }
    }
  }
  const auto spans = s.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Innermost scopes close first.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0);
  // Containment: the outer span brackets the inner ones.
  EXPECT_LE(spans[2].start_us, spans[1].start_us);
  EXPECT_GE(spans[2].dur_us, spans[1].dur_us);
  EXPECT_GE(spans[1].dur_us, spans[0].dur_us);
}

TEST(Trace, SpanArgsAndCategories) {
  TraceSession s;
  {
    SessionGuard guard(s);
    ScopedSpan span("phase", "fmm.phase");
    span.arg("kernel_evals", 123.5);
    span.arg("pair_count", 7.0);
  }
  const auto spans = s.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].category, "fmm.phase");
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].key, "kernel_evals");
  EXPECT_EQ(spans[0].args[0].value, 123.5);
  EXPECT_EQ(spans[0].args[1].key, "pair_count");
  EXPECT_EQ(spans[0].args[1].value, 7.0);
}

TEST(Trace, CounterRegistryAccumulatesAndSortsByName) {
  TraceSession s;
  s.add_counter_total("zeta", 1.0);
  s.add_counter_total("alpha", 2.0);
  s.add_counter_total("zeta", 0.25);
  const auto totals = s.counter_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.begin()->first, "alpha");  // std::map sorts keys
  EXPECT_EQ(totals.at("alpha"), 2.0);
  EXPECT_EQ(totals.at("zeta"), 1.25);
}

TEST(Trace, CounterSamplesKeepTimestampsAndValues) {
  TraceSession s;
  s.emit_counter("power_w", 10, 4.5);
  s.emit_counter("power_w", 20, 5.5);
  const auto samples = s.counter_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t_us, 10);
  EXPECT_EQ(samples[0].value, 4.5);
  EXPECT_EQ(samples[1].t_us, 20);
  EXPECT_EQ(samples[1].value, 5.5);
}

TEST(Trace, ConcurrentEmissionFromOpenMPThreads) {
  constexpr int kIters = 256;
  TraceSession s;
  {
    SessionGuard guard(s);
    // eroof: cold (test exercises concurrent span/counter emission, which
    // allocates trace records by design)
#pragma omp parallel for schedule(dynamic)
    for (int i = 0; i < kIters; ++i) {
      ScopedSpan span("work", "test.parallel");
      span.arg("i", static_cast<double>(i));
      counter_add("parallel.iters", 1.0);
      counter_add("parallel.sum_i", static_cast<double>(i));
    }
  }
  const auto spans = s.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kIters));
  double sum_i = 0;
  for (const auto& sp : spans) {
    EXPECT_EQ(sp.name, "work");
    EXPECT_EQ(sp.depth, 0);  // no nesting inside the loop body
    ASSERT_EQ(sp.args.size(), 1u);
    sum_i += sp.args[0].value;
  }
  const double expect_sum = kIters * (kIters - 1) / 2.0;
  EXPECT_EQ(sum_i, expect_sum);
  const auto totals = s.counter_totals();
  EXPECT_EQ(totals.at("parallel.iters"), static_cast<double>(kIters));
  EXPECT_EQ(totals.at("parallel.sum_i"), expect_sum);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  TraceSession s;
  {
    SessionGuard guard(s);
    ScopedSpan a("phase \"A\"\n", "cat\\weird");  // exporter must escape
    a.arg("evals", 1.0 / 3.0);
    { ScopedSpan b("B", "test"); }
  }
  s.emit_counter("power_w", 5, 4.25);
  s.add_counter_total("total.one", 42.0);

  std::ostringstream os;
  write_chrome_trace(s, os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("total.one"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 1u);
  EXPECT_TRUE(json_brackets_balanced(json)) << json;
  // The raw quote and newline in the span name must have been escaped.
  EXPECT_NE(json.find("phase \\\"A\\\"\\n"), std::string::npos);
}

TEST(CliTracer, UnknownFlagExitsTwo) {
  // The callers take positional arguments only, so a misspelled flag or a
  // bare `--trace` must stop the run instead of silently tracing nothing.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::string flag : {"--trace-csv=x", "--trace"}) {
    std::string prog = "prog";
    std::string n = "1024";
    char* argv[] = {prog.data(), n.data(), flag.data(), nullptr};
    int argc = 3;
    EXPECT_EXIT(CliTracer(argc, argv), ::testing::ExitedWithCode(2),
                "unknown flag: " + flag)
        << flag;
  }
}

TEST(CliTracer, StripsTraceFlagAndKeepsPositionals) {
  std::string prog = "prog";
  std::string n = "1024";
  std::string trace = "--trace=";  // empty path: tracing stays off
  std::string q = "16";
  char* argv[] = {prog.data(), n.data(), trace.data(), q.data(), nullptr};
  int argc = 4;
  const CliTracer tracer(argc, argv);
  EXPECT_FALSE(tracer.enabled());
  ASSERT_EQ(argc, 3);
  EXPECT_EQ(std::string(argv[1]), "1024");
  EXPECT_EQ(std::string(argv[2]), "16");
}

}  // namespace
}  // namespace eroof::trace
