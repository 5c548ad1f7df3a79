#include "trace/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

namespace eroof::trace {
namespace {

/// %.17g: enough digits that a double survives text round-trips bit-exactly.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string escaping. Names and keys are controlled identifiers, but the
/// exporter must never produce an unloadable file.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void write_chrome_trace(const TraceSession& session, std::ostream& os) {
  const auto spans = session.spans();
  const auto samples = session.counter_samples();
  const auto totals = session.counter_totals();

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(s.category) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.tid << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
       << ",\"args\":{";
    for (std::size_t i = 0; i < s.args.size(); ++i) {
      if (i) os << ",";
      os << "\"" << json_escape(s.args[i].key) << "\":" << num(s.args[i].value);
    }
    os << "}}";
  }
  for (const auto& c : samples) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(c.name)
       << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << c.t_us << ",\"args\":{\""
       << json_escape(c.name) << "\":" << num(c.value) << "}}";
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  first = true;
  for (const auto& [name, value] : totals) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(name) << "\":" << num(value);
  }
  os << "\n}}\n";
}

bool write_chrome_trace(const TraceSession& session, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(session, out);
  return static_cast<bool>(out);
}

CliTracer::CliTracer(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--trace=", 0) == 0) {
      json_path_ = a.substr(std::strlen("--trace="));
    } else if (a.rfind("--", 0) == 0) {
      // The callers take positional arguments only: a misspelled flag
      // (`--trace-csv=x`, a bare `--trace`) must not run untraced silently.
      std::cerr << "unknown flag: " << a << "\n";
      std::exit(2);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!json_path_.empty()) {
    session_ = std::make_unique<TraceSession>();
    install(session_.get());
  }
}

CliTracer::~CliTracer() {
  if (!session_) return;
  install(nullptr);
  if (write_chrome_trace(*session_, json_path_))
    std::cerr << "trace: wrote " << json_path_ << " ("
              << session_->spans().size() << " spans, "
              << session_->counter_samples().size() << " counter samples)\n";
  else
    std::cerr << "trace: FAILED to write " << json_path_ << "\n";
}

}  // namespace eroof::trace
