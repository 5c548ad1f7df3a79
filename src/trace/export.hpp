// The TraceSession exporter: chrome://tracing JSON.
//
// It emits the Trace Event Format that chrome://tracing / Perfetto load
// directly: spans become complete ("ph":"X") events, counter samples become
// counter ("ph":"C") events, and the registry totals ride in "otherData".
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hpp"

namespace eroof::trace {

/// Writes the whole session as a chrome://tracing JSON object.
void write_chrome_trace(const TraceSession& session, std::ostream& os);

/// Same, to a file. Returns false if the file could not be written.
bool write_chrome_trace(const TraceSession& session, const std::string& path);

/// Command-line tracing for the bench/example binaries.
///
/// Scans argv for `--trace=FILE` (chrome JSON), removes the flag so
/// positional-argument parsing keeps working, and installs a session for the
/// tracer's lifetime when it is present. Any other argument starting with
/// `--` prints `unknown flag: <arg>` on stderr and exits with status 2. The
/// destructor writes the file and reports it on stderr.
class CliTracer {
 public:
  CliTracer(int& argc, char** argv);
  ~CliTracer();
  CliTracer(const CliTracer&) = delete;
  CliTracer& operator=(const CliTracer&) = delete;

  bool enabled() const { return session_ != nullptr; }
  TraceSession* session() { return session_.get(); }

 private:
  std::string json_path_;
  std::unique_ptr<TraceSession> session_;
};

}  // namespace eroof::trace
