#include "util/obs_init.h"

#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fedcross::util {
namespace {

std::string g_metrics_out;
std::string g_trace_out;

// "-" / "none" let a caller suppress a binary-provided default from the
// command line without inventing a sentinel per binary.
std::string ResolvePath(FlagParser& flags, const std::string& name,
                        const std::string& default_value) {
  std::string value = flags.GetString(name, default_value);
  if (value == "-" || value == "none") return "";
  return value;
}

}  // namespace

Status InitObservability(FlagParser& flags, const ObsOptions& defaults) {
  // Read every flag before validating any, so a rejected value never leaves
  // a later flag unread (FlagParser::ok() reports unread flags as unknown).
  std::string log_level = flags.GetString("log_level", "");
  std::string metrics_out =
      ResolvePath(flags, "metrics_out", defaults.metrics_out);
  std::string trace_out = ResolvePath(flags, "trace_out", defaults.trace_out);
  std::string events_out =
      ResolvePath(flags, "events_out", defaults.events_out);
  if (!log_level.empty()) {
    LogLevel level = LogLevel::kInfo;
    if (!ParseLogLevel(log_level, &level)) {
      return Status::InvalidArgument("bad --log_level '" + log_level +
                                     "' (want debug|info|warning|error)");
    }
    SetLogLevel(level);
  }

  g_metrics_out = metrics_out;
  g_trace_out = trace_out;

  obs::SetMetricsEnabled(!g_metrics_out.empty());
  obs::SetTracingEnabled(!g_trace_out.empty());
  if (!obs::SetEventsPath(events_out)) {
    return Status::InvalidArgument("cannot open --events_out '" + events_out +
                                   "'");
  }
  return Status::Ok();
}

Status FlushObservability() {
  Status status = Status::Ok();
  if (!g_metrics_out.empty()) {
    if (!obs::MetricsRegistry::Global().WriteJson(g_metrics_out)) {
      status = Status::Internal("cannot write metrics to " + g_metrics_out);
    }
    g_metrics_out.clear();
  }
  if (!g_trace_out.empty()) {
    if (!obs::TraceRecorder::Global().WriteJson(g_trace_out)) {
      status = Status::Internal("cannot write trace to " + g_trace_out);
    }
    g_trace_out.clear();
  }
  obs::SetEventsPath("");
  return status;
}

}  // namespace fedcross::util
