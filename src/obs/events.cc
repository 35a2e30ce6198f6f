#include "obs/events.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/file_util.h"
#include "common/str_util.h"
#include "obs/request.h"

namespace wsv {
namespace obs {

namespace {

void AppendField(const std::string& key, const std::string& value,
                 std::ostream& out) {
  out << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
}

// The singleton's state, separate so EventLog stays trivially
// constructible and leak-safe (same pattern as the metrics registry).
struct LogState {
  std::mutex mu;
  std::ofstream out;
  std::string path;
  std::string tmp_path;
  uint64_t last_ts = 0;
  std::atomic<bool> enabled{false};
};

LogState& State() {
  static LogState* s = new LogState;
  return *s;
}

}  // namespace

std::string SerializeWideEvent(const WideEvent& event) {
  std::ostringstream out;
  out << "{\"event\":\"" << JsonEscape(event.event)
      << "\",\"ts_ns\":" << event.ts_ns;
  out << ",\"request\":" << event.request;
  if (!event.label.empty()) AppendField("label", event.label, out);
  if (!event.phase.empty()) AppendField("phase", event.phase, out);
  out << ",\"duration_ns\":" << event.duration_ns;
  for (const auto& [key, value] : event.text) AppendField(key, value, out);
  for (const auto& [key, value] : event.nums) {
    out << ",\"" << JsonEscape(key) << "\":" << value;
  }
  if (!event.counters.empty()) {
    out << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : event.counters) {
      if (!first) out << ",";
      first = false;
      out << "\"" << JsonEscape(name) << "\":" << value;
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

EventLog& EventLog::Get() {
  static EventLog* log = new EventLog;
  return *log;
}

Status EventLog::Open(const std::string& path) {
  LogState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.out.is_open()) {
    return Status::InvalidArgument("event log already open: " + s.path);
  }
  s.path = path;
  s.tmp_path = AtomicTempPath(path);
  s.out.open(s.tmp_path, std::ios::binary | std::ios::trunc);
  if (!s.out) {
    return Status::InvalidArgument("cannot open for writing: " + s.tmp_path);
  }
  s.last_ts = 0;
  s.enabled.store(true, std::memory_order_release);
  return Status::OK();
}

bool EventLog::enabled() const {
  return State().enabled.load(std::memory_order_acquire);
}

void EventLog::Emit(const WideEvent& event) {
  LogState& s = State();
  if (!s.enabled.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.out.is_open()) return;
  WideEvent stamped = event;
  if (stamped.ts_ns == 0) stamped.ts_ns = MonotonicNowNs();
  // Monotone file-wide even if a caller pre-stamped an older clock read.
  stamped.ts_ns = std::max(stamped.ts_ns, s.last_ts);
  s.last_ts = stamped.ts_ns;
  s.out << SerializeWideEvent(stamped) << "\n";
  // Flush per event: the temp file stays line-complete, so a crashed
  // run's temp is still inspectable (the final path appears only at
  // Close).
  s.out.flush();
}

Status EventLog::Close() {
  LogState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.out.is_open()) return Status::OK();
  s.enabled.store(false, std::memory_order_release);
  s.out.flush();
  const bool ok = static_cast<bool>(s.out);
  s.out.close();
  if (!ok) {
    std::remove(s.tmp_path.c_str());
    return Status::Internal("short write: " + s.tmp_path);
  }
  if (std::rename(s.tmp_path.c_str(), s.path.c_str()) != 0) {
    std::remove(s.tmp_path.c_str());
    return Status::Internal("rename failed: " + s.tmp_path + " -> " + s.path);
  }
  return Status::OK();
}

void EventLog::Discard() {
  LogState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.out.is_open()) return;
  s.enabled.store(false, std::memory_order_release);
  s.out.close();
  std::remove(s.tmp_path.c_str());
}

std::string ContentHashHex(std::string_view text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::string DeriveOutcome(const Status& status, const MetricsSnapshot& delta) {
  switch (status.code()) {
    case StatusCode::kOk:
      break;
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kCancelled:
      return "cancelled";
    default:
      return "error";
  }
  if (delta.CounterValue("verify/cancellations_signalled") > 0) {
    return "cancelled_early_exit";
  }
  return "completed";
}

void EmitRequestSummary(
    const RequestScope& scope, const MetricsSnapshot& delta,
    std::string_view verdict, std::string_view outcome,
    const std::vector<std::pair<std::string, std::string>>& text) {
  EventLog& log = EventLog::Get();
  if (!log.enabled()) return;
  constexpr std::string_view kSpanPrefix = "span/";
  for (const auto& [name, hist] : delta.histograms) {
    if (hist.count == 0) continue;
    if (name.compare(0, kSpanPrefix.size(), kSpanPrefix) != 0) continue;
    WideEvent ev;
    ev.event = "phase";
    ev.phase = name.substr(kSpanPrefix.size());
    ev.request = scope.id();
    ev.label = scope.label();
    ev.duration_ns = hist.sum;
    ev.text = text;
    ev.nums.emplace_back("count", hist.count);
    ev.nums.emplace_back("max_ns", hist.max);
    log.Emit(ev);
  }
  WideEvent terminal;
  terminal.event = "request";
  terminal.request = scope.id();
  terminal.label = scope.label();
  terminal.duration_ns = scope.ElapsedNs();
  terminal.text = text;
  terminal.text.emplace_back("verdict", std::string(verdict));
  terminal.text.emplace_back("outcome", std::string(outcome));
  for (const auto& [name, value] : delta.counters) {
    if (value != 0) terminal.counters.emplace_back(name, value);
  }
  log.Emit(terminal);
}

}  // namespace obs
}  // namespace wsv
