#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsv {
namespace obs {

Watchdog::Watchdog(const WatchdogOptions& options)
    : options_(options), start_ns_(MonotonicNowNs()) {
  last_heartbeat_ns_ = start_ns_;
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;
  }
  // Final sweep on the caller's thread: a run shorter than the sample
  // interval still gets its stall events, and they land in the event
  // log *before* the caller emits the request's terminal event.
  Sweep(/*allow_heartbeat=*/false);
}

void Watchdog::Loop() {
  const uint64_t interval_ms =
      options_.sample_interval_ms == 0 ? 50 : options_.sample_interval_ms;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    Sweep(/*allow_heartbeat=*/true);
    lock.lock();
  }
}

void Watchdog::Sweep(bool allow_heartbeat) {
  const uint64_t now = MonotonicNowNs();
  const MetricsSnapshot snap = SnapshotMetrics();
  const uint64_t steps = snap.CounterValue("fo/bytecode_steps");
  const uint64_t steps_delta = steps >= last_steps_ ? steps - last_steps_ : 0;
  last_steps_ = steps;
  std::FILE* stream = options_.stream != nullptr ? options_.stream : stderr;

  const std::vector<OpenSpan> spans = SnapshotOpenSpans();
  const std::vector<OpenRequestInfo> requests = OpenRequests();

  if (options_.stall_deadline_ns != UINT64_MAX) {
    EventLog& log = EventLog::Get();
    auto report = [&](const std::string& key, const std::string& phase,
                      RequestId request, const std::string& label,
                      uint64_t open_ns) {
      if (!reported_.insert(key).second) return;
      stall_events_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t age = now > open_ns ? now - open_ns : 0;
      if (log.enabled()) {
        WideEvent ev;
        ev.event = "stall";
        ev.phase = phase;
        ev.request = request;
        ev.label = label;
        ev.duration_ns = age;
        ev.nums.emplace_back("deadline_ns", options_.stall_deadline_ns);
        ev.nums.emplace_back("vm_steps", steps);
        ev.nums.emplace_back("vm_steps_delta", steps_delta);
        log.Emit(ev);
      }
      std::fprintf(stream,
                   "[wsv] watchdog: %s open for %.3fs (deadline %.3fs), "
                   "vm_steps+%llu\n",
                   phase.c_str(), double(age) / 1e9,
                   double(options_.stall_deadline_ns) / 1e9,
                   static_cast<unsigned long long>(steps_delta));
      std::fflush(stream);
    };
    for (const OpenSpan& span : spans) {
      const uint64_t age = now > span.start_ns ? now - span.start_ns : 0;
      if (age < options_.stall_deadline_ns) continue;
      report("span:" + std::to_string(span.tid) + ":" + span.name + ":" +
                 std::to_string(span.start_ns),
             span.name, span.request, "", span.start_ns);
    }
    for (const OpenRequestInfo& req : requests) {
      const uint64_t age = now > req.open_ns ? now - req.open_ns : 0;
      if (age < options_.stall_deadline_ns) continue;
      report("request:" + std::to_string(req.id), "request", req.id,
             req.label, req.open_ns);
    }
  }

  if (allow_heartbeat && options_.heartbeat_secs > 0.0) {
    const auto gap_ns =
        static_cast<uint64_t>(options_.heartbeat_secs * 1e9);
    // Half a sample interval of slack so a heartbeat that lands just
    // before the boundary doesn't slip a whole interval.
    const uint64_t slack_ns = options_.sample_interval_ms * 500000;
    if (now - last_heartbeat_ns_ + slack_ns >= gap_ns) {
      last_heartbeat_ns_ = now;
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
      // The innermost open span is the best "where are we" answer.
      const char* where = spans.empty() ? "-" : spans.back().name.c_str();
      // Sweep progress so far: (line label, event field, counter).
      static constexpr const char* kProgress[][3] = {
          {"dbs", "databases", "verify/databases"},
          {"graph_nodes", "graph_nodes", "config_graph/nodes"},
          {"valuations", "valuations_checked", "ltl/valuations_checked"},
          {"product_states", "product_states", "ltl/product_states"},
          {"cex", "counterexamples_found", "ltl/counterexamples_found"},
      };
      std::fprintf(stream, "[wsv] t=%.1fs requests=%zu phase=%s",
                   double(now - start_ns_) / 1e9, requests.size(), where);
      for (const auto& p : kProgress) {
        std::fprintf(stream, " %s=%llu", p[0],
                     static_cast<unsigned long long>(snap.CounterValue(p[2])));
      }
      std::fprintf(stream, " vm_steps=%llu (+%llu)\n",
                   static_cast<unsigned long long>(steps),
                   static_cast<unsigned long long>(steps_delta));
      std::fflush(stream);
      if (EventLog::Get().enabled()) {
        WideEvent hb;
        hb.event = "heartbeat";
        hb.request = requests.size() == 1 ? requests.front().id : kNoRequest;
        hb.nums.emplace_back("open_requests", requests.size());
        hb.nums.emplace_back("open_spans", spans.size());
        hb.nums.emplace_back("vm_steps", steps);
        hb.nums.emplace_back("vm_steps_delta", steps_delta);
        for (const auto& p : kProgress) {
          hb.nums.emplace_back(p[1], snap.CounterValue(p[2]));
        }
        EventLog::Get().Emit(hb);
      }
    }
  }
}

}  // namespace obs
}  // namespace wsv
