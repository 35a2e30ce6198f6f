// LtlVerifier, the LTL-FO front end (verify/ltl_verifier.h): the
// Theorem 3.5 loop — for each candidate database, the sliced probe and
// then the full-spec sweep from the first lasso index — written once and
// run under two schedules. One job runs it inline; more jobs fan the
// databases (Verify) or the valuation ranges (VerifyOnDatabase) over a
// thread pool with lowest-index-wins event selection.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "analysis/slice.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "verify/ltl_verifier.h"

namespace wsv {

namespace {

using Found = std::optional<IndexedCounterExample>;

// Sweeps valuation indices [from, NumValuations()) of one context and
// returns the lowest-index event (counterexample, or lasso marker in an
// abort-on-lasso sweep), adding the product sizes it built to
// `product_states`.
using SweepFrom = std::function<StatusOr<Found>(
    const LtlDatabaseCheck& check, uint64_t from, uint64_t* product_states)>;

// What every schedule of one request shares, built once per entry point.
struct Plan {
  const WebService* service = nullptr;
  const TemporalProperty* property = nullptr;
  BuchiAutomaton automaton;
  // The property-cone reduction of `service`; null when slicing is off
  // or the slice is the identity.
  std::unique_ptr<WebService> sliced;
  // The request's options with the property's literals added to the
  // enumerator's base values and the leaf-store rule applied.
  LtlVerifyOptions options;
};

StatusOr<Plan> Prepare(const WebService* service,
                       const LtlVerifyOptions& options,
                       const TemporalProperty& property, bool enumerated,
                       bool chunked) {
  Plan plan;
  plan.service = service;
  plan.property = &property;
  WSV_ASSIGN_OR_RETURN(plan.automaton,
                       BuildNegatedAutomaton(*service, property,
                                             options.require_input_bounded));
  static const bool slice_disabled_by_env =
      std::getenv("WSV_DISABLE_SLICE") != nullptr;
  if (options.enable_slice && !slice_disabled_by_env) {
    plan.sliced = analysis::SlicePropertyCone(*service, property).service;
  }
  plan.options = options;
  for (Value v : property.formula->Literals()) {
    plan.options.db.base_values.push_back(v);
  }
  // The leaf-store rule. Enumerated databases never use the store: its
  // context fingerprints one concrete database, so columns would alias
  // across the sweep. A fixed database drops it only for a chunked
  // on-the-fly sweep, whose chunk-local lazy graphs number their edges in
  // an order that depends on the cut; the eager graph's edge order is
  // fixed at Create whatever the cut.
  if (enumerated || (chunked && OnTheFlyEnabled() && !options.force_eager)) {
    plan.options.leaf_store = nullptr;
  }
  return plan;
}

// One candidate database. With a slice, phase 1 sweeps the sliced spec in
// abort-on-lasso mode: a range with no accepting lasso on the sliced
// graph has none on the full graph either (the sliced graph is its
// quotient), so a lasso-free probe decides HOLDS outright; otherwise
// phase 2 sweeps the full spec from the first lasso index. Graph and
// product sizes accumulate into `totals` whatever the outcome.
StatusOr<Found> CheckDatabase(const Plan& plan, const LtlVerifyOptions& opts,
                              const Instance& database,
                              const SweepFrom& sweep, LtlVerifyResult* totals) {
  auto sweep_and_tally = [&](const LtlDatabaseCheck& check, uint64_t from) {
    StatusOr<Found> found =
        sweep(check, from, &totals->total_product_states);
    // After the sweep: on-the-fly graphs are expanded (and possibly
    // truncated) by the sweep itself.
    totals->total_graph_nodes += check.graph_nodes();
    if (check.truncated()) totals->complete_within_bounds = false;
    return found;
  };
  uint64_t from = 0;
  if (plan.sliced != nullptr) {
    WSV_ASSIGN_OR_RETURN(
        LtlDatabaseCheck probe,
        LtlDatabaseCheck::Create(
            plan.sliced.get(),
            SlicedCheckOptions(opts, *plan.service, *plan.property, database),
            plan.property, &plan.automaton, database));
    WSV_ASSIGN_OR_RETURN(Found marker, sweep_and_tally(probe, 0));
    if (!marker.has_value()) return Found();
    from = marker->valuation_index;
  }
  WSV_ASSIGN_OR_RETURN(LtlDatabaseCheck check,
                       LtlDatabaseCheck::Create(plan.service, opts,
                                                plan.property,
                                                &plan.automaton, database));
  return sweep_and_tally(check, from);
}

// The inline schedule's sweep: the whole range on the caller's thread.
StatusOr<Found> SweepInline(const LtlDatabaseCheck& check, uint64_t from,
                            uint64_t* product_states) {
  return check.CheckValuations(from, check.NumValuations(), nullptr,
                               product_states);
}

// The winning event of a pooled sweep: the lowest-index counterexample
// (or marker) or task error seen so far. `best_index` doubles as the
// cancellation signal the workers poll (UINT64_MAX = no event yet); the
// payload is only touched under `mu`.
struct EventBoard {
  std::mutex mu;
  std::atomic<uint64_t> best_index{UINT64_MAX};
  Status error = Status::OK();  // non-OK: the winner is a task error
  Found event;
  // When the first event landed (time-to-first-counterexample and
  // cancellation-drain telemetry). 0 = no event yet.
  uint64_t first_event_ns = 0;

  bool Below(uint64_t index) const {
    return best_index.load(std::memory_order_relaxed) < index;
  }

  // Installs the event if it beats the current best. Returns true if it
  // won (callers then cancel work that can no longer win).
  bool Record(uint64_t index, Status st, Found e) {
    std::lock_guard<std::mutex> lock(mu);
    if (index >= best_index.load(std::memory_order_relaxed)) return false;
    if (first_event_ns == 0) first_event_ns = WSV_OBS_NOW();
    best_index.store(index, std::memory_order_relaxed);
    error = std::move(st);
    event = std::move(e);
    return true;
  }

  // Call after the pool drained. Lasso markers are not counterexamples,
  // so they record no latency.
  StatusOr<Found> Finish([[maybe_unused]] uint64_t request_start_ns) {
    if (best_index.load() == UINT64_MAX) return Found();
    if (!(event.has_value() && event->lasso_only)) {
      if (error.ok()) {
        WSV_HIST("verify/time_to_first_cex_ns",
                 first_event_ns - request_start_ns);
      }
      // How long in-flight work took to drain after the winner was known
      // — the latency the three-layer cancellation keeps small.
      WSV_HIST("verify/cancel_drain_ns", WSV_OBS_NOW() - first_event_ns);
    }
    if (!error.ok()) return error;
    return std::move(event);
  }
};

// The pooled VerifyOnDatabase sweep: [from, n) cut into one contiguous
// chunk per worker, lowest index wins. The context is immutable; chunks
// share it freely. Each chunk keeps its own FO-leaf memo and
// valuation-class table (call-local state in CheckValuations), so one
// chunk per worker maximizes the per-chunk collapse rate, and class
// repeats cost next to nothing, so imbalance matters little. Valuation
// totals sum exactly across chunks; only the per-chunk split (memo hits
// vs misses, classes vs hits) depends on the cut. Chunks below the
// lowest marker ran to completion without one, so in the sliced probe
// that marker is exactly the first index with an accepting lasso.
StatusOr<Found> SweepChunked(ThreadPool& pool, uint64_t request_start_ns,
                             const LtlDatabaseCheck& check, uint64_t from,
                             uint64_t* product_states) {
  const uint64_t n = check.NumValuations();
  if (from >= n) return Found();
  const uint64_t range = n - from;
  const uint64_t num_chunks =
      std::min<uint64_t>(range, pool.num_threads());
  const uint64_t chunk = (range + num_chunks - 1) / num_chunks;
  EventBoard board;
  // Valuation i can no longer win once an event at or below it exists.
  auto decided = [&board](uint64_t i) {
    return board.best_index.load(std::memory_order_relaxed) <= i;
  };
  std::mutex states_mu;
  uint64_t states = 0;  // guarded by states_mu
  for (uint64_t begin = from; begin < n; begin += chunk) {
    const uint64_t end = std::min(n, begin + chunk);
    WSV_COUNT1("verify/valuation_chunks");
    pool.Submit([&, begin, end] {
      if (decided(begin)) return;
      uint64_t chunk_states = 0;
      auto found_or = check.CheckValuations(begin, end, decided, &chunk_states);
      {
        std::lock_guard<std::mutex> lock(states_mu);
        states += chunk_states;
      }
      bool won = false;
      if (!found_or.ok()) {
        // Key the error by the chunk's first index (a lower bound on
        // where it occurred).
        if (found_or.status().code() != StatusCode::kCancelled) {
          won = board.Record(begin, found_or.status(), Found());
        }
      } else if (found_or->has_value()) {
        const uint64_t index = (**found_or).valuation_index;
        won = board.Record(index, Status::OK(), std::move(*found_or));
      }
      if (won) {
        WSV_COUNT1("verify/cancellations_signalled");
        pool.CancelPending();
      }
    });
  }
  pool.Wait();
  *product_states += states;
  return board.Finish(request_start_ns);
}

}  // namespace

LtlVerifier::LtlVerifier(const WebService* service, LtlVerifyOptions options,
                         int jobs)
    : service_(service),
      options_(std::move(options)),
      jobs_(ResolveJobCount(jobs)) {}

StatusOr<LtlVerifyResult> LtlVerifier::VerifyOnDatabase(
    const TemporalProperty& property, const Instance& database) {
  const uint64_t start_ns = WSV_OBS_NOW();
  const bool chunked = jobs_ > 1;
  WSV_ASSIGN_OR_RETURN(Plan plan, Prepare(service_, options_, property,
                                          /*enumerated=*/false, chunked));
  LtlVerifyResult result;
  result.databases_checked = 1;
  StatusOr<Found> found = Found();
  if (!chunked) {
    found = CheckDatabase(plan, plan.options, database, SweepInline, &result);
  } else {
    WSV_SPAN("verify/parallel_db_sweep");
    ThreadPool pool(jobs_);
    found = CheckDatabase(
        plan, plan.options, database,
        [&pool, start_ns](const LtlDatabaseCheck& check, uint64_t from,
                          uint64_t* product_states) {
          return SweepChunked(pool, start_ns, check, from, product_states);
        },
        &result);
  }
  if (!found.ok()) return found.status();
  if (found->has_value()) {
    result.holds = false;
    result.counterexample = std::move((**found).cex);
  }
  return result;
}

StatusOr<LtlVerifyResult> LtlVerifier::Verify(
    const TemporalProperty& property) {
  const uint64_t start_ns = WSV_OBS_NOW();
  WSV_ASSIGN_OR_RETURN(Plan plan, Prepare(service_, options_, property,
                                          /*enumerated=*/true,
                                          /*chunked=*/false));
  LtlVerifyResult result;
  if (jobs_ == 1) {
    WSV_RETURN_IF_ERROR(
        EnumerateDatabases(
            *service_, plan.options.db,
            [&](const Instance& db) -> StatusOr<bool> {
              ++result.databases_checked;
              WSV_ASSIGN_OR_RETURN(Found found,
                                   CheckDatabase(plan, plan.options, db,
                                                 SweepInline, &result));
              if (!found.has_value()) return false;
              result.holds = false;
              result.counterexample = std::move(found->cex);
              return true;
            })
            .status());
    return result;
  }

  WSV_SPAN("verify/parallel_sweep");
  EventBoard board;
  std::mutex stats_mu;

  // Backpressure: the enumerator runs far ahead of the workers, so cap
  // the number of submitted-but-unfinished tasks to keep memory (each
  // task holds a database copy) bounded.
  std::condition_variable slot_cv;
  std::mutex slot_mu;
  uint64_t outstanding = 0;
  const uint64_t max_outstanding = static_cast<uint64_t>(jobs_) * 2;

  ThreadPool pool(jobs_);

  auto record = [&](uint64_t d, Status st, Found e) {
    if (board.Record(d, std::move(st), std::move(e))) {
      WSV_COUNT1("verify/cancellations_signalled");
      size_t dropped = pool.CancelPending();
      if (dropped > 0) {
        std::lock_guard<std::mutex> lock(slot_mu);
        outstanding -= dropped;
      }
      slot_cv.notify_all();
    }
  };

  uint64_t db_index = 0;
  auto enum_result = EnumerateDatabases(
      *service_, plan.options.db,
      [&](const Instance& db) -> StatusOr<bool> {
        const uint64_t d = db_index++;
        if (board.Below(d)) {
          WSV_COUNT1("verify/dbs_pruned_by_cancel");
          return true;  // stop enumerating
        }
        {
          std::unique_lock<std::mutex> lock(slot_mu);
          slot_cv.wait(lock, [&] {
            return outstanding < max_outstanding ||
                   board.best_index.load(std::memory_order_relaxed) !=
                       UINT64_MAX;
          });
          if (board.Below(d)) return true;
          ++outstanding;
        }
        // The enumerator reuses its instance buffer, so the task gets a
        // copy.
        auto db_copy = std::make_shared<Instance>(db);
        pool.Submit([&, d, db_copy] {
          struct SlotGuard {
            std::mutex& mu;
            uint64_t& outstanding;
            std::condition_variable& cv;
            ~SlotGuard() {
              {
                std::lock_guard<std::mutex> lock(mu);
                --outstanding;
              }
              cv.notify_all();
            }
          } guard{slot_mu, outstanding, slot_cv};
          if (board.Below(d)) return;

          // Work on this database can no longer win once a lower index
          // has an event: stop per expanded node and per valuation.
          auto lost = [&board, d] { return board.Below(d); };
          LtlVerifyOptions opts = plan.options;
          opts.graph.cancel_check = lost;
          LtlVerifyResult totals;
          StatusOr<Found> found = CheckDatabase(
              plan, opts, *db_copy,
              [&lost](const LtlDatabaseCheck& check, uint64_t from,
                      uint64_t* product_states) {
                return check.CheckValuations(
                    from, check.NumValuations(),
                    [&lost](uint64_t) { return lost(); }, product_states);
              },
              &totals);
          {
            std::lock_guard<std::mutex> lock(stats_mu);
            result.total_graph_nodes += totals.total_graph_nodes;
            result.total_product_states += totals.total_product_states;
            if (!totals.complete_within_bounds) {
              result.complete_within_bounds = false;
            }
          }
          if (!found.ok()) {
            if (found.status().code() != StatusCode::kCancelled) {
              record(d, found.status(), Found());
            }
          } else if (found->has_value()) {
            record(d, Status::OK(), std::move(*found));
          }
        });
        return false;
      });
  pool.Wait();

  const uint64_t best = board.best_index.load();
  WSV_ASSIGN_OR_RETURN(Found winner, board.Finish(start_ns));
  if (winner.has_value()) {
    result.holds = false;
    result.counterexample = std::move(winner->cex);
    // What the inline sweep would have visited before stopping.
    result.databases_checked = best + 1;
    return result;
  }
  // No event anywhere: an enumerator failure (e.g. the instance cap) is
  // the outcome, exactly as in the inline schedule.
  if (!enum_result.ok()) return enum_result.status();
  result.databases_checked = db_index;
  return result;
}

}  // namespace wsv
