// End-to-end verifier benchmark.
//
// A single-process, closed-loop benchmark with one client: it sends whole
// verification requests through the same public calls `wsvcli verify`,
// `wsvcli check-errors` and `wsvcli verify --cache-dir` make, in order
//
//   ParseServiceSpec / ParseDataFile / ParseTemporalProperty   (set-up)
//   MakeRequestKey -> VerifyCache::Lookup                      (cached)
//   ParallelLtlVerifier::Verify / VerifyOnDatabase | CheckErrorFree
//   VerifyCache::Insert                                        (cached)
//   ValidateWitness                                            (VIOLATED)
//
// times every request from outside, and checks every verdict against the
// one pinned in the workload definition. Parsing is memoized per distinct
// text, as `wsvcli replay` does, so it is part of set-up, not of requests.
//
// A run repeats whole passes over the workload's request sequence until
// --seconds have elapsed (at least one pass). Every pass replays the same
// seeded sequence from a fresh state (a fresh cache directory for cached
// workloads), so each request position's work counts must repeat exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced passes, records spans around the calls above (and, through
// obs::StartTracing, the program's own spans), reads each request's obs
// counters from its obs::RequestScope delta, runs standalone probes of
// single layers and the eager-engine oracle, and prints the per-layer
// metrics and the self-time table. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage: e2ebench --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR --state DIR

#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/slice.h"
#include "automata/ltl_to_buchi.h"
#include "cache/verify_cache.h"
#include "ltl/ltl.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "runtime/successor.h"
#include "verify/config_graph.h"
#include "verify/db_enum.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "verify/parallel.h"
#include "verify/witness_check.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace {

using namespace wsv;
namespace fs = std::filesystem;

uint64_t NowNs() { return obs::MonotonicNowNs(); }

// Process CPU time, all threads.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident set size of this process image. VmHWM, unlike
// getrusage's ru_maxrss, does not carry the launching process's peak
// across exec.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

StatusOr<std::string> ReadText(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------

enum class Kind { kVerify, kCheckErrors };

// One distinct request. Inputs point into the owning Workload.
struct RequestDef {
  std::string id;
  Kind kind = Kind::kVerify;
  const WebService* service = nullptr;
  const std::string* spec_text = nullptr;
  const TemporalProperty* property = nullptr;  // null for check-errors
  const Instance* database = nullptr;          // null: enumerate databases
  LtlVerifyOptions options;
  ErrorFreeOptions error_options;
  int jobs = 1;
  bool cached = false;
  std::string label;
  // The pinned verdict: HOLDS / error-free when true.
  bool expect_holds = true;
};

struct Workload {
  std::string name;
  // Per-request wall-time limit; a slower request counts as failed.
  uint64_t limit_ns = 0;
  bool cached = false;
  std::deque<std::string> texts;
  std::deque<WebService> services;
  std::deque<TemporalProperty> properties;
  std::deque<Instance> databases;
  std::vector<RequestDef> defs;
  // One pass: indices into defs.
  std::vector<size_t> pass;
  // Time spent in the parse calls, for ws.parse_ms.
  uint64_t parse_ns = 0;
};

// Paper Property (4), Example 3.4: payment before shipping. HOLDS.
constexpr const char* kProperty4 =
    "forall pid, price . ((UPP & payamount(price) & button(\"submit\") & "
    "pick(pid, price) & prod_prices(pid, price)) B !(conf(name, price) & "
    "ship(name, pid)))";

// The replay edit: restate the failed-login error rule with a vacuous
// conjunct (the tools/gen_replay.py edit). Same semantics, different
// fingerprint; the diff dirties only `error`.
constexpr const char* kErrorRule =
    "state +error(\"failed login\") :- !user(name, password) & "
    "button(\"login\");";
constexpr const char* kErrorRuleV1 =
    "state +error(\"failed login\") :- !user(name, password) & "
    "button(\"login\") & true;";

class InputParser {
 public:
  explicit InputParser(Workload* w) : w_(w) {}

  StatusOr<const WebService*> Spec(const std::string& text) {
    const std::string& kept = w_->texts.emplace_back(text);
    const uint64_t t0 = NowNs();
    StatusOr<WebService> parsed = ParseServiceSpec(kept);
    w_->parse_ns += NowNs() - t0;
    if (!parsed.ok()) return parsed.status();
    spec_text_[&w_->services.emplace_back(std::move(parsed).value())] = &kept;
    return &w_->services.back();
  }
  const std::string* SpecText(const WebService* s) { return spec_text_[s]; }

  StatusOr<const Instance*> Data(const std::string& text,
                                 const WebService* service) {
    const uint64_t t0 = NowNs();
    StatusOr<Instance> parsed = ParseDataFile(text, &service->vocab());
    w_->parse_ns += NowNs() - t0;
    if (!parsed.ok()) return parsed.status();
    w_->databases.push_back(std::move(parsed).value());
    return &w_->databases.back();
  }

  StatusOr<const TemporalProperty*> Property(const std::string& text,
                                             const WebService* service) {
    auto known = properties_.find({service, text});
    if (known != properties_.end()) return known->second;
    const uint64_t t0 = NowNs();
    StatusOr<TemporalProperty> parsed =
        ParseTemporalProperty(text, &service->vocab());
    w_->parse_ns += NowNs() - t0;
    if (!parsed.ok()) return parsed.status();
    w_->properties.push_back(std::move(parsed).value());
    properties_[{service, text}] = &w_->properties.back();
    return &w_->properties.back();
  }

 private:
  Workload* w_;
  std::map<const WebService*, const std::string*> spec_text_;
  std::map<std::pair<const WebService*, std::string>, const TemporalProperty*>
      properties_;
};

// Deterministic Fisher-Yates (std::shuffle's draw order is unspecified).
void Shuffle(std::vector<size_t>* v, std::mt19937_64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[(*rng)() % i]);
  }
}

// p4_sweep: the ROADMAP reference request, `wsvcli verify
// specs/ecommerce.wsv <P4> specs/ecommerce_small.wsd --pool alice,pw
// --unchecked --jobs 1` (1296 valuations). A fixed request.
Status BuildP4(const fs::path& inputs, Workload* w) {
  InputParser b(w);
  WSV_ASSIGN_OR_RETURN(std::string spec, ReadText(inputs / "ecommerce.wsv"));
  WSV_ASSIGN_OR_RETURN(std::string data,
                       ReadText(inputs / "ecommerce_small.wsd"));
  WSV_ASSIGN_OR_RETURN(const WebService* service, b.Spec(spec));
  WSV_ASSIGN_OR_RETURN(const Instance* db, b.Data(data, service));
  WSV_ASSIGN_OR_RETURN(const TemporalProperty* prop,
                       b.Property(kProperty4, service));
  RequestDef d;
  d.id = "p4";
  d.service = service;
  d.spec_text = b.SpecText(service);
  d.property = prop;
  d.database = db;
  d.options.graph.constant_pool = {Value::Intern("alice"),
                                   Value::Intern("pw")};
  d.options.require_input_bounded = false;
  d.jobs = 1;
  d.expect_holds = true;
  w->defs.push_back(std::move(d));
  w->pass = {0};
  w->limit_ns = 150'000'000'000ull;
  return Status::OK();
}

// login_enum: specs/login.wsv with no database, --fresh 2 (407 enumerated
// databases), --jobs 2. Every pass sends each request of the mix once,
// in a seed-drawn order, so the medians do not depend on how often a seed
// happens to draw the slow requests.
Status BuildLogin(const fs::path& inputs, uint64_t seed, Workload* w) {
  InputParser b(w);
  WSV_ASSIGN_OR_RETURN(std::string spec, ReadText(inputs / "login.wsv"));
  WSV_ASSIGN_OR_RETURN(const WebService* service, b.Spec(spec));
  // Verdicts follow from the rules: CP is entered only by the rule that
  // also sets logged_in; MP only by a failed login, which never sets it;
  // error is set only on a failed login. Quitting at once never reaches
  // CP; a database with a user reaches it; a failed login sets error.
  const std::pair<const char*, bool> props[] = {
      {"G(!CP | logged_in)", true},
      {"G(!MP | !logged_in)", true},
      {"forall m . G(!(logged_in & error(m)))", true},
      {"F(CP)", false},
      {"G(!CP)", false},
      {"forall m . G(!error(m))", false},
  };
  for (const auto& [text, holds] : props) {
    WSV_ASSIGN_OR_RETURN(const TemporalProperty* prop,
                         b.Property(text, service));
    RequestDef d;
    d.id = std::string("login/") + text;
    d.service = service;
    d.spec_text = b.SpecText(service);
    d.property = prop;
    d.options.db.fresh_values = 2;
    d.jobs = 2;
    d.expect_holds = holds;
    w->defs.push_back(std::move(d));
  }
  RequestDef ce;
  ce.id = "login/check-errors";
  ce.kind = Kind::kCheckErrors;
  ce.service = service;
  ce.spec_text = b.SpecText(service);
  ce.error_options.db.fresh_values = 2;
  ce.jobs = 1;  // CheckErrorFree is serial
  ce.expect_holds = true;
  w->defs.push_back(std::move(ce));
  for (size_t i = 0; i < w->defs.size(); ++i) w->pass.push_back(i);
  std::mt19937_64 rng(seed);
  Shuffle(&w->pass, &rng);
  w->limit_ns = 30'000'000'000ull;
  return Status::OK();
}

// replay_edits: the tools/gen_replay.py stream shape — 4 properties x 2
// databases on login under one label, the spec flipping between two
// versions — through a fresh on-disk cache, --jobs 1. The spec flips
// every kReplayEditEvery requests (a 5% edit rate). Each window between
// two flips holds a fixed multiset of requests in a seed-drawn order, so
// the number of misses, which sets a pass's time, does not depend on the
// seed: database 0 is asked every property three times; database 1 is
// asked every property twice in two windows of every four (one per spec
// version), and in the other two only the two properties an edit leaves
// valid, four times each. An edit re-verifies F(CP) (VIOLATED verdicts
// are evicted) and the BYE property (its cone holds `error`), so database
// 0 has twice as many misses of each as database 1, and the medians over
// misses fall inside database 0's figures rather than between the two
// databases'.
constexpr size_t kReplayRequests = 2000;
constexpr size_t kReplayEditEvery = 20;

Status BuildReplay(const fs::path& inputs, uint64_t seed, Workload* w) {
  InputParser b(w);
  w->cached = true;
  WSV_ASSIGN_OR_RETURN(std::string base, ReadText(inputs / "login.wsv"));
  const size_t at = base.find(kErrorRule);
  if (at == std::string::npos) {
    return Status::InvalidArgument("login.wsv lacks the replay edit point");
  }
  std::string edited = base;
  edited.replace(at, std::strlen(kErrorRule), kErrorRuleV1);
  const std::pair<const char*, bool> props[] = {
      {"G(!CP | logged_in)", true},
      {"F(CP)", false},
      {"G(!MP | !logged_in)", true},
      // BYE is entered by quit, logout or an empty submission; error only
      // by a failed login, which leads to MP, whence there is no exit.
      {"G(!BYE | !error(\"failed login\"))", true},
  };
  const char* dbs[] = {"user(alice, pw).",
                       "user(alice, pw).\nuser(bob, hunter2)."};
  // defs index = (version * 2 + db) * 4 + property
  for (int version = 0; version < 2; ++version) {
    WSV_ASSIGN_OR_RETURN(const WebService* service,
                         b.Spec(version == 0 ? base : edited));
    for (int di = 0; di < 2; ++di) {
      WSV_ASSIGN_OR_RETURN(const Instance* db, b.Data(dbs[di], service));
      for (const auto& [text, holds] : props) {
        WSV_ASSIGN_OR_RETURN(const TemporalProperty* prop,
                             b.Property(text, service));
        RequestDef d;
        d.id = "v" + std::to_string(version) + "/db" + std::to_string(di) +
               "/" + text;
        d.service = service;
        d.spec_text = b.SpecText(service);
        d.property = prop;
        d.database = db;
        d.jobs = 1;
        d.cached = true;
        d.label = "login";
        d.expect_holds = holds;
        w->defs.push_back(std::move(d));
      }
    }
  }
  static_assert(kReplayRequests % kReplayEditEvery == 0);
  std::mt19937_64 rng(seed);
  for (size_t window = 0; window < kReplayRequests / kReplayEditEvery;
       ++window) {
    const size_t version = window % 2;
    std::vector<size_t> requests;  // 12 + 8 = kReplayEditEvery
    for (size_t pi = 0; pi < 4; ++pi) {
      const bool affected = pi == 1 || pi == 3;
      const size_t db1_times = window % 4 < 2 ? 2 : affected ? 0 : 4;
      requests.insert(requests.end(), 3, (version * 2 + 0) * 4 + pi);
      requests.insert(requests.end(), db1_times, (version * 2 + 1) * 4 + pi);
    }
    Shuffle(&requests, &rng);
    w->pass.insert(w->pass.end(), requests.begin(), requests.end());
  }
  w->limit_ns = 5'000'000'000ull;
  return Status::OK();
}

Status BuildWorkload(const std::string& name, const fs::path& inputs,
                     uint64_t seed, Workload* w) {
  w->name = name;
  if (name == "p4_sweep") return BuildP4(inputs, w);
  if (name == "login_enum") return BuildLogin(inputs, seed, w);
  if (name == "replay_edits") return BuildReplay(inputs, seed, w);
  return Status::InvalidArgument("unknown workload: " + name);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.
// ---------------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  void Begin(const char* name, uint64_t request) {
    spans_.push_back({name, NowNs(), 0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    spans_[static_cast<size_t>(stack_.back())].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// A span around one call; a no-op when tracing is off.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, uint64_t request) : t_(t) {
    if (t_ != nullptr) t_->Begin(name, request);
  }
  ~Scoped() {
    if (t_ != nullptr) t_->End();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
};

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

// The work counts that must repeat exactly for a deterministic request.
struct Counts {
  uint64_t fo_leaf_evals = 0;
  uint64_t nodes_expanded = 0;
  uint64_t otf_states_created = 0;
  uint64_t products_built = 0;
  uint64_t instances_enumerated = 0;
  uint64_t graph_nodes = 0;     // the verdict's total_graph_nodes
  uint64_t product_states = 0;  // the verdict's total_product_states
  int outcome = -1;             // cache::Outcome, -1 when uncached

  bool operator==(const Counts&) const = default;
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %d",
                  fo_leaf_evals, nodes_expanded, otf_states_created,
                  products_built, instances_enumerated, graph_nodes,
                  product_states, outcome);
    return buf;
  }
};

enum class Served { kVerifier, kCache };

struct Record {
  size_t def = 0;
  uint64_t latency_ns = 0;
  double cpu_s = 0;
  Served served = Served::kVerifier;
  bool holds = true;
  bool failed = false;
  std::string failure;
  Counts counts;
  // Exact counts are required unless the request exits early on a
  // parallel sweep, where cancellation timing decides how much work the
  // other shard does before it stops.
  bool deterministic = true;
  obs::MetricsSnapshot delta;
  uint64_t request_id = 0;
  int jobs = 1;
  double verify_cpu_s = 0;
  double verify_wall_s = 0;
};

class Runner {
 public:
  Runner(const Workload* w, const fs::path& state) : w_(w), state_(state) {}

  // Starts a pass: a fresh cache directory for cached workloads.
  Status BeginPass() {
    cache_.reset();
    if (!w_->cached) return Status::OK();
    const fs::path dir = state_ / ("cache-" + std::to_string(getpid()));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) return Status::Internal("cannot create " + dir.string());
    cache::VerifyCache::Config cfg;
    cfg.dir = dir.string();
    cache_ = std::make_unique<cache::VerifyCache>(std::move(cfg));
    return Status::OK();
  }

  void EndPass() {
    if (cache_ != nullptr) {
      verify_cache_bytes_ = std::max<int64_t>(
          verify_cache_bytes_,
          obs::SnapshotMetrics().GaugeValue("mem/verify_cache_bytes"));
    }
    cache_.reset();
    if (w_->cached) {
      std::error_code ec;
      fs::remove_all(state_ / ("cache-" + std::to_string(getpid())), ec);
    }
  }

  int64_t verify_cache_bytes() const { return verify_cache_bytes_; }

  Record Run(size_t def_index, Tracer* tracer) {
    const RequestDef& d = w_->defs[def_index];
    Record rec;
    rec.def = def_index;
    rec.jobs = d.jobs;
    obs::RequestScope scope(d.id);
    const uint64_t rid = scope.id();
    rec.request_id = rid;
    const uint64_t start = NowNs();
    if (tracer != nullptr) tracer->Begin("request", rid);

    bool verdict_known = false;
    cache::RequestKey key;
    LtlVerifyOptions options = d.options;
    if (d.cached && cache_ != nullptr) {
      {
        Scoped s(tracer, "cache.key", rid);
        key = cache::MakeRequestKey(*d.service, *d.property, d.database,
                                    options, d.jobs);
      }
      cache::VerifyCache::LookupResult looked;
      {
        Scoped s(tracer, "cache.lookup", rid);
        cache_->RegisterSpec(key.spec, *d.spec_text);
        looked = cache_->Lookup(key, d.label, *d.service, *d.property);
      }
      rec.counts.outcome = static_cast<int>(looked.outcome);
      if (looked.outcome == cache::Outcome::kHit ||
          looked.outcome == cache::Outcome::kWarm) {
        rec.served = Served::kCache;
        rec.holds = looked.verdict.holds;
        verdict_known = true;
      } else if (d.database != nullptr && cache::VerifyCache::Enabled()) {
        options.leaf_store_context = cache::VerifyCache::LeafContext(
            key, *d.service, *d.property, *d.database, options,
            /*on_the_fly=*/!options.force_eager && OnTheFlyEnabled());
        options.leaf_store = cache_->leaf_store();
      }
    }

    if (!verdict_known && d.kind == Kind::kCheckErrors) {
      const double cpu0 = CpuSeconds();
      const uint64_t w0 = NowNs();
      StatusOr<ErrorFreeResult> result = Status::OK();
      {
        Scoped s(tracer, "check_errors", rid);
        result = d.database != nullptr
                     ? CheckErrorFreeOnDatabase(*d.service, *d.database,
                                                d.error_options)
                     : CheckErrorFree(*d.service, d.error_options);
      }
      rec.verify_wall_s = static_cast<double>(NowNs() - w0) * 1e-9;
      rec.verify_cpu_s = CpuSeconds() - cpu0;
      if (!result.ok()) {
        rec.failed = true;
        rec.failure = result.status().ToString();
      } else {
        rec.holds = result->error_free;
        rec.counts.graph_nodes = result->total_graph_nodes;
      }
    } else if (!verdict_known) {
      const double cpu0 = CpuSeconds();
      const uint64_t w0 = NowNs();
      StatusOr<LtlVerifyResult> result = Status::OK();
      {
        Scoped s(tracer, "verify", rid);
        ParallelLtlVerifier verifier(d.service, options, d.jobs);
        result = d.database != nullptr
                     ? verifier.VerifyOnDatabase(*d.property, *d.database)
                     : verifier.Verify(*d.property);
      }
      rec.verify_wall_s = static_cast<double>(NowNs() - w0) * 1e-9;
      rec.verify_cpu_s = CpuSeconds() - cpu0;
      if (!result.ok()) {
        rec.failed = true;
        rec.failure = result.status().ToString();
      } else {
        rec.holds = result->holds;
        rec.counts.graph_nodes = result->total_graph_nodes;
        rec.counts.product_states = result->total_product_states;
        if (d.cached && cache_ != nullptr) {
          Scoped s(tracer, "cache.insert", rid);
          cache::CachedVerdict v;
          v.holds = result->holds;
          if (!result->holds) {
            v.witness_text = result->counterexample->ToString();
          }
          v.databases_checked = result->databases_checked;
          v.total_graph_nodes = result->total_graph_nodes;
          v.total_product_states = result->total_product_states;
          v.complete_within_bounds = result->complete_within_bounds;
          cache_->Insert(key, v);
        }
        if (!result->holds) {
          Scoped s(tracer, "witness_check", rid);
          Status valid =
              ValidateWitness(*d.service, *d.property, *result->counterexample);
          if (!valid.ok()) {
            rec.failed = true;
            rec.failure = "witness rejected: " + valid.ToString();
          }
        }
      }
      rec.deterministic = result.ok() && (result->holds || d.jobs == 1);
    }

    rec.delta = scope.Close();
    rec.latency_ns = NowNs() - start;
    if (tracer != nullptr) tracer->End();

    const obs::MetricsSnapshot& m = rec.delta;
    rec.counts.fo_leaf_evals = m.CounterValue("ltl/fo_leaf_evals");
    rec.counts.nodes_expanded = m.CounterValue("config_graph/nodes_expanded");
    rec.counts.otf_states_created = m.CounterValue("ltl/otf_states_created");
    rec.counts.products_built = m.CounterValue("ltl/products_built");
    rec.counts.instances_enumerated =
        m.CounterValue("db_enum/instances_enumerated");
    if (rec.served == Served::kCache) {
      // The cached counts describe the populating run, not this request.
      rec.counts.graph_nodes = 0;
      rec.counts.product_states = 0;
    }
    if (!rec.failed && rec.holds != d.expect_holds) {
      rec.failed = true;
      rec.failure = std::string("verdict ") +
                    (rec.holds ? "HOLDS" : "VIOLATED") + ", expected " +
                    (d.expect_holds ? "HOLDS" : "VIOLATED");
    }
    if (!rec.failed && rec.latency_ns > w_->limit_ns) {
      rec.failed = true;
      rec.failure = "exceeded the per-request limit";
    }
    return rec;
  }

 private:
  const Workload* w_;
  fs::path state_;
  std::unique_ptr<cache::VerifyCache> cache_;
  int64_t verify_cache_bytes_ = 0;
};

struct Pass {
  std::vector<Record> records;
  bool traced = false;
};

StatusOr<Pass> RunPass(const Workload& w, Runner* runner, Tracer* tracer) {
  WSV_RETURN_IF_ERROR(runner->BeginPass());
  Pass p;
  p.traced = tracer != nullptr;
  for (size_t def : w.pass) {
    const double cpu0 = CpuSeconds();
    p.records.push_back(runner->Run(def, tracer));
    p.records.back().cpu_s = CpuSeconds() - cpu0;
  }
  runner->EndPass();
  return p;
}

// The time of one pass, robust to bursts of host noise: every pass replays
// the same sequence, so each position's median over the passes is taken
// and the medians are summed. `field` selects latency or CPU time.
double PassSeconds(const std::vector<Pass>& passes, bool traced,
                   double (*field)(const Record&)) {
  double total = 0;
  for (size_t i = 0;; ++i) {
    std::vector<double> at;
    for (const Pass& p : passes) {
      if (p.traced == traced && i < p.records.size()) {
        at.push_back(field(p.records[i]));
      }
    }
    if (at.empty()) return total;
    total += Median(at);
  }
}

double LatencyOf(const Record& r) {
  return static_cast<double>(r.latency_ns) * 1e-9;
}
double CpuOf(const Record& r) { return r.cpu_s; }

// ---------------------------------------------------------------------
// Exact-count determinism.
// ---------------------------------------------------------------------

// Compares every deterministic position of every pass against the first
// pass, and the first pass against the record an earlier run of the same
// binary, workload and seed left in the state directory.
struct Determinism {
  uint64_t mismatches = 0;
  uint64_t early_exit_drift = 0;  // ungated positions that differed
  std::vector<std::string> notes;
};

uint64_t FileHash(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

Determinism CheckDeterminism(const Workload& w, const std::vector<Pass>& passes,
                             uint64_t seed, const fs::path& state,
                             const fs::path& binary) {
  Determinism det;
  if (passes.empty()) return det;
  const std::vector<Record>& first = passes[0].records;
  for (size_t p = 1; p < passes.size(); ++p) {
    for (size_t i = 0; i < first.size(); ++i) {
      const Record& a = first[i];
      const Record& b = passes[p].records[i];
      if (a.counts == b.counts) continue;
      if (!a.deterministic || !b.deterministic) {
        ++det.early_exit_drift;
        continue;
      }
      ++det.mismatches;
      det.notes.push_back("pass " + std::to_string(p) + " position " +
                          std::to_string(i) + " (" + w.defs[a.def].id +
                          "): " + a.counts.ToString() + " vs " +
                          b.counts.ToString());
    }
  }
  char name[128];
  std::snprintf(name, sizeof(name), "counts-%016" PRIx64 "-%s-%" PRIu64 ".txt",
                FileHash(binary), w.name.c_str(), seed);
  const fs::path path = state / name;
  std::ostringstream mine;
  for (const Record& r : first) {
    mine << (r.deterministic ? r.counts.ToString() : "-") << "\n";
  }
  StatusOr<std::string> earlier = ReadText(path);
  if (earlier.ok()) {
    std::istringstream a(*earlier), b(mine.str());
    std::string la, lb;
    size_t i = 0;
    while (std::getline(b, lb)) {
      if (!std::getline(a, la)) la = "<missing>";
      if (la != lb && la != "-" && lb != "-") {
        ++det.mismatches;
        det.notes.push_back("position " + std::to_string(i) +
                            " differs from an earlier run: " + la + " vs " +
                            lb);
      }
      ++i;
    }
  } else {
    const fs::path tmp = path.string() + ".tmp" + std::to_string(getpid());
    {
      std::ofstream out(tmp);
      out << mine.str();
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
  }
  return det;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %-6s n=%zu\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.samples);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Latencies of one pass set, split the way the metrics need them. The
// p50 figures are taken over request positions, each position counting
// with its median latency across the passes (like wall_s); the hit tail
// is taken over every cache-served request.
struct Latencies {
  std::vector<double> all_ms, holds_ms, violated_ms, hit_us;
  std::vector<double> hit_samples_us;
  uint64_t attempted = 0, failed = 0;
};

Latencies Collect(const std::vector<Pass>& passes, bool traced) {
  Latencies l;
  std::vector<std::vector<double>> at;  // position -> latencies, ms
  std::vector<const Record*> kind;      // position -> a successful record
  for (const Pass& p : passes) {
    if (p.traced != traced) continue;
    at.resize(std::max(at.size(), p.records.size()));
    kind.resize(at.size(), nullptr);
    for (size_t i = 0; i < p.records.size(); ++i) {
      const Record& r = p.records[i];
      ++l.attempted;
      if (r.failed) {
        ++l.failed;
        continue;
      }
      const double ms = static_cast<double>(r.latency_ns) * 1e-6;
      at[i].push_back(ms);
      kind[i] = &r;
      if (r.served == Served::kCache) l.hit_samples_us.push_back(ms * 1e3);
    }
  }
  for (size_t i = 0; i < at.size(); ++i) {
    if (at[i].empty()) continue;
    const double ms = Median(at[i]);
    l.all_ms.push_back(ms);
    if (kind[i]->served == Served::kCache) {
      l.hit_us.push_back(ms * 1e3);
    } else if (kind[i]->holds) {
      l.holds_ms.push_back(ms);
    } else {
      l.violated_ms.push_back(ms);
    }
  }
  return l;
}

// Per distinct request: latency over the untraced passes, and each
// untraced pass's wall time, so that a noisy figure can be traced to the
// request or the pass it comes from.
void PrintPerRequest(const Workload& w, const std::vector<Pass>& passes) {
  std::map<size_t, std::vector<double>> ms;
  std::vector<double> pass_s;
  for (const Pass& p : passes) {
    if (p.traced) continue;
    double total = 0;
    for (const Record& r : p.records) {
      const double v = static_cast<double>(r.latency_ns) * 1e-6;
      ms[r.def].push_back(v);
      total += v * 1e-3;
    }
    pass_s.push_back(total);
  }
  std::printf("untraced pass wall times (s):");
  for (double s : pass_s) std::printf(" %.4f", s);
  std::printf("\nper request (ms over untraced passes: median min max n):\n");
  for (const auto& [def, v] : ms) {
    std::printf("  %-44s %12.4f %12.4f %12.4f n=%zu\n", w.defs[def].id.c_str(),
                Median(v), *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()), v.size());
  }
}

void PrintFailures(const Workload& w, const std::vector<Pass>& passes) {
  size_t shown = 0;
  for (const Pass& p : passes) {
    for (const Record& r : p.records) {
      if (r.failed && shown++ < 10) {
        std::fprintf(stderr, "FAILED %s: %s\n", w.defs[r.def].id.c_str(),
                     r.failure.c_str());
      }
    }
  }
}

// ---------------------------------------------------------------------
// Traced-run analysis: per-layer self times.
// ---------------------------------------------------------------------

const char* const kLayers[] = {"cache",        "fo_leaf",  "verify",
                               "automata",     "db_enum",  "config_graph",
                               "error_free",   "witness_check",
                               "parallel",     "other_spans"};

struct LayerTable {
  std::map<std::string, double> self_s;  // layer -> thread-seconds
  double total_s = 0;                    // what the layers partition
  double unattributed_s = 0;
};

struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string key;  // "p:" program span, "b:" benchmark span
};

std::string LayerOf(const std::string& key, const std::string& enclosing) {
  static const std::map<std::string, std::string> layers = {
      // Benchmark spans.
      {"b:request", "unattributed"},
      {"b:verify", "unattributed"},
      {"b:cache.key", "cache"},
      {"b:cache.lookup", "cache"},
      {"b:cache.insert", "cache"},
      {"b:witness_check", "witness_check"},
      {"b:check_errors", "error_free"},
      // Program spans (obs trace events).
      {"p:automata/emptiness", "automata"},
      {"p:automata/build_negated", "automata"},
      {"p:automata/ltl_to_buchi", "automata"},
      {"p:verify/db_enum", "db_enum"},
      {"p:config_graph/build", "config_graph"},
      {"p:verify/check_valuations", "verify"},
      {"p:verify/db_check_create", "verify"},
      {"p:verify/parallel_sweep", "parallel"},
      {"p:verify/parallel_db_sweep", "parallel"},
      {"p:verify/witness_check", "witness_check"},
      // The exclusive time of ltl/product is configuration-graph
      // expansion by the runtime stepper plus product bookkeeping, which
      // no program span isolates.
      {"p:ltl/product", "unattributed"},
  };
  auto it = layers.find(key);
  if (it != layers.end()) return it->second;
  // A span this table does not know inherits its enclosing span's layer,
  // unless that would hide it in the unattributed share.
  return enclosing.empty() || enclosing == "unattributed" ? "other_spans"
                                                          : enclosing;
}

// Adds the exclusive time of one thread's properly nested intervals to
// `layer_s` (by layer) and `key_s` (by span key); returns the time the
// outermost intervals cover.
double Exclusive(std::vector<Interval> items,
                 std::map<std::string, double>* layer_s,
                 std::map<std::string, double>* key_s) {
  std::sort(items.begin(), items.end(), [](const Interval& a, const Interval& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  auto secs = [](const Interval& i) {
    return static_cast<double>(i.end_ns - i.start_ns) * 1e-9;
  };
  std::vector<size_t> stack;
  std::vector<double> child(items.size(), 0.0);
  std::vector<std::string> layer(items.size());
  double top = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    while (!stack.empty() && items[stack.back()].end_ns <= items[i].start_ns) {
      stack.pop_back();
    }
    if (stack.empty()) {
      top += secs(items[i]);
      layer[i] = LayerOf(items[i].key, "");
    } else {
      child[stack.back()] += secs(items[i]);
      layer[i] = LayerOf(items[i].key, layer[stack.back()]);
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const double excl = std::max(0.0, secs(items[i]) - child[i]);
    (*layer_s)[layer[i]] += excl;
    (*key_s)[items[i].key] += excl;
  }
  return top;
}

// Partitions each traced request's thread-time into layers. On the
// calling thread the partition covers the request's wall time; on pool
// workers it covers the time inside program spans. In a parallel sweep
// the calling thread enumerates databases, submits shards and waits for
// free worker slots inside verify/db_enum, so there that span's exclusive
// time is verify/parallel's (the enumeration alone is the db_enum probe's
// figure). Leaf-column evaluation (ltl/leaf_col_eval_ns, a histogram with
// no span) is taken out of the exclusive time of the spans that evaluate
// leaves, in the order verify/check_valuations, ltl/product,
// automata/emptiness, verify/db_check_create.
LayerTable SelfTimes(const std::vector<Span>& spans,
                     const std::vector<obs::TraceEvent>& events,
                     uint32_t main_tid,
                     const std::map<uint64_t, const Record*>& by_request) {
  LayerTable table;
  size_t ev = 0;
  for (size_t si = 0; si < spans.size(); ++si) {
    const Span& root = spans[si];
    if (root.name != "request" || root.parent != -1) continue;
    auto rec = by_request.find(root.request);
    const bool parallel = rec != by_request.end() && rec->second->jobs > 1;
    while (ev < events.size() && events[ev].start_ns < root.start_ns) ++ev;
    std::map<uint32_t, std::vector<Interval>> per_thread;
    for (size_t e = ev; e < events.size() && events[e].start_ns <= root.end_ns;
         ++e) {
      if (events[e].end_ns > root.end_ns) continue;
      std::string key = "p:" + events[e].name;
      if (parallel && events[e].tid == main_tid && key == "p:verify/db_enum") {
        key = "p:verify/parallel_sweep";
      }
      per_thread[events[e].tid].push_back(
          {events[e].start_ns, events[e].end_ns, std::move(key)});
    }
    for (size_t c = si; c < spans.size() && spans[c].start_ns <= root.end_ns;
         ++c) {
      if (c != si && spans[c].request != root.request) continue;
      per_thread[main_tid].push_back(
          {spans[c].start_ns, spans[c].end_ns, "b:" + spans[c].name});
    }
    std::map<std::string, double> layer_s, key_s;
    for (auto& [tid, items] : per_thread) {
      table.total_s += Exclusive(std::move(items), &layer_s, &key_s);
    }
    double leaf = 0;
    if (rec != by_request.end()) {
      auto h = rec->second->delta.histograms.find("ltl/leaf_col_eval_ns");
      if (h != rec->second->delta.histograms.end()) {
        leaf = static_cast<double>(h->second.sum) * 1e-9;
      }
    }
    for (const char* host : {"p:verify/check_valuations", "p:ltl/product",
                             "p:automata/emptiness",
                             "p:verify/db_check_create"}) {
      const double take = std::min(key_s[host], leaf);
      layer_s[LayerOf(host, "")] -= take;
      layer_s["fo_leaf"] += take;
      leaf -= take;
    }
    for (const auto& [layer, secs] : layer_s) {
      if (layer == "unattributed") {
        table.unattributed_s += secs;
      } else {
        table.self_s[layer] += secs;
      }
    }
  }
  return table;
}

void WriteSpans(const fs::path& path, const std::vector<Span>& spans,
                const std::vector<obs::TraceEvent>& events) {
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  for (const obs::TraceEvent& e : events) {
    out << "{\"program_span\": \"" << e.name << "\", \"tid\": " << e.tid
        << ", \"start_ns\": " << e.start_ns << ", \"end_ns\": " << e.end_ns
        << "}\n";
  }
}

// ---------------------------------------------------------------------
// Standalone layer probes and the eager oracle (traced run only).
// ---------------------------------------------------------------------

struct Probes {
  double expand_s = 0;
  uint64_t expand_nodes = 0;
  double db_enum_s = 0;
  std::vector<double> ltl_to_buchi_us;
  std::vector<double> slice_us;
  std::vector<double> cone_size;
  uint64_t oracle_checked = 0;
  uint64_t oracle_disagreements = 0;
};

Status RunProbes(const Workload& w, const std::vector<size_t>& used,
                 Tracer* tracer, Probes* out) {
  std::set<std::pair<const WebService*, const Instance*>> graphs;
  std::set<const WebService*> enumerations;
  std::set<const TemporalProperty*> properties;
  std::set<std::pair<const WebService*, const TemporalProperty*>> slices;
  for (size_t i : used) {
    const RequestDef& d = w.defs[i];
    if (d.kind != Kind::kVerify) continue;
    const bool first_graph = graphs.insert({d.service, d.database}).second;
    if (first_graph && d.database != nullptr) {
      // Configuration-graph expansion as the verifier sets it up for
      // this request, on the full (unsliced) spec.
      Scoped s(tracer, "probe.expand", 0);
      const uint64_t t0 = NowNs();
      Stepper stepper(d.service, d.database);
      stepper.SetTrackedPrev(TrackedPrevRelations(*d.service, *d.property));
      ConfigGraphOptions go = d.options.graph;
      go.constant_pool =
          ResolveConstantPool(*d.service, *d.property, *d.database, d.options);
      WSV_ASSIGN_OR_RETURN(ConfigGraph g, BuildConfigGraph(stepper, go));
      out->expand_s += static_cast<double>(NowNs() - t0) * 1e-9;
      out->expand_nodes += g.nodes.size();
    }
    if (d.database == nullptr && enumerations.insert(d.service).second) {
      {
        // Enumeration alone: the visitor does nothing and never stops it.
        Scoped s(tracer, "probe.db_enum", 0);
        const uint64_t t0 = NowNs();
        WSV_RETURN_IF_ERROR(
            EnumerateDatabases(*d.service, d.options.db,
                               [](const Instance&) -> StatusOr<bool> {
                                 return false;
                               })
                .status());
        out->db_enum_s += static_cast<double>(NowNs() - t0) * 1e-9;
      }
      if (first_graph) {
        Scoped s(tracer, "probe.expand", 0);
        std::vector<Instance> dbs;
        WSV_RETURN_IF_ERROR(
            EnumerateDatabases(*d.service, d.options.db,
                               [&](const Instance& db) -> StatusOr<bool> {
                                 dbs.push_back(db);
                                 return false;
                               })
                .status());
        const uint64_t t0 = NowNs();
        for (const Instance& db : dbs) {
          Stepper stepper(d.service, &db);
          stepper.SetTrackedPrev(TrackedPrevRelations(*d.service, *d.property));
          ConfigGraphOptions go = d.options.graph;
          go.constant_pool =
              ResolveConstantPool(*d.service, *d.property, db, d.options);
          WSV_ASSIGN_OR_RETURN(ConfigGraph g, BuildConfigGraph(stepper, go));
          out->expand_nodes += g.nodes.size();
        }
        out->expand_s += static_cast<double>(NowNs() - t0) * 1e-9;
      }
    }
    if (properties.insert(d.property).second) {
      Scoped s(tracer, "probe.ltl_to_buchi", 0);
      std::vector<double> reps;
      for (int r = 0; r < 31; ++r) {
        const uint64_t t0 = NowNs();
        TFormulaPtr negated =
            ToNegationNormalForm(*TFormula::Not(d.property->formula));
        WSV_ASSIGN_OR_RETURN(BuchiAutomaton gba, LtlToBuchi(*negated));
        reps.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      out->ltl_to_buchi_us.push_back(Median(reps));
    }
    if (slices.insert({d.service, d.property}).second) {
      Scoped s(tracer, "probe.slice", 0);
      std::vector<double> reps;
      uint64_t cone = 0;
      for (int r = 0; r < 31; ++r) {
        // The slicer's own cost: the dependence graph plus the cone slice.
        const uint64_t t0 = NowNs();
        analysis::DepGraph graph = analysis::DepGraph::Build(*d.service);
        analysis::SliceResult sliced =
            analysis::SlicePropertyCone(*d.service, *d.property);
        reps.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        cone = sliced.cone_relations;
      }
      out->slice_us.push_back(Median(reps));
      out->cone_size.push_back(static_cast<double>(cone));
    }
  }
  // The eager oracle: full configuration graph + SCC emptiness, a
  // different search path, once per distinct verifier request.
  std::set<size_t> distinct(used.begin(), used.end());
  for (size_t i : distinct) {
    const RequestDef& d = w.defs[i];
    if (d.kind != Kind::kVerify) continue;
    Scoped s(tracer, "oracle.eager", 0);
    LtlVerifyOptions options = d.options;
    options.force_eager = true;
    // Two workers keep the serial P4 oracle well inside the run's time
    // limit; the verdict does not depend on the job count.
    ParallelLtlVerifier verifier(d.service, options, std::max(d.jobs, 2));
    StatusOr<LtlVerifyResult> result =
        d.database != nullptr ? verifier.VerifyOnDatabase(*d.property, *d.database)
                              : verifier.Verify(*d.property);
    ++out->oracle_checked;
    if (!result.ok() || result->holds != d.expect_holds) {
      ++out->oracle_disagreements;
      std::fprintf(stderr, "ORACLE disagrees on %s: %s\n", d.id.c_str(),
                   result.ok() ? (result->holds ? "HOLDS" : "VIOLATED")
                               : result.status().ToString().c_str());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  fs::path inputs;
  fs::path state;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      a->trace = v == "1";
    } else if (arg == "--inputs") {
      a->inputs = v;
    } else if (arg == "--state") {
      a->state = v;
    } else {
      return false;
    }
  }
  return have_seed && !a->workload.empty() && !a->inputs.empty() &&
         !a->state.empty() && a->seconds > 0;
}

// Set-up: read the inputs, parse every distinct spec, database and
// property, and draw the request sequence. Repeated for at least
// kSetupMinSeconds, so that the median describes a running process rather
// than the first milliseconds after start, and outlasts a sub-second burst
// of host noise.
constexpr int kSetupMinReps = 51;
constexpr double kSetupMinSeconds = 1.0;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload {p4_sweep,login_enum,"
                 "replay_edits} --seed N --seconds S --trace 0|1 --inputs DIR "
                 "--state DIR\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.state, ec);

  std::vector<double> setup_s, parse_ms;
  std::unique_ptr<Workload> w;
  const uint64_t setup_start = NowNs();
  for (int rep = 0;
       rep < kSetupMinReps ||
       static_cast<double>(NowNs() - setup_start) * 1e-9 < kSetupMinSeconds;
       ++rep) {
    const uint64_t t0 = NowNs();
    auto fresh = std::make_unique<Workload>();
    Status st = BuildWorkload(args.workload, args.inputs, args.seed, fresh.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    parse_ms.push_back(static_cast<double>(fresh->parse_ns) * 1e-6);
    w = std::move(fresh);
  }

  Runner runner(w.get(), args.state);
  std::vector<Pass> passes;
  Tracer tracer;
  uint32_t main_tid = 0;
  std::vector<obs::TraceEvent> events;
  const uint64_t run_start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  // Closed loop. The traced run alternates untraced and traced passes,
  // so both see the same conditions; it needs at least one of each. The
  // program records its own spans only during traced passes.
  for (;;) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    if (traced) {
      obs::StartTracing();
      obs::RecordTraceEvent("e2ebench/main", NowNs(), NowNs());
    }
    StatusOr<Pass> p = RunPass(*w, &runner, traced ? &tracer : nullptr);
    if (traced) {
      obs::StopTracing();
      std::vector<obs::TraceEvent> window = obs::CollectTraceEvents();
      events.insert(events.end(), window.begin(), window.end());
    }
    if (!p.ok()) {
      std::fprintf(stderr, "pass failed: %s\n", p.status().ToString().c_str());
      return 1;
    }
    if (!traced) {
      for (Record& r : p->records) r.delta = obs::MetricsSnapshot();
    }
    passes.push_back(std::move(p).value());
    const bool enough = !args.trace || passes.size() >= 2;
    if (enough && NowNs() - run_start >= budget_ns &&
        (!args.trace || passes.size() % 2 == 0)) {
      break;
    }
  }
  int64_t fo_cache_bytes = 0;
  if (args.trace) {
    fo_cache_bytes =
        obs::SnapshotMetrics().GaugeValue("mem/fo_program_cache_bytes");
    for (const obs::TraceEvent& e : events) {
      if (e.name == "e2ebench/main") main_tid = e.tid;
    }
  }

  Determinism det =
      CheckDeterminism(*w, passes, args.seed, args.state, argv[0]);
  for (const std::string& n : det.notes) {
    std::fprintf(stderr, "COUNT MISMATCH %s\n", n.c_str());
  }
  PrintFailures(*w, passes);

  Latencies untraced = Collect(passes, /*traced=*/false);
  Latencies traced = Collect(passes, /*traced=*/true);
  uint64_t attempted = untraced.attempted + traced.attempted;
  uint64_t failed = untraced.failed + traced.failed;
  const double peak_rss_mb = PeakRssMb();

  std::printf("e2ebench %s seed=%" PRIu64 " passes=%zu requests/pass=%zu\n",
              w->name.c_str(), args.seed, passes.size(), w->pass.size());
  size_t untraced_passes = 0;
  for (const Pass& p : passes) untraced_passes += p.traced ? 0 : 1;
  // The end-to-end figures, always from untraced passes. fail_frac and the
  // latency figures a workload has no samples for are printed here only.
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"wall_s", PassSeconds(passes, false, LatencyOf), "s", untraced_passes},
      {"cpu_s", PassSeconds(passes, false, CpuOf), "s", untraced_passes},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"holds_p50_ms", Median(untraced.holds_ms), "ms",
       untraced.holds_ms.size()},
      {"request_p50_ms", Median(untraced.all_ms), "ms",
       untraced.all_ms.size()},
  };
  std::vector<Metric> extra;
  extra.push_back({"fail_frac",
                   untraced.attempted == 0
                       ? 0.0
                       : static_cast<double>(untraced.failed) /
                             static_cast<double>(untraced.attempted),
                   "ratio", untraced.attempted});
  if (!untraced.violated_ms.empty()) {
    extra.push_back({"violated_p50_ms", Median(untraced.violated_ms), "ms",
                     untraced.violated_ms.size()});
  }
  if (!untraced.hit_us.empty()) {
    extra.push_back({"hit_p50_us", Median(untraced.hit_us), "us",
                     untraced.hit_us.size()});
    extra.push_back({"hit_p99_us", Percentile(untraced.hit_samples_us, 0.99),
                     "us", untraced.hit_samples_us.size()});
  }
  PrintPerRequest(*w, passes);
  std::printf("end-to-end (untraced passes):\n");
  PrintMetrics(e2e);
  PrintMetrics(extra);

  bool correct = det.mismatches == 0;
  if (!args.trace) {
    std::printf("count determinism: %" PRIu64 " mismatches, %" PRIu64
                " early-exit drifts (not gated)\n",
                det.mismatches, det.early_exit_drift);
    correct = correct && failed == 0;
    PrintResult(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- traced run: per-layer figures from the traced passes ----------
  std::vector<size_t> used;
  std::vector<const Pass*> tpasses;
  std::map<uint64_t, const Record*> by_request;
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    tpasses.push_back(&p);
    for (const Record& r : p.records) {
      used.push_back(r.def);
      by_request[r.request_id] = &r;
    }
  }
  const double np = static_cast<double>(tpasses.size());

  obs::MetricsSnapshot sum;
  obs::HistogramSnapshot queue_latency;
  queue_latency.buckets.assign(obs::kHistogramBuckets, 0);
  double verify_cpu = 0, verify_wall = 0;
  std::vector<double> key_us, lookup_us, insert_ms, witness_ms, check_ms;
  uint64_t outcomes[4] = {0, 0, 0, 0};
  uint64_t repeats = 0, repeat_hits = 0;
  for (const Pass* p : tpasses) {
    std::set<size_t> seen;
    for (const Record& r : p->records) {
      for (const auto& [k, v] : r.delta.counters) sum.counters[k] += v;
      for (const auto& [k, h] : r.delta.histograms) {
        obs::HistogramSnapshot& acc = sum.histograms[k];
        acc.count += h.count;
        acc.sum += h.sum;
        if (k == "pool/queue_latency_ns") {
          queue_latency.count += h.count;
          queue_latency.sum += h.sum;
          for (size_t b = 0; b < h.buckets.size(); ++b) {
            queue_latency.buckets[b] += h.buckets[b];
          }
        }
      }
      verify_cpu += r.verify_cpu_s;
      verify_wall += r.verify_wall_s;
      if (r.counts.outcome >= 0) ++outcomes[r.counts.outcome];
      if (w->cached) {
        const bool repeat = !seen.insert(r.def).second;
        if (repeat) {
          ++repeats;
          if (r.served == Served::kCache) ++repeat_hits;
        }
      }
    }
  }
  for (const Span& s : tracer.spans()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    if (s.name == "cache.key") key_us.push_back(us);
    if (s.name == "cache.lookup") lookup_us.push_back(us);
    if (s.name == "cache.insert") insert_ms.push_back(us * 1e-3);
    if (s.name == "witness_check") witness_ms.push_back(us * 1e-3);
    if (s.name == "check_errors") check_ms.push_back(us * 1e-3);
  }

  Probes probes;
  Status pst = RunProbes(*w, used, &tracer, &probes);
  if (!pst.ok()) {
    std::fprintf(stderr, "probe failed: %s\n", pst.ToString().c_str());
    return 1;
  }
  attempted += probes.oracle_checked;
  failed += probes.oracle_disagreements;

  LayerTable layers = SelfTimes(tracer.spans(), events, main_tid, by_request);
  WriteSpans(args.state / ("spans-" + w->name + "-" +
                           std::to_string(args.seed) + ".jsonl"),
             tracer.spans(), events);

  auto per_pass = [&](const std::string& counter) {
    return static_cast<double>(sum.CounterValue(counter)) / np;
  };
  auto hist_s = [&](const std::string& name) {
    auto it = sum.histograms.find(name);
    return it == sum.histograms.end()
               ? 0.0
               : static_cast<double>(it->second.sum) * 1e-9 / np;
  };
  auto hist_mean_ms = [&](const std::string& name) {
    auto it = sum.histograms.find(name);
    return it == sum.histograms.end() || it->second.count == 0
               ? 0.0
               : it->second.Mean() * 1e-6;
  };
  auto hist_count = [&](const std::string& name) -> size_t {
    auto it = sum.histograms.find(name);
    return it == sum.histograms.end() ? 0 : it->second.count;
  };
  const double memo_lookups = per_pass("ltl/leaf_memo_hits") +
                              per_pass("ltl/leaf_memo_misses");

  std::vector<Metric> layer_metrics = {
      {"ltl.leaf_col_eval_s", hist_s("ltl/leaf_col_eval_ns"), "s",
       hist_count("ltl/leaf_col_eval_ns")},
      {"ltl.fo_leaf_evals", per_pass("ltl/fo_leaf_evals"), "count", 1},
      {"fo.bytecode_steps", per_pass("fo/bytecode_steps"), "count", 1},
      {"ltl.leaf_memo_hit_rate",
       memo_lookups == 0 ? 0.0 : per_pass("ltl/leaf_memo_hits") / memo_lookups,
       "ratio", static_cast<size_t>(memo_lookups)},
      {"ltl.leaf_memo_lookups", memo_lookups, "count", 1},
      {"ltl.valuations_checked", per_pass("ltl/valuations_checked"), "count",
       1},
      {"ltl.valuation_classes", per_pass("ltl/valuation_classes"), "count", 1},
      {"ltl.products_built", per_pass("ltl/products_built"), "count", 1},
      {"verify.expand_s", probes.expand_s, "s", 1},
      {"verify.expand_nodes_per_s",
       probes.expand_s == 0
           ? 0.0
           : static_cast<double>(probes.expand_nodes) / probes.expand_s,
       "1/s", 1},
      {"config_graph.nodes_expanded", per_pass("config_graph/nodes_expanded"),
       "count", 1},
      {"verify.db_enum_s", probes.db_enum_s, "s", 1},
      {"db_enum.instances_enumerated",
       per_pass("db_enum/instances_enumerated"), "count", 1},
      {"db_enum.symmetry_pruned", per_pass("db_enum/symmetry_pruned"), "count",
       1},
      {"automata.emptiness_s", hist_s("automata/emptiness_ns"), "s",
       hist_count("automata/emptiness_ns")},
      {"ltl.otf_states_created", per_pass("ltl/otf_states_created"), "count",
       1},
      {"ltl.product_states", per_pass("ltl/product_states"), "count", 1},
      {"automata.ltl_to_buchi_us", Median(probes.ltl_to_buchi_us), "us",
       probes.ltl_to_buchi_us.size()},
      {"analysis.slice_us", Median(probes.slice_us), "us",
       probes.slice_us.size()},
      {"analysis.cone_size", Median(probes.cone_size), "count",
       probes.cone_size.size()},
      {"verify.witness_check_ms", Median(witness_ms), "ms", witness_ms.size()},
      {"verify.check_errors_ms", Median(check_ms), "ms", check_ms.size()},
      {"verify.cpu_per_wall", verify_wall == 0 ? 0.0 : verify_cpu / verify_wall,
       "ratio", 1},
      {"pool.queue_latency_p50_us",
       static_cast<double>(queue_latency.Percentile(0.5)) * 1e-3, "us",
       queue_latency.count},
      {"verify.cancel_drain_ms", hist_mean_ms("verify/cancel_drain_ns"), "ms",
       hist_count("verify/cancel_drain_ns")},
      {"verify.time_to_first_cex_ms",
       hist_mean_ms("verify/time_to_first_cex_ns"), "ms",
       hist_count("verify/time_to_first_cex_ns")},
      {"cache.key_us", Median(key_us), "us", key_us.size()},
      {"cache.lookup_us", Median(lookup_us), "us", lookup_us.size()},
      {"cache.insert_ms", Median(insert_ms), "ms", insert_ms.size()},
      {"cache.repeat_hit_rate",
       repeats == 0 ? 0.0
                    : static_cast<double>(repeat_hits) /
                          static_cast<double>(repeats),
       "ratio", repeats},
      {"cache.repeats", static_cast<double>(repeats) / np, "count", 1},
      {"cache.hit", static_cast<double>(outcomes[0]) / np, "count", 1},
      {"cache.warm", static_cast<double>(outcomes[1]) / np, "count", 1},
      {"cache.miss", static_cast<double>(outcomes[2]) / np, "count", 1},
      {"cache.invalidated", static_cast<double>(outcomes[3]) / np, "count", 1},
      {"ws.parse_ms", Median(parse_ms), "ms", parse_ms.size()},
      {"mem.fo_program_cache_bytes", static_cast<double>(fo_cache_bytes),
       "bytes", 1},
      {"mem.verify_cache_bytes",
       static_cast<double>(runner.verify_cache_bytes()), "bytes", 1},
      {"e2e.violated_p50_ms", Median(untraced.violated_ms), "ms",
       untraced.violated_ms.size()},
      {"e2e.hit_p50_us", Median(untraced.hit_us), "us", untraced.hit_us.size()},
      {"e2e.hit_p99_us", Percentile(untraced.hit_samples_us, 0.99), "us",
       untraced.hit_samples_us.size()},
      {"trace.overhead_s",
       PassSeconds(passes, true, LatencyOf) -
           PassSeconds(passes, false, LatencyOf),
       "s", tpasses.size()},
  };
  for (const char* layer : kLayers) {
    layer_metrics.push_back({std::string("self.") + layer + "_s",
                             layers.self_s[layer] / np, "s", tpasses.size()});
  }
  layer_metrics.push_back(
      {"self.unattributed_s", layers.unattributed_s / np, "s", tpasses.size()});
  layer_metrics.push_back(
      {"self.unattributed_share",
       layers.total_s == 0 ? 0.0 : layers.unattributed_s / layers.total_s,
       "ratio", tpasses.size()});

  std::printf("per-layer (traced passes, per pass):\n");
  PrintMetrics(layer_metrics);
  std::printf("self time per pass (thread-seconds; %% of %.6f s):\n",
              layers.total_s / np);
  for (const char* layer : kLayers) {
    const double s = layers.self_s[layer] / np;
    std::printf("  %-16s %12.6f s %6.2f%%\n", layer, s,
                layers.total_s == 0 ? 0.0 : 100.0 * s * np / layers.total_s);
  }
  std::printf("  %-16s %12.6f s %6.2f%%\n", "unattributed",
              layers.unattributed_s / np,
              layers.total_s == 0
                  ? 0.0
                  : 100.0 * layers.unattributed_s / layers.total_s);
  std::printf("count determinism: %" PRIu64 " mismatches, %" PRIu64
              " early-exit drifts (not gated)\n",
              det.mismatches, det.early_exit_drift);
  std::printf("eager oracle: %" PRIu64 " requests re-verified, %" PRIu64
              " disagreements\n",
              probes.oracle_checked, probes.oracle_disagreements);

  correct = correct && failed == 0;
  PrintResult(correct, attempted, failed, layer_metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
