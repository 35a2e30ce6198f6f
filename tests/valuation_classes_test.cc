// Valuation equivalence-class collapsing (verify/ltl_verifier.cc).
//
// The sweep may skip the product build + emptiness run for a valuation
// whose FO leaves all resolve to previously seen truth columns — the
// products are identical, so the verdict is class-invariant. These
// tests pin the load-bearing properties: the collapsed sweep reports
// exactly the naive sweep's verdict and lowest-index counterexample on
// the gallery services (the naive sweep is a test oracle here: one
// CheckValuations call per valuation index), on both engines and at
// jobs 1 and 4, the class accounting adds up, shard splits at higher job
// counts keep the totals consistent, the per-leaf answer tables the
// columns are read from agree with per-valuation leaf evaluation, and
// the db_enum fresh-value symmetry pruning never drops an orbit.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "verify/db_enum.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

#if defined(WSV_OBS_DISABLED)
constexpr bool kInstrumented = false;
#else
constexpr bool kInstrumented = true;
#endif

struct SweepRun {
  bool holds = true;
  std::string cex;  // CounterExample::ToString(), empty when none
  std::optional<CounterExample> witness;
  uint64_t valuations = 0;
  uint64_t classes = 0;
  uint64_t class_hits = 0;
  uint64_t products_built = 0;
  uint64_t products_skipped = 0;
  uint64_t product_states = 0;
  uint64_t databases = 0;
};

// Copies the sweep counters recorded since the last obs::ResetMetrics.
void ReadSweepCounters(SweepRun* out) {
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  out->valuations = snap.CounterValue("ltl/valuations_checked");
  out->classes = snap.CounterValue("ltl/valuation_classes");
  out->class_hits = snap.CounterValue("ltl/class_hits");
  out->products_built = snap.CounterValue("ltl/products_built");
  out->products_skipped = snap.CounterValue("ltl/products_skipped");
  out->product_states = snap.CounterValue("ltl/product_states");
}

// Runs `prop` on one database (or over the enumeration when `db` is
// null) at the given job count and snapshots the sweep counters.
SweepRun RunSweep(const WebService& service, const LtlVerifyOptions& options,
             const std::string& prop, const Instance* db, int jobs) {
  auto p = ParseTemporalProperty(prop, &service.vocab());
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  obs::ResetMetrics();
  LtlVerifier verifier(&service, options, jobs);
  auto r = db ? verifier.VerifyOnDatabase(*p, *db) : verifier.Verify(*p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  SweepRun out;
  out.holds = r->holds;
  if (r->counterexample.has_value()) out.cex = r->counterexample->ToString();
  out.witness = r->counterexample;
  ReadSweepCounters(&out);
  out.databases = r->databases_checked;
  return out;
}

// The naive oracle: the Theorem 3.5 loop with no class collapse and no
// column sharing. It builds a fresh, unsliced LtlDatabaseCheck per
// database (every database of the enumeration when `db` is null, with
// the property's literals as base values, as LtlVerifier::Verify adds
// them) and sweeps each valuation index in its own
// CheckValuations(i, i + 1) call. Each call has its own memo and class
// table, so every valuation gets its own product and its own columns.
SweepRun NaiveSweep(const WebService& service, LtlVerifyOptions options,
                    const std::string& prop, const Instance* db) {
  SweepRun out;
  auto p = ParseTemporalProperty(prop, &service.vocab());
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  if (!p.ok()) return out;
  auto automaton =
      BuildNegatedAutomaton(service, *p, options.require_input_bounded);
  EXPECT_TRUE(automaton.ok()) << automaton.status().ToString();
  if (!automaton.ok()) return out;
  obs::ResetMetrics();
  auto check_database = [&](const Instance& instance) -> StatusOr<bool> {
    ++out.databases;
    WSV_ASSIGN_OR_RETURN(LtlDatabaseCheck check,
                         LtlDatabaseCheck::Create(&service, options, &*p,
                                                  &*automaton, instance));
    for (uint64_t i = 0; i < check.NumValuations(); ++i) {
      WSV_ASSIGN_OR_RETURN(std::optional<IndexedCounterExample> found,
                           check.CheckValuations(i, i + 1, nullptr, nullptr));
      if (found.has_value()) {
        out.holds = false;
        out.cex = found->cex.ToString();
        out.witness = std::move(found->cex);
        return true;
      }
    }
    return false;
  };
  StatusOr<bool> r = false;
  if (db != nullptr) {
    r = check_database(*db);
  } else {
    for (Value v : p->formula->Literals()) options.db.base_values.push_back(v);
    r = EnumerateDatabases(service, options.db, check_database);
  }
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  ReadSweepCounters(&out);
  return out;
}

// Collapsed and naive sweeps must agree on the verdict, on the
// lowest-index witness and on the databases visited; the collapsed run's
// class accounting must cover every checked valuation exactly once.
void ExpectCollapseTransparent(const SweepRun& collapsed,
                               const SweepRun& naive, int jobs) {
  EXPECT_EQ(collapsed.holds, naive.holds);
  EXPECT_EQ(collapsed.cex, naive.cex);
  EXPECT_EQ(collapsed.databases, naive.databases);
  // Above a violation, pooled workers may check a few valuations before
  // the cancellation reaches them, and a search cancelled mid-way counts
  // its class but builds no product.
  const bool exact = jobs == 1 || naive.holds;
  if (exact) {
    EXPECT_EQ(collapsed.valuations, naive.valuations);
  }
  if (!kInstrumented) return;
  EXPECT_EQ(collapsed.classes + collapsed.class_hits, collapsed.valuations);
  if (exact) {
    EXPECT_EQ(collapsed.products_built, collapsed.classes);
  } else {
    EXPECT_LE(collapsed.products_built, collapsed.classes);
  }
  EXPECT_EQ(collapsed.products_skipped, collapsed.class_hits);
  // The oracle makes every valuation a class of its own.
  EXPECT_EQ(naive.classes, naive.valuations);
  EXPECT_EQ(naive.products_built, naive.valuations);
  EXPECT_EQ(naive.class_hits, 0u);
}

struct NaiveComparison {
  SweepRun collapsed;  // on the fly, jobs 1
  SweepRun naive;      // on the fly
};

// Checks `prop` on both engines, each at jobs 1 and 4, against the
// naive oracle run on the same engine. The collapsed side runs unsliced,
// like the oracle, so that one sweep decides and the counts compare; the
// default sliced request must report the same verdict and witness.
NaiveComparison ExpectMatchesNaive(const WebService& service,
                                   const LtlVerifyOptions& options,
                                   const std::string& prop,
                                   const Instance* db) {
  NaiveComparison out;
  LtlVerifyOptions opts = options;
  opts.enable_slice = false;
  for (bool eager : {false, true}) {
    opts.force_eager = eager;
    SweepRun naive = NaiveSweep(service, opts, prop, db);
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(prop + (eager ? " (eager" : " (on the fly") +
                   ", jobs " + std::to_string(jobs) + ")");
      SweepRun collapsed = RunSweep(service, opts, prop, db, jobs);
      ExpectCollapseTransparent(collapsed, naive, jobs);
      if (!eager && jobs == 1) out.collapsed = std::move(collapsed);
    }
    if (!eager) out.naive = std::move(naive);
  }
  SweepRun sliced = RunSweep(service, options, prop, db, 1);
  EXPECT_EQ(sliced.holds, out.naive.holds) << prop;
  EXPECT_EQ(sliced.cex, out.naive.cex) << prop;
  return out;
}

// --- Gallery service 1: login. ------------------------------------------

class LoginCollapseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(LoginCollapseTest, ViolatedClosurePropertyMatchesNaive) {
  const std::string prop = "forall m . G(!error(m))";
  SweepRun collapsed =
      ExpectMatchesNaive(service_, options_, prop, &db_).collapsed;
  // The known witness: the faithfulness check must keep rejecting the
  // spurious pool valuations on cached violating classes too.
  ASSERT_FALSE(collapsed.holds);
  EXPECT_NE(collapsed.cex.find("m=failed login"), std::string::npos)
      << collapsed.cex;
}

TEST_F(LoginCollapseTest, HoldingClosurePropertyCollapses) {
  // Holds: errors range over messages, never over the pool values the
  // closure variable sweeps. Every valuation resolves to the same leaf
  // columns except the ones binding m to values a run can produce.
  const std::string prop = "forall m . G(!CP | logged_in)";
  SweepRun collapsed =
      ExpectMatchesNaive(service_, options_, prop, &db_).collapsed;
  EXPECT_TRUE(collapsed.holds);
  if (kInstrumented) {
    // The property ignores m entirely: one class regardless of the
    // candidate count.
    EXPECT_EQ(collapsed.classes, 1u);
    EXPECT_GT(collapsed.valuations, 1u);
  }
}

TEST_F(LoginCollapseTest, SpuriousClassHitsStayRejected) {
  // button(m) is false on every edge for all three candidates, so they
  // share one violating class. x1 and x2 occur in no run, database or
  // literal, so the class's lasso is spurious for them; only alice (in
  // the database) makes it a counterexample. x2 and alice are class
  // hits: this pins the faithfulness check on cached violating classes.
  options_.closure_candidates = {V("x1"), V("x2"), V("alice")};
  const std::string prop = "forall m . F(button(m))";
  SweepRun collapsed =
      ExpectMatchesNaive(service_, options_, prop, &db_).collapsed;
  ASSERT_FALSE(collapsed.holds);
  EXPECT_NE(collapsed.cex.find("m=alice"), std::string::npos)
      << collapsed.cex;
  if (kInstrumented) {
    EXPECT_EQ(collapsed.valuations, 3u);
    EXPECT_EQ(collapsed.classes, 1u);
  }
}

// --- Gallery service 2: e-commerce (the paper's running example). -------

TEST(EcommerceCollapseTest, PayBeforeShipMatchesNaive) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  const std::string prop =
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))";

  NaiveComparison runs = ExpectMatchesNaive(*ws, options, prop, &db);
  const SweepRun& collapsed = runs.collapsed;
  const SweepRun& naive = runs.naive;
  EXPECT_TRUE(collapsed.holds);
  if (kInstrumented) {
    // 9 valuations, but only the (p1, 100) binding ever flips a leaf:
    // the collapse is what the PR is for.
    EXPECT_EQ(collapsed.valuations, 9u);
    EXPECT_LT(collapsed.products_built, naive.products_built);
    EXPECT_LT(collapsed.product_states, naive.product_states);
  }
}

TEST(EcommerceCollapseTest, ViolatedEventualityMatchesNaive) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  const std::string prop = "G(!PIP) | F(PIP & F(CC))";

  SweepRun collapsed = ExpectMatchesNaive(*ws, options, prop, &db).collapsed;
  EXPECT_FALSE(collapsed.holds);
}

// --- Gallery service 3: the paper's clear-loop login variant. -----------

TEST(ClearLoopCollapseTest, ClosureSweepMatchesNaive) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  for (const char* prop : {"forall m . G(!error(m))", "G(!CP | logged_in)"}) {
    ExpectMatchesNaive(*ws, options, prop, &db);
  }
}

// --- jobs=1 vs jobs=4. --------------------------------------------------

TEST(CollapseJobsTest, EnumerationSweepCountersMatchAcrossJobs) {
  // On the database-enumeration path every task sweeps its database's
  // whole valuation range in one call, so the class tables see the same
  // index sets at any job count and even the products-built total is
  // exact — including the class accounting identity per side.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  const std::string prop = "G(!error(\"no such page\"))";

  SweepRun jobs1 = RunSweep(*ws, options, prop, nullptr, 1);
  SweepRun jobs4 = RunSweep(*ws, options, prop, nullptr, 4);
  EXPECT_EQ(jobs1.holds, jobs4.holds);
  EXPECT_TRUE(jobs1.holds);
  EXPECT_EQ(jobs1.databases, jobs4.databases);
  EXPECT_EQ(jobs1.valuations, jobs4.valuations);
  EXPECT_EQ(jobs1.classes, jobs4.classes);
  EXPECT_EQ(jobs1.class_hits, jobs4.class_hits);
  EXPECT_EQ(jobs1.products_built, jobs4.products_built);
  EXPECT_EQ(jobs1.product_states, jobs4.product_states);
  if (kInstrumented) {
    EXPECT_EQ(jobs4.classes + jobs4.class_hits, jobs4.valuations);
    EXPECT_GT(jobs1.valuations, 0u);
  }
  // The oracle enumerates the same databases; G(!CP) stops at the
  // first database that lets the user log in.
  ExpectMatchesNaive(*ws, options, prop, nullptr);
  ExpectMatchesNaive(*ws, options, "G(!CP)", nullptr);
}

TEST(CollapseJobsTest, ChunkedSweepVerdictAndAccountingMatchAcrossJobs) {
  // On the fixed-database path the range is sharded, each shard owning
  // a class table: the split of products across shards may differ from
  // the serial sweep (it can only grow), but verdict, witness, total
  // valuations, and the per-side accounting identity all hold.
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  const std::string prop =
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))";

  SweepRun jobs1 = RunSweep(*ws, options, prop, &db, 1);
  SweepRun jobs4 = RunSweep(*ws, options, prop, &db, 4);
  EXPECT_EQ(jobs1.holds, jobs4.holds);
  EXPECT_EQ(jobs1.cex, jobs4.cex);
  EXPECT_EQ(jobs1.valuations, jobs4.valuations);
  EXPECT_LE(jobs1.products_built, jobs4.products_built);
  if (kInstrumented) {
    EXPECT_EQ(jobs1.classes + jobs1.class_hits, jobs1.valuations);
    EXPECT_EQ(jobs4.classes + jobs4.class_hits, jobs4.valuations);
  }
}

// --- Answer tables vs the per-valuation oracle. -------------------------
//
// Both sweeps read leaf columns from per-leaf answer tables: one FO query
// per (leaf, edge[, extension set]) whose answer is the set of satisfying
// closure bindings. The oracle is the definition itself: EvalFoAtStep
// once per (valuation, edge, leaf) under the full valuation.

struct TableCase {
  const WebService* service = nullptr;
  const Instance* db = nullptr;
  LtlVerifyOptions options;
  std::string prop;
  // Which (valuation i, edge e, leaf) triples meet the oracle: all when
  // 1, else those with e % stride == 0 or (i + e) % stride == 0 — every
  // edge and every valuation, each several times — plus every table bit
  // that differs from the majority of its edge and leaf (the bits that
  // carry the valuation dependence).
  size_t stride = 1;
};

struct TableCheck {
  std::vector<FormulaPtr> leaves;
  std::vector<std::string> vars;
  std::vector<Value> cand;
  ConfigGraph graph;
  std::vector<std::vector<Bitset>> cols;  // [valuation][leaf]
  uint64_t pairs_checked = 0;
  uint64_t oracle_true = 0;
};

Valuation ValuationAt(const TableCheck& t, uint64_t i) {
  Valuation val;
  for (const std::string& var : t.vars) {
    val[var] = t.cand[i % t.cand.size()];
    i /= t.cand.size();
  }
  return val;
}

// The index of `val` in the sweep's odometer order.
uint64_t IndexOf(const TableCheck& t, const Valuation& val) {
  uint64_t index = 0;
  uint64_t place = 1;
  for (const std::string& var : t.vars) {
    size_t d = 0;
    while (d < t.cand.size() && t.cand[d] != val.at(var)) ++d;
    index += d * place;
    place *= t.cand.size();
  }
  return index;
}

void CheckTablesAgainstOracle(const TableCase& tc, TableCheck* out) {
  auto p = ParseTemporalProperty(tc.prop, &tc.service->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto automaton = BuildNegatedAutomaton(*tc.service, *p,
                                         tc.options.require_input_bounded);
  ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
  LtlVerifyOptions eager = tc.options;
  eager.force_eager = true;
  auto check =
      LtlDatabaseCheck::Create(tc.service, eager, &*p, &*automaton, *tc.db);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  auto cols = check->LeafColumns(0, check->NumValuations());
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  out->leaves = automaton->leaves;
  out->vars = p->universal_vars;
  out->cand = check->candidates();
  out->graph = check->eager_graph();
  out->cols = std::move(cols).value();
  const size_t num_edges = out->graph.edges.size();
  const size_t num_vals = out->cols.size();
  ASSERT_EQ(num_vals, check->NumValuations());
  ASSERT_GT(num_edges, 0u);

  std::vector<Valuation> vals;
  for (size_t i = 0; i < num_vals; ++i) vals.push_back(ValuationAt(*out, i));
  uint64_t mismatches = 0;
  std::string first;
  for (size_t e = 0; e < num_edges; ++e) {
    const TraceView view = out->graph.View(static_cast<int>(e));
    for (size_t k = 0; k < out->leaves.size(); ++k) {
      size_t ones = 0;
      for (size_t i = 0; i < num_vals; ++i) ones += out->cols[i][k].Test(e);
      const bool majority = 2 * ones > num_vals;
      for (size_t i = 0; i < num_vals; ++i) {
        const bool table = out->cols[i][k].Test(e);
        if (tc.stride > 1 && table == majority && e % tc.stride != 0 &&
            (i + e) % tc.stride != 0) {
          continue;
        }
        auto oracle = EvalFoAtStep(out->leaves[k], view, check->database(),
                                   *tc.service, vals[i]);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        ++out->pairs_checked;
        if (*oracle) ++out->oracle_true;
        if (*oracle != table && mismatches++ == 0) {
          first = "valuation " + std::to_string(i) + ", edge " +
                  std::to_string(e) + ", leaf " + out->leaves[k]->ToString() +
                  ": oracle " + (*oracle ? "true" : "false");
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << tc.prop << "\nfirst: " << first;
}

// The comparison is not vacuous: both truth values met the oracle.
void ExpectBothTruthValues(const std::vector<TableCheck>& checks) {
  uint64_t trues = 0;
  uint64_t pairs = 0;
  for (const TableCheck& t : checks) {
    trues += t.oracle_true;
    pairs += t.pairs_checked;
  }
  EXPECT_GT(trues, 0u);
  EXPECT_LT(trues, pairs);
}

// Runs both engines at jobs 1 and 4 (unsliced, so one sweep decides)
// and checks them against the tables: the eager sweep's classes are
// exactly the distinct column tuples among the valuations it swept, the
// on-the-fly sweep (which compares column prefixes) never has more;
// verdicts agree, both engines name the same valuation, every witness
// replays under the per-valuation semantics, and each engine's witness
// text is identical across job counts.
void ExpectEnginesMatchTables(const TableCase& tc, const TableCheck& t) {
  LtlVerifyOptions opts = tc.options;
  opts.enable_slice = false;
  auto p = ParseTemporalProperty(tc.prop, &tc.service->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  SweepRun runs[2];  // [on-the-fly, eager] at jobs 1
  for (int eager = 0; eager < 2; ++eager) {
    opts.force_eager = eager != 0;
    SweepRun serial = RunSweep(*tc.service, opts, tc.prop, tc.db, 1);
    SweepRun sharded = RunSweep(*tc.service, opts, tc.prop, tc.db, 4);
    EXPECT_EQ(serial.holds, sharded.holds) << tc.prop;
    EXPECT_EQ(serial.cex, sharded.cex) << tc.prop;
    if (serial.witness.has_value()) {
      Status replay = ValidateWitness(*tc.service, *p, *serial.witness);
      EXPECT_TRUE(replay.ok()) << tc.prop << ": " << replay.ToString();
    }
    runs[eager] = std::move(serial);
  }
  const SweepRun& otf = runs[0];
  const SweepRun& eager = runs[1];
  EXPECT_EQ(otf.holds, eager.holds) << tc.prop;
  ASSERT_EQ(otf.witness.has_value(), eager.witness.has_value()) << tc.prop;
  uint64_t swept = t.cols.size();
  if (eager.witness.has_value()) {
    EXPECT_EQ(otf.witness->valuation, eager.witness->valuation) << tc.prop;
    swept = IndexOf(t, eager.witness->valuation) + 1;
  }
  if (!kInstrumented) return;
  std::vector<const std::vector<Bitset>*> distinct;
  for (uint64_t i = 0; i < swept; ++i) {
    bool seen = false;
    for (const std::vector<Bitset>* d : distinct) seen |= *d == t.cols[i];
    if (!seen) distinct.push_back(&t.cols[i]);
  }
  EXPECT_EQ(eager.valuations, swept) << tc.prop;
  EXPECT_EQ(eager.classes, distinct.size()) << tc.prop;
  EXPECT_LE(otf.classes, eager.classes) << tc.prop;
}

TEST(AnswerTableTest, Property4FullPoolMatchesOracle) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  TableCase tc;
  tc.service = &*ws;
  tc.db = &db;
  tc.options.graph.constant_pool = {V("alice"), V("pw")};
  tc.options.require_input_bounded = false;
  tc.prop =
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))";
  tc.stride = 400;
  TableCheck t;
  CheckTablesAgainstOracle(tc, &t);
  if (HasFatalFailure()) return;
  ExpectBothTruthValues({t});
  // No closure_candidates restriction: the default 36-value pool.
  EXPECT_EQ(t.cand.size(), 36u);
  EXPECT_EQ(t.cols.size(), 1296u);
  ExpectEnginesMatchTables(tc, t);

  // At the defaults (sliced, on-the-fly, jobs 1) the sweep's work counts
  // stay what per-valuation evaluation gave: 1296 valuations, 2 classes.
  SweepRun cli = RunSweep(*ws, tc.options, tc.prop, &db, 1);
  EXPECT_TRUE(cli.holds);
  if (kInstrumented) {
    EXPECT_EQ(cli.valuations, 1296u);
    EXPECT_EQ(cli.classes, 2u);
    EXPECT_EQ(cli.products_built, 2u);
    EXPECT_EQ(cli.product_states, 2320u);
  }
}

class AnswerTableLoginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
  }

  TableCase Case(const std::string& prop) {
    TableCase tc;
    tc.service = &service_;
    tc.db = &db_;
    tc.options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
    tc.options.require_input_bounded = false;
    tc.prop = prop;
    return tc;
  }

  WebService service_;
  Instance db_;
};

TEST_F(AnswerTableLoginTest, ClosurePropertiesMatchOracle) {
  std::vector<TableCheck> checks;
  for (const char* prop : {"forall m . G(!error(m))",
                           "forall m . G(!(logged_in & error(m)))"}) {
    TableCase tc = Case(prop);
    TableCheck& t = checks.emplace_back();
    CheckTablesAgainstOracle(tc, &t);
    if (HasFatalFailure()) return;
    ExpectEnginesMatchTables(tc, t);
  }
  ExpectBothTruthValues(checks);
}

TEST_F(AnswerTableLoginTest, PrevAtomsMatchOracle) {
  std::vector<TableCheck> checks;
  for (const char* prop : {"forall m . G(!(prev.button(m) & error(m)))",
                           "forall m . G(prev.button(m) | !button(m))"}) {
    TableCase tc = Case(prop);
    TableCheck& t = checks.emplace_back();
    CheckTablesAgainstOracle(tc, &t);
    if (HasFatalFailure()) return;
    ExpectEnginesMatchTables(tc, t);
  }
  ExpectBothTruthValues(checks);
}

// Login with the password requested on a second page, so the first
// step's edges have `password` outside kappa.
const char kLatePasswordSpec[] = R"(service LatePassword;

database user(uname, upass);
state error(msg);
input name const;
input password const;
input button(label);

page HP {
  input name;
  options button(x) :- x = "next" | x = "quit";
  target PW :- button("next");
  target BYE :- button("quit") | !(exists x . button(x) & true);
}

page PW {
  input password;
  options button(x) :- x = "login";
  state +error("failed login") :- !user(name, password) & button("login");
  target CP :- user(name, password) & button("login");
  target BYE :- !user(name, password) | !(exists x . button(x) & true);
}

page CP {
  options button(x) :- x = "logout";
  target BYE :- button("logout");
}

page BYE {
}

home HP;
error ERR;
)";

TEST(AnswerTableTest, InputConstantNotYetProvided) {
  // The leaf !user(m, password) is negated — its table stores the
  // answers of user(m, password) and complements them — and mentions
  // the input constant `password`: on edges where it is not yet in
  // kappa, condition (a) makes the leaf false for every binding,
  // complement or not.
  auto ws = ParseServiceSpec(kLatePasswordSpec);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  auto db = ParseDataFile("user(alice, pw).", &ws->vocab());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TableCase tc;
  tc.service = &*ws;
  tc.db = &*db;
  tc.options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  tc.options.require_input_bounded = false;
  tc.prop = "forall m . F(user(m, password))";
  TableCheck t;
  CheckTablesAgainstOracle(tc, &t);
  if (HasFatalFailure()) return;
  ASSERT_EQ(t.leaves.size(), 1u);
  ExpectBothTruthValues({t});
  size_t unprovided = 0;
  for (size_t e = 0; e < t.graph.edges.size(); ++e) {
    if (t.graph.View(static_cast<int>(e)).kappa->count("password") > 0) {
      continue;
    }
    ++unprovided;
    for (const std::vector<Bitset>& cols : t.cols) {
      EXPECT_FALSE(cols[0].Test(e)) << "edge " << e;
    }
  }
  EXPECT_GT(unprovided, 0u);
  ExpectEnginesMatchTables(tc, t);
}

TEST_F(AnswerTableLoginTest, ExtensionSetMatters) {
  // A quantified leaf over m whose truth also depends on n: binding n to
  // a candidate outside the database and the leaf's literals ("u0", the
  // error message, the button labels) adds it to the active domain the
  // forall ranges over. Its answer table is therefore per extension set.
  TableCase tc = Case(
      "forall m, n . G(!(forall x . (x = m | error(x) | button(x) | "
      "exists y . (user(x, y) | user(y, x))))) | F(error(n))");
  TableCheck t;
  CheckTablesAgainstOracle(tc, &t);
  if (HasFatalFailure()) return;
  ExpectBothTruthValues({t});
  size_t quantified = t.leaves.size();
  for (size_t k = 0; k < t.leaves.size(); ++k) {
    if (!t.leaves[k]->IsQuantifierFree()) quantified = k;
  }
  ASSERT_LT(quantified, t.leaves.size());
  // Same m (the leaf's only variable), different n, different column.
  bool differs = false;
  const size_t c = t.cand.size();
  for (size_t i = 0; i < t.cols.size() && !differs; ++i) {
    for (size_t j = i % c; j < t.cols.size() && !differs; j += c) {
      differs = t.cols[i][quantified] != t.cols[j][quantified];
    }
  }
  EXPECT_TRUE(differs);
  ExpectEnginesMatchTables(tc, t);
}

TEST(AnswerTableTest, NegatedHeadsMatchOracle) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  // The leaf pick(pid, price) & pid != price scans both heads;
  // !pick(pid, price) does not, and is answered through its negation.
  std::vector<TableCheck> checks;
  for (const char* prop :
       {"forall pid, price . G(!pick(pid, price) | pid = price)",
        "forall pid, price . F(pick(pid, price))"}) {
    TableCase tc;
    tc.service = &*ws;
    tc.db = &db;
    tc.options.graph.constant_pool = {V("alice"), V("pw")};
    tc.options.require_input_bounded = false;
    // "u0" is outside the database and every literal.
    tc.options.closure_candidates = {V("p1"), V("100"), V("alice"), V("u0")};
    tc.prop = prop;
    tc.stride = 16;
    TableCheck& t = checks.emplace_back();
    CheckTablesAgainstOracle(tc, &t);
    if (HasFatalFailure()) return;
    ExpectEnginesMatchTables(tc, t);
  }
  ExpectBothTruthValues(checks);
}

TEST_F(AnswerTableLoginTest, UnguardedHeadsMatchOracle) {
  // m != n | error(m): neither the leaf nor its negation m = n & !error(m)
  // binds both heads by a scan, so the query enumerates them over the
  // domain — which holds every candidate, pool values included.
  TableCase tc = Case("forall m, n . F(m = n & !error(m))");
  TableCheck t;
  CheckTablesAgainstOracle(tc, &t);
  if (HasFatalFailure()) return;
  ExpectBothTruthValues({t});
  ExpectEnginesMatchTables(tc, t);
}

// --- db_enum fresh-value symmetry pruning. ------------------------------

// Applies a permutation of the fresh values to an instance (the test's
// own relabeling, independent of the enumerator's).
Instance Relabel(const Instance& in, const std::map<Value, Value>& pi) {
  auto map_value = [&](Value v) {
    auto it = pi.find(v);
    return it == pi.end() ? v : it->second;
  };
  Instance out;
  for (Value v : in.domain()) out.AddDomainValue(v);
  for (const auto& [name, rel] : in.relations()) {
    (void)out.EnsureRelation(name, rel.arity());
    for (const Tuple& t : rel.tuples()) {
      Tuple mapped = t;
      for (Value& v : mapped) v = map_value(v);
      out.MutableRelation(name)->Insert(mapped);
    }
  }
  for (const auto& [name, v] : in.constants()) {
    out.SetConstant(name, map_value(v));
  }
  return out;
}

TEST(DbEnumSymmetryTest, VisitsOneRepresentativePerOrbit) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  DbEnumOptions options;
  options.fresh_values = 2;
  options.max_tuples_per_relation = 1;

  obs::ResetMetrics();
  std::vector<Instance> visited;
  auto r = EnumerateDatabases(*ws, options,
                              [&](const Instance& db) -> StatusOr<bool> {
                                visited.push_back(db);
                                return false;
                              });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(visited.empty());
  if (kInstrumented) {
    EXPECT_GT(obs::SnapshotMetrics().CounterValue("db_enum/symmetry_pruned"),
              0u);
  }

  // No two visited instances are related by the d0<->d1 swap, and the
  // visited set is closed under canonicalization: each instance's swap
  // image is either itself or absent.
  const std::map<Value, Value> swap = {{V("d0"), V("d1")},
                                       {V("d1"), V("d0")}};
  std::set<std::string> seen;
  for (const Instance& db : visited) seen.insert(db.ToString());
  EXPECT_EQ(seen.size(), visited.size());  // no duplicates either
  for (const Instance& db : visited) {
    Instance swapped = Relabel(db, swap);
    if (swapped == db) continue;
    EXPECT_EQ(seen.count(swapped.ToString()), 0u)
        << "isomorphic pair visited:\n"
        << db.ToString();
  }
}

TEST(DbEnumSymmetryTest, VerdictsUnchangedByPruning) {
  // Soundness smoke test: with two interchangeable fresh values the
  // pruned enumeration must still decide both a holding and a violated
  // property exactly as before, at any job count.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};

  SweepRun holding1 = RunSweep(*ws, options, "G(!error(\"no such page\"))",
                          nullptr, 1);
  SweepRun holding4 = RunSweep(*ws, options, "G(!error(\"no such page\"))",
                          nullptr, 4);
  EXPECT_TRUE(holding1.holds);
  EXPECT_TRUE(holding4.holds);
  EXPECT_EQ(holding1.databases, holding4.databases);

  SweepRun violated1 = RunSweep(*ws, options, "G(!CP)", nullptr, 1);
  SweepRun violated4 = RunSweep(*ws, options, "G(!CP)", nullptr, 4);
  EXPECT_FALSE(violated1.holds);
  EXPECT_FALSE(violated4.holds);
  EXPECT_EQ(violated1.cex, violated4.cex);
  EXPECT_EQ(violated1.databases, violated4.databases);
}

}  // namespace
}  // namespace wsv
