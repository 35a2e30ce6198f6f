// On-the-fly vs eager pipeline equivalence, witness validation, and
// determinism (`ctest -L otf`).
//
// The on-the-fly nested-DFS path is the default; the eager pipeline
// (full configuration graph + full product + SCC emptiness) is the
// oracle it is checked against, per property:
//   - identical verdicts on the gallery services and on seeded random
//     formulas over the login, paper clear-loop and catalog-search
//     services, where the jobs=2 sharded engine must also reproduce the
//     serial witness byte for byte,
//   - every VIOLATED verdict yields a witness that survives the
//     standalone replay validator,
//   - lowest-valuation-index witness selection is deterministic, and
//     the `force_eager` option matches the WSV_DISABLE_ONTHEFLY toggle.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// Forces the eager pipeline via the environment for one scope, the way
// `WSV_DISABLE_ONTHEFLY=1 wsvcli verify` would.
struct ScopedDisableOtf {
  ScopedDisableOtf() { setenv("WSV_DISABLE_ONTHEFLY", "1", 1); }
  ~ScopedDisableOtf() { unsetenv("WSV_DISABLE_ONTHEFLY"); }
};

// Runs one (service, property, database) through both pipelines and
// requires verdict agreement. On VIOLATED both must pick the witness at
// the same (lowest) valuation index, and the on-the-fly witness must
// survive the independent replay validator. The lasso itself may differ
// between pipelines (different emptiness searches), so only the
// valuation is compared across them.
void ExpectEquivalent(const WebService& service,
                      const TemporalProperty& property, const Instance& db,
                      LtlVerifyOptions options, const std::string& what) {
  options.force_eager = false;
  auto r_otf = LtlVerifier(&service, options).VerifyOnDatabase(property, db);
  options.force_eager = true;
  auto r_eager = LtlVerifier(&service, options).VerifyOnDatabase(property, db);
  ASSERT_EQ(r_otf.ok(), r_eager.ok())
      << what << ": otf=" << r_otf.status().ToString()
      << " eager=" << r_eager.status().ToString();
  if (!r_otf.ok()) return;
  EXPECT_EQ(r_otf->holds, r_eager->holds) << what;
  EXPECT_EQ(r_otf->complete_within_bounds, r_eager->complete_within_bounds)
      << what;
  if (r_otf->holds || r_otf->holds != r_eager->holds) return;
  ASSERT_TRUE(r_otf->counterexample.has_value()) << what;
  ASSERT_TRUE(r_eager->counterexample.has_value()) << what;
  EXPECT_EQ(r_otf->counterexample->valuation, r_eager->counterexample->valuation)
      << what;
  Status otf_witness = ValidateWitness(service, property, *r_otf->counterexample);
  EXPECT_TRUE(otf_witness.ok()) << what << ": " << otf_witness.ToString();
  Status eager_witness =
      ValidateWitness(service, property, *r_eager->counterexample);
  EXPECT_TRUE(eager_witness.ok()) << what << ": " << eager_witness.ToString();
}

// ExpectEquivalent, plus the sharded engine at jobs=2 (where chunks
// race and cancel each other) against the serial on-the-fly run:
// verdict, completeness and witness text must be identical.
void ExpectEnginesAgree(const WebService& service,
                        const TemporalProperty& property, const Instance& db,
                        const LtlVerifyOptions& options,
                        const std::string& what) {
  ExpectEquivalent(service, property, db, options, what);
  auto r_serial = LtlVerifier(&service, options).VerifyOnDatabase(property, db);
  LtlVerifier parallel(&service, options, /*jobs=*/2);
  auto r_parallel = parallel.VerifyOnDatabase(property, db);
  ASSERT_EQ(r_serial.ok(), r_parallel.ok())
      << what << ": serial=" << r_serial.status().ToString()
      << " jobs=2=" << r_parallel.status().ToString();
  if (!r_serial.ok()) return;
  EXPECT_EQ(r_parallel->holds, r_serial->holds) << what;
  EXPECT_EQ(r_parallel->complete_within_bounds,
            r_serial->complete_within_bounds)
      << what;
  ASSERT_EQ(r_parallel->counterexample.has_value(),
            r_serial->counterexample.has_value())
      << what;
  if (!r_serial->counterexample.has_value()) return;
  EXPECT_EQ(r_parallel->counterexample->ToString(),
            r_serial->counterexample->ToString())
      << what;
}

// Seeded formula fuzzing (no wall-clock APIs, so a failing formula
// reproduces from its seed): the eager, serial on-the-fly and jobs=2
// engines must agree on `count` random formulas of depth <= 3 over
// `atoms`, and every violation witness must replay.
void FuzzService(const WebService& service, const Instance& db,
                 const LtlVerifyOptions& options, uint32_t seed, int count,
                 const std::vector<const char*>& atoms) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  // NOLINTNEXTLINE(misc-no-recursion)
  auto gen = [&](auto&& self, int depth) -> std::string {
    if (depth == 0 || pick(4) == 0) {
      return atoms[static_cast<size_t>(pick(static_cast<int>(atoms.size())))];
    }
    switch (pick(6)) {
      case 0:
        return "!(" + self(self, depth - 1) + ")";
      case 1:
        return "G(" + self(self, depth - 1) + ")";
      case 2:
        return "F(" + self(self, depth - 1) + ")";
      case 3:
        return "X(" + self(self, depth - 1) + ")";
      case 4:
        return "(" + self(self, depth - 1) + " & " + self(self, depth - 1) +
               ")";
      default:
        return "(" + self(self, depth - 1) + " | " + self(self, depth - 1) +
               ")";
    }
  };
  for (int i = 0; i < count; ++i) {
    const std::string formula = gen(gen, 3);
    SCOPED_TRACE("seed formula #" + std::to_string(i) + ": " + formula);
    auto p = ParseTemporalProperty(formula, &service.vocab());
    ASSERT_TRUE(p.ok()) << formula << ": " << p.status().ToString();
    ExpectEnginesAgree(service, *p, db, options, formula);
  }
}

class LoginOtfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  }

  void CheckProperty(const std::string& prop) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    ASSERT_TRUE(p.ok()) << prop << ": " << p.status().ToString();
    ExpectEquivalent(service_, *p, db_, options_, prop);
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(LoginOtfTest, GalleryPropertiesAgree) {
  // The verify_test fixtures: a mix of HOLDS, VIOLATED, and
  // universally-closed properties.
  CheckProperty("G(!CP | logged_in)");
  CheckProperty("G(!(logged_in & error(\"failed login\")))");
  CheckProperty("G(!MP)");
  CheckProperty("forall m . G(!error(m))");
  CheckProperty("G(!CP) | F(CP & F(BYE))");
  CheckProperty("F(BYE)");
}

TEST_F(LoginOtfTest, SeededRandomFormulasAgree) {
  // Atoms cover pages, a state proposition, and an FO leaf.
  FuzzService(service_, db_, options_, 20260806u, 40,
              {"HP", "MP", "CP", "BYE", "logged_in",
               "error(\"failed login\")"});
}

TEST_F(LoginOtfTest, OnTheFlyWitnessIsDeterministic) {
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &service_.vocab());
  ASSERT_TRUE(p.ok());
  LtlVerifier verifier(&service_, options_);
  auto r1 = verifier.VerifyOnDatabase(*p, db_);
  auto r2 = verifier.VerifyOnDatabase(*p, db_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_FALSE(r1->holds);
  ASSERT_TRUE(r1->counterexample.has_value() &&
              r2->counterexample.has_value());
  EXPECT_EQ(r1->counterexample->ToString(), r2->counterexample->ToString());
}

TEST_F(LoginOtfTest, ForceEagerMatchesEnvironmentToggle) {
  // `--eager` (the option) and WSV_DISABLE_ONTHEFLY=1 (the environment
  // oracle switch) must select the same pipeline: identical witnesses,
  // byte for byte.
  auto p = ParseTemporalProperty("G(!MP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  LtlVerifyOptions options = options_;
  options.force_eager = true;
  auto r_flag = LtlVerifier(&service_, options).VerifyOnDatabase(*p, db_);
  std::string env_cex;
  {
    ScopedDisableOtf disable;
    auto r_env = LtlVerifier(&service_, options_).VerifyOnDatabase(*p, db_);
    ASSERT_TRUE(r_env.ok());
    ASSERT_TRUE(r_env->counterexample.has_value());
    env_cex = r_env->counterexample->ToString();
  }
  ASSERT_TRUE(r_flag.ok());
  ASSERT_TRUE(r_flag->counterexample.has_value());
  EXPECT_EQ(r_flag->counterexample->ToString(), env_cex);
}

TEST_F(LoginOtfTest, ParallelJobsAgreeWithSerial) {
  // The sharded sweep runs an independent on-the-fly search per chunk;
  // lowest-index witness selection must make jobs irrelevant.
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &service_.vocab());
  ASSERT_TRUE(p.ok());
  std::string cex1, cex4;
  {
    LtlVerifier verifier(&service_, options_, /*jobs=*/1);
    auto r = verifier.VerifyOnDatabase(*p, db_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(r->counterexample.has_value());
    Status w = ValidateWitness(service_, *p, *r->counterexample);
    EXPECT_TRUE(w.ok()) << w.ToString();
    cex1 = r->counterexample->ToString();
  }
  {
    LtlVerifier verifier(&service_, options_, /*jobs=*/4);
    auto r = verifier.VerifyOnDatabase(*p, db_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(r->counterexample.has_value());
    cex4 = r->counterexample->ToString();
  }
  EXPECT_EQ(cex1, cex4);
}

// --- the lasso search fuzzed over more gallery services -----------------

TEST(StrategyFuzz, LoginRandomFormulasAgree) {
  // A second login seed, independent of LoginOtfTest's.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  FuzzService(*ws, LoginDatabase(), options, 20260809u, 20,
              {"HP", "MP", "CP", "BYE", "logged_in",
               "error(\"failed login\")"});
}

TEST(StrategyFuzz, PaperClearLoopRandomFormulasAgree) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  FuzzService(*ws, LoginDatabase(), options, 20260810u, 10,
              {"HP", "MP", "CP", "logged_in", "error(\"failed login\")"});
}

TEST(StrategyFuzz, CatalogSearchRandomFormulasAgree) {
  auto ws = BuildInputDrivenSearchService(CatalogSearchSpec());
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  FuzzService(*ws, CatalogSearchDatabase(), options, 20260811u, 10,
              {"Browse", "ERR", "new_sel", "I(\"products\")", "I(\"d1\")"});
}

// --- the paper's running example -------------------------------------

class EcommerceOtfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildEcommerceService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = EcommerceSmallDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw")};
    options_.require_input_bounded = false;
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(EcommerceOtfTest, Property1ViolatedIdentically) {
  // Paper Property 1 (eventuality not enforced): the flagship early-exit
  // case — the on-the-fly search finds the lasso in ~100 product states
  // where the eager pipeline builds 159k.
  auto p = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))",
                                 &service_.vocab());
  ASSERT_TRUE(p.ok());
  ExpectEquivalent(service_, *p, db_, options_, "property 1");
}

TEST_F(EcommerceOtfTest, Property4HoldsIdentically) {
  // Paper Property 4 (pay-before-ship): HOLDS, so the on-the-fly search
  // must sweep every valuation to the end and still agree.
  LtlVerifyOptions options = options_;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  auto p = ParseTemporalProperty(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      &service_.vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectEquivalent(service_, *p, db_, options, "property 4");
}

// Two anchors (also checked pairwise above) across all three engines:
// eager, serial on-the-fly and jobs=2, with witness replay.

TEST(StrategyEcommerce, Property1AgreesAcrossStrategies) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  auto p = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))", &ws->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectEnginesAgree(*ws, *p, EcommerceSmallDatabase(), options,
                     "ecommerce property 1");
}

TEST(StrategyEcommerce, QuantifiedClosureAgreesAcrossStrategies) {
  // A universal closure: the witness valuation is the lowest violating
  // index, whichever engine sweeps the valuations.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectEnginesAgree(*ws, *p, LoginDatabase(), options, "login quantified");
}

// --- witness validator negatives --------------------------------------

class WitnessTamperTest : public LoginOtfTest {
 protected:
  CounterExample GenuineCex(const std::string& prop, TemporalProperty* out) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    EXPECT_TRUE(p.ok());
    *out = *p;
    auto r = LtlVerifier(&service_, options_).VerifyOnDatabase(*p, db_);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->holds);
    return *r->counterexample;
  }
};

TEST_F(WitnessTamperTest, RejectsEmptyRun) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  cex.run.steps.clear();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsOutOfRangeLoopStart) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  cex.run.loop_start = cex.run.steps.size();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsForgedPage) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  // Rename the violating page: the claimed run no longer replays.
  for (auto& step : cex.run.steps) {
    if (step.page == "MP") step.page = "CP";
  }
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsUnboundValuation) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("forall m . G(!error(m))", &p);
  cex.valuation.clear();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsNonViolatingValuation) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("forall m . G(!error(m))", &p);
  // The run is legal but under this binding the formula is satisfied,
  // so the witness claims a violation it does not exhibit.
  cex.valuation["m"] = V("not an error message");
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

}  // namespace
}  // namespace wsv
