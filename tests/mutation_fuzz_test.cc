// Spec-mutation fuzz: deterministic byte and token mutations of the
// gallery specifications and databases in specs/, each pushed through the
// whole front of the tool — lint, parse, classify, data parse, property
// parse — and then verified at tight bounds. The only outcomes allowed
// are OK and an error Status: no crash, no hang, and (in the
// -DWSV_SANITIZE=address build, `ctest -L asan`) no sanitizer report. A
// VIOLATED verdict must also replay through the witness checker.
//
// The seeds are fixed, so a failure reproduces by case number: rerun
// with --gtest_filter='MutationFuzz.*' and read the case printed with the
// failure.

#include <cctype>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lints.h"
#include "ltl/ltl_parser.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/classify.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

std::string ReadSpecFile(const std::string& name) {
  std::ifstream in(std::string(WSV_SPECS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot read specs/" << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One gallery request: a service, a database for it, the property the
// verifier checks, and the input-constant pool.
struct Seed {
  std::string spec;
  std::string data;
  std::string property;
  std::vector<std::string> pool;
};

std::vector<Seed> GallerySeeds() {
  return {
      {ReadSpecFile("login.wsv"), ReadSpecFile("login.wsd"),
       "forall m . G(!error(m))", {"alice", "pw", "u0"}},
      {ReadSpecFile("ecommerce.wsv"), ReadSpecFile("ecommerce_small.wsd"),
       "G(!PIP) | F(PIP & F(CC))", {"alice", "pw"}},
  };
}

// Splits text into tokens: identifier/number runs, quoted strings, and
// single punctuation characters. Whitespace is not a token; each token
// records its byte span so mutations can edit the original text.
struct Token {
  size_t begin = 0;
  size_t end = 0;
};

std::vector<Token> Tokenize(const std::string& s) {
  auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::vector<Token> out;
  size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    if (word(c)) {
      while (j < s.size() && word(s[j])) ++j;
    } else if (c == '"') {
      while (j < s.size() && s[j] != '"') ++j;
      if (j < s.size()) ++j;
    }
    out.push_back({i, j});
    i = j;
  }
  return out;
}

// A token's kind: 0 word (identifier or number), 1 quoted string,
// 2 punctuation.
int KindOf(const std::string& s, const Token& t) {
  const char c = s[t.begin];
  if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') return 0;
  return c == '"' ? 1 : 2;
}

// Bytes worth inserting: the DSL's punctuation, letters, digits,
// whitespace, and a few bytes no spec contains.
constexpr char kAlphabet[] =
    "(){};,.:-=!&|\"+#_ \nabcxyzHPCP019\t\x01\x7f\xff";

// Applies one random byte or token mutation to `s`.
void MutateOnce(std::mt19937_64& rng, std::string* s) {
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  const std::vector<Token> tokens = Tokenize(*s);
  const size_t op = pick(8);
  if (s->empty() || (op >= 4 && tokens.size() < 2)) {
    s->push_back(kAlphabet[pick(sizeof(kAlphabet) - 1)]);
    return;
  }
  auto text_of = [&](const Token& t) {
    return s->substr(t.begin, t.end - t.begin);
  };
  switch (op) {
    case 0: {  // delete 1-4 bytes
      const size_t at = pick(s->size());
      s->erase(at, 1 + pick(4));
      break;
    }
    case 1:  // insert a byte
      s->insert(s->begin() + static_cast<std::ptrdiff_t>(pick(s->size() + 1)),
                kAlphabet[pick(sizeof(kAlphabet) - 1)]);
      break;
    case 2:  // overwrite a byte
      (*s)[pick(s->size())] = kAlphabet[pick(sizeof(kAlphabet) - 1)];
      break;
    case 3: {  // duplicate a short byte range in place
      const size_t at = pick(s->size());
      s->insert(at, s->substr(at, 1 + pick(8)));
      break;
    }
    case 4: {  // delete a token
      const Token t = tokens[pick(tokens.size())];
      s->erase(t.begin, t.end - t.begin);
      break;
    }
    case 5: {  // duplicate a token
      const Token t = tokens[pick(tokens.size())];
      s->insert(t.end, " " + text_of(t));
      break;
    }
    case 6: {  // replace a token by another of the same kind in the text
      const Token t = tokens[pick(tokens.size())];
      std::vector<std::string> same_kind;
      for (const Token& u : tokens) {
        if (KindOf(*s, u) == KindOf(*s, t)) same_kind.push_back(text_of(u));
      }
      s->replace(t.begin, t.end - t.begin, same_kind[pick(same_kind.size())]);
      break;
    }
    default: {  // swap two tokens
      Token a = tokens[pick(tokens.size())];
      Token b = tokens[pick(tokens.size())];
      if (a.begin > b.begin) std::swap(a, b);
      if (a.end > b.begin) break;  // same token
      const std::string ta = text_of(a);
      const std::string tb = text_of(b);
      s->replace(b.begin, b.end - b.begin, ta);
      s->replace(a.begin, a.end - a.begin, tb);
      break;
    }
  }
}

// How far one input got. Every stage either succeeds or returns an error
// Status; the test only counts them, so the fuzz is not vacuous.
struct Reached {
  bool parsed = false;
  bool verified = false;
};

// parse -> lint -> classify -> verify at tight bounds (one job, a small
// node and edge budget, every closure valuation over the pool).
Status RunPipeline(const std::string& spec, const std::string& data,
                   const std::string& property,
                   const std::vector<std::string>& pool, Reached* reached) {
  analysis::DiagnosticSink sink;
  analysis::LintSpecText(spec, &sink);
  WSV_ASSIGN_OR_RETURN(WebService service, ParseServiceSpec(spec));
  reached->parsed = true;
  (void)ClassifyService(service).ToString();
  WSV_ASSIGN_OR_RETURN(Instance db, ParseDataFile(data, &service.vocab()));
  WSV_ASSIGN_OR_RETURN(TemporalProperty prop,
                       ParseTemporalProperty(property, &service.vocab()));
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.graph.max_nodes = 48;
  options.graph.max_edges = 400;
  for (const std::string& v : pool) {
    options.graph.constant_pool.push_back(Value::Intern(v));
  }
  LtlVerifier verifier(&service, options, /*jobs=*/1);
  WSV_ASSIGN_OR_RETURN(LtlVerifyResult result,
                       verifier.VerifyOnDatabase(prop, db));
  reached->verified = true;
  if (result.counterexample.has_value()) {
    // A lasso found inside a truncated graph is still a real run.
    Status replay = ValidateWitness(service, prop, *result.counterexample);
    EXPECT_TRUE(replay.ok()) << replay.ToString();
  }
  return Status::OK();
}

constexpr uint64_t kSeed = 0x5eed'2004;
constexpr int kCases = 500;

TEST(MutationFuzz, GallerySpecsFailClosed) {
  const std::vector<Seed> seeds = GallerySeeds();
  int parsed = 0;
  int verified = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    std::mt19937_64 rng(kSeed + static_cast<uint64_t>(c));
    const Seed& seed = seeds[static_cast<size_t>(c) % seeds.size()];
    std::string spec = seed.spec;
    std::string data = seed.data;
    // Mostly the spec; every fourth case the database instead.
    std::string* target = c % 4 == 3 ? &data : &spec;
    // One mutation in three cases of four, else two.
    const int mutations = rng() % 4 == 0 ? 2 : 1;
    for (int m = 0; m < mutations; ++m) MutateOnce(rng, target);
    Reached reached;
    Status st = RunPipeline(spec, data, seed.property, seed.pool, &reached);
    if (HasFailure()) {
      ADD_FAILURE() << "case " << c << " (" << mutations << " mutation"
                    << (mutations > 1 ? "s" : "") << "), mutated "
                    << (target == &spec ? "spec" : "database") << ":\n"
                    << *target;
      return;
    }
    parsed += reached.parsed ? 1 : 0;
    verified += reached.verified ? 1 : 0;
    rejected += st.ok() ? 0 : 1;
  }
  // Not vacuous: mutations both break inputs and leave many verifiable
  // (at the fixed seed: 193 parse, 85 verify, 415 end in an error).
  EXPECT_GT(rejected, kCases / 10);
  EXPECT_GT(verified, kCases / 10);
  EXPECT_GE(parsed, verified);
}

}  // namespace
}  // namespace wsv
