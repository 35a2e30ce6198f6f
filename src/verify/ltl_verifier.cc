#include "verify/ltl_verifier.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "automata/emptiness.h"
#include "automata/ltl_to_buchi.h"
#include "common/fingerprint.h"
#include "common/hash.h"
#include "fo/input_bounded.h"
#include "fo/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/leaf_store.h"
#include "ws/classify.h"

namespace wsv {

std::string CounterExample::ToString() const {
  std::string out = "database:\n" + database.ToString();
  if (!valuation.empty()) {
    out += "valuation:";
    for (const auto& [var, v] : valuation) {
      out += " " + var + "=" + v.name();
    }
    out += "\n";
  }
  out += "violating run (lasso):\n" + run.ToString();
  return out;
}

namespace {

// All values occurring anywhere in a lasso run or the database — Dom(rho)
// for the closure-variable range check.
std::set<Value> LassoDomain(const LassoRun& run, const Instance& database) {
  std::set<Value> dom(database.domain().begin(), database.domain().end());
  for (const TraceStep& step : run.steps) {
    for (const Instance* inst :
         {&step.state, &step.inputs, &step.prev_inputs, &step.actions}) {
      dom.insert(inst->domain().begin(), inst->domain().end());
    }
    for (const auto& [name, v] : step.kappa) dom.insert(v);
  }
  return dom;
}

// Hash for the FO-leaf memo's keys (projected valuation digits).
template <typename T>
struct VectorKeyHash {
  size_t operator()(const std::vector<T>& key) const {
    return HashRange(key.begin(), key.end());
  }
};

// Matching-state list for edge labels no automaton state carries.
const std::vector<int> kNoMatchingStates;

// Rebuilds a truth column from its stored set-bit representation.
void ColumnFromSetBits(const std::vector<uint64_t>& set_bits, uint64_t upto,
                       Bitset* col) {
  col->Resize(static_cast<size_t>(upto));
  for (uint64_t e : set_bits) {
    if (e < upto) col->Set(static_cast<size_t>(e), true);
  }
}

std::vector<uint64_t> SetBitsOf(const Bitset& col, uint64_t upto) {
  std::vector<uint64_t> out;
  for (uint64_t e = 0; e < upto; ++e) {
    if (col.Test(static_cast<size_t>(e))) out.push_back(e);
  }
  return out;
}

std::string LeafStoreKey(const std::string& ctx, const std::string& leaf_fp,
                         const std::string& binding) {
  std::string key = ctx;
  key += "|leaf:";
  key += leaf_fp;
  key += '|';
  key += binding;
  return key;
}

// Canonical, process-portable rendering of the binding a dynamic leaf
// column is evaluated under: the closure values projected onto the
// leaf's free variables (in variable order) plus the sorted set of
// domain-relevant extension values — the exact key the in-call memo
// uses, but by value *name* instead of candidate digit, so two
// processes with different interning orders agree.
std::string LeafBinding(const std::vector<size_t>& leaf_vars,
                        const std::vector<int32_t>& digits,
                        const std::vector<Value>& cand,
                        const std::vector<char>& domain_relevant,
                        bool qfree) {
  std::string b = "b:";
  for (size_t p : leaf_vars) {
    b += cand[static_cast<size_t>(digits[p])].name();
    b += ',';
  }
  b += "|e:";
  if (!qfree) {
    std::vector<std::string> ext;
    for (int32_t d : digits) {
      if (domain_relevant[static_cast<size_t>(d)]) {
        ext.push_back(cand[static_cast<size_t>(d)].name());
      }
    }
    std::sort(ext.begin(), ext.end());
    ext.erase(std::unique(ext.begin(), ext.end()), ext.end());
    for (const std::string& n : ext) {
      b += n;
      b += ',';
    }
  }
  return b;
}

// True iff the query enumerator (fo/evaluator.cc, mirrored by the
// bytecode VM) binds every head variable of `f` by scanning a relation:
// per disjunct, the positive atom conjuncts mention all heads. Otherwise
// some head is enumerated over the whole active domain.
bool ScansAllHeads(const Formula& f, const std::vector<std::string>& heads) {
  if (f.kind() == Formula::Kind::kOr) {
    for (const FormulaPtr& c : f.children()) {
      if (!ScansAllHeads(*c, heads)) return false;
    }
    return true;
  }
  std::vector<const Formula*> conjuncts;
  std::vector<const Formula*> todo = {&f};
  while (!todo.empty()) {
    const Formula* g = todo.back();
    todo.pop_back();
    if (g->kind() == Formula::Kind::kAnd) {
      for (const FormulaPtr& c : g->children()) todo.push_back(c.get());
    } else {
      conjuncts.push_back(g);
    }
  }
  std::set<std::string> scanned;
  for (const Formula* c : conjuncts) {
    if (c->kind() != Formula::Kind::kAtom) continue;
    for (const Term& t : c->atom().terms) {
      if (t.is_variable()) scanned.insert(t.name());
    }
  }
  for (const std::string& h : heads) {
    if (scanned.count(h) == 0) return false;
  }
  return true;
}

// What a leaf's answer table queries: the leaf itself, or — when the
// leaf does not bind every head by a relation scan but the negation
// normal form of its negation does — that negation, with the answers
// complemented.
struct LeafQuery {
  FormulaPtr formula;
  bool complement = false;
};

// The leaf's query, interned by structure for the process: requests
// rebuild their automata (and so their leaf objects), and a structurally
// equal leaf maps to the same query object, whose compiled program is
// then found by address instead of adding one more pinned alias to the
// program cache per request.
LeafQuery InternLeafQuery(const FormulaPtr& leaf,
                          const std::vector<std::string>& heads) {
  struct Entry {
    FormulaPtr exemplar;
    std::vector<std::string> heads;
    LeafQuery query;
  };
  static std::mutex mu;
  static std::unordered_map<std::string, std::vector<Entry>> interned;
  const std::string key = FingerprintFormula(*leaf).ToHex();
  std::lock_guard<std::mutex> lock(mu);
  std::vector<Entry>& bucket = interned[key];
  for (const Entry& e : bucket) {
    if (e.heads == heads && StructurallyEqual(*e.exemplar, *leaf)) {
      return e.query;
    }
  }
  LeafQuery query{leaf, false};
  if (!ScansAllHeads(*leaf, heads)) {
    FormulaPtr negated = ToNNF(*Formula::Not(leaf));
    if (ScansAllHeads(*negated, heads)) query = {std::move(negated), true};
  }
  bucket.push_back({leaf, heads, query});
  return query;
}

}  // namespace

// Per-leaf answer tables: the set-at-a-time form of leaf evaluation
// (DESIGN.md §6d). Rather than evaluating a leaf once per (valuation,
// edge), a table runs the leaf once per edge as a query whose head is
// the leaf's closure variables; a binding's column bit at that edge is
// membership of its projection in the answer. Answers are stored as
// sorted projection codes (canonical candidate digits read as a
// base-|cand| number; answer values that are no candidate can match no
// binding and are dropped). Tables fill lazily up to the edge prefix a
// column asks for, so the on-the-fly sweep queries only edges its
// searches reached. Like all sweep state, an instance is local to one
// call.
class LtlDatabaseCheck::LeafAnswers {
 public:
  /// One edge's answer: a binding holds iff its code's membership in
  /// `codes` differs from `complement`.
  struct EdgeAnswer {
    bool complement = false;
    std::vector<uint64_t> codes;  // sorted
  };
  struct Table {
    size_t leaf = 0;
    /// Added to every query's active domain (see TableFor).
    std::vector<Value> extra_domain;
    /// Per queried edge.
    std::vector<EdgeAnswer> answers;
  };

  LeafAnswers(const LtlDatabaseCheck& check, const ConfigGraph& graph)
      : check_(check), graph_(graph), tables_(check.leaf_vars_.size()) {
    const std::vector<std::string>& vars = check.property_->universal_vars;
    heads_.resize(check.leaf_vars_.size());
    for (size_t k = 0; k < heads_.size(); ++k) {
      for (size_t p : check.leaf_vars_[k]) heads_[k].push_back(vars[p]);
    }
    canon_.resize(check.cand_.size());
    for (size_t d = 0; d < check.cand_.size(); ++d) {
      auto [it, inserted] = digit_of_.emplace(check.cand_[d].id(),
                                              static_cast<int32_t>(d));
      canon_[d] = it->second;
    }
  }

  /// The table serving leaf k's bindings with memo key `memo_key`
  /// (LeafMemoKey; empty for a static leaf). Its domain rule is what
  /// keeps membership exact:
  ///  - static leaves add nothing, exactly as they were always
  ///    evaluated under the empty valuation;
  ///  - a quantifier-free leaf never reads the active domain, so its
  ///    one table adds every candidate — every projection is then
  ///    enumerable, negated and unguarded heads included;
  ///  - a quantified leaf gets one table per extension set (the key's
  ///    tail), adding exactly those values: the domain a per-valuation
  ///    evaluation builds for every valuation sharing that set.
  Table* TableFor(size_t k, const std::vector<int32_t>& memo_key) {
    std::vector<int32_t> ext;
    if (!check_.leaf_qfree_[k] && !memo_key.empty()) {
      auto sep = std::find(memo_key.begin(), memo_key.end(), -1);
      ext.assign(sep + 1, memo_key.end());
    }
    auto [it, inserted] = tables_[k].try_emplace(std::move(ext));
    Table& t = it->second;
    if (inserted) {
      t.leaf = k;
      if (check_.leaf_qfree_[k] && !check_.leaf_vars_[k].empty()) {
        t.extra_domain = check_.cand_;
      }
      for (int32_t d : it->first) {
        t.extra_domain.push_back(check_.cand_[static_cast<size_t>(d)]);
      }
    }
    return &t;
  }

  /// The projection code of valuation `digits` onto leaf k's variables.
  uint64_t Code(size_t k, const std::vector<int32_t>& digits) const {
    uint64_t code = 0;
    uint64_t place = 1;
    for (size_t p : check_.leaf_vars_[k]) {
      code += static_cast<uint64_t>(canon_[static_cast<size_t>(digits[p])]) *
              place;
      place *= check_.cand_.size();
    }
    return code;
  }

  /// Sets bits [from, n) of `bits` (size >= n) to the truth of the
  /// binding with projection `code`, querying edges below n first.
  Status Extend(Table* t, uint64_t code, size_t from, size_t n,
                Bitset* bits) {
    const size_t filled = t->answers.size();
    for (size_t e = filled; e < n; ++e) {
      WSV_ASSIGN_OR_RETURN(
          std::optional<std::set<Tuple>> rows,
          EvalFoQueryAtStep(check_.leaf_query_[t->leaf], heads_[t->leaf],
                            graph_.View(static_cast<int>(e)),
                            *check_.database_, *check_.service_,
                            t->extra_domain));
      EdgeAnswer& answer = t->answers.emplace_back();
      // Condition (a) failed: false under every binding, complement or
      // not.
      if (!rows.has_value()) continue;
      answer.complement = check_.leaf_complement_[t->leaf] != 0;
      answer.codes.reserve(rows->size());
      for (const Tuple& row : *rows) {
        uint64_t c = 0;
        uint64_t place = 1;
        bool known = true;
        for (Value v : row) {
          auto it = digit_of_.find(v.id());
          if (it == digit_of_.end()) {
            known = false;
            break;
          }
          c += static_cast<uint64_t>(it->second) * place;
          place *= check_.cand_.size();
        }
        if (known) answer.codes.push_back(c);
      }
      std::sort(answer.codes.begin(), answer.codes.end());
    }
    if (n > filled) WSV_COUNT("ltl/fo_leaf_evals", n - filled);
    for (size_t e = from; e < n; ++e) {
      const EdgeAnswer& answer = t->answers[e];
      bits->Set(e, answer.complement !=
                       std::binary_search(answer.codes.begin(),
                                          answer.codes.end(), code));
    }
    return Status::OK();
  }

 private:
  const LtlDatabaseCheck& check_;
  const ConfigGraph& graph_;
  /// Per leaf: the query head, leaf_vars_ mapped to variable names.
  std::vector<std::vector<std::string>> heads_;
  /// Candidate digit -> first digit holding the same value, so caller-
  /// supplied duplicate candidates share codes; digit_of_ maps a value
  /// id to that canonical digit.
  std::vector<int32_t> canon_;
  std::unordered_map<int32_t, int32_t> digit_of_;
  /// Per leaf, keyed by extension set (node map: stable addresses).
  std::vector<std::map<std::vector<int32_t>, Table>> tables_;
};

void LtlDatabaseCheck::LeafMemoKey(size_t k,
                                   const std::vector<int32_t>& digits,
                                   std::vector<int32_t>* key) const {
  key->clear();
  for (size_t p : leaf_vars_[k]) key->push_back(digits[p]);
  key->push_back(-1);  // separator: bindings | domain extension
  if (leaf_qfree_[k]) return;
  // The extension is the sorted deduped set of domain-relevant digits;
  // the handful of closure variables makes sort-on-the-tail the cheap
  // way to canonicalize. Quantifier-free leaves skip it: they never
  // iterate the active domain, so extending it cannot change their
  // truth.
  const size_t ext_begin = key->size();
  for (int32_t d : digits) {
    if (domain_relevant_[k][static_cast<size_t>(d)]) key->push_back(d);
  }
  std::sort(key->begin() + ext_begin, key->end());
  key->erase(std::unique(key->begin() + ext_begin, key->end()), key->end());
}

bool OnTheFlyEnabled() {
  return std::getenv("WSV_DISABLE_ONTHEFLY") == nullptr;
}

std::vector<Value> ResolveConstantPool(const WebService& service,
                                       const TemporalProperty& property,
                                       const Instance& database,
                                       const LtlVerifyOptions& options) {
  if (!options.graph.constant_pool.empty()) {
    return options.graph.constant_pool;
  }
  std::set<Value> pool(database.domain().begin(), database.domain().end());
  for (Value v : ServiceRuleLiterals(service)) pool.insert(v);
  for (Value v : property.formula->Literals()) pool.insert(v);
  for (int i = 0; i < options.extra_constant_values; ++i) {
    pool.insert(Value::Intern("u" + std::to_string(i)));
  }
  return std::vector<Value>(pool.begin(), pool.end());
}

std::vector<Value> ResolveClosureCandidates(const WebService& service,
                                            const TemporalProperty& property,
                                            const Instance& database,
                                            const LtlVerifyOptions& options) {
  if (!options.closure_candidates.empty()) {
    return options.closure_candidates;
  }
  std::vector<Value> pool =
      ResolveConstantPool(service, property, database, options);
  std::set<Value> candidates(pool.begin(), pool.end());
  candidates.insert(database.domain().begin(), database.domain().end());
  for (Value v : ServiceRuleLiterals(service)) candidates.insert(v);
  for (Value v : property.formula->Literals()) candidates.insert(v);
  return std::vector<Value>(candidates.begin(), candidates.end());
}

LtlVerifyOptions SlicedCheckOptions(const LtlVerifyOptions& base,
                                    const WebService& original,
                                    const TemporalProperty& property,
                                    const Instance& database) {
  LtlVerifyOptions opts = base;
  // Pin the pool and the candidate list to what the *original* service
  // resolves: the sliced service has fewer rule literals, and a
  // different candidate list would renumber the valuation index space.
  opts.graph.constant_pool =
      ResolveConstantPool(original, property, database, base);
  opts.closure_candidates =
      ResolveClosureCandidates(original, property, database, base);
  // The sliced phase only decides lasso existence, so it always runs
  // the early-exiting on-the-fly engine (unless the environment forces
  // eager): under --eager the canonical phase stays eager while the
  // probe's cost is one nested DFS on the reduced graph.
  opts.force_eager = false;
  // Sliced truth columns differ from full-spec ones, so they live in
  // their own store keyspace: the sliced graph is a pure function of
  // (spec, database, pool — all in the caller's context) plus the
  // property (which the eager context omits) and the probe engine —
  // add both explicitly, plus a slicer version tag so algorithm changes
  // invalidate cleanly.
  if (base.leaf_store != nullptr && !base.leaf_store_context.empty()) {
    opts.leaf_store_context += std::string("|sliced-v1|") +
                               (OnTheFlyEnabled() ? "otf|" : "eager|") +
                               FingerprintProperty(property).ToHex();
  } else {
    opts.leaf_store = nullptr;
    opts.leaf_store_context.clear();
  }
  opts.abort_on_lasso = true;
  return opts;
}

std::set<std::string> TrackedPrevRelations(const WebService& service,
                                           const TemporalProperty& property) {
  // Track only the Prev_I relations the rules or the property observe.
  std::set<std::string> tracked = Stepper::PrevRelationsInRules(service);
  for (const FormulaPtr& leaf : property.formula->FoLeaves()) {
    for (const Atom& atom : leaf->Atoms()) {
      if (atom.prev) tracked.insert(atom.relation);
    }
  }
  return tracked;
}

StatusOr<BuchiAutomaton> BuildNegatedAutomaton(
    const WebService& service, const TemporalProperty& property,
    bool require_input_bounded) {
  if (!property.formula->IsLtl()) {
    return Status::InvalidArgument(
        "property contains path quantifiers; use the branching-time "
        "checkers");
  }
  if (require_input_bounded) {
    WSV_RETURN_IF_ERROR(CheckInputBoundedService(service));
    WSV_RETURN_IF_ERROR(CheckInputBoundedProperty(property, service.vocab()));
  }
  WSV_SPAN("automata/build_negated");
  TFormulaPtr negated =
      ToNegationNormalForm(*TFormula::Not(property.formula));
  WSV_ASSIGN_OR_RETURN(BuchiAutomaton gba, LtlToBuchi(*negated));
  BuchiAutomaton automaton = gba.Degeneralize();
  WSV_COUNT("automata/buchi_states", automaton.size());
  WSV_COUNT("automata/fo_leaves", automaton.leaves.size());
  return automaton;
}

StatusOr<LtlDatabaseCheck> LtlDatabaseCheck::Create(
    const WebService* service, const LtlVerifyOptions& options,
    const TemporalProperty* property, const BuchiAutomaton* automaton,
    const Instance& database) {
  WSV_SPAN("verify/db_check_create");
  WSV_COUNT1("verify/databases");
  LtlDatabaseCheck check;
  check.service_ = service;
  check.property_ = property;
  check.automaton_ = automaton;
  check.database_ = std::make_unique<Instance>(database);
  const Instance& db = *check.database_;

  // The stepper is owned by the context: on-the-fly sweeps generate
  // successors long after Create returns.
  check.stepper_ = std::make_unique<Stepper>(service, check.database_.get());
  check.stepper_->SetTrackedPrev(TrackedPrevRelations(*service, *property));
  const Stepper& stepper = *check.stepper_;

  // Candidate values for input constants: the database's active domain,
  // the rule/property literals, plus fresh "typed by the user" values.
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      ResolveConstantPool(*service, *property, db, options);
  check.graph_options_ = graph_options;

  check.on_the_fly_ = OnTheFlyEnabled() && !options.force_eager;
  if (!check.on_the_fly_) {
    WSV_ASSIGN_OR_RETURN(check.graph_,
                         BuildConfigGraph(stepper, graph_options));
  }

  check.leaf_store_ = options.leaf_store;
  check.leaf_ctx_ = options.leaf_store_context;
  if (check.leaf_store_ != nullptr) {
    check.leaf_fp_.reserve(automaton->leaves.size());
    for (const FormulaPtr& leaf : automaton->leaves) {
      check.leaf_fp_.push_back(FingerprintFormula(*leaf).ToHex());
    }
  }

  check.abort_on_lasso_ = options.abort_on_lasso;

  // Valuation candidates for the universal closure variables: everything
  // that can occur in a run's active domain — the database, rule and
  // property literals, and the input-constant pool — unless the caller
  // restricted them.
  check.cand_ = ResolveClosureCandidates(*service, *property, db, options);

  const std::vector<std::string>& vars = property->universal_vars;
  const uint64_t c = check.cand_.size();
  check.stride_.assign(vars.size(), 1);
  if (vars.empty()) {
    check.num_valuations_ = 1;
  } else if (c == 0) {
    check.num_valuations_ = 0;  // vacuously no violating valuation
  } else {
    uint64_t n = 1;
    for (size_t k = 0; k < vars.size(); ++k) {
      check.stride_[k] = n;
      if (n > UINT64_MAX / c) {
        return Status::ResourceExhausted(
            "closure valuation space overflows a 64-bit index; restrict "
            "closure_candidates");
      }
      n *= c;
    }
    check.num_valuations_ = n;
  }

  // Classify leaves by the closure variables they mention and pick each
  // one's answer-table query.
  const size_t num_leaves = automaton->leaves.size();
  check.leaf_vars_.resize(num_leaves);
  check.leaf_qfree_.resize(num_leaves, 0);
  check.leaf_query_.resize(num_leaves);
  check.leaf_complement_.resize(num_leaves, 0);
  check.domain_relevant_.resize(num_leaves);
  // Database-domain membership of each candidate is leaf-independent;
  // scan the domain once instead of once per leaf.
  std::vector<char> cand_in_db(check.cand_.size(), 0);
  for (size_t i = 0; i < check.cand_.size(); ++i) {
    cand_in_db[i] = db.domain().count(check.cand_[i]) > 0 ? 1 : 0;
  }
  for (size_t k = 0; k < num_leaves; ++k) {
    std::set<std::string> free = automaton->leaves[k]->FreeVariables();
    check.leaf_vars_[k].reserve(vars.size());
    for (size_t p = 0; p < vars.size(); ++p) {
      if (free.count(vars[p]) > 0) check.leaf_vars_[k].push_back(p);
    }
    check.leaf_qfree_[k] = automaton->leaves[k]->IsQuantifierFree() ? 1 : 0;
    std::vector<std::string> heads;
    for (size_t p : check.leaf_vars_[k]) heads.push_back(vars[p]);
    LeafQuery query = InternLeafQuery(automaton->leaves[k], heads);
    check.leaf_query_[k] = std::move(query.formula);
    check.leaf_complement_[k] = query.complement ? 1 : 0;
    // A candidate value can influence this leaf through the active
    // domain only if neither the database nor the leaf's own literals
    // already provide it (every evaluation context contains both).
    const std::set<Value> lits = automaton->leaves[k]->Literals();
    std::vector<char>& relevant = check.domain_relevant_[k];
    relevant.assign(check.cand_.size(), 0);
    for (size_t i = 0; i < check.cand_.size(); ++i) {
      relevant[i] =
          (!cand_in_db[i] && lits.count(check.cand_[i]) == 0) ? 1 : 0;
    }
  }

  // Index the automaton for the product hot path: states grouped by
  // their packed leaf-truth label, and the successor relation as
  // per-state bitsets.
  const size_t num_states = automaton->size();
  Bitset label(num_leaves);
  for (size_t q = 0; q < num_states; ++q) {
    label.Resize(num_leaves);
    for (size_t k = 0; k < num_leaves; ++k) {
      if (automaton->states[q][k]) label.Set(k);
    }
    check.label_index_[label].push_back(static_cast<int>(q));
  }
  check.succ_bits_.resize(num_states);
  for (size_t q = 0; q < num_states; ++q) {
    check.succ_bits_[q].Resize(num_states);
    for (int s : automaton->succ[q]) check.succ_bits_[q].Set(s);
  }
  return check;
}

StatusOr<std::vector<std::vector<Bitset>>> LtlDatabaseCheck::LeafColumns(
    uint64_t begin, uint64_t end) const {
  if (on_the_fly_) {
    return Status::Unsupported("leaf columns need an eager context");
  }
  const size_t num_vars = property_->universal_vars.size();
  const size_t num_leaves = automaton_->leaves.size();
  const size_t num_edges = graph_.edges.size();
  if (end > num_valuations_) end = num_valuations_;
  LeafAnswers answers(*this, graph_);
  std::vector<int32_t> digits(num_vars, 0);
  std::vector<int32_t> memo_key;
  std::vector<std::vector<Bitset>> out;
  for (uint64_t i = begin; i < end; ++i) {
    for (size_t k = 0; k < num_vars; ++k) {
      digits[k] = static_cast<int32_t>((i / stride_[k]) % cand_.size());
    }
    std::vector<Bitset>& cols = out.emplace_back(num_leaves);
    for (size_t k = 0; k < num_leaves; ++k) {
      // A static leaf's one table takes the empty key (no extension).
      memo_key.clear();
      if (!leaf_vars_[k].empty()) LeafMemoKey(k, digits, &memo_key);
      cols[k].Resize(num_edges);
      WSV_RETURN_IF_ERROR(answers.Extend(answers.TableFor(k, memo_key),
                                         answers.Code(k, digits), 0,
                                         num_edges, &cols[k]));
    }
  }
  return out;
}

StatusOr<std::optional<IndexedCounterExample>>
LtlDatabaseCheck::CheckValuations(uint64_t begin, uint64_t end,
                                  const std::function<bool(uint64_t)>& stop,
                                  uint64_t* product_states) const {
  WSV_SPAN("verify/check_valuations");
  const std::vector<std::string>& vars = property_->universal_vars;
  const size_t num_leaves = automaton_->leaves.size();
  const uint64_t c = cand_.size();
  if (end > num_valuations_) end = num_valuations_;

  // All sweep state is local to this call: concurrent sweeps of one
  // context never share mutable state.
  //
  // The graph the sweep reads. Eager: the one built at Create. On the
  // fly: a lazy graph of this call's own, whose configurations are
  // stepped only when a nested DFS reaches them. Its cancellation hook
  // also honors `stop` with the index being swept, so a mid-search
  // better-witness signal aborts expansion too.
  uint64_t current_index = begin;
  std::optional<LazyConfigGraph> lazy;
  if (on_the_fly_) {
    ConfigGraphOptions gopts = graph_options_;
    gopts.cancel_check = [base = graph_options_.cancel_check, &stop,
                          &current_index]() {
      return (base && base()) || (stop && stop(current_index));
    };
    lazy.emplace(stepper_.get(), std::move(gopts));
  }
  const ConfigGraph& graph = lazy.has_value() ? lazy->graph() : graph_;

  // Fold the lazy graph into the context-wide totals on every exit path
  // (counterexample, cancellation, error, clean finish).
  struct GraphAccounting {
    const std::optional<LazyConfigGraph>& lazy;
    OtfTotals* totals;
    ~GraphAccounting() {
      if (!lazy.has_value()) return;
      totals->nodes.fetch_add(lazy->graph().nodes.size(),
                              std::memory_order_relaxed);
      if (lazy->truncated()) {
        totals->truncated.store(true, std::memory_order_relaxed);
      }
    }
  } accounting{lazy, otf_totals_.get()};

  // Truth columns over the *prefix* of edges evaluated so far. Columns
  // are identified by address (the deque keeps them stable) and extended
  // on demand: a column's bits are meaningful on [0, upto). On the eager
  // graph every product and class comparison asks for all edges.
  struct LeafCol {
    Bitset bits;
    size_t upto = 0;
    /// Where the bits come from: the answer table of the column's leaf
    /// and extension set, and the projection code to test in it. Only
    /// the projection onto the leaf's free variables (plus the domain
    /// extension — see the memo key) can influence the truth, so sharing
    /// the column across valuations with the same key is exact.
    LeafAnswers::Table* table = nullptr;
    uint64_t code = 0;
    /// Cross-request persistence (empty key = not persisted): the bound
    /// the column was loaded at, so only net-new prefix is republished.
    std::string store_key;
    size_t loaded_upto = 0;
  };
  LeafAnswers answers(*this, graph);
  std::deque<LeafCol> col_store;
  std::vector<LeafCol*> static_col(num_leaves, nullptr);
  // Memoized columns per dynamic leaf, keyed by the projection of the
  // valuation onto the leaf's free variables plus the sorted set of
  // domain-relevant candidate digits (the only other channel a closure
  // value can reach the leaf through).
  std::vector<std::unordered_map<std::vector<int32_t>, LeafCol*,
                                 VectorKeyHash<int32_t>>>
      memo(num_leaves);

  // The leaf store. Eager columns index the graph built at Create, whose
  // edge order no cut of the index range changes. An on-the-fly sweep
  // discovers edges in an order that depends on its range, so only a
  // full, uncancellable sweep numbers them the way another request will.
  const bool use_store =
      leaf_store_ != nullptr &&
      (!on_the_fly_ || (begin == 0 && end >= num_valuations_ && !stop));
  auto attach_store = [&](size_t k, LeafCol* col,
                          const std::string& binding) {
    col->store_key = LeafStoreKey(leaf_ctx_, leaf_fp_[k], binding);
    std::vector<uint64_t> set_bits;
    uint64_t upto = 0;
    if (leaf_store_->Lookup(col->store_key, &set_bits, &upto) && upto > 0) {
      ColumnFromSetBits(set_bits, upto, &col->bits);
      col->upto = static_cast<size_t>(upto);
      col->loaded_upto = col->upto;
      WSV_COUNT1("cache/leaf_cols_loaded");
      WSV_COUNT("cache/leaf_evals_saved", upto);
    }
  };
  auto publish_cols = [&] {
    if (!use_store) return;
    for (LeafCol& col : col_store) {
      if (col.store_key.empty() || col.upto <= col.loaded_upto) continue;
      leaf_store_->Publish(col.store_key, SetBitsOf(col.bits, col.upto),
                           col.upto);
      col.loaded_upto = col.upto;
      WSV_COUNT1("cache/leaf_cols_published");
    }
  };

  auto extend_col = [&](LeafCol* col, size_t n) -> Status {
    if (col->upto >= n) return Status::OK();
    [[maybe_unused]] const uint64_t eval_start = WSV_OBS_NOW();
    col->bits.GrowTo(n);
    WSV_RETURN_IF_ERROR(
        answers.Extend(col->table, col->code, col->upto, n, &col->bits));
    WSV_HIST("ltl/leaf_col_eval_ns", WSV_OBS_NOW() - eval_start);
    col->upto = n;
    return Status::OK();
  };

  // Valuation equivalence classes (DESIGN.md §6d, §6e). A class remembers
  // its leaf columns and how many edges existed right after its
  // representative's search (`edges_at_close`: every edge on the eager
  // graph). The search only ever consulted labels of edges below that
  // bound, and per-node out-edge lists don't depend on expansion timing,
  // so a later valuation whose columns agree with the class on
  // [0, edges_at_close) would reproduce the search verbatim and inherits
  // its verdict (and lasso). At most one class can match: classes are
  // closed in sweep order, and a new class differs from every earlier one
  // within the earlier bound. Violating classes also keep the lasso's
  // Dom(rho) for the per-valuation faithfulness check.
  struct Class {
    std::vector<LeafCol*> cols;
    size_t edges_at_close = 0;
    bool violating = false;
    LassoRun run;
    std::set<Value> dom;
  };
  std::deque<Class> classes;  // deque: outcome pointers stay stable

  // The product of one class representative. Vertices are (edge,
  // automaton state) pairs whose state label matches the edge's leaf
  // truth, interned as a search reaches them.
  std::vector<int32_t> digits(vars.size(), 0);
  std::vector<LeafCol*> leaf_cols(num_leaves, nullptr);
  std::vector<std::pair<int, int>> verts;  // (edge, q)
  std::unordered_map<uint64_t, int> vert_index;
  std::vector<const std::vector<int>*> matching;  // per edge; null: unset
  std::vector<char> q_acc(automaton_->size(), 0);
  for (int q : automaton_->accepting_sets.front()) {
    q_acc[static_cast<size_t>(q)] = 1;
  }
  Bitset label_scratch;
  auto vid = [&](int e, int q) {
    uint64_t key = PackInts(e, q);
    auto it = vert_index.find(key);
    if (it != vert_index.end()) return it->second;
    int id = static_cast<int>(verts.size());
    vert_index.emplace(key, id);
    verts.emplace_back(e, q);
    return id;
  };
  // The automaton states whose label matches edge e's leaf truth under
  // the current valuation's columns, which are extended to cover e.
  auto edge_matching = [&](size_t e) -> StatusOr<const std::vector<int>*> {
    if (e < matching.size() && matching[e] != nullptr) return matching[e];
    if (matching.size() <= e) matching.resize(e + 1, nullptr);
    label_scratch.Resize(num_leaves);
    for (size_t k = 0; k < num_leaves; ++k) {
      WSV_RETURN_IF_ERROR(extend_col(leaf_cols[k], e + 1));
      if (leaf_cols[k]->bits.Test(e)) label_scratch.Set(k);
    }
    auto it = label_index_.find(label_scratch);
    matching[e] = it == label_index_.end() ? &kNoMatchingStates : &it->second;
    return matching[e];
  };

  // The eager search: the whole product over graph_, then SCC emptiness.
  // Its arrays keep their capacity across products.
  std::vector<std::vector<int>> succ;
  std::vector<char> initial;
  std::vector<char> accepting;
  auto search_eager = [&]() -> StatusOr<std::optional<Lasso>> {
    const size_t num_edges = graph.edges.size();
    for (LeafCol* col : leaf_cols) {
      WSV_RETURN_IF_ERROR(extend_col(col, num_edges));
    }
    for (size_t e = 0; e < num_edges; ++e) {
      WSV_ASSIGN_OR_RETURN(const std::vector<int>* m, edge_matching(e));
      for (int q : *m) vid(static_cast<int>(e), q);
    }
    const size_t nv = verts.size();
    succ.resize(nv);
    for (size_t v = 0; v < nv; ++v) succ[v].clear();
    initial.assign(nv, 0);
    accepting.assign(nv, 0);
    for (size_t v = 0; v < nv; ++v) {
      const auto [e, q] = verts[v];
      if (graph.edges[e].from == graph.initial && automaton_->initial[q]) {
        initial[v] = 1;
      }
      accepting[v] = q_acc[static_cast<size_t>(q)];
      const Bitset& q_succ = succ_bits_[q];
      for (int e2 : graph.out_edges[graph.edges[e].to]) {
        for (int q2 : *matching[e2]) {
          if (q_succ.Test(q2)) succ[v].push_back(vid(e2, q2));
        }
      }
    }
    return FindAcceptingLasso(succ, initial, accepting);
  };

  // The on-the-fly search: nested DFS over the lazy product, where
  // asking for a vertex's successors is what expands the graph.
  std::deque<std::vector<int>> vsucc;  // stable addresses for the DFS
  std::vector<char> vsucc_done;
  auto search_on_the_fly = [&]() -> StatusOr<std::optional<Lasso>> {
    vsucc.clear();
    vsucc_done.clear();
    auto succ_fn = [&](int v) -> StatusOr<const std::vector<int>*> {
      const size_t slot = static_cast<size_t>(v);
      while (vsucc.size() <= slot) {
        vsucc.emplace_back();
        vsucc_done.push_back(0);
      }
      if (vsucc_done[slot]) return &vsucc[slot];
      const auto [e, q] = verts[slot];
      const int to = graph.edges[static_cast<size_t>(e)].to;
      // An unexpanded node (budget hit) is a dead end — exactly the
      // truncated-prefix semantics of the eager build.
      WSV_ASSIGN_OR_RETURN(bool expanded, lazy->EnsureExpanded(to));
      (void)expanded;
      std::vector<int> out;
      const Bitset& q_succ = succ_bits_[q];
      for (int e2 : graph.out_edges[static_cast<size_t>(to)]) {
        WSV_ASSIGN_OR_RETURN(const std::vector<int>* m,
                             edge_matching(static_cast<size_t>(e2)));
        for (int q2 : *m) {
          if (q_succ.Test(q2)) out.push_back(vid(e2, q2));
        }
      }
      vsucc[slot] = std::move(out);
      vsucc_done[slot] = 1;
      return &vsucc[slot];
    };
    // Initial vertices: the initial configuration's out-edges paired
    // with initial automaton states whose label matches.
    WSV_ASSIGN_OR_RETURN(bool expanded, lazy->EnsureExpanded(lazy->initial()));
    (void)expanded;
    std::vector<int> initial_verts;
    for (int e : graph.out_edges[static_cast<size_t>(lazy->initial())]) {
      WSV_ASSIGN_OR_RETURN(const std::vector<int>* m,
                           edge_matching(static_cast<size_t>(e)));
      for (int q : *m) {
        if (automaton_->initial[static_cast<size_t>(q)]) {
          initial_verts.push_back(vid(e, q));
        }
      }
    }
    NestedDfsStats search_stats;
    WSV_ASSIGN_OR_RETURN(
        std::optional<Lasso> lasso,
        FindAcceptingLassoOnTheFly(
            initial_verts, succ_fn,
            [&](int v) {
              return q_acc[static_cast<size_t>(
                         verts[static_cast<size_t>(v)].second)] != 0;
            },
            [&]() { return stop && stop(current_index); }, &search_stats));
    WSV_COUNT("ltl/otf_states_created", verts.size());
    WSV_HIST("ltl/peak_product_states", verts.size());
    WSV_HIST("ltl/otf_dfs_depth", search_stats.max_depth);
    if (lasso.has_value()) WSV_COUNT1("ltl/otf_early_exits");
    return lasso;
  };

  std::vector<int32_t> memo_key;
  memo_key.reserve(2 * vars.size() + 1);

  for (uint64_t i = begin; i < end; ++i) {
    // Sweeping ascending means the first faithful counterexample is the
    // range minimum, so we return the moment we find one; a stop only
    // ever fires while still empty-handed.
    current_index = i;
    if (stop && stop(i)) {
      WSV_COUNT1("ltl/valuation_sweeps_cancelled");
      return Status::Cancelled("valuation sweep cancelled at index " +
                               std::to_string(i));
    }
    WSV_COUNT1("ltl/valuations_checked");
    for (size_t k = 0; k < vars.size(); ++k) {
      digits[k] = static_cast<int32_t>((i / stride_[k]) % c);
    }

    // Resolve each leaf's column under the valuation.
    for (size_t k = 0; k < num_leaves; ++k) {
      if (leaf_vars_[k].empty()) {
        if (static_col[k] == nullptr) {
          static_col[k] = &col_store.emplace_back();
          static_col[k]->table = answers.TableFor(k, {});
          if (use_store) attach_store(k, static_col[k], "static");
          WSV_COUNT1("ltl/static_leaf_cols");
        }
        leaf_cols[k] = static_col[k];
        continue;
      }
      LeafMemoKey(k, digits, &memo_key);
      auto it = memo[k].find(memo_key);
      if (it == memo[k].end()) {
        WSV_COUNT1("ltl/leaf_memo_misses");
        LeafCol* col = &col_store.emplace_back();
        col->table = answers.TableFor(k, memo_key);
        col->code = answers.Code(k, digits);
        if (use_store) {
          attach_store(k, col,
                       LeafBinding(leaf_vars_[k], digits, cand_,
                                   domain_relevant_[k], leaf_qfree_[k] != 0));
        }
        it = memo[k].emplace(memo_key, col).first;
        WSV_COUNT1("ltl/leaf_memo_entries");
      } else {
        WSV_COUNT1("ltl/leaf_memo_hits");
      }
      leaf_cols[k] = it->second;
    }

    // Class lookup by column prefix (pointer equality short-circuits the
    // common case of a shared memoized column).
    Class* outcome = nullptr;
    for (Class& cls : classes) {
      bool same = true;
      for (size_t k = 0; k < num_leaves && same; ++k) {
        if (cls.cols[k] == leaf_cols[k]) continue;
        WSV_RETURN_IF_ERROR(extend_col(cls.cols[k], cls.edges_at_close));
        WSV_RETURN_IF_ERROR(extend_col(leaf_cols[k], cls.edges_at_close));
        same = cls.cols[k]->bits.PrefixEquals(leaf_cols[k]->bits,
                                              cls.edges_at_close);
      }
      if (same) {
        outcome = &cls;
        break;
      }
    }

    if (outcome != nullptr) {
      WSV_COUNT1("ltl/class_hits");
      WSV_COUNT1("ltl/products_skipped");
    } else {
      // First of its class: search the product — the one step that
      // differs by engine.
      WSV_COUNT1("ltl/valuation_classes");
      WSV_SPAN("ltl/product");
      verts.clear();
      vert_index.clear();
      matching.clear();
      StatusOr<std::optional<Lasso>> lasso =
          on_the_fly_ ? search_on_the_fly() : search_eager();
      if (!lasso.ok()) {
        if (lasso.status().code() == StatusCode::kCancelled) {
          WSV_COUNT1("ltl/valuation_sweeps_cancelled");
        }
        return lasso.status();
      }
      if (product_states != nullptr) *product_states += verts.size();
      WSV_COUNT1("ltl/products_built");
      WSV_COUNT("ltl/product_states", verts.size());

      outcome = &classes.emplace_back();
      outcome->cols = leaf_cols;
      outcome->edges_at_close = graph.edges.size();
      if (lasso->has_value()) {
        // Reconstruct the run: prefix vertices then cycle[1..], looping
        // back to the prefix's last vertex.
        LassoRun& run = outcome->run;
        for (int v : (*lasso)->prefix) {
          run.steps.push_back(
              graph.Materialize(verts[static_cast<size_t>(v)].first));
        }
        run.loop_start = (*lasso)->prefix.size() - 1;
        for (size_t j = 1; j < (*lasso)->cycle.size(); ++j) {
          run.steps.push_back(graph.Materialize(
              verts[static_cast<size_t>((*lasso)->cycle[j])].first));
        }
        outcome->violating = true;
        outcome->dom = LassoDomain(run, *database_);
        std::set<Value> lits = property_->formula->Literals();
        outcome->dom.insert(lits.begin(), lits.end());
      }
    }
    if (!outcome->violating) continue;

    if (abort_on_lasso_) {
      // Sliced first phase: an accepting lasso exists here, but its
      // faithfulness is not slicing-invariant — report the index and
      // let the caller re-check the full spec from it.
      WSV_COUNT1("slice/lasso_bailouts");
      IndexedCounterExample found;
      found.valuation_index = i;
      found.lasso_only = true;
      publish_cols();
      return std::optional<IndexedCounterExample>(std::move(found));
    }

    // Faithfulness check: the closure valuation must range over
    // Dom(rho); discard spurious witnesses using pool values that never
    // occur in the run or database. The lasso is class-invariant, but
    // spuriousness is not — every valuation of a violating class takes
    // this check individually.
    bool in_dom = true;
    for (size_t k = 0; k < vars.size(); ++k) {
      if (outcome->dom.count(cand_[static_cast<size_t>(digits[k])]) == 0) {
        in_dom = false;
      }
    }
    if (!in_dom) {
      WSV_COUNT1("ltl/spurious_witnesses");
      continue;
    }
    WSV_COUNT1("ltl/counterexamples_found");
    IndexedCounterExample found;
    found.valuation_index = i;
    found.cex.database = *database_;
    found.cex.run = outcome->run;
    for (size_t k = 0; k < vars.size(); ++k) {
      found.cex.valuation[vars[k]] = cand_[static_cast<size_t>(digits[k])];
    }
    publish_cols();
    return std::optional<IndexedCounterExample>(std::move(found));
  }
  publish_cols();
  return std::optional<IndexedCounterExample>(std::nullopt);
}

}  // namespace wsv
