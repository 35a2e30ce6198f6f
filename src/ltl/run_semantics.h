// LTL-FO semantics over concrete runs (Section 3).
//
// Runs are infinite; we represent the ultimately-periodic ones as lassos
// (a finite prefix plus a loop), which is exactly the shape of
// counterexamples produced by the verifier and of runs that reach the
// error page or otherwise cycle.
//
// An FO sentence is satisfied at step i iff (a) every input constant it
// mentions has been provided by step i (kappa_i), and (b) the structure
// combining the database, S_i, I_i, P_i, A_i, kappa_i and the page
// propositions (V_i true, all other pages false) satisfies it.

#ifndef WSV_LTL_RUN_SEMANTICS_H_
#define WSV_LTL_RUN_SEMANTICS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "fo/evaluator.h"
#include "ltl/ltl.h"
#include "runtime/config.h"
#include "ws/service.h"

namespace wsv {

/// An ultimately periodic run: steps[0..n) followed by looping back to
/// steps[loop_start].
struct LassoRun {
  std::vector<TraceStep> steps;
  size_t loop_start = 0;

  std::string ToString() const;
};

/// A non-owning view of one trace element; the verifiers label edges
/// through views to avoid materializing instances per edge.
struct TraceView {
  const std::string* page = nullptr;
  const Instance* state = nullptr;
  const Instance* inputs = nullptr;
  const Instance* prev_inputs = nullptr;
  const Instance* actions = nullptr;
  const std::map<std::string, Value>* kappa = nullptr;
};

/// Evaluates one FO leaf at one trace step under `valuation` (bindings
/// for the property's universal closure variables). Takes the shared
/// formula pointer so repeated leaves hit the compiled-program cache.
StatusOr<bool> EvalFoAtStep(const FormulaPtr& leaf, const TraceStep& step,
                            const Instance& database,
                            const WebService& service,
                            const Valuation& valuation);

StatusOr<bool> EvalFoAtStep(const FormulaPtr& leaf, const TraceView& step,
                            const Instance& database,
                            const WebService& service,
                            const Valuation& valuation);

/// Evaluates one FO leaf at one trace step as a query whose head is
/// `heads` (closure variables free in the leaf, none bound): the set of
/// head tuples under which the leaf holds, each in `heads` order. The
/// structure is EvalFoAtStep's, with `extra_domain` in place of the
/// valuation's values in the active domain: a valuation whose values
/// lie in the resulting domain, and whose own values would extend
/// EvalFoAtStep's domain to that same set (always so for a quantifier-
/// free leaf), satisfies the leaf iff its projection onto `heads` is in
/// the answer. nullopt when condition (a) fails: the leaf is then false
/// under every binding. The set-at-a-time counterpart of EvalFoAtStep —
/// one call answers every valuation at once.
StatusOr<std::optional<std::set<Tuple>>> EvalFoQueryAtStep(
    const FormulaPtr& leaf, const std::vector<std::string>& heads,
    const TraceView& step, const Instance& database,
    const WebService& service, const std::vector<Value>& extra_domain);

/// Evaluates an LTL-FO property on a lasso run: true iff the run
/// satisfies the universal closure, with the closure variables ranging
/// over the run's active domain (database, all step instances, provided
/// constants, and the property's literals). Fails with InvalidArgument
/// if the property contains path quantifiers.
StatusOr<bool> EvaluateLtlOnLasso(const TemporalProperty& prop,
                                  const LassoRun& run,
                                  const Instance& database,
                                  const WebService& service);

/// Evaluates the (closed) temporal formula on the lasso for one fixed
/// valuation of the closure variables.
StatusOr<bool> EvaluateLtlOnLassoWithValuation(const TFormula& formula,
                                               const LassoRun& run,
                                               const Instance& database,
                                               const WebService& service,
                                               const Valuation& valuation);

}  // namespace wsv

#endif  // WSV_LTL_RUN_SEMANTICS_H_
