// Accepting-lasso search on explicit graphs.
//
// Shared by the LTL-FO verifier (product of a configuration graph with a
// Büchi automaton) and the CTL* checker. Two algorithms:
//
//  * FindAcceptingLasso — eager, SCC-based (iterative Tarjan) over a
//    fully materialized graph: a Büchi-accepting run exists iff some SCC
//    reachable from an initial vertex contains an accepting vertex and a
//    cycle.
//  * FindAcceptingLassoOnTheFly — nested DFS (Courcoubetis–Vardi–Wolper–
//    Yannakakis, the SPIN strategy) over an *implicit* graph whose
//    successors the caller materializes on demand; the search creates
//    vertices only as the DFS reaches them and aborts at the first
//    accepting cycle.
//
// Either way a concrete lasso (prefix + cycle) is returned for
// counterexample reporting.

#ifndef WSV_AUTOMATA_EMPTINESS_H_
#define WSV_AUTOMATA_EMPTINESS_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"

namespace wsv {

/// A witness for non-emptiness: `prefix` leads from an initial vertex to
/// `cycle.front()`; `cycle` returns to its own front (the edge from
/// cycle.back() to cycle.front() exists). prefix.back() == cycle.front().
struct Lasso {
  std::vector<int> prefix;
  std::vector<int> cycle;
};

/// Finds an accepting lasso in the graph, or nullopt if the Büchi
/// language is empty. `succ[v]` lists v's successors; `initial` and
/// `accepting` are per-vertex flags (vectors of size |V|).
std::optional<Lasso> FindAcceptingLasso(
    const std::vector<std::vector<int>>& succ,
    const std::vector<char>& initial, const std::vector<char>& accepting);

/// Work accounting for one nested-DFS run, for telemetry.
struct NestedDfsStats {
  /// Deepest blue-DFS stack observed (lasso prefixes are at most this
  /// long).
  uint64_t max_depth = 0;
  /// Vertices the blue DFS entered (each exactly once).
  uint64_t vertices_visited = 0;
};

/// Nested-DFS (CVWY) emptiness over an implicit graph. Vertex ids are
/// assigned by the caller (typically by interning product states on
/// first discovery); the search asks for them strictly on demand:
///
///  * `initial` — the initial vertices, searched in order.
///  * `succ(v)` — v's successor list. May be asked for a vertex more
///    than once (callers should memoize); the returned pointer and the
///    list contents must stay valid and unchanged until the search
///    ends. Errors (e.g. cancellation from a lazily expanded graph)
///    abort the search.
///  * `accepting(v)` — Büchi acceptance of v.
///  * `stop` — optional cooperative cancellation, polled about every
///    64 vertex expansions; returning true aborts with
///    Status::Cancelled.
///
/// Returns the first accepting lasso in DFS order, or nullopt if the
/// (reachable part of the) language is empty. The lasso satisfies the
/// Lasso contract above and its cycle passes through the accepting seed
/// vertex (cycle.front()). `stats` (may be null) is overwritten with
/// this run's work accounting.
StatusOr<std::optional<Lasso>> FindAcceptingLassoOnTheFly(
    const std::vector<int>& initial,
    const std::function<StatusOr<const std::vector<int>*>(int)>& succ,
    const std::function<bool(int)>& accepting,
    const std::function<bool()>& stop, NestedDfsStats* stats);

}  // namespace wsv

#endif  // WSV_AUTOMATA_EMPTINESS_H_
