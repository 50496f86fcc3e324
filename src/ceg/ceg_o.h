#ifndef CEGRAPH_CEG_CEG_O_H_
#define CEGRAPH_CEG_CEG_O_H_

#include <string>
#include <unordered_map>

#include "ceg/ceg.h"
#include "query/query_graph.h"
#include "stats/markov_table.h"
#include "util/status.h"

namespace cegraph::ceg {

/// Construction options for CEG_O (§4.2). Both rules default to on, as in
/// the paper; the ablation benches toggle them.
struct CegOOptions {
  /// Rule 1: extension patterns (numerators) must have exactly
  /// min(h, |S'|) edges. When off, any extension size in [|S'\S|, h] is
  /// admitted.
  bool size_h_numerators = true;
  /// Rule 2 (early cycle closing, from [20]): if any candidate extension of
  /// S closes a cycle, only cycle-closing extensions of S are kept.
  bool early_cycle_closing = true;
};

/// CEG_O with its node <-> sub-query correspondence. Node 0 is the empty
/// sub-query (source); the sink is the node of the full query.
struct BuiltCegO {
  Ceg ceg;
  /// Node id per connected edge subset (plus 0 -> source).
  std::unordered_map<query::EdgeSet, uint32_t> node_of_subset;
  /// Provenance per CEG edge (aligned with ceg.edges()): the extension
  /// pattern E and the intersection I = E ∩ S behind the edge's weight
  /// (I = 0 for first hops). Consumed by estimators that re-weight edges,
  /// e.g. the dispersion-guided path pick (§8 future work), and by
  /// DescribeEdge.
  struct EdgeProvenance {
    query::EdgeSet pattern = 0;
    query::EdgeSet intersection = 0;
  };
  std::vector<EdgeProvenance> edge_provenance;
};

/// Builds the optimistic CEG of `q` over `markov` (§4.2):
///  - one vertex per connected subset S of q's edges (plus the empty set);
///  - an edge S -> S' = S ∪ E for every Markov-table pattern E (connected,
///    |E| <= h) that intersects S in a connected, non-empty I = E ∩ S and
///    adds at least one edge, with weight |E| / |I|;
///  - edges from the empty set carry the raw pattern cardinality |E|.
/// Fails if any required Markov-table entry cannot be computed.
util::StatusOr<BuiltCegO> BuildCegO(const query::QueryGraph& q,
                                    const stats::MarkovTable& markov,
                                    const CegOOptions& options = {});

/// One edge of `built` as the formula behind its weight, in the query's
/// edge numbering: "|{e0,e1}|" for a first hop, "|{e0,e1}|/|{e1}|" for an
/// extension rate |E|/|I|, and "closing-rate(e3)" for an edge CEG_OCR
/// re-weighted with the closing probability of query edge e3.
std::string DescribeEdge(const BuiltCegO& built, uint32_t edge_index);

}  // namespace cegraph::ceg

#endif  // CEGRAPH_CEG_CEG_O_H_
