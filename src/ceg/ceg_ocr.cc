#include "ceg/ceg_ocr.h"

#include <bit>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "query/subquery.h"

namespace cegraph::ceg {

namespace {

using query::EdgeSet;
using query::QueryEdge;
using query::QueryGraph;
using query::QVertex;

/// If adding query edge `close` to sub-query S completes a cycle of length
/// > h entirely contained in S ∪ {close}, returns that cycle's edge set
/// (smallest such cycle); otherwise 0.
EdgeSet FindClosedLongCycle(const std::vector<EdgeSet>& cycles, EdgeSet s,
                            uint32_t close, int h) {
  const EdgeSet close_bit = EdgeSet{1} << close;
  EdgeSet best = 0;
  int best_len = 0;
  for (EdgeSet cycle : cycles) {
    if (!(cycle & close_bit)) continue;
    if ((cycle & ~close_bit & ~s) != 0) continue;  // rest must be in S
    const int len = std::popcount(cycle);
    if (len <= h) continue;
    if (best == 0 || len < best_len) {
      best = cycle;
      best_len = len;
    }
  }
  return best;
}

/// Derives the ClosingKey for closing edge `close` of cycle `cycle`:
/// traverse the remaining path from close.dst around to close.src and
/// record the first/last edge orientations.
stats::ClosingKey MakeClosingKey(const QueryGraph& q, EdgeSet cycle,
                                 uint32_t close) {
  const QueryEdge& ce = q.edge(close);
  stats::ClosingKey key;
  key.close_label = ce.label;
  key.close_from_end = true;  // path runs close.dst -> ... -> close.src

  // Walk the cycle from close.dst to close.src along the non-close edges.
  QVertex cur = ce.dst;
  EdgeSet remaining = cycle & ~(EdgeSet{1} << close);
  bool first = true;
  while (remaining != 0) {
    // Find the unique remaining cycle edge incident to cur.
    uint32_t next_edge = 32;
    for (uint32_t ei : q.IncidentEdges(cur)) {
      if (remaining & (EdgeSet{1} << ei)) {
        next_edge = ei;
        break;
      }
    }
    if (next_edge == 32) break;  // defensive; cycles are closed walks
    const QueryEdge& e = q.edge(next_edge);
    const bool forward = (e.src == cur);
    if (first) {
      key.first_label = e.label;
      key.first_forward = forward;
      first = false;
    }
    key.last_label = e.label;
    key.last_forward = forward;
    cur = forward ? e.dst : e.src;
    remaining &= ~(EdgeSet{1} << next_edge);
  }
  return key;
}

}  // namespace

util::StatusOr<BuiltCegO> BuildCegOcr(const query::QueryGraph& q,
                                      const stats::MarkovTable& markov,
                                      const stats::CycleClosingRates& rates,
                                      const CegOOptions& options) {
  auto built = BuildCegO(q, markov, options);
  if (!built.ok()) return built.status();
  if (q.IsAcyclic()) return built;  // nothing to rewrite

  const std::vector<EdgeSet> cycles = query::SimpleCycles(q);
  const int h = markov.h();

  // Invert the node map to recover each CEG node's edge subset.
  std::vector<EdgeSet> subset_of_node(built->ceg.num_nodes(), 0);
  for (const auto& [subset, node] : built->node_of_subset) {
    subset_of_node[node] = subset;
  }

  // Rebuild the CEG, rewriting weights of cycle-closing single-edge
  // extensions. (Ceg edges are immutable; we reconstruct.)
  Ceg rewritten;
  for (uint32_t v = 0; v < built->ceg.num_nodes(); ++v) rewritten.AddNode();
  rewritten.SetSource(built->ceg.source());
  rewritten.SetSink(built->ceg.sink());

  for (const Ceg::Edge& e : built->ceg.edges()) {
    const EdgeSet s = subset_of_node[e.from];
    const EdgeSet target = subset_of_node[e.to];
    const EdgeSet added = target & ~s;
    double weight = std::exp2(e.log_weight);
    Ceg::EdgeKind kind = e.kind;
    if (s != 0 && std::popcount(added) == 1) {
      const uint32_t close =
          static_cast<uint32_t>(std::countr_zero(added));
      const EdgeSet cycle = FindClosedLongCycle(cycles, s, close, h);
      if (cycle != 0) {
        const stats::ClosingKey key = MakeClosingKey(q, cycle, close);
        weight = rates.Rate(key);
        kind = Ceg::EdgeKind::kClosingRate;
      }
    }
    rewritten.AddEdge(e.from, e.to, weight, kind);
  }

  built->ceg = std::move(rewritten);
  return built;
}

std::vector<stats::ClosingKey> EnumerateClosingKeys(
    const query::QueryGraph& q, int h) {
  std::vector<stats::ClosingKey> keys;
  if (q.IsAcyclic()) return keys;
  std::unordered_set<stats::ClosingKey, stats::ClosingKeyHash> seen;
  for (EdgeSet cycle : query::SimpleCycles(q)) {
    if (std::popcount(cycle) <= h) continue;
    for (EdgeSet rest = cycle; rest != 0; rest &= rest - 1) {
      const uint32_t close = static_cast<uint32_t>(std::countr_zero(rest));
      const stats::ClosingKey key = MakeClosingKey(q, cycle, close);
      if (seen.insert(key).second) keys.push_back(key);
    }
  }
  return keys;
}

}  // namespace cegraph::ceg
