#include "ceg/ceg_o.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "query/subquery.h"

namespace cegraph::ceg {

namespace {

using query::EdgeSet;
using query::QueryGraph;

/// "{e0,e2}": the query edges of `s`, by index.
std::string SubsetText(EdgeSet s) {
  std::string text = "{";
  for (; s != 0; s &= s - 1) {
    if (text.size() > 1) text += ",";
    text += 'e';
    text += std::to_string(std::countr_zero(s));
  }
  return text + "}";
}

}  // namespace

util::StatusOr<BuiltCegO> BuildCegO(const query::QueryGraph& q,
                                    const stats::MarkovTable& markov,
                                    const CegOOptions& options) {
  if (q.num_edges() == 0 || !q.IsConnected()) {
    return util::InvalidArgumentError("query must be non-empty and connected");
  }
  const int h = markov.h();
  const EdgeSet all = q.AllEdges();

  // All connected subsets; CEG nodes.
  const std::vector<EdgeSet> subsets = query::ConnectedSubsets(q);

  // Candidate extension patterns: connected subsets with <= h edges.
  std::vector<EdgeSet> patterns;
  for (EdgeSet s : subsets) {
    if (std::popcount(s) <= h) patterns.push_back(s);
  }

  // Per-query cache of sub-pattern cardinalities, keyed by edge subset.
  std::unordered_map<EdgeSet, double> card;
  auto cardinality = [&](EdgeSet s) -> util::StatusOr<double> {
    auto it = card.find(s);
    if (it != card.end()) return it->second;
    auto c = markov.Cardinality(q.ExtractPattern(s));
    if (!c.ok()) return c.status();
    card.emplace(s, *c);
    return *c;
  };

  BuiltCegO out;
  // Each node is extended by at most one candidate per pattern.
  out.ceg.ReserveEdges((subsets.size() + 1) * patterns.size());
  const uint32_t source = out.ceg.AddNode();
  out.ceg.SetSource(source);
  out.node_of_subset.emplace(0, source);
  for (EdgeSet s : subsets) {
    out.node_of_subset.emplace(s, out.ceg.AddNode());
  }
  out.ceg.SetSink(out.node_of_subset.at(all));

  // Candidate edge: one extension of S by pattern E.
  struct Candidate {
    EdgeSet target;
    EdgeSet pattern;      // E
    EdgeSet intersection; // I = E ∩ S (0 for first hops)
  };

  // Expand every node (including the source as S = 0).
  std::vector<EdgeSet> nodes_to_expand;
  nodes_to_expand.push_back(0);
  nodes_to_expand.insert(nodes_to_expand.end(), subsets.begin(),
                         subsets.end());

  for (EdgeSet s : nodes_to_expand) {
    if (s == all) continue;
    std::vector<Candidate> candidates;

    for (EdgeSet e : patterns) {
      const EdgeSet i = e & s;
      const EdgeSet d = e & ~s;
      if (d == 0) continue;  // adds nothing
      const EdgeSet target = s | e;
      const int e_size = std::popcount(e);
      const int target_size = std::popcount(target);

      if (s == 0) {
        // First hop: the path starts at a full pattern; rule 1 demands the
        // largest available pattern size.
        if (i != 0) continue;  // unreachable for s == 0, kept for clarity
        const int required = std::min<int>(h, std::popcount(all));
        if (options.size_h_numerators && e_size != required) continue;
        candidates.push_back({target, e, 0});
        continue;
      }

      if (i == 0) continue;  // extensions must overlap the sub-query
      if (!q.IsConnectedSubset(i)) continue;  // I must be a table pattern
      if (options.size_h_numerators) {
        const int required = std::min<int>(h, target_size);
        if (e_size != required) continue;
      }
      // S' = S ∪ E is connected because S and E are connected and overlap.
      candidates.push_back({target, e, i});
    }

    if (candidates.empty() && s != all) {
      // With rule 1 strict there can be corner cases (e.g. |S'| smaller
      // than h is impossible mid-path); relax to any pattern size for this
      // node so the CEG stays connected.
      for (EdgeSet e : patterns) {
        const EdgeSet i = e & s;
        const EdgeSet d = e & ~s;
        if (d == 0) continue;
        if (s != 0 && (i == 0 || !q.IsConnectedSubset(i))) continue;
        candidates.push_back({s | e, e, s == 0 ? EdgeSet{0} : i});
      }
    }

    if (options.early_cycle_closing && !q.IsAcyclic()) {
      const int s_cycles = s == 0 ? 0 : q.CyclomaticNumber(s);
      bool any_closing = false;
      for (const Candidate& c : candidates) {
        if (q.CyclomaticNumber(c.target) > s_cycles) {
          any_closing = true;
          break;
        }
      }
      if (any_closing) {
        std::erase_if(candidates, [&](const Candidate& c) {
          return q.CyclomaticNumber(c.target) <= s_cycles;
        });
      }
    }

    for (const Candidate& c : candidates) {
      auto e_card = cardinality(c.pattern);
      if (!e_card.ok()) return e_card.status();
      double weight;
      if (c.intersection == 0) {
        weight = *e_card;
      } else {
        auto i_card = cardinality(c.intersection);
        if (!i_card.ok()) return i_card.status();
        if (*i_card == 0) {
          // The conditioning sub-query is empty: the full query is empty
          // too; a zero-weight edge propagates estimate 0.
          weight = 0;
        } else {
          weight = *e_card / *i_card;
        }
      }
      out.ceg.AddEdge(out.node_of_subset.at(s),
                      out.node_of_subset.at(c.target), weight);
      out.edge_provenance.push_back({c.pattern, c.intersection});
    }
  }

  return out;
}

std::string DescribeEdge(const BuiltCegO& built, uint32_t edge_index) {
  const BuiltCegO::EdgeProvenance& p = built.edge_provenance[edge_index];
  if (built.ceg.edges()[edge_index].kind == Ceg::EdgeKind::kClosingRate) {
    // The rewritten edge adds exactly the closing query edge.
    std::string text = "closing-rate(e";
    text += std::to_string(std::countr_zero(p.pattern & ~p.intersection));
    return text + ")";
  }
  std::string text = "|";
  text += SubsetText(p.pattern) + "|";
  if (p.intersection != 0) text += "/|" + SubsetText(p.intersection) + "|";
  return text;
}

}  // namespace cegraph::ceg
