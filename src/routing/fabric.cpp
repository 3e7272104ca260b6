#include "routing/fabric.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <utility>

namespace bdps {

namespace {

/// Second-best forwarding choice at `broker` toward the tree's destination:
/// the out-neighbour v != primary minimising link(broker->v) + dist(v),
/// skipping neighbours that would immediately bounce the copy back.
/// Returns kNoBroker when no alternative exists.
BrokerId second_best_next_hop(const Graph& graph, const ShortestPathTree& tree,
                              BrokerId broker, BrokerId primary,
                              PathStats* stats_out) {
  BrokerId best = kNoBroker;
  double best_mean = 0.0;
  PathStats best_stats;
  for (const EdgeId e : graph.out_edges(broker)) {
    const Edge& edge = graph.edge(e);
    const BrokerId v = edge.to;
    if (v == primary || !tree.reachable[v]) continue;
    if (tree.next_hop[v] == broker) continue;  // Immediate bounce-back.
    const PathStats candidate = tree.stats[v].then_link(edge.link.params());
    if (best == kNoBroker || candidate.mean_ms_per_kb < best_mean) {
      best = v;
      best_mean = candidate.mean_ms_per_kb;
      best_stats = candidate;
    }
  }
  if (best != kNoBroker && stats_out != nullptr) *stats_out = best_stats;
  return best;
}

}  // namespace

RoutingFabric::RoutingFabric(const Topology& topology,
                             std::vector<Subscription> subscriptions,
                             FabricOptions options)
    : options_(options), subscriptions_(std::move(subscriptions)) {
  if (options_.repairable && options_.multipath) {
    throw std::invalid_argument(
        "repairable fabric does not support multipath (alternate rows are "
        "not repaired)");
  }
  const std::size_t n = topology.graph.broker_count();
  // Reject bad input before any tree is built.
  if (topology.publisher_edges.size() > 64) {
    throw std::invalid_argument(
        "RoutingFabric supports at most 64 publishers (publisher_mask)");
  }
  const auto outside = [n](BrokerId b) {
    return b < 0 || static_cast<std::size_t>(b) >= n;
  };
  for (const BrokerId publisher_edge : topology.publisher_edges) {
    if (outside(publisher_edge)) {
      throw std::invalid_argument("publisher edge broker outside the graph");
    }
  }
  for (const Subscription& sub : subscriptions_) {
    if (outside(sub.home)) {
      throw std::invalid_argument("subscription home outside the graph");
    }
  }
  tables_.resize(n);
  broker_indexes_.resize(n);
  row_of_id_.resize(n);
  if (options_.repairable) {
    graph_ = topology.graph;
    publisher_edges_ = topology.publisher_edges;
    link_down_.assign(graph_.edge_count());
    rows_by_sub_.resize(subscriptions_.size());
    for (std::size_t i = 0; i < subscriptions_.size(); ++i) {
      subs_by_home_[subscriptions_[i].home].push_back(i);
    }
  }

  // One shortest-path tree per distinct subscriber home broker, all from
  // one reverse adjacency and one workspace.  A repairable fabric keeps the
  // adjacency for its repairs.
  IncomingEdges incoming = incoming_edges(topology.graph);
  SptWorkspace workspace;
  for (const Subscription& sub : subscriptions_) {
    if (!trees_.count(sub.home)) {
      trees_.emplace(sub.home, compute_tree_toward(topology.graph, incoming,
                                                   sub.home, workspace));
    }
  }
  if (options_.repairable) incoming_ = std::move(incoming);

  // Install each subscription on the union of chosen publisher->home paths,
  // remembering per broker *which* publishers route through it (the
  // publisher_mask guard; see SubscriptionEntry).
  for (std::size_t si = 0; si < subscriptions_.size(); ++si) {
    const Subscription& sub = subscriptions_[si];
    const ShortestPathTree& tree = trees_.at(sub.home);
    std::map<BrokerId, std::uint64_t> installed;  // broker -> publisher mask
    for (std::size_t p = 0; p < topology.publisher_edges.size(); ++p) {
      const BrokerId publisher_edge = topology.publisher_edges[p];
      if (!tree.reachable[publisher_edge]) continue;
      for (const BrokerId broker : tree.path_from(publisher_edge)) {
        installed[broker] |= 1ULL << p;
      }
    }
    // The home broker always carries a local-delivery row serving every
    // publisher (a message can only arrive there along an installed path).
    installed[sub.home] = ~0ULL;

    // Multi-path: brokers on a primary path additionally forward toward
    // their second-best neighbour — which means every broker on that
    // neighbour's own (primary) path to the home must carry entries too,
    // or redundant copies would die unrouted.  One level of redundancy:
    // alternate-path brokers get primary entries only.
    std::map<BrokerId, BrokerId> alt_hops;  // primary broker -> alt neighbour
    if (options.multipath) {
      std::map<BrokerId, std::uint64_t> extra;
      for (const auto& [broker, mask] : installed) {
        if (broker == sub.home) continue;
        const BrokerId alt = second_best_next_hop(
            topology.graph, tree, broker, tree.next_hop[broker], nullptr);
        if (alt == kNoBroker) continue;
        alt_hops[broker] = alt;
        for (const BrokerId w : tree.path_from(alt)) {
          extra[w] |= mask;
        }
      }
      for (const auto& [broker, mask] : extra) {
        installed[broker] |= mask;
      }
    }

    for (const auto& [broker, mask] : installed) {
      SubscriptionEntry entry;
      entry.subscription = &sub;
      entry.publisher_mask = mask;
      if (broker == sub.home) {
        entry.next_hop = kNoBroker;
        entry.path = kLocalPath;
      } else {
        entry.next_hop = tree.next_hop[broker];
        entry.next_hop_edge =
            topology.graph.edge_id(broker, entry.next_hop);
        entry.path = tree.stats[broker];
      }
      const auto row = static_cast<std::uint32_t>(tables_[broker].size());
      if (options_.repairable) {
        rows_by_sub_[si].push_back(RowRef{broker, row});
      }
      tables_[broker].add(entry);
      install_match_row(broker, row);

      const auto alt_it = alt_hops.find(broker);
      if (alt_it != alt_hops.end()) {
        PathStats alt_stats;
        const BrokerId alt = second_best_next_hop(
            topology.graph, tree, broker, entry.next_hop, &alt_stats);
        if (alt == alt_it->second) {
          SubscriptionEntry alt_entry = entry;
          alt_entry.next_hop = alt;
          alt_entry.next_hop_edge = topology.graph.edge_id(broker, alt);
          alt_entry.path = alt_stats;
          tables_[broker].add(alt_entry);
          install_match_row(broker, row + 1);
        }
      }
    }
  }

  for (const Subscription& sub : subscriptions_) {
    const auto id = global_index_.add(sub.filter);
    for (const Filter& f : sub.or_filters) {
      global_index_.add_disjunct(id, f);
    }
  }
}

void RoutingFabric::install_match_row(BrokerId broker, std::uint32_t row) {
  const Subscription& sub = *tables_[broker].entries()[row].subscription;
  SubscriptionIndex& index = broker_indexes_[broker];
  const auto id = index.add(sub.filter);
  for (const Filter& f : sub.or_filters) index.add_disjunct(id, f);
  std::vector<std::uint32_t>& rows = row_of_id_[broker];
  assert(id == rows.size() && (rows.empty() || rows.back() < row) &&
         "index ids must map to ascending table rows");
  rows.push_back(row);
}

void RoutingFabric::compact_match_rows(BrokerId broker) {
  broker_indexes_[broker] = SubscriptionIndex();
  row_of_id_[broker].clear();
  const auto& entries = tables_[broker].entries();
  for (std::size_t row = 0; row < entries.size(); ++row) {
    if (!entries[row].disabled) {
      install_match_row(broker, static_cast<std::uint32_t>(row));
    }
  }
}

std::vector<const SubscriptionEntry*> RoutingFabric::match_at(
    BrokerId broker, const Message& message) const {
  std::vector<const SubscriptionEntry*> matched;
  match_at(broker, message, matched);
  return matched;
}

void RoutingFabric::match_at(
    BrokerId broker, const Message& message,
    std::vector<const SubscriptionEntry*>& out) const {
  out.clear();
  const auto& entries = tables_[broker].entries();
  const std::vector<std::uint32_t>& row_of_id = row_of_id_[broker];
  for (const auto id : broker_indexes_[broker].match(message)) {
    out.push_back(&entries[row_of_id[id]]);
  }
}

const std::vector<std::size_t>& RoutingFabric::match_all(
    const Message& message) const {
  return global_index_.match(message);
}

const ShortestPathTree& RoutingFabric::tree_toward(BrokerId home) const {
  return trees_.at(home);
}

std::size_t RoutingFabric::apply_link_state(
    const std::vector<EdgeId>& edges_down,
    const std::vector<EdgeId>& edges_up) {
  if (!options_.repairable) {
    throw std::logic_error(
        "apply_link_state requires FabricOptions::repairable");
  }
  for (const EdgeId e : edges_down) link_down_.set(e);
  for (const EdgeId e : edges_up) link_down_.reset(e);

  std::size_t rewritten = 0;
  std::vector<std::uint8_t> changed_flags(tables_.size(), 0);
  std::vector<std::uint8_t> retired(tables_.size(), 0);
  std::vector<std::size_t> rows_before(tables_.size());
  for (std::size_t b = 0; b < tables_.size(); ++b) {
    rows_before[b] = tables_[b].size();
  }
  SptWorkspace workspace;
  for (auto& [home, tree] : trees_) {
    const std::vector<BrokerId> changed = repair_tree_toward(
        graph_, incoming_, link_down_, edges_down, edges_up, tree, workspace);
    if (changed.empty()) continue;
    std::fill(changed_flags.begin(), changed_flags.end(), 0);
    for (const BrokerId b : changed) changed_flags[b] = 1;
    for (const std::size_t si : subs_by_home_.at(home)) {
      rewritten += reinstall(si, tree, changed_flags, retired);
    }
  }

  // Bring each broker's index up to its table once per batch: a broker
  // that retired a row is rebuilt from its enabled rows (so retired rows
  // leave the match path), one that only gained rows indexes the new tail.
  for (std::size_t b = 0; b < tables_.size(); ++b) {
    const auto broker = static_cast<BrokerId>(b);
    if (retired[b] != 0) {
      compact_match_rows(broker);
      continue;
    }
    for (std::size_t row = rows_before[b]; row < tables_[b].size(); ++row) {
      install_match_row(broker, static_cast<std::uint32_t>(row));
    }
  }
  return rewritten;
}

std::size_t RoutingFabric::reinstall(
    std::size_t sub_index, const ShortestPathTree& tree,
    const std::vector<std::uint8_t>& changed,
    std::vector<std::uint8_t>& retired) {
  const Subscription& sub = subscriptions_[sub_index];
  // Desired install set from the repaired tree — the constructor's
  // publisher-path union (single-path; repairable excludes multipath).
  std::map<BrokerId, std::uint64_t> installed;
  for (std::size_t p = 0; p < publisher_edges_.size(); ++p) {
    const BrokerId publisher_edge = publisher_edges_[p];
    if (!tree.reachable[publisher_edge]) continue;
    for (const BrokerId broker : tree.path_from(publisher_edge)) {
      installed[broker] |= 1ULL << p;
    }
  }
  installed[sub.home] = ~0ULL;

  // Fast path: skip the rewrite when the install set, the masks and every
  // carrying broker's tree state are untouched by this repair.
  std::vector<RowRef>& rows = rows_by_sub_[sub_index];
  bool identical = rows.size() == installed.size();
  if (identical) {
    for (const RowRef& r : rows) {
      const auto it = installed.find(r.broker);
      if (it == installed.end() || changed[r.broker] != 0 ||
          tables_[r.broker].entry_at(r.row).publisher_mask != it->second) {
        identical = false;
        break;
      }
    }
  }
  if (identical) return 0;

  for (const RowRef& r : rows) {
    tables_[r.broker].entry_at(r.row).disabled = true;
    retired[r.broker] = 1;
  }
  rows.clear();
  for (const auto& [broker, mask] : installed) {
    SubscriptionEntry entry;
    entry.subscription = &sub;
    entry.publisher_mask = mask;
    if (broker == sub.home) {
      entry.next_hop = kNoBroker;
      entry.path = kLocalPath;
    } else {
      entry.next_hop = tree.next_hop[broker];
      entry.next_hop_edge = graph_.edge_id(broker, entry.next_hop);
      entry.path = tree.stats[broker];
    }
    rows.push_back(RowRef{
        broker, static_cast<std::uint32_t>(tables_[broker].size())});
    tables_[broker].add(entry);
  }
  return installed.size();
}

}  // namespace bdps
