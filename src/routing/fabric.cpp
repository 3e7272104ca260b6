#include "routing/fabric.h"

#include <algorithm>
#include <cassert>
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
  publisher_edges_ = topology.publisher_edges;
  std::vector<std::uint8_t> is_home(n, 0);
  for (const Subscription& sub : subscriptions_) is_home[sub.home] = 1;
  if (options_.repairable) {
    graph_ = topology.graph;
    link_down_.assign(graph_.edge_count());
    trees_.resize(n);
    subs_by_home_.resize(n);
    rows_by_sub_.resize(subscriptions_.size());
    for (std::size_t i = 0; i < subscriptions_.size(); ++i) {
      subs_by_home_[subscriptions_[i].home].push_back(i);
    }
  }

  // One shortest-path tree per distinct subscriber home, all from one
  // reverse adjacency and one workspace, and from each tree its home's
  // install plan: home h's rows are plan_rows[plan_begin[h] ..
  // plan_begin[h + 1]).  A plain fabric drops each tree once its plan is
  // derived; a repairable one keeps the trees and the adjacency for its
  // repairs.
  IncomingEdges incoming = incoming_edges(topology.graph);
  SptWorkspace workspace;
  PlanScratch scratch;
  std::vector<PlanRow> plan_rows;
  std::vector<std::size_t> plan_begin(n + 1);
  for (std::size_t h = 0; h < n; ++h) {
    plan_begin[h] = plan_rows.size();
    if (is_home[h] == 0) continue;
    ShortestPathTree tree = compute_tree_toward(
        topology.graph, incoming, static_cast<BrokerId>(h), workspace);
    derive_plan(topology.graph, tree, scratch, plan_rows);
    if (options_.repairable) trees_[h] = std::move(tree);
  }
  plan_begin[n] = plan_rows.size();
  if (options_.repairable) incoming_ = std::move(incoming);

  // Subscriptions in ascending order, each taking its home's plan, so every
  // table lists its rows by subscription and, within one, primary before
  // alternate.
  for (std::size_t si = 0; si < subscriptions_.size(); ++si) {
    const auto home = static_cast<std::size_t>(subscriptions_[si].home);
    for (std::size_t k = plan_begin[home]; k < plan_begin[home + 1]; ++k) {
      install_match_row(plan_rows[k].broker, append_row(si, plan_rows[k]));
    }
  }

  for (const Subscription& sub : subscriptions_) {
    const auto id = global_index_.add(sub.filter);
    for (const Filter& f : sub.or_filters) {
      global_index_.add_disjunct(id, f);
    }
  }
}

void RoutingFabric::derive_plan(const Graph& graph,
                                const ShortestPathTree& tree,
                                PlanScratch& scratch,
                                std::vector<PlanRow>& plan) const {
  const BrokerId home = tree.destination;
  std::vector<std::uint64_t>& mask = scratch.mask;
  std::vector<BrokerId>& touched = scratch.touched;
  mask.resize(graph.broker_count(), 0);
  scratch.extra.resize(graph.broker_count(), 0);
  touched.clear();
  // ORs `bits` into masks[b] for every broker b on the tree path from
  // `from` to the home, listing each broker the first time it is marked.
  const auto mark_path = [&tree, home](BrokerId from, std::uint64_t bits,
                                       std::vector<std::uint64_t>& masks,
                                       std::vector<BrokerId>& marked) {
    for (BrokerId b = from;; b = tree.next_hop[b]) {
      if (masks[b] == 0) marked.push_back(b);
      masks[b] |= bits;
      if (b == home) break;
    }
  };

  // The union of chosen publisher->home paths, remembering per broker
  // *which* publishers route through it (the publisher_mask guard; see
  // SubscriptionEntry).  The home broker always carries a local-delivery
  // row serving every publisher (a message can only arrive there along an
  // installed path).
  for (std::size_t p = 0; p < publisher_edges_.size(); ++p) {
    const BrokerId publisher_edge = publisher_edges_[p];
    if (tree.reachable[publisher_edge]) {
      mark_path(publisher_edge, 1ULL << p, mask, touched);
    }
  }
  if (mask[home] == 0) touched.push_back(home);
  mask[home] = ~0ULL;
  std::sort(touched.begin(), touched.end());

  // Multi-path: brokers on a primary path additionally forward toward
  // their second-best neighbour — which means every broker on that
  // neighbour's own (primary) path to the home must carry entries too, or
  // redundant copies would die unrouted.  One level of redundancy:
  // alternate-path brokers get primary entries only.
  std::vector<PlanRow>& alternates = scratch.alternates;
  alternates.clear();
  if (options_.multipath) {
    for (const BrokerId b : touched) {
      if (b == home) continue;
      PlanRow alternate{b, {}};
      const BrokerId alt = second_best_next_hop(
          graph, tree, b, tree.next_hop[b], &alternate.entry.path);
      if (alt == kNoBroker) continue;
      alternate.entry.next_hop = alt;
      alternate.entry.next_hop_edge = graph.edge_id(b, alt);
      alternates.push_back(alternate);
      mark_path(alt, mask[b], scratch.extra, scratch.extra_touched);
    }
    for (const BrokerId w : scratch.extra_touched) {
      if (mask[w] == 0) touched.push_back(w);
      mask[w] |= scratch.extra[w];
      scratch.extra[w] = 0;
    }
    scratch.extra_touched.clear();
    std::sort(touched.begin(), touched.end());
  }

  auto alternate = alternates.begin();
  for (const BrokerId b : touched) {
    PlanRow row{b, {}};
    row.entry.publisher_mask = mask[b];
    mask[b] = 0;
    if (b == home) {
      row.entry.next_hop = kNoBroker;
      row.entry.path = kLocalPath;
    } else {
      row.entry.next_hop = tree.next_hop[b];
      row.entry.next_hop_edge = graph.edge_id(b, row.entry.next_hop);
      row.entry.path = tree.stats[b];
    }
    plan.push_back(row);
    if (alternate != alternates.end() && alternate->broker == b) {
      alternate->entry.publisher_mask = row.entry.publisher_mask;
      plan.push_back(*alternate++);
    }
  }
}

std::uint32_t RoutingFabric::append_row(std::size_t sub_index,
                                        const PlanRow& plan_row) {
  SubscriptionEntry entry = plan_row.entry;
  entry.subscription = &subscriptions_[sub_index];
  SubscriptionTable& table = tables_[plan_row.broker];
  const auto row = static_cast<std::uint32_t>(table.size());
  table.add(entry);
  if (options_.repairable) {
    rows_by_sub_[sub_index].push_back(RowRef{plan_row.broker, row});
  }
  return row;
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
  if (!options_.repairable) {
    throw std::logic_error("tree_toward requires FabricOptions::repairable");
  }
  if (home < 0 || static_cast<std::size_t>(home) >= trees_.size() ||
      trees_[home].destination != home) {
    throw std::out_of_range("tree_toward: no subscription homed there");
  }
  return trees_[home];
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
  // Homes ascending, each home's subscriptions ascending: the order in
  // which rewritten rows are appended.
  SptWorkspace workspace;
  PlanScratch scratch;
  std::vector<PlanRow> plan;
  for (std::size_t home = 0; home < trees_.size(); ++home) {
    if (subs_by_home_[home].empty()) continue;
    ShortestPathTree& tree = trees_[home];
    const std::vector<BrokerId> changed = repair_tree_toward(
        graph_, incoming_, link_down_, edges_down, edges_up, tree, workspace);
    if (changed.empty()) continue;
    std::fill(changed_flags.begin(), changed_flags.end(), 0);
    for (const BrokerId b : changed) changed_flags[b] = 1;
    plan.clear();
    derive_plan(graph_, tree, scratch, plan);
    for (const std::size_t si : subs_by_home_[home]) {
      rewritten += reinstall(si, plan, changed_flags, retired);
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
    std::size_t sub_index, const std::vector<PlanRow>& plan,
    const std::vector<std::uint8_t>& changed,
    std::vector<std::uint8_t>& retired) {
  // Fast path: skip the rewrite when the install set, the masks and every
  // carrying broker's tree state are untouched by this repair.  The rows
  // and the plan both ascend by broker, so they compare pairwise.
  std::vector<RowRef>& rows = rows_by_sub_[sub_index];
  const auto unchanged = [&](const RowRef& r, const PlanRow& p) {
    return r.broker == p.broker && changed[r.broker] == 0 &&
           tables_[r.broker].entries()[r.row].publisher_mask ==
               p.entry.publisher_mask;
  };
  if (std::equal(rows.begin(), rows.end(), plan.begin(), plan.end(),
                 unchanged)) {
    return 0;
  }

  for (const RowRef& r : rows) {
    tables_[r.broker].entry_at(r.row).disabled = true;
    retired[r.broker] = 1;
  }
  rows.clear();
  for (const PlanRow& plan_row : plan) append_row(sub_index, plan_row);
  return plan.size();
}

}  // namespace bdps
