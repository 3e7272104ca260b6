// Table differential for RoutingFabric's install: every table row, in row
// order, must equal what the per-subscription algorithm builds — one tree
// per home from compute_tree_toward, and for each subscription a std::map
// union of its publishers' paths (plus, multipath, the second-best hop and
// its path), installed in ascending subscription order.  The fabric
// instead derives one plan per home and copies it; this pins the two to
// the same rows, masks, PathStats bits and match_at order.
//
// The repairable case also replays the per-subscription repair (repair each
// tree in ascending home order, rebuild each of its subscriptions' install
// maps, keep the rows when nothing they depend on moved, else disable them
// and append the new set) across fail/recover batches: the whole table,
// retired rows included, must stay equal, and the enabled rows must equal
// a fresh per-subscription install from the repaired trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "topology/builders.h"
#include "tree_identity.h"
#include "workload/generator.h"

namespace bdps {
namespace {

constexpr std::size_t kBrokers = 256;
constexpr std::size_t kPublishers = 8;
constexpr std::size_t kSubscriptions = kBrokers * 4;

using Tables = std::vector<std::vector<SubscriptionEntry>>;

struct RowRef {
  BrokerId broker;
  std::size_t row;
};

ChurnWorkloadConfig churn_config() {
  ChurnWorkloadConfig config;
  config.seed = 29;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  return config;
}

/// Subscriptions at the topology's subscriber homes with ChurnWorkload
/// filters; about one in five also carries an OR disjunct.
std::vector<Subscription> make_subscriptions(const Topology& topo) {
  ChurnWorkload workload(churn_config());
  Rng aux(7);
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < topo.subscriber_homes.size(); ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = topo.subscriber_homes[s];
    sub.allowed_delay = minutes(2.0);
    sub.price = 1.0;
    sub.filter = workload.next_filter();
    if (aux.uniform() < 0.2) sub.or_filters.push_back(workload.next_filter());
    subs.push_back(std::move(sub));
  }
  return subs;
}

std::vector<Message> probe_messages(std::size_t count) {
  ChurnWorkload workload(churn_config());
  for (std::size_t skip = 0; skip < kSubscriptions; ++skip) {
    workload.next_filter();
  }
  std::vector<Message> probes;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(workload.next_message());
  }
  return probes;
}

// ---- The per-subscription algorithm ----

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
    if (tree.next_hop[v] == broker) continue;
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

std::map<BrokerId, std::uint64_t> publisher_union(
    const std::vector<BrokerId>& publishers, const ShortestPathTree& tree) {
  std::map<BrokerId, std::uint64_t> installed;
  for (std::size_t p = 0; p < publishers.size(); ++p) {
    if (!tree.reachable[publishers[p]]) continue;
    for (const BrokerId broker : tree.path_from(publishers[p])) {
      installed[broker] |= 1ULL << p;
    }
  }
  installed[tree.destination] = ~0ULL;
  return installed;
}

SubscriptionEntry primary_entry(const Graph& graph,
                                const ShortestPathTree& tree,
                                const Subscription& sub, BrokerId broker,
                                std::uint64_t mask) {
  SubscriptionEntry entry;
  entry.subscription = &sub;
  entry.publisher_mask = mask;
  if (broker == sub.home) {
    entry.next_hop = kNoBroker;
    entry.path = kLocalPath;
  } else {
    entry.next_hop = tree.next_hop[broker];
    entry.next_hop_edge = graph.edge_id(broker, entry.next_hop);
    entry.path = tree.stats[broker];
  }
  return entry;
}

/// Appends `sub`'s rows to `tables`; `rows` (when given) receives the
/// primary rows' positions.
void install_subscription(const Graph& graph,
                          const std::vector<BrokerId>& publishers,
                          const ShortestPathTree& tree,
                          const Subscription& sub, bool multipath,
                          Tables& tables, std::vector<RowRef>* rows) {
  std::map<BrokerId, std::uint64_t> installed =
      publisher_union(publishers, tree);
  std::map<BrokerId, BrokerId> alt_hops;
  if (multipath) {
    std::map<BrokerId, std::uint64_t> extra;
    for (const auto& [broker, mask] : installed) {
      if (broker == sub.home) continue;
      const BrokerId alt = second_best_next_hop(
          graph, tree, broker, tree.next_hop[broker], nullptr);
      if (alt == kNoBroker) continue;
      alt_hops[broker] = alt;
      for (const BrokerId w : tree.path_from(alt)) extra[w] |= mask;
    }
    for (const auto& [broker, mask] : extra) installed[broker] |= mask;
  }
  for (const auto& [broker, mask] : installed) {
    const SubscriptionEntry entry =
        primary_entry(graph, tree, sub, broker, mask);
    if (rows != nullptr) rows->push_back(RowRef{broker, tables[broker].size()});
    tables[broker].push_back(entry);
    if (alt_hops.count(broker) != 0) {
      SubscriptionEntry alt_entry = entry;
      alt_entry.next_hop = second_best_next_hop(graph, tree, broker,
                                                entry.next_hop,
                                                &alt_entry.path);
      alt_entry.next_hop_edge = graph.edge_id(broker, alt_entry.next_hop);
      tables[broker].push_back(alt_entry);
    }
  }
}

/// The per-subscription fabric: trees from compute_tree_toward, tables from
/// install_subscription, repair by per-subscription map comparison.
class ReferenceFabric {
 public:
  ReferenceFabric(const Topology& topo, const RoutingFabric& fabric,
                  bool multipath)
      : graph_(topo.graph),
        publishers_(topo.publisher_edges),
        incoming_(incoming_edges(topo.graph)),
        tables_(topo.graph.broker_count()),
        rows_by_sub_(fabric.subscription_count()) {
    down_.assign(graph_.edge_count());
    for (std::size_t si = 0; si < fabric.subscription_count(); ++si) {
      const Subscription& sub = fabric.subscription(si);
      subs_.push_back(&sub);
      subs_by_home_[sub.home].push_back(si);
      if (trees_.count(sub.home) == 0) {
        trees_.emplace(sub.home, compute_tree_toward(graph_, sub.home));
      }
    }
    for (std::size_t si = 0; si < subs_.size(); ++si) {
      install_subscription(graph_, publishers_, trees_.at(subs_[si]->home),
                           *subs_[si], multipath, tables_, &rows_by_sub_[si]);
    }
  }

  const Tables& tables() const { return tables_; }
  const std::map<BrokerId, ShortestPathTree>& trees() const { return trees_; }

  /// Returns the number of rows appended.
  std::size_t apply_link_state(const std::vector<EdgeId>& edges_down,
                               const std::vector<EdgeId>& edges_up) {
    for (const EdgeId e : edges_down) down_.set(e);
    for (const EdgeId e : edges_up) down_.reset(e);
    std::size_t appended = 0;
    for (auto& [home, tree] : trees_) {
      const std::vector<BrokerId> changed = repair_tree_toward(
          graph_, incoming_, down_, edges_down, edges_up, tree);
      if (changed.empty()) continue;
      for (const std::size_t si : subs_by_home_.at(home)) {
        appended += reinstall(si, tree, changed);
      }
    }
    return appended;
  }

 private:
  std::size_t reinstall(std::size_t si, const ShortestPathTree& tree,
                        const std::vector<BrokerId>& changed) {
    const std::map<BrokerId, std::uint64_t> installed =
        publisher_union(publishers_, tree);
    std::vector<RowRef>& rows = rows_by_sub_[si];
    bool identical = rows.size() == installed.size();
    for (std::size_t i = 0; identical && i < rows.size(); ++i) {
      const auto it = installed.find(rows[i].broker);
      identical = it != installed.end() &&
                  !std::binary_search(changed.begin(), changed.end(),
                                      rows[i].broker) &&
                  tables_[rows[i].broker][rows[i].row].publisher_mask ==
                      it->second;
    }
    if (identical) return 0;
    for (const RowRef& r : rows) tables_[r.broker][r.row].disabled = true;
    rows.clear();
    for (const auto& [broker, mask] : installed) {
      rows.push_back(RowRef{broker, tables_[broker].size()});
      tables_[broker].push_back(
          primary_entry(graph_, tree, *subs_[si], broker, mask));
    }
    return installed.size();
  }

  Graph graph_;
  std::vector<BrokerId> publishers_;
  IncomingEdges incoming_;
  EdgeFlags down_;
  Tables tables_;
  std::vector<const Subscription*> subs_;
  std::map<BrokerId, ShortestPathTree> trees_;
  std::map<BrokerId, std::vector<std::size_t>> subs_by_home_;
  std::vector<std::vector<RowRef>> rows_by_sub_;
};

// ---- Comparisons ----

::testing::AssertionResult same_entry(const SubscriptionEntry& a,
                                      const SubscriptionEntry& b) {
  if (a.subscription != b.subscription || a.next_hop != b.next_hop ||
      a.next_hop_edge != b.next_hop_edge ||
      a.publisher_mask != b.publisher_mask || a.disabled != b.disabled ||
      a.path.hop_brokers != b.path.hop_brokers ||
      !bdps_test::same_bits(a.path.mean_ms_per_kb, b.path.mean_ms_per_kb) ||
      !bdps_test::same_bits(a.path.variance, b.path.variance)) {
    return ::testing::AssertionFailure()
           << "subscriber " << a.subscription->subscriber << " vs "
           << b.subscription->subscriber << ", next hop " << a.next_hop
           << " vs " << b.next_hop << ", mask " << a.publisher_mask << " vs "
           << b.publisher_mask << ", disabled " << a.disabled << " vs "
           << b.disabled;
  }
  return ::testing::AssertionSuccess();
}

/// Every table equals the reference row for row; returns the row total.
std::size_t expect_same_tables(const RoutingFabric& fabric,
                               const Tables& expect,
                               const std::string& phase) {
  std::size_t rows = 0;
  for (std::size_t b = 0; b < expect.size(); ++b) {
    const auto& entries = fabric.table(static_cast<BrokerId>(b)).entries();
    EXPECT_EQ(entries.size(), expect[b].size()) << phase << ", broker " << b;
    if (entries.size() != expect[b].size()) continue;
    for (std::size_t row = 0; row < entries.size(); ++row) {
      EXPECT_TRUE(same_entry(entries[row], expect[b][row]))
          << phase << ", broker " << b << " row " << row;
    }
    rows += entries.size();
  }
  return rows;
}

bool matches(const Subscription& sub, const Message& message) {
  return sub.filter.matches(message) ||
         std::any_of(sub.or_filters.begin(), sub.or_filters.end(),
                     [&](const Filter& f) { return f.matches(message); });
}

/// match_at returns the reference's enabled matching rows in ascending row
/// order, on every broker; returns the matched-row total.
std::size_t expect_same_match_order(const RoutingFabric& fabric,
                                    const Tables& expect,
                                    const std::vector<Message>& probes,
                                    const std::string& phase) {
  std::size_t matched = 0;
  std::vector<const SubscriptionEntry*> out;
  for (std::size_t b = 0; b < expect.size(); ++b) {
    const auto broker = static_cast<BrokerId>(b);
    const auto& entries = fabric.table(broker).entries();
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<const SubscriptionEntry*> rows;
      for (std::size_t row = 0; row < expect[b].size(); ++row) {
        if (!expect[b][row].disabled &&
            matches(*expect[b][row].subscription, probes[p])) {
          rows.push_back(&entries[row]);
        }
      }
      fabric.match_at(broker, probes[p], out);
      EXPECT_EQ(out, rows) << phase << ", broker " << b << " probe " << p;
      matched += rows.size();
    }
  }
  return matched;
}

/// A broker's enabled rows, ordered by subscription (one row each on
/// single-path tables).
std::vector<SubscriptionEntry> enabled_by_subscription(
    const std::deque<SubscriptionEntry>& entries) {
  std::vector<SubscriptionEntry> enabled;
  for (const SubscriptionEntry& entry : entries) {
    if (!entry.disabled) enabled.push_back(entry);
  }
  std::sort(enabled.begin(), enabled.end(),
            [](const SubscriptionEntry& a, const SubscriptionEntry& b) {
              return a.subscription->subscriber < b.subscription->subscriber;
            });
  return enabled;
}

// ---- The test ----

TEST(RoutingFabric, TablesEqualPerSubscriptionInstall) {
  Rng rng(11);
  const Topology topo = build_scale_free(rng, kBrokers, 4, kPublishers,
                                         kSubscriptions, 50.0, 100.0, 20.0);
  const std::vector<Subscription> subs = make_subscriptions(topo);
  const std::vector<Message> probes = probe_messages(24);

  for (const char* mode : {"plain", "multipath", "repairable"}) {
    SCOPED_TRACE(mode);
    FabricOptions options;
    options.multipath = std::string(mode) == "multipath";
    options.repairable = std::string(mode) == "repairable";
    RoutingFabric fabric(topo, subs, options);
    ReferenceFabric reference(topo, fabric, options.multipath);

    const std::size_t rows =
        expect_same_tables(fabric, reference.tables(), "install");
    EXPECT_GT(rows, kSubscriptions * 3);
    EXPECT_GT(expect_same_match_order(fabric, reference.tables(), probes,
                                      "install"),
              0u);
    if (!options.repairable) {
      EXPECT_THROW(fabric.tree_toward(topo.subscriber_homes[0]),
                   std::logic_error);
      continue;
    }

    // Each cycle fails, in one batch, the first link (both directions) of
    // two publishers' paths toward the next subscription's home, when the
    // two links differ, and then recovers both in one batch.
    std::size_t cycles = 0;
    std::size_t batch = 0;
    const auto apply = [&](const std::vector<EdgeId>& down,
                           const std::vector<EdgeId>& up) {
      const std::string phase = "batch " + std::to_string(++batch);
      const std::size_t appended = fabric.apply_link_state(down, up);
      EXPECT_EQ(appended, reference.apply_link_state(down, up)) << phase;
      EXPECT_GT(appended, 0u) << phase;
      for (const auto& [home, tree] : reference.trees()) {
        ASSERT_TRUE(bdps_test::identical_trees(fabric.tree_toward(home), tree))
            << phase << ", home " << home;
      }
      expect_same_tables(fabric, reference.tables(), phase);
      expect_same_match_order(fabric, reference.tables(), probes, phase);

      // Enabled rows = a fresh per-subscription install from the repaired
      // trees.
      Tables fresh(fabric.broker_count());
      for (std::size_t si = 0; si < fabric.subscription_count(); ++si) {
        const Subscription& sub = fabric.subscription(si);
        install_subscription(fabric.graph(), topo.publisher_edges,
                             fabric.tree_toward(sub.home), sub, false, fresh,
                             nullptr);
      }
      for (std::size_t b = 0; b < fresh.size(); ++b) {
        const std::vector<SubscriptionEntry> enabled =
            enabled_by_subscription(
                fabric.table(static_cast<BrokerId>(b)).entries());
        ASSERT_EQ(enabled.size(), fresh[b].size()) << phase << ", broker " << b;
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          EXPECT_TRUE(same_entry(enabled[i], fresh[b][i]))
              << phase << ", broker " << b << " enabled row " << i;
        }
      }
    };
    for (std::size_t si = 0; si < fabric.subscription_count() && cycles < 4;
         ++si) {
      const ShortestPathTree& tree =
          fabric.tree_toward(fabric.subscription(si).home);
      std::vector<EdgeId> links;
      for (const std::size_t p : {cycles % kPublishers,
                                  (cycles + 3) % kPublishers}) {
        const std::vector<BrokerId> path =
            tree.path_from(topo.publisher_edges[p]);
        if (path.size() < 2) continue;
        for (const EdgeId e : {topo.graph.edge_id(path[0], path[1]),
                               topo.graph.edge_id(path[1], path[0])}) {
          if (std::find(links.begin(), links.end(), e) == links.end()) {
            links.push_back(e);
          }
        }
      }
      if (links.size() < 4) continue;
      apply(links, {});
      apply({}, links);
      ++cycles;
    }
    ASSERT_EQ(cycles, 4u);
    EXPECT_THROW(fabric.tree_toward(static_cast<BrokerId>(kBrokers)),
                 std::out_of_range);
  }
}

}  // namespace
}  // namespace bdps
