// Per-broker matching differential: on every broker, RoutingFabric::match_at
// must return exactly the enabled table rows whose subscription filter (or
// any of its OR disjuncts) matches the message, in ascending row order.
// The simulators' floating-point reductions walk match_at output in order,
// so the order is part of the contract the golden matrix leans on.
//
// Brute force evaluates every enabled row's Filter directly; the fabric
// answers through each broker's counting index (message/index.h), whose
// ids map to table rows.  The repairable case probes before and after
// several fail/recover cycles of apply_link_state: a broker that retires
// rows has its index rebuilt from its enabled rows (compaction), and one
// that only gains rows appends them to an index that has already served
// (and sorted for) matches.  The cycles compact brokers more than once and
// append rows behind an earlier compaction, so the id -> row map is probed
// with gaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "workload/generator.h"

namespace bdps {
namespace {

constexpr std::size_t kSubscribers = 96;

ChurnWorkloadConfig churn_config() {
  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  return config;
}

/// Random tree plus brokers/2 extra links, so tables differ per broker and
/// failed links leave detours.  Subscriptions carry ChurnWorkload numeric
/// filters; about one in five also carries an OR disjunct.
Topology mesh_topology(Rng& rng, std::size_t brokers,
                       std::vector<Subscription>* subs_out) {
  Topology topo;
  topo.graph.resize(brokers);
  for (std::size_t b = 1; b < brokers; ++b) {
    const auto parent = static_cast<BrokerId>(rng.uniform_index(b));
    topo.graph.add_bidirectional(parent, static_cast<BrokerId>(b),
                                 LinkParams{rng.uniform(40.0, 90.0), 10.0});
  }
  for (std::size_t e = 0; e < brokers / 2; ++e) {
    const auto a = static_cast<BrokerId>(rng.uniform_index(brokers));
    const auto b = static_cast<BrokerId>(rng.uniform_index(brokers));
    if (a == b || topo.graph.edge_id(a, b) != kNoEdge) continue;
    topo.graph.add_bidirectional(a, b, LinkParams{rng.uniform(40.0, 90.0),
                                                  10.0});
  }
  topo.publisher_edges = {0, static_cast<BrokerId>(brokers - 1)};

  ChurnWorkload workload(churn_config());
  Rng aux(5);
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = static_cast<BrokerId>(rng.uniform_index(brokers));
    topo.subscriber_homes.push_back(sub.home);
    sub.filter = workload.next_filter();
    if (aux.uniform() < 0.2) sub.or_filters.push_back(workload.next_filter());
    subs_out->push_back(std::move(sub));
  }
  return topo;
}

/// Probe messages from the same attribute/threshold pools as the filters.
std::vector<Message> probe_messages(std::size_t count) {
  ChurnWorkload workload(churn_config());
  for (std::size_t skip = 0; skip < kSubscribers; ++skip) {
    workload.next_filter();
  }
  std::vector<Message> probes;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(workload.next_message());
  }
  return probes;
}

std::vector<const SubscriptionEntry*> brute_force(
    const SubscriptionTable& table, const Message& message) {
  std::vector<const SubscriptionEntry*> rows;
  for (const SubscriptionEntry& entry : table.entries()) {
    if (entry.disabled) continue;
    const Subscription& sub = *entry.subscription;
    if (sub.filter.matches(message) ||
        std::any_of(sub.or_filters.begin(), sub.or_filters.end(),
                    [&](const Filter& f) { return f.matches(message); })) {
      rows.push_back(&entry);
    }
  }
  return rows;
}

/// Match totals of one probe pass, so each test can show it is not vacuous.
struct ProbeCounts {
  std::size_t matched_rows = 0;
  std::size_t or_only_rows = 0;
};

ProbeCounts expect_brute_force(const RoutingFabric& fabric,
                               const std::vector<Message>& probes,
                               const char* phase) {
  ProbeCounts counts;
  std::vector<const SubscriptionEntry*> out;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count());
         ++b) {
      fabric.match_at(b, probes[p], out);
      const auto expect = brute_force(fabric.table(b), probes[p]);
      EXPECT_EQ(out, expect) << phase << ": broker " << b << " probe " << p;
      EXPECT_TRUE(std::none_of(
          out.begin(), out.end(),
          [](const SubscriptionEntry* entry) { return entry->disabled; }))
          << phase << ": broker " << b << " returned a retired row";
      counts.matched_rows += expect.size();
      for (const SubscriptionEntry* entry : expect) {
        if (!entry->subscription->filter.matches(probes[p])) {
          ++counts.or_only_rows;
        }
      }
    }
  }
  return counts;
}

TEST(RoutingMatchDifferential, SingleAndMultiPathTablesMatchBruteForce) {
  const std::vector<Message> probes = probe_messages(200);
  for (const bool multipath : {false, true}) {
    Rng rng(23);
    std::vector<Subscription> subs;
    const Topology topo = mesh_topology(rng, 12, &subs);
    FabricOptions options;
    options.multipath = multipath;
    const RoutingFabric fabric(topo, std::move(subs), options);
    const ProbeCounts counts = expect_brute_force(
        fabric, probes, multipath ? "multipath" : "single-path");
    EXPECT_GT(counts.matched_rows, 0u);
    EXPECT_GT(counts.or_only_rows, 0u);
  }
}

/// Per-broker (disabled, total) row counts: how a batch of apply_link_state
/// treated each broker's index is visible from its table alone.
struct TableShape {
  std::size_t disabled = 0;
  std::size_t rows = 0;
};

std::vector<TableShape> table_shapes(const RoutingFabric& fabric) {
  std::vector<TableShape> shapes(fabric.broker_count());
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count());
       ++b) {
    const SubscriptionTable& table = fabric.table(b);
    shapes[b].rows = table.size();
    for (const SubscriptionEntry& entry : table.entries()) {
      if (entry.disabled) ++shapes[b].disabled;
    }
  }
  return shapes;
}

TEST(RoutingMatchDifferential, RepairedTablesMatchBruteForce) {
  Rng rng(23);
  std::vector<Subscription> subs;
  const Topology topo = mesh_topology(rng, 12, &subs);
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, std::move(subs), options);
  const std::vector<Message> probes = probe_messages(120);

  // First probe: every broker's index sorts and serves matches.
  const ProbeCounts before = expect_brute_force(fabric, probes, "before");
  EXPECT_GT(before.matched_rows, 0u);
  EXPECT_GT(before.or_only_rows, 0u);

  // Each cycle fails the first link (both directions) on publisher
  // (cycle % 2)'s path toward the home of the next subscription homed away
  // from it, so the rows of every subscription homed there must move, and
  // then recovers it.
  std::vector<std::size_t> compactions(fabric.broker_count(), 0);
  std::size_t appends_after_compaction = 0;
  std::size_t cycles = 0;
  auto apply = [&](const std::vector<EdgeId>& down,
                   const std::vector<EdgeId>& up, const char* phase) {
    const std::vector<TableShape> was = table_shapes(fabric);
    // apply_link_state returns the number of rows it appended.
    EXPECT_GT(fabric.apply_link_state(down, up), 0u) << phase;
    const std::vector<TableShape> now = table_shapes(fabric);
    for (std::size_t b = 0; b < now.size(); ++b) {
      if (now[b].disabled > was[b].disabled) {
        ++compactions[b];
      } else if (now[b].rows > was[b].rows && was[b].disabled > 0) {
        ++appends_after_compaction;
      }
    }
    expect_brute_force(fabric, probes, phase);
  };
  for (std::size_t s = 0; s < fabric.subscription_count() && cycles < 4;
       ++s) {
    const BrokerId publisher = topo.publisher_edges[cycles % 2];
    const std::vector<BrokerId> path =
        fabric.tree_toward(fabric.subscription(s).home).path_from(publisher);
    if (path.size() < 2) continue;
    const std::vector<EdgeId> link = {topo.graph.edge_id(path[0], path[1]),
                                      topo.graph.edge_id(path[1], path[0])};
    apply(link, {}, "after failure");
    apply({}, link, "after recovery");
    ++cycles;
  }
  ASSERT_EQ(cycles, 4u);
  EXPECT_GE(*std::max_element(compactions.begin(), compactions.end()), 2u);
  EXPECT_GT(appends_after_compaction, 0u);
}

}  // namespace
}  // namespace bdps
