// Per-broker matching differential: on every broker, RoutingFabric::match_at
// must return exactly the table rows whose subscription filter (or any of
// its OR disjuncts) matches the message, in ascending row order.  The
// simulators' floating-point reductions walk match_at output in order, so
// the order is part of the contract the golden matrix leans on.
//
// Brute force evaluates every row's Filter directly; the fabric answers
// through each broker's counting index (message/index.h).  The repairable
// case probes before and after apply_link_state: repair appends rows to
// indexes that have already served (and sorted for) matches, so the second
// probe checks the lazy re-sort against rows added after first use.
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

  // Fail the first link on publisher 0's path toward the first subscriber
  // home away from it (both directions), so the rows of every
  // subscription homed there must move.
  std::vector<BrokerId> path;
  for (std::size_t s = 0; s < fabric.subscription_count() && path.size() < 2;
       ++s) {
    path = fabric.tree_toward(fabric.subscription(s).home)
               .path_from(topo.publisher_edges[0]);
  }
  ASSERT_GE(path.size(), 2u);
  const std::vector<EdgeId> link = {topo.graph.edge_id(path[0], path[1]),
                                    topo.graph.edge_id(path[1], path[0])};
  // apply_link_state returns the number of rows it appended.
  ASSERT_GT(fabric.apply_link_state(link, {}), 0u);

  // Second probe: indexes holding appended rows re-sort on first use.
  expect_brute_force(fabric, probes, "after failure");

  // Recovery appends again; the third probe covers a second re-sort.
  ASSERT_GT(fabric.apply_link_state({}, link), 0u);
  expect_brute_force(fabric, probes, "after recovery");
}

}  // namespace
}  // namespace bdps
