// RoutingFabric under the reactor's threading contract (TSan target: the
// tsan preset runs `ctest -L runtime`).  Each reactor worker matches only
// the brokers it owns, so concurrent match_at calls always name distinct
// brokers.  Every broker's counting index sorts lazily on its first match
// after a change, so that first match mutates index state on the calling
// thread.  This suite races one thread per broker on a fresh fabric and
// again right after each apply_link_state batch (which compacts or appends
// to the indexes of the brokers it rewrote), checking each answer against
// brute-force filter evaluation of the enabled rows (which never touches
// the indexes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"

namespace bdps {
namespace {

std::vector<const SubscriptionEntry*> brute_force(
    const SubscriptionTable& table, const Message& message) {
  std::vector<const SubscriptionEntry*> rows;
  for (const SubscriptionEntry& entry : table.entries()) {
    if (!entry.disabled && entry.subscription->filter.matches(message)) {
      rows.push_back(&entry);
    }
  }
  return rows;
}

/// One thread per broker, each replaying every probe against its own
/// broker; expectations are computed first, without calling match_at.
void race_distinct_brokers(const RoutingFabric& fabric,
                           const std::vector<Message>& probes) {
  const std::size_t brokers = fabric.broker_count();
  std::vector<std::vector<std::vector<const SubscriptionEntry*>>> expect(
      brokers);
  for (BrokerId b = 0; b < static_cast<BrokerId>(brokers); ++b) {
    for (const Message& m : probes) {
      expect[b].push_back(brute_force(fabric.table(b), m));
    }
  }

  std::vector<std::thread> threads;
  for (BrokerId b = 0; b < static_cast<BrokerId>(brokers); ++b) {
    threads.emplace_back([&, b] {
      std::vector<const SubscriptionEntry*> out;
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          fabric.match_at(b, probes[i], out);
          ASSERT_EQ(out, expect[b][i]) << "broker " << b << " probe " << i;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(RoutingFabricConcurrent, MatchAtFromDistinctBrokersIsRaceFree) {
  // Publisher at the hub of a star whose leaves also form a dearer ring,
  // so a failed spoke reroutes through neighbouring leaves instead of
  // disconnecting; subscribers spread over every leaf.
  Rng rng(3);
  Topology topo;
  constexpr std::size_t kBrokers = 16;
  topo.graph.resize(kBrokers);
  for (std::size_t b = 1; b < kBrokers; ++b) {
    topo.graph.add_bidirectional(0, static_cast<BrokerId>(b),
                                 LinkParams{50.0 + 2.0 * b, 10.0});
  }
  for (std::size_t b = 1; b < kBrokers; ++b) {
    const auto next = static_cast<BrokerId>(b % (kBrokers - 1) + 1);
    topo.graph.add_bidirectional(static_cast<BrokerId>(b), next,
                                 LinkParams{120.0, 10.0});
  }
  topo.publisher_edges = {0};
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < 64; ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = static_cast<BrokerId>(1 + s % (kBrokers - 1));
    topo.subscriber_homes.push_back(sub.home);
    Filter f;
    f.where("A1", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    if (s % 3 == 0) f.where("A2", Op::kGe, Value(rng.uniform(0.0, 10.0)));
    sub.filter = std::move(f);
    subs.push_back(std::move(sub));
  }

  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, std::move(subs), options);

  std::vector<Message> probes;
  for (int i = 0; i < 24; ++i) {
    probes.emplace_back(i, 0, 0.0, 1.0,
                        std::vector<Attribute>{
                            {"A1", Value(rng.uniform(0.0, 10.0))},
                            {"A2", Value(rng.uniform(0.0, 10.0))}});
  }

  race_distinct_brokers(fabric, probes);

  // Fail three spokes, then recover them, three times: the rerouted
  // subscriptions retire and append rows at the hub and along the detours,
  // and each of those brokers re-sorts its rebuilt index on its own thread
  // in the next race.
  std::vector<EdgeId> spokes;
  for (const BrokerId leaf : {1, 6, 11}) {
    spokes.push_back(topo.graph.edge_id(0, leaf));
    spokes.push_back(topo.graph.edge_id(leaf, 0));
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_GT(fabric.apply_link_state(spokes, {}), 0u);
    race_distinct_brokers(fabric, probes);
    ASSERT_GT(fabric.apply_link_state({}, spokes), 0u);
    race_distinct_brokers(fabric, probes);
  }
}

}  // namespace
}  // namespace bdps
