#include "routing/fabric.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace bdps {
namespace {

/// Line topology 0 - 1 - 2 with a publisher at 0 and a subscriber at 2.
Topology line_topology() {
  Topology topo;
  topo.graph.resize(3);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  topo.graph.add_bidirectional(1, 2, LinkParams{60.0, 20.0});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {2};
  return topo;
}

Subscription any_subscription(BrokerId home, SubscriberId id = 0) {
  Subscription sub;
  sub.subscriber = id;
  sub.home = home;
  sub.allowed_delay = seconds(10.0);
  sub.price = 2.0;
  return sub;  // Empty filter: matches everything.
}

Message make_message(PublisherId publisher = 0) {
  return Message(1, publisher, 0.0, 50.0, {{"A1", Value(1.0)}});
}

TEST(RoutingFabric, InstallsEntriesAlongPath) {
  const Topology topo = line_topology();
  const RoutingFabric fabric(topo, {any_subscription(2)});
  EXPECT_EQ(fabric.table(0).size(), 1u);
  EXPECT_EQ(fabric.table(1).size(), 1u);
  EXPECT_EQ(fabric.table(2).size(), 1u);

  const SubscriptionEntry& at0 = fabric.table(0).entries()[0];
  EXPECT_EQ(at0.next_hop, 1);
  EXPECT_EQ(at0.path.hop_brokers, 2);
  EXPECT_DOUBLE_EQ(at0.path.mean_ms_per_kb, 110.0);

  const SubscriptionEntry& at1 = fabric.table(1).entries()[0];
  EXPECT_EQ(at1.next_hop, 2);
  EXPECT_DOUBLE_EQ(at1.path.mean_ms_per_kb, 60.0);

  const SubscriptionEntry& at2 = fabric.table(2).entries()[0];
  EXPECT_TRUE(at2.is_local());
  EXPECT_EQ(at2.path.hop_brokers, 0);
}

TEST(RoutingFabric, OffPathBrokersGetNoEntries) {
  Topology topo = line_topology();
  // Add a dead-end broker 3 hanging off broker 1.
  topo.graph.resize(4);
  topo.graph.add_bidirectional(1, 3, LinkParams{55.0, 10.0});
  const RoutingFabric fabric(topo, {any_subscription(2)});
  EXPECT_EQ(fabric.table(3).size(), 0u);
}

TEST(RoutingFabric, MatchAtFiltersByContent) {
  const Topology topo = line_topology();
  Subscription narrow = any_subscription(2);
  Filter f;
  f.where("A1", Op::kLt, Value(0.5));
  narrow.filter = f;
  const RoutingFabric fabric(topo, {narrow});
  EXPECT_TRUE(fabric.match_at(0, make_message()).empty());  // A1=1 >= 0.5.
  Message hit(2, 0, 0.0, 50.0, {{"A1", Value(0.1)}});
  EXPECT_EQ(fabric.match_at(0, hit).size(), 1u);
}

TEST(RoutingFabric, MatchAllCountsInterestedSubscribers) {
  const Topology topo = line_topology();
  Subscription s0 = any_subscription(2, 0);
  Subscription s1 = any_subscription(2, 1);
  Filter f;
  f.where("A1", Op::kGt, Value(5.0));
  s1.filter = f;
  const RoutingFabric fabric(topo, {s0, s1});
  EXPECT_EQ(fabric.match_all(make_message()).size(), 1u);  // Only wildcard.
}

TEST(RoutingFabric, PublisherMaskRestrictsForwarding) {
  // Diamond: publishers at 0 and 3; subscriber at 2.
  //   0 -(50)- 1 -(50)- 2 ;  3 -(50)- 2 directly.
  Topology topo;
  topo.graph.resize(4);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  topo.graph.add_bidirectional(1, 2, LinkParams{50.0, 10.0});
  topo.graph.add_bidirectional(3, 2, LinkParams{50.0, 10.0});
  topo.publisher_edges = {0, 3};
  topo.subscriber_homes = {2};
  const RoutingFabric fabric(topo, {any_subscription(2)});

  // Broker 1 lies only on publisher 0's path.
  const auto at1 = fabric.match_at(1, make_message(0));
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_TRUE(at1[0]->serves_publisher(0));
  EXPECT_FALSE(at1[0]->serves_publisher(1));

  // Broker 3's own table: it is publisher 1's edge broker.
  const auto at3 = fabric.match_at(3, make_message(1));
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_TRUE(at3[0]->serves_publisher(1));
  EXPECT_FALSE(at3[0]->serves_publisher(0));

  // Home broker serves every publisher.
  const auto at2 = fabric.match_at(2, make_message(0));
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_TRUE(at2[0]->serves_publisher(0));
  EXPECT_TRUE(at2[0]->serves_publisher(1));
  EXPECT_TRUE(at2[0]->is_local());
}

TEST(RoutingFabric, PaperTopologyTablesAreConsistent) {
  Rng rng(5);
  const Topology topo = build_paper_topology(rng);
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < topo.subscriber_count(); ++s) {
    subs.push_back(any_subscription(topo.subscriber_homes[s],
                                    static_cast<SubscriberId>(s)));
  }
  const RoutingFabric fabric(topo, std::move(subs));

  // Every layer-4 broker carries local rows for its 10 subscribers.
  for (BrokerId b = 16; b < 32; ++b) {
    std::size_t local = 0;
    for (const auto& entry : fabric.table(b).entries()) {
      if (entry.is_local()) ++local;
    }
    EXPECT_EQ(local, 10u) << "broker " << b;
  }

  // Every publisher edge broker can reach all 160 subscribers.
  for (BrokerId b = 0; b < 4; ++b) {
    std::size_t served = 0;
    for (const auto& entry : fabric.table(b).entries()) {
      if (entry.serves_publisher(b)) ++served;
    }
    EXPECT_EQ(served, 160u) << "publisher edge " << b;
  }

  // Remaining-path stats must shrink toward the subscriber: any entry's
  // mean at the publisher edge exceeds the same subscription's mean at the
  // next hop (strictly, by that link's mean).
  const SubscriptionEntry& first = fabric.table(0).entries()[0];
  const ShortestPathTree tree =
      compute_tree_toward(topo.graph, first.subscription->home);
  EXPECT_GT(first.path.mean_ms_per_kb,
            tree.stats[first.next_hop].mean_ms_per_kb);
}

TEST(RoutingFabric, SubscriptionOutsideGraphRejected) {
  const Topology topo = line_topology();
  EXPECT_THROW(RoutingFabric(topo, {any_subscription(99)}),
               std::invalid_argument);
}

TEST(RoutingFabric, TooManyPublishersRejected) {
  Topology topo = line_topology();
  topo.publisher_edges.assign(65, 0);
  EXPECT_THROW(RoutingFabric(topo, {any_subscription(2)}),
               std::invalid_argument);
}

TEST(SubscriptionEntry, EffectiveDeadlinePrefersTighterBound) {
  Subscription sub = any_subscription(0);
  sub.allowed_delay = seconds(30.0);
  SubscriptionEntry entry;
  entry.subscription = &sub;

  const Message psd(1, 0, 0.0, 50.0, {}, seconds(10.0));
  EXPECT_DOUBLE_EQ(entry.effective_deadline(psd), seconds(10.0));

  const Message unbounded(1, 0, 0.0, 50.0, {});
  EXPECT_DOUBLE_EQ(entry.effective_deadline(unbounded), seconds(30.0));

  sub.allowed_delay = kNoDeadline;
  EXPECT_DOUBLE_EQ(entry.effective_deadline(psd), seconds(10.0));
  EXPECT_EQ(entry.effective_deadline(unbounded), kNoDeadline);
}

TEST(SubscriptionTable, ToStringMentionsEveryRow) {
  const Topology topo = line_topology();
  const RoutingFabric fabric(topo, {any_subscription(2, 7)});
  const std::string rendered = fabric.table(0).to_string();
  EXPECT_NE(rendered.find("s7"), std::string::npos);
  EXPECT_NE(rendered.find("nb=B1"), std::string::npos);
}

}  // namespace
}  // namespace bdps
