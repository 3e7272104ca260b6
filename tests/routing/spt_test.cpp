#include "routing/spt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "topology/builders.h"
#include "tree_identity.h"

namespace bdps {
namespace {

/// Line: 0 -(50)- 1 -(60)- 2; plus shortcut 0 -(200)- 2.
Graph line_with_shortcut() {
  Graph g(3);
  g.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  g.add_bidirectional(1, 2, LinkParams{60.0, 20.0});
  g.add_bidirectional(0, 2, LinkParams{200.0, 5.0});
  return g;
}

TEST(ShortestPathTree, PrefersSmallerMeanOverFewerHops) {
  const Graph g = line_with_shortcut();
  const ShortestPathTree tree = compute_tree_toward(g, 2);
  // From 0: via 1 costs 110, direct costs 200 -> choose via 1.
  EXPECT_EQ(tree.next_hop[0], 1);
  EXPECT_EQ(tree.next_hop[1], 2);
  EXPECT_EQ(tree.next_hop[2], kNoBroker);
}

TEST(ShortestPathTree, StatsAccumulateAlongChosenPath) {
  const Graph g = line_with_shortcut();
  const ShortestPathTree tree = compute_tree_toward(g, 2);
  // Path 0 -> 1 -> 2: two links, two downstream brokers.
  EXPECT_EQ(tree.stats[0].hop_brokers, 2);
  EXPECT_DOUBLE_EQ(tree.stats[0].mean_ms_per_kb, 110.0);
  EXPECT_DOUBLE_EQ(tree.stats[0].variance, 100.0 + 400.0);
  EXPECT_EQ(tree.stats[1].hop_brokers, 1);
  EXPECT_DOUBLE_EQ(tree.stats[1].mean_ms_per_kb, 60.0);
  // Destination: empty path.
  EXPECT_EQ(tree.stats[2].hop_brokers, 0);
  EXPECT_DOUBLE_EQ(tree.stats[2].mean_ms_per_kb, 0.0);
}

TEST(ShortestPathTree, PathFromMaterialisesSequence) {
  const Graph g = line_with_shortcut();
  const ShortestPathTree tree = compute_tree_toward(g, 2);
  const std::vector<BrokerId> expected = {0, 1, 2};
  EXPECT_EQ(tree.path_from(0), expected);
  EXPECT_EQ(tree.path_from(2), std::vector<BrokerId>{2});
}

TEST(ShortestPathTree, UnreachableNodesFlagged) {
  Graph g(4);
  g.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  // Brokers 2, 3 are isolated from 0, 1.
  g.add_bidirectional(2, 3, LinkParams{50.0, 10.0});
  const ShortestPathTree tree = compute_tree_toward(g, 0);
  EXPECT_TRUE(tree.reachable[0]);
  EXPECT_TRUE(tree.reachable[1]);
  EXPECT_FALSE(tree.reachable[2]);
  EXPECT_FALSE(tree.reachable[3]);
  EXPECT_TRUE(tree.path_from(2).empty());
}

TEST(ShortestPathTree, AsymmetricLinksUseDirectedCosts) {
  Graph g(2);
  g.add_edge(0, 1, LinkParams{50.0, 10.0});   // Cheap toward 1.
  g.add_edge(1, 0, LinkParams{500.0, 10.0});  // Expensive back.
  const ShortestPathTree toward1 = compute_tree_toward(g, 1);
  EXPECT_DOUBLE_EQ(toward1.stats[0].mean_ms_per_kb, 50.0);
  const ShortestPathTree toward0 = compute_tree_toward(g, 0);
  EXPECT_DOUBLE_EQ(toward0.stats[1].mean_ms_per_kb, 500.0);
}

/// Suffix consistency: for any broker b on the chosen path from a to dest,
/// the chosen path from b is exactly the suffix starting at b.  This is the
/// property that makes one subscription-table row per subscriber valid for
/// every publisher (§4.2).
class SptSuffixProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SptSuffixProperty, EverySuffixOfAChosenPathIsChosen) {
  Rng rng(GetParam());
  const Topology topo =
      build_random_mesh(rng, 24, 20, 3, 6, 50.0, 100.0, 20.0);
  for (BrokerId dest = 0; dest < 6; ++dest) {
    const ShortestPathTree tree = compute_tree_toward(topo.graph, dest);
    for (std::size_t a = 0; a < topo.graph.broker_count(); ++a) {
      if (!tree.reachable[a]) continue;
      const auto path = tree.path_from(static_cast<BrokerId>(a));
      for (std::size_t i = 0; i < path.size(); ++i) {
        const auto suffix =
            std::vector<BrokerId>(path.begin() + static_cast<std::ptrdiff_t>(i),
                                  path.end());
        ASSERT_EQ(tree.path_from(path[i]), suffix);
      }
    }
  }
}

TEST_P(SptSuffixProperty, StatsMatchManualPathSum) {
  Rng rng(GetParam() + 1000);
  const Topology topo =
      build_random_mesh(rng, 16, 10, 2, 4, 50.0, 100.0, 20.0);
  const ShortestPathTree tree = compute_tree_toward(topo.graph, 0);
  for (std::size_t a = 1; a < topo.graph.broker_count(); ++a) {
    if (!tree.reachable[a]) continue;
    const auto path = tree.path_from(static_cast<BrokerId>(a));
    PathStats manual;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgeId e = topo.graph.find_edge(path[i], path[i + 1]);
      ASSERT_NE(e, kNoEdge);
      manual = manual.then_link(topo.graph.edge(e).link.params());
    }
    ASSERT_EQ(tree.stats[a].hop_brokers, manual.hop_brokers);
    ASSERT_DOUBLE_EQ(tree.stats[a].mean_ms_per_kb, manual.mean_ms_per_kb);
    ASSERT_DOUBLE_EQ(tree.stats[a].variance, manual.variance);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptSuffixProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(ShortestPathTree, DestinationOutsideGraphRejected) {
  const Graph g = line_with_shortcut();
  EXPECT_THROW(compute_tree_toward(g, 3), std::invalid_argument);
  EXPECT_THROW(compute_tree_toward(g, -1), std::invalid_argument);
  SptWorkspace workspace;
  const IncomingEdges incoming = incoming_edges(g);
  EXPECT_THROW(compute_tree_toward(g, incoming, 99, workspace),
               std::invalid_argument);
  // An adjacency built for another graph is rejected too.
  EXPECT_THROW(compute_tree_toward(g, IncomingEdges(2), 0, workspace),
               std::invalid_argument);
  // The workspace stays usable after a rejected call.
  EXPECT_TRUE(bdps_test::identical_trees(
      compute_tree_toward(g, incoming, 2, workspace), compute_tree_toward(g, 2)));
}

/// The shared reverse adjacency lists each broker's incoming edges by
/// source broker ascending, then in the source's out-edge order.
TEST(ShortestPathTree, IncomingEdgesFollowSourceThenInsertionOrder) {
  Graph g(3);
  g.add_edge(2, 0, LinkParams{10.0, 1.0});  // Edge 0.
  g.add_edge(1, 0, LinkParams{10.0, 1.0});  // Edge 1.
  g.add_edge(2, 1, LinkParams{10.0, 1.0});  // Edge 2.
  g.add_edge(1, 2, LinkParams{10.0, 1.0});  // Edge 3.
  g.add_edge(2, 0, LinkParams{20.0, 1.0});  // Edge 4: parallel to edge 0.
  const IncomingEdges incoming = incoming_edges(g);
  ASSERT_EQ(incoming.size(), 3u);
  EXPECT_EQ(incoming[0], (std::vector<EdgeId>{1, 0, 4}));
  EXPECT_EQ(incoming[1], (std::vector<EdgeId>{2}));
  EXPECT_EQ(incoming[2], (std::vector<EdgeId>{3}));
}

/// One reused SptWorkspace carries nothing from one tree to the next: on
/// scale-free graphs of the benchmark's shape, every destination's tree
/// built through one shared workspace — in ascending, descending and
/// shuffled order — equals bit for bit the tree built with a fresh
/// workspace and with the one-off compute_tree_toward(graph, destination).
class SptWorkspaceReuse
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SptWorkspaceReuse, AnyOrderMatchesFreshWorkspaces) {
  const auto [brokers, seed] = GetParam();
  Rng rng(seed);
  const Topology topo = build_scale_free(rng, brokers, 4, 8, brokers * 4,
                                         50.0, 100.0, 20.0);
  const Graph& g = topo.graph;
  const IncomingEdges incoming = incoming_edges(g);

  std::vector<ShortestPathTree> fresh;
  for (std::size_t d = 0; d < brokers; ++d) {
    SptWorkspace workspace;
    fresh.push_back(compute_tree_toward(g, incoming, static_cast<BrokerId>(d),
                                        workspace));
    ASSERT_TRUE(bdps_test::identical_trees(
        fresh.back(), compute_tree_toward(g, static_cast<BrokerId>(d))))
        << "destination " << d;
  }

  std::vector<BrokerId> ascending(brokers);
  std::iota(ascending.begin(), ascending.end(), BrokerId{0});
  std::vector<BrokerId> descending(ascending.rbegin(), ascending.rend());
  std::vector<BrokerId> shuffled = ascending;
  rng.shuffle(shuffled);
  for (const auto& [name, order] :
       {std::pair{"ascending", &ascending},
        std::pair{"descending", &descending},
        std::pair{"shuffled", &shuffled}}) {
    SptWorkspace shared;
    for (const BrokerId d : *order) {
      ASSERT_TRUE(bdps_test::identical_trees(
          compute_tree_toward(g, incoming, d, shared), fresh[d]))
          << name << " order, destination " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScaleFree, SptWorkspaceReuse,
    ::testing::Combine(::testing::Values(std::size_t{64}, std::size_t{256}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

/// A repairable fabric builds every home's tree from one shared adjacency
/// and one workspace and keeps it; each must equal the one-off tree bit for
/// bit.  A plain fabric keeps no tree: its tables are checked row for row
/// against a per-subscription install from one-off trees
/// (RoutingFabric.TablesEqualPerSubscriptionInstall).
TEST(ShortestPathTree, FabricTreesEqualOneOffTrees) {
  Rng rng(5);
  const Topology topo =
      build_scale_free(rng, 256, 4, 8, 256 * 4, 50.0, 100.0, 20.0);
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < topo.subscriber_homes.size(); ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = topo.subscriber_homes[s];
    sub.allowed_delay = minutes(2.0);
    sub.price = 1.0;
    subs.push_back(sub);
  }
  std::vector<BrokerId> homes = topo.subscriber_homes;
  std::sort(homes.begin(), homes.end());
  homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
  ASSERT_GT(homes.size(), 200u);

  FabricOptions options;
  options.repairable = true;
  const RoutingFabric fabric(topo, subs, options);
  for (const BrokerId h : homes) {
    ASSERT_TRUE(bdps_test::identical_trees(fabric.tree_toward(h),
                                           compute_tree_toward(topo.graph, h)))
        << "home " << h;
  }
}

TEST(PathStats, AlgebraIsComponentWise) {
  const PathStats a{2, 100.0, 400.0};
  const PathStats b{1, 60.0, 100.0};
  const PathStats sum = a + b;
  EXPECT_EQ(sum.hop_brokers, 3);
  EXPECT_DOUBLE_EQ(sum.mean_ms_per_kb, 160.0);
  EXPECT_DOUBLE_EQ(sum.variance, 500.0);
  EXPECT_DOUBLE_EQ(kLocalPath.mean_ms_per_kb, 0.0);
  EXPECT_EQ((kLocalPath + a), a);
}

TEST(PathStats, ThenLinkAddsOneBrokerAndOneLink) {
  const PathStats p = kLocalPath.then_link(LinkParams{75.0, 20.0});
  EXPECT_EQ(p.hop_brokers, 1);
  EXPECT_DOUBLE_EQ(p.mean_ms_per_kb, 75.0);
  EXPECT_DOUBLE_EQ(p.variance, 400.0);
  EXPECT_DOUBLE_EQ(p.stddev(), 20.0);
}

}  // namespace
}  // namespace bdps
