// DOT export and the grid / scale-free builders.
#include <gtest/gtest.h>

#include <set>

#include "topology/dot.h"

namespace bdps {
namespace {

bool connected(const Graph& g) {
  std::vector<bool> seen(g.broker_count(), false);
  std::vector<BrokerId> stack = {0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const BrokerId u = stack.back();
    stack.pop_back();
    for (const EdgeId e : g.out_edges(u)) {
      const BrokerId v = g.edge(e).to;
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == g.broker_count();
}

TEST(GridBuilder, PlainGridEdgeCount) {
  Rng rng(1);
  const Topology topo = build_grid(rng, 3, 4, false, 2, 6, 50.0, 100.0, 20.0);
  EXPECT_EQ(topo.graph.broker_count(), 12u);
  // Horizontal: 3 rows x 3 = 9; vertical: 2 x 4 = 8 -> 17 undirected.
  EXPECT_EQ(topo.graph.edge_count(), 2u * 17u);
  EXPECT_TRUE(connected(topo.graph));
  EXPECT_TRUE(topo.graph.validate());
}

TEST(GridBuilder, TorusWrapAddsRings) {
  Rng rng(2);
  const Topology topo = build_grid(rng, 3, 4, true, 2, 6, 50.0, 100.0, 20.0);
  // Plain 17 + row wraps 3 + column wraps 4 = 24 undirected.
  EXPECT_EQ(topo.graph.edge_count(), 2u * 24u);
  // Wrap edges exist.
  EXPECT_NE(topo.graph.find_edge(3, 0), kNoEdge);   // Row 0: col 3 -> col 0.
  EXPECT_NE(topo.graph.find_edge(8, 0), kNoEdge);   // Col 0: row 2 -> row 0.
}

TEST(GridBuilder, PublishersSitOnCorners) {
  Rng rng(3);
  const Topology topo = build_grid(rng, 4, 5, false, 4, 8, 50.0, 100.0, 20.0);
  const std::set<BrokerId> corners = {0, 4, 15, 19};
  for (const BrokerId p : topo.publisher_edges) {
    EXPECT_TRUE(corners.count(p)) << p;
  }
}

TEST(GridBuilder, RejectsDegenerateSizes) {
  Rng rng(1);
  EXPECT_THROW(build_grid(rng, 1, 5, false, 1, 1, 50.0, 100.0, 20.0),
               std::invalid_argument);
}

TEST(ScaleFreeBuilder, ConnectedWithHubs) {
  Rng rng(4);
  const Topology topo =
      build_scale_free(rng, 60, 2, 3, 20, 50.0, 100.0, 20.0);
  EXPECT_EQ(topo.graph.broker_count(), 60u);
  EXPECT_TRUE(connected(topo.graph));
  EXPECT_TRUE(topo.graph.validate());
  // Preferential attachment: the max degree should clearly exceed the mean
  // (2m = 4-ish) — hubs exist.
  std::size_t max_degree = 0;
  for (std::size_t b = 0; b < 60; ++b) {
    max_degree = std::max(max_degree,
                          topo.graph.out_edges(static_cast<BrokerId>(b)).size());
  }
  EXPECT_GE(max_degree, 8u);
}

TEST(ScaleFreeBuilder, RejectsDegenerateParams) {
  Rng rng(1);
  EXPECT_THROW(build_scale_free(rng, 1, 2, 1, 1, 50.0, 100.0, 20.0),
               std::invalid_argument);
  EXPECT_THROW(build_scale_free(rng, 10, 0, 1, 1, 50.0, 100.0, 20.0),
               std::invalid_argument);
}

TEST(DotExport, ContainsNodesEdgesAndDecorations) {
  Rng rng(5);
  Topology topo;
  topo.graph.resize(3);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 20.0});
  topo.graph.add_bidirectional(1, 2, LinkParams{75.0, 20.0});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {2, 2};
  const std::string dot = to_dot(topo);
  EXPECT_NE(dot.find("graph overlay {"), std::string::npos);
  EXPECT_NE(dot.find("B0 [label=\"B0\\nP\""), std::string::npos);
  EXPECT_NE(dot.find("2 subs"), std::string::npos);
  EXPECT_NE(dot.find("B0 -- B1"), std::string::npos);
  EXPECT_NE(dot.find("B1 -- B2"), std::string::npos);
  EXPECT_NE(dot.find("50"), std::string::npos);
  // Each undirected link appears exactly once.
  EXPECT_EQ(dot.find("B1 -- B0"), std::string::npos);
  (void)rng;
}

TEST(DotExport, HighlightsRoutingTree) {
  Topology topo;
  topo.graph.resize(3);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 20.0});
  topo.graph.add_bidirectional(1, 2, LinkParams{75.0, 20.0});
  topo.graph.add_bidirectional(0, 2, LinkParams{300.0, 20.0});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {2};
  const ShortestPathTree tree = compute_tree_toward(topo.graph, 2);
  const std::string dot = to_dot(topo, tree);
  // The chosen 0-1-2 path is red; the 0-2 shortcut is not.
  const auto red_count = [&] {
    std::size_t count = 0;
    std::size_t pos = 0;
    while ((pos = dot.find("color=red", pos)) != std::string::npos) {
      ++count;
      pos += 9;
    }
    return count;
  }();
  EXPECT_EQ(red_count, 2u);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
}

TEST(DotExport, PaperTopologyRendersAllBrokers) {
  Rng rng(6);
  const Topology topo = build_paper_topology(rng);
  const std::string dot = to_dot(topo);
  for (int b = 0; b < 32; ++b) {
    EXPECT_NE(dot.find(std::string("B").append(std::to_string(b)) + " [label"),
              std::string::npos)
        << b;
  }
}

}  // namespace
}  // namespace bdps
