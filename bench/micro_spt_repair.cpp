// Microbenchmark: incremental SPT repair vs full per-destination rebuild.
//
// One iteration = reacting to one localised link transition (a single
// link going down, then back up — the fault timeline's unit of work) for
// one destination's in-tree.  The seed-era answer is compute_tree_toward
// from scratch; the PR-6 answer is repair_tree_toward, which invalidates
// only the severed child closure and re-attaches it through a boundary-
// seeded Dijkstra.  Mesh sizes mirror the dense-graph regime of the other
// micro benches; the gap is the reason RoutingFabric::apply_link_state can
// afford to run inside every fault batch of a storm.
//
// BM_BuildAllTrees is the RoutingFabric constructor's routing work: every
// subscriber home's in-tree on the benchmark's scale-free shape (4 edges
// per node, 4 subscribers per broker), from one shared reverse adjacency
// and one reused workspace.  BM_FabricBuild is the whole constructor on the
// same shape (8 publishers): those trees plus one install plan per home and
// every subscription's table rows and index entries, plain (trees dropped
// once planned) and repairable (trees kept); the gap to BM_BuildAllTrees is
// the install.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "routing/spt.h"
#include "topology/builders.h"

namespace {

using namespace bdps;

struct Rig {
  Topology topo;
  ShortestPathTree base;
  IncomingEdges incoming;
  /// Cut stream: links whose loss actually severs part of the tree (their
  /// forward direction lies on it), pre-drawn so iterations measure the
  /// repair, not the search for an interesting link.
  std::vector<std::pair<EdgeId, EdgeId>> cuts;  // (forward, reverse)

  explicit Rig(std::size_t brokers) {
    Rng rng(7);
    topo = build_random_mesh(rng, brokers, brokers * 3, 4, brokers, 50.0,
                             100.0, 20.0);
    const Graph& graph = topo.graph;
    base = compute_tree_toward(graph, 0);
    incoming = incoming_edges(graph);
    while (cuts.size() < 256) {
      const EdgeId forward =
          static_cast<EdgeId>(rng.uniform_index(graph.edge_count()));
      const Edge& edge = graph.edge(forward);
      if (base.next_hop[edge.from] != edge.to) continue;  // Not on the tree.
      cuts.emplace_back(forward, graph.edge_id(edge.to, edge.from));
    }
  }
};

/// Seed answer: recompute the whole in-tree after every transition.
void BM_FullRebuildAfterCut(benchmark::State& state) {
  const Rig rig(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_tree_toward(rig.topo.graph, 0));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}

/// PR-6 answer: repair the severed region (down), then the restoration
/// cascade (up) — one full down->up churn cycle per iteration, leaving the
/// tree back in its base state for the next one.
void BM_IncrementalRepairCycle(benchmark::State& state) {
  Rig rig(static_cast<std::size_t>(state.range(0)));
  EdgeFlags down(rig.topo.graph.edge_count());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [forward, reverse] = rig.cuts[i++ & 255];
    const std::vector<EdgeId> batch = {forward, reverse};
    down.set(forward);
    down.set(reverse);
    benchmark::DoNotOptimize(repair_tree_toward(
        rig.topo.graph, rig.incoming, down, batch, {}, rig.base));
    down.reset(forward);
    down.reset(reverse);
    benchmark::DoNotOptimize(repair_tree_toward(
        rig.topo.graph, rig.incoming, down, {}, batch, rig.base));
  }
  state.SetItemsProcessed(state.iterations());
}

/// One iteration = every distinct subscriber home's tree, built the way
/// RoutingFabric builds them.
void BM_BuildAllTrees(benchmark::State& state) {
  const auto brokers = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Topology topo = build_scale_free(rng, brokers, 4, 8, brokers * 4,
                                         50.0, 100.0, 20.0);
  std::vector<BrokerId> homes = topo.subscriber_homes;
  std::sort(homes.begin(), homes.end());
  homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
  for (auto _ : state) {
    const IncomingEdges incoming = incoming_edges(topo.graph);
    SptWorkspace workspace;
    for (const BrokerId home : homes) {
      benchmark::DoNotOptimize(
          compute_tree_toward(topo.graph, incoming, home, workspace));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(homes.size()));
}

void BM_FabricBuild(benchmark::State& state) {
  const auto brokers = static_cast<std::size_t>(state.range(0));
  FabricOptions options;
  options.repairable = state.range(1) != 0;
  Rng rng(1);
  const Topology topo = build_scale_free(rng, brokers, 4, 8, brokers * 4,
                                         50.0, 100.0, 20.0);
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < topo.subscriber_homes.size(); ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = topo.subscriber_homes[s];
    sub.allowed_delay = minutes(2.0);
    sub.price = 1.0;
    subs.push_back(sub);
  }
  std::size_t rows = 0;
  for (auto _ : state) {
    const RoutingFabric fabric(topo, subs, options);
    rows = 0;
    for (BrokerId b = 0; b < static_cast<BrokerId>(brokers); ++b) {
      rows += fabric.table(b).size();
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

#define REPAIR_ARGS ->Arg(64)->Arg(512)->Arg(4096)
BENCHMARK(BM_FullRebuildAfterCut) REPAIR_ARGS;
BENCHMARK(BM_IncrementalRepairCycle) REPAIR_ARGS;
BENCHMARK(BM_BuildAllTrees)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricBuild)
    ->ArgNames({"brokers", "repairable"})
    ->ArgsProduct({{256, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
