#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "experiment/paper.h"
#include "workload/generator.h"

namespace ledger {

using namespace bdps;

namespace {

/// §6.1 setup at the top of the figs 5/6 rate axis.
constexpr double kPaperRatePerMin = 15.0;

/// The dense scale-free shape shared by scale_free_p4 and storm_repair:
/// 4 edges per node, 8 publishers, 4 subscribers per broker, SSD/EBPC at
/// 60 msg/min with online estimation and a few random link failures.
SimConfig scale_free_shape(std::uint64_t seed, std::size_t brokers,
                           double window_minutes) {
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 60.0, StrategyKind::kEbpc, seed);
  config.topology = TopologyKind::kScaleFree;
  config.broker_count = brokers;
  config.scale_free_edges_per_node = 4;
  config.publisher_count = 8;
  config.subscriber_count = brokers * 4;
  config.online_estimation = true;
  config.random_link_failures = 4;
  config.workload.duration = minutes(window_minutes);
  return config;
}

/// One storm run: a radius-1 storm centred on the highest-degree broker
/// (ties: lowest id) of the topology this seed builds, with the hub crashed
/// and a flash crowd that overlaps the outage.  Aiming at the largest hub
/// and recovering every link at once keeps the repair load comparable from
/// seed to seed (README.md: per-link recovery jitter was dropped).
SimConfig storm_config(std::uint64_t seed, bool tiny) {
  const double window = tiny ? 0.5 : 1.0;
  SimConfig config = scale_free_shape(seed, tiny ? 48 : 256, window);
  Rng topology_rng = Rng(seed).split();
  const Topology topology = build_topology(topology_rng, config);
  BrokerId hub = 0;
  for (std::size_t b = 0; b < topology.graph.broker_count(); ++b) {
    const auto broker = static_cast<BrokerId>(b);
    if (topology.graph.out_edges(broker).size() >
        topology.graph.out_edges(hub).size()) {
      hub = broker;
    }
  }
  RegionStorm storm;
  storm.at = minutes(window * 0.25);
  storm.epicenter = hub;
  storm.radius = 1;
  storm.recovery_delay = minutes(window * 0.2);
  storm.recovery_jitter = 0.0;
  storm.kill_brokers = true;
  config.faults.storms.push_back(storm);
  config.workload.bursts.push_back(WorkloadConfig::PublishBurst{
      minutes(window * 0.3), minutes(window * 0.25), 4.0});
  config.repair_routing = true;
  return config;
}

}  // namespace

std::vector<SimConfig> sim_workload_configs(const std::string& workload,
                                            std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  std::vector<SimConfig> configs;
  if (workload == "paper") {
    std::vector<StrategyKind> strategies = paper_comparison_strategies();
    strategies.push_back(StrategyKind::kEbpc);
    // Each paper run draws its own world from the seed, so one pass
    // averages ten worlds instead of repeating one.
    std::uint64_t run_seed = seed * 16;
    for (const ScenarioKind scenario : {ScenarioKind::kSsd, ScenarioKind::kPsd}) {
      for (const StrategyKind strategy : strategies) {
        SimConfig config =
            paper_base_config(scenario, kPaperRatePerMin, strategy, run_seed++);
        config.ebpc_weight = 0.5;
        if (tiny) config.workload.duration = minutes(10.0);
        configs.push_back(std::move(config));
      }
    }
  } else if (workload == "scale_free_p4") {
    SimConfig config = scale_free_shape(seed, tiny ? 64 : 1024,
                                        tiny ? 0.25 : 1.0);
    config.shards = 2;
    configs.push_back(std::move(config));
  } else if (workload == "storm_repair") {
    // Two storm runs, each on its own world drawn from the seed: the cost
    // of a storm depends on how much routing crosses the hub, so one pass
    // averages two hubs instead of repeating one.
    for (std::uint64_t i = 0; i < 2; ++i) {
      configs.push_back(storm_config(seed * 16 + i, tiny));
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return configs;
}

std::vector<LiveRunConfig> live_cluster_configs(std::uint64_t seed,
                                                Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  std::vector<LiveRunConfig> configs;
  for (std::uint64_t i = 0; i < (tiny ? 1 : 4); ++i) {
    LiveRunConfig config;
    config.sim = paper_base_config(ScenarioKind::kSsd, kPaperRatePerMin,
                                   StrategyKind::kEbpc, seed * 16 + i);
    config.sim.ebpc_weight = 0.5;
    config.sim.workload.duration = minutes(tiny ? 10.0 : 30.0);
    config.mode = LiveMode::kSocket;
    config.shards = 2;
    config.workers = 1;
    config.speedup = 1000.0;
    configs.push_back(std::move(config));
  }
  return configs;
}

World build_world(const SimConfig& config) {
  // run_simulation's stream order: topology, workload, links, beliefs,
  // then (only when used) random link failures and the fault timeline.
  Rng root(config.seed);
  Rng topology_rng = root.split();
  Rng workload_rng = root.split();
  root.split();  // Per-link send streams.
  root.split();  // Belief noise.

  World world;
  auto t0 = Clock::now();
  world.topology = build_topology(topology_rng, config);
  auto t1 = Clock::now();
  std::vector<Subscription> subscriptions =
      generate_subscriptions(workload_rng, config.workload, world.topology);
  auto t2 = Clock::now();
  FabricOptions fabric_options;
  fabric_options.repairable = config.repair_routing && !config.faults.empty();
  world.fabric = std::make_unique<RoutingFabric>(
      world.topology, std::move(subscriptions), fabric_options);
  auto t3 = Clock::now();
  world.messages = generate_messages(workload_rng, config.workload,
                                     world.topology.publisher_count());
  auto t4 = Clock::now();
  world.topology_ms = ms_between(t0, t1);
  world.generate_ms = ms_between(t1, t2) + ms_between(t3, t4);
  world.fabric_ms = ms_between(t2, t3);

  if (!config.faults.empty()) {
    if (config.random_link_failures > 0 &&
        world.topology.graph.edge_count() > 0) {
      root.split();  // Random link failures.
    }
    Rng fault_rng = root.split();
    const FaultPlan normalized =
        materialize_faults(config.faults, world.topology.graph, fault_rng);
    world.faults = std::make_shared<const CompiledFaults>(
        CompiledFaults::compile(normalized, world.topology.graph));
  }
  return world;
}

}  // namespace ledger
