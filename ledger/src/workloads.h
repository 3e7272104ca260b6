// The benchmark's workloads and the world each run is built from.
//
// Every configuration starts from the experiment layer's canonical paper
// setup (experiment/paper.h) and changes only workload shape: topology,
// sizes, rates, faults, estimation, shard count.  No matching-engine or
// fabric tuning knob is ever set; ledger/run.py refuses to build sources
// that name one (see ledger/README.md, "Dependency rule").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "experiment/config.h"
#include "experiment/live.h"
#include "routing/fabric.h"
#include "sim/faults/timeline.h"

namespace ledger {

/// The simulator runs one workload consists of, in order.
std::vector<bdps::SimConfig> sim_workload_configs(const std::string& workload,
                                                  std::uint64_t seed,
                                                  Scale scale);

/// The live_cluster worlds: paper SSD/EBPC worlds, each served by a
/// 2-shard socket cluster at a fixed speedup.
std::vector<bdps::LiveRunConfig> live_cluster_configs(std::uint64_t seed,
                                                      Scale scale);

/// Everything run_simulation builds before its first event, rebuilt here
/// through the same public builders and the same RNG stream order, so ids
/// line up with the engine's trace.
struct World {
  bdps::Topology topology;
  std::unique_ptr<bdps::RoutingFabric> fabric;
  std::vector<std::shared_ptr<const bdps::Message>> messages;
  /// Compiled fault batches (nullptr when the plan is empty).
  std::shared_ptr<const bdps::CompiledFaults> faults;
  double topology_ms = 0.0;
  double generate_ms = 0.0;
  double fabric_ms = 0.0;
};

World build_world(const bdps::SimConfig& config);

}  // namespace ledger
