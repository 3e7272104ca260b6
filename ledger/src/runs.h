// Workload runs.  Each fills the report with either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), plus the output
// checks of everything it executed.
#pragma once

#include <vector>

#include "common.h"
#include "experiment/config.h"
#include "spans.h"

namespace ledger {

/// paper, scale_free_p4, storm_repair.
void run_sim_workload(const Options& options, Report& report, Spans& spans);

/// live_cluster.
void run_live_workload(const Options& options, Report& report, Spans& spans);

/// Traced pass over simulator configs: untraced/traced run pairs for
/// `budget_s` seconds (at least one pair), the first traced stream of each
/// config replayed through the layers.  Emits the topology, workload,
/// routing, matching, broker, scheduling and sim metrics.
void measure_sim_layers(const std::vector<bdps::SimConfig>& configs,
                        double budget_s, Report& report, Spans& spans);

/// Zero-valued runtime.* and net.* metrics: the simulator workloads do not
/// run those layers.
void report_no_live_layers(Report& report);

}  // namespace ledger
